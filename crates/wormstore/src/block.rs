//! Block device abstraction with a seek/transfer latency model.
//!
//! The paper closes by noting that "I/O seek and transfer overheads are
//! likely to constitute the main operational bottlenecks (and not the WORM
//! layer)" — 3–4 ms per block access on enterprise disks of the era. To
//! let benchmarks reproduce that comparison, every device charges each
//! access into a virtual-time counter using a [`DiskProfile`].
//!
//! Devices deliberately expose raw write access: the Strong WORM threat
//! model's insider ("Mallory") has physical access to the medium, and the
//! adversarial test suites mutate blocks directly through this interface.
//!
//! All device operations take `&self`: the read path of the WORM server
//! (paper §4.1 — reads are served by the untrusted host alone) must be
//! shareable across reader threads, so devices use interior mutability —
//! the medium behind a reader-writer lock, the accounting in atomics.

use bytes::Bytes;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use wormtrace::sync::{Rank, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Latency profile charged per access.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskProfile {
    /// Average positioning (seek + rotational) latency per access, ns.
    pub seek_ns: u64,
    /// Transfer cost per byte, ns.
    pub per_byte_ns: f64,
}

impl DiskProfile {
    /// High-speed enterprise disk circa 2008: ~3.5 ms access, ~100 MB/s.
    pub fn enterprise_2008() -> Self {
        DiskProfile {
            seek_ns: 3_500_000,
            per_byte_ns: 10.0,
        }
    }

    /// Zero-cost profile for pure functional tests.
    pub fn free() -> Self {
        DiskProfile {
            seek_ns: 0,
            per_byte_ns: 0.0,
        }
    }

    fn cost_ns(&self, bytes: usize) -> u64 {
        self.seek_ns + (bytes as f64 * self.per_byte_ns) as u64
    }
}

/// I/O accounting snapshot shared by the device implementations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Read operations issued.
    pub reads: u64,
    /// Write operations issued.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Accumulated virtual latency in nanoseconds.
    pub busy_ns: u128,
}

/// Lock-free accounting cell behind [`IoStats`] snapshots. Counters are
/// `Relaxed`: they are metrics, not synchronization, and a snapshot taken
/// concurrently with traffic is allowed to be mid-operation.
#[derive(Debug, Default)]
struct AtomicIoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    busy_ns: AtomicU64,
}

impl AtomicIoStats {
    // Each `ordering:` note below defers to the type-level contract
    // above: counters are statistics, never synchronization.
    fn record_read(&self, bytes: usize, cost_ns: u64) {
        self.reads.fetch_add(1, Ordering::Relaxed); // ordering: metric, see type doc
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed); // ordering: metric
        self.busy_ns.fetch_add(cost_ns, Ordering::Relaxed); // ordering: metric
    }

    fn record_write(&self, bytes: usize, cost_ns: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed); // ordering: metric, see type doc
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed); // ordering: metric
        self.busy_ns.fetch_add(cost_ns, Ordering::Relaxed); // ordering: metric
    }

    fn snapshot(&self) -> IoStats {
        IoStats {
            // ordering: per-field-consistent metric reads, see type doc
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed), // ordering: as above
            bytes_read: self.bytes_read.load(Ordering::Relaxed), // ordering: as above
            bytes_written: self.bytes_written.load(Ordering::Relaxed), // ordering: as above
            busy_ns: u128::from(self.busy_ns.load(Ordering::Relaxed)), // ordering: as above
        }
    }

    fn reset(&self) {
        // ordering: metric zeroing, racy-by-design against traffic
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed); // ordering: as above
        self.bytes_read.store(0, Ordering::Relaxed); // ordering: as above
        self.bytes_written.store(0, Ordering::Relaxed); // ordering: as above
        self.busy_ns.store(0, Ordering::Relaxed); // ordering: as above
    }
}

/// Errors from block device operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum BlockError {
    /// Access beyond the end of the device.
    OutOfRange {
        /// First out-of-range byte offset.
        offset: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// Underlying OS-level I/O failure (file-backed devices).
    Io(std::io::Error),
    /// The device lost power mid-operation (fault injection — see
    /// [`crate::TornDisk`]). Every access fails with this until the
    /// "host" reboots and revives the device for recovery.
    PowerLost {
        /// Which write boundary the cut fired at (1-based count of
        /// writes issued to the device, including the torn one).
        at_write: u64,
    },
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::OutOfRange { offset, capacity } => {
                write!(f, "access at {offset} beyond device capacity {capacity}")
            }
            BlockError::Io(e) => write!(f, "i/o failure: {e}"),
            BlockError::PowerLost { at_write } => {
                write!(f, "power lost at write boundary {at_write}")
            }
        }
    }
}

impl std::error::Error for BlockError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BlockError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BlockError {
    fn from(e: std::io::Error) -> Self {
        BlockError::Io(e)
    }
}

/// A byte-addressable storage device with latency accounting.
///
/// Offsets are byte offsets; callers lay out their own block/extent
/// structure on top. Implementations must support arbitrary overwrite —
/// WORM semantics are enforced *above* this layer (that is the point of
/// the paper: the medium itself is rewritable and untrusted).
///
/// All operations take `&self` and implementations must be safe to share
/// across threads (`Send + Sync`): the server's read plane issues
/// concurrent reads against one device while the witness plane writes.
pub trait BlockDevice: Send + Sync {
    /// Device capacity in bytes.
    fn capacity(&self) -> u64;

    /// Reads `buf.len()` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// [`BlockError::OutOfRange`] if the range exceeds capacity;
    /// [`BlockError::Io`] on OS failures.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), BlockError>;

    /// Writes `data` at `offset`.
    ///
    /// # Errors
    ///
    /// [`BlockError::OutOfRange`] if the range exceeds capacity;
    /// [`BlockError::Io`] on OS failures.
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), BlockError>;

    /// I/O statistics since construction (or the last reset).
    fn stats(&self) -> IoStats;

    /// Zeroes the statistics counters.
    fn reset_stats(&self);
}

/// In-memory device (the default substrate for tests and benchmarks).
#[derive(Debug)]
pub struct MemDisk {
    /// The medium. Individual accesses take the lock briefly; the
    /// capacity is fixed at construction so bounds checks stay lock-free.
    data: RwLock<Vec<u8>>,
    capacity: u64,
    profile: DiskProfile,
    stats: AtomicIoStats,
}

impl MemDisk {
    /// Device of `capacity` bytes with the given latency profile.
    pub fn new(capacity: usize, profile: DiskProfile) -> Self {
        MemDisk {
            data: RwLock::new(Rank::Data, vec![0u8; capacity]),
            capacity: capacity as u64,
            profile,
            stats: AtomicIoStats::default(),
        }
    }

    /// Zero-latency device of `capacity` bytes.
    pub fn unmetered(capacity: usize) -> Self {
        Self::new(capacity, DiskProfile::free())
    }

    /// Direct read-only view of the medium (Mallory's disk-platter view).
    /// Holds the medium's read lock for the guard's lifetime.
    pub fn raw(&self) -> RwLockReadGuard<'_, Vec<u8>> {
        self.data.read()
    }

    /// Direct mutable view of the medium — the physical-access attack
    /// surface the paper's adversary exploits against soft-WORM systems.
    /// Holds the medium's write lock for the guard's lifetime.
    pub fn raw_mut(&self) -> RwLockWriteGuard<'_, Vec<u8>> {
        self.data.write()
    }

    /// Resolves `offset..offset+len` to an in-bounds index range of the
    /// medium, *fully* validated before any mutation happens: offset
    /// arithmetic is overflow-checked in `u64`, the end is checked
    /// against the fixed capacity, and the `usize` conversions are
    /// checked too (a 32-bit host must not wrap a >4 GiB offset into a
    /// small index and half-apply an oversized write).
    fn range(&self, offset: u64, len: usize) -> Result<std::ops::Range<usize>, BlockError> {
        let oob = || BlockError::OutOfRange {
            offset,
            capacity: self.capacity,
        };
        let end = offset.checked_add(len as u64).ok_or_else(oob)?;
        if end > self.capacity {
            return Err(oob());
        }
        let start = usize::try_from(offset).map_err(|_| oob())?;
        let end = usize::try_from(end).map_err(|_| oob())?;
        Ok(start..end)
    }
}

impl BlockDevice for MemDisk {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        let range = self.range(offset, buf.len())?;
        let data = self.data.read();
        // The range was validated against the fixed capacity, which
        // equals the medium length by construction; `get` keeps even a
        // broken invariant from panicking the serving path.
        let src = data.get(range).ok_or(BlockError::OutOfRange {
            offset,
            capacity: self.capacity,
        })?;
        buf.copy_from_slice(src);
        drop(data);
        self.stats
            .record_read(buf.len(), self.profile.cost_ns(buf.len()));
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), BlockError> {
        // Validate the whole range BEFORE taking the write lock: either
        // every byte of `data` lands on the medium or none does.
        let range = self.range(offset, data.len())?;
        let mut medium = self.data.write();
        let dst = medium.get_mut(range).ok_or(BlockError::OutOfRange {
            offset,
            capacity: self.capacity,
        })?;
        dst.copy_from_slice(data);
        drop(medium);
        self.stats
            .record_write(data.len(), self.profile.cost_ns(data.len()));
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

/// File-backed device for persistence tests.
#[derive(Debug)]
pub struct FileDisk {
    file: File,
    capacity: u64,
    profile: DiskProfile,
    stats: AtomicIoStats,
}

impl FileDisk {
    /// Creates (or truncates) a device file of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Propagates OS errors creating or sizing the file.
    pub fn create<P: AsRef<Path>>(
        path: P,
        capacity: u64,
        profile: DiskProfile,
    ) -> Result<Self, BlockError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(capacity)?;
        Ok(FileDisk {
            file,
            capacity,
            profile,
            stats: AtomicIoStats::default(),
        })
    }

    /// Opens an existing device file.
    ///
    /// # Errors
    ///
    /// Propagates OS errors opening or inspecting the file.
    pub fn open<P: AsRef<Path>>(path: P, profile: DiskProfile) -> Result<Self, BlockError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let capacity = file.metadata()?.len();
        Ok(FileDisk {
            file,
            capacity,
            profile,
            stats: AtomicIoStats::default(),
        })
    }

    fn check(&self, offset: u64, len: usize) -> Result<(), BlockError> {
        match offset.checked_add(len as u64) {
            Some(e) if e <= self.capacity => Ok(()),
            _ => Err(BlockError::OutOfRange {
                offset,
                capacity: self.capacity,
            }),
        }
    }
}

impl BlockDevice for FileDisk {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        self.check(offset, buf.len())?;
        // Positioned read: no shared cursor, safe under concurrency.
        self.file.read_exact_at(buf, offset)?;
        self.stats
            .record_read(buf.len(), self.profile.cost_ns(buf.len()));
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), BlockError> {
        self.check(offset, data.len())?;
        self.file.write_all_at(data, offset)?;
        self.stats
            .record_write(data.len(), self.profile.cost_ns(data.len()));
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

/// Shared handles to one device: a durable deployment carves a journal
/// region and a data region out of the same medium, each behind its own
/// [`Partition`] over a cloned `Arc` of the device.
impl<D: BlockDevice + ?Sized> BlockDevice for std::sync::Arc<D> {
    fn capacity(&self) -> u64 {
        (**self).capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        (**self).read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), BlockError> {
        (**self).write_at(offset, data)
    }

    fn stats(&self) -> IoStats {
        (**self).stats()
    }

    fn reset_stats(&self) {
        (**self).reset_stats()
    }
}

/// A [`BlockDevice`] view over a byte sub-range of another device.
///
/// The durable store layout puts the VRDT journal and the record data on
/// one medium; each layer sees only its own partition, so a bug in one
/// cannot scribble over the other and bounds checks stay local. Offsets
/// are translated by `base`; accesses past `len` fail with the
/// *partition's* capacity, not the device's.
#[derive(Clone, Debug)]
pub struct Partition<D> {
    inner: D,
    base: u64,
    len: u64,
}

impl<D: BlockDevice> Partition<D> {
    /// A view of `len` bytes of `inner` starting at `base`.
    ///
    /// # Errors
    ///
    /// [`BlockError::OutOfRange`] if `base + len` exceeds the inner
    /// device's capacity.
    pub fn new(inner: D, base: u64, len: u64) -> Result<Self, BlockError> {
        match base.checked_add(len) {
            Some(end) if end <= inner.capacity() => Ok(Partition { inner, base, len }),
            _ => Err(BlockError::OutOfRange {
                offset: base,
                capacity: inner.capacity(),
            }),
        }
    }

    /// The underlying device handle.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    fn translate(&self, offset: u64, len: usize) -> Result<u64, BlockError> {
        let oob = || BlockError::OutOfRange {
            offset,
            capacity: self.len,
        };
        let end = offset.checked_add(len as u64).ok_or_else(oob)?;
        if end > self.len {
            return Err(oob());
        }
        // base + end <= base + len <= inner capacity, checked at
        // construction, so this cannot overflow.
        Ok(self.base + offset)
    }
}

impl<D: BlockDevice> BlockDevice for Partition<D> {
    fn capacity(&self) -> u64 {
        self.len
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        let at = self.translate(offset, buf.len())?;
        self.inner.read_at(at, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), BlockError> {
        let at = self.translate(offset, data.len())?;
        self.inner.write_at(at, data)
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// Convenience: reads a whole range as [`Bytes`].
///
/// # Errors
///
/// Propagates the device's [`BlockError`].
pub fn read_bytes<D: BlockDevice + ?Sized>(
    dev: &D,
    offset: u64,
    len: usize,
) -> Result<Bytes, BlockError> {
    let mut buf = vec![0u8; len];
    dev.read_at(offset, &mut buf)?;
    Ok(Bytes::from(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn memdisk_roundtrip() {
        let d = MemDisk::unmetered(1024);
        d.write_at(100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        d.read_at(100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(d.capacity(), 1024);
    }

    #[test]
    fn memdisk_bounds() {
        let d = MemDisk::unmetered(10);
        assert!(matches!(
            d.write_at(8, b"abc"),
            Err(BlockError::OutOfRange {
                offset: 8,
                capacity: 10
            })
        ));
        let mut buf = [0u8; 4];
        assert!(d.read_at(7, &mut buf).is_err());
        // Exactly at the end is fine.
        d.write_at(7, b"abc").unwrap();
        // Overflow-proof offset arithmetic.
        assert!(d.write_at(u64::MAX, b"x").is_err());
    }

    #[test]
    fn memdisk_stats_and_latency() {
        let d = MemDisk::new(4096, DiskProfile::enterprise_2008());
        d.write_at(0, &[0u8; 1000]).unwrap();
        let mut buf = [0u8; 1000];
        d.read_at(0, &mut buf).unwrap();
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_read, 1000);
        assert_eq!(s.bytes_written, 1000);
        // Two accesses ≈ 2 * (3.5ms + 10µs).
        assert!(s.busy_ns > 7_000_000);
        d.reset_stats();
        assert_eq!(d.stats(), IoStats::default());
    }

    #[test]
    fn raw_access_models_physical_attack() {
        let d = MemDisk::unmetered(64);
        d.write_at(0, b"compliance-record").unwrap();
        // Mallory edits the platter directly, bypassing write_at.
        d.raw_mut()[0] = b'X';
        let mut buf = [0u8; 17];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf[..1], b"X");
    }

    #[test]
    fn concurrent_readers_share_a_device() {
        let d = Arc::new(MemDisk::unmetered(4096));
        d.write_at(0, &[7u8; 4096]).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let mut buf = [0u8; 512];
                        d.read_at(1024, &mut buf).unwrap();
                        assert!(buf.iter().all(|&b| b == 7));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.stats().reads, 200);
    }

    #[test]
    fn filedisk_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("wormstore-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk.img");
        {
            let d = FileDisk::create(&path, 4096, DiskProfile::free()).unwrap();
            d.write_at(123, b"persist me").unwrap();
            assert_eq!(d.capacity(), 4096);
        }
        {
            let d = FileDisk::open(&path, DiskProfile::free()).unwrap();
            let b = read_bytes(&d, 123, 10).unwrap();
            assert_eq!(&b[..], b"persist me");
            assert!(d.write_at(4090, b"toolong").is_err());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_bytes_helper() {
        let d = MemDisk::unmetered(32);
        d.write_at(4, b"abcd").unwrap();
        let b = read_bytes(&d, 4, 4).unwrap();
        assert_eq!(&b[..], b"abcd");
    }

    #[test]
    fn error_display() {
        let e = BlockError::OutOfRange {
            offset: 100,
            capacity: 50,
        };
        assert!(e.to_string().contains("100"));
        assert!(BlockError::PowerLost { at_write: 7 }
            .to_string()
            .contains("7"));
    }

    #[test]
    fn oversized_write_mutates_nothing() {
        // Regression: an out-of-range write must be rejected *before*
        // any byte lands on the medium — no half-applied prefix.
        let d = MemDisk::unmetered(16);
        d.write_at(0, &[0xAA; 16]).unwrap();
        assert!(d.write_at(8, &[0xBB; 16]).is_err());
        assert!(d.write_at(8, &[0xBB; 9]).is_err());
        assert!(d.write_at(u64::MAX - 4, &[0xBB; 8]).is_err()); // offset overflow
        assert!(
            d.raw().iter().all(|&b| b == 0xAA),
            "failed write left partial bytes on the medium"
        );
        // Writes also don't count toward stats when rejected.
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn partition_translates_and_bounds() {
        let d = Arc::new(MemDisk::unmetered(100));
        let p = Partition::new(Arc::clone(&d), 40, 20).unwrap();
        assert_eq!(p.capacity(), 20);
        p.write_at(0, b"edge").unwrap();
        let mut buf = [0u8; 4];
        d.read_at(40, &mut buf).unwrap();
        assert_eq!(&buf, b"edge");
        // End of partition is fine; one past is not.
        p.write_at(16, b"tail").unwrap();
        assert!(matches!(
            p.write_at(17, b"tail"),
            Err(BlockError::OutOfRange { capacity: 20, .. })
        ));
        assert!(p.write_at(u64::MAX, b"x").is_err());
        // A partition cannot extend past the device.
        assert!(Partition::new(Arc::clone(&d), 90, 20).is_err());
    }

    #[test]
    fn arc_device_shares_medium() {
        let d = Arc::new(MemDisk::unmetered(32));
        let a = Arc::clone(&d);
        a.write_at(0, b"shared").unwrap();
        let mut buf = [0u8; 6];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
        assert_eq!(d.stats().writes, 1);
    }
}
