//! Record store: extent allocation over a block device.
//!
//! A simple bump allocator with a free list. WORM records are immutable
//! and deletion happens only at retention expiry, so allocation pressure
//! is append-dominated; shredded extents are recycled first-fit to model
//! long-lived stores.
//!
//! The store is shareable: reads go straight to the device with no store
//! state touched, and allocation metadata lives behind a mutex, so one
//! `RecordStore` can serve the server's concurrent read plane while the
//! witness plane appends and shreds.

use bytes::Bytes;
use rand::RngCore;
use wormtrace::sync::{Mutex, Rank};

use crate::block::{BlockDevice, BlockError};
use crate::record::{RecordDescriptor, RecordId};
use crate::shred::Shredder;

/// Errors from the record store.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// No extent large enough for the requested record.
    OutOfSpace {
        /// Bytes requested.
        requested: u64,
        /// Largest contiguous free extent.
        largest_free: u64,
    },
    /// Underlying device failure.
    Device(BlockError),
    /// A descriptor that cannot describe what it is used for. At
    /// recovery: a set that overlaps itself or falls outside the device —
    /// the descriptor source (the VRDT) and the medium disagree. On a
    /// read: a destination that is not the record's length.
    InvalidDescriptor {
        /// Record id of the offending descriptor.
        id: u64,
        /// Claimed extent offset.
        offset: u64,
        /// Claimed extent length.
        len: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::OutOfSpace {
                requested,
                largest_free,
            } => write!(
                f,
                "out of space: requested {requested} bytes, largest free extent {largest_free}"
            ),
            StoreError::Device(e) => write!(f, "device failure: {e}"),
            StoreError::InvalidDescriptor { id, offset, len } => write!(
                f,
                "invalid descriptor: record {id} claims [{offset}, +{len})"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BlockError> for StoreError {
    fn from(e: BlockError) -> Self {
        StoreError::Device(e)
    }
}

/// Cumulative byte/record accounting over a store's life — how much work
/// the medium has absorbed, how much was destroyed, and how much
/// compaction moved. Survives recovery only as far as the caller re-seeds
/// it; a fresh [`RecordStore::recover`] starts the clock at the recovered
/// state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreLifetime {
    /// Bytes written as new records.
    pub bytes_written: u64,
    /// Records written.
    pub records_written: u64,
    /// Bytes destroyed by shredding.
    pub bytes_shredded: u64,
    /// Records destroyed by shredding.
    pub records_shredded: u64,
    /// Bytes copied by compaction relocations.
    pub bytes_relocated: u64,
    /// Compaction relocations performed.
    pub relocations: u64,
    /// Bytes returned to the allocator (shredded extents, rolled-back or
    /// leaked extents reclaimed at recovery, vacated relocation sources).
    pub bytes_reclaimed: u64,
}

/// Allocator bookkeeping, guarded as one unit so an allocation decision
/// and its watermark/free-list update are atomic.
#[derive(Debug)]
struct AllocState {
    next_id: u64,
    /// Bump pointer: everything below is allocated or on the free list.
    watermark: u64,
    /// Recycled extents `(offset, len)`, kept sorted by offset.
    free_list: Vec<(u64, u64)>,
    /// Lifetime accounting, under the same lock as the decisions it
    /// tallies.
    lifetime: StoreLifetime,
}

impl AllocState {
    fn allocate(&mut self, len: u64, capacity: u64) -> Result<u64, StoreError> {
        if len == 0 {
            return Ok(self.watermark);
        }
        // First-fit over recycled extents.
        if let Some(i) = self.free_list.iter().position(|&(_, flen)| flen >= len) {
            let (off, flen) = self.free_list[i];
            if flen == len {
                self.free_list.remove(i);
            } else {
                self.free_list[i] = (off + len, flen - len);
            }
            return Ok(off);
        }
        // Bump allocation.
        let end = self.watermark.checked_add(len);
        match end {
            Some(e) if e <= capacity => {
                let off = self.watermark;
                self.watermark = e;
                Ok(off)
            }
            _ => Err(StoreError::OutOfSpace {
                requested: len,
                largest_free: self
                    .free_list
                    .iter()
                    .map(|&(_, l)| l)
                    .max()
                    .unwrap_or(0)
                    .max(capacity.saturating_sub(self.watermark)),
            }),
        }
    }

    fn release(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.lifetime.bytes_reclaimed += len;
        // Insert sorted and coalesce with neighbours.
        let pos = self.free_list.partition_point(|&(off, _)| off < offset);
        self.free_list.insert(pos, (offset, len));
        // Coalesce right.
        if pos + 1 < self.free_list.len() {
            let (off, l) = self.free_list[pos];
            let (noff, nl) = self.free_list[pos + 1];
            if off + l == noff {
                self.free_list[pos] = (off, l + nl);
                self.free_list.remove(pos + 1);
            }
        }
        // Coalesce left.
        if pos > 0 {
            let (poff, pl) = self.free_list[pos - 1];
            let (off, l) = self.free_list[pos];
            if poff + pl == off {
                self.free_list[pos - 1] = (poff, pl + l);
                self.free_list.remove(pos);
            }
        }
        self.trim_watermark();
    }

    /// Returns freed space touching the bump pointer to the bump region,
    /// so compaction that vacates the top of the store actually lowers
    /// the high-water mark.
    fn trim_watermark(&mut self) {
        while let Some(&(off, len)) = self.free_list.last() {
            if off + len == self.watermark {
                self.watermark = off;
                self.free_list.pop();
            } else {
                break;
            }
        }
    }
}

/// Extent-allocating record store over a [`BlockDevice`].
///
/// All operations take `&self`; `read` never touches allocator state, so
/// concurrent readers proceed without contending on the allocation mutex.
#[derive(Debug)]
pub struct RecordStore<D: BlockDevice> {
    dev: D,
    alloc: Mutex<AllocState>,
}

impl<D: BlockDevice> RecordStore<D> {
    /// Wraps a device in a fresh store.
    pub fn new(dev: D) -> Self {
        RecordStore {
            dev,
            alloc: Mutex::new(
                Rank::Alloc,
                AllocState {
                    next_id: 1,
                    watermark: 0,
                    free_list: Vec::new(),
                    lifetime: StoreLifetime::default(),
                },
            ),
        }
    }

    /// Rebuilds a store around a crashed medium from the authoritative
    /// descriptor set the recovered VRDT reports.
    ///
    /// `live` are the extents that must survive; `reserved` are extents
    /// that are *not* readable records but must not be reallocated yet
    /// (pending shreds still owed their remaining passes). Every gap
    /// below the rebuilt watermark — leaked pre-commit data writes,
    /// vacated compaction sources, records whose journal frames were
    /// lost — is reclaimed onto the free list. This is the paper's
    /// commitment rule made operational: only descriptors the journal
    /// committed define occupied space. A power cut loses the previous
    /// run's watermark, so what it wrote above the rebuilt one stays on
    /// the medium until a write lands there.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidDescriptor`] when the set overlaps itself or
    /// falls outside the device.
    pub fn recover(
        dev: D,
        live: &[RecordDescriptor],
        reserved: &[RecordDescriptor],
    ) -> Result<Self, StoreError> {
        let capacity = dev.capacity();
        let mut extents: Vec<&RecordDescriptor> = live.iter().chain(reserved.iter()).collect();
        extents.sort_by_key(|rd| (rd.offset, rd.len));
        let mut next_id = 1u64;
        let mut free_list = Vec::new();
        // The end of the highest extent so far: the rebuilt watermark.
        let mut watermark = 0u64;
        let mut reclaimed = 0u64;
        for rd in extents {
            let bad = || StoreError::InvalidDescriptor {
                id: rd.id.0,
                offset: rd.offset,
                len: rd.len,
            };
            let end = rd.offset.checked_add(rd.len).ok_or_else(bad)?;
            if end > capacity {
                return Err(bad());
            }
            next_id = next_id.max(rd.id.0.saturating_add(1));
            if rd.len == 0 {
                continue;
            }
            if rd.offset < watermark {
                return Err(bad()); // overlap with the previous extent
            }
            if rd.offset > watermark {
                free_list.push((watermark, rd.offset - watermark));
                reclaimed += rd.offset - watermark;
            }
            watermark = end;
        }
        let lifetime = StoreLifetime {
            bytes_reclaimed: reclaimed,
            ..StoreLifetime::default()
        };
        Ok(RecordStore {
            dev,
            alloc: Mutex::new(
                Rank::Alloc,
                AllocState {
                    next_id,
                    watermark,
                    free_list,
                    lifetime,
                },
            ),
        })
    }

    /// The underlying device (e.g., for I/O statistics).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Bytes currently un-allocatable past the bump pointer.
    pub fn watermark(&self) -> u64 {
        self.alloc.lock().watermark
    }

    /// Stores `data` as a new record.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfSpace`] when no extent fits; device errors
    /// otherwise.
    pub fn write(&self, data: &[u8]) -> Result<RecordDescriptor, StoreError> {
        let span = wormtrace::span::begin("store.write", wormtrace::Plane::Store);
        let result = self.write_inner(data);
        wormtrace::span::finish(span, result.is_ok(), None);
        result
    }

    fn write_inner(&self, data: &[u8]) -> Result<RecordDescriptor, StoreError> {
        let len = data.len() as u64;
        let (offset, id) = {
            let mut alloc = self.alloc.lock();
            let offset = alloc.allocate(len, self.dev.capacity())?;
            let id = RecordId(alloc.next_id);
            alloc.next_id += 1;
            (offset, id)
        };
        self.dev.write_at(offset, data)?;
        {
            let mut alloc = self.alloc.lock();
            alloc.lifetime.bytes_written += len;
            alloc.lifetime.records_written += 1;
        }
        Ok(RecordDescriptor { id, offset, len })
    }

    /// Reads a record's bytes back.
    ///
    /// # Errors
    ///
    /// Propagates device errors (e.g., a stale descriptor past capacity).
    pub fn read(&self, rd: &RecordDescriptor) -> Result<Bytes, StoreError> {
        let mut buf = vec![0u8; rd.len as usize];
        self.read_into(rd, &mut buf)?;
        Ok(Bytes::from(buf))
    }

    /// Reads a record's bytes into `dst` (exactly `rd.len` bytes long):
    /// one copy, device to destination, so a server can land a record
    /// straight in a connection's output buffer.
    ///
    /// # Errors
    ///
    /// Propagates device errors (e.g., a stale descriptor past capacity,
    /// or a destination that is not `rd.len` bytes).
    pub fn read_into(&self, rd: &RecordDescriptor, dst: &mut [u8]) -> Result<(), StoreError> {
        // Span attribution costs one thread-local check when no request
        // trace is attached.
        let span = wormtrace::span::begin("store.read", wormtrace::Plane::Store);
        let result = if dst.len() as u64 == rd.len {
            self.dev.read_at(rd.offset, dst).map_err(StoreError::from)
        } else {
            Err(StoreError::InvalidDescriptor {
                id: rd.id.0,
                offset: rd.offset,
                len: rd.len,
            })
        };
        wormtrace::span::finish(span, result.is_ok(), None);
        result
    }

    /// Destroys a record with the given shredding discipline and recycles
    /// its extent.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the overwrite passes.
    pub fn shred<R: RngCore + ?Sized>(
        &self,
        rd: &RecordDescriptor,
        shredder: Shredder,
        rng: &mut R,
    ) -> Result<(), StoreError> {
        let span = wormtrace::span::begin("store.shred", wormtrace::Plane::Store);
        let result = shredder.shred(&self.dev, rd, rng).map_err(StoreError::from);
        wormtrace::span::finish(span, result.is_ok(), None);
        result?;
        let mut alloc = self.alloc.lock();
        alloc.lifetime.bytes_shredded += rd.len;
        alloc.lifetime.records_shredded += 1;
        alloc.release(rd.offset, rd.len);
        Ok(())
    }

    /// Returns an extent to the allocator without touching its bytes.
    ///
    /// Used by the crash-safe deletion protocol, where the overwrite
    /// passes and the release are separate journaled steps: the extent is
    /// released only after the `shred-done` marker committed, and by a
    /// compaction that vacates a relocation source after its `replace`
    /// record committed.
    pub fn release(&self, rd: &RecordDescriptor) {
        self.alloc.lock().release(rd.offset, rd.len);
    }

    /// Records that `rd`'s bytes were destroyed by externally driven
    /// overwrite passes (the journaled shred protocol drives
    /// [`crate::Shredder::write_pass`] itself so it can persist progress
    /// markers between passes).
    pub fn note_shredded(&self, rd: &RecordDescriptor) {
        let mut alloc = self.alloc.lock();
        alloc.lifetime.bytes_shredded += rd.len;
        alloc.lifetime.records_shredded += 1;
    }

    /// Zeroes every free-list extent on the medium, returning the bytes
    /// scrubbed.
    ///
    /// Crash recovery reclaims extents the journal never committed —
    /// data whose frame never landed, leaked relocation copies — onto the
    /// free list, but reclaiming is bookkeeping only: the *bytes* of a
    /// live record's abandoned copy would otherwise survive until some
    /// future write happens to land there, outliving even the record's
    /// eventual shred. Scrubbing after [`RecordStore::recover`] restores
    /// the invariant that plaintext exists only inside live extents.
    ///
    /// # Errors
    ///
    /// Propagates device errors (a partially scrubbed free list is safe
    /// to re-scrub).
    pub fn scrub_free(&self) -> Result<u64, StoreError> {
        let extents: Vec<(u64, u64)> = self.alloc.lock().free_list.clone();
        let mut scrubbed = 0u64;
        for (offset, len) in extents {
            self.dev.write_at(offset, &vec![0u8; len as usize])?;
            scrubbed += len;
        }
        Ok(scrubbed)
    }

    /// Copies a live record into the lowest free extent below its current
    /// offset, returning the new descriptor (same id and length). Returns
    /// `Ok(None)` when no strictly lower free extent fits.
    ///
    /// The source extent is *not* released — the caller does that once
    /// the descriptor replacement has durably committed, so a crash
    /// between copy and commit merely leaks the copy (reclaimed by the
    /// next [`RecordStore::recover`]).
    ///
    /// # Errors
    ///
    /// Propagates device errors from the copy.
    pub fn relocate_down(
        &self,
        rd: &RecordDescriptor,
    ) -> Result<Option<RecordDescriptor>, StoreError> {
        if rd.len == 0 {
            return Ok(None);
        }
        let target = {
            let mut alloc = self.alloc.lock();
            let slot = alloc
                .free_list
                .iter()
                .position(|&(off, flen)| off < rd.offset && flen >= rd.len);
            match slot {
                None => return Ok(None),
                Some(i) => {
                    let (off, flen) = alloc.free_list[i];
                    if flen == rd.len {
                        alloc.free_list.remove(i);
                    } else {
                        alloc.free_list[i] = (off + rd.len, flen - rd.len);
                    }
                    off
                }
            }
        };
        let copy = (|| {
            let mut buf = vec![0u8; rd.len as usize];
            self.dev.read_at(rd.offset, &mut buf)?;
            self.dev.write_at(target, &buf)
        })();
        let mut alloc = self.alloc.lock();
        if let Err(e) = copy {
            // Hand the slot back; the medium may hold a torn copy but the
            // extent is free space either way.
            alloc.release(target, rd.len);
            return Err(e.into());
        }
        alloc.lifetime.bytes_relocated += rd.len;
        alloc.lifetime.relocations += 1;
        Ok(Some(RecordDescriptor {
            id: rd.id,
            offset: target,
            len: rd.len,
        }))
    }

    /// Lifetime accounting snapshot.
    pub fn lifetime(&self) -> StoreLifetime {
        self.alloc.lock().lifetime
    }

    /// Number of entries on the free list (for fragmentation diagnostics).
    pub fn free_extents(&self) -> usize {
        self.alloc.lock().free_list.len()
    }

    /// Total free-list bytes (excludes the untouched region past the
    /// watermark).
    pub fn free_bytes(&self) -> u64 {
        self.alloc.lock().free_list.iter().map(|&(_, l)| l).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemDisk;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn store(cap: usize) -> RecordStore<MemDisk> {
        RecordStore::new(MemDisk::unmetered(cap))
    }

    #[test]
    fn write_read_roundtrip() {
        let s = store(1024);
        let rd1 = s.write(b"first record").unwrap();
        let rd2 = s.write(b"second record").unwrap();
        assert_ne!(rd1.id, rd2.id);
        assert!(!rd1.overlaps(&rd2));
        assert_eq!(&s.read(&rd1).unwrap()[..], b"first record");
        assert_eq!(&s.read(&rd2).unwrap()[..], b"second record");
    }

    #[test]
    fn out_of_space() {
        let s = store(16);
        s.write(b"0123456789").unwrap();
        match s.write(b"0123456789") {
            Err(StoreError::OutOfSpace {
                requested: 10,
                largest_free: 6,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn scrub_free_zeroes_reclaimed_gaps() {
        let dev = MemDisk::unmetered(64);
        // A leaked (uncommitted) extent full of plaintext sits between
        // two live records after a crash.
        dev.write_at(0, b"live-one").unwrap();
        dev.write_at(8, b"LEAKED-PLAINTEXT").unwrap();
        dev.write_at(24, b"live-two").unwrap();
        let live = [
            RecordDescriptor {
                id: RecordId(1),
                offset: 0,
                len: 8,
            },
            RecordDescriptor {
                id: RecordId(2),
                offset: 24,
                len: 8,
            },
        ];
        let s = RecordStore::recover(dev, &live, &[]).unwrap();
        assert_eq!(s.free_bytes(), 16);
        assert_eq!(s.scrub_free().unwrap(), 16);
        let mut gap = [0u8; 16];
        s.device().read_at(8, &mut gap).unwrap();
        assert_eq!(gap, [0u8; 16], "reclaimed gap must be zeroed");
        // The gap is allocatable again, and the bump pointer resumes at
        // the rebuilt watermark.
        assert_eq!(s.write(b"reused").unwrap().offset, 8);
        assert_eq!(s.write(&[1u8; 10]).unwrap().offset, 14);
        assert_eq!(s.write(b"tail").unwrap().offset, 32);
        // Live extents are untouched.
        assert_eq!(&s.read(&live[0]).unwrap()[..], b"live-one");
        assert_eq!(&s.read(&live[1]).unwrap()[..], b"live-two");
    }

    #[test]
    fn shred_recycles_extent() {
        let s = store(32);
        let mut rng = StdRng::seed_from_u64(1);
        let rd1 = s.write(b"0123456789abcdef").unwrap(); // 16 bytes
        s.write(b"0123456789abcdef").unwrap(); // fills the disk
        assert!(s.write(b"x").is_err());
        s.shred(&rd1, Shredder::ZeroFill, &mut rng).unwrap();
        // Recycled space is usable again.
        let rd3 = s.write(b"new").unwrap();
        assert_eq!(rd3.offset, rd1.offset);
        assert_eq!(&s.read(&rd3).unwrap()[..], b"new");
    }

    #[test]
    fn free_list_coalesces() {
        let s = store(64);
        let mut rng = StdRng::seed_from_u64(2);
        let rds: Vec<_> = (0..4).map(|_| s.write(&[7u8; 16]).unwrap()).collect();
        s.shred(&rds[0], Shredder::ZeroFill, &mut rng).unwrap();
        s.shred(&rds[2], Shredder::ZeroFill, &mut rng).unwrap();
        assert_eq!(s.free_extents(), 2);
        s.shred(&rds[1], Shredder::ZeroFill, &mut rng).unwrap();
        // 0..48 coalesced into one extent.
        assert_eq!(s.free_extents(), 1);
        // Big allocation now fits in the coalesced hole.
        let rd = s.write(&[9u8; 48]).unwrap();
        assert_eq!(rd.offset, 0);
    }

    #[test]
    fn partial_reuse_splits_extent() {
        let s = store(64);
        let mut rng = StdRng::seed_from_u64(3);
        let rd = s.write(&[1u8; 32]).unwrap();
        s.write(&[2u8; 32]).unwrap();
        s.shred(&rd, Shredder::ZeroFill, &mut rng).unwrap();
        let small = s.write(&[3u8; 8]).unwrap();
        assert_eq!(small.offset, 0);
        assert_eq!(s.free_extents(), 1); // 24 bytes remain free
        let rest = s.write(&[4u8; 24]).unwrap();
        assert_eq!(rest.offset, 8);
        assert_eq!(s.free_extents(), 0);
    }

    #[test]
    fn zero_length_record() {
        let s = store(8);
        let rd = s.write(b"").unwrap();
        assert_eq!(rd.len, 0);
        assert_eq!(s.read(&rd).unwrap().len(), 0);
        assert_eq!(s.watermark(), 0);
    }

    #[test]
    fn concurrent_writers_get_disjoint_extents() {
        use std::sync::Arc;
        let s = Arc::new(store(64 * 1024));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    (0..64)
                        .map(|i| s.write(&[t as u8; 37]).map(|rd| (i, rd)).unwrap().1)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<RecordDescriptor> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        // Unique ids, no overlapping extents.
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.id, b.id);
                assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn recover_reclaims_gaps_and_preserves_live_extents() {
        let dev = MemDisk::unmetered(256);
        dev.write_at(32, b"live-one").unwrap();
        dev.write_at(96, b"live-two").unwrap();
        let live = [
            RecordDescriptor {
                id: RecordId(3),
                offset: 32,
                len: 8,
            },
            RecordDescriptor {
                id: RecordId(7),
                offset: 96,
                len: 8,
            },
        ];
        let s = RecordStore::recover(dev, &live, &[]).unwrap();
        // Gaps [0,32) and [40,96) are free; watermark sits at 104.
        assert_eq!(s.watermark(), 104);
        assert_eq!(s.free_extents(), 2);
        assert_eq!(s.free_bytes(), 32 + 56);
        assert_eq!(s.lifetime().bytes_reclaimed, 88);
        // Live bytes readable; new writes land in reclaimed space and ids
        // never collide with recovered ones.
        assert_eq!(&s.read(&live[0]).unwrap()[..], b"live-one");
        let new = s.write(b"post-crash").unwrap();
        assert!(new.id.0 > 7);
        assert_eq!(new.offset, 0);
        assert!(!new.overlaps(&live[0]) && !new.overlaps(&live[1]));
    }

    #[test]
    fn recover_reserves_pending_shred_extents() {
        let dev = MemDisk::unmetered(64);
        let live = [RecordDescriptor {
            id: RecordId(1),
            offset: 0,
            len: 16,
        }];
        let pending = [RecordDescriptor {
            id: RecordId(2),
            offset: 16,
            len: 16,
        }];
        let s = RecordStore::recover(dev, &live, &pending).unwrap();
        // The pending-shred extent must not be handed out.
        let rd = s.write(&[1u8; 16]).unwrap();
        assert_eq!(rd.offset, 32);
        // Once the shred completes, the caller releases it explicitly.
        s.release(&pending[0]);
        let rd2 = s.write(&[2u8; 16]).unwrap();
        assert_eq!(rd2.offset, 16);
    }

    #[test]
    fn recover_rejects_overlap_and_out_of_capacity() {
        let dev = MemDisk::unmetered(64);
        let overlapping = [
            RecordDescriptor {
                id: RecordId(1),
                offset: 0,
                len: 16,
            },
            RecordDescriptor {
                id: RecordId(2),
                offset: 8,
                len: 16,
            },
        ];
        assert!(matches!(
            RecordStore::recover(MemDisk::unmetered(64), &overlapping, &[]),
            Err(StoreError::InvalidDescriptor { id: 2, .. })
        ));
        let oob = [RecordDescriptor {
            id: RecordId(1),
            offset: 60,
            len: 16,
        }];
        assert!(matches!(
            RecordStore::recover(dev, &oob, &[]),
            Err(StoreError::InvalidDescriptor { id: 1, .. })
        ));
    }

    #[test]
    fn relocate_down_moves_into_lowest_hole_keeping_id() {
        let s = store(128);
        let mut rng = StdRng::seed_from_u64(4);
        let a = s.write(&[1u8; 32]).unwrap();
        let b = s.write(&[2u8; 32]).unwrap();
        s.shred(&a, Shredder::ZeroFill, &mut rng).unwrap();
        // `b` sits at 32..64 with a 32-byte hole below it.
        let moved = s.relocate_down(&b).unwrap().expect("hole fits");
        assert_eq!(moved.id, b.id);
        assert_eq!(moved.offset, 0);
        assert_eq!(&s.read(&moved).unwrap()[..], &[2u8; 32][..]);
        // Caller releases the vacated source after committing.
        s.release(&b);
        assert_eq!(s.watermark(), 32, "vacating the top trims the watermark");
        assert_eq!(s.lifetime().relocations, 1);
        assert_eq!(s.lifetime().bytes_relocated, 32);
        // Nothing lower available now: no-op.
        assert!(s.relocate_down(&moved).unwrap().is_none());
    }

    #[test]
    fn lifetime_counters_track_writes_and_shreds() {
        let s = store(128);
        let mut rng = StdRng::seed_from_u64(5);
        let a = s.write(&[1u8; 10]).unwrap();
        s.write(&[2u8; 20]).unwrap();
        s.shred(&a, Shredder::ZeroFill, &mut rng).unwrap();
        let lt = s.lifetime();
        assert_eq!(lt.records_written, 2);
        assert_eq!(lt.bytes_written, 30);
        assert_eq!(lt.records_shredded, 1);
        assert_eq!(lt.bytes_shredded, 10);
        assert_eq!(lt.bytes_reclaimed, 10);
    }

    #[test]
    fn error_display() {
        let e = StoreError::OutOfSpace {
            requested: 100,
            largest_free: 10,
        };
        assert!(e.to_string().contains("100"));
    }
}
