//! Crash-safe append-only journal.
//!
//! The untrusted host keeps the VRDT on disk (§4.2.1); a crash between the
//! data write and the VRDT update must not corrupt previously committed
//! descriptors. [`Journal`] provides the standard discipline: length- and
//! checksum-framed entries appended sequentially, with replay stopping at
//! the first torn or corrupt frame.
//!
//! Integrity here is against *accidents* only — a CRC stops a torn write,
//! not Mallory. Detecting malicious edits is the WORM layer's job (the
//! SCPU signatures), which is exactly the paper's division of labour.
//!
//! ## Frame format
//!
//! ```text
//! [len: u32][epoch: u32][pcrc: u32][hcrc: u32][payload: len bytes]
//! ```
//!
//! * `pcrc` — CRC-32 of the payload (torn / bit-rotted payloads).
//! * `hcrc` — CRC-32 of the first 12 header bytes. A frame whose length
//!   field was corrupted (or is pure garbage that happens to sit at a
//!   frame boundary) is rejected *before* the length is trusted, so a
//!   bogus `len` can never send replay chasing bytes that accidentally
//!   CRC-match.
//! * `epoch` — bumped once per recovery ([`Journal::from_bytes`]). Replay
//!   requires epochs to be non-decreasing: when a tail recovery discarded
//!   (past a torn or corrupt frame) is partially overwritten by
//!   post-recovery appends, any stale still-intact frame beyond the new
//!   tail carries an older epoch and stops replay instead of resurrecting
//!   discarded state.
//!
//! [`DiskJournal`] binds a journal to a [`BlockDevice`] region: each
//! append is a single `write_at` (one power-cut boundary), recovery scans
//! the region for the valid prefix, and [`DurableLog::cut_tail`] makes
//! the discard durable by zeroing everything past the valid prefix.

use crate::block::{BlockDevice, BlockError};

/// Frame header: payload length, epoch, payload CRC-32, header CRC-32.
const HEADER_LEN: usize = 16;

/// Bytes of the header covered by `hcrc` (everything before it).
const HCRC_COVERS: usize = 12;

/// Hard cap on a single entry's payload. Journal entries are encoded
/// descriptors, not data records; anything bigger is a caller bug and is
/// rejected at append *and* at replay (defense in depth against a
/// corrupted length field that somehow passes both CRCs).
pub const MAX_ENTRY_LEN: usize = 1 << 24;

/// Journal-layer failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// The underlying block device failed (including injected power
    /// loss).
    Device(BlockError),
    /// The journal region is out of space for the frame being appended.
    Full {
        /// Bytes the frame needs.
        needed: u64,
        /// Bytes left in the region.
        remaining: u64,
    },
    /// The payload exceeds [`MAX_ENTRY_LEN`].
    PayloadTooLarge {
        /// Offending payload length.
        len: usize,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Device(e) => write!(f, "journal device error: {e}"),
            JournalError::Full { needed, remaining } => {
                write!(
                    f,
                    "journal region full: need {needed} bytes, {remaining} remain"
                )
            }
            JournalError::PayloadTooLarge { len } => {
                write!(f, "journal payload of {len} bytes exceeds {MAX_ENTRY_LEN}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<BlockError> for JournalError {
    fn from(e: BlockError) -> Self {
        JournalError::Device(e)
    }
}

/// Encodes one frame with the given epoch.
fn seal_frame(epoch: u32, payload: &[u8], len: u32) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&epoch.to_be_bytes());
    frame.extend_from_slice(&crc32(payload).to_be_bytes());
    let hcrc = crc32(&frame[..HCRC_COVERS]);
    frame.extend_from_slice(&hcrc.to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Append-only journal over an in-memory byte log. It holds whole frames
/// only: [`Journal::append`] adds one, and [`Journal::from_bytes`] keeps
/// exactly the valid prefix of what it is handed.
///
/// ```
/// use wormstore::Journal;
///
/// let mut j = Journal::new();
/// j.append(b"entry-1").unwrap();
/// j.append(b"entry-2").unwrap();
/// let entries: Vec<_> = j.replay().collect();
/// assert_eq!(entries, vec![b"entry-1".to_vec(), b"entry-2".to_vec()]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Journal {
    log: Vec<u8>,
    /// Epoch stamped on appended frames; bumped past everything seen on
    /// each [`Journal::from_bytes`] recovery.
    epoch: u32,
    /// Whether [`Journal::from_bytes`] discarded a torn/corrupt suffix.
    torn: bool,
}

impl Journal {
    /// Empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rehydrates a journal from raw log bytes (e.g., read from disk after
    /// a crash). An invalid suffix — a torn frame, bit rot, garbage — is
    /// *discarded*: the journal becomes exactly the valid prefix, so
    /// post-recovery appends extend replayable state instead of landing
    /// unreachably behind the damage. The append epoch is bumped past
    /// every epoch observed, so frames written after recovery dominate
    /// any stale remnant still present on a durable medium.
    pub fn from_bytes(mut log: Vec<u8>) -> Self {
        let mut replay = Replay {
            log: &log,
            pos: 0,
            max_epoch: 0,
        };
        replay.by_ref().for_each(drop);
        let (consumed, epoch) = (replay.pos, replay.max_epoch.saturating_add(1));
        // An all-zero remainder is clean padding (a region read back in
        // full); anything nonzero past the valid prefix is a torn frame
        // or stale garbage.
        let torn = log[consumed..].iter().any(|&b| b != 0);
        log.truncate(consumed);
        Journal { log, epoch, torn }
    }

    /// Whether the bytes handed to [`Journal::from_bytes`] ended in a
    /// torn or corrupt suffix (now discarded).
    pub fn recovered_torn_tail(&self) -> bool {
        self.torn
    }

    /// Raw log bytes (what would be persisted).
    pub fn as_bytes(&self) -> &[u8] {
        &self.log
    }

    /// The epoch new appends are stamped with.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Appends one entry.
    ///
    /// Fails only on an oversized payload; the in-memory log itself
    /// cannot tear.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        self.append_via(payload, |_| Ok(()))
    }

    /// Appends one entry, first offering the encoded frame bytes to
    /// `sink`. The in-memory log is extended only if the sink accepts, so
    /// a durable mirror (e.g. [`DiskJournal`]) stays in lockstep: on a
    /// sink failure — power cut mid-frame, region full — memory still
    /// matches the last durable state.
    pub fn append_via<S>(&mut self, payload: &[u8], sink: S) -> Result<(), JournalError>
    where
        S: FnOnce(&[u8]) -> Result<(), JournalError>,
    {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l as usize <= MAX_ENTRY_LEN)
            .ok_or(JournalError::PayloadTooLarge { len: payload.len() })?;
        let frame = seal_frame(self.epoch, payload, len);
        sink(&frame)?;
        self.log.extend_from_slice(&frame);
        Ok(())
    }

    /// Iterates over valid entries in order, stopping at the first torn,
    /// corrupt, or stale-epoch frame.
    pub fn replay(&self) -> Replay<'_> {
        Replay {
            log: &self.log,
            pos: 0,
            max_epoch: 0,
        }
    }

    /// Total log size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.log.len()
    }
}

/// Iterator over the valid prefix of a [`Journal`].
#[derive(Debug)]
pub struct Replay<'a> {
    log: &'a [u8],
    pos: usize,
    max_epoch: u32,
}

impl Replay<'_> {
    /// Bytes consumed by the valid frames yielded so far. A [`Journal`]
    /// holds whole frames only, so an exhausted replay has consumed all
    /// of [`Journal::len_bytes`].
    pub fn consumed_bytes(&self) -> usize {
        self.pos
    }
}

impl Iterator for Replay<'_> {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        let rest = &self.log[self.pos..];
        if rest.len() < HEADER_LEN {
            return None; // torn header
        }
        let (header, body) = rest.split_at(HEADER_LEN);
        let field = |i: usize| {
            header
                .get(i * 4..i * 4 + 4)
                .and_then(|b| b.try_into().ok())
                .map(u32::from_be_bytes)
        };
        let (len, epoch, pcrc, hcrc) = match (field(0), field(1), field(2), field(3)) {
            (Some(l), Some(e), Some(p), Some(h)) => (l, e, p, h),
            _ => return None,
        };
        // Header integrity first: a corrupted or garbage length field is
        // rejected before it is ever trusted to slice the log.
        if crc32(&header[..HCRC_COVERS]) != hcrc {
            return None;
        }
        let len = len as usize;
        if len > MAX_ENTRY_LEN || body.len() < len {
            return None; // absurd or torn
        }
        // Stale frame beyond a discarded, partially overwritten tail.
        if epoch < self.max_epoch {
            return None;
        }
        let payload = &body[..len];
        if crc32(payload) != pcrc {
            return None; // payload corruption
        }
        self.max_epoch = epoch;
        self.pos += HEADER_LEN + len;
        Some(payload.to_vec())
    }
}

/// A durable, truncatable destination for encoded journal frames, kept in
/// lockstep with an in-memory [`Journal`] via [`Journal::append_via`].
pub trait DurableLog: Send + Sync {
    /// Appends one already-encoded frame at the logical tail. Must be a
    /// single device write so a power cut tears at most this one frame.
    fn append_frame(&mut self, frame: &[u8]) -> Result<(), JournalError>;

    /// Moves the logical tail back to `tail_bytes` (never forward) and
    /// zeroes the region past it, so a torn or corrupt suffix recovery
    /// discarded can never replay. A power cut during the erase is safe:
    /// the next recovery stops at the first unzeroed torn frame, as this
    /// one did, and erases again.
    fn cut_tail(&mut self, tail_bytes: u64) -> Result<(), JournalError>;
}

/// A journal bound to a fixed region of a [`BlockDevice`].
///
/// Appends go to the device *first* (one `write_at` per frame — the
/// single power-cut boundary of a journal commit) and only then into the
/// in-memory mirror, via [`Journal::append_via`].
#[derive(Clone, Debug)]
pub struct DiskJournal<D> {
    dev: D,
    base: u64,
    cap: u64,
    tail: u64,
}

impl<D: BlockDevice> DiskJournal<D> {
    /// Validates that `[base, base + cap)` fits the device.
    fn check_region(dev: &D, base: u64, cap: u64) -> Result<(), JournalError> {
        let end = base.checked_add(cap).ok_or(BlockError::OutOfRange {
            offset: base,
            capacity: dev.capacity(),
        })?;
        if end > dev.capacity() {
            return Err(JournalError::Device(BlockError::OutOfRange {
                offset: end,
                capacity: dev.capacity(),
            }));
        }
        Ok(())
    }

    /// Creates a fresh journal over `[base, base + cap)`, zeroing the
    /// region so stale bytes on a reused medium can never replay.
    pub fn create(dev: D, base: u64, cap: u64) -> Result<Self, JournalError> {
        Self::check_region(&dev, base, cap)?;
        let zeros = vec![0u8; cap as usize];
        dev.write_at(base, &zeros)?;
        Ok(DiskJournal {
            dev,
            base,
            cap,
            tail: 0,
        })
    }

    /// Opens an existing region after a crash: scans it once for the valid
    /// frame prefix and returns the journal handle positioned at its end,
    /// and the rehydrated in-memory [`Journal`] (epoch already bumped;
    /// [`Journal::recovered_torn_tail`] says whether nonzero bytes
    /// followed the prefix — the region's unused remainder is all zeros,
    /// as `create` leaves it).
    pub fn open(dev: D, base: u64, cap: u64) -> Result<(Self, Journal), JournalError> {
        Self::check_region(&dev, base, cap)?;
        let mut buf = vec![0u8; cap as usize];
        dev.read_at(base, &mut buf)?;
        let journal = Journal::from_bytes(buf);
        let dj = DiskJournal {
            dev,
            base,
            cap,
            tail: journal.len_bytes() as u64,
        };
        Ok((dj, journal))
    }

    /// Bytes durably appended (the logical tail).
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Region capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.cap
    }
}

impl<D: BlockDevice + Send + Sync> DurableLog for DiskJournal<D> {
    fn append_frame(&mut self, frame: &[u8]) -> Result<(), JournalError> {
        let needed = frame.len() as u64;
        let remaining = self.cap - self.tail;
        if needed > remaining {
            return Err(JournalError::Full { needed, remaining });
        }
        self.dev.write_at(self.base + self.tail, frame)?;
        self.tail += needed;
        Ok(())
    }

    fn cut_tail(&mut self, tail_bytes: u64) -> Result<(), JournalError> {
        self.tail = self.tail.min(tail_bytes);
        let zeros = vec![0u8; (self.cap - self.tail) as usize];
        if !zeros.is_empty() {
            self.dev.write_at(self.base + self.tail, &zeros)?;
        }
        Ok(())
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), eight bytes a step
/// (slice-by-8) over tables computed at compile time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let byte = |v: u32, i: u32| usize::from((v >> (8 * i)) as u8);
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 1)]
            ^ t[5][byte(lo, 2)]
            ^ t[4][byte(lo, 3)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 1)]
            ^ t[1][byte(hi, 2)]
            ^ t[0][byte(hi, 3)];
    }
    for &b in words.remainder() {
        crc = t[0][byte(crc ^ u32::from(b), 0)] ^ (crc >> 8);
    }
    !crc
}

/// `CRC_TABLES[0][b]` is the CRC register after shifting the byte `b`
/// through it bit by bit; `CRC_TABLES[k][b]` is that followed by `k` zero
/// bytes, which is what lets eight input bytes be folded in at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemDisk;
    use std::sync::Arc;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn append_and_replay() {
        let mut j = Journal::new();
        for payload in [&b"a"[..], b"bb", b""] {
            j.append(payload).unwrap();
        }
        let got: Vec<_> = j.replay().collect();
        assert_eq!(got, vec![b"a".to_vec(), b"bb".to_vec(), vec![]]);
    }

    #[test]
    fn torn_tail_drops_last_entry_only() {
        let mut j = Journal::new();
        j.append(b"committed").unwrap();
        let keep = j.len_bytes();
        j.append(b"torn-entry-payload").unwrap();
        // Rip bytes off the final frame.
        let j = Journal::from_bytes(j.as_bytes()[..j.len_bytes() - 5].to_vec());
        let got: Vec<_> = j.replay().collect();
        assert_eq!(got, vec![b"committed".to_vec()]);
        // The torn frame's bytes are gone, and flagged.
        assert_eq!(j.len_bytes(), keep);
        assert!(j.recovered_torn_tail());
    }

    #[test]
    fn corrupt_payload_stops_replay() {
        let mut j = Journal::new();
        j.append(b"good").unwrap();
        j.append(b"evil").unwrap();
        let mut raw = j.as_bytes().to_vec();
        let n = raw.len();
        raw[n - 1] ^= 0xFF; // flip a bit in the second payload
        let j = Journal::from_bytes(raw);
        let got: Vec<_> = j.replay().collect();
        assert_eq!(got, vec![b"good".to_vec()]);
    }

    #[test]
    fn corrupt_header_stops_replay() {
        let mut j = Journal::new();
        j.append(b"good").unwrap();
        let mut raw = j.as_bytes().to_vec();
        raw.extend_from_slice(&u32::MAX.to_be_bytes()); // absurd length
        raw.extend_from_slice(&[0u8; 12]);
        let j = Journal::from_bytes(raw);
        assert_eq!(j.replay().count(), 1);
    }

    #[test]
    fn every_header_byte_is_protected() {
        // Flipping ANY single header byte of the second frame must stop
        // replay after the first — in particular a corrupted length field
        // is caught by the header CRC before it is trusted.
        let mut j = Journal::new();
        j.append(b"first-entry").unwrap();
        let second_at = j.len_bytes();
        j.append(b"second-entry").unwrap();
        for i in 0..HEADER_LEN {
            let mut raw = j.as_bytes().to_vec();
            raw[second_at + i] ^= 0xA5;
            let got: Vec<_> = Journal::from_bytes(raw).replay().collect();
            assert_eq!(
                got,
                vec![b"first-entry".to_vec()],
                "header byte {i} corruption must invalidate exactly the second frame"
            );
        }
    }

    #[test]
    fn overrunning_length_with_matching_payload_crc_is_rejected() {
        // Adversarial construction for the historical hazard: a frame
        // whose length overruns the log while its payload CRC "matches"
        // (here: crc of the empty suffix interpretation would previously
        // rely on the length check alone). Craft a header claiming more
        // bytes than exist, with a *correct* header CRC, and a pcrc that
        // matches the bytes that do follow.
        let mut j = Journal::new();
        j.append(b"good").unwrap();
        let mut raw = j.as_bytes().to_vec();
        let tail = b"short";
        let len = 1000u32; // overruns: only 5 payload bytes follow
        let epoch = 0u32;
        let pcrc = crc32(tail);
        let mut header = Vec::new();
        header.extend_from_slice(&len.to_be_bytes());
        header.extend_from_slice(&epoch.to_be_bytes());
        header.extend_from_slice(&pcrc.to_be_bytes());
        let hcrc = crc32(&header);
        header.extend_from_slice(&hcrc.to_be_bytes());
        raw.extend_from_slice(&header);
        raw.extend_from_slice(tail);
        let j = Journal::from_bytes(raw);
        let got: Vec<_> = j.replay().collect();
        assert_eq!(
            got,
            vec![b"good".to_vec()],
            "overrunning frame must not replay"
        );
    }

    #[test]
    fn stale_epoch_frame_stops_replay() {
        // A frame appended after recovery (epoch 1) followed by a stale
        // intact frame from before the rollback (epoch 0) — the stale
        // frame must not resurrect.
        let mut old = Journal::new();
        old.append(b"committed").unwrap();
        let keep = old.len_bytes();
        old.append(b"rolled-back").unwrap();
        let stale_frame = old.as_bytes()[keep..].to_vec();

        let mut recovered = Journal::from_bytes(old.as_bytes()[..keep].to_vec());
        assert_eq!(recovered.epoch(), 1);
        recovered.append(b"post-recovery").unwrap();

        // Simulate the disk: new log, then the stale frame still intact
        // at an aligned boundary beyond the new tail.
        let mut disk = recovered.as_bytes().to_vec();
        disk.extend_from_slice(&stale_frame);
        let j = Journal::from_bytes(disk);
        let got: Vec<_> = j.replay().collect();
        assert_eq!(
            got,
            vec![b"committed".to_vec(), b"post-recovery".to_vec()],
            "stale epoch-0 frame beyond the epoch-1 tail must stop replay"
        );
        // And the next recovery bumps past everything seen.
        assert_eq!(j.epoch(), 2);
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut j = Journal::new();
        let big = vec![0u8; MAX_ENTRY_LEN + 1];
        assert!(matches!(
            j.append(&big),
            Err(JournalError::PayloadTooLarge { .. })
        ));
        assert_eq!(j.len_bytes(), 0, "rejected append must not touch the log");
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut j = Journal::new();
        for i in 0..50u32 {
            j.append(&i.to_be_bytes()).unwrap();
        }
        let j2 = Journal::from_bytes(j.as_bytes().to_vec());
        assert_eq!(j2.replay().count(), 50);
        assert_eq!(j.len_bytes(), j2.len_bytes());
    }

    #[test]
    fn empty_journal() {
        let j = Journal::new();
        assert_eq!(j.replay().count(), 0);
        assert_eq!(j.len_bytes(), 0);
    }

    #[test]
    fn disk_journal_append_is_one_write_and_reopens() {
        let dev = Arc::new(MemDisk::unmetered(4096));
        let mut dj = DiskJournal::create(dev.clone(), 128, 1024).unwrap();
        let mut j = Journal::new();
        dev.reset_stats();
        j.append_via(b"alpha", |f| dj.append_frame(f)).unwrap();
        assert_eq!(
            dev.stats().writes,
            1,
            "a frame commit must be one device write"
        );
        j.append_via(b"beta", |f| dj.append_frame(f)).unwrap();
        assert_eq!(dj.tail(), j.len_bytes() as u64);

        let (dj2, j2) = DiskJournal::open(dev, 128, 1024).unwrap();
        assert!(!j2.recovered_torn_tail());
        assert_eq!(dj2.tail(), dj.tail());
        let got: Vec<_> = j2.replay().collect();
        assert_eq!(got, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(j2.epoch(), 1, "reopen bumps the append epoch");
    }

    #[test]
    fn disk_journal_open_reports_torn_tail() {
        let dev = Arc::new(MemDisk::unmetered(4096));
        let mut dj = DiskJournal::create(dev.clone(), 0, 512).unwrap();
        let mut j = Journal::new();
        j.append_via(b"keep", |f| dj.append_frame(f)).unwrap();
        let keep = dj.tail();
        j.append_via(b"torn", |f| dj.append_frame(f)).unwrap();
        // Tear the last frame: zero its final 3 bytes on the raw medium.
        dev.write_at(dj.tail() - 3, &[0xEE; 3]).unwrap();
        let (mut dj2, j2) = DiskJournal::open(dev.clone(), 0, 512).unwrap();
        assert!(j2.recovered_torn_tail());
        assert_eq!(dj2.tail(), keep);
        assert_eq!(j2.replay().count(), 1);
        // Erasing the tail makes the next open clean.
        dj2.cut_tail(keep).unwrap();
        let (_, j3) = DiskJournal::open(dev, 0, 512).unwrap();
        assert!(!j3.recovered_torn_tail());
        assert_eq!(j3.replay().count(), 1);
    }

    #[test]
    fn disk_journal_full_leaves_memory_in_lockstep() {
        let dev = Arc::new(MemDisk::unmetered(4096));
        let mut dj = DiskJournal::create(dev, 0, 64).unwrap();
        let mut j = Journal::new();
        j.append_via(b"fits", |f| dj.append_frame(f)).unwrap();
        let before = (j.len_bytes(), dj.tail());
        let err = j.append_via(&[0x55; 64], |f| dj.append_frame(f));
        assert!(matches!(err, Err(JournalError::Full { .. })));
        assert_eq!(
            (j.len_bytes(), dj.tail()),
            before,
            "failed append must leave memory and disk tails unchanged"
        );
    }

    #[test]
    fn disk_journal_create_wipes_stale_region() {
        let dev = Arc::new(MemDisk::unmetered(2048));
        // Plant a valid journal, then re-create over it.
        let mut dj = DiskJournal::create(dev.clone(), 0, 1024).unwrap();
        let mut j = Journal::new();
        j.append_via(b"stale", |f| dj.append_frame(f)).unwrap();
        let _fresh = DiskJournal::create(dev.clone(), 0, 1024).unwrap();
        let (_, j2) = DiskJournal::open(dev, 0, 1024).unwrap();
        assert!(!j2.recovered_torn_tail());
        assert_eq!(j2.replay().count(), 0);
    }
}
