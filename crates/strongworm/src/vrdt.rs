//! The Virtual Record Descriptor Table (VRDT).
//!
//! "The untrusted main CPU maintains (on disk) a table of VRDs indexed by
//! their corresponding serial numbers" (§4.2.1). Entries hold either the
//! VRD of an *active* record or the SCPU-signed deletion proof of an
//! *expired* one; contiguous runs of expired entries can be compacted into
//! signed deleted-window bound pairs, and everything below `SN_base` is
//! dropped entirely.
//!
//! Every mutation is exactly one journal frame ([`wormstore::Journal`]),
//! and a frame is the unit of crash atomicity: it is CRC-checked and
//! written whole, so a torn frame never replays and a host crash recovers
//! to a prefix of whole mutations. When a durable [`DurableLog`] sink is
//! attached, each frame is committed to the device *before* the in-memory
//! table mutates, so memory never runs ahead of disk.
//!
//! One rule lives in the apply step the live path and replay share: **an
//! extent leaves the table only into shredding, in the frame that removes
//! it.** An [`OP_EXPIRE`] of an active record makes each of its extents a
//! pending shred under the shredder the SCPU named; an [`OP_REPLACE`]
//! makes a pending shred of each old extent the new VRD no longer lists
//! (a relocation). So a crash leaves a record either live or deleted with
//! every extent on its way to destruction — never deleted with its
//! plaintext orphaned. Shreds persist their per-pass progress
//! ([`OP_SHRED_PASS`] / [`OP_SHRED_DONE`]) so a crash mid-shred resumes
//! at the right pass with the pass *order* preserved.
//!
//! The journal protects against *accidents*; malicious edits are caught by
//! clients verifying the SCPU signatures, not here.

use std::collections::BTreeMap;

use wormstore::{DurableLog, Journal, RecordDescriptor, Shredder};

use crate::codec;
use crate::error::WormError;
use crate::proofs::{BaseCert, DeletionProof, HeadCert, WindowProof};
use crate::sn::SerialNumber;
use crate::vrd::Vrd;
use crate::wire::WireError;

/// One VRDT row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VrdtEntry {
    /// A live record: full VRD.
    Active(Vrd),
    /// An expired record: its deletion proof `S_d(SN)`.
    Expired(DeletionProof),
}

/// Result of looking a serial number up in the table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lookup<'a> {
    /// Live record.
    Active(&'a Vrd),
    /// Expired, with its per-record deletion proof still resident.
    Expired(&'a DeletionProof),
    /// Expired and compacted into a signed deleted window.
    InWindow(&'a WindowProof),
    /// Below `SN_base`: rightfully deleted, no per-record state kept.
    BelowBase,
    /// No information (beyond the head, or a hole — the latter indicates
    /// host-side corruption and will fail client verification).
    Unknown,
}

// Journal opcodes, one frame per mutation; 7, 8 and 9 are retired and
// replay as unknown opcodes.
const OP_INSERT: u8 = 1;
/// A deletion: the encoded proof, then the shredder's two code bytes.
const OP_EXPIRE: u8 = 2;
const OP_COMPACT: u8 = 3;
const OP_HEAD: u8 = 4;
const OP_BASE: u8 = 5;
const OP_REPLACE: u8 = 6;
/// One shred pass completed: payload is `(extent offset, pass)`.
const OP_SHRED_PASS: u8 = 10;
/// Every pass applied; the extent may be reclaimed: payload is the offset.
const OP_SHRED_DONE: u8 = 11;

/// Progress of an in-flight media shred, persisted so a crash mid-shred
/// resumes at the correct pass instead of restarting (or worse, never
/// finishing). Keyed by extent *offset*, not record id — relocation
/// preserves the id, so old and new extents of the same record would
/// collide on it, while offsets are unique.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShredState {
    /// The doomed extent.
    pub rd: RecordDescriptor,
    /// Overwrite discipline from the record's attributes.
    pub shredder: Shredder,
    /// Next 0-based pass to run; `>= shredder.pass_count()` means every
    /// overwrite is on the medium and only the `SHRED_DONE` marker is
    /// outstanding.
    pub next_pass: u32,
}

/// What [`Vrdt::recover`] observed while replaying a journal. Published
/// as the `recovery.*` counters in the server's trace registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Valid journal frames replayed into the table.
    pub replayed: u64,
    /// Whether the log ended in a torn or corrupt tail that replay
    /// discarded (the expected signature of a mid-append crash).
    pub torn_tail: bool,
}

/// The host-side table of virtual record descriptors.
///
/// Invariant: `windows` holds *disjoint* intervals (an honest server only
/// compacts maximal expired runs, which cannot overlap), kept sorted —
/// under disjointness, sorted-by-`lo` and sorted-by-`hi` coincide, which
/// is what the binary search in [`Vrdt::lookup`] relies on.
#[derive(Default)]
pub struct Vrdt {
    entries: BTreeMap<SerialNumber, VrdtEntry>,
    /// Deleted windows, kept sorted by `lo` and non-overlapping.
    windows: Vec<WindowProof>,
    head: Option<HeadCert>,
    base: Option<BaseCert>,
    journal: Journal,
    /// Durable mirror of the journal; frames reach it before memory.
    sink: Option<Box<dyn DurableLog>>,
    /// In-flight shreds by extent offset.
    pending_shreds: BTreeMap<u64, ShredState>,
    recovery: RecoveryStats,
}

impl std::fmt::Debug for Vrdt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vrdt")
            .field("entries", &self.entries)
            .field("windows", &self.windows)
            .field("head", &self.head)
            .field("base", &self.base)
            .field("journal", &self.journal)
            .field("sink", &self.sink.as_ref().map(|_| "DurableLog"))
            .field("pending_shreds", &self.pending_shreds)
            .field("recovery", &self.recovery)
            .finish()
    }
}

impl Vrdt {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a table by replaying a journal (crash recovery). The
    /// journal holds whole frames only — [`Journal::from_bytes`] already
    /// cut a torn or corrupt tail off and flagged it — so every frame
    /// replays, and post-recovery appends never land behind damage.
    ///
    /// # Errors
    ///
    /// [`WireError`] if a *valid-CRC* frame contains a malformed payload
    /// or an unknown opcode (indicates a software bug or deliberate
    /// tampering rather than a crash).
    pub fn recover(journal: Journal) -> Result<Self, WireError> {
        let mut t = Vrdt::new();
        let mut replayed = 0u64;
        for frame in journal.replay() {
            let (&op, payload) = frame.split_first().ok_or(WireError {
                expected: "journal opcode",
            })?;
            t.replay_frame(op, payload)?;
            replayed += 1;
        }
        t.recovery = RecoveryStats {
            replayed,
            torn_tail: journal.recovered_torn_tail(),
        };
        t.journal = journal;
        Ok(t)
    }

    /// Decodes one journal frame and applies it through the same steps
    /// the live mutators use.
    fn replay_frame(&mut self, op: u8, payload: &[u8]) -> Result<(), WireError> {
        match op {
            OP_INSERT => {
                let vrd = codec::decode_vrd(payload)?;
                self.entries.insert(vrd.sn, VrdtEntry::Active(vrd));
            }
            OP_REPLACE => {
                self.apply_replace(codec::decode_vrd(payload)?);
            }
            OP_EXPIRE => {
                let (proof, &[kind, arg]) = payload.split_last_chunk().ok_or(WireError {
                    expected: "expiry shredder code",
                })?;
                let shredder = Shredder::from_code(kind, arg).ok_or(WireError {
                    expected: "shredder code",
                })?;
                self.apply_expire(codec::decode_deletion_proof(proof)?, shredder);
            }
            OP_COMPACT => {
                let w = codec::decode_window_proof(payload)?;
                self.apply_compact(&w);
            }
            OP_HEAD => {
                self.head = Some(codec::decode_head_cert(payload)?);
            }
            OP_BASE => {
                let b = codec::decode_base_cert(payload)?;
                self.apply_base(&b);
            }
            OP_SHRED_PASS => {
                let (offset, pass) = codec::decode_shred_pass(payload)?;
                self.apply_shred_pass(offset, pass);
            }
            OP_SHRED_DONE => {
                let offset = codec::decode_shred_done(payload)?;
                self.pending_shreds.remove(&offset);
            }
            _ => {
                return Err(WireError {
                    expected: "known journal opcode",
                })
            }
        }
        Ok(())
    }

    /// The underlying journal bytes: every frame this table has written
    /// or replayed, kept in host memory. The benchmark harness reads its
    /// length, so it stays until the harness stops reading it.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Attaches a durable sink: every subsequent frame is committed to it
    /// *before* the in-memory journal and table mutate. The sink holds
    /// this journal's frames and zeros past them — a fresh region is
    /// zeroed when it is created, and a clean stop leaves nothing past its
    /// tail — except after a recovery that cut a torn tail off
    /// ([`Journal::recovered_torn_tail`]): then the sink's tail is cut
    /// back to the journal's end and everything past it erased, so the
    /// torn suffix can never replay.
    ///
    /// # Errors
    ///
    /// [`WormError::Journal`] if the tail erase fails.
    pub fn attach_sink(&mut self, mut sink: Box<dyn DurableLog>) -> Result<(), WormError> {
        if self.journal.recovered_torn_tail() {
            sink.cut_tail(self.journal.len_bytes() as u64)?;
        }
        self.sink = Some(sink);
        Ok(())
    }

    /// What the most recent [`Vrdt::recover`] observed (all-zero for a
    /// table that was never recovered).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// In-flight shreds (begun, not yet `SHRED_DONE`) by extent offset.
    /// After recovery these extents must stay reserved in the store until
    /// their remaining passes run.
    pub fn pending_shreds(&self) -> &BTreeMap<u64, ShredState> {
        &self.pending_shreds
    }

    /// Journals one frame, durably first when a sink is attached. The
    /// in-memory journal extends only if the sink accepted, so memory
    /// never runs ahead of disk.
    fn log(&mut self, op: u8, payload: &[u8]) -> Result<(), WormError> {
        let mut frame = Vec::with_capacity(payload.len() + 1);
        frame.push(op);
        frame.extend_from_slice(payload);
        let res = match self.sink.as_mut() {
            Some(sink) => self.journal.append_via(&frame, |f| sink.append_frame(f)),
            None => self.journal.append(&frame),
        };
        res.map_err(WormError::from)
    }

    /// Inserts a freshly written VRD.
    ///
    /// # Errors
    ///
    /// [`WormError::Journal`] if the durable append fails (the table is
    /// left unchanged).
    pub fn insert(&mut self, vrd: Vrd) -> Result<(), WormError> {
        self.log(OP_INSERT, &codec::encode_vrd(&vrd))?;
        self.entries.insert(vrd.sn, VrdtEntry::Active(vrd));
        Ok(())
    }

    /// Replaces an active VRD (litigation-hold updates, strengthened
    /// witnesses, relocated extents). Each extent of the old VRD that the
    /// new one no longer lists becomes a pending shred under the record's
    /// shredder, in the same frame; those shreds are returned for the
    /// caller to run. Holds and strengthening keep the extents and doom
    /// nothing.
    ///
    /// # Errors
    ///
    /// As [`Vrdt::insert`].
    pub fn replace(&mut self, vrd: Vrd) -> Result<Vec<ShredState>, WormError> {
        self.log(OP_REPLACE, &codec::encode_vrd(&vrd))?;
        Ok(self.apply_replace(vrd))
    }

    fn apply_replace(&mut self, vrd: Vrd) -> Vec<ShredState> {
        let vacated: Vec<RecordDescriptor> = match self.entries.get(&vrd.sn) {
            Some(VrdtEntry::Active(old)) => old
                .rdl
                .iter()
                .filter(|rd| !vrd.rdl.contains(rd))
                .copied()
                .collect(),
            _ => Vec::new(),
        };
        let shredder = vrd.attr.shredder;
        self.entries.insert(vrd.sn, VrdtEntry::Active(vrd));
        self.doom(vacated, shredder)
    }

    /// Replaces an entry with its deletion proof (record expired). If the
    /// record was active, each of its extents becomes a pending shred
    /// under `shredder` (the one the SCPU's deletion order names), in the
    /// same frame; those shreds are returned for the caller to run.
    ///
    /// # Errors
    ///
    /// As [`Vrdt::insert`].
    pub fn expire(
        &mut self,
        proof: DeletionProof,
        shredder: Shredder,
    ) -> Result<Vec<ShredState>, WormError> {
        let mut payload = codec::encode_deletion_proof(&proof);
        let (kind, arg) = shredder.code();
        payload.extend_from_slice(&[kind, arg]);
        self.log(OP_EXPIRE, &payload)?;
        Ok(self.apply_expire(proof, shredder))
    }

    fn apply_expire(&mut self, proof: DeletionProof, shredder: Shredder) -> Vec<ShredState> {
        match self.entries.insert(proof.sn, VrdtEntry::Expired(proof)) {
            Some(VrdtEntry::Active(vrd)) => self.doom(vrd.rdl, shredder),
            _ => Vec::new(),
        }
    }

    /// Makes each extent a pending shred, from its first pass.
    fn doom(&mut self, extents: Vec<RecordDescriptor>, shredder: Shredder) -> Vec<ShredState> {
        extents
            .into_iter()
            .map(|rd| {
                let state = ShredState {
                    rd,
                    shredder,
                    next_pass: 0,
                };
                self.pending_shreds.insert(rd.offset, state);
                state
            })
            .collect()
    }

    /// Installs a deleted-window proof, expelling the per-record deletion
    /// proofs it subsumes (§4.2.1 storage reduction).
    ///
    /// # Errors
    ///
    /// As [`Vrdt::insert`].
    pub fn compact(&mut self, window: WindowProof) -> Result<(), WormError> {
        self.log(OP_COMPACT, &codec::encode_window_proof(&window))?;
        self.apply_compact(&window);
        Ok(())
    }

    fn apply_compact(&mut self, window: &WindowProof) {
        let range: Vec<SerialNumber> = self
            .entries
            .range(window.lo..=window.hi)
            .map(|(&sn, _)| sn)
            .collect();
        for sn in range {
            if matches!(self.entries.get(&sn), Some(VrdtEntry::Expired(_))) {
                self.entries.remove(&sn);
            }
        }
        let pos = self.windows.partition_point(|w| w.lo < window.lo);
        self.windows.insert(pos, window.clone());
    }

    /// Installs the freshest head certificate.
    ///
    /// # Errors
    ///
    /// As [`Vrdt::insert`].
    pub fn set_head(&mut self, head: HeadCert) -> Result<(), WormError> {
        self.log(OP_HEAD, &codec::encode_head_cert(&head))?;
        self.head = Some(head);
        Ok(())
    }

    /// Installs a base certificate and expels all per-record state below
    /// the base (§4.2.1: proofs outside the active window "can be securely
    /// discarded").
    ///
    /// # Errors
    ///
    /// As [`Vrdt::insert`].
    pub fn set_base(&mut self, base: BaseCert) -> Result<(), WormError> {
        self.log(OP_BASE, &codec::encode_base_cert(&base))?;
        self.apply_base(&base);
        Ok(())
    }

    fn apply_base(&mut self, base: &BaseCert) {
        let below: Vec<SerialNumber> = self
            .entries
            .range(..base.sn_base)
            .filter(|(_, e)| matches!(e, VrdtEntry::Expired(_)))
            .map(|(&sn, _)| sn)
            .collect();
        for sn in below {
            self.entries.remove(&sn);
        }
        self.windows.retain(|w| w.hi >= base.sn_base);
        self.base = Some(base.clone());
    }

    /// Journals completion of shred pass `pass` (0-based) for the pending
    /// extent at `offset`, advancing its resume point. The marker goes to
    /// the journal *after* the pass bytes hit the medium: a crash between
    /// the two re-runs the pass, which is idempotent.
    ///
    /// # Errors
    ///
    /// As [`Vrdt::insert`].
    pub fn note_shred_pass(&mut self, offset: u64, pass: u32) -> Result<(), WormError> {
        self.log(OP_SHRED_PASS, &codec::encode_shred_pass(offset, pass))?;
        self.apply_shred_pass(offset, pass);
        Ok(())
    }

    fn apply_shred_pass(&mut self, offset: u64, pass: u32) {
        if let Some(s) = self.pending_shreds.get_mut(&offset) {
            s.next_pass = pass.saturating_add(1);
        }
    }

    /// Journals completion of the whole shred at `offset`; the extent may
    /// now be reclaimed by the store.
    ///
    /// # Errors
    ///
    /// As [`Vrdt::insert`].
    pub fn note_shred_done(&mut self, offset: u64) -> Result<(), WormError> {
        self.log(OP_SHRED_DONE, &codec::encode_shred_done(offset))?;
        self.pending_shreds.remove(&offset);
        Ok(())
    }

    /// The latest head certificate.
    pub fn head(&self) -> Option<&HeadCert> {
        self.head.as_ref()
    }

    /// The latest base certificate.
    pub fn base(&self) -> Option<&BaseCert> {
        self.base.as_ref()
    }

    /// Looks up a serial number.
    pub fn lookup(&self, sn: SerialNumber) -> Lookup<'_> {
        if let Some(entry) = self.entries.get(&sn) {
            return match entry {
                VrdtEntry::Active(v) => Lookup::Active(v),
                VrdtEntry::Expired(p) => Lookup::Expired(p),
            };
        }
        // Binary search over the sorted, non-overlapping windows.
        let idx = self.windows.partition_point(|w| w.hi < sn);
        if let Some(w) = self.windows.get(idx) {
            if w.contains(sn) {
                return Lookup::InWindow(w);
            }
        }
        if let Some(base) = &self.base {
            if sn < base.sn_base {
                return Lookup::BelowBase;
            }
        }
        if let Some(head) = &self.head {
            if sn > head.sn_current {
                return Lookup::Unknown;
            }
        }
        Lookup::Unknown
    }

    /// Iterates over active VRDs in SN order.
    pub fn iter_active(&self) -> impl Iterator<Item = &Vrd> {
        self.entries.values().filter_map(|e| match e {
            VrdtEntry::Active(v) => Some(v),
            VrdtEntry::Expired(_) => None,
        })
    }

    /// Iterates over resident expired entries in SN order.
    pub fn iter_expired(&self) -> impl Iterator<Item = &DeletionProof> {
        self.entries.values().filter_map(|e| match e {
            VrdtEntry::Active(_) => None,
            VrdtEntry::Expired(p) => Some(p),
        })
    }

    /// Finds maximal contiguous runs of ≥ `min_len` resident expired
    /// entries — compaction candidates per §4.2.1 ("3 or more expired
    /// VRs").
    pub fn expired_runs(&self, min_len: usize) -> Vec<(SerialNumber, SerialNumber)> {
        let mut runs = Vec::new();
        let mut cur: Option<(SerialNumber, SerialNumber)> = None;
        for p in self.iter_expired() {
            match cur {
                Some((lo, hi)) if p.sn == hi.next() => cur = Some((lo, p.sn)),
                Some((lo, hi)) => {
                    if (hi.get() - lo.get() + 1) as usize >= min_len {
                        runs.push((lo, hi));
                    }
                    cur = Some((p.sn, p.sn));
                }
                None => cur = Some((p.sn, p.sn)),
            }
        }
        if let Some((lo, hi)) = cur {
            if (hi.get() - lo.get() + 1) as usize >= min_len {
                runs.push((lo, hi));
            }
        }
        runs
    }

    /// Number of resident entries (active + expired).
    pub fn resident_entries(&self) -> usize {
        self.entries.len()
    }

    /// Number of resident deleted-window proofs.
    pub fn resident_windows(&self) -> usize {
        self.windows.len()
    }

    /// Checks the completeness invariant: every SN from 1 to the head is
    /// active, expired-with-proof, inside a window, or below the base.
    ///
    /// # Errors
    ///
    /// Returns the first unaccounted serial number.
    pub fn check_complete(&self) -> Result<(), SerialNumber> {
        let head = match &self.head {
            Some(h) => h.sn_current,
            None => return Ok(()),
        };
        // Everything below the base is accounted for by definition
        // (Lookup::Deleted via the base certificate), so start the walk
        // there. With no base yet, start at the head's lane origin —
        // walking up from SN 1 would take ~2^56 steps on a non-zero lane.
        let mut sn = match &self.base {
            Some(b) => b.sn_base,
            None => SerialNumber(SerialNumber::lane_origin(head.lane()) + 1),
        };
        while sn <= head {
            if matches!(self.lookup(sn), Lookup::Unknown) {
                return Err(sn);
            }
            sn = sn.next();
        }
        Ok(())
    }

    /// Direct mutable access to entries — **adversarial test hook**
    /// modelling Mallory's superuser edit of on-disk structures.
    #[doc(hidden)]
    pub fn entries_mut_for_attack(&mut self) -> &mut BTreeMap<SerialNumber, VrdtEntry> {
        &mut self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::RecordAttributes;
    use crate::policy::Regulation;
    use crate::witness::{Signature, Witness};
    use scpu::Timestamp;
    use std::sync::Arc;
    use wormstore::{DiskJournal, MemDisk, RecordId, Shredder};

    fn sig(b: u8) -> Signature {
        Signature {
            key_id: [b; 8],
            bytes: vec![b; 8],
        }
    }

    fn vrd(sn: u64) -> Vrd {
        Vrd {
            sn: SerialNumber(sn),
            attr: RecordAttributes {
                created_at: Timestamp::from_millis(0),
                retention_until: Timestamp::from_millis(1000),
                regulation: Regulation::Custom,
                shredder: Shredder::ZeroFill,
                litigation_hold: None,
                flags: 0,
            },
            rdl: vec![],
            metasig: Witness::Strong(sig(1)),
            datasig: Witness::Strong(sig(2)),
        }
    }

    fn del(sn: u64) -> DeletionProof {
        DeletionProof {
            sn: SerialNumber(sn),
            deleted_at: Timestamp::from_millis(50),
            sig: sig(3),
        }
    }

    fn head(sn: u64) -> HeadCert {
        HeadCert {
            sn_current: SerialNumber(sn),
            issued_at: Timestamp::from_millis(1),
            sig: sig(4),
        }
    }

    fn window(id: u64, lo: u64, hi: u64) -> WindowProof {
        WindowProof {
            window_id: id,
            lo: SerialNumber(lo),
            hi: SerialNumber(hi),
            lo_sig: sig(5),
            hi_sig: sig(6),
        }
    }

    fn extent(offset: u64) -> RecordDescriptor {
        RecordDescriptor {
            id: RecordId(7),
            offset,
            len: 64,
        }
    }

    /// An active VRD whose records sit at `offsets`.
    fn vrd_at(sn: u64, offsets: &[u64]) -> Vrd {
        Vrd {
            rdl: offsets.iter().map(|&o| extent(o)).collect(),
            ..vrd(sn)
        }
    }

    const TWO_PASS: Shredder = Shredder::MultiPass { passes: 2 };

    #[test]
    fn insert_and_lookup() {
        let mut t = Vrdt::new();
        t.insert(vrd(1)).unwrap();
        t.insert(vrd(2)).unwrap();
        assert!(matches!(t.lookup(SerialNumber(1)), Lookup::Active(_)));
        assert!(matches!(t.lookup(SerialNumber(3)), Lookup::Unknown));
        assert_eq!(t.resident_entries(), 2);
        assert_eq!(t.iter_active().count(), 2);
    }

    #[test]
    fn expire_replaces_entry() {
        let mut t = Vrdt::new();
        t.insert(vrd(1)).unwrap();
        t.expire(del(1), Shredder::ZeroFill).unwrap();
        assert!(matches!(t.lookup(SerialNumber(1)), Lookup::Expired(_)));
        assert_eq!(t.iter_active().count(), 0);
        assert_eq!(t.iter_expired().count(), 1);
    }

    #[test]
    fn compaction_expels_expired_entries() {
        let mut t = Vrdt::new();
        for i in 1..=6 {
            t.insert(vrd(i)).unwrap();
        }
        for i in 2..=4 {
            t.expire(del(i), Shredder::ZeroFill).unwrap();
        }
        assert_eq!(t.resident_entries(), 6);
        t.compact(window(99, 2, 4)).unwrap();
        assert_eq!(t.resident_entries(), 3);
        assert_eq!(t.resident_windows(), 1);
        for i in 2..=4 {
            match t.lookup(SerialNumber(i)) {
                Lookup::InWindow(w) => assert_eq!(w.window_id, 99),
                other => panic!("sn {i}: {other:?}"),
            }
        }
        assert!(matches!(t.lookup(SerialNumber(1)), Lookup::Active(_)));
        assert!(matches!(t.lookup(SerialNumber(5)), Lookup::Active(_)));
    }

    #[test]
    fn compaction_never_expels_active_entries() {
        let mut t = Vrdt::new();
        for i in 1..=5 {
            t.insert(vrd(i)).unwrap();
        }
        t.expire(del(2), Shredder::ZeroFill).unwrap();
        t.expire(del(4), Shredder::ZeroFill).unwrap();
        // Window covering 2..=4 where 3 is still active: 3 survives.
        t.compact(window(7, 2, 4)).unwrap();
        assert!(matches!(t.lookup(SerialNumber(3)), Lookup::Active(_)));
    }

    #[test]
    fn base_expels_below() {
        let mut t = Vrdt::new();
        for i in 1..=5 {
            t.insert(vrd(i)).unwrap();
        }
        for i in 1..=3 {
            t.expire(del(i), Shredder::ZeroFill).unwrap();
        }
        t.set_base(BaseCert {
            sn_base: SerialNumber(4),
            expires_at: Timestamp::from_millis(10_000),
            sig: sig(7),
        })
        .unwrap();
        assert_eq!(t.resident_entries(), 2);
        assert!(matches!(t.lookup(SerialNumber(2)), Lookup::BelowBase));
        assert!(matches!(t.lookup(SerialNumber(4)), Lookup::Active(_)));
    }

    #[test]
    fn multiple_windows_binary_search() {
        let mut t = Vrdt::new();
        for i in 1..=30 {
            t.insert(vrd(i)).unwrap();
        }
        for i in (5..=10).chain(15..=20) {
            t.expire(del(i), Shredder::ZeroFill).unwrap();
        }
        t.compact(window(1, 5, 10)).unwrap();
        t.compact(window(2, 15, 20)).unwrap();
        assert!(matches!(t.lookup(SerialNumber(7)), Lookup::InWindow(w) if w.window_id == 1));
        assert!(matches!(t.lookup(SerialNumber(20)), Lookup::InWindow(w) if w.window_id == 2));
        assert!(matches!(t.lookup(SerialNumber(12)), Lookup::Active(_)));
    }

    #[test]
    fn expired_runs_detection() {
        let mut t = Vrdt::new();
        for i in 1..=12 {
            t.insert(vrd(i)).unwrap();
        }
        for i in [2u64, 3, 4, 6, 8, 9, 10, 11] {
            t.expire(del(i), Shredder::ZeroFill).unwrap();
        }
        let runs = t.expired_runs(3);
        assert_eq!(
            runs,
            vec![
                (SerialNumber(2), SerialNumber(4)),
                (SerialNumber(8), SerialNumber(11))
            ]
        );
        // Higher threshold drops the short run.
        assert_eq!(t.expired_runs(4), vec![(SerialNumber(8), SerialNumber(11))]);
    }

    #[test]
    fn completeness_invariant() {
        let mut t = Vrdt::new();
        for i in 1..=4 {
            t.insert(vrd(i)).unwrap();
        }
        t.set_head(head(4)).unwrap();
        assert!(t.check_complete().is_ok());
        // Remove an entry behind the table's back: invariant broken.
        t.entries_mut_for_attack().remove(&SerialNumber(3));
        assert_eq!(t.check_complete(), Err(SerialNumber(3)));
    }

    #[test]
    fn journal_recovery_roundtrip() {
        let mut t = Vrdt::new();
        for i in 1..=8 {
            t.insert(vrd(i)).unwrap();
        }
        for i in 2..=5 {
            t.expire(del(i), Shredder::ZeroFill).unwrap();
        }
        t.compact(window(3, 2, 5)).unwrap();
        t.set_head(head(8)).unwrap();
        t.set_base(BaseCert {
            sn_base: SerialNumber(1),
            expires_at: Timestamp::from_millis(500),
            sig: sig(8),
        })
        .unwrap();

        let recovered =
            Vrdt::recover(Journal::from_bytes(t.journal().as_bytes().to_vec())).unwrap();
        assert_eq!(recovered.resident_entries(), t.resident_entries());
        assert_eq!(recovered.resident_windows(), 1);
        assert_eq!(recovered.head().unwrap().sn_current, SerialNumber(8));
        for i in 1..=8 {
            let a = format!("{:?}", t.lookup(SerialNumber(i)));
            let b = format!("{:?}", recovered.lookup(SerialNumber(i)));
            assert_eq!(a, b, "sn {i}");
        }
        assert_eq!(recovered.recovery_stats().replayed, 15);
    }

    #[test]
    fn torn_journal_recovers_prefix() {
        let mut t = Vrdt::new();
        t.insert(vrd(1)).unwrap();
        t.insert(vrd(2)).unwrap();
        let bytes = t.journal().as_bytes();
        // Tear the second frame.
        let j = Journal::from_bytes(bytes[..bytes.len() - 7].to_vec());
        let recovered = Vrdt::recover(j).unwrap();
        assert_eq!(recovered.resident_entries(), 1);
        assert!(recovered.recovery_stats().torn_tail);
        assert!(matches!(
            recovered.lookup(SerialNumber(1)),
            Lookup::Active(_)
        ));
    }

    #[test]
    fn recovery_rejects_garbage_opcode() {
        // An unknown opcode, and expiry frames too short for a shredder.
        for frame in [&[200, 1, 2, 3][..], &[OP_EXPIRE], &[OP_EXPIRE, 0]] {
            let mut j = Journal::new();
            j.append(frame).unwrap();
            assert!(Vrdt::recover(j).is_err(), "{frame:?}");
        }
    }

    #[test]
    fn recovery_rejects_the_retired_transaction_opcodes() {
        // 7, 8 and 9 framed a staged transaction (stage, commit, shred
        // begin); a one-frame journal never writes them.
        for op in [7u8, 8, 9] {
            let mut frame = vec![op];
            frame.extend_from_slice(&codec::encode_vrd(&vrd(1)));
            let mut j = Journal::new();
            j.append(&frame).unwrap();
            assert!(Vrdt::recover(j).is_err(), "opcode {op}");
        }
    }

    #[test]
    fn an_expiry_dooms_every_extent_in_its_one_frame() {
        let mut t = Vrdt::new();
        t.insert(vrd_at(1, &[128, 192])).unwrap();
        let before = t.journal().len_bytes();
        let doomed = t.expire(del(1), TWO_PASS).unwrap();
        assert_eq!(
            doomed.iter().map(|s| s.rd.offset).collect::<Vec<_>>(),
            [128, 192]
        );
        assert!(doomed
            .iter()
            .all(|s| s.shredder == TWO_PASS && s.next_pass == 0));
        assert_eq!(t.pending_shreds().len(), 2);
        // One frame, no larger than the record's INSERT, and replay
        // rebuilds the same pending set from it.
        let j = Journal::from_bytes(t.journal().as_bytes()[before..].to_vec());
        assert_eq!(j.replay().count(), 1);
        assert!(j.len_bytes() <= before);
        let r = Vrdt::recover(Journal::from_bytes(t.journal().as_bytes().to_vec())).unwrap();
        assert!(matches!(r.lookup(SerialNumber(1)), Lookup::Expired(_)));
        assert_eq!(r.pending_shreds(), t.pending_shreds());
        // Expiring a record that is not active dooms nothing.
        assert!(t.expire(del(1), TWO_PASS).unwrap().is_empty());
        assert!(t.expire(del(9), TWO_PASS).unwrap().is_empty());
    }

    #[test]
    fn a_torn_expiry_leaves_the_record_active_with_no_pending_shred() {
        let mut t = Vrdt::new();
        t.insert(vrd_at(1, &[128])).unwrap();
        let before = t.journal().len_bytes();
        t.expire(del(1), TWO_PASS).unwrap();
        let whole = t.journal().len_bytes();
        // Every cut inside the expiry frame recovers the pre-expiry table.
        for keep in before..whole {
            let j = Journal::from_bytes(t.journal().as_bytes()[..keep].to_vec());
            let r = Vrdt::recover(j).unwrap();
            assert!(
                matches!(r.lookup(SerialNumber(1)), Lookup::Active(_)),
                "cut at {keep}"
            );
            assert!(r.pending_shreds().is_empty(), "cut at {keep}");
            assert_eq!(r.recovery_stats().replayed, 1, "cut at {keep}");
            assert_eq!(r.journal().len_bytes(), before, "cut at {keep}");
        }
    }

    #[test]
    fn a_replayed_relocation_dooms_exactly_the_vacated_extent() {
        let mut t = Vrdt::new();
        t.insert(vrd_at(1, &[128, 192])).unwrap();
        // A litigation hold or a strengthened witness keeps the extents.
        assert!(t.replace(vrd_at(1, &[128, 192])).unwrap().is_empty());
        // A relocation moves the extent at 192 down to 64.
        let doomed = t.replace(vrd_at(1, &[128, 64])).unwrap();
        assert_eq!(doomed.len(), 1);
        let r = Vrdt::recover(Journal::from_bytes(t.journal().as_bytes().to_vec())).unwrap();
        assert_eq!(r.pending_shreds().len(), 1);
        let s = r.pending_shreds()[&192];
        assert_eq!(
            (s.rd, s.shredder, s.next_pass),
            (extent(192), Shredder::ZeroFill, 0)
        );
        assert_eq!(doomed[0], s);
        match r.lookup(SerialNumber(1)) {
            Lookup::Active(v) => assert_eq!(v.rdl, [extent(128), extent(64)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shred_markers_recover_resume_state() {
        let mut t = Vrdt::new();
        t.insert(vrd_at(1, &[256])).unwrap();
        t.expire(del(1), TWO_PASS).unwrap();
        t.note_shred_pass(256, 0).unwrap();
        t.note_shred_pass(256, 1).unwrap();
        let r = Vrdt::recover(Journal::from_bytes(t.journal().as_bytes().to_vec())).unwrap();
        assert_eq!(r.pending_shreds()[&256].next_pass, 2);
        // Finish it: done marker clears the pending entry on replay too.
        t.note_shred_done(256).unwrap();
        assert!(t.pending_shreds().is_empty());
        let r = Vrdt::recover(Journal::from_bytes(t.journal().as_bytes().to_vec())).unwrap();
        assert!(r.pending_shreds().is_empty());
    }

    #[test]
    fn sink_mirrors_appends_durably() {
        let dev = Arc::new(MemDisk::unmetered(16 * 1024));
        let dj = DiskJournal::create(dev.clone(), 0, 8 * 1024).unwrap();
        let mut t = Vrdt::new();
        t.attach_sink(Box::new(dj)).unwrap();
        t.insert(vrd_at(1, &[512])).unwrap();
        t.expire(del(1), TWO_PASS).unwrap();
        // Reopen from the device alone.
        let (_, j) = DiskJournal::open(dev, 0, 8 * 1024).unwrap();
        assert!(!j.recovered_torn_tail());
        let r = Vrdt::recover(j).unwrap();
        assert!(matches!(r.lookup(SerialNumber(1)), Lookup::Expired(_)));
        assert_eq!(r.pending_shreds().len(), 1);
    }
}
