//! The Virtual Record Descriptor Table (VRDT).
//!
//! "The untrusted main CPU maintains (on disk) a table of VRDs indexed by
//! their corresponding serial numbers" (§4.2.1). Entries hold either the
//! VRD of an *active* record or the SCPU-signed deletion proof of an
//! *expired* one; contiguous runs of expired entries can be compacted into
//! signed deleted-window bound pairs, and everything below `SN_base` is
//! dropped entirely.
//!
//! Every mutation is journaled ([`wormstore::Journal`]) so a host crash
//! between the data write and the table update recovers to a consistent
//! prefix. When a durable [`DurableLog`] sink is attached, each frame is
//! committed to the device *before* the in-memory table mutates, so memory
//! never runs ahead of disk.
//!
//! Multi-frame units (a deletion's expire + shred-begin, a compaction's
//! relocations) are journaled as *staged* frames ([`OP_STAGE`]) followed
//! by a single commit marker ([`OP_COMMIT`]): the whole unit applies
//! atomically at the marker, and recovery rolls an uncommitted staged
//! suffix back by truncating it — crash-atomicity for transactions that
//! span several journal appends. In-flight media shreds persist their
//! per-pass progress ([`OP_SHRED_BEGIN`] / [`OP_SHRED_PASS`] /
//! [`OP_SHRED_DONE`]) so a crash mid-shred resumes at the right pass with
//! the pass *order* preserved.
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

/// Journal opcodes.
const OP_INSERT: u8 = 1;
const OP_EXPIRE: u8 = 2;
const OP_COMPACT: u8 = 3;
const OP_HEAD: u8 = 4;
const OP_BASE: u8 = 5;
const OP_REPLACE: u8 = 6;
/// A staged frame: `[inner opcode][inner payload]`, accumulated but not
/// applied until the transaction's commit marker.
const OP_STAGE: u8 = 7;
/// Commit marker: payload is the staged-frame count (`u32`, big-endian);
/// applies every staged frame atomically.
const OP_COMMIT: u8 = 8;
/// An extent entered shredding: payload is an encoded [`ShredState`].
const OP_SHRED_BEGIN: u8 = 9;
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
    /// Valid journal frames whose effect survived into the table
    /// (staged frames count once committed, plus their commit marker).
    pub replayed: u64,
    /// Whether the log ended in a torn or corrupt tail that replay
    /// discarded (the expected signature of a mid-append crash).
    pub torn_tail: bool,
    /// Staged frames of an uncommitted transaction that recovery rolled
    /// back (truncated off the journal).
    pub rolled_back: u64,
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
    /// Frames of the open transaction: `(inner opcode, inner payload)`.
    staged: Vec<(u8, Vec<u8>)>,
    /// Journal byte offset of the open transaction's first staged frame
    /// (rollback truncation point).
    txn_start: Option<usize>,
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
            .field("staged", &self.staged.len())
            .field("txn_start", &self.txn_start)
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

    /// Rebuilds a table by replaying a journal (crash recovery). Torn or
    /// corrupt tail entries are ignored, and an *uncommitted staged
    /// suffix* — a transaction that crashed before its commit marker — is
    /// rolled back by truncating it off the journal, yielding the last
    /// transactionally consistent state.
    ///
    /// # Errors
    ///
    /// [`WireError`] if a *valid-CRC* frame contains a malformed payload
    /// (indicates a software bug or deliberate tampering rather than a
    /// crash).
    pub fn recover(journal: Journal) -> Result<Self, WireError> {
        let mut t = Vrdt::new();
        let mut replay = journal.replay();
        let mut frames: Vec<(usize, Vec<u8>)> = Vec::new();
        loop {
            let at = replay.consumed_bytes();
            match replay.next() {
                Some(frame) => frames.push((at, frame)),
                None => break,
            }
        }
        let consumed = replay.consumed_bytes();
        let torn_tail = journal.recovered_torn_tail() || consumed < journal.len_bytes();
        let mut staged: Vec<(u8, Vec<u8>)> = Vec::new();
        let mut txn_start: Option<usize> = None;
        let mut applied = 0u64;
        for (at, frame) in frames {
            let (&op, payload) = frame.split_first().ok_or(WireError {
                expected: "journal opcode",
            })?;
            match op {
                OP_STAGE => {
                    let (&inner, inner_payload) = payload.split_first().ok_or(WireError {
                        expected: "staged opcode",
                    })?;
                    txn_start.get_or_insert(at);
                    staged.push((inner, inner_payload.to_vec()));
                }
                OP_COMMIT => {
                    let count: [u8; 4] = payload.try_into().map_err(|_| WireError {
                        expected: "commit count",
                    })?;
                    let n = u32::from_be_bytes(count);
                    if n as usize != staged.len() {
                        return Err(WireError {
                            expected: "commit count matching staged frames",
                        });
                    }
                    for (iop, ipay) in std::mem::take(&mut staged) {
                        t.apply_op(iop, &ipay)?;
                    }
                    txn_start = None;
                    applied += 1 + n as u64;
                }
                // The runtime refuses plain ops while a transaction is
                // open (so rollback is a pure suffix truncation); a plain
                // frame between stage and commit is tampering.
                _ if txn_start.is_some() => {
                    return Err(WireError {
                        expected: "staged frame or commit marker",
                    });
                }
                OP_SHRED_PASS => {
                    let (offset, pass) = codec::decode_shred_pass(payload)?;
                    if let Some(s) = t.pending_shreds.get_mut(&offset) {
                        s.next_pass = pass + 1;
                    }
                    applied += 1;
                }
                OP_SHRED_DONE => {
                    let offset = codec::decode_shred_done(payload)?;
                    t.pending_shreds.remove(&offset);
                    applied += 1;
                }
                _ => {
                    t.apply_op(op, payload)?;
                    applied += 1;
                }
            }
        }
        let mut journal = journal;
        let rolled_back = staged.len() as u64;
        // Keep only replayable state: an uncommitted staged suffix rolls
        // back, and a torn tail (however the journal was handed over) is
        // discarded so post-recovery appends never land behind damage.
        let keep = txn_start.unwrap_or(consumed).min(consumed);
        journal.truncate_tail(journal.len_bytes() - keep);
        t.recovery = RecoveryStats {
            replayed: applied,
            torn_tail,
            rolled_back,
        };
        t.journal = journal;
        Ok(t)
    }

    /// Applies one (already committed) journal operation to the table.
    fn apply_op(&mut self, op: u8, payload: &[u8]) -> Result<(), WireError> {
        match op {
            OP_INSERT | OP_REPLACE => {
                let vrd = codec::decode_vrd(payload)?;
                self.entries.insert(vrd.sn, VrdtEntry::Active(vrd));
            }
            OP_EXPIRE => {
                let p = codec::decode_deletion_proof(payload)?;
                self.entries.insert(p.sn, VrdtEntry::Expired(p));
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
            OP_SHRED_BEGIN => {
                let s = codec::decode_shred_state(payload)?;
                self.pending_shreds.insert(s.rd.offset, s);
            }
            _ => {
                return Err(WireError {
                    expected: "known journal opcode",
                })
            }
        }
        Ok(())
    }

    /// The underlying journal bytes (what a real host would persist).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Attaches a durable sink: every subsequent frame is committed to it
    /// *before* the in-memory journal and table mutate. The sink's logical
    /// tail is first aligned to the in-memory journal and everything past
    /// it erased, so a rolled-back on-disk suffix can never replay.
    ///
    /// # Errors
    ///
    /// [`WormError::Journal`] if the tail erase fails.
    pub fn attach_sink(&mut self, mut sink: Box<dyn DurableLog>) -> Result<(), WormError> {
        sink.truncate_to(self.journal.len_bytes() as u64);
        sink.erase_tail()?;
        self.sink = Some(sink);
        Ok(())
    }

    /// Records that the durable region scan discarded a torn tail (set by
    /// the server when [`wormstore::DiskJournal::open`] reports one; the
    /// in-memory replay in [`Vrdt::recover`] only ever sees the already
    /// cleaned prefix).
    pub fn mark_torn_tail(&mut self) {
        self.recovery.torn_tail = true;
    }

    /// What the most recent [`Vrdt::recover`] observed (all-zero for a
    /// table that was never recovered).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Whether a staged transaction is open (frames staged, no commit
    /// marker yet).
    pub fn has_open_txn(&self) -> bool {
        self.txn_start.is_some()
    }

    /// In-flight shreds (begun, not yet `SHRED_DONE`) by extent offset.
    /// After recovery these extents must stay reserved in the store until
    /// their remaining passes run.
    pub fn pending_shreds(&self) -> &BTreeMap<u64, ShredState> {
        &self.pending_shreds
    }

    fn ensure_no_txn(&self) -> Result<(), WormError> {
        if self.txn_start.is_some() {
            Err(WormError::TxnOpen)
        } else {
            Ok(())
        }
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
        res.map(|_| ()).map_err(WormError::from)
    }

    /// Inserts a freshly written VRD. A single insert is self-committing:
    /// the one frame *is* the atomic unit.
    ///
    /// # Errors
    ///
    /// [`WormError::TxnOpen`] during a staged transaction;
    /// [`WormError::Journal`] if the durable append fails (the table is
    /// left unchanged).
    pub fn insert(&mut self, vrd: Vrd) -> Result<(), WormError> {
        self.ensure_no_txn()?;
        self.log(OP_INSERT, &codec::encode_vrd(&vrd))?;
        self.entries.insert(vrd.sn, VrdtEntry::Active(vrd));
        Ok(())
    }

    /// Replaces an active VRD (litigation-hold updates, strengthened
    /// witnesses). No-op on the entry map if the SN is not active.
    ///
    /// # Errors
    ///
    /// As [`Vrdt::insert`].
    pub fn replace(&mut self, vrd: Vrd) -> Result<(), WormError> {
        self.ensure_no_txn()?;
        self.log(OP_REPLACE, &codec::encode_vrd(&vrd))?;
        self.entries.insert(vrd.sn, VrdtEntry::Active(vrd));
        Ok(())
    }

    /// Replaces an entry with its deletion proof (record expired).
    ///
    /// # Errors
    ///
    /// As [`Vrdt::insert`].
    pub fn expire(&mut self, proof: DeletionProof) -> Result<(), WormError> {
        self.ensure_no_txn()?;
        self.log(OP_EXPIRE, &codec::encode_deletion_proof(&proof))?;
        self.entries.insert(proof.sn, VrdtEntry::Expired(proof));
        Ok(())
    }

    /// Installs a deleted-window proof, expelling the per-record deletion
    /// proofs it subsumes (§4.2.1 storage reduction).
    ///
    /// # Errors
    ///
    /// As [`Vrdt::insert`].
    pub fn compact(&mut self, window: WindowProof) -> Result<(), WormError> {
        self.ensure_no_txn()?;
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
        self.ensure_no_txn()?;
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
        self.ensure_no_txn()?;
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

    /// Stages one frame of an open transaction: journaled now (durably,
    /// with a sink), applied only at [`Vrdt::commit_txn`].
    fn stage(&mut self, inner_op: u8, inner: Vec<u8>) -> Result<(), WormError> {
        let mut payload = Vec::with_capacity(inner.len() + 1);
        payload.push(inner_op);
        payload.extend_from_slice(&inner);
        let at = self.journal.len_bytes();
        self.log(OP_STAGE, &payload)?;
        self.txn_start.get_or_insert(at);
        self.staged.push((inner_op, inner));
        Ok(())
    }

    /// Stages a VRD replacement into the open transaction.
    ///
    /// # Errors
    ///
    /// [`WormError::Journal`] if the durable append fails.
    pub fn stage_replace(&mut self, vrd: &Vrd) -> Result<(), WormError> {
        self.stage(OP_REPLACE, codec::encode_vrd(vrd))
    }

    /// Stages a record expiry into the open transaction.
    ///
    /// # Errors
    ///
    /// [`WormError::Journal`] if the durable append fails.
    pub fn stage_expire(&mut self, proof: &DeletionProof) -> Result<(), WormError> {
        self.stage(OP_EXPIRE, codec::encode_deletion_proof(proof))
    }

    /// Stages a shred-begin (extent entering its overwrite passes) into
    /// the open transaction.
    ///
    /// # Errors
    ///
    /// [`WormError::Journal`] if the durable append fails.
    pub fn stage_shred_begin(&mut self, state: &ShredState) -> Result<(), WormError> {
        self.stage(OP_SHRED_BEGIN, codec::encode_shred_state(state))
    }

    /// Commits the open transaction: journals the commit marker (the
    /// commitment point — durable before anything applies), then applies
    /// every staged frame. A crash before the marker rolls the whole unit
    /// back at recovery; a crash after replays it in full.
    ///
    /// # Errors
    ///
    /// [`WormError::Journal`] if the marker append fails (the transaction
    /// stays open — retry or [`Vrdt::abort_txn`]).
    pub fn commit_txn(&mut self) -> Result<(), WormError> {
        if self.staged.is_empty() {
            self.txn_start = None;
            return Ok(());
        }
        let n = u32::try_from(self.staged.len()).map_err(|_| {
            WormError::Wire(WireError {
                expected: "staged count within u32",
            })
        })?;
        self.log(OP_COMMIT, &n.to_be_bytes())?;
        self.txn_start = None;
        for (op, payload) in std::mem::take(&mut self.staged) {
            self.apply_op(op, &payload).map_err(WormError::Wire)?;
        }
        Ok(())
    }

    /// Aborts the open transaction: truncates its staged frames off the
    /// journal (and the durable sink) without applying them — the same
    /// rollback a crash-recovery would perform.
    ///
    /// # Errors
    ///
    /// [`WormError::Journal`] if erasing the sink tail fails; the
    /// transaction is logically gone regardless (any surviving staged
    /// frames on disk are uncommitted and roll back at the next
    /// recovery).
    pub fn abort_txn(&mut self) -> Result<(), WormError> {
        let Some(start) = self.txn_start.take() else {
            return Ok(());
        };
        self.staged.clear();
        self.journal.truncate_tail(self.journal.len_bytes() - start);
        if let Some(sink) = self.sink.as_mut() {
            sink.truncate_to(start as u64);
            sink.erase_tail()?;
        }
        Ok(())
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
        self.ensure_no_txn()?;
        self.log(OP_SHRED_PASS, &codec::encode_shred_pass(offset, pass))?;
        if let Some(s) = self.pending_shreds.get_mut(&offset) {
            s.next_pass = pass + 1;
        }
        Ok(())
    }

    /// Journals completion of the whole shred at `offset`; the extent may
    /// now be reclaimed by the store.
    ///
    /// # Errors
    ///
    /// As [`Vrdt::insert`].
    pub fn note_shred_done(&mut self, offset: u64) -> Result<(), WormError> {
        self.ensure_no_txn()?;
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

    fn shred_state(offset: u64) -> ShredState {
        ShredState {
            rd: RecordDescriptor {
                id: RecordId(7),
                offset,
                len: 64,
            },
            shredder: Shredder::MultiPass { passes: 2 },
            next_pass: 0,
        }
    }

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
        t.expire(del(1)).unwrap();
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
            t.expire(del(i)).unwrap();
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
        t.expire(del(2)).unwrap();
        t.expire(del(4)).unwrap();
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
            t.expire(del(i)).unwrap();
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
            t.expire(del(i)).unwrap();
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
            t.expire(del(i)).unwrap();
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
            t.expire(del(i)).unwrap();
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
        assert_eq!(recovered.recovery_stats().rolled_back, 0);
    }

    #[test]
    fn torn_journal_recovers_prefix() {
        let mut t = Vrdt::new();
        t.insert(vrd(1)).unwrap();
        t.insert(vrd(2)).unwrap();
        let mut j = Journal::from_bytes(t.journal().as_bytes().to_vec());
        j.truncate_tail(7); // tear the second frame
        let recovered = Vrdt::recover(j).unwrap();
        assert_eq!(recovered.resident_entries(), 1);
        assert!(matches!(
            recovered.lookup(SerialNumber(1)),
            Lookup::Active(_)
        ));
    }

    #[test]
    fn recovery_rejects_garbage_opcode() {
        let mut j = Journal::new();
        j.append(&[200, 1, 2, 3]).unwrap();
        assert!(Vrdt::recover(j).is_err());
    }

    #[test]
    fn staged_txn_applies_only_on_commit() {
        let mut t = Vrdt::new();
        t.insert(vrd(1)).unwrap();
        t.stage_expire(&del(1)).unwrap();
        t.stage_shred_begin(&shred_state(128)).unwrap();
        assert!(t.has_open_txn());
        // Nothing applied yet.
        assert!(matches!(t.lookup(SerialNumber(1)), Lookup::Active(_)));
        assert!(t.pending_shreds().is_empty());
        // Plain mutations are refused mid-transaction.
        assert!(matches!(t.insert(vrd(2)), Err(WormError::TxnOpen)));
        assert!(matches!(t.set_head(head(1)), Err(WormError::TxnOpen)));
        assert!(matches!(t.note_shred_done(128), Err(WormError::TxnOpen)));
        t.commit_txn().unwrap();
        assert!(!t.has_open_txn());
        assert!(matches!(t.lookup(SerialNumber(1)), Lookup::Expired(_)));
        assert_eq!(t.pending_shreds().len(), 1);
        assert_eq!(t.pending_shreds()[&128].next_pass, 0);
    }

    #[test]
    fn recovery_rolls_back_uncommitted_staged_suffix() {
        let mut t = Vrdt::new();
        t.insert(vrd(1)).unwrap();
        t.insert(vrd(2)).unwrap();
        t.stage_expire(&del(1)).unwrap();
        t.stage_shred_begin(&shred_state(64)).unwrap();
        // Crash before the commit marker: recover from the raw bytes.
        let crashed = Journal::from_bytes(t.journal().as_bytes().to_vec());
        let pre_txn_len = crashed.len_bytes();
        let r = Vrdt::recover(crashed).unwrap();
        assert!(matches!(r.lookup(SerialNumber(1)), Lookup::Active(_)));
        assert!(r.pending_shreds().is_empty());
        let stats = r.recovery_stats();
        assert_eq!(stats.rolled_back, 2);
        assert_eq!(stats.replayed, 2); // the two plain inserts
                                       // The staged suffix was truncated off the journal.
        assert!(r.journal().len_bytes() < pre_txn_len);
        // And the table keeps working post-rollback.
        let mut r = r;
        r.expire(del(2)).unwrap();
        assert!(matches!(r.lookup(SerialNumber(2)), Lookup::Expired(_)));
    }

    #[test]
    fn committed_txn_replays_atomically() {
        let mut t = Vrdt::new();
        t.insert(vrd(1)).unwrap();
        t.stage_expire(&del(1)).unwrap();
        t.stage_shred_begin(&shred_state(96)).unwrap();
        t.commit_txn().unwrap();
        let r = Vrdt::recover(Journal::from_bytes(t.journal().as_bytes().to_vec())).unwrap();
        assert!(matches!(r.lookup(SerialNumber(1)), Lookup::Expired(_)));
        assert_eq!(r.pending_shreds().len(), 1);
        let stats = r.recovery_stats();
        assert_eq!(stats.rolled_back, 0);
        // 1 insert + 2 staged + 1 commit marker.
        assert_eq!(stats.replayed, 4);
    }

    #[test]
    fn shred_markers_recover_resume_state() {
        let mut t = Vrdt::new();
        t.stage_shred_begin(&shred_state(256)).unwrap();
        t.commit_txn().unwrap();
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
    fn abort_txn_truncates_journal() {
        let mut t = Vrdt::new();
        t.insert(vrd(1)).unwrap();
        let before = t.journal().len_bytes();
        t.stage_expire(&del(1)).unwrap();
        t.abort_txn().unwrap();
        assert!(!t.has_open_txn());
        assert_eq!(t.journal().len_bytes(), before);
        assert!(matches!(t.lookup(SerialNumber(1)), Lookup::Active(_)));
        // Table keeps working after the abort.
        t.expire(del(1)).unwrap();
        assert!(matches!(t.lookup(SerialNumber(1)), Lookup::Expired(_)));
    }

    #[test]
    fn recovery_rejects_commit_count_mismatch() {
        // Hand-craft: one staged frame, commit marker claiming two.
        let mut j = Journal::new();
        let mut frame = vec![OP_STAGE, OP_INSERT];
        frame.extend_from_slice(&codec::encode_vrd(&vrd(1)));
        j.append(&frame).unwrap();
        let mut commit = vec![OP_COMMIT];
        commit.extend_from_slice(&2u32.to_be_bytes());
        j.append(&commit).unwrap();
        assert!(Vrdt::recover(j).is_err());
    }

    #[test]
    fn recovery_rejects_plain_frame_inside_txn() {
        // A plain frame between stage and commit can only be tampering:
        // the runtime refuses plain ops while a transaction is open.
        let mut j = Journal::new();
        let mut frame = vec![OP_STAGE, OP_INSERT];
        frame.extend_from_slice(&codec::encode_vrd(&vrd(1)));
        j.append(&frame).unwrap();
        let mut plain = vec![OP_INSERT];
        plain.extend_from_slice(&codec::encode_vrd(&vrd(2)));
        j.append(&plain).unwrap();
        assert!(Vrdt::recover(j).is_err());
    }

    #[test]
    fn sink_mirrors_appends_durably() {
        let dev = Arc::new(MemDisk::unmetered(16 * 1024));
        let dj = DiskJournal::create(dev.clone(), 0, 8 * 1024).unwrap();
        let mut t = Vrdt::new();
        t.attach_sink(Box::new(dj)).unwrap();
        t.insert(vrd(1)).unwrap();
        t.stage_expire(&del(1)).unwrap();
        t.stage_shred_begin(&shred_state(512)).unwrap();
        t.commit_txn().unwrap();
        // Reopen from the device alone.
        let (_, j, scan) = DiskJournal::open(dev, 0, 8 * 1024).unwrap();
        assert!(!scan.torn_tail);
        let r = Vrdt::recover(j).unwrap();
        assert!(matches!(r.lookup(SerialNumber(1)), Lookup::Expired(_)));
        assert_eq!(r.pending_shreds().len(), 1);
    }

    #[test]
    fn abort_txn_erases_sink_tail() {
        let dev = Arc::new(MemDisk::unmetered(16 * 1024));
        let dj = DiskJournal::create(dev.clone(), 0, 8 * 1024).unwrap();
        let mut t = Vrdt::new();
        t.attach_sink(Box::new(dj)).unwrap();
        t.insert(vrd(1)).unwrap();
        t.stage_expire(&del(1)).unwrap();
        t.abort_txn().unwrap();
        let (_, j, scan) = DiskJournal::open(dev, 0, 8 * 1024).unwrap();
        assert!(
            !scan.torn_tail,
            "aborted frames must be erased, not just dropped"
        );
        let r = Vrdt::recover(j).unwrap();
        assert!(matches!(r.lookup(SerialNumber(1)), Lookup::Active(_)));
        assert_eq!(r.recovery_stats().rolled_back, 0);
    }
}
