//! The Retention Monitor (RM) and its VEXP expiration list (§4.2.2).
//!
//! "To amortize linear scans of the VRDT while ensuring timely deletion of
//! records, the SCPU maintains a sorted (on expiration times) list of
//! serial numbers (VEXP), subject to secure storage space. [...] the RM is
//! designed to wake up according to the next expiring entry in VEXP and
//! invokes a delete operation on this entry."
//!
//! Deletions cross the boundary as [`OutboxItem::Deleted`] orders: the
//! proof `S_d(SN)` plus the shredding discipline the host must apply to
//! the medium. Litigation holds defer deletion until the hold lapses.

use std::collections::BTreeMap;

use scpu::{Env, SecureMemory, SecureMemoryExhausted, Timestamp};
use wormstore::Shredder;

use super::{reject, FirmwareError, OutboxItem, WormFirmware, WormResponse};
use crate::proofs::DeletionProof;
use crate::sn::SerialNumber;
use crate::witness::deletion_payload;

/// Secure-memory charge per VEXP entry.
pub const VEXP_ENTRY_BYTES: usize = 32;

/// The sorted expiration list held in secure memory.
#[derive(Debug, Default)]
pub(crate) struct VexpTable {
    /// `(expiry, sn) → shredder`, sorted by expiry.
    entries: BTreeMap<(Timestamp, SerialNumber), Shredder>,
    /// Reverse index for rescheduling.
    index: BTreeMap<SerialNumber, Timestamp>,
}

impl VexpTable {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Inserts an entry, charging secure memory.
    pub(crate) fn insert(
        &mut self,
        mem: &mut SecureMemory,
        sn: SerialNumber,
        expires_at: Timestamp,
        shredder: Shredder,
    ) -> Result<(), SecureMemoryExhausted> {
        if self.index.contains_key(&sn) {
            // Already scheduled; keep the earlier reservation.
            return Ok(());
        }
        mem.reserve(VEXP_ENTRY_BYTES)?;
        self.entries.insert((expires_at, sn), shredder);
        self.index.insert(sn, expires_at);
        Ok(())
    }

    /// Earliest wake-up time, if any entries exist.
    pub(crate) fn next_wakeup(&self) -> Option<Timestamp> {
        self.entries.keys().next().map(|&(t, _)| t)
    }

    /// Pops the first entry due at or before `now`, releasing its memory.
    pub(crate) fn pop_due(
        &mut self,
        mem: &mut SecureMemory,
        now: Timestamp,
    ) -> Option<(SerialNumber, Timestamp, Shredder)> {
        let (&(t, _), _) = self.entries.iter().next()?;
        if t > now {
            return None;
        }
        let ((t, sn), shredder) = self.entries.pop_first()?;
        self.index.remove(&sn);
        mem.release(VEXP_ENTRY_BYTES);
        Some((sn, t, shredder))
    }

    /// Moves an entry to a new wake time, keeping its memory reservation.
    pub(crate) fn defer(&mut self, sn: SerialNumber, new_time: Timestamp) {
        if let Some(old) = self.index.get(&sn).copied() {
            if let Some(shredder) = self.entries.remove(&(old, sn)) {
                self.entries.insert((new_time, sn), shredder);
                self.index.insert(sn, new_time);
            }
        }
    }

    /// Re-inserts a popped entry at a later time *without* re-charging
    /// memory would be wrong — use this immediately after `pop_due` by
    /// re-reserving through `insert`; kept private to the RM.
    pub(crate) fn contains(&self, sn: SerialNumber) -> bool {
        self.index.contains_key(&sn)
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }
}

impl WormFirmware {
    /// Runs the Retention Monitor over all due VEXP entries.
    pub(crate) fn run_retention_monitor(&mut self, env: &mut Env) {
        let now = env.now();
        loop {
            let due = self.vexp.pop_due(env.memory(), now);
            let (sn, _expiry, shredder) = match due {
                Some(d) => d,
                None => break,
            };
            // Litigation hold: defer to the hold's lapse time.
            if let Some(&hold_until) = self.holds.get(&sn) {
                if hold_until > now {
                    // Re-schedule at the lapse time. This reserves exactly
                    // the bytes `pop_due` released above with nothing in
                    // between, so it cannot fail — and a deletion schedule
                    // must never be dropped silently, so assert it.
                    let r = self.vexp.insert(env.memory(), sn, hold_until, shredder);
                    #[expect(
                        clippy::expect_used,
                        reason = "re-reserves exactly the bytes pop_due just released, so failure is impossible; silently dropping a deletion schedule would violate the retention contract"
                    )]
                    r.expect("re-reserving bytes released by pop_due");
                    continue;
                }
                self.holds.remove(&sn);
            }
            self.delete_record(env, sn, shredder);
        }
    }

    /// Deletes one record: signs `S_d(SN)`, orders the host to shred, and
    /// advances the base window if possible (§4.2.2 *Delete*).
    pub(crate) fn delete_record(&mut self, env: &mut Env, sn: SerialNumber, shredder: Shredder) {
        let now = env.now();
        let payload = deletion_payload(sn, now);
        let sig = self.sign_deletion(env, payload.as_slice());
        self.outbox.push(OutboxItem::Deleted {
            proof: DeletionProof {
                sn,
                deleted_at: now,
                sig,
            },
            shredder,
        });
        self.drop_pending_for(env, sn);
        if self.mark_expired(sn) {
            if let Ok(base) = self.refresh_base(env) {
                self.outbox.push(OutboxItem::NewBase(base));
            }
        }
    }

    /// Whether the monitor has deleted `sn`, which must have been issued.
    pub(crate) fn deleted(&self, sn: SerialNumber) -> Result<bool, FirmwareError> {
        let s = self.booted()?;
        if sn == SerialNumber(0) || sn > s.sn_current {
            return reject(format!("{sn} was never issued"));
        }
        Ok(sn < s.sn_base
            || s.expired.contains(&sn)
            || s.windows.iter().any(|&(lo, hi)| lo <= sn && sn <= hi))
    }

    /// `SyncVexpFromAttr`: re-schedules a record's expiration from its own
    /// SCPU-signed attributes — the one re-arm path, for an entry spilled
    /// at write time and after a host crash alike. The firmware
    /// verifies `metasig` with its own keys, so the host cannot shorten
    /// the retention or change the shredding discipline; litigation holds
    /// embedded in the attributes are re-armed as well.
    ///
    /// If the monitor has already expired the record (the host crashed
    /// after the proof was signed but before its expiry frame reached
    /// the journal), the deletion is re-driven through the outbox so host
    /// and monitor converge instead of wedging.
    pub(crate) fn sync_vexp_from_attr(
        &mut self,
        env: &mut Env,
        sn: SerialNumber,
        attr: crate::attr::RecordAttributes,
        metasig: crate::witness::Witness,
    ) -> Result<WormResponse, FirmwareError> {
        let already_deleted = self.deleted(sn)?;
        let payload = crate::witness::meta_payload(sn, &attr.encode());
        if !self.verify_own_witness(env.now(), &payload, &metasig) {
            return reject("presented attributes fail metasig verification");
        }
        if already_deleted {
            // The monitor already committed this deletion — the proof was
            // signed and the VEXP entry consumed — yet the host presents
            // the record as live: it crashed before the deletion became
            // durable and rolled its journal back. Refusing here would
            // wedge the record forever (the host cannot delete without a
            // proof, and the monitor never fires twice). Roll the host
            // FORWARD instead: re-sign the deletion proof and re-order
            // the shred through the outbox. The statement is true — the
            // record is deleted — so re-issuing it forges nothing.
            self.delete_record(env, sn, attr.shredder);
            return Ok(WormResponse::Synced);
        }
        if let Some(hold) = &attr.litigation_hold {
            if hold.hold_until > env.now() {
                self.holds.insert(sn, hold.hold_until);
            }
        }
        if self.vexp.contains(sn) {
            return Ok(WormResponse::Synced);
        }
        match self
            .vexp
            .insert(env.memory(), sn, attr.retention_until, attr.shredder)
        {
            Ok(()) => Ok(WormResponse::Synced),
            Err(e) => reject(format!("secure memory exhausted: {e}")),
        }
    }
}
