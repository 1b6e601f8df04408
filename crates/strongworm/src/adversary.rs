//! Mallory — the paper's adversary, as a test harness.
//!
//! The threat model (§2.1): Alice legitimately stores a record, later
//! regrets it, and — with superuser powers and physical access to disks —
//! acts as "Mallory" to alter it, delete it early, or deny its existence,
//! all *undetectably*. This module gives tests a first-class Mallory whose
//! methods perform exactly those manipulations against live server state,
//! bypassing the WORM API the way a root insider bypasses access control.
//!
//! Every method either mutates host-side state in place or fabricates the
//! malicious [`ReadOutcome`] Mallory would serve; the accompanying test
//! suites assert that [`Verifier`](crate::Verifier) rejects each one
//! (Theorems 1 and 2).

use wormstore::BlockDevice;

use crate::attr::RecordAttributes;
use crate::proofs::{DeletionEvidence, DeletionProof, HeadCert, ReadOutcome, WindowProof};
use crate::server::WormServer;
use crate::sn::SerialNumber;
use crate::vrdt::VrdtEntry;
use crate::witness::Signature;

/// Handle over a server's internals, as wielded by a malicious insider.
///
/// Holds only a shared reference: the insider needs no cooperation from
/// the server's API surface — each method grabs the VRDT write lock or
/// the raw device interface directly, exactly like a root process
/// scribbling on mounted disks while the server runs.
pub struct Mallory<'a, D: BlockDevice> {
    server: &'a WormServer<D>,
}

impl<D: BlockDevice> WormServer<D> {
    /// Opens the insider attack surface (tests only).
    pub fn mallory(&self) -> Mallory<'_, D> {
        Mallory { server: self }
    }
}

impl<D: BlockDevice> Mallory<'_, D> {
    /// Flips bits in the stored bytes of record `sn` directly on the
    /// medium (the physical-access attack that defeats soft-WORM, §3).
    ///
    /// Returns `false` if the record is not active or has no data.
    pub fn corrupt_record_data(&mut self, sn: SerialNumber) -> bool {
        let (vrdt, store) = self.server.parts_mut_for_attack();
        let rd = match vrdt.lookup(sn) {
            crate::vrdt::Lookup::Active(v) => match v.rdl.first() {
                Some(rd) => *rd,
                None => return false,
            },
            _ => return false,
        };
        if rd.len == 0 {
            return false;
        }
        let mut byte = [0u8; 1];
        if store.device().read_at(rd.offset, &mut byte).is_err() {
            return false;
        }
        byte[0] ^= 0xFF;
        store.device().write_at(rd.offset, &byte).is_ok()
    }

    /// Rewrites a record's attributes in the VRDT (e.g., shortening its
    /// retention period) without involving the SCPU.
    ///
    /// Returns `false` if the record is not active.
    pub fn rewrite_attributes(
        &mut self,
        sn: SerialNumber,
        edit: impl FnOnce(&mut RecordAttributes),
    ) -> bool {
        let (mut vrdt, _) = self.server.parts_mut_for_attack();
        match vrdt.entries_mut_for_attack().get_mut(&sn) {
            Some(VrdtEntry::Active(v)) => {
                edit(&mut v.attr);
                true
            }
            _ => false,
        }
    }

    /// Swaps the witnesses of two active records (signature transplant).
    ///
    /// Returns `false` unless both records are active.
    pub fn swap_witnesses(&mut self, a: SerialNumber, b: SerialNumber) -> bool {
        let (mut vrdt, _) = self.server.parts_mut_for_attack();
        let entries = vrdt.entries_mut_for_attack();
        let wa = match entries.get(&a) {
            Some(VrdtEntry::Active(v)) => (v.metasig.clone(), v.datasig.clone()),
            _ => return false,
        };
        let wb = match entries.get(&b) {
            Some(VrdtEntry::Active(v)) => (v.metasig.clone(), v.datasig.clone()),
            _ => return false,
        };
        if let Some(VrdtEntry::Active(v)) = entries.get_mut(&a) {
            v.metasig = wb.0;
            v.datasig = wb.1;
        }
        if let Some(VrdtEntry::Active(v)) = entries.get_mut(&b) {
            v.metasig = wa.0;
            v.datasig = wa.1;
        }
        true
    }

    /// Serves "this record never existed" for `sn`, backed by the current
    /// (honest) head certificate — the naïve denial a fresh head defeats.
    pub fn deny_existence(&mut self, sn: SerialNumber) -> Option<ReadOutcome> {
        let _ = sn;
        let (vrdt, _) = self.server.parts_mut_for_attack();
        let head = vrdt.head().cloned()?;
        Some(ReadOutcome::NeverExisted { head })
    }

    /// Serves "this record never existed" backed by a *replayed* old head
    /// certificate from before the record was written (§4.2.1's replay
    /// attack; defeated by the head's timestamp).
    pub fn deny_existence_with_replayed_head(
        &mut self,
        sn: SerialNumber,
        old_head: HeadCert,
    ) -> ReadOutcome {
        let _ = sn;
        ReadOutcome::NeverExisted { head: old_head }
    }

    /// Fabricates a deletion proof for an active record (removing history
    /// before its retention elapsed) with a forged signature.
    pub fn forge_deletion(&mut self, sn: SerialNumber) -> ReadOutcome {
        let (vrdt, _) = self.server.parts_mut_for_attack();
        #[expect(
            clippy::expect_used,
            reason = "attack-harness precondition: `WormServer::boot` installs a head before any adversary is constructed, and a broken harness must fail loudly, not model a different attack"
        )]
        let head = vrdt.head().cloned().expect("head installed at boot");
        let deleted_at = head.issued_at;
        let proof = DeletionProof {
            sn,
            deleted_at,
            // Mallory cannot sign with `d`; the best she can do is reuse
            // unrelated signature bytes.
            sig: Signature {
                key_id: head.sig.key_id,
                bytes: head.sig.bytes.clone(),
            },
        };
        ReadOutcome::Deleted {
            evidence: DeletionEvidence::Proof(proof),
            head,
        }
    }

    /// Replays a legitimate deletion proof of record `victim` as evidence
    /// that a *different* record was deleted.
    pub fn replay_deletion_proof(&mut self, victim_proof: DeletionProof) -> Option<ReadOutcome> {
        let (vrdt, _) = self.server.parts_mut_for_attack();
        let head = vrdt.head().cloned()?;
        Some(ReadOutcome::Deleted {
            evidence: DeletionEvidence::Proof(victim_proof),
            head,
        })
    }

    /// Splices the lower bound of one signed window with the upper bound
    /// of another, fabricating a wider "deleted" window (the attack the
    /// correlated window ids prevent, §4.2.1).
    pub fn splice_windows(&self, w1: &WindowProof, w2: &WindowProof) -> WindowProof {
        WindowProof {
            window_id: w1.window_id,
            lo: w1.lo,
            hi: w2.hi,
            lo_sig: w1.lo_sig.clone(),
            hi_sig: w2.hi_sig.clone(),
        }
    }

    /// Claims an active record is covered by an existing (legitimate)
    /// deleted window.
    pub fn claim_in_window(
        &mut self,
        sn: SerialNumber,
        window: WindowProof,
    ) -> Option<ReadOutcome> {
        let _ = sn;
        let (vrdt, _) = self.server.parts_mut_for_attack();
        let head = vrdt.head().cloned()?;
        Some(ReadOutcome::Deleted {
            evidence: DeletionEvidence::InWindow(window),
            head,
        })
    }

    /// Removes a record's VRDT entry outright (the crude "lost it" play).
    pub fn drop_entry(&mut self, sn: SerialNumber) -> bool {
        let (mut vrdt, _) = self.server.parts_mut_for_attack();
        vrdt.entries_mut_for_attack().remove(&sn).is_some()
    }

    /// Re-inserts a previously captured VRD + data (resurrection of a
    /// rightfully deleted record — allowed by the model: "remembering" is
    /// not preventable, only *rewriting* is).
    pub fn resurrect_entry(&mut self, vrd: crate::vrd::Vrd) {
        let (mut vrdt, _) = self.server.parts_mut_for_attack();
        vrdt.entries_mut_for_attack()
            .insert(vrd.sn, VrdtEntry::Active(vrd));
    }
}
