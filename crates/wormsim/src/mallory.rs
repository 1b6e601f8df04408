//! Mallory — the paper's adversary, as a test rig.
//!
//! The threat model (§2.1): Alice legitimately stores a record, later
//! regrets it, and — with superuser powers and physical access to disks —
//! acts as "Mallory" to alter it, delete it early, or deny its existence,
//! all *undetectably*. [`Mallory`]'s methods perform exactly those
//! manipulations against live server state, bypassing the WORM API the
//! way a root insider bypasses access control.
//!
//! Every method either mutates host-side state in place or fabricates the
//! malicious [`ReadOutcome`] Mallory would serve; the test suites assert
//! that [`Verifier`](strongworm::Verifier) rejects each one (Theorems 1
//! and 2).

use strongworm::proofs::{DeletionEvidence, DeletionProof, HeadCert, ReadOutcome, WindowProof};
use strongworm::vrdt::{Lookup, VrdtEntry};
use strongworm::witness::Signature;
use strongworm::{SerialNumber, Vrd, WormServer};
use wormstore::BlockDevice;

/// A server's internals, as wielded by a malicious insider.
///
/// Holds only a shared reference: the insider needs no cooperation from
/// the server's API surface — each method takes the VRDT write lock
/// through [`WormServer::parts_mut_for_attack`] or writes the raw device
/// directly, exactly like a root process scribbling on mounted disks
/// while the server runs.
pub struct Mallory<'a, D: BlockDevice> {
    server: &'a WormServer<D>,
}

impl<'a, D: BlockDevice> Mallory<'a, D> {
    /// Opens the insider attack surface of `server`.
    pub fn new(server: &'a WormServer<D>) -> Self {
        Mallory { server }
    }

    /// The head certificate the honest host currently serves.
    fn head(&self) -> Option<HeadCert> {
        self.server.vrdt().head().cloned()
    }

    /// Flips bits in the stored bytes of record `sn` directly on the
    /// medium (the physical-access attack that defeats soft-WORM, §3).
    ///
    /// Returns `false` if the record is not active or has no data.
    pub fn corrupt_record_data(&self, sn: SerialNumber) -> bool {
        let rd = match self.server.vrdt().lookup(sn) {
            Lookup::Active(v) => match v.rdl.first() {
                Some(rd) => *rd,
                None => return false,
            },
            _ => return false,
        };
        if rd.len == 0 {
            return false;
        }
        let device = self.server.store().device();
        let mut byte = [0u8; 1];
        if device.read_at(rd.offset, &mut byte).is_err() {
            return false;
        }
        byte[0] ^= 0xFF;
        device.write_at(rd.offset, &byte).is_ok()
    }

    /// Edits an active record's VRD in the VRDT — its attributes (e.g.
    /// shortening its retention), its descriptor list or its witnesses —
    /// without involving the SCPU.
    ///
    /// Returns `false` if the record is not active.
    pub fn edit_vrd(&self, sn: SerialNumber, edit: impl FnOnce(&mut Vrd)) -> bool {
        let (mut vrdt, _) = self.server.parts_mut_for_attack();
        match vrdt.entries_mut_for_attack().get_mut(&sn) {
            Some(VrdtEntry::Active(v)) => {
                edit(v);
                true
            }
            _ => false,
        }
    }

    /// Swaps the witnesses of two active records (signature transplant).
    ///
    /// Returns `false` unless both records are active.
    pub fn swap_witnesses(&self, a: SerialNumber, b: SerialNumber) -> bool {
        let (mut vrdt, _) = self.server.parts_mut_for_attack();
        let entries = vrdt.entries_mut_for_attack();
        let witnesses = |sn| match entries.get(&sn) {
            Some(VrdtEntry::Active(v)) => Some((v.metasig.clone(), v.datasig.clone())),
            _ => None,
        };
        let (Some(wa), Some(wb)) = (witnesses(a), witnesses(b)) else {
            return false;
        };
        for (sn, (metasig, datasig)) in [(a, wb), (b, wa)] {
            if let Some(VrdtEntry::Active(v)) = entries.get_mut(&sn) {
                v.metasig = metasig;
                v.datasig = datasig;
            }
        }
        true
    }

    /// Serves "this record never existed", backed by the current
    /// (honest) head certificate — the naïve denial a fresh head defeats.
    pub fn deny_existence(&self) -> Option<ReadOutcome> {
        let head = self.head()?;
        Some(ReadOutcome::NeverExisted { head })
    }

    /// Serves "this record never existed" backed by a *replayed* old head
    /// certificate from before the record was written (§4.2.1's replay
    /// attack; defeated by the head's timestamp).
    pub fn deny_existence_with_replayed_head(&self, old_head: HeadCert) -> ReadOutcome {
        ReadOutcome::NeverExisted { head: old_head }
    }

    /// Fabricates a deletion proof for an active record (removing history
    /// before its retention elapsed) with a forged signature.
    ///
    /// # Panics
    ///
    /// If the server has no head, which `WormServer` installs at boot.
    pub fn forge_deletion(&self, sn: SerialNumber) -> ReadOutcome {
        let head = self.head().expect("head installed at boot");
        let proof = DeletionProof {
            sn,
            deleted_at: head.issued_at,
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

    /// Claims an active record was deleted, with legitimate `evidence`
    /// that belongs to other records: another record's deletion proof, or
    /// a deleted window that does not cover it.
    pub fn claim_deleted(&self, evidence: DeletionEvidence) -> Option<ReadOutcome> {
        let head = self.head()?;
        Some(ReadOutcome::Deleted { evidence, head })
    }

    /// Removes a record's VRDT entry outright (the crude "lost it" play).
    pub fn drop_entry(&self, sn: SerialNumber) -> bool {
        let (mut vrdt, _) = self.server.parts_mut_for_attack();
        vrdt.entries_mut_for_attack().remove(&sn).is_some()
    }

    /// Re-inserts a previously captured VRD + data (resurrection of a
    /// rightfully deleted record — allowed by the model: "remembering" is
    /// not preventable, only *rewriting* is).
    pub fn resurrect_entry(&self, vrd: Vrd) {
        let (mut vrdt, _) = self.server.parts_mut_for_attack();
        vrdt.entries_mut_for_attack()
            .insert(vrd.sn, VrdtEntry::Active(vrd));
    }
}
