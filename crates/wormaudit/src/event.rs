//! Audit event classes, the chained event record, and the SCPU anchor.

use wormcrypt::wire::WireWriter;
use wormcrypt::{HashAlg, RsaPublicKey};

/// The class of an integrity-relevant event.
///
/// The set is closed and wire-stable: each class has a fixed `u8` code
/// used by the `wormaudit.events.v1` codec, and decoders reject unknown
/// codes rather than guessing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AuditClass {
    /// A read failed verification or errored on the serving path — the
    /// host could not produce the record or its evidence.
    VerifyFailure,
    /// The SCPU detected host tampering (a trust-host-hash audit
    /// failure: the host lied about a data hash).
    TamperDetected,
    /// The freshness head certificate was explicitly refreshed.
    HeadRefresh,
    /// The SCPU re-minted the head on its own heartbeat (§4.2.1).
    HeadRemint,
    /// The retention daemon exhausted its failure budget and stopped —
    /// retention enforcement is no longer running.
    RetentionGiveUp,
    /// Crash recovery rolled back one or more unwitnessed records.
    RecoveryRollback,
    /// Crash recovery discarded a torn journal tail.
    RecoveryTornTail,
    /// An interrupted shred was resumed after a crash.
    ShredResume,
    /// A shred pass ran to completion (data irrecoverable).
    ShredComplete,
    /// The serving loop shed a connection under overload (CODE_BUSY).
    AdmissionShed,
    /// The record store compacted, relocating live extents.
    StoreCompaction,
}

/// Every audit class, in code order — for per-class panels and sweeps.
pub const ALL_CLASSES: &[AuditClass] = &[
    AuditClass::VerifyFailure,
    AuditClass::TamperDetected,
    AuditClass::HeadRefresh,
    AuditClass::HeadRemint,
    AuditClass::RetentionGiveUp,
    AuditClass::RecoveryRollback,
    AuditClass::RecoveryTornTail,
    AuditClass::ShredResume,
    AuditClass::ShredComplete,
    AuditClass::AdmissionShed,
    AuditClass::StoreCompaction,
];

impl AuditClass {
    /// Stable wire code.
    pub fn code(self) -> u8 {
        match self {
            AuditClass::VerifyFailure => 1,
            AuditClass::TamperDetected => 2,
            AuditClass::HeadRefresh => 3,
            AuditClass::HeadRemint => 4,
            AuditClass::RetentionGiveUp => 5,
            AuditClass::RecoveryRollback => 6,
            AuditClass::RecoveryTornTail => 7,
            AuditClass::ShredResume => 8,
            AuditClass::ShredComplete => 9,
            AuditClass::AdmissionShed => 10,
            AuditClass::StoreCompaction => 11,
        }
    }

    /// The class for a wire code, if known.
    pub fn from_code(code: u8) -> Option<AuditClass> {
        match code {
            1 => Some(AuditClass::VerifyFailure),
            2 => Some(AuditClass::TamperDetected),
            3 => Some(AuditClass::HeadRefresh),
            4 => Some(AuditClass::HeadRemint),
            5 => Some(AuditClass::RetentionGiveUp),
            6 => Some(AuditClass::RecoveryRollback),
            7 => Some(AuditClass::RecoveryTornTail),
            8 => Some(AuditClass::ShredResume),
            9 => Some(AuditClass::ShredComplete),
            10 => Some(AuditClass::AdmissionShed),
            11 => Some(AuditClass::StoreCompaction),
            _ => None,
        }
    }

    /// Stable display label.
    pub fn as_str(self) -> &'static str {
        match self {
            AuditClass::VerifyFailure => "verify-failure",
            AuditClass::TamperDetected => "tamper-detected",
            AuditClass::HeadRefresh => "head-refresh",
            AuditClass::HeadRemint => "head-remint",
            AuditClass::RetentionGiveUp => "retention-giveup",
            AuditClass::RecoveryRollback => "recovery-rollback",
            AuditClass::RecoveryTornTail => "recovery-torn-tail",
            AuditClass::ShredResume => "shred-resume",
            AuditClass::ShredComplete => "shred-complete",
            AuditClass::AdmissionShed => "admission-shed",
            AuditClass::StoreCompaction => "store-compaction",
        }
    }
}

/// One sequence-numbered, hash-chained integrity event.
///
/// `prev_hash` is the chain hash of the preceding event (or the
/// all-zero genesis hash for sequence 0), so the journal forms a hash
/// chain: flipping any byte of an event changes its own chain hash and
/// breaks the link its successor (or a covering [`AuditAnchor`])
/// asserts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditEvent {
    /// Journal sequence number (dense, starting at 0).
    pub seq: u64,
    /// Emission time, milliseconds (virtual or wall, per deployment).
    pub at_ms: u64,
    /// Event class.
    pub class: AuditClass,
    /// Serial number involved, when the event concerns one record.
    pub sn: Option<u64>,
    /// Free-form bounded context (error text, counts).
    pub detail: String,
    /// Chain hash of the predecessor event.
    pub prev_hash: [u8; 32],
}

/// An SCPU signature over the chain tip: "event `seq` had chain hash
/// `chain_hash` at trusted time `issued_at_ms`".
///
/// Minted inside the secure coprocessor under the permanent witnessing
/// key `s`; the audit log thereby inherits the tamper-evidence of the
/// records it describes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditAnchor {
    /// Sequence number of the last event the anchor covers.
    pub seq: u64,
    /// Chain hash of that event.
    pub chain_hash: [u8; 32],
    /// Trusted issue time stamped by the SCPU, milliseconds.
    pub issued_at_ms: u64,
    /// Fingerprint of the signing key (first 8 bytes of SHA-256(n‖e)).
    pub key_id: [u8; 8],
    /// PKCS#1 v1.5 signature over [`anchor_payload`].
    pub sig: Vec<u8>,
}

impl AuditAnchor {
    /// Verifies this anchor's signature with `key`, also checking the
    /// key fingerprint matches.
    pub fn verify(&self, key: &RsaPublicKey) -> bool {
        let payload = anchor_payload(self.seq, &self.chain_hash, self.issued_at_ms);
        key.fingerprint() == self.key_id && key.verify(&payload, &self.sig, HashAlg::Sha256)
    }
}

/// Canonical payload an SCPU signs when anchoring the audit chain.
///
/// Domain-separated from every other SCPU-signed statement, so an
/// anchor signature can never be repurposed as a head certificate or
/// vice versa.
pub fn anchor_payload(seq: u64, chain_hash: &[u8], issued_at_ms: u64) -> Vec<u8> {
    let mut w = WireWriter::tagged("wormaudit.anchor.v1");
    w.put_u64(seq);
    w.put_bytes(chain_hash);
    w.put_u64(issued_at_ms);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_codes_roundtrip_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &c in ALL_CLASSES {
            assert_eq!(AuditClass::from_code(c.code()), Some(c));
            assert!(seen.insert(c.code()), "duplicate code {}", c.code());
            assert!(!c.as_str().is_empty());
        }
        assert_eq!(AuditClass::from_code(0), None);
        assert_eq!(AuditClass::from_code(255), None);
    }

    #[test]
    fn anchor_payload_binds_every_field() {
        let base = anchor_payload(5, &[7u8; 32], 1000);
        assert_ne!(base, anchor_payload(6, &[7u8; 32], 1000));
        assert_ne!(base, anchor_payload(5, &[8u8; 32], 1000));
        assert_ne!(base, anchor_payload(5, &[7u8; 32], 1001));
    }

    #[test]
    fn anchor_verify_checks_fingerprint_and_message() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let key = wormcrypt::RsaPrivateKey::generate(&mut StdRng::seed_from_u64(11), 512);
        let payload = anchor_payload(3, &[9u8; 32], 777);
        let sig = key.sign(&payload, HashAlg::Sha256).unwrap();
        let anchor = AuditAnchor {
            seq: 3,
            chain_hash: [9u8; 32],
            issued_at_ms: 777,
            key_id: key.public().fingerprint(),
            sig,
        };
        assert!(anchor.verify(key.public()));
        let mut wrong_seq = anchor.clone();
        wrong_seq.seq = 4;
        assert!(!wrong_seq.verify(key.public()));
        let mut wrong_id = anchor;
        wrong_id.key_id = [0; 8];
        assert!(!wrong_id.verify(key.public()));
    }
}
