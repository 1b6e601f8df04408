//! Proof objects the host presents to clients.
//!
//! §4.2.2 (*Read*): a successful read returns the VRD and data; a failed
//! read must come with SCPU-certified evidence — a deletion proof
//! `S_d(SN)`, a base certificate showing `SN < SN_base`, or a signed
//! deleted-window pair containing the SN. §4.2.1's freshness mechanism
//! adds the timestamped head certificate to every response so the host
//! cannot hide recent records.

use bytes::Bytes;
use scpu::Timestamp;

use crate::sn::SerialNumber;
use crate::vrd::Vrd;
use crate::witness::Signature;

/// Timestamped head certificate `S_s(SN_current, t)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeadCert {
    /// Highest serial number issued so far.
    pub sn_current: SerialNumber,
    /// Trusted issue time (clients reject stale heads).
    pub issued_at: Timestamp,
    /// Signature under the SCPU's permanent key `s`.
    pub sig: Signature,
}

/// Coordinator-signed binding of a sharded deployment's per-shard heads.
///
/// `root` is SHA-256 over the canonical encodings of every shard's
/// [`HeadCert`] in lane order; the coordinator shard's SCPU signs
/// `(shard_count, root, t)`. A host serving N shards therefore cannot
/// mix head certificates from different instants, omit a shard, or
/// claim a different shard count without forging this signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompositeBinding {
    /// Number of shards bound into the root (also the number of SN
    /// lanes the deployment may route to).
    pub shard_count: u32,
    /// SHA-256 over the canonical per-shard head-certificate encodings,
    /// in lane order.
    pub root: Vec<u8>,
    /// Trusted issue time stamped by the coordinator SCPU.
    pub issued_at: Timestamp,
    /// Signature under the coordinator SCPU's permanent key `s`.
    pub sig: Signature,
}

/// The composite freshness head of a sharded witness plane: every
/// shard's timestamped head certificate plus the coordinator-signed
/// binding folding them into one verifiable root.
///
/// A one-lane deployment's composite holds one head, minted and cached
/// by the same code as any other lane count's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompositeHead {
    /// Per-shard head certificates, indexed by shard lane.
    pub heads: Vec<HeadCert>,
    /// The coordinator-signed binding over them.
    pub binding: CompositeBinding,
}

/// Base certificate `S_s(SN_base)` with anti-replay expiry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaseCert {
    /// Lowest serial number of any still-active record; everything below
    /// is rightfully deleted.
    pub sn_base: SerialNumber,
    /// Time after which this certificate must be re-issued.
    pub expires_at: Timestamp,
    /// Signature under `s`.
    pub sig: Signature,
}

/// Per-record deletion proof `S_d(SN)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeletionProof {
    /// The deleted serial number.
    pub sn: SerialNumber,
    /// Trusted deletion time.
    pub deleted_at: Timestamp,
    /// Signature under the SCPU's deletion key `d`.
    pub sig: Signature,
}

/// Signed bounds of a contiguous deleted window (§4.2.1 multi-window
/// compaction). The two bounds carry the same random `window_id`, which
/// is what stops the host from pairing bounds of different windows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowProof {
    /// Random correlation identifier minted inside the SCPU.
    pub window_id: u64,
    /// First expired SN of the segment.
    pub lo: SerialNumber,
    /// Last expired SN of the segment.
    pub hi: SerialNumber,
    /// `S_s(window_id, "lo", lo)`.
    pub lo_sig: Signature,
    /// `S_s(window_id, "hi", hi)`.
    pub hi_sig: Signature,
}

impl WindowProof {
    /// Whether `sn` falls inside this window's bounds.
    pub fn contains(&self, sn: SerialNumber) -> bool {
        self.lo <= sn && sn <= self.hi
    }
}

/// Evidence for a failed read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeletionEvidence {
    /// Per-record proof `S_d(SN)`.
    Proof(DeletionProof),
    /// `SN < SN_base`: rightfully deleted and compacted away.
    BelowBase(BaseCert),
    /// The SN lies inside a signed deleted window.
    InWindow(WindowProof),
}

/// What the host returns for a read of serial number `sn`.
///
/// Every variant carries the freshest head certificate, which is what lets
/// the client bound `SN_current` and detect hidden records (Theorem 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The record is live: descriptor plus its data records.
    Data {
        /// The virtual record descriptor.
        vrd: Vrd,
        /// The data records referenced by the VRD's RDL, in order.
        records: Vec<Bytes>,
        /// Freshness certificate.
        head: HeadCert,
    },
    /// The record existed and was deleted per policy.
    Deleted {
        /// SCPU-certified evidence of rightful deletion.
        evidence: DeletionEvidence,
        /// Freshness certificate.
        head: HeadCert,
    },
    /// No record with this SN was ever allocated (`sn > SN_current`).
    NeverExisted {
        /// Freshness certificate proving the current head.
        head: HeadCert,
    },
}

/// What the VRDT holds for a serial number, by reference: a
/// [`ReadOutcome`] minus the head certificate and the record bytes,
/// borrowed from the table under its read guard. The read plane presents
/// this; the codec writes it and [`WormServer::read`] copies it out.
///
/// [`WormServer::read`]: crate::WormServer::read
#[derive(Clone, Copy, Debug)]
pub(crate) enum Resolved<'a> {
    /// The record is live.
    Data(&'a Vrd),
    /// Deleted, per-record proof still resident.
    Proof(&'a DeletionProof),
    /// Deleted, below the signed base.
    BelowBase(&'a BaseCert),
    /// Deleted, inside a signed window.
    InWindow(&'a WindowProof),
    /// Beyond the head: never allocated.
    NeverExisted,
}

impl Resolved<'_> {
    /// Copies the resolution out into an owned [`ReadOutcome`]
    /// (`records` only matter for [`Resolved::Data`]).
    pub(crate) fn to_outcome(self, head: &HeadCert, records: Vec<Bytes>) -> ReadOutcome {
        let head = head.clone();
        let evidence = match self {
            Resolved::Data(vrd) => {
                return ReadOutcome::Data {
                    vrd: vrd.clone(),
                    records,
                    head,
                }
            }
            Resolved::NeverExisted => return ReadOutcome::NeverExisted { head },
            Resolved::Proof(p) => DeletionEvidence::Proof(p.clone()),
            Resolved::BelowBase(b) => DeletionEvidence::BelowBase(b.clone()),
            Resolved::InWindow(w) => DeletionEvidence::InWindow(w.clone()),
        };
        ReadOutcome::Deleted { evidence, head }
    }
}

impl ReadOutcome {
    /// What this outcome resolved to, by reference (its head and record
    /// bytes aside).
    pub(crate) fn resolved(&self) -> Resolved<'_> {
        match self {
            ReadOutcome::Data { vrd, .. } => Resolved::Data(vrd),
            ReadOutcome::Deleted { evidence, .. } => match evidence {
                DeletionEvidence::Proof(p) => Resolved::Proof(p),
                DeletionEvidence::BelowBase(b) => Resolved::BelowBase(b),
                DeletionEvidence::InWindow(w) => Resolved::InWindow(w),
            },
            ReadOutcome::NeverExisted { .. } => Resolved::NeverExisted,
        }
    }

    /// The head certificate attached to this outcome.
    pub fn head(&self) -> &HeadCert {
        match self {
            ReadOutcome::Data { head, .. }
            | ReadOutcome::Deleted { head, .. }
            | ReadOutcome::NeverExisted { head } => head,
        }
    }

    /// Short variant name for logs and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            ReadOutcome::Data { .. } => "data",
            ReadOutcome::Deleted { .. } => "deleted",
            ReadOutcome::NeverExisted { .. } => "never-existed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> Signature {
        Signature {
            key_id: [9; 8],
            bytes: vec![1, 2, 3],
        }
    }

    #[test]
    fn window_contains() {
        let w = WindowProof {
            window_id: 1,
            lo: SerialNumber(10),
            hi: SerialNumber(20),
            lo_sig: sig(),
            hi_sig: sig(),
        };
        assert!(w.contains(SerialNumber(10)));
        assert!(w.contains(SerialNumber(15)));
        assert!(w.contains(SerialNumber(20)));
        assert!(!w.contains(SerialNumber(9)));
        assert!(!w.contains(SerialNumber(21)));
    }

    #[test]
    fn outcome_kind_and_head() {
        let head = HeadCert {
            sn_current: SerialNumber(5),
            issued_at: Timestamp::from_millis(3),
            sig: sig(),
        };
        let o = ReadOutcome::NeverExisted { head: head.clone() };
        assert_eq!(o.kind(), "never-existed");
        assert_eq!(o.head().sn_current, SerialNumber(5));
        let o = ReadOutcome::Deleted {
            evidence: DeletionEvidence::BelowBase(BaseCert {
                sn_base: SerialNumber(2),
                expires_at: Timestamp::from_millis(10),
                sig: sig(),
            }),
            head,
        };
        assert_eq!(o.kind(), "deleted");
    }
}
