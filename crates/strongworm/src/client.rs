//! Client-side verification.
//!
//! Clients "only need to trust the SCPU" (§4.1): given the SCPU's public
//! key certificates and a roughly synchronized clock (footnote 1), a
//! [`Verifier`] checks every host response. Upon reading a regulated
//! block, the client is assured that (i) the block was not tampered with
//! if the read succeeds, or — if it fails — that (ii) it was deleted
//! according to policy, or (iii) it never existed in this store.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use scpu::{Clock, Timestamp};
use wormcrypt::{Digest, RsaPublicKey, Sha256};

use crate::authority::KeyCertificate;
use crate::codec::composite_root;
use crate::error::VerifyError;
use crate::firmware::{DeviceKeys, WeakKeyCert};
use crate::proofs::{CompositeHead, DeletionEvidence, HeadCert, ReadOutcome};
use crate::sn::SerialNumber;
use crate::vrd::{data_chain_hash, Vrd};
use crate::witness::{
    base_payload, composite_payload, data_payload, deletion_payload, head_payload, meta_payload,
    weak_cert_payload, weak_wrap, window_payload, KeyRole, Signature, WindowSide, Witness,
};

/// Bound on the verified-signature memo before it resets. 32 bytes per
/// entry; the cap keeps a long-lived verifier's footprint fixed while
/// comfortably covering a hot working set of records.
const SIG_MEMO_CAP: usize = 8192;

/// A bounded memo of signature checks that have already *succeeded*.
///
/// RSA verification dominates client-side read cost; real read traffic
/// re-presents the same signed statements constantly (the head
/// certificate repeats verbatim between heartbeats, and hot records are
/// re-read with identical VRDs). Memoizing success is sound because the
/// memo key is a SHA-256 over the signing key's fingerprint, the exact
/// payload, and the exact signature bytes: a hit means a byte-identical
/// check passed before, and producing a *different* (payload, sig) pair
/// with the same key would be a SHA-256 collision. Nothing
/// time-dependent is memoized — freshness and expiry checks still run
/// on every read, only the signature arithmetic is skipped. Failures
/// are never cached (a host that alternates good and bad bytes gets the
/// bad ones rejected every time).
///
/// The last head certificate whose signature verified rides under the
/// same lock: nearly every response carries that very head, and
/// comparing it field for field is cheaper than hashing a memo key.
#[derive(Debug, Default)]
struct SigMemo {
    seen: RwLock<SigSeen>,
}

#[derive(Debug, Default)]
struct SigSeen {
    keys: HashSet<[u8; 32]>,
    head: Option<HeadCert>,
}

impl SigMemo {
    fn key(key_id: [u8; 8], payload: &[u8], sig: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&key_id);
        // Length prefix keeps (payload, sig) framing unambiguous.
        h.update(&(payload.len() as u64).to_be_bytes());
        h.update(payload);
        h.update(sig);
        let mut out = [0u8; 32];
        out.copy_from_slice(&h.finalize());
        out
    }

    fn contains(&self, k: &[u8; 32]) -> bool {
        // A poisoned lock degrades to cache-miss, never to acceptance.
        self.seen.read().is_ok_and(|s| s.keys.contains(k))
    }

    fn insert(&self, k: [u8; 32]) {
        if let Ok(mut s) = self.seen.write() {
            if s.keys.len() >= SIG_MEMO_CAP {
                s.keys.clear();
            }
            s.keys.insert(k);
        }
    }

    /// Whether `head` is, field for field, the last head whose
    /// signature verified.
    fn is_last_head(&self, head: &HeadCert) -> bool {
        self.seen
            .read()
            .is_ok_and(|s| s.head.as_ref() == Some(head))
    }

    fn set_last_head(&self, head: &HeadCert) {
        if let Ok(mut s) = self.seen.write() {
            s.head = Some(head.clone());
        }
    }
}

/// Bound on the record memo before it resets. An entry holds its own
/// copy of the verified record bytes; at 4 KiB records the cap bounds
/// the memo near a few MiB.
const CHAIN_MEMO_CAP: usize = 1024;

/// A bounded memo of reads that passed full verification: per serial
/// number, the VRD, the record bytes and their data-chain hash.
///
/// A WORM record is fixed at witness time, so a re-read of a hot record
/// re-presents the byte-identical (VRD, records) pair. Every check on
/// that pair is a pure function of those bytes and the verifier's keys
/// — except the ones that depend on the clock or on the request, which
/// [`Verifier::verify_read`] and the hit path below run every time (head
/// signature and freshness, `vrd.sn == requested`, weak-witness expiry).
/// So:
///
/// * VRD (every field, both witnesses) and records byte-identical to the
///   entry: accepted after those checks, at the cost of a comparison.
/// * Only the records identical (the host replaced the VRD: a
///   litigation hold, a strengthened witness): the chain hash is reused
///   — byte equality implies hash equality, and a memcmp is an order of
///   magnitude cheaper than SHA-256 — and both witnesses verify in full.
/// * Anything else — record count, a single byte: the full path.
///
/// Only a read that verified is stored, so a host that alternates good
/// and tampered bytes gets the tampered ones checked (and rejected)
/// every time and never displaces the good entry. Entries are owned
/// copies: a hit never pins a receive buffer.
#[derive(Debug, Default)]
struct RecordMemo {
    seen: RwLock<HashMap<SerialNumber, RecordEntry>>,
}

#[derive(Debug)]
struct RecordEntry {
    vrd: Vrd,
    records: Vec<Vec<u8>>,
    chain: Vec<u8>,
}

/// What the record memo knows about a presented (VRD, records) pair.
enum Remembered {
    /// VRD and records are byte-identical to a read that verified.
    Verified,
    /// The records are; here is their chain hash.
    Chain(Vec<u8>),
    /// Nothing usable.
    Unknown,
}

impl RecordMemo {
    fn lookup(&self, vrd: &Vrd, records: &[bytes::Bytes]) -> Remembered {
        // A poisoned lock degrades to cache-miss, never to acceptance.
        let Ok(seen) = self.seen.read() else {
            return Remembered::Unknown;
        };
        match seen.get(&vrd.sn) {
            Some(e) if records.iter().eq(e.records.iter()) => {
                if e.vrd == *vrd {
                    Remembered::Verified
                } else {
                    Remembered::Chain(e.chain.clone())
                }
            }
            _ => Remembered::Unknown,
        }
    }

    /// Stores a read that just passed full verification.
    fn insert(&self, vrd: &Vrd, records: &[bytes::Bytes], chain: Vec<u8>) {
        if let Ok(mut seen) = self.seen.write() {
            if seen.len() >= CHAIN_MEMO_CAP && !seen.contains_key(&vrd.sn) {
                seen.clear();
            }
            seen.insert(
                vrd.sn,
                RecordEntry {
                    vrd: vrd.clone(),
                    records: records.iter().map(|r| r.to_vec()).collect(),
                    chain,
                },
            );
        }
    }
}

/// One signature check an answer needs, resolved to the key its `key_id`
/// names: everything about the check that is not arithmetic is done.
struct SigCheck<'a> {
    key: &'a RsaPublicKey,
    payload: Vec<u8>,
    sig: &'a Signature,
}

impl<'a> SigCheck<'a> {
    /// `sig` over `payload` under `key`, if that is the key `sig` names.
    fn under(key: &'a RsaPublicKey, payload: Vec<u8>, sig: &'a Signature) -> Option<Self> {
        (sig.key_id == key.fingerprint()).then_some(SigCheck { key, payload, sig })
    }
}

/// What a verified read means.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadVerdict {
    /// The record is live and exactly as committed.
    Intact {
        /// The verified serial number.
        sn: SerialNumber,
    },
    /// The record was rightfully deleted (per-record proof, window, or
    /// below-base evidence).
    ConfirmedDeleted {
        /// Deletion time, when a per-record proof carried one.
        deleted_at: Option<Timestamp>,
    },
    /// No record with this serial number was ever written.
    ConfirmedNeverExisted,
}

/// A WORM client's verifier.
///
/// Holds, per SN lane, the public keys (`s`, `d`) and published weak-key
/// certificates of the SCPU that issues that lane's serial numbers, plus
/// the freshness tolerance and a roughly synchronized clock. A single
/// server is one lane; lane `i` of a deployment is its `i`-th SCPU, and
/// lane 0's also signs the composite binding.
///
/// Every answer is checked under the keys of the lane its serial number
/// names *before* any signature is checked, so evidence signed by lane A
/// can never satisfy a query lane B owns — Theorems 1 and 2 hold per lane
/// as in the single-SCPU case, and the composite binding extends Theorem
/// 2 across lanes by making the lane count itself a signed statement.
#[derive(Debug)]
pub struct Verifier {
    /// In lane order; never empty.
    lanes: Vec<Lane>,
    tolerance: Duration,
    clock: Arc<dyn Clock>,
    /// Memo of signature checks that already succeeded (see [`SigMemo`]);
    /// its keys name the signing key, so one memo serves every lane.
    memo: SigMemo,
    /// Memo of reads that verified in full (see [`RecordMemo`]); its
    /// serial numbers name their lane.
    record_memo: RecordMemo,
}

/// One lane's SCPU keys: what evidence for a serial number in that lane
/// must verify under.
#[derive(Debug)]
struct Lane {
    sign_key: RsaPublicKey,
    del_key: RsaPublicKey,
    weak_certs: Vec<WeakKeyCert>,
}

impl Lane {
    /// A lane over keys the caller has established, its first weak-key
    /// certificate checked.
    fn over(
        sign_key: &RsaPublicKey,
        del_key: &RsaPublicKey,
        weak_cert: WeakKeyCert,
    ) -> Result<Self, VerifyError> {
        let mut lane = Lane {
            sign_key: sign_key.clone(),
            del_key: del_key.clone(),
            weak_certs: Vec::new(),
        };
        lane.add_weak_cert(weak_cert)?;
        Ok(lane)
    }

    fn add_weak_cert(&mut self, cert: WeakKeyCert) -> Result<(), VerifyError> {
        // A server publishes its whole list, the certificate this lane
        // was built from included: one that is registered stays registered
        // once, so a weak witness has one key to be checked against.
        if self.weak_certs.contains(&cert) {
            return Ok(());
        }
        let payload = weak_cert_payload(&cert.key, cert.max_sig_expiry);
        if !cert.sig.verify(&self.sign_key, &payload) {
            return Err(VerifyError::BadSignature("weak key certificate"));
        }
        self.weak_certs.push(cert);
        Ok(())
    }
}

impl Verifier {
    /// Builds a one-lane verifier directly from the device's published
    /// keys.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadSignature`] if the weak-key certificate does not
    /// chain to the signing key.
    pub fn new(
        keys: &DeviceKeys,
        tolerance: Duration,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, VerifyError> {
        let lane = Lane::over(&keys.sign, &keys.delete, keys.weak_cert.clone())?;
        Ok(Self::over(lane, tolerance, clock))
    }

    /// A verifier over lane 0, with nothing memoised yet.
    fn over(lane: Lane, tolerance: Duration, clock: Arc<dyn Clock>) -> Self {
        Verifier {
            lanes: vec![lane],
            tolerance,
            clock,
            memo: SigMemo::default(),
            record_memo: RecordMemo::default(),
        }
    }

    /// Builds a one-lane verifier from CA-issued certificates — the full
    /// trust chain of §4.2.1 ("public key certificates — signed by a
    /// regulatory or general purpose certificate authority").
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadSignature`] if either certificate fails against
    /// the CA key or carries the wrong role.
    pub fn from_certificates(
        ca: &RsaPublicKey,
        sign_cert: &KeyCertificate,
        del_cert: &KeyCertificate,
        weak_cert: WeakKeyCert,
        tolerance: Duration,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, VerifyError> {
        if sign_cert.role != KeyRole::Sign || !sign_cert.verify(ca) {
            return Err(VerifyError::BadSignature("sign key certificate"));
        }
        if del_cert.role != KeyRole::Delete || !del_cert.verify(ca) {
            return Err(VerifyError::BadSignature("delete key certificate"));
        }
        let lane = Lane::over(&sign_cert.key, &del_cert.key, weak_cert)?;
        Ok(Self::over(lane, tolerance, clock))
    }

    /// Adds the next lane — index [`Verifier::shard_count`] — from that
    /// lane's SCPU's published keys.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadSignature`] if the weak-key certificate does not
    /// chain to the signing key; the verifier is then as it was.
    pub fn add_lane(&mut self, keys: &DeviceKeys) -> Result<(), VerifyError> {
        let lane = Lane::over(&keys.sign, &keys.delete, keys.weak_cert.clone())?;
        self.lanes.push(lane);
        Ok(())
    }

    /// Number of lanes this verifier holds keys for.
    pub fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    /// Registers a (rotated) weak-key certificate with the lane whose
    /// signing key signed it, after verifying that chain.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BadSignature`] if no lane's signing key signed the
    /// certificate.
    pub fn add_weak_cert(&mut self, cert: WeakKeyCert) -> Result<(), VerifyError> {
        self.lanes
            .iter_mut()
            .find(|lane| cert.sig.key_id == lane.sign_key.fingerprint())
            .ok_or(VerifyError::BadSignature("weak key certificate"))?
            .add_weak_cert(cert)
    }

    /// Lane `lane`'s weak-key certificates, each once, in the order they
    /// were first added (none for a lane this verifier does not hold).
    pub fn weak_certs(&self, lane: u32) -> &[WeakKeyCert] {
        self.lane(lane)
            .map_or(&[], |lane| lane.weak_certs.as_slice())
    }

    fn lane(&self, lane: u32) -> Option<&Lane> {
        self.lanes.get(usize::try_from(lane).ok()?)
    }

    /// The lane `sn` belongs to.
    fn lane_of(&self, sn: SerialNumber) -> Result<&Lane, VerifyError> {
        let lane = sn.lane();
        self.lane(lane).ok_or(VerifyError::ShardNotBound { lane })
    }

    /// Verifies a complete read outcome for `requested`, under the keys
    /// of `requested`'s lane.
    ///
    /// # Errors
    ///
    /// A [`VerifyError`] naming the first check that failed; every variant
    /// corresponds to a concrete attack the paper's Theorems 1 and 2 rule
    /// out.
    pub fn verify_read(
        &self,
        requested: SerialNumber,
        outcome: &ReadOutcome,
    ) -> Result<ReadVerdict, VerifyError> {
        let lane = self.lane_of(requested)?;
        self.check_lane_head(lane, outcome.head())?;
        match outcome {
            ReadOutcome::Data { vrd, records, .. } => {
                if vrd.sn != requested {
                    return Err(VerifyError::WrongSerialNumber);
                }
                // Note: `vrd.sn` may legitimately exceed `head.sn_current`
                // for records written since the last heartbeat; the head
                // only bounds *denials* (Theorem 2), never data responses.
                self.verify_lane_vrd(lane, vrd, records)?;
                Ok(ReadVerdict::Intact { sn: vrd.sn })
            }
            ReadOutcome::Deleted { evidence, .. } => {
                self.verify_deletion(lane, requested, evidence)
            }
            ReadOutcome::NeverExisted { head } => {
                if requested <= head.sn_current {
                    return Err(VerifyError::HiddenRecord);
                }
                Ok(ReadVerdict::ConfirmedNeverExisted)
            }
        }
    }

    /// Verifies a VRD's witnesses against (re-hashed) record data, under
    /// the keys of the VRD's lane.
    ///
    /// # Errors
    ///
    /// See [`Verifier::verify_read`].
    pub fn verify_vrd(&self, vrd: &Vrd, records: &[bytes::Bytes]) -> Result<(), VerifyError> {
        self.verify_lane_vrd(self.lane_of(vrd.sn)?, vrd, records)
    }

    fn verify_lane_vrd(
        &self,
        lane: &Lane,
        vrd: &Vrd,
        records: &[bytes::Bytes],
    ) -> Result<(), VerifyError> {
        let chain = match self.record_memo.lookup(vrd, records) {
            Remembered::Verified => {
                // Every check on these exact bytes has passed before;
                // what is left depends on the clock.
                self.check_weak_expiry(&vrd.metasig, "metasig")?;
                return self.check_weak_expiry(&vrd.datasig, "datasig");
            }
            Remembered::Chain(chain) => chain,
            Remembered::Unknown => data_chain_hash(records.iter().map(|b| b.as_ref())),
        };
        // Everything about either witness that is not arithmetic, in the
        // order a reader meets them; then both signatures in one pass. What
        // is reported is what checking metasig to the end and only then
        // looking at datasig would report.
        let meta = meta_payload(vrd.sn, &vrd.attr.encode());
        let meta = self.resolve_witness(lane, meta, &vrd.metasig, "metasig")?;
        let datap = data_payload(vrd.sn, &chain);
        let data = self.resolve_witness(lane, datap, &vrd.datasig, "datasig");
        let [meta_ok, data_ok] = match &data {
            Ok(data) => self.verify_memoized_pair([&meta, data]),
            Err(_) => [
                self.verify_memoized(meta.key, &meta.payload, meta.sig),
                false,
            ],
        };
        if !meta_ok {
            return Err(VerifyError::BadSignature("metasig"));
        }
        data.and_then(|_| {
            data_ok
                .then_some(())
                .ok_or(VerifyError::BadSignature("datasig"))
        })
        .map_err(|e| match e {
            // A structurally valid signature that does not cover the
            // recomputed hash means the data (or the hash) was altered.
            VerifyError::BadSignature("datasig") => VerifyError::DataHashMismatch,
            other => other,
        })?;
        self.record_memo.insert(vrd, records, chain);
        Ok(())
    }

    /// The one check on a witness that depends on the clock.
    fn check_weak_expiry(&self, witness: &Witness, field: &'static str) -> Result<(), VerifyError> {
        match witness {
            Witness::Weak { expires_at, .. } if *expires_at < self.clock.now() => {
                Err(VerifyError::WeakWitnessExpired { field })
            }
            _ => Ok(()),
        }
    }

    /// Resolves a witness over `payload` to the one signature check it
    /// stands for, making every check that needs no arithmetic: the key the
    /// signature names is one `lane` holds, a weak witness is within its
    /// lifetime and within what its key's certificate may assert.
    fn resolve_witness<'a>(
        &self,
        lane: &'a Lane,
        payload: Vec<u8>,
        witness: &'a Witness,
        field: &'static str,
    ) -> Result<SigCheck<'a>, VerifyError> {
        let check = match witness {
            Witness::Strong(sig) => SigCheck::under(&lane.sign_key, payload, sig),
            Witness::Weak { sig, expires_at } => {
                self.check_weak_expiry(witness, field)?;
                // Certificates with one fingerprint carry one key, so the
                // first that fits decides as any other that fits would.
                let fits = |cert: &&WeakKeyCert| {
                    *expires_at <= cert.max_sig_expiry && sig.key_id == cert.key.fingerprint()
                };
                lane.weak_certs.iter().find(fits).map(|cert| SigCheck {
                    key: &cert.key,
                    payload: weak_wrap(&payload, *expires_at),
                    sig,
                })
            }
            Witness::Mac { .. } => return Err(VerifyError::UnverifiableMac { field }),
        };
        check.ok_or(VerifyError::BadSignature(field))
    }

    /// Checks `sig` over `payload` under `key`, short-circuiting
    /// through the verifier's memo of byte-identical checks that
    /// already succeeded. Failures are computed (and re-computed)
    /// honestly every time.
    fn verify_memoized(&self, key: &RsaPublicKey, payload: &[u8], sig: &Signature) -> bool {
        if sig.key_id != key.fingerprint() {
            return false;
        }
        let k = SigMemo::key(sig.key_id, payload, &sig.bytes);
        if self.memo.contains(&k) {
            return true;
        }
        let ok = sig.verify(key, payload);
        if ok {
            self.memo.insert(k);
        }
        ok
    }

    /// `[verify_memoized(a), verify_memoized(b)]` for the two checks an
    /// answer carries, with the arithmetic the memo leaves — when that is
    /// both — done as one pair. Each half is memoized on its own success
    /// only, as there.
    fn verify_memoized_pair(&self, checks: [&SigCheck<'_>; 2]) -> [bool; 2] {
        let memo_keys = checks.map(|c| SigMemo::key(c.sig.key_id, &c.payload, &c.sig.bytes));
        let known = memo_keys.each_ref().map(|k| self.memo.contains(k));
        let [a, b] = checks;
        let ok = match known {
            [false, false] => {
                Signature::verify_pair([a.sig, b.sig], [a.key, b.key], [&a.payload, &b.payload])
            }
            _ => [
                known[0] || a.sig.verify(a.key, &a.payload),
                known[1] || b.sig.verify(b.key, &b.payload),
            ],
        };
        for (i, memo_key) in memo_keys.into_iter().enumerate() {
            if ok[i] && !known[i] {
                self.memo.insert(memo_key);
            }
        }
        ok
    }

    /// Verifies deletion evidence for `requested`, which `lane` owns.
    fn verify_deletion(
        &self,
        lane: &Lane,
        requested: SerialNumber,
        evidence: &DeletionEvidence,
    ) -> Result<ReadVerdict, VerifyError> {
        match evidence {
            DeletionEvidence::Proof(p) => {
                if p.sn != requested {
                    return Err(VerifyError::EvidenceDoesNotCoverSn);
                }
                let payload = deletion_payload(p.sn, p.deleted_at);
                if !self.verify_memoized(&lane.del_key, &payload, &p.sig) {
                    return Err(VerifyError::BadSignature("deletion proof"));
                }
                Ok(ReadVerdict::ConfirmedDeleted {
                    deleted_at: Some(p.deleted_at),
                })
            }
            DeletionEvidence::BelowBase(base) => {
                if base.expires_at <= self.clock.now() {
                    return Err(VerifyError::ExpiredCertificate("base"));
                }
                let payload = base_payload(base.sn_base, base.expires_at);
                if !self.verify_memoized(&lane.sign_key, &payload, &base.sig) {
                    return Err(VerifyError::BadSignature("base certificate"));
                }
                if requested >= base.sn_base {
                    return Err(VerifyError::EvidenceDoesNotCoverSn);
                }
                Ok(ReadVerdict::ConfirmedDeleted { deleted_at: None })
            }
            DeletionEvidence::InWindow(w) => {
                if !w.contains(requested) {
                    return Err(VerifyError::EvidenceDoesNotCoverSn);
                }
                // Both bounds must verify under the *same* window id —
                // this is what stops bound-splicing across windows
                // (§4.2.1).
                let lo_payload = window_payload(w.window_id, w.lo, WindowSide::Lower);
                let hi_payload = window_payload(w.window_id, w.hi, WindowSide::Upper);
                let bounds = SigCheck::under(&lane.sign_key, lo_payload, &w.lo_sig)
                    .zip(SigCheck::under(&lane.sign_key, hi_payload, &w.hi_sig));
                match bounds.map(|(lo, hi)| self.verify_memoized_pair([&lo, &hi])) {
                    Some([true, true]) => Ok(ReadVerdict::ConfirmedDeleted { deleted_at: None }),
                    _ => Err(VerifyError::BadSignature("window bound")),
                }
            }
        }
    }

    /// Checks a head certificate's signature and freshness (§4.2.1,
    /// mechanism (ii)) under the keys of the lane its `sn_current` names.
    ///
    /// # Errors
    ///
    /// [`VerifyError::ShardNotBound`] / [`VerifyError::BadSignature`] /
    /// [`VerifyError::StaleHead`].
    pub fn check_head(&self, head: &HeadCert) -> Result<(), VerifyError> {
        self.check_lane_head(self.lane_of(head.sn_current)?, head)
    }

    fn check_lane_head(&self, lane: &Lane, head: &HeadCert) -> Result<(), VerifyError> {
        // The remembered head is one lane's: only the same lane's key may
        // skip the signature on it.
        let remembered =
            head.sig.key_id == lane.sign_key.fingerprint() && self.memo.is_last_head(head);
        if !remembered {
            let payload = head_payload(head.sn_current, head.issued_at);
            if !self.verify_memoized(&lane.sign_key, &payload, &head.sig) {
                return Err(VerifyError::BadSignature("head certificate"));
            }
            self.memo.set_last_head(head);
        }
        let age = self.clock.now().since(head.issued_at);
        if age > self.tolerance {
            return Err(VerifyError::StaleHead {
                age_ms: age.as_millis() as u64,
            });
        }
        Ok(())
    }

    /// Verifies a composite freshness head end-to-end: lane 0's signature
    /// over `(lane count, root, t)`, the binding's freshness, that the
    /// presented per-lane heads hash to the signed root, and each
    /// constituent head under its own lane's key.
    ///
    /// # Errors
    ///
    /// A [`VerifyError`] naming the first check that failed;
    /// [`VerifyError::CompositeRootMismatch`] means the host mixed or
    /// altered lane heads after lane 0 signed.
    pub fn verify_composite(&self, composite: &CompositeHead) -> Result<(), VerifyError> {
        let coordinator = self.lane_of(SerialNumber::ZERO)?;
        let binding = &composite.binding;
        if usize::try_from(binding.shard_count).ok() != Some(self.lanes.len()) {
            return Err(VerifyError::BadSignature("composite shard count"));
        }
        let payload = composite_payload(binding.shard_count, &binding.root, binding.issued_at);
        if !self.verify_memoized(&coordinator.sign_key, &payload, &binding.sig) {
            return Err(VerifyError::BadSignature("composite binding"));
        }
        let age = self.clock.now().since(binding.issued_at);
        if age > self.tolerance {
            return Err(VerifyError::StaleHead {
                age_ms: age.as_millis() as u64,
            });
        }
        if composite.heads.len() != self.lanes.len() {
            return Err(VerifyError::CompositeRootMismatch);
        }
        if composite_root(&composite.heads) != binding.root {
            return Err(VerifyError::CompositeRootMismatch);
        }
        for (index, (head, lane)) in (0u32..).zip(composite.heads.iter().zip(&self.lanes)) {
            self.check_lane_head(lane, head)?;
            if head.sn_current.get() < SerialNumber::lane_origin(index) {
                // A lane head below its own lane origin is structurally
                // impossible for honest firmware.
                return Err(VerifyError::BadSignature("shard head lane"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use rand::{rngs::StdRng, SeedableRng};
    use scpu::VirtualClock;

    use super::*;
    use crate::{RegulatoryAuthority, RetentionPolicy, WitnessMode, WormConfig, WormServer};
    use wormstore::Shredder;

    /// The VRD the record memo holds for `sn`.
    fn remembered(v: &Verifier, sn: SerialNumber) -> Option<Vrd> {
        let seen = v.record_memo.seen.read().unwrap();
        seen.get(&sn).map(|e| e.vrd.clone())
    }

    fn data(outcome: &ReadOutcome) -> (&Vrd, &[bytes::Bytes]) {
        match outcome {
            ReadOutcome::Data { vrd, records, .. } => (vrd, records),
            other => panic!("expected data, got {other:?}"),
        }
    }

    #[test]
    fn the_record_memo_holds_only_what_verified_and_follows_a_replaced_vrd() {
        let clock = VirtualClock::starting_at_millis(1_000_000);
        let regulator = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(0x3E30), 512);
        let srv =
            WormServer::new(WormConfig::test_small(), clock.clone(), regulator.public()).unwrap();
        let v = Verifier::new(srv.keys(), Duration::from_secs(300), clock.clone()).unwrap();
        let policy = RetentionPolicy::custom(
            Duration::from_secs(10_000_000),
            wormstore::Shredder::ZeroFill,
        );
        let sn = srv
            .write_with(&[b"one", b"two"], policy, 0, WitnessMode::Deferred)
            .unwrap();

        let weak = srv.read(sn).unwrap();
        assert_eq!(remembered(&v, sn), None);
        v.verify_read(sn, &weak).unwrap();
        assert_eq!(remembered(&v, sn).as_ref(), Some(data(&weak).0));

        // Neither tampered records nor a tampered VRD displace the entry
        // (or get stored beside it).
        let mut bad_record = weak.clone();
        if let ReadOutcome::Data { records, .. } = &mut bad_record {
            records[0] = bytes::Bytes::from_static(b"0ne");
        }
        let mut bad_vrd = weak.clone();
        if let ReadOutcome::Data { vrd, .. } = &mut bad_vrd {
            vrd.attr.flags ^= 1;
        }
        for bad in [&bad_record, &bad_vrd] {
            assert!(v.verify_read(sn, bad).is_err());
            assert_eq!(remembered(&v, sn).as_ref(), Some(data(&weak).0));
        }

        // Strengthening and a litigation hold each replace the VRD over
        // the same records: the chain is reused, both witnesses verify,
        // and the entry moves on to the VRD that verified last.
        srv.idle(1_000_000_000).unwrap();
        let strengthened = srv.read(sn).unwrap();
        let now = clock.now();
        let hold = regulator.issue_hold(sn, now, 9, now.after(Duration::from_secs(500)));
        srv.lit_hold(hold).unwrap();
        let held = srv.read(sn).unwrap();
        for replaced in [&strengthened, &held] {
            let (vrd, records) = data(replaced);
            assert!(matches!(
                v.record_memo.lookup(vrd, records),
                Remembered::Chain(chain) if chain == data_chain_hash(records.iter().map(|r| r.as_ref()))
            ));
            v.verify_read(sn, replaced).unwrap();
            assert_eq!(remembered(&v, sn).as_ref(), Some(vrd));
            assert!(matches!(
                v.record_memo.lookup(vrd, records),
                Remembered::Verified
            ));
        }
    }

    /// Whether `sig` over `payload` is in the verifier's signature memo.
    fn memoized(v: &Verifier, payload: &[u8], sig: &Signature) -> bool {
        v.memo
            .contains(&SigMemo::key(sig.key_id, payload, &sig.bytes))
    }

    fn strong(witness: &mut Witness) -> &mut Signature {
        match witness {
            Witness::Strong(sig) => sig,
            other => panic!("expected a strong witness, got {other:?}"),
        }
    }

    /// A pair decides each half on its own: the half that failed is not
    /// remembered, whichever it was and whatever the other did, at a width
    /// whose keys carry lanes (1024 bits) and at one whose keys do not
    /// (768).
    #[test]
    fn a_failed_half_of_a_pair_enters_neither_memo() {
        for strong_bits in [768usize, 1024] {
            let clock = VirtualClock::starting_at_millis(1_000_000);
            let regulator = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(0x3E31), 512);
            let config = WormConfig {
                strong_bits,
                ..WormConfig::test_small()
            };
            let srv = WormServer::new(config, clock.clone(), regulator.public()).unwrap();
            let fresh = || Verifier::new(srv.keys(), Duration::from_secs(300), clock.clone());
            let short = RetentionPolicy::custom(Duration::from_secs(50), Shredder::ZeroFill);
            let long = RetentionPolicy::custom(Duration::from_secs(1_000_000), Shredder::ZeroFill);

            // metasig and datasig.
            let sn = srv.write(&[b"kept"], long).unwrap();
            let honest = srv.read(sn).unwrap();
            let (vrd, records) = data(&honest);
            let chain = data_chain_hash(records.iter().map(|r| r.as_ref()));
            let payloads = [
                meta_payload(sn, &vrd.attr.encode()),
                data_payload(sn, &chain),
            ];
            for (bad_meta, bad_data) in [(true, false), (false, true), (true, true)] {
                let v = fresh().unwrap();
                let mut tampered = honest.clone();
                let ReadOutcome::Data { vrd, .. } = &mut tampered else {
                    unreachable!()
                };
                if bad_meta {
                    strong(&mut vrd.metasig).bytes[3] ^= 0x10;
                }
                if bad_data {
                    strong(&mut vrd.datasig).bytes[60] ^= 0x01;
                }
                let sigs = [
                    strong(&mut vrd.metasig).clone(),
                    strong(&mut vrd.datasig).clone(),
                ];
                let expected = if bad_meta {
                    VerifyError::BadSignature("metasig")
                } else {
                    VerifyError::DataHashMismatch
                };
                for _ in 0..2 {
                    assert_eq!(v.verify_read(sn, &tampered), Err(expected.clone()));
                    assert_eq!(remembered(&v, sn), None);
                    // The half that verified is remembered, as it would
                    // be had it arrived alone.
                    assert_eq!(memoized(&v, &payloads[0], &sigs[0]), !bad_meta);
                    assert_eq!(memoized(&v, &payloads[1], &sigs[1]), !bad_data);
                }
                assert_eq!(v.verify_read(sn, &honest), Ok(ReadVerdict::Intact { sn }));
                assert_eq!(remembered(&v, sn).as_ref(), Some(data(&honest).0));
            }

            // The two bounds of a deleted window.
            for _ in 0..3 {
                srv.write(&[b"brief"], short).unwrap();
            }
            srv.write(&[b"kept"], long).unwrap();
            clock.advance(Duration::from_secs(60));
            srv.tick().unwrap();
            assert_eq!(srv.compact().unwrap(), 1);
            let inside = SerialNumber(sn.get() + 2);
            let honest = srv.read(inside).unwrap();
            let ReadOutcome::Deleted {
                evidence: DeletionEvidence::InWindow(w),
                ..
            } = &honest
            else {
                panic!("expected window evidence, got {honest:?}")
            };
            let payloads = [
                window_payload(w.window_id, w.lo, WindowSide::Lower),
                window_payload(w.window_id, w.hi, WindowSide::Upper),
            ];
            for (bad_lo, bad_hi) in [(true, false), (false, true), (true, true)] {
                let v = fresh().unwrap();
                let mut w = w.clone();
                if bad_lo {
                    w.lo_sig.bytes[0] ^= 0x02;
                }
                if bad_hi {
                    w.hi_sig.bytes[63] ^= 0x80;
                }
                let tampered = ReadOutcome::Deleted {
                    evidence: DeletionEvidence::InWindow(w.clone()),
                    head: honest.head().clone(),
                };
                for _ in 0..2 {
                    assert_eq!(
                        v.verify_read(inside, &tampered),
                        Err(VerifyError::BadSignature("window bound"))
                    );
                    assert_eq!(memoized(&v, &payloads[0], &w.lo_sig), !bad_lo);
                    assert_eq!(memoized(&v, &payloads[1], &w.hi_sig), !bad_hi);
                }
                assert_eq!(
                    v.verify_read(inside, &honest),
                    Ok(ReadVerdict::ConfirmedDeleted { deleted_at: None })
                );
            }
        }
    }

    #[test]
    fn the_record_memo_clears_when_full_but_not_for_a_serial_it_holds() {
        let memo = RecordMemo::default();
        let vrd_for = |sn: u64| Vrd {
            sn: SerialNumber(sn),
            attr: crate::attr::RecordAttributes {
                created_at: Timestamp::from_millis(1),
                retention_until: Timestamp::from_millis(2),
                regulation: crate::policy::Regulation::Custom,
                shredder: wormstore::Shredder::ZeroFill,
                litigation_hold: None,
                flags: 0,
            },
            rdl: Vec::new(),
            metasig: Witness::Mac { tag: Vec::new() },
            datasig: Witness::Mac { tag: Vec::new() },
        };
        let cap = CHAIN_MEMO_CAP as u64;
        for sn in 1..=cap {
            memo.insert(&vrd_for(sn), &[], Vec::new());
        }
        assert_eq!(memo.seen.read().unwrap().len(), CHAIN_MEMO_CAP);
        // Re-inserting a serial number it holds replaces in place ...
        memo.insert(&vrd_for(cap), &[], Vec::new());
        assert_eq!(memo.seen.read().unwrap().len(), CHAIN_MEMO_CAP);
        // ... and a new one past the cap starts the memo over.
        memo.insert(&vrd_for(cap + 1), &[], Vec::new());
        assert_eq!(memo.seen.read().unwrap().len(), 1);
    }
}
