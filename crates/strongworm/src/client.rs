//! Client-side verification.
//!
//! Clients "only need to trust the SCPU" (§4.1): given the SCPU's public
//! key certificates and a roughly synchronized clock (footnote 1), a
//! [`Verifier`] checks every host response. Upon reading a regulated
//! block, the client is assured that (i) the block was not tampered with
//! if the read succeeds, or — if it fails — that (ii) it was deleted
//! according to policy, or (iii) it never existed in this store.

use std::cell::RefCell;
use std::sync::{Arc, RwLock};
use std::time::Duration;

use scpu::{Clock, Timestamp};
use wormcrypt::{HashAlg, RsaPublicKey, Sha256};

use crate::authority::KeyCertificate;
use crate::codec::composite_root;
use crate::error::VerifyError;
use crate::firmware::{DeviceKeys, WeakKeyCert};
use crate::proofs::{CompositeHead, DeletionEvidence, HeadCert, ReadOutcome};
use crate::sn::SerialNumber;
use crate::vrd::{data_chain_hash, Vrd};
use crate::wire::WireWriter;
use crate::witness::{
    put_weak_wrap, weak_cert_payload, KeyRole, Signature, Statement, WindowSide, Witness,
};

/// Slots in the verified-signature memo.
const SIG_MEMO_CAP: usize = 8192;

/// A fixed table of signature checks that have already *succeeded*.
///
/// RSA verification dominates client-side read cost; real read traffic
/// re-presents the same signed statements constantly (the head
/// certificate repeats verbatim between heartbeats, and hot records are
/// re-read with identical VRDs). An entry is keyed by the verifying key's
/// fingerprint and the digest of the signed payload — the digest the
/// PKCS#1 check itself takes, so a statement is hashed once — and holds
/// the signature bytes that verified. A hit needs the presented signature
/// byte-equal to those. That is sound because PKCS#1 v1.5 verification is
/// a function of (key, digest, signature) alone: the same three bytes
/// strings verified before. Nothing time-dependent is memoized —
/// freshness and expiry checks still run on every read, only the
/// signature arithmetic is skipped. Failures are never stored (a host
/// that alternates good and bad bytes gets the bad ones rejected every
/// time).
///
/// The table is allocated once. A digest names one slot; a lookup is that
/// probe and a compare, and an insert overwrites the slot in place,
/// reusing its signature buffer. An overwritten entry is only forgotten:
/// the next presentation of it is checked in full again.
///
/// The last head certificate whose signature verified rides under the
/// same lock: nearly every response carries that very head, and
/// comparing it field for field is cheaper than hashing its payload.
#[derive(Debug)]
struct SigMemo {
    table: RwLock<SigTable>,
}

#[derive(Debug)]
struct SigTable {
    slots: Box<[Option<SigEntry>]>,
    head: Option<HeadCert>,
}

/// One signature check that succeeded.
#[derive(Debug)]
struct SigEntry {
    key_id: [u8; 8],
    digest: [u8; 32],
    sig: Vec<u8>,
}

impl SigEntry {
    /// Whether `check` is, byte for byte, the check this entry recorded.
    fn is(&self, check: &SigCheck<'_>) -> bool {
        self.key_id == check.key.fingerprint()
            && self.digest == check.digest
            && self.sig == check.sig.bytes
    }
}

impl Default for SigMemo {
    fn default() -> Self {
        SigMemo {
            table: RwLock::new(SigTable {
                slots: std::iter::repeat_with(|| None).take(SIG_MEMO_CAP).collect(),
                head: None,
            }),
        }
    }
}

impl SigMemo {
    /// The slot a check takes: the digest is uniform, so its low bits are.
    fn slot(check: &SigCheck<'_>) -> usize {
        let [a, b, ..] = check.digest;
        usize::from(u16::from_le_bytes([a, b])) % SIG_MEMO_CAP
    }

    fn contains(&self, check: &SigCheck<'_>) -> bool {
        // A poisoned lock degrades to cache-miss, never to acceptance.
        self.table.read().is_ok_and(|t| {
            t.slots
                .get(Self::slot(check))
                .is_some_and(|slot| slot.as_ref().is_some_and(|e| e.is(check)))
        })
    }

    /// Records a check that just succeeded, over whatever its slot held.
    fn insert(&self, check: &SigCheck<'_>) {
        let Ok(mut t) = self.table.write() else {
            return;
        };
        let Some(slot) = t.slots.get_mut(Self::slot(check)) else {
            return;
        };
        let e = slot.get_or_insert_with(|| SigEntry {
            key_id: [0; 8],
            digest: [0; 32],
            sig: Vec::new(),
        });
        (e.key_id, e.digest) = (check.key.fingerprint(), check.digest);
        e.sig.clone_from(&check.sig.bytes);
    }

    /// Whether `head` is, field for field, the last head whose
    /// signature verified.
    fn is_last_head(&self, head: &HeadCert) -> bool {
        self.table
            .read()
            .is_ok_and(|t| t.head.as_ref() == Some(head))
    }

    fn set_last_head(&self, head: &HeadCert) {
        if let Ok(mut t) = self.table.write() {
            let last = t.head.get_or_insert_with(|| head.clone());
            (last.sn_current, last.issued_at) = (head.sn_current, head.issued_at);
            refill_sig(&mut last.sig, &head.sig);
        }
    }
}

/// Slots in the record memo. An entry holds its own copy of the verified
/// record bytes; at 4 KiB records the table holds a few MiB.
const CHAIN_MEMO_CAP: usize = 1024;

/// A fixed table of reads that passed full verification: per serial
/// number's slot, the VRD, the record bytes and their data-chain hash.
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
/// every time and never displaces the good entry. The table is allocated
/// once; a serial number names one slot, and a read that verified
/// overwrites that slot in place, reusing its buffers. Entries are owned
/// copies: a hit never pins a receive buffer.
#[derive(Debug)]
struct RecordMemo {
    slots: RwLock<Box<[Option<RecordEntry>]>>,
}

#[derive(Debug)]
struct RecordEntry {
    vrd: Vrd,
    records: Vec<Vec<u8>>,
    chain: [u8; 32],
}

/// What the record memo knows about a presented (VRD, records) pair.
enum Remembered {
    /// VRD and records are byte-identical to a read that verified.
    Verified,
    /// The records are; here is their chain hash.
    Chain([u8; 32]),
    /// Nothing usable.
    Unknown,
}

impl Default for RecordMemo {
    fn default() -> Self {
        RecordMemo {
            slots: RwLock::new(
                std::iter::repeat_with(|| None)
                    .take(CHAIN_MEMO_CAP)
                    .collect(),
            ),
        }
    }
}

impl RecordMemo {
    /// The slot `sn` takes. Fibonacci hashing spreads every lane's dense
    /// serial numbers over the table; the low bits alone would put each
    /// lane's `n`-th record in one slot, as lanes start at multiples of
    /// `2^56`.
    fn slot(sn: SerialNumber) -> usize {
        let spread = sn.get().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The product's high half is the well-mixed one.
        (spread >> 32) as usize % CHAIN_MEMO_CAP
    }

    fn lookup(&self, vrd: &Vrd, records: &[bytes::Bytes]) -> Remembered {
        // A poisoned lock degrades to cache-miss, never to acceptance.
        let Ok(slots) = self.slots.read() else {
            return Remembered::Unknown;
        };
        match slots.get(Self::slot(vrd.sn)) {
            Some(Some(e)) if e.vrd.sn == vrd.sn && records.iter().eq(e.records.iter()) => {
                if e.vrd == *vrd {
                    Remembered::Verified
                } else {
                    Remembered::Chain(e.chain)
                }
            }
            _ => Remembered::Unknown,
        }
    }

    /// Stores a read that just passed full verification, over whatever
    /// its slot held.
    fn insert(&self, vrd: &Vrd, records: &[bytes::Bytes], chain: [u8; 32]) {
        let Ok(mut slots) = self.slots.write() else {
            return;
        };
        let Some(slot) = slots.get_mut(Self::slot(vrd.sn)) else {
            return;
        };
        let e = slot.get_or_insert_with(|| RecordEntry {
            vrd: vrd.clone(),
            records: Vec::new(),
            chain,
        });
        refill_vrd(&mut e.vrd, vrd);
        e.records.resize_with(records.len(), Vec::new);
        for (held, record) in e.records.iter_mut().zip(records) {
            held.clear();
            held.extend_from_slice(record);
        }
        e.chain = chain;
    }
}

/// Makes `held` equal to `vrd`, reusing the buffers it already has.
fn refill_vrd(held: &mut Vrd, vrd: &Vrd) {
    held.sn = vrd.sn;
    held.attr.clone_from(&vrd.attr);
    held.rdl.clone_from(&vrd.rdl);
    refill_witness(&mut held.metasig, &vrd.metasig);
    refill_witness(&mut held.datasig, &vrd.datasig);
}

/// Makes `held` equal to `witness`, reusing its signature buffer where
/// both are of one tier.
fn refill_witness(held: &mut Witness, witness: &Witness) {
    match (held, witness) {
        (Witness::Strong(held), Witness::Strong(sig)) => refill_sig(held, sig),
        (
            Witness::Weak {
                sig: held,
                expires_at,
            },
            Witness::Weak { sig, expires_at: t },
        ) => {
            refill_sig(held, sig);
            *expires_at = *t;
        }
        (held, witness) => *held = witness.clone(),
    }
}

/// Makes `held` equal to `sig`, reusing its buffer.
fn refill_sig(held: &mut Signature, sig: &Signature) {
    held.key_id = sig.key_id;
    held.bytes.clone_from(&sig.bytes);
}

thread_local! {
    /// Where each signed statement's payload is written to be hashed:
    /// one buffer per thread, reused by every check the thread makes.
    static PAYLOAD: RefCell<WireWriter> = const { RefCell::new(WireWriter::new()) };
}

/// SHA-256 of what signed `statement`: its payload, wrapped with the
/// expiry of a weak witness when `weak` names one. The one hash of a
/// statement, which both its PKCS#1 check and [`SigMemo`] take.
fn statement_digest(statement: Statement<'_>, weak: Option<Timestamp>) -> [u8; 32] {
    PAYLOAD.with_borrow_mut(|w| {
        w.truncate(0);
        match weak {
            None => statement.put(w),
            Some(expires_at) => put_weak_wrap(w, expires_at, |w| statement.put(w)),
        }
        Sha256::digest_array(w.as_bytes())
    })
}

/// One signature check an answer needs, resolved to the key its `key_id`
/// names and hashed: everything about the check that is not arithmetic
/// is done.
struct SigCheck<'a> {
    key: &'a RsaPublicKey,
    digest: [u8; 32],
    sig: &'a Signature,
}

impl<'a> SigCheck<'a> {
    /// `sig` over `statement` under the permanent key `key`, if that is
    /// the key `sig` names.
    fn under(key: &'a RsaPublicKey, statement: Statement<'_>, sig: &'a Signature) -> Option<Self> {
        (sig.key_id == key.fingerprint()).then(|| SigCheck {
            key,
            digest: statement_digest(statement, None),
            sig,
        })
    }

    /// The arithmetic.
    fn verify(&self) -> bool {
        self.key
            .verify_digest(&self.digest, &self.sig.bytes, HashAlg::Sha256)
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
    /// A lane over keys the caller has established, no weak-key
    /// certificate registered yet.
    fn over(sign_key: &RsaPublicKey, del_key: &RsaPublicKey) -> Self {
        Lane {
            sign_key: sign_key.clone(),
            del_key: del_key.clone(),
            weak_certs: Vec::new(),
        }
    }

    fn add_weak_cert(&mut self, cert: WeakKeyCert) -> Result<(), VerifyError> {
        // A refreshing client registers the device's whole list each
        // time: one that is registered stays registered once, so a weak
        // witness has one key to be checked against.
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
    /// Builds a one-lane verifier directly from the device's permanent
    /// keys. A weak witness verifies once its certificate is registered
    /// with [`Verifier::add_weak_cert`].
    ///
    /// # Errors
    ///
    /// None: the permanent keys carry nothing to check.
    pub fn new(
        keys: &DeviceKeys,
        tolerance: Duration,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, VerifyError> {
        let lane = Lane::over(&keys.sign, &keys.delete);
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
        tolerance: Duration,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, VerifyError> {
        if sign_cert.role != KeyRole::Sign || !sign_cert.verify(ca) {
            return Err(VerifyError::BadSignature("sign key certificate"));
        }
        if del_cert.role != KeyRole::Delete || !del_cert.verify(ca) {
            return Err(VerifyError::BadSignature("delete key certificate"));
        }
        let lane = Lane::over(&sign_cert.key, &del_cert.key);
        Ok(Self::over(lane, tolerance, clock))
    }

    /// Adds the next lane — index [`Verifier::shard_count`] — from that
    /// lane's SCPU's permanent keys.
    pub fn add_lane(&mut self, keys: &DeviceKeys) {
        self.lanes.push(Lane::over(&keys.sign, &keys.delete));
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
        let meta = Statement::Meta(vrd.sn, &vrd.attr);
        let meta = self.resolve_witness(lane, meta, &vrd.metasig, "metasig")?;
        let datap = Statement::Data(vrd.sn, &chain);
        let data = self.resolve_witness(lane, datap, &vrd.datasig, "datasig");
        let [meta_ok, data_ok] = match &data {
            Ok(data) => self.verify_memoized_pair([&meta, data]),
            Err(_) => [self.verify_memoized(&meta), false],
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

    /// Resolves a witness over `statement` to the one signature check it
    /// stands for, making every check that needs no arithmetic: the key the
    /// signature names is one `lane` holds, a weak witness is within its
    /// lifetime and within what its key's certificate may assert.
    fn resolve_witness<'a>(
        &self,
        lane: &'a Lane,
        statement: Statement<'_>,
        witness: &'a Witness,
        field: &'static str,
    ) -> Result<SigCheck<'a>, VerifyError> {
        let check = match witness {
            Witness::Strong(sig) => SigCheck::under(&lane.sign_key, statement, sig),
            Witness::Weak { sig, expires_at } => {
                self.check_weak_expiry(witness, field)?;
                // Certificates with one fingerprint carry one key, so the
                // first that fits decides as any other that fits would.
                let fits = |cert: &&WeakKeyCert| {
                    *expires_at <= cert.max_sig_expiry && sig.key_id == cert.key.fingerprint()
                };
                lane.weak_certs.iter().find(fits).map(|cert| SigCheck {
                    key: &cert.key,
                    digest: statement_digest(statement, Some(*expires_at)),
                    sig,
                })
            }
            Witness::Mac { .. } => return Err(VerifyError::UnverifiableMac { field }),
        };
        check.ok_or(VerifyError::BadSignature(field))
    }

    /// `sig` over `statement` under `key`, through the memo: false if `sig`
    /// names another key.
    fn verify_statement(
        &self,
        key: &RsaPublicKey,
        statement: Statement<'_>,
        sig: &Signature,
    ) -> bool {
        SigCheck::under(key, statement, sig).is_some_and(|check| self.verify_memoized(&check))
    }

    /// Makes `check`, short-circuiting through the verifier's memo of
    /// byte-identical checks that already succeeded. Failures are
    /// computed (and re-computed) honestly every time.
    fn verify_memoized(&self, check: &SigCheck<'_>) -> bool {
        if self.memo.contains(check) {
            return true;
        }
        let ok = check.verify();
        if ok {
            self.memo.insert(check);
        }
        ok
    }

    /// `[verify_memoized(a), verify_memoized(b)]` for the two checks an
    /// answer carries, with the arithmetic the memo leaves — when that is
    /// both — done as one pair. Each half is memoized on its own success
    /// only, as there.
    fn verify_memoized_pair(&self, checks: [&SigCheck<'_>; 2]) -> [bool; 2] {
        let known = checks.map(|c| self.memo.contains(c));
        let [a, b] = checks;
        let ok = match known {
            [false, false] => RsaPublicKey::verify_pair_digests(
                [a.key, b.key],
                [&a.digest, &b.digest],
                [&a.sig.bytes, &b.sig.bytes],
                HashAlg::Sha256,
            ),
            _ => [known[0] || a.verify(), known[1] || b.verify()],
        };
        for (i, check) in checks.into_iter().enumerate() {
            if ok[i] && !known[i] {
                self.memo.insert(check);
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
                let statement = Statement::Deletion(p.sn, p.deleted_at);
                if !self.verify_statement(&lane.del_key, statement, &p.sig) {
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
                let statement = Statement::Base(base.sn_base, base.expires_at);
                if !self.verify_statement(&lane.sign_key, statement, &base.sig) {
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
                let lo = Statement::Window(w.window_id, w.lo, WindowSide::Lower);
                let hi = Statement::Window(w.window_id, w.hi, WindowSide::Upper);
                let bounds = SigCheck::under(&lane.sign_key, lo, &w.lo_sig).zip(SigCheck::under(
                    &lane.sign_key,
                    hi,
                    &w.hi_sig,
                ));
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
            let statement = Statement::Head(head.sn_current, head.issued_at);
            if !self.verify_statement(&lane.sign_key, statement, &head.sig) {
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
        let statement = Statement::Composite(binding.shard_count, &binding.root, binding.issued_at);
        if !self.verify_statement(&coordinator.sign_key, statement, &binding.sig) {
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
    use crate::witness::{data_payload, meta_payload, window_payload};
    use crate::{RegulatoryAuthority, RetentionPolicy, WitnessMode, WormConfig, WormServer};
    use wormstore::Shredder;

    /// The VRD the record memo holds for `sn`.
    fn remembered(v: &Verifier, sn: SerialNumber) -> Option<Vrd> {
        let slots = v.record_memo.slots.read().unwrap();
        let entry = slots[RecordMemo::slot(sn)].as_ref();
        entry.filter(|e| e.vrd.sn == sn).map(|e| e.vrd.clone())
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
        let mut v = Verifier::new(srv.keys(), Duration::from_secs(300), clock.clone()).unwrap();
        v.add_weak_cert(srv.weak_certs().unwrap().remove(0))
            .unwrap();
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

    /// Whether `sig` over `payload` under `key` is in the verifier's
    /// signature memo.
    fn memoized(v: &Verifier, key: &RsaPublicKey, payload: &[u8], sig: &Signature) -> bool {
        v.memo.contains(&check(key, payload, sig))
    }

    /// `sig` over `payload` under `key`, hashed as the verifier hashes.
    fn check<'a>(key: &'a RsaPublicKey, payload: &[u8], sig: &'a Signature) -> SigCheck<'a> {
        SigCheck {
            key,
            digest: Sha256::digest_array(payload),
            sig,
        }
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
                    let key = &srv.keys().sign;
                    assert_eq!(memoized(&v, key, &payloads[0], &sigs[0]), !bad_meta);
                    assert_eq!(memoized(&v, key, &payloads[1], &sigs[1]), !bad_data);
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
                    let key = &srv.keys().sign;
                    assert_eq!(memoized(&v, key, &payloads[0], &w.lo_sig), !bad_lo);
                    assert_eq!(memoized(&v, key, &payloads[1], &w.hi_sig), !bad_hi);
                }
                assert_eq!(
                    v.verify_read(inside, &honest),
                    Ok(ReadVerdict::ConfirmedDeleted { deleted_at: None })
                );
            }
        }
    }

    /// A one-lane server at test size whose device draws from `seed`,
    /// with a verifier over its keys and weak certificate.
    fn lane_with(seed: u64, clock: &Arc<VirtualClock>) -> (WormServer, Verifier) {
        let regulator = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(0x3E32), 512);
        let mut config = WormConfig::test_small();
        config.device.rng_seed = seed;
        let srv = WormServer::new(config, clock.clone(), regulator.public()).unwrap();
        let mut v = Verifier::new(srv.keys(), Duration::from_secs(300), clock.clone()).unwrap();
        v.add_weak_cert(srv.weak_certs().unwrap().remove(0))
            .unwrap();
        (srv, v)
    }

    /// A statement the memo holds, presented again with any one byte of
    /// its signature flipped, is checked in full and rejected — metasig,
    /// datasig and the head alike — and the honest bytes still pass from
    /// the memo.
    #[test]
    fn a_memoized_statement_with_a_flipped_signature_byte_is_rechecked_and_rejected() {
        let clock = VirtualClock::starting_at_millis(1_000_000);
        let (srv, v) = lane_with(0x5eed, &clock);
        let long = RetentionPolicy::custom(Duration::from_secs(1_000_000), Shredder::ZeroFill);
        let sn = srv.write(&[b"kept"], long).unwrap();
        let honest = srv.read(sn).unwrap();
        assert_eq!(v.verify_read(sn, &honest), Ok(ReadVerdict::Intact { sn }));
        let (vrd, records) = data(&honest);
        let chain = data_chain_hash(records.iter().map(|r| r.as_ref()));
        let key = &srv.keys().sign;
        let mut metasig = vrd.metasig.clone();
        let metasig = strong(&mut metasig).clone();
        let meta = meta_payload(sn, &vrd.attr.encode());
        assert!(memoized(&v, key, &meta, &metasig));
        for at in 0..metasig.bytes.len() {
            let mut flipped = metasig.clone();
            flipped.bytes[at] ^= 0x01;
            // The memo alone, then a whole read whose VRD carries it: the
            // record memo does not hold that VRD, so the check runs.
            assert!(!memoized(&v, key, &meta, &flipped), "byte {at}");
            let mut tampered = honest.clone();
            let ReadOutcome::Data { vrd, .. } = &mut tampered else {
                unreachable!()
            };
            vrd.metasig = Witness::Strong(flipped);
            assert_eq!(
                v.verify_read(sn, &tampered),
                Err(VerifyError::BadSignature("metasig")),
                "byte {at}"
            );
        }
        let mut datasig = vrd.datasig.clone();
        let mut flipped = strong(&mut datasig).clone();
        flipped.bytes[7] ^= 0x80;
        assert!(memoized(
            &v,
            key,
            &data_payload(sn, &chain),
            strong(&mut datasig)
        ));
        let mut tampered = honest.clone();
        if let ReadOutcome::Data { vrd, .. } = &mut tampered {
            vrd.datasig = Witness::Strong(flipped);
        }
        assert_eq!(
            v.verify_read(sn, &tampered),
            Err(VerifyError::DataHashMismatch)
        );
        let mut head = honest.head().clone();
        head.sig.bytes[0] ^= 0x01;
        assert_eq!(
            v.check_head(&head),
            Err(VerifyError::BadSignature("head certificate"))
        );
        assert_eq!(v.verify_read(sn, &honest), Ok(ReadVerdict::Intact { sn }));
    }

    /// An entry names the key that verified it: the same digest and
    /// signature bytes never hit under another key — a lane's strong key
    /// against its weak or deletion key, or one lane's key against
    /// another's.
    #[test]
    fn a_memo_entry_under_one_key_never_answers_for_another() {
        let clock = VirtualClock::starting_at_millis(1_000_000);
        let (srv0, v) = lane_with(0x5eed, &clock);
        let (srv1, _) = lane_with(0x5eee, &clock);
        let weak = srv0.weak_certs().unwrap().remove(0).key;
        let keys = [
            &srv0.keys().sign,
            &weak,
            &srv0.keys().delete,
            &srv1.keys().sign,
        ];
        assert_ne!(keys[0].fingerprint(), keys[3].fingerprint());
        let payload = Statement::Head(SerialNumber(5), Timestamp::from_millis(9)).payload();
        for (i, under) in keys.iter().enumerate() {
            let sig = Signature {
                key_id: under.fingerprint(),
                bytes: vec![0x42; under.modulus_bytes()],
            };
            v.memo.insert(&check(under, &payload, &sig));
            for (j, other) in keys.iter().enumerate() {
                let presented = Signature {
                    key_id: other.fingerprint(),
                    ..sig.clone()
                };
                assert_eq!(memoized(&v, other, &payload, &presented), i == j, "{i} {j}");
            }
        }
    }

    /// A slot another check overwrote answers for neither the old entry
    /// nor any mix of the two, so a rejected answer stays rejected and the
    /// honest one is checked in full again.
    #[test]
    fn an_overwritten_slot_never_turns_a_rejected_answer_into_an_accepted_one() {
        let clock = VirtualClock::starting_at_millis(1_000_000);
        let (srv, v) = lane_with(0x5eed, &clock);
        let long = RetentionPolicy::custom(Duration::from_secs(1_000_000), Shredder::ZeroFill);
        let sn = srv.write(&[b"kept"], long).unwrap();
        let honest = srv.read(sn).unwrap();
        let (vrd, _) = data(&honest);
        let key = &srv.keys().sign;
        let mut metasig = vrd.metasig.clone();
        let metasig = strong(&mut metasig).clone();
        let meta = meta_payload(sn, &vrd.attr.encode());
        let mut tampered = honest.clone();
        if let ReadOutcome::Data { vrd, .. } = &mut tampered {
            strong(&mut vrd.metasig).bytes[5] ^= 0x04;
        }
        let weak = srv.weak_certs().unwrap().remove(0).key;
        let honest_check = check(key, &meta, &metasig);
        let slot = SigMemo::slot(&honest_check);
        // Another payload whose digest takes the same slot, signed (as far
        // as the memo knows) under the weak key with other bytes.
        let rival = (0u64..)
            .map(|i| Statement::Head(SerialNumber(i), Timestamp::from_millis(1)).payload())
            .find(|p| SigMemo::slot(&check(key, p, &metasig)) == slot)
            .unwrap();
        let rival_sig = Signature {
            key_id: weak.fingerprint(),
            bytes: vec![0x24; weak.modulus_bytes()],
        };
        for round in 0..3 {
            assert_eq!(v.verify_read(sn, &honest), Ok(ReadVerdict::Intact { sn }));
            assert!(memoized(&v, key, &meta, &metasig), "round {round}");
            v.memo.insert(&check(&weak, &rival, &rival_sig));
            assert!(memoized(&v, &weak, &rival, &rival_sig));
            // Neither the entry it displaced nor a mix of the two hits.
            assert!(!memoized(&v, key, &meta, &metasig));
            assert!(!memoized(&v, key, &meta, &rival_sig));
            assert!(!memoized(&v, &weak, &meta, &rival_sig));
            assert!(!memoized(&v, &weak, &rival, &metasig));
            // The record memo's slot goes to a rival serial number too.
            let rival_sn = (sn.get() + 1..)
                .find(|&other| RecordMemo::slot(SerialNumber(other)) == RecordMemo::slot(sn))
                .unwrap();
            v.record_memo.insert(&vrd_for(rival_sn), &[], [0; 32]);
            assert_eq!(remembered(&v, sn), None);
            assert_eq!(
                v.verify_read(sn, &tampered),
                Err(VerifyError::BadSignature("metasig"))
            );
            assert!(!memoized(&v, key, &meta, &metasig));
        }
    }

    fn vrd_for(sn: u64) -> Vrd {
        Vrd {
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
        }
    }

    /// The serial numbers the record memo holds, in slot order.
    fn held(memo: &RecordMemo) -> Vec<u64> {
        let slots = memo.slots.read().unwrap();
        slots.iter().flatten().map(|e| e.vrd.sn.get()).collect()
    }

    /// A store overwrites the one slot its serial number names and no
    /// other: the table never empties, never holds more than its slots,
    /// and a serial number it holds is replaced in place.
    #[test]
    fn the_record_memo_overwrites_only_the_slot_of_the_serial_it_stores() {
        let memo = RecordMemo::default();
        let cap = CHAIN_MEMO_CAP as u64;
        // Dense serial numbers, and lane 1's from its origin, spread over
        // the table rather than landing in a few slots.
        for lane in [0, 1] {
            let origin = SerialNumber::lane_origin(lane);
            let slots: std::collections::HashSet<usize> = (1..=cap)
                .map(|sn| RecordMemo::slot(SerialNumber(origin + sn)))
                .collect();
            assert!(
                slots.len() > CHAIN_MEMO_CAP / 2,
                "lane {lane}: {}",
                slots.len()
            );
        }
        for sn in 1..=4 * cap {
            let before = held(&memo);
            memo.insert(&vrd_for(sn), &[], [0; 32]);
            let after = held(&memo);
            assert!(after.len() <= CHAIN_MEMO_CAP && after.len() >= before.len());
            assert!(after.contains(&sn));
            // Every other slot kept what it held.
            let slot = RecordMemo::slot(SerialNumber(sn));
            let slots = memo.slots.read().unwrap();
            for (i, e) in slots.iter().enumerate().filter(|(i, _)| *i != slot) {
                let was = e.as_ref().map(|e| e.vrd.sn.get());
                assert!(was.is_none() || before.contains(&was.unwrap()), "slot {i}");
            }
        }
        let full = held(&memo);
        // Re-storing a serial number it holds replaces it in place.
        let sn = full[0];
        let mut replaced = vrd_for(sn);
        replaced.attr.flags = 7;
        memo.insert(&replaced, &[bytes::Bytes::from_static(b"r")], [1; 32]);
        assert_eq!(held(&memo), full);
        assert!(matches!(
            memo.lookup(&replaced, &[bytes::Bytes::from_static(b"r")]),
            Remembered::Verified
        ));
        assert!(matches!(
            memo.lookup(&vrd_for(sn), &[bytes::Bytes::from_static(b"r")]),
            Remembered::Chain(chain) if chain == [1; 32]
        ));
        // Another serial number of the same slot displaces it, and the
        // displaced one is unknown: only forgotten, never mistaken.
        let slot = RecordMemo::slot(SerialNumber(sn));
        let rival = (4 * cap + 1..)
            .find(|&other| RecordMemo::slot(SerialNumber(other)) == slot)
            .unwrap();
        memo.insert(&vrd_for(rival), &[bytes::Bytes::from_static(b"r")], [2; 32]);
        assert_eq!(held(&memo).len(), full.len());
        assert!(held(&memo).contains(&rival) && !held(&memo).contains(&sn));
        assert!(matches!(
            memo.lookup(&replaced, &[bytes::Bytes::from_static(b"r")]),
            Remembered::Unknown
        ));
    }
}
