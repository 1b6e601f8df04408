//! Wire codecs for persisted structures.
//!
//! The host stores the VRDT on disk (§4.2.1); these codecs give every
//! persisted structure — witnesses, VRDs, proofs — a canonical byte form
//! for the journal. Decoding is defensive: all of this lives on untrusted
//! storage, so malformed input yields an error, never a panic.
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::as_conversions))]

use bytes::Bytes;
use scpu::Timestamp;
use wormcrypt::{Digest, RsaPublicKey, Sha256};
use wormstore::{RecordDescriptor, RecordId};

use crate::attr::RecordAttributes;
use crate::authority::{HoldCredential, ReleaseCredential};
use crate::firmware::{DeviceKeys, WeakKeyCert};
use crate::proofs::{
    BaseCert, CompositeBinding, CompositeHead, DeletionEvidence, DeletionProof, HeadCert,
    ReadOutcome, Resolved, WindowProof,
};
use crate::sn::SerialNumber;
use crate::vrd::Vrd;
use crate::wire::{WireError, WireReader, WireWriter};
use crate::witness::{Signature, Witness};

/// Decoding cap on list lengths (RDL entries, records per outcome): a
/// corrupt or hostile count must not drive unbounded allocation.
const MAX_LIST_LEN: usize = 1 << 20;

pub(crate) fn put_signature(w: &mut WireWriter, s: &Signature) {
    w.put_bytes(&s.key_id);
    w.put_bytes(&s.bytes);
}

pub(crate) fn get_signature(r: &mut WireReader<'_>) -> Result<Signature, WireError> {
    let key_id_bytes = r.get_bytes()?;
    let key_id: [u8; 8] = key_id_bytes.try_into().map_err(|_| WireError {
        expected: "8-byte key id",
    })?;
    let bytes = r.get_bytes()?.to_vec();
    Ok(Signature { key_id, bytes })
}

pub(crate) fn put_witness(w: &mut WireWriter, wit: &Witness) {
    match wit {
        Witness::Strong(sig) => {
            w.put_u8(0);
            put_signature(w, sig);
        }
        Witness::Weak { sig, expires_at } => {
            w.put_u8(1);
            put_signature(w, sig);
            w.put_u64(expires_at.as_millis());
        }
        Witness::Mac { tag } => {
            w.put_u8(2);
            w.put_bytes(tag);
        }
    }
}

pub(crate) fn get_witness(r: &mut WireReader<'_>) -> Result<Witness, WireError> {
    match r.get_u8()? {
        0 => Ok(Witness::Strong(get_signature(r)?)),
        1 => {
            let sig = get_signature(r)?;
            let expires_at = Timestamp::from_millis(r.get_u64()?);
            Ok(Witness::Weak { sig, expires_at })
        }
        2 => Ok(Witness::Mac {
            tag: r.get_bytes()?.to_vec(),
        }),
        _ => Err(WireError {
            expected: "witness tier",
        }),
    }
}

pub(crate) fn put_vrd(w: &mut WireWriter, v: &Vrd) {
    w.put_str("strongworm.vrd.v1");
    w.put_u64(v.sn.get());
    w.put_nested(|w| v.attr.encode_into(w));
    w.put_count(v.rdl.len());
    for rd in &v.rdl {
        w.put_u64(rd.id.0);
        w.put_u64(rd.offset);
        w.put_u64(rd.len);
    }
    put_witness(w, &v.metasig);
    put_witness(w, &v.datasig);
}

/// Encodes a VRD for the journal.
pub fn encode_vrd(v: &Vrd) -> Vec<u8> {
    WireWriter::encoded(|w| put_vrd(w, v))
}

/// Decodes a journalled VRD.
///
/// # Errors
///
/// [`WireError`] on any truncation or malformed field.
pub fn decode_vrd(bytes: &[u8]) -> Result<Vrd, WireError> {
    let mut r = WireReader::tagged(bytes, "strongworm.vrd.v1", "vrd tag")?;
    let sn = SerialNumber(r.get_u64()?);
    let attr = RecordAttributes::decode(r.get_bytes()?)?;
    let n = r.get_count_within(MAX_LIST_LEN, "sane rdl length")?;
    let mut rdl = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        rdl.push(RecordDescriptor {
            id: RecordId(r.get_u64()?),
            offset: r.get_u64()?,
            len: r.get_u64()?,
        });
    }
    let metasig = get_witness(&mut r)?;
    let datasig = get_witness(&mut r)?;
    r.expect_end()?;
    Ok(Vrd {
        sn,
        attr,
        rdl,
        metasig,
        datasig,
    })
}

fn put_deletion_proof(w: &mut WireWriter, p: &DeletionProof) {
    w.put_str("strongworm.delproof.v1");
    w.put_u64(p.sn.get());
    w.put_u64(p.deleted_at.as_millis());
    put_signature(w, &p.sig);
}

/// Encodes a deletion proof.
pub fn encode_deletion_proof(p: &DeletionProof) -> Vec<u8> {
    WireWriter::encoded(|w| put_deletion_proof(w, p))
}

/// Decodes a deletion proof.
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_deletion_proof(bytes: &[u8]) -> Result<DeletionProof, WireError> {
    let mut r = WireReader::tagged(bytes, "strongworm.delproof.v1", "deletion proof tag")?;
    let sn = SerialNumber(r.get_u64()?);
    let deleted_at = Timestamp::from_millis(r.get_u64()?);
    let sig = get_signature(&mut r)?;
    r.expect_end()?;
    Ok(DeletionProof {
        sn,
        deleted_at,
        sig,
    })
}

fn put_window_proof(w: &mut WireWriter, p: &WindowProof) {
    w.put_str("strongworm.winproof.v1");
    w.put_u64(p.window_id);
    w.put_u64(p.lo.get());
    w.put_u64(p.hi.get());
    put_signature(w, &p.lo_sig);
    put_signature(w, &p.hi_sig);
}

/// Encodes a window proof.
pub fn encode_window_proof(p: &WindowProof) -> Vec<u8> {
    WireWriter::encoded(|w| put_window_proof(w, p))
}

/// Decodes a window proof.
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_window_proof(bytes: &[u8]) -> Result<WindowProof, WireError> {
    let mut r = WireReader::tagged(bytes, "strongworm.winproof.v1", "window proof tag")?;
    let window_id = r.get_u64()?;
    let lo = SerialNumber(r.get_u64()?);
    let hi = SerialNumber(r.get_u64()?);
    let lo_sig = get_signature(&mut r)?;
    let hi_sig = get_signature(&mut r)?;
    r.expect_end()?;
    Ok(WindowProof {
        window_id,
        lo,
        hi,
        lo_sig,
        hi_sig,
    })
}

/// A head certificate's fields, as they stand in its own encoding
/// (after the tag) and in a composite head's list.
fn put_head_fields(w: &mut WireWriter, h: &HeadCert) {
    w.put_u64(h.sn_current.get());
    w.put_u64(h.issued_at.as_millis());
    put_signature(w, &h.sig);
}

fn get_head_fields(r: &mut WireReader<'_>) -> Result<HeadCert, WireError> {
    Ok(HeadCert {
        sn_current: SerialNumber(r.get_u64()?),
        issued_at: Timestamp::from_millis(r.get_u64()?),
        sig: get_signature(r)?,
    })
}

fn put_head_cert(w: &mut WireWriter, h: &HeadCert) {
    w.put_str("strongworm.headcert.v1");
    put_head_fields(w, h);
}

/// Encodes a head certificate.
pub fn encode_head_cert(h: &HeadCert) -> Vec<u8> {
    WireWriter::encoded(|w| put_head_cert(w, h))
}

/// Decodes a head certificate.
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_head_cert(bytes: &[u8]) -> Result<HeadCert, WireError> {
    let mut r = WireReader::tagged(bytes, "strongworm.headcert.v1", "head cert tag")?;
    let head = get_head_fields(&mut r)?;
    r.expect_end()?;
    Ok(head)
}

/// Computes the composite-head root: SHA-256 over the canonical
/// encodings of every shard's head certificate, in lane order, prefixed
/// with the count. This is the exact byte string whose digest the
/// coordinator SCPU signs into a
/// [`CompositeBinding`](crate::proofs::CompositeBinding), so host and
/// client must agree on it byte-for-byte.
pub fn composite_root(heads: &[HeadCert]) -> Vec<u8> {
    let mut w = WireWriter::tagged("strongworm.compositeroot.v1");
    w.put_count(heads.len());
    for h in heads {
        w.put_nested(|w| put_head_cert(w, h));
    }
    Sha256::digest(&w.finish())
}

/// Encodes a composite freshness head (per-shard heads + binding).
pub fn encode_composite_head(c: &CompositeHead) -> Vec<u8> {
    let mut w = WireWriter::tagged("strongworm.compositehead.v1");
    w.put_count(c.heads.len());
    for h in &c.heads {
        put_head_fields(&mut w, h);
    }
    w.put_u32(c.binding.shard_count);
    w.put_bytes(&c.binding.root);
    w.put_u64(c.binding.issued_at.as_millis());
    put_signature(&mut w, &c.binding.sig);
    w.finish()
}

/// Decodes a composite freshness head.
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_composite_head(bytes: &[u8]) -> Result<CompositeHead, WireError> {
    let mut r = WireReader::tagged(bytes, "strongworm.compositehead.v1", "composite head tag")?;
    let n = r.get_count_within(MAX_LIST_LEN, "shard head count within bounds")?;
    let mut heads = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        heads.push(get_head_fields(&mut r)?);
    }
    let shard_count = r.get_u32()?;
    let root = r.get_bytes()?.to_vec();
    let issued_at = Timestamp::from_millis(r.get_u64()?);
    let sig = get_signature(&mut r)?;
    r.expect_end()?;
    Ok(CompositeHead {
        heads,
        binding: CompositeBinding {
            shard_count,
            root,
            issued_at,
            sig,
        },
    })
}

fn put_base_cert(w: &mut WireWriter, b: &BaseCert) {
    w.put_str("strongworm.basecert.v1");
    w.put_u64(b.sn_base.get());
    w.put_u64(b.expires_at.as_millis());
    put_signature(w, &b.sig);
}

/// Encodes a base certificate.
pub fn encode_base_cert(b: &BaseCert) -> Vec<u8> {
    WireWriter::encoded(|w| put_base_cert(w, b))
}

/// Decodes a base certificate.
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_base_cert(bytes: &[u8]) -> Result<BaseCert, WireError> {
    let mut r = WireReader::tagged(bytes, "strongworm.basecert.v1", "base cert tag")?;
    let sn_base = SerialNumber(r.get_u64()?);
    let expires_at = Timestamp::from_millis(r.get_u64()?);
    let sig = get_signature(&mut r)?;
    r.expect_end()?;
    Ok(BaseCert {
        sn_base,
        expires_at,
        sig,
    })
}

/// Encodes a shred pass-completion marker (journal `SHRED_PASS` payload):
/// extent offset (the pending-shred key) and the 0-based pass that just
/// finished.
pub fn encode_shred_pass(offset: u64, pass: u32) -> Vec<u8> {
    let mut w = WireWriter::tagged("strongworm.shredpass.v1");
    w.put_u64(offset);
    w.put_u32(pass);
    w.finish()
}

/// Decodes a shred pass-completion marker into `(offset, pass)`.
///
/// # Errors
///
/// [`WireError`] on truncation or trailing bytes.
pub fn decode_shred_pass(bytes: &[u8]) -> Result<(u64, u32), WireError> {
    let mut r = WireReader::tagged(bytes, "strongworm.shredpass.v1", "shred pass tag")?;
    let offset = r.get_u64()?;
    let pass = r.get_u32()?;
    r.expect_end()?;
    Ok((offset, pass))
}

/// Encodes a shred completion marker (journal `SHRED_DONE` payload): the
/// extent offset whose every pass has been applied.
pub fn encode_shred_done(offset: u64) -> Vec<u8> {
    let mut w = WireWriter::tagged("strongworm.shreddone.v1");
    w.put_u64(offset);
    w.finish()
}

/// Decodes a shred completion marker into the extent offset.
///
/// # Errors
///
/// [`WireError`] on truncation or trailing bytes.
pub fn decode_shred_done(bytes: &[u8]) -> Result<u64, WireError> {
    let mut r = WireReader::tagged(bytes, "strongworm.shreddone.v1", "shred done tag")?;
    let offset = r.get_u64()?;
    r.expect_end()?;
    Ok(offset)
}

fn get_evidence(r: &mut WireReader<'_>) -> Result<DeletionEvidence, WireError> {
    match r.get_u8()? {
        0 => Ok(DeletionEvidence::Proof(decode_deletion_proof(
            r.get_bytes()?,
        )?)),
        1 => Ok(DeletionEvidence::BelowBase(decode_base_cert(
            r.get_bytes()?,
        )?)),
        2 => Ok(DeletionEvidence::InWindow(decode_window_proof(
            r.get_bytes()?,
        )?)),
        _ => Err(WireError {
            expected: "deletion evidence kind",
        }),
    }
}

/// Writes a read outcome in place — the one definition of its layout,
/// for the owned [`ReadOutcome`] ([`encode_read_outcome_into`]) and for
/// what the read plane resolved by reference (`WormServer::read_into`)
/// alike. `records` writes a data outcome's record list: a count, then
/// each record as a byte string.
///
/// # Errors
///
/// Whatever `records` returns; `w` is then truncated back to where it
/// stood, so a record that fails to read leaves no partial outcome.
pub(crate) fn put_read_outcome<E>(
    w: &mut WireWriter,
    resolved: Resolved<'_>,
    head: &HeadCert,
    records: impl FnOnce(&mut WireWriter, &Vrd) -> Result<(), E>,
) -> Result<(), E> {
    let mark = w.len();
    w.put_str("strongworm.readoutcome.v1");
    match resolved {
        Resolved::Data(vrd) => {
            w.put_u8(0);
            w.put_nested(|w| put_vrd(w, vrd));
            records(w, vrd).inspect_err(|_| w.truncate(mark))?;
        }
        // Deleted: the evidence kind follows the outcome variant.
        Resolved::Proof(p) => {
            w.put_u8(1).put_u8(0);
            w.put_nested(|w| put_deletion_proof(w, p));
        }
        Resolved::BelowBase(b) => {
            w.put_u8(1).put_u8(1);
            w.put_nested(|w| put_base_cert(w, b));
        }
        Resolved::InWindow(win) => {
            w.put_u8(1).put_u8(2);
            w.put_nested(|w| put_window_proof(w, win));
        }
        Resolved::NeverExisted => {
            w.put_u8(2);
        }
    }
    w.put_nested(|w| put_head_cert(w, head));
    Ok(())
}

/// Encodes a complete read outcome — what a serving host returns to a
/// remote client, who re-verifies every embedded certificate — into an
/// existing writer: responses nest outcomes inside frames.
pub fn encode_read_outcome_into(w: &mut WireWriter, o: &ReadOutcome) {
    let Ok(()) = put_read_outcome(w, o.resolved(), o.head(), |w, _| {
        if let ReadOutcome::Data { records, .. } = o {
            w.put_count(records.len());
            for rec in records {
                w.put_bytes(rec);
            }
        }
        Ok::<(), std::convert::Infallible>(())
    });
}

/// Decodes a read outcome received from an untrusted host.
///
/// Defensive like every decoder here: list lengths are capped and byte
/// strings are bounded by the input actually present, so a hostile
/// encoding cannot drive unbounded allocation.
///
/// The returned records are [`Bytes`] slices of `src` (refcounted
/// views), so decoding a data response copies no record. The trade-off
/// is lifetime, not safety: each record handle keeps the whole source
/// frame alive until dropped.
///
/// # Errors
///
/// [`WireError`] on any truncation or malformed field.
pub fn decode_read_outcome_shared(src: &Bytes) -> Result<ReadOutcome, WireError> {
    let mut r = WireReader::tagged(src, "strongworm.readoutcome.v1", "read outcome tag")?;
    let outcome = match r.get_u8()? {
        0 => {
            let vrd = decode_vrd(r.get_bytes()?)?;
            let n = r.get_count_within(MAX_LIST_LEN, "sane record count")?;
            let mut records = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                records.push(src.slice(r.get_range()?));
            }
            let head = decode_head_cert(r.get_bytes()?)?;
            ReadOutcome::Data { vrd, records, head }
        }
        1 => {
            let evidence = get_evidence(&mut r)?;
            let head = decode_head_cert(r.get_bytes()?)?;
            ReadOutcome::Deleted { evidence, head }
        }
        2 => ReadOutcome::NeverExisted {
            head: decode_head_cert(r.get_bytes()?)?,
        },
        _ => {
            return Err(WireError {
                expected: "read outcome variant",
            })
        }
    };
    r.expect_end()?;
    Ok(outcome)
}

/// Encodes a litigation-hold credential for transport.
pub fn encode_hold_credential(c: &HoldCredential) -> Vec<u8> {
    let mut w = WireWriter::tagged("strongworm.holdcredcodec.v1");
    w.put_u64(c.sn.get());
    w.put_u64(c.issued_at.as_millis());
    w.put_u64(c.litigation_id);
    w.put_u64(c.hold_until.as_millis());
    put_signature(&mut w, &c.sig);
    w.finish()
}

/// Decodes a litigation-hold credential.
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_hold_credential(bytes: &[u8]) -> Result<HoldCredential, WireError> {
    let mut r = WireReader::tagged(bytes, "strongworm.holdcredcodec.v1", "hold credential tag")?;
    let sn = SerialNumber(r.get_u64()?);
    let issued_at = Timestamp::from_millis(r.get_u64()?);
    let litigation_id = r.get_u64()?;
    let hold_until = Timestamp::from_millis(r.get_u64()?);
    let sig = get_signature(&mut r)?;
    r.expect_end()?;
    Ok(HoldCredential {
        sn,
        issued_at,
        litigation_id,
        hold_until,
        sig,
    })
}

/// Encodes a litigation-release credential for transport.
pub fn encode_release_credential(c: &ReleaseCredential) -> Vec<u8> {
    let mut w = WireWriter::tagged("strongworm.releasecredcodec.v1");
    w.put_u64(c.sn.get());
    w.put_u64(c.issued_at.as_millis());
    w.put_u64(c.litigation_id);
    put_signature(&mut w, &c.sig);
    w.finish()
}

/// Decodes a litigation-release credential.
///
/// # Errors
///
/// [`WireError`] on malformed input.
pub fn decode_release_credential(bytes: &[u8]) -> Result<ReleaseCredential, WireError> {
    let mut r = WireReader::tagged(
        bytes,
        "strongworm.releasecredcodec.v1",
        "release credential tag",
    )?;
    let sn = SerialNumber(r.get_u64()?);
    let issued_at = Timestamp::from_millis(r.get_u64()?);
    let litigation_id = r.get_u64()?;
    let sig = get_signature(&mut r)?;
    r.expect_end()?;
    Ok(ReleaseCredential {
        sn,
        issued_at,
        litigation_id,
        sig,
    })
}

/// Encodes a weak-key certificate (network key bootstrap; §4.3 deferred
/// witnesses are signed under these short-lived keys).
pub fn encode_weak_key_cert(c: &WeakKeyCert) -> Vec<u8> {
    let mut w = WireWriter::tagged("strongworm.weakcert.v1");
    w.put_bytes(&c.key.to_bytes());
    w.put_u64(c.max_sig_expiry.as_millis());
    put_signature(&mut w, &c.sig);
    w.finish()
}

/// Decodes a weak-key certificate.
///
/// # Errors
///
/// [`WireError`] on malformed input or an unparsable RSA key.
pub fn decode_weak_key_cert(bytes: &[u8]) -> Result<WeakKeyCert, WireError> {
    let mut r = WireReader::tagged(bytes, "strongworm.weakcert.v1", "weak key cert tag")?;
    let key = RsaPublicKey::from_bytes(r.get_bytes()?).map_err(|_| WireError {
        expected: "rsa public key",
    })?;
    let max_sig_expiry = Timestamp::from_millis(r.get_u64()?);
    let sig = get_signature(&mut r)?;
    r.expect_end()?;
    Ok(WeakKeyCert {
        key,
        max_sig_expiry,
        sig,
    })
}

/// Encodes the device's permanent keys — what a client bootstrapping
/// over the network receives (and then validates against CA-issued
/// certificates; the bytes themselves are untrusted).
pub fn encode_device_keys(k: &DeviceKeys) -> Vec<u8> {
    let mut w = WireWriter::tagged("strongworm.devicekeys.v2");
    w.put_bytes(&k.sign.to_bytes());
    w.put_bytes(&k.delete.to_bytes());
    w.finish()
}

/// Decodes published device keys.
///
/// # Errors
///
/// [`WireError`] on malformed input or unparsable RSA keys.
pub fn decode_device_keys(bytes: &[u8]) -> Result<DeviceKeys, WireError> {
    let mut r = WireReader::tagged(bytes, "strongworm.devicekeys.v2", "device keys tag")?;
    let rsa = |b: &[u8]| {
        RsaPublicKey::from_bytes(b).map_err(|_| WireError {
            expected: "rsa public key",
        })
    };
    let sign = rsa(r.get_bytes()?)?;
    let delete = rsa(r.get_bytes()?)?;
    r.expect_end()?;
    Ok(DeviceKeys { sign, delete })
}

/// Sparse histograms never carry more than one entry per bucket.
const MAX_HISTOGRAM_ENTRIES: usize = wormtrace::NUM_BUCKETS;

/// Decoding cap on instrument-list lengths in a stats snapshot. Far
/// above anything this stack registers, far below unbounded allocation.
const MAX_STATS_ENTRIES: usize = 1 << 16;

fn put_histogram(w: &mut WireWriter, h: &wormtrace::HistogramSnapshot) {
    // Sparse encoding: most ops populate a handful of adjacent log2
    // buckets, so (index, count) pairs beat 32 fixed u64s on the wire.
    let nonzero = h.buckets.iter().filter(|&&c| c != 0).count();
    w.put_count(nonzero);
    // NUM_BUCKETS = 32, so every bucket index fits the u8 slot.
    for (i, &count) in (0u8..).zip(&h.buckets) {
        if count != 0 {
            w.put_u8(i);
            w.put_u64(count);
        }
    }
    w.put_u64(h.sum_ns);
}

fn get_histogram(r: &mut WireReader<'_>) -> Result<wormtrace::HistogramSnapshot, WireError> {
    let n = r.get_count_within(MAX_HISTOGRAM_ENTRIES, "sane histogram entry count")?;
    let mut h = wormtrace::HistogramSnapshot::default();
    let mut prev: Option<usize> = None;
    for _ in 0..n {
        let idx = usize::from(r.get_u8()?);
        // Strictly ascending indices with non-zero counts: every
        // snapshot has exactly one canonical encoding.
        if idx >= wormtrace::NUM_BUCKETS || prev.is_some_and(|p| idx <= p) {
            return Err(WireError {
                expected: "ascending histogram bucket index",
            });
        }
        let count = r.get_u64()?;
        if count == 0 {
            return Err(WireError {
                expected: "non-zero histogram bucket count",
            });
        }
        if let Some(slot) = h.buckets.get_mut(idx) {
            *slot = count;
        }
        prev = Some(idx);
    }
    h.sum_ns = r.get_u64()?;
    Ok(h)
}

fn check_name_order(prev: &mut Option<String>, name: &str) -> Result<(), WireError> {
    if prev.as_deref().is_some_and(|p| name <= p) {
        return Err(WireError {
            expected: "strictly ascending instrument names",
        });
    }
    *prev = Some(name.to_string());
    Ok(())
}

/// Encodes a [`wormtrace::StatsSnapshot`] canonically: equal snapshots
/// always produce identical bytes (the snapshot's name-sorted order is
/// preserved verbatim, and histograms encode sparsely).
pub fn encode_stats_snapshot(s: &wormtrace::StatsSnapshot) -> Vec<u8> {
    let mut w = WireWriter::tagged("wormtrace.stats.v2");
    w.put_count(s.ops.len());
    for (name, op) in &s.ops {
        w.put_str(name);
        w.put_u64(op.ok);
        w.put_u64(op.err);
        put_histogram(&mut w, &op.latency);
    }
    w.put_count(s.counters.len());
    for (name, v) in &s.counters {
        w.put_str(name);
        w.put_u64(*v);
    }
    w.put_count(s.gauges.len());
    for (name, v) in &s.gauges {
        w.put_str(name);
        w.put_u64(*v);
    }
    w.finish()
}

/// Decodes a stats snapshot, enforcing the canonical form: bounded
/// entry counts, strictly ascending names per section, ascending sparse
/// histogram buckets, and no trailing bytes.
///
/// # Errors
///
/// [`WireError`] on any truncation, oversized count, or ordering
/// violation — never a panic and never an unbounded allocation.
pub fn decode_stats_snapshot(bytes: &[u8]) -> Result<wormtrace::StatsSnapshot, WireError> {
    let mut r = WireReader::tagged(bytes, "wormtrace.stats.v2", "stats snapshot tag")?;
    let mut s = wormtrace::StatsSnapshot::default();
    let n_ops = r.get_count_within(MAX_STATS_ENTRIES, "sane op count")?;
    let mut prev = None;
    for _ in 0..n_ops {
        let name = r.get_str()?.to_string();
        check_name_order(&mut prev, &name)?;
        let ok = r.get_u64()?;
        let err = r.get_u64()?;
        let latency = get_histogram(&mut r)?;
        s.ops
            .push((name, wormtrace::OpSnapshot { ok, err, latency }));
    }
    let n_counters = r.get_count_within(MAX_STATS_ENTRIES, "sane counter count")?;
    let mut prev = None;
    for _ in 0..n_counters {
        let name = r.get_str()?.to_string();
        check_name_order(&mut prev, &name)?;
        s.counters.push((name, r.get_u64()?));
    }
    let n_gauges = r.get_count_within(MAX_STATS_ENTRIES, "sane gauge count")?;
    let mut prev = None;
    for _ in 0..n_gauges {
        let name = r.get_str()?.to_string();
        check_name_order(&mut prev, &name)?;
        s.gauges.push((name, r.get_u64()?));
    }
    r.expect_end()?;
    Ok(s)
}

/// Decoding cap on captured traces per message. The server-side flight
/// recorder holds a few dozen; a hostile count must not drive
/// allocation.
const MAX_CAPTURED_TRACES: usize = 1 << 10;

/// Decoding cap on op-name length inside a span (registry op names are
/// short dotted identifiers).
const MAX_SPAN_OP_LEN: usize = 256;

fn plane_code(p: wormtrace::Plane) -> u8 {
    match p {
        wormtrace::Plane::Read => 0,
        wormtrace::Plane::Witness => 1,
        wormtrace::Plane::Scpu => 2,
        wormtrace::Plane::Daemon => 3,
        wormtrace::Plane::Net => 4,
        wormtrace::Plane::Store => 5,
    }
}

fn plane_from_code(code: u8) -> Result<wormtrace::Plane, WireError> {
    Ok(match code {
        0 => wormtrace::Plane::Read,
        1 => wormtrace::Plane::Witness,
        2 => wormtrace::Plane::Scpu,
        3 => wormtrace::Plane::Daemon,
        4 => wormtrace::Plane::Net,
        5 => wormtrace::Plane::Store,
        _ => {
            return Err(WireError {
                expected: "span plane code",
            })
        }
    })
}

fn get_bool(r: &mut WireReader<'_>) -> Result<bool, WireError> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError {
            expected: "canonical boolean (0 or 1)",
        }),
    }
}

/// Encodes a batch of flight-recorder captures canonically. Span
/// trace-ids are implied by the enclosing trace and not repeated per
/// span.
pub fn encode_captured_traces(traces: &[wormtrace::CapturedTrace]) -> Vec<u8> {
    let mut w = WireWriter::tagged("wormtrace.traces.v1");
    w.put_count(traces.len());
    for t in traces {
        w.put_u64(t.trace_id);
        w.put_u8(match t.trigger {
            wormtrace::TraceTrigger::Slow => 0,
            wormtrace::TraceTrigger::Error => 1,
        });
        w.put_u64(t.total_ns);
        w.put_u64(t.truncated_spans);
        w.put_count(t.spans.len());
        for s in &t.spans {
            w.put_u64(s.span_id);
            w.put_u64(s.parent_span);
            w.put_str(&s.op);
            w.put_u8(plane_code(s.plane));
            w.put_u64(s.start_ns);
            w.put_u64(s.duration_ns);
            match s.sn {
                Some(sn) => {
                    w.put_u8(1);
                    w.put_u64(sn);
                }
                None => {
                    w.put_u8(0);
                }
            }
            w.put_u8(u8::from(s.ok));
        }
    }
    w.finish()
}

/// Decodes a batch of captured traces, enforcing bounded counts,
/// bounded op names, in-range plane/trigger codes, and canonical
/// booleans.
///
/// # Errors
///
/// [`WireError`] on any truncation, oversized count, or out-of-range
/// code — never a panic and never an unbounded allocation.
pub fn decode_captured_traces(bytes: &[u8]) -> Result<Vec<wormtrace::CapturedTrace>, WireError> {
    let mut r = WireReader::tagged(bytes, "wormtrace.traces.v1", "captured traces tag")?;
    let n_traces = r.get_count_within(MAX_CAPTURED_TRACES, "sane captured trace count")?;
    let mut traces = Vec::with_capacity(n_traces.min(r.remaining()));
    for _ in 0..n_traces {
        let trace_id = r.get_u64()?;
        let trigger = match r.get_u8()? {
            0 => wormtrace::TraceTrigger::Slow,
            1 => wormtrace::TraceTrigger::Error,
            _ => {
                return Err(WireError {
                    expected: "trace trigger code",
                })
            }
        };
        let total_ns = r.get_u64()?;
        let truncated_spans = r.get_u64()?;
        let n_spans = r.get_count_within(
            wormtrace::MAX_SPANS_PER_TRACE,
            "span count within per-trace bound",
        )?;
        let mut spans = Vec::with_capacity(n_spans.min(r.remaining()));
        for _ in 0..n_spans {
            let span_id = r.get_u64()?;
            let parent_span = r.get_u64()?;
            let op = r.get_str()?;
            if op.len() > MAX_SPAN_OP_LEN {
                return Err(WireError {
                    expected: "span op name within bounds",
                });
            }
            let op = op.to_string();
            let plane = plane_from_code(r.get_u8()?)?;
            let start_ns = r.get_u64()?;
            let duration_ns = r.get_u64()?;
            let sn = if get_bool(&mut r)? {
                Some(r.get_u64()?)
            } else {
                None
            };
            let ok = get_bool(&mut r)?;
            spans.push(wormtrace::SpanRecord {
                span_id,
                parent_span,
                op: op.into(),
                plane,
                start_ns,
                duration_ns,
                sn,
                ok,
            });
        }
        traces.push(wormtrace::CapturedTrace {
            trace_id,
            trigger,
            total_ns,
            truncated_spans,
            spans,
        });
    }
    r.expect_end()?;
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Regulation;
    use wormstore::Shredder;

    fn sig(b: u8) -> Signature {
        Signature {
            key_id: [b; 8],
            bytes: vec![b; 64],
        }
    }

    fn sample_vrd() -> Vrd {
        Vrd {
            sn: SerialNumber(42),
            attr: RecordAttributes {
                created_at: Timestamp::from_millis(10),
                retention_until: Timestamp::from_millis(99999),
                regulation: Regulation::Hipaa,
                shredder: Shredder::MultiPass { passes: 3 },
                litigation_hold: None,
                flags: 7,
            },
            rdl: vec![RecordDescriptor {
                id: RecordId(5),
                offset: 1024,
                len: 333,
            }],
            metasig: Witness::Strong(sig(1)),
            datasig: Witness::Weak {
                sig: sig(2),
                expires_at: Timestamp::from_millis(777),
            },
        }
    }

    #[test]
    fn vrd_roundtrip() {
        let v = sample_vrd();
        assert_eq!(decode_vrd(&encode_vrd(&v)).unwrap(), v);
    }

    #[test]
    fn shred_pass_roundtrip() {
        let enc = encode_shred_pass(777, 3);
        assert_eq!(decode_shred_pass(&enc).unwrap(), (777, 3));
        assert!(decode_shred_pass(&enc[..enc.len() - 1]).is_err());
        assert!(decode_shred_pass(b"").is_err());
    }

    #[test]
    fn shred_done_roundtrip() {
        let enc = encode_shred_done(4242);
        assert_eq!(decode_shred_done(&enc).unwrap(), 4242);
        assert!(decode_shred_done(&enc[..enc.len() - 1]).is_err());
        let mut trailing = enc;
        trailing.push(1);
        assert!(decode_shred_done(&trailing).is_err());
    }

    #[test]
    fn vrd_with_mac_witness_roundtrip() {
        let mut v = sample_vrd();
        v.datasig = Witness::Mac { tag: vec![9; 32] };
        assert_eq!(decode_vrd(&encode_vrd(&v)).unwrap(), v);
    }

    #[test]
    fn vrd_decode_rejects_corruption() {
        let enc = encode_vrd(&sample_vrd());
        assert!(decode_vrd(&enc[..enc.len() - 1]).is_err());
        assert!(decode_vrd(b"").is_err());
        let mut bad = enc.clone();
        bad.push(0);
        assert!(decode_vrd(&bad).is_err());
    }

    #[test]
    fn proof_roundtrips() {
        let p = DeletionProof {
            sn: SerialNumber(3),
            deleted_at: Timestamp::from_millis(55),
            sig: sig(3),
        };
        assert_eq!(
            decode_deletion_proof(&encode_deletion_proof(&p)).unwrap(),
            p
        );

        let w = WindowProof {
            window_id: 0xABCD,
            lo: SerialNumber(10),
            hi: SerialNumber(20),
            lo_sig: sig(4),
            hi_sig: sig(5),
        };
        assert_eq!(decode_window_proof(&encode_window_proof(&w)).unwrap(), w);

        let h = HeadCert {
            sn_current: SerialNumber(100),
            issued_at: Timestamp::from_millis(9),
            sig: sig(6),
        };
        assert_eq!(decode_head_cert(&encode_head_cert(&h)).unwrap(), h);

        let b = BaseCert {
            sn_base: SerialNumber(7),
            expires_at: Timestamp::from_millis(888),
            sig: sig(7),
        };
        assert_eq!(decode_base_cert(&encode_base_cert(&b)).unwrap(), b);
    }

    fn sample_head() -> HeadCert {
        HeadCert {
            sn_current: SerialNumber(100),
            issued_at: Timestamp::from_millis(9),
            sig: sig(6),
        }
    }

    fn sample_composite() -> CompositeHead {
        let heads = vec![
            sample_head(),
            HeadCert {
                sn_current: SerialNumber(SerialNumber::lane_origin(1) + 3),
                issued_at: Timestamp::from_millis(9),
                sig: sig(8),
            },
        ];
        let root = composite_root(&heads);
        CompositeHead {
            heads,
            binding: CompositeBinding {
                shard_count: 2,
                root,
                issued_at: Timestamp::from_millis(11),
                sig: sig(9),
            },
        }
    }

    #[test]
    fn composite_head_roundtrip() {
        let c = sample_composite();
        assert_eq!(
            decode_composite_head(&encode_composite_head(&c)).unwrap(),
            c
        );
    }

    #[test]
    fn composite_head_rejects_corruption() {
        let enc = encode_composite_head(&sample_composite());
        for cut in 0..enc.len() {
            assert!(decode_composite_head(&enc[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = enc.clone();
        trailing.push(0);
        assert!(decode_composite_head(&trailing).is_err());
    }

    #[test]
    fn composite_head_rejects_count_bomb() {
        let mut w = WireWriter::tagged("strongworm.compositehead.v1");
        w.put_u32(u32::MAX);
        assert!(decode_composite_head(&w.finish()).is_err());
    }

    #[test]
    fn composite_root_is_order_and_content_sensitive() {
        let c = sample_composite();
        let mut swapped = c.heads.clone();
        swapped.swap(0, 1);
        assert_ne!(composite_root(&c.heads), composite_root(&swapped));
        assert_ne!(composite_root(&c.heads), composite_root(&c.heads[..1]));
        assert_eq!(composite_root(&c.heads).len(), 32);
    }

    fn tiny_key(n: u8) -> RsaPublicKey {
        // Structurally valid key material (decode only checks non-zero).
        let mut raw = Vec::new();
        raw.extend_from_slice(&1u32.to_be_bytes());
        raw.push(n);
        raw.extend_from_slice(&1u32.to_be_bytes());
        raw.push(3);
        RsaPublicKey::from_bytes(&raw).unwrap()
    }

    #[test]
    fn read_outcome_roundtrips_all_variants() {
        let head = sample_head();
        let outcomes = vec![
            ReadOutcome::Data {
                vrd: sample_vrd(),
                records: vec![
                    Bytes::from(b"alpha".to_vec()),
                    Bytes::from(Vec::new()),
                    Bytes::from(vec![0u8; 1024]),
                ],
                head: head.clone(),
            },
            ReadOutcome::Deleted {
                evidence: DeletionEvidence::Proof(DeletionProof {
                    sn: SerialNumber(3),
                    deleted_at: Timestamp::from_millis(55),
                    sig: sig(3),
                }),
                head: head.clone(),
            },
            ReadOutcome::Deleted {
                evidence: DeletionEvidence::BelowBase(BaseCert {
                    sn_base: SerialNumber(7),
                    expires_at: Timestamp::from_millis(888),
                    sig: sig(7),
                }),
                head: head.clone(),
            },
            ReadOutcome::Deleted {
                evidence: DeletionEvidence::InWindow(WindowProof {
                    window_id: 0xABCD,
                    lo: SerialNumber(10),
                    hi: SerialNumber(20),
                    lo_sig: sig(4),
                    hi_sig: sig(5),
                }),
                head: head.clone(),
            },
            ReadOutcome::NeverExisted { head },
        ];
        for o in outcomes {
            // Appending to a writer that already holds bytes: the
            // encoding lands after them and leaves them alone.
            let mut w = WireWriter::from(b"kept".to_vec());
            encode_read_outcome_into(&mut w, &o);
            let enc = Bytes::from(w.finish()).slice(4..);
            let decoded = decode_read_outcome_shared(&enc).unwrap();
            assert_eq!(decoded, o);
            // Decoded records are views of the source buffer, not copies.
            if let ReadOutcome::Data { records, .. } = &decoded {
                let src = enc.as_ptr_range();
                for rec in records.iter().filter(|r| !r.is_empty()) {
                    assert!(src.contains(&rec.as_ptr()), "record was copied out");
                }
            }
            // Truncation and trailing garbage are both rejected.
            assert!(decode_read_outcome_shared(&enc.slice(..enc.len() - 1)).is_err());
            let mut bad = enc.to_vec();
            bad.push(0);
            assert!(decode_read_outcome_shared(&Bytes::from(bad)).is_err());
        }
    }

    #[test]
    fn nested_structures_encode_as_their_owned_encoders_do() {
        // The in-place writers nest with `put_nested`; the journal and
        // the signatures use the owned encoders. Same bytes either way.
        let vrd = sample_vrd();
        let head = sample_head();
        let mut staged = WireWriter::tagged("strongworm.readoutcome.v1");
        staged.put_u8(0);
        staged.put_bytes(&encode_vrd(&vrd));
        staged.put_count(1);
        staged.put_bytes(b"alpha");
        staged.put_bytes(&encode_head_cert(&head));
        let mut w = WireWriter::new();
        encode_read_outcome_into(
            &mut w,
            &ReadOutcome::Data {
                vrd: vrd.clone(),
                records: vec![Bytes::from_static(b"alpha")],
                head,
            },
        );
        assert_eq!(w.finish(), staged.finish());

        let mut attr_nested = WireWriter::new();
        attr_nested.put_bytes(&vrd.attr.encode());
        let mut in_place = WireWriter::new();
        in_place.put_nested(|w| vrd.attr.encode_into(w));
        assert_eq!(in_place.finish(), attr_nested.finish());
    }

    #[test]
    fn a_failed_record_leaves_no_partial_outcome() {
        let vrd = sample_vrd();
        let mut w = WireWriter::from(b"kept".to_vec());
        let failed = put_read_outcome(&mut w, Resolved::Data(&vrd), &sample_head(), |w, _| {
            w.put_count(1);
            w.put_bytes(b"half a rec");
            Err("store failed")
        });
        assert_eq!(failed, Err("store failed"));
        assert_eq!(w.finish(), b"kept");
    }

    #[test]
    fn read_outcome_decode_bounds_record_count() {
        // A hostile count far beyond the payload must fail cleanly.
        let mut w = WireWriter::tagged("strongworm.readoutcome.v1");
        w.put_u8(0);
        w.put_bytes(&encode_vrd(&sample_vrd()));
        w.put_u32(u32::MAX);
        assert!(decode_read_outcome_shared(&Bytes::from(w.finish())).is_err());
    }

    #[test]
    fn credential_roundtrips() {
        let hold = HoldCredential {
            sn: SerialNumber(7),
            issued_at: Timestamp::from_millis(100),
            litigation_id: 42,
            hold_until: Timestamp::from_millis(9_000),
            sig: sig(8),
        };
        assert_eq!(
            decode_hold_credential(&encode_hold_credential(&hold)).unwrap(),
            hold
        );
        let release = ReleaseCredential {
            sn: SerialNumber(7),
            issued_at: Timestamp::from_millis(200),
            litigation_id: 42,
            sig: sig(9),
        };
        assert_eq!(
            decode_release_credential(&encode_release_credential(&release)).unwrap(),
            release
        );
        // Cross-type decoding fails on the domain tag.
        assert!(decode_release_credential(&encode_hold_credential(&hold)).is_err());
        assert!(decode_hold_credential(&encode_release_credential(&release)).is_err());
    }

    #[test]
    fn device_keys_roundtrip() {
        let keys = DeviceKeys {
            sign: tiny_key(5),
            delete: tiny_key(7),
        };
        let enc = encode_device_keys(&keys);
        let dec = decode_device_keys(&enc).unwrap();
        assert_eq!(dec.sign.fingerprint(), keys.sign.fingerprint());
        assert_eq!(dec.delete.fingerprint(), keys.delete.fingerprint());
        assert!(decode_device_keys(&enc[..enc.len() - 1]).is_err());
        assert!(decode_device_keys(b"garbage").is_err());

        let cert = WeakKeyCert {
            key: tiny_key(11),
            max_sig_expiry: Timestamp::from_millis(1234),
            sig: sig(2),
        };
        let wc = encode_weak_key_cert(&cert);
        assert_eq!(decode_weak_key_cert(&wc).unwrap(), cert);
        assert!(decode_weak_key_cert(&wc[..wc.len() - 1]).is_err());
    }

    #[test]
    fn tags_are_checked() {
        let p = DeletionProof {
            sn: SerialNumber(3),
            deleted_at: Timestamp::from_millis(55),
            sig: sig(3),
        };
        // A deletion proof cannot decode as a window proof.
        assert!(decode_window_proof(&encode_deletion_proof(&p)).is_err());
    }

    #[test]
    fn stats_snapshot_roundtrip_and_canonical_form() {
        let reg = wormtrace::Registry::new();
        reg.op("server.read").record(1234, true);
        reg.op("server.read").record(0, false);
        reg.op("server.write").record(987_654, true);
        reg.counter("net.frames_in").add(41);
        reg.gauge("net.queue_depth").set(3);
        let snap = reg.snapshot();

        let enc = encode_stats_snapshot(&snap);
        assert_eq!(decode_stats_snapshot(&enc).unwrap(), snap);
        // Canonical: equal snapshots encode to identical bytes.
        assert_eq!(enc, encode_stats_snapshot(&reg.snapshot()));
        // Truncations and garbage error rather than panic.
        for cut in 0..enc.len() {
            assert!(decode_stats_snapshot(&enc[..cut]).is_err());
        }
        assert!(decode_stats_snapshot(b"garbage").is_err());
        // Trailing bytes are rejected.
        let mut padded = enc.clone();
        padded.push(0);
        assert!(decode_stats_snapshot(&padded).is_err());
        // Out-of-order instrument names are rejected.
        let mut unsorted = snap.clone();
        unsorted.counters.push(("aaa".into(), 1));
        let bad = encode_stats_snapshot(&unsorted);
        assert!(decode_stats_snapshot(&bad).is_err());
    }

    fn sample_traces() -> Vec<wormtrace::CapturedTrace> {
        let span = |id, parent, op: &'static str, plane, sn, ok| wormtrace::SpanRecord {
            span_id: id,
            parent_span: parent,
            op: op.into(),
            plane,
            start_ns: id * 10,
            duration_ns: id * 100,
            sn,
            ok,
        };
        vec![
            wormtrace::CapturedTrace {
                trace_id: 0xDEAD_BEEF,
                trigger: wormtrace::TraceTrigger::Slow,
                total_ns: 5_000_000,
                truncated_spans: 0,
                spans: vec![
                    span(1, 0, "net.request", wormtrace::Plane::Net, None, true),
                    span(2, 1, "server.read", wormtrace::Plane::Read, Some(7), true),
                    span(3, 2, "store.read", wormtrace::Plane::Store, None, true),
                ],
            },
            wormtrace::CapturedTrace {
                trace_id: 2,
                trigger: wormtrace::TraceTrigger::Error,
                total_ns: 10,
                truncated_spans: 3,
                spans: vec![span(
                    1,
                    0,
                    "scpu.command",
                    wormtrace::Plane::Scpu,
                    None,
                    false,
                )],
            },
        ]
    }

    #[test]
    fn captured_traces_roundtrip_and_reject_malformed() {
        let traces = sample_traces();
        let enc = encode_captured_traces(&traces);
        assert_eq!(decode_captured_traces(&enc).unwrap(), traces);
        assert_eq!(
            decode_captured_traces(&encode_captured_traces(&[])).unwrap(),
            vec![]
        );
        // Truncations and garbage error rather than panic.
        for cut in 0..enc.len() {
            assert!(decode_captured_traces(&enc[..cut]).is_err());
        }
        assert!(decode_captured_traces(b"garbage").is_err());
        let mut padded = enc.clone();
        padded.push(0);
        assert!(decode_captured_traces(&padded).is_err());
    }

    #[test]
    fn captured_traces_counts_and_codes_are_bounded() {
        // Hostile trace count.
        let mut w = WireWriter::tagged("wormtrace.traces.v1");
        w.put_u32(u32::MAX);
        assert!(decode_captured_traces(&w.finish()).is_err());
        // Hostile span count (above the per-trace bound).
        let mut w = WireWriter::tagged("wormtrace.traces.v1");
        w.put_u32(1);
        w.put_u64(1);
        w.put_u8(0);
        w.put_u64(1);
        w.put_u64(0);
        w.put_u32(wormtrace::MAX_SPANS_PER_TRACE as u32 + 1);
        assert!(decode_captured_traces(&w.finish()).is_err());
        // Out-of-range trigger, plane, and boolean codes are each
        // rejected at their exact position.
        let hostile = |trigger: u8, plane: u8, sn_flag: u8, ok: u8| {
            let mut w = WireWriter::tagged("wormtrace.traces.v1");
            w.put_u32(1);
            w.put_u64(1);
            w.put_u8(trigger);
            w.put_u64(1);
            w.put_u64(0);
            w.put_u32(1);
            w.put_u64(1);
            w.put_u64(0);
            w.put_str("net.request");
            w.put_u8(plane);
            w.put_u64(0);
            w.put_u64(1);
            w.put_u8(sn_flag);
            w.put_u8(ok);
            w.finish()
        };
        assert!(decode_captured_traces(&hostile(0, 4, 0, 1)).is_ok());
        assert!(decode_captured_traces(&hostile(2, 4, 0, 1)).is_err());
        assert!(decode_captured_traces(&hostile(0, 6, 0, 1)).is_err());
        assert!(decode_captured_traces(&hostile(0, 4, 7, 1)).is_err());
        assert!(decode_captured_traces(&hostile(0, 4, 0, 9)).is_err());
    }
}
