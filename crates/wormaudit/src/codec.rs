//! The canonical `wormaudit.events.v1` page codec and the chain hash.
//!
//! One encoding per value: the event encoding below is both the wire
//! form served by `FetchAuditEvents` and (domain-tagged) the preimage
//! of the chain hash, so what an auditor replays is byte-for-byte what
//! the journal hashed. Decoders bound every count and byte string
//! before allocating — a hostile page can make the decoder fail, never
//! allocate unboundedly — and reject trailing bytes, so any single
//! flipped byte in a page either fails decoding outright or surfaces
//! as a chain/anchor divergence during [`crate::verify_chain`].
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::as_conversions))]

use wormcrypt::wire::{WireError, WireReader, WireWriter};
use wormcrypt::Sha256;

use crate::event::{AuditAnchor, AuditClass, AuditEvent};
use crate::log::AuditPage;

/// Domain tag of the audit page encoding.
pub const PAGE_TAG: &str = "wormaudit.events.v1";

/// Most events one page may carry — servers clamp fetch requests to
/// this, and decoders reject anything claiming more.
pub const MAX_PAGE_EVENTS: usize = 4096;

/// Longest detail string an event may carry on the wire.
pub const MAX_DETAIL_BYTES: usize = 512;

/// Most anchors one page may carry.
pub const MAX_PAGE_ANCHORS: usize = 64;

/// Longest anchor signature accepted (bounds a hostile length prefix;
/// a 16k-bit RSA modulus is far beyond anything this stack mints).
pub const MAX_SIG_BYTES: usize = 2048;

fn put_event(w: &mut WireWriter, e: &AuditEvent) {
    w.put_u64(e.seq);
    w.put_u64(e.at_ms);
    w.put_u8(e.class.code());
    match e.sn {
        Some(sn) => {
            w.put_u8(1);
            w.put_u64(sn);
        }
        None => {
            w.put_u8(0);
            w.put_u64(0);
        }
    }
    w.put_str(&e.detail);
    w.put_bytes(&e.prev_hash);
}

fn get_event(r: &mut WireReader<'_>) -> Result<AuditEvent, WireError> {
    let seq = r.get_u64()?;
    let at_ms = r.get_u64()?;
    let class = AuditClass::from_code(r.get_u8()?).ok_or(WireError {
        expected: "known audit class code",
    })?;
    let sn_present = r.get_u8()?;
    let sn_value = r.get_u64()?;
    let sn = match (sn_present, sn_value) {
        (0, 0) => None,
        (1, v) => Some(v),
        // Canonical form: an absent SN is encoded exactly as (0, 0).
        _ => {
            return Err(WireError {
                expected: "canonical sn presence flag",
            })
        }
    };
    let detail = {
        let b = r.get_bytes_bounded(MAX_DETAIL_BYTES)?;
        std::str::from_utf8(b)
            .map_err(|_| WireError {
                expected: "utf-8 detail string",
            })?
            .to_owned()
    };
    let prev_hash: [u8; 32] = r.get_bytes()?.try_into().map_err(|_| WireError {
        expected: "32-byte chain hash",
    })?;
    Ok(AuditEvent {
        seq,
        at_ms,
        class,
        sn,
        detail,
        prev_hash,
    })
}

/// Canonical encoding of one audit event.
pub fn encode_audit_event(e: &AuditEvent) -> Vec<u8> {
    let mut w = WireWriter::new();
    put_event(&mut w, e);
    w.finish()
}

/// Decodes one audit event.
///
/// # Errors
///
/// [`WireError`] on truncation, an unknown class code, a non-canonical
/// SN flag, an oversized detail string, or trailing bytes.
pub fn decode_audit_event(bytes: &[u8]) -> Result<AuditEvent, WireError> {
    let mut r = WireReader::new(bytes);
    let e = get_event(&mut r)?;
    r.expect_end()?;
    Ok(e)
}

/// The chain hash of an event: SHA-256 over its canonical encoding
/// under a link-specific domain tag. Because the encoding includes
/// `prev_hash`, each hash commits to the entire prefix of the journal.
pub fn event_hash(e: &AuditEvent) -> [u8; 32] {
    let mut w = WireWriter::tagged("wormaudit.link.v1");
    put_event(&mut w, e);
    Sha256::digest_array(&w.finish())
}

fn put_anchor(w: &mut WireWriter, a: &AuditAnchor) {
    w.put_u64(a.seq);
    w.put_bytes(&a.chain_hash);
    w.put_u64(a.issued_at_ms);
    w.put_bytes(&a.key_id);
    w.put_bytes(&a.sig);
}

fn get_anchor(r: &mut WireReader<'_>) -> Result<AuditAnchor, WireError> {
    let seq = r.get_u64()?;
    let chain_hash: [u8; 32] = r.get_bytes()?.try_into().map_err(|_| WireError {
        expected: "32-byte anchored chain hash",
    })?;
    let issued_at_ms = r.get_u64()?;
    let key_id: [u8; 8] = r.get_bytes()?.try_into().map_err(|_| WireError {
        expected: "8-byte key fingerprint",
    })?;
    let sig = r.get_bytes_bounded(MAX_SIG_BYTES)?.to_vec();
    Ok(AuditAnchor {
        seq,
        chain_hash,
        issued_at_ms,
        key_id,
        sig,
    })
}

/// Canonical encoding of one SCPU chain anchor.
pub fn encode_audit_anchor(a: &AuditAnchor) -> Vec<u8> {
    let mut w = WireWriter::new();
    put_anchor(&mut w, a);
    w.finish()
}

/// Decodes one SCPU chain anchor.
///
/// # Errors
///
/// [`WireError`] on truncation, malformed hash/fingerprint widths, an
/// oversized signature, or trailing bytes.
pub fn decode_audit_anchor(bytes: &[u8]) -> Result<AuditAnchor, WireError> {
    let mut r = WireReader::new(bytes);
    let a = get_anchor(&mut r)?;
    r.expect_end()?;
    Ok(a)
}

/// Canonical `wormaudit.events.v1` encoding of a fetched page.
///
/// Layout: tag, event count, events, anchor count, anchors. The page
/// carries no unauthenticated header fields — cursors are derived from
/// the (chain-protected) event sequence numbers themselves, so every
/// byte after the tag is covered by the hash chain, an anchor
/// signature, or the end-of-input check.
pub fn encode_audit_page(p: &AuditPage) -> Vec<u8> {
    let mut w = WireWriter::tagged(PAGE_TAG);
    w.put_count(p.events.len());
    for e in &p.events {
        put_event(&mut w, e);
    }
    w.put_count(p.anchors.len());
    for a in &p.anchors {
        put_anchor(&mut w, a);
    }
    w.finish()
}

/// Decodes a `wormaudit.events.v1` page.
///
/// # Errors
///
/// [`WireError`] on a wrong tag, counts above [`MAX_PAGE_EVENTS`] /
/// [`MAX_PAGE_ANCHORS`], any malformed element, or trailing bytes.
pub fn decode_audit_page(bytes: &[u8]) -> Result<AuditPage, WireError> {
    let mut r = WireReader::tagged(bytes, PAGE_TAG, "wormaudit.events.v1 tag")?;
    let n_events = r.get_count_within(MAX_PAGE_EVENTS, "event count within page bound")?;
    let mut events = Vec::with_capacity(n_events.min(r.remaining()));
    for _ in 0..n_events {
        events.push(get_event(&mut r)?);
    }
    let n_anchors = r.get_count_within(MAX_PAGE_ANCHORS, "anchor count within page bound")?;
    let mut anchors = Vec::with_capacity(n_anchors.min(r.remaining()));
    for _ in 0..n_anchors {
        anchors.push(get_anchor(&mut r)?);
    }
    r.expect_end()?;
    Ok(AuditPage { events, anchors })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64) -> AuditEvent {
        AuditEvent {
            seq,
            at_ms: 1000 + seq,
            class: AuditClass::HeadRemint,
            sn: seq.is_multiple_of(2).then_some(seq * 3),
            detail: format!("event {seq}"),
            prev_hash: [u8::try_from(seq & 0xFF).unwrap_or(0); 32],
        }
    }

    fn anchor(seq: u64) -> AuditAnchor {
        AuditAnchor {
            seq,
            chain_hash: [3u8; 32],
            issued_at_ms: 9000,
            key_id: [5u8; 8],
            sig: vec![7u8; 64],
        }
    }

    #[test]
    fn event_roundtrip_and_hash_stability() {
        let e = event(4);
        let bytes = encode_audit_event(&e);
        assert_eq!(decode_audit_event(&bytes).unwrap(), e);
        // The hash is over the tagged encoding, not the raw one.
        assert_ne!(event_hash(&e).to_vec(), Sha256::digest_array(&bytes));
        // Any field change changes the hash.
        let mut e2 = e.clone();
        e2.detail.push('!');
        assert_ne!(event_hash(&e), event_hash(&e2));
    }

    #[test]
    fn anchor_roundtrip() {
        let a = anchor(9);
        let bytes = encode_audit_anchor(&a);
        assert_eq!(decode_audit_anchor(&bytes).unwrap(), a);
    }

    #[test]
    fn page_roundtrip_and_truncation_at_every_byte() {
        let page = AuditPage {
            events: (0..5).map(event).collect(),
            anchors: vec![anchor(4)],
        };
        let bytes = encode_audit_page(&page);
        assert_eq!(decode_audit_page(&bytes).unwrap(), page);
        for cut in 0..bytes.len() {
            assert!(
                decode_audit_page(&bytes[..cut]).is_err(),
                "cut={cut} must fail"
            );
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_audit_page(&trailing).is_err());
    }

    #[test]
    fn hostile_counts_are_bounded() {
        // Claimed u32::MAX events: rejected by the bound, with no
        // allocation proportional to the claim.
        let mut w = WireWriter::tagged(PAGE_TAG);
        w.put_u32(u32::MAX);
        assert!(decode_audit_page(&w.finish()).is_err());
        // Oversized detail string inside an otherwise valid event.
        let mut big = event(0);
        big.detail = "x".repeat(MAX_DETAIL_BYTES + 1);
        let bytes = encode_audit_event(&big);
        assert!(decode_audit_event(&bytes).is_err());
        // Claimed anchor-signature length above the bound.
        let mut fat = anchor(0);
        fat.sig = vec![1u8; MAX_SIG_BYTES + 1];
        assert!(decode_audit_anchor(&encode_audit_anchor(&fat)).is_err());
    }

    #[test]
    fn non_canonical_sn_flag_rejected() {
        let mut e = event(1);
        e.sn = None;
        let mut bytes = encode_audit_event(&e);
        // Locate the presence byte: 8 (seq) + 8 (at_ms) + 1 (class).
        let flag_at = 17;
        if let Some(b) = bytes.get_mut(flag_at) {
            assert_eq!(*b, 0);
            *b = 1; // claims "present" but the decoder then sees sn=0 + same bytes
        }
        // Flag 1 with value 0 decodes as Some(0) — legal. Flag 2 is not.
        if let Some(b) = bytes.get_mut(flag_at) {
            *b = 2;
        }
        assert!(decode_audit_event(&bytes).is_err());
        // And an absent SN must carry a zero value slot.
        let mut bytes2 = encode_audit_event(&e);
        if let Some(b) = bytes2.get_mut(flag_at + 8) {
            *b = 9;
        }
        assert!(decode_audit_event(&bytes2).is_err());
    }

    #[test]
    fn unknown_class_code_rejected() {
        let e = event(1);
        let mut bytes = encode_audit_event(&e);
        if let Some(b) = bytes.get_mut(16) {
            *b = 200;
        }
        assert!(decode_audit_event(&bytes).is_err());
    }
}
