//! Fuzz-style property tests of the network layer: frames and protocol
//! payloads arrive from an untrusted peer, so decoding must be total —
//! errors, never panics, never unbounded allocation — and valid
//! encodings must survive a roundtrip bit-for-bit.

use std::io::Cursor;
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use strongworm::{RetentionPolicy, SerialNumber, WitnessMode};
use wormnet::frame::{read_frame, write_frame};
use wormnet::protocol::{decode_request, decode_response_shared, encode_request, NetRequest};
use wormnet::NetError;
use wormstore::Shredder;

fn arb_policy() -> impl Strategy<Value = RetentionPolicy> {
    (any::<u32>(), 0u8..4).prop_map(|(secs, kind)| {
        let shredder = match kind {
            0 => Shredder::ZeroFill,
            1 => Shredder::MultiPass { passes: 3 },
            _ => Shredder::RandomPass,
        };
        RetentionPolicy::custom(Duration::from_secs(u64::from(secs)), shredder)
    })
}

fn arb_request() -> impl Strategy<Value = NetRequest> {
    prop_oneof![
        (
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..5),
            arb_policy(),
            any::<u32>(),
            0u8..3,
        )
            .prop_map(|(records, policy, flags, w)| NetRequest::Write {
                records: records.into_iter().map(Bytes::from).collect(),
                policy,
                flags,
                witness: match w {
                    0 => WitnessMode::Strong,
                    1 => WitnessMode::Deferred,
                    _ => WitnessMode::Hmac,
                },
            }),
        any::<u64>().prop_map(|sn| NetRequest::Read {
            sn: SerialNumber(sn)
        }),
        any::<u64>().prop_map(|sn| NetRequest::Delete {
            sn: SerialNumber(sn)
        }),
        Just(NetRequest::Tick),
        Just(NetRequest::GetKeys),
        Just(NetRequest::GetCompositeHead),
        Just(NetRequest::GetShardKeys),
        (any::<u64>(), any::<u32>()).prop_map(|(from_seq, max_events)| {
            NetRequest::FetchAuditEvents {
                from_seq,
                max_events,
            }
        }),
    ]
}

fn arb_audit_event() -> impl Strategy<Value = wormaudit::AuditEvent> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<prop::sample::Index>(),
        proptest::option::of(any::<u64>()),
        proptest::collection::vec(97u8..123, 0..12),
        any::<[u8; 32]>(),
    )
        .prop_map(
            |(seq, at_ms, class, sn, detail, prev_hash)| wormaudit::AuditEvent {
                seq,
                at_ms,
                class: wormaudit::ALL_CLASSES[class.index(wormaudit::ALL_CLASSES.len())],
                sn,
                detail: String::from_utf8(detail).unwrap_or_default(),
                prev_hash,
            },
        )
}

fn arb_audit_page() -> impl Strategy<Value = wormaudit::AuditPage> {
    (
        proptest::collection::vec(arb_audit_event(), 0..6),
        proptest::collection::vec(
            (
                any::<u64>(),
                any::<[u8; 32]>(),
                any::<u64>(),
                any::<[u8; 8]>(),
                proptest::collection::vec(any::<u8>(), 0..72),
            ),
            0..3,
        ),
    )
        .prop_map(|(events, anchors)| wormaudit::AuditPage {
            events,
            anchors: anchors
                .into_iter()
                .map(
                    |(seq, chain_hash, issued_at_ms, key_id, sig)| wormaudit::AuditAnchor {
                        seq,
                        chain_hash,
                        issued_at_ms,
                        key_id,
                        sig,
                    },
                )
                .collect(),
        })
}

proptest! {
    /// Arbitrary bytes never panic either decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_request(&bytes);
        let _ = decode_response_shared(&Bytes::from(bytes));
    }

    /// Valid requests roundtrip exactly; every strict prefix fails.
    #[test]
    fn requests_roundtrip_and_reject_prefixes(req in arb_request()) {
        let enc = encode_request(&req);
        prop_assert_eq!(decode_request(&enc).unwrap(), req);
        for cut in 0..enc.len() {
            prop_assert!(decode_request(&enc[..cut]).is_err());
        }
    }

    /// Single-byte mutations either fail to decode or decode to a
    /// different request — no silent aliasing of hostile edits.
    #[test]
    fn mutations_never_alias(req in arb_request(), pos in any::<prop::sample::Index>(), flip in 1u8..255) {
        let enc = encode_request(&req);
        let mut bad = enc.clone();
        let i = pos.index(bad.len());
        bad[i] ^= flip;
        if let Ok(decoded) = decode_request(&bad) {
            prop_assert_ne!(decoded, req);
        }
    }

    /// Audit-page responses roundtrip exactly through the response
    /// codec; every strict prefix fails — the `wormaudit.events.v1`
    /// encoding embedded at opcode 13's response is canonical on the
    /// wire too.
    #[test]
    fn audit_page_responses_roundtrip_and_reject_prefixes(page in arb_audit_page()) {
        let enc = Bytes::from(wormnet::protocol::encode_response(
            &wormnet::protocol::NetResponse::AuditEvents(page.clone()),
        ));
        match decode_response_shared(&enc).unwrap() {
            wormnet::protocol::NetResponse::AuditEvents(got) => prop_assert_eq!(got, page),
            other => prop_assert!(false, "wrong variant: {:?}", other),
        }
        for cut in 0..enc.len() {
            prop_assert!(decode_response_shared(&enc.slice(..cut)).is_err());
        }
    }

    /// Single-byte mutations of an audit-page response either fail to
    /// decode or decode to a *different* page — a peer cannot alias one
    /// chain into another with a bit flip (chain integrity itself is
    /// then enforced by `wormaudit::verify_chain`).
    #[test]
    fn audit_page_mutations_never_alias(page in arb_audit_page(), pos in any::<prop::sample::Index>(), flip in 1u8..255) {
        let mut bad = wormnet::protocol::encode_response(
            &wormnet::protocol::NetResponse::AuditEvents(page.clone()),
        );
        let i = pos.index(bad.len());
        bad[i] ^= flip;
        if let Ok(wormnet::protocol::NetResponse::AuditEvents(got)) = decode_response_shared(&Bytes::from(bad)) {
            prop_assert_ne!(got, page);
        }
    }

    /// Frame layer roundtrips arbitrary payloads under the cap.
    #[test]
    fn frames_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload, 1024).unwrap();
        let mut r = Cursor::new(buf);
        prop_assert_eq!(read_frame(&mut r, 1024).unwrap(), Some(payload));
        prop_assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    /// Truncating a framed message at any byte yields Truncated (or a
    /// clean EOF when cut exactly at the frame boundary start).
    #[test]
    fn truncated_frames_error_cleanly(payload in proptest::collection::vec(any::<u8>(), 1..128), pos in any::<prop::sample::Index>()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload, 1024).unwrap();
        let cut = pos.index(buf.len());
        let mut r = Cursor::new(&buf[..cut]);
        match read_frame(&mut r, 1024) {
            Ok(None) => prop_assert_eq!(cut, 0),
            Err(NetError::Truncated) => prop_assert!(cut > 0),
            other => prop_assert!(false, "unexpected result: {:?}", other),
        }
    }
}
