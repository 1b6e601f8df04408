//! Fuzz-style property tests of the network layer: frames and protocol
//! payloads arrive from an untrusted peer, so decoding must be total —
//! errors, never panics, never unbounded allocation — and valid
//! encodings must survive a roundtrip bit-for-bit.

use std::io::{Cursor, ErrorKind, Read};
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use strongworm::{RetentionPolicy, SerialNumber, WitnessMode};
use wormnet::frame::{append_frame, write_frame, FrameReader, DEFAULT_MAX_FRAME};
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
        let mut r = FrameReader::new(Cursor::new(buf), 1024);
        prop_assert_eq!(r.next_frame().unwrap().map(Vec::from), Some(payload));
        prop_assert!(r.next_frame().unwrap().is_none());
    }

    /// Truncating a framed message at any byte yields Truncated (or a
    /// clean EOF when cut exactly at the frame boundary start).
    #[test]
    fn truncated_frames_error_cleanly(payload in proptest::collection::vec(any::<u8>(), 1..128), pos in any::<prop::sample::Index>()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload, 1024).unwrap();
        let cut = pos.index(buf.len());
        buf.truncate(cut);
        match FrameReader::new(Cursor::new(buf), 1024).next_frame() {
            Ok(None) => prop_assert_eq!(cut, 0),
            Err(NetError::Truncated) => prop_assert!(cut > 0),
            other => prop_assert!(false, "unexpected result: {:?}", other),
        }
    }

    /// Frames from empty to larger than the receive buffer come out
    /// whole and in order however the stream splits them, and a frame
    /// kept while later ones arrive keeps its bytes.
    #[test]
    fn frames_come_out_whole_and_in_order_under_short_reads(
        sizes in proptest::collection::vec(arb_frame_len(), 0..8),
        cuts in arb_cuts(),
    ) {
        let (wire, frames) = framed(&sizes);
        let mut r = FrameReader::new(ShortReads::new(wire, cuts), DEFAULT_MAX_FRAME);
        let mut kept = Vec::new();
        for (i, want) in frames.iter().enumerate() {
            let got = r.next_frame().unwrap().expect("a frame is due");
            prop_assert_eq!(&got[..], &want[..], "frame {} of {:?}", i, sizes);
            if i % 2 == 0 {
                kept.push((got, want));
            }
        }
        prop_assert!(r.next_frame().unwrap().is_none());
        for (got, want) in kept {
            prop_assert_eq!(&got[..], &want[..]);
        }
    }

    /// A stream that ends between frames is a clean end; one that ends
    /// inside a header or a payload is `Truncated`.
    #[test]
    fn eof_between_frames_is_clean_and_inside_one_is_truncated(
        sizes in proptest::collection::vec(0usize..3000, 1..6),
        cuts in arb_cuts(),
        pos in any::<prop::sample::Index>(),
    ) {
        let (mut wire, frames) = framed(&sizes);
        let cut = pos.index(wire.len() + 1);
        wire.truncate(cut);
        let mut boundaries = vec![0];
        for f in &frames {
            boundaries.push(boundaries.last().unwrap() + 4 + f.len());
        }
        let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        let mut r = FrameReader::new(ShortReads::new(wire, cuts), DEFAULT_MAX_FRAME);
        for want in frames.iter().take(whole) {
            let got = r.next_frame().unwrap().expect("a whole frame");
            prop_assert_eq!(&got[..], &want[..]);
        }
        match r.next_frame() {
            Ok(None) => prop_assert!(boundaries.contains(&cut), "clean end at {}", cut),
            Err(NetError::Truncated) => prop_assert!(!boundaries.contains(&cut), "truncated at {}", cut),
            other => prop_assert!(false, "unexpected result at {}: {:?}", cut, other),
        }
    }

    /// A header over the cap is refused the moment it is buffered: the
    /// reader is never asked for a byte of the payload it announces.
    #[test]
    fn an_over_cap_header_is_refused_before_its_payload_is_read(
        sizes in proptest::collection::vec(0usize..1000, 0..4),
        cuts in arb_cuts(),
        over in 1u32..1_000_000,
    ) {
        const MAX: u32 = 4096;
        let (mut wire, frames) = framed(&sizes);
        let header_end = wire.len() + 4;
        wire.extend_from_slice(&(MAX + over).to_be_bytes());
        wire.extend_from_slice(&[0xEE; 64]);
        let mut reads = ShortReads::new(wire, cuts);
        // The header ends a segment, as if its payload had not arrived.
        reads.segment_end = Some(header_end);
        let mut r = FrameReader::new(&mut reads, MAX);
        for want in &frames {
            prop_assert_eq!(&r.next_frame().unwrap().unwrap()[..], &want[..]);
        }
        for _ in 0..2 {
            match r.next_frame() {
                Err(NetError::FrameTooLarge { len, max }) => {
                    prop_assert_eq!(len, u64::from(MAX + over));
                    prop_assert_eq!(max, u64::from(MAX));
                }
                other => prop_assert!(false, "expected FrameTooLarge, got {:?}", other),
            }
        }
        drop(r);
        prop_assert_eq!(reads.at, header_end);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Frames a caller keeps stay byte-identical across 1,000 later
    /// receives: the buffer is reused only when no view of it is alive.
    #[test]
    fn kept_frames_stay_byte_identical_across_a_thousand_later_receives(
        sizes in proptest::collection::vec(0usize..6000, 1001),
        cuts in arb_cuts(),
        keep in proptest::collection::vec(any::<prop::sample::Index>(), 3),
    ) {
        let (wire, frames) = framed(&sizes);
        let keep: Vec<usize> = keep.iter().map(|k| k.index(8)).collect();
        let mut r = FrameReader::new(ShortReads::new(wire, cuts), DEFAULT_MAX_FRAME);
        let mut kept = Vec::new();
        for (i, want) in frames.iter().enumerate() {
            let got = r.next_frame().unwrap().expect("a frame is due");
            prop_assert_eq!(&got[..], &want[..]);
            if keep.contains(&i) {
                kept.push((got, want));
            }
            for (k, w) in &kept {
                prop_assert_eq!(&k[..], &w[..], "a kept frame changed at receive {}", i);
            }
        }
        prop_assert!(r.next_frame().unwrap().is_none());
    }
}

/// Frame lengths from empty to past the 256 KiB receive buffer.
fn arb_frame_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        4 => 0usize..64,
        4 => 64usize..8192,
        1 => (256usize << 10) - 8..(256 << 10) + 8,
        1 => (256usize << 10) + 8..300 << 10,
    ]
}

/// Sizes of successive reads, at least one of them not 0; 0 stands for
/// a read interrupted by a signal.
fn arb_cuts() -> impl Strategy<Value = Vec<usize>> {
    (
        proptest::collection::vec(
            prop_oneof![1 => Just(0usize), 4 => 1usize..8, 4 => 8usize..80_000],
            0..8,
        ),
        1usize..80_000,
    )
        .prop_map(|(mut cuts, last)| {
            cuts.push(last);
            cuts
        })
}

/// The wire form of frames of `sizes` bytes, and their payloads; each
/// payload's bytes depend on its index and position.
fn framed(sizes: &[usize]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let frames: Vec<Vec<u8>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| (0..n).map(|j| (i * 31 + j * 7) as u8).collect())
        .collect();
    let mut wire = Vec::new();
    for f in &frames {
        append_frame(&mut wire, f, DEFAULT_MAX_FRAME).unwrap();
    }
    (wire, frames)
}

/// A stream that hands out `wire` in reads of the sizes in `cuts`, in
/// turn, as a socket hands out what has arrived.
struct ShortReads {
    wire: Vec<u8>,
    cuts: Vec<usize>,
    reads: usize,
    /// Bytes handed out so far.
    at: usize,
    /// No read crosses this offset: the end of a segment.
    segment_end: Option<usize>,
}

impl ShortReads {
    fn new(wire: Vec<u8>, cuts: Vec<usize>) -> Self {
        ShortReads {
            wire,
            cuts,
            reads: 0,
            at: 0,
            segment_end: None,
        }
    }
}

impl Read for ShortReads {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let cut = self.cuts[self.reads % self.cuts.len()];
        self.reads += 1;
        if cut == 0 {
            return Err(ErrorKind::Interrupted.into());
        }
        let mut end = self.wire.len().min(self.at + cut.min(buf.len()));
        if let Some(segment_end) = self.segment_end.filter(|&e| self.at < e) {
            end = end.min(segment_end);
        }
        let n = end - self.at;
        buf[..n].copy_from_slice(&self.wire[self.at..end]);
        self.at = end;
        Ok(n)
    }
}
