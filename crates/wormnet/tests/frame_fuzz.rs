//! Fuzz-style property tests of the network layer: frames and protocol
//! payloads arrive from an untrusted peer, so decoding must be total —
//! errors, never panics, never unbounded allocation — and valid
//! encodings must survive a roundtrip bit-for-bit.

use std::io::{Cursor, ErrorKind, Read};
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use scpu::Timestamp;
use strongworm::firmware::{DeviceKeys, WeakKeyCert};
use strongworm::proofs::{DeletionProof, HeadCert};
use strongworm::wire::WireReader;
use strongworm::witness::{Signature, Witness};
use strongworm::{
    CompositeBinding, CompositeHead, DeletionEvidence, HoldCredential, ReadOutcome,
    ReleaseCredential, RetentionPolicy, SerialNumber, Vrd, WitnessMode,
};
use wormnet::frame::{append_frame, write_frame, FrameReader, DEFAULT_MAX_FRAME};
use wormnet::protocol::{
    decode_request, decode_request_traced, decode_response_shared, encode_request,
    encode_request_traced, encode_response, NetRequest, NetResponse,
};
use wormnet::NetError;
use wormstore::{RecordDescriptor, RecordId, Shredder};

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

/// The variant a request is, numbered. The match is exhaustive, so a
/// variant added to `NetRequest` does not compile until it has a number
/// here; `REQUEST_VARIANTS` is one past the last number, every number
/// below it is drawn by `arb_request`, and the roundtrip property fails
/// for a number `request_of` does not build.
fn request_variant(req: &NetRequest) -> usize {
    match req {
        NetRequest::Write { .. } => 0,
        NetRequest::Read { .. } => 1,
        NetRequest::Delete { .. } => 2,
        NetRequest::LitHold(_) => 3,
        NetRequest::LitRelease(_) => 4,
        NetRequest::Tick => 5,
        NetRequest::Stats => 6,
        NetRequest::Traces => 7,
        NetRequest::GetCompositeHead => 8,
        NetRequest::GetShardKeys => 9,
        NetRequest::FetchAuditEvents { .. } => 10,
    }
}

const REQUEST_VARIANTS: usize = 11;

/// The variant a response is, numbered; as `request_variant`.
fn response_variant(resp: &NetResponse) -> usize {
    match resp {
        NetResponse::Error { .. } => 0,
        NetResponse::Written { .. } => 1,
        NetResponse::Outcome(_) => 2,
        NetResponse::Ack => 3,
        NetResponse::Stats(_) => 4,
        NetResponse::Traces(_) => 5,
        NetResponse::CompositeHead(_) => 6,
        NetResponse::ShardKeys(_) => 7,
        NetResponse::AuditEvents(_) => 8,
    }
}

const RESPONSE_VARIANTS: usize = 9;

/// Random material a sample is built from.
#[derive(Clone, Debug)]
struct Parts {
    n: u64,
    m: u32,
    bytes: Vec<u8>,
    records: Vec<Vec<u8>>,
    policy: RetentionPolicy,
}

fn arb_parts() -> impl Strategy<Value = Parts> {
    (
        any::<u64>(),
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..72),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..5),
        arb_policy(),
    )
        .prop_map(|(n, m, bytes, records, policy)| Parts {
            n,
            m,
            bytes,
            records,
            policy,
        })
}

impl Parts {
    fn sig(&self) -> Signature {
        Signature {
            key_id: self.n.to_be_bytes(),
            bytes: self.bytes.clone(),
        }
    }

    fn ts(&self) -> Timestamp {
        Timestamp::from_millis(self.n)
    }

    /// A structurally valid public key (decoding checks only that n and
    /// e are non-zero).
    fn key(&self, salt: u8) -> wormcrypt::RsaPublicKey {
        let mut raw = 8u32.to_be_bytes().to_vec();
        raw.extend_from_slice(&(self.n | 1).to_be_bytes());
        raw.extend_from_slice(&1u32.to_be_bytes());
        raw.push(salt | 1);
        wormcrypt::RsaPublicKey::from_bytes(&raw).expect("valid key bytes")
    }

    fn weak_cert(&self) -> WeakKeyCert {
        WeakKeyCert {
            key: self.key(3),
            max_sig_expiry: self.ts(),
            sig: self.sig(),
        }
    }

    fn device_keys(&self) -> DeviceKeys {
        DeviceKeys {
            sign: self.key(5),
            delete: self.key(7),
            weak_cert: self.weak_cert(),
        }
    }

    fn head(&self) -> HeadCert {
        HeadCert {
            sn_current: SerialNumber(self.n),
            issued_at: self.ts(),
            sig: self.sig(),
        }
    }

    fn outcome(&self) -> ReadOutcome {
        match self.m % 3 {
            0 => ReadOutcome::Data {
                vrd: Vrd {
                    sn: SerialNumber(self.n),
                    attr: strongworm::attr::RecordAttributes {
                        created_at: self.ts(),
                        retention_until: self.ts(),
                        regulation: self.policy.regulation,
                        shredder: self.policy.shredder,
                        litigation_hold: None,
                        flags: self.m,
                    },
                    rdl: vec![RecordDescriptor {
                        id: RecordId(self.n),
                        offset: self.n / 2,
                        len: u64::from(self.m),
                    }],
                    metasig: Witness::Strong(self.sig()),
                    datasig: Witness::Mac {
                        tag: self.bytes.clone(),
                    },
                },
                records: self.records.iter().cloned().map(Bytes::from).collect(),
                head: self.head(),
            },
            1 => ReadOutcome::Deleted {
                evidence: DeletionEvidence::Proof(DeletionProof {
                    sn: SerialNumber(self.n),
                    deleted_at: self.ts(),
                    sig: self.sig(),
                }),
                head: self.head(),
            },
            _ => ReadOutcome::NeverExisted { head: self.head() },
        }
    }
}

/// The request of variant `v`, built from `p`.
fn request_of(v: usize, p: &Parts) -> NetRequest {
    match v {
        0 => NetRequest::Write {
            records: p.records.iter().cloned().map(Bytes::from).collect(),
            policy: p.policy,
            flags: p.m,
            witness: match p.m % 3 {
                0 => WitnessMode::Strong,
                1 => WitnessMode::Deferred,
                _ => WitnessMode::Hmac,
            },
        },
        1 => NetRequest::Read {
            sn: SerialNumber(p.n),
        },
        2 => NetRequest::Delete {
            sn: SerialNumber(p.n),
        },
        3 => NetRequest::LitHold(HoldCredential {
            sn: SerialNumber(p.n),
            issued_at: p.ts(),
            litigation_id: u64::from(p.m),
            hold_until: p.ts(),
            sig: p.sig(),
        }),
        4 => NetRequest::LitRelease(ReleaseCredential {
            sn: SerialNumber(p.n),
            issued_at: p.ts(),
            litigation_id: u64::from(p.m),
            sig: p.sig(),
        }),
        5 => NetRequest::Tick,
        6 => NetRequest::Stats,
        7 => NetRequest::Traces,
        8 => NetRequest::GetCompositeHead,
        9 => NetRequest::GetShardKeys,
        10 => NetRequest::FetchAuditEvents {
            from_seq: p.n,
            max_events: p.m,
        },
        _ => panic!("no request is built for variant {v}"),
    }
}

/// The response of variant `v`, built from `p` and `page`.
fn response_of(v: usize, p: &Parts, page: wormaudit::AuditPage) -> NetResponse {
    match v {
        0 => NetResponse::Error {
            code: p.bytes.first().copied().unwrap_or(0),
            message: String::from_utf8_lossy(&p.bytes).into_owned(),
        },
        1 => NetResponse::Written {
            sn: SerialNumber(p.n),
        },
        2 => NetResponse::Outcome(p.outcome()),
        3 => NetResponse::Ack,
        4 => {
            let reg = wormtrace::Registry::new();
            reg.op("server.read").record(p.n, p.m.is_multiple_of(2));
            reg.counter("net.frames_in").add(u64::from(p.m));
            NetResponse::Stats(reg.snapshot())
        }
        5 => NetResponse::Traces(vec![wormtrace::CapturedTrace {
            trace_id: p.n,
            trigger: wormtrace::TraceTrigger::Error,
            total_ns: u64::from(p.m),
            truncated_spans: 0,
            spans: vec![wormtrace::SpanRecord {
                span_id: 1,
                parent_span: 0,
                op: "net.request".into(),
                plane: wormtrace::Plane::Net,
                start_ns: 0,
                duration_ns: u64::from(p.m),
                sn: Some(p.n),
                ok: false,
            }],
        }]),
        6 => {
            let heads = vec![p.head(); p.records.len()];
            NetResponse::CompositeHead(CompositeHead {
                binding: CompositeBinding {
                    shard_count: p.m,
                    root: strongworm::codec::composite_root(&heads),
                    issued_at: p.ts(),
                    sig: p.sig(),
                },
                heads,
            })
        }
        7 => NetResponse::ShardKeys(vec![
            (p.device_keys(), vec![p.weak_cert()]);
            p.records.len()
        ]),
        8 => NetResponse::AuditEvents(page),
        _ => panic!("no response is built for variant {v}"),
    }
}

fn arb_request() -> impl Strategy<Value = NetRequest> {
    (0..REQUEST_VARIANTS, arb_parts()).prop_map(|(v, p)| request_of(v, &p))
}

/// The opcodes `docs/PROTOCOL.md`'s request table has a row for.
fn documented_opcodes() -> Vec<u8> {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/PROTOCOL.md"
    ))
    .expect("docs/PROTOCOL.md");
    doc.lines()
        .filter_map(|l| l.strip_prefix("| ")?.split(" |").next()?.parse().ok())
        .collect()
}

/// The byte after a message's tag: a request's opcode, a response's
/// discriminant.
fn opcode(enc: &[u8]) -> u8 {
    let mut r = WireReader::new(enc);
    r.get_str().expect("tag");
    r.get_u8().expect("opcode")
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

    /// Requests of every variant roundtrip exactly, bare and in the
    /// trace-context envelope, under an opcode `docs/PROTOCOL.md`
    /// documents; every strict prefix fails. Two variants sharing an
    /// opcode fail here: one of them decodes as the other.
    #[test]
    fn requests_roundtrip_and_reject_prefixes(v in 0..REQUEST_VARIANTS, p in arb_parts()) {
        let req = request_of(v, &p);
        prop_assert_eq!(request_variant(&req), v);
        let documented = documented_opcodes();
        let enc = encode_request(&req);
        prop_assert_eq!(decode_request(&enc).unwrap(), req.clone());
        prop_assert!(documented.contains(&opcode(&enc)), "opcode {} has no row", opcode(&enc));
        for cut in 0..enc.len() {
            prop_assert!(decode_request(&enc[..cut]).is_err());
        }
        let ctx = wormtrace::TraceContext { trace_id: p.n, parent_span: u64::from(p.m) };
        let traced = encode_request_traced(&req, ctx);
        prop_assert_eq!(decode_request_traced(&traced).unwrap(), (req, Some(ctx)));
        prop_assert!(documented.contains(&opcode(&traced)), "opcode {} has no row", opcode(&traced));
    }

    /// Responses of every variant roundtrip to the same bytes and the
    /// same variant; every strict prefix fails. Two variants sharing a
    /// discriminant fail here: one of them decodes as the other.
    #[test]
    fn responses_roundtrip_and_reject_prefixes(
        v in 0..RESPONSE_VARIANTS,
        p in arb_parts(),
        page in arb_audit_page(),
    ) {
        let resp = response_of(v, &p, page);
        prop_assert_eq!(response_variant(&resp), v);
        let enc = Bytes::from(encode_response(&resp));
        let decoded = decode_response_shared(&enc).unwrap();
        prop_assert_eq!(response_variant(&decoded), v);
        prop_assert_eq!(encode_response(&decoded), enc.to_vec());
        for cut in 0..enc.len() {
            prop_assert!(decode_response_shared(&enc.slice(..cut)).is_err());
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
