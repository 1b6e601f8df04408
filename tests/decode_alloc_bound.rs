//! A hostile count must not size an allocation. Every wire decoder — the
//! `strongworm` codecs, `wormnet`'s requests and responses, `wormaudit`'s
//! page — runs on valid encodings with each 4-byte window overwritten by
//! a huge, a cap-sized and a large count, and no single allocation it
//! makes may exceed 512 bytes per input byte plus 64 KiB: what decoding
//! the input can honestly need, whatever a count claims.
//!
//! This is its own test binary because it installs a counting global
//! allocator; only the thread that decodes is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use scpu::Timestamp;
use strongworm::attr::RecordAttributes;
use strongworm::codec::*;
use strongworm::firmware::{DeviceKeys, WeakKeyCert};
use strongworm::proofs::{BaseCert, DeletionProof, HeadCert, WindowProof};
use strongworm::witness::{Signature, Witness};
use strongworm::{
    CompositeBinding, CompositeHead, DeletionEvidence, HoldCredential, ReadOutcome, Regulation,
    ReleaseCredential, RetentionPolicy, SerialNumber, Vrd, WitnessMode,
};
use wormcrypt::RsaPublicKey;
use wormnet::protocol::{
    decode_request_traced, decode_response_shared, encode_request, encode_request_traced,
    encode_response, NetRequest, NetResponse,
};
use wormstore::{RecordDescriptor, RecordId, Shredder};

/// The largest single allocation the armed thread asked for.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if ARMED.with(Cell::get) {
        // ordering: one counter read by the same thread after the decode.
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the bookkeeping
// is a thread-local flag and an atomic, and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; see the impl's comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; see the impl's comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded unchanged; see the impl's comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; see the impl's comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Counts a window is overwritten with: past every cap, at the codecs'
/// list cap, and at the stats cap.
const HOSTILE: [u32; 3] = [0xFFFF_FFFF, 1 << 20, 1 << 16];

/// The largest single allocation `decode` makes on `input`.
fn largest_allocation(decode: &dyn Fn(&[u8]), input: &[u8]) -> usize {
    LARGEST.store(0, Ordering::Relaxed); // ordering: see `note`
    ARMED.with(|a| a.set(true));
    decode(input);
    ARMED.with(|a| a.set(false));
    LARGEST.load(Ordering::Relaxed) // ordering: see `note`
}

/// Runs `decode` on `valid` with every 4-byte window overwritten by each
/// hostile count, returning each allocation over the bound.
fn over_bound(name: &str, decode: &dyn Fn(&[u8]), valid: &[u8]) -> Vec<String> {
    let bound = 512 * valid.len() + (64 << 10);
    let mut over = Vec::new();
    for at in 0..valid.len().saturating_sub(3) {
        for count in HOSTILE {
            let mut input = valid.to_vec();
            input[at..at + 4].copy_from_slice(&count.to_be_bytes());
            let largest = largest_allocation(decode, &input);
            if largest > bound {
                over.push(format!(
                    "{name}: {largest} B from {} input bytes with {count:#x} at offset {at} \
                     (bound {bound} B)",
                    input.len()
                ));
            }
        }
    }
    over
}

/// Drops a decoder's verdict: only what decoding allocated matters.
fn discard<T>(_: T) {}

fn sig(b: u8) -> Signature {
    Signature {
        key_id: [b; 8],
        bytes: vec![b; 64],
    }
}

fn ts(ms: u64) -> Timestamp {
    Timestamp::from_millis(ms)
}

/// A structurally valid public key (decoding checks that n is odd and
/// above 1 and that e is non-zero).
fn key(n: u8) -> RsaPublicKey {
    let mut raw = 1u32.to_be_bytes().to_vec();
    raw.push(n);
    raw.extend_from_slice(&1u32.to_be_bytes());
    raw.push(3);
    RsaPublicKey::from_bytes(&raw).expect("valid key bytes")
}

fn attr() -> RecordAttributes {
    RecordAttributes {
        created_at: ts(10),
        retention_until: ts(99_999),
        regulation: Regulation::Hipaa,
        shredder: Shredder::MultiPass { passes: 3 },
        litigation_hold: None,
        flags: 7,
    }
}

fn rd(id: u64) -> RecordDescriptor {
    RecordDescriptor {
        id: RecordId(id),
        offset: 1024 * id,
        len: 333,
    }
}

fn vrd() -> Vrd {
    Vrd {
        sn: SerialNumber(42),
        attr: attr(),
        rdl: vec![rd(5), rd(6), rd(7)],
        metasig: Witness::Strong(sig(1)),
        datasig: Witness::Weak {
            sig: sig(2),
            expires_at: ts(777),
        },
    }
}

fn head(sn: u64) -> HeadCert {
    HeadCert {
        sn_current: SerialNumber(sn),
        issued_at: ts(9),
        sig: sig(6),
    }
}

fn composite() -> CompositeHead {
    let heads = vec![head(100), head(SerialNumber::lane_origin(1) + 3)];
    CompositeHead {
        binding: CompositeBinding {
            shard_count: 2,
            root: composite_root(&heads),
            issued_at: ts(11),
            sig: sig(9),
        },
        heads,
    }
}

fn deletion_proof() -> DeletionProof {
    DeletionProof {
        sn: SerialNumber(3),
        deleted_at: ts(55),
        sig: sig(3),
    }
}

fn window_proof() -> WindowProof {
    WindowProof {
        window_id: 0xABCD,
        lo: SerialNumber(10),
        hi: SerialNumber(20),
        lo_sig: sig(4),
        hi_sig: sig(5),
    }
}

fn base_cert() -> BaseCert {
    BaseCert {
        sn_base: SerialNumber(7),
        expires_at: ts(888),
        sig: sig(7),
    }
}

fn hold() -> HoldCredential {
    HoldCredential {
        sn: SerialNumber(7),
        issued_at: ts(100),
        litigation_id: 42,
        hold_until: ts(9_000),
        sig: sig(8),
    }
}

fn release() -> ReleaseCredential {
    ReleaseCredential {
        sn: SerialNumber(7),
        issued_at: ts(200),
        litigation_id: 42,
        sig: sig(9),
    }
}

fn weak_cert(n: u8) -> WeakKeyCert {
    WeakKeyCert {
        key: key(n),
        max_sig_expiry: ts(1234),
        sig: sig(2),
    }
}

fn device_keys() -> DeviceKeys {
    DeviceKeys {
        sign: key(5),
        delete: key(7),
    }
}

fn stats() -> wormtrace::StatsSnapshot {
    let reg = wormtrace::Registry::new();
    reg.op("server.read").record(1234, true);
    reg.op("server.write").record(987_654, true);
    reg.counter("net.frames_in").add(41);
    reg.gauge("net.queue_depth").set(3);
    reg.snapshot()
}

fn traces() -> Vec<wormtrace::CapturedTrace> {
    let span = |id: u64, op: &'static str, plane| wormtrace::SpanRecord {
        span_id: id,
        parent_span: id.saturating_sub(1),
        op: op.into(),
        plane,
        start_ns: id * 10,
        duration_ns: id * 100,
        sn: Some(id),
        ok: true,
    };
    vec![wormtrace::CapturedTrace {
        trace_id: 0xDEAD_BEEF,
        trigger: wormtrace::TraceTrigger::Slow,
        total_ns: 5_000_000,
        truncated_spans: 0,
        spans: vec![
            span(1, "net.request", wormtrace::Plane::Net),
            span(2, "server.read", wormtrace::Plane::Read),
        ],
    }]
}

fn audit_page() -> wormaudit::AuditPage {
    wormaudit::AuditPage {
        events: (0..3)
            .map(|seq| wormaudit::AuditEvent {
                seq,
                at_ms: 9_000 + seq,
                class: wormaudit::AuditClass::TamperDetected,
                sn: Some(seq),
                detail: "hash mismatch".into(),
                prev_hash: [7; 32],
            })
            .collect(),
        anchors: vec![wormaudit::AuditAnchor {
            seq: 2,
            chain_hash: [9; 32],
            issued_at_ms: 9_100,
            key_id: [2; 8],
            sig: vec![5; 64],
        }],
    }
}

fn outcomes() -> Vec<ReadOutcome> {
    vec![
        ReadOutcome::Data {
            vrd: vrd(),
            records: vec![Bytes::from_static(b"alpha"), Bytes::from_static(b"beta")],
            head: head(100),
        },
        ReadOutcome::Deleted {
            evidence: DeletionEvidence::Proof(deletion_proof()),
            head: head(100),
        },
        ReadOutcome::Deleted {
            evidence: DeletionEvidence::BelowBase(base_cert()),
            head: head(100),
        },
        ReadOutcome::Deleted {
            evidence: DeletionEvidence::InWindow(window_proof()),
            head: head(100),
        },
        ReadOutcome::NeverExisted { head: head(100) },
    ]
}

fn requests() -> Vec<NetRequest> {
    vec![
        NetRequest::Write {
            records: vec![Bytes::from_static(b"a"), Bytes::from_static(b"bc")],
            policy: RetentionPolicy::custom(
                std::time::Duration::from_secs(30),
                Shredder::MultiPass { passes: 3 },
            ),
            flags: 0xDEAD_BEEF,
            witness: WitnessMode::Deferred,
        },
        NetRequest::Read {
            sn: SerialNumber(42),
        },
        NetRequest::Delete {
            sn: SerialNumber(7),
        },
        NetRequest::LitHold(hold()),
        NetRequest::LitRelease(release()),
        NetRequest::Tick,
        NetRequest::Stats,
        NetRequest::Traces,
        NetRequest::GetCompositeHead,
        NetRequest::GetShardKeys,
        NetRequest::FetchAuditEvents {
            from_seq: 3,
            max_events: 4096,
        },
    ]
}

fn responses() -> Vec<NetResponse> {
    let mut out = vec![
        NetResponse::Error {
            code: 6,
            message: "undecodable".into(),
        },
        NetResponse::Written {
            sn: SerialNumber(9),
        },
        NetResponse::Ack,
        NetResponse::Stats(stats()),
        NetResponse::Traces(traces()),
        NetResponse::CompositeHead(composite()),
        NetResponse::ShardKeys(vec![
            (device_keys(), vec![weak_cert(13), weak_cert(17)]),
            (device_keys(), vec![weak_cert(19)]),
        ]),
        NetResponse::AuditEvents(audit_page()),
    ];
    out.extend(outcomes().into_iter().map(NetResponse::Outcome));
    out
}

#[test]
fn no_decoder_sizes_an_allocation_from_a_hostile_count() {
    type Decoder = Box<dyn Fn(&[u8])>;
    let shared = |f: fn(&Bytes) -> bool| move |b: &[u8]| discard(f(&Bytes::from(b.to_vec())));
    let mut cases: Vec<(&str, Decoder, Vec<u8>)> = vec![
        (
            "decode_vrd",
            Box::new(|b| discard(decode_vrd(b))),
            encode_vrd(&vrd()),
        ),
        (
            "RecordAttributes::decode",
            Box::new(|b| discard(RecordAttributes::decode(b))),
            attr().encode(),
        ),
        (
            "decode_deletion_proof",
            Box::new(|b| discard(decode_deletion_proof(b))),
            encode_deletion_proof(&deletion_proof()),
        ),
        (
            "decode_window_proof",
            Box::new(|b| discard(decode_window_proof(b))),
            encode_window_proof(&window_proof()),
        ),
        (
            "decode_head_cert",
            Box::new(|b| discard(decode_head_cert(b))),
            encode_head_cert(&head(5)),
        ),
        (
            "decode_composite_head",
            Box::new(|b| discard(decode_composite_head(b))),
            encode_composite_head(&composite()),
        ),
        (
            "decode_base_cert",
            Box::new(|b| discard(decode_base_cert(b))),
            encode_base_cert(&base_cert()),
        ),
        (
            "decode_shred_pass",
            Box::new(|b| discard(decode_shred_pass(b))),
            encode_shred_pass(4096, 2),
        ),
        (
            "decode_shred_done",
            Box::new(|b| discard(decode_shred_done(b))),
            encode_shred_done(4096),
        ),
        (
            "decode_hold_credential",
            Box::new(|b| discard(decode_hold_credential(b))),
            encode_hold_credential(&hold()),
        ),
        (
            "decode_release_credential",
            Box::new(|b| discard(decode_release_credential(b))),
            encode_release_credential(&release()),
        ),
        (
            "decode_weak_key_cert",
            Box::new(|b| discard(decode_weak_key_cert(b))),
            encode_weak_key_cert(&weak_cert(3)),
        ),
        (
            "decode_device_keys",
            Box::new(|b| discard(decode_device_keys(b))),
            encode_device_keys(&device_keys()),
        ),
        (
            "decode_stats_snapshot",
            Box::new(|b| discard(decode_stats_snapshot(b))),
            encode_stats_snapshot(&stats()),
        ),
        (
            "decode_captured_traces",
            Box::new(|b| discard(decode_captured_traces(b))),
            encode_captured_traces(&traces()),
        ),
        (
            "decode_audit_page",
            Box::new(|b| discard(wormaudit::codec::decode_audit_page(b))),
            wormaudit::codec::encode_audit_page(&audit_page()),
        ),
    ];
    for o in outcomes() {
        let mut w = strongworm::wire::WireWriter::new();
        encode_read_outcome_into(&mut w, &o);
        cases.push((
            "decode_read_outcome_shared",
            Box::new(shared(|b| decode_read_outcome_shared(b).is_ok())),
            w.finish(),
        ));
    }
    let ctx = wormtrace::TraceContext {
        trace_id: 0xABCD,
        parent_span: 17,
    };
    for req in requests() {
        for enc in [encode_request(&req), encode_request_traced(&req, ctx)] {
            cases.push((
                "decode_request_traced",
                Box::new(|b| discard(decode_request_traced(b))),
                enc,
            ));
        }
    }
    for resp in responses() {
        cases.push((
            "decode_response_shared",
            Box::new(shared(|b| decode_response_shared(b).is_ok())),
            encode_response(&resp),
        ));
    }

    let mut over = Vec::new();
    for (name, decode, valid) in &cases {
        // The samples are valid: a window overwritten is what fails.
        assert!(
            largest_allocation(decode.as_ref(), valid) <= 512 * valid.len() + (64 << 10),
            "{name} over its bound on a valid encoding"
        );
        over.extend(over_bound(name, decode.as_ref(), valid));
    }
    assert!(
        over.is_empty(),
        "{} hostile inputs allocate past the bound:\n{}",
        over.len(),
        over.join("\n")
    );
}
