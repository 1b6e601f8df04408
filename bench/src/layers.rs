//! Per-layer timings taken from outside: the workload's own read
//! sequence replayed in-process through each public boundary in turn,
//! one span per call, plus the few primitives that have no request to
//! ride on.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use strongworm::vrdt::Lookup;
use strongworm::{ReadOutcome, RetentionPolicy, SerialNumber, Verifier, WormServer};
use wormcrypt::{Digest, HashAlg, RsaPrivateKey, Sha256};
use wormnet::frame::{append_frame, parse_frame};
use wormnet::protocol::{decode_response_shared, encode_response};
use wormnet::{NetResponse, DEFAULT_MAX_FRAME};
use wormstore::{BlockDevice, MemDisk, RecordStore};

use crate::gen::Payloads;
use crate::rig::{Rig, FRESHNESS, STRONG_BITS};
use crate::span::{Recorder, Span};
use crate::workload::Values;

/// Requests replayed per stage for records up to a few KiB.
pub const REPLAY_OPS: usize = 8192;
/// Strict request/response round trips timed for `wire.rtt_raw_ns`.
const RTT_OPS: usize = 2048;
/// Distinct records a fresh verifier is timed on: below every memo's
/// capacity, so the first pass is all misses and the second all hits.
const VERIFY_DISTINCT: usize = 512;
/// In-process witnessed writes timed for `witness.write_ns`.
const WITNESS_WRITES: usize = 32;

fn mean_ns(spans: &[Span]) -> f64 {
    if spans.is_empty() {
        return 0.0;
    }
    spans.iter().map(Span::dur_ns).sum::<u64>() as f64 / spans.len() as f64
}

/// Replays reads of `sns` through store → VRDT → read plane → encode →
/// frame → decode → verify, then times strict wire round trips of the
/// same reads. The stages and `wire.residual_ns` sum to
/// `wire.rtt_raw_ns` by construction: the residual is what the
/// in-process stages do not explain (reactor, syscalls, wake-ups).
pub fn read_stages<D: BlockDevice + 'static>(
    rig: &mut Rig<D>,
    sns: &[u64],
    rec: &mut Recorder,
) -> Values {
    let server = &rig.server;
    let mut v = Values::new();

    let extents: Vec<_> = {
        let vrdt = server.vrdt();
        sns.iter()
            .filter_map(|&sn| match vrdt.lookup(SerialNumber(sn)) {
                Lookup::Active(vrd) => vrd.rdl.first().copied(),
                _ => None,
            })
            .collect()
    };
    let from = rec.spans.len();
    for (i, rd) in extents.iter().enumerate() {
        rec.time("stage.store_read", i as u32, || {
            black_box(server.store().read(rd).expect("live extent reads"))
        });
    }
    v.insert("wormstore.read_ns", mean_ns(&rec.spans[from..]));

    let from = rec.spans.len();
    for (i, &sn) in sns.iter().enumerate() {
        rec.time("stage.vrdt_lookup", i as u32, || {
            // Lock included: this is what a reader pays.
            let vrdt = server.vrdt();
            black_box(matches!(vrdt.lookup(SerialNumber(sn)), Lookup::Unknown));
        });
    }
    v.insert("vrdt.lookup_ns", mean_ns(&rec.spans[from..]));

    let from = rec.spans.len();
    let outcomes: Vec<NetResponse> = sns
        .iter()
        .enumerate()
        .map(|(i, &sn)| {
            let outcome = rec.time("stage.read_plane", i as u32, || {
                server.read(SerialNumber(sn)).expect("in-process read")
            });
            NetResponse::Outcome(outcome)
        })
        .collect();
    let read_plane = mean_ns(&rec.spans[from..]);
    v.insert("read_plane.read_ns", read_plane);

    let from = rec.spans.len();
    let encoded: Vec<Vec<u8>> = outcomes
        .iter()
        .enumerate()
        .map(|(i, resp)| rec.time("stage.encode", i as u32, || encode_response(resp)))
        .collect();
    let encode = mean_ns(&rec.spans[from..]);
    v.insert("codec.encode_response_ns", encode);
    let payload_bytes: usize = outcomes
        .iter()
        .map(|r| match r {
            NetResponse::Outcome(ReadOutcome::Data { records, .. }) => {
                records.iter().map(Bytes::len).sum()
            }
            _ => 0,
        })
        .sum();
    if payload_bytes > 0 {
        let wire_bytes: usize = encoded.iter().map(Vec::len).sum();
        v.insert(
            "codec.response_bytes_per_payload_byte",
            wire_bytes as f64 / payload_bytes as f64,
        );
    }
    drop(outcomes);

    let from = rec.spans.len();
    let mut buf = Vec::new();
    for (i, payload) in encoded.iter().enumerate() {
        rec.time("stage.frame", i as u32, || {
            buf.clear();
            append_frame(&mut buf, payload, DEFAULT_MAX_FRAME).expect("under the frame cap");
            black_box(parse_frame(&buf, DEFAULT_MAX_FRAME).expect("whole frame"));
        });
    }
    let frame = mean_ns(&rec.spans[from..]);
    v.insert("frame.append_parse_ns", frame);

    let from = rec.spans.len();
    let decoded: Vec<ReadOutcome> = encoded
        .into_iter()
        .enumerate()
        .map(|(i, payload)| {
            let shared = Bytes::from(payload);
            let resp = rec.time("stage.decode", i as u32, || {
                decode_response_shared(&shared).expect("own encoding decodes")
            });
            match resp {
                NetResponse::Outcome(o) => o,
                _ => unreachable!("encoded an Outcome"),
            }
        })
        .collect();
    let decode = mean_ns(&rec.spans[from..]);
    v.insert("codec.decode_response_ns", decode);

    // The workload's own verifier, memos as the run left them.
    for (i, (&sn, outcome)) in sns.iter().zip(&decoded).enumerate() {
        rec.time("stage.verify", i as u32, || {
            black_box(rig.verifier.verify_read(SerialNumber(sn), outcome).is_ok())
        });
    }

    // A fresh verifier over distinct records: first pass misses every
    // memo, second pass hits every memo.
    let mut distinct: Vec<(u64, &ReadOutcome)> = Vec::new();
    let mut deleted: Vec<(u64, &ReadOutcome)> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for (&sn, outcome) in sns.iter().zip(&decoded) {
        if !seen.insert(sn) {
            continue;
        }
        match outcome {
            ReadOutcome::Data { .. } if distinct.len() < VERIFY_DISTINCT => {
                distinct.push((sn, outcome))
            }
            ReadOutcome::Deleted { .. } if deleted.len() < VERIFY_DISTINCT => {
                deleted.push((sn, outcome))
            }
            _ => {}
        }
    }
    let fresh =
        || Verifier::new(server.keys(), FRESHNESS, rig.clock.clone()).expect("served keys verify");
    let pass = |verifier: &Verifier, set: &[(u64, &ReadOutcome)]| {
        let t = Instant::now();
        for (sn, outcome) in set {
            black_box(verifier.verify_read(SerialNumber(*sn), outcome).is_ok());
        }
        t.elapsed().as_nanos() as f64 / set.len().max(1) as f64
    };
    if !distinct.is_empty() {
        let verifier = fresh();
        v.insert("verify.cold_ns", pass(&verifier, &distinct));
        v.insert("verify.warm_ns", pass(&verifier, &distinct));
    }
    if !deleted.is_empty() {
        v.insert("verify.deleted_ns", pass(&fresh(), &deleted));
    }
    drop(decoded);

    let from = rec.spans.len();
    for (i, &sn) in sns.iter().take(RTT_OPS).enumerate() {
        rec.time("wire.rtt_raw", i as u32, || {
            black_box(rig.client.read_raw(SerialNumber(sn)).expect("strict read"))
        });
    }
    let rtt = mean_ns(&rec.spans[from..]);
    v.insert("wire.rtt_raw_ns", rtt);
    v.insert(
        "wire.residual_ns",
        rtt - read_plane - encode - frame - decode,
    );
    v
}

/// Times `WormServer::write` in-process (witness plane, SCPU emulation,
/// store, VRDT insert; no wire). The records stay, tagged densely, so
/// the end-of-run read-back covers them.
pub fn witness_writes<D: BlockDevice>(
    server: &WormServer<D>,
    payloads: &Payloads,
    next_tag: &mut u64,
    record_bytes: usize,
    policy: RetentionPolicy,
    rec: &mut Recorder,
) -> f64 {
    let from = rec.spans.len();
    for i in 0..WITNESS_WRITES {
        let payload = payloads.make(*next_tag, record_bytes);
        let sn = rec.time("stage.witness_write", i as u32, || {
            server.write(&[&payload], policy).expect("in-process write")
        });
        assert_eq!(sn.0, *next_tag + 1, "dense serial numbers");
        *next_tag += 1;
    }
    mean_ns(&rec.spans[from..])
}

/// Primitives with no request to ride on: RSA at the permanent-key
/// width, SHA-256 per KiB, and a bare `RecordStore::write`.
pub fn primitives(record_bytes: usize) -> Values {
    let mut v = Values::new();
    let key = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(0xB16), STRONG_BITS);
    let msg = [0x5Au8; 64];
    // Best of five batches: a disturbed batch is slower, never faster.
    let per = |n: u32, mut f: Box<dyn FnMut() + '_>| {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..n {
                    f();
                }
                t.elapsed().as_nanos() as f64 / f64::from(n)
            })
            .fold(f64::INFINITY, f64::min)
    };
    let sig = key
        .sign(&msg, HashAlg::Sha256)
        .expect("modulus fits SHA-256");
    v.insert(
        "wormcrypt.rsa_sign_ns",
        per(
            32,
            Box::new(|| drop(black_box(key.sign(black_box(&msg), HashAlg::Sha256)))),
        ),
    );
    v.insert(
        "wormcrypt.rsa_verify_ns",
        per(
            512,
            Box::new(|| {
                black_box(key.public().verify(black_box(&msg), &sig, HashAlg::Sha256));
            }),
        ),
    );
    let block = vec![0xC3u8; 64 << 10];
    v.insert(
        "wormcrypt.sha256_ns_per_kib",
        per(
            64,
            Box::new(|| drop(black_box(Sha256::digest(black_box(&block))))),
        ) / 64.0,
    );
    let store = RecordStore::new(MemDisk::unmetered(5 * 128 * record_bytes));
    let record = vec![0x3Cu8; record_bytes];
    v.insert(
        "wormstore.write_ns",
        per(
            128,
            Box::new(|| {
                black_box(store.write(black_box(&record)).expect("sized to fit"));
            }),
        ),
    );
    v
}
