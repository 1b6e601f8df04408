//! End-to-end network tests: a real `NetServer` on loopback, driven by
//! concurrent `RemoteWormClient`s, with every response verified
//! client-side — plus a byte-flipping proxy proving that in-flight
//! tampering cannot survive verification.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::{Clock, VirtualClock};
use strongworm::{
    ReadVerdict, RegulatoryAuthority, RetentionPolicy, SerialNumber, ShardedWormServer, Verifier,
    WitnessMode, WormConfig, WormServer,
};
use wormnet::frame::{write_frame, FrameReader, DEFAULT_MAX_FRAME};
use wormnet::{NetError, NetServer, NetServerConfig, RemoteWormClient};
use wormstore::{BlockDevice, MemDisk, Shredder};

const CLIENTS: usize = 4;

struct Harness {
    net: NetServer,
    /// Retained so tests can inspect gauges and the flight recorder
    /// after `net.shutdown()` (the registry outlives the listener).
    server: Arc<ShardedWormServer>,
    clock: Arc<VirtualClock>,
    regulator: RegulatoryAuthority,
}

/// A one-lane deployment on loopback.
fn boot(config: NetServerConfig) -> Harness {
    boot_lanes(1, config)
}

fn boot_lanes(lanes: u32, config: NetServerConfig) -> Harness {
    let clock = VirtualClock::new();
    let mut rng = StdRng::seed_from_u64(7777);
    let regulator = RegulatoryAuthority::generate(&mut rng, 512);
    let server = Arc::new(
        ShardedWormServer::new(
            WormConfig::test_small(),
            clock.clone(),
            regulator.public(),
            lanes,
        )
        .unwrap(),
    );
    let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", config).unwrap();
    Harness {
        net,
        server,
        clock,
        regulator,
    }
}

fn policy(secs: u64) -> RetentionPolicy {
    RetentionPolicy::custom(Duration::from_secs(secs), Shredder::ZeroFill)
}

#[test]
fn concurrent_clients_write_read_delete_all_verified() {
    let h = boot(NetServerConfig::default());
    let addr = h.net.local_addr();

    // Bootstrap the verifier over the wire, like a branch-office client.
    let verifier = {
        let mut c = RemoteWormClient::connect(addr).unwrap();
        Arc::new(
            c.bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
                .unwrap(),
        )
    };

    // Three phases, each joined before the next, so a client that fails
    // anywhere fails the test at once: the clients write and read back,
    // the main thread expires retention, the clients delete.
    let writers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let verifier = verifier.clone();
            std::thread::spawn(move || {
                // Write a multi-record VR, then read it back verified.
                let mut client = RemoteWormClient::connect(addr).unwrap();
                let body = format!("client-{t} record");
                let sn = client
                    .write(&[body.as_bytes(), b"second extent"], policy(60))
                    .unwrap();
                let (verdict, outcome) = client.read_verified(sn, &verifier).unwrap();
                assert_eq!(verdict, ReadVerdict::Intact { sn });
                assert_eq!(outcome.kind(), "data");
                (client, sn)
            })
        })
        .collect();
    let written: Vec<_> = writers
        .into_iter()
        .map(|w| w.join().expect("client thread panicked"))
        .collect();

    h.clock.advance(Duration::from_secs(61));

    let deleters: Vec<_> = written
        .into_iter()
        .enumerate()
        .map(|(t, (mut client, sn))| {
            let verifier = verifier.clone();
            std::thread::spawn(move || {
                // Retention has lapsed: drive the deletion and verify
                // the returned evidence end-to-end.
                let outcome = client.delete(sn).unwrap();
                assert_eq!(outcome.kind(), "deleted");
                assert!(matches!(
                    verifier.verify_read(sn, &outcome).unwrap(),
                    ReadVerdict::ConfirmedDeleted { .. }
                ));

                // A never-allocated SN yields a verifiable absence proof.
                let absent = SerialNumber(1_000_000 + t as u64);
                let (verdict, _) = client.read_verified(absent, &verifier).unwrap();
                assert_eq!(verdict, ReadVerdict::ConfirmedNeverExisted);
            })
        })
        .collect();
    for d in deleters {
        d.join().expect("client thread panicked");
    }
    assert!(h.net.requests_served() >= (CLIENTS * 4) as u64);
    h.net.shutdown();
}

/// The served certificate list is the device's: one certificate at boot,
/// the boot key's and the rotated key's after a rotation. A bootstrapped
/// verifier registers each distinct one once — so a weak witness has one
/// key to be checked against — before a weak-key rotation and after it,
/// at one lane and per lane of two.
#[test]
fn a_bootstrapped_verifier_holds_each_weak_certificate_once() {
    let h = boot(NetServerConfig::default());
    let mut c = RemoteWormClient::connect(h.net.local_addr()).unwrap();
    let tolerance = Duration::from_secs(300);
    let (_, booted) = c.fetch_shard_keys().unwrap().remove(0);
    assert_eq!(booted.len(), 1);
    let v = c.bootstrap_verifier(tolerance, h.clock.clone()).unwrap();
    assert_eq!(v.weak_certs(0), &booted[..]);

    // Past the weak key's lifetime the next deferred write rotates it.
    h.clock.advance(Duration::from_secs(121 * 60));
    let sn = c
        .write_with(
            &[b"after rotation"],
            policy(100_000),
            0,
            WitnessMode::Deferred,
        )
        .unwrap();
    let (_, served) = c.fetch_shard_keys().unwrap().remove(0);
    assert_eq!(served.len(), 2);
    assert_eq!(served[0], booted[0]);
    assert_ne!(served[0].key, served[1].key);
    let mut v = c.bootstrap_verifier(tolerance, h.clock.clone()).unwrap();
    assert_eq!(v.weak_certs(0), &served[..]);
    assert_eq!(
        c.read_verified(sn, &v).unwrap().0,
        ReadVerdict::Intact { sn }
    );
    // Registering the list again changes nothing; a certificate that does
    // not chain to the signing key is still refused.
    for cert in served.iter().cloned() {
        v.add_weak_cert(cert).unwrap();
    }
    assert_eq!(v.weak_certs(0), &served[..]);
    let mut forged = served[1].clone();
    forged.max_sig_expiry = forged.max_sig_expiry.after(Duration::from_secs(1));
    assert!(v.add_weak_cert(forged).is_err());
    assert_eq!(v.weak_certs(0), &served[..]);

    let sharded = boot_lanes(2, NetServerConfig::default());
    let mut c = RemoteWormClient::connect(sharded.net.local_addr()).unwrap();
    let lanes = c.fetch_shard_keys().unwrap();
    let v = c
        .bootstrap_verifier(tolerance, sharded.clock.clone())
        .unwrap();
    assert_eq!(lanes.len(), 2);
    assert_eq!(v.shard_count(), 2);
    for (lane, (_, served)) in (0u32..).zip(&lanes) {
        assert_eq!(served.len(), 1);
        assert_eq!(v.weak_certs(lane), &served[..]);
    }
    h.net.shutdown();
    sharded.net.shutdown();
}

#[test]
fn litigation_hold_blocks_deletion_over_the_wire() {
    let h = boot(NetServerConfig::default());
    let mut client = RemoteWormClient::connect(h.net.local_addr()).unwrap();
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
        .unwrap();

    let sn = client.write(&[b"under investigation"], policy(10)).unwrap();
    let now = h.clock.now();
    let hold = h
        .regulator
        .issue_hold(sn, now, 99, now.after(Duration::from_secs(3600)));
    client.lit_hold(hold).unwrap();

    // Retention lapses, but the hold keeps the record alive.
    h.clock.advance(Duration::from_secs(11));
    let outcome = client.delete(sn).unwrap();
    assert_eq!(outcome.kind(), "data");
    assert_eq!(
        verifier.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::Intact { sn }
    );

    // Release the hold; now deletion goes through and proves itself.
    let release = h.regulator.issue_release(sn, h.clock.now(), 99);
    client.lit_release(release).unwrap();
    let outcome = client.delete(sn).unwrap();
    assert!(matches!(
        verifier.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::ConfirmedDeleted { .. }
    ));
    h.net.shutdown();
}

/// One-connection proxy that relays frames both ways but flips the
/// last payload byte of every server→client frame.
fn tampering_proxy(upstream: SocketAddr) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (client_side, _) = listener.accept().unwrap();
        let server_side = TcpStream::connect(upstream).unwrap();
        let mut c_read = FrameReader::new(client_side.try_clone().unwrap(), DEFAULT_MAX_FRAME);
        let mut s_write = server_side.try_clone().unwrap();
        // Client → server: pass through untouched.
        std::thread::spawn(move || {
            while let Ok(Some(frame)) = c_read.next_frame() {
                if write_frame(&mut s_write, &frame, DEFAULT_MAX_FRAME).is_err() {
                    break;
                }
            }
        });
        // Server → client: flip the final byte of each response, which
        // lands in the head certificate's signature bytes.
        let mut s_read = FrameReader::new(server_side, DEFAULT_MAX_FRAME);
        let mut c_write = client_side;
        while let Some(mut frame) = s_read.next_frame().ok().flatten().map(Vec::from) {
            if let Some(last) = frame.last_mut() {
                *last ^= 0xFF;
            }
            if write_frame(&mut c_write, &frame, DEFAULT_MAX_FRAME).is_err() {
                break;
            }
        }
    });
    addr
}

#[test]
fn in_flight_tampering_fails_verification() {
    let h = boot(NetServerConfig::default());

    // Honest path: write the record and build the verifier directly.
    let mut honest = RemoteWormClient::connect(h.net.local_addr()).unwrap();
    let verifier = honest
        .bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
        .unwrap();
    let sn = honest.write(&[b"evidence"], policy(3600)).unwrap();
    assert_eq!(
        honest.read_verified(sn, &verifier).unwrap().0,
        ReadVerdict::Intact { sn }
    );

    // Tampered path: same request through the byte-flipping proxy.
    let proxy = tampering_proxy(h.net.local_addr());
    let mut victim = RemoteWormClient::connect(proxy).unwrap();
    match victim.read_verified(sn, &verifier) {
        Err(NetError::Verify(e)) => {
            // The flipped byte sits inside SCPU-signed material; which
            // check trips first is an implementation detail, but it
            // must be a verification failure, not silent acceptance.
            let _ = e;
        }
        Err(NetError::Wire(_)) => {
            panic!("tampering corrupted framing instead of signed bytes; adjust the proxy")
        }
        other => panic!("tampered read must fail verification, got {other:?}"),
    }
    h.net.shutdown();
}

#[test]
fn stats_deltas_match_operations_over_the_wire() {
    let h = boot(NetServerConfig::default());
    let mut client = RemoteWormClient::connect(h.net.local_addr()).unwrap();
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
        .unwrap();

    let sn = client.write(&[b"measured record"], policy(60)).unwrap();
    let before = client.stats().unwrap();

    // A burst of verified reads, one store, one (expired) delete — all
    // on this single connection, so the wire deltas are exact.
    const READS: u64 = 10;
    for _ in 0..READS {
        assert_eq!(
            client.read_verified(sn, &verifier).unwrap().0,
            ReadVerdict::Intact { sn }
        );
    }
    let sn2 = client.write(&[b"second record"], policy(3600)).unwrap();
    assert_eq!(
        client.read_verified(sn2, &verifier).unwrap().0,
        ReadVerdict::Intact { sn: sn2 }
    );
    h.clock.advance(Duration::from_secs(61));
    let outcome = client.delete(sn).unwrap();
    assert!(matches!(
        verifier.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::ConfirmedDeleted { .. }
    ));
    let after = client.stats().unwrap();

    let op_delta = |name: &str| {
        after.op(name).map_or(0, |o| o.total()) - before.op(name).map_or(0, |o| o.total())
    };
    // Server-side op counts: each verified read is one server.read, the
    // delete re-reads once more; one server.write for the store.
    assert_eq!(op_delta("server.read"), READS + 2);
    assert_eq!(op_delta("server.write"), 1);
    // The expired delete minted exactly one deletion proof.
    assert_eq!(
        after.counter("witness.deletion_proof") - before.counter("witness.deletion_proof"),
        1
    );
    // Wire accounting: requests between the snapshots plus the second
    // Stats poll itself (frames_in is counted before a request is
    // handled, so each snapshot includes its own request's frame).
    let requests_between = READS + 3; // reads + write + read-back + delete
    assert_eq!(
        after.counter("net.frames_in") - before.counter("net.frames_in"),
        requests_between + 1
    );
    assert_eq!(
        after.counter("net.frames_out") - before.counter("net.frames_out"),
        requests_between + 1
    );
    assert!(after.counter("net.bytes_in") > before.counter("net.bytes_in"));
    assert!(after.counter("net.bytes_out") > before.counter("net.bytes_out"));
    // The request op settles after its response is written, so the
    // delta also comes out to requests-between plus one Stats poll
    // (the first poll's completion replaces the second's).
    assert_eq!(op_delta("net.request"), requests_between + 1);
    assert!(after.counter("net.conn_accepted") >= 1);

    // The registry invariant holds for every op that crossed the wire.
    for (name, op) in &after.ops {
        assert_eq!(
            op.ok + op.err,
            op.latency.count(),
            "op {name} histogram count must match its counters"
        );
    }
    h.net.shutdown();
}

/// One-connection proxy that flips the FIRST payload byte of every
/// server→client frame. The first byte sits in the response's domain
/// tag, so corruption is guaranteed to surface as a decode error (the
/// stats snapshot is unsigned — flipping a trailing value byte would
/// alter a counter silently, which is exactly why stats are documented
/// as diagnostics, not evidence).
fn first_byte_tampering_proxy(upstream: SocketAddr) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (client_side, _) = listener.accept().unwrap();
        let server_side = TcpStream::connect(upstream).unwrap();
        let mut c_read = FrameReader::new(client_side.try_clone().unwrap(), DEFAULT_MAX_FRAME);
        let mut s_write = server_side.try_clone().unwrap();
        std::thread::spawn(move || {
            while let Ok(Some(frame)) = c_read.next_frame() {
                if write_frame(&mut s_write, &frame, DEFAULT_MAX_FRAME).is_err() {
                    break;
                }
            }
        });
        let mut s_read = FrameReader::new(server_side, DEFAULT_MAX_FRAME);
        let mut c_write = client_side;
        while let Some(mut frame) = s_read.next_frame().ok().flatten().map(Vec::from) {
            if let Some(first) = frame.first_mut() {
                *first ^= 0xFF;
            }
            if write_frame(&mut c_write, &frame, DEFAULT_MAX_FRAME).is_err() {
                break;
            }
        }
    });
    addr
}

#[test]
fn corrupted_stats_frame_is_a_decode_error_not_a_panic() {
    let h = boot(NetServerConfig::default());
    let proxy = first_byte_tampering_proxy(h.net.local_addr());
    let mut victim = RemoteWormClient::connect(proxy).unwrap();
    match victim.stats() {
        Err(NetError::Wire(_)) => {}
        other => panic!("corrupted stats frame must fail decoding, got {other:?}"),
    }
    h.net.shutdown();
}

#[test]
fn hostile_and_malformed_clients_cannot_break_the_server() {
    let h = boot(NetServerConfig {
        max_frame: 4096,
        ..NetServerConfig::default()
    });
    let addr = h.net.local_addr();

    // Oversized frame announcement: the server must drop the
    // connection without allocating or serving.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, &[0u8; 64], DEFAULT_MAX_FRAME).unwrap();
        // 64-byte frame is fine but garbage: server answers with a
        // bad-request error rather than dying.
        let resp = read_one(&mut raw).unwrap().unwrap();
        let decoded = wormnet::protocol::decode_response_shared(&resp).unwrap();
        assert!(matches!(
            decoded,
            wormnet::protocol::NetResponse::Error { code, .. } if code == wormnet::protocol::CODE_BAD_REQUEST
        ));

        // Now announce a frame beyond the server's 4 KiB cap.
        use std::io::Write as _;
        raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
        raw.write_all(&[0u8; 16]).unwrap();
        // The server hangs up on us; the next read sees EOF/reset.
        let gone = read_one(&mut raw);
        assert!(matches!(gone, Ok(None) | Err(_)));
    }

    // A well-behaved client connecting afterwards is served normally.
    let mut client = RemoteWormClient::connect(addr).unwrap();
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
        .unwrap();
    let sn = client.write(&[b"still alive"], policy(3600)).unwrap();
    assert_eq!(
        client.read_verified(sn, &verifier).unwrap().0,
        ReadVerdict::Intact { sn }
    );
    h.net.shutdown();
}

#[test]
fn remote_request_span_trees_link_net_to_planes_and_store() {
    let h = boot(NetServerConfig::default());
    // Threshold 0: every request counts as "slow", so every span tree
    // is captured — the test's injection knob for deterministic capture.
    h.server.trace().flight().set_slow_threshold_ns(0);
    let mut client = RemoteWormClient::connect(h.net.local_addr()).unwrap();
    client.set_request_tracing(true);
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
        .unwrap();

    let sn = client.write(&[b"traced record"], policy(3600)).unwrap();
    let write_trace = client.last_trace_id().expect("write minted a trace id");
    assert_eq!(
        client.read_verified(sn, &verifier).unwrap().0,
        ReadVerdict::Intact { sn }
    );
    let read_trace = client.last_trace_id().expect("read minted a trace id");
    assert_ne!(write_trace, read_trace, "each request gets its own trace");

    // Ids must be saved BEFORE this call — fetching traces is itself a
    // traced request that advances last_trace_id.
    let traces = client.traces().unwrap();
    let find = |id: u64| {
        traces
            .iter()
            .find(|t| t.trace_id == id)
            .unwrap_or_else(|| panic!("trace {id:#x} not captured"))
    };

    // Read request: net.request (rooted at the client's parent 0)
    // → server.read (read plane) → store.read (device I/O).
    let rt = find(read_trace);
    let span = |op: &str| {
        rt.spans
            .iter()
            .find(|s| s.op == op)
            .unwrap_or_else(|| panic!("span {op} missing from read trace"))
    };
    let root = span("net.request");
    assert_eq!(root.parent_span, 0);
    assert_eq!(root.plane, wormtrace::Plane::Net);
    let read = span("server.read");
    assert_eq!(read.parent_span, root.span_id);
    assert_eq!(read.sn, Some(sn.0));
    let store = span("store.read");
    assert_eq!(store.parent_span, read.span_id);
    assert_eq!(store.plane, wormtrace::Plane::Store);
    assert!(rt.spans.iter().all(|s| s.ok), "read path spans all succeed");
    // The tree is connected: every non-root parent is a span in it.
    for s in &rt.spans {
        assert!(
            s.parent_span == 0 || rt.spans.iter().any(|p| p.span_id == s.parent_span),
            "span {} has a dangling parent",
            s.op
        );
    }

    // Write request: the SCPU's virtual-time cost and the store append
    // both attribute under the witness-plane span.
    let wt = find(write_trace);
    let wspan = |op: &str| {
        wt.spans
            .iter()
            .find(|s| s.op == op)
            .unwrap_or_else(|| panic!("span {op} missing from write trace"))
    };
    let wroot = wspan("net.request");
    let write = wspan("server.write");
    assert_eq!(write.parent_span, wroot.span_id);
    assert_eq!(write.plane, wormtrace::Plane::Witness);
    assert_eq!(write.sn, Some(sn.0));
    let scpu = wspan("scpu.write");
    assert_eq!(scpu.parent_span, write.span_id);
    assert_eq!(scpu.plane, wormtrace::Plane::Scpu);
    let append = wspan("store.write");
    assert_eq!(append.parent_span, write.span_id);
    h.net.shutdown();
}

#[test]
fn untraced_requests_still_served_and_rooted_with_server_minted_ids() {
    let h = boot(NetServerConfig::default());
    h.server.trace().flight().set_slow_threshold_ns(0);
    // A pre-envelope client: plain opcodes, no trace context on the
    // wire (tracing stays off — this is the old wire format).
    let mut client = RemoteWormClient::connect(h.net.local_addr()).unwrap();
    client.tick().unwrap();
    assert!(client.last_trace_id().is_none());
    let traces = client.traces().unwrap();
    assert!(!traces.is_empty(), "untraced requests still capture");
    for t in &traces {
        assert_ne!(t.trace_id, 0, "server must mint a nonzero trace id");
        let root = t
            .spans
            .iter()
            .find(|s| s.op == "net.request")
            .expect("every capture has a net root span");
        assert_eq!(root.parent_span, 0);
    }
    h.net.shutdown();
}

#[test]
fn malformed_trace_envelope_is_bad_request_and_connection_survives() {
    let h = boot(NetServerConfig::default());
    let mut raw = TcpStream::connect(h.net.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let good = wormnet::protocol::encode_request_traced(
        &wormnet::protocol::NetRequest::Tick,
        wormtrace::TraceContext {
            trace_id: 42,
            parent_span: 7,
        },
    );
    let expect_bad_request = |raw: &mut TcpStream, frame: &[u8]| {
        write_frame(raw, frame, DEFAULT_MAX_FRAME).unwrap();
        let resp = read_one(raw).unwrap().unwrap();
        match wormnet::protocol::decode_response_shared(&resp).unwrap() {
            wormnet::protocol::NetResponse::Error { code, .. } => {
                assert_eq!(code, wormnet::protocol::CODE_BAD_REQUEST);
            }
            other => panic!("malformed envelope must fail, got {other:?}"),
        }
    };

    // Truncations throughout the envelope — mid-context, mid-length,
    // mid-inner-request — all come back as errors, never a hangup.
    for len in [good.len() - 1, good.len() / 2, 15, 9] {
        expect_bad_request(&mut raw, &good[..len]);
    }
    // Garbage where the inner request should be.
    let mut garbage = good.clone();
    let n = garbage.len();
    for b in &mut garbage[n - 8..] {
        *b ^= 0xA5;
    }
    expect_bad_request(&mut raw, &garbage);

    // The same connection still serves a well-formed request after all
    // five rejections.
    write_frame(
        &mut raw,
        &wormnet::protocol::encode_request(&wormnet::protocol::NetRequest::Tick),
        DEFAULT_MAX_FRAME,
    )
    .unwrap();
    let resp = read_one(&mut raw).unwrap().unwrap();
    assert!(matches!(
        wormnet::protocol::decode_response_shared(&resp).unwrap(),
        wormnet::protocol::NetResponse::Ack
    ));
    h.net.shutdown();
}

#[test]
fn flight_recorder_bounds_memory_and_captures_slow_and_failing_requests() {
    let h = boot(NetServerConfig::default());
    let flight = h.server.trace().flight();
    let capacity = flight.capacity();

    // Injected slowness: threshold 0 makes every request over-threshold.
    flight.set_slow_threshold_ns(0);
    let mut client = RemoteWormClient::connect(h.net.local_addr()).unwrap();
    client.set_request_tracing(true);
    let total = capacity as u64 + 10;
    for _ in 0..total {
        client.tick().unwrap();
    }
    let stats = client.stats().unwrap();
    assert!(
        stats.counter("net.traces_captured") >= total,
        "every over-threshold request must be offered and captured"
    );
    let traces = client.traces().unwrap();
    assert!(
        traces.len() <= capacity,
        "ring holds {} traces, capacity {capacity}: memory bound violated",
        traces.len()
    );
    assert!(traces
        .iter()
        .all(|t| t.trigger == wormtrace::TraceTrigger::Slow));

    // Injected failure: with the threshold at MAX, only errors capture.
    flight.set_slow_threshold_ns(u64::MAX);
    let captured_before = client.stats().unwrap().counter("net.traces_captured");
    let sn = client.write(&[b"held"], policy(60)).unwrap();
    let mut rng = StdRng::seed_from_u64(1234);
    let imposter = RegulatoryAuthority::generate(&mut rng, 512);
    let now = h.clock.now();
    let bad_hold = imposter.issue_hold(sn, now, 1, now.after(Duration::from_secs(60)));
    let failing_trace = match client.lit_hold(bad_hold) {
        Err(NetError::Remote { .. }) => client.last_trace_id().unwrap(),
        other => panic!("imposter hold must be rejected, got {other:?}"),
    };
    let traces = client.traces().unwrap();
    let errored = traces
        .iter()
        .find(|t| t.trace_id == failing_trace)
        .expect("failing request captured by trigger=error");
    assert_eq!(errored.trigger, wormtrace::TraceTrigger::Error);
    assert!(errored.spans.iter().any(|s| s.op == "net.request" && !s.ok));
    // The successful write/stats/traces requests in between did not
    // capture: exactly one new entry.
    let captured_after = client.stats().unwrap().counter("net.traces_captured");
    assert_eq!(captured_after, captured_before + 1);
    h.net.shutdown();
}

#[test]
fn sharded_writes_fan_out_and_reads_verify_across_lanes() {
    let h = boot_lanes(3, NetServerConfig::default());
    let addr = h.net.local_addr();

    // Bootstrap one verifier over the wire: per-lane keys in lane order,
    // lane 0 first.
    let verifier = {
        let mut c = RemoteWormClient::connect(addr).unwrap();
        Arc::new(
            c.bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
                .unwrap(),
        )
    };
    assert_eq!(verifier.shard_count(), 3);

    // Concurrent clients write; each verifies its own records as it
    // goes. Round-robin on the server fans the writes across lanes.
    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let verifier = verifier.clone();
            std::thread::spawn(move || {
                let mut client = RemoteWormClient::connect(addr).unwrap();
                (0..3u8)
                    .map(|i| {
                        let body = format!("client-{t} record-{i}");
                        let sn = client.write(&[body.as_bytes()], policy(100_000)).unwrap();
                        let (verdict, _) = client.read_verified(sn, &verifier).unwrap();
                        assert_eq!(verdict, ReadVerdict::Intact { sn });
                        sn
                    })
                    .collect::<Vec<SerialNumber>>()
            })
        })
        .collect();
    let mut sns = Vec::new();
    for t in threads {
        sns.extend(t.join().expect("client thread panicked"));
    }

    // The writes really fanned out: every shard lane got some.
    let lanes: std::collections::BTreeSet<u32> = sns.iter().map(|sn| sn.lane()).collect();
    assert_eq!(lanes.len(), 3, "12 round-robin writes must touch 3 lanes");

    // Cross-shard verified reads: one connection reads every record,
    // spanning every shard boundary, each outcome verified under the
    // owning lane's keys.
    let mut reader = RemoteWormClient::connect(addr).unwrap();
    for sn in &sns {
        let (verdict, outcome) = reader.read_verified(*sn, &verifier).unwrap();
        assert_eq!(verdict, ReadVerdict::Intact { sn: *sn });
        assert_eq!(outcome.kind(), "data");
    }

    // The composite freshness head covers all three lanes and verifies
    // end-to-end on the same connection.
    let composite = reader.composite_head_verified(&verifier).unwrap();
    assert_eq!(composite.binding.shard_count, 3);
    assert_eq!(composite.heads.len(), 3);

    // An SN outside every lane is a clean remote error, not a hangup.
    let foreign = SerialNumber(SerialNumber::lane_origin(9) + 1);
    match reader.read_raw(foreign) {
        Err(NetError::Remote { .. }) => {}
        other => panic!("out-of-lane SN must be a remote error, got {other:?}"),
    }
    // ... and the connection still serves verified reads afterwards.
    let first = *sns.first().unwrap();
    let (verdict, _) = reader.read_verified(first, &verifier).unwrap();
    assert_eq!(verdict, ReadVerdict::Intact { sn: first });
    h.net.shutdown();
}

#[test]
fn tampered_composite_head_fails_verification_without_dropping_connection() {
    let h = boot_lanes(2, NetServerConfig::default());
    let mut client = RemoteWormClient::connect(h.net.local_addr()).unwrap();
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
        .unwrap();

    let sn = client.write(&[b"cross-checked"], policy(100_000)).unwrap();

    // Mint the composite, then poison the cached copy server-side: the
    // host now serves a composite whose signed root does not match its
    // heads — the model of a host doctoring freshness evidence.
    h.server.composite_head().unwrap();
    h.server.tamper_composite_for_test();
    match client.composite_head_verified(&verifier) {
        Err(NetError::Verify(_)) => {}
        other => panic!("tampered composite must fail verification, got {other:?}"),
    }

    // The connection survives the rejection: the same client still
    // performs verified reads against the owning shard.
    let (verdict, _) = client.read_verified(sn, &verifier).unwrap();
    assert_eq!(verdict, ReadVerdict::Intact { sn });

    // Once the cache lapses, the lazily re-minted composite verifies
    // again on this same connection — the poison washes out.
    h.clock.advance(Duration::from_secs(10_000));
    let composite = client.composite_head_verified(&verifier).unwrap();
    assert_eq!(composite.binding.shard_count, 2);
    h.net.shutdown();
}

#[test]
fn a_one_lane_deployment_serves_the_cached_composite() {
    // One lane runs the composite code eight do: the head is minted once
    // per refresh interval and served from the cache in between, and a
    // doctored cache is caught.
    let h = boot(NetServerConfig::default());
    let mut client = RemoteWormClient::connect(h.net.local_addr()).unwrap();
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
        .unwrap();
    assert_eq!(verifier.shard_count(), 1);
    let sn = client.write(&[b"one lane"], policy(3600)).unwrap();
    let (verdict, _) = client.read_verified(sn, &verifier).unwrap();
    assert_eq!(verdict, ReadVerdict::Intact { sn });
    let composite = client.composite_head_verified(&verifier).unwrap();
    assert_eq!(composite.binding.shard_count, 1);
    h.clock.advance(Duration::from_secs(1));
    assert_eq!(
        client.composite_head_verified(&verifier).unwrap(),
        composite
    );

    h.server.tamper_composite_for_test();
    assert!(matches!(
        client.composite_head_verified(&verifier),
        Err(NetError::Verify(_))
    ));
    h.clock.advance(Duration::from_secs(10_000));
    let fresh = client.composite_head_verified(&verifier).unwrap();
    assert_ne!(fresh.binding.issued_at, composite.binding.issued_at);
    h.net.shutdown();
}

#[test]
fn an_sn_outside_every_lane_gets_one_answer_at_one_and_three_lanes() {
    for lanes in [1, 3] {
        let h = boot_lanes(lanes, NetServerConfig::default());
        let mut client = RemoteWormClient::connect(h.net.local_addr()).unwrap();
        let verifier = client
            .bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
            .unwrap();
        let sn = client.write(&[b"in lane 0"], policy(3600)).unwrap();
        let foreign = SerialNumber(SerialNumber::lane_origin(7) + 1);
        // The server routes it nowhere, for a read and for a delete.
        for answer in [client.read_raw(foreign), client.delete(foreign)] {
            match answer {
                Err(NetError::Remote { message, .. }) => {
                    assert!(message.contains("lane 7"), "{lanes} lanes: {message}");
                }
                other => panic!("{lanes} lanes: expected a remote error, got {other:?}"),
            }
        }
        // A client refuses whatever a host answers for it.
        let honest = client.read_raw(sn).unwrap();
        assert!(matches!(
            verifier.verify_read(foreign, &honest),
            Err(strongworm::VerifyError::ShardNotBound { lane: 7 })
        ));
        // The connection still serves verified reads.
        let (verdict, _) = client.read_verified(sn, &verifier).unwrap();
        assert_eq!(verdict, ReadVerdict::Intact { sn });
        h.net.shutdown();
    }
}

/// What the benchmark relies on when it serves a `WormServer`: the lane's
/// own registry carries the network and audit instruments, its kill
/// switch stops the network layer's instruments, and once the front-end
/// has shut down the caller holds the only handle again.
#[test]
fn a_bound_worm_server_is_a_lane_its_caller_still_owns() {
    let clock = VirtualClock::new();
    let regulator = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(7777), 512);
    let server = Arc::new(
        WormServer::new(WormConfig::test_small(), clock.clone(), regulator.public()).unwrap(),
    );
    let net = NetServer::bind(
        Arc::clone(&server),
        "127.0.0.1:0",
        NetServerConfig {
            workers: 1,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let mut client = RemoteWormClient::connect(net.local_addr()).unwrap();
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), clock)
        .unwrap();
    let sn = client.write(&[b"benchmarked"], policy(3600)).unwrap();
    client.read_verified(sn, &verifier).unwrap();

    let snap = server.stats_snapshot();
    let registered = |name: &str| snap.counters.iter().any(|(n, _)| n == name);
    assert!(registered("net.conn_shed"));
    assert!(snap.counter("net.bytes_out") > 0);
    assert!(snap.counter("audit.emitted") > 0);
    assert_eq!(snap.op("net.request").map(|o| o.total()), Some(3));

    server.trace().set_enabled(false);
    for _ in 0..3 {
        client.read_verified(sn, &verifier).unwrap();
    }
    let quiet = server.stats_snapshot();
    assert_eq!(quiet.op("net.request").map(|o| o.total()), Some(3));
    assert_eq!(
        quiet.counter("net.frames_in"),
        snap.counter("net.frames_in") + 3
    );

    drop(client);
    net.shutdown();
    assert!(
        Arc::try_unwrap(server).is_ok(),
        "the front-end let go of its lane"
    );
}

/// A deployment has one kill switch: with it off, a read lane 1 serves
/// moves no `shard1.` instrument in the `Stats` a client fetches, as a
/// read lane 0 serves moves none of lane 0's.
#[test]
fn the_kill_switch_reaches_every_lane_over_the_wire() {
    let h = boot_lanes(2, NetServerConfig::default());
    h.server.trace().set_enabled(false);
    let mut client = RemoteWormClient::connect(h.net.local_addr()).unwrap();
    let sns: Vec<SerialNumber> = (0..2u8)
        .map(|i| client.write(&[&[i]], policy(3600)).unwrap())
        .collect();
    assert_eq!(sns.iter().map(|sn| sn.lane()).collect::<Vec<_>>(), [0, 1]);
    for &sn in &sns {
        client.read_raw(sn).unwrap();
    }
    let stats = client.stats().unwrap();
    for name in ["net.request", "server.read", "shard1.server.read"] {
        assert_eq!(stats.op(name).map(|o| o.total()), Some(0), "{name}");
    }
    h.net.shutdown();
}

#[test]
fn queue_depth_gauge_drains_to_zero_after_connection_storm_and_shutdown() {
    let h = boot(NetServerConfig {
        workers: 1,
        queue_depth: 4,
        read_timeout: Duration::from_millis(200),
        ..NetServerConfig::default()
    });
    let addr = h.net.local_addr();
    // Storm of idle connections: one occupies the lone worker, a few
    // sit queued, the rest are shed by the acceptor. None sends a
    // request, so queued entries are still in flight at shutdown —
    // exactly the case that used to leak gauge increments.
    let conns: Vec<TcpStream> = (0..16).map(|_| TcpStream::connect(addr).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(100));
    h.net.shutdown();
    drop(conns);
    assert_eq!(
        h.server.stats_snapshot().gauge("net.queue_depth"),
        Some(0),
        "queue depth gauge must drain to zero on shutdown"
    );
}

/// Sheds against a server bound with `max_connections: 2`, tracing
/// kill switch off: the shed peer gets a CODE_BUSY frame, and each shed
/// is an `AdmissionShed` event in the audit chain an admitted client
/// then fetches over the wire. `while_full` runs against the address
/// while the cap is still full. Returns how many sheds were audited.
fn shed_is_announced_and_audited(
    net: NetServer,
    server: &ShardedWormServer,
    while_full: impl FnOnce(SocketAddr),
) -> usize {
    // The diagnostics switch must not reach the audit chain.
    server.trace().set_enabled(false);
    let addr = net.local_addr();

    // Fill the admission cap with idle connections, then wait until the
    // reactor has actually registered both — a fixed sleep races the
    // accept loop under load, and a connection that lands before the
    // cap-fillers are counted is admitted instead of shed.
    let mut held: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snap = server.stats_snapshot();
        let conns: u64 = (0..8)
            .filter_map(|i| snap.gauge(&format!("net.worker{i}.conns")))
            .sum();
        if conns >= 2 || std::time::Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // The next arrival is shed — but with an explicit CODE_BUSY error
    // frame before the close, so the client can tell load-shedding
    // from a crash.
    let mut shed = TcpStream::connect(addr).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let payload = read_one(&mut shed)
        .unwrap()
        .expect("shed connection must get a busy frame, not silent EOF");
    match wormnet::protocol::decode_response_shared(&payload).unwrap() {
        wormnet::protocol::NetResponse::Error { code, .. } => {
            assert_eq!(code, wormnet::protocol::CODE_BUSY);
        }
        other => panic!("expected busy error frame, got {other:?}"),
    }
    // After the courtesy frame the connection is closed.
    assert!(matches!(read_one(&mut shed), Ok(None) | Err(_)));

    while_full(addr);

    // Free one slot; once the reactor has noticed the close, an auditor
    // is admitted and finds every shed so far (those its own retries
    // caused included) in the chain.
    drop(held.pop());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let page = loop {
        match RemoteWormClient::connect(addr).and_then(|mut c| c.audit_events(0, 4096)) {
            Ok(page) => break page,
            Err(e) => assert!(
                std::time::Instant::now() < deadline,
                "auditor never admitted: {e:?}"
            ),
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let sheds = page
        .events
        .iter()
        .filter(|e| e.class == wormaudit::AuditClass::AdmissionShed)
        .count();
    assert!(sheds >= 1, "got {:?}", page.events);

    net.shutdown();
    let snapshot = server.stats_snapshot();
    assert_eq!(snapshot.counter("net.conn_shed"), sheds as u64);
    assert_eq!(snapshot.op("net.request").map_or(0, |o| o.total()), 0);
    sheds
}

#[test]
fn shed_connections_receive_a_busy_frame_not_silent_eof() {
    let capped = NetServerConfig {
        max_connections: 2,
        ..NetServerConfig::default()
    };
    let single = boot(capped);
    let sheds = shed_is_announced_and_audited(single.net, single.server.as_ref(), |addr| {
        // The typed client surfaces the same shed as a Remote error.
        // The busy frame is a courtesy: the acceptor closes without
        // reading the request, so when the request lands first the
        // kernel answers it with a reset that can overtake the frame.
        // A reset is therefore retried; anything else is a failure.
        for _ in 0..8 {
            let mut typed = RemoteWormClient::connect(addr).unwrap();
            match typed.tick() {
                Err(NetError::Remote { code, .. }) => {
                    assert_eq!(code, wormnet::protocol::CODE_BUSY);
                    return;
                }
                Err(NetError::Io(e)) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
                other => panic!("expected remote busy error, got {other:?}"),
            }
        }
        panic!("eight sheds in a row lost their busy frame to a reset");
    });
    assert!(sheds >= 2);
    let sharded = boot_lanes(2, capped);
    shed_is_announced_and_audited(sharded.net, sharded.server.as_ref(), |_| {});
}

#[test]
fn pipelined_responses_arrive_in_request_order_and_verify() {
    let h = boot(NetServerConfig::default());
    let addr = h.net.local_addr();
    let mut client = RemoteWormClient::connect(addr).unwrap();
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
        .unwrap();

    let sns: Vec<SerialNumber> = (0..12)
        .map(|i| {
            client
                .write(&[format!("pipelined record {i}").as_bytes()], policy(3600))
                .unwrap()
        })
        .collect();

    // Window of 4, twelve reads in flight: responses must come back in
    // request order, every one verifying as the SN it was asked for.
    let mut responses = Vec::new();
    let mut pipe = client.pipeline(4);
    for sn in &sns {
        if let Some(resp) = pipe.send(&wormnet::NetRequest::Read { sn: *sn }).unwrap() {
            responses.push(resp);
        }
    }
    assert!(pipe.in_flight() > 0);
    responses.extend(pipe.finish().unwrap());

    assert_eq!(responses.len(), sns.len());
    for (sn, resp) in sns.iter().zip(&responses) {
        match resp {
            wormnet::NetResponse::Outcome(outcome) => {
                assert_eq!(
                    verifier.verify_read(*sn, outcome).unwrap(),
                    ReadVerdict::Intact { sn: *sn },
                    "response out of order or tampered for {sn:?}"
                );
            }
            other => panic!("expected Outcome, got {other:?}"),
        }
    }

    // Abandoning a pipeline mid-flight poisons the session instead of
    // silently desynchronizing request/response pairing.
    {
        let mut pipe = client.pipeline(4);
        pipe.send(&wormnet::NetRequest::Tick).unwrap();
        // Dropped with one response in flight.
    }
    assert!(matches!(client.tick(), Err(NetError::Protocol(_))));

    h.net.shutdown();
}

#[test]
fn a_call_that_times_out_leaves_the_session_refusing_the_next_one() {
    // A stub server that answers the first write after 300 ms and the
    // second at once, each with its own serial number.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut requests = FrameReader::new(conn.try_clone().unwrap(), DEFAULT_MAX_FRAME);
        for (sn, delay_ms) in [(7, 300), (8, 0)] {
            if !matches!(requests.next_frame(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(delay_ms));
            let written = wormnet::protocol::encode_response(&wormnet::NetResponse::Written {
                sn: SerialNumber(sn),
            });
            if write_frame(&mut conn, &written, DEFAULT_MAX_FRAME).is_err() {
                return;
            }
        }
    });

    let mut client =
        RemoteWormClient::connect_with(addr, Duration::from_millis(100), DEFAULT_MAX_FRAME)
            .unwrap();
    let first = client.write(&[b"first"], policy(60));
    assert!(
        matches!(&first, Err(NetError::Io(e)) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)),
        "the first write must time out, got {first:?}"
    );
    // The first write's answer has arrived by now. Handing it to the
    // second write as its own would return the first write's SN.
    std::thread::sleep(Duration::from_millis(400));
    match client.write(&[b"second"], policy(60)) {
        Err(NetError::Protocol(message)) => assert!(message.contains("reconnect"), "{message}"),
        other => panic!("the session must refuse the next call, got {other:?}"),
    }
    drop(client);
    stub.join().unwrap();
}

#[test]
fn interleaved_traced_and_untraced_frames_share_one_pipelined_connection() {
    let h = boot(NetServerConfig::default());
    let addr = h.net.local_addr();
    let mut client = RemoteWormClient::connect(addr).unwrap();
    let sn = client.write(&[b"traced and bare"], policy(3600)).unwrap();

    // Alternate bare frames and opcode-9 trace envelopes within one
    // pipelined batch: the server must serve both shapes interleaved
    // on a single connection, in order.
    let mut responses = Vec::new();
    let mut traced_ids = Vec::new();
    {
        let mut pipe = client.pipeline(3);
        for i in 0..10 {
            // Safety of toggling mid-batch: encoding happens at send
            // time, so each frame independently carries (or omits) its
            // envelope.
            pipe.set_request_tracing(i % 2 == 0);
            if let Some(resp) = pipe.send(&wormnet::NetRequest::Read { sn }).unwrap() {
                responses.push(resp);
            }
            if i % 2 == 0 {
                traced_ids.push(pipe.last_trace_id());
            }
        }
        responses.extend(pipe.finish().unwrap());
    }
    assert_eq!(responses.len(), 10);
    for resp in &responses {
        assert!(
            matches!(resp, wormnet::NetResponse::Outcome(o) if o.kind() == "data"),
            "every interleaved request must be served, got {resp:?}"
        );
    }
    // Every traced frame minted a distinct id.
    let ids: Vec<u64> = traced_ids.into_iter().flatten().collect();
    assert_eq!(ids.len(), 5);
    let dedup: std::collections::HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(dedup.len(), ids.len());

    h.net.shutdown();
}

#[test]
fn malformed_frame_mid_pipeline_kills_only_that_connection() {
    let h = boot(NetServerConfig {
        max_frame: 4096,
        ..NetServerConfig::default()
    });
    let addr = h.net.local_addr();

    // One write carrying two valid pipelined requests followed by an
    // oversized frame announcement.
    let mut bad = TcpStream::connect(addr).unwrap();
    bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut burst = Vec::new();
    for _ in 0..2 {
        wormnet::frame::append_frame(
            &mut burst,
            &wormnet::protocol::encode_request(&wormnet::NetRequest::GetShardKeys),
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
    }
    burst.extend_from_slice(&u32::MAX.to_be_bytes());
    {
        use std::io::Write as _;
        bad.write_all(&burst).unwrap();
    }

    // The valid prefix is answered — responses owed before the
    // violation still flush — then the connection dies.
    // Both responses may arrive in one read: one reader takes them all.
    let mut responses = FrameReader::new(&mut bad, DEFAULT_MAX_FRAME);
    for _ in 0..2 {
        let payload = responses.next_frame().unwrap().unwrap();
        assert!(matches!(
            wormnet::protocol::decode_response_shared(&payload).unwrap(),
            wormnet::protocol::NetResponse::ShardKeys(_)
        ));
    }
    assert!(matches!(responses.next_frame(), Ok(None) | Err(_)));

    // A neighbour connection is untouched by the violation.
    let mut client = RemoteWormClient::connect(addr).unwrap();
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
        .unwrap();
    let sn = client
        .write(&[b"unaffected neighbour"], policy(3600))
        .unwrap();
    assert_eq!(
        client.read_verified(sn, &verifier).unwrap().0,
        ReadVerdict::Intact { sn }
    );
    h.net.shutdown();
}

#[test]
fn audit_chain_paginates_over_the_wire_and_verifies() {
    let h = boot(NetServerConfig::default());
    let mut client = RemoteWormClient::connect(h.net.local_addr()).unwrap();
    let (keys, _) = client.fetch_shard_keys().unwrap().remove(0);

    // Generate a spread of integrity events, then anchor via Tick.
    for i in 0..4u8 {
        client.write(&[&[i]], policy(1)).unwrap();
    }
    h.clock.advance(Duration::from_secs(2));
    client.tick().unwrap();

    // Paginate with a tiny window; pages must be dense and contiguous.
    let mut events = Vec::new();
    let mut anchors = Vec::new();
    let mut cursor = 0u64;
    loop {
        let page = client.audit_events(cursor, 2).unwrap();
        if page.events.is_empty() {
            break;
        }
        assert!(page.events.len() <= 2, "server must honour the page cap");
        assert_eq!(
            page.events.first().unwrap().seq,
            cursor,
            "pages must resume exactly at the cursor"
        );
        cursor = page.events.last().unwrap().seq + 1;
        events.extend(page.events);
        anchors.extend(page.anchors);
    }
    assert!(events.len() >= 4, "writes and ticks must have audited");

    // The stitched pages replay as one clean, fully anchored chain.
    anchors.sort_by_key(|a: &wormaudit::AuditAnchor| a.seq);
    anchors.dedup_by_key(|a| a.seq);
    let whole = wormaudit::AuditPage { events, anchors };
    let report = wormaudit::verify_chain(&whole, &[keys.sign]);
    assert!(report.is_clean(), "{:?}", report.divergence);
    assert_eq!(report.unattested_tail, 0);

    // A cursor past the tip is an empty page, not an error.
    let empty = client.audit_events(u64::MAX, 16).unwrap();
    assert!(empty.events.is_empty());
    h.net.shutdown();
}

#[test]
fn tampered_audit_chain_is_detected_and_the_connection_survives() {
    let h = boot(NetServerConfig::default());
    let mut client = RemoteWormClient::connect(h.net.local_addr()).unwrap();
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
        .unwrap();
    let (keys, _) = client.fetch_shard_keys().unwrap().remove(0);

    let sn = client.write(&[b"audited"], policy(3600)).unwrap();
    client.tick().unwrap();
    let clean = wormaudit::verify_chain(
        &client.audit_events(0, 4096).unwrap(),
        std::slice::from_ref(&keys.sign),
    );
    assert!(clean.is_clean(), "{:?}", clean.divergence);

    // The host edits an already-chained journal entry in place — the
    // model of a server scrubbing its own audit trail.
    h.server.audit().tamper_event_for_test(0);
    let page = client.audit_events(0, 4096).unwrap();
    let report = wormaudit::verify_chain(&page, &[keys.sign]);
    let divergence = report.divergence.expect("tamper must surface on replay");
    assert_eq!(divergence.seq, 0, "replay reports the first divergence");

    // Detection is the client's verdict, not a transport failure: the
    // same connection still serves verified reads.
    assert_eq!(
        client.read_verified(sn, &verifier).unwrap().0,
        ReadVerdict::Intact { sn }
    );
    h.net.shutdown();
}

#[test]
fn audit_events_span_a_recovery_cycle_over_the_wire() {
    // Boot on a journaled medium, commit, stop, leave a torn frame past
    // the journal region's tail, recover, and serve the recovered server
    // over TCP: a remote auditor sees the recovery incident in the chain
    // and the chain still anchors and verifies.
    const JOURNAL: u64 = 1 << 15;
    let clock = VirtualClock::new();
    let mut rng = StdRng::seed_from_u64(9090);
    let regulator = RegulatoryAuthority::generate(&mut rng, 512);
    let disk = Arc::new(MemDisk::unmetered(1 << 17));
    let config = WormConfig::test_small();
    let srv = WormServer::with_durable(
        Arc::clone(&disk),
        JOURNAL,
        config.clone(),
        clock.clone(),
        regulator.public(),
    )
    .unwrap();
    srv.write(&[b"committed"], policy(10_000)).unwrap();
    srv.write(&[b"torn-away"], policy(10_000)).unwrap();

    let tail = srv.vrdt().journal().len_bytes() as u64;
    let device = srv.into_parts().0;
    disk.write_at(tail, &[0xA5; 40]).unwrap();
    let recovered = WormServer::recover_durable(disk, JOURNAL, device, config, clock.clone());
    let srv = Arc::new(recovered.map_err(|(e, _)| e).unwrap());
    let net = NetServer::bind(Arc::clone(&srv), "127.0.0.1:0", NetServerConfig::default()).unwrap();

    let mut client = RemoteWormClient::connect(net.local_addr()).unwrap();
    let (keys, _) = client.fetch_shard_keys().unwrap().remove(0);
    client.tick().unwrap();
    let page = client.audit_events(0, 4096).unwrap();
    assert!(
        page.events
            .iter()
            .any(|e| e.class == wormaudit::AuditClass::RecoveryTornTail),
        "remote auditor must see the torn-tail incident"
    );
    let report = wormaudit::verify_chain(&page, &[keys.sign]);
    assert!(report.is_clean(), "{:?}", report.divergence);
    assert_eq!(report.unattested_tail, 0);

    // Stats expose the same plane for cheap polling.
    let snap = client.stats().unwrap();
    assert!(snap.counter("audit.emitted") > 0);
    assert!(snap.counter("audit.anchored") >= 1);
    assert!(snap.gauge("audit.chain_height").unwrap_or(0) > 0);
    net.shutdown();
}

#[test]
fn shutdown_with_frames_in_flight_neither_hangs_nor_leaks_gauges() {
    let h = boot(NetServerConfig {
        workers: 2,
        ..NetServerConfig::default()
    });
    let addr = h.net.local_addr();

    // Stuff unread pipelined requests into several connections and
    // shut down without collecting any response: shutdown must join
    // cleanly (requests in flight are dropped with their connections)
    // and every connection-tracking gauge must drain to zero.
    let conns: Vec<TcpStream> = (0..6)
        .map(|_| {
            let mut c = TcpStream::connect(addr).unwrap();
            let mut burst = Vec::new();
            for _ in 0..8 {
                wormnet::frame::append_frame(
                    &mut burst,
                    &wormnet::protocol::encode_request(&wormnet::NetRequest::Tick),
                    DEFAULT_MAX_FRAME,
                )
                .unwrap();
            }
            use std::io::Write as _;
            c.write_all(&burst).unwrap();
            c
        })
        .collect();

    h.net.shutdown();
    drop(conns);
    let snapshot = h.server.stats_snapshot();
    assert_eq!(snapshot.gauge("net.queue_depth"), Some(0));
    assert_eq!(
        snapshot.gauge("net.conns_open"),
        Some(0),
        "open-connection gauge must return to zero after shutdown"
    );
}

/// A quiet server (instruments off, one worker) holding one record that
/// has already been read twice over the wire: anything that replays an
/// earlier response instead of consulting backend state would do so on
/// the third read.
fn quiet_server_with_twice_read_record(
    secs: u64,
) -> (Harness, RemoteWormClient, Verifier, SerialNumber) {
    let h = boot(NetServerConfig {
        workers: 1,
        ..NetServerConfig::default()
    });
    h.server.trace().set_enabled(false);
    let mut client = RemoteWormClient::connect(h.net.local_addr()).unwrap();
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
        .unwrap();
    let sn = client.write(&[b"quiet record"], policy(secs)).unwrap();
    for _ in 0..2 {
        let (verdict, _) = client.read_verified(sn, &verifier).unwrap();
        assert_eq!(verdict, ReadVerdict::Intact { sn });
    }
    (h, client, verifier, sn)
}

#[test]
fn in_process_expiry_is_visible_to_the_next_wire_read() {
    let (h, mut client, verifier, sn) = quiet_server_with_twice_read_record(60);
    // Retention lapses and the daemon's in-process tick shreds the
    // record: no wire mutation ever reaches the network layer.
    h.clock.advance(Duration::from_secs(61));
    h.server.tick().unwrap();
    let (verdict, outcome) = client.read_verified(sn, &verifier).unwrap();
    assert!(
        matches!(verdict, ReadVerdict::ConfirmedDeleted { .. }),
        "a shredded record must read as deleted, got {verdict:?}"
    );
    assert_eq!(outcome.kind(), "deleted");
    h.net.shutdown();
}

#[test]
fn wire_reads_carry_a_fresh_head_on_a_read_only_server() {
    let (h, mut client, verifier, sn) = quiet_server_with_twice_read_record(1_000_000);
    // An hour with no mutation: the head the earlier reads carried is
    // now far past the verifier's 300 s freshness window.
    h.clock.advance(Duration::from_secs(3600));
    let (verdict, _) = client.read_verified(sn, &verifier).unwrap();
    assert_eq!(verdict, ReadVerdict::Intact { sn });
    h.net.shutdown();
}

/// Sends one bare `Read` on a raw socket and returns the response
/// frame's payload exactly as the server put it on the wire.
fn wire_read_bytes(raw: &mut TcpStream, sn: SerialNumber) -> Vec<u8> {
    let request = wormnet::protocol::encode_request(&wormnet::NetRequest::Read { sn });
    write_frame(raw, &request, DEFAULT_MAX_FRAME).unwrap();
    read_one(raw).unwrap().unwrap().into()
}

/// Reads one frame off a raw socket on which nothing more is due after
/// it (a reader may take in more than the frame it returns).
fn read_one(raw: &mut TcpStream) -> Result<Option<bytes::Bytes>, NetError> {
    FrameReader::new(raw, DEFAULT_MAX_FRAME).next_frame()
}

/// Data (one and several records), a deletion proof and a never-existed
/// SN, read over the wire from `addr`: each response must be, byte for
/// byte, the owned encoder's output for what `read` returns in process.
fn wire_bytes_match_owned_encoding(
    addr: SocketAddr,
    clock: &VirtualClock,
    tick: impl Fn(),
    read: impl Fn(SerialNumber) -> strongworm::ReadOutcome,
) {
    let mut client = RemoteWormClient::connect(addr).unwrap();
    let big = vec![0x5Au8; 5000];
    let mut sns = Vec::new();
    // Twice over, so both lanes of a two-shard backend hold each shape.
    for _ in 0..2 {
        sns.push(client.write(&[&big], policy(3600)).unwrap());
        sns.push(client.write(&[b"a", b"", &big], policy(3600)).unwrap());
        sns.push(client.write(&[b"short-lived"], policy(10)).unwrap());
    }
    clock.advance(Duration::from_secs(11));
    tick();
    sns.push(SerialNumber(sns[0].0 + 1_000));

    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut kinds = std::collections::BTreeSet::new();
    for sn in sns {
        let on_the_wire = wire_read_bytes(&mut raw, sn);
        let outcome = read(sn);
        kinds.insert(outcome.kind());
        assert_eq!(
            on_the_wire,
            wormnet::protocol::encode_response(&wormnet::NetResponse::Outcome(outcome)),
            "{sn}: wire bytes differ from the owned encoding"
        );
    }
    assert_eq!(kinds.len(), 3, "data, deleted and never-existed: {kinds:?}");
}

#[test]
fn streamed_wire_responses_equal_the_owned_encoding_on_both_backends() {
    // One lane and two.
    let h = boot(NetServerConfig::default());
    wire_bytes_match_owned_encoding(
        h.net.local_addr(),
        &h.clock,
        || h.server.tick().unwrap(),
        |sn| h.server.read(sn).unwrap(),
    );
    h.net.shutdown();

    let h = boot_lanes(2, NetServerConfig::default());
    wire_bytes_match_owned_encoding(
        h.net.local_addr(),
        &h.clock,
        || h.server.tick().unwrap(),
        |sn| h.server.read(sn).unwrap(),
    );
    h.net.shutdown();
}

/// `connections` clients, handed round-robin to two workers, each
/// pipelining `reads` verified reads of one record at `depth` while the
/// others do. Every connection must complete (none starves behind the
/// event loop), nothing may be shed, timed out or left queued, and the
/// per-worker frame counters must partition `net.frames_in`: a worker
/// that booked the shared delta over its own `serve` call would also
/// count the frames its neighbour served meanwhile.
fn pipelined_readers_partition_frames_in(connections: usize, depth: usize, reads: usize) {
    let h = boot(NetServerConfig {
        workers: 2,
        ..NetServerConfig::default()
    });
    let addr = h.net.local_addr();
    let mut setup = RemoteWormClient::connect(addr).unwrap();
    let sn = setup.write(&[&[1u8; 512]], policy(3600)).unwrap();
    let verifier = Arc::new(
        setup
            .bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
            .unwrap(),
    );
    drop(setup);

    // Every connection is open and ticked before any pipelines, and the
    // set-up runs here: a failed connect or tick fails the test at once,
    // where in a client thread it would leave the others at the barrier.
    let start = Arc::new(Barrier::new(connections));
    let clients: Vec<_> = (0..connections)
        .map(|_| {
            let mut client = RemoteWormClient::connect(addr).unwrap();
            client.tick().unwrap();
            let (start, verifier) = (start.clone(), verifier.clone());
            std::thread::spawn(move || {
                start.wait();
                let mut pipe = client.pipeline(depth);
                let mut responses = Vec::with_capacity(reads);
                for _ in 0..reads {
                    responses.extend(pipe.send(&wormnet::NetRequest::Read { sn }).unwrap());
                }
                responses.extend(pipe.finish().unwrap());
                assert_eq!(responses.len(), reads);
                for resp in &responses {
                    match resp {
                        wormnet::NetResponse::Outcome(outcome) => assert_eq!(
                            verifier.verify_read(sn, outcome).unwrap(),
                            ReadVerdict::Intact { sn }
                        ),
                        other => panic!("expected Outcome, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread panicked");
    }

    let snapshot = h.server.stats_snapshot();
    assert_eq!(snapshot.counter("net.conn_shed"), 0);
    assert_eq!(snapshot.counter("net.timeouts"), 0);
    assert_eq!(snapshot.gauge("net.queue_depth"), Some(0));
    let per_worker: Vec<u64> = (0..2)
        .map(|i| snapshot.counter(&format!("net.worker{i}.frames")))
        .collect();
    assert!(
        per_worker.iter().all(|&frames| frames >= reads as u64),
        "each worker served its share of the connections: {per_worker:?}"
    );
    assert_eq!(
        per_worker.iter().sum::<u64>(),
        snapshot.counter("net.frames_in"),
        "per-worker frames {per_worker:?} must partition net.frames_in"
    );
    h.net.shutdown();
}

#[test]
fn per_worker_frame_counters_sum_to_frames_in() {
    // One connection a worker, deep window.
    pipelined_readers_partition_frames_in(2, 32, 3000);
    // More connections than workers or cores, the window a verifying
    // client settles into: four sessions multiplexed on each event loop.
    pipelined_readers_partition_frames_in(8, 8, 1000);
}

/// A connection's buffered run of writes is one SCPU command a run, and
/// each write still answers for itself: a pipelined `W W R W W W W` sent
/// in one segment, the sixth over the store's room and the fifth in a
/// trace envelope, gets seven responses in request order, SNs
/// consecutive in request order, the oversized write the error it gets
/// alone, and its neighbours witnessed — with the read splitting the
/// writes into two commands.
#[test]
fn a_buffered_run_of_writes_is_one_command_answered_in_request_order() {
    use wormnet::protocol::{decode_response_shared, encode_request, encode_request_traced};
    use wormnet::{NetRequest, NetResponse};

    let clock = VirtualClock::new();
    let regulator = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(7777), 512);
    let config = WormConfig {
        store_capacity: 32 << 10,
        ..WormConfig::test_small()
    };
    let server =
        Arc::new(ShardedWormServer::new(config, clock.clone(), regulator.public(), 1).unwrap());
    let net = NetServer::bind(
        Arc::clone(&server),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .unwrap();
    let addr = net.local_addr();
    let mut client = RemoteWormClient::connect(addr).unwrap();
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), clock.clone())
        .unwrap();
    let first = client.write(&[b"before the burst"], policy(3600)).unwrap();

    let write = |bytes: &[u8]| NetRequest::Write {
        records: vec![bytes::Bytes::from(bytes.to_vec())],
        policy: policy(3600),
        flags: 0,
        witness: WitnessMode::Strong,
    };
    let oversized = vec![0x5A; 40 << 10];
    let traced = wormtrace::TraceContext {
        trace_id: 0x51,
        parent_span: 7,
    };
    let frames = [
        encode_request(&write(b"w1")),
        encode_request(&write(b"w2")),
        encode_request(&NetRequest::Read { sn: first }),
        encode_request(&write(b"w4")),
        encode_request_traced(&write(b"w5"), traced),
        encode_request(&write(&oversized)),
        encode_request(&write(b"w7")),
    ];
    let mut burst = Vec::new();
    for frame in &frames {
        wormnet::frame::append_frame(&mut burst, frame, DEFAULT_MAX_FRAME).unwrap();
    }
    let commands = || {
        server
            .stats_snapshot()
            .op("scpu.write")
            .map_or(0, |o| o.total())
    };
    let before = commands();
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    {
        use std::io::Write as _;
        raw.write_all(&burst).unwrap();
    }
    let mut reader = FrameReader::new(&mut raw, DEFAULT_MAX_FRAME);
    let responses: Vec<NetResponse> = (0..frames.len())
        .map(|_| decode_response_shared(&reader.next_frame().unwrap().unwrap()).unwrap())
        .collect();

    let sn_of = |i: usize| match &responses[i] {
        NetResponse::Written { sn } => *sn,
        other => panic!("response {i}: expected a write receipt, got {other:?}"),
    };
    let written: Vec<SerialNumber> = [0, 1, 3, 4, 6].map(sn_of).into();
    let want: Vec<SerialNumber> = (1..=5).map(|k| SerialNumber(first.0 + k)).collect();
    assert_eq!(written, want, "SNs in request order");
    match &responses[2] {
        NetResponse::Outcome(outcome) => assert_eq!(
            verifier.verify_read(first, outcome).unwrap(),
            ReadVerdict::Intact { sn: first }
        ),
        other => panic!("expected the read's outcome, got {other:?}"),
    }
    let NetResponse::Error { code, .. } = &responses[5] else {
        panic!("the oversized write must fail, got {:?}", responses[5]);
    };
    // The read ends the first run; the second carries the rest.
    assert_eq!(commands() - before, 2);

    // Alone, the oversized write gets the same class of error.
    match client.write(&[&oversized], policy(3600)) {
        Err(NetError::Remote { code: alone, .. }) => assert_eq!(alone, *code),
        other => panic!("expected a remote error, got {other:?}"),
    }
    // Every write around it is witnessed.
    for sn in written {
        assert_eq!(
            client.read_verified(sn, &verifier).unwrap().0,
            ReadVerdict::Intact { sn }
        );
    }
    net.shutdown();
}

/// A read pipelined ahead of a write is answered while the write still
/// waits on the device: the burst's answers go out before the device
/// command, and the write's receipt follows in request order.
#[test]
fn a_read_ahead_of_a_write_is_answered_while_the_device_is_busy() {
    use wormnet::{NetRequest, NetResponse};

    let h = boot(NetServerConfig {
        workers: 1,
        ..NetServerConfig::default()
    });
    let mut client = RemoteWormClient::connect_with(
        h.net.local_addr(),
        Duration::from_secs(5),
        DEFAULT_MAX_FRAME,
    )
    .unwrap();
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), h.clock.clone())
        .unwrap();
    // Written and read once, with a clock that never moves: the head the
    // read carries stays fresh, so reading it again needs no device.
    let sn = client.write(&[b"answered first"], policy(3600)).unwrap();
    assert_eq!(sn, SerialNumber(1));
    assert_eq!(
        client.read_verified(sn, &verifier).unwrap().0,
        ReadVerdict::Intact { sn }
    );

    let lane = Arc::clone(h.server.coordinator());
    let (release, released) = std::sync::mpsc::channel::<()>();
    let (held, holding) = std::sync::mpsc::channel::<()>();
    // The device is held on a thread of its own: the test thread makes
    // blocking calls, which a thread holding a guard may not.
    let holder = std::thread::spawn(move || {
        let _device = lane.firmware_for_test();
        held.send(()).unwrap();
        // Dropping `release` (or a panic that drops it) ends the hold.
        let _ = released.recv();
    });
    holding.recv().unwrap();

    let mut pipe = client.pipeline(2);
    assert!(pipe.send(&NetRequest::Read { sn }).unwrap().is_none());
    let write = NetRequest::Write {
        records: vec![bytes::Bytes::from_static(b"answered second")],
        policy: policy(3600),
        flags: 0,
        witness: WitnessMode::Strong,
    };
    assert!(pipe.send(&write).unwrap().is_none());
    // Both frames leave in one coalesced write; the read's answer must
    // arrive while the device is still held.
    match pipe.recv() {
        Ok(Some(NetResponse::Outcome(outcome))) => assert_eq!(
            verifier.verify_read(sn, &outcome).unwrap(),
            ReadVerdict::Intact { sn }
        ),
        other => panic!("the read must be answered while the device is busy, got {other:?}"),
    }
    drop(release);
    holder.join().unwrap();
    match pipe.finish().unwrap().as_slice() {
        [NetResponse::Written { sn }] => assert_eq!(*sn, SerialNumber(2)),
        other => panic!("expected the write's receipt, got {other:?}"),
    }
    let stats = h.server.stats_snapshot();
    assert!(stats.counter("net.flushes_before_device") >= 1);
    assert!(stats.counter("net.flushes") >= stats.counter("net.flushes_before_device"));
    h.net.shutdown();
}
