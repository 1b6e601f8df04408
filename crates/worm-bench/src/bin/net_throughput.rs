//! Network read-throughput scaling over the `wormnet` serving layer.
//!
//! The paper's service model (§3) puts clients on the far side of a
//! wire from the WORM box; this binary measures what the framed TCP
//! protocol costs and how verified remote reads scale with concurrent
//! client connections. Each client thread owns one TCP session and
//! performs fully verified reads (signatures, data hash, freshness)
//! against a loopback `NetServer`, keeping a pipeline window of
//! requests in flight so the wire round trip amortizes across the
//! window instead of gating every read. The server's event-loop
//! workers multiplex all the sessions. Emits
//! `results/BENCH_net_throughput.json` as JSON lines.
//!
//! Like `read_scaling`, this measures *wall clock* — the quantity of
//! interest is end-to-end serving parallelism. Compare `reads_per_sec`
//! here against `BENCH_read_scaling.json` to see the framing + loopback
//! + verification overhead per request.
//!
//! The binary is also a regression gate: it exits nonzero if the
//! scaling curve dips (speedup must be monotone within a small
//! tolerance through the highest client count) or if the server shed
//! connections mid-measurement (throughput numbers must never mask
//! admission failures).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use strongworm::{ReadVerdict, RetentionPolicy, SerialNumber, Verifier};
use worm_bench::{json_record, quick_server, to_json_lines};
use wormnet::{NetRequest, NetResponse, NetServer, NetServerConfig, RemoteWormClient};
use wormstore::Shredder;
use wormtrace::{OpSnapshot, OpStats};

/// One measured point of the scaling curve.
#[derive(Clone, Debug)]
struct NetThroughputPoint {
    clients: usize,
    host_cores: usize,
    pipeline_depth: usize,
    total_reads: u64,
    wall_ms: f64,
    reads_per_sec: f64,
    speedup_vs_1: f64,
    /// Connections the acceptor shed *during this point* (delta of the
    /// cumulative `net.conn_shed` counter). Must be zero for the
    /// point's throughput to mean anything.
    conn_shed: u64,
    /// High-water mark of `net.queue_depth` (connections handed off
    /// but not yet swept into a worker), cumulative across points —
    /// the gauge only ever ratchets up.
    queue_peak: u64,
    /// Wire-request latency quantiles from the server's registry
    /// (log2-bucket upper bounds), cumulative up to this point — the
    /// same figures `wormtop` renders live.
    request_p50_ns: u64,
    request_p99_ns: u64,
    /// Client-observed submit-to-verified latency quantiles for *this
    /// point only* (each client times every read from pipeline submit
    /// to verified response; the per-client histograms merge here).
    /// Pipelined latency includes window queueing — it is the latency
    /// a batch caller actually experiences.
    client_p50_ns: u64,
    client_p99_ns: u64,
    /// The worst single client's p99 at this point — fairness check:
    /// if one connection starves behind the event loop, it shows here
    /// long before it moves the merged p99.
    client_worst_p99_ns: u64,
}

json_record!(NetThroughputPoint {
    clients,
    host_cores,
    pipeline_depth,
    total_reads,
    wall_ms,
    reads_per_sec,
    speedup_vs_1,
    conn_shed,
    queue_peak,
    request_p50_ns,
    request_p99_ns,
    client_p50_ns,
    client_p99_ns,
    client_worst_p99_ns,
});

const CORPUS: usize = 64;
const RECORD_BYTES: usize = 4 << 10;
const MEASURE_WINDOW: Duration = Duration::from_millis(400);
const CLIENT_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
/// Requests each client keeps in flight on its connection. Depth 8 keeps
/// ~33KiB of 4KiB responses in the pipe — enough to hide a round trip, but
/// below the in-flight volume (131KiB at depth 32) where a slow-draining
/// verifying client starts tripping retransmit/zero-window stalls against
/// the default socket buffers.
const PIPELINE_DEPTH: usize = 8;
/// Monotone-speedup gate: each point must reach at least this fraction
/// of the previous point's throughput. Catches the historical
/// 0.9x-dip-at-8-clients regression while tolerating measurement
/// jitter.
const MONOTONE_TOLERANCE: f64 = 0.9;
/// Measurement passes per client count; the best pass is the point.
/// A regression gate wants the machine's ceiling, not its scheduler
/// noise — a real dip (the 8-client collapse was ~0.3x) fails every
/// pass, while a one-off descheduling stall fails only one.
const POINT_PASSES: usize = 2;

/// Verifies one pipelined response against the SN it was issued for
/// and records its submit-to-verified latency.
fn complete(
    resp: &NetResponse,
    issued: &mut VecDeque<(SerialNumber, Instant)>,
    lat: &OpStats,
    verifier: &Verifier,
) {
    let (sn, sent) = issued.pop_front().expect("response without a request");
    match resp {
        NetResponse::Outcome(outcome) => {
            let verdict = verifier.verify_read(sn, outcome).expect("verified read");
            assert_eq!(verdict, ReadVerdict::Intact { sn });
        }
        other => panic!("expected Outcome for {sn:?}, got {other:?}"),
    }
    lat.record(
        u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX),
        true,
    );
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (server, clock) = quick_server();
    let server = Arc::new(server);

    // A corpus of active records for the clients to sweep over.
    let policy = RetentionPolicy::custom(Duration::from_secs(1_000_000), Shredder::ZeroFill);
    let payload = vec![0xA7u8; RECORD_BYTES];
    let sns: Vec<SerialNumber> = (0..CORPUS)
        .map(|_| server.write(&[&payload], policy).expect("corpus write"))
        .collect();
    let sns = Arc::new(sns);

    // Peak-throughput measurement runs with trace *collection* off:
    // per-request span capture is the price of active diagnosis. The
    // switch stops the instruments only — the server does the same
    // work per read either way. Counters and gauges — everything the
    // shed/queue gates below read — are unconditional.
    server.trace().set_enabled(false);

    // Enough workers that the client count, not the pool, is the
    // variable under test; the event loop multiplexes 16 clients over
    // 8 workers without anyone waiting for a dedicated thread.
    let net = NetServer::bind(
        server.clone(),
        "127.0.0.1:0",
        NetServerConfig {
            workers: 8,
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = net.local_addr();
    let verifier =
        Arc::new(Verifier::new(server.keys(), Duration::from_secs(300), clock).expect("verifier"));

    let mut points: Vec<NetThroughputPoint> = Vec::new();
    for &clients in &CLIENT_COUNTS {
        let mut best: Option<NetThroughputPoint> = None;
        let mut shed_total = 0u64;
        for _pass in 0..POINT_PASSES {
            let shed_before = server.stats_snapshot().counter("net.conn_shed");
            let total = Arc::new(AtomicU64::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let start = Arc::new(Barrier::new(clients + 1));
            let threads: Vec<_> = (0..clients)
                .map(|t| {
                    let sns = sns.clone();
                    let verifier = verifier.clone();
                    let total = total.clone();
                    let stop = stop.clone();
                    let start = start.clone();
                    std::thread::spawn(move || {
                        let mut client = RemoteWormClient::connect(addr).expect("connect");
                        // This client's own end-to-end read latencies —
                        // fresh per point, so each client count stands on
                        // its own numbers.
                        let lat = OpStats::new();
                        let mut issued: VecDeque<(SerialNumber, Instant)> = VecDeque::new();
                        start.wait();
                        let mut n = 0u64;
                        let mut i = t;
                        let mut pipe = client.pipeline(PIPELINE_DEPTH);
                        // ordering: stop flag needs timeliness, not ordering; the final
                        // count is published by the join, not by this load.
                        //
                        // Fill the window, then drain only half of it: the
                        // half-window of requests departs as one coalesced
                        // write and the matching responses arrive in one
                        // buffered read, instead of a syscall per frame —
                        // the cadence a real pipelined consumer settles
                        // into, and what the event-driven server batches
                        // best against.
                        while !stop.load(Ordering::Relaxed) {
                            while pipe.in_flight() < PIPELINE_DEPTH {
                                let sn = sns[i % sns.len()];
                                issued.push_back((sn, Instant::now()));
                                if let Some(resp) =
                                    pipe.send(&NetRequest::Read { sn }).expect("pipelined send")
                                {
                                    complete(&resp, &mut issued, &lat, &verifier);
                                    n += 1;
                                }
                                i += 1;
                            }
                            while pipe.in_flight() > PIPELINE_DEPTH / 2 {
                                match pipe.recv().expect("pipelined recv") {
                                    Some(resp) => {
                                        complete(&resp, &mut issued, &lat, &verifier);
                                        n += 1;
                                    }
                                    None => break,
                                }
                            }
                        }
                        // Drain the window: every issued request completes
                        // and counts.
                        for resp in pipe.finish().expect("pipeline drain") {
                            complete(&resp, &mut issued, &lat, &verifier);
                            n += 1;
                        }
                        // ordering: joined before reading; the join edge orders this.
                        total.fetch_add(n, Ordering::Relaxed);
                        lat.snapshot()
                    })
                })
                .collect();

            start.wait();
            let t0 = Instant::now();
            std::thread::sleep(MEASURE_WINDOW);
            stop.store(true, Ordering::Relaxed); // ordering: see the reader-side note
            let per_client: Vec<OpSnapshot> = threads
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            let wall = t0.elapsed();

            // Merge the per-client histograms for this point's quantiles
            // and keep the worst single client's tail separately.
            let mut merged = OpSnapshot::default();
            let mut worst_p99 = 0u64;
            for snap in &per_client {
                merged.latency.merge(&snap.latency);
                worst_p99 = worst_p99.max(snap.p99_ns());
            }

            // ordering: every writer thread was joined above; Relaxed reads the final sum.
            let total_reads = total.load(Ordering::Relaxed);
            let reads_per_sec = total_reads as f64 / wall.as_secs_f64();
            let snap = server.stats_snapshot();
            // Shed connections accumulate across passes: shedding in
            // *any* pass fails the gate — a lucky retry must not
            // launder an overloaded admission path.
            shed_total += snap.counter("net.conn_shed").saturating_sub(shed_before);
            let candidate = NetThroughputPoint {
                clients,
                host_cores: cores,
                pipeline_depth: PIPELINE_DEPTH,
                total_reads,
                wall_ms: wall.as_secs_f64() * 1e3,
                reads_per_sec,
                speedup_vs_1: 1.0, // filled in below from the kept pass
                conn_shed: 0,      // filled in below from the cross-pass sum
                queue_peak: snap.gauge("net.queue_peak").unwrap_or(0),
                request_p50_ns: snap.p50_ns("net.request").unwrap_or(0),
                request_p99_ns: snap.p99_ns("net.request").unwrap_or(0),
                client_p50_ns: merged.p50_ns(),
                client_p99_ns: merged.p99_ns(),
                client_worst_p99_ns: worst_p99,
            };
            if best
                .as_ref()
                .is_none_or(|b| candidate.reads_per_sec > b.reads_per_sec)
            {
                best = Some(candidate);
            }
        }
        let mut point = best.expect("at least one measurement pass");
        point.conn_shed = shed_total;
        point.speedup_vs_1 = point.reads_per_sec
            / points
                .first()
                .map_or(point.reads_per_sec, |p| p.reads_per_sec);
        points.push(point);
        let p = points.last().unwrap();
        println!(
            "clients={:<2} total={:<9} rate={:>12.0} reads/s speedup={:.2}x shed={} p50={}ns p99={}ns (worst client p99 {}ns)",
            p.clients,
            p.total_reads,
            p.reads_per_sec,
            p.speedup_vs_1,
            p.conn_shed,
            p.client_p50_ns,
            p.client_p99_ns,
            p.client_worst_p99_ns
        );
    }

    net.shutdown();

    std::fs::create_dir_all("results").expect("results dir");
    let out = to_json_lines(&points) + "\n";
    std::fs::write("results/BENCH_net_throughput.json", out).expect("write results");
    println!("wrote results/BENCH_net_throughput.json ({cores} host cores)");

    // Regression gates. The historical failure mode was a *dip*: 8
    // clients slower than 4 because connections beyond the worker
    // count starved. The curve must be monotone (within tolerance),
    // and no point may have shed connections to get its number.
    let mut failures = Vec::new();
    for pair in points.windows(2) {
        let (prev, cur) = (&pair[0], &pair[1]);
        if cur.reads_per_sec < prev.reads_per_sec * MONOTONE_TOLERANCE {
            failures.push(format!(
                "throughput dipped at {} clients: {:.0} reads/s < {:.0}% of {:.0} at {} clients",
                cur.clients,
                cur.reads_per_sec,
                MONOTONE_TOLERANCE * 100.0,
                prev.reads_per_sec,
                prev.clients
            ));
        }
    }
    for p in &points {
        if p.conn_shed > 0 {
            failures.push(format!(
                "{} connections shed at {} clients: the point under-reports load",
                p.conn_shed, p.clients
            ));
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "scaling gate passed: monotone speedup through {} clients, zero shed",
        CLIENT_COUNTS.last().copied().unwrap_or(0)
    );
}
