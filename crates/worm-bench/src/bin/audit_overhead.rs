//! Audit-plane overhead on remote verified reads.
//!
//! PR cost question: every security-relevant event appends to a
//! hash-chained audit journal. This binary prices the whole plane
//! against its kill switch on the operation the <3% budget applies to
//! — the remote verified read:
//!
//! * **audited** — `AuditLog::set_enabled(true)`: a failed read would
//!   be chained, and maintenance events chain and anchor as in
//!   production;
//! * **unaudited** — `AuditLog::set_enabled(false)`: the journal's
//!   emit path short-circuits to one atomic load, restoring the
//!   pre-audit configuration.
//!
//! Methodology: modes alternate per batch
//! so drift hits both equally, and each mode keeps its *minimum*
//! per-read batch time (least-noise estimate). The binary exits
//! nonzero if the overhead exceeds the 3% budget; `--smoke` runs the
//! same shape with fewer batches for CI, gated only against a loose
//! 25% sanity ceiling (loopback timing in shared CI runners is too
//! noisy for the tight budget). Emits
//! `results/BENCH_audit_overhead.json` as JSON lines.

use std::sync::Arc;
use std::time::{Duration, Instant};

use strongworm::{ReadVerdict, RetentionPolicy, SerialNumber, Verifier};
use worm_bench::{json_record, quick_server, to_json_lines};
use wormnet::{NetServer, NetServerConfig, RemoteWormClient};
use wormstore::Shredder;

/// One measured row (a mode, or the summary).
#[derive(Clone, Debug)]
struct AuditOverheadPoint {
    mode: String,
    batches_per_mode: u64,
    reads_per_batch: u64,
    min_ns_per_read: f64,
    reads_per_sec: f64,
    /// Audited minus unaudited, as a percentage of unaudited; zero on
    /// the per-mode rows, filled on the summary row.
    overhead_pct: f64,
    /// Whether the <3% budget holds. Judged on the summary row;
    /// vacuously true elsewhere.
    within_target: bool,
}

json_record!(AuditOverheadPoint {
    mode,
    batches_per_mode,
    reads_per_batch,
    min_ns_per_read,
    reads_per_sec,
    overhead_pct,
    within_target,
});

const CORPUS: usize = 64;
const RECORD_BYTES: usize = 4 << 10;
const BATCH: u64 = 200;
const OVERHEAD_TARGET_PCT: f64 = 3.0;
const SMOKE_TARGET_PCT: f64 = 25.0;

/// Times one batch of remote verified reads in ns/read.
fn batch(
    client: &mut RemoteWormClient,
    verifier: &Verifier,
    sns: &[SerialNumber],
    start: u64,
) -> f64 {
    let t0 = Instant::now();
    for i in start..start + BATCH {
        let sn = sns[(i as usize) % sns.len()];
        let (verdict, _) = client.read_verified(sn, verifier).expect("verified read");
        assert_eq!(verdict, ReadVerdict::Intact { sn });
    }
    t0.elapsed().as_nanos() as f64 / BATCH as f64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let batches_per_mode: u64 = if smoke { 10 } else { 100 };
    let target = if smoke {
        SMOKE_TARGET_PCT
    } else {
        OVERHEAD_TARGET_PCT
    };

    let (server, clock) = quick_server();
    let server = Arc::new(server);
    let verifier = Verifier::new(server.keys(), Duration::from_secs(300), clock).expect("verifier");

    let policy = RetentionPolicy::custom(Duration::from_secs(1_000_000), Shredder::ZeroFill);
    let payload = vec![0x33u8; RECORD_BYTES];
    let sns: Vec<SerialNumber> = (0..CORPUS)
        .map(|_| server.write(&[&payload], policy).expect("corpus write"))
        .collect();

    let net = NetServer::bind(
        Arc::clone(&server),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("bind loopback");
    let mut client = RemoteWormClient::connect(net.local_addr()).expect("connect");

    // Warm both paths before any timed batch.
    let mut pos = 0u64;
    for &audited in &[true, false] {
        server.audit().set_enabled(audited);
        batch(&mut client, &verifier, &sns, pos);
        pos += BATCH;
    }
    let mut min_audited = f64::INFINITY;
    let mut min_unaudited = f64::INFINITY;
    for _ in 0..batches_per_mode {
        for &audited in &[true, false] {
            server.audit().set_enabled(audited);
            let ns = batch(&mut client, &verifier, &sns, pos);
            pos += BATCH;
            if audited {
                min_audited = min_audited.min(ns);
            } else {
                min_unaudited = min_unaudited.min(ns);
            }
        }
    }
    server.audit().set_enabled(true);

    let overhead = (min_audited - min_unaudited) / min_unaudited * 100.0;
    let within = overhead < OVERHEAD_TARGET_PCT;
    let row = |mode: &str, ns: f64, pct: f64, ok: bool| AuditOverheadPoint {
        mode: mode.into(),
        batches_per_mode,
        reads_per_batch: BATCH,
        min_ns_per_read: ns,
        reads_per_sec: if ns > 0.0 { 1e9 / ns } else { 0.0 },
        overhead_pct: pct,
        within_target: ok,
    };
    let points = vec![
        row("audited", min_audited, 0.0, true),
        row("unaudited", min_unaudited, 0.0, true),
        row("overhead", min_audited - min_unaudited, overhead, within),
    ];

    println!(
        "audited={min_audited:.0} unaudited={min_unaudited:.0} ns/read — overhead {overhead:.2}% \
         (target < {OVERHEAD_TARGET_PCT}%) — {}",
        if within {
            "within budget"
        } else {
            "OVER BUDGET"
        }
    );

    net.shutdown();
    std::fs::create_dir_all("results").expect("results dir");
    let out = to_json_lines(&points) + "\n";
    std::fs::write("results/BENCH_audit_overhead.json", out).expect("write results");
    println!("wrote results/BENCH_audit_overhead.json");

    if overhead >= target {
        eprintln!("audit_overhead: {overhead:.2}% exceeds the {target}% gate");
        std::process::exit(1);
    }
}
