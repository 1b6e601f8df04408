//! Ablation A7 beyond the paper's envelope: write throughput of a
//! sharded witness plane vs SCPU count.
//!
//! The paper's §5 remark claims write throughput scales linearly with
//! the number of SCPUs because each write costs a fixed amount of
//! secure-coprocessor time (witness signatures) while host-side work is
//! comparatively free. This binary boots a `ShardedWormServer` at 1, 2,
//! 4, and 8 shards, drives the same write workload through the
//! round-robin fan-out once per witnessing tier (`strong-1024`, then
//! `deferred-512`), and derives throughput from *virtual time* the
//! same way `figure1` does: every shard's emulated SCPU charges each
//! operation its documented IBM 4764 latency, so the results are
//! deterministic and independent of this machine's core count.
//!
//! Shards operate in parallel (distinct SCPU devices, per-shard witness
//! serialization), so the parallel completion time of the batch is the
//! *makespan* — the busiest single shard's device time — while the
//! host-side stage remains shared and serial. The effective rate is the
//! pipeline minimum of the two, exactly the stage model of Figure 1.
//!
//! After each measured point the batch is re-read over the wire: a
//! `NetServer` fronts the sharded deployment, a `RemoteWormClient`
//! bootstraps a `Verifier` over every lane from `GetShardKeys`, and
//! sampled records from every lane must verify end-to-end. A point only counts if every sampled cross-shard
//! read verifies.
//!
//! Exits nonzero if a tier's speedup curve is not monotone or its
//! 4-shard point is below 2.5x. `results/BENCH_shard_scaling.json` is
//! the `--json` output.
//!
//! Usage: `shard_scaling [--json]`

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use scpu::VirtualClock;
use strongworm::{
    HashMode, ReadVerdict, RegulatoryAuthority, RetentionPolicy, SerialNumber, ShardedWormServer,
    WitnessMode, WormConfig,
};
use worm_bench::{json_record, paper_config, to_json_lines};
use wormcrypt::RsaPublicKey;
use wormnet::{NetServer, NetServerConfig, RemoteWormClient};
use wormstore::Shredder;

/// One measured point of the A7 reproduction.
#[derive(Clone, Debug)]
struct ShardScalingPoint {
    /// Witnessing tier of the series (§4.3).
    mode: &'static str,
    shards: u32,
    records: usize,
    record_bytes: usize,
    /// Busiest shard's SCPU time for the batch (the parallel makespan), ns.
    scpu_makespan_ns: u64,
    /// Shared host-side time for the batch, ns.
    host_ns: u64,
    /// Rate sustainable by the sharded SCPU stage (records/second).
    scpu_rps: f64,
    /// Rate sustainable by the shared host stage (records/second).
    host_rps: f64,
    /// Pipeline minimum of the two stages.
    effective_rps: f64,
    speedup_vs_1: f64,
    /// Cross-shard wire reads verified under their lanes' keys.
    wire_reads_verified: u64,
}

json_record!(ShardScalingPoint {
    mode,
    shards,
    records,
    record_bytes,
    scpu_makespan_ns,
    host_ns,
    scpu_rps,
    host_rps,
    effective_rps,
    speedup_vs_1,
    wire_reads_verified,
});

/// Shard counts swept per tier.
const SWEEP: [u32; 4] = [1, 2, 4, 8];
/// Writes per point.
const RECORDS: usize = 192;
const RECORD_BYTES: usize = 4 << 10;
/// Verified cross-shard reads sampled per point (capped by batch size).
const READBACK_SAMPLES: usize = 16;

fn bench_config() -> WormConfig {
    // The host hashes record data (§4.2.2) as in Figure 1's hosthash
    // series: the per-write SCPU cost is then the witness signatures
    // alone, which is what distinguishes the two series. Each write
    // names its tier, so the default is never consulted. Eight stores
    // of the single-server size would not fit; a batch needs under 1 MiB.
    WormConfig {
        store_capacity: 16 << 20,
        ..paper_config(HashMode::TrustHostHash, WitnessMode::Strong)
    }
}

fn measure_point(
    (mode, witness): (&'static str, WitnessMode),
    shards: u32,
    regulator: &RsaPublicKey,
    baseline_rps: Option<f64>,
) -> ShardScalingPoint {
    let clock = VirtualClock::starting_at_millis(1_000_000);
    let server = Arc::new(
        ShardedWormServer::new(bench_config(), clock.clone(), regulator, shards)
            .expect("sharded server boots"),
    );

    let mut rng = StdRng::seed_from_u64(u64::from(shards) ^ 0xA7);
    let mut record = vec![0u8; RECORD_BYTES];
    rng.fill_bytes(&mut record);
    let policy = RetentionPolicy::custom(Duration::from_secs(1_000_000), Shredder::ZeroFill);

    for shard in server.shards() {
        shard.reset_meters();
    }
    let sns: Vec<SerialNumber> = (0..RECORDS)
        .map(|_| {
            server
                .write_with(&[&record], policy, 0, witness)
                .expect("write succeeds")
        })
        .collect();

    // Shards run in parallel: the batch completes when the busiest
    // shard's SCPU drains. The host stage is one machine, shared by all
    // shards, so its per-batch time does not divide.
    let scpu_makespan_ns = server
        .shards()
        .iter()
        .map(|s| u64::try_from(s.device_meter().busy_ns()).unwrap_or(u64::MAX))
        .max()
        .unwrap_or(0);
    let host_ns: u64 = server
        .shards()
        .iter()
        .map(|s| u64::try_from(s.host_meter().busy_ns()).unwrap_or(u64::MAX))
        .sum();

    let n = RECORDS as f64;
    let scpu_rps = n / (scpu_makespan_ns as f64 / 1e9).max(1e-12);
    let host_rps = if host_ns > 0 {
        n / (host_ns as f64 / 1e9)
    } else {
        f64::INFINITY
    };
    let effective_rps = scpu_rps.min(host_rps);

    // End-to-end check: every lane's records must still verify over the
    // wire, each under its own lane's keys.
    let wire_reads_verified = verify_over_wire(&server, clock, &sns);

    ShardScalingPoint {
        mode,
        shards,
        records: RECORDS,
        record_bytes: RECORD_BYTES,
        scpu_makespan_ns,
        host_ns,
        scpu_rps,
        host_rps,
        effective_rps,
        speedup_vs_1: effective_rps / baseline_rps.unwrap_or(effective_rps),
        wire_reads_verified,
    }
}

/// Reads a cross-lane sample of `sns` over a loopback `NetServer`, each
/// verified under its lane's keys; returns the number verified.
/// Panics if any sampled read fails to verify — the scaling numbers are
/// only meaningful if the sharded plane stays globally verifiable.
fn verify_over_wire(
    server: &Arc<ShardedWormServer>,
    clock: Arc<VirtualClock>,
    sns: &[SerialNumber],
) -> u64 {
    let net = NetServer::bind(server.clone(), "127.0.0.1:0", NetServerConfig::default())
        .expect("bind loopback");
    let mut client = RemoteWormClient::connect(net.local_addr()).expect("connect");
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), clock)
        .expect("bootstrap verifier");
    assert_eq!(verifier.shard_count(), server.shard_count() as usize);

    // An evenly strided sample crosses every lane (writes were assigned
    // round-robin, so consecutive SNs live on different shards).
    let step = (sns.len() / READBACK_SAMPLES.min(sns.len())).max(1);
    let mut verified = 0u64;
    for &sn in sns.iter().step_by(step) {
        let (verdict, _) = client
            .read_verified(sn, &verifier)
            .expect("verified wire read");
        assert_eq!(verdict, ReadVerdict::Intact { sn }, "read must verify");
        verified += 1;
    }
    net.shutdown();
    verified
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    let mut rng = StdRng::seed_from_u64(0xA7);
    let regulator = RegulatoryAuthority::generate(&mut rng, 512);

    let mut all: Vec<ShardScalingPoint> = Vec::new();
    for series in [
        ("strong-1024", WitnessMode::Strong),
        ("deferred-512", WitnessMode::Deferred),
    ] {
        let mut points: Vec<ShardScalingPoint> = Vec::new();
        for shards in SWEEP {
            let baseline = points.first().map(|p| p.effective_rps);
            points.push(measure_point(series, shards, regulator.public(), baseline));
        }

        // A7's claim is monotone (near-linear) scaling; a regression here
        // means the fan-out serialized somewhere it shouldn't.
        for pair in points.windows(2) {
            assert!(
                pair[1].effective_rps > pair[0].effective_rps,
                "{} write throughput must be monotone in shard count: {} shards {:.0} rec/s vs {} shards {:.0} rec/s",
                pair[0].mode,
                pair[0].shards,
                pair[0].effective_rps,
                pair[1].shards,
                pair[1].effective_rps,
            );
        }
        let four = points
            .iter()
            .find(|p| p.shards == 4)
            .expect("4-shard point");
        assert!(
            four.speedup_vs_1 >= 2.5,
            "{} 4-shard speedup must be >= 2.5x, got {:.2}x",
            four.mode,
            four.speedup_vs_1
        );
        all.extend(points);
    }

    if json {
        println!("{}", to_json_lines(&all));
        return;
    }
    println!("Ablation A7 — write throughput vs SCPU count (records/second, SCPU virtual time)");
    println!(
        "workload: {RECORDS} x {RECORD_BYTES} B writes per point, round-robin over the shards"
    );
    println!();
    println!(
        "{:<14} {:>7} {:>14} {:>9} {:>14}",
        "mode", "shards", "effective rps", "speedup", "wire-verified"
    );
    println!("{}", "-".repeat(62));
    for p in &all {
        println!(
            "{:<14} {:>7} {:>14.0} {:>8.2}x {:>14}",
            p.mode, p.shards, p.effective_rps, p.speedup_vs_1, p.wire_reads_verified
        );
    }
}
