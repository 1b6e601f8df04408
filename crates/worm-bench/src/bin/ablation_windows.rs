//! Ablation A2 — VRDT storage under multi-window compaction.
//!
//! §4.2.1: when records "do not expire in the order of their insertion —
//! likely if the same store is used with data governed by different
//! regulations", contiguous expired segments of 3+ records can be
//! replaced by signed window-bound pairs, bounding the table's resident
//! state. This binary ingests a mixed-regulation workload, expires
//! records out of insertion order, and reports resident VRDT entries with
//! and without compaction.
//!
//! Usage: `ablation_windows [--json]`

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::{Clock, VirtualClock};
use strongworm::{RegulatoryAuthority, RetentionPolicy, WormConfig, WormServer};
use worm_bench::json_record;
use wormstore::Shredder;

struct Row {
    phase: String,
    elapsed_s: u64,
    resident_no_compaction: usize,
    resident_with_compaction: usize,
    windows: usize,
    scpu_window_sigs: u64,
}

json_record!(Row {
    phase,
    elapsed_s,
    resident_no_compaction,
    resident_with_compaction,
    windows,
    scpu_window_sigs
});

fn build_server(clock: Arc<VirtualClock>) -> WormServer {
    let mut rng = StdRng::seed_from_u64(5);
    let regulator = RegulatoryAuthority::generate(&mut rng, 512);
    let mut cfg = WormConfig::test_small();
    cfg.store_capacity = 64 << 20;
    cfg.device.cost_model = scpu::CostModel::ibm4764();
    WormServer::new(cfg, clock, regulator.public()).expect("server boots")
}

/// Records ingested: twenty batches of each regulation class.
const RECORDS: usize = 1500;

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    // Three regulation classes with different retention periods, written
    // in alternating batches (as departments upload in blocks): class-0
    // expires first, leaving expired *segments* interleaved with live
    // ones — the multi-window case of §4.2.1.
    let classes = [600u64, 3_000, 30_000];
    let batch = 25usize;

    let clock_a = VirtualClock::starting_at_millis(0);
    let clock_b = VirtualClock::starting_at_millis(0);
    let plain = build_server(clock_a.clone());
    let compacted = build_server(clock_b.clone());

    for i in 0..RECORDS {
        let retention = classes[(i / batch) % classes.len()];
        let policy = RetentionPolicy::custom(Duration::from_secs(retention), Shredder::ZeroFill);
        let body = format!("record-{i}");
        plain.write(&[body.as_bytes()], policy).unwrap();
        compacted.write(&[body.as_bytes()], policy).unwrap();
    }

    let mut rows = Vec::new();
    let mut emit = |label: &str, elapsed: u64, plain: &WormServer, compacted: &WormServer| {
        rows.push(Row {
            phase: label.to_owned(),
            elapsed_s: elapsed,
            resident_no_compaction: plain.vrdt().resident_entries(),
            resident_with_compaction: compacted.vrdt().resident_entries(),
            windows: compacted.vrdt().resident_windows(),
            scpu_window_sigs: compacted.device_meter().count("rsa_sign"),
        });
    };

    emit("ingested", 0, &plain, &compacted);
    for (label, at_s) in [
        ("class0-expired", 700u64),
        ("class1-expired", 3_100),
        ("class2-expired", 31_000),
    ] {
        let now = clock_a.now().as_millis() / 1000;
        let advance = at_s.saturating_sub(now);
        clock_a.advance(Duration::from_secs(advance));
        clock_b.advance(Duration::from_secs(advance));
        plain.tick().unwrap();
        compacted.tick().unwrap();
        compacted.compact().unwrap();
        emit(label, at_s, &plain, &compacted);
    }

    if json {
        println!("{}", worm_bench::to_json_lines(&rows));
        return;
    }
    println!("Ablation A2 — VRDT residency: per-record proofs vs multi-window compaction");
    println!(
        "workload: {RECORDS} records, 3 regulation classes (600 s / 3000 s / 30000 s), 25-record batches"
    );
    println!();
    println!(
        "{:>16} {:>10} {:>22} {:>24} {:>9}",
        "phase", "t (s)", "resident (no compact)", "resident (compacted)", "windows"
    );
    println!("{}", "-".repeat(88));
    for r in &rows {
        println!(
            "{:>16} {:>10} {:>22} {:>24} {:>9}",
            r.phase, r.elapsed_s, r.resident_no_compaction, r.resident_with_compaction, r.windows
        );
    }
    println!();
    println!("with out-of-order expiry, compaction replaces whole expired segments by");
    println!("two signed bounds each; without it every expired record keeps a proof");
    println!("resident until the base finally sweeps past it.");
}
