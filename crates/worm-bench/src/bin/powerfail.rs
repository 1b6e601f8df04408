//! Power-fail torture at benchmark scale.
//!
//! Drives `strongworm::powerfail::Torture` over a scenario an order of
//! magnitude larger than the exhaustive-but-small integration test:
//! dozens of expiring and surviving records, the full deletion + shred +
//! compaction lifecycle, and a cut at *every* write boundary in all four
//! torn-sector styles. Each cut recovers with `recover_durable` and
//! re-verifies the Theorem 1/2 invariants end-to-end, so a single dirty
//! recovery fails the run.
//!
//! Prints one row per cut style plus a summary row carrying the gates —
//!
//! * ≥ 1000 distinct cut points explored (the acceptance floor), and
//! * 100% clean recovery across all of them
//!
//! — and exits nonzero if either fails. The rows hold counts only, so
//! the output repeats byte for byte (`results/BENCH_powerfail.json` is
//! the `--json` output); how long the recoveries took on this machine
//! goes to stderr, and the recovery time of record is
//! `wormstore.recover_s` in `bench/`.
//!
//! Usage: `powerfail [--json]`

use std::time::Instant;

use strongworm::powerfail::{Scenario, Torture};
use worm_bench::{json_record, to_json_lines};
use wormstore::{CutPlan, CutStyle};

/// Cut-point floor the summary row is held to.
const MIN_CUT_POINTS: u64 = 1_000;

/// One row of the artifact: a per-style sweep or the summary.
#[derive(Clone, Debug)]
struct PowerfailPoint {
    mode: String,
    cut_points: u64,
    clean_recoveries: u64,
    clean_pct: f64,
    gate_min_cut_points: u64,
    /// Both gates: floor reached and 100% clean. Judged on the summary
    /// row; vacuously true on per-style rows.
    gate_pass: bool,
}

json_record!(PowerfailPoint {
    mode,
    cut_points,
    clean_recoveries,
    clean_pct,
    gate_min_cut_points,
    gate_pass,
});

/// Cut points explored in one style, and how many recovered clean.
struct Tally {
    style: CutStyle,
    cut_points: u64,
    clean: u64,
}

fn point(mode: &str, cut_points: u64, clean: u64) -> PowerfailPoint {
    PowerfailPoint {
        mode: mode.to_string(),
        cut_points,
        clean_recoveries: clean,
        clean_pct: if cut_points > 0 {
            100.0 * clean as f64 / cut_points as f64
        } else {
            0.0
        },
        gate_min_cut_points: MIN_CUT_POINTS,
        gate_pass: true,
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    // 1 MiB medium, 256 KiB journal region: room for the large scenario's
    // journal traffic plus compaction relocations.
    let rig = Torture::new(1 << 20, 1 << 18);
    // Sized so the sweep clears the 1000-cut-point floor with ~30%
    // headroom while a full run stays in low single-digit minutes.
    let sc = Scenario {
        victims: 26,
        keepers: 8,
        compact: true,
        tail_writes: 3,
    };
    let range = rig.profile(&sc).expect("scenario profiles cleanly");
    eprintln!(
        "powerfail: {} write boundaries x {} styles",
        range.last - range.first + 1,
        CutStyle::ALL.len()
    );

    let started = Instant::now();
    let mut tallies: Vec<Tally> = CutStyle::ALL
        .iter()
        .map(|&style| Tally {
            style,
            cut_points: 0,
            clean: 0,
        })
        .collect();
    let mut recovery_ns: Vec<u64> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for at in range.first..=range.last {
        for tally in &mut tallies {
            let plan = CutPlan {
                at_write: at,
                style: tally.style,
                seed: 0x5EED ^ at,
            };
            tally.cut_points += 1;
            match rig.torture(&sc, plan, None) {
                Ok(out) => {
                    tally.clean += 1;
                    recovery_ns.push(out.recovery_nanos);
                }
                Err(e) => failures.push(format!("cut at write {at} ({}): {e}", tally.style)),
            }
        }
    }

    let mut points: Vec<PowerfailPoint> = tallies
        .iter()
        .map(|t| point(&t.style.to_string(), t.cut_points, t.clean))
        .collect();
    let mut summary = point(
        "summary",
        tallies.iter().map(|t| t.cut_points).sum(),
        tallies.iter().map(|t| t.clean).sum(),
    );
    summary.gate_pass =
        summary.clean_recoveries == summary.cut_points && summary.cut_points >= MIN_CUT_POINTS;
    points.push(summary.clone());

    eprintln!(
        "powerfail: recovery min {:.0} / mean {:.0} / max {:.0} us over {} clean cuts, {:.1}s in all",
        recovery_ns.iter().min().copied().unwrap_or(0) as f64 / 1e3,
        recovery_ns.iter().sum::<u64>() as f64 / recovery_ns.len().max(1) as f64 / 1e3,
        recovery_ns.iter().max().copied().unwrap_or(0) as f64 / 1e3,
        recovery_ns.len(),
        started.elapsed().as_secs_f64()
    );

    if json {
        println!("{}", to_json_lines(&points));
    } else {
        println!("Power-fail sweep — a cut at every write boundary of a full record lifecycle");
        println!(
            "scenario: {} expiring + {} surviving records, shred + compaction, {} tail writes",
            sc.victims, sc.keepers, sc.tail_writes
        );
        println!();
        println!(
            "{:<10} {:>11} {:>17} {:>8}",
            "cut style", "cut points", "clean recoveries", "clean %"
        );
        println!("{}", "-".repeat(49));
        for p in &points {
            println!(
                "{:<10} {:>11} {:>17} {:>8.1}",
                p.mode, p.cut_points, p.clean_recoveries, p.clean_pct
            );
        }
    }

    for f in failures.iter().take(10) {
        eprintln!("FAIL {f}");
    }
    if !summary.gate_pass {
        eprintln!(
            "GATE FAILED: {} cut points (floor {MIN_CUT_POINTS}), {} dirty recoveries",
            summary.cut_points,
            summary.cut_points - summary.clean_recoveries
        );
        std::process::exit(1);
    }
}
