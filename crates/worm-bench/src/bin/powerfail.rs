//! Power-fail torture at benchmark scale.
//!
//! Drives `wormsim::Torture` over a lifecycle schedule an order of
//! magnitude larger than the integration test's — dozens of expiring and
//! surviving records through deletion, shred and compaction — with a cut
//! at *every* write boundary in all four torn-sector styles. Each cut
//! recovers and runs the model's check (`wormsim::model`), the
//! interrupted write included, so one dirty recovery fails the run.
//!
//! Prints one row per cut style plus a summary row carrying the gates —
//! at least 1000 cut points, all of them clean — and exits nonzero if
//! either fails. The rows hold counts only, so the output repeats byte
//! for byte (`results/BENCH_powerfail.json` is the `--json` output). How
//! long the recoveries took and how many cuts left a hole (an interrupted
//! write's SN issued with nothing behind it, ROADMAP item 1) go to
//! stderr; the recovery time of record is `wormstore.recover_s` in
//! `bench/`.
//!
//! Usage: `powerfail [--json]`

use std::time::Instant;

use worm_bench::{json_record, to_json_lines};
use wormsim::model::{Schedule, State};
use wormsim::{CutStyle, Torture};

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
    let (victims, keepers, tail_writes) = (26, 8, 3);
    let sc = Schedule::lifecycle(victims, keepers, true, tail_writes);
    let range = rig.profile(&sc).expect("scenario profiles cleanly");
    eprintln!(
        "powerfail: {} write boundaries x {} styles",
        range.last - range.first + 1,
        CutStyle::ALL.len()
    );

    let started = Instant::now();
    // Per style, in `CutStyle::ALL` order: cut points explored, and how
    // many recovered clean.
    let mut tallies = [(0u64, 0u64); CutStyle::ALL.len()];
    let mut recovery_ns: Vec<u64> = Vec::new();
    let mut holes = 0u64;
    let mut failures: Vec<String> = Vec::new();
    for plan in range.plans(0x5EED) {
        let (cut_points, clean) = &mut tallies[plan.style as usize];
        *cut_points += 1;
        match rig.torture(&sc, plan, None) {
            Ok(out) => {
                *clean += 1;
                holes += u64::from(out.states.contains(&State::Hole));
                recovery_ns.push(out.recovery.1);
            }
            Err(e) => failures.push(format!(
                "cut at write {} ({}): {e}",
                plan.at_write, plan.style
            )),
        }
    }

    let mut points: Vec<PowerfailPoint> = CutStyle::ALL
        .iter()
        .zip(tallies)
        .map(|(style, (cut_points, clean))| point(&style.to_string(), cut_points, clean))
        .collect();
    let mut summary = point(
        "summary",
        tallies.iter().map(|t| t.0).sum(),
        tallies.iter().map(|t| t.1).sum(),
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
    eprintln!("powerfail: {holes} clean cuts left a hole (ROADMAP item 1)");

    if json {
        println!("{}", to_json_lines(&points));
    } else {
        println!("Power-fail sweep — a cut at every write boundary of a full record lifecycle");
        println!(
            "scenario: {} expiring + {} surviving records, shred + compaction, {} tail writes",
            victims, keepers, tail_writes
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
