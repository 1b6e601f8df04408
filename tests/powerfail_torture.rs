//! Power-fail torture: every write-boundary cut of the full record
//! lifecycle (write → expire-and-shred → compact → write), in every
//! torn-sector style, recovered and held to the model of `wormsim::model`.
//! A second sweep cuts power *during recovery itself* and recovers again.
//!
//! Deterministically seeded: a failing cut point replays bit-identically.

use wormsim::model::{run, Schedule, Step};
use wormsim::{CutPlan, CutRange, CutStyle, Torture};

#[test]
fn every_cut_point_of_the_lifecycle_recovers_and_verifies() {
    let rig = Torture::small();
    let sc = Schedule::lifecycle(2, 2, true, 1);
    let range = rig.profile(&sc).expect("scenario profiles cleanly");
    assert!(
        range.last - range.first >= 20,
        "scenario too small to be interesting ({range:?})"
    );
    let mut explored = 0u64;
    for plan in range.plans(0x5EED) {
        if let Err(e) = rig.torture(&sc, plan, None) {
            panic!("cut at write {} ({}): {e}", plan.at_write, plan.style);
        }
        explored += 1;
    }
    assert!(explored >= 4, "explored {explored} cut points");
}

#[test]
fn crash_during_recovery_still_recovers() {
    let rig = Torture::small();
    let sc = Schedule::lifecycle(2, 2, true, 1);
    let range = rig.profile(&sc).expect("scenario profiles cleanly");
    let span = range.last - range.first;
    // Representative first cuts across the lifecycle: early (during the
    // writes), middle (during the deletion transaction), late (during
    // compaction / tail writes), and the very last boundary.
    let candidates = [
        range.first + span / 4,
        range.first + span / 2,
        range.first + (3 * span) / 4,
        range.last,
    ];
    for &first_cut in &candidates {
        let plan = CutPlan::new(first_cut, CutStyle::Garbage, 0xFA11 ^ first_cut);
        // Clean recovery of this cut, profiled for its own boundaries.
        let out = rig
            .torture(&sc, plan, None)
            .unwrap_or_else(|e| panic!("first cut at {first_cut}: {e}"));
        assert_eq!(out.cuts_fired, 1, "candidate {first_cut} must fire");
        assert!(out.recovery.0 > 0, "recovery must journal work");
        // Now cut the recovery at every one of its own boundaries.
        let recovery = CutRange {
            first: 1,
            last: out.recovery.0,
        };
        for rp in recovery.plans(0x2ECC) {
            if let Err(e) = rig.torture(&sc, plan, Some(rp)) {
                panic!(
                    "first cut {first_cut}, recovery cut {} ({}): {e}",
                    rp.at_write, rp.style
                );
            }
        }
    }
}

#[test]
fn clean_shutdown_recovers_everything() {
    // The crash-after-quiesce baseline: everything acked survives a clean
    // crash and verifies, and the recovered server still takes writes —
    // the model checked after every step.
    let mut schedule = Schedule::lifecycle(2, 2, true, 1);
    schedule
        .steps
        .extend([Step::Restart, Step::write(1_000_000)]);
    run(&Torture::small(), &schedule);
}
