//! Power-fail torture: enumerate every write-boundary cut of the full
//! record lifecycle (write → expire-and-shred → compact → write), with
//! every torn-sector style, recover, and re-verify the Theorem 1/2
//! invariants end-to-end through `WormServer` and the client verifier —
//! no committed record lost, no shredded record recoverable, no verifier
//! acceptance of torn state. A second sweep cuts power *during recovery
//! itself* and recovers again.
//!
//! Deterministically seeded: a failing cut point replays bit-identically.

use wormsim::{CutPlan, CutRange, CutStyle, Scenario, Torture};

#[test]
fn every_cut_point_of_the_lifecycle_recovers_and_verifies() {
    let rig = Torture::small();
    let sc = Scenario::default();
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
    let sc = Scenario::default();
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
        let plan = CutPlan {
            at_write: first_cut,
            style: CutStyle::Garbage,
            seed: 0xFA11 ^ first_cut,
        };
        // Clean recovery of this cut, profiled for its own boundaries.
        let out = rig
            .torture(&sc, plan, None)
            .unwrap_or_else(|e| panic!("first cut at {first_cut}: {e}"));
        assert!(out.cut_fired, "candidate {first_cut} must fire");
        assert!(out.recovery_writes > 0, "recovery must journal work");
        // Now cut the recovery at every one of its own boundaries.
        let recovery = CutRange {
            first: 1,
            last: out.recovery_writes,
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
    let rig = Torture::small();
    let sc = Scenario::default();
    let range = rig.profile(&sc).expect("profile");
    // A cut armed past the end never fires: this is the crash-after-
    // quiesce baseline — everything acked must survive and verify.
    let out = rig
        .torture(
            &sc,
            CutPlan {
                at_write: range.last + 1_000,
                style: CutStyle::Drop,
                seed: 0,
            },
            None,
        )
        .expect("clean shutdown must recover");
    assert!(!out.cut_fired);
}
