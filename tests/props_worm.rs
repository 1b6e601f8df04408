//! The random sweep: seeded schedules of client writes at every witness
//! tier, ticks, idles, holds, compaction, restarts, power cuts and forged
//! answers, run against a durable server and held to the model of
//! `wormsim::model` after every step. A failure prints its seed and a
//! minimized schedule; the seeds are fixed, so it replays.

use std::collections::HashSet;
use std::mem::discriminant;
use std::sync::OnceLock;

use strongworm::WitnessMode::{Deferred, Hmac, Strong};
use wormsim::model::{run, Forgery, Report, Schedule, Step};
use wormsim::Torture;

/// Runs this binary's one rig over 40-step schedules from `seeds`: the
/// steps that ran, and how many cuts fired.
fn sweep(seeds: std::ops::Range<u64>) -> (Vec<Step>, u32) {
    static RIG: OnceLock<Torture> = OnceLock::new();
    let rig = RIG.get_or_init(Torture::small);
    let reports: Vec<Report> = seeds.map(|s| run(rig, &Schedule::random(s, 40))).collect();
    let cuts = reports.iter().map(|r| r.cuts_fired).sum();
    (reports.into_iter().flat_map(|r| r.ran).collect(), cuts)
}

#[test]
fn random_histories_agree_with_oracle() {
    let (ran, cuts) = sweep(0..32);
    let forged = ran.iter().filter_map(|step| match step {
        Step::Forge(forgery, _) => Some(*forgery),
        _ => None,
    });
    let kinds: HashSet<_> = ran.iter().map(discriminant).collect();
    assert_eq!(kinds.len(), 10, "a step kind never ran");
    for mode in [Strong, Deferred, Hmac] {
        let written = |step: &Step| matches!(step, Step::Write(_, _, m) if *m == mode);
        assert!(ran.iter().any(written), "no {mode:?} write ran");
    }
    assert_eq!(
        forged.collect::<HashSet<_>>().len(),
        Forgery::ALL.len(),
        "a forgery never ran"
    );
    assert!(cuts > 0, "no cut fired");
}

#[test]
fn compaction_is_transparent_to_clients() {
    // 32 more seeds: a compaction that changed a verdict the model fixes
    // fails its check.
    let (ran, cuts) = sweep(32..64);
    for step in [Step::Compact, Step::CompactStore, Step::Tick, Step::Restart] {
        assert!(ran.contains(&step), "no {step:?} ran");
    }
    assert!(cuts > 0, "no cut fired");
}
