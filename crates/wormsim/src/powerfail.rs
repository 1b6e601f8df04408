//! Deterministic power-fail torture harness: [`Torture::profile`] counts
//! the write boundaries an unarmed run of a [`Schedule`] crosses, and
//! [`Torture::torture`] cuts power at one of them in one [`CutStyle`] —
//! optionally cutting the recovery too — recovers through
//! [`Torture::recover`], writes one more record and runs the model's
//! check ([`crate::model`]) once, the write the cut interrupted included.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::{CostModel, VirtualClock};
use strongworm::{RegulatoryAuthority, WormConfig, WormError, WormServer};
use wormstore::{BlockError, JournalError, MemDisk, Partition, StoreError};

use crate::disk::{CutPlan, CutStyle, TornDisk};
use crate::mix;
use crate::model::{Report, Schedule, Sim, Step};

/// The fault-injected medium the harness tortures.
pub type TornMedium = TornDisk<MemDisk>;
/// The durable server type under torture.
pub type TornServer = WormServer<Partition<TornMedium>>;

/// A torture verdict: what went wrong at a cut point.
#[derive(Debug)]
pub enum TortureError {
    /// A step failed other than by the cut: a bug in the serving path.
    Scenario(WormError),
    /// Recovery failed on a revived medium (it must always succeed).
    Recovery(WormError),
    /// The server left what the model does not allow.
    Invariant(String),
}

impl std::fmt::Display for TortureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TortureError::Scenario(e) => write!(f, "scenario failed outside the cut: {e}"),
            TortureError::Recovery(e) => write!(f, "recovery failed on a revived medium: {e}"),
            TortureError::Invariant(what) => write!(f, "invariant violated: {what}"),
        }
    }
}

impl std::error::Error for TortureError {}

/// True when `e` is the device reporting the armed power cut (the one
/// error class the torture loop expects and absorbs).
pub fn is_power_cut(e: &WormError) -> bool {
    match e {
        WormError::Store(StoreError::Device(b)) => matches!(b, BlockError::PowerLost { .. }),
        WormError::Journal(JournalError::Device(b)) => {
            matches!(b, BlockError::PowerLost { .. })
        }
        _ => false,
    }
}

/// The write boundaries a schedule crosses (1-based, inclusive; those
/// below `first` are the server's boot).
#[derive(Clone, Copy, Debug)]
pub struct CutRange {
    /// First boundary the schedule itself crosses.
    pub first: u64,
    /// Last boundary of the schedule (from [`TornDisk::writes_seen`]).
    pub last: u64,
}

impl CutRange {
    /// The sweep: a cut at every boundary of the range in every
    /// [`CutStyle`], boundary by boundary, the cut at boundary `at`
    /// seeded `salt ^ at`.
    pub fn plans(self, salt: u64) -> impl Iterator<Item = CutPlan> {
        (self.first..=self.last)
            .flat_map(move |at| CutStyle::ALL.map(|style| CutPlan::new(at, style, salt ^ at)))
    }
}

/// A server [`Torture::recover`] brought back, and what its recovery
/// crossed.
pub struct Recovered {
    /// The recovered server.
    pub server: TornServer,
    /// Write boundaries the first recovery attempt crossed.
    pub writes: u64,
    /// Whether the armed recovery cut fired, and a second recovery ran.
    pub recut: bool,
    /// Wall-clock nanoseconds from the first attempt to a booted server.
    pub nanos: u64,
}

/// A 48-byte record payload unique to `tag` — long and entropic enough
/// that a raw-medium scan cannot false-positive on journal frames,
/// shred noise, or torn garbage.
pub(crate) fn pattern(tag: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ tag.wrapping_mul(0xD134_2543_DE82_EF95);
    for _ in 0..6 {
        x = mix(x);
        out.extend_from_slice(&x.to_be_bytes());
    }
    out
}

/// How many times `needle` occurs in `haystack`, overlapping
/// occurrences included: the raw-medium scan for plaintext a record left
/// behind. An empty needle occurs nowhere.
pub fn occurrences(haystack: &[u8], needle: &[u8]) -> usize {
    occurrences_of(haystack, &[needle])[0]
}

/// [`occurrences`] of each needle, in one pass over `haystack`.
pub(crate) fn occurrences_of(haystack: &[u8], needles: &[&[u8]]) -> Vec<usize> {
    let mut by_first: [Vec<usize>; 256] = std::array::from_fn(|_| Vec::new());
    for (i, needle) in needles.iter().enumerate() {
        if let Some(&b) = needle.first() {
            by_first[usize::from(b)].push(i);
        }
    }
    let mut counts = vec![0; needles.len()];
    for (at, &b) in haystack.iter().enumerate() {
        for &i in &by_first[usize::from(b)] {
            if haystack[at..].starts_with(needles[i]) {
                counts[i] += 1;
            }
        }
    }
    counts
}

/// The torture rig: one regulator key pair (the slow part) reused across
/// every cut point, plus the medium geometry. Its device charges the
/// IBM 4764's signing costs, so an idle budget bounds how many witnesses
/// it strengthens.
pub struct Torture {
    pub(crate) config: WormConfig,
    pub(crate) regulator: RegulatoryAuthority,
    capacity: u64,
    journal_bytes: u64,
}

impl Torture {
    /// Builds a rig with `capacity` bytes of medium, the first
    /// `journal_bytes` of which hold the VRDT journal region.
    pub fn new(capacity: u64, journal_bytes: u64) -> Self {
        let mut config = WormConfig::test_small();
        config.device.cost_model = CostModel::ibm4764();
        Torture {
            config,
            regulator: RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(0x70D7), 512),
            capacity,
            journal_bytes,
        }
    }

    /// A rig sized for the exhaustive-but-small torture test.
    pub fn small() -> Self {
        Torture::new(1 << 17, 1 << 15)
    }

    /// Boots a durable server on a fresh, unarmed torn medium, its
    /// virtual clock at 1,000 s.
    ///
    /// # Errors
    ///
    /// The server failing to boot on a healthy medium.
    pub fn boot(&self) -> Result<(TornServer, TornMedium, Arc<VirtualClock>), TortureError> {
        let clock = VirtualClock::starting_at_millis(1_000_000);
        let torn = TornDisk::new(MemDisk::unmetered(self.capacity as usize));
        let srv = WormServer::with_durable(
            torn.clone(),
            self.journal_bytes,
            self.config.clone(),
            clock.clone(),
            self.regulator.public(),
        )
        .map_err(TortureError::Scenario)?;
        Ok((srv, torn, clock))
    }

    /// Phase 1: the write-boundary range an unarmed run of `schedule`
    /// crosses.
    ///
    /// # Errors
    ///
    /// A step failing on a healthy medium.
    pub fn profile(&self, schedule: &Schedule) -> Result<CutRange, TortureError> {
        let mut sim = Sim::boot(self)?;
        let first = sim.torn.writes_seen() + 1;
        for step in &schedule.steps {
            sim.apply(step)?;
        }
        Ok(CutRange {
            first,
            last: sim.torn.writes_seen(),
        })
    }

    /// Phase 2: cut power per `plan` (past the last boundary: a clean
    /// crash), recover — cut again per `recovery_plan`, if armed — write
    /// one record and run the model's check.
    ///
    /// # Errors
    ///
    /// Any [`TortureError`]: the cut point is a counterexample to crash
    /// atomicity.
    pub fn torture(
        &self,
        schedule: &Schedule,
        plan: CutPlan,
        recovery_plan: Option<CutPlan>,
    ) -> Result<Report, TortureError> {
        let mut sim = Sim::boot(self)?;
        sim.torn.arm(plan);
        sim.recovery_cut = recovery_plan;
        let mut fired = false;
        for step in &schedule.steps {
            fired = sim.apply(step)?;
            if fired {
                break;
            }
        }
        if !fired {
            sim.apply(&Step::Restart)?;
        }
        // Liveness: the recovered server still accepts and serves.
        sim.apply(&Step::write(1_000_000))?;
        sim.check()?;
        Ok(sim.into_report())
    }

    /// The host dies and comes back: only the battery-backed SCPU and
    /// the medium survive `srv`. When `recovery_plan` fires, a second,
    /// unarmed recovery must succeed; when it does not, it is disarmed
    /// before the server is handed back.
    ///
    /// # Errors
    ///
    /// [`TortureError::Recovery`]: a recovery failed other than by the
    /// armed cut.
    pub fn recover(
        &self,
        srv: TornServer,
        torn: &TornMedium,
        clock: &Arc<VirtualClock>,
        recovery_plan: Option<CutPlan>,
    ) -> Result<Recovered, TortureError> {
        let (device, _store, _journal) = srv.into_parts();
        torn.revive();
        if let Some(rp) = recovery_plan {
            torn.arm(rp);
        }
        #[expect(
            clippy::result_large_err,
            reason = "`recover_durable` hands the SCPU device back in its error for the retry"
        )]
        let recover = |device| {
            WormServer::recover_durable(
                torn.clone(),
                self.journal_bytes,
                device,
                self.config.clone(),
                clock.clone(),
            )
        };
        let started = Instant::now();
        let (server, writes, recut) = match recover(device) {
            Ok(server) => (server, torn.writes_seen(), false),
            Err((e, device)) if is_power_cut(&e) && recovery_plan.is_some() => {
                let writes = torn.writes_seen();
                torn.revive();
                let server = recover(device).map_err(|(e, _)| TortureError::Recovery(e))?;
                (server, writes, true)
            }
            Err((e, _)) => return Err(TortureError::Recovery(e)),
        };
        torn.disarm();
        Ok(Recovered {
            server,
            writes,
            recut,
            nanos: started.elapsed().as_nanos() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::State::{Deleted, Live};

    #[test]
    fn patterns_are_unique_and_entropic() {
        let a = pattern(1);
        let b = pattern(2);
        assert_eq!(a.len(), 48);
        assert_ne!(a, b);
        assert!(a.iter().any(|&x| x != 0));
        assert_eq!(pattern(1), a, "patterns must be deterministic");
    }

    #[test]
    fn counts_overlapping_occurrences() {
        assert_eq!(occurrences(b"abcabcab", b"abc"), 2);
        assert_eq!(occurrences(b"aaaa", b"aa"), 3);
        assert_eq!(occurrences(b"abc", b""), 0);
        assert_eq!(occurrences(b"ab", b"abc"), 0);
        assert_eq!(occurrences_of(b"abcab", &[b"ab", b"b", b"ca"]), [2, 2, 1]);
    }

    #[test]
    fn power_cut_detection_is_specific() {
        let cut = WormError::Store(StoreError::Device(BlockError::PowerLost { at_write: 3 }));
        assert!(is_power_cut(&cut));
        let other = WormError::Firmware("no".into());
        assert!(!is_power_cut(&other));
    }

    #[test]
    fn clean_run_profiles_and_survives_unfired_cut() {
        let rig = Torture::small();
        let schedule = Schedule::lifecycle(1, 1, true, 1);
        let range = rig.profile(&schedule).expect("clean schedule runs");
        assert!(range.last > range.first, "schedule must cross boundaries");
        // A plan beyond the last boundary never fires: clean-shutdown
        // crash, everything committed, everything verifies.
        let plan = CutPlan::new(range.last + 100, CutStyle::Drop, 1);
        let out = rig
            .torture(&schedule, plan, None)
            .expect("clean shutdown recovers");
        assert_eq!(out.cuts_fired, 0);
        assert!(out.recovery.0 > 0, "recovery journals its own work");
        assert_eq!(out.states, [Deleted, Live, Live, Live]);
    }

    #[test]
    fn a_recovery_cut_that_does_not_fire_is_disarmed() {
        let rig = Torture::small();
        // A fresh boot's recovery, armed at `cut`: it must not fire.
        let restart = |cut| {
            let mut sim = Sim::boot(&rig).expect("boot");
            sim.recovery_cut = cut;
            assert!(!sim.apply(&Step::Restart).expect("recovers"));
            sim
        };
        let past = restart(None).report.recovery.0 + 1;
        let mut sim = restart(Some(CutPlan::new(past, CutStyle::Drop, 1)));
        let fired = sim.apply(&Step::write(100)).expect("writes");
        assert!(
            !fired,
            "the recovery's cut outlived it and fired in the next write"
        );
    }
}
