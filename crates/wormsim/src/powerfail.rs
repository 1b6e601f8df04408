//! Deterministic power-fail torture harness.
//!
//! The paper's Theorems 1 and 2 assume the untrusted host can lose power
//! at any instant without silently losing committed WORM state or
//! resurrecting shredded bytes. This module makes that assumption an
//! executable check: it runs a canonical lifecycle [`Scenario`] (write,
//! expire-and-shred, compact, write again) against a durable server on a
//! [`TornDisk`], cuts power at an exact write boundary with one of the
//! four [`CutStyle`] torn-sector behaviours, recovers through
//! [`Torture::recover`], and re-verifies the invariants end-to-end
//! through a client [`Verifier`]:
//!
//! * **No committed record lost** — every acknowledged write reads back
//!   byte-identical and verifier-accepted (Theorem 1).
//! * **No shredded record recoverable** — every acknowledged deletion's
//!   plaintext is absent from a raw scan of the whole medium (Theorem 2).
//! * **No forged state accepted** — whatever the recovered host serves,
//!   the verifier either accepts it as exactly the committed state or
//!   rejects it; torn garbage is never verifier-approved.
//!
//! Operations the cut interrupted *without* an acknowledgement are in
//! limbo: they may have rolled back (still active, bytes intact) or
//! committed (deletion proven, bytes destroyed) — but never anything in
//! between.
//!
//! The harness is two-phase: [`Torture::profile`] counts the write
//! boundaries an unarmed run crosses, then the caller runs
//! [`Torture::torture`] on every plan [`CutRange::plans`] enumerates —
//! optionally arming a *second* cut during recovery itself
//! (recover-then-crash-again).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::VirtualClock;
use strongworm::proofs::ReadOutcome;
use strongworm::{
    ReadVerdict, RegulatoryAuthority, RetentionPolicy, SerialNumber, Verifier, VerifyError,
    WormConfig, WormError, WormServer,
};
use wormstore::{BlockDevice, BlockError, JournalError, MemDisk, Partition, Shredder, StoreError};

use crate::disk::{CutPlan, CutStyle, TornDisk};
use crate::mix;

/// The fault-injected medium the harness tortures.
pub type TornMedium = TornDisk<MemDisk>;
/// The durable server type under torture.
pub type TornServer = WormServer<Partition<TornMedium>>;

/// A torture verdict: what went wrong at a cut point.
#[derive(Debug)]
pub enum TortureError {
    /// The scenario failed with an error that is not a power cut — a
    /// real bug in the serving path, independent of crash atomicity.
    Scenario(WormError),
    /// Recovery failed on a revived medium (it must always succeed).
    Recovery(WormError),
    /// A Theorem 1/2 invariant did not survive the cut.
    Invariant(String),
    /// The client verifier rejected state the recovered server served.
    Verify(VerifyError),
}

impl std::fmt::Display for TortureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TortureError::Scenario(e) => write!(f, "scenario failed outside the cut: {e}"),
            TortureError::Recovery(e) => write!(f, "recovery failed on a revived medium: {e}"),
            TortureError::Invariant(what) => write!(f, "invariant violated: {what}"),
            TortureError::Verify(e) => write!(f, "verifier rejected recovered state: {e}"),
        }
    }
}

impl std::error::Error for TortureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TortureError::Scenario(e) | TortureError::Recovery(e) => Some(e),
            TortureError::Verify(e) => Some(e),
            TortureError::Invariant(_) => None,
        }
    }
}

fn invariant(what: String) -> TortureError {
    TortureError::Invariant(what)
}

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

/// The canonical lifecycle workload, sized by the caller (the torture
/// test runs it small and exhaustively; the bench runs it large).
///
/// Order matters: victims are written *below* keepers so their shredded
/// extents open free space that compaction relocates the keepers into,
/// exercising the full relocate-replace-shred sequence.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Short-retention records written first, then expired and shredded.
    pub victims: usize,
    /// Long-lived multi-pass-shredder records written above the victims.
    pub keepers: usize,
    /// Run store compaction after the deletions.
    pub compact: bool,
    /// Records written after the churn.
    pub tail_writes: usize,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            victims: 2,
            keepers: 2,
            compact: true,
            tail_writes: 1,
        }
    }
}

/// What the scenario had acknowledged before the cut fired — the ground
/// truth the recovered server is checked against.
#[derive(Default)]
struct Acked {
    /// Acked writes never deleted: must read back `Intact` with exactly
    /// these bytes, present exactly once on the medium.
    must_live: Vec<(SerialNumber, Vec<u8>)>,
    /// Acked writes whose deletion was also acked: must read back
    /// `ConfirmedDeleted`, bytes absent from the medium.
    must_be_dead: Vec<(SerialNumber, Vec<u8>)>,
    /// Acked writes whose deletion was in flight (or merely scheduled)
    /// when the cut hit: either intact or proven-deleted is legal, but
    /// nothing in between.
    limbo: Vec<(SerialNumber, Vec<u8>)>,
}

/// Outcome of one survived cut point.
#[derive(Clone, Copy, Debug)]
pub struct CutOutcome {
    /// Whether the armed cut actually fired (false when `at_write` lay
    /// beyond the scenario's writes: the run degenerates to a clean-
    /// shutdown crash).
    pub cut_fired: bool,
    /// Write boundaries the (first) recovery crossed — the enumeration
    /// range for recover-then-crash-again plans.
    pub recovery_writes: u64,
    /// Wall-clock nanoseconds from the first recovery attempt to a
    /// booted server (spans both attempts when the recovery itself was
    /// cut; excludes invariant verification).
    pub recovery_nanos: u64,
}

/// Write-boundary range a scenario's cuts enumerate (1-based, inclusive;
/// boundaries below `first` belong to server boot).
#[derive(Clone, Copy, Debug)]
pub struct CutRange {
    /// First boundary the scenario itself crosses.
    pub first: u64,
    /// Last boundary of the scenario (from [`TornDisk::writes_seen`]).
    pub last: u64,
}

impl CutRange {
    /// The sweep: a cut at every boundary of the range in every
    /// [`CutStyle`], boundary by boundary, the cut at boundary `at`
    /// seeded `salt ^ at`.
    pub fn plans(self, salt: u64) -> impl Iterator<Item = CutPlan> {
        (self.first..=self.last).flat_map(move |at| {
            CutStyle::ALL.map(|style| CutPlan {
                at_write: at,
                style,
                seed: salt ^ at,
            })
        })
    }
}

/// A server [`Torture::recover`] brought back, and what its recovery
/// crossed.
pub struct Recovered {
    /// The recovered server.
    pub server: TornServer,
    /// Write boundaries the first recovery attempt crossed — the
    /// enumeration range for recover-then-crash-again plans.
    pub writes: u64,
    /// Whether the armed recovery cut fired, so that a second, unarmed
    /// recovery brought the server back.
    pub recut: bool,
    /// Wall-clock nanoseconds from the first recovery attempt to a
    /// booted server.
    pub nanos: u64,
}

/// A 48-byte record payload unique to `tag` — long and entropic enough
/// that a raw-medium scan cannot false-positive on journal frames,
/// shred noise, or torn garbage.
fn pattern(tag: u64) -> Vec<u8> {
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
    if needle.is_empty() || haystack.len() < needle.len() {
        return 0;
    }
    haystack
        .windows(needle.len())
        .filter(|w| *w == needle)
        .count()
}

/// Whether `outcome` serves exactly `pat` as its first record.
fn serves(outcome: &ReadOutcome, pat: &[u8]) -> bool {
    match outcome {
        ReadOutcome::Data { records, .. } => records.first().map(|b| b.as_ref()) == Some(pat),
        _ => false,
    }
}

/// The torture rig: one regulator key pair (the slow part) reused across
/// every cut point, plus the medium geometry.
pub struct Torture {
    config: WormConfig,
    regulator: RegulatoryAuthority,
    capacity: u64,
    journal_bytes: u64,
}

impl Torture {
    /// Builds a rig with `capacity` bytes of medium, the first
    /// `journal_bytes` of which hold the VRDT journal region.
    pub fn new(capacity: u64, journal_bytes: u64) -> Self {
        Torture {
            config: WormConfig::test_small(),
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

    /// Runs the scenario, recording acknowledgements as they happen.
    /// Returns the acked ground truth plus how the run ended.
    fn run_scenario(
        &self,
        srv: &TornServer,
        clock: &Arc<VirtualClock>,
        sc: &Scenario,
    ) -> (Acked, Result<(), WormError>) {
        let mut acked = Acked::default();
        for i in 0..sc.victims {
            let pat = pattern(0x2000 + i as u64);
            let policy = RetentionPolicy::custom(Duration::from_secs(100), Shredder::ZeroFill);
            match srv.write(&[&pat], policy) {
                // Until its deletion is acked too, an expiring record is
                // in limbo: recovery may complete a scheduled expiry.
                Ok(sn) => acked.limbo.push((sn, pat)),
                Err(e) => return (acked, Err(e)),
            }
        }
        for i in 0..sc.keepers {
            let pat = pattern(0x1000 + i as u64);
            let policy = RetentionPolicy::custom(
                Duration::from_secs(1_000_000),
                Shredder::MultiPass { passes: 2 },
            );
            match srv.write(&[&pat], policy) {
                Ok(sn) => acked.must_live.push((sn, pat)),
                Err(e) => return (acked, Err(e)),
            }
        }
        clock.advance(Duration::from_secs(150));
        match srv.tick() {
            Ok(()) => acked.must_be_dead.append(&mut acked.limbo),
            Err(e) => return (acked, Err(e)),
        }
        if sc.compact {
            if let Err(e) = srv.compact_store() {
                return (acked, Err(e));
            }
        }
        for i in 0..sc.tail_writes {
            let pat = pattern(0x3000 + i as u64);
            let policy =
                RetentionPolicy::custom(Duration::from_secs(1_000_000), Shredder::ZeroFill);
            match srv.write(&[&pat], policy) {
                Ok(sn) => acked.must_live.push((sn, pat)),
                Err(e) => return (acked, Err(e)),
            }
        }
        (acked, Ok(()))
    }

    /// Phase 1: the write-boundary range an unarmed run of `sc` crosses.
    ///
    /// # Errors
    ///
    /// The scenario failing on a healthy medium.
    pub fn profile(&self, sc: &Scenario) -> Result<CutRange, TortureError> {
        let (srv, torn, clock) = self.boot()?;
        let boot_writes = torn.writes_seen();
        let (_, end) = self.run_scenario(&srv, &clock, sc);
        end.map_err(TortureError::Scenario)?;
        Ok(CutRange {
            first: boot_writes + 1,
            last: torn.writes_seen(),
        })
    }

    /// Phase 2: cut power per `plan`, recover, and verify. When
    /// `recovery_plan` is armed, the *recovery itself* is cut at that
    /// boundary and a second recovery must then succeed (recover-then-
    /// crash-again).
    ///
    /// # Errors
    ///
    /// Any [`TortureError`]: the cut point is a counterexample to crash
    /// atomicity.
    pub fn torture(
        &self,
        sc: &Scenario,
        plan: CutPlan,
        recovery_plan: Option<CutPlan>,
    ) -> Result<CutOutcome, TortureError> {
        let (srv, torn, clock) = self.boot()?;
        torn.arm(plan);
        let (acked, end) = self.run_scenario(&srv, &clock, sc);
        match end {
            Ok(()) => {}
            Err(e) if is_power_cut(&e) => {}
            Err(e) => return Err(TortureError::Scenario(e)),
        }
        let cut_fired = torn.cut_fired().is_some();
        let recovered = self.recover(srv, &torn, &clock, recovery_plan)?;
        self.verify(&recovered.server, &torn, &clock, &acked)?;
        Ok(CutOutcome {
            cut_fired,
            recovery_writes: recovered.writes,
            recovery_nanos: recovered.nanos,
        })
    }

    /// The host dies and comes back: only the battery-backed SCPU and
    /// the medium survive `srv`. Revives `torn` and recovers from it.
    /// When `recovery_plan` is armed and fires, the recovery itself is
    /// cut, and a second, unarmed recovery must then succeed.
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
        Ok(Recovered {
            server,
            writes,
            recut,
            nanos: started.elapsed().as_nanos() as u64,
        })
    }

    fn read_verified(
        &self,
        srv: &TornServer,
        verifier: &Verifier,
        sn: SerialNumber,
    ) -> Result<(ReadOutcome, ReadVerdict), TortureError> {
        let outcome = srv
            .read(sn)
            .map_err(|e| invariant(format!("read of acked {sn} failed after recovery: {e}")))?;
        let verdict = verifier
            .verify_read(sn, &outcome)
            .map_err(TortureError::Verify)?;
        Ok((outcome, verdict))
    }

    /// Checks the Theorem 1/2 invariants of a recovered server against
    /// the acked ground truth, then proves the server still serves by
    /// writing and verifying a probe record.
    fn verify(
        &self,
        srv: &TornServer,
        torn: &TornMedium,
        clock: &Arc<VirtualClock>,
        acked: &Acked,
    ) -> Result<(), TortureError> {
        let verifier = Verifier::new(srv.keys(), Duration::from_secs(300), clock.clone())
            .map_err(TortureError::Verify)?;
        let mut raw = vec![0u8; self.capacity as usize];
        torn.inner()
            .read_at(0, &mut raw)
            .map_err(|e| invariant(format!("raw medium scan failed: {e}")))?;

        for (sn, pat) in &acked.must_live {
            let (outcome, verdict) = self.read_verified(srv, &verifier, *sn)?;
            if !matches!(verdict, ReadVerdict::Intact { .. }) {
                return Err(invariant(format!(
                    "committed {sn} lost: verdict {verdict:?}"
                )));
            }
            if !serves(&outcome, pat) {
                return Err(invariant(format!(
                    "committed {sn}: recovered bytes differ from committed bytes"
                )));
            }
            let copies = occurrences(&raw, pat);
            if copies != 1 {
                return Err(invariant(format!(
                    "committed {sn}: plaintext appears {copies} times on the medium \
                     (want exactly 1 — relocation must shred or scrub the source)"
                )));
            }
        }
        for (sn, pat) in &acked.must_be_dead {
            let (_, verdict) = self.read_verified(srv, &verifier, *sn)?;
            if !matches!(verdict, ReadVerdict::ConfirmedDeleted { .. }) {
                return Err(invariant(format!(
                    "acked-deleted {sn} resurfaced: verdict {verdict:?}"
                )));
            }
            if occurrences(&raw, pat) != 0 {
                return Err(invariant(format!(
                    "shredded {sn}: plaintext survives on the medium"
                )));
            }
        }
        for (sn, pat) in &acked.limbo {
            let (outcome, verdict) = self.read_verified(srv, &verifier, *sn)?;
            match verdict {
                ReadVerdict::Intact { .. } => {
                    if !serves(&outcome, pat) {
                        return Err(invariant(format!(
                            "limbo {sn} rolled back with corrupted bytes"
                        )));
                    }
                }
                ReadVerdict::ConfirmedDeleted { .. } => {
                    if occurrences(&raw, pat) != 0 {
                        return Err(invariant(format!(
                            "limbo {sn} proven deleted but plaintext survives"
                        )));
                    }
                }
                other => {
                    return Err(invariant(format!(
                        "limbo {sn} neither intact nor proven deleted: {other:?}"
                    )));
                }
            }
        }
        // Liveness: the recovered server must still accept and serve.
        let probe = pattern(0x4000);
        let policy = RetentionPolicy::custom(Duration::from_secs(1_000_000), Shredder::ZeroFill);
        let sn = srv
            .write(&[&probe], policy)
            .map_err(|e| invariant(format!("recovered server refuses new writes: {e}")))?;
        let (_, verdict) = self.read_verified(srv, &verifier, sn)?;
        if !matches!(verdict, ReadVerdict::Intact { .. }) {
            return Err(invariant(format!(
                "post-recovery probe write does not verify: {verdict:?}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let sc = Scenario {
            victims: 1,
            keepers: 1,
            compact: true,
            tail_writes: 1,
        };
        let range = rig.profile(&sc).expect("clean scenario runs");
        assert!(range.last > range.first, "scenario must cross boundaries");
        // A plan beyond the last boundary never fires: clean-shutdown
        // crash, everything committed, everything verifies.
        let out = rig
            .torture(
                &sc,
                CutPlan {
                    at_write: range.last + 100,
                    style: CutStyle::Drop,
                    seed: 1,
                },
                None,
            )
            .expect("clean shutdown recovers");
        assert!(!out.cut_fired);
        assert!(out.recovery_writes > 0, "recovery journals its own work");
    }
}
