//! Deterministic power-fail torture harness.
//!
//! The paper's Theorems 1 and 2 assume the untrusted host can lose power
//! at any instant without silently losing committed WORM state or
//! resurrecting shredded bytes. This module makes that assumption an
//! executable check: it runs a canonical lifecycle [`Scenario`] (write,
//! expire-and-shred, compact, write again) against a durable server on a
//! [`TornDisk`], cuts power at an exact write boundary with one of the
//! four [`wormstore::CutStyle`] torn-sector behaviours, recovers via
//! [`WormServer::recover_durable`], and re-verifies the invariants
//! end-to-end through a client [`Verifier`]:
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
//! boundaries an unarmed run crosses, then the caller enumerates every
//! boundary and style via [`Torture::torture`] — optionally arming a
//! *second* cut during recovery itself (recover-then-crash-again).
//! Everything is deterministically seeded, so a failing cut point replays
//! bit-identically.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::VirtualClock;
use wormstore::{
    BlockDevice, BlockError, CutPlan, JournalError, MemDisk, Partition, Shredder, StoreError,
    TornDisk,
};

use crate::authority::RegulatoryAuthority;
use crate::client::{ReadVerdict, Verifier};
use crate::config::WormConfig;
use crate::error::{VerifyError, WormError};
use crate::policy::RetentionPolicy;
use crate::proofs::ReadOutcome;
use crate::server::WormServer;
use crate::sn::SerialNumber;

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
#[derive(Clone, Debug, Default)]
pub struct Acked {
    /// Acked writes never deleted: must read back `Intact` with exactly
    /// these bytes, present exactly once on the medium.
    pub must_live: Vec<(SerialNumber, Vec<u8>)>,
    /// Acked writes whose deletion was also acked: must read back
    /// `ConfirmedDeleted`, bytes absent from the medium.
    pub must_be_dead: Vec<(SerialNumber, Vec<u8>)>,
    /// Acked writes whose deletion was in flight (or merely scheduled)
    /// when the cut hit: either intact or proven-deleted is legal, but
    /// nothing in between.
    pub limbo: Vec<(SerialNumber, Vec<u8>)>,
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

/// xorshift64* for deterministic record patterns (independent of the
/// `rand` stand-in so patterns are stable across the workspace).
fn mix(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A 48-byte record payload unique to `tag` — long and entropic enough
/// that a raw-medium scan cannot false-positive on journal frames,
/// shred noise, or torn garbage.
pub fn pattern(tag: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ tag.wrapping_mul(0xD134_2543_DE82_EF95);
    for _ in 0..6 {
        x = mix(x);
        out.extend_from_slice(&x.to_be_bytes());
    }
    out
}

fn count_occurrences(haystack: &[u8], needle: &[u8]) -> usize {
    if needle.is_empty() || haystack.len() < needle.len() {
        return 0;
    }
    haystack
        .windows(needle.len())
        .filter(|w| *w == needle)
        .count()
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

    fn boot(&self) -> Result<(TornServer, TornMedium, Arc<VirtualClock>), TortureError> {
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
        // The host dies; only the battery-backed SCPU and the medium
        // survive. (When the plan lay beyond the scenario, this is a
        // clean-shutdown crash of fully committed state.)
        let (device, _store, _journal) = srv.into_parts();
        torn.revive();
        if let Some(rp) = recovery_plan {
            torn.arm(rp);
        }
        let recovery_started = Instant::now();
        let recovered = WormServer::recover_durable(
            torn.clone(),
            self.journal_bytes,
            device,
            self.config.clone(),
            clock.clone(),
        );
        let (srv, recovery_writes) = match recovered {
            Ok(s) => (s, torn.writes_seen()),
            Err((e, device)) if is_power_cut(&e) && recovery_plan.is_some() => {
                // Crash during recovery: reboot once more; the second
                // recovery must succeed unarmed.
                let first_recovery_writes = torn.writes_seen();
                torn.revive();
                match WormServer::recover_durable(
                    torn.clone(),
                    self.journal_bytes,
                    device,
                    self.config.clone(),
                    clock.clone(),
                ) {
                    Ok(s) => (s, first_recovery_writes),
                    Err((e, _)) => return Err(TortureError::Recovery(e)),
                }
            }
            Err((e, _)) => return Err(TortureError::Recovery(e)),
        };
        let recovery_nanos = recovery_started.elapsed().as_nanos() as u64;
        self.verify(&srv, &torn, &clock, &acked)?;
        Ok(CutOutcome {
            cut_fired,
            recovery_writes,
            recovery_nanos,
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
            let matches_bytes = match &outcome {
                ReadOutcome::Data { records, .. } => {
                    records.first().map(|b| b.as_ref()) == Some(pat.as_slice())
                }
                _ => false,
            };
            if !matches_bytes {
                return Err(invariant(format!(
                    "committed {sn}: recovered bytes differ from committed bytes"
                )));
            }
            let copies = count_occurrences(&raw, pat);
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
            if count_occurrences(&raw, pat) != 0 {
                return Err(invariant(format!(
                    "shredded {sn}: plaintext survives on the medium"
                )));
            }
        }
        for (sn, pat) in &acked.limbo {
            let (outcome, verdict) = self.read_verified(srv, &verifier, *sn)?;
            match verdict {
                ReadVerdict::Intact { .. } => {
                    let matches_bytes = match &outcome {
                        ReadOutcome::Data { records, .. } => {
                            records.first().map(|b| b.as_ref()) == Some(pat.as_slice())
                        }
                        _ => false,
                    };
                    if !matches_bytes {
                        return Err(invariant(format!(
                            "limbo {sn} rolled back with corrupted bytes"
                        )));
                    }
                }
                ReadVerdict::ConfirmedDeleted { .. } => {
                    if count_occurrences(&raw, pat) != 0 {
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
    use wormstore::CutStyle;

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
        assert_eq!(count_occurrences(b"abcabcab", b"abc"), 2);
        assert_eq!(count_occurrences(b"aaaa", b"aa"), 3);
        assert_eq!(count_occurrences(b"abc", b""), 0);
        assert_eq!(count_occurrences(b"ab", b"abc"), 0);
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
