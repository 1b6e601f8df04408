//! The WORM contract as one executable model, after the OpenSK store
//! specification: a partial function from serial numbers to records
//! whose every mutation is atomic, including when interrupted. What each
//! interrupted step may leave, and the one check, are set out in
//! DESIGN.md §13.
//!
//! [`run`] drives a durable server on a [`crate::TornDisk`] through a
//! [`Schedule`] and holds it to the model after every step; a failure
//! names its seed and step and minimizes the schedule.

use std::sync::Arc;
use std::time::Duration;

use scpu::{Clock, Op, Timestamp, VirtualClock};
use strongworm::proofs::{DeletionEvidence, HeadCert, ReadOutcome};
use strongworm::{ReadVerdict, RetentionPolicy, SerialNumber, Verifier, VerifyError, WitnessMode};
use wormstore::Shredder;

use crate::disk::{CutPlan, CutStyle};
use crate::powerfail::{is_power_cut, occurrences_of, pattern, TornMedium, TornServer};
use crate::{mix, Mallory, Torture, TortureError};

/// How old a head the verifiers accept.
const TOLERANCE: Duration = Duration::from_secs(300);

/// One step of a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// A client writes a fresh record, kept `.0` seconds, shredded by `.1`
    /// and witnessed at tier `.2`.
    Write(u64, Shredder, WitnessMode),
    /// The clock moves `.0` seconds on.
    Advance(u64),
    /// The Retention Monitor runs.
    Tick,
    /// The device gets `.0` ns of idle time to strengthen witnesses in.
    Idle(u64),
    /// Expired runs become deleted windows.
    Compact,
    /// Live extents move down the store.
    CompactStore,
    /// The regulator holds for `.1` seconds the `.0`-th (modulo) record
    /// that is live, not yet due and never held; skipped if none is.
    Hold(u64, u64),
    /// The host crashes cleanly and recovers through [`Torture::recover`].
    Restart,
    /// The next step that writes the medium (a `Restart`: its recovery)
    /// loses power at its `.0`-th write, torn per `.1`.
    Cut(u64, CutStyle),
    /// The host serves the forgery `.0` for the `.1`-th (modulo) live
    /// record; skipped if it has nothing to forge from.
    Forge(Forgery, u64),
}

impl Step {
    /// A zero-filled, strongly witnessed write kept `retention_s` seconds.
    pub fn write(retention_s: u64) -> Step {
        Step::Write(retention_s, Shredder::ZeroFill, WitnessMode::Strong)
    }

    /// As [`Step::write`], witnessed at tier `mode`.
    pub fn write_as(retention_s: u64, mode: WitnessMode) -> Step {
        Step::Write(retention_s, Shredder::ZeroFill, mode)
    }
}

/// A forged answer for a live record (Theorem 2), and the `VerifyError`
/// both verifiers must reject it with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Forgery {
    /// "It never existed", under the current head: `HiddenRecord`.
    Deny,
    /// "It never existed", under the head of boot once that head is older
    /// than the tolerance: `StaleHead` with its exact age.
    StaleHead,
    /// A deletion proof with a made-up signature: `BadSignature`.
    ForgedDeletion,
    /// Another record's deletion proof: `EvidenceDoesNotCoverSn`.
    ReplayedProof,
    /// Another live record's answer: `WrongSerialNumber`.
    WrongRecord,
}

impl Forgery {
    /// Every forgery.
    pub const ALL: [Forgery; 5] = [
        Forgery::Deny,
        Forgery::StaleHead,
        Forgery::ForgedDeletion,
        Forgery::ReplayedProof,
        Forgery::WrongRecord,
    ];
}

/// A run's steps, and the seed they were drawn from.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The seed of [`Schedule::random`]; `None` for a fixed schedule.
    seed: Option<u64>,
    /// The steps, in order.
    pub steps: Vec<Step>,
}

impl Schedule {
    /// Exactly `steps`.
    pub fn fixed(steps: impl Into<Vec<Step>>) -> Self {
        let steps = steps.into();
        Schedule { seed: None, steps }
    }

    /// `len` steps drawn from `seed`, of every kind. Some advances pass
    /// the weak key's lifetime, so weak witnesses expire and the weak key
    /// rotates; some idle budgets strengthen nothing.
    pub fn random(seed: u64, len: usize) -> Self {
        let mut x = seed;
        let mut next = |n: u64| {
            x = mix(x.wrapping_add(0x9E37_79B9_7F4A_7C15));
            x % n
        };
        let mut step = || match next(100) {
            0..=29 => {
                let shredders = [Shredder::ZeroFill, Shredder::MultiPass { passes: 2 }];
                let modes = [
                    WitnessMode::Strong,
                    WitnessMode::Deferred,
                    WitnessMode::Hmac,
                ];
                let retention = [30, 120, 400, 1_000_000][next(4) as usize];
                Step::Write(
                    retention,
                    shredders[next(2) as usize],
                    modes[next(3) as usize],
                )
            }
            30..=41 => Step::Advance(1 + next(200)),
            42..=44 => Step::Advance(2_000 + next(6_000)),
            45..=54 => Step::Tick,
            55..=58 => Step::Idle([0, 300_000, 1_000_000_000][next(3) as usize]),
            59..=63 => Step::Compact,
            64..=67 => Step::CompactStore,
            68..=73 => Step::Hold(next(8), 50 + next(500)),
            74..=78 => Step::Restart,
            79..=89 => Step::Cut(1 + next(6), CutStyle::ALL[next(4) as usize]),
            _ => Step::Forge(Forgery::ALL[next(5) as usize], next(8)),
        };
        let steps = (0..len).map(|_| step()).collect();
        let seed = Some(seed);
        Schedule { seed, steps }
    }

    /// The torture sweep's lifecycle: `victims` records kept 100 s, then
    /// `keepers` kept long and shredded in two passes, 150 s, a tick, a
    /// store compaction if `compact`, and `tail` more long-kept records.
    /// Victims sit below keepers, so their shredded extents open the space
    /// compaction relocates the keepers into.
    pub fn lifecycle(victims: usize, keepers: usize, compact: bool, tail: usize) -> Self {
        let keeper = Step::Write(
            1_000_000,
            Shredder::MultiPass { passes: 2 },
            WitnessMode::Strong,
        );
        let mut steps = vec![Step::write(100); victims];
        steps.extend(std::iter::repeat_n(keeper, keepers));
        steps.extend([Step::Advance(150), Step::Tick]);
        steps.extend(compact.then_some(Step::CompactStore));
        steps.extend(std::iter::repeat_n(Step::write(1_000_000), tail));
        Schedule::fixed(steps)
    }
}

/// What the model holds for an SN.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum State {
    /// Acknowledged, or served intact after its write was interrupted.
    Live,
    /// Proven deleted.
    Deleted,
    /// Its write was interrupted, and it has not been read since.
    Interrupted,
    /// Its write was interrupted, and its SN issued with nothing behind it.
    Hole,
}

/// What the model knows of a record's witnesses: its `datasig`, which
/// decides its verdict (a hold re-signs `metasig` strongly, never
/// `datasig`). A weak witness verifies until `.0` (ms); `None` is an HMAC
/// tag, which no client can verify.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Witnessed {
    /// Signed by `s`, at its write or by a strengthening the model saw.
    Strong,
    /// Queued in the device for strengthening.
    Queued(Option<u64>),
    /// Maybe strengthened already: an idle ran whose budget did not cover
    /// the queue, or that lost power while installing what it signed (the
    /// recovery presents the weak witness back, and the device queues it
    /// again).
    Unsure(Option<u64>),
}

impl Witnessed {
    /// Whether a data answer may get `verdict` at `now`; an `Intact` only
    /// a strengthened witness explains makes the witness `Strong`.
    fn allows(&mut self, now: u64, verdict: &Verdict) -> bool {
        use VerifyError::{UnverifiableMac, WeakWitnessExpired};
        let intact = matches!(verdict, Ok(ReadVerdict::Intact { .. }));
        let (weak, unsure) = match *self {
            Witnessed::Strong => return intact,
            Witnessed::Queued(weak) => (weak, false),
            Witnessed::Unsure(weak) => (weak, true),
        };
        let as_signed = match (weak, verdict) {
            (Some(until), Ok(ReadVerdict::Intact { .. })) => now <= until,
            (Some(until), Err(WeakWitnessExpired { .. })) => now > until,
            (None, Err(UnverifiableMac { .. })) => true,
            _ => false,
        };
        if !as_signed && unsure && intact {
            *self = Witnessed::Strong;
            return true;
        }
        as_signed
    }
}

/// One SN of the model: its bytes, the earliest and latest time (ms) it
/// may be deleted, whether it was ever held, its witnesses and its state.
struct Record {
    bytes: Vec<u8>,
    earliest: u64,
    latest: u64,
    held: bool,
    witnessed: Witnessed,
    state: State,
}

/// What a run did.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The steps that ran, in order; a skipped hold or forgery is left out.
    pub ran: Vec<Step>,
    /// Cuts that fired, recovery cuts included.
    pub cuts_fired: u32,
    /// Write boundaries the last recovery crossed (its first attempt's,
    /// when it was cut), and its wall-clock nanoseconds.
    pub recovery: (u64, u64),
    /// The model's states at the end, SN 1 first.
    pub states: Vec<State>,
}

/// A verifier's verdict on one answer.
type Verdict = Result<ReadVerdict, VerifyError>;

/// `Ok` if `ok`, else the invariant `what` names.
fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), TortureError> {
    ok.then_some(())
        .ok_or_else(|| TortureError::Invariant(what()))
}

/// `items[pick % items.len()]`, if there are any.
fn nth(items: &[SerialNumber], pick: u64) -> Option<SerialNumber> {
    let at = pick.checked_rem(items.len() as u64)?;
    items.get(at as usize).copied()
}

/// A durable server driven by steps, and the model it is held to: SN
/// `i + 1` is `records[i]`; `ticked` is when the last tick that completed
/// ran; `pending` is a `Cut` waiting for the next step that writes.
pub(crate) struct Sim<'r> {
    rig: &'r Torture,
    srv: Option<TornServer>,
    pub(crate) torn: TornMedium,
    clock: Arc<VirtualClock>,
    verifier: Verifier,
    boot_head: HeadCert,
    records: Vec<Record>,
    ticked: u64,
    pending: Option<CutPlan>,
    /// The cut the next recovery is armed with.
    pub(crate) recovery_cut: Option<CutPlan>,
    pub(crate) report: Report,
}

impl<'r> Sim<'r> {
    pub(crate) fn boot(rig: &'r Torture) -> Result<Self, TortureError> {
        let (srv, torn, clock) = rig.boot()?;
        let verifier = Verifier::new(srv.keys(), TOLERANCE, clock.clone()).expect("boot keys");
        let boot_head = srv.vrdt().head().cloned().expect("head installed at boot");
        Ok(Sim {
            rig,
            srv: Some(srv),
            torn,
            clock,
            verifier,
            boot_head,
            records: Vec::new(),
            ticked: 0,
            pending: None,
            recovery_cut: None,
            report: Report::default(),
        })
    }

    fn srv(&self) -> &TornServer {
        self.srv.as_ref().expect("a server between steps")
    }

    /// What the run did, with the model's final states.
    pub(crate) fn into_report(mut self) -> Report {
        self.report.states = self.records.iter().map(|r| r.state).collect();
        self.report
    }

    /// SNs the model holds.
    fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// Applies `step` to the server and the model; returns whether a cut
    /// fired, after which the server has been recovered.
    pub(crate) fn apply(&mut self, step: &Step) -> Result<bool, TortureError> {
        match *step {
            Step::Advance(secs) => self.clock.advance(Duration::from_secs(secs)),
            Step::Cut(at_write, style) => {
                let seed = self.len() ^ at_write;
                self.pending = Some(CutPlan::new(at_write, style, seed));
            }
            Step::Forge(forgery, pick) => return self.forge(forgery, pick).map(|()| false),
            Step::Restart => {
                self.report.ran.push(*step);
                self.recovery_cut = self.pending.take().or(self.recovery_cut);
                return self.recover();
            }
            _ => return self.mutate(step),
        }
        self.report.ran.push(*step);
        Ok(false)
    }

    /// Applies a step that writes the medium, armed with a pending cut.
    fn mutate(&mut self, step: &Step) -> Result<bool, TortureError> {
        use State::{Interrupted, Live};
        let now = self.clock.now().as_millis();
        // The hold's target, or the SN a write is acknowledged as.
        let mut sn = match *step {
            Step::Hold(pick, _) => match self.holdable(now, pick) {
                None => return Ok(false),
                target => target,
            },
            _ => None,
        };
        self.report.ran.push(*step);
        let armed = self.pending.take().map(|p| {
            let at_write = self.torn.writes_seen() + p.at_write;
            self.torn.arm(CutPlan { at_write, ..p })
        });
        let srv = self.srv.as_ref().expect("a server between steps");
        let bytes = pattern(self.report.ran.len() as u64);
        let result = match *step {
            Step::Write(retention, shredder, mode) => {
                let policy = RetentionPolicy::custom(Duration::from_secs(retention), shredder);
                let acked = srv.write_with(&[&bytes], policy, 0, mode);
                acked.map(|acked| sn = Some(acked))
            }
            Step::Tick => srv.tick(),
            Step::Idle(budget) => srv.idle(budget),
            Step::Compact => srv.compact().map(drop),
            Step::CompactStore => srv.compact_store().map(drop),
            Step::Hold(_, secs) => {
                let (target, until) = (sn.expect("a target"), now + secs * 1_000);
                let until = Timestamp::from_millis(until);
                let reg = &self.rig.regulator;
                srv.lit_hold(reg.issue_hold(target, self.clock.now(), target.0, until))
            }
            _ => unreachable!("not a step that writes the medium"),
        };
        let acked = match result {
            Ok(()) => true,
            Err(e) if is_power_cut(&e) => false,
            Err(e) => return Err(TortureError::Scenario(e)),
        };
        match *step {
            Step::Write(retention, _, mode) => {
                // An interrupted write the device never numbered gives its
                // SN to the next.
                let last = self.records.last().map(|r| r.state);
                if last == Some(Interrupted) && sn.map(|sn| sn.0) == Some(self.len()) {
                    self.records.pop();
                }
                let next = SerialNumber(self.len() + 1);
                let what = || format!("{sn:?} is not {next}");
                ensure(sn.is_none_or(|sn| sn == next), what)?;
                let due = now + retention * 1_000;
                let weak_until = now + self.rig.config.weak_lifetime.as_millis() as u64;
                let witnessed = match mode {
                    WitnessMode::Strong => Witnessed::Strong,
                    WitnessMode::Deferred => Witnessed::Queued(Some(weak_until)),
                    WitnessMode::Hmac => Witnessed::Queued(None),
                };
                self.records.push(Record {
                    bytes,
                    earliest: due,
                    latest: due,
                    held: false,
                    witnessed,
                    state: if acked { Live } else { Interrupted },
                });
            }
            Step::Tick if acked => self.ticked = now,
            Step::Idle(budget) => self.idled(budget, acked),
            Step::Hold(_, secs) => {
                let r = &mut self.records[sn.expect("a target").0 as usize - 1];
                r.held = true;
                r.latest = r.latest.max(now + secs * 1_000);
                if acked {
                    r.earliest = r.earliest.max(now + secs * 1_000);
                }
            }
            _ => {}
        }
        let fired = self.torn.cut_fired().is_some();
        if fired {
            self.report.cuts_fired += 1;
            self.recover()?;
        } else if armed.is_some() {
            self.torn.disarm();
        }
        Ok(fired)
    }

    /// SNs in `state`.
    fn sns(&self, state: State) -> impl Iterator<Item = SerialNumber> + '_ {
        let sns = (1..).map(SerialNumber).zip(&self.records);
        sns.filter(move |(_, r)| r.state == state).map(|(sn, _)| sn)
    }

    /// The `pick`-th record a hold applies to at `now`: one whose
    /// `metasig` the device surely still accepts.
    fn holdable(&self, now: u64, pick: u64) -> Option<SerialNumber> {
        let r = |sn: &SerialNumber| &self.records[sn.0 as usize - 1];
        let accepted = |sn: &SerialNumber| match r(sn).witnessed {
            Witnessed::Queued(Some(until)) | Witnessed::Unsure(Some(until)) => now <= until,
            _ => true,
        };
        let sns = self
            .sns(State::Live)
            .filter(|sn| !r(sn).held && now < r(sn).earliest && accepted(sn));
        nth(&sns.collect::<Vec<_>>(), pick)
    }

    /// An idle of `budget` ns ran, to its end if `acked`: it strengthened
    /// every queued witness if the budget covers them all, and maybe some
    /// otherwise.
    fn idled(&mut self, budget: u64, acked: bool) {
        let config = &self.rig.config;
        let per_sig = config.device.cost_model.cost_ns(Op::RsaSign {
            bits: config.strong_bits,
        });
        let queued = self.records.iter();
        let queued = queued.filter(|r| r.witnessed != Witnessed::Strong).count() as u64;
        let covered = acked && budget >= 2 * queued * per_sig;
        for r in &mut self.records {
            r.witnessed = match r.witnessed {
                Witnessed::Queued(_) | Witnessed::Unsure(_) if covered => Witnessed::Strong,
                Witnessed::Queued(weak) | Witnessed::Unsure(weak) => Witnessed::Unsure(weak),
                kept => kept,
            };
        }
    }

    /// The host crashes and comes back, its recovery armed with
    /// `recovery_cut`; returns whether that cut fired.
    fn recover(&mut self) -> Result<bool, TortureError> {
        let srv = self.srv.take().expect("a server between steps");
        let plan = self.recovery_cut.take();
        let rec = self.rig.recover(srv, &self.torn, &self.clock, plan)?;
        self.srv = Some(rec.server);
        self.report.recovery = (rec.writes, rec.nanos);
        self.report.cuts_fired += u32::from(rec.recut);
        Ok(rec.recut)
    }

    /// Serves `forgery` for the `pick`-th live record.
    fn forge(&mut self, forgery: Forgery, pick: u64) -> Result<(), TortureError> {
        use VerifyError::*;
        let live: Vec<SerialNumber> = self.sns(State::Live).collect();
        let Some(target) = nth(&live, pick) else {
            return Ok(());
        };
        let srv = self.srv();
        srv.refresh_head().map_err(TortureError::Scenario)?;
        let mallory = Mallory::new(srv);
        let age = self.clock.now().since(self.boot_head.issued_at);
        let evidence = |sn| match srv.read(sn) {
            Ok(ReadOutcome::Deleted { evidence, .. }) => Some(evidence),
            _ => None,
        };
        let (answer, expected) = match forgery {
            Forgery::Deny => (mallory.deny_existence(), HiddenRecord),
            Forgery::StaleHead => {
                let age_ms = age.as_millis() as u64;
                let denial = mallory.deny_existence_with_replayed_head(self.boot_head.clone());
                ((age > TOLERANCE).then_some(denial), StaleHead { age_ms })
            }
            Forgery::ForgedDeletion => {
                let answer = Some(mallory.forge_deletion(target));
                (answer, BadSignature("deletion proof"))
            }
            Forgery::ReplayedProof => {
                let mut proofs = self.sns(State::Deleted).filter_map(evidence);
                let proof = proofs.find(|e| matches!(e, DeletionEvidence::Proof(_)));
                let answer = proof.and_then(|e| mallory.claim_deleted(e));
                (answer, EvidenceDoesNotCoverSn)
            }
            Forgery::WrongRecord => {
                let other = live.iter().find(|&&sn| sn != target);
                let answer = other.and_then(|&sn| srv.read(sn).ok());
                (answer, WrongSerialNumber)
            }
        };
        let Some(answer) = answer else {
            return Ok(());
        };
        let verdict = self.verify(target, &answer)?;
        let what = || format!("{forgery:?} for {target}: {verdict:?}, not {expected:?}");
        ensure(verdict == Err(expected.clone()), what)?;
        self.report.ran.push(Step::Forge(forgery, pick));
        Ok(())
    }

    /// The verdict on `outcome` the long-lived and a fresh verifier share.
    /// Both first register the weak-key certificates the device answers
    /// now, as a refreshing client does.
    fn verify(&mut self, sn: SerialNumber, outcome: &ReadOutcome) -> Result<Verdict, TortureError> {
        let certs = self.srv().weak_certs().map_err(TortureError::Scenario)?;
        let fresh = Verifier::new(self.srv().keys(), TOLERANCE, self.clock.clone());
        let mut fresh = fresh.expect("permanent keys");
        for cert in certs {
            let chained = fresh.add_weak_cert(cert.clone());
            let chained = chained.and_then(|()| self.verifier.add_weak_cert(cert));
            ensure(chained.is_ok(), || {
                format!("a weak certificate fails: {chained:?}")
            })?;
        }
        let cold = fresh.verify_read(sn, outcome);
        let warm = self.verifier.verify_read(sn, outcome);
        let what = || format!("{sn}: the long-lived verifier says {warm:?}, a fresh one {cold:?}");
        ensure(warm == cold, what)?;
        Ok(warm)
    }

    /// The server's answer for `sn` and its verdict; `None` if it has no
    /// answer.
    fn answer(&mut self, sn: SerialNumber) -> Result<Option<(Verdict, ReadOutcome)>, TortureError> {
        let Ok(outcome) = self.srv().read(sn) else {
            return Ok(None);
        };
        Ok(Some((self.verify(sn, &outcome)?, outcome)))
    }

    /// The server proves `sn` never existed.
    fn never(&mut self, sn: SerialNumber) -> Result<(), TortureError> {
        let verdict = self.answer(sn)?.map(|(v, _)| v);
        let what = || format!("{sn} is past the head, yet {verdict:?}");
        ensure(
            verdict == Some(Ok(ReadVerdict::ConfirmedNeverExisted)),
            what,
        )
    }

    /// The one check: every SN the model holds is served as it allows.
    pub(crate) fn check(&mut self) -> Result<(), TortureError> {
        use ReadVerdict::ConfirmedDeleted;
        use State::{Deleted, Hole, Interrupted, Live};
        self.srv().refresh_head().map_err(TortureError::Scenario)?;
        let head = self.srv().vrdt().head().map(|h| h.sn_current);
        let head = head.expect("head installed at boot");
        let last = self.records.last().map(|r| r.state);
        if last == Some(Interrupted) && head.0 < self.len() {
            self.never(SerialNumber(self.len()))?;
            self.records.pop();
        }
        let what = || format!("the device issued {head}, the model {}", self.len());
        ensure(head.0 == self.len(), what)?;
        let copies = {
            let needles: Vec<&[u8]> = self.records.iter().map(|r| &r.bytes[..]).collect();
            occurrences_of(&self.torn.inner().raw(), &needles)
        };
        let now = self.clock.now().as_millis();
        for (i, copies) in copies.into_iter().enumerate() {
            let sn = SerialNumber(i as u64 + 1);
            let answer = self.answer(sn)?;
            let r = &mut self.records[i];
            let state = r.state;
            let is = |ok: bool, what: &str| ensure(ok, || format!("{sn} ({state:?}): {what}"));
            match (state, answer) {
                (Live | Interrupted, Some((verdict, ReadOutcome::Data { records, .. }))) => {
                    let what = format!("served as {verdict:?} ({:?})", r.witnessed);
                    is(r.witnessed.allows(now, &verdict), &what)?;
                    let served = records.first().map(|b| &b[..]);
                    is(served == Some(&r.bytes[..]), "served with other bytes")?;
                    is(r.latest > self.ticked, "intact after a tick past its time")?;
                    is(copies == 1, "its bytes are not on the medium exactly once")?;
                    r.state = Live;
                }
                // A hole's bytes are item 1's to clean.
                (Live | Deleted | Hole, Some((Ok(ConfirmedDeleted { .. }), _))) => {
                    is(now >= r.earliest, "deleted before its time")?;
                    if state != Hole {
                        is(copies == 0, "deleted, yet its bytes are on the medium")?;
                        r.state = Deleted;
                    }
                }
                (Interrupted, None) => r.state = Hole,
                (Hole, None) => {}
                (Live | Deleted, None) => is(false, "acknowledged, yet a hole")?,
                (_, answer) => is(false, &format!("answered {:?}", answer.map(|a| a.0)))?,
            }
        }
        self.never(SerialNumber(head.0 + 1))?;
        let missing = self.srv().vrdt().check_complete().err();
        let hole = missing.map(|sn| self.records[sn.0 as usize - 1].state == Hole);
        ensure(hole != Some(false), || format!("incomplete at {missing:?}"))
    }
}

/// Runs `steps` with the check after each; a failure names its step.
fn try_run(rig: &Torture, steps: &[Step]) -> Result<Report, (usize, TortureError)> {
    let mut sim = Sim::boot(rig).map_err(|e| (0, e))?;
    for (i, step) in steps.iter().enumerate() {
        let checked = sim.apply(step).and_then(|_| sim.check());
        checked.map_err(|e| (i, e))?;
    }
    Ok(sim.into_report())
}

/// Runs `schedule` on a server `rig` boots, with the check after every
/// step.
///
/// # Panics
///
/// On the first failed check, naming the seed, the step and the check,
/// with the schedule minimized by deleting one step at a time while it
/// still fails.
pub fn run(rig: &Torture, schedule: &Schedule) -> Report {
    let (at, error) = match try_run(rig, &schedule.steps) {
        Ok(report) => return report,
        Err(failure) => failure,
    };
    let mut steps = schedule.steps.clone();
    let mut i = 0;
    while i < steps.len() {
        let mut fewer = steps.clone();
        fewer.remove(i);
        match try_run(rig, &fewer) {
            Err(_) => steps = fewer,
            Ok(_) => i += 1,
        }
    }
    let (seed, step) = (schedule.seed, schedule.steps[at]);
    panic!("seed {seed:?}, step {at} ({step:?}): {error}\nminimized: {steps:?}");
}
