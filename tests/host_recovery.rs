//! Host crash and recovery: the secure device's battery-backed state (keys,
//! serial counter, VEXP) survives; the host rebuilds the VRDT from its
//! journal and re-arms expirations from the records' own SCPU-signed
//! attributes.

mod common;

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use common::{durable_with, restart, short_policy, verifier};
use scpu::VirtualClock;
use strongworm::{ReadVerdict, SerialNumber, Verifier, WormConfig};
use wormsim::model::State::{Deleted, Live};
use wormsim::model::Step::{self, Advance, Hold, Restart, Tick};
use wormsim::model::{run, Schedule};
use wormsim::{
    is_power_cut, occurrences, CutPlan, CutStyle, Mallory, TornMedium, TornServer, Torture,
};
use wormstore::DiskJournal;

#[test]
fn records_survive_host_crash_and_verify() {
    // Both records verify `Intact` with their bytes under the verifier of
    // before the crash (the device keys survive); the next write is SN 3.
    let kept = Step::write(10_000);
    let report = run(rig(), &Schedule::fixed([kept, kept, Restart, kept]));
    assert_eq!(report.states, [Live; 3]);
}

#[test]
fn expirations_still_fire_after_crash() {
    let (anchor, fleeting) = (Step::write(1_000_000), Step::write(100));
    let steps = [anchor, fleeting, Restart, Advance(150), Tick];
    assert_eq!(run(rig(), &Schedule::fixed(steps)).states, [Live, Deleted]);
}

#[test]
fn crash_during_retention_does_not_extend_it() {
    // Even if Mallory "crashes" the host halfway through the retention
    // hoping recovery resets timers, the deadline is inside the signed
    // attributes: 50 + 60 > 100 s.
    let (anchor, fleeting) = (Step::write(1_000_000), Step::write(100));
    let steps = [anchor, fleeting, Advance(50), Restart, Advance(60), Tick];
    assert_eq!(run(rig(), &Schedule::fixed(steps)).states, [Live, Deleted]);
}

#[test]
fn litigation_holds_survive_recovery() {
    // The hold picks SN 2. Its retention elapses after the crash, but the
    // (signed) hold still protects it: the model requires `Intact` until
    // the hold lapses, and a deletion after.
    let (anchor, disputed, hold) = (Step::write(1_000_000), Step::write(100), Hold(1, 10_000));
    let crash = [anchor, disputed, hold, Restart];
    let lapse = [Advance(500), Tick, Advance(10_000), Tick];
    let report = run(rig(), &Schedule::fixed([crash, lapse].concat()));
    assert!(report.ran.contains(&hold), "the hold applies");
    assert_eq!(report.states, [Live, Deleted]);
}

// ---------------------------------------------------------------------------
// Exact-count counter assertions on the durable (on-disk journal) path,
// with power cuts injected at precise write boundaries by the power-cut
// rig. Unlike the torture sweep (which asserts the Theorem 1/2
// invariants), these pin the *accounting*: each recovery reports exactly
// what the cut destroyed — nothing more, nothing less.
// ---------------------------------------------------------------------------

/// The journal region of [`Torture::small`]'s medium.
const TORN_JOURNAL: u64 = 1 << 15;

/// This binary's one power-cut rig (its regulator key is the slow part).
fn rig() -> &'static Torture {
    static RIG: OnceLock<Torture> = OnceLock::new();
    RIG.get_or_init(Torture::small)
}

/// Boots a durable server on a fresh torn medium with one long-lived
/// anchor record already committed.
fn anchor_rig() -> (TornServer, TornMedium, Arc<VirtualClock>) {
    let (srv, dev, clock) = rig().boot().expect("durable boot");
    srv.write(&[b"anchor"], short_policy(1_000_000))
        .expect("anchor");
    (srv, dev, clock)
}

/// The whole frames on the journal region of `dev`.
fn frames_on(dev: &TornMedium) -> usize {
    let (_, journal) = DiskJournal::open(dev.clone(), 0, TORN_JOURNAL).expect("journal region");
    journal.replay().count()
}

/// `anchor_rig` plus a victim record with 100-second retention.
fn victim_rig() -> (TornServer, TornMedium, Arc<VirtualClock>) {
    let (srv, dev, clock) = anchor_rig();
    srv.write(&[b"doomed victim"], short_policy(100))
        .expect("victim");
    (srv, dev, clock)
}

/// The write index of the victim's `INSERT` frame after [`anchor_rig`]:
/// a write's data extents land first, and the frame seals them.
fn victim_frame_at() -> u64 {
    let (_srv, dev, _clock) = victim_rig();
    dev.writes_seen()
}

/// [`anchor_rig`], then the victim's write cut in `style` at its frame,
/// then recovery.
fn cut_victim_and_recover(style: CutStyle) -> (TornServer, Arc<VirtualClock>) {
    let (srv, dev, clock) = anchor_rig();
    dev.arm(CutPlan::new(victim_frame_at(), style, 0x7EA2));
    let err = srv
        .write(&[b"doomed victim"], short_policy(100))
        .expect_err("the armed cut fires inside the write");
    assert!(is_power_cut(&err), "unexpected write failure: {err}");
    (recover(srv, &dev, &clock), clock)
}

/// Asserts that `sn` reads back `Intact` under a verifier of `srv`.
fn assert_intact(srv: &TornServer, clock: Arc<VirtualClock>, sn: SerialNumber) {
    srv.refresh_head().unwrap();
    let v = verifier(srv, clock);
    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::Intact { sn }
    );
}

/// Where the first extent of the active record `sn` sits.
fn offset_of(srv: &TornServer, sn: SerialNumber) -> u64 {
    let vrdt = srv.vrdt();
    match vrdt.lookup(sn) {
        strongworm::vrdt::Lookup::Active(vrd) => vrd.rdl[0].offset,
        other => panic!("{sn} is not active: {other:?}"),
    }
}

#[test]
fn recovery_from_torn_journal_matches_device_head() {
    let (anchor, lost) = (SerialNumber(1), SerialNumber(2));
    let lost_at = offset_of(&victim_rig().0, lost);
    // The victim's data extent lands, then its frame tears: the host
    // loses record 2's VRD.
    let (srv, clock) = cut_victim_and_recover(CutStyle::Garbage);

    // The device's head still counts 2 issued records, so the loss is
    // *visible*: the honest host cannot produce evidence for sn 2.
    srv.refresh_head().unwrap();
    assert_eq!(srv.vrdt().head().unwrap().sn_current, lost);
    assert!(srv.read(lost).is_err());
    assert_eq!(srv.vrdt().check_complete(), Err(lost));
    // Record 1 is unaffected.
    assert_intact(&srv, clock, anchor);
    // The store is rebuilt from the journal: the lost record's extent is
    // free again, and the next write lands on it. (The power cut lost the
    // old watermark, so its bytes stay until that write.)
    let next = srv.write(&[b"next"], short_policy(10_000)).unwrap();
    assert_eq!(offset_of(&srv, next), lost_at);
}

#[test]
fn recovery_counters_report_torn_tail_and_replay() {
    // A clean recovery replays every frame on the medium and reports no
    // torn tail.
    let (srv, dev, clock) = victim_rig();
    let whole_frames = frames_on(&dev) as u64;
    let clean = recover(srv, &dev, &clock).stats_snapshot();
    assert_eq!(clean.counter("recovery.replayed"), whole_frames);
    assert_eq!(clean.counter("recovery.torn_tail"), 0);

    // The victim's frame torn mid-write: the counters flag the incident,
    // with fewer frames replayed than the intact journal held.
    let (srv, clock) = cut_victim_and_recover(CutStyle::Garbage);
    let stats = srv.stats_snapshot();
    assert_eq!(stats.counter("recovery.torn_tail"), 1);
    let replayed = stats.counter("recovery.replayed");
    assert!(
        replayed >= 1 && replayed < whole_frames,
        "torn recovery must replay fewer frames ({replayed} vs {whole_frames})"
    );
    // And the recovered head still verifies end-to-end.
    assert_intact(&srv, clock, SerialNumber(1));
}

/// The write-index window (exclusive start, inclusive end) spanned by the
/// expiry tick that deletes and shreds the victim.
fn tick_window() -> (u64, u64) {
    let (srv, dev, clock) = victim_rig();
    clock.advance(Duration::from_secs(150));
    let before = dev.writes_seen();
    srv.tick().expect("clean tick");
    (before, dev.writes_seen())
}

/// The host crashes and [`rig`] recovers it, unarmed.
fn recover(srv: TornServer, dev: &TornMedium, clock: &Arc<VirtualClock>) -> TornServer {
    rig()
        .recover(srv, dev, clock, None)
        .expect("recovery succeeds")
        .server
}

/// Replays the deterministic victim scenario with `plan` armed over the
/// expiry tick, then recovers.
fn cut_tick_and_recover(plan: CutPlan) -> TornServer {
    let (srv, dev, clock) = victim_rig();
    clock.advance(Duration::from_secs(150));
    dev.arm(plan);
    if let Err(e) = srv.tick() {
        assert!(is_power_cut(&e), "unexpected tick failure: {e}");
    }
    recover(srv, &dev, &clock)
}

/// `(recovery.replayed, recovery.resumed_shreds)` after a cut at each
/// write boundary of the expiry tick, in order.
fn counters_across_the_tick() -> Vec<(u64, u64)> {
    let (w0, w1) = tick_window();
    assert!(w1 > w0, "the expiry tick must hit the disk");
    ((w0 + 1)..=w1)
        .map(|at| {
            let srv = cut_tick_and_recover(CutPlan::new(at, CutStyle::Drop, 0xC0DE ^ at));
            let stats = srv.stats_snapshot();
            // A dropped write never tears a frame: the journal always ends
            // on a clean boundary.
            assert_eq!(stats.counter("recovery.torn_tail"), 0, "cut at {at}");
            // Whatever the cut point, recovery itself converges: the anchor
            // is intact, and the victim's deletion — lost with its frame
            // and re-driven by the monitor, or replayed and resumed — is
            // complete before the server accepts traffic.
            assert_eq!(
                srv.read(SerialNumber(1)).unwrap().kind(),
                "data",
                "cut at {at}"
            );
            assert_eq!(
                srv.read(SerialNumber(2)).unwrap().kind(),
                "deleted",
                "cut at {at}"
            );
            (
                stats.counter("recovery.replayed"),
                stats.counter("recovery.resumed_shreds"),
            )
        })
        .collect()
}

/// Index into [`counters_across_the_tick`] of the first cut that finds
/// the victim's expiry frame on the medium: it drops the first shred pass.
fn first_resumed(counters: &[(u64, u64)]) -> usize {
    counters
        .iter()
        .position(|&(_, resumed)| resumed == 1)
        .unwrap_or_else(|| panic!("no cut left a shred to resume: {counters:?}"))
}

#[test]
fn deletion_txn_counters_are_exact_at_every_cut_point() {
    let counters = counters_across_the_tick();
    let c = first_resumed(&counters);
    assert!(c > 0, "the tick writes nothing before the expiry frame");
    // The deletion is one frame: the cut before it recovers the record
    // live, the cut after it recovers the record deleted, and between
    // the two exactly one more frame replays.
    assert_eq!(
        counters[c].0,
        counters[c - 1].0 + 1,
        "frames of the deletion unit: {counters:?}"
    );
    // From that frame on the pending shred resumes: one pass write, one
    // pass marker, one done marker — exactly three boundaries with a
    // shred to resume.
    let resumed: Vec<u64> = counters.iter().map(|&(_, r)| r).collect();
    let mut want = vec![0u64; resumed.len()];
    for slot in want.iter_mut().skip(c).take(3) {
        *slot = 1;
    }
    assert_eq!(resumed, want, "resumed_shreds run");
}

#[test]
fn a_deletion_journals_one_frame_before_its_first_pass_write() {
    const VICTIM: &[u8] = b"doomed victim";
    let plaintext_on = |dev: &TornMedium| occurrences(&dev.inner().raw(), VICTIM) > 0;
    // Past the victim's retention, short of the head's refresh interval:
    // the tick journals the deletion and nothing else.
    let past_retention = Duration::from_secs(110);
    let (srv, dev, clock) = victim_rig();
    let before = frames_on(&dev);
    assert!(plaintext_on(&dev));
    clock.advance(past_retention);
    let w0 = dev.writes_seen();
    srv.tick().expect("clean tick");
    let w1 = dev.writes_seen();
    assert!(!plaintext_on(&dev), "the tick shreds the victim");
    // Cut the tick at each boundary in turn: the last cut that still
    // finds the victim's plaintext dropped the first pass write, and
    // every frame on the medium then was journaled before it.
    let mut before_first_pass = None;
    for at in (w0 + 1)..=w1 {
        let (srv, dev, clock) = victim_rig();
        clock.advance(past_retention);
        dev.arm(CutPlan::new(at, CutStyle::Drop, at));
        assert!(srv.tick().is_err(), "the armed cut fires inside the tick");
        dev.revive();
        if !plaintext_on(&dev) {
            break;
        }
        before_first_pass = Some(frames_on(&dev));
    }
    let before_first_pass = before_first_pass.expect("the tick shreds the victim");
    assert_eq!(
        before_first_pass - before,
        1,
        "frames before the first pass"
    );
}

/// A cut inside a two-record command, after the SCPU answered and
/// between the two `INSERT` frames, leaves what the same cut leaves
/// after a lone write: the first record served, and the second SN issued
/// and signed with no frame behind it, which `check_complete` reports.
///
/// ROADMAP item 1 closes that hole with a per-lane device entry that
/// recovery re-issues. A command witnesses all its records before the
/// host journals the first, so that entry must cover the whole last
/// command — up to its count of records — not the last write alone.
#[test]
fn a_cut_between_the_inserts_of_one_command_loses_only_the_second_record() {
    let pair = |srv: &TornServer| {
        let policy = short_policy(1_000_000);
        let records: [&[u8]; 2] = [b"first of the command", b"second of the command"];
        let writes = [&records[..1], &records[1..]].map(|records| strongworm::RecordWrite {
            records,
            policy,
            flags: 0,
            witness: strongworm::WitnessMode::Strong,
        });
        srv.write_many(&writes)
    };
    // Unarmed: two extents, then the command, then one `INSERT` frame a
    // record — the last device write is the second frame.
    let (srv, dev, _) = anchor_rig();
    let (w0, f0) = (dev.writes_seen(), frames_on(&dev));
    let sns: Vec<SerialNumber> = pair(&srv).into_iter().map(Result::unwrap).collect();
    assert_eq!(sns, [SerialNumber(2), SerialNumber(3)]);
    let w1 = dev.writes_seen();
    assert_eq!((w1 - w0, frames_on(&dev) - f0), (4, 2));

    let (srv, dev, clock) = anchor_rig();
    dev.arm(CutPlan::new(w1, CutStyle::Drop, w1));
    let results = pair(&srv);
    assert_eq!(results[0].as_ref().ok(), Some(&SerialNumber(2)));
    assert!(matches!(&results[1], Err(e) if is_power_cut(e)));
    let srv = recover(srv, &dev, &clock);
    srv.refresh_head().unwrap();
    assert_eq!(srv.vrdt().head().unwrap().sn_current, SerialNumber(3));
    let v = Verifier::new(srv.keys(), Duration::from_secs(300), clock.clone()).unwrap();
    let first = SerialNumber(2);
    assert_eq!(
        v.verify_read(first, &srv.read(first).unwrap()).unwrap(),
        ReadVerdict::Intact { sn: first }
    );
    assert_eq!(srv.vrdt().check_complete(), Err(SerialNumber(3)));
}

#[test]
fn torn_tail_counter_is_exact_under_injected_cuts() {
    let (srv, _dev, _clock) = anchor_rig();
    let before = srv.vrdt().journal().replay().count() as u64;
    let mut replayed = Vec::new();
    for (style, want_torn) in [(CutStyle::Garbage, 1), (CutStyle::Drop, 0)] {
        let (srv, _clock) = cut_victim_and_recover(style);
        let stats = srv.stats_snapshot();
        // Garbage in the frame's sectors is a detectable torn tail;
        // a dropped frame is a clean boundary. Exactly one or zero —
        // never more, no matter the style.
        assert_eq!(stats.counter("recovery.torn_tail"), want_torn, "{style}");
        // The lost frame was one whole unit: recovery replays exactly
        // what the journal held before the write.
        assert_eq!(stats.counter("recovery.replayed"), before, "{style}");
        replayed.push(stats.counter("recovery.replayed"));
        assert_eq!(srv.read(SerialNumber(1)).unwrap().kind(), "data");
    }
    // Both recoveries replay the identical committed prefix: the torn
    // frame contributes nothing, exactly like the missing one.
    assert_eq!(replayed[0], replayed[1], "committed prefix must agree");
}

#[test]
fn rollback_counts_repeat_exactly_when_recovery_itself_crashes() {
    // Two cuts around the victim's expiry frame: the one that loses it
    // (the deletion rolls back to nothing and the monitor re-drives it)
    // and the one that keeps it but drops the first shred pass.
    let counters = counters_across_the_tick();
    let c = first_resumed(&counters);
    let (w0, _) = tick_window();
    for i in [c - 1, c] {
        let at = w0 + 1 + i as u64;
        let (srv, dev, clock) = victim_rig();
        clock.advance(Duration::from_secs(150));
        dev.arm(CutPlan::new(at, CutStyle::Drop, 1));
        let err = srv.tick().expect_err("the armed cut fires inside the tick");
        assert!(is_power_cut(&err), "unexpected tick failure: {err}");

        // Second cut: kill recovery on its very first device write.
        let recovered = rig()
            .recover(srv, &dev, &clock, Some(CutPlan::new(1, CutStyle::Drop, 2)))
            .expect("second recovery succeeds");
        assert!(recovered.recut, "recovery must hit the armed cut");

        // Recovery wrote nothing that counts, so the second recovery sees
        // the same journal and reports exactly what an uninterrupted one
        // reports after the same tick cut.
        let srv = recovered.server;
        let stats = srv.stats_snapshot();
        assert_eq!(
            (
                stats.counter("recovery.replayed"),
                stats.counter("recovery.resumed_shreds")
            ),
            counters[i],
            "cut at {at}"
        );
        assert_eq!(stats.counter("recovery.torn_tail"), 0);
        // And it converges: the deletion is complete, and the anchor
        // still verifies end-to-end.
        assert_eq!(srv.read(SerialNumber(2)).unwrap().kind(), "deleted");
        let v = Verifier::new(srv.keys(), Duration::from_secs(300), clock).expect("verifier");
        let sn = SerialNumber(1);
        assert_eq!(
            v.verify_read(sn, &srv.read(sn).unwrap()).unwrap(),
            ReadVerdict::Intact { sn }
        );
    }
}

#[test]
fn pre_crash_host_hash_lies_are_audited_after_resume() {
    // Review finding regression: the firmware's pending-audit set survives
    // a host crash, and resume must re-enqueue submissions so a pre-crash
    // hash lie is still caught.
    let mut cfg = WormConfig::test_small();
    cfg.hash_mode = strongworm::HashMode::TrustHostHash;
    let (srv, disk, clock) = durable_with(cfg.clone());
    let sn = srv
        .write(&[b"burst record"], short_policy(100_000))
        .unwrap();
    // Mallory swaps the data, then "crashes" the host before any idle.
    assert!(Mallory::new(&srv).corrupt_record_data(sn));

    let srv = restart(srv, &disk, cfg, clock);
    srv.idle(1_000_000_000).unwrap();
    assert_eq!(
        srv.audit_failures(),
        &[sn],
        "the pre-crash hash lie must be flagged after recovery"
    );
    // The queue fully drains (no wedged entries).
    srv.idle(1_000_000_000).unwrap();
}

/// Bytes written to the medium while `f` runs.
fn bytes_written_by<T>(disk: &Arc<wormstore::MemDisk>, f: impl FnOnce() -> T) -> (T, u64) {
    use wormstore::BlockDevice;
    let before = disk.stats().bytes_written;
    let out = f();
    (out, disk.stats().bytes_written - before)
}

#[test]
fn boot_zeroes_the_journal_region_once_and_a_clean_recovery_writes_nothing_past_the_tail() {
    let config = WormConfig::test_small();
    // Boot: the region once, then the frames that publish the first head
    // and base.
    let ((srv, disk, clock), booted) = {
        let disk = Arc::new(wormstore::MemDisk::unmetered(1 << 17));
        let clock = VirtualClock::starting_at_millis(1_000_000);
        let (srv, written) = bytes_written_by(&disk, || {
            strongworm::WormServer::with_durable(
                Arc::clone(&disk),
                common::JOURNAL_BYTES,
                config.clone(),
                clock.clone(),
                common::regulator().public(),
            )
            .unwrap()
        });
        ((srv, disk, clock), written)
    };
    let frames = srv.vrdt().journal().len_bytes() as u64;
    assert_eq!(booted, common::JOURNAL_BYTES + frames);

    let sn = srv.write(&[b"kept"], short_policy(1_000_000)).unwrap();
    let tail = srv.vrdt().journal().len_bytes() as u64;
    // A clean stop and recovery: only the frames recovery appends (the
    // new head and base) reach the medium; nothing past the tail is
    // rewritten.
    let (srv, recovered) =
        bytes_written_by(&disk, || restart(srv, &disk, config.clone(), clock.clone()));
    assert_eq!(srv.stats_snapshot().counter("recovery.torn_tail"), 0);
    let appended = srv.vrdt().journal().len_bytes() as u64 - tail;
    assert_eq!(recovered, appended);
    let v = verifier(&srv, clock);
    assert_eq!(
        v.verify_read(sn, &srv.read(sn).unwrap()),
        Ok(ReadVerdict::Intact { sn })
    );
}
