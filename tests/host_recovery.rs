//! Host crash and resume: the secure device's battery-backed state (keys,
//! serial counter, VEXP) survives; the host rebuilds the VRDT from its
//! journal and re-arms expirations from the records' own SCPU-signed
//! attributes.

mod common;

use std::time::Duration;

use std::sync::Arc;

use common::{regulator, server, short_policy, verifier};
use scpu::{Clock, VirtualClock};
use strongworm::powerfail::{is_power_cut, TornMedium, TornServer};
use strongworm::{ReadVerdict, SerialNumber, Verifier, WormConfig, WormServer};
use wormstore::{BlockDevice, CutPlan, CutStyle, Journal, MemDisk, TornDisk};

/// Crash the host and bring it back from the surviving parts.
fn crash_and_resume(
    srv: WormServer,
    config: WormConfig,
    clock: std::sync::Arc<scpu::VirtualClock>,
) -> WormServer {
    let (device, store, journal) = srv.into_parts();
    WormServer::resume(device, store, journal, config, clock).expect("resume succeeds")
}

#[test]
fn records_survive_host_crash_and_verify() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let a = srv
        .write(&[b"pre-crash record A"], short_policy(10_000))
        .unwrap();
    let b = srv
        .write(&[b"pre-crash record B"], short_policy(10_000))
        .unwrap();

    let srv = crash_and_resume(srv, WormConfig::test_small(), clock.clone());

    // Old records verify with the SAME verifier (device keys survived).
    for sn in [a, b] {
        let outcome = srv.read(sn).unwrap();
        assert_eq!(
            v.verify_read(sn, &outcome).unwrap(),
            ReadVerdict::Intact { sn }
        );
    }
    // New writes continue the serial-number sequence.
    let c = srv
        .write(&[b"post-crash record"], short_policy(10_000))
        .unwrap();
    assert_eq!(c, SerialNumber(3));
    assert_eq!(
        v.verify_read(c, &srv.read(c).unwrap()).unwrap(),
        ReadVerdict::Intact { sn: c }
    );
}

#[test]
fn expirations_still_fire_after_crash() {
    let (srv, clock) = server();
    srv.write(&[b"anchor"], short_policy(1_000_000)).unwrap();
    let dies = srv.write(&[b"fleeting"], short_policy(100)).unwrap();

    let srv = crash_and_resume(srv, WormConfig::test_small(), clock.clone());

    clock.advance(Duration::from_secs(150));
    srv.tick().unwrap();
    assert_eq!(srv.read(dies).unwrap().kind(), "deleted");
}

#[test]
fn crash_during_retention_does_not_extend_it() {
    // Even if Mallory "crashes" the host hoping recovery resets timers,
    // the retention deadline is inside the signed attributes.
    let (srv, clock) = server();
    srv.write(&[b"anchor"], short_policy(1_000_000)).unwrap();
    let sn = srv.write(&[b"fleeting"], short_policy(100)).unwrap();

    clock.advance(Duration::from_secs(50)); // halfway through retention
    let srv = crash_and_resume(srv, WormConfig::test_small(), clock.clone());

    clock.advance(Duration::from_secs(60)); // total 110 > 100
    srv.tick().unwrap();
    assert_eq!(srv.read(sn).unwrap().kind(), "deleted");
}

#[test]
fn litigation_holds_survive_recovery() {
    let (srv, clock) = server();
    srv.write(&[b"anchor"], short_policy(1_000_000)).unwrap();
    let sn = srv.write(&[b"disputed"], short_policy(100)).unwrap();
    let hold_until = clock.now().after(Duration::from_secs(10_000));
    srv.lit_hold(regulator().issue_hold(sn, clock.now(), 88, hold_until))
        .unwrap();

    let srv = crash_and_resume(srv, WormConfig::test_small(), clock.clone());

    // Retention elapses post-crash, but the (signed) hold still protects.
    clock.advance(Duration::from_secs(500));
    srv.tick().unwrap();
    assert_eq!(srv.read(sn).unwrap().kind(), "data");

    // After the hold lapses, deletion proceeds.
    clock.advance(Duration::from_secs(10_000));
    srv.tick().unwrap();
    assert_eq!(srv.read(sn).unwrap().kind(), "deleted");
}

#[test]
fn recovery_from_torn_journal_matches_device_head() {
    let (srv, clock) = server();
    srv.write(&[b"committed"], short_policy(10_000)).unwrap();
    let lost = srv.write(&[b"torn-away"], short_policy(10_000)).unwrap();
    let lost_rd = match srv.vrdt().lookup(lost) {
        strongworm::vrdt::Lookup::Active(vrd) => vrd.rdl[0],
        _ => panic!("record 2 is active"),
    };

    let (device, store, journal) = srv.into_parts();
    // Tear the final journal frames: the host loses record 2's VRD.
    let mut torn = Journal::from_bytes(journal.as_bytes().to_vec());
    torn.truncate_tail(40);
    let srv = WormServer::resume(device, store, torn, WormConfig::test_small(), clock.clone())
        .expect("resume");

    // The device's head still counts 2 issued records, so the loss is
    // *visible*: the honest host cannot produce evidence for sn 2.
    srv.refresh_head().unwrap();
    assert_eq!(srv.vrdt().head().unwrap().sn_current, SerialNumber(2));
    assert!(srv.read(SerialNumber(2)).is_err());
    assert_eq!(srv.vrdt().check_complete(), Err(SerialNumber(2)));
    // Record 1 is unaffected.
    assert_eq!(srv.read(SerialNumber(1)).unwrap().kind(), "data");
    // The store is rebuilt from the journal, as after a power cut: the
    // lost record's plaintext is gone and its extent is free again.
    let (_vrdt, store) = srv.parts_mut_for_attack();
    let mut bytes = vec![0xAA; lost_rd.len as usize];
    store.device().read_at(lost_rd.offset, &mut bytes).unwrap();
    assert!(
        bytes.iter().all(|&b| b == 0),
        "the lost record's bytes survive recovery: {bytes:?}"
    );
    assert!(
        store.free_bytes() >= lost_rd.len,
        "the lost record's extent stays allocated: free {} B, watermark {} B",
        store.free_bytes(),
        store.watermark()
    );
}

#[test]
fn recovery_counters_report_torn_tail_and_replay() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    srv.write(&[b"anchor"], short_policy(10_000)).unwrap();
    let kept = srv
        .write(&[b"survives the tear"], short_policy(10_000))
        .unwrap();
    srv.write(&[b"torn-away"], short_policy(10_000)).unwrap();

    // A clean resume replays everything and reports no torn tail.
    let srv = crash_and_resume(srv, WormConfig::test_small(), clock.clone());
    let clean = srv.stats_snapshot();
    assert!(
        clean.counter("recovery.replayed") >= 3,
        "all journal frames replay cleanly"
    );
    assert_eq!(clean.counter("recovery.torn_tail"), 0);

    // Crash again, this time tearing the journal mid-entry.
    let (device, store, journal) = srv.into_parts();
    let whole_frames = journal.replay().count() as u64;
    let mut torn = Journal::from_bytes(journal.as_bytes().to_vec());
    torn.truncate_tail(40);
    let srv = WormServer::resume(device, store, torn, WormConfig::test_small(), clock.clone())
        .expect("resume survives a torn tail");

    // The new counters flag the incident: fewer frames replayed than
    // the intact journal held, and the torn tail detected (the partial
    // trailing entry was visible but unusable).
    let stats = srv.stats_snapshot();
    assert_eq!(stats.counter("recovery.torn_tail"), 1);
    let replayed = stats.counter("recovery.replayed");
    assert!(
        replayed >= 1 && replayed < whole_frames,
        "torn recovery must replay fewer frames ({replayed} vs {whole_frames})"
    );

    // And the recovered head still verifies end-to-end.
    srv.refresh_head().unwrap();
    let outcome = srv.read(kept).unwrap();
    assert_eq!(
        v.verify_read(kept, &outcome).unwrap(),
        ReadVerdict::Intact { sn: kept }
    );
}

// ---------------------------------------------------------------------------
// Exact-count counter assertions on the durable (on-disk journal) path,
// with power cuts injected at precise write boundaries via `TornDisk`.
// Unlike the torture sweep (which asserts the Theorem 1/2 invariants),
// these pin the *accounting*: each recovery reports exactly what the cut
// destroyed — nothing more, nothing less.
// ---------------------------------------------------------------------------

const TORN_CAP: usize = 1 << 17;
const TORN_JOURNAL: u64 = 1 << 15;

/// Boots a durable server on a fresh torn medium with one long-lived
/// anchor record already committed.
fn anchor_rig() -> (TornServer, TornMedium, Arc<VirtualClock>) {
    let clock = VirtualClock::starting_at_millis(1_000_000);
    let dev = TornDisk::new(MemDisk::unmetered(TORN_CAP));
    let srv = TornServer::with_durable(
        dev.clone(),
        TORN_JOURNAL,
        WormConfig::test_small(),
        clock.clone(),
        regulator().public(),
    )
    .expect("durable boot");
    srv.write(&[b"anchor"], short_policy(1_000_000))
        .expect("anchor");
    (srv, dev, clock)
}

/// `anchor_rig` plus a victim record with 100-second retention.
fn victim_rig() -> (TornServer, TornMedium, Arc<VirtualClock>) {
    let (srv, dev, clock) = anchor_rig();
    srv.write(&[b"doomed victim"], short_policy(100))
        .expect("victim");
    (srv, dev, clock)
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

/// Replays the deterministic victim scenario with `plan` armed over the
/// expiry tick, then revives the medium and recovers.
fn cut_tick_and_recover(plan: CutPlan) -> (TornServer, Arc<VirtualClock>) {
    let (srv, dev, clock) = victim_rig();
    clock.advance(Duration::from_secs(150));
    dev.arm(plan);
    if let Err(e) = srv.tick() {
        assert!(is_power_cut(&e), "unexpected tick failure: {e}");
    }
    let (device, _, _) = srv.into_parts();
    dev.revive();
    let srv = TornServer::recover_durable(
        dev,
        TORN_JOURNAL,
        device,
        WormConfig::test_small(),
        clock.clone(),
    )
    .map_err(|(e, _)| e)
    .expect("recovery succeeds");
    (srv, clock)
}

#[test]
fn deletion_txn_counters_are_exact_at_every_cut_point() {
    let (w0, w1) = tick_window();
    assert!(w1 > w0, "the expiry tick must hit the disk");
    let mut rolled = Vec::new();
    let mut resumed = Vec::new();
    for at in (w0 + 1)..=w1 {
        let (srv, _clock) = cut_tick_and_recover(CutPlan {
            at_write: at,
            style: CutStyle::Drop,
            seed: 0xC0DE ^ at,
        });
        let stats = srv.stats_snapshot();
        rolled.push(stats.counter("recovery.rolled_back"));
        resumed.push(stats.counter("recovery.resumed_shreds"));
        // A dropped write never tears a frame: the journal always ends
        // on a clean boundary.
        assert_eq!(stats.counter("recovery.torn_tail"), 0, "cut at {at}");
        // Whatever the cut point, recovery itself converges: the anchor
        // is intact, and the victim's deletion — rolled back and then
        // re-driven by the monitor, or rolled forward and resumed — is
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
    }
    // The deletion transaction stages exactly two frames (expire +
    // shred-begin) before its commit marker, so the sweep sees an exact
    // staircase: one boundary catches one staged frame, the next catches
    // both, and everywhere else the journal is transactionally clean.
    let c = rolled
        .iter()
        .position(|&r| r == 2)
        .unwrap_or_else(|| panic!("no cut rolled back the full txn: {rolled:?}"));
    let mut want = vec![0u64; rolled.len()];
    want[c - 1] = 1;
    want[c] = 2;
    assert_eq!(rolled, want, "rolled_back staircase");
    // Once the commit marker lands, rollback is off the table and the
    // pending shred resumes instead: one pass write, one pass marker,
    // one done marker — exactly three boundaries with a shred to resume.
    let mut want = vec![0u64; resumed.len()];
    for slot in want.iter_mut().skip(c + 1).take(3) {
        *slot = 1;
    }
    assert_eq!(resumed, want, "resumed_shreds run");
}

#[test]
fn torn_tail_counter_is_exact_under_injected_cuts() {
    // Profile the victim write: its final device write is the record's
    // VRD journal frame (data extents land first, the frame seals them).
    let (srv, dev, _clock) = anchor_rig();
    srv.write(&[b"doomed victim"], short_policy(100))
        .expect("victim");
    let frame_at = dev.writes_seen();

    let mut replayed = Vec::new();
    for (style, want_torn) in [(CutStyle::Garbage, 1), (CutStyle::Drop, 0)] {
        let (srv, dev, clock) = anchor_rig();
        dev.arm(CutPlan {
            at_write: frame_at,
            style,
            seed: 0x7EA2,
        });
        let err = srv
            .write(&[b"doomed victim"], short_policy(100))
            .expect_err("the armed cut fires inside the write");
        assert!(is_power_cut(&err), "unexpected write failure: {err}");
        let (device, _, _) = srv.into_parts();
        dev.revive();
        let srv =
            TornServer::recover_durable(dev, TORN_JOURNAL, device, WormConfig::test_small(), clock)
                .map_err(|(e, _)| e)
                .expect("recovery succeeds");
        let stats = srv.stats_snapshot();
        // Garbage in the frame's sectors is a detectable torn tail;
        // a dropped frame is a clean boundary. Exactly one or zero —
        // never more, no matter the style.
        assert_eq!(stats.counter("recovery.torn_tail"), want_torn, "{style}");
        assert_eq!(stats.counter("recovery.rolled_back"), 0, "no txn open");
        replayed.push(stats.counter("recovery.replayed"));
        assert_eq!(srv.read(SerialNumber(1)).unwrap().kind(), "data");
    }
    // Both recoveries replay the identical committed prefix: the torn
    // frame contributes nothing, exactly like the missing one.
    assert_eq!(replayed[0], replayed[1], "committed prefix must agree");
}

#[test]
fn rollback_counts_repeat_exactly_when_recovery_itself_crashes() {
    // Locate the commit-marker boundary: the unique cut that leaves both
    // staged frames on disk with no commit marker.
    let (w0, w1) = tick_window();
    let mut commit_at = None;
    for at in (w0 + 1)..=w1 {
        let (srv, _clock) = cut_tick_and_recover(CutPlan {
            at_write: at,
            style: CutStyle::Drop,
            seed: 0xBEEF ^ at,
        });
        if srv.stats_snapshot().counter("recovery.rolled_back") == 2 {
            commit_at = Some(at);
            break;
        }
    }
    let commit_at = commit_at.expect("commit boundary exists in the window");

    // First cut: drop the commit marker mid-deletion-transaction.
    let (srv, dev, clock) = victim_rig();
    clock.advance(Duration::from_secs(150));
    dev.arm(CutPlan {
        at_write: commit_at,
        style: CutStyle::Drop,
        seed: 1,
    });
    let err = srv.tick().expect_err("the armed cut fires inside the tick");
    assert!(is_power_cut(&err), "unexpected tick failure: {err}");
    let (device, _, _) = srv.into_parts();

    // Second cut: kill recovery on its very first device write — the
    // journal-tail erase that would have made the rollback durable.
    dev.revive();
    dev.arm(CutPlan {
        at_write: 1,
        style: CutStyle::Drop,
        seed: 2,
    });
    let device = match TornServer::recover_durable(
        dev.clone(),
        TORN_JOURNAL,
        device,
        WormConfig::test_small(),
        clock.clone(),
    ) {
        Ok(_) => panic!("recovery must hit the armed cut"),
        Err((e, device)) => {
            assert!(is_power_cut(&e), "unexpected recovery failure: {e}");
            device
        }
    };

    // The rollback never became durable, so the second recovery sees the
    // SAME two staged frames and reports rolling them back again —
    // exactly two, exactly like the first attempt would have.
    dev.revive();
    let srv = TornServer::recover_durable(
        dev,
        TORN_JOURNAL,
        device,
        WormConfig::test_small(),
        clock.clone(),
    )
    .map_err(|(e, _)| e)
    .expect("second recovery succeeds");
    let stats = srv.stats_snapshot();
    assert_eq!(stats.counter("recovery.rolled_back"), 2);
    assert_eq!(stats.counter("recovery.torn_tail"), 0);
    // And it converges: the monitor re-drives the deletion during
    // recovery, and the anchor still verifies end-to-end.
    assert_eq!(srv.read(SerialNumber(2)).unwrap().kind(), "deleted");
    let v = Verifier::new(srv.keys(), Duration::from_secs(300), clock).expect("verifier");
    let sn = SerialNumber(1);
    assert_eq!(
        v.verify_read(sn, &srv.read(sn).unwrap()).unwrap(),
        ReadVerdict::Intact { sn }
    );
}

#[test]
fn pre_crash_host_hash_lies_are_audited_after_resume() {
    // Review finding regression: the firmware's pending-audit set survives
    // a host crash, and resume must re-enqueue submissions so a pre-crash
    // hash lie is still caught.
    let mut cfg = WormConfig::test_small();
    cfg.hash_mode = strongworm::HashMode::TrustHostHash;
    let (srv, clock) = common::server_with(cfg.clone());
    let sn = srv
        .write(&[b"burst record"], short_policy(100_000))
        .unwrap();
    // Mallory swaps the data, then "crashes" the host before any idle.
    assert!(srv.mallory().corrupt_record_data(sn));

    let srv = crash_and_resume(srv, cfg, clock);
    srv.idle(1_000_000_000).unwrap();
    assert_eq!(
        srv.audit_failures(),
        &[sn],
        "the pre-crash hash lie must be flagged after recovery"
    );
    // The queue fully drains (no wedged entries).
    srv.idle(1_000_000_000).unwrap();
}
