//! Failure injection: host crashes (journal recovery), secure-memory
//! exhaustion (VEXP spill/re-admission), and tamper response.

mod common;

use std::time::Duration;

use common::{durable_with, regulator, restart, server, server_with, short_policy, verifier};
use scpu::{Clock, TamperCause};
use strongworm::vrdt::Vrdt;
use strongworm::{ReadVerdict, WitnessMode, WormConfig, WormError};
use wormsim::model::{run, Schedule, State, Step};
use wormsim::{occurrences, CutStyle, Torture};
use wormstore::Journal;

#[test]
fn vrdt_journal_recovers_identical_state_after_crash() {
    let (srv, clock) = server();
    for i in 0..10u64 {
        srv.write(&[format!("rec{i}").as_bytes()], short_policy(50 + i * 10))
            .unwrap();
    }
    clock.advance(Duration::from_secs(80));
    srv.tick().unwrap();
    srv.compact().unwrap();
    srv.refresh_head().unwrap();

    // "Crash": rebuild the VRDT from its own journal bytes.
    let journal = Journal::from_bytes(srv.vrdt().journal().as_bytes().to_vec());
    let recovered = Vrdt::recover(journal).unwrap();
    assert_eq!(recovered.resident_entries(), srv.vrdt().resident_entries());
    assert_eq!(recovered.resident_windows(), srv.vrdt().resident_windows());
    recovered.check_complete().unwrap();
}

/// The third write's `INSERT` frame is torn: the first two records stay,
/// and the device's head still counts SN 3, a hole any client sees (the
/// paper's completeness guarantee).
#[test]
fn torn_final_frame_loses_only_last_operation() {
    let (write, torn) = (Step::write(1000), Step::Cut(2, CutStyle::Prefix));
    let report = run(
        &Torture::small(),
        &Schedule::fixed([write, write, torn, write]),
    );
    assert_eq!(report.states, [State::Live, State::Live, State::Hole]);
}

#[test]
fn vexp_overflow_spills_and_readmits() {
    let mut cfg = WormConfig::test_small();
    // Room for roughly 3 VEXP entries after pending-queue use.
    cfg.device.secure_memory_bytes = 96;
    let (srv, clock) = server_with(cfg);

    let mut sns = Vec::new();
    for i in 0..6u64 {
        sns.push(
            srv.write(&[format!("r{i}").as_bytes()], short_policy(100))
                .unwrap(),
        );
    }
    // Scope the firmware guard: it serializes on the witness plane, so it
    // must drop before any other server call.
    let (spilled_count, resident_before) = {
        let fw = srv.firmware_for_test();
        (fw.spilled_count(), fw.vexp_len())
    };
    assert!(spilled_count > 0, "some entries must have spilled");
    assert!(resident_before < 6);
    assert_eq!(srv.spilled_vexp() as u64, spilled_count);

    // Records expire; resident entries are deleted, freeing memory; idle
    // re-admits the spilled ones, which then also get deleted.
    clock.advance(Duration::from_secs(200));
    srv.tick().unwrap();
    srv.idle(1_000_000_000).unwrap();
    srv.tick().unwrap();
    let _ = resident_before;

    for sn in sns {
        assert_eq!(
            srv.read(sn).unwrap().kind(),
            "deleted",
            "{sn} must eventually be deleted despite the spill"
        );
    }
    assert_eq!(srv.spilled_vexp(), 0);
}

#[test]
fn spilled_entries_stay_while_secure_memory_is_full() {
    let mut cfg = WormConfig::test_small();
    cfg.device.secure_memory_bytes = 96;
    let (srv, clock) = server_with(cfg);
    for i in 0..6u64 {
        srv.write(&[format!("r{i}").as_bytes()], short_policy(100_000))
            .unwrap();
    }
    assert!(srv.spilled_vexp() > 0);
    // Idle re-arms each spilled expiry from the record's signed
    // attributes; with memory still full of pending VEXP entries the
    // device refuses, and the host keeps every refused SN for later.
    clock.advance(Duration::from_secs(1));
    srv.idle(1_000).unwrap();
    assert!(srv.spilled_vexp() > 0);
}

/// The host's spilled set is what the device lacks, across a restart:
/// recovery re-arms every active record, the battery-backed device
/// acknowledges the entries it still holds, and the rest stay counted.
#[test]
fn resume_counts_the_expiries_the_device_lacks() {
    let mut cfg = WormConfig::test_small();
    cfg.device.secure_memory_bytes = 96;
    let (srv, disk, clock) = durable_with(cfg.clone());
    for i in 0..6u64 {
        srv.write(&[format!("r{i}").as_bytes()], short_policy(100_000))
            .unwrap();
    }
    let resident = srv.firmware_for_test().vexp_len();
    let lacking = 6 - resident;
    assert!(lacking > 0, "some entries must have spilled");
    assert_eq!(srv.spilled_vexp(), lacking);

    let srv = restart(srv, &disk, cfg, clock);
    assert_eq!(srv.firmware_for_test().vexp_len(), resident);
    assert_eq!(srv.spilled_vexp(), lacking);
    assert_eq!(
        srv.stats_snapshot().gauge("witness.spilled_vexp"),
        Some(lacking as u64)
    );
}

/// In every witness tier, a spilled record is re-armed from its signed
/// attributes at the first idle with room, and deleted once its own
/// retention passes — not before.
#[test]
fn a_spilled_record_is_rearmed_at_the_first_idle_with_room() {
    for mode in [
        WitnessMode::Strong,
        WitnessMode::Deferred,
        WitnessMode::Hmac,
    ] {
        let mut cfg = WormConfig::test_small();
        cfg.device.secure_memory_bytes = 96;
        cfg.default_witness = mode;
        let (srv, clock) = server_with(cfg);
        // Short-lived fillers until one spills, then a longer-lived record
        // that spills too.
        let mut short = Vec::new();
        while srv.spilled_vexp() == 0 {
            assert!(short.len() < 16, "{mode:?}: nothing spilled");
            short.push(srv.write(&[b"filler"], short_policy(50)).unwrap());
        }
        let long = srv.write(&[b"long"], short_policy(500)).unwrap();
        assert_eq!(srv.spilled_vexp(), 2, "{mode:?}");
        let spilled_short = *short.last().unwrap();

        // The resident fillers expire and free their memory; the spilled
        // one, whose expiry the device does not hold, is still active.
        clock.advance(Duration::from_secs(60));
        srv.tick().unwrap();
        assert_eq!(srv.read(short[0]).unwrap().kind(), "deleted", "{mode:?}");
        assert_eq!(srv.read(spilled_short).unwrap().kind(), "data", "{mode:?}");

        srv.idle(1_000_000_000).unwrap();
        assert_eq!(srv.spilled_vexp(), 0, "{mode:?}");
        assert_eq!(
            srv.stats_snapshot().gauge("witness.spilled_vexp"),
            Some(0),
            "{mode:?}"
        );
        srv.tick().unwrap();
        assert_eq!(
            srv.read(spilled_short).unwrap().kind(),
            "deleted",
            "{mode:?}"
        );
        assert_eq!(srv.read(long).unwrap().kind(), "data", "{mode:?}");

        clock.advance(Duration::from_secs(500));
        srv.tick().unwrap();
        assert_eq!(srv.read(long).unwrap().kind(), "deleted", "{mode:?}");
    }
}

#[test]
fn tamper_response_kills_updates_but_reads_keep_serving() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let sn = srv.write(&[b"pre-tamper"], short_policy(100_000)).unwrap();
    srv.refresh_head().unwrap();

    srv.tamper_device(TamperCause::Penetration);

    // Updates now fail hard.
    match srv.write(&[b"post-tamper"], short_policy(100)) {
        Err(WormError::Device(scpu::DeviceError::Tampered(TamperCause::Penetration))) => {}
        other => panic!("expected tamper failure, got {other:?}"),
    }
    assert!(matches!(
        srv.lit_hold(regulator().issue_hold(
            sn,
            clock.now(),
            1,
            clock.now().after(Duration::from_secs(100))
        )),
        Err(WormError::Device(_))
    ));

    // Reads served from host state still verify while the head is fresh.
    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::Intact { sn }
    );

    // Once the head goes stale, clients refuse — a dead SCPU cannot
    // silently keep vouching for the store.
    clock.advance(Duration::from_secs(301));
    match srv.read(sn) {
        // The lazy head refresh hits the dead device.
        Err(WormError::Device(_)) => {}
        Ok(outcome) => {
            assert!(matches!(
                v.verify_read(sn, &outcome),
                Err(strongworm::VerifyError::StaleHead { .. })
            ));
        }
        other => panic!("unexpected: {other:?}"),
    }
}

/// A write that fails before its VRD exists leaves nothing behind: the
/// extents already written belong to no VR, so no expiry would ever shred
/// them. Both ways a write can fail there — the store refusing a later
/// record of the VR, the SCPU refusing to witness — give back the space
/// and destroy the plaintext.
#[test]
fn refused_writes_leave_no_extent_and_no_plaintext() {
    const REFUSED: &[u8] = b"refused plaintext, never witnessed";
    let mut cfg = WormConfig::test_small();
    cfg.store_capacity = 256;
    let (srv, _clock) = server_with(cfg);
    srv.write(&[b"pre"], short_policy(100_000)).unwrap();
    let usage = || (srv.store().watermark(), srv.store().free_bytes());
    let copies = || occurrences(&srv.store().device().raw(), REFUSED);
    let before = usage();

    // The store takes the first record and has no room for the second.
    match srv.write(&[REFUSED, &[0xAB; 256]], short_policy(100)) {
        Err(WormError::Store(wormstore::StoreError::OutOfSpace { .. })) => {}
        other => panic!("expected out of space, got {other:?}"),
    }
    assert_eq!((usage(), copies()), (before, 0));

    // A tampered SCPU refuses every write, of one record or of several.
    srv.tamper_device(TamperCause::Penetration);
    for _ in 0..10 {
        for records in [&[REFUSED][..], &[REFUSED, b"second", REFUSED][..]] {
            assert!(matches!(
                srv.write(records, short_policy(100)),
                Err(WormError::Device(_))
            ));
            assert_eq!((usage(), copies()), (before, 0));
        }
    }
}

#[test]
fn tamper_zeroizes_firmware_state() {
    let (srv, _clock) = server();
    srv.write(&[b"secret"], short_policy(100)).unwrap();
    assert!(srv.firmware_for_test().vexp_len() > 0);
    srv.tamper_device(TamperCause::Radiation);
    assert_eq!(srv.firmware_for_test().vexp_len(), 0);
    assert_eq!(srv.firmware_for_test().pending_strengthen(), 0);
}

#[test]
fn recovery_from_empty_journal_is_clean() {
    let recovered = Vrdt::recover(Journal::new()).unwrap();
    assert_eq!(recovered.resident_entries(), 0);
    recovered.check_complete().unwrap();
}
