//! Failure injection: host crashes (journal recovery), secure-memory
//! exhaustion (VEXP spill/re-admission), and tamper response.

mod common;

use std::time::Duration;

use common::{regulator, server, server_with, short_policy, verifier};
use scpu::{Clock, TamperCause};
use strongworm::vrdt::Vrdt;
use strongworm::{ReadVerdict, SerialNumber, WormConfig, WormError};
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

#[test]
fn torn_final_frame_loses_only_last_operation() {
    let (srv, _clock) = server();
    srv.write(&[b"committed-1"], short_policy(1000)).unwrap();
    srv.write(&[b"committed-2"], short_policy(1000)).unwrap();
    let full_len = srv.vrdt().journal().len_bytes();
    srv.write(&[b"torn"], short_policy(1000)).unwrap();

    let mut journal = Journal::from_bytes(srv.vrdt().journal().as_bytes().to_vec());
    let torn_frame_len = journal.len_bytes() - full_len;
    journal.truncate_tail(torn_frame_len / 2); // rip half the final frame

    let recovered = Vrdt::recover(journal).unwrap();
    assert!(matches!(
        recovered.lookup(SerialNumber(2)),
        strongworm::vrdt::Lookup::Active(_)
    ));
    assert!(matches!(
        recovered.lookup(SerialNumber(3)),
        strongworm::vrdt::Lookup::Unknown
    ));
    // The SCPU still knows SN 3 was issued: a fresh head exposes the loss
    // to any client asking for it (the paper's completeness guarantee).
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
fn forged_vexp_seal_is_rejected() {
    let mut cfg = WormConfig::test_small();
    cfg.device.secure_memory_bytes = 96;
    let (srv, clock) = server_with(cfg);
    for i in 0..6u64 {
        srv.write(&[format!("r{i}").as_bytes()], short_policy(100_000))
            .unwrap();
    }
    assert!(srv.spilled_vexp() > 0);
    // Direct firmware probing: a seal for different parameters must fail.
    // (Exercised through the public API: the server resubmits honestly, so
    // here we check the firmware state stays consistent even with memory
    // still exhausted — entries remain spilled rather than accepted.)
    clock.advance(Duration::from_secs(1));
    srv.idle(1_000).unwrap();
    // Memory still full of pending VEXP entries → spilled entries remain.
    assert!(srv.spilled_vexp() > 0);
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
    let copies = || {
        let (_vrdt, store) = srv.parts_mut_for_attack();
        let raw = store.device().raw();
        raw.windows(REFUSED.len()).filter(|w| *w == REFUSED).count()
    };
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
