//! Litigation holds and releases (§4.2.2).

mod common;

use std::time::Duration;

use common::{regulator, server, short_policy, verifier};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::Clock;
use strongworm::{ReadOutcome, ReadVerdict, RegulatoryAuthority, SerialNumber, WormError};
use wormsim::Mallory;

#[test]
fn hold_prevents_deletion_past_retention() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    srv.write(&[b"anchor"], short_policy(1_000_000)).unwrap();
    let sn = srv.write(&[b"disputed record"], short_policy(100)).unwrap();

    // Court places a hold lasting well past the retention period.
    let hold_until = clock.now().after(Duration::from_secs(5_000));
    let cred = regulator().issue_hold(sn, clock.now(), 4242, hold_until);
    srv.lit_hold(cred).unwrap();

    // Retention elapses — but the record must survive.
    clock.advance(Duration::from_secs(200));
    srv.tick().unwrap();
    let outcome = srv.read(sn).unwrap();
    assert_eq!(outcome.kind(), "data");
    assert_eq!(
        v.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::Intact { sn }
    );
    match &outcome {
        ReadOutcome::Data { vrd, .. } => {
            let hold = vrd.attr.litigation_hold.as_ref().expect("hold recorded");
            assert_eq!(hold.litigation_id, 4242);
        }
        _ => unreachable!(),
    }

    // Once the hold lapses, the RM deletes at its next wake-up.
    clock.advance(Duration::from_secs(5_000));
    srv.tick().unwrap();
    assert_eq!(srv.read(sn).unwrap().kind(), "deleted");
}

#[test]
fn release_allows_prompt_deletion() {
    let (srv, clock) = server();
    srv.write(&[b"anchor"], short_policy(1_000_000)).unwrap();
    let sn = srv.write(&[b"disputed"], short_policy(100)).unwrap();

    let hold_until = clock.now().after(Duration::from_secs(100_000));
    let cred = regulator().issue_hold(sn, clock.now(), 7, hold_until);
    srv.lit_hold(cred).unwrap();

    // Retention elapses under hold; record survives.
    clock.advance(Duration::from_secs(500));
    srv.tick().unwrap();
    assert_eq!(srv.read(sn).unwrap().kind(), "data");

    // Litigation concludes: release by the same proceeding.
    let release = regulator().issue_release(sn, clock.now(), 7);
    srv.lit_release(release).unwrap();

    // The RM now deletes at the (already elapsed) retention time.
    clock.advance(Duration::from_secs(1));
    srv.tick().unwrap();
    assert_eq!(srv.read(sn).unwrap().kind(), "deleted");
}

#[test]
fn hold_from_unauthorized_party_is_rejected() {
    let (srv, clock) = server();
    let sn = srv.write(&[b"record"], short_policy(1000)).unwrap();

    // A different key pair pretending to be the regulator.
    let impostor = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(666), 512);
    let cred = impostor.issue_hold(
        sn,
        clock.now(),
        1,
        clock.now().after(Duration::from_secs(50)),
    );
    match srv.lit_hold(cred) {
        Err(WormError::Firmware(msg)) => assert!(msg.contains("regulator"), "{msg}"),
        other => panic!("expected firmware rejection, got {other:?}"),
    }
}

#[test]
fn release_requires_matching_litigation_id() {
    let (srv, clock) = server();
    let sn = srv.write(&[b"record"], short_policy(100_000)).unwrap();
    let cred = regulator().issue_hold(
        sn,
        clock.now(),
        11,
        clock.now().after(Duration::from_secs(9_000)),
    );
    srv.lit_hold(cred).unwrap();

    let wrong = regulator().issue_release(sn, clock.now(), 12);
    match srv.lit_release(wrong) {
        Err(WormError::Firmware(msg)) => assert!(msg.contains("litigation"), "{msg}"),
        other => panic!("expected firmware rejection, got {other:?}"),
    }
}

#[test]
fn hold_on_deleted_or_unissued_record_is_rejected() {
    let (srv, clock) = server();
    srv.write(&[b"anchor"], short_policy(1_000_000)).unwrap();
    let gone = srv.write(&[b"expires"], short_policy(50)).unwrap();
    clock.advance(Duration::from_secs(60));
    srv.tick().unwrap();

    // Expired record: the server-side lookup already refuses.
    let cred = regulator().issue_hold(
        gone,
        clock.now(),
        1,
        clock.now().after(Duration::from_secs(500)),
    );
    assert!(matches!(srv.lit_hold(cred), Err(WormError::NotActive(_))));

    // Never-issued record.
    let cred = regulator().issue_hold(
        SerialNumber(999),
        clock.now(),
        1,
        clock.now().after(Duration::from_secs(500)),
    );
    assert!(matches!(srv.lit_hold(cred), Err(WormError::NotActive(_))));
}

#[test]
fn double_hold_is_rejected_while_active() {
    let (srv, clock) = server();
    let sn = srv.write(&[b"record"], short_policy(100_000)).unwrap();
    let cred1 = regulator().issue_hold(
        sn,
        clock.now(),
        1,
        clock.now().after(Duration::from_secs(5_000)),
    );
    srv.lit_hold(cred1).unwrap();
    let cred2 = regulator().issue_hold(
        sn,
        clock.now(),
        2,
        clock.now().after(Duration::from_secs(9_000)),
    );
    match srv.lit_hold(cred2) {
        Err(WormError::Firmware(msg)) => assert!(msg.contains("already held"), "{msg}"),
        other => panic!("expected firmware rejection, got {other:?}"),
    }
}

#[test]
fn expired_hold_timeout_is_rejected_at_placement() {
    let (srv, clock) = server();
    let sn = srv.write(&[b"record"], short_policy(100_000)).unwrap();
    let past = clock.now().before(Duration::from_secs(10));
    let cred = regulator().issue_hold(sn, clock.now(), 1, past);
    match srv.lit_hold(cred) {
        Err(WormError::Firmware(msg)) => assert!(msg.contains("past"), "{msg}"),
        other => panic!("expected firmware rejection, got {other:?}"),
    }
}

#[test]
fn held_attr_changes_are_scpu_signed() {
    // After a hold, the updated attributes carry a fresh strong metasig —
    // Mallory editing the hold flag directly is caught like any other
    // attribute tampering.
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let sn = srv.write(&[b"record"], short_policy(100_000)).unwrap();
    let cred = regulator().issue_hold(
        sn,
        clock.now(),
        3,
        clock.now().after(Duration::from_secs(5_000)),
    );
    srv.lit_hold(cred).unwrap();

    // Honest state verifies.
    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::Intact { sn }
    );

    // Mallory silently strips the hold from the VRDT.
    assert!(Mallory::new(&srv).edit_vrd(sn, |vrd| {
        vrd.attr.litigation_hold = None;
    }));
    let outcome = srv.read(sn).unwrap();
    assert!(v.verify_read(sn, &outcome).is_err());
}

#[test]
fn credential_for_one_record_cannot_hold_another() {
    let (srv, clock) = server();
    let a = srv.write(&[b"a"], short_policy(100_000)).unwrap();
    let b = srv.write(&[b"b"], short_policy(100_000)).unwrap();
    let cred_a = regulator().issue_hold(
        a,
        clock.now(),
        1,
        clock.now().after(Duration::from_secs(5_000)),
    );

    // Mallory rewrites the SN field of the credential to target b.
    let mut forged = cred_a;
    forged.sn = b;
    match srv.lit_hold(forged) {
        Err(WormError::Firmware(msg)) => assert!(msg.contains("regulator"), "{msg}"),
        other => panic!("expected firmware rejection, got {other:?}"),
    }
}
