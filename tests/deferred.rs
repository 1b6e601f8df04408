//! Deferred-strength witnessing (§4.3): weak signatures, HMAC mode,
//! idle-time strengthening, weak-key rotation, and trust-host-hash audits.

mod common;

use std::time::Duration;

use common::{server, server_with, short_policy, verifier};
use strongworm::{HashMode, ReadOutcome, ReadVerdict, VerifyError, WitnessMode, WormConfig};
use wormsim::model::State::Live;
use wormsim::model::Step::{Advance, Cut, Idle, Restart};
use wormsim::model::{run, Schedule, Step};
use wormsim::{CutStyle, Mallory, Torture};

#[test]
fn weak_witness_verifies_within_lifetime() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let sn = srv
        .write_with(
            &[b"burst record"],
            short_policy(100_000),
            0,
            WitnessMode::Deferred,
        )
        .unwrap();
    // Still inside the weak lifetime: clients accept.
    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::Intact { sn }
    );
    // The VRD really does carry weak witnesses.
    match srv.read(sn).unwrap() {
        ReadOutcome::Data { vrd, .. } => {
            assert_eq!(vrd.metasig.tier(), "weak");
            assert_eq!(vrd.datasig.tier(), "weak");
        }
        other => panic!("expected data, got {other:?}"),
    }
}

#[test]
fn expired_weak_witness_is_rejected_unstrengthened() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let sn = srv
        .write_with(
            &[b"burst record"],
            short_policy(10_000_000),
            0,
            WitnessMode::Deferred,
        )
        .unwrap();

    // Let the weak signature's security lifetime lapse without ever
    // granting the SCPU idle time to strengthen it.
    clock.advance(Duration::from_secs(121 * 60));

    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome),
        Err(VerifyError::WeakWitnessExpired { field: "metasig" })
    );
}

#[test]
fn strengthening_during_idle_upgrades_witnesses() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let sn = srv
        .write_with(
            &[b"burst record"],
            short_policy(10_000_000),
            0,
            WitnessMode::Deferred,
        )
        .unwrap();
    assert_eq!(srv.firmware_for_test().pending_strengthen(), 2);

    // Grant idle time; the zero-cost test model drains the whole queue.
    srv.idle(1_000_000_000).unwrap();
    assert_eq!(srv.firmware_for_test().pending_strengthen(), 0);

    match srv.read(sn).unwrap() {
        ReadOutcome::Data { vrd, .. } => {
            assert_eq!(vrd.metasig.tier(), "strong");
            assert_eq!(vrd.datasig.tier(), "strong");
        }
        other => panic!("expected data, got {other:?}"),
    }

    // Strengthened records survive past the weak lifetime.
    clock.advance(Duration::from_secs(10 * 60 * 60));
    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::Intact { sn }
    );
}

#[test]
fn strengthening_respects_idle_budget() {
    // Use the real IBM 4764 cost model so signatures have nonzero cost.
    let mut cfg = WormConfig::test_small();
    cfg.device.cost_model = scpu::CostModel::ibm4764();
    let (srv, _clock) = server_with(cfg);

    for i in 0..10u64 {
        srv.write_with(
            &[format!("r{i}").as_bytes()],
            short_policy(10_000_000),
            0,
            WitnessMode::Deferred,
        )
        .unwrap();
    }
    assert_eq!(srv.firmware_for_test().pending_strengthen(), 20);

    // Budget for roughly four strong (512-bit here) signatures.
    let one_sig = 240_000u64;
    srv.idle(4 * one_sig).unwrap();
    let left = srv.firmware_for_test().pending_strengthen();
    assert!((15..20).contains(&left), "left={left}");

    // A generous budget drains the rest.
    srv.idle(100 * one_sig).unwrap();
    assert_eq!(srv.firmware_for_test().pending_strengthen(), 0);
}

#[test]
fn hmac_witness_is_unverifiable_until_strengthened() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let sn = srv
        .write_with(
            &[b"peak load"],
            short_policy(10_000_000),
            0,
            WitnessMode::Hmac,
        )
        .unwrap();

    let outcome = srv.read(sn).unwrap();
    // §4.3: "the inability of clients to verify any of the HMACed
    // committed records until they are (later) signed by the SCPU".
    assert_eq!(
        v.verify_read(sn, &outcome),
        Err(VerifyError::UnverifiableMac { field: "metasig" })
    );

    srv.idle(1_000_000_000).unwrap();
    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::Intact { sn }
    );
}

#[test]
fn weak_key_rotates_and_old_certs_still_verify() {
    let (srv, clock) = server();
    let mut v = verifier(&srv, clock.clone());
    let first = srv
        .write_with(
            &[b"early"],
            short_policy(10_000_000),
            0,
            WitnessMode::Deferred,
        )
        .unwrap();

    // Advance past the rotation point (= weak lifetime) and write again.
    clock.advance(Duration::from_secs(121 * 60));
    let later = srv
        .write_with(
            &[b"late"],
            short_policy(10_000_000),
            0,
            WitnessMode::Deferred,
        )
        .unwrap();

    // The device now answers two live certificates: the boot key's and
    // the rotated key's.
    let certs = srv.weak_certs().unwrap();
    assert_eq!(certs.len(), 2, "rotation certifies a new key");
    for cert in certs {
        v.add_weak_cert(cert).unwrap();
    }

    // The early record's weak signature has lapsed (never strengthened)…
    let outcome = srv.read(first).unwrap();
    assert!(matches!(
        v.verify_read(first, &outcome),
        Err(VerifyError::WeakWitnessExpired { .. })
    ));
    // …but the fresh one verifies under the rotated key.
    let outcome = srv.read(later).unwrap();
    assert_eq!(
        v.verify_read(later, &outcome).unwrap(),
        ReadVerdict::Intact { sn: later }
    );
}

#[test]
fn forged_weak_expiry_does_not_verify() {
    // Mallory cannot stretch a weak signature's lifetime: the expiry is
    // inside the signed wrapper.
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let sn = srv
        .write_with(
            &[b"burst"],
            short_policy(10_000_000),
            0,
            WitnessMode::Deferred,
        )
        .unwrap();

    assert!(Mallory::new(&srv).edit_vrd(sn, |vrd| {
        if let strongworm::witness::Witness::Weak { expires_at, .. } = &mut vrd.metasig {
            *expires_at = expires_at.after(Duration::from_secs(100 * 60 * 60));
        }
    }));

    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome),
        Err(VerifyError::BadSignature("metasig"))
    );
}

#[test]
fn trust_host_hash_mode_audits_honest_host() {
    let mut cfg = WormConfig::test_small();
    cfg.hash_mode = HashMode::TrustHostHash;
    let (srv, clock) = server_with(cfg);
    let v = verifier(&srv, clock.clone());

    let sn = srv.write(&[b"burst data"], short_policy(10_000)).unwrap();
    // Client verification works as usual (the hash is correct).
    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::Intact { sn }
    );

    // Idle time triggers the SCPU audit; an honest host passes.
    srv.idle(1_000_000_000).unwrap();
    assert!(srv.audit_failures().is_empty());
}

#[test]
fn trust_host_hash_audit_catches_data_swap() {
    let mut cfg = WormConfig::test_small();
    cfg.hash_mode = HashMode::TrustHostHash;
    let (srv, _clock) = server_with(cfg);

    let sn = srv.write(&[b"original"], short_policy(10_000)).unwrap();
    // Mallory swaps the on-disk bytes before the audit runs.
    assert!(Mallory::new(&srv).corrupt_record_data(sn));

    srv.idle(1_000_000_000).unwrap();
    assert_eq!(srv.audit_failures(), &[sn]);
}

#[test]
fn deferred_writes_are_cheaper_on_the_device() {
    let mut cfg = WormConfig::test_small();
    cfg.device.cost_model = scpu::CostModel::ibm4764();
    cfg.strong_bits = 1024;
    cfg.weak_bits = 512;
    // Note: test_small overrides strong_bits; restore paper values but
    // keep the small store.
    let (srv, _clock) = server_with(cfg);

    srv.reset_meters();
    srv.write_with(
        &[b"x".as_slice()],
        short_policy(10_000),
        0,
        WitnessMode::Strong,
    )
    .unwrap();
    let strong_ns = srv.device_meter().busy_ns();

    srv.reset_meters();
    srv.write_with(
        &[b"x".as_slice()],
        short_policy(10_000),
        0,
        WitnessMode::Deferred,
    )
    .unwrap();
    let weak_ns = srv.device_meter().busy_ns();

    assert!(
        weak_ns * 3 < strong_ns,
        "deferred write ({weak_ns} ns) should be far cheaper than strong ({strong_ns} ns)"
    );
}

#[test]
fn deleted_record_cancels_pending_strengthening() {
    let (srv, clock) = server();
    srv.write(&[b"anchor"], short_policy(1_000_000)).unwrap();
    let sn = srv
        .write_with(&[b"fleeting"], short_policy(50), 0, WitnessMode::Deferred)
        .unwrap();
    assert_eq!(srv.firmware_for_test().pending_strengthen(), 2);

    clock.advance(Duration::from_secs(60));
    srv.tick().unwrap();
    // The record expired; its queue entries are dropped, not signed.
    assert_eq!(srv.firmware_for_test().pending_strengthen(), 0);
    assert_eq!(srv.read(sn).unwrap().kind(), "deleted");
}

/// A deferred write 60 s before the weak key's lifetime `L` ends, and one
/// 60 s after it, which rotates the key: the model's check after each step
/// holds both verifiers to `Intact` for both records.
fn across_a_rotation() -> Vec<Step> {
    let lifetime = WormConfig::test_small().weak_lifetime.as_secs();
    let deferred = Step::write_as(1_000_000, WitnessMode::Deferred);
    vec![Advance(lifetime - 60), deferred, Advance(120), deferred]
}

#[test]
fn a_restart_keeps_the_certificate_of_a_retired_weak_key() {
    // After the restart the device still answers the retired key's
    // certificate, so a verifier built from the recovered server accepts
    // the first record; then a full idle strengthens the witness queued
    // under the retired key, and it outlives its weak expiry.
    let lifetime = WormConfig::test_small().weak_lifetime.as_secs();
    let mut steps = across_a_rotation();
    steps.extend([Restart, Idle(1_000_000_000), Advance(lifetime + 100)]);
    let report = run(&Torture::small(), &Schedule::fixed(steps));
    assert_eq!(report.states, [Live, Live]);
}

#[test]
fn a_rotation_keeps_the_witnesses_queued_under_the_retired_key() {
    // With no restart to queue them again, only the device's own queue
    // holds the first record's witnesses across the rotation: a full
    // idle strengthens them, and the record outlives its weak expiry.
    let lifetime = WormConfig::test_small().weak_lifetime.as_secs();
    let mut steps = across_a_rotation();
    steps.extend([Idle(1_000_000_000), Advance(lifetime + 100)]);
    let report = run(&Torture::small(), &Schedule::fixed(steps));
    assert_eq!(report.states, [Live, Live]);
}

#[test]
fn a_rotation_is_answered_at_once() {
    // With no restart, the rotated key's certificate is what the device
    // answers right after the write that rotated it.
    let report = run(&Torture::small(), &Schedule::fixed(across_a_rotation()));
    assert_eq!(report.states, [Live, Live]);
}

#[test]
fn a_cut_while_the_host_installs_strengthened_witnesses_loses_none() {
    // The device dequeues a witness when it signs it strongly, and the cut
    // drops the frame that would install the strong one: the recovery
    // presents the weak witness back, so the next covering idle
    // strengthens it, and the record outlives its weak expiry.
    let lifetime = WormConfig::test_small().weak_lifetime.as_secs();
    let steps = [
        Step::write_as(1_000_000, WitnessMode::Deferred),
        Cut(1, CutStyle::Drop),
        Idle(1_000_000_000),
        Idle(1_000_000_000),
        Advance(lifetime + 100),
    ];
    let report = run(&Torture::small(), &Schedule::fixed(steps));
    assert_eq!(report.cuts_fired, 1);
    assert_eq!(report.states, [Live]);
}
