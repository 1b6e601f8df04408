//! The full certificate chain of §4.2.1: "Their corresponding public key
//! certificates — signed by a regulatory or general purpose certificate
//! authority — are made available to clients by the main CPU." Clients
//! bootstrap from the CA root alone.

mod common;

use std::time::Duration;

use common::{server, short_policy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use strongworm::witness::KeyRole;
use strongworm::{CertificateAuthority, ReadVerdict, Verifier};

#[test]
fn client_bootstraps_from_ca_root_only() {
    let (srv, clock) = server();
    let mut rng = StdRng::seed_from_u64(0xCA);
    let ca = CertificateAuthority::generate(&mut rng, 512);

    // The CA certifies the device's published keys (a ceremony performed
    // once at deployment).
    let sign_cert = ca.certify(KeyRole::Sign, &srv.keys().sign);
    let del_cert = ca.certify(KeyRole::Delete, &srv.keys().delete);

    // A client that only trusts the CA builds its verifier from the
    // certificates the (untrusted) host serves.
    let v = Verifier::from_certificates(
        ca.public(),
        &sign_cert,
        &del_cert,
        srv.keys().weak_cert.clone(),
        Duration::from_secs(300),
        clock.clone(),
    )
    .expect("chain verifies");

    let sn = srv.write(&[b"chained trust"], short_policy(1000)).unwrap();
    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::Intact { sn }
    );
}

#[test]
fn swapped_role_certificates_are_rejected() {
    let (srv, clock) = server();
    let mut rng = StdRng::seed_from_u64(0xCB);
    let ca = CertificateAuthority::generate(&mut rng, 512);
    // Mallory serves the delete-key certificate in the sign-key slot.
    let sign_cert = ca.certify(KeyRole::Sign, &srv.keys().sign);
    let del_as_sign = ca.certify(KeyRole::Delete, &srv.keys().delete);
    assert!(Verifier::from_certificates(
        ca.public(),
        &del_as_sign, // wrong role in the sign slot
        &sign_cert,
        srv.keys().weak_cert.clone(),
        Duration::from_secs(300),
        clock.clone(),
    )
    .is_err());
}

#[test]
fn certificates_from_a_different_ca_are_rejected() {
    let (srv, clock) = server();
    let mut rng = StdRng::seed_from_u64(0xCC);
    let real_ca = CertificateAuthority::generate(&mut rng, 512);
    let rogue_ca = CertificateAuthority::generate(&mut rng, 512);
    let sign_cert = rogue_ca.certify(KeyRole::Sign, &srv.keys().sign);
    let del_cert = rogue_ca.certify(KeyRole::Delete, &srv.keys().delete);
    // Client trusts `real_ca`; rogue-signed certificates must fail.
    assert!(Verifier::from_certificates(
        real_ca.public(),
        &sign_cert,
        &del_cert,
        srv.keys().weak_cert.clone(),
        Duration::from_secs(300),
        clock,
    )
    .is_err());
}

#[test]
fn mallory_substituted_device_keys_fail_the_chain() {
    // Mallory stands up her own device with her own keys and serves its
    // certificates — but she cannot get the real CA to certify them.
    let (srv, clock) = server();
    let mut rng = StdRng::seed_from_u64(0xCD);
    let ca = CertificateAuthority::generate(&mut rng, 512);
    let sign_cert = ca.certify(KeyRole::Sign, &srv.keys().sign);
    let del_cert = ca.certify(KeyRole::Delete, &srv.keys().delete);

    // Forged certificate: her key pasted into a legit envelope.
    let mallory_key = wormcrypt::RsaPrivateKey::generate(&mut rng, 512);
    let mut forged = sign_cert.clone();
    forged.key = mallory_key.public().clone();
    assert!(Verifier::from_certificates(
        ca.public(),
        &forged,
        &del_cert,
        srv.keys().weak_cert.clone(),
        Duration::from_secs(300),
        clock,
    )
    .is_err());
}
