//! A write's two signatures are issued as one pair (Table 1: `metasig`
//! and `datasig` under one key), and a run of writes as one command whose
//! signatures share the signing key's lane passes. What a client and the
//! cost model see must not depend on that: the VRD verifies from scratch,
//! is byte for byte what a lone write gets, and the SCPU is charged two
//! signatures per write.

mod common;

use common::{paper_widths, server_with, short_policy, verifier};
use rand::rngs::StdRng;
use rand::SeedableRng;
use strongworm::vrdt::Lookup;
use strongworm::{
    ReadOutcome, ReadVerdict, RecordWrite, SerialNumber, WitnessMode, WormConfig, WormServer,
};
use wormcrypt::{HashAlg, RsaPrivateKey};

#[test]
fn strong_and_deferred_writes_verify_afresh_and_cost_two_signatures() {
    // The small-key fixture, and the paper's widths: 1024-bit permanent
    // keys, 512-bit short-lived ones.
    let mut paper = WormConfig::test_small();
    paper.strong_bits = 1024;
    paper.weak_bits = 512;
    for cfg in [WormConfig::test_small(), paper] {
        let (srv, clock) = server_with(cfg);
        for (mode, tier) in [
            (WitnessMode::Strong, "strong"),
            (WitnessMode::Deferred, "weak"),
        ] {
            srv.reset_meters();
            let sn = srv
                .write_with(
                    &[b"one record", b"and its second"],
                    short_policy(100_000),
                    0,
                    mode,
                )
                .unwrap();
            assert_eq!(srv.device_meter().count("rsa_sign"), 2, "{mode:?}");

            // A verifier built after the write: nothing memoised.
            let v = verifier(&srv, clock.clone());
            let outcome = srv.read(sn).unwrap();
            assert_eq!(
                v.verify_read(sn, &outcome).unwrap(),
                ReadVerdict::Intact { sn }
            );
            match outcome {
                ReadOutcome::Data { vrd, .. } => {
                    assert_eq!(vrd.metasig.tier(), tier);
                    assert_eq!(vrd.datasig.tier(), tier);
                    assert_ne!(vrd.metasig, vrd.datasig);
                }
                other => panic!("expected data, got {other:?}"),
            }
        }
        // Strengthening the deferred write's pair leaves it verifiable.
        srv.idle(u64::MAX / 2).unwrap();
        assert_eq!(srv.firmware_for_test().pending_strengthen(), 0);
        let v = verifier(&srv, clock.clone());
        for sn in [1, 2].map(strongworm::SerialNumber) {
            let outcome = srv.read(sn).unwrap();
            assert_eq!(
                v.verify_read(sn, &outcome).unwrap(),
                ReadVerdict::Intact { sn }
            );
            match outcome {
                ReadOutcome::Data { vrd, .. } => {
                    assert!(vrd.metasig.is_strong() && vrd.datasig.is_strong())
                }
                other => panic!("expected data, got {other:?}"),
            }
        }
    }
}

/// Every count of messages a run of writes hands the signer — passes of
/// four, a pass of three, a last one or two — signs byte for byte as one
/// `sign` each, at every width the lanes serve.
#[test]
fn sign_many_is_one_sign_each_at_every_width() {
    let long = vec![0x3Cu8; 2048];
    let messages: [&[u8]; 9] = [
        b"meta 1",
        b"data 1",
        &long,
        b"",
        b"meta 3",
        b"x",
        &long[7..],
        b"y",
        b"z",
    ];
    for bits in [512usize, 1024, 2048] {
        let key = RsaPrivateKey::generate(&mut StdRng::seed_from_u64(bits as u64 + 3), bits);
        let alone: Vec<Vec<u8>> = messages
            .iter()
            .map(|m| key.sign(m, HashAlg::Sha256).unwrap())
            .collect();
        for n in 1..=messages.len() {
            let many = key.sign_many(&messages[..n], HashAlg::Sha256).unwrap();
            assert_eq!(many, alone[..n], "{bits} bits, {n} messages");
        }
    }
}

/// The VRD of `sn` on `srv`.
fn vrd_of(srv: &WormServer, sn: SerialNumber) -> strongworm::Vrd {
    match srv.vrdt().lookup(sn) {
        Lookup::Active(vrd) => vrd.clone(),
        other => panic!("{sn:?} is not active: {other:?}"),
    }
}

/// With the seed and the clock fixed, a run of writes at every tier in one
/// command gives each record byte for byte the SN, attributes, `metasig`
/// and `datasig` the same write gets alone, charges what the lone writes
/// are charged but for the commands, and verifies afresh.
#[test]
fn a_run_of_writes_witnesses_each_record_as_a_lone_write_would() {
    let runs: [(&[&[u8]], WitnessMode); 6] = [
        (&[b"first"], WitnessMode::Strong),
        (&[b"second", b"of two records"], WitnessMode::Strong),
        (&[b"deferred"], WitnessMode::Deferred),
        (&[b"mac"], WitnessMode::Hmac),
        (&[b"fifth"], WitnessMode::Strong),
        (&[b"deferred too"], WitnessMode::Deferred),
    ];
    for cfg in [WormConfig::test_small(), paper_widths()] {
        let (alone, _) = server_with(cfg.clone());
        let (together, clock) = server_with(cfg);
        alone.reset_meters();
        together.reset_meters();
        let lone: Vec<SerialNumber> = runs
            .iter()
            .map(|&(records, mode)| {
                alone
                    .write_with(records, short_policy(1000), 7, mode)
                    .unwrap()
            })
            .collect();
        let run: Vec<RecordWrite<'_>> = runs
            .iter()
            .map(|&(records, witness)| RecordWrite {
                records,
                policy: short_policy(1000),
                flags: 7,
                witness,
            })
            .collect();
        let sns: Vec<SerialNumber> = together
            .write_many(&run)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(sns, lone);
        for &sn in &sns {
            let (a, b) = (vrd_of(&alone, sn), vrd_of(&together, sn));
            assert_eq!(
                (&a.sn, &a.attr, &a.metasig, &a.datasig),
                (&b.sn, &b.attr, &b.metasig, &b.datasig),
                "{sn:?}"
            );
        }
        // One `Write` and one outbox drain for the run, two of each per
        // lone write; every other charge the same.
        let (a, b) = (alone.device_meter(), together.device_meter());
        assert_eq!((a.count("command"), b.count("command")), (12, 2));
        for op in ["rsa_sign", "sha256", "dma_in", "hmac"] {
            assert_eq!(a.count(op), b.count(op), "{op}");
        }
        assert_eq!(b.count("rsa_sign"), 10);
        // Strengthened, the MAC as well, every record verifies afresh.
        together.idle(u64::MAX / 2).unwrap();
        let v = verifier(&together, clock.clone());
        for &sn in &sns {
            assert_eq!(
                v.verify_read(sn, &together.read(sn).unwrap()).unwrap(),
                ReadVerdict::Intact { sn }
            );
        }
    }
}
