//! A write's two signatures are issued as one pair (Table 1: `metasig`
//! and `datasig` under one key). What a client and the cost model see must
//! not depend on that: the VRD verifies from scratch, and the SCPU is
//! charged two signatures per write.

mod common;

use common::{server_with, short_policy, verifier};
use strongworm::{ReadOutcome, ReadVerdict, WitnessMode, WormConfig};

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
