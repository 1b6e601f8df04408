//! End-to-end lifecycle: write → read/verify → expire → delete → compact.
//!
//! Exercises the full division of labour across all four crates: host
//! server, emulated SCPU, storage substrate, and client verifier.

mod common;

use std::time::Duration;

use common::{server, server_with, short_policy, verifier};
use strongworm::{
    DeletionEvidence, ReadOutcome, ReadVerdict, RetentionPolicy, SerialNumber, WormConfig,
    WormError,
};

#[test]
fn write_read_verify_roundtrip() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());

    let sn = srv
        .write(&[b"brokerage order #1", b"attachment"], short_policy(3600))
        .unwrap();
    assert_eq!(sn, SerialNumber(1));

    let outcome = srv.read(sn).unwrap();
    assert_eq!(outcome.kind(), "data");
    assert_eq!(
        v.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::Intact { sn }
    );

    // Serial numbers are consecutive and monotone.
    let sn2 = srv.write(&[b"order #2"], short_policy(3600)).unwrap();
    assert_eq!(sn2, SerialNumber(2));
}

#[test]
fn read_of_never_written_record_is_provably_absent() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    srv.write(&[b"only record"], short_policy(3600)).unwrap();

    let absent = SerialNumber(999);
    // The head must be fresh enough for the denial to stand, which means
    // the host must consult the SCPU-refreshed head after the write.
    srv.refresh_head().unwrap();
    let outcome = srv.read(absent).unwrap();
    assert_eq!(outcome.kind(), "never-existed");
    assert_eq!(
        v.verify_read(absent, &outcome).unwrap(),
        ReadVerdict::ConfirmedNeverExisted
    );
}

#[test]
fn retention_expiry_deletes_with_proof() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    // A long-lived anchor below keeps the base from advancing past the
    // ephemeral record, so its per-record proof stays resident.
    srv.write(&[b"anchor"], short_policy(1_000_000)).unwrap();
    let sn = srv.write(&[b"ephemeral"], short_policy(60)).unwrap();

    // Before expiry: intact.
    let verdict = v.verify_read(sn, &srv.read(sn).unwrap()).unwrap();
    assert_eq!(verdict, ReadVerdict::Intact { sn });

    // Cross the retention boundary; the RM fires on the next tick.
    clock.advance(Duration::from_secs(61));
    srv.tick().unwrap();

    let outcome = srv.read(sn).unwrap();
    match &outcome {
        ReadOutcome::Deleted {
            evidence: DeletionEvidence::Proof(p),
            ..
        } => assert_eq!(p.sn, sn),
        other => panic!("expected per-record deletion proof, got {other:?}"),
    }
    match v.verify_read(sn, &outcome).unwrap() {
        ReadVerdict::ConfirmedDeleted { deleted_at } => assert!(deleted_at.is_some()),
        other => panic!("expected deletion verdict, got {other:?}"),
    }
}

#[test]
fn shredding_destroys_data_on_the_medium() {
    let (srv, clock) = server();
    let payload = b"THE-SMOKING-GUN-EMAIL";
    let sn = srv.write(&[payload], short_policy(10)).unwrap();
    // The plaintext is on the medium while retained. (Scoped: the attack
    // surface holds the VRDT write lock, which `tick` below also needs.)
    {
        let (_vrdt, store) = srv.parts_mut_for_attack();
        let raw: Vec<u8> = store.device().raw().to_vec();
        assert!(contains(&raw, payload));
        let _ = sn;
    }

    clock.advance(Duration::from_secs(11));
    srv.tick().unwrap();

    let (_vrdt, store) = srv.parts_mut_for_attack();
    let raw: Vec<u8> = store.device().raw().to_vec();
    assert!(
        !contains(&raw, payload),
        "shredded record must not be recoverable from the raw medium"
    );
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// An extent has exactly one owning VR: identical bytes written twice are
/// stored twice, and one VR's expiry shreds its own copy and no other.
#[test]
fn identical_writes_own_separate_extents() {
    const ATTACHMENT: &[u8] = b"quarterly-results.xlsx: 48KB of spreadsheet bytes (simulated)";
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    srv.write(&[b"anchor"], short_policy(1_000_000)).unwrap();
    let a = srv.write(&[ATTACHMENT], short_policy(50)).unwrap();
    let b = srv.write(&[ATTACHMENT], short_policy(100_000)).unwrap();
    let extent = |sn| match srv.read(sn).unwrap() {
        ReadOutcome::Data { vrd, .. } => vrd.rdl[0],
        other => panic!("unexpected {other:?}"),
    };
    let (rd_a, rd_b) = (extent(a), extent(b));
    assert_ne!(rd_a.id, rd_b.id);
    assert_ne!(rd_a.offset, rd_b.offset);

    clock.advance(Duration::from_secs(60));
    srv.tick().unwrap();
    assert_eq!(srv.read(a).unwrap().kind(), "deleted");
    {
        let (_vrdt, store) = srv.parts_mut_for_attack();
        let raw = store.device().raw();
        let at = |rd: wormstore::RecordDescriptor| {
            raw[rd.offset as usize..(rd.offset + rd.len) as usize].to_vec()
        };
        assert_eq!(at(rd_a), vec![0u8; ATTACHMENT.len()]);
        assert_eq!(at(rd_b), ATTACHMENT);
    }
    let outcome = srv.read(b).unwrap();
    assert_eq!(
        v.verify_read(b, &outcome).unwrap(),
        ReadVerdict::Intact { sn: b }
    );
    match outcome {
        ReadOutcome::Data { records, .. } => assert_eq!(&records[0][..], ATTACHMENT),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn records_expire_in_expiration_order_not_insertion_order() {
    let (srv, clock) = server();
    let long = srv.write(&[b"keep me"], short_policy(1000)).unwrap();
    let short = srv.write(&[b"drop me"], short_policy(100)).unwrap();

    clock.advance(Duration::from_secs(150));
    srv.tick().unwrap();

    assert_eq!(srv.read(short).unwrap().kind(), "deleted");
    assert_eq!(srv.read(long).unwrap().kind(), "data");

    clock.advance(Duration::from_secs(900));
    srv.tick().unwrap();
    assert_eq!(srv.read(long).unwrap().kind(), "deleted");
}

#[test]
fn base_advances_over_contiguous_expired_prefix() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    // Three short records followed by one long one.
    for _ in 0..3 {
        srv.write(&[b"short"], short_policy(50)).unwrap();
    }
    let survivor = srv.write(&[b"long"], short_policy(10_000)).unwrap();

    clock.advance(Duration::from_secs(60));
    srv.tick().unwrap();

    // The base should have advanced past the three expired records, so
    // their per-record proofs are expelled and reads are answered with
    // the base certificate.
    let base = srv.vrdt().base().cloned().expect("base cert");
    assert_eq!(base.sn_base, SerialNumber(4));
    for i in 1..=3u64 {
        let outcome = srv.read(SerialNumber(i)).unwrap();
        match &outcome {
            ReadOutcome::Deleted {
                evidence: DeletionEvidence::BelowBase(b),
                ..
            } => assert_eq!(b.sn_base, SerialNumber(4)),
            other => panic!("expected below-base evidence, got {other:?}"),
        }
        assert!(matches!(
            v.verify_read(SerialNumber(i), &outcome).unwrap(),
            ReadVerdict::ConfirmedDeleted { .. }
        ));
    }
    assert_eq!(srv.read(survivor).unwrap().kind(), "data");
}

#[test]
fn interior_expirations_compact_into_windows() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    // sn1 long, sn2..sn5 short, sn6 long: interior run of 4 expired.
    srv.write(&[b"anchor-lo"], short_policy(10_000)).unwrap();
    for _ in 0..4 {
        srv.write(&[b"mid"], short_policy(50)).unwrap();
    }
    srv.write(&[b"anchor-hi"], short_policy(10_000)).unwrap();

    clock.advance(Duration::from_secs(60));
    srv.tick().unwrap();

    let resident_before = srv.vrdt().resident_entries();
    let created = srv.compact().unwrap();
    assert_eq!(created, 1);
    assert!(srv.vrdt().resident_entries() < resident_before);
    assert_eq!(srv.vrdt().resident_windows(), 1);

    // Reads inside the window verify via the window proof.
    for i in 2..=5u64 {
        let sn = SerialNumber(i);
        let outcome = srv.read(sn).unwrap();
        assert!(matches!(
            &outcome,
            ReadOutcome::Deleted {
                evidence: DeletionEvidence::InWindow(_),
                ..
            }
        ));
        assert!(matches!(
            v.verify_read(sn, &outcome).unwrap(),
            ReadVerdict::ConfirmedDeleted { .. }
        ));
    }
    // Anchors still live.
    assert_eq!(srv.read(SerialNumber(1)).unwrap().kind(), "data");
    assert_eq!(srv.read(SerialNumber(6)).unwrap().kind(), "data");
}

#[test]
fn compaction_below_minimum_run_is_refused() {
    let (srv, clock) = server();
    srv.write(&[b"lo"], short_policy(10_000)).unwrap();
    srv.write(&[b"a"], short_policy(50)).unwrap();
    srv.write(&[b"b"], short_policy(50)).unwrap();
    srv.write(&[b"hi"], short_policy(10_000)).unwrap();

    clock.advance(Duration::from_secs(60));
    srv.tick().unwrap();
    // Run of 2 < minimum of 3: nothing to compact.
    assert_eq!(srv.compact().unwrap(), 0);
    assert_eq!(srv.vrdt().resident_windows(), 0);
}

#[test]
fn multi_record_vr_roundtrips_all_records() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let records: Vec<&[u8]> = vec![b"part-1", b"part-2", b"part-3"];
    let sn = srv.write(&records, short_policy(3600)).unwrap();
    match srv.read(sn).unwrap() {
        ReadOutcome::Data {
            records: got,
            vrd,
            head,
        } => {
            assert_eq!(got.len(), 3);
            assert_eq!(&got[0][..], b"part-1");
            assert_eq!(&got[2][..], b"part-3");
            assert_eq!(vrd.record_count(), 3);
            let outcome = ReadOutcome::Data {
                vrd,
                records: got,
                head,
            };
            v.verify_read(sn, &outcome).unwrap();
        }
        other => panic!("expected data, got {other:?}"),
    }
}

#[test]
fn empty_vr_is_legal_and_verifiable() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let sn = srv.write(&[], short_policy(3600)).unwrap();
    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::Intact { sn }
    );
}

#[test]
fn store_exhaustion_surfaces_as_error() {
    let mut cfg = WormConfig::test_small();
    cfg.store_capacity = 64;
    let (srv, _clock) = server_with(cfg);
    let big = vec![0u8; 128];
    match srv.write(&[&big], short_policy(60)) {
        Err(WormError::Store(_)) => {}
        other => panic!("expected store error, got {other:?}"),
    }
}

#[test]
fn vrdt_completeness_invariant_holds_through_lifecycle() {
    let (srv, clock) = server();
    for i in 0..20u64 {
        srv.write(
            &[format!("r{i}").as_bytes()],
            short_policy(50 + (i % 5) * 100),
        )
        .unwrap();
    }
    srv.refresh_head().unwrap();
    srv.vrdt().check_complete().expect("complete after writes");

    clock.advance(Duration::from_secs(500));
    srv.tick().unwrap();
    srv.compact().unwrap();
    srv.refresh_head().unwrap();
    srv.vrdt()
        .check_complete()
        .expect("complete after expiry and compaction");
}

#[test]
fn regulation_presets_flow_through_attributes() {
    let (srv, _clock) = server();
    let sn = srv
        .write(&[b"patient record"], RetentionPolicy::hipaa())
        .unwrap();
    match srv.read(sn).unwrap() {
        ReadOutcome::Data { vrd, .. } => {
            assert_eq!(vrd.attr.regulation, strongworm::Regulation::Hipaa);
            assert!(vrd.attr.retention_until > vrd.attr.created_at);
        }
        other => panic!("expected data, got {other:?}"),
    }
}
