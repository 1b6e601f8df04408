//! Adversarial suite: Theorems 1 and 2 as executable properties.
//!
//! Theorem 1: "Data records committed to WORM storage can not be altered
//! or removed undetected."  Theorem 2: "Insiders with super-user powers
//! are unable to 'hide' active data records from querying clients by
//! claiming they have expired or were not stored in the first place."
//!
//! Every test stages one concrete Mallory manipulation (superuser edits of
//! host state, spliced or misapplied window proofs) and asserts the client
//! verifier rejects it with the expected error. Forged answers for a live
//! record are the model's Forge step (`wormsim::model`).

mod common;

use std::time::Duration;

use common::{paper_widths, sequential_verdict, server, server_with, short_policy, verifier};
use scpu::Timestamp;
use strongworm::proofs::{DeletionEvidence, ReadOutcome};
use strongworm::{ReadVerdict, SerialNumber, VerifyError, WormConfig};
use wormsim::Mallory;

/// Theorem 1: direct modification of record bytes on the medium.
#[test]
fn tampered_record_data_is_detected() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let sn = srv
        .write(&[b"incriminating email"], short_policy(3600))
        .unwrap();

    assert!(Mallory::new(&srv).corrupt_record_data(sn));

    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome),
        Err(VerifyError::DataHashMismatch)
    );
}

/// Theorem 1: rewriting attributes (e.g., shortening retention) in the
/// on-disk VRDT without the SCPU.
#[test]
fn rewritten_attributes_are_detected() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let sn = srv.write(&[b"contract"], short_policy(100_000)).unwrap();

    assert!(Mallory::new(&srv).edit_vrd(sn, |vrd| {
        // Make the record expire immediately.
        vrd.attr.retention_until = Timestamp::from_millis(0);
    }));

    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome),
        Err(VerifyError::BadSignature("metasig"))
    );
}

/// Theorem 1: transplanting valid signatures between records.
#[test]
fn witness_transplant_is_detected() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let a = srv.write(&[b"record a"], short_policy(3600)).unwrap();
    let b = srv.write(&[b"record b"], short_policy(7200)).unwrap();

    assert!(Mallory::new(&srv).swap_witnesses(a, b));

    for sn in [a, b] {
        let outcome = srv.read(sn).unwrap();
        assert!(
            v.verify_read(sn, &outcome).is_err(),
            "transplanted witnesses on {sn} must not verify"
        );
    }
}

/// Theorem 1: substituting one record's data with another's (descriptor
/// redirection) fails even though both payloads are SCPU-witnessed.
#[test]
fn record_substitution_is_detected() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let a = srv
        .write(&[b"version with the crime"], short_policy(3600))
        .unwrap();
    let b = srv
        .write(&[b"sanitized version"], short_policy(3600))
        .unwrap();

    // Mallory points a's descriptor list at b's extents.
    let b_rdl = match srv.read(b).unwrap() {
        ReadOutcome::Data { vrd, .. } => vrd.rdl,
        other => panic!("b is active: {other:?}"),
    };
    assert!(Mallory::new(&srv).edit_vrd(a, |va| va.rdl = b_rdl));

    let outcome = srv.read(a).unwrap();
    assert_eq!(
        v.verify_read(a, &outcome),
        Err(VerifyError::DataHashMismatch)
    );
}

/// Theorem 1: `datasig`'s chained hash binds the order of a VR's records,
/// so swapping two descriptors inside one RDL is detected.
#[test]
fn reordered_records_are_detected() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let sn = srv
        .write(&[b"first", b"second"], short_policy(1000))
        .unwrap();
    assert!(Mallory::new(&srv).edit_vrd(sn, |vrd| vrd.rdl.reverse()));
    assert_eq!(
        v.verify_read(sn, &srv.read(sn).unwrap()),
        Err(VerifyError::DataHashMismatch)
    );
}

/// Theorem 2: splicing bounds of two different deleted windows into a
/// wider window covering an active record (§4.2.1's correlation attack).
#[test]
fn spliced_window_bounds_are_detected() {
    // At 512-bit keys, and at the width whose two bounds a client with the
    // instructions checks as one pair.
    spliced_window_bounds_are_detected_at(WormConfig::test_small());
    spliced_window_bounds_are_detected_at(paper_widths());
}

fn spliced_window_bounds_are_detected_at(config: WormConfig) {
    let (srv, clock) = server_with(config);
    let v = verifier(&srv, clock.clone());

    // Layout: anchor, [2..4] short, active, [6..8] short, anchor.
    srv.write(&[b"anchor-lo"], short_policy(1_000_000)).unwrap();
    for _ in 0..3 {
        srv.write(&[b"w1"], short_policy(50)).unwrap();
    }
    let active = srv.write(&[b"survivor"], short_policy(1_000_000)).unwrap();
    for _ in 0..3 {
        srv.write(&[b"w2"], short_policy(50)).unwrap();
    }
    srv.write(&[b"anchor-hi"], short_policy(1_000_000)).unwrap();

    clock.advance(Duration::from_secs(60));
    srv.tick().unwrap();
    assert_eq!(srv.compact().unwrap(), 2);

    // Harvest both legitimate window proofs.
    let w1 = match srv.read(SerialNumber(2)).unwrap() {
        ReadOutcome::Deleted {
            evidence: DeletionEvidence::InWindow(w),
            ..
        } => w,
        other => panic!("expected window, got {other:?}"),
    };
    let w2 = match srv.read(SerialNumber(7)).unwrap() {
        ReadOutcome::Deleted {
            evidence: DeletionEvidence::InWindow(w),
            ..
        } => w,
        other => panic!("expected window, got {other:?}"),
    };
    assert_ne!(w1.window_id, w2.window_id);

    // Splice w1.lo with w2.hi: covers `active` numerically, but the hi
    // bound's signature was issued under w2's window id.
    let spliced = Mallory::new(&srv).splice_windows(&w1, &w2);
    assert!(spliced.contains(active));
    let malicious = Mallory::new(&srv)
        .claim_deleted(DeletionEvidence::InWindow(spliced))
        .unwrap();
    let rejected = Err(VerifyError::BadSignature("window bound"));
    assert_eq!(v.verify_read(active, &malicious), rejected);
    // One good bound, one bad: a verifier that has seen both windows and
    // the bounds checked one after the other say the same.
    let seen_both = verifier(&srv, clock.clone());
    for sn in [2, 7].map(SerialNumber) {
        let honest = srv.read(sn).unwrap();
        assert!(seen_both.verify_read(sn, &honest).is_ok());
    }
    assert_eq!(seen_both.verify_read(active, &malicious), rejected);
    assert_eq!(sequential_verdict(&srv, &v, active, &malicious), rejected);
}

/// Theorem 2: claiming an active record falls in a legitimate window that
/// does not actually contain it.
#[test]
fn wrong_window_evidence_is_detected() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    srv.write(&[b"anchor-lo"], short_policy(1_000_000)).unwrap();
    for _ in 0..3 {
        srv.write(&[b"short"], short_policy(50)).unwrap();
    }
    let active = srv.write(&[b"survivor"], short_policy(1_000_000)).unwrap();

    clock.advance(Duration::from_secs(60));
    srv.tick().unwrap();
    assert_eq!(srv.compact().unwrap(), 1);

    let w = match srv.read(SerialNumber(2)).unwrap() {
        ReadOutcome::Deleted {
            evidence: DeletionEvidence::InWindow(w),
            ..
        } => w,
        other => panic!("expected window, got {other:?}"),
    };
    let malicious = Mallory::new(&srv)
        .claim_deleted(DeletionEvidence::InWindow(w))
        .unwrap();
    assert_eq!(
        v.verify_read(active, &malicious),
        Err(VerifyError::EvidenceDoesNotCoverSn)
    );
}

/// The completeness invariant catches crude entry removal.
#[test]
fn dropped_vrdt_entry_breaks_completeness() {
    let (srv, _clock) = server();
    for i in 0..5u64 {
        srv.write(&[format!("r{i}").as_bytes()], short_policy(3600))
            .unwrap();
    }
    srv.refresh_head().unwrap();
    srv.vrdt().check_complete().unwrap();

    assert!(Mallory::new(&srv).drop_entry(SerialNumber(3)));
    assert_eq!(srv.vrdt().check_complete(), Err(SerialNumber(3)));
    // An honest read path cannot fabricate evidence for the hole.
    assert!(srv.read(SerialNumber(3)).is_err());
}

/// "Remembering" past retention is allowed by the model — resurrecting a
/// deleted record is NOT an integrity violation (§2.1: the focus is on
/// preventing Alice from rewriting history, not remembering it). The
/// interesting property: the resurrected copy verifies as data *but* the
/// legitimate deletion proof remains producible, so auditors can still
/// establish the record was due for deletion.
#[test]
fn resurrection_after_deletion_is_distinguishable() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    srv.write(&[b"anchor"], short_policy(1_000_000)).unwrap();
    let sn = srv.write(&[b"short-lived"], short_policy(50)).unwrap();

    // Capture the VRD before expiry (Alice "remembers" it).
    let captured = match srv.read(sn).unwrap() {
        ReadOutcome::Data { vrd, .. } => vrd,
        other => panic!("expected data, got {other:?}"),
    };

    clock.advance(Duration::from_secs(60));
    srv.tick().unwrap();
    let deleted = srv.read(sn).unwrap();
    assert!(matches!(
        v.verify_read(sn, &deleted).unwrap(),
        ReadVerdict::ConfirmedDeleted { .. }
    ));

    // Mallory resurrects the entry. The data itself was shredded, so the
    // resurrected VRD no longer matches the medium.
    Mallory::new(&srv).resurrect_entry(captured);
    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome),
        Err(VerifyError::DataHashMismatch)
    );
}
