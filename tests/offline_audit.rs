//! Offline audit: Bob verifies a seized store from its journal and raw
//! medium, trusting nothing but the SCPU's public keys.

mod common;

use std::time::Duration;

use common::{server, short_policy, verifier};
use strongworm::{audit_journal, VerifyError};
use wormsim::Mallory;
use wormstore::Journal;

/// Runs the offline audit against a server's current journal + medium.
fn run_audit(
    srv: &strongworm::WormServer,
    v: &strongworm::Verifier,
) -> strongworm::OfflineAuditReport {
    let journal = Journal::from_bytes(srv.vrdt().journal().as_bytes().to_vec());
    // Bob reads extents straight off the seized medium.
    let snapshot = srv.store().device().raw().to_vec();
    audit_journal(&journal, v, |rd| {
        let start = rd.offset as usize;
        let end = start + rd.len as usize;
        snapshot
            .get(start..end)
            .map(|s| bytes::Bytes::from(s.to_vec()))
    })
    .expect("journal structurally sound")
}

#[test]
fn honest_store_audits_clean() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    srv.write(&[b"anchor"], short_policy(1_000_000)).unwrap();
    for i in 0..5 {
        srv.write(&[format!("doc-{i}").as_bytes()], short_policy(1_000_000))
            .unwrap();
    }
    // Expire two and compact nothing (short run).
    let a = srv.write(&[b"short-a"], short_policy(50)).unwrap();
    let b = srv.write(&[b"short-b"], short_policy(50)).unwrap();
    clock.advance(Duration::from_secs(60));
    srv.tick().unwrap();
    srv.refresh_head().unwrap();

    let report = run_audit(&srv, &v);
    assert!(report.is_clean(), "failures: {:?}", report.failures);
    assert_eq!(report.verified, 6);
    assert_eq!(report.expired, 2);
    let _ = (a, b);
}

#[test]
fn audit_pinpoints_tampered_record() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    srv.write(&[b"fine-1"], short_policy(1_000_000)).unwrap();
    let victim = srv.write(&[b"target"], short_policy(1_000_000)).unwrap();
    srv.write(&[b"fine-2"], short_policy(1_000_000)).unwrap();
    srv.refresh_head().unwrap();

    assert!(Mallory::new(&srv).corrupt_record_data(victim));

    let report = run_audit(&srv, &v);
    assert_eq!(report.verified, 2);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].0, victim);
    assert_eq!(report.failures[0].1, VerifyError::DataHashMismatch);
}

#[test]
fn audit_pinpoints_dropped_entries_as_holes() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    for i in 0..4 {
        srv.write(&[format!("r{i}").as_bytes()], short_policy(1_000_000))
            .unwrap();
    }
    srv.refresh_head().unwrap();
    let gone = strongworm::SerialNumber(2);
    assert!(Mallory::new(&srv).drop_entry(gone));

    // Mallory also has to fake the journal; dropping the entry from the
    // in-memory table alone leaves the journal intact, so rebuild a
    // journal WITHOUT record 2's insert the way she would: replay and
    // filter. (Simplest faithful model: she hands Bob a journal whose
    // table recovers without sn 2 — we simulate by auditing her filtered
    // journal.)
    let original = Journal::from_bytes(srv.vrdt().journal().as_bytes().to_vec());
    let mut filtered = Journal::new();
    for (i, frame) in original.replay().enumerate() {
        // Frame 3 is sn 2's insert (boot writes head+base first).
        if i != 3 {
            filtered.append(&frame).expect("append");
        }
    }
    let snapshot = srv.store().device().raw().to_vec();
    let report = audit_journal(&filtered, &v, |rd| {
        let start = rd.offset as usize;
        snapshot
            .get(start..start + rd.len as usize)
            .map(|s| bytes::Bytes::from(s.to_vec()))
    })
    .unwrap();
    assert!(
        report.holes.contains(&gone),
        "holes: {:?}, failures: {:?}",
        report.holes,
        report.failures
    );
}

#[test]
fn audit_rejects_unreadable_extents() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    let sn = srv.write(&[b"record"], short_policy(1_000_000)).unwrap();
    srv.refresh_head().unwrap();
    let journal = Journal::from_bytes(srv.vrdt().journal().as_bytes().to_vec());
    // The medium is gone entirely (e.g., destroyed disk).
    let report = audit_journal(&journal, &v, |_| None).unwrap();
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].0, sn);
}

#[test]
fn audit_of_empty_store_is_clean() {
    let (srv, clock) = server();
    let v = verifier(&srv, clock.clone());
    srv.refresh_head().unwrap();
    let report = run_audit(&srv, &v);
    assert!(report.is_clean());
    assert_eq!(report.verified, 0);
}
