//! End-to-end audit plane: integrity events chain in the journal, the
//! SCPU anchors the chain tip on tick, and an auditor replaying a
//! fetched page against the published keys detects any tamper.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{server, short_policy};
use strongworm::{DaemonConfig, RetentionDaemon, ShardedWormServer, WormConfig, WormServer};
use wormaudit::{verify_chain, AuditClass};
use wormstore::Journal;

#[test]
fn boot_emits_head_refresh_and_tick_anchors() {
    let (srv, _clock) = server();
    // Boot published the initial head: the chain is already non-empty.
    let audit = srv.audit();
    assert!(audit.height() > 0);
    let before = audit.last_anchor_seq();
    assert_eq!(before, None, "nothing anchored before the first tick");

    srv.tick().unwrap();
    let page = audit.page(0, 4096);
    assert!(page
        .events
        .iter()
        .any(|e| e.class == AuditClass::HeadRefresh));
    let report = verify_chain(&page, &[srv.keys().sign.clone()]);
    assert!(report.is_clean(), "{:?}", report.divergence);
    assert_eq!(report.unattested_tail, 0, "tick must anchor the tip");
    assert!(report.verified_anchors >= 1);
}

#[test]
fn lifecycle_events_land_in_the_chain() {
    let (srv, clock) = server();
    // An anchor record keeps the base from advancing past the ephemeral
    // one, so its deletion runs the shred path.
    srv.write(&[b"anchor"], short_policy(1_000_000)).unwrap();
    srv.write(&[b"ephemeral"], short_policy(60)).unwrap();
    clock.advance(Duration::from_secs(61));
    srv.tick().unwrap();

    let page = srv.audit().page(0, 4096);
    let classes: Vec<AuditClass> = page.events.iter().map(|e| e.class).collect();
    assert!(
        classes.contains(&AuditClass::ShredComplete),
        "expired record's shred must be audited, got {classes:?}"
    );
    // The tick crossed the head heartbeat interval too.
    assert!(
        classes.contains(&AuditClass::HeadRemint) || classes.contains(&AuditClass::HeadRefresh),
        "freshness maintenance must be audited, got {classes:?}"
    );
    let report = verify_chain(&page, &[srv.keys().sign.clone()]);
    assert!(report.is_clean(), "{:?}", report.divergence);
    assert_eq!(report.unattested_tail, 0);
}

#[test]
fn tampered_journal_entry_is_detected_by_replay() {
    let (srv, _clock) = server();
    srv.write(&[b"rec"], short_policy(1_000)).unwrap();
    srv.tick().unwrap();
    let audit = srv.audit();
    let clean = verify_chain(&audit.page(0, 4096), &[srv.keys().sign.clone()]);
    assert!(clean.is_clean());

    // A dishonest host edits an already-served journal entry in place.
    audit.tamper_event_for_test(0);
    let report = verify_chain(&audit.page(0, 4096), &[srv.keys().sign.clone()]);
    let divergence = report.divergence.expect("tamper must surface");
    assert_eq!(divergence.seq, 0);
}

/// A read the host cannot serve is audited where it fails, so the
/// tracing kill switch — a diagnostics knob — cannot silence it.
#[test]
fn failed_reads_are_promoted_into_the_chain() {
    let (srv, _clock) = server();
    let sn = srv.write(&[b"evidence"], short_policy(10_000)).unwrap();
    srv.refresh_head().unwrap();
    srv.trace().set_enabled(false);
    // A dishonest host erases the record's table entry: the SN is at or
    // below the signed head, so no honest evidence exists for it.
    {
        let (mut vrdt, _store) = srv.parts_mut_for_attack();
        assert!(vrdt.entries_mut_for_attack().remove(&sn).is_some());
    }
    let before = srv.audit().height();
    assert!(srv.read(sn).is_err());
    let page = srv.audit().page(before, 4096);
    assert!(
        page.events
            .iter()
            .any(|e| e.class == AuditClass::VerifyFailure && e.sn == Some(sn.0)),
        "got {:?}",
        page.events
    );
    // Instruments, and only instruments, stayed off.
    assert_eq!(srv.stats_snapshot().op("server.read").unwrap().total(), 0);
}

/// Retention enforcement stopping is audited by the daemon itself.
#[test]
fn daemon_give_up_lands_in_the_chain_with_tracing_off() {
    let (srv, _clock) = server();
    let srv = Arc::new(srv);
    srv.trace().set_enabled(false);
    let daemon = RetentionDaemon::spawn(
        Arc::clone(&srv),
        DaemonConfig {
            interval: Duration::from_millis(2),
            max_backoff: Duration::from_millis(5),
            max_consecutive_failures: 3,
            ..DaemonConfig::default()
        },
    );
    let before = srv.audit().height();
    srv.tamper_device(scpu::TamperCause::Penetration);
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.is_running() {
        assert!(Instant::now() < deadline, "daemon never hit its limit");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(daemon.stop().is_err());
    let page = srv.audit().page(before, 4096);
    let give_ups = page
        .events
        .iter()
        .filter(|e| e.class == AuditClass::RetentionGiveUp)
        .count();
    assert_eq!(give_ups, 1, "got {:?}", page.events);
}

#[test]
fn torn_tail_recovery_is_audited_and_the_chain_still_anchors() {
    let (srv, clock) = server();
    srv.write(&[b"committed"], short_policy(10_000)).unwrap();
    srv.write(&[b"torn-away"], short_policy(10_000)).unwrap();

    // Crash with the journal torn mid-entry; the resumed server starts
    // a fresh audit chain whose first events record the incident.
    let (device, store, journal) = srv.into_parts();
    let mut torn = Journal::from_bytes(journal.as_bytes().to_vec());
    torn.truncate_tail(40);
    let srv = WormServer::resume(device, store, torn, WormConfig::test_small(), clock).unwrap();

    let page = srv.audit().page(0, 4096);
    let classes: Vec<AuditClass> = page.events.iter().map(|e| e.class).collect();
    assert!(
        classes.contains(&AuditClass::RecoveryTornTail),
        "torn-tail recovery must be audited, got {classes:?}"
    );
    srv.tick().unwrap();
    let report = verify_chain(&srv.audit().page(0, 4096), &[srv.keys().sign.clone()]);
    assert!(report.is_clean(), "{:?}", report.divergence);
    assert_eq!(report.unattested_tail, 0);
}

#[test]
fn sharded_deployment_shares_one_chain_across_lanes() {
    let clock = scpu::VirtualClock::starting_at_millis(1_000_000);
    let srv = ShardedWormServer::new(
        WormConfig::test_small(),
        clock.clone(),
        common::regulator().public(),
        3,
    )
    .unwrap();

    // Boot alone emitted per-lane head refreshes into the one journal.
    let audit = srv.audit();
    let refreshes = audit
        .page(0, 4096)
        .events
        .iter()
        .filter(|e| e.class == AuditClass::HeadRefresh)
        .count();
    assert!(refreshes >= 3, "every lane chains into the shared journal");

    srv.tick().unwrap();
    // Anchors may come from any lane's SCPU; the auditor holds the full
    // key set.
    let keys: Vec<_> = srv.shard_keys().into_iter().map(|(k, _)| k.sign).collect();
    let report = verify_chain(&audit.page(0, 4096), &keys);
    assert!(report.is_clean(), "{:?}", report.divergence);
    assert_eq!(report.unattested_tail, 0);

    // A single shard's key alone cannot vouch for every anchor if
    // another lane anchored — but the full set always can, and the
    // chain itself still links.
    let snap = srv.stats_snapshot();
    assert!(snap.counter("audit.emitted") > 0);
    assert_eq!(snap.counter("audit.anchored") as usize, {
        verify_chain(&audit.page(0, 4096), &keys).verified_anchors
    });
}
