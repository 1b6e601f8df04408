//! The insider attack, end to end.
//!
//! The paper's threat model (§2.1): Alice stores a record, later regrets
//! it, and — now acting as Mallory, with superuser powers and physical
//! disk access — tries to rewrite history. This example walks Bob, the
//! federal investigator, through detecting every move.
//!
//! Run with: `cargo run --example insider_attack`

use std::error::Error;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::{Clock, VirtualClock};
use strongworm::{
    ReadVerdict, RegulatoryAuthority, RetentionPolicy, Verifier, VerifyError, WormConfig,
    WormServer,
};
use wormsim::Mallory;
use wormstore::Shredder;

fn main() -> Result<(), Box<dyn Error>> {
    let clock = VirtualClock::new();
    let mut rng = StdRng::seed_from_u64(3);
    let regulator = RegulatoryAuthority::generate(&mut rng, 512);
    let server = WormServer::new(WormConfig::test_small(), clock.clone(), regulator.public())?;
    let bob = Verifier::new(server.keys(), Duration::from_secs(300), clock.clone())?;

    // Alice legitimately stores b2 — and immediately regrets it.
    let policy =
        RetentionPolicy::custom(Duration::from_secs(6 * 365 * 24 * 3600), Shredder::ZeroFill);
    server.write(&[b"b1: ordinary memo"], policy)?;
    let b2 = server.write(&[b"b2: shred the Q3 numbers before the audit"], policy)?;
    server.refresh_head()?;
    println!("Alice stored {b2}; the SCPU witnessed it with metasig+datasig");

    // Attack 1: edit the bytes on the disk platter.
    let mallory = Mallory::new(&server);
    println!("\n[attack 1] Mallory edits the record bytes directly on the medium");
    assert!(mallory.corrupt_record_data(b2));
    match bob.verify_read(b2, &server.read(b2)?) {
        Err(VerifyError::DataHashMismatch) => {
            println!("  -> Bob: datasig does not cover these bytes. DETECTED");
        }
        other => panic!("unexpected: {other:?}"),
    }
    // Restore by flipping the byte back for the next scenarios.
    assert!(mallory.corrupt_record_data(b2));
    assert_eq!(
        bob.verify_read(b2, &server.read(b2)?)?,
        ReadVerdict::Intact { sn: b2 }
    );

    // Attack 2: shorten the retention period in the on-disk VRDT.
    println!("\n[attack 2] Mallory rewrites b2's retention to 'already expired'");
    let original_until = match server.read(b2)? {
        strongworm::ReadOutcome::Data { vrd, .. } => vrd.attr.retention_until,
        _ => unreachable!(),
    };
    mallory.edit_vrd(b2, |vrd| {
        vrd.attr.retention_until = scpu::Timestamp::from_millis(0);
    });
    match bob.verify_read(b2, &server.read(b2)?) {
        Err(VerifyError::BadSignature("metasig")) => {
            println!("  -> Bob: attributes fail metasig. DETECTED");
        }
        other => panic!("unexpected: {other:?}"),
    }
    mallory.edit_vrd(b2, |vrd| {
        vrd.attr.retention_until = original_until;
    });

    // Attack 3: claim b2 never existed.
    println!("\n[attack 3] Mallory answers 'no such record'");
    let denial = mallory.deny_existence().expect("head exists");
    match bob.verify_read(b2, &denial) {
        Err(VerifyError::HiddenRecord) => {
            println!("  -> Bob: the fresh head covers {b2}; denial is a lie. DETECTED");
        }
        other => panic!("unexpected: {other:?}"),
    }

    // Attack 4: replay yesterday's head (from before b2 was written).
    println!("\n[attack 4] Mallory replays a pre-b2 head certificate");
    let old_head = server.vrdt().head().unwrap().clone();
    clock.advance(Duration::from_secs(600)); // time passes; the head goes stale
    let replay = mallory.deny_existence_with_replayed_head(old_head);
    match bob.verify_read(b2, &replay) {
        Err(VerifyError::StaleHead { age_ms }) => {
            println!("  -> Bob: head is {age_ms} ms old, beyond tolerance. DETECTED");
        }
        other => panic!("unexpected: {other:?}"),
    }

    // Attack 5: forge a deletion proof.
    println!("\n[attack 5] Mallory fabricates a 'rightfully deleted' proof");
    server.refresh_head()?; // keep the head fresh for the evidence check
    let forged = mallory.forge_deletion(b2);
    match bob.verify_read(b2, &forged) {
        Err(VerifyError::BadSignature("deletion proof")) => {
            println!("  -> Bob: only the SCPU's deletion key d can sign that. DETECTED");
        }
        other => panic!("unexpected: {other:?}"),
    }

    // Through it all, the honest record still verifies.
    assert_eq!(
        bob.verify_read(b2, &server.read(b2)?)?,
        ReadVerdict::Intact { sn: b2 }
    );
    println!(
        "\nb2 remains verifiably intact at t={} — history was not rewritten",
        clock.now()
    );
    Ok(())
}
