//! SEC Rule 17a-4 broker-dealer email archive.
//!
//! The paper's motivating workload: a financial firm must retain all
//! business communications for six years on WORM storage. Mornings bring
//! ingest bursts far above the SCPU's full-strength signing rate, so the
//! archive uses the deferred-strength scheme (§4.3): 512-bit witnesses in
//! the burst, strengthened to 1024-bit during the overnight idle window.
//!
//! Run with: `cargo run --release --example sec17a4_email_archive`

use std::error::Error;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::{Clock, CostModel, VirtualClock};
use strongworm::{
    HashMode, ReadVerdict, RegulatoryAuthority, RetentionPolicy, Verifier, WitnessMode, WormConfig,
    WormServer,
};

fn main() -> Result<(), Box<dyn Error>> {
    let clock = VirtualClock::new();
    let mut rng = StdRng::seed_from_u64(1);
    let regulator = RegulatoryAuthority::generate(&mut rng, 512);

    // Production-shaped config: real IBM 4764 cost model, burst hashing
    // trusted to the host (audited later), deferred witnesses by default.
    let mut config = WormConfig::test_small();
    config.device.cost_model = CostModel::ibm4764();
    config.hash_mode = HashMode::TrustHostHash;
    config.default_witness = WitnessMode::Deferred;
    config.store_capacity = 32 << 20;
    let archive = WormServer::new(config, clock.clone(), regulator.public())?;
    let mut compliance_officer =
        Verifier::new(archive.keys(), Duration::from_secs(300), clock.clone())?;
    // Weak witnesses verify under the certificates the SCPU answers.
    for cert in archive.weak_certs()? {
        compliance_officer.add_weak_cert(cert)?;
    }

    // --- Morning burst: 500 emails arrive in minutes -----------------------
    let mut sns = Vec::new();
    for i in 0..500 {
        let body = format!(
            "From: trader{}@firm.example\nSubject: order ticket {i}\n\nBUY 100 XYZ @ 42.00",
            i % 7
        );
        let attachment = format!("ticket-{i}.pdf-bytes");
        let sn = archive.write(
            &[body.as_bytes(), attachment.as_bytes()],
            RetentionPolicy::sec17a4(),
        )?;
        sns.push(sn);
    }
    let burst_scpu_ms = archive.device_meter().busy_ns() as f64 / 1e6;
    println!(
        "burst: 500 emails witnessed in {:.0} ms of SCPU time ({:.0} emails/s burst rate)",
        burst_scpu_ms,
        500.0 / (burst_scpu_ms / 1000.0)
    );

    // During the burst records carry weak witnesses; clients can already
    // verify them (512-bit is safe for ~2 hours).
    let outcome = archive.read(sns[0])?;
    assert_eq!(
        compliance_officer.verify_read(sns[0], &outcome)?,
        ReadVerdict::Intact { sn: sns[0] }
    );
    println!("compliance spot-check during burst: weak witness verifies");

    // --- Overnight idle: strengthening + hash audits ------------------------
    let pending = archive.firmware_for_test().pending_strengthen();
    println!("overnight: {pending} witnesses queued for strengthening");
    clock.advance(Duration::from_secs(60 * 60));
    while archive.firmware_for_test().pending_strengthen() > 0 {
        // Grant the SCPU idle time in 100 ms slices, as a real scheduler
        // would between night-time requests.
        archive.idle(100_000_000)?;
    }
    println!("overnight: backlog strengthened to 1024-bit permanent signatures");
    assert!(
        archive.audit_failures().is_empty(),
        "host hashes audited clean"
    );

    // Weak-key rotations may have certified new keys: ask the SCPU.
    for cert in archive.weak_certs()? {
        compliance_officer.add_weak_cert(cert)?;
    }

    // Six months later the SEC examines a sample — strengthened witnesses
    // verify long after the weak lifetime lapsed.
    clock.advance(Duration::from_secs(180 * 24 * 3600));
    for &sn in &[sns[0], sns[250], sns[499]] {
        let outcome = archive.read(sn)?;
        assert_eq!(
            compliance_officer.verify_read(sn, &outcome)?,
            ReadVerdict::Intact { sn }
        );
    }
    println!("SEC exam at +6 months: sampled records verify as intact");

    // --- Six years later: retention elapses --------------------------------
    clock.advance(Duration::from_secs(6 * 365 * 24 * 3600));
    archive.tick()?;
    archive.compact()?;
    let outcome = archive.read(sns[100])?;
    assert!(matches!(
        compliance_officer.verify_read(sns[100], &outcome)?,
        ReadVerdict::ConfirmedDeleted { .. }
    ));
    println!(
        "after 6y retention: records provably deleted; VRDT holds {} entries + {} windows at t={}",
        archive.vrdt().resident_entries(),
        archive.vrdt().resident_windows(),
        clock.now(),
    );
    Ok(())
}
