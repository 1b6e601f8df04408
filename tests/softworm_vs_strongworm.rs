//! Head-to-head: the same insider attacks against soft-WORM (§3's
//! first-generation baseline) and Strong WORM. This is the paper's core
//! motivation (§1) as an executable comparison: soft-WORM *vouches for
//! forged state*, Strong WORM detects every manipulation.

mod common;

use std::time::Duration;

use common::{server, short_policy, verifier};
use scpu::VirtualClock;
use softworm::{attack, SoftWormError, SoftWormStore};
use strongworm::VerifyError;
use wormsim::Mallory;

const ORIGINAL: &[u8] = b"WIRE $1,000,000 TO ACCOUNT X-999 (CEO)";
const FORGED: &[u8] = b"WIRE $100 TO THE CHARITY FUND ACCOUNT";

#[test]
fn rewrite_attack_softworm_fooled_strongworm_detects() {
    // --- soft-WORM: the forgery passes the store's own integrity check.
    let mut soft = SoftWormStore::new(1 << 16, VirtualClock::new());
    let sid = soft
        .write(ORIGINAL, Duration::from_secs(1_000_000))
        .unwrap();
    assert!(attack::rewrite_history(&mut soft, sid, FORGED));
    let out = soft.read(sid).expect("soft-WORM serves the forgery");
    assert!(out.integrity_checked, "soft-WORM vouches for forged data");
    assert!(out.data.starts_with(b"WIRE $100"));

    // --- Strong WORM: the equivalent manipulation is detected.
    let (strong, clock) = server();
    let v = verifier(&strong, clock.clone());
    let sn = strong.write(&[ORIGINAL], short_policy(1_000_000)).unwrap();
    // Mallory rewrites the record bytes on the raw medium. She can also
    // rewrite anything else on the host — but not produce the SCPU's
    // signature over the new content.
    assert!(Mallory::new(&strong).corrupt_record_data(sn));
    assert_eq!(
        v.verify_read(sn, &strong.read(sn).unwrap()),
        Err(VerifyError::DataHashMismatch),
        "strong WORM detects the rewrite"
    );
}

#[test]
fn erase_attack_softworm_fooled_strongworm_detects() {
    // --- soft-WORM: full erasure leaves no contradiction.
    let mut soft = SoftWormStore::new(1 << 16, VirtualClock::new());
    soft.write(b"innocent", Duration::from_secs(1_000_000))
        .unwrap();
    let victim = soft
        .write(ORIGINAL, Duration::from_secs(1_000_000))
        .unwrap();
    assert!(attack::erase_history(&mut soft, victim));
    assert_eq!(
        soft.read(victim).unwrap_err(),
        SoftWormError::NotFound(victim),
        "soft-WORM has no evidence the record ever existed"
    );

    // --- Strong WORM: the fresh, timestamped head certificate proves the
    // serial number was issued; denial is caught (Theorem 2).
    let (strong, clock) = server();
    let v = verifier(&strong, clock.clone());
    let sn = strong.write(&[ORIGINAL], short_policy(1_000_000)).unwrap();
    strong.refresh_head().unwrap();
    let denial = Mallory::new(&strong).deny_existence().unwrap();
    assert_eq!(
        v.verify_read(sn, &denial),
        Err(VerifyError::HiddenRecord),
        "strong WORM proves the record exists"
    );
    // Even crude VRDT destruction cannot manufacture evidence.
    assert!(Mallory::new(&strong).drop_entry(sn));
    assert!(strong.read(sn).is_err());
    assert_eq!(strong.vrdt().check_complete(), Err(sn));
}

#[test]
fn early_deletion_softworm_only_software_checks_strongworm_needs_scpu() {
    // soft-WORM's retention check is a single `if` in attacker-controlled
    // software; erase_history simply goes around it.
    let mut soft = SoftWormStore::new(1 << 16, VirtualClock::new());
    let sid = soft
        .write(ORIGINAL, Duration::from_secs(1_000_000))
        .unwrap();
    assert_eq!(soft.delete(sid), Err(SoftWormError::RetentionActive(sid)));
    assert!(attack::erase_history(&mut soft, sid)); // bypassed

    // Strong WORM: only the SCPU's key `d` can mint deletion proofs, and
    // the Retention Monitor will not sign before the (SCPU-stamped)
    // retention deadline. A forged proof fails verification.
    let (strong, clock) = server();
    let v = verifier(&strong, clock.clone());
    let sn = strong.write(&[ORIGINAL], short_policy(1_000_000)).unwrap();
    strong.refresh_head().unwrap();
    let forged = Mallory::new(&strong).forge_deletion(sn);
    assert_eq!(
        v.verify_read(sn, &forged),
        Err(VerifyError::BadSignature("deletion proof"))
    );
}

#[test]
fn both_systems_serve_honest_workloads_identically() {
    // The comparison is only meaningful because the baseline works fine
    // under honest operation — its weakness is purely adversarial.
    let clock = VirtualClock::new();
    let mut soft = SoftWormStore::new(1 << 16, clock.clone());
    let sid = soft.write(ORIGINAL, Duration::from_secs(100)).unwrap();
    assert_eq!(&soft.read(sid).unwrap().data[..], ORIGINAL);
    clock.advance(Duration::from_secs(101));
    soft.delete(sid).unwrap();

    let (strong, sclock) = server();
    let v = verifier(&strong, sclock.clone());
    let sn = strong.write(&[ORIGINAL], short_policy(100)).unwrap();
    assert!(v.verify_read(sn, &strong.read(sn).unwrap()).is_ok());
    sclock.advance(Duration::from_secs(101));
    strong.tick().unwrap();
    assert!(v.verify_read(sn, &strong.read(sn).unwrap()).is_ok());
}
