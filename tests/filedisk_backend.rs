//! End-to-end over a file-backed disk: the WORM layer is substrate-
//! agnostic, and shredding physically reaches the file.

mod common;

use std::time::Duration;

use common::{regulator, short_policy};
use scpu::VirtualClock;
use strongworm::{ReadVerdict, Verifier, WormConfig, WormServer};
use wormsim::occurrences;
use wormstore::{DiskProfile, FileDisk, RecordStore};

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("strongworm-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn full_lifecycle_on_file_backed_disk() {
    let path = temp_path("lifecycle.img");
    let clock = VirtualClock::starting_at_millis(1_000_000);
    let cfg = WormConfig::test_small();
    let disk = FileDisk::create(&path, cfg.store_capacity as u64, DiskProfile::free())
        .expect("create disk file");
    let srv = WormServer::with_store(
        RecordStore::new(disk),
        cfg,
        clock.clone(),
        regulator().public(),
    )
    .expect("boot on file disk");
    let v = Verifier::new(srv.keys(), Duration::from_secs(300), clock.clone()).unwrap();

    srv.write(&[b"anchor"], short_policy(1_000_000)).unwrap();
    let sn = srv
        .write(
            &[b"SECRET-MARKER-0xDEAD file-backed record"],
            short_policy(60),
        )
        .unwrap();
    let outcome = srv.read(sn).unwrap();
    assert_eq!(
        v.verify_read(sn, &outcome).unwrap(),
        ReadVerdict::Intact { sn }
    );

    // The plaintext is physically in the file while retained...
    let raw = std::fs::read(&path).unwrap();
    assert!(occurrences(&raw, b"SECRET-MARKER-0xDEAD") > 0);

    // ...and physically gone after retention + shredding.
    clock.advance(Duration::from_secs(70));
    srv.tick().unwrap();
    assert_eq!(srv.read(sn).unwrap().kind(), "deleted");
    let raw = std::fs::read(&path).unwrap();
    assert_eq!(
        occurrences(&raw, b"SECRET-MARKER-0xDEAD"),
        0,
        "shredding must reach the backing file"
    );

    std::fs::remove_file(&path).ok();
}
