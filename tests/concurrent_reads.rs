//! Concurrency stress: the read plane serves many reader threads while a
//! writer commits new records and the retention daemon deletes expired
//! ones in the background.
//!
//! This is the acceptance test for the two-plane split: reads are `&self`
//! end-to-end, at least two readers are provably inside the read path at
//! the same instant, and *every* outcome observed under full contention
//! verifies against the SCPU's keys — concurrent shredding never exposes
//! a torn record (readers hold the VRDT read lock across store reads, and
//! the witness plane expires an entry before shredding its extents). Half
//! the readers come in over the wire, where the record is copied from the
//! store straight into the connection's output buffer under that same
//! guard: they too get intact bytes or a deletion proof, never shredded
//! bytes.

mod common;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use common::{server, short_policy, verifier};
use strongworm::{DaemonConfig, RetentionDaemon, SerialNumber};
use wormnet::{NetServer, NetServerConfig, RemoteWormClient};

/// Reader threads; the odd-numbered ones read over the wire.
const READERS: usize = 4;
const READS_PER_THREAD: usize = 1500;
const WRITES: usize = 60;

#[test]
fn readers_writer_and_daemon_all_verify() {
    let (srv, clock) = server();
    let srv = Arc::new(srv);
    let v = Arc::new(verifier(&srv, clock.clone()));

    // Seed records the readers can always hit: a long-lived anchor plus a
    // batch of short-retention records the daemon will delete mid-test.
    let mut seeded = vec![srv.write(&[b"anchor"], short_policy(1_000_000)).unwrap()];
    for i in 0..8u64 {
        let body = format!("seed-{i}");
        seeded.push(srv.write(&[body.as_bytes()], short_policy(60)).unwrap());
    }
    let seeded = Arc::new(seeded);
    let written = Arc::new(Mutex::new(Vec::<SerialNumber>::new()));

    // ---- Overlap proof (deterministic, core-count independent) --------
    //
    // One thread camps on the read path's shared lock — the same
    // `RwLock<Vrdt>` read guard every `read` acquires — while the main
    // thread completes full verified reads through it. If the read plane
    // serialized readers behind an exclusive lock, these reads could not
    // finish until the guard dropped, and the camper refuses to drop it
    // until they have: ≥ 2 readers were in the read path simultaneously.
    {
        let reads_done = Arc::new(AtomicUsize::new(0));
        let camper = {
            let srv = srv.clone();
            let reads_done = reads_done.clone();
            let entered = Arc::new(Barrier::new(2));
            let entered_main = entered.clone();
            let h = std::thread::spawn(move || {
                let _guard = srv.vrdt();
                entered.wait();
                while reads_done.load(Ordering::SeqCst) < 10 {
                    std::thread::yield_now();
                }
            });
            entered_main.wait();
            h
        };
        for i in 0..10 {
            let sn = seeded[i % seeded.len()];
            let outcome = srv.read(sn).unwrap();
            v.verify_read(sn, &outcome).unwrap();
            reads_done.fetch_add(1, Ordering::SeqCst);
        }
        camper.join().expect("camper thread panicked");
    }

    // ---- Full-contention stress --------------------------------------
    let daemon = RetentionDaemon::spawn(
        srv.clone(),
        DaemonConfig {
            interval: Duration::from_millis(2),
            idle_budget_ns: 500_000_000,
            compact_every: 3,
            ..DaemonConfig::default()
        },
    );

    let net = NetServer::bind(srv.clone(), "127.0.0.1:0", NetServerConfig::default()).unwrap();
    let addr = net.local_addr();

    let stop_writer = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(READERS + 1));

    let writer = {
        let srv = srv.clone();
        let written = written.clone();
        let stop = stop_writer.clone();
        std::thread::spawn(move || {
            for i in 0..WRITES {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let body = format!("live-{i}");
                let secs = if i % 3 == 0 { 50 } else { 1_000_000 };
                let sn = srv.write(&[body.as_bytes()], short_policy(secs)).unwrap();
                written.lock().unwrap().push(sn);
                std::thread::yield_now();
            }
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let srv = srv.clone();
            let v = v.clone();
            let seeded = seeded.clone();
            let written = written.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let mut wire = (t % 2 == 1).then(|| RemoteWormClient::connect(addr).unwrap());
                start.wait();
                for i in 0..READS_PER_THREAD {
                    // Rotate over seeded records, whatever the writer has
                    // published so far, and one provably absent serial.
                    let sn = match i % 3 {
                        0 => seeded[(t + i) % seeded.len()],
                        1 => {
                            let w = written.lock().unwrap();
                            match w.get((t + i) % (w.len() + 1)) {
                                Some(&sn) => sn,
                                None => seeded[0],
                            }
                        }
                        _ => SerialNumber(9_999),
                    };
                    let outcome = match &mut wire {
                        Some(client) => client.read_raw(sn).unwrap(),
                        None => srv.read(sn).unwrap(),
                    };
                    // Every outcome served under contention must verify.
                    v.verify_read(sn, &outcome).unwrap_or_else(|e| {
                        panic!("reader {t} iteration {i}: {sn} failed verification: {e:?}")
                    });
                }
            })
        })
        .collect();

    start.wait();
    // Let the threads contend, then expire the short-retention records so
    // the daemon shreds them *while reads are in flight*. The window is
    // short: warm-path reads are fast enough that the readers can finish
    // their full quota within tens of milliseconds.
    std::thread::sleep(Duration::from_millis(10));
    clock.advance(Duration::from_secs(61));

    for r in readers {
        r.join().expect("reader thread panicked");
    }
    stop_writer.store(true, Ordering::Relaxed);
    writer.join().expect("writer thread panicked");

    // The short-retention seeds really were deleted out from under the
    // readers (so the run exercised concurrent shredding) and yet every
    // read verified above. The daemon runs on its own cadence, so give
    // it a bounded grace period to complete a pass after the clock
    // advance before declaring the expiry missing.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let expired = loop {
        let deleted = seeded[1..]
            .iter()
            .filter(|&&sn| srv.read(sn).unwrap().kind() == "deleted")
            .count();
        if deleted > 0 || std::time::Instant::now() > deadline {
            break deleted;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    daemon.stop().unwrap();
    net.shutdown();
    assert!(expired > 0, "no record expired during the stress window");
}
