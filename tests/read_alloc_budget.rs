//! Allocation budget of a hot verified read over the wire.
//!
//! A memo-warm read of a hot record allocates nothing on the server (the
//! response is written in place into the connection's output buffer, its
//! spans into the worker thread's reused trace) and only what the decoded
//! outcome holds on the client (the request is written in place too, the
//! response frame is a view of the reused receive buffer) — with the
//! instruments off and with the server as it boots. Timing in CI is noise; a count of allocator
//! calls repeats, so it is the guard.
//!
//! This is its own test binary because it installs a counting global
//! allocator, and it holds a single test so nothing else allocates
//! while it counts.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::short_policy;
use strongworm::{ReadVerdict, SerialNumber, WormConfig};
use wormnet::{NetRequest, NetResponse, NetServer, NetServerConfig, RemoteWormClient};

/// Calls that obtain or resize memory (`alloc`, `alloc_zeroed`,
/// `realloc`), process-wide. Frees are not counted: each pairs with one
/// of these.
static ALLOCATOR_CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counter is a
// plain atomic and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATOR_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl's comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATOR_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl's comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATOR_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl's comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; see the impl's comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HOT_RECORDS: usize = 64;
const RECORD_BYTES: usize = 4096;
const DEPTH: usize = 32;
const READS: usize = 1_000;
/// Allocator calls one hot verified read may cost, server and client
/// together: what it costs, plus one. Measured: 5.04, all on the client
/// thread and all five the decoded outcome's own vectors (the VRD's
/// descriptor list, its two signatures, the record list, the head's
/// signature), plus the receive buffer's refcount once per `read(2)`,
/// which brings in half a window. The request is written in place into
/// a reused output buffer and the response frame is a view of the
/// reused receive buffer, so neither allocates; the server allocates
/// nothing. The same loop cost 62 (32 + 30) before responses were
/// written in place and verified reads memoised, and 10 while each
/// request had its own encoding and each frame its own buffer — both of
/// which this budget now fails.
const BUDGET_PER_READ: u64 = 6;

/// Reads `sns` round-robin, `reads` times, through a pipeline kept
/// `DEPTH` deep, verifying every response.
fn pipelined_verified_reads(
    client: &mut RemoteWormClient,
    verifier: &strongworm::Verifier,
    sns: &[SerialNumber],
    reads: usize,
) {
    let mut asked = sns.iter().cycle();
    let mut answered = sns.iter().cycle();
    let mut pipe = client.pipeline(DEPTH);
    let mut check = |resp: NetResponse| {
        let sn = *answered.next().unwrap();
        match resp {
            NetResponse::Outcome(outcome) => assert_eq!(
                verifier.verify_read(sn, &outcome),
                Ok(ReadVerdict::Intact { sn })
            ),
            other => panic!("expected an outcome for {sn}, got {other:?}"),
        }
    };
    for _ in 0..reads {
        let sn = *asked.next().unwrap();
        if let Some(resp) = pipe.send(&NetRequest::Read { sn }).unwrap() {
            check(resp);
        }
    }
    while let Some(resp) = pipe.recv().unwrap() {
        check(resp);
    }
}

/// Allocator calls over `READS` hot verified reads, after a warm-up in
/// which every record is verified in full once and then from the memo
/// and both sides' buffers grow to the window's size.
fn calls_over_hot_reads(
    client: &mut RemoteWormClient,
    verifier: &strongworm::Verifier,
    sns: &[SerialNumber],
) -> u64 {
    pipelined_verified_reads(client, verifier, sns, 4 * HOT_RECORDS);
    let before = ALLOCATOR_CALLS.load(Ordering::Relaxed);
    pipelined_verified_reads(client, verifier, sns, READS);
    ALLOCATOR_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn a_hot_verified_wire_read_stays_within_its_allocation_budget() {
    let (server, clock) = common::server_with(WormConfig {
        store_capacity: 4 * HOT_RECORDS * RECORD_BYTES,
        ..WormConfig::test_small()
    });
    let server = Arc::new(server);
    let net = NetServer::bind(
        Arc::clone(&server),
        "127.0.0.1:0",
        NetServerConfig {
            workers: 1,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let mut client = RemoteWormClient::connect(net.local_addr()).unwrap();
    let verifier = client
        .bootstrap_verifier(Duration::from_secs(300), clock)
        .unwrap();
    let sns: Vec<SerialNumber> = (0..HOT_RECORDS)
        .map(|i| {
            let record = vec![i as u8; RECORD_BYTES];
            client.write(&[&record], short_policy(1_000_000)).unwrap()
        })
        .collect();

    // As `wire_read_hot` runs: instruments off, one worker.
    server.trace().set_enabled(false);
    let quiet = calls_over_hot_reads(&mut client, &verifier, &sns);
    // As `wire_read_hot_observed` runs, and as the server boots: every
    // request traced, timed and offered to the flight recorder.
    server.trace().set_enabled(true);
    let booted = calls_over_hot_reads(&mut client, &verifier, &sns);
    net.shutdown();

    let per_read = |calls: u64| calls as f64 / READS as f64;
    println!(
        "allocator calls per read over {READS} reads: {:.2} quiet, {:.2} as booted",
        per_read(quiet),
        per_read(booted)
    );
    assert!(
        quiet <= BUDGET_PER_READ * READS as u64,
        "{:.2} allocator calls per hot verified read, budget {BUDGET_PER_READ}",
        per_read(quiet)
    );
    assert!(
        booted.abs_diff(quiet) <= READS as u64,
        "observing a read costs allocations: {:.2} calls per read as booted, {:.2} quiet",
        per_read(booted),
        per_read(quiet)
    );
}
