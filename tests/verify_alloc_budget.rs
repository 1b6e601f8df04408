//! Allocation budget of a verified read that misses both of the
//! verifier's memos.
//!
//! A cold read — a record the verifier has not checked — is hashed in a
//! reused per-thread buffer, checked against its digest in place, and
//! stored by overwriting one slot of each memo, so the verifier's share of
//! it is the first fill of the slots it lands in: on the lanes the RSA
//! engine's numbers are fixed arrays. Timing in CI is noise; a count of allocator calls repeats,
//! so it is the guard.
//!
//! This is its own test binary because it installs a counting global
//! allocator, and it holds a single test so nothing else allocates
//! while it counts.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use common::{paper_widths, server_with, short_policy, verifier};
use strongworm::{ReadOutcome, ReadVerdict, SerialNumber, WormConfig};

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

const RECORDS: usize = 96;
const RECORD_BYTES: usize = 1024;
/// Allocator calls one memo-miss verified read may cost the verifier, at
/// the paper's widths (both witnesses checked in one pass of the lanes
/// where the CPU has them): what it costs, plus one. Measured: 6.98 in a
/// fresh verifier — two for the first signature each of two
/// signature-memo slots holds, five for the first record a record-memo
/// slot holds (its VRD's descriptor list and two signatures, the record
/// list and the record), less two where an earlier read had filled the
/// slot. The RSA engine allocates nothing on the lanes: each signature's
/// value and each lane's result are fixed arrays. Payload, digest,
/// encoding and memo key allocate nothing; once a slot is filled, a later
/// read overwrites it in place, so a verifier in its steady state
/// (`wire_read_cold`) allocates nothing there. The same loop cost 35.12
/// while payloads and memo keys were built in vectors, the encoding was
/// compared as bytes, and a memo entry was a fresh clone, and 10.98 while
/// the engine built a `Ubig` for each signature and a `Vec` for each
/// lane's result.
const BUDGET_PER_READ: u64 = 8;

/// Allocator calls over one verification of each of `outcomes`.
fn calls_over(verifier: &strongworm::Verifier, outcomes: &[(SerialNumber, ReadOutcome)]) -> u64 {
    let before = ALLOCATOR_CALLS.load(Ordering::Relaxed);
    for (sn, outcome) in outcomes {
        assert_eq!(
            verifier.verify_read(*sn, outcome),
            Ok(ReadVerdict::Intact { sn: *sn })
        );
    }
    ALLOCATOR_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn a_memo_miss_verified_read_stays_within_its_allocation_budget() {
    let (server, clock) = server_with(WormConfig {
        store_capacity: 2 * RECORDS * RECORD_BYTES,
        ..paper_widths()
    });
    let outcomes: Vec<(SerialNumber, ReadOutcome)> = (0..RECORDS)
        .map(|i| {
            let record = vec![i as u8; RECORD_BYTES];
            server.write(&[&record], short_policy(1_000_000)).unwrap()
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|sn| (sn, server.read(sn).unwrap()))
        .collect();
    let verifier = verifier(&server, clock);
    // Every outcome carries the head of after the last write; its check,
    // and the per-thread payload buffer's first growth, come before the
    // count.
    verifier.check_head(outcomes[0].1.head()).unwrap();

    let cold = calls_over(&verifier, &outcomes);
    // The same reads again hit the record memo: nothing is allocated.
    let warm = calls_over(&verifier, &outcomes);

    let per_read = |calls: u64| calls as f64 / RECORDS as f64;
    println!(
        "allocator calls per verified read over {RECORDS} reads: {:.2} missing both memos, {:.2} hitting them",
        per_read(cold),
        per_read(warm)
    );
    assert!(
        cold <= BUDGET_PER_READ * RECORDS as u64,
        "{:.2} allocator calls per memo-miss verified read, budget {BUDGET_PER_READ}",
        per_read(cold)
    );
    assert_eq!(warm, 0, "a memo hit allocates");
}
