//! # wormsim — the paper's insider, as test rigs
//!
//! Theorems 1 and 2 are claims against the insider of §2.1: superuser
//! powers on the host and physical access to its disks. This crate
//! models that insider for the integration tests and for `worm-bench`;
//! no product crate depends on it.
//!
//! * [`Mallory`] — superuser edits of a live server's state, and the
//!   forged answers she would serve instead of honest ones.
//! * [`TornDisk`] — a medium that loses power at an exact write
//!   boundary, tearing the write in flight per [`CutStyle`].
//! * [`Torture`] — the power-cut rig: boots a durable server on a
//!   `TornDisk`, runs a lifecycle [`Scenario`], cuts, recovers through
//!   [`Torture::recover`] and checks the Theorem 1/2 invariants.
//! * [`occurrences`] — the one raw-medium scan.
//!
//! Everything is deterministically seeded, so a failing cut point
//! replays bit-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
mod mallory;
mod powerfail;

pub use disk::{CutPlan, CutStyle, TornDisk};
pub use mallory::Mallory;
pub use powerfail::{
    is_power_cut, occurrences, CutOutcome, CutRange, Recovered, Scenario, TornMedium, TornServer,
    Torture, TortureError,
};

/// xorshift64* — the rigs' deterministic mixer, independent of the
/// `rand` stand-in so torn bytes and record patterns are stable across
/// the workspace.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}
