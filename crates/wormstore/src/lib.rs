//! # wormstore — storage substrate
//!
//! The untrusted half of the Strong WORM architecture lives on ordinary
//! rewritable magnetic disks — that is exactly why the paper needs a
//! trusted witness. This crate provides that substrate:
//!
//! * [`BlockDevice`] with [`MemDisk`] / [`FileDisk`] implementations and a
//!   [`DiskProfile`] latency model (the paper's closing point is that
//!   3–4 ms disk accesses, not the WORM layer, bound real deployments);
//! * [`RecordStore`] — extent allocation, record read/write, recycling;
//! * [`Shredder`] — the media shredding disciplines invoked on secure
//!   deletion (Table 1's `shredding algorithm` attribute);
//! * [`Journal`] — crash-safe framing for the host-side VRDT.
//!
//! Everything here is *untrusted*: devices expose raw mutation
//! ([`MemDisk::raw_mut`]) precisely so adversarial tests can model the
//! insider with physical disk access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

mod block;
mod journal;
mod record;
mod shred;
mod store;

pub use block::{
    read_bytes, BlockDevice, BlockError, DiskProfile, FileDisk, IoStats, MemDisk, Partition,
};
pub use journal::{crc32, DiskJournal, DurableLog, Journal, JournalError, Replay, MAX_ENTRY_LEN};
pub use record::{RecordDescriptor, RecordId};
pub use shred::Shredder;
pub use store::{RecordStore, StoreError, StoreLifetime};
