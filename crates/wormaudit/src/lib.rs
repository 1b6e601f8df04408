//! # wormaudit — the tamper-evident integrity event plane
//!
//! The Strong WORM guarantees are only as strong as an operator's
//! ability to *see* integrity-relevant events: a verify failure, a
//! torn-tail rollback, or a retention daemon giving up is invisible
//! unless a client happens to error at the right moment. This crate
//! gives every security-relevant event a durable, tamper-evident
//! record:
//!
//! * [`AuditEvent`] — one sequence-numbered, timestamped event of an
//!   [`AuditClass`], carrying the hash of its predecessor so the
//!   journal forms a hash chain (any mutation breaks the link to the
//!   next event).
//! * [`AuditLog`] — a bounded, thread-safe journal the serving planes
//!   emit into. Eviction never breaks verifiability of what remains:
//!   the retained suffix still chains, and the oldest retained event's
//!   `prev_hash` commits to the evicted prefix.
//! * [`AuditAnchor`] — an SCPU signature over the chain tip
//!   (`wormaudit.anchor.v1` payload), minted through the witness plane
//!   the same way head certificates are. The audit log thereby inherits
//!   the tamper-evidence of the records it describes: rewriting any
//!   anchored event requires forging an RSA signature.
//! * [`codec`] — the canonical `wormaudit.events.v1` page encoding
//!   served by the wire opcode `FetchAuditEvents`.
//! * [`verify_chain`] — the auditor-side replay: recompute every link,
//!   check every anchor signature, report the first divergence.
//!
//! Events are emitted where the fact is known — the read that failed
//! verification, the acceptor that shed a connection, the daemon that
//! gave up — by a direct [`AuditLog::emit`] call. The chain has no off
//! switch: neither the diagnostics kill switch nor anything else the
//! host can set silences it.
//!
//! Layering: this crate sits below `strongworm`/`wormnet` (which emit
//! into it and anchor it) and depends only on `wormcrypt` (hashing,
//! signature verification, the canonical wire encoding) and
//! `wormtrace` (counters, poison-tolerant locking). Signature *minting*
//! stays inside the SCPU firmware; this crate only defines the payload
//! being signed and verifies the result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod codec;
mod event;
mod log;
pub mod verify;

pub use event::{anchor_payload, AuditAnchor, AuditClass, AuditEvent, ALL_CLASSES};
pub use log::{AuditLog, AuditPage, DEFAULT_ANCHOR_CAPACITY, DEFAULT_JOURNAL_CAPACITY};
pub use verify::{verify_chain, ChainDivergence, ChainReport};
