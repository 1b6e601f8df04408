//! # strongworm — Strong WORM compliance storage
//!
//! A Rust reproduction of *"Strong WORM"* (Radu Sion, ICDCS 2008): a
//! Write-Once-Read-Many storage layer that enforces regulatory data
//! retention against *insiders with superuser powers and physical disk
//! access*, by anchoring all trust in a secure coprocessor that witnesses
//! every update.
//!
//! ## Architecture
//!
//! ```text
//!   clients ──verify──▶ SCPU-signed statements
//!      ▲                        ▲
//!      │ read / proofs          │ signs (metasig, datasig, head, base,
//!      │                        │        windows, deletion proofs)
//!   [WormServer]  ──commands──▶ [scpu::Device + firmware::WormFirmware]
//!   untrusted host              trusted enclosure (slow, small)
//!      │
//!   [wormstore] record store + VRDT journal (untrusted disks)
//! ```
//!
//! * [`WormServer`] — the untrusted host: record store, VRDT, command
//!   channel. Reads never touch the SCPU (§4.1).
//! * [`ShardedWormServer`] — the deployment: N ≥ 1 `WormServer` lanes,
//!   one SCPU each, over a partitioned SN space; what a network
//!   front-end serves. One server is the one-lane case.
//! * [`firmware::WormFirmware`] — the certified logic inside the device:
//!   serial-number issuing, witnessing, the Retention Monitor, window
//!   management, litigation holds, deferred-strength signing.
//! * [`Verifier`] — the client: checks every read against the public
//!   keys of the SCPU whose lane issued it and a fresh head certificate.
//!
//! The threat model's insider and the power-cut sweep live outside the
//! product, in the `wormsim` crate the tests and `worm-bench` use.
//!
//! ## Quickstart
//!
//! ```
//! use std::time::Duration;
//! use rand::SeedableRng;
//! use scpu::VirtualClock;
//! use strongworm::{
//!     RegulatoryAuthority, RetentionPolicy, Verifier, WormConfig, WormServer, ReadVerdict,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let clock = VirtualClock::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let regulator = RegulatoryAuthority::generate(&mut rng, 512);
//! let mut server = WormServer::new(WormConfig::test_small(), clock.clone(), regulator.public())?;
//!
//! let policy = RetentionPolicy::custom(Duration::from_secs(3600), wormstore::Shredder::ZeroFill);
//! let sn = server.write(&[b"quarterly report"], policy)?;
//!
//! let client = Verifier::new(server.keys(), Duration::from_secs(300), clock)?;
//! let outcome = server.read(sn)?;
//! assert_eq!(client.verify_read(sn, &outcome)?, ReadVerdict::Intact { sn });
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod attr;
pub mod authority;
pub mod codec;
pub mod daemon;
pub mod firmware;
pub mod offline;
pub mod policy;
pub mod proofs;
pub mod vrd;
pub mod vrdt;
pub mod witness;

mod client;
mod config;
mod error;
mod server;
mod sn;

pub use authority::{CertificateAuthority, HoldCredential, RegulatoryAuthority, ReleaseCredential};
pub use client::{ReadVerdict, Verifier};
pub use config::{HashMode, WitnessMode, WormConfig};
pub use daemon::{DaemonConfig, RetentionDaemon};
pub use error::{VerifyError, WormError};
pub use offline::{audit_journal, OfflineAuditReport};
pub use policy::{Regulation, RetentionPolicy};
pub use proofs::{CompositeBinding, CompositeHead, DeletionEvidence, ReadOutcome};
pub use server::{ReadPlane, RecordWrite, ShardedWormServer, WitnessPlane, WormServer};
pub use sn::{SerialNumber, MAX_SHARDS, SHARD_LANE_BITS};
pub use vrd::Vrd;
pub use vrdt::RecoveryStats;
/// The canonical wire encoding (one implementation, in `wormcrypt`).
pub use wormcrypt::wire;
