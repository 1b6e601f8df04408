//! Shared fixtures for the integration suites.

// Each integration binary compiles this module independently and uses a
// different subset of the fixtures.
#![allow(dead_code)]

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::VirtualClock;
use strongworm::proofs::{DeletionEvidence, ReadOutcome};
use strongworm::vrd::data_chain_hash;
use strongworm::witness::{data_payload, meta_payload, window_payload, WindowSide, Witness};
use strongworm::{
    ReadVerdict, RegulatoryAuthority, RetentionPolicy, SerialNumber, Verifier, VerifyError,
    WormConfig, WormServer,
};
use wormstore::{BlockDevice, MemDisk, Partition, Shredder};

/// One shared regulator (keygen is the slow part of the fixtures).
pub fn regulator() -> &'static RegulatoryAuthority {
    static REG: OnceLock<RegulatoryAuthority> = OnceLock::new();
    REG.get_or_init(|| RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(0xFE6), 512))
}

/// A booted small-key server with its virtual clock.
pub fn server() -> (WormServer, Arc<VirtualClock>) {
    server_with(WormConfig::test_small())
}

/// A booted server with a custom configuration.
pub fn server_with(config: WormConfig) -> (WormServer, Arc<VirtualClock>) {
    let clock = VirtualClock::starting_at_millis(1_000_000);
    let server = WormServer::new(config, clock.clone(), regulator().public())
        .expect("server boots with small keys");
    (server, clock)
}

/// A crash-atomic server: its VRDT journal is a region of its medium.
pub type DurableServer = WormServer<Partition<Arc<MemDisk>>>;

/// The journal region of [`durable_with`]'s medium.
pub const JOURNAL_BYTES: u64 = 1 << 15;

/// A booted crash-atomic server with a custom configuration, on a fresh
/// in-memory medium of 128 KiB, and the medium itself.
pub fn durable_with(config: WormConfig) -> (DurableServer, Arc<MemDisk>, Arc<VirtualClock>) {
    let clock = VirtualClock::starting_at_millis(1_000_000);
    let disk = Arc::new(MemDisk::unmetered(1 << 17));
    let server = WormServer::with_durable(
        Arc::clone(&disk),
        JOURNAL_BYTES,
        config,
        clock.clone(),
        regulator().public(),
    )
    .expect("durable server boots with small keys");
    (server, disk, clock)
}

/// The host stops and comes back: only the battery-backed SCPU and the
/// medium survive `server`.
pub fn restart(
    server: DurableServer,
    disk: &Arc<MemDisk>,
    config: WormConfig,
    clock: Arc<VirtualClock>,
) -> DurableServer {
    let device = server.into_parts().0;
    WormServer::recover_durable(Arc::clone(disk), JOURNAL_BYTES, device, config, clock)
        .map_err(|(e, _)| e)
        .expect("recovery succeeds")
}

/// A verifier wired to `server`'s permanent keys and the weak-key
/// certificates its SCPU answers now.
pub fn verifier<D: BlockDevice>(server: &WormServer<D>, clock: Arc<VirtualClock>) -> Verifier {
    let mut v = Verifier::new(server.keys(), Duration::from_secs(300), clock).expect("keys");
    for cert in server.weak_certs().expect("device answers") {
        v.add_weak_cert(cert).expect("weak cert chains");
    }
    v
}

/// A short-retention policy convenient for expiry tests.
pub fn short_policy(secs: u64) -> RetentionPolicy {
    RetentionPolicy::custom(Duration::from_secs(secs), Shredder::ZeroFill)
}

/// The widths the paper runs at: 1024-bit permanent keys — whose lone
/// signatures, not only pairs, a client checks in lanes where the CPU has
/// them (512-bit keys take lanes for pairs alone) — and 512-bit short-lived
/// ones.
pub fn paper_widths() -> WormConfig {
    WormConfig {
        strong_bits: 1024,
        weak_bits: 512,
        ..WormConfig::test_small()
    }
}

/// What checking an answer's signatures one after the other says, each with
/// `Signature::verify` (one number to a pass; `wormcrypt`'s own tests hold
/// that to the scalar engine) and nothing remembered in between: the
/// definition a [`Verifier`]'s pair path and memos are held to, written
/// against the public payload builders. Covers
/// what carries two signatures — a data answer under strong witnesses and
/// window evidence; `fresh` lends its head check.
pub fn sequential_verdict(
    server: &WormServer,
    fresh: &Verifier,
    requested: SerialNumber,
    outcome: &ReadOutcome,
) -> Result<ReadVerdict, VerifyError> {
    let keys = server.keys();
    fresh.check_head(outcome.head())?;
    match outcome {
        ReadOutcome::Data { vrd, records, .. } => {
            if vrd.sn != requested {
                return Err(VerifyError::WrongSerialNumber);
            }
            let (Witness::Strong(metasig), Witness::Strong(datasig)) = (&vrd.metasig, &vrd.datasig)
            else {
                panic!("the oracle covers strong witnesses, got {vrd:?}")
            };
            if !metasig.verify(&keys.sign, &meta_payload(vrd.sn, &vrd.attr.encode())) {
                return Err(VerifyError::BadSignature("metasig"));
            }
            let chain = data_chain_hash(records.iter().map(|r| r.as_ref()));
            if !datasig.verify(&keys.sign, &data_payload(vrd.sn, &chain)) {
                return Err(VerifyError::DataHashMismatch);
            }
            Ok(ReadVerdict::Intact { sn: vrd.sn })
        }
        ReadOutcome::Deleted {
            evidence: DeletionEvidence::InWindow(w),
            ..
        } => {
            if !w.contains(requested) {
                return Err(VerifyError::EvidenceDoesNotCoverSn);
            }
            let lo = window_payload(w.window_id, w.lo, WindowSide::Lower);
            let hi = window_payload(w.window_id, w.hi, WindowSide::Upper);
            if !w.lo_sig.verify(&keys.sign, &lo) || !w.hi_sig.verify(&keys.sign, &hi) {
                return Err(VerifyError::BadSignature("window bound"));
            }
            Ok(ReadVerdict::ConfirmedDeleted { deleted_at: None })
        }
        other => panic!("the oracle covers pairs of signatures, got {other:?}"),
    }
}
