//! The concurrent read plane.
//!
//! §4.1/§4.2.2: reads are served "at full throughput, with main CPU
//! cycles only" — no SCPU round-trip. The read plane owns *shared* handles
//! to the VRDT and the record store and serves any number of reader
//! threads through `&self`; the witness plane mutates the same structures
//! behind its own serialization.
//!
//! Consistency: a reader resolves a serial number and copies the record
//! bytes out **while holding the VRDT read lock**. The witness plane
//! expires an entry under the write lock *before* shredding its extents,
//! so a reader that observed `Active` is guaranteed un-shredded bytes, and
//! a reader arriving after expiry gets the deletion proof — never torn
//! state. That copy (device → the caller's buffer) is the one copy a read
//! makes here: everything else — the head, the VRD, the evidence — is
//! presented by reference under the same guard, not cloned.

use std::sync::Arc;
use std::time::Duration;

use scpu::{Clock, Timestamp};
use wormstore::{BlockDevice, RecordStore};
use wormtrace::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::WormError;
use crate::proofs::{HeadCert, Resolved};
use crate::sn::SerialNumber;
use crate::vrdt::{Lookup, Vrdt};

/// Outcome of a read-plane attempt: either presented from host state,
/// or blocked on evidence only the witness plane can refresh.
pub(crate) enum ReadStep<R> {
    /// Resolved and presented entirely from shared host state.
    Done(R),
    /// The head certificate is missing or older than the refresh
    /// interval; the witness plane must refresh it before the retry.
    StaleHead,
    /// The SN is below the base but the base certificate has expired; the
    /// witness plane must re-issue it before evidence can be assembled.
    /// Carries the head certificate, cloned under the same read lock.
    NeedFreshBase(HeadCert),
}

/// The lock-shared, SCPU-free half of the server (see module docs).
pub struct ReadPlane<D: BlockDevice> {
    vrdt: Arc<RwLock<Vrdt>>,
    store: Arc<RecordStore<D>>,
    clock: Arc<dyn Clock>,
    head_refresh_interval: Duration,
}

impl<D: BlockDevice> ReadPlane<D> {
    pub(crate) fn new(
        vrdt: Arc<RwLock<Vrdt>>,
        store: Arc<RecordStore<D>>,
        clock: Arc<dyn Clock>,
        head_refresh_interval: Duration,
    ) -> Self {
        ReadPlane {
            vrdt,
            store,
            clock,
            head_refresh_interval,
        }
    }

    /// The shared record store.
    pub fn store(&self) -> &RecordStore<D> {
        &self.store
    }

    /// Read access to the shared VRDT. The guard blocks witness-plane
    /// mutations while held — keep it short-lived.
    pub fn vrdt(&self) -> RwLockReadGuard<'_, Vrdt> {
        self.vrdt.read()
    }

    /// Write access to the shared VRDT (adversarial test hook).
    pub(crate) fn vrdt_write(&self) -> RwLockWriteGuard<'_, Vrdt> {
        self.vrdt.write()
    }

    /// Whether evidence issued at `issued_at` is older than the refresh
    /// interval.
    pub(crate) fn stale(&self, issued_at: Timestamp) -> bool {
        self.clock.now().since(issued_at) > self.head_refresh_interval
    }

    /// Whether the head certificate is missing or older than the refresh
    /// interval. A cheap probe to decide if the witness plane must be
    /// consulted before serving freshness evidence (reads make the same
    /// check inside [`ReadPlane::resolve`], under its one guard).
    pub fn head_stale(&self) -> bool {
        self.vrdt
            .read()
            .head()
            .is_none_or(|h| self.stale(h.issued_at))
    }

    /// Resolves `sn` once, under one VRDT read guard, and hands what it
    /// found to `present` by reference, still under that guard: nothing
    /// is cloned on the way, and for an active record `present` copies
    /// the bytes out under the guard that proved it active.
    ///
    /// `head_refreshed` says the caller has just been through the
    /// witness plane for [`ReadStep::StaleHead`]; the head is then
    /// served as it stands.
    pub(crate) fn resolve<R>(
        &self,
        sn: SerialNumber,
        head_refreshed: bool,
        present: &mut impl FnMut(Resolved<'_>, &HeadCert) -> Result<R, WormError>,
    ) -> Result<ReadStep<R>, WormError> {
        let vrdt = self.vrdt.read();
        let head = vrdt.head();
        if !head_refreshed && head.is_none_or(|h| self.stale(h.issued_at)) {
            return Ok(ReadStep::StaleHead);
        }
        // The facade installs a head at boot, but this path is reachable
        // from remote requests: if the head is absent (failed lazy
        // refresh after a device tamper, or a hostile caller racing
        // recovery) the request must fail, never take the server down.
        let head = head.ok_or_else(|| {
            WormError::Firmware("no head certificate installed; freshness refresh failed".into())
        })?;
        let resolved = match vrdt.lookup(sn) {
            Lookup::Active(v) => Resolved::Data(v),
            Lookup::Expired(p) => Resolved::Proof(p),
            Lookup::InWindow(w) => Resolved::InWindow(w),
            Lookup::BelowBase => match vrdt.base() {
                Some(b) if b.expires_at > self.clock.now() => Resolved::BelowBase(b),
                _ => return Ok(ReadStep::NeedFreshBase(head.clone())),
            },
            Lookup::Unknown if sn > head.sn_current => Resolved::NeverExisted,
            // A hole at or below the head means the VRDT was corrupted
            // out-of-band; an honest server cannot produce evidence for
            // it.
            Lookup::Unknown => {
                return Err(WormError::Firmware(format!(
                    "vrdt has no entry or window for {sn} at or below the head"
                )))
            }
        };
        present(resolved, head).map(ReadStep::Done)
    }
}
