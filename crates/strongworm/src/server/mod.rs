//! The untrusted host ("main CPU") side of the architecture.
//!
//! [`WormServer`] follows the paper's division of labour exactly — the
//! SCPU witnesses *updates* (writes, deletions, litigation changes),
//! while *reads* are served from host state alone (§4.1 "Small Trusted
//! Computing Base") — and realizes it as two planes:
//!
//! * [`ReadPlane`]: shared handles to the VRDT (behind a reader-writer
//!   lock) and the record store; serves any number of concurrent reader
//!   threads through `&self` with no SCPU involvement.
//! * [`WitnessPlane`]: owns the SCPU device and all update-path
//!   bookkeeping; serialized behind a mutex (the device channel is serial
//!   anyway).
//!
//! The facade's entire API is `&self`, so a `WormServer` can be shared
//! across threads directly (e.g. `Arc<WormServer>` with a background
//! [`crate::daemon::RetentionDaemon`]) — readers proceed while the
//! witness plane writes, deletes, and strengthens in the background.
//!
//! Nothing in this module is trusted. A dishonest host can mutate any of
//! this state (`wormsim`'s `Mallory` does); the guarantee is that clients
//! detect it.

mod read_plane;
mod shard;
mod witness;

pub use read_plane::ReadPlane;
pub use shard::ShardedWormServer;
pub use witness::WitnessPlane;

use std::sync::Arc;

use scpu::{Clock, Device, Meter};
use wormaudit::{AuditClass, AuditLog};
use wormcrypt::RsaPublicKey;
use wormstore::{
    BlockDevice, DiskJournal, DurableLog, MemDisk, Partition, RecordDescriptor, RecordStore,
};
use wormtrace::sync::{Mutex, MutexGuard, Rank, RwLock, RwLockReadGuard, RwLockWriteGuard};
use wormtrace::Plane;

use crate::codec::put_read_outcome;
use crate::config::{WitnessMode, WormConfig};
use crate::error::WormError;
use crate::firmware::{
    DeviceKeys, FirmwareConfig, WeakKeyCert, WormFirmware, WormRequest, WormResponse,
};
use crate::policy::RetentionPolicy;
use crate::proofs::{CompositeBinding, HeadCert, ReadOutcome, Resolved};
use crate::sn::SerialNumber;
use crate::vrdt::Vrdt;
use crate::wire::WireWriter;

use read_plane::ReadStep;
use witness::{execute, unexpected};

/// Lane 0's handles a deployment's lane ≥ 1 boots with: its own
/// `shard{i}.` handle into lane 0's registry, and lane 0's journal.
type LaneZero = (Arc<wormtrace::Registry>, Arc<AuditLog>);

/// One write of a run for [`WormServer::write_many`] and
/// [`ShardedWormServer::write_many`]: what [`WormServer::write_with`]
/// takes.
#[derive(Clone, Copy, Debug)]
pub struct RecordWrite<'a> {
    /// The data records of the virtual record, in order.
    pub records: &'a [&'a [u8]],
    /// Retention policy for the record.
    pub policy: RetentionPolicy,
    /// Free-form flag bits stored in `attr`.
    pub flags: u32,
    /// Witness tier.
    pub witness: WitnessMode,
}

/// The verdict of a run of one.
fn only(mut results: Vec<Result<SerialNumber, WormError>>) -> Result<SerialNumber, WormError> {
    results
        .pop()
        .unwrap_or_else(|| Err(WormError::Firmware("a write got no verdict".into())))
}

/// The WORM storage server: a concurrent [`ReadPlane`] plus a serialized
/// [`WitnessPlane`] behind one `&self` facade (see module docs).
pub struct WormServer<D: BlockDevice = MemDisk> {
    keys: DeviceKeys,
    read_plane: ReadPlane<D>,
    witness: Mutex<WitnessPlane<D>>,
    trace: Arc<wormtrace::Registry>,
    audit: Arc<AuditLog>,
    ops: ServerOps,
}

/// Facade-level instrument handles, resolved once at assembly so the
/// hot read path records through pure atomics (no registry lookups).
struct ServerOps {
    read: Arc<wormtrace::OpStats>,
    read_slow_path: Arc<wormtrace::Counter>,
    write: Arc<wormtrace::OpStats>,
    lit_hold: Arc<wormtrace::OpStats>,
    lit_release: Arc<wormtrace::OpStats>,
    tick: Arc<wormtrace::OpStats>,
    idle: Arc<wormtrace::OpStats>,
    compact: Arc<wormtrace::OpStats>,
    compact_store: Arc<wormtrace::OpStats>,
}

impl ServerOps {
    fn new(trace: &wormtrace::Registry) -> Self {
        ServerOps {
            read: trace.op("server.read"),
            read_slow_path: trace.counter("server.read_slow_path"),
            write: trace.op("server.write"),
            lit_hold: trace.op("server.lit_hold"),
            lit_release: trace.op("server.lit_release"),
            tick: trace.op("server.tick"),
            idle: trace.op("server.idle"),
            compact: trace.op("server.compact"),
            compact_store: trace.op("server.compact_store"),
        }
    }
}

impl WormServer<MemDisk> {
    /// Boots a server over an in-memory, unmetered disk.
    ///
    /// # Errors
    ///
    /// Propagates device failures during key generation.
    pub fn new(
        config: WormConfig,
        clock: Arc<dyn Clock>,
        regulator: &RsaPublicKey,
    ) -> Result<Self, WormError> {
        let store = RecordStore::new(MemDisk::unmetered(config.store_capacity));
        Self::with_store(store, config, clock, regulator)
    }
}

impl<D: BlockDevice> WormServer<D> {
    /// Boots a server over a caller-supplied record store.
    ///
    /// # Errors
    ///
    /// Propagates device failures during key generation.
    pub fn with_store(
        store: RecordStore<D>,
        config: WormConfig,
        clock: Arc<dyn Clock>,
        regulator: &RsaPublicKey,
    ) -> Result<Self, WormError> {
        Self::boot(store, config, clock, regulator, None, None)
    }

    /// Shared boot path: initializes the SCPU, wires the planes, and
    /// publishes the initial head and base. `lane0` is what a
    /// deployment's lane ≥ 1 records into: its handle into lane 0's
    /// registry and lane 0's journal (see [`ShardedWormServer`]).
    ///
    /// When a durable journal `sink` is supplied it is attached to the
    /// fresh VRDT *before* assembly — the head/base refresh below already
    /// journals frames, and a sink attached afterwards could never see
    /// them (its tail only moves backward).
    fn boot(
        store: RecordStore<D>,
        config: WormConfig,
        clock: Arc<dyn Clock>,
        regulator: &RsaPublicKey,
        sink: Option<Box<dyn DurableLog>>,
        lane0: Option<LaneZero>,
    ) -> Result<Self, WormError> {
        let firmware = WormFirmware::new(FirmwareConfig {
            strong_bits: config.strong_bits,
            weak_bits: config.weak_bits,
            weak_lifetime: config.weak_lifetime,
            head_refresh_interval: config.head_refresh_interval,
            base_cert_lifetime: config.base_cert_lifetime,
            min_compaction_run: config.min_compaction_run,
            sn_origin: config.sn_origin,
        });
        let mut device = Device::new(firmware, config.device.clone(), clock.clone());
        execute(
            &mut device,
            WormRequest::Init {
                regulator: regulator.clone(),
            },
        )?;
        let keys = match execute(&mut device, WormRequest::GetKeys)? {
            WormResponse::Keys(k, _) => k,
            other => return Err(unexpected(other)),
        };
        let mut vrdt = Vrdt::new();
        if let Some(sink) = sink {
            vrdt.attach_sink(sink)?;
        }
        let server = Self::assemble(vrdt, store, device, keys, config, clock, 0x4057, lane0);
        // Publish the initial head and base so clients always have
        // freshness evidence.
        {
            let mut w = server.witness.lock();
            w.refresh_head()?;
            w.refresh_base()?;
        }
        Ok(server)
    }

    /// Wires the two planes around the shared VRDT and store, and
    /// attaches the server's trace registry to the device so SCPU
    /// commands record their virtual-time cost alongside the host
    /// planes' wall-clock timings.
    ///
    /// A standalone server (lane 0) creates the registry and its audit
    /// journal; a deployment's lane ≥ 1 records into lane 0's (`lane0`).
    #[expect(
        clippy::too_many_arguments,
        reason = "one-time assembly wiring; bundling the handles would just move the list (same shape as `WitnessPlane::new`)"
    )]
    fn assemble(
        vrdt: Vrdt,
        store: RecordStore<D>,
        mut device: Device<WormFirmware>,
        keys: DeviceKeys,
        config: WormConfig,
        clock: Arc<dyn Clock>,
        rng_seed: u64,
        lane0: Option<LaneZero>,
    ) -> Self {
        let (trace, audit) = lane0.unwrap_or_else(|| {
            let trace = Arc::new(wormtrace::Registry::new());
            let audit_clock = Arc::clone(&clock);
            let audit = Arc::new(AuditLog::new(
                wormaudit::DEFAULT_JOURNAL_CAPACITY,
                &trace,
                Box::new(move || audit_clock.now().as_millis()),
            ));
            (trace, audit)
        });
        device.attach_trace(Arc::clone(&trace));
        let recovery = vrdt.recovery_stats();
        trace.counter("recovery.replayed").add(recovery.replayed);
        trace
            .counter("recovery.torn_tail")
            .add(u64::from(recovery.torn_tail));
        if recovery.torn_tail {
            audit.emit(
                AuditClass::RecoveryTornTail,
                None,
                "crash recovery discarded a torn journal tail",
            );
        }
        let ops = ServerOps::new(&trace);
        let vrdt = Arc::new(RwLock::new(Rank::Vrdt, vrdt));
        let store = Arc::new(store);
        let read_plane = ReadPlane::new(
            Arc::clone(&vrdt),
            Arc::clone(&store),
            clock.clone(),
            config.head_refresh_interval,
        );
        let witness = WitnessPlane::new(
            config,
            clock,
            device,
            vrdt,
            store,
            rng_seed,
            &trace,
            Arc::clone(&audit),
        );
        WormServer {
            keys,
            read_plane,
            witness: Mutex::new(Rank::Witness, witness),
            trace,
            audit,
            ops,
        }
    }

    /// The server's trace registry: per-op latency histograms and
    /// outcome counters, subsystem counters/gauges, and the flight
    /// recorder. Handed to the retention daemon and network layer so
    /// the whole stack reports into one snapshot. A deployment's lane
    /// ≥ 1 holds a handle into lane 0's, naming under `shard{i}.`.
    pub fn trace(&self) -> &Arc<wormtrace::Registry> {
        &self.trace
    }

    /// The tamper-evident integrity-event journal (see `wormaudit`):
    /// hash-chained, sequence-numbered, periodically anchored by an SCPU
    /// signature over the chain tip during [`WormServer::tick`].
    pub fn audit(&self) -> &Arc<AuditLog> {
        &self.audit
    }

    /// Forces an SCPU anchor over the current audit-chain tip (normally
    /// done lazily by [`WormServer::tick`]). No-op when the tip is
    /// already anchored.
    ///
    /// # Errors
    ///
    /// Device or firmware failures.
    pub fn anchor_audit(&self) -> Result<(), WormError> {
        self.witness.lock().anchor_audit()
    }

    /// A point-in-time, name-sorted copy of every instrument in the
    /// registry this server records into (for a deployment's lane, the
    /// deployment's).
    pub fn stats_snapshot(&self) -> wormtrace::StatsSnapshot {
        self.trace.snapshot()
    }

    /// Decomposes the server into the parts that survive a host restart:
    /// the battery-backed secure device (keys, serial counter, VEXP) and
    /// the on-disk record store and VRDT journal. A restart needs only the
    /// device: [`WormServer::recover_durable`] reads the rest back from the
    /// medium. The benchmark harness destructures all three parts, so the
    /// store and journal stay in the tuple until it stops doing so.
    ///
    /// # Panics
    ///
    /// Panics if shared handles to the planes' state still exist outside
    /// this server (impossible through the public API).
    #[expect(
        clippy::unreachable,
        reason = "see \"# Panics\": unreachable through the public API, and leaking a live VRDT or store handle across a restart boundary must halt, not limp"
    )]
    pub fn into_parts(self) -> (Device<WormFirmware>, RecordStore<D>, wormstore::Journal) {
        let WormServer {
            read_plane,
            witness,
            ..
        } = self;
        // Both planes hold the only two handles to the shared state; drop
        // the read plane's so the witness plane's unwrap cleanly.
        drop(read_plane);
        let (device, vrdt, store) = witness.into_inner().into_shared_parts();
        let vrdt = Arc::try_unwrap(vrdt)
            .unwrap_or_else(|_| unreachable!("read plane dropped; sole VRDT handle remains"))
            .into_inner();
        let store = Arc::try_unwrap(store)
            .unwrap_or_else(|_| unreachable!("read plane dropped; sole store handle remains"));
        let journal = wormstore::Journal::from_bytes(vrdt.journal().as_bytes().to_vec());
        (device, store, journal)
    }

    /// The device's permanent public keys, read once at assembly: they
    /// never change.
    pub fn keys(&self) -> &DeviceKeys {
        &self.keys
    }

    /// The device's live weak-key certificates, the current one last,
    /// asked of the SCPU on each call: the host holds no copy.
    ///
    /// # Errors
    ///
    /// Device failures.
    pub fn weak_certs(&self) -> Result<Vec<WeakKeyCert>, WormError> {
        self.witness.lock().weak_certs()
    }

    /// The concurrent read plane (shared VRDT + store handles).
    pub fn read_plane(&self) -> &ReadPlane<D> {
        &self.read_plane
    }

    /// Read access to the host-side VRDT (tests and tools). The returned
    /// guard blocks witness-plane mutations while held.
    pub fn vrdt(&self) -> RwLockReadGuard<'_, Vrdt> {
        self.read_plane.vrdt()
    }

    /// SCPU virtual-time meter snapshot (benchmarks).
    pub fn device_meter(&self) -> Meter {
        self.witness.lock().device.meter().clone()
    }

    /// Host-side virtual-time meter snapshot (benchmarks).
    pub fn host_meter(&self) -> Meter {
        self.witness.lock().host_meter.clone()
    }

    /// Zeroes both cost meters and the store's I/O statistics.
    pub fn reset_meters(&self) {
        let mut w = self.witness.lock();
        w.device.reset_meter();
        w.host_meter.reset();
        w.store.device().reset_stats();
    }

    /// The record store (I/O statistics, capacity).
    pub fn store(&self) -> &RecordStore<D> {
        self.read_plane.store()
    }

    /// Records flagged by SCPU audits of trust-host-hash writes.
    pub fn audit_failures(&self) -> Vec<SerialNumber> {
        self.witness.lock().audit_failures.clone()
    }

    /// Number of active records whose expiry the SCPU does not hold —
    /// spilled at write time, or not re-armed since recovery — awaiting
    /// re-arming from their signed attributes at an idle with room.
    pub fn spilled_vexp(&self) -> usize {
        self.witness.lock().spilled_vexp()
    }

    /// Writes a virtual record grouping `records` under `policy`,
    /// using the configured default witness tier.
    ///
    /// # Errors
    ///
    /// Store, device, or firmware failures.
    pub fn write(
        &self,
        records: &[&[u8]],
        policy: RetentionPolicy,
    ) -> Result<SerialNumber, WormError> {
        let witness = self.witness.lock().config.default_witness;
        self.write_with(records, policy, 0, witness)
    }

    /// Writes with an explicit witness tier and flag bits (§4.2.2 Write,
    /// §4.3 deferred strength).
    ///
    /// # Errors
    ///
    /// Store, device, or firmware failures.
    pub fn write_with(
        &self,
        records: &[&[u8]],
        policy: RetentionPolicy,
        flags: u32,
        witness: WitnessMode,
    ) -> Result<SerialNumber, WormError> {
        only(self.write_many(&[RecordWrite {
            records,
            policy,
            flags,
            witness,
        }]))
    }

    /// Writes a run of virtual records in one SCPU command: serial
    /// numbers in run order, each write witnessed, journaled and answered
    /// exactly as [`Self::write_with`] would have done it alone, and up to
    /// two writes' four signatures in one pass of the lane engine. Every
    /// write is one sample of `server.write`, timed over the run.
    pub fn write_many(&self, writes: &[RecordWrite<'_>]) -> Vec<Result<SerialNumber, WormError>> {
        let observed = self
            .trace
            .observe(&self.ops.write, "server.write", Plane::Witness);
        let results = self.witness.lock().write_many(writes);
        let first = results.first();
        let elapsed = observed.finish(
            first.is_some_and(Result::is_ok),
            first.and_then(|r| r.as_ref().ok()).map(|sn| sn.0),
        );
        if let Some(ns) = elapsed {
            for r in results.iter().skip(1) {
                self.ops.write.record(ns, r.is_ok());
            }
        }
        results
    }

    /// Reads a record by serial number — main-CPU cycles only (§4.2.2),
    /// concurrent with other readers and with witness-plane maintenance.
    ///
    /// The witness plane is consulted only when freshness evidence has
    /// gone stale (head certificate older than the refresh interval, or
    /// an expired base certificate); in a busy store the continuous
    /// updates keep both fresh for free and reads never serialize.
    ///
    /// # Errors
    ///
    /// Device failures (only on lazy freshness refresh), store failures,
    /// or an internally inconsistent VRDT.
    pub fn read(&self, sn: SerialNumber) -> Result<ReadOutcome, WormError> {
        let store = self.store();
        self.read_with(sn, |resolved, head| {
            let records = match resolved {
                Resolved::Data(vrd) => vrd.rdl.iter().map(|rd| store.read(rd)).collect(),
                _ => Ok(Vec::new()),
            };
            Ok(resolved.to_outcome(head, records?))
        })
    }

    /// [`WormServer::read`] for a serving path: writes the outcome's
    /// canonical encoding — byte for byte what
    /// [`encode_read_outcome_into`](crate::codec::encode_read_outcome_into)
    /// writes for the [`ReadOutcome`] — straight into `w`, with no owned
    /// outcome in between. The VRD, the evidence and the head are
    /// encoded from the table by reference and each record is copied
    /// once, store to `w`.
    ///
    /// # Errors
    ///
    /// As [`WormServer::read`]; `w` is then exactly as it was.
    pub fn read_into(&self, sn: SerialNumber, w: &mut WireWriter) -> Result<(), WormError> {
        let store = self.store();
        self.read_with(sn, |resolved, head| {
            put_read_outcome(w, resolved, head, |w, vrd| {
                w.put_count(vrd.rdl.len());
                for rd in &vrd.rdl {
                    w.try_put_bytes_with(rd.len, |dst| {
                        store.read_into(rd, dst).map_err(WormError::from)
                    })?;
                }
                Ok(())
            })
        })
    }

    /// One read, observed and audited: resolves `sn` and lets `present`
    /// turn what the read plane found into the caller's result, under
    /// the guard that found it.
    fn read_with<R>(
        &self,
        sn: SerialNumber,
        mut present: impl FnMut(Resolved<'_>, &HeadCert) -> Result<R, WormError>,
    ) -> Result<R, WormError> {
        let observed = self
            .trace
            .observe(&self.ops.read, "server.read", Plane::Read);
        let result = self.resolve(sn, &mut present);
        observed.finish(result.is_ok(), Some(sn.0));
        if let Err(e) = &result {
            // A read the host could not serve is evidence, not a
            // diagnostic: it reaches the chain whatever the tracing
            // kill switch says.
            self.audit
                .emit(AuditClass::VerifyFailure, Some(sn.0), &e.to_string());
        }
        result
    }

    fn resolve<R>(
        &self,
        sn: SerialNumber,
        present: &mut impl FnMut(Resolved<'_>, &HeadCert) -> Result<R, WormError>,
    ) -> Result<R, WormError> {
        let mut head_refreshed = false;
        loop {
            match self.read_plane.resolve(sn, head_refreshed, present)? {
                ReadStep::Done(presented) => return Ok(presented),
                ReadStep::StaleHead => {
                    // Serialize only the refresh; the staleness re-check
                    // inside collapses racing readers into one device
                    // round-trip.
                    self.ops.read_slow_path.inc();
                    self.witness.lock().ensure_fresh_head()?;
                    head_refreshed = true;
                }
                ReadStep::NeedFreshBase(head) => {
                    self.ops.read_slow_path.inc();
                    let base = self.witness.lock().ensure_fresh_base()?;
                    return present(Resolved::BelowBase(&base), &head);
                }
            }
        }
    }

    /// Forces a head-certificate refresh through the SCPU.
    ///
    /// # Errors
    ///
    /// Device or firmware failures.
    pub fn refresh_head(&self) -> Result<(), WormError> {
        self.witness.lock().refresh_head()
    }

    /// The freshest head certificate held host-side, lazily refreshed
    /// through the SCPU when stale (same slow path as reads).
    ///
    /// # Errors
    ///
    /// Device or firmware failures during a lazy refresh.
    pub fn current_head(&self) -> Result<HeadCert, WormError> {
        if self.read_plane.head_stale() {
            self.witness.lock().ensure_fresh_head()?;
        }
        self.vrdt()
            .head()
            .cloned()
            .ok_or_else(|| WormError::Firmware("no head certificate published".into()))
    }

    /// Asks this server's SCPU to sign a composite-freshness binding over
    /// `shard_count` lane heads folded into `root`: the job of a
    /// deployment's lane 0 (see [`ShardedWormServer::composite_head`]).
    ///
    /// # Errors
    ///
    /// Device or firmware failures (e.g. a root that is not a SHA-256
    /// digest).
    fn sign_composite(
        &self,
        shard_count: u32,
        root: Vec<u8>,
    ) -> Result<CompositeBinding, WormError> {
        let mut w = self.witness.lock();
        match execute(
            &mut w.device,
            WormRequest::SignComposite { shard_count, root },
        )? {
            WormResponse::Composite(binding) => Ok(binding),
            other => Err(unexpected(other)),
        }
    }

    /// Forces a base-certificate refresh through the SCPU.
    ///
    /// # Errors
    ///
    /// Device or firmware failures.
    pub fn refresh_base(&self) -> Result<(), WormError> {
        self.witness.lock().refresh_base()
    }

    /// Places a litigation hold authorized by `credential` (§4.2.2).
    ///
    /// # Errors
    ///
    /// [`WormError::NotActive`] if the record is not live; firmware
    /// rejections for bad credentials.
    pub fn lit_hold(&self, credential: crate::authority::HoldCredential) -> Result<(), WormError> {
        let sn = credential.sn.0;
        let observed = self
            .trace
            .observe(&self.ops.lit_hold, "server.lit_hold", Plane::Witness);
        let result = self.witness.lock().lit_hold(credential);
        observed.finish(result.is_ok(), Some(sn));
        result
    }

    /// Releases a litigation hold (§4.2.2).
    ///
    /// # Errors
    ///
    /// [`WormError::NotActive`] if the record is not live; firmware
    /// rejections for bad credentials.
    pub fn lit_release(
        &self,
        credential: crate::authority::ReleaseCredential,
    ) -> Result<(), WormError> {
        let sn = credential.sn.0;
        let observed =
            self.trace
                .observe(&self.ops.lit_release, "server.lit_release", Plane::Witness);
        let result = self.witness.lock().lit_release(credential);
        observed.finish(result.is_ok(), Some(sn));
        result
    }

    /// Drives due device alarms (Retention Monitor wake-ups, head
    /// heartbeats) and applies the resulting outbox items.
    ///
    /// # Errors
    ///
    /// Device or store failures.
    pub fn tick(&self) -> Result<(), WormError> {
        let observed = self
            .trace
            .observe(&self.ops.tick, "server.tick", Plane::Witness);
        let result = self.witness.lock().tick();
        observed.finish(result.is_ok(), None);
        result
    }

    /// Grants the SCPU an idle budget (virtual nanoseconds) for deferred
    /// work: strengthening witnesses, re-arming spilled VEXP entries,
    /// and auditing trust-host-hash writes (§4.3).
    ///
    /// # Errors
    ///
    /// Device or store failures.
    pub fn idle(&self, budget_ns: u64) -> Result<(), WormError> {
        let observed = self
            .trace
            .observe(&self.ops.idle, "server.idle", Plane::Witness);
        let result = self.witness.lock().idle(budget_ns);
        observed.finish(result.is_ok(), None);
        result
    }

    /// Compacts every eligible contiguous run of expired entries into
    /// signed deleted windows (§4.2.1), returning how many windows were
    /// created. Intended for idle periods.
    ///
    /// # Errors
    ///
    /// Device or firmware failures.
    pub fn compact(&self) -> Result<usize, WormError> {
        let observed = self
            .trace
            .observe(&self.ops.compact, "server.compact", Plane::Witness);
        let result = self.witness.lock().compact();
        observed.finish(result.is_ok(), None);
        result
    }

    /// Compacts the record *store*: relocates live extents into lower
    /// free space and shreds the vacated originals, reclaiming contiguous
    /// room at the top of the medium. (Distinct from
    /// [`WormServer::compact`], which compacts the *table* into signed
    /// deleted windows.) Returns how many extents moved. Intended for
    /// idle periods.
    ///
    /// Each relocation is one journal frame that also dooms the vacated
    /// extent, so a power cut mid-compaction never loses a record and
    /// never leaves relocated plaintext unshredded (see [`WitnessPlane`]
    /// internals).
    ///
    /// # Errors
    ///
    /// Store, journal, or device failures.
    pub fn compact_store(&self) -> Result<usize, WormError> {
        let observed = self.trace.observe(
            &self.ops.compact_store,
            "server.compact_store",
            Plane::Witness,
        );
        let result = self.witness.lock().compact_store();
        observed.finish(result.is_ok(), None);
        result
    }

    /// Test/adversary access to internal state: the seam `wormsim`'s
    /// `Mallory` attacks through.
    /// The VRDT write guard blocks the read plane while held.
    #[doc(hidden)]
    pub fn parts_mut_for_attack(&self) -> (RwLockWriteGuard<'_, Vrdt>, &RecordStore<D>) {
        (self.read_plane.vrdt_write(), self.read_plane.store())
    }

    /// Triggers the device's tamper response (for failure-injection
    /// tests): the SCPU zeroizes and all further update operations fail.
    pub fn tamper_device(&self, cause: scpu::TamperCause) {
        self.witness.lock().device.trigger_tamper(cause);
    }

    /// Firmware introspection for tests (not available in a real
    /// deployment). The returned guard holds the witness-plane lock: all
    /// update operations block while it lives.
    #[doc(hidden)]
    pub fn firmware_for_test(&self) -> FirmwareGuard<'_, D> {
        FirmwareGuard(self.witness.lock())
    }
}

impl<D> WormServer<Partition<D>>
where
    D: BlockDevice + Clone + Send + Sync + 'static,
{
    /// Splits `dev` into a journal region and a data partition.
    ///
    /// # Errors
    ///
    /// `journal_bytes` exceeding the device capacity.
    fn layout(dev: &D, journal_bytes: u64) -> Result<u64, WormError> {
        dev.capacity().checked_sub(journal_bytes).ok_or_else(|| {
            wormstore::JournalError::Device(wormstore::BlockError::OutOfRange {
                offset: journal_bytes,
                capacity: dev.capacity(),
            })
            .into()
        })
    }

    /// Boots a fresh crash-atomic server over one raw medium: the first
    /// `journal_bytes` of `dev` become the VRDT journal region, the rest
    /// the record store. Every table mutation hits the journal region
    /// *before* host memory, so a power cut at any write boundary is
    /// recoverable via [`WormServer::recover_durable`].
    ///
    /// # Errors
    ///
    /// Device failures during region setup or key generation, or a
    /// `journal_bytes` that exceeds the device.
    pub fn with_durable(
        dev: D,
        journal_bytes: u64,
        config: WormConfig,
        clock: Arc<dyn Clock>,
        regulator: &RsaPublicKey,
    ) -> Result<Self, WormError> {
        let store_bytes = Self::layout(&dev, journal_bytes)?;
        let journal = DiskJournal::create(dev.clone(), 0, journal_bytes)?;
        let data =
            Partition::new(dev, journal_bytes, store_bytes).map_err(wormstore::StoreError::from)?;
        let store = RecordStore::new(data);
        Self::boot(
            store,
            config,
            clock,
            regulator,
            Some(Box::new(journal)),
            None,
        )
    }

    /// Recovers a crash-atomic server from its medium after a power cut or
    /// a clean stop: the one way a server comes back.
    ///
    /// The host phase scans the journal region once and replays the valid
    /// frame prefix (one frame is one whole mutation, so a torn tail frame
    /// is a mutation that never happened, and its bytes are erased
    /// durably). The journal is then the authority on occupied space: live
    /// extents survive, pending-shred extents stay reserved for their
    /// remaining passes, and every gap below the rebuilt watermark returns
    /// to the free list and is zeroed, so plaintext exists only inside
    /// live extents. A power cut lost the previous watermark, so what it
    /// wrote above the rebuilt one stays as it is.
    ///
    /// The SCPU phase finishes every half-done shred from its persisted
    /// pass marker, re-arms every active record's expiration from its own
    /// signed attributes (`SyncVexpFromAttr`: the firmware verifies each
    /// metasig, so a malicious "recovery" cannot shorten retentions),
    /// presents every weak or HMAC witness back for strengthening, and
    /// republishes the head and base.
    ///
    /// The battery-backed `device` survives power cuts on its own; on
    /// failure it is handed back alongside the error so the caller can
    /// retry — losing it would lose the keys.
    ///
    /// # Errors
    ///
    /// Journal corruption (including tampering signatures such as a
    /// valid-CRC frame with an unknown opcode), device failures, or an
    /// inconsistent descriptor set.
    #[expect(
        clippy::result_large_err,
        reason = "the SCPU device rides in the error variant by design (see above); recovery is cold-path, so the large Err is irrelevant to perf"
    )]
    pub fn recover_durable(
        dev: D,
        journal_bytes: u64,
        mut device: Device<WormFirmware>,
        config: WormConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, (WormError, Device<WormFirmware>)> {
        // The host phase, and a read of the keys: the SCPU's state is
        // untouched, so any failure hands it straight back.
        let host = (|| -> Result<(RecordStore<Partition<D>>, Vrdt, DeviceKeys), WormError> {
            let store_bytes = Self::layout(&dev, journal_bytes)?;
            let (disk_journal, journal) = DiskJournal::open(dev.clone(), 0, journal_bytes)?;
            let mut vrdt = Vrdt::recover(journal)?;
            // Attaching the sink cuts the region tail, making the
            // discarded torn tail durable before we serve.
            vrdt.attach_sink(Box::new(disk_journal))?;
            let data = Partition::new(dev, journal_bytes, store_bytes)
                .map_err(wormstore::StoreError::from)?;
            let live: Vec<RecordDescriptor> = vrdt
                .iter_active()
                .flat_map(|vrd| vrd.rdl.iter().copied())
                .collect();
            let reserved: Vec<RecordDescriptor> =
                vrdt.pending_shreds().values().map(|s| s.rd).collect();
            let store = RecordStore::recover(data, &live, &reserved)?;
            store.scrub_free()?;
            match execute(&mut device, WormRequest::GetKeys)? {
                WormResponse::Keys(keys, _) => Ok((store, vrdt, keys)),
                other => Err(unexpected(other)),
            }
        })();
        let (store, vrdt, keys) = match host {
            Ok(parts) => parts,
            Err(e) => return Err((e, device)),
        };
        let server = Self::assemble(vrdt, store, device, keys, config, clock, 0x4059, None);
        // The device now lives inside the server, so failures decompose
        // it to hand it back.
        let post = (|| -> Result<(), WormError> {
            let mut w = server.witness.lock();
            w.rebuild_after_recovery()?;
            w.complete_pending_shreds()?;
            w.refresh_head()?;
            w.refresh_base()?;
            w.drain_outbox()?;
            Ok(())
        })();
        match post {
            Ok(()) => Ok(server),
            Err(e) => Err((e, server.into_parts().0)),
        }
    }
}

/// Witness-plane lock scoped to firmware introspection (derefs to
/// [`WormFirmware`]).
#[doc(hidden)]
pub struct FirmwareGuard<'a, D: BlockDevice>(MutexGuard<'a, WitnessPlane<D>>);

impl<D: BlockDevice> std::ops::Deref for FirmwareGuard<'_, D> {
    type Target = WormFirmware;

    fn deref(&self) -> &WormFirmware {
        self.0.device.applet_for_test()
    }
}
