//! The serialized witness plane.
//!
//! Everything that crosses the device boundary — writes, litigation
//! changes, retention alarms, compaction, idle-time strengthening — goes
//! through here, one operation at a time (the facade wraps this type in a
//! mutex). The SCPU command channel is inherently serial, so serializing
//! the host-side bookkeeping around it costs nothing; what matters is
//! that the read plane never waits on it.
//!
//! Mutations touch the shared VRDT through its write lock in short
//! critical sections. Deletion order is the crux (see the read-plane
//! docs): an entry is expired *inside* the write lock, and its extents
//! shredded only after the lock is released — so concurrent readers
//! either saw the record active (and finished reading its bytes under
//! their read guard) or see the deletion proof.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scpu::{Clock, Device, Meter, Op, Timestamp};
use wormaudit::{AuditClass, AuditLog};
use wormstore::{BlockDevice, RecordDescriptor, RecordStore, Shredder};
use wormtrace::sync::RwLock;

use crate::attr::RecordAttributes;
use crate::config::{HashMode, WitnessMode, WormConfig};
use crate::error::WormError;
use crate::firmware::{
    OutboxItem, WeakKeyCert, WitnessField, WormFirmware, WormRequest, WormResponse, WriteData,
};
use crate::policy::RetentionPolicy;
use crate::proofs::BaseCert;
use crate::sn::SerialNumber;
use crate::vrd::Vrd;
use crate::vrdt::{Lookup, ShredState, Vrdt};
use crate::witness::Witness;

/// A VEXP entry the firmware spilled to the host, awaiting re-submission.
#[derive(Clone, Debug)]
struct SpilledVexp {
    sn: SerialNumber,
    expires_at: Timestamp,
    shredder: Shredder,
    seal: Vec<u8>,
}

/// Witness-plane instrument handles, resolved once at construction so
/// the outbox-drain loop records through pure atomics.
struct WitnessStats {
    deletion_proofs: Arc<wormtrace::Counter>,
    strengthened: Arc<wormtrace::Counter>,
    audit_failures: Arc<wormtrace::Counter>,
    weak_key_rotations: Arc<wormtrace::Counter>,
    spilled_vexp: Arc<wormtrace::Gauge>,
    /// Pending shreds completed during crash recovery.
    resumed_shreds: Arc<wormtrace::Counter>,
    /// Live extents relocated downward by store compaction.
    compact_relocations: Arc<wormtrace::Counter>,
}

impl WitnessStats {
    fn new(trace: &wormtrace::Registry) -> Self {
        WitnessStats {
            deletion_proofs: trace.counter("witness.deletion_proof"),
            strengthened: trace.counter("witness.strengthened"),
            audit_failures: trace.counter("witness.audit_failure"),
            weak_key_rotations: trace.counter("witness.weak_key_rotation"),
            spilled_vexp: trace.gauge("witness.spilled_vexp"),
            resumed_shreds: trace.counter("recovery.resumed_shreds"),
            compact_relocations: trace.counter("store.compact.relocated"),
        }
    }
}

/// The mutating half of the server: owns the SCPU device and all
/// update-path bookkeeping; shares the VRDT and store with the read
/// plane (see module docs).
pub struct WitnessPlane<D: BlockDevice> {
    pub(crate) config: WormConfig,
    clock: Arc<dyn Clock>,
    pub(crate) device: Device<WormFirmware>,
    vrdt: Arc<RwLock<Vrdt>>,
    pub(crate) store: Arc<RecordStore<D>>,
    /// All weak-key certificates published so far (clients need the
    /// history to verify not-yet-strengthened witnesses).
    pub(crate) weak_certs: Vec<WeakKeyCert>,
    /// Spilled VEXP entries to re-submit during idle periods.
    spilled: Vec<SpilledVexp>,
    /// Trust-host-hash writes not yet audited by the SCPU.
    unaudited: BTreeSet<SerialNumber>,
    /// Records the SCPU flagged during audit (host lied about a hash).
    pub(crate) audit_failures: Vec<SerialNumber>,
    /// Modeled cost of host-side work (P4-class), for the benchmarks.
    pub(crate) host_meter: Meter,
    host_model: scpu::CostModel,
    rng: StdRng,
    /// Records whose expiration scheduling must be retried (crash
    /// recovery with exhausted secure memory).
    resync: Vec<SerialNumber>,
    /// Trace instrument handles (see [`WitnessStats`]).
    stats: WitnessStats,
    /// The tamper-evident integrity-event journal. Witness-path events
    /// with SCPU evidence (outbox items, shreds, compaction) emit here
    /// directly; the same log also receives promoted trace events via
    /// the registry sink.
    audit: Arc<AuditLog>,
}

impl<D: BlockDevice> WitnessPlane<D> {
    #[expect(
        clippy::too_many_arguments,
        reason = "one-time assembly wiring: every argument is a distinct shared handle, and bundling them into a struct would just move the list"
    )]
    pub(crate) fn new(
        config: WormConfig,
        clock: Arc<dyn Clock>,
        device: Device<WormFirmware>,
        vrdt: Arc<RwLock<Vrdt>>,
        store: Arc<RecordStore<D>>,
        initial_weak_cert: WeakKeyCert,
        rng_seed: u64,
        trace: &wormtrace::Registry,
        audit: Arc<AuditLog>,
    ) -> Self {
        WitnessPlane {
            config,
            clock,
            device,
            vrdt,
            store,
            weak_certs: vec![initial_weak_cert],
            spilled: Vec::new(),
            unaudited: BTreeSet::new(),
            audit_failures: Vec::new(),
            host_meter: Meter::new(),
            host_model: scpu::CostModel::host_p4(),
            rng: StdRng::seed_from_u64(rng_seed),
            resync: Vec::new(),
            stats: WitnessStats::new(trace),
            audit,
        }
    }

    /// Rebuilds the audit queue and the SCPU's expiration schedule from
    /// recovered state (crash recovery; see `WormServer::resume`).
    pub(crate) fn rebuild_after_recovery(&mut self) {
        let active: Vec<Vrd> = self.vrdt.read().iter_active().cloned().collect();
        // Trust-host-hash deployments: the firmware's pending-audit set
        // survives in the device, but the host's submission queue does
        // not — re-enqueue every active record. Already-audited records
        // are rejected by the firmware and drained harmlessly.
        if self.config.hash_mode == HashMode::TrustHostHash {
            for vrd in &active {
                self.unaudited.insert(vrd.sn);
            }
        }
        // Re-arm expirations inside the SCPU (idempotent: entries already
        // resident in battery-backed VEXP are acknowledged as synced).
        for vrd in active {
            let req = WormRequest::SyncVexpFromAttr {
                sn: vrd.sn,
                attr: vrd.attr.clone(),
                metasig: vrd.metasig.clone(),
            };
            match execute(&mut self.device, req) {
                Ok(WormResponse::Synced) => {}
                _ => self.resync.push(vrd.sn),
            }
        }
    }

    pub(crate) fn spilled_vexp(&self) -> usize {
        self.spilled.len()
    }

    pub(crate) fn write_inner(
        &mut self,
        records: &[&[u8]],
        policy: RetentionPolicy,
        flags: u32,
        witness: WitnessMode,
    ) -> Result<SerialNumber, WormError> {
        // Records end up in length-prefixed wire encodings (journal VRDs,
        // network read responses); reject anything the u32 prefix cannot
        // represent at the API boundary instead of panicking deep in the
        // encoder.
        if let Some(i) = records
            .iter()
            .position(|r| r.len() as u64 > crate::wire::MAX_WIRE_BYTES)
        {
            return Err(WormError::Firmware(format!(
                "record {i} exceeds the {} byte wire limit",
                crate::wire::MAX_WIRE_BYTES
            )));
        }
        let mut rdl = Vec::with_capacity(records.len());
        let written = self.write_witnessed(records, policy, flags, witness, &mut rdl);
        if written.is_err() {
            // No VRD owns what reached the store, so nothing would ever
            // shred it: destroy and release it here. The write's own
            // error is the one reported.
            for rd in &rdl {
                let _ = self.store.shred(rd, policy.shredder, &mut self.rng);
            }
        }
        written
    }

    /// The write proper. `rdl` holds the extents written so far for as
    /// long as no VRD names them; the VRD takes them just before its
    /// journal append, which may be durable even when it reports failure
    /// — from there recovery decides (replay, or reclaim and scrub).
    fn write_witnessed(
        &mut self,
        records: &[&[u8]],
        policy: RetentionPolicy,
        flags: u32,
        witness: WitnessMode,
        rdl: &mut Vec<RecordDescriptor>,
    ) -> Result<SerialNumber, WormError> {
        // 1. Host writes the data records to the store.
        for r in records {
            rdl.push(self.store.write(r)?);
        }
        // 2. Host messages the SCPU with the record content (or its hash).
        let data = match self.config.hash_mode {
            HashMode::ScpuHashes => WriteData::Full(records.iter().map(|r| r.to_vec()).collect()),
            HashMode::TrustHostHash => {
                let total: usize = records.iter().map(|r| r.len()).sum();
                self.host_meter.record(
                    Op::Sha256 { bytes: total },
                    self.host_model.cost_ns(Op::Sha256 { bytes: total }),
                );
                WriteData::HostHash {
                    chain_hash: crate::vrd::data_chain_hash(records.iter().copied()),
                    total_len: total as u64,
                }
            }
        };
        let receipt = match execute(
            &mut self.device,
            WormRequest::Write {
                policy,
                flags,
                data,
                witness,
            },
        )? {
            WormResponse::Written(r) => r,
            other => return Err(unexpected(other)),
        };
        // 3. Host assembles the VRD and commits it to the VRDT.
        let retention_until = receipt.attr.retention_until;
        let vrd = Vrd {
            sn: receipt.sn,
            attr: receipt.attr,
            rdl: std::mem::take(rdl),
            metasig: receipt.metasig,
            datasig: receipt.datasig,
        };
        self.vrdt.write().insert(vrd)?;
        if let Some(seal) = receipt.vexp_seal {
            self.spilled.push(SpilledVexp {
                sn: receipt.sn,
                expires_at: retention_until,
                shredder: policy.shredder,
                seal,
            });
            self.stats.spilled_vexp.set(self.spilled.len() as u64);
        }
        if self.config.hash_mode == HashMode::TrustHostHash {
            self.unaudited.insert(receipt.sn);
        }
        self.drain_outbox()?;
        Ok(receipt.sn)
    }

    /// Refreshes the head certificate if missing or older than the
    /// configured interval. Re-checks staleness here (under the witness
    /// lock) so racing readers trigger at most one device round-trip.
    pub(crate) fn ensure_fresh_head(&mut self) -> Result<(), WormError> {
        let stale = match self.vrdt.read().head() {
            None => true,
            Some(h) => self.clock.now().since(h.issued_at) > self.config.head_refresh_interval,
        };
        if stale {
            self.refresh_head()?;
            // Crossing the device boundary may have fired due alarms
            // (Retention Monitor deletions, heartbeats); apply them so the
            // table is consistent before the read is served.
            self.drain_outbox()?;
        }
        Ok(())
    }

    pub(crate) fn ensure_fresh_base(&mut self) -> Result<BaseCert, WormError> {
        let stale = match self.vrdt.read().base() {
            None => true,
            Some(b) => b.expires_at <= self.clock.now(),
        };
        if stale {
            self.refresh_base()?;
        }
        // Defensive: this sits on the read path (below-base evidence), so
        // a missing base after a refresh is an error, not a panic.
        self.vrdt.read().base().cloned().ok_or_else(|| {
            WormError::Firmware("no base certificate installed after refresh".into())
        })
    }

    pub(crate) fn refresh_head(&mut self) -> Result<(), WormError> {
        match execute(&mut self.device, WormRequest::RefreshHead)? {
            WormResponse::Head(h) => {
                self.audit
                    .emit(AuditClass::HeadRefresh, None, "head refreshed");
                self.vrdt.write().set_head(h)?;
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    pub(crate) fn refresh_base(&mut self) -> Result<(), WormError> {
        match execute(&mut self.device, WormRequest::RefreshBase)? {
            WormResponse::Base(b) => {
                self.vrdt.write().set_base(b)?;
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    pub(crate) fn lit_hold(
        &mut self,
        credential: crate::authority::HoldCredential,
    ) -> Result<(), WormError> {
        self.litigate(credential.sn, |attr, metasig| WormRequest::LitHold {
            attr,
            metasig,
            credential,
        })
    }

    pub(crate) fn lit_release(
        &mut self,
        credential: crate::authority::ReleaseCredential,
    ) -> Result<(), WormError> {
        self.litigate(credential.sn, |attr, metasig| WormRequest::LitRelease {
            attr,
            metasig,
            credential,
        })
    }

    /// Sends the active record `sn`'s attributes and `metasig` to the
    /// SCPU in the litigation request `request` builds, and installs the
    /// re-signed attributes it answers with.
    fn litigate(
        &mut self,
        sn: SerialNumber,
        request: impl FnOnce(RecordAttributes, Witness) -> WormRequest,
    ) -> Result<(), WormError> {
        let mut vrd = match self.vrdt.read().lookup(sn) {
            Lookup::Active(v) => v.clone(),
            _ => return Err(WormError::NotActive(sn)),
        };
        let req = request(vrd.attr.clone(), vrd.metasig.clone());
        match execute(&mut self.device, req)? {
            WormResponse::AttrUpdated { attr, metasig } => {
                vrd.attr = attr;
                vrd.metasig = metasig;
                self.vrdt.write().replace(vrd)?;
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    pub(crate) fn tick(&mut self) -> Result<(), WormError> {
        self.device.tick()?;
        self.drain_outbox()?;
        self.anchor_audit()
    }

    /// Asks the SCPU to sign the audit chain tip if it has advanced past
    /// the last anchor. One RSA signature per tick with an unanchored
    /// tip — a no-op (no device round-trip) when the chain is quiet.
    pub(crate) fn anchor_audit(&mut self) -> Result<(), WormError> {
        let Some((seq, chain_hash)) = self.audit.needs_anchor() else {
            return Ok(());
        };
        match execute(
            &mut self.device,
            WormRequest::SignAuditAnchor {
                seq,
                chain_hash: chain_hash.to_vec(),
            },
        )? {
            WormResponse::AuditAnchor(anchor) => {
                self.audit.install_anchor(anchor);
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    pub(crate) fn idle(&mut self, budget_ns: u64) -> Result<(), WormError> {
        self.device.idle(budget_ns)?;
        self.drain_outbox()?;
        // Re-submit spilled VEXP entries while memory allows.
        let mut remaining = Vec::new();
        for entry in std::mem::take(&mut self.spilled) {
            let res = execute(
                &mut self.device,
                WormRequest::SyncVexp {
                    sn: entry.sn,
                    expires_at: entry.expires_at,
                    shredder: entry.shredder,
                    seal: entry.seal.clone(),
                },
            );
            match res {
                Ok(WormResponse::Synced) => {}
                _ => remaining.push(entry),
            }
        }
        self.spilled = remaining;
        self.stats.spilled_vexp.set(self.spilled.len() as u64);
        // Retry crash-recovery expiration re-arming that previously hit
        // exhausted secure memory.
        let mut still_pending = Vec::new();
        for sn in std::mem::take(&mut self.resync) {
            let vrd = match self.vrdt.read().lookup(sn) {
                Lookup::Active(v) => v.clone(),
                _ => continue, // deleted meanwhile
            };
            let req = WormRequest::SyncVexpFromAttr {
                sn,
                attr: vrd.attr,
                metasig: vrd.metasig,
            };
            match execute(&mut self.device, req) {
                Ok(WormResponse::Synced) => {}
                _ => still_pending.push(sn),
            }
        }
        self.resync = still_pending;
        // Submit pending audits.
        let to_audit: Vec<SerialNumber> = self.unaudited.iter().copied().take(16).collect();
        for sn in to_audit {
            let rdl = match self.vrdt.read().lookup(sn) {
                Lookup::Active(v) => Some(v.rdl.clone()),
                _ => None,
            };
            let data = match rdl {
                Some(rdl) => {
                    let mut records = Vec::with_capacity(rdl.len());
                    for rd in &rdl {
                        records.push(self.store.read(rd)?.to_vec());
                    }
                    records
                }
                None => {
                    // Deleted before audit; nothing to check any more.
                    self.unaudited.remove(&sn);
                    continue;
                }
            };
            match execute(&mut self.device, WormRequest::AuditData { sn, data }) {
                Ok(WormResponse::Audited(_)) => {
                    self.unaudited.remove(&sn);
                }
                // Firmware-level rejection ("no pending audit"): the entry
                // is unknown to the device, so retrying can never help —
                // drop it rather than wedging the queue on it forever.
                Err(WormError::Firmware(_)) => {
                    self.unaudited.remove(&sn);
                }
                // Device-level failures (tamper) abort this pass.
                _ => break,
            }
        }
        self.drain_outbox()
    }

    pub(crate) fn compact(&mut self) -> Result<usize, WormError> {
        let runs = self
            .vrdt
            .read()
            .expired_runs(self.config.min_compaction_run);
        let mut created = 0;
        for (lo, hi) in runs {
            match execute(&mut self.device, WormRequest::CompactWindow { lo, hi })? {
                WormResponse::Window(w) => {
                    self.vrdt.write().compact(w)?;
                    created += 1;
                }
                other => return Err(unexpected(other)),
            }
        }
        self.drain_outbox()?;
        Ok(created)
    }

    /// Runs the remaining passes of a journaled shred, persisting a
    /// progress marker after each pass lands on the medium, then journals
    /// completion and returns the extent to the free list.
    ///
    /// The marker is written *after* its pass: a crash between the two
    /// re-runs that pass on recovery, which is idempotent — pass order is
    /// never skipped, so the final random pass always lands last.
    fn run_shred(&mut self, state: ShredState) -> Result<(), WormError> {
        let ShredState {
            rd,
            shredder,
            next_pass,
        } = state;
        for pass in next_pass..shredder.pass_count() {
            shredder
                .write_pass(self.store.device(), &rd, &mut self.rng, pass)
                .map_err(wormstore::StoreError::from)?;
            self.vrdt.write().note_shred_pass(rd.offset, pass)?;
        }
        self.vrdt.write().note_shred_done(rd.offset)?;
        self.store.note_shredded(&rd);
        self.store.release(&rd);
        self.audit.emit(
            AuditClass::ShredComplete,
            None,
            &format!(
                "extent@{} shredded ({} passes)",
                rd.offset,
                shredder.pass_count()
            ),
        );
        Ok(())
    }

    /// Finishes every shred the journal recorded as begun but not done —
    /// called once during crash recovery, before the store serves reads.
    /// Each resumes at its persisted pass marker (see [`Self::run_shred`]).
    pub(crate) fn complete_pending_shreds(&mut self) -> Result<usize, WormError> {
        let pending: Vec<ShredState> = self
            .vrdt
            .read()
            .pending_shreds()
            .values()
            .copied()
            .collect();
        let n = pending.len();
        for state in pending {
            self.audit.emit(
                AuditClass::ShredResume,
                None,
                &format!(
                    "resuming shred of extent@{} at pass {}",
                    state.rd.offset, state.next_pass
                ),
            );
            self.run_shred(state)?;
            self.stats.resumed_shreds.inc();
        }
        Ok(n)
    }

    /// Compacts the record store: copies live extents into lower free
    /// space and shreds the vacated originals, reclaiming contiguous room
    /// at the top of the region. Returns how many extents moved.
    ///
    /// Each relocation commits as ONE staged journal transaction — the
    /// owning VRD's descriptor swap plus the shred intent for the old
    /// extent — so a crash either rolls the whole move back (old extent
    /// still live, leaked copy reclaimed by the next recover) or replays
    /// it and resumes destroying the vacated bytes. A relocated record's
    /// old plaintext is exactly as sensitive as its current bytes: leaving
    /// it unshredded would survive the record's eventual deletion.
    pub(crate) fn compact_store(&mut self) -> Result<usize, WormError> {
        // Live extents with the VR that owns each, highest offset first:
        // draining from the top frees contiguous space at the tail of
        // the region.
        let mut extents: Vec<(SerialNumber, RecordDescriptor)> = {
            let vrdt = self.vrdt.read();
            vrdt.iter_active()
                .flat_map(|vrd| vrd.rdl.iter().map(|rd| (vrd.sn, *rd)))
                .collect()
        };
        extents.sort_by_key(|(_, rd)| std::cmp::Reverse(rd.offset));
        let mut moved = 0usize;
        for (sn, old) in extents {
            let Some(new_rd) = self.store.relocate_down(&old)? else {
                continue;
            };
            // Point the owning VRD at the copy; its shredder destroys the
            // vacated bytes.
            let owner = match self.vrdt.read().lookup(sn) {
                Lookup::Active(v) => Some(v.clone()),
                _ => None,
            };
            let Some(mut owner) = owner else {
                // Raced a deletion: nothing references the copy we just
                // made. Hand the new extent back untouched — the deletion
                // path owns shredding the original.
                self.store.release(&new_rd);
                continue;
            };
            for rd in owner.rdl.iter_mut().filter(|rd| **rd == old) {
                *rd = new_rd;
            }
            let state = ShredState {
                rd: old,
                shredder: owner.attr.shredder,
                next_pass: 0,
            };
            {
                let mut vrdt = self.vrdt.write();
                vrdt.stage_replace(&owner)?;
                vrdt.stage_shred_begin(&state)?;
                vrdt.commit_txn()?;
            }
            self.run_shred(state)?;
            self.stats.compact_relocations.inc();
            moved += 1;
        }
        if moved > 0 {
            self.audit.emit(
                AuditClass::StoreCompaction,
                None,
                &format!("{moved} extents relocated"),
            );
        }
        Ok(moved)
    }

    /// Applies all queued outbox items from the firmware.
    pub(crate) fn drain_outbox(&mut self) -> Result<(), WormError> {
        let items = match execute(&mut self.device, WormRequest::DrainOutbox)? {
            WormResponse::Outbox(items) => items,
            other => return Err(unexpected(other)),
        };
        for item in items {
            match item {
                OutboxItem::Deleted { proof, shredder } => {
                    // Expire under the write lock FIRST, collecting the
                    // VR's extents; shred after the lock is dropped.
                    // Readers holding the read lock have finished their
                    // store reads before we got the write lock; later
                    // readers see the deletion proof.
                    //
                    // The expiration and every shred intent commit as ONE
                    // staged journal transaction: a crash either rolls the
                    // whole group back (record still active, nothing
                    // destroyed) or replays past the commit marker and
                    // resumes every pending shred — never a deleted record
                    // whose plaintext quietly survives.
                    let to_shred = {
                        let mut vrdt = self.vrdt.write();
                        let to_shred: Vec<ShredState> = match vrdt.lookup(proof.sn) {
                            Lookup::Active(v) => v
                                .rdl
                                .iter()
                                .map(|&rd| ShredState {
                                    rd,
                                    shredder,
                                    next_pass: 0,
                                })
                                .collect(),
                            _ => Vec::new(),
                        };
                        self.unaudited.remove(&proof.sn);
                        vrdt.stage_expire(&proof)?;
                        for state in &to_shred {
                            vrdt.stage_shred_begin(state)?;
                        }
                        vrdt.commit_txn()?;
                        to_shred
                    };
                    for state in to_shred {
                        self.run_shred(state)?;
                    }
                    self.stats.deletion_proofs.inc();
                }
                OutboxItem::Strengthened { sn, field, witness } => {
                    self.stats.strengthened.inc();
                    let mut vrdt = self.vrdt.write();
                    let updated = match vrdt.lookup(sn) {
                        Lookup::Active(v) => {
                            let mut updated = v.clone();
                            match field {
                                WitnessField::Meta => updated.metasig = witness,
                                WitnessField::Data => updated.datasig = witness,
                            }
                            Some(updated)
                        }
                        _ => None,
                    };
                    if let Some(updated) = updated {
                        vrdt.replace(updated)?;
                    }
                }
                OutboxItem::NewBase(b) => self.vrdt.write().set_base(b)?,
                OutboxItem::NewHead(h) => {
                    self.audit
                        .emit(AuditClass::HeadRemint, None, "head re-minted on heartbeat");
                    self.vrdt.write().set_head(h)?;
                }
                OutboxItem::NewWeakKey(cert) => {
                    self.stats.weak_key_rotations.inc();
                    self.weak_certs.push(cert);
                }
                OutboxItem::AuditFailure { sn } => {
                    self.stats.audit_failures.inc();
                    self.audit.emit(
                        AuditClass::TamperDetected,
                        Some(sn.0),
                        "scpu audit: host-claimed data hash did not match",
                    );
                    self.audit_failures.push(sn);
                }
            }
        }
        Ok(())
    }
    /// Surrenders the shared handles for [`super::WormServer::into_parts`].
    pub(crate) fn into_shared_parts(
        self,
    ) -> (Device<WormFirmware>, Arc<RwLock<Vrdt>>, Arc<RecordStore<D>>) {
        (self.device, self.vrdt, self.store)
    }
}

pub(crate) fn execute(
    device: &mut Device<WormFirmware>,
    request: WormRequest,
) -> Result<WormResponse, WormError> {
    match device.execute(request) {
        Ok(Ok(resp)) => Ok(resp),
        Ok(Err(fw)) => Err(WormError::Firmware(fw.0)),
        Err(dev) => Err(WormError::Device(dev)),
    }
}

pub(crate) fn unexpected(resp: WormResponse) -> WormError {
    WormError::Firmware(format!("unexpected firmware response: {resp:?}"))
}
