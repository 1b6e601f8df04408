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
use scpu::{Clock, Device, Meter, Op};
use wormaudit::{AuditClass, AuditLog};
use wormstore::{BlockDevice, RecordDescriptor, RecordStore, Shredder};
use wormtrace::sync::RwLock;

use crate::attr::RecordAttributes;
use crate::config::{HashMode, WormConfig};
use crate::error::WormError;
use crate::firmware::{
    OutboxItem, WeakKeyCert, WitnessField, WormFirmware, WormRequest, WormResponse, WriteData,
    WriteItem, WriteReceipt,
};
use crate::proofs::BaseCert;
use crate::server::RecordWrite;
use crate::sn::SerialNumber;
use crate::vrd::{data_chain_hash, Vrd};
use crate::vrdt::{Lookup, ShredState, Vrdt};
use crate::witness::Witness;

/// Witness-plane instrument handles, resolved once at construction so
/// the outbox-drain loop records through pure atomics.
struct WitnessStats {
    deletion_proofs: Arc<wormtrace::Counter>,
    strengthened: Arc<wormtrace::Counter>,
    audit_failures: Arc<wormtrace::Counter>,
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
    /// Active records whose expiry the SCPU does not hold: spilled at
    /// write time, or not yet re-armed since recovery. [`Self::rearm`]
    /// re-submits them.
    spilled: BTreeSet<SerialNumber>,
    /// Trust-host-hash writes not yet audited by the SCPU.
    unaudited: BTreeSet<SerialNumber>,
    /// Records the SCPU flagged during audit (host lied about a hash).
    pub(crate) audit_failures: Vec<SerialNumber>,
    /// Modeled cost of host-side work (P4-class), for the benchmarks.
    pub(crate) host_meter: Meter,
    host_model: scpu::CostModel,
    rng: StdRng,
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
            spilled: BTreeSet::new(),
            unaudited: BTreeSet::new(),
            audit_failures: Vec::new(),
            host_meter: Meter::new(),
            host_model: scpu::CostModel::host_p4(),
            rng: StdRng::seed_from_u64(rng_seed),
            stats: WitnessStats::new(trace),
            audit,
        }
    }

    /// Rebuilds the audit queue, the SCPU's expiration schedule and its
    /// strengthening queue from recovered state (crash recovery; see
    /// [`super::WormServer::recover_durable`]).
    pub(crate) fn rebuild_after_recovery(&mut self) -> Result<(), WormError> {
        let active: Vec<SerialNumber> = self.vrdt.read().iter_active().map(|v| v.sn).collect();
        // Trust-host-hash deployments: the firmware's pending-audit set
        // survives in the device, but the host's submission queue does
        // not — re-enqueue every active record. Already-audited records
        // are rejected by the firmware and drained harmlessly.
        if self.config.hash_mode == HashMode::TrustHostHash {
            self.unaudited.extend(active.iter().copied());
        }
        // Re-arm every expiration inside the SCPU (idempotent: entries
        // already resident in battery-backed VEXP are acknowledged as
        // synced).
        self.spilled.extend(active);
        self.rearm();
        self.requeue_weak()
    }

    /// Presents every weak or HMAC witness of an active record back to the
    /// device for strengthening. The device dequeues a witness when it
    /// signs it strongly, so a crash while the host journaled the strong
    /// one would otherwise leave the record weak for good. The device
    /// acknowledges what it still holds queued and refuses what it did
    /// not sign or what has expired; a refusal leaves the witness as it
    /// is.
    fn requeue_weak(&mut self) -> Result<(), WormError> {
        let weak: Vec<Vrd> = self
            .vrdt
            .read()
            .iter_active()
            .filter(|v| v.needs_strengthening())
            .cloned()
            .collect();
        for vrd in weak {
            let records = vrd.rdl.iter().map(|rd| self.store.read(rd));
            let records = records.collect::<Result<Vec<_>, _>>()?;
            let hash = data_chain_hash(records.iter().map(|r| &r[..]));
            let fields = [
                (WitnessField::Meta, vrd.attr.encode(), vrd.metasig),
                (WitnessField::Data, hash.to_vec(), vrd.datasig),
            ];
            for (field, signed, witness) in fields.into_iter().filter(|f| !f.2.is_strong()) {
                let sn = vrd.sn;
                let req = WormRequest::RequeueWitness {
                    sn,
                    field,
                    signed,
                    witness,
                };
                match execute(&mut self.device, req) {
                    Ok(_) | Err(WormError::Firmware(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    /// Re-arms every expiry in [`Self::spilled`] from the record's current
    /// attributes and `metasig`, which the SCPU verifies with its own keys
    /// — so the host cannot re-arm one earlier or with a weaker shredder.
    /// An SN the device refuses (secure memory still full) stays for the
    /// next pass; one no longer active leaves.
    fn rearm(&mut self) {
        let pending = std::mem::take(&mut self.spilled);
        self.spilled = pending
            .into_iter()
            .filter(|&sn| {
                let req = match self.vrdt.read().lookup(sn) {
                    Lookup::Active(vrd) => WormRequest::SyncVexpFromAttr {
                        sn,
                        attr: vrd.attr.clone(),
                        metasig: vrd.metasig.clone(),
                    },
                    _ => return false,
                };
                !matches!(execute(&mut self.device, req), Ok(WormResponse::Synced))
            })
            .collect();
        self.stats.spilled_vexp.set(self.spilled.len() as u64);
    }

    pub(crate) fn spilled_vexp(&self) -> usize {
        self.spilled.len()
    }

    /// Writes a run of virtual records through one SCPU `Write` command:
    /// each write's extents reach the store, the device issues the run's
    /// serial numbers in run order and witnesses them, and each VRD goes
    /// into the VRDT in a journal frame of its own, as a lone write's
    /// does. Each write gets the verdict it would get alone, in run order;
    /// the run's last write to reach the VRDT also reports a failure to
    /// apply the outbox the command left.
    pub(crate) fn write_many(
        &mut self,
        writes: &[RecordWrite<'_>],
    ) -> Vec<Result<SerialNumber, WormError>> {
        // 1. Host writes each write's data records to the store.
        let mut items = Vec::with_capacity(writes.len());
        let mut staged = Vec::with_capacity(writes.len());
        for write in writes {
            staged.push(self.stage(write).map(|(rdl, item)| {
                items.push(item);
                (rdl, write.policy.shredder)
            }));
        }
        // 2. Host messages the SCPU with every staged write at once.
        let count = items.len();
        let mut receipts = match count {
            0 => Ok(Vec::new().into_iter()),
            _ => match execute(&mut self.device, WormRequest::Write(items)) {
                Ok(WormResponse::Written(r)) if r.len() == count => Ok(r.into_iter()),
                Ok(other) => Err(unexpected(other)),
                Err(e) => Err(e),
            },
        };
        // 3. Host assembles each VRD and commits it to the VRDT. The VRD
        // takes its extents just before its journal append, which may be
        // durable even when it reports failure — from there recovery
        // decides (replay, or reclaim and scrub). Without receipts no VRD
        // owns what reached the store, so nothing would ever shred it:
        // destroy and release it here.
        let mut results = Vec::with_capacity(staged.len());
        for s in staged {
            results.push(s.and_then(|(rdl, shredder)| match &mut receipts {
                Ok(receipts) => match receipts.next() {
                    Some(receipt) => self.commit(receipt, rdl),
                    None => Err(WormError::Firmware("fewer receipts than writes".into())),
                },
                Err(e) => {
                    self.scrub(&rdl, shredder);
                    Err(duplicate(e))
                }
            }));
        }
        if count > 0 && receipts.is_ok() {
            if let Err(e) = self.drain_outbox() {
                if let Some(last) = results.iter_mut().rev().find(|r| r.is_ok()) {
                    *last = Err(e);
                }
            }
        }
        results
    }

    /// A write's half before the device: the wire-limit check, then its
    /// extents in the store, and the command item that names them. What
    /// reached the store before a failure is scrubbed.
    fn stage(
        &mut self,
        write: &RecordWrite<'_>,
    ) -> Result<(Vec<RecordDescriptor>, WriteItem), WormError> {
        let RecordWrite {
            records,
            policy,
            flags,
            witness,
        } = *write;
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
        for r in records {
            match self.store.write(r) {
                Ok(rd) => rdl.push(rd),
                Err(e) => {
                    self.scrub(&rdl, policy.shredder);
                    return Err(e.into());
                }
            }
        }
        let data = match self.config.hash_mode {
            HashMode::ScpuHashes => WriteData::Full(records.iter().map(|r| r.to_vec()).collect()),
            HashMode::TrustHostHash => {
                let total: usize = records.iter().map(|r| r.len()).sum();
                self.host_meter.record(
                    Op::Sha256 { bytes: total },
                    self.host_model.cost_ns(Op::Sha256 { bytes: total }),
                );
                WriteData::HostHash {
                    chain_hash: crate::vrd::data_chain_hash(records.iter().copied()).to_vec(),
                    total_len: total as u64,
                }
            }
        };
        let item = WriteItem {
            policy,
            flags,
            data,
            witness,
        };
        Ok((rdl, item))
    }

    /// Destroys and releases extents no VRD owns. The failure that left
    /// them is the one reported.
    fn scrub(&mut self, rdl: &[RecordDescriptor], shredder: Shredder) {
        for rd in rdl {
            let _ = self.store.shred(rd, shredder, &mut self.rng);
        }
    }

    /// Journals the VRD of a witnessed write in its own `INSERT` frame.
    fn commit(
        &mut self,
        receipt: WriteReceipt,
        rdl: Vec<RecordDescriptor>,
    ) -> Result<SerialNumber, WormError> {
        let vrd = Vrd {
            sn: receipt.sn,
            attr: receipt.attr,
            rdl,
            metasig: receipt.metasig,
            datasig: receipt.datasig,
        };
        self.vrdt.write().insert(vrd)?;
        if receipt.vexp_spilled {
            self.spilled.insert(receipt.sn);
            self.stats.spilled_vexp.set(self.spilled.len() as u64);
        }
        if self.config.hash_mode == HashMode::TrustHostHash {
            self.unaudited.insert(receipt.sn);
        }
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

    /// The device's live weak-key certificates (see
    /// [`super::WormServer::weak_certs`]).
    pub(crate) fn weak_certs(&mut self) -> Result<Vec<WeakKeyCert>, WormError> {
        match execute(&mut self.device, WormRequest::GetKeys)? {
            WormResponse::Keys(_, certs) => Ok(certs),
            other => Err(unexpected(other)),
        }
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
                self.replace(vrd)
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
        // Re-arm spilled expiries while memory allows, from attributes
        // the drain above may just have strengthened.
        self.rearm();
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

    /// Replaces an active VRD and runs the shreds its frame started (the
    /// extents it vacated; see [`Vrdt::replace`]).
    fn replace(&mut self, vrd: Vrd) -> Result<(), WormError> {
        let doomed = self.vrdt.write().replace(vrd)?;
        for state in doomed {
            self.run_shred(state)?;
        }
        Ok(())
    }

    /// Compacts the record store: copies live extents into lower free
    /// space and shreds the vacated originals, reclaiming contiguous room
    /// at the top of the region. Returns how many extents moved.
    ///
    /// Each relocation is ONE journal frame — the owning VRD's `REPLACE`,
    /// which dooms the vacated extent in the same frame — so a crash
    /// either leaves the move undone (old extent still live, the copy
    /// reclaimed by the next recover) or replays it and resumes
    /// destroying the vacated bytes. A relocated record's old plaintext
    /// is exactly as sensitive as its current bytes: leaving it
    /// unshredded would survive the record's eventual deletion.
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
            self.replace(owner)?;
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
                    // Expire under the write lock FIRST; shred after the
                    // lock is dropped. Readers holding the read lock have
                    // finished their store reads before we got the write
                    // lock; later readers see the deletion proof.
                    //
                    // The expiry frame dooms every extent of the record
                    // it removes: a crash either loses the frame (record
                    // still active, nothing destroyed) or replays it and
                    // resumes every pending shred — never a deleted record
                    // whose plaintext quietly survives.
                    self.unaudited.remove(&proof.sn);
                    let doomed = self.vrdt.write().expire(proof, shredder)?;
                    for state in doomed {
                        self.run_shred(state)?;
                    }
                    self.stats.deletion_proofs.inc();
                }
                OutboxItem::Strengthened { sn, field, witness } => {
                    self.stats.strengthened.inc();
                    // A hold or release re-signs `metasig` strongly over new
                    // attributes; the device's queued payload still names
                    // the old ones, so a strong witness is never replaced.
                    let updated = match self.vrdt.read().lookup(sn) {
                        Lookup::Active(v) => {
                            let mut updated = v.clone();
                            let slot = match field {
                                WitnessField::Meta => &mut updated.metasig,
                                WitnessField::Data => &mut updated.datasig,
                            };
                            let weak = !matches!(slot, Witness::Strong(_));
                            *slot = witness;
                            weak.then_some(updated)
                        }
                        _ => None,
                    };
                    if let Some(updated) = updated {
                        self.replace(updated)?;
                    }
                }
                OutboxItem::NewBase(b) => self.vrdt.write().set_base(b)?,
                OutboxItem::NewHead(h) => {
                    self.audit
                        .emit(AuditClass::HeadRemint, None, "head re-minted on heartbeat");
                    self.vrdt.write().set_head(h)?;
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

/// The error a device command failed with, for each write the command
/// carried: a device or firmware error is the only kind [`execute`] and
/// [`unexpected`] give.
fn duplicate(e: &WormError) -> WormError {
    match e {
        WormError::Device(d) => WormError::Device(d.clone()),
        WormError::Firmware(msg) => WormError::Firmware(msg.clone()),
        other => WormError::Firmware(other.to_string()),
    }
}

pub(crate) fn unexpected(resp: WormResponse) -> WormError {
    WormError::Firmware(format!("unexpected firmware response: {resp:?}"))
}
