//! The deployment: N ≥ 1 SCPU lanes behind one facade.
//!
//! The paper's §5 remark (ablation A7) observes that write throughput
//! scales with SCPU count, since each write costs two RSA signatures
//! inside one device. [`ShardedWormServer`] realizes that: the SN space
//! is partitioned into lanes (high byte = lane index, see
//! [`SHARD_LANE_BITS`]), each lane owned by a full [`WormServer`] —
//! its own SCPU device, deferred-signature queue, strengthen machinery,
//! and (optionally) its own [`RetentionDaemon`]. Writes fan out
//! round-robin across lanes and serialize only per lane; reads route
//! deterministically by lane and stay `&self`, host-only, and globally
//! verifiable. A single server is the one-lane case, not a second shape:
//! lane 0 boots exactly as a standalone [`WormServer`], and a standalone
//! one converts into a one-lane deployment (`From<Arc<WormServer>>`).
//!
//! Freshness across lanes is the new obligation: a client must learn
//! not just each lane's head but that it has seen *all* lanes at one
//! instant. The deployment mints that evidence — the composite
//! freshness head — off the hot path, exactly like the per-lane lazy
//! head refresh: per-lane [`HeadCert`]s are folded into a SHA-256 root
//! which lane 0's SCPU signs together with the lane count (see
//! [`crate::proofs::CompositeBinding`]). Theorems 1 and 2 then hold per
//! lane verbatim, and the signed lane count extends Theorem 2 across
//! lanes: hiding an entire lane is as detectable as hiding a record.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use scpu::Clock;
use wormaudit::AuditLog;
use wormcrypt::RsaPublicKey;
use wormstore::{BlockDevice, MemDisk, RecordStore};
use wormtrace::sync::{Rank, RwLock};

use crate::codec::composite_root;
use crate::config::{WitnessMode, WormConfig};
use crate::daemon::{DaemonConfig, RetentionDaemon};
use crate::error::WormError;
use crate::firmware::{DeviceKeys, WeakKeyCert};
use crate::policy::RetentionPolicy;
use crate::proofs::{CompositeHead, HeadCert, ReadOutcome};
use crate::sn::{SerialNumber, MAX_SHARDS, SHARD_LANE_BITS};
use crate::wire::WireWriter;

use super::WormServer;

/// N ≥ 1 lane [`WormServer`]s behind one `&self` facade: the one
/// deployment shape, whatever the lane count.
///
/// Lane `i` issues serial numbers in lane `i` (starting at
/// `i·2^56 + 1`), so within each lane the single-SCPU density
/// invariants — consecutive issue, contiguous base advance, window
/// adjacency — hold unchanged, and lane 0 of a one-lane deployment is
/// bit-for-bit the original single server.
pub struct ShardedWormServer<D: BlockDevice = MemDisk> {
    shards: Vec<Arc<WormServer<D>>>,
    /// Round-robin write cursor.
    cursor: AtomicU32,
    /// Cached composite head, re-minted lazily once lane 0 would refresh
    /// a head of its age (the same policy as the per-lane lazy head
    /// refresh).
    composite: RwLock<Option<CompositeHead>>,
}

impl ShardedWormServer<MemDisk> {
    /// Boots `shard_count` lanes over in-memory, unmetered disks.
    ///
    /// Lane `i` gets `config` with its own SN lane origin and the device
    /// serial and RNG seed `+ i` (distinct SCPUs, distinct keys; lane 0's
    /// device is the configured one).
    ///
    /// # Errors
    ///
    /// Rejects a lane count of 0 or above [`MAX_SHARDS`]; propagates
    /// device failures during per-lane key generation.
    pub fn new(
        config: WormConfig,
        clock: Arc<dyn Clock>,
        regulator: &RsaPublicKey,
        shard_count: u32,
    ) -> Result<Self, WormError> {
        let stores = (0..shard_count)
            .map(|_| RecordStore::new(MemDisk::unmetered(config.store_capacity)))
            .collect();
        Self::with_stores(stores, config, clock, regulator)
    }
}

impl<D: BlockDevice> From<Arc<WormServer<D>>> for ShardedWormServer<D> {
    /// A standalone server as a one-lane deployment: it keeps its keys,
    /// registry and audit journal, and its serial numbers are lane 0's.
    fn from(server: Arc<WormServer<D>>) -> Self {
        Self::over(vec![server])
    }
}

impl<D: BlockDevice> ShardedWormServer<D> {
    /// Boots one lane per caller-supplied record store (store `i` backs
    /// lane `i`). Lane 0 boots exactly as a standalone server, with its
    /// own trace registry and audit journal; every other lane records
    /// into lane 0's registry under `shard{i}.` and chains its integrity
    /// events into lane 0's journal.
    ///
    /// # Errors
    ///
    /// Rejects 0 or more than [`MAX_SHARDS`] stores; propagates device
    /// failures during per-lane key generation.
    pub fn with_stores(
        stores: Vec<RecordStore<D>>,
        config: WormConfig,
        clock: Arc<dyn Clock>,
        regulator: &RsaPublicKey,
    ) -> Result<Self, WormError> {
        if !(1..=MAX_SHARDS as usize).contains(&stores.len()) {
            return Err(WormError::Firmware(format!(
                "shard count must be 1..={MAX_SHARDS}, got {}",
                stores.len()
            )));
        }
        let mut lanes: Vec<Arc<WormServer<D>>> = Vec::with_capacity(stores.len());
        for (lane, store) in (0u64..).zip(stores) {
            // Distinct SCPUs: lane `i`'s device derives its own key
            // material and serial identity, and lane 0's is the one a
            // standalone server would boot.
            let mut lane_config = config.clone();
            lane_config.sn_origin = lane << SHARD_LANE_BITS;
            lane_config.device.serial = config.device.serial.wrapping_add(lane);
            lane_config.device.rng_seed = config.device.rng_seed.wrapping_add(lane);
            let lane0 = lanes.first().map(|lane0| {
                let prefix = format!("shard{lane}.");
                let trace = wormtrace::Registry::prefixed(lane0.trace(), &prefix);
                (Arc::new(trace), Arc::clone(lane0.audit()))
            });
            lanes.push(Arc::new(WormServer::boot(
                store,
                lane_config,
                clock.clone(),
                regulator,
                None,
                lane0,
            )?));
        }
        Ok(Self::over(lanes))
    }

    /// The deployment over `shards`, lane 0 first; at least one.
    fn over(shards: Vec<Arc<WormServer<D>>>) -> Self {
        ShardedWormServer {
            shards,
            cursor: AtomicU32::new(0),
            composite: RwLock::new(Rank::Composite, None),
        }
    }

    /// Lane 0's trace registry, which is the deployment's: every lane
    /// and a network front-end register their instruments there, its
    /// kill switch is the only one, and its flight recorder serves
    /// `Traces`.
    pub fn trace(&self) -> &Arc<wormtrace::Registry> {
        self.coordinator().trace()
    }

    /// The deployment-wide audit journal, lane 0's, shared by every
    /// lane: one hash chain over all lanes' integrity events, anchored by
    /// whichever lane's SCPU ticks past an unanchored tip. Anchors from
    /// different lanes carry different key fingerprints; auditors verify
    /// against the full [`ShardedWormServer::shard_keys`] set.
    pub fn audit(&self) -> &Arc<AuditLog> {
        self.coordinator().audit()
    }

    /// Number of lanes in this deployment.
    pub fn shard_count(&self) -> u32 {
        // At most MAX_SHARDS (checked at boot), so the cast is exact.
        self.shards.len() as u32
    }

    /// The lane with index `lane`, if any.
    pub fn shard(&self, lane: u32) -> Option<&Arc<WormServer<D>>> {
        self.shards.get(usize::try_from(lane).ok()?)
    }

    /// All lanes, in lane order.
    pub fn shards(&self) -> &[Arc<WormServer<D>>] {
        &self.shards
    }

    /// Lane 0 — the SCPU that signs composite bindings, and whose
    /// registry and journal are the deployment's.
    pub fn coordinator(&self) -> &Arc<WormServer<D>> {
        &self.shards[0]
    }

    /// The lane owning `sn`.
    ///
    /// # Errors
    ///
    /// [`WormError::NoSuchShard`] when the SN's lane is outside this
    /// deployment — no SCPU here could ever have issued it.
    pub fn owner(&self, sn: SerialNumber) -> Result<&Arc<WormServer<D>>, WormError> {
        let lane = sn.lane();
        self.shard(lane).ok_or(WormError::NoSuchShard {
            lane,
            shard_count: self.shard_count(),
        })
    }

    /// The next lane to receive a write (round-robin).
    fn next_writer(&self) -> &Arc<WormServer<D>> {
        // ordering: Relaxed suffices — the cursor only balances load; no
        // other memory is published through it, and any interleaving of
        // fetch_add results still yields a valid lane index.
        let n = self.cursor.fetch_add(1, Ordering::Relaxed) as usize;
        &self.shards[n % self.shards.len()]
    }

    /// Runs `f` on every lane, in lane order, whatever the others
    /// return: a failing lane (say, a tampered SCPU) must not starve the
    /// rest of their maintenance. The results, or the first error.
    fn every_lane<T>(
        &self,
        f: impl Fn(&WormServer<D>) -> Result<T, WormError>,
    ) -> Result<Vec<T>, WormError> {
        let results: Vec<_> = self.shards.iter().map(|lane| f(lane)).collect();
        results.into_iter().collect()
    }

    /// Writes a virtual record on the next lane in round-robin order,
    /// using the configured default witness tier. Serialization is per
    /// lane: writes to different lanes proceed in parallel.
    ///
    /// # Errors
    ///
    /// Store, device, or firmware failures on the owning lane.
    pub fn write(
        &self,
        records: &[&[u8]],
        policy: RetentionPolicy,
    ) -> Result<SerialNumber, WormError> {
        self.next_writer().write(records, policy)
    }

    /// Writes with an explicit witness tier and flag bits.
    ///
    /// # Errors
    ///
    /// Store, device, or firmware failures on the owning lane.
    pub fn write_with(
        &self,
        records: &[&[u8]],
        policy: RetentionPolicy,
        flags: u32,
        witness: WitnessMode,
    ) -> Result<SerialNumber, WormError> {
        self.next_writer()
            .write_with(records, policy, flags, witness)
    }

    /// Reads a record by serial number — routed to its owning lane,
    /// host-only, concurrent with writes on every lane.
    ///
    /// # Errors
    ///
    /// [`WormError::NoSuchShard`] for an SN outside every lane;
    /// otherwise the owning lane's errors.
    pub fn read(&self, sn: SerialNumber) -> Result<ReadOutcome, WormError> {
        self.owner(sn)?.read(sn)
    }

    /// [`ShardedWormServer::read`] for a serving path: the owning lane's
    /// [`WormServer::read_into`].
    ///
    /// # Errors
    ///
    /// As [`ShardedWormServer::read`]; `w` is then exactly as it was.
    pub fn read_into(&self, sn: SerialNumber, w: &mut WireWriter) -> Result<(), WormError> {
        self.owner(sn)?.read_into(sn, w)
    }

    /// Places a litigation hold, routed by the credential's SN.
    ///
    /// # Errors
    ///
    /// Routing or owning-lane failures.
    pub fn lit_hold(&self, credential: crate::authority::HoldCredential) -> Result<(), WormError> {
        self.owner(credential.sn)?.lit_hold(credential)
    }

    /// Releases a litigation hold, routed by the credential's SN.
    ///
    /// # Errors
    ///
    /// Routing or owning-lane failures.
    pub fn lit_release(
        &self,
        credential: crate::authority::ReleaseCredential,
    ) -> Result<(), WormError> {
        self.owner(credential.sn)?.lit_release(credential)
    }

    /// Drives due device alarms on every lane.
    ///
    /// # Errors
    ///
    /// The first lane failure, after every lane has been ticked.
    pub fn tick(&self) -> Result<(), WormError> {
        self.every_lane(WormServer::tick).map(drop)
    }

    /// Grants every lane's SCPU an idle budget for deferred work.
    ///
    /// # Errors
    ///
    /// The first lane failure, after every lane has had its budget.
    pub fn idle(&self, budget_ns: u64) -> Result<(), WormError> {
        self.every_lane(|lane| lane.idle(budget_ns)).map(drop)
    }

    /// Compacts eligible expired runs on every lane, returning the total
    /// number of windows created.
    ///
    /// # Errors
    ///
    /// The first lane failure, after every lane has compacted.
    pub fn compact(&self) -> Result<usize, WormError> {
        Ok(self.every_lane(WormServer::compact)?.into_iter().sum())
    }

    /// A cached composite head that lane 0 would not yet refresh.
    fn cached_composite(
        cached: &Option<CompositeHead>,
        lane0: &WormServer<D>,
    ) -> Option<CompositeHead> {
        cached
            .as_ref()
            .filter(|c| !lane0.read_plane.stale(c.binding.issued_at))
            .cloned()
    }

    /// The composite freshness head: every lane's current head folded
    /// into one root, signed by lane 0's SCPU.
    ///
    /// Served from a cache and re-minted lazily when older than the
    /// head-refresh interval — minting costs one RSA signature plus a
    /// head refresh per stale lane, so like each lane's head it stays
    /// off the write hot path.
    ///
    /// # Errors
    ///
    /// Device or firmware failures while refreshing lane heads or
    /// signing the binding.
    pub fn composite_head(&self) -> Result<CompositeHead, WormError> {
        let lane0 = self.coordinator();
        if let Some(cached) = Self::cached_composite(&self.composite.read(), lane0) {
            return Ok(cached);
        }
        let mut guard = self.composite.write();
        // Re-check under the write lock: racing callers collapse into
        // one minting round-trip.
        if let Some(cached) = Self::cached_composite(&guard, lane0) {
            return Ok(cached);
        }
        let heads: Vec<HeadCert> = self
            .shards
            .iter()
            .map(|s| s.current_head())
            .collect::<Result<_, _>>()?;
        let root = composite_root(&heads);
        let binding = lane0.sign_composite(self.shard_count(), root)?;
        let composite = CompositeHead { heads, binding };
        *guard = Some(composite.clone());
        Ok(composite)
    }

    /// Per-lane published keys and weak-key certificates, in lane
    /// order — what a client needs to build a
    /// [`Verifier`](crate::Verifier) over every lane.
    pub fn shard_keys(&self) -> Vec<(DeviceKeys, Vec<WeakKeyCert>)> {
        self.shards
            .iter()
            .map(|s| (s.keys().clone(), s.weak_certs()))
            .collect()
    }

    /// Spawns one [`RetentionDaemon`] per lane (lane order), each
    /// driving its own lane's alarms, idle budget, and compaction
    /// independently.
    pub fn spawn_daemons(&self, config: DaemonConfig) -> Vec<RetentionDaemon>
    where
        D: 'static,
    {
        self.shards
            .iter()
            .map(|s| RetentionDaemon::spawn(Arc::clone(s), config))
            .collect()
    }

    /// A point-in-time copy of the deployment's registry: lane 0's
    /// instruments (and a network front-end's) unprefixed, each further
    /// lane's under `shard{i}.`, so per-lane op rates and daemon health
    /// stay distinguishable.
    pub fn stats_snapshot(&self) -> wormtrace::StatsSnapshot {
        self.trace().snapshot()
    }

    /// Poisons the cached composite head by flipping a bit in its signed
    /// root — **adversarial test hook** modelling a host that serves a
    /// doctored composite. Clients must reject it
    /// ([`VerifyError::CompositeRootMismatch`](crate::VerifyError) or a
    /// bad binding signature), and nothing else about the server
    /// degrades. No-op until a composite has been minted; the poison
    /// washes out at the next lazy refresh.
    #[doc(hidden)]
    pub fn tamper_composite_for_test(&self) {
        let mut guard = self.composite.write();
        if let Some(composite) = guard.as_mut() {
            if let Some(byte) = composite.binding.root.first_mut() {
                *byte ^= 0x01;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::RegulatoryAuthority;
    use crate::client::Verifier;
    use crate::policy::RetentionPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scpu::VirtualClock;
    use std::time::Duration;
    use wormstore::Shredder;

    fn policy() -> RetentionPolicy {
        RetentionPolicy::custom(Duration::from_secs(1_000_000), Shredder::ZeroFill)
    }

    fn regulator() -> RegulatoryAuthority {
        RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(42), 512)
    }

    fn deployment(shards: u32) -> (ShardedWormServer, Arc<VirtualClock>, Verifier) {
        let clock = VirtualClock::starting_at_millis(1000);
        let server = ShardedWormServer::new(
            WormConfig::test_small(),
            clock.clone(),
            regulator().public(),
            shards,
        )
        .unwrap();
        let verifier = verifier(&server, clock.clone());
        (server, clock, verifier)
    }

    /// A verifier over every lane of `server`, each lane's published
    /// weak-key certificates registered.
    fn verifier(server: &ShardedWormServer, clock: Arc<VirtualClock>) -> Verifier {
        let lanes = server.shard_keys();
        let mut v = Verifier::new(&lanes[0].0, Duration::from_secs(300), clock).unwrap();
        for (keys, _) in &lanes[1..] {
            v.add_lane(keys).unwrap();
        }
        for cert in lanes.into_iter().flat_map(|(_, certs)| certs) {
            v.add_weak_cert(cert).unwrap();
        }
        v
    }

    #[test]
    fn writes_fan_out_across_lanes() {
        let (server, _clock, verifier) = deployment(4);
        let mut sns = Vec::new();
        for i in 0..8u8 {
            let sn = server
                .write(&[format!("rec{i}").as_bytes()], policy())
                .unwrap();
            sns.push(sn);
        }
        let lanes: std::collections::BTreeSet<u32> = sns.iter().map(|sn| sn.lane()).collect();
        assert_eq!(lanes.len(), 4, "round-robin must touch every shard");
        for sn in &sns {
            let outcome = server.read(*sn).unwrap();
            let verdict = verifier.verify_read(*sn, &outcome).unwrap();
            assert_eq!(verdict, crate::ReadVerdict::Intact { sn: *sn });
        }
    }

    #[test]
    fn per_lane_sn_density() {
        let (server, _clock, _verifier) = deployment(2);
        for _ in 0..6 {
            server.write(&[b"x"], policy()).unwrap();
        }
        // 3 writes per lane, dense within each lane.
        for lane in 0..2u32 {
            let origin = SerialNumber::lane_origin(lane);
            for k in 1..=3u64 {
                let outcome = server.read(SerialNumber(origin + k)).unwrap();
                assert_eq!(outcome.kind(), "data", "lane {lane} sn {k}");
            }
        }
    }

    #[test]
    fn composite_head_verifies_and_caches() {
        let (server, _clock, verifier) = deployment(3);
        server.write(&[b"a"], policy()).unwrap();
        let c1 = server.composite_head().unwrap();
        verifier.verify_composite(&c1).unwrap();
        assert_eq!(c1.heads.len(), 3);
        assert_eq!(c1.binding.shard_count, 3);
        // Within the refresh interval the cached composite is reused.
        let c2 = server.composite_head().unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn composite_head_refreshes_when_stale() {
        let (server, clock, verifier) = deployment(2);
        let c1 = server.composite_head().unwrap();
        clock.advance(Duration::from_secs(10_000));
        let c2 = server.composite_head().unwrap();
        assert_ne!(c1.binding.issued_at, c2.binding.issued_at);
        verifier.verify_composite(&c2).unwrap();
    }

    #[test]
    fn tampered_composite_is_rejected() {
        let (server, _clock, verifier) = deployment(2);
        let _ = server.composite_head().unwrap();
        server.tamper_composite_for_test();
        let tampered = server.composite_head().unwrap();
        assert!(matches!(
            verifier.verify_composite(&tampered),
            Err(crate::VerifyError::BadSignature(_))
                | Err(crate::VerifyError::CompositeRootMismatch)
        ));
    }

    #[test]
    fn composite_with_missing_shard_is_rejected() {
        let (server, _clock, verifier) = deployment(3);
        let mut c = server.composite_head().unwrap();
        // Host pretends the deployment has 2 shards: drop the last head
        // and rebuild the root — the signed shard count gives it away.
        c.heads.pop();
        c.binding.shard_count = 2;
        c.binding.root = composite_root(&c.heads);
        assert!(verifier.verify_composite(&c).is_err());
    }

    #[test]
    fn evidence_cannot_cross_lanes() {
        let (server, _clock, verifier) = deployment(2);
        let sn0 = server.write(&[b"zero"], policy()).unwrap();
        let sn1 = server.write(&[b"one"], policy()).unwrap();
        assert_ne!(sn0.lane(), sn1.lane());
        // Splice shard A's (valid) outcome onto a query shard B owns:
        // lane routing sends verification to B's keys, which reject it.
        let outcome0 = server.read(sn0).unwrap();
        assert!(verifier.verify_read(sn1, &outcome0).is_err());
    }

    #[test]
    fn shards_hold_distinct_keys_that_reject_each_others_evidence() {
        let (server, clock, verifier) = deployment(2);
        let keys = server.shard_keys();
        assert_ne!(keys[0].0.sign.fingerprint(), keys[1].0.sign.fingerprint());
        // A lane-1 record verifies under lane 1's keys only: not under a
        // verifier that holds lane 0 alone, nor one whose lanes are
        // swapped.
        server.write(&[b"lane 0 record"], policy()).unwrap();
        let sn = server.write(&[b"lane record"], policy()).unwrap();
        assert_eq!(sn.lane(), 1);
        let outcome = server.read(sn).unwrap();
        let lane0_only = Verifier::new(&keys[0].0, Duration::from_secs(300), clock.clone());
        assert!(matches!(
            lane0_only.unwrap().verify_read(sn, &outcome),
            Err(crate::VerifyError::ShardNotBound { lane: 1 })
        ));
        let mut swapped = Verifier::new(&keys[1].0, Duration::from_secs(300), clock).unwrap();
        swapped.add_lane(&keys[0].0).unwrap();
        assert!(swapped.verify_read(sn, &outcome).is_err());
        assert!(verifier.verify_read(sn, &outcome).is_ok());
    }

    #[test]
    fn tick_expires_records_on_every_shard() {
        let (server, clock, verifier) = deployment(3);
        let short = RetentionPolicy::custom(Duration::from_secs(50), Shredder::ZeroFill);
        let sns: Vec<_> = (0..9)
            .map(|i| server.write(&[format!("r{i}").as_bytes()], short).unwrap())
            .collect();
        clock.advance(Duration::from_secs(60));
        server.tick().unwrap();
        for sn in sns {
            let outcome = server.read(sn).unwrap();
            assert_eq!(outcome.kind(), "deleted", "{sn}");
            assert!(matches!(
                verifier.verify_read(sn, &outcome).unwrap(),
                crate::ReadVerdict::ConfirmedDeleted { .. }
            ));
        }
    }

    #[test]
    fn a_failing_lane_does_not_stop_maintenance_on_the_others() {
        let (server, clock, verifier) = deployment(2);
        let short = RetentionPolicy::custom(Duration::from_secs(50), Shredder::ZeroFill);
        let sns: Vec<_> = (0..4)
            .map(|i| server.write(&[format!("r{i}").as_bytes()], short).unwrap())
            .collect();
        server
            .coordinator()
            .tamper_device(scpu::TamperCause::Penetration);
        clock.advance(Duration::from_secs(60));
        assert!(server.tick().is_err(), "lane 0's SCPU is gone");
        assert!(server.idle(1_000_000).is_err());
        assert!(server.compact().is_err());
        for sn in sns.into_iter().filter(|sn| sn.lane() == 1) {
            let outcome = server.read(sn).unwrap();
            assert_eq!(outcome.kind(), "deleted", "{sn}");
            assert!(matches!(
                verifier.verify_read(sn, &outcome).unwrap(),
                crate::ReadVerdict::ConfirmedDeleted { .. }
            ));
        }
    }

    #[test]
    fn one_lane_is_the_standalone_server() {
        let clock = VirtualClock::starting_at_millis(1000);
        let booted = ShardedWormServer::new(
            WormConfig::test_small(),
            clock.clone(),
            regulator().public(),
            1,
        )
        .unwrap();
        let standalone =
            WormServer::new(WormConfig::test_small(), clock, regulator().public()).unwrap();
        let converted = ShardedWormServer::from(Arc::new(standalone));
        assert_eq!(booted.shard_keys(), converted.shard_keys());
        for deployment in [&booted, &converted] {
            let sn = deployment.write(&[b"first"], policy()).unwrap();
            assert_eq!(sn, SerialNumber(1));
            assert_eq!(
                deployment.stats_snapshot(),
                deployment.coordinator().stats_snapshot()
            );
        }
    }

    #[test]
    fn a_weak_certificate_lands_on_the_lane_that_signed_it() {
        let (server, clock, mut verifier) = deployment(3);
        // Past the weak key's lifetime each lane's next deferred write
        // rotates its weak key, publishing a second certificate.
        clock.advance(WormConfig::test_small().weak_lifetime + Duration::from_secs(60));
        for _ in 0..3 {
            server
                .write_with(&[b"deferred"], policy(), 0, WitnessMode::Deferred)
                .unwrap();
        }
        for (lane, (_, certs)) in (0u32..).zip(server.shard_keys()) {
            assert_eq!(certs.len(), 2, "lane {lane} rotated");
            verifier.add_weak_cert(certs[1].clone()).unwrap();
        }
        for (lane, (_, certs)) in (0u32..).zip(server.shard_keys()) {
            assert_eq!(verifier.weak_certs(lane), &certs[..], "lane {lane}");
        }

        // A certificate no lane signed: one from lane 3 of a four-lane
        // deployment (an SCPU this verifier holds no lane for), and one
        // of this deployment's with its expiry pushed out.
        let (other, _, _) = deployment(4);
        let foreign = other.shard(3).unwrap().keys().weak_cert.clone();
        let mut forged = server.shard_keys()[2].1[1].clone();
        forged.max_sig_expiry = forged.max_sig_expiry.after(Duration::from_secs(1));
        let before: Vec<_> = (0..3).map(|lane| verifier.weak_certs(lane).len()).collect();
        for cert in [foreign, forged] {
            assert!(matches!(
                verifier.add_weak_cert(cert),
                Err(crate::VerifyError::BadSignature("weak key certificate"))
            ));
        }
        let after: Vec<_> = (0..3).map(|lane| verifier.weak_certs(lane).len()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn zero_shards_is_rejected() {
        let clock = VirtualClock::new();
        let booted =
            ShardedWormServer::new(WormConfig::test_small(), clock, regulator().public(), 0);
        assert!(matches!(booted, Err(WormError::Firmware(_))));
    }

    #[test]
    fn out_of_lane_sn_is_routed_nowhere() {
        for shards in [1, 2] {
            let (server, _clock, verifier) = deployment(shards);
            let foreign = SerialNumber(SerialNumber::lane_origin(7) + 1);
            assert!(matches!(
                server.read(foreign),
                Err(WormError::NoSuchShard { lane: 7, shard_count }) if shard_count == shards
            ));
            // An honest lane-0 answer presented for it is refused before
            // any signature is looked at.
            let outcome = server.read(SerialNumber(1)).unwrap();
            assert!(matches!(
                verifier.verify_read(foreign, &outcome),
                Err(crate::VerifyError::ShardNotBound { lane: 7 })
            ));
        }
    }

    #[test]
    fn merged_stats_are_per_shard() {
        let (server, _clock, _verifier) = deployment(2);
        server.write(&[b"a"], policy()).unwrap();
        server.write(&[b"b"], policy()).unwrap();
        let stats = server.stats_snapshot();
        // Lane 0's instruments are the deployment's, unprefixed; lane 1's
        // carry its prefix.
        let writes = |name: &str| stats.op(name).map(|o| o.ok + o.err).unwrap();
        assert_eq!(writes("server.write"), 1);
        assert_eq!(writes("shard1.server.write"), 1);
        assert!(stats.op("shard0.server.write").is_none());
        assert!(stats.counter("audit.emitted") > 0);
    }

    #[test]
    fn the_kill_switch_reaches_every_lane() {
        let (server, _clock, _verifier) = deployment(2);
        server.trace().set_enabled(false);
        let sns = [b"a", b"b"].map(|body| server.write(&[body], policy()).unwrap());
        assert_eq!(sns.map(SerialNumber::lane), [0, 1]);
        for sn in sns {
            server.read(sn).unwrap();
        }
        let stats = server.stats_snapshot();
        for lane in ["", "shard1."] {
            for op in ["server.write", "server.read"] {
                let name = format!("{lane}{op}");
                assert_eq!(stats.op(&name).map(|o| o.total()), Some(0), "{name}");
            }
        }
    }

    #[test]
    fn every_lane_shares_the_deployments_flight_recorder() {
        let (server, _clock, _verifier) = deployment(2);
        let lane1 = server.shard(1).unwrap().trace();
        assert!(std::ptr::eq(lane1.flight(), server.trace().flight()));
    }

    /// A medium that notes which ranked locks its callers hold.
    #[derive(Clone)]
    struct Probe {
        disk: Arc<MemDisk>,
        seen: Arc<std::sync::Mutex<Vec<Vec<wormtrace::sync::Rank>>>>,
    }

    impl Probe {
        fn note(&self) {
            self.seen.lock().unwrap().push(wormtrace::sync::held());
        }

        fn saw(&self, ranks: &[wormtrace::sync::Rank]) -> bool {
            self.seen.lock().unwrap().iter().any(|held| held == ranks)
        }
    }

    impl BlockDevice for Probe {
        fn capacity(&self) -> u64 {
            self.disk.capacity()
        }

        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), wormstore::BlockError> {
            self.note();
            self.disk.read_at(offset, buf)
        }

        fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), wormstore::BlockError> {
            self.note();
            self.disk.write_at(offset, data)
        }

        fn stats(&self) -> wormstore::IoStats {
            self.disk.stats()
        }

        fn reset_stats(&self) {
            self.disk.reset_stats()
        }
    }

    /// The two deepest nestings the serving path has pass the rank
    /// check: a hot read copies the record out under the VRDT guard,
    /// and a composite head journals each stale lane head under the
    /// composite, witness and VRDT locks. (Release builds track no
    /// ranks, so there the probe sees none.)
    #[test]
    fn hot_reads_and_composite_heads_take_locks_in_rank_order() {
        use wormtrace::sync::Rank;
        let clock = VirtualClock::starting_at_millis(1000);
        let probe = Probe {
            disk: Arc::new(MemDisk::unmetered(1 << 20)),
            seen: Arc::default(),
        };
        let lane = WormServer::with_durable(
            probe.clone(),
            256 << 10,
            WormConfig::test_small(),
            clock.clone(),
            regulator().public(),
        )
        .unwrap();
        let server = ShardedWormServer::from(Arc::new(lane));
        let sn = server.write(&[b"hot"], policy()).unwrap();

        probe.seen.lock().unwrap().clear();
        server.read_into(sn, &mut WireWriter::new()).unwrap();
        assert!(probe.saw(&[Rank::Vrdt]) || !cfg!(debug_assertions));

        clock.advance(Duration::from_secs(10_000));
        server.composite_head().unwrap();
        assert!(
            probe.saw(&[Rank::Composite, Rank::Witness, Rank::Vrdt]) || !cfg!(debug_assertions)
        );
    }

    #[test]
    fn daemons_run_per_shard() {
        let (server, _clock, _verifier) = deployment(2);
        let daemons = server.spawn_daemons(DaemonConfig {
            interval: Duration::from_millis(1),
            ..DaemonConfig::default()
        });
        assert_eq!(daemons.len(), 2);
        std::thread::sleep(Duration::from_millis(20));
        for d in &daemons {
            assert!(d.is_running());
            assert!(d.passes() > 0);
        }
        for d in daemons {
            d.stop().unwrap();
        }
    }
}
