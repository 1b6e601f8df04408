//! The sharded witness plane: N SCPUs behind one facade.
//!
//! The paper's §5 remark (ablation A7) observes that write throughput
//! scales with SCPU count, since each write costs two RSA signatures
//! inside one device. [`ShardedWormServer`] realizes that: the SN space
//! is partitioned into lanes (high byte = shard index, see
//! [`SHARD_LANE_BITS`]), each lane owned by a full [`WormServer`] —
//! its own SCPU device, deferred-signature queue, strengthen machinery,
//! and (optionally) its own [`RetentionDaemon`]. Writes fan out
//! round-robin across shards and serialize only per shard; reads route
//! deterministically by lane and stay `&self`, host-only, and globally
//! verifiable.
//!
//! Freshness across shards is the new obligation: a client must learn
//! not just each shard's head but that it has seen *all* shards at one
//! instant. [`ShardRouter`] mints that evidence — the composite
//! freshness head — off the hot path, exactly like the single-server
//! lazy head refresh: per-shard [`HeadCert`]s are folded into a SHA-256
//! root which the coordinator shard's SCPU signs together with the
//! shard count (see [`crate::proofs::CompositeBinding`]). Theorems 1
//! and 2 then hold per lane verbatim, and the signed shard count
//! extends Theorem 2 across lanes: hiding an entire shard is as
//! detectable as hiding a record.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use scpu::Clock;
use wormaudit::AuditLog;
use wormcrypt::RsaPublicKey;
use wormstore::{BlockDevice, MemDisk, RecordStore};

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

/// Deterministic SN→shard routing plus the composite-head cache.
///
/// The router is pure coordination state — it holds no keys and signs
/// nothing itself; minting goes through the coordinator shard's SCPU.
pub struct ShardRouter {
    shard_count: u32,
    /// Round-robin write cursor.
    cursor: AtomicU32,
    /// Cached composite head, refreshed lazily when older than the
    /// deployment's head-refresh interval (same policy as the
    /// single-server lazy head refresh).
    composite: RwLock<Option<CompositeHead>>,
    head_refresh_interval: Duration,
    clock: Arc<dyn Clock>,
}

impl ShardRouter {
    /// Builds a router over `shard_count` lanes.
    pub fn new(shard_count: u32, head_refresh_interval: Duration, clock: Arc<dyn Clock>) -> Self {
        ShardRouter {
            shard_count,
            cursor: AtomicU32::new(0),
            composite: RwLock::new(None),
            head_refresh_interval,
            clock,
        }
    }

    /// Number of shard lanes routed.
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// The shard lane owning `sn`.
    ///
    /// # Errors
    ///
    /// [`WormError::NoSuchShard`] when the SN's lane is outside this
    /// deployment — no SCPU here could ever have issued it.
    pub fn route(&self, sn: SerialNumber) -> Result<usize, WormError> {
        let lane = sn.lane();
        if lane >= self.shard_count {
            return Err(WormError::NoSuchShard {
                lane,
                shard_count: self.shard_count,
            });
        }
        Ok(lane as usize)
    }

    /// The next shard to receive a write (round-robin).
    pub fn next_write_shard(&self) -> usize {
        // ordering: Relaxed suffices — the cursor only balances load; no
        // other memory is published through it, and any interleaving of
        // fetch_add results still yields a valid shard index.
        let n = self.cursor.fetch_add(1, Ordering::Relaxed);
        (n % self.shard_count) as usize
    }

    fn cached_composite(&self) -> Option<CompositeHead> {
        let guard = self.composite.read();
        let composite = guard.as_ref()?;
        let age = self.clock.now().since(composite.binding.issued_at);
        (age < self.head_refresh_interval).then(|| composite.clone())
    }
}

/// N lane-sharded [`WormServer`]s behind one `&self` facade.
///
/// Shard `i` issues serial numbers in lane `i` (starting at
/// `i·2^56 + 1`), so within each lane the single-SCPU density
/// invariants — consecutive issue, contiguous base advance, window
/// adjacency — hold unchanged, and shard 0 of a one-shard deployment is
/// bit-for-bit the original single server.
pub struct ShardedWormServer<D: BlockDevice = MemDisk> {
    shards: Vec<Arc<WormServer<D>>>,
    router: ShardRouter,
    /// Router-level instruments (network front-ends, fan-out stats) —
    /// distinct from the per-shard registries, merged unprefixed into
    /// [`ShardedWormServer::stats_snapshot`].
    trace: Arc<wormtrace::Registry>,
    /// One deployment-wide audit journal shared by every lane: shard
    /// events chain into a single sequence, and its `audit.*` counters
    /// register on the router registry (so pollers see them unprefixed).
    audit: Arc<AuditLog>,
}

impl ShardedWormServer<MemDisk> {
    /// Boots `shard_count` shards over in-memory, unmetered disks.
    ///
    /// Each shard gets `config` with its own SN lane origin and a
    /// distinct device serial / RNG seed (distinct SCPUs, distinct
    /// keys).
    ///
    /// # Errors
    ///
    /// Rejects a shard count of 0 or above [`MAX_SHARDS`]; propagates
    /// device failures during per-shard key generation.
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

impl<D: BlockDevice> ShardedWormServer<D> {
    /// Boots one shard per caller-supplied record store (store `i`
    /// backs shard lane `i`).
    ///
    /// # Errors
    ///
    /// Rejects 0 or more than [`MAX_SHARDS`] stores; propagates device
    /// failures during per-shard key generation.
    pub fn with_stores(
        stores: Vec<RecordStore<D>>,
        config: WormConfig,
        clock: Arc<dyn Clock>,
        regulator: &RsaPublicKey,
    ) -> Result<Self, WormError> {
        let shard_count = u32::try_from(stores.len())
            .ok()
            .filter(|n| (1..=MAX_SHARDS).contains(n))
            .ok_or_else(|| {
                WormError::Firmware(format!(
                    "shard count must be 1..={MAX_SHARDS}, got {}",
                    stores.len()
                ))
            })?;
        // Router registry and the shared audit journal come first: every
        // shard emits into the one journal, whose counters live on the
        // router registry (merged unprefixed into the stats snapshot).
        let trace = Arc::new(wormtrace::Registry::new());
        let audit_clock = Arc::clone(&clock);
        let audit = Arc::new(AuditLog::new(
            wormaudit::DEFAULT_JOURNAL_CAPACITY,
            &trace,
            Box::new(move || audit_clock.now().as_millis()),
        ));
        let mut shards = Vec::with_capacity(stores.len());
        for (i, store) in stores.into_iter().enumerate() {
            let lane = i as u64;
            let mut shard_config = config.clone();
            shard_config.sn_origin = lane << SHARD_LANE_BITS;
            // Distinct SCPUs: each shard's device derives its own key
            // material and serial identity.
            shard_config.device.serial = config.device.serial.wrapping_add(lane);
            shard_config.device.rng_seed = config.device.rng_seed.wrapping_add(1 + lane);
            shards.push(Arc::new(WormServer::with_store_and_audit(
                store,
                shard_config,
                clock.clone(),
                regulator,
                Arc::clone(&audit),
            )?));
        }
        Ok(ShardedWormServer {
            shards,
            router: ShardRouter::new(shard_count, config.head_refresh_interval, clock),
            trace,
            audit,
        })
    }

    /// The router-level trace registry: instruments that belong to the
    /// deployment as a whole (e.g. a network front-end's counters)
    /// rather than to any one shard.
    pub fn trace(&self) -> &Arc<wormtrace::Registry> {
        &self.trace
    }

    /// The deployment-wide audit journal (shared by every lane): one
    /// hash chain over all shards' integrity events, anchored by
    /// whichever shard's SCPU ticks past an unanchored tip. Anchors from
    /// different lanes carry different key fingerprints; auditors verify
    /// against the full [`ShardedWormServer::shard_keys`] set.
    pub fn audit(&self) -> &Arc<AuditLog> {
        &self.audit
    }

    /// Number of shards (= SN lanes) in this deployment.
    pub fn shard_count(&self) -> u32 {
        self.router.shard_count()
    }

    /// The shard owning lane `lane`, if any.
    pub fn shard(&self, lane: u32) -> Option<&Arc<WormServer<D>>> {
        self.shards.get(usize::try_from(lane).ok()?)
    }

    /// All shards, in lane order.
    pub fn shards(&self) -> &[Arc<WormServer<D>>] {
        &self.shards
    }

    /// The coordinator shard (lane 0) — the SCPU that signs composite
    /// bindings. The constructor guarantees at least one shard.
    pub fn coordinator(&self) -> &Arc<WormServer<D>> {
        &self.shards[0]
    }

    /// The SN→shard router (routing decisions and the composite cache).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    fn owner(&self, sn: SerialNumber) -> Result<&Arc<WormServer<D>>, WormError> {
        let idx = self.router.route(sn)?;
        self.shards.get(idx).ok_or(WormError::NoSuchShard {
            lane: sn.lane(),
            shard_count: self.router.shard_count(),
        })
    }

    /// Writes a virtual record on the next shard in round-robin order,
    /// using the configured default witness tier. Serialization is per
    /// shard: writes to different shards proceed in parallel.
    ///
    /// # Errors
    ///
    /// Store, device, or firmware failures on the owning shard.
    pub fn write(
        &self,
        records: &[&[u8]],
        policy: RetentionPolicy,
    ) -> Result<SerialNumber, WormError> {
        self.shards[self.router.next_write_shard()].write(records, policy)
    }

    /// Writes with an explicit witness tier and flag bits.
    ///
    /// # Errors
    ///
    /// Store, device, or firmware failures on the owning shard.
    pub fn write_with(
        &self,
        records: &[&[u8]],
        policy: RetentionPolicy,
        flags: u32,
        witness: WitnessMode,
    ) -> Result<SerialNumber, WormError> {
        self.shards[self.router.next_write_shard()].write_with(records, policy, flags, witness)
    }

    /// Reads a record by serial number — routed to its owning lane,
    /// host-only, concurrent with writes on every shard.
    ///
    /// # Errors
    ///
    /// [`WormError::NoSuchShard`] for an SN outside every lane;
    /// otherwise the owning shard's errors.
    pub fn read(&self, sn: SerialNumber) -> Result<ReadOutcome, WormError> {
        self.owner(sn)?.read(sn)
    }

    /// [`ShardedWormServer::read`] for a serving path: the owning
    /// shard's [`WormServer::read_into`].
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
    /// Routing or owning-shard failures.
    pub fn lit_hold(&self, credential: crate::authority::HoldCredential) -> Result<(), WormError> {
        self.owner(credential.sn)?.lit_hold(credential)
    }

    /// Releases a litigation hold, routed by the credential's SN.
    ///
    /// # Errors
    ///
    /// Routing or owning-shard failures.
    pub fn lit_release(
        &self,
        credential: crate::authority::ReleaseCredential,
    ) -> Result<(), WormError> {
        self.owner(credential.sn)?.lit_release(credential)
    }

    /// Drives due device alarms on every shard.
    ///
    /// # Errors
    ///
    /// The first shard failure encountered (remaining shards are still
    /// ticked on the next pass).
    pub fn tick(&self) -> Result<(), WormError> {
        for shard in &self.shards {
            shard.tick()?;
        }
        Ok(())
    }

    /// Grants every shard's SCPU an idle budget for deferred work.
    ///
    /// # Errors
    ///
    /// The first shard failure encountered.
    pub fn idle(&self, budget_ns: u64) -> Result<(), WormError> {
        for shard in &self.shards {
            shard.idle(budget_ns)?;
        }
        Ok(())
    }

    /// Compacts eligible expired runs on every shard, returning the
    /// total number of windows created.
    ///
    /// # Errors
    ///
    /// The first shard failure encountered.
    pub fn compact(&self) -> Result<usize, WormError> {
        let mut total = 0;
        for shard in &self.shards {
            total += shard.compact()?;
        }
        Ok(total)
    }

    /// The composite freshness head: every shard's current head folded
    /// into one root, signed by the coordinator shard's SCPU.
    ///
    /// Served from a cache and re-minted lazily when older than the
    /// head-refresh interval — composite minting costs one RSA
    /// signature plus a head refresh per stale shard, so like the
    /// single-server head it stays off the write hot path.
    ///
    /// # Errors
    ///
    /// Device or firmware failures while refreshing shard heads or
    /// signing the binding.
    pub fn composite_head(&self) -> Result<CompositeHead, WormError> {
        if let Some(cached) = self.router.cached_composite() {
            return Ok(cached);
        }
        let mut guard = self.router.composite.write();
        // Re-check under the write lock: racing callers collapse into
        // one minting round-trip.
        if let Some(composite) = guard.as_ref() {
            let age = self.router.clock.now().since(composite.binding.issued_at);
            if age < self.router.head_refresh_interval {
                return Ok(composite.clone());
            }
        }
        let heads: Vec<HeadCert> = self
            .shards
            .iter()
            .map(|s| s.current_head())
            .collect::<Result<_, _>>()?;
        let root = composite_root(&heads);
        let binding = self.shards[0].sign_composite(self.router.shard_count(), root)?;
        let composite = CompositeHead { heads, binding };
        *guard = Some(composite.clone());
        Ok(composite)
    }

    /// Per-shard published keys and weak-key certificates, in lane
    /// order — what a client needs to build a
    /// [`CompositeVerifier`](crate::CompositeVerifier).
    pub fn shard_keys(&self) -> Vec<(DeviceKeys, Vec<WeakKeyCert>)> {
        self.shards
            .iter()
            .map(|s| (s.keys().clone(), s.weak_certs()))
            .collect()
    }

    /// Spawns one [`RetentionDaemon`] per shard (lane order), each
    /// driving its own shard's alarms, idle budget, and compaction
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

    /// A merged point-in-time stats snapshot: router-level instruments
    /// unprefixed, plus each shard's instruments under a `shard{i}.`
    /// prefix, so per-shard op rates and daemon health stay
    /// distinguishable after the merge.
    pub fn stats_snapshot(&self) -> wormtrace::StatsSnapshot {
        let mut merged = self.trace.snapshot();
        for (i, shard) in self.shards.iter().enumerate() {
            let snap = shard.stats_snapshot();
            let prefix = format!("shard{i}.");
            // A constant prefix preserves each snapshot's sorted name
            // order, which `merge` relies on.
            let prefixed = wormtrace::StatsSnapshot {
                ops: snap
                    .ops
                    .into_iter()
                    .map(|(n, v)| (format!("{prefix}{n}"), v))
                    .collect(),
                counters: snap
                    .counters
                    .into_iter()
                    .map(|(n, v)| (format!("{prefix}{n}"), v))
                    .collect(),
                gauges: snap
                    .gauges
                    .into_iter()
                    .map(|(n, v)| (format!("{prefix}{n}"), v))
                    .collect(),
            };
            merged.merge(&prefixed);
        }
        merged
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
        let mut guard = self.router.composite.write();
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
    use crate::client::{CompositeVerifier, Verifier, VerifyRead};
    use crate::policy::RetentionPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scpu::VirtualClock;
    use std::time::Duration;
    use wormstore::Shredder;

    fn policy() -> RetentionPolicy {
        RetentionPolicy::custom(Duration::from_secs(1_000_000), Shredder::ZeroFill)
    }

    fn deployment(shards: u32) -> (ShardedWormServer, Arc<VirtualClock>, CompositeVerifier) {
        let clock = VirtualClock::starting_at_millis(1000);
        let authority = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(42), 512);
        let server = ShardedWormServer::new(
            WormConfig::test_small(),
            clock.clone(),
            authority.public(),
            shards,
        )
        .unwrap();
        let verifier = composite_verifier(&server, clock.clone());
        (server, clock, verifier)
    }

    fn composite_verifier(
        server: &ShardedWormServer,
        clock: Arc<VirtualClock>,
    ) -> CompositeVerifier {
        let shards = server
            .shard_keys()
            .into_iter()
            .map(|(keys, weak_certs)| {
                let mut v = Verifier::new(&keys, Duration::from_secs(300), clock.clone()).unwrap();
                for cert in weak_certs {
                    v.add_weak_cert(cert).unwrap();
                }
                v
            })
            .collect();
        CompositeVerifier::new(shards)
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
        let (server, clock, _verifier) = deployment(2);
        let keys = server.shard_keys();
        assert_ne!(keys[0].0.sign.fingerprint(), keys[1].0.sign.fingerprint());
        // Same SN, same outcome, the other lane's SCPU keys: only the
        // owning shard's verifier accepts.
        let sn = server.write(&[b"lane record"], policy()).unwrap();
        let outcome = server.read(sn).unwrap();
        for (lane, (lane_keys, _)) in (0u32..).zip(&keys) {
            let v = Verifier::new(lane_keys, Duration::from_secs(300), clock.clone()).unwrap();
            assert_eq!(v.verify_read(sn, &outcome).is_ok(), lane == sn.lane());
        }
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
    fn zero_shards_is_rejected() {
        let clock = VirtualClock::new();
        let authority = RegulatoryAuthority::generate(&mut StdRng::seed_from_u64(42), 512);
        let booted = ShardedWormServer::new(WormConfig::test_small(), clock, authority.public(), 0);
        assert!(matches!(booted, Err(WormError::Firmware(_))));
    }

    #[test]
    fn out_of_lane_sn_is_routed_nowhere() {
        let (server, _clock, _verifier) = deployment(2);
        let foreign = SerialNumber(SerialNumber::lane_origin(7) + 1);
        assert!(matches!(
            server.read(foreign),
            Err(WormError::NoSuchShard {
                lane: 7,
                shard_count: 2
            })
        ));
    }

    #[test]
    fn merged_stats_are_per_shard() {
        let (server, _clock, _verifier) = deployment(2);
        server.write(&[b"a"], policy()).unwrap();
        server.write(&[b"b"], policy()).unwrap();
        let stats = server.stats_snapshot();
        let s0 = stats
            .op("shard0.server.write")
            .map(|o| o.ok + o.err)
            .unwrap();
        let s1 = stats
            .op("shard1.server.write")
            .map(|o| o.ok + o.err)
            .unwrap();
        assert_eq!(s0 + s1, 2);
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
