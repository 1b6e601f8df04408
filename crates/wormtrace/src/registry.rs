//! The metrics registry: named instruments behind a read-mostly lock,
//! and the guard that observes one operation into them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::{Counter, Gauge, OpStats};
use crate::snapshot::StatsSnapshot;
use crate::span::{self, FlightRecorder, OpenSpan, Plane, DEFAULT_FLIGHT_CAPACITY};
use crate::sync::{Rank, RwLock};

/// A deployment's one collection of named instruments, or a lane's
/// handle into it.
///
/// A deployment has one table of instruments, one kill switch and one
/// flight recorder. The root ([`Registry::new`]) owns them: lane 0 of a
/// deployment, which is a standalone server. Every further lane records
/// through a handle from [`Registry::prefixed`], which registers each
/// instrument under its prefix (`shard{i}.`) in the root's table and
/// shares everything else, so a lane's registration code does not know
/// which lane it is.
///
/// Registration takes a write lock; lookup takes a read lock and, on a
/// hit, allocates nothing. The intended pattern is for each subsystem to
/// resolve `Arc` handles to its instruments **once** at construction and
/// record through the handles thereafter, so steady-state recording is
/// pure atomics.
#[derive(Debug)]
pub struct Registry {
    home: Home,
}

#[derive(Debug)]
enum Home {
    Root(Instruments),
    /// A handle into `root`'s instruments, naming under `prefix`.
    Prefixed {
        root: Arc<Registry>,
        prefix: String,
    },
}

#[derive(Debug)]
struct Instruments {
    ops: RwLock<BTreeMap<String, Arc<OpStats>>>,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    flight: FlightRecorder,
    enabled: AtomicBool,
}

/// Longest prefixed name a lookup assembles on the stack; a longer one
/// still resolves, through the registering path.
const NAME_BUF: usize = 128;

impl Default for Registry {
    fn default() -> Self {
        Registry {
            home: Home::Root(Instruments {
                ops: RwLock::new(Rank::RegistryOps, BTreeMap::new()),
                counters: RwLock::new(Rank::RegistryCounters, BTreeMap::new()),
                gauges: RwLock::new(Rank::RegistryGauges, BTreeMap::new()),
                flight: FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY),
                enabled: AtomicBool::new(true),
            }),
        }
    }
}

impl Registry {
    /// An empty, enabled root registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle into `root`'s instruments that registers every name
    /// under `prefix` (after `root`'s own, if it is a handle). Its kill
    /// switch, flight recorder and snapshot are the root's.
    pub fn prefixed(root: &Arc<Registry>, prefix: &str) -> Registry {
        Registry {
            home: Home::Prefixed {
                root: Arc::clone(root),
                prefix: format!("{}{prefix}", root.prefix()),
            },
        }
    }

    fn instruments(&self) -> &Instruments {
        match &self.home {
            Home::Root(own) => own,
            Home::Prefixed { root, .. } => root.instruments(),
        }
    }

    fn prefix(&self) -> &str {
        match &self.home {
            Home::Root(_) => "",
            Home::Prefixed { prefix, .. } => prefix,
        }
    }

    /// Whether guards from [`Registry::observe`] are live.
    pub fn enabled(&self) -> bool {
        // ordering: advisory on/off flag; a stale read just records (or
        // skips) a few more operations, no data is guarded by it.
        self.instruments().enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables recording, for the root and every handle
    /// into it. Disabling makes [`Registry::observe`] return inert
    /// guards; direct counter/gauge handles keep working (they are too
    /// cheap to gate).
    pub fn set_enabled(&self, enabled: bool) {
        // ordering: see `enabled()` — the flag publishes nothing.
        self.instruments().enabled.store(enabled, Ordering::Relaxed);
    }

    /// Begins observing one operation: until the guard finishes (or
    /// drops), one `Instant` pair times it, and that single measurement
    /// becomes both a sample in `op` and — when a request trace is
    /// attached to this thread — a span named `name` on `plane`. While
    /// the registry is disabled the guard is inert and costs this one
    /// relaxed load.
    pub fn observe<'a>(&self, op: &'a OpStats, name: &'static str, plane: Plane) -> Observed<'a> {
        let live = self.enabled().then(|| {
            let started = Instant::now();
            (started, span::open(name, plane, Some(started)))
        });
        Observed { op, live }
    }

    /// Get-or-register `prefix` + `name` in `map`.
    fn get_or_insert<T: Default>(
        map: &RwLock<BTreeMap<String, Arc<T>>>,
        prefix: &str,
        name: &str,
    ) -> Arc<T> {
        let mut buf = [0u8; NAME_BUF];
        let full = if prefix.is_empty() {
            Some(name)
        } else {
            join(&mut buf, prefix, name)
        };
        if let Some(found) = full.and_then(|full| map.read().get(full).cloned()) {
            return found;
        }
        let mut write = map.write();
        Arc::clone(write.entry(format!("{prefix}{name}")).or_default())
    }

    /// Get-or-register the [`OpStats`] called `name`.
    pub fn op(&self, name: &str) -> Arc<OpStats> {
        Self::get_or_insert(&self.instruments().ops, self.prefix(), name)
    }

    /// Get-or-register the [`Counter`] called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::get_or_insert(&self.instruments().counters, self.prefix(), name)
    }

    /// Get-or-register the [`Gauge`] called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::get_or_insert(&self.instruments().gauges, self.prefix(), name)
    }

    /// The span-tree flight recorder: captured slow/error request
    /// traces (see [`crate::span`]).
    pub fn flight(&self) -> &FlightRecorder {
        &self.instruments().flight
    }

    /// A point-in-time, name-sorted copy of every registered instrument,
    /// every handle's included. Sorted order comes for free from the
    /// `BTreeMap`s and makes the snapshot's canonical encoding
    /// deterministic.
    pub fn snapshot(&self) -> StatsSnapshot {
        let own = self.instruments();
        StatsSnapshot {
            ops: own
                .ops
                .read()
                .iter()
                .map(|(name, op)| (name.clone(), op.snapshot()))
                .collect(),
            counters: own
                .counters
                .read()
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: own
                .gauges
                .read()
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
        }
    }
}

/// `prefix` + `name` written into `buf`, or `None` when it does not fit.
fn join<'b>(buf: &'b mut [u8], prefix: &str, name: &str) -> Option<&'b str> {
    let full = buf.get_mut(..prefix.len() + name.len())?;
    let (head, tail) = full.split_at_mut(prefix.len());
    head.copy_from_slice(prefix.as_bytes());
    tail.copy_from_slice(name.as_bytes());
    std::str::from_utf8(full).ok()
}

/// One operation under observation (see [`Registry::observe`]).
///
/// Dropping the guard without [`Observed::finish`] — a panic or an
/// early `?` return — records the operation as failed, once, in both
/// the op's counters and its span.
#[must_use = "an unfinished guard records the operation as failed"]
pub struct Observed<'a> {
    op: &'a OpStats,
    live: Option<(Instant, Option<OpenSpan>)>,
}

impl Observed<'_> {
    /// Ends the observation with the operation's outcome, returning the
    /// measured nanoseconds (`None` from an inert guard).
    pub fn finish(mut self, ok: bool, sn: Option<u64>) -> Option<u64> {
        self.close(ok, sn)
    }

    fn close(&mut self, ok: bool, sn: Option<u64>) -> Option<u64> {
        let (started, span) = self.live.take()?;
        let ns = span::elapsed_ns(started);
        self.op.record(ns, ok);
        if let Some(span) = span {
            span.finish_measured(ok, sn, ns);
        }
        Some(ns)
    }
}

impl Drop for Observed<'_> {
    fn drop(&mut self) {
        self.close(false, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TraceTrigger;

    #[test]
    fn handles_are_shared() {
        let r = Registry::new();
        let a = r.op("x");
        let b = r.op("x");
        a.record(10, true);
        b.record(20, false);
        let snap = r.snapshot();
        let (name, op) = &snap.ops[0];
        assert_eq!(name, "x");
        assert_eq!(op.ok, 1);
        assert_eq!(op.err, 1);
        assert_eq!(op.latency.count(), 2);
    }

    #[test]
    fn span_and_histogram_sample_are_one_measurement() {
        let r = Registry::new();
        let op = r.op("server.read");
        let scope = span::enter(7, 0);
        let guard = r.observe(&op, "server.read", Plane::Read);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ns = guard.finish(true, Some(9)).unwrap();
        let snap = op.snapshot();
        assert_eq!((snap.ok, snap.err, snap.latency.count()), (1, 0, 1));
        let cap = scope.capture(TraceTrigger::Slow, 0).unwrap();
        assert_eq!(cap.spans.len(), 1);
        let recorded = &cap.spans[0];
        assert_eq!(recorded.op, "server.read");
        assert_eq!(recorded.sn, Some(9));
        assert!(recorded.ok);
        // Not "close": the same number, from the same clock pair.
        assert_eq!(recorded.duration_ns, snap.latency.sum_ns);
        assert_eq!(recorded.duration_ns, ns);
        assert!(ns >= 2_000_000);
    }

    #[test]
    fn dropped_guard_records_err_once_in_both_views() {
        fn bails_early(r: &Registry, op: &OpStats) -> Result<(), ()> {
            let guard = r.observe(op, "server.write", Plane::Witness);
            Err::<(), ()>(())?;
            guard.finish(true, None);
            Ok(())
        }
        let r = Registry::new();
        let op = r.op("server.write");
        let scope = span::enter(1, 0);
        assert!(bails_early(&r, &op).is_err());
        // The open-span stack unwound: the next guard is a sibling.
        r.observe(&op, "server.write", Plane::Witness)
            .finish(true, None);
        let snap = op.snapshot();
        assert_eq!((snap.ok, snap.err, snap.latency.count()), (1, 1, 2));
        let cap = scope.capture(TraceTrigger::Error, 0).unwrap();
        assert_eq!(cap.spans.len(), 2);
        assert!(!cap.spans[0].ok);
        assert!(cap.spans[1].ok);
        assert_eq!(cap.spans[1].parent_span, 0);
        assert_eq!(
            cap.spans[0].duration_ns + cap.spans[1].duration_ns,
            snap.latency.sum_ns
        );
    }

    #[test]
    fn disabled_registry_yields_inert_guards() {
        let r = Registry::new();
        let op = r.op("x");
        let scope = span::enter(1, 0);
        let span_count = || scope.capture(TraceTrigger::Slow, 0).unwrap().spans.len();
        r.set_enabled(false);
        assert!(r
            .observe(&op, "x", Plane::Read)
            .finish(true, None)
            .is_none());
        drop(r.observe(&op, "x", Plane::Read));
        assert_eq!(op.snapshot(), crate::OpSnapshot::default());
        assert_eq!(span_count(), 0);
        r.set_enabled(true);
        assert!(r
            .observe(&op, "x", Plane::Read)
            .finish(true, None)
            .is_some());
        assert_eq!(op.snapshot().total(), 1);
        assert_eq!(span_count(), 1);
    }

    #[test]
    fn a_prefixed_handle_names_into_the_root_and_shares_the_rest() {
        let root = Arc::new(Registry::new());
        let lane = Registry::prefixed(&root, "shard1.");
        lane.op("server.read").record(5, true);
        lane.counter("c").add(2);
        assert!(Arc::ptr_eq(
            &lane.op("server.read"),
            &root.op("shard1.server.read")
        ));
        let long = "x".repeat(NAME_BUF);
        assert!(Arc::ptr_eq(&lane.gauge(&long), &lane.gauge(&long)));
        let snap = root.snapshot();
        assert_eq!(snap.op("shard1.server.read").unwrap().ok, 1);
        assert!(snap.op("server.read").is_none());
        assert_eq!(snap.counter("shard1.c"), 2);
        assert_eq!(lane.snapshot(), snap);
        // One kill switch and one flight recorder.
        lane.set_enabled(false);
        assert!(!root.enabled());
        assert!(std::ptr::eq(lane.flight(), root.flight()));
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.op("zeta");
        r.op("alpha");
        r.counter("c2").add(2);
        r.counter("c1").add(1);
        r.gauge("g").set(9);
        let snap = r.snapshot();
        assert_eq!(snap.ops[0].0, "alpha");
        assert_eq!(snap.ops[1].0, "zeta");
        assert_eq!(snap.counters, vec![("c1".into(), 1), ("c2".into(), 2)]);
        assert_eq!(snap.gauge("g"), Some(9));
    }
}
