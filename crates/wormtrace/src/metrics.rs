//! Atomic counters, gauges, and log2 latency histograms.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets in a [`Histogram`].
///
/// Bucket 0 holds exact-zero samples; bucket `i` (for `1 <= i < 31`)
/// holds `[2^(i-1), 2^i)` nanoseconds; the last bucket is open-ended.
/// 32 buckets span sub-nanosecond to ~2.1 s in distinct buckets, which
/// covers every latency this stack produces (including virtual-time
/// SCPU costs), with a catch-all above.
pub const NUM_BUCKETS: usize = 32;

/// The log2 bucket a nanosecond value falls into.
pub fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (64 - ns.leading_zeros() as usize).min(NUM_BUCKETS - 1)
    }
}

/// Inclusive lower and exclusive upper bound of bucket `i` in
/// nanoseconds; the last bucket has no upper bound.
pub fn bucket_bounds(i: usize) -> (u64, Option<u64>) {
    match i {
        0 => (0, Some(1)),
        _ if i < NUM_BUCKETS - 1 => (1 << (i - 1), Some(1 << i)),
        _ => (1 << (NUM_BUCKETS - 2), None),
    }
}

/// A monotonically increasing event counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ordering: pure statistic — fetch_add is atomic at every
        // ordering, and the count orders nothing else.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed) // ordering: statistic read; see `add`
    }
}

/// A last-value instrument for levels (queue depth, backoff, spill
/// count). Unlike [`Counter`], it can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    pub fn set(&self, v: u64) {
        // ordering: a gauge is an approximate level indicator; no
        // reader makes a control decision that needs happens-before.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the level by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed); // ordering: see `set`
    }

    /// Lowers the level by one, saturating at zero (a racy decrement
    /// below zero indicates a bookkeeping bug, not a panic).
    pub fn dec(&self) {
        let floor = |v: u64| Some(v.saturating_sub(1));
        let cell = &self.0;
        // ordering: see `set`; the CAS loop itself guarantees the
        // saturating decrement is lossless regardless of ordering.
        let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, floor);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed) // ordering: see `set`
    }
}

/// Fixed-bucket log2 latency histogram over relaxed atomics.
///
/// Recording is two relaxed RMWs (bucket + sum); there is no lock and
/// no allocation. Snapshots taken concurrently with recording are
/// *per-field* consistent (each bucket is an atomic read), which is the
/// standard contract for lock-free histograms — totals observed after
/// all recorders quiesce are exact.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, ns: u64) {
        // ordering: the documented lock-free histogram contract — each
        // cell is independently atomic, snapshots are per-field
        // consistent, and exactness holds once recorders quiesce.
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed); // ordering: see above
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            // ordering: per-field-consistent reads; see `record`.
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_ns: self.sum_ns.load(Ordering::Relaxed), // ordering: see `record`
        }
    }
}

/// A plain-data copy of a [`Histogram`], mergeable and serializable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_bounds`]).
    pub buckets: [u64; NUM_BUCKETS],
    /// Sum of all recorded nanoseconds (saturating on merge).
    pub sum_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            sum_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total samples across all buckets (saturating).
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .fold(0u64, |acc, &b| acc.saturating_add(b))
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count()).unwrap_or(0)
    }

    /// Folds `other` into `self`. Merging is associative and
    /// commutative and never loses counts: every bucket and the sum add
    /// (saturating at `u64::MAX`).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Upper-bound estimate of the `q`-quantile (0.0..=1.0) in
    /// nanoseconds: the exclusive upper bound of the bucket where the
    /// cumulative count reaches `q * count`. Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(b);
            if cum >= target {
                return match bucket_bounds(i) {
                    (_, Some(hi)) => hi,
                    (lo, None) => lo.saturating_mul(2),
                };
            }
        }
        // Unreachable with a consistent snapshot; be defensive anyway.
        bucket_bounds(NUM_BUCKETS - 1).0
    }
}

/// The per-operation instrument: outcome counters plus a latency
/// histogram, always updated together.
///
/// Invariant (asserted by the concurrency tests): after recorders
/// quiesce, `ok + err` equals the histogram's total count — recording
/// never updates one without the other.
#[derive(Debug, Default)]
pub struct OpStats {
    /// Successful completions.
    pub ok: Counter,
    /// Failed completions.
    pub err: Counter,
    /// Completion latency (wall ns, or virtual ns for SCPU commands).
    pub latency: Histogram,
}

impl OpStats {
    /// Empty instrument.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed operation.
    pub fn record(&self, ns: u64, ok: bool) {
        self.latency.record(ns);
        if ok {
            self.ok.inc();
        } else {
            self.err.inc();
        }
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> OpSnapshot {
        OpSnapshot {
            ok: self.ok.get(),
            err: self.err.get(),
            latency: self.latency.snapshot(),
        }
    }
}

/// Plain-data copy of an [`OpStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Successful completions.
    pub ok: u64,
    /// Failed completions.
    pub err: u64,
    /// Latency histogram.
    pub latency: HistogramSnapshot,
}

impl OpSnapshot {
    /// Total completions.
    pub fn total(&self) -> u64 {
        self.ok.saturating_add(self.err)
    }

    /// Median latency estimate in ns ([`HistogramSnapshot::quantile_ns`]).
    pub fn p50_ns(&self) -> u64 {
        self.latency.quantile_ns(0.50)
    }

    /// 99th-percentile latency estimate in ns.
    pub fn p99_ns(&self) -> u64 {
        self.latency.quantile_ns(0.99)
    }

    /// Folds `other` into `self` (counter adds, histogram merge).
    pub fn merge(&mut self, other: &OpSnapshot) {
        self.ok = self.ok.saturating_add(other.ok);
        self.err = self.err.saturating_add(other.err);
        self.latency.merge(&other.latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        // Every value falls inside its bucket's bounds.
        for ns in [0u64, 1, 2, 7, 1023, 1 << 20, 1 << 40, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(ns));
            assert!(ns >= lo, "{ns} below bucket lower bound {lo}");
            if let Some(hi) = hi {
                assert!(ns < hi, "{ns} at/above bucket upper bound {hi}");
            }
        }
    }

    #[test]
    fn histogram_counts_and_mean() {
        let h = Histogram::new();
        for ns in [0u64, 5, 5, 1000, 123_456] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum_ns, 124_466);
        assert_eq!(s.mean_ns(), 124_466 / 5);
        assert!(s.quantile_ns(0.5) >= 5);
        assert!(s.quantile_ns(1.0) >= 123_456);
    }

    #[test]
    fn op_stats_invariant() {
        let op = OpStats::new();
        for i in 0..10u64 {
            op.record(i * 100, i % 3 != 0);
        }
        let s = op.snapshot();
        assert_eq!(s.ok + s.err, s.latency.count());
        assert_eq!(s.total(), 10);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // saturates
        assert_eq!(g.get(), 0);
        g.set(42);
        assert_eq!(g.get(), 42);
    }
}
