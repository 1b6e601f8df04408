//! Point-in-time, order-canonical statistics snapshots.

use crate::metrics::OpSnapshot;

/// A copy of every instrument in a [`crate::Registry`], name-sorted.
///
/// The sorted order is part of the type's contract: it makes the
/// canonical wire encoding (in `strongworm::codec`) deterministic, so
/// two equal snapshots always encode to identical bytes. All entry
/// lists are sorted by name, strictly ascending (no duplicates).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Per-operation stats, sorted by op name.
    pub ops: Vec<(String, OpSnapshot)>,
    /// Plain counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges (last observed level), sorted by name.
    pub gauges: Vec<(String, u64)>,
}

impl StatsSnapshot {
    /// The op snapshot named `name`, if present.
    pub fn op(&self, name: &str) -> Option<&OpSnapshot> {
        self.ops
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.ops[i].1)
    }

    /// The counter named `name` (0 when absent — a counter never
    /// incremented is indistinguishable from one never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map_or(0, |i| self.counters[i].1)
    }

    /// Median latency estimate for op `name` in ns, if recorded (an
    /// upper-bound log2-bucket estimate; see
    /// [`crate::HistogramSnapshot::quantile_ns`]).
    pub fn p50_ns(&self, name: &str) -> Option<u64> {
        self.op(name).map(OpSnapshot::p50_ns)
    }

    /// 99th-percentile latency estimate for op `name` in ns, if
    /// recorded.
    pub fn p99_ns(&self, name: &str) -> Option<u64> {
        self.op(name).map(OpSnapshot::p99_ns)
    }

    /// The gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_helpers_mirror_histogram_estimates() {
        let mut op = OpSnapshot::default();
        for ns in [100u64, 100, 100, 100_000] {
            op.latency.buckets[crate::bucket_index(ns)] += 1;
            op.latency.sum_ns += ns;
        }
        op.ok = 4;
        let snap = StatsSnapshot {
            ops: vec![("server.read".into(), op.clone())],
            ..StatsSnapshot::default()
        };
        assert_eq!(snap.p50_ns("server.read"), Some(op.p50_ns()));
        assert_eq!(snap.p99_ns("server.read"), Some(op.p99_ns()));
        assert_eq!(op.p50_ns(), op.latency.quantile_ns(0.50));
        assert!(op.p99_ns() >= op.p50_ns());
        assert_eq!(snap.p50_ns("missing"), None);
    }
}
