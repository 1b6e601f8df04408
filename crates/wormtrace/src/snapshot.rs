//! Point-in-time, order-canonical statistics snapshots.

use crate::metrics::OpSnapshot;

/// A copy of every instrument in a [`crate::Registry`], name-sorted.
///
/// The sorted order is part of the type's contract: it makes the
/// canonical wire encoding (in `strongworm::codec`) deterministic, so
/// two equal snapshots always encode to identical bytes. All entry
/// lists are sorted by name, strictly ascending (no duplicates).
///
/// Snapshots merge ([`StatsSnapshot::merge`]): ops and counters add,
/// histograms merge bucket-wise, gauges keep the maximum (a merged
/// gauge answers "how high did the level get anywhere"). Merging is
/// associative and commutative and never loses counts, so per-node
/// snapshots aggregate exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Per-operation stats, sorted by op name.
    pub ops: Vec<(String, OpSnapshot)>,
    /// Plain counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges (last observed level), sorted by name.
    pub gauges: Vec<(String, u64)>,
}

fn merge_sorted<T: Clone>(
    ours: &mut Vec<(String, T)>,
    theirs: &[(String, T)],
    mut combine: impl FnMut(&mut T, &T),
) {
    let mut merged: Vec<(String, T)> = Vec::with_capacity(ours.len() + theirs.len());
    let mut a = std::mem::take(ours).into_iter();
    let mut b = theirs.iter();
    // One-element lookahead per side, consumed by `take()` and refilled
    // from its iterator — the ownership never needs a fallible unwrap.
    let mut next_a = a.next();
    let mut next_b = b.next();
    loop {
        match (next_a.take(), next_b.take()) {
            (Some(x), Some(y)) => match x.0.cmp(&y.0) {
                std::cmp::Ordering::Less => {
                    merged.push(x);
                    next_a = a.next();
                    next_b = Some(y);
                }
                std::cmp::Ordering::Greater => {
                    merged.push((y.0.clone(), y.1.clone()));
                    next_a = Some(x);
                    next_b = b.next();
                }
                std::cmp::Ordering::Equal => {
                    let (n, mut v) = x;
                    combine(&mut v, &y.1);
                    merged.push((n, v));
                    next_a = a.next();
                    next_b = b.next();
                }
            },
            (Some(x), None) => {
                merged.push(x);
                next_a = a.next();
            }
            (None, Some(y)) => {
                merged.push((y.0.clone(), y.1.clone()));
                next_b = b.next();
            }
            (None, None) => break,
        }
    }
    *ours = merged;
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

    /// Folds `other` into `self` (see the type docs for semantics).
    pub fn merge(&mut self, other: &StatsSnapshot) {
        merge_sorted(&mut self.ops, &other.ops, |a, b| a.merge(b));
        merge_sorted(&mut self.counters, &other.counters, |a, b| {
            *a = a.saturating_add(*b);
        });
        merge_sorted(&mut self.gauges, &other.gauges, |a, b| *a = (*a).max(*b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(entries: &[(&str, u64)]) -> StatsSnapshot {
        StatsSnapshot {
            counters: entries.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            ..StatsSnapshot::default()
        }
    }

    #[test]
    fn merge_interleaves_names() {
        let mut a = snap(&[("a", 1), ("c", 3)]);
        let b = snap(&[("b", 2), ("c", 4)]);
        a.merge(&b);
        assert_eq!(
            a.counters,
            vec![("a".into(), 1), ("b".into(), 2), ("c".into(), 7)]
        );
        assert_eq!(a.counter("c"), 7);
        assert_eq!(a.counter("missing"), 0);
    }

    #[test]
    fn gauges_merge_as_max() {
        let mut a = StatsSnapshot {
            gauges: vec![("q".into(), 5)],
            ..StatsSnapshot::default()
        };
        a.merge(&StatsSnapshot {
            gauges: vec![("q".into(), 3)],
            ..StatsSnapshot::default()
        });
        assert_eq!(a.gauge("q"), Some(5));
    }

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
