//! Property tests for snapshot merging: merge must behave like
//! multiset union of the recorded samples — associative, commutative,
//! and never losing a count — or per-node snapshots would not
//! aggregate exactly.

use proptest::prelude::*;
use wormtrace::{
    bucket_index, HistogramSnapshot, OpSnapshot, Registry, StatsSnapshot, NUM_BUCKETS,
};

/// Bucket counts bounded well below `u64::MAX` so three-way merges
/// never saturate (saturation is a separate, deliberate behavior).
fn arb_hist() -> impl Strategy<Value = HistogramSnapshot> {
    (
        proptest::collection::vec(0u64..(1 << 40), NUM_BUCKETS),
        0u64..(1 << 40),
    )
        .prop_map(|(v, sum_ns)| {
            let mut buckets = [0u64; NUM_BUCKETS];
            buckets.copy_from_slice(&v);
            HistogramSnapshot { buckets, sum_ns }
        })
}

fn arb_op() -> impl Strategy<Value = OpSnapshot> {
    (0u64..(1 << 40), 0u64..(1 << 40), arb_hist()).prop_map(|(ok, err, latency)| OpSnapshot {
        ok,
        err,
        latency,
    })
}

/// Short sorted unique name lists, overlapping across instances often
/// (a tiny alphabet) so merges exercise the equal-name path.
fn arb_names() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-d]{1,2}", 0..4).prop_map(|mut v| {
        v.sort();
        v.dedup();
        v
    })
}

fn arb_stats() -> impl Strategy<Value = StatsSnapshot> {
    (
        arb_names(),
        arb_names(),
        proptest::collection::vec(arb_op(), 4),
        proptest::collection::vec(0u64..(1 << 40), 4),
    )
        .prop_map(|(op_names, counter_names, ops, vals)| StatsSnapshot {
            ops: op_names
                .iter()
                .zip(ops.iter())
                .map(|(n, o)| (n.clone(), o.clone()))
                .collect(),
            counters: counter_names
                .iter()
                .zip(vals.iter())
                .map(|(n, &v)| (n.clone(), v))
                .collect(),
            gauges: counter_names
                .iter()
                .zip(vals.iter().rev())
                .map(|(n, &v)| (n.clone(), v))
                .collect(),
        })
}

fn merged_h(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut m = a.clone();
    m.merge(b);
    m
}

fn merged_s(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    let mut m = a.clone();
    m.merge(b);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn histogram_merge_commutes(a in arb_hist(), b in arb_hist()) {
        prop_assert_eq!(merged_h(&a, &b), merged_h(&b, &a));
    }

    #[test]
    fn histogram_merge_is_associative(a in arb_hist(), b in arb_hist(), c in arb_hist()) {
        prop_assert_eq!(
            merged_h(&merged_h(&a, &b), &c),
            merged_h(&a, &merged_h(&b, &c))
        );
    }

    #[test]
    fn histogram_merge_never_loses_counts(a in arb_hist(), b in arb_hist()) {
        let m = merged_h(&a, &b);
        prop_assert_eq!(m.count(), a.count() + b.count());
        prop_assert_eq!(m.sum_ns, a.sum_ns + b.sum_ns);
        for i in 0..NUM_BUCKETS {
            prop_assert_eq!(m.buckets[i], a.buckets[i] + b.buckets[i]);
        }
    }

    #[test]
    fn histogram_merge_identity(a in arb_hist()) {
        prop_assert_eq!(merged_h(&a, &HistogramSnapshot::default()), a.clone());
        prop_assert_eq!(merged_h(&HistogramSnapshot::default(), &a), a);
    }

    #[test]
    fn recording_matches_multiset_merge(
        // Bounded so the running sum can't overflow: the live histogram
        // wraps (relaxed fetch_add) while snapshot merge saturates, and
        // the two only agree while sums stay in range.
        xs in proptest::collection::vec(0u64..(1 << 40), 0..64),
        ys in proptest::collection::vec(0u64..(1 << 40), 0..64),
    ) {
        // Recording xs and ys into one histogram equals recording them
        // into two and merging — merge IS multiset union.
        let (one, left, right) = (
            wormtrace::Histogram::new(),
            wormtrace::Histogram::new(),
            wormtrace::Histogram::new(),
        );
        for &x in &xs {
            one.record(x);
            left.record(x);
        }
        for &y in &ys {
            one.record(y);
            right.record(y);
        }
        // Samples land in the bucket their value belongs to.
        for &x in &xs {
            prop_assert!(left.snapshot().buckets[bucket_index(x)] > 0);
        }
        let merged = merged_h(&left.snapshot(), &right.snapshot());
        prop_assert_eq!(merged, one.snapshot());
    }

    #[test]
    fn stats_merge_commutes_and_associates(
        a in arb_stats(),
        b in arb_stats(),
        c in arb_stats(),
    ) {
        prop_assert_eq!(merged_s(&a, &b), merged_s(&b, &a));
        prop_assert_eq!(
            merged_s(&merged_s(&a, &b), &c),
            merged_s(&a, &merged_s(&b, &c))
        );
    }

    #[test]
    fn stats_merge_never_loses_instruments(a in arb_stats(), b in arb_stats()) {
        let m = merged_s(&a, &b);
        // Every name from either side survives, with the right combine.
        for (name, op) in a.ops.iter().chain(b.ops.iter()) {
            prop_assert!(m.op(name).is_some());
            prop_assert!(m.op(name).unwrap().total() >= op.total());
        }
        for (name, v) in a.counters.iter().chain(b.counters.iter()) {
            prop_assert!(m.counter(name) >= *v);
        }
        for (name, v) in a.gauges.iter().chain(b.gauges.iter()) {
            prop_assert!(m.gauge(name).unwrap() >= *v, "gauge merge keeps the max");
        }
        // Shared counter names add exactly.
        for (name, v) in &a.counters {
            prop_assert_eq!(m.counter(name), v + b.counter(name));
        }
        // Merged lists stay sorted strictly ascending (the canonical-
        // codec precondition).
        for w in m.ops.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        for w in m.counters.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn registry_snapshot_reflects_recordings(
        oks in proptest::collection::vec(any::<bool>(), 0..32),
    ) {
        let reg = Registry::new();
        let op = reg.op("p.op");
        for (i, &ok) in oks.iter().enumerate() {
            op.record(i as u64, ok);
        }
        let snap = reg.snapshot();
        let got = snap.op("p.op").expect("registered op present");
        let want_ok = oks.iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(got.ok, want_ok);
        prop_assert_eq!(got.err, oks.len() as u64 - want_ok);
        prop_assert_eq!(got.latency.count(), got.ok + got.err);
    }
}
