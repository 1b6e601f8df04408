//! Property tests for histogram merging: merge must behave like
//! multiset union of the recorded samples — associative, commutative,
//! and never losing a count — or per-lane histograms would not
//! aggregate exactly.

use proptest::prelude::*;
use wormtrace::{bucket_index, HistogramSnapshot, Registry, NUM_BUCKETS};

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

fn merged_h(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
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
