//! Harness arithmetic: percentiles with a sample-count rule, medians
//! over segments, and the run-to-run spread the bounds are judged by.

/// Samples a percentile needs beyond it before it is reported: with
/// fewer, the value is one scheduler hiccup, not a property of the
/// program.
pub const SAMPLES_BEYOND: usize = 10;

/// The `q`-quantile (0 < q < 1) of `sorted` by nearest rank, or `None`
/// when fewer than [`SAMPLES_BEYOND`] samples lie beyond it (the median
/// is exempt: it only needs one sample).
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < SAMPLES_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of unsorted values; the mean of the middle pair for an even
/// count. `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Share of segments that count as undisturbed (see [`best_high`]).
pub const BEST_SHARE: f64 = 0.1;

fn rank(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (n > 0).then(|| v[((q * n as f64).ceil() as usize).clamp(1, n) - 1])
}

/// The value a higher-is-better timing reaches in the least disturbed
/// tenth of segments: the 90th percentile over segments. Everything
/// that perturbs a segment on a shared two-core box — a neighbour's
/// burst, a descheduled vCPU, a late wake-up — makes it slower, never
/// faster, so the upper decile tracks the program while the median
/// tracks the neighbours (measured: run-to-run spread of the median is
/// two to three times that of the upper decile on every workload).
pub fn best_high(values: &[f64]) -> Option<f64> {
    rank(values, 1.0 - BEST_SHARE)
}

/// As [`best_high`] for a lower-is-better timing: the 10th percentile
/// over segments.
pub fn best_low(values: &[f64]) -> Option<f64> {
    rank(values, BEST_SHARE)
}

/// Distance between the largest and the smallest value as a share of
/// the median: how far a handful of sets disagree. (The acceptance rule
/// uses quartiles of ten runs; two or three sets have none to speak of.)
pub fn rel_range(values: &[f64]) -> Option<f64> {
    let mid = median(values)?;
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    (mid != 0.0).then(|| (hi - lo) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 is rank 990: exactly 10 beyond.
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&v[..999], 0.99), None);
        // The median is reported from any non-empty sample.
        assert_eq!(percentile(&v[..3], 0.5), Some(2));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_segments() {
        assert_eq!(median(&[5.0, 1.0, 9.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), Some(3.0));
        // One stalled segment out of five does not move the result.
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 12.0]), Some(100.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn best_decile_ignores_disturbed_segments() {
        // Twenty segments, six of them slowed by a neighbour.
        let mut rates = vec![100.0; 14];
        rates.extend([60.0, 70.0, 80.0, 85.0, 90.0, 95.0]);
        assert_eq!(best_high(&rates), Some(100.0));
        assert_eq!(median(&rates), Some(100.0));
        rates[..8].fill(75.0); // now most segments are disturbed
        assert_eq!(best_high(&rates), Some(100.0));
        assert_eq!(median(&rates), Some(77.5));
        // One fluke above the rest is not the answer either.
        let mut lat = vec![50.0; 19];
        lat.push(5.0);
        assert_eq!(best_low(&lat), Some(50.0));
        assert_eq!(best_high(&[]), None);
    }

    #[test]
    fn relative_range_of_sets() {
        assert_eq!(rel_range(&[90.0, 110.0]), Some(0.2));
        assert_eq!(rel_range(&[100.0, 100.0, 100.0]), Some(0.0));
        assert_eq!(rel_range(&[]), None);
        assert_eq!(rel_range(&[0.0, 0.0]), None);
    }
}
