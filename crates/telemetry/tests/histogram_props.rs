//! Property tests for the log2-bucketed histogram: bucket bounds contain
//! their samples, merge preserves counts and sums, percentiles are
//! monotone and bracket the true quantiles within bucket resolution.

use proptest::prelude::*;
use telemetry::{Histogram, HistogramSnapshot};

/// Samples spanning many octaves: mostly small, sometimes huge.
fn sample_strategy() -> impl proptest::strategy::Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..1024,
        2 => 1024u64..1_000_000,
        1 => 1_000_000u64..u64::MAX,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn recorded_values_fall_within_reported_bucket_bounds(v in sample_strategy()) {
        let idx = HistogramSnapshot::bucket_index(v);
        let (lo, hi) = HistogramSnapshot::bucket_bounds(idx);
        prop_assert!(lo <= v && v <= hi, "v={} idx={} bounds=({},{})", v, idx, lo, hi);
        // Bucket width bounds the relative error at 2^-SUB_BITS = 12.5%.
        if lo > 0 {
            prop_assert!((hi - lo) as f64 <= lo as f64 * 0.125 + 1.0,
                "bucket ({lo},{hi}) too wide for its magnitude");
        }
    }

    #[test]
    fn recorded_counts_and_sums_are_exact(
        a in proptest::collection::vec(sample_strategy(), 1..400),
    ) {
        let h = Histogram::new();
        for &v in &a { h.record(v); }
        let snap = h.snapshot();

        prop_assert_eq!(snap.count, a.len() as u64);
        let expect_sum = a.iter().fold(0u64, |s, &v| s.wrapping_add(v));
        prop_assert_eq!(snap.sum, expect_sum);
        prop_assert_eq!(snap.max, *a.iter().max().unwrap());
        prop_assert_eq!(snap.min, *a.iter().min().unwrap());
    }

    #[test]
    fn percentiles_are_monotone_and_bracket_true_quantiles(
        mut vs in proptest::collection::vec(sample_strategy(), 1..300),
    ) {
        let h = Histogram::new();
        for &v in &vs { h.record(v); }
        let s = h.snapshot();
        vs.sort_unstable();

        let ps = [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0];
        let mut prev = 0u64;
        for &p in &ps {
            let got = s.percentile(p);
            prop_assert!(got >= prev, "p{p} = {got} < previous {prev}");
            prev = got;

            // The reported value is the containing bucket's upper bound:
            // never below the true quantile, and at most one bucket above.
            let rank = ((p / 100.0) * vs.len() as f64).ceil().max(1.0) as usize;
            let truth = vs[rank.min(vs.len()) - 1];
            prop_assert!(got >= truth, "p{p} report {got} below true value {truth}");
            let (_, hi) = HistogramSnapshot::bucket_bounds(
                HistogramSnapshot::bucket_index(truth));
            prop_assert!(got <= hi.min(s.max), "p{p} report {got} above bucket cap {hi}");
        }
        prop_assert_eq!(s.percentile(100.0), *vs.last().unwrap());
    }
}
