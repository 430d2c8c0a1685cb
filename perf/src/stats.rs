//! The harness maths: medians, supported tail percentiles, span self time
//! and ladder differences.

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`. With fewer than 20 samples no percentile
/// above the median qualifies and the median is returned as `(50, ..)`.
pub fn supported_tail(values: &[f64]) -> (f64, f64) {
    const BEYOND: usize = 10;
    let n = values.len();
    if n < 2 * BEYOND {
        return (50.0, median(values));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Index of the sample with exactly BEYOND samples above it.
    let idx = n - 1 - BEYOND;
    (100.0 * (idx + 1) as f64 / n as f64, v[idx])
}

/// Self time of a span `[start, end)`: its duration minus the part of
/// that interval its children cover. Children may overlap each other
/// (ranks running on parallel reactors) and may stick out of the parent;
/// the covered part is the union of the children clipped to the parent.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start.min(end)) - covered
}

/// A layer's self time on the ladder: the rung that adds the layer minus
/// the rung below it, never negative (noise can invert two close rungs).
pub fn ladder_diff(upper: f64, lower: f64) -> f64 {
    (upper - lower).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, x) = supported_tail(&v);
        assert_eq!(x, 90.0);
        assert_eq!(p, 90.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (99.0, 990.0));
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(supported_tail(&few), (50.0, 10.0));
    }

    #[test]
    fn self_time_unions_overlapping_children() {
        // Parent 0..100; children 10..40 and 30..60 overlap, 90..120
        // sticks out, 200..300 is outside.
        let kids = [(10, 40), (30, 60), (90, 120), (200, 300)];
        assert_eq!(self_time(0, 100, &kids), 100 - 50 - 10);
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(0, 100), (20, 30)]), 0);
    }

    #[test]
    fn ladder_diff_clamps_at_zero() {
        assert_eq!(ladder_diff(5.0, 3.0), 2.0);
        assert_eq!(ladder_diff(3.0, 5.0), 0.0);
    }
}
