//! Online statistics used by every experiment harness.
//!
//! `OnlineStats` implements Welford's numerically stable one-pass algorithm
//! for mean and variance; the paper's load-imbalance metric (Figure 7b) is
//! the coefficient of variation it exposes.

/// One-pass mean/variance accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Build from a slice of samples.
    pub fn from_samples(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        self.n += 1;
        self.sum += x;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample sum.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation: `std_dev / mean`. Zero when the mean is
    /// zero (an all-zero load distribution is perfectly balanced).
    pub fn coeff_of_variation(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev() / self.mean
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Coefficient of variation of a slice, as used by the Figure 7b harness.
pub fn coefficient_of_variation(xs: &[f64]) -> f64 {
    OnlineStats::from_samples(xs).coeff_of_variation()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_variance_known_values() {
        let s = OnlineStats::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert!((s.coeff_of_variation() - 0.4).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn empty_and_single_are_degenerate() {
        let e = OnlineStats::new();
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.variance(), 0.0);
        assert_eq!(e.coeff_of_variation(), 0.0);
        let s = OnlineStats::from_samples(&[3.0]);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn perfectly_balanced_load_has_zero_cov() {
        assert_eq!(coefficient_of_variation(&[5.0; 16]), 0.0);
    }

    proptest! {
        /// Welford matches the naive two-pass computation.
        #[test]
        fn prop_matches_two_pass(xs in proptest::collection::vec(-1e3f64..1e3, 2..200)) {
            let s = OnlineStats::from_samples(&xs);
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            prop_assert!((s.mean() - mean).abs() < 1e-6);
            prop_assert!((s.variance() - var).abs() < 1e-6);
        }
    }
}
