//! Paired bootstrap significance testing for model comparisons.
//!
//! The reproduction corpus makes top-model margins small (README.md,
//! "Reproducing the paper"), so "A beats B" claims need uncertainty
//! estimates. This module implements the standard paired bootstrap over
//! test prescriptions: resample the test set with replacement, recompute
//! each model's mean metric on the resample, and report how often A's
//! mean exceeds B's.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a paired bootstrap comparison of per-prescription scores.
#[derive(Clone, Copy, Debug)]
pub struct BootstrapComparison {
    /// Mean of A's per-prescription metric.
    pub mean_a: f64,
    /// Mean of B's per-prescription metric.
    pub mean_b: f64,
    /// Fraction of bootstrap resamples where A's mean strictly exceeds B's.
    pub win_rate_a: f64,
    /// 95% bootstrap confidence interval on the mean difference `A - B`.
    pub diff_ci: (f64, f64),
}

impl BootstrapComparison {
    /// The claim "A outranks B", judged by the interval: `holds` or
    /// `violated` when it excludes zero on that side, `tie` when it
    /// does not.
    pub fn verdict(&self) -> &'static str {
        if self.diff_ci.0 > 0.0 {
            "holds"
        } else if self.diff_ci.1 < 0.0 {
            "violated"
        } else {
            "tie"
        }
    }
}

/// Runs a paired bootstrap over per-prescription metric values.
///
/// `a[i]` and `b[i]` must be the two models' metric on the *same* test
/// prescription `i`.
///
/// # Panics
/// Panics on empty or mismatched inputs or `resamples == 0`.
pub fn paired_bootstrap(a: &[f64], b: &[f64], resamples: usize, seed: u64) -> BootstrapComparison {
    assert_eq!(a.len(), b.len(), "paired_bootstrap: length mismatch");
    assert!(!a.is_empty(), "paired_bootstrap: empty inputs");
    assert!(
        resamples > 0,
        "paired_bootstrap: need at least one resample"
    );
    let n = a.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wins = 0usize;
    let mut diffs = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut sum_a = 0.0;
        let mut sum_b = 0.0;
        for _ in 0..n {
            let i = rng.gen_range(0..n);
            sum_a += a[i];
            sum_b += b[i];
        }
        if sum_a > sum_b {
            wins += 1;
        }
        diffs.push((sum_a - sum_b) / n as f64);
    }
    diffs.sort_unstable_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    let lo = diffs[((resamples as f64) * 0.025) as usize];
    let hi = diffs[(((resamples as f64) * 0.975) as usize).min(resamples - 1)];
    BootstrapComparison {
        mean_a: a.iter().sum::<f64>() / n as f64,
        mean_b: b.iter().sum::<f64>() / n as f64,
        win_rate_a: wins as f64 / resamples as f64,
        diff_ci: (lo, hi),
    }
}

/// Per-prescription precision@k of ranked lists against their ground
/// truths — the paired unit for bootstrap comparisons.
pub fn per_prescription_precision(ranked: &[Vec<u32>], truths: &[&[u32]], k: usize) -> Vec<f64> {
    ranked
        .iter()
        .zip(truths)
        .map(|(list, truth)| crate::metrics::precision_at_k(list, truth, k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_models_are_not_significant() {
        let a = vec![0.3, 0.5, 0.2, 0.8, 0.4, 0.6, 0.1, 0.7];
        let cmp = paired_bootstrap(&a, &a, 500, 1);
        assert_eq!(cmp.verdict(), "tie");
        assert_eq!(cmp.mean_a, cmp.mean_b);
        assert!((cmp.diff_ci.0, cmp.diff_ci.1) == (0.0, 0.0));
    }

    #[test]
    fn clearly_better_model_is_significant() {
        let a: Vec<f64> = (0..100).map(|i| 0.5 + (i % 5) as f64 * 0.01).collect();
        let b: Vec<f64> = (0..100).map(|i| 0.2 + (i % 5) as f64 * 0.01).collect();
        let cmp = paired_bootstrap(&a, &b, 500, 2);
        assert_eq!(cmp.verdict(), "holds", "{cmp:?}");
        assert_eq!(paired_bootstrap(&b, &a, 500, 2).verdict(), "violated");
        assert!(cmp.win_rate_a > 0.99);
        assert!(cmp.diff_ci.0 > 0.25 && cmp.diff_ci.1 < 0.35);
    }

    #[test]
    fn noisy_tie_is_not_significant() {
        // Paired values that differ by ±0.01 alternately — the mean
        // difference is ~0.
        let a: Vec<f64> = (0..200)
            .map(|i| 0.5 + if i % 2 == 0 { 0.01 } else { -0.01 })
            .collect();
        let b: Vec<f64> = (0..200)
            .map(|i| 0.5 + if i % 2 == 0 { -0.01 } else { 0.01 })
            .collect();
        let cmp = paired_bootstrap(&a, &b, 500, 3);
        assert_eq!(cmp.verdict(), "tie", "{cmp:?}");
    }

    #[test]
    fn bootstrap_is_deterministic() {
        let a = vec![0.1, 0.9, 0.3];
        let b = vec![0.2, 0.8, 0.4];
        let x = paired_bootstrap(&a, &b, 200, 7);
        let y = paired_bootstrap(&a, &b, 200, 7);
        assert_eq!(x.win_rate_a, y.win_rate_a);
        assert_eq!(x.diff_ci, y.diff_ci);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_lengths() {
        let _ = paired_bootstrap(&[0.1], &[0.1, 0.2], 10, 1);
    }
}
