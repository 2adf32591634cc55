//! The naive reference scorer every response is checked against: plain
//! loops over the generated weights, `f64` sums, a full sort.
//!
//! The program sums in `f32` and in its own order, so two herbs whose
//! reference scores differ by less than rounding may come back swapped.
//! A ranking is therefore accepted when it is a correct top-k up to
//! [`Oracle::tolerance`]; anything a wrong weight, a wrong generation or
//! a dropped herb would cause is far outside it.

use crate::gen::Weights;

pub struct Oracle<'a> {
    weights: &'a Weights,
    /// Herb embeddings transposed to `[dim][herb]`, so the scoring loop
    /// walks memory in order.
    herbs_t: Vec<f32>,
}

impl<'a> Oracle<'a> {
    pub fn new(weights: &'a Weights) -> Self {
        let (d, h) = (weights.dim, weights.n_herbs);
        let mut herbs_t = vec![0.0f32; d * h];
        for herb in 0..h {
            for dim in 0..d {
                herbs_t[dim * h + herb] = weights.herbs[herb * d + dim];
            }
        }
        Self { weights, herbs_t }
    }

    /// Eq. 12 and 13: mean-pool the set's symptom rows, apply
    /// `relu(x W + b)`, and dot the result with every herb row.
    pub fn scores(&self, set: &[u32]) -> Vec<f64> {
        let w = self.weights;
        let d = w.dim;
        let mut pooled = vec![0.0f64; d];
        for &s in set {
            let row = &w.symptoms[s as usize * d..][..d];
            for (acc, &v) in pooled.iter_mut().zip(row) {
                *acc += f64::from(v);
            }
        }
        let mut syndrome: Vec<f64> = w.si_b.iter().map(|&b| f64::from(b)).collect();
        for (i, &p) in pooled.iter().enumerate() {
            let mean = p / set.len() as f64;
            for (acc, &weight) in syndrome.iter_mut().zip(&w.si_w[i * d..][..d]) {
                *acc += mean * f64::from(weight);
            }
        }
        for v in &mut syndrome {
            *v = v.max(0.0);
        }
        let mut scores = vec![0.0f64; w.n_herbs];
        for (dim, &q) in syndrome.iter().enumerate() {
            let column = &self.herbs_t[dim * w.n_herbs..][..w.n_herbs];
            for (acc, &h) in scores.iter_mut().zip(column) {
                *acc += q * f64::from(h);
            }
        }
        scores
    }

    /// What `f32` rounding may move a score by, relative to the largest.
    fn tolerance(scores: &[f64]) -> f64 {
        1e-4 * scores.iter().fold(0.0f64, |m, s| m.max(s.abs())) + 1e-9
    }

    /// True when `ids` is a top-`k` of `scores`: `k` distinct herbs,
    /// best first, none worse than the true k-th best.
    pub fn accepts(scores: &[f64], ids: &[u32], k: usize) -> bool {
        let eps = Self::tolerance(scores);
        if ids.len() != k.min(scores.len()) || ids.iter().any(|&h| h as usize >= scores.len()) {
            return false;
        }
        let mut seen = ids.to_vec();
        seen.sort_unstable();
        seen.dedup();
        let of = |h: u32| scores[h as usize];
        let mut by_score = scores.to_vec();
        let (_, &mut kth, _) =
            by_score.select_nth_unstable_by(ids.len() - 1, |a, b| b.total_cmp(a));
        seen.len() == ids.len()
            && ids.windows(2).all(|w| of(w[0]) >= of(w[1]) - eps)
            && ids.iter().all(|&h| of(h) >= kth - eps)
    }
}

/// Full sort, best first, ties to the lower id.
pub fn top_k(scores: &[f64], k: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..scores.len() as u32).collect();
    order.sort_by(|&a, &b| {
        scores[b as usize]
            .total_cmp(&scores[a as usize])
            .then(a.cmp(&b))
    });
    order.truncate(k);
    order
}

/// Share of `truth` that `got` contains.
pub fn recall(truth: &[u32], got: &[u32]) -> f64 {
    truth.iter().filter(|h| got.contains(h)).count() as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{symptom_set, Rng, K};

    /// The oracle self-test: the reference agrees with the program on
    /// seeded models, and one flipped herb id fails the check.
    #[test]
    fn agrees_with_frozen_model_and_rejects_a_flipped_id() {
        for seed in [1u64, 2, 3] {
            let weights = Weights::seeded(seed, 0, 60, 200, 32);
            let model = weights.frozen();
            let oracle = Oracle::new(&weights);
            let mut rng = Rng::fork(seed, 9);
            for _ in 0..100 {
                let set = symptom_set(&mut rng, 60);
                let scores = oracle.scores(&set);
                let served = model.recommend(&set, K).expect("valid set");
                assert!(
                    Oracle::accepts(&scores, &served, K),
                    "seed {seed} set {set:?}"
                );
                assert_eq!(recall(&top_k(&scores, K), &served), 1.0);

                let worst = *top_k(&scores, scores.len()).last().expect("herbs");
                let mut flipped = served.clone();
                flipped[3] = worst;
                assert!(!Oracle::accepts(&scores, &flipped, K));
                let mut swapped = served.clone();
                swapped.swap(0, 9);
                assert!(!Oracle::accepts(&scores, &swapped, K));
                assert!(!Oracle::accepts(&scores, &served[..9], K));
                let mut doubled = served.clone();
                doubled[1] = doubled[0];
                assert!(!Oracle::accepts(&scores, &doubled, K));
            }
        }
    }

    #[test]
    fn full_sort_breaks_ties_to_the_lower_id() {
        assert_eq!(top_k(&[1.0, 3.0, 3.0, 0.5], 3), vec![1, 2, 0]);
    }
}
