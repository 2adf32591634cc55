//! The shape of a load before anything runs: the synthetic model it is
//! scored against, the skew of its draws, and how its latencies are
//! summarised. The scenarios, the engine and the `obs_overhead` bin all
//! build their inputs here, so the same seed means the same model, the
//! same picks and the same percentile rule everywhere.

use rand::rngs::StdRng;
use rand::Rng;
use smgcn_serve::{FrozenModel, ServingVocab};
use smgcn_tensor::Matrix;

/// A deterministic synthetic frozen model: serving-path benches and load
/// scenarios need realistic scoring cost, not a trained model. `tag`
/// perturbs the weights so distinct tags rank differently — the raw
/// material for generation-consistency checks under publishes.
pub fn synthetic_frozen(n_symptoms: usize, n_herbs: usize, dim: usize, tag: u64) -> FrozenModel {
    let t = tag as usize;
    let symptoms = Matrix::from_fn(n_symptoms, dim, |r, c| {
        ((r * (31 + 2 * t) + c * 17 + t) % 23) as f32 * 0.1 - 1.1
    });
    let herbs = Matrix::from_fn(n_herbs, dim, |r, c| {
        ((r * 13 + c * (29 + t)) % 19) as f32 * 0.1 - 0.9
    });
    FrozenModel::from_parts(symptoms, herbs, None).expect("synthetic model dims agree")
}

/// Names for [`synthetic_frozen`]'s vocabulary. Herb names embed `tag`
/// (`g<tag>-h<i>`) so a response mixing generations is detectable from
/// the names alone.
pub fn synthetic_vocab(n_symptoms: usize, n_herbs: usize, tag: u64) -> ServingVocab {
    ServingVocab::new(
        (0..n_symptoms).map(|i| format!("s{i}")).collect(),
        (0..n_herbs).map(|i| format!("g{tag}-h{i}")).collect(),
    )
}

/// Zipf-ish index pick over `len` items: with probability `hot_p` draws
/// from the first `hot` items (clinic traffic repeats hot symptom sets),
/// otherwise uniformly. The standard draw is `hot = 20`, `hot_p = 0.8`.
pub fn zipf_index(rng: &mut StdRng, len: usize, hot: usize, hot_p: f64) -> usize {
    assert!(len > 0, "zipf_index over an empty pool");
    if rng.gen_bool(hot_p) {
        rng.gen_range(0..hot.min(len))
    } else {
        rng.gen_range(0..len)
    }
}

/// Per-query latencies (seconds) -> `(p50, p99)` in microseconds.
pub fn percentiles_us(latencies: &mut [f64]) -> (f64, f64) {
    if latencies.is_empty() {
        return (0.0, 0.0);
    }
    latencies.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pick =
        |q: f64| latencies[((latencies.len() as f64 * q) as usize).min(latencies.len() - 1)] * 1e6;
    (pick(0.50), pick(0.99))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn synthetic_models_differ_by_tag() {
        let a = synthetic_frozen(8, 16, 4, 0);
        let b = synthetic_frozen(8, 16, 4, 1);
        assert_ne!(
            a.recommend(&[0, 1], 5).unwrap(),
            b.recommend(&[0, 1], 5).unwrap(),
            "tags must produce distinguishable rankings"
        );
        // Same tag: bit-identical rankings.
        let a2 = synthetic_frozen(8, 16, 4, 0);
        assert_eq!(
            a.recommend(&[2, 3], 5).unwrap(),
            a2.recommend(&[2, 3], 5).unwrap()
        );
    }

    #[test]
    fn zipf_prefers_the_hot_pool() {
        let mut rng = StdRng::seed_from_u64(11);
        let hot = (0..4000)
            .filter(|_| zipf_index(&mut rng, 1000, 20, 0.8) < 20)
            .count();
        assert!(hot > 3000, "hot picks {hot}/4000, expected ~3200");
    }

    #[test]
    fn percentiles_pick_the_tail() {
        let mut lat: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-6).collect();
        let (p50, p99) = percentiles_us(&mut lat);
        assert!((p50 - 51.0).abs() < 1.5, "p50 {p50}");
        assert!((p99 - 100.0).abs() < 1.5, "p99 {p99}");
    }
}
