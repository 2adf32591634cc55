//! Shared benchmark harness: the corpus/model setup and timing helpers
//! that used to be copy-pasted across `serve_latency`, `train_throughput`,
//! `online_refresh` and `cluster_scaling`.
//!
//! Everything here is deliberately deterministic given a seed, so two
//! runs of the same bench at the same scale build bit-identical inputs —
//! which is what lets `bench-gate` compare fresh runs against checked-in
//! baselines, and what lets `smgcn-loadgen` promise byte-identical
//! request schedules.

use rand::rngs::StdRng;
use rand::Rng;
use smgcn_core::prelude::*;
use smgcn_data::{Corpus, GeneratorConfig, SyndromeModel};
use smgcn_graph::{GraphOperators, SynergyThresholds};
use smgcn_serve::{FrozenModel, ServingVocab};
use smgcn_tensor::Matrix;

/// The two scales the perf benches run at (distinct from the paper-repro
/// [`smgcn_eval::Scale`]: these trade fidelity for CI wall-clock).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BenchScale {
    /// Tiny corpus — seconds-fast sanity scale (CI smoke).
    Small,
    /// The smoke corpus with paper-shaped dimensions — the scale the
    /// acceptance criteria are measured at.
    Mid,
}

impl BenchScale {
    /// The scale label used in reports and `--scale` arguments.
    pub fn name(self) -> &'static str {
        match self {
            Self::Small => "small",
            Self::Mid => "mid",
        }
    }

    /// Parses a `--scale` argument.
    pub fn from_arg(arg: &str) -> Option<Self> {
        match arg {
            "small" => Some(Self::Small),
            "mid" => Some(Self::Mid),
            _ => None,
        }
    }

    /// The corpus generator at this scale.
    pub fn generator(self) -> GeneratorConfig {
        match self {
            Self::Small => GeneratorConfig::tiny_scale(),
            Self::Mid => GeneratorConfig::smoke_scale(),
        }
    }

    /// Synergy-graph thresholds matched to the corpus density.
    pub fn thresholds(self) -> SynergyThresholds {
        match self {
            Self::Small => SynergyThresholds { x_s: 1, x_h: 1 },
            Self::Mid => SynergyThresholds { x_s: 5, x_h: 30 },
        }
    }

    /// Model dimensions: toy at small scale, Table III's real shape
    /// (d0 = 64, layers 128/256) at mid.
    pub fn model_config(self) -> ModelConfig {
        match self {
            Self::Small => ModelConfig {
                embedding_dim: 16,
                layer_dims: vec![16, 24],
                ..ModelConfig::smgcn()
            },
            Self::Mid => ModelConfig::smgcn(),
        }
    }

    /// Mid scale gets the paper-shaped smoke model (smaller layers) —
    /// what the online-refresh acceptance criterion was tuned on.
    pub fn online_model_config(self) -> ModelConfig {
        match self {
            Self::Small => self.model_config(),
            Self::Mid => ModelConfig::smgcn().smoke(),
        }
    }

    /// Training batch size.
    pub fn batch_size(self) -> usize {
        match self {
            Self::Small => 64,
            Self::Mid => 256,
        }
    }

    /// The standard bench training config at this scale.
    pub fn train_config(self, epochs: usize, seed: u64) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: self.batch_size(),
            learning_rate: 1e-3,
            l2_lambda: 1e-4,
            loss: LossKind::MultiLabel,
            bpr_negatives: 1,
            weighted_labels: true,
            seed,
        }
    }
}

/// A generated corpus plus the graph operators built over it — the
/// prologue every corpus-driven bench used to hand-roll.
pub struct CorpusSetup {
    /// The synthetic prescription corpus.
    pub corpus: Corpus,
    /// Bipartite + synergy graph operators over the full corpus.
    pub ops: GraphOperators,
}

/// Generates the corpus for `generator.with_seed(seed)` alone — for
/// callers that build their own graph operators (or time that build
/// themselves, like `online_refresh`'s cold path).
pub fn generate_corpus(generator: GeneratorConfig, seed: u64) -> Corpus {
    SyndromeModel::new(generator.with_seed(seed)).generate()
}

/// Generates the corpus for `generator.with_seed(seed)` and builds the
/// graph operators at `thresholds`.
pub fn corpus_setup(
    generator: GeneratorConfig,
    thresholds: SynergyThresholds,
    seed: u64,
) -> CorpusSetup {
    let corpus = generate_corpus(generator, seed);
    let ops = GraphOperators::from_records(
        corpus.records(),
        corpus.n_symptoms(),
        corpus.n_herbs(),
        thresholds,
    );
    CorpusSetup { corpus, ops }
}

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
    fn corpus_setup_is_deterministic() {
        let a = corpus_setup(
            GeneratorConfig::tiny_scale(),
            BenchScale::Small.thresholds(),
            7,
        );
        let b = corpus_setup(
            GeneratorConfig::tiny_scale(),
            BenchScale::Small.thresholds(),
            7,
        );
        assert_eq!(a.corpus.len(), b.corpus.len());
        assert_eq!(a.corpus.prescriptions(), b.corpus.prescriptions());
    }

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
