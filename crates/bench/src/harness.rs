//! What `online_refresh` runs at: the perf-bench scales and the corpus
//! generated for one; and the numeric-argument check both perf bins
//! share.
//!
//! Deterministic given a seed, so two runs at the same scale build
//! bit-identical inputs and train to the same bits — which is what lets
//! `online_refresh` assert an exact epoch count. `obs_overhead`, which
//! drives a server, takes its synthetic model from
//! `smgcn_loadgen::shape` instead: the load generator is the library,
//! the bench bins are its callers.

use smgcn_core::prelude::*;
use smgcn_data::{Corpus, GeneratorConfig, SyndromeModel};
use smgcn_graph::SynergyThresholds;

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

    /// Model dimensions: toy at small scale; at mid the paper-shaped
    /// smoke model (smaller layers) the online-refresh acceptance
    /// criterion was tuned on.
    pub fn online_model_config(self) -> ModelConfig {
        match self {
            Self::Small => ModelConfig {
                embedding_dim: 16,
                layer_dims: vec![16, 24],
                ..ModelConfig::smgcn()
            },
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

/// Generates the corpus for `generator.with_seed(seed)`; the caller
/// builds (and, on `online_refresh`'s cold path, times) the graph
/// operators itself.
pub fn generate_corpus(generator: GeneratorConfig, seed: u64) -> Corpus {
    SyndromeModel::new(generator.with_seed(seed)).generate()
}

/// `value` of `flag` as a number; anything else is a misuse: an error
/// naming the flag on stderr, exit 2.
pub fn number_arg<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} needs a number");
        std::process::exit(2)
    })
}
