//! Warm-start fine-tuning: resume the pooled trainer instead of
//! retraining cold.
//!
//! A refreshed corpus differs from the one the model was trained on by a
//! small appended batch, so the trained parameters are already near the
//! new optimum. [`fine_tune`] resumes them (the caller warm-starts via
//! [`smgcn_core::Recommender::warm_start_smgcn`] when the graphs or the
//! vocabulary changed) and trains with a small epoch budget, stopping
//! early once the loss reaches a target — typically the cold-training
//! plateau, which `tests/warm_refresh.rs` holds to at most one of eight
//! cold epochs.
//!
//! Determinism: each fine-tune call is seed-deterministic (same inputs,
//! same history), but a warm-started model is **not** weight-identical
//! to a cold retrain on the grown corpus — equality holds at the graph
//! level (see [`crate::delta`]), not the weight level.

use smgcn_core::trainer::{train_until, EpochObserver, TrainingHistory};
use smgcn_core::{Recommender, TrainConfig};
use smgcn_data::Corpus;

/// Budget and stopping rule for one warm-start fine-tune.
#[derive(Clone, Debug)]
pub struct FineTuneConfig {
    /// Hard epoch cap for the refresh (cold schedules run 10-60 epochs;
    /// refreshes should stay well under a quarter of that).
    pub max_epochs: usize,
    /// Stop as soon as an epoch's mean loss reaches this value.
    pub target_loss: Option<f32>,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        Self {
            max_epochs: 5,
            target_loss: None,
        }
    }
}

/// What one fine-tune run did.
#[derive(Clone, Debug)]
pub struct FineTuneReport {
    /// Per-epoch loss trajectory of the resumed run.
    pub history: TrainingHistory,
    /// Epochs actually executed (≤ `max_epochs`).
    pub epochs_run: usize,
    /// Whether `target_loss` was reached (false when no target was set).
    pub reached_target: bool,
}

/// Resumes training `model` on `corpus` under the refresh budget.
///
/// `base` supplies the optimisation hyperparameters of the original
/// training run (learning rate, batch size, λ, loss kind, seed); only
/// the epoch budget is overridden. `observer` receives this run's
/// per-epoch phase timings (see [`train_until`]).
pub fn fine_tune(
    model: &mut Recommender,
    corpus: &Corpus,
    base: &TrainConfig,
    cfg: &FineTuneConfig,
    observer: Option<&EpochObserver>,
) -> FineTuneReport {
    let mut train_cfg = base.clone();
    train_cfg.epochs = cfg.max_epochs;
    let target = cfg.target_loss;
    let history = train_until(model, corpus, &train_cfg, observer, |stats, _| {
        target.is_some_and(|t| stats.mean_loss <= t)
    });
    let epochs_run = history.epochs.len();
    let reached_target = target.is_some_and(|t| history.final_loss() <= t);
    FineTuneReport {
        history,
        epochs_run,
        reached_target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smgcn_core::{train, LossKind, ModelConfig};
    use smgcn_data::{GeneratorConfig, SyndromeModel};
    use smgcn_graph::{GraphOperators, SynergyThresholds};

    fn setup() -> (Corpus, GraphOperators, ModelConfig, TrainConfig) {
        let corpus = SyndromeModel::new(GeneratorConfig::tiny_scale()).generate();
        let ops = GraphOperators::from_records(
            corpus.records(),
            corpus.n_symptoms(),
            corpus.n_herbs(),
            SynergyThresholds { x_s: 1, x_h: 1 },
        );
        let model_cfg = ModelConfig {
            embedding_dim: 16,
            layer_dims: vec![16],
            ..ModelConfig::smgcn()
        };
        let train_cfg = TrainConfig {
            epochs: 6,
            batch_size: 64,
            learning_rate: 5e-3,
            l2_lambda: 1e-4,
            loss: LossKind::MultiLabel,
            weighted_labels: true,
            seed: 7,
        };
        (corpus, ops, model_cfg, train_cfg)
    }

    #[test]
    fn resumed_run_starts_near_the_plateau() {
        let (corpus, ops, model_cfg, train_cfg) = setup();
        let mut model = Recommender::smgcn(&ops, &model_cfg, 1);
        let cold = train(&mut model, &corpus, &train_cfg);

        let mut resumed =
            Recommender::warm_start_smgcn(&ops, &model_cfg, 1, model.store()).unwrap();
        let report = fine_tune(
            &mut resumed,
            &corpus,
            &train_cfg,
            &FineTuneConfig {
                max_epochs: 2,
                ..FineTuneConfig::default()
            },
            None,
        );
        assert_eq!(report.epochs_run, 2);
        // A warm start must begin from the trained loss region, not the
        // cold-start one.
        let cold_first = cold.epochs.first().unwrap().mean_loss;
        let warm_first = report.history.epochs.first().unwrap().mean_loss;
        assert!(
            warm_first < cold_first,
            "warm first epoch {warm_first} should beat cold first epoch {cold_first}"
        );
    }

    #[test]
    fn target_loss_stops_early() {
        let (corpus, ops, model_cfg, train_cfg) = setup();
        let mut model = Recommender::smgcn(&ops, &model_cfg, 1);
        let cold = train(&mut model, &corpus, &train_cfg);
        let plateau = cold.final_loss();

        let mut resumed =
            Recommender::warm_start_smgcn(&ops, &model_cfg, 1, model.store()).unwrap();
        let report = fine_tune(
            &mut resumed,
            &corpus,
            &train_cfg,
            &FineTuneConfig {
                max_epochs: 20,
                target_loss: Some(plateau * 1.05),
            },
            None,
        );
        assert!(report.reached_target, "{:?}", report.history.epochs);
        assert!(
            report.epochs_run < 20,
            "should stop early, ran {}",
            report.epochs_run
        );
    }
}
