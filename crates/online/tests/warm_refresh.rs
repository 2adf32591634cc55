//! The online loop's contract: folding an appended batch in by warm-start
//! fine-tuning reaches the loss a cold retrain on the grown corpus
//! plateaus at (within 5%), in at most [`WARM_EPOCHS_MAX`] of the cold
//! schedule's [`COLD_EPOCHS`].
//!
//! The scenario: a model trained on a base corpus, then the last tenth of
//! a grown corpus from the same generator arrives. Cold rebuilds the
//! graphs and retrains for the full schedule; warm is [`OnlinePipeline`]:
//! ingest, graph deltas, fine-tune capped at a quarter of the cold epochs
//! and stopped at the plateau, freeze, publish. Training is
//! bit-reproducible given the seed, so the epoch count is exact and the
//! check never flakes.
//!
//! Runs on the smoke corpus with the smoke-sized SMGCN, the scale the
//! contract was first recorded at.

use smgcn_core::prelude::*;
use smgcn_data::{Corpus, GeneratorConfig, SyndromeModel};
use smgcn_graph::{GraphOperators, SynergyThresholds};
use smgcn_online::{FineTuneConfig, OnlineConfig, OnlinePipeline};

const COLD_EPOCHS: usize = 8;

/// The most cold epochs the warm fine-tune may take to reach the plateau.
const WARM_EPOCHS_MAX: usize = 1;

/// Share of the grown corpus that arrives as the online batch.
const APPEND_FRACTION: f64 = 0.1;

const SEED: u64 = 2020;

#[test]
fn a_warm_refresh_reaches_the_cold_plateau_in_one_of_eight_epochs() {
    let grown = SyndromeModel::new(GeneratorConfig::smoke_scale().with_seed(SEED)).generate();
    let n_append = (grown.len() as f64 * APPEND_FRACTION).round() as usize;
    let n_base = grown.len() - n_append;
    let base = grown.subset(&(0..n_base).collect::<Vec<_>>());
    let thresholds = SynergyThresholds { x_s: 5, x_h: 30 };
    let model_cfg = ModelConfig::smgcn().smoke();
    let train_cfg = TrainConfig {
        epochs: COLD_EPOCHS,
        l2_lambda: 1e-4,
        seed: SEED,
        ..TrainConfig::smoke()
    };
    let cold = |corpus: &Corpus| {
        let ops = GraphOperators::from_records(
            corpus.records(),
            corpus.n_symptoms(),
            corpus.n_herbs(),
            thresholds,
        );
        let mut model = Recommender::smgcn(&ops, &model_cfg, SEED);
        let history = train(&mut model, corpus, &train_cfg);
        (model, history.final_loss())
    };
    let (base_model, _) = cold(&base);
    let (_, plateau) = cold(&grown);

    let target = plateau * 1.05;
    let mut pipeline = OnlinePipeline::new(
        base,
        base_model,
        OnlineConfig {
            thresholds,
            model: model_cfg,
            train: train_cfg,
            finetune: FineTuneConfig {
                max_epochs: COLD_EPOCHS / 4,
                target_loss: Some(target),
                learning_rate: None,
            },
            seed: SEED,
        },
    );
    for p in &grown.prescriptions()[n_base..] {
        let (symptoms, herbs) = (p.symptoms().to_vec(), p.herbs().to_vec());
        pipeline.ingest_ids(symptoms, herbs).expect("ingest");
    }
    let report = pipeline.refresh().expect("refresh");
    assert!(
        report.final_loss <= target,
        "the warm fine-tune missed the cold plateau: {} > {target}",
        report.final_loss
    );
    assert!(
        report.epochs_run <= WARM_EPOCHS_MAX,
        "the warm fine-tune needed {} of {COLD_EPOCHS} cold epochs (at most {WARM_EPOCHS_MAX})",
        report.epochs_run
    );
}
