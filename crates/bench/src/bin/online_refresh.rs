//! Online-refresh benchmark: ingest→delta→finetune→freeze→swap latency,
//! and warm-start convergence vs a cold full retrain.
//!
//! The scenario: a model trained on a base corpus, then a batch of new
//! prescriptions arrives (the last `append_fraction` of a grown corpus
//! from the same generator). Two ways to fold them in:
//!
//! 1. **cold** — rebuild the graphs from scratch on the grown corpus and
//!    retrain for the full epoch schedule (the paper's static pipeline);
//! 2. **warm** — the `smgcn-online` loop: WAL-less ingest, incremental
//!    graph deltas, warm-start fine-tune with an epoch cap of **25% of
//!    the cold schedule**, re-freeze, hot-swap publish.
//!
//! The benchmark asserts the warm path reaches the cold plateau loss
//! (within 5%) inside that cap — the acceptance criterion that makes
//! online refresh honest, not just fast — and, tighter, in at most one
//! of the eight cold epochs, the count it has taken since it was first
//! recorded. Both are deterministic given the seed (training is
//! bit-reproducible), so they never flake. Every stage's wall time is
//! printed, not asserted: a ~40 ms window is too throttling-sensitive
//! to be a contract.
//!
//! ```text
//! online_refresh [--scale small|mid] [--seed N]
//! ```

use std::time::Instant;

use smgcn_bench::harness::{generate_corpus, number_arg, BenchScale};
use smgcn_core::prelude::*;
use smgcn_data::Corpus;
use smgcn_graph::GraphOperators;
use smgcn_online::{FineTuneConfig, OnlineConfig, OnlinePipeline};

const COLD_EPOCHS: usize = 8;

/// Fraction of the grown corpus that arrives as the online batch.
const APPEND_FRACTION: f64 = 0.1;

/// The most cold epochs the warm fine-tune may take to reach the
/// plateau.
const WARM_EPOCHS_MAX: usize = 1;

struct Args {
    scale: BenchScale,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: BenchScale::Mid,
        seed: 2020,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--scale" => {
                args.scale = BenchScale::from_arg(&value("--scale")).unwrap_or_else(|| {
                    eprintln!("error: unknown scale (use small|mid)");
                    std::process::exit(2);
                })
            }
            "--seed" => args.seed = number_arg(&arg, &value(&arg)),
            other => {
                eprintln!(
                    "error: unknown argument {other:?}\n\
                     usage: online_refresh [--scale small|mid] [--seed N]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn train_cold(
    corpus: &Corpus,
    ops: &GraphOperators,
    model_cfg: &ModelConfig,
    train_cfg: &TrainConfig,
) -> (Recommender, TrainingHistory, f64) {
    let mut model = Recommender::smgcn(ops, model_cfg, train_cfg.seed);
    let t0 = Instant::now();
    let history = train(&mut model, corpus, train_cfg);
    (model, history, t0.elapsed().as_secs_f64())
}

fn main() {
    let args = parse_args();
    let scale = args.scale;
    println!("=== smgcn online_refresh ===");
    println!("scale: {} | seed: {}", scale.name(), args.seed);

    // The grown corpus; its tail is "today's" append batch. The graph
    // operators are built below, inside the timed cold path.
    let grown = generate_corpus(scale.generator(), args.seed);
    let n_total = grown.len();
    let n_append = ((n_total as f64) * APPEND_FRACTION).round() as usize;
    let n_base = n_total - n_append;
    let base_indices: Vec<usize> = (0..n_base).collect();
    let base = grown.subset(&base_indices);
    println!(
        "corpus: {n_base} base + {n_append} appended prescriptions, {} symptoms, {} herbs",
        grown.n_symptoms(),
        grown.n_herbs()
    );

    let thresholds = scale.thresholds();
    let model_cfg = scale.online_model_config();
    let train_cfg = scale.train_config(COLD_EPOCHS, args.seed);

    // --- offline prologue: the model in production today --------------
    let ops_base = GraphOperators::from_records(
        base.records(),
        base.n_symptoms(),
        base.n_herbs(),
        thresholds,
    );
    let (base_model, base_history, base_wall) =
        train_cold(&base, &ops_base, &model_cfg, &train_cfg);
    println!(
        "base model: {COLD_EPOCHS} epochs in {base_wall:.2} s, final loss {:.4}",
        base_history.final_loss()
    );

    // --- cold path: rebuild everything on the grown corpus ------------
    let t_rebuild = Instant::now();
    let ops_full = GraphOperators::from_records(
        grown.records(),
        grown.n_symptoms(),
        grown.n_herbs(),
        thresholds,
    );
    let graph_rebuild_ms = t_rebuild.elapsed().as_secs_f64() * 1e3;
    let (_, cold_history, cold_wall) = train_cold(&grown, &ops_full, &model_cfg, &train_cfg);
    let plateau = cold_history.final_loss();
    println!(
        "cold retrain: graphs {graph_rebuild_ms:.1} ms + {COLD_EPOCHS} epochs in {cold_wall:.2} s, \
         plateau loss {plateau:.4}"
    );

    // --- warm path: the online loop ------------------------------------
    let warm_cap = (COLD_EPOCHS / 4).max(1);
    let target = plateau * 1.05;
    let mut pipeline = OnlinePipeline::new(
        base.clone(),
        base_model,
        OnlineConfig {
            thresholds,
            model: model_cfg,
            train: train_cfg.clone(),
            finetune: FineTuneConfig {
                max_epochs: warm_cap,
                target_loss: Some(target),
                learning_rate: None,
            },
            seed: args.seed,
        },
    );
    let t_ingest = Instant::now();
    let mut accepted = 0usize;
    for p in &grown.prescriptions()[n_base..] {
        if pipeline
            .ingest_ids(p.symptoms().to_vec(), p.herbs().to_vec())
            .expect("ingest")
            == smgcn_online::IngestOutcome::Accepted
        {
            accepted += 1;
        }
    }
    let ingest_ms = t_ingest.elapsed().as_secs_f64() * 1e3;
    let report = pipeline.refresh().expect("refresh");
    let ingest_to_swap_ms = ingest_ms + report.total_ms;
    println!(
        "warm refresh: {accepted} accepted ({} duplicates dropped) | ingest {ingest_ms:.1} ms | \
         delta {:.1} ms | finetune {:.1} ms ({} epochs) | freeze {:.1} ms | publish {:.3} ms",
        n_append - accepted,
        report.delta_ms,
        report.finetune_ms,
        report.epochs_run,
        report.freeze_ms,
        report.publish_ms
    );
    println!(
        "ingest -> swap: {ingest_to_swap_ms:.1} ms end to end (generation {})",
        report.generation
    );

    // The honesty criteria: the warm path must reach the cold plateau
    // (within 5%) inside its cap of a quarter of the cold epoch budget,
    // and in no more epochs than it has ever needed.
    let epochs_ratio = report.epochs_run as f64 / COLD_EPOCHS as f64;
    println!(
        "convergence: warm loss {:.4} vs plateau {plateau:.4} (target {target:.4}) \
         in {} / {COLD_EPOCHS} epochs ({:.0}%)",
        report.final_loss,
        report.epochs_run,
        epochs_ratio * 100.0
    );
    assert!(
        report.final_loss <= target,
        "warm-start fine-tune missed the cold plateau: {} > {target}",
        report.final_loss
    );
    assert!(
        report.epochs_run <= WARM_EPOCHS_MAX,
        "warm-start needed {} of {COLD_EPOCHS} cold epochs (at most {WARM_EPOCHS_MAX})",
        report.epochs_run
    );
    println!(
        "OK: plateau reached in {} of {COLD_EPOCHS} cold epochs (at most {WARM_EPOCHS_MAX})",
        report.epochs_run
    );
}
