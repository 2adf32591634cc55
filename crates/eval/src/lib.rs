//! # smgcn-eval — metrics, harness and reporting for the reproduction
//!
//! - [`metrics`] — Precision@K / Recall@K / NDCG@K exactly as defined in
//!   §V-B (Eqs. 16–18), truncated at 20;
//! - [`harness`] — corpus preparation at smoke/paper scale, the unified
//!   [`harness::HerbRanker`] interface over frozen neural models,
//!   HC-KGETM and a popularity sanity baseline (all ranked the way
//!   `smgcn-serve` ranks), and train-and-evaluate helpers;
//! - [`report`] — the paper's Table IV layout and the Fig. 10 case study
//!   rendering;
//! - [`significance`] — the paired bootstrap that judges "A beats B";
//! - [`paper`] — every table and figure of §V as a row of one experiment
//!   table, each ordering claim judged, behind `smgcn paper`;
//!   `benches/kernels.rs` times the kernels the repository benchmark
//!   cannot time on its own.

#![warn(missing_docs)]

pub mod harness;
pub mod metrics;
pub mod paper;
pub mod report;
pub mod significance;

pub use harness::{
    average_rows, case_study, evaluate_ranker, non_neural_rows, prepare, prepare_with, run_neural,
    run_ranker, train_config_for, EvalRow, HerbRanker, Lab, PopularityRanker, Prepared, Recipe,
    Scale, RANK_TRUNCATION, SMOKE_SEEDS,
};
pub use metrics::{
    mean_metrics, metrics_at_k, ndcg_at_k, precision_at_k, recall_at_k, RankingMetrics, PAPER_KS,
};
pub use report::{
    format_calibrated_optima, format_case_study, format_corpus_statistics, format_herb_frequencies,
    format_metrics_table,
};
pub use significance::{paired_bootstrap, per_prescription_precision, BootstrapComparison};
