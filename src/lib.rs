//! # smgcn-repro — facade over the SMGCN reproduction workspace
//!
//! Reproduction of *Syndrome-aware Herb Recommendation with Multi-Graph
//! Convolution Network* (Jin et al., ICDE 2020). This crate re-exports the
//! workspace's public API so examples and downstream users need a single
//! dependency:
//!
//! - [`tensor`] — dense/sparse linear algebra + reverse-mode autograd;
//! - [`graph`] — symptom–herb bipartite and synergy graph construction;
//! - [`data`] — prescription corpus model and latent-syndrome generator;
//! - [`core`] — SMGCN, its ablations, and the aligned GNN baselines;
//! - [`topics`] — the HC-KGETM topic-model baseline;
//! - [`eval`] — ranking metrics, experiment harness and reports;
//! - [`serve`] — frozen-model inference: batched scoring, LRU caching,
//!   hot model swap and the `smgcn serve` TCP loop;
//! - [`online`] — the live loop: streaming ingestion (WAL), incremental
//!   graph deltas, warm-start fine-tuning and generation publishing;
//! - [`cluster`] — replicated serving: consistent-hash routing over N
//!   replicas, health probes with backoff ejection, failover and rolling
//!   model publishes (`smgcn route` / `smgcn cluster-refresh`);
//! - [`obs`] — the telemetry plane: lock-free metric registry,
//!   request-trace spans and structured event journals behind the
//!   `{"op":"metrics"}` / `{"op":"events"}` verbs and `smgcn top`;
//! - [`faults`] — the seeded deterministic fault-injection plane:
//!   named sites wired through the WAL, artifact decode, and replica
//!   links, replayable plans (`SMGCN_FAULT_SEED`), near-zero cost when
//!   disabled;
//! - [`experiment`] — the A/B experiment plane: seeded sticky traffic
//!   splits ([`experiment::SplitPlan`]), promotion guardrails and
//!   team-draft interleaving with permutation significance, behind the
//!   `{"op":"experiment"}` verbs and `smgcn experiment` / `smgcn
//!   promote`;
//! - [`loadgen`] — deterministic multi-scenario load & chaos engine
//!   with per-scenario SLO assertions (`smgcn loadgen`), including the
//!   `fault-storm` scenario driven by the fault plane.
//!
//! See README.md for a tour and, there, "Reproducing the paper".

pub use smgcn_cluster as cluster;
pub use smgcn_core as core;
pub use smgcn_data as data;
pub use smgcn_eval as eval;
pub use smgcn_experiment as experiment;
pub use smgcn_faults as faults;
pub use smgcn_graph as graph;
pub use smgcn_loadgen as loadgen;
pub use smgcn_obs as obs;
pub use smgcn_online as online;
pub use smgcn_serve as serve;
pub use smgcn_tensor as tensor;
pub use smgcn_topics as topics;

/// Convenience prelude pulling in the most common types across crates.
pub mod prelude {
    pub use smgcn_cluster::{HashRing, PoolConfig, ReplicaPool, Router, RouterConfig};
    pub use smgcn_core::prelude::*;
    pub use smgcn_data::{
        corpus_stats, herb_frequencies, train_test_split_fraction, Corpus, GeneratorConfig,
        Prescription, SyndromeModel, PAPER_TEST_FRACTION,
    };
    pub use smgcn_eval::{
        evaluate_ranker, prepare, prepare_with, run_neural, run_ranker, EvalRow, HerbRanker,
        PopularityRanker, Scale, PAPER_KS,
    };
    pub use smgcn_graph::{GraphOperators, SynergyThresholds};
    pub use smgcn_online::{
        FineTuneConfig, IncrementalGraphs, Ingestor, OnlineConfig, OnlinePipeline,
    };
    pub use smgcn_serve::{
        Batcher, BatcherConfig, FrozenModel, LruCache, ModelSlot, Server, ServerConfig,
        ServingVocab,
    };
    pub use smgcn_topics::{HcKgetm, KgetmConfig};
}
