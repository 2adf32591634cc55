//! # smgcn-bench — the paper driver, perf bins and microbenchmarks
//!
//! The `paper` bin reproduces the paper's evaluation (§V): every table
//! and figure is a row of one experiment table, scored by the frozen
//! path that serves; it writes `EVAL_paper.json` and fails on a violated
//! ordering claim (README.md, "Reproducing the paper", is the index).
//! `benches/` holds Criterion microbenchmarks for the substrate kernels.
//!
//! Three perf bins measure what the repository benchmark
//! (`BENCHMARK.json` + `benchmark/`, the judge of every speed claim)
//! does not: `online_refresh` (ingest → delta → finetune → freeze →
//! publish), `connection_storm` (10k+ held connections) and
//! `obs_overhead` (the telemetry budget). The two that drive a server
//! are callers of `smgcn-loadgen`. This lib holds what they share:
//!
//! - [`harness`] — the scales `online_refresh` runs at;
//! - [`report`] — the unified `BENCH_*.json` schema every perf bin emits;
//! - [`gate`] — the regression comparison behind the `bench-gate` bin,
//!   which re-runs each checked-in baseline's replay recipe and exits
//!   nonzero when any gated metric regresses more than the tolerance.

pub mod gate;
pub mod harness;
pub mod report;
