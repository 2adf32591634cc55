//! # smgcn-bench — the paper driver, perf bins and microbenchmarks
//!
//! The `paper` bin reproduces the paper's evaluation (§V): every table
//! and figure is a row of one experiment table, scored by the frozen
//! path that serves; it writes `EVAL_paper.json` and fails on a violated
//! ordering claim (README.md, "Reproducing the paper", is the index).
//! `benches/` holds Criterion microbenchmarks for the substrate kernels.
//!
//! Two perf bins measure what the repository benchmark
//! (`BENCHMARK.json` + `benchmark/`, the judge of every speed claim)
//! does not: `online_refresh` (ingest → delta → finetune → freeze →
//! publish) and `obs_overhead` (the telemetry budget). Each prints what
//! it measures and asserts its own contract; a broken one exits
//! nonzero. `obs_overhead` drives a server as a caller of
//! `smgcn-loadgen`. This lib holds [`harness`], the scales
//! `online_refresh` runs at.

pub mod harness;
