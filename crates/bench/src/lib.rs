//! # smgcn-bench — reproduction binaries and microbenchmarks
//!
//! One binary per table and figure of the paper's evaluation (§V); see
//! DESIGN.md §4 for the experiment index. Every binary accepts:
//!
//! ```text
//! --scale smoke|paper   corpus + model scale (default: smoke)
//! --seed N              data split / init seed (default: 2020)
//! --epochs N            override the per-model epoch budget
//! --seeds N             number of training seeds to average (default: 3
//!                       at smoke scale, 1 at paper scale)
//! ```
//!
//! The `benches/` directory holds Criterion microbenchmarks for the
//! substrate kernels (GEMM, SpMM, graph construction, full forward +
//! backward steps).
//!
//! Beyond the reproduction bins, three perf bins measure what the
//! repository benchmark (`BENCHMARK.json` + `benchmark/`, the judge of
//! every speed claim) does not: `online_refresh` (ingest → delta →
//! finetune → freeze → publish), `connection_storm` (10k+ held
//! connections) and `obs_overhead` (the telemetry budget). The two that
//! drive a server are callers of `smgcn-loadgen` — its synthetic model,
//! its percentile rule, its storm cohort. This lib holds what is left:
//!
//! - [`harness`] — the scales `online_refresh` runs at;
//! - [`report`] — the unified `BENCH_*.json` schema every perf bin
//!   emits (bench name, seed, scale, hardware note, flat metrics map,
//!   gate directions, replay recipe);
//! - [`gate`] — the regression comparison behind the `bench-gate` bin,
//!   which re-runs each checked-in baseline's replay recipe and exits
//!   nonzero when any gated metric regresses more than the tolerance.

pub mod gate;
pub mod harness;
pub mod report;

use smgcn_core::prelude::*;
use smgcn_eval::{Scale, SMOKE_SEEDS};

/// Parsed common CLI options.
#[derive(Clone, Debug)]
pub struct CliArgs {
    /// Experiment scale.
    pub scale: Scale,
    /// Data/split seed.
    pub seed: u64,
    /// Optional epoch override.
    pub epochs: Option<usize>,
    /// Training seeds to average.
    pub train_seeds: Vec<u64>,
}

impl CliArgs {
    /// Parses `std::env::args`, exiting with usage text on bad input.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    #[allow(clippy::should_implement_trait)] // not a collection conversion
    pub fn from_iter(args: impl IntoIterator<Item = String>) -> Self {
        let mut scale = Scale::Smoke;
        let mut seed = 2020u64;
        let mut epochs = None;
        let mut n_seeds: Option<usize> = None;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().unwrap_or_default();
                    scale = Scale::from_arg(&v).unwrap_or_else(|| {
                        usage(&format!("unknown scale {v:?} (use smoke|paper)"))
                    });
                }
                "--seed" => {
                    let v = it.next().unwrap_or_default();
                    seed = v
                        .parse()
                        .unwrap_or_else(|_| usage(&format!("bad seed {v:?}")));
                }
                "--epochs" => {
                    let v = it.next().unwrap_or_default();
                    epochs = Some(
                        v.parse()
                            .unwrap_or_else(|_| usage(&format!("bad epochs {v:?}"))),
                    );
                }
                "--seeds" => {
                    let v = it.next().unwrap_or_default();
                    n_seeds = Some(
                        v.parse()
                            .unwrap_or_else(|_| usage(&format!("bad seeds {v:?}"))),
                    );
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown argument {other:?}")),
            }
        }
        let default_seeds = match scale {
            Scale::Smoke => SMOKE_SEEDS.to_vec(),
            Scale::Paper => vec![SMOKE_SEEDS[0]],
        };
        let train_seeds = match n_seeds {
            Some(n) => (0..n as u64).map(|i| SMOKE_SEEDS[0] + i).collect(),
            None => default_seeds,
        };
        Self {
            scale,
            seed,
            epochs,
            train_seeds,
        }
    }

    /// The per-model training config at this scale, with the epoch override
    /// applied.
    pub fn train_config(&self, kind: ModelKind) -> TrainConfig {
        let mut cfg = smgcn_eval::train_config_for(kind, self.scale);
        if let Some(e) = self.epochs {
            cfg.epochs = e;
        }
        cfg
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <bin> [--scale smoke|paper] [--seed N] [--epochs N] [--seeds N]\n\
         reproduces one table/figure of the SMGCN paper; see DESIGN.md §4"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 })
}

/// Prints the standard experiment banner.
pub fn banner(experiment: &str, claim: &str, args: &CliArgs) {
    println!("=== {experiment} ===");
    println!("paper claim: {claim}");
    println!(
        "scale: {:?} | split seed: {} | training seeds: {:?}",
        args.scale, args.seed, args.train_seeds
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> CliArgs {
        CliArgs::from_iter(s.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale, Scale::Smoke);
        assert_eq!(a.seed, 2020);
        assert_eq!(a.epochs, None);
        assert_eq!(a.train_seeds, SMOKE_SEEDS.to_vec());
    }

    #[test]
    fn parses_flags() {
        let a = parse(&[
            "--scale", "paper", "--seed", "7", "--epochs", "5", "--seeds", "2",
        ]);
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.seed, 7);
        assert_eq!(a.epochs, Some(5));
        assert_eq!(a.train_seeds.len(), 2);
    }

    #[test]
    fn paper_scale_defaults_to_one_seed() {
        let a = parse(&["--scale", "paper"]);
        assert_eq!(a.train_seeds.len(), 1);
    }

    #[test]
    fn epoch_override_applies() {
        let a = parse(&["--epochs", "3"]);
        let cfg = a.train_config(ModelKind::Smgcn);
        assert_eq!(cfg.epochs, 3);
    }
}
