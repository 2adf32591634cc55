//! The unified `BENCH_*.json` schema shared by every benchmark binary.
//!
//! Before this module each bench bin hand-rolled its own JSON shape, so
//! nothing could compare a fresh run against a checked-in baseline
//! mechanically. Every bench now emits one [`BenchReport`]:
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "bench": "online_refresh",          // benchmark name
//!   "scale": "mid",                     // corpus/model scale label
//!   "seed": 2020,
//!   "hardware": {"arch": ..., "os": ..., "threads": N},
//!   "replay": {"bin": ..., "args": [...]},   // how to reproduce this run
//!   "metrics": {"epochs_ratio": 0.2, ...},   // flat name -> number map
//!   "gates": {"epochs_ratio": "lower", ...}, // which metrics bench-gate checks
//!   "extra": {...}                           // free-form context, never gated
//! }
//! ```
//!
//! `metrics` is deliberately flat (`String -> f64`): that is what makes a
//! generic regression gate possible. Booleans and counts are encoded as
//! numbers (0/1). `gates` names the subset of metrics whose regression
//! fails CI, each with a direction:
//!
//! - `"higher"` — bigger is better (throughput, speedup, hit rate);
//! - `"lower"`  — smaller is better (latency, epochs ratio);
//! - `"exact"`  — any change is a failure (invariant flags, error counts).
//!
//! The `replay` block records the exact binary and arguments that
//! produced the file, so `bench-gate` can re-run a baseline at the same
//! scale and seed without a hand-maintained mapping.

use std::collections::BTreeMap;

use smgcn_serve::json::{self, Json};

/// Version stamp; bump when the shape changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// Which way a gated metric is allowed to move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateDirection {
    /// Bigger is better; regression = fresh < baseline * (1 - tolerance).
    Higher,
    /// Smaller is better; regression = fresh > baseline * (1 + tolerance).
    Lower,
    /// Must match the baseline exactly (counts, boolean invariants).
    Exact,
}

impl GateDirection {
    /// The wire label.
    pub fn name(self) -> &'static str {
        match self {
            Self::Higher => "higher",
            Self::Lower => "lower",
            Self::Exact => "exact",
        }
    }

    /// Parses a wire label.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "higher" => Some(Self::Higher),
            "lower" => Some(Self::Lower),
            "exact" => Some(Self::Exact),
            _ => None,
        }
    }
}

/// One benchmark run in the unified schema.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Benchmark name (`online_refresh`, `connection_storm`, ...).
    pub bench: String,
    /// Scale label the run was measured at (`small`, `mid`, `smoke`, ...).
    pub scale: String,
    /// Data/init seed.
    pub seed: u64,
    /// Binary name that produced the report (for replay).
    pub replay_bin: String,
    /// Arguments (minus `--out`) that reproduce the run.
    pub replay_args: Vec<String>,
    /// Flat metric map; sorted for deterministic output.
    pub metrics: BTreeMap<String, f64>,
    /// Gated subset of `metrics` and the direction each may move.
    pub gates: BTreeMap<String, GateDirection>,
    /// Free-form context (never compared by the gate).
    pub extra: BTreeMap<String, Json>,
}

impl BenchReport {
    /// Starts a report for `bench`, recording the replay recipe.
    pub fn new(
        bench: &str,
        scale: &str,
        seed: u64,
        replay_bin: &str,
        replay_args: &[&str],
    ) -> Self {
        Self {
            bench: bench.to_string(),
            scale: scale.to_string(),
            seed,
            replay_bin: replay_bin.to_string(),
            replay_args: replay_args.iter().map(ToString::to_string).collect(),
            metrics: BTreeMap::new(),
            gates: BTreeMap::new(),
            extra: BTreeMap::new(),
        }
    }

    /// Records an ungated metric.
    pub fn metric(&mut self, name: &str, value: f64) -> &mut Self {
        self.metrics.insert(name.to_string(), value);
        self
    }

    /// Records a gated metric.
    pub fn gated(&mut self, name: &str, value: f64, direction: GateDirection) -> &mut Self {
        self.metrics.insert(name.to_string(), value);
        self.gates.insert(name.to_string(), direction);
        self
    }

    /// Records free-form context.
    pub fn context(&mut self, name: &str, value: Json) -> &mut Self {
        self.extra.insert(name.to_string(), value);
        self
    }

    /// Serialises to the pretty multi-line on-disk form. Field order is
    /// fixed and maps are sorted, so output is deterministic.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!(
            "  \"bench\": {},\n",
            Json::Str(self.bench.clone())
        ));
        out.push_str(&format!(
            "  \"scale\": {},\n",
            Json::Str(self.scale.clone())
        ));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"hardware\": {},\n", hardware_json()));
        let replay = json::obj([
            ("bin", Json::Str(self.replay_bin.clone())),
            (
                "args",
                Json::Arr(
                    self.replay_args
                        .iter()
                        .map(|a| Json::Str(a.clone()))
                        .collect(),
                ),
            ),
        ]);
        out.push_str(&format!("  \"replay\": {replay},\n"));
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(k, v)| (k.clone(), json_num(*v)))
                .collect(),
        );
        out.push_str(&format!("  \"metrics\": {metrics},\n"));
        let gates = Json::Obj(
            self.gates
                .iter()
                .map(|(k, d)| (k.clone(), Json::Str(d.name().to_string())))
                .collect(),
        );
        out.push_str(&format!("  \"gates\": {gates},\n"));
        out.push_str(&format!("  \"extra\": {}\n", Json::Obj(self.extra.clone())));
        out.push_str("}\n");
        out
    }

    /// Writes the report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }

    /// Parses a report from its JSON text. The `hardware` block is
    /// informational and intentionally dropped (baselines and fresh runs
    /// may come from different machines).
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let version = root
            .get("schema_version")
            .and_then(Json::as_num)
            .ok_or("missing schema_version (pre-unified BENCH file? re-run the bench)")?;
        if version as u64 != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} unsupported (expected {SCHEMA_VERSION})"
            ));
        }
        let field_str = |name: &str| -> Result<String, String> {
            root.get(name)
                .and_then(Json::as_str)
                .map(ToString::to_string)
                .ok_or_else(|| format!("missing string field {name:?}"))
        };
        let bench = field_str("bench")?;
        let scale = field_str("scale")?;
        let seed = root
            .get("seed")
            .and_then(Json::as_num)
            .ok_or("missing seed")? as u64;
        let replay = root.get("replay").ok_or("missing replay block")?;
        let replay_bin = replay
            .get("bin")
            .and_then(Json::as_str)
            .ok_or("replay block missing bin")?
            .to_string();
        let replay_args = replay
            .get("args")
            .and_then(Json::as_arr)
            .ok_or("replay block missing args")?
            .iter()
            .map(|a| {
                a.as_str()
                    .map(ToString::to_string)
                    .ok_or_else(|| "non-string replay arg".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = match root.get("metrics") {
            Some(Json::Obj(map)) => map
                .iter()
                .map(|(k, v)| {
                    v.as_num()
                        .or(matches!(v, Json::Null).then_some(f64::NAN))
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("metric {k:?} is not a number"))
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?,
            _ => return Err("missing metrics object".into()),
        };
        let gates = match root.get("gates") {
            Some(Json::Obj(map)) => map
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .and_then(GateDirection::from_name)
                        .map(|d| (k.clone(), d))
                        .ok_or_else(|| format!("gate {k:?} has an unknown direction"))
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?,
            _ => BTreeMap::new(),
        };
        let extra = match root.get("extra") {
            Some(Json::Obj(map)) => map.clone(),
            _ => BTreeMap::new(),
        };
        Ok(Self {
            bench,
            scale,
            seed,
            replay_bin,
            replay_args,
            metrics,
            gates,
            extra,
        })
    }
}

/// A finite JSON number; NaN/inf become `null` so the file always parses.
fn json_num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// The hardware note: enough to explain why two baselines differ, not
/// enough to pretend numbers are portable.
pub fn hardware_json() -> Json {
    json::obj([
        ("arch", Json::Str(std::env::consts::ARCH.to_string())),
        ("os", Json::Str(std::env::consts::OS.to_string())),
        (
            "threads",
            Json::Num(
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1) as f64,
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new(
            "demo",
            "small",
            7,
            "demo_bin",
            &["--scale", "small", "--seed", "7"],
        );
        r.gated("speedup", 3.5, GateDirection::Higher)
            .gated("p99_us", 120.0, GateDirection::Lower)
            .gated("failed", 0.0, GateDirection::Exact)
            .metric("wall_s", 1.25)
            .context("note", Json::Str("context".into()));
        r
    }

    #[test]
    fn round_trips() {
        let r = sample();
        let text = r.to_json_string();
        let parsed = BenchReport::parse(&text).expect("parse");
        assert_eq!(parsed.bench, "demo");
        assert_eq!(parsed.scale, "small");
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.replay_bin, "demo_bin");
        assert_eq!(parsed.replay_args, r.replay_args);
        assert_eq!(parsed.metrics, r.metrics);
        assert_eq!(parsed.gates.len(), 3);
        assert_eq!(parsed.gates["speedup"], GateDirection::Higher);
    }

    #[test]
    fn serialisation_is_deterministic() {
        assert_eq!(sample().to_json_string(), sample().to_json_string());
    }

    #[test]
    fn non_finite_metrics_stay_parseable() {
        let mut r = sample();
        r.metric("diverged", f64::NAN);
        let parsed = BenchReport::parse(&r.to_json_string()).expect("parse");
        assert!(parsed.metrics["diverged"].is_nan());
    }

    #[test]
    fn rejects_legacy_schema() {
        assert!(BenchReport::parse("{\"bench\": \"train_throughput\"}").is_err());
    }
}
