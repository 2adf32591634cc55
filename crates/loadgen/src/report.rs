//! Scenario reports: a deterministic workload section plus a measured
//! section.
//!
//! The split is the honesty mechanism. Everything derived from the seed
//! — scenario, schedule digest, request counts, topology, chaos plan,
//! SLO contract — lands in `workload`, and [`WorkloadSummary::workload_json`]
//! is **byte-identical** for the same seed across runs and thread counts
//! (property-tested). Everything the wall clock touched — latencies,
//! qps, chaos timings, violations — lands in `measured`, which varies
//! run to run and says so. Tooling that wants to compare two runs checks
//! the workload digests match first, then diffs the measurements.

use smgcn_serve::json::Json;

use crate::scenario::{StormSpec, Workload};
use crate::slo::SloVerdict;

/// Execution measurements for one scenario run.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Requests that completed (success or failure).
    pub executed: usize,
    /// Client-visible failures.
    pub failures: usize,
    /// Wall-clock of the whole run, milliseconds.
    pub wall_ms: f64,
    /// Completed queries per second over the run.
    pub qps: f64,
    /// Client-observed latency percentiles, milliseconds.
    pub p50_ms: f64,
    /// p99, milliseconds.
    pub p99_ms: f64,
    /// Worst single request, milliseconds.
    pub max_ms: f64,
    /// Distinct model generations observed in responses, sorted.
    pub generations_seen: Vec<u64>,
    /// Chaos actions with their measured durations (label, ms).
    pub chaos_timings: Vec<(String, f64)>,
    /// Executor worker threads (an execution detail, hence here).
    pub workers: usize,
    /// Before/after deltas of the front-end's `_total` metric counters
    /// over the run (name, delta), nonzero entries only, sorted by name.
    /// Empty when no metrics snapshot was available.
    pub counter_deltas: Vec<(String, f64)>,
    /// Cache hit rate over the run derived from the counter deltas
    /// (hits / lookups; 0 when the run touched no cache).
    pub cache_hit_rate: f64,
    /// Faults the installed plan actually injected over the run (0 when
    /// the scenario carries no plan).
    pub faults_injected: u64,
    /// Names of burn-rate alert rules that fired at least once over the
    /// run's scraped history, sorted and deduplicated.
    pub alerts_fired: Vec<String>,
    /// Total rule firings across all evaluation instants (one rule
    /// firing at many scrape timestamps counts each).
    pub alert_firings: usize,
    /// The most connections the server held open at once during a
    /// connection storm, by its own `reactor_open_fds` gauge; `None`
    /// when the scenario holds no cohort.
    pub storm_peak_open: Option<usize>,
}

/// A complete scenario run: the plan and what happened.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// The deterministic plan.
    pub workload: WorkloadSummary,
    /// The measurements.
    pub measured: Measured,
    /// The SLO verdict.
    pub verdict: SloVerdict,
    /// The front-end's raw `{"op":"metrics"}` response captured at the
    /// end of the run (before teardown), for artifact upload. Not part
    /// of the report JSON — tooling writes it alongside.
    pub metrics_json: Option<String>,
    /// The front-end's raw `{"op":"events"}` journal captured the same
    /// way (fault recoveries, publishes, deadline sheds — the forensic
    /// record of what the run's chaos actually did).
    pub events_json: Option<String>,
    /// The scraped metrics history in the on-disk tsdb format
    /// (`smgcn_obs::tsdb`), one record per scrape plus the client-side
    /// summary record. Tooling writes it as `TSDB_<scenario>.bin`;
    /// `smgcn query` reads it back. `None` when no scrape succeeded.
    pub tsdb: Option<Vec<u8>>,
    /// The front-end's raw `{"op":"profile"}` response captured at the
    /// end of the run: cumulative folded stacks plus the wall-time
    /// coverage accounting.
    pub profile_json: Option<String>,
    /// The fleet's raw A/B comparison report (`{"op":"experiment",
    /// "action":"compare"}`) for experiment scenarios: per-variant
    /// request/error/latency rates plus the team-draft interleaving
    /// verdict. Tooling writes it as `EXPERIMENT_<scenario>.json`;
    /// `None` for scenarios without a split.
    pub experiment_json: Option<String>,
}

/// The deterministic face of a workload (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSummary {
    /// Scenario name.
    pub scenario: String,
    /// Seed the schedule derives from.
    pub seed: u64,
    /// Schedule horizon, milliseconds.
    pub measure_ms: u64,
    /// Ranking depth.
    pub k: usize,
    /// Query count planned.
    pub n_queries: usize,
    /// Ingest count planned.
    pub n_ingests: usize,
    /// FNV-1a fingerprint of the canonical schedule, hex.
    pub schedule_digest: String,
    /// Topology label.
    pub topology: String,
    /// Chaos plan labels with offsets ("kill-replica-0@800000us").
    pub chaos: Vec<String>,
    /// FNV-1a fingerprint of the canonical fault plan, hex; `None` when
    /// the scenario injects no faults.
    pub fault_plan_digest: Option<String>,
    /// Burn-rate alert rules with their expectations
    /// (`name(expect-fired|expect-silent|observe)`), deterministic per
    /// workload.
    pub alert_rules: Vec<String>,
    /// Connection-storm cohort label
    /// (`storm-<conns>-conns-<slow>-slow-writers`); `None` when the
    /// scenario holds no cohort open.
    pub storm: Option<String>,
    /// SLO contract rendering.
    pub slo_p99_ms: f64,
    /// Failure budget.
    pub slo_max_failures: usize,
    /// Generation-consistency mode name.
    pub slo_generation: String,
}

impl WorkloadSummary {
    /// Summarises a built workload.
    pub fn from_workload(w: &Workload) -> Self {
        Self {
            scenario: w.kind.name().to_string(),
            seed: w.config.seed,
            measure_ms: w.config.measure_ms,
            k: w.config.k,
            n_queries: w.schedule.query_count(),
            n_ingests: w.schedule.ingest_count(),
            schedule_digest: format!("{:016x}", w.schedule.digest()),
            topology: w.topology.describe(),
            chaos: w
                .chaos
                .iter()
                .map(|c| format!("{}@{}us", c.action.describe(), c.at_us))
                .collect(),
            fault_plan_digest: w
                .fault_plan
                .as_ref()
                .map(|p| format!("{:016x}", p.digest())),
            alert_rules: w.alerts.describe(),
            storm: w.storm.as_ref().map(StormSpec::describe),
            slo_p99_ms: w.slo.max_p99_ms,
            slo_max_failures: w.slo.max_failures,
            slo_generation: w.slo.generation_consistency.name().to_string(),
        }
    }

    fn to_json_lines(&self) -> String {
        let chaos = Json::Arr(self.chaos.iter().map(|c| Json::Str(c.clone())).collect());
        let fault_plan = self
            .fault_plan_digest
            .as_ref()
            .map_or(Json::Null, |d| Json::Str(d.clone()));
        let alert_rules = Json::Arr(
            self.alert_rules
                .iter()
                .map(|r| Json::Str(r.clone()))
                .collect(),
        );
        let storm = self
            .storm
            .as_ref()
            .map_or(Json::Null, |s| Json::Str(s.clone()));
        format!(
            "{{\n    \"scenario\": {},\n    \"seed\": {},\n    \"measure_ms\": {},\n    \
             \"k\": {},\n    \"n_queries\": {},\n    \"n_ingests\": {},\n    \
             \"schedule_digest\": {},\n    \"topology\": {},\n    \"chaos\": {chaos},\n    \
             \"fault_plan_digest\": {fault_plan},\n    \"alert_rules\": {alert_rules},\n    \
             \"storm\": {storm},\n    \
             \"slo\": {{\"max_p99_ms\": {}, \"max_failures\": {}, \"generation_consistency\": {}}}\n  }}",
            Json::Str(self.scenario.clone()),
            self.seed,
            self.measure_ms,
            self.k,
            self.n_queries,
            self.n_ingests,
            Json::Str(self.schedule_digest.clone()),
            Json::Str(self.topology.clone()),
            self.slo_p99_ms,
            self.slo_max_failures,
            Json::Str(self.slo_generation.clone()),
        )
    }

    /// The deterministic report: byte-identical for the same seed and
    /// scenario config, independent of execution (run it twice, diff it).
    pub fn workload_json(&self) -> String {
        format!("{{\n  \"workload\": {}\n}}\n", self.to_json_lines())
    }
}

impl ScenarioReport {
    /// The full report: the deterministic workload section verbatim,
    /// plus the run's measurements and verdict.
    pub fn to_json_string(&self) -> String {
        let m = &self.measured;
        let generations = Json::Arr(
            m.generations_seen
                .iter()
                .map(|&g| Json::Num(g as f64))
                .collect(),
        );
        let chaos = Json::Arr(
            m.chaos_timings
                .iter()
                .map(|(label, ms)| {
                    Json::Arr(vec![
                        Json::Str(label.clone()),
                        Json::Num((*ms * 1e3).round() / 1e3),
                    ])
                })
                .collect(),
        );
        let violations = Json::Arr(
            self.verdict
                .violations
                .iter()
                .map(|v| Json::Str(v.clone()))
                .collect(),
        );
        let deltas = Json::Obj(
            m.counter_deltas
                .iter()
                .map(|(name, delta)| (name.clone(), Json::Num(*delta)))
                .collect(),
        );
        let alerts = Json::Arr(
            m.alerts_fired
                .iter()
                .map(|name| Json::Str(name.clone()))
                .collect(),
        );
        let storm_peak = m
            .storm_peak_open
            .map_or(Json::Null, |peak| Json::Num(peak as f64));
        format!(
            "{{\n  \"workload\": {},\n  \"measured\": {{\n    \"executed\": {},\n    \
             \"failures\": {},\n    \"wall_ms\": {:.3},\n    \"qps\": {:.1},\n    \
             \"p50_ms\": {:.3},\n    \"p99_ms\": {:.3},\n    \"max_ms\": {:.3},\n    \
             \"generations_seen\": {generations},\n    \"chaos_timings_ms\": {chaos},\n    \
             \"workers\": {},\n    \"counter_deltas\": {deltas},\n    \
             \"cache_hit_rate\": {:.4},\n    \"faults_injected\": {},\n    \
             \"alerts_fired\": {alerts},\n    \"alert_firings\": {},\n    \
             \"storm_peak_open\": {storm_peak}\n  }},\n  \
             \"slo_passed\": {},\n  \
             \"violations\": {violations}\n}}\n",
            self.workload.to_json_lines(),
            m.executed,
            m.failures,
            m.wall_ms,
            m.qps,
            m.p50_ms,
            m.p99_ms,
            m.max_ms,
            m.workers,
            m.cache_hit_rate,
            m.faults_injected,
            m.alert_firings,
            self.verdict.passed(),
        )
    }

    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<28} {:>6} reqs  {:>8.0} qps  p50 {:>7.2} ms  p99 {:>7.2} ms  failed {}  gens {:?}  {}",
            self.workload.scenario,
            self.measured.executed,
            self.measured.qps,
            self.measured.p50_ms,
            self.measured.p99_ms,
            self.measured.failures,
            self.measured.generations_seen,
            if self.verdict.passed() { "SLO OK" } else { "SLO VIOLATED" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{build, ScenarioConfig, ScenarioKind};
    use crate::slo::SloVerdict;

    fn report() -> ScenarioReport {
        let w = build(
            ScenarioKind::SteadyZipfian,
            &ScenarioConfig {
                measure_ms: 300,
                ..ScenarioConfig::default()
            },
        );
        ScenarioReport {
            workload: WorkloadSummary::from_workload(&w),
            measured: Measured {
                executed: 1,
                workers: 8,
                counter_deltas: vec![("serve_requests_total".to_string(), 42.0)],
                cache_hit_rate: 0.5,
                ..Measured::default()
            },
            verdict: SloVerdict {
                violations: Vec::new(),
            },
            metrics_json: None,
            events_json: None,
            tsdb: None,
            profile_json: None,
            experiment_json: None,
        }
    }

    #[test]
    fn workload_json_is_deterministic_and_parses() {
        let a = report();
        let b = report();
        assert_eq!(a.workload.workload_json(), b.workload.workload_json());
        smgcn_serve::json::parse(a.workload.workload_json().trim()).expect("valid json");
    }

    #[test]
    fn full_report_parses_and_embeds_workload() {
        let r = report();
        let parsed = smgcn_serve::json::parse(r.to_json_string().trim()).expect("valid json");
        assert!(parsed.get("workload").is_some());
        let measured = parsed.get("measured").expect("measured section");
        assert_eq!(parsed.get("slo_passed"), Some(&Json::Bool(true)));
        let deltas = measured.get("counter_deltas").expect("counter deltas");
        assert_eq!(
            deltas.get("serve_requests_total").and_then(Json::as_num),
            Some(42.0)
        );
        assert_eq!(
            measured.get("cache_hit_rate").and_then(Json::as_num),
            Some(0.5)
        );
        assert_eq!(measured.get("storm_peak_open"), Some(&Json::Null));
    }

    #[test]
    fn workload_json_excludes_execution_details() {
        // Worker count and metric deltas are execution details; the
        // deterministic section must not mention them (the determinism
        // guarantee spans thread counts and wall clocks).
        assert!(!report().workload.workload_json().contains("workers"));
        assert!(!report().workload.workload_json().contains("counter_deltas"));
    }
}
