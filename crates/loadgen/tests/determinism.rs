//! The loadgen determinism contract, property-tested: the same seed
//! must yield a **byte-identical** request schedule and deterministic
//! scenario report across runs and across executor thread counts.
//!
//! This is what makes scenario reports comparable between CI runs (and
//! between a laptop and CI): if the workload fingerprints match, any
//! difference is the stack's behaviour, not the load's.

use proptest::prelude::*;
use smgcn_loadgen::report::WorkloadSummary;
use smgcn_loadgen::{build, ScenarioConfig, ScenarioKind};

/// The deterministic report section for a workload (what `--plan`
/// emits, no execution).
fn plan_report(kind: ScenarioKind, config: &ScenarioConfig) -> String {
    WorkloadSummary::from_workload(&build(kind, config)).workload_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn same_seed_byte_identical_schedule_across_runs_and_thread_counts(
        seed in 0u64..1_000_000,
        measure_ms in 200u64..1200,
        workers_a in 1usize..6,
        workers_b in 6usize..40,
    ) {
        for kind in ScenarioKind::all() {
            let config_a = ScenarioConfig {
                seed, measure_ms, workers: workers_a, k: 10, storm_connections: None,
            };
            let config_b = ScenarioConfig { workers: workers_b, ..config_a.clone() };

            // Same run config twice: byte-identical canonical schedule.
            let first = build(kind, &config_a);
            let second = build(kind, &config_a);
            prop_assert_eq!(
                first.schedule.canonical_string(),
                second.schedule.canonical_string(),
                "{} schedule not reproducible", kind.name()
            );

            // Different executor thread count: still byte-identical.
            let wide = build(kind, &config_b);
            prop_assert_eq!(
                first.schedule.canonical_string(),
                wide.schedule.canonical_string(),
                "{} schedule depends on worker count", kind.name()
            );
            prop_assert_eq!(first.schedule.digest(), wide.schedule.digest());

            // And the deterministic scenario report is byte-identical
            // across both axes.
            let report = plan_report(kind, &config_a);
            prop_assert_eq!(&report, &plan_report(kind, &config_a));
            prop_assert_eq!(&report, &plan_report(kind, &config_b));
        }
    }

    #[test]
    fn different_seeds_give_different_schedules(
        seed in 0u64..1_000_000,
    ) {
        let a = ScenarioConfig { seed, measure_ms: 300, ..ScenarioConfig::default() };
        let b = ScenarioConfig { seed: seed ^ 0xdead_beef, ..a.clone() };
        let kind = ScenarioKind::SteadyZipfian;
        prop_assert!(
            build(kind, &a).schedule.digest() != build(kind, &b).schedule.digest(),
            "distinct seeds produced identical schedules"
        );
    }
}

/// End to end: actually *running* the scenario twice must reproduce the
/// deterministic report section byte for byte (measurements differ; the
/// workload section must not).
#[test]
fn executed_runs_reproduce_the_deterministic_report() {
    let config = ScenarioConfig {
        seed: 77,
        measure_ms: 300,
        workers: 4,
        k: 10,
        storm_connections: None,
    };
    let first = smgcn_loadgen::run_scenario(ScenarioKind::SteadyZipfian, &config);
    let wide = smgcn_loadgen::run_scenario(
        ScenarioKind::SteadyZipfian,
        &ScenarioConfig {
            workers: 9,
            ..config.clone()
        },
    );
    assert_eq!(
        first.workload.workload_json(),
        wide.workload.workload_json(),
        "deterministic report section varied across runs/thread counts"
    );
    assert!(
        first.verdict.passed(),
        "steady-zipfian smoke violated its SLO: {:?}",
        first.verdict.violations
    );
    assert_eq!(first.measured.failures, 0);
    // The run captured the fleet's counter deltas: every query the
    // workers sent shows up in the server's own request ledger.
    let requests = first
        .measured
        .counter_deltas
        .iter()
        .find(|(name, _)| name == "serve_requests_total")
        .map(|(_, delta)| *delta)
        .expect("serve_requests_total delta");
    assert!(
        requests >= first.measured.executed as f64,
        "server counted {requests} requests for {} executed",
        first.measured.executed
    );
    assert!(
        first.metrics_json.is_some(),
        "run should capture the final metrics snapshot"
    );
    // The silence half of the alert contract, and proof it is not
    // vacuous: the scenario carries a real burn-rate rule, the scraped
    // history saw real traffic on the rule's total counter, and the
    // rule still never fired on a clean run. (The verdict above would
    // already have failed on a firing — expect_silent is in the SLO.)
    assert!(
        first.measured.alerts_fired.is_empty(),
        "steady-zipfian paged on a clean run: {:?}",
        first.measured.alerts_fired
    );
    let workload = build(ScenarioKind::SteadyZipfian, &config);
    assert!(!workload.alerts.rules.is_empty());
    assert_eq!(workload.alerts.expect_silent, vec!["availability-burn"]);
    let tsdb = first.tsdb.as_ref().expect("scraped history present");
    let history = smgcn_obs::tsdb::TsdbData::parse(tsdb).data;
    assert!(
        history.last("serve_requests_total").unwrap_or(0.0) > 0.0,
        "silence is only meaningful over real traffic: {:?}",
        history.series_names()
    );
}

/// `replica-kill` reports failover detection — the kill → first-`eject`
/// interval from the router's journal — as a measurement: present in
/// `measured.chaos_timings`, absent from the deterministic section. (A
/// router that never ejected would be an SLO violation, not a silent 0.)
#[test]
fn replica_kill_measures_detection_outside_the_deterministic_section() {
    let config = ScenarioConfig {
        measure_ms: 600,
        workers: 4,
        ..ScenarioConfig::default()
    };
    let report = smgcn_loadgen::run_scenario(ScenarioKind::ReplicaKill, &config);
    assert!(
        report.verdict.passed(),
        "replica-kill smoke violated its SLO: {:?}",
        report.verdict.violations
    );
    let timings = &report.measured.chaos_timings;
    let detect = timings
        .iter()
        .find(|(label, _)| label == "kill-replica-0-detect")
        .map(|(_, ms)| *ms);
    assert!(
        detect.is_some_and(|ms| (0.0..600.0).contains(&ms)),
        "kill -> eject interval missing or outside the 600 ms run: {timings:?}"
    );
    assert!(report.to_json_string().contains("kill-replica-0-detect"));
    assert!(!report.workload.workload_json().contains("detect"));
}
