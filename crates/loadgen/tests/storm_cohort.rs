//! The storm cohort and the scenario that holds it. The deadline lets
//! the cohort go: every connection opens, the server's own gauge sees
//! them all, no request fails, and every thread is back promptly — a
//! cohort that outlives its window would hold the scenario's report
//! hostage. A small `connection-storm` run passes its SLO and reports
//! the server-side peak.

use std::time::{Duration, Instant};

use smgcn_loadgen::scenario::{DIM, N_HERBS, N_SYMPTOMS};
use smgcn_loadgen::shape::{synthetic_frozen, synthetic_vocab};
use smgcn_loadgen::{run_scenario, storm, ScenarioConfig, ScenarioKind, StormSpec};
use smgcn_serve::{Server, ServerConfig};

/// 24 connections, 4 of them slow writers, swept by 4 threads.
const SPEC: StormSpec = StormSpec {
    connections: 24 + 4,
    openers: 4,
    slow_writers: 4,
    max_rss_mb: 512,
};

/// How long after its deadline the whole cohort may take to come back.
const PROMPT: Duration = Duration::from_millis(250);

#[test]
fn the_deadline_releases_the_cohort() {
    let server = Server::bind(
        "127.0.0.1:0",
        synthetic_frozen(N_SYMPTOMS, N_HERBS, DIM, 0),
        synthetic_vocab(N_SYMPTOMS, N_HERBS, 0),
        ServerConfig::default(),
    )
    .and_then(Server::spawn)
    .expect("start a replica");
    let deadline = Instant::now() + Duration::from_millis(600);
    let ledger = storm::run(server.addr(), &SPEC, deadline);
    let late = Instant::now().saturating_duration_since(deadline);
    assert!(Instant::now() >= deadline, "the cohort let go early");
    assert!(late <= PROMPT, "threads back {late:?} after the deadline");
    assert_eq!(ledger.opened, SPEC.connections);
    assert!(ledger.peak_open >= SPEC.connections, "{ledger:?}");
    assert!(ledger.executed > 0, "{ledger:?}");
    assert_eq!(ledger.failures, 0, "{ledger:?}");
    assert!(SPEC.violations(&ledger).is_empty(), "{ledger:?}");
    server.shutdown().expect("server loop");
}

#[test]
fn a_small_storm_scenario_passes_and_reports_the_servers_peak() {
    let report = run_scenario(
        ScenarioKind::ConnectionStorm,
        &ScenarioConfig {
            measure_ms: 800,
            storm_connections: Some(64),
            ..ScenarioConfig::default()
        },
    );
    assert!(report.verdict.passed(), "{:?}", report.verdict.violations);
    let peak = report
        .measured
        .storm_peak_open
        .expect("a storm reports its peak");
    assert!(peak >= 64, "the server held at most {peak} of 64");
}
