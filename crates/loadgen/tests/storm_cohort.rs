//! The one storm cohort, under both of its callers' stop conditions: the
//! `connection_storm` bench's helpers release theirs with the stop flag,
//! the `connection-storm` scenario lets the deadline do it. Either way
//! every connection opens, no request fails, and every thread is back
//! promptly — a cohort that outlives its release would hold a bench's
//! helper processes (or a scenario's report) hostage.

use std::time::{Duration, Instant};

use smgcn_loadgen::scenario::{DIM, N_HERBS, N_SYMPTOMS};
use smgcn_loadgen::shape::{synthetic_frozen, synthetic_vocab};
use smgcn_loadgen::storm::{Cohort, StormResult};
use smgcn_loadgen::StormSpec;
use smgcn_serve::{Running, Server, ServerConfig};

/// 24 connections, 4 of them slow writers, swept by 4 threads.
const SPEC: StormSpec = StormSpec {
    connections: 24 + 4,
    openers: 4,
    slow_writers: 4,
    max_rss_mb: 512,
};

/// How long after its release the whole cohort may take to come back.
const PROMPT: Duration = Duration::from_millis(250);

fn replica() -> Running {
    Server::bind(
        "127.0.0.1:0",
        synthetic_frozen(N_SYMPTOMS, N_HERBS, DIM, 0),
        synthetic_vocab(N_SYMPTOMS, N_HERBS, 0),
        ServerConfig::default(),
    )
    .and_then(Server::spawn)
    .expect("start a replica")
}

/// All 28 opened, requests flowed, none failed.
fn assert_whole_and_clean(ledger: StormResult) {
    assert_eq!(ledger.opened, SPEC.connections);
    assert!(ledger.executed > 0, "{ledger:?}");
    assert_eq!(ledger.failures, 0, "{ledger:?}");
}

/// Waits until the whole cohort has dialed, then lets it sweep a while.
fn settle(cohort: &Cohort) {
    let patience = Instant::now() + Duration::from_secs(10);
    while cohort.opened() < SPEC.connections {
        assert!(Instant::now() < patience, "cohort never finished dialing");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(150));
}

#[test]
fn the_stop_flag_releases_the_cohort_long_before_its_deadline() {
    let server = replica();
    let far = Instant::now() + Duration::from_secs(60);
    let cohort = Cohort::hold(server.addr(), &SPEC, far);
    settle(&cohort);
    let released = Instant::now();
    cohort.release();
    let ledger = cohort.join();
    let took = released.elapsed();
    assert!(took <= PROMPT, "threads back {took:?} after the flag");
    assert_whole_and_clean(ledger);
    server.shutdown().expect("server loop");
}

#[test]
fn the_deadline_releases_the_cohort_when_the_flag_is_never_set() {
    let server = replica();
    let deadline = Instant::now() + Duration::from_millis(600);
    let cohort = Cohort::hold(server.addr(), &SPEC, deadline);
    let ledger = cohort.join();
    let late = Instant::now().saturating_duration_since(deadline);
    assert!(Instant::now() >= deadline, "the cohort let go early");
    assert!(late <= PROMPT, "threads back {late:?} after the deadline");
    assert_whole_and_clean(ledger);
    server.shutdown().expect("server loop");
}
