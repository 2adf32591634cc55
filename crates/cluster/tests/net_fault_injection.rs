//! Deterministic network fault injection against the router, driven
//! through the `pool.forward.net` / `pool.admin.net` sites.
//!
//! Lives in its own integration-test binary: an installed fault plan is
//! process-global, and these tests must not leak injected faults into
//! the rest of the cluster suite.
//!
//! Invariants under test:
//! - an injected connection drop on the data path fails over to the
//!   next ring candidate — the client still gets a correct answer;
//! - an injected admin-plane failure degrades fleet snapshots to a
//!   structured `partial` marker without steering ejection;
//! - the same plan over the same request sequence injects the same
//!   faults (the replay guarantee the fault-storm scenario builds on).

use std::time::Duration;

use smgcn_cluster::{PoolConfig, Router, RouterConfig};
use smgcn_faults::{sites, FaultAction, FaultPlan};
use smgcn_serve::json::Json;
use smgcn_serve::{FrozenModel, LineClient, Running, Server, ServerConfig, ServingVocab};
use smgcn_tensor::Matrix;

const N_SYMPTOMS: usize = 6;

fn model() -> FrozenModel {
    let symptoms = Matrix::from_fn(N_SYMPTOMS, 4, |r, c| ((r * 5 + c + 1) % 7) as f32 - 2.9);
    let herbs = Matrix::from_fn(9, 4, |r, c| ((r * 4 + c * 11) % 8) as f32 - 3.4);
    FrozenModel::from_parts(symptoms, herbs, None).unwrap()
}

fn vocab() -> ServingVocab {
    ServingVocab::new(
        (0..N_SYMPTOMS).map(|i| format!("s{i}")).collect(),
        (0..9).map(|i| format!("h{i}")).collect(),
    )
}

/// Probing disabled: these tests pin *passive* behaviour, and a probe
/// tick would consume admin-site hits nondeterministically.
fn quiet_router() -> RouterConfig {
    RouterConfig {
        pool: PoolConfig {
            // A long backoff keeps an ejected replica out of the walk
            // for the whole (fast) request burst, so hit-counter
            // consumption is deterministic across runs.
            eject_base: Duration::from_millis(500),
            eject_max: Duration::from_secs(1),
            replica_timeout: Duration::from_secs(2),
            admin_timeout: Duration::from_secs(2),
            ..PoolConfig::default()
        },
        probe_interval: Duration::ZERO,
        lease_patience: Duration::from_secs(2),
        ..RouterConfig::default()
    }
}

/// Runs `f` against a fresh 3-replica fleet behind a fresh router and
/// tears everything down afterwards (the router first). Returns `f`'s
/// value. The client is the plain one: its own round trips pass no
/// fault site, so every hit counted below is the router's.
fn with_fleet<T>(f: impl FnOnce(&mut LineClient) -> T) -> T {
    let replica = |_| {
        Server::bind("127.0.0.1:0", model(), vocab(), ServerConfig::default())
            .and_then(Server::spawn)
            .unwrap()
    };
    let replicas: Vec<Running> = (0..3).map(replica).collect();
    let addrs = replicas.iter().map(Running::addr).collect();
    let router = Router::bind("127.0.0.1:0", addrs, quiet_router())
        .and_then(Router::spawn)
        .unwrap();
    f(&mut router.client().unwrap())
}

#[test]
fn injected_forward_drops_fail_over_to_the_next_replica() {
    let expected: Vec<f64> = model()
        .recommend(&[0, 1], 3)
        .unwrap()
        .into_iter()
        .map(f64::from)
        .collect();
    let mut plan = FaultPlan::new(21);
    // The first two forward attempts (the primary and the first
    // failover hop) both take a dropped connection; the third candidate
    // answers.
    plan.push(sites::POOL_FORWARD_NET, 0, FaultAction::Drop);
    plan.push(sites::POOL_FORWARD_NET, 1, FaultAction::Drop);
    smgcn_faults::with_plan(&plan, || {
        with_fleet(|client| {
            let resp = client.ask_json(r#"{"symptom_ids":[0,1],"k":3}"#).unwrap();
            assert!(resp.get("error").is_none(), "{resp}");
            let ids: Vec<f64> = resp
                .get("herb_ids")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .filter_map(Json::as_num)
                .collect();
            assert_eq!(ids, expected, "the surviving replica answers correctly");
            let stats = client.ask_json(r#"{"op":"stats"}"#).unwrap();
            assert_eq!(
                stats.get("retries").and_then(Json::as_num),
                Some(2.0),
                "both injected drops cost exactly one failover hop each: {stats}"
            );
            assert_eq!(stats.get("failovers").and_then(Json::as_num), Some(1.0));
        });
        assert_eq!(smgcn_faults::injected_total(), 2);
    });
}

#[test]
fn injected_admin_failure_degrades_to_partial_without_ejecting() {
    let mut plan = FaultPlan::new(22);
    // The first admin round trip (the stats fetch against replica 0)
    // drops; the other two replicas answer.
    plan.push(sites::POOL_ADMIN_NET, 0, FaultAction::Drop);
    smgcn_faults::with_plan(&plan, || {
        with_fleet(|client| {
            let stats = client.ask_json(r#"{"op":"stats"}"#).unwrap();
            assert_eq!(stats.get("partial"), Some(&Json::Bool(true)), "{stats}");
            let fleet = stats.get("replicas").and_then(Json::as_arr).unwrap();
            let markers = fleet
                .iter()
                .filter(|r| {
                    r.get("error").and_then(|e| e.get("code")) == Some(&Json::Str("partial".into()))
                })
                .count();
            assert_eq!(markers, 1, "exactly the faulted fetch is marked: {stats}");
            // Admin-plane failures observe the fleet; they must not
            // steer ejection. Every replica still takes data traffic.
            assert!(fleet
                .iter()
                .all(|r| r.get("healthy") == Some(&Json::Bool(true))));
            let resp = client.ask_json(r#"{"symptom_ids":[2,3],"k":3}"#).unwrap();
            assert!(resp.get("error").is_none(), "{resp}");
        });
    });
}

#[test]
fn same_plan_injects_the_same_faults_across_runs() {
    let mut plan = FaultPlan::new(23);
    plan.push(sites::POOL_FORWARD_NET, 0, FaultAction::Drop);
    plan.push(sites::POOL_FORWARD_NET, 3, FaultAction::Drop);
    let run = || {
        smgcn_faults::with_plan(&plan, || {
            let retries = with_fleet(|client| {
                for _ in 0..4 {
                    let resp = client.ask_json(r#"{"symptom_ids":[1,4],"k":2}"#).unwrap();
                    assert!(resp.get("error").is_none(), "{resp}");
                }
                let stats = client.ask_json(r#"{"op":"stats"}"#).unwrap();
                stats.get("retries").and_then(Json::as_num).unwrap()
            });
            assert_eq!(smgcn_faults::injected_total(), 2, "both planned hits fire");
            retries
        })
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same plan, same traffic, same injections");
    // Hit 0 lands on a fresh primary connection (a counted failover
    // hop); hit 3 lands on a *pooled* connection, whose failure earns a
    // quiet retry on a fresh socket instead of a blamed hop.
    assert_eq!(first, 1.0);
}
