//! In-process cluster tests: 3 replica servers behind a [`Router`].
//!
//! The multi-process kill-and-publish drill lives at the workspace root
//! (`tests/cluster_failover.rs`); these tests pin the router's protocol
//! behaviour where it is cheap to do so — affinity (repeat queries hit
//! the same replica's cache), replica-loss failover, router stats and a
//! rolling publish driven through the router's admin verb.

use std::time::Duration;

use smgcn_cluster::{PoolConfig, Router, RouterConfig};
use smgcn_serve::json::Json;
use smgcn_serve::{FrozenModel, Running, Server, ServerConfig, ServingVocab};
use smgcn_tensor::Matrix;

const N_SYMPTOMS: usize = 6;

fn model_for(generation: u64) -> FrozenModel {
    let g = generation as usize + 1;
    let symptoms = Matrix::from_fn(N_SYMPTOMS, 4, |r, c| ((r * 5 + c * g + g) % 7) as f32 - 2.9);
    let herbs = Matrix::from_fn(9, 4, |r, c| ((r * (3 + g) + c * 11) % 8) as f32 - 3.4);
    FrozenModel::from_parts(symptoms, herbs, None).unwrap()
}

fn vocab_for(generation: u64) -> ServingVocab {
    ServingVocab::new(
        (0..N_SYMPTOMS).map(|i| format!("s{i}")).collect(),
        (0..9).map(|i| format!("g{generation}-h{i}")).collect(),
    )
}

/// `n` replicas on generation 0 and a [`fast_router`] in front of them.
/// The router is declared last, so it stops first when a test ends.
fn start_fleet(n: usize) -> (Vec<Running>, Running) {
    let replica = |_| {
        Server::bind(
            "127.0.0.1:0",
            model_for(0),
            vocab_for(0),
            ServerConfig::default(),
        )
        .and_then(Server::spawn)
        .unwrap()
    };
    let replicas: Vec<Running> = (0..n).map(replica).collect();
    let addrs = replicas.iter().map(Running::addr).collect();
    let router = Router::bind("127.0.0.1:0", addrs, fast_router())
        .and_then(Router::spawn)
        .unwrap();
    (replicas, router)
}

fn fast_router() -> RouterConfig {
    RouterConfig {
        pool: PoolConfig {
            eject_base: Duration::from_millis(50),
            eject_max: Duration::from_millis(500),
            replica_timeout: Duration::from_secs(2),
            ..PoolConfig::default()
        },
        probe_interval: Duration::from_millis(50),
        lease_patience: Duration::from_secs(2),
        ..RouterConfig::default()
    }
}

#[test]
fn routes_with_cache_affinity_and_answers_like_a_replica() {
    let (_replicas, router) = start_fleet(3);

    let reference = model_for(0);
    let mut client = router.client().unwrap();
    // Every 2-element set: the ranking through the router equals the
    // frozen model directly, and a repeat of the same canonical set is a
    // replica cache hit (affinity: both forms land on the same replica).
    for a in 0..N_SYMPTOMS as u32 {
        for b in (a + 1)..N_SYMPTOMS as u32 {
            let cold = client
                .ask_json(&format!(r#"{{"symptom_ids":[{a},{b}],"k":4}}"#))
                .unwrap();
            assert!(cold.get("error").is_none(), "{cold}");
            let ids: Vec<u32> = cold
                .get("herb_ids")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|v| v.as_num().unwrap() as u32)
                .collect();
            assert_eq!(ids, reference.recommend(&[a, b], 4).unwrap());
            // Permuted ids: same canonical key -> same replica -> hit.
            let warm = client
                .ask_json(&format!(r#"{{"symptom_ids":[{b},{a}],"k":4}}"#))
                .unwrap();
            assert_eq!(
                warm.get("cached"),
                Some(&Json::Bool(true)),
                "affinity must make the permuted repeat a cache hit: {warm}"
            );
        }
    }

    // Router stats see the whole fleet as healthy.
    let stats = client.ask_json(r#"{"op":"stats"}"#).unwrap();
    assert_eq!(stats.get("router"), Some(&Json::Bool(true)));
    let fleet = stats.get("replicas").and_then(Json::as_arr).unwrap();
    assert_eq!(fleet.len(), 3);
    assert!(fleet
        .iter()
        .all(|r| r.get("healthy") == Some(&Json::Bool(true))));
    assert!(stats.get("forwarded").and_then(Json::as_num).unwrap() >= 30.0);
}

#[test]
fn failover_hides_a_dead_replica_and_probe_ejects_it() {
    let (mut replicas, router) = start_fleet(3);

    let mut client = router.client().unwrap();
    let space: Vec<Vec<u32>> = (0..N_SYMPTOMS as u32)
        .flat_map(|a| ((a + 1)..N_SYMPTOMS as u32).map(move |b| vec![a, b]))
        .collect();
    for set in &space {
        let resp = client
            .ask_json(&format!(
                r#"{{"symptom_ids":[{},{}],"k":3}}"#,
                set[0], set[1]
            ))
            .unwrap();
        assert!(resp.get("error").is_none(), "{resp}");
    }

    // Kill one replica; every set must still answer without error.
    replicas.remove(0).shutdown().unwrap();
    for _round in 0..3 {
        for set in &space {
            let resp = client
                .ask_json(&format!(
                    r#"{{"symptom_ids":[{},{}],"k":3}}"#,
                    set[0], set[1]
                ))
                .unwrap();
            assert!(
                resp.get("error").is_none(),
                "request failed after replica death: {resp}"
            );
        }
    }

    // The probe thread marks the victim unhealthy shortly after.
    let unhealthy = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        let stats = client.ask_json(r#"{"op":"stats"}"#).unwrap();
        let fleet = stats
            .get("replicas")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec();
        fleet
            .iter()
            .any(|r| r.get("healthy") == Some(&Json::Bool(false)))
    });
    assert!(unhealthy, "probe never ejected the dead replica");
}

#[test]
fn fleet_metrics_events_and_partial_stats() {
    let (mut replicas, router) = start_fleet(3);

    let mut client = router.client().unwrap();
    for a in 0..N_SYMPTOMS as u32 {
        for b in (a + 1)..N_SYMPTOMS as u32 {
            let resp = client
                .ask_json(&format!(r#"{{"symptom_ids":[{a},{b}],"k":4}}"#))
                .unwrap();
            assert!(resp.get("error").is_none(), "{resp}");
        }
    }

    // Fleet metrics: router's own registry, all three replicas, and a
    // merged view whose request counter sums the fleet.
    let snap = client.ask_json(r#"{"op":"metrics"}"#).unwrap();
    assert_eq!(snap.get("partial"), Some(&Json::Bool(false)), "{snap}");
    let router_section = snap.get("router").unwrap();
    assert!(
        router_section
            .get("router_forwarded_total")
            .and_then(Json::as_num)
            .unwrap()
            >= 15.0
    );
    let fleet = snap.get("replicas").and_then(Json::as_arr).unwrap();
    assert_eq!(fleet.len(), 3);
    let per_replica_sum: f64 = fleet
        .iter()
        .map(|r| {
            r.get("metrics")
                .and_then(|m| m.get("serve_requests_total"))
                .and_then(Json::as_num)
                .expect("every reachable replica reports serve_requests_total")
        })
        .sum();
    let merged = snap.get("merged").unwrap();
    assert_eq!(
        merged
            .get("serve_requests_total")
            .and_then(Json::as_num)
            .unwrap(),
        per_replica_sum,
        "merged counters sum across the fleet: {merged}"
    );
    // The merge carries both router and replica metric names.
    assert!(merged.get("router_requests_total").is_some());
    assert!(merged.get("serve_latency_us").is_some());

    // Fleet events: each replica section answers (possibly empty).
    let events = client.ask_json(r#"{"op":"events"}"#).unwrap();
    assert_eq!(events.get("partial"), Some(&Json::Bool(false)), "{events}");
    assert_eq!(
        events.get("replicas").and_then(Json::as_arr).unwrap().len(),
        3
    );

    // Kill one replica: stats must keep naming it, with a structured
    // partial marker instead of a silent hole in the merge.
    let victim = replicas.remove(0);
    let victim_addr = victim.addr().to_string();
    victim.shutdown().unwrap();
    let stats = client.ask_json(r#"{"op":"stats"}"#).unwrap();
    assert_eq!(stats.get("partial"), Some(&Json::Bool(true)), "{stats}");
    let fleet = stats.get("replicas").and_then(Json::as_arr).unwrap();
    assert_eq!(fleet.len(), 3, "the dead replica is still named");
    for entry in fleet {
        let addr = entry.get("addr").and_then(Json::as_str).unwrap();
        if addr == victim_addr {
            assert_eq!(
                entry.get("error").and_then(|e| e.get("code")),
                Some(&Json::Str("partial".into())),
                "dead replica carries the structured marker: {entry}"
            );
            assert!(entry.get("stats").is_none());
        } else {
            assert!(
                entry.get("stats").is_some(),
                "live replica embeds its own stats: {entry}"
            );
        }
    }
}

#[test]
fn deadline_budget_is_enforced_at_the_router() {
    let (_replicas, router) = start_fleet(2);

    let mut client = router.client().unwrap();
    // A generous budget forwards and answers normally.
    let ok = client
        .ask_json(r#"{"symptom_ids":[0,1],"k":3,"deadline_ms":5000}"#)
        .unwrap();
    assert!(ok.get("error").is_none(), "{ok}");
    assert!(ok.get("herb_ids").is_some());

    // An exhausted budget is shed at the router — non-retryable, no hop.
    let shed = client
        .ask_json(r#"{"symptom_ids":[0,1],"k":3,"deadline_ms":0}"#)
        .unwrap();
    let err = shed.get("error").expect("must be shed");
    assert_eq!(
        err.get("code"),
        Some(&Json::Str("deadline_exceeded".into())),
        "{shed}"
    );
    assert_eq!(err.get("retryable"), Some(&Json::Bool(false)));

    // A malformed budget is a client error, not a forward.
    let bad = client
        .ask_json(r#"{"symptom_ids":[0,1],"k":3,"deadline_ms":1.5}"#)
        .unwrap();
    assert_eq!(
        bad.get("error").and_then(|e| e.get("code")),
        Some(&Json::Str("bad_request".into())),
        "{bad}"
    );

    let stats = client.ask_json(r#"{"op":"stats"}"#).unwrap();
    assert_eq!(
        stats.get("deadline_sheds").and_then(Json::as_num),
        Some(1.0),
        "{stats}"
    );
}

/// `1e999` overflows an `f64`, so a replica reads it as an infinite `k`
/// and refuses it. The router re-serialises a line that carries a
/// deadline, and the line it forwards must be one the replica reads
/// the same way: the same code, not `bad_json`.
#[test]
fn an_overflowing_k_gets_the_same_code_from_a_replica_and_a_router() {
    let (replicas, router) = start_fleet(1);
    let line = r#"{"symptom_ids":[1],"k":1e999,"deadline_ms":500}"#;
    let code = |running: &Running| {
        let reply = running.client().unwrap().ask_json(line).unwrap();
        reply.get("error").and_then(|e| e.get("code")).cloned()
    };
    let direct = code(&replicas[0]);
    assert_eq!(direct, Some(Json::Str("bad_k".into())));
    assert_eq!(code(&router), direct);
}

#[test]
fn rolling_publish_through_the_router_upgrades_the_fleet() {
    let (replicas, router) = start_fleet(3);

    let mut client = router.client().unwrap();
    let before = client.ask_json(r#"{"symptom_ids":[0,1],"k":3}"#).unwrap();
    assert_eq!(before.get("generation").and_then(Json::as_num), Some(0.0));

    let new_model = model_for(1);
    let expected = new_model.recommend(&[0, 1], 3).unwrap();
    let artifact =
        smgcn_serve::artifact::to_base64(&smgcn_serve::artifact::encode(&new_model, &vocab_for(1)));
    let ack = client
        .ask_json(&format!(r#"{{"op":"publish","artifact":"{artifact}"}}"#))
        .unwrap();
    assert_eq!(ack.get("all_ok"), Some(&Json::Bool(true)), "{ack}");
    assert_eq!(ack.get("published").and_then(Json::as_num), Some(3.0));

    // Every replica now serves generation 1 (check each directly).
    for replica in &replicas {
        let mut direct = replica.client().unwrap();
        let resp = direct.ask_json(r#"{"symptom_ids":[0,1],"k":3}"#).unwrap();
        assert_eq!(resp.get("generation").and_then(Json::as_num), Some(1.0));
        let ids: Vec<u32> = resp
            .get("herb_ids")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_num().unwrap() as u32)
            .collect();
        assert_eq!(ids, expected);
        let names: Vec<&str> = resp
            .get("herbs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert!(names.iter().all(|n| n.starts_with("g1-")), "{names:?}");
    }

    // A garbage artifact is rejected, the rollout aborts naming the
    // replica that refused it, and generations are untouched.
    let bad = client
        .ask_json(r#"{"op":"publish","artifact":"AAAA"}"#)
        .unwrap();
    assert_eq!(bad.get("all_ok"), Some(&Json::Bool(false)));
    assert_eq!(bad.get("aborted"), Some(&Json::Bool(true)), "{bad}");
    assert_eq!(
        bad.get("rejected_by").and_then(Json::as_str),
        Some(replicas[0].addr().to_string().as_str()),
        "the first replica in rollout order rejects and is named: {bad}"
    );
    assert_eq!(
        bad.get("outcomes").and_then(Json::as_arr).unwrap().len(),
        1,
        "replicas after the rejection are never contacted: {bad}"
    );
    let check = client.ask_json(r#"{"symptom_ids":[0,1],"k":3}"#).unwrap();
    assert_eq!(check.get("generation").and_then(Json::as_num), Some(1.0));

    // The journal says how far each rollout got, and who stopped one.
    let events = client.ask_json(r#"{"op":"events"}"#).unwrap();
    let journal = events.get("router").and_then(Json::as_arr).unwrap();
    let detail = |kind: &str| {
        let entry = journal
            .iter()
            .find(|e| e.get("kind").and_then(Json::as_str) == Some(kind));
        entry.and_then(|e| e.get("detail")?.as_str()).unwrap()
    };
    assert_eq!(detail("publish"), "rolling publish: 3/3 replicas ok");
    let stopped_by = replicas[0].addr();
    assert_eq!(
        detail("publish_aborted"),
        format!("replica {stopped_by} rejected the artifact; rollout stopped after 0/3 replicas")
    );

    // A corrupted-but-plausible artifact (one bit flipped mid-payload)
    // fails the checksum at the first replica and aborts identically.
    let mut corrupt = smgcn_serve::artifact::encode(&model_for(2), &vocab_for(2));
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    let corrupt_b64 = smgcn_serve::artifact::to_base64(&corrupt);
    let bad = client
        .ask_json(&format!(r#"{{"op":"publish","artifact":"{corrupt_b64}"}}"#))
        .unwrap();
    assert_eq!(bad.get("aborted"), Some(&Json::Bool(true)), "{bad}");
    assert_eq!(bad.get("published").and_then(Json::as_num), Some(0.0));
    let check = client.ask_json(r#"{"symptom_ids":[0,1],"k":3}"#).unwrap();
    assert_eq!(
        check.get("generation").and_then(Json::as_num),
        Some(1.0),
        "a corrupt publish must not move any replica's generation"
    );
}
