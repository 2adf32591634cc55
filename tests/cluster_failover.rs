//! Multi-process cluster drill: 3 real `smgcn serve` replicas behind the
//! router, one killed and one generation rolling-published **mid-load**.
//!
//! This is the acceptance test for `smgcn-cluster`: each replica is a
//! separate OS process started through the actual CLI (`smgcn serve` on
//! a frozen model), the router runs in-process, and concurrent clients
//! hammer it while
//!
//! 1. replica 0 is SIGKILLed — the router must hide it (zero failed
//!    client requests, retry-on-next-replica), and
//! 2. a new generation is rolling-published through the router's
//!    `{"op":"publish"}` verb — surviving replicas cut over one at a
//!    time, the fleet never goes dark, and **no response mixes
//!    generations**: every ranking and every herb name must match
//!    exactly the generation the response claims.
//!
//! Ground truth comes from the same frozen models held in memory: the
//! checkpoint round trip is bit-exact, so a response either matches its
//! claimed generation's model verbatim or the invariant is broken.

mod common;

use std::collections::HashMap;
use std::process::Stdio;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use smgcn_repro::cluster::{PoolConfig, Router, RouterConfig};
use smgcn_repro::core::Recommender;
use smgcn_repro::data::io as corpus_io;
use smgcn_repro::graph::GraphOperators;
use smgcn_repro::prelude::*;
use smgcn_repro::serve::json::Json;
use smgcn_repro::serve::{artifact, FrozenModel, LineClient};

const K: usize = 5;
/// Query space: all 2-element sets over the first QUERY_SYMPTOMS ids.
const QUERY_SYMPTOMS: u32 = 8;

fn recommend(client: &mut LineClient, set: &[u32]) -> Json {
    let ids: Vec<String> = set.iter().map(u32::to_string).collect();
    let request = format!(r#"{{"symptom_ids":[{}],"k":{K}}}"#, ids.join(","));
    client.ask_json(&request).unwrap()
}

fn query_space() -> Vec<Vec<u32>> {
    let mut sets = Vec::new();
    for a in 0..QUERY_SYMPTOMS {
        for b in (a + 1)..QUERY_SYMPTOMS {
            sets.push(vec![a, b]);
        }
    }
    sets
}

/// Expected rankings and herb names per (generation, set).
struct Expected {
    rankings: HashMap<(u64, Vec<u32>), Vec<u32>>,
    herb_names: [Vec<String>; 2],
}

impl Expected {
    /// Asserts one response is internally consistent with exactly one
    /// generation; returns that generation.
    fn check(&self, resp: &Json, set: &[u32]) -> u64 {
        assert!(
            resp.get("error").is_none(),
            "request {set:?} failed: {resp}"
        );
        let generation = resp.get("generation").and_then(Json::as_num).unwrap() as u64;
        assert!(generation <= 1, "unexpected generation {generation}");
        let ids: Vec<u32> = resp
            .get("herb_ids")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_num().unwrap() as u32)
            .collect();
        let want = &self.rankings[&(generation, set.to_vec())];
        assert_eq!(
            &ids, want,
            "set {set:?}: ranking does not match claimed generation {generation}"
        );
        let names: Vec<&str> = resp
            .get("herbs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        for (name, &id) in names.iter().zip(&ids) {
            assert_eq!(
                *name,
                self.herb_names[generation as usize][id as usize].as_str(),
                "set {set:?}: herb name from a different generation than claimed {generation}"
            );
        }
        generation
    }
}

#[test]
fn three_process_replicas_survive_kill_and_rolling_publish_mid_load() {
    // --- stage 0: corpus + two frozen generations on disk --------------
    let dir = std::env::temp_dir().join(format!("smgcn-cluster-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus_path = dir.join("corpus.tsv");
    let frozen_path = dir.join("frozen0.smgt");

    let corpus = SyndromeModel::new(GeneratorConfig::tiny_scale()).generate();
    assert!(corpus.n_symptoms() as u32 >= QUERY_SYMPTOMS);
    corpus_io::save_corpus(&corpus, &corpus_path).unwrap();
    let ops = GraphOperators::from_records(
        corpus.records(),
        corpus.n_symptoms(),
        corpus.n_herbs(),
        SynergyThresholds { x_s: 1, x_h: 1 },
    );
    let model_cfg = ModelConfig {
        embedding_dim: 16,
        layer_dims: vec![16],
        ..ModelConfig::smgcn()
    };
    // Untrained models: identical serving cost, deterministic content.
    let frozen0 = FrozenModel::from_recommender(&Recommender::smgcn(&ops, &model_cfg, 7));
    frozen0.save(&frozen_path).unwrap();
    let frozen1 = FrozenModel::from_recommender(&Recommender::smgcn(&ops, &model_cfg, 999));
    let gen1_vocab = ServingVocab::new(
        corpus
            .symptom_vocab()
            .iter()
            .map(|(_, n)| n.to_string())
            .collect(),
        (0..corpus.n_herbs()).map(|i| format!("g1-h{i}")).collect(),
    );
    let artifact_b64 = artifact::to_base64(&artifact::encode(&frozen1, &gen1_vocab));

    let space = query_space();
    let mut rankings = HashMap::new();
    for set in &space {
        rankings.insert((0u64, set.clone()), frozen0.recommend(set, K).unwrap());
        rankings.insert((1u64, set.clone()), frozen1.recommend(set, K).unwrap());
    }
    let expected = Arc::new(Expected {
        rankings,
        herb_names: [
            corpus
                .herb_vocab()
                .iter()
                .map(|(_, n)| n.to_string())
                .collect(),
            (0..corpus.n_herbs()).map(|i| format!("g1-h{i}")).collect(),
        ],
    });

    // --- stage 1: three replica processes + the router -----------------
    let mut children = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..3 {
        let (child, addr) = common::spawn_replica(&corpus_path, &frozen_path, Stdio::null());
        children.push(child);
        addrs.push(addr);
    }
    let router = Router::bind(
        "127.0.0.1:0",
        addrs.clone(),
        RouterConfig {
            pool: PoolConfig {
                eject_base: Duration::from_millis(50),
                eject_max: Duration::from_millis(500),
                connect_timeout: Duration::from_millis(300),
                replica_timeout: Duration::from_secs(2),
                ..PoolConfig::default()
            },
            probe_interval: Duration::from_millis(100),
            lease_patience: Duration::from_secs(5),
            ..RouterConfig::default()
        },
    )
    .and_then(Router::spawn)
    .unwrap();

    // --- stage 2: hammer while killing and publishing -------------------
    let total = Arc::new(AtomicU64::new(0));
    let mut clients = Vec::new();
    for t in 0..4u64 {
        let expected = Arc::clone(&expected);
        let total = Arc::clone(&total);
        let space = space.clone();
        let mut client = router.client().unwrap();
        clients.push(std::thread::spawn(move || {
            let mut seen = [0u64; 2];
            for i in 0..250u64 {
                let set = &space[((t * 131 + i * 7) % space.len() as u64) as usize];
                let resp = recommend(&mut client, set);
                let generation = expected.check(&resp, set);
                seen[generation as usize] += 1;
                total.fetch_add(1, Ordering::Relaxed);
            }
            seen
        }));
    }
    let wait_for = |n: u64| {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while total.load(Ordering::Relaxed) < n {
            assert!(
                std::time::Instant::now() < deadline,
                "stalled waiting for {n} completed requests (got {})",
                total.load(Ordering::Relaxed)
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    // Kill replica 0 (SIGKILL — a crash, not a graceful stop) mid-load.
    wait_for(150);
    children[0].0.kill().unwrap();
    children[0].0.wait().unwrap();

    // Rolling-publish generation 1 through the router mid-load.
    wait_for(400);
    let mut admin = router.client().unwrap();
    let ack = admin
        .ask_json(&format!(
            r#"{{"op":"publish","artifact":"{artifact_b64}"}}"#
        ))
        .unwrap();
    assert_eq!(
        ack.get("published").and_then(Json::as_num),
        Some(2.0),
        "both surviving replicas must take the publish: {ack}"
    );
    assert_eq!(
        ack.get("all_ok"),
        Some(&Json::Bool(false)),
        "the killed replica must be reported, not silently skipped: {ack}"
    );

    let mut seen = [0u64; 2];
    for c in clients {
        let s = c.join().unwrap();
        for (acc, v) in seen.iter_mut().zip(s) {
            *acc += v;
        }
    }
    assert_eq!(
        seen.iter().sum::<u64>(),
        4 * 250,
        "zero failed client requests across kill + rolling publish"
    );
    assert!(seen[0] > 0, "generation 0 must have served before the swap");

    // --- stage 3: post-publish, the fleet serves only generation 1 ------
    let mut sweep = router.client().unwrap();
    for set in &space {
        let resp = recommend(&mut sweep, set);
        assert_eq!(
            expected.check(&resp, set),
            1,
            "set {set:?}: fleet must have fully cut over to generation 1"
        );
    }

    // Router stats: the kill was observed, traffic was rerouted.
    let stats = sweep.ask_json(r#"{"op":"stats"}"#).unwrap();
    let fleet = stats.get("replicas").and_then(Json::as_arr).unwrap();
    assert_eq!(fleet.len(), 3);
    let healthy = fleet
        .iter()
        .filter(|r| r.get("healthy") == Some(&Json::Bool(true)))
        .count();
    assert_eq!(healthy, 2, "exactly the two survivors are healthy: {stats}");
    assert!(
        stats.get("retries").and_then(Json::as_num).unwrap() >= 1.0,
        "the kill must have forced at least one failover retry: {stats}"
    );

    router.shutdown().unwrap();
    drop(children);
    let _ = std::fs::remove_dir_all(&dir);
}
