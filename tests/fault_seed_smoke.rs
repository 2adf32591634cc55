//! Fault-seeded smoke run: the whole-stack invariants under the
//! canonical storm plan.
//!
//! CI runs this binary with `SMGCN_FAULT_SEED=<nonzero>` so every
//! injection site stays exercised against the production code paths.
//! Without the env var it arms the storm plan itself (seed 2020), so
//! the smoke also runs locally under a plain `cargo test`.
//!
//! The assertions are *invariants*, never fault counts — the seed (and
//! therefore which hits take faults) varies run to run in CI:
//!
//! - WAL: an append is acked XOR absent — after a crash-reopen, replay
//!   yields exactly a prefix of the acked records, and any shortfall is
//!   reported through `wal_recovery()`, never silently;
//! - artifact: a decode under injected corruption either succeeds with
//!   the right shape or fails detectably — no garbage models;
//! - routing: every request through a faulted fleet gets either a
//!   correct answer or a structured error carrying `code` and
//!   `retryable` — no hangs, no malformed responses.
//!
//! One `#[test]` in its own binary: the installed plan is
//! process-global, so nothing else may share the process.

use smgcn_repro::cluster::{Router, RouterConfig};
use smgcn_repro::data::{Corpus, Prescription, Vocabulary};
use smgcn_repro::online::Ingestor;
use smgcn_repro::serve::json::Json;
use smgcn_repro::serve::{
    artifact, FrozenModel, LineClient, Running, Server, ServerConfig, ServingVocab,
};
use smgcn_repro::tensor::Matrix;

fn base_corpus() -> Corpus {
    Corpus::new(
        Vocabulary::from_names(["s0", "s1", "s2", "s3"]),
        Vocabulary::from_names(["h0", "h1", "h2"]),
        vec![Prescription::new(vec![0, 1], vec![0])],
    )
}

fn smoke_model() -> FrozenModel {
    let symptoms = Matrix::from_fn(6, 4, |r, c| ((r * 5 + c + 1) % 7) as f32 - 2.9);
    let herbs = Matrix::from_fn(9, 4, |r, c| ((r * 4 + c * 11) % 8) as f32 - 3.4);
    FrozenModel::from_parts(symptoms, herbs, None).unwrap()
}

fn smoke_vocab() -> ServingVocab {
    ServingVocab::new(
        (0..6).map(|i| format!("s{i}")).collect(),
        (0..9).map(|i| format!("h{i}")).collect(),
    )
}

/// Distinct (symptoms, herbs) id pair `i` over the base corpus
/// vocabularies (4 symptoms, 3 herbs), bit-decoded so no two collide.
fn record(i: u32) -> (Vec<u32>, Vec<u32>) {
    let symptoms = (0..4).filter(|b| (i % 15 + 1) & (1 << b) != 0).collect();
    let herbs = (0..3).filter(|b| (i % 7 + 1) & (1 << b) != 0).collect();
    (symptoms, herbs)
}

fn wal_invariants_hold(dir: &std::path::Path) {
    let path = dir.join(format!("smoke_{}.log", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mut acked: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    {
        let mut ing = Ingestor::with_wal(base_corpus(), &path).expect("open wal");
        for i in 0..20u32 {
            let (symptoms, herbs) = record(i);
            // An injected disk fault rejects the append — never acked,
            // and the record must not resurface on replay.
            if ing.append_ids(symptoms.clone(), herbs.clone()).is_ok() {
                acked.push((symptoms, herbs));
            }
        }
        assert_eq!(ing.pending().len(), acked.len(), "acked == in memory");
    }
    // Crash-reopen (possibly under injected replay-read rot): replay
    // must yield a prefix of the acked sequence, and any loss must be
    // reported, never silent.
    let reopened = Ingestor::with_wal(base_corpus(), &path).expect("reopen wal");
    let replayed = reopened.pending();
    assert!(
        replayed.len() <= acked.len(),
        "replay invented records: {} > {}",
        replayed.len(),
        acked.len()
    );
    for (got, want) in replayed.iter().zip(&acked) {
        assert_eq!(
            got.symptoms(),
            &want.0[..],
            "replay order matches ack order"
        );
        assert_eq!(got.herbs(), &want.1[..], "replay order matches ack order");
    }
    assert!(
        replayed.len() == acked.len() || reopened.wal_recovery().is_some(),
        "{} of {} acked records replayed with no recovery report",
        replayed.len(),
        acked.len()
    );
    std::fs::remove_file(&path).ok();
}

fn artifact_invariants_hold() {
    let bytes = artifact::encode(&smoke_model(), &smoke_vocab());
    for _ in 0..8 {
        // Injected corruption must surface as a decode error — the CRC
        // trailer means there is no silently-garbage model.
        if let Ok((model, vocab)) = artifact::decode(&bytes) {
            assert_eq!(model.n_symptoms(), 6);
            assert_eq!(model.n_herbs(), 9);
            assert_eq!(vocab.herb_names().len(), 9);
        }
    }
}

fn routing_invariants_hold() {
    let replica = |_| {
        let config = ServerConfig::default();
        Server::bind("127.0.0.1:0", smoke_model(), smoke_vocab(), config)
            .and_then(Server::spawn)
            .unwrap()
    };
    let replicas: Vec<Running> = (0..3).map(replica).collect();
    let addrs = replicas.iter().map(Running::addr).collect();
    let router = Router::bind("127.0.0.1:0", addrs, RouterConfig::default())
        .and_then(Router::spawn)
        .unwrap();

    let expected: Vec<f64> = smoke_model()
        .recommend(&[0, 1], 3)
        .unwrap()
        .into_iter()
        .map(f64::from)
        .collect();
    // The plain client passes no fault site: the storm hits the stack
    // under test, never the harness's own round trips.
    let mut client = router.client().unwrap();
    for _ in 0..40 {
        let resp = client
            .ask_json(r#"{"symptom_ids":[0,1],"k":3}"#)
            .expect("every response is valid json");
        match resp.get("error") {
            None => {
                let ids: Vec<f64> = resp
                    .get("herb_ids")
                    .and_then(Json::as_arr)
                    .expect("success carries herb_ids")
                    .iter()
                    .filter_map(Json::as_num)
                    .collect();
                assert_eq!(ids, expected, "a served answer is never wrong");
            }
            Some(err) => {
                // Injected drops may exhaust the walk; the failure must
                // still be structured and classified.
                assert!(err.get("code").and_then(Json::as_str).is_some(), "{resp}");
                assert!(
                    matches!(err.get("retryable"), Some(Json::Bool(_))),
                    "{resp}"
                );
            }
        }
    }

    experiment_atomicity_holds(&mut client);
}

/// Experiment-plane atomicity under the storm: a corrupted candidate
/// artifact must never become resident on any replica, and an install
/// naming a never-published variant must leave the whole fleet
/// planless — partial states are the one unacceptable outcome.
fn experiment_atomicity_holds(client: &mut LineClient) {
    let mut rpc = |request: String| -> Json {
        client
            .ask_json(&request)
            .expect("experiment responses are valid json")
    };

    // A candidate artifact with a flipped byte: the CRC trailer means
    // every replica must reject it, and injected faults can only make
    // the rollout fail *earlier* — never let garbage through.
    let mut bytes = artifact::encode(&smoke_model(), &smoke_vocab());
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    let corrupt = artifact::to_base64(&bytes);
    let resp = rpc(format!(
        "{{\"op\":\"experiment\",\"action\":\"publish\",\"variant\":\"bad\",\"artifact\":\"{corrupt}\"}}"
    ));
    if resp.get("error").is_none() {
        assert_eq!(
            resp.get("published").and_then(Json::as_num),
            Some(0.0),
            "a corrupt candidate became resident somewhere: {resp}"
        );
        assert_eq!(
            resp.get("aborted"),
            Some(&Json::Bool(true)),
            "corrupt rollout not reported as aborted: {resp}"
        );
    }

    // Installing a split that names the never-resident variant must be
    // refused wholesale (unknown variant in the clean path, any
    // structured error under injected faults) with zero partial state.
    let resp = rpc(
        "{\"op\":\"experiment\",\"action\":\"install\",\"weights\":\"control:90,bad:10\"}"
            .to_string(),
    );
    assert!(
        resp.get("installed").is_none(),
        "a split naming an unresident variant installed: {resp}"
    );
    assert!(
        resp.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .is_some(),
        "install refusal must be a structured error: {resp}"
    );
    let status = rpc("{\"op\":\"experiment\",\"action\":\"status\"}".to_string());
    assert_eq!(
        status.get("plan"),
        Some(&Json::Null),
        "an aborted install left a live plan behind: {status}"
    );
}

#[test]
fn storm_plan_smoke_holds_stack_invariants() {
    let seed = smgcn_repro::faults::init_from_env();
    if seed.is_none() && !smgcn_repro::faults::enabled() {
        // No env seed (plain local `cargo test`): arm the default storm
        // so the injection sites are exercised either way.
        smgcn_repro::faults::install(&smgcn_repro::faults::FaultPlan::storm(2020));
    }

    let dir = std::env::temp_dir().join("smgcn_fault_seed_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    wal_invariants_hold(&dir);
    artifact_invariants_hold();
    routing_invariants_hold();

    eprintln!(
        "fault-seed smoke: seed {:?}, {} faults injected",
        seed,
        smgcn_repro::faults::injected_total()
    );
    smgcn_repro::faults::clear();
}
