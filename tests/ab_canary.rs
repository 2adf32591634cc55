//! End-to-end A/B canary drill: the whole experiment lifecycle against
//! a real 3-replica fleet, in one process.
//!
//! The acceptance test for the experiment plane:
//!
//! 1. a candidate variant is published fleet-wide through the router's
//!    `{"op":"experiment"}` verb (control untouched);
//! 2. a 90/10 split is installed and concurrent clients hammer the
//!    fleet with sticky identities — every response must carry exactly
//!    the variant the canonical plan assigns that client, with the
//!    claimed variant's exact rankings, herb names and generation, and
//!    **zero failed requests and zero assignment flapping**;
//! 3. the comparison report shows both variants with journaled duels;
//! 4. promotion is refused while the guardrails say no, then rolls the
//!    candidate into control fleet-wide under load (still zero
//!    failures) and auto-halts the split;
//! 5. a second split is installed and aborted: one halt collapses all
//!    traffic back to control cleanly.
//!
//! Ground truth comes from the same frozen models held in memory, so a
//! response either matches its claimed variant verbatim or the
//! invariant is broken.

use std::collections::HashMap;
use std::sync::Arc;

use smgcn_repro::cluster::{Router, RouterConfig};
use smgcn_repro::experiment::{SplitPlan, DEFAULT_SPLIT_SEED};
use smgcn_repro::serve::json::Json;
use smgcn_repro::serve::{
    artifact, FrozenModel, LineClient, Running, Server, ServerConfig, ServingVocab,
};
use smgcn_repro::tensor::Matrix;

const N_SYMPTOMS: usize = 8;
const N_HERBS: usize = 16;
const DIM: usize = 8;
const K: usize = 5;
const N_CLIENTS: u32 = 24;
const CANDIDATE: &str = "canary";

/// A deterministic frozen model + vocabulary for `tag`; herb names
/// carry the tag (`g{tag}-h{i}`) so a response's provenance is visible.
fn synthetic(tag: u64) -> (FrozenModel, ServingVocab) {
    let t = tag as usize;
    let symptoms = Matrix::from_fn(N_SYMPTOMS, DIM, |r, c| {
        ((r * 7 + c * 3 + t * 13) % 11) as f32 - 4.9
    });
    let herbs = Matrix::from_fn(N_HERBS, DIM, |r, c| {
        ((r * 5 + c * 9 + t * 17) % 13) as f32 - 5.8
    });
    let model = FrozenModel::from_parts(symptoms, herbs, None).expect("synthetic model");
    let vocab = ServingVocab::new(
        (0..N_SYMPTOMS).map(|i| format!("s{i}")).collect(),
        (0..N_HERBS).map(|i| format!("g{tag}-h{i}")).collect(),
    );
    (model, vocab)
}

/// `n` replicas serving `synthetic(0)` and a default router in front
/// of them (declared last, so it stops first).
fn spawn_fleet(n: usize) -> (Vec<Running>, Running) {
    let replica = |_| {
        let (model, vocab) = synthetic(0);
        Server::bind("127.0.0.1:0", model, vocab, ServerConfig::default())
            .and_then(Server::spawn)
            .expect("start replica")
    };
    let replicas: Vec<Running> = (0..n).map(replica).collect();
    let addrs = replicas.iter().map(Running::addr).collect();
    let router = Router::bind("127.0.0.1:0", addrs, RouterConfig::default())
        .and_then(Router::spawn)
        .expect("start router");
    (replicas, router)
}

/// One validated query: asserts the response matches `want_variant`
/// (None = no experiment context) and that ranking, names and
/// generation all belong to `model`/`tag`/`generation`.
fn query_and_check(
    client: &mut LineClient,
    sticky: &str,
    symptoms: &[u32],
    model: &FrozenModel,
    tag: u64,
    generation: u64,
    want_variant: Option<&str>,
) {
    let ids: Vec<String> = symptoms.iter().map(ToString::to_string).collect();
    let resp = client
        .ask_json(&format!(
            "{{\"symptom_ids\":[{}],\"k\":{K},\"client\":\"{sticky}\"}}",
            ids.join(",")
        ))
        .unwrap();
    assert!(resp.get("error").is_none(), "query failed: {resp}");
    assert_eq!(
        resp.get("variant").and_then(Json::as_str),
        want_variant,
        "wrong variant for client {sticky:?}: {resp}"
    );
    assert_eq!(
        resp.get("generation").and_then(Json::as_num),
        Some(generation as f64),
        "wrong generation: {resp}"
    );
    let got: Vec<u32> = resp
        .get("herb_ids")
        .and_then(Json::as_arr)
        .expect("herb_ids")
        .iter()
        .filter_map(|v| v.as_num().map(|n| n as u32))
        .collect();
    let want = model.recommend(symptoms, K).expect("ground-truth ranking");
    assert_eq!(got, want, "ranking mismatch for {symptoms:?}: {resp}");
    let prefix = format!("g{tag}-");
    for name in resp.get("herbs").and_then(Json::as_arr).expect("herbs") {
        let name = name.as_str().expect("herb name");
        assert!(
            name.starts_with(&prefix),
            "herb {name:?} does not carry tag g{tag}"
        );
    }
}

#[test]
fn canary_split_compare_promote_and_abort() {
    let (_replicas, router) = spawn_fleet(3);
    let connect = || router.client().expect("connect front");

    let (control_model, _) = synthetic(0);
    let (candidate_model, candidate_vocab) = synthetic(1);
    let control_model = Arc::new(control_model);
    let candidate_model = Arc::new(candidate_model);
    // Query space: all 2-element symptom sets.
    let sets: Vec<Vec<u32>> = (0..N_SYMPTOMS as u32)
        .flat_map(|a| ((a + 1)..N_SYMPTOMS as u32).map(move |b| vec![a, b]))
        .collect();

    let mut admin = connect();

    // Phase 0 — no experiment context: plain control serving.
    for (i, set) in sets.iter().take(6).enumerate() {
        let mut c = connect();
        query_and_check(&mut c, &format!("c{i}"), set, &control_model, 0, 0, None);
    }

    // Phase 1 — candidate publish fleet-wide via the router.
    let b64 = artifact::to_base64(&artifact::encode(&candidate_model, &candidate_vocab));
    let ack = admin.ask_json(&format!(
        "{{\"op\":\"experiment\",\"action\":\"publish\",\"variant\":\"{CANDIDATE}\",\"artifact\":\"{b64}\"}}"
    )).unwrap();
    assert!(
        ack.get("error").is_none(),
        "candidate publish failed: {ack}"
    );
    assert_eq!(ack.get("published").and_then(Json::as_num), Some(3.0));

    // Installing a split naming an unpublished variant must be rejected
    // atomically — no replica may be left splitting traffic.
    let bad = admin
        .ask_json(
            "{\"op\":\"experiment\",\"action\":\"install\",\"weights\":\"control:50,ghost:50\"}",
        )
        .unwrap();
    let code = bad
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str);
    assert_eq!(code, Some("unknown_variant"), "{bad}");

    // Phase 2 — install the 90/10 split; the ack's digest must equal
    // the canonical plan computed independently here.
    let plan = SplitPlan::new(
        DEFAULT_SPLIT_SEED,
        1,
        &[("control".to_string(), 90), (CANDIDATE.to_string(), 10)],
    )
    .expect("canonical plan");
    let ack = admin
        .ask_json(&format!(
        "{{\"op\":\"experiment\",\"action\":\"install\",\"weights\":\"control:90,{CANDIDATE}:10\"}}"
    ))
        .unwrap();
    assert_eq!(ack.get("installed"), Some(&Json::Bool(true)), "{ack}");
    assert_eq!(ack.get("version").and_then(Json::as_num), Some(1.0));
    assert_eq!(
        ack.get("digest").and_then(Json::as_str),
        Some(format!("{:016x}", plan.digest()).as_str()),
        "router installed a different plan than the canonical one"
    );
    let canary_clients: Vec<String> = (0..N_CLIENTS)
        .map(|c| format!("c{c}"))
        .filter(|name| plan.assign(name) == CANDIDATE)
        .collect();
    assert!(
        !canary_clients.is_empty(),
        "the canonical 90/10 plan assigns none of the {N_CLIENTS} clients to the candidate"
    );

    // Phase 3 — concurrent sticky load. Four workers share the client
    // space, so the same client hits the fleet over different
    // connections; its assignment must never flap.
    let mut workers = Vec::new();
    for w in 0..4u32 {
        let sets = sets.clone();
        let control_model = Arc::clone(&control_model);
        let candidate_model = Arc::clone(&candidate_model);
        let plan = plan.clone();
        let mut client = connect();
        workers.push(std::thread::spawn(move || {
            let mut seen: HashMap<String, &'static str> = HashMap::new();
            for i in 0..200u32 {
                let sticky = format!("c{}", (w * 7 + i) % N_CLIENTS);
                let assigned = plan.assign(&sticky);
                let (model, tag): (&FrozenModel, u64) = if assigned == CANDIDATE {
                    (&candidate_model, 1)
                } else {
                    (&control_model, 0)
                };
                let set = &sets[((w + i) as usize * 3) % sets.len()];
                // Candidate slots number their own line: the first
                // candidate publish is that slot's generation 0.
                query_and_check(&mut client, &sticky, set, model, tag, 0, Some(assigned));
                let label = if assigned == CANDIDATE {
                    CANDIDATE
                } else {
                    "control"
                };
                if let Some(prev) = seen.insert(sticky.clone(), label) {
                    assert_eq!(prev, label, "client {sticky:?} flapped variants");
                }
            }
            seen
        }));
    }
    let mut assignment: HashMap<String, &'static str> = HashMap::new();
    for worker in workers {
        for (client, label) in worker.join().expect("load worker") {
            if let Some(prev) = assignment.insert(client.clone(), label) {
                assert_eq!(prev, label, "client {client:?} flapped across workers");
            }
        }
    }
    assert!(
        assignment.values().any(|v| *v == CANDIDATE),
        "no client ever reached the candidate"
    );

    // Phase 4 — the comparison report sees both variants and journaled
    // duels (800 requests, ~10% candidate share, 1-in-8 duel sampling).
    let report = admin
        .ask_json("{\"op\":\"experiment\",\"action\":\"compare\"}")
        .unwrap();
    let variants = report
        .get("variants")
        .and_then(Json::as_arr)
        .expect("compare variants");
    let requests_of = |name: &str| -> f64 {
        variants
            .iter()
            .find(|v| v.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|v| v.get("requests"))
            .and_then(Json::as_num)
            .unwrap_or_else(|| panic!("variant {name:?} missing from {report}"))
    };
    assert!(requests_of("control") > 0.0);
    assert!(requests_of(CANDIDATE) > 0.0);
    assert!(
        report.get("duels").and_then(Json::as_num).unwrap_or(0.0) > 0.0,
        "no duels journaled: {report}"
    );

    // Phase 5 — promotion is refused while guardrails fail (an absurd
    // sample floor), and the split stays live.
    let refused = admin.ask_json(&format!(
        "{{\"op\":\"experiment\",\"action\":\"promote\",\"variant\":\"{CANDIDATE}\",\"min_samples\":1000000}}"
    )).unwrap();
    let code = refused
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str);
    assert_eq!(code, Some("guardrail"), "{refused}");
    let status = admin
        .ask_json("{\"op\":\"experiment\",\"action\":\"status\"}")
        .unwrap();
    assert!(
        status.get("plan").is_some_and(|p| *p != Json::Null),
        "refused promotion must leave the split live: {status}"
    );

    // Phase 6 — real promotion under load: candidate rolls into control
    // on every replica, the split auto-halts, zero failures throughout.
    let stop_load = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let background = {
        let stop = Arc::clone(&stop_load);
        let sets = sets.clone();
        let mut client = connect();
        std::thread::spawn(move || {
            let mut n = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let set = &sets[n as usize % sets.len()];
                let ids: Vec<String> = set.iter().map(ToString::to_string).collect();
                let resp = client
                    .ask_json(&format!(
                        "{{\"symptom_ids\":[{}],\"k\":{K},\"client\":\"c{}\"}}",
                        ids.join(","),
                        n % N_CLIENTS
                    ))
                    .unwrap();
                assert!(
                    resp.get("error").is_none(),
                    "failure during promote: {resp}"
                );
                n += 1;
            }
            n
        })
    };
    // The latency rail is relaxed for the drill: with power-of-two
    // histogram buckets and a 10% share, the candidate's p99 sits a
    // bucket or two above control's even when both are microseconds.
    let promoted = admin.ask_json(&format!(
        "{{\"op\":\"experiment\",\"action\":\"promote\",\"variant\":\"{CANDIDATE}\",\"min_samples\":10,\"max_p99_delta\":100}}"
    )).unwrap();
    assert_eq!(
        promoted.get("promoted"),
        Some(&Json::Bool(true)),
        "{promoted}"
    );
    assert_eq!(
        promoted.get("halted"),
        Some(&Json::Bool(true)),
        "{promoted}"
    );
    stop_load.store(true, std::sync::atomic::Ordering::Relaxed);
    let served = background.join().expect("background load");
    assert!(served > 0, "background load never ran");

    // Control now serves the promoted artifact (tag 1) as generation 1,
    // with no experiment context left.
    for (i, set) in sets.iter().take(6).enumerate() {
        let mut c = connect();
        query_and_check(&mut c, &format!("c{i}"), set, &candidate_model, 1, 1, None);
    }

    // Phase 7 — abort drill: a fresh split, then one halt collapses all
    // traffic back to control instantly.
    let ack = admin
        .ask_json(&format!(
        "{{\"op\":\"experiment\",\"action\":\"install\",\"weights\":\"control:80,{CANDIDATE}:20\"}}"
    ))
        .unwrap();
    assert_eq!(ack.get("installed"), Some(&Json::Bool(true)), "{ack}");
    let halted = admin
        .ask_json("{\"op\":\"experiment\",\"action\":\"halt\"}")
        .unwrap();
    assert_eq!(halted.get("halted"), Some(&Json::Bool(true)), "{halted}");
    for (i, set) in sets.iter().take(6).enumerate() {
        let mut c = connect();
        query_and_check(&mut c, &format!("c{i}"), set, &candidate_model, 1, 1, None);
    }
}
