//! Hot model swap under live traffic.
//!
//! Hammers `recommend` from concurrent clients while the main thread
//! publishes two new model generations into the server's [`ModelSlot`],
//! and asserts the two invariants the online pipeline depends on:
//!
//! 1. **zero dropped/failed requests** across the swaps, and
//! 2. **no generation mixing**: every response's ranking (and its herb
//!    names) matches exactly the generation the response claims, and
//! 3. post-swap behaviour equals a fresh server started on the final
//!    model.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use smgcn_serve::json::Json;
use smgcn_serve::{
    Batcher, BatcherConfig, FrozenModel, LineClient, ModelSlot, Server, ServerConfig, ServingVocab,
};
use smgcn_tensor::Matrix;

const N_SYMPTOMS: usize = 5;
const K: usize = 3;

/// Deterministic model per generation; generation 2 also grows the herb
/// vocabulary (7 -> 8), as a refresh over an appended corpus would.
fn model_for(generation: u64) -> FrozenModel {
    let n_herbs = if generation >= 2 { 8 } else { 7 };
    let g = generation as usize + 1;
    let symptoms = Matrix::from_fn(N_SYMPTOMS, 3, |r, c| ((r * 3 + c * g + g) % 5) as f32 - 1.7);
    let herbs = Matrix::from_fn(n_herbs, 3, |r, c| ((r * (2 + g) + c * 5) % 6) as f32 - 2.3);
    FrozenModel::from_parts(symptoms, herbs, None).unwrap()
}

/// Herb names carry the generation so a mixed response is detectable by
/// name alone.
fn vocab_for(generation: u64) -> ServingVocab {
    let n_herbs = if generation >= 2 { 8 } else { 7 };
    ServingVocab::new(
        (0..N_SYMPTOMS).map(|i| format!("s{i}")).collect(),
        (0..n_herbs)
            .map(|i| format!("g{generation}-h{i}"))
            .collect(),
    )
}

/// All 1- and 2-element query sets over the symptom vocabulary.
fn query_space() -> Vec<Vec<u32>> {
    let mut sets = Vec::new();
    for a in 0..N_SYMPTOMS as u32 {
        sets.push(vec![a]);
        for b in (a + 1)..N_SYMPTOMS as u32 {
            sets.push(vec![a, b]);
        }
    }
    sets
}

fn expected_rankings(generations: u64) -> HashMap<(u64, Vec<u32>), Vec<u32>> {
    let mut expected = HashMap::new();
    for g in 0..generations {
        let model = model_for(g);
        for set in query_space() {
            expected.insert((g, set.clone()), model.recommend(&set, K).unwrap());
        }
    }
    expected
}

fn recommend(client: &mut LineClient, set: &[u32]) -> Json {
    let ids: Vec<String> = set.iter().map(u32::to_string).collect();
    let request = format!(r#"{{"symptom_ids": [{}], "k": {K}}}"#, ids.join(", "));
    client.ask_json(&request).unwrap()
}

/// Asserts one response is internally consistent with exactly one
/// generation, returning that generation.
fn check_response(resp: &Json, set: &[u32], expected: &HashMap<(u64, Vec<u32>), Vec<u32>>) -> u64 {
    assert!(
        resp.get("error").is_none(),
        "request {set:?} failed: {resp}"
    );
    let generation = resp.get("generation").and_then(Json::as_num).unwrap() as u64;
    let ids: Vec<u32> = resp
        .get("herb_ids")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|v| v.as_num().unwrap() as u32)
        .collect();
    let want = expected
        .get(&(generation, set.to_vec()))
        .unwrap_or_else(|| panic!("unknown generation {generation}"));
    assert_eq!(
        &ids, want,
        "set {set:?}: ranking does not match generation {generation}"
    );
    // Herb names must come from the same generation's vocabulary.
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
            format!("g{generation}-h{id}"),
            "set {set:?}: herb name from a different generation"
        );
    }
    generation
}

#[test]
fn hammer_recommend_across_two_hot_swaps() {
    let expected = Arc::new(expected_rankings(3));
    let slot = Arc::new(ModelSlot::new(model_for(0), vocab_for(0)));
    let server = Server::bind_slot(
        "127.0.0.1:0",
        Arc::clone(&slot),
        ServerConfig {
            max_connections: 32,
            ..ServerConfig::default()
        },
    )
    .and_then(Server::spawn)
    .unwrap();

    let total = Arc::new(AtomicU64::new(0));
    let gen2_live = Arc::new(AtomicBool::new(false));
    let space = query_space();
    let mut clients = Vec::new();
    for t in 0..6u64 {
        let expected = Arc::clone(&expected);
        let total = Arc::clone(&total);
        let gen2_live = Arc::clone(&gen2_live);
        let space = space.clone();
        let mut client = server.client().unwrap();
        clients.push(std::thread::spawn(move || {
            let mut seen = [0u64; 3];
            let mut last = 0u64;
            for i in 0..400u64 {
                // Client 0 holds its last ten requests until generation
                // 2 is published, so the final generation provably
                // serves live hammer traffic no matter how the
                // scheduler staggers the other clients against the
                // publishing thread. Everyone else races freely.
                if t == 0 && i == 390 {
                    while !gen2_live.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                let set = &space[((t * 131 + i * 7) % space.len() as u64) as usize];
                let resp = recommend(&mut client, set);
                let generation = check_response(&resp, set, &expected);
                assert!(
                    generation >= last,
                    "client {t}: generation went backwards {last} -> {generation}"
                );
                last = generation;
                seen[generation as usize] += 1;
                total.fetch_add(1, Ordering::Relaxed);
            }
            seen
        }));
    }

    // Publish generation 1 and 2 while the clients hammer away, gated
    // on observed traffic: at least 300 requests land before the first
    // swap (pinning generation 0), the second swap happens mid-run, and
    // client 0's held-back tail starts only after generation 2 is live
    // (and therefore pins it).
    let wait_for = |n: u64| {
        while total.load(Ordering::Relaxed) < n {
            std::thread::yield_now();
        }
    };
    wait_for(300);
    assert_eq!(slot.publish(model_for(1), vocab_for(1)), 1);
    wait_for(1200);
    assert_eq!(slot.publish(model_for(2), vocab_for(2)), 2);
    gen2_live.store(true, Ordering::Release);

    let mut seen = [0u64; 3];
    for c in clients {
        let s = c.join().unwrap();
        for (acc, v) in seen.iter_mut().zip(s) {
            *acc += v;
        }
    }
    assert_eq!(
        total.load(Ordering::Relaxed),
        6 * 400,
        "every request must be answered"
    );
    assert_eq!(seen.iter().sum::<u64>(), 6 * 400);
    assert!(seen[0] > 0, "some requests must land before the first swap");
    assert!(seen[2] > 0, "the final generation must serve live traffic");

    // Whatever the thread timing, the server has now fully cut over:
    // fresh queries come from generation 2 and match a fresh server
    // started directly on the final model.
    let fresh_server = Server::bind(
        "127.0.0.1:0",
        model_for(2),
        vocab_for(2),
        ServerConfig::default(),
    )
    .and_then(Server::spawn)
    .unwrap();

    let mut swapped = server.client().unwrap();
    let mut fresh = fresh_server.client().unwrap();
    for set in &space {
        let a = recommend(&mut swapped, set);
        assert_eq!(check_response(&a, set, &expected), 2);
        let b = recommend(&mut fresh, set);
        assert_eq!(
            a.get("herb_ids"),
            b.get("herb_ids"),
            "set {set:?}: swapped server must match a fresh server on the new model"
        );
        assert_eq!(a.get("herbs"), b.get("herbs"));
    }

    // The swapped server's stats reflect the final generation and the
    // lazily-invalidated cache (stale lookups happened across the swaps).
    let stats = swapped.ask_json(r#"{"op": "stats"}"#).unwrap();
    assert_eq!(stats.get("generation").and_then(Json::as_num), Some(2.0));
    assert_eq!(
        stats
            .get("model")
            .and_then(|m| m.get("herbs"))
            .and_then(Json::as_num),
        Some(8.0),
        "generation 2 grew the herb vocabulary"
    );
}

/// Each generation's herbs and `W_mlp` live only as GEMM panels packed
/// when the generation was built. A batcher drain that holds jobs pinned
/// to two generations must score each with its own generation's panels.
#[test]
fn drain_straddling_a_publish_scores_each_job_with_its_own_panels() {
    // Distinct SI heads as well as distinct herb counts (19 -> 21, both
    // ending in a ragged panel), so both packed operands differ.
    let model = |g: usize| {
        let symptoms =
            Matrix::from_fn(N_SYMPTOMS, 4, |r, c| ((r * 3 + c * g + g) % 7) as f32 - 2.5);
        let herbs = Matrix::from_fn(19 + 2 * g, 4, |r, c| {
            ((r * (3 + g) + c * 5) % 11) as f32 - 4.5
        });
        let w = Matrix::from_fn(4, 4, |r, c| ((r + c * (2 + g)) % 5) as f32 * 0.5 - 0.75);
        let b = Matrix::from_fn(1, 4, |_, c| (c + g) as f32 * 0.25 - 0.5);
        FrozenModel::from_parts(symptoms, herbs, Some((w, b))).unwrap()
    };
    let slot = Arc::new(ModelSlot::new(model(0), ServingVocab::default()));
    // A drain fires when `max_batch` jobs wait or the linger runs out.
    // With two slots and a linger far beyond the test's run time, the
    // only way both jobs return promptly is in one drain, together.
    let batcher = Batcher::start_slot(
        Arc::clone(&slot),
        BatcherConfig {
            max_batch: 2,
            linger: std::time::Duration::from_secs(30),
            ..BatcherConfig::default()
        },
    );
    let old = slot.load();
    assert_eq!(slot.publish(model(1), ServingVocab::default()), 1);
    let new = slot.load();
    let set: &[u32] = &[0, 2, 3];
    let started = std::time::Instant::now();
    let (got_old, got_new) = std::thread::scope(|scope| {
        let on_old = scope.spawn(|| batcher.recommend_pinned(set, 6, Arc::clone(&old)));
        let on_new = scope.spawn(|| batcher.recommend_pinned(set, 6, Arc::clone(&new)));
        (
            on_old.join().unwrap().unwrap(),
            on_new.join().unwrap().unwrap(),
        )
    });
    assert!(
        started.elapsed() < std::time::Duration::from_secs(20),
        "the two jobs did not share a drain"
    );
    assert_eq!((got_old.1.number, got_new.1.number), (0, 1));
    assert_eq!(got_old.0, model(0).recommend(set, 6).unwrap());
    assert_eq!(got_new.0, model(1).recommend(set, 6).unwrap());
    assert_ne!(
        got_old.0, got_new.0,
        "the generations must rank differently"
    );
}
