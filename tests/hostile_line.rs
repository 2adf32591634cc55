//! One hostile request line against a real `smgcn serve` process.
//!
//! `conn::MAX_READ_BUF` admits a 64 MiB line, and the JSON reader
//! descends once per `[` or `{`: 400 KB of `[` is 400,000 frames on a
//! worker's stack. The replica runs as its own OS process because the
//! failure this guards against is an abort (`stack overflow, aborting`),
//! which no `catch_unwind` in a test harness would survive.

mod common;

use std::io::Read;
use std::net::SocketAddr;
use std::process::Stdio;
use std::time::{Duration, Instant};

use smgcn_repro::core::Recommender;
use smgcn_repro::data::io as corpus_io;
use smgcn_repro::graph::GraphOperators;
use smgcn_repro::prelude::*;
use smgcn_repro::serve::json::Json;
use smgcn_repro::serve::{FrozenModel, LineClient};

/// Starts `smgcn serve` on a tiny untrained model and an ephemeral port;
/// returns the process (stderr piped) and the address from its banner.
fn spawn_replica() -> (common::ChildGuard, SocketAddr) {
    let dir = std::env::temp_dir().join(format!("smgcn-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (corpus_path, frozen_path) = (dir.join("corpus.tsv"), dir.join("frozen.smgt"));
    let corpus = SyndromeModel::new(GeneratorConfig::tiny_scale()).generate();
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
    FrozenModel::from_recommender(&Recommender::smgcn(&ops, &model_cfg, 7))
        .save(&frozen_path)
        .unwrap();

    let replica = common::spawn_replica(&corpus_path, &frozen_path, Stdio::piped());
    // It announced its address, so it has read both files.
    let _ = std::fs::remove_dir_all(&dir);
    replica
}

const RANKING: &str = r#"{"symptom_ids":[1,2],"k":3}"#;

fn herb_ids(response: &Json) -> Vec<f64> {
    response
        .get("herb_ids")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("not a ranking: {response}"))
        .iter()
        .filter_map(Json::as_num)
        .collect()
}

/// What the replica did by `deadline`: `Some(stderr)` if it exited.
fn exited_within(replica: &mut common::ChildGuard, deadline: Duration) -> Option<String> {
    let started = Instant::now();
    while started.elapsed() < deadline {
        if replica.0.try_wait().expect("poll replica").is_some() {
            let mut stderr = String::new();
            let _ = replica
                .0
                .stderr
                .take()
                .expect("piped stderr")
                .read_to_string(&mut stderr);
            return Some(stderr);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

#[test]
fn a_nesting_bomb_is_refused_and_the_connection_lives() {
    let (mut replica, addr) = spawn_replica();
    let mut client =
        LineClient::connect(addr, Duration::from_secs(5), Duration::from_secs(30)).unwrap();
    let before = herb_ids(&client.ask_json(RANKING).unwrap());
    assert_eq!(before.len(), 3);

    // Until `json::MAX_DEPTH` this line overflowed a worker's stack and
    // the process aborted (`stack overflow, aborting`), resetting every
    // connection of the replica.
    for bomb in ["[".repeat(400 * 1024), r#"{"a":"#.repeat(80_000)] {
        let refusal = client.ask_json(&bomb).expect("an answer, not a close");
        let error = refusal.get("error").expect("a structured error");
        assert_eq!(error.get("code").and_then(Json::as_str), Some("bad_json"));
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("nesting deeper than 64"), "{message}");
    }

    // Same connection, same process, same answer as before the bombs.
    assert_eq!(herb_ids(&client.ask_json(RANKING).unwrap()), before);
    if let Some(stderr) = exited_within(&mut replica, Duration::from_millis(200)) {
        panic!("the replica exited: {stderr}");
    }
}
