//! Online clinic: live ingestion, incremental refresh and hot model swap.
//!
//! The walkthrough the `smgcn-online` subsystem exists for: a clinic
//! server is answering recommendation traffic while the corpus keeps
//! growing. New prescriptions stream in (one even mentions a herb the
//! vocabulary has never seen), the pipeline deltas the graphs, fine-tunes
//! the model warm for a couple of epochs, re-freezes it and hot-swaps the
//! running server to the new generation — all without dropping a single
//! in-flight request or restarting anything.
//!
//! ```sh
//! cargo run --release --example online_clinic
//! ```

use smgcn_repro::prelude::*;
use smgcn_repro::serve::json::Json;
use smgcn_repro::serve::Running;

/// A returning patient whose presentation the server sees continuously.
const PATIENT_SYMPTOMS: [&str; 2] = ["daohan (night sweat)", "fare (fever)"];

/// Today's new prescriptions: the second one introduces a herb the
/// vocabulary has never seen (an imported materia medica, say).
const NEW_HERB: &str = "xiyangshen (american ginseng)";

/// One request on a connection of its own, as a walk-in client would.
fn request(server: &Running, line: &str) -> Json {
    let mut client = server.client().expect("connect");
    client.ask_json(line).expect("round trip")
}

fn show_recommendation(server: &Running, label: &str) -> Json {
    let names: Vec<String> = PATIENT_SYMPTOMS.iter().map(|s| format!("{s:?}")).collect();
    let resp = request(
        server,
        &format!(r#"{{"symptoms": [{}], "k": 5}}"#, names.join(", ")),
    );
    let generation = resp.get("generation").and_then(Json::as_num).unwrap();
    println!("\n{label} (generation {generation}):");
    for herb in resp.get("herbs").and_then(Json::as_arr).unwrap() {
        println!("  - {}", herb.as_str().unwrap());
    }
    resp
}

fn main() {
    // --- offline prologue: corpus, graphs, one trained model -----------
    let corpus = SyndromeModel::new(GeneratorConfig::tiny_scale().with_seed(2020)).generate();
    let thresholds = SynergyThresholds { x_s: 1, x_h: 1 };
    let ops = GraphOperators::from_records(
        corpus.records(),
        corpus.n_symptoms(),
        corpus.n_herbs(),
        thresholds,
    );
    let model_cfg = ModelConfig {
        embedding_dim: 16,
        layer_dims: vec![16, 24],
        ..ModelConfig::smgcn()
    };
    let train_cfg = TrainConfig {
        epochs: 8,
        batch_size: 64,
        learning_rate: 5e-3,
        l2_lambda: 1e-4,
        ..TrainConfig::smoke()
    };
    let mut model = Recommender::smgcn(&ops, &model_cfg, 42);
    println!(
        "training on {} prescriptions ({} epochs)...",
        corpus.len(),
        train_cfg.epochs
    );
    let history = train(&mut model, &corpus, &train_cfg);
    println!("cold training final loss: {:.3}", history.final_loss());

    // --- the online loop ----------------------------------------------
    let mut pipeline = OnlinePipeline::new(
        corpus,
        model,
        OnlineConfig {
            thresholds,
            model: model_cfg,
            train: train_cfg,
            finetune: FineTuneConfig {
                max_epochs: 2,
                ..FineTuneConfig::default()
            },
            seed: 42,
        },
    );

    // The server shares the pipeline's model slot: generations published
    // by `refresh` go live without a restart.
    let server = Server::bind_slot("127.0.0.1:0", pipeline.slot(), ServerConfig::default())
        .and_then(Server::spawn)
        .expect("start the server");
    println!("\nserving on {}", server.addr());

    let before = show_recommendation(&server, "recommendation before refresh");
    assert_eq!(before.get("generation").and_then(Json::as_num), Some(0.0));

    // New prescriptions arrive. One mentions an unseen herb: the
    // vocabulary grows with a stable id, no renumbering.
    println!("\ningesting today's prescriptions...");
    let herbs_before = pipeline.corpus().n_herbs();
    pipeline
        .ingest_named(
            &["daohan (night sweat)", "fare (fever)"],
            &["renshen (ginseng)", NEW_HERB],
            true,
        )
        .expect("ingest");
    pipeline
        .ingest_named(
            &["touteng (headache)", "fare (fever)"],
            &["gancao (licorice)", "jinyinhua (honeysuckle)"],
            true,
        )
        .expect("ingest");
    // Exact duplicates are detected and dropped.
    let dup = pipeline
        .ingest_named(
            &["fare (fever)", "daohan (night sweat)"],
            &[NEW_HERB, "renshen (ginseng)"],
            true,
        )
        .expect("ingest");
    println!(
        "  {} pending, {dup:?} for the repeated record, vocabulary {} -> {} herbs",
        pipeline.ingestor().pending().len(),
        herbs_before,
        pipeline.corpus().n_herbs()
    );

    // Refresh: delta the graphs, fine-tune warm, freeze, publish. The
    // server keeps answering throughout.
    let report = pipeline.refresh().expect("refresh");
    println!(
        "\nrefresh published generation {}: +{} records, {} fine-tune epochs, final loss {:.3}",
        report.generation, report.appended, report.epochs_run, report.final_loss
    );
    println!(
        "  delta {:.1} ms | finetune {:.1} ms | freeze {:.1} ms | publish {:.3} ms",
        report.delta_ms, report.finetune_ms, report.freeze_ms, report.publish_ms
    );

    let after = show_recommendation(&server, "recommendation after refresh");
    assert_eq!(after.get("generation").and_then(Json::as_num), Some(1.0));

    // The swapped-in model knows the appended herb: score the patient
    // against the full grown herb set and find its rank.
    let generation = pipeline.slot().load();
    let new_id = (generation.model.n_herbs() - 1) as u32;
    println!(
        "\nappended herb {:?} is live with id {new_id} (scoreable, rankable, cacheable)",
        generation.vocab.herb_name(new_id)
    );

    let stats = request(&server, r#"{"op": "stats"}"#);
    println!(
        "server stats: generation {}, {} herbs, {} requests served",
        stats.get("generation").and_then(Json::as_num).unwrap(),
        stats
            .get("model")
            .and_then(|m| m.get("herbs"))
            .and_then(Json::as_num)
            .unwrap(),
        stats.get("requests").and_then(Json::as_num).unwrap(),
    );

    server.shutdown().expect("serve");
    println!("\ndone: ingested -> delta'd -> fine-tuned -> frozen -> swapped, zero restarts.");
}
