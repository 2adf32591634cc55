//! Fleet-wide observability acceptance drill: a routed 3-replica fleet
//! (one replica slot-backed by a live `OnlinePipeline` sharing its
//! server's registry) answers `{"op":"metrics"}` with a merged snapshot
//! spanning the serve, cluster and online subsystems — and request
//! tracing propagates client trace ids through the router to the
//! replica and back without perturbing untraced responses by a byte.
//!
//! This is the end-to-end test for `smgcn-obs`:
//!
//! 1. a client-supplied `trace_id` survives router → replica → response
//!    unchanged, the merged span timeline is monotone, and the span
//!    durations sum to (within 10% of) the client-observed wall time;
//! 2. with tracing off, responses through the router are byte-identical
//!    to responses straight from a replica — the telemetry plane is
//!    invisible unless asked for;
//! 3. after traffic plus one online refresh, the router's merged
//!    metrics snapshot carries exactly the names README's metric
//!    catalogue lists across the serve, cluster, reactor and online
//!    families, bar the few a first event registers.

use std::time::{Duration, Instant};

use smgcn_repro::prelude::*;
use smgcn_repro::serve::json::{self, Json};
use smgcn_repro::serve::Running;

const K: usize = 5;

/// Canonicalizes a response for byte-comparison: the `micros` field is
/// per-request wall time and varies by nature (it predates tracing);
/// everything else must match exactly. `Json` objects serialize with
/// sorted keys, so the rendering is canonical.
fn sans_micros(raw: &str) -> String {
    let Ok(Json::Obj(mut map)) = json::parse(raw) else {
        panic!("unparseable response: {raw}");
    };
    map.remove("micros").expect("responses carry micros");
    Json::Obj(map).to_string()
}

/// Distinct metric names in a flat snapshot map, collapsing labeled
/// counters (`serve_errors_total{code="..."}`) onto their base name.
fn metric_names(map: &Json) -> Vec<String> {
    let Json::Obj(map) = map else {
        panic!("metrics snapshot is not an object: {map}");
    };
    let mut names: Vec<String> = map
        .keys()
        .map(|k| k.split('{').next().unwrap().to_string())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Catalogued metrics registered by their first event, which this
/// fleet never sees: an error answer, a split install, a WAL recovery.
const LAZY: [&str; 5] = [
    "serve_errors_total",
    "serve_variant_generation",
    "serve_variant_weight",
    "router_split_version",
    "online_wal_recoveries_total",
];

/// The base names in README's metric catalogue: every backticked name
/// in the table under `| Family | Metrics |`.
fn readme_catalogue() -> Vec<String> {
    let readme = include_str!("../README.md");
    let table = readme.split("| Family | Metrics |").nth(1).unwrap();
    let rows = table.lines().skip(2).take_while(|row| row.starts_with('|'));
    rows.flat_map(|row| row.split('`').skip(1).step_by(2))
        .map(|name| name.split('{').next().unwrap().to_string())
        .collect()
}

#[test]
fn routed_fleet_merges_metrics_and_propagates_traces() {
    // --- the fleet: one trained model everywhere --------------------
    let corpus = SyndromeModel::new(GeneratorConfig::tiny_scale()).generate();
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
    let train_cfg = TrainConfig {
        epochs: 1,
        batch_size: 64,
        seed: 42,
        ..TrainConfig::smoke()
    };
    let mut model = Recommender::smgcn(&ops, &model_cfg, 42);
    train(&mut model, &corpus, &train_cfg);

    let vocab = || {
        ServingVocab::new(
            corpus
                .symptom_vocab()
                .iter()
                .map(|(_, n)| n.to_string())
                .collect(),
            corpus
                .herb_vocab()
                .iter()
                .map(|(_, n)| n.to_string())
                .collect(),
        )
    };
    let frozen = || FrozenModel::from_recommender(&model);

    // Two novel prescriptions for the online refresh, built before the
    // corpus moves into the pipeline.
    let ingest_a = (vec![0u32, 1, 2, 3, 4], vec![0u32, 1, 2, 3]);
    let ingest_b = (vec![1u32, 2, 3, 4, 5], vec![1u32, 2, 3, 4]);

    // Replica 0 is slot-backed by the online pipeline and shares its
    // server's registry, so its metrics snapshot spans serving AND the
    // online loop. Replicas 1 and 2 serve the same frozen generation.
    let plain = |_| {
        Server::bind("127.0.0.1:0", frozen(), vocab(), ServerConfig::default())
            .and_then(Server::spawn)
            .unwrap()
    };
    let plain: Vec<Running> = (0..2).map(plain).collect();
    let mut pipeline = OnlinePipeline::new(
        corpus.clone(),
        model,
        OnlineConfig {
            thresholds: SynergyThresholds { x_s: 1, x_h: 1 },
            model: model_cfg,
            train: train_cfg,
            finetune: FineTuneConfig {
                max_epochs: 1,
                target_loss: None,
                learning_rate: None,
            },
            seed: 42,
        },
    );
    let server0 =
        Server::bind_slot("127.0.0.1:0", pipeline.slot(), ServerConfig::default()).unwrap();
    pipeline.observe(&server0.registry(), server0.events());
    let mut replicas = vec![server0.spawn().unwrap()];
    replicas.extend(plain);
    let router = Router::bind(
        "127.0.0.1:0",
        replicas.iter().map(Running::addr).collect(),
        RouterConfig {
            probe_interval: Duration::from_millis(100),
            ..RouterConfig::default()
        },
    )
    .and_then(Router::spawn)
    .unwrap();

    let mut client = router.client().unwrap();
    let query = format!(r#"{{"symptom_ids":[0,1,2],"k":{K}}}"#);

    // --- 1: untraced responses are byte-identical -------------------
    // Every replica serves the same generation-0 freeze of the same
    // weights, so straight-from-replica bytes are the ground truth: the
    // router must relay them untouched, and repeating the request must
    // not perturb a byte (sampling and tracing are invisible). Warm
    // every replica's cache first so each comparison is the same
    // cache-hit response (`"cached"` is part of the payload), and
    // compare modulo the pre-existing per-request `micros` timing.
    for replica in &replicas {
        replica.client().unwrap().ask(&query).unwrap();
    }
    let raw_via_router = client.ask(&query).unwrap();
    let via_router = sans_micros(&raw_via_router);
    assert_eq!(via_router, sans_micros(&client.ask(&query).unwrap()));
    for replica in &replicas {
        let direct = sans_micros(&replica.client().unwrap().ask(&query).unwrap());
        assert_eq!(
            via_router, direct,
            "router must relay untraced responses byte-identically"
        );
    }
    assert!(
        !raw_via_router.contains("trace"),
        "untraced response must carry no trace section: {raw_via_router}"
    );

    // --- 2: client trace ids propagate; spans partition the wall ----
    // A busy test host can deschedule this client mid round-trip,
    // inflating the observed wall with time the router never saw; keep
    // the calmest of a few attempts before holding spans to the wall.
    let trace_id = "cafebabe00c0ffee";
    let mut best: Option<(f64, Json)> = None;
    for _ in 0..8 {
        let t0 = Instant::now();
        let response = client
            .ask_json(&format!(
                r#"{{"symptom_ids":[0,1,2],"k":{K},"trace":true,"trace_id":"{trace_id}"}}"#
            ))
            .unwrap();
        let wall = t0.elapsed().as_secs_f64() * 1e6;
        if best.as_ref().is_none_or(|(w, _)| wall < *w) {
            best = Some((wall, response));
        }
    }
    let (wall_us, traced) = best.unwrap();
    let trace = traced.get("trace").expect("traced response has a trace");
    assert_eq!(
        trace.get("trace_id").and_then(Json::as_str),
        Some(trace_id),
        "client-supplied trace id must survive router -> replica -> response"
    );
    let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    assert!(
        spans.len() >= 3,
        "expected route/replica/net/relay spans: {trace}"
    );
    let mut span_sum = 0.0;
    let mut last_start = -1.0;
    for span in spans {
        let start = span.get("start_us").and_then(Json::as_num).unwrap();
        let dur = span.get("us").and_then(Json::as_num).unwrap();
        assert!(start >= last_start, "span starts must be monotone: {trace}");
        last_start = start;
        span_sum += dur;
    }
    assert!(span_sum > 0.0, "spans must carry durations: {trace}");
    assert!(
        span_sum <= wall_us,
        "span sum {span_sum} us cannot exceed the observed wall {wall_us} us"
    );
    // The merged timeline partitions the router's handling, which is
    // the client wall minus one localhost round trip; 10% plus a small
    // absolute allowance for that hop.
    assert!(
        wall_us - span_sum <= wall_us * 0.10 + 500.0,
        "span sum {span_sum} us too far below the observed wall {wall_us} us"
    );

    // --- 3: traffic + one online refresh, then the merged snapshot --
    for i in 0..30u32 {
        let a = i % 6;
        client
            .ask_json(&format!(r#"{{"symptom_ids":[{a},{}],"k":{K}}}"#, a + 1))
            .unwrap();
    }
    assert!(pipeline.ingest_ids(ingest_a.0, ingest_a.1).is_ok());
    assert!(pipeline.ingest_ids(ingest_b.0, ingest_b.1).is_ok());
    pipeline.refresh().expect("online refresh");

    let snapshot = client.ask_json(r#"{"op":"metrics"}"#).unwrap();
    assert_eq!(snapshot.get("partial"), Some(&Json::Bool(false)));
    let replicas = snapshot.get("replicas").and_then(Json::as_arr).unwrap();
    assert_eq!(replicas.len(), 3);
    let merged = snapshot.get("merged").expect("merged fleet metrics");
    let names = metric_names(merged);
    // The merged snapshot registers exactly README's metric catalogue,
    // bar the metrics a first event registers.
    let mut listed = readme_catalogue();
    listed.retain(|name| !LAZY.contains(&name.as_str()));
    listed.sort();
    assert_eq!(
        names, listed,
        "README's metric catalogue and the registries disagree"
    );
    // The refresh itself is visible fleet-wide: the online loop's
    // counter rode replica 0's registry into the merged snapshot.
    assert_eq!(
        merged.get("online_refreshes_total").and_then(Json::as_num),
        Some(1.0),
        "the refresh must surface in the merged snapshot"
    );

    // And the swap landed in the fleet event journal.
    let events = client.ask_json(r#"{"op":"events"}"#).unwrap();
    let fleet_events = events.get("replicas").and_then(Json::as_arr).unwrap();
    let kinds: Vec<&str> = fleet_events
        .iter()
        .filter_map(|r| r.get("events").and_then(Json::as_arr))
        .flatten()
        .filter_map(|e| e.get("kind").and_then(Json::as_str))
        .collect();
    assert!(
        kinds.contains(&"swap"),
        "the hot swap must appear in fleet events: {kinds:?}"
    );
}
