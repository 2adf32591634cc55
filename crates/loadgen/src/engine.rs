//! The execution engine: stands up the planned topology, drives the
//! schedule through real sockets, fires the chaos plan, and measures.
//!
//! The contract with [`crate::scenario`]: everything decided here is
//! *when* things actually happened, never *what* happens — the what is
//! the deterministic workload. Workers pace themselves against the
//! schedule's arrival offsets (open-loop up to per-worker serialization)
//! and validate every response inline against the scenario's
//! generation-consistency invariant.

use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smgcn_cluster::{PoolConfig, Router, RouterConfig};
use smgcn_obs::alert::evaluate_series;
use smgcn_obs::tsdb::{unix_ms_now, Scraper, SeriesEncoder, TsdbData};
use smgcn_online::{FineTuneConfig, OnlineConfig, OnlinePipeline};
use smgcn_serve::json::{self, Json};
use smgcn_serve::server::flatten_metrics_json;
use smgcn_serve::{FrozenModel, LineClient, Running, Server, ServerConfig, ServingVocab};

use crate::report::{Measured, ScenarioReport, WorkloadSummary};
use crate::scenario::{
    scrape_interval_ms, ChaosAction, ScenarioKind, Topology, Workload, CANDIDATE, DIM, N_HERBS,
    N_SYMPTOMS,
};
use crate::shape::{percentiles_us, synthetic_frozen, synthetic_vocab};
use crate::slo::{evaluate, GenCheck, SloInputs};

/// Cap on collected violation samples (the verdict only needs a few).
const MAX_VIOLATIONS: usize = 20;

/// Client-side connect, read and write timeout: far above any SLO
/// budget, so a hung stack surfaces as a failed request instead of a
/// hung run.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

fn start_server(model: FrozenModel, vocab: ServingVocab, config: ServerConfig) -> Running {
    Server::bind("127.0.0.1:0", model, vocab, config)
        .and_then(Server::spawn)
        .expect("start a server")
}

/// The running stack behind one scenario. Owned by [`run`]'s thread:
/// the online pipeline (not `Send` — it owns the training model) is
/// only ever touched from the control lane, which runs right here.
struct Stack {
    /// What workers connect to: the router, or the only server.
    front_end: Running,
    /// Routed replicas (None once killed by chaos).
    replicas: Vec<Option<Running>>,
    pipeline: Option<OnlinePipeline>,
}

impl Stack {
    fn build(workload: &Workload) -> Self {
        match workload.topology {
            Topology::SingleServer => {
                // A storm scenario holds its whole cohort open at once:
                // the connection cap needs headroom above the held
                // fleet plus the steady lane, because a shed during the
                // storm is itself an SLO violation. The reactor keeps
                // the cap fd-bounded — its worker pool does not grow
                // with the cap.
                let config = match &workload.storm {
                    Some(spec) => ServerConfig {
                        max_connections: spec.connections + 256,
                        ..ServerConfig::default()
                    },
                    None => ServerConfig::default(),
                };
                let server = start_server(
                    synthetic_frozen(N_SYMPTOMS, N_HERBS, DIM, 0),
                    synthetic_vocab(N_SYMPTOMS, N_HERBS, 0),
                    config,
                );
                Self {
                    front_end: server,
                    replicas: Vec::new(),
                    pipeline: None,
                }
            }
            Topology::Routed { replicas } => {
                let procs: Vec<Option<Running>> = (0..replicas)
                    .map(|_| {
                        Some(start_server(
                            synthetic_frozen(N_SYMPTOMS, N_HERBS, DIM, 0),
                            synthetic_vocab(N_SYMPTOMS, N_HERBS, 0),
                            ServerConfig::default(),
                        ))
                    })
                    .collect();
                let addrs = procs.iter().flatten().map(Running::addr).collect();
                let router = Router::bind(
                    "127.0.0.1:0",
                    addrs,
                    RouterConfig {
                        pool: PoolConfig {
                            max_conns_per_replica: 8,
                            eject_base: Duration::from_millis(50),
                            eject_max: Duration::from_millis(500),
                            // Tight transport timeouts: a killed replica's
                            // half-open connections must convert into
                            // failover, not client-visible stalls.
                            connect_timeout: Duration::from_millis(200),
                            replica_timeout: Duration::from_millis(300),
                            ..PoolConfig::default()
                        },
                        probe_interval: Duration::from_millis(100),
                        lease_patience: Duration::from_secs(5),
                        ..RouterConfig::default()
                    },
                )
                .and_then(Router::spawn)
                .expect("start the router");
                Self {
                    front_end: router,
                    replicas: procs,
                    pipeline: None,
                }
            }
            Topology::OnlinePipeline => {
                let corpus = crate::scenario::ingest_corpus(workload.config.seed);
                let thresholds = smgcn_graph::SynergyThresholds { x_s: 1, x_h: 1 };
                let ops = smgcn_graph::GraphOperators::from_records(
                    corpus.records(),
                    corpus.n_symptoms(),
                    corpus.n_herbs(),
                    thresholds,
                );
                let model_cfg = smgcn_core::prelude::ModelConfig {
                    embedding_dim: 16,
                    layer_dims: vec![16, 24],
                    ..smgcn_core::prelude::ModelConfig::smgcn()
                };
                let train_cfg = smgcn_core::prelude::TrainConfig {
                    epochs: 2,
                    batch_size: 64,
                    learning_rate: 1e-3,
                    l2_lambda: 1e-4,
                    loss: smgcn_core::prelude::LossKind::MultiLabel,
                    weighted_labels: true,
                    seed: workload.config.seed,
                };
                let mut model =
                    smgcn_core::prelude::Recommender::smgcn(&ops, &model_cfg, workload.config.seed);
                smgcn_core::prelude::train(&mut model, &corpus, &train_cfg);
                let mut pipeline = OnlinePipeline::new(
                    corpus,
                    model,
                    OnlineConfig {
                        thresholds,
                        model: model_cfg,
                        train: train_cfg,
                        finetune: FineTuneConfig {
                            max_epochs: 1,
                            target_loss: None,
                        },
                        seed: workload.config.seed,
                    },
                );
                let server =
                    Server::bind_slot("127.0.0.1:0", pipeline.slot(), ServerConfig::default())
                        .expect("bind server");
                // The pipeline shares the server's registry and journal,
                // so one `{"op":"metrics"}` snapshot covers both the
                // serving and the refresh side of the deployment.
                pipeline.observe(&server.registry(), server.events());
                let server = server.spawn().expect("start the server");
                Self {
                    front_end: server,
                    replicas: Vec::new(),
                    pipeline: Some(pipeline),
                }
            }
        }
    }

    /// Where workers connect.
    fn front(&self) -> SocketAddr {
        self.front_end.addr()
    }

    /// The front end stops before what it fronts.
    fn teardown(self) {
        self.front_end.shutdown().expect("front-end loop");
        for replica in self.replicas.into_iter().flatten() {
            replica.shutdown().expect("replica loop");
        }
    }
}

/// Shared response validation state.
struct Validation {
    check: GenCheck,
    /// `(generation, symptom set) -> expected ranking` for
    /// [`GenCheck::ExactRankings`].
    expected: HashMap<(u64, Vec<u32>), Vec<u32>>,
    /// Generation number -> the artifact tag whose model and vocab it
    /// serves (herb names embed the tag, not the generation number).
    tags: HashMap<u64, u64>,
    /// `variant -> (artifact tag, expected generation)` for
    /// [`GenCheck::VariantRankings`]: control serves the boot artifact
    /// at generation 0, and each candidate slot's first publish also
    /// lands as that slot's own generation 0.
    variant_tags: HashMap<String, (u64, u64)>,
    /// `(variant, symptom set) -> expected ranking` for
    /// [`GenCheck::VariantRankings`].
    variant_expected: HashMap<(String, Vec<u32>), Vec<u32>>,
    /// First variant observed per sticky client: once a split assigns a
    /// client, every later labeled response must agree (stickiness).
    sticky: Mutex<HashMap<String, String>>,
    violations: Mutex<Vec<String>>,
}

impl Validation {
    /// Precomputes expected rankings: generation 0 is the boot model
    /// (tag 0), and each planned rolling publish maps the next
    /// generation number to its artifact tag.
    fn plan(workload: &Workload) -> Self {
        let mut expected = HashMap::new();
        let mut tags = HashMap::new();
        let mut variant_tags = HashMap::new();
        let mut variant_expected = HashMap::new();
        if workload.slo.generation_consistency == GenCheck::ExactRankings {
            tags.insert(0u64, 0u64);
            let mut next_gen = 1;
            for event in &workload.chaos {
                if let ChaosAction::RollingPublish { tag } = event.action {
                    tags.insert(next_gen, tag);
                    next_gen += 1;
                }
            }
            let sets = workload.schedule.distinct_query_sets();
            for (&generation, &tag) in &tags {
                let model = synthetic_frozen(N_SYMPTOMS, N_HERBS, DIM, tag);
                for set in &sets {
                    let ranking = model
                        .recommend(set, workload.config.k)
                        .expect("planned sets are valid");
                    expected.insert((generation, set.clone()), ranking);
                }
            }
        }
        if workload.slo.generation_consistency == GenCheck::VariantRankings {
            variant_tags.insert("control".to_string(), (0u64, 0u64));
            for event in &workload.chaos {
                if let ChaosAction::CandidatePublish { tag } = event.action {
                    // A fresh candidate slot numbers its first publish
                    // as generation 0, independent of control's line.
                    variant_tags.insert(CANDIDATE.to_string(), (tag, 0u64));
                }
            }
            let sets = workload.schedule.distinct_query_sets();
            for (variant, &(tag, _)) in &variant_tags {
                let model = synthetic_frozen(N_SYMPTOMS, N_HERBS, DIM, tag);
                for set in &sets {
                    let ranking = model
                        .recommend(set, workload.config.k)
                        .expect("planned sets are valid");
                    variant_expected.insert((variant.clone(), set.clone()), ranking);
                }
            }
        }
        Self {
            check: workload.slo.generation_consistency,
            expected,
            tags,
            variant_tags,
            variant_expected,
            sticky: Mutex::new(HashMap::new()),
            violations: Mutex::new(Vec::new()),
        }
    }

    fn violation(&self, message: String) {
        let mut v = self.violations.lock().expect("violations lock");
        if v.len() < MAX_VIOLATIONS {
            v.push(message);
        }
    }

    /// Validates one successful response; `last_gen` carries the
    /// connection's monotonicity state, `client` the request's sticky
    /// identity (experiment scenarios only).
    fn validate(&self, symptoms: &[u32], resp: &Json, last_gen: &mut u64, client: Option<&str>) {
        let Some(generation) = resp
            .get("generation")
            .and_then(Json::as_num)
            .map(|g| g as u64)
        else {
            self.violation("response missing generation".to_string());
            return;
        };
        match self.check {
            GenCheck::None => {}
            GenCheck::Monotone => {
                if generation < *last_gen {
                    self.violation(format!(
                        "generation went backwards on one connection: {} -> {generation}",
                        *last_gen
                    ));
                }
                *last_gen = generation.max(*last_gen);
            }
            GenCheck::ExactRankings => {
                let Some(ids) = resp.get("herb_ids").and_then(Json::as_arr).map(|arr| {
                    arr.iter()
                        .filter_map(|v| v.as_num().map(|n| n as u32))
                        .collect::<Vec<u32>>()
                }) else {
                    self.violation("response missing herb_ids".to_string());
                    return;
                };
                match self.expected.get(&(generation, symptoms.to_vec())) {
                    None => {
                        self.violation(format!("response claims unknown generation {generation}"))
                    }
                    Some(want) if *want != ids => self.violation(format!(
                        "ranking does not match generation {generation} for {symptoms:?}: \
                         got {ids:?}, expected {want:?}"
                    )),
                    Some(_) => {}
                }
                // Names must carry the claimed generation's artifact tag
                // too — a mixed response would rank with one model and
                // name with another. (Tag, not generation number: a
                // publish plan may ship any tag as any generation.)
                if let (Some(names), Some(tag)) = (
                    resp.get("herbs").and_then(Json::as_arr),
                    self.tags.get(&generation),
                ) {
                    let prefix = format!("g{tag}-");
                    if names
                        .iter()
                        .any(|n| n.as_str().is_some_and(|s| !s.starts_with(&prefix)))
                    {
                        self.violation(format!(
                            "herb names do not all carry generation {generation}'s tag g{tag}"
                        ));
                    }
                }
            }
            GenCheck::VariantRankings => {
                // Unlabeled responses (before the install, after the
                // halt) are control serving: they must match control's
                // artifact exactly — a candidate still holding traffic
                // after the halt shows up right here.
                let labeled = resp.get("variant").and_then(Json::as_str);
                let variant = labeled.unwrap_or("control");
                if let (Some(variant), Some(client)) = (labeled, client) {
                    let mut sticky = self.sticky.lock().expect("sticky lock");
                    match sticky.get(client) {
                        Some(prev) if prev != variant => self.violation(format!(
                            "client {client:?} flapped variants: {prev} -> {variant}"
                        )),
                        Some(_) => {}
                        None => {
                            sticky.insert(client.to_string(), variant.to_string());
                        }
                    }
                }
                let Some(&(tag, want_gen)) = self.variant_tags.get(variant) else {
                    self.violation(format!("response claims unknown variant {variant:?}"));
                    return;
                };
                if generation != want_gen {
                    self.violation(format!(
                        "variant {variant:?} claims generation {generation}, expected {want_gen}"
                    ));
                }
                let Some(ids) = resp.get("herb_ids").and_then(Json::as_arr).map(|arr| {
                    arr.iter()
                        .filter_map(|v| v.as_num().map(|n| n as u32))
                        .collect::<Vec<u32>>()
                }) else {
                    self.violation("response missing herb_ids".to_string());
                    return;
                };
                match self
                    .variant_expected
                    .get(&(variant.to_string(), symptoms.to_vec()))
                {
                    Some(want) if *want != ids => self.violation(format!(
                        "ranking does not match variant {variant:?} for {symptoms:?}: \
                         got {ids:?}, expected {want:?}"
                    )),
                    _ => {}
                }
                if let Some(names) = resp.get("herbs").and_then(Json::as_arr) {
                    let prefix = format!("g{tag}-");
                    if names
                        .iter()
                        .any(|n| n.as_str().is_some_and(|s| !s.starts_with(&prefix)))
                    {
                        self.violation(format!(
                            "herb names do not all carry variant {variant:?}'s tag g{tag}"
                        ));
                    }
                }
            }
        }
    }
}

struct WorkerResult {
    /// Per-request latency (seconds).
    latencies: Vec<f64>,
    executed: usize,
    failures: usize,
    generations: BTreeSet<u64>,
}

/// The run's scraped metrics history: the queryable in-memory index and
/// the on-disk byte encoding, appended in lockstep so the report can
/// ship exactly what a file-backed tsdb would have persisted.
struct TsdbHistory {
    data: TsdbData,
    encoder: SeriesEncoder,
    bytes: Vec<u8>,
    records: usize,
}

impl TsdbHistory {
    fn new() -> Self {
        let mut bytes = Vec::new();
        SeriesEncoder::header(&mut bytes);
        Self {
            data: TsdbData::default(),
            encoder: SeriesEncoder::new(),
            bytes,
            records: 0,
        }
    }

    fn append(&mut self, at_ms: u64, samples: &[(String, f64)]) {
        self.data.push(at_ms, samples);
        self.encoder.append(at_ms, samples, &mut self.bytes);
        self.records += 1;
    }
}

/// One admin round trip against the front-end with an arbitrary request
/// line: the raw response plus its parse. `None` on any transport
/// hiccup — the run proceeds without the snapshot rather than failing.
fn fetch_admin_line(front: SocketAddr, request: &str) -> Option<(String, Json)> {
    let raw = connect(front).ok()?.ask(request).ok()?;
    let parsed = json::parse(&raw).ok()?;
    Some((raw, parsed))
}

/// Fetches one bare admin verb (see [`fetch_admin_line`]).
fn fetch_admin(front: SocketAddr, op: &str) -> Option<(String, Json)> {
    fetch_admin_line(front, &format!("{{\"op\":\"{op}\"}}"))
}

/// Sends one write-side admin verb through the front end and returns
/// the parsed ack; chaos actions assert on the result (a failed publish,
/// install or halt is a scenario failure, not a shrug).
fn admin_rpc(front: SocketAddr, request: &str) -> Option<Json> {
    fetch_admin_line(front, request).map(|(_, parsed)| parsed)
}

/// The flat name -> value metric map inside a snapshot: single servers
/// report under `"metrics"`, routers under `"merged"` (the fleet-wide
/// aggregation).
fn metric_map(snapshot: &Json) -> Option<&std::collections::BTreeMap<String, Json>> {
    match snapshot.get("merged").or_else(|| snapshot.get("metrics")) {
        Some(Json::Obj(map)) => Some(map),
        _ => None,
    }
}

/// Nonzero before -> after deltas of every counter (`_total`-suffixed
/// metric, labeled or plain), sorted by name (the map iterates sorted).
fn counter_deltas(before: &Json, after: &Json) -> Vec<(String, f64)> {
    let (Some(before), Some(after)) = (metric_map(before), metric_map(after)) else {
        return Vec::new();
    };
    let mut deltas = Vec::new();
    for (name, value) in after {
        if !(name.ends_with("_total") || name.contains("_total{")) {
            continue;
        }
        let Some(after_v) = value.as_num() else {
            continue;
        };
        let before_v = before.get(name).and_then(Json::as_num).unwrap_or(0.0);
        if after_v != before_v {
            deltas.push((name.clone(), after_v - before_v));
        }
    }
    deltas
}

fn delta_of(deltas: &[(String, f64)], name: &str) -> f64 {
    deltas
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, d)| *d)
}

/// The server-side error ledger over the run, from counter deltas.
/// Fronted by a bare server, every replica "bad" counter reaches a
/// client. Routed, the retryable `overloaded` blips are the router's to
/// replay, so only non-retryable serve error codes and the
/// requests the router exhausted entirely count.
fn counter_errors(deltas: &[(String, f64)], routed: bool) -> u64 {
    deltas
        .iter()
        .filter(|(name, _)| {
            if !routed {
                let base = name.split_once('{').map_or(name.as_str(), |(base, _)| base);
                return crate::scenario::REPLICA_BAD_COUNTERS.contains(&base);
            }
            match name.strip_prefix("serve_errors_total") {
                Some(rest) => !rest.contains("overloaded"),
                None => name == "router_exhausted_total",
            }
        })
        .map(|(_, delta)| delta.max(0.0) as u64)
        .sum()
}

fn connect(front: SocketAddr) -> std::io::Result<LineClient> {
    LineClient::connect(front, CLIENT_TIMEOUT, CLIENT_TIMEOUT)
}

/// One query lane: executes its schedule slice in arrival order, pacing
/// against `start`, validating every response.
#[allow(clippy::needless_pass_by_value)]
fn query_worker(
    workload: Arc<Workload>,
    lane: Vec<usize>,
    front: SocketAddr,
    validation: Arc<Validation>,
    start: Instant,
) -> WorkerResult {
    let mut result = WorkerResult {
        latencies: Vec::with_capacity(lane.len()),
        executed: 0,
        failures: 0,
        generations: BTreeSet::new(),
    };
    let mut conn = connect(front).ok();
    let mut last_gen = 0u64;
    for idx in lane {
        let request = &workload.schedule.requests[idx];
        let crate::schedule::Op::Query {
            symptoms,
            k,
            client,
        } = &request.op
        else {
            continue;
        };
        let target = start + Duration::from_micros(request.at_us);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        // One reconnect attempt per request: a dropped connection is a
        // transport blip, not automatically a failed request.
        if conn.is_none() {
            conn = connect(front).ok();
        }
        let ids: Vec<String> = symptoms.iter().map(ToString::to_string).collect();
        let client_name = client.map(|c| format!("c{c}"));
        let payload = match &client_name {
            Some(name) => format!(
                "{{\"symptom_ids\":[{}],\"k\":{k},\"client\":\"{name}\"}}",
                ids.join(",")
            ),
            None => format!("{{\"symptom_ids\":[{}],\"k\":{k}}}", ids.join(",")),
        };
        let t0 = Instant::now();
        let attempted = conn.is_some();
        let response = conn.as_mut().and_then(|client| client.ask(&payload).ok());
        result.executed += 1;
        // A request that never reached the wire (reconnect refused) has
        // no meaningful latency — recording its ~0 µs would deflate the
        // percentiles exactly during the chaos windows they exist to
        // describe. It still counts as executed and failed.
        if attempted {
            result.latencies.push(t0.elapsed().as_secs_f64());
        }
        match response {
            None => {
                result.failures += 1;
                conn = None; // force reconnect next request
            }
            Some(text) => match json::parse(&text) {
                Ok(resp) if resp.get("error").is_none() => {
                    if let Some(g) = resp.get("generation").and_then(Json::as_num) {
                        result.generations.insert(g as u64);
                    }
                    validation.validate(symptoms, &resp, &mut last_gen, client_name.as_deref());
                }
                _ => result.failures += 1,
            },
        }
    }
    result
}

/// One item of the control lane: write-side work (ingests, chaos)
/// executed serially on [`run`]'s own thread in arrival order. The
/// online pipeline is single-writer by design, so merging its ingests
/// with the chaos plan is the production shape — and it keeps the
/// non-`Send` pipeline off worker threads.
enum ControlItem {
    /// Index into the schedule of an ingest op.
    Ingest(usize),
    /// A chaos action.
    Chaos(ChaosAction),
}

/// A replica the chaos plan killed, as the detection timing needs it:
/// whose `eject` to look for in the router's journal, and from when.
struct Kill {
    label: String,
    addr: SocketAddr,
    at_unix_ms: u64,
}

/// Milliseconds from `kill` to the first `eject` the router journaled
/// for that replica (its wall-clock stamps, so whole milliseconds);
/// `None` when the captured journal holds no such event.
fn detect_ms(events: Option<&Json>, kill: &Kill) -> Option<f64> {
    let victim = format!("{}:", kill.addr);
    let after_kill = |event: &Json| {
        let ejected_victim = event.get("kind")?.as_str()? == "eject"
            && event.get("detail")?.as_str()?.starts_with(&victim);
        let ms = event.get("unix_ms")?.as_num()? - kill.at_unix_ms as f64;
        (ejected_victim && ms >= 0.0).then_some(ms)
    };
    let journal = events?.get("router")?.as_arr()?;
    journal.iter().filter_map(after_kill).reduce(f64::min)
}

/// Executes the merged ingest + chaos timeline; returns the ingest
/// counters, each chaos action's measured duration and the kills.
fn control_lane(
    workload: &Workload,
    stack: &mut Stack,
    start: Instant,
) -> (WorkerResult, Vec<(String, f64)>, Vec<Kill>) {
    let mut timeline: Vec<(u64, ControlItem)> = workload
        .schedule
        .ingest_lane()
        .into_iter()
        .map(|idx| {
            (
                workload.schedule.requests[idx].at_us,
                ControlItem::Ingest(idx),
            )
        })
        .chain(
            workload
                .chaos
                .iter()
                .map(|e| (e.at_us, ControlItem::Chaos(e.action))),
        )
        .collect();
    timeline.sort_by_key(|(at_us, _)| *at_us);

    let mut result = WorkerResult {
        latencies: Vec::new(),
        executed: 0,
        failures: 0,
        generations: BTreeSet::new(),
    };
    let mut timings = Vec::new();
    let mut kills = Vec::new();
    for (at_us, item) in timeline {
        let target = start + Duration::from_micros(at_us);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        match item {
            ControlItem::Ingest(idx) => {
                let crate::schedule::Op::Ingest { symptoms, herbs } =
                    &workload.schedule.requests[idx].op
                else {
                    continue;
                };
                result.executed += 1;
                let pipeline = stack.pipeline.as_mut().expect("online topology");
                if pipeline
                    .ingest_ids(symptoms.clone(), herbs.clone())
                    .is_err()
                {
                    result.failures += 1;
                }
            }
            ControlItem::Chaos(action) => {
                let t0 = Instant::now();
                match action {
                    ChaosAction::KillReplica(i) => {
                        if let Some(victim) = stack.replicas.get_mut(i).and_then(Option::take) {
                            kills.push(Kill {
                                label: action.describe(),
                                addr: victim.addr(),
                                at_unix_ms: unix_ms_now(),
                            });
                            victim.shutdown().expect("victim loop");
                        }
                    }
                    ChaosAction::RollingPublish { tag } => {
                        let model = synthetic_frozen(N_SYMPTOMS, N_HERBS, DIM, tag);
                        let vocab = synthetic_vocab(N_SYMPTOMS, N_HERBS, tag);
                        let artifact = smgcn_serve::artifact::encode(&model, &vocab);
                        let b64 = smgcn_serve::artifact::to_base64(&artifact);
                        // Through the router so the fleet-serializing
                        // path is the one exercised.
                        let ack = admin_rpc(
                            stack.front(),
                            &smgcn_serve::artifact::publish_line(b64, None),
                        );
                        assert!(
                            ack.as_ref().is_some_and(|a| a.get("error").is_none()),
                            "rolling publish through the router failed: {ack:?}"
                        );
                    }
                    ChaosAction::Refresh => {
                        stack
                            .pipeline
                            .as_mut()
                            .expect("online topology")
                            .refresh()
                            .expect("refresh succeeds");
                    }
                    ChaosAction::CorruptPublish { tag } => {
                        let model = synthetic_frozen(N_SYMPTOMS, N_HERBS, DIM, tag);
                        let vocab = synthetic_vocab(N_SYMPTOMS, N_HERBS, tag);
                        let mut artifact = smgcn_serve::artifact::encode(&model, &vocab);
                        // One flipped bit mid-payload: the frame CRCs
                        // must catch it on every replica.
                        let mid = artifact.len() / 2;
                        artifact[mid] ^= 0x40;
                        let b64 = smgcn_serve::artifact::to_base64(&artifact);
                        let ack = admin_rpc(
                            stack.front(),
                            &smgcn_serve::artifact::publish_line(b64, None),
                        );
                        assert!(
                            ack.as_ref().is_some_and(|a| {
                                a.get("aborted") == Some(&Json::Bool(true))
                                    && a.get("published").and_then(Json::as_num) == Some(0.0)
                            }),
                            "a corrupt publish must abort with zero replicas published: {ack:?}"
                        );
                    }
                    ChaosAction::CandidatePublish { tag } => {
                        let model = synthetic_frozen(N_SYMPTOMS, N_HERBS, DIM, tag);
                        let vocab = synthetic_vocab(N_SYMPTOMS, N_HERBS, tag);
                        let artifact = smgcn_serve::artifact::encode(&model, &vocab);
                        let b64 = smgcn_serve::artifact::to_base64(&artifact);
                        let line = smgcn_serve::artifact::publish_line(b64, Some(CANDIDATE));
                        let ack = admin_rpc(stack.front(), &line);
                        assert!(
                            ack.as_ref().is_some_and(|a| a.get("error").is_none()
                                && a.get("aborted") != Some(&Json::Bool(true))),
                            "candidate publish through the router failed: {ack:?}"
                        );
                    }
                    ChaosAction::InstallSplit { candidate_percent } => {
                        let ack = admin_rpc(
                            stack.front(),
                            &format!(
                                "{{\"op\":\"experiment\",\"action\":\"install\",\
                                 \"weights\":\"control:{},{CANDIDATE}:{candidate_percent}\"}}",
                                100 - candidate_percent
                            ),
                        );
                        assert!(
                            ack.as_ref()
                                .is_some_and(|a| a.get("installed") == Some(&Json::Bool(true))),
                            "split install through the router failed: {ack:?}"
                        );
                    }
                    ChaosAction::HaltSplit => {
                        let ack =
                            admin_rpc(stack.front(), "{\"op\":\"experiment\",\"action\":\"halt\"}");
                        assert!(
                            ack.as_ref()
                                .is_some_and(|a| a.get("halted") == Some(&Json::Bool(true))),
                            "split halt through the router failed: {ack:?}"
                        );
                    }
                }
                timings.push((action.describe(), t0.elapsed().as_secs_f64() * 1e3));
            }
        }
    }
    (result, timings, kills)
}

/// Runs one planned workload end to end and returns the report.
pub fn run(workload: &Workload) -> ScenarioReport {
    let summary = WorkloadSummary::from_workload(workload);
    // Installed before the stack comes up so even boot-time traffic sits
    // under the plan. The plan is process-global: scenario runs with a
    // fault plan belong in their own test binary.
    if let Some(plan) = &workload.fault_plan {
        smgcn_faults::install(plan);
    }
    let mut stack = Stack::build(workload);
    let metrics_before = fetch_admin(stack.front(), "metrics");
    // The retention layer: a scraper polls the front-end's metrics on
    // the scenario's cadence, appending each snapshot to an in-memory
    // tsdb — both the queryable index (for post-hoc burn-rate alert
    // evaluation) and the exact byte encoding a file-backed tsdb would
    // have persisted (shipped in the report for `smgcn query`).
    let history = Arc::new(Mutex::new(TsdbHistory::new()));
    let scraper = {
        let history = Arc::clone(&history);
        let front = stack.front();
        Scraper::spawn(
            Duration::from_millis(scrape_interval_ms(workload.config.measure_ms)),
            Box::new(move || {
                let (_, snap) = fetch_admin(front, "metrics")?;
                let inner = snap.get("merged").or_else(|| snap.get("metrics"))?;
                Some(flatten_metrics_json(inner))
            }),
            Box::new(move |at_ms, samples| {
                history
                    .lock()
                    .expect("tsdb history lock")
                    .append(at_ms, samples);
            }),
        )
    };
    let validation = Arc::new(Validation::plan(workload));
    let workload = Arc::new(workload.clone());
    let lanes = workload.schedule.query_lanes(workload.config.workers);

    let run_start = Instant::now();
    let mut handles: Vec<JoinHandle<WorkerResult>> = Vec::new();
    for lane in lanes.into_iter().filter(|l| !l.is_empty()) {
        let workload = Arc::clone(&workload);
        let validation = Arc::clone(&validation);
        let front = stack.front();
        handles.push(std::thread::spawn(move || {
            query_worker(workload, lane, front, validation, run_start)
        }));
    }

    // The storm cohort rides beside the query lanes on its own thread:
    // it dials the full fleet, holds every connection open until the
    // horizon, and returns its own executed/failure ledger. Its
    // latencies never enter the percentile lane — the steady schedule
    // above is what the p99 budget judges.
    let storm_handle = workload.storm.map(|spec| {
        let front = stack.front();
        let hold_until = run_start + Duration::from_millis(workload.config.measure_ms);
        std::thread::spawn(move || crate::storm::run(front, &spec, hold_until))
    });

    let (control_result, mut chaos_timings, kills) = control_lane(&workload, &mut stack, run_start);

    let mut latencies = Vec::new();
    let mut executed = control_result.executed;
    let mut failures = control_result.failures;
    let mut generations = BTreeSet::new();
    for handle in handles {
        let result = handle.join().expect("worker thread");
        latencies.extend(result.latencies);
        executed += result.executed;
        failures += result.failures;
        generations.extend(result.generations);
    }
    let storm = storm_handle.map(|handle| handle.join().expect("storm thread"));
    let mut storm_failures = Vec::new();
    if let (Some(storm), Some(spec)) = (&storm, &workload.storm) {
        executed += storm.executed;
        failures += storm.failures;
        storm_failures = spec.violations(storm);
    }
    let wall_s = run_start.elapsed().as_secs_f64();
    let (p50_us, p99_us) = percentiles_us(&mut latencies);
    // Stop lands one final scrape (terminal counter state), then the
    // client-observed summary goes in as its own series: the history
    // alone can reproduce the report's headline latency numbers.
    scraper.stop();
    history.lock().expect("tsdb history lock").append(
        unix_ms_now(),
        &[
            ("client_latency_ms.p50".to_string(), p50_us / 1e3),
            ("client_latency_ms.p99".to_string(), p99_us / 1e3),
            ("client_requests_total".to_string(), executed as f64),
            ("client_failures_total".to_string(), failures as f64),
        ],
    );
    let metrics_after = fetch_admin(stack.front(), "metrics");
    let events_after = fetch_admin(stack.front(), "events");
    let profile_after = fetch_admin(stack.front(), "profile");
    // Failover detection is the router's own record: the kill → first
    // `eject` interval, read from the journal captured just above.
    for kill in &kills {
        match detect_ms(events_after.as_ref().map(|(_, parsed)| parsed), kill) {
            Some(ms) => chaos_timings.push((format!("{}-detect", kill.label), ms)),
            None => validation.violation(format!(
                "{}: the router journaled no eject of {} after the kill",
                kill.label, kill.addr
            )),
        }
    }
    // Experiment scenarios also capture the fleet's A/B comparison
    // report (per-variant rates + interleaving verdict) before teardown
    // — duel samples and variant counters survive the halt, so the
    // report covers the whole split window.
    let experiment_after = workload
        .chaos
        .iter()
        .any(|e| matches!(e.action, ChaosAction::InstallSplit { .. }))
        .then(|| {
            fetch_admin_line(
                stack.front(),
                "{\"op\":\"experiment\",\"action\":\"compare\"}",
            )
        })
        .flatten();
    let faults_injected = if workload.fault_plan.is_some() {
        let n = smgcn_faults::injected_total();
        smgcn_faults::clear();
        n
    } else {
        0
    };
    stack.teardown();

    let routed = matches!(workload.topology, Topology::Routed { .. });
    let (deltas, cache_hit_rate, counter_errs) = match (&metrics_before, &metrics_after) {
        (Some((_, before)), Some((_, after))) => {
            let deltas = counter_deltas(before, after);
            let hits = delta_of(&deltas, "serve_cache_hits_total");
            let lookups = hits + delta_of(&deltas, "serve_cache_misses_total");
            let rate = if lookups > 0.0 { hits / lookups } else { 0.0 };
            let errs = counter_errors(&deltas, routed);
            (deltas, rate, Some(errs))
        }
        _ => (Vec::new(), 0.0, None),
    };

    // The alert contract: replay the scenario's burn-rate rules over
    // the scraped history, then diff what fired against expectations.
    let history = Arc::try_unwrap(history)
        .unwrap_or_else(|_| panic!("scraper stopped: history has one owner"))
        .into_inner()
        .expect("tsdb history lock");
    let alerts = evaluate_series(&workload.alerts.rules, &history.data);
    let mut alerts_fired: Vec<String> = alerts.iter().map(|a| a.rule.clone()).collect();
    alerts_fired.sort();
    alerts_fired.dedup();
    let mut alert_failures = Vec::new();
    for name in &workload.alerts.expect_fired {
        if !alerts_fired.iter().any(|f| f == name) {
            alert_failures.push(format!(
                "rule {name:?} was expected to fire and stayed silent over \
                 {} scraped record(s)",
                history.records
            ));
        }
    }
    for name in &workload.alerts.expect_silent {
        if alerts_fired.iter().any(|f| f == name) {
            let firings = alerts.iter().filter(|a| &a.rule == name).count();
            alert_failures.push(format!(
                "rule {name:?} was expected to stay silent and fired {firings} time(s)"
            ));
        }
    }
    let tsdb = (history.records > 0).then_some(history.bytes);

    let max_ms = latencies.iter().copied().fold(0.0f64, f64::max) * 1e3;
    let violations = validation
        .violations
        .lock()
        .expect("violations lock")
        .clone();
    let measured = Measured {
        executed,
        failures,
        wall_ms: wall_s * 1e3,
        qps: latencies.len() as f64 / wall_s.max(1e-9),
        p50_ms: p50_us / 1e3,
        p99_ms: p99_us / 1e3,
        max_ms,
        generations_seen: generations.into_iter().collect(),
        chaos_timings,
        workers: workload.config.workers,
        counter_deltas: deltas,
        cache_hit_rate,
        faults_injected,
        alerts_fired,
        alert_firings: alerts.len(),
        storm_peak_open: storm.map(|s| s.peak_open),
    };
    let verdict = evaluate(
        &workload.slo,
        &SloInputs {
            executed,
            scheduled: workload.schedule.requests.len(),
            failures,
            p99_ms: measured.p99_ms,
            counter_errors: counter_errs,
            violations,
            alert_failures,
            storm_failures,
        },
    );
    ScenarioReport {
        workload: summary,
        measured,
        verdict,
        metrics_json: metrics_after.map(|(raw, _)| raw),
        events_json: events_after.map(|(raw, _)| raw),
        tsdb,
        profile_json: profile_after.map(|(raw, _)| raw),
        experiment_json: experiment_after.map(|(raw, _)| raw),
    }
}

/// Builds and runs `kind` under `config` in one call.
pub fn run_scenario(
    kind: ScenarioKind,
    config: &crate::scenario::ScenarioConfig,
) -> ScenarioReport {
    run(&crate::scenario::build(kind, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_the_victims_first_eject_after_the_kill() {
        let kill = Kill {
            label: "kill-replica-0".to_string(),
            addr: "127.0.0.1:4001".parse().unwrap(),
            at_unix_ms: 1_000,
        };
        let journal = |events: &[(&str, u64, &str)]| {
            let events = events.iter().map(|(kind, at, detail)| {
                json::obj([
                    ("unix_ms", Json::Num(*at as f64)),
                    ("kind", Json::Str(kind.to_string())),
                    ("detail", Json::Str(detail.to_string())),
                ])
            });
            json::obj([("router", Json::Arr(events.collect()))])
        };
        let seen = journal(&[
            ("eject", 900, "127.0.0.1:4001: transport"), // before the kill
            ("eject", 1_004, "127.0.0.1:4002: transport"), // another replica
            ("recover", 1_005, "127.0.0.1:4001"),
            ("eject", 1_007, "127.0.0.1:4001: probe"),
            ("eject", 1_300, "127.0.0.1:4001: transport"),
        ]);
        assert_eq!(detect_ms(Some(&seen), &kill), Some(7.0));
        // No eject of the victim after the kill, or no journal at all:
        // the caller turns `None` into an SLO violation, never a 0.
        let unseen = journal(&[("eject", 1_004, "127.0.0.1:4002: transport")]);
        assert_eq!(detect_ms(Some(&unseen), &kill), None);
        assert_eq!(detect_ms(None, &kill), None);
    }
}
