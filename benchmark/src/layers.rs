//! The traced run's in-process replay of the serving path. A sampled
//! request's own line goes through the layer functions in the order the
//! server calls them (parse, key and cache, batcher, encode), each call
//! inside a span under the client span of the request it replays.
//!
//! Only public entry points are called, results are sunk through
//! `black_box` (inside [`Tracer::time`]) and never given a type, and
//! configs come from `Default`, so the program may change what these
//! functions return without breaking the benchmark. `conn.rs` and the
//! reactor are reached over the wire only: what the spans here do not
//! cover is reported as `serve.server.unattributed_us`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use smgcn_cluster::{key_of_ids, HashRing, PoolConfig, ReplicaConn, RouterConfig};
use smgcn_serve::cache::QueryKey;
use smgcn_serve::{
    artifact, json, Batcher, BatcherConfig, GenerationalCache, ModelSlot, ServerConfig,
};

use crate::gen::{Weights, K};
use crate::measure::Outcome;
use crate::stats::median;
use crate::tcp::{Inputs, Kind};
use crate::trace::{median_self_ns, Span, Tracer};

/// How often each of the two publish lines is replayed.
const PUBLISH_ROUNDS: usize = 4;

/// A traced request picked for replay.
pub struct Picked<'a> {
    pub ids: &'a [u32],
    pub line: String,
    pub reply: &'a str,
    /// The `client.request` span the replay hangs under.
    pub root: u32,
    pub request: u64,
}

/// The model slot and batcher the replay threads share, as the server's
/// workers share theirs.
pub struct Served {
    slot: Arc<ModelSlot>,
    batcher: Batcher,
}

impl Served {
    pub fn start(weights: &Weights) -> Self {
        let slot = Arc::new(ModelSlot::new(weights.frozen(), weights.vocab()));
        Self {
            batcher: Batcher::start_slot(Arc::clone(&slot), BatcherConfig::default()),
            slot,
        }
    }
}

/// What the batcher said about each replayed score (`ScoreTimings`).
#[derive(Default)]
pub struct ScoreStages {
    queue_us: Vec<f64>,
    batch_us: Vec<f64>,
    batch_size: Vec<f64>,
}

impl ScoreStages {
    pub fn merge(&mut self, other: Self) {
        self.queue_us.extend(other.queue_us);
        self.batch_us.extend(other.batch_us);
        self.batch_size.extend(other.batch_size);
    }
}

pub struct Replay {
    pub spans: Vec<Span>,
    pub stages: ScoreStages,
}

/// Replays `picked` on this thread. Requests for hot sets take the hit
/// path, the others the miss path; `Routed` adds the router's ring
/// lookup and a round trip to the live `replica`. `tracer` is on the
/// clock of the client spans it hangs the replay under.
pub fn replay_requests(
    served: &Served,
    inputs: &Inputs,
    picked: Vec<Picked>,
    replica: SocketAddr,
    mut tracer: Tracer,
) -> Replay {
    let mut stages = ScoreStages::default();
    let pinned = served.slot.load();
    let generation = pinned.number;
    let hit_path = inputs.hot_path();

    // A cache as full as the server's, so an insert evicts.
    let capacity = ServerConfig::default().cache_capacity;
    let mut cache = GenerationalCache::new(capacity);
    for filler in 0..capacity as u32 {
        cache.insert(
            QueryKey::new(&[filler, u32::MAX], K),
            generation,
            vec![0u32; K],
        );
    }
    if hit_path {
        for q in &inputs.hot {
            cache.insert(QueryKey::new(&q.ids, K), generation, vec![0u32; K]);
        }
    }
    let ring = HashRing::with_replicas(2, RouterConfig::default().vnodes);
    let mut upstream = (inputs.kind == Kind::Routed).then(|| {
        ReplicaConn::connect(replica, &PoolConfig::default()).expect("connect to the replica")
    });

    for p in picked {
        let (ids, line) = (p.ids, p.line.trim_end());
        let reply_tree = json::parse(p.reply).expect("the reply was JSON");
        let parent = tracer.reserve();
        let under = Some(parent);
        let start = Instant::now();
        let _ = tracer.time("serve.json.parse", under, p.request, || json::parse(line));
        if let Some(upstream) = upstream.as_mut() {
            tracer.time("cluster.ring.route", under, p.request, || {
                let mut sorted = ids.to_vec();
                sorted.sort_unstable();
                ring.route(key_of_ids(&sorted))
            });
            let _ = tracer.time("cluster.pool.round_trip", under, p.request, || {
                upstream.round_trip(line)
            });
        }
        if hit_path {
            tracer.time("serve.cache.get_hit", under, p.request, || {
                let key = QueryKey::new(ids, K);
                cache.get(&key, generation).is_some()
            });
        } else {
            let key = tracer.time("serve.cache.get_miss", under, p.request, || {
                let key = QueryKey::new(ids, K);
                std::hint::black_box(cache.get(&key, generation).is_some());
                key
            });
            let scored = tracer.time("serve.batcher.call", under, p.request, || {
                served
                    .batcher
                    .recommend_pinned_timed(ids, K, Arc::clone(&pinned))
            });
            let (ranking, _, timings) = scored.expect("a replayed query scores");
            stages.queue_us.push(timings.queue_us as f64);
            stages.batch_us.push(timings.batch_us as f64);
            stages.batch_size.push(timings.batch_size as f64);
            tracer.time("serve.cache.insert", under, p.request, || {
                cache.insert(key, generation, ranking)
            });
        }
        tracer.time("serve.json.encode", under, p.request, || {
            reply_tree.to_string()
        });
        tracer.close(
            parent,
            "replay.request",
            Some(p.root),
            p.request,
            start,
            Instant::now(),
        );
    }
    Replay {
        spans: tracer.spans,
        stages,
    }
}

/// The write path of the publishing workloads, stage by stage, on the
/// very lines the publisher sent. Returns the spans and the artifact's
/// size.
pub fn replay_publishes(inputs: &Inputs, mut tracer: Tracer) -> (Vec<Span>, usize) {
    let slot = ModelSlot::new(inputs.models[0].frozen(), inputs.models[0].vocab());
    let mut bytes_len = 0;
    for round in 0..PUBLISH_ROUNDS {
        for (i, line) in inputs.publish_lines.iter().enumerate() {
            let request = (round * inputs.publish_lines.len() + i) as u64;
            let parent = tracer.reserve();
            let under = Some(parent);
            let start = Instant::now();
            let _ = tracer.time("serve.json.parse_publish", under, request, || {
                json::parse(line)
            });
            let text = line
                .split('"')
                .nth(7)
                .expect("the artifact is the fourth string of the publish line");
            let bytes = tracer
                .time("serve.artifact.b64_decode", under, request, || {
                    artifact::from_base64(text)
                })
                .expect("the artifact is base64");
            bytes_len = bytes.len();
            let _ = tracer.time("serve.artifact.decode", under, request, || {
                artifact::decode(&bytes)
            });
            let _ = tracer.time("serve.slot.publish", under, request, || {
                slot.publish_bytes(&bytes)
            });
            let weights = &inputs.models[i];
            let (model, vocab) = (weights.frozen(), weights.vocab());
            tracer.time("serve.artifact.encode", under, request, || {
                artifact::encode(&model, &vocab)
            });
            tracer.close(
                parent,
                "replay.publish",
                None,
                request,
                start,
                Instant::now(),
            );
        }
    }
    (tracer.spans, bytes_len)
}

/// Per-layer metrics that are the median self time of one span name:
/// metric, span, nanoseconds per unit.
const FROM_SPANS: [(&str, &str, f64); 14] = [
    ("serve.json.parse_ns", "serve.json.parse", 1.0),
    ("serve.json.encode_ns", "serve.json.encode", 1.0),
    (
        "serve.json.parse_publish_ms",
        "serve.json.parse_publish",
        1e6,
    ),
    ("serve.cache.get_hit_ns", "serve.cache.get_hit", 1.0),
    ("serve.cache.get_miss_ns", "serve.cache.get_miss", 1.0),
    ("serve.cache.insert_ns", "serve.cache.insert", 1.0),
    ("serve.batcher.call_us", "serve.batcher.call", 1e3),
    ("serve.artifact.encode_ms", "serve.artifact.encode", 1e6),
    (
        "serve.artifact.b64_decode_ms",
        "serve.artifact.b64_decode",
        1e6,
    ),
    ("serve.artifact.decode_ms", "serve.artifact.decode", 1e6),
    ("serve.slot.publish_ms", "serve.slot.publish", 1e6),
    ("cluster.ring.route_ns", "cluster.ring.route", 1.0),
    ("cluster.pool.round_trip_us", "cluster.pool.round_trip", 1e3),
    ("serve.frozen.load_ms", "serve.frozen.load", 1e6),
];

pub fn report(spans: &[Span], stages: &ScoreStages, outcome: &mut Outcome) {
    for (metric, span, ns_per_unit) in FROM_SPANS {
        outcome.layer(metric, median_self_ns(spans, span) / ns_per_unit);
    }
    if !stages.queue_us.is_empty() {
        outcome.layer("serve.batcher.queue_us", median(&stages.queue_us));
        outcome.layer("serve.batcher.batch_us", median(&stages.batch_us));
        outcome.layer("serve.batcher.batch_size", median(&stages.batch_size));
    }
}
