//! The replica TCP server (`smgcn serve`).
//!
//! Std-only: a nonblocking `TcpListener` driven by the readiness
//! [`Reactor`](crate::reactor) — one event-loop thread owns every
//! socket, a fixed worker pool runs the handlers. The wire protocol is
//! newline-delimited JSON — one request object per line, one response
//! object per line:
//!
//! ```text
//! -> {"symptoms": ["s12", "s3"], "k": 10}
//! -> {"symptom_ids": [12, 3], "k": 5}
//! <- {"herb_ids":[...], "herbs":[...], "scores":[...], "cached":false,
//!     "generation":0, "micros":184}
//! -> {"op": "stats"}
//! <- {"generation":2, "uptime_s":12.5, "requests":840, "cache":{…}, …}
//! <- {"error":{"code":"unknown_symptom","message":"unknown symptom \"xyz\""}}
//! ```
//!
//! Request flow per line: pin the current model [`Generation`] → resolve
//! names against its vocabulary → validate (duplicate / out-of-range ids
//! are structured errors, they never reach the scorer) → canonical
//! [`QueryKey`] → generation-tagged LRU lookup → on miss, score through
//! the shared [`Batcher`] (packing concurrent queries into one GEMM) →
//! insert into the cache tagged with the generation that scored. The
//! cache is keyed by the *sorted* symptom-id set, so permutations of the
//! same clinic presentation share an entry; a hot model swap invalidates
//! entries lazily through the tag rather than flushing under the lock.
//!
//! Telemetry: `ServeObs::new` registers every serving metric, each fact
//! once. An error answer, a `deadline_exceeded` shed included, is one
//! `serve_errors_total{code=…}` increment, and
//! `{"op":"stats"}` reads its counters from the same registry.

use std::collections::HashMap;
use std::fmt;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smgcn_obs::{
    mint_trace_id, Counter, EventJournal, LatencyHistogram, ProfileHandle, Profiler, Registry,
    Sample, SampleValue, SpanRecord, TraceBuilder,
};

use smgcn_experiment::CONTROL;

use crate::batcher::{Batcher, BatcherConfig};
use crate::cache::QueryKey;
use crate::client::LineClient;
use crate::errors::codes;
use crate::frozen::{FrozenError, FrozenModel};
use crate::json::{self, Json};
use crate::ops::{deadline_budget, trace_json, AdminOp, ApiError, OpHandler};
use crate::reactor::{Reactor, Service};
use crate::slot::{Generation, ModelSlot};
use crate::variants::{DuelSample, VariantEntry, VariantTable};
use smgcn_tensor::partial_top_k;

/// Name/id mappings for the serving protocol. Decoupled from
/// `smgcn-data`'s corpus vocabulary so the serve crate stays free of
/// training-side dependencies; the CLI builds one from the corpus.
#[derive(Clone, Debug, Default)]
pub struct ServingVocab {
    symptom_names: Vec<String>,
    herb_names: Vec<String>,
    symptom_index: HashMap<String, u32>,
}

impl ServingVocab {
    /// Builds the vocab from parallel name lists (index = id).
    pub fn new(symptom_names: Vec<String>, herb_names: Vec<String>) -> Self {
        let symptom_index = symptom_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        Self {
            symptom_names,
            herb_names,
            symptom_index,
        }
    }

    /// Resolves a symptom name to its id.
    pub fn symptom_id(&self, name: &str) -> Option<u32> {
        self.symptom_index.get(name).copied()
    }

    /// The display name of a herb id, or the numeric id when unnamed.
    pub fn herb_name(&self, id: u32) -> String {
        self.herb_names
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| id.to_string())
    }

    /// True when no names were provided (ids-only protocol).
    pub fn is_empty(&self) -> bool {
        self.symptom_names.is_empty() && self.herb_names.is_empty()
    }

    /// All symptom names, index = id (used by the publish artifact).
    pub fn symptom_names(&self) -> &[String] {
        &self.symptom_names
    }

    /// All herb names, index = id (used by the publish artifact).
    pub fn herb_names(&self) -> &[String] {
        &self.herb_names
    }
}

/// Ranking depth when a request omits `k`.
const DEFAULT_K: usize = 10;

/// Upper bound on a requested `k` (guards allocation per request).
const MAX_K: usize = 100;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrent connections (connections beyond the cap get
    /// a one-line JSON error and are closed). The reactor bounds this
    /// by file descriptors, not threads, so tens of thousands of
    /// persistent connections are fine; the worker pool — not this
    /// cap — bounds the largest possible micro-batch.
    pub max_connections: usize,
    /// LRU entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Experiment duel sampling: for one in every `duel_sample_every`
    /// requests served by a *candidate* variant, score the same query
    /// under control too and journal both top-k lists (with scores) for
    /// the router's interleaving comparison. 0 disables duels.
    pub duel_sample_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            cache_capacity: 4096,
            duel_sample_every: 8,
        }
    }
}

/// The serving side of the telemetry plane: the registry plus
/// pre-registered hot-path handles, the event journal, and the
/// continuous profiler with one stack per ranking phase.
pub(crate) struct ServeObs {
    pub(crate) registry: Arc<Registry>,
    pub(crate) events: Arc<EventJournal>,
    pub(crate) requests: Counter,
    /// Connections refused at the accept loop (`overloaded`).
    pub(crate) sheds: Counter,
    /// Per-request wall time, request line in to response object out.
    pub(crate) latency: Arc<LatencyHistogram>,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) publishes: Counter,
    /// Publish artifacts rejected before touching the live generation
    /// (bad base64, bad magic/version, checksum mismatch, bad payload).
    pub(crate) publish_rejected: Counter,
    pub(crate) batch_size: Arc<LatencyHistogram>,
    pub(crate) queue_wait_us: Arc<LatencyHistogram>,
    pub(crate) gemm_us: Arc<LatencyHistogram>,
    pub(crate) topk_us: Arc<LatencyHistogram>,
    /// The continuous profiler behind `{"op":"profile"}`; the handles
    /// below keep the hot path at one relaxed add per phase.
    pub(crate) profiler: Profiler,
    /// Each phase a ranking can pass through, with its stack.
    stacks: [(Phase, ProfileHandle); 9],
    /// Admin verbs and error paths: wall time that is measured by the
    /// latency histogram but has no ranking-phase breakdown.
    other: ProfileHandle,
}

impl ServeObs {
    fn new() -> Self {
        let registry = Arc::new(Registry::new());
        // Register the gauges eagerly so fleet snapshots always carry
        // the full name set, even before the first request.
        registry.gauge("serve_generation");
        registry.gauge("serve_cache_stale");
        let profiler = Profiler::new();
        let stack = |phase: Phase, frames: &[&str]| (phase, profiler.node(frames));
        Self {
            requests: registry.counter("serve_requests_total"),
            sheds: registry.counter("serve_sheds_total"),
            latency: registry.histogram("serve_latency_us"),
            cache_hits: registry.counter("serve_cache_hits_total"),
            cache_misses: registry.counter("serve_cache_misses_total"),
            publishes: registry.counter("serve_publishes_total"),
            publish_rejected: registry.counter("serve_publish_rejected_total"),
            batch_size: registry.histogram("serve_batch_size"),
            queue_wait_us: registry.histogram("serve_batch_queue_wait_us"),
            gemm_us: registry.histogram("serve_gemm_us"),
            topk_us: registry.histogram("serve_topk_us"),
            stacks: [
                stack(Phase::Parse, &["serve", "request", "parse"]),
                stack(Phase::Resolve, &["serve", "request", "resolve"]),
                stack(Phase::CacheHit, &["serve", "request", "cache_hit"]),
                stack(Phase::CacheMiss, &["serve", "request", "cache_miss"]),
                stack(Phase::Queue, &["serve", "request", "score", "queue"]),
                stack(Phase::Batch, &["serve", "request", "score", "batch"]),
                stack(Phase::Gemm, &["serve", "request", "score", "gemm"]),
                stack(Phase::Topk, &["serve", "request", "score", "topk"]),
                stack(Phase::Respond, &["serve", "request", "respond"]),
            ],
            other: profiler.node(&["serve", "request", "other"]),
            profiler,
            events: Arc::new(EventJournal::new(256)),
            registry,
        }
    }
}

/// One stretch of a request's time on the replica, in the order a
/// ranking passes through them. Every request keeps one list of these
/// from line arrival, closed by a single clock read; that list is what
/// `serve_latency_us`, the profile and a requested trace all read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Parse,
    /// Name resolution, validation and canonicalisation.
    Resolve,
    CacheHit,
    CacheMiss,
    /// The batcher's stages (see [`crate::batcher::ScoreTimings`]).
    Queue,
    Batch,
    Gemm,
    Topk,
    /// Everything after scoring, up to the clock read that closes the
    /// list: cache insert, response assembly.
    Respond,
    /// The request failed with this code; closes the list in place of
    /// `Respond`.
    Error(&'static str),
}

/// The span name in a requested trace.
impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Parse => "parse",
            Phase::Resolve => "resolve",
            Phase::CacheHit => "cache_hit",
            Phase::CacheMiss => "cache_miss",
            Phase::Queue => "queue",
            Phase::Batch => "batch",
            Phase::Gemm => "gemm",
            Phase::Topk => "topk",
            Phase::Respond => "respond",
            Phase::Error(code) => return write!(f, "error:{code}"),
        })
    }
}

/// The replica's request-handling core: batcher, variant table and
/// telemetry. Shared across the reactor's worker threads; the
/// admin-verb bodies live in [`crate::ops`].
pub(crate) struct Engine {
    pub(crate) batcher: Batcher,
    /// Every model slot with its cache: control first, then the
    /// experiment's candidates, with the split plan and duel journal.
    pub(crate) variants: VariantTable,
    pub(crate) config: ServerConfig,
    pub(crate) started: Instant,
    pub(crate) obs: ServeObs,
}

impl Engine {
    /// Answers one canonical query from `entry`, consulting its cache
    /// first. Returns `(ranking, generation that produced it,
    /// was_cache_hit)` — the single-generation invariant: ranking,
    /// reported generation and (in the caller) herb names all come from
    /// the same [`Generation`]. The entry's labeled counters tick only
    /// when an experiment is `in_play`. The cache outcome, and on a miss
    /// the batcher's stages, go onto `phases`.
    fn rank(
        &self,
        entry: &VariantEntry,
        pinned: &Arc<Generation>,
        key: QueryKey,
        deadline: Option<Instant>,
        in_play: bool,
        phases: &mut TraceBuilder<Phase>,
    ) -> Result<(Vec<u32>, Arc<Generation>, bool), ApiError> {
        let k = key.k;
        if let Some(cache) = &entry.cache {
            let hit = cache
                .lock()
                .expect("cache lock")
                .get(&key, pinned.number)
                .cloned();
            if let Some(hit) = hit {
                phases.cover_to_now(Phase::CacheHit);
                self.obs.cache_hits.inc();
                if in_play {
                    entry.obs.cache_hits.inc();
                }
                return Ok((hit, Arc::clone(pinned), true));
            }
        }
        phases.cover_to_now(Phase::CacheMiss);
        self.obs.cache_misses.inc();
        if in_play {
            entry.obs.cache_misses.inc();
        }
        // Scoring keeps the request's pin: the batcher scores with
        // exactly this generation's weights (grouping per generation at
        // drain), so ids resolved/validated above can never be scored
        // against a different vocabulary published mid-request.
        let (ranking, generation, timings) = self
            .batcher
            .recommend_pinned_deadline(&key.symptoms, k, Arc::clone(pinned), deadline)
            .map_err(|e| match e {
                FrozenError::DeadlineExceeded(m) => {
                    self.obs
                        .events
                        .record("deadline_shed", "deadline_ms expired before scoring");
                    ApiError::new(codes::DEADLINE_EXCEEDED, m)
                }
                other => ApiError::new(codes::SCORING_FAILED, other.to_string()),
            })?;
        // The batcher's stages, back to back; the hand-offs around them
        // fall to `respond`.
        phases.push(Phase::Queue, timings.queue_us);
        phases.push(Phase::Batch, timings.batch_us);
        phases.push(Phase::Gemm, timings.gemm_us);
        phases.push(Phase::Topk, timings.topk_us);
        self.obs.queue_wait_us.record(timings.queue_us);
        self.obs.gemm_us.record(timings.gemm_us);
        self.obs.topk_us.record(timings.topk_us);
        self.obs.batch_size.record(timings.batch_size as u64);
        if let Some(cache) = &entry.cache {
            cache
                .lock()
                .expect("cache lock")
                .insert(key, generation.number, ranking.clone());
        }
        Ok((ranking, generation, false))
    }

    /// Books one request's closed phase list: `serve_latency_us` takes
    /// its total, and the profile either each phase under its own stack
    /// (a ranking) or the whole under `other`.
    fn book(&self, phases: &[SpanRecord<Phase>], ranked: bool) {
        let wall_us = phases.iter().map(|s| s.dur_us).sum();
        let obs = &self.obs;
        obs.latency.record(wall_us);
        if !ranked {
            obs.other.add(wall_us);
            return;
        }
        for span in phases {
            if let Some((_, stack)) = obs.stacks.iter().find(|(p, _)| *p == span.name) {
                stack.add(span.dur_us);
            }
        }
    }

    fn handle_line(&self, line: &str, conn_key: &str) -> Json {
        let started = Instant::now();
        self.obs.requests.inc();
        let mut phases = TraceBuilder::new(started);
        let mut trace_id = None;
        let answer = self.answer(line, conn_key, started, &mut phases, &mut trace_id);
        // `booked` is `Some(ranked)` for a request that enters latency
        // and profile. Admin publishes (base64 decode + full model
        // deserialize) are orders of magnitude above any serving op;
        // booking them would spike the p99 the router's slow-replica
        // ejection reads, getting a replica ejected for the crime of
        // taking a rollout.
        let (mut response, close, booked) = match answer {
            Ok(Answer::Ranking {
                ids,
                scores,
                cached,
                generation,
                variant,
            }) => {
                let mut fields = vec![
                    ("herb_ids", json::id_array(&ids)),
                    ("cached", Json::Bool(cached)),
                    ("generation", Json::Num(generation.number as f64)),
                    ("micros", Json::Num(started.elapsed().as_micros() as f64)),
                ];
                if let Some(variant) = variant {
                    fields.push(("variant", Json::Str(variant)));
                }
                if !generation.vocab.is_empty() {
                    fields.push((
                        "herbs",
                        Json::Arr(
                            ids.iter()
                                .map(|&h| Json::Str(generation.vocab.herb_name(h)))
                                .collect(),
                        ),
                    ));
                }
                if let Some(scores) = scores {
                    fields.push(("scores", json::score_array(&scores)));
                }
                (json::obj(fields), Phase::Respond, Some(true))
            }
            Ok(Answer::Stats(stats)) => (stats, Phase::Respond, Some(false)),
            Ok(Answer::Publish(ack)) => (ack, Phase::Respond, None),
            Err(e) => {
                self.obs
                    .registry
                    .counter_labeled("serve_errors_total", &[("code", e.code)])
                    .inc();
                (e.to_json(), Phase::Error(e.code), Some(false))
            }
        };
        phases.cover_to_now(close);
        if let Some(ranked) = booked {
            self.book(phases.spans(), ranked);
        }
        if let (Some(trace_id), Json::Obj(map)) = (trace_id, &mut response) {
            map.insert("trace".to_string(), trace_json(&trace_id, phases.spans()));
        }
        response
    }

    /// Parses and answers one request line, putting its phases onto
    /// `phases` and, when the client sent `"trace": true`, the id its
    /// trace goes back under into `trace_id` (the client's own, or
    /// minted here).
    fn answer(
        &self,
        line: &str,
        conn_key: &str,
        started: Instant,
        phases: &mut TraceBuilder<Phase>,
        trace_id: &mut Option<String>,
    ) -> Result<Answer, ApiError> {
        let req = json::parse(line)
            .map_err(|e| ApiError::new(codes::BAD_JSON, format!("bad request JSON: {e}")))?;
        phases.cover_to_now(Phase::Parse);
        if matches!(req.get("trace"), Some(Json::Bool(true))) {
            *trace_id = Some(
                req.get("trace_id")
                    .and_then(Json::as_str)
                    .map_or_else(mint_trace_id, str::to_string),
            );
        }
        match AdminOp::parse(&req) {
            Ok(None) => {} // a ranking request — the path below
            Ok(Some(op)) => {
                let body = self.dispatch(op, req);
                // Both publish outcomes route through Answer::Publish: a
                // *failed* publish can still pay base64 decode + model
                // deserialize before rejecting, and that wall time must
                // stay out of the serving-latency histogram just like a
                // success. Experiment admin shares the exemption: a
                // candidate publish deserializes a whole model, and even
                // install/halt are control-plane, not serving, time.
                return Ok(if op.latency_exempt() {
                    Answer::Publish(body)
                } else {
                    Answer::Stats(body)
                });
            }
            Err(other) => {
                return Err(ApiError::new(
                    codes::UNKNOWN_OP,
                    format!("unknown op {other:?}"),
                ))
            }
        }
        let k = match req.get("k") {
            None => DEFAULT_K,
            Some(Json::Num(n)) if *n >= 1.0 && n.fract() == 0.0 => *n as usize,
            Some(other) => return Err(ApiError::new(codes::BAD_K, format!("bad k: {other}"))),
        };
        if k > MAX_K {
            return Err(ApiError::new(
                codes::BAD_K,
                format!("k {k} exceeds maximum {MAX_K}"),
            ));
        }
        // The latency budget, anchored at line arrival.
        let deadline = match deadline_budget(&req)? {
            Some(budget) if budget.is_zero() => {
                self.obs
                    .events
                    .record("deadline_shed", "deadline_ms arrived exhausted");
                return Err(ApiError::new(
                    codes::DEADLINE_EXCEEDED,
                    "deadline_ms budget arrived already exhausted",
                ));
            }
            budget => budget.map(|budget| started + budget),
        };
        // Variant resolution: an explicit `"variant"` override wins;
        // otherwise the active split plan assigns deterministically by
        // sticky key — the client id when supplied, else the connection
        // id — so one client sees one variant for a plan's lifetime.
        let explicit = match req.get("variant") {
            None => None,
            Some(Json::Str(name)) => Some(name.clone()),
            Some(other) => {
                return Err(ApiError::new(
                    codes::BAD_REQUEST,
                    format!("bad variant: {other} (want a string)"),
                ))
            }
        };
        let plan = self.variants.plan();
        let assigned = match &explicit {
            Some(name) => Some(name.clone()),
            None => plan.as_ref().map(|p| {
                let sticky = req.get("client").and_then(Json::as_str).unwrap_or(conn_key);
                p.assign(sticky).to_string()
            }),
        };
        let candidate;
        let entry: &VariantEntry = match assigned.as_deref() {
            None => self.variants.control(),
            Some(name) => {
                candidate = self.variants.get(name)?;
                &candidate
            }
        };
        // Per-variant labeled metrics only tick when an experiment is
        // in play (explicit override or installed plan); a plain
        // single-model deployment pays nothing.
        let in_play = assigned.is_some();
        if in_play {
            entry.obs.requests.inc();
        }
        // Pin one generation for the whole request: name resolution and
        // validation below, cache lookup and herb naming in the caller.
        let pinned = entry.slot.load();
        let ids = self.request_ids(&req, &pinned)?;
        validate_ids(&ids, pinned.model.n_symptoms())?;
        let key = QueryKey::new(&ids, k);
        let want_scores = matches!(req.get("scores"), Some(Json::Bool(true)));
        let score_ids = want_scores.then(|| key.symptoms.clone());
        // Candidate-served requests sampled for a duel keep their
        // canonical symptom set so both models can re-score it below.
        let duel_ids =
            (entry.name != CONTROL && self.variants.duel_fire()).then(|| key.symptoms.clone());
        phases.cover_to_now(Phase::Resolve);
        let ranked = self.rank(entry, &pinned, key, deadline, in_play, phases);
        if ranked.is_err() && in_play {
            entry.obs.errors.inc();
        }
        let (ranking, generation, cached) = ranked?;
        let scores = match score_ids {
            Some(ids) => {
                // Score path bypasses the cache: it is diagnostic traffic.
                // Scored by the same generation that produced the ranking.
                let all = generation
                    .model
                    .score_one(&ids)
                    .map_err(|e| ApiError::new(codes::SCORING_FAILED, e.to_string()))?;
                Some(ranking.iter().map(|&h| all[h as usize]).collect())
            }
            None => None,
        };
        if let Some(duel_ids) = duel_ids {
            self.record_duel(&entry.name, &duel_ids, k, &ranking, &generation);
        }
        if in_play {
            entry
                .obs
                .latency
                .record(started.elapsed().as_micros() as u64);
        }
        Ok(Answer::Ranking {
            ids: ranking,
            scores,
            cached,
            generation,
            variant: assigned,
        })
    }

    /// Journal one control-vs-candidate duel: re-score the sampled
    /// query under both models and keep the two `(id, score)` top-k
    /// lists for the router's interleaving comparison. Best-effort — a
    /// query outside the control model's vocabulary simply cannot duel.
    fn record_duel(
        &self,
        variant: &str,
        ids: &[u32],
        k: usize,
        candidate_ranking: &[u32],
        candidate_generation: &Generation,
    ) {
        let control = self.variants.control().slot.load();
        let (Ok(cand_scores), Ok(ctrl_scores)) = (
            candidate_generation.model.score_one(ids),
            control.model.score_one(ids),
        ) else {
            return;
        };
        let candidate_top: Vec<(u32, f32)> = candidate_ranking
            .iter()
            .filter(|&&h| (h as usize) < cand_scores.len())
            .map(|&h| (h, cand_scores[h as usize]))
            .collect();
        let control_top: Vec<(u32, f32)> = partial_top_k(&ctrl_scores, k)
            .into_iter()
            .map(|h| (h, ctrl_scores[h as usize]))
            .collect();
        self.variants.record_duel(DuelSample {
            variant: variant.to_string(),
            symptom_ids: ids.to_vec(),
            k,
            candidate_top,
            control_top,
        });
    }

    fn request_ids(&self, req: &Json, generation: &Generation) -> Result<Vec<u32>, ApiError> {
        if let Some(raw) = req.get("symptom_ids") {
            let arr = raw
                .as_arr()
                .ok_or_else(|| ApiError::new(codes::BAD_REQUEST, "symptom_ids must be an array"))?;
            return arr
                .iter()
                .map(|v| match v.as_num() {
                    Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u32),
                    _ => Err(ApiError::new(
                        codes::BAD_REQUEST,
                        format!("bad symptom id {v}"),
                    )),
                })
                .collect();
        }
        if let Some(raw) = req.get("symptoms") {
            let arr = raw.as_arr().ok_or_else(|| {
                ApiError::new(codes::BAD_REQUEST, "symptoms must be an array of names")
            })?;
            return arr
                .iter()
                .map(|v| {
                    let name = v.as_str().ok_or_else(|| {
                        ApiError::new(codes::BAD_REQUEST, format!("bad symptom {v}"))
                    })?;
                    generation.vocab.symptom_id(name).ok_or_else(|| {
                        ApiError::new(codes::UNKNOWN_SYMPTOM, format!("unknown symptom {name:?}"))
                    })
                })
                .collect();
        }
        Err(ApiError::new(
            codes::BAD_REQUEST,
            "request needs \"symptoms\" (names) or \"symptom_ids\"",
        ))
    }
}

/// Converts registry samples to the wire JSON shape: counters and
/// gauges become numbers, histograms become stat objects. Public so the
/// cluster router can render its own registry in the same shape.
pub fn samples_to_json(samples: &[Sample]) -> Json {
    Json::Obj(
        samples
            .iter()
            .map(|s| {
                let value = match &s.value {
                    SampleValue::Counter(v) | SampleValue::Gauge(v) => Json::Num(*v as f64),
                    SampleValue::Histogram(h) => json::obj([
                        ("count", Json::Num(h.count as f64)),
                        ("p50_us", Json::Num(h.p50_us)),
                        ("p99_us", Json::Num(h.p99_us)),
                        ("mean_us", Json::Num(h.mean_us)),
                        ("total_count", Json::Num(h.total_count as f64)),
                        ("total_sum_us", Json::Num(h.total_sum_us as f64)),
                        ("total_p50_us", Json::Num(h.total_p50_us)),
                        ("total_p99_us", Json::Num(h.total_p99_us)),
                    ]),
                };
                (s.key.clone(), value)
            })
            .collect(),
    )
}

/// Flattens the `"metrics"` object of an `{"op":"metrics"}` response
/// into scalar time-series samples: counters and gauges keep their key,
/// histogram stat objects become one `key.field` series per numeric
/// field. This is the wire-side inverse the tsdb [`Scraper`] feeds on —
/// the flattened names match what `smgcn_obs::tsdb` queries expect.
///
/// [`Scraper`]: smgcn_obs::Scraper
pub fn flatten_metrics_json(metrics: &Json) -> Vec<(String, f64)> {
    let mut flat = Vec::new();
    if let Json::Obj(map) = metrics {
        for (key, value) in map {
            match value {
                Json::Num(n) => flat.push((key.clone(), *n)),
                Json::Obj(fields) => {
                    for (field, fv) in fields {
                        if let Json::Num(n) = fv {
                            flat.push((format!("{key}.{field}"), *n));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    flat
}

/// A successful answer: a ranking, a `/stats` report, or a publish
/// acknowledgement (kept distinct so its wall time — dominated by model
/// deserialization — stays out of the serving-latency histogram).
enum Answer {
    Ranking {
        ids: Vec<u32>,
        scores: Option<Vec<f32>>,
        cached: bool,
        generation: Arc<Generation>,
        /// The variant that served the request, when an experiment was
        /// in play (explicit override or installed split plan).
        variant: Option<String>,
    },
    Stats(Json),
    Publish(Json),
}

/// Rejects duplicate and out-of-range symptom ids up front with
/// structured errors. Historically duplicates were silently deduplicated
/// and range errors surfaced as opaque scorer failures mid-batch; both
/// are client bugs worth a precise signal.
fn validate_ids(ids: &[u32], n_symptoms: usize) -> Result<(), ApiError> {
    if ids.is_empty() {
        return Err(ApiError::new(codes::EMPTY_SYMPTOMS, "symptom set is empty"));
    }
    for &s in ids {
        if s as usize >= n_symptoms {
            return Err(ApiError::new(
                codes::SYMPTOM_OUT_OF_RANGE,
                format!("symptom id {s} out of range (vocabulary size {n_symptoms})"),
            ));
        }
    }
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return Err(ApiError::new(
            codes::DUPLICATE_SYMPTOM,
            format!("symptom id {} appears more than once", w[0]),
        ));
    }
    Ok(())
}

/// A running (or ready-to-run) recommendation server.
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`, port 0 for ephemeral) and
    /// prepares the scoring engine. Call [`Server::run`] to serve. The
    /// model becomes generation 0 of an internal [`ModelSlot`];
    /// `{"op":"publish"}` hot-swaps it later.
    pub fn bind(
        addr: impl ToSocketAddrs,
        model: FrozenModel,
        vocab: ServingVocab,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        Self::bind_slot(addr, Arc::new(ModelSlot::new(model, vocab)), config)
    }

    /// Binds over an externally-owned [`ModelSlot`], the live-refresh
    /// deployment shape: the online pipeline keeps the slot and publishes
    /// new generations while the server runs.
    pub fn bind_slot(
        addr: impl ToSocketAddrs,
        slot: Arc<ModelSlot>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let obs = ServeObs::new();
        let engine = Arc::new(Engine {
            batcher: Batcher::start_slot(Arc::clone(&slot), BatcherConfig),
            variants: VariantTable::new(
                Arc::clone(&obs.registry),
                slot,
                config.cache_capacity,
                config.duel_sample_every,
            ),
            config,
            started: Instant::now(),
            obs,
        });
        Ok(Self {
            listener,
            engine,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The metrics registry behind `{"op":"metrics"}`. Co-located
    /// subsystems (an online pipeline refreshing this server's slot)
    /// attach here so one snapshot covers the whole replica.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.engine.obs.registry)
    }

    /// The event journal behind `{"op":"events"}` (shareable like
    /// [`Server::registry`]).
    pub fn events(&self) -> Arc<EventJournal> {
        Arc::clone(&self.engine.obs.events)
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`Server::run`] return.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle::new(Arc::clone(&self.stop), self.listener.local_addr().ok())
    }

    /// [`Server::run`] on a thread of its own, behind a guard that
    /// stops and joins it.
    pub fn spawn(self) -> std::io::Result<Running> {
        Running::start(self.local_addr()?, self.stop_handle(), move || self.run())
    }

    /// Serves until the stop handle fires, on the readiness [`Reactor`]:
    /// one event-loop thread owns all sockets, a fixed worker pool runs
    /// the handlers, and concurrent connections are bounded by
    /// `config.max_connections` file descriptors rather than threads. A
    /// connection over the cap still receives the same one-line
    /// retryable refusal at accept time, and a graceful stop still
    /// answers in-flight requests before closing — idle keep-alives now
    /// close promptly and the drain is journaled as a `drain` event.
    pub fn run(self) -> std::io::Result<()> {
        let max_conns = self.engine.config.max_connections;
        let registry = Arc::clone(&self.engine.obs.registry);
        Reactor::new(self.listener, self.engine, self.stop, max_conns, &registry).run()
    }
}

/// The reactor serves the replica engine directly: request lines go
/// through [`Engine::handle_line`] on worker threads, refusals and
/// drains keep their historical counters, events, and wire bytes.
impl Service for Engine {
    fn handle(&self, line: &str, conn_key: &str) -> String {
        self.handle_line(line, conn_key).to_string()
    }

    fn shed(&self) -> String {
        // Shed instead of queueing: the client gets a structured,
        // retryable refusal in one write and the reactor moves
        // straight on to the next connection — saturation never
        // stalls accepts (or the cluster router's health probes).
        self.obs.sheds.inc();
        self.obs
            .events
            .record("shed", "connection refused at capacity");
        ApiError::retryable(codes::OVERLOADED, "server at connection capacity")
            .to_json()
            .to_string()
    }

    fn on_drain(&self) {
        self.obs
            .events
            .record("drain", "graceful drain: idle connections closed");
    }
}

/// Makes a running server's (or router's) accept loop exit.
pub struct StopHandle {
    stop: Arc<AtomicBool>,
    addr: Option<SocketAddr>,
}

impl StopHandle {
    /// A handle over the `stop` flag a reactor polls, listening on `addr`.
    pub fn new(stop: Arc<AtomicBool>, addr: Option<SocketAddr>) -> Self {
        Self { stop, addr }
    }

    /// Signals shutdown and wakes the reactor to see it.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(addr) = self.addr {
            // A throwaway connection makes the listener readable, which
            // wakes the poll, so the loop sees the flag now instead of
            // at its next `TICK` (100 ms).
            let _ = TcpStream::connect(addr);
        }
    }
}

/// A server or router serving on a thread of its own: what
/// [`Server::spawn`] and the cluster router's `spawn` return. Dropping
/// the guard stops the loop and joins the thread, so a test that panics
/// cannot leak a listener; [`Running::shutdown`] does the same and
/// hands back what the loop returned.
pub struct Running {
    addr: SocketAddr,
    stop: StopHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Running {
    /// Runs `run` — a bound server's serve loop, listening on `addr` and
    /// ended by `stop` — on a new thread.
    pub fn start(
        addr: SocketAddr,
        stop: StopHandle,
        run: impl FnOnce() -> std::io::Result<()> + Send + 'static,
    ) -> std::io::Result<Self> {
        let thread = std::thread::Builder::new().spawn(run)?;
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address being served.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A client of this server for a harness: every step is bounded by
    /// 30 s, far above any request's latency, so a stuck server fails
    /// its test or bench instead of hanging it.
    pub fn client(&self) -> std::io::Result<LineClient> {
        let bound = Duration::from_secs(30);
        LineClient::connect(self.addr, bound, bound)
    }

    /// Stops the loop, waits for its graceful drain, and returns what
    /// it returned (a panic on the serving thread comes back as an
    /// error).
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> std::io::Result<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.stop.stop();
        thread
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("the serving thread panicked")))
    }
}

/// Cannot return the loop's result, so a failure is at least said out
/// loud; callers that must act on it call [`Running::shutdown`].
impl Drop for Running {
    fn drop(&mut self) {
        if let Err(e) = self.stop_and_join() {
            eprintln!("smgcn: the serve loop on {} failed: {e}", self.addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smgcn_tensor::Matrix;
    use std::io::Read;

    fn test_model() -> FrozenModel {
        let symptoms = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) % 4) as f32 - 1.5);
        let herbs = Matrix::from_fn(7, 3, |r, c| ((r * 2 + c * 5) % 6) as f32 - 2.5);
        FrozenModel::from_parts(symptoms, herbs, None).unwrap()
    }

    fn spawn_with(vocab: ServingVocab, config: ServerConfig) -> Running {
        let server = Server::bind("127.0.0.1:0", test_model(), vocab, config).unwrap();
        server.spawn().unwrap()
    }

    fn test_server() -> Running {
        let vocab = ServingVocab::new(
            (0..5).map(|i| format!("s{i}")).collect(),
            (0..7).map(|i| format!("h{i}")).collect(),
        );
        let config = ServerConfig {
            max_connections: 16,
            ..ServerConfig::default()
        };
        spawn_with(vocab, config)
    }

    /// One request on a connection of its own.
    fn roundtrip(server: &Running, request: &str) -> Json {
        server.client().unwrap().ask_json(request).unwrap()
    }

    #[test]
    fn shutdown_under_load_drains_and_journals() {
        let server = Server::bind(
            "127.0.0.1:0",
            test_model(),
            ServingVocab::default(),
            ServerConfig::default(),
        )
        .unwrap();
        let events = server.events();
        let server = server.spawn().unwrap();
        let addr = server.addr();
        // An idle keep-alive opened before the stop: the drain must
        // close it promptly instead of waiting it out.
        let mut idle = TcpStream::connect(addr).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Pipelining clients that stay busy across the stop. Every
        // response the server delivers must be a complete line, and
        // the connection must end in a clean EOF, never a torn write.
        let mut clients = Vec::new();
        for t in 0..4usize {
            let mut client = server.client().unwrap();
            clients.push(std::thread::spawn(move || {
                let req = format!(r#"{{"symptom_ids": [{}, {}], "k": 3}}"#, t % 5, (t + 1) % 5);
                let mut served = 0u32;
                loop {
                    match client.ask_json(&req) {
                        Ok(_) => served += 1, // complete and well-formed
                        Err(closed) => {
                            // The server closed after draining: fine,
                            // as long as no reply line was cut short.
                            assert_ne!(closed.kind(), std::io::ErrorKind::InvalidData);
                            break served;
                        }
                    }
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(100)); // load in flight
        server.shutdown().unwrap(); // returns once the drain completes
        let total: u32 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert!(total > 0, "clients should have been served across the stop");
        assert_eq!(
            idle.read(&mut [0u8; 1]).unwrap(),
            0,
            "idle keep-alive must see EOF promptly, not a request timeout"
        );
        assert!(
            events.recent(64).iter().any(|e| e.kind == "drain"),
            "graceful drain must be journaled"
        );
    }

    #[test]
    fn serves_concurrent_clients_with_names_and_ids() {
        let server = test_server();
        let mut clients = Vec::new();
        for t in 0..8 {
            let mut client = server.client().unwrap();
            clients.push(std::thread::spawn(move || {
                let req = if t % 2 == 0 {
                    format!(
                        r#"{{"symptoms": ["s{}", "s{}"], "k": 3}}"#,
                        t % 5,
                        (t + 1) % 5
                    )
                } else {
                    format!(r#"{{"symptom_ids": [{}, {}], "k": 3}}"#, t % 5, (t + 1) % 5)
                };
                let resp = client.ask_json(&req).unwrap();
                assert!(resp.get("error").is_none(), "unexpected error: {resp}");
                assert_eq!(resp.get("herb_ids").unwrap().as_arr().unwrap().len(), 3);
                assert_eq!(resp.get("herbs").unwrap().as_arr().unwrap().len(), 3);
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
    }

    #[test]
    fn name_and_id_requests_agree_and_cache_hits() {
        let server = test_server();
        let by_name = roundtrip(&server, r#"{"symptoms": ["s1", "s2"], "k": 4}"#);
        let by_ids = roundtrip(&server, r#"{"symptom_ids": [2, 1], "k": 4}"#);
        assert_eq!(
            by_name.get("herb_ids").unwrap(),
            by_ids.get("herb_ids").unwrap(),
            "same canonical query must rank identically"
        );
        assert_eq!(by_name.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(
            by_ids.get("cached"),
            Some(&Json::Bool(true)),
            "permuted ids are the same cache key"
        );
    }

    #[test]
    fn multiple_requests_per_connection_and_errors() {
        let server = test_server();
        let mut client = server.client().unwrap();
        for (req, expect_code) in [
            (r#"{"symptoms": ["s0"]}"#, None),
            (r#"{"symptoms": ["nope"]}"#, Some("unknown_symptom")),
            (r#"not json"#, Some("bad_json")),
            (r#"{"symptom_ids": [0], "k": 2, "scores": true}"#, None),
            (r#"{"k": 2}"#, Some("bad_request")),
            (r#"{"symptom_ids": [], "k": 2}"#, Some("empty_symptoms")),
            (r#"{"symptom_ids": [0], "k": 0}"#, Some("bad_k")),
            (r#"{"symptom_ids": [0], "k": 100000}"#, Some("bad_k")),
            (
                r#"{"symptom_ids": [0, 0], "k": 2}"#,
                Some("duplicate_symptom"),
            ),
            (
                r#"{"symptom_ids": [99], "k": 2}"#,
                Some("symptom_out_of_range"),
            ),
            (r#"{"op": "nope"}"#, Some("unknown_op")),
        ] {
            let resp = client.ask_json(req).unwrap();
            let code = resp
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str);
            assert_eq!(code, expect_code, "req {req}: {resp}");
        }
    }

    #[test]
    fn stats_op_reports_generation_cache_and_uptime() {
        let server = test_server();
        // Two identical queries: one miss, one hit.
        let _ = roundtrip(&server, r#"{"symptom_ids": [0, 1], "k": 3}"#);
        let warm = roundtrip(&server, r#"{"symptom_ids": [0, 1], "k": 3}"#);
        assert_eq!(warm.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(warm.get("generation").and_then(Json::as_num), Some(0.0));
        let stats = roundtrip(&server, r#"{"op": "stats"}"#);
        assert_eq!(stats.get("generation").and_then(Json::as_num), Some(0.0));
        assert!(stats.get("uptime_s").and_then(Json::as_num).unwrap() >= 0.0);
        assert!(stats.get("requests").and_then(Json::as_num).unwrap() >= 2.0);
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_num), Some(1.0));
        assert_eq!(cache.get("misses").and_then(Json::as_num), Some(1.0));
        assert_eq!(cache.get("stale").and_then(Json::as_num), Some(0.0));
        assert!((cache.get("hit_rate").and_then(Json::as_num).unwrap() - 0.5).abs() < 1e-12);
        let model = stats.get("model").unwrap();
        assert_eq!(model.get("symptoms").and_then(Json::as_num), Some(5.0));
        assert_eq!(model.get("herbs").and_then(Json::as_num), Some(7.0));
    }

    #[test]
    fn a_publish_with_a_nan_weight_is_refused_and_live_traffic_is_untouched() {
        let server = test_server();
        let query = r#"{"symptom_ids": [0, 1], "k": 3}"#;
        let before = roundtrip(&server, query);
        // A well-formed artifact whose one herb weight is a NaN, every
        // checksum whole: only the model's own check can refuse it.
        let symptoms = Matrix::from_fn(5, 3, |r, c| (r + c) as f32 * 0.5);
        let herbs = Matrix::filled(7, 3, 1.0);
        let model = FrozenModel::from_parts(symptoms, herbs, None).unwrap();
        let vocab = ServingVocab::new(
            (0..5).map(|i| format!("s{i}")).collect(),
            (0..7).map(|i| format!("g1-h{i}")).collect(),
        );
        let mut store = model.to_store();
        let (id, _, _) = store
            .iter()
            .find(|(_, name, _)| *name == "frozen.herbs")
            .expect("a frozen model has herbs");
        store.get_mut(id).row_mut(4)[1] = f32::NAN;
        let mut bytes = Vec::new();
        crate::artifact::write(&mut bytes, &store, &vocab).unwrap();
        let line = crate::artifact::publish_line(crate::artifact::to_base64(&bytes), None);
        let refused = roundtrip(&server, &line);
        let error = refused.get("error").expect("refused");
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("bad_artifact")
        );
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(
            message.contains("frozen.herbs") && message.contains("row 4"),
            "{message}"
        );
        let after = roundtrip(&server, query);
        for field in ["generation", "herb_ids", "herbs"] {
            assert_eq!(after.get(field), before.get(field), "{after}");
        }
    }

    #[test]
    fn publish_op_swaps_generation_over_the_wire() {
        let server = test_server();
        let before = roundtrip(&server, r#"{"symptom_ids": [0, 1], "k": 3}"#);
        assert_eq!(before.get("generation").and_then(Json::as_num), Some(0.0));

        // Ship a distinguishable model (8 herbs, generation-tagged names).
        let symptoms = Matrix::from_fn(5, 3, |r, c| ((r + 2 * c) % 3) as f32 - 1.0);
        let herbs = Matrix::from_fn(8, 3, |r, c| ((r * 7 + c) % 5) as f32 - 2.0);
        let new_model = FrozenModel::from_parts(symptoms, herbs, None).unwrap();
        let new_vocab = ServingVocab::new(
            (0..5).map(|i| format!("s{i}")).collect(),
            (0..8).map(|i| format!("g1-h{i}")).collect(),
        );
        let expected = new_model.recommend(&[0, 1], 3).unwrap();
        let artifact = crate::artifact::to_base64(&crate::artifact::encode(&new_model, &new_vocab));

        let ack = roundtrip(
            &server,
            &format!(r#"{{"op":"publish","artifact":"{artifact}"}}"#),
        );
        assert_eq!(ack.get("published"), Some(&Json::Bool(true)), "{ack}");
        assert_eq!(ack.get("generation").and_then(Json::as_num), Some(1.0));
        assert_eq!(ack.get("herbs").and_then(Json::as_num), Some(8.0));

        let after = roundtrip(&server, r#"{"symptom_ids": [0, 1], "k": 3}"#);
        assert_eq!(after.get("generation").and_then(Json::as_num), Some(1.0));
        let ids: Vec<u32> = after
            .get("herb_ids")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_num().unwrap() as u32)
            .collect();
        assert_eq!(
            ids, expected,
            "post-publish rankings come from the new model"
        );
        let names: Vec<&str> = after
            .get("herbs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert!(names.iter().all(|n| n.starts_with("g1-")), "{names:?}");

        // A corrupt artifact is rejected and the generation stays put:
        // control's, then an already-published candidate's.
        let corrupt = r#""artifact":"not base64!""#;
        let cand_publish = format!(
            r#"{{"op":"experiment","action":"publish","variant":"cand","artifact":"{artifact}"}}"#
        );
        let published = roundtrip(&server, &cand_publish);
        assert_eq!(
            published.get("generation").and_then(Json::as_num),
            Some(0.0)
        );
        let cand_query = r#"{"symptom_ids": [0, 1], "k": 3, "variant": "cand"}"#;
        let cand_before = roundtrip(&server, cand_query);
        for (publish, kind) in [
            (
                format!(r#"{{"op":"publish",{corrupt}}}"#),
                "publish_rejected",
            ),
            (
                format!(r#"{{"op":"experiment","action":"publish","variant":"cand",{corrupt}}}"#),
                "experiment_publish_rejected",
            ),
        ] {
            let rejected_before = roundtrip(&server, r#"{"op": "metrics"}"#)
                .get("metrics")
                .and_then(|m| m.get("serve_publish_rejected_total"))
                .and_then(Json::as_num)
                .unwrap();
            let bad = roundtrip(&server, &publish);
            assert_eq!(
                bad.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some("bad_artifact")
            );
            let stats = roundtrip(&server, r#"{"op": "stats"}"#);
            assert_eq!(stats.get("generation").and_then(Json::as_num), Some(1.0));
            let cand_after = roundtrip(&server, cand_query);
            for field in ["generation", "herb_ids", "herbs"] {
                assert_eq!(
                    cand_after.get(field),
                    cand_before.get(field),
                    "{kind}: {cand_after}"
                );
            }

            // The rejection is counted and journaled for the fleet to see.
            let snap = roundtrip(&server, r#"{"op": "metrics"}"#);
            assert_eq!(
                snap.get("metrics")
                    .and_then(|m| m.get("serve_publish_rejected_total"))
                    .and_then(Json::as_num),
                Some(rejected_before + 1.0),
                "{kind}"
            );
            let report = roundtrip(&server, r#"{"op": "events"}"#);
            let events = report.get("events").and_then(Json::as_arr).unwrap();
            assert!(
                events
                    .iter()
                    .any(|e| e.get("kind").and_then(Json::as_str) == Some(kind)),
                "{kind} event missing: {report}"
            );
        }
    }

    #[test]
    fn deadline_budget_is_enforced_end_to_end() {
        let server = test_server();
        // A generous budget scores normally.
        let ok = roundtrip(
            &server,
            r#"{"symptom_ids": [0, 1], "k": 3, "deadline_ms": 5000}"#,
        );
        assert!(ok.get("error").is_none(), "{ok}");
        // A pre-spent budget is shed with the structured, terminal code
        // before it costs a queue slot.
        let shed = roundtrip(
            &server,
            r#"{"symptom_ids": [0, 1], "k": 3, "deadline_ms": 0}"#,
        );
        let err = shed.get("error").expect("zero budget must be shed");
        assert_eq!(
            err.get("code").and_then(Json::as_str),
            Some(codes::DEADLINE_EXCEEDED)
        );
        assert!(
            err.get("retryable").is_none(),
            "deadline sheds are terminal"
        );
        // Malformed budgets are a client bug, not a shed.
        let bad = roundtrip(
            &server,
            r#"{"symptom_ids": [0], "k": 2, "deadline_ms": 1.5}"#,
        );
        assert_eq!(
            bad.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some(codes::BAD_REQUEST)
        );
        // The shed is counted once, under its error code.
        let snap = roundtrip(&server, r#"{"op": "metrics"}"#);
        assert_eq!(
            snap.get("metrics")
                .and_then(|m| m.get("serve_errors_total{code=\"deadline_exceeded\"}"))
                .and_then(Json::as_num),
            Some(1.0)
        );
    }

    #[test]
    fn connection_overload_sheds_with_structured_error() {
        let server = spawn_with(
            ServingVocab::default(),
            ServerConfig {
                max_connections: 1,
                ..ServerConfig::default()
            },
        );

        // Occupy the only slot (a roundtrip proves the handler is live).
        let mut held = server.client().unwrap();
        let first = held.ask_json(r#"{"symptom_ids": [0], "k": 2}"#).unwrap();
        assert!(first.get("error").is_none());

        // The next connection is shed with a retryable structured error
        // — the refusal line is what its first request reads.
        let refusal = roundtrip(&server, r#"{"op": "stats"}"#);
        let err = refusal.get("error").expect("shed response is an error");
        assert_eq!(err.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(err.get("retryable"), Some(&Json::Bool(true)));

        // The shed is counted and latency percentiles are reported.
        let stats = held.ask_json(r#"{"op": "stats"}"#).unwrap();
        assert_eq!(stats.get("sheds").and_then(Json::as_num), Some(1.0));
        let latency = stats.get("latency").expect("latency histogram in stats");
        assert!(latency.get("count").and_then(Json::as_num).unwrap() >= 1.0);
        assert!(latency.get("p99_us").and_then(Json::as_num).unwrap() > 0.0);
        assert!(
            latency.get("p99_us").and_then(Json::as_num).unwrap()
                >= latency.get("p50_us").and_then(Json::as_num).unwrap()
        );
    }

    #[test]
    fn traced_request_returns_partitioned_monotonic_spans() {
        let server = test_server();
        let resp = roundtrip(
            &server,
            r#"{"symptom_ids": [0, 2], "k": 3, "trace": true, "trace_id": "cafe0123"}"#,
        );
        assert!(resp.get("error").is_none(), "{resp}");
        let trace = resp.get("trace").expect("trace section when requested");
        assert_eq!(
            trace.get("trace_id").and_then(Json::as_str),
            Some("cafe0123"),
            "client-supplied trace_id must be echoed"
        );
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = spans
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        for expected in [
            "parse",
            "resolve",
            "cache_miss",
            "queue",
            "gemm",
            "topk",
            "respond",
        ] {
            assert!(
                names.contains(&expected),
                "missing span {expected}: {names:?}"
            );
        }
        let starts: Vec<f64> = spans
            .iter()
            .map(|s| s.get("start_us").and_then(Json::as_num).unwrap())
            .collect();
        assert!(
            starts.windows(2).all(|w| w[1] >= w[0]),
            "span starts must be monotonic: {starts:?}"
        );
        let span_sum: f64 = spans
            .iter()
            .map(|s| s.get("us").and_then(Json::as_num).unwrap())
            .sum();
        let micros = resp.get("micros").and_then(Json::as_num).unwrap();
        assert!(
            (span_sum - micros).abs() <= (micros * 0.10).max(200.0),
            "span durations ({span_sum}) must sum to ~observed wall latency ({micros})"
        );

        // A cache hit traces too, with the outcome in the span name.
        let warm = roundtrip(&server, r#"{"symptom_ids": [0, 2], "k": 3, "trace": true}"#);
        assert_eq!(warm.get("cached"), Some(&Json::Bool(true)));
        let warm_names: Vec<String> = warm
            .get("trace")
            .and_then(|t| t.get("spans"))
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str).map(String::from))
            .collect();
        assert!(
            warm_names.iter().any(|n| n == "cache_hit"),
            "{warm_names:?}"
        );
        // Minted id when the client didn't supply one.
        assert!(!warm
            .get("trace")
            .and_then(|t| t.get("trace_id"))
            .and_then(Json::as_str)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn untraced_responses_carry_no_trace_section() {
        let server = test_server();
        let resp = roundtrip(&server, r#"{"symptom_ids": [1, 3], "k": 3}"#);
        assert!(resp.get("trace").is_none(), "{resp}");
        // A trace_id alone (no "trace": true) does not opt in.
        let resp = roundtrip(
            &server,
            r#"{"symptom_ids": [1, 3], "k": 3, "trace_id": "x"}"#,
        );
        assert!(resp.get("trace").is_none(), "{resp}");
    }

    #[test]
    fn metrics_op_snapshots_registry_in_both_formats() {
        let server = test_server();
        let _ = roundtrip(&server, r#"{"symptom_ids": [0, 1], "k": 3}"#);
        let _ = roundtrip(&server, r#"{"symptom_ids": [0, 1], "k": 3}"#);
        let _ = roundtrip(&server, r#"{"symptoms": ["nope"]}"#);
        let snap = roundtrip(&server, r#"{"op": "metrics"}"#);
        assert_eq!(snap.get("generation").and_then(Json::as_num), Some(0.0));
        let metrics = snap.get("metrics").expect("metrics object");
        assert!(
            metrics
                .get("serve_requests_total")
                .and_then(Json::as_num)
                .unwrap()
                >= 3.0
        );
        assert_eq!(
            metrics.get("serve_cache_hits_total").and_then(Json::as_num),
            Some(1.0)
        );
        assert_eq!(
            metrics
                .get("serve_errors_total{code=\"unknown_symptom\"}")
                .and_then(Json::as_num),
            Some(1.0)
        );
        let latency = metrics.get("serve_latency_us").expect("latency histogram");
        assert!(latency.get("count").and_then(Json::as_num).unwrap() >= 2.0);
        assert!(latency.get("total_p99_us").and_then(Json::as_num).unwrap() > 0.0);
        let gemm = metrics.get("serve_gemm_us").expect("gemm histogram");
        assert!(gemm.get("count").and_then(Json::as_num).unwrap() >= 1.0);

        let prom = roundtrip(&server, r#"{"op": "metrics", "format": "prometheus"}"#);
        let text = prom.get("prometheus").and_then(Json::as_str).unwrap();
        assert!(
            text.contains("# TYPE serve_requests_total counter"),
            "{text}"
        );
        assert!(text.contains("# TYPE serve_latency_us summary"), "{text}");
    }

    #[test]
    fn events_op_reports_publishes_and_sheds() {
        let server = test_server();
        let symptoms = Matrix::from_fn(5, 3, |r, c| ((r + 2 * c) % 3) as f32 - 1.0);
        let herbs = Matrix::from_fn(7, 3, |r, c| ((r * 7 + c) % 5) as f32 - 2.0);
        let model = FrozenModel::from_parts(symptoms, herbs, None).unwrap();
        let artifact =
            crate::artifact::to_base64(&crate::artifact::encode(&model, &ServingVocab::default()));
        let ack = roundtrip(
            &server,
            &format!(r#"{{"op":"publish","artifact":"{artifact}"}}"#),
        );
        assert_eq!(ack.get("published"), Some(&Json::Bool(true)), "{ack}");
        let report = roundtrip(&server, r#"{"op": "events"}"#);
        let events = report.get("events").and_then(Json::as_arr).unwrap();
        assert!(
            events.iter().any(|e| {
                e.get("kind").and_then(Json::as_str) == Some("publish")
                    && e.get("unix_ms").and_then(Json::as_num).unwrap_or(0.0) > 0.0
            }),
            "publish event missing: {report}"
        );
    }

    #[test]
    fn profile_op_folds_phase_stacks_covering_wall_time() {
        let server = test_server();
        for i in 0..12 {
            let resp = roundtrip(
                &server,
                &format!(r#"{{"symptom_ids": [{}], "k": 3}}"#, i % 5),
            );
            assert!(resp.get("error").is_none(), "{resp}");
        }
        let report = roundtrip(&server, r#"{"op": "profile"}"#);
        let folded = report.get("folded").and_then(Json::as_str).unwrap();
        // Sub-microsecond phases (cache lookups, sometimes parse) are
        // zero-suppressed from the fold, so only assert the stacks that
        // always accumulate real time: the respond remainder and the
        // scoring GEMM.
        assert!(
            folded.contains("serve;request;respond "),
            "missing respond stack in:\n{folded}"
        );
        assert!(
            folded.contains("serve;request;score;"),
            "missing scoring stacks in:\n{folded}"
        );
        // The folded stacks must account for (nearly) all the wall time
        // the latency histogram measured: phases + respond remainder
        // partition each recorded request by construction.
        let profiled = report
            .get("profile_total_us")
            .and_then(Json::as_num)
            .unwrap();
        let measured = report
            .get("latency_total_us")
            .and_then(Json::as_num)
            .unwrap();
        assert!(measured > 0.0, "{report}");
        assert!(
            profiled >= 0.9 * measured,
            "folded stacks cover {profiled}µs of {measured}µs measured"
        );
    }

    #[test]
    fn profile_latency_and_trace_read_one_phase_list() {
        let server = test_server();
        let resp = roundtrip(&server, r#"{"symptom_ids": [1, 4], "k": 3, "trace": true}"#);
        assert_eq!(resp.get("cached"), Some(&Json::Bool(false)), "{resp}");
        let spans = resp
            .get("trace")
            .and_then(|t| t.get("spans"))
            .and_then(Json::as_arr)
            .unwrap();
        let span_us = |span: &Json| span.get("us").and_then(Json::as_num).unwrap();
        let span_sum: f64 = spans.iter().map(span_us).sum();
        let report = roundtrip(&server, r#"{"op": "profile"}"#);
        let total = |key| report.get(key).and_then(Json::as_num).unwrap();
        assert_eq!(total("profile_total_us"), span_sum, "{report}");
        assert_eq!(total("latency_total_us"), span_sum, "{report}");
        // The fold drops zero stacks; every other stack is its span.
        let folded = report.get("folded").and_then(Json::as_str).unwrap();
        let stacks: HashMap<&str, f64> = folded
            .lines()
            .map(|line| {
                let (stack, us) = line.rsplit_once(' ').unwrap();
                (stack, us.parse().unwrap())
            })
            .collect();
        for span in spans {
            let name = span.get("name").and_then(Json::as_str).unwrap();
            let stack = match name {
                "queue" | "batch" | "gemm" | "topk" => format!("serve;request;score;{name}"),
                _ => format!("serve;request;{name}"),
            };
            let folded_us = stacks.get(stack.as_str()).copied().unwrap_or(0.0);
            assert_eq!(folded_us, span_us(span), "{stack} in:\n{folded}");
        }
        let nonzero = spans.iter().filter(|span| span_us(span) > 0.0).count();
        assert_eq!(stacks.len(), nonzero, "{folded}");

        // A traced request that fails still gets its spans back, closed
        // by the error instead of `respond`.
        let dup = roundtrip(&server, r#"{"symptom_ids": [2, 2], "k": 3, "trace": true}"#);
        assert_eq!(
            dup.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some(codes::DUPLICATE_SYMPTOM)
        );
        let names: Vec<&str> = dup
            .get("trace")
            .and_then(|t| t.get("spans"))
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|span| span.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, ["parse", "error:duplicate_symptom"], "{dup}");
    }

    #[test]
    fn flatten_metrics_json_splits_histograms_into_series() {
        let server = test_server();
        let _ = roundtrip(&server, r#"{"symptom_ids": [1], "k": 2}"#);
        let snap = roundtrip(&server, r#"{"op": "metrics"}"#);
        let flat = flatten_metrics_json(snap.get("metrics").unwrap());
        let names: Vec<&str> = flat.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"serve_requests_total"), "{names:?}");
        assert!(names.contains(&"serve_latency_us.total_count"), "{names:?}");
        assert!(
            names.contains(&"serve_latency_us.total_p99_us"),
            "{names:?}"
        );
        assert!(
            names.contains(&"serve_latency_us.total_sum_us"),
            "{names:?}"
        );
        let requests = flat
            .iter()
            .find(|(n, _)| n == "serve_requests_total")
            .unwrap()
            .1;
        assert!(requests >= 1.0);
    }

    #[test]
    fn scores_align_with_ranking() {
        let server = test_server();
        let resp = roundtrip(
            &server,
            r#"{"symptom_ids": [0, 3], "k": 5, "scores": true}"#,
        );
        let scores: Vec<f64> = resp
            .get("scores")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_num().unwrap())
            .collect();
        assert_eq!(scores.len(), 5);
        assert!(
            scores.windows(2).all(|w| w[0] >= w[1]),
            "scores must be descending: {scores:?}"
        );
    }

    #[test]
    fn experiment_verbs_split_and_promote_over_the_wire() {
        let server = test_server();
        // A distinguishable candidate model with the same shape.
        let symptoms = Matrix::from_fn(5, 3, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
        let herbs = Matrix::from_fn(7, 3, |r, c| ((r + c * 4) % 5) as f32 - 1.0);
        let cand = FrozenModel::from_parts(symptoms, herbs, None).unwrap();
        let vocab = ServingVocab::new(
            (0..5).map(|i| format!("s{i}")).collect(),
            (0..7).map(|i| format!("cand-h{i}")).collect(),
        );
        let artifact = crate::artifact::to_base64(&crate::artifact::encode(&cand, &vocab));

        // Install before publish must fail atomically.
        let premature = roundtrip(
            &server,
            r#"{"op":"experiment","action":"install","plan":"not-a-plan"}"#,
        );
        assert_eq!(
            premature
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some(codes::BAD_PLAN)
        );
        let plan = smgcn_experiment::SplitPlan::new(
            7,
            1,
            &[("control".to_string(), 0), ("cand".to_string(), 100)],
        )
        .unwrap();
        let missing = roundtrip(
            &server,
            &format!(
                r#"{{"op":"experiment","action":"install","plan":"{}"}}"#,
                plan.to_canonical()
            ),
        );
        assert_eq!(
            missing
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some(codes::UNKNOWN_VARIANT),
            "{missing}"
        );

        // Publish the candidate, then install a 0/100 split: every
        // request (sticky key or not) must land on the candidate.
        let published = roundtrip(
            &server,
            &format!(
                r#"{{"op":"experiment","action":"publish","variant":"cand","artifact":"{artifact}"}}"#
            ),
        );
        assert_eq!(
            published.get("published"),
            Some(&Json::Bool(true)),
            "{published}"
        );
        let installed = roundtrip(
            &server,
            &format!(
                r#"{{"op":"experiment","action":"install","plan":"{}"}}"#,
                plan.to_canonical()
            ),
        );
        assert_eq!(
            installed.get("installed"),
            Some(&Json::Bool(true)),
            "{installed}"
        );

        let resp = roundtrip(&server, r#"{"symptom_ids":[0,1],"k":3,"client":"alice"}"#);
        assert_eq!(
            resp.get("variant").and_then(Json::as_str),
            Some("cand"),
            "{resp}"
        );
        let herbs = resp.get("herbs").unwrap().as_arr().unwrap();
        assert!(
            herbs
                .iter()
                .all(|h| h.as_str().unwrap().starts_with("cand-")),
            "candidate vocabulary must label the response: {resp}"
        );
        // Explicit override pins control regardless of the plan.
        let ctrl = roundtrip(
            &server,
            r#"{"symptom_ids":[0,1],"k":3,"variant":"control","client":"alice"}"#,
        );
        assert_eq!(ctrl.get("variant").and_then(Json::as_str), Some("control"));
        assert!(ctrl
            .get("herbs")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .all(|h| h.as_str().unwrap().starts_with('h')));

        // Duel samples journaled for candidate traffic (sample-every
        // defaults to 8; drive enough requests with distinct keys).
        for i in 0..32 {
            let _ = roundtrip(
                &server,
                &format!(
                    r#"{{"symptom_ids":[{},{}],"k":3,"client":"c{i}"}}"#,
                    i % 4,
                    4
                ),
            );
        }
        let samples = roundtrip(&server, r#"{"op":"experiment","action":"samples"}"#);
        assert!(
            samples.get("duels_total").and_then(Json::as_num).unwrap() >= 1.0,
            "{samples}"
        );

        // Promote: control slot now serves the candidate's model+vocab
        // as a new generation; halt drops the plan.
        let promoted = roundtrip(
            &server,
            r#"{"op":"experiment","action":"promote-local","variant":"cand"}"#,
        );
        assert_eq!(
            promoted.get("promoted"),
            Some(&Json::Bool(true)),
            "{promoted}"
        );
        assert_eq!(promoted.get("generation").and_then(Json::as_num), Some(1.0));
        let halted = roundtrip(&server, r#"{"op":"experiment","action":"halt"}"#);
        assert_eq!(halted.get("halted"), Some(&Json::Bool(true)));
        let after = roundtrip(&server, r#"{"symptom_ids":[0,1],"k":3,"client":"alice"}"#);
        assert!(
            after.get("variant").is_none(),
            "no experiment context: {after}"
        );
        assert_eq!(after.get("generation").and_then(Json::as_num), Some(1.0));
        assert!(after
            .get("herbs")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .all(|h| h.as_str().unwrap().starts_with("cand-")));

        let status = roundtrip(&server, r#"{"op":"experiment","action":"status"}"#);
        assert_eq!(status.get("plan"), Some(&Json::Null));
        let variants = status.get("variants").unwrap().as_arr().unwrap();
        assert_eq!(variants.len(), 2, "{status}");
    }
}
