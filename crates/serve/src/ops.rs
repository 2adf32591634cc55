//! Typed admin-op dispatch shared by the replica server and the cluster
//! router.
//!
//! Historically both `server.rs` and the router matched the raw
//! `req.get("op")` string in-place, which meant the verb list lived in
//! two files and adding an op risked the two drifting (a verb the
//! replica answers but the router mis-forwards, or vice versa). The
//! wire protocol is unchanged — this module only centralizes *parsing*:
//!
//! - [`AdminOp`] is the closed set of admin verbs, parsed once per
//!   request line by [`AdminOp::parse`];
//! - [`OpHandler`] is the per-verb handler surface; its provided
//!   [`OpHandler::dispatch`] is the single exhaustive match, so a new
//!   verb is one enum variant + one trait method and the compiler finds
//!   every implementer;
//! - [`ApiError`] is the structured wire error
//!   (`{"error":{code,message[,retryable]}}`) both layers answer with;
//! - [`event_json`] and [`trace_json`] are the wire shapes of a journal
//!   entry and of a span timeline, rendered here for both layers.
//!
//! The other side of the wire — how a caller reads the reply line —
//! lives in [`crate::client`].
//!
//! The replica [`Engine`](crate::server) and the cluster router both
//! implement [`OpHandler`]; what differs is only *how* each verb is
//! answered (locally vs. fleet-aggregated). Unknown ops are deliberately
//! *not* a variant: the replica answers them with a structured
//! `unknown_op` error, while the router forwards them — a future
//! replica-side verb must keep working through an older router.

use std::sync::Arc;
use std::time::Duration;

use smgcn_experiment::{SplitPlan, CONTROL};
use smgcn_obs::{Event, SpanRecord};

use crate::artifact::take_artifact;
use crate::errors::codes;
use crate::frozen::FrozenModel;
use crate::json::{self, Json};
use crate::server::{samples_to_json, Engine, ServingVocab};
use crate::variants::DuelSample;

/// A structured protocol error: a machine-readable code plus a message.
/// Serialised as `{"error": {"code": …, "message": …}}` so clients can
/// branch on the code without parsing prose.
pub struct ApiError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable detail, never needed for branching.
    pub message: String,
    /// An overload shed (`overloaded`) is transient and the request was
    /// never scored — a router may safely replay it on another replica.
    /// Client bugs (bad ids, bad JSON) are not.
    pub retryable: bool,
}

impl ApiError {
    /// A non-retryable error (client bugs, terminal failures).
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            retryable: false,
        }
    }

    /// A retryable pre-scoring shed (`overloaded`).
    pub fn retryable(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            retryable: true,
        }
    }

    /// The wire shape: `{"error":{"code":…,"message":…[,"retryable":true]}}`.
    pub fn to_json(&self) -> Json {
        self.to_json_with([])
    }

    /// [`ApiError::to_json`] with `context` fields beside `"error"`:
    /// what an operator needs to act on it (per-replica outcomes,
    /// guardrail violations).
    pub fn to_json_with(&self, context: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        let mut fields = vec![
            ("code", Json::Str(self.code.to_string())),
            ("message", Json::Str(self.message.clone())),
        ];
        if self.retryable {
            fields.push(("retryable", Json::Bool(true)));
        }
        json::obj([("error", json::obj(fields))].into_iter().chain(context))
    }
}

/// A ranking request's end-to-end latency budget, `"deadline_ms"`: the
/// milliseconds the client (or the router upstream, which decrements it
/// per hop) is still willing to wait. `None` when absent; zero when it
/// arrived already spent, which the caller sheds rather than queueing a
/// request nobody is waiting for. Anything but a non-negative integer is
/// a `bad_request`.
pub fn deadline_budget(req: &Json) -> Result<Option<Duration>, ApiError> {
    match req.get("deadline_ms") {
        None => Ok(None),
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => {
            Ok(Some(Duration::from_millis(*n as u64)))
        }
        Some(other) => Err(ApiError::new(
            codes::BAD_REQUEST,
            format!("bad deadline_ms: {other} (want a non-negative integer)"),
        )),
    }
}

/// How many journal entries an `{"op":"events"}` request asks for
/// (`"limit"`, default 64).
pub fn events_limit(req: &Json) -> usize {
    match req.get("limit").and_then(Json::as_num) {
        Some(n) if n >= 1.0 => n as usize,
        _ => 64,
    }
}

/// The wire shape of one event-journal entry.
pub fn event_json(e: &Event) -> Json {
    json::obj([
        ("seq", Json::Num(e.seq as f64)),
        ("unix_ms", Json::Num(e.unix_ms as f64)),
        ("kind", Json::Str(e.kind.clone())),
        ("detail", Json::Str(e.detail.clone())),
    ])
}

/// Renders a span list as the wire `trace` object.
pub fn trace_json<N: std::fmt::Display>(trace_id: &str, spans: &[SpanRecord<N>]) -> Json {
    let spans = spans.iter().map(|s| {
        json::obj([
            ("name", Json::Str(s.name.to_string())),
            ("start_us", Json::Num(s.start_us as f64)),
            ("us", Json::Num(s.dur_us as f64)),
        ])
    });
    json::obj([
        ("trace_id", Json::Str(trace_id.to_string())),
        ("spans", Json::Arr(spans.collect())),
    ])
}

/// The closed set of admin verbs in the wire protocol, parsed from a
/// request's `"op"` field. Everything that is *not* an admin verb — no
/// `"op"` at all, or a non-string one — is a ranking request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdminOp {
    /// `{"op":"stats"}` — generation, uptime, counters, latency.
    Stats,
    /// `{"op":"metrics"}` — full registry snapshot (or Prometheus text).
    Metrics,
    /// `{"op":"events"}` — the event journal tail.
    Events,
    /// `{"op":"profile"}` — continuous-profiler folded stacks.
    Profile,
    /// `{"op":"publish"}` — hot-swap a model artifact into control.
    Publish,
    /// `{"op":"experiment"}` — the A/B plane (candidate publish, split
    /// install/halt, status, samples/compare, promote).
    Experiment,
}

impl AdminOp {
    /// Parses a request's `"op"` field.
    ///
    /// - `Ok(None)` — not an admin request (no `"op"`, or a non-string
    ///   one): take the ranking path;
    /// - `Ok(Some(op))` — a known verb;
    /// - `Err(name)` — an unknown verb. The caller decides what that
    ///   means: the replica answers `unknown_op`, the router forwards
    ///   so the replica's answer (and any future verb) wins.
    pub fn parse(req: &Json) -> Result<Option<AdminOp>, String> {
        match req.get("op").and_then(Json::as_str) {
            None => Ok(None),
            Some("stats") => Ok(Some(AdminOp::Stats)),
            Some("metrics") => Ok(Some(AdminOp::Metrics)),
            Some("events") => Ok(Some(AdminOp::Events)),
            Some("profile") => Ok(Some(AdminOp::Profile)),
            Some("publish") => Ok(Some(AdminOp::Publish)),
            Some("experiment") => Ok(Some(AdminOp::Experiment)),
            Some(other) => Err(other.to_string()),
        }
    }

    /// The verb's wire name.
    pub fn name(&self) -> &'static str {
        match self {
            AdminOp::Stats => "stats",
            AdminOp::Metrics => "metrics",
            AdminOp::Events => "events",
            AdminOp::Profile => "profile",
            AdminOp::Publish => "publish",
            AdminOp::Experiment => "experiment",
        }
    }

    /// True for verbs whose wall time must stay out of the
    /// serving-latency histogram: publishes (control or candidate)
    /// base64-decode and deserialize whole models, orders of magnitude
    /// above any serving op — recording them would spike the p99 the
    /// router's slow-replica ejection reads, getting a replica ejected
    /// for the crime of taking a rollout.
    pub fn latency_exempt(&self) -> bool {
        matches!(self, AdminOp::Publish | AdminOp::Experiment)
    }
}

/// The per-verb handler surface. [`OpHandler::dispatch`] is the single
/// exhaustive verb match shared by the replica server and the cluster
/// router; each implementer supplies how its side answers a verb (the
/// replica locally, the router fleet-aggregated).
pub trait OpHandler {
    /// Answers `{"op":"stats"}`.
    fn op_stats(&self, req: &Json) -> Json;
    /// Answers `{"op":"metrics"}`.
    fn op_metrics(&self, req: &Json) -> Json;
    /// Answers `{"op":"events"}`.
    fn op_events(&self, req: &Json) -> Json;
    /// Answers `{"op":"profile"}`.
    fn op_profile(&self, req: &Json) -> Json;
    /// Answers `{"op":"publish"}` (errors are folded into the returned
    /// object as `{"error":…}` — publish failures are part of the ack
    /// surface, not protocol errors).
    ///
    /// The two verbs that can carry a model take the request by value: a
    /// replica frees the artifact text as soon as it is decoded instead
    /// of holding it beside the model until the response is written.
    fn op_publish(&self, req: Json) -> Json;
    /// Answers `{"op":"experiment"}` (errors folded like publish).
    fn op_experiment(&self, req: Json) -> Json;

    /// Routes one parsed verb to its handler — the only verb match.
    fn dispatch(&self, op: AdminOp, req: Json) -> Json {
        match op {
            AdminOp::Stats => self.op_stats(&req),
            AdminOp::Metrics => self.op_metrics(&req),
            AdminOp::Events => self.op_events(&req),
            AdminOp::Profile => self.op_profile(&req),
            AdminOp::Publish => self.op_publish(req),
            AdminOp::Experiment => self.op_experiment(req),
        }
    }
}

/// The replica's admin verbs, answered from the local engine state.
impl OpHandler for Engine {
    /// Model generation, uptime, and counters read from the registry;
    /// `cache` is the control partition's own count.
    fn op_stats(&self, _req: &Json) -> Json {
        let control = self.variants.control();
        let generation = control.slot.load();
        let mut fields = vec![
            ("generation", Json::Num(generation.number as f64)),
            (
                "model",
                json::obj([
                    ("symptoms", Json::Num(generation.model.n_symptoms() as f64)),
                    ("herbs", Json::Num(generation.model.n_herbs() as f64)),
                    ("dim", Json::Num(generation.model.dim() as f64)),
                ]),
            ),
            ("uptime_s", Json::Num(self.started.elapsed().as_secs_f64())),
            ("requests", Json::Num(self.obs.requests.get() as f64)),
            ("sheds", Json::Num(self.obs.sheds.get() as f64)),
        ];
        let latency = self.obs.latency.snapshot();
        fields.push((
            "latency",
            json::obj([
                ("count", Json::Num(latency.count as f64)),
                ("p50_us", Json::Num(latency.quantile_us(0.50))),
                ("p99_us", Json::Num(latency.quantile_us(0.99))),
                ("mean_us", Json::Num(latency.mean_us())),
            ]),
        ));
        if let Some(cache) = &control.cache {
            let stats = cache.lock().expect("cache lock").stats();
            fields.push((
                "cache",
                json::obj([
                    ("hits", Json::Num(stats.hits as f64)),
                    ("misses", Json::Num(stats.misses as f64)),
                    ("stale", Json::Num(stats.stale as f64)),
                    ("hit_rate", Json::Num(stats.hit_rate())),
                ]),
            ));
        }
        json::obj(fields)
    }

    /// A structured snapshot of every registered metric
    /// (`"format":"prometheus"` returns the text exposition instead).
    /// Gauges derived from other subsystems are synced here, at read
    /// time.
    fn op_metrics(&self, req: &Json) -> Json {
        let control = self.variants.control();
        let generation = control.slot.generation();
        self.variants.sync_gauges();
        self.obs.registry.gauge("serve_generation").set(generation);
        if let Some(cache) = &control.cache {
            let stats = cache.lock().expect("cache lock").stats();
            self.obs
                .registry
                .gauge("serve_cache_stale")
                .set(stats.stale);
        }
        if req.get("format").and_then(Json::as_str) == Some("prometheus") {
            return json::obj([("prometheus", Json::Str(self.obs.registry.to_prometheus()))]);
        }
        json::obj([
            ("generation", Json::Num(generation as f64)),
            ("metrics", samples_to_json(&self.obs.registry.samples())),
            ("events_total", Json::Num(self.obs.events.total() as f64)),
        ])
    }

    /// The tail of the event journal (optional `"limit"`, default 64).
    fn op_events(&self, req: &Json) -> Json {
        let events = self.obs.events.recent(events_limit(req));
        json::obj([
            ("events", Json::Arr(events.iter().map(event_json).collect())),
            ("events_total", Json::Num(self.obs.events.total() as f64)),
        ])
    }

    /// The continuous profiler's cumulative folded stacks
    /// (`stack;frames <µs>` lines, the flamegraph-collapsed format) plus
    /// the latency histogram's since-start wall-time sum. Both are
    /// booked from the same per-request phase lists, so on a quiet
    /// replica the two totals are equal.
    fn op_profile(&self, _req: &Json) -> Json {
        let latency = self.obs.latency.snapshot();
        let generation = self.variants.control().slot.generation();
        json::obj([
            ("generation", Json::Num(generation as f64)),
            ("folded", Json::Str(self.obs.profiler.fold())),
            (
                "profile_total_us",
                Json::Num(self.obs.profiler.total_us() as f64),
            ),
            ("latency_total_us", Json::Num(latency.total_sum_us as f64)),
        ])
    }

    /// Swaps in a new model generation shipped over the wire as a
    /// [`crate::artifact`] blob. A malformed artifact is rejected
    /// without touching the live generation; success reports the
    /// generation that is now serving so a rolling coordinator can
    /// verify the cutover.
    fn op_publish(&self, req: Json) -> Json {
        match self.publish_artifact(CONTROL, req, CONTROL_PUBLISH) {
            Ok((generation, (symptoms, herbs))) => json::obj([
                ("published", Json::Bool(true)),
                ("generation", Json::Num(generation as f64)),
                ("symptoms", Json::Num(symptoms as f64)),
                ("herbs", Json::Num(herbs as f64)),
            ]),
            Err(e) => e.to_json(),
        }
    }

    /// The replica half of the experiment plane; see
    /// [`Engine::experiment_admin`] for the action set.
    fn op_experiment(&self, req: Json) -> Json {
        match self.experiment_admin(req) {
            Ok(ack) => ack,
            Err(e) => e.to_json(),
        }
    }
}

/// The candidate an experiment request names in `"variant"`
/// (`"control"` is managed by the plain publish verb and never a valid
/// target).
pub fn candidate_of(req: &Json) -> Result<String, ApiError> {
    let refusal = match req.get("variant").and_then(Json::as_str) {
        Some(name) if name != CONTROL => return Ok(name.to_string()),
        Some(_) => "the control slot is managed by {\"op\":\"publish\"}",
        None => "experiment action needs \"variant\"",
    };
    Err(ApiError::new(codes::BAD_REQUEST, refusal))
}

/// Base64 text → model + vocabulary, each stage's input freed before the
/// next stage allocates: the text before the artifact is parsed, the
/// artifact bytes before the caller swaps the model in. Text, bytes,
/// tensors and packed model are never all live at once.
fn decode_artifact(text: String) -> Result<(FrozenModel, ServingVocab), ApiError> {
    let bytes = crate::artifact::from_base64(&text)
        .map_err(|e| ApiError::new(codes::BAD_ARTIFACT, format!("artifact is not base64: {e}")))?;
    drop(text);
    crate::artifact::decode(&bytes).map_err(|e| ApiError::new(codes::BAD_ARTIFACT, e.to_string()))
}

/// The event kinds an artifact-publish verb journals, `(rejected,
/// published)`.
type Wording = (&'static str, &'static str);

const CONTROL_PUBLISH: Wording = ("publish_rejected", "publish");
const CANDIDATE_PUBLISH: Wording = ("experiment_publish_rejected", "experiment_publish");

impl Engine {
    /// The one artifact-publish body, behind `{"op":"publish"}` (into
    /// control) and the experiment `publish` action (into a candidate,
    /// created on first publish). A damaged artifact is counted and
    /// journaled and never touches the entry's live generation; a good
    /// one is published into the named entry, counted and journaled.
    /// Returns the new generation and the published model's
    /// `(symptoms, herbs)`.
    fn publish_artifact(
        &self,
        name: &str,
        mut req: Json,
        (rejected, published): Wording,
    ) -> Result<(u64, (usize, usize)), ApiError> {
        let text = take_artifact(&mut req)?;
        let (model, vocab) = decode_artifact(text).inspect_err(|e| {
            self.obs.publish_rejected.inc();
            let why = &e.message;
            let detail = format!("{name} artifact rejected, live generation untouched: {why}");
            self.obs.events.record(rejected, detail);
        })?;
        let shape = (model.n_symptoms(), model.n_herbs());
        let generation = self.variants.publish(name, model, vocab);
        self.obs.publishes.inc();
        let detail = format!("{name} generation {generation} published over the wire");
        self.obs.events.record(published, detail);
        Ok((generation, shape))
    }

    /// The experiment-plane admin body behind
    /// [`OpHandler::op_experiment`]. Actions:
    ///
    /// - `"publish"` — [`Engine::publish_artifact`] into the named
    ///   candidate (created on first publish);
    /// - `"install"` — install/update a split plan from its canonical
    ///   string; rejected atomically if any weighted variant has no
    ///   published slot here;
    /// - `"halt"` — drop the plan, collapsing all split traffic to
    ///   control instantly (candidates stay resident);
    /// - `"promote-local"` — re-point the candidate's current
    ///   model+vocab into the control slot as a new generation;
    /// - `"status"` — plan, per-variant generation/weight, duel count;
    /// - `"samples"` — the journaled duel samples (optional `"limit"`).
    pub(crate) fn experiment_admin(&self, req: Json) -> Result<Json, ApiError> {
        match req.get("action").and_then(Json::as_str) {
            Some("publish") => {
                let name = candidate_of(&req)?;
                let (generation, _) = self.publish_artifact(&name, req, CANDIDATE_PUBLISH)?;
                Ok(json::obj([
                    ("published", Json::Bool(true)),
                    ("variant", Json::Str(name)),
                    ("generation", Json::Num(generation as f64)),
                ]))
            }
            Some("install") => {
                let text = req.get("plan").and_then(Json::as_str).ok_or_else(|| {
                    ApiError::new(
                        codes::BAD_REQUEST,
                        "install needs \"plan\" (canonical string)",
                    )
                })?;
                let plan = SplitPlan::from_canonical(text)
                    .map_err(|e| ApiError::new(codes::BAD_PLAN, e.to_string()))?;
                let plan = self
                    .variants
                    .install(plan)
                    .map_err(|e| ApiError::new(codes::UNKNOWN_VARIANT, e))?;
                self.obs.events.record(
                    "experiment_install",
                    format!(
                        "split plan v{} installed ({})",
                        plan.version(),
                        plan.weights()
                            .iter()
                            .map(|(n, w)| format!("{n}:{w}"))
                            .collect::<Vec<_>>()
                            .join(",")
                    ),
                );
                Ok(json::obj([
                    ("installed", Json::Bool(true)),
                    ("version", Json::Num(plan.version() as f64)),
                    ("digest", Json::Str(format!("{:016x}", plan.digest()))),
                ]))
            }
            Some("halt") => {
                let had_plan = self.variants.halt();
                if had_plan {
                    self.obs
                        .events
                        .record("experiment_halt", "split plan dropped, traffic on control");
                }
                Ok(json::obj([("halted", Json::Bool(had_plan))]))
            }
            Some("promote-local") => {
                let name = candidate_of(&req)?;
                let candidate = self.variants.get(&name)?.slot.load();
                let control = &self.variants.control().slot;
                let generation = control
                    .publish_shared(Arc::clone(&candidate.model), Arc::clone(&candidate.vocab));
                self.obs.publishes.inc();
                self.obs.events.record(
                    "experiment_promote",
                    format!("candidate {name:?} promoted to control generation {generation}"),
                );
                Ok(json::obj([
                    ("promoted", Json::Bool(true)),
                    ("variant", Json::Str(name)),
                    ("generation", Json::Num(generation as f64)),
                ]))
            }
            Some("status") => Ok(self.variants.status_json()),
            Some("samples") => {
                let limit = match req.get("limit").and_then(Json::as_num) {
                    Some(n) if n >= 1.0 => n as usize,
                    _ => usize::MAX,
                };
                let samples = self
                    .variants
                    .recent_duels(limit)
                    .iter()
                    .map(DuelSample::to_json)
                    .collect();
                Ok(json::obj([
                    ("samples", Json::Arr(samples)),
                    ("duels_total", Json::Num(self.variants.duels_total() as f64)),
                ]))
            }
            other => Err(ApiError::new(
                codes::BAD_REQUEST,
                format!("unknown experiment action {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_every_verb() {
        for (name, want) in [
            ("stats", AdminOp::Stats),
            ("metrics", AdminOp::Metrics),
            ("events", AdminOp::Events),
            ("profile", AdminOp::Profile),
            ("publish", AdminOp::Publish),
            ("experiment", AdminOp::Experiment),
        ] {
            let req = json::obj([("op", Json::Str(name.into()))]);
            assert_eq!(AdminOp::parse(&req), Ok(Some(want)), "verb {name}");
            assert_eq!(want.name(), name, "name round-trips");
        }
    }

    #[test]
    fn parse_rejects_unknown_and_passes_rankings() {
        let ranking = json::parse(r#"{"symptom_ids":[1,2],"k":3}"#).unwrap();
        assert_eq!(AdminOp::parse(&ranking), Ok(None));
        // A non-string op is not an admin verb either — historically it
        // fell through to the ranking path on both layers.
        let numeric = json::parse(r#"{"op":7}"#).unwrap();
        assert_eq!(AdminOp::parse(&numeric), Ok(None));
        let unknown = json::parse(r#"{"op":"teleport"}"#).unwrap();
        assert_eq!(AdminOp::parse(&unknown), Err("teleport".to_string()));
    }

    #[test]
    fn only_publish_class_verbs_are_latency_exempt() {
        for op in [
            AdminOp::Stats,
            AdminOp::Metrics,
            AdminOp::Events,
            AdminOp::Profile,
        ] {
            assert!(!op.latency_exempt(), "{} is serving time", op.name());
        }
        assert!(AdminOp::Publish.latency_exempt());
        assert!(AdminOp::Experiment.latency_exempt());
    }
}
