//! The cluster front-end: one NDJSON endpoint over N replicas.
//!
//! [`Router`] speaks exactly the `smgcn-serve` wire protocol, so clients
//! cannot tell a router from a single replica — scaling out is a config
//! change, not a client change. Per request line:
//!
//! 1. parse the JSON (malformed lines are answered locally — a replica
//!    would reject them identically, so no hop is spent);
//! 2. intercept admin ops: `{"op":"stats"}` answers with *router* stats
//!    merged with each replica's live report, `{"op":"metrics"}` /
//!    `{"op":"events"}` aggregate the fleet's telemetry (per-replica
//!    plus a merged view), `{"op":"publish"}` runs a rolling publish
//!    across the fleet (see [`crate::publish`]). Every fleet-wide read
//!    is the same walk (`gather`): one [`crate::pool::ask`] per
//!    replica, and a replica that refuses or cannot be reached keeps
//!    its entry under a structured `{"code":"partial"}` marker;
//! 3. hash the canonical symptom-set key onto the consistent-hash ring
//!    ([`crate::ring`]) — the same presentation always lands on the same
//!    replica, so replica LRU caches stay hot;
//! 4. walk the ring's candidate list: lease a connection to the first
//!    available replica, forward, relay the response. Transport failures
//!    and retryable overload errors (`overloaded`, `queue_full`) move to
//!    the next candidate — the request is a pure read, so replays are
//!    safe. Only when every replica fails does the client see an error.
//!
//! When every candidate is at its in-flight cap the handler *waits*
//! briefly (bounded by `lease_patience`) instead of failing — bursty
//! saturation smooths out in milliseconds, and the per-replica caps are
//! what keep one hot key from queueing the world behind a single
//! backend.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smgcn_experiment::guardrail::{self, Guardrails, VariantStats};
use smgcn_experiment::{parse_weight_spec, SplitPlan, CONTROL};
use smgcn_obs::profile::{merge_folded, render_folded};
use smgcn_obs::{
    mint_trace_id, Counter, EventJournal, LatencyHistogram, ProfileHandle, Profiler, Registry,
    TraceBuilder,
};
use smgcn_serve::client::Unanswered;
use smgcn_serve::errors::codes;
use smgcn_serve::json::{self, Json};
use smgcn_serve::ops::{
    candidate_of, deadline_budget, event_json, events_limit, trace_json, AdminOp, ApiError,
    OpHandler,
};
use smgcn_serve::reactor::{Reactor, Service};
use smgcn_serve::server::{samples_to_json, Running, StopHandle};
use smgcn_serve::DuelSample;

use crate::experiment as fleet;
use crate::experiment::FleetOutcome;
use crate::pool::{ask, ClusterObs, PoolConfig, Replica, ReplicaPool};
use crate::publish::{rolling_publish, PublishReport};
use crate::ring::{key_of_ids, key_of_names, HashRing};

/// Router tuning knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Maximum concurrent client connections (extras are shed with a
    /// structured `overloaded` error, mirroring the replica behaviour).
    pub max_connections: usize,
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: usize,
    /// Pool and health-probe settings.
    pub pool: PoolConfig,
    /// Interval between active health probes (zero disables probing).
    pub probe_interval: Duration,
    /// How long a request may wait for an in-flight slot on some replica
    /// before the router gives up and sheds it.
    pub lease_patience: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            max_connections: 256,
            vnodes: 128,
            pool: PoolConfig::default(),
            probe_interval: Duration::from_millis(200),
            lease_patience: Duration::from_secs(2),
        }
    }
}

struct RouterEngine {
    ring: HashRing,
    pool: ReplicaPool,
    config: RouterConfig,
    started: Instant,
    /// Router-local metrics (`router_*` plus the pool's `cluster_*`
    /// ejection/recovery counters), snapshotted by `{"op":"metrics"}`.
    registry: Arc<Registry>,
    /// Fleet event journal: ejections/recoveries (via the pool hooks),
    /// publishes, sheds and exhaustion land here.
    events: Arc<EventJournal>,
    requests: Counter,
    forwarded: Counter,
    /// Requests that needed at least one failover hop.
    failovers: Counter,
    /// Individual forward attempts that failed (transport or retryable).
    retries: Counter,
    /// Client connections refused at the accept loop.
    sheds: Counter,
    /// Requests that exhausted every replica.
    exhausted: Counter,
    /// Requests whose `deadline_ms` budget expired inside the router
    /// (at arrival or mid-failover) — shed without another hop.
    deadline_sheds: Counter,
    /// Fleet rolling publishes driven through this router.
    publishes: Counter,
    /// Wall time of the forward path (route + replica + relay), µs.
    forward_us: Arc<LatencyHistogram>,
    /// The router's continuous profiler: forward wall time folds under
    /// `router;forward`, fleet-merged with the replicas' stacks by
    /// `{"op":"profile"}`.
    profiler: Profiler,
    prof_forward: ProfileHandle,
    /// Serializes fleet-level rolling publishes: two interleaved
    /// rollouts could leave replicas serving *different* models under
    /// the same generation number (each replica numbers generations
    /// locally), permanently breaking ranking/generation consistency
    /// across failover. One rollout at a time makes the last publish win
    /// everywhere.
    publish_lock: std::sync::Mutex<()>,
    /// The active split plan, mirrored from the last fleet install. The
    /// router injects an explicit `"variant"` assignment into every
    /// forwarded query while a split is live: replicas multiplex many
    /// clients over pooled connections, so replica-side assignment
    /// would key on the wrong identity and break stickiness.
    split: std::sync::RwLock<Option<Arc<SplitPlan>>>,
    /// Fleet split installs/updates driven through this router.
    split_installs: Counter,
    /// Guardrail-cleared candidate promotions.
    promotes: Counter,
    /// Fleet experiment halts (operator-requested or install rollback).
    experiment_halts: Counter,
}

/// The raw inputs of an A/B comparison report, gathered fleet-wide.
struct CompareData {
    /// Per-variant serving stats (control first), from the merged
    /// variant-labeled metrics.
    stats: Vec<VariantStats>,
    /// Journaled duel samples from every reachable replica.
    samples: Vec<DuelSample>,
    /// True when some replica could not contribute.
    partial: bool,
}

/// Outcome of one replica attempt in the failover walk.
enum Attempt {
    /// The replica answered (success or a non-retryable client error).
    Served(String),
    /// The replica answered with a retryable overload shed — it is up
    /// but saturated; re-forwarding at it amplifies the overload.
    Shed,
    /// Transport failed; the replica has been ejected with backoff.
    TransportFailed,
    /// All in-flight slots taken — momentarily busy, worth waiting for.
    AtCapacity,
    /// Ejected and still backing off; skipped without blame.
    Ejected,
}

/// Is this replica response a retryable overload signal (the replica
/// never scored the request, so replaying it elsewhere is safe)? The
/// wire-level `retryable` flag is authoritative when present; a
/// flagless error falls back to the shared pre-scoring-shed
/// classification in [`smgcn_serve::is_retryable`], so the router and
/// replicas can never disagree about which codes are safe to replay.
fn is_retryable_error(response: &str) -> bool {
    // Cheap pre-filter before parsing: errors of any kind are rare.
    if !response.contains("\"error\"") {
        return false;
    }
    let Some(err) = json::parse(response)
        .ok()
        .and_then(|r| r.get("error").cloned())
    else {
        return false;
    };
    match err.get("retryable") {
        Some(flag) => flag == &Json::Bool(true),
        None => err
            .get("code")
            .and_then(Json::as_str)
            .is_some_and(smgcn_serve::is_retryable),
    }
}

impl RouterEngine {
    /// The affinity key of a request: the canonical (sorted) symptom-id
    /// set when ids are given, the name set otherwise. Requests without
    /// either still hash (to a constant) so they take a consistent path.
    fn route_key(req: &Json) -> u64 {
        if let Some(ids) = req.get("symptom_ids").and_then(Json::as_arr) {
            let mut numeric: Vec<u32> = ids
                .iter()
                .filter_map(|v| v.as_num().map(|n| n as u32))
                .collect();
            numeric.sort_unstable();
            numeric.dedup();
            return key_of_ids(&numeric);
        }
        if let Some(names) = req.get("symptoms").and_then(Json::as_arr) {
            let names: Vec<&str> = names.iter().filter_map(Json::as_str).collect();
            return key_of_names(&names);
        }
        key_of_ids(&[])
    }

    /// One attempt against one replica; see [`Attempt`] for what each
    /// outcome means to the failover walk.
    fn attempt(&self, replica: &crate::pool::Replica, line: &str) -> Attempt {
        if !replica.available() {
            return Attempt::Ejected;
        }
        let Some(mut lease) = replica.try_lease() else {
            // Available a moment ago but no lease: either its in-flight
            // cap is filled (still available — worth waiting for) or the
            // connect inside try_lease just failed and ejected it.
            return if replica.available() {
                Attempt::AtCapacity
            } else {
                Attempt::TransportFailed
            };
        };
        // A pooled connection may be stale (the peer restarted since it
        // was parked): its failure earns one retry on a *fresh* socket —
        // never a second pooled one, which could be just as stale and
        // would get a healthy restarted replica ejected.
        let mut fresh_tried = !lease.pooled;
        loop {
            match lease.conn.round_trip(line) {
                Ok(response) => {
                    replica.release(lease);
                    if is_retryable_error(&response) {
                        // Shed without scoring: transport is fine, the
                        // request is safe to replay on the next candidate.
                        return Attempt::Shed;
                    }
                    return Attempt::Served(response);
                }
                Err(_) if !fresh_tried => {
                    replica.discard_quiet(lease);
                    fresh_tried = true;
                    lease = match replica.lease_fresh() {
                        Some(fresh) => fresh,
                        None => return Attempt::TransportFailed,
                    };
                }
                Err(_) => {
                    replica.discard(lease, "forward failed");
                    return Attempt::TransportFailed;
                }
            }
        }
    }

    /// The structured non-retryable shed for a request whose
    /// `deadline_ms` budget ran out inside the router. Non-retryable on
    /// purpose: the client has stopped waiting, so another attempt
    /// anywhere only burns fleet capacity.
    fn deadline_shed(&self, detail: &str) -> String {
        self.deadline_sheds.inc();
        self.events.record("deadline_shed", detail.to_string());
        let shed = ApiError::new(
            codes::DEADLINE_EXCEEDED,
            format!("deadline_ms budget exhausted: {detail}"),
        );
        let mut reply = shed.to_json();
        // Unlike a replica's, the router's shed says `"retryable":false`
        // out loud.
        if let Json::Obj(reply) = &mut reply {
            if let Some(Json::Obj(error)) = reply.get_mut("error") {
                error.insert("retryable".to_string(), Json::Bool(false));
            }
        }
        reply.to_string()
    }

    /// Forwards one request line, walking the candidate list with
    /// failover. Returns the replica's raw response line.
    ///
    /// When the request carries a deadline, every hop forwards the
    /// *remaining* budget (the line is re-serialized with a decremented
    /// `deadline_ms`), and the walk stops — with a non-retryable
    /// `deadline_exceeded` — the moment the budget runs out, instead of
    /// burning more hops on an answer nobody is waiting for.
    fn forward(&self, key: u64, line: &str, req: &Json, req_deadline: Option<Instant>) -> String {
        let candidates = self.ring.candidates(key);
        let deadline = Instant::now() + self.config.lease_patience;
        let mut hops = 0u64;
        let mut pause = Duration::from_micros(200);
        loop {
            let mut sheds_this_pass = 0usize;
            let mut at_capacity_this_pass = 0usize;
            for &id in &candidates {
                // Re-anchor the forwarded budget before every hop so the
                // replica's batcher sees what is *left*, not what the
                // client originally granted.
                let hop_line = match req_deadline {
                    None => None,
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return self.deadline_shed("expired during the failover walk");
                        }
                        let remaining = d.duration_since(now).as_millis().max(1) as f64;
                        let mut fields = match req {
                            Json::Obj(map) => map.clone(),
                            _ => Default::default(),
                        };
                        fields.insert("deadline_ms".to_string(), Json::Num(remaining));
                        Some(Json::Obj(fields).to_string())
                    }
                };
                let hop_line = hop_line.as_deref().unwrap_or(line);
                match self.attempt(self.pool.replica(id), hop_line) {
                    Attempt::Served(response) => {
                        self.forwarded.inc();
                        if hops > 0 {
                            self.failovers.inc();
                        }
                        return response;
                    }
                    Attempt::Shed => {
                        self.retries.inc();
                        hops += 1;
                        sheds_this_pass += 1;
                    }
                    Attempt::TransportFailed => {
                        self.retries.inc();
                        hops += 1;
                    }
                    Attempt::AtCapacity => {
                        at_capacity_this_pass += 1;
                    }
                    Attempt::Ejected => {}
                }
            }
            // Some replica actively shed the request and nobody else is
            // even momentarily busy (the rest are ejected or failed,
            // which ejects them): waiting would only re-forward the same
            // request at the replica whose saturation caused the shed.
            // Propagate the backpressure to the client instead, with the
            // same retryable contract the replicas use. When a candidate
            // is merely at its in-flight cap, waiting *is* productive —
            // slots free up in about one service time.
            if sheds_this_pass > 0 && at_capacity_this_pass == 0 {
                self.exhausted.inc();
                self.events
                    .record("exhausted", "every replica shed the request");
                return ApiError::retryable(
                    codes::OVERLOADED,
                    "every replica shed the request (fleet saturated)",
                )
                .to_json()
                .to_string();
            }
            if Instant::now() >= deadline {
                self.exhausted.inc();
                self.events.record(
                    "exhausted",
                    "lease patience expired (all ejected or saturated)",
                );
                return ApiError::retryable(
                    codes::NO_REPLICAS,
                    "no replica available (all ejected or saturated)",
                )
                .to_json()
                .to_string();
            }
            // A request whose own budget dies before the next pass is
            // shed now — waiting for a lease slot on its behalf would
            // just deliver an answer after the client hung up.
            if let Some(d) = req_deadline {
                if Instant::now() + pause >= d {
                    return self.deadline_shed("expired waiting for a replica slot");
                }
            }
            // Candidates were ejected or at their in-flight caps: wait
            // for a slot or a backoff expiry, backing the poll off
            // exponentially so a long outage doesn't spin.
            std::thread::sleep(pause);
            pause = (pause * 2).min(Duration::from_millis(10));
        }
    }

    /// The one walk behind every fleet-wide read: asks each replica
    /// `request` on a dedicated admin connection and renders one entry
    /// per replica — its `addr` plus whatever `fields` makes of the
    /// answer. A replica that refuses or cannot be reached still gets
    /// its entry (`fields` sees `None`), carrying a structured
    /// `{"code":"partial"}` marker that says why, so callers see exactly
    /// which replica is missing instead of a silently smaller
    /// aggregate. Returns the entries and whether any was partial.
    ///
    /// Deliberately does *not* touch the replicas' health records — an
    /// admin snapshot must observe the fleet, not steer ejection.
    fn gather(
        &self,
        verb: &str,
        request: &str,
        mut fields: impl FnMut(&Replica, Option<Json>) -> Vec<(&'static str, Json)>,
    ) -> (Json, bool) {
        let mut partial = false;
        let entries = self.pool.replicas().iter().map(|replica| {
            let (answer, unanswered) = match ask(replica.addr, &self.config.pool, request) {
                Ok(answer) => (Some(answer), None),
                Err(unanswered) => (None, Some(unanswered)),
            };
            let mut entry = fields(replica, answer);
            entry.push(("addr", Json::Str(replica.addr.to_string())));
            if let Some(unanswered) = unanswered {
                partial = true;
                let message = match unanswered {
                    Unanswered::Refused(reply) => format!("replica refused {verb}: {reply}"),
                    transport => transport.to_string(),
                };
                let marker = [
                    ("code", Json::Str(codes::PARTIAL.into())),
                    ("message", Json::Str(message)),
                ];
                entry.push(("error", json::obj(marker)));
            }
            json::obj(entry)
        });
        (Json::Arr(entries.collect()), partial)
    }

    /// Router-level `{"op":"stats"}`: fleet health plus routing
    /// counters, merged with each replica's own live stats report. A
    /// replica that cannot answer keeps its health entry beside the
    /// `partial` marker.
    fn stats(&self) -> Json {
        let (replicas, partial) = self.gather("stats", r#"{"op":"stats"}"#, |r, stats| {
            let h = r.health();
            let mut fields = vec![
                ("healthy", Json::Bool(h.healthy)),
                ("in_flight", Json::Num(r.in_flight() as f64)),
                (
                    "consecutive_failures",
                    Json::Num(f64::from(h.consecutive_failures)),
                ),
            ];
            if let Some(g) = h.generation {
                fields.push(("generation", Json::Num(g as f64)));
            }
            if let Some(p99) = h.p99_us {
                fields.push(("p99_us", Json::Num(p99)));
            }
            if let Some(reason) = h.eject_reason {
                fields.push(("eject_reason", Json::Str(reason.to_string())));
            }
            fields.extend(stats.map(|stats| ("stats", stats)));
            fields
        });
        json::obj([
            ("router", Json::Bool(true)),
            ("uptime_s", Json::Num(self.started.elapsed().as_secs_f64())),
            ("requests", Json::Num(self.requests.get() as f64)),
            ("forwarded", Json::Num(self.forwarded.get() as f64)),
            ("retries", Json::Num(self.retries.get() as f64)),
            ("failovers", Json::Num(self.failovers.get() as f64)),
            ("sheds", Json::Num(self.sheds.get() as f64)),
            ("exhausted", Json::Num(self.exhausted.get() as f64)),
            (
                "deadline_sheds",
                Json::Num(self.deadline_sheds.get() as f64),
            ),
            ("partial", Json::Bool(partial)),
            ("replicas", replicas),
        ])
    }

    /// The `{"op":"metrics"}` admin verb, fleet-wide: the router's own
    /// registry, every replica's snapshot, and a merged view (counters
    /// sum; gauges and quantiles take the fleet max; histogram counts
    /// sum).
    fn metrics(&self) -> Json {
        let mut merged = std::collections::BTreeMap::new();
        let router_metrics = samples_to_json(&self.registry.samples());
        merge_metrics(&mut merged, &router_metrics);
        let (replicas, partial) = self.gather("metrics", r#"{"op":"metrics"}"#, |_, snap| {
            let Some(snap) = snap else {
                return Vec::new();
            };
            let metrics = snap.get("metrics").cloned().unwrap_or(Json::Null);
            merge_metrics(&mut merged, &metrics);
            let mut fields = vec![("metrics", metrics)];
            fields.extend(snap.get("generation").map(|g| ("generation", g.clone())));
            fields
        });
        json::obj([
            ("router", router_metrics),
            ("replicas", replicas),
            ("merged", Json::Obj(merged)),
            ("partial", Json::Bool(partial)),
        ])
    }

    /// The `{"op":"profile"}` admin verb, fleet-wide: the router's own
    /// folded stacks merged with every replica's, so one
    /// flamegraph-collapsed report covers routing and serving. Stacks
    /// merge by summing microseconds per identical frame path; the
    /// totals sum too, so the coverage ratio (`profile_total_us` vs
    /// `latency_total_us`) stays meaningful fleet-wide.
    fn profile(&self) -> Json {
        let mut merged = std::collections::BTreeMap::new();
        merge_folded(&mut merged, &self.profiler.fold());
        let mut latency_total = 0.0;
        let (replicas, partial) = self.gather("profile", r#"{"op":"profile"}"#, |_, snap| {
            let Some(snap) = snap else {
                return Vec::new();
            };
            if let Some(folded) = snap.get("folded").and_then(Json::as_str) {
                merge_folded(&mut merged, folded);
            }
            let field = |key| snap.get(key).cloned().unwrap_or(Json::Null);
            latency_total += field("latency_total_us").as_num().unwrap_or(0.0);
            vec![
                ("folded", field("folded")),
                ("profile_total_us", field("profile_total_us")),
                ("latency_total_us", field("latency_total_us")),
            ]
        });
        let profile_total: u64 = merged.values().sum();
        json::obj([
            ("router", Json::Str(self.profiler.fold())),
            ("replicas", replicas),
            ("folded", Json::Str(render_folded(&merged))),
            ("profile_total_us", Json::Num(profile_total as f64)),
            ("latency_total_us", Json::Num(latency_total)),
            ("partial", Json::Bool(partial)),
        ])
    }

    /// The `{"op":"events"}` admin verb, fleet-wide: the router's own
    /// journal tail plus each replica's (optional `"limit"`, default 64).
    fn events_report(&self, req: &Json) -> Json {
        let limit = events_limit(req);
        let own = self.events.recent(limit);
        let request = json::obj([
            ("op", Json::Str("events".into())),
            ("limit", Json::Num(limit as f64)),
        ])
        .to_string();
        let (replicas, partial) = self.gather("events", &request, |_, snap| {
            let Some(snap) = snap else {
                return Vec::new();
            };
            let field = |key| snap.get(key).cloned().unwrap_or(Json::Null);
            vec![
                ("events", field("events")),
                ("events_total", field("events_total")),
            ]
        });
        json::obj([
            ("router", Json::Arr(own.iter().map(event_json).collect())),
            ("events_total", Json::Num(self.events.total() as f64)),
            ("replicas", replicas),
            ("partial", Json::Bool(partial)),
        ])
    }

    /// The split plan currently mirrored on this router, if any.
    fn active_split(&self) -> Option<Arc<SplitPlan>> {
        self.split.read().expect("split lock").clone()
    }

    /// The `{"op":"experiment"}` admin verb, fleet-wide. Actions:
    ///
    /// - `"publish"` — roll a candidate artifact across the fleet (one
    ///   replica at a time, stop on first rejection);
    /// - `"install"` — install or update a traffic split atomically: a
    ///   preflight confirms every replica serves every weighted variant
    ///   before any replica is touched, and a mid-roll failure halts
    ///   the fleet back to control;
    /// - `"halt"` / `"abort"` — collapse all split traffic back to
    ///   control, fleet-wide, in one command;
    /// - `"status"` — the router's plan plus each replica's view;
    /// - `"compare"` — the A/B comparison report: per-variant
    ///   qps / p99 / error-rate from the fleet-merged labeled metrics,
    ///   plus team-draft interleaving over the journaled duel samples;
    /// - `"promote"` — verify the comparison against the guardrails,
    ///   then roll the candidate into every control slot and halt.
    fn experiment(&self, req: &Json) -> Json {
        match req.get("action").and_then(Json::as_str) {
            Some("publish") => self.experiment_publish(req),
            Some("install") => self.experiment_install(req),
            Some("halt") | Some("abort") => self.experiment_halt(),
            Some("status") => self.experiment_status(),
            Some("compare") => self.compare_json(&self.collect_compare()),
            Some("promote") => self.experiment_promote(req),
            other => ApiError::new(
                codes::BAD_REQUEST,
                format!("unknown experiment action {other:?}"),
            )
            .to_json(),
        }
    }

    fn experiment_publish(&self, req: &Json) -> Json {
        let name = match candidate_of(req) {
            Ok(name) => name,
            Err(e) => return e.to_json(),
        };
        let Some(artifact) = req.get("artifact").and_then(Json::as_str) else {
            return ApiError::new(
                codes::BAD_REQUEST,
                "candidate publish needs \"artifact\" (base64)",
            )
            .to_json();
        };
        let _rollout = self.publish_lock.lock().expect("publish lock");
        let report = fleet::rolling_candidate_publish(&self.pool, &name, artifact);
        let what = format!("candidate {name:?}");
        self.journal_rollout("experiment_publish", &what, &report, |reach| {
            format!("{what} rolled to {reach}")
        });
        let Json::Obj(mut fields) = report.to_json() else {
            unreachable!("publish report is an object");
        };
        fields.insert("variant".to_string(), Json::Str(name));
        Json::Obj(fields)
    }

    fn experiment_install(&self, req: &Json) -> Json {
        // Resolve the target plan: a raw canonical plan wins; otherwise
        // a weight spec ("control:90,cand:10") either *updates* the
        // active plan (bucket-preserving — unchanged variants keep
        // every sticky key they had) or mints a fresh one.
        let plan = if let Some(text) = req.get("plan").and_then(Json::as_str) {
            match SplitPlan::from_canonical(text) {
                Ok(plan) => plan,
                Err(e) => return ApiError::new(codes::BAD_PLAN, e.to_string()).to_json(),
            }
        } else if let Some(spec) = req.get("weights").and_then(Json::as_str) {
            let weights = match parse_weight_spec(spec) {
                Ok(w) => w,
                Err(e) => return ApiError::new(codes::BAD_PLAN, e.to_string()).to_json(),
            };
            let built = match self.active_split() {
                Some(current) => current.update(&weights),
                None => {
                    let seed = req
                        .get("seed")
                        .and_then(Json::as_num)
                        .map(|n| n as u64)
                        .unwrap_or(fleet::DEFAULT_SPLIT_SEED);
                    SplitPlan::new(seed, 1, &weights)
                }
            };
            match built {
                Ok(plan) => plan,
                Err(e) => return ApiError::new(codes::BAD_PLAN, e.to_string()).to_json(),
            }
        } else {
            return ApiError::new(
                codes::BAD_REQUEST,
                "install needs \"plan\" (canonical) or \"weights\" (name:weight,...)",
            )
            .to_json();
        };
        // Serialized with publishes: an install racing a rollout could
        // pin a variant to a generation the rollout is replacing.
        let _rollout = self.publish_lock.lock().expect("publish lock");
        if let Err((code, message)) = fleet::preflight_install(&self.pool, &plan) {
            self.events.record(
                "experiment_install_rejected",
                format!("split v{} refused: {message}", plan.version()),
            );
            return ApiError::new(code, message).to_json();
        }
        let outcomes = fleet::install_everywhere(&self.pool, &plan);
        let ok = outcomes.iter().filter(|o| o.ok).count();
        if ok < outcomes.len() {
            // Atomicity: a partial split is worse than no split (the
            // same client would flip variants across replicas), so any
            // mid-roll failure collapses the whole fleet to control.
            let _ = fleet::halt_everywhere(&self.pool);
            *self.split.write().expect("split lock") = None;
            self.registry.gauge("router_split_version").set(0);
            self.experiment_halts.inc();
            self.events.record(
                "experiment_install_aborted",
                format!(
                    "split v{} failed on {}/{} replicas; fleet halted back to control",
                    plan.version(),
                    outcomes.len() - ok,
                    outcomes.len()
                ),
            );
            return ApiError::new(
                codes::PARTIAL,
                "split install failed mid-roll; fleet halted back to control",
            )
            .to_json_with([(
                "outcomes",
                Json::Arr(outcomes.iter().map(FleetOutcome::to_json).collect()),
            )]);
        }
        let version = plan.version();
        let digest = format!("{:016x}", plan.digest());
        let weights = plan
            .weights()
            .iter()
            .map(|(n, w)| format!("{n}:{w}"))
            .collect::<Vec<_>>()
            .join(",");
        self.registry.gauge("router_split_version").set(version);
        *self.split.write().expect("split lock") = Some(Arc::new(plan));
        self.split_installs.inc();
        self.events.record(
            "experiment_install",
            format!("split v{version} ({weights}) installed on {ok} replicas"),
        );
        json::obj([
            ("installed", Json::Bool(true)),
            ("version", Json::Num(version as f64)),
            ("digest", Json::Str(digest)),
            ("weights", Json::Str(weights)),
            ("replicas", Json::Num(ok as f64)),
        ])
    }

    fn experiment_halt(&self) -> Json {
        let _rollout = self.publish_lock.lock().expect("publish lock");
        let outcomes = fleet::halt_everywhere(&self.pool);
        let had_plan = self.split.write().expect("split lock").take().is_some();
        self.registry.gauge("router_split_version").set(0);
        self.experiment_halts.inc();
        let ok = outcomes.iter().filter(|o| o.ok).count();
        self.events.record(
            "experiment_halt",
            format!("split halted on {ok}/{} replicas", outcomes.len()),
        );
        json::obj([
            ("halted", Json::Bool(true)),
            ("had_plan", Json::Bool(had_plan)),
            ("replicas", Json::Num(ok as f64)),
            ("partial", Json::Bool(ok < outcomes.len())),
            (
                "outcomes",
                Json::Arr(outcomes.iter().map(FleetOutcome::to_json).collect()),
            ),
        ])
    }

    fn experiment_status(&self) -> Json {
        let request = fleet::action_line("status", []);
        let (replicas, partial) = self.gather("status", &request, |_, status| {
            Vec::from_iter(status.map(|status| ("status", status)))
        });
        let mut fields = Vec::new();
        match self.active_split() {
            Some(plan) => {
                fields.push(("plan", Json::Str(plan.to_canonical())));
                fields.push(("plan_version", Json::Num(plan.version() as f64)));
                fields.push(("plan_digest", Json::Str(format!("{:016x}", plan.digest()))));
            }
            None => fields.push(("plan", Json::Null)),
        }
        fields.push(("replicas", replicas));
        fields.push(("partial", Json::Bool(partial)));
        json::obj(fields)
    }

    /// Gathers the comparison inputs from the fleet: every variant name
    /// any replica serves, the merged variant-labeled metrics, and the
    /// journaled duel samples. A replica that cannot contribute to any
    /// of the three makes the report `partial`.
    fn collect_compare(&self) -> CompareData {
        let mut names: Vec<String> = vec![CONTROL.to_string()];
        let mut merged = std::collections::BTreeMap::new();
        let mut samples: Vec<DuelSample> = Vec::new();
        /// What one replica listed under `key` (nothing, if it did not answer).
        fn listed<'a>(answer: &'a Option<Json>, key: &str) -> &'a [Json] {
            let items = answer.as_ref().and_then(|a| a.get(key)?.as_arr());
            items.unwrap_or_default()
        }
        let request = fleet::action_line("status", []);
        let (_, no_status) = self.gather("status", &request, |_, status| {
            for variant in listed(&status, "variants") {
                match variant.get("name").and_then(Json::as_str) {
                    Some(name) if !names.iter().any(|n| n == name) => names.push(name.to_string()),
                    _ => {}
                }
            }
            Vec::new()
        });
        let (_, no_metrics) = self.gather("metrics", r#"{"op":"metrics"}"#, |_, snap| {
            if let Some(metrics) = snap.as_ref().and_then(|snap| snap.get("metrics")) {
                merge_metrics(&mut merged, metrics);
            }
            Vec::new()
        });
        let request = fleet::action_line("samples", []);
        let (_, no_samples) = self.gather("samples", &request, |_, snap| {
            let duels = listed(&snap, "samples");
            samples.extend(duels.iter().filter_map(DuelSample::from_json));
            Vec::new()
        });
        names.sort();
        // Control leads the report whatever the sort said.
        if let Some(pos) = names.iter().position(|n| n == CONTROL) {
            let control = names.remove(pos);
            names.insert(0, control);
        }
        let stats = fleet::variant_stats_from_merged(&merged, &names);
        CompareData {
            stats,
            samples,
            partial: no_status || no_metrics || no_samples,
        }
    }

    /// Renders the `{"action":"compare"}` report.
    fn compare_json(&self, data: &CompareData) -> Json {
        let plan = self.active_split();
        let uptime_s = self.started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        let variants: Vec<Json> = data
            .stats
            .iter()
            .map(|s| {
                let weight = match plan.as_ref() {
                    Some(p) => p.weight_of(&s.name).unwrap_or(0),
                    None if s.name == CONTROL => 100,
                    None => 0,
                };
                json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("weight", Json::Num(weight as f64)),
                    ("requests", Json::Num(s.requests as f64)),
                    ("errors", Json::Num(s.errors as f64)),
                    ("error_rate", Json::Num(s.error_rate())),
                    ("qps", Json::Num(s.requests as f64 / uptime_s)),
                    ("p99_us", Json::Num(s.p99_us as f64)),
                ])
            })
            .collect();
        let seed = plan.as_ref().map(|p| p.seed()).unwrap_or(0);
        let interleaving: Vec<Json> = fleet::interleave_by_variant(&data.samples, seed)
            .iter()
            .map(|(variant, summary)| fleet::interleave_summary_json(variant, summary))
            .collect();
        let mut fields = vec![
            ("variants", Json::Arr(variants)),
            ("interleaving", Json::Arr(interleaving)),
            ("duels", Json::Num(data.samples.len() as f64)),
        ];
        match &plan {
            Some(p) => fields.push(("plan", Json::Str(p.to_canonical()))),
            None => fields.push(("plan", Json::Null)),
        }
        fields.push(("partial", Json::Bool(data.partial)));
        json::obj(fields)
    }

    fn experiment_promote(&self, req: &Json) -> Json {
        let name = match candidate_of(req) {
            Ok(name) => name,
            Err(e) => return e.to_json(),
        };
        let defaults = Guardrails::default();
        let rails = Guardrails {
            max_error_rate: req
                .get("max_error_rate")
                .and_then(Json::as_num)
                .unwrap_or(defaults.max_error_rate),
            max_p99_delta: req
                .get("max_p99_delta")
                .and_then(Json::as_num)
                .unwrap_or(defaults.max_p99_delta),
            min_samples: req
                .get("min_samples")
                .and_then(Json::as_num)
                .map(|n| n as u64)
                .unwrap_or(defaults.min_samples),
        };
        let data = self.collect_compare();
        let find = |needle: &str| data.stats.iter().find(|s| s.name == needle);
        let (Some(control), Some(candidate)) = (find(CONTROL), find(&name)) else {
            return ApiError::new(
                codes::UNKNOWN_VARIANT,
                format!("no serving stats for variant {name:?} — is it published and split?"),
            )
            .to_json();
        };
        let violations = guardrail::check(control, candidate, &rails);
        if !violations.is_empty() {
            self.events.record(
                "promote_refused",
                format!("candidate {name:?}: {}", violations.join("; ")),
            );
            return ApiError::new(
                codes::GUARDRAIL,
                format!("candidate {name:?} does not clear the guardrails"),
            )
            .to_json_with([(
                "violations",
                Json::Arr(violations.into_iter().map(Json::Str).collect()),
            )]);
        }
        let _rollout = self.publish_lock.lock().expect("publish lock");
        let outcomes = fleet::promote_everywhere(&self.pool, &name);
        let ok = outcomes.iter().filter(|o| o.ok).count();
        let outcomes_json = Json::Arr(outcomes.iter().map(FleetOutcome::to_json).collect());
        if ok < self.pool.len() {
            // Stop where the roll stopped, exactly like a publish: the
            // promoted replicas keep the new control (it cleared the
            // guardrails), the split stays active, and the journal says
            // how far the roll got so the operator can retry.
            self.events.record(
                "promote_aborted",
                format!(
                    "candidate {name:?}: promoted {ok}/{} replicas before a failure; split left active",
                    self.pool.len()
                ),
            );
            return ApiError::new(
                codes::PARTIAL,
                format!("promotion stopped after {ok}/{} replicas", self.pool.len()),
            )
            .to_json_with([("outcomes", outcomes_json)]);
        }
        // Candidate and control are now the same model everywhere;
        // keeping the split running would only skew future metrics.
        let halted = fleet::halt_everywhere(&self.pool);
        *self.split.write().expect("split lock") = None;
        self.registry.gauge("router_split_version").set(0);
        self.promotes.inc();
        self.events.record(
            "promote",
            format!("candidate {name:?} promoted to control on {ok}/{ok} replicas; split halted"),
        );
        json::obj([
            ("promoted", Json::Bool(true)),
            ("variant", Json::Str(name)),
            ("replicas", Json::Num(ok as f64)),
            ("halted", Json::Bool(halted.iter().all(|o| o.ok))),
            ("outcomes", outcomes_json),
        ])
    }

    /// One client request line in, one response line out. `conn_key`
    /// identifies the client connection — the sticky-assignment
    /// fallback for queries that do not declare a `"client"` id.
    fn handle_line(&self, line: &str, conn_key: &str) -> String {
        self.requests.inc();
        let arrived = Instant::now();
        let req = match json::parse(line) {
            Ok(req) => req,
            Err(e) => {
                return ApiError::new(codes::BAD_JSON, format!("bad request JSON: {e}"))
                    .to_json()
                    .to_string()
            }
        };
        // A known admin verb is answered here, fleet-aggregated.
        // `Ok(None)` is a ranking — forwarded below. `Err(unknown)`
        // also falls through to the forward path on purpose: the
        // replica answers unknown ops (with `unknown_op`), so a
        // replica-side verb this router predates still works.
        if let Ok(Some(op)) = AdminOp::parse(&req) {
            return self.dispatch(op, req).to_string();
        }
        // While a split is live, every forwarded query carries an
        // explicit variant assignment: replicas multiplex many clients
        // over the router's pooled connections, so replica-side
        // assignment would key on the wrong identity. The sticky key is
        // the client-declared id when present (stable across
        // reconnects), this connection otherwise. An explicit
        // `"variant"` override passes through untouched.
        let mut req = req;
        let mut line = std::borrow::Cow::Borrowed(line);
        if req.get("op").is_none() && req.get("variant").is_none() {
            if let Some(plan) = self.active_split() {
                if let Json::Obj(fields) = &mut req {
                    let sticky = fields
                        .get("client")
                        .and_then(Json::as_str)
                        .unwrap_or(conn_key)
                        .to_string();
                    let assigned = plan.assign(&sticky).to_string();
                    fields.insert("variant".to_string(), Json::Str(assigned));
                }
                line = std::borrow::Cow::Owned(req.to_string());
            }
        }
        let line = line.as_ref();
        // Everything else — rankings and any future replica-side op —
        // forwards with affinity + failover, under a deadline when the
        // client supplied one. The router decrements the remaining budget
        // per failover hop and forwards it, so replicas shed work the
        // client has already given up on.
        let deadline = match deadline_budget(&req) {
            Ok(Some(budget)) if budget.is_zero() => {
                return self.deadline_shed("deadline_ms arrived already exhausted");
            }
            Ok(budget) => budget.map(|budget| arrived + budget),
            Err(e) => return e.to_json().to_string(),
        };
        let key = Self::route_key(&req);
        if req.get("trace") == Some(&Json::Bool(true)) {
            return self.forward_traced(key, line, &req, deadline);
        }
        self.forward_timed(key, line, &req, deadline).0
    }

    /// [`RouterEngine::forward`], its wall time booked once under
    /// `router_forward_us` and the `router;forward` stack, and returned
    /// beside the response.
    fn forward_timed(
        &self,
        key: u64,
        line: &str,
        req: &Json,
        deadline: Option<Instant>,
    ) -> (String, u64) {
        let t0 = Instant::now();
        let response = self.forward(key, line, req, deadline);
        let wall_us = t0.elapsed().as_micros() as u64;
        self.forward_us.record(wall_us);
        self.prof_forward.add(wall_us);
        (response, wall_us)
    }

    /// Traced forward: the router contributes its own spans around the
    /// replica's, so the client sees one timeline covering the whole
    /// hop — `route` (parse + ring walk up to the forward), the
    /// replica's spans verbatim (rebased onto the router clock), `net`
    /// (forward wall time the replica did not account for: sockets,
    /// queueing, failover hops) and `relay` (response rewrite).
    ///
    /// The trace id is client-supplied when present, minted here
    /// otherwise and injected into the forwarded request so the replica
    /// traces under the same id. Only traced requests are re-serialized —
    /// the untraced path forwards the raw line untouched.
    fn forward_traced(
        &self,
        key: u64,
        line: &str,
        req: &Json,
        deadline: Option<Instant>,
    ) -> String {
        let mut builder: TraceBuilder = TraceBuilder::new(Instant::now());
        let supplied = req
            .get("trace_id")
            .and_then(Json::as_str)
            .map(str::to_string);
        // The forwarded *request object* (not just the line) carries the
        // minted trace id: a deadline hop re-serializes from the object,
        // and the replica must trace under the same id either way.
        let (trace_id, forward_req, forward_line) = match supplied {
            Some(id) => (id, req.clone(), line.to_string()),
            None => {
                let id = mint_trace_id();
                let mut fields = match req {
                    Json::Obj(map) => map.clone(),
                    _ => Default::default(),
                };
                fields.insert("trace_id".to_string(), Json::Str(id.clone()));
                let forward_req = Json::Obj(fields);
                let forward_line = forward_req.to_string();
                (id, forward_req, forward_line)
            }
        };
        builder.cover_to_now("route");
        let (raw, wall_us) = self.forward_timed(key, &forward_line, &forward_req, deadline);
        let Ok(Json::Obj(mut response)) = json::parse(&raw) else {
            return raw;
        };
        if let Some(replica_trace) = response.remove("trace") {
            let mut replica_sum = 0u64;
            if let Some(spans) = replica_trace.get("spans").and_then(Json::as_arr) {
                for span in spans {
                    let name = span.get("name").and_then(Json::as_str).unwrap_or("replica");
                    let us = span.get("us").and_then(Json::as_num).unwrap_or(0.0) as u64;
                    builder.push(name, us);
                    replica_sum += us;
                }
            }
            builder.push("net", wall_us.saturating_sub(replica_sum));
        }
        builder.cover_to_now("relay");
        response.insert("trace".to_string(), trace_json(&trace_id, builder.spans()));
        Json::Obj(response).to_string()
    }

    /// The `{"op":"publish"}` admin verb: a rolling publish across the
    /// fleet (one replica at a time, stop on first rejection — see
    /// [`crate::publish`]).
    fn rolling_publish_report(&self, req: &Json) -> Json {
        let Some(artifact) = req.get("artifact").and_then(Json::as_str) else {
            return ApiError::new(codes::BAD_REQUEST, "publish needs \"artifact\" (base64)")
                .to_json();
        };
        let _rollout = self.publish_lock.lock().expect("publish lock");
        let report = rolling_publish(&self.pool, artifact);
        self.journal_rollout("publish", "the artifact", &report, |reach| {
            format!("rolling publish: {reach} ok")
        });
        report.to_json()
    }

    /// Counts a finished rollout of `what` and journals it under `kind`:
    /// how far it got, in `done`'s words — or, under `<kind>_aborted`,
    /// who stopped it. A rejection is a verdict on the artifact, not
    /// the replica: the journal names who refused it so the operator
    /// knows where the rollout stopped.
    fn journal_rollout(
        &self,
        kind: &str,
        what: &str,
        report: &PublishReport,
        done: impl FnOnce(&str) -> String,
    ) {
        self.publishes.inc();
        let reach = format!("{}/{} replicas", report.published(), self.pool.len());
        match report.rejected_by() {
            Some(addr) => self.events.record(
                &format!("{kind}_aborted"),
                format!("replica {addr} rejected {what}; rollout stopped after {reach}"),
            ),
            None => self.events.record(kind, done(&reach)),
        }
    }
}

/// The router's admin verbs: the same wire surface as a replica, but
/// answered fleet-wide (aggregated stats/metrics/events/profile, rolling
/// publishes, fleet experiment control) instead of locally.
impl OpHandler for RouterEngine {
    fn op_stats(&self, _req: &Json) -> Json {
        self.stats()
    }

    fn op_metrics(&self, _req: &Json) -> Json {
        self.metrics()
    }

    fn op_events(&self, req: &Json) -> Json {
        self.events_report(req)
    }

    fn op_profile(&self, _req: &Json) -> Json {
        self.profile()
    }

    fn op_publish(&self, req: Json) -> Json {
        self.rolling_publish_report(&req)
    }

    fn op_experiment(&self, req: Json) -> Json {
        self.experiment(&req)
    }
}

/// Folds one metrics object into the fleet-wide merge. Counters (keys
/// ending `_total`) sum across replicas; other scalars (gauges like
/// `serve_generation`) take the max. Histogram stat objects sum their
/// extensive fields (`count`/`total_count` and the `sum_us` sums) and
/// take the max elsewhere (quantiles and means — a fleet p99 is bounded
/// below by its worst replica). Public so merge laws (associativity,
/// commutativity, percentile bounds) can be property-tested from
/// outside the crate.
pub fn merge_metrics(merged: &mut std::collections::BTreeMap<String, Json>, metrics: &Json) {
    let Json::Obj(map) = metrics else {
        return;
    };
    for (key, value) in map {
        match merged.get_mut(key) {
            None => {
                merged.insert(key.clone(), value.clone());
            }
            Some(acc) => merge_metric_value(acc, value, key),
        }
    }
}

/// Merges one sample value into an accumulator under [`merge_metrics`]'
/// rules; `key` decides counter-vs-gauge semantics for scalars.
pub fn merge_metric_value(acc: &mut Json, add: &Json, key: &str) {
    match (acc, add) {
        (Json::Num(a), Json::Num(b)) => {
            // Labeled keys carry a `{k="v"}` suffix; the counter-vs-
            // gauge decision is on the base metric name (a labeled
            // counter like `serve_variant_requests_total{variant="x"}`
            // must still sum).
            let base = key.split('{').next().unwrap_or(key);
            if base.ends_with("_total") {
                *a += *b;
            } else {
                *a = a.max(*b);
            }
        }
        (Json::Obj(a), Json::Obj(b)) => {
            for (field, value) in b {
                match a.get_mut(field) {
                    None => {
                        a.insert(field.clone(), value.clone());
                    }
                    Some(Json::Num(cur)) => {
                        if let Json::Num(v) = value {
                            let extensive = field == "count"
                                || field == "total_count"
                                || field == "sum_us"
                                || field == "total_sum_us";
                            if extensive {
                                *cur += *v;
                            } else {
                                *cur = cur.max(*v);
                            }
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        _ => {}
    }
}

/// A running (or ready-to-run) cluster router.
pub struct Router {
    listener: TcpListener,
    engine: Arc<RouterEngine>,
    stop: Arc<AtomicBool>,
}

impl Router {
    /// Binds `addr` and prepares routing over `replicas` (ring ids are
    /// the vector indices).
    pub fn bind(
        addr: impl ToSocketAddrs,
        replicas: Vec<SocketAddr>,
        config: RouterConfig,
    ) -> std::io::Result<Self> {
        assert!(!replicas.is_empty(), "Router: need at least one replica");
        let listener = TcpListener::bind(addr)?;
        let registry = Arc::new(Registry::new());
        let profiler = Profiler::new();
        let events = Arc::new(EventJournal::new(256));
        let pool_obs = Arc::new(ClusterObs {
            events: Arc::clone(&events),
            ejections: registry.counter("cluster_ejections_total"),
            recoveries: registry.counter("cluster_recoveries_total"),
        });
        let engine = Arc::new(RouterEngine {
            ring: HashRing::with_replicas(replicas.len(), config.vnodes),
            pool: ReplicaPool::with_obs(replicas, config.pool.clone(), pool_obs),
            config,
            started: Instant::now(),
            requests: registry.counter("router_requests_total"),
            forwarded: registry.counter("router_forwarded_total"),
            failovers: registry.counter("router_failovers_total"),
            retries: registry.counter("router_retries_total"),
            sheds: registry.counter("router_sheds_total"),
            exhausted: registry.counter("router_exhausted_total"),
            deadline_sheds: registry.counter("router_deadline_sheds_total"),
            publishes: registry.counter("router_publishes_total"),
            forward_us: registry.histogram("router_forward_us"),
            prof_forward: profiler.node(&["router", "forward"]),
            profiler,
            split_installs: registry.counter("router_split_installs_total"),
            promotes: registry.counter("router_promotes_total"),
            experiment_halts: registry.counter("router_experiment_halts_total"),
            registry,
            events,
            publish_lock: std::sync::Mutex::new(()),
            split: std::sync::RwLock::new(None),
        });
        Ok(Self {
            listener,
            engine,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The fleet event journal behind `{"op":"events"}`.
    pub fn events(&self) -> Arc<EventJournal> {
        Arc::clone(&self.engine.events)
    }

    /// A handle that makes [`Router::run`] return.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle::new(Arc::clone(&self.stop), self.listener.local_addr().ok())
    }

    /// [`Router::run`] on a thread of its own, behind the same guard a
    /// spawned replica server gets: it stops and joins on drop.
    pub fn spawn(self) -> std::io::Result<Running> {
        Running::start(self.local_addr()?, self.stop_handle(), move || self.run())
    }

    /// Serves until the stop handle fires: a health-probe thread plus
    /// the shared readiness [`Reactor`] driving every client
    /// connection off one event-loop thread (shedding over the cap,
    /// like the replica server). Client concurrency is bounded by file
    /// descriptors; the reactor's worker pool bounds concurrent
    /// forwards.
    pub fn run(self) -> std::io::Result<()> {
        let prober = {
            let engine = Arc::clone(&self.engine);
            let stop = Arc::clone(&self.stop);
            let interval = self.engine.config.probe_interval;
            (!interval.is_zero()).then(|| {
                std::thread::Builder::new()
                    .name("smgcn-router-probe".into())
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            engine.pool.probe_all();
                            std::thread::sleep(interval);
                        }
                    })
                    .expect("spawn probe thread")
            })
        };
        let max_conns = self.engine.config.max_connections;
        let registry = Arc::clone(&self.engine.registry);
        let result =
            Reactor::new(self.listener, self.engine, self.stop, max_conns, &registry).run();
        if let Some(p) = prober {
            let _ = p.join();
        }
        result
    }
}

/// The reactor serves the router engine directly, mirroring the
/// replica side: forwards run on worker threads (blocking on replica
/// leases is fine there), refusals and drains keep their historical
/// counters, events, and wire bytes.
impl Service for RouterEngine {
    fn handle(&self, line: &str, conn_key: &str) -> String {
        self.handle_line(line, conn_key)
    }

    fn shed(&self) -> String {
        self.sheds.inc();
        self.events
            .record("shed", "client connection refused at capacity");
        ApiError::retryable(codes::OVERLOADED, "router at connection capacity")
            .to_json()
            .to_string()
    }

    fn on_drain(&self) {
        self.events
            .record("drain", "graceful drain: idle client connections closed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_detection_matches_protocol() {
        assert!(is_retryable_error(
            r#"{"error":{"code":"queue_full","message":"x","retryable":true}}"#
        ));
        assert!(is_retryable_error(
            r#"{"error":{"code":"overloaded","message":"x","retryable":true}}"#
        ));
        assert!(!is_retryable_error(
            r#"{"error":{"code":"bad_k","message":"x"}}"#
        ));
        // A flagless error falls back to the shared code classification.
        assert!(is_retryable_error(
            r#"{"error":{"code":"overloaded","message":"x"}}"#
        ));
        assert!(!is_retryable_error(
            r#"{"error":{"code":"deadline_exceeded","message":"x","retryable":false}}"#
        ));
        assert!(!is_retryable_error(r#"{"herb_ids":[1,2],"generation":0}"#));
        // A ranking mentioning the word in a name must not trip it.
        assert!(!is_retryable_error(r#"{"herbs":["\"retryable\""]}"#));
    }

    #[test]
    fn merged_labeled_counters_sum_and_labeled_gauges_max() {
        let mut merged = std::collections::BTreeMap::new();
        let snap = |requests: f64, generation: f64| {
            json::obj([
                (
                    "serve_variant_requests_total{variant=\"cand\"}",
                    Json::Num(requests),
                ),
                (
                    "serve_variant_generation{variant=\"cand\"}",
                    Json::Num(generation),
                ),
            ])
        };
        merge_metrics(&mut merged, &snap(10.0, 3.0));
        merge_metrics(&mut merged, &snap(32.0, 2.0));
        assert_eq!(
            merged.get("serve_variant_requests_total{variant=\"cand\"}"),
            Some(&Json::Num(42.0)),
            "a labeled counter must sum across replicas like an unlabeled one"
        );
        assert_eq!(
            merged.get("serve_variant_generation{variant=\"cand\"}"),
            Some(&Json::Num(3.0)),
            "a labeled gauge takes the fleet max"
        );
    }

    #[test]
    fn route_key_is_form_canonical() {
        let a = json::parse(r#"{"symptom_ids":[3,1,2],"k":5}"#).unwrap();
        let b = json::parse(r#"{"symptom_ids":[1,2,3],"k":9}"#).unwrap();
        assert_eq!(
            RouterEngine::route_key(&a),
            RouterEngine::route_key(&b),
            "permutation and k do not change the affinity key"
        );
        let c = json::parse(r#"{"symptoms":["fever","cough"]}"#).unwrap();
        let d = json::parse(r#"{"symptoms":["cough","fever"]}"#).unwrap();
        assert_eq!(RouterEngine::route_key(&c), RouterEngine::route_key(&d));
    }
}
