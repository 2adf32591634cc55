//! The named scenarios and their deterministic workload construction.
//!
//! Each scenario fixes four things up front, all derived from the seed:
//! the **topology** (single server, routed replicas, or the online
//! pipeline), the **request schedule** (arrival offsets + payloads), the
//! **chaos plan** (which replica dies when, when a publish or refresh
//! fires), and the **SLOs** the run must satisfy. Execution measures;
//! it never decides.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smgcn_faults::{sites, FaultAction, FaultPlan};
use smgcn_obs::alert::{SloRule, SLOW_PAIR};

use crate::schedule::{Op, Request, Schedule};
use crate::shape::zipf_index;
use crate::slo::{GenCheck, Slo};
use crate::storm::StormResult;

/// Symptom-vocabulary width of the synthetic serving topologies.
pub const N_SYMPTOMS: usize = 64;
/// Herb-vocabulary width of the synthetic serving topologies.
pub const N_HERBS: usize = 256;
/// Embedding width of the synthetic serving topologies.
pub const DIM: usize = 32;

/// The candidate variant name experiment scenarios publish and split
/// traffic toward.
pub const CANDIDATE: &str = "canary";

/// Distinct sticky client identities the `ab-canary` schedule stamps on
/// its queries (`c0`..`c{N-1}`): enough that a 10% split deterministic
/// in the client name assigns several of them to the candidate.
pub const N_CLIENTS: u32 = 24;

/// The eight scenarios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Steady-state load with Zipf-skewed symptom-set popularity against
    /// one server — the baseline serving regime.
    SteadyZipfian,
    /// A burst arrival (flash crowd) against a routed pair of replicas:
    /// the schedule's middle fifth arrives at 10x the base rate.
    FlashCrowd,
    /// Concurrent WAL ingestion + queries against the online pipeline,
    /// with a refresh (delta → finetune → hot swap) firing mid-run.
    IngestHeavy,
    /// A rolling model publish across three routed replicas mid-load;
    /// every response must match the generation it claims.
    RollingPublish,
    /// One of three routed replicas killed mid-load; the router must
    /// hide the failure from clients entirely.
    ReplicaKill,
    /// A seeded fault storm against three routed replicas: injected
    /// delays/drops on the replica links, a corrupted publish that the
    /// fleet must reject wholesale, then a clean publish that must still
    /// land — all under the exact-rankings generation invariant.
    FaultStorm,
    /// An online A/B canary against three routed replicas: a candidate
    /// variant published mid-run, a 90/10 split installed under load,
    /// then halted before the end. Sticky per-client assignment, exact
    /// per-variant rankings/generations and a zero error budget are all
    /// asserted.
    AbCanary,
    /// A connection storm against one reactor server: 10k+ persistent
    /// keep-alive connections held open for the whole run, a slow-writer
    /// cohort dribbling request bytes, and a steady query lane whose p99
    /// must stay within budget. Connections are bounded by file
    /// descriptors (the readiness reactor), not threads — the scenario
    /// asserts every connection opens, zero requests fail, the server
    /// never sheds, the server's own open-connection gauge reaches the
    /// planned cohort, and resident memory stays bounded.
    ConnectionStorm,
}

impl ScenarioKind {
    /// All scenarios, in suite order.
    pub fn all() -> [Self; 8] {
        [
            Self::SteadyZipfian,
            Self::FlashCrowd,
            Self::IngestHeavy,
            Self::RollingPublish,
            Self::ReplicaKill,
            Self::FaultStorm,
            Self::AbCanary,
            Self::ConnectionStorm,
        ]
    }

    /// The CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            Self::SteadyZipfian => "steady-zipfian",
            Self::FlashCrowd => "flash-crowd",
            Self::IngestHeavy => "ingest-heavy",
            Self::RollingPublish => "rolling-publish-under-load",
            Self::ReplicaKill => "replica-kill",
            Self::FaultStorm => "fault-storm",
            Self::AbCanary => "ab-canary",
            Self::ConnectionStorm => "connection-storm",
        }
    }

    /// Parses a CLI name.
    pub fn from_arg(arg: &str) -> Option<Self> {
        Self::all().into_iter().find(|k| k.name() == arg)
    }

    /// One-line description for `--help` and the README.
    pub fn description(self) -> &'static str {
        match self {
            Self::SteadyZipfian => "steady Zipf-skewed query load against one server",
            Self::FlashCrowd => "10x burst arrival mid-window against 2 routed replicas",
            Self::IngestHeavy => "concurrent WAL ingest + queries, refresh/hot-swap mid-run",
            Self::RollingPublish => "rolling model publish across 3 replicas under load",
            Self::ReplicaKill => "kill 1 of 3 replicas under load (router hides it)",
            Self::FaultStorm => {
                "seeded net-fault storm + corrupt publish across 3 replicas under load"
            }
            Self::AbCanary => "90/10 A/B canary split installed and halted across 3 replicas",
            Self::ConnectionStorm => {
                "10k+ persistent connections + slow writers against 1 reactor server"
            }
        }
    }
}

/// Scenario knobs. Everything the schedule depends on lives here; the
/// executor's worker count deliberately does not affect the schedule.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Schedule/corpus seed.
    pub seed: u64,
    /// Schedule horizon in milliseconds (CI smoke: 2000; soak: 5000).
    pub measure_ms: u64,
    /// Executor worker threads (an execution detail — never changes the
    /// schedule or the deterministic report).
    pub workers: usize,
    /// Ranking depth per query.
    pub k: usize,
    /// Override for the connection-storm cohort size. `None` keeps the
    /// [`StormSpec`] default (10k+). The knob exists for
    /// fd-constrained hosts: one loadgen process holds **both** ends of
    /// every storm socket, so the default cohort needs
    /// `RLIMIT_NOFILE` hard-capped no lower than ~2x the cohort (the
    /// engine raises the soft limit itself). Below that the server
    /// holds fewer connections than planned, and the run fails its SLO
    /// naming the limit.
    pub storm_connections: Option<usize>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            seed: 2020,
            measure_ms: 2000,
            workers: 8,
            k: 10,
            storm_connections: None,
        }
    }
}

/// What stack the engine stands up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One `smgcn-serve` server, queried directly.
    SingleServer,
    /// N replicas behind an `smgcn-cluster` router.
    Routed {
        /// Replica count.
        replicas: usize,
    },
    /// One server over an `OnlinePipeline`'s model slot (tiny real
    /// corpus + quick-trained model).
    OnlinePipeline,
}

impl Topology {
    /// The report label.
    pub fn describe(self) -> String {
        match self {
            Self::SingleServer => "single-server".to_string(),
            Self::Routed { replicas } => format!("router+{replicas}-replicas"),
            Self::OnlinePipeline => "online-pipeline".to_string(),
        }
    }
}

/// A chaos action fired by the engine at a planned offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// SIGKILL-equivalent: stop replica `i`'s accept loop and join it.
    KillReplica(usize),
    /// Rolling-publish the synthetic model with this tag across the
    /// fleet via the router's `{"op":"publish"}` verb.
    RollingPublish {
        /// Model tag; becomes the new generation's weights and vocab.
        tag: u64,
    },
    /// Run the online pipeline's refresh (delta → finetune → freeze →
    /// hot swap).
    Refresh,
    /// Publish a deliberately bit-flipped artifact for this tag through
    /// the router; the fleet must reject it wholesale (aborted rollout,
    /// zero replicas published, generation unchanged).
    CorruptPublish {
        /// The tag whose valid artifact gets corrupted before publishing.
        tag: u64,
    },
    /// Roll this tag's artifact into every replica's [`CANDIDATE`]
    /// variant slot via the router's `{"op":"experiment"}` publish verb.
    /// Control keeps serving its own generation untouched.
    CandidatePublish {
        /// Model tag the candidate slot will serve.
        tag: u64,
    },
    /// Install a `control:(100-w),canary:w` split plan fleet-wide via
    /// the router. Sticky client routing starts the moment the install
    /// acks.
    InstallSplit {
        /// The candidate's traffic share, percent (1..=99).
        candidate_percent: u32,
    },
    /// Halt the active split fleet-wide: all traffic collapses to
    /// control; the candidate slot stays resident but drains instantly.
    HaltSplit,
}

impl ChaosAction {
    /// The report label.
    pub fn describe(self) -> String {
        match self {
            Self::KillReplica(i) => format!("kill-replica-{i}"),
            Self::RollingPublish { tag } => format!("rolling-publish-tag-{tag}"),
            Self::Refresh => "online-refresh".to_string(),
            Self::CorruptPublish { tag } => format!("corrupt-publish-tag-{tag}"),
            Self::CandidatePublish { tag } => format!("candidate-publish-tag-{tag}"),
            Self::InstallSplit { candidate_percent } => {
                format!("install-split-{CANDIDATE}-{candidate_percent}")
            }
            Self::HaltSplit => "halt-split".to_string(),
        }
    }
}

/// A chaos action plus its planned arrival offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Offset from scenario start, microseconds.
    pub at_us: u64,
    /// What fires.
    pub action: ChaosAction,
}

/// The burn-rate alerting contract of one scenario: the SLO rules the
/// engine evaluates over the run's scraped metrics history, plus which
/// rules the scenario *expects* to fire. A storm that pages nobody is
/// as much a regression as a clean run that pages — both directions are
/// asserted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AlertPlan {
    /// Rules evaluated over the run's tsdb history (post-hoc, at every
    /// scrape timestamp).
    pub rules: Vec<SloRule>,
    /// Rule names that must fire at least once during the run.
    pub expect_fired: Vec<String>,
    /// Rule names that must stay silent for the whole run.
    pub expect_silent: Vec<String>,
}

impl AlertPlan {
    /// Report labels: one `name(expect-fired|expect-silent|observe)`
    /// entry per rule, deterministic per workload.
    pub fn describe(&self) -> Vec<String> {
        self.rules
            .iter()
            .map(|r| {
                let expectation = if self.expect_fired.contains(&r.name) {
                    "expect-fired"
                } else if self.expect_silent.contains(&r.name) {
                    "expect-silent"
                } else {
                    "observe"
                };
                format!("{}({expectation})", r.name)
            })
            .collect()
    }
}

/// The scrape cadence the engine uses for a `measure_ms` horizon — also
/// the resolution floor the scenario alert rules are clamped to.
pub fn scrape_interval_ms(measure_ms: u64) -> u64 {
    (measure_ms / 50).clamp(10, 200)
}

/// An availability burn-rate rule (99.99% objective, canonical SRE
/// window pairs) with its wall-clock windows scaled onto the scenario
/// horizon: the run's full window stands in for the 6-hour slow
/// lookback, and every window is clamped to at least four scrape ticks
/// so it can always see an increment.
fn availability_rule(measure_ms: u64, bad: &[&str], total: &[&str]) -> SloRule {
    SloRule::availability(
        "availability-burn",
        bad.iter().map(ToString::to_string).collect(),
        total.iter().map(ToString::to_string).collect(),
        1e-4,
    )
    .scaled(measure_ms as f64 / SLOW_PAIR.long_ms as f64)
    .with_min_window(scrape_interval_ms(measure_ms) * 4)
}

/// The connection-storm cohort plan: how many persistent keep-alive
/// connections the engine holds open alongside the scheduled query
/// lane, how many opener threads share the dialing, how many of the
/// held connections write their requests one dribbled chunk at a time,
/// and the resident-memory growth budget the run must stay inside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StormSpec {
    /// Persistent connections held open for the whole measure window.
    pub connections: usize,
    /// Opener threads that share dialing + sweeping the cohort.
    pub openers: usize,
    /// Of `connections`, how many write requests in dribbled chunks
    /// (slowloris-shaped writers; the reactor must not let them pin
    /// buffers or threads). Their latencies are excluded from the
    /// percentile lane but their failures still count.
    pub slow_writers: usize,
    /// Resident-set growth budget (MiB) across the storm, measured
    /// best-effort from `/proc/self/statm`; exceeded → SLO violation.
    pub max_rss_mb: usize,
}

impl Default for StormSpec {
    fn default() -> Self {
        Self {
            connections: 10_240,
            openers: 16,
            slow_writers: 512,
            max_rss_mb: 512,
        }
    }
}

impl StormSpec {
    /// The report label.
    pub fn describe(&self) -> String {
        format!(
            "storm-{}-conns-{}-slow-writers",
            self.connections, self.slow_writers
        )
    }

    /// Judges what the held cohort measured against this plan: every
    /// connection dialed, the server itself held them all at once, and
    /// resident memory stayed inside its budget. One message per broken
    /// promise; none means the storm held.
    pub fn violations(&self, storm: &StormResult) -> Vec<String> {
        let mut out = Vec::new();
        if storm.opened < self.connections {
            out.push(format!(
                "connection storm opened {} of {} planned connections",
                storm.opened, self.connections
            ));
        }
        if storm.peak_open < self.connections {
            let limit = storm
                .nofile_hard
                .map_or_else(|| "unknown".to_string(), |n| n.to_string());
            out.push(format!(
                "connection storm: the server held at most {} of {} planned connections \
                 open at once (reactor_open_fds); the hard RLIMIT_NOFILE is {limit} and \
                 this process holds both ends of every socket — --storm-conns sizes the \
                 cohort to fit",
                storm.peak_open, self.connections
            ));
        }
        if let Some(growth) = storm.rss_growth_mb {
            if growth > self.max_rss_mb as f64 {
                out.push(format!(
                    "connection storm grew resident memory by {growth:.0} MiB, budget {} MiB",
                    self.max_rss_mb
                ));
            }
        }
        out
    }
}

/// A fully-planned scenario run: everything but the measurements.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Which scenario.
    pub kind: ScenarioKind,
    /// The knobs it was built with.
    pub config: ScenarioConfig,
    /// The stack to stand up.
    pub topology: Topology,
    /// The deterministic request schedule.
    pub schedule: Schedule,
    /// Planned chaos, sorted by offset.
    pub chaos: Vec<ChaosEvent>,
    /// Seeded fault plan the engine installs for the run, if the
    /// scenario injects faults. Derived from the seed; replayable.
    pub fault_plan: Option<FaultPlan>,
    /// The run's pass/fail contract.
    pub slo: Slo,
    /// The burn-rate alerting contract evaluated over the run's scraped
    /// metrics history.
    pub alerts: AlertPlan,
    /// The persistent-connection storm cohort, if the scenario holds
    /// one open alongside the scheduled lane.
    pub storm: Option<StormSpec>,
}

/// Builds the deterministic workload for `kind`. Same `config` in, same
/// workload out — byte for byte.
pub fn build(kind: ScenarioKind, config: &ScenarioConfig) -> Workload {
    let horizon_us = config.measure_ms * 1000;
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x10ad_9e4e ^ kind_salt(kind));
    let pool = query_pool(&mut rng);
    match kind {
        ScenarioKind::SteadyZipfian => Workload {
            kind,
            config: config.clone(),
            topology: Topology::SingleServer,
            schedule: steady_from_pool(&mut rng, &pool, horizon_us, 400, config.k),
            chaos: Vec::new(),
            fault_plan: None,
            slo: Slo {
                max_p99_ms: 50.0,
                max_failures: 0,
                generation_consistency: GenCheck::ExactRankings,
            },
            // The clean baseline: the availability rule watches the
            // single server's shed/reject/error counters and must stay
            // silent for the whole run.
            alerts: AlertPlan {
                rules: vec![availability_rule(
                    config.measure_ms,
                    &[
                        "serve_sheds_total",
                        "serve_queue_rejections_total",
                        "serve_errors_total",
                    ],
                    &["serve_requests_total"],
                )],
                expect_fired: Vec::new(),
                expect_silent: vec!["availability-burn".to_string()],
            },
            storm: None,
        },
        ScenarioKind::FlashCrowd => {
            let mut requests =
                steady_from_pool(&mut rng, &pool, horizon_us, 150, config.k).requests;
            // The crowd: the middle fifth of the window arrives at 10x
            // the base rate, concentrated on the hot sets (a televised
            // symptom checklist, say).
            let burst_start = horizon_us * 2 / 5;
            let burst_len = horizon_us / 5;
            let n_burst = (1500 * burst_len / 1_000_000) as usize;
            for _ in 0..n_burst {
                requests.push(Request {
                    at_us: burst_start + rng.gen_range(0..burst_len.max(1)),
                    op: Op::Query {
                        symptoms: pool[zipf_index(&mut rng, pool.len(), 8, 0.95)].clone(),
                        k: config.k,
                        client: None,
                    },
                });
            }
            Workload {
                kind,
                config: config.clone(),
                topology: Topology::Routed { replicas: 2 },
                schedule: Schedule::new(requests),
                chaos: Vec::new(),
                fault_plan: None,
                slo: Slo {
                    max_p99_ms: 400.0,
                    max_failures: 0,
                    generation_consistency: GenCheck::ExactRankings,
                },
                alerts: AlertPlan::default(),
                storm: None,
            }
        }
        ScenarioKind::IngestHeavy => {
            let corpus = ingest_corpus(config.seed);
            let corpus_pool: Vec<Vec<u32>> = corpus
                .prescriptions()
                .iter()
                .map(|p| {
                    let mut s = p.symptoms().to_vec();
                    s.sort_unstable();
                    s.dedup();
                    s
                })
                .collect();
            let mut requests =
                steady_from_pool(&mut rng, &corpus_pool, horizon_us, 300, config.k).requests;
            // Ingest lane: unseen prescriptions synthesized over the
            // corpus vocabulary at ~40/s.
            let n_ingest = (40 * horizon_us / 1_000_000) as usize;
            let n_symptoms = corpus.n_symptoms() as u32;
            let n_herbs = corpus.n_herbs() as u32;
            for _ in 0..n_ingest {
                let mut symptoms: Vec<u32> = (0..rng.gen_range(2..5usize))
                    .map(|_| rng.gen_range(0..n_symptoms))
                    .collect();
                symptoms.sort_unstable();
                symptoms.dedup();
                let mut herbs: Vec<u32> = (0..rng.gen_range(2..6usize))
                    .map(|_| rng.gen_range(0..n_herbs))
                    .collect();
                herbs.sort_unstable();
                herbs.dedup();
                requests.push(Request {
                    at_us: rng.gen_range(0..horizon_us.max(1)),
                    op: Op::Ingest { symptoms, herbs },
                });
            }
            Workload {
                kind,
                config: config.clone(),
                topology: Topology::OnlinePipeline,
                schedule: Schedule::new(requests),
                chaos: vec![ChaosEvent {
                    at_us: horizon_us / 2,
                    action: ChaosAction::Refresh,
                }],
                fault_plan: None,
                slo: Slo {
                    max_p99_ms: 400.0,
                    max_failures: 0,
                    generation_consistency: GenCheck::Monotone,
                },
                alerts: AlertPlan::default(),
                storm: None,
            }
        }
        ScenarioKind::RollingPublish => Workload {
            kind,
            config: config.clone(),
            topology: Topology::Routed { replicas: 3 },
            schedule: steady_from_pool(&mut rng, &pool, horizon_us, 300, config.k),
            chaos: vec![ChaosEvent {
                at_us: horizon_us * 2 / 5,
                action: ChaosAction::RollingPublish { tag: 1 },
            }],
            fault_plan: None,
            slo: Slo {
                max_p99_ms: 400.0,
                max_failures: 0,
                generation_consistency: GenCheck::ExactRankings,
            },
            alerts: AlertPlan::default(),
            storm: None,
        },
        ScenarioKind::ReplicaKill => Workload {
            kind,
            config: config.clone(),
            topology: Topology::Routed { replicas: 3 },
            schedule: steady_from_pool(&mut rng, &pool, horizon_us, 300, config.k),
            chaos: vec![ChaosEvent {
                at_us: horizon_us * 2 / 5,
                action: ChaosAction::KillReplica(0),
            }],
            fault_plan: None,
            slo: Slo {
                max_p99_ms: 600.0,
                max_failures: 0,
                generation_consistency: GenCheck::ExactRankings,
            },
            // A killed replica legitimately drives failover retries; no
            // silence contract here (that would assert the chaos away).
            alerts: AlertPlan::default(),
            storm: None,
        },
        ScenarioKind::FaultStorm => Workload {
            kind,
            config: config.clone(),
            topology: Topology::Routed { replicas: 3 },
            schedule: steady_from_pool(&mut rng, &pool, horizon_us, 300, config.k),
            chaos: vec![
                ChaosEvent {
                    at_us: horizon_us / 5,
                    action: ChaosAction::CorruptPublish { tag: 9 },
                },
                ChaosEvent {
                    at_us: horizon_us * 3 / 5,
                    action: ChaosAction::RollingPublish { tag: 1 },
                },
            ],
            fault_plan: Some(storm_plan(config.seed)),
            slo: Slo {
                max_p99_ms: 600.0,
                max_failures: 0,
                generation_consistency: GenCheck::ExactRankings,
            },
            // The storm's dropped forwards surface as router retries;
            // the availability rule must burn hot enough to page. The
            // retry ratio (~5% in the front-loaded band) is orders of
            // magnitude over a 99.99% objective's burn threshold.
            alerts: AlertPlan {
                rules: vec![availability_rule(
                    config.measure_ms,
                    &["router_retries_total", "router_exhausted_total"],
                    &["router_forwarded_total"],
                )],
                expect_fired: vec!["availability-burn".to_string()],
                expect_silent: Vec::new(),
            },
            storm: None,
        },
        ScenarioKind::AbCanary => {
            // Same steady shape as the publish drills, but every query
            // carries a sticky client identity: the split plan keys on
            // the client name, so assignment must hold across
            // connections and workers, not just per socket.
            let mut requests =
                steady_from_pool(&mut rng, &pool, horizon_us, 300, config.k).requests;
            for r in &mut requests {
                if let Op::Query { client, .. } = &mut r.op {
                    *client = Some(rng.gen_range(0..N_CLIENTS));
                }
            }
            Workload {
                kind,
                config: config.clone(),
                topology: Topology::Routed { replicas: 3 },
                schedule: Schedule::new(requests),
                chaos: vec![
                    ChaosEvent {
                        at_us: horizon_us / 5,
                        action: ChaosAction::CandidatePublish { tag: 1 },
                    },
                    ChaosEvent {
                        at_us: horizon_us * 3 / 10,
                        action: ChaosAction::InstallSplit {
                            candidate_percent: 10,
                        },
                    },
                    // Halted with a fifth of the horizon left: the tail
                    // of the run asserts the candidate drains cleanly
                    // (all traffic back on control, zero failures).
                    ChaosEvent {
                        at_us: horizon_us * 4 / 5,
                        action: ChaosAction::HaltSplit,
                    },
                ],
                fault_plan: None,
                slo: Slo {
                    max_p99_ms: 400.0,
                    max_failures: 0,
                    generation_consistency: GenCheck::VariantRankings,
                },
                alerts: AlertPlan::default(),
                storm: None,
            }
        }
        ScenarioKind::ConnectionStorm => Workload {
            kind,
            config: config.clone(),
            topology: Topology::SingleServer,
            // A modest steady lane rides alongside the held-open fleet:
            // its p99 is what proves the reactor keeps serving promptly
            // while 10k sockets sit registered and slow writers dribble.
            schedule: steady_from_pool(&mut rng, &pool, horizon_us, 200, config.k),
            chaos: Vec::new(),
            fault_plan: None,
            slo: Slo {
                max_p99_ms: 500.0,
                max_failures: 0,
                generation_consistency: GenCheck::ExactRankings,
            },
            // At 10k held connections against an fd-bounded server with
            // cap headroom, nothing may shed, reject, or error: the
            // availability rule must stay silent for the whole run.
            alerts: AlertPlan {
                rules: vec![availability_rule(
                    config.measure_ms,
                    &[
                        "serve_sheds_total",
                        "serve_queue_rejections_total",
                        "serve_errors_total",
                    ],
                    &["serve_requests_total"],
                )],
                expect_fired: Vec::new(),
                expect_silent: vec!["availability-burn".to_string()],
            },
            storm: Some(match config.storm_connections {
                Some(connections) => StormSpec {
                    connections,
                    // Keep the slow cohort a fixed fraction when the
                    // fleet shrinks below the stock shape.
                    slow_writers: StormSpec::default().slow_writers.min(connections / 20),
                    ..StormSpec::default()
                },
                None => StormSpec::default(),
            }),
        },
    }
}

/// The fault-storm scenario's seeded injection plan.
///
/// The data path takes low-rate delays and occasional connection drops
/// over a wide hit window — enough to exercise the router's failover
/// walk throughout the run without saturating it. The admin path takes
/// *delays only*: an injected admin drop would fail the scenario's own
/// good publish in transit, which is the fault-injection test binaries'
/// job, not the storm's (the storm pins end-to-end SLOs with zero
/// accepted-then-lost operations).
fn storm_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed ^ 0x5707_2a11);
    // A denser front-loaded drop band: the first ~128 forwards take
    // drops at 8%, so even the shortest smoke horizon accumulates
    // enough retries for the availability burn-rate rule to page
    // (expected ~10 drops; the chance a seed draws zero is ~e^-10).
    // The router retries every drop on the next replica, so the client
    // failure budget still burns nothing.
    plan.inject(sites::POOL_FORWARD_NET, 0..128, 0.08, &[FaultAction::Drop]);
    plan.inject(
        sites::POOL_FORWARD_NET,
        0..4096,
        0.02,
        &[
            FaultAction::Delay { ms: 1 },
            FaultAction::Delay { ms: 3 },
            FaultAction::Drop,
        ],
    );
    plan.inject(
        sites::POOL_ADMIN_NET,
        0..64,
        0.2,
        &[FaultAction::Delay { ms: 2 }],
    );
    plan
}

/// Per-kind RNG salt so scenarios sharing a seed do not share streams.
fn kind_salt(kind: ScenarioKind) -> u64 {
    match kind {
        ScenarioKind::SteadyZipfian => 0x01,
        ScenarioKind::FlashCrowd => 0x02,
        ScenarioKind::IngestHeavy => 0x03,
        ScenarioKind::RollingPublish => 0x04,
        ScenarioKind::ReplicaKill => 0x05,
        ScenarioKind::FaultStorm => 0x06,
        ScenarioKind::AbCanary => 0x07,
        ScenarioKind::ConnectionStorm => 0x08,
    }
}

/// A pool of 200 distinct symptom sets (sizes 1–4) over the synthetic
/// vocabulary; index 0..20 is the "hot" head Zipf draws favour.
fn query_pool(rng: &mut StdRng) -> Vec<Vec<u32>> {
    let mut pool: Vec<Vec<u32>> = Vec::new();
    while pool.len() < 200 {
        let mut set: Vec<u32> = (0..rng.gen_range(1..5usize))
            .map(|_| rng.gen_range(0..N_SYMPTOMS as u32))
            .collect();
        set.sort_unstable();
        set.dedup();
        if !pool.contains(&set) {
            pool.push(set);
        }
    }
    pool
}

/// Uniform-arrival query schedule at `rate_per_s` over `horizon_us`,
/// Zipf-picking sets from `pool` (hot head of 20 at 80%).
fn steady_from_pool(
    rng: &mut StdRng,
    pool: &[Vec<u32>],
    horizon_us: u64,
    rate_per_s: u64,
    k: usize,
) -> Schedule {
    let n = (rate_per_s * horizon_us / 1_000_000) as usize;
    let spacing = horizon_us / n.max(1) as u64;
    let requests = (0..n)
        .map(|i| Request {
            // Evenly paced with ±40% jitter: steady, but not lockstep.
            at_us: i as u64 * spacing + rng.gen_range(0..(spacing * 4 / 5).max(1)),
            op: Op::Query {
                symptoms: pool[zipf_index(rng, pool.len(), 20, 0.8)].clone(),
                k,
                client: None,
            },
        })
        .collect();
    Schedule::new(requests)
}

/// The tiny real corpus behind the ingest-heavy scenario (the online
/// pipeline validates ingested ids against a real vocabulary).
pub fn ingest_corpus(seed: u64) -> smgcn_data::Corpus {
    smgcn_data::SyndromeModel::new(smgcn_data::GeneratorConfig::tiny_scale().with_seed(seed))
        .generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in ScenarioKind::all() {
            assert_eq!(ScenarioKind::from_arg(kind.name()), Some(kind));
        }
        assert_eq!(ScenarioKind::from_arg("nope"), None);
    }

    #[test]
    fn same_seed_same_schedule() {
        let config = ScenarioConfig {
            measure_ms: 500,
            ..ScenarioConfig::default()
        };
        for kind in ScenarioKind::all() {
            let a = build(kind, &config);
            let b = build(kind, &config);
            assert_eq!(
                a.schedule.canonical_string(),
                b.schedule.canonical_string(),
                "{} not deterministic",
                kind.name()
            );
            assert_eq!(a.chaos, b.chaos);
            assert_eq!(
                a.fault_plan.as_ref().map(FaultPlan::digest),
                b.fault_plan.as_ref().map(FaultPlan::digest),
                "{} fault plan not deterministic",
                kind.name()
            );
        }
    }

    #[test]
    fn fault_storm_plan_is_seeded_and_admin_safe() {
        let config = ScenarioConfig {
            measure_ms: 500,
            ..ScenarioConfig::default()
        };
        let w = build(ScenarioKind::FaultStorm, &config);
        let plan = w.fault_plan.as_ref().expect("fault-storm carries a plan");
        assert!(!plan.is_empty());
        // The admin plane takes delays only: a dropped admin round trip
        // would break the storm's own good publish mid-flight.
        for fault in plan.faults() {
            if fault.site == sites::POOL_ADMIN_NET {
                assert!(
                    matches!(fault.action, FaultAction::Delay { .. }),
                    "admin site must be delay-only, got {:?}",
                    fault.action
                );
            }
        }
        let other = ScenarioConfig {
            seed: 7,
            ..config.clone()
        };
        assert_ne!(
            build(ScenarioKind::FaultStorm, &other)
                .fault_plan
                .unwrap()
                .digest(),
            plan.digest(),
            "different seeds draw different storms"
        );
    }

    #[test]
    fn worker_count_never_changes_the_schedule() {
        let base = ScenarioConfig {
            measure_ms: 500,
            workers: 2,
            ..ScenarioConfig::default()
        };
        let wide = ScenarioConfig {
            workers: 32,
            ..base.clone()
        };
        for kind in ScenarioKind::all() {
            assert_eq!(
                build(kind, &base).schedule.digest(),
                build(kind, &wide).schedule.digest(),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ScenarioConfig {
            measure_ms: 500,
            ..ScenarioConfig::default()
        };
        let b = ScenarioConfig {
            seed: 7,
            ..a.clone()
        };
        assert_ne!(
            build(ScenarioKind::SteadyZipfian, &a).schedule.digest(),
            build(ScenarioKind::SteadyZipfian, &b).schedule.digest()
        );
    }

    #[test]
    fn flash_crowd_bursts_mid_window() {
        let config = ScenarioConfig {
            measure_ms: 1000,
            ..ScenarioConfig::default()
        };
        let w = build(ScenarioKind::FlashCrowd, &config);
        let horizon = config.measure_ms * 1000;
        let in_burst = w
            .schedule
            .requests
            .iter()
            .filter(|r| r.at_us >= horizon * 2 / 5 && r.at_us < horizon * 3 / 5)
            .count();
        // The burst fifth should carry several times the base-rate share.
        assert!(
            in_burst as f64 > w.schedule.requests.len() as f64 * 0.5,
            "burst window holds {in_burst} of {}",
            w.schedule.requests.len()
        );
    }

    #[test]
    fn ab_canary_clients_actually_split() {
        let config = ScenarioConfig {
            measure_ms: 500,
            ..ScenarioConfig::default()
        };
        let w = build(ScenarioKind::AbCanary, &config);
        // Every query carries a sticky client, and all client ids appear
        // (the plan's assignment is per-name, so coverage is what makes
        // the stickiness assertion meaningful).
        let mut seen = std::collections::BTreeSet::new();
        for r in &w.schedule.requests {
            match &r.op {
                Op::Query { client, .. } => {
                    seen.insert(client.expect("ab-canary queries carry clients"));
                }
                Op::Ingest { .. } => panic!("ab-canary has no ingest lane"),
            }
        }
        assert_eq!(seen.len() as u32, N_CLIENTS, "all clients drawn");
        // The canonical default-seed 90/10 plan (what the engine's
        // install verb produces) must map at least one of the scenario's
        // clients to the candidate and keep control in the majority —
        // otherwise the scenario never exercises candidate serving.
        let plan = smgcn_experiment::SplitPlan::new(
            smgcn_experiment::DEFAULT_SPLIT_SEED,
            1,
            &[("control".to_string(), 90), (CANDIDATE.to_string(), 10)],
        )
        .expect("canonical plan");
        let canary = (0..N_CLIENTS)
            .filter(|c| plan.assign(&format!("c{c}")) == CANDIDATE)
            .count();
        assert!(
            canary >= 1 && canary < N_CLIENTS as usize / 2,
            "default split maps {canary} of {N_CLIENTS} clients to {CANDIDATE:?}"
        );
        assert_eq!(w.chaos.len(), 3);
        assert_eq!(w.slo.generation_consistency, GenCheck::VariantRankings);
    }

    #[test]
    fn a_storm_the_server_never_fully_held_is_a_violation() {
        let spec = StormSpec::default();
        let held = StormResult {
            opened: spec.connections,
            peak_open: spec.connections + 9,
            nofile_hard: Some(20_000),
            ..StormResult::default()
        };
        assert!(
            spec.violations(&held).is_empty(),
            "{:?}",
            spec.violations(&held)
        );
        // Every dial completed its handshake, but the reactor, out of
        // descriptors, accepted fewer: only its own gauge says so.
        let capped = StormResult {
            peak_open: 9_744,
            ..held
        };
        let violations = spec.violations(&capped);
        assert_eq!(violations.len(), 1, "{violations:?}");
        let message = &violations[0];
        for part in [
            "held at most 9744 of 10240",
            "RLIMIT_NOFILE is 20000",
            "--storm-conns",
        ] {
            assert!(message.contains(part), "{part:?} missing from {message:?}");
        }
    }

    #[test]
    fn ingest_heavy_mixes_ops() {
        let config = ScenarioConfig {
            measure_ms: 500,
            ..ScenarioConfig::default()
        };
        let w = build(ScenarioKind::IngestHeavy, &config);
        assert!(w.schedule.query_count() > 0);
        assert!(w.schedule.ingest_count() > 0);
        assert_eq!(w.chaos.len(), 1);
    }
}
