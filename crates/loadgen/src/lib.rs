//! # smgcn-loadgen — deterministic multi-scenario load & chaos engine
//!
//! PRs 1–4 built the serving stack (frozen models, micro-batching, hot
//! swap, replicated routing); this crate is how we *believe* it. A
//! scenario is a seeded, fully-deterministic plan — request schedule,
//! topology, chaos events, SLO contract — executed against the real
//! stack over real sockets, with every response validated inline:
//!
//! - [`scenario`] — the named scenarios (`steady-zipfian`,
//!   `flash-crowd`, `ingest-heavy`, `rolling-publish-under-load`,
//!   `replica-kill`, `fault-storm`, `ab-canary`, `connection-storm`)
//!   and their deterministic construction, including each scenario's
//!   seeded fault-injection plan (the `fault-storm` scenario installs
//!   one via `smgcn-faults`);
//! - [`shape`] — what every load is built from: the tagged synthetic
//!   model and vocabulary, the hot-pool index draw, and the p50/p99
//!   rule. The `smgcn-bench` bin that drives a server takes its model
//!   from here too — the load generator is the library, the benches
//!   are its callers;
//! - [`schedule`] — the request schedule: generated single-threaded
//!   from the seed, byte-identical across runs and thread counts,
//!   fingerprinted (FNV-1a) into every report;
//! - [`slo`] — per-scenario SLO assertions: p99 latency budget, a
//!   zero-burn error budget, and the generation-consistency invariant
//!   (exact precomputed rankings, or per-connection monotonicity under
//!   live refreshes);
//! - [`engine`] — stands the topology up in-process (servers, router,
//!   online pipeline), drives the schedule from paced worker threads,
//!   fires the chaos plan, measures;
//! - [`storm`] — the connection-storm cohort: 10k+ persistent
//!   keep-alive connections plus a slow-writer sub-cohort, held open
//!   against the reactor server until the `connection-storm`
//!   scenario's window ends, while it reads the server's own
//!   open-connection gauge;
//! - [`report`] — the machine-readable scenario report, split into a
//!   deterministic `workload` section (byte-identical per seed) and a
//!   `measured` section (wall-clock truth, varies run to run).
//!
//! Drive it via `smgcn loadgen <scenario>` (see the CLI) or
//! [`engine::run_scenario`]. CI runs the full suite in smoke mode; the
//! nightly soak workflow runs it at 2.5x the horizon.

#![warn(missing_docs)]

pub mod engine;
pub mod report;
pub mod scenario;
pub mod schedule;
pub mod shape;
pub mod slo;
pub mod storm;

pub use engine::{run, run_scenario};
pub use report::{Measured, ScenarioReport, WorkloadSummary};
pub use scenario::{
    build, scrape_interval_ms, AlertPlan, ScenarioConfig, ScenarioKind, StormSpec, Topology,
    Workload,
};
pub use schedule::{Op, Request, Schedule};
pub use slo::{GenCheck, Slo, SloVerdict};
