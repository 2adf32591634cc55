//! # smgcn-obs — fleet-wide observability primitives
//!
//! The serving stack spans ingest→delta→finetune→freeze→publish→route→
//! serve; when an SLO trips the question is always *where inside that
//! pipeline* the time or the errors went. This crate is the shared,
//! std-only telemetry layer every other crate threads through:
//!
//! - [`registry`] — a process-component-scoped [`Registry`] of lock-free
//!   counters, gauges and log-bucketed histograms (optionally labeled),
//!   snapshotable to structured samples, JSON, and Prometheus text
//!   exposition;
//! - [`histogram`] — the decaying latency histogram (migrated from
//!   `smgcn-serve`), now also exposing *undecayed since-start* totals so
//!   bench runs can compare percentiles without the decay window
//!   rewriting history;
//! - [`trace`] — the per-request span list ([`TraceBuilder`]) a
//!   replica's latency, profile and requested traces all read, trace-id
//!   minting, and the deterministic [`Sampler`] behind duel sampling;
//! - [`events`] — a bounded [`EventJournal`] of structured timestamped
//!   operational events (ejections, recoveries, publishes, hot swaps,
//!   WAL flushes, shed decisions, SLO alerts);
//! - [`tsdb`] — the retention layer: an append-only, delta-encoded
//!   on-disk time-series store ([`Tsdb`]), a [`Scraper`] that polls a
//!   metrics source on an interval, and a windowed query API
//!   ([`TsdbData`]: rate, delta, percentile-over-time);
//! - [`profile`] — an always-on continuous [`Profiler`] folding each
//!   request's phases into cumulative flamegraph-collapsible stacks;
//! - [`alert`] — declarative [`SloRule`]s judged over the tsdb with
//!   Google-SRE multi-window burn-rate pairs, edge-triggered into the
//!   event journal by an [`AlertEngine`];
//! - [`integrity`] — the shared CRC32 every durable format checksums
//!   its payloads with, and the one framed append-only log
//!   ([`integrity::FramedLog`]) under the ingest WAL and the tsdb.
//!
//! Everything here is deliberately dependency-free and sits at the
//! bottom of the workspace graph: `serve`, `cluster`, `online` and the
//! CLI all depend on `obs`, never the reverse. The registry holds its
//! handles behind `Arc`s, so the record path (`Counter::inc`,
//! `LatencyHistogram::record`) never takes a lock — only snapshotting
//! walks the registration map.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod alert;
pub mod events;
pub mod histogram;
pub mod integrity;
pub mod profile;
pub mod registry;
pub mod trace;
pub mod tsdb;

pub use alert::{Alert, AlertEngine, BurnWindow, SloKind, SloRule};
pub use events::{Event, EventJournal};
pub use histogram::{LatencyHistogram, LatencySnapshot, DECAY_INTERVAL};
pub use profile::{ProfileHandle, Profiler};
pub use registry::{Counter, Gauge, HistogramStats, Registry, Sample, SampleValue};
pub use trace::{mint_trace_id, Sampler, SpanRecord, TraceBuilder};
pub use tsdb::{Scraper, SeriesEncoder, Tsdb, TsdbData};
