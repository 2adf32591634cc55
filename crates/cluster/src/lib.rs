//! # smgcn-cluster — replicated, shard-routed serving
//!
//! `smgcn-serve` made one process fast; this crate makes N of them one
//! logical service. Herb-recommendation traffic is read-heavy with
//! small, heavily repeating symptom-set queries — the ideal shape for
//! replica fan-out with cache affinity — and the online pipeline's hot
//! swap (PR 3) needs a cross-machine counterpart so the fleet can take
//! a new model generation without dropping a query.
//!
//! - [`ring`] — [`HashRing`]: consistent hashing of canonical
//!   symptom-set keys onto replicas. The same clinic presentation lands
//!   on the same replica (its LRU stays hot), and membership changes
//!   remap only ~1/N of the keyspace (property-tested);
//! - [`pool`] — [`ReplicaPool`]: persistent per-replica connections with
//!   bounded in-flight leases, passive failure detection, active
//!   `{"op":"stats"}` health probes (which also eject *slow* replicas by
//!   served p99) and exponential-backoff ejection; [`pool::ask`] is the
//!   one way the cluster asks a replica an admin question (the
//!   `smgcn_serve::client` reading of the reply: a refusal is never an
//!   answer);
//! - [`router`] — [`Router`]: a front-end speaking the exact
//!   `smgcn-serve` NDJSON protocol, routing by ring key with
//!   retry-on-next-replica failover. Requests are pure reads, so a
//!   failed or shed forward replays safely on the next candidate; only
//!   a fleet-wide outage surfaces to the client;
//! - [`publish`] — rolling publishes: the serialized model+vocab
//!   artifact (`smgcn_serve::artifact`) is pushed to one replica at a
//!   time via `{"op":"publish"}`, so the fleet never goes dark and each
//!   response still comes from exactly one generation. One walk
//!   (`publish::roll`) serves control, candidate and CLI rollouts;
//! - [`experiment`] — fleet-level A/B coordination: candidate rollouts,
//!   atomic split installs, guardrailed promotion.
//!
//! The multi-process failover test (`tests/cluster_failover.rs` at the
//! workspace root) kills a replica and rolls a publish mid-load with
//! zero failed client requests; the `replica-kill` loadgen scenario
//! times the ejection, the benchmark's `routed_unique` the router hop.

#![warn(missing_docs)]

pub mod experiment;
pub mod pool;
pub mod publish;
pub mod ring;
pub mod router;

pub use pool::{ask, ClusterObs, Health, Lease, PoolConfig, Replica, ReplicaConn, ReplicaPool};
pub use publish::{rolling_publish, rolling_publish_addrs, FleetOutcome, PublishReport};
pub use ring::{key_of_ids, key_of_names, HashRing};
pub use router::{merge_metric_value, merge_metrics, Router, RouterConfig};
