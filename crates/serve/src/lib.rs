//! # smgcn-serve — frozen-model inference engine
//!
//! SMGCN's graph convolutions (Bipar-GCN + SGE, Eq. 7–11) run over the
//! *static* symptom–herb graphs, so the final node embeddings are
//! query-independent: they can be materialized once after training. Only
//! the syndrome-induction head (Eq. 12) and the dot-product scorer
//! (Eq. 13) depend on the incoming symptom set. This crate exploits that
//! split to serve recommendations without rebuilding the model:
//!
//! - [`frozen`] — [`FrozenModel`]: the materialized final embeddings plus
//!   the SI-MLP weights, with save/load as a model file ([`artifact`])
//!   and single / batched scoring paths, selecting with
//!   `smgcn_tensor`'s partial top-k ([`partial_top_k`] is re-exported);
//! - [`cache`] — an LRU keyed by the sorted symptom-id set, because
//!   clinic traffic repeats symptom combinations heavily, with
//!   generation-tagged entries so hot swaps invalidate lazily;
//! - [`batcher`] — micro-batching: concurrent queries are packed into one
//!   `B x d` matrix multiply, resolved against one model generation per
//!   drained batch;
//! - [`slot`] — [`ModelSlot`]: the atomic generation pointer behind
//!   versioned hot model swaps under live traffic;
//! - [`artifact`] — the one model file (vocabulary + checksummed tensor
//!   frames) behind training checkpoints, frozen models and the publish
//!   artifact shipped by cluster rolling publishes and accepted by the
//!   `{"op":"publish"}` admin verb, plus its base64 codec;
//! - [`json`] — the minimal JSON reader/writer behind the wire protocol;
//! - [`errors`] — the shared wire error-code constants and the router's
//!   retryability classification, so serve and cluster can't drift;
//! - [`ops`] — the server half of the protocol: the closed [`AdminOp`]
//!   verb set, the [`OpHandler`] dispatch both the replica and the
//!   cluster router implement, [`ApiError`] and the event / span wire
//!   shapes;
//! - [`client`] — the client half: [`LineClient`], a lockstep line
//!   client with timeouts, and the one reading of a reply line as an
//!   answer, a refusal or a transport failure ([`Unanswered`]);
//! - [`reactor`] — a dependency-free epoll/poll readiness reactor:
//!   one event-loop thread owns all socket I/O, a fixed worker pool
//!   runs handlers and wakes it through a Unix socket pair, so
//!   concurrent connections are bounded by file descriptors rather
//!   than threads;
//! - [`conn`] — the per-connection NDJSON framing state machine with
//!   one-response write-backpressure, shared by the replica server
//!   and the cluster router;
//! - [`server`] — the `std::net` TCP server speaking newline-delimited
//!   JSON over the reactor (`smgcn serve`), counting each serving fact
//!   once in one registry, and [`Running`], the
//!   stop-and-join guard [`Server::spawn`] and the router's `spawn`
//!   return;
//! - [`variants`] — the replica half of the experiment plane: one
//!   table of named slots whose first entry is control, the active
//!   split plan and the duel journal.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod artifact;
pub mod batcher;
pub mod cache;
pub mod client;
pub mod conn;
pub mod errors;
pub mod frozen;
pub mod json;
pub mod ops;
pub mod reactor;
pub mod server;
pub mod slot;
pub mod variants;

pub use batcher::{Batcher, BatcherConfig, ScoreTimings};
pub use cache::{GenCacheStats, GenerationalCache, LruCache};
pub use client::{LineClient, Unanswered};
pub use conn::Connection;
pub use errors::{codes, is_retryable};
pub use frozen::{FrozenError, FrozenModel};
pub use ops::{AdminOp, ApiError, OpHandler};
pub use reactor::{Reactor, Service};
pub use server::{Running, Server, ServerConfig, ServingVocab};
pub use slot::{Generation, ModelSlot};
pub use smgcn_obs::{LatencyHistogram, LatencySnapshot};
pub use smgcn_tensor::partial_top_k;
pub use variants::{DuelSample, VariantTable};
