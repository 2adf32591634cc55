//! # smgcn-online — the live data→graph→model→serve loop
//!
//! The training pipeline (`smgcn-data` → `smgcn-graph` → `smgcn-core`)
//! and the serving pipeline (`smgcn-serve`) were straight lines: build
//! graphs from a fixed corpus, train, freeze once, serve forever. Real
//! clinics append prescriptions continuously, so this crate closes the
//! loop — new records flow back into the graphs, the model and the
//! running server without a restart:
//!
//! - [`ingest`] — [`Ingestor`]: an append-only prescription WAL that
//!   validates against the vocabularies (appending unseen entities with
//!   stable ids), deduplicates, and batches accepted records;
//! - [`delta`] — [`IncrementalGraphs`]: co-occurrence count deltas
//!   applied to the CSR adjacency with lazy renormalization, exactly
//!   equal to a from-scratch rebuild on the grown corpus
//!   (property-tested: counts exact, normalized adjacency ≤ 1e-6);
//! - [`finetune`] — warm-start fine-tuning: resume the pooled trainer
//!   from the last parameters on the delta'd graphs for a small epoch
//!   budget instead of retraining cold;
//! - [`swap`] — [`OnlinePipeline`]: the ingest→delta→finetune→freeze→
//!   publish orchestration over a `smgcn-serve` [`ModelSlot`], so a
//!   running server hot-swaps to the refreshed model between batches.
//!
//! Determinism caveat: graph parity is exact, but a warm-started
//! fine-tune is *not* weight-identical to a cold retrain on the grown
//! corpus — it converges to the same loss plateau in a fraction of the
//! epochs (`tests/warm_refresh.rs`), which is the operating
//! point the paper's static pipeline cannot reach at all.

#![warn(missing_docs)]

pub mod delta;
pub mod finetune;
pub mod ingest;
pub mod swap;

pub use delta::IncrementalGraphs;
pub use finetune::{fine_tune, FineTuneConfig, FineTuneReport};
pub use ingest::{IngestError, IngestOutcome, IngestStats, Ingestor, WalRecovery};
pub use smgcn_serve::ModelSlot;
pub use swap::{OnlineConfig, OnlinePipeline, RefreshError, RefreshReport};
