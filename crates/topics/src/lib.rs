//! # smgcn-topics — the HC-KGETM baseline substitute
//!
//! The paper's strongest non-GNN baseline, HC-KGETM (Wang et al., DASFAA
//! 2019), fuses a prescription topic model with TransE embeddings of a
//! curated TCM knowledge graph. The curated graph is not available, so
//! this crate rebuilds the method on a knowledge graph *derived from the
//! corpus itself* (README.md, "The corpus"):
//!
//! - [`lda`] — collapsed-Gibbs syndrome-topic model over symptom+herb
//!   tokens;
//! - [`transe`] — TransE over `treats-with` / `co-manifests` /
//!   `compatible-with` triples extracted from the corpus graphs;
//! - [`kgetm`] — the fused per-symptom ranker.
//!
//! The substitute preserves the baseline's defining property: it scores one
//! symptom at a time and aggregates, ignoring symptom-set structure — the
//! behaviour the paper's Syndrome Induction component is designed to beat.

#![warn(missing_docs)]

pub mod kgetm;
pub mod lda;
pub mod transe;

pub use kgetm::{HcKgetm, KgetmConfig};
pub use lda::{LdaConfig, TopicModel};
pub use transe::{derive_triples, Relation, TransE, TransEConfig, Triple};
