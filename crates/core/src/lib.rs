//! # smgcn-core — the SMGCN model and aligned baselines
//!
//! Implements the paper's primary contribution on top of `smgcn-tensor`
//! (autograd substrate) and `smgcn-graph` (graph operators):
//!
//! - [`bipar_gcn`] — Bipartite GCN with type-specific weights (§IV-A);
//! - [`sge`] — Synergy Graph Encoding over `SS`/`HH` (§IV-B);
//! - [`syndrome`] — the MLP-based Syndrome Induction head (§IV-D);
//! - [`model`] — the fused SMGCN embedding (Eq. 11) and the shared
//!   [`model::Recommender`] prediction layer (Eq. 13);
//! - [`baselines`] — GC-MC, PinSage, NGCF and HeteGCN, aligned per §V-C;
//! - [`zoo`] — one constructor per Table IV/V row;
//! - [`loss`] — weighted multi-label MSE (Eqs. 14–15) and BPR;
//! - [`trainer`] — the Adam mini-batch loop with Eq. 13's L2 term;
//! - [`batch`] / [`config`] — batch assembly and Table III hyperparameters.
//!
//! ## Quickstart
//!
//! ```
//! use smgcn_core::prelude::*;
//! use smgcn_data::{GeneratorConfig, SyndromeModel};
//! use smgcn_graph::{GraphOperators, SynergyThresholds};
//!
//! let corpus = SyndromeModel::new(GeneratorConfig::tiny_scale()).generate();
//! let ops = GraphOperators::from_records(
//!     corpus.records(),
//!     corpus.n_symptoms(),
//!     corpus.n_herbs(),
//!     SynergyThresholds { x_s: 1, x_h: 1 },
//! );
//! let config = ModelConfig { embedding_dim: 16, layer_dims: vec![16], ..ModelConfig::smgcn() };
//! let mut model = Recommender::smgcn(&ops, &config, 42);
//! let train_cfg = TrainConfig { epochs: 2, batch_size: 128, ..TrainConfig::smoke() };
//! let history = train(&mut model, &corpus, &train_cfg);
//! assert!(history.final_loss().is_finite());
//! let top5 = model.recommend(corpus.prescriptions()[0].symptoms(), 5);
//! assert_eq!(top5.len(), 5);
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod batch;
pub mod bipar_gcn;
pub mod config;
pub mod embedding;
pub mod loss;
pub mod model;
pub mod sge;
pub mod syndrome;
pub mod trainer;
pub mod zoo;

pub use config::{LossKind, ModelConfig, TrainConfig};
pub use embedding::{EmbeddingLayer, ForwardCtx};
pub use model::{Recommender, SmgcnEmbedding};
pub use trainer::{
    set_epoch_observer, train, train_until, train_with_callback, EpochObserver, EpochPhases,
    EpochStats, TrainingHistory,
};
pub use zoo::{build_model, ModelKind};

/// Common imports for experiment code.
pub mod prelude {
    pub use crate::config::{LossKind, ModelConfig, TrainConfig};
    pub use crate::embedding::{EmbeddingLayer, ForwardCtx};
    pub use crate::model::Recommender;
    pub use crate::trainer::{train, train_until, train_with_callback, TrainingHistory};
    pub use crate::zoo::{build_model, ModelKind};
}
