//! Model and training configuration.
//!
//! Defaults reproduce Table III's optimal settings for SMGCN: embedding
//! size 64, first GCN layer 128, last layer 256 (2 layers), `lr = 2e-4`,
//! `λ_Θ = 7e-3`, dropout 0, thresholds `x_s = 5`, `x_h = 40`, batch 1024,
//! Xavier + Adam.

use serde::{Deserialize, Serialize};

/// Which training objective to use (Table VIII compares the two).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LossKind {
    /// The paper's weighted multi-label MSE (Eqs. 13–15).
    MultiLabel,
    /// Pair-wise Bayesian Personalised Ranking.
    Bpr,
}

/// Architecture hyperparameters shared by SMGCN and its ablations.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Initial embedding size `d_0` (the paper fixes 64).
    pub embedding_dim: usize,
    /// Output dimension of each Bipar-GCN layer; `len()` is the GCN depth.
    /// Paper optimum: `[128, 256]`.
    pub layer_dims: Vec<usize>,
    /// Message dropout rate on aggregated neighborhood embeddings.
    pub dropout: f32,
    /// Include the Synergy Graph Encoding component (`SS`/`HH` GCNs).
    pub use_sge: bool,
    /// Apply the syndrome-induction MLP after mean pooling. When false the
    /// model reduces to the "Bipar-GCN" ablation row (average pooling only).
    pub use_si_mlp: bool,
}

impl ModelConfig {
    /// Table III's optimal SMGCN configuration.
    pub fn smgcn() -> Self {
        Self {
            embedding_dim: 64,
            layer_dims: vec![128, 256],
            dropout: 0.0,
            use_sge: true,
            use_si_mlp: true,
        }
    }

    /// The "Bipar-GCN" ablation (no SGE, mean-only syndrome induction).
    pub fn bipar_gcn() -> Self {
        Self {
            use_sge: false,
            use_si_mlp: false,
            ..Self::smgcn()
        }
    }

    /// The "Bipar-GCN w/ SGE" ablation.
    pub fn bipar_gcn_with_sge() -> Self {
        Self {
            use_sge: true,
            use_si_mlp: false,
            ..Self::smgcn()
        }
    }

    /// The "Bipar-GCN w/ SI" ablation.
    pub fn bipar_gcn_with_si() -> Self {
        Self {
            use_sge: false,
            use_si_mlp: true,
            ..Self::smgcn()
        }
    }

    /// Layer dimensions for a given depth and final dimension, following
    /// the paper's scheme (first output layer 128, last layer `last_dim`,
    /// any middle layers 128). Used by the Table VI/VII sweeps.
    pub fn layer_dims_for(depth: usize, last_dim: usize) -> Vec<usize> {
        assert!(depth >= 1, "GCN depth must be at least 1");
        match depth {
            1 => vec![last_dim],
            d => {
                let mut dims = vec![128; d - 1];
                dims.push(last_dim);
                dims
            }
        }
    }

    /// The GCN depth.
    pub fn depth(&self) -> usize {
        self.layer_dims.len()
    }

    /// The output (final) embedding dimension.
    pub fn final_dim(&self) -> usize {
        *self.layer_dims.last().expect("at least one layer")
    }

    /// Scales dimensions down for fast smoke experiments while keeping the
    /// architecture shape.
    pub fn smoke(mut self) -> Self {
        self.embedding_dim = 32;
        self.layer_dims = self.layer_dims.iter().map(|&d| (d / 4).max(16)).collect();
        self
    }

    fn validate(&self) {
        assert!(self.embedding_dim > 0, "embedding_dim must be positive");
        assert!(!self.layer_dims.is_empty(), "need at least one GCN layer");
        assert!(
            (0.0..1.0).contains(&self.dropout),
            "dropout must be in [0, 1)"
        );
    }

    /// Panics if the configuration is inconsistent.
    pub fn assert_valid(&self) {
        self.validate();
    }
}

/// Optimisation hyperparameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training prescriptions.
    pub epochs: usize,
    /// Mini-batch size (paper: 1024).
    pub batch_size: usize,
    /// Adam learning rate (paper SMGCN optimum: 2e-4).
    pub learning_rate: f32,
    /// L2 coefficient `λ_Θ` of Eq. 13 (paper SMGCN optimum: 7e-3).
    pub l2_lambda: f32,
    /// Objective (Table VIII).
    pub loss: LossKind,
    /// Apply Eq. 15's inverse-frequency label weights. Disabling this is
    /// the loss-weighting ablation (all herbs weighted equally).
    pub weighted_labels: bool,
    /// RNG seed for shuffling, dropout and negative sampling.
    pub seed: u64,
}

impl TrainConfig {
    /// Table III's optimal SMGCN training setup (epochs chosen for the
    /// reproduction corpus; the paper does not report its epoch budget).
    pub fn smgcn() -> Self {
        Self {
            epochs: 30,
            batch_size: 1024,
            learning_rate: 2e-4,
            l2_lambda: 7e-3,
            loss: LossKind::MultiLabel,
            weighted_labels: true,
            seed: 42,
        }
    }

    /// A fast configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        Self {
            epochs: 8,
            batch_size: 256,
            learning_rate: 1e-3,
            ..Self::smgcn()
        }
    }

    /// Override the L2 strength.
    pub fn with_l2(mut self, lambda: f32) -> Self {
        self.l2_lambda = lambda;
        self
    }

    /// Override the loss kind.
    pub fn with_loss(mut self, loss: LossKind) -> Self {
        self.loss = loss;
        self
    }

    /// Override the epoch budget.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smgcn_defaults_match_table_iii() {
        let m = ModelConfig::smgcn();
        assert_eq!(m.embedding_dim, 64);
        assert_eq!(m.layer_dims, vec![128, 256]);
        assert_eq!(m.depth(), 2);
        assert_eq!(m.final_dim(), 256);
        assert!(m.use_sge && m.use_si_mlp);
        let t = TrainConfig::smgcn();
        assert!((t.learning_rate - 2e-4).abs() < 1e-9);
        assert!((t.l2_lambda - 7e-3).abs() < 1e-9);
        assert_eq!(t.batch_size, 1024);
    }

    #[test]
    fn ablation_configs_toggle_components() {
        assert!(!ModelConfig::bipar_gcn().use_sge);
        assert!(!ModelConfig::bipar_gcn().use_si_mlp);
        assert!(ModelConfig::bipar_gcn_with_sge().use_sge);
        assert!(!ModelConfig::bipar_gcn_with_sge().use_si_mlp);
        assert!(!ModelConfig::bipar_gcn_with_si().use_sge);
        assert!(ModelConfig::bipar_gcn_with_si().use_si_mlp);
    }

    #[test]
    fn layer_dims_scheme() {
        assert_eq!(ModelConfig::layer_dims_for(1, 256), vec![256]);
        assert_eq!(ModelConfig::layer_dims_for(2, 256), vec![128, 256]);
        assert_eq!(ModelConfig::layer_dims_for(3, 512), vec![128, 128, 512]);
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn zero_depth_rejected() {
        let _ = ModelConfig::layer_dims_for(0, 64);
    }

    #[test]
    fn smoke_shrinks_dims() {
        let m = ModelConfig::smgcn().smoke();
        assert_eq!(m.embedding_dim, 32);
        assert_eq!(m.layer_dims, vec![32, 64]);
        m.assert_valid();
    }
}
