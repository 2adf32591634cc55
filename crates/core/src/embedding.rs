//! The embedding-layer abstraction every model implements.
//!
//! The paper's framework (Fig. 2) separates a *multi-graph embedding layer*
//! — anything that produces symptom and herb embeddings — from the shared
//! *syndrome-aware prediction layer*. Table IV's comparison aligns all GNN
//! baselines under exactly this split ("we modify GC-MC, PinSage and NGCF
//! by adding the SI part and employing multi-label loss"), so the trait
//! boundary here is the paper's own experimental protocol.

use rand::rngs::StdRng;
use smgcn_tensor::{Tape, Var};

/// Per-forward-pass context: training mode and the RNG driving message
/// dropout and any sampling.
pub struct ForwardCtx<'r> {
    /// True during optimisation; enables message dropout.
    pub training: bool,
    /// Message-dropout rate applied to aggregated neighborhood embeddings.
    pub dropout: f32,
    /// RNG for dropout masks.
    pub rng: &'r mut StdRng,
}

impl<'r> ForwardCtx<'r> {
    /// An inference context (no dropout regardless of rate).
    pub fn inference(rng: &'r mut StdRng) -> Self {
        Self {
            training: false,
            dropout: 0.0,
            rng,
        }
    }

    /// A training context with the given message-dropout rate.
    pub fn training(dropout: f32, rng: &'r mut StdRng) -> Self {
        Self {
            training: true,
            dropout,
            rng,
        }
    }

    /// Applies message dropout to a node if in training mode.
    pub fn apply_dropout(&mut self, tape: &mut Tape<'_>, x: Var) -> Var {
        if self.training && self.dropout > 0.0 {
            tape.dropout(x, self.dropout, self.rng)
        } else {
            x
        }
    }
}

/// A model's embedding layer: computes symptom and herb embeddings on a
/// tape whose [`smgcn_tensor::ParamStore`] registered this layer's
/// parameters.
pub trait EmbeddingLayer {
    /// Display name used in reports (Table IV row labels).
    fn name(&self) -> &'static str;

    /// Dimension of the produced embeddings.
    fn output_dim(&self) -> usize;

    /// Computes `(symptom_embeddings [S x d], herb_embeddings [H x d])`.
    fn embed(&self, tape: &mut Tape<'_>, ctx: &mut ForwardCtx<'_>) -> (Var, Var);
}

#[cfg(test)]
mod tests {
    use super::*;
    use smgcn_tensor::init::seeded_rng;
    use smgcn_tensor::{Matrix, ParamStore};

    #[test]
    fn inference_ctx_never_drops() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = tape.input(Matrix::filled(4, 4, 1.0));
        let mut rng = seeded_rng(1);
        let mut ctx = ForwardCtx::inference(&mut rng);
        let y = ctx.apply_dropout(&mut tape, x);
        assert_eq!(y, x, "inference must not insert dropout nodes");
    }

    #[test]
    fn training_ctx_drops_when_rate_positive() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = tape.input(Matrix::filled(16, 16, 1.0));
        let mut rng = seeded_rng(1);
        let mut ctx = ForwardCtx::training(0.5, &mut rng);
        let y = ctx.apply_dropout(&mut tape, x);
        assert_ne!(y, x);
        let zeros = tape
            .value(y)
            .as_slice()
            .iter()
            .filter(|&&v| v == 0.0)
            .count();
        assert!(zeros > 0, "dropout should zero some entries");
    }

    #[test]
    fn training_ctx_with_zero_rate_is_identity() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = tape.input(Matrix::filled(4, 4, 1.0));
        let mut rng = seeded_rng(1);
        let mut ctx = ForwardCtx::training(0.0, &mut rng);
        assert_eq!(ctx.apply_dropout(&mut tape, x), x);
    }
}
