//! Syndrome Induction (§IV-D, Eq. 12, Fig. 4).
//!
//! Given the fused symptom embeddings and a batch of symptom sets, the SI
//! component mean-pools each set's embeddings and (in the full model)
//! transforms the pooled vector with a single-layer MLP:
//!
//! ```text
//! e_syndrome(sc) = ReLU( W_mlp · Mean(e_sc) + b_mlp )
//! ```
//!
//! With the MLP disabled the component reduces to plain average pooling —
//! the "Bipar-GCN" ablation rows of Table V.

use rand::rngs::StdRng;
use smgcn_tensor::init::xavier_uniform;
use smgcn_tensor::{Matrix, ParamId, ParamStore, SharedCsr, Tape, Var};

/// The syndrome-induction head.
pub struct SyndromeInduction {
    /// `W_mlp` and `b_mlp`; `None` = average pooling only.
    mlp: Option<(ParamId, ParamId)>,
    dim: usize,
}

impl SyndromeInduction {
    /// Registers MLP parameters when `use_mlp` is set. `dim` is the fused
    /// embedding dimension (the MLP is square, `d -> d`, per Fig. 4).
    pub fn init(store: &mut ParamStore, dim: usize, use_mlp: bool, rng: &mut StdRng) -> Self {
        let mlp = use_mlp.then(|| {
            let w = store.add("si.w_mlp", xavier_uniform(dim, dim, rng));
            let b = store.add("si.b_mlp", Matrix::zeros(1, dim));
            (w, b)
        });
        Self { mlp, dim }
    }

    /// Syndrome embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Clones the MLP weights `(W_mlp [d x d], b_mlp [1 x d])` out of
    /// `store`, for freezing the head into a serving-side model.
    pub fn export_weights(&self, store: &ParamStore) -> Option<(Matrix, Matrix)> {
        self.mlp
            .map(|(w, b)| (store.get(w).clone(), store.get(b).clone()))
    }

    /// Induces the batch's syndrome representations: `set_pool` is the
    /// `B x S` row-normalised incidence operator (mean pooling), and
    /// `fused_symptoms` the `S x d` fused embedding matrix `e*_s`.
    pub fn induce(&self, tape: &mut Tape<'_>, fused_symptoms: Var, set_pool: &SharedCsr) -> Var {
        let pooled = tape.spmm(set_pool, fused_symptoms);
        match self.mlp {
            Some((w, b)) => {
                let wv = tape.param(w);
                let lin = tape.matmul(pooled, wv);
                let bv = tape.param(b);
                let lin = tape.add_bias(lin, bv);
                tape.relu(lin)
            }
            None => pooled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smgcn_tensor::init::seeded_rng;
    use smgcn_tensor::CsrMatrix;

    fn pool() -> SharedCsr {
        // Two sets over 3 symptoms: {0, 1} and {2}.
        SharedCsr::new(CsrMatrix::from_triplets(
            2,
            3,
            &[(0, 0, 0.5), (0, 1, 0.5), (1, 2, 1.0)],
        ))
    }

    #[test]
    fn mean_pooling_without_mlp() {
        let mut store = ParamStore::new();
        let si = SyndromeInduction::init(&mut store, 2, false, &mut seeded_rng(1));
        assert!(si.export_weights(&store).is_none());
        let e = store.add(
            "e",
            Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        );
        let mut tape = Tape::new(&store);
        let ev = tape.param(e);
        let syndrome = si.induce(&mut tape, ev, &pool());
        // Set {0,1}: mean of [1,2] and [3,4] = [2,3]; set {2}: [5,6].
        assert_eq!(tape.value(syndrome).row(0), &[2.0, 3.0]);
        assert_eq!(tape.value(syndrome).row(1), &[5.0, 6.0]);
    }

    #[test]
    fn mlp_applies_relu_nonlinearity() {
        let mut store = ParamStore::new();
        let si = SyndromeInduction::init(&mut store, 2, true, &mut seeded_rng(1));
        assert!(si.export_weights(&store).is_some());
        // Force W = -I so positive pooled values go negative and ReLU clamps.
        let w_id = store.iter().find(|(_, n, _)| *n == "si.w_mlp").unwrap().0;
        *store.get_mut(w_id) = Matrix::identity(2).scale(-1.0);
        let e = store.add("e", Matrix::filled(3, 2, 1.0));
        let mut tape = Tape::new(&store);
        let ev = tape.param(e);
        let syndrome = si.induce(&mut tape, ev, &pool());
        assert!(tape.value(syndrome).as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradients_flow_through_mlp() {
        let mut store = ParamStore::new();
        let si = SyndromeInduction::init(&mut store, 2, true, &mut seeded_rng(2));
        let e = store.add("e", Matrix::filled(3, 2, 0.5));
        let mut tape = Tape::new(&store);
        let ev = tape.param(e);
        let syndrome = si.induce(&mut tape, ev, &pool());
        let loss = tape.sum_squares(syndrome);
        let grads = tape.backward(loss);
        assert!(
            grads.get(e).is_some(),
            "pooled embeddings must receive gradient"
        );
        assert_eq!(grads.present_count(), 3, "W_mlp, b_mlp and e all train");
    }

    #[test]
    fn mlp_bias_starts_at_zero() {
        let mut store = ParamStore::new();
        let _ = SyndromeInduction::init(&mut store, 4, true, &mut seeded_rng(3));
        let b = store.iter().find(|(_, n, _)| *n == "si.b_mlp").unwrap().2;
        assert_eq!(b.sum(), 0.0);
        assert_eq!(b.shape(), (1, 4));
    }
}
