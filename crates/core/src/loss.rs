//! Loss assembly on the tape.
//!
//! The multi-label path realises Eqs. 13–15: weighted MSE between the
//! predicted score vector and the multi-hot ground-truth herb set, with
//! per-herb imbalance weights. The BPR path is the Table VIII comparison
//! objective. The L2 term of Eq. 13 is handled by the optimizer as weight
//! decay `2λ_Θ` (see `smgcn_tensor::optim`), keeping the tape free of a
//! per-parameter regularisation fan-in.

use std::sync::Arc;

use rand::rngs::StdRng;
use smgcn_tensor::{Tape, Var};

use crate::batch::{sample_bpr_pairs, Batch};
use crate::config::LossKind;

/// Negative herbs sampled per positive herb for the BPR objective.
pub const BPR_NEGATIVES: usize = 1;

/// Attaches the configured training objective to `scores` (`B x H`) and
/// returns the scalar loss node.
pub fn attach_loss(
    tape: &mut Tape<'_>,
    scores: Var,
    batch: &Batch,
    kind: LossKind,
    herb_weights: &Arc<Vec<f32>>,
    n_herbs: usize,
    rng: &mut StdRng,
) -> Var {
    match kind {
        LossKind::MultiLabel => {
            tape.weighted_mse(scores, Arc::clone(&batch.herbs), herb_weights.clone())
        }
        LossKind::Bpr => {
            let pairs = sample_bpr_pairs(&batch.herbs, n_herbs, BPR_NEGATIVES, rng);
            tape.bpr_loss(scores, Arc::new(pairs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::make_batch;
    use rand::SeedableRng;
    use smgcn_data::Prescription;
    use smgcn_tensor::{Matrix, ParamStore};

    fn batch() -> Batch {
        let p1 = Prescription::new(vec![0, 1], vec![0, 2]);
        let p2 = Prescription::new(vec![2], vec![1]);
        make_batch(&[&p1, &p2], 3)
    }

    /// [`batch`]'s herb sets as the multi-hot `2 x 4` target.
    fn targets() -> Matrix {
        Matrix::from_vec(2, 4, vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    }

    #[test]
    fn multilabel_prefers_correct_predictions() {
        let b = batch();
        let weights = Arc::new(vec![1.0f32; 4]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut loss_of = |pred: Matrix| -> f32 {
            let mut store = ParamStore::new();
            let id = store.add("p", pred);
            let mut tape = Tape::new(&store);
            let v = tape.param(id);
            let loss = attach_loss(
                &mut tape,
                v,
                &b,
                LossKind::MultiLabel,
                &weights,
                4,
                &mut rng,
            );
            tape.value(loss).get(0, 0)
        };
        let perfect = loss_of(targets());
        let wrong = loss_of(targets().map(|v| 1.0 - v));
        assert!(perfect < 1e-9);
        assert!(wrong > perfect);
    }

    #[test]
    fn bpr_prefers_ranked_positives() {
        let b = batch();
        let weights = Arc::new(vec![1.0f32; 4]);
        let mut rng = StdRng::seed_from_u64(2);
        let loss_of = |pred: Matrix, rng: &mut StdRng| -> f32 {
            let mut store = ParamStore::new();
            let id = store.add("p", pred);
            let mut tape = Tape::new(&store);
            let v = tape.param(id);
            let loss = attach_loss(&mut tape, v, &b, LossKind::Bpr, &weights, 4, rng);
            tape.value(loss).get(0, 0)
        };
        // Positives scored high ⇒ small loss; inverted ⇒ large loss.
        let good = loss_of(targets().scale(5.0), &mut rng);
        let bad = loss_of(targets().map(|v| (1.0 - v) * 5.0), &mut rng);
        assert!(good < bad, "good {good} vs bad {bad}");
    }
}
