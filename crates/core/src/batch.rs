//! Mini-batch assembly: set-pooling operators, herb label sets, BPR pair
//! sampling and the shuffled batch iterator.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use smgcn_data::Prescription;
use smgcn_tensor::{CsrMatrix, LabelSets, SharedCsr};

/// One training batch: the symptom-set pooling operator plus targets.
pub struct Batch {
    /// `B x S` row-normalised incidence matrix: row `b` averages the fused
    /// embeddings of prescription `b`'s symptom set (Eq. 12's mean pooling).
    pub set_pool: SharedCsr,
    /// Row `b` is prescription `b`'s herb set, ascending: the ones of the
    /// multi-hot ground truth `hc'` of Eq. 13, and what BPR samples
    /// negatives around.
    pub herbs: Arc<LabelSets>,
}

/// Builds the `B x S` mean-pooling operator for a batch of symptom sets.
///
/// # Panics
/// Panics if a set is empty or references a symptom outside `n_symptoms`.
pub fn set_pool_matrix(sets: &[&[u32]], n_symptoms: usize) -> CsrMatrix {
    let mut triplets = Vec::new();
    for (b, set) in sets.iter().enumerate() {
        assert!(
            !set.is_empty(),
            "set_pool_matrix: empty symptom set at row {b}"
        );
        let w = 1.0 / set.len() as f32;
        for &s in *set {
            assert!(
                (s as usize) < n_symptoms,
                "set_pool_matrix: symptom {s} out of range {n_symptoms}"
            );
            triplets.push((b as u32, s, w));
        }
    }
    CsrMatrix::from_triplets(sets.len(), n_symptoms, &triplets)
}

/// Assembles a batch from prescriptions.
pub fn make_batch(prescriptions: &[&Prescription], n_symptoms: usize) -> Batch {
    let symptom_sets: Vec<&[u32]> = prescriptions.iter().map(|p| p.symptoms()).collect();
    Batch {
        set_pool: SharedCsr::new(set_pool_matrix(&symptom_sets, n_symptoms)),
        herbs: Arc::new(LabelSets::from_rows(
            prescriptions.iter().map(|p| p.herbs()),
        )),
    }
}

/// Samples BPR pairs `(batch_row, positive, negative)`: for every positive
/// herb of every prescription, `negatives_per_pos` herbs outside the
/// prescription's herb set, uniformly.
pub fn sample_bpr_pairs(
    herb_sets: &LabelSets,
    n_herbs: usize,
    negatives_per_pos: usize,
    rng: &mut StdRng,
) -> Vec<(u32, u32, u32)> {
    let mut pairs = Vec::new();
    for (b, herbs) in herb_sets.iter().enumerate() {
        debug_assert!(herbs.len() < n_herbs, "herb set covers whole vocabulary");
        for &pos in herbs {
            for _ in 0..negatives_per_pos {
                // Rejection sampling; herb sets are tiny relative to |H|.
                let neg = loop {
                    let cand = rng.gen_range(0..n_herbs as u32);
                    if herbs.binary_search(&cand).is_err() {
                        break cand;
                    }
                };
                pairs.push((b as u32, pos, neg));
            }
        }
    }
    pairs
}

/// Yields shuffled mini-batches of prescription indices for one epoch.
pub fn epoch_batches(n: usize, batch_size: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    assert!(batch_size > 0, "epoch_batches: batch_size must be positive");
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    order.chunks(batch_size).map(<[usize]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn set_pool_rows_average() {
        let sets: Vec<&[u32]> = vec![&[0, 2], &[1]];
        let m = set_pool_matrix(&sets, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!((m.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((m.get(0, 2) - 0.5).abs() < 1e-6);
        assert!((m.get(1, 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty symptom set")]
    fn set_pool_rejects_empty() {
        let sets: Vec<&[u32]> = vec![&[]];
        let _ = set_pool_matrix(&sets, 3);
    }

    #[test]
    fn batch_assembly() {
        let p1 = Prescription::new(vec![0, 1], vec![2, 0]);
        let p2 = Prescription::new(vec![2], vec![1]);
        let batch = make_batch(&[&p1, &p2], 3);
        assert_eq!(batch.set_pool.shape(), (2, 3));
        assert_eq!(batch.herbs.rows(), 2);
        assert_eq!(batch.herbs.row(0), &[0, 2]);
        assert_eq!(batch.herbs.row(1), &[1]);
    }

    #[test]
    fn bpr_pairs_avoid_positives() {
        let herb_sets = LabelSets::from_rows([&[0u32, 1][..], &[2]]);
        let mut rng = StdRng::seed_from_u64(3);
        let pairs = sample_bpr_pairs(&herb_sets, 10, 2, &mut rng);
        assert_eq!(pairs.len(), (2 + 1) * 2);
        for &(b, pos, neg) in &pairs {
            let set = herb_sets.row(b as usize);
            assert!(set.contains(&pos));
            assert!(
                !set.contains(&neg),
                "negative {neg} is a positive of row {b}"
            );
        }
    }

    #[test]
    fn epoch_batches_cover_everything() {
        let mut rng = StdRng::seed_from_u64(5);
        let batches = epoch_batches(10, 4, &mut rng);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches[2].len(), 2);
        let mut all: Vec<usize> = batches.concat();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn epoch_batches_shuffle_deterministically() {
        let a = epoch_batches(20, 5, &mut StdRng::seed_from_u64(1));
        let b = epoch_batches(20, 5, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
        let c = epoch_batches(20, 5, &mut StdRng::seed_from_u64(2));
        assert_ne!(a, c);
    }
}
