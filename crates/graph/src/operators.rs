//! Packaged graph-convolution operators for the models.
//!
//! The embedding layer of every model in the paper consumes the corpus
//! through exactly four fixed linear operators:
//!
//! | operator  | shape   | role |
//! |-----------|---------|------|
//! | `sh_mean` | `S x H` | row-normalised `SH`: mean-merges herb messages into symptoms (Eqs. 2, 9) |
//! | `hs_mean` | `H x S` | row-normalised `SH^T`: mean-merges symptom messages into herbs (Eqs. 3, 7) |
//! | `ss_sum`  | `S x S` | binary synergy graph `SS`: sum-aggregates symptom co-occurrence (Eq. 10) |
//! | `hh_sum`  | `H x S` | binary synergy graph `HH`: sum-aggregates herb co-occurrence (Eq. 10) |
//!
//! Each is paired with its precomputed transpose ([`SharedCsr`]) so the
//! autograd backward pass never rebuilds sparsity structure.

use smgcn_tensor::{CsrMatrix, SharedCsr};

use crate::bipartite::BipartiteGraph;
use crate::cooccur::CooccurrenceCounts;
use crate::stats::{density, row_degree_stats, DegreeStats};

/// Thresholds controlling synergy-graph construction (Table III: the
/// paper's optimum is `x_s = 5`, `x_h = 40` at full corpus scale).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SynergyThresholds {
    /// Minimum (strict) symptom-pair count for an `SS` edge.
    pub x_s: u32,
    /// Minimum (strict) herb-pair count for an `HH` edge.
    pub x_h: u32,
}

impl Default for SynergyThresholds {
    fn default() -> Self {
        Self { x_s: 5, x_h: 40 }
    }
}

/// All fixed sparse operators required by the multi-graph embedding layer.
#[derive(Clone, Debug)]
pub struct GraphOperators {
    /// Number of symptoms `|S|`.
    pub n_symptoms: usize,
    /// Number of herbs `|H|`.
    pub n_herbs: usize,
    /// Mean-aggregation `S x H` operator over the bipartite graph.
    pub sh_mean: SharedCsr,
    /// Mean-aggregation `H x S` operator over the bipartite graph.
    pub hs_mean: SharedCsr,
    /// Sum-aggregation operator over the symptom–symptom synergy graph.
    pub ss_sum: SharedCsr,
    /// Sum-aggregation operator over the herb–herb synergy graph.
    pub hh_sum: SharedCsr,
    /// Raw binary `S x H` adjacency (kept for diagnostics and baselines
    /// needing symmetric normalisation, e.g. NGCF's Laplacian).
    pub sh_raw: CsrMatrix,
}

/// Degree/density diagnostics for the three graphs (§IV-B-2's argument).
#[derive(Clone, Debug)]
pub struct OperatorDiagnostics {
    /// Symptom-side degree stats of the bipartite graph.
    pub sh_symptom_degrees: DegreeStats,
    /// Herb-side degree stats of the bipartite graph.
    pub sh_herb_degrees: DegreeStats,
    /// Degree stats of `SS`.
    pub ss_degrees: DegreeStats,
    /// Degree stats of `HH`.
    pub hh_degrees: DegreeStats,
    /// Density of the bipartite block.
    pub sh_density: f64,
    /// Density of `SS`.
    pub ss_density: f64,
    /// Density of `HH`.
    pub hh_density: f64,
}

impl GraphOperators {
    /// Builds every operator from prescription records.
    ///
    /// `records` yields `(symptom_ids, herb_ids)` per prescription. Only
    /// training records should be passed — using test prescriptions here
    /// would leak interactions.
    pub fn from_records<'a>(
        records: impl IntoIterator<Item = (&'a [u32], &'a [u32])> + Clone,
        n_symptoms: usize,
        n_herbs: usize,
        thresholds: SynergyThresholds,
    ) -> Self {
        let bipartite = BipartiteGraph::from_records(records.clone(), n_symptoms, n_herbs);
        let mut ss_counts = CooccurrenceCounts::new(n_symptoms);
        let mut hh_counts = CooccurrenceCounts::new(n_herbs);
        for (symptoms, herbs) in records {
            ss_counts.add_set(symptoms);
            hh_counts.add_set(herbs);
        }
        Self::from_parts(&bipartite, &ss_counts, &hh_counts, thresholds)
    }

    /// Builds operators from pre-computed pieces (used by threshold sweeps
    /// to avoid recounting the corpus for each `x_h`).
    pub fn from_parts(
        bipartite: &BipartiteGraph,
        ss_counts: &CooccurrenceCounts,
        hh_counts: &CooccurrenceCounts,
        thresholds: SynergyThresholds,
    ) -> Self {
        let sh_raw = bipartite.sh().clone();
        let sh_mean = SharedCsr::new(sh_raw.row_normalized());
        let hs_mean = SharedCsr::new(sh_raw.transpose().row_normalized());
        let ss_sum = SharedCsr::new(ss_counts.synergy_graph(thresholds.x_s));
        let hh_sum = SharedCsr::new(hh_counts.synergy_graph(thresholds.x_h));
        Self {
            n_symptoms: bipartite.n_symptoms(),
            n_herbs: bipartite.n_herbs(),
            sh_mean,
            hs_mean,
            ss_sum,
            hh_sum,
            sh_raw,
        }
    }

    /// Computes the degree/density diagnostics quoted in §IV-B-2.
    pub fn diagnostics(&self) -> OperatorDiagnostics {
        let hs_raw = self.sh_raw.transpose();
        OperatorDiagnostics {
            sh_symptom_degrees: row_degree_stats(&self.sh_raw),
            sh_herb_degrees: row_degree_stats(&hs_raw),
            ss_degrees: row_degree_stats(self.ss_sum.forward()),
            hh_degrees: row_degree_stats(self.hh_sum.forward()),
            sh_density: density(&self.sh_raw),
            ss_density: density(self.ss_sum.forward()),
            hh_density: density(self.hh_sum.forward()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_records() -> Vec<(Vec<u32>, Vec<u32>)> {
        vec![
            (vec![0, 1], vec![0, 1]),
            (vec![0, 1], vec![0, 2]),
            (vec![2], vec![3]),
            (vec![0, 1], vec![0, 1]),
        ]
    }

    fn build(thresholds: SynergyThresholds) -> GraphOperators {
        let records = toy_records();
        GraphOperators::from_records(
            records.iter().map(|(s, h)| (s.as_slice(), h.as_slice())),
            3,
            4,
            thresholds,
        )
    }

    #[test]
    fn operator_shapes() {
        let ops = build(SynergyThresholds { x_s: 0, x_h: 0 });
        assert_eq!(ops.sh_mean.shape(), (3, 4));
        assert_eq!(ops.hs_mean.shape(), (4, 3));
        assert_eq!(ops.ss_sum.shape(), (3, 3));
        assert_eq!(ops.hh_sum.shape(), (4, 4));
    }

    #[test]
    fn mean_operators_are_row_normalised() {
        let ops = build(SynergyThresholds { x_s: 0, x_h: 0 });
        for r in 0..3 {
            let (_, vals) = ops.sh_mean.forward().row(r);
            if !vals.is_empty() {
                let sum: f32 = vals.iter().sum();
                assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
            }
        }
    }

    #[test]
    fn synergy_thresholds_filter_edges() {
        // Pair (0,1) appears in 3 symptom sets; no edge survives x_s = 3.
        let dense = build(SynergyThresholds { x_s: 2, x_h: 0 });
        assert_eq!(dense.ss_sum.forward().get(0, 1), 1.0);
        let sparse = build(SynergyThresholds { x_s: 3, x_h: 0 });
        assert_eq!(sparse.ss_sum.forward().get(0, 1), 0.0);
    }

    #[test]
    fn herb_synergy_from_herb_sets() {
        let ops = build(SynergyThresholds { x_s: 0, x_h: 1 });
        // (0,1) co-occurs twice -> survives threshold 1 (strict >).
        assert_eq!(ops.hh_sum.forward().get(0, 1), 1.0);
        // (0,2) co-occurs once -> filtered.
        assert_eq!(ops.hh_sum.forward().get(0, 2), 0.0);
    }

    #[test]
    fn diagnostics_reflect_density_ordering() {
        let ops = build(SynergyThresholds { x_s: 0, x_h: 0 });
        let d = ops.diagnostics();
        // In this toy corpus the bipartite block is denser than HH.
        assert!(d.sh_density > d.hh_density);
        assert!(d.sh_symptom_degrees.mean > 0.0);
    }

    #[test]
    fn default_thresholds_match_paper() {
        let t = SynergyThresholds::default();
        assert_eq!((t.x_s, t.x_h), (5, 40));
    }

    /// At the paper's shape the two bipartite mean operators (61% stored)
    /// run as dense GEMMs, and the synergy graphs and a batch's
    /// set-pooling operator stay sparse (see `SharedCsr`).
    #[test]
    fn paper_shape_bipartite_operators_get_the_dense_form() {
        use smgcn_data::{GeneratorConfig, SyndromeModel};
        let corpus = SyndromeModel::new(GeneratorConfig::paper_scale()).generate();
        let ops = GraphOperators::from_records(
            corpus.records(),
            corpus.n_symptoms(),
            corpus.n_herbs(),
            SynergyThresholds::default(),
        );
        assert!(ops.sh_mean.is_dense() && ops.hs_mean.is_dense());
        assert!(!ops.ss_sum.is_dense() && !ops.hh_sum.is_dense());
        // Eq. 12's mean pooling over one batch of 1024 symptom sets.
        let pool: Vec<(u32, u32, f32)> = corpus.prescriptions()[..1024]
            .iter()
            .enumerate()
            .flat_map(|(b, p)| {
                let w = 1.0 / p.symptoms().len() as f32;
                p.symptoms().iter().map(move |&s| (b as u32, s, w))
            })
            .collect();
        let pool = CsrMatrix::from_triplets(1024, corpus.n_symptoms(), &pool);
        assert!(!SharedCsr::new(pool).is_dense());
    }
}
