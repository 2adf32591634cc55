//! The symptom–herb bipartite graph `SH` (§IV-A-1).
//!
//! For every prescription `p = ⟨sc, hc⟩`, all pairs `(s, h)` with `s ∈ sc`
//! and `h ∈ hc` become undirected edges: `SH[s,h] = SH[h,s] = 1` if the pair
//! co-occurs in *any* prescription, 0 otherwise. The graph is stored as the
//! `S x H` rectangular block; the `H x S` direction is its transpose.

use smgcn_tensor::CsrMatrix;

/// A record's two id sets, the only view of the corpus this crate needs.
pub type Record<'a> = (&'a [u32], &'a [u32]);

/// The symptom–herb bipartite interaction graph.
#[derive(Clone, Debug)]
pub struct BipartiteGraph {
    n_symptoms: usize,
    n_herbs: usize,
    /// `S x H`, entries in {0, 1}.
    sh: CsrMatrix,
}

impl BipartiteGraph {
    /// Builds the graph from prescription records.
    ///
    /// Pairs appearing in several prescriptions still produce a single
    /// binary edge, exactly as in the paper's definition of `SH`.
    ///
    /// # Panics
    /// Panics if a record references an id outside the vocabulary sizes.
    pub fn from_records<'a>(
        records: impl IntoIterator<Item = Record<'a>>,
        n_symptoms: usize,
        n_herbs: usize,
    ) -> Self {
        let mut edges: Vec<(u32, u32, f32)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (symptoms, herbs) in records {
            for &s in symptoms {
                assert!(
                    (s as usize) < n_symptoms,
                    "BipartiteGraph: symptom id {s} out of range {n_symptoms}"
                );
                for &h in herbs {
                    assert!(
                        (h as usize) < n_herbs,
                        "BipartiteGraph: herb id {h} out of range {n_herbs}"
                    );
                    if seen.insert((s, h)) {
                        edges.push((s, h, 1.0));
                    }
                }
            }
        }
        Self {
            n_symptoms,
            n_herbs,
            sh: CsrMatrix::from_triplets(n_symptoms, n_herbs, &edges),
        }
    }

    /// Builds the graph directly from an edge list of `(symptom, herb)`
    /// pairs. Duplicate pairs collapse to one binary edge, matching
    /// [`BipartiteGraph::from_records`]; incremental maintenance keeps the
    /// pair set itself and rebuilds through this constructor.
    ///
    /// # Panics
    /// Panics on out-of-range ids.
    pub fn from_edges(
        edges: impl IntoIterator<Item = (u32, u32)>,
        n_symptoms: usize,
        n_herbs: usize,
    ) -> Self {
        let mut triplets: Vec<(u32, u32, f32)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (s, h) in edges {
            assert!(
                (s as usize) < n_symptoms,
                "BipartiteGraph: symptom id {s} out of range {n_symptoms}"
            );
            assert!(
                (h as usize) < n_herbs,
                "BipartiteGraph: herb id {h} out of range {n_herbs}"
            );
            if seen.insert((s, h)) {
                triplets.push((s, h, 1.0));
            }
        }
        Self {
            n_symptoms,
            n_herbs,
            sh: CsrMatrix::from_triplets(n_symptoms, n_herbs, &triplets),
        }
    }

    /// Number of symptom nodes.
    pub fn n_symptoms(&self) -> usize {
        self.n_symptoms
    }

    /// Number of herb nodes.
    pub fn n_herbs(&self) -> usize {
        self.n_herbs
    }

    /// The `S x H` adjacency block.
    pub fn sh(&self) -> &CsrMatrix {
        &self.sh
    }

    /// Number of undirected symptom–herb edges.
    pub fn edge_count(&self) -> usize {
        self.sh.nnz()
    }

    /// Degree of symptom `s` (its herb-neighborhood size `|N_s|`).
    pub fn symptom_degree(&self, s: usize) -> usize {
        self.sh.row_nnz(s)
    }

    /// Density of the bipartite block: `edges / (S * H)`.
    pub fn density(&self) -> f64 {
        if self.n_symptoms == 0 || self.n_herbs == 0 {
            return 0.0;
        }
        self.edge_count() as f64 / (self.n_symptoms as f64 * self.n_herbs as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(records: &[(Vec<u32>, Vec<u32>)], n_s: usize, n_h: usize) -> BipartiteGraph {
        BipartiteGraph::from_records(
            records.iter().map(|(s, h)| (s.as_slice(), h.as_slice())),
            n_s,
            n_h,
        )
    }

    #[test]
    fn single_prescription_full_biclique() {
        let g = build(&[(vec![0, 1], vec![0, 1, 2])], 3, 4);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.symptom_degree(0), 3);
        assert_eq!(g.symptom_degree(1), 3);
        assert_eq!(g.symptom_degree(2), 0);
    }

    #[test]
    fn repeated_pairs_stay_binary() {
        let g = build(
            &[(vec![0], vec![1]), (vec![0], vec![1]), (vec![0], vec![1])],
            2,
            2,
        );
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.sh().get(0, 1), 1.0);
    }

    #[test]
    fn density_and_isolated() {
        let g = build(&[(vec![0], vec![0])], 2, 2);
        assert!((g.density() - 0.25).abs() < 1e-12);
        assert_eq!(g.symptom_degree(1), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_ids() {
        let _ = build(&[(vec![5], vec![0])], 2, 2);
    }

    #[test]
    fn from_edges_matches_from_records() {
        let records = [(vec![0u32, 1], vec![0u32, 2]), (vec![1], vec![1, 2])];
        let by_records = build(&records, 3, 4);
        let edges = records.iter().flat_map(|(ss, hs)| {
            ss.iter()
                .flat_map(move |&s| hs.iter().map(move |&h| (s, h)))
        });
        let by_edges = BipartiteGraph::from_edges(edges, 3, 4);
        assert_eq!(by_edges.sh(), by_records.sh());
    }

    #[test]
    fn empty_records_yield_empty_graph() {
        let g = build(&[], 3, 3);
        assert_eq!(g.edge_count(), 0);
    }
}
