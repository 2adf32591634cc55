//! Incremental graph maintenance: co-occurrence deltas with lazy
//! renormalization.
//!
//! `GraphOperators::from_records` walks the entire corpus — O(corpus) per
//! refresh, which is exactly the rebuild-the-world cost the online loop
//! exists to avoid. [`IncrementalGraphs`] instead keeps the *sufficient
//! statistics* of all three graphs:
//!
//! - pair counts for `SS` and `HH` (the synergy graphs threshold these),
//! - the edge set of the bipartite `SH` block (its edges are binary),
//!
//! and applies an appended batch as count increments and edge inserts —
//! O(batch), not O(corpus). The expensive steps (thresholding, CSR
//! construction, row renormalization of `sh_mean`/`hs_mean`) run
//! **lazily**: only when [`IncrementalGraphs::operators`] is next
//! called, and only once per dirty period no matter how many batches
//! arrived in between.
//!
//! The crate's property tests assert the contract that makes this safe
//! to trust: for any base corpus and append batch, the delta'd operators
//! equal a from-scratch rebuild on the grown corpus — pair counts and
//! binary adjacency **exactly**, normalized adjacency to ≤ 1e-6.

use std::collections::HashSet;

use smgcn_data::{Corpus, Prescription};
use smgcn_graph::{BipartiteGraph, CooccurrenceCounts, GraphOperators, SynergyThresholds};

/// Incrementally-maintained sufficient statistics of the three graphs,
/// with a lazily rebuilt [`GraphOperators`] view.
pub struct IncrementalGraphs {
    n_symptoms: usize,
    n_herbs: usize,
    thresholds: SynergyThresholds,
    ss_counts: CooccurrenceCounts,
    hh_counts: CooccurrenceCounts,
    /// Bipartite `(symptom, herb)` edges.
    sh_edges: HashSet<(u32, u32)>,
    records_applied: usize,
    /// Operators from the last renormalization; `None` while dirty.
    cached: Option<GraphOperators>,
}

impl IncrementalGraphs {
    /// Starts from raw records (typically the training corpus).
    pub fn from_records<'a>(
        records: impl IntoIterator<Item = (&'a [u32], &'a [u32])>,
        n_symptoms: usize,
        n_herbs: usize,
        thresholds: SynergyThresholds,
    ) -> Self {
        let mut g = Self {
            n_symptoms,
            n_herbs,
            thresholds,
            ss_counts: CooccurrenceCounts::new(n_symptoms),
            hh_counts: CooccurrenceCounts::new(n_herbs),
            sh_edges: HashSet::new(),
            records_applied: 0,
            cached: None,
        };
        for (symptoms, herbs) in records {
            g.apply_record(symptoms, herbs);
        }
        g
    }

    /// Starts from a corpus.
    pub fn from_corpus(corpus: &Corpus, thresholds: SynergyThresholds) -> Self {
        Self::from_records(
            corpus.records(),
            corpus.n_symptoms(),
            corpus.n_herbs(),
            thresholds,
        )
    }

    /// Current symptom vocabulary size.
    pub fn n_symptoms(&self) -> usize {
        self.n_symptoms
    }

    /// Current herb vocabulary size.
    pub fn n_herbs(&self) -> usize {
        self.n_herbs
    }

    /// Total records folded in (base + every applied batch).
    pub fn records_applied(&self) -> usize {
        self.records_applied
    }

    /// True when counts changed since the last [`IncrementalGraphs::operators`].
    pub fn is_dirty(&self) -> bool {
        self.cached.is_none()
    }

    /// Widens the vocabularies (appended entities; ids are stable so
    /// existing counts are untouched).
    ///
    /// # Panics
    /// Panics on an attempt to shrink either side.
    pub fn grow_to(&mut self, n_symptoms: usize, n_herbs: usize) {
        assert!(
            n_symptoms >= self.n_symptoms && n_herbs >= self.n_herbs,
            "IncrementalGraphs: vocabularies never shrink ({} x {} -> {n_symptoms} x {n_herbs})",
            self.n_symptoms,
            self.n_herbs
        );
        if n_symptoms == self.n_symptoms && n_herbs == self.n_herbs {
            return;
        }
        self.ss_counts.grow_to(n_symptoms);
        self.hh_counts.grow_to(n_herbs);
        self.n_symptoms = n_symptoms;
        self.n_herbs = n_herbs;
        self.cached = None;
    }

    /// Folds one prescription into the counts — O(|sc|² + |hc|² + |sc||hc|),
    /// independent of corpus size.
    ///
    /// # Panics
    /// Panics on out-of-range ids (grow first via [`IncrementalGraphs::grow_to`]).
    pub fn apply_record(&mut self, symptoms: &[u32], herbs: &[u32]) {
        // `add_set` range-checks every id against the current vocabulary,
        // covering the bipartite loop below too.
        self.ss_counts.add_set(symptoms);
        self.hh_counts.add_set(herbs);
        for &s in symptoms {
            for &h in herbs {
                self.sh_edges.insert((s, h));
            }
        }
        self.records_applied += 1;
        self.cached = None;
    }

    /// Folds an appended batch, growing the vocabularies to
    /// `(n_symptoms, n_herbs)` first.
    pub fn apply_batch(&mut self, batch: &[Prescription], n_symptoms: usize, n_herbs: usize) {
        self.grow_to(n_symptoms, n_herbs);
        for p in batch {
            self.apply_record(p.symptoms(), p.herbs());
        }
    }

    /// The packaged operators over the current counts. Thresholding, CSR
    /// assembly and row renormalization happen here — lazily, once per
    /// dirty period — and the result is cached until the next delta.
    pub fn operators(&mut self) -> &GraphOperators {
        if self.cached.is_none() {
            let bipartite = BipartiteGraph::from_edges(
                self.sh_edges.iter().copied(),
                self.n_symptoms,
                self.n_herbs,
            );
            self.cached = Some(GraphOperators::from_parts(
                &bipartite,
                &self.ss_counts,
                &self.hh_counts,
                self.thresholds,
            ));
        }
        self.cached.as_ref().expect("operators just rebuilt")
    }

    /// Raw symptom-pair counts (for parity checks and diagnostics).
    pub fn ss_counts(&self) -> &CooccurrenceCounts {
        &self.ss_counts
    }

    /// Raw herb-pair counts.
    pub fn hh_counts(&self) -> &CooccurrenceCounts {
        &self.hh_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(s: &[u32], h: &[u32]) -> Prescription {
        Prescription::new(s.to_vec(), h.to_vec())
    }

    #[test]
    fn matches_from_scratch_on_toy_corpus() {
        let base = [record(&[0, 1], &[0, 1]), record(&[1, 2], &[0])];
        let batch = [record(&[0, 1], &[1, 2]), record(&[2], &[2])];
        let thresholds = SynergyThresholds { x_s: 0, x_h: 0 };

        let mut inc = IncrementalGraphs::from_records(
            base.iter().map(Prescription::as_record),
            3,
            2,
            thresholds,
        );
        inc.apply_batch(&batch, 3, 3);

        let full: Vec<&Prescription> = base.iter().chain(batch.iter()).collect();
        let fresh =
            GraphOperators::from_records(full.iter().map(|p| p.as_record()), 3, 3, thresholds);
        let ops = inc.operators();
        assert_eq!(ops.ss_sum.forward(), fresh.ss_sum.forward());
        assert_eq!(ops.hh_sum.forward(), fresh.hh_sum.forward());
        assert_eq!(ops.sh_raw, fresh.sh_raw);
        assert_eq!(ops.sh_mean.forward(), fresh.sh_mean.forward());
        assert_eq!(ops.hs_mean.forward(), fresh.hs_mean.forward());
    }

    #[test]
    fn laziness_rebuilds_once_per_dirty_period() {
        let mut inc = IncrementalGraphs::from_records(
            [(&[0u32, 1][..], &[0u32][..])],
            2,
            1,
            SynergyThresholds { x_s: 0, x_h: 0 },
        );
        assert!(inc.is_dirty());
        let _ = inc.operators();
        assert!(!inc.is_dirty());
        let first = inc.operators() as *const GraphOperators;
        let second = inc.operators() as *const GraphOperators;
        assert_eq!(first, second, "clean period reuses the cached operators");
        inc.apply_record(&[0], &[0]);
        assert!(inc.is_dirty(), "a delta invalidates the cache");
    }

    #[test]
    fn grow_keeps_old_counts() {
        let mut inc = IncrementalGraphs::from_records(
            [(&[0u32, 1][..], &[0u32][..])],
            2,
            1,
            SynergyThresholds { x_s: 0, x_h: 0 },
        );
        inc.grow_to(4, 3);
        inc.apply_record(&[2, 3], &[1, 2]);
        assert_eq!(inc.ss_counts().count(0, 1), 1);
        assert_eq!(inc.ss_counts().count(2, 3), 1);
        let ops = inc.operators();
        assert_eq!(ops.sh_raw.get(0, 0), 1.0);
        assert_eq!(ops.sh_raw.get(2, 2), 1.0);
        assert_eq!(ops.sh_mean.shape(), (4, 3));
    }

    #[test]
    #[should_panic(expected = "never shrink")]
    fn grow_rejects_shrinking() {
        let mut inc = IncrementalGraphs::from_records(
            std::iter::empty::<(&[u32], &[u32])>(),
            3,
            3,
            SynergyThresholds::default(),
        );
        inc.grow_to(2, 3);
    }
}
