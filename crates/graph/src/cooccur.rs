//! Synergy graph construction (§IV-B-1).
//!
//! The paper counts how often each symptom pair co-occurs within a
//! prescription's symptom set (and likewise for herb pairs within herb
//! sets), then thresholds: pairs co-occurring **more than** `x` times become
//! edges of the symptom–symptom graph `SS` (threshold `x_s`) or herb–herb
//! graph `HH` (threshold `x_h`).
//!
//! Counting and thresholding are split so the Fig. 7 sweep can re-threshold
//! without recounting the corpus.

use std::collections::HashMap;

use smgcn_tensor::CsrMatrix;

/// Pairwise co-occurrence counts over id sets.
#[derive(Clone, Debug, Default)]
pub struct CooccurrenceCounts {
    n_items: usize,
    /// Keyed on ordered pairs `(min, max)`, `min < max`.
    counts: HashMap<(u32, u32), u32>,
}

impl CooccurrenceCounts {
    /// Starts an empty counter over a vocabulary of `n_items` ids.
    pub fn new(n_items: usize) -> Self {
        Self {
            n_items,
            counts: HashMap::new(),
        }
    }

    /// Vocabulary size.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Grows the vocabulary to `n_items`. Counting is sparse, so existing
    /// pair counts are untouched — this only widens the id range future
    /// [`CooccurrenceCounts::add_set`] calls may use (streaming ingestion
    /// appends entities with stable ids, never renumbers).
    ///
    /// # Panics
    /// Panics on an attempt to shrink.
    pub fn grow_to(&mut self, n_items: usize) {
        assert!(
            n_items >= self.n_items,
            "CooccurrenceCounts: cannot shrink from {} to {n_items}",
            self.n_items
        );
        self.n_items = n_items;
    }

    /// Iterates `((min_id, max_id), count)` over every observed pair.
    pub fn pairs(&self) -> impl Iterator<Item = ((u32, u32), u32)> + '_ {
        self.counts.iter().map(|(&p, &c)| (p, c))
    }

    /// Counts all unordered pairs within one set. Duplicate ids inside a set
    /// are ignored (a set, per the paper's prescription model); self-pairs
    /// never count.
    ///
    /// # Panics
    /// Panics on out-of-range ids.
    pub fn add_set(&mut self, set: &[u32]) {
        let mut unique: Vec<u32> = set.to_vec();
        unique.sort_unstable();
        unique.dedup();
        for &id in &unique {
            assert!(
                (id as usize) < self.n_items,
                "CooccurrenceCounts: id {id} out of range {}",
                self.n_items
            );
        }
        for i in 0..unique.len() {
            for j in (i + 1)..unique.len() {
                *self.counts.entry((unique[i], unique[j])).or_insert(0) += 1;
            }
        }
    }

    /// The raw count for a pair, order-insensitive.
    pub fn count(&self, a: u32, b: u32) -> u32 {
        if a == b {
            return 0;
        }
        let key = (a.min(b), a.max(b));
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Builds the symmetric binary synergy graph: edge `(a, b)` iff
    /// `count(a, b) > threshold` (strict, as in the paper's definition).
    pub fn synergy_graph(&self, threshold: u32) -> CsrMatrix {
        let mut triplets = Vec::new();
        for (&(a, b), &c) in &self.counts {
            if c > threshold {
                triplets.push((a, b, 1.0));
                triplets.push((b, a, 1.0));
            }
        }
        CsrMatrix::from_triplets(self.n_items, self.n_items, &triplets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_within_one_set() {
        let mut cc = CooccurrenceCounts::new(4);
        cc.add_set(&[0, 1, 2]);
        assert_eq!(cc.count(0, 1), 1);
        assert_eq!(cc.count(1, 2), 1);
        assert_eq!(cc.count(0, 2), 1);
        assert_eq!(cc.count(0, 3), 0);
        assert_eq!(cc.pairs().count(), 3);
    }

    #[test]
    fn counting_is_order_insensitive() {
        let mut cc = CooccurrenceCounts::new(3);
        cc.add_set(&[2, 0]);
        cc.add_set(&[0, 2]);
        assert_eq!(cc.count(0, 2), 2);
        assert_eq!(cc.count(2, 0), 2);
    }

    #[test]
    fn duplicates_and_self_pairs_ignored() {
        let mut cc = CooccurrenceCounts::new(3);
        cc.add_set(&[1, 1, 2, 2]);
        assert_eq!(cc.count(1, 2), 1);
        assert_eq!(cc.count(1, 1), 0);
        assert_eq!(cc.pairs().count(), 1);
    }

    #[test]
    fn threshold_is_strict() {
        let mut cc = CooccurrenceCounts::new(2);
        for _ in 0..5 {
            cc.add_set(&[0, 1]);
        }
        // count = 5: threshold 4 keeps it, threshold 5 drops it.
        assert_eq!(cc.synergy_graph(4).nnz(), 2);
        assert_eq!(cc.synergy_graph(5).nnz(), 0);
    }

    #[test]
    fn synergy_graph_is_symmetric_and_hollow() {
        let mut cc = CooccurrenceCounts::new(5);
        for set in [&[0u32, 1, 2][..], &[0, 1], &[3, 4], &[0, 1]] {
            cc.add_set(set);
        }
        let g = cc.synergy_graph(0);
        assert!(g.is_symmetric());
        for i in 0..5 {
            assert_eq!(g.get(i, i), 0.0, "diagonal must stay empty");
        }
        assert_eq!(g.get(0, 1), 1.0);
        assert_eq!(g.get(3, 4), 1.0);
    }

    #[test]
    fn higher_threshold_never_adds_edges() {
        let mut cc = CooccurrenceCounts::new(6);
        for set in [&[0u32, 1, 2, 3][..], &[0, 1, 2], &[0, 1], &[4, 5], &[0, 1]] {
            cc.add_set(set);
        }
        let mut prev = usize::MAX;
        for t in 0..6 {
            let e = cc.synergy_graph(t).nnz();
            assert!(e <= prev, "edge count must be monotone non-increasing");
            prev = e;
        }
        assert_eq!(cc.count(0, 1), 4);
        assert_eq!(cc.synergy_graph(3).nnz(), 2);
        assert_eq!(cc.synergy_graph(4).nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut cc = CooccurrenceCounts::new(2);
        cc.add_set(&[0, 7]);
    }

    #[test]
    fn grow_widens_range_and_keeps_counts() {
        let mut cc = CooccurrenceCounts::new(2);
        cc.add_set(&[0, 1]);
        cc.grow_to(4);
        cc.add_set(&[1, 3]);
        assert_eq!(cc.n_items(), 4);
        assert_eq!(cc.count(0, 1), 1);
        assert_eq!(cc.count(1, 3), 1);
        assert_eq!(cc.synergy_graph(0).shape(), (4, 4));
        let mut pairs: Vec<_> = cc.pairs().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![((0, 1), 1), ((1, 3), 1)]);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grow_rejects_shrinking() {
        let mut cc = CooccurrenceCounts::new(5);
        cc.grow_to(3);
    }
}
