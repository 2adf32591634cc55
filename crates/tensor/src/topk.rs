//! Partial top-k selection, streaming.
//!
//! The paper's greedy inference (§IV-E) ranks all `H` herbs by score.
//! `k << H`, so this module keeps a `k`-element min-heap instead of
//! sorting the row: `O(H log k)` with no allocation proportional to `H`.
//! The order is descending score, ties broken by the lower index, so the
//! training-side `Recommender::recommend`, the evaluation harness and the
//! frozen serving path return the same rankings. A NaN ranks as `-inf`
//! (below every finite score, tied with `-inf` and broken by index): the
//! order is total whatever the scores, so no input can make the final
//! sort panic, and a NaN herb is never recommended over a scored one.
//!
//! There is one implementation, [`TopK`]: it takes a score row in
//! slices, in column order, so `FrozenModel::rank_batch` can feed it each
//! GEMM tile while the tile is in L1 and the row is never written to
//! memory. Almost every score loses to the worst retained candidate, so
//! the row is first screened a block at a time with a vectorised compare
//! and only blocks holding a winner reach the heap (a 65,536-wide row:
//! ≈ 7 µs when it is in cache, ≈ 20 µs when it must be re-read from
//! memory — the read itself — against 78 µs for the unfiltered walk).
//! [`partial_top_k`] is the same selector given the whole row as one
//! slice, and [`TopK::push`] offers scattered columns one at a time (the
//! re-scored candidates of `FrozenModel`'s two-stage ranking).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A candidate herb during selection. The `Ord` implementation is
/// inverted ("worse is greater") so a max-[`BinaryHeap`] keeps the worst
/// retained candidate at the top, ready to be displaced.
#[derive(Clone, Copy, Debug)]
struct Worst {
    score: f32,
    idx: u32,
}

/// What a score ranks as: itself, or `-inf` for a NaN — never a NaN, so
/// comparisons of keys form a total order (with `-0.0 == 0.0`).
fn key(score: f32) -> f32 {
    if score.is_nan() {
        f32::NEG_INFINITY
    } else {
        score
    }
}

impl Worst {
    /// True when `self` ranks strictly ahead of `other` in the final
    /// ordering (higher score key, ties to the lower index).
    fn beats(&self, other: &Worst) -> bool {
        match key(self.score)
            .partial_cmp(&key(other.score))
            .expect("keys are never NaN")
        {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => self.idx < other.idx,
        }
    }
}

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        !self.beats(other) && !other.beats(self)
    }
}

impl Eq for Worst {}

impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: the heap's maximum is the worst-ranked candidate.
        if self.beats(other) {
            Ordering::Less
        } else if other.beats(self) {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    }
}

/// Scores scanned per step of the [`TopK::push_slice`] pre-filter: wide
/// enough to compile to a few vector compares, short enough that a block
/// holding a winner is cheap to walk again.
const FILTER_BLOCK: usize = 128;

/// Streaming partial selection: the `k` best of a score row that arrives
/// in slices, lowest column first — what lets `FrozenModel` select from
/// each GEMM tile while it is still in L1, and never write the row.
///
/// Once `k` candidates are held the row is scanned
/// `FILTER_BLOCK` scores at a time with a branch-free
/// `score > worst retained` test, and only a block with a hit is walked
/// through the heap. The filter is exact, not a heuristic: candidates
/// arrive in index order, so every newcomer has a higher index than
/// everything retained, and *beats the worst* reduces to *is strictly
/// greater than the worst's key* (a tie goes to the lower index, a NaN
/// newcomer is greater than nothing) — the very test the heap walk
/// makes.
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Worst>,
}

impl TopK {
    /// Selector of the `k` best. Reserves `k` slots: clamp `k` to the
    /// row length first.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k),
        }
    }

    /// Offers `scores`, the row's columns `col0 .. col0 + scores.len()`.
    /// Slices must arrive in ascending, non-overlapping column order.
    pub fn push_slice(&mut self, col0: usize, scores: &[f32]) {
        if self.k == 0 {
            return;
        }
        let fill = (self.k - self.heap.len()).min(scores.len());
        for (i, &score) in scores[..fill].iter().enumerate() {
            self.heap.push(Worst {
                score,
                idx: (col0 + i) as u32,
            });
        }
        let rest = &scores[fill..];
        if rest.is_empty() {
            return;
        }
        let mut at = col0 + fill;
        let mut worst = self.worst();
        let mut blocks = rest.chunks_exact(FILTER_BLOCK);
        for block in &mut blocks {
            // Fixed-length blocks and `|`, not `||`: no early exit, so the
            // test compiles to vector compares.
            if block
                .iter()
                .fold(false, |hit, &score| hit | (score > worst))
            {
                self.walk(at, block);
                worst = self.worst();
            }
            at += FILTER_BLOCK;
        }
        self.walk(at, blocks.remainder());
    }

    /// Offers column `idx` alone. Columns must arrive in ascending
    /// order, after every column of an earlier
    /// [`push_slice`](Self::push_slice).
    pub fn push(&mut self, idx: u32, score: f32) {
        if self.heap.len() < self.k {
            self.heap.push(Worst { score, idx });
        } else if self.k > 0 && score > self.worst() {
            self.heap.pop();
            self.heap.push(Worst { score, idx });
        }
    }

    /// Key of the worst retained candidate; the heap must be full.
    fn worst(&self) -> f32 {
        key(self.heap.peek().expect("k > 0 and the heap is full").score)
    }

    /// The heap walk, over a block that may hold a candidate; the heap
    /// must be full.
    fn walk(&mut self, col0: usize, block: &[f32]) {
        let mut worst = self.worst();
        for (i, &score) in block.iter().enumerate() {
            if score > worst {
                self.heap.pop();
                self.heap.push(Worst {
                    score,
                    idx: (col0 + i) as u32,
                });
                worst = self.worst();
            }
        }
    }

    /// The retained indices, best first.
    pub fn finish(self) -> Vec<u32> {
        let mut kept = self.heap.into_vec();
        kept.sort_unstable(); // "less" = better, so ascending = best-first
        kept.into_iter().map(|c| c.idx).collect()
    }
}

/// Indices of the `k` largest values, descending (ties by lower index),
/// via heap-based partial selection rather than a full sort; `k >= len`
/// ranks the whole row, and a NaN ranks as `-inf` (the module doc).
pub fn partial_top_k(scores: &[f32], k: usize) -> Vec<u32> {
    let mut top = TopK::new(k.min(scores.len()));
    top.push_slice(0, scores);
    top.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The selection loop as it was before [`TopK`]: every score through
    /// `beats`, no pre-filter, the whole row at once. Kept as the oracle.
    fn heap_walk_top_k(scores: &[f32], k: usize) -> Vec<u32> {
        let k = k.min(scores.len());
        if k == 0 {
            return Vec::new();
        }
        let mut heap: BinaryHeap<Worst> = BinaryHeap::with_capacity(k + 1);
        for (i, &score) in scores.iter().enumerate() {
            let cand = Worst {
                score,
                idx: i as u32,
            };
            if heap.len() < k {
                heap.push(cand);
            } else if cand.beats(heap.peek().expect("heap is non-empty at capacity")) {
                heap.pop();
                heap.push(cand);
            }
        }
        let mut kept = heap.into_vec();
        kept.sort_unstable();
        kept.into_iter().map(|c| c.idx).collect()
    }

    /// Scores as runs of one value: the run lengths reach past a filter
    /// block and a GEMM tile, so exact ties straddle both, and the values
    /// include the ones comparisons treat specially.
    fn score_rows() -> impl Strategy<Value = Vec<f32>> {
        let value = (0usize..12, -4.0f32..4.0).prop_map(|(kind, x)| match kind {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            5 | 6 => (x * 2.0).round() / 2.0,
            _ => x,
        });
        let run = (value, 0usize..4, 1usize..160)
            .prop_map(|(v, long, len)| vec![v; if long == 0 { len } else { 1 + len % 3 }]);
        proptest::collection::vec(run, 0..40).prop_map(|runs| runs.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// However the row is cut into slices, `TopK` returns what the
        /// unfiltered heap walk returns — NaNs included, where the order
        /// is not total and only an identical walk gives identical
        /// output — and, on NaN-free rows, what the full sort returns.
        #[test]
        fn streaming_top_k_matches_heap_walk_and_full_sort(
            scores in score_rows(),
            pick_k in 0usize..6,
            some_k in 0usize..40,
            big_k in 0usize..=100,
            cuts in proptest::collection::vec(0usize..1200, 0..12),
        ) {
            let n = scores.len();
            let has_nan = scores.iter().any(|s| s.is_nan());
            let mut k = [0, 1, n, n + 3, some_k, some_k][pick_k];
            if has_nan {
                // The final sort of the kept set is an insertion sort up
                // to 20 elements; past that std may panic on an order
                // that is not total (HEAD's loop would too).
                k = k.min(16);
            }
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
            cuts.extend([0, n]);
            cuts.sort_unstable();
            let mut top = TopK::new(k.min(n));
            for pair in cuts.windows(2) {
                top.push_slice(pair[0], &scores[pair[0]..pair[1]]);
            }
            let got = top.finish();
            prop_assert_eq!(&got, &heap_walk_top_k(&scores, k), "n={} k={} cuts={:?}", n, k, cuts);
            prop_assert_eq!(&got, &partial_top_k(&scores, k));
            if !has_nan {
                prop_assert_eq!(&got, &full_sort_top_k(&scores, k));
            }

            // Any k a request may ask for (`MAX_K` is 100), NaNs or not:
            // the order is total, so nothing panics, the ids are distinct
            // and in range, and the heap walk agrees at every k.
            let mut top = TopK::new(big_k.min(n));
            for pair in cuts.windows(2) {
                top.push_slice(pair[0], &scores[pair[0]..pair[1]]);
            }
            let got = top.finish();
            prop_assert_eq!(got.len(), big_k.min(n));
            let mut ids = got.clone();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), got.len(), "repeated ids: {:?}", got);
            prop_assert!(got.iter().all(|&id| (id as usize) < n), "{:?}", got);
            prop_assert_eq!(&got, &heap_walk_top_k(&scores, big_k));
        }
    }

    /// Reference ordering: a full sort (a total order only without NaN).
    fn full_sort_top_k(scores: &[f32], k: usize) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
        idx.sort_unstable_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx.truncate(k);
        idx
    }

    #[test]
    fn basic_ordering() {
        assert_eq!(partial_top_k(&[0.1, 0.9, 0.5], 2), vec![1, 2]);
        assert_eq!(
            partial_top_k(&[1.0, 1.0], 2),
            vec![0, 1],
            "ties break by index"
        );
        assert_eq!(
            partial_top_k(&[0.3], 5),
            vec![0],
            "k beyond length truncates"
        );
        assert!(partial_top_k(&[], 3).is_empty());
        assert!(partial_top_k(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn matches_full_sort_on_random_inputs() {
        // Deterministic pseudo-random scores without an RNG dependency.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        for n in [1usize, 2, 7, 50, 753] {
            let scores: Vec<f32> = (0..n).map(|_| next() * 10.0 - 5.0).collect();
            for k in [1usize, 2, 5, 20, n, n + 3] {
                assert_eq!(
                    partial_top_k(&scores, k),
                    full_sort_top_k(&scores, k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn matches_full_sort_with_heavy_ties() {
        let scores = [1.0f32, 0.5, 1.0, 0.5, 1.0, 0.5, 0.25, 1.0];
        for k in 1..=scores.len() {
            assert_eq!(
                partial_top_k(&scores, k),
                full_sort_top_k(&scores, k),
                "k={k}"
            );
        }
    }

    #[test]
    fn one_at_a_time_is_one_slice() {
        let scores = [0.5f32, f32::NAN, 2.0, 2.0, -1.0, f32::NEG_INFINITY, 7.0];
        for k in 0..=scores.len() {
            let mut top = TopK::new(k);
            for (i, &score) in scores.iter().enumerate() {
                top.push(i as u32, score);
            }
            assert_eq!(top.finish(), partial_top_k(&scores, k), "k={k}");
        }
        assert_eq!(
            partial_top_k(&scores, 7),
            vec![6, 2, 3, 0, 4, 1, 5],
            "NaN ranks as -inf"
        );
    }

    #[test]
    fn nan_scores_do_not_panic() {
        // A NaN ranks as -inf, so selection is a well-formed ranking of
        // the requested size whatever the scores: the full sort on NaN
        // keys. The second row, a NaN every third of 1,500 scores, made
        // the `partial_cmp(..).unwrap_or(Equal)` full sort this selector
        // replaced panic at k = 10 and at k = 50.
        let row: Vec<f32> = (0..1500u32)
            .map(|i| {
                if i % 3 == 0 {
                    f32::NAN
                } else {
                    (i * 7919 % 1000) as f32 * 0.01
                }
            })
            .collect();
        for (scores, ks) in [
            (&[f32::NAN, 1.0, 0.5, f32::NAN][..], &[2, 4][..]),
            (&row[..], &[10, 50, 1500][..]),
        ] {
            let keys: Vec<f32> = scores.iter().map(|&s| key(s)).collect();
            for &k in ks {
                let got = partial_top_k(scores, k);
                assert_eq!(got, full_sort_top_k(&keys, k), "k={k}");
                assert_eq!(got, heap_walk_top_k(scores, k), "k={k}");
            }
        }
    }
}
