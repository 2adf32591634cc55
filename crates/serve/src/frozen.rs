//! The frozen model: materialized embeddings + the syndrome-induction head.
//!
//! Everything upstream of Eq. 12 in SMGCN — Bipar-GCN message passing and
//! the synergy-graph encoding — operates on the *static* training graphs,
//! so the fused node embeddings `e*_s` and `e*_h` are the same for every
//! query. [`FrozenModel`] runs that expensive forward pass exactly once
//! (at freeze time) and keeps only what per-request inference needs:
//!
//! - the final symptom embedding matrix (`S x d`),
//! - the final herb embedding matrix (`H x d`),
//! - the SI-MLP weights (`W_mlp`, `b_mlp`) when the head is nonlinear.
//!
//! A request then costs one mean-pool over `|sc|` rows, one `d x d`
//! multiply (when the MLP is present) and one `d x H` scoring product —
//! independent of graph size, layer count and corpus size. Batched
//! scoring packs `B` concurrent queries into a single `B x d` GEMM.
//!
//! Both right-hand sides are frozen for the life of the model, so their
//! GEMM panel layout is frozen with them: [`FrozenModel::from_parts`]
//! packs the herb matrix and `W_mlp` once into [`PackedRhs`] — for the
//! kernel tier of this host's CPU — and the model keeps them *only* in
//! that form. Scoring never packs and never touches the kernels'
//! thread-local scratch; `save` / `artifact::encode` unpack (exactly) on
//! their cold path, so a model's bytes do not depend on where it was
//! packed.
//!
//! There is one ranking path, [`FrozenModel::rank_batch`]: induce, then
//! walk the scoring product tile by tile and select each query's top-k
//! from the tile while it is in L1. The `B x H` score matrix exists only
//! for the diagnostic [`FrozenModel::score_batch`]; a ranking is exactly
//! `partial_top_k` of that matrix's row without the matrix. Scores are
//! one fused multiply-add chain per herb where the CPU has FMA (the
//! [`PackedRhs`] contract): within ≤ 1e-6 of the full forward pass, exact
//! and repeatable per model per host.
//!
//! Persistence reuses the `smgcn-tensor` checkpoint container (magic
//! `SMGT`), with reserved `frozen.*` tensor names, so the same tooling
//! reads training checkpoints and frozen models.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use smgcn_core::Recommender;
use smgcn_tensor::checkpoint::{self, CheckpointError};
use smgcn_tensor::{Matrix, PackedRhs, ParamStore};

use crate::topk::TopK;

/// Checkpoint tensor names used by the frozen format.
const NAME_SYMPTOMS: &str = "frozen.symptoms";
const NAME_HERBS: &str = "frozen.herbs";
const NAME_SI_W: &str = "frozen.si.w_mlp";
const NAME_SI_B: &str = "frozen.si.b_mlp";

/// Errors from freezing, persistence or querying.
#[derive(Debug)]
pub enum FrozenError {
    /// Underlying checkpoint IO/format failure.
    Checkpoint(CheckpointError),
    /// A readable checkpoint that is simply not a frozen model (no
    /// `frozen.*` tensors) — e.g. a training checkpoint. Callers can
    /// treat this one as "try the full-model path instead".
    NotFrozen(String),
    /// A frozen model whose tensors are damaged or inconsistent
    /// (missing halves, mismatched shapes).
    Format(String),
    /// A query referenced unknown symptom ids or was empty.
    Query(String),
    /// The request's `deadline_ms` budget expired before it was scored;
    /// it was shed at the batcher drain without paying for a GEMM.
    DeadlineExceeded(String),
}

impl std::fmt::Display for FrozenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrozenError::Checkpoint(e) => write!(f, "frozen model checkpoint error: {e}"),
            FrozenError::NotFrozen(m) => write!(f, "not a frozen model: {m}"),
            FrozenError::Format(m) => write!(f, "frozen model format error: {m}"),
            FrozenError::Query(m) => write!(f, "bad query: {m}"),
            FrozenError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
        }
    }
}

impl std::error::Error for FrozenError {}

impl From<CheckpointError> for FrozenError {
    fn from(e: CheckpointError) -> Self {
        FrozenError::Checkpoint(e)
    }
}

/// A trained SMGCN collapsed to its serving-time essentials.
#[derive(Clone)]
pub struct FrozenModel {
    symptoms: Matrix,
    /// `H x d` herb embeddings, packed as the right operand of `· e_H^T`.
    herbs: PackedRhs,
    /// `W_mlp` (`d x d`), packed as the right operand of `· W_mlp`, and
    /// `b_mlp` (`1 x d`).
    si_mlp: Option<(PackedRhs, Matrix)>,
}

impl std::fmt::Debug for FrozenModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenModel")
            .field("n_symptoms", &self.n_symptoms())
            .field("n_herbs", &self.n_herbs())
            .field("dim", &self.dim())
            .field("si_mlp", &self.has_si_mlp())
            .finish()
    }
}

impl FrozenModel {
    /// Builds a frozen model from raw parts, packing the herb matrix and
    /// `W_mlp` into GEMM panels — the one place a model's right-hand
    /// sides are ever packed; every constructor funnels through here.
    ///
    /// # Errors
    /// Rejects dimension mismatches between the matrices.
    pub fn from_parts(
        symptoms: Matrix,
        herbs: Matrix,
        si_mlp: Option<(Matrix, Matrix)>,
    ) -> Result<Self, FrozenError> {
        let d = symptoms.cols();
        if herbs.cols() != d {
            return Err(FrozenError::Format(format!(
                "embedding dim mismatch: symptoms {d}, herbs {}",
                herbs.cols()
            )));
        }
        if symptoms.rows() == 0 || herbs.rows() == 0 || d == 0 {
            return Err(FrozenError::Format("empty embedding matrices".into()));
        }
        if let Some((w, b)) = &si_mlp {
            if w.shape() != (d, d) || b.shape() != (1, d) {
                return Err(FrozenError::Format(format!(
                    "SI head shapes {:?}/{:?} do not match dim {d}",
                    w.shape(),
                    b.shape()
                )));
            }
        }
        Ok(Self {
            symptoms,
            herbs: herbs.pack_transposed(),
            si_mlp: si_mlp.map(|(w, b)| (w.pack_rhs(), b)),
        })
    }

    /// Freezes a (trained) recommender: runs the graph convolutions once
    /// and captures the final embeddings plus the SI head.
    pub fn from_recommender(model: &Recommender) -> Self {
        let (symptoms, herbs) = model.final_embeddings();
        Self::from_parts(symptoms, herbs, model.syndrome_head())
            .expect("recommender produced consistent shapes")
    }

    /// Symptom vocabulary size.
    pub fn n_symptoms(&self) -> usize {
        self.symptoms.rows()
    }

    /// Herb vocabulary size.
    pub fn n_herbs(&self) -> usize {
        self.herbs.cols()
    }

    /// Final embedding dimension.
    pub fn dim(&self) -> usize {
        self.symptoms.cols()
    }

    /// Whether the nonlinear SI head is present.
    pub fn has_si_mlp(&self) -> bool {
        self.si_mlp.is_some()
    }

    fn to_store(&self) -> ParamStore {
        let mut store = ParamStore::new();
        store.add(NAME_SYMPTOMS, self.symptoms.clone());
        store.add(NAME_HERBS, self.herbs.unpack_transposed());
        if let Some((w, b)) = &self.si_mlp {
            store.add(NAME_SI_W, w.unpack());
            store.add(NAME_SI_B, b.clone());
        }
        store
    }

    fn from_store(store: ParamStore) -> Result<Self, FrozenError> {
        // Tensors are moved out of the store, not cloned: a load or a
        // publish holds each matrix once (first of a repeated name wins).
        let (mut symptoms, mut herbs, mut si_w, mut si_b) = (None, None, None, None);
        for (name, value) in store.into_entries() {
            let slot = match name.as_str() {
                NAME_SYMPTOMS => &mut symptoms,
                NAME_HERBS => &mut herbs,
                NAME_SI_W => &mut si_w,
                NAME_SI_B => &mut si_b,
                _ => continue,
            };
            slot.get_or_insert(value);
        }
        let symptoms = symptoms.ok_or_else(|| {
            FrozenError::NotFrozen(format!(
                "missing {NAME_SYMPTOMS:?} (is this a training checkpoint?)"
            ))
        })?;
        let herbs = herbs.ok_or_else(|| FrozenError::Format(format!("missing {NAME_HERBS:?}")))?;
        let si_mlp = match (si_w, si_b) {
            (Some(w), Some(b)) => Some((w, b)),
            (None, None) => None,
            _ => {
                return Err(FrozenError::Format(
                    "half an SI head: exactly one of w_mlp/b_mlp present".into(),
                ))
            }
        };
        Self::from_parts(symptoms, herbs, si_mlp)
    }

    /// Serialises to a writer in the `smgcn-tensor` checkpoint format.
    pub fn write_to(&self, w: impl std::io::Write) -> Result<(), FrozenError> {
        checkpoint::write_store(&self.to_store(), w)?;
        Ok(())
    }

    /// Reads a frozen model from memory; no tensor is allocated beyond
    /// what `bytes` can hold (see [`checkpoint::read_store_bytes`]).
    pub fn read_from(bytes: &[u8]) -> Result<Self, FrozenError> {
        Self::from_store(checkpoint::read_store_bytes(bytes)?)
    }

    /// Saves to a file path.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), FrozenError> {
        checkpoint::save_store(&self.to_store(), path)?;
        Ok(())
    }

    /// Loads from a file path.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, FrozenError> {
        Self::from_store(checkpoint::load_store(path)?)
    }

    fn validate(&self, sets: &[&[u32]]) -> Result<(), FrozenError> {
        if sets.is_empty() {
            return Err(FrozenError::Query("no symptom sets given".into()));
        }
        for (i, set) in sets.iter().enumerate() {
            if set.is_empty() {
                return Err(FrozenError::Query(format!("symptom set {i} is empty")));
            }
            for &s in *set {
                if s as usize >= self.n_symptoms() {
                    return Err(FrozenError::Query(format!(
                        "symptom id {s} out of range (vocabulary size {})",
                        self.n_symptoms()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Validates one query set (non-empty, ids in range) without scoring.
    pub fn validate_query(&self, set: &[u32]) -> Result<(), FrozenError> {
        self.validate(&[set])
    }

    /// Eq. 12 for a batch: mean-pools each set's final symptom embeddings
    /// into a `B x d` matrix and applies the SI MLP when present.
    ///
    /// Mirrors the training-side computation (`set_pool` SpMM followed by
    /// the MLP on the tape) with plain dense ops; ids are accumulated in
    /// ascending order to match the CSR traversal bit-for-bit.
    pub fn induce_batch(&self, sets: &[&[u32]]) -> Result<Matrix, FrozenError> {
        self.validate(sets)?;
        let d = self.dim();
        let mut pooled = Matrix::zeros(sets.len(), d);
        let mut sorted: Vec<u32> = Vec::new();
        for (b, set) in sets.iter().enumerate() {
            sorted.clear();
            sorted.extend_from_slice(set);
            sorted.sort_unstable();
            let w = 1.0 / set.len() as f32;
            let row = pooled.row_mut(b);
            for &s in &sorted {
                let emb = self.symptoms.row(s as usize);
                for (acc, &v) in row.iter_mut().zip(emb) {
                    *acc += w * v;
                }
            }
        }
        Ok(match &self.si_mlp {
            Some((w, bias)) => {
                // One tiled GEMM, then bias + ReLU fused in place — no
                // extra full-matrix allocation per scoring batch.
                let mut lin = pooled.matmul_packed(w);
                let b_row = bias.row(0);
                for r in 0..lin.rows() {
                    for (v, &bv) in lin.row_mut(r).iter_mut().zip(b_row) {
                        *v = (*v + bv).max(0.0);
                    }
                }
                lin
            }
            None => pooled,
        })
    }

    /// Herb scores for a batch of symptom sets (`B x H`): Eq. 13's
    /// `g(sc, H) = e_syndrome(sc) · e*_H^T` as one GEMM for the whole
    /// batch. Diagnostic surface (`"scores": true`, duels, parity tests):
    /// ranking goes through [`rank_batch`](Self::rank_batch), which never
    /// materialises this matrix.
    pub fn score_batch(&self, sets: &[&[u32]]) -> Result<Matrix, FrozenError> {
        Ok(self.induce_batch(sets)?.matmul_packed(&self.herbs))
    }

    /// Herb scores for a single symptom set.
    pub fn score_one(&self, set: &[u32]) -> Result<Vec<f32>, FrozenError> {
        Ok(self.score_batch(&[set])?.into_vec())
    }

    /// The ranking path — every recommendation, single, batched or from
    /// the batcher, is this one: the top `ks[i]` herb ids for `sets[i]`,
    /// by descending score (ties to the lower id).
    ///
    /// Induces the batch, then walks the scoring product tile by tile
    /// ([`PackedRhs::for_each_tile`]) with one streaming [`TopK`] per
    /// query fed from each tile while the micro-kernel's stores are still
    /// in L1. The `B x H` score matrix is never written: it is bit for
    /// bit what [`score_batch`](Self::score_batch) returns, consumed in
    /// flight.
    ///
    /// # Panics
    /// Panics if `ks.len() != sets.len()`.
    pub fn rank_batch(&self, sets: &[&[u32]], ks: &[usize]) -> Result<Vec<Vec<u32>>, FrozenError> {
        Ok(self.rank(sets, ks, false)?.0)
    }

    /// [`rank_batch`](Self::rank_batch), also returning the wall time
    /// that went into selection rather than the product (the batcher's
    /// `gemm` / `topk` split); the untimed call does not read the clock.
    pub fn rank_batch_timed(
        &self,
        sets: &[&[u32]],
        ks: &[usize],
    ) -> Result<(Vec<Vec<u32>>, Duration), FrozenError> {
        self.rank(sets, ks, true)
    }

    fn rank(
        &self,
        sets: &[&[u32]],
        ks: &[usize],
        timed: bool,
    ) -> Result<(Vec<Vec<u32>>, Duration), FrozenError> {
        assert_eq!(ks.len(), sets.len(), "FrozenModel: one k per symptom set");
        let induced = self.induce_batch(sets)?;
        let mut tops: Vec<TopK> = ks
            .iter()
            .map(|&k| TopK::new(k.min(self.n_herbs())))
            .collect();
        // Summed over the threads the rows are split across; a statistic
        // nothing is published through, hence `Relaxed`.
        let select_ns = AtomicU64::new(0);
        let threads = self.herbs.for_each_tile(&induced, &mut tops, |tops, tile| {
            let start = timed.then(Instant::now);
            for (r, top) in tops.iter_mut().enumerate() {
                top.push_slice(tile.col0, tile.row(r));
            }
            if let Some(start) = start {
                select_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        });
        let start = timed.then(Instant::now);
        let rankings = tops.into_iter().map(TopK::finish).collect();
        let select = Duration::from_nanos(select_ns.into_inner() / threads as u64)
            + start.map_or(Duration::ZERO, |start| start.elapsed());
        Ok((rankings, select))
    }

    /// Top-`k` herb ids for one symptom set, by descending score (ties to
    /// the lower id).
    pub fn recommend(&self, set: &[u32], k: usize) -> Result<Vec<u32>, FrozenError> {
        let mut rankings = self.rank_batch(&[set], &[k])?;
        Ok(rankings.pop().expect("one ranking per set"))
    }

    /// Top-`k` rankings for a batch, sharing one scoring GEMM.
    pub fn recommend_batch(&self, sets: &[&[u32]], k: usize) -> Result<Vec<Vec<u32>>, FrozenError> {
        self.rank_batch(sets, &vec![k; sets.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_frozen(with_mlp: bool) -> FrozenModel {
        // 3 symptoms, 4 herbs, d = 2, hand-picked values.
        let symptoms = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let herbs = Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0, -1.0]);
        let si = with_mlp.then(|| {
            (
                Matrix::identity(2).scale(2.0),
                Matrix::from_vec(1, 2, vec![0.5, -10.0]),
            )
        });
        FrozenModel::from_parts(symptoms, herbs, si).unwrap()
    }

    #[test]
    fn mean_pooling_without_mlp() {
        let fm = tiny_frozen(false);
        let pooled = fm.induce_batch(&[&[0, 1], &[2]]).unwrap();
        assert_eq!(pooled.row(0), &[0.5, 0.5]);
        assert_eq!(pooled.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn mlp_applies_affine_and_relu() {
        let fm = tiny_frozen(true);
        // Pool of {0,1} = [0.5, 0.5]; W = 2I, b = [0.5, -10] -> [1.5, -9] -> relu.
        let induced = fm.induce_batch(&[&[0, 1]]).unwrap();
        assert_eq!(induced.row(0), &[1.5, 0.0]);
    }

    #[test]
    fn scores_are_dot_products() {
        let fm = tiny_frozen(false);
        let scores = fm.score_batch(&[&[2]]).unwrap(); // syndrome [1, 1]
        assert_eq!(scores.row(0), &[1.0, 1.0, 2.0, -2.0]);
        assert_eq!(fm.recommend(&[2], 2).unwrap(), vec![2, 0], "ties break low");
    }

    #[test]
    fn batch_matches_single() {
        let fm = tiny_frozen(true);
        let sets: Vec<&[u32]> = vec![&[0], &[0, 1], &[1, 2], &[2]];
        let batched = fm.score_batch(&sets).unwrap();
        for (i, set) in sets.iter().enumerate() {
            assert_eq!(
                batched.row(i),
                fm.score_one(set).unwrap().as_slice(),
                "row {i}"
            );
        }
    }

    #[test]
    fn fused_ranking_is_the_unfused_ranking() {
        // 1,500 herbs at d = 24: several column blocks and a ragged last
        // panel; 11 queries: an 8-row tile and a 3-row edge. Quantised
        // embeddings make exact score ties common.
        let symptoms = Matrix::from_fn(40, 24, |r, c| ((r * 7 + c * 3) % 9) as f32 * 0.25 - 1.0);
        let herbs = Matrix::from_fn(1500, 24, |r, c| ((r * 5 + c * 11) % 13) as f32 * 0.5 - 3.0);
        let fm = FrozenModel::from_parts(symptoms, herbs, None).unwrap();
        let sets: Vec<Vec<u32>> = (0..11u32)
            .map(|q| (0..=q % 4).map(|i| (q * 3 + i * 7) % 40).collect())
            .collect();
        let sets: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
        let ks = [0usize, 1, 10, 10, 3, 1500, 1505, 7, 10, 2, 100];
        let scores = fm.score_batch(&sets).unwrap();
        let want: Vec<Vec<u32>> = (0..sets.len())
            .map(|r| crate::topk::partial_top_k(scores.row(r), ks[r]))
            .collect();
        assert_eq!(fm.rank_batch(&sets, &ks).unwrap(), want);
        assert_eq!(fm.rank_batch_timed(&sets, &ks).unwrap().0, want);
        for ((set, &k), want) in sets.iter().zip(&ks).zip(&want) {
            assert_eq!(&fm.recommend(set, k).unwrap(), want);
        }
        assert_eq!(
            fm.recommend_batch(&sets, 10).unwrap(),
            fm.rank_batch(&sets, &[10; 11]).unwrap()
        );
    }

    #[test]
    fn pooling_is_order_insensitive() {
        let fm = tiny_frozen(true);
        let a = fm.score_one(&[0, 1, 2]).unwrap();
        let b = fm.score_one(&[2, 0, 1]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn save_load_round_trip() {
        for with_mlp in [false, true] {
            let fm = tiny_frozen(with_mlp);
            let mut buf = Vec::new();
            fm.write_to(&mut buf).unwrap();
            let loaded = FrozenModel::read_from(buf.as_slice()).unwrap();
            assert_eq!(loaded.has_si_mlp(), with_mlp);
            // Saving unpacks the panels: save -> load -> save is
            // byte-identical.
            let mut again = Vec::new();
            loaded.write_to(&mut again).unwrap();
            assert_eq!(again, buf, "with_mlp={with_mlp}");
            assert_eq!(
                loaded.score_one(&[0, 2]).unwrap(),
                fm.score_one(&[0, 2]).unwrap(),
                "with_mlp={with_mlp}"
            );
        }
    }

    #[test]
    fn packed_parts_unpack_to_what_was_frozen() {
        // 11 herbs x d = 3: two panels, the second ragged.
        let symptoms = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let herbs = Matrix::from_fn(11, 3, |r, c| ((r * 7 + c * 5) % 13) as f32 - 6.0);
        let w = Matrix::from_fn(3, 3, |r, c| (r as f32 - c as f32) * 0.75);
        let b = Matrix::from_vec(1, 3, vec![0.25, -0.5, 1.0]);
        let fm = FrozenModel::from_parts(
            symptoms.clone(),
            herbs.clone(),
            Some((w.clone(), b.clone())),
        )
        .unwrap();
        assert_eq!((fm.n_symptoms(), fm.n_herbs(), fm.dim()), (4, 11, 3));
        let stored: Vec<(String, Matrix)> = fm.to_store().into_entries().collect();
        let want = [
            (NAME_SYMPTOMS, symptoms),
            (NAME_HERBS, herbs),
            (NAME_SI_W, w),
            (NAME_SI_B, b),
        ];
        assert_eq!(stored.len(), want.len());
        for ((name, value), (want_name, want_value)) in stored.iter().zip(&want) {
            assert_eq!(name, want_name);
            assert_eq!(value, want_value, "{name}");
        }
    }

    #[test]
    fn rejects_non_frozen_checkpoints() {
        let mut store = ParamStore::new();
        store.add("si.w_mlp", Matrix::zeros(2, 2));
        let mut buf = Vec::new();
        checkpoint::write_store(&store, &mut buf).unwrap();
        let err = FrozenModel::read_from(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("not a frozen model"), "{err}");
    }

    #[test]
    fn rejects_bad_queries() {
        let fm = tiny_frozen(false);
        assert!(matches!(fm.score_batch(&[]), Err(FrozenError::Query(_))));
        assert!(matches!(fm.score_one(&[]), Err(FrozenError::Query(_))));
        assert!(matches!(fm.score_one(&[99]), Err(FrozenError::Query(_))));
    }

    #[test]
    fn rejects_mismatched_parts() {
        let s = Matrix::zeros(3, 2);
        let h = Matrix::zeros(4, 3);
        assert!(FrozenModel::from_parts(s, h, None).is_err());
        let s = Matrix::filled(3, 2, 0.1);
        let h = Matrix::filled(4, 2, 0.1);
        let bad_si = Some((Matrix::zeros(3, 3), Matrix::zeros(1, 2)));
        assert!(FrozenModel::from_parts(s, h, bad_si).is_err());
    }
}
