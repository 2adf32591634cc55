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
//! that form (a large model keeps its herbs once more as int8, below). Scoring never packs and never touches the kernels'
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
//! ## Two stages, and why the answer is the same
//!
//! A model whose herb panels are past `TWO_STAGE_MIN_BYTES` (2 MB: not
//! the paper's 753 x 256, nor any test or golden model) on a CPU with a
//! VNNI tile (AVX-512 VNNI, or AVX-VNNI) ranks in two stages behind the
//! same `rank_batch`. [`FrozenModel::from_parts`] also keeps the herbs as
//! int8 with one scale per herb ([`QuantRhs`]), which costs a quarter of
//! the bytes, and a query is quantised once it is induced. Stage 1 runs
//! the integer product through the same row split over the worker team,
//! and [`QuantRhs`] turns each integer score into an interval that is
//! *guaranteed* to hold the herb's float score: Cauchy–Schwarz on both
//! quantisation errors plus the float chain's own rounding. Stage 1
//! keeps every herb whose upper bound reaches the running `k`-th best
//! lower bound. A herb it drops has `k` others whose scores are above
//! its own, so it cannot be in the top `k`. Stage 2 re-scores the herbs
//! that still reach the final `k`-th lower bound (about 16 per query at
//! `score_large`'s shape, k = 10) with [`PackedRhs::product_at`], which
//! computes bit for bit the score the one-stage tiles give, and selects
//! from them with [`TopK`]'s tie rule. So the ranking *is* the
//! one-stage ranking, and no score or byte of the artifact changes. A
//! query that cannot be bounded (all zero, or out of the range
//! `QuantRhs` covers), or that asks for more herbs than two stages pay
//! for (`TWO_STAGE_HERBS_PER_K`), ranks in one stage beside the others.
//! [`FrozenModel::with_stage_one`] names either path for tests and
//! benches.
//!
//! A frozen model is saved as a model file ([`crate::artifact`], the one
//! checksummed format for model bytes) with reserved `frozen.*` tensor
//! names: the same reader loads training checkpoints, frozen models and
//! publish artifacts, and a file without those names is
//! [`FrozenError::NotFrozen`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use smgcn_core::Recommender;
use smgcn_tensor::{par, Int8Tier, Matrix, PackedRhs, ParamStore, QuantRhs, QuantRows, TopK};

use crate::artifact;
use crate::server::ServingVocab;

/// Tensor names of a frozen model in its model file.
const NAME_SYMPTOMS: &str = "frozen.symptoms";
const NAME_HERBS: &str = "frozen.herbs";
const NAME_SI_W: &str = "frozen.si.w_mlp";
const NAME_SI_B: &str = "frozen.si.b_mlp";

/// Errors from freezing, persistence or querying.
#[derive(Debug)]
pub enum FrozenError {
    /// A model file that could not be read or written.
    Io(std::io::Error),
    /// A readable model file that is simply not a frozen model (no
    /// `frozen.*` tensors) — e.g. a training checkpoint. Callers can
    /// treat this one as "try the full-model path instead".
    NotFrozen(String),
    /// A model file or frozen model that is damaged or inconsistent (a
    /// bad magic, a frame that fails its checksum, missing halves,
    /// mismatched shapes, a value that is not finite).
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
            FrozenError::Io(e) => write!(f, "model file io error: {e}"),
            FrozenError::NotFrozen(m) => write!(f, "not a frozen model: {m}"),
            FrozenError::Format(m) => write!(f, "frozen model format error: {m}"),
            FrozenError::Query(m) => write!(f, "bad query: {m}"),
            FrozenError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
        }
    }
}

impl std::error::Error for FrozenError {}

impl From<std::io::Error> for FrozenError {
    fn from(e: std::io::Error) -> Self {
        FrozenError::Io(e)
    }
}

/// Fewest bytes of float herb panels (`H · d · 4`) from which a model
/// ranks in two stages, where the CPU has a VNNI tile. Measured at k =
/// 10 on the build host (2 cores, AVX-512 VNNI, 2 MB of L2 a core; the
/// `rank_batch/*` rows of `benches/kernels.rs` and a sweep between
/// them), one stage's time over two stages': the paper shape (753 x
/// 256, 771 KB) stays in L2 and loses, 0.62x at 8 and at 64 queries;
/// at 2 MB two stages break even for 2,048 x 256 (1.01x, 64 queries)
/// and win for 8,192 x 64 (1.37x at 8 queries, 1.55x at 64); from 4 MB
/// they win at every shape tried (4,096 x 256: 1.34x at 64 queries,
/// 6.6x for one; `score_large`'s 65,536 x 64: 2.1x at 64).
const TWO_STAGE_MIN_BYTES: usize = 2 << 20;

/// Herbs per unit of `k` a row needs for two stages to pay: a row asking
/// for more than `H / TWO_STAGE_HERBS_PER_K` ranks in one stage. Every
/// herb of the top `k` is a candidate, and a candidate's re-score reads
/// its whole float panel, while the one-stage product reads every panel
/// once for the batch. Measured as above, 64 queries: 65,536 x 64 wins
/// 2.1x at k = 10, 1.5x at 50 and 1.1x at 100, and loses at 200 (0.71x);
/// 4,096 x 256 wins 1.2x at k = 10 and loses at 50 (0.56x).
const TWO_STAGE_HERBS_PER_K: usize = 512;

/// A trained SMGCN collapsed to its serving-time essentials.
#[derive(Clone)]
pub struct FrozenModel {
    symptoms: Matrix,
    /// `H x d` herb embeddings, packed as the right operand of `· e_H^T`.
    herbs: PackedRhs,
    /// `W_mlp` (`d x d`), packed as the right operand of `· W_mlp`, and
    /// `b_mlp` (`1 x d`).
    si_mlp: Option<(PackedRhs, Matrix)>,
    /// The herbs again, as int8 with per-herb bound terms: stage 1 of a
    /// two-stage ranking. `None` ranks in one stage.
    quant: Option<QuantRhs>,
    /// The largest `k` a row may ask for and still take two stages.
    two_stage_max_k: usize,
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
    /// A model whose two stages pay (the module doc) also gets its int8
    /// herb panels here, quantised on the worker team.
    ///
    /// # Errors
    /// Rejects dimension mismatches between the matrices, and any value
    /// that is not finite, naming its tensor and row: a NaN weight would
    /// rank nothing meaningfully, and a publish of one is refused before
    /// it can go live.
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
        let tier = Int8Tier::detect();
        let (packed, quant) = if tier != Int8Tier::Scalar && herbs.len() * 4 >= TWO_STAGE_MIN_BYTES
        {
            QuantRhs::pack_transposed(&herbs, tier)
        } else {
            (herbs.pack_transposed(), None)
        };
        let mut parts = vec![(NAME_SYMPTOMS, &symptoms)];
        if quant.is_none() {
            // An int8 copy exists only of finite herbs: its pack has
            // looked at every value already.
            parts.push((NAME_HERBS, &herbs));
        }
        if let Some((w, b)) = &si_mlp {
            parts.extend([(NAME_SI_W, w), (NAME_SI_B, b)]);
        }
        for (name, m) in parts {
            let finite = |r: &usize| m.row(*r).iter().fold(true, |ok, v| ok & v.is_finite());
            if let Some(r) = (0..m.rows()).find(|r| !finite(r)) {
                return Err(FrozenError::Format(format!(
                    "{name:?} row {r} holds a value that is not finite"
                )));
            }
        }
        Ok(Self {
            symptoms,
            quant,
            two_stage_max_k: herbs.rows() / TWO_STAGE_HERBS_PER_K,
            herbs: packed,
            si_mlp: si_mlp.map(|(w, b)| (w.pack_rhs(), b)),
        })
    }

    /// The int8 tier stage 1 runs on, or `None` for a model that ranks in
    /// one stage.
    pub fn stage_one(&self) -> Option<Int8Tier> {
        self.quant.as_ref().map(QuantRhs::tier)
    }

    /// The model with its stage 1 on `tier`, whatever its size and for
    /// every `k` — or, for `None`, ranking in one stage, the float path
    /// the two stages must equal. For tests and benches, which hold every
    /// tier a host has to that path; a model's own choice is made in
    /// [`from_parts`](Self::from_parts). A model whose herbs have no
    /// int8 bounds stays in one stage ([`stage_one`](Self::stage_one)
    /// says which it got).
    pub fn with_stage_one(mut self, tier: Option<Int8Tier>) -> Self {
        self.quant = tier
            .and_then(|tier| QuantRhs::pack_transposed(&self.herbs.unpack_transposed(), tier).1);
        self.two_stage_max_k = usize::MAX;
        self
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

    /// The model's tensors by their `frozen.*` names, the panels
    /// unpacked: what its model file holds.
    pub(crate) fn to_store(&self) -> ParamStore {
        let mut store = ParamStore::new();
        store.add(NAME_SYMPTOMS, self.symptoms.clone());
        store.add(NAME_HERBS, self.herbs.unpack_transposed());
        if let Some((w, b)) = &self.si_mlp {
            store.add(NAME_SI_W, w.unpack());
            store.add(NAME_SI_B, b.clone());
        }
        store
    }

    /// The model a model file's tensors hold ([`to_store`](Self::to_store)).
    pub(crate) fn from_store(store: ParamStore) -> Result<Self, FrozenError> {
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

    /// Writes the model as a model file, with no names.
    pub fn write_to(&self, w: impl std::io::Write) -> Result<(), FrozenError> {
        artifact::write(w, &self.to_store(), &ServingVocab::default())?;
        Ok(())
    }

    /// Reads a frozen model from a model file in memory; no tensor is
    /// allocated beyond what `bytes` can hold.
    pub fn read_from(bytes: &[u8]) -> Result<Self, FrozenError> {
        Self::from_store(artifact::read_bytes(bytes)?.0)
    }

    /// Saves to a file path.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), FrozenError> {
        artifact::save(path, &self.to_store(), &ServingVocab::default())
    }

    /// Loads from a file path, streaming ([`artifact::load`]).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, FrozenError> {
        Self::from_store(artifact::load(path)?.0)
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
    /// flight. A large model takes two stages to the same answer (the
    /// module doc).
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
        Ok(match &self.quant {
            Some(quant) => self.rank_two_stages(quant, &induced, ks, timed),
            None => self.rank_one_stage(&induced, ks, timed),
        })
    }

    /// Selects each row's top-k from every tile of the float product.
    fn rank_one_stage(
        &self,
        induced: &Matrix,
        ks: &[usize],
        timed: bool,
    ) -> (Vec<Vec<u32>>, Duration) {
        let mut tops: Vec<TopK> = ks
            .iter()
            .map(|&k| TopK::new(k.min(self.n_herbs())))
            .collect();
        // Summed over the threads the rows are split across; a statistic
        // nothing is published through, hence `Relaxed`.
        let select_ns = AtomicU64::new(0);
        let threads = self.herbs.for_each_tile(induced, &mut tops, |tops, tile| {
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
        (rankings, select)
    }

    /// Stage 1 keeps, per row, every herb whose upper bound reaches the
    /// running `k`-th best lower bound; stage 2 re-scores the herbs that
    /// still reach the final one, exactly, and selects from them. Rows
    /// the int8 copy cannot bound, and rows asking for more herbs than
    /// two stages pay for, rank in one stage, as a batch of their own.
    fn rank_two_stages(
        &self,
        quant: &QuantRhs,
        induced: &Matrix,
        ks: &[usize],
        timed: bool,
    ) -> (Vec<Vec<u32>>, Duration) {
        let rows = quant.quantize(induced);
        let mut rankings = vec![Vec::new(); ks.len()];
        let mut select = Duration::ZERO;
        let two_stages = |r: usize| rows.is_bounded(r) && ks[r] <= self.two_stage_max_k;
        let one_stage: Vec<usize> = (0..ks.len()).filter(|&r| !two_stages(r)).collect();
        if !one_stage.is_empty() {
            let lhs = Matrix::from_fn(one_stage.len(), self.dim(), |i, c| {
                induced.get(one_stage[i], c)
            });
            let ks: Vec<usize> = one_stage.iter().map(|&r| ks[r]).collect();
            let (ranked, time) = self.rank_one_stage(&lhs, &ks, timed);
            for (&r, ranking) in one_stage.iter().zip(ranked) {
                rankings[r] = ranking;
            }
            select += time;
        }
        if one_stage.len() == ks.len() {
            return (rankings, select);
        }
        let mut kept: Vec<Candidates> = ks
            .iter()
            .enumerate()
            .map(|(row, &k)| {
                let k = if two_stages(row) {
                    k.min(self.n_herbs())
                } else {
                    0
                };
                Candidates::new(row, k)
            })
            .collect();
        let select_ns = AtomicU64::new(0);
        let threads = quant.for_each_tile(&rows, &mut kept, |kept, tile| {
            let start = timed.then(Instant::now);
            for (r, kept) in kept.iter_mut().enumerate() {
                kept.offer(quant, &rows, tile.col0, tile.row(r));
            }
            if let Some(start) = start {
                select_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        });
        // Stage 2 reads each candidate's floats out of its panel, a line
        // a step: shared out like stage 1's rows.
        let start = timed.then(Instant::now);
        let per_thread = kept.len().div_ceil(threads);
        par::for_each_chunk(threads, kept.chunks_mut(per_thread), |kept| {
            for kept in kept {
                kept.rescore(&self.herbs, induced.row(kept.row));
            }
        });
        for kept in kept.into_iter().filter(|kept| kept.k > 0) {
            rankings[kept.row] = kept.ranking;
        }
        select += Duration::from_nanos(select_ns.into_inner() / threads as u64)
            + start.map_or(Duration::ZERO, |start| start.elapsed());
        (rankings, select)
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

/// Stage 1's state for one row: the `k` best lower bounds seen so far,
/// and every herb whose upper bound reached the `k`-th of them when it
/// was seen, in column order.
struct Candidates {
    row: usize,
    /// 0 for a row stage 1 does not rank.
    k: usize,
    /// Up to `k` lower bounds, in no order (`k` is at most `H / 512`
    /// unless a test forces two stages, and a scan of that few is
    /// cheaper than keeping a heap).
    lows: Vec<f32>,
    /// Where the least of `lows` is, once there are `k`.
    weakest: usize,
    /// That least, the `k`-th best lower bound; `-inf` until there are
    /// `k`. A herb whose upper bound is below it is beaten outright by
    /// `k` others.
    floor: f32,
    herbs: Vec<(u32, f32)>,
    /// Stage 2's answer.
    ranking: Vec<u32>,
}

impl Candidates {
    fn new(row: usize, k: usize) -> Self {
        Self {
            row,
            k,
            lows: Vec::with_capacity(k),
            weakest: 0,
            floor: f32::NEG_INFINITY,
            herbs: Vec::new(),
            ranking: Vec::new(),
        }
    }

    /// Stage 2: scores exactly every herb that still reaches the final
    /// floor, and selects the top `k` of them.
    fn rescore(&mut self, herbs: &PackedRhs, x: &[f32]) {
        if self.k == 0 {
            return;
        }
        let mut top = TopK::new(self.k);
        for &(col, high) in &self.herbs {
            if high >= self.floor {
                top.push(col, herbs.product_at(x, col as usize));
            }
        }
        self.ranking = top.finish();
    }

    /// Keeps `low` if it is among the `k` best so far; returns the floor.
    fn keep_low(&mut self, low: f32) -> f32 {
        if self.lows.len() < self.k {
            self.lows.push(low);
        } else if low > self.floor {
            self.lows[self.weakest] = low;
        } else {
            return self.floor;
        }
        if self.lows.len() == self.k {
            // Bounds are never NaN, so `<` orders them.
            (self.weakest, self.floor) =
                self.lows
                    .iter()
                    .enumerate()
                    .fold((0, f32::INFINITY), |(at, least), (i, &low)| {
                        if low < least {
                            (i, low)
                        } else {
                            (at, least)
                        }
                    });
        }
        self.floor
    }

    /// Screens one tile row of integer products, columns `col0 ..`.
    fn offer(&mut self, quant: &QuantRhs, rows: &QuantRows, col0: usize, dots: &[i32]) {
        if self.k == 0 {
            return;
        }
        quant.screen(rows, self.row, col0, dots, self.floor, |col, low, high| {
            self.herbs.push((col as u32, high));
            self.keep_low(low)
        });
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
            .map(|r| smgcn_tensor::partial_top_k(scores.row(r), ks[r]))
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
        artifact::write(&mut buf, &store, &ServingVocab::default()).unwrap();
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
