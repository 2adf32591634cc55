//! Reverse-mode automatic differentiation on a flat tape.
//!
//! Training in this reproduction is define-by-run, like the TensorFlow 2 /
//! PyTorch style the original SMGCN implementation used: each optimisation
//! step builds a fresh [`Tape`] over the persistent [`ParamStore`], runs the
//! forward computation while recording one [`Op`] node per primitive, and
//! then [`Tape::backward`] walks the nodes in reverse, accumulating matrix
//! gradients per parameter into a [`Gradients`] map.
//!
//! The op set is exactly what the paper's equations require:
//!
//! - Eq. 1/7/9 message construction: [`Tape::matmul`] + [`Tape::spmm`]
//!   (mean-merge as a row-normalised sparse operator) + [`Tape::tanh`];
//! - Eq. 4–6/8 GraphSAGE aggregation: [`Tape::concat_cols`] + `matmul` +
//!   `tanh`;
//! - Eq. 10 synergy encoding: `spmm` (sum aggregator) + `matmul` + `tanh`;
//! - Eq. 11 fusion: [`Tape::add`];
//! - Eq. 12 syndrome induction: `spmm` (set-mean pooling) + `matmul` +
//!   [`Tape::add_bias`] + [`Tape::relu`];
//! - Eq. 13–15 prediction & loss: [`Tape::matmul_transb`] +
//!   [`Tape::weighted_mse`] (and [`Tape::bpr_loss`] for the Table VIII
//!   ablation);
//! - the HeteGCN baseline's type attention: [`Tape::sub`],
//!   [`Tape::sigmoid`], [`Tape::affine`], [`Tape::scale_rows`];
//! - NGCF propagation: [`Tape::hadamard`] + [`Tape::leaky_relu`];
//! - regularisation / robustness: [`Tape::sum_squares`], [`Tape::dropout`].

use std::sync::Arc;

use rand::Rng;

use crate::matrix::Matrix;
use crate::par;
use crate::pool::BufferPool;
use crate::sparse::SharedCsr;

/// Handle to a trainable parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

impl ParamId {
    /// Raw index (stable for the lifetime of the store).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Persistent storage for model parameters, living across training steps.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Matrix>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a named parameter and returns its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.names.push(name.into());
        self.values.push(value);
        ParamId(self.values.len() - 1)
    }

    /// Parameter value.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable parameter value (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters across all tensors.
    pub fn scalar_count(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Iterates over `(id, name, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Matrix)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ParamId(i), self.names[i].as_str(), v))
    }

    /// Consumes the store into `(name, value)` pairs, in registration
    /// order, so a loader can move tensors out instead of cloning them.
    pub fn into_entries(self) -> impl Iterator<Item = (String, Matrix)> {
        self.names.into_iter().zip(self.values)
    }

    /// Sum of squared entries over all parameters (`||Θ||₂²` in Eq. 13).
    pub fn l2_squared(&self) -> f32 {
        self.values.iter().map(Matrix::sum_squares).sum()
    }

    /// True when every parameter entry is finite.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(Matrix::all_finite)
    }
}

/// Per-parameter gradients produced by [`Tape::backward`].
#[derive(Clone, Debug)]
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    fn new(n_params: usize) -> Self {
        Self {
            grads: (0..n_params).map(|_| None).collect(),
        }
    }

    /// Gradient for `id`, if the parameter participated in the loss.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.grads.get(id.0).and_then(Option::as_ref)
    }

    /// Iterates over `(id, grad)` for parameters that received gradients.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.grads
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|m| (ParamId(i), m)))
    }

    /// Number of parameters that received a gradient.
    pub fn present_count(&self) -> usize {
        self.grads.iter().filter(|g| g.is_some()).count()
    }

    /// Global gradient L2 norm (diagnostics / clipping): each gradient's
    /// [`Matrix::sum_squares`] as a chunk of its own on the worker team,
    /// the results added in registration order.
    pub fn l2_norm(&self) -> f32 {
        let present: Vec<&Matrix> = self.grads.iter().flatten().collect();
        let mut sums = vec![0.0f32; present.len()];
        let (threads, _) = par::split_elems(present.iter().map(|m| m.len()).sum());
        par::for_each_chunk(threads, sums.iter_mut().zip(&present), |(sum, m)| {
            *sum = m.sum_squares();
        });
        sums.into_iter().sum::<f32>().sqrt()
    }

    /// Scales all gradients in place (used for gradient clipping).
    pub fn scale_assign(&mut self, alpha: f32) {
        for g in self.grads.iter_mut().flatten() {
            g.scale_assign(alpha);
        }
    }

    /// Returns every gradient buffer to `pool` (end-of-step recycling,
    /// after the optimizer has consumed the gradients).
    pub fn recycle_into(self, pool: &BufferPool) {
        for m in self.grads.into_iter().flatten() {
            pool.release(m);
        }
    }
}

/// The rows of a multi-hot `B x L` target held as each row's label ids,
/// flat: row `r`'s ids are `ids[offsets[r]..offsets[r + 1]]`, strictly
/// ascending. [`Tape::weighted_mse`] reads a row's ones off its list, so
/// the `B x L` matrix of zeros is never built.
#[derive(Clone, Debug)]
pub struct LabelSets {
    offsets: Vec<usize>,
    ids: Vec<u32>,
}

impl LabelSets {
    /// One row per set, in order.
    ///
    /// # Panics
    /// Panics if a set is not strictly ascending.
    pub fn from_rows<'a>(sets: impl IntoIterator<Item = &'a [u32]>) -> Self {
        let mut labels = Self {
            offsets: vec![0],
            ids: Vec::new(),
        };
        for set in sets {
            assert!(
                set.windows(2).all(|w| w[0] < w[1]),
                "LabelSets: row {} is not strictly ascending",
                labels.rows()
            );
            labels.ids.extend_from_slice(set);
            labels.offsets.push(labels.ids.len());
        }
        labels
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `r`'s label ids, ascending.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.ids[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Every row's label ids, in row order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.offsets.windows(2).map(|w| &self.ids[w[0]..w[1]])
    }
}

/// A node handle on the tape. `Copy`, cheap, only valid for its own tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    Param(ParamId),
    Input,
    MatMul(Var, Var),
    MatMulTransB(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    AddBias(Var, Var),
    Scale(Var, f32),
    // The additive constant is applied when the forward value is computed;
    // backward only needs the multiplier.
    Affine(Var, f32),
    Hadamard(Var, Var),
    ScaleRows(Var, Var),
    Tanh(Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Sigmoid(Var),
    ConcatCols(Var, Var),
    SpMM(SharedCsr, Var),
    GatherRows(Var, Arc<Vec<u32>>),
    Dropout(Var, Arc<Matrix>),
    WeightedMse {
        pred: Var,
        labels: Arc<LabelSets>,
        weights: Arc<Vec<f32>>,
    },
    Bpr {
        pred: Var,
        pairs: Arc<Vec<(u32, u32, u32)>>,
    },
    SumSquares(Var),
}

struct Node {
    op: Op,
    value: Matrix,
}

/// A single forward computation recorded for reverse-mode differentiation.
///
/// A tape built with [`Tape::with_pool`] draws every node-value and
/// gradient buffer from a [`BufferPool`] and returns them on drop, so a
/// training loop that keeps one pool across steps reaches a steady state
/// with zero heap allocation per step. Pooling never changes results:
/// recycled buffers are fully overwritten by the `*_into` kernels.
pub struct Tape<'s> {
    store: &'s ParamStore,
    pool: Option<&'s BufferPool>,
    nodes: Vec<Node>,
}

impl<'s> Tape<'s> {
    /// Starts an empty tape over a parameter store.
    pub fn new(store: &'s ParamStore) -> Self {
        Self {
            store,
            pool: None,
            nodes: Vec::with_capacity(64),
        }
    }

    /// Starts an empty tape whose buffers are drawn from (and returned
    /// to) `pool`. Results are bit-identical to an unpooled tape.
    pub fn with_pool(store: &'s ParamStore, pool: &'s BufferPool) -> Self {
        Self {
            store,
            pool: Some(pool),
            nodes: Vec::with_capacity(64),
        }
    }

    /// A `rows x cols` scratch matrix: recycled when pooled (contents
    /// stale — callers fully overwrite), freshly zeroed otherwise.
    fn alloc(&self, rows: usize, cols: usize) -> Matrix {
        match self.pool {
            Some(pool) => pool.acquire(rows, cols),
            None => Matrix::zeros(rows, cols),
        }
    }

    /// An owned copy of `src` through the pool.
    fn alloc_copy(&self, src: &Matrix) -> Matrix {
        let mut m = self.alloc(src.rows(), src.cols());
        m.copy_from(src);
        m
    }

    /// Hands a finished scratch matrix back to the pool (no-op unpooled).
    fn release(&self, m: Matrix) {
        if let Some(pool) = self.pool {
            pool.release(m);
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node: a parameter's is read in place from
    /// the store.
    pub fn value(&self, v: Var) -> &Matrix {
        match &self.nodes[v.0] {
            Node {
                op: Op::Param(id), ..
            } => self.store.get(*id),
            node => &node.value,
        }
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        debug_assert!(value.all_finite(), "tape op produced non-finite values");
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Brings a parameter onto the tape as a leaf, without a copy:
    /// [`value`](Self::value) reads it from the store.
    pub fn param(&mut self, id: ParamId) -> Var {
        debug_assert!(self.store.get(id).all_finite(), "non-finite parameter");
        self.push(Op::Param(id), Matrix::zeros(0, 0))
    }

    /// Brings a constant matrix onto the tape (no gradient flows into it).
    pub fn input(&mut self, value: Matrix) -> Var {
        self.push(Op::Input, value)
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (am, bm) = (self.value(a), self.value(b));
        let mut value = self.alloc(am.rows(), bm.cols());
        am.matmul_into(bm, &mut value);
        self.push(Op::MatMul(a, b), value)
    }

    /// `a @ b^T` — the prediction layer kernel of Eq. 13.
    pub fn matmul_transb(&mut self, a: Var, b: Var) -> Var {
        let (am, bm) = (self.value(a), self.value(b));
        let mut value = self.alloc(am.rows(), bm.rows());
        am.matmul_transb_into(bm, &mut value);
        self.push(Op::MatMulTransB(a, b), value)
    }

    /// Element-wise `a + b` (the fusion step of Eq. 11).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (am, bm) = (self.value(a), self.value(b));
        let mut value = self.alloc(am.rows(), am.cols());
        am.add_into(bm, &mut value);
        self.push(Op::Add(a, b), value)
    }

    /// Element-wise `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (am, bm) = (self.value(a), self.value(b));
        let mut value = self.alloc(am.rows(), am.cols());
        am.sub_into(bm, &mut value);
        self.push(Op::Sub(a, b), value)
    }

    /// Broadcasts a `1 x d` bias row over every row of `x` (Eq. 12's `b_mlp`).
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let (xm, bm) = (self.value(x), self.value(bias));
        assert_eq!(bm.rows(), 1, "add_bias: bias must be a 1-row matrix");
        assert_eq!(
            xm.cols(),
            bm.cols(),
            "add_bias: width mismatch ({} vs {})",
            xm.cols(),
            bm.cols()
        );
        let (rows, cols) = xm.shape();
        let mut value = self.alloc(rows, cols);
        par::for_each_row_chunk(value.as_mut_slice(), cols, rows, |r0, chunk| {
            for (i, out) in chunk.chunks_exact_mut(cols.max(1)).enumerate() {
                for ((o, &v), &b) in out.iter_mut().zip(xm.row(r0 + i)).zip(bm.row(0)) {
                    *o = v + b;
                }
            }
        });
        self.push(Op::AddBias(x, bias), value)
    }

    /// `alpha * x`.
    pub fn scale(&mut self, x: Var, alpha: f32) -> Var {
        let xm = self.value(x);
        let mut value = self.alloc(xm.rows(), xm.cols());
        xm.scale_into(alpha, &mut value);
        self.push(Op::Scale(x, alpha), value)
    }

    /// Element-wise affine map `mul * x + add` (e.g. `1 - x` for attention
    /// complements).
    pub fn affine(&mut self, x: Var, mul: f32, add: f32) -> Var {
        let xm = self.value(x);
        let mut value = self.alloc(xm.rows(), xm.cols());
        xm.map_into(&mut value, |v| mul * v + add);
        self.push(Op::Affine(x, mul), value)
    }

    /// Element-wise product (NGCF's affinity term).
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let (am, bm) = (self.value(a), self.value(b));
        let mut value = self.alloc(am.rows(), am.cols());
        am.hadamard_into(bm, &mut value);
        self.push(Op::Hadamard(a, b), value)
    }

    /// Scales row `i` of `x` by the scalar `s[i, 0]` (HeteGCN type attention).
    ///
    /// # Panics
    /// Panics unless `s` is a column vector with one row per row of `x`.
    pub fn scale_rows(&mut self, x: Var, s: Var) -> Var {
        let (xm, sm) = (self.value(x), self.value(s));
        assert_eq!(sm.cols(), 1, "scale_rows: scale must be a column vector");
        assert_eq!(
            xm.rows(),
            sm.rows(),
            "scale_rows: row mismatch ({} vs {})",
            xm.rows(),
            sm.rows()
        );
        let mut value = self.alloc_copy(xm);
        for r in 0..value.rows() {
            let alpha = sm.get(r, 0);
            for v in value.row_mut(r) {
                *v *= alpha;
            }
        }
        self.push(Op::ScaleRows(x, s), value)
    }

    /// Records a unary element-wise op whose forward value is `f(x)`.
    fn unary_map(&mut self, x: Var, op: Op, f: impl Fn(f32) -> f32 + Sync) -> Var {
        let xm = self.value(x);
        let mut value = self.alloc(xm.rows(), xm.cols());
        xm.map_into(&mut value, f);
        self.push(op, value)
    }

    /// Element-wise [`tanh`] — the paper's activation throughout
    /// Bipar-GCN/SGE.
    pub fn tanh(&mut self, x: Var) -> Var {
        self.unary_map(x, Op::Tanh(x), tanh)
    }

    /// Element-wise ReLU (Eq. 12's syndrome-induction MLP).
    pub fn relu(&mut self, x: Var) -> Var {
        self.unary_map(x, Op::Relu(x), |v| v.max(0.0))
    }

    /// Element-wise LeakyReLU (NGCF's activation).
    pub fn leaky_relu(&mut self, x: Var, slope: f32) -> Var {
        self.unary_map(x, Op::LeakyRelu(x, slope), move |v| {
            if v > 0.0 {
                v
            } else {
                slope * v
            }
        })
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        self.unary_map(x, Op::Sigmoid(x), |v| 1.0 / (1.0 + (-v).exp()))
    }

    /// `[a || b]` column concatenation — the GraphSAGE aggregator input.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (am, bm) = (self.value(a), self.value(b));
        let mut value = self.alloc(am.rows(), am.cols() + bm.cols());
        am.concat_cols_into(bm, &mut value);
        self.push(Op::ConcatCols(a, b), value)
    }

    /// Sparse-dense product `A @ x` with a fixed sparse operator.
    ///
    /// With a row-normalised adjacency this is the paper's *mean* neighbor
    /// merge (Eqs. 2/3/7/9); with a raw 0/1 adjacency it is the *sum*
    /// aggregation used on the synergy graphs (Eq. 10); with a
    /// row-normalised symptom-set incidence matrix it is the average pooling
    /// of Eq. 12. An operator dense enough to keep dense copies runs as an
    /// exact GEMM on them, to the same bits ([`SharedCsr`]).
    pub fn spmm(&mut self, a: &SharedCsr, x: Var) -> Var {
        let xm = self.value(x);
        let mut value = self.alloc(a.shape().0, xm.cols());
        a.spmm_into(xm, &mut value);
        self.push(Op::SpMM(a.clone(), x), value)
    }

    /// Gathers rows of `x` by index (embedding lookup).
    pub fn gather_rows(&mut self, x: Var, indices: Arc<Vec<u32>>) -> Var {
        let xm = self.value(x);
        let mut value = self.alloc(indices.len(), xm.cols());
        xm.gather_rows_into(&indices, &mut value);
        self.push(Op::GatherRows(x, indices), value)
    }

    /// Inverted-dropout with rate `p`: keeps entries with probability
    /// `1 - p`, scaling survivors by `1 / (1 - p)`.
    ///
    /// The paper applies *message dropout* on aggregated neighborhood
    /// embeddings (§V-E-3, Fig. 9); the model code calls this on `b_N` nodes.
    pub fn dropout(&mut self, x: Var, rate: f32, rng: &mut impl Rng) -> Var {
        assert!(
            (0.0..1.0).contains(&rate),
            "dropout: rate must be in [0, 1), got {rate}"
        );
        if rate == 0.0 {
            return x;
        }
        let keep = 1.0 - rate;
        let scale = 1.0 / keep;
        let (rows, cols) = self.value(x).shape();
        let mut mask = self.alloc(rows, cols);
        // Row-major fill, same RNG draw order as the previous
        // `Matrix::from_fn` construction.
        for v in mask.as_mut_slice() {
            *v = if rng.gen::<f32>() < keep { scale } else { 0.0 };
        }
        self.dropout_with_mask(x, Arc::new(mask))
    }

    /// Dropout with an explicit mask (deterministic testing hook).
    pub fn dropout_with_mask(&mut self, x: Var, mask: Arc<Matrix>) -> Var {
        let xm = self.value(x);
        let mut value = self.alloc(xm.rows(), xm.cols());
        xm.hadamard_into(&mask, &mut value);
        self.push(Op::Dropout(x, mask), value)
    }

    /// The paper's multi-label objective (Eqs. 13–15): mean over batch rows
    /// of `Σ_i w_i (target_i - pred_i)²`, as a `1x1` scalar node, where
    /// row `r`'s target is 1 at the ids of `labels.row(r)` and 0 elsewhere.
    ///
    /// `weights[i]` is the per-herb imbalance weight
    /// `max_k freq(k) / freq(i)`.
    ///
    /// Each row's sum is one `f64` chain over the columns in order; the
    /// rows run on the worker team, four interleaved per thread so that
    /// their adds do not wait on each other, and the row sums are added
    /// in row order. The gradient never reads this value.
    ///
    /// # Panics
    /// Panics if `labels` has not one row per row of `pred`, a label id is
    /// not a column of `pred`, or `weights.len() != pred.cols()`.
    pub fn weighted_mse(
        &mut self,
        pred: Var,
        labels: Arc<LabelSets>,
        weights: Arc<Vec<f32>>,
    ) -> Var {
        let p = self.value(pred);
        let (rows, cols) = p.shape();
        assert_eq!(
            labels.rows(),
            rows,
            "weighted_mse: {} label rows for {rows} prediction rows",
            labels.rows()
        );
        assert!(
            labels
                .iter()
                .all(|set| set.last().is_none_or(|&id| (id as usize) < cols)),
            "weighted_mse: a label id is not below the label count {cols}"
        );
        assert_eq!(
            weights.len(),
            cols,
            "weighted_mse: weights length {} != label count {cols}",
            weights.len(),
        );
        let mut sums = vec![0.0f64; rows];
        let (threads, _) = par::split_elems(rows * cols);
        par::for_each_row_chunk_of(&mut sums, 1, rows, threads, |r0, sums| {
            for (i, group) in sums.chunks_mut(LOSS_ROWS).enumerate() {
                squared_error_rows(p, &labels, &weights, r0 + i * LOSS_ROWS, group);
            }
        });
        let acc = sums.iter().fold(0.0f64, |acc, &s| acc + s);
        let batch = rows.max(1) as f32;
        let value = self.scalar((acc / batch as f64) as f32);
        self.push(
            Op::WeightedMse {
                pred,
                labels,
                weights,
            },
            value,
        )
    }

    /// A pooled `1 x 1` node value.
    fn scalar(&self, v: f32) -> Matrix {
        let mut m = self.alloc(1, 1);
        m.as_mut_slice()[0] = v;
        m
    }

    /// Pair-wise BPR loss (Table VIII ablation):
    /// `-(1/|pairs|) Σ ln σ(pred[b, pos] - pred[b, neg])`.
    ///
    /// Each pair is `(batch_row, positive_herb, negative_herb)`.
    pub fn bpr_loss(&mut self, pred: Var, pairs: Arc<Vec<(u32, u32, u32)>>) -> Var {
        let p = self.value(pred);
        assert!(!pairs.is_empty(), "bpr_loss: empty pair set");
        let mut acc = 0.0f64;
        for &(b, pos, neg) in pairs.iter() {
            let x = p.get(b as usize, pos as usize) - p.get(b as usize, neg as usize);
            // ln σ(x) = -softplus(-x), computed stably.
            let softplus = if -x > 30.0 {
                -x
            } else {
                (1.0 + (-x).exp()).ln()
            };
            acc += softplus as f64;
        }
        let value = self.scalar((acc / pairs.len() as f64) as f32);
        self.push(Op::Bpr { pred, pairs }, value)
    }

    /// `Σ x²` as a scalar node (explicit L2 terms).
    pub fn sum_squares(&mut self, x: Var) -> Var {
        let value = self.scalar(self.value(x).sum_squares());
        self.push(Op::SumSquares(x), value)
    }

    /// Accumulates `delta` into a node's gradient slot, recycling the
    /// buffer when the slot was already populated.
    fn acc(&self, node_grads: &mut [Option<Matrix>], var: Var, delta: Matrix) {
        match &mut node_grads[var.0] {
            Some(g) => {
                g.add_assign(&delta);
                self.release(delta);
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// Runs reverse-mode differentiation from a scalar loss node.
    ///
    /// Every incoming node gradient `g` is *owned* here: each match arm
    /// either forwards it (possibly modified in place, which preserves the
    /// exact per-element arithmetic of the out-of-place formulation) or
    /// releases it back to the pool.
    ///
    /// # Panics
    /// Panics if `loss` is not `1x1`.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be a 1x1 scalar node"
        );
        let mut node_grads: Vec<Option<Matrix>> = (0..=loss.0).map(|_| None).collect();
        node_grads[loss.0] = Some(self.scalar(1.0));
        let mut out = Gradients::new(self.store.len());

        for idx in (0..=loss.0).rev() {
            let Some(mut g) = node_grads[idx].take() else {
                continue;
            };
            match &self.nodes[idx].op {
                Op::Param(id) => match &mut out.grads[id.0] {
                    Some(total) => {
                        total.add_assign(&g);
                        self.release(g);
                    }
                    slot @ None => *slot = Some(g),
                },
                Op::Input => self.release(g),
                Op::MatMul(a, b) => {
                    let (am, bm) = (self.value(*a), self.value(*b));
                    let mut ga = self.alloc(g.rows(), bm.rows());
                    g.matmul_transb_into(bm, &mut ga);
                    let mut gb = self.alloc(am.cols(), g.cols());
                    am.matmul_transa_into(&g, &mut gb);
                    self.acc(&mut node_grads, *a, ga);
                    self.acc(&mut node_grads, *b, gb);
                    self.release(g);
                }
                Op::MatMulTransB(a, b) => {
                    let (am, bm) = (self.value(*a), self.value(*b));
                    let mut ga = self.alloc(g.rows(), bm.cols());
                    g.matmul_into(bm, &mut ga);
                    let mut gb = self.alloc(g.cols(), am.cols());
                    g.matmul_transa_into(am, &mut gb);
                    self.acc(&mut node_grads, *a, ga);
                    self.acc(&mut node_grads, *b, gb);
                    self.release(g);
                }
                Op::Add(a, b) => {
                    let ga = self.alloc_copy(&g);
                    self.acc(&mut node_grads, *a, ga);
                    self.acc(&mut node_grads, *b, g);
                }
                Op::Sub(a, b) => {
                    let ga = self.alloc_copy(&g);
                    self.acc(&mut node_grads, *a, ga);
                    g.scale_assign(-1.0);
                    self.acc(&mut node_grads, *b, g);
                }
                Op::AddBias(x, bias) => {
                    let mut gbias = self.alloc(1, g.cols());
                    g.col_sums_into(&mut gbias);
                    self.acc(&mut node_grads, *bias, gbias);
                    self.acc(&mut node_grads, *x, g);
                }
                Op::Scale(x, alpha) => {
                    g.scale_assign(*alpha);
                    self.acc(&mut node_grads, *x, g);
                }
                Op::Affine(x, mul) => {
                    g.scale_assign(*mul);
                    self.acc(&mut node_grads, *x, g);
                }
                Op::Hadamard(a, b) => {
                    let (am, bm) = (self.value(*a), self.value(*b));
                    let mut ga = self.alloc(g.rows(), g.cols());
                    g.hadamard_into(bm, &mut ga);
                    g.hadamard_assign(am);
                    self.acc(&mut node_grads, *a, ga);
                    self.acc(&mut node_grads, *b, g);
                }
                Op::ScaleRows(x, s) => {
                    let xm = self.value(*x);
                    let sm = self.value(*s);
                    let mut gs = self.alloc(sm.rows(), 1);
                    for r in 0..g.rows() {
                        let dot: f32 = g
                            .row(r)
                            .iter()
                            .zip(xm.row(r))
                            .map(|(&gv, &xv)| gv * xv)
                            .sum();
                        gs.set(r, 0, dot);
                    }
                    for r in 0..g.rows() {
                        let alpha = sm.get(r, 0);
                        for v in g.row_mut(r) {
                            *v *= alpha;
                        }
                    }
                    self.acc(&mut node_grads, *x, g);
                    self.acc(&mut node_grads, *s, gs);
                }
                Op::Tanh(x) => {
                    g.zip_map_assign(&self.nodes[idx].value, |gv, yv| gv * (1.0 - yv * yv));
                    self.acc(&mut node_grads, *x, g);
                }
                Op::Relu(x) => {
                    let live = |gv, yv| if yv > 0.0 { gv } else { 0.0 };
                    g.zip_map_assign(&self.nodes[idx].value, live);
                    self.acc(&mut node_grads, *x, g);
                }
                Op::LeakyRelu(x, slope) => {
                    let leak = |gv, xv| if xv > 0.0 { gv } else { slope * gv };
                    g.zip_map_assign(self.value(*x), leak);
                    self.acc(&mut node_grads, *x, g);
                }
                Op::Sigmoid(x) => {
                    g.zip_map_assign(&self.nodes[idx].value, |gv, yv| gv * yv * (1.0 - yv));
                    self.acc(&mut node_grads, *x, g);
                }
                Op::ConcatCols(a, b) => {
                    let left_cols = self.value(*a).cols();
                    let mut ga = self.alloc(g.rows(), left_cols);
                    let mut gb = self.alloc(g.rows(), g.cols() - left_cols);
                    g.split_cols_into(&mut ga, &mut gb);
                    self.acc(&mut node_grads, *a, ga);
                    self.acc(&mut node_grads, *b, gb);
                    self.release(g);
                }
                Op::SpMM(shared, x) => {
                    let mut gx = self.alloc(shared.shape().1, g.cols());
                    shared.spmm_transposed_into(&g, &mut gx);
                    self.acc(&mut node_grads, *x, gx);
                    self.release(g);
                }
                Op::GatherRows(x, indices) => {
                    let xm = self.value(*x);
                    let mut gx = self.alloc(xm.rows(), xm.cols());
                    gx.as_mut_slice().fill(0.0);
                    for (o, &src) in indices.iter().enumerate() {
                        let src = src as usize;
                        for (v, &gv) in gx.row_mut(src).iter_mut().zip(g.row(o)) {
                            *v += gv;
                        }
                    }
                    self.acc(&mut node_grads, *x, gx);
                    self.release(g);
                }
                Op::Dropout(x, mask) => {
                    g.hadamard_assign(mask);
                    self.acc(&mut node_grads, *x, g);
                }
                Op::WeightedMse {
                    pred,
                    labels,
                    weights,
                } => {
                    let p = self.value(*pred);
                    let gscalar = g.get(0, 0);
                    let batch = p.rows().max(1) as f32;
                    let (rows, cols) = p.shape();
                    let grad =
                        |c: usize, pv: f32, t: f32| gscalar * 2.0 * weights[c] * (pv - t) / batch;
                    let mut gp = self.alloc(rows, cols);
                    par::for_each_row_chunk(gp.as_mut_slice(), cols, rows, |r0, chunk| {
                        for (i, out) in chunk.chunks_exact_mut(cols.max(1)).enumerate() {
                            let ps = p.row(r0 + i);
                            // Every column as a 0, then the row's labels as 1s.
                            for (c, o) in out.iter_mut().enumerate() {
                                *o = grad(c, ps[c], 0.0);
                            }
                            for &id in labels.row(r0 + i) {
                                let c = id as usize;
                                out[c] = grad(c, ps[c], 1.0);
                            }
                        }
                    });
                    self.acc(&mut node_grads, *pred, gp);
                    self.release(g);
                }
                Op::Bpr { pred, pairs } => {
                    let p = self.value(*pred);
                    let gscalar = g.get(0, 0);
                    let inv = gscalar / pairs.len() as f32;
                    let mut gp = self.alloc(p.rows(), p.cols());
                    gp.as_mut_slice().fill(0.0);
                    for &(b, pos, neg) in pairs.iter() {
                        let (b, pos, neg) = (b as usize, pos as usize, neg as usize);
                        let x = p.get(b, pos) - p.get(b, neg);
                        let sig = 1.0 / (1.0 + (-x).exp());
                        let d = -(1.0 - sig) * inv;
                        gp.set(b, pos, gp.get(b, pos) + d);
                        gp.set(b, neg, gp.get(b, neg) - d);
                    }
                    self.acc(&mut node_grads, *pred, gp);
                    self.release(g);
                }
                Op::SumSquares(x) => {
                    let gscalar = g.get(0, 0);
                    let xm = self.value(*x);
                    let mut gx = self.alloc(xm.rows(), xm.cols());
                    xm.scale_into(2.0 * gscalar, &mut gx);
                    self.acc(&mut node_grads, *x, gx);
                    self.release(g);
                }
            }
        }
        out
    }
}

impl Tape<'_> {
    /// Consumes the tape and returns every node-value buffer (and any
    /// dropout-mask buffer) to the pool. No-op for unpooled tapes.
    ///
    /// This is deliberately an explicit call rather than a `Drop` impl: a
    /// `Drop` would extend the tape's borrow of the [`ParamStore`] to the
    /// end of scope, breaking the ubiquitous
    /// `let tape = Tape::new(&store); …; opt.step(&mut store, …)` pattern.
    /// Forgetting to call it only costs pool misses, never correctness.
    pub fn recycle(mut self) {
        let Some(pool) = self.pool else {
            return;
        };
        for node in self.nodes.drain(..) {
            pool.release(node.value);
            // Dropout masks are Arc-shared with no other owner by the time
            // the tape dies; reclaim their buffers too.
            if let Op::Dropout(_, mask) = node.op {
                if let Ok(m) = Arc::try_unwrap(mask) {
                    pool.release(m);
                }
            }
        }
    }
}

/// Rows of [`Tape::weighted_mse`]'s sum a thread interleaves: enough
/// independent `f64` add chains to hide the add's latency.
const LOSS_ROWS: usize = 4;

/// `sums[i] = Σ_c w_c (t_c - p_c)²` for row `r0 + i` of `p`, its targets
/// `t` read off `labels`, for at most [`LOSS_ROWS`] rows: one `f64` chain
/// per row, columns ascending, the rows' chains stepped side by side (a
/// short group repeats its last row to fill the lanes).
fn squared_error_rows(p: &Matrix, labels: &LabelSets, w: &[f32], r0: usize, sums: &mut [f64]) {
    let last = r0 + sums.len() - 1;
    let ps: [&[f32]; LOSS_ROWS] = std::array::from_fn(|i| p.row((r0 + i).min(last)));
    let ids: [&[u32]; LOSS_ROWS] = std::array::from_fn(|i| labels.row((r0 + i).min(last)));
    let mut next = [0usize; LOSS_ROWS];
    let mut acc = [0.0f64; LOSS_ROWS];
    for (c, &wc) in w.iter().enumerate() {
        for i in 0..LOSS_ROWS {
            let t = if ids[i].get(next[i]) == Some(&(c as u32)) {
                next[i] += 1;
                1.0
            } else {
                0.0
            };
            let d = (t - ps[i][c]) as f64;
            acc[i] += wc as f64 * d * d;
        }
    }
    sums.copy_from_slice(&acc[..sums.len()]);
}

/// `tanh(x)` as [`Tape::tanh`] computes it: branch-free and in plain
/// arithmetic, so an element-wise loop over it vectorises (a libm
/// `tanhf` call per activation was 12% of a paper-scale training step),
/// and the same bits on every libc.
///
/// `tanh |x| = (1 - t) / (1 + t)` with `t = e^(-2|x|) = 2^k · 2^f`: `k`
/// an integer and `f` in `[0, 1]` by the add-a-large-constant rounding
/// trick, `2^f` a degree-6 polynomial with positive coefficients
/// (relative error 1e-8), `2^k` assembled from `k`'s bits. Within 1.2e-7
/// of the true value everywhere (glibc's `tanhf`: 1.0e-7) — absolutely, not
/// relatively: below `|x|` ≈ 1e-3 the result is quantised in steps of
/// about 3e-8. Exactly odd, `tanh(±0) = ±0`, exactly `±1` from `|x|` =
/// 8.7 on (inputs are clamped to ±9), NaN in gives NaN out, and
/// **monotone non-decreasing over every `f32`**: each step is a rounded
/// `+`, `·` or `/` that is monotone in its non-negative operands, the
/// polynomial is capped at 2 so `t` cannot rise across a change of `k`,
/// and `(1 - t) / (1 + t)` falls as `t` rises.
#[inline]
pub fn tanh(x: f32) -> f32 {
    /// `1.5 · 2^23`: adding it rounds to an integer (ties to even) and
    /// leaves that integer in the low bits of the sum.
    const ROUND: f32 = 12_582_912.0;
    let a = x.clamp(-9.0, 9.0).abs();
    let z = a * -2.885_39; // -2|x| / ln 2, in [-26, 0]
    let rounded = (z - 0.5) + ROUND;
    let k = rounded - ROUND;
    let f = z - k;
    // (2^f - 1) / f on [0, 1]: Chebyshev fit, error 1.1e-8.
    let mut g = 2.081_791_5e-4;
    g = g * f + 1.269_216_6e-3;
    g = g * f + 9.652_195e-3;
    g = g * f + 5.549_602_4e-2;
    g = g * f + 2.402_272e-1;
    g = g * f + 6.931_472e-1;
    let p = g * f + 1.0;
    // Not `p.min(2.0)`, which would turn a NaN into 2.
    let p = if p > 2.0 { 2.0 } else { p };
    // `k + 127` in the exponent field: `k` is in [-27, 0].
    let scale = f32::from_bits((rounded.to_bits() << 23).wrapping_add(127 << 23));
    let t = p * scale;
    ((1.0 - t) / (1.0 + t)).copysign(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrMatrix;

    fn store_with(values: &[(&str, Matrix)]) -> (ParamStore, Vec<ParamId>) {
        let mut store = ParamStore::new();
        let ids = values
            .iter()
            .map(|(n, m)| store.add(*n, m.clone()))
            .collect();
        (store, ids)
    }

    #[test]
    fn param_store_bookkeeping() {
        let (store, ids) = store_with(&[
            ("a", Matrix::filled(2, 2, 1.0)),
            ("b", Matrix::filled(1, 3, 2.0)),
        ]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.scalar_count(), 7);
        assert_eq!(store.name(ids[0]), "a");
        assert_eq!(store.l2_squared(), 4.0 + 12.0);
        assert!(store.all_finite());
    }

    #[test]
    fn matmul_backward_matches_closed_form() {
        // loss = sum_squares(A @ B); dL/dA = 2 (A B) B^T, dL/dB = 2 A^T (A B).
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, -1.0, 0.5]);
        let b = Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, 1.0]);
        let (store, ids) = store_with(&[("a", a.clone()), ("b", b.clone())]);
        let mut tape = Tape::new(&store);
        let va = tape.param(ids[0]);
        let vb = tape.param(ids[1]);
        let prod = tape.matmul(va, vb);
        let loss = tape.sum_squares(prod);
        let grads = tape.backward(loss);

        let ab = a.matmul(&b);
        let expect_ga = ab.scale(2.0).matmul_transb(&b);
        let expect_gb = a.transpose().matmul(&ab.scale(2.0));
        assert!(grads.get(ids[0]).unwrap().approx_eq(&expect_ga, 1e-5));
        assert!(grads.get(ids[1]).unwrap().approx_eq(&expect_gb, 1e-5));
    }

    #[test]
    fn add_and_sub_route_gradients() {
        let (store, ids) = store_with(&[
            ("a", Matrix::filled(1, 2, 3.0)),
            ("b", Matrix::filled(1, 2, 1.0)),
        ]);
        let mut tape = Tape::new(&store);
        let a = tape.param(ids[0]);
        let b = tape.param(ids[1]);
        let d = tape.sub(a, b);
        let loss = tape.sum_squares(d); // (a-b)^2 summed; d/da = 2(a-b)=4, d/db = -4
        let grads = tape.backward(loss);
        assert!(grads
            .get(ids[0])
            .unwrap()
            .approx_eq(&Matrix::filled(1, 2, 4.0), 1e-6));
        assert!(grads
            .get(ids[1])
            .unwrap()
            .approx_eq(&Matrix::filled(1, 2, -4.0), 1e-6));
    }

    #[test]
    fn reused_param_accumulates_gradient() {
        // loss = sum_squares(a + a) = 4 * sum a^2; grad = 8a.
        let (store, ids) = store_with(&[("a", Matrix::filled(1, 2, 1.5))]);
        let mut tape = Tape::new(&store);
        let a = tape.param(ids[0]);
        let s = tape.add(a, a);
        let loss = tape.sum_squares(s);
        let grads = tape.backward(loss);
        assert!(grads
            .get(ids[0])
            .unwrap()
            .approx_eq(&Matrix::filled(1, 2, 12.0), 1e-5));
    }

    #[test]
    fn spmm_backward_uses_transpose() {
        // loss = sum(A x ⊙ A x); grad_x = 2 A^T (A x).
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, -1.0)]);
        let shared = SharedCsr::new(a.clone());
        let x = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.5, -1.0, 2.0, 1.0]);
        let (store, ids) = store_with(&[("x", x.clone())]);
        let mut tape = Tape::new(&store);
        let vx = tape.param(ids[0]);
        let ax = tape.spmm(&shared, vx);
        let loss = tape.sum_squares(ax);
        let grads = tape.backward(loss);
        let expect = a.transpose().spmm(&a.spmm(&x).scale(2.0));
        assert!(grads.get(ids[0]).unwrap().approx_eq(&expect, 1e-5));
    }

    #[test]
    fn gather_rows_scatter_adds() {
        let x = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let (store, ids) = store_with(&[("x", x)]);
        let mut tape = Tape::new(&store);
        let vx = tape.param(ids[0]);
        // Gather row 1 twice; loss = sum_squares -> each gathered copy
        // contributes 2*x[1] = 4, scattered back twice => 8.
        let g = tape.gather_rows(vx, Arc::new(vec![1, 1]));
        let loss = tape.sum_squares(g);
        let grads = tape.backward(loss);
        let gx = grads.get(ids[0]).unwrap();
        assert_eq!(gx.get(0, 0), 0.0);
        assert!((gx.get(1, 0) - 8.0).abs() < 1e-6);
        assert_eq!(gx.get(2, 0), 0.0);
    }

    #[test]
    fn concat_splits_gradient() {
        let (store, ids) = store_with(&[
            ("a", Matrix::filled(2, 1, 2.0)),
            ("b", Matrix::filled(2, 2, -1.0)),
        ]);
        let mut tape = Tape::new(&store);
        let a = tape.param(ids[0]);
        let b = tape.param(ids[1]);
        let cat = tape.concat_cols(a, b);
        let loss = tape.sum_squares(cat);
        let grads = tape.backward(loss);
        assert!(grads
            .get(ids[0])
            .unwrap()
            .approx_eq(&Matrix::filled(2, 1, 4.0), 1e-6));
        assert!(grads
            .get(ids[1])
            .unwrap()
            .approx_eq(&Matrix::filled(2, 2, -2.0), 1e-6));
    }

    #[test]
    fn weighted_mse_value_and_gradient() {
        let pred = Matrix::from_vec(2, 2, vec![0.5, 0.0, 1.0, 1.0]);
        let target = Arc::new(LabelSets::from_rows([&[0u32][..], &[0]]));
        let weights = Arc::new(vec![2.0f32, 1.0]);
        let (store, ids) = store_with(&[("p", pred)]);
        let mut tape = Tape::new(&store);
        let vp = tape.param(ids[0]);
        let loss = tape.weighted_mse(vp, target, weights);
        // row0: 2*(1-0.5)^2 + 1*0 = 0.5 ; row1: 0 + 1*(0-1)^2 = 1.0; mean = 0.75
        assert!((tape.value(loss).get(0, 0) - 0.75).abs() < 1e-6);
        let grads = tape.backward(loss);
        let gp = grads.get(ids[0]).unwrap();
        // d/dp[0,0] = 2*w0*(p-t)/B = 2*2*(-0.5)/2 = -1
        assert!((gp.get(0, 0) + 1.0).abs() < 1e-6);
        // d/dp[1,1] = 2*1*(1-0)/2 = 1
        assert!((gp.get(1, 1) - 1.0).abs() < 1e-6);
        assert_eq!(gp.get(0, 1), 0.0);
    }

    #[test]
    fn bpr_loss_prefers_positive() {
        let pred = Matrix::from_vec(1, 3, vec![1.0, 0.0, -1.0]);
        let (store, ids) = store_with(&[("p", pred)]);
        let mut tape = Tape::new(&store);
        let vp = tape.param(ids[0]);
        let loss = tape.bpr_loss(vp, Arc::new(vec![(0, 0, 2)]));
        // x = 2.0; loss = ln(1 + e^-2)
        let expect = (1.0f32 + (-2.0f32).exp()).ln();
        assert!((tape.value(loss).get(0, 0) - expect).abs() < 1e-5);
        let grads = tape.backward(loss);
        let gp = grads.get(ids[0]).unwrap();
        assert!(
            gp.get(0, 0) < 0.0,
            "positive item gradient must push score up"
        );
        assert!(
            gp.get(0, 2) > 0.0,
            "negative item gradient must push score down"
        );
        assert_eq!(gp.get(0, 1), 0.0);
    }

    #[test]
    fn dropout_mask_scales_forward_and_backward() {
        let x = Matrix::filled(1, 4, 1.0);
        let (store, ids) = store_with(&[("x", x)]);
        let mut tape = Tape::new(&store);
        let vx = tape.param(ids[0]);
        let mask = Arc::new(Matrix::from_vec(1, 4, vec![2.0, 0.0, 2.0, 0.0]));
        let d = tape.dropout_with_mask(vx, mask);
        assert_eq!(tape.value(d).as_slice(), &[2.0, 0.0, 2.0, 0.0]);
        let loss = tape.sum_squares(d);
        let grads = tape.backward(loss);
        // d loss/dx = 2 * (x*m) * m = 2*2*2 = 8 where kept, 0 where dropped.
        assert_eq!(grads.get(ids[0]).unwrap().as_slice(), &[8.0, 0.0, 8.0, 0.0]);
    }

    #[test]
    fn dropout_zero_rate_is_identity() {
        let (store, ids) = store_with(&[("x", Matrix::filled(2, 2, 3.0))]);
        let mut tape = Tape::new(&store);
        let vx = tape.param(ids[0]);
        let mut rng = crate::init::seeded_rng(7);
        let d = tape.dropout(vx, 0.0, &mut rng);
        assert_eq!(d, vx, "rate 0 must not add a node");
    }

    #[test]
    fn dropout_keeps_expected_fraction() {
        let (store, ids) = store_with(&[("x", Matrix::filled(100, 100, 1.0))]);
        let mut tape = Tape::new(&store);
        let vx = tape.param(ids[0]);
        let mut rng = crate::init::seeded_rng(42);
        let d = tape.dropout(vx, 0.3, &mut rng);
        let kept = tape
            .value(d)
            .as_slice()
            .iter()
            .filter(|&&v| v != 0.0)
            .count();
        let frac = kept as f32 / 10_000.0;
        assert!(
            (frac - 0.7).abs() < 0.03,
            "kept fraction {frac} too far from 0.7"
        );
        // Inverted dropout keeps the expectation: mean ≈ 1.
        let mean = tape.value(d).sum() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean} too far from 1.0");
    }

    #[test]
    fn scale_rows_backward() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let s = Matrix::from_vec(2, 1, vec![2.0, -1.0]);
        let (store, ids) = store_with(&[("x", x), ("s", s)]);
        let mut tape = Tape::new(&store);
        let vx = tape.param(ids[0]);
        let vs = tape.param(ids[1]);
        let y = tape.scale_rows(vx, vs);
        assert_eq!(tape.value(y).as_slice(), &[2.0, 4.0, -3.0, -4.0]);
        let loss = tape.sum_squares(y);
        let grads = tape.backward(loss);
        // dL/dx = 2*y*s per row; dL/ds_r = Σ_c 2*y[r,c]*x[r,c]
        let gx = grads.get(ids[0]).unwrap();
        assert_eq!(gx.as_slice(), &[8.0, 16.0, 6.0, 8.0]);
        let gs = grads.get(ids[1]).unwrap();
        // row0: 2*y[0,c]*x[0,c] summed = 2*(2*1 + 4*2) = 20
        // row1: 2*(-3*3 + -4*4) = -50
        assert_eq!(gs.as_slice(), &[20.0, -50.0]);
    }

    #[test]
    fn tanh_is_close_odd_monotone_and_saturates() {
        // A dense sweep of [-10, 10] against f64's tanh (glibc's `tanhf`
        // reads 1.0e-7 here; this reads 1.2e-7).
        const STEPS: u32 = 4_000_000;
        let (mut worst, mut below) = (0.0f64, -1.0f32);
        for i in 0..=STEPS {
            let x = -10.0 + 20.0 * (i as f32 / STEPS as f32);
            let y = tanh(x);
            worst = worst.max((f64::from(y) - f64::from(x).tanh()).abs());
            assert!(y >= below, "tanh({x}) = {y} after {below}");
            assert_eq!(tanh(-x).to_bits(), (-y).to_bits(), "odd at {x}");
            below = y;
        }
        assert!(worst <= 1.5e-7, "max abs error {worst:e}");
        // Monotone between neighbouring floats too, where a sweep's steps
        // are coarsest against the function's: around 0 and the clamp.
        for start in [0.0f32, 1e-3, 0.5, 3.0, 8.6] {
            let mut below = tanh(start);
            for bits in start.to_bits()..start.to_bits() + 200_000 {
                let y = tanh(f32::from_bits(bits));
                assert!(
                    y >= below,
                    "tanh({}) = {y} after {below}",
                    f32::from_bits(bits)
                );
                below = y;
            }
        }
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        for beyond in [8.7f32, 9.0, 9.000001, 100.0, f32::MAX, f32::INFINITY] {
            assert_eq!(tanh(beyond), 1.0, "tanh({beyond})");
            assert_eq!(tanh(-beyond), -1.0, "tanh(-{beyond})");
        }
        assert!(tanh(8.5) < 1.0);
        assert!(tanh(f32::NAN).is_nan());
        assert!(tanh(f32::MIN_POSITIVE) >= 0.0 && tanh(1e-3) > 0.0);
    }

    #[test]
    fn affine_and_activations_forward() {
        let (store, ids) = store_with(&[("x", Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]))]);
        let mut tape = Tape::new(&store);
        let x = tape.param(ids[0]);
        let a = tape.affine(x, -1.0, 1.0);
        assert_eq!(tape.value(a).as_slice(), &[2.0, 1.0, -1.0]);
        let r = tape.relu(x);
        assert_eq!(tape.value(r).as_slice(), &[0.0, 0.0, 2.0]);
        let l = tape.leaky_relu(x, 0.1);
        assert_eq!(tape.value(l).as_slice(), &[-0.1, 0.0, 2.0]);
        let t = tape.tanh(x);
        assert!((tape.value(t).get(0, 2) - 2.0f32.tanh()).abs() < 1e-6);
        let s = tape.sigmoid(x);
        assert!((tape.value(s).get(0, 1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gradients_norm_and_scale() {
        let (store, ids) = store_with(&[("a", Matrix::filled(1, 1, 3.0))]);
        let mut tape = Tape::new(&store);
        let a = tape.param(ids[0]);
        let loss = tape.sum_squares(a);
        let mut grads = tape.backward(loss);
        assert!((grads.l2_norm() - 6.0).abs() < 1e-6);
        grads.scale_assign(0.5);
        assert!((grads.get(ids[0]).unwrap().get(0, 0) - 3.0).abs() < 1e-6);
        assert_eq!(grads.present_count(), 1);
    }

    #[test]
    #[should_panic(expected = "loss must be a 1x1")]
    fn backward_rejects_non_scalar() {
        let (store, ids) = store_with(&[("a", Matrix::filled(2, 2, 1.0))]);
        let mut tape = Tape::new(&store);
        let a = tape.param(ids[0]);
        let _ = tape.backward(a);
    }

    #[test]
    fn split_tape_maps_match_sequential_loops_bitwise() {
        use crate::matrix::tests::{assert_same_bits, scrambled, MAP_SHAPES};
        // affine -> relu -> dropout -> tanh -> weighted MSE: every map the
        // trainer splits, forward and backward, against plain loops.
        for (rows, cols) in MAP_SHAPES {
            let what = format!("{rows}x{cols}");
            let (store, ids) = store_with(&[("x", scrambled(rows, cols, 3))]);
            let mask =
                Arc::new(scrambled(rows, cols, 4).map(|v| if v > -2.0 { 1.25 } else { 0.0 }));
            let target = multi_hot(rows, cols, 5);
            let weights: Arc<Vec<f32>> =
                Arc::new((0..cols).map(|c| 1.0 + (c % 7) as f32).collect());
            let mut tape = Tape::new(&store);
            let x = tape.param(ids[0]);
            let a = tape.affine(x, 0.5, 0.25);
            let r = tape.relu(a);
            let d = tape.dropout_with_mask(r, Arc::clone(&mask));
            let t = tape.tanh(d);
            let loss = tape.weighted_mse(t, Arc::new(label_sets(&target)), Arc::clone(&weights));
            let grads = tape.backward(loss);

            let xs = store.get(ids[0]).as_slice();
            let plain_a: Vec<f32> = xs.iter().map(|&v| 0.5 * v + 0.25).collect();
            let plain_r: Vec<f32> = plain_a.iter().map(|&v| v.max(0.0)).collect();
            let plain_d: Vec<f32> = plain_r
                .iter()
                .zip(mask.as_slice())
                .map(|(&v, &m)| v * m)
                .collect();
            let plain_t: Vec<f32> = plain_d.iter().map(|&v| tanh(v)).collect();
            assert_same_bits(tape.value(a).as_slice(), plain_a.iter().copied(), &what);
            assert_same_bits(tape.value(r).as_slice(), plain_r.iter().copied(), &what);
            assert_same_bits(tape.value(t).as_slice(), plain_t.iter().copied(), &what);

            let batch = rows as f32;
            let plain_grad = (0..rows * cols).map(|i| {
                let mut g =
                    1.0 * 2.0 * weights[i % cols] * (plain_t[i] - target.as_slice()[i]) / batch;
                g *= 1.0 - plain_t[i] * plain_t[i];
                g *= mask.as_slice()[i];
                g = if plain_r[i] > 0.0 { g } else { 0.0 };
                g * 0.5
            });
            assert_same_bits(grads.get(ids[0]).unwrap().as_slice(), plain_grad, &what);
        }
    }

    /// A 0/1 matrix with about one entry in eight set.
    fn multi_hot(rows: usize, cols: usize, salt: usize) -> Matrix {
        crate::matrix::tests::scrambled(rows, cols, salt).map(|v| if v > 3.0 { 1.0 } else { 0.0 })
    }

    /// The rows of a 0/1 matrix as label sets.
    fn label_sets(target: &Matrix) -> LabelSets {
        let rows: Vec<Vec<u32>> = (0..target.rows())
            .map(|r| {
                let ones = target.row(r).iter().enumerate().filter(|(_, &t)| t == 1.0);
                ones.map(|(c, _)| c as u32).collect()
            })
            .collect();
        LabelSets::from_rows(rows.iter().map(Vec::as_slice))
    }

    /// The multi-label loss over a dense `B x L` target, as the tape
    /// computed it before targets became label lists: its value (one `f64`
    /// chain over every element, rows in order) and its gradient with
    /// respect to `pred`. The oracle the list form is held to.
    fn weighted_mse_dense(pred: &Matrix, target: &Matrix, weights: &[f32]) -> (f32, Matrix) {
        let batch = pred.rows().max(1) as f32;
        let mut acc = 0.0f64;
        for r in 0..pred.rows() {
            for ((&pv, &tv), &w) in pred.row(r).iter().zip(target.row(r)).zip(weights) {
                let d = (tv - pv) as f64;
                acc += w as f64 * d * d;
            }
        }
        let gscalar = 1.0f32;
        let grad = Matrix::from_fn(pred.rows(), pred.cols(), |r, c| {
            gscalar * 2.0 * weights[c] * (pred.get(r, c) - target.get(r, c)) / batch
        });
        ((acc / batch as f64) as f32, grad)
    }

    #[test]
    fn list_loss_matches_the_dense_target_oracle() {
        use crate::matrix::tests::{assert_same_bits, scrambled, MAP_SHAPES};
        for (rows, cols) in MAP_SHAPES {
            let what = format!("{rows}x{cols}");
            let target = multi_hot(rows, cols, 6);
            let weights: Vec<f32> = (0..cols).map(|c| 0.5 + (c % 5) as f32).collect();
            let (store, ids) = store_with(&[("p", scrambled(rows, cols, 7).scale(0.3))]);
            let mut tape = Tape::new(&store);
            let p = tape.param(ids[0]);
            let labels = Arc::new(label_sets(&target));
            let loss = tape.weighted_mse(p, labels, Arc::new(weights.clone()));
            let (want, want_grad) = weighted_mse_dense(store.get(ids[0]), &target, &weights);
            let got = tape.value(loss).get(0, 0);
            assert!(
                got.to_bits().abs_diff(want.to_bits()) <= 1,
                "{what}: {got} is more than 1 ulp from {want}"
            );
            let grads = tape.backward(loss);
            let got_grad = grads.get(ids[0]).unwrap().as_slice();
            assert_same_bits(got_grad, want_grad.as_slice().iter().copied(), &what);
        }
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn label_sets_refuse_an_unsorted_row() {
        let _ = LabelSets::from_rows([&[1u32, 3][..], &[2, 2]]);
    }
}
