//! # smgcn-tensor — neural substrate for the SMGCN reproduction
//!
//! The original SMGCN implementation (Jin et al., ICDE 2020) is written in
//! TensorFlow. No ML framework is available in this offline build, so this
//! crate provides the complete substrate the paper's models need:
//!
//! - [`matrix`] — dense row-major `f32` matrices with the kernels every
//!   layer is built from (GEMM, transposed GEMM, concat/split, reductions),
//!   parallelised deterministically over output rows;
//! - [`gemm`] — the register-tiled GEMM driver and micro-kernels behind
//!   every dense product (explicit SIMD tiles picked from the CPU at run
//!   time), bit-identical in training to the naive reference loops they
//!   replace, and [`PackedRhs`], a right operand packed once for many
//!   products;
//! - [`quant`] — an int8 copy of a frozen right operand for the integer
//!   dot-product tiles (AVX-512 VNNI, AVX-VNNI), and the interval it
//!   guarantees around every float product, so a top-k can be found from
//!   a quarter of the bytes and re-scored exactly;
//! - [`sparse`] — CSR adjacency matrices and sparse-dense products for
//!   graph convolutions and set pooling, nnz-balanced across threads;
//! - [`par`] — the one resident team of worker threads every kernel and
//!   element-wise map shares its chunks with, and the thresholds that
//!   decide when a second thread is worth it;
//! - [`pool`] — a step-scoped buffer recycler so steady-state training
//!   allocates nothing in the hot loop;
//! - [`tape`] — define-by-run reverse-mode autograd over a persistent
//!   [`tape::ParamStore`], with one op per primitive the paper's equations
//!   use;
//! - [`optim`] — Adam (the paper's optimizer) and SGD, with the paper's
//!   `λ‖Θ‖²` regularisation realised as weight decay;
//! - [`init`] — Xavier initialisation (the paper's initializer) and seeded
//!   RNG plumbing;
//! - [`gradcheck`] — finite-difference validation used by the test suite to
//!   certify every backward formula;
//! - [`topk`] — the streaming partial top-k selector every ranking goes
//!   through, training-side and serving-side;
//! - [`checkpoint`] — restoring a loaded parameter store into a model by
//!   name (exact, or with grown vocabulary rows).
//!
//! ## Example
//!
//! ```
//! use smgcn_tensor::prelude::*;
//!
//! // Fit y = x.W with a two-parameter model.
//! let mut rng = seeded_rng(42);
//! let mut store = ParamStore::new();
//! let w = store.add("w", xavier_uniform(2, 1, &mut rng));
//! let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
//! let y = Matrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
//! let mut adam = Adam::new(0.05);
//! let mut final_loss = f32::INFINITY;
//! for _ in 0..400 {
//!     let mut tape = Tape::new(&store);
//!     let vx = tape.input(x.clone());
//!     let vw = tape.param(w);
//!     let pred = tape.matmul(vx, vw);
//!     let target = tape.input(y.clone());
//!     let diff = tape.sub(pred, target);
//!     let loss = tape.sum_squares(diff);
//!     final_loss = tape.value(loss).get(0, 0);
//!     let grads = tape.backward(loss);
//!     adam.step(&mut store, &grads);
//! }
//! assert!(final_loss < 1e-2);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod checkpoint;
pub mod gemm;
pub mod gradcheck;
pub mod init;
pub mod matrix;
pub mod optim;
pub mod par;
pub mod pool;
pub mod quant;
#[cfg(target_arch = "x86_64")]
mod simd;
pub mod sparse;
pub mod tape;
pub mod topk;

pub use gemm::{PackedRhs, Tier, Tile};
pub use matrix::Matrix;
pub use pool::{BufferPool, PoolStats};
pub use quant::{Int8Tier, QuantRhs, QuantRows};
pub use sparse::{CsrMatrix, SharedCsr};
pub use tape::{Gradients, LabelSets, ParamId, ParamStore, Tape, Var};
pub use topk::{partial_top_k, TopK};

/// Common imports for model code.
pub mod prelude {
    pub use crate::gradcheck::{compare, finite_diff_grad};
    pub use crate::init::{seeded_rng, xavier_normal, xavier_uniform};
    pub use crate::matrix::Matrix;
    pub use crate::optim::{Adam, Optimizer, Sgd};
    pub use crate::sparse::{CsrMatrix, SharedCsr};
    pub use crate::tape::{Gradients, LabelSets, ParamId, ParamStore, Tape, Var};
}
