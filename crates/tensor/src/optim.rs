//! First-order optimizers.
//!
//! The paper trains every model with Adam (§IV-E, §V-D). Plain SGD is
//! included for substrate tests and as the reference against which Adam's
//! bookkeeping is validated.
//!
//! L2 regularisation: the paper adds `λ_Θ ||Θ||₂²` to the loss (Eq. 13),
//! whose gradient contribution is `2 λ_Θ θ`. Both optimizers accept a
//! `weight_decay` coefficient `c` applied as `g += c · θ`; the trainer
//! passes `c = 2 λ_Θ` so the update matches the paper's objective exactly.

use crate::matrix::Matrix;
use crate::par;
use crate::tape::{Gradients, ParamStore};

/// Shared optimizer interface: apply one update step given gradients.
pub trait Optimizer {
    /// Applies an in-place parameter update.
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients);

    /// The learning rate currently in effect.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (for schedules and sweeps).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent with optional L2 weight decay.
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
    weight_decay: f32,
}

impl Sgd {
    /// SGD with learning rate `lr` and no weight decay.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            weight_decay: 0.0,
        }
    }

    /// Sets the weight-decay coefficient `c` in `g += c · θ`.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        for (id, g) in grads.iter() {
            let theta = store.get_mut(id);
            if self.weight_decay != 0.0 {
                // θ ← θ - lr (g + c θ) = (1 - lr·c) θ - lr·g
                theta.scale_assign(1.0 - self.lr * self.weight_decay);
            }
            theta.add_scaled_assign(g, -self.lr);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba, ICLR 2015) with bias correction, optional L2 weight
/// decay and optional global-norm gradient clipping.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    max_grad_norm: Option<f32>,
    t: u64,
    /// First/second moment estimates, lazily sized to the store.
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Adam with the standard defaults `β1 = 0.9, β2 = 0.999, ε = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            max_grad_norm: None,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Sets the weight-decay coefficient `c` in `g += c · θ`
    /// (pass `2 λ_Θ` to realise the paper's `λ_Θ ||Θ||₂²` term).
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Enables global-norm gradient clipping (robustness extension; the
    /// paper does not clip, so experiment configs leave this off).
    pub fn with_max_grad_norm(mut self, max_norm: f32) -> Self {
        self.max_grad_norm = Some(max_norm);
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        if self.m.len() < store.len() {
            self.m.resize_with(store.len(), || None);
            self.v.resize_with(store.len(), || None);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        self.ensure_state(store);
        self.t += 1;
        let clip_scale = match self.max_grad_norm {
            Some(max) => {
                let norm = grads.l2_norm();
                if norm > max && norm > 0.0 {
                    max / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (id, g) in grads.iter() {
            let idx = id.index();
            let theta = store.get_mut(id);
            let m = self.m[idx].get_or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
            let v = self.v[idx].get_or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
            let (wd, b1, b2, eps, lr) =
                (self.weight_decay, self.beta1, self.beta2, self.eps, self.lr);
            // Zipped slice walk: same arithmetic in the same order as the
            // indexed formulation, minus per-element bounds checks — this
            // loop runs once per scalar parameter per step, a large
            // parameter's in disjoint runs on separate threads. Zip would
            // silently truncate on a length mismatch, so assert it away.
            debug_assert_eq!(theta.len(), g.len(), "gradient/parameter size mismatch");
            let (threads, len) = par::split_elems(theta.len());
            let chunks = theta
                .as_mut_slice()
                .chunks_mut(len)
                .zip(g.as_slice().chunks(len))
                .zip(
                    m.as_mut_slice()
                        .chunks_mut(len)
                        .zip(v.as_mut_slice().chunks_mut(len)),
                );
            par::for_each_chunk(threads, chunks, |((theta, g), (m, v))| {
                for ((ti, &gi0), (mi, vi)) in theta.iter_mut().zip(g).zip(m.iter_mut().zip(v)) {
                    let gi = gi0 * clip_scale + wd * *ti;
                    *mi = b1 * *mi + (1.0 - b1) * gi;
                    *vi = b2 * *vi + (1.0 - b2) * gi * gi;
                    let m_hat = *mi / bc1;
                    let v_hat = *vi / bc2;
                    *ti -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            });
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimises `||θ - target||²` and returns the final θ.
    fn minimise(opt: &mut dyn Optimizer, steps: usize) -> (Matrix, f32) {
        let target = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
        let mut store = ParamStore::new();
        let id = store.add("theta", Matrix::zeros(1, 3));
        let mut last_loss = f32::INFINITY;
        for _ in 0..steps {
            let mut tape = Tape::new(&store);
            let th = tape.param(id);
            let t = tape.input(target.clone());
            let diff = tape.sub(th, t);
            let loss = tape.sum_squares(diff);
            last_loss = tape.value(loss).get(0, 0);
            let grads = tape.backward(loss);
            opt.step(&mut store, &grads);
        }
        (store.get(id).clone(), last_loss)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let (theta, loss) = minimise(&mut opt, 200);
        assert!(loss < 1e-6, "loss {loss}");
        assert!(theta.approx_eq(&Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]), 1e-3));
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let (theta, loss) = minimise(&mut opt, 500);
        assert!(loss < 1e-4, "loss {loss}");
        assert!(theta.approx_eq(&Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]), 1e-2));
        assert_eq!(opt.steps(), 500);
    }

    #[test]
    fn adam_first_step_matches_closed_form() {
        // With bias correction, the very first Adam step is lr * sign(g).
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let mut tape = Tape::new(&store);
        let w = tape.param(id);
        let s = tape.sum_squares(w); // g = 2w = [2, 2]
        let grads = tape.backward(s);
        let mut opt = Adam::new(0.1);
        opt.step(&mut store, &grads);
        let w_new = store.get(id);
        assert!(
            (w_new.get(0, 0) - 0.9).abs() < 1e-4,
            "got {}",
            w_new.get(0, 0)
        );
    }

    #[test]
    fn weight_decay_shrinks_unused_directions() {
        // Gradient is zero for a param that never enters the loss, so decay
        // only acts through params that received gradients.
        let mut store = ParamStore::new();
        let used = store.add("used", Matrix::filled(1, 1, 1.0));
        let unused = store.add("unused", Matrix::filled(1, 1, 1.0));
        let mut tape = Tape::new(&store);
        let w = tape.param(used);
        let loss = tape.sum_squares(w);
        let grads = tape.backward(loss);
        let mut opt = Sgd::new(0.1).with_weight_decay(1.0);
        opt.step(&mut store, &grads);
        assert!(store.get(used).get(0, 0) < 1.0);
        assert_eq!(store.get(unused).get(0, 0), 1.0);
    }

    #[test]
    fn grad_clipping_bounds_update() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::filled(1, 1, 1000.0));
        let mut tape = Tape::new(&store);
        let w = tape.param(id);
        let loss = tape.sum_squares(w); // g = 2000, huge
        let grads = tape.backward(loss);
        assert!(grads.l2_norm() > 100.0);
        let mut opt = Adam::new(0.1).with_max_grad_norm(1.0);
        opt.step(&mut store, &grads);
        // After clipping, the first Adam step is still ≈ lr in magnitude.
        let moved = 1000.0 - store.get(id).get(0, 0);
        assert!(moved > 0.0 && moved < 0.2, "moved {moved}");
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.002);
        assert_eq!(opt.learning_rate(), 0.002);
    }

    #[test]
    fn adam_on_a_split_parameter_matches_the_scalar_loop_bitwise() {
        use crate::matrix::tests::{assert_same_bits, scrambled};
        let (rows, cols) = (1113, 256);
        let mut store = ParamStore::new();
        let id = store.add("w", scrambled(rows, cols, 6));
        let mut opt = Adam::new(0.01).with_weight_decay(0.014);
        let mut theta = store.get(id).as_slice().to_vec();
        let (mut m, mut v) = (vec![0.0f32; theta.len()], vec![0.0f32; theta.len()]);
        for t in 1..=2 {
            let mut tape = Tape::new(&store);
            let w = tape.param(id);
            let loss = tape.sum_squares(w); // g = 2w
            let grads = tape.backward(loss);
            let g = grads.get(id).unwrap().as_slice().to_vec();
            opt.step(&mut store, &grads);
            let (bc1, bc2) = (1.0 - 0.9f32.powi(t), 1.0 - 0.999f32.powi(t));
            for i in 0..theta.len() {
                let gi = g[i] * 1.0 + 0.014 * theta[i];
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * gi;
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * gi * gi;
                theta[i] -= 0.01 * (m[i] / bc1) / ((v[i] / bc2).sqrt() + 1e-8);
            }
            assert_same_bits(store.get(id).as_slice(), theta.iter().copied(), "step");
        }
    }
}
