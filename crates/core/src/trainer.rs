//! The training loop: Adam + weighted multi-label loss over shuffled
//! mini-batches of prescriptions (§IV-E).
//!
//! One path trains: every tape and gradient buffer comes from a
//! step-scoped pool. The unpooled path survives only under
//! `#[cfg(test)]`, as the oracle that pooling changes no bit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use smgcn_data::{herb_frequencies, herb_loss_weights, Corpus};
use smgcn_tensor::optim::Adam;
use smgcn_tensor::{BufferPool, Tape};

use crate::batch::{epoch_batches, make_batch};
use crate::config::TrainConfig;
use crate::embedding::ForwardCtx;
use crate::loss::attach_loss;
use crate::model::Recommender;

/// Per-epoch phase timings (microseconds, summed over the epoch's
/// batches), delivered to the observer installed with
/// [`set_epoch_observer`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochPhases {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Batch selection + batch assembly.
    pub prep_us: u64,
    /// Forward pass + loss attachment.
    pub forward_us: u64,
    /// Backward pass (gradient computation + tape recycling).
    pub backward_us: u64,
    /// Adam step (+ gradient-buffer recycling).
    pub step_us: u64,
}

/// The epoch-phase observer callback type.
pub type EpochObserver = Arc<dyn Fn(&EpochPhases) + Send + Sync>;

static OBSERVER_ENABLED: AtomicBool = AtomicBool::new(false);
static OBSERVER: Mutex<Option<EpochObserver>> = Mutex::new(None);

/// Installs (or with `None` removes) a process-wide observer that
/// receives per-epoch phase timings from every training run.
///
/// Timing is strictly zero-cost when no observer is installed: the hot
/// loop checks one relaxed atomic per run and takes no `Instant::now`
/// readings. The timers never touch the RNG or the computation itself,
/// so observed and unobserved runs stay bit-identical. The hook is
/// process-global — concurrent observed trainings share it, so install
/// a callback that tolerates interleaved runs (e.g. histogram records).
/// To observe exactly one run, hand the observer to that run instead
/// ([`train_until`]): a run given its own observer never sees this one.
pub fn set_epoch_observer(observer: Option<EpochObserver>) {
    let mut slot = OBSERVER.lock().expect("epoch observer lock");
    OBSERVER_ENABLED.store(observer.is_some(), Ordering::SeqCst);
    *slot = observer;
}

/// Phase stopwatch: every `lap` adds the time since the previous lap to
/// an accumulator. Disabled, it never reads the clock.
struct PhaseTimer {
    last: Option<Instant>,
}

impl PhaseTimer {
    fn start(enabled: bool) -> Self {
        Self {
            last: enabled.then(Instant::now),
        }
    }

    fn lap(&mut self, acc: &mut u64) {
        if let Some(last) = self.last {
            let now = Instant::now();
            *acc += now.duration_since(last).as_micros() as u64;
            self.last = Some(now);
        }
    }
}

/// Per-epoch training diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean batch loss.
    pub mean_loss: f32,
    /// Mean global gradient norm across batches.
    pub mean_grad_norm: f32,
}

/// The complete loss trajectory of a run.
#[derive(Clone, Debug, Default)]
pub struct TrainingHistory {
    /// One entry per epoch.
    pub epochs: Vec<EpochStats>,
}

impl TrainingHistory {
    /// Final epoch's mean loss (NaN when never trained).
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map_or(f32::NAN, |e| e.mean_loss)
    }

    /// True when the loss decreased from the first to the last epoch.
    pub fn improved(&self) -> bool {
        match (self.epochs.first(), self.epochs.last()) {
            (Some(a), Some(b)) => b.mean_loss < a.mean_loss,
            _ => false,
        }
    }
}

/// Trains `model` on `train` with the paper's optimisation setup, invoking
/// `on_epoch` after each epoch (for eval hooks / progress reporting).
///
/// The hot loop draws every tape and gradient buffer from a step-scoped
/// [`BufferPool`]: after the first step has populated the pool, steady-
/// state steps perform no heap allocation for tensor data. Pooling is
/// bit-for-bit neutral: this module's tests run the identical
/// computation without the pool (`train_unpooled`) and assert equal
/// histories and parameters.
pub fn train_with_callback(
    model: &mut Recommender,
    train: &Corpus,
    cfg: &TrainConfig,
    mut on_epoch: impl FnMut(&EpochStats, &Recommender),
) -> TrainingHistory {
    train_impl(model, train, cfg, true, None, |stats, model| {
        on_epoch(stats, model);
        false
    })
}

/// Trains without a callback.
pub fn train(model: &mut Recommender, train: &Corpus, cfg: &TrainConfig) -> TrainingHistory {
    train_with_callback(model, train, cfg, |_, _| {})
}

/// Trains until `stop` returns `true` (checked after every epoch) or the
/// `cfg.epochs` budget runs out, whichever comes first.
///
/// This is the warm-start fine-tuning entry point: a model resumed from a
/// checkpoint starts near its plateau, so online refreshes give a small
/// epoch budget and stop as soon as the loss reaches a target instead of
/// paying the full cold-training schedule. Adam's state (its moments)
/// is fresh, exactly as in a cold run — determinism is per-call.
///
/// `observer`, when given, receives this run's [`EpochPhases`] and only
/// this run's: it replaces the process-wide [`set_epoch_observer`] hook
/// for the call, so concurrent refreshes cannot see each other's epochs.
pub fn train_until(
    model: &mut Recommender,
    train: &Corpus,
    cfg: &TrainConfig,
    observer: Option<&EpochObserver>,
    stop: impl FnMut(&EpochStats, &Recommender) -> bool,
) -> TrainingHistory {
    train_impl(model, train, cfg, true, observer, stop)
}

/// Reference training path that allocates fresh buffers for every tape op
/// (the pre-pooling behavior): the oracle of
/// `pooled_training_is_bit_identical_to_unpooled`, which holds it to a
/// bit-identical [`TrainingHistory`] and parameters against [`train`].
#[cfg(test)]
pub(crate) fn train_unpooled(
    model: &mut Recommender,
    train: &Corpus,
    cfg: &TrainConfig,
) -> TrainingHistory {
    train_impl(model, train, cfg, false, None, |_, _| false)
}

fn train_impl(
    model: &mut Recommender,
    train: &Corpus,
    cfg: &TrainConfig,
    pooled: bool,
    observer: Option<&EpochObserver>,
    mut on_epoch: impl FnMut(&EpochStats, &Recommender) -> bool,
) -> TrainingHistory {
    assert!(!train.is_empty(), "train: empty training corpus");
    // Eq. 15 imbalance weights from *training* herb frequencies (or flat
    // weights for the loss-weighting ablation).
    let weights = if cfg.weighted_labels {
        Arc::new(herb_loss_weights(&herb_frequencies(train)))
    } else {
        Arc::new(vec![1.0f32; train.n_herbs()])
    };
    // Eq. 13's λ‖Θ‖² has gradient 2λΘ — realised as weight decay.
    let mut opt = Adam::new(cfg.learning_rate).with_weight_decay(2.0 * cfg.l2_lambda);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let prescriptions = train.prescriptions();
    let n_symptoms = train.n_symptoms();
    let n_herbs = train.n_herbs();
    let mut history = TrainingHistory::default();
    let pool = BufferPool::new();
    // The run's own observer, else a snapshot of the process-wide one,
    // taken once per run: the hot loop pays one branch per phase when
    // observing and nothing (no clock reads) otherwise.
    let observer = match observer {
        Some(own) => Some(Arc::clone(own)),
        None if OBSERVER_ENABLED.load(Ordering::Relaxed) => {
            OBSERVER.lock().expect("epoch observer lock").clone()
        }
        None => None,
    };
    let observing = observer.is_some();

    for epoch in 0..cfg.epochs {
        let mut loss_sum = 0.0f64;
        let mut grad_sum = 0.0f64;
        let mut phases = EpochPhases {
            epoch,
            ..EpochPhases::default()
        };
        let batches = epoch_batches(prescriptions.len(), cfg.batch_size, &mut rng);
        let n_batches = batches.len();
        for indices in batches {
            let mut timer = PhaseTimer::start(observing);
            let selected: Vec<&smgcn_data::Prescription> =
                indices.iter().map(|&i| &prescriptions[i]).collect();
            let batch = make_batch(&selected, n_symptoms);
            timer.lap(&mut phases.prep_us);
            let grads = {
                let mut tape = if pooled {
                    Tape::with_pool(model.store(), &pool)
                } else {
                    Tape::new(model.store())
                };
                let mut ctx = ForwardCtx::training(model.dropout(), &mut rng);
                let scores = model.forward_scores(&mut tape, &batch.set_pool, &mut ctx);
                let loss = attach_loss(
                    &mut tape, scores, &batch, cfg.loss, &weights, n_herbs, ctx.rng,
                );
                loss_sum += tape.value(loss).get(0, 0) as f64;
                timer.lap(&mut phases.forward_us);
                let grads = tape.backward(loss);
                // Hand the tape's node buffers back to the pool for the
                // next step.
                tape.recycle();
                timer.lap(&mut phases.backward_us);
                grads
            };
            grad_sum += grads.l2_norm() as f64;
            opt.step(model.store_mut(), &grads);
            if pooled {
                grads.recycle_into(&pool);
            }
            timer.lap(&mut phases.step_us);
        }
        if let Some(observer) = &observer {
            observer(&phases);
        }
        let stats = EpochStats {
            epoch,
            mean_loss: (loss_sum / n_batches as f64) as f32,
            mean_grad_norm: (grad_sum / n_batches as f64) as f32,
        };
        history.epochs.push(stats);
        if on_epoch(&stats, model) {
            break;
        }
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LossKind, ModelConfig};
    use crate::model::Recommender;
    use smgcn_data::{GeneratorConfig, SyndromeModel};
    use smgcn_graph::{GraphOperators, SynergyThresholds};

    fn tiny_setup() -> (Corpus, GraphOperators) {
        let corpus = SyndromeModel::new(GeneratorConfig::tiny_scale()).generate();
        let ops = GraphOperators::from_records(
            corpus.records(),
            corpus.n_symptoms(),
            corpus.n_herbs(),
            SynergyThresholds { x_s: 1, x_h: 1 },
        );
        (corpus, ops)
    }

    fn tiny_model_cfg() -> ModelConfig {
        ModelConfig {
            embedding_dim: 16,
            layer_dims: vec![16, 24],
            dropout: 0.0,
            use_sge: true,
            use_si_mlp: true,
        }
    }

    #[test]
    fn loss_decreases_on_tiny_corpus() {
        let (corpus, ops) = tiny_setup();
        let mut model = Recommender::smgcn(&ops, &tiny_model_cfg(), 1);
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 64,
            learning_rate: 5e-3,
            l2_lambda: 1e-4,
            loss: LossKind::MultiLabel,
            weighted_labels: true,
            seed: 2,
        };
        let history = train(&mut model, &corpus, &cfg);
        assert_eq!(history.epochs.len(), 5);
        assert!(
            history.improved(),
            "loss must decrease: {:?}",
            history.epochs
        );
        assert!(model.store().all_finite(), "parameters must stay finite");
    }

    #[test]
    fn bpr_training_also_decreases() {
        let (corpus, ops) = tiny_setup();
        let mut model = Recommender::smgcn(&ops, &tiny_model_cfg(), 1);
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 64,
            learning_rate: 5e-3,
            l2_lambda: 1e-4,
            loss: LossKind::Bpr,
            weighted_labels: true,
            seed: 2,
        };
        let history = train(&mut model, &corpus, &cfg);
        assert!(history.improved(), "{:?}", history.epochs);
    }

    #[test]
    fn training_is_seed_deterministic() {
        let (corpus, ops) = tiny_setup();
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 64,
            learning_rate: 1e-3,
            l2_lambda: 1e-4,
            loss: LossKind::MultiLabel,
            weighted_labels: true,
            seed: 3,
        };
        let run = || {
            let mut model = Recommender::smgcn(&ops, &tiny_model_cfg(), 1);
            train(&mut model, &corpus, &cfg).final_loss()
        };
        assert_eq!(run(), run());
    }

    /// The bits of a short seeded run, recorded: what "training stays
    /// bit-identical" is measured against when a kernel changes under
    /// it. Every dense product and SpMM is one accumulator per output
    /// walking the reduction ascending, `mul` then `add`, on every
    /// tier, host and thread count, and the activation is plain
    /// arithmetic too (`smgcn_tensor::tape::tanh`), so nothing in the
    /// forward or backward pass depends on the host's libm. Recorded once
    /// before the training kernels moved to explicit SIMD tiles (they
    /// left it untouched) and once more when `tanh` stopped calling
    /// libm, which moved the parameters and not the rounded loss. This
    /// tiny corpus's bipartite operators and `HH` (59% and 40% stored)
    /// run as dense GEMMs through `SharedCsr`'s dense form, so the pin
    /// holds that path to the CSR kernel's bits too.
    #[test]
    fn short_seeded_run_is_pinned_to_the_bit() {
        let (corpus, ops) = tiny_setup();
        let mut model_cfg = tiny_model_cfg();
        model_cfg.dropout = 0.3;
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 64,
            learning_rate: 5e-3,
            l2_lambda: 1e-4,
            loss: LossKind::MultiLabel,
            weighted_labels: true,
            seed: 9,
        };
        let mut model = Recommender::smgcn(&ops, &model_cfg, 5);
        let final_loss = train(&mut model, &corpus, &cfg).final_loss();
        // FNV-1a over every parameter's bits, in registration order.
        let checksum = model
            .store()
            .iter()
            .flat_map(|(_, _, p)| p.as_slice())
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(
            (final_loss.to_bits(), checksum),
            (0x4190_8b05, 0xfd86_6c10_5d3d_eced),
            "final_loss {final_loss} = {:#x}, parameters {checksum:#x}",
            final_loss.to_bits()
        );
    }

    #[test]
    fn pooled_training_is_bit_identical_to_unpooled() {
        let (corpus, ops) = tiny_setup();
        // Positive dropout so pooled dropout masks are exercised too.
        let mut model_cfg = tiny_model_cfg();
        model_cfg.dropout = 0.3;
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 64,
            learning_rate: 5e-3,
            l2_lambda: 1e-4,
            loss: LossKind::MultiLabel,
            weighted_labels: true,
            seed: 9,
        };
        let mut pooled = Recommender::smgcn(&ops, &model_cfg, 5);
        let mut unpooled = Recommender::smgcn(&ops, &model_cfg, 5);
        let hp = train(&mut pooled, &corpus, &cfg);
        let hu = train_unpooled(&mut unpooled, &corpus, &cfg);
        assert_eq!(hp.epochs.len(), hu.epochs.len());
        for (a, b) in hp.epochs.iter().zip(&hu.epochs) {
            assert_eq!(
                a.mean_loss.to_bits(),
                b.mean_loss.to_bits(),
                "epoch {} loss diverged: {} vs {}",
                a.epoch,
                a.mean_loss,
                b.mean_loss
            );
            assert_eq!(
                a.mean_grad_norm.to_bits(),
                b.mean_grad_norm.to_bits(),
                "epoch {} grad norm diverged",
                a.epoch
            );
        }
        for ((_, name, pa), (_, _, pb)) in pooled.store().iter().zip(unpooled.store().iter()) {
            for (i, (x, y)) in pa.as_slice().iter().zip(pb.as_slice()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "param {name} diverged at {i}");
            }
        }
    }

    #[test]
    fn train_until_stops_early() {
        let (corpus, ops) = tiny_setup();
        let mut model = Recommender::smgcn(&ops, &tiny_model_cfg(), 1);
        let cfg = TrainConfig {
            epochs: 50,
            batch_size: 64,
            learning_rate: 5e-3,
            l2_lambda: 1e-4,
            loss: LossKind::MultiLabel,
            weighted_labels: true,
            seed: 2,
        };
        let history = train_until(&mut model, &corpus, &cfg, None, |stats, _| stats.epoch >= 2);
        assert_eq!(history.epochs.len(), 3, "stops right after the signal");
    }

    #[test]
    fn warm_start_resumes_and_supports_grown_vocab() {
        let (corpus, ops) = tiny_setup();
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 64,
            learning_rate: 5e-3,
            l2_lambda: 1e-4,
            loss: LossKind::MultiLabel,
            weighted_labels: true,
            seed: 2,
        };
        let mut base = Recommender::smgcn(&ops, &tiny_model_cfg(), 1);
        train(&mut base, &corpus, &cfg);

        // Same-shape warm start restores every parameter verbatim.
        let resumed =
            Recommender::warm_start_smgcn(&ops, &tiny_model_cfg(), 1, base.store()).unwrap();
        for ((_, name, a), (_, _, b)) in resumed.store().iter().zip(base.store().iter()) {
            assert_eq!(a.as_slice(), b.as_slice(), "param {name} must resume");
        }

        // Grown vocabulary: two extra symptoms, one extra herb.
        let grown_records: Vec<(Vec<u32>, Vec<u32>)> = corpus
            .records()
            .map(|(s, h)| (s.to_vec(), h.to_vec()))
            .chain(std::iter::once((
                vec![corpus.n_symptoms() as u32, corpus.n_symptoms() as u32 + 1],
                vec![corpus.n_herbs() as u32],
            )))
            .collect();
        let grown_ops = smgcn_graph::GraphOperators::from_records(
            grown_records
                .iter()
                .map(|(s, h)| (s.as_slice(), h.as_slice())),
            corpus.n_symptoms() + 2,
            corpus.n_herbs() + 1,
            SynergyThresholds { x_s: 1, x_h: 1 },
        );
        let grown =
            Recommender::warm_start_smgcn(&grown_ops, &tiny_model_cfg(), 1, base.store()).unwrap();
        assert_eq!(grown.n_symptoms(), corpus.n_symptoms() + 2);
        assert_eq!(grown.n_herbs(), corpus.n_herbs() + 1);
        // Scores over the old vocabulary region stay finite and the model
        // can immediately rank over the grown herb set.
        let ranking = grown.recommend(&[0, 1], corpus.n_herbs() + 1);
        assert_eq!(ranking.len(), corpus.n_herbs() + 1);
        assert!(grown.store().all_finite());
    }

    #[test]
    fn epoch_observer_times_phases_without_perturbing_training() {
        let (corpus, ops) = tiny_setup();
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 64,
            learning_rate: 5e-3,
            l2_lambda: 1e-4,
            loss: LossKind::MultiLabel,
            weighted_labels: true,
            seed: 7,
        };
        let run = || {
            let mut model = Recommender::smgcn(&ops, &tiny_model_cfg(), 1);
            train(&mut model, &corpus, &cfg).final_loss()
        };
        let baseline = run();
        let seen: Arc<Mutex<Vec<EpochPhases>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        set_epoch_observer(Some(Arc::new(move |p: &EpochPhases| {
            sink.lock().unwrap().push(*p);
        })));
        let observed = run();
        set_epoch_observer(None);
        assert_eq!(
            observed.to_bits(),
            baseline.to_bits(),
            "observing must not change the computation"
        );
        let seen = seen.lock().unwrap();
        // The hook is process-global, so concurrently-running tests may
        // contribute entries too; this run's two epochs must be there.
        for epoch in 0..2 {
            assert!(
                seen.iter()
                    .any(|p| p.epoch == epoch && p.forward_us > 0 && p.backward_us > 0),
                "epoch {epoch} phases missing or empty: {seen:?}"
            );
        }
    }

    #[test]
    fn callback_sees_every_epoch() {
        let (corpus, ops) = tiny_setup();
        let mut model = Recommender::smgcn(&ops, &tiny_model_cfg(), 1);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 128,
            learning_rate: 1e-3,
            l2_lambda: 0.0,
            loss: LossKind::MultiLabel,
            weighted_labels: true,
            seed: 4,
        };
        let mut seen = Vec::new();
        train_with_callback(&mut model, &corpus, &cfg, |stats, m| {
            seen.push(stats.epoch);
            assert!(m.store().all_finite());
        });
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
