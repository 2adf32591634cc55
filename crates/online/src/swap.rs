//! The refresh orchestration: ingest → delta → fine-tune → freeze →
//! publish.
//!
//! [`OnlinePipeline`] owns every moving part of the loop — the
//! [`Ingestor`], the [`IncrementalGraphs`], the live [`Recommender`]
//! parameters and the serve-side [`ModelSlot`] — and turns an accepted
//! batch of prescriptions into a new model generation under live
//! traffic:
//!
//! 1. drain the ingest batch and widen the vocabularies;
//! 2. apply the co-occurrence deltas (O(batch), lazily renormalized);
//! 3. warm-start the recommender on the delta'd operators (trained rows
//!    resume verbatim; appended entities keep their fresh init) and
//!    fine-tune within the refresh budget;
//! 4. freeze the fine-tuned model into serving form;
//! 5. publish it into the [`ModelSlot`]: in-flight requests finish on
//!    the old generation, the batcher picks the new one up at its next
//!    drain, and generation-tagged cache entries go stale lazily.
//!
//! The slot can be shared with a running `smgcn-serve` server
//! (`Server::bind_slot`), which is exactly how `examples/online_clinic.rs`
//! wires the walkthrough.

use std::sync::Arc;
use std::time::Instant;

use smgcn_core::{ModelConfig, Recommender, TrainConfig};
use smgcn_data::Corpus;
use smgcn_graph::SynergyThresholds;
use smgcn_obs::{Counter, EventJournal, Gauge, LatencyHistogram, Registry};
use smgcn_serve::{FrozenModel, ModelSlot, ServingVocab};

use crate::delta::IncrementalGraphs;
use crate::finetune::{fine_tune, FineTuneConfig};
use crate::ingest::{IngestError, IngestOutcome, Ingestor};

/// Everything a refresh needs to rebuild and resume the model.
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// Synergy thresholds used for every (re)build of the graphs.
    pub thresholds: SynergyThresholds,
    /// Architecture of the live model (must match the trained one).
    pub model: ModelConfig,
    /// Optimisation hyperparameters inherited by fine-tune runs.
    pub train: TrainConfig,
    /// Refresh epoch budget and stopping rule.
    pub finetune: FineTuneConfig,
    /// Seed for warm-start initialisation of newly-appended entity rows.
    pub seed: u64,
}

/// What one [`OnlinePipeline::refresh`] did, with stage timings.
#[derive(Clone, Debug)]
pub struct RefreshReport {
    /// Records folded in by this refresh.
    pub appended: usize,
    /// The generation number published (unchanged if `appended == 0`).
    pub generation: u64,
    /// Fine-tune epochs actually run.
    pub epochs_run: usize,
    /// Final fine-tune loss (NaN when nothing ran).
    pub final_loss: f32,
    /// Whether the fine-tune target loss was reached.
    pub reached_target: bool,
    /// Delta application + lazy renormalization, milliseconds.
    pub delta_ms: f64,
    /// Warm-start + fine-tune, milliseconds.
    pub finetune_ms: f64,
    /// Freeze (one full forward pass), milliseconds.
    pub freeze_ms: f64,
    /// Slot publish, milliseconds.
    pub publish_ms: f64,
    /// End-to-end refresh wall time, milliseconds.
    pub total_ms: f64,
}

/// Errors from one refresh pass.
#[derive(Debug)]
pub enum RefreshError {
    /// WAL housekeeping failed.
    Ingest(IngestError),
    /// The trained parameters no longer fit the configured architecture.
    WarmStart(smgcn_tensor::checkpoint::CheckpointError),
}

impl std::fmt::Display for RefreshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefreshError::Ingest(e) => write!(f, "refresh ingest error: {e}"),
            RefreshError::WarmStart(e) => {
                write!(f, "warm start failed (architecture drift?): {e}")
            }
        }
    }
}

impl std::error::Error for RefreshError {}

impl From<IngestError> for RefreshError {
    fn from(e: IngestError) -> Self {
        RefreshError::Ingest(e)
    }
}

/// Metric/event handles of an observed pipeline (see
/// [`OnlinePipeline::observe`]).
struct OnlineObs {
    events: Arc<EventJournal>,
    refreshes: Counter,
    ingested: Counter,
    wal_truncations: Counter,
    generation: Gauge,
    delta_us: Arc<LatencyHistogram>,
    finetune_us: Arc<LatencyHistogram>,
    freeze_us: Arc<LatencyHistogram>,
    publish_us: Arc<LatencyHistogram>,
    epoch_prep_us: Arc<LatencyHistogram>,
    epoch_forward_us: Arc<LatencyHistogram>,
    epoch_backward_us: Arc<LatencyHistogram>,
    epoch_step_us: Arc<LatencyHistogram>,
}

/// The closed data→graph→model→serve loop.
pub struct OnlinePipeline {
    ingestor: Ingestor,
    graphs: IncrementalGraphs,
    model: Recommender,
    config: OnlineConfig,
    slot: Arc<ModelSlot>,
    obs: Option<OnlineObs>,
}

impl OnlinePipeline {
    /// Assembles the loop around an already-trained model and its corpus.
    /// The initial frozen model becomes generation 0 of the slot.
    pub fn new(corpus: Corpus, trained: Recommender, config: OnlineConfig) -> Self {
        Self::from_ingestor(Ingestor::new(corpus), trained, config)
    }

    /// Attaches a WAL to the ingestor (replaying any existing log; the
    /// replayed records become the first refresh's batch).
    pub fn with_wal(
        corpus: Corpus,
        trained: Recommender,
        config: OnlineConfig,
        wal_path: impl AsRef<std::path::Path>,
    ) -> Result<Self, IngestError> {
        Ok(Self::from_ingestor(
            Ingestor::with_wal(corpus, wal_path)?,
            trained,
            config,
        ))
    }

    /// The shared constructor. The ingestor may already hold replayed
    /// (pending) records — those are excluded from the initial graphs and
    /// generation-0 vocab, which describe exactly what `trained` was
    /// trained on; the first [`OnlinePipeline::refresh`] folds them in.
    fn from_ingestor(ingestor: Ingestor, trained: Recommender, config: OnlineConfig) -> Self {
        let corpus = ingestor.corpus();
        let base_len = corpus.len() - ingestor.pending().len();
        let (n_symptoms, n_herbs) = (trained.n_symptoms(), trained.n_herbs());
        let graphs = IncrementalGraphs::from_records(
            corpus.prescriptions()[..base_len]
                .iter()
                .map(smgcn_data::Prescription::as_record),
            n_symptoms,
            n_herbs,
            config.thresholds,
        );
        let frozen = FrozenModel::from_recommender(&trained);
        let slot = Arc::new(ModelSlot::new(
            frozen,
            serving_vocab(corpus, n_symptoms, n_herbs),
        ));
        Self {
            ingestor,
            graphs,
            model: trained,
            config,
            slot,
            obs: None,
        }
    }

    /// Attaches observability: refresh stage durations, per-epoch
    /// fine-tune phase timings, ingest/refresh counters and the live
    /// generation gauge land in `registry` (all under `online_*`), and
    /// refresh/swap/WAL events in `events`. Share the registry and
    /// journal with a co-located `Server` (its `registry()`/`events()`
    /// accessors) and a single `{"op":"metrics"}` snapshot covers both
    /// serving and the online loop.
    pub fn observe(&mut self, registry: &Registry, events: Arc<EventJournal>) {
        let obs = OnlineObs {
            refreshes: registry.counter("online_refreshes_total"),
            ingested: registry.counter("online_ingested_total"),
            wal_truncations: registry.counter("online_wal_truncations_total"),
            generation: registry.gauge("online_generation"),
            delta_us: registry.histogram("online_delta_us"),
            finetune_us: registry.histogram("online_finetune_us"),
            freeze_us: registry.histogram("online_freeze_us"),
            publish_us: registry.histogram("online_publish_us"),
            epoch_prep_us: registry.histogram("online_epoch_prep_us"),
            epoch_forward_us: registry.histogram("online_epoch_forward_us"),
            epoch_backward_us: registry.histogram("online_epoch_backward_us"),
            epoch_step_us: registry.histogram("online_epoch_step_us"),
            events,
        };
        obs.generation.set(self.slot.generation());
        // Surface a WAL tail recovery that happened at construction:
        // replay truncated damage away *before* observability attached,
        // so the journal entry is written here, at the first chance.
        if let Some(recovery) = self.ingestor.wal_recovery() {
            registry.counter("online_wal_recoveries_total").inc();
            obs.events.record("wal_recovered", recovery.to_string());
        }
        self.obs = Some(obs);
    }

    /// The slot to hand to `Server::bind_slot` — generations published by
    /// [`OnlinePipeline::refresh`] go live on that server without a
    /// restart.
    pub fn slot(&self) -> Arc<ModelSlot> {
        Arc::clone(&self.slot)
    }

    /// Serialises the current generation (model + vocabulary) as a
    /// publish artifact — the blob a cluster coordinator rolls across
    /// remote replicas via `{"op":"publish"}` after a local refresh, so
    /// the fleet converges on exactly what this pipeline is serving.
    pub fn publish_artifact(&self) -> Vec<u8> {
        let generation = self.slot.load();
        smgcn_serve::artifact::encode(&generation.model, &generation.vocab)
    }

    /// The evolving corpus.
    pub fn corpus(&self) -> &Corpus {
        self.ingestor.corpus()
    }

    /// The ingestor (stats, pending batch size).
    pub fn ingestor(&self) -> &Ingestor {
        &self.ingestor
    }

    /// The live (fine-tuned) full model.
    pub fn model(&self) -> &Recommender {
        &self.model
    }

    /// Appends one prescription by entity names (unseen names grow the
    /// vocabularies when `allow_new`).
    pub fn ingest_named(
        &mut self,
        symptoms: &[impl AsRef<str>],
        herbs: &[impl AsRef<str>],
        allow_new: bool,
    ) -> Result<IngestOutcome, IngestError> {
        let outcome = self.ingestor.append_named(symptoms, herbs, allow_new);
        self.note_ingest(&outcome);
        outcome
    }

    /// Appends one prescription by ids.
    pub fn ingest_ids(
        &mut self,
        symptoms: Vec<u32>,
        herbs: Vec<u32>,
    ) -> Result<IngestOutcome, IngestError> {
        let outcome = self.ingestor.append_ids(symptoms, herbs);
        self.note_ingest(&outcome);
        outcome
    }

    fn note_ingest(&self, outcome: &Result<IngestOutcome, IngestError>) {
        if let (Some(obs), Ok(IngestOutcome::Accepted)) = (&self.obs, outcome) {
            obs.ingested.inc();
        }
    }

    /// Truncates the ingest WAL. Call **after** the refreshed corpus and
    /// checkpoint have been durably written (`refresh` deliberately does
    /// not truncate: if persisting the outputs fails, the log must still
    /// cover the acknowledged records).
    pub fn truncate_wal(&mut self) -> Result<(), IngestError> {
        self.ingestor.truncate_wal()?;
        if let Some(obs) = &self.obs {
            obs.wal_truncations.inc();
            obs.events
                .record("wal_truncate", "ingest WAL truncated after durable persist");
        }
        Ok(())
    }

    /// Folds the pending batch into graphs and model and publishes a new
    /// generation. A no-op (no publish) when nothing is pending.
    ///
    /// On a [`RefreshError::WarmStart`] failure the batch is re-queued
    /// and the graph statistics rolled back, so nothing is lost and a
    /// later retry (e.g. after fixing the configured architecture) sees
    /// the same pending records. The WAL is **not** touched here — see
    /// [`OnlinePipeline::truncate_wal`].
    pub fn refresh(&mut self) -> Result<RefreshReport, RefreshError> {
        let t_total = Instant::now();
        let batch = self.ingestor.take_batch();
        if batch.is_empty() {
            return Ok(RefreshReport {
                appended: 0,
                generation: self.slot.generation(),
                epochs_run: 0,
                final_loss: f32::NAN,
                reached_target: false,
                delta_ms: 0.0,
                finetune_ms: 0.0,
                freeze_ms: 0.0,
                publish_ms: 0.0,
                total_ms: t_total.elapsed().as_secs_f64() * 1e3,
            });
        }
        let corpus = self.ingestor.corpus();
        let (n_symptoms, n_herbs) = (corpus.n_symptoms(), corpus.n_herbs());
        let pre_batch_sizes = (self.graphs.n_symptoms(), self.graphs.n_herbs());

        let t_delta = Instant::now();
        self.graphs.apply_batch(&batch, n_symptoms, n_herbs);
        let ops = self.graphs.operators();
        let delta_ms = t_delta.elapsed().as_secs_f64() * 1e3;

        let t_ft = Instant::now();
        // Route per-epoch fine-tune phase timings into the registry
        // histograms for the duration of this refresh (the trainer hook
        // is zero-cost when the pipeline is not observed). The observer
        // belongs to this refresh's fine-tune call alone, so concurrent
        // pipelines never record each other's epochs.
        let observer: Option<smgcn_core::EpochObserver> = self.obs.as_ref().map(|obs| {
            let prep = Arc::clone(&obs.epoch_prep_us);
            let fwd = Arc::clone(&obs.epoch_forward_us);
            let bwd = Arc::clone(&obs.epoch_backward_us);
            let step = Arc::clone(&obs.epoch_step_us);
            Arc::new(move |p: &smgcn_core::EpochPhases| {
                prep.record(p.prep_us);
                fwd.record(p.forward_us);
                bwd.record(p.backward_us);
                step.record(p.step_us);
            }) as smgcn_core::EpochObserver
        });
        let mut resumed = match Recommender::warm_start_smgcn(
            ops,
            &self.config.model,
            self.config.seed,
            self.model.store(),
        ) {
            Ok(model) => model,
            Err(e) => {
                if let Some(obs) = &self.obs {
                    obs.events
                        .record("refresh_failed", format!("warm start: {e}"));
                }
                // Roll back so the batch is not stranded: the pending
                // records go back on the queue and the graph statistics
                // are rebuilt without them (a retry would otherwise
                // double-count the already-applied deltas). `pending` is
                // always a trailing suffix of the corpus, so the prefix
                // is exactly the pre-batch state.
                let corpus = self.ingestor.corpus();
                let keep = corpus.len() - batch.len();
                self.graphs = IncrementalGraphs::from_records(
                    corpus.prescriptions()[..keep]
                        .iter()
                        .map(smgcn_data::Prescription::as_record),
                    pre_batch_sizes.0,
                    pre_batch_sizes.1,
                    self.config.thresholds,
                );
                self.ingestor.requeue(batch);
                return Err(RefreshError::WarmStart(e));
            }
        };
        let report = fine_tune(
            &mut resumed,
            self.ingestor.corpus(),
            &self.config.train,
            &self.config.finetune,
            observer.as_ref(),
        );
        let finetune_ms = t_ft.elapsed().as_secs_f64() * 1e3;

        let t_freeze = Instant::now();
        let frozen = FrozenModel::from_recommender(&resumed);
        let freeze_ms = t_freeze.elapsed().as_secs_f64() * 1e3;

        let t_publish = Instant::now();
        let generation = self.slot.publish(
            frozen,
            serving_vocab(self.ingestor.corpus(), n_symptoms, n_herbs),
        );
        let publish_ms = t_publish.elapsed().as_secs_f64() * 1e3;

        self.model = resumed;
        if let Some(obs) = &self.obs {
            obs.refreshes.inc();
            obs.generation.set(generation);
            obs.delta_us.record((delta_ms * 1e3) as u64);
            obs.finetune_us.record((finetune_ms * 1e3) as u64);
            obs.freeze_us.record((freeze_ms * 1e3) as u64);
            obs.publish_us.record((publish_ms * 1e3) as u64);
            obs.events.record(
                "refresh",
                format!(
                    "generation {generation}: {} records folded in, {} epochs",
                    batch.len(),
                    report.epochs_run
                ),
            );
            obs.events
                .record("swap", format!("generation {generation} live in slot"));
        }
        Ok(RefreshReport {
            appended: batch.len(),
            generation,
            epochs_run: report.epochs_run,
            final_loss: report.history.final_loss(),
            reached_target: report.reached_target,
            delta_ms,
            finetune_ms,
            freeze_ms,
            publish_ms,
            total_ms: t_total.elapsed().as_secs_f64() * 1e3,
        })
    }
}

/// Serving vocab: the first `n_symptoms`/`n_herbs` names of the corpus
/// vocabularies — i.e. exactly the entities the published model covers.
/// (The corpus vocab can run ahead of a generation when records were
/// ingested but not yet refreshed.)
fn serving_vocab(corpus: &Corpus, n_symptoms: usize, n_herbs: usize) -> ServingVocab {
    ServingVocab::new(
        corpus
            .symptom_vocab()
            .iter()
            .take(n_symptoms)
            .map(|(_, n)| n.to_string())
            .collect(),
        corpus
            .herb_vocab()
            .iter()
            .take(n_herbs)
            .map(|(_, n)| n.to_string())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smgcn_core::{train, LossKind};
    use smgcn_data::{GeneratorConfig, SyndromeModel};
    use smgcn_graph::GraphOperators;

    fn pipeline() -> OnlinePipeline {
        let corpus = SyndromeModel::new(GeneratorConfig::tiny_scale()).generate();
        let thresholds = SynergyThresholds { x_s: 1, x_h: 1 };
        let ops = GraphOperators::from_records(
            corpus.records(),
            corpus.n_symptoms(),
            corpus.n_herbs(),
            thresholds,
        );
        let model_cfg = ModelConfig {
            embedding_dim: 16,
            layer_dims: vec![16],
            ..ModelConfig::smgcn()
        };
        let train_cfg = TrainConfig {
            epochs: 3,
            batch_size: 64,
            learning_rate: 5e-3,
            l2_lambda: 1e-4,
            loss: LossKind::MultiLabel,
            weighted_labels: true,
            seed: 11,
        };
        let mut model = Recommender::smgcn(&ops, &model_cfg, 3);
        train(&mut model, &corpus, &train_cfg);
        OnlinePipeline::new(
            corpus,
            model,
            OnlineConfig {
                thresholds,
                model: model_cfg,
                train: train_cfg,
                finetune: FineTuneConfig {
                    max_epochs: 2,
                    ..FineTuneConfig::default()
                },
                seed: 3,
            },
        )
    }

    #[test]
    fn failed_warm_start_requeues_batch_and_rolls_back() {
        let corpus = SyndromeModel::new(GeneratorConfig::tiny_scale()).generate();
        let thresholds = SynergyThresholds { x_s: 1, x_h: 1 };
        let ops = GraphOperators::from_records(
            corpus.records(),
            corpus.n_symptoms(),
            corpus.n_herbs(),
            thresholds,
        );
        let trained_cfg = ModelConfig {
            embedding_dim: 16,
            layer_dims: vec![16],
            ..ModelConfig::smgcn()
        };
        let model = Recommender::smgcn(&ops, &trained_cfg, 3);
        // Configure a *different* architecture: warm start must fail.
        let drifted_cfg = ModelConfig {
            layer_dims: vec![16, 24],
            ..trained_cfg
        };
        let mut p = OnlinePipeline::new(
            corpus,
            model,
            OnlineConfig {
                thresholds,
                model: drifted_cfg,
                train: TrainConfig {
                    epochs: 1,
                    batch_size: 64,
                    ..TrainConfig::smoke()
                },
                finetune: FineTuneConfig::default(),
                seed: 3,
            },
        );
        p.ingest_ids(vec![0, 1], vec![0]).unwrap();
        let err = p.refresh().unwrap_err();
        assert!(matches!(err, super::RefreshError::WarmStart(_)), "{err}");
        // Nothing is lost or published: the batch is requeued and the
        // graphs rolled back, so a retry behaves identically.
        assert_eq!(p.ingestor().pending().len(), 1, "batch must be requeued");
        assert_eq!(p.slot().generation(), 0);
        assert!(p.refresh().is_err());
        assert_eq!(p.ingestor().pending().len(), 1, "retry loses nothing");
    }

    #[test]
    fn refresh_publishes_new_generation_with_grown_vocab() {
        let mut p = pipeline();
        let slot = p.slot();
        assert_eq!(slot.generation(), 0);
        let herbs_before = p.corpus().n_herbs();

        // Nothing pending: no publish.
        let noop = p.refresh().unwrap();
        assert_eq!(noop.appended, 0);
        assert_eq!(slot.generation(), 0);

        p.ingest_ids(vec![0, 1], vec![0, 1]).unwrap();
        p.ingest_named(&["daohan (night sweat)"], &["brand-new-herb"], true)
            .unwrap();
        let report = p.refresh().unwrap();
        assert_eq!(report.appended, 2);
        assert_eq!(report.generation, 1);
        assert_eq!(report.epochs_run, 2);
        assert!(report.final_loss.is_finite());
        assert!(report.total_ms >= report.delta_ms);

        let generation = slot.load();
        assert_eq!(generation.number, 1);
        assert_eq!(
            generation.model.n_herbs(),
            herbs_before + 1,
            "the published model covers the appended herb"
        );
        assert_eq!(
            generation.vocab.herb_name((herbs_before) as u32),
            "brand-new-herb",
            "the published vocab names it"
        );
        // The appended herb is scoreable immediately.
        let scores = generation.model.score_one(&[0, 1]).unwrap();
        assert_eq!(scores.len(), herbs_before + 1);

        // A second refresh with more data advances the generation again.
        p.ingest_ids(vec![2, 3], vec![1]).unwrap();
        let second = p.refresh().unwrap();
        assert_eq!(second.generation, 2);
        assert_eq!(slot.generation(), 2);
    }

    #[test]
    fn observed_refresh_lands_metrics_and_events() {
        let registry = Registry::new();
        let events = Arc::new(EventJournal::new(64));
        let mut p = pipeline();
        p.observe(&registry, Arc::clone(&events));

        p.ingest_ids(vec![0, 1], vec![0, 1]).unwrap();
        p.ingest_named(&["daohan (night sweat)"], &["observed-herb"], true)
            .unwrap();
        // A duplicate is not "ingested".
        p.ingest_ids(vec![0, 1], vec![0, 1]).unwrap();
        p.refresh().unwrap();

        assert_eq!(registry.counter("online_refreshes_total").get(), 1);
        assert_eq!(registry.counter("online_ingested_total").get(), 2);
        assert_eq!(registry.gauge("online_generation").get(), 1);
        for stage in [
            "online_delta_us",
            "online_finetune_us",
            "online_freeze_us",
            "online_publish_us",
        ] {
            assert_eq!(
                registry.histogram(stage).snapshot().count,
                1,
                "{stage} must record once per refresh"
            );
        }
        // The fine-tune ran 2 epochs, each reporting its phase split.
        assert_eq!(
            registry
                .histogram("online_epoch_forward_us")
                .snapshot()
                .count,
            2
        );
        let kinds: Vec<String> = events.recent(16).iter().map(|e| e.kind.clone()).collect();
        assert!(kinds.contains(&"refresh".to_string()), "{kinds:?}");
        assert!(kinds.contains(&"swap".to_string()), "{kinds:?}");

        // An unobserved pipeline must leave the trainer hook uninstalled
        // afterwards (zero-cost path for everyone else).
        let mut quiet = pipeline();
        quiet.ingest_ids(vec![2, 3], vec![1]).unwrap();
        quiet.refresh().unwrap();
        assert_eq!(
            registry
                .histogram("online_epoch_forward_us")
                .snapshot()
                .count,
            2,
            "the observer must not leak into unobserved refreshes"
        );
    }

    #[test]
    fn publish_artifact_round_trips_the_live_generation() {
        let mut p = pipeline();
        p.ingest_named(&["daohan (night sweat)"], &["artifact-herb"], true)
            .unwrap();
        p.refresh().unwrap();
        let generation = p.slot().load();
        let artifact = p.publish_artifact();
        // Publishing the artifact into a fresh slot reproduces the live
        // generation exactly: scores and names both survive the round
        // trip (this is what a remote replica receives).
        let receiver = smgcn_serve::ModelSlot::new(
            smgcn_serve::FrozenModel::from_parts(
                smgcn_tensor::Matrix::filled(1, 1, 1.0),
                smgcn_tensor::Matrix::filled(1, 1, 1.0),
                None,
            )
            .unwrap(),
            smgcn_serve::ServingVocab::default(),
        );
        receiver.publish_bytes(&artifact).unwrap();
        let received = receiver.load();
        assert_eq!(
            received.model.score_one(&[0, 1]).unwrap(),
            generation.model.score_one(&[0, 1]).unwrap()
        );
        let last_herb = (received.model.n_herbs() - 1) as u32;
        assert_eq!(received.vocab.herb_name(last_herb), "artifact-herb");
        assert_eq!(received.vocab.herb_names(), generation.vocab.herb_names());
    }
}
