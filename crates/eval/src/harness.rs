//! The experiment harness: corpus preparation, the unified ranker
//! interface, and train-and-evaluate plumbing shared by the `paper`
//! driver, `smgcn train` / `smgcn eval` and the integration tests. Every
//! ranking comes from the path that serves: a neural model is frozen and
//! ranked by [`FrozenModel::rank_batch`], the other rankers select with
//! [`partial_top_k`]; no `B x H` score matrix is built.

use std::time::Instant;

use smgcn_core::prelude::*;
use smgcn_data::{
    herb_frequencies, train_test_split_fraction, Corpus, GeneratorConfig, SyndromeModel,
    PAPER_TEST_FRACTION,
};
use smgcn_graph::{BipartiteGraph, CooccurrenceCounts, GraphOperators, SynergyThresholds};
use smgcn_serve::{partial_top_k, FrozenModel};
use smgcn_topics::{HcKgetm, KgetmConfig};

use crate::metrics::{mean_metrics, RankingMetrics, PAPER_KS};
use crate::significance::per_prescription_precision;

/// The paper truncates ranked lists at 20 (§V-B).
pub const RANK_TRUNCATION: usize = 20;

/// Anything that can rank the herbs for symptom sets.
pub trait HerbRanker {
    /// Row label for report tables.
    fn label(&self) -> String;

    /// For each symptom set, the `k` most recommended herb ids, best
    /// first (ties to the lower id).
    fn rank_sets(&self, sets: &[&[u32]], k: usize) -> Vec<Vec<u32>>;
}

impl HerbRanker for FrozenModel {
    fn label(&self) -> String {
        "frozen model".to_string()
    }

    fn rank_sets(&self, sets: &[&[u32]], k: usize) -> Vec<Vec<u32>> {
        self.recommend_batch(sets, k)
            .expect("evaluation queries come from the corpus the model was built on")
    }
}

/// Every zoo model is `embed -> induce -> matmul_transb`, so all of them
/// freeze: a recommender is ranked as it would be served.
impl HerbRanker for Recommender {
    fn label(&self) -> String {
        self.name().to_string()
    }

    fn rank_sets(&self, sets: &[&[u32]], k: usize) -> Vec<Vec<u32>> {
        FrozenModel::from_recommender(self).rank_sets(sets, k)
    }
}

impl HerbRanker for HcKgetm {
    fn label(&self) -> String {
        "HC-KGETM".to_string()
    }

    fn rank_sets(&self, sets: &[&[u32]], k: usize) -> Vec<Vec<u32>> {
        sets.iter()
            .map(|set| {
                let scores: Vec<f32> = self.score_set(set).into_iter().map(|v| v as f32).collect();
                partial_top_k(&scores, k)
            })
            .collect()
    }
}

/// Frequency-only baseline: recommends globally popular herbs regardless of
/// the symptoms. Any model worth reporting must beat it.
pub struct PopularityRanker {
    scores: Vec<f32>,
}

impl PopularityRanker {
    /// Ranks herbs by training-corpus frequency.
    pub fn from_corpus(train: &Corpus) -> Self {
        Self {
            scores: herb_frequencies(train)
                .into_iter()
                .map(|c| c as f32)
                .collect(),
        }
    }
}

impl HerbRanker for PopularityRanker {
    fn label(&self) -> String {
        "Popularity".to_string()
    }

    fn rank_sets(&self, sets: &[&[u32]], k: usize) -> Vec<Vec<u32>> {
        vec![partial_top_k(&self.scores, k); sets.len()]
    }
}

/// One `rank_sets` pass over a test corpus: every prescription's top-20
/// list beside its ground-truth herbs.
fn rank_test<'a>(ranker: &dyn HerbRanker, test: &'a Corpus) -> (Vec<Vec<u32>>, Vec<&'a [u32]>) {
    assert!(!test.is_empty(), "rank_test: empty test corpus");
    let sets: Vec<&[u32]> = test.prescriptions().iter().map(|p| p.symptoms()).collect();
    let truths = test.prescriptions().iter().map(|p| p.herbs()).collect();
    (ranker.rank_sets(&sets, RANK_TRUNCATION), truths)
}

/// Evaluates a ranker on a test corpus: mean P/R/NDCG at each cutoff.
pub fn evaluate_ranker(
    ranker: &dyn HerbRanker,
    test: &Corpus,
    ks: &[usize],
) -> Vec<(usize, RankingMetrics)> {
    let (ranked, truths) = rank_test(ranker, test);
    mean_metrics(&ranked, &truths, ks)
}

/// Experiment scale: `Smoke` finishes in minutes, `Paper` matches Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced corpus (≈3k prescriptions) and dimensions.
    Smoke,
    /// Full 26,360-prescription corpus with Table III dimensions.
    Paper,
}

impl Scale {
    /// Parses `--scale smoke|paper` style arguments.
    pub fn from_arg(arg: &str) -> Option<Self> {
        match arg {
            "smoke" => Some(Self::Smoke),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }

    /// The generator configuration for this scale.
    pub fn generator(self) -> GeneratorConfig {
        match self {
            Self::Smoke => GeneratorConfig::smoke_scale(),
            Self::Paper => GeneratorConfig::paper_scale(),
        }
    }

    /// The model configuration for this scale (Table III at paper scale).
    pub fn model_config(self) -> ModelConfig {
        match self {
            Self::Smoke => ModelConfig::smgcn().smoke(),
            Self::Paper => ModelConfig::smgcn(),
        }
    }

    /// Synergy thresholds. At paper scale these are Table III's
    /// `x_s = 5, x_h = 40`; the smoke corpus is smaller, and its calibrated
    /// optimum (an interior point of the Fig. 7 sweep, like the paper's) is
    /// `x_s = 5, x_h = 30`.
    pub fn thresholds(self) -> SynergyThresholds {
        match self {
            Self::Smoke => SynergyThresholds { x_s: 5, x_h: 30 },
            Self::Paper => SynergyThresholds::default(),
        }
    }
}

/// Per-model training configuration, following the paper's protocol of
/// grid-searching each model separately (Table III). The learning rates
/// below are the grid optima *on the synthetic corpus* (the paper's exact
/// values transfer poorly because the corpus and epoch budget differ; see
/// README.md, "Reproducing the paper"). λ ratios follow Table III's ordering.
pub fn train_config_for(kind: ModelKind, scale: Scale) -> TrainConfig {
    let (epochs, batch) = match scale {
        Scale::Smoke => (60, 256),
        Scale::Paper => (30, 1024),
    };
    let (lr, l2) = match kind {
        // GC-MC's two stacked ReLUs without self-connections train slowly;
        // its grid optimum sits well above the other models'.
        ModelKind::GcMc => (1.2e-2, 1e-6),
        ModelKind::PinSage => (3e-3, 1e-4),
        ModelKind::Ngcf => (3e-3, 1e-5),
        ModelKind::HeteGcn => (3e-3, 1e-4),
        // All SMGCN variants share the full model's optimum.
        _ => (3e-3, 1e-4),
    };
    TrainConfig {
        epochs,
        batch_size: batch,
        learning_rate: lr,
        l2_lambda: l2,
        loss: LossKind::MultiLabel,
        weighted_labels: true,
        seed: 42,
    }
}

/// Everything an experiment needs: the split corpus, graph operators, and
/// the raw counts kept around so threshold sweeps (Fig. 7) can re-threshold
/// without recounting.
pub struct Prepared {
    /// Training corpus.
    pub train: Corpus,
    /// Held-out test corpus.
    pub test: Corpus,
    /// Operators built from the training split at `thresholds`.
    pub ops: GraphOperators,
    /// The synergy thresholds `ops` was built at.
    pub thresholds: SynergyThresholds,
    /// Bipartite graph of the training split.
    pub bipartite: BipartiteGraph,
    /// Symptom-pair counts of the training split.
    pub ss_counts: CooccurrenceCounts,
    /// Herb-pair counts of the training split.
    pub hh_counts: CooccurrenceCounts,
}

impl Prepared {
    /// Rebuilds operators at different synergy thresholds (Fig. 7 sweep).
    pub fn ops_at(&self, thresholds: SynergyThresholds) -> GraphOperators {
        GraphOperators::from_parts(
            &self.bipartite,
            &self.ss_counts,
            &self.hh_counts,
            thresholds,
        )
    }
}

/// Generates the corpus, splits it with the paper's ratio, and builds all
/// graph structure from the *training* split only.
pub fn prepare(scale: Scale, seed: u64) -> Prepared {
    prepare_with(scale.generator(), scale.thresholds(), seed)
}

/// [`prepare`] with explicit generator settings and thresholds.
pub fn prepare_with(
    generator: GeneratorConfig,
    thresholds: SynergyThresholds,
    seed: u64,
) -> Prepared {
    let corpus = SyndromeModel::new(generator).generate();
    let split = train_test_split_fraction(&corpus, PAPER_TEST_FRACTION, seed);
    let bipartite =
        BipartiteGraph::from_records(split.train.records(), corpus.n_symptoms(), corpus.n_herbs());
    let mut ss_counts = CooccurrenceCounts::new(corpus.n_symptoms());
    let mut hh_counts = CooccurrenceCounts::new(corpus.n_herbs());
    for (symptoms, herbs) in split.train.records() {
        ss_counts.add_set(symptoms);
        hh_counts.add_set(herbs);
    }
    let ops = GraphOperators::from_parts(&bipartite, &ss_counts, &hh_counts, thresholds);
    Prepared {
        train: split.train,
        test: split.test,
        ops,
        thresholds,
        bipartite,
        ss_counts,
        hh_counts,
    }
}

/// One evaluated model: label, metrics at each K, and wall-clock cost.
#[derive(Clone, Debug)]
pub struct EvalRow {
    /// Row label (Table IV naming).
    pub label: String,
    /// `(K, metrics)` pairs in ascending K.
    pub at: Vec<(usize, RankingMetrics)>,
    /// Precision@5 of each test prescription, in corpus order — the
    /// paired unit of [`crate::significance::paired_bootstrap`].
    pub p5: Vec<f64>,
    /// Training wall-clock seconds.
    pub train_seconds: f64,
}

impl EvalRow {
    /// Metrics at a specific cutoff.
    pub fn at_k(&self, k: usize) -> Option<RankingMetrics> {
        self.at.iter().find(|(kk, _)| *kk == k).map(|(_, m)| *m)
    }
}

/// Trains a neural model (from the zoo) and evaluates it, frozen, on the
/// test split.
pub fn run_neural(
    kind: ModelKind,
    prepared: &Prepared,
    model_cfg: &ModelConfig,
    train_cfg: &TrainConfig,
    seed: u64,
) -> EvalRow {
    let recipe = Recipe {
        kind,
        model: model_cfg.clone(),
        train: train_cfg.clone(),
        thresholds: prepared.thresholds,
    };
    Lab::new(prepared).row(kind.label(), &recipe, &[seed])
}

/// Evaluates any ranker without training (already-trained or non-neural),
/// from one ranking pass over the test split.
pub fn run_ranker(ranker: &dyn HerbRanker, prepared: &Prepared, train_seconds: f64) -> EvalRow {
    let (ranked, truths) = rank_test(ranker, &prepared.test);
    EvalRow {
        label: ranker.label(),
        at: mean_metrics(&ranked, &truths, &PAPER_KS),
        p5: per_prescription_precision(&ranked, &truths, 5),
        train_seconds,
    }
}

/// Table IV's rows that are not neural: the popularity floor and
/// HC-KGETM (topic model + TransE over the derived knowledge graph).
pub fn non_neural_rows(prepared: &Prepared, scale: Scale) -> Vec<EvalRow> {
    let popularity = PopularityRanker::from_corpus(&prepared.train);
    let config = match scale {
        Scale::Smoke => KgetmConfig::smoke(),
        Scale::Paper => KgetmConfig::default(),
    };
    let start = Instant::now();
    let kgetm = HcKgetm::train(&prepared.train, &prepared.ops, &config);
    let seconds = start.elapsed().as_secs_f64();
    vec![
        run_ranker(&popularity, prepared, 0.0),
        run_ranker(&kgetm, prepared, seconds),
    ]
}

/// Fig. 10's cases for [`crate::report::format_case_study`]: the `n` test
/// prescriptions with the richest symptom sets, so the study shows real
/// set-level induction, each as `(symptoms, ground-truth herbs, as many
/// recommended herbs)`.
pub fn case_study(
    ranker: &dyn HerbRanker,
    test: &Corpus,
    n: usize,
) -> Vec<(Vec<u32>, Vec<u32>, Vec<u32>)> {
    let mut richest: Vec<_> = test.prescriptions().iter().collect();
    richest.sort_by_key(|p| std::cmp::Reverse(p.symptoms().len()));
    richest
        .iter()
        .take(n)
        .map(|p| {
            let mut recommended = ranker.rank_sets(&[p.symptoms()], p.herbs().len());
            let recommended = recommended.pop().expect("one list per set");
            (p.symptoms().to_vec(), p.herbs().to_vec(), recommended)
        })
        .collect()
}

/// Averages rows produced by the same model across seeds (metric and
/// per-prescription means, summed wall-clock). Neural-model margins on
/// the reproduction corpus are within single-seed noise, so the `paper`
/// driver reports seed averages.
///
/// # Panics
/// Panics on an empty slice or mismatched labels/cutoffs.
pub fn average_rows(rows: &[EvalRow]) -> EvalRow {
    assert!(!rows.is_empty(), "average_rows: no rows");
    let label = rows[0].label.clone();
    let ks: Vec<usize> = rows[0].at.iter().map(|(k, _)| *k).collect();
    for r in rows {
        assert_eq!(r.label, label, "average_rows: mixed labels");
    }
    let inv = 1.0 / rows.len() as f64;
    let at = ks
        .iter()
        .map(|&k| {
            let mut acc = RankingMetrics::default();
            for r in rows {
                acc.add_assign(&r.at_k(k).expect("consistent cutoffs"));
            }
            (k, acc.scaled(inv))
        })
        .collect();
    let p5 = (0..rows[0].p5.len())
        .map(|i| rows.iter().map(|r| r.p5[i]).sum::<f64>() * inv)
        .collect();
    EvalRow {
        label,
        at,
        p5,
        train_seconds: rows.iter().map(|r| r.train_seconds).sum(),
    }
}

/// Everything one training depends on besides its seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Recipe {
    /// Which zoo model.
    pub kind: ModelKind,
    /// Its architecture.
    pub model: ModelConfig,
    /// Its optimisation settings.
    pub train: TrainConfig,
    /// The synergy thresholds of the graphs it is built on.
    pub thresholds: SynergyThresholds,
}

impl Recipe {
    /// `kind` at `scale`'s calibrated optimum, with `epochs` overriding
    /// the scale's budget when given.
    pub fn tuned(kind: ModelKind, scale: Scale, epochs: Option<usize>) -> Self {
        let mut train = train_config_for(kind, scale);
        train.epochs = epochs.unwrap_or(train.epochs);
        Self {
            kind,
            model: scale.model_config(),
            train,
            thresholds: scale.thresholds(),
        }
    }
}

/// A prepared corpus and the models trained on it so far. Experiments
/// that share a configuration share its training: each distinct
/// `(recipe, seed)` is trained, frozen and scored once.
pub struct Lab<'a> {
    /// The shared corpus.
    pub prepared: &'a Prepared,
    trained: Vec<(Recipe, u64, EvalRow, FrozenModel)>,
    /// Trainings asked for so far, repeats included.
    pub requested: usize,
}

impl<'a> Lab<'a> {
    /// An empty lab over `prepared`.
    pub fn new(prepared: &'a Prepared) -> Self {
        Self {
            prepared,
            trained: Vec::new(),
            requested: 0,
        }
    }

    /// Distinct trainings run so far.
    pub fn distinct(&self) -> usize {
        self.trained.len()
    }

    /// The test-split scores and the served form of `recipe` at `seed`,
    /// trained on first use.
    pub fn trained(&mut self, recipe: &Recipe, seed: u64) -> (&EvalRow, &FrozenModel) {
        self.requested += 1;
        let found = self
            .trained
            .iter()
            .position(|(r, s, ..)| r == recipe && *s == seed);
        let at = found.unwrap_or_else(|| {
            let prepared = self.prepared;
            let rebuilt;
            let ops = if recipe.thresholds == prepared.thresholds {
                &prepared.ops
            } else {
                rebuilt = prepared.ops_at(recipe.thresholds);
                &rebuilt
            };
            let start = Instant::now();
            let mut model = build_model(recipe.kind, ops, &recipe.model, seed);
            train(&mut model, &prepared.train, &recipe.train);
            let seconds = start.elapsed().as_secs_f64();
            let frozen = FrozenModel::from_recommender(&model);
            let row = run_ranker(&frozen, prepared, seconds);
            self.trained.push((recipe.clone(), seed, row, frozen));
            self.trained.len() - 1
        });
        let (_, _, row, frozen) = &self.trained[at];
        (row, frozen)
    }

    /// The row of `recipe` averaged over `seeds`, under `label`.
    pub fn row(&mut self, label: &str, recipe: &Recipe, seeds: &[u64]) -> EvalRow {
        let rows: Vec<EvalRow> = seeds
            .iter()
            .map(|&seed| self.trained(recipe, seed).0.clone())
            .collect();
        EvalRow {
            label: label.to_string(),
            ..average_rows(&rows)
        }
    }
}

/// The training seeds the `paper` driver averages at smoke scale.
pub const SMOKE_SEEDS: [u64; 3] = [11, 12, 13];

#[cfg(test)]
mod tests {
    use super::*;
    use smgcn_data::GeneratorConfig;

    fn tiny_prepared() -> Prepared {
        prepare_with(
            GeneratorConfig::tiny_scale(),
            SynergyThresholds { x_s: 1, x_h: 1 },
            3,
        )
    }

    #[test]
    fn prepare_splits_and_builds() {
        let p = tiny_prepared();
        assert!(p.train.len() > p.test.len());
        assert_eq!(p.ops.n_symptoms, p.train.n_symptoms());
        assert!(p.ops.sh_raw.nnz() > 0);
    }

    #[test]
    fn ops_at_rethresholds_without_recount() {
        let p = tiny_prepared();
        let loose = p.ops_at(SynergyThresholds { x_s: 0, x_h: 0 });
        let tight = p.ops_at(SynergyThresholds { x_s: 10, x_h: 10 });
        assert!(loose.hh_sum.forward().nnz() >= tight.hh_sum.forward().nnz());
    }

    #[test]
    fn popularity_ranker_beats_nothing_but_scores() {
        let p = tiny_prepared();
        let pop = PopularityRanker::from_corpus(&p.train);
        let rows = evaluate_ranker(&pop, &p.test, &[5]);
        let m = rows[0].1;
        // Popular herbs appear in most prescriptions, so precision@5 is
        // well above zero even without any personalisation.
        assert!(m.precision > 0.05, "{m:?}");
        assert!(m.precision <= 1.0);
    }

    #[test]
    fn scale_arg_parsing() {
        assert_eq!(Scale::from_arg("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::from_arg("paper"), Some(Scale::Paper));
        assert_eq!(Scale::from_arg("huge"), None);
    }

    #[test]
    fn eval_row_lookup() {
        let row = EvalRow {
            label: "x".into(),
            at: vec![(
                5,
                RankingMetrics {
                    precision: 0.3,
                    recall: 0.2,
                    ndcg: 0.4,
                },
            )],
            p5: vec![0.2, 0.4],
            train_seconds: 1.0,
        };
        assert!(row.at_k(5).is_some());
        assert!(row.at_k(10).is_none());
    }

    #[test]
    fn run_neural_smoke_end_to_end() {
        let p = tiny_prepared();
        let model_cfg = ModelConfig {
            embedding_dim: 16,
            layer_dims: vec![16],
            ..ModelConfig::smgcn()
        };
        let train_cfg = TrainConfig {
            epochs: 3,
            batch_size: 128,
            learning_rate: 3e-3,
            l2_lambda: 1e-4,
            seed: 4,
            ..TrainConfig::smgcn()
        };
        let row = run_neural(ModelKind::Smgcn, &p, &model_cfg, &train_cfg, 5);
        assert_eq!(row.label, "SMGCN");
        let m5 = row.at_k(5).unwrap();
        assert!(
            m5.precision > 0.0,
            "trained model should hit something: {m5:?}"
        );
        assert!(row.train_seconds > 0.0);
        assert_eq!(row.p5.len(), p.test.len());
        let mean_p5 = row.p5.iter().sum::<f64>() / row.p5.len() as f64;
        assert!((mean_p5 - m5.precision).abs() < 1e-12);

        // A lab trains a recipe it is asked for twice once; another
        // threshold is another training, on rebuilt operators.
        let mut lab = Lab::new(&p);
        let mut recipe = Recipe::tuned(ModelKind::BiparGcn, Scale::Smoke, Some(1));
        recipe.thresholds = p.thresholds;
        let both = lab.row("a", &recipe, &[1, 2]);
        assert_eq!(lab.row("b", &recipe, &[2]).p5, lab.trained(&recipe, 2).0.p5);
        assert_eq!(
            (both.label.as_str(), lab.requested, lab.distinct()),
            ("a", 4, 2)
        );
        recipe.thresholds.x_h += 1;
        lab.trained(&recipe, 1);
        assert_eq!(lab.distinct(), 3);
    }

    /// How evaluation scored before it froze, kept as the oracle for the
    /// served path: the autodiff forward pass and a full sort. Every kind
    /// under the paper's loss (Bipar-GCN, + SGE and HeteGCN have no SI
    /// head) and one trained with BPR; 50 herbs, so the frozen scorer
    /// runs its SIMD tier, not the scalar one under 32 herbs.
    #[test]
    fn served_rankings_match_the_tape_oracle_for_every_model_kind() {
        let p = tiny_prepared();
        let model_cfg = ModelConfig::smgcn().smoke();
        let sets: Vec<&[u32]> = p
            .test
            .prescriptions()
            .iter()
            .map(|x| x.symptoms())
            .collect();
        let ablations = ModelKind::table_v().into_iter().skip(1).take(3);
        let kinds = ModelKind::table_iv().into_iter().chain(ablations);
        let mut cases: Vec<_> = kinds.map(|kind| (kind, LossKind::MultiLabel)).collect();
        cases.push((ModelKind::Ngcf, LossKind::Bpr));
        for (kind, loss) in cases {
            let mut model = build_model(kind, &p.ops, &model_cfg, 5);
            train(
                &mut model,
                &p.train,
                &TrainConfig::smoke().with_epochs(3).with_loss(loss),
            );
            let (served, truths) = rank_test(&model, &p.test);
            let scores = model.predict(&sets);
            let oracle: Vec<Vec<u32>> = (0..scores.rows())
                .map(|r| partial_top_k(scores.row(r), RANK_TRUNCATION))
                .collect();
            for (i, (a, b)) in served.iter().zip(&oracle).enumerate() {
                assert_eq!(a.len(), RANK_TRUNCATION);
                for (&x, &y) in a.iter().zip(b) {
                    let gap = (scores.get(i, x as usize) - scores.get(i, y as usize)).abs();
                    assert!(
                        x == y || gap <= 2e-6,
                        "{kind:?}/{loss:?} set {i}: {x} vs {y}, {gap}"
                    );
                }
            }
            let served = mean_metrics(&served, &truths, &PAPER_KS);
            let oracle = mean_metrics(&oracle, &truths, &PAPER_KS);
            for ((k, a), (_, b)) in served.iter().zip(&oracle) {
                let gap = (a.precision - b.precision)
                    .abs()
                    .max((a.recall - b.recall).abs());
                let gap = gap.max((a.ndcg - b.ndcg).abs());
                assert!(gap < 1e-3, "{kind:?}/{loss:?} @{k}: {a:?} vs {b:?}");
            }
        }
    }
}
