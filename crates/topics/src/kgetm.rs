//! HC-KGETM: the knowledge-graph-enhanced topic model baseline.
//!
//! Combines the syndrome-topic model ([`crate::lda`]) with TransE
//! embeddings of the derived TCM knowledge graph ([`crate::transe`]). For a
//! symptom set `sc`, herb `h` is scored by aggregating per-symptom
//! evidence:
//!
//! ```text
//! score(h | sc) = Σ_{s ∈ sc} [ (1 − γ)·p̂(h | s) + γ·sim_TransE(s, h) ]
//! ```
//!
//! where `p̂(h | s)` is the topic-model evidence and `sim` the (standardised)
//! translation plausibility of `(s, treats-with, h)`. Both components score
//! one symptom at a time — reproducing the class of model the paper argues
//! SMGCN improves on by modelling the *set* (§I, §V-E-1).

use smgcn_data::Corpus;
use smgcn_graph::GraphOperators;

use crate::lda::{LdaConfig, TopicModel};
use crate::transe::{derive_triples, TransE, TransEConfig};

/// HC-KGETM hyperparameters. Mirrors Table III's reported optimum
/// (`α = 0.05`, `β_s = β_h = 0.01`, `γ = 1` for the KG-fusion weight — we
/// default `γ` to a balanced 0.5 because the derived KG is weaker than the
/// curated one the original used; the Table IV harness sweeps it).
#[derive(Clone, Debug)]
pub struct KgetmConfig {
    /// Topic-model settings.
    pub lda: LdaConfig,
    /// TransE settings.
    pub transe: TransEConfig,
    /// Fusion weight `γ ∈ [0, 1]` on the knowledge-graph component.
    pub gamma: f64,
}

impl Default for KgetmConfig {
    fn default() -> Self {
        Self {
            lda: LdaConfig {
                alpha: 0.05,
                beta: 0.01,
                ..LdaConfig::default()
            },
            transe: TransEConfig::default(),
            gamma: 0.5,
        }
    }
}

impl KgetmConfig {
    /// A fast configuration for tests and smoke experiments.
    pub fn smoke() -> Self {
        let mut cfg = Self::default();
        cfg.lda.iterations = 30;
        cfg.lda.n_topics = 12;
        cfg.transe.epochs = 15;
        cfg.transe.dim = 32;
        cfg
    }
}

/// The trained HC-KGETM ranker.
pub struct HcKgetm {
    transe: TransE,
    /// Per-symptom cached herb evidence from the topic model.
    topic_scores: Vec<Vec<f64>>,
    gamma: f64,
    n_symptoms: usize,
    n_herbs: usize,
}

impl HcKgetm {
    /// Trains both components on the training corpus.
    pub fn train(corpus: &Corpus, ops: &GraphOperators, config: &KgetmConfig) -> Self {
        let topics = TopicModel::train(corpus, &config.lda);
        let triples = derive_triples(ops);
        let transe = TransE::train(&triples, ops.n_symptoms + ops.n_herbs, &config.transe);
        let topic_scores = (0..corpus.n_symptoms() as u32)
            .map(|s| topics.herb_scores_for_symptom(s))
            .collect();
        Self {
            transe,
            topic_scores,
            gamma: config.gamma,
            n_symptoms: corpus.n_symptoms(),
            n_herbs: corpus.n_herbs(),
        }
    }

    /// Scores all herbs for one symptom set (higher = better).
    pub fn score_set(&self, symptom_set: &[u32]) -> Vec<f64> {
        let mut total = vec![0f64; self.n_herbs];
        for &s in symptom_set {
            assert!(
                (s as usize) < self.n_symptoms,
                "HcKgetm: symptom {s} out of range {}",
                self.n_symptoms
            );
            // Topic component: already a probability-like evidence.
            let topic = &self.topic_scores[s as usize];
            // KG component: standardise the similarity over herbs so the
            // two components are on comparable scales.
            let sims: Vec<f64> = (0..self.n_herbs as u32)
                .map(|h| self.transe.treats_similarity(s, self.n_symptoms as u32 + h) as f64)
                .collect();
            let mean = sims.iter().sum::<f64>() / sims.len() as f64;
            let std = (sims.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / sims.len() as f64)
                .sqrt()
                .max(1e-9);
            let t_mean = topic.iter().sum::<f64>() / topic.len() as f64;
            let t_std = (topic.iter().map(|v| (v - t_mean).powi(2)).sum::<f64>()
                / topic.len() as f64)
                .sqrt()
                .max(1e-9);
            for (h, tot) in total.iter_mut().enumerate() {
                let topic_z = (topic[h] - t_mean) / t_std;
                let kg_z = (sims[h] - mean) / std;
                *tot += (1.0 - self.gamma) * topic_z + self.gamma * kg_z;
            }
        }
        total
    }

    /// Top-`k` herbs for a symptom set.
    pub fn recommend(&self, symptom_set: &[u32], k: usize) -> Vec<u32> {
        let scores = self.score_set(symptom_set);
        let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
        idx.sort_unstable_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smgcn_data::{Prescription, Vocabulary};
    use smgcn_graph::SynergyThresholds;

    fn separable() -> (Corpus, GraphOperators) {
        let mut prescriptions = Vec::new();
        for _ in 0..25 {
            prescriptions.push(Prescription::new(vec![0, 1], vec![0, 1]));
            prescriptions.push(Prescription::new(vec![2, 3], vec![2, 3]));
        }
        let corpus = Corpus::new(
            Vocabulary::from_names(["s0", "s1", "s2", "s3"]),
            Vocabulary::from_names(["h0", "h1", "h2", "h3"]),
            prescriptions,
        );
        let ops = GraphOperators::from_records(
            corpus.records(),
            4,
            4,
            SynergyThresholds { x_s: 0, x_h: 0 },
        );
        (corpus, ops)
    }

    fn fast_config() -> KgetmConfig {
        let mut cfg = KgetmConfig::smoke();
        cfg.lda.n_topics = 2;
        cfg.lda.iterations = 40;
        cfg.transe.dim = 8;
        cfg.transe.epochs = 100;
        cfg
    }

    #[test]
    fn recommends_block_consistent_herbs() {
        let (corpus, ops) = separable();
        let model = HcKgetm::train(&corpus, &ops, &fast_config());
        let top = model.recommend(&[0, 1], 2);
        let mut sorted = top.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![0, 1],
            "block-0 symptoms must surface block-0 herbs"
        );
        let top2 = model.recommend(&[2, 3], 2);
        let mut sorted2 = top2.clone();
        sorted2.sort_unstable();
        assert_eq!(sorted2, vec![2, 3]);
    }

    #[test]
    fn gamma_extremes_change_scores() {
        let (corpus, ops) = separable();
        let mut topic_only = fast_config();
        topic_only.gamma = 0.0;
        let mut kg_only = fast_config();
        kg_only.gamma = 1.0;
        let a = HcKgetm::train(&corpus, &ops, &topic_only);
        let b = HcKgetm::train(&corpus, &ops, &kg_only);
        assert_ne!(a.score_set(&[0]), b.score_set(&[0]));
    }

    #[test]
    fn scoring_is_additive_over_symptoms() {
        let (corpus, ops) = separable();
        let model = HcKgetm::train(&corpus, &ops, &fast_config());
        let s0 = model.score_set(&[0]);
        let s1 = model.score_set(&[1]);
        let both = model.score_set(&[0, 1]);
        for h in 0..4 {
            assert!(
                (both[h] - (s0[h] + s1[h])).abs() < 1e-9,
                "per-symptom aggregation must be a plain sum (the paper's criticism)"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_symptom_rejected() {
        let (corpus, ops) = separable();
        let model = HcKgetm::train(&corpus, &ops, &fast_config());
        let _ = model.score_set(&[99]);
    }
}
