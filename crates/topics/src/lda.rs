//! A syndrome-topic model over prescriptions, trained with collapsed Gibbs
//! sampling.
//!
//! This is the topic-model core of the HC-KGETM baseline substitute (see
//! README.md, "The corpus"). Each prescription's tokens come from
//! two vocabularies — symptoms and herbs — sharing one latent topic
//! ("syndrome") assignment space, as in the TCM topic models the paper
//! cites (refs. \[5\], \[13\]): a topic `z` has a distribution over symptoms `φ_s(z)`
//! and over herbs `φ_h(z)`, and a document mixes topics `θ_d`.
//!
//! Ranking then scores herb `h` for a symptom set by aggregating
//! *per-symptom* evidence `p(h | s) = Σ_z p(z | s) φ_h(z)` — deliberately
//! ignoring set-level structure, which is exactly the weakness the paper
//! attributes to this family (§I).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smgcn_data::Corpus;

/// Hyperparameters of the Gibbs sampler.
#[derive(Clone, Debug)]
pub struct LdaConfig {
    /// Number of latent syndrome topics.
    pub n_topics: usize,
    /// Dirichlet prior on document–topic mixtures.
    pub alpha: f64,
    /// Dirichlet prior on topic–word distributions.
    pub beta: f64,
    /// Gibbs sweeps over the corpus.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        Self {
            n_topics: 20,
            alpha: 0.05,
            beta: 0.01,
            iterations: 100,
            seed: 13,
        }
    }
}

/// A trained syndrome-topic model.
pub struct TopicModel {
    n_topics: usize,
    beta: f64,
    /// `n_topics x S` symptom counts per topic.
    topic_symptom: Vec<Vec<f64>>,
    /// `n_topics x H` herb counts per topic.
    topic_herb: Vec<Vec<f64>>,
    /// Total symptom tokens per topic (kept for the symptom-side
    /// distribution accessor used in diagnostics).
    #[allow(dead_code)]
    topic_symptom_total: Vec<f64>,
    /// Total herb tokens per topic.
    topic_herb_total: Vec<f64>,
    n_herbs: usize,
}

#[derive(Clone, Copy)]
enum TokenKind {
    Symptom,
    Herb,
}

impl TopicModel {
    /// Trains with collapsed Gibbs sampling over the corpus.
    ///
    /// # Panics
    /// Panics on an empty corpus or zero topics.
    pub fn train(corpus: &Corpus, config: &LdaConfig) -> Self {
        assert!(config.n_topics > 0, "TopicModel: need at least one topic");
        assert!(!corpus.is_empty(), "TopicModel: empty corpus");
        let k = config.n_topics;
        let n_s = corpus.n_symptoms();
        let n_h = corpus.n_herbs();
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Flatten tokens: (doc, kind, word_id), with one topic slot each.
        let mut tokens: Vec<(u32, TokenKind, u32)> = Vec::new();
        for (d, p) in corpus.prescriptions().iter().enumerate() {
            for &s in p.symptoms() {
                tokens.push((d as u32, TokenKind::Symptom, s));
            }
            for &h in p.herbs() {
                tokens.push((d as u32, TokenKind::Herb, h));
            }
        }
        let mut assignments: Vec<usize> = (0..tokens.len()).map(|_| rng.gen_range(0..k)).collect();

        // Count tables.
        let mut doc_topic = vec![vec![0f64; k]; corpus.len()];
        let mut topic_symptom = vec![vec![0f64; n_s]; k];
        let mut topic_herb = vec![vec![0f64; n_h]; k];
        let mut topic_symptom_total = vec![0f64; k];
        let mut topic_herb_total = vec![0f64; k];
        for (i, &(d, kind, w)) in tokens.iter().enumerate() {
            let z = assignments[i];
            doc_topic[d as usize][z] += 1.0;
            match kind {
                TokenKind::Symptom => {
                    topic_symptom[z][w as usize] += 1.0;
                    topic_symptom_total[z] += 1.0;
                }
                TokenKind::Herb => {
                    topic_herb[z][w as usize] += 1.0;
                    topic_herb_total[z] += 1.0;
                }
            }
        }

        let mut probs = vec![0f64; k];
        for _ in 0..config.iterations {
            for (i, &(d, kind, w)) in tokens.iter().enumerate() {
                let old = assignments[i];
                // Remove the token from the counts.
                doc_topic[d as usize][old] -= 1.0;
                let (table, totals, vocab) = match kind {
                    TokenKind::Symptom => (&mut topic_symptom, &mut topic_symptom_total, n_s),
                    TokenKind::Herb => (&mut topic_herb, &mut topic_herb_total, n_h),
                };
                table[old][w as usize] -= 1.0;
                totals[old] -= 1.0;
                // Conditional p(z) ∝ (n_dz + α)(n_zw + β)/(n_z + Vβ).
                let mut sum = 0.0;
                for (z, p) in probs.iter_mut().enumerate() {
                    let doc_term = doc_topic[d as usize][z] + config.alpha;
                    let word_term = (table[z][w as usize] + config.beta)
                        / (totals[z] + vocab as f64 * config.beta);
                    *p = doc_term * word_term;
                    sum += *p;
                }
                let mut u = rng.gen::<f64>() * sum;
                let mut new = k - 1;
                for (z, &p) in probs.iter().enumerate() {
                    if u < p {
                        new = z;
                        break;
                    }
                    u -= p;
                }
                // Re-add with the sampled topic.
                assignments[i] = new;
                doc_topic[d as usize][new] += 1.0;
                table[new][w as usize] += 1.0;
                totals[new] += 1.0;
            }
        }

        Self {
            n_topics: k,
            beta: config.beta,
            topic_symptom,
            topic_herb,
            topic_symptom_total,
            topic_herb_total,
            n_herbs: n_h,
        }
    }

    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.n_topics
    }

    /// Topic posterior given a single symptom: `p(z | s) ∝ n_{z,s} + β`.
    pub fn topic_given_symptom(&self, s: u32) -> Vec<f64> {
        let mut p: Vec<f64> = (0..self.n_topics)
            .map(|z| self.topic_symptom[z][s as usize] + self.beta)
            .collect();
        let sum: f64 = p.iter().sum();
        for v in &mut p {
            *v /= sum;
        }
        p
    }

    /// Herb distribution of one topic: `φ_h(z)` with the β prior smoothed in.
    pub fn herbs_given_topic(&self, z: usize) -> Vec<f64> {
        let denom = self.topic_herb_total[z] + self.n_herbs as f64 * self.beta;
        self.topic_herb[z]
            .iter()
            .map(|&c| (c + self.beta) / denom)
            .collect()
    }

    /// Per-symptom herb evidence `p(h | s) = Σ_z p(z | s) φ_h(z)`, the
    /// single-symptom scoring the paper criticises topic models for.
    pub fn herb_scores_for_symptom(&self, s: u32) -> Vec<f64> {
        let pz = self.topic_given_symptom(s);
        let mut scores = vec![0f64; self.n_herbs];
        for (z, &w) in pz.iter().enumerate() {
            if w < 1e-6 {
                continue;
            }
            let denom = self.topic_herb_total[z] + self.n_herbs as f64 * self.beta;
            for (h, sc) in scores.iter_mut().enumerate() {
                *sc += w * (self.topic_herb[z][h] + self.beta) / denom;
            }
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smgcn_data::{Prescription, Vocabulary};

    /// Two cleanly separated "syndromes": symptoms {0,1} treat with herbs
    /// {0,1}; symptoms {2,3} with herbs {2,3}.
    fn separable_corpus() -> Corpus {
        let mut prescriptions = Vec::new();
        for _ in 0..30 {
            prescriptions.push(Prescription::new(vec![0, 1], vec![0, 1]));
            prescriptions.push(Prescription::new(vec![2, 3], vec![2, 3]));
        }
        Corpus::new(
            Vocabulary::from_names(["s0", "s1", "s2", "s3"]),
            Vocabulary::from_names(["h0", "h1", "h2", "h3"]),
            prescriptions,
        )
    }

    fn config() -> LdaConfig {
        LdaConfig {
            n_topics: 2,
            alpha: 0.1,
            beta: 0.01,
            iterations: 60,
            seed: 5,
        }
    }

    #[test]
    fn recovers_separable_structure() {
        let model = TopicModel::train(&separable_corpus(), &config());
        // Symptom 0 must assign herb 0/1 far more evidence than herb 2/3.
        let scores = model.herb_scores_for_symptom(0);
        assert!(scores[0] > scores[2] * 3.0, "{scores:?}");
        assert!(scores[1] > scores[3] * 3.0, "{scores:?}");
        let scores2 = model.herb_scores_for_symptom(2);
        assert!(scores2[2] > scores2[0] * 3.0, "{scores2:?}");
    }

    #[test]
    fn posteriors_are_distributions() {
        let model = TopicModel::train(&separable_corpus(), &config());
        let pz = model.topic_given_symptom(1);
        assert_eq!(pz.len(), 2);
        assert!((pz.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let ph = model.herbs_given_topic(0);
        assert!((ph.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(ph.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn training_is_deterministic() {
        let a = TopicModel::train(&separable_corpus(), &config());
        let b = TopicModel::train(&separable_corpus(), &config());
        assert_eq!(a.herb_scores_for_symptom(0), b.herb_scores_for_symptom(0));
    }

    #[test]
    #[should_panic(expected = "at least one topic")]
    fn zero_topics_rejected() {
        let mut cfg = config();
        cfg.n_topics = 0;
        let _ = TopicModel::train(&separable_corpus(), &cfg);
    }
}
