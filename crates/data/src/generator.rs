//! Latent-syndrome synthetic corpus generator.
//!
//! The paper evaluates on a public TCM corpus (ref. \[5\]) that is not redistributable
//! here, so this module generates a corpus with the *same statistical
//! structure* (README.md, "The corpus", documents the substitution):
//!
//! 1. **Latent syndrome layer.** `K` latent syndromes each own a weighted
//!    symptom distribution and a weighted herb distribution over modest
//!    supports. A prescription samples one syndrome (sometimes two — the
//!    paper's Fig. 1 shows exactly this main + optional syndrome ambiguity),
//!    draws its symptom set from the syndrome(s), and its herb set from the
//!    syndrome(s) as well. Symptoms are therefore only predictive of herbs
//!    *through* the syndrome — the structure Syndrome Induction exploits.
//! 2. **Shared symptoms.** Syndrome supports overlap, so a single symptom
//!    appears under several syndromes (the ambiguity §I stresses).
//! 3. **Heavy-tailed herb popularity.** A global Zipf-weighted "common herb"
//!    component (licorice-like ubiquitous herbs) is mixed into every herb
//!    draw, reproducing Fig. 5's imbalanced frequency distribution that
//!    motivates the weighted loss of Eq. 15.
//! 4. **Herb compatibility.** Herbs drawn from the same syndrome support
//!    systematically co-occur, giving the `HH` synergy graph real signal.
//!
//! Generation is fully deterministic from `GeneratorConfig::seed`.

use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::corpus::Corpus;
use crate::prescription::Prescription;
use crate::vocab::{herb_vocabulary, symptom_vocabulary};

/// Configuration of the synthetic corpus.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Symptom vocabulary size `|S|`.
    pub n_symptoms: usize,
    /// Herb vocabulary size `|H|`.
    pub n_herbs: usize,
    /// Number of latent syndromes `K`.
    pub n_syndromes: usize,
    /// Number of prescriptions to generate.
    pub n_prescriptions: usize,
    /// Inclusive range of symptom-set sizes.
    pub symptoms_per_rx: (usize, usize),
    /// Inclusive range of herb-set sizes.
    pub herbs_per_rx: (usize, usize),
    /// Symptoms in each syndrome's support.
    pub symptom_support: usize,
    /// Herbs in each syndrome's support.
    pub herb_support: usize,
    /// Probability a prescription reflects a second syndrome.
    pub second_syndrome_prob: f64,
    /// Probability each herb draw comes from the global popularity
    /// component instead of the syndrome-specific distribution.
    pub popularity_mix: f64,
    /// Zipf exponent of the global herb-popularity component.
    pub zipf_exponent: f64,
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Full paper scale: Table II's 26,360 prescriptions over 360 symptoms
    /// and 753 herbs.
    pub fn paper_scale() -> Self {
        Self {
            n_symptoms: 360,
            n_herbs: 753,
            // Enough distinct syndromes that the corpus does not saturate
            // every support×support pair (real TCM nosology distinguishes
            // hundreds of zheng patterns).
            n_syndromes: 96,
            n_prescriptions: 26_360,
            symptoms_per_rx: (3, 9),
            herbs_per_rx: (6, 14),
            symptom_support: 20,
            herb_support: 32,
            second_syndrome_prob: 0.30,
            popularity_mix: 0.15,
            zipf_exponent: 1.05,
            seed: 20200220, // the paper's arXiv date
        }
    }

    /// Reduced scale for tests and smoke experiments: same structure,
    /// minutes-not-hours training.
    pub fn smoke_scale() -> Self {
        Self {
            n_symptoms: 120,
            n_herbs: 260,
            n_syndromes: 28,
            n_prescriptions: 3_000,
            symptoms_per_rx: (3, 6),
            herbs_per_rx: (4, 10),
            symptom_support: 12,
            herb_support: 20,
            second_syndrome_prob: 0.30,
            popularity_mix: 0.15,
            zipf_exponent: 1.05,
            seed: 20200220,
        }
    }

    /// Tiny scale for unit tests.
    pub fn tiny_scale() -> Self {
        Self {
            n_symptoms: 30,
            n_herbs: 50,
            n_syndromes: 5,
            n_prescriptions: 300,
            symptoms_per_rx: (2, 5),
            herbs_per_rx: (3, 7),
            symptom_support: 9,
            herb_support: 14,
            second_syndrome_prob: 0.3,
            popularity_mix: 0.25,
            zipf_exponent: 1.0,
            seed: 7,
        }
    }

    /// Returns a copy with a different seed (for multi-run robustness
    /// experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) {
        assert!(
            self.n_symptoms > 0 && self.n_herbs > 0,
            "vocabulary sizes must be positive"
        );
        assert!(self.n_syndromes > 0, "need at least one syndrome");
        assert!(
            self.symptom_support <= self.n_symptoms && self.herb_support <= self.n_herbs,
            "support sizes exceed vocabulary"
        );
        assert!(
            self.symptoms_per_rx.0 >= 1
                && self.symptoms_per_rx.0 <= self.symptoms_per_rx.1
                && self.symptoms_per_rx.1 <= self.symptom_support,
            "symptom set size range {:?} incompatible with support {}",
            self.symptoms_per_rx,
            self.symptom_support
        );
        assert!(
            self.herbs_per_rx.0 >= 1
                && self.herbs_per_rx.0 <= self.herbs_per_rx.1
                && self.herbs_per_rx.1 <= self.herb_support,
            "herb set size range {:?} incompatible with support {}",
            self.herbs_per_rx,
            self.herb_support
        );
        assert!((0.0..=1.0).contains(&self.second_syndrome_prob));
        assert!((0.0..=1.0).contains(&self.popularity_mix));
    }
}

/// One latent syndrome: weighted supports over symptoms and herbs.
#[derive(Clone, Debug)]
pub struct Syndrome {
    /// Ids of symptoms this syndrome can manifest.
    pub symptoms: Vec<u32>,
    /// Sampling weights aligned with `symptoms` (geometric decay: every
    /// syndrome has a few cardinal symptoms and a tail of incidental ones).
    pub symptom_weights: Vec<f64>,
    /// Ids of herbs used against this syndrome.
    pub herbs: Vec<u32>,
    /// Sampling weights aligned with `herbs`.
    pub herb_weights: Vec<f64>,
}

/// The generator: latent syndromes plus global popularity components.
pub struct SyndromeModel {
    config: GeneratorConfig,
    syndromes: Vec<Syndrome>,
    /// Prevalence weights over syndromes.
    prevalence: Vec<f64>,
    /// Global Zipf popularity over all herbs (ubiquitous-herb component).
    herb_popularity: Vec<f64>,
}

fn geometric_weights(n: usize, ratio: f64) -> Vec<f64> {
    (0..n).map(|i| ratio.powi(i as i32)).collect()
}

impl SyndromeModel {
    /// Draws the latent structure from the config's seed.
    pub fn new(config: GeneratorConfig) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut all_symptoms: Vec<u32> = (0..config.n_symptoms as u32).collect();
        let mut all_herbs: Vec<u32> = (0..config.n_herbs as u32).collect();

        let mut syndromes = Vec::with_capacity(config.n_syndromes);
        for k in 0..config.n_syndromes {
            // Rotate + shuffle so supports overlap but every id lands in at
            // least one support across syndromes (coverage then guarantees
            // every entity can appear in the corpus).
            let rot_s = ((k * config.n_symptoms) / config.n_syndromes)
                .min(all_symptoms.len().saturating_sub(1));
            all_symptoms.rotate_left(rot_s);
            let mut symptoms: Vec<u32> = all_symptoms
                .iter()
                .copied()
                .take(config.symptom_support)
                .collect();
            symptoms.extend(
                all_symptoms[config.symptom_support..]
                    .choose_multiple(&mut rng, config.symptom_support / 4)
                    .copied(),
            );
            symptoms.truncate(config.symptom_support);
            symptoms.shuffle(&mut rng);

            let rot_h =
                ((k * config.n_herbs) / config.n_syndromes).min(all_herbs.len().saturating_sub(1));
            all_herbs.rotate_left(rot_h);
            let mut herbs: Vec<u32> = all_herbs
                .iter()
                .copied()
                .take(config.herb_support)
                .collect();
            herbs.extend(
                all_herbs[config.herb_support..]
                    .choose_multiple(&mut rng, config.herb_support / 4)
                    .copied(),
            );
            herbs.truncate(config.herb_support);
            herbs.shuffle(&mut rng);

            syndromes.push(Syndrome {
                symptom_weights: geometric_weights(symptoms.len(), 0.82),
                symptoms,
                herb_weights: geometric_weights(herbs.len(), 0.86),
                herbs,
            });
        }

        // Syndrome prevalence: mildly skewed so common conditions dominate
        // like in a real clinic corpus.
        let prevalence: Vec<f64> = (0..config.n_syndromes)
            .map(|k| 1.0 / (1.0 + k as f64).sqrt())
            .collect();
        // Global herb popularity: Zipf over a seed-shuffled herb order.
        let mut order: Vec<u32> = (0..config.n_herbs as u32).collect();
        order.shuffle(&mut rng);
        let mut herb_popularity = vec![0.0f64; config.n_herbs];
        for (rank, &h) in order.iter().enumerate() {
            herb_popularity[h as usize] = 1.0 / ((rank + 1) as f64).powf(config.zipf_exponent);
        }

        Self {
            config,
            syndromes,
            prevalence,
            herb_popularity,
        }
    }

    /// The generator configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// The latent syndromes (exposed for diagnostics and tests).
    pub fn syndromes(&self) -> &[Syndrome] {
        &self.syndromes
    }

    /// Samples one prescription and returns it with the syndrome ids that
    /// produced it (the "ground truth" the corpus withholds from models).
    pub fn sample_with_syndromes(&self, rng: &mut StdRng) -> (Prescription, Vec<usize>) {
        let prevalence = WeightedIndex::new(&self.prevalence).expect("non-empty prevalence");
        let primary = prevalence.sample(rng);
        let mut active = vec![primary];
        if rng.gen_bool(self.config.second_syndrome_prob) {
            let secondary = prevalence.sample(rng);
            if secondary != primary {
                active.push(secondary);
            }
        }

        let n_sym = rng.gen_range(self.config.symptoms_per_rx.0..=self.config.symptoms_per_rx.1);
        let n_herb = rng.gen_range(self.config.herbs_per_rx.0..=self.config.herbs_per_rx.1);

        let symptoms = self.sample_set(rng, &active, n_sym, SetKind::Symptoms);
        let herbs = self.sample_set(rng, &active, n_herb, SetKind::Herbs);
        (Prescription::new(symptoms, herbs), active)
    }

    fn sample_set(
        &self,
        rng: &mut StdRng,
        active: &[usize],
        target: usize,
        kind: SetKind,
    ) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::with_capacity(target);
        let mut guard = 0;
        while out.len() < target && guard < target * 40 {
            guard += 1;
            let syndrome = &self.syndromes[active[rng.gen_range(0..active.len())]];
            let id = match kind {
                SetKind::Symptoms => {
                    let idx = WeightedIndex::new(&syndrome.symptom_weights)
                        .expect("weights")
                        .sample(rng);
                    syndrome.symptoms[idx]
                }
                SetKind::Herbs => {
                    if rng.gen_bool(self.config.popularity_mix) {
                        // Ubiquitous-herb component (licorice effect).
                        let idx = WeightedIndex::new(&self.herb_popularity)
                            .expect("weights")
                            .sample(rng);
                        idx as u32
                    } else {
                        let idx = WeightedIndex::new(&syndrome.herb_weights)
                            .expect("weights")
                            .sample(rng);
                        syndrome.herbs[idx]
                    }
                }
            };
            if !out.contains(&id) {
                out.push(id);
            }
        }
        out
    }

    /// Generates the full corpus: prescriptions plus named vocabularies.
    ///
    /// A final coverage pass guarantees every symptom and herb id occurs at
    /// least once (Table II counts the whole vocabulary as present in the
    /// corpus), by swapping unseen ids into randomly chosen prescriptions.
    pub fn generate(&self) -> Corpus {
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        let mut prescriptions = Vec::with_capacity(self.config.n_prescriptions);
        for _ in 0..self.config.n_prescriptions {
            prescriptions.push(self.sample_with_syndromes(&mut rng).0);
        }
        self.ensure_coverage(&mut prescriptions, &mut rng);
        Corpus::new(
            symptom_vocabulary(self.config.n_symptoms),
            herb_vocabulary(self.config.n_herbs),
            prescriptions,
        )
    }

    fn ensure_coverage(&self, prescriptions: &mut [Prescription], rng: &mut StdRng) {
        let mut seen_s = vec![false; self.config.n_symptoms];
        let mut seen_h = vec![false; self.config.n_herbs];
        for p in prescriptions.iter() {
            for &s in p.symptoms() {
                seen_s[s as usize] = true;
            }
            for &h in p.herbs() {
                seen_h[h as usize] = true;
            }
        }
        let missing_s: Vec<u32> = (0..self.config.n_symptoms as u32)
            .filter(|&s| !seen_s[s as usize])
            .collect();
        let missing_h: Vec<u32> = (0..self.config.n_herbs as u32)
            .filter(|&h| !seen_h[h as usize])
            .collect();
        for s in missing_s {
            let idx = rng.gen_range(0..prescriptions.len());
            let p = &prescriptions[idx];
            let mut symptoms = p.symptoms().to_vec();
            symptoms.push(s);
            prescriptions[idx] = Prescription::new(symptoms, p.herbs().to_vec());
        }
        for h in missing_h {
            let idx = rng.gen_range(0..prescriptions.len());
            let p = &prescriptions[idx];
            let mut herbs = p.herbs().to_vec();
            herbs.push(h);
            prescriptions[idx] = Prescription::new(p.symptoms().to_vec(), herbs);
        }
    }
}

#[derive(Clone, Copy)]
enum SetKind {
    Symptoms,
    Herbs,
}

use rand::SeedableRng;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyndromeModel::new(GeneratorConfig::tiny_scale()).generate();
        let b = SyndromeModel::new(GeneratorConfig::tiny_scale()).generate();
        assert_eq!(a.prescriptions(), b.prescriptions());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyndromeModel::new(GeneratorConfig::tiny_scale()).generate();
        let b = SyndromeModel::new(GeneratorConfig::tiny_scale().with_seed(99)).generate();
        assert_ne!(a.prescriptions(), b.prescriptions());
    }

    #[test]
    fn corpus_has_requested_size_and_coverage() {
        let cfg = GeneratorConfig::tiny_scale();
        let corpus = SyndromeModel::new(cfg.clone()).generate();
        assert_eq!(corpus.len(), cfg.n_prescriptions);
        // Coverage pass guarantees every id appears.
        let mut seen_s = vec![false; cfg.n_symptoms];
        let mut seen_h = vec![false; cfg.n_herbs];
        for p in corpus.prescriptions() {
            for &s in p.symptoms() {
                seen_s[s as usize] = true;
            }
            for &h in p.herbs() {
                seen_h[h as usize] = true;
            }
        }
        assert!(seen_s.iter().all(|&b| b), "all symptoms must appear");
        assert!(seen_h.iter().all(|&b| b), "all herbs must appear");
    }

    #[test]
    fn set_sizes_respect_ranges() {
        let cfg = GeneratorConfig::tiny_scale();
        let corpus = SyndromeModel::new(cfg.clone()).generate();
        for p in corpus.prescriptions() {
            // Coverage repair can push a set one past the configured max.
            assert!(p.symptoms().len() >= cfg.symptoms_per_rx.0.min(1));
            assert!(p.symptoms().len() <= cfg.symptoms_per_rx.1 + 1);
            assert!(p.herbs().len() <= cfg.herbs_per_rx.1 + 1);
            assert!(!p.herbs().is_empty());
        }
    }

    #[test]
    fn herb_frequencies_are_heavy_tailed() {
        let cfg = GeneratorConfig::tiny_scale();
        let corpus = SyndromeModel::new(cfg.clone()).generate();
        let mut freq = vec![0u32; cfg.n_herbs];
        for p in corpus.prescriptions() {
            for &h in p.herbs() {
                freq[h as usize] += 1;
            }
        }
        freq.sort_unstable_by(|a, b| b.cmp(a));
        // The head herb must be much more frequent than the median herb —
        // the Fig. 5 imbalance the weighted loss corrects for.
        let head = freq[0] as f64;
        let median = freq[cfg.n_herbs / 2].max(1) as f64;
        assert!(head / median > 3.0, "head {head} median {median}");
    }

    #[test]
    fn symptoms_shared_across_syndromes() {
        let model = SyndromeModel::new(GeneratorConfig::tiny_scale());
        let mut membership = vec![0usize; model.config().n_symptoms];
        for syn in model.syndromes() {
            for &s in &syn.symptoms {
                membership[s as usize] += 1;
            }
        }
        let shared = membership.iter().filter(|&&m| m >= 2).count();
        assert!(
            shared * 2 >= model.config().n_symptoms / 2,
            "too few ambiguous symptoms: {shared}"
        );
    }

    #[test]
    fn sample_reports_active_syndromes() {
        let model = SyndromeModel::new(GeneratorConfig::tiny_scale());
        let mut rng = StdRng::seed_from_u64(5);
        let mut saw_two = false;
        for _ in 0..50 {
            let (p, active) = model.sample_with_syndromes(&mut rng);
            assert!(!active.is_empty() && active.len() <= 2);
            assert!(!p.symptoms().is_empty());
            saw_two |= active.len() == 2;
        }
        assert!(saw_two, "second-syndrome path never exercised");
    }

    #[test]
    #[should_panic(expected = "incompatible with support")]
    fn validate_rejects_bad_ranges() {
        let mut cfg = GeneratorConfig::tiny_scale();
        cfg.symptoms_per_rx = (2, 100);
        let _ = SyndromeModel::new(cfg);
    }

    #[test]
    fn paper_scale_matches_table_ii() {
        let cfg = GeneratorConfig::paper_scale();
        assert_eq!(cfg.n_prescriptions, 26_360);
        assert_eq!(cfg.n_symptoms, 360);
        assert_eq!(cfg.n_herbs, 753);
    }
}
