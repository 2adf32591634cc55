//! TransE (Bordes et al., NIPS 2013) over a TCM knowledge graph derived
//! from prescription co-occurrence.
//!
//! HC-KGETM (ref. \[13\]) regularises its topic model with TransE embeddings of a
//! curated TCM knowledge graph. That graph is proprietary, so the
//! substitute (README.md, "The corpus") takes triples from the corpus:
//!
//! - `(s, treats-with, h)` for bipartite edges,
//! - `(s, co-manifests, s')` for symptom synergy edges,
//! - `(h, compatible-with, h')` for herb synergy edges,
//!
//! and trains standard TransE: margin ranking on `‖e_head + r − e_tail‖²`
//! with uniform negative sampling.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smgcn_graph::GraphOperators;

/// Relations of the derived TCM knowledge graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// Symptom → herb treatment edge.
    TreatsWith = 0,
    /// Symptom ↔ symptom co-manifestation.
    CoManifests = 1,
    /// Herb ↔ herb compatibility.
    CompatibleWith = 2,
}

/// A knowledge-graph triple `(head, relation, tail)` over the joint entity
/// space (symptoms first, then herbs).
pub type Triple = (u32, Relation, u32);

/// Extracts the derived knowledge graph from the corpus operators.
pub fn derive_triples(ops: &GraphOperators) -> Vec<Triple> {
    let s_base = 0u32;
    let h_base = ops.n_symptoms as u32;
    let mut triples = Vec::new();
    for (s, h, _) in ops.sh_raw.iter() {
        triples.push((s_base + s, Relation::TreatsWith, h_base + h));
    }
    for (a, b, _) in ops.ss_sum.forward().iter() {
        if a < b {
            triples.push((s_base + a, Relation::CoManifests, s_base + b));
        }
    }
    for (a, b, _) in ops.hh_sum.forward().iter() {
        if a < b {
            triples.push((h_base + a, Relation::CompatibleWith, h_base + b));
        }
    }
    triples
}

/// TransE hyperparameters.
#[derive(Clone, Debug)]
pub struct TransEConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Margin `γ` of the ranking loss.
    pub margin: f32,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Training epochs over the triple set.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransEConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            margin: 1.0,
            learning_rate: 0.01,
            epochs: 50,
            seed: 17,
        }
    }
}

/// Trained TransE embeddings over the joint entity space.
pub struct TransE {
    /// `(S + H) x dim`, row per entity.
    entities: Vec<Vec<f32>>,
    /// One vector per relation.
    relations: Vec<Vec<f32>>,
    n_entities: usize,
    dim: usize,
}

fn normalize(v: &mut [f32]) {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1.0 {
        for x in v {
            *x /= norm;
        }
    }
}

impl TransE {
    /// Trains on the triple set with margin-based SGD.
    ///
    /// # Panics
    /// Panics if the triple set is empty.
    pub fn train(triples: &[Triple], n_entities: usize, config: &TransEConfig) -> Self {
        assert!(!triples.is_empty(), "TransE: empty triple set");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let bound = 6.0 / (config.dim as f32).sqrt();
        let mut entities: Vec<Vec<f32>> = (0..n_entities)
            .map(|_| {
                (0..config.dim)
                    .map(|_| rng.gen_range(-bound..bound))
                    .collect()
            })
            .collect();
        let mut relations: Vec<Vec<f32>> = (0..3)
            .map(|_| {
                let mut r: Vec<f32> = (0..config.dim)
                    .map(|_| rng.gen_range(-bound..bound))
                    .collect();
                normalize(&mut r);
                r
            })
            .collect();

        let lr = config.learning_rate;
        for _ in 0..config.epochs {
            for &(head, rel, tail) in triples {
                // Corrupt head or tail uniformly.
                let corrupt_head = rng.gen_bool(0.5);
                let neg_entity = rng.gen_range(0..n_entities as u32);
                let (nh, nt) = if corrupt_head {
                    (neg_entity, tail)
                } else {
                    (head, neg_entity)
                };
                let r = rel as usize;
                let pos = distance_sq(&entities, &relations, head, r, tail, config.dim);
                let neg = distance_sq(&entities, &relations, nh, r, nt, config.dim);
                let violation = pos + config.margin - neg;
                if violation <= 0.0 {
                    continue;
                }
                // Gradient of ‖h + r − t‖²: 2(h + r − t) wrt h and r, −2(…) wrt t.
                for d in 0..config.dim {
                    let gpos = 2.0
                        * (entities[head as usize][d] + relations[r][d]
                            - entities[tail as usize][d]);
                    let gneg = 2.0
                        * (entities[nh as usize][d] + relations[r][d] - entities[nt as usize][d]);
                    entities[head as usize][d] -= lr * gpos;
                    entities[tail as usize][d] += lr * gpos;
                    relations[r][d] -= lr * (gpos - gneg);
                    entities[nh as usize][d] += lr * gneg;
                    entities[nt as usize][d] -= lr * gneg;
                }
                for id in [head, tail, nh, nt] {
                    normalize(&mut entities[id as usize]);
                }
            }
        }
        Self {
            entities,
            relations,
            n_entities,
            dim: config.dim,
        }
    }

    /// Number of entities.
    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Squared translation distance `‖e_head + r − e_tail‖²` — lower means
    /// the triple is more plausible.
    pub fn score(&self, head: u32, rel: Relation, tail: u32) -> f32 {
        distance_sq(
            &self.entities,
            &self.relations,
            head,
            rel as usize,
            tail,
            self.dim,
        )
    }

    /// Plausibility of `(symptom, treats-with, herb)` as a *similarity*
    /// (negated distance), for fusing with topic evidence.
    pub fn treats_similarity(&self, symptom: u32, herb_entity: u32) -> f32 {
        -self.score(symptom, Relation::TreatsWith, herb_entity)
    }
}

fn distance_sq(
    entities: &[Vec<f32>],
    relations: &[Vec<f32>],
    head: u32,
    rel: usize,
    tail: u32,
    dim: usize,
) -> f32 {
    let h = &entities[head as usize];
    let r = &relations[rel];
    let t = &entities[tail as usize];
    (0..dim).map(|d| (h[d] + r[d] - t[d]).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smgcn_graph::SynergyThresholds;

    fn toy_ops() -> GraphOperators {
        let records: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![0, 1], vec![0, 1]),
            (vec![0, 1], vec![0, 1]),
            (vec![2, 3], vec![2, 3]),
            (vec![2, 3], vec![2, 3]),
        ];
        GraphOperators::from_records(
            records.iter().map(|(s, h)| (s.as_slice(), h.as_slice())),
            4,
            4,
            SynergyThresholds { x_s: 0, x_h: 0 },
        )
    }

    #[test]
    fn derive_covers_all_relations() {
        let triples = derive_triples(&toy_ops());
        let treats = triples
            .iter()
            .filter(|t| t.1 == Relation::TreatsWith)
            .count();
        let manifests = triples
            .iter()
            .filter(|t| t.1 == Relation::CoManifests)
            .count();
        let compat = triples
            .iter()
            .filter(|t| t.1 == Relation::CompatibleWith)
            .count();
        assert_eq!(treats, 8, "4 bipartite edges per block pair");
        assert_eq!(manifests, 2, "(0,1) and (2,3)");
        assert_eq!(compat, 2);
    }

    #[test]
    fn training_separates_blocks() {
        let ops = toy_ops();
        let triples = derive_triples(&ops);
        let cfg = TransEConfig {
            dim: 16,
            epochs: 200,
            ..TransEConfig::default()
        };
        let model = TransE::train(&triples, 8, &cfg);
        // Observed treat pairs must be more plausible than cross-block ones.
        let h_base = 4u32;
        let observed = model.treats_similarity(0, h_base);
        let cross = model.treats_similarity(0, h_base + 2);
        assert!(
            observed > cross,
            "observed pair {observed} should beat cross-block {cross}"
        );
    }

    #[test]
    fn entity_norms_bounded() {
        let ops = toy_ops();
        let triples = derive_triples(&ops);
        let model = TransE::train(
            &triples,
            8,
            &TransEConfig {
                dim: 8,
                epochs: 30,
                ..Default::default()
            },
        );
        for e in &model.entities {
            let norm = e.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!(norm <= 1.0 + 1e-4, "norm {norm}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ops = toy_ops();
        let triples = derive_triples(&ops);
        let cfg = TransEConfig {
            dim: 8,
            epochs: 10,
            ..Default::default()
        };
        let a = TransE::train(&triples, 8, &cfg);
        let b = TransE::train(&triples, 8, &cfg);
        assert_eq!(
            a.score(0, Relation::TreatsWith, 5),
            b.score(0, Relation::TreatsWith, 5)
        );
    }

    #[test]
    #[should_panic(expected = "empty triple set")]
    fn empty_triples_rejected() {
        let _ = TransE::train(&[], 4, &TransEConfig::default());
    }
}
