//! Frozen-path parity: the serving-side scorer must reproduce the full
//! `Recommender` forward pass, because freezing only *reorders* the
//! computation (materialize embeddings once, then score) — it never
//! approximates it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smgcn_core::prelude::*;
use smgcn_data::{GeneratorConfig, SyndromeModel};
use smgcn_graph::{GraphOperators, SynergyThresholds};
use smgcn_serve::cache::QueryKey;
use smgcn_serve::{FrozenModel, LruCache};

/// Smoke-scale-ish corpus, graphs and a (briefly) trained model.
fn trained_model() -> (smgcn_data::Corpus, Recommender) {
    let corpus = SyndromeModel::new(GeneratorConfig::tiny_scale()).generate();
    let ops = GraphOperators::from_records(
        corpus.records(),
        corpus.n_symptoms(),
        corpus.n_herbs(),
        SynergyThresholds { x_s: 1, x_h: 1 },
    );
    let config = ModelConfig {
        embedding_dim: 16,
        layer_dims: vec![16, 24],
        ..ModelConfig::smgcn()
    };
    let mut model = Recommender::smgcn(&ops, &config, 42);
    // A couple of epochs so the parameters are not just their init values.
    let train_cfg = TrainConfig {
        epochs: 2,
        batch_size: 64,
        ..TrainConfig::smoke()
    };
    train(&mut model, &corpus, &train_cfg);
    (corpus, model)
}

fn query_sets(corpus: &smgcn_data::Corpus, n: usize) -> Vec<Vec<u32>> {
    corpus
        .prescriptions()
        .iter()
        .take(n)
        .map(|p| p.symptoms().to_vec())
        .collect()
}

#[test]
fn frozen_scores_match_full_forward_within_1e6() {
    let (corpus, model) = trained_model();
    let frozen = FrozenModel::from_recommender(&model);
    assert_eq!(frozen.n_symptoms(), model.n_symptoms());
    assert_eq!(frozen.n_herbs(), model.n_herbs());
    assert!(frozen.has_si_mlp(), "full SMGCN freezes with its SI head");

    let sets = query_sets(&corpus, 64);
    let refs: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
    let full = model.predict(&refs);
    let fast = frozen.score_batch(&refs).expect("valid query sets");
    assert_eq!(full.shape(), fast.shape());
    let max_diff = full.max_abs_diff(&fast);
    assert!(
        max_diff <= 1e-6,
        "frozen path drifted from full forward: {max_diff:e}"
    );
}

#[test]
fn frozen_rankings_match_full_model_rankings() {
    let (corpus, model) = trained_model();
    let frozen = FrozenModel::from_recommender(&model);
    for set in query_sets(&corpus, 32) {
        for k in [1usize, 5, 10] {
            assert_eq!(
                frozen.recommend(&set, k).expect("valid set"),
                model.recommend(&set, k),
                "set {set:?} k {k}"
            );
        }
    }
}

#[test]
fn parity_survives_save_load_round_trip() {
    let (corpus, model) = trained_model();
    let frozen = FrozenModel::from_recommender(&model);
    let mut buf = Vec::new();
    frozen.write_to(&mut buf).unwrap();
    let loaded = FrozenModel::read_from(buf.as_slice()).unwrap();
    let sets = query_sets(&corpus, 16);
    let refs: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
    let full = model.predict(&refs);
    let reloaded = loaded.score_batch(&refs).unwrap();
    assert!(full.max_abs_diff(&reloaded) <= 1e-6);
}

#[test]
fn ablated_model_without_mlp_freezes_and_matches() {
    let corpus = SyndromeModel::new(GeneratorConfig::tiny_scale()).generate();
    let ops = GraphOperators::from_records(
        corpus.records(),
        corpus.n_symptoms(),
        corpus.n_herbs(),
        SynergyThresholds { x_s: 1, x_h: 1 },
    );
    let config = ModelConfig {
        embedding_dim: 8,
        layer_dims: vec![8],
        use_si_mlp: false,
        use_sge: false,
        ..ModelConfig::smgcn()
    };
    let model = Recommender::smgcn(&ops, &config, 7);
    let frozen = FrozenModel::from_recommender(&model);
    assert!(
        !frozen.has_si_mlp(),
        "average pooling freezes without a head"
    );
    let sets = query_sets(&corpus, 8);
    let refs: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
    assert!(
        model
            .predict(&refs)
            .max_abs_diff(&frozen.score_batch(&refs).unwrap())
            <= 1e-6
    );
}

/// LRU property: a cache hit returns the identical ranking, and the cache
/// never exceeds its capacity however many distinct queries stream by.
#[test]
fn lru_cached_rankings_are_identical_and_bounded() {
    let (corpus, model) = trained_model();
    let frozen = FrozenModel::from_recommender(&model);
    let capacity = 8;
    let mut cache: LruCache<QueryKey, Vec<u32>> = LruCache::new(capacity);
    let mut rng = StdRng::seed_from_u64(99);
    let sets = query_sets(&corpus, 40);
    let (mut hits, mut misses) = (0, 0);
    for step in 0..400 {
        // Zipf-ish revisiting: favor a few hot sets, occasionally permute
        // the symptom order (must hit the same entry).
        let idx = if rng.gen_bool(0.7) {
            rng.gen_range(0..5)
        } else {
            rng.gen_range(0..sets.len())
        };
        let mut query = sets[idx].clone();
        if rng.gen_bool(0.5) {
            query.reverse();
        }
        let k = 5;
        let key = QueryKey::new(&query, k);
        let fresh = frozen.recommend(&query, k).unwrap();
        match cache.get(&key) {
            Some(hit) => {
                hits += 1;
                assert_eq!(
                    hit, &fresh,
                    "step {step}: cache hit diverged from recompute"
                );
            }
            None => {
                misses += 1;
                cache.insert(key, fresh);
            }
        }
        assert!(
            cache.len() <= capacity,
            "step {step}: eviction failed to bound size"
        );
    }
    assert!(
        hits > 0 && misses > 0,
        "workload should exercise both paths"
    );
}
