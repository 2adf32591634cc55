//! Frozen-path parity: the serving-side scorer must reproduce the full
//! `Recommender` forward pass, because freezing only *reorders* the
//! computation (materialize embeddings once, then score) — it never
//! approximates it. The two-stage ranking must in turn reproduce the
//! one-stage float ranking bit for bit, on every int8 tier the host has.

use std::io::Write;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smgcn_core::prelude::*;
use smgcn_data::{GeneratorConfig, SyndromeModel};
use smgcn_graph::{GraphOperators, SynergyThresholds};
use smgcn_serve::cache::QueryKey;
use smgcn_serve::{FrozenModel, LruCache};
use smgcn_tensor::{Int8Tier, Matrix};

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

/// A seeded random model of `herbs x d`, with the SI head or without it
/// (then queries are signed), and the near ties ranking has to get right:
/// herb 0 is all zeros, herbs 1 and 2 repeat herb 3, and herb 4 is herb 3
/// one ulp up in one place. Symptom 0 is all zeros, and the head's bias
/// is negative, so a query of symptom 0 alone induces all zeros (every
/// score ties).
fn near_tie_model(seed: u64, herbs: usize, d: usize, head: bool) -> FrozenModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut uniform = |rows: usize, cols: usize, scale: f32| {
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0) * scale)
    };
    let mut symptoms = uniform(40, d, 1.0);
    symptoms.row_mut(0).fill(0.0);
    let mut herb_rows = uniform(herbs, d, 0.5);
    herb_rows.row_mut(0).fill(0.0);
    let copy = herb_rows.row(3).to_vec();
    for r in [1, 2, 4] {
        herb_rows.row_mut(r).copy_from_slice(&copy);
    }
    herb_rows.row_mut(4)[d / 2] = copy[d / 2].next_up();
    let si = head.then(|| {
        let w = uniform(d, d, 1.0 / (d as f32).sqrt());
        let b = Matrix::from_fn(1, d, |_, c| -0.01 - 0.001 * c as f32);
        (w, b)
    });
    FrozenModel::from_parts(symptoms, herb_rows, si).expect("consistent parts")
}

fn tier_name(tier: Option<Int8Tier>) -> &'static str {
    match tier {
        Some(Int8Tier::Avx512Vnni) => "VNNI-512",
        Some(Int8Tier::AvxVnni) => "AVX-VNNI",
        _ => "none",
    }
}

/// The two-stage `rank_batch` equals the one-stage float ranking bit for
/// bit: seeded models with and without the head, near-tie herbs, an
/// all-zero query, every k from none to all herbs (mixed in one batch),
/// batch heights 1-70 for ragged tile edges, on every int8 tier here.
#[test]
fn two_stages_rank_exactly_as_one() {
    let fastest = Int8Tier::detect();
    let fastest = (fastest != Int8Tier::Scalar).then_some(fastest);
    // Written past the harness's capture, so that every log says which
    // stage-1 kernel ran.
    let _ = writeln!(
        std::io::stderr(),
        "frozen_parity: stage-1 kernel {} (tiers checked: {:?})",
        tier_name(fastest),
        Int8Tier::available()
    );
    let mut rng = StdRng::seed_from_u64(46);
    // The paper's shape, then one large enough that a batch of 64 or
    // more splits both stages over two threads.
    let models = [
        (1, 700, 37, true),
        (2, 700, 37, false),
        (3, 1500, 64, true),
        (4, 257, 8, false),
        (6, 753, 256, true),
        (5, 4200, 64, false),
    ];
    for (seed, herbs, d, head) in models {
        let model = near_tie_model(seed, herbs, d, head);
        let one = model.clone().with_stage_one(None);
        assert_eq!(one.stage_one(), None);
        let heights: Vec<usize> = if herbs > 2000 {
            vec![1, 9, 64, 70]
        } else {
            (1..=70).step_by(3).collect()
        };
        for tier in Int8Tier::available() {
            let two = model.clone().with_stage_one(Some(tier));
            assert_eq!(two.stage_one(), Some(tier), "herbs have bounds");
            let step = if tier == Int8Tier::Scalar { 4 } else { 1 };
            for &height in heights.iter().step_by(step) {
                let sets: Vec<Vec<u32>> = (0..height)
                    .map(|q| match q % 11 {
                        0 => vec![0],
                        _ => (0..rng.gen_range(1usize..6))
                            .map(|_| rng.gen_range(0u32..40))
                            .collect(),
                    })
                    .collect();
                let sets: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
                let ks: Vec<usize> = (0..height)
                    .map(|_| [0, 1, 10, herbs - 1, herbs, 100][rng.gen_range(0usize..6)])
                    .collect();
                assert_eq!(
                    two.rank_batch(&sets, &ks).unwrap(),
                    one.rank_batch(&sets, &ks).unwrap(),
                    "{tier:?} seed {seed} head {head} height {height} ks {ks:?}"
                );
            }
        }
    }
}

/// Exact ties at the cut: 8 herbs score above zero, 40 score exactly
/// zero (all-zero rows) and the rest below, so a top-k that ends among
/// the zeros must keep every zero herb up to the cut, lowest ids first.
/// Their bounds are a hair either side of zero, so a second stage that
/// dropped a candidate whose upper bound only just reaches the floor
/// would lose them.
#[test]
fn zero_scores_at_the_cut_are_kept_in_id_order() {
    let (herbs, d) = (700, 33);
    let mut rng = StdRng::seed_from_u64(7);
    let symptoms = Matrix::from_fn(20, d, |_, _| rng.gen_range(0.1f32..1.0));
    let herb_rows = Matrix::from_fn(herbs, d, |r, _| match r {
        0..8 => rng.gen_range(0.1f32..1.0),
        8..48 => 0.0,
        _ => -rng.gen_range(0.1f32..1.0),
    });
    let model = FrozenModel::from_parts(symptoms, herb_rows, None).expect("consistent parts");
    let one = model.clone().with_stage_one(None);
    let sets: Vec<Vec<u32>> = (0..20u32).map(|q| vec![q, (q * 7 + 3) % 20]).collect();
    let sets: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
    for tier in Int8Tier::available() {
        let two = model.clone().with_stage_one(Some(tier));
        for k in [8, 9, 13, 47, 48, 49, 60] {
            let ks = vec![k; sets.len()];
            let want = one.rank_batch(&sets, &ks).unwrap();
            assert_eq!(two.rank_batch(&sets, &ks).unwrap(), want, "{tier:?} k {k}");
            if (9..=48).contains(&k) {
                let zeros: Vec<u32> = (8..k as u32).collect();
                assert!(want.iter().all(|r| r[8..] == zeros[..]), "k {k}");
            }
        }
    }
}

/// A model with a NaN or an infinity anywhere is refused at the door,
/// with the tensor and the row named.
#[test]
fn non_finite_parts_are_refused_by_name_and_row() {
    let ok = |r, c| ((r * 3 + c) % 5) as f32 - 2.0;
    for (bad, name) in [
        (0, "frozen.symptoms"),
        (1, "frozen.herbs"),
        (2, "frozen.si.w_mlp"),
        (3, "frozen.si.b_mlp"),
    ] {
        for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut parts = [
                Matrix::from_fn(6, 4, ok),
                Matrix::from_fn(9, 4, ok),
                Matrix::from_fn(4, 4, ok),
                Matrix::from_fn(1, 4, ok),
            ];
            let row = parts[bad].rows() - 1;
            parts[bad].row_mut(row)[2] = value;
            let [s, h, w, b] = parts;
            let err = FrozenModel::from_parts(s, h, Some((w, b))).unwrap_err();
            let text = err.to_string();
            assert!(
                text.contains(name) && text.contains(&format!("row {row}")),
                "{text}"
            );
        }
    }
}
