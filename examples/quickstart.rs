//! Quickstart: generate a corpus, build the three graphs, train SMGCN,
//! and recommend herbs for a held-out symptom set.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use smgcn_repro::prelude::*;

fn main() {
    // 1. A synthetic TCM prescription corpus (latent-syndrome generative
    //    model; README.md, "The corpus", on the dataset substitution).
    let corpus = SyndromeModel::new(GeneratorConfig::smoke_scale()).generate();
    let split = train_test_split_fraction(&corpus, PAPER_TEST_FRACTION, 2020);
    println!(
        "corpus: {} prescriptions over {} symptoms and {} herbs ({} train / {} test)",
        corpus.len(),
        corpus.n_symptoms(),
        corpus.n_herbs(),
        split.train.len(),
        split.test.len()
    );

    // 2. The three graphs of the paper: symptom–herb SH, and the
    //    thresholded synergy graphs SS and HH (§IV-A/IV-B).
    let ops = GraphOperators::from_records(
        split.train.records(),
        corpus.n_symptoms(),
        corpus.n_herbs(),
        SynergyThresholds { x_s: 5, x_h: 30 },
    );
    println!(
        "graphs: SH {} edges | SS {} edges | HH {} edges",
        ops.sh_raw.nnz(),
        ops.ss_sum.forward().nnz() / 2,
        ops.hh_sum.forward().nnz() / 2
    );

    // 3. SMGCN: Bipar-GCN + Synergy Graph Encoding + Syndrome Induction.
    let model_cfg = ModelConfig::smgcn().smoke();
    let mut model = Recommender::smgcn(&ops, &model_cfg, 42);
    let train_cfg = TrainConfig {
        epochs: 20,
        batch_size: 256,
        learning_rate: 3e-3,
        l2_lambda: 1e-4,
        ..TrainConfig::smgcn()
    };
    println!("training SMGCN for {} epochs...", train_cfg.epochs);
    let history = train_with_callback(&mut model, &split.train, &train_cfg, |stats, _| {
        if stats.epoch % 5 == 0 {
            println!("  epoch {:>2}: loss {:.2}", stats.epoch, stats.mean_loss);
        }
    });
    println!("final loss: {:.2}", history.final_loss());

    // 4. Recommend for a held-out prescription and compare with the
    //    ground-truth herb set (the paper's greedy top-K inference, §IV-E).
    let case = &split.test.prescriptions()[0];
    let symptom_names: Vec<&str> = case
        .symptoms()
        .iter()
        .map(|&s| corpus.symptom_vocab().name(s))
        .collect();
    println!("\npatient symptoms: {}", symptom_names.join(", "));
    let top = model.recommend(case.symptoms(), 10);
    println!("top-10 recommended herbs ([*] = in the ground-truth prescription):");
    for (rank, &h) in top.iter().enumerate() {
        let marker = if case.contains_herb(h) { "[*]" } else { "   " };
        println!(
            "  {:>2}. {marker} {}",
            rank + 1,
            corpus.herb_vocab().name(h)
        );
    }
    let hits = top.iter().filter(|&&h| case.contains_herb(h)).count();
    println!(
        "overlap: {hits}/10 (ground-truth set has {} herbs)",
        case.herbs().len()
    );
}
