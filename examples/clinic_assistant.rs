//! Clinic assistant: the paper's Fig. 1 workflow end to end.
//!
//! Reproduces the Guipi Decoction scenario from the paper's introduction: a
//! patient presents with night sweat, pale tongue, a small weak pulse and
//! amnesia; the system induces an implicit syndrome representation and
//! recommends a herb set. Compares SMGCN against the HC-KGETM topic model
//! and the popularity floor on the same case.
//!
//! ```sh
//! cargo run --release --example clinic_assistant
//! ```

use smgcn_repro::prelude::*;

/// The Fig. 1 symptom presentation (these names seed the vocabulary, so
/// they always resolve).
const PATIENT_SYMPTOMS: [&str; 4] = [
    "daohan (night sweat)",
    "shedan (pale tongue)",
    "maixiruo (small weak pulse)",
    "jianwang (amnesia)",
];

fn main() {
    let prepared = prepare(Scale::Smoke, 2020);
    let corpus = &prepared.train;

    let symptom_ids: Vec<u32> = PATIENT_SYMPTOMS
        .iter()
        .map(|name| {
            corpus
                .symptom_vocab()
                .id(name)
                .unwrap_or_else(|| panic!("seeded symptom {name:?} missing from vocabulary"))
        })
        .collect();
    println!("patient presents with:");
    for name in PATIENT_SYMPTOMS {
        println!("  - {name}");
    }

    // Train the recommender (smoke scale: ~seconds).
    let model_cfg = Scale::Smoke.model_config();
    let train_cfg = smgcn_eval::train_config_for(ModelKind::Smgcn, Scale::Smoke);
    let mut model = build_model(ModelKind::Smgcn, &prepared.ops, &model_cfg, 42);
    println!("\ntraining SMGCN ({} epochs)...", train_cfg.epochs);
    train(&mut model, corpus, &train_cfg);

    // The HC-KGETM comparison the paper's related work motivates.
    println!("training HC-KGETM (topic model + TransE)...");
    let kgetm = HcKgetm::train(corpus, &prepared.ops, &KgetmConfig::smoke());
    let popularity = PopularityRanker::from_corpus(corpus);

    println!("\ntop-8 herb recommendations per model:");
    let smgcn_top = model.recommend(&symptom_ids, 8);
    let kgetm_top = kgetm.recommend(&symptom_ids, 8);
    let pop_top = &popularity.rank_sets(&[&symptom_ids], 8)[0];

    println!(
        "{:<4} {:<30} {:<30} {:<30}",
        "rank", "SMGCN", "HC-KGETM", "Popularity"
    );
    for i in 0..8 {
        println!(
            "{:<4} {:<30} {:<30} {:<30}",
            i + 1,
            corpus.herb_vocab().name(smgcn_top[i]),
            corpus.herb_vocab().name(kgetm_top[i]),
            corpus.herb_vocab().name(pop_top[i]),
        );
    }

    // The syndrome-induction argument: a different presentation (an
    // exterior wind-heat picture instead of the deficiency picture above)
    // must induce a different syndrome and therefore different herbs.
    let wind_heat: Vec<u32> = [
        "fare (fever)",
        "kesou (cough)",
        "touteng (headache)",
        "kouke (thirst)",
    ]
    .iter()
    .map(|name| corpus.symptom_vocab().id(name).expect("seeded symptom"))
    .collect();
    let altered_top = model.recommend(&wind_heat, 8);
    let overlap = smgcn_top.iter().filter(|h| altered_top.contains(h)).count();
    println!(
        "\na wind-heat presentation (fever, cough, headache, thirst) shares {overlap}/8 \
         herbs with the\ndeficiency presentation above; the difference comes from the \
         induced syndrome (shared\nherbs are the corpus's ubiquitous base herbs, cf. Fig. 5)."
    );
}
