//! `smgcn` — command-line interface to the herb recommender.
//!
//! ```text
//! smgcn generate  --out corpus.tsv [--scale smoke|paper] [--seed N]
//! smgcn train     --corpus corpus.tsv --out model.smgt [--model smgcn|...]
//!                 [--epochs N] [--lr F] [--l2 F] [--seed N]
//! smgcn eval      --corpus corpus.tsv --model-file model.smgt [--model ...]
//! smgcn freeze    --corpus corpus.tsv --model-file model.smgt --out frozen.smgt
//! smgcn recommend --corpus corpus.tsv --model-file FILE
//!                 --symptoms "name1,name2,..." [--k N]
//! smgcn serve     --corpus corpus.tsv --model-file FILE [--addr HOST:PORT]
//!                 [--connections N] [--cache N] [--batch-max N]
//!                 [--tsdb FILE] [--scrape-ms N]
//! smgcn ingest    --corpus corpus.tsv --wal wal.log
//!                 --add "s1,s2 => h1,h2 ; s3 => h4" [--allow-new true|false]
//! smgcn refresh   --corpus corpus.tsv --wal wal.log --model-file model.smgt
//!                 --out model2.smgt [--frozen-out frozen2.smgt]
//!                 [--corpus-out FILE] [--epochs N] [--scale ...] [--seed N]
//!                 [--replicas HOST:PORT,...]
//! smgcn route     --replicas HOST:PORT,HOST:PORT[,...] [--addr HOST:PORT]
//!                 [--connections N] [--replica-conns N] [--probe-ms N]
//!                 [--slow-p99-ms F] [--tsdb FILE] [--scrape-ms N]
//! smgcn cluster-refresh --replicas HOST:PORT,... --model-file frozen.smgt
//!                 --corpus corpus.tsv
//! smgcn loadgen   <scenario|all> [--seed N] [--measure-ms N] [--workers N]
//!                 [--k N] [--storm-conns N] [--out FILE] [--out-dir DIR]
//!                 [--plan true]
//! smgcn experiment publish --addr HOST:PORT --variant NAME
//!                 --corpus corpus.tsv --model-file FILE
//! smgcn experiment install --addr HOST:PORT --split "control:90,cand:10" [--seed N]
//! smgcn experiment halt|status --addr HOST:PORT
//! smgcn experiment compare --addr HOST:PORT [--out FILE]
//! smgcn promote   --addr HOST:PORT --variant NAME
//!                 [--max-error-rate F] [--max-p99-delta F] [--min-samples N]
//! smgcn top       --addr HOST:PORT [--interval-ms N] [--iterations N]
//! smgcn profile   --addr HOST:PORT
//! smgcn query     --tsdb FILE [--series SELECTOR] [--op last|delta|rate|avg|max|quantile]
//!                 [--from MS] [--to MS] [--q F]
//! ```
//!
//! `ingest` validates prescriptions against the corpus vocabularies
//! (appending unseen names with stable ids unless `--allow-new false`),
//! deduplicates, and appends them to a write-ahead log — the corpus file
//! itself is untouched. `refresh` replays that WAL, applies incremental
//! graph deltas, warm-starts the checkpointed model and fine-tunes it a
//! few epochs, then writes the updated checkpoint, the re-frozen serving
//! model and the merged corpus (defaulting over the input corpus), and
//! truncates the WAL. The online loop treats the whole corpus file as
//! live production data; held-out evaluation stays an offline concern
//! (`smgcn eval`).
//!
//! The training checkpoint carries parameters only; `train`, `eval`,
//! `freeze` and the full-model fallbacks must agree on `--model` and
//! `--scale` so the rebuilt architecture matches (mismatches are rejected
//! by name/shape checks, never silently).
//!
//! `recommend` and `serve` accept either kind of `--model-file`: a frozen
//! model (from `smgcn freeze`) is loaded directly — no graph rebuild, no
//! convolutions — while a training checkpoint is rebuilt and frozen
//! in-process. Both go through the `smgcn-serve` scorer.
//!
//! `route` fronts N running `smgcn serve` replicas with one endpoint:
//! consistent-hash routing by symptom-set key (replica caches stay hot),
//! health probes with backoff ejection, and retry-on-next-replica
//! failover. `cluster-refresh` rolls a frozen model across the fleet one
//! replica at a time via the `{"op":"publish"}` admin verb; `refresh
//! --replicas` does the same with the generation a WAL refresh just
//! produced, closing the data→model→fleet loop from one command.
//!
//! `loadgen` drives the serving stack through a named load/chaos
//! scenario (or the whole suite with `all`): a seeded deterministic
//! request schedule against an in-process topology, with per-scenario
//! SLO assertions (p99 budget, zero error-budget burn, generation
//! consistency). Exits nonzero on any SLO violation; `--plan true`
//! prints the byte-reproducible workload plan without running. Each run
//! also writes the front-end's final `{"op":"metrics"}` snapshot and
//! `{"op":"events"}` journal next to the report
//! (`METRICS_<scenario>.json`, `EVENTS_<scenario>.json`). The `fault-storm`
//! scenario additionally installs its seeded fault-injection plan
//! (link delays/drops, a corrupted publish) for the run.
//!
//! `experiment` drives online A/B through a router: `publish` rolls a
//! candidate model into a named variant slot fleet-wide, `install`
//! starts (or sticky-preservingly updates) a weighted traffic split,
//! `compare` prints the per-variant qps/p99/error-rate table plus
//! team-draft interleaving over the journaled duel samples, and `halt`
//! collapses all traffic back to control in one command. `promote`
//! checks the comparison report against error-rate / p99-delta /
//! sample-count guardrails, rolls the candidate into every replica's
//! control slot, and halts the split.
//!
//! Setting `SMGCN_FAULT_SEED` to a nonzero integer arms the canonical
//! storm plan (`smgcn_faults::FaultPlan::storm`) in the launched
//! process — a chaos drill for `serve`/`route` that injects WAL write
//! failures, artifact corruption, and link faults deterministically
//! from the seed.
//!
//! `top` is the ops console: it polls `{"op":"metrics"}` on a server or
//! router every `--interval-ms` and renders a live fleet table — one
//! row per replica (generation, qps, p99, cache hit rate, sheds) plus
//! the merged fleet row and the tail of burn-rate alert events from the
//! journal. `--iterations N` stops after N frames (0, the default, runs
//! until interrupted).
//!
//! `--tsdb FILE` on `serve`/`route` starts a self-scrape sidecar: the
//! process polls its own `{"op":"metrics"}` every `--scrape-ms`
//! (default 1000), appends each snapshot to an append-only,
//! crash-tolerant on-disk history, and evaluates Google-SRE multi-window
//! burn-rate alert rules live, journaling `alert`/`alert_resolved`
//! events. `smgcn query` reads such a file back (`--series` selectors
//! match labeled variants; `--op` picks the window aggregation), and
//! `smgcn profile` fetches the continuous profiler's folded stacks via
//! `{"op":"profile"}` — routers return the fleet-merged view.

use std::collections::HashMap;
use std::process::exit;

use smgcn_repro::data::io as corpus_io;
use smgcn_repro::data::train_test_split_fraction;
use smgcn_repro::eval::train_config_for;
use smgcn_repro::graph::GraphOperators;
use smgcn_repro::prelude::*;

fn usage_text() -> String {
    use smgcn_repro::loadgen::ScenarioKind;
    let scenarios: Vec<&str> = ScenarioKind::all().iter().map(|k| k.name()).collect();
    format!(
        "usage:\n  smgcn generate  --out FILE [--scale smoke|paper] [--seed N]\n  \
         smgcn train     --corpus FILE --out FILE [--model NAME] [--epochs N] [--lr F] [--l2 F] [--seed N]\n  \
         smgcn eval      --corpus FILE --model-file FILE [--model NAME]\n  \
         smgcn freeze    --corpus FILE --model-file FILE --out FILE [--model NAME]\n  \
         smgcn recommend --corpus FILE --model-file FILE --symptoms \"a,b,c\" [--k N]\n  \
         smgcn serve     --corpus FILE --model-file FILE [--addr HOST:PORT] [--connections N] [--cache N] [--batch-max N]\n  \
         smgcn ingest    --corpus FILE --wal FILE --add \"s1,s2 => h1,h2 ; ...\" [--allow-new true|false]\n  \
         smgcn refresh   --corpus FILE --wal FILE --model-file FILE --out FILE [--frozen-out FILE] [--corpus-out FILE] [--epochs N] [--replicas LIST]\n  \
         smgcn route     --replicas HOST:PORT,... [--addr HOST:PORT] [--connections N] [--replica-conns N] [--probe-ms N] [--slow-p99-ms F]\n  \
         smgcn cluster-refresh --replicas HOST:PORT,... --model-file FILE --corpus FILE\n  \
         smgcn loadgen   SCENARIO|all [--seed N] [--measure-ms N] [--workers N] [--k N] [--storm-conns N] [--out FILE] [--out-dir DIR] [--plan true]\n  \
         smgcn experiment publish --addr HOST:PORT --variant NAME --corpus FILE --model-file FILE\n  \
         smgcn experiment install --addr HOST:PORT --split \"control:90,cand:10\" [--seed N]\n  \
         smgcn experiment halt|status|compare --addr HOST:PORT [--out FILE]\n  \
         smgcn promote   --addr HOST:PORT --variant NAME [--max-error-rate F] [--max-p99-delta F] [--min-samples N]\n  \
         smgcn top       --addr HOST:PORT [--interval-ms N] [--iterations N]\n  \
         smgcn profile   --addr HOST:PORT\n  \
         smgcn query     --tsdb FILE [--series SELECTOR] [--op last|delta|rate|avg|max|quantile] [--from MS] [--to MS] [--q F]\n\
         serve/route also take --tsdb FILE [--scrape-ms N]: self-scrape metrics history + live burn-rate alerts\n\
         models: smgcn (default), bipar-gcn, gcmc, pinsage, ngcf, hetegcn\n\
         scenarios: {}\n\
         env: SMGCN_FAULT_SEED=N arms the seeded fault-injection storm plan in this process\n\
         --model-file for recommend/serve: a frozen model (smgcn freeze) or a training checkpoint",
        scenarios.join(", ")
    )
}

/// A misuse: the usage text on stderr, exit 2.
fn usage() -> ! {
    eprintln!("{}", usage_text());
    exit(2)
}

/// Parses `--name value` pairs for `command`, which reads exactly the
/// flags in `known`: a name outside it is a typo, and running with the
/// default it was meant to replace would be a wrong answer, not a
/// convenience.
fn parse_flags(command: &str, known: &[&str], args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            eprintln!("error: expected a --flag, found {:?}", args[i]);
            usage();
        };
        if !known.contains(&key) {
            eprintln!(
                "error: smgcn {command} has no flag --{key} (it reads: --{})",
                known.join(", --")
            );
            usage();
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("error: flag --{key} needs a value");
            usage();
        };
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    flags
}

fn model_kind(name: &str) -> ModelKind {
    match name {
        "smgcn" => ModelKind::Smgcn,
        "bipar-gcn" => ModelKind::BiparGcn,
        "gcmc" => ModelKind::GcMc,
        "pinsage" => ModelKind::PinSage,
        "ngcf" => ModelKind::Ngcf,
        "hetegcn" => ModelKind::HeteGcn,
        other => {
            eprintln!("error: unknown model {other:?}");
            usage();
        }
    }
}

fn scale(flags: &HashMap<String, String>) -> Scale {
    flags
        .get("scale")
        .map(|s| Scale::from_arg(s).unwrap_or_else(|| usage()))
        .unwrap_or(Scale::Smoke)
}

fn seed(flags: &HashMap<String, String>) -> u64 {
    flags
        .get("seed")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(2020)
}

fn load_corpus_and_ops(
    flags: &HashMap<String, String>,
) -> (
    smgcn_repro::data::Corpus,
    smgcn_repro::data::Corpus,
    GraphOperators,
) {
    let path = flags.get("corpus").unwrap_or_else(|| usage());
    let corpus = corpus_io::load_corpus(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read corpus {path:?}: {e}");
        exit(1);
    });
    let split = train_test_split_fraction(&corpus, PAPER_TEST_FRACTION, seed(flags));
    let ops = GraphOperators::from_records(
        split.train.records(),
        corpus.n_symptoms(),
        corpus.n_herbs(),
        scale(flags).thresholds(),
    );
    (split.train, split.test, ops)
}

const GENERATE_FLAGS: &[&str] = &["out", "scale", "seed"];
fn cmd_generate(flags: HashMap<String, String>) {
    let out = flags.get("out").unwrap_or_else(|| usage());
    let corpus = SyndromeModel::new(scale(&flags).generator().with_seed(seed(&flags))).generate();
    corpus_io::save_corpus(&corpus, out).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out:?}: {e}");
        exit(1);
    });
    let stats = corpus_stats(&corpus);
    println!(
        "wrote {out}: {} prescriptions, {} symptoms, {} herbs",
        stats.n_prescriptions, stats.n_symptoms_used, stats.n_herbs_used
    );
}

const TRAIN_FLAGS: &[&str] = &[
    "corpus", "out", "model", "epochs", "lr", "l2", "scale", "seed",
];
fn cmd_train(flags: HashMap<String, String>) {
    let out = flags.get("out").unwrap_or_else(|| usage());
    let kind = model_kind(flags.get("model").map_or("smgcn", String::as_str));
    let (train_corpus, test_corpus, ops) = load_corpus_and_ops(&flags);
    let sc = scale(&flags);
    let mut cfg = train_config_for(kind, sc);
    if let Some(e) = flags.get("epochs") {
        cfg.epochs = e.parse().unwrap_or_else(|_| usage());
    }
    if let Some(lr) = flags.get("lr") {
        cfg.learning_rate = lr.parse().unwrap_or_else(|_| usage());
    }
    if let Some(l2) = flags.get("l2") {
        cfg.l2_lambda = l2.parse().unwrap_or_else(|_| usage());
    }
    let mut model = build_model(kind, &ops, &sc.model_config(), seed(&flags));
    println!(
        "training {} on {} prescriptions ({} epochs, lr {:.0e}, λ {:.0e})...",
        model.name(),
        train_corpus.len(),
        cfg.epochs,
        cfg.learning_rate,
        cfg.l2_lambda
    );
    train_with_callback(&mut model, &train_corpus, &cfg, |stats, _| {
        if stats.epoch % 10 == 0 || stats.epoch + 1 == cfg.epochs {
            println!("  epoch {:>3}: loss {:.3}", stats.epoch, stats.mean_loss);
        }
    });
    let metrics = evaluate_ranker(&model, &test_corpus, &PAPER_KS);
    for (k, m) in &metrics {
        println!(
            "test p@{k} = {:.4}  r@{k} = {:.4}  ndcg@{k} = {:.4}",
            m.precision, m.recall, m.ndcg
        );
    }
    model.save(out).unwrap_or_else(|e| {
        eprintln!("error: cannot save checkpoint: {e}");
        exit(1);
    });
    println!("saved checkpoint to {out}");
}

fn rebuild_and_load(
    flags: &HashMap<String, String>,
    ops: &GraphOperators,
) -> smgcn_repro::core::Recommender {
    let kind = model_kind(flags.get("model").map_or("smgcn", String::as_str));
    let model_file = flags.get("model-file").unwrap_or_else(|| usage());
    let mut model = build_model(kind, ops, &scale(flags).model_config(), seed(flags));
    model.load(model_file).unwrap_or_else(|e| {
        eprintln!(
            "error: cannot restore {model_file:?} into a fresh {} (wrong --model/--scale?): {e}",
            model.name()
        );
        exit(1);
    });
    model
}

const EVAL_FLAGS: &[&str] = &["corpus", "model-file", "model", "scale", "seed"];
fn cmd_eval(flags: HashMap<String, String>) {
    let (_, test_corpus, ops) = load_corpus_and_ops(&flags);
    let model = rebuild_and_load(&flags, &ops);
    println!(
        "{} on {} held-out prescriptions:",
        model.name(),
        test_corpus.len()
    );
    for (k, m) in evaluate_ranker(&model, &test_corpus, &PAPER_KS) {
        println!(
            "  p@{k} = {:.4}  r@{k} = {:.4}  ndcg@{k} = {:.4}",
            m.precision, m.recall, m.ndcg
        );
    }
}

/// Loads the corpus alone (no split, no graphs) — all the frozen fast
/// path needs is the vocabulary.
fn load_corpus_only(flags: &HashMap<String, String>) -> smgcn_repro::data::Corpus {
    let path = flags.get("corpus").unwrap_or_else(|| usage());
    corpus_io::load_corpus(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read corpus {path:?}: {e}");
        exit(1);
    })
}

/// Loads `--model-file` as a [`FrozenModel`]: directly when it already is
/// one (no split, no graph construction, no convolutions), otherwise by
/// rebuilding the full training checkpoint — graphs and all — and
/// freezing it in-process. Either way, scoring goes through the
/// serve-layer path. `corpus` is the already-loaded corpus, reused by
/// the fallback so the file is never parsed twice.
fn load_frozen(flags: &HashMap<String, String>, corpus: &smgcn_repro::data::Corpus) -> FrozenModel {
    let model_file = flags.get("model-file").unwrap_or_else(|| usage());
    match FrozenModel::load(model_file) {
        Ok(frozen) => {
            eprintln!(
                "loaded frozen model: {} symptoms x {} herbs, d = {}",
                frozen.n_symptoms(),
                frozen.n_herbs(),
                frozen.dim()
            );
            frozen
        }
        Err(smgcn_repro::serve::FrozenError::NotFrozen(_)) => {
            // A training checkpoint: rebuild the architecture (this is the
            // only path that needs the graphs), restore the parameters,
            // then run the convolutions once.
            eprintln!("training checkpoint given; freezing in-process (tip: smgcn freeze)");
            let split = train_test_split_fraction(corpus, PAPER_TEST_FRACTION, seed(flags));
            let ops = GraphOperators::from_records(
                split.train.records(),
                corpus.n_symptoms(),
                corpus.n_herbs(),
                scale(flags).thresholds(),
            );
            FrozenModel::from_recommender(&rebuild_and_load(flags, &ops))
        }
        Err(e) => {
            eprintln!("error: cannot load {model_file:?}: {e}");
            exit(1);
        }
    }
}

/// The corpus's names as the vocabulary a server answers with and a
/// publish artifact carries.
fn serving_vocab(corpus: &smgcn_repro::data::Corpus) -> ServingVocab {
    let names = |vocab: &smgcn_repro::data::Vocabulary| {
        vocab.iter().map(|(_, name)| name.to_string()).collect()
    };
    ServingVocab::new(names(corpus.symptom_vocab()), names(corpus.herb_vocab()))
}

fn parse_symptom_ids(spec: &str, corpus: &smgcn_repro::data::Corpus) -> Vec<u32> {
    let vocab = corpus.symptom_vocab();
    let mut ids = Vec::new();
    for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match vocab.id(name) {
            Some(id) => ids.push(id),
            None => {
                eprintln!("error: unknown symptom {name:?} (names are vocabulary entries)");
                exit(1);
            }
        }
    }
    if ids.is_empty() {
        eprintln!("error: --symptoms produced an empty set");
        exit(1);
    }
    ids
}

const FREEZE_FLAGS: &[&str] = &["corpus", "model-file", "out", "model", "scale", "seed"];
fn cmd_freeze(flags: HashMap<String, String>) {
    let out = flags.get("out").unwrap_or_else(|| usage());
    let (_, _, ops) = load_corpus_and_ops(&flags);
    let model = rebuild_and_load(&flags, &ops);
    let frozen = FrozenModel::from_recommender(&model);
    frozen.save(out).unwrap_or_else(|e| {
        eprintln!("error: cannot save frozen model: {e}");
        exit(1);
    });
    println!(
        "froze {} into {out}: {} symptoms x {} herbs, d = {}, si_mlp = {}",
        model.name(),
        frozen.n_symptoms(),
        frozen.n_herbs(),
        frozen.dim(),
        frozen.has_si_mlp()
    );
}

// `--model`, `--scale` and `--seed` rebuild a training checkpoint given
// as `--model-file`; a frozen model ignores them.
const RECOMMEND_FLAGS: &[&str] = &[
    "corpus",
    "model-file",
    "symptoms",
    "k",
    "model",
    "scale",
    "seed",
];
fn cmd_recommend(flags: HashMap<String, String>) {
    let corpus = load_corpus_only(&flags);
    let frozen = load_frozen(&flags, &corpus);
    let k: usize = flags
        .get("k")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(10);
    let spec = flags.get("symptoms").unwrap_or_else(|| usage());
    let ids = parse_symptom_ids(spec, &corpus);
    let vocab = corpus.symptom_vocab();
    println!("symptom set:");
    for &s in &ids {
        println!("  - {}", vocab.name(s));
    }
    let ranking = frozen.recommend(&ids, k).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1);
    });
    println!("top-{k} herbs (frozen scorer):");
    for (rank, h) in ranking.into_iter().enumerate() {
        println!("  {:>2}. {}", rank + 1, corpus.herb_vocab().name(h));
    }
}

const SERVE_FLAGS: &[&str] = &[
    "corpus",
    "model-file",
    "addr",
    "connections",
    "cache",
    "batch-max",
    "tsdb",
    "scrape-ms",
    "model",
    "scale",
    "seed",
];
fn cmd_serve(flags: HashMap<String, String>) {
    let corpus = load_corpus_only(&flags);
    let frozen = load_frozen(&flags, &corpus);
    let default_addr = "127.0.0.1:7878".to_string();
    let addr = flags.get("addr").unwrap_or(&default_addr);
    let mut config = ServerConfig::default();
    if let Some(t) = flags.get("connections") {
        config.max_connections = t.parse().unwrap_or_else(|_| usage());
    }
    if let Some(c) = flags.get("cache") {
        config.cache_capacity = c.parse().unwrap_or_else(|_| usage());
    }
    if let Some(b) = flags.get("batch-max") {
        config.batcher.max_batch = b.parse().unwrap_or_else(|_| usage());
    }
    let vocab = serving_vocab(&corpus);
    let server = Server::bind(addr, frozen, vocab, config.clone()).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {addr}: {e}");
        exit(1);
    });
    println!(
        "serving on {} (max {} connections, cache {}, max batch {})",
        server
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.clone()),
        config.max_connections,
        config.cache_capacity,
        config.batcher.max_batch
    );
    println!(r#"protocol: one JSON object per line, e.g. {{"symptoms": ["s1", "s2"], "k": 10}}"#);
    let _scraper = flags.get("tsdb").map(|path| {
        let scrape_ms: u64 = flags
            .get("scrape-ms")
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(1000);
        let front = server.local_addr().unwrap_or_else(|e| {
            eprintln!("error: cannot resolve own address for self-scrape: {e}");
            exit(1);
        });
        println!(
            "self-scraping metrics to {path} every {scrape_ms} ms \
             (burn-rate alerts land in the event journal)"
        );
        spawn_self_scrape(
            front,
            path,
            scrape_ms,
            vec![default_availability_rule(false, scrape_ms)],
            server.events(),
        )
    });
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        exit(1);
    }
}

/// Parses an `--add` spec: records separated by `;`, sides by `=>`,
/// names by `,`.
fn parse_add_spec(spec: &str) -> Vec<(Vec<String>, Vec<String>)> {
    let mut records = Vec::new();
    for chunk in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        let Some((sym_text, herb_text)) = chunk.split_once("=>") else {
            eprintln!("error: record {chunk:?} needs \"symptoms => herbs\"");
            exit(1);
        };
        let names = |text: &str| -> Vec<String> {
            text.split(',')
                .map(str::trim)
                .filter(|n| !n.is_empty())
                .map(str::to_string)
                .collect()
        };
        records.push((names(sym_text), names(herb_text)));
    }
    if records.is_empty() {
        eprintln!("error: --add produced no records");
        exit(1);
    }
    records
}

const INGEST_FLAGS: &[&str] = &["corpus", "wal", "add", "allow-new"];
fn cmd_ingest(flags: HashMap<String, String>) {
    use smgcn_repro::online::Ingestor;
    let corpus = load_corpus_only(&flags);
    let wal = flags.get("wal").unwrap_or_else(|| usage());
    let allow_new = match flags.get("allow-new").map(String::as_str) {
        None | Some("true") => true,
        Some("false") => false,
        Some(_) => usage(),
    };
    let spec = flags.get("add").unwrap_or_else(|| usage());
    let mut ingestor = Ingestor::with_wal(corpus, wal).unwrap_or_else(|e| {
        eprintln!("error: cannot open WAL {wal:?}: {e}");
        exit(1);
    });
    let replayed = ingestor.pending().len();
    if replayed > 0 {
        println!("replayed {replayed} pending record(s) from {wal}");
    }
    for (symptoms, herbs) in parse_add_spec(spec) {
        match ingestor.append_named(&symptoms, &herbs, allow_new) {
            Ok(outcome) => println!(
                "  {:?} => {:?}: {outcome:?}",
                symptoms.join(","),
                herbs.join(",")
            ),
            Err(e) => {
                eprintln!("error: {e}");
                exit(1);
            }
        }
    }
    let stats = ingestor.stats();
    println!(
        "WAL {wal}: {} accepted, {} duplicate(s), {} new symptom(s), {} new herb(s); \
         {} record(s) pending refresh",
        stats.accepted,
        stats.duplicates,
        stats.new_symptoms,
        stats.new_herbs,
        ingestor.pending().len()
    );
}

const REFRESH_FLAGS: &[&str] = &[
    "corpus",
    "wal",
    "model-file",
    "out",
    "frozen-out",
    "corpus-out",
    "epochs",
    "replicas",
    "model",
    "scale",
    "seed",
];
fn cmd_refresh(flags: HashMap<String, String>) {
    use smgcn_repro::online::{FineTuneConfig, OnlineConfig, OnlinePipeline};
    let kind = model_kind(flags.get("model").map_or("smgcn", String::as_str));
    if kind != ModelKind::Smgcn {
        eprintln!("error: refresh warm-starts the full SMGCN only (--model smgcn)");
        exit(1);
    }
    let corpus_path = flags.get("corpus").unwrap_or_else(|| usage());
    let wal = flags.get("wal").unwrap_or_else(|| usage());
    let out = flags.get("out").unwrap_or_else(|| usage());
    let corpus = load_corpus_only(&flags);
    let sc = scale(&flags);
    let model_cfg = sc.model_config();
    let thresholds = sc.thresholds();
    // The online loop trains over the whole live corpus; rebuild the
    // checkpointed parameters on operators over it.
    let ops = GraphOperators::from_records(
        corpus.records(),
        corpus.n_symptoms(),
        corpus.n_herbs(),
        thresholds,
    );
    let model = rebuild_and_load(&flags, &ops);
    let mut train_cfg = train_config_for(kind, sc);
    train_cfg.seed = seed(&flags);
    let ft_epochs: usize = flags
        .get("epochs")
        .map(|e| e.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(5);
    let mut pipeline = OnlinePipeline::with_wal(
        corpus,
        model,
        OnlineConfig {
            thresholds,
            model: model_cfg,
            train: train_cfg,
            finetune: FineTuneConfig {
                max_epochs: ft_epochs,
                ..FineTuneConfig::default()
            },
            seed: seed(&flags),
        },
        wal,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: cannot open WAL {wal:?}: {e}");
        exit(1);
    });
    let pending = pipeline.ingestor().pending().len();
    println!("replayed {pending} pending record(s) from {wal}");
    let report = pipeline.refresh().unwrap_or_else(|e| {
        eprintln!("error: refresh failed: {e}");
        exit(1);
    });
    if report.appended == 0 {
        println!("nothing pending; no new generation published");
        return;
    }
    println!(
        "refreshed: +{} record(s) -> generation {} ({} fine-tune epoch(s), final loss {:.3})",
        report.appended, report.generation, report.epochs_run, report.final_loss
    );
    println!(
        "timings: delta {:.1} ms | finetune {:.1} ms | freeze {:.1} ms | publish {:.3} ms | total {:.1} ms",
        report.delta_ms, report.finetune_ms, report.freeze_ms, report.publish_ms, report.total_ms
    );
    pipeline.model().save(out).unwrap_or_else(|e| {
        eprintln!("error: cannot save checkpoint: {e}");
        exit(1);
    });
    println!("saved refreshed checkpoint to {out}");
    if let Some(frozen_out) = flags.get("frozen-out") {
        pipeline
            .slot()
            .load()
            .model
            .save(frozen_out)
            .unwrap_or_else(|e| {
                eprintln!("error: cannot save frozen model: {e}");
                exit(1);
            });
        println!("saved frozen model to {frozen_out}");
    }
    let corpus_out = flags.get("corpus-out").unwrap_or(corpus_path);
    corpus_io::save_corpus(pipeline.corpus(), corpus_out).unwrap_or_else(|e| {
        eprintln!("error: cannot write merged corpus {corpus_out:?}: {e}");
        exit(1);
    });
    // Checkpoint and merged corpus are on disk; only now is it safe to
    // drop the log (a failure above keeps the WAL covering the records).
    pipeline.truncate_wal().unwrap_or_else(|e| {
        eprintln!("error: cannot truncate WAL {wal:?}: {e}");
        exit(1);
    });
    println!(
        "merged corpus written to {corpus_out} ({} prescriptions); WAL truncated",
        pipeline.corpus().len()
    );
    if let Some(spec) = flags.get("replicas") {
        // Roll the just-published generation across the serving fleet,
        // one replica at a time (outputs are already durable above, so a
        // partial rollout is recoverable by re-running cluster-refresh).
        let replicas = parse_replicas(spec);
        let artifact = pipeline.publish_artifact();
        println!(
            "rolling generation {} across {} replica(s):",
            report.generation,
            replicas.len()
        );
        report_publish(&smgcn_repro::cluster::rolling_publish_addrs(
            &replicas,
            &artifact,
            &smgcn_repro::cluster::PoolConfig::default(),
        ));
    }
}

/// Parses `--replicas HOST:PORT,HOST:PORT,...` into socket addresses.
fn parse_replicas(spec: &str) -> Vec<std::net::SocketAddr> {
    use std::net::ToSocketAddrs;
    let mut addrs = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.to_socket_addrs().ok().and_then(|mut it| it.next()) {
            Some(addr) => addrs.push(addr),
            None => {
                eprintln!("error: cannot resolve replica address {part:?}");
                exit(1);
            }
        }
    }
    if addrs.is_empty() {
        eprintln!("error: --replicas produced no addresses");
        exit(1);
    }
    addrs
}

const ROUTE_FLAGS: &[&str] = &[
    "replicas",
    "addr",
    "connections",
    "replica-conns",
    "probe-ms",
    "slow-p99-ms",
    "tsdb",
    "scrape-ms",
];
fn cmd_route(flags: HashMap<String, String>) {
    use smgcn_repro::cluster::{Router, RouterConfig};
    let replicas = parse_replicas(flags.get("replicas").unwrap_or_else(|| usage()));
    let default_addr = "127.0.0.1:7979".to_string();
    let addr = flags.get("addr").unwrap_or(&default_addr);
    let mut config = RouterConfig::default();
    if let Some(n) = flags.get("connections") {
        config.max_connections = n.parse().unwrap_or_else(|_| usage());
    }
    if let Some(n) = flags.get("replica-conns") {
        config.pool.max_conns_per_replica = n.parse().unwrap_or_else(|_| usage());
    }
    if let Some(ms) = flags.get("probe-ms") {
        let ms: u64 = ms.parse().unwrap_or_else(|_| usage());
        config.probe_interval = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = flags.get("slow-p99-ms") {
        let ms: f64 = ms.parse().unwrap_or_else(|_| usage());
        config.pool.slow_p99_us = Some(ms * 1e3);
    }
    let n_replicas = replicas.len();
    let router = Router::bind(addr, replicas, config.clone()).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {addr}: {e}");
        exit(1);
    });
    println!(
        "routing on {} over {} replica(s) (max {} client connections, {} conns/replica, probe every {:?})",
        router
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.clone()),
        n_replicas,
        config.max_connections,
        config.pool.max_conns_per_replica,
        config.probe_interval
    );
    println!("protocol: identical to smgcn serve; admin: {{\"op\":\"stats\"}}, {{\"op\":\"publish\",...}}");
    let _scraper = flags.get("tsdb").map(|path| {
        let scrape_ms: u64 = flags
            .get("scrape-ms")
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(1000);
        let front = router.local_addr().unwrap_or_else(|e| {
            eprintln!("error: cannot resolve own address for self-scrape: {e}");
            exit(1);
        });
        println!(
            "self-scraping merged fleet metrics to {path} every {scrape_ms} ms \
             (burn-rate alerts land in the event journal)"
        );
        spawn_self_scrape(
            front,
            path,
            scrape_ms,
            vec![default_availability_rule(true, scrape_ms)],
            router.events(),
        )
    });
    if let Err(e) = router.run() {
        eprintln!("router error: {e}");
        exit(1);
    }
}

/// The CLI's one admin client: `request` to `addr` on a connection of
/// its own, under the timeouts the fleet itself uses for admin traffic
/// ([`PoolConfig::default`](smgcn_repro::cluster::PoolConfig)). An
/// `{"error":…}` reply comes back as a refusal, never as a report.
fn ask_admin(
    addr: &str,
    request: &str,
) -> Result<smgcn_repro::serve::json::Json, smgcn_repro::serve::Unanswered> {
    let fleet = smgcn_repro::cluster::PoolConfig::default();
    smgcn_repro::serve::client::ask(addr, fleet.connect_timeout, fleet.admin_timeout, request)
}

/// [`ask_admin`] for a command that has nothing to show without an
/// answer: a refusal prints as `error [code]: message`, silence names
/// the address, and either way the command exits 1.
fn admin_or_exit(addr: &str, request: &str) -> smgcn_repro::serve::json::Json {
    use smgcn_repro::serve::Unanswered;
    match ask_admin(addr, request) {
        Ok(reply) => reply,
        Err(Unanswered::Refused(reply)) => exit_refused(&reply),
        Err(silence) => {
            eprintln!("error: no response from {addr} ({silence})");
            exit(1);
        }
    }
}

/// The default availability burn-rate rule a self-scraping `serve` or
/// `route` process evaluates live: canonical SRE window pairs (5m/1h at
/// 14.4, 30m/6h at 6) against a 99.99% objective, clamped so the
/// windows never dip under four scrape intervals.
fn default_availability_rule(routed: bool, scrape_ms: u64) -> smgcn_repro::obs::alert::SloRule {
    use smgcn_repro::obs::alert::SloRule;
    let s = |n: &str| n.to_string();
    let (bad, total) = if routed {
        (
            vec![s("router_exhausted_total")],
            vec![s("router_requests_total")],
        )
    } else {
        (
            vec![
                s("serve_errors_total"),
                s("serve_sheds_total"),
                s("serve_queue_rejections_total"),
            ],
            vec![s("serve_requests_total")],
        )
    };
    SloRule::availability("availability-burn", bad, total, 1e-4)
        .with_min_window(scrape_ms.saturating_mul(4))
}

/// Starts the self-scrape sidecar behind `--tsdb`: polls this process's
/// own front-end every `scrape_ms`, appends each flattened snapshot to
/// the on-disk tsdb at `path` (resuming a previous history if the file
/// already has one), and ticks the burn-rate alert engine so firings
/// land in the process's own event journal (`{"op":"events"}`, `smgcn
/// top`). The returned scraper runs until the process exits.
fn spawn_self_scrape(
    front: std::net::SocketAddr,
    path: &str,
    scrape_ms: u64,
    rules: Vec<smgcn_repro::obs::alert::SloRule>,
    events: std::sync::Arc<smgcn_repro::obs::EventJournal>,
) -> smgcn_repro::obs::tsdb::Scraper {
    use smgcn_repro::obs::alert::AlertEngine;
    use smgcn_repro::obs::tsdb::{Scraper, Tsdb, TsdbData};
    let (mut tsdb, mut data) = if std::path::Path::new(path).exists() {
        Tsdb::open(path).unwrap_or_else(|e| {
            eprintln!("error: cannot open tsdb {path:?}: {e}");
            exit(1);
        })
    } else {
        let tsdb = Tsdb::create(path).unwrap_or_else(|e| {
            eprintln!("error: cannot create tsdb {path:?}: {e}");
            exit(1);
        });
        (tsdb, TsdbData::default())
    };
    let mut engine = AlertEngine::new(rules);
    Scraper::spawn(
        std::time::Duration::from_millis(scrape_ms),
        Box::new(move || {
            // A refused or unanswered scrape is skipped, not recorded.
            let snap = ask_admin(&front.to_string(), r#"{"op":"metrics"}"#).ok()?;
            let inner = snap.get("merged").or_else(|| snap.get("metrics"))?;
            Some(smgcn_repro::serve::server::flatten_metrics_json(inner))
        }),
        Box::new(move |at_ms, samples| {
            if let Err(e) = tsdb.append(at_ms, samples) {
                eprintln!("tsdb append failed: {e}");
            }
            data.push(at_ms, samples);
            engine.tick(&data, at_ms, &events);
        }),
    )
}

const PROFILE_FLAGS: &[&str] = &["addr"];
fn cmd_profile(flags: HashMap<String, String>) {
    use smgcn_repro::serve::json::Json;
    let Some(addr) = flags.get("addr") else {
        eprintln!("error: profile needs --addr");
        usage();
    };
    let report = admin_or_exit(addr, r#"{"op":"profile"}"#);
    let folded = report.get("folded").and_then(Json::as_str).unwrap_or("");
    let profiled = report
        .get("profile_total_us")
        .and_then(Json::as_num)
        .unwrap_or(0.0);
    let measured = report
        .get("latency_total_us")
        .and_then(Json::as_num)
        .unwrap_or(0.0);
    if report.get("replicas").is_some() {
        println!("# fleet-merged folded stacks via {addr}");
    }
    if folded.is_empty() {
        println!("(no samples yet — profile after traffic has flowed)");
    } else {
        println!("{folded}");
    }
    let coverage = if measured > 0.0 {
        100.0 * profiled / measured
    } else {
        0.0
    };
    println!(
        "# profiled {profiled:.0} µs of {measured:.0} µs request wall time ({coverage:.1}% coverage)"
    );
    if report.get("partial") == Some(&Json::Bool(true)) {
        println!("# partial: at least one replica was unreachable");
    }
}

const QUERY_FLAGS: &[&str] = &["tsdb", "series", "op", "from", "to", "q"];
fn cmd_query(flags: HashMap<String, String>) {
    use smgcn_repro::obs::tsdb::TsdbData;
    let Some(path) = flags.get("tsdb") else {
        eprintln!("error: query needs --tsdb FILE");
        usage();
    };
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path:?}: {e}");
        exit(1);
    });
    let recovered = TsdbData::parse(&bytes);
    if recovered.valid_len < bytes.len() {
        eprintln!(
            "warning: {} byte(s) of torn/corrupt tail ignored (valid prefix {} bytes)",
            bytes.len() - recovered.valid_len,
            recovered.valid_len
        );
    }
    let data = recovered.data;
    let (Some(start), Some(end)) = (data.start_ms(), data.end_ms()) else {
        println!("{path}: empty history");
        return;
    };
    let Some(selector) = flags.get("series") else {
        // No selector: the catalogue. Name + point count + last value.
        println!(
            "{path}: {} series over {:.1} s ({start} .. {end} unix ms)",
            data.series_names().len(),
            (end - start) as f64 / 1e3
        );
        for name in data.series_names() {
            let points = data.points(name).map_or(0, <[_]>::len);
            let last = data.last(name).unwrap_or(0.0);
            println!("  {name}  ({points} points, last {last})");
        }
        return;
    };
    let t0: u64 = flags
        .get("from")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(start);
    let t1: u64 = flags
        .get("to")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(end);
    let op = flags.get("op").map_or("last", String::as_str);
    let value = match op {
        "last" => data.last(selector),
        "delta" => Some(data.delta(selector, t0, t1)),
        "rate" => Some(data.rate(selector, t0, t1)),
        "avg" => data.avg_over_time(selector, t0, t1),
        "max" => data.max_over_time(selector, t0, t1),
        "quantile" => {
            let q: f64 = flags
                .get("q")
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(0.99);
            data.quantile_over_time(selector, t0, t1, q)
        }
        _ => {
            eprintln!("error: --op must be last|delta|rate|avg|max|quantile");
            usage();
        }
    };
    match value {
        Some(v) => println!("{op}({selector}) [{t0} .. {t1}] = {v}"),
        None => {
            eprintln!("error: no series matches {selector:?} in the window");
            exit(1);
        }
    }
}

/// Exits with the structured error of a refused admin request.
fn exit_refused(reply: &smgcn_repro::serve::json::Json) -> ! {
    use smgcn_repro::serve::json::Json;
    let field = |key| {
        let err = reply.get("error")?;
        err.get(key)?.as_str()
    };
    eprintln!(
        "error [{}]: {}",
        field("code").unwrap_or("?"),
        field("message").unwrap_or("?")
    );
    for v in reply
        .get("violations")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        if let Some(v) = v.as_str() {
            eprintln!("  guardrail: {v}");
        }
    }
    exit(1);
}

/// Pretty-prints the `{"action":"compare"}` report.
fn print_compare_report(report: &smgcn_repro::serve::json::Json) {
    use smgcn_repro::serve::json::Json;
    println!(
        "{:<12} {:>6} {:>10} {:>9} {:>9} {:>9}",
        "VARIANT", "WEIGHT", "REQUESTS", "ERR_RATE", "QPS", "P99_MS"
    );
    for v in report.get("variants").and_then(Json::as_arr).unwrap_or(&[]) {
        let s = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let n = |k: &str| v.get(k).and_then(Json::as_num).unwrap_or(0.0);
        println!(
            "{:<12} {:>5.0}% {:>10.0} {:>9.4} {:>9.1} {:>9.2}",
            s("name"),
            n("weight"),
            n("requests"),
            n("error_rate"),
            n("qps"),
            n("p99_us") / 1e3
        );
    }
    for duel in report
        .get("interleaving")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        let n = |k: &str| duel.get(k).and_then(Json::as_num).unwrap_or(0.0);
        println!(
            "interleaving {}: {} duels, candidate {} / control {} / ties {}, mean delta {:+.4}, p = {:.3}",
            duel.get("variant").and_then(Json::as_str).unwrap_or("?"),
            n("duels"),
            n("candidate_wins"),
            n("control_wins"),
            n("ties"),
            n("mean_delta"),
            n("p_value")
        );
    }
}

// One slice for every action: `publish` reads the model flags, `install`
// `--split` and `--seed`, `compare` `--out`.
const EXPERIMENT_FLAGS: &[&str] = &[
    "addr",
    "variant",
    "corpus",
    "model-file",
    "split",
    "out",
    "model",
    "scale",
    "seed",
];
/// `smgcn experiment <publish|install|halt|status|compare>` — the
/// operator half of the A/B experiment plane, driven through a router
/// (or a single replica for publish/status).
fn cmd_experiment(rest: &[String]) {
    use smgcn_repro::serve::json::{self, Json};
    let Some((action, rest)) = rest.split_first() else {
        eprintln!("error: experiment needs an action (publish|install|halt|status|compare)");
        usage();
    };
    let flags = parse_flags("experiment", EXPERIMENT_FLAGS, rest);
    let Some(addr) = flags.get("addr") else {
        eprintln!("error: experiment needs --addr");
        usage();
    };
    let request = match action.as_str() {
        "publish" => {
            let Some(variant) = flags.get("variant") else {
                eprintln!("error: experiment publish needs --variant");
                usage();
            };
            let corpus = load_corpus_only(&flags);
            let frozen = load_frozen(&flags, &corpus);
            let vocab = serving_vocab(&corpus);
            let artifact = smgcn_repro::serve::artifact::encode(&frozen, &vocab);
            println!(
                "publishing candidate {variant:?} ({} symptoms x {} herbs, artifact {} KiB) via {addr}",
                frozen.n_symptoms(),
                frozen.n_herbs(),
                artifact.len() / 1024
            );
            json::obj([
                ("op", Json::Str("experiment".into())),
                ("action", Json::Str("publish".into())),
                ("variant", Json::Str(variant.clone())),
                (
                    "artifact",
                    Json::Str(smgcn_repro::serve::artifact::to_base64(&artifact)),
                ),
            ])
        }
        "install" => {
            let Some(split) = flags.get("split") else {
                eprintln!("error: experiment install needs --split \"control:90,cand:10\"");
                usage();
            };
            let mut fields = vec![
                ("op", Json::Str("experiment".into())),
                ("action", Json::Str("install".into())),
                ("weights", Json::Str(split.clone())),
            ];
            if let Some(seed) = flags.get("seed") {
                let seed: u64 = seed.parse().unwrap_or_else(|_| usage());
                fields.push(("seed", Json::Num(seed as f64)));
            }
            json::obj(fields)
        }
        "halt" | "abort" | "status" | "compare" => {
            let action = if action == "abort" { "halt" } else { action };
            json::obj([
                ("op", Json::Str("experiment".into())),
                ("action", Json::Str(action.to_string())),
            ])
        }
        other => {
            eprintln!("error: unknown experiment action {other:?}");
            usage();
        }
    };
    let reply = admin_or_exit(addr, &request.to_string());
    match action.as_str() {
        "compare" => {
            print_compare_report(&reply);
            if let Some(path) = flags.get("out") {
                std::fs::write(path, format!("{reply}\n")).unwrap_or_else(|e| {
                    eprintln!("error: cannot write {path}: {e}");
                    exit(1);
                });
                println!("wrote {path}");
            }
        }
        _ => println!("{reply}"),
    }
}

const PROMOTE_FLAGS: &[&str] = &[
    "addr",
    "variant",
    "max-error-rate",
    "max-p99-delta",
    "min-samples",
];
/// `smgcn promote --addr ... --variant NAME` — guardrail-checked
/// candidate promotion: the router verifies the comparison report
/// clears the error-rate / p99 / sample-count bars, rolls the candidate
/// into every control slot, and halts the split.
fn cmd_promote(flags: HashMap<String, String>) {
    use smgcn_repro::serve::json::{self, Json};
    let Some(addr) = flags.get("addr") else {
        eprintln!("error: promote needs --addr");
        usage();
    };
    let Some(variant) = flags.get("variant") else {
        eprintln!("error: promote needs --variant");
        usage();
    };
    let mut fields = vec![
        ("op", Json::Str("experiment".into())),
        ("action", Json::Str("promote".into())),
        ("variant", Json::Str(variant.clone())),
    ];
    let numeric = |key: &str| -> Option<f64> {
        flags
            .get(key)
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
    };
    if let Some(v) = numeric("max-error-rate") {
        fields.push(("max_error_rate", Json::Num(v)));
    }
    if let Some(v) = numeric("max-p99-delta") {
        fields.push(("max_p99_delta", Json::Num(v)));
    }
    if let Some(v) = numeric("min-samples") {
        fields.push(("min_samples", Json::Num(v)));
    }
    let reply = admin_or_exit(addr, &json::obj(fields).to_string());
    let replicas = reply.get("replicas").and_then(Json::as_num).unwrap_or(0.0);
    println!(
        "promoted {variant:?} to control on {replicas:.0} replica(s); split halted, traffic on the new control"
    );
}

/// Reports a rolling-publish outcome list, exiting nonzero unless every
/// replica acknowledged.
fn report_publish(report: &smgcn_repro::cluster::PublishReport) {
    for outcome in &report.outcomes {
        match (&outcome.error, outcome.generation) {
            (None, Some(generation)) => {
                println!("  {} -> generation {generation}", outcome.addr);
            }
            (error, _) => {
                println!(
                    "  {} FAILED: {}",
                    outcome.addr,
                    error.as_deref().unwrap_or("unknown error")
                );
            }
        }
    }
    if !report.all_ok() {
        eprintln!(
            "error: rolling publish incomplete ({} of {} replicas updated)",
            report.published(),
            report.outcomes.len()
        );
        exit(1);
    }
    println!(
        "rolling publish complete: {} replica(s) updated, fleet never dark",
        report.published()
    );
}

const CLUSTER_REFRESH_FLAGS: &[&str] =
    &["replicas", "corpus", "model-file", "model", "scale", "seed"];
fn cmd_cluster_refresh(flags: HashMap<String, String>) {
    use smgcn_repro::cluster::{rolling_publish_addrs, PoolConfig};
    let replicas = parse_replicas(flags.get("replicas").unwrap_or_else(|| usage()));
    let corpus = load_corpus_only(&flags);
    let frozen = load_frozen(&flags, &corpus);
    let vocab = serving_vocab(&corpus);
    let artifact = smgcn_repro::serve::artifact::encode(&frozen, &vocab);
    println!(
        "rolling {} symptoms x {} herbs (d = {}, artifact {} KiB) across {} replica(s):",
        frozen.n_symptoms(),
        frozen.n_herbs(),
        frozen.dim(),
        artifact.len() / 1024,
        replicas.len()
    );
    report_publish(&rolling_publish_addrs(
        &replicas,
        &artifact,
        &PoolConfig::default(),
    ));
}

const LOADGEN_FLAGS: &[&str] = &[
    "seed",
    "measure-ms",
    "workers",
    "k",
    "storm-conns",
    "out",
    "out-dir",
    "plan",
];
fn cmd_loadgen(rest: &[String]) {
    use smgcn_repro::loadgen::{build, run, ScenarioConfig, ScenarioKind};
    let Some((scenario_arg, rest)) = rest.split_first() else {
        eprintln!("error: loadgen needs a scenario (or \"all\")");
        usage();
    };
    let flags = parse_flags("loadgen", LOADGEN_FLAGS, rest);
    let kinds: Vec<ScenarioKind> = if scenario_arg == "all" {
        ScenarioKind::all().to_vec()
    } else {
        match ScenarioKind::from_arg(scenario_arg) {
            Some(kind) => vec![kind],
            None => {
                eprintln!("error: unknown scenario {scenario_arg:?}");
                usage();
            }
        }
    };
    let mut config = ScenarioConfig {
        seed: seed(&flags),
        ..ScenarioConfig::default()
    };
    if let Some(ms) = flags.get("measure-ms") {
        config.measure_ms = ms.parse().unwrap_or_else(|_| usage());
    }
    if let Some(w) = flags.get("workers") {
        config.workers = w.parse().unwrap_or_else(|_| usage());
    }
    if let Some(k) = flags.get("k") {
        config.k = k.parse().unwrap_or_else(|_| usage());
    }
    // connection-storm cohort override for fd-constrained hosts (the
    // single loadgen process holds both ends of every storm socket).
    if let Some(conns) = flags.get("storm-conns") {
        config.storm_connections = Some(conns.parse().unwrap_or_else(|_| usage()));
    }
    let plan_only = match flags.get("plan").map(String::as_str) {
        None | Some("false") => false,
        Some("true") => true,
        Some(_) => usage(),
    };
    let out_dir = flags.get("out-dir").cloned().unwrap_or_else(|| ".".into());
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create --out-dir {out_dir}: {e}");
        exit(2);
    }
    let n_kinds = kinds.len();
    if n_kinds > 1 && flags.contains_key("out") {
        eprintln!("error: --out names one file; use --out-dir with multiple scenarios");
        exit(2);
    }
    let out_path = |kind: ScenarioKind| -> String {
        match (n_kinds, flags.get("out")) {
            (1, Some(path)) => path.clone(),
            _ => format!("{out_dir}/LOADGEN_{}.json", kind.name().replace('-', "_")),
        }
    };

    let mut failed = Vec::new();
    for kind in kinds {
        let workload = build(kind, &config);
        println!(
            "=== loadgen {} ===\n{} | {} queries + {} ingests over {} ms | topology {} | seed {}",
            kind.name(),
            kind.description(),
            workload.schedule.query_count(),
            workload.schedule.ingest_count(),
            config.measure_ms,
            workload.topology.describe(),
            config.seed
        );
        if plan_only {
            let report = smgcn_repro::loadgen::ScenarioReport {
                workload: smgcn_repro::loadgen::WorkloadSummary::from_workload(&workload),
                measured: smgcn_repro::loadgen::Measured::default(),
                verdict: smgcn_repro::loadgen::SloVerdict {
                    violations: Vec::new(),
                },
                metrics_json: None,
                events_json: None,
                tsdb: None,
                profile_json: None,
                experiment_json: None,
            };
            print!("{}", report.workload_json());
            continue;
        }
        let report = run(&workload);
        println!("{}", report.summary_line());
        for (label, ms) in &report.measured.chaos_timings {
            println!("  chaos: {label} took {ms:.1} ms");
        }
        for violation in &report.verdict.violations {
            eprintln!("  SLO VIOLATION: {violation}");
        }
        let path = out_path(kind);
        std::fs::write(&path, report.to_json_string()).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            exit(1);
        });
        println!("  wrote {path}");
        if let Some(metrics) = &report.metrics_json {
            let mpath = format!("{out_dir}/METRICS_{}.json", kind.name().replace('-', "_"));
            std::fs::write(&mpath, format!("{metrics}\n")).unwrap_or_else(|e| {
                eprintln!("error: cannot write {mpath}: {e}");
                exit(1);
            });
            println!("  wrote {mpath}");
        }
        if let Some(events) = &report.events_json {
            let epath = format!("{out_dir}/EVENTS_{}.json", kind.name().replace('-', "_"));
            std::fs::write(&epath, format!("{events}\n")).unwrap_or_else(|e| {
                eprintln!("error: cannot write {epath}: {e}");
                exit(1);
            });
            println!("  wrote {epath}");
        }
        if let Some(tsdb) = &report.tsdb {
            let tpath = format!("{out_dir}/TSDB_{}.bin", kind.name().replace('-', "_"));
            std::fs::write(&tpath, tsdb).unwrap_or_else(|e| {
                eprintln!("error: cannot write {tpath}: {e}");
                exit(1);
            });
            println!("  wrote {tpath} (inspect with `smgcn query --tsdb {tpath}`)");
        }
        if let Some(profile) = &report.profile_json {
            let ppath = format!("{out_dir}/PROFILE_{}.json", kind.name().replace('-', "_"));
            std::fs::write(&ppath, format!("{profile}\n")).unwrap_or_else(|e| {
                eprintln!("error: cannot write {ppath}: {e}");
                exit(1);
            });
            println!("  wrote {ppath}");
        }
        if let Some(experiment) = &report.experiment_json {
            let xpath = format!(
                "{out_dir}/EXPERIMENT_{}.json",
                kind.name().replace('-', "_")
            );
            std::fs::write(&xpath, format!("{experiment}\n")).unwrap_or_else(|e| {
                eprintln!("error: cannot write {xpath}: {e}");
                exit(1);
            });
            println!("  wrote {xpath}");
        }
        if !report.measured.alerts_fired.is_empty() {
            println!(
                "  alerts fired: {} ({} firing(s))",
                report.measured.alerts_fired.join(", "),
                report.measured.alert_firings
            );
        }
        println!();
        if !report.verdict.passed() {
            failed.push(kind.name());
        }
    }
    if !failed.is_empty() {
        eprintln!("loadgen: SLO violations in: {}", failed.join(", "));
        exit(1);
    }
}

/// One row of the `top` table. `prev` holds each row's last-seen
/// request counter so qps can be derived from frame-to-frame deltas.
fn top_row(
    label: &str,
    metrics: &smgcn_repro::serve::json::Json,
    generation: Option<&smgcn_repro::serve::json::Json>,
    prev: &mut HashMap<String, f64>,
    elapsed_s: f64,
) {
    use smgcn_repro::serve::json::Json;
    let num = |name: &str| metrics.get(name).and_then(Json::as_num).unwrap_or(0.0);
    let requests = num("serve_requests_total");
    let qps = match prev.insert(label.to_string(), requests) {
        Some(last) if elapsed_s > 0.0 => format!("{:.0}", (requests - last).max(0.0) / elapsed_s),
        _ => "-".to_string(),
    };
    let generation = generation
        .and_then(Json::as_num)
        .unwrap_or_else(|| num("serve_generation"));
    let p99_ms = metrics
        .get("serve_latency_us")
        .and_then(|h| h.get("p99_us"))
        .and_then(Json::as_num)
        .unwrap_or(0.0)
        / 1e3;
    let hits = num("serve_cache_hits_total");
    let lookups = hits + num("serve_cache_misses_total");
    let cache = if lookups > 0.0 {
        format!("{:.0}%", 100.0 * hits / lookups)
    } else {
        "-".to_string()
    };
    let sheds = num("serve_sheds_total") + num("router_sheds_total");
    println!("{label:<24} {generation:>4.0} {qps:>9} {p99_ms:>9.2} {cache:>7} {sheds:>7.0}");
    variant_rows(label, metrics, prev, elapsed_s);
}

/// Per-variant breakdown rows under a replica (or merged) row, one per
/// `variant` label found in the metrics: weight, generation, qps, p99
/// and cumulative error rate of each arm of a live traffic split.
/// Silent when the replica has no variant-labeled metrics (no
/// experiment running), so plain deployments see the classic table.
fn variant_rows(
    label: &str,
    metrics: &smgcn_repro::serve::json::Json,
    prev: &mut HashMap<String, f64>,
    elapsed_s: f64,
) {
    use smgcn_repro::serve::json::Json;
    let Json::Obj(map) = metrics else {
        return;
    };
    const PREFIX: &str = "serve_variant_requests_total{variant=\"";
    let variants: Vec<&str> = map
        .keys()
        .filter_map(|k| k.strip_prefix(PREFIX)?.strip_suffix("\"}"))
        .collect();
    for variant in variants {
        let num = |name: &str| {
            map.get(&format!("{name}{{variant=\"{variant}\"}}"))
                .and_then(Json::as_num)
                .unwrap_or(0.0)
        };
        let requests = num("serve_variant_requests_total");
        let row_key = format!("{label}//{variant}");
        let qps = match prev.insert(row_key, requests) {
            Some(last) if elapsed_s > 0.0 => {
                format!("{:.0}", (requests - last).max(0.0) / elapsed_s)
            }
            _ => "-".to_string(),
        };
        let p99_ms = map
            .get(&format!(
                "serve_variant_latency_us{{variant=\"{variant}\"}}"
            ))
            .and_then(|h| h.get("p99_us"))
            .and_then(Json::as_num)
            .unwrap_or(0.0)
            / 1e3;
        let err_rate = if requests > 0.0 {
            num("serve_variant_errors_total") / requests
        } else {
            0.0
        };
        let weight = num("serve_variant_weight");
        let generation = num("serve_variant_generation");
        let tag = format!("  \u{2514} {variant} ({weight:.0}%)");
        println!(
            "{tag:<24} {generation:>4.0} {qps:>9} {p99_ms:>9.2} {:>6.2}% {:>7}",
            100.0 * err_rate,
            ""
        );
    }
}

const TOP_FLAGS: &[&str] = &["addr", "interval-ms", "iterations"];
fn cmd_top(flags: HashMap<String, String>) {
    use smgcn_repro::serve::json::Json;

    let Some(addr) = flags.get("addr") else {
        eprintln!("error: top needs --addr");
        usage();
    };
    let interval_ms: u64 = flags
        .get("interval-ms")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(1000);
    let iterations: u64 = flags
        .get("iterations")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(0);

    let mut prev: HashMap<String, f64> = HashMap::new();
    let mut frame: u64 = 0;
    let mut last = std::time::Instant::now();
    loop {
        // A front end that refuses or goes silent ends the session: a
        // frame of zeros would read as an idle fleet.
        let snap = admin_or_exit(addr, r#"{"op":"metrics"}"#);
        let now = std::time::Instant::now();
        let elapsed_s = if frame == 0 {
            0.0
        } else {
            now.duration_since(last).as_secs_f64()
        };
        last = now;
        print!("\x1b[2J\x1b[H");
        println!("smgcn top — {addr} — every {interval_ms} ms (ctrl-c quits)");
        println!(
            "{:<24} {:>4} {:>9} {:>9} {:>7} {:>7}",
            "REPLICA", "GEN", "QPS", "P99_MS", "CACHE", "SHEDS"
        );
        if let Some(Json::Arr(replicas)) = snap.get("replicas") {
            for entry in replicas {
                let label = entry
                    .get("addr")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                match entry.get("metrics") {
                    Some(metrics) => top_row(
                        &label,
                        metrics,
                        entry.get("generation"),
                        &mut prev,
                        elapsed_s,
                    ),
                    None => println!("{label:<24} (unreachable)"),
                }
            }
            if let Some(merged) = snap.get("merged") {
                top_row("fleet (merged)", merged, None, &mut prev, elapsed_s);
            }
        } else if let Some(metrics) = snap.get("metrics") {
            top_row(addr, metrics, snap.get("generation"), &mut prev, elapsed_s);
        } else {
            println!("  (response has no metrics section)");
        }
        // The alerting tail: recent burn-rate pages (and resolutions)
        // from the fleet's event journal, newest last.
        let alert_events: Vec<(f64, String, String)> = ask_admin(addr, r#"{"op":"events"}"#)
            .map(|r| {
                r.get("events")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|e| {
                        let kind = e.get("kind").and_then(Json::as_str)?;
                        if kind != "alert" && kind != "alert_resolved" {
                            return None;
                        }
                        Some((
                            e.get("unix_ms").and_then(Json::as_num).unwrap_or(0.0),
                            kind.to_string(),
                            e.get("detail")
                                .and_then(Json::as_str)
                                .unwrap_or("")
                                .to_string(),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        if !alert_events.is_empty() {
            println!("\nALERTS (journal tail):");
            for (unix_ms, kind, detail) in alert_events.iter().rev().take(5).rev() {
                let mark = if kind == "alert" {
                    "FIRING "
                } else {
                    "resolved"
                };
                println!("  [{unix_ms:.0}] {mark} {detail}");
            }
        }
        frame += 1;
        if iterations != 0 && frame >= iterations {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn main() {
    // Chaos-drill hook: a nonzero SMGCN_FAULT_SEED installs the seeded
    // storm plan for this process (serve/route under injected faults).
    if let Some(seed) = smgcn_repro::faults::init_from_env() {
        eprintln!("fault plane armed: storm plan seed {seed} (SMGCN_FAULT_SEED)");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Asking for help is not a misuse: stdout, exit 0, wherever it sits.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage_text());
        return;
    }
    let Some((command, rest)) = args.split_first() else {
        usage()
    };
    let flags = |known| parse_flags(command, known, rest);
    match command.as_str() {
        "generate" => cmd_generate(flags(GENERATE_FLAGS)),
        "train" => cmd_train(flags(TRAIN_FLAGS)),
        "eval" => cmd_eval(flags(EVAL_FLAGS)),
        "freeze" => cmd_freeze(flags(FREEZE_FLAGS)),
        "recommend" => cmd_recommend(flags(RECOMMEND_FLAGS)),
        "serve" => cmd_serve(flags(SERVE_FLAGS)),
        "ingest" => cmd_ingest(flags(INGEST_FLAGS)),
        "refresh" => cmd_refresh(flags(REFRESH_FLAGS)),
        "route" => cmd_route(flags(ROUTE_FLAGS)),
        "cluster-refresh" => cmd_cluster_refresh(flags(CLUSTER_REFRESH_FLAGS)),
        // `loadgen` and `experiment` take a positional word before flags.
        "loadgen" => cmd_loadgen(rest),
        "experiment" => cmd_experiment(rest),
        "promote" => cmd_promote(flags(PROMOTE_FLAGS)),
        "top" => cmd_top(flags(TOP_FLAGS)),
        "profile" => cmd_profile(flags(PROFILE_FLAGS)),
        "query" => cmd_query(flags(QUERY_FLAGS)),
        _ => usage(),
    }
}
