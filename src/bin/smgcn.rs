//! `smgcn` — command-line interface to the herb recommender.
//!
//! `smgcn --help` lists every command with the flags it reads, which of
//! them are required, and their defaults. The help, the parser and every
//! default come from one table, `COMMANDS`: a flag the help does not list
//! is one the command rejects.
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
//!
//! `paper` reproduces the paper's evaluation (Tables II–VIII, Figs.
//! 5–10): every experiment of `smgcn_eval::paper::TABLE`, or the ones
//! `--only` names, trained once per distinct configuration and ranked
//! frozen. It writes `EVAL_paper.json` and exits 1 when an ordering claim
//! reads `violated`.

use std::collections::HashMap;
use std::process::exit;
use std::str::FromStr;

use smgcn_repro::data::io as corpus_io;
use smgcn_repro::data::{train_test_split_fraction, Split};
use smgcn_repro::eval::train_config_for;
use smgcn_repro::graph::GraphOperators;
use smgcn_repro::prelude::*;
use smgcn_repro::serve::artifact;
use smgcn_repro::serve::json::{self, Json};
use smgcn_repro::tensor::checkpoint::restore_into;

/// A flag's value when the command line leaves it out.
#[derive(Clone, Copy)]
enum Absent {
    /// None: the command cannot run without it.
    Required,
    /// This value.
    DefaultsTo(&'static str),
    /// None; the note says for `--help` what the command does instead.
    Optional(&'static str),
}
use Absent::{DefaultsTo, Optional, Required};

/// One `--name VALUE` flag, as `--help` shows it and the parser takes it.
struct Flag {
    name: &'static str,
    /// What `--help` shows for the value; for a flag that takes one of a
    /// few words, those words (`smoke|paper`).
    value: &'static str,
    absent: Absent,
}

const fn flag(name: &'static str, value: &'static str, absent: Absent) -> Flag {
    Flag {
        name,
        value,
        absent,
    }
}

/// One command: its name, the word it takes before its flags, every
/// flag it reads, and the function that runs it.
struct Command {
    name: &'static str,
    /// `loadgen SCENARIO|all`, `experiment ACTION`.
    word: Option<&'static str>,
    /// Its own flags, then the shared groups it reads.
    flags: &'static [&'static [Flag]],
    run: fn(&Args),
}

/// A command that takes no word before its flags.
const fn cmd(name: &'static str, flags: &'static [&'static [Flag]], run: fn(&Args)) -> Command {
    Command {
        name,
        word: None,
        flags,
        run,
    }
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// This command's entry in `--help`.
    fn usage(&self) -> String {
        let word = self.word.map(|w| format!(" {w}")).unwrap_or_default();
        let mut text = format!("\n  smgcn {}{word}\n", self.name);
        for flag in self.flags() {
            let absent = match flag.absent {
                Required => "required".to_string(),
                DefaultsTo(value) => format!("default {value}"),
                Optional(note) => note.to_string(),
            };
            let shape = format!("--{} {}", flag.name, flag.value);
            text.push_str(&format!("      {shape:<34} {absent}\n"));
        }
        text
    }
}

const CORPUS: Flag = flag("corpus", "FILE", Required);
const MODEL_FILE: Flag = flag("model-file", "FILE", Required);
const OUT: Flag = flag("out", "FILE", Required);
const ADDR: Flag = flag("addr", "HOST:PORT", Required);
const REPLICAS: Flag = flag("replicas", "HOST:PORT,...", Required);
const SCALE: Flag = flag("scale", "smoke|paper", DefaultsTo("smoke"));
const SEED: Flag = flag("seed", "N", DefaultsTo("2020"));
const MODELS: &str = "smgcn|bipar-gcn|gcmc|pinsage|ngcf|hetegcn";
const TUNED: Absent = Optional("tuned per --model and --scale");
const SERVER: Absent = Optional("ServerConfig's default");
const ROUTER: Absent = Optional("RouterConfig's default");
const SCENARIO: Absent = Optional("the scenario's default");
const GUARDRAIL: Absent = Optional("the router's guardrail default");

/// What rebuilds a training checkpoint given as `--model-file`; a frozen
/// model ignores them.
const REBUILD: &[Flag] = &[flag("model", MODELS, DefaultsTo("smgcn")), SCALE, SEED];

/// The self-scrape sidecar of `serve` and `route`.
const SCRAPE: &[Flag] = &[
    flag("tsdb", "FILE", Optional("off: no history, no alerts")),
    flag("scrape-ms", "N", DefaultsTo("1000")),
];

const COMMANDS: &[Command] = &[
    cmd("generate", &[&[OUT, SCALE, SEED]], cmd_generate),
    cmd(
        "train",
        &[
            &[
                CORPUS,
                OUT,
                flag("epochs", "N", TUNED),
                flag("lr", "F", TUNED),
                flag("l2", "F", TUNED),
            ],
            REBUILD,
        ],
        cmd_train,
    ),
    cmd("eval", &[&[CORPUS, MODEL_FILE], REBUILD], cmd_eval),
    cmd("freeze", &[&[CORPUS, MODEL_FILE, OUT], REBUILD], cmd_freeze),
    cmd(
        "recommend",
        &[
            &[
                CORPUS,
                MODEL_FILE,
                flag("symptoms", "\"name1,name2,...\"", Required),
                flag("k", "N", DefaultsTo("10")),
            ],
            REBUILD,
        ],
        cmd_recommend,
    ),
    cmd(
        "serve",
        &[
            &[
                CORPUS,
                MODEL_FILE,
                flag("addr", "HOST:PORT", DefaultsTo("127.0.0.1:7878")),
                flag("connections", "N", SERVER),
                flag("cache", "N", SERVER),
                flag("batch-max", "N", SERVER),
            ],
            SCRAPE,
            REBUILD,
        ],
        cmd_serve,
    ),
    cmd(
        "ingest",
        &[&[
            CORPUS,
            flag("wal", "FILE", Required),
            flag("add", "\"s1,s2 => h1,h2 ; s3 => h4\"", Required),
            flag("allow-new", "true|false", DefaultsTo("true")),
        ]],
        cmd_ingest,
    ),
    cmd(
        "refresh",
        &[
            &[
                CORPUS,
                flag("wal", "FILE", Required),
                MODEL_FILE,
                OUT,
                flag("frozen-out", "FILE", Optional("not written")),
                flag("corpus-out", "FILE", Optional("the --corpus file")),
                flag("epochs", "N", DefaultsTo("5")),
                flag("replicas", "HOST:PORT,...", Optional("no fleet rollout")),
            ],
            REBUILD,
        ],
        cmd_refresh,
    ),
    cmd(
        "route",
        &[
            &[
                REPLICAS,
                flag("addr", "HOST:PORT", DefaultsTo("127.0.0.1:7979")),
                flag("connections", "N", ROUTER),
                flag("replica-conns", "N", ROUTER),
                flag("probe-ms", "N", ROUTER),
                flag("slow-p99-ms", "F", ROUTER),
            ],
            SCRAPE,
        ],
        cmd_route,
    ),
    cmd(
        "cluster-refresh",
        &[&[REPLICAS, CORPUS, MODEL_FILE], REBUILD],
        cmd_cluster_refresh,
    ),
    Command {
        name: "loadgen",
        word: Some("SCENARIO|all"),
        flags: &[&[
            SEED,
            flag("measure-ms", "N", SCENARIO),
            flag("workers", "N", SCENARIO),
            flag("k", "N", SCENARIO),
            flag("storm-conns", "N", SCENARIO),
            flag("out", "FILE", Optional("OUT-DIR/LOADGEN_<scenario>.json")),
            flag("out-dir", "DIR", DefaultsTo(".")),
            flag("plan", "true|false", DefaultsTo("false")),
        ]],
        run: cmd_loadgen,
    },
    Command {
        name: "experiment",
        word: Some("publish|install|halt|status|compare"),
        flags: &[
            &[
                ADDR,
                flag("variant", "NAME", Optional("publish: required")),
                flag("corpus", "FILE", Optional("publish: required")),
                flag("model-file", "FILE", Optional("publish: required")),
                flag("split", "NAME:PCT,...", Optional("install: required")),
                flag("out", "FILE", Optional("compare: not written")),
            ],
            REBUILD,
        ],
        run: cmd_experiment,
    },
    cmd(
        "promote",
        &[&[
            ADDR,
            flag("variant", "NAME", Required),
            flag("max-error-rate", "F", GUARDRAIL),
            flag("max-p99-delta", "F", GUARDRAIL),
            flag("min-samples", "N", GUARDRAIL),
        ]],
        cmd_promote,
    ),
    cmd(
        "top",
        &[&[
            ADDR,
            flag("interval-ms", "N", DefaultsTo("1000")),
            flag("iterations", "N", DefaultsTo("0")),
        ]],
        cmd_top,
    ),
    cmd("profile", &[&[ADDR]], cmd_profile),
    cmd(
        "query",
        &[&[
            flag("tsdb", "FILE", Required),
            flag("series", "SELECTOR", Optional("list every series")),
            flag("op", "last|delta|rate|avg|max|quantile", DefaultsTo("last")),
            flag("from", "MS", Optional("the history's start")),
            flag("to", "MS", Optional("the history's end")),
            flag("q", "F", DefaultsTo("0.99")),
        ]],
        cmd_query,
    ),
    cmd(
        "paper",
        &[&[
            SCALE,
            SEED,
            flag("epochs", "N", Optional("each recipe's tuned count")),
            flag("seeds", "N", Optional("3 at smoke scale, 1 at paper")),
            flag("out", "FILE", DefaultsTo("EVAL_paper.json")),
            flag("only", "ID,...", Optional("every experiment")),
        ]],
        cmd_paper,
    ),
];

fn usage_text() -> String {
    use smgcn_repro::eval::paper::TABLE;
    use smgcn_repro::loadgen::ScenarioKind;
    let scenarios: Vec<&str> = ScenarioKind::all().iter().map(|k| k.name()).collect();
    let experiments: Vec<&str> = TABLE.iter().map(|e| e.id).collect();
    let mut text = String::from(
        "usage: smgcn COMMAND [WORD] [--flag VALUE]...\n\
         (--help or -h anywhere prints this; a flag a command does not list is an error)\n",
    );
    for command in COMMANDS {
        text.push_str(&command.usage());
    }
    text.push_str(&format!(
        "\nscenarios: {}\n\
         experiments (paper --only): {}\n\
         experiment: publish reads --variant, --corpus, --model-file and --model/--scale/--seed; \
         install --split and --seed (sent only when given); compare --out\n\
         --model-file for recommend/serve: a frozen model (smgcn freeze) or a training checkpoint\n\
         env: SMGCN_FAULT_SEED=N arms the seeded fault-injection storm plan in this process\n",
        scenarios.join(", "),
        experiments.join(", ")
    ));
    text
}

/// A misuse: the error, then the usage of `command` (of every command
/// when there is none) on stderr; exit 2.
fn misuse(command: Option<&Command>, message: &str) -> ! {
    let usage = command.map_or_else(usage_text, |c| format!("usage:{}", c.usage()));
    eprint!("error: {message}\n{usage}");
    exit(2)
}

/// A command line checked against `COMMANDS`: a known command, its word,
/// only flags it reads, each with a value, none of its required flags
/// missing and every word-valued flag one of its words. The getters
/// default and type a flag in one call; a number that does not parse is
/// a misuse that names the command and the flag.
struct Args {
    command: &'static Command,
    /// `smgcn COMMAND [WORD]`, as errors name the command.
    label: String,
    /// The word before the flags; empty for a command that takes none.
    word: String,
    given: HashMap<&'static str, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Self {
        let Some((name, mut rest)) = argv.split_first() else {
            misuse(None, "smgcn needs a command");
        };
        let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
            misuse(None, &format!("smgcn has no command {name:?}"));
        };
        let mut args = Self {
            command,
            label: format!("smgcn {name}"),
            word: String::new(),
            given: HashMap::new(),
        };
        if let Some(expected) = command.word {
            match rest.split_first() {
                Some((word, tail)) if !word.starts_with("--") => {
                    args.label = format!("{} {word}", args.label);
                    args.word = word.clone();
                    rest = tail;
                }
                _ => args.misuse(format!(" needs {expected} first")),
            }
        }
        // `--name value` pairs, each name one this command reads: a typo
        // run with the default it was meant to replace would be a wrong
        // answer, not a convenience.
        let mut pairs = rest.iter();
        while let Some(arg) = pairs.next() {
            let Some(key) = arg.strip_prefix("--") else {
                args.misuse(format!(": expected a --flag, found {arg:?}"));
            };
            let Some(flag) = command.flags().find(|f| f.name == key) else {
                let names: Vec<&str> = command.flags().map(|f| f.name).collect();
                args.misuse(format!(
                    " has no flag --{key} (it reads: --{})",
                    names.join(", --")
                ));
            };
            let Some(value) = pairs.next() else {
                args.misuse(format!(": --{key} needs a value"));
            };
            args.given.insert(flag.name, value.clone());
        }
        // Misuse shows before any work.
        for flag in command.flags() {
            let is_word = |value: &str| flag.value.split('|').any(|word| word == value);
            match args.get(flag.name) {
                None if matches!(flag.absent, Required) => {
                    args.misuse(format!(" needs --{}", flag.name))
                }
                Some(value) if flag.value.contains('|') && !is_word(value) => args.bad(flag.name),
                _ => {}
            }
        }
        args
    }

    /// A misuse of this command. `what` follows its label directly:
    /// ` needs --corpus`, `: --epochs "abc" is not a number`.
    fn misuse(&self, what: impl std::fmt::Display) -> ! {
        misuse(Some(self.command), &format!("{}{what}", self.label))
    }

    fn flag(&self, name: &str) -> &'static Flag {
        let flag = self.command.flags().find(|f| f.name == name);
        flag.unwrap_or_else(|| panic!("{} reads undeclared --{name}", self.label))
    }

    /// `--name` as given, else its default.
    fn get(&self, name: &str) -> Option<&str> {
        let given = self.given.get(name).map(String::as_str);
        match self.flag(name).absent {
            DefaultsTo(value) => Some(given.unwrap_or(value)),
            _ => given,
        }
    }

    /// `--name` as given or defaulted; absent, a misuse.
    fn need(&self, name: &str) -> &str {
        self.get(name)
            .unwrap_or_else(|| self.misuse(format!(" needs --{name}")))
    }

    /// `--name` as a number, when given or defaulted.
    fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        self.get(name)
            .map(|v| v.parse().unwrap_or_else(|_| self.bad(name)))
    }

    /// `--name` as a number the command cannot do without.
    fn num<T: FromStr>(&self, name: &str) -> T {
        self.need(name).parse().unwrap_or_else(|_| self.bad(name))
    }

    /// `--name` as one of the words its table entry lists, which `parse`
    /// must map for every word.
    fn choice<T>(&self, name: &str, parse: impl FnOnce(&str) -> Option<T>) -> T {
        parse(self.need(name)).expect("parse checks a word against its flag's words")
    }

    /// `--name`'s value does not parse.
    fn bad(&self, name: &str) -> ! {
        let words = self.flag(name).value;
        let want = if words.contains('|') {
            format!("one of {words}")
        } else {
            "a number".to_string()
        };
        self.misuse(format!(": --{name} {:?} is not {want}", self.need(name)))
    }
}

fn model_kind(args: &Args) -> ModelKind {
    args.choice("model", |name| match name {
        "smgcn" => Some(ModelKind::Smgcn),
        "bipar-gcn" => Some(ModelKind::BiparGcn),
        "gcmc" => Some(ModelKind::GcMc),
        "pinsage" => Some(ModelKind::PinSage),
        "ngcf" => Some(ModelKind::Ngcf),
        "hetegcn" => Some(ModelKind::HeteGcn),
        _ => None,
    })
}

/// A runtime failure, as opposed to a misuse: the error on stderr, exit 1.
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    exit(1)
}

trait OrFail<T> {
    /// The value, or [`fail`] with `doing` and the error.
    fn or_fail(self, doing: impl std::fmt::Display) -> T;
}

impl<T, E: std::fmt::Display> OrFail<T> for Result<T, E> {
    fn or_fail(self, doing: impl std::fmt::Display) -> T {
        self.unwrap_or_else(|e| fail(format!("{doing}: {e}")))
    }
}

/// The split of `corpus` that `--seed` picks and the graph operators over
/// its training side at `--scale`'s thresholds: what a checkpoint was
/// trained on.
fn split_and_ops(args: &Args, corpus: &Corpus) -> (Split, GraphOperators) {
    let split = train_test_split_fraction(corpus, PAPER_TEST_FRACTION, args.num("seed"));
    let ops = GraphOperators::from_records(
        split.train.records(),
        corpus.n_symptoms(),
        corpus.n_herbs(),
        args.choice("scale", Scale::from_arg).thresholds(),
    );
    (split, ops)
}

fn cmd_generate(args: &Args) {
    let out = args.need("out");
    let config = args.choice("scale", Scale::from_arg).generator();
    let corpus = SyndromeModel::new(config.with_seed(args.num("seed"))).generate();
    corpus_io::save_corpus(&corpus, out).or_fail(format!("cannot write {out:?}"));
    let stats = corpus_stats(&corpus);
    println!(
        "wrote {out}: {} prescriptions, {} symptoms, {} herbs",
        stats.n_prescriptions, stats.n_symptoms_used, stats.n_herbs_used
    );
}

fn cmd_train(args: &Args) {
    let out = args.need("out");
    let kind = model_kind(args);
    let sc = args.choice("scale", Scale::from_arg);
    let mut cfg = train_config_for(kind, sc);
    cfg.epochs = args.opt("epochs").unwrap_or(cfg.epochs);
    cfg.learning_rate = args.opt("lr").unwrap_or(cfg.learning_rate);
    cfg.l2_lambda = args.opt("l2").unwrap_or(cfg.l2_lambda);
    let (split, ops) = split_and_ops(args, &load_corpus_only(args));
    let mut model = build_model(kind, &ops, &sc.model_config(), args.num("seed"));
    println!(
        "training {} on {} prescriptions ({} epochs, lr {:.0e}, λ {:.0e})...",
        model.name(),
        split.train.len(),
        cfg.epochs,
        cfg.learning_rate,
        cfg.l2_lambda
    );
    train_with_callback(&mut model, &split.train, &cfg, |stats, _| {
        if stats.epoch % 10 == 0 || stats.epoch + 1 == cfg.epochs {
            println!("  epoch {:>3}: loss {:.3}", stats.epoch, stats.mean_loss);
        }
    });
    let metrics = evaluate_ranker(&model, &split.test, &PAPER_KS);
    for (k, m) in &metrics {
        println!(
            "test p@{k} = {:.4}  r@{k} = {:.4}  ndcg@{k} = {:.4}",
            m.precision, m.recall, m.ndcg
        );
    }
    save_checkpoint(&model, out);
    println!("saved checkpoint to {out}");
}

/// Writes a training checkpoint: the model's parameter store as a model
/// file, without names.
fn save_checkpoint(model: &smgcn_repro::core::Recommender, out: &str) {
    artifact::save(out, model.store(), &ServingVocab::default()).or_fail("cannot save checkpoint");
}

fn rebuild_and_load(args: &Args, ops: &GraphOperators) -> smgcn_repro::core::Recommender {
    let model_file = args.need("model-file");
    let model_config = args.choice("scale", Scale::from_arg).model_config();
    let mut model = build_model(model_kind(args), ops, &model_config, args.num("seed"));
    let (store, _) = artifact::load(model_file).or_fail(format!("cannot read {model_file:?}"));
    let name = model.name().to_string();
    restore_into(model.store_mut(), &store).or_fail(format!(
        "cannot restore {model_file:?} into a fresh {name} (wrong --model/--scale?)"
    ));
    model
}

fn cmd_eval(args: &Args) {
    let (split, ops) = split_and_ops(args, &load_corpus_only(args));
    let model = rebuild_and_load(args, &ops);
    println!(
        "{} on {} held-out prescriptions:",
        model.name(),
        split.test.len()
    );
    for (k, m) in evaluate_ranker(&model, &split.test, &PAPER_KS) {
        println!(
            "  p@{k} = {:.4}  r@{k} = {:.4}  ndcg@{k} = {:.4}",
            m.precision, m.recall, m.ndcg
        );
    }
}

/// Loads the corpus alone (no split, no graphs) — all the frozen fast
/// path needs is the vocabulary.
fn load_corpus_only(args: &Args) -> Corpus {
    let path = args.need("corpus");
    corpus_io::load_corpus(path).or_fail(format!("cannot read corpus {path:?}"))
}

/// Loads `--model-file` as a [`FrozenModel`]: directly when it already is
/// one (no split, no graph construction, no convolutions), otherwise by
/// rebuilding the full training checkpoint — graphs and all — and
/// freezing it in-process. Either way, scoring goes through the
/// serve-layer path. `corpus` is the already-loaded corpus, reused by
/// the fallback so the file is never parsed twice.
fn load_frozen(args: &Args, corpus: &Corpus) -> FrozenModel {
    let model_file = args.need("model-file");
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
            let (_, ops) = split_and_ops(args, corpus);
            FrozenModel::from_recommender(&rebuild_and_load(args, &ops))
        }
        Err(e) => fail(format!("cannot load {model_file:?}: {e}")),
    }
}

/// The corpus's names as the vocabulary a server answers with and a
/// publish artifact carries.
fn serving_vocab(corpus: &Corpus) -> ServingVocab {
    let names = |vocab: &smgcn_repro::data::Vocabulary| {
        vocab.iter().map(|(_, name)| name.to_string()).collect()
    };
    ServingVocab::new(names(corpus.symptom_vocab()), names(corpus.herb_vocab()))
}

fn parse_symptom_ids(spec: &str, corpus: &Corpus) -> Vec<u32> {
    let vocab = corpus.symptom_vocab();
    let mut ids = Vec::new();
    for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match vocab.id(name) {
            Some(id) => ids.push(id),
            None => fail(format!(
                "unknown symptom {name:?} (names are vocabulary entries)"
            )),
        }
    }
    if ids.is_empty() {
        fail("--symptoms produced an empty set");
    }
    ids
}

fn cmd_freeze(args: &Args) {
    let out = args.need("out");
    let (_, ops) = split_and_ops(args, &load_corpus_only(args));
    let model = rebuild_and_load(args, &ops);
    let frozen = FrozenModel::from_recommender(&model);
    frozen.save(out).or_fail("cannot save frozen model");
    println!(
        "froze {} into {out}: {} symptoms x {} herbs, d = {}, si_mlp = {}",
        model.name(),
        frozen.n_symptoms(),
        frozen.n_herbs(),
        frozen.dim(),
        frozen.has_si_mlp()
    );
}

fn cmd_recommend(args: &Args) {
    let k: usize = args.num("k");
    let corpus = load_corpus_only(args);
    let frozen = load_frozen(args, &corpus);
    let ids = parse_symptom_ids(args.need("symptoms"), &corpus);
    let vocab = corpus.symptom_vocab();
    println!("symptom set:");
    for &s in &ids {
        println!("  - {}", vocab.name(s));
    }
    let ranking = frozen.recommend(&ids, k).unwrap_or_else(|e| fail(e));
    println!("top-{k} herbs (frozen scorer):");
    for (rank, h) in ranking.into_iter().enumerate() {
        println!("  {:>2}. {}", rank + 1, corpus.herb_vocab().name(h));
    }
}

fn cmd_serve(args: &Args) {
    let mut config = ServerConfig::default();
    config.max_connections = args.opt("connections").unwrap_or(config.max_connections);
    config.cache_capacity = args.opt("cache").unwrap_or(config.cache_capacity);
    config.batcher.max_batch = args.opt("batch-max").unwrap_or(config.batcher.max_batch);
    let addr = args.need("addr");
    let corpus = load_corpus_only(args);
    let frozen = load_frozen(args, &corpus);
    let vocab = serving_vocab(&corpus);
    let server =
        Server::bind(addr, frozen, vocab, config.clone()).or_fail(format!("cannot bind {addr}"));
    println!(
        "serving on {} (max {} connections, cache {}, max batch {})",
        server
            .local_addr()
            .map_or_else(|_| addr.to_string(), |a| a.to_string()),
        config.max_connections,
        config.cache_capacity,
        config.batcher.max_batch
    );
    println!(r#"protocol: one JSON object per line, e.g. {{"symptoms": ["s1", "s2"], "k": 10}}"#);
    let _scraper = self_scrape(args, server.local_addr(), false, server.events());
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
            fail(format!("record {chunk:?} needs \"symptoms => herbs\""));
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
        fail("--add produced no records");
    }
    records
}

fn cmd_ingest(args: &Args) {
    use smgcn_repro::online::Ingestor;
    let wal = args.need("wal");
    let allow_new: bool = args.choice("allow-new", |v| v.parse().ok());
    let spec = args.need("add");
    let corpus = load_corpus_only(args);
    let mut ingestor = Ingestor::with_wal(corpus, wal).or_fail(format!("cannot open WAL {wal:?}"));
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
            Err(e) => fail(e),
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

fn cmd_refresh(args: &Args) {
    use smgcn_repro::online::{FineTuneConfig, OnlineConfig, OnlinePipeline};
    let kind = model_kind(args);
    let sc = args.choice("scale", Scale::from_arg);
    let seed = args.num("seed");
    let ft_epochs = args.num("epochs");
    let (corpus_path, wal, out) = (args.need("corpus"), args.need("wal"), args.need("out"));
    if kind != ModelKind::Smgcn {
        fail("refresh warm-starts the full SMGCN only (--model smgcn)");
    }
    let corpus = load_corpus_only(args);
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
    let model = rebuild_and_load(args, &ops);
    let mut train_cfg = train_config_for(kind, sc);
    train_cfg.seed = seed;
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
            seed,
        },
        wal,
    )
    .or_fail(format!("cannot open WAL {wal:?}"));
    let pending = pipeline.ingestor().pending().len();
    println!("replayed {pending} pending record(s) from {wal}");
    let report = pipeline.refresh().or_fail("refresh failed");
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
    save_checkpoint(pipeline.model(), out);
    println!("saved refreshed checkpoint to {out}");
    if let Some(frozen_out) = args.get("frozen-out") {
        let frozen = &pipeline.slot().load().model;
        frozen.save(frozen_out).or_fail("cannot save frozen model");
        println!("saved frozen model to {frozen_out}");
    }
    let corpus_out = args.get("corpus-out").unwrap_or(corpus_path);
    corpus_io::save_corpus(pipeline.corpus(), corpus_out)
        .or_fail(format!("cannot write merged corpus {corpus_out:?}"));
    // Checkpoint and merged corpus are on disk; only now is it safe to
    // drop the log (a failure above keeps the WAL covering the records).
    pipeline
        .truncate_wal()
        .or_fail(format!("cannot truncate WAL {wal:?}"));
    println!(
        "merged corpus written to {corpus_out} ({} prescriptions); WAL truncated",
        pipeline.corpus().len()
    );
    if let Some(spec) = args.get("replicas") {
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
        roll_out(&replicas, &artifact);
    }
}

/// Parses `--replicas HOST:PORT,HOST:PORT,...` into socket addresses.
fn parse_replicas(spec: &str) -> Vec<std::net::SocketAddr> {
    use std::net::ToSocketAddrs;
    let mut addrs = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.to_socket_addrs().ok().and_then(|mut it| it.next()) {
            Some(addr) => addrs.push(addr),
            None => fail(format!("cannot resolve replica address {part:?}")),
        }
    }
    if addrs.is_empty() {
        fail("--replicas produced no addresses");
    }
    addrs
}

fn cmd_route(args: &Args) {
    use smgcn_repro::cluster::Router;
    let mut config = RouterConfig::default();
    config.max_connections = args.opt("connections").unwrap_or(config.max_connections);
    config.pool.max_conns_per_replica = args
        .opt("replica-conns")
        .unwrap_or(config.pool.max_conns_per_replica);
    if let Some(ms) = args.opt("probe-ms") {
        config.probe_interval = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = args.opt::<f64>("slow-p99-ms") {
        config.pool.slow_p99_us = Some(ms * 1e3);
    }
    let addr = args.need("addr");
    let replicas = parse_replicas(args.need("replicas"));
    let n_replicas = replicas.len();
    let router =
        Router::bind(addr, replicas, config.clone()).or_fail(format!("cannot bind {addr}"));
    println!(
        "routing on {} over {} replica(s) (max {} client connections, {} conns/replica, probe every {:?})",
        router
            .local_addr()
            .map_or_else(|_| addr.to_string(), |a| a.to_string()),
        n_replicas,
        config.max_connections,
        config.pool.max_conns_per_replica,
        config.probe_interval
    );
    println!("protocol: identical to smgcn serve; admin: {{\"op\":\"stats\"}}, {{\"op\":\"publish\",...}}");
    let _scraper = self_scrape(args, router.local_addr(), true, router.events());
    if let Err(e) = router.run() {
        eprintln!("router error: {e}");
        exit(1);
    }
}

/// The CLI's one admin client: `request` to `addr` on a connection of
/// its own, under the timeouts the fleet itself uses for admin traffic
/// ([`PoolConfig::default`](smgcn_repro::cluster::PoolConfig)). An
/// `{"error":…}` reply comes back as a refusal, never as a report.
fn ask_admin(addr: &str, request: &str) -> Result<Json, smgcn_repro::serve::Unanswered> {
    let fleet = smgcn_repro::cluster::PoolConfig::default();
    smgcn_repro::serve::client::ask(addr, fleet.connect_timeout, fleet.admin_timeout, request)
}

/// [`ask_admin`] for a command that has nothing to show without an
/// answer: a refusal prints as `error [code]: message`, silence names
/// the address, and either way the command exits 1.
fn admin_or_exit(addr: &str, request: &str) -> Json {
    use smgcn_repro::serve::Unanswered;
    match ask_admin(addr, request) {
        Ok(reply) => reply,
        Err(Unanswered::Refused(reply)) => exit_refused(&reply),
        Err(silence) => fail(format!("no response from {addr} ({silence})")),
    }
}

/// The default availability burn-rate rule a self-scraping `serve` or
/// `route` process evaluates live: canonical SRE window pairs (5m/1h at
/// 14.4, 30m/6h at 6) against a 99.99% objective, clamped so the
/// windows never dip under four scrape intervals.
fn default_availability_rule(routed: bool, scrape_ms: u64) -> smgcn_repro::obs::alert::SloRule {
    use smgcn_repro::obs::alert::SloRule;
    let names = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
    let (bad, total) = if routed {
        (
            names(&["router_exhausted_total"]),
            names(&["router_requests_total"]),
        )
    } else {
        (
            names(&smgcn_repro::loadgen::REPLICA_BAD_COUNTERS),
            names(&["serve_requests_total"]),
        )
    };
    SloRule::availability("availability-burn", bad, total, 1e-4)
        .with_min_window(scrape_ms.saturating_mul(4))
}

/// Starts the self-scrape sidecar behind `--tsdb`, when given: polls
/// this process's own front end at `front` every `--scrape-ms`, appends
/// each flattened snapshot to the on-disk tsdb (resuming a previous
/// history if the file already has one), and ticks the burn-rate alert
/// engine so firings land in the process's own event journal
/// (`{"op":"events"}`, `smgcn top`). The returned scraper runs until
/// the process exits.
fn self_scrape(
    args: &Args,
    front: std::io::Result<std::net::SocketAddr>,
    routed: bool,
    events: std::sync::Arc<smgcn_repro::obs::EventJournal>,
) -> Option<smgcn_repro::obs::tsdb::Scraper> {
    use smgcn_repro::obs::alert::AlertEngine;
    use smgcn_repro::obs::tsdb::{Scraper, Tsdb};
    let path = args.get("tsdb")?;
    let scrape_ms = args.num("scrape-ms");
    let front = front.or_fail("cannot resolve own address for self-scrape");
    let what = if routed { "merged fleet " } else { "" };
    println!(
        "self-scraping {what}metrics to {path} every {scrape_ms} ms \
         (burn-rate alerts land in the event journal)"
    );
    let (mut tsdb, mut data) = Tsdb::open(path).or_fail(format!("cannot open tsdb {path:?}"));
    let mut engine = AlertEngine::new(vec![default_availability_rule(routed, scrape_ms)]);
    Some(Scraper::spawn(
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
    ))
}

fn cmd_profile(args: &Args) {
    let addr = args.need("addr");
    let report = admin_or_exit(addr, r#"{"op":"profile"}"#);
    let folded = report.get("folded").and_then(Json::as_str).unwrap_or("");
    let num = |key| report.get(key).and_then(Json::as_num).unwrap_or(0.0);
    let (profiled, measured) = (num("profile_total_us"), num("latency_total_us"));
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

fn cmd_query(args: &Args) {
    use smgcn_repro::obs::tsdb::TsdbData;
    let path = args.need("tsdb");
    let (from, to, q): (Option<u64>, Option<u64>, f64) =
        (args.opt("from"), args.opt("to"), args.num("q"));
    let op = args.need("op");
    let bytes = std::fs::read(path).or_fail(format!("cannot read {path:?}"));
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
    let Some(selector) = args.get("series") else {
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
    let (t0, t1) = (from.unwrap_or(start), to.unwrap_or(end));
    let value = match op {
        "last" => data.last(selector),
        "delta" => Some(data.delta(selector, t0, t1)),
        "rate" => Some(data.rate(selector, t0, t1)),
        "avg" => data.avg_over_time(selector, t0, t1),
        "max" => data.max_over_time(selector, t0, t1),
        "quantile" => data.quantile_over_time(selector, t0, t1, q),
        _ => unreachable!("parse checks --op against its words"),
    };
    match value {
        Some(v) => println!("{op}({selector}) [{t0} .. {t1}] = {v}"),
        None => fail(format!("no series matches {selector:?} in the window")),
    }
}

/// `smgcn paper`: the paper's tables and figures (`eval::paper`) over one
/// prepared corpus, the report written to `--out`; a violated ordering
/// claim exits 1.
fn cmd_paper(args: &Args) {
    use smgcn_repro::eval::paper::{self, TABLE};
    let scale = args.choice("scale", Scale::from_arg);
    let experiments = match args.get("only") {
        None => TABLE.iter().collect(),
        Some(ids) => ids
            .split(',')
            .map(|id| match TABLE.iter().find(|e| e.id == id) {
                Some(experiment) => experiment,
                None => args.misuse(format!(": --only {id:?} is not an experiment")),
            })
            .collect(),
    };
    let seeds = args.opt("seeds");
    if seeds == Some(0) {
        args.misuse(": --seeds 0 trains nothing");
    }
    // What reproduces the run: every flag given but --out.
    let mut replay = vec!["paper".to_string()];
    for flag in args.command.flags().filter(|f| f.name != "out") {
        if let Some(value) = args.given.get(flag.name) {
            replay.extend([format!("--{}", flag.name), value.clone()]);
        }
    }
    let run = paper::Args {
        experiments,
        scale,
        seed: args.num("seed"),
        epochs: args.opt("epochs"),
        train_seeds: paper::train_seeds(scale, seeds),
        replay,
    };
    let out = args.need("out");
    let (report, violated) = paper::drive(&run, &prepare(scale, run.seed));
    std::fs::write(out, paper::pretty(&report, 4, 0) + "\n").or_fail(format!("cannot write {out}"));
    println!("wrote {out}");
    if !violated.is_empty() {
        fail(format!("violated: {}", violated.join("; ")));
    }
}

/// Exits with the structured error of a refused admin request.
fn exit_refused(reply: &Json) -> ! {
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
fn print_compare_report(report: &Json) {
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

/// `smgcn experiment <publish|install|halt|status|compare>` — the
/// operator half of the A/B experiment plane, driven through a router
/// (or a single replica for publish/status).
fn cmd_experiment(args: &Args) {
    let addr = args.need("addr");
    let action = match args.word.as_str() {
        "abort" => "halt",
        action => action,
    };
    let request = match action {
        "publish" => {
            use smgcn_repro::serve::artifact::{publish_line, to_base64};
            let variant = args.need("variant");
            let (artifact, about) = publish_artifact(args);
            println!("publishing candidate {variant:?} ({about}) via {addr}");
            publish_line(to_base64(&artifact), Some(variant))
        }
        "install" | "halt" | "status" | "compare" => {
            let mut fields = vec![
                ("op", Json::Str("experiment".into())),
                ("action", Json::Str(action.to_string())),
            ];
            if action == "install" {
                fields.push(("weights", Json::Str(args.need("split").to_string())));
                if args.given.contains_key("seed") {
                    fields.push(("seed", Json::Num(args.num::<u64>("seed") as f64)));
                }
            }
            json::obj(fields).to_string()
        }
        other => args.misuse(format!(": {other:?} is not an action")),
    };
    let reply = admin_or_exit(addr, &request);
    if action != "compare" {
        println!("{reply}");
        return;
    }
    print_compare_report(&reply);
    if let Some(path) = args.get("out") {
        std::fs::write(path, format!("{reply}\n")).or_fail(format!("cannot write {path}"));
        println!("wrote {path}");
    }
}

/// `smgcn promote --addr ... --variant NAME` — guardrail-checked
/// candidate promotion: the router verifies the comparison report
/// clears the error-rate / p99 / sample-count bars, rolls the candidate
/// into every control slot, and halts the split.
fn cmd_promote(args: &Args) {
    let (addr, variant) = (args.need("addr"), args.need("variant"));
    let mut fields = vec![
        ("op", Json::Str("experiment".into())),
        ("action", Json::Str("promote".into())),
        ("variant", Json::Str(variant.to_string())),
    ];
    for (flag, field) in [
        ("max-error-rate", "max_error_rate"),
        ("max-p99-delta", "max_p99_delta"),
        ("min-samples", "min_samples"),
    ] {
        if let Some(v) = args.opt(flag) {
            fields.push((field, Json::Num(v)));
        }
    }
    let reply = admin_or_exit(addr, &json::obj(fields).to_string());
    let replicas = reply.get("replicas").and_then(Json::as_num).unwrap_or(0.0);
    println!(
        "promoted {variant:?} to control on {replicas:.0} replica(s); split halted, traffic on the new control"
    );
}

/// The publish artifact of `--model-file` with `--corpus`'s names, and
/// what it holds, for a progress line.
fn publish_artifact(args: &Args) -> (Vec<u8>, String) {
    let corpus = load_corpus_only(args);
    let frozen = load_frozen(args, &corpus);
    let artifact = artifact::encode(&frozen, &serving_vocab(&corpus));
    let about = format!(
        "{} symptoms x {} herbs, d = {}, artifact {} KiB",
        frozen.n_symptoms(),
        frozen.n_herbs(),
        frozen.dim(),
        artifact.len() / 1024
    );
    (artifact, about)
}

/// Rolls `artifact` across `replicas` one at a time and reports each
/// outcome, exiting nonzero unless every replica acknowledged.
fn roll_out(replicas: &[std::net::SocketAddr], artifact: &[u8]) {
    use smgcn_repro::cluster::{rolling_publish_addrs, PoolConfig};
    let report = rolling_publish_addrs(replicas, artifact, &PoolConfig::default());
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
        fail(format!(
            "rolling publish incomplete ({} of {} replicas updated)",
            report.published(),
            report.outcomes.len()
        ));
    }
    println!(
        "rolling publish complete: {} replica(s) updated, fleet never dark",
        report.published()
    );
}

fn cmd_cluster_refresh(args: &Args) {
    let replicas = parse_replicas(args.need("replicas"));
    let (artifact, about) = publish_artifact(args);
    println!("rolling {about} across {} replica(s):", replicas.len());
    roll_out(&replicas, &artifact);
}

fn cmd_loadgen(args: &Args) {
    use smgcn_repro::loadgen::{build, run, ScenarioConfig, ScenarioKind, WorkloadSummary};
    let kinds: Vec<ScenarioKind> = match args.word.as_str() {
        "all" => ScenarioKind::all().to_vec(),
        name => match ScenarioKind::from_arg(name) {
            Some(kind) => vec![kind],
            None => args.misuse(format!(": {name:?} is not a scenario")),
        },
    };
    let mut config = ScenarioConfig {
        seed: args.num("seed"),
        ..ScenarioConfig::default()
    };
    config.measure_ms = args.opt("measure-ms").unwrap_or(config.measure_ms);
    config.workers = args.opt("workers").unwrap_or(config.workers);
    config.k = args.opt("k").unwrap_or(config.k);
    // connection-storm cohort override for fd-constrained hosts (the
    // single loadgen process holds both ends of every storm socket).
    config.storm_connections = args.opt("storm-conns").or(config.storm_connections);
    let plan_only: bool = args.choice("plan", |v| v.parse().ok());
    let out_dir = args.need("out-dir");
    let out = args.get("out");
    if kinds.len() > 1 && out.is_some() {
        args.misuse(": --out names one file; use --out-dir with multiple scenarios");
    }
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        args.misuse(format!(": cannot create --out-dir {out_dir}: {e}"));
    }

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
            print!(
                "{}",
                WorkloadSummary::from_workload(&workload).workload_json()
            );
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
        // The report, then what the front end said at the end of the run.
        let line = |text: &Option<String>| text.as_ref().map(|t| format!("{t}\n").into_bytes());
        for (prefix, contents) in [
            ("LOADGEN", Some(report.to_json_string().into_bytes())),
            ("METRICS", line(&report.metrics_json)),
            ("EVENTS", line(&report.events_json)),
            ("TSDB", report.tsdb.clone()),
            ("PROFILE", line(&report.profile_json)),
            ("EXPERIMENT", line(&report.experiment_json)),
        ] {
            let Some(contents) = contents else { continue };
            let ext = if prefix == "TSDB" { "bin" } else { "json" };
            let path = match out {
                Some(out) if prefix == "LOADGEN" => out.to_string(),
                _ => format!("{out_dir}/{prefix}_{}.{ext}", kind.name().replace('-', "_")),
            };
            std::fs::write(&path, contents).or_fail(format!("cannot write {path}"));
            println!("  wrote {path}");
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
    metrics: &Json,
    generation: Option<&Json>,
    prev: &mut HashMap<String, f64>,
    elapsed_s: f64,
) {
    let num = |name: &str| metrics.get(name).and_then(Json::as_num).unwrap_or(0.0);
    let requests = num("serve_requests_total");
    let qps = qps(prev, label.to_string(), requests, elapsed_s);
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

/// Requests per second since the previous frame saw row `key` at `prev`,
/// or `-` on the row's first frame.
fn qps(prev: &mut HashMap<String, f64>, key: String, requests: f64, elapsed_s: f64) -> String {
    match prev.insert(key, requests) {
        Some(last) if elapsed_s > 0.0 => format!("{:.0}", (requests - last).max(0.0) / elapsed_s),
        _ => "-".to_string(),
    }
}

/// Per-variant breakdown rows under a replica (or merged) row, one per
/// `variant` label found in the metrics: weight, generation, qps, p99
/// and cumulative error rate of each arm of a live traffic split.
/// Silent when the replica has no variant-labeled metrics (no
/// experiment running), so plain deployments see the classic table.
fn variant_rows(label: &str, metrics: &Json, prev: &mut HashMap<String, f64>, elapsed_s: f64) {
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
        let qps = qps(prev, format!("{label}//{variant}"), requests, elapsed_s);
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

fn cmd_top(args: &Args) {
    let addr = args.need("addr");
    let interval_ms: u64 = args.num("interval-ms");
    let iterations: u64 = args.num("iterations");

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
        let journal = ask_admin(addr, r#"{"op":"events"}"#).ok();
        let events = journal.as_ref().and_then(|r| r.get("events")?.as_arr());
        fn text<'a>(e: &'a Json, key: &str) -> &'a str {
            e.get(key).and_then(Json::as_str).unwrap_or("")
        }
        let alerts: Vec<&Json> = (events.unwrap_or_default().iter())
            .filter(|e| matches!(text(e, "kind"), "alert" | "alert_resolved"))
            .collect();
        if !alerts.is_empty() {
            println!("\nALERTS (journal tail):");
            for e in &alerts[alerts.len().saturating_sub(5)..] {
                let mark = if text(e, "kind") == "alert" {
                    "FIRING "
                } else {
                    "resolved"
                };
                let unix_ms = e.get("unix_ms").and_then(Json::as_num).unwrap_or(0.0);
                println!("  [{unix_ms:.0}] {mark} {}", text(e, "detail"));
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Asking for help is not a misuse: stdout, exit 0, wherever it sits.
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage_text());
        return;
    }
    let args = Args::parse(&argv);
    (args.command.run)(&args);
}
