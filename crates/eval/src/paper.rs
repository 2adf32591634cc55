//! The paper's evaluation (§V: Tables II–VIII, Figs. 5–10 and one
//! extension ablation), behind `smgcn paper`: each experiment is a row of
//! [`TABLE`], and [`drive`] runs the selected rows over a single prepared
//! corpus. [`Lab`] trains each distinct (model kind, `ModelConfig`,
//! `TrainConfig`, thresholds, seed) once and ranks it frozen, the way
//! `smgcn serve` would; every ordering claim is judged `holds`, `tie` or
//! `violated` by a paired bootstrap over the test prescriptions' p@5.
//!
//! The report is what `EVAL_paper.json` holds ([`pretty`] lays it out);
//! a violated claim is named in it and fails the run. README.md,
//! "Reproducing the paper", is the index.

use std::collections::BTreeMap;
use std::time::Instant;

use smgcn_core::prelude::*;
use smgcn_data::{Corpus, SyndromeModel};
use smgcn_serve::json::{self, Json};

use crate::{
    case_study, format_calibrated_optima, format_case_study, format_corpus_statistics,
    format_herb_frequencies, format_metrics_table, non_neural_rows, paired_bootstrap, EvalRow, Lab,
    Prepared, Recipe, Scale, PAPER_KS, SMOKE_SEEDS,
};

/// One table or figure of the paper.
pub struct Experiment {
    /// What `smgcn paper --only` names it by.
    pub id: &'static str,
    title: &'static str,
    /// What the paper reports, with its numbers (original TCM corpus).
    claim: &'static str,
    varies: Varies,
    /// Whether the popularity floor and HC-KGETM head the rows.
    non_neural: bool,
    /// Cutoffs of the printed table (the JSON always holds 5, 10 and 20).
    ks: &'static [usize],
    /// Orderings judged on p@5; a violated one fails the run. Results the
    /// paper reports as insensitive carry none: they are recorded only.
    claims: &'static [Claim],
}

/// `(row label, model kind, change to its tuned training objective)`.
type ObjectiveRow = (&'static str, ModelKind, fn(TrainConfig) -> TrainConfig);

/// What distinguishes the rows of one experiment.
enum Varies {
    /// Nothing is trained per row: corpus statistics, the case study.
    Prints(fn(&mut Run) -> String),
    Rows(&'static [ObjectiveRow]),
    /// One named knob of one model over a grid per scale.
    Sweep {
        kind: ModelKind,
        name: &'static str,
        set: fn(&mut Recipe, f32),
        /// `[smoke, paper]`.
        grid: [&'static [f32]; 2],
    },
}

/// An ordering on p@5 as `[better, worse]` row labels, at smoke and at
/// paper scale: a sweep's grid, and so its interior point, differs.
struct Claim([[&'static str; 2]; 2]);

/// The `scale` half of a `[smoke, paper]` pair.
fn at<T: Copy>(scale: Scale, [smoke, paper]: [T; 2]) -> T {
    match scale {
        Scale::Smoke => smoke,
        Scale::Paper => paper,
    }
}

const fn beats(better: &'static str, worse: &'static str) -> Claim {
    Claim([[better, worse]; 2])
}

/// What an entry of [`TABLE`] may leave out: neural rows only, printed at
/// K = 5, nothing gated.
const RECORDED: Experiment = Experiment {
    id: "",
    title: "",
    claim: "",
    varies: Varies::Rows(&[]),
    non_neural: false,
    ks: &[5],
    claims: &[],
};

/// Every experiment, in the order a full run reports them.
pub const TABLE: &[Experiment] = &[
    Experiment {
        id: "table_ii",
        title: "Table II — dataset statistics",
        claim: "All: 26,360 rx / 360 symptoms / 753 herbs; Train 22,917; Test 3,443 \
                (254 symptoms, 558 herbs used)",
        varies: Varies::Prints(table_ii),
        ..RECORDED
    },
    Experiment {
        id: "table_iii",
        title: "Table III — optimal parameters of comparative models",
        claim: "per-model grid optima; SMGCN: lr 2e-4, λ 7e-3, dropout 0, x_s 5, x_h 40",
        varies: Varies::Prints(table_iii),
        ..RECORDED
    },
    Experiment {
        id: "table_iv",
        title: "Table IV — overall performance comparison",
        claim: "SMGCN best on all metrics, p@5 0.2928; HeteGCN 0.2864, PinSage 0.2841, \
                GC-MC 0.2788, NGCF 0.2787, HC-KGETM 0.2783",
        varies: Varies::Rows(&[
            ("GC-MC", ModelKind::GcMc, |c| c),
            ("PinSage", ModelKind::PinSage, |c| c),
            ("NGCF", ModelKind::Ngcf, |c| c),
            ("HeteGCN", ModelKind::HeteGcn, |c| c),
            ("SMGCN", ModelKind::Smgcn, |c| c),
        ]),
        non_neural: true,
        ks: &PAPER_KS,
        claims: &[
            beats("SMGCN", "HC-KGETM"),
            beats("SMGCN", "GC-MC"),
            beats("SMGCN", "PinSage"),
            beats("SMGCN", "NGCF"),
            beats("SMGCN", "HeteGCN"),
        ],
    },
    Experiment {
        id: "table_v",
        title: "Table V — ablation of Bipar-GCN, SGE and SI",
        claim: "each component helps, p@5: PinSage 0.2841, Bipar-GCN 0.2859, + SGE 0.2916, \
                + SI 0.2914, SMGCN 0.2928",
        varies: Varies::Rows(&[
            ("PinSage", ModelKind::PinSage, |c| c),
            ("Bipar-GCN", ModelKind::BiparGcn, |c| c),
            ("Bipar-GCN w/ SGE", ModelKind::BiparGcnSge, |c| c),
            ("Bipar-GCN w/ SI", ModelKind::BiparGcnSi, |c| c),
            ("SMGCN", ModelKind::Smgcn, |c| c),
        ]),
        claims: &[
            beats("SMGCN", "PinSage"),
            beats("SMGCN", "Bipar-GCN"),
            beats("SMGCN", "Bipar-GCN w/ SGE"),
            beats("SMGCN", "Bipar-GCN w/ SI"),
        ],
        ..RECORDED
    },
    Experiment {
        id: "table_vi",
        title: "Table VI — effect of propagation depth on Bipar-GCN w/ SI",
        claim: "insensitive to depth: p@5 0.2898 / 0.2914 / 0.2882 at 1 / 2 / 3 layers",
        varies: Varies::Sweep {
            kind: ModelKind::BiparGcnSi,
            name: "depth",
            // Middle layers keep the first layer's width and the last its
            // own, so depth is the only variable.
            set: |r, depth| {
                let (first, last) = (r.model.layer_dims[0], r.model.final_dim());
                r.model.layer_dims = vec![first; depth as usize - 1];
                r.model.layer_dims.push(last);
            },
            grid: [&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]],
        },
        ks: &[5, 20],
        ..RECORDED
    },
    Experiment {
        id: "table_vii",
        title: "Table VII — effect of the final embedding dimension on SMGCN",
        claim: "p@5 0.2857 / 0.2882 / 0.2928 / 0.2922 at 64 / 128 / 256 / 512: rising to 256, \
                then flat (the smoke grid is the paper's / 4)",
        varies: Varies::Sweep {
            kind: ModelKind::Smgcn,
            name: "dim",
            set: |r, dim| *r.model.layer_dims.last_mut().expect("a layer") = dim as usize,
            grid: [&[16.0, 32.0, 64.0, 128.0], &[64.0, 128.0, 256.0, 512.0]],
        },
        ks: &[5, 20],
        ..RECORDED
    },
    Experiment {
        id: "table_viii",
        title: "Table VIII — BPR vs multi-label loss (NGCF and Bipar-GCN, both w/ SI)",
        claim: "multi-label beats BPR for both embeddings: p@5 0.2760 → 0.2787 (NGCF), \
                0.2774 → 0.2914 (Bipar-GCN)",
        varies: Varies::Rows(&[
            ("NGCF + BPR", ModelKind::Ngcf, |c| {
                c.with_loss(LossKind::Bpr)
            }),
            ("Bipar-GCN + BPR", ModelKind::BiparGcnSi, |c| {
                c.with_loss(LossKind::Bpr)
            }),
            ("NGCF + multi-label", ModelKind::Ngcf, |c| c),
            ("Bipar-GCN + multi-label", ModelKind::BiparGcnSi, |c| c),
        ]),
        ks: &[5, 20],
        claims: &[
            beats("NGCF + multi-label", "NGCF + BPR"),
            beats("Bipar-GCN + multi-label", "Bipar-GCN + BPR"),
        ],
        ..RECORDED
    },
    Experiment {
        id: "fig_5",
        title: "Fig. 5 — top-40 herb frequency distribution",
        claim: "heavily imbalanced: head herb ~10,000 occurrences, ~10x the 40th",
        varies: Varies::Prints(fig_5),
        ..RECORDED
    },
    Experiment {
        id: "fig_7",
        title: "Fig. 7 — effect of the synergy threshold x_h on SMGCN",
        claim: "interior optimum: p@5 ≈ 0.293 at x_h = 40, 0.289–0.292 elsewhere (low \
                thresholds admit noise, high ones starve HH)",
        varies: Varies::Sweep {
            kind: ModelKind::Smgcn,
            name: "x_h",
            set: |r, x_h| r.thresholds.x_h = x_h as u32,
            // The paper's grid, scaled to the smoke corpus's pair counts.
            grid: [
                &[5.0, 10.0, 20.0, 30.0, 45.0, 60.0],
                &[10.0, 20.0, 40.0, 50.0, 60.0, 80.0],
            ],
        },
        claims: &[
            Claim([["x_h = 30", "x_h = 5"], ["x_h = 40", "x_h = 10"]]),
            Claim([["x_h = 30", "x_h = 60"], ["x_h = 40", "x_h = 80"]]),
        ],
        ..RECORDED
    },
    Experiment {
        id: "fig_8",
        title: "Fig. 8 — effect of L2 regularisation strength λ on SMGCN",
        claim: "interior optimum: p@5 0.290–0.293, best at λ = 7e-3 (larger underfits, \
                smaller overfits)",
        varies: Varies::Sweep {
            kind: ModelKind::Smgcn,
            name: "λ",
            set: |r, l2| r.train.l2_lambda = l2,
            // Around the smoke corpus's calibrated optimum.
            grid: [
                &[0.0, 1e-5, 1e-4, 1e-3, 5e-3, 2e-2],
                &[5e-3, 6e-3, 7e-3, 8e-3, 9e-3, 1e-2],
            ],
        },
        claims: &[
            Claim([["λ = 0.0001", "λ = 0"], ["λ = 0.007", "λ = 0.005"]]),
            Claim([["λ = 0.0001", "λ = 0.02"], ["λ = 0.007", "λ = 0.01"]]),
        ],
        ..RECORDED
    },
    Experiment {
        id: "fig_9",
        title: "Fig. 9 — effect of message dropout on SMGCN",
        claim: "degrades monotonically with dropout: p@5 ≈ 0.29 at 0, toward ~0.05 at 0.8",
        varies: Varies::Sweep {
            kind: ModelKind::Smgcn,
            name: "dropout",
            set: |r, dropout| r.model.dropout = dropout,
            grid: [&[0.0, 0.1, 0.3, 0.5, 0.8], &[0.0, 0.1, 0.3, 0.5, 0.8]],
        },
        claims: &[beats("dropout = 0", "dropout = 0.8")],
        ..RECORDED
    },
    Experiment {
        id: "fig_10",
        title: "Fig. 10 — herb recommendation case study",
        claim: "recommended sets overlap the ground truth substantially; misses are plausible \
                alternatives",
        varies: Varies::Prints(fig_10),
        ..RECORDED
    },
    Experiment {
        id: "ablation_weights",
        title: "Ablation — Eq. 15 label weighting vs uniform weights",
        claim: "(extension, not a paper table) the paper motivates w_i = max freq / freq_i by \
                Fig. 5's imbalance; uniform weights bias the ranking toward frequent herbs",
        varies: Varies::Rows(&[
            ("weighted (Eq. 15)", ModelKind::Smgcn, |c| c),
            ("uniform weights", ModelKind::Smgcn, |mut c| {
                c.weighted_labels = false;
                c
            }),
        ]),
        ks: &PAPER_KS,
        ..RECORDED
    },
];

/// What one run does; `smgcn paper` fills it from its flags.
pub struct Args {
    /// The experiments to run, in order.
    pub experiments: Vec<&'static Experiment>,
    /// The corpus, model and training scale.
    pub scale: Scale,
    /// The train/test split's seed.
    pub seed: u64,
    /// Every training's epochs; `None` keeps each recipe's tuned count.
    pub epochs: Option<usize>,
    /// The training seeds each row averages over ([`train_seeds`]).
    pub train_seeds: Vec<u64>,
    /// The command line that reproduces the run, recorded in the report.
    pub replay: Vec<String>,
}

/// `n` training seeds counting up from the first of [`SMOKE_SEEDS`];
/// unless given, all three at smoke scale and one at paper scale.
pub fn train_seeds(scale: Scale, n: Option<u64>) -> Vec<u64> {
    let n = n.unwrap_or(match scale {
        Scale::Smoke => SMOKE_SEEDS.len() as u64,
        Scale::Paper => 1,
    });
    (0..n).map(|i| SMOKE_SEEDS[0] + i).collect()
}

impl Args {
    /// `kind` at this run's calibrated defaults.
    fn recipe(&self, kind: ModelKind) -> Recipe {
        Recipe::tuned(kind, self.scale, self.epochs)
    }

    /// The `(row label, recipe)` pairs `varies` trains.
    fn variants(&self, varies: &Varies) -> Vec<(String, Recipe)> {
        match *varies {
            Varies::Prints(_) => Vec::new(),
            Varies::Rows(rows) => rows
                .iter()
                .map(|&(label, kind, objective)| {
                    let mut recipe = self.recipe(kind);
                    recipe.train = objective(recipe.train);
                    (label.to_string(), recipe)
                })
                .collect(),
            Varies::Sweep {
                kind,
                name,
                set,
                grid,
            } => at(self.scale, grid)
                .iter()
                .map(|&value| {
                    let mut recipe = self.recipe(kind);
                    set(&mut recipe, value);
                    (format!("{name} = {value}"), recipe)
                })
                .collect(),
        }
    }
}

/// The state of one run.
struct Run<'a> {
    args: &'a Args,
    /// The shared corpus and every model trained on it so far.
    lab: Lab<'a>,
    /// Claims that read `violated`, as `id: better > worse`.
    violated: Vec<String>,
}

impl Run<'_> {
    /// Runs one experiment; returns its `EVAL_paper.json` entry.
    fn experiment(&mut self, exp: &Experiment) -> Json {
        println!("=== {} ===\npaper: {}\n", exp.title, exp.claim);
        let requested = self.lab.requested;
        let (rows, claims) = match exp.varies {
            Varies::Prints(text) => {
                print!("{}", text(self));
                Default::default()
            }
            _ => self.rows_and_claims(exp),
        };
        let trainings = self.lab.requested - requested;
        println!();
        json::obj([
            ("id", Json::Str(exp.id.into())),
            ("title", Json::Str(exp.title.into())),
            ("paper_claim", Json::Str(exp.claim.into())),
            ("rows", Json::Arr(rows)),
            ("claims", Json::Arr(claims)),
            ("trainings", Json::Num(trainings as f64)),
        ])
    }

    /// Trains and prints an experiment's rows and judges its claims;
    /// returns both as JSON.
    fn rows_and_claims(&mut self, exp: &Experiment) -> (Vec<Json>, Vec<Json>) {
        let mut rows = Vec::new();
        if exp.non_neural {
            rows = non_neural_rows(self.lab.prepared, self.args.scale);
        }
        for (label, recipe) in self.args.variants(&exp.varies) {
            let row = self.lab.row(&label, &recipe, &self.args.train_seeds);
            println!("trained {label:<30} ({:.1}s)", row.train_seconds);
            rows.push(row);
        }
        println!("\n{}", format_metrics_table(&rows, exp.ks));
        let claims = exp.claims.iter().map(|claim| {
            let [better, worse] = at(self.args.scale, claim.0).map(|label| {
                let row = rows.iter().find(|row| row.label == label);
                row.expect("a claim names rows of its own experiment")
            });
            let cmp = paired_bootstrap(&better.p5, &worse.p5, 2000, 7);
            let name = format!("{} > {}", better.label, worse.label);
            let (verdict, delta, (lo, hi)) = (cmp.verdict(), cmp.mean_a - cmp.mean_b, cmp.diff_ci);
            println!("claim {name}: {verdict} (Δ p@5 = {delta:+.4}, 95% CI [{lo:+.4}, {hi:+.4}])");
            if verdict == "violated" {
                self.violated.push(format!("{}: {name}", exp.id));
            }
            json::obj([
                ("better", Json::Str(better.label.clone())),
                ("worse", Json::Str(worse.label.clone())),
                ("verdict", Json::Str(verdict.into())),
                ("delta_p5", Json::Num(delta)),
                ("ci95", Json::Arr(vec![Json::Num(lo), Json::Num(hi)])),
            ])
        });
        let claims = claims.collect();
        (rows.iter().map(row_json).collect(), claims)
    }
}

fn row_json(row: &EvalRow) -> Json {
    let mut fields = BTreeMap::new();
    fields.insert("label".to_string(), Json::Str(row.label.clone()));
    fields.insert("train_seconds".to_string(), Json::Num(row.train_seconds));
    for (k, m) in &row.at {
        fields.insert(format!("p@{k}"), Json::Num(m.precision));
        fields.insert(format!("r@{k}"), Json::Num(m.recall));
        fields.insert(format!("ndcg@{k}"), Json::Num(m.ndcg));
    }
    Json::Obj(fields)
}

/// The unsplit corpus: Table II and Fig. 5 describe all of it.
fn full_corpus(run: &Run) -> Corpus {
    SyndromeModel::new(run.args.scale.generator()).generate()
}

fn table_ii(run: &mut Run) -> String {
    let split = run.lab.prepared;
    format_corpus_statistics(&full_corpus(run), &split.train, &split.test)
}

fn table_iii(run: &mut Run) -> String {
    format_calibrated_optima(run.args.scale, run.args.epochs)
}

fn fig_5(run: &mut Run) -> String {
    format_herb_frequencies(&full_corpus(run), 40)
}

/// What the served SMGCN (first seed) recommends for two test cases.
fn fig_10(run: &mut Run) -> String {
    let recipe = run.args.recipe(ModelKind::Smgcn);
    let test = &run.lab.prepared.test;
    let (_, frozen) = run.lab.trained(&recipe, run.args.train_seeds[0]);
    format_case_study(test, &case_study(frozen, test, 2))
}

/// Runs `args.experiments` over `prepared`; returns the report and the
/// violated claims.
pub fn drive(args: &Args, prepared: &Prepared) -> (Json, Vec<String>) {
    let start = Instant::now();
    let scale = format!("{:?}", args.scale).to_lowercase();
    println!(
        "scale: {scale} | split seed: {} | training seeds: {:?}\n",
        args.seed, args.train_seeds
    );
    let mut run = Run {
        args,
        lab: Lab::new(prepared),
        violated: Vec::new(),
    };
    let experiments = args.experiments.iter().map(|exp| run.experiment(exp));
    let experiments: Vec<Json> = experiments.collect();
    let (distinct, requested) = (run.lab.distinct(), run.lab.requested);
    let seconds = start.elapsed().as_secs_f64();
    println!("{distinct} distinct trainings for the {requested} asked for, {seconds:.0}s");
    let strings = |items: &[String]| Json::Arr(items.iter().cloned().map(Json::Str).collect());
    let seeds = args.train_seeds.iter().map(|&s| Json::Num(s as f64));
    let replay = [
        ("bin", Json::Str("smgcn".into())),
        ("args", strings(&args.replay)),
    ];
    let report = json::obj([
        ("scale", Json::Str(scale)),
        ("seed", Json::Num(args.seed as f64)),
        ("train_seeds", Json::Arr(seeds.collect())),
        ("hardware", hardware_json()),
        ("replay", json::obj(replay)),
        ("trainings", Json::Num(distinct as f64)),
        ("trainings_requested", Json::Num(requested as f64)),
        ("wall_seconds", Json::Num(seconds)),
        ("violated", strings(&run.violated)),
        ("experiments", Json::Arr(experiments)),
    ]);
    (report, run.violated)
}

/// The hardware note: enough to explain why two records differ, not
/// enough to pretend numbers are portable.
fn hardware_json() -> Json {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    json::obj([
        ("arch", Json::Str(std::env::consts::ARCH.to_string())),
        ("os", Json::Str(std::env::consts::OS.to_string())),
        ("threads", Json::Num(threads as f64)),
    ])
}

/// `value` with objects and arrays above `depth` one member a line, so
/// the checked-in record diffs by row and by claim.
pub fn pretty(value: &Json, depth: usize, indent: usize) -> String {
    let inner = |v: &Json| pretty(v, depth - 1, indent + 2);
    let keyed = |(k, v): (&String, &Json)| format!("{}: {}", Json::Str(k.clone()), inner(v));
    let (brackets, members): (_, Vec<String>) = match value {
        Json::Obj(map) if depth > 0 => ("{}", map.iter().map(keyed).collect()),
        Json::Arr(items) if depth > 0 => ("[]", items.iter().map(inner).collect()),
        _ => ("", Vec::new()),
    };
    if members.is_empty() {
        return value.to_string();
    }
    let (open, close) = brackets.split_at(1);
    let pad = format!("\n{}", " ".repeat(indent + 2));
    let members = members.join(&format!(",{pad}"));
    format!("{open}{pad}{members}\n{}{close}", " ".repeat(indent))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare_with;
    use smgcn_data::GeneratorConfig;

    /// Every experiment at `scale`, as `smgcn paper` runs it by default.
    fn all_at(scale: Scale) -> Args {
        Args {
            experiments: TABLE.iter().collect(),
            scale,
            seed: 2020,
            epochs: None,
            train_seeds: train_seeds(scale, None),
            replay: Vec::new(),
        }
    }

    #[test]
    fn the_table_is_the_thirteen_old_bins_and_every_claim_names_two_rows() {
        let old = "table_ii table_iii table_iv table_v table_vi table_vii table_viii \
                   fig_5 fig_7 fig_8 fig_9 fig_10 ablation_weights";
        let ids: Vec<&str> = TABLE.iter().map(|e| e.id).collect();
        assert_eq!(ids, old.split_whitespace().collect::<Vec<_>>());
        assert_eq!(train_seeds(Scale::Smoke, None), SMOKE_SEEDS);
        assert_eq!(train_seeds(Scale::Paper, None).len(), 1);
        for args in [all_at(Scale::Smoke), all_at(Scale::Paper)] {
            for exp in TABLE {
                let trained = args
                    .variants(&exp.varies)
                    .into_iter()
                    .map(|(label, _)| label);
                let labels: Vec<String> = trained
                    .chain(["Popularity", "HC-KGETM"].map(String::from))
                    .collect();
                for claim in exp.claims {
                    let [better, worse] = at(args.scale, claim.0);
                    let named = |row: &str| labels.iter().any(|label| label == row);
                    assert!(
                        named(better) && named(worse) && better != worse,
                        "{}",
                        exp.id
                    );
                }
            }
        }
    }

    const SHARED: Experiment = Experiment {
        id: "shared",
        varies: Varies::Rows(&[("SMGCN", ModelKind::Smgcn, |c| c)]),
        non_neural: true,
        claims: &[beats("SMGCN", "Popularity")],
        ..RECORDED
    };
    /// λ = 10 crushes every weight; claiming it the better end is false.
    const CRUSHED: Experiment = Experiment {
        id: "crushed",
        varies: Varies::Sweep {
            kind: ModelKind::Smgcn,
            name: "λ",
            set: |r, l2| r.train.l2_lambda = l2,
            grid: [&[1e-4, 10.0], &[]],
        },
        claims: &[beats("λ = 10", "λ = 0.0001")],
        ..RECORDED
    };

    #[test]
    fn a_shared_config_trains_once_and_a_false_claim_fails_the_run() {
        let args = Args {
            experiments: vec![&SHARED, &CRUSHED],
            epochs: Some(20),
            train_seeds: train_seeds(Scale::Smoke, Some(1)),
            ..all_at(Scale::Smoke)
        };
        let tiny = prepare_with(GeneratorConfig::tiny_scale(), args.scale.thresholds(), 3);
        let (report, violated) = drive(&args, &tiny);
        // SMGCN at λ = 1e-4 is a row of both experiments.
        assert_eq!(report.get("trainings_requested"), Some(&Json::Num(3.0)));
        assert_eq!(report.get("trainings"), Some(&Json::Num(2.0)));
        let read_back = json::parse(&pretty(&report, 4, 0)).expect("the report is JSON");
        assert_eq!(read_back, report);
        let experiments = read_back.get("experiments").and_then(Json::as_arr).unwrap();
        let ids: Vec<_> = experiments
            .iter()
            .map(|e| e.get("id").and_then(Json::as_str))
            .collect();
        assert_eq!(ids, [Some("shared"), Some("crushed")]);
        let verdict = |e: &Json| {
            let claims = e.get("claims").and_then(Json::as_arr).unwrap();
            claims[0]
                .get("verdict")
                .and_then(Json::as_str)
                .map(String::from)
        };
        assert!(verdict(&experiments[0]).is_some());
        assert_eq!(verdict(&experiments[1]).as_deref(), Some("violated"));
        // `smgcn paper` exits 1 on a non-empty list.
        assert_eq!(violated, ["crushed: λ = 10 > λ = 0.0001"]);
    }
}
