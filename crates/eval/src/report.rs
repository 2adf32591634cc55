//! Paper-style report rendering: metric tables in the paper's layout,
//! Table II's corpus statistics, Table III's calibrated optima, Fig. 5's
//! frequency histogram and the Fig. 10 case study. The paper's own
//! numbers and the ordering claims live with the experiment table in
//! `smgcn-bench`'s `paper` bin.

use smgcn_data::{corpus_stats, top_herbs, Corpus};

use smgcn_core::ModelKind;

use crate::harness::{EvalRow, Recipe, Scale};

/// Renders rows in the paper's Table IV layout:
/// `model | p@K... | r@K... | ndcg@K...`.
pub fn format_metrics_table(rows: &[EvalRow], ks: &[usize]) -> String {
    let mut header = vec!["model".to_string()];
    for prefix in ["p", "r", "ndcg"] {
        for &k in ks {
            header.push(format!("{prefix}@{k}"));
        }
    }
    let mut table: Vec<Vec<String>> = vec![header];
    for row in rows {
        let mut line = vec![row.label.clone()];
        for metric in 0..3usize {
            for &k in ks {
                let m = row.at_k(k).unwrap_or_default();
                let v = match metric {
                    0 => m.precision,
                    1 => m.recall,
                    _ => m.ndcg,
                };
                line.push(format!("{v:.4}"));
            }
        }
        table.push(line);
    }
    render_aligned(&table)
}

/// Renders Table II: prescriptions and the symptoms / herbs in use, for
/// the whole corpus and both splits, and the mean set sizes.
pub fn format_corpus_statistics(all: &Corpus, train: &Corpus, test: &Corpus) -> String {
    let header = ["dataset", "#prescriptions", "#symptoms", "#herbs"];
    let mut table = vec![header.map(String::from).to_vec()];
    for (name, corpus) in [("All", all), ("Train", train), ("Test", test)] {
        let s = corpus_stats(corpus);
        let mut line = vec![name.to_string()];
        line.extend([s.n_prescriptions, s.n_symptoms_used, s.n_herbs_used].map(|c| c.to_string()));
        table.push(line);
    }
    let s = corpus_stats(all);
    format!(
        "{}\nmean set sizes: {:.2} symptoms / {:.2} herbs per prescription\n",
        render_aligned(&table),
        s.mean_symptoms_per_rx,
        s.mean_herbs_per_rx
    )
}

/// Renders this reproduction's side of Table III: each Table IV model's
/// calibrated optimum on the synthetic corpus at `scale` (the paper's own
/// are in README.md, "Reproducing the paper").
pub fn format_calibrated_optima(scale: Scale, epochs: Option<usize>) -> String {
    let mut out = String::new();
    for kind in ModelKind::table_iv() {
        let Recipe { train, model, .. } = Recipe::tuned(kind, scale, epochs);
        out.push_str(&format!(
            "{:<10} lr = {:.0e}, dropout = {}, λ = {:.0e}, epochs = {}, batch = {}\n",
            kind.label(),
            train.learning_rate,
            model.dropout,
            train.l2_lambda,
            train.epochs,
            train.batch_size
        ));
    }
    let (th, model) = (scale.thresholds(), scale.model_config());
    out + &format!(
        "thresholds x_s = {}, x_h = {} | embedding {} | layers {:?}\n",
        th.x_s, th.x_h, model.embedding_dim, model.layer_dims
    )
}

/// Renders Fig. 5: the `n` most frequent herbs as a histogram, and how
/// many times the first outnumbers the last.
pub fn format_herb_frequencies(corpus: &Corpus, n: usize) -> String {
    let top = top_herbs(corpus, n);
    let head = top.first().map_or(1, |&(_, c)| c).max(1) as f64;
    let tail = top.last().map_or(1, |&(_, c)| c).max(1) as f64;
    let mut out = "rank   herb                         frequency  histogram\n".to_string();
    for (rank, &(id, count)) in top.iter().enumerate() {
        let bar = "#".repeat((f64::from(count) / head * 50.0).round() as usize);
        let name = corpus.herb_vocab().name(id);
        out.push_str(&format!("{rank:<6} {name:<28} {count:>9}  {bar}\n"));
    }
    out + &format!("\nhead/rank-{n} frequency ratio: {:.1}x\n", head / tail)
}

/// Renders the Fig. 10 case study: named symptom sets, the model's top-K
/// herbs, and the overlap with ground truth marked `[*]`.
pub fn format_case_study(
    corpus: &Corpus,
    cases: &[(Vec<u32>, Vec<u32>, Vec<u32>)], // (symptom set, truth herbs, recommended)
) -> String {
    let mut out = String::new();
    for (i, (symptoms, truth, recommended)) in cases.iter().enumerate() {
        out.push_str(&format!("case {}:\n  symptoms: ", i + 1));
        let names: Vec<&str> = symptoms
            .iter()
            .map(|&s| corpus.symptom_vocab().name(s))
            .collect();
        out.push_str(&names.join(", "));
        out.push_str("\n  ground-truth herbs: ");
        let truth_names: Vec<&str> = truth.iter().map(|&h| corpus.herb_vocab().name(h)).collect();
        out.push_str(&truth_names.join(", "));
        out.push_str("\n  recommended: ");
        let rec: Vec<String> = recommended
            .iter()
            .map(|&h| {
                let name = corpus.herb_vocab().name(h);
                if truth.contains(&h) {
                    format!("[*]{name}")
                } else {
                    name.to_string()
                }
            })
            .collect();
        out.push_str(&rec.join(", "));
        let hits = recommended.iter().filter(|h| truth.contains(h)).count();
        out.push_str(&format!(
            "\n  overlap: {hits}/{} recommended herbs are in the ground truth\n",
            recommended.len()
        ));
    }
    out
}

fn render_aligned(table: &[Vec<String>]) -> String {
    if table.is_empty() {
        return String::new();
    }
    let cols = table.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in table {
        for (c, cell) in row.iter().enumerate() {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    for row in table {
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:<width$}", width = widths[c]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RankingMetrics;

    fn row(label: &str, p5: f64) -> EvalRow {
        EvalRow {
            label: label.into(),
            at: vec![
                (
                    5,
                    RankingMetrics {
                        precision: p5,
                        recall: p5 * 0.7,
                        ndcg: p5 * 1.3,
                    },
                ),
                (
                    10,
                    RankingMetrics {
                        precision: p5 * 0.8,
                        recall: p5,
                        ndcg: p5 * 1.2,
                    },
                ),
            ],
            p5: Vec::new(),
            train_seconds: 1.0,
        }
    }

    #[test]
    fn table_contains_all_rows_and_metrics() {
        let rows = vec![row("A", 0.25), row("B", 0.30)];
        let s = format_metrics_table(&rows, &[5, 10]);
        assert!(s.contains("p@5"));
        assert!(s.contains("ndcg@10"));
        assert!(s.contains('A') && s.contains('B'));
        assert!(s.contains("0.2500"));
        assert!(s.contains("0.3000"));
    }

    #[test]
    fn corpus_renderers_count_and_rank() {
        use smgcn_data::{Prescription, Vocabulary};
        let rx = vec![
            Prescription::new(vec![0], vec![0, 1]),
            Prescription::new(vec![0, 1], vec![0]),
        ];
        let (symptoms, herbs) = (["s0", "s1"], ["h0", "h1", "h2"]);
        let corpus = Corpus::new(
            Vocabulary::from_names(symptoms),
            Vocabulary::from_names(herbs),
            rx,
        );
        let s = format_corpus_statistics(&corpus, &corpus, &corpus);
        assert!(
            s.contains("Train") && s.contains("1.50 symptoms / 1.50 herbs"),
            "{s}"
        );
        let s = format_herb_frequencies(&corpus, 2);
        assert!(
            s.contains("h0") && !s.contains("h2") && s.contains("ratio: 2.0x"),
            "{s}"
        );
        let s = format_calibrated_optima(Scale::Smoke, Some(3));
        assert!(
            s.contains("SMGCN      lr = 3e-3") && s.contains("epochs = 3"),
            "{s}"
        );
    }

    #[test]
    fn case_study_marks_overlap() {
        use smgcn_data::{Prescription, Vocabulary};
        let corpus = Corpus::new(
            Vocabulary::from_names(["s0", "s1"]),
            Vocabulary::from_names(["h0", "h1", "h2"]),
            vec![Prescription::new(vec![0], vec![0])],
        );
        let cases = vec![(vec![0u32, 1], vec![0u32, 2], vec![0u32, 1])];
        let s = format_case_study(&corpus, &cases);
        assert!(s.contains("[*]h0"), "{s}");
        assert!(s.contains("overlap: 1/2"), "{s}");
    }
}
