//! # smgcn-data — TCM prescription corpus for the SMGCN reproduction
//!
//! The paper evaluates on a public TCM prescription corpus (Yao et al., ref. \[5\],
//! 26,360 prescriptions over 360 symptoms and 753 herbs) that cannot be
//! redistributed here. This crate supplies a faithful substitute plus all
//! corpus plumbing:
//!
//! - [`prescription`] / [`corpus`] — the `⟨sc, hc⟩` record model and corpus
//!   container;
//! - [`vocab`] — id ↔ name mapping seeded with real pinyin TCM entities so
//!   the Fig. 10 case study stays readable;
//! - [`generator`] — the latent-syndrome synthetic generator (the dataset
//!   substitution; see README.md, "The corpus", for what it preserves);
//! - [`split`] — seeded train/test partitioning matching Table II's ratio;
//! - [`stats`] — Table II statistics, Fig. 5 frequency series, and the
//!   Eq. 15 loss weights;
//! - [`io`] — Fig. 6-style text serialisation.

#![warn(missing_docs)]

pub mod corpus;
pub mod generator;
pub mod io;
pub mod prescription;
pub mod split;
pub mod stats;
pub mod vocab;

pub use corpus::Corpus;
pub use generator::{GeneratorConfig, SyndromeModel};
pub use prescription::Prescription;
pub use split::{train_test_split, train_test_split_fraction, Split, PAPER_TEST_FRACTION};
pub use stats::{corpus_stats, herb_frequencies, herb_loss_weights, top_herbs, CorpusStats};
pub use vocab::Vocabulary;
