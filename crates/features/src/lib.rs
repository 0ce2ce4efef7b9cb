//! # rgs-features — repetitive patterns as classification features
//!
//! The concluding section of the ICDE'09 paper sketches a follow-up
//! application of repetitive gapped subsequence mining: *"frequent
//! repetitive gapped subsequences can be used as features for classifying
//! sequences, like (buggy/un-buggy) program execution traces and purchase
//! histories of different types of customers. The patterns which repeat
//! frequently in some sequences while infrequently in others could be
//! discriminative features for classification. Our algorithms find all
//! frequent repetitive patterns and report their supports in each sequence
//! as feature values; a future work is to select discriminative ones for
//! classification."*
//!
//! This crate implements that pipeline end to end:
//!
//! * [`LabeledDatabase`] — a sequence database whose sequences carry class
//!   labels, with stratified train/test splitting,
//! * [`matrix`] — per-sequence repetitive support extraction into a
//!   [`FeatureMatrix`] (one row per sequence, one column per pattern),
//! * [`selection`] — discriminative pattern scoring (information gain,
//!   chi-squared, mean-support difference) and top-k selection,
//! * [`classify`] — simple reference classifiers (nearest centroid,
//!   multinomial naive Bayes, k-nearest-neighbour), evaluation metrics, and
//!   k-fold cross validation,
//! * [`pipeline`] — a one-call "mine → select → train → evaluate" pipeline.
//!
//! The pipeline rides on the prepared-query engine: threshold sweeps and
//! cross-validation hoist **one** [`rgs_core::PreparedDb`] per training
//! split ([`pipeline::run_pipeline_prepared`], [`pipeline::sweep_min_sup`],
//! [`pipeline::cross_validate_pipeline`]) instead of re-indexing per call —
//! and a long-lived service can persist that snapshot with
//! `PreparedDb::write_snapshot` and reopen it on restart.
//!
//! # Example
//!
//! ```
//! use seqdb::SequenceDatabase;
//! use rgs_features::{LabeledDatabase, pipeline::{PipelineConfig, run_pipeline}};
//!
//! // Two "customers who churn" (lots of cancel-after-order repetition) and
//! // two who do not.
//! let db = SequenceDatabase::from_str_rows(&[
//!     "OCOCOCOC", "OCOCOC", "ODODODOD", "ODODOD",
//! ]);
//! let labeled = LabeledDatabase::new(db, vec![
//!     "churn".into(), "churn".into(), "loyal".into(), "loyal".into(),
//! ]).unwrap();
//!
//! let report = run_pipeline(&labeled, &PipelineConfig::new(2, 4)).unwrap();
//! assert!(report.training_accuracy >= 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod dataset;
pub mod matrix;
pub mod pipeline;
pub mod selection;

pub use classify::{Classifier, Evaluation, KnnClassifier, MultinomialNaiveBayes, NearestCentroid};
pub use dataset::{ClassId, LabeledDatabase};
pub use matrix::{extract_features, extract_features_with, FeatureMatrix};
pub use pipeline::{
    cross_validate_pipeline, run_pipeline, run_pipeline_prepared, sweep_min_sup,
    CrossValidationReport, PipelineConfig, PipelineReport,
};
pub use selection::{score_patterns, select_top_k, ScoredPattern, SelectionMethod};
