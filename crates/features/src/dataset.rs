//! Labeled sequence databases: the input to the classification pipeline.

use std::collections::BTreeMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use seqdb::{Sequence, SequenceDatabase};

/// A dense class identifier (index into [`LabeledDatabase::class_names`]).
pub type ClassId = usize;

/// Errors raised when assembling or splitting a labeled database.
#[derive(Debug, Clone, PartialEq)]
pub enum LabelError {
    /// The number of labels does not match the number of sequences.
    LengthMismatch {
        /// Number of sequences in the database.
        sequences: usize,
        /// Number of labels provided.
        labels: usize,
    },
    /// A split fraction outside `(0, 1)` was requested.
    InvalidFraction(f64),
    /// A class has too few sequences for the requested operation (e.g. a
    /// stratified split or cross-validation fold count).
    ClassTooSmall {
        /// The class in question.
        class: String,
        /// How many sequences it has.
        size: usize,
    },
}

impl fmt::Display for LabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelError::LengthMismatch { sequences, labels } => write!(
                f,
                "label count ({labels}) does not match sequence count ({sequences})"
            ),
            LabelError::InvalidFraction(x) => {
                write!(f, "split fraction {x} must lie strictly between 0 and 1")
            }
            LabelError::ClassTooSmall { class, size } => {
                write!(f, "class {class:?} has only {size} sequence(s)")
            }
        }
    }
}

impl std::error::Error for LabelError {}

/// A sequence database whose sequences carry class labels.
///
/// Labels are interned: the public API exposes both the original label
/// strings and dense [`ClassId`]s (the order of first appearance).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledDatabase {
    database: SequenceDatabase,
    class_names: Vec<String>,
    class_ids: Vec<ClassId>,
}

impl LabeledDatabase {
    /// Pairs a database with one label per sequence.
    pub fn new(database: SequenceDatabase, labels: Vec<String>) -> Result<Self, LabelError> {
        if database.num_sequences() != labels.len() {
            return Err(LabelError::LengthMismatch {
                sequences: database.num_sequences(),
                labels: labels.len(),
            });
        }
        let mut class_names: Vec<String> = Vec::new();
        let mut class_ids = Vec::with_capacity(labels.len());
        for label in labels {
            let id = match class_names.iter().position(|c| *c == label) {
                Some(id) => id,
                None => {
                    class_names.push(label);
                    class_names.len() - 1
                }
            };
            class_ids.push(id);
        }
        Ok(Self {
            database,
            class_names,
            class_ids,
        })
    }

    /// The underlying (unlabeled) sequence database.
    pub fn database(&self) -> &SequenceDatabase {
        &self.database
    }

    /// The distinct class names, in order of first appearance.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// The number of distinct classes.
    pub fn num_classes(&self) -> usize {
        self.class_names.len()
    }

    /// The number of sequences.
    pub fn num_sequences(&self) -> usize {
        self.class_ids.len()
    }

    /// The dense class id of each sequence, index-aligned with the database.
    pub fn class_ids(&self) -> &[ClassId] {
        &self.class_ids
    }

    /// The class id of sequence `seq`.
    pub fn class_of(&self, seq: usize) -> Option<ClassId> {
        self.class_ids.get(seq).copied()
    }

    /// The class name of sequence `seq`.
    pub fn label_of(&self, seq: usize) -> Option<&str> {
        self.class_of(seq)
            .and_then(|id| self.class_names.get(id).map(String::as_str))
    }

    /// How many sequences belong to each class, keyed by class id.
    pub fn class_sizes(&self) -> BTreeMap<ClassId, usize> {
        let mut sizes = BTreeMap::new();
        for &id in &self.class_ids {
            *sizes.entry(id).or_insert(0) += 1;
        }
        sizes
    }

    /// The sequence indices belonging to class `class`.
    pub fn sequences_of_class(&self, class: ClassId) -> Vec<usize> {
        self.class_ids
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == class)
            .map(|(i, _)| i)
            .collect()
    }

    /// Builds a new labeled database containing only the sequences at
    /// `indices` (in that order), sharing the event catalog.
    pub fn subset(&self, indices: &[usize]) -> LabeledDatabase {
        let sequences: Vec<Sequence> = indices
            .iter()
            .filter_map(|&i| self.database.sequence(i).map(seqdb::SeqView::to_sequence))
            .collect();
        let class_ids: Vec<ClassId> = indices.iter().filter_map(|&i| self.class_of(i)).collect();
        LabeledDatabase {
            database: SequenceDatabase::from_parts(self.database.catalog().clone(), sequences),
            class_names: self.class_names.clone(),
            class_ids,
        }
    }

    /// A per-class view: the sub-database of just the sequences of `class`.
    pub fn class_database(&self, class: ClassId) -> SequenceDatabase {
        let indices = self.sequences_of_class(class);
        let sequences: Vec<Sequence> = indices
            .iter()
            .filter_map(|&i| self.database.sequence(i).map(seqdb::SeqView::to_sequence))
            .collect();
        SequenceDatabase::from_parts(self.database.catalog().clone(), sequences)
    }

    /// Splits the database into a training and a test part, stratified by
    /// class: each class contributes approximately `train_fraction` of its
    /// sequences to the training part (at least one to each side when the
    /// class has two or more sequences).
    pub fn stratified_split(
        &self,
        train_fraction: f64,
        seed: u64,
    ) -> Result<(LabeledDatabase, LabeledDatabase), LabelError> {
        if !(train_fraction > 0.0 && train_fraction < 1.0) {
            return Err(LabelError::InvalidFraction(train_fraction));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train_indices = Vec::new();
        let mut test_indices = Vec::new();
        for class in 0..self.num_classes() {
            let mut members = self.sequences_of_class(class);
            if members.is_empty() {
                continue;
            }
            if members.len() < 2 {
                return Err(LabelError::ClassTooSmall {
                    class: self.class_names[class].clone(),
                    size: members.len(),
                });
            }
            members.shuffle(&mut rng);
            #[allow(
                clippy::cast_sign_loss,
                reason = "the fraction and the length are non-negative"
            )]
            let mut train_count = ((members.len() as f64) * train_fraction).round() as usize;
            train_count = train_count.clamp(1, members.len() - 1);
            train_indices.extend_from_slice(&members[..train_count]);
            test_indices.extend_from_slice(&members[train_count..]);
        }
        train_indices.sort_unstable();
        test_indices.sort_unstable();
        Ok((self.subset(&train_indices), self.subset(&test_indices)))
    }

    /// Splits the sequence indices into `folds` stratified folds for cross
    /// validation. Every fold receives at least one sequence of every class,
    /// which requires every class to have at least `folds` sequences.
    pub fn stratified_folds(&self, folds: usize, seed: u64) -> Result<Vec<Vec<usize>>, LabelError> {
        assert!(folds >= 2, "cross validation needs at least two folds");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut result = vec![Vec::new(); folds];
        for class in 0..self.num_classes() {
            let mut members = self.sequences_of_class(class);
            if members.len() < folds {
                return Err(LabelError::ClassTooSmall {
                    class: self.class_names[class].clone(),
                    size: members.len(),
                });
            }
            members.shuffle(&mut rng);
            for (i, seq) in members.into_iter().enumerate() {
                result[i % folds].push(seq);
            }
        }
        for fold in &mut result {
            fold.sort_unstable();
        }
        Ok(result)
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        let sizes: Vec<String> = self
            .class_sizes()
            .into_iter()
            .map(|(id, n)| format!("{}={}", self.class_names[id], n))
            .collect();
        format!(
            "{} sequences, {} events, {} classes ({})",
            self.num_sequences(),
            self.database.num_events(),
            self.num_classes(),
            sizes.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> LabeledDatabase {
        let db = SequenceDatabase::from_str_rows(&[
            "ABAB", "ABABAB", "ABBA", "CDCD", "CDCDCD", "CDDC", "ABCD", "DCBA",
        ]);
        LabeledDatabase::new(
            db,
            vec![
                "x".into(),
                "x".into(),
                "x".into(),
                "y".into(),
                "y".into(),
                "y".into(),
                "z".into(),
                "z".into(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn labels_are_interned_in_order_of_first_appearance() {
        let data = toy();
        assert_eq!(data.class_names(), &["x", "y", "z"]);
        assert_eq!(data.num_classes(), 3);
        assert_eq!(data.class_of(0), Some(0));
        assert_eq!(data.class_of(4), Some(1));
        assert_eq!(data.label_of(7), Some("z"));
        assert_eq!(data.class_of(99), None);
        let sizes = data.class_sizes();
        assert_eq!(sizes[&0], 3);
        assert_eq!(sizes[&2], 2);
    }

    #[test]
    fn mismatched_label_count_is_rejected() {
        let db = SequenceDatabase::from_str_rows(&["AB", "CD"]);
        let err = LabeledDatabase::new(db, vec!["only-one".into()]).unwrap_err();
        assert!(matches!(
            err,
            LabelError::LengthMismatch {
                sequences: 2,
                labels: 1
            }
        ));
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn subset_preserves_labels_and_catalog() {
        let data = toy();
        let sub = data.subset(&[1, 4, 6]);
        assert_eq!(sub.num_sequences(), 3);
        assert_eq!(sub.class_ids(), &[0, 1, 2]);
        assert_eq!(
            sub.database().catalog().len(),
            data.database().catalog().len()
        );
        assert_eq!(sub.database().sequence(0).unwrap().len(), 6);
    }

    #[test]
    fn class_database_extracts_one_class() {
        let data = toy();
        let y = data.class_database(1);
        assert_eq!(y.num_sequences(), 3);
        // All sequences of class y are over C and D only.
        let a = data.database().catalog().id("A").unwrap();
        assert_eq!(y.event_occurrences(a), 0);
    }

    #[test]
    fn stratified_split_keeps_every_class_on_both_sides() {
        let data = toy();
        let (train, test) = data.stratified_split(0.5, 7).unwrap();
        assert_eq!(train.num_sequences() + test.num_sequences(), 8);
        for class in 0..data.num_classes() {
            assert!(
                !train.sequences_of_class(class).is_empty(),
                "class {class} missing from train"
            );
            assert!(
                !test.sequences_of_class(class).is_empty(),
                "class {class} missing from test"
            );
        }
    }

    #[test]
    fn stratified_split_is_deterministic_per_seed() {
        let data = toy();
        let (a_train, _) = data.stratified_split(0.6, 42).unwrap();
        let (b_train, _) = data.stratified_split(0.6, 42).unwrap();
        assert_eq!(a_train.class_ids(), b_train.class_ids());
        assert_eq!(a_train.num_sequences(), b_train.num_sequences());
    }

    #[test]
    fn invalid_split_fractions_are_rejected() {
        let data = toy();
        assert!(matches!(
            data.stratified_split(0.0, 1),
            Err(LabelError::InvalidFraction(_))
        ));
        assert!(matches!(
            data.stratified_split(1.0, 1),
            Err(LabelError::InvalidFraction(_))
        ));
    }

    #[test]
    fn split_rejects_singleton_classes() {
        let db = SequenceDatabase::from_str_rows(&["AB", "CD", "EF"]);
        let data = LabeledDatabase::new(db, vec!["a".into(), "a".into(), "b".into()]).unwrap();
        assert!(matches!(
            data.stratified_split(0.5, 1),
            Err(LabelError::ClassTooSmall { .. })
        ));
    }

    #[test]
    fn stratified_folds_cover_every_sequence_exactly_once() {
        let data = toy();
        let folds = data.stratified_folds(2, 3).unwrap();
        assert_eq!(folds.len(), 2);
        let mut all: Vec<usize> = folds.concat();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
        // Each fold holds at least one sequence of every class.
        for fold in &folds {
            for class in 0..data.num_classes() {
                assert!(fold.iter().any(|&i| data.class_of(i) == Some(class)));
            }
        }
    }

    #[test]
    fn folds_reject_classes_smaller_than_the_fold_count() {
        let data = toy();
        assert!(matches!(
            data.stratified_folds(3, 1),
            Err(LabelError::ClassTooSmall { .. })
        ));
    }

    #[test]
    fn summary_mentions_every_class() {
        let data = toy();
        let summary = data.summary();
        assert!(summary.contains("8 sequences"));
        assert!(summary.contains("x=3"));
        assert!(summary.contains("z=2"));
    }
}
