//! One-call "mine → select → train → evaluate" pipeline.
//!
//! The pipeline follows the recipe of the paper's future-work paragraph:
//!
//! 1. mine the **closed** frequent repetitive gapped subsequences of the
//!    training database with CloGSgrow (closed patterns keep the result set
//!    compact without losing support information),
//! 2. turn per-sequence repetitive supports into a feature matrix,
//! 3. keep the most discriminative patterns,
//! 4. train a classifier on the selected features.
//!
//! Mining and feature extraction both run against one [`PreparedDb`]
//! snapshot of the training database, prepared exactly once per training
//! split. [`sweep_min_sup`] and [`cross_validate_pipeline`] hoist that
//! snapshot across threshold sweeps and cross-validation folds.

use rgs_core::{MiningOutcome, MiningRequest, Mode, Pattern, PreparedDb};

use crate::classify::{Classifier, Evaluation, MultinomialNaiveBayes, NearestCentroid};
use crate::dataset::{ClassId, LabelError, LabeledDatabase};
use crate::matrix::{extract_features, extract_features_with, FeatureMatrix};
use crate::selection::{select_top_k, ScoredPattern, SelectionMethod};

/// The classifier trained at the end of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassifierKind {
    /// Nearest centroid on raw repetition counts.
    NearestCentroid,
    /// Multinomial naive Bayes on repetition counts.
    NaiveBayes,
}

/// Configuration of the classification pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Support threshold for the closed-pattern mining step.
    pub min_sup: u64,
    /// How many discriminative patterns to keep as features.
    pub num_features: usize,
    /// Minimum length of candidate patterns (length-1 patterns are usually
    /// too generic to be discriminative).
    pub min_pattern_len: usize,
    /// Scoring function for the selection step.
    pub selection: SelectionMethod,
    /// Which classifier to train.
    pub classifier: ClassifierKind,
    /// Safety cap on the number of mined patterns.
    pub max_patterns: usize,
    /// Optional cap on the length of mined candidate patterns. Long traces
    /// with heavy within-sequence repetition can otherwise produce very long
    /// (and very many) closed patterns; short patterns are usually the
    /// discriminative ones anyway.
    pub max_pattern_length: Option<usize>,
}

impl PipelineConfig {
    /// A pipeline with `min_sup` for mining and `num_features` selected
    /// features, mean-difference selection, and a nearest-centroid
    /// classifier.
    pub fn new(min_sup: u64, num_features: usize) -> Self {
        Self {
            min_sup,
            num_features,
            min_pattern_len: 2,
            selection: SelectionMethod::MeanDifference,
            classifier: ClassifierKind::NearestCentroid,
            max_patterns: 100_000,
            max_pattern_length: None,
        }
    }

    /// Caps the length of mined candidate patterns.
    pub fn with_max_pattern_length(mut self, max_len: usize) -> Self {
        self.max_pattern_length = Some(max_len);
        self
    }

    /// Uses the given selection method.
    pub fn with_selection(mut self, selection: SelectionMethod) -> Self {
        self.selection = selection;
        self
    }

    /// Uses the given classifier.
    pub fn with_classifier(mut self, classifier: ClassifierKind) -> Self {
        self.classifier = classifier;
        self
    }

    /// Sets the minimum candidate pattern length.
    pub fn with_min_pattern_len(mut self, min_len: usize) -> Self {
        self.min_pattern_len = min_len;
        self
    }
}

/// A fitted pipeline: the selected patterns plus the trained classifier.
#[derive(Debug, Clone)]
pub struct FittedPipeline {
    /// The discriminative patterns used as features, best first.
    pub selected: Vec<ScoredPattern>,
    /// Which classifier was trained.
    pub classifier_kind: ClassifierKind,
    nearest_centroid: Option<NearestCentroid>,
    naive_bayes: Option<MultinomialNaiveBayes>,
}

impl FittedPipeline {
    /// The selected feature patterns (in feature-column order).
    pub fn feature_patterns(&self) -> Vec<Pattern> {
        self.selected.iter().map(|s| s.pattern.clone()).collect()
    }

    /// Extracts the selected features for an arbitrary database that shares
    /// the training catalog.
    pub fn featurize(&self, db: &seqdb::SequenceDatabase) -> FeatureMatrix {
        extract_features(db, &self.feature_patterns())
    }

    /// Predicts the class of every sequence of `data`, returning class ids
    /// of the training label space.
    pub fn predict(&self, db: &seqdb::SequenceDatabase) -> Vec<ClassId> {
        let features = self.featurize(db);
        match self.classifier_kind {
            ClassifierKind::NearestCentroid => self
                .nearest_centroid
                .as_ref()
                .expect("fitted")
                .predict_all(&features),
            ClassifierKind::NaiveBayes => self
                .naive_bayes
                .as_ref()
                .expect("fitted")
                .predict_all(&features),
        }
    }

    /// Evaluates the pipeline on labeled data (e.g. a held-out test split).
    pub fn evaluate(&self, data: &LabeledDatabase) -> Evaluation {
        let predictions = self.predict(data.database());
        Evaluation::compare(data.class_ids(), &predictions)
    }
}

/// The outcome of [`run_pipeline`].
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The fitted pipeline (patterns + classifier), usable on new data.
    pub pipeline: FittedPipeline,
    /// Number of closed patterns mined before selection.
    pub mined_patterns: usize,
    /// Accuracy of the classifier on its own training data.
    pub training_accuracy: f64,
    /// Training-set evaluation (confusion matrix etc.).
    pub training_evaluation: Evaluation,
}

/// Runs the full pipeline on `train` and reports the fitted model together
/// with its training-set evaluation.
///
/// Prepares the training database once (its inverted index) and
/// reuses the snapshot for both the mining and the feature-extraction
/// steps. When running several configurations on the same split, prepare
/// the snapshot yourself and call [`run_pipeline_prepared`] — or use
/// [`sweep_min_sup`] / [`cross_validate_pipeline`], which do the hoisting.
pub fn run_pipeline(
    train: &LabeledDatabase,
    config: &PipelineConfig,
) -> Result<PipelineReport, LabelError> {
    let prepared = PreparedDb::new(train.database());
    run_pipeline_prepared(&prepared, train, config)
}

/// [`run_pipeline`] against a caller-prepared snapshot of the training
/// database. `prepared` must be a snapshot of `train.database()` (same
/// sequences, same catalog); the fast path for repeated mining over one
/// training split.
pub fn run_pipeline_prepared(
    prepared: &PreparedDb,
    train: &LabeledDatabase,
    config: &PipelineConfig,
) -> Result<PipelineReport, LabelError> {
    debug_assert_eq!(
        prepared.database().num_sequences(),
        train.num_sequences(),
        "prepared snapshot does not match the training split"
    );
    let mut miner = prepared
        .miner()
        .min_sup(config.min_sup)
        .mode(Mode::Closed)
        .max_patterns(config.max_patterns);
    if let Some(max_len) = config.max_pattern_length {
        miner = miner.max_pattern_length(max_len);
    }
    let mined = miner.run();
    fit_mined(prepared, train, config, &mined)
}

/// The mining request a pipeline configuration resolves to — the same
/// request `run_pipeline_prepared` builds through the [`Miner`] builder,
/// expressed as plain data so a threshold sweep can hand the whole set to
/// [`PreparedDb::batch`] at once.
///
/// [`Miner`]: rgs_core::Miner
fn mining_request(config: &PipelineConfig) -> MiningRequest {
    MiningRequest {
        min_sup: config.min_sup,
        mode: Mode::Closed,
        max_patterns: Some(config.max_patterns),
        max_pattern_length: config.max_pattern_length,
        ..MiningRequest::default()
    }
}

/// The selection/training back half of the pipeline, fed with an already
/// mined closed-pattern set (solo or batched — the batch engine pins its
/// outcomes bit-identical to solo runs, so the split is exact).
fn fit_mined(
    prepared: &PreparedDb,
    train: &LabeledDatabase,
    config: &PipelineConfig,
    mined: &MiningOutcome,
) -> Result<PipelineReport, LabelError> {
    let candidates: Vec<Pattern> = mined
        .patterns
        .iter()
        .filter(|mp| mp.pattern.len() >= config.min_pattern_len)
        .map(|mp| mp.pattern.clone())
        .collect();
    let matrix = extract_features_with(
        &prepared.support_computer(),
        prepared.database(),
        &candidates,
    );
    let selected = select_top_k(
        &matrix,
        train.class_ids(),
        config.selection,
        config.num_features.max(1),
    );
    let columns: Vec<usize> = selected.iter().map(|s| s.column).collect();
    let train_matrix = matrix.select_columns(&columns);

    let mut nearest_centroid = None;
    let mut naive_bayes = None;
    let predictions = match config.classifier {
        ClassifierKind::NearestCentroid => {
            let mut model = NearestCentroid::new();
            model.fit(&train_matrix, train.class_ids());
            let predictions = model.predict_all(&train_matrix);
            nearest_centroid = Some(model);
            predictions
        }
        ClassifierKind::NaiveBayes => {
            let mut model = MultinomialNaiveBayes::new();
            model.fit(&train_matrix, train.class_ids());
            let predictions = model.predict_all(&train_matrix);
            naive_bayes = Some(model);
            predictions
        }
    };
    let training_evaluation = Evaluation::compare(train.class_ids(), &predictions);
    Ok(PipelineReport {
        training_accuracy: training_evaluation.accuracy(),
        training_evaluation,
        mined_patterns: mined.patterns.len(),
        pipeline: FittedPipeline {
            selected,
            classifier_kind: config.classifier,
            nearest_centroid,
            naive_bayes,
        },
    })
}

/// Runs the pipeline at several support thresholds over **one** prepared
/// snapshot of the training split (the threshold sweep is the classic
/// model-selection loop; re-preparing per threshold is pure waste).
/// Returns `(min_sup, report)` pairs in input order.
///
/// All thresholds are mined in **one** [`PreparedDb::batch`] call: the
/// batch engine shares a single closed-pattern DFS at the lowest threshold
/// and routes each pattern to every threshold it satisfies, with each
/// outcome pinned bit-identical to the per-threshold solo run the sweep
/// previously looped over.
pub fn sweep_min_sup(
    train: &LabeledDatabase,
    min_sups: &[u64],
    base: &PipelineConfig,
) -> Result<Vec<(u64, PipelineReport)>, LabelError> {
    let prepared = PreparedDb::new(train.database());
    let configs: Vec<PipelineConfig> = min_sups
        .iter()
        .map(|&min_sup| PipelineConfig {
            min_sup,
            ..base.clone()
        })
        .collect();
    let requests: Vec<MiningRequest> = configs.iter().map(mining_request).collect();
    let mined = prepared.batch(&requests);
    let mut reports = Vec::with_capacity(min_sups.len());
    for (config, result) in configs.iter().zip(&mined) {
        reports.push((
            config.min_sup,
            fit_mined(&prepared, train, config, &result.outcome)?,
        ));
    }
    Ok(reports)
}

/// The outcome of [`cross_validate_pipeline`]: per-fold held-out
/// evaluations of freshly fitted pipelines.
#[derive(Debug, Clone)]
pub struct CrossValidationReport {
    /// Held-out accuracy of each fold, in fold order.
    pub fold_accuracies: Vec<f64>,
    /// Held-out evaluation (confusion matrix etc.) of each fold.
    pub fold_evaluations: Vec<Evaluation>,
}

impl CrossValidationReport {
    /// The mean held-out accuracy across folds.
    pub fn mean_accuracy(&self) -> f64 {
        if self.fold_accuracies.is_empty() {
            return 0.0;
        }
        self.fold_accuracies.iter().sum::<f64>() / self.fold_accuracies.len() as f64
    }
}

/// Stratified k-fold cross validation of the full pipeline: each fold is
/// held out once while the remaining folds form the training split, on
/// which **one** [`PreparedDb`] is prepared and shared by every mining and
/// feature-extraction call of that fold (previously the database was
/// re-prepared on each call).
pub fn cross_validate_pipeline(
    data: &LabeledDatabase,
    folds: usize,
    seed: u64,
    config: &PipelineConfig,
) -> Result<CrossValidationReport, LabelError> {
    let fold_indices = data.stratified_folds(folds, seed)?;
    let mut fold_accuracies = Vec::with_capacity(folds);
    let mut fold_evaluations = Vec::with_capacity(folds);
    for (held_out_fold, held_out) in fold_indices.iter().enumerate() {
        let mut train_indices: Vec<usize> = fold_indices
            .iter()
            .enumerate()
            .filter(|&(fold, _)| fold != held_out_fold)
            .flat_map(|(_, indices)| indices.iter().copied())
            .collect();
        train_indices.sort_unstable();
        let train = data.subset(&train_indices);
        let test = data.subset(held_out);
        // One snapshot per training split, reused by mining and
        // featurization inside `run_pipeline_prepared`.
        let prepared = PreparedDb::new(train.database());
        let report = run_pipeline_prepared(&prepared, &train, config)?;
        let evaluation = report.pipeline.evaluate(&test);
        fold_accuracies.push(evaluation.accuracy());
        fold_evaluations.push(evaluation);
    }
    Ok(CrossValidationReport {
        fold_accuracies,
        fold_evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdb::SequenceDatabase;

    /// Two well-separated behaviour classes: "churners" repeat order-cancel
    /// cycles, "loyal" customers repeat order-deliver cycles.
    fn labeled_example() -> LabeledDatabase {
        let db = SequenceDatabase::from_str_rows(&[
            "OCOCOCOC",
            "OCOCOC",
            "XOCOCOCY",
            "OCOCOCOCOC",
            "ODODODOD",
            "ODODOD",
            "XODODODY",
            "ODODODODOD",
        ]);
        LabeledDatabase::new(
            db,
            vec![
                "churn".into(),
                "churn".into(),
                "churn".into(),
                "churn".into(),
                "loyal".into(),
                "loyal".into(),
                "loyal".into(),
                "loyal".into(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn pipeline_separates_two_behaviour_classes_perfectly() {
        let data = labeled_example();
        for classifier in [ClassifierKind::NearestCentroid, ClassifierKind::NaiveBayes] {
            let report = run_pipeline(
                &data,
                &PipelineConfig::new(2, 4).with_classifier(classifier),
            )
            .unwrap();
            assert!(report.mined_patterns > 0);
            assert_eq!(report.training_accuracy, 1.0, "{classifier:?}");
            assert!(!report.pipeline.selected.is_empty());
        }
    }

    #[test]
    fn fitted_pipeline_generalizes_to_unseen_sequences() {
        let data = labeled_example();
        let (train, test) = data.stratified_split(0.5, 11).unwrap();
        let report = run_pipeline(&train, &PipelineConfig::new(2, 4)).unwrap();
        let eval = report.pipeline.evaluate(&test);
        assert!(
            eval.accuracy() >= 0.75,
            "held-out accuracy too low: {}",
            eval.accuracy()
        );
    }

    #[test]
    fn selected_patterns_are_discriminative_not_shared() {
        let data = labeled_example();
        let report = run_pipeline(&data, &PipelineConfig::new(2, 2)).unwrap();
        let catalog = data.database().catalog();
        let rendered: Vec<String> = report
            .pipeline
            .feature_patterns()
            .iter()
            .map(|p| p.render(catalog))
            .collect();
        // The top features must involve the class-specific events C or D,
        // not the shared prefix O alone.
        assert!(
            rendered.iter().any(|p| p.contains('C') || p.contains('D')),
            "selected patterns {rendered:?} are not class-specific"
        );
    }

    #[test]
    fn selection_method_and_min_len_are_configurable() {
        let data = labeled_example();
        let config = PipelineConfig::new(2, 3)
            .with_selection(SelectionMethod::InformationGain)
            .with_min_pattern_len(1)
            .with_classifier(ClassifierKind::NaiveBayes);
        let report = run_pipeline(&data, &config).unwrap();
        assert!(report.training_accuracy >= 0.5);
        assert!(report.pipeline.selected.len() <= 3);
    }

    #[test]
    fn prepared_pipeline_matches_the_unprepared_one() {
        let data = labeled_example();
        let config = PipelineConfig::new(2, 4);
        let fresh = run_pipeline(&data, &config).unwrap();
        let prepared = PreparedDb::new(data.database());
        let reused = run_pipeline_prepared(&prepared, &data, &config).unwrap();
        assert_eq!(fresh.mined_patterns, reused.mined_patterns);
        assert_eq!(fresh.training_accuracy, reused.training_accuracy);
        assert_eq!(
            fresh.pipeline.feature_patterns(),
            reused.pipeline.feature_patterns()
        );
    }

    #[test]
    fn min_sup_sweep_reuses_one_snapshot_and_matches_individual_runs() {
        let data = labeled_example();
        let base = PipelineConfig::new(2, 4);
        let swept = sweep_min_sup(&data, &[2, 3, 4], &base).unwrap();
        assert_eq!(swept.len(), 3);
        for (min_sup, report) in &swept {
            let config = PipelineConfig {
                min_sup: *min_sup,
                ..base.clone()
            };
            let fresh = run_pipeline(&data, &config).unwrap();
            assert_eq!(report.mined_patterns, fresh.mined_patterns);
            assert_eq!(
                report.pipeline.feature_patterns(),
                fresh.pipeline.feature_patterns()
            );
        }
    }

    #[test]
    fn batched_sweep_matches_old_stepped_loop_exactly() {
        // The pre-batch implementation looped `run_pipeline_prepared` per
        // threshold; reproduce that loop verbatim and pin the batched
        // sweep against it, including the mined-pattern counts the batch
        // engine must replay bit-identically.
        let data = labeled_example();
        let base = PipelineConfig::new(2, 4).with_max_pattern_length(5);
        let min_sups = [1u64, 2, 3, 4, 6];
        let swept = sweep_min_sup(&data, &min_sups, &base).unwrap();
        let prepared = PreparedDb::new(data.database());
        for (&min_sup, (reported_sup, report)) in min_sups.iter().zip(&swept) {
            let config = PipelineConfig {
                min_sup,
                ..base.clone()
            };
            let stepped = run_pipeline_prepared(&prepared, &data, &config).unwrap();
            assert_eq!(*reported_sup, min_sup);
            assert_eq!(report.mined_patterns, stepped.mined_patterns, "{min_sup}");
            assert_eq!(report.training_accuracy, stepped.training_accuracy);
            assert_eq!(
                report.pipeline.feature_patterns(),
                stepped.pipeline.feature_patterns(),
                "min_sup {min_sup}"
            );
        }
    }

    #[test]
    fn cross_validation_stays_pinned_to_solo_mining() {
        // The cross-validation path intentionally stays on solo mining
        // (each fold has its own training split, so there is nothing to
        // batch); pin its per-fold numbers so a future rewire can't drift
        // them silently.
        let data = labeled_example();
        let config = PipelineConfig::new(2, 4);
        let first = cross_validate_pipeline(&data, 2, 7, &config).unwrap();
        let second = cross_validate_pipeline(&data, 2, 7, &config).unwrap();
        assert_eq!(first.fold_accuracies, second.fold_accuracies);
        // Reproduce fold 0 by hand through the solo pipeline and check the
        // held-out evaluation matches what cross-validation reported.
        let fold_indices = data.stratified_folds(2, 7).unwrap();
        let mut train_indices: Vec<usize> = fold_indices.get(1).cloned().unwrap_or_default();
        train_indices.sort_unstable();
        let train = data.subset(&train_indices);
        let test = data.subset(fold_indices.first().map(Vec::as_slice).unwrap_or(&[]));
        let report = run_pipeline(&train, &config).unwrap();
        let evaluation = report.pipeline.evaluate(&test);
        assert_eq!(
            first.fold_accuracies.first().copied(),
            Some(evaluation.accuracy()),
            "fold 0 drifted off the solo-mining path"
        );
    }

    #[test]
    fn cross_validation_hoists_one_prepared_db_per_split() {
        let data = labeled_example();
        let report = cross_validate_pipeline(&data, 2, 7, &PipelineConfig::new(2, 4)).unwrap();
        assert_eq!(report.fold_accuracies.len(), 2);
        assert_eq!(report.fold_evaluations.len(), 2);
        assert!(report.mean_accuracy() >= 0.5, "{report:?}");
        for accuracy in &report.fold_accuracies {
            assert!((0.0..=1.0).contains(accuracy));
        }
    }

    #[test]
    fn predictions_align_with_class_name_order() {
        let data = labeled_example();
        let report = run_pipeline(&data, &PipelineConfig::new(2, 4)).unwrap();
        let churn_only = data.class_database(0);
        let predictions = report.pipeline.predict(&churn_only);
        assert!(predictions.iter().all(|&c| c == 0));
    }
}
