//! Per-sequence repetitive support extraction into a feature matrix.
//!
//! The paper's future-work sketch says the miners "report their supports in
//! each sequence as feature values". For a pattern `P`, the per-sequence
//! feature value of sequence `Si` is the maximum number of non-overlapping
//! instances of `P` inside `Si` — exactly the contribution of `Si` to the
//! global repetitive support (the per-sequence maxima are independent, so
//! the global leftmost support set restricted to `Si` attains each of them).

use rgs_core::{Pattern, PreparedDb};
use seqdb::SequenceDatabase;

/// A dense feature matrix: one row per sequence of the database, one column
/// per pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    patterns: Vec<Pattern>,
    /// Row-major values, `rows * columns` entries.
    values: Vec<f64>,
    rows: usize,
}

impl FeatureMatrix {
    /// Creates a matrix from its parts. `values` must hold
    /// `rows * patterns.len()` entries in row-major order.
    pub fn from_parts(patterns: Vec<Pattern>, values: Vec<f64>, rows: usize) -> Self {
        assert_eq!(
            values.len(),
            rows * patterns.len(),
            "value buffer must be rows x columns"
        );
        Self {
            patterns,
            values,
            rows,
        }
    }

    /// The patterns labelling the columns.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Number of rows (sequences).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (patterns).
    pub fn num_columns(&self) -> usize {
        self.patterns.len()
    }

    /// The feature vector of sequence `row`.
    pub fn row(&self, row: usize) -> &[f64] {
        let cols = self.num_columns();
        &self.values[row * cols..(row + 1) * cols]
    }

    /// Iterates over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(move |r| self.row(r))
    }

    /// The value at `(row, column)`.
    pub fn value(&self, row: usize, column: usize) -> f64 {
        self.values[row * self.num_columns() + column]
    }

    /// The column of values for pattern index `column`.
    pub fn column(&self, column: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.value(r, column)).collect()
    }

    /// Restricts the matrix to the given column indices (in that order).
    pub fn select_columns(&self, columns: &[usize]) -> FeatureMatrix {
        let patterns: Vec<Pattern> = columns.iter().map(|&c| self.patterns[c].clone()).collect();
        let mut values = Vec::with_capacity(self.rows * columns.len());
        for r in 0..self.rows {
            for &c in columns {
                values.push(self.value(r, c));
            }
        }
        FeatureMatrix::from_parts(patterns, values, self.rows)
    }

    /// Restricts the matrix to the given row indices (in that order), e.g.
    /// to carve train/test subsets out of a matrix computed on the full
    /// database.
    pub fn select_rows(&self, rows: &[usize]) -> FeatureMatrix {
        let mut values = Vec::with_capacity(rows.len() * self.num_columns());
        for &r in rows {
            values.extend_from_slice(self.row(r));
        }
        FeatureMatrix::from_parts(self.patterns.clone(), values, rows.len())
    }

    /// The mean of each column.
    pub fn column_means(&self) -> Vec<f64> {
        let cols = self.num_columns();
        let mut means = vec![0.0; cols];
        if self.rows == 0 {
            return means;
        }
        for row in self.rows() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }

    /// Binarizes the matrix: every value `> threshold` becomes `1.0`, the
    /// rest `0.0` (presence features).
    pub fn binarized(&self, threshold: f64) -> FeatureMatrix {
        FeatureMatrix {
            patterns: self.patterns.clone(),
            values: self
                .values
                .iter()
                .map(|&v| if v > threshold { 1.0 } else { 0.0 })
                .collect(),
            rows: self.rows,
        }
    }
}

/// Computes the feature matrix of `patterns` over `db`: entry `(i, j)` is
/// the per-sequence repetitive support of pattern `j` in sequence `i`.
/// Prepares a snapshot of `db` for the call; [`extract_features_with`]
/// reuses one.
pub fn extract_features(db: &SequenceDatabase, patterns: &[Pattern]) -> FeatureMatrix {
    extract_features_with(&PreparedDb::new(db), patterns)
}

/// [`extract_features`] over a prepared snapshot (no index is built, so
/// extracting several pattern sets from one database prepares it once).
pub fn extract_features_with(prepared: &PreparedDb, patterns: &[Pattern]) -> FeatureMatrix {
    let sc = prepared.support_computer();
    let rows = prepared.database().num_sequences();
    let cols = patterns.len();
    let mut values = vec![0.0f64; rows * cols];
    for (j, pattern) in patterns.iter().enumerate() {
        let support_set = sc.support_set(pattern);
        for (seq, instances) in support_set.per_sequence() {
            values[seq * cols + j] = instances.len() as f64;
        }
    }
    FeatureMatrix::from_parts(patterns.to_vec(), values, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["AABCDABB", "ABCD", "ABABAB"])
    }

    fn patterns(db: &SequenceDatabase, strs: &[&str]) -> Vec<Pattern> {
        strs.iter()
            .map(|s| Pattern::new(db.pattern_from_str(s).unwrap()))
            .collect()
    }

    #[test]
    fn per_sequence_supports_match_example_1_1() {
        // In Example 1.1, AB has 3 non-overlapping instances in S1 and 1 in
        // S2; CD has 1 in each.
        let db = db();
        let pats = patterns(&db, &["AB", "CD"]);
        let matrix = extract_features(&db, &pats);
        assert_eq!(matrix.num_rows(), 3);
        assert_eq!(matrix.num_columns(), 2);
        assert_eq!(matrix.row(0), &[3.0, 1.0]);
        assert_eq!(matrix.row(1), &[1.0, 1.0]);
        assert_eq!(matrix.row(2), &[3.0, 0.0]);
    }

    #[test]
    fn per_sequence_values_sum_to_the_global_support() {
        let db = db();
        let pats = patterns(&db, &["AB", "CD", "A", "ABB"]);
        let prepared = PreparedDb::new(&db);
        let sc = prepared.support_computer();
        let matrix = extract_features(&db, &pats);
        for (j, p) in pats.iter().enumerate() {
            let total: f64 = matrix.column(j).iter().sum();
            assert_eq!(total, sc.support(p) as f64, "pattern {p:?}");
        }
    }

    #[test]
    fn select_columns_and_rows_reorder_and_subset() {
        let db = db();
        let pats = patterns(&db, &["AB", "CD", "A"]);
        let matrix = extract_features(&db, &pats);
        let cols = matrix.select_columns(&[2, 0]);
        assert_eq!(cols.num_columns(), 2);
        assert_eq!(cols.patterns()[0], pats[2]);
        assert_eq!(cols.row(0), &[3.0, 3.0]); // A appears 3 times in S1
        let rows = matrix.select_rows(&[2, 1]);
        assert_eq!(rows.num_rows(), 2);
        assert_eq!(rows.row(0), matrix.row(2));
        assert_eq!(rows.row(1), matrix.row(1));
    }

    #[test]
    fn column_means_and_binarization() {
        let db = db();
        let pats = patterns(&db, &["AB"]);
        let matrix = extract_features(&db, &pats);
        let means = matrix.column_means();
        assert!((means[0] - (3.0 + 1.0 + 3.0) / 3.0).abs() < 1e-12);
        let bin = matrix.binarized(1.0);
        assert_eq!(bin.column(0), vec![1.0, 0.0, 1.0]);
        let presence = matrix.binarized(0.0);
        assert_eq!(presence.column(0), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn empty_pattern_list_yields_zero_width_matrix() {
        let db = db();
        let matrix = extract_features(&db, &[]);
        assert_eq!(matrix.num_rows(), 3);
        assert_eq!(matrix.num_columns(), 0);
        assert_eq!(matrix.row(1), &[] as &[f64]);
        assert!(matrix.column_means().is_empty());
    }

    #[test]
    #[should_panic(expected = "rows x columns")]
    fn from_parts_validates_the_buffer_size() {
        FeatureMatrix::from_parts(vec![Pattern::empty()], vec![1.0, 2.0, 3.0], 2);
    }
}
