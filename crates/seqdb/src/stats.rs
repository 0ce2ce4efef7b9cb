//! Summary statistics for sequence databases.
//!
//! The experiment harness reports these statistics alongside every dataset
//! so that a run can be compared against the figures quoted in the paper
//! (e.g. "the Gazelle dataset contains 29369 sequences and 1423 distinct
//! events, average sequence length 3, maximum length 651").

use std::collections::HashMap;

use crate::catalog::EventId;
use crate::database::SequenceDatabase;

/// Summary statistics of a [`SequenceDatabase`].
#[derive(Debug, Clone, PartialEq)]
pub struct DatabaseStats {
    /// Number of sequences `N`.
    pub num_sequences: usize,
    /// Number of distinct events `|E|`.
    pub num_events: usize,
    /// Total number of events across all sequences.
    pub total_length: usize,
    /// Minimum sequence length (0 for an empty database).
    pub min_length: usize,
    /// Maximum sequence length.
    pub max_length: usize,
    /// Mean sequence length.
    pub avg_length: f64,
    /// Median sequence length.
    pub median_length: f64,
    /// Maximum number of occurrences of any single event (the paper's
    /// `sup_max` for size-1 patterns, used in the space bound of Theorem 7).
    pub max_event_occurrences: usize,
    /// Mean number of occurrences per distinct event.
    pub avg_event_occurrences: f64,
    /// Heap bytes held by the columnar event store (arena + CSR offsets) —
    /// makes store-size regressions visible without a profiler. A narrow
    /// (`u16`) arena counts 2 bytes per event.
    pub store_bytes: usize,
    /// Physical size of one event-arena element in bytes: 2 when the
    /// alphabet fits a narrow (`u16`) column, 4 otherwise.
    pub event_elem_bytes: usize,
    /// What `store_bytes` would be at the legacy wide (`u32`) width —
    /// `store_bytes_wide - store_bytes` is the narrow-column saving the
    /// stats CLI prints.
    pub store_bytes_wide: usize,
}

impl DatabaseStats {
    /// Computes the statistics for `db`.
    pub fn compute(db: &SequenceDatabase) -> Self {
        let mut lengths: Vec<usize> = db.sequences().map(super::store::SeqView::len).collect();
        lengths.sort_unstable();
        let num_sequences = lengths.len();
        let total_length: usize = lengths.iter().sum();
        let mut event_counts: HashMap<EventId, usize> = HashMap::new();
        for sequence in db.sequences() {
            for event in sequence.iter_events() {
                *event_counts.entry(event).or_insert(0) += 1;
            }
        }
        let max_event_occurrences = event_counts.values().copied().max().unwrap_or(0);
        let avg_event_occurrences = if event_counts.is_empty() {
            0.0
        } else {
            total_length as f64 / event_counts.len() as f64
        };
        let median_length = if num_sequences == 0 {
            0.0
        } else if num_sequences % 2 == 1 {
            lengths[num_sequences / 2] as f64
        } else {
            (lengths[num_sequences / 2 - 1] + lengths[num_sequences / 2]) as f64 / 2.0
        };
        Self {
            num_sequences,
            num_events: db.num_events(),
            total_length,
            min_length: lengths.first().copied().unwrap_or(0),
            max_length: lengths.last().copied().unwrap_or(0),
            avg_length: if num_sequences == 0 {
                0.0
            } else {
                total_length as f64 / num_sequences as f64
            },
            median_length,
            max_event_occurrences,
            avg_event_occurrences,
            store_bytes: db.store().heap_bytes(),
            event_elem_bytes: db.store().element_bytes(),
            store_bytes_wide: total_length * 4 + (num_sequences + 1) * 4,
        }
    }

    /// Renders the statistics as a short single-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} sequences, {} events, total length {}, avg length {:.2}, max length {}",
            self.num_sequences,
            self.num_events,
            self.total_length,
            self.avg_length,
            self.max_length
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_running_example() {
        let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        let stats = db.stats();
        assert_eq!(stats.num_sequences, 2);
        assert_eq!(stats.num_events, 4);
        assert_eq!(stats.total_length, 18);
        assert_eq!(stats.min_length, 9);
        assert_eq!(stats.max_length, 9);
        assert!((stats.avg_length - 9.0).abs() < 1e-9);
        assert!((stats.median_length - 9.0).abs() < 1e-9);
        // A and D both occur 5 times.
        assert_eq!(stats.max_event_occurrences, 5);
    }

    #[test]
    fn stats_of_empty_database() {
        let db = SequenceDatabase::new();
        let stats = db.stats();
        assert_eq!(stats.num_sequences, 0);
        assert_eq!(stats.total_length, 0);
        assert_eq!(stats.avg_length, 0.0);
        assert_eq!(stats.max_event_occurrences, 0);
    }

    #[test]
    fn median_with_even_number_of_sequences() {
        let db = SequenceDatabase::from_str_rows(&["A", "AB", "ABC", "ABCD"]);
        let stats = db.stats();
        assert!((stats.median_length - 2.5).abs() < 1e-9);
        assert_eq!(stats.min_length, 1);
        assert_eq!(stats.max_length, 4);
    }

    #[test]
    fn narrow_store_halves_arena_bytes() {
        let mut db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        let stats = db.stats();
        assert_eq!(stats.event_elem_bytes, 2);
        assert_eq!(stats.store_bytes, 18 * 2 + 3 * 4);
        assert_eq!(stats.store_bytes_wide, 18 * 4 + 3 * 4);
        db.widen_store();
        let wide = db.stats();
        assert_eq!(wide.event_elem_bytes, 4);
        assert_eq!(wide.store_bytes, wide.store_bytes_wide);
    }

    #[test]
    fn summary_is_human_readable() {
        let db = SequenceDatabase::from_str_rows(&["AB", "BA"]);
        let summary = db.stats().summary();
        assert!(summary.contains("2 sequences"));
        assert!(summary.contains("2 events"));
    }
}
