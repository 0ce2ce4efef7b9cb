//! The sequence database `SeqDB = {S1, ..., SN}` together with its event
//! catalog, plus an incremental [`DatabaseBuilder`].
//!
//! Since the columnar-storage refactor the database is a thin facade over a
//! flat [`SeqStore`]: one contiguous event arena plus a CSR offsets table.
//! Sequences are read through borrowed [`SeqView`] slices; the owned
//! [`Sequence`] type is only a construction unit that builders flatten into
//! the store.

use crate::catalog::{EventCatalog, EventId};
use crate::index::InvertedIndex;
use crate::sequence::Sequence;
use crate::stats::DatabaseStats;
use crate::store::{SeqIter, SeqStore, SeqView};

/// A database of sequences over a shared event alphabet.
///
/// Sequences are identified by their 0-based index (`seq` in instance
/// triples); positions inside a sequence are 1-based, matching the paper.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SequenceDatabase {
    catalog: EventCatalog,
    store: SeqStore,
}

impl SequenceDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a database from a catalog and owned sequences, flattening the
    /// rows into the columnar store.
    pub fn from_parts(catalog: EventCatalog, sequences: Vec<Sequence>) -> Self {
        Self {
            catalog,
            store: sequences.into_iter().collect(),
        }
    }

    /// Creates a database directly from a catalog and a pre-built store.
    pub fn from_store(catalog: EventCatalog, store: SeqStore) -> Self {
        Self { catalog, store }
    }

    /// Builds a database where each row is a string and each **character**
    /// is an event, e.g. `"ABCABCA"`. This is the notation used by all the
    /// worked examples in the paper and is heavily used in tests.
    pub fn from_str_rows(rows: &[&str]) -> Self {
        let mut builder = DatabaseBuilder::new();
        for row in rows {
            let tokens: Vec<String> = row.chars().map(|c| c.to_string()).collect();
            builder.push_tokens(tokens.iter().map(String::as_str));
        }
        builder.finish()
    }

    /// Builds a database where each row is a slice of whitespace-free string
    /// tokens (one token per event).
    pub fn from_token_rows<S: AsRef<str>>(rows: &[Vec<S>]) -> Self {
        let mut builder = DatabaseBuilder::new();
        for row in rows {
            builder.push_tokens(row.iter().map(AsRef::as_ref));
        }
        builder.finish()
    }

    /// The event catalog of this database.
    pub fn catalog(&self) -> &EventCatalog {
        &self.catalog
    }

    /// The columnar event store backing this database.
    pub fn store(&self) -> &SeqStore {
        &self.store
    }

    /// Iterates over the sequences of this database as [`SeqView`] slices
    /// into the flat store.
    pub fn sequences(&self) -> SeqIter<'_> {
        self.store.iter()
    }

    /// The sequence with 0-based index `idx`, as a slice view.
    pub fn sequence(&self, idx: usize) -> Option<SeqView<'_>> {
        self.store.view(idx)
    }

    /// Number of sequences `N = |SeqDB|`.
    pub fn num_sequences(&self) -> usize {
        self.store.num_sequences()
    }

    /// Number of distinct events `E = |𝓔|` actually interned.
    pub fn num_events(&self) -> usize {
        self.catalog.len()
    }

    /// Total number of events over all sequences.
    pub fn total_length(&self) -> usize {
        self.store.total_length()
    }

    /// Length of the longest sequence (`L` in the complexity analysis).
    pub fn max_sequence_length(&self) -> usize {
        self.store.max_sequence_length()
    }

    /// Returns `true` when the database holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Builds the inverted event index of §III-D for this database.
    pub fn inverted_index(&self) -> InvertedIndex {
        InvertedIndex::build(self)
    }

    /// Computes summary statistics (used by the experiment harness).
    pub fn stats(&self) -> DatabaseStats {
        DatabaseStats::compute(self)
    }

    /// Total number of occurrences of `event` across all sequences.
    ///
    /// For a single-event pattern this equals its repetitive support.
    pub fn event_occurrences(&self, event: EventId) -> usize {
        self.store.event_column().count(event)
    }

    /// Converts the store's event arena to wide (`u32`) storage in place.
    /// Tests and benches use this to pin that mining output and bench
    /// numbers are width-independent; normal callers never need it.
    pub fn widen_store(&mut self) {
        self.store.widen();
    }

    /// Number of sequences that contain `event` at least once.
    ///
    /// This is the classical *sequence support* of a single event.
    pub fn event_sequence_support(&self, event: EventId) -> usize {
        self.sequences()
            .filter(|s| s.count_event(event) > 0)
            .count()
    }

    /// Renders a pattern of event ids using this database's catalog.
    pub fn render_pattern(&self, pattern: &[EventId]) -> String {
        self.catalog.render(pattern, "")
    }

    /// Interns a pattern given as labels, returning `None` if any label is
    /// unknown to the catalog.
    pub fn pattern_from_labels(&self, labels: &[&str]) -> Option<Vec<EventId>> {
        labels.iter().map(|l| self.catalog.id(l)).collect()
    }

    /// Interns a pattern given as a string of single-character event labels
    /// (the paper's notation, e.g. `"ACB"`).
    pub fn pattern_from_str(&self, pattern: &str) -> Option<Vec<EventId>> {
        pattern
            .chars()
            .map(|c| self.catalog.id(&c.to_string()))
            .collect()
    }
}

/// Incremental builder for a [`SequenceDatabase`].
///
/// The builder interns labels as they are pushed and appends events straight
/// into the flat [`SeqStore`] arena, so sequences from heterogeneous sources
/// can be combined as long as their labels agree, and `finish()` is a move —
/// no per-sequence allocation ever happens.
#[derive(Debug, Clone, Default)]
pub struct DatabaseBuilder {
    catalog: EventCatalog,
    store: SeqStore,
}

impl DatabaseBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder seeded with an existing catalog (useful when event
    /// ids must be stable across several databases, e.g. train/test splits).
    pub fn with_catalog(catalog: EventCatalog) -> Self {
        Self {
            catalog,
            store: SeqStore::new(),
        }
    }

    /// Access to the catalog built so far.
    pub fn catalog(&self) -> &EventCatalog {
        &self.catalog
    }

    /// Interns a label without adding a sequence.
    pub fn intern(&mut self, label: &str) -> EventId {
        self.catalog.intern(label)
    }

    /// Adds a sequence given as string tokens, interning each token.
    pub fn push_tokens<'a, I>(&mut self, tokens: I) -> usize
    where
        I: IntoIterator<Item = &'a str>,
    {
        let catalog = &mut self.catalog;
        self.store
            .push_events(tokens.into_iter().map(|t| catalog.intern(t)))
    }

    /// Adds an already-interned sequence, flattening it into the store. The
    /// caller is responsible for the ids being valid for this builder's
    /// catalog.
    pub fn push_sequence(&mut self, sequence: &Sequence) -> usize {
        self.store.push_events(sequence.events().iter().copied())
    }

    /// Number of sequences added so far.
    pub fn len(&self) -> usize {
        self.store.num_sequences()
    }

    /// Returns `true` if no sequence has been added.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Finalizes the builder into a [`SequenceDatabase`] (a move of the
    /// catalog and the flat store; nothing is copied).
    pub fn finish(self) -> SequenceDatabase {
        SequenceDatabase {
            catalog: self.catalog,
            store: self.store,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_str_rows_builds_table_ii_database() {
        // Table II: S1 = ABCABCA, S2 = AABBCCC
        let db = SequenceDatabase::from_str_rows(&["ABCABCA", "AABBCCC"]);
        assert_eq!(db.num_sequences(), 2);
        assert_eq!(db.num_events(), 3);
        assert_eq!(db.total_length(), 14);
        assert_eq!(db.max_sequence_length(), 7);
        let a = db.catalog().id("A").unwrap();
        assert_eq!(db.sequence(0).unwrap().at(1), Some(a));
        assert_eq!(db.sequence(1).unwrap().at(2), Some(a));
    }

    #[test]
    fn event_occurrences_and_sequence_support_differ() {
        let db = SequenceDatabase::from_str_rows(&["AABCDABB", "ABCD"]);
        let b = db.catalog().id("B").unwrap();
        // B occurs 3 times in S1 and once in S2
        assert_eq!(db.event_occurrences(b), 4);
        assert_eq!(db.event_sequence_support(b), 2);
    }

    #[test]
    fn pattern_from_str_and_render_round_trip() {
        let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        let p = db.pattern_from_str("ACB").unwrap();
        assert_eq!(db.render_pattern(&p), "ACB");
        assert_eq!(db.pattern_from_str("AXB"), None);
    }

    #[test]
    fn builder_with_catalog_keeps_ids_stable() {
        let catalog = EventCatalog::from_labels(["A", "B", "C"]);
        let mut builder = DatabaseBuilder::with_catalog(catalog);
        builder.push_tokens(["C", "A"]);
        let db = builder.finish();
        assert_eq!(db.catalog().id("C"), Some(EventId(2)));
        assert_eq!(db.sequence(0).unwrap().at(1), Some(EventId(2)));
    }

    #[test]
    fn token_rows_support_multi_character_labels() {
        let rows = vec![
            vec!["TxManager.begin", "TransImpl.lock", "TransImpl.unlock"],
            vec!["TransImpl.lock", "TransImpl.unlock"],
        ];
        let db = SequenceDatabase::from_token_rows(&rows);
        assert_eq!(db.num_events(), 3);
        assert_eq!(db.num_sequences(), 2);
        let lock = db.catalog().id("TransImpl.lock").unwrap();
        assert_eq!(db.event_sequence_support(lock), 2);
    }

    #[test]
    fn empty_database_reports_zeroes() {
        let db = SequenceDatabase::new();
        assert!(db.is_empty());
        assert_eq!(db.total_length(), 0);
        assert_eq!(db.max_sequence_length(), 0);
    }

    #[test]
    fn from_parts_flattens_rows_into_one_store() {
        let catalog = EventCatalog::from_labels(["A", "B"]);
        let db = SequenceDatabase::from_parts(
            catalog,
            vec![
                Sequence::from_events(vec![EventId(0), EventId(1)]),
                Sequence::from_events(vec![EventId(1)]),
            ],
        );
        assert_eq!(db.store().offsets(), &[0, 2, 3]);
        assert_eq!(
            db.store().event_column().to_wide_vec(),
            vec![EventId(0), EventId(1), EventId(1)]
        );
        assert_eq!(db.sequence(1).unwrap().to_vec(), vec![EventId(1)]);
    }

    #[test]
    fn builder_appends_straight_into_the_flat_store() {
        let mut builder = DatabaseBuilder::new();
        builder.push_tokens(["x", "y"]);
        builder.push_sequence(&Sequence::from_events(vec![EventId(0)]));
        assert_eq!(builder.len(), 2);
        let db = builder.finish();
        assert_eq!(db.store().offsets(), &[0, 2, 3]);
        assert_eq!(db.total_length(), 3);
    }
}
