//! Event interning: mapping between human-readable event labels and dense
//! integer identifiers.
//!
//! The mining algorithms never look at event labels; they operate on
//! [`EventId`]s (dense `u32`s). The [`EventCatalog`] owns the bidirectional
//! mapping and is stored alongside the sequences inside a
//! [`SequenceDatabase`](crate::SequenceDatabase).

use std::collections::HashMap;
use std::fmt;

/// A dense identifier for an event (an element of the alphabet `E`).
///
/// Identifiers are assigned in first-seen order starting from `0`, so a
/// catalog with `n` distinct events uses exactly the ids `0..n`. This makes
/// it possible to use plain vectors indexed by event id in hot paths.
///
/// The type is `repr(transparent)` over `u32`: an `&[EventId]` has the
/// exact layout of an `&[u32]`, which is what lets the
/// [`snapshot`](crate::snapshot) layer serialize event arenas as plain
/// `u32` sections and map them back without copying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct EventId(pub u32);

impl EventId {
    /// Returns the id as a `usize`, convenient for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u32> for EventId {
    fn from(value: u32) -> Self {
        EventId(value)
    }
}

/// Bidirectional mapping between event labels and [`EventId`]s.
///
/// Interning is append-only: once a label has been assigned an id, the id
/// never changes. Lookup by label is `O(1)` (hash map); lookup by id is
/// `O(1)` (vector index).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventCatalog {
    labels: Vec<String>,
    by_label: HashMap<String, EventId>,
}

impl EventCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a catalog pre-populated with `labels`, in order.
    ///
    /// Duplicate labels are interned once; the returned catalog therefore may
    /// contain fewer entries than `labels.len()`.
    pub fn from_labels<I, S>(labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut catalog = Self::new();
        for label in labels {
            catalog.intern(label.as_ref());
        }
        catalog
    }

    /// Interns `label`, returning its id. Returns the existing id if the
    /// label was interned before.
    pub fn intern(&mut self, label: &str) -> EventId {
        if let Some(&id) = self.by_label.get(label) {
            return id;
        }
        let id = EventId(
            crate::cast::usize_to_u32(self.labels.len()).expect("more than u32::MAX event labels"),
        );
        self.labels.push(label.to_owned());
        self.by_label.insert(label.to_owned(), id);
        id
    }

    /// Returns the id of `label` if it has been interned.
    pub fn id(&self, label: &str) -> Option<EventId> {
        self.by_label.get(label).copied()
    }

    /// Returns the label of `id`, or `None` if the id is out of range.
    pub fn label(&self, id: EventId) -> Option<&str> {
        self.labels.get(id.index()).map(String::as_str)
    }

    /// Returns the label of `id`, falling back to the `e<id>` notation when
    /// the id is unknown (useful for display of synthetic ids).
    pub fn label_or_default(&self, id: EventId) -> String {
        self.label(id)
            .map(str::to_owned)
            .unwrap_or_else(|| id.to_string())
    }

    /// Number of distinct events interned so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when no event has been interned.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over `(id, label)` pairs in id order.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "`intern` bounds the catalog to u32::MAX labels, so `i` always fits"
    )]
    pub fn iter(&self) -> impl Iterator<Item = (EventId, &str)> {
        self.labels
            .iter()
            .enumerate()
            .map(|(i, l)| (EventId(i as u32), l.as_str()))
    }

    /// All ids currently in the catalog, in ascending order.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "`intern` bounds the catalog to u32::MAX labels, so `len` always fits"
    )]
    pub fn ids(&self) -> impl Iterator<Item = EventId> + '_ {
        (0..self.labels.len() as u32).map(EventId)
    }

    /// Renders a pattern (a slice of event ids) with this catalog's labels,
    /// joined by `sep`.
    pub fn render(&self, pattern: &[EventId], sep: &str) -> String {
        pattern
            .iter()
            .map(|&e| self.label_or_default(e))
            .collect::<Vec<_>>()
            .join(sep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_ids_in_first_seen_order() {
        let mut catalog = EventCatalog::new();
        assert_eq!(catalog.intern("A"), EventId(0));
        assert_eq!(catalog.intern("B"), EventId(1));
        assert_eq!(catalog.intern("A"), EventId(0));
        assert_eq!(catalog.intern("C"), EventId(2));
        assert_eq!(catalog.len(), 3);
    }

    #[test]
    fn lookup_by_label_and_id_are_inverse() {
        let catalog = EventCatalog::from_labels(["lock", "unlock", "commit"]);
        for (id, label) in catalog.iter() {
            assert_eq!(catalog.id(label), Some(id));
            assert_eq!(catalog.label(id), Some(label));
        }
    }

    #[test]
    fn from_labels_deduplicates() {
        let catalog = EventCatalog::from_labels(["A", "B", "A", "B", "C"]);
        assert_eq!(catalog.len(), 3);
        assert_eq!(catalog.id("C"), Some(EventId(2)));
    }

    #[test]
    fn unknown_lookups_return_none() {
        let catalog = EventCatalog::from_labels(["A"]);
        assert_eq!(catalog.id("Z"), None);
        assert_eq!(catalog.label(EventId(7)), None);
        assert_eq!(catalog.label_or_default(EventId(7)), "e7");
    }

    #[test]
    fn render_joins_labels() {
        let catalog = EventCatalog::from_labels(["A", "B", "C"]);
        let pattern = vec![EventId(0), EventId(2), EventId(1)];
        assert_eq!(catalog.render(&pattern, ""), "ACB");
        assert_eq!(catalog.render(&pattern, " -> "), "A -> C -> B");
    }

    #[test]
    fn display_of_event_id_uses_e_prefix() {
        assert_eq!(EventId(42).to_string(), "e42");
    }

    #[test]
    fn empty_catalog_reports_empty() {
        let catalog = EventCatalog::new();
        assert!(catalog.is_empty());
        assert_eq!(catalog.ids().count(), 0);
    }
}
