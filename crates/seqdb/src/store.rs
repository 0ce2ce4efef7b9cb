//! Columnar event storage: the flat CSR [`SeqStore`], its width-tagged
//! [`EventColumn`] arena, and the borrowed per-sequence [`SeqView`].
//!
//! All events of all sequences live in **one** contiguous arena; a CSR
//! (compressed sparse row) offsets table marks where each sequence begins
//! and ends. A sequence is therefore just a slice into the arena — no
//! per-sequence heap allocation, no pointer chasing, and the whole store is
//! trivially mmap-able.
//!
//! The arena itself is an [`EventColumn`]: physically `u16` elements when
//! the alphabet fits (the paper's workloads all do — Gazelle ~1.4k items,
//! TCAS ~80 events), `u32` otherwise. Narrow columns halve `store_bytes`
//! and double the events per cache line; the *logical* content is
//! width-independent, and equality compares logically. Builders start
//! narrow and widen **once** (an `O(n)` copy) if an id above
//! [`NARROW_MAX_EVENT`] is ever pushed.
//!
//! [`SequenceDatabase`](crate::SequenceDatabase) is a thin facade over a
//! `SeqStore` plus an [`EventCatalog`](crate::catalog::EventCatalog); the
//! owned [`Sequence`] type remains as the *construction* unit (builders
//! flatten it into the store), while all *access* goes through [`SeqView`]
//! slices.
//!
//! Both columns are [`SharedSlice`]s: built in memory they are plain
//! `Vec`s, reconstructed from a [`snapshot`](crate::snapshot) they are
//! zero-copy windows into the mapped image — the read path is identical
//! either way.

use crate::cast::{u32_to_usize, usize_to_u32};
use crate::catalog::EventId;
use crate::sequence::Sequence;
use crate::shared::SharedSlice;
use crate::width::{EventWidth, NARROW_MAX_EVENT};

/// The flat event arena of a [`SeqStore`]: one contiguous column of events
/// at the narrowest physical width that fits the alphabet.
///
/// Logically this is always a sequence of [`EventId`]s; the enum only
/// records how the bits are stored. Equality is **width-insensitive**: a
/// narrow column equals a wide one holding the same ids, so stores
/// round-tripped through different snapshot widths compare equal.
#[derive(Debug, Clone)]
pub enum EventColumn {
    /// `u16` elements — alphabets of up to 65 536 distinct events.
    Narrow(SharedSlice<u16>),
    /// `u32` elements (the transparent [`EventId`] newtype) — the full id
    /// range, and the only width snapshot formats v1/v2 knew about.
    Wide(SharedSlice<EventId>),
}

impl Default for EventColumn {
    /// Columns start narrow; [`EventColumn::push`] widens on demand.
    fn default() -> Self {
        Self::Narrow(SharedSlice::default())
    }
}

impl EventColumn {
    /// An empty narrow column with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::Narrow(Vec::with_capacity(capacity).into())
    }

    /// Number of events in the column.
    pub fn len(&self) -> usize {
        match self {
            Self::Narrow(v) => v.len(),
            Self::Wide(v) => v.len(),
        }
    }

    /// Returns `true` when the column holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` when elements are stored as `u16`.
    pub fn is_narrow(&self) -> bool {
        matches!(self, Self::Narrow(_))
    }

    /// Size of one element in bytes: 2 (narrow) or 4 (wide).
    pub fn element_bytes(&self) -> usize {
        match self {
            Self::Narrow(_) => <u16 as EventWidth>::BYTES,
            Self::Wide(_) => <EventId as EventWidth>::BYTES,
        }
    }

    /// Human-readable element width ("u16" / "u32").
    pub fn width_name(&self) -> &'static str {
        match self {
            Self::Narrow(_) => <u16 as EventWidth>::NAME,
            Self::Wide(_) => <EventId as EventWidth>::NAME,
        }
    }

    /// Bytes of live data in the column (`len * element_bytes`).
    pub fn byte_len(&self) -> usize {
        self.len() * self.element_bytes()
    }

    /// The event at index `i` (0-based), widened to [`EventId`].
    #[inline]
    pub fn get(&self, i: usize) -> Option<EventId> {
        match self {
            Self::Narrow(v) => v.get(i).map(|&e| e.to_event()),
            Self::Wide(v) => v.get(i).copied(),
        }
    }

    /// Iterates over all events, widened to [`EventId`].
    pub fn iter(&self) -> EventsIter<'_> {
        match self {
            Self::Narrow(v) => EventsIter::Narrow(v.as_slice().iter()),
            Self::Wide(v) => EventsIter::Wide(v.as_slice().iter()),
        }
    }

    /// A borrowed sub-range of the column, or `None` when out of bounds.
    #[inline]
    pub(crate) fn range(&self, range: std::ops::Range<usize>) -> Option<ColSlice<'_>> {
        match self {
            Self::Narrow(v) => v.get(range).map(ColSlice::Narrow),
            Self::Wide(v) => v.get(range).map(ColSlice::Wide),
        }
    }

    /// Appends one event, widening the whole column first if the id does
    /// not fit `u16` (one `O(n)` copy over the column's lifetime).
    pub fn push(&mut self, event: EventId) {
        match self {
            Self::Narrow(v) => match u16::from_event(event) {
                Some(narrow) => v.to_mut().push(narrow),
                None => {
                    self.widen();
                    self.push(event);
                }
            },
            Self::Wide(v) => v.to_mut().push(event),
        }
    }

    /// Appends every event of `iter` (widening at most once).
    pub fn extend<I: IntoIterator<Item = EventId>>(&mut self, iter: I) {
        for event in iter {
            self.push(event);
        }
    }

    /// Converts a narrow column to wide storage in place (`O(n)` copy).
    /// No-op on an already-wide column.
    pub fn widen(&mut self) {
        if let Self::Narrow(v) = self {
            let wide: Vec<EventId> = v.iter().map(|&e| e.to_event()).collect();
            *self = Self::Wide(wide.into());
        }
    }

    /// Converts a wide column whose ids all fit `u16` to narrow storage
    /// (`O(n)` copy). Returns `true` when the column is narrow afterwards.
    pub fn narrow(&mut self) -> bool {
        match self {
            Self::Narrow(_) => true,
            Self::Wide(v) => {
                let Some(narrow) = v
                    .iter()
                    .map(|&e| u16::from_event(e))
                    .collect::<Option<Vec<u16>>>()
                else {
                    return false;
                };
                *self = Self::Narrow(narrow.into());
                true
            }
        }
    }

    /// Returns `true` when every id in the column fits a narrow column
    /// (trivially true for one that already is narrow).
    pub fn fits_narrow(&self) -> bool {
        match self {
            Self::Narrow(_) => true,
            Self::Wide(v) => v.iter().all(|e| e.0 <= NARROW_MAX_EVENT),
        }
    }

    /// The raw `u16` elements, when narrow. Used by the snapshot writer
    /// (serialize at the physical width) and by zero-copy aliasing tests.
    pub fn narrow_slice(&self) -> Option<&[u16]> {
        match self {
            Self::Narrow(v) => Some(v),
            Self::Wide(_) => None,
        }
    }

    /// The raw [`EventId`] elements, when wide.
    pub fn wide_slice(&self) -> Option<&[EventId]> {
        match self {
            Self::Narrow(_) => None,
            Self::Wide(v) => Some(v),
        }
    }

    /// Copies the column into an owned wide `Vec<EventId>` (test and
    /// compatibility helper — the hot paths never materialize this).
    pub fn to_wide_vec(&self) -> Vec<EventId> {
        self.iter().collect()
    }

    /// Counts occurrences of `event` across the whole column, comparing at
    /// the native width.
    pub fn count(&self, event: EventId) -> usize {
        match self {
            Self::Narrow(v) => match u16::from_event(event) {
                Some(e) => v.iter().filter(|&&x| x == e).count(),
                None => 0,
            },
            Self::Wide(v) => v.iter().filter(|&&x| x == event).count(),
        }
    }
}

impl PartialEq for EventColumn {
    /// Width-insensitive logical equality: compares the widened event
    /// sequences. Same-width columns compare as raw slices (memcmp-able).
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Self::Narrow(a), Self::Narrow(b)) => a == b,
            (Self::Wide(a), Self::Wide(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for EventColumn {}

impl FromIterator<EventId> for EventColumn {
    fn from_iter<I: IntoIterator<Item = EventId>>(iter: I) -> Self {
        let mut column = Self::default();
        column.extend(iter);
        column
    }
}

/// Iterator over an [`EventColumn`] (or a [`SeqView`]), widening each
/// element to [`EventId`].
#[derive(Debug, Clone)]
pub enum EventsIter<'a> {
    /// Iterating a narrow (`u16`) column.
    Narrow(std::slice::Iter<'a, u16>),
    /// Iterating a wide (`u32`) column.
    Wide(std::slice::Iter<'a, EventId>),
}

impl Iterator for EventsIter<'_> {
    type Item = EventId;

    #[inline]
    fn next(&mut self) -> Option<EventId> {
        match self {
            Self::Narrow(it) => it.next().map(|&e| e.to_event()),
            Self::Wide(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Self::Narrow(it) => it.size_hint(),
            Self::Wide(it) => it.size_hint(),
        }
    }

    fn nth(&mut self, n: usize) -> Option<EventId> {
        match self {
            Self::Narrow(it) => it.nth(n).map(|&e| e.to_event()),
            Self::Wide(it) => it.nth(n).copied(),
        }
    }
}

impl ExactSizeIterator for EventsIter<'_> {}
impl std::iter::FusedIterator for EventsIter<'_> {}

/// Flat columnar storage for the events of a whole database.
///
/// Layout: `events` holds every event of every sequence back to back (at
/// the narrowest width that fits — see [`EventColumn`]); `offsets` has one
/// entry per sequence plus a trailing sentinel, so sequence `i` occupies
/// `events[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqStore {
    /// All events of all sequences, concatenated, width-tagged.
    events: EventColumn,
    /// CSR offsets: `offsets[i]..offsets[i + 1]` is sequence `i`.
    /// Invariant: `offsets[0] == 0`, monotone non-decreasing, and the last
    /// entry equals `events.len()`.
    offsets: SharedSlice<u32>,
}

impl Default for SeqStore {
    fn default() -> Self {
        Self {
            events: EventColumn::default(),
            offsets: vec![0].into(),
        }
    }
}

impl SeqStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store with room for `sequences` rows of `events`
    /// events in total (one allocation each for the arena and the offsets).
    pub fn with_capacity(sequences: usize, events: usize) -> Self {
        let mut offsets = Vec::with_capacity(sequences + 1);
        offsets.push(0);
        Self {
            events: EventColumn::with_capacity(events),
            offsets: offsets.into(),
        }
    }

    /// Reassembles a store from its two columns, typically zero-copy slices
    /// of a [`snapshot`](crate::snapshot) image (either width). Every CSR
    /// invariant is checked; the error string names the violated one.
    pub fn from_shared_parts(
        events: EventColumn,
        offsets: SharedSlice<u32>,
    ) -> Result<Self, String> {
        let (Some(&first), Some(&sentinel)) = (offsets.first(), offsets.last()) else {
            return Err("store offsets are empty (the sentinel entry is mandatory)".to_owned());
        };
        if first != 0 {
            return Err(format!("store offsets start at {first}, not 0"));
        }
        if let Some((a, b)) = offsets
            .iter()
            .zip(offsets.iter().skip(1))
            .find(|(a, b)| a > b)
        {
            return Err(format!("store offsets are not monotone ({a} > {b})"));
        }
        let last = u32_to_usize(sentinel);
        if last != events.len() {
            return Err(format!(
                "store offsets end at {last} but the event arena holds {} events",
                events.len()
            ));
        }
        Ok(Self { events, offsets })
    }

    /// Reassembles a store from a wide event slice plus offsets — the
    /// pre-width-tagging form of [`SeqStore::from_shared_parts`], kept for
    /// v1/v2 snapshot images (always wide) and tests.
    pub fn from_wide_parts(
        events: SharedSlice<EventId>,
        offsets: SharedSlice<u32>,
    ) -> Result<Self, String> {
        Self::from_shared_parts(EventColumn::Wide(events), offsets)
    }

    /// Appends one sequence given as an iterator of events; returns its
    /// 0-based index. On a snapshot-backed store this first materializes
    /// owned columns (copy-on-write).
    pub fn push_events<I>(&mut self, events: I) -> usize
    where
        I: IntoIterator<Item = EventId>,
    {
        self.events.extend(events);
        // Hard assert (not debug-only): a silently wrapped u32 offset would
        // make every later view slice the wrong events. ~4.29 billion
        // events is the store's documented capacity ceiling.
        let total = usize_to_u32(self.events.len());
        assert!(
            total.is_some(),
            "SeqStore offsets are u32: more than u32::MAX total events"
        );
        let total = total.unwrap_or(u32::MAX); // unreachable fallback: asserted Some above
        let offsets = self.offsets.to_mut();
        offsets.push(total);
        offsets.len() - 2
    }

    /// Number of sequences in the store.
    pub fn num_sequences(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of events over all sequences (the arena length).
    pub fn total_length(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when the store holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.num_sequences() == 0
    }

    /// Length of sequence `seq`, or 0 when out of range.
    pub fn seq_len(&self, seq: usize) -> usize {
        self.view(seq).map_or(0, SeqView::len)
    }

    /// Length of the longest sequence.
    pub fn max_sequence_length(&self) -> usize {
        self.offsets
            .iter()
            .zip(self.offsets.iter().skip(1))
            .map(|(&a, &b)| u32_to_usize(b - a))
            .max()
            .unwrap_or(0)
    }

    /// The events of sequence `seq` as a view into the arena.
    pub fn view(&self, seq: usize) -> Option<SeqView<'_>> {
        let start = u32_to_usize(*self.offsets.get(seq)?);
        let end = u32_to_usize(*self.offsets.get(seq.checked_add(1)?)?);
        Some(SeqView {
            // The CSR invariant (monotone offsets ending at the arena
            // length) makes this range valid; `?` keeps the path panic-free.
            events: self.events.range(start..end)?,
        })
    }

    /// Iterates over all sequences as [`SeqView`]s.
    pub fn iter(&self) -> SeqIter<'_> {
        SeqIter {
            store: self,
            next: 0,
        }
    }

    /// The whole event arena (all sequences concatenated), width-tagged.
    pub fn event_column(&self) -> &EventColumn {
        &self.events
    }

    /// Size of one arena element in bytes: 2 (narrow) or 4 (wide).
    pub fn element_bytes(&self) -> usize {
        self.events.element_bytes()
    }

    /// Returns `true` when the arena is stored at `u16` width.
    pub fn is_narrow(&self) -> bool {
        self.events.is_narrow()
    }

    /// Converts the arena to wide (`u32`) storage in place. Used by tests
    /// and benches to pin that mining output is width-independent.
    pub fn widen(&mut self) {
        self.events.widen();
    }

    /// The CSR offsets table (one entry per sequence plus a sentinel).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Bytes of live data held by the store (arena + offsets table) —
    /// heap-resident when owned, mapped when snapshot-backed; either way
    /// this is the store's contribution to a snapshot image. A narrow arena
    /// counts 2 bytes per event, a wide one 4.
    ///
    /// Counts lengths rather than capacities, so the number is deterministic
    /// for a given database regardless of how it was built.
    pub fn heap_bytes(&self) -> usize {
        self.events.byte_len() + self.offsets.len() * std::mem::size_of::<u32>()
    }
}

impl FromIterator<Sequence> for SeqStore {
    fn from_iter<T: IntoIterator<Item = Sequence>>(iter: T) -> Self {
        let mut store = SeqStore::new();
        for sequence in iter {
            store.push_events(sequence.events().iter().copied());
        }
        store
    }
}

/// A borrowed, width-tagged slice of an [`EventColumn`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum ColSlice<'a> {
    Narrow(&'a [u16]),
    Wide(&'a [EventId]),
}

/// A borrowed view of one sequence: a slice into the [`SeqStore`] arena at
/// whatever width the arena is stored.
///
/// `SeqView` is `Copy` and mirrors the read API of the owned [`Sequence`]
/// type (1-based positions, subsequence scan, landmark search), so call
/// sites work identically on flat storage. Events are always *read* as
/// [`EventId`]s; the width is purely physical. Equality compares the
/// logical event sequence, ignoring width.
#[derive(Debug, Clone, Copy)]
pub struct SeqView<'a> {
    events: ColSlice<'a>,
}

impl<'a> SeqView<'a> {
    /// Wraps a raw wide event slice as a view.
    pub fn from_events(events: &'a [EventId]) -> Self {
        Self {
            events: ColSlice::Wide(events),
        }
    }

    /// Number of events in the sequence (`length` in the paper).
    pub fn len(self) -> usize {
        match self.events {
            ColSlice::Narrow(v) => v.len(),
            ColSlice::Wide(v) => v.len(),
        }
    }

    /// Returns `true` when the sequence contains no events.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The event at **1-based** position `pos` (`S[pos]` in the paper).
    ///
    /// Returns `None` when `pos == 0` or `pos > len`.
    #[inline]
    pub fn at(self, pos: usize) -> Option<EventId> {
        if pos == 0 {
            return None;
        }
        match self.events {
            ColSlice::Narrow(v) => v.get(pos - 1).map(|&e| e.to_event()),
            ColSlice::Wide(v) => v.get(pos - 1).copied(),
        }
    }

    /// Iterates over the events in order, widened to [`EventId`]. The
    /// lifetime is that of the store, not of the view value.
    pub fn iter_events(self) -> EventsIter<'a> {
        match self.events {
            ColSlice::Narrow(v) => EventsIter::Narrow(v.iter()),
            ColSlice::Wide(v) => EventsIter::Wide(v.iter()),
        }
    }

    /// Iterates over the events starting at 0-based offset `from` (an empty
    /// iterator when `from >= len`). This is the projection primitive the
    /// PrefixSpan/BIDE baselines scan suffixes with.
    pub fn iter_events_from(self, from: usize) -> EventsIter<'a> {
        match self.events {
            ColSlice::Narrow(v) => EventsIter::Narrow(v.get(from..).unwrap_or(&[]).iter()),
            ColSlice::Wide(v) => EventsIter::Wide(v.get(from..).unwrap_or(&[]).iter()),
        }
    }

    /// Iterates over `(position, event)` pairs with 1-based positions.
    pub fn iter_positions(self) -> impl Iterator<Item = (usize, EventId)> + 'a {
        self.iter_events().enumerate().map(|(i, e)| (i + 1, e))
    }

    /// Counts occurrences of a single event in the sequence, comparing at
    /// the native width.
    pub fn count_event(self, event: EventId) -> usize {
        match self.events {
            ColSlice::Narrow(v) => match u16::from_event(event) {
                Some(e) => v.iter().filter(|&&x| x == e).count(),
                None => 0,
            },
            ColSlice::Wide(v) => v.iter().filter(|&&x| x == event).count(),
        }
    }

    /// Returns `true` if `pattern` occurs in this sequence as a (gapped)
    /// subsequence (Definition 2.1); greedy left-to-right scan, `O(len)`.
    pub fn contains_subsequence(self, pattern: &[EventId]) -> bool {
        if pattern.is_empty() {
            return true;
        }
        let mut j = 0;
        for e in self.iter_events() {
            if pattern.get(j) == Some(&e) {
                j += 1;
                if j == pattern.len() {
                    return true;
                }
            }
        }
        false
    }

    /// Finds the *leftmost landmark* of `pattern` starting strictly after
    /// position `after` (1-based), if any. Returns 1-based positions.
    pub fn leftmost_landmark_after(self, pattern: &[EventId], after: usize) -> Option<Vec<usize>> {
        if pattern.is_empty() {
            return Some(Vec::new());
        }
        let mut landmark = Vec::with_capacity(pattern.len());
        let mut j = 0;
        for (pos, e) in self.iter_positions() {
            if pos <= after {
                continue;
            }
            if pattern.get(j) == Some(&e) {
                landmark.push(pos);
                j += 1;
                if j == pattern.len() {
                    return Some(landmark);
                }
            }
        }
        None
    }

    /// Copies the view into an owned `Vec<EventId>` (0-based indexing).
    pub fn to_vec(self) -> Vec<EventId> {
        self.iter_events().collect()
    }

    /// Copies the view into an owned [`Sequence`].
    pub fn to_sequence(self) -> Sequence {
        Sequence::from_events(self.to_vec())
    }
}

impl PartialEq for SeqView<'_> {
    /// Width-insensitive logical equality over the event sequence.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter_events().eq(other.iter_events())
    }
}

impl Eq for SeqView<'_> {}

/// Iterator over the sequences of a [`SeqStore`], yielding [`SeqView`]s.
#[derive(Debug, Clone)]
pub struct SeqIter<'a> {
    store: &'a SeqStore,
    next: usize,
}

impl<'a> Iterator for SeqIter<'a> {
    type Item = SeqView<'a>;

    fn next(&mut self) -> Option<SeqView<'a>> {
        let view = self.store.view(self.next)?;
        self.next += 1;
        Some(view)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.store.num_sequences().saturating_sub(self.next);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for SeqIter<'_> {}
impl std::iter::FusedIterator for SeqIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(rows: &[&[u32]]) -> SeqStore {
        let mut store = SeqStore::new();
        for row in rows {
            store.push_events(row.iter().map(|&i| EventId(i)));
        }
        store
    }

    fn ids(raw: &[u32]) -> Vec<EventId> {
        raw.iter().map(|&i| EventId(i)).collect()
    }

    #[test]
    fn csr_layout_slices_sequences_out_of_one_arena() {
        let s = store(&[&[1, 2, 3], &[], &[4, 5]]);
        assert_eq!(s.num_sequences(), 3);
        assert_eq!(s.total_length(), 5);
        assert_eq!(s.offsets(), &[0, 3, 3, 5]);
        assert_eq!(s.view(0).unwrap().to_vec(), ids(&[1, 2, 3]));
        assert!(s.view(1).unwrap().is_empty());
        assert_eq!(s.view(2).unwrap().to_vec(), ids(&[4, 5]));
        assert_eq!(s.view(3), None);
        assert_eq!(s.max_sequence_length(), 3);
        assert_eq!(s.seq_len(2), 2);
        assert_eq!(s.seq_len(9), 0);
    }

    #[test]
    fn empty_store_reports_zeroes() {
        let s = SeqStore::new();
        assert!(s.is_empty());
        assert_eq!(s.num_sequences(), 0);
        assert_eq!(s.max_sequence_length(), 0);
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.view(0), None);
    }

    #[test]
    fn iter_is_exact_size_and_yields_views_in_order() {
        let s = store(&[&[7], &[8, 9]]);
        let mut iter = s.iter();
        assert_eq!(iter.len(), 2);
        assert_eq!(iter.next().unwrap().to_vec(), ids(&[7]));
        assert_eq!(iter.len(), 1);
        assert_eq!(iter.next().unwrap().to_vec(), ids(&[8, 9]));
        assert_eq!(iter.next(), None);
        assert_eq!(iter.next(), None); // fused
    }

    #[test]
    fn view_mirrors_sequence_semantics() {
        let s = store(&[&[0, 1, 2, 0, 1, 2, 0]]);
        let v = s.view(0).unwrap();
        assert_eq!(v.at(0), None);
        assert_eq!(v.at(1), Some(EventId(0)));
        assert_eq!(v.at(7), Some(EventId(0)));
        assert_eq!(v.at(8), None);
        assert_eq!(v.count_event(EventId(0)), 3);
        assert!(v.contains_subsequence(&[EventId(0), EventId(1), EventId(0)]));
        assert!(!v.contains_subsequence(&[EventId(2), EventId(2), EventId(2)]));
        assert_eq!(
            v.leftmost_landmark_after(&[EventId(0), EventId(1)], 1),
            Some(vec![4, 5])
        );
        assert_eq!(v.to_sequence().len(), 7);
    }

    #[test]
    fn from_iterator_of_sequences_flattens() {
        let s: SeqStore = vec![
            Sequence::from_events(vec![EventId(1)]),
            Sequence::from_events(vec![EventId(2), EventId(3)]),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.num_sequences(), 2);
        assert_eq!(s.event_column().to_wide_vec(), ids(&[1, 2, 3]));
    }

    #[test]
    fn small_alphabets_build_narrow_and_widen_on_demand() {
        let mut s = store(&[&[1, 2, 3]]);
        assert!(s.is_narrow());
        assert_eq!(s.element_bytes(), 2);
        assert_eq!(s.event_column().width_name(), "u16");

        // Pushing an id beyond u16 widens the whole arena once.
        s.push_events([EventId(70_000)]);
        assert!(!s.is_narrow());
        assert_eq!(s.element_bytes(), 4);
        assert_eq!(s.event_column().to_wide_vec(), ids(&[1, 2, 3, 70_000]));
        assert_eq!(s.view(0).unwrap().to_vec(), ids(&[1, 2, 3]));
    }

    #[test]
    fn widen_preserves_logical_content_and_equality() {
        let narrow = store(&[&[1, 2, 3], &[], &[65_535]]);
        assert!(narrow.is_narrow());
        let mut wide = narrow.clone();
        wide.widen();
        assert!(!wide.is_narrow());
        // Width-insensitive equality at every level.
        assert_eq!(narrow, wide);
        assert_eq!(narrow.event_column(), wide.event_column());
        assert_eq!(narrow.view(2), wide.view(2));
        // The wide copy costs exactly twice the arena bytes.
        assert_eq!(
            wide.event_column().byte_len(),
            2 * narrow.event_column().byte_len()
        );
        // And narrows back.
        let mut column = wide.event_column().clone();
        assert!(column.fits_narrow());
        assert!(column.narrow());
        let back = SeqStore::from_shared_parts(column, wide.offsets().to_vec().into()).unwrap();
        assert_eq!(back, narrow);
        assert!(back.is_narrow());
    }

    #[test]
    fn column_count_and_get_widen_correctly() {
        let s = store(&[&[5, 6, 5, 7]]);
        let col = s.event_column();
        assert_eq!(col.count(EventId(5)), 2);
        assert_eq!(col.count(EventId(70_000)), 0); // can't occur in a narrow column
        assert_eq!(col.get(1), Some(EventId(6)));
        assert_eq!(col.get(4), None);
        assert_eq!(
            s.view(0).unwrap().iter_events_from(2).collect::<Vec<_>>(),
            ids(&[5, 7])
        );
        assert_eq!(s.view(0).unwrap().iter_events_from(9).count(), 0);
    }

    #[test]
    fn heap_bytes_counts_arena_at_physical_width() {
        let s = store(&[&[1, 2, 3, 4]]);
        // Narrow arena: 2 bytes per event + 2 u32 offsets.
        assert_eq!(s.heap_bytes(), 4 * 2 + 2 * 4);
        let mut wide = s.clone();
        wide.widen();
        assert_eq!(wide.heap_bytes(), 4 * 4 + 2 * 4);
    }
}
