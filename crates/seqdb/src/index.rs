//! The *inverted event index* of §III-D, laid out event-major.
//!
//! For each sequence `Si` and event `e`, the index stores the ordered list
//! `L_{e,Si} = { j | Si[j] = e }` of 1-based positions at which `e` occurs.
//! The `next(S, e, lowest)` subroutine of Algorithm 2 is then a single
//! binary search (`O(log L)`), exactly as prescribed by the paper.
//!
//! # Layout
//!
//! Only the lists that exist are stored. Per event, the **rows** of the
//! sequences that contain it are kept in ascending sequence order; each row
//! is a range of **one** flat positions arena, which is concatenated in
//! (event, sequence) order. Row boundaries are shared, so `rows` rows cost
//! `rows + 1` offsets. One rule, fixed by the data, decides how an event
//! stores its rows ([`dense_rule`]):
//!
//! * **dense** when the event occurs in at least half of the sequences: one
//!   row per sequence (empty rows included), so sequence `s` is row `s` and
//!   resolving it is one add and two loads;
//! * **sparse** otherwise: one row per sequence that contains the event,
//!   plus that sequence's id in an ascending id list.
//!
//! Two directories of `num_events + 1` entries mark where each event's rows
//! and ids start. An event is dense exactly when it has rows but no ids, so
//! no kind flag is stored. The whole index takes
//! `4·total + 4·(rows + 1) + 4·ids + 8·(events + 1)` bytes — linear in the
//! data, never in sequences × alphabet.
//!
//! Sequence ids are global: one index covers the whole corpus.
//!
//! Growth passes fix the event and walk sequences in ascending order, so
//! they resolve rows through a forward-only handle
//! ([`InvertedIndex::event_rows`]) that gallops forward along a sparse
//! event's ids. The random-access API below keeps a binary search over
//! them.

use std::ops::Range;

use crate::cast::{u32_to_usize, usize_to_u32};
use crate::catalog::EventId;
use crate::database::SequenceDatabase;
use crate::width::EventWidth;

/// The storage rule: an event present in `containing` of `num_sequences`
/// sequences stores one row per sequence (dense) when it occurs in at least
/// half of them, and one row per containing sequence plus its id (sparse)
/// otherwise. An event that occurs nowhere is sparse with no rows.
///
/// The builder applies this one function, so an index's layout is
/// canonical for its data.
#[inline]
pub fn dense_rule(containing: usize, num_sequences: usize) -> bool {
    containing > 0 && containing.saturating_mul(2) >= num_sequences
}

/// Per-database inverted event index, event-major (module docs).
///
/// Lookups never hash and never allocate. The index is always built from
/// its store ([`InvertedIndex::build_for_store`]), whether the store was
/// built in memory or mapped from a [`snapshot`](crate::snapshot) image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvertedIndex {
    /// `row_dir[e]..row_dir[e + 1]` are event `e`'s rows (`num_events + 1`
    /// entries).
    row_dir: Vec<u32>,
    /// `id_dir[e]..id_dir[e + 1]` are event `e`'s sparse sequence ids in
    /// `ids`; an empty range with rows marks a dense event
    /// (`num_events + 1` entries).
    id_dir: Vec<u32>,
    /// Row `r` is `positions[row_offsets[r]..row_offsets[r + 1]]` (rows + 1
    /// entries, ending at the arena length).
    row_offsets: Vec<u32>,
    /// The sparse events' sequence ids, ascending within each event.
    ids: Vec<u32>,
    /// Every posting list, concatenated in (event, sequence) order. Its
    /// length is the database's total length.
    positions: Vec<u32>,
    num_events: usize,
    num_sequences: usize,
}

/// A perfbench shim: the benchmark harness still spells the index by the
/// name it had when the corpus could be split, so the name stays as an
/// alias of the one index until the harness changes.
pub type ShardedIndex = InvertedIndex;

/// The resolved rows of one event inside one index: what a row lookup
/// needs, borrowed once per event.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EventView<'a> {
    /// This event's row boundaries (rows + 1 entries, or none).
    bounds: &'a [u32],
    /// This event's sparse sequence ids; empty for a dense event.
    pub(crate) ids: &'a [u32],
    /// The whole positions arena.
    positions: &'a [u32],
}

impl<'a> EventView<'a> {
    /// Row `r` of the event (empty past the last row).
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &'a [u32] {
        match (self.bounds.get(r), self.bounds.get(r + 1)) {
            (Some(&start), Some(&end)) => self
                .positions
                .get(u32_to_usize(start)..u32_to_usize(end))
                .unwrap_or(&[]),
            _ => &[],
        }
    }

    /// Whether the event has any rows (every dense event does).
    #[inline]
    pub(crate) fn has_rows(&self) -> bool {
        self.bounds.len() > 1
    }

    /// Whether the event is stored dense: rows but no ids.
    #[inline]
    fn is_dense(&self) -> bool {
        self.ids.is_empty() && self.has_rows()
    }

    /// The positions of the event in sequence `seq`: direct on a dense
    /// event, a binary search over the ids on a sparse one.
    #[inline]
    fn lookup(&self, seq: usize) -> &'a [u32] {
        if self.ids.is_empty() {
            return self.row(seq);
        }
        match usize_to_u32(seq).map(|seq| self.ids.binary_search(&seq)) {
            Some(Ok(r)) => self.row(r),
            _ => &[],
        }
    }

    /// Number of rows (dense: every sequence; sparse: containing ones).
    fn num_rows(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// The non-empty rows, with their sequence ids, ascending.
    fn rows(self) -> impl Iterator<Item = (usize, &'a [u32])> {
        (0..self.num_rows()).filter_map(move |r| {
            let seq = if self.ids.is_empty() {
                r
            } else {
                u32_to_usize(*self.ids.get(r)?)
            };
            let row = self.row(r);
            (!row.is_empty()).then_some((seq, row))
        })
    }
}

/// The range `dir[i]..dir[i + 1]`, or `None` past the directory's end.
#[inline]
fn dir_range(dir: &[u32], i: usize) -> Option<Range<usize>> {
    match (dir.get(i), dir.get(i + 1)) {
        (Some(&start), Some(&end)) => Some(u32_to_usize(start)..u32_to_usize(end)),
        _ => None,
    }
}

/// Pass-1 counts of one event in [`InvertedIndex::build_for_store`].
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Occurrences.
    total: u32,
    /// Sequences holding it.
    containing: u32,
    /// 1 + the last sequence that counted it.
    seen: u32,
}

/// Pass-2 cursors of one event in [`InvertedIndex::build_for_store`].
#[derive(Debug, Clone, Copy)]
struct Fill {
    /// Next free slot of the event's positions range.
    at: u32,
    /// 1 + the last sequence that opened a sparse row.
    seen: u32,
    /// Dense: the event's first row. Sparse: its next row.
    row: u32,
    /// Sparse: its next id slot.
    id: u32,
    sparse: bool,
}

impl InvertedIndex {
    /// Builds the index for `db` in two passes over the flat event arena
    /// (`O(total_length + num_events)` time and space).
    pub fn build(db: &SequenceDatabase) -> Self {
        Self::build_for_store(db.store(), db.num_events())
    }

    /// Builds the index for a bare [`SeqStore`](crate::SeqStore) over an
    /// alphabet of `num_events` events.
    ///
    /// A counting pass sizes every event's rows, ids and positions; a fill
    /// pass scatters them. Scratch is a handful of per-event counters — no
    /// table ever grows with sequences × events.
    ///
    /// # Panics
    ///
    /// Panics when the store references an event id `>= num_events`.
    pub fn build_for_store(store: &crate::store::SeqStore, num_events: usize) -> Self {
        // Every offset and id is u32: a wrapped count would silently
        // misalign every posting list, so fail loudly instead (the store
        // enforces the same ceiling on its own offsets).
        assert!(
            usize_to_u32(store.total_length()).is_some()
                && usize_to_u32(store.num_sequences()).is_some(),
            "InvertedIndex offsets are u32: more than u32::MAX total events or sequences"
        );
        // Both passes run over the arena at its native width.
        let column = store.event_column();
        match (column.narrow_slice(), column.wide_slice()) {
            (Some(events), _) => Self::build_rows(events, store.offsets(), num_events),
            (None, Some(events)) => Self::build_rows(events, store.offsets(), num_events),
            (None, None) => Self::build_rows::<u16>(&[], &[0], num_events),
        }
    }

    /// [`Self::build_for_store`] over an event arena of width `T` and its
    /// CSR `offsets` (one per sequence plus a sentinel).
    fn build_rows<T: EventWidth>(events: &[T], offsets: &[u32], num_events: usize) -> Self {
        let num_sequences = offsets.len().saturating_sub(1);
        let sequences = || {
            offsets
                .iter()
                .zip(offsets.iter().skip(1))
                .map(|(&a, &b)| events.get(u32_to_usize(a)..u32_to_usize(b)).unwrap_or(&[]))
        };

        // Pass 1: per event, total occurrences and the number of sequences
        // containing it (`seen` = 1 + the last sequence that counted it).
        let mut tally = vec![Tally::default(); num_events];
        for (seq, row) in sequences().enumerate() {
            let mark = usize_to_u32(seq + 1).unwrap_or(u32::MAX);
            for &event in row {
                let e = event.to_event().index();
                assert!(
                    e < num_events,
                    "store references event id {e} outside the {num_events}-event alphabet"
                );
                if let Some(t) = tally.get_mut(e) {
                    t.total += 1;
                    t.containing += u32::from(t.seen != mark);
                    t.seen = mark;
                }
            }
        }

        // Directories and each event's fill cursors, by prefix sums. Ids
        // and arena slots are bounded by `total_length` (asserted to fit
        // u32 above); rows by twice the (sequence, event) pairs, since a
        // dense event's rows are at most twice its containing count — so
        // the row count alone is checked.
        let mut row_dir = Vec::with_capacity(num_events + 1);
        let mut id_dir = Vec::with_capacity(num_events + 1);
        let mut fill = Vec::with_capacity(num_events);
        let mut dense = Vec::new();
        let (mut rows, mut ids, mut start) = (0usize, 0u32, 0u32);
        for (e, t) in tally.iter().enumerate() {
            let row = usize_to_u32(rows).unwrap_or(u32::MAX);
            row_dir.push(row);
            id_dir.push(ids);
            let sparse = !dense_rule(u32_to_usize(t.containing), num_sequences);
            fill.push(Fill {
                at: start,
                seen: 0,
                row,
                id: ids,
                sparse,
            });
            if sparse {
                rows += u32_to_usize(t.containing);
                ids += t.containing;
            } else {
                dense.push(e);
                rows += num_sequences;
            }
            start += t.total;
        }
        assert!(
            usize_to_u32(rows).is_some(),
            "InvertedIndex offsets are u32: more than u32::MAX posting rows"
        );
        row_dir.push(usize_to_u32(rows).unwrap_or(u32::MAX));
        id_dir.push(ids);

        // Pass 2: scatter. A dense event opens its row for every sequence;
        // a sparse one opens a row (and records the id) at its first
        // occurrence in a sequence. Sequences are visited in ascending
        // order and positions ascending within each, so every row comes
        // out sorted and every event's rows and ids ascend.
        let mut row_offsets = vec![0u32; rows + 1];
        let mut seq_ids = vec![0u32; u32_to_usize(ids)];
        let mut positions = vec![0u32; events.len()];
        for (seq, row) in sequences().enumerate() {
            let seq_u32 = usize_to_u32(seq).unwrap_or(u32::MAX);
            for f in dense.iter().filter_map(|&e| fill.get(e)) {
                if let Some(slot) = row_offsets.get_mut(u32_to_usize(f.row) + seq) {
                    *slot = f.at;
                }
            }
            for (i, &event) in row.iter().enumerate() {
                let Some(f) = fill.get_mut(event.to_event().index()) else {
                    continue;
                };
                if f.sparse && f.seen != seq_u32 + 1 {
                    f.seen = seq_u32 + 1;
                    if let Some(slot) = row_offsets.get_mut(u32_to_usize(f.row)) {
                        *slot = f.at;
                    }
                    if let Some(slot) = seq_ids.get_mut(u32_to_usize(f.id)) {
                        *slot = seq_u32;
                    }
                    f.row += 1;
                    f.id += 1;
                }
                if let Some(slot) = positions.get_mut(u32_to_usize(f.at)) {
                    *slot = usize_to_u32(i + 1).unwrap_or(u32::MAX);
                }
                f.at += 1;
            }
        }
        if let Some(sentinel) = row_offsets.last_mut() {
            *sentinel = start;
        }

        Self {
            row_dir,
            id_dir,
            row_offsets,
            ids: seq_ids,
            positions,
            num_events,
            num_sequences,
        }
    }

    /// The flat positions arena (all posting lists concatenated in
    /// (event, sequence) order).
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// Number of sequences covered by the index.
    pub fn num_sequences(&self) -> usize {
        self.num_sequences
    }

    /// Number of distinct events covered by the index.
    pub fn num_events(&self) -> usize {
        self.num_events
    }

    /// Number of events stored dense (one row per sequence).
    pub fn dense_events(&self) -> usize {
        (0..self.num_events)
            .filter(|&e| {
                self.view(EventId(usize_to_u32(e).unwrap_or(u32::MAX)))
                    .is_dense()
            })
            .count()
    }

    /// The rows of `event`, resolved once (empty for an out-of-range id).
    #[inline]
    pub(crate) fn view(&self, event: EventId) -> EventView<'_> {
        let e = event.index();
        let (Some(rows), Some(ids)) = (dir_range(&self.row_dir, e), dir_range(&self.id_dir, e))
        else {
            return EventView::default();
        };
        EventView {
            bounds: self
                .row_offsets
                .get(rows.start..rows.end + 1)
                .unwrap_or(&[]),
            ids: self.ids.get(ids).unwrap_or(&[]),
            positions: &self.positions,
        }
    }

    /// The `next(S, e, lowest)` subroutine (Algorithm 2, line 9): the
    /// smallest 1-based position `l` in sequence `seq` with `l > lowest` and
    /// `S[l] = event`, or `None` (the paper's `∞`) when no such position
    /// exists.
    ///
    /// This is the *naive reference* probe: every call resolves the row
    /// (a binary search on a sparse event) and runs an independent
    /// `partition_point` over it. Hot loops resolve each row **once** via
    /// an event-row handle and advance a [`PostingCursor`] through it; the
    /// property suite pins both bit-identical to this probe.
    #[inline]
    pub fn next(&self, seq: usize, event: EventId, lowest: u32) -> Option<u32> {
        let list = self.event_positions(seq, event)?;
        let idx = list.partition_point(|&p| p <= lowest);
        list.get(idx).copied()
    }

    /// All positions of `event` in sequence `seq` (sorted ascending) as a
    /// slice into the flat arena — empty when the event does not occur
    /// there — or `None` when the sequence id or event id is out of range.
    #[inline]
    pub fn event_positions(&self, seq: usize, event: EventId) -> Option<&[u32]> {
        if seq >= self.num_sequences || event.index() >= self.num_events {
            return None;
        }
        Some(self.view(event).lookup(seq))
    }

    /// Resolves the posting row of `(seq, event)` once and returns a
    /// monotone [`PostingCursor`] over it, or `None` when the ids are out
    /// of range.
    #[inline]
    pub fn cursor(&self, seq: usize, event: EventId) -> Option<PostingCursor<'_>> {
        self.event_positions(seq, event).map(PostingCursor::new)
    }

    /// Number of occurrences of `event` in sequence `seq`.
    pub fn count_in_sequence(&self, seq: usize, event: EventId) -> usize {
        self.event_positions(seq, event).map_or(0, <[u32]>::len)
    }

    /// Total number of occurrences of `event` in the whole database, i.e.
    /// the repetitive support of the single-event pattern `event` — the
    /// length of the event's arena range, O(1).
    pub fn total_count(&self, event: EventId) -> usize {
        let view = self.view(event);
        match (view.bounds.first(), view.bounds.last()) {
            (Some(&start), Some(&end)) => u32_to_usize(end - start),
            _ => 0,
        }
    }

    /// Total occurrence counts of every event: entry `i` is
    /// [`Self::total_count`] of `EventId(i)`.
    pub fn total_counts(&self) -> Vec<u64> {
        (0..self.num_events)
            .map(|e| {
                let total = self.total_count(EventId(usize_to_u32(e).unwrap_or(u32::MAX)));
                crate::cast::usize_to_u64(total)
            })
            .collect()
    }

    /// Number of sequences in which `event` occurs at least once (classical
    /// sequence support of a single event): the id count of a sparse event,
    /// the non-empty rows of a dense one.
    pub fn sequence_count(&self, event: EventId) -> usize {
        let view = self.view(event);
        if view.ids.is_empty() {
            view.rows().count()
        } else {
            view.ids.len()
        }
    }

    /// Iterates over the sequences in which `event` occurs, yielding the
    /// sequence index and the sorted position list (a slice into the arena).
    pub fn sequences_with_event(
        &self,
        event: EventId,
    ) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        self.view(event).rows()
    }

    /// A forward-only row handle for `event`: [`EventRows::row`] resolves
    /// the posting row of each sequence a growth pass visits, in ascending
    /// sequence order, without allocating — one add and two loads on a
    /// dense event, a forward gallop along the ids on a sparse one.
    #[inline]
    pub fn event_rows(&self, event: EventId) -> EventRows<'_> {
        EventRows {
            view: self.view(event),
            num_sequences: self.num_sequences,
            at: 0,
            runs: None,
            #[cfg(debug_assertions)]
            prev_seq: 0,
        }
    }

    /// Bytes of live data held by the index (all five columns) — the number
    /// the `stats` CLI and the columnar-store benchmark report. Counts
    /// lengths, not capacities, so it is deterministic for a given database.
    pub fn heap_bytes(&self) -> usize {
        [
            &self.row_dir,
            &self.id_dir,
            &self.row_offsets,
            &self.ids,
            &self.positions,
        ]
        .iter()
        .map(|column| std::mem::size_of_val(column.as_slice()))
        .sum()
    }
}

/// Sequences one [`RunSet`] window covers.
const RUN_SET_SPAN: usize = 1024;

/// The sequences a support set has instances in, as a bitmap over a window
/// of 1024 consecutive ids (128 bytes, no heap).
///
/// A depth-first miner grows one node's instances by every candidate
/// event, so it builds the node's set once and lends it to every pass
/// ([`EventRows::restrict`]). A sparse event's handle then passes the ids of
/// sequences outside the set with one bit test each, instead of returning
/// them to the pass one lookup at a time. Sequences outside the window are
/// admitted — the set is a filter, never a proof of absence — so a set whose
/// sequences span more than the window admits everything.
#[derive(Debug, Clone)]
pub struct RunSet {
    base: usize,
    /// Window length; 0 admits every sequence.
    span: usize,
    words: [u64; RUN_SET_SPAN / 64],
}

impl RunSet {
    /// The set of `seqs` (ascending).
    pub fn of(seqs: impl DoubleEndedIterator<Item = usize> + Clone) -> Self {
        let (Some(first), Some(last)) = (seqs.clone().next(), seqs.clone().next_back()) else {
            return Self::spanning(1, 0);
        };
        let mut set = Self::spanning(first, last);
        seqs.for_each(|seq| set.insert(seq));
        set
    }

    /// An empty set over the sequences `first..=last`, filled with
    /// [`Self::insert`]. A range wider than the window (or an empty one)
    /// gives a set that admits every sequence.
    pub fn spanning(first: usize, last: usize) -> Self {
        let span = last.wrapping_sub(first).wrapping_add(1);
        Self {
            base: first,
            span: if span > RUN_SET_SPAN { 0 } else { span },
            words: [0; RUN_SET_SPAN / 64],
        }
    }

    /// Adds `seq` to the set (a no-op outside the window, which admits it
    /// anyway).
    #[inline]
    pub fn insert(&mut self, seq: usize) {
        let bit = seq.wrapping_sub(self.base);
        if bit < self.span {
            if let Some(word) = self.words.get_mut(bit / 64) {
                *word |= 1 << (bit % 64);
            }
        }
    }

    /// Whether `seq` may hold an instance: in the set, or outside its
    /// window.
    #[inline(always)]
    fn admits(&self, seq: usize) -> bool {
        let bit = seq.wrapping_sub(self.base);
        bit >= self.span
            || self
                .words
                .get(bit / 64)
                .is_some_and(|w| w >> (bit % 64) & 1 == 1)
    }
}

/// The rows of one event, resolved forward-only.
///
/// A growth pass fixes the event and visits instances in `(seq, last)`
/// order, so the sequences it asks for never decrease. The handle keeps the
/// event's view and, on a sparse event, the first id not yet passed: each
/// lookup gallops forward from there instead of binary-searching the whole
/// id list. Sequences must be asked for in non-decreasing order (checked in
/// debug builds); asking for the same sequence again is fine.
#[derive(Debug, Clone)]
pub struct EventRows<'a> {
    view: EventView<'a>,
    num_sequences: usize,
    /// Sparse views: index of the first id not below the last lookup.
    at: usize,
    /// The sequences the pass asks for, when lent ([`Self::restrict`]).
    runs: Option<&'a RunSet>,
    /// Monotonicity guard: lookups must use non-decreasing sequences.
    #[cfg(debug_assertions)]
    prev_seq: usize,
}

impl<'a> EventRows<'a> {
    /// The positions of the handle's event in sequence `seq` — empty when
    /// it does not occur there — or `None` when `seq` is out of range.
    /// Equal to [`InvertedIndex::event_positions`] for every `seq` asked in
    /// non-decreasing order.
    #[inline]
    pub fn row(&mut self, seq: usize) -> Option<&'a [u32]> {
        if seq >= self.num_sequences {
            return None;
        }
        Some(match self.next_row(seq) {
            Some((at, row)) if at == seq => row,
            _ => &[],
        })
    }

    /// The first sequence at or after `seq` whose row may hold the handle's
    /// event, with that row; `None` when no later sequence holds it.
    ///
    /// A dense event answers `seq` itself with one add and two loads (its
    /// row may be empty). A sparse event answers the next sequence that
    /// holds it, found by galloping forward along its ids — so a growth
    /// pass skips every run in between without looking each one up — and,
    /// after [`Self::restrict`], the next such sequence the set admits.
    #[inline(always)]
    pub fn next_row(&mut self, seq: usize) -> Option<(usize, &'a [u32])> {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                seq >= self.prev_seq,
                "EventRows lookups must use non-decreasing sequences ({seq} after {})",
                self.prev_seq
            );
            self.prev_seq = seq;
        }
        let ids = self.view.ids;
        if ids.is_empty() {
            // Dense (one row per sequence), or no rows at all.
            return (seq < self.view.num_rows()).then(|| (seq, self.view.row(seq)));
        }
        let target = usize_to_u32(seq)?;
        self.at += gallop(ids.get(self.at..).unwrap_or(&[]), |id| id < target);
        while let Some(&id) = ids.get(self.at) {
            let hit = u32_to_usize(id);
            if self.runs.is_none_or(|runs| runs.admits(hit)) {
                return Some((hit, self.view.row(self.at)));
            }
            self.at += 1;
        }
        None
    }

    /// Tells the handle which sequences the pass will ask for: from then on
    /// [`Self::next_row`] passes a sparse event's ids outside `runs` with one
    /// bit test each. Only a filter — rows of the sequences in `runs` stay
    /// exact; a dense event ignores it.
    #[inline]
    pub fn restrict(&mut self, runs: &'a RunSet) {
        self.runs = Some(runs);
    }
}

/// The length of the leading run of `row` whose entries satisfy the
/// monotone predicate `before` (true, then false), found by galloping from
/// the front: probe indices 1, 3, 7, 15, ... until one fails, then a
/// branch-free binary search inside the bracket. Costs `O(log run)`
/// instead of `O(log row)`, which is what forward-only cursors (and the
/// growth kernels' run skips) want.
#[inline]
pub fn gallop<T: Copy>(row: &[T], before: impl Fn(T) -> bool) -> usize {
    if !row.first().is_some_and(|&p| before(p)) {
        return 0;
    }
    // On exit, index (hi - 1) / 2 was the last probe known to pass (index
    // 0 checked above), so the run ends in ((hi - 1) / 2, min(hi + 1, len)).
    let len = row.len();
    let mut hi = 1usize;
    while row.get(hi).is_some_and(|&p| before(p)) {
        hi = hi * 2 + 1;
    }
    let mut base = (hi - 1) / 2 + 1;
    let mut size = hi.saturating_add(1).min(len) - base;
    // Each halving is a bounds-checked load plus a conditional add the
    // compiler lowers to a select/cmov, never a data-dependent branch.
    while size > 1 {
        let half = size / 2;
        let mid = base + half;
        // In bounds: mid < base + size <= min(hi + 1, len) <= len.
        base += usize::from(row.get(mid).is_some_and(|&p| before(p))) * half;
        size -= half;
    }
    base + usize::from(row.get(base).is_some_and(|&p| before(p)))
}

/// A resolved posting row with a forward-only, monotone probe cursor.
///
/// Within one (sequence, event) run of a growth pass the successive
/// `lowest` watermarks are **non-decreasing**: instances arrive in
/// right-shift order (`Instance.last` non-decreasing) and the support
/// computer's `last_position` watermark only ever grows. The cursor
/// exploits this by permanently discarding the row prefix `<= lowest` on
/// every probe, so a whole run costs `O(row_len + k · log(stride))`
/// amortized instead of `k` independent `O(log row_len)` searches.
///
/// Each probe **gallops** from the previous landmark (doubling strides —
/// cheap for the short strides that dominate real runs) and finishes with
/// a **branch-free binary search** inside the bracketed window. A probe
/// drops only the prefix `<= lowest`, which is always safe because
/// `lowest` never decreases; the returned position stays at the front
/// until the caller accepts it with [`Self::consume`]. Under gap
/// constraints a position rejected for one instance (`pos > highest`) can
/// legitimately be the answer for the next instance, whose window differs.
///
/// `next_after(lowest)` returns exactly what
/// `row.partition_point(|&p| p <= lowest)` followed by `row.get(..)` would
/// — pinned by the seeded property suite in `tests/posting_cursor.rs`.
#[derive(Debug, Clone)]
pub struct PostingCursor<'a> {
    /// The not-yet-discarded suffix of the posting row.
    rest: &'a [u32],
    /// Monotonicity guard: probes must use non-decreasing `lowest`.
    #[cfg(debug_assertions)]
    prev_lowest: u32,
}

impl<'a> PostingCursor<'a> {
    /// Wraps a sorted posting row (1-based positions, strictly ascending).
    #[inline]
    pub fn new(row: &'a [u32]) -> Self {
        Self {
            rest: row,
            #[cfg(debug_assertions)]
            prev_lowest: 0,
        }
    }

    /// Number of positions not yet discarded.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Returns `true` when every position has been discarded.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.rest.is_empty()
    }

    /// The smallest remaining position `> lowest`, or `None` when the row
    /// is exhausted past `lowest`. Equivalent to the paper's
    /// `next(S, e, lowest)` restricted to non-decreasing `lowest`.
    ///
    /// The returned position stays at the front of the cursor (it may be
    /// returned again by a later probe with the same `lowest` bound); only
    /// the prefix `<= lowest` is discarded.
    #[inline]
    pub fn next_after(&mut self, lowest: u32) -> Option<u32> {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                lowest >= self.prev_lowest,
                "PostingCursor probes must use non-decreasing lowest \
                 ({lowest} after {})",
                self.prev_lowest
            );
            self.prev_lowest = lowest;
        }
        let &front = self.rest.first()?;
        if front > lowest {
            // Fast path (~2 compares): the previous landmark already
            // cleared the prefix — by far the common case mid-run.
            return Some(front);
        }
        let idx = gallop(self.rest, |p| p <= lowest);
        // idx <= len, so the suffix always exists; `unwrap_or` keeps the
        // path panic-free.
        self.rest = self.rest.get(idx..).unwrap_or(&[]);
        self.rest.first().copied()
    }

    /// Drops the front position: the one the last [`Self::next_after`]
    /// returned, once the caller has accepted it.
    ///
    /// Sound whenever no later probe can ask for it again, which holds when
    /// every later `lowest` is at least the accepted position (the growth
    /// kernel's watermark). A position the caller rejects stays at the
    /// front, where it may answer the next probe. Consuming keeps the front
    /// strictly ahead of the watermark, so mid-run probes hit the
    /// two-compare fast path instead of re-galloping over the accepted
    /// position.
    #[inline]
    pub fn consume(&mut self) {
        self.rest = self.rest.get(1..).unwrap_or(&[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::SequenceDatabase;

    /// Table III of the paper: S1 = ABCACBDDB, S2 = ACDBACADD.
    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    #[test]
    fn next_returns_strictly_greater_position() {
        let db = running_example();
        let index = db.inverted_index();
        let c = db.catalog().id("C").unwrap();
        // C occurs at positions 3 and 5 in S1.
        assert_eq!(index.next(0, c, 0), Some(3));
        assert_eq!(index.next(0, c, 3), Some(5));
        assert_eq!(index.next(0, c, 5), None);
    }

    #[test]
    fn next_matches_example_3_3() {
        // In INSgrow(SeqDB, AC, I, B) the paper computes
        // next(S1, B, max{6,5}) = 9.
        let db = running_example();
        let index = db.inverted_index();
        let b = db.catalog().id("B").unwrap();
        assert_eq!(index.next(0, b, 6), Some(9));
    }

    #[test]
    fn counts_match_manual_inspection() {
        let db = running_example();
        let index = db.inverted_index();
        let a = db.catalog().id("A").unwrap();
        let d = db.catalog().id("D").unwrap();
        // A: positions {1,4} in S1 and {1,5,7} in S2.
        assert_eq!(index.count_in_sequence(0, a), 2);
        assert_eq!(index.count_in_sequence(1, a), 3);
        assert_eq!(index.total_count(a), 5);
        assert_eq!(index.sequence_count(a), 2);
        // D: positions {7,8} in S1 and {3,8,9} in S2.
        assert_eq!(index.total_count(d), 5);
    }

    #[test]
    fn total_counts_agree_with_per_event_totals() {
        let db = running_example();
        let index = db.inverted_index();
        let counts = index.total_counts();
        assert_eq!(counts.len(), db.num_events());
        for event in db.catalog().ids() {
            assert_eq!(counts[event.index()], index.total_count(event) as u64);
        }
    }

    #[test]
    fn out_of_range_lookups_are_none_or_zero() {
        let db = running_example();
        let index = db.inverted_index();
        assert_eq!(index.next(10, EventId(0), 0), None);
        assert_eq!(index.next(0, EventId(99), 0), None);
        assert_eq!(index.count_in_sequence(0, EventId(99)), 0);
    }

    #[test]
    fn sequences_with_event_skips_sequences_without_it() {
        let db = SequenceDatabase::from_str_rows(&["AAB", "CC", "BA"]);
        let index = db.inverted_index();
        let a = db.catalog().id("A").unwrap();
        let hits: Vec<usize> = index.sequences_with_event(a).map(|(s, _)| s).collect();
        assert_eq!(hits, vec![0, 2]);
    }

    #[test]
    fn positions_are_sorted_and_one_based() {
        let db = running_example();
        let index = db.inverted_index();
        for seq in 0..db.num_sequences() {
            for event in db.catalog().ids() {
                let positions = index.event_positions(seq, event).unwrap();
                assert!(positions.windows(2).all(|w| w[0] < w[1]));
                for &p in positions {
                    assert_eq!(db.sequence(seq).unwrap().at(p as usize), Some(event));
                }
            }
        }
    }

    #[test]
    fn csr_arena_covers_the_whole_database_exactly_once() {
        let db = running_example();
        let index = db.inverted_index();
        // Every position of every sequence appears in exactly one list.
        let total: usize = db
            .catalog()
            .ids()
            .map(|event| index.total_count(event))
            .sum();
        assert_eq!(total, db.total_length());
        assert!(index.heap_bytes() >= db.total_length() * 4);
    }

    #[test]
    fn cursor_matches_naive_next_over_the_running_example() {
        let db = running_example();
        let index = db.inverted_index();
        for seq in 0..db.num_sequences() {
            for event in db.catalog().ids() {
                let mut cursor = index.cursor(seq, event).unwrap();
                for lowest in 0..=12u32 {
                    assert_eq!(
                        cursor.next_after(lowest),
                        index.next(seq, event, lowest),
                        "seq {seq} event {event} lowest {lowest}"
                    );
                }
                assert!(cursor.is_exhausted());
            }
        }
        assert!(index.cursor(99, EventId(0)).is_none());
    }

    #[test]
    fn cursor_does_not_consume_the_returned_position() {
        let db = running_example();
        let index = db.inverted_index();
        let d = db.catalog().id("D").unwrap();
        // D occurs at {7, 8} in S1: a rejected probe (same lowest) must see
        // the same front again, as constrained growth depends on it.
        let mut cursor = index.cursor(0, d).unwrap();
        assert_eq!(cursor.next_after(3), Some(7));
        assert_eq!(cursor.next_after(3), Some(7));
        assert_eq!(cursor.next_after(7), Some(8));
        assert_eq!(cursor.remaining(), 1);
        assert_eq!(cursor.next_after(8), None);
        assert_eq!(cursor.next_after(12), None);
    }

    #[test]
    fn empty_and_ghost_event_databases_index_cleanly() {
        let empty = SequenceDatabase::new();
        let index = empty.inverted_index();
        assert_eq!(index.num_sequences(), 0);
        assert_eq!(index.total_counts(), Vec::<u64>::new());

        // A catalog entry that never occurs gets an empty list everywhere.
        let mut builder = crate::database::DatabaseBuilder::new();
        builder.intern("GHOST");
        builder.push_tokens(["A", "B"]);
        let db = builder.finish();
        let index = db.inverted_index();
        let ghost = db.catalog().id("GHOST").unwrap();
        assert_eq!(index.total_count(ghost), 0);
        assert_eq!(index.event_positions(0, ghost), Some(&[][..]));
        assert_eq!(index.sequences_with_event(ghost).count(), 0);
    }

    #[test]
    fn the_dense_rule_picks_each_events_layout() {
        // Four sequences: A in all four and B in two are dense (at least
        // half), C in one is sparse, GHOST nowhere has no rows at all.
        let mut builder = crate::database::DatabaseBuilder::new();
        builder.intern("GHOST");
        for row in [&["A", "B"][..], &["A", "C", "A"], &["A", "B"], &["A"]] {
            builder.push_tokens(row.iter().copied());
        }
        let db = builder.finish();
        let index = db.inverted_index();
        let id = |label| db.catalog().id(label).unwrap();
        let rows = |e: EventId| dir_range(&index.row_dir, e.index()).unwrap().len();
        let ids = |e: EventId| dir_range(&index.id_dir, e.index()).unwrap().len();
        assert_eq!((rows(id("A")), ids(id("A"))), (4, 0));
        assert_eq!((rows(id("B")), ids(id("B"))), (4, 0));
        assert_eq!((rows(id("C")), ids(id("C"))), (1, 1));
        assert_eq!((rows(id("GHOST")), ids(id("GHOST"))), (0, 0));
        assert_eq!(index.dense_events(), 2);
        assert_eq!(index.ids, [1]);
        // 4·total + 4·(rows + 1) + 4·ids + 8·(events + 1).
        assert_eq!(index.heap_bytes(), 4 * 8 + 4 * 10 + 4 + 8 * 5);
        assert_eq!(index.event_positions(1, id("A")), Some(&[1u32, 3][..]));
        assert_eq!(index.event_positions(1, id("B")), Some(&[][..]));
        assert_eq!(index.event_positions(0, id("C")), Some(&[][..]));
        assert_eq!(index.event_positions(1, id("C")), Some(&[2u32][..]));
        assert_eq!(index.sequence_count(id("B")), 2);
    }

    #[test]
    fn a_run_set_filters_inside_its_window_and_admits_outside_it() {
        let set = RunSet::of([100usize, 101, 164, 1123].into_iter());
        for seq in 0..2000 {
            let inside = (100..=1123).contains(&seq);
            let member = [100, 101, 164, 1123].contains(&seq);
            assert_eq!(set.admits(seq), !inside || member, "seq {seq}");
        }
        // Sequences wider apart than the window: the set admits everything.
        let wide = RunSet::of([0usize, RUN_SET_SPAN].into_iter());
        assert!((0..2 * RUN_SET_SPAN).all(|seq| wide.admits(seq)));
        let empty = RunSet::of(std::iter::empty());
        assert!(empty.admits(0) && empty.admits(7));
    }

    #[test]
    fn gallop_finds_the_partition_point() {
        let row = [2u32, 4, 6, 8, 10, 12, 14, 16, 18];
        for bound in 0..=20u32 {
            assert_eq!(
                gallop(&row, |p| p <= bound),
                row.partition_point(|&p| p <= bound),
                "bound {bound}"
            );
        }
        assert_eq!(gallop(&[], |_: u32| true), 0);
    }
}
