//! The *inverted event index* of §III-D, in columnar CSR layout.
//!
//! For each sequence `Si` and event `e`, the index stores the ordered list
//! `L_{e,Si} = { j | Si[j] = e }` of 1-based positions at which `e` occurs.
//! The `next(S, e, lowest)` subroutine of Algorithm 2 is then a single
//! binary search (`O(log L)`), exactly as prescribed by the paper.
//!
//! # Layout
//!
//! All position lists live in **one** flat `positions` arena; a CSR offsets
//! table with one slot per `(sequence, event)` pair marks where each list
//! begins and ends. A posting list is therefore a plain `&[u32]` slice into
//! the arena — zero pointer chasing, one cache line per short list, and the
//! whole index is two `Vec`s (compare the seed's `Vec<Vec<Vec<u32>>>`,
//! which paid one heap allocation and one pointer hop per non-empty list).

use crate::cast::{u32_to_usize, usize_to_u32};
use crate::catalog::EventId;
use crate::database::SequenceDatabase;
use crate::shared::SharedSlice;

/// Per-database inverted event index in CSR layout.
///
/// Slot `seq * num_events + event.index()` of the offsets table delimits the
/// sorted, 1-based position list of `event` in `seq` inside the flat
/// positions arena. Lookups never hash and never chase pointers.
///
/// Both columns are [`SharedSlice`]s, so an index can be rebuilt from a
/// database ([`InvertedIndex::build`]) or reconstructed zero-copy from a
/// [`snapshot`](crate::snapshot) image
/// ([`InvertedIndex::from_shared_parts`]) — queries are identical either
/// way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvertedIndex {
    /// CSR offsets: slot `s * num_events + e` holds the arena range
    /// `offsets[slot]..offsets[slot + 1]`. Length `slots + 1` (with a
    /// leading implicit 0 stored explicitly).
    offsets: SharedSlice<u32>,
    /// All position lists, concatenated in slot order. Length equals the
    /// database's total length.
    positions: SharedSlice<u32>,
    num_events: usize,
    num_sequences: usize,
}

impl InvertedIndex {
    /// Builds the index for `db` in two passes over the flat event arena
    /// (`O(total_length)` time and space; a counting pass sizes the CSR
    /// ranges, a fill pass scatters the positions).
    pub fn build(db: &SequenceDatabase) -> Self {
        Self::build_for_store(db.store(), db.num_events())
    }

    /// Builds the index for a bare [`SeqStore`](crate::SeqStore) over an alphabet of
    /// `num_events` events. This is the shard-level entry point: a sharded
    /// database indexes each per-shard store window independently (and in
    /// parallel) against the **global** alphabet, so slot layout and posting
    /// lists line up across shards.
    ///
    /// # Panics
    ///
    /// Panics when the store references an event id `>= num_events`.
    pub fn build_for_store(store: &crate::store::SeqStore, num_events: usize) -> Self {
        let num_sequences = store.num_sequences();
        let slots = num_sequences * num_events;
        // The CSR offsets are u32: a wrapped count would silently misalign
        // every posting list, so fail loudly instead (the store enforces
        // the same ceiling on its own offsets).
        assert!(
            usize_to_u32(store.total_length()).is_some(),
            "InvertedIndex offsets are u32: more than u32::MAX total events"
        );

        // Pass 1: count occurrences per (sequence, event) slot, shifted by
        // one so the in-place prefix sum turns counts into offsets.
        let mut offsets = vec![0u32; slots + 1];
        for (seq, view) in store.iter().enumerate() {
            let base = seq * num_events;
            for event in view.iter_events() {
                assert!(
                    event.index() < num_events,
                    "store references event id {} outside the {num_events}-event alphabet",
                    event.index()
                );
                // In bounds: asserted just above, and `base + num_events <= slots`.
                if let Some(count) = offsets.get_mut(base + event.index() + 1) {
                    *count += 1;
                }
            }
        }
        let mut running = 0u32;
        for offset in &mut offsets {
            running += *offset;
            *offset = running;
        }

        // Pass 2: scatter 1-based positions into the arena. Within one
        // sequence events are visited in position order, so every slot's
        // list comes out sorted ascending. Bounds: the cursor slot exists
        // (asserted in pass 1) and the cursor value stays below the next
        // offset, which is at most the arena length.
        let mut positions = vec![0u32; store.total_length()];
        let mut cursor: Vec<u32> = offsets.get(..slots).unwrap_or(&[]).to_vec();
        for (seq, view) in store.iter().enumerate() {
            let base = seq * num_events;
            for (pos, event) in view.iter_positions() {
                let Some(c) = cursor.get_mut(base + event.index()) else {
                    continue;
                };
                if let Some(target) = positions.get_mut(u32_to_usize(*c)) {
                    *target = usize_to_u32(pos).unwrap_or(u32::MAX);
                }
                *c += 1;
            }
        }

        Self {
            offsets: offsets.into(),
            positions: positions.into(),
            num_events,
            num_sequences,
        }
    }

    /// Reassembles an index from its two CSR columns, typically zero-copy
    /// slices of a [`snapshot`](crate::snapshot) image. Every structural
    /// invariant is checked; the error string names the violated one.
    pub fn from_shared_parts(
        offsets: SharedSlice<u32>,
        positions: SharedSlice<u32>,
        num_sequences: usize,
        num_events: usize,
    ) -> Result<Self, String> {
        let slots = num_sequences
            .checked_mul(num_events)
            .ok_or("index slot count overflows")?;
        if offsets.len() != slots + 1 {
            return Err(format!(
                "index offsets hold {} entries, expected {} ({num_sequences} sequences x \
                 {num_events} events + 1)",
                offsets.len(),
                slots + 1
            ));
        }
        if offsets.first() != Some(&0) {
            return Err(format!(
                "index offsets start at {}, not 0",
                offsets.first().copied().unwrap_or(0)
            ));
        }
        if let Some((a, b)) = offsets
            .iter()
            .zip(offsets.iter().skip(1))
            .find(|(a, b)| a > b)
        {
            return Err(format!("index offsets are not monotone ({a} > {b})"));
        }
        let last = u32_to_usize(offsets.last().copied().unwrap_or(0));
        if last != positions.len() {
            return Err(format!(
                "index offsets end at {last} but the positions arena holds {} entries",
                positions.len()
            ));
        }
        // Each slot's posting list must be strictly ascending and 1-based:
        // `next` binary-searches it, so an unsorted list would silently
        // skip occurrences instead of failing. One linear pass over the
        // arena, same cost class as the offset checks above.
        for slot in 0..slots {
            let range = match (offsets.get(slot), offsets.get(slot + 1)) {
                (Some(&a), Some(&b)) => u32_to_usize(a)..u32_to_usize(b),
                // Unreachable: offsets.len() == slots + 1 was checked above.
                _ => 0..0,
            };
            let list = positions.get(range).unwrap_or(&[]);
            if list.first() == Some(&0) {
                return Err(format!(
                    "index positions for slot {slot} start at 0 (positions are 1-based)"
                ));
            }
            if let Some((a, b)) = list.iter().zip(list.iter().skip(1)).find(|(a, b)| a >= b) {
                return Err(format!(
                    "index positions for slot {slot} are not strictly ascending \
                     ({a} then {b})"
                ));
            }
        }
        Ok(Self {
            offsets,
            positions,
            num_events,
            num_sequences,
        })
    }

    /// The CSR offsets column: slot `s * num_events + e` delimits the arena
    /// range of `(sequence s, event e)`. Exposed for snapshot serialization.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat positions arena (all posting lists concatenated in slot
    /// order). Exposed for snapshot serialization.
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

    /// The `next(S, e, lowest)` subroutine (Algorithm 2, line 9): the
    /// smallest 1-based position `l` in sequence `seq` with `l > lowest` and
    /// `S[l] = event`, or `None` (the paper's `∞`) when no such position
    /// exists.
    ///
    /// This is the *naive reference* probe: every call re-derives the CSR
    /// slot (one multiply plus two bounds-checked offset loads) and runs an
    /// independent `partition_point` over the whole row. Hot loops resolve
    /// the row **once** via [`InvertedIndex::cursor`] instead and advance a
    /// [`PostingCursor`] through it; the property suite pins the cursor
    /// bit-identical to this probe.
    #[inline]
    pub fn next(&self, seq: usize, event: EventId, lowest: u32) -> Option<u32> {
        let list = self.event_positions(seq, event)?;
        let idx = list.partition_point(|&p| p <= lowest);
        list.get(idx).copied()
    }

    /// All positions of `event` in sequence `seq` (sorted ascending) as a
    /// slice into the flat arena, or `None` when the sequence id or event id
    /// is out of range.
    ///
    /// This is the *cached row handle*: it pays the CSR slot derivation
    /// exactly once, and every probe a caller performs against the returned
    /// slice (or a [`PostingCursor`] over it) is a plain slice operation.
    #[inline]
    pub fn event_positions(&self, seq: usize, event: EventId) -> Option<&[u32]> {
        if seq >= self.num_sequences || event.index() >= self.num_events {
            return None;
        }
        let slot = seq * self.num_events + event.index();
        let start = u32_to_usize(*self.offsets.get(slot)?);
        let end = u32_to_usize(*self.offsets.get(slot + 1)?);
        self.positions.get(start..end)
    }

    /// Resolves the posting row of `(seq, event)` once and returns a
    /// monotone [`PostingCursor`] over it, or `None` when the ids are out
    /// of range. The growth kernel calls this once per (sequence, event)
    /// run instead of [`InvertedIndex::next`] once per instance.
    #[inline]
    pub fn cursor(&self, seq: usize, event: EventId) -> Option<PostingCursor<'_>> {
        self.event_positions(seq, event).map(PostingCursor::new)
    }

    /// Number of occurrences of `event` in sequence `seq`.
    pub fn count_in_sequence(&self, seq: usize, event: EventId) -> usize {
        self.event_positions(seq, event).map_or(0, <[u32]>::len)
    }

    /// Total number of occurrences of `event` in the whole database, i.e.
    /// the repetitive support of the single-event pattern `event`.
    pub fn total_count(&self, event: EventId) -> usize {
        (0..self.num_sequences)
            .map(|s| self.count_in_sequence(s, event))
            .sum()
    }

    /// Total occurrence counts of every event in one pass: entry `i` is
    /// [`Self::total_count`] of `EventId(i)`. This is the bulk form used to
    /// prepare a database once and answer frequent-event scans per query
    /// without touching the index again.
    pub fn total_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_events];
        for seq in 0..self.num_sequences {
            let base = seq * self.num_events;
            for (event, count) in counts.iter_mut().enumerate() {
                let slot = base + event;
                if let (Some(&a), Some(&b)) = (self.offsets.get(slot), self.offsets.get(slot + 1)) {
                    *count += u64::from(b - a);
                }
            }
        }
        counts
    }

    /// Number of sequences in which `event` occurs at least once (classical
    /// sequence support of a single event).
    pub fn sequence_count(&self, event: EventId) -> usize {
        (0..self.num_sequences)
            .filter(|&s| self.count_in_sequence(s, event) > 0)
            .count()
    }

    /// Iterates over the sequences in which `event` occurs, yielding the
    /// sequence index and the sorted position list (a slice into the arena).
    pub fn sequences_with_event(
        &self,
        event: EventId,
    ) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        (0..self.num_sequences).filter_map(move |seq| {
            self.event_positions(seq, event)
                .filter(|p| !p.is_empty())
                .map(|p| (seq, p))
        })
    }

    /// Bytes of live data held by the index (positions arena + CSR offsets
    /// table) — the number the `stats` CLI and the columnar-store benchmark
    /// report, and the index's contribution to a snapshot image. Counts
    /// lengths, not capacities, so it is deterministic for a given database.
    pub fn heap_bytes(&self) -> usize {
        (self.positions.len() + self.offsets.len()) * std::mem::size_of::<u32>()
    }
}

/// A resolved posting row with a forward-only, monotone probe cursor.
///
/// Within one (sequence, event) run of a growth pass the successive
/// `lowest` watermarks are **non-decreasing**: instances arrive in
/// right-shift order (`Instance.last` non-decreasing) and the support
/// computer's `last_position` watermark only ever grows. The cursor
/// exploits this by permanently discarding the row prefix `<= lowest` on
/// every probe, so a whole run costs `O(row_len + k · log(stride))`
/// amortized instead of `k` independent `O(log row_len)` searches that
/// each re-derive the CSR slot.
///
/// Each probe **gallops** from the previous landmark (doubling strides —
/// cheap for the short strides that dominate real runs) and finishes with
/// a **branch-free binary search** inside the bracketed window (a
/// conditional-move select per halving, no hard-to-predict compare
/// branch). The returned position is *not* consumed: under gap constraints
/// a position rejected for one instance (`pos > highest`) can legitimately
/// be the answer for the next instance, whose window differs. Only the
/// prefix `<= lowest` is dropped, which is always safe because `lowest`
/// never decreases.
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
        // Gallop: probe indices 1, 3, 7, 15, ... until one exceeds
        // `lowest` (or the row ends). On exit, index (hi - 1) / 2 was the
        // last probe known `<= lowest` (index 0 checked above), so the
        // partition point lies in ((hi - 1) / 2, min(hi + 1, len)).
        let len = self.rest.len();
        let mut hi = 1usize;
        while self.rest.get(hi).is_some_and(|&p| p <= lowest) {
            hi = hi * 2 + 1;
        }
        let mut base = (hi - 1) / 2 + 1;
        let mut size = hi.saturating_add(1).min(len) - base;
        // Branch-free binary search for the partition point inside the
        // bracket: each halving is a bounds-checked load plus a
        // conditional add the compiler lowers to a select/cmov, never a
        // data-dependent branch.
        while size > 1 {
            let half = size / 2;
            let mid = base + half;
            // In bounds: mid < base + size <= min(hi + 1, len) <= len.
            base += usize::from(self.rest.get(mid).is_some_and(|&p| p <= lowest)) * half;
            size -= half;
        }
        let idx = base + usize::from(self.rest.get(base).is_some_and(|&p| p <= lowest));
        // idx <= len, so the suffix always exists; `unwrap_or` keeps the
        // path panic-free.
        self.rest = self.rest.get(idx..).unwrap_or(&[]);
        self.rest.first().copied()
    }

    /// Consumes the `n` leading remaining positions without probing — the
    /// vectorized growth kernels' bulk advance after a whole-batch vector
    /// compare proved the next `n` positions are emitted (or accepted)
    /// consecutively, so probing each one individually would be wasted
    /// work (see `core::kernel`). The caller asserts that every skipped
    /// position is `<= ` all future probe bounds — the same contract as
    /// [`Self::next_after_consuming`], `n` positions at a time.
    #[inline]
    pub fn advance(&mut self, n: usize) {
        self.rest = self.rest.get(n..).unwrap_or(&[]);
    }

    /// [`Self::next_after`], additionally consuming the returned position.
    ///
    /// Correct only when the caller can never ask for the same position
    /// again — the unconstrained growth kernel qualifies, because its
    /// watermark makes every later bound at least the emitted position, and
    /// probes are strictly greater than their bound. Consuming keeps the
    /// cursor front strictly ahead of the watermark, so mid-run probes hit
    /// the two-compare fast path instead of re-galloping over the emitted
    /// position. Gap-constrained sweeps must keep using [`Self::next_after`]
    /// (a rejected position may be the answer for the next instance).
    #[inline]
    pub fn next_after_consuming(&mut self, lowest: u32) -> Option<u32> {
        let pos = self.next_after(lowest)?;
        self.rest = self.rest.get(1..).unwrap_or(&[]);
        Some(pos)
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
}
