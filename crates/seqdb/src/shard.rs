//! Sequence-boundary sharding: partitioned stores and shard-routed indexes.
//!
//! The paper's repetitive support is a **per-sequence sum**: every instance
//! lives inside one sequence, so a database partitioned at sequence
//! boundaries answers any support query exactly by summing per-shard
//! answers — no approximation, no cross-shard instances. This module
//! provides the storage side of that observation:
//!
//! * [`ShardMap`] — the partition itself: `N` half-open sequence-id ranges,
//!   chosen by **event mass** (total events per shard), not sequence count,
//!   so skewed corpora still balance;
//! * [`ShardedSeqStore`] — the flat CSR [`SeqStore`] split into per-shard
//!   windows. After [`SeqStore::share`] every window's event arena is a
//!   zero-copy [`SharedSlice`](crate::SharedSlice) view into the parent
//!   arena;
//! * [`ShardedIndex`] — one event-major [`InvertedIndex`] per shard over
//!   the global alphabet, built in parallel, answering every query of the
//!   flat index API with **global** sequence ids (a single-shard instance
//!   routes with zero overhead, so the unsharded path is unchanged);
//! * [`EventRows`] — the growth passes' forward-only row handle for one
//!   event, crossing shard boundaries without allocating.
//!
//! Each shard applies the dense/sparse rule
//! ([`dense_rule`](crate::index::dense_rule)) to its own sequences, so an
//! event can be dense in one shard and sparse in the next; the posting
//! lists themselves are exactly the corresponding lists of the global
//! index, so every routed query returns bit-identical answers — which is
//! what makes sharded mining bit-identical to unsharded mining upstream in
//! `rgs-core`.

use crate::cast::{u32_to_usize, usize_to_u32};
use crate::catalog::EventId;
use crate::index::{gallop, EventView, InvertedIndex, PostingCursor};
use crate::store::SeqStore;

/// Narrows a sequence count/boundary to the `u32` a [`ShardMap`] stores,
/// failing loudly (instead of wrapping) past the documented store ceiling.
fn seq_id_u32(n: usize) -> u32 {
    let narrowed = usize_to_u32(n);
    assert!(
        narrowed.is_some(),
        "shard maps hold u32 sequence ids: more than u32::MAX sequences"
    );
    narrowed.unwrap_or(u32::MAX) // unreachable fallback: asserted Some above
}

/// A partition of `0..num_sequences` into consecutive half-open ranges.
///
/// `bounds` has one entry per shard plus a trailing sentinel: shard `k`
/// covers sequences `bounds[k]..bounds[k + 1]`. Invariants: starts at 0,
/// monotone non-decreasing (empty shards are allowed), ends at the sequence
/// count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    bounds: Vec<u32>,
}

impl ShardMap {
    /// The trivial single-shard map over `num_sequences` sequences.
    pub fn single(num_sequences: usize) -> Self {
        Self {
            bounds: vec![0, seq_id_u32(num_sequences)],
        }
    }

    /// Builds a map from explicit boundaries, validating every invariant;
    /// the error string names the violated one.
    pub fn from_bounds(bounds: Vec<u32>, num_sequences: usize) -> Result<Self, String> {
        if bounds.len() < 2 {
            return Err(format!(
                "shard map holds {} boundaries, needs at least 2",
                bounds.len()
            ));
        }
        if bounds.first() != Some(&0) {
            return Err(format!(
                "shard map starts at {}, not 0",
                bounds.first().copied().unwrap_or(0)
            ));
        }
        if let Some((a, b)) = bounds
            .iter()
            .zip(bounds.iter().skip(1))
            .find(|(a, b)| a > b)
        {
            return Err(format!("shard map boundaries are not monotone ({a} > {b})"));
        }
        let last = u32_to_usize(bounds.last().copied().unwrap_or(0));
        if last != num_sequences {
            return Err(format!(
                "shard map ends at {last} but the store holds {num_sequences} sequences"
            ));
        }
        Ok(Self { bounds })
    }

    /// Partitions by **event mass**: boundary `k` is placed where the
    /// cumulative event count first reaches `k/n` of the total, using the
    /// store's CSR `offsets` table (which *is* the cumulative event count).
    /// Deterministic for a given store; shards of a skewed corpus come out
    /// byte-balanced rather than row-balanced. `shards` is clamped to
    /// `[1, max(1, num_sequences)]`.
    pub fn by_event_mass(offsets: &[u32], shards: usize) -> Self {
        let num_sequences = offsets.len().saturating_sub(1);
        let last_seq = seq_id_u32(num_sequences);
        let shards = shards.clamp(1, num_sequences.max(1));
        let total = u64::from(*offsets.last().unwrap_or(&0));
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0u32);
        for k in 1..shards {
            let ideal = total * crate::cast::usize_to_u64(k) / crate::cast::usize_to_u64(shards);
            let cut = offsets.partition_point(|&o| u64::from(o) < ideal);
            // `cut <= offsets.len() - 1 = num_sequences` once clamped, and
            // `num_sequences` fits u32 (checked above).
            let cut = usize_to_u32(cut).unwrap_or(last_seq);
            let prev = bounds.last().copied().unwrap_or(0);
            bounds.push(cut.clamp(prev, last_seq));
        }
        bounds.push(last_seq);
        Self { bounds }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total number of sequences covered by the map.
    pub fn num_sequences(&self) -> usize {
        u32_to_usize(self.bounds.last().copied().unwrap_or(0))
    }

    /// The sequence-id range of shard `k`, empty when `k` is out of range.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        match (self.bounds.get(shard), self.bounds.get(shard + 1)) {
            (Some(&start), Some(&end)) => u32_to_usize(start)..u32_to_usize(end),
            _ => 0..0,
        }
    }

    /// The first global sequence id of shard `k` (the offset added to
    /// shard-local ids), or 0 when `k` is out of range.
    pub fn seq_base(&self, shard: usize) -> usize {
        self.bounds.get(shard).map_or(0, |&b| u32_to_usize(b))
    }

    /// The shard containing global sequence `seq`, or `None` when out of
    /// range. With empty shards present, the *last* shard whose range
    /// contains `seq` wins — consistent with [`ShardMap::range`] since
    /// empty ranges contain nothing.
    pub fn shard_of(&self, seq: usize) -> Option<usize> {
        if seq >= self.num_sequences() {
            return None;
        }
        // In range (checked above), so it fits the u32 boundary width.
        let seq = usize_to_u32(seq)?;
        // First boundary strictly greater than seq, minus one; `bounds[0]`
        // is 0 <= seq, so the partition point is at least 1.
        self.bounds.partition_point(|&b| b <= seq).checked_sub(1)
    }

    /// The raw boundaries (one per shard plus a sentinel).
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
    }
}

/// A flat CSR [`SeqStore`] split into per-shard windows at sequence
/// boundaries.
///
/// The full store is kept alongside the windows (after
/// [`SeqStore::share`] the windows alias its arena, so this costs one
/// offsets table, not a copy of the events) — it serves whole-database
/// reads and is what [`ShardedSeqStore::rebalance`] re-partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedSeqStore {
    full: SeqStore,
    shards: Vec<SeqStore>,
    map: ShardMap,
}

impl ShardedSeqStore {
    /// Splits `store` into `shards` windows at event-mass-balanced sequence
    /// boundaries. The store's columns are promoted to shared storage
    /// first, so every window's event arena is a zero-copy view.
    pub fn from_store(mut store: SeqStore, shards: usize) -> Self {
        store.share();
        let map = ShardMap::by_event_mass(store.offsets(), shards);
        Self::from_store_with_map(store, map)
    }

    /// Splits an (already shared) store along an explicit map.
    pub fn from_store_with_map(store: SeqStore, map: ShardMap) -> Self {
        assert_eq!(
            map.num_sequences(),
            store.num_sequences(),
            "shard map covers {} sequences but the store holds {}",
            map.num_sequences(),
            store.num_sequences()
        );
        let shards = (0..map.num_shards())
            .map(|k| store.window(map.range(k)))
            .collect();
        Self {
            full: store,
            shards,
            map,
        }
    }

    /// Reassembles a sharded store from already-validated parts (the
    /// snapshot loader's constructor). The windows must renumber their
    /// sequences locally and concatenate, in map order, to exactly `full`;
    /// the error string names the violated invariant.
    pub fn from_parts(
        full: SeqStore,
        shards: Vec<SeqStore>,
        map: ShardMap,
    ) -> Result<Self, String> {
        if shards.len() != map.num_shards() {
            return Err(format!(
                "{} shard stores but the map describes {} shards",
                shards.len(),
                map.num_shards()
            ));
        }
        if map.num_sequences() != full.num_sequences() {
            return Err(format!(
                "shard map covers {} sequences but the store holds {}",
                map.num_sequences(),
                full.num_sequences()
            ));
        }
        for (k, shard) in shards.iter().enumerate() {
            let range = map.range(k);
            if shard.num_sequences() != range.len() {
                return Err(format!(
                    "shard {k} holds {} sequences but its range {range:?} spans {}",
                    shard.num_sequences(),
                    range.len()
                ));
            }
            let expected: usize = range.clone().map(|s| full.seq_len(s)).sum();
            if shard.total_length() != expected {
                return Err(format!(
                    "shard {k} holds {} events but range {range:?} of the store holds {expected}",
                    shard.total_length()
                ));
            }
        }
        Ok(Self { full, shards, map })
    }

    /// Re-partitions the same store into `shards` event-mass-balanced
    /// windows — the rebalance path after skewed appends or a changed
    /// deployment size. Zero-copy: windows are re-derived from the shared
    /// full store.
    pub fn rebalance(&self, shards: usize) -> Self {
        Self::from_store(self.full.clone(), shards)
    }

    /// The underlying flat store (all shards concatenated).
    pub fn full(&self) -> &SeqStore {
        &self.full
    }

    /// The per-shard store windows, in shard order.
    pub fn shards(&self) -> &[SeqStore] {
        &self.shards
    }

    /// The window of shard `k`.
    ///
    /// # Panics
    ///
    /// Panics when `k >= num_shards()`.
    pub fn shard(&self, k: usize) -> &SeqStore {
        // Documented panic on an out-of-range shard id at the API
        // boundary; never called from a mining loop.
        // audit:allow(indexing): see above
        &self.shards[k]
    }

    /// The sequence-boundary partition.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Bytes of the per-shard window tables **in addition to** the full
    /// store: the windows alias the shared event arena, so only their
    /// (possibly rebased) offsets columns and the shard map are extra.
    pub fn window_overhead_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| (s.num_sequences() + 1) * std::mem::size_of::<u32>())
            .sum::<usize>()
            + std::mem::size_of_val(self.map.bounds())
    }
}

/// One event-major [`InvertedIndex`] per shard over the **global**
/// alphabet, answering the flat index's query API with global sequence ids.
///
/// Shard `k` indexes the sequences `map.range(k)` renumbered to
/// `0..range.len()`; a global query locates the shard through a
/// precomputed per-sequence routing table (O(1), one 4-byte load — the
/// `next` call this sits under is *the* hot operation of instance growth)
/// and offsets the id. Posting lists are identical to the global index's,
/// so every routed answer is bit-identical — the property the
/// sharded-equivalence suite pins end to end.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    shards: Vec<InvertedIndex>,
    map: ShardMap,
    /// `seq_shard[seq]` = shard owning global sequence `seq` (derived from
    /// `map`; 4 bytes per sequence, rebuilt on open, never serialized).
    seq_shard: Vec<u32>,
    num_events: usize,
}

impl PartialEq for ShardedIndex {
    fn eq(&self, other: &Self) -> bool {
        // `seq_shard` is derived from `map` (and lazily absent on the
        // single-shard fast path), so it carries no information of its own.
        self.shards == other.shards && self.map == other.map && self.num_events == other.num_events
    }
}

impl Eq for ShardedIndex {}

/// Expands a [`ShardMap`] into the per-sequence routing table.
fn routing_table(map: &ShardMap) -> Vec<u32> {
    let mut table = vec![0u32; map.num_sequences()];
    for shard in 0..map.num_shards() {
        // `num_shards <= num_sequences + 1` and ranges stay inside
        // `0..num_sequences` by the map invariants.
        let id = usize_to_u32(shard).unwrap_or(u32::MAX);
        if let Some(slots) = table.get_mut(map.range(shard)) {
            for slot in slots {
                *slot = id;
            }
        }
    }
    table
}

/// Below this many total events, [`ShardedIndex::build`] always builds its
/// shard indexes inline even when asked for threads: spawning scoped
/// workers costs tens of microseconds, while a two-pass index build over a
/// corpus this small finishes in single-digit microseconds per shard
/// (BENCH_shard.json measured `prepare_speedup: 0.451` — a 2.2× *slowdown* —
/// on a 10k-event corpus before this cutoff existed).
pub const PARALLEL_BUILD_MIN_EVENTS: usize = 1 << 16;

impl ShardedIndex {
    /// Wraps a flat index as a single shard (zero routing overhead).
    pub fn single(index: InvertedIndex) -> Self {
        let map = ShardMap::single(index.num_sequences());
        let num_events = index.num_events();
        Self {
            shards: vec![index],
            // The single-shard fast path never consults the table.
            seq_shard: Vec::new(),
            map,
            num_events,
        }
    }

    /// Builds one index per shard of `store`, on up to `threads` worker
    /// threads (shards are independent two-pass builds over disjoint
    /// windows). `threads <= 1` builds inline, as does any store below
    /// [`PARALLEL_BUILD_MIN_EVENTS`] total events (thread spawn overhead
    /// dwarfs the build at that scale). The result is identical regardless
    /// of thread count.
    pub fn build(store: &ShardedSeqStore, num_events: usize, threads: usize) -> Self {
        let map = store.map().clone();
        let shards = store.shards();
        let threads = threads.clamp(1, shards.len().max(1));
        let tiny = store.full().total_length() < PARALLEL_BUILD_MIN_EVENTS;
        let indexes: Vec<InvertedIndex> = if threads <= 1 || shards.len() <= 1 || tiny {
            shards
                .iter()
                .map(|s| InvertedIndex::build_for_store(s, num_events))
                .collect()
        } else {
            let next = std::sync::atomic::AtomicUsize::new(0);
            let mut indexed: Vec<(usize, InvertedIndex)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut out = Vec::new();
                            loop {
                                let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                let Some(shard) = shards.get(k) else {
                                    break;
                                };
                                out.push((k, InvertedIndex::build_for_store(shard, num_events)));
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| {
                        let joined = h.join();
                        assert!(joined.is_ok(), "index build worker panicked");
                        joined.unwrap_or_default()
                    })
                    .collect()
            });
            indexed.sort_unstable_by_key(|(k, _)| *k);
            indexed.into_iter().map(|(_, index)| index).collect()
        };
        Self {
            shards: indexes,
            seq_shard: routing_table(&map),
            map,
            num_events,
        }
    }

    /// Reassembles a sharded index from already-validated parts (the
    /// snapshot loader's constructor); the error string names the violated
    /// invariant.
    pub fn from_parts(
        shards: Vec<InvertedIndex>,
        map: ShardMap,
        num_events: usize,
    ) -> Result<Self, String> {
        if shards.len() != map.num_shards() {
            return Err(format!(
                "{} shard indexes but the map describes {} shards",
                shards.len(),
                map.num_shards()
            ));
        }
        for (k, index) in shards.iter().enumerate() {
            if index.num_events() != num_events {
                return Err(format!(
                    "shard {k} indexes {} events, expected {num_events}",
                    index.num_events()
                ));
            }
            if index.num_sequences() != map.range(k).len() {
                return Err(format!(
                    "shard {k} indexes {} sequences but its range spans {}",
                    index.num_sequences(),
                    map.range(k).len()
                ));
            }
        }
        Ok(Self {
            shards,
            seq_shard: routing_table(&map),
            map,
            num_events,
        })
    }

    /// Routes a global sequence id to `(shard, local sequence id)`.
    #[inline]
    fn locate(&self, seq: usize) -> Option<(usize, usize)> {
        if self.shards.len() == 1 {
            // Unsharded fast path: not even a table load.
            return (seq < self.map.num_sequences()).then_some((0, seq));
        }
        let shard = u32_to_usize(*self.seq_shard.get(seq)?);
        Some((shard, seq - self.map.seq_base(shard)))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard indexes, in shard order.
    pub fn shards(&self) -> &[InvertedIndex] {
        &self.shards
    }

    /// The index of shard `k`.
    ///
    /// # Panics
    ///
    /// Panics when `k >= num_shards()`.
    pub fn shard(&self, k: usize) -> &InvertedIndex {
        // Documented panic on an out-of-range shard id at the API
        // boundary; never called from a mining loop.
        // audit:allow(indexing): see above
        &self.shards[k]
    }

    /// The sequence-boundary partition the routing uses.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of sequences covered (sum over shards).
    pub fn num_sequences(&self) -> usize {
        self.map.num_sequences()
    }

    /// Number of distinct events in the (global) alphabet.
    pub fn num_events(&self) -> usize {
        self.num_events
    }

    /// The `next(S, e, lowest)` subroutine with a global sequence id: the
    /// smallest 1-based position `l` in sequence `seq` with `l > lowest`
    /// and `S[l] = event` (see [`InvertedIndex::next`]).
    #[inline]
    pub fn next(&self, seq: usize, event: EventId, lowest: u32) -> Option<u32> {
        let (shard, local) = self.locate(seq)?;
        self.shards.get(shard)?.next(local, event, lowest)
    }

    /// All positions of `event` in global sequence `seq`, sorted ascending.
    ///
    /// Routing is one table load; the row lookup is direct on a dense
    /// event and a binary search over the ids on a sparse one.
    #[inline]
    pub fn event_positions(&self, seq: usize, event: EventId) -> Option<&[u32]> {
        let (shard, local) = self.locate(seq)?;
        self.shards.get(shard)?.event_positions(local, event)
    }

    /// Resolves the posting row of `(seq, event)` once — one routing-table
    /// load plus one row lookup — and returns a monotone [`PostingCursor`]
    /// over it. Growth passes, which fix the event and walk sequences in
    /// ascending order, resolve rows through [`Self::event_rows`] instead.
    #[inline]
    pub fn cursor(&self, seq: usize, event: EventId) -> Option<PostingCursor<'_>> {
        let (shard, local) = self.locate(seq)?;
        self.shards.get(shard)?.cursor(local, event)
    }

    /// A forward-only row handle for `event`: [`EventRows::row`] resolves
    /// the posting row of each sequence a growth pass visits, in ascending
    /// sequence order, without allocating — one add and two loads on a
    /// dense event, a forward gallop along the ids on a sparse one.
    #[inline]
    pub fn event_rows(&self, event: EventId) -> EventRows<'_> {
        // Shard 0 is loaded up front (an empty one is skipped on first use).
        let first = self.shards.first();
        EventRows {
            index: self,
            event,
            start: 0,
            len: first.map_or(0, InvertedIndex::num_sequences),
            view: first.map(|shard| shard.view(event)).unwrap_or_default(),
            at: 0,
            runs: None,
            #[cfg(debug_assertions)]
            prev_seq: 0,
        }
    }

    /// Number of occurrences of `event` in global sequence `seq`.
    pub fn count_in_sequence(&self, seq: usize, event: EventId) -> usize {
        self.event_positions(seq, event).map_or(0, <[u32]>::len)
    }

    /// Total occurrences of `event` across the whole database (the
    /// repetitive support of the single-event pattern).
    pub fn total_count(&self, event: EventId) -> usize {
        self.shards.iter().map(|s| s.total_count(event)).sum()
    }

    /// Total occurrence counts of every event in one pass over the shards;
    /// entry `i` is [`Self::total_count`] of `EventId(i)`.
    pub fn total_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_events];
        for shard in &self.shards {
            for (total, partial) in counts.iter_mut().zip(shard.total_counts()) {
                *total += partial;
            }
        }
        counts
    }

    /// Number of sequences in which `event` occurs at least once.
    pub fn sequence_count(&self, event: EventId) -> usize {
        self.shards.iter().map(|s| s.sequence_count(event)).sum()
    }

    /// Iterates over the sequences containing `event` — **global** ids,
    /// ascending — with the sorted position list of each (a slice into the
    /// owning shard's arena). Shard-local iteration concatenated in shard
    /// order is exactly global ascending order, so this matches the flat
    /// index's iteration bit for bit.
    pub fn sequences_with_event(
        &self,
        event: EventId,
    ) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        self.shards.iter().enumerate().flat_map(move |(k, shard)| {
            let base = self.map.seq_base(k);
            shard
                .sequences_with_event(event)
                .map(move |(local, positions)| (base + local, positions))
        })
    }

    /// Shard-scoped variant of [`Self::sequences_with_event`]: only the
    /// sequences of shard `k`, still with global ids. This is what the
    /// two-level (shard × seed) work queue fans out over.
    pub fn shard_sequences_with_event(
        &self,
        shard: usize,
        event: EventId,
    ) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        let base = self.map.seq_base(shard);
        self.shard(shard)
            .sequences_with_event(event)
            .map(move |(local, positions)| (base + local, positions))
    }

    /// Bytes of live data held across all shard indexes (every column of
    /// every shard).
    pub fn heap_bytes(&self) -> usize {
        self.shards.iter().map(InvertedIndex::heap_bytes).sum()
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
        let mut set = Self {
            base: 0,
            span: 0,
            words: [0; RUN_SET_SPAN / 64],
        };
        let (Some(base), Some(last)) = (seqs.clone().next(), seqs.clone().next_back()) else {
            return set;
        };
        let span = last.saturating_sub(base) + 1;
        if span > RUN_SET_SPAN {
            return set;
        }
        (set.base, set.span) = (base, span);
        // Ascending input: build each word in a register, store it once.
        let (mut at, mut word) = (0usize, 0u64);
        for bit in seqs.map(|seq| seq.wrapping_sub(base)) {
            if bit / 64 != at {
                if let Some(slot) = set.words.get_mut(at) {
                    *slot = word;
                }
                (at, word) = (bit / 64, 0);
            }
            word |= 1 << (bit % 64);
        }
        if let Some(slot) = set.words.get_mut(at) {
            *slot = word;
        }
        set
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

/// The rows of one event across every shard, resolved forward-only.
///
/// A growth pass fixes the event and visits instances in `(seq, last)`
/// order, so the sequences it asks for never decrease. The handle keeps the
/// current shard's view of the event and, on a sparse event, the first id not
/// yet passed: each lookup gallops forward from there instead of
/// binary-searching the whole id list, and moving to the next shard is a
/// routing lookup, not an allocation. Sequences must be asked for in
/// non-decreasing order (checked in debug builds); asking for the same
/// sequence again is fine.
#[derive(Debug, Clone)]
pub struct EventRows<'a> {
    index: &'a ShardedIndex,
    event: EventId,
    /// The loaded shard covers global sequences `start..start + len`.
    start: usize,
    len: usize,
    view: EventView<'a>,
    /// Sparse views: index of the first id not below the last lookup.
    at: usize,
    /// The sequences the pass asks for, when lent ([`Self::restrict`]).
    runs: Option<&'a RunSet>,
    /// Monotonicity guard: lookups must use non-decreasing sequences.
    #[cfg(debug_assertions)]
    prev_seq: usize,
}

impl<'a> EventRows<'a> {
    /// The positions of the handle's event in global sequence `seq` —
    /// empty when it does not occur there — or `None` when `seq` is out of
    /// range. Equal to [`ShardedIndex::event_positions`] for every `seq`
    /// asked in non-decreasing order.
    #[inline]
    pub fn row(&mut self, seq: usize) -> Option<&'a [u32]> {
        if seq >= self.index.num_sequences() {
            return None;
        }
        Some(match self.next_row(seq) {
            Some((at, row)) if at == seq => row,
            _ => &[],
        })
    }

    /// The first sequence at or after global sequence `seq` whose row may
    /// hold the handle's event, with that row; `None` when no later
    /// sequence holds it.
    ///
    /// A dense event answers `seq` itself with one add and two loads (its
    /// row may be empty). A sparse event answers the next sequence that
    /// holds it, found by galloping forward along its ids — so a growth
    /// pass skips every run in between without looking each one up — and,
    /// after [`Self::restrict`], the next such sequence the set admits.
    #[inline(always)]
    pub fn next_row(&mut self, mut seq: usize) -> Option<(usize, &'a [u32])> {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                seq >= self.prev_seq,
                "EventRows lookups must use non-decreasing sequences ({seq} after {})",
                self.prev_seq
            );
            self.prev_seq = seq;
        }
        loop {
            let mut local = seq.wrapping_sub(self.start);
            if local >= self.len {
                self.load(seq)?;
                local = seq - self.start;
            }
            let ids = self.view.ids;
            if ids.is_empty() {
                if self.view.has_rows() {
                    return Some((seq, self.view.row(local)));
                }
            } else {
                // `local < len <= num_sequences`, which fits u32.
                let target = usize_to_u32(local).unwrap_or(u32::MAX);
                self.at += gallop(ids.get(self.at..).unwrap_or(&[]), |id| id < target);
                while let Some(&id) = ids.get(self.at) {
                    let hit = self.start + u32_to_usize(id);
                    if self.runs.is_none_or(|runs| runs.admits(hit)) {
                        return Some((hit, self.view.row(self.at)));
                    }
                    self.at += 1;
                }
            }
            // No row at or after `seq` in this shard: try the next one.
            seq = self.start + self.len;
        }
    }

    /// Tells the handle which sequences the pass will ask for: from then on
    /// [`Self::next_row`] passes a sparse event's ids outside `runs` with one
    /// bit test each. Only a filter — rows of the sequences in `runs` stay
    /// exact; a dense event ignores it.
    #[inline]
    pub fn restrict(&mut self, runs: &'a RunSet) {
        self.runs = Some(runs);
    }

    /// Loads the shard owning `seq`; `None` when `seq` is out of range.
    #[cold]
    fn load(&mut self, seq: usize) -> Option<()> {
        let index = self.index;
        let (shard, local) = index.locate(seq)?;
        let loaded = index.shards.get(shard)?;
        self.start = seq - local;
        self.len = loaded.num_sequences();
        self.view = loaded.view(self.event);
        self.at = 0;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::SequenceDatabase;

    fn db() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&[
            "ABCACBDDB",
            "ACDBACADD",
            "AAAA",
            "BC",
            "DDDDDDDD",
            "ABAB",
            "C",
        ])
    }

    #[test]
    fn event_mass_partition_balances_bytes_not_rows() {
        // One huge sequence followed by many tiny ones: a row-count split
        // would put the huge one plus half the tiny ones in shard 0.
        let rows: Vec<String> = std::iter::once("A".repeat(100))
            .chain((0..10).map(|_| "B".to_string()))
            .collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let store = SequenceDatabase::from_str_rows(&refs).store().clone();
        let map = ShardMap::by_event_mass(store.offsets(), 2);
        assert_eq!(map.num_shards(), 2);
        // The huge sequence alone is shard 0; all tiny rows are shard 1.
        assert_eq!(map.range(0), 0..1);
        assert_eq!(map.range(1), 1..11);
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
    fn shard_map_invariants_and_routing() {
        let map = ShardMap::from_bounds(vec![0, 2, 2, 5], 5).expect("valid");
        assert_eq!(map.num_shards(), 3);
        assert_eq!(map.num_sequences(), 5);
        assert_eq!(map.range(1), 2..2);
        assert_eq!(map.shard_of(0), Some(0));
        assert_eq!(map.shard_of(1), Some(0));
        assert_eq!(map.shard_of(2), Some(2));
        assert_eq!(map.shard_of(4), Some(2));
        assert_eq!(map.shard_of(5), None);
        assert_eq!(map.seq_base(2), 2);

        assert!(ShardMap::from_bounds(vec![1, 5], 5).is_err());
        assert!(ShardMap::from_bounds(vec![0, 3, 2, 5], 5).is_err());
        assert!(ShardMap::from_bounds(vec![0, 4], 5).is_err());
        assert!(ShardMap::from_bounds(vec![0], 5).is_err());
    }

    #[test]
    fn clamping_handles_degenerate_shard_counts() {
        let map = ShardMap::by_event_mass(&[0], 4);
        assert_eq!(map.num_shards(), 1);
        assert_eq!(map.num_sequences(), 0);
        let map = ShardMap::by_event_mass(&[0, 3, 5], 99);
        assert_eq!(map.num_shards(), 2);
        let map = ShardMap::by_event_mass(&[0, 3, 5], 0);
        assert_eq!(map.num_shards(), 1);
    }

    #[test]
    fn sharded_store_windows_reassemble_the_database() {
        let store = db().store().clone();
        let total = store.total_length();
        for shards in [1, 2, 3, 7] {
            let sharded = ShardedSeqStore::from_store(store.clone(), shards);
            assert_eq!(sharded.num_shards(), shards);
            assert_eq!(
                sharded
                    .shards()
                    .iter()
                    .map(SeqStore::total_length)
                    .sum::<usize>(),
                total
            );
            // Window k sequence j == full sequence (base + j).
            for k in 0..shards {
                let base = sharded.map().seq_base(k);
                for (j, view) in sharded.shard(k).iter().enumerate() {
                    assert_eq!(view, sharded.full().view(base + j).unwrap());
                }
            }
            // Windows alias the shared full arena (zero copy), at the
            // parent's width (a str-rows alphabet is always narrow).
            for (k, shard) in sharded.shards().iter().enumerate() {
                if shard.total_length() > 0 {
                    let base = sharded.full().offsets()[sharded.map().seq_base(k)] as usize;
                    assert_eq!(
                        shard.event_column().narrow_slice().unwrap().as_ptr(),
                        sharded.full().event_column().narrow_slice().unwrap()[base..].as_ptr(),
                        "shard {k} copied its events"
                    );
                }
            }
            assert!(sharded.window_overhead_bytes() > 0);
        }
    }

    #[test]
    fn rebalance_repartitions_the_same_data() {
        let sharded = ShardedSeqStore::from_store(db().store().clone(), 2);
        let rebalanced = sharded.rebalance(3);
        assert_eq!(rebalanced.num_shards(), 3);
        assert_eq!(rebalanced.full(), sharded.full());
        let reunified = rebalanced.rebalance(1);
        assert_eq!(reunified.num_shards(), 1);
        assert_eq!(reunified.shard(0).offsets(), sharded.full().offsets());
    }

    #[test]
    fn sharded_index_answers_match_the_flat_index() {
        let db = db();
        let flat = db.inverted_index();
        for shards in [1, 2, 3, 7] {
            for threads in [1, 3] {
                let sharded_store = ShardedSeqStore::from_store(db.store().clone(), shards);
                let index = ShardedIndex::build(&sharded_store, db.num_events(), threads);
                assert_eq!(index.num_shards(), shards);
                assert_eq!(index.num_sequences(), flat.num_sequences());
                assert_eq!(index.num_events(), flat.num_events());
                assert_eq!(index.total_counts(), flat.total_counts());
                for event in db.catalog().ids() {
                    assert_eq!(index.total_count(event), flat.total_count(event));
                    assert_eq!(index.sequence_count(event), flat.sequence_count(event));
                    let routed: Vec<(usize, &[u32])> = index.sequences_with_event(event).collect();
                    let direct: Vec<(usize, &[u32])> = flat.sequences_with_event(event).collect();
                    assert_eq!(routed, direct);
                    for seq in 0..db.num_sequences() {
                        assert_eq!(
                            index.event_positions(seq, event),
                            flat.event_positions(seq, event)
                        );
                        let mut cursor = index.cursor(seq, event);
                        for lowest in 0..=10u32 {
                            assert_eq!(
                                index.next(seq, event, lowest),
                                flat.next(seq, event, lowest),
                                "next({seq}, {event:?}, {lowest}) diverges at {shards} shards"
                            );
                            // The routed cursor agrees probe by probe.
                            if let Some(cursor) = cursor.as_mut() {
                                assert_eq!(
                                    cursor.next_after(lowest),
                                    flat.next(seq, event, lowest)
                                );
                            }
                        }
                    }
                }
                // Out-of-range lookups stay None.
                assert_eq!(index.next(db.num_sequences(), EventId(0), 0), None);
                assert_eq!(index.event_positions(99, EventId(0)), None);
                assert!(index.cursor(99, EventId(0)).is_none());
            }
        }
    }

    #[test]
    fn shard_scoped_iteration_covers_each_sequence_once() {
        let db = db();
        let sharded_store = ShardedSeqStore::from_store(db.store().clone(), 3);
        let index = ShardedIndex::build(&sharded_store, db.num_events(), 1);
        let a = db.catalog().id("A").unwrap();
        let merged: Vec<usize> = (0..index.num_shards())
            .flat_map(|k| {
                index
                    .shard_sequences_with_event(k, a)
                    .map(|(seq, _)| seq)
                    .collect::<Vec<_>>()
            })
            .collect();
        let direct: Vec<usize> = index.sequences_with_event(a).map(|(s, _)| s).collect();
        assert_eq!(merged, direct);
    }

    #[test]
    fn from_parts_rejects_mismatched_shapes() {
        let db = db();
        let sharded_store = ShardedSeqStore::from_store(db.store().clone(), 2);
        let index = ShardedIndex::build(&sharded_store, db.num_events(), 1);
        let map = sharded_store.map().clone();

        assert!(ShardedIndex::from_parts(index.shards().to_vec(), map.clone(), 99).is_err());
        assert!(ShardedIndex::from_parts(
            vec![index.shard(0).clone()],
            map.clone(),
            db.num_events()
        )
        .is_err());
        assert!(ShardedSeqStore::from_parts(
            sharded_store.full().clone(),
            vec![sharded_store.shard(0).clone()],
            map
        )
        .is_err());
    }

    #[test]
    fn tiny_stores_build_identically_whatever_the_thread_count() {
        // Every corpus in this suite sits far below PARALLEL_BUILD_MIN_EVENTS,
        // so a threaded build request takes the inline path — and must still
        // produce exactly the same indexes as an explicit threads=1 build.
        let db = db();
        assert!(db.store().total_length() < PARALLEL_BUILD_MIN_EVENTS);
        let sharded_store = ShardedSeqStore::from_store(db.store().clone(), 3);
        let inline = ShardedIndex::build(&sharded_store, db.num_events(), 1);
        let threaded = ShardedIndex::build(&sharded_store, db.num_events(), 8);
        assert_eq!(inline, threaded);
    }

    #[test]
    fn single_shard_index_routes_with_identity() {
        let db = db();
        let index = ShardedIndex::single(db.inverted_index());
        assert_eq!(index.num_shards(), 1);
        let a = db.catalog().id("A").unwrap();
        assert_eq!(index.next(0, a, 0), db.inverted_index().next(0, a, 0));
        assert_eq!(index.heap_bytes(), db.inverted_index().heap_bytes());
    }
}
