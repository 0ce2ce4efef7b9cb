//! Sequence-boundary work ranges over the one inverted index.
//!
//! The paper's repetitive support is a **per-sequence sum**: every instance
//! lives inside one sequence, so splitting a database at sequence
//! boundaries answers any support query exactly by summing per-range
//! answers — no approximation, no cross-range instances. The split needs
//! no storage of its own: the store and the event-major
//! [`InvertedIndex`](crate::InvertedIndex) already address sequences by
//! global id, and iterating one range of an event's sequences is a slice of
//! its dense rows or a `partition_point` over its sparse ids
//! ([`InvertedIndex::sequences_with_event_in`](crate::InvertedIndex::sequences_with_event_in)).
//!
//! [`ShardMap`] is therefore only the partition itself: `N` half-open
//! sequence-id ranges, chosen by **event mass** (total events per range),
//! not sequence count, so skewed corpora still balance. Parallel runs in
//! `rgs-core` hand out one `(seed, range)` work unit per pair.

use crate::cast::{u32_to_usize, usize_to_u32};

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

    /// The raw boundaries (one per shard plus a sentinel).
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
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
    fn shard_map_invariants_and_routing() {
        let map = ShardMap::from_bounds(vec![0, 2, 2, 5], 5).expect("valid");
        assert_eq!(map.num_shards(), 3);
        assert_eq!(map.num_sequences(), 5);
        assert_eq!(map.range(0), 0..2);
        assert_eq!(map.range(1), 2..2);
        assert_eq!(map.range(2), 2..5);
        assert_eq!(map.range(3), 0..0);

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
    fn map_ranges_of_the_one_index_match_its_whole_answers() {
        let db = db();
        let index = db.inverted_index();
        for shards in [1, 2, 3, 7] {
            let map = ShardMap::by_event_mass(db.store().offsets(), shards);
            assert_eq!(map.num_shards(), shards);
            for event in db.catalog().ids() {
                for k in 0..map.num_shards() {
                    let range = map.range(k);
                    let ranged: Vec<(usize, &[u32])> = index
                        .sequences_with_event_in(event, range.clone())
                        .collect();
                    let filtered: Vec<(usize, &[u32])> = index
                        .sequences_with_event(event)
                        .filter(|(seq, _)| range.contains(seq))
                        .collect();
                    assert_eq!(ranged, filtered, "{event:?} in range {k} of {shards}");
                }
            }
        }
    }

    #[test]
    fn shard_scoped_iteration_covers_each_sequence_once() {
        let db = db();
        let index = db.inverted_index();
        let map = ShardMap::by_event_mass(db.store().offsets(), 3);
        let a = db.catalog().id("A").unwrap();
        let merged: Vec<usize> = (0..map.num_shards())
            .flat_map(|k| {
                index
                    .sequences_with_event_in(a, map.range(k))
                    .map(|(seq, _)| seq)
                    .collect::<Vec<_>>()
            })
            .collect();
        let direct: Vec<usize> = index.sequences_with_event(a).map(|(s, _)| s).collect();
        assert_eq!(merged, direct);
    }
}
