//! SPAM-style sequential pattern mining with vertical position bitmaps
//! (Ayres, Flannick, Gehrke & Yiu, KDD 2002).
//!
//! SPAM is cited by the paper as one of the classical sequential pattern
//! miners it builds on top of (reference \[18\]). It mines the same patterns
//! as PrefixSpan — support is the number of sequences containing the pattern
//! as a gapped subsequence — but represents intermediate state as *vertical
//! bitmaps*: for each pattern and each sequence, a bitmap over sequence
//! positions marking where the pattern's last event can be matched.
//!
//! The sequence-extension step ("S-step") transforms a bitmap so that all
//! bits strictly after the first set bit are set, then intersects with the
//! extending event's bitmap. The crate implements the bitmap substrate in
//! [`PositionBitmap`] and the miner in [`mine_sequential_spam`]; tests check
//! it against the PrefixSpan implementation pattern for pattern.

use seqdb::{EventId, SequenceDatabase};

use crate::prefixspan::{SequentialConfig, SequentialPattern};

/// A per-sequence position bitmap (1-based positions, bit `p - 1` set when
/// position `p` matches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionBitmap {
    words: Vec<u64>,
    len: usize,
}

impl PositionBitmap {
    /// An empty bitmap over a sequence of `len` positions.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of positions the bitmap covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Sets the bit of 1-based position `pos`.
    pub fn set(&mut self, pos: usize) {
        assert!(pos >= 1 && pos <= self.len, "position out of range");
        let idx = pos - 1;
        self.words[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Tests the bit of 1-based position `pos`.
    pub fn get(&self, pos: usize) -> bool {
        if pos == 0 || pos > self.len {
            return false;
        }
        let idx = pos - 1;
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The smallest 1-based set position, if any.
    pub fn first_set(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(i * 64 + w.trailing_zeros() as usize + 1);
            }
        }
        None
    }

    /// Bitwise AND with another bitmap of the same length.
    pub fn and(&self, other: &PositionBitmap) -> PositionBitmap {
        assert_eq!(self.len, other.len, "bitmap lengths differ");
        PositionBitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// The SPAM S-step transform: a bitmap with every position strictly
    /// greater than the first set position of `self` set (and nothing set
    /// when `self` is empty).
    pub fn s_step(&self) -> PositionBitmap {
        let mut result = PositionBitmap::new(self.len);
        if let Some(first) = self.first_set() {
            for pos in (first + 1)..=self.len {
                result.set(pos);
            }
        }
        result
    }
}

/// The vertical representation of a database: for every event, one
/// [`PositionBitmap`] per sequence.
#[derive(Debug, Clone)]
pub struct VerticalDatabase {
    /// `bitmaps[event][sequence]`.
    bitmaps: Vec<Vec<PositionBitmap>>,
    num_sequences: usize,
}

impl VerticalDatabase {
    /// Builds the vertical bitmaps of `db`.
    pub fn build(db: &SequenceDatabase) -> Self {
        let num_events = db.catalog().len();
        let num_sequences = db.num_sequences();
        let mut bitmaps: Vec<Vec<PositionBitmap>> = (0..num_events)
            .map(|_| {
                db.sequences()
                    .map(|s| PositionBitmap::new(s.len()))
                    .collect()
            })
            .collect();
        for (seq_idx, sequence) in db.sequences().enumerate() {
            for (pos, event) in sequence.iter_positions() {
                bitmaps[event.index()][seq_idx].set(pos);
            }
        }
        Self {
            bitmaps,
            num_sequences,
        }
    }

    /// The bitmaps of one event (indexed by sequence).
    pub fn event(&self, event: EventId) -> &[PositionBitmap] {
        &self.bitmaps[event.index()]
    }

    /// Number of sequences.
    pub fn num_sequences(&self) -> usize {
        self.num_sequences
    }

    /// The sequence-count support of a pattern bitmap set (number of
    /// sequences whose bitmap is non-empty).
    pub fn support(pattern_bitmaps: &[PositionBitmap]) -> u64 {
        pattern_bitmaps.iter().filter(|b| !b.is_empty()).count() as u64
    }

    /// The S-step extension of a pattern's bitmaps with `event`.
    pub fn extend(
        &self,
        pattern_bitmaps: &[PositionBitmap],
        event: EventId,
    ) -> Vec<PositionBitmap> {
        pattern_bitmaps
            .iter()
            .zip(self.event(event))
            .map(|(p, e)| p.s_step().and(e))
            .collect()
    }
}

/// Mines all frequent sequential patterns (sequence-count support) with the
/// SPAM bitmap algorithm. The output agrees with
/// [`crate::prefixspan::mine_sequential`]; only the internal representation
/// differs.
pub fn mine_sequential_spam(
    db: &SequenceDatabase,
    config: &SequentialConfig,
) -> Vec<SequentialPattern> {
    let vertical = VerticalDatabase::build(db);
    let min_sup = config.min_sup.max(1);
    let frequent_events: Vec<EventId> = db
        .catalog()
        .ids()
        .filter(|&e| VerticalDatabase::support(vertical.event(e)) >= min_sup)
        .collect();
    let mut result = Vec::new();
    let mut truncated = false;
    for &event in &frequent_events {
        if truncated {
            break;
        }
        descend(
            &vertical,
            config,
            &frequent_events,
            &[event],
            vertical.event(event),
            &mut result,
            &mut truncated,
        );
    }
    result
}

#[allow(
    clippy::too_many_arguments,
    reason = "the recursion threads its whole search state"
)]
fn descend(
    vertical: &VerticalDatabase,
    config: &SequentialConfig,
    frequent_events: &[EventId],
    pattern: &[EventId],
    bitmaps: &[PositionBitmap],
    result: &mut Vec<SequentialPattern>,
    truncated: &mut bool,
) {
    let support = VerticalDatabase::support(bitmaps);
    if support < config.min_sup.max(1) {
        return;
    }
    result.push(SequentialPattern {
        events: pattern.to_vec(),
        support,
    });
    if let Some(cap) = config.max_patterns {
        if result.len() >= cap {
            *truncated = true;
            return;
        }
    }
    if config
        .max_pattern_length
        .is_some_and(|max| pattern.len() >= max)
    {
        return;
    }
    for &event in frequent_events {
        if *truncated {
            return;
        }
        let extended = vertical.extend(bitmaps, event);
        let mut grown = pattern.to_vec();
        grown.push(event);
        descend(
            vertical,
            config,
            frequent_events,
            &grown,
            &extended,
            result,
            truncated,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefixspan::mine_sequential;
    use std::collections::BTreeMap;

    fn pattern_map(patterns: &[SequentialPattern]) -> BTreeMap<Vec<EventId>, u64> {
        patterns
            .iter()
            .map(|p| (p.events.clone(), p.support))
            .collect()
    }

    #[test]
    fn bitmap_basics() {
        let mut b = PositionBitmap::new(130);
        assert!(b.is_empty());
        assert_eq!(b.first_set(), None);
        b.set(1);
        b.set(64);
        b.set(65);
        b.set(130);
        assert_eq!(b.count(), 4);
        assert!(b.get(64) && b.get(65) && b.get(130));
        assert!(!b.get(2) && !b.get(131));
        assert_eq!(b.first_set(), Some(1));
        assert_eq!(b.len(), 130);
    }

    #[test]
    #[should_panic(expected = "position out of range")]
    fn setting_out_of_range_positions_panics() {
        PositionBitmap::new(4).set(5);
    }

    #[test]
    fn s_step_sets_everything_after_the_first_match() {
        let mut b = PositionBitmap::new(8);
        b.set(3);
        b.set(6);
        let stepped = b.s_step();
        assert!(!stepped.get(1) && !stepped.get(2) && !stepped.get(3));
        assert!(stepped.get(4) && stepped.get(5) && stepped.get(8));
        assert!(PositionBitmap::new(5).s_step().is_empty());
    }

    #[test]
    fn and_intersects_bitmaps() {
        let mut a = PositionBitmap::new(70);
        let mut b = PositionBitmap::new(70);
        a.set(1);
        a.set(69);
        b.set(69);
        b.set(70);
        let c = a.and(&b);
        assert_eq!(c.count(), 1);
        assert!(c.get(69));
    }

    #[test]
    fn spam_agrees_with_prefixspan_on_example_databases() {
        for rows in [
            vec!["AABCDABB", "ABCD"],
            vec!["ABCABCA", "AABBCCC"],
            vec!["ABCACBDDB", "ACDBACADD"],
            vec!["ABAB", "BABA", "AABB", "BBAA"],
        ] {
            let db = SequenceDatabase::from_str_rows(&rows);
            for min_sup in [1, 2, 3] {
                let config = SequentialConfig::new(min_sup);
                let spam = pattern_map(&mine_sequential_spam(&db, &config));
                let prefix = pattern_map(&mine_sequential(&db, &config));
                assert_eq!(spam, prefix, "rows {rows:?} min_sup {min_sup}");
            }
        }
    }

    #[test]
    fn example_1_1_sequence_count_support_is_two_for_ab_and_cd() {
        let db = SequenceDatabase::from_str_rows(&["AABCDABB", "ABCD"]);
        let mined = mine_sequential_spam(&db, &SequentialConfig::new(2));
        let ab = db.pattern_from_str("AB").unwrap();
        let cd = db.pattern_from_str("CD").unwrap();
        let map = pattern_map(&mined);
        assert_eq!(map.get(&ab), Some(&2));
        assert_eq!(map.get(&cd), Some(&2));
    }

    #[test]
    fn caps_on_length_and_pattern_count_are_respected() {
        let db = SequenceDatabase::from_str_rows(&["ABCABCA", "AABBCCC"]);
        let capped =
            mine_sequential_spam(&db, &SequentialConfig::new(1).with_max_pattern_length(2));
        assert!(capped.iter().all(|p| p.events.len() <= 2));
        let truncated = mine_sequential_spam(&db, &SequentialConfig::new(1).with_max_patterns(4));
        assert_eq!(truncated.len(), 4);
    }

    #[test]
    fn empty_database_yields_no_patterns() {
        let db = SequenceDatabase::new();
        assert!(mine_sequential_spam(&db, &SequentialConfig::new(1)).is_empty());
    }
}
