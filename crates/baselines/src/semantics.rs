//! Alternative occurrence/support semantics from the related-work
//! comparison (Table I of the paper).
//!
//! Each function computes the support of a pattern under the semantics of
//! one line of Table I, so the Example 1.1 comparison (`S1 = AABCDABB`,
//! `S2 = ABCD`, patterns `AB` and `CD`) can be reproduced number by number:
//!
//! | semantics | `sup(AB)` in the example |
//! |---|---|
//! | sequential pattern mining (sequence count) | 2 |
//! | episodes, width-4 windows (per `S1`) | 4 |
//! | episodes, minimal windows (per `S1`) | 2 |
//! | gap requirement 0..=3 (per `S1`) | 4 |
//! | interaction patterns (whole database) | 9 |
//! | iterative patterns (whole database) | 3 |
//! | repetitive support (this paper, whole database) | 4 |
//!
//! The counters are deliberately straightforward (polynomial scans); they
//! exist for semantic comparison and tests, not for large-scale mining.

use seqdb::{EventId, SeqView, SequenceDatabase};

/// Sequential pattern mining support: the number of sequences of `db` that
/// contain `pattern` as a (gapped) subsequence.
pub fn sequence_count_support(db: &SequenceDatabase, pattern: &[EventId]) -> u64 {
    db.sequences()
        .filter(|s| s.contains_subsequence(pattern))
        .count() as u64
}

/// Episode mining, definition (i) of the paper's related-work discussion:
/// the number of width-`width` windows (substrings of `width` consecutive
/// positions, fully inside the sequence) that contain `pattern` as a
/// subsequence.
pub fn episode_window_count(sequence: SeqView<'_>, pattern: &[EventId], width: usize) -> u64 {
    if pattern.is_empty() || width == 0 || sequence.len() < width {
        return 0;
    }
    let mut count = 0u64;
    for start in 1..=(sequence.len() - width + 1) {
        if window_contains(sequence, start, start + width - 1, pattern) {
            count += 1;
        }
    }
    count
}

/// Episode mining over a whole database: the sum of per-sequence window
/// counts.
pub fn episode_window_support(db: &SequenceDatabase, pattern: &[EventId], width: usize) -> u64 {
    db.sequences()
        .map(|s| episode_window_count(s, pattern, width))
        .sum()
}

/// Episode mining, definition (ii): the number of **minimal windows** of
/// `sequence` containing `pattern` — windows `[s, e]` that contain the
/// pattern as a subsequence while no proper sub-window does.
pub fn minimal_window_count(sequence: SeqView<'_>, pattern: &[EventId]) -> u64 {
    if pattern.is_empty() {
        return 0;
    }
    // For every end position where the last pattern event matches, find the
    // largest (latest) start such that the pattern fits in [start, end] with
    // its last event at `end`; that window is the tightest one ending there.
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for end in 1..=sequence.len() {
        if sequence.at(end) != Some(*pattern.last().expect("non-empty")) {
            continue;
        }
        if let Some(start) = latest_start_for_end(sequence, pattern, end) {
            candidates.push((start, end));
        }
    }
    // A candidate is a minimal window iff it does not strictly contain
    // another candidate.
    let minimal = candidates
        .iter()
        .filter(|&&(s, e)| {
            !candidates
                .iter()
                .any(|&(s2, e2)| (s2, e2) != (s, e) && s <= s2 && e2 <= e)
        })
        .count();
    minimal as u64
}

/// Minimal-window support over a whole database.
pub fn minimal_window_support(db: &SequenceDatabase, pattern: &[EventId]) -> u64 {
    db.sequences()
        .map(|s| minimal_window_count(s, pattern))
        .sum()
}

/// Gap-requirement semantics (periodic patterns with gap requirement): the
/// number of **all** occurrences (landmarks) of `pattern` in `sequence`
/// where every pair of consecutive positions has between `min_gap` and
/// `max_gap` events strictly between them. Overlapping occurrences all
/// count.
pub fn gap_constrained_count(
    sequence: SeqView<'_>,
    pattern: &[EventId],
    min_gap: usize,
    max_gap: usize,
) -> u64 {
    if pattern.is_empty() {
        return 0;
    }
    // Dynamic programming over positions: ways[j][pos] = number of
    // occurrences of pattern[..=j] ending exactly at `pos`.
    let len = sequence.len();
    let mut ways = vec![0u64; len + 1];
    #[allow(
        clippy::needless_range_loop,
        reason = "1-based positions mirror the paper's indexing"
    )]
    for pos in 1..=len {
        if sequence.at(pos) == Some(pattern[0]) {
            ways[pos] = 1;
        }
    }
    for &event in &pattern[1..] {
        let mut next = vec![0u64; len + 1];
        #[allow(
            clippy::needless_range_loop,
            reason = "1-based positions mirror the paper's indexing"
        )]
        for pos in 1..=len {
            if sequence.at(pos) != Some(event) {
                continue;
            }
            // Previous event must sit at pos' with min_gap..=max_gap events
            // strictly between, i.e. pos - pos' - 1 in [min_gap, max_gap].
            let lo = pos.saturating_sub(max_gap + 1).max(1);
            let hi = pos.saturating_sub(min_gap + 1).min(len);
            // min_gap > max_gap (or pos too early) leaves no admissible
            // previous position.
            if lo <= hi {
                next[pos] += ways[lo..=hi].iter().sum::<u64>();
            }
        }
        ways = next;
    }
    ways.iter().sum()
}

/// Gap-requirement support over a whole database.
pub fn gap_constrained_support(
    db: &SequenceDatabase,
    pattern: &[EventId],
    min_gap: usize,
    max_gap: usize,
) -> u64 {
    db.sequences()
        .map(|s| gap_constrained_count(s, pattern, min_gap, max_gap))
        .sum()
}

/// Interaction-pattern semantics (El-Ramly et al.): the number of substrings
/// `[i, j]` of the sequences of `db` such that the substring's first event
/// equals the pattern's first event, its last event equals the pattern's
/// last event, and the pattern is contained in the substring as a
/// subsequence.
pub fn interaction_pattern_support(db: &SequenceDatabase, pattern: &[EventId]) -> u64 {
    if pattern.is_empty() {
        return 0;
    }
    let first = pattern[0];
    let last = *pattern.last().expect("non-empty");
    let mut count = 0u64;
    for sequence in db.sequences() {
        for start in 1..=sequence.len() {
            if sequence.at(start) != Some(first) {
                continue;
            }
            let min_end = if pattern.len() == 1 { start } else { start + 1 };
            for end in min_end..=sequence.len() {
                if sequence.at(end) != Some(last) {
                    continue;
                }
                if window_embeds_with_fixed_ends(sequence, start, end, pattern) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Iterative-pattern semantics (Lo, Khoo & Liu; MSC/LSC style): an
/// occurrence of `e1 e2 ... en` is a substring matching
/// `e1 G* e2 G* ... G* en` where `G` is the set of all events **not** in the
/// pattern. The support is the number of such occurrences in the database.
pub fn iterative_pattern_support(db: &SequenceDatabase, pattern: &[EventId]) -> u64 {
    if pattern.is_empty() {
        return 0;
    }
    let alphabet: Vec<EventId> = {
        let mut a = pattern.to_vec();
        a.sort_unstable();
        a.dedup();
        a
    };
    let mut count = 0u64;
    for sequence in db.sequences() {
        'starts: for start in 1..=sequence.len() {
            if sequence.at(start) != Some(pattern[0]) {
                continue;
            }
            let mut expect = 1usize;
            let mut pos = start + 1;
            while expect < pattern.len() {
                let Some(event) = sequence.at(pos) else {
                    continue 'starts;
                };
                if event == pattern[expect] {
                    expect += 1;
                } else if alphabet.binary_search(&event).is_ok() {
                    // An event of the pattern's alphabet interrupts the
                    // occurrence: this start does not produce one.
                    continue 'starts;
                }
                pos += 1;
            }
            count += 1;
        }
    }
    count
}

/// Returns `true` when `pattern` is a subsequence of the window
/// `[start, end]` (1-based, inclusive) of `sequence`.
fn window_contains(sequence: SeqView<'_>, start: usize, end: usize, pattern: &[EventId]) -> bool {
    let mut j = 0;
    for pos in start..=end {
        if j < pattern.len() && sequence.at(pos) == Some(pattern[j]) {
            j += 1;
        }
    }
    j == pattern.len()
}

/// Returns `true` when `pattern` embeds in `[start, end]` with its first
/// event exactly at `start` and its last event exactly at `end`.
fn window_embeds_with_fixed_ends(
    sequence: SeqView<'_>,
    start: usize,
    end: usize,
    pattern: &[EventId],
) -> bool {
    if sequence.at(start) != Some(pattern[0]) {
        return false;
    }
    if pattern.len() == 1 {
        return start == end;
    }
    if sequence.at(end) != Some(*pattern.last().expect("non-empty")) || end <= start {
        return false;
    }
    let middle = &pattern[1..pattern.len() - 1];
    if middle.is_empty() {
        return true;
    }
    if end - start < 2 {
        return false;
    }
    window_contains(sequence, start + 1, end - 1, middle)
}

/// The latest start `s` such that `pattern` embeds into `[s, end]` with its
/// last event at `end`, or `None` if no embedding ends at `end`.
fn latest_start_for_end(sequence: SeqView<'_>, pattern: &[EventId], end: usize) -> Option<usize> {
    // Match the pattern backwards from `end`, greedily choosing the latest
    // possible position for each event.
    let mut pos = end;
    let mut j = pattern.len();
    while j > 0 {
        let target = pattern[j - 1];
        let mut found = None;
        let upper = if j == pattern.len() { end } else { pos - 1 };
        let mut p = upper;
        while p >= 1 {
            if sequence.at(p) == Some(target) {
                found = Some(p);
                break;
            }
            if p == 1 {
                break;
            }
            p -= 1;
        }
        let found = found?;
        if j == pattern.len() && found != end {
            return None;
        }
        pos = found;
        j -= 1;
    }
    Some(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Example 1.1: S1 = AABCDABB, S2 = ABCD.
    fn example_db() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["AABCDABB", "ABCD"])
    }

    #[test]
    fn gap_constrained_count_with_min_gap_above_max_gap_is_zero() {
        // An inverted gap requirement admits no previous position; it must
        // yield zero rather than panic on an inverted slice range.
        let db = SequenceDatabase::from_str_rows(&["ABAB"]);
        let ab = db.pattern_from_str("AB").unwrap();
        let seq = db.sequence(0).unwrap();
        assert_eq!(gap_constrained_count(seq, &ab, 3, 0), 0);
        assert_eq!(gap_constrained_count(seq, &ab, 0, 0), 2); // sanity: adjacent ABs
    }

    fn pattern(db: &SequenceDatabase, s: &str) -> Vec<EventId> {
        db.pattern_from_str(s).unwrap()
    }

    #[test]
    fn sequential_support_matches_the_paper() {
        let db = example_db();
        assert_eq!(sequence_count_support(&db, &pattern(&db, "AB")), 2);
        assert_eq!(sequence_count_support(&db, &pattern(&db, "CD")), 2);
    }

    #[test]
    fn episode_width_4_windows_match_the_paper() {
        // "for w = 4, serial episode AB has support 4 in S1 (windows [1,4],
        // [2,5], [4,7], and [5,8] contain AB)".
        let db = example_db();
        let s1 = db.sequence(0).unwrap();
        assert_eq!(episode_window_count(s1, &pattern(&db, "AB"), 4), 4);
        // In S2 = ABCD only the single window [1,4] contains AB.
        let s2 = db.sequence(1).unwrap();
        assert_eq!(episode_window_count(s2, &pattern(&db, "AB"), 4), 1);
        assert_eq!(episode_window_support(&db, &pattern(&db, "AB"), 4), 5);
    }

    #[test]
    fn minimal_windows_match_the_paper() {
        // "in definition (ii), the support of AB is 2" (in S1).
        let db = example_db();
        let s1 = db.sequence(0).unwrap();
        assert_eq!(minimal_window_count(s1, &pattern(&db, "AB")), 2);
        let s2 = db.sequence(1).unwrap();
        assert_eq!(minimal_window_count(s2, &pattern(&db, "AB")), 1);
        assert_eq!(minimal_window_support(&db, &pattern(&db, "AB")), 3);
    }

    #[test]
    fn gap_requirement_matches_the_paper() {
        // "given requirement gap >= 0 and <= 3, pattern AB has support 4 in
        // S1".
        let db = example_db();
        let s1 = db.sequence(0).unwrap();
        assert_eq!(gap_constrained_count(s1, &pattern(&db, "AB"), 0, 3), 4);
        // Without an upper bound every landmark counts: A{1,2,6} x B{3,7,8}
        // gives 3 + 3 + 2 = 8 ... positions after each A: A1 -> B3,B7,B8;
        // A2 -> B3,B7,B8; A6 -> B7,B8: 8 landmarks.
        assert_eq!(gap_constrained_count(s1, &pattern(&db, "AB"), 0, 100), 8);
    }

    #[test]
    fn interaction_patterns_match_the_paper() {
        // "AB has support 9, with 8 substrings in S1 ... captured" plus one
        // in S2.
        let db = example_db();
        assert_eq!(interaction_pattern_support(&db, &pattern(&db, "AB")), 9);
    }

    #[test]
    fn iterative_patterns_match_the_paper() {
        // "pattern AB has support 3" across the two sequences.
        let db = example_db();
        assert_eq!(iterative_pattern_support(&db, &pattern(&db, "AB")), 3);
        // CD occurs once per sequence under iterative semantics as well.
        assert_eq!(iterative_pattern_support(&db, &pattern(&db, "CD")), 2);
    }

    #[test]
    fn single_event_patterns_are_handled() {
        let db = example_db();
        let a = pattern(&db, "A");
        assert_eq!(sequence_count_support(&db, &a), 2);
        assert_eq!(interaction_pattern_support(&db, &a), 4);
        assert_eq!(iterative_pattern_support(&db, &a), 4);
        let s1 = db.sequence(0).unwrap();
        assert_eq!(gap_constrained_count(s1, &a, 0, 3), 3);
        assert_eq!(minimal_window_count(s1, &a), 3);
    }

    #[test]
    fn empty_pattern_has_zero_support_everywhere() {
        let db = example_db();
        let empty: Vec<EventId> = Vec::new();
        assert_eq!(episode_window_support(&db, &empty, 4), 0);
        assert_eq!(minimal_window_support(&db, &empty), 0);
        assert_eq!(gap_constrained_support(&db, &empty, 0, 3), 0);
        assert_eq!(interaction_pattern_support(&db, &empty), 0);
        assert_eq!(iterative_pattern_support(&db, &empty), 0);
    }

    #[test]
    fn longer_patterns_under_iterative_semantics() {
        // ABB in S1 = AABCDABB: starts at A1 (A1 ... next alphabet event at
        // 2 is A -> fail), A2 (B3 then next alphabet event is A6 -> fail),
        // A6 (B7, B8 -> success). Support 1.
        let db = example_db();
        assert_eq!(iterative_pattern_support(&db, &pattern(&db, "ABB")), 1);
    }

    #[test]
    fn window_helpers_behave() {
        let db = example_db();
        let s1 = db.sequence(0).unwrap();
        let ab = pattern(&db, "AB");
        assert!(window_contains(s1, 1, 4, &ab));
        assert!(!window_contains(s1, 3, 6, &ab));
        assert!(window_embeds_with_fixed_ends(s1, 6, 7, &ab));
        assert!(!window_embeds_with_fixed_ends(s1, 3, 7, &ab));
        assert_eq!(latest_start_for_end(s1, &ab, 7), Some(6));
        assert_eq!(latest_start_for_end(s1, &ab, 3), Some(2));
        assert_eq!(latest_start_for_end(s1, &ab, 4), None);
    }
}
