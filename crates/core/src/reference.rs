//! Brute-force reference implementations used to validate the efficient
//! algorithms in tests and property-based tests.
//!
//! These routines are exponential in the worst case and intended only for
//! tiny inputs; they compute the quantities of the paper directly from
//! their definitions:
//!
//! * [`all_landmarks`] enumerates **every** landmark of a pattern
//!   (Definition 2.1),
//! * [`max_non_overlapping`] computes the repetitive support as the size of
//!   a maximum non-redundant instance set (Definition 2.5) via backtracking
//!   over the overlap-conflict graph,
//! * [`enumerate_frequent`] enumerates all frequent patterns by exhaustive
//!   search over the pattern space (bounded by the Apriori property),
//! * [`closed_subset`] filters a set of mined patterns down to the closed
//!   ones by pairwise definition-level checks (Definition 2.6).

use std::collections::BTreeSet;

use seqdb::{EventId, SequenceDatabase};

use crate::instance::Landmark;
use crate::pattern::Pattern;
use crate::prepared::PreparedDb;
use crate::result::MinedPattern;

/// Enumerates every landmark of `pattern` in every sequence of `db`.
///
/// The number of landmarks can grow combinatorially; callers must keep the
/// inputs small (this is test support code).
pub fn all_landmarks(db: &SequenceDatabase, pattern: &[EventId]) -> Vec<Landmark> {
    let mut result = Vec::new();
    if pattern.is_empty() {
        return result;
    }
    for (seq_idx, sequence) in db.sequences().enumerate() {
        let mut stack: Vec<(usize, Vec<u32>)> = vec![(0, Vec::new())];
        while let Some((depth, positions)) = stack.pop() {
            if depth == pattern.len() {
                result.push(Landmark::new(seq_idx, positions));
                continue;
            }
            let start = positions.last().map_or(0, |&p| p as usize);
            for pos in (start + 1)..=sequence.len() {
                if sequence.at(pos) == Some(pattern[depth]) {
                    let mut next = positions.clone();
                    next.push(pos as u32);
                    stack.push((depth + 1, next));
                }
            }
        }
    }
    result
}

/// Computes the repetitive support of `pattern` directly from
/// Definition 2.5: the maximum number of pairwise non-overlapping landmarks,
/// found by exhaustive backtracking with simple pruning.
pub fn max_non_overlapping(db: &SequenceDatabase, pattern: &[EventId]) -> u64 {
    if pattern.is_empty() {
        return 0;
    }
    // Instances in different sequences never overlap, so the maximum
    // decomposes over sequences.
    let mut total = 0u64;
    for seq_idx in 0..db.num_sequences() {
        let single = SequenceDatabase::from_parts(
            db.catalog().clone(),
            vec![db.sequence(seq_idx).expect("sequence exists").to_sequence()],
        );
        let landmarks = all_landmarks(&single, pattern);
        total += max_independent(&landmarks);
    }
    total
}

/// Maximum number of pairwise non-overlapping landmarks (within a single
/// sequence) via branch-and-bound backtracking.
fn max_independent(landmarks: &[Landmark]) -> u64 {
    fn recurse(landmarks: &[Landmark], chosen: &mut Vec<usize>, start: usize, best: &mut u64) {
        let upper_bound = chosen.len() as u64 + (landmarks.len() - start) as u64;
        if upper_bound <= *best {
            return;
        }
        if start == landmarks.len() {
            *best = (*best).max(chosen.len() as u64);
            return;
        }
        // Option 1: take `start` if compatible with everything chosen.
        if chosen
            .iter()
            .all(|&i| !landmarks[i].overlaps(&landmarks[start]))
        {
            chosen.push(start);
            recurse(landmarks, chosen, start + 1, best);
            chosen.pop();
        }
        // Option 2: skip `start`.
        recurse(landmarks, chosen, start + 1, best);
    }

    let mut best = 0u64;
    recurse(landmarks, &mut Vec::new(), 0, &mut best);
    best
}

/// Enumerates every frequent pattern (support `>= min_sup`) of length at
/// most `max_len` by breadth-first growth over the event alphabet, computing
/// supports with the brute-force [`max_non_overlapping`].
pub fn enumerate_frequent(
    db: &SequenceDatabase,
    min_sup: u64,
    max_len: usize,
) -> Vec<MinedPattern> {
    let events: Vec<EventId> = db.catalog().ids().collect();
    let mut frontier: Vec<Pattern> = vec![Pattern::empty()];
    let mut result = Vec::new();
    for _len in 1..=max_len {
        let mut next_frontier = Vec::new();
        for prefix in &frontier {
            for &event in &events {
                let candidate = prefix.grow(event);
                let support = max_non_overlapping(db, candidate.events());
                if support >= min_sup {
                    result.push(MinedPattern::new(candidate.clone(), support));
                    next_frontier.push(candidate);
                }
            }
        }
        if next_frontier.is_empty() {
            break;
        }
        frontier = next_frontier;
    }
    result
}

/// Enumerates every frequent pattern using the *efficient* support
/// computation (instance growth) but exhaustive pattern enumeration. Useful
/// to cross-check GSgrow's search independently of the support routine.
pub fn enumerate_frequent_fast(
    db: &SequenceDatabase,
    min_sup: u64,
    max_len: usize,
) -> Vec<MinedPattern> {
    let prepared = PreparedDb::new(db);
    let sc = prepared.support_computer();
    let events: Vec<EventId> = db.catalog().ids().collect();
    let mut frontier: Vec<Pattern> = vec![Pattern::empty()];
    let mut result = Vec::new();
    for _len in 1..=max_len {
        let mut next_frontier = Vec::new();
        for prefix in &frontier {
            for &event in &events {
                let candidate = prefix.grow(event);
                let support = sc.support(&candidate);
                if support >= min_sup {
                    result.push(MinedPattern::new(candidate.clone(), support));
                    next_frontier.push(candidate);
                }
            }
        }
        if next_frontier.is_empty() {
            break;
        }
        frontier = next_frontier;
    }
    result
}

/// Enumerates every landmark of `pattern` that satisfies `constraints`
/// (brute-force reference for the constrained miners).
pub fn all_landmarks_constrained(
    db: &SequenceDatabase,
    pattern: &[EventId],
    constraints: crate::constraints::GapConstraints,
) -> Vec<Landmark> {
    all_landmarks(db, pattern)
        .into_iter()
        .filter(|l| constraints.admits_landmark(&l.positions))
        .collect()
}

/// The exact maximum number of pairwise non-overlapping *constraint-
/// admissible* instances of `pattern`, by exhaustive backtracking.
///
/// The greedy constrained support
/// ([`crate::constrained::constrained_support`]) is always a lower
/// bound on this value and coincides with it in the unconstrained case
/// (Lemma 4); the property tests compare the two.
pub fn max_non_overlapping_constrained(
    db: &SequenceDatabase,
    pattern: &[EventId],
    constraints: crate::constraints::GapConstraints,
) -> u64 {
    if pattern.is_empty() {
        return 0;
    }
    let mut total = 0u64;
    for seq_idx in 0..db.num_sequences() {
        let single = SequenceDatabase::from_parts(
            db.catalog().clone(),
            vec![db.sequence(seq_idx).expect("sequence exists").to_sequence()],
        );
        let landmarks = all_landmarks_constrained(&single, pattern, constraints);
        total += max_independent(&landmarks);
    }
    total
}

/// Filters `patterns` down to the closed ones by the definition: a pattern
/// is closed iff no **super-pattern with equal support** exists in the
/// database. Super-patterns are taken from the (complete) mined set itself,
/// which is sound because support is monotone (Lemma 1): any super-pattern
/// with equal support is itself frequent and therefore present in a complete
/// result.
pub fn closed_subset(patterns: &[MinedPattern]) -> Vec<MinedPattern> {
    let mut closed = Vec::new();
    for candidate in patterns {
        let is_closed = !patterns.iter().any(|other| {
            other.support == candidate.support
                && other.pattern.is_proper_superpattern_of(&candidate.pattern)
        });
        if is_closed {
            closed.push(candidate.clone());
        }
    }
    closed
}

/// The set of patterns (as event-id vectors) in a result, for set-equality
/// assertions in tests.
pub fn pattern_set(patterns: &[MinedPattern]) -> BTreeSet<Vec<EventId>> {
    patterns
        .iter()
        .map(|mp| mp.pattern.events().to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    fn simple_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCABCA", "AABBCCC"])
    }

    #[test]
    fn all_landmarks_of_ab_in_table_ii() {
        // Example 2.1: AB has 3 landmarks in S1 and 4 in S2.
        let db = simple_example();
        let ab = db.pattern_from_str("AB").unwrap();
        let landmarks = all_landmarks(&db, &ab);
        let in_s1 = landmarks.iter().filter(|l| l.seq == 0).count();
        let in_s2 = landmarks.iter().filter(|l| l.seq == 1).count();
        assert_eq!(in_s1, 3);
        assert_eq!(in_s2, 4);
    }

    #[test]
    fn brute_force_support_matches_paper_examples() {
        let simple = simple_example();
        assert_eq!(
            max_non_overlapping(&simple, &simple.pattern_from_str("AB").unwrap()),
            4
        );
        assert_eq!(
            max_non_overlapping(&simple, &simple.pattern_from_str("ABA").unwrap()),
            2
        );
        assert_eq!(
            max_non_overlapping(&simple, &simple.pattern_from_str("ABC").unwrap()),
            4
        );

        let running = running_example();
        assert_eq!(
            max_non_overlapping(&running, &running.pattern_from_str("ACB").unwrap()),
            3
        );
        assert_eq!(
            max_non_overlapping(&running, &running.pattern_from_str("ACA").unwrap()),
            3
        );
        assert_eq!(
            max_non_overlapping(&running, &running.pattern_from_str("A").unwrap()),
            5
        );
    }

    #[test]
    fn brute_force_agrees_with_instance_growth_on_examples() {
        for rows in [
            vec!["ABCABCA", "AABBCCC"],
            vec!["ABCACBDDB", "ACDBACADD"],
            vec!["AABCDABB", "ABCD"],
            vec!["AABBAABB"],
        ] {
            let db = SequenceDatabase::from_str_rows(&rows);
            let prepared = PreparedDb::new(&db);
            let sc = prepared.support_computer();
            for pattern_str in ["A", "AB", "BA", "ABA", "AABB", "ABAB", "BB", "BBB"] {
                if let Some(pattern) = db.pattern_from_str(pattern_str) {
                    let brute = max_non_overlapping(&db, &pattern);
                    let fast = sc.support(&Pattern::new(pattern.clone()));
                    assert_eq!(brute, fast, "pattern {pattern_str} on {rows:?}");
                }
            }
        }
    }

    #[test]
    fn enumerate_frequent_fast_and_slow_agree_on_small_input() {
        let db = simple_example();
        let slow = enumerate_frequent(&db, 2, 4);
        let fast = enumerate_frequent_fast(&db, 2, 4);
        assert_eq!(pattern_set(&slow), pattern_set(&fast));
        for mp in &slow {
            let twin = fast
                .iter()
                .find(|other| other.pattern == mp.pattern)
                .expect("pattern present in both");
            assert_eq!(twin.support, mp.support, "support of {:?}", mp.pattern);
        }
    }

    #[test]
    fn closed_subset_drops_ab_in_favour_of_abc() {
        // Example 2.3: sup(AB) = sup(ABC) = 4, so AB is not closed.
        let db = simple_example();
        let all = enumerate_frequent(&db, 2, 4);
        let closed = closed_subset(&all);
        let ab = Pattern::new(db.pattern_from_str("AB").unwrap());
        let abc = Pattern::new(db.pattern_from_str("ABC").unwrap());
        assert!(all.iter().any(|mp| mp.pattern == ab));
        assert!(!closed.iter().any(|mp| mp.pattern == ab));
        assert!(closed.iter().any(|mp| mp.pattern == abc));
    }

    #[test]
    fn stronger_overlap_definition_would_change_aba_example() {
        // Footnote 1 of the paper: under the non-overlap definition used,
        // sup(ABA) = 2 in S1 = ABCABCA; the two instances share position 4
        // but at different pattern indices.
        let db = SequenceDatabase::from_str_rows(&["ABCABCA"]);
        let aba = db.pattern_from_str("ABA").unwrap();
        assert_eq!(max_non_overlapping(&db, &aba), 2);
    }
}
