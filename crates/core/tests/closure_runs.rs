//! Pins `ClosureChecker::check` against an exhaustive oracle.
//!
//! The checker grows each *distinct* single-insertion extension once: an
//! insertion of `e` into a run of `e` is grown only at the run's end, and a
//! trailing run only as the append `P ◦ P[len-1]`. The oracle below does
//! none of that. It spells out every `(slot, event)` insertion over the whole
//! alphabet, with no deduplication and no viability filter, computes each
//! extension's leftmost support set from scratch, and derives the verdict
//! from the definitions:
//!
//! * `Prune` when an equal-support insertion at a slot `< len` ends,
//!   instance by instance, no later than `P` (Theorem 5);
//! * otherwise `NonClosed` when the append flag is set or any insertion at a
//!   slot `< len` keeps `sup(P)` (Theorem 4; the trailing run's insertions
//!   are the append `P ◦ P[len-1]`, which the checker must find even when
//!   its caller passes `false`);
//! * otherwise `Closed`.
//!
//! Every frequent pattern up to a length bound is checked, with both values
//! of the append flag, on a prepared database. The oracle
//! also asserts the lemma the checker relies on: no append meets the
//! landmark border.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rgs_core::closure::{CheckScratch, ClosureChecker, ClosureStatus};
use rgs_core::{Pattern, PreparedDb, SupportSet};
use seqdb::{EventId, SequenceDatabase};

/// Theorem 5's condition (ii), spelled out on the public support-set API.
fn border_holds(extension: &SupportSet, pattern: &SupportSet) -> bool {
    extension.support() == pattern.support()
        && extension
            .last_positions()
            .zip(pattern.last_positions())
            .all(|((es, el), (ps, pl))| es == ps && el <= pl)
}

/// The oracle's verdict for `pattern` under both append flags:
/// `(verdict with the flag false, verdict with the flag true, whether some
/// append really keeps the support)`.
fn oracle(db: &SequenceDatabase, pattern: &[EventId]) -> (ClosureStatus, ClosureStatus, bool) {
    let own = rgs_core::support_set(db, pattern);
    let support = own.support();
    let alphabet: Vec<EventId> = db.catalog().ids().collect();
    let mut equal_insertion = false;
    let mut prune = false;
    let mut equal_append = false;
    for slot in 0..=pattern.len() {
        for &event in &alphabet {
            let mut extension = pattern.to_vec();
            extension.insert(slot, event);
            let set = rgs_core::support_set(db, &extension);
            assert!(set.support() <= support, "Lemma 1 broken by {extension:?}");
            if set.support() != support {
                continue;
            }
            let border = border_holds(&set, &own);
            if slot == pattern.len() {
                assert!(!border, "append {extension:?} met the landmark border");
                equal_append = true;
            } else {
                equal_insertion = true;
                prune |= border;
            }
        }
    }
    let verdict = |flag: bool| {
        if prune {
            ClosureStatus::Prune
        } else if flag || equal_insertion {
            ClosureStatus::NonClosed
        } else {
            ClosureStatus::Closed
        }
    };
    (verdict(false), verdict(true), equal_append)
}

/// Every pattern with support `>= min_sup` and at most `max_len` events
/// (Apriori: only frequent patterns are extended).
fn frequent_patterns(db: &SequenceDatabase, min_sup: u64, max_len: usize) -> Vec<Vec<EventId>> {
    let alphabet: Vec<EventId> = db.catalog().ids().collect();
    let mut out = Vec::new();
    let mut frontier: Vec<Vec<EventId>> = vec![Vec::new()];
    while let Some(prefix) = frontier.pop() {
        if prefix.len() == max_len {
            continue;
        }
        for &event in &alphabet {
            let mut grown = prefix.clone();
            grown.push(event);
            if rgs_core::repetitive_support(db, &grown) >= min_sup {
                out.push(grown.clone());
                frontier.push(grown);
            }
        }
    }
    out.sort();
    out
}

/// Checks every given pattern against the oracle on a prepared database,
/// with both append flags; returns the verdicts seen (flag false) so
/// callers can assert coverage.
fn assert_matches_oracle(
    label: &str,
    db: &SequenceDatabase,
    min_sup: u64,
    patterns: &[Vec<EventId>],
) -> Vec<ClosureStatus> {
    let prepared = PreparedDb::new(db);
    let sc = prepared.support_computer();
    let frequent = prepared.frequent_events(min_sup);
    let checker = ClosureChecker::new(&sc, &frequent);
    let mut scratch = CheckScratch::new();
    let mut seen = Vec::new();
    for events in patterns {
        let pattern = Pattern::new(events.clone());
        assert!(
            sc.support(&pattern) >= min_sup,
            "{label}: {events:?} is not frequent"
        );
        let stack: Vec<SupportSet> = (1..=pattern.len())
            .map(|len| sc.support_set(&pattern.prefix(len)))
            .collect();
        let (without_flag, with_flag, equal_append) = oracle(db, events);
        assert_eq!(
            checker.check(&pattern, &stack, false, &mut scratch),
            without_flag,
            "{label}: {events:?} with the flag false"
        );
        assert_eq!(
            checker.check(&pattern, &stack, true, &mut scratch),
            with_flag,
            "{label}: {events:?} with the flag true"
        );
        // The flag as the DFS computes it: the true append verdict.
        let exact = if equal_append {
            with_flag
        } else {
            without_flag
        };
        assert_eq!(
            checker.check(&pattern, &stack, equal_append, &mut scratch),
            exact,
            "{label}: {events:?} with the exact flag"
        );
        seen.push(without_flag);
    }
    seen
}

fn ids(db: &SequenceDatabase, text: &str) -> Vec<EventId> {
    db.pattern_from_str(text)
        .expect("every label is in the catalog")
}

#[test]
fn single_run_patterns_match_the_oracle() {
    // The Gazelle shape: the checked patterns are `A^k`, and `A^(k+1)` is
    // reachable from every slot of `A^k`. On pure runs of `A` every `A^k` is
    // closed; where a `C` sits between every two `A`s, inserting it keeps
    // the support.
    let mut seen = Vec::new();
    for rows in [
        &["AAAAAAAAAA", "AAAAAAAB", "BAAAAAAA", "AABAAABAA", "AAAA"][..],
        &["ACACACACAC", "ACACACA", "CACACACA", "ACACACACACAC"][..],
    ] {
        let db = SequenceDatabase::from_str_rows(rows);
        let patterns: Vec<Vec<EventId>> = (1..=5).map(|k| ids(&db, &"A".repeat(k))).collect();
        seen.extend(assert_matches_oracle("single run", &db, 2, &patterns));
    }
    assert!(seen.contains(&ClosureStatus::Closed));
    assert!(seen.iter().any(|&status| status != ClosureStatus::Closed));
}

#[test]
fn interior_trailing_and_alternating_runs_match_the_oracle() {
    let db = SequenceDatabase::from_str_rows(&[
        "ABBBA",
        "ABBBAABBBA",
        "CABBBACABBB",
        "ABBB",
        "ABABABAB",
        "BABABA",
        "ABBBCABAB",
    ]);
    let named = [
        "ABBBA", "ABBB", "BBB", "ABBA", "ABAB", "BABA", "ABABAB", "AB",
    ];
    let patterns: Vec<Vec<EventId>> = named.iter().map(|text| ids(&db, text)).collect();
    assert_matches_oracle("named runs", &db, 2, &patterns);
    let all = frequent_patterns(&db, 3, 5);
    assert!(all.len() > named.len());
    let seen = assert_matches_oracle("runs corpus", &db, 3, &all);
    for status in [
        ClosureStatus::Closed,
        ClosureStatus::NonClosed,
        ClosureStatus::Prune,
    ] {
        assert!(
            seen.contains(&status),
            "runs corpus never reached {status:?}"
        );
    }
}

#[test]
fn table_ii_append_is_the_only_equal_support_extension() {
    // Table II: sup(AB) = sup(ABC) = 4, and no insertion before `A` or
    // before `B` keeps it (nor does the trailing-run append `ABB`), so only
    // a truthful append flag makes AB non-closed.
    let db = SequenceDatabase::from_str_rows(&["ABCABCA", "AABBCCC"]);
    let ab = ids(&db, "AB");
    let (without_flag, with_flag, equal_append) = oracle(&db, &ab);
    assert_eq!(without_flag, ClosureStatus::Closed);
    assert_eq!(with_flag, ClosureStatus::NonClosed);
    assert!(equal_append);
    assert_matches_oracle("Table II", &db, 4, &[ab]);
    let all = frequent_patterns(&db, 2, 4);
    assert_matches_oracle("Table II corpus", &db, 2, &all);
}

#[test]
fn seeded_small_alphabet_corpora_match_the_oracle() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let alphabet = rng.gen_range(2..5u8);
        let rows: Vec<String> = (0..rng.gen_range(3..7usize))
            .map(|_| {
                let len = rng.gen_range(2..12usize);
                // Long runs of one event are the case under test: repeat the
                // previous event half of the time.
                let mut row = String::new();
                let mut current = b'A';
                for _ in 0..len {
                    if rng.gen_bool(0.5) {
                        current = b'A' + rng.gen_range(0..alphabet);
                    }
                    row.push(char::from(current));
                }
                row
            })
            .collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let db = SequenceDatabase::from_str_rows(&refs);
        let min_sup = rng.gen_range(2..4u64);
        let patterns = frequent_patterns(&db, min_sup, 4);
        assert_matches_oracle(&format!("seed {seed} {rows:?}"), &db, min_sup, &patterns);
    }
}
