//! Randomized property tests of the core mining invariants on random small
//! databases.
//!
//! These tests compare the efficient algorithms (instance growth, GSgrow,
//! CloGSgrow) against the brute-force reference implementations in
//! `rgs_core::reference`, which work directly from the paper's definitions.
//! Cases are generated with a deterministic seeded PRNG, so failures are
//! reproducible from the printed case description.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rgs_core::reference::{closed_subset, enumerate_frequent, max_non_overlapping, pattern_set};
use rgs_core::{
    constrained_support, repetitive_support, GapConstraints, Instance, Landmark, Miner,
    MiningOutcome, Mode, Pattern, SupportComputer,
};
use seqdb::{EventId, SequenceDatabase};

const LABELS: [&str; 4] = ["A", "B", "C", "D"];
const CASES: usize = 96;

fn all_patterns(db: &SequenceDatabase, min_sup: u64) -> MiningOutcome {
    Miner::new(db).min_sup(min_sup).mode(Mode::All).run()
}

fn closed_patterns(db: &SequenceDatabase, min_sup: u64) -> MiningOutcome {
    Miner::new(db).min_sup(min_sup).mode(Mode::Closed).run()
}

/// A small random database: 1–4 sequences of length 0–10 over 4 events.
fn small_database(rng: &mut StdRng) -> SequenceDatabase {
    let rows: Vec<Vec<&str>> = (0..rng.gen_range(1..=4usize))
        .map(|_| {
            (0..rng.gen_range(0..=10usize))
                .map(|_| LABELS[rng.gen_range(0..LABELS.len())])
                .collect()
        })
        .collect();
    SequenceDatabase::from_token_rows(&rows)
}

/// A short random raw pattern over the same alphabet.
fn small_pattern(rng: &mut StdRng) -> Vec<u32> {
    (0..rng.gen_range(1..=4usize))
        .map(|_| rng.gen_range(0..LABELS.len() as u32))
        .collect()
}

fn to_pattern(db: &SequenceDatabase, raw: &[u32]) -> Option<Vec<EventId>> {
    raw.iter()
        .map(|&e| db.catalog().id(LABELS[e as usize]))
        .collect()
}

/// Instance growth computes exactly the maximum number of non-overlapping
/// instances (Definition 2.5 / Lemma 4).
#[test]
fn support_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for case in 0..CASES {
        let db = small_database(&mut rng);
        let raw = small_pattern(&mut rng);
        if let Some(pattern) = to_pattern(&db, &raw) {
            let fast = repetitive_support(&db, &pattern);
            let brute = max_non_overlapping(&db, &pattern);
            assert_eq!(fast, brute, "case {case}: pattern {raw:?}");
        }
    }
}

/// Apriori property (Lemma 1 / Theorem 1): dropping any single event never
/// decreases the support.
#[test]
fn support_is_monotone_under_subpatterns() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for case in 0..CASES {
        let db = small_database(&mut rng);
        let raw = small_pattern(&mut rng);
        if let Some(pattern) = to_pattern(&db, &raw) {
            let sc = SupportComputer::new(&db);
            let full = sc.support(&Pattern::new(pattern.clone()));
            for drop in 0..pattern.len() {
                let mut sub = pattern.clone();
                sub.remove(drop);
                if sub.is_empty() {
                    continue;
                }
                let sub_sup = sc.support(&Pattern::new(sub));
                assert!(sub_sup >= full, "case {case}: sub {sub_sup} < full {full}");
            }
        }
    }
}

/// Random gap constraints, unbounded about a third of the time.
fn small_constraints(rng: &mut StdRng) -> GapConstraints {
    if rng.gen_range(0..3u32) == 0 {
        return GapConstraints::unbounded();
    }
    let mut constraints = GapConstraints::unbounded().with_min_gap(rng.gen_range(0..3u32));
    if rng.gen_range(0..2u32) == 0 {
        constraints = constraints.with_max_gap(rng.gen_range(0..4u32));
    }
    if rng.gen_range(0..2u32) == 0 {
        constraints = constraints.with_max_window(rng.gen_range(1..9u32));
    }
    constraints
}

/// The landmarks reconstructed for the leftmost support set are valid,
/// pairwise non-overlapping occurrences of the pattern, and there are
/// exactly `sup(P)` of them — under random gap constraints too, where the
/// landmark replay must match the support set instance for instance and
/// every landmark must satisfy the constraints.
#[test]
fn leftmost_support_set_is_valid_and_non_redundant() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..CASES {
        let db = small_database(&mut rng);
        let raw = small_pattern(&mut rng);
        let constraints = small_constraints(&mut rng);
        if let Some(pattern) = to_pattern(&db, &raw) {
            let what = format!("case {case}: {raw:?} under {}", constraints.describe());
            let sc = SupportComputer::new(&db).with_constraints(constraints);
            let p = Pattern::new(pattern.clone());
            let landmarks = sc.support_landmarks(&p);
            assert_eq!(
                landmarks.len() as u64,
                constrained_support(&db, &pattern, constraints),
                "{what}"
            );
            let compressed: Vec<Instance> = landmarks.iter().map(Landmark::compress).collect();
            assert_eq!(compressed, sc.support_set(&p).instances(), "{what}");
            assert!(
                landmarks
                    .iter()
                    .all(|l| constraints.admits_landmark(&l.positions)),
                "{what}"
            );
            assert!(rgs_core::support::is_non_redundant(&landmarks), "{what}");
            assert!(
                rgs_core::support::are_valid_instances(&db, &pattern, &landmarks),
                "{what}"
            );
        }
    }
}

/// GSgrow finds exactly the frequent patterns found by brute-force
/// enumeration, with identical supports.
#[test]
fn gsgrow_is_complete_and_sound() {
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for case in 0..CASES {
        let db = small_database(&mut rng);
        let min_sup = rng.gen_range(1..4u64);
        let mined = all_patterns(&db, min_sup);
        let brute = enumerate_frequent(&db, min_sup, 12);
        assert_eq!(
            pattern_set(&mined.patterns),
            pattern_set(&brute),
            "case {case}: min_sup {min_sup}"
        );
        for mp in &brute {
            assert_eq!(mined.support_of(&mp.pattern), Some(mp.support));
        }
    }
}

/// CloGSgrow's output equals the closed subset of GSgrow's output.
#[test]
fn clogsgrow_equals_closed_subset_of_all() {
    let mut rng = StdRng::seed_from_u64(0xFACADE);
    for case in 0..CASES {
        let db = small_database(&mut rng);
        let min_sup = rng.gen_range(1..4u64);
        let all = all_patterns(&db, min_sup);
        let expected = closed_subset(&all.patterns);
        let closed = closed_patterns(&db, min_sup);
        assert_eq!(
            pattern_set(&closed.patterns),
            pattern_set(&expected),
            "case {case}: min_sup {min_sup}"
        );
        for mp in &expected {
            assert_eq!(closed.support_of(&mp.pattern), Some(mp.support));
        }
    }
}

/// Every frequent pattern is represented in the closed set: it has a closed
/// super-pattern (or itself) with exactly the same support (Lemma 2).
#[test]
fn closed_set_is_a_lossless_summary() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..CASES {
        let db = small_database(&mut rng);
        let min_sup = rng.gen_range(1..4u64);
        let all = all_patterns(&db, min_sup);
        let closed = closed_patterns(&db, min_sup);
        for mp in &all.patterns {
            let covered = closed.patterns.iter().any(|cp| {
                cp.support == mp.support
                    && (cp.pattern == mp.pattern || mp.pattern.is_subpattern_of(&cp.pattern))
            });
            assert!(
                covered,
                "case {case}: pattern {:?} with support {} is not covered",
                mp.pattern, mp.support
            );
        }
    }
}

/// The number of visited DFS nodes of CloGSgrow never exceeds GSgrow's
/// (landmark border pruning only removes work).
#[test]
fn pruning_never_increases_visited_nodes() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for case in 0..CASES {
        let db = small_database(&mut rng);
        let min_sup = rng.gen_range(1..4u64);
        let all = all_patterns(&db, min_sup);
        let closed = closed_patterns(&db, min_sup);
        assert!(closed.stats.visited <= all.stats.visited, "case {case}");
        assert!(closed.len() <= all.len(), "case {case}");
    }
}

/// Single-event supports equal raw occurrence counts.
#[test]
fn single_event_support_equals_occurrence_count() {
    let mut rng = StdRng::seed_from_u64(0xACE);
    for _ in 0..CASES {
        let db = small_database(&mut rng);
        let sc = SupportComputer::new(&db);
        for event in db.catalog().ids() {
            let p = Pattern::single(event);
            assert_eq!(sc.support(&p), db.event_occurrences(event) as u64);
        }
    }
}
