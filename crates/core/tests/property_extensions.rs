//! Randomized property tests of the extension modules (gap-constrained
//! mining, top-k mining, maximal mining) on random small databases, driven
//! by a deterministic seeded PRNG.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rgs_core::reference::{max_non_overlapping, max_non_overlapping_constrained, pattern_set};
use rgs_core::{
    constrained_support, repetitive_support, GapConstraints, Miner, MiningOutcome, Mode,
};
use seqdb::{EventId, SequenceDatabase};

const LABELS: [&str; 4] = ["A", "B", "C", "D"];
const CASES: usize = 48;

fn mine(db: &SequenceDatabase, min_sup: u64, mode: Mode) -> MiningOutcome {
    Miner::new(db).min_sup(min_sup).mode(mode).run()
}

fn mine_constrained(
    db: &SequenceDatabase,
    min_sup: u64,
    mode: Mode,
    constraints: GapConstraints,
) -> MiningOutcome {
    Miner::new(db)
        .min_sup(min_sup)
        .mode(mode)
        .constraints(constraints)
        .run()
}

/// The `k` best patterns of length at least `min_len` with support at
/// least 1, closed ones only when `closed_only`.
fn top_k_patterns(
    db: &SequenceDatabase,
    k: usize,
    min_len: usize,
    closed_only: bool,
) -> MiningOutcome {
    let mode = if closed_only { Mode::Closed } else { Mode::All };
    Miner::new(db)
        .min_sup(1)
        .mode(mode)
        .top_k(k)
        .min_len(min_len)
        .run()
}

/// Small random databases over up to 4 events: 1–4 sequences of length 0–9.
fn small_database(rng: &mut StdRng) -> SequenceDatabase {
    let rows: Vec<Vec<&str>> = (0..rng.gen_range(1..=4usize))
        .map(|_| {
            (0..rng.gen_range(0..=9usize))
                .map(|_| LABELS[rng.gen_range(0..LABELS.len())])
                .collect()
        })
        .collect();
    SequenceDatabase::from_token_rows(&rows)
}

fn small_pattern(rng: &mut StdRng) -> Vec<u32> {
    (0..rng.gen_range(1..=3usize))
        .map(|_| rng.gen_range(0..LABELS.len() as u32))
        .collect()
}

fn small_constraints(rng: &mut StdRng) -> GapConstraints {
    GapConstraints {
        min_gap: rng.gen_range(0..2u32),
        max_gap: if rng.gen_bool(0.5) {
            Some(rng.gen_range(0..4u32))
        } else {
            None
        },
        max_window: if rng.gen_bool(0.5) {
            Some(rng.gen_range(1..8u32))
        } else {
            None
        },
    }
}

fn to_pattern(db: &SequenceDatabase, raw: &[u32]) -> Option<Vec<EventId>> {
    raw.iter()
        .map(|&e| db.catalog().id(LABELS[e as usize]))
        .collect()
}

/// The greedy constrained support never exceeds the exact constrained
/// maximum, never exceeds the unconstrained support, and coincides with the
/// unconstrained support when the constraints are trivial.
#[test]
fn constrained_support_is_bounded_and_consistent() {
    let mut rng = StdRng::seed_from_u64(0x11FE);
    for case in 0..CASES {
        let db = small_database(&mut rng);
        let raw = small_pattern(&mut rng);
        let constraints = small_constraints(&mut rng);
        if let Some(pattern) = to_pattern(&db, &raw) {
            let greedy = constrained_support(&db, &pattern, constraints);
            let exact = max_non_overlapping_constrained(&db, &pattern, constraints);
            let unconstrained = repetitive_support(&db, &pattern);
            assert!(
                greedy <= exact,
                "case {case}: greedy {greedy} > exact {exact}"
            );
            assert!(greedy <= unconstrained, "case {case}");
            assert_eq!(
                constrained_support(&db, &pattern, GapConstraints::unbounded()),
                unconstrained,
                "case {case}"
            );
            assert_eq!(
                max_non_overlapping_constrained(&db, &pattern, GapConstraints::unbounded()),
                max_non_overlapping(&db, &pattern),
                "case {case}"
            );
        }
    }
}

/// Constrained mining with unbounded constraints is GSgrow.
#[test]
fn constrained_mining_reduces_to_gsgrow_when_unbounded() {
    let mut rng = StdRng::seed_from_u64(0x22FE);
    for case in 0..CASES {
        let db = small_database(&mut rng);
        let min_sup = rng.gen_range(2..4u64);
        let plain = mine(&db, min_sup, Mode::All);
        let constrained = mine_constrained(&db, min_sup, Mode::All, GapConstraints::unbounded());
        assert_eq!(
            pattern_set(&plain.patterns),
            pattern_set(&constrained.patterns),
            "case {case}"
        );
    }
}

/// Every pattern reported by constrained mining meets the threshold under
/// its constraints, and the closed subset is consistent.
#[test]
fn constrained_mining_reports_true_supports() {
    let mut rng = StdRng::seed_from_u64(0x33FE);
    for case in 0..CASES {
        let db = small_database(&mut rng);
        let min_sup = rng.gen_range(2..4u64);
        let constraints = small_constraints(&mut rng);
        let all = mine_constrained(&db, min_sup, Mode::All, constraints);
        for mp in &all.patterns {
            let sup = constrained_support(&db, mp.pattern.events(), constraints);
            assert_eq!(mp.support, sup, "case {case}");
            assert!(sup >= min_sup, "case {case}");
        }
        let closed = mine_constrained(&db, min_sup, Mode::Closed, constraints);
        assert!(closed.len() <= all.len(), "case {case}");
        for c in &closed.patterns {
            for other in &all.patterns {
                if other.pattern.is_proper_superpattern_of(&c.pattern) {
                    assert_ne!(other.support, c.support, "case {case}");
                }
            }
        }
    }
}

/// Top-k mining (non-closed, length >= 1) returns exactly the k largest
/// supports of the full frequent set.
#[test]
fn top_k_matches_sorted_exhaustive_mining() {
    let mut rng = StdRng::seed_from_u64(0x44FE);
    for case in 0..CASES {
        let db = small_database(&mut rng);
        let k = rng.gen_range(1..8usize);
        let topk = top_k_patterns(&db, k, 1, false);
        let mut full = mine(&db, 1, Mode::All);
        full.sort_for_report();
        let expected: Vec<u64> = full.patterns.iter().take(k).map(|mp| mp.support).collect();
        let got: Vec<u64> = topk.patterns.iter().map(|mp| mp.support).collect();
        assert_eq!(got, expected, "case {case}: k {k}");
    }
}

/// Top-k closed mining returns the k best supports of the closed set.
#[test]
fn top_k_closed_matches_sorted_closed_mining() {
    let mut rng = StdRng::seed_from_u64(0x55FE);
    for case in 0..CASES {
        let db = small_database(&mut rng);
        let k = rng.gen_range(1..6usize);
        let topk = top_k_patterns(&db, k, 2, true);
        let mut closed = mine(&db, 1, Mode::Closed);
        closed.patterns.retain(|mp| mp.pattern.len() >= 2);
        closed.sort_for_report();
        let expected: Vec<u64> = closed
            .patterns
            .iter()
            .take(k)
            .map(|mp| mp.support)
            .collect();
        let got: Vec<u64> = topk.patterns.iter().map(|mp| mp.support).collect();
        assert_eq!(got, expected, "case {case}: k {k}");
    }
}

/// Maximal mining: maximal ⊆ closed ⊆ all, no maximal pattern is subsumed
/// by a frequent pattern, and every frequent pattern is covered by some
/// maximal pattern.
#[test]
fn maximal_patterns_form_a_frontier() {
    let mut rng = StdRng::seed_from_u64(0x66FE);
    for case in 0..CASES {
        let db = small_database(&mut rng);
        let min_sup = rng.gen_range(2..4u64);
        let all = mine(&db, min_sup, Mode::All);
        let closed = mine(&db, min_sup, Mode::Closed);
        let maximal = mine(&db, min_sup, Mode::Maximal);
        assert!(maximal.len() <= closed.len(), "case {case}");
        assert!(closed.len() <= all.len(), "case {case}");
        for mp in &maximal.patterns {
            assert!(closed.contains(&mp.pattern), "case {case}");
            for other in &all.patterns {
                assert!(
                    !other.pattern.is_proper_superpattern_of(&mp.pattern),
                    "case {case}"
                );
            }
        }
        for mp in &all.patterns {
            let covered = maximal
                .patterns
                .iter()
                .any(|m| mp.pattern == m.pattern || mp.pattern.is_subpattern_of(&m.pattern));
            assert!(
                covered,
                "case {case}: {:?} not covered by a maximal pattern",
                mp.pattern
            );
        }
    }
}
