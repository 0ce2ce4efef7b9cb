//! The constrained repetitive support `sup_C(P)` as a one-call query.
//!
//! Constraints are a field of [`SupportComputer`]
//! ([`SupportComputer::with_constraints`]); this module keeps the
//! convenience wrapper and the tests of constrained support and mining.
//! The semantics are documented in [`crate::constraints`].

use seqdb::{EventId, SequenceDatabase};

use crate::constraints::GapConstraints;
use crate::growth::SupportComputer;
use crate::pattern::Pattern;

/// Convenience wrapper: the constrained repetitive support of a pattern
/// given as raw event ids, building a temporary index.
pub fn constrained_support(
    db: &SequenceDatabase,
    pattern: &[EventId],
    constraints: GapConstraints,
) -> u64 {
    SupportComputer::new(db)
        .with_constraints(constraints)
        .support(&Pattern::new(pattern.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Miner, Mode};
    use crate::instance::Landmark;
    use crate::reference::pattern_set;
    use crate::result::MiningOutcome;
    use crate::support::{are_valid_instances, is_non_redundant};

    /// Table III: S1 = ABCACBDDB, S2 = ACDBACADD.
    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    fn all_patterns(db: &SequenceDatabase, min_sup: u64) -> MiningOutcome {
        Miner::new(db).min_sup(min_sup).mode(Mode::All).run()
    }

    fn constrained_all(
        db: &SequenceDatabase,
        min_sup: u64,
        constraints: GapConstraints,
    ) -> MiningOutcome {
        Miner::new(db)
            .min_sup(min_sup)
            .mode(Mode::All)
            .constraints(constraints)
            .run()
    }

    fn constrained_closed(
        db: &SequenceDatabase,
        min_sup: u64,
        constraints: GapConstraints,
    ) -> MiningOutcome {
        Miner::new(db)
            .min_sup(min_sup)
            .mode(Mode::Closed)
            .constraints(constraints)
            .run()
    }

    fn pattern(db: &SequenceDatabase, s: &str) -> Pattern {
        Pattern::new(db.pattern_from_str(s).unwrap())
    }

    #[test]
    fn unbounded_constraints_reproduce_the_unconstrained_supports() {
        // Explicitly unbounded, and bounds that admit everything but take
        // the constrained instantiation of the growth loop.
        let db = running_example();
        let sc = SupportComputer::new(&db);
        for constraints in [
            GapConstraints::unbounded(),
            GapConstraints::gap_range(0, u32::MAX).with_max_window(u32::MAX),
        ] {
            let csc = SupportComputer::new(&db).with_constraints(constraints);
            for s in ["A", "AB", "AC", "ACB", "ACA", "AAD", "ACAD", "DD", "BD"] {
                let p = pattern(&db, s);
                assert_eq!(csc.support(&p), sc.support(&p), "pattern {s}");
                assert_eq!(csc.support_set(&p), sc.support_set(&p), "pattern {s}");
                assert_eq!(csc.support_landmarks(&p), sc.support_landmarks(&p));
            }
        }
    }

    #[test]
    fn max_gap_zero_requires_contiguous_instances() {
        // S1 = ABCACBDDB: contiguous AB occurs once (positions 1,2);
        // contiguous AC occurs once (4,5); DD occurs once (7,8).
        let db = running_example();
        let contiguous = GapConstraints::max_gap(0);
        assert_eq!(
            constrained_support(&db, &db.pattern_from_str("AB").unwrap(), contiguous),
            1
        );
        assert_eq!(
            constrained_support(&db, &db.pattern_from_str("DD").unwrap(), contiguous),
            2 // S1: (7,8); S2: (8,9)
        );
    }

    #[test]
    fn contiguous_ac_support_counts_every_adjacent_occurrence() {
        let db = running_example();
        let contiguous = GapConstraints::max_gap(0);
        let csc = SupportComputer::new(&db).with_constraints(contiguous);
        // S1 = ABCACBDDB: "AC" adjacent at positions (4,5) only.
        // S2 = ACDBACADD: "AC" adjacent at (1,2) and (5,6).
        assert_eq!(csc.support(&pattern(&db, "AC")), 3);
        let landmarks = csc.support_landmarks(&pattern(&db, "AC"));
        assert_eq!(
            landmarks,
            vec![
                Landmark::new(0, vec![4, 5]),
                Landmark::new(1, vec![1, 2]),
                Landmark::new(1, vec![5, 6]),
            ]
        );
        assert!(is_non_redundant(&landmarks));
        assert!(are_valid_instances(
            &db,
            &db.pattern_from_str("AC").unwrap(),
            &landmarks
        ));
        for l in &landmarks {
            assert!(contiguous.admits_landmark(&l.positions));
        }
    }

    #[test]
    fn max_window_limits_the_span_of_instances() {
        let db = running_example();
        // Unconstrained sup(ACB) = 3 with spans 6, 6, and 4.
        let acb = db.pattern_from_str("ACB").unwrap();
        assert_eq!(
            constrained_support(&db, &acb, GapConstraints::unbounded()),
            3
        );
        assert_eq!(
            constrained_support(&db, &acb, GapConstraints::max_window(6)),
            3
        );
        // A window of 4 admits only (1,<4,5,6>) in S1 (span 3) and
        // (2,<1,2,4>) in S2 (span 4).
        assert_eq!(
            constrained_support(&db, &acb, GapConstraints::max_window(4)),
            2
        );
        // A window of 2 cannot hold a 3-event pattern at all.
        assert_eq!(
            constrained_support(&db, &acb, GapConstraints::max_window(2)),
            0
        );
    }

    #[test]
    fn min_gap_excludes_adjacent_matches() {
        let db = SequenceDatabase::from_str_rows(&["ABAB"]);
        let ab = db.pattern_from_str("AB").unwrap();
        assert_eq!(
            constrained_support(&db, &ab, GapConstraints::unbounded()),
            2
        );
        // Requiring at least one event between A and B leaves only A@1,B@4.
        let spaced = GapConstraints::unbounded().with_min_gap(1);
        assert_eq!(constrained_support(&db, &ab, spaced), 1);
        // Requiring at least three events between them leaves nothing.
        let wide = GapConstraints::unbounded().with_min_gap(3);
        assert_eq!(constrained_support(&db, &ab, wide), 0);
    }

    #[test]
    fn constrained_support_never_exceeds_the_unconstrained_support() {
        let db = running_example();
        let sc = SupportComputer::new(&db);
        let cases = [
            GapConstraints::max_gap(0),
            GapConstraints::max_gap(1),
            GapConstraints::max_gap(3),
            GapConstraints::max_window(3),
            GapConstraints::max_window(5),
            GapConstraints::gap_range(1, 4),
        ];
        for s in ["AB", "AC", "ACB", "ACA", "AAD", "AD", "CD", "DD"] {
            let p = pattern(&db, s);
            let unconstrained = sc.support(&p);
            for c in cases {
                assert!(
                    constrained_support(&db, p.events(), c) <= unconstrained,
                    "pattern {s} under {}",
                    c.describe()
                );
            }
        }
    }

    #[test]
    fn prefix_anti_monotonicity_holds_under_constraints() {
        let db = running_example();
        let cases = [
            GapConstraints::max_gap(1),
            GapConstraints::max_window(5),
            GapConstraints::gap_range(1, 3),
        ];
        for c in cases {
            let csc = SupportComputer::new(&db).with_constraints(c);
            for s in ["ACB", "ACAD", "ABDD", "AAD"] {
                let p = pattern(&db, s);
                let mut prev = u64::MAX;
                for len in 1..=p.len() {
                    let sup = csc.support(&p.prefix(len));
                    assert!(
                        sup <= prev,
                        "constrained support must not increase along prefixes ({s}, {})",
                        c.describe()
                    );
                    prev = sup;
                }
            }
        }
    }

    #[test]
    fn constrained_miner_with_unbounded_constraints_equals_gsgrow() {
        let db = running_example();
        for min_sup in [2, 3] {
            let plain = all_patterns(&db, min_sup);
            let constrained = constrained_all(&db, min_sup, GapConstraints::unbounded());
            assert_eq!(
                pattern_set(&plain.patterns),
                pattern_set(&constrained.patterns)
            );
        }
    }

    #[test]
    fn constrained_mining_is_complete_for_its_own_support() {
        // Every reported pattern has constrained support >= min_sup, and
        // every pattern found by unconstrained mining whose constrained
        // support reaches the threshold is reported.
        let db = running_example();
        let constraints = GapConstraints::max_gap(2);
        let mined = constrained_all(&db, 2, constraints);
        for mp in &mined.patterns {
            assert!(mp.support >= 2);
            assert_eq!(
                mp.support,
                constrained_support(&db, mp.pattern.events(), constraints)
            );
        }
        let unconstrained = all_patterns(&db, 1);
        for mp in &unconstrained.patterns {
            let csup = constrained_support(&db, mp.pattern.events(), constraints);
            if csup >= 2 {
                assert!(
                    mined.contains(&mp.pattern),
                    "missing {:?} with constrained support {}",
                    mp.pattern,
                    csup
                );
            }
        }
    }

    #[test]
    fn closed_constrained_patterns_are_a_closed_subset() {
        let db = running_example();
        let constraints = GapConstraints::max_gap(3);
        let all = constrained_all(&db, 2, constraints);
        let closed = constrained_closed(&db, 2, constraints);
        assert!(!closed.is_empty());
        assert!(closed.len() <= all.len());
        // No closed pattern has a frequent super-pattern of equal support.
        for c in &closed.patterns {
            for other in &all.patterns {
                if other.pattern.is_proper_superpattern_of(&c.pattern) {
                    assert_ne!(
                        other.support, c.support,
                        "{:?} is not closed: {:?} has equal support",
                        c.pattern, other.pattern
                    );
                }
            }
        }
        // Every frequent pattern has a closed super-pattern (or itself) with
        // the same support in the closed result.
        for mp in &all.patterns {
            assert!(
                closed.patterns.iter().any(|c| c.support == mp.support
                    && (c.pattern == mp.pattern
                        || c.pattern.is_proper_superpattern_of(&mp.pattern))),
                "no closed representative for {:?}",
                mp.pattern
            );
        }
    }

    #[test]
    fn max_gap_can_make_a_super_pattern_more_frequent_than_its_sub_pattern() {
        // Documents why Theorem 5 pruning is unsound under constraints:
        // with contiguous matching, ABC occurs while AC does not.
        let db = SequenceDatabase::from_str_rows(&["ABCABC"]);
        let contiguous = GapConstraints::max_gap(0);
        let ac = db.pattern_from_str("AC").unwrap();
        let abc = db.pattern_from_str("ABC").unwrap();
        assert_eq!(constrained_support(&db, &ac, contiguous), 0);
        assert_eq!(constrained_support(&db, &abc, contiguous), 2);
    }

    #[test]
    fn empty_database_and_empty_pattern_edge_cases() {
        let db = SequenceDatabase::new();
        let outcome = constrained_all(&db, 1, GapConstraints::max_gap(1));
        assert!(outcome.is_empty());
        let db2 = running_example();
        let csc = SupportComputer::new(&db2).with_constraints(GapConstraints::max_gap(1));
        assert_eq!(csc.support(&Pattern::empty()), 0);
        assert!(csc.support_landmarks(&Pattern::empty()).is_empty());
    }

    #[test]
    fn truncation_and_length_caps_are_respected() {
        let db = running_example();
        let constrained = || {
            Miner::new(&db)
                .min_sup(1)
                .mode(Mode::All)
                .constraints(GapConstraints::max_gap(2))
        };
        let mined = constrained().max_patterns(4).keep_support_sets().run();
        assert!(mined.truncated);
        assert_eq!(mined.len(), 4);
        for mp in &mined.patterns {
            assert!(mp.support_set.is_some());
        }
        let short = constrained().max_pattern_length(2).run();
        assert!(short.max_pattern_length() <= 2);
    }
}
