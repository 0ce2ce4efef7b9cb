//! Maximal frequent pattern mining.
//!
//! A frequent pattern `P` is **maximal** when no proper super-pattern of `P`
//! is frequent. Maximal patterns are an even more compact representation
//! than closed patterns (every maximal pattern is closed, but not vice
//! versa); they lose the exact supports of their sub-patterns but keep the
//! frontier of "longest things that still repeat often enough", which is what
//! the case-study post-processing of §IV-B ultimately reports (its
//! *maximality* filter keeps only patterns not subsumed by a longer reported
//! pattern).
//!
//! `Mode::Maximal` runs keep the patterns of a complete closed-pattern run
//! with no frequent proper super-pattern ([`maximal_subset`]). That is
//! sound: if `P` has a frequent proper super-pattern `Q`, then `Q` has a
//! closed super-pattern `Q'` with `sup(Q') = sup(Q) ≥ min_sup` (Lemma 2),
//! and `Q'` is also a proper super-pattern of `P`, so the subsumption is
//! witnessed inside the closed set. [`is_maximal`] is a direct
//! definition-level check for a single pattern, used by tests and by
//! callers who already have a candidate.

use seqdb::{EventId, SequenceDatabase};

use crate::pattern::Pattern;
use crate::prepared::{frequent_events, PreparedDb};
use crate::result::MinedPattern;

/// Filters a set of mined patterns down to the maximal ones: patterns not
/// properly contained in any other pattern of the set.
///
/// The input must be a *complete* frequent (or closed-frequent) result for
/// the subsumption test to coincide with the definition of maximality.
pub fn maximal_subset(patterns: &[MinedPattern]) -> Vec<MinedPattern> {
    patterns
        .iter()
        .filter(|candidate| {
            !patterns
                .iter()
                .any(|other| other.pattern.is_proper_superpattern_of(&candidate.pattern))
        })
        .cloned()
        .collect()
}

/// Checks directly whether `pattern` is a maximal frequent pattern of `db`
/// at threshold `min_sup`: it is frequent and no single-event extension
/// (append, interior insertion, or prepend — Definition 3.4) is frequent.
///
/// Single-event extensions suffice: any frequent proper super-pattern of `P`
/// contains, by the Apriori property, a frequent super-pattern of `P` with
/// exactly one more event.
pub fn is_maximal(db: &SequenceDatabase, pattern: &Pattern, min_sup: u64) -> bool {
    let prepared = PreparedDb::new(db);
    let sc = prepared.support_computer();
    if pattern.is_empty() || sc.support(pattern) < min_sup {
        return false;
    }
    let events: Vec<EventId> = frequent_events(sc.index(), min_sup);
    for slot in 0..=pattern.len() {
        for &event in &events {
            let extension = pattern.extend_at(slot, event);
            if sc.support(&extension) >= min_sup {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {

    use super::*;

    fn all_patterns(db: &seqdb::SequenceDatabase, min_sup: u64) -> crate::MiningOutcome {
        crate::Miner::new(db)
            .min_sup(min_sup)
            .mode(crate::Mode::All)
            .run()
    }

    fn closed_patterns(db: &seqdb::SequenceDatabase, min_sup: u64) -> crate::MiningOutcome {
        crate::Miner::new(db)
            .min_sup(min_sup)
            .mode(crate::Mode::Closed)
            .run()
    }

    fn maximal_patterns(db: &seqdb::SequenceDatabase, min_sup: u64) -> crate::MiningOutcome {
        crate::Miner::new(db)
            .min_sup(min_sup)
            .mode(crate::Mode::Maximal)
            .run()
    }

    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    fn simple_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCABCA", "AABBCCC"])
    }

    #[test]
    fn maximal_patterns_are_a_subset_of_closed_patterns() {
        let db = running_example();
        for min_sup in [2, 3] {
            let closed = closed_patterns(&db, min_sup);
            let maximal = maximal_patterns(&db, min_sup);
            assert!(!maximal.is_empty());
            assert!(maximal.len() <= closed.len());
            for mp in &maximal.patterns {
                assert!(closed.contains(&mp.pattern), "{:?}", mp.pattern);
            }
        }
    }

    #[test]
    fn no_maximal_pattern_is_contained_in_another_frequent_pattern() {
        let db = running_example();
        let min_sup = 3;
        let all = all_patterns(&db, min_sup);
        let maximal = maximal_patterns(&db, min_sup);
        for mp in &maximal.patterns {
            for other in &all.patterns {
                assert!(
                    !other.pattern.is_proper_superpattern_of(&mp.pattern),
                    "{:?} is subsumed by frequent {:?}",
                    mp.pattern,
                    other.pattern
                );
            }
        }
    }

    #[test]
    fn every_frequent_pattern_is_contained_in_some_maximal_pattern() {
        let db = simple_example();
        let min_sup = 2;
        let all = all_patterns(&db, min_sup);
        let maximal = maximal_patterns(&db, min_sup);
        for mp in &all.patterns {
            assert!(
                maximal
                    .patterns
                    .iter()
                    .any(|max| mp.pattern == max.pattern
                        || mp.pattern.is_subpattern_of(&max.pattern)),
                "{:?} not covered by any maximal pattern",
                mp.pattern
            );
        }
    }

    #[test]
    fn mine_maximal_agrees_with_the_direct_definition_check() {
        let db = running_example();
        let min_sup = 3;
        let all = all_patterns(&db, min_sup);
        let maximal = maximal_patterns(&db, min_sup);
        for mp in &all.patterns {
            let in_maximal = maximal.contains(&mp.pattern);
            assert_eq!(
                is_maximal(&db, &mp.pattern, min_sup),
                in_maximal,
                "{:?}",
                mp.pattern
            );
        }
    }

    #[test]
    fn is_maximal_rejects_infrequent_and_empty_patterns() {
        let db = running_example();
        assert!(!is_maximal(&db, &Pattern::empty(), 1));
        // AAA has support 1 < 2.
        let aaa = Pattern::new(db.pattern_from_str("AAA").unwrap());
        assert!(!is_maximal(&db, &aaa, 2));
    }

    #[test]
    fn maximal_subset_of_an_explicit_list() {
        let db = simple_example();
        let p = |s: &str| Pattern::new(db.pattern_from_str(s).unwrap());
        let list = vec![
            MinedPattern::new(p("AB"), 4),
            MinedPattern::new(p("ABC"), 4),
            MinedPattern::new(p("C"), 5),
        ];
        let maximal = maximal_subset(&list);
        let kept: Vec<&Pattern> = maximal.iter().map(|mp| &mp.pattern).collect();
        assert!(kept.contains(&&p("ABC")));
        assert!(!kept.contains(&&p("AB")));
        // C is not a sub-pattern of ABC? It is (C occurs in ABC), so it is
        // dropped as well.
        assert!(!kept.contains(&&p("C")));
        assert_eq!(maximal.len(), 1);
    }
}
