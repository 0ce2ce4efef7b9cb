//! Top-k mining of repetitive gapped subsequences.
//!
//! For exploratory use, choosing `min_sup` is awkward: too low and the
//! result explodes (the paper's Figures 2–6 show exactly this), too high and
//! nothing interesting is found. Top-k mining sidesteps the problem by
//! asking for the `k` most frequent patterns of at least a minimum length,
//! raising the support threshold dynamically as better patterns are found
//! (in the spirit of TSP-style top-k closed sequential pattern mining).
//!
//! The search is the same prefix DFS as GSgrow; the Apriori property lets
//! the miner prune any subtree whose root support is already below the
//! current dynamic threshold, because no descendant can beat it. Requests
//! ask for it with [`crate::Miner::top_k`]; the crate's one DFS driver in
//! [`crate::batch`] runs it as a top-k member of a GSgrow scan. This module
//! holds its tests.

#[cfg(test)]
mod tests {

    use seqdb::SequenceDatabase;

    use crate::engine::{Miner, Mode};
    use crate::prepared::PreparedDb;

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

    /// A ranked run: the `k` best patterns of length at least `min_len`,
    /// closed ones only when `closed_only`, with no support floor.
    fn top_k(db: &SequenceDatabase, k: usize, min_len: usize, closed_only: bool) -> Miner {
        let mode = if closed_only { Mode::Closed } else { Mode::All };
        Miner::new(db)
            .min_sup(1)
            .mode(mode)
            .top_k(k)
            .min_len(min_len)
    }

    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    fn simple_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCABCA", "AABBCCC"])
    }

    #[test]
    fn top_k_returns_at_most_k_patterns_sorted_by_support() {
        let db = running_example();
        let outcome = top_k(&db, 5, 2, true).run();
        assert!(outcome.len() <= 5);
        assert!(!outcome.is_empty());
        for w in outcome.patterns.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
        for mp in &outcome.patterns {
            assert!(mp.pattern.len() >= 2);
        }
    }

    #[test]
    fn top_k_closed_matches_exhaustive_closed_mining() {
        // The k best closed patterns of length >= 2 must agree (as a support
        // multiset) with sorting the full closed result.
        let db = running_example();
        for k in [1, 3, 5, 10] {
            let topk = top_k(&db, k, 2, true).run();
            let mut full = closed_patterns(&db, 1);
            full.patterns.retain(|mp| mp.pattern.len() >= 2);
            full.sort_for_report();
            let expected: Vec<u64> = full.patterns.iter().take(k).map(|mp| mp.support).collect();
            let got: Vec<u64> = topk.patterns.iter().map(|mp| mp.support).collect();
            assert_eq!(got, expected, "k = {k}");
        }
    }

    #[test]
    fn top_k_including_non_closed_matches_exhaustive_all_mining() {
        let db = simple_example();
        for k in [1, 4, 8] {
            let topk = top_k(&db, k, 2, false).run();
            let mut full = all_patterns(&db, 1);
            full.patterns.retain(|mp| mp.pattern.len() >= 2);
            full.sort_for_report();
            let expected: Vec<u64> = full.patterns.iter().take(k).map(|mp| mp.support).collect();
            let got: Vec<u64> = topk.patterns.iter().map(|mp| mp.support).collect();
            assert_eq!(got, expected, "k = {k}");
        }
    }

    #[test]
    fn min_len_one_lets_single_events_compete() {
        let db = running_example();
        let outcome = top_k(&db, 3, 1, false).run();
        // The best support is 5 (A, D, and the length-2 pattern AD all reach
        // it); the length-desc tie-break puts AD first, and the single
        // events are allowed to occupy the remaining slots.
        assert_eq!(outcome.patterns[0].support, 5);
        assert_eq!(outcome.patterns.len(), 3);
        assert!(outcome.patterns.iter().all(|mp| mp.support == 5));
        assert!(outcome.patterns.iter().any(|mp| mp.pattern.len() == 1));
    }

    #[test]
    fn support_floor_filters_low_support_patterns() {
        let db = running_example();
        let outcome = top_k(&db, 50, 2, true).min_sup(3).run();
        assert!(!outcome.is_empty());
        for mp in &outcome.patterns {
            assert!(mp.support >= 3, "{mp:?}");
        }
    }

    #[test]
    fn k_zero_and_empty_database_yield_empty_results() {
        let db = running_example();
        assert!(top_k(&db, 0, 2, true).run().is_empty());
        let empty = SequenceDatabase::new();
        assert!(top_k(&empty, 5, 2, true).run().is_empty());
    }

    #[test]
    fn max_pattern_length_caps_exploration() {
        let db = running_example();
        let outcome = top_k(&db, 10, 2, false).max_pattern_length(2).run();
        assert!(outcome.max_pattern_length() <= 2);
    }

    #[test]
    fn every_reported_pattern_has_its_true_support() {
        let db = simple_example();
        let prepared = PreparedDb::new(&db);
        let sc = prepared.support_computer();
        let outcome = top_k(&db, 6, 2, true).run();
        for mp in &outcome.patterns {
            assert_eq!(sc.support(&mp.pattern), mp.support);
        }
    }
}
