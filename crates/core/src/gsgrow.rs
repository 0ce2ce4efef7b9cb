//! GSgrow (Algorithm 3): depth-first mining of **all** frequent repetitive
//! gapped subsequences.
//!
//! The miner embeds the instance-growth operation into a depth-first pattern
//! growth: starting from every frequent single event, it repeatedly grows
//! the current pattern `P` to `P ◦ e` by extending `P`'s leftmost support
//! set (Algorithm 2), and recurses while the support stays at or above
//! `min_sup` (Apriori property, Theorem 1).
//!
//! The walk itself is the crate's one DFS driver in [`crate::batch`]
//! (`Mode::All` requests run its GSgrow scan), and the frequent-event scan
//! of line 1 is `prepared::frequent_events`; this module holds the
//! algorithm's tests.

#[cfg(test)]
mod tests {

    use crate::pattern::Pattern;
    use crate::reference::{enumerate_frequent, pattern_set};
    use seqdb::SequenceDatabase;

    fn all_patterns(db: &seqdb::SequenceDatabase, min_sup: u64) -> crate::MiningOutcome {
        crate::Miner::new(db)
            .min_sup(min_sup)
            .mode(crate::Mode::All)
            .run()
    }

    fn simple_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCABCA", "AABBCCC"])
    }

    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    #[test]
    fn gsgrow_matches_brute_force_on_table_ii() {
        let db = simple_example();
        let mined = all_patterns(&db, 2);
        let brute = enumerate_frequent(&db, 2, 16);
        assert_eq!(pattern_set(&mined.patterns), pattern_set(&brute));
        for mp in &brute {
            assert_eq!(mined.support_of(&mp.pattern), Some(mp.support));
        }
    }

    #[test]
    fn gsgrow_matches_brute_force_on_table_iii() {
        let db = running_example();
        for min_sup in [2, 3, 4] {
            let mined = all_patterns(&db, min_sup);
            let brute = enumerate_frequent(&db, min_sup, 16);
            assert_eq!(
                pattern_set(&mined.patterns),
                pattern_set(&brute),
                "min_sup = {min_sup}"
            );
        }
    }

    #[test]
    fn example_3_4_frequent_patterns_with_prefix_a() {
        // With min_sup = 3 on Table III, AA is frequent but AAA is not
        // (|I_AAA| = 1 < 3).
        let db = running_example();
        let mined = all_patterns(&db, 3);
        let aa = Pattern::new(db.pattern_from_str("AA").unwrap());
        let aaa = Pattern::new(db.pattern_from_str("AAA").unwrap());
        assert_eq!(mined.support_of(&aa), Some(3));
        assert!(!mined.contains(&aaa));
    }

    #[test]
    fn every_emitted_pattern_meets_the_threshold() {
        let db = running_example();
        let mined = crate::Miner::new(&db)
            .min_sup(2)
            .mode(crate::Mode::All)
            .keep_support_sets()
            .run();
        assert!(!mined.is_empty());
        for mp in &mined.patterns {
            assert!(mp.support >= 2);
            let set = mp.support_set.as_ref().expect("support sets requested");
            assert_eq!(set.support(), mp.support);
        }
    }

    #[test]
    fn max_pattern_length_caps_the_dfs() {
        let db = running_example();
        let mined = crate::Miner::new(&db)
            .min_sup(2)
            .mode(crate::Mode::All)
            .max_pattern_length(2)
            .run();
        assert!(mined.max_pattern_length() <= 2);
        assert!(!mined.is_empty());
    }

    #[test]
    fn max_patterns_truncates_the_run() {
        let db = running_example();
        let mined = crate::Miner::new(&db)
            .min_sup(1)
            .mode(crate::Mode::All)
            .max_patterns(5)
            .run();
        assert!(mined.truncated);
        assert_eq!(mined.len(), 5);
    }

    #[test]
    fn high_threshold_yields_only_single_events_or_nothing() {
        let db = simple_example();
        let mined = all_patterns(&db, 5);
        // A occurs 5 times; B and C occur 5 times? A: 4+... let's just check
        // every mined pattern really has support >= 5 and no super-pattern
        // sneaks in below threshold.
        for mp in &mined.patterns {
            assert!(mp.support >= 5, "{mp:?}");
        }
    }

    #[test]
    fn empty_database_yields_empty_result() {
        let db = SequenceDatabase::new();
        let mined = all_patterns(&db, 1);
        assert!(mined.is_empty());
        assert!(!mined.truncated);
    }

    #[test]
    fn stats_report_positive_work() {
        let db = running_example();
        let mined = all_patterns(&db, 2);
        assert!(mined.stats.visited > 0);
        assert!(mined.stats.instance_growths > 0);
        assert!(mined.stats.elapsed_seconds >= 0.0);
    }
}
