//! CloGSgrow (Algorithm 4): depth-first mining of **closed** frequent
//! repetitive gapped subsequences.
//!
//! The DFS is the same as GSgrow's, with two additions per visited pattern
//! `P` (Algorithm 4, lines 6–7):
//!
//! * **landmark border checking** (`LBCheck`, Theorem 5) — if it says
//!   *prune*, neither `P` nor any pattern with prefix `P` can be closed, so
//!   the whole subtree is skipped;
//! * **closure checking** (`CCheck`, Theorem 4) — `P` is emitted only when
//!   no extension of `P` has equal support.
//!
//! Both checks live in [`crate::closure`]; the walk is the crate's one DFS
//! driver in [`crate::batch`], whose Closed scan applies them at every
//! node. This module holds the algorithm's tests.

#[cfg(test)]
mod tests {

    use seqdb::SequenceDatabase;

    use crate::config::MiningConfig;
    use crate::pattern::Pattern;
    use crate::reference::{closed_subset, pattern_set};

    fn all_patterns(
        db: &seqdb::SequenceDatabase,
        config: &crate::MiningConfig,
    ) -> crate::MiningOutcome {
        crate::Miner::new(db)
            .from_config(config)
            .mode(crate::Mode::All)
            .run()
    }

    fn closed_patterns(
        db: &seqdb::SequenceDatabase,
        config: &crate::MiningConfig,
    ) -> crate::MiningOutcome {
        crate::Miner::new(db)
            .from_config(config)
            .mode(crate::Mode::Closed)
            .run()
    }

    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    fn simple_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCABCA", "AABBCCC"])
    }

    #[test]
    fn closed_set_equals_reference_filter_of_all_patterns_table_iii() {
        let db = running_example();
        for min_sup in [2, 3, 4, 5] {
            let all = all_patterns(&db, &MiningConfig::new(min_sup));
            let expected = closed_subset(&all.patterns);
            let closed = closed_patterns(&db, &MiningConfig::new(min_sup));
            assert_eq!(
                pattern_set(&closed.patterns),
                pattern_set(&expected),
                "min_sup = {min_sup}"
            );
            for mp in &expected {
                assert_eq!(closed.support_of(&mp.pattern), Some(mp.support));
            }
        }
    }

    #[test]
    fn closed_set_equals_reference_filter_on_table_ii() {
        let db = simple_example();
        for min_sup in [2, 3, 4] {
            let all = all_patterns(&db, &MiningConfig::new(min_sup));
            let expected = closed_subset(&all.patterns);
            let closed = closed_patterns(&db, &MiningConfig::new(min_sup));
            assert_eq!(
                pattern_set(&closed.patterns),
                pattern_set(&expected),
                "min_sup = {min_sup}"
            );
        }
    }

    #[test]
    fn ab_is_not_reported_but_abd_is() {
        // Example 3.5/3.6 with min_sup = 3.
        let db = running_example();
        let closed = closed_patterns(&db, &MiningConfig::new(3));
        let ab = Pattern::new(db.pattern_from_str("AB").unwrap());
        let abd = Pattern::new(db.pattern_from_str("ABD").unwrap());
        let aa = Pattern::new(db.pattern_from_str("AA").unwrap());
        let aad = Pattern::new(db.pattern_from_str("AAD").unwrap());
        assert!(
            !closed.contains(&ab),
            "AB has the equal-support extension ACB"
        );
        assert!(closed.contains(&abd), "ABD is closed");
        assert!(
            !closed.contains(&aa),
            "AA is pruned by landmark border checking"
        );
        assert!(
            !closed.contains(&aad),
            "AAD is not closed (ACAD has equal support)"
        );
    }

    #[test]
    fn landmark_border_pruning_fires_on_the_running_example() {
        let db = running_example();
        let closed = closed_patterns(&db, &MiningConfig::new(3));
        assert!(closed.stats.landmark_border_prunes > 0);
        // Pruning must visit no more nodes than plain GSgrow.
        let all = all_patterns(&db, &MiningConfig::new(3));
        assert!(closed.stats.visited <= all.stats.visited);
    }

    #[test]
    fn closed_output_is_never_larger_than_all_output() {
        for rows in [
            vec!["ABCABCA", "AABBCCC"],
            vec!["ABCACBDDB", "ACDBACADD"],
            vec!["AABCDABB", "ABCD"],
            vec!["ABABABAB", "BABA", "AABB"],
        ] {
            let db = SequenceDatabase::from_str_rows(&rows);
            for min_sup in [1, 2, 3] {
                let all = all_patterns(&db, &MiningConfig::new(min_sup));
                let closed = closed_patterns(&db, &MiningConfig::new(min_sup));
                assert!(closed.len() <= all.len(), "rows {rows:?} min_sup {min_sup}");
            }
        }
    }

    #[test]
    fn every_frequent_pattern_has_a_closed_superpattern_with_equal_support() {
        // The compactness guarantee that makes the closed set a lossless
        // representation (Lemma 2).
        let db = running_example();
        let min_sup = 2;
        let all = all_patterns(&db, &MiningConfig::new(min_sup));
        let closed = closed_patterns(&db, &MiningConfig::new(min_sup));
        for mp in &all.patterns {
            let covered = closed.patterns.iter().any(|cp| {
                cp.support == mp.support
                    && (cp.pattern == mp.pattern || mp.pattern.is_subpattern_of(&cp.pattern))
            });
            assert!(covered, "{:?} (sup {}) not covered", mp.pattern, mp.support);
        }
    }

    #[test]
    fn ablation_without_landmark_pruning_yields_identical_patterns() {
        // Theorem 5 only prunes search; the mined closed set is unchanged,
        // but more DFS nodes are visited without it.
        for rows in [
            vec!["ABCACBDDB", "ACDBACADD"],
            vec!["ABCABCA", "AABBCCC"],
            vec!["ABABABAB", "BABA", "AABB"],
        ] {
            let db = SequenceDatabase::from_str_rows(&rows);
            for min_sup in [2, 3] {
                let pruned = closed_patterns(&db, &MiningConfig::new(min_sup));
                let unpruned =
                    closed_patterns(&db, &MiningConfig::new(min_sup).without_landmark_pruning());
                assert_eq!(
                    crate::reference::pattern_set(&pruned.patterns),
                    crate::reference::pattern_set(&unpruned.patterns),
                    "rows {rows:?} min_sup {min_sup}"
                );
                assert!(unpruned.stats.visited >= pruned.stats.visited);
                assert_eq!(unpruned.stats.landmark_border_prunes, 0);
            }
        }
    }

    #[test]
    fn max_patterns_truncates_closed_mining_too() {
        let db = running_example();
        let closed = closed_patterns(&db, &MiningConfig::new(1).with_max_patterns(3));
        assert!(closed.truncated);
        assert_eq!(closed.len(), 3);
    }

    #[test]
    fn empty_database_yields_empty_closed_result() {
        let db = SequenceDatabase::new();
        let closed = closed_patterns(&db, &MiningConfig::new(1));
        assert!(closed.is_empty());
    }

    #[test]
    fn single_sequence_of_repeats_reports_the_long_closed_pattern() {
        // In AAAA, instances of AA may share positions at *different*
        // pattern indices (Definition 2.3), so <1,2>, <2,3>, <3,4> are
        // pairwise non-overlapping: sup(A) = 4, sup(AA) = 3, sup(AAA) = 2,
        // sup(AAAA) = 1. With min_sup = 2 all of A, AA, AAA are closed
        // (each super-pattern has strictly smaller support).
        let db = SequenceDatabase::from_str_rows(&["AAAA"]);
        let closed = closed_patterns(&db, &MiningConfig::new(2));
        let a = Pattern::new(db.pattern_from_str("A").unwrap());
        let aa = Pattern::new(db.pattern_from_str("AA").unwrap());
        let aaa = Pattern::new(db.pattern_from_str("AAA").unwrap());
        assert_eq!(closed.support_of(&a), Some(4));
        assert_eq!(closed.support_of(&aa), Some(3));
        assert_eq!(closed.support_of(&aaa), Some(2));
        assert_eq!(closed.len(), 3);
    }
}
