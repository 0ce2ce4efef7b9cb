//! Cross-crate integration tests encoding the worked examples of the paper
//! end to end through the umbrella crate's public API.

use repetitive_gapped_mining::prelude::*;

/// Table III of the paper: S1 = ABCACBDDB, S2 = ACDBACADD.
fn running_example() -> SequenceDatabase {
    SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
}

#[test]
fn example_1_1_supports() {
    let db = SequenceDatabase::from_str_rows(&["AABCDABB", "ABCD"]);
    let ab = db.pattern_from_str("AB").unwrap();
    let cd = db.pattern_from_str("CD").unwrap();
    assert_eq!(repetitive_support(&db, &ab), 4);
    assert_eq!(repetitive_support(&db, &cd), 2);
}

#[test]
fn example_2_2_and_2_3_supports_and_closedness() {
    let db = SequenceDatabase::from_str_rows(&["ABCABCA", "AABBCCC"]);
    let ab = db.pattern_from_str("AB").unwrap();
    let aba = db.pattern_from_str("ABA").unwrap();
    let abc = db.pattern_from_str("ABC").unwrap();
    assert_eq!(repetitive_support(&db, &ab), 4);
    assert_eq!(repetitive_support(&db, &aba), 2);
    assert_eq!(repetitive_support(&db, &abc), 4);

    // Because sup(AB) = sup(ABC), AB is not closed.
    let closed = Miner::new(&db).min_sup(2).mode(Mode::Closed).run();
    assert!(!closed.contains(&Pattern::new(ab)));
    assert!(closed.contains(&Pattern::new(abc)));
}

#[test]
fn example_3_1_instance_growth_supports() {
    let db = running_example();
    for (pattern, expected) in [("A", 5), ("AC", 4), ("ACB", 3), ("ACA", 3)] {
        let events = db.pattern_from_str(pattern).unwrap();
        assert_eq!(repetitive_support(&db, &events), expected, "sup({pattern})");
    }
}

#[test]
fn table_iv_support_set_instances() {
    let db = running_example();
    let acb = Pattern::new(db.pattern_from_str("ACB").unwrap());
    let set = PreparedDb::new(&db).support_computer().support_set(&acb);
    let instances: Vec<(u32, u32, u32)> = set
        .instances()
        .iter()
        .map(|i| (i.seq, i.first, i.last))
        .collect();
    assert_eq!(instances, vec![(0, 1, 6), (0, 4, 9), (1, 1, 4)]);
}

#[test]
fn example_3_4_apriori_pruning() {
    // With min_sup = 3, AA is frequent (3) but AAA is not (1).
    let db = running_example();
    let all = Miner::new(&db).min_sup(3).mode(Mode::All).run();
    assert_eq!(
        all.support_of(&Pattern::new(db.pattern_from_str("AA").unwrap())),
        Some(3)
    );
    assert!(!all.contains(&Pattern::new(db.pattern_from_str("AAA").unwrap())));
}

#[test]
fn examples_3_5_and_3_6_closed_mining() {
    let db = running_example();
    let closed = Miner::new(&db).min_sup(3).mode(Mode::Closed).run();
    // AB is frequent but not closed (ACB has the same support); ABD is
    // closed; AA is pruned by landmark border checking; AAD is not closed
    // (ACAD has equal support).
    assert!(!closed.contains(&Pattern::new(db.pattern_from_str("AB").unwrap())));
    assert!(closed.contains(&Pattern::new(db.pattern_from_str("ABD").unwrap())));
    assert!(!closed.contains(&Pattern::new(db.pattern_from_str("AA").unwrap())));
    assert!(!closed.contains(&Pattern::new(db.pattern_from_str("AAD").unwrap())));
    // ACB, ACA and ACAD are closed representatives with support 3.
    assert_eq!(
        closed.support_of(&Pattern::new(db.pattern_from_str("ACB").unwrap())),
        Some(3)
    );
    assert_eq!(
        closed.support_of(&Pattern::new(db.pattern_from_str("ACAD").unwrap())),
        Some(3)
    );
}

#[test]
fn closed_result_is_a_compact_lossless_summary_of_all_result() {
    let db = running_example();
    for min_sup in [2, 3] {
        let all = Miner::new(&db).min_sup(min_sup).mode(Mode::All).run();
        let closed = Miner::new(&db).min_sup(min_sup).mode(Mode::Closed).run();
        assert!(closed.len() <= all.len());
        for mined in &all.patterns {
            assert!(
                closed.patterns.iter().any(|cp| cp.support == mined.support
                    && (cp.pattern == mined.pattern
                        || mined.pattern.is_subpattern_of(&cp.pattern))),
                "{} not covered",
                mined.pattern.render(db.catalog())
            );
        }
    }
}

#[test]
fn introduction_overcounting_example() {
    // SeqDB = {AABBCC...ZZ}: the naive "count all instances" support would
    // give 2^26 for the full alphabet pattern; repetitive support gives 2.
    let doubled: String = ('A'..='Z').flat_map(|c| [c, c]).collect();
    let db = SequenceDatabase::from_str_rows(&[doubled.as_str()]);
    let full: String = ('A'..='Z').collect();
    let pattern = db.pattern_from_str(&full).unwrap();
    assert_eq!(repetitive_support(&db, &pattern), 2);
    let ab = db.pattern_from_str("AB").unwrap();
    assert_eq!(repetitive_support(&db, &ab), 2);
}

#[test]
fn umbrella_prelude_covers_the_whole_pipeline() {
    // generator -> miner -> post-processing through the re-exported API.
    use repetitive_gapped_mining::synthgen::QuestConfig;
    let db = QuestConfig {
        num_sequences: 60,
        avg_sequence_length: 12,
        num_events: 30,
        avg_pattern_length: 4,
        num_patterns: 8,
        ..QuestConfig::default()
    }
    .generate();
    let closed = Miner::new(&db)
        .min_sup(10)
        .mode(Mode::Closed)
        .max_patterns(50_000)
        .run();
    let processed = postprocess(&closed.patterns, &PostProcessConfig::default());
    assert!(processed.len() <= closed.len());
    for mined in &processed {
        assert!(mined.support >= 10);
    }
}
