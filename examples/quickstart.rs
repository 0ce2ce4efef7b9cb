//! Quickstart: mine closed repetitive gapped subsequences from a small
//! in-memory database and inspect supports and support sets.
//!
//! Run with `cargo run --example quickstart`.

use repetitive_gapped_mining::prelude::*;

fn main() {
    // The running example of the paper (Table III):
    //   S1 = A B C A C B D D B
    //   S2 = A C D B A C A D D
    let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
    println!("dataset: {}", db.stats().summary());

    // 1. Repetitive support of a single pattern.
    let acb = db.pattern_from_str("ACB").expect("events exist");
    println!("sup(ACB) = {}", repetitive_support(&db, &acb));

    // 2. Prepare the database once: the interning, the inverted index, and
    //    the frequent-event counts are shared by every query below.
    let prepared = PreparedDb::new(&db);

    // The leftmost support set, with full landmarks (Table IV), through the
    // snapshot's support computer (no index rebuild).
    let sc = prepared.support_computer();
    let pattern = Pattern::new(acb.clone());
    for landmark in sc.support_landmarks(&pattern) {
        println!("  instance {landmark}");
    }

    // 3. Mine all frequent patterns and the closed subset at min_sup = 3 —
    //    two queries borrowing one prepared snapshot.
    let all = prepared.miner().min_sup(3).mode(Mode::All).run();
    let closed = prepared.miner().min_sup(3).mode(Mode::Closed).run();
    println!(
        "min_sup = 3: {} frequent patterns, {} closed patterns",
        all.len(),
        closed.len()
    );

    // Streaming consumption: a sink sees each pattern as the search finds
    // it instead of materializing; `Break` cancels the rest of the search.
    prepared
        .miner()
        .min_sup(3)
        .mode(Mode::Closed)
        .run_with_sink(&mut |first: MinedPattern| {
            println!(
                "first closed pattern in DFS order: {} (sup = {})",
                first.pattern.render(db.catalog()),
                first.support
            );
            std::ops::ControlFlow::Break(())
        });

    // 4. Show the closed patterns with their supports.
    let mut report = closed.clone();
    report.sort_for_report();
    for mined in &report.patterns {
        println!(
            "  closed: {:<6} sup = {}",
            mined.pattern.render(db.catalog()),
            mined.support
        );
    }

    // 5. The non-closed pattern AB is covered by ACB (same support), so it
    //    is absent from the closed result but derivable from it.
    let ab = Pattern::new(db.pattern_from_str("AB").expect("events exist"));
    assert!(all.contains(&ab));
    assert!(!closed.contains(&ab));
    println!("AB is frequent but not closed: it is subsumed by ACB with equal support");
}
