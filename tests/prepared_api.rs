//! Integration suite for the prepared-query engine: `PreparedDb` reuse,
//! `Arc` sharing across threads, `Miner::prepare`, and the pull-based
//! `PatternStream` — all pinned against the lazy `Miner::new` path.

use std::sync::Arc;

use repetitive_gapped_mining::core::DEFAULT_TOP_K;
use repetitive_gapped_mining::prelude::*;
use repetitive_gapped_mining::synthgen::TcasConfig;

/// Every pattern family a request can ask for: the three modes, and
/// ranked closed mining at the default `k`.
const FAMILIES: [(Mode, Option<usize>); 4] = [
    (Mode::All, None),
    (Mode::Closed, None),
    (Mode::Maximal, None),
    (Mode::Closed, Some(DEFAULT_TOP_K)),
];

fn family(mode: Mode, top_k: Option<usize>) -> MiningRequest {
    MiningRequest {
        mode,
        top_k,
        ..MiningRequest::default()
    }
}

fn running_example() -> SequenceDatabase {
    SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
}

fn tcas() -> SequenceDatabase {
    TcasConfig::default().scaled_down(32).generate()
}

#[test]
fn one_prepared_db_serves_every_query_shape() {
    let db = tcas();
    let prepared = PreparedDb::new(&db);
    let min_sup = (db.num_sequences() as u64) * 2;
    for (mode, top_k) in FAMILIES {
        for constraints in [GapConstraints::unbounded(), GapConstraints::max_gap(2)] {
            let fresh = Miner::new(&db)
                .with_request(family(mode, top_k))
                .min_sup(min_sup)
                .constraints(constraints)
                .run();
            let reused = prepared
                .miner()
                .with_request(family(mode, top_k))
                .min_sup(min_sup)
                .constraints(constraints)
                .run();
            assert_eq!(
                fresh.patterns,
                reused.patterns,
                "{mode:?} top_k {top_k:?} with {} diverges between lazy and prepared paths",
                constraints.describe()
            );
        }
    }
}

#[test]
fn miner_prepare_snapshots_the_database() {
    let db = running_example();
    let prepared = Miner::new(&db).prepare();
    let expected = Miner::new(&db).min_sup(2).run();
    drop(db); // the snapshot owns everything it needs
    let outcome = prepared.miner().min_sup(2).run();
    assert_eq!(outcome.patterns, expected.patterns);
    assert_eq!(prepared.frequent_events(2).len(), 4);
}

#[test]
fn arc_shared_snapshot_answers_concurrent_queries() {
    let prepared = Arc::new(PreparedDb::from_database(tcas()));
    let min_sup = (prepared.database().num_sequences() as u64) * 2;
    let expected = prepared.miner().min_sup(min_sup).mode(Mode::Closed).run();
    let handles: Vec<_> = (0..4u64)
        .map(|worker| {
            let shared = Arc::clone(&prepared);
            std::thread::spawn(move || {
                // Each worker issues a differently-shaped query plus the
                // common one, all borrowing the same snapshot.
                let common = Miner::from_shared(Arc::clone(&shared))
                    .min_sup(min_sup)
                    .mode(Mode::Closed)
                    .run();
                let own = Miner::from_shared(shared)
                    .min_sup(min_sup + worker)
                    .mode(Mode::All)
                    .run();
                (common.patterns, own.len())
            })
        })
        .collect();
    for handle in handles {
        let (common, _own) = handle.join().expect("query thread");
        assert_eq!(common, expected.patterns);
    }
}

#[test]
fn stream_equals_run_for_every_mode_and_source() {
    let db = running_example();
    let prepared = PreparedDb::new(&db);
    for (mode, top_k) in FAMILIES {
        for constraints in [GapConstraints::unbounded(), GapConstraints::max_gap(2)] {
            let lazy_session = Miner::new(&db)
                .with_request(family(mode, top_k))
                .min_sup(2)
                .constraints(constraints)
                .session();
            let prepared_session = prepared
                .miner()
                .with_request(family(mode, top_k))
                .min_sup(2)
                .constraints(constraints)
                .session();
            let expected = lazy_session.run().patterns;
            assert_eq!(
                lazy_session.stream().collect::<Vec<_>>(),
                expected,
                "lazy stream diverges for {mode:?} top_k {top_k:?} / {}",
                constraints.describe()
            );
            assert_eq!(
                prepared_session.stream().collect::<Vec<_>>(),
                expected,
                "prepared stream diverges for {mode:?} top_k {top_k:?} / {}",
                constraints.describe()
            );
        }
    }
}

#[test]
fn stream_supports_early_exit_and_iterator_composition() {
    let db = running_example();
    let session = Miner::new(&db).min_sup(2).mode(Mode::All).session();
    let full = session.run();
    assert!(full.len() > 5, "need enough patterns to early-exit");

    // `take` pulls exactly the prefix of the materialized order.
    let prefix: Vec<MinedPattern> = session.stream().take(5).collect();
    assert_eq!(prefix.as_slice(), &full.patterns[..5]);

    // `find` early-exits as soon as the predicate matches.
    let long = session.stream().find(|mp| mp.pattern.len() >= 3);
    assert_eq!(
        long,
        full.patterns
            .iter()
            .find(|mp| mp.pattern.len() >= 3)
            .cloned()
    );

    // Adapters compose: support histogram over a bounded prefix.
    let total: u64 = session.stream().take(10).map(|mp| mp.support).sum();
    assert_eq!(
        total,
        full.patterns[..10].iter().map(|mp| mp.support).sum::<u64>()
    );
}

#[test]
fn stream_reports_truncation_like_the_push_path() {
    let db = running_example();
    let session = Miner::new(&db)
        .min_sup(1)
        .mode(Mode::All)
        .max_patterns(4)
        .session();
    let mut stream = session.stream();
    let pulled: Vec<MinedPattern> = stream.by_ref().collect();
    let outcome = session.run();
    assert!(outcome.truncated);
    assert_eq!(pulled, outcome.patterns);
    assert!(stream.truncated());
    assert_eq!(stream.emitted(), 4);
}

#[test]
fn parallel_sessions_stream_the_merged_result() {
    let db = running_example();
    let session = Miner::new(&db)
        .min_sup(2)
        .mode(Mode::Closed)
        .threads(4)
        .session();
    assert_eq!(session.stream().collect::<Vec<_>>(), session.run().patterns);
}
