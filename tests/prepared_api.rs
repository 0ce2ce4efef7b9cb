//! Integration suite for the prepared-query engine: `PreparedDb` reuse,
//! sharing across threads, and the `Miner` that owns its snapshot — all
//! pinned against the one-shot `Miner::new` path.

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

/// A miner owns its `PreparedDb`, so every miner can move into another
/// thread, whatever built it.
const _: () = {
    const fn assert_send_sync_static<T: Send + Sync + 'static>() {}
    assert_send_sync_static::<Miner>();
};

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
                "{mode:?} top_k {top_k:?} with {} diverges between one-shot and shared preparations",
                constraints.describe()
            );
        }
    }
}

#[test]
fn miner_prepare_snapshots_the_database() {
    let db = running_example();
    let miner = Miner::new(&db).min_sup(2);
    let prepared = PreparedDb::new(&db);
    let expected = prepared.miner().min_sup(2).run();
    drop(db); // the miner's snapshot owns everything it needs
    assert_eq!(miner.run().patterns, expected.patterns);
    assert_eq!(prepared.frequent_events(2).len(), 4);
}

#[test]
fn a_miner_over_a_bare_database_moves_into_a_thread() {
    let db = running_example();
    let expected = Miner::new(&db).min_sup(2).mode(Mode::All).run();
    let miner = Miner::new(&db).min_sup(2).mode(Mode::All);
    drop(db);
    let patterns = std::thread::spawn(move || miner.run().patterns)
        .join()
        .expect("mining thread");
    assert_eq!(patterns, expected.patterns);
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
                let common = shared.miner().min_sup(min_sup).mode(Mode::Closed).run();
                let own = shared
                    .miner()
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
