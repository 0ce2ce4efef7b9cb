//! Golden pins for the pattern-tree walk: a seeded grid of requests whose
//! outcomes are compared against values recorded in `dfs_golden.txt`.
//!
//! The grid is the full product mode × constraints × `top_k` × landmark
//! pruning over two databases, with `min_sup`, `min_len`,
//! `max_pattern_length`, `max_patterns` and `keep_support_sets` drawn per
//! case from a seeded PRNG. Every case runs twice — through `Miner::new` on
//! the raw database, and on one shared [`PreparedDb`] — and both runs must
//! reproduce the one pinned record:
//!
//! * the pattern count and an FNV-1a digest of the rendered patterns with
//!   their supports (and retained support sets);
//! * all four `MiningStats` counters;
//! * `truncated`, `emitted` and `cancelled` of a plain sink run, and the same
//!   three plus the counters of a run cancelled by a [`BudgetSink`];
//! * the digest of the first three patterns, collected by a run that a
//!   [`BudgetSink`] cancels after them.
//!
//! Equivalence suites compare two paths of the current code with each other;
//! this file holds the walk to fixed numbers instead.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rgs_core::{
    BudgetSink, CollectSink, CountSink, GapConstraints, MinedPattern, Miner, MiningReport,
    MiningRequest, MiningStats, Mode, PreparedDb, DEFAULT_TOP_K,
};
use seqdb::{EventCatalog, SequenceDatabase};

const GOLDEN: &str = include_str!("dfs_golden.txt");

/// Seeded draws of the scalar knobs per (database, mode, constraints,
/// `top_k`, pruning) cell.
const DRAWS_PER_CELL: usize = 3;
/// Patterns a budget-cancelled run lets through.
const BUDGET: usize = 2;
/// Length of the pinned prefix.
const PREFIX: usize = 3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Digest of a pattern list: rendered pattern, support, and the last
/// positions of a retained support set, in order.
fn digest(patterns: &[MinedPattern], catalog: &EventCatalog) -> u64 {
    let mut hash = FNV_OFFSET;
    for mined in patterns {
        hash = fnv1a(hash, mined.pattern.render(catalog).as_bytes());
        hash = fnv1a(hash, format!("#{};", mined.support).as_bytes());
        if let Some(set) = &mined.support_set {
            for (seq, last) in set.last_positions() {
                hash = fnv1a(hash, format!("{seq}@{last},").as_bytes());
            }
        }
        hash = fnv1a(hash, b"\n");
    }
    hash
}

fn counters(stats: &MiningStats) -> String {
    format!(
        "{}/{}/{}/{}",
        stats.visited,
        stats.instance_growths,
        stats.non_closed_filtered,
        stats.landmark_border_prunes
    )
}

fn flags(report: &MiningReport) -> String {
    format!(
        "e={} t={} x={}",
        report.emitted,
        u8::from(report.truncated),
        u8::from(report.cancelled)
    )
}

/// The running example of the paper (Table III).
fn paper_db() -> SequenceDatabase {
    SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
}

/// A seeded random database: six rows of 8–16 events over four labels.
fn random_db() -> SequenceDatabase {
    let mut rng = StdRng::seed_from_u64(0x0DF5_601D);
    let rows: Vec<Vec<&str>> = (0..6)
        .map(|_| {
            (0..rng.gen_range(8..=16usize))
                .map(|_| ["A", "B", "C", "D"][rng.gen_range(0..4usize)])
                .collect()
        })
        .collect();
    SequenceDatabase::from_token_rows(&rows)
}

fn constraint_cases() -> [GapConstraints; 3] {
    [
        GapConstraints::unbounded(),
        GapConstraints::max_gap(2),
        GapConstraints {
            min_gap: 1,
            max_gap: None,
            max_window: Some(5),
        },
    ]
}

/// The grid, in pinned order.
fn cases() -> Vec<(&'static str, MiningRequest)> {
    let mut rng = StdRng::seed_from_u64(0x0060_1DE7);
    let mut cases = Vec::new();
    for db in ["paper", "random"] {
        // The fourth row is ranked closed mining, at the default `k` unless
        // the cell's `top_k` sets one.
        for (mode, ranked) in [
            (Mode::All, false),
            (Mode::Closed, false),
            (Mode::Maximal, false),
            (Mode::Closed, true),
        ] {
            for constraints in constraint_cases() {
                for top_k in [None, Some(0), Some(3)] {
                    for pruning in [true, false] {
                        for _ in 0..DRAWS_PER_CELL {
                            let request = MiningRequest {
                                min_sup: rng.gen_range(1..=4u64) + u64::from(db == "random"),
                                mode,
                                constraints,
                                top_k: if ranked {
                                    top_k.or(Some(DEFAULT_TOP_K))
                                } else {
                                    top_k
                                },
                                min_len: rng.gen_range(0..=3usize),
                                max_pattern_length: [None, Some(2), Some(3), Some(4)]
                                    [rng.gen_range(0..4usize)],
                                max_patterns: [None, None, Some(1), Some(25)]
                                    [rng.gen_range(0..4usize)],
                                keep_support_sets: rng.gen_bool(0.25),
                                use_landmark_pruning: pruning,
                                ..MiningRequest::default()
                            };
                            cases.push((db, request));
                        }
                    }
                }
            }
        }
    }
    cases
}

/// One case's record line, computed through `miner` (called afresh for
/// every run).
fn record(miner: impl Fn() -> Miner, catalog: &EventCatalog) -> String {
    let outcome = miner().run();
    let mut count = CountSink::new();
    let plain = miner().run_with_sink(&mut count);
    let mut budget = BudgetSink::new(CountSink::new(), BUDGET);
    let cancelled = miner().run_with_sink(&mut budget);
    let mut prefix = BudgetSink::new(CollectSink::new(), PREFIX);
    miner().run_with_sink(&mut prefix);
    let prefix = prefix.into_inner().into_patterns();
    format!(
        "n={} h={:016x} c={} t={} | {} | b: {} c={} | s={:016x}",
        outcome.patterns.len(),
        digest(&outcome.patterns, catalog),
        counters(&outcome.stats),
        u8::from(outcome.truncated),
        flags(&plain),
        flags(&cancelled),
        counters(&cancelled.stats),
        digest(&prefix, catalog),
    )
}

#[test]
fn walk_reproduces_the_pinned_grid() {
    let paper = paper_db();
    let random = random_db();
    let paper_prepared = PreparedDb::new(&paper);
    let random_prepared = PreparedDb::new(&random);
    let pinned: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    let cases = cases();
    assert_eq!(pinned.len(), cases.len(), "golden table size");
    for (i, ((db_name, request), line)) in cases.iter().zip(&pinned).enumerate() {
        let (db, prepared) = if *db_name == "paper" {
            (&paper, &paper_prepared)
        } else {
            (&random, &random_prepared)
        };
        let flat = record(
            || Miner::new(db).with_request(request.clone()),
            db.catalog(),
        );
        let expected = format!("{i}: {flat}");
        assert_eq!(
            &expected, line,
            "case {i} ({db_name}, {request:?}) diverges from its pin"
        );
        let shared = record(
            || prepared.miner().with_request(request.clone()),
            db.catalog(),
        );
        assert_eq!(
            flat, shared,
            "case {i} ({db_name}, {request:?}) differs on a prepared database"
        );
    }
}

/// A sink that cancels stops the walk at once: a run of a request with far
/// more than 10^9 frequent patterns, cancelled after its first five, comes
/// back with them at once. A walk that went on past the cancellation would
/// never return, so the run goes on a worker and the test fails on a
/// timeout instead of hanging.
#[test]
fn stream_take_is_lazy_on_an_explosive_request() {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        // One row of 2 000 events alternating A and B: every subsequence of
        // it is frequent at min_sup 1, i.e. astronomically many patterns.
        let row = "AB".repeat(1000);
        let db = SequenceDatabase::from_str_rows(&[row.as_str()]);
        let mut first = BudgetSink::new(CollectSink::new(), 5);
        let report = Miner::new(&db)
            .min_sup(1)
            .mode(Mode::All)
            .run_with_sink(&mut first);
        let prefix: Vec<String> = first
            .into_inner()
            .into_patterns()
            .iter()
            .map(|mp| mp.pattern.render(db.catalog()))
            .collect();
        let _ = tx.send((prefix, report.emitted, report.cancelled));
    });
    let (prefix, emitted, cancelled) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a run cancelled after 5 patterns did not return within 10 s");
    assert_eq!(prefix, ["A", "AA", "AAA", "AAAA", "AAAAA"]);
    assert_eq!(emitted, 5);
    assert!(cancelled);
}
