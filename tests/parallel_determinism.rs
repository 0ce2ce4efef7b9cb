//! Property suite for deterministic parallel execution: on randomized
//! databases (seeded PRNG), `ExecutionPolicy::Parallel { 2..8 }` must
//! produce a **bit-identical** pattern list to `Sequential` across every
//! mode and top-k, with and without gap constraints, with and without
//! retained support sets, ranking, and pattern caps. Patterns and truncation
//! are compared, not counters: a parallel ranked run's seeds share one
//! support floor, so its `visited` and `instance_growths` depend on the
//! thread schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use repetitive_gapped_mining::prelude::*;

/// Thread counts exercised against every sequential run (the `2..8` band:
/// uneven seed/worker ratios, more workers than seeds, and a power of two).
const THREADS: [usize; 4] = [2, 3, 5, 8];

fn random_database(rng: &mut StdRng) -> SequenceDatabase {
    let labels = ["A", "B", "C", "D", "E"];
    let num_events = rng.gen_range(2..=labels.len());
    let rows: Vec<Vec<&str>> = (0..rng.gen_range(1..=5usize))
        .map(|_| {
            (0..rng.gen_range(0..=10usize))
                .map(|_| labels[rng.gen_range(0..num_events)])
                .collect()
        })
        .collect();
    SequenceDatabase::from_token_rows(&rows)
}

fn assert_parallel_matches_sequential(db: &SequenceDatabase, label: &str, rng: &mut StdRng) {
    let min_sup = rng.gen_range(1..4u64);
    let constraint_cases = [GapConstraints::unbounded(), GapConstraints::max_gap(2)];
    // The fourth row is ranked closed mining.
    for (mode, ranked) in [
        (Mode::All, false),
        (Mode::Closed, false),
        (Mode::Maximal, false),
        (Mode::Closed, true),
    ] {
        for constraints in constraint_cases {
            let build = |threads: usize| {
                let mut miner = Miner::new(db)
                    .min_sup(min_sup)
                    .mode(mode)
                    .constraints(constraints)
                    .keep_support_sets()
                    .threads(threads);
                if ranked {
                    miner = miner.top_k(6).min_len(2);
                }
                miner.run()
            };
            let sequential = build(1);
            for threads in THREADS {
                let parallel = build(threads);
                assert_eq!(
                    sequential.patterns,
                    parallel.patterns,
                    "{label}: {mode:?} (ranked: {ranked}) with {} at min_sup {min_sup} diverges on {threads} threads",
                    constraints.describe()
                );
                assert_eq!(
                    sequential.truncated, parallel.truncated,
                    "{label}: {mode:?} (ranked: {ranked}) truncation flag diverges on {threads} threads"
                );
            }
        }
    }
}

#[test]
fn parallel_matches_sequential_on_the_paper_examples() {
    let mut rng = StdRng::seed_from_u64(0x9A11E1);
    for rows in [
        vec!["AABCDABB", "ABCD"],
        vec!["ABCACBDDB", "ACDBACADD"],
        vec!["ABCABCA", "AABBCCC"],
    ] {
        let db = SequenceDatabase::from_str_rows(&rows);
        assert_parallel_matches_sequential(&db, &format!("{rows:?}"), &mut rng);
    }
}

#[test]
fn parallel_matches_sequential_on_random_databases() {
    let mut rng = StdRng::seed_from_u64(0x000D_E7E2_1415);
    for case in 0..12 {
        let db = random_database(&mut rng);
        assert_parallel_matches_sequential(&db, &format!("random case {case}"), &mut rng);
    }
}

#[test]
fn parallel_respects_caps_min_len_and_ranking_on_random_databases() {
    let mut rng = StdRng::seed_from_u64(0xCA9_F100D);
    for case in 0..12 {
        let db = random_database(&mut rng);
        let min_sup = rng.gen_range(1..3u64);
        let cap = rng.gen_range(1..8usize);
        let min_len = rng.gen_range(0..3usize);
        for mode in [Mode::All, Mode::Closed, Mode::Maximal] {
            let build = |threads: usize| {
                Miner::new(&db)
                    .min_sup(min_sup)
                    .mode(mode)
                    .min_len(min_len)
                    .max_patterns(cap)
                    .threads(threads)
                    .run()
            };
            let sequential = build(1);
            for threads in THREADS {
                let parallel = build(threads);
                assert_eq!(
                    sequential.patterns, parallel.patterns,
                    "random case {case}: {mode:?} capped at {cap}, min_len {min_len}, \
                     min_sup {min_sup}, {threads} threads"
                );
                assert_eq!(sequential.truncated, parallel.truncated);
            }
        }
        // Ranked runs under constraints (the general ranked path).
        let constraints = GapConstraints::max_gap(rng.gen_range(0..3u32));
        let build_ranked = |threads: usize| {
            Miner::new(&db)
                .min_sup(min_sup)
                .mode(Mode::Closed)
                .constraints(constraints)
                .top_k(4)
                .min_len(1)
                .threads(threads)
                .run()
        };
        let sequential = build_ranked(1);
        for threads in THREADS {
            assert_eq!(
                sequential.patterns,
                build_ranked(threads).patterns,
                "random case {case}: constrained ranked run diverges on {threads} threads"
            );
        }
    }
}

/// The parallel ranked contract: a ranked run's seeds share one support
/// floor, raised in thread-timing order, so its `visited` and
/// `instance_growths` counters depend on the schedule (see
/// `ExecutionPolicy`). Its patterns do not: one unconstrained top-k
/// request, run 50 times at each thread count, gives one pattern list —
/// the sequential one.
#[test]
fn parallel_top_k_patterns_do_not_depend_on_the_schedule() {
    let mut rng = StdRng::seed_from_u64(0x0070_9C0F);
    let labels = ["A", "B", "C", "D", "E", "F"];
    let rows: Vec<Vec<&str>> = (0..8)
        .map(|_| {
            (0..24)
                .map(|_| labels[rng.gen_range(0..labels.len())])
                .collect()
        })
        .collect();
    let db = SequenceDatabase::from_token_rows(&rows);
    let prepared = PreparedDb::new(&db);
    let run = |threads: usize| {
        prepared
            .miner()
            .min_sup(2)
            .mode(Mode::Closed)
            .top_k(8)
            .min_len(2)
            .threads(threads)
            .run()
    };
    let sequential = run(1);
    assert_eq!(sequential.len(), 8);
    for threads in [2, 3, 5] {
        for attempt in 0..50 {
            let parallel = run(threads);
            assert_eq!(
                parallel.patterns, sequential.patterns,
                "run {attempt} at {threads} threads"
            );
            assert_eq!(parallel.truncated, sequential.truncated);
        }
    }
}
