//! The sharding acceptance criterion, pinned end to end: mining a sharded
//! [`PreparedDb`] is **bit-identical** to mining the flat preparation —
//! every mode, with and without gap constraints, at shard counts
//! {1, 2, 3, 7}, under sequential and parallel execution — and the shard
//! bookkeeping (counts, footprints, rebalance) stays consistent.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rgs_core::{GapConstraints, Mode, PreparedDb};
use seqdb::{DatabaseBuilder, SequenceDatabase};

/// A seeded random database over a small alphabet (dense repetition, the
/// regime where closed mining actually prunes) with skewed row lengths so
/// event-mass partitioning differs from row-count partitioning.
fn random_db(seed: u64) -> SequenceDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let alphabet = rng.gen_range(3..7usize);
    let rows = rng.gen_range(4..10usize);
    let mut builder = DatabaseBuilder::new();
    for row in 0..rows {
        // Every third row is long, the rest short: heavy skew.
        let len = if row % 3 == 0 {
            rng.gen_range(10..24usize)
        } else {
            rng.gen_range(0..6usize)
        };
        let labels: Vec<String> = (0..len)
            .map(|_| char::from(b'A' + rng.gen_range(0..alphabet as u32) as u8).to_string())
            .collect();
        builder.push_tokens(labels.iter().map(String::as_str));
    }
    builder.finish()
}

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn workloads() -> Vec<(Mode, GapConstraints)> {
    let mut combos = Vec::new();
    for mode in [Mode::All, Mode::Closed, Mode::Maximal, Mode::TopK] {
        for constraints in [GapConstraints::unbounded(), GapConstraints::max_gap(2)] {
            combos.push((mode, constraints));
        }
    }
    combos
}

#[test]
fn sharded_mining_is_bit_identical_across_modes_and_constraints() {
    for seed in 0..10u64 {
        let db = random_db(seed);
        let flat = PreparedDb::new(&db);
        for shards in SHARD_COUNTS {
            let sharded = PreparedDb::new_sharded(&db, shards);
            assert!(sharded.shard_count() >= 1 && sharded.shard_count() <= shards.max(1));
            for (mode, constraints) in workloads() {
                for min_sup in [2, 3] {
                    let expected = flat
                        .miner()
                        .min_sup(min_sup)
                        .mode(mode)
                        .constraints(constraints)
                        .max_pattern_length(6)
                        .keep_support_sets()
                        .run();
                    let actual = sharded
                        .miner()
                        .min_sup(min_sup)
                        .mode(mode)
                        .constraints(constraints)
                        .max_pattern_length(6)
                        .keep_support_sets()
                        .run();
                    assert_eq!(
                        expected.patterns,
                        actual.patterns,
                        "seed {seed}, {shards} shards, {mode:?} with {} at min_sup {min_sup}",
                        constraints.describe()
                    );
                    assert_eq!(expected.truncated, actual.truncated);
                    assert_eq!(expected.stats.visited, actual.stats.visited);
                    assert_eq!(
                        expected.stats.instance_growths,
                        actual.stats.instance_growths
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_parallel_execution_matches_sequential_and_flat() {
    for seed in [3u64, 11, 29] {
        let db = random_db(seed);
        let flat = PreparedDb::new(&db);
        for shards in SHARD_COUNTS {
            let sharded = PreparedDb::new_sharded(&db, shards);
            for (mode, constraints) in workloads() {
                let expected = flat
                    .miner()
                    .min_sup(2)
                    .mode(mode)
                    .constraints(constraints)
                    .max_pattern_length(5)
                    .run();
                for threads in [2, 3, 8] {
                    let parallel = sharded
                        .miner()
                        .min_sup(2)
                        .mode(mode)
                        .constraints(constraints)
                        .max_pattern_length(5)
                        .threads(threads)
                        .run();
                    assert_eq!(
                        expected.patterns,
                        parallel.patterns,
                        "seed {seed}, {shards} shards x {threads} threads, {mode:?} with {}",
                        constraints.describe()
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_streams_and_caps_behave_like_flat_ones() {
    let db = random_db(77);
    let flat = PreparedDb::new(&db);
    let sharded = PreparedDb::new_sharded(&db, 3);

    let expected = flat.miner().min_sup(2).mode(Mode::Closed).run();
    let session = sharded.miner().min_sup(2).mode(Mode::Closed).session();
    let streamed: Vec<_> = session.stream().collect();
    assert_eq!(streamed, expected.patterns);

    for mode in [Mode::All, Mode::Closed, Mode::Maximal] {
        let capped_flat = flat.miner().min_sup(1).mode(mode).max_patterns(5).run();
        let capped_sharded = sharded.miner().min_sup(1).mode(mode).max_patterns(5).run();
        assert_eq!(capped_flat.patterns, capped_sharded.patterns, "{mode:?}");
        assert_eq!(capped_flat.truncated, capped_sharded.truncated);
    }
}

#[test]
fn shard_bookkeeping_is_consistent() {
    let db = random_db(5);
    let sharded = PreparedDb::new_sharded(&db, 3);
    assert_eq!(sharded.shard_count(), 3);
    assert_eq!(sharded.stats().num_shards, 3);

    let footprints = sharded.shard_footprints();
    assert_eq!(footprints.len(), 3);
    assert_eq!(
        footprints.iter().map(|f| f.sequences).sum::<usize>(),
        db.num_sequences()
    );
    assert_eq!(
        footprints.iter().map(|f| f.events).sum::<usize>(),
        db.total_length()
    );
    // Index bytes split exactly across shards... plus per-shard CSR
    // sentinels; store bytes cover the arena once plus window offsets.
    let flat = PreparedDb::new(&db);
    assert_eq!(flat.stats().num_shards, 1);
    assert!(sharded.heap_bytes() >= flat.database().store().heap_bytes());

    // Resharding re-partitions the same data and keeps mining identical.
    let resharded = sharded.reshard(2);
    assert_eq!(resharded.shard_count(), 2);
    assert_eq!(
        resharded.miner().min_sup(2).run().patterns,
        flat.miner().min_sup(2).run().patterns
    );

    // One index for every range count: the footprints split exactly the
    // one index and the one store, directories and sentinels counted once.
    assert_eq!(
        footprints.iter().map(|f| f.index_bytes).sum::<usize>(),
        sharded.index().heap_bytes()
    );
    assert_eq!(
        footprints.iter().map(|f| f.store_bytes).sum::<usize>(),
        db.store().heap_bytes()
    );
    assert_eq!(sharded.index().heap_bytes(), flat.index().heap_bytes());
    // Three ranges cost the flat preparation plus only their map bounds.
    let map_bytes = |p: &PreparedDb| std::mem::size_of_val(p.shard_map().bounds());
    assert_eq!(sharded.shard_map().bounds().len(), 4);
    assert_eq!(
        sharded.heap_bytes() - map_bytes(&sharded),
        flat.heap_bytes() - map_bytes(&flat)
    );

    // Resharding is free: it shares the index arena instead of rebuilding.
    let arena = |p: &PreparedDb| p.index().positions().as_ptr();
    assert_eq!(arena(&resharded), arena(&sharded));
    assert_eq!(arena(&flat.reshard(3)), arena(&flat));

    // ... and so is resharding a reopened v5 image, whose arena is the
    // mapped file's.
    let path =
        std::env::temp_dir().join(format!("rgs-shard-bookkeeping-{}.snap", std::process::id()));
    sharded.write_snapshot(&path).expect("write");
    let reopened = PreparedDb::open_snapshot(&path).expect("open");
    assert_eq!(reopened.image_version(), Some(5));
    assert_eq!(reopened.shard_count(), 3);
    let rereshard = reopened.reshard(2);
    assert_eq!(arena(&rereshard), arena(&reopened));
    assert_eq!(rereshard.shard_map(), resharded.shard_map());
    assert_eq!(
        rereshard.miner().min_sup(2).run().patterns,
        flat.miner().min_sup(2).run().patterns
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn occurrence_counts_and_frequent_events_are_partition_independent() {
    for seed in 0..6u64 {
        let db = random_db(seed);
        let flat = PreparedDb::new(&db);
        for shards in SHARD_COUNTS {
            let sharded = PreparedDb::new_sharded(&db, shards);
            for event in db.catalog().ids() {
                assert_eq!(
                    flat.occurrence_count(event),
                    sharded.occurrence_count(event),
                    "seed {seed}, {shards} shards, {event:?}"
                );
            }
            for min_sup in [1, 2, 4, 8] {
                assert_eq!(
                    flat.frequent_events(min_sup),
                    sharded.frequent_events(min_sup),
                    "seed {seed}, {shards} shards, min_sup {min_sup}"
                );
            }
        }
    }
}
