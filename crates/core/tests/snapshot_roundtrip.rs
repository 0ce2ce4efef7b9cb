//! Round-trip pinning for prepared-database snapshots: mining a reopened
//! image must be **bit-identical** to mining the in-memory preparation, in
//! every mode, with and without gap constraints — and corrupted images
//! must never panic their way into the engine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rgs_core::{GapConstraints, Miner, MiningRequest, Mode, PreparedDb, DEFAULT_TOP_K};
use seqdb::{DatabaseBuilder, SequenceDatabase};
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rgs-roundtrip-{}-{tag}.snap", std::process::id()))
}

/// A seeded random database over a small alphabet (dense repetition, the
/// regime where closed mining actually prunes).
fn random_db(seed: u64) -> SequenceDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let alphabet = rng.gen_range(3..7usize);
    let rows = rng.gen_range(2..7usize);
    let mut builder = DatabaseBuilder::new();
    for _ in 0..rows {
        let len = rng.gen_range(0..16usize);
        let labels: Vec<String> = (0..len)
            .map(|_| char::from(b'A' + rng.gen_range(0..alphabet as u32) as u8).to_string())
            .collect();
        builder.push_tokens(labels.iter().map(String::as_str));
    }
    builder.finish()
}

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

/// All mode x constraint combinations of the acceptance criterion.
fn workloads() -> Vec<(Mode, Option<usize>, GapConstraints)> {
    let mut combos = Vec::new();
    for (mode, top_k) in FAMILIES {
        for constraints in [GapConstraints::unbounded(), GapConstraints::max_gap(2)] {
            combos.push((mode, top_k, constraints));
        }
    }
    combos
}

#[test]
fn mining_a_reopened_snapshot_is_bit_identical_across_modes_and_constraints() {
    for seed in 0..12u64 {
        let db = random_db(seed);
        let prepared = PreparedDb::new(&db);
        let path = temp_path(&format!("modes-{seed}"));
        prepared.write_snapshot(&path).expect("write snapshot");
        let reopened = PreparedDb::open_snapshot(&path).expect("open snapshot");
        assert_eq!(reopened, prepared, "seed {seed}: snapshot state diverged");

        for (mode, top_k, constraints) in workloads() {
            // min_sup 1 with Mode::All enumerates every distinct
            // subsequence — exponential on dense rows — so the uncapped
            // sweep starts at 2 and a capped run covers the threshold-1
            // corner (caps apply identically to both sides).
            for min_sup in [2, 3] {
                let fresh = prepared
                    .miner()
                    .with_request(family(mode, top_k))
                    .min_sup(min_sup)
                    .constraints(constraints)
                    .max_pattern_length(6)
                    .keep_support_sets()
                    .run();
                let cold = reopened
                    .miner()
                    .with_request(family(mode, top_k))
                    .min_sup(min_sup)
                    .constraints(constraints)
                    .max_pattern_length(6)
                    .keep_support_sets()
                    .run();
                assert_eq!(
                    fresh.patterns,
                    cold.patterns,
                    "seed {seed}, {mode:?} top_k {top_k:?} with {} at min_sup {min_sup}",
                    constraints.describe()
                );
                assert_eq!(fresh.truncated, cold.truncated);
            }

            // The min_sup = 1 corner, bounded by a uniform pattern cap.
            let fresh = prepared
                .miner()
                .with_request(family(mode, top_k))
                .min_sup(1)
                .constraints(constraints)
                .max_pattern_length(4)
                .max_patterns(200)
                .run();
            let cold = reopened
                .miner()
                .with_request(family(mode, top_k))
                .min_sup(1)
                .constraints(constraints)
                .max_pattern_length(4)
                .max_patterns(200)
                .run();
            assert_eq!(
                fresh.patterns,
                cold.patterns,
                "seed {seed}, {mode:?} top_k {top_k:?} with {} at min_sup 1 (capped)",
                constraints.describe()
            );
            assert_eq!(fresh.truncated, cold.truncated);
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn snapshot_streams_and_parallel_runs_match_the_in_memory_engine() {
    let db = random_db(99);
    let prepared = PreparedDb::new(&db);
    let path = temp_path("stream");
    prepared.write_snapshot(&path).expect("write snapshot");
    let reopened = PreparedDb::open_snapshot(&path).expect("open snapshot");

    let expected = prepared.miner().min_sup(2).mode(Mode::Closed).run();

    // Parallel fan-out shares the mapped arenas across workers.
    let parallel = reopened
        .miner()
        .min_sup(2)
        .mode(Mode::Closed)
        .threads(4)
        .run();
    assert_eq!(parallel.patterns, expected.patterns);

    // Miner::from_snapshot is the one-call cold-start path.
    let via_miner = Miner::from_snapshot(&path)
        .expect("open")
        .min_sup(2)
        .mode(Mode::Closed)
        .run();
    assert_eq!(via_miner.patterns, expected.patterns);
    std::fs::remove_file(&path).ok();
}

#[test]
fn mining_reports_match_between_fresh_and_reopened_snapshots() {
    let db = random_db(7);
    let prepared = PreparedDb::new(&db);
    let path = temp_path("report");
    prepared.write_snapshot(&path).expect("write snapshot");
    let reopened = PreparedDb::open_snapshot(&path).expect("open snapshot");

    let mut fresh_sink = rgs_core::CountSink::new();
    let fresh = prepared
        .miner()
        .min_sup(2)
        .mode(Mode::Closed)
        .run_with_sink(&mut fresh_sink);
    let mut cold_sink = rgs_core::CountSink::new();
    let cold = reopened
        .miner()
        .min_sup(2)
        .mode(Mode::Closed)
        .run_with_sink(&mut cold_sink);

    // Everything but wall-clock time must agree exactly.
    assert_eq!(fresh.emitted, cold.emitted);
    assert_eq!(fresh.truncated, cold.truncated);
    assert_eq!(fresh.cancelled, cold.cancelled);
    assert_eq!(fresh.stats.visited, cold.stats.visited);
    assert_eq!(fresh.stats.instance_growths, cold.stats.instance_growths);
    assert_eq!(
        fresh.stats.non_closed_filtered,
        cold.stats.non_closed_filtered
    );
    assert_eq!(
        fresh.stats.landmark_border_prunes,
        cold.stats.landmark_border_prunes
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn rewriting_a_snapshot_onto_its_own_source_file_is_safe() {
    // The write path is atomic (temp file + rename), so serializing a
    // snapshot whose arenas are borrowed windows into a mapping of the
    // destination file must neither crash nor corrupt the image — and a
    // snapshot opened *before* the overwrite keeps reading the old inode.
    let db = random_db(42);
    let prepared = PreparedDb::new(&db);
    let path = temp_path("self-overwrite");
    prepared.write_snapshot(&path).expect("initial write");

    let reopened = PreparedDb::open_snapshot(&path).expect("open");
    let before = reopened.miner().min_sup(2).mode(Mode::Closed).run();
    reopened
        .write_snapshot(&path)
        .expect("rewrite onto own source");

    // The pre-overwrite snapshot still reads its (old) mapping...
    let after = reopened.miner().min_sup(2).mode(Mode::Closed).run();
    assert_eq!(before.patterns, after.patterns);
    // ...and the rewritten file is a valid, equivalent image.
    let rewritten = PreparedDb::open_snapshot(&path).expect("open rewritten");
    assert_eq!(rewritten, reopened);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_prepared_snapshots_error_and_never_panic() {
    let db = random_db(3);
    let prepared = PreparedDb::new(&db);
    let path = temp_path("corrupt");
    prepared.write_snapshot(&path).expect("write snapshot");
    let pristine = std::fs::read(&path).expect("read image");
    std::fs::remove_file(&path).ok();

    let mut rng = StdRng::seed_from_u64(0xbad_5eed);
    for case in 0..300 {
        let mut tampered = pristine.clone();
        match case % 3 {
            // Single bit flip anywhere.
            0 => {
                let byte = rng.gen_range(0..tampered.len());
                let bit = rng.gen_range(0..8u32);
                tampered[byte] ^= 1 << bit;
            }
            // Truncation to a random prefix.
            1 => {
                let len = rng.gen_range(0..tampered.len());
                tampered.truncate(len);
            }
            // A burst of random bytes.
            _ => {
                let start = rng.gen_range(0..tampered.len());
                let len = rng.gen_range(1..32usize).min(tampered.len() - start);
                for b in &mut tampered[start..start + len] {
                    *b = rng.gen_range(0..=255u32) as u8;
                }
                if tampered == pristine {
                    continue;
                }
            }
        }
        let case_path = temp_path("corrupt-case");
        std::fs::write(&case_path, &tampered).expect("write tampered");
        let result = PreparedDb::open_snapshot(&case_path);
        std::fs::remove_file(&case_path).ok();
        assert!(result.is_err(), "corruption case {case} was accepted");
    }
}

#[test]
fn cross_section_inconsistencies_are_rejected() {
    // Build an image whose sections are individually valid but mutually
    // inconsistent: meta claims one more sequence than the store holds.
    use seqdb::snapshot::{catalog_to_bytes, section_id, SectionPayload, SnapshotWriter};

    let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
    let catalog_bytes = catalog_to_bytes(db.catalog());
    let wide_events = db.store().event_column().to_wide_vec();

    let meta = [
        db.num_sequences() as u64 + 1, // lie
        db.num_events() as u64,
        db.total_length() as u64,
    ];
    let mut writer = SnapshotWriter::new();
    writer
        .section(section_id::META, SectionPayload::U64s(&meta))
        .section(
            section_id::STORE_EVENTS,
            SectionPayload::EventIds(&wide_events),
        )
        .section(
            section_id::STORE_OFFSETS,
            SectionPayload::U32s(db.store().offsets()),
        )
        .section(section_id::CATALOG, SectionPayload::Bytes(&catalog_bytes));
    let path = temp_path("inconsistent");
    writer.write_to_path(&path).expect("write");
    let err = PreparedDb::open_snapshot(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    // The first violation: the store's offsets are one short of meta's
    // sequence count.
    assert!(err.to_string().contains("store.offsets"), "{err}");
}
