//! Differential suite for the batch query engine: every request of a
//! random batch executed through `PreparedDb::batch` must be bit-identical
//! — patterns, supports, emission order, truncation flag, work counters —
//! to the same request run solo through the sequential one-by-one loop.
//! Random cases come from a deterministic seeded PRNG.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use repetitive_gapped_mining::core::DEFAULT_TOP_K;
use repetitive_gapped_mining::prelude::*;

const LABELS: [&str; 5] = ["A", "B", "C", "D", "E"];

fn random_database(rng: &mut StdRng) -> SequenceDatabase {
    let rows: Vec<Vec<&str>> = (0..rng.gen_range(1..=5usize))
        .map(|_| {
            (0..rng.gen_range(0..=12usize))
                .map(|_| LABELS[rng.gen_range(0..LABELS.len())])
                .collect()
        })
        .collect();
    SequenceDatabase::from_token_rows(&rows)
}

fn random_request(rng: &mut StdRng) -> MiningRequest {
    // The fourth mode draw is ranked closed mining, at the default `k`
    // unless a later draw sets one.
    let min_sup = rng.gen_range(1..=6u64);
    let mode_draw = rng.gen_range(0..4u32);
    let mut request = MiningRequest {
        min_sup,
        mode: match mode_draw {
            0 => Mode::All,
            2 => Mode::Maximal,
            _ => Mode::Closed,
        },
        constraints: match rng.gen_range(0..4u32) {
            0 => GapConstraints::max_gap(rng.gen_range(0..=3u32)),
            1 => GapConstraints::max_window(rng.gen_range(2..=6u32)),
            2 => GapConstraints::gap_range(rng.gen_range(0..=1u32), rng.gen_range(2..=4u32)),
            _ => GapConstraints::unbounded(),
        },
        ..MiningRequest::default()
    };
    if rng.gen_bool(0.35) {
        request.top_k = Some(rng.gen_range(0..=8usize));
    }
    if rng.gen_bool(0.3) {
        request.min_len = rng.gen_range(1..=3usize);
    }
    if rng.gen_bool(0.3) {
        request.max_pattern_length = Some(rng.gen_range(1..=4usize));
    }
    if rng.gen_bool(0.3) {
        request.max_patterns = Some(rng.gen_range(1..=20usize));
    }
    if rng.gen_bool(0.25) {
        request.keep_support_sets = true;
    }
    if rng.gen_bool(0.25) {
        request.use_landmark_pruning = false;
    }
    if mode_draw == 3 {
        request.top_k = request.top_k.or(Some(DEFAULT_TOP_K));
    }
    request
}

/// Runs one request solo through the sequential engine — the reference the
/// batch contract is pinned against.
fn solo(prepared: &PreparedDb, request: &MiningRequest) -> MiningOutcome {
    let mut reference = request.clone();
    reference.execution = ExecutionPolicy::Sequential;
    prepared.miner().with_request(reference).run()
}

/// Asserts the full bit-identity contract for every member of a batch.
/// `elapsed_seconds` is the one sanctioned difference (whole-batch wall
/// clock) and is never compared.
fn assert_batch_matches_solo(prepared: &PreparedDb, requests: &[MiningRequest], context: &str) {
    let batched = prepared.batch(requests);
    assert_eq!(batched.len(), requests.len(), "{context}: result count");
    for (i, (request, result)) in requests.iter().zip(&batched).enumerate() {
        let expected = solo(prepared, request);
        assert_eq!(
            result.outcome.patterns, expected.patterns,
            "{context}: request {i} patterns diverge ({request:?})"
        );
        assert_eq!(
            result.outcome.truncated, expected.truncated,
            "{context}: request {i} truncation diverges ({request:?})"
        );
        assert_eq!(
            result.outcome.stats.visited, expected.stats.visited,
            "{context}: request {i} visited counter diverges ({request:?})"
        );
        assert_eq!(
            result.outcome.stats.instance_growths, expected.stats.instance_growths,
            "{context}: request {i} growth counter diverges ({request:?})"
        );
        assert_eq!(
            result.outcome.stats.non_closed_filtered, expected.stats.non_closed_filtered,
            "{context}: request {i} closure counter diverges ({request:?})"
        );
        assert_eq!(
            result.outcome.stats.landmark_border_prunes, expected.stats.landmark_border_prunes,
            "{context}: request {i} pruning counter diverges ({request:?})"
        );
        assert!(
            !result.cancelled,
            "{context}: request {i} spuriously cancelled"
        );
    }
}

/// Random batches of 1–16 mixed requests over random databases.
#[test]
fn random_batches_match_one_by_one_loop() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    for case in 0..60 {
        let db = random_database(&mut rng);
        let prepared = PreparedDb::new(&db);
        let requests: Vec<MiningRequest> = (0..rng.gen_range(1..=16usize))
            .map(|_| random_request(&mut rng))
            .collect();
        assert_batch_matches_solo(&prepared, &requests, &format!("case {case}"));
    }
}

/// Single-request batches across many random shapes: batching one request
/// must be a no-op wrapper around the solo run.
#[test]
fn single_request_batches_are_transparent() {
    let mut rng = StdRng::seed_from_u64(0x51461E);
    for case in 0..40 {
        let db = random_database(&mut rng);
        let prepared = PreparedDb::new(&db);
        let request = random_request(&mut rng);
        assert_batch_matches_solo(&prepared, &[request], &format!("case {case}"));
    }
}

/// Duplicate requests inside one batch: every copy gets its own complete,
/// identical result (no shared mutable bookkeeping between twins).
#[test]
fn duplicate_requests_each_get_full_results() {
    let mut rng = StdRng::seed_from_u64(0xD0_D0D0);
    for case in 0..25 {
        let db = random_database(&mut rng);
        let prepared = PreparedDb::new(&db);
        let request = random_request(&mut rng);
        let copies = rng.gen_range(2..=4usize);
        let requests: Vec<MiningRequest> = (0..copies).map(|_| request.clone()).collect();
        assert_batch_matches_solo(&prepared, &requests, &format!("case {case}"));
        let batched = prepared.batch(&requests);
        for pair in batched.windows(2) {
            assert_eq!(
                pair.first().map(|r| &r.outcome),
                pair.get(1).map(|r| &r.outcome),
                "case {case}: duplicate requests disagree"
            );
        }
    }
}

/// Paper running example, exhaustive mode × constraint × top-k grid in one
/// giant batch: the whole grid shares a handful of scans yet every cell
/// must replay its solo run.
#[test]
fn running_example_full_grid_in_one_batch() {
    let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
    let prepared = PreparedDb::new(&db);
    let mut requests = Vec::new();
    // The fourth row is ranked closed mining, at the default `k` unless the
    // cell's `top_k` sets one.
    for (mode, ranked) in [
        (Mode::All, false),
        (Mode::Closed, false),
        (Mode::Maximal, false),
        (Mode::Closed, true),
    ] {
        for min_sup in [1u64, 2, 3, 5] {
            for constraints in [
                GapConstraints::unbounded(),
                GapConstraints::max_gap(1),
                GapConstraints::max_window(4),
            ] {
                for top_k in [None, Some(3)] {
                    requests.push(MiningRequest {
                        mode,
                        min_sup,
                        constraints,
                        top_k: if ranked {
                            top_k.or(Some(DEFAULT_TOP_K))
                        } else {
                            top_k
                        },
                        ..MiningRequest::default()
                    });
                }
            }
        }
    }
    assert_batch_matches_solo(&prepared, &requests, "running-example grid");
}

/// Support sets survive batching bit-identically when requested.
#[test]
fn kept_support_sets_match_solo() {
    let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
    let prepared = PreparedDb::new(&db);
    let request = MiningRequest {
        min_sup: 2,
        mode: Mode::Closed,
        keep_support_sets: true,
        ..MiningRequest::default()
    };
    let batched = prepared.batch(std::slice::from_ref(&request));
    let expected = solo(&prepared, &request);
    let result = batched.first().expect("one result");
    assert_eq!(result.outcome.patterns, expected.patterns);
    assert!(result
        .outcome
        .patterns
        .iter()
        .all(|p| p.support_set.is_some()));
}
