//! Seeded property test pinning the columnar-storage refactor: the flat
//! CSR layouts (SeqStore + CSR inverted index + SoA instance buffers) must
//! be **observationally identical** to the seed's nested layout
//! (`Vec<Sequence>` rows, `Vec<Vec<Vec<u32>>>` posting lists).
//!
//! The old layout is reimplemented here as a reference (`NaiveIndex` plus a
//! naive greedy instance growth over it); random databases are generated
//! from a fixed seed and compared query by query, and whole mining runs
//! across every mode and top-k ± gap constraints are re-verified support by
//! support against the naive layout.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rgs_core::{
    GapConstraints, Miner, MiningRequest, Mode, PreparedDb, SupportComputer, DEFAULT_TOP_K,
};
use seqdb::{DatabaseBuilder, EventId, SequenceDatabase};

/// The seed's inverted-index layout: `positions[seq][event] = Vec<u32>`,
/// one heap allocation per non-empty posting list.
struct NaiveIndex {
    positions: Vec<Vec<Vec<u32>>>,
}

impl NaiveIndex {
    fn build(db: &SequenceDatabase) -> Self {
        let num_events = db.num_events();
        let mut positions = Vec::with_capacity(db.num_sequences());
        for sequence in db.sequences() {
            let mut per_event: Vec<Vec<u32>> = vec![Vec::new(); num_events];
            for (pos, event) in sequence.iter_positions() {
                per_event[event.index()].push(pos as u32);
            }
            positions.push(per_event);
        }
        Self { positions }
    }

    fn event_positions(&self, seq: usize, event: EventId) -> Option<&[u32]> {
        self.positions
            .get(seq)?
            .get(event.index())
            .map(Vec::as_slice)
    }

    fn next(&self, seq: usize, event: EventId, lowest: u32) -> Option<u32> {
        let list = self.event_positions(seq, event)?;
        let idx = list.partition_point(|&p| p <= lowest);
        list.get(idx).copied()
    }
}

/// Constrained `supComp` over the naive layout: the same greedy leftmost
/// instance growth as Algorithms 1–2, carrying compressed `(seq, first,
/// last)` triples in per-sequence lists (the pre-refactor shape).
fn naive_support(
    db: &SequenceDatabase,
    index: &NaiveIndex,
    pattern: &[EventId],
    constraints: GapConstraints,
) -> u64 {
    let Some((&first, rest)) = pattern.split_first() else {
        return 0;
    };
    let mut total = 0u64;
    for seq in 0..db.num_sequences() {
        let Some(seed_positions) = index.event_positions(seq, first) else {
            continue;
        };
        // (first, last) per instance of the growing prefix, leftmost order.
        let mut current: Vec<(u32, u32)> = seed_positions.iter().map(|&p| (p, p)).collect();
        for &event in rest {
            let mut grown: Vec<(u32, u32)> = Vec::new();
            let mut last_position = 0u32;
            for &(inst_first, inst_last) in &current {
                let lowest = last_position.max(constraints.lowest_exclusive(inst_last));
                let highest = constraints.highest_inclusive(inst_first, inst_last);
                match index.next(seq, event, lowest) {
                    Some(pos) if pos <= highest => {
                        last_position = pos;
                        grown.push((inst_first, pos));
                    }
                    Some(_) => continue,
                    None => break,
                }
            }
            current = grown;
            if current.is_empty() {
                break;
            }
        }
        total += current.len() as u64;
    }
    total
}

fn random_database(rng: &mut StdRng) -> SequenceDatabase {
    let alphabet = rng.gen_range(2usize..=5);
    let labels: Vec<String> = (0..alphabet)
        .map(|i| format!("{}", (b'A' + i as u8) as char))
        .collect();
    let mut builder = DatabaseBuilder::new();
    let rows = rng.gen_range(2usize..=5);
    for _ in 0..rows {
        let len = rng.gen_range(4usize..=18);
        let tokens: Vec<&str> = (0..len)
            .map(|_| labels[rng.gen_range(0usize..alphabet)].as_str())
            .collect();
        builder.push_tokens(tokens);
    }
    builder.finish()
}

#[test]
fn csr_index_matches_the_nested_layout_query_by_query() {
    let mut rng = StdRng::seed_from_u64(0xC0_1D_5E_ED);
    for _ in 0..25 {
        let db = random_database(&mut rng);
        let naive = NaiveIndex::build(&db);
        let csr = db.inverted_index();
        for seq in 0..db.num_sequences() {
            for event in db.catalog().ids() {
                assert_eq!(
                    naive.event_positions(seq, event),
                    csr.event_positions(seq, event),
                    "posting list of {event:?} in sequence {seq}"
                );
                for _ in 0..8 {
                    let lowest = rng.gen_range(0u32..=20);
                    assert_eq!(
                        naive.next(seq, event, lowest),
                        csr.next(seq, event, lowest),
                        "next({seq}, {event:?}, {lowest})"
                    );
                }
            }
        }
        // Out-of-range semantics must match too.
        let ghost = EventId(db.num_events() as u32 + 3);
        assert_eq!(
            naive.event_positions(0, ghost),
            csr.event_positions(0, ghost)
        );
        assert_eq!(
            naive.event_positions(db.num_sequences() + 1, EventId(0)),
            csr.event_positions(db.num_sequences() + 1, EventId(0)),
        );
    }
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

#[test]
fn mining_outputs_match_the_nested_layout_across_modes_and_constraints() {
    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
    let constraint_cases = [
        GapConstraints::unbounded(),
        GapConstraints::max_gap(2),
        GapConstraints::max_window(6),
    ];
    for round in 0..12 {
        let db = random_database(&mut rng);
        let naive = NaiveIndex::build(&db);
        let prepared = PreparedDb::new(&db);
        for (mode, top_k) in FAMILIES {
            for constraints in constraint_cases {
                let lazy = Miner::new(&db)
                    .with_request(family(mode, top_k))
                    .min_sup(2)
                    .constraints(constraints)
                    .run();
                let snapshot = prepared
                    .miner()
                    .with_request(family(mode, top_k))
                    .min_sup(2)
                    .constraints(constraints)
                    .run();
                // Lazily-prepared and snapshot runs agree bit for bit.
                assert_eq!(
                    lazy.patterns,
                    snapshot.patterns,
                    "round {round}, {mode:?} top_k {top_k:?}, {}",
                    constraints.describe()
                );
                // Every reported support re-derives on the nested layout.
                for mined in &lazy.patterns {
                    assert_eq!(
                        mined.support,
                        naive_support(&db, &naive, mined.pattern.events(), constraints),
                        "round {round}, {mode:?} top_k {top_k:?}, {} — support of {:?}",
                        constraints.describe(),
                        mined.pattern
                    );
                }
            }
        }
    }
}

#[test]
fn reconstructed_landmarks_compress_back_to_the_reported_instances() {
    // The SoA buffer's full landmarks must compress instance by instance to
    // the (seq, first, last) triples the engine reports.
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for _ in 0..10 {
        let db = random_database(&mut rng);
        let outcome = Miner::new(&db)
            .min_sup(2)
            .mode(Mode::All)
            .keep_support_sets()
            .run();
        let sc = SupportComputer::new(&db);
        for mined in &outcome.patterns {
            let set = mined.support_set.as_ref().expect("requested");
            let landmarks = sc.support_landmarks(&mined.pattern);
            assert_eq!(landmarks.len() as u64, mined.support);
            for (landmark, instance) in landmarks.iter().zip(set.instances()) {
                assert_eq!(landmark.compress(), *instance, "{:?}", mined.pattern);
            }
        }
    }
}
