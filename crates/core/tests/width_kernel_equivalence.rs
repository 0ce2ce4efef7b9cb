//! Mining output is bit-identical across event-column widths.
//!
//! The narrow-column refactor changes how events are *stored* (2 bytes
//! when the alphabet fits `u16`), which may not change a single emitted
//! pattern. This suite pins that: the same database mined narrow and
//! widened (`SequenceDatabase::widen_store`) produces identical pattern
//! lists across every mode and top-k, with and without gap constraints, and
//! through a snapshot round trip (where the writer re-narrows a wide
//! column on the way out).

use rgs_core::{GapConstraints, Miner, MiningRequest, Mode, PreparedDb, DEFAULT_TOP_K};
use seqdb::SequenceDatabase;

/// A tiny deterministic LCG (no external RNG crates in this workspace).
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Self(
            seed.wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493),
        )
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn random_db(rng: &mut Lcg, rows: usize, alphabet: u64, max_len: u64) -> SequenceDatabase {
    let strings: Vec<String> = (0..rows)
        .map(|_| {
            let len = rng.below(max_len + 1) as usize;
            (0..len)
                .map(|_| char::from(b'A' + rng.below(alphabet) as u8))
                .collect()
        })
        .collect();
    let refs: Vec<&str> = strings.iter().map(String::as_str).collect();
    SequenceDatabase::from_str_rows(&refs)
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

fn constraint_grid() -> [GapConstraints; 4] {
    [
        GapConstraints::unbounded(),
        GapConstraints::max_gap(1),
        GapConstraints::gap_range(1, 3),
        GapConstraints::max_window(4),
    ]
}

#[test]
fn narrow_and_wide_stores_mine_bit_identically() {
    for seed in 0..6u64 {
        let mut rng = Lcg::new(seed);
        let narrow_db = random_db(&mut rng, 6, 4, 20);
        let mut wide_db = narrow_db.clone();
        wide_db.widen_store();
        if narrow_db.total_length() > 0 {
            assert!(
                narrow_db.store().is_narrow(),
                "small alphabet builds narrow"
            );
        }
        assert!(!wide_db.store().is_narrow(), "widen_store forces u32");

        for (mode, top_k) in FAMILIES {
            for constraints in constraint_grid() {
                let narrow = Miner::new(&narrow_db)
                    .with_request(family(mode, top_k))
                    .min_sup(2)
                    .constraints(constraints)
                    .run();
                let wide = Miner::new(&wide_db)
                    .with_request(family(mode, top_k))
                    .min_sup(2)
                    .constraints(constraints)
                    .run();
                assert_eq!(
                    narrow.patterns,
                    wide.patterns,
                    "seed {seed}, {mode:?} top_k {top_k:?}, {} diverges across widths",
                    constraints.describe()
                );
            }
        }
    }
}

#[test]
fn the_running_example_is_width_invariant_with_landmarks_retained() {
    // Table III's database, with support sets materialized — landmark
    // reconstruction exercises the InstanceBuffer kernel path too.
    let narrow_db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
    let mut wide_db = narrow_db.clone();
    wide_db.widen_store();
    for mode in [Mode::All, Mode::Closed] {
        for constraints in constraint_grid() {
            let narrow = Miner::new(&narrow_db)
                .min_sup(2)
                .mode(mode)
                .constraints(constraints)
                .keep_support_sets()
                .run();
            let wide = Miner::new(&wide_db)
                .min_sup(2)
                .mode(mode)
                .constraints(constraints)
                .keep_support_sets()
                .run();
            assert_eq!(narrow.patterns, wide.patterns);
        }
    }
}

#[test]
fn snapshot_round_trips_re_narrow_wide_columns_and_stay_bit_identical() {
    let mut rng = Lcg::new(0xA11CE);
    let narrow_db = random_db(&mut rng, 5, 3, 16);
    let mut wide_db = narrow_db.clone();
    wide_db.widen_store();

    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let narrow_path = dir.join(format!("rgs-width-eq-{tag}-narrow.snap"));
    let wide_path = dir.join(format!("rgs-width-eq-{tag}-wide.snap"));

    let narrow_prepared = PreparedDb::new(&narrow_db);
    let wide_prepared = PreparedDb::new(&wide_db);
    narrow_prepared
        .write_snapshot(&narrow_path)
        .expect("write narrow");
    wide_prepared
        .write_snapshot(&wide_path)
        .expect("write wide");

    let from_narrow = PreparedDb::open_snapshot(&narrow_path).expect("open narrow");
    let from_wide = PreparedDb::open_snapshot(&wide_path).expect("open wide");
    // Narrowest-fit writing: both images map back with a 2-byte arena.
    assert!(from_narrow.database().store().is_narrow());
    assert!(
        from_wide.database().store().is_narrow(),
        "a wide-but-u16-fit column must be re-narrowed on write"
    );

    for (mode, top_k) in FAMILIES {
        let expected = narrow_prepared
            .miner()
            .with_request(family(mode, top_k))
            .min_sup(2)
            .run();
        for reopened in [&from_narrow, &from_wide] {
            let cold = reopened
                .miner()
                .with_request(family(mode, top_k))
                .min_sup(2)
                .run();
            assert_eq!(
                expected.patterns, cold.patterns,
                "{mode:?} top_k {top_k:?} diverges"
            );
        }
    }

    std::fs::remove_file(&narrow_path).ok();
    std::fs::remove_file(&wide_path).ok();
}
