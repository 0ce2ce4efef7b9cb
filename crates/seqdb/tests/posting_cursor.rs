//! Seeded property suite pinning [`seqdb::PostingCursor`] — the batched,
//! branch-free row cursor behind the growth kernels — against the naive
//! `partition_point` probe it replaces, over adversarial posting rows:
//! empty rows, probes at or past the row's last position, single-occurrence
//! events, and stride-1 runs (consecutive positions, where galloping's
//! fast path must not skip), at both event-column widths — and every public
//! query of the event-major index (plus the growth passes' forward-only row
//! handle) against a plain scan of the store, at the dense/sparse boundary.

use seqdb::{EventId, SequenceDatabase};

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

    /// Uniform-ish draw in `0..n` (`n >= 1`).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The per-call probe semantics the cursor must reproduce exactly: the
/// first position strictly greater than `lowest`.
fn naive_next(row: &[u32], lowest: u32) -> Option<u32> {
    let idx = row.partition_point(|&p| p <= lowest);
    row.get(idx).copied()
}

/// A random database over an alphabet of `alphabet` letters with `rows`
/// sequences of length up to `max_len` (possibly 0).
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

/// Drives one `(seq, event)` row through a full monotone probe chain and
/// checks the cursor against the naive probe at every step.
fn check_row(db: &SequenceDatabase, seq: usize, event: EventId, rng: &mut Lcg) {
    let index = db.inverted_index();
    let row: &[u32] = index.event_positions(seq, event).unwrap_or(&[]);
    // In-range ids always resolve a cursor — an empty row just yields one
    // that is exhausted from the start, matching the naive probe's `None`.
    let mut cursor = index.cursor(seq, event);
    assert!(cursor.is_some(), "in-range ids must resolve a cursor");
    assert_eq!(
        cursor.as_ref().map(seqdb::PostingCursor::remaining),
        Some(row.len()),
        "a fresh cursor spans the whole row (seq {seq}, event {event:?})"
    );

    // A non-decreasing lowest chain: mixed small steps (stride-1 regime),
    // repeats (same lowest twice — the constrained-rejection replay), and
    // occasional jumps at or past the row's maximum.
    let top = row.last().copied().unwrap_or(0) + 3;
    let mut lowest = 0u32;
    for _ in 0..64 {
        let expected = naive_next(row, lowest);
        let got = cursor.as_mut().and_then(|c| c.next_after(lowest));
        assert_eq!(
            got, expected,
            "seq {seq} event {event:?} lowest {lowest} row {row:?}"
        );
        lowest = match rng.below(8) {
            0 => lowest,                       // replay
            1..=4 => lowest.saturating_add(1), // stride-1 walk
            5 | 6 => lowest.saturating_add(rng.below(5) as u32 + 1),
            _ => top.max(lowest), // past the end
        };
    }
}

#[test]
fn cursor_matches_the_naive_probe_on_random_rows() {
    for seed in 0..24u64 {
        let mut rng = Lcg::new(seed);
        // Alphabet sizes 1..=6 cover single-event rows covering whole
        // sequences (stride-1 runs) up to sparse rows; lengths up to 40.
        let alphabet = rng.below(6) + 1;
        let db = random_db(&mut rng, 5, alphabet, 40);
        for seq in 0..db.num_sequences() {
            for event in db.catalog().ids() {
                check_row(&db, seq, event, &mut rng);
            }
        }
    }
}

#[test]
fn cursor_handles_the_adversarial_rows() {
    // One database exhibiting every adversarial shape at once:
    //   S0 "AAAAAAAA"  — a stride-1 run covering the whole sequence,
    //   S1 "B"         — a single-occurrence event,
    //   S2 ""          — an empty sequence (every row empty),
    //   S3 "ABABAB"    — interleaved stride-2 rows.
    let db = SequenceDatabase::from_str_rows(&["AAAAAAAA", "B", "", "ABABAB"]);
    let index = db.inverted_index();
    let a = db.catalog().id("A").expect("A interned");
    let b = db.catalog().id("B").expect("B interned");

    // Empty rows: the cursor resolves but starts exhausted, and out-of-range
    // ids resolve no cursor at all.
    for (seq, event) in [(1, a), (2, a), (2, b)] {
        let mut cursor = index.cursor(seq, event).expect("ids are in range");
        assert!(cursor.is_exhausted(), "empty row starts exhausted");
        assert_eq!(cursor.next_after(0), None);
    }
    assert!(index.cursor(4, a).is_none(), "sequence id out of range");

    // Stride-1 run: every probe advances by exactly one position.
    let mut cursor = index.cursor(0, a).expect("A covers S0");
    for lowest in 0..8u32 {
        assert_eq!(cursor.next_after(lowest), Some(lowest + 1));
    }
    assert_eq!(cursor.next_after(8), None, "row exhausted");
    assert_eq!(cursor.next_after(100), None, "stays exhausted");

    // Single-occurrence row, and a probe with lowest at/past the only
    // position.
    let mut cursor = index.cursor(1, b).expect("B occurs once in S1");
    assert_eq!(cursor.next_after(0), Some(1));
    assert_eq!(cursor.next_after(1), None);

    // A fresh cursor probed immediately past the row's last position.
    let mut cursor = index.cursor(3, b).expect("B occurs in S3");
    assert_eq!(cursor.next_after(6), None, "lowest == last position");

    // Interleaved rows stay independent: exhausting A's cursor in S3 does
    // not disturb a separately resolved B cursor.
    let mut a_cursor = index.cursor(3, a).expect("A occurs in S3");
    assert_eq!(a_cursor.next_after(0), Some(1));
    assert_eq!(a_cursor.next_after(3), Some(5));
    assert_eq!(a_cursor.next_after(5), None);
    let mut b_cursor = index.cursor(3, b).expect("B occurs in S3");
    assert_eq!(b_cursor.next_after(0), Some(2));
}

#[test]
fn consuming_probe_matches_the_naive_probe_under_its_contract() {
    // The growth kernel's step: peek with `next_after`, and `consume` the
    // position only when the instance's window accepts it. That is sound
    // exactly when every later `lowest` is at least the last accepted
    // position (the watermark): the consumed prefix can never hold a future
    // answer, and a rejected position stays at the front. So each peek must
    // still match the naive full-row probe at every step.
    for seed in 0..24u64 {
        let mut rng = Lcg::new(0xBADCAB ^ seed);
        let alphabet = rng.below(6) + 1;
        let db = random_db(&mut rng, 5, alphabet, 40);
        let index = db.inverted_index();
        for seq in 0..db.num_sequences() {
            for event in db.catalog().ids() {
                let row: &[u32] = index.event_positions(seq, event).unwrap_or(&[]);
                let mut cursor = index.cursor(seq, event).expect("ids are in range");
                let mut watermark = 0u32;
                let mut bound = 0u32;
                for _ in 0..48 {
                    let lowest = bound.max(watermark);
                    // Every fourth probe is unbounded above; the others get
                    // a window of 0..=3 positions past `lowest`.
                    let highest = match rng.below(4) {
                        0 => u32::MAX,
                        w => lowest.saturating_add(w as u32),
                    };
                    let expected = naive_next(row, lowest);
                    let got = cursor.next_after(lowest);
                    assert_eq!(
                        got, expected,
                        "seq {seq} event {event:?} lowest {lowest} row {row:?}"
                    );
                    if let Some(pos) = got.filter(|&pos| pos <= highest) {
                        cursor.consume();
                        watermark = pos;
                    }
                    bound = bound.saturating_add(rng.below(4) as u32);
                }
            }
        }
    }

    // A rejected position is not consumed: it answers the next instance.
    // S1 = ABCACBDDB holds D at {7, 8}. An instance ending at 3 with a
    // max gap of 0 rejects 7; the next instance, ending at 6, takes it; the
    // one after, bounded by the watermark 7, takes 8.
    let db = SequenceDatabase::from_str_rows(&["ABCACBDDB"]);
    let index = db.inverted_index();
    let d = db.catalog().id("D").expect("D interned");
    let mut cursor = index.cursor(0, d).expect("ids are in range");
    assert_eq!(cursor.next_after(3), Some(7), "rejected: 7 > 3 + 1");
    assert_eq!(cursor.next_after(6), Some(7), "the rejected 7 answers");
    cursor.consume();
    assert_eq!(cursor.remaining(), 1);
    assert_eq!(cursor.next_after(7), Some(8));
    cursor.consume();
    assert!(cursor.is_exhausted());
    assert_eq!(cursor.next_after(8), None);
}

#[test]
fn cursor_rows_are_identical_at_both_store_widths() {
    // The inverted index is derived from the store; the cursor must behave
    // identically whether the event column is narrow (u16) or widened to
    // u32 — the positions arena never changes width.
    for seed in 0..8u64 {
        let mut rng = Lcg::new(0xC0FFEE ^ seed);
        let narrow_db = random_db(&mut rng, 4, 4, 24);
        let mut wide_db = narrow_db.clone();
        wide_db.widen_store();
        assert!(narrow_db.store().is_narrow() || narrow_db.total_length() == 0);
        assert!(!wide_db.store().is_narrow());

        let narrow_index = narrow_db.inverted_index();
        let wide_index = wide_db.inverted_index();
        for seq in 0..narrow_db.num_sequences() {
            for event in narrow_db.catalog().ids() {
                assert_eq!(
                    narrow_index.event_positions(seq, event),
                    wide_index.event_positions(seq, event),
                    "rows diverge at seq {seq}, event {event:?}"
                );
                let mut narrow_cursor = narrow_index.cursor(seq, event);
                let mut wide_cursor = wide_index.cursor(seq, event);
                let mut lowest = 0u32;
                for _ in 0..32 {
                    let n = narrow_cursor.as_mut().and_then(|c| c.next_after(lowest));
                    let w = wide_cursor.as_mut().and_then(|c| c.next_after(lowest));
                    assert_eq!(n, w, "seq {seq} event {event:?} lowest {lowest}");
                    lowest = lowest.saturating_add(rng.below(3) as u32);
                }
            }
        }
    }
}

/// The positions of `event` in sequence `seq`, by scanning the store.
fn scan(db: &SequenceDatabase, seq: usize, event: EventId) -> Vec<u32> {
    db.sequence(seq)
        .map(|view| {
            view.iter_events()
                .enumerate()
                .filter(|&(_, e)| e == event)
                .map(|(i, _)| i as u32 + 1)
                .collect()
        })
        .unwrap_or_default()
}

/// A corpus of `ns` sequences (every fourth one empty when `empties`) whose
/// events sit exactly at the dense/sparse boundary: `ONE` in one sequence,
/// `LO`/`MID`/`HI` in `ns/2 − 1`, `ns/2` and `ns/2 + 1`, `ALL` in every
/// non-empty one, `NONE` interned but never used, plus random filler.
fn boundary_db(rng: &mut Lcg, ns: usize, empties: bool) -> SequenceDatabase {
    let mut rows: Vec<Vec<&str>> = vec![Vec::new(); ns];
    let live: Vec<usize> = (0..ns).filter(|s| !(empties && s % 4 == 1)).collect();
    let pick = |rng: &mut Lcg, k: usize| -> Vec<usize> {
        // k distinct live sequences, chosen by a seeded partial shuffle.
        let mut pool = live.clone();
        for i in 0..k.min(pool.len()) {
            let j = i + rng.below((pool.len() - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(k.min(live.len()));
        pool
    };
    let half = ns / 2;
    for (label, k) in [
        ("ONE", 1),
        ("LO", half - 1),
        ("MID", half),
        ("HI", half + 1),
    ] {
        for s in pick(rng, k) {
            for _ in 0..=rng.below(3) {
                rows[s].push(label);
            }
        }
    }
    for &s in &live {
        rows[s].push("ALL");
        for _ in 0..rng.below(4) {
            rows[s].push(["x", "y", "z"][rng.below(3) as usize]);
        }
    }
    // Shuffle each row so positions interleave.
    for row in &mut rows {
        for i in (1..row.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            row.swap(i, j);
        }
    }
    let mut builder = seqdb::DatabaseBuilder::new();
    builder.intern("NONE");
    for row in &rows {
        builder.push_tokens(row.iter().copied());
    }
    builder.finish()
}

#[test]
fn every_index_query_matches_a_store_scan_across_layouts() {
    let mut dense_seen = 0usize;
    for seed in 0..6u64 {
        let mut rng = Lcg::new(0x51DE ^ seed);
        let ns = 20 + seed as usize % 3;
        let db = boundary_db(&mut rng, ns, seed % 2 == 0);
        let index = db.inverted_index();
        dense_seen += index.dense_events();
        for event in db.catalog().ids() {
            let rows: Vec<Vec<u32>> = (0..ns).map(|s| scan(&db, s, event)).collect();
            let containing: Vec<usize> = (0..ns).filter(|&s| !rows[s].is_empty()).collect();
            let total: usize = rows.iter().map(Vec::len).sum();
            assert_eq!(index.total_count(event), total);
            assert_eq!(index.sequence_count(event), containing.len());
            let listed: Vec<(usize, Vec<u32>)> = index
                .sequences_with_event(event)
                .map(|(s, p)| (s, p.to_vec()))
                .collect();
            let expected: Vec<(usize, Vec<u32>)> =
                containing.iter().map(|&s| (s, rows[s].clone())).collect();
            assert_eq!(listed, expected, "event {event:?}");

            let mut rows_handle = index.event_rows(event);
            for (seq, row) in rows.iter().enumerate() {
                let row = &row[..];
                assert_eq!(index.event_positions(seq, event), Some(row));
                assert_eq!(index.count_in_sequence(seq, event), row.len());
                assert_eq!(rows_handle.row(seq), Some(row), "seq {seq}");
                let mut cursor = index.cursor(seq, event).expect("in range");
                for lowest in 0..=row.last().copied().unwrap_or(0) + 1 {
                    let naive = naive_next(row, lowest);
                    assert_eq!(index.next(seq, event, lowest), naive);
                    assert_eq!(cursor.next_after(lowest), naive);
                }
            }
            assert_eq!(rows_handle.row(ns), None, "past the last sequence");
            assert_eq!(index.event_positions(ns, event), None);
            assert!(index.cursor(ns, event).is_none());

            // Handles that skip sequences — including ones a sparse event
            // is missing from — answer exactly, restricted or not.
            for restricted in [false, true] {
                let asked: Vec<usize> = (0..ns).filter(|_| rng.below(3) == 0).collect();
                let runs = seqdb::RunSet::of(asked.iter().copied());
                let mut handle = index.event_rows(event);
                if restricted {
                    handle.restrict(&runs);
                }
                for &seq in &asked {
                    assert_eq!(handle.row(seq), Some(&rows[seq][..]), "seq {seq}");
                }
            }
            // `next_row`: the answer is the first sequence at or after the
            // one asked that may hold the event; none in between do.
            let mut handle = index.event_rows(event);
            let mut seq = 0;
            while seq < ns {
                match handle.next_row(seq) {
                    Some((at, row)) => {
                        assert!(at >= seq && at < ns);
                        assert_eq!(row, &rows[at][..]);
                        assert!((seq..at).all(|s| rows[s].is_empty()));
                        seq = at + 1 + rng.below(2) as usize;
                    }
                    None => {
                        assert!((seq..ns).all(|s| rows[s].is_empty()));
                        break;
                    }
                }
            }
        }
        // Out-of-range events resolve nothing.
        let ghost = EventId(db.num_events() as u32);
        assert_eq!(index.total_count(ghost), 0);
        assert_eq!(index.event_positions(0, ghost), None);
    }
    assert!(dense_seen > 0, "the corpora must exercise the dense layout");
}
