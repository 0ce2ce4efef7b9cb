//! Adversarial tests for the snapshot image format: corrupted files must be
//! rejected with a descriptive [`SnapshotError`] and must **never** panic.
//!
//! Two attacker models are exercised:
//!
//! 1. *Accidental corruption* (bit rot, short writes): any single-bit flip
//!    anywhere in the file, and any truncation, must fail the full-file
//!    checksum (or an earlier header check). This is property-tested with a
//!    seeded PRNG plus an exhaustive sweep over the header and table.
//! 2. *Well-formed-but-wrong files* (old versions, foreign endianness,
//!    garbage tables): the test re-seals tampered files with a freshly
//!    computed checksum — implemented here independently from the spec in
//!    `seqdb::snapshot` — so the deeper validators are reached and their
//!    specific errors observed.
//!
//! A third set writes prepared-database images whose sections are sealed
//! and well-formed but break one layout rule (a store or index column the
//! layout forbids): `verify` must name the rule, and `open_prepared` — what
//! `PreparedDb::open_snapshot` runs — must refuse the image.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqdb::snapshot::{
    catalog_to_bytes, open_prepared, section_id, verify, PreparedImage, SectionPayload,
    SnapshotImage, SnapshotWriter,
};
use seqdb::{EventId, SequenceDatabase, SnapshotError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "seqdb-corruption-{}-{tag}.snap",
        std::process::id()
    ))
}

/// Writes a representative multi-section image and returns its bytes.
fn sample_image_bytes(tag: &str) -> Vec<u8> {
    let path = temp_path(tag);
    let events: Vec<EventId> = (0..60).map(|i| EventId(i % 7)).collect();
    let offsets: Vec<u32> = vec![0, 20, 20, 45, 60];
    let counts: Vec<u64> = (0..7).map(|i| i * 3).collect();
    let mut writer = SnapshotWriter::new();
    writer
        .section(section_id::META, SectionPayload::U64s(&[4, 7, 60]))
        .section(section_id::STORE_EVENTS, SectionPayload::EventIds(&events))
        .section(section_id::STORE_OFFSETS, SectionPayload::U32s(&offsets))
        .section(section_id::EVENT_COUNTS, SectionPayload::U64s(&counts))
        .section(section_id::CATALOG, SectionPayload::Bytes(b"opaque"));
    writer.write_to_path(&path).expect("write sample");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    bytes
}

/// Writes `bytes` to a temp file and tries to open it as a snapshot.
fn open_bytes(tag: &str, bytes: &[u8]) -> Result<SnapshotImage, SnapshotError> {
    let path = temp_path(tag);
    std::fs::write(&path, bytes).expect("write tampered file");
    let result = SnapshotImage::open(&path);
    std::fs::remove_file(&path).ok();
    result
}

/// Independent implementation of the spec'd checksum: FNV-1a 64 over every
/// byte except the checksum field at [24, 32).
fn spec_checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |data: &[u8]| {
        for &b in data {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&bytes[..24]);
    eat(&bytes[32..]);
    hash
}

/// Re-seals a tampered image so validation proceeds past the checksum.
fn reseal(bytes: &mut [u8]) {
    let checksum = spec_checksum(bytes);
    bytes[24..32].copy_from_slice(&checksum.to_le_bytes());
}

#[test]
fn pristine_sample_opens() {
    let bytes = sample_image_bytes("pristine");
    let image = open_bytes("pristine-open", &bytes).expect("pristine image opens");
    assert_eq!(image.u64s(section_id::META).unwrap(), &[4, 7, 60]);
}

#[test]
fn every_single_bit_flip_is_rejected() {
    // Exhaustive over every bit of the file: header, table, padding, and
    // payloads alike. The checksum spans everything except its own field,
    // and a flip inside the checksum field breaks the seal itself, so no
    // flip may survive — and none may panic.
    let bytes = sample_image_bytes("bitflip");
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut tampered = bytes.clone();
            tampered[byte] ^= 1 << bit;
            let result = open_bytes("bitflip-case", &tampered);
            assert!(
                result.is_err(),
                "flip of bit {bit} in byte {byte} was not detected"
            );
        }
    }
}

#[test]
fn random_multi_bit_corruption_is_rejected() {
    let bytes = sample_image_bytes("multiflip");
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
    for case in 0..200 {
        let mut tampered = bytes.clone();
        let flips = rng.gen_range(2..16usize);
        for _ in 0..flips {
            let byte = rng.gen_range(0..tampered.len());
            let bit = rng.gen_range(0..8u32);
            tampered[byte] ^= 1 << bit;
        }
        if tampered == bytes {
            continue; // the flips cancelled out
        }
        let result = open_bytes("multiflip-case", &tampered);
        assert!(result.is_err(), "corruption case {case} was not detected");
    }
}

#[test]
fn every_truncation_is_rejected() {
    let bytes = sample_image_bytes("truncate");
    for len in 0..bytes.len() {
        let result = open_bytes("truncate-case", &bytes[..len]);
        let err = result
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} of {} bytes was accepted", bytes.len()));
        assert!(
            matches!(err, SnapshotError::Corrupt(_)),
            "truncation to {len} gave unexpected error: {err}"
        );
    }
}

#[test]
fn appended_garbage_is_rejected() {
    let mut bytes = sample_image_bytes("append");
    bytes.extend_from_slice(b"trailing junk");
    let err = open_bytes("append-case", &bytes).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("header records"), "{message}");
}

#[test]
fn wrong_magic_is_rejected_with_a_clear_error() {
    let mut bytes = sample_image_bytes("magic");
    bytes[..8].copy_from_slice(b"NOTASNAP");
    reseal(&mut bytes);
    let err = open_bytes("magic-case", &bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::Corrupt(_)));
    assert!(err.to_string().contains("magic"), "{err}");
}

#[test]
fn wrong_version_is_unsupported_not_corrupt() {
    let mut bytes = sample_image_bytes("version");
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    reseal(&mut bytes);
    let err = open_bytes("version-case", &bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::Unsupported(_)), "{err}");
    assert!(err.to_string().contains("version 99"), "{err}");
}

#[test]
fn foreign_endianness_is_unsupported() {
    let mut bytes = sample_image_bytes("endian");
    // A big-endian writer would have stored the marker byte-swapped.
    let marker = &mut bytes[12..16];
    marker.reverse();
    reseal(&mut bytes);
    let err = open_bytes("endian-case", &bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::Unsupported(_)), "{err}");
    assert!(err.to_string().contains("endianness"), "{err}");
}

#[test]
fn nonzero_reserved_header_bytes_are_rejected() {
    let mut bytes = sample_image_bytes("reserved");
    bytes[40] = 1;
    reseal(&mut bytes);
    let err = open_bytes("reserved-case", &bytes).unwrap_err();
    assert!(err.to_string().contains("reserved"), "{err}");
}

#[test]
fn resealed_table_garbage_hits_the_structural_validators() {
    let bytes = sample_image_bytes("table");
    let entry = 64usize; // first table entry

    // Element size not in {1, 4, 8}.
    let mut tampered = bytes.clone();
    tampered[entry + 4..entry + 8].copy_from_slice(&3u32.to_le_bytes());
    reseal(&mut tampered);
    let err = open_bytes("table-elem", &tampered).unwrap_err();
    assert!(err.to_string().contains("element size"), "{err}");

    // Misaligned payload offset.
    let mut tampered = bytes.clone();
    tampered[entry + 8..entry + 16].copy_from_slice(&333u64.to_le_bytes());
    reseal(&mut tampered);
    let err = open_bytes("table-align", &tampered).unwrap_err();
    assert!(err.to_string().contains("aligned"), "{err}");

    // Payload past the end of the file.
    let mut tampered = bytes.clone();
    let huge = (bytes.len() as u64 + 64).div_ceil(64) * 64;
    tampered[entry + 8..entry + 16].copy_from_slice(&huge.to_le_bytes());
    reseal(&mut tampered);
    let err = open_bytes("table-bounds", &tampered).unwrap_err();
    assert!(err.to_string().contains("exceeds"), "{err}");

    // Byte length inconsistent with count x elem_size.
    let mut tampered = bytes.clone();
    tampered[entry + 24..entry + 32].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut tampered);
    let err = open_bytes("table-count", &tampered).unwrap_err();
    assert!(err.to_string().contains("byte length"), "{err}");

    // Duplicate section id (copy entry 0's id into entry 1).
    let mut tampered = bytes.clone();
    let id0: [u8; 4] = tampered[entry..entry + 4].try_into().unwrap();
    tampered[entry + 32..entry + 36].copy_from_slice(&id0);
    reseal(&mut tampered);
    let err = open_bytes("table-dup", &tampered).unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
}

#[test]
fn random_files_are_never_panics_only_errors() {
    // Fully random garbage of assorted sizes, including the magic prefix to
    // get past the first check with arbitrary headers behind it.
    let mut rng = StdRng::seed_from_u64(0xdead_beef);
    for case in 0..200 {
        let len = rng.gen_range(0..2048usize);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        if case % 2 == 0 && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"RGS1SNAP");
        }
        let result = open_bytes("random-case", &bytes);
        assert!(result.is_err(), "random file {case} of {len} bytes opened");
    }
}

/// Every section of a v6 prepared image as owned columns, taken from a
/// real preparation of `rows`, so a test can swap one column for a set
/// the layout forbids and write the result through [`SnapshotWriter`].
#[derive(Clone)]
struct Layout {
    meta: Vec<u64>,
    events: Vec<u16>,
    offsets: Vec<u32>,
    catalog: Vec<u8>,
    counts: Vec<u64>,
    order: Vec<EventId>,
    /// The five index columns, in [`section_id::INDEX_COLUMNS`] order.
    index: [Vec<u32>; 5],
}

impl Layout {
    fn of(rows: &[&str]) -> Self {
        let db = SequenceDatabase::from_str_rows(rows);
        let index = db.inverted_index();
        let counts = index.total_counts();
        let order = db
            .catalog()
            .ids()
            .filter(|e| counts[e.index()] > 0)
            .collect();
        let meta = [db.num_sequences(), db.num_events(), db.total_length()];
        Self {
            meta: meta.iter().map(|&n| n as u64).collect(),
            events: db
                .store()
                .event_column()
                .narrow_slice()
                .expect("narrow")
                .to_vec(),
            offsets: db.store().offsets().to_vec(),
            catalog: catalog_to_bytes(db.catalog()),
            counts,
            order,
            index: index.columns().as_slices().map(<[u32]>::to_vec),
        }
    }

    /// A copy with index column `column` (an [`section_id::INDEX_COLUMNS`]
    /// slot) replaced.
    fn with_index(&self, column: usize, values: &[u32]) -> Self {
        let mut layout = self.clone();
        layout.index[column] = values.to_vec();
        layout
    }

    /// Writes the image to a file of its own (tests run in parallel).
    fn write(&self) -> PathBuf {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let path = temp_path(&format!("layout-{}", CALLS.fetch_add(1, Ordering::Relaxed)));
        let mut writer = SnapshotWriter::new();
        writer
            .section(section_id::META, SectionPayload::U64s(&self.meta))
            .section(section_id::STORE_EVENTS, SectionPayload::U16s(&self.events))
            .section(
                section_id::STORE_OFFSETS,
                SectionPayload::U32s(&self.offsets),
            )
            .section(section_id::CATALOG, SectionPayload::Bytes(&self.catalog))
            .section(section_id::EVENT_COUNTS, SectionPayload::U64s(&self.counts))
            .section(
                section_id::EVENT_ORDER,
                SectionPayload::EventIds(&self.order),
            );
        for (id, column) in section_id::INDEX_COLUMNS.into_iter().zip(&self.index) {
            writer.section(id, SectionPayload::U32s(column));
        }
        writer.write_to_path(&path).expect("write layout");
        path
    }

    /// Writes the image, then verifies and opens it.
    fn verify_and_open(&self) -> (verify::Report, Result<PreparedImage, SnapshotError>) {
        let path = self.write();
        let report = verify::verify_file(&path).expect("read image");
        let opened = open_prepared(&path);
        std::fs::remove_file(&path).ok();
        (report, opened)
    }

    /// The opened image, after checking that the verifier finds it clean.
    fn open(&self) -> PreparedImage {
        let (report, opened) = self.verify_and_open();
        assert!(report.is_clean(), "{:#?}", report.violations);
        opened.expect("a clean image opens")
    }

    /// Asserts that the verifier rejects the image with a violation naming
    /// `needle`, and that opening rejects it too.
    fn assert_rejected(&self, needle: &str) {
        let (report, opened) = self.verify_and_open();
        assert!(
            report.violations.iter().any(|v| v.detail.contains(needle)),
            "expected {needle:?} in {:#?}",
            report.violations
        );
        let err = opened.expect_err("an image the verifier rejects opened");
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }
}

#[test]
fn store_reconstruction_validates_csr_invariants() {
    // Two one-event sequences: the store's offsets are [0, 1, 2].
    let layout = Layout::of(&["A", "B"]);
    assert_eq!(layout.offsets, [0, 1, 2]);
    for (offsets, needle) in [
        (&[][..], "expected 3"),
        (&[1, 1, 2], "start at 1"),
        (&[0, 2, 1], "monotone"),
        (&[0, 1, 1], "end at 1"),
    ] {
        let mut bad = layout.clone();
        bad.offsets = offsets.to_vec();
        bad.assert_rejected(needle);
    }
    assert_eq!(layout.open().database.num_sequences(), 2);
}

#[test]
fn index_reconstruction_validates_csr_invariants() {
    // S0 = A, S1 = A, S2 = AB: A is dense (three rows), B sparse (row and
    // id for S2 only). Columns: row directory, id directory, row offsets,
    // ids, positions.
    let layout = Layout::of(&["A", "A", "AB"]);
    assert_eq!(
        layout.index,
        [
            vec![0, 3, 4],
            vec![0, 0, 1],
            vec![0, 1, 2, 3, 4],
            vec![2],
            vec![1, 1, 1, 2],
        ],
        "the fixture is what the builder writes"
    );
    let (row_dir, id_dir, row_offsets, ids, positions) = (0, 1, 2, 3, 4);

    // Directory shapes: one entry per event plus a sentinel, monotone,
    // ending at the row / id counts.
    for (column, values, needle) in [
        (row_dir, &[0, 3][..], "expected 3"),
        (id_dir, &[0, 1], "expected 3"),
        (row_dir, &[0, 5, 4], "monotone"),
        (row_dir, &[0, 3, 3], "end at 3"),
        (id_dir, &[0, 1, 0], "monotone"),
        (id_dir, &[0, 0, 2], "end at 2"),
        // Row offsets: start at 0, monotone, end at the arena length.
        (row_offsets, &[1, 1, 2, 3, 4], "start at 1"),
        (row_offsets, &[0, 2, 1, 3, 4], "monotone"),
        (positions, &[1, 1, 1, 2, 3], "expected 4"),
    ] {
        layout.with_index(column, values).assert_rejected(needle);
    }

    // Each event is dense or sparse exactly as the rule says: B claimed
    // dense with one row; B dense with three rows but in one sequence; A
    // stored sparse although it is in every sequence; B with more ids than
    // rows.
    layout
        .with_index(id_dir, &[0, 0, 0])
        .with_index(ids, &[])
        .assert_rejected("stored dense with 1 rows");
    layout
        .with_index(row_dir, &[0, 3, 6])
        .with_index(id_dir, &[0, 0, 0])
        .with_index(row_offsets, &[0, 1, 2, 3, 3, 3, 4])
        .with_index(ids, &[])
        .assert_rejected("occurs in 1 of 3");
    layout
        .with_index(id_dir, &[0, 3, 4])
        .with_index(ids, &[0, 1, 2, 2])
        .assert_rejected("stored sparse");
    layout
        .with_index(id_dir, &[0, 0, 2])
        .with_index(ids, &[2, 2])
        .assert_rejected("stored sparse");

    // Sparse ids (five sequences, one event in two of them): strictly
    // ascending, inside the store, and each naming a non-empty row.
    let sparse = Layout::of(&["", "A", "", "A", ""]);
    assert_eq!(sparse.index[ids], [1, 3]);
    sparse.with_index(ids, &[3, 1]).assert_rejected("ascending");
    sparse.with_index(ids, &[1, 1]).assert_rejected("ascending");
    sparse
        .with_index(ids, &[1, 5])
        .assert_rejected("out of range");
    sparse
        .with_index(row_offsets, &[0, 0, 2])
        .with_index(positions, &[1, 2])
        .assert_rejected("empty");

    // Unsorted or 0-based posting lists would break the binary search in
    // `next` silently, so opening must reject them.
    let one_row = Layout::of(&["AA"]);
    assert_eq!(one_row.index[positions], [1, 2]);
    one_row
        .with_index(positions, &[2, 1])
        .assert_rejected("ascending");
    one_row
        .with_index(positions, &[2, 2])
        .assert_rejected("ascending");
    one_row
        .with_index(positions, &[0, 1])
        .assert_rejected("1-based");

    let index = layout.open().index;
    assert_eq!(index.num_events(), 2);
    assert_eq!(index.event_positions(2, EventId(1)), Some(&[2u32][..]));
    assert_eq!(index.event_positions(0, EventId(1)), Some(&[][..]));
}
