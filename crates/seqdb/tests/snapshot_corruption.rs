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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqdb::snapshot::{section_id, SectionPayload, SnapshotImage, SnapshotWriter};
use seqdb::{EventId, SnapshotError};
use std::path::PathBuf;

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
    assert!(message.contains("truncated or padded"), "{message}");
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

#[test]
fn store_reconstruction_validates_csr_invariants() {
    use seqdb::{SeqStore, SharedSlice};
    let events: SharedSlice<EventId> = vec![EventId(0), EventId(1)].into();

    let empty: SharedSlice<u32> = Vec::new().into();
    assert!(SeqStore::from_wide_parts(events.clone(), empty)
        .unwrap_err()
        .contains("sentinel"));

    let bad_start: SharedSlice<u32> = vec![1, 2].into();
    assert!(SeqStore::from_wide_parts(events.clone(), bad_start)
        .unwrap_err()
        .contains("start"));

    let not_monotone: SharedSlice<u32> = vec![0, 2, 1, 2].into();
    assert!(SeqStore::from_wide_parts(events.clone(), not_monotone)
        .unwrap_err()
        .contains("monotone"));

    let bad_end: SharedSlice<u32> = vec![0, 1].into();
    assert!(SeqStore::from_wide_parts(events.clone(), bad_end)
        .unwrap_err()
        .contains("arena"));

    let good: SharedSlice<u32> = vec![0, 1, 2].into();
    let store = SeqStore::from_wide_parts(events, good).expect("valid CSR");
    assert_eq!(store.num_sequences(), 2);
}

/// Five index columns from literal vectors.
fn columns(
    row_dir: &[u32],
    id_dir: &[u32],
    row_offsets: &[u32],
    ids: &[u32],
    positions: &[u32],
) -> seqdb::IndexColumns {
    seqdb::IndexColumns {
        row_dir: row_dir.to_vec().into(),
        id_dir: id_dir.to_vec().into(),
        row_offsets: row_offsets.to_vec().into(),
        ids: ids.to_vec().into(),
        positions: positions.to_vec().into(),
    }
}

#[test]
fn index_reconstruction_validates_csr_invariants() {
    use seqdb::{InvertedIndex, SequenceDatabase};
    // S0 = A, S1 = A, S2 = AB: A is dense (three rows), B sparse (row and
    // id for S2 only).
    let good = columns(
        &[0, 3, 4],
        &[0, 0, 1],
        &[0, 1, 2, 3, 4],
        &[2],
        &[1, 1, 1, 2],
    );
    let built = SequenceDatabase::from_str_rows(&["A", "A", "AB"]).inverted_index();
    assert_eq!(
        built.columns(),
        &good,
        "the fixture is what the builder writes"
    );
    let reject = |cols: seqdb::IndexColumns, sequences: usize, events: usize, needle: &str| {
        let err = InvertedIndex::from_shared_parts(cols, sequences, events).unwrap_err();
        assert!(err.contains(needle), "expected {needle:?} in: {err}");
    };

    // Directory shapes: one entry per event plus a sentinel, monotone,
    // ending at the row / id counts.
    reject(
        columns(&[0, 3], &[0, 0, 1], &[0, 1, 2, 3, 4], &[2], &[1, 1, 1, 2]),
        3,
        2,
        "entries",
    );
    reject(
        columns(&[0, 3, 4], &[0, 1], &[0, 1, 2, 3, 4], &[2], &[1, 1, 1, 2]),
        3,
        2,
        "entries",
    );
    reject(
        columns(
            &[0, 5, 4],
            &[0, 0, 1],
            &[0, 1, 2, 3, 4],
            &[2],
            &[1, 1, 1, 2],
        ),
        3,
        2,
        "monotone",
    );
    reject(
        columns(
            &[0, 3, 3],
            &[0, 0, 1],
            &[0, 1, 2, 3, 4],
            &[2],
            &[1, 1, 1, 2],
        ),
        3,
        2,
        "end at",
    );
    reject(
        columns(
            &[0, 3, 4],
            &[0, 1, 0],
            &[0, 1, 2, 3, 4],
            &[2],
            &[1, 1, 1, 2],
        ),
        3,
        2,
        "monotone",
    );
    reject(
        columns(
            &[0, 3, 4],
            &[0, 0, 2],
            &[0, 1, 2, 3, 4],
            &[2],
            &[1, 1, 1, 2],
        ),
        3,
        2,
        "end at",
    );

    // Row offsets: start at 0, monotone, end at the arena length.
    reject(
        columns(
            &[0, 3, 4],
            &[0, 0, 1],
            &[1, 1, 2, 3, 4],
            &[2],
            &[1, 1, 1, 2],
        ),
        3,
        2,
        "start",
    );
    reject(
        columns(
            &[0, 3, 4],
            &[0, 0, 1],
            &[0, 2, 1, 3, 4],
            &[2],
            &[1, 1, 1, 2],
        ),
        3,
        2,
        "monotone",
    );
    reject(
        columns(
            &[0, 3, 4],
            &[0, 0, 1],
            &[0, 1, 2, 3, 4],
            &[2],
            &[1, 1, 1, 2, 3],
        ),
        3,
        2,
        "end at",
    );

    // Each event is dense or sparse exactly as the rule says: B claimed
    // dense with one row; B dense with three rows but in one sequence; A
    // stored sparse although it is in every sequence; B with more ids than
    // rows.
    reject(
        columns(&[0, 3, 4], &[0, 0, 0], &[0, 1, 2, 3, 4], &[], &[1, 1, 1, 2]),
        3,
        2,
        "dense",
    );
    reject(
        columns(
            &[0, 3, 6],
            &[0, 0, 0],
            &[0, 1, 2, 3, 3, 3, 4],
            &[],
            &[1, 1, 1, 2],
        ),
        3,
        2,
        "dense",
    );
    reject(
        columns(
            &[0, 3, 4],
            &[0, 3, 4],
            &[0, 1, 2, 3, 4],
            &[0, 1, 2, 2],
            &[1, 1, 1, 2],
        ),
        3,
        2,
        "sparse",
    );
    reject(
        columns(
            &[0, 3, 4],
            &[0, 0, 2],
            &[0, 1, 2, 3, 4],
            &[2, 2],
            &[1, 1, 1, 2],
        ),
        3,
        2,
        "sparse",
    );

    // Sparse ids (five sequences, one event in two of them): strictly
    // ascending, inside the store, and each naming a non-empty row.
    let sparse =
        |ids: &[u32], row_offsets: &[u32]| columns(&[0, 2], &[0, 2], row_offsets, ids, &[1, 1]);
    assert!(InvertedIndex::from_shared_parts(sparse(&[1, 3], &[0, 1, 2]), 5, 1).is_ok());
    reject(sparse(&[3, 1], &[0, 1, 2]), 5, 1, "ascending");
    reject(sparse(&[1, 1], &[0, 1, 2]), 5, 1, "ascending");
    reject(sparse(&[1, 5], &[0, 1, 2]), 5, 1, "out of range");
    reject(
        columns(&[0, 2], &[0, 2], &[0, 0, 2], &[1, 3], &[1, 2]),
        5,
        1,
        "empty",
    );

    // Unsorted or 0-based posting lists would break the binary search in
    // `next` silently, so reconstruction must reject them.
    let one_row = |positions: &[u32]| columns(&[0, 1], &[0, 0], &[0, 2], &[], positions);
    reject(one_row(&[2, 1]), 1, 1, "ascending");
    reject(one_row(&[2, 2]), 1, 1, "ascending");
    reject(one_row(&[0, 1]), 1, 1, "1-based");

    let index = InvertedIndex::from_shared_parts(good, 3, 2).expect("valid index");
    assert_eq!(index.num_events(), 2);
    assert_eq!(index.event_positions(2, EventId(1)), Some(&[2u32][..]));
    assert_eq!(index.event_positions(0, EventId(1)), Some(&[][..]));
}
