//! Seeded corruption sweep over **every section** of a sharded (v5)
//! snapshot image, at one to seven shard-table ranges:
//! `seqdb::snapshot::verify` must flag each mutation and must never panic, distinguishing pure bit rot (checksum breakage with
//! intact sections) from resealed images whose payloads violate the
//! cross-section invariants.

use rgs_core::PreparedDb;
use seqdb::snapshot::verify::{self, ViolationKind};
use seqdb::snapshot::{checksum_of, section_id};
use seqdb::SequenceDatabase;

/// Builds a format-v5 image via the real writer path and returns its bytes.
/// `E` occurs in one sequence only, so the index stores it sparse (with a
/// sparse id) while `A`..`D` are dense.
fn image_bytes(shards: usize) -> Vec<u8> {
    let db = SequenceDatabase::from_str_rows(&[
        "ABCACBDDB",
        "ACDBACADD",
        "BCAADBC",
        "DDAACB",
        "CABDC",
        "BBADCA",
        "EAEBE",
    ]);
    let prepared = PreparedDb::from_database_sharded(db, shards);
    let path = std::env::temp_dir().join(format!(
        "rgs-mutation-sweep-{}-{shards}.snap",
        std::process::id()
    ));
    prepared.write_snapshot(&path).expect("write snapshot");
    let bytes = std::fs::read(&path).expect("read image back");
    std::fs::remove_file(&path).ok();
    bytes
}

/// One row of the section table (format spec: table at byte 64, 32-byte
/// entries `{id: u32, elem_size: u32, offset: u64, byte_len: u64, count: u64}`).
struct Section {
    id: u32,
    offset: usize,
    byte_len: usize,
    count: u64,
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("u32 window"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("u64 window"))
}

fn sections(bytes: &[u8]) -> Vec<Section> {
    let count = read_u32(bytes, 32) as usize;
    (0..count)
        .map(|i| {
            let base = 64 + i * 32;
            Section {
                id: read_u32(bytes, base),
                offset: read_u64(bytes, base + 8) as usize,
                byte_len: read_u64(bytes, base + 16) as usize,
                count: read_u64(bytes, base + 24),
            }
        })
        .collect()
}

/// Recomputes the checksum so only *semantic* (layout) damage remains.
fn reseal(bytes: &mut [u8]) {
    let sum = checksum_of(bytes);
    bytes[24..32].copy_from_slice(&sum.to_le_bytes());
}

/// A tiny deterministic PRNG (splitmix64) so the sweep is reproducible
/// without pulling rand into the corruption logic.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn every_written_image_verifies_clean_across_shard_counts() {
    // Every shard-table shape the writer produces, from one shard (the
    // unsharded preparation) to seven.
    for shards in 1..=7usize {
        let report = verify::verify_bytes(&image_bytes(shards));
        assert!(
            report.is_clean(),
            "{shards} shards: fresh image rejected: {report:?}"
        );
    }
}

#[test]
fn bit_rot_in_every_section_is_reported_as_checksum_breakage() {
    for shards in 1..=7usize {
        bit_rot_sweep(shards);
    }
}

fn bit_rot_sweep(shards: usize) {
    let image = image_bytes(shards);
    let table = sections(&image);
    assert!(
        table.iter().any(|s| s.id == section_id::SHARD_TABLE),
        "fixture must carry a shard table"
    );
    let mut rng = 0xD1CE_u64;
    for section in &table {
        if section.byte_len == 0 {
            continue;
        }
        // First, last, and a seeded interior byte of the payload.
        let interior = (splitmix(&mut rng) as usize) % section.byte_len;
        for at in [0, section.byte_len - 1, interior] {
            let mut mutated = image.clone();
            mutated[section.offset + at] ^= 0x5A;
            let report = verify::verify_bytes(&mutated);
            assert!(
                !report.is_clean(),
                "section {} ({}): flip at +{at} went unnoticed",
                section.id,
                section_id::name(section.id),
            );
            assert!(
                report.has(ViolationKind::Checksum),
                "section {} ({}): flip at +{at} must at least break the checksum",
                section.id,
                section_id::name(section.id),
            );
        }
    }
    // The unmutated image stays clean (the sweep above really is the cause).
    assert!(verify::verify_bytes(&image).is_clean());
}

#[test]
fn checksum_field_corruption_is_distinguished_from_layout_damage() {
    let image = image_bytes(2);
    // Corrupting the checksum *field* is pure bit rot: sections intact.
    let mut rotten = image.clone();
    rotten[24] ^= 0xFF;
    let report = verify::verify_bytes(&rotten);
    assert!(
        report.checksum_broken_only(),
        "field corruption is rot-only"
    );
    assert!(!report.has(ViolationKind::Layout));

    // A resealed semantic mutation is the opposite: checksum passes, layout
    // does not, so the rot-only classifier must reject it.
    let table = sections(&image);
    let meta = table
        .iter()
        .find(|s| s.id == section_id::META)
        .expect("META section");
    let mut mutated = image;
    let wrong = read_u64(&mutated, meta.offset) + 1;
    mutated[meta.offset..meta.offset + 8].copy_from_slice(&wrong.to_le_bytes());
    reseal(&mut mutated);
    let report = verify::verify_bytes(&mutated);
    assert!(!report.is_clean());
    assert!(!report.has(ViolationKind::Checksum), "image was resealed");
    assert!(!report.checksum_broken_only());
}

/// A targeted, guaranteed-detectable corruption for each section kind, keyed
/// by section id. Returns `false` when the section is too small to mutate.
fn corrupt_section(bytes: &mut [u8], section: &Section) -> bool {
    let at = section.offset;
    match section.id {
        // num_sequences + 1: every per-sequence count check mismatches.
        section_id::META => {
            let wrong = read_u64(bytes, at) + 1;
            bytes[at..at + 8].copy_from_slice(&wrong.to_le_bytes());
        }
        // An event id far past the catalog: out-of-range arena entry.
        section_id::STORE_EVENTS => {
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        // A non-monotone CSR interior: offsets must ascend.
        section_id::STORE_OFFSETS => {
            let mid = at + (section.count as usize / 2) * 4;
            bytes[mid..mid + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        // A label length prefix pointing far past the payload: truncation.
        section_id::CATALOG => {
            bytes[at + 4..at + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        // A count that disagrees with the recounted arena histogram.
        section_id::EVENT_COUNTS => {
            let wrong = read_u64(bytes, at) + 1;
            bytes[at..at + 8].copy_from_slice(&wrong.to_le_bytes());
        }
        // Swapping the first two entries breaks the ascending-id order.
        section_id::EVENT_ORDER => {
            if section.count < 2 {
                return false;
            }
            let (a, b) = (read_u32(bytes, at), read_u32(bytes, at + 4));
            bytes[at..at + 4].copy_from_slice(&b.to_le_bytes());
            bytes[at + 4..at + 8].copy_from_slice(&a.to_le_bytes());
        }
        // The sentinel no longer equals num_sequences: broken partition.
        section_id::SHARD_TABLE => {
            let last = at + (section.count as usize - 1) * 8;
            let wrong = read_u64(bytes, last) + 1;
            bytes[last..last + 8].copy_from_slice(&wrong.to_le_bytes());
        }
        // Directories and row offsets: the column no longer ends at the
        // rows / ids / positions count.
        section_id::INDEX_ROW_DIR | section_id::INDEX_ID_DIR | section_id::INDEX_ROW_OFFSETS => {
            let last = at + (section.count as usize - 1) * 4;
            let wrong = read_u32(bytes, last) + 1;
            bytes[last..last + 4].copy_from_slice(&wrong.to_le_bytes());
        }
        // A sparse id past the store's sequences.
        section_id::INDEX_IDS => {
            if section.count == 0 {
                return false;
            }
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        // A 0 position: positions are 1-based by construction.
        section_id::INDEX_POSITIONS => {
            if section.count == 0 {
                return false;
            }
            bytes[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        }
        id => panic!("unexpected section id {id} in fixture image"),
    }
    true
}

#[test]
fn resealed_semantic_damage_in_every_section_is_reported_as_layout_or_structure() {
    let mut sparse_ids = 0usize;
    for shards in 1..=7usize {
        let image = image_bytes(shards);
        let mut sweep = 0usize;
        for section in sections(&image) {
            let mut mutated = image.clone();
            if !corrupt_section(&mut mutated, &section) {
                continue;
            }
            reseal(&mut mutated);
            let report = verify::verify_bytes(&mutated);
            let name = section_id::name(section.id);
            assert!(
                !report.is_clean(),
                "{shards} shards, section {} ({name}): resealed damage went unnoticed",
                section.id,
            );
            assert!(
                !report.has(ViolationKind::Checksum),
                "{shards} shards, section {} ({name}): image was resealed",
                section.id,
            );
            assert!(
                report.has(ViolationKind::Layout) || report.has(ViolationKind::Structure),
                "{shards} shards, section {} ({name}): expected a layout/structure finding",
                section.id,
            );
            sweep += 1;
            if section_id::name(section.id) == "index.ids" {
                sparse_ids += 1;
            }
        }
        assert!(sweep >= 8, "sweep covered only {sweep} sections");
        // One index for the whole corpus: every section is mutated, the
        // sparse ids included, whatever the range count.
        assert_eq!(sweep, sections(&image).len(), "{shards} ranges");
    }
    assert!(sparse_ids > 0, "no sparse-id section was mutated");
    assert_eq!(sparse_ids, 7, "the sparse-id section at every range count");
}
