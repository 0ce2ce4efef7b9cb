//! Seeded corruption sweep over **every section** of a (v6) snapshot
//! image, on seven corpora — narrow and wide event arenas, several seeds:
//! `seqdb::snapshot::verify` must flag each mutation and must never panic,
//! distinguishing pure bit rot (checksum breakage with intact sections)
//! from resealed images whose payloads violate the cross-section
//! invariants.

use std::sync::atomic::{AtomicUsize, Ordering};

use rgs_core::PreparedDb;
use seqdb::snapshot::verify::{self, ViolationKind};
use seqdb::snapshot::{checksum_of, section_id};
use seqdb::{DatabaseBuilder, SequenceDatabase, NARROW_MAX_EVENT};

/// The base corpus. `E` occurs in one sequence only, so the index stores
/// it sparse (with a sparse id) while `A`..`D` are dense.
const BASE: [&str; 7] = [
    "ABCACBDDB",
    "ACDBACADD",
    "BCAADBC",
    "DDAACB",
    "CABDC",
    "BBADCA",
    "EAEBE",
];

/// The seven corpora of the sweep: the base corpus, five seeded random
/// ones, and the base corpus over an alphabet past `u16`, whose image
/// stores a wide (4-byte) event arena. Every corpus holds `E` in exactly
/// one of at least five sequences, so its index has a sparse id.
fn corpora() -> Vec<SequenceDatabase> {
    let mut corpora = vec![SequenceDatabase::from_str_rows(&BASE)];
    for seed in 1..=5u64 {
        let mut rng = seed;
        let rows = 5 + seed as usize % 4;
        let mut text: Vec<String> = (0..rows)
            .map(|_| {
                let len = 4 + splitmix(&mut rng) as usize % 9;
                (0..len)
                    .map(|_| ['A', 'B', 'C', 'D'][splitmix(&mut rng) as usize % 4])
                    .collect()
            })
            .collect();
        let row = splitmix(&mut rng) as usize % rows;
        let at = splitmix(&mut rng) as usize % (text[row].len() + 1);
        text[row].insert(at, 'E');
        let refs: Vec<&str> = text.iter().map(String::as_str).collect();
        corpora.push(SequenceDatabase::from_str_rows(&refs));
    }
    let mut builder = DatabaseBuilder::new();
    for filler in 0..=NARROW_MAX_EVENT {
        builder.intern(&format!("x{filler}"));
    }
    for row in BASE {
        builder.push_tokens((0..row.len()).map(|i| &row[i..=i]));
    }
    corpora.push(builder.finish());
    corpora
}

/// Builds a format-v6 image of `db` via the real writer path and returns
/// its bytes. Tests run on parallel threads of one process, so every call
/// writes a file of its own.
fn image_bytes(db: &SequenceDatabase) -> Vec<u8> {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "rgs-mutation-sweep-{}-{call}.snap",
        std::process::id()
    ));
    PreparedDb::new(db)
        .write_snapshot(&path)
        .expect("write snapshot");
    let bytes = std::fs::read(&path).expect("read image back");
    std::fs::remove_file(&path).ok();
    bytes
}

/// The images of [`corpora`], in order.
fn images() -> Vec<Vec<u8>> {
    corpora().iter().map(image_bytes).collect()
}

/// One row of the section table (format spec: table at byte 64, 32-byte
/// entries `{id: u32, elem_size: u32, offset: u64, byte_len: u64, count: u64}`).
struct Section {
    id: u32,
    elem_size: u32,
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
                elem_size: read_u32(bytes, base + 4),
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
fn every_written_image_verifies_clean_across_corpora() {
    let mut wide = 0usize;
    for (i, image) in images().iter().enumerate() {
        let report = verify::verify_bytes(image);
        assert!(
            report.is_clean(),
            "corpus {i}: fresh image rejected: {report:?}"
        );
        let events = sections(image)
            .into_iter()
            .find(|s| s.id == section_id::STORE_EVENTS)
            .expect("STORE_EVENTS section");
        if events.elem_size == 4 {
            wide += 1;
        }
    }
    assert_eq!(wide, 1, "one corpus writes a wide event arena");
}

#[test]
fn bit_rot_in_every_section_is_reported_as_checksum_breakage() {
    for image in images() {
        bit_rot_sweep(&image);
    }
}

fn bit_rot_sweep(image: &[u8]) {
    let table = sections(image);
    let mut rng = 0xD1CE_u64;
    for section in &table {
        if section.byte_len == 0 {
            continue;
        }
        // First, last, and a seeded interior byte of the payload.
        let interior = (splitmix(&mut rng) as usize) % section.byte_len;
        for at in [0, section.byte_len - 1, interior] {
            let mut mutated = image.to_vec();
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
    assert!(verify::verify_bytes(image).is_clean());
}

#[test]
fn checksum_field_corruption_is_distinguished_from_layout_damage() {
    let image = image_bytes(&SequenceDatabase::from_str_rows(&BASE));
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
    for (i, image) in images().iter().enumerate() {
        let mut sweep = 0usize;
        for section in sections(image) {
            let mut mutated = image.clone();
            if !corrupt_section(&mut mutated, &section) {
                continue;
            }
            reseal(&mut mutated);
            let report = verify::verify_bytes(&mutated);
            let name = section_id::name(section.id);
            assert!(
                !report.is_clean(),
                "corpus {i}, section {} ({name}): resealed damage went unnoticed",
                section.id,
            );
            assert!(
                !report.has(ViolationKind::Checksum),
                "corpus {i}, section {} ({name}): image was resealed",
                section.id,
            );
            assert!(
                report.has(ViolationKind::Layout) || report.has(ViolationKind::Structure),
                "corpus {i}, section {} ({name}): expected a layout/structure finding",
                section.id,
            );
            sweep += 1;
            if section_id::name(section.id) == "index.ids" {
                sparse_ids += 1;
            }
        }
        assert!(sweep >= 8, "sweep covered only {sweep} sections");
        // Every section is mutated, the sparse ids included.
        assert_eq!(sweep, sections(image).len(), "corpus {i}");
    }
    assert_eq!(sparse_ids, 7, "the sparse-id section of every corpus");
}
