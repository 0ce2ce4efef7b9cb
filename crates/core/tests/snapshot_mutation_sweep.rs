//! Seeded corruption sweep over **every section** of a (v7) snapshot
//! image, on seven corpora — narrow and wide event arenas, several seeds:
//! `seqdb::snapshot::verify` must flag each mutation and must never panic,
//! distinguishing pure bit rot (checksum breakage with intact sections)
//! from resealed images whose payloads violate the cross-section
//! invariants. Differentially, `PreparedDb::open_snapshot` must fail on
//! exactly the images the verifier flags, and a pristine image must open
//! to a preparation equal to `PreparedDb::new` of its corpus.

use std::sync::atomic::{AtomicUsize, Ordering};

use rgs_core::PreparedDb;
use seqdb::snapshot::verify::{self, ViolationKind};
use seqdb::snapshot::{checksum_of, section_id};
use seqdb::{DatabaseBuilder, SequenceDatabase, SnapshotError, NARROW_MAX_EVENT};

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
/// stores a wide (4-byte) event arena and whose catalog holds 65 536
/// "ghost" events that never occur. Every corpus holds `E` in exactly one
/// of at least five sequences, so its index has a sparse id.
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

/// A temp file path of its own: tests run on parallel threads of one
/// process.
fn temp_path() -> std::path::PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rgs-mutation-sweep-{}-{call}.snap",
        std::process::id()
    ))
}

/// Builds a format-v7 image of `db` via the real writer path and returns
/// its bytes.
fn image_bytes(db: &SequenceDatabase) -> Vec<u8> {
    let path = temp_path();
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

/// The bit-rot sweep's mutations of `image`: the first, last, and a
/// seeded interior byte of every non-empty payload, each flipped alone,
/// labelled by section and payload offset.
fn bit_rot_mutations(image: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut rng = 0xD1CE_u64;
    let mut mutations = Vec::new();
    for section in sections(image) {
        if section.byte_len == 0 {
            continue;
        }
        let interior = (splitmix(&mut rng) as usize) % section.byte_len;
        for at in [0, section.byte_len - 1, interior] {
            let mut mutated = image.to_vec();
            mutated[section.offset + at] ^= 0x5A;
            let label = format!(
                "section {} ({}): flip at +{at}",
                section.id,
                section_id::name(section.id)
            );
            mutations.push((label, mutated));
        }
    }
    mutations
}

fn bit_rot_sweep(image: &[u8]) {
    for (label, mutated) in bit_rot_mutations(image) {
        let report = verify::verify_bytes(&mutated);
        assert!(!report.is_clean(), "{label} went unnoticed");
        assert!(
            report.has(ViolationKind::Checksum),
            "{label} must at least break the checksum",
        );
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
/// by section id.
fn corrupt_section(bytes: &mut [u8], section: &Section) {
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
        id => panic!("unexpected section id {id} in fixture image"),
    }
}

/// The resealed sweep's mutations of `image`: [`corrupt_section`] on every
/// section, each resealed.
fn resealed_mutations(image: &[u8]) -> Vec<(Section, Vec<u8>)> {
    sections(image)
        .into_iter()
        .map(|section| {
            let mut mutated = image.to_vec();
            corrupt_section(&mut mutated, &section);
            reseal(&mut mutated);
            (section, mutated)
        })
        .collect()
}

#[test]
fn resealed_semantic_damage_in_every_section_is_reported_as_layout_or_structure() {
    for (i, image) in images().iter().enumerate() {
        let mut sweep = 0usize;
        for (section, mutated) in resealed_mutations(image) {
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
        }
        // Every section of the four-section image is mutated.
        assert_eq!(sweep, 4, "corpus {i}");
    }
}

/// Overwrites `bytes[at..at + value.len()]` and reseals the image.
fn patch_resealed(image: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
    let mut mutated = image.to_vec();
    mutated[at..at + value.len()].copy_from_slice(value);
    reseal(&mut mutated);
    mutated
}

/// A resealed image that every check short of the alphabet bound accepts:
/// the first arena event set to `num_events`, one past the last id, which
/// the index builder would refuse with a panic.
fn alphabet_boundary_mutation(image: &[u8]) -> (String, Vec<u8>) {
    let table = sections(image);
    let find = |id| table.iter().find(|s| s.id == id).expect("section present");
    let num_events = read_u64(image, find(section_id::META).offset + 8);
    let events = find(section_id::STORE_EVENTS);
    let value = num_events.to_le_bytes();
    let width = events.elem_size as usize;
    (
        format!("store.events[0] := {num_events}"),
        patch_resealed(image, events.offset, &value[..width]),
    )
}

/// Resealed images whose meta asks for more than any file could hold:
/// each of the three counts set to 2^61 and to `u64::MAX`. Nothing may
/// size a buffer from them or overflow on them.
fn oversized_meta_mutations(image: &[u8]) -> Vec<(String, Vec<u8>)> {
    let meta = sections(image)
        .into_iter()
        .find(|s| s.id == section_id::META)
        .expect("meta section");
    let fields = ["num_sequences", "num_events", "total_length"];
    fields
        .iter()
        .enumerate()
        .flat_map(|(k, field)| {
            [1u64 << 61, u64::MAX].map(|value| {
                (
                    format!("meta.{field} := {value}"),
                    patch_resealed(image, meta.offset + 8 * k, &value.to_le_bytes()),
                )
            })
        })
        .collect()
}

/// Opens `bytes` through `PreparedDb::open_snapshot`, from a file of its
/// own.
fn open_bytes(bytes: &[u8]) -> Result<PreparedDb, SnapshotError> {
    let path = temp_path();
    std::fs::write(&path, bytes).expect("write image");
    let opened = PreparedDb::open_snapshot(&path);
    std::fs::remove_file(&path).ok();
    opened
}

#[test]
fn open_snapshot_fails_exactly_when_verify_reports_a_violation() {
    let mut checked = 0usize;
    for (i, image) in images().iter().enumerate() {
        let mut cases: Vec<(String, Vec<u8>)> = vec![("pristine".to_owned(), image.clone())];
        cases.extend(bit_rot_mutations(image));
        cases.extend(
            resealed_mutations(image)
                .into_iter()
                .map(|(section, mutated)| {
                    let label = format!("resealed {}", section_id::name(section.id));
                    (label, mutated)
                }),
        );
        let targeted = std::iter::once(alphabet_boundary_mutation(image))
            .chain(oversized_meta_mutations(image));
        for (label, mutated) in targeted {
            // Not vacuous: the verifier flags each, so opening must fail.
            let report = verify::verify_bytes(&mutated);
            assert!(
                report.has(ViolationKind::Layout),
                "corpus {i}, {label}: {report:?}"
            );
            cases.push((label, mutated));
        }
        for (label, bytes) in cases {
            let report = verify::verify_bytes(&bytes);
            match open_bytes(&bytes) {
                Ok(_) => assert!(
                    report.is_clean(),
                    "corpus {i}, {label}: opened although verify reports {:#?}",
                    report.violations
                ),
                Err(err) => assert!(
                    !report.is_clean(),
                    "corpus {i}, {label}: verify is clean but open failed: {err}"
                ),
            }
            checked += 1;
        }
    }
    assert!(checked > 7 * 20, "only {checked} images checked");
}

#[test]
fn open_snapshot_equals_the_in_memory_preparation_across_corpora() {
    for (i, (db, image)) in corpora().iter().zip(images()).enumerate() {
        let fresh = PreparedDb::new(db);
        let opened = open_bytes(&image).expect("a written image opens");
        assert!(opened == fresh, "corpus {i}: reopened preparation differs");
        assert_eq!(opened.heap_bytes(), fresh.heap_bytes(), "corpus {i}");
    }
}
