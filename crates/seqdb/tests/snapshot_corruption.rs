//! Adversarial tests for the snapshot image format: corrupted files must be
//! rejected with a descriptive [`SnapshotError`] and must **never** panic.
//!
//! Two attacker models are exercised:
//!
//! 1. *Accidental corruption* (bit rot, short writes): any single-bit flip
//!    anywhere in the file, and any truncation, must fail the full-file
//!    checksum (or an earlier header check). This is swept exhaustively
//!    over every bit, plus seeded multi-bit corruption.
//! 2. *Well-formed-but-wrong files* (old versions, foreign endianness,
//!    garbage header fields): the test re-seals tampered files with a
//!    freshly computed checksum — implemented here independently from the
//!    spec in `seqdb::snapshot` — so the deeper validators are reached and
//!    their specific errors observed.
//!
//! A third set patches written prepared-database images so that they stay
//! sealed and well-formed but break one layout rule (a store column the
//! layout forbids): `verify` must name the rule, and `open_prepared` —
//! what `PreparedDb::open_snapshot` runs — must refuse the image.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqdb::snapshot::{open_prepared, verify, write_prepared, Header, PreparedImage};
use seqdb::{SequenceDatabase, SnapshotError};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A file path of its own for each call: tests run in parallel threads.
fn temp_path(tag: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "seqdb-corruption-{}-{tag}-{call}.snap",
        std::process::id()
    ))
}

/// The image [`write_prepared`] writes for `db`, as bytes.
fn written_bytes(db: &SequenceDatabase) -> Vec<u8> {
    let path = temp_path("written");
    write_prepared(&path, db).expect("write image");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    bytes
}

/// The sample corpus: four sequences (one of them empty) over seven
/// events, 60 events in all — store offsets `[0, 20, 20, 45, 60]`.
fn sample_db() -> SequenceDatabase {
    let events: String = (0..60u8).map(|i| char::from(b'A' + i % 7)).collect();
    SequenceDatabase::from_str_rows(&[&events[..20], "", &events[20..45], &events[45..]])
}

/// A representative written image, as bytes.
fn sample_image_bytes() -> Vec<u8> {
    written_bytes(&sample_db())
}

/// Writes `bytes` to a temp file and tries to open it as a snapshot.
fn open_bytes(tag: &str, bytes: &[u8]) -> Result<PreparedImage, SnapshotError> {
    let path = temp_path(tag);
    std::fs::write(&path, bytes).expect("write tampered file");
    let result = open_prepared(&path);
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
    let bytes = sample_image_bytes();
    let image = open_bytes("pristine-open", &bytes).expect("pristine image opens");
    let db = &image.database;
    assert_eq!(
        (db.num_sequences(), db.num_events(), db.total_length()),
        (4, 7, 60)
    );
    assert_eq!(db.store().offsets(), [0, 20, 20, 45, 60]);
    assert_eq!(image.database, sample_db());
}

#[test]
fn every_single_bit_flip_is_rejected() {
    // Exhaustive over every bit of the file: header and regions alike. The checksum spans everything except its own field,
    // and a flip inside the checksum field breaks the seal itself, so no
    // flip may survive — and none may panic.
    let bytes = sample_image_bytes();
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
    let bytes = sample_image_bytes();
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
    let bytes = sample_image_bytes();
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
    let mut bytes = sample_image_bytes();
    bytes.extend_from_slice(b"trailing junk");
    let err = open_bytes("append-case", &bytes).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("header records"), "{message}");
}

#[test]
fn wrong_magic_is_rejected_with_a_clear_error() {
    let mut bytes = sample_image_bytes();
    bytes[..8].copy_from_slice(b"NOTASNAP");
    reseal(&mut bytes);
    let err = open_bytes("magic-case", &bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::Corrupt(_)));
    assert!(err.to_string().contains("magic"), "{err}");
}

#[test]
fn wrong_version_is_unsupported_not_corrupt() {
    let mut bytes = sample_image_bytes();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    reseal(&mut bytes);
    let err = open_bytes("version-case", &bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::Unsupported(_)), "{err}");
    assert!(err.to_string().contains("version 99"), "{err}");
}

#[test]
fn foreign_endianness_is_unsupported() {
    let mut bytes = sample_image_bytes();
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
    let mut bytes = sample_image_bytes();
    bytes[61] = 1;
    reseal(&mut bytes);
    let err = open_bytes("reserved-case", &bytes).unwrap_err();
    assert!(err.to_string().contains("reserved"), "{err}");
}

#[test]
fn resealed_header_garbage_hits_the_structural_validators() {
    let bytes = sample_image_bytes();
    let patched = |at: usize, value: &[u8]| {
        let mut tampered = bytes.clone();
        tampered[at..at + value.len()].copy_from_slice(value);
        reseal(&mut tampered);
        tampered
    };

    // An event width that is neither 2 nor 4.
    for width in [0u32, 3, 8] {
        let err = open_bytes("header-width", &patched(56, &width.to_le_bytes())).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("event width"), "{err}");
    }

    // Counts whose regions end past the end of the file, or overflow u64.
    for (at, value) in [
        (32, 1u64 << 40),
        (32, u64::MAX),
        (48, 1 << 40),
        (48, u64::MAX),
    ] {
        let err = open_bytes("header-counts", &patched(at, &value.to_le_bytes())).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("can hold"), "{err}");
    }

    // A recorded length that disagrees with the file.
    let err = open_bytes("header-len", &patched(16, &1u64.to_le_bytes())).unwrap_err();
    assert!(err.to_string().contains("header records 1 bytes"), "{err}");
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

/// A written prepared image of a real database, with its store columns
/// decoded, so a test can swap one column for a set the layout forbids
/// (of the same length) and patch it back in place, resealed.
#[derive(Clone)]
struct Layout {
    bytes: Vec<u8>,
    offsets: Vec<u32>,
    events: Vec<u16>,
}

/// The store columns' byte ranges of a written image.
fn columns(bytes: &[u8]) -> (Range<usize>, Range<usize>) {
    let regions = Header::decode(bytes)
        .and_then(|header| header.regions())
        .expect("a written image locates its regions");
    let usize_range = |range: Range<u64>| range.start as usize..range.end as usize;
    (usize_range(regions.offsets), usize_range(regions.events))
}

impl Layout {
    fn of(rows: &[&str]) -> Self {
        let db = SequenceDatabase::from_str_rows(rows);
        Self {
            bytes: written_bytes(&db),
            offsets: db.store().offsets().to_vec(),
            events: db
                .store()
                .event_column()
                .narrow_slice()
                .expect("narrow")
                .to_vec(),
        }
    }

    /// The image with the (possibly swapped) columns patched in, resealed.
    fn patched(&self) -> Vec<u8> {
        let mut bytes = self.bytes.clone();
        let (offsets, events) = columns(&bytes);
        let offsets_bytes: Vec<u8> = self.offsets.iter().flat_map(|v| v.to_le_bytes()).collect();
        let events_bytes: Vec<u8> = self.events.iter().flat_map(|v| v.to_le_bytes()).collect();
        bytes[offsets].copy_from_slice(&offsets_bytes);
        bytes[events].copy_from_slice(&events_bytes);
        reseal(&mut bytes);
        bytes
    }

    /// Writes the patched image, then verifies and opens it.
    fn verify_and_open(&self) -> (verify::Report, Result<PreparedImage, SnapshotError>) {
        let path = temp_path("layout");
        std::fs::write(&path, self.patched()).expect("write layout");
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
        (&[1, 1, 2][..], "start at 1"),
        (&[0, 2, 1], "monotone"),
        (&[0, 1, 1], "end at 1"),
    ] {
        let mut bad = layout.clone();
        bad.offsets = offsets.to_vec();
        bad.assert_rejected(needle);
    }
    // An event past the two-event alphabet: the index builder would
    // refuse it, so opening must refuse it first.
    let mut bad = layout.clone();
    bad.events[1] = 2;
    bad.assert_rejected("outside the 2-event alphabet");
    let opened = layout.open();
    assert_eq!(opened.database.num_sequences(), 2);
    assert_eq!(opened.index, opened.database.inverted_index());
}
