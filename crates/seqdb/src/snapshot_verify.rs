//! Deep static verification of snapshot images: the one statement of
//! every invariant a format 8 prepared-database image must uphold.
//!
//! [`verify_bytes`] proves (or refutes) every invariant of an image
//! **directly on the bytes** — no `PreparedDb`, no in-place
//! reinterpretation — so it is safe to point at untrusted or suspect
//! files. It keeps going past the first problem and reports *every*
//! violation it can still reach, each with the region it lies in and the
//! absolute byte offset of the offending datum. Opening runs the same
//! checks: [`open_prepared`](super::open_prepared) runs [`check`] on the
//! mapped bytes before it maps the store and builds the index from it;
//! there, the first violation becomes a [`SnapshotError`].
//!
//! Checked invariants, per layer:
//!
//! * **structure** — the header: magic, version, endianness marker,
//!   recorded file length, reserved bytes, and an event width of 2 or 4;
//! * **checksum** — the FNV-1a 64 over every byte except the checksum
//!   field itself;
//! * **layout** — the regions: header counts whose regions fit the file
//!   ([`Header::regions`], with checked arithmetic, before any count
//!   directs a read), store CSR offsets starting at 0, monotone and ending
//!   at the arena length, every arena event inside the catalog alphabet
//!   (the index builder asserts it), and a catalog of exactly
//!   `num_events` labels running to the end of the file, valid UTF-8 and
//!   distinct.
//!
//! The index, the per-event counts and the candidate order are not in the
//! image: they are built from the verified store at open, so no stored
//! copy of them can disagree with it. Every region is read element by
//! element straight from the bytes — never collected — so verifying costs
//! no memory proportional to the corpus beyond the catalog's label set.
//! An image of an older format stops at the version check with a
//! structure violation naming `rgs-mine snapshot build`.
//!
//! The three kinds are reported separately so callers can distinguish a
//! structurally-valid-but-bit-flipped image (checksum only) from genuine
//! layout corruption. `rgs-mine snapshot verify IMG` is the CLI front end.

// Offsets and lengths convert through `crate::cast` or `TryFrom`: an `as`
// cast can truncate or wrap without a trace.
#![warn(clippy::as_conversions)]
// A corrupt image must come back as violations, never as a panic.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::HashSet;
use std::fmt;
use std::io;
use std::ops::Range;
use std::path::Path;

use crate::cast::{u32_to_usize, u64_to_usize, usize_to_u64};

use super::{
    checksum_of, version_error, Header, Regions, SnapshotError, ENDIAN_MARKER, HEADER_LEN,
    SNAPSHOT_MAGIC,
};

/// Which layer of the format a [`Violation`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The header itself is malformed.
    Structure,
    /// The recorded checksum does not match the file bytes.
    Checksum,
    /// The header is well-formed but the regions it locates violate an
    /// invariant of the prepared-database layout.
    Layout,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::Structure => "structure",
            ViolationKind::Checksum => "checksum",
            ViolationKind::Layout => "layout",
        })
    }
}

/// The part of an image a [`Violation`] lies in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The 64-byte header.
    Header,
    /// The store's CSR offsets.
    StoreOffsets,
    /// The store's event arena.
    StoreEvents,
    /// The catalog's labels.
    Catalog,
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Region::Header => "header",
            Region::StoreOffsets => "store.offsets",
            Region::StoreEvents => "store.events",
            Region::Catalog => "catalog",
        })
    }
}

/// One violated invariant, anchored to a region and, where that is
/// meaningful, a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The format layer the violation belongs to.
    pub kind: ViolationKind,
    /// The region the violation lies in.
    pub region: Region,
    /// Absolute byte offset of the offending datum, when known.
    pub offset: Option<u64>,
    /// Human-readable description of the violated invariant.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.region)?;
        if let Some(offset) = self.offset {
            write!(f, " @ byte {offset}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The outcome of verifying one image: what could be parsed, plus every
/// violation found. An empty violation list means the image upholds every
/// invariant this build knows about.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The format version stamped into the header, when readable.
    pub version: Option<u32>,
    /// Actual file length in bytes.
    pub file_len: u64,
    /// Every violated invariant, in check order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// `true` when not a single invariant is violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// `true` when at least one violation of `kind` was found.
    pub fn has(&self, kind: ViolationKind) -> bool {
        self.violations.iter().any(|v| v.kind == kind)
    }

    /// `true` for the bit-rot signature: the header and regions are intact
    /// but the checksum does not match — i.e. *only* checksum violations
    /// were found (the flipped bits live in the checksum field itself, or
    /// in data no other invariant constrains).
    pub fn checksum_broken_only(&self) -> bool {
        self.has(ViolationKind::Checksum)
            && !self.has(ViolationKind::Structure)
            && !self.has(ViolationKind::Layout)
    }
}

/// Verifies the snapshot file at `path`. I/O errors (missing file,
/// permission) are returned as errors; everything found *inside* the file
/// is a [`Violation`] in the report.
pub fn verify_file(path: impl AsRef<Path>) -> io::Result<Report> {
    let data = std::fs::read(path)?;
    Ok(verify_bytes(&data))
}

/// Verifies a snapshot image given its raw bytes. Never panics, regardless
/// of input; the bytes need no particular alignment (every element is
/// decoded, not reinterpreted).
pub fn verify_bytes(data: &[u8]) -> Report {
    let mut v = Verifier::new(data);
    v.run();
    v.report
}

/// Every check of [`verify_bytes`], as opening runs them: the decoded
/// header and its regions, or the first violation as an error
/// ([`SnapshotError::Unsupported`] for a format or endianness this build
/// does not read).
pub fn check(data: &[u8]) -> Result<(Header, Regions), SnapshotError> {
    let mut v = Verifier::new(data);
    let layout = v.run();
    v.finish()?;
    // `run` reports a violation whenever it cannot locate the regions.
    layout.ok_or_else(|| super::corrupt("unreadable snapshot header"))
}

/// The little-endian `u32` at byte `offset` of `data`, if it is in range.
pub(super) fn u32_at(data: &[u8], offset: usize) -> Option<u32> {
    let bytes = data.get(offset..offset.checked_add(4)?)?;
    Some(u32::from_le_bytes(bytes.try_into().ok()?))
}

/// The little-endian `u64` at byte `offset` of `data`, if it is in range.
pub(super) fn u64_at(data: &[u8], offset: usize) -> Option<u64> {
    let bytes = data.get(offset..offset.checked_add(8)?)?;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

fn iter_u32(region: &[u8]) -> impl DoubleEndedIterator<Item = u32> + '_ {
    region
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap_or([0; 4])))
}

/// The arena's events, decoded from little-endian elements of `width`
/// (2 or 4) bytes.
fn arena(region: &[u8], width: usize) -> impl Iterator<Item = u32> + '_ {
    region.chunks_exact(width.max(1)).map(|bytes| match *bytes {
        [a, b] => u32::from(u16::from_le_bytes([a, b])),
        [a, b, c, d] => u32::from_le_bytes([a, b, c, d]),
        _ => u32::MAX,
    })
}

struct Verifier<'a> {
    data: &'a [u8],
    report: Report,
    /// Set when the image is a snapshot this build cannot read (format
    /// version or endianness) rather than a corrupt one.
    unsupported: bool,
}

impl<'a> Verifier<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            report: Report {
                version: None,
                file_len: usize_to_u64(data.len()),
                violations: Vec::new(),
            },
            unsupported: false,
        }
    }

    /// The verdict as one error: the first violation, with a count of the
    /// rest (`rgs-mine snapshot verify` lists them all).
    fn finish(self) -> Result<(), SnapshotError> {
        let violations = &self.report.violations;
        let Some(first) = violations.first() else {
            return Ok(());
        };
        if self.unsupported {
            return Err(SnapshotError::Unsupported(first.detail.clone()));
        }
        Err(SnapshotError::Corrupt(match violations.len() - 1 {
            0 => first.to_string(),
            more => format!("{first} (and {more} more)"),
        }))
    }

    fn push(&mut self, kind: ViolationKind, region: Region, offset: u64, detail: String) {
        self.report.violations.push(Violation {
            kind,
            region,
            offset: Some(offset),
            detail,
        });
    }

    fn structure(&mut self, offset: u64, detail: String) {
        self.push(ViolationKind::Structure, Region::Header, offset, detail);
    }

    fn layout(&mut self, region: Region, offset: u64, detail: String) {
        self.push(ViolationKind::Layout, region, offset, detail);
    }

    /// The bytes of `range`; empty when it lies outside the image, which
    /// [`Header::regions`] rules out for a header whose length is checked.
    fn bytes(&self, range: &Range<u64>) -> &'a [u8] {
        let start = u64_to_usize(range.start).unwrap_or(usize::MAX);
        let end = u64_to_usize(range.end).unwrap_or(0);
        self.data.get(start..end).unwrap_or(&[])
    }

    /// Every check, in file order. Returns the header and its regions when
    /// the header locates them (the regions may still violate an
    /// invariant), `None` when it does not.
    fn run(&mut self) -> Option<(Header, Regions)> {
        let len = usize_to_u64(self.data.len());
        let Some(header) = Header::decode(self.data) else {
            self.structure(
                0,
                format!("file is {len} bytes, shorter than the {HEADER_LEN}-byte header"),
            );
            return None;
        };
        if header.magic != SNAPSHOT_MAGIC {
            self.structure(0, "bad magic: not a snapshot file".to_owned());
            return None;
        }
        self.report.version = Some(header.version);
        if let Some(detail) = version_error(header.version) {
            self.structure(8, detail);
            self.unsupported = true;
            return None;
        }
        if header.endian != ENDIAN_MARKER {
            self.unsupported = true;
            self.structure(
                12,
                format!(
                    "endianness marker {:#010x} (expected {ENDIAN_MARKER:#010x})",
                    header.endian
                ),
            );
            return None;
        }
        if header.file_len != len {
            self.structure(
                16,
                format!("header records {} bytes, file has {len}", header.file_len),
            );
        }
        if header.reserved != 0 {
            self.structure(60, "reserved header bytes are not zero".to_owned());
        }
        let computed = checksum_of(self.data);
        if header.checksum != computed {
            self.push(
                ViolationKind::Checksum,
                Region::Header,
                24,
                format!(
                    "header records {:#018x}, file hashes to {computed:#018x}",
                    header.checksum
                ),
            );
        }
        if !matches!(header.width, 2 | 4) {
            self.structure(
                56,
                format!("event width {} is not 2 or 4 bytes", header.width),
            );
            return None;
        }
        // The catalog runs to the recorded length, so a wrong one leaves
        // no region to check.
        if header.file_len != len {
            return None;
        }
        let Some(regions) = header.regions() else {
            self.layout(
                Region::Header,
                32,
                format!(
                    "header records {} sequences and {} arena events of {} bytes, more than \
                     the {len}-byte image can hold",
                    header.num_sequences, header.total_length, header.width
                ),
            );
            return None;
        };
        self.check_store_offsets(&regions.offsets, header.total_length);
        self.check_store_events(&regions.events, &header);
        self.check_catalog(&regions.catalog, header.num_events);
        Some((header, regions))
    }

    /// The store's CSR offsets: start at 0, monotone non-decreasing, end
    /// at `end` (the arena length). Reports each violated clause at its
    /// byte offset.
    fn check_store_offsets(&mut self, range: &Range<u64>, end: u64) {
        let region = Region::StoreOffsets;
        let offsets = self.bytes(range);
        let first = iter_u32(offsets).next().unwrap_or(0);
        if first != 0 {
            let detail = format!("store offsets start at {first}, not 0");
            self.layout(region, range.start, detail);
        }
        let mut prev = 0u32;
        for (i, value) in iter_u32(offsets).enumerate() {
            if value < prev {
                let detail = format!("store offsets are not monotone ({prev} > {value})");
                self.layout(region, range.start + 4 * usize_to_u64(i), detail);
                break;
            }
            prev = value;
        }
        let last = u64::from(iter_u32(offsets).next_back().unwrap_or(0));
        if last != end {
            let detail = format!("store offsets end at {last}, expected {end}");
            self.layout(region, range.end.saturating_sub(4), detail);
        }
    }

    /// The event arena: every event inside the `num_events` alphabet,
    /// which the index builder refuses otherwise.
    fn check_store_events(&mut self, range: &Range<u64>, header: &Header) {
        let width = u32_to_usize(header.width);
        let (mut count, mut bad) = (0usize, None);
        for (i, event) in arena(self.bytes(range), width).enumerate() {
            if u64::from(event) >= header.num_events {
                count += 1;
                bad = bad.or(Some((i, event)));
            }
        }
        if let Some((first, value)) = bad {
            let detail = format!(
                "{count} events reference ids outside the {}-event alphabet (first: id {value} \
                 at element {first})",
                header.num_events,
            );
            let at = range.start + usize_to_u64(first) * u64::from(header.width);
            self.layout(Region::StoreEvents, at, detail);
        }
    }

    /// The catalog: exactly `num_events` labels, each complete, valid
    /// UTF-8 and distinct, ending at the end of the file.
    fn check_catalog(&mut self, range: &Range<u64>, num_events: u64) {
        let region = Region::Catalog;
        let catalog = self.bytes(range);
        // A set keeps the duplicate check linear in the alphabet; it grows
        // only with labels actually read, never with the recorded count.
        let mut labels: HashSet<&[u8]> = HashSet::new();
        let mut cursor = 0usize;
        for i in 0..num_events {
            let at = range.start + usize_to_u64(cursor);
            let Some(len) = u32_at(catalog, cursor).map(u32_to_usize) else {
                let detail = format!("catalog is truncated before label {i} of {num_events}");
                self.layout(region, at, detail);
                return;
            };
            cursor += 4;
            let Some(label) = catalog.get(cursor..cursor.saturating_add(len)) else {
                let detail = format!("catalog label {i} is truncated");
                self.layout(region, at, detail);
                return;
            };
            if std::str::from_utf8(label).is_err() {
                let detail = format!("catalog label {i} is not valid UTF-8");
                self.layout(region, at, detail);
            }
            if !labels.insert(label) {
                let detail = format!("catalog label {i} is a duplicate (ids would renumber)");
                self.layout(region, at, detail);
            }
            cursor += len;
        }
        if cursor != catalog.len() {
            let detail = format!(
                "catalog has {} trailing bytes",
                catalog.len().saturating_sub(cursor)
            );
            self.layout(region, range.start + usize_to_u64(cursor), detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{reseal, sample_db, span, widened, written_bytes};
    use super::*;

    /// A written image of the sample corpus, with a narrow (`u16`) event
    /// arena or patched to a wide (`u32`) one.
    fn image_bytes(narrow: bool) -> Vec<u8> {
        let bytes = written_bytes(&sample_db());
        if narrow {
            bytes
        } else {
            widened(&bytes)
        }
    }

    #[test]
    fn a_narrow_image_verifies_clean() {
        let bytes = image_bytes(true);
        let report = verify_bytes(&bytes);
        assert!(report.is_clean(), "{:#?}", report.violations);
        assert_eq!(report.version, Some(8));
    }

    #[test]
    fn a_pre_v4_header_is_unsupported_and_names_the_rebuild() {
        // Downgrade the header version and re-seal: the regions stay
        // intact, but this build reads format 8 only — v7 (the last format
        // with a section table) included.
        for version in [3u32, 5, 6, 7] {
            let mut bytes = image_bytes(true);
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            reseal(&mut bytes);
            let report = verify_bytes(&bytes);
            assert_eq!(report.version, Some(version));
            assert!(
                report.has(ViolationKind::Structure),
                "v{version}: {:#?}",
                report.violations
            );
            assert!(!report.has(ViolationKind::Checksum));
            let rendered = report.violations[0].to_string();
            assert!(rendered.contains("rgs-mine snapshot build"), "{rendered}");
        }
    }

    #[test]
    fn a_valid_wide_image_verifies_clean() {
        let bytes = image_bytes(false);
        let report = verify_bytes(&bytes);
        assert!(report.is_clean(), "{:#?}", report.violations);
        assert_eq!(report.version, Some(8));
        let (header, regions) = check(&bytes).expect("a clean image checks");
        assert_eq!(header.width, 4);
        assert_eq!(
            regions.events.end - regions.events.start,
            4 * header.total_length
        );
    }

    #[test]
    fn a_bit_flip_in_a_payload_is_caught_by_the_checksum() {
        let mut bytes = image_bytes(false);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let report = verify_bytes(&bytes);
        assert!(!report.is_clean());
        assert!(report.has(ViolationKind::Checksum));
    }

    #[test]
    fn a_resealed_layout_mutation_is_distinguished_from_bit_rot() {
        let mut bytes = image_bytes(false);
        // Patch the header's event count to a nonsense value and re-seal
        // the checksum: structurally valid, semantically broken.
        let report_clean = verify_bytes(&bytes);
        assert!(report_clean.is_clean());
        bytes[40..48].copy_from_slice(&999u64.to_le_bytes());
        reseal(&mut bytes);
        let report = verify_bytes(&bytes);
        assert!(
            report.has(ViolationKind::Layout),
            "{:#?}",
            report.violations
        );
        assert!(!report.has(ViolationKind::Checksum));
        assert!(!report.checksum_broken_only());
    }

    #[test]
    fn checksum_only_breakage_is_classified_as_bit_rot() {
        let mut bytes = image_bytes(false);
        // Corrupt the checksum field itself: every region stays intact.
        bytes[24] ^= 0xFF;
        let report = verify_bytes(&bytes);
        assert!(report.checksum_broken_only(), "{:#?}", report.violations);
    }

    #[test]
    fn truncated_and_garbage_inputs_never_panic() {
        let bytes = image_bytes(false);
        for len in 0..bytes.len().min(256) {
            let report = verify_bytes(&bytes[..len]);
            assert!(!report.is_clean(), "prefix of {len} bytes verified clean");
        }
        assert!(!verify_bytes(b"").is_clean());
        assert!(!verify_bytes(&[0u8; 4096]).is_clean());
        assert!(!verify_bytes(b"RGS1SNAPxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx").is_clean());
    }

    #[test]
    fn violations_carry_section_and_byte_offsets() {
        let mut bytes = image_bytes(false);
        bytes[16] ^= 0x01; // recorded file length
        let report = verify_bytes(&bytes);
        let length_violation = report
            .violations
            .iter()
            .find(|v| v.kind == ViolationKind::Structure)
            .expect("length mismatch reported");
        assert_eq!(length_violation.offset, Some(16));
        assert_eq!(length_violation.region, Region::Header);
        let rendered = format!("{length_violation}");
        assert!(rendered.contains("byte 16"), "{rendered}");
        assert!(rendered.contains("header"), "{rendered}");

        // A region violation names its region.
        let mut bytes = image_bytes(true);
        let events = check(&bytes).expect("clean").1.events;
        let at = span(&events).start;
        bytes[at..at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        reseal(&mut bytes);
        let report = verify_bytes(&bytes);
        let arena = report.violations.first().expect("an arena violation");
        assert_eq!(arena.region, Region::StoreEvents);
        assert_eq!(arena.offset, Some(events.start));
        assert!(
            arena.to_string().starts_with("layout: store.events @ byte"),
            "{arena}"
        );
    }
}
