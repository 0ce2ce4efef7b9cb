//! Deep static verification of snapshot images: the one statement of
//! every invariant a format v6 prepared-database image must uphold.
//!
//! [`verify_bytes`] proves (or refutes) every cross-section invariant of an
//! image **directly on the bytes** — no `PreparedDb`, no in-place
//! reinterpretation — so it is safe to point at untrusted or suspect
//! files. It keeps going past the first problem and reports *every*
//! violation it can still reach, each with the owning section and the
//! absolute byte offset of the offending datum. Opening runs the same
//! checks: [`SnapshotImage::open`](super::SnapshotImage::open) parses the
//! header, checksum and section table with this module's container pass,
//! and [`open_prepared`](super::open_prepared) runs the layout pass on the
//! mapped bytes before it rebuilds a single column; there, the first
//! violation becomes a [`SnapshotError`].
//!
//! Checked invariants, per layer:
//!
//! * **structure** — magic, version range, endianness marker, recorded
//!   file length, reserved header bytes, section-table bounds, element
//!   sizes, payload alignment/bounds, duplicate ids, pairwise payload
//!   overlap;
//! * **checksum** — the FNV-1a 64 over every byte except the checksum
//!   field itself;
//! * **layout** — the cross-section semantics of the prepared-database
//!   composition: `meta` arity and counts the file can back (4 bytes per
//!   sequence boundary, 8 per event, 2 per arena element — checked before
//!   any count sizes a buffer), store CSR offsets monotone and ending at
//!   the arena length, the event arena's element width (2 or 4 bytes),
//!   every arena event inside the catalog alphabet,
//!   catalog bijectivity (label count = alphabet size, no duplicates,
//!   valid UTF-8, no trailing bytes), per-event counts equal to an actual
//!   recount of the arena, the candidate order exactly the occurring
//!   events in id order, and the one event-major index: monotone
//!   directories, every
//!   event dense or sparse exactly as [`dense_rule`] says, strictly
//!   ascending in-range sparse ids, monotone row offsets ending at the
//!   arena length, and strictly ascending 1-based rows whose every
//!   position lands on that event in that sequence of the global store.
//!
//! Every section is read element by element straight from the payload
//! bytes — never collected — so verifying costs no memory proportional to
//! the corpus beyond a per-event histogram, at most the file's own size. An image of an older format
//! stops at the version check with a structure violation naming
//! `rgs-mine snapshot build`.
//!
//! The three kinds are reported separately so callers can distinguish a
//! structurally-valid-but-bit-flipped image (checksum only) from genuine
//! layout corruption. `rgs-mine snapshot verify IMG` is the CLI front end.

use std::collections::HashSet;
use std::fmt;
use std::io;
use std::path::Path;

use crate::cast::{u32_to_usize, u64_to_usize, usize_to_u64};

use super::{
    checksum_of, section_id, version_error, SectionEntry, SnapshotError, ENDIAN_MARKER, ENTRY_LEN,
    HEADER_LEN, SECTION_ALIGN, SNAPSHOT_MAGIC,
};
use crate::index::dense_rule;

/// Which layer of the format a [`Violation`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The container itself is malformed (header, table, bounds).
    Structure,
    /// The recorded checksum does not match the file bytes.
    Checksum,
    /// The sections are individually well-formed but violate a
    /// cross-section invariant of the prepared-database composition.
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

/// One violated invariant, anchored to a section and byte offset where
/// that is meaningful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The format layer the violation belongs to.
    pub kind: ViolationKind,
    /// The owning section id, when the violation is section-scoped.
    pub section: Option<u32>,
    /// Absolute byte offset of the offending datum, when known.
    pub offset: Option<u64>,
    /// Human-readable description of the violated invariant.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(id) = self.section {
            write!(f, ": section {id} ({})", section_id::name(id))?;
        }
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
    /// Number of section-table entries that could be parsed.
    pub section_count: usize,
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

    /// `true` for the bit-rot signature: the sections are structurally and
    /// semantically intact but the checksum does not match — i.e. *only*
    /// checksum violations were found (the flipped bits live in padding or
    /// the checksum field itself).
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
    if let Some(sections) = v.check_container() {
        v.report.section_count = sections.len();
        v.check_composition(&sections);
    }
    v.report
}

/// The container pass alone — header, checksum, section table — as
/// [`SnapshotImage::open`](super::SnapshotImage::open) runs it: the parsed
/// table and format version, or the first violation as an error.
pub(crate) fn read_container(data: &[u8]) -> Result<(Vec<SectionEntry>, u32), SnapshotError> {
    let mut v = Verifier::new(data);
    let sections = v.check_container();
    let version = v.report.version;
    v.finish()?;
    match (sections, version) {
        (Some(sections), Some(version)) => Ok((sections, version)),
        // `check_container` reports a violation before it gives up.
        _ => Err(super::corrupt("unreadable snapshot header")),
    }
}

/// The layout pass alone, over an opened image's bytes and its parsed
/// section table, as [`open_prepared`](super::open_prepared) runs it.
pub(crate) fn check_layout(data: &[u8], sections: &[SectionEntry]) -> Result<(), SnapshotError> {
    let mut v = Verifier::new(data);
    v.check_composition(sections);
    v.finish()
}

/// The little-endian `u32` at byte `offset` of `data`, if it is in range.
pub(super) fn u32_at(data: &[u8], offset: usize) -> Option<u32> {
    let bytes = data.get(offset..offset.checked_add(4)?)?;
    Some(u32::from_le_bytes(bytes.try_into().ok()?))
}

fn u64_at(data: &[u8], offset: usize) -> Option<u64> {
    let bytes = data.get(offset..offset.checked_add(8)?)?;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

/// The `i`-th little-endian `u32` of a section payload.
fn elem_u32(section: &[u8], i: usize) -> Option<u32> {
    u32_at(section, i.checked_mul(4)?)
}

/// The `i`-th little-endian `u64` of a section payload.
fn elem_u64(section: &[u8], i: usize) -> Option<u64> {
    u64_at(section, i.checked_mul(8)?)
}

fn iter_u32(section: &[u8]) -> impl DoubleEndedIterator<Item = u32> + '_ {
    section
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap_or([0; 4])))
}

/// The store's event arena, read in place at its recorded width (2 or 4
/// bytes per event).
#[derive(Clone, Copy, Default)]
struct Arena<'a> {
    bytes: &'a [u8],
    width: usize,
}

impl<'a> Arena<'a> {
    /// A little-endian element of 2 or 4 bytes.
    fn decode(bytes: &[u8]) -> u32 {
        match *bytes {
            [a, b] => u32::from(u16::from_le_bytes([a, b])),
            [a, b, c, d] => u32::from_le_bytes([a, b, c, d]),
            _ => u32::MAX,
        }
    }

    fn get(self, i: usize) -> Option<u32> {
        let start = i.checked_mul(self.width)?;
        let bytes = self.bytes.get(start..start.checked_add(self.width)?)?;
        Some(Self::decode(bytes))
    }

    fn iter(self) -> impl Iterator<Item = u32> + 'a {
        self.bytes.chunks_exact(self.width.max(1)).map(Self::decode)
    }

    /// Events `start..end`; empty when they are not all in the arena.
    fn window(self, start: usize, end: usize) -> Self {
        let bytes = start
            .checked_mul(self.width)
            .zip(end.checked_mul(self.width))
            .and_then(|(from, to)| self.bytes.get(from..to))
            .unwrap_or_default();
        Self { bytes, ..self }
    }
}

struct Verifier<'a> {
    data: &'a [u8],
    report: Report,
    /// Set when the image is a snapshot this build cannot read (format
    /// version or endianness) rather than a corrupt one.
    unsupported: bool,
}

/// The `meta` section, decoded.
#[derive(Clone, Copy)]
struct Meta {
    num_sequences: usize,
    num_events: usize,
    total_length: usize,
}

impl<'a> Verifier<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            report: Report {
                version: None,
                file_len: usize_to_u64(data.len()),
                section_count: 0,
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

    fn push(
        &mut self,
        kind: ViolationKind,
        section: Option<u32>,
        offset: Option<u64>,
        detail: String,
    ) {
        self.report.violations.push(Violation {
            kind,
            section,
            offset,
            detail,
        });
    }

    fn structure(&mut self, offset: u64, detail: String) {
        self.push(ViolationKind::Structure, None, Some(offset), detail);
    }

    /// A layout violation anchored at element `elem` of `entry`'s payload.
    fn layout(&mut self, entry: &SectionEntry, elem: u64, detail: String) {
        let offset = entry
            .offset
            .checked_add(elem.saturating_mul(u64::from(entry.elem_size)));
        self.push(ViolationKind::Layout, Some(entry.id), offset, detail);
    }

    /// A layout violation about a section as a whole (or its absence).
    fn layout_section(&mut self, id: u32, detail: String) {
        self.push(ViolationKind::Layout, Some(id), None, detail);
    }

    // -- structure + checksum ------------------------------------------------

    /// Header, checksum, and section-table checks. Returns the parseable
    /// in-bounds sections, or `None` when the container is too broken to
    /// locate any payload.
    fn check_container(&mut self) -> Option<Vec<SectionEntry>> {
        let data = self.data;
        let len = usize_to_u64(data.len());
        if data.len() < u64_to_usize(HEADER_LEN).unwrap_or(usize::MAX) {
            self.structure(
                0,
                format!("file is {len} bytes, shorter than the {HEADER_LEN}-byte header"),
            );
            return None;
        }
        if data.get(..8) != Some(SNAPSHOT_MAGIC.as_slice()) {
            self.structure(0, "bad magic: not a snapshot file".to_owned());
            return None;
        }
        let version = u32_at(data, 8).unwrap_or(0);
        self.report.version = Some(version);
        if let Some(detail) = version_error(version) {
            self.structure(8, detail);
            self.unsupported = true;
            return None;
        }
        let endian = u32_at(data, 12).unwrap_or(0);
        if endian != ENDIAN_MARKER {
            self.unsupported = true;
            self.structure(
                12,
                format!("endianness marker {endian:#010x} (expected {ENDIAN_MARKER:#010x})"),
            );
        }
        let recorded_len = u64_at(data, 16).unwrap_or(0);
        if recorded_len != len {
            self.structure(
                16,
                format!("header records {recorded_len} bytes, file has {len}"),
            );
        }
        for (i, &byte) in data.get(36..64).unwrap_or(&[]).iter().enumerate() {
            if byte != 0 {
                self.structure(
                    36 + usize_to_u64(i),
                    "reserved header byte is not zero".to_owned(),
                );
                break;
            }
        }

        let recorded_checksum = u64_at(data, 24).unwrap_or(0);
        let computed = checksum_of(data);
        if recorded_checksum != computed {
            self.push(
                ViolationKind::Checksum,
                None,
                Some(24),
                format!(
                    "header records {recorded_checksum:#018x}, file hashes to {computed:#018x}"
                ),
            );
        }

        let section_count = u64::from(u32_at(data, 32).unwrap_or(0));
        let table_end = match ENTRY_LEN
            .checked_mul(section_count)
            .and_then(|t| t.checked_add(HEADER_LEN))
        {
            Some(table_end) if table_end <= len => table_end,
            _ => {
                self.structure(
                    32,
                    format!("section table ({section_count} entries) exceeds the file length"),
                );
                return None;
            }
        };

        let mut sections: Vec<SectionEntry> = Vec::new();
        for i in 0..section_count {
            let base = HEADER_LEN + i * ENTRY_LEN;
            let Some(base_idx) = u64_to_usize(base) else {
                break;
            };
            let entry = SectionEntry {
                id: u32_at(data, base_idx).unwrap_or(0),
                elem_size: u32_at(data, base_idx + 4).unwrap_or(0),
                offset: u64_at(data, base_idx + 8).unwrap_or(0),
                byte_len: u64_at(data, base_idx + 16).unwrap_or(0),
                count: u64_at(data, base_idx + 24).unwrap_or(0),
            };
            let mut usable = true;
            if !matches!(entry.elem_size, 1 | 2 | 4 | 8) {
                self.structure(
                    base + 4,
                    format!(
                        "section {}: element size {} is not 1, 2, 4, or 8",
                        entry.id, entry.elem_size
                    ),
                );
                usable = false;
            }
            if !entry.offset.is_multiple_of(SECTION_ALIGN) {
                self.structure(
                    base + 8,
                    format!(
                        "section {}: payload offset {} is not {SECTION_ALIGN}-byte aligned",
                        entry.id, entry.offset
                    ),
                );
            }
            if entry.offset < table_end {
                self.structure(
                    base + 8,
                    format!("section {}: payload overlaps the header or table", entry.id),
                );
                usable = false;
            }
            match entry.offset.checked_add(entry.byte_len) {
                Some(end) if end <= len => {}
                _ => {
                    self.structure(
                        base + 16,
                        format!(
                            "section {}: payload [{}, +{}) exceeds the {len}-byte file",
                            entry.id, entry.offset, entry.byte_len
                        ),
                    );
                    usable = false;
                }
            }
            if entry
                .count
                .checked_mul(u64::from(entry.elem_size))
                .is_none_or(|expected| entry.byte_len != expected)
            {
                self.structure(
                    base + 16,
                    format!(
                        "section {}: byte length {} != count {} x element size {}",
                        entry.id, entry.byte_len, entry.count, entry.elem_size
                    ),
                );
                usable = false;
            }
            if sections.iter().any(|s| s.id == entry.id) {
                self.structure(base, format!("duplicate section id {}", entry.id));
                usable = false;
            }
            if usable {
                sections.push(entry);
            }
        }

        // Pairwise payload overlap: an overlap means one arena aliases
        // another, which no writer produces.
        for (i, a) in sections.iter().enumerate() {
            for b in sections.iter().skip(i + 1) {
                let disjoint = a.offset.saturating_add(a.byte_len) <= b.offset
                    || b.offset.saturating_add(b.byte_len) <= a.offset;
                if !disjoint && a.byte_len > 0 && b.byte_len > 0 {
                    self.structure(a.offset, format!("sections {} and {} overlap", a.id, b.id));
                }
            }
        }
        Some(sections)
    }

    // -- layout --------------------------------------------------------------

    fn find(sections: &[SectionEntry], id: u32) -> Option<&SectionEntry> {
        sections.iter().find(|s| s.id == id)
    }

    fn payload(&self, entry: &SectionEntry) -> &'a [u8] {
        let start = u64_to_usize(entry.offset).unwrap_or(usize::MAX);
        let len = u64_to_usize(entry.byte_len).unwrap_or(0);
        self.data
            .get(start..start.saturating_add(len))
            .unwrap_or(&[])
    }

    /// Looks a section up and checks id + element size + count in one go.
    fn expect_section(
        &mut self,
        sections: &[SectionEntry],
        id: u32,
        elem_size: u32,
        count: Option<u64>,
    ) -> Option<SectionEntry> {
        let Some(&entry) = Self::find(sections, id) else {
            self.layout_section(id, "section is missing".to_owned());
            return None;
        };
        if entry.elem_size != elem_size {
            self.layout(
                &entry,
                0,
                format!(
                    "holds {}-byte elements, expected {elem_size}",
                    entry.elem_size
                ),
            );
            return None;
        }
        if let Some(expected) = count {
            if entry.count != expected {
                self.layout(
                    &entry,
                    0,
                    format!("holds {} elements, expected {expected}", entry.count),
                );
                return None;
            }
        }
        Some(entry)
    }

    /// Checks one CSR offsets column: starts at 0, monotone non-decreasing,
    /// ends at `end`. Reports each violated clause at its byte offset.
    fn check_csr_u32(&mut self, entry: &SectionEntry, end: u64, what: &str) -> bool {
        let payload = self.payload(entry);
        let mut ok = true;
        if elem_u32(payload, 0).unwrap_or(0) != 0 {
            self.layout(
                entry,
                0,
                format!(
                    "{what} offsets start at {}, not 0",
                    elem_u32(payload, 0).unwrap_or(0)
                ),
            );
            ok = false;
        }
        let mut prev = 0u32;
        for (i, value) in iter_u32(payload).enumerate() {
            if value < prev {
                self.layout(
                    entry,
                    usize_to_u64(i),
                    format!("{what} offsets are not monotone ({prev} > {value})"),
                );
                ok = false;
                break;
            }
            prev = value;
        }
        let last = u64::from(iter_u32(payload).next_back().unwrap_or(0));
        if last != end {
            self.layout(
                entry,
                entry.count.saturating_sub(1),
                format!("{what} offsets end at {last}, expected {end}"),
            );
            ok = false;
        }
        ok
    }

    fn check_composition(&mut self, sections: &[SectionEntry]) {
        // meta -- everything else is cross-checked against it.
        let Some(meta_entry) = self.expect_section(sections, section_id::META, 8, Some(3)) else {
            return;
        };
        let meta_payload = self.payload(&meta_entry);
        let meta = {
            let read = |i| elem_u64(meta_payload, i).and_then(u64_to_usize);
            match (read(0), read(1), read(2)) {
                (Some(num_sequences), Some(num_events), Some(total_length)) => Meta {
                    num_sequences,
                    num_events,
                    total_length,
                },
                _ => {
                    self.layout(&meta_entry, 0, "meta value overflows usize".to_owned());
                    return;
                }
            }
        };
        // A valid image spends 4 bytes per sequence boundary
        // (store.offsets), 8 per event (event.counts) and at least 2 per
        // arena element (store.events). A meta that asks for more than the
        // file holds is refused before it sizes the recount below.
        let len = self.data.len();
        let oversized = [
            meta.num_sequences >= len / 4,
            meta.num_events > len / 8,
            meta.total_length > len / 2,
        ]
        .iter()
        .position(|&over| over);
        if let Some(elem) = oversized {
            self.layout(
                &meta_entry,
                usize_to_u64(elem),
                format!(
                    "meta records {} sequences, {} events and {} arena elements, more than the \
                     {len}-byte image can hold",
                    meta.num_sequences, meta.num_events, meta.total_length
                ),
            );
            return;
        }

        // store.events: a narrow (2-byte) or wide (4-byte) arena, every
        // event inside the alphabet.
        let events_entry = match Self::find(sections, section_id::STORE_EVENTS) {
            None => {
                self.layout_section(section_id::STORE_EVENTS, "section is missing".to_owned());
                None
            }
            Some(&entry) => {
                if !matches!(entry.elem_size, 2 | 4) {
                    self.layout(
                        &entry,
                        0,
                        format!("holds {}-byte elements, expected 2 or 4", entry.elem_size),
                    );
                    None
                } else if entry.count != usize_to_u64(meta.total_length) {
                    self.layout(
                        &entry,
                        0,
                        format!(
                            "holds {} elements, expected {}",
                            entry.count, meta.total_length
                        ),
                    );
                    None
                } else {
                    Some(entry)
                }
            }
        };
        let arena = events_entry
            .map(|e| Arena {
                bytes: self.payload(&e),
                width: u32_to_usize(e.elem_size),
            })
            .unwrap_or_default();
        // One pass over the arena: the recount behind event.counts and
        // event.order, and the ids outside the alphabet.
        let mut histogram = vec![0u64; meta.num_events];
        let (mut count, mut bad) = (0usize, None);
        for (i, event) in arena.iter().enumerate() {
            match histogram.get_mut(u32_to_usize(event)) {
                Some(slot) => *slot += 1,
                None => {
                    count += 1;
                    bad = bad.or(Some((i, event)));
                }
            }
        }
        if let Some(entry) = events_entry {
            if let Some((first, value)) = bad {
                self.layout(
                    &entry,
                    usize_to_u64(first),
                    format!(
                        "{count} events reference ids outside the {}-event alphabet (first: id \
                         {value} at element {first})",
                        meta.num_events,
                    ),
                );
            }
        }

        // store.offsets: the global CSR column.
        let store_offsets_entry = self.expect_section(
            sections,
            section_id::STORE_OFFSETS,
            4,
            Some(usize_to_u64(meta.num_sequences).saturating_add(1)),
        );
        let store_offsets: &[u8] = store_offsets_entry.map_or(&[], |e| self.payload(&e));
        let store_csr_ok = store_offsets_entry.is_some_and(|entry| {
            self.check_csr_u32(&entry, usize_to_u64(meta.total_length), "store")
        });

        // catalog: bijective with the alphabet.
        self.check_catalog(sections, meta);

        // event.counts + event.order against the recount of the arena.
        if let Some(entry) = self.expect_section(
            sections,
            section_id::EVENT_COUNTS,
            8,
            Some(usize_to_u64(meta.num_events)),
        ) {
            let payload = self.payload(&entry);
            for (i, expected) in histogram.iter().enumerate() {
                let recorded = elem_u64(payload, i).unwrap_or(0);
                if recorded != *expected {
                    self.layout(
                        &entry,
                        usize_to_u64(i),
                        format!(
                            "event {i} records {recorded} occurrences but the arena holds \
                             {expected}"
                        ),
                    );
                    break;
                }
            }
        }
        if let Some(entry) = self.expect_section(sections, section_id::EVENT_ORDER, 4, None) {
            let recorded: Vec<u32> = iter_u32(self.payload(&entry)).collect();
            let expected: Vec<u32> = histogram
                .iter()
                .enumerate()
                .filter(|(_, &count)| count > 0)
                .filter_map(|(i, _)| crate::cast::usize_to_u32(i))
                .collect();
            if recorded != expected {
                self.layout(
                    &entry,
                    0,
                    format!(
                        "candidate order holds {} ids, expected the {} occurring events in \
                         id order",
                        recorded.len(),
                        expected.len()
                    ),
                );
            }
        }

        // The one index against the global arena.
        self.check_index(sections, meta, arena, store_csr_ok.then_some(store_offsets));
    }

    fn check_catalog(&mut self, sections: &[SectionEntry], meta: Meta) {
        let Some(entry) = self.expect_section(sections, section_id::CATALOG, 1, None) else {
            return;
        };
        let payload = self.payload(&entry);
        let Some(count) = elem_u32(payload, 0).map(u32_to_usize) else {
            self.layout(&entry, 0, "catalog section is truncated".to_owned());
            return;
        };
        if count != meta.num_events {
            self.layout(
                &entry,
                0,
                format!(
                    "catalog holds {count} labels but meta records {} events",
                    meta.num_events
                ),
            );
        }
        // A set keeps the duplicate check linear in the alphabet.
        let mut labels: HashSet<&[u8]> = HashSet::new();
        let mut cursor = 4usize;
        for i in 0..count {
            let Some(len) = u32_at(payload, cursor).map(u32_to_usize) else {
                self.layout(
                    &entry,
                    usize_to_u64(cursor),
                    format!("catalog is truncated before label {i}"),
                );
                return;
            };
            cursor += 4;
            let Some(label) = payload.get(cursor..cursor.saturating_add(len)) else {
                self.layout(
                    &entry,
                    usize_to_u64(cursor),
                    format!("catalog label {i} is truncated"),
                );
                return;
            };
            if std::str::from_utf8(label).is_err() {
                self.layout(
                    &entry,
                    usize_to_u64(cursor),
                    format!("catalog label {i} is not valid UTF-8"),
                );
            }
            if !labels.insert(label) {
                self.layout(
                    &entry,
                    usize_to_u64(cursor),
                    format!("catalog label {i} is a duplicate (ids would renumber)"),
                );
            }
            cursor += len;
        }
        if usize_to_u64(cursor) != entry.byte_len {
            self.layout(
                &entry,
                usize_to_u64(cursor),
                format!(
                    "catalog has {} trailing bytes",
                    entry.byte_len.saturating_sub(usize_to_u64(cursor))
                ),
            );
        }
    }

    /// Checks the event-major index (its five column sections) over all
    /// `meta.num_sequences` sequences. `store_offsets` is the payload of
    /// the validated global store CSR column — when present, every
    /// position is checked to land on its event in its sequence of the
    /// arena. Columns are read in place.
    fn check_index(
        &mut self,
        sections: &[SectionEntry],
        meta: Meta,
        arena: Arena<'_>,
        store_offsets: Option<&[u8]>,
    ) {
        let num_sequences = meta.num_sequences;
        let dir_count = Some(usize_to_u64(meta.num_events).saturating_add(1));
        let row_dir = self.expect_section(sections, section_id::INDEX_ROW_DIR, 4, dir_count);
        let id_dir = self.expect_section(sections, section_id::INDEX_ID_DIR, 4, dir_count);
        let row_offsets = self.expect_section(sections, section_id::INDEX_ROW_OFFSETS, 4, None);
        let ids = self.expect_section(sections, section_id::INDEX_IDS, 4, None);
        let positions = self.expect_section(
            sections,
            section_id::INDEX_POSITIONS,
            4,
            Some(usize_to_u64(meta.total_length)),
        );
        let (Some(row_dir), Some(id_dir), Some(row_offsets), Some(ids), Some(positions)) =
            (row_dir, id_dir, row_offsets, ids, positions)
        else {
            return;
        };
        if row_offsets.count == 0 {
            self.layout(
                &row_offsets,
                0,
                "index row offsets are empty (the sentinel is missing)".to_owned(),
            );
            return;
        }
        let rows_ok = self.check_csr_u32(&row_dir, row_offsets.count - 1, "index row directory");
        let ids_ok = self.check_csr_u32(&id_dir, ids.count, "index id directory");
        let offsets_ok = self.check_csr_u32(&row_offsets, positions.count, "index row");
        if !(rows_ok && ids_ok && offsets_ok) {
            return;
        }

        let (row_dir_bytes, id_dir_bytes) = (self.payload(&row_dir), self.payload(&id_dir));
        let (offset_bytes, id_bytes) = (self.payload(&row_offsets), self.payload(&ids));
        let position_bytes = self.payload(&positions);
        let dir = |bytes: &[u8], e: usize| match (elem_u32(bytes, e), elem_u32(bytes, e + 1)) {
            (Some(start), Some(end)) => u32_to_usize(start)..u32_to_usize(end),
            _ => 0..0,
        };
        for event in 0..meta.num_events {
            let (rows, event_ids) = (dir(row_dir_bytes, event), dir(id_dir_bytes, event));
            let dense = event_ids.is_empty() && !rows.is_empty();
            let containing = if dense {
                rows.clone()
                    .filter(|&r| !dir(offset_bytes, r).is_empty())
                    .count()
            } else {
                event_ids.len()
            };
            // The layout must be the one the rule picks for this data.
            let shape_ok = if dense {
                rows.len() == num_sequences
            } else {
                rows.len() == event_ids.len()
            };
            if !shape_ok || dense != dense_rule(containing, num_sequences) {
                self.layout(
                    &row_dir,
                    usize_to_u64(event),
                    format!(
                        "index event {event}: stored {} with {} rows and {} ids, but it \
                         occurs in {containing} of {num_sequences} sequences",
                        if dense { "dense" } else { "sparse" },
                        rows.len(),
                        event_ids.len()
                    ),
                );
                return;
            }
            for (j, r) in rows.enumerate() {
                let seq = if dense {
                    j
                } else {
                    let at = event_ids.start + j;
                    let id = elem_u32(id_bytes, at).map_or(usize::MAX, u32_to_usize);
                    let prev = at
                        .checked_sub(1)
                        .filter(|&p| p >= event_ids.start)
                        .and_then(|p| elem_u32(id_bytes, p));
                    if id >= num_sequences || prev.is_some_and(|p| u32_to_usize(p) >= id) {
                        self.layout(
                            &ids,
                            usize_to_u64(at),
                            format!(
                                "index event {event}: sparse id {id} is out of range or not \
                                 strictly ascending (the store has {num_sequences} sequences)"
                            ),
                        );
                        return;
                    }
                    id
                };
                let row = dir(offset_bytes, r);
                if !dense && row.is_empty() {
                    self.layout(
                        &row_offsets,
                        usize_to_u64(r),
                        format!("index event {event}: sparse row {j} is empty"),
                    );
                    return;
                }
                // The bounds of the owning sequence in the arena.
                let seq_window = store_offsets.and_then(|offsets| {
                    let start = elem_u32(offsets, seq)?;
                    let end = elem_u32(offsets, seq + 1)?;
                    Some((u32_to_usize(start), u32_to_usize(end)))
                });
                let events = seq_window.map(|(start, end)| arena.window(start, end));
                let row_positions = row
                    .start
                    .checked_mul(4)
                    .zip(row.end.checked_mul(4))
                    .and_then(|(from, to)| position_bytes.get(from..to))
                    .unwrap_or_default();
                let mut prev = 0u32;
                for (i, pos) in (row.start..).zip(iter_u32(row_positions)) {
                    let at = usize_to_u64(i);
                    if pos == 0 || pos <= prev {
                        self.layout(
                            &positions,
                            at,
                            format!(
                                "index event {event}, sequence {seq}: position {pos} after \
                                 {prev} (positions are 1-based and strictly ascending)"
                            ),
                        );
                        return;
                    }
                    prev = pos;
                    if let (Some(events), Some((start, end))) = (events, seq_window) {
                        let actual = events.get(u32_to_usize(pos) - 1);
                        if actual.map(u32_to_usize) != Some(event) {
                            self.layout(
                                &positions,
                                at,
                                format!(
                                    "index event {event}, sequence {seq}: position {pos} \
                                     does not land on event {event} in the {}-event sequence",
                                    end - start
                                ),
                            );
                            return;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{section_id, SectionPayload, SnapshotWriter};
    use super::*;
    use crate::{InvertedIndex, SequenceDatabase};

    /// A file name unique to this call: tests run in parallel threads of
    /// one process and compose the same image, so the process id alone
    /// would let one test delete another's file before it is read back.
    fn temp_path(tag: &str) -> std::path::PathBuf {
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "seqdb-verify-{}-{tag}-{call}.bin",
            std::process::id()
        ))
    }

    /// Composes a valid v6 prepared image section by section, with a
    /// narrow (`u16`) or wide (`u32`) event arena: `write_prepared` writes
    /// narrowest-fit, so it never writes this small alphabet wide. `E`
    /// occurs in one of three sequences, so the index holds sparse and
    /// dense events.
    fn v6_image_bytes(narrow: bool) -> Vec<u8> {
        let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD", "AEEA"]);
        let index = InvertedIndex::build(&db);
        assert!(index.dense_events() > 0 && index.dense_events() < db.num_events());
        let counts = index.total_counts();
        let order: Vec<crate::EventId> = db
            .catalog()
            .ids()
            .filter(|e| counts[e.index()] > 0)
            .collect();
        let meta = [
            db.num_sequences() as u64,
            db.num_events() as u64,
            db.total_length() as u64,
        ];
        let catalog_bytes = super::super::catalog_to_bytes(db.catalog());
        let column = db.store().event_column();
        let wide = column.to_wide_vec();
        let events = if narrow {
            SectionPayload::U16s(
                column
                    .narrow_slice()
                    .expect("a 5-event alphabet builds narrow"),
            )
        } else {
            SectionPayload::EventIds(&wide)
        };
        let path = temp_path(if narrow {
            "compose-narrow"
        } else {
            "compose-wide"
        });
        let mut writer = SnapshotWriter::new();
        writer
            .section(section_id::META, SectionPayload::U64s(&meta))
            .section(section_id::STORE_EVENTS, events)
            .section(
                section_id::STORE_OFFSETS,
                SectionPayload::U32s(db.store().offsets()),
            )
            .section(section_id::CATALOG, SectionPayload::Bytes(&catalog_bytes))
            .section(section_id::EVENT_COUNTS, SectionPayload::U64s(&counts))
            .section(section_id::EVENT_ORDER, SectionPayload::EventIds(&order));
        for (id, column) in section_id::INDEX_COLUMNS
            .into_iter()
            .zip(index.columns().as_slices())
        {
            writer.section(id, SectionPayload::U32s(column));
        }
        writer.write_to_path(&path).expect("write v6");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        bytes
    }

    /// Re-seals a mutated image so only layout violations remain.
    fn reseal(bytes: &mut [u8]) {
        let checksum = checksum_of(bytes);
        bytes[24..32].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn a_narrow_image_verifies_clean() {
        let bytes = v6_image_bytes(true);
        let report = verify_bytes(&bytes);
        assert!(report.is_clean(), "{:#?}", report.violations);
        assert_eq!(report.version, Some(6));
    }

    #[test]
    fn a_pre_v4_header_is_unsupported_and_names_the_rebuild() {
        // Downgrade the header version and re-seal: the sections stay
        // intact, but this build reads format 6 only — v5 (the last format
        // with a sequence-range table) included.
        for version in [3u32, 5] {
            let mut bytes = v6_image_bytes(true);
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
        let bytes = v6_image_bytes(false);
        let report = verify_bytes(&bytes);
        assert!(report.is_clean(), "{:#?}", report.violations);
        assert_eq!(report.version, Some(6));
        assert_eq!(report.section_count, 11);
    }

    /// Overwrites element `elem` of the `u32` section `id` and re-seals.
    fn patch_u32(bytes: &mut [u8], id: u32, elem: usize, value: u32) {
        let count = u32_to_usize(u32_at(bytes, 32).unwrap());
        let base = (0..count)
            .map(|i| 64 + i * 32)
            .find(|&base| u32_at(bytes, base) == Some(id))
            .expect("section present");
        let at = u64_to_usize(u64_at(bytes, base + 8).unwrap()).unwrap() + elem * 4;
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        reseal(bytes);
    }

    #[test]
    fn each_index_invariant_is_a_layout_violation() {
        // Fixture index: events A..D dense (rows 0..12, three per event), E
        // sparse (row 12, id 2); row_offsets[3..=6] delimit B's rows.
        let pristine = v6_image_bytes(false);
        let [row_dir, id_dir, row_offsets, ids, positions] = section_id::INDEX_COLUMNS;
        let cases: [(&str, u32, usize, u32, &str); 7] = [
            ("row directory out of order", row_dir, 1, 99, "monotone"),
            ("id directory off its end", id_dir, 5, 0, "end at"),
            ("row offsets off the arena", row_offsets, 13, 1, "end at"),
            // B keeps three rows but only one holds positions: too few
            // sequences for the dense layout.
            ("dense rule", row_offsets, 4, 5, "occurs in 1 of 3"),
            ("sparse id past the store", ids, 0, 7, "out of range"),
            ("0-based position", positions, 0, 0, "1-based"),
            (
                "position on the wrong event",
                positions,
                0,
                2,
                "does not land",
            ),
        ];
        let b_start = {
            let report = verify_bytes(&pristine);
            assert!(report.is_clean(), "{:#?}", report.violations);
            let index = InvertedIndex::build(&SequenceDatabase::from_str_rows(&[
                "ABCACBDDB",
                "ACDBACADD",
                "AEEA",
            ]));
            assert_eq!(&index.columns().row_dir[..], &[0, 3, 6, 9, 12, 13]);
            assert_eq!(&index.columns().ids[..], &[2]);
            index.columns().row_offsets[5]
        };
        for (what, section, elem, value, needle) in cases {
            let value = if what == "dense rule" { b_start } else { value };
            let mut bytes = pristine.clone();
            patch_u32(&mut bytes, section, elem, value);
            let report = verify_bytes(&bytes);
            assert!(
                report.has(ViolationKind::Layout) && !report.has(ViolationKind::Checksum),
                "{what}: {:#?}",
                report.violations
            );
            assert!(
                report.violations.iter().any(|v| v.detail.contains(needle)),
                "{what}: expected {needle:?} in {:#?}",
                report.violations
            );
        }
    }

    #[test]
    fn a_bit_flip_in_a_payload_is_caught_by_the_checksum() {
        let mut bytes = v6_image_bytes(false);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let report = verify_bytes(&bytes);
        assert!(!report.is_clean());
        assert!(report.has(ViolationKind::Checksum));
    }

    #[test]
    fn a_resealed_layout_mutation_is_distinguished_from_bit_rot() {
        let mut bytes = v6_image_bytes(false);
        // Patch the meta event count (element 1) to a nonsense value and
        // re-seal the checksum: structurally valid, semantically broken.
        let report_clean = verify_bytes(&bytes);
        assert!(report_clean.is_clean());
        let meta_offset = {
            let count = u32_to_usize(u32_at(&bytes, 32).unwrap());
            (0..count)
                .map(|i| 64 + i * 32)
                .find(|&base| u32_at(&bytes, base) == Some(section_id::META))
                .and_then(|base| u64_to_usize(u64_at(&bytes, base + 8).unwrap()))
                .expect("meta section present")
        };
        bytes[meta_offset + 8..meta_offset + 16].copy_from_slice(&999u64.to_le_bytes());
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
        let mut bytes = v6_image_bytes(false);
        // Corrupt the checksum field itself: every section stays intact.
        bytes[24] ^= 0xFF;
        let report = verify_bytes(&bytes);
        assert!(report.checksum_broken_only(), "{:#?}", report.violations);
    }

    #[test]
    fn truncated_and_garbage_inputs_never_panic() {
        let bytes = v6_image_bytes(false);
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
        let mut bytes = v6_image_bytes(false);
        bytes[16] ^= 0x01; // recorded file length
        let report = verify_bytes(&bytes);
        let length_violation = report
            .violations
            .iter()
            .find(|v| v.kind == ViolationKind::Structure)
            .expect("length mismatch reported");
        assert_eq!(length_violation.offset, Some(16));
        let rendered = format!("{length_violation}");
        assert!(rendered.contains("byte 16"), "{rendered}");
    }
}
