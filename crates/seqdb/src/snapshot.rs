//! The single-file snapshot image: a versioned, little-endian, 64-byte-
//! aligned on-disk format for the columnar arenas, opened with zero copies.
//!
//! An image holds the corpus, not what is derived from it: the
//! [`crate::SeqStore`] event arena and CSR offsets, the catalog, and their
//! sizes. This module serializes those arrays into **one file** and maps
//! the store back as borrowed slices, so a cold start is an `mmap`, one
//! checksum scan and one build of the event-major [`crate::InvertedIndex`]
//! instead of re-tokenizing the corpus. The index, the per-event counts and
//! the candidate order are derived at open by the same code that derives
//! them for a corpus built in memory, so there is nothing stored to
//! cross-check against the store. `ARCHITECTURE.md` at the repository root
//! walks the format byte by byte.
//!
//! # File layout (version 7)
//!
//! [`section_id::STORE_EVENTS`] is **width-tagged**: it carries 2-byte
//! elements (a narrow `u16` arena) when the alphabet fits and 4-byte ones
//! otherwise — the per-section `elem_size` field *is* the width tag, and
//! the narrow arena maps back zero-copy. This build reads version 7 only:
//! an older image is [`SnapshotError::Unsupported`] and is rebuilt in
//! milliseconds with `rgs-mine snapshot build`.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic  "RGS1SNAP"
//!      8     4  format version (u32 LE) = 7
//!     12     4  endianness marker (u32 LE) = 0x0A0B_0C0D
//!     16     8  file length in bytes (u64 LE)
//!     24     8  FNV-1a 64 checksum (u64 LE) of every file byte EXCEPT
//!               this field itself (bytes [0, 24) and [32, file_len))
//!     32     4  section count (u32 LE)
//!     36    28  reserved, must be zero
//!     64   32n  section table: n entries of
//!               { id: u32, elem_size: u32 (1|2|4|8), offset: u64,
//!                 byte_len: u64, count: u64 }
//!      -     -  section payloads, each starting at a 64-byte-aligned
//!               offset, zero-padded in between
//! ```
//!
//! All integers are little-endian. Payload offsets are 64-byte aligned so
//! that a page-aligned `mmap` (or the 8-byte-aligned read fallback) can
//! reinterpret a `u32`/`u64` section in place, without copying — the
//! alignment is rechecked defensively on every typed access. The checksum
//! makes corruption detection exhaustive: any single bit flip anywhere in
//! the file is rejected with a descriptive [`SnapshotError`] (pinned by
//! `tests/snapshot_corruption.rs`).
//!
//! # The prepared-database layout
//!
//! A prepared database is four sections (ids in [`section_id`]):
//!
//! | section | contents |
//! |---|---|
//! | `meta` | `[num_sequences, num_events, total_length]` as `u64`s |
//! | `store.events` | the flat [`crate::SeqStore`] event arena, at its narrowest width |
//! | `store.offsets` | the store's CSR offsets (per sequence + sentinel) |
//! | `catalog` | the interned event labels, length-prefixed UTF-8 |
//!
//! One module writes, checks and reads it: [`write_prepared`] writes it,
//! the [`verify`] layer states every invariant it must uphold, and
//! [`open_prepared`] runs that verifier on the mapped bytes before it maps
//! the store and builds the index with
//! [`InvertedIndex::build_for_store`](crate::InvertedIndex::build_for_store).
//! The store's mapped-column constructor is crate-internal, so nothing
//! outside this module builds a store from image bytes. `rgs-core`'s
//! `PreparedDb::write_snapshot` / `open_snapshot` wrap the two calls.

// mmap, the aligned read buffer, and in-place slice reinterpretation are
// inherently `unsafe`; every use carries a local safety argument, and all
// offsets/lengths/alignments are validated against the header first.
#![allow(unsafe_code)]

use std::any::Any;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use crate::cast::{u32_to_usize, u64_to_usize, usize_to_u32, usize_to_u64};
use crate::catalog::{EventCatalog, EventId};
use crate::shared::{event_ids_as_u32s, SharedSlice};
use crate::{EventColumn, EventWidth, InvertedIndex, SeqStore, SequenceDatabase};

/// The 8-byte magic at offset 0 of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RGS1SNAP";

/// The format version this build writes, and the only one it reads: no
/// code writes an older layout, and `rgs-mine snapshot build` regenerates
/// an image from its corpus in milliseconds.
///
/// Version 7 holds the corpus only — the store and the catalog; the
/// index, per-event counts and candidate order are built at open.
pub const SNAPSHOT_VERSION: u32 = 7;

/// Why an image stamped `version` cannot be read, or `None` when it can.
/// Stated once, in the [`verify`] layer's container pass.
pub(crate) fn version_error(version: u32) -> Option<String> {
    if version == SNAPSHOT_VERSION {
        None
    } else if version < SNAPSHOT_VERSION {
        Some(format!(
            "format version {version} predates format {SNAPSHOT_VERSION}, the only one this \
             build reads; rebuild the image from its corpus with `rgs-mine snapshot build`"
        ))
    } else {
        Some(format!(
            "format version {version}; this build reads format {SNAPSHOT_VERSION} only"
        ))
    }
}

/// Alignment (bytes) of every section payload within the file.
pub const SECTION_ALIGN: u64 = 64;

/// Value of the endianness marker field when read on a matching host.
const ENDIAN_MARKER: u32 = 0x0A0B_0C0D;

/// Byte length of the fixed header.
const HEADER_LEN: u64 = 64;

/// Byte length of one section-table entry.
const ENTRY_LEN: u64 = 32;

/// Well-known section identifiers.
///
/// The format itself is agnostic to ids; this registry fixes what
/// [`write_prepared`] writes. Ids 7–14 held sections of formats 5 and 6;
/// they are retired, not reused.
pub mod section_id {
    /// `u64` triple `[num_sequences, num_events, total_length]`.
    pub const META: u32 = 1;
    /// The [`SeqStore`](crate::SeqStore) event arena: element size 2
    /// (`u16` per event) when the alphabet fits a narrow column, 4 (`u32`)
    /// otherwise — the section's `elem_size` field is the width tag.
    pub const STORE_EVENTS: u32 = 2;
    /// The [`SeqStore`](crate::SeqStore) CSR offsets (`u32`, one per
    /// sequence plus a sentinel).
    pub const STORE_OFFSETS: u32 = 3;
    /// The serialized [`EventCatalog`](crate::EventCatalog) (length-prefixed
    /// UTF-8 labels; see [`catalog_to_bytes`](crate::snapshot::catalog_to_bytes)).
    pub const CATALOG: u32 = 6;

    /// Human-readable name of a well-known section id (for `snapshot info`).
    pub fn name(id: u32) -> &'static str {
        match id {
            META => "meta",
            STORE_EVENTS => "store.events",
            STORE_OFFSETS => "store.offsets",
            CATALOG => "catalog",
            _ => "unknown",
        }
    }
}

/// Why a snapshot could not be written or opened.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying filesystem error.
    Io(io::Error),
    /// The file is not a valid snapshot: bad magic, failed checksum,
    /// truncation, out-of-bounds or misaligned sections, or inconsistent
    /// content.
    Corrupt(String),
    /// The file is a snapshot, but this build cannot read it (format
    /// version or endianness mismatch).
    Unsupported(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(err) => write!(f, "snapshot I/O error: {err}"),
            SnapshotError::Corrupt(detail) => write!(f, "corrupt snapshot: {detail}"),
            SnapshotError::Unsupported(detail) => write!(f, "unsupported snapshot: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(err: io::Error) -> Self {
        SnapshotError::Io(err)
    }
}

/// Shorthand constructor for [`SnapshotError::Corrupt`].
pub(crate) fn corrupt(detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(detail.into())
}

// ---------------------------------------------------------------------------
// FNV-1a 64
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 hasher over raw bytes.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        self.0 = hash;
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// The FNV-1a 64 checksum of a whole image, computed exactly as the header
/// records it: every file byte except the checksum field itself (bytes
/// `[24, 32)`). Data shorter than the 32-byte prefix is hashed as-is.
///
/// Exposed for the [`verify`] layer and its mutation-sweep tests, which
/// need to re-seal deliberately corrupted images to tell layout violations
/// apart from checksum failures.
pub fn checksum_of(data: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    match (data.get(..24), data.get(32..)) {
        (Some(head), Some(tail)) => {
            hash.update(head);
            hash.update(tail);
        }
        _ => hash.update(data),
    }
    hash.finish()
}

#[path = "snapshot_verify.rs"]
pub mod verify;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// One section's data, borrowed from the caller for the duration of the
/// write. Typed variants serialize as packed little-endian arrays.
#[derive(Debug, Clone, Copy)]
pub enum SectionPayload<'a> {
    /// Raw bytes (`elem_size` 1).
    Bytes(&'a [u8]),
    /// Packed `u16`s (`elem_size` 2) — the narrow event arena.
    U16s(&'a [u16]),
    /// Packed `u32`s (`elem_size` 4).
    U32s(&'a [u32]),
    /// Packed `u64`s (`elem_size` 8).
    U64s(&'a [u64]),
    /// Packed [`EventId`]s, serialized as their raw `u32`s (`elem_size` 4).
    EventIds(&'a [EventId]),
}

impl SectionPayload<'_> {
    fn elem_size(&self) -> u64 {
        match self {
            SectionPayload::Bytes(_) => 1,
            SectionPayload::U16s(_) => 2,
            SectionPayload::U32s(_) | SectionPayload::EventIds(_) => 4,
            SectionPayload::U64s(_) => 8,
        }
    }

    fn count(&self) -> u64 {
        match self {
            SectionPayload::Bytes(b) => usize_to_u64(b.len()),
            SectionPayload::U16s(v) => usize_to_u64(v.len()),
            SectionPayload::U32s(v) => usize_to_u64(v.len()),
            SectionPayload::U64s(v) => usize_to_u64(v.len()),
            SectionPayload::EventIds(v) => usize_to_u64(v.len()),
        }
    }

    fn byte_len(&self) -> u64 {
        self.count() * self.elem_size()
    }

    /// Writes the payload as little-endian bytes into `out`.
    fn write_le(&self, out: &mut HashingWriter<impl Write>) -> io::Result<()> {
        match self {
            SectionPayload::Bytes(bytes) => out.write_hashed(bytes),
            SectionPayload::U16s(values) => write_u16s_le(values, out),
            SectionPayload::U32s(values) => write_u32s_le(values, out),
            SectionPayload::EventIds(ids) => write_u32s_le(event_ids_as_u32s(ids), out),
            SectionPayload::U64s(values) => write_u64s_le(values, out),
        }
    }
}

#[cfg(target_endian = "little")]
fn write_u16s_le(values: &[u16], out: &mut HashingWriter<impl Write>) -> io::Result<()> {
    // SAFETY: reinterpreting an initialized &[u16] as bytes is always valid;
    // on a little-endian host the in-memory bytes ARE the wire format.
    let bytes =
        unsafe { std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), values.len() * 2) };
    out.write_hashed(bytes)
}

#[cfg(not(target_endian = "little"))]
fn write_u16s_le(values: &[u16], out: &mut HashingWriter<impl Write>) -> io::Result<()> {
    for value in values {
        out.write_hashed(&value.to_le_bytes())?;
    }
    Ok(())
}

#[cfg(target_endian = "little")]
fn write_u32s_le(values: &[u32], out: &mut HashingWriter<impl Write>) -> io::Result<()> {
    // SAFETY: reinterpreting an initialized &[u32] as bytes is always valid;
    // on a little-endian host the in-memory bytes ARE the wire format.
    let bytes =
        unsafe { std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), values.len() * 4) };
    out.write_hashed(bytes)
}

#[cfg(not(target_endian = "little"))]
fn write_u32s_le(values: &[u32], out: &mut HashingWriter<impl Write>) -> io::Result<()> {
    for value in values {
        out.write_hashed(&value.to_le_bytes())?;
    }
    Ok(())
}

#[cfg(target_endian = "little")]
fn write_u64s_le(values: &[u64], out: &mut HashingWriter<impl Write>) -> io::Result<()> {
    // SAFETY: as in `write_u32s_le`.
    let bytes =
        unsafe { std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), values.len() * 8) };
    out.write_hashed(bytes)
}

#[cfg(not(target_endian = "little"))]
fn write_u64s_le(values: &[u64], out: &mut HashingWriter<impl Write>) -> io::Result<()> {
    for value in values {
        out.write_hashed(&value.to_le_bytes())?;
    }
    Ok(())
}

/// A writer that feeds everything it writes into the running checksum.
struct HashingWriter<W: Write> {
    inner: W,
    hash: Fnv1a,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        Self {
            inner,
            hash: Fnv1a::new(),
        }
    }

    /// Writes bytes that are covered by the checksum.
    fn write_hashed(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.hash.update(bytes);
        self.inner.write_all(bytes)
    }

    /// Writes bytes that are excluded from the checksum (the checksum field
    /// itself).
    fn write_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_all(bytes)
    }
}

/// Builds and writes one snapshot image.
///
/// Add sections with [`SnapshotWriter::section`] (ids must be unique), then
/// serialize everything in one pass with [`SnapshotWriter::write_to_path`].
/// Payloads are borrowed, so writing a multi-gigabyte prepared database
/// never copies an arena.
#[derive(Debug, Default)]
pub struct SnapshotWriter<'a> {
    sections: Vec<(u32, SectionPayload<'a>)>,
}

impl<'a> SnapshotWriter<'a> {
    /// Creates an empty writer targeting the current format version.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section. Panics on a duplicate id — that is a programming
    /// error in the composition, not a runtime condition.
    pub fn section(&mut self, id: u32, payload: SectionPayload<'a>) -> &mut Self {
        assert!(
            self.sections.iter().all(|(existing, _)| *existing != id),
            "duplicate snapshot section id {id}"
        );
        self.sections.push((id, payload));
        self
    }

    /// Serializes header, section table, and payloads to `path` in one
    /// pass, then patches the checksum into the header. Returns the number
    /// of bytes written.
    ///
    /// The write is **atomic**: everything goes to a temporary file in the
    /// destination's directory, synced, and then renamed over `path`. A
    /// crash or full disk mid-write therefore never destroys a previous
    /// good image — and because the old inode stays alive until unmapped,
    /// it is safe to rebuild a snapshot onto its own source file while
    /// payloads still borrow its mapping.
    pub fn write_to_path(&self, path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
        // pid + process-wide counter: concurrent writers to the same
        // destination (even from different threads) get distinct temp
        // files, so the last rename wins with a complete image.
        static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(
            ".tmp.{}.{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let tmp = std::path::PathBuf::from(tmp);
        let result = self.write_to_tmp(&tmp).and_then(|file_len| {
            std::fs::rename(&tmp, path)?;
            Ok(file_len)
        });
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result
    }

    fn write_to_tmp(&self, tmp: &Path) -> Result<u64, SnapshotError> {
        // Lay out the file: header, table, then payloads at aligned offsets.
        let table_end = HEADER_LEN + ENTRY_LEN * usize_to_u64(self.sections.len());
        let mut offsets = Vec::with_capacity(self.sections.len());
        let mut cursor = table_end;
        for (_, payload) in &self.sections {
            cursor = align_up(cursor, SECTION_ALIGN);
            offsets.push(cursor);
            cursor += payload.byte_len();
        }
        let file_len = cursor;

        let file = File::create(tmp)?;
        let mut out = HashingWriter::new(io::BufWriter::new(file));

        // Header. The checksum field is written as a placeholder and patched
        // after the pass; it is the only region excluded from the hash.
        out.write_hashed(&SNAPSHOT_MAGIC)?;
        out.write_hashed(&SNAPSHOT_VERSION.to_le_bytes())?;
        out.write_hashed(&ENDIAN_MARKER.to_le_bytes())?;
        out.write_hashed(&file_len.to_le_bytes())?;
        out.write_raw(&0u64.to_le_bytes())?;
        let section_count = usize_to_u32(self.sections.len())
            .ok_or_else(|| corrupt("more than u32::MAX sections"))?;
        out.write_hashed(&section_count.to_le_bytes())?;
        out.write_hashed(&[0u8; 28])?;

        // Section table.
        for ((id, payload), offset) in self.sections.iter().zip(&offsets) {
            out.write_hashed(&id.to_le_bytes())?;
            let elem_size = crate::cast::u64_to_u32(payload.elem_size())
                .ok_or_else(|| corrupt("element size overflows"))?;
            out.write_hashed(&elem_size.to_le_bytes())?;
            out.write_hashed(&offset.to_le_bytes())?;
            out.write_hashed(&payload.byte_len().to_le_bytes())?;
            out.write_hashed(&payload.count().to_le_bytes())?;
        }

        // Payloads, zero-padded to their aligned offsets.
        let mut written = table_end;
        for ((_, payload), offset) in self.sections.iter().zip(&offsets) {
            let pad = u64_to_usize(offset - written)
                .ok_or_else(|| corrupt("section padding exceeds the address space"))?;
            out.write_hashed(&vec![0u8; pad])?;
            payload.write_le(&mut out)?;
            written = offset + payload.byte_len();
        }

        let checksum = out.hash.finish();
        let mut file = out
            .inner
            .into_inner()
            .map_err(|err| SnapshotError::Io(err.into_error()))?;
        file.seek(SeekFrom::Start(24))?;
        file.write_all(&checksum.to_le_bytes())?;
        file.sync_all()?;
        Ok(file_len)
    }
}

fn align_up(value: u64, align: u64) -> u64 {
    value.div_ceil(align) * align
}

// ---------------------------------------------------------------------------
// Image bytes: mmap on unix, aligned read everywhere
// ---------------------------------------------------------------------------

/// A read-only `mmap` of a whole file (64-bit unix only: the extern
/// declaration hardcodes a 64-bit `off_t`, which matches the C ABI only
/// there; 32-bit targets use the read fallback). Unmapped on drop.
#[cfg(all(unix, target_pointer_width = "64", not(miri)))]
mod mapping {
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    use core::ffi::c_void;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// A page-aligned read-only view of a file, courtesy of the kernel.
    #[derive(Debug)]
    pub struct MmapRegion {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ/MAP_PRIVATE — immutable shared
    // memory, valid until munmap in Drop.
    unsafe impl Send for MmapRegion {}
    unsafe impl Sync for MmapRegion {}

    impl MmapRegion {
        /// Maps `len` bytes of `file` read-only. An empty file fails to
        /// map (`EINVAL`); the caller then reads it instead.
        pub fn map(file: &File, len: usize) -> io::Result<Self> {
            // SAFETY: plain read-only mapping of an open fd; failure is
            // reported as MAP_FAILED (-1) and turned into an io::Error.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.addr() == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { ptr, len })
        }

        /// The mapped bytes.
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: ptr/len come from a successful mmap that lives until
            // Drop; the mapping is never written.
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            // SAFETY: exact ptr/len pair returned by mmap.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// Fallback storage: the whole file read into one 8-byte-aligned buffer
/// (`Vec<u64>` backing), so typed section access works exactly as it does
/// on a mapping.
#[derive(Debug)]
struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    fn read(file: &mut File, len: usize) -> io::Result<Self> {
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the Vec<u64> allocation is valid for `len` bytes
        // (len <= words.len() * 8) and u8 has no validity requirements.
        let buf = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) };
        file.read_exact(buf)?;
        Ok(Self { words, len })
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: as in `read`; every byte was initialized (zeroed, then
        // overwritten by read_exact).
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

#[derive(Debug)]
enum ImageBytes {
    #[cfg(all(unix, target_pointer_width = "64", not(miri)))]
    Mapped(mapping::MmapRegion),
    Owned(AlignedBytes),
}

impl ImageBytes {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, target_pointer_width = "64", not(miri)))]
            ImageBytes::Mapped(region) => region.bytes(),
            ImageBytes::Owned(buffer) => buffer.bytes(),
        }
    }
}

// ---------------------------------------------------------------------------
// Image
// ---------------------------------------------------------------------------

/// One entry of the section table, as validated at open time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section identifier (see [`section_id`]).
    pub id: u32,
    /// Bytes per element: 1, 4, or 8.
    pub elem_size: u32,
    /// Byte offset of the payload from the start of the file (64-aligned).
    pub offset: u64,
    /// Exact payload length in bytes (`count * elem_size`).
    pub byte_len: u64,
    /// Number of elements.
    pub count: u64,
}

/// An opened, validated snapshot file: the byte image (mapped or read) plus
/// its parsed section table.
///
/// Opening runs the [`verify`] layer's container pass — magic, version,
/// endianness, recorded file length, full-file checksum, and every table
/// entry (bounds, alignment, element size, id uniqueness, overlap) —
/// before any data is handed out, so a snapshot that opens successfully
/// cannot carry a single flipped bit. Typed accessors then reinterpret
/// payloads in place; the crate-internal `shared_*` family wraps them as
/// [`SharedSlice`]s that keep the image alive via `Arc`.
#[derive(Debug)]
pub struct SnapshotImage {
    bytes: ImageBytes,
    sections: Vec<SectionEntry>,
    version: u32,
}

impl SnapshotImage {
    /// Opens a snapshot file and validates its container — header,
    /// full-file checksum, section table — with the [`verify`] layer's
    /// container pass. On unix the file is `mmap`ed (zero-copy); elsewhere,
    /// or when mapping fails, it is read into one aligned buffer.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let path = path.as_ref();
        #[cfg(target_endian = "big")]
        {
            return Err(SnapshotError::Unsupported(
                "snapshot images are little-endian; this host is big-endian".to_owned(),
            ));
        }
        #[cfg(not(target_endian = "big"))]
        {
            let mut file = File::open(path)?;
            let Some(len) = u64_to_usize(file.metadata()?.len()) else {
                return Err(SnapshotError::Unsupported(
                    "file does not fit in this platform's address space".to_owned(),
                ));
            };

            #[cfg(all(unix, target_pointer_width = "64", not(miri)))]
            let bytes = match mapping::MmapRegion::map(&file, len) {
                Ok(region) => ImageBytes::Mapped(region),
                Err(_) => ImageBytes::Owned(AlignedBytes::read(&mut file, len)?),
            };
            #[cfg(not(all(unix, target_pointer_width = "64", not(miri))))]
            let bytes = ImageBytes::Owned(AlignedBytes::read(&mut file, len)?);

            let (sections, version) = verify::read_container(bytes.bytes())?;
            Ok(Self {
                bytes,
                sections,
                version,
            })
        }
    }

    /// The format version stamped into the header (always
    /// [`SNAPSHOT_VERSION`] for an image that opened).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The FNV-1a 64 checksum recorded in the header and verified at open
    /// time. Because the image is immutable while mapped, this value is a
    /// stable identity for the corpus bytes — downstream layers (the serve
    /// result cache, `/stats`) reuse it instead of re-hashing the file.
    pub fn checksum(&self) -> u64 {
        read_u64(self.bytes.bytes(), 24)
    }

    /// The validated section table, in file order.
    pub fn sections(&self) -> &[SectionEntry] {
        &self.sections
    }

    /// Looks up a section by id.
    pub fn section(&self, id: u32) -> Option<&SectionEntry> {
        self.sections.iter().find(|entry| entry.id == id)
    }

    fn require(&self, id: u32) -> Result<&SectionEntry, SnapshotError> {
        self.section(id)
            .ok_or_else(|| corrupt(format!("missing section {id} ({})", section_id::name(id))))
    }

    /// Total size of the image in bytes.
    pub fn len_bytes(&self) -> usize {
        self.bytes.bytes().len()
    }

    /// `true` when the image is an `mmap` rather than an in-memory copy.
    pub fn is_mapped(&self) -> bool {
        #[cfg(all(unix, target_pointer_width = "64", not(miri)))]
        {
            matches!(self.bytes, ImageBytes::Mapped(_))
        }
        #[cfg(not(all(unix, target_pointer_width = "64", not(miri))))]
        {
            false
        }
    }

    /// The raw bytes of section `id`.
    pub fn section_bytes(&self, id: u32) -> Result<&[u8], SnapshotError> {
        let entry = self.require(id)?;
        let (Some(start), Some(len)) = (u64_to_usize(entry.offset), u64_to_usize(entry.byte_len))
        else {
            return Err(corrupt(format!(
                "section {id} does not fit in this platform's address space"
            )));
        };
        Ok(&self.bytes.bytes()[start..start + len])
    }

    /// Reinterprets section `id` as `&[T]` in place. `T` is one of the wire
    /// element types (u32/u64); bounds were validated at open, element size
    /// and alignment are rechecked here.
    fn typed<T: Copy>(&self, id: u32) -> Result<&[T], SnapshotError> {
        let entry = self.require(id)?;
        let size = std::mem::size_of::<T>();
        if u32_to_usize(entry.elem_size) != size {
            return Err(corrupt(format!(
                "section {id} ({}) holds {}-byte elements, expected {size}",
                section_id::name(id),
                entry.elem_size
            )));
        }
        let bytes = self.section_bytes(id)?;
        let ptr = bytes.as_ptr();
        if ptr.align_offset(std::mem::align_of::<T>()) != 0 {
            return Err(corrupt(format!(
                "section {id} payload is not aligned for {size}-byte elements"
            )));
        }
        let count = u64_to_usize(entry.count)
            .ok_or_else(|| corrupt(format!("section {id} count overflows usize")))?;
        // SAFETY: bounds validated at open, alignment just checked, u32/u64
        // accept every bit pattern, and the image is immutable while alive.
        Ok(unsafe { std::slice::from_raw_parts(ptr.cast::<T>(), count) })
    }

    /// Section `id` as a borrowed `&[u16]` (a narrow event arena).
    pub fn u16s(&self, id: u32) -> Result<&[u16], SnapshotError> {
        self.typed::<u16>(id)
    }

    /// Section `id` as a borrowed `&[u32]`.
    pub fn u32s(&self, id: u32) -> Result<&[u32], SnapshotError> {
        self.typed::<u32>(id)
    }

    /// Section `id` as a borrowed `&[u64]`.
    pub fn u64s(&self, id: u32) -> Result<&[u64], SnapshotError> {
        self.typed::<u64>(id)
    }

    /// Section `id` as a zero-copy [`SharedSlice<u16>`] that co-owns this
    /// image (a narrow event arena).
    pub(crate) fn shared_u16s(
        self: &Arc<Self>,
        id: u32,
    ) -> Result<SharedSlice<u16>, SnapshotError> {
        let slice = self.u16s(id)?;
        let (ptr, len) = (slice.as_ptr(), slice.len());
        let owner: Arc<dyn Any + Send + Sync> = self.clone();
        // SAFETY: ptr/len were validated by `typed`; the SharedSlice holds
        // the Arc, so the mapping outlives every reader.
        Ok(unsafe { SharedSlice::from_raw_parts(owner, ptr, len) })
    }

    /// Section `id` as a zero-copy [`SharedSlice<u32>`] that co-owns this
    /// image.
    pub(crate) fn shared_u32s(
        self: &Arc<Self>,
        id: u32,
    ) -> Result<SharedSlice<u32>, SnapshotError> {
        let slice = self.u32s(id)?;
        let (ptr, len) = (slice.as_ptr(), slice.len());
        let owner: Arc<dyn Any + Send + Sync> = self.clone();
        // SAFETY: ptr/len were validated by `typed`; the SharedSlice holds
        // the Arc, so the mapping outlives every reader.
        Ok(unsafe { SharedSlice::from_raw_parts(owner, ptr, len) })
    }

    /// Section `id` as a zero-copy [`SharedSlice<EventId>`] (the wire format
    /// stores raw `u32` ids; `EventId` is `repr(transparent)` over `u32`).
    pub(crate) fn shared_event_ids(
        self: &Arc<Self>,
        id: u32,
    ) -> Result<SharedSlice<EventId>, SnapshotError> {
        let slice = self.u32s(id)?;
        let (ptr, len) = (slice.as_ptr().cast::<EventId>(), slice.len());
        let owner: Arc<dyn Any + Send + Sync> = self.clone();
        // SAFETY: as in `shared_u32s`, plus EventId is repr(transparent)
        // over u32, so the cast preserves layout and validity.
        Ok(unsafe { SharedSlice::from_raw_parts(owner, ptr, len) })
    }
}

fn read_u64(data: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(data[offset..offset + 8].try_into().expect("8 bytes"))
}

// ---------------------------------------------------------------------------
// The prepared-database layout (format v7)
// ---------------------------------------------------------------------------

/// A prepared database read back from a format v7 image by
/// [`open_prepared`]: the store's columns are zero-copy [`SharedSlice`]s
/// over the image (the catalog is copied out — labels want owned strings),
/// and the index is built from that store.
#[derive(Debug)]
pub struct PreparedImage {
    /// The catalog and the sequence store.
    pub database: SequenceDatabase,
    /// The event-major inverted index over the whole corpus, built at open.
    pub index: InvertedIndex,
    /// The full-file checksum recorded in the header.
    pub checksum: u64,
    /// The format version recorded in the header.
    pub version: u32,
}

/// Writes a database to `path` as a format v7 image — `meta`, the store's
/// events and offsets, and the catalog — and returns the bytes written.
///
/// The event arena is written **narrowest-fit**: a narrow column as-is, a
/// wide column whose ids all fit `u16` re-narrowed, and only a genuinely
/// large alphabet at 4 bytes per event.
pub fn write_prepared(path: impl AsRef<Path>, db: &SequenceDatabase) -> Result<u64, SnapshotError> {
    let meta = [db.num_sequences(), db.num_events(), db.total_length()].map(usize_to_u64);
    let catalog_bytes = catalog_to_bytes(db.catalog());
    let column = db.store().event_column();
    let renarrowed: Option<Vec<u16>> = if column.is_narrow() {
        None
    } else {
        column.iter().map(u16::from_event).collect()
    };
    let events = match renarrowed.as_deref().or_else(|| column.narrow_slice()) {
        Some(narrow) => SectionPayload::U16s(narrow),
        None => SectionPayload::EventIds(column.wide_slice().unwrap_or(&[])),
    };

    let mut writer = SnapshotWriter::new();
    writer
        .section(section_id::META, SectionPayload::U64s(&meta))
        .section(section_id::STORE_EVENTS, events)
        .section(
            section_id::STORE_OFFSETS,
            SectionPayload::U32s(db.store().offsets()),
        )
        .section(section_id::CATALOG, SectionPayload::Bytes(&catalog_bytes));
    writer.write_to_path(path)
}

/// Opens a format v7 image written by [`write_prepared`].
///
/// [`SnapshotImage::open`] maps the file and checks its container; the
/// [`verify`] layer's layout pass then checks every cross-section
/// invariant on the mapped bytes. Only then is the store mapped and the
/// index built from it by [`InvertedIndex::build_for_store`], the builder
/// an in-memory preparation uses. The first violation found is
/// [`SnapshotError::Corrupt`]; an image of an older format is
/// [`SnapshotError::Unsupported`], naming `rgs-mine snapshot build`.
pub fn open_prepared(path: impl AsRef<Path>) -> Result<PreparedImage, SnapshotError> {
    let image = Arc::new(SnapshotImage::open(path)?);
    verify::check_layout(image.bytes.bytes(), &image.sections)?;

    let catalog = catalog_from_bytes(image.section_bytes(section_id::CATALOG)?)?;
    // The recorded element size is the width tag: 2 maps back narrow.
    let narrow = image
        .section(section_id::STORE_EVENTS)
        .is_some_and(|entry| entry.elem_size == 2);
    let events = if narrow {
        EventColumn::Narrow(image.shared_u16s(section_id::STORE_EVENTS)?)
    } else {
        EventColumn::Wide(image.shared_event_ids(section_id::STORE_EVENTS)?)
    };
    let store = SeqStore::from_shared_parts(events, image.shared_u32s(section_id::STORE_OFFSETS)?);
    let index = InvertedIndex::build_for_store(&store, catalog.len());
    Ok(PreparedImage {
        database: SequenceDatabase::from_store(catalog, store),
        index,
        checksum: image.checksum(),
        version: image.version(),
    })
}

// ---------------------------------------------------------------------------
// Catalog codec
// ---------------------------------------------------------------------------

/// Serializes an [`EventCatalog`] for the [`section_id::CATALOG`] section:
/// a `u32` label count followed by, per label in id order, a `u32` byte
/// length and the UTF-8 bytes. Labels are owned data either way — unlike
/// the arenas, the catalog is copied out of the image on open (it is tiny
/// next to the event data, and the id→label vector plus the label→id map
/// want owned strings anyway).
pub fn catalog_to_bytes(catalog: &EventCatalog) -> Vec<u8> {
    let mut out = Vec::new();
    let count = usize_to_u32(catalog.len()).expect("catalog label count fits u32");
    out.extend_from_slice(&count.to_le_bytes());
    for (_, label) in catalog.iter() {
        let len = usize_to_u32(label.len()).expect("catalog label length fits u32");
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(label.as_bytes());
    }
    out
}

/// Deserializes the [`section_id::CATALOG`] section of an image whose
/// layout [`verify`] has passed: the verifier proves the labels complete,
/// valid UTF-8 and distinct, with no trailing bytes, so decoding checks
/// none of that again. Its reads stay bounds-checked, so bytes that were
/// not verified come back [`SnapshotError::Corrupt`] rather than panicking.
pub(crate) fn catalog_from_bytes(bytes: &[u8]) -> Result<EventCatalog, SnapshotError> {
    let truncated = || corrupt("catalog section is truncated");
    let count = verify::u32_at(bytes, 0).ok_or_else(truncated)?;
    let mut cursor = 4usize;
    let mut catalog = EventCatalog::new();
    for _ in 0..count {
        let len = u32_to_usize(verify::u32_at(bytes, cursor).ok_or_else(truncated)?);
        cursor += 4;
        let label = bytes
            .get(cursor..cursor.saturating_add(len))
            .ok_or_else(truncated)?;
        let label =
            std::str::from_utf8(label).map_err(|_| corrupt("catalog label is not valid UTF-8"))?;
        catalog.intern(label);
        cursor += len;
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("seqdb-snapshot-{}-{tag}.bin", std::process::id()))
    }

    fn sample_file(tag: &str) -> std::path::PathBuf {
        let path = temp_path(tag);
        let mut writer = SnapshotWriter::new();
        let words = [1u64, 2, 3];
        writer.section(section_id::META, SectionPayload::U64s(&words));
        writer.section(7, SectionPayload::U32s(&[10, 20, 30, 40]));
        writer.section(9, SectionPayload::Bytes(b"hello"));
        writer.section(11, SectionPayload::EventIds(&[EventId(5), EventId(6)]));
        writer.write_to_path(&path).expect("write snapshot");
        path
    }

    #[test]
    fn round_trip_preserves_every_section() {
        let path = sample_file("roundtrip");
        let image = Arc::new(SnapshotImage::open(&path).expect("open"));
        assert_eq!(image.sections().len(), 4);
        assert_eq!(image.u64s(section_id::META).unwrap(), &[1, 2, 3]);
        assert_eq!(image.u32s(7).unwrap(), &[10, 20, 30, 40]);
        assert_eq!(image.section_bytes(9).unwrap(), b"hello");
        let ids = image.shared_event_ids(11).unwrap();
        assert_eq!(&ids[..], &[EventId(5), EventId(6)]);
        let shared = image.shared_u32s(7).unwrap();
        assert!(shared.is_mapped());
        assert_eq!(&shared[..], &[10, 20, 30, 40]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn u16_sections_round_trip_zero_copy() {
        let path = temp_path("u16");
        let narrow = [7u16, 0, 65_535, 42];
        let mut writer = SnapshotWriter::new();
        writer.section(section_id::STORE_EVENTS, SectionPayload::U16s(&narrow));
        writer.write_to_path(&path).expect("write snapshot");

        let image = Arc::new(SnapshotImage::open(&path).expect("open"));
        let entry = image.section(section_id::STORE_EVENTS).unwrap();
        assert_eq!(entry.elem_size, 2);
        assert_eq!(entry.byte_len, 8);
        assert_eq!(image.u16s(section_id::STORE_EVENTS).unwrap(), &narrow);
        let shared = image.shared_u16s(section_id::STORE_EVENTS).unwrap();
        assert!(shared.is_mapped());
        assert_eq!(&shared[..], &narrow);
        // A u16 section is not a u32 section.
        assert!(image.u32s(section_id::STORE_EVENTS).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_slices_keep_the_image_alive() {
        let path = sample_file("keepalive");
        let shared = {
            let image = Arc::new(SnapshotImage::open(&path).expect("open"));
            image.shared_u32s(7).unwrap()
        };
        // The Arc<SnapshotImage> went out of scope; the slice still reads.
        assert_eq!(&shared[..], &[10, 20, 30, 40]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_offsets_are_aligned() {
        let path = sample_file("aligned");
        let image = SnapshotImage::open(&path).expect("open");
        for entry in image.sections() {
            assert_eq!(entry.offset % SECTION_ALIGN, 0, "{entry:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_and_mistyped_sections_error() {
        let path = sample_file("missing");
        let image = SnapshotImage::open(&path).expect("open");
        assert!(matches!(image.u32s(99), Err(SnapshotError::Corrupt(_))));
        // Section 7 holds u32s; asking for u64s must fail loudly.
        assert!(matches!(image.u64s(7), Err(SnapshotError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    /// Writes a prepared image of `rows`, rewrites its catalog section with
    /// `forge`, reseals the checksum, and returns the image's bytes.
    fn forged_catalog_image(tag: &str, rows: &[&str], forge: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let db = crate::SequenceDatabase::from_str_rows(rows);
        let path = temp_path(tag);
        write_prepared(&path, &db).expect("write");
        let (at, len) = SnapshotImage::open(&path)
            .expect("open image")
            .section(section_id::CATALOG)
            .map(|entry| (entry.offset, entry.byte_len))
            .expect("catalog section");
        let at = u64_to_usize(at).expect("offset fits");
        let len = u64_to_usize(len).expect("length fits");
        let mut bytes = std::fs::read(&path).expect("read back");
        forge(&mut bytes[at..at + len]);
        let checksum = checksum_of(&bytes);
        bytes[24..32].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");
        let opened = open_prepared(&path);
        std::fs::remove_file(&path).ok();
        let Err(err) = opened else {
            panic!("{tag}: a forged catalog opens");
        };
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{tag}: {err}");
        bytes
    }

    #[test]
    fn catalog_codec_round_trips_and_rejects_garbage() {
        let catalog = EventCatalog::from_labels(["lock", "unlock", "naïve-label"]);
        let back = catalog_from_bytes(&catalog_to_bytes(&catalog)).expect("round trip");
        assert_eq!(back, catalog);

        // The catalog of `["AB", "BA"]` is: count 2, then (1, "A"), (1, "B").
        let rows = ["AB", "BA"];
        let set_u32 = |section: &mut [u8], at: usize, value: u32| {
            section[at..at + 4].copy_from_slice(&value.to_le_bytes());
        };
        // Label 0 claims more bytes than the section holds.
        let truncated = forged_catalog_image("cat-truncated", &rows, |c| set_u32(c, 4, 1000));
        // Label 1 claims no bytes, leaving its one byte trailing.
        let trailing = forged_catalog_image("cat-trailing", &rows, |c| set_u32(c, 9, 0));
        // Label 1 becomes a byte that is not UTF-8.
        let not_utf8 = forged_catalog_image("cat-utf8", &rows, |c| c[13] = 0xff);
        // Label 1 becomes "A", which would renumber every event.
        let duplicate = forged_catalog_image("cat-dup", &rows, |c| c[13] = b'A');
        for bytes in [truncated, trailing, not_utf8, duplicate] {
            assert!(!verify::verify_bytes(&bytes).is_clean());
        }
    }

    #[test]
    fn prepared_layout_round_trips_and_refuses_what_verify_flags() {
        let db = crate::SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD", "AEEA"]);
        let path = temp_path("prepared");
        write_prepared(&path, &db).expect("write");
        let image = open_prepared(&path).expect("open");
        assert_eq!(image.database, db);
        assert_eq!(image.index, db.inverted_index());
        assert!(image.database.store().is_narrow());
        let sections: Vec<u32> = SnapshotImage::open(&path)
            .expect("open image")
            .sections()
            .iter()
            .map(|entry| entry.id)
            .collect();
        assert_eq!(
            sections,
            [
                section_id::META,
                section_id::STORE_EVENTS,
                section_id::STORE_OFFSETS,
                section_id::CATALOG
            ]
        );

        // The first arena event set to `num_events` (one past the
        // alphabet) and the checksum resealed: the header, table and
        // sections stay well-formed, only the arena leaves the alphabet.
        let mut bytes = std::fs::read(&path).expect("read back");
        let at = SnapshotImage::open(&path)
            .expect("open image")
            .section(section_id::STORE_EVENTS)
            .map(|entry| u64_to_usize(entry.offset).expect("offset fits"))
            .expect("events section");
        let past = u16::try_from(db.num_events()).expect("a narrow alphabet");
        bytes[at..at + 2].copy_from_slice(&past.to_le_bytes());
        let checksum = checksum_of(&bytes);
        bytes[24..32].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(!verify::verify_bytes(&bytes).is_clean());
        let err = open_prepared(&path).expect_err("an event outside the alphabet opens");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("store.events"), "{err}");
    }

    #[test]
    fn empty_writer_produces_a_valid_header_only_image() {
        let path = temp_path("empty");
        SnapshotWriter::new().write_to_path(&path).expect("write");
        let image = SnapshotImage::open(&path).expect("open");
        assert!(image.sections().is_empty());
        assert_eq!(image.len_bytes(), 64);
        std::fs::remove_file(&path).ok();
    }
}
