//! The single-file snapshot image: a versioned, little-endian, fixed-layout
//! on-disk format for the corpus, opened with zero copies.
//!
//! An image holds the corpus, not what is derived from it: the
//! [`crate::SeqStore`] CSR offsets and event arena, and the catalog. This
//! module serializes those arrays into **one file** and maps the store back
//! as borrowed slices, so a cold start is an `mmap`, one checksum scan and
//! one build of the event-major [`crate::InvertedIndex`] instead of
//! re-tokenizing the corpus. The index, the per-event counts and the
//! candidate order are derived at open by the same code that derives them
//! for a corpus built in memory, so there is nothing stored to cross-check
//! against the store. `ARCHITECTURE.md` at the repository root walks the
//! format byte by byte.
//!
//! # File layout (version 8)
//!
//! A 64-byte [`Header`], then three regions back to back. No offset is
//! stored: [`Header::regions`] computes every region's bounds from the
//! header's counts, and it is the one place the writer, the [`verify`]
//! layer, the opener and `rgs-mine snapshot info` learn them.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic  "RGS1SNAP"
//!      8     4  format version (u32 LE) = 8
//!     12     4  endianness marker (u32 LE) = 0x0A0B_0C0D
//!     16     8  file length in bytes (u64 LE)
//!     24     8  FNV-1a 64 checksum (u64 LE) of every file byte EXCEPT
//!               this field itself (bytes [0, 24) and [32, file_len))
//!     32     8  num_sequences (u64 LE)
//!     40     8  num_events: the catalog's alphabet size (u64 LE)
//!     48     8  total_length: events in the arena (u64 LE)
//!     56     4  event width in bytes (u32 LE): 2 (u16) or 4 (u32)
//!     60     4  reserved, must be zero
//!     64     -  store.offsets: (num_sequences + 1) u32 CSR offsets
//!      -     -  store.events: total_length events of `width` bytes
//!      -     -  catalog: num_events labels, each a u32 byte length and
//!               the UTF-8 bytes, running exactly to the end of the file
//! ```
//!
//! All integers are little-endian. Both store columns start 4-byte
//! aligned (the header is 64 bytes and the offsets are `u32`s), so a
//! page-aligned `mmap` or the 8-byte-aligned read fallback maps them in
//! place without copying. The width field is the arena's width tag: a
//! narrow (`u16`) arena maps back narrow. The checksum makes corruption
//! detection exhaustive: any single bit flip anywhere in the file is
//! rejected with a descriptive [`SnapshotError`] (pinned by
//! `tests/snapshot_corruption.rs`). This build reads version 8 only: an
//! older image is [`SnapshotError::Unsupported`] and is rebuilt in
//! milliseconds with `rgs-mine snapshot build`.
//!
//! One module writes, checks and reads the layout: [`write_prepared`]
//! writes it, the [`verify`] layer states every invariant it must uphold,
//! and [`open_prepared`] runs that verifier on the mapped bytes before it
//! maps the store and builds the index with
//! [`InvertedIndex::build_for_store`](crate::InvertedIndex::build_for_store).
//! The store's mapped-column constructor is crate-internal, so nothing
//! outside this module builds a store from image bytes. `rgs-core`'s
//! `PreparedDb::write_snapshot` / `open_snapshot` wrap the two calls.

// Offsets and lengths convert through `crate::cast` or `TryFrom`: an `as`
// cast can truncate or wrap without a trace.
#![warn(clippy::as_conversions)]
#![allow(
    unsafe_code,
    reason = "mmap, the aligned read buffer and in-place slice reinterpretation \
              need `unsafe`; every region is verified against the header first"
)]

use std::any::Any;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
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
/// Version 8 is a fixed layout: a header holding the counts, then the
/// store and the catalog at offsets computed from them.
pub const SNAPSHOT_VERSION: u32 = 8;

/// Why an image stamped `version` cannot be read, or `None` when it can.
/// Stated once, in the [`verify`] layer's header checks.
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

/// Value of the endianness marker field when read on a matching host.
const ENDIAN_MARKER: u32 = 0x0A0B_0C0D;

/// Byte length of the fixed header, where the first region starts.
const HEADER_LEN: u64 = 64;

/// Why a snapshot could not be written or opened.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying filesystem error.
    Io(io::Error),
    /// The file is not a valid snapshot: bad magic, failed checksum,
    /// truncation, header counts the file cannot hold, or region content
    /// that breaks an invariant of the layout.
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

/// Images are little-endian and their columns are mapped in place, so a
/// big-endian host neither writes nor opens them.
fn require_little_endian() -> Result<(), SnapshotError> {
    if cfg!(target_endian = "big") {
        return Err(SnapshotError::Unsupported(
            "snapshot images are little-endian; this host is big-endian".to_owned(),
        ));
    }
    Ok(())
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
// Header and regions
// ---------------------------------------------------------------------------

/// The 64-byte header of an image, field by field (see the module docs for
/// the byte layout). Decoding checks nothing; the [`verify`] layer states
/// which values an image may hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Bytes 0..8: [`SNAPSHOT_MAGIC`].
    pub magic: [u8; 8],
    /// Bytes 8..12: the format version.
    pub version: u32,
    /// Bytes 12..16: the endianness marker, `0x0A0B_0C0D` when it matches.
    pub endian: u32,
    /// Bytes 16..24: the file length in bytes.
    pub file_len: u64,
    /// Bytes 24..32: the FNV-1a 64 checksum, as [`checksum_of`] computes it.
    pub checksum: u64,
    /// Bytes 32..40: the number of sequences.
    pub num_sequences: u64,
    /// Bytes 40..48: the number of events in the catalog.
    pub num_events: u64,
    /// Bytes 48..56: the number of events in the arena.
    pub total_length: u64,
    /// Bytes 56..60: bytes per arena event, 2 (narrow) or 4 (wide).
    pub width: u32,
    /// Bytes 60..64: zero.
    pub reserved: u32,
}

/// The byte ranges of an image's three regions, from [`Header::regions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regions {
    /// The store's CSR offsets: `num_sequences + 1` `u32`s from byte 64.
    pub offsets: Range<u64>,
    /// The store's event arena: `total_length` events of `width` bytes.
    pub events: Range<u64>,
    /// The catalog's length-prefixed labels, up to the end of the file.
    pub catalog: Range<u64>,
}

impl Header {
    /// The header fields at the start of `data`, or `None` when `data` is
    /// shorter than the header.
    pub fn decode(data: &[u8]) -> Option<Header> {
        let u32_at = |at| verify::u32_at(data, at).unwrap_or(0);
        let u64_at = |at| verify::u64_at(data, at).unwrap_or(0);
        Some(Header {
            magic: data.get(..8)?.try_into().ok()?,
            version: u32_at(8),
            endian: u32_at(12),
            file_len: u64_at(16),
            checksum: u64_at(24),
            num_sequences: u64_at(32),
            num_events: u64_at(40),
            total_length: u64_at(48),
            width: u32_at(56),
            reserved: verify::u32_at(data, 60)?,
        })
    }

    /// The header's 64 bytes, as [`Header::decode`] reads them back.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.magic);
        for word in [self.version, self.endian] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for word in [
            self.file_len,
            self.checksum,
            self.num_sequences,
            self.num_events,
            self.total_length,
        ] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for word in [self.width, self.reserved] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Where the three regions lie: the offsets from byte 64, the arena
    /// right after them, and the catalog from there to `file_len`. `None`
    /// when a size overflows `u64` or the offsets and the arena end past
    /// `file_len`, so no count can direct a read outside the file.
    pub fn regions(&self) -> Option<Regions> {
        let offsets_end = self
            .num_sequences
            .checked_add(1)?
            .checked_mul(4)?
            .checked_add(HEADER_LEN)?;
        let events_end = self
            .total_length
            .checked_mul(u64::from(self.width))?
            .checked_add(offsets_end)?;
        (events_end <= self.file_len).then_some(Regions {
            offsets: HEADER_LEN..offsets_end,
            events: offsets_end..events_end,
            catalog: events_end..self.file_len,
        })
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The element types a region holds: plain integers (or a transparent
/// wrapper of one) with no padding, for which every bit pattern is a value
/// and whose in-memory bytes on a little-endian host are the wire format.
trait Plain: Copy + Send + Sync + 'static {}
impl Plain for u16 {}
impl Plain for u32 {}
impl Plain for EventId {}

/// The in-memory bytes of `values`: on a little-endian host, the wire
/// format.
fn as_bytes<T: Plain>(values: &[T]) -> &[u8] {
    // SAFETY: a `Plain` type has no padding, so every byte of the slice is
    // initialized, and `u8` needs no alignment.
    unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    }
}

/// Writes a database to `path` as a format 8 image — the header, the
/// store's offsets and events, and the catalog — and returns the bytes
/// written.
///
/// The event arena is written **narrowest-fit**: a narrow column as-is, a
/// wide column whose ids all fit `u16` re-narrowed, and only a genuinely
/// large alphabet at 4 bytes per event.
///
/// The write is **atomic**: everything goes to a temporary file in the
/// destination's directory, synced, and then renamed over `path`. A crash
/// or full disk mid-write therefore never destroys a previous good image —
/// and because the old inode stays alive until unmapped, it is safe to
/// rebuild a snapshot onto its own source file while its store still
/// borrows the mapping.
pub fn write_prepared(path: impl AsRef<Path>, db: &SequenceDatabase) -> Result<u64, SnapshotError> {
    require_little_endian()?;
    let catalog = catalog_to_bytes(db.catalog());
    let column = db.store().event_column();
    let renarrowed: Option<Vec<u16>> = if column.is_narrow() {
        None
    } else {
        column.iter().map(u16::from_event).collect()
    };
    let (width, events) = match renarrowed.as_deref().or_else(|| column.narrow_slice()) {
        Some(narrow) => (2, as_bytes(narrow)),
        None => (
            4,
            as_bytes(event_ids_as_u32s(column.wide_slice().unwrap_or(&[]))),
        ),
    };
    let mut header = Header {
        magic: SNAPSHOT_MAGIC,
        version: SNAPSHOT_VERSION,
        endian: ENDIAN_MARKER,
        // The catalog runs to the end of the file: locate it in an
        // unbounded file, then end the file where the catalog does.
        file_len: u64::MAX,
        checksum: 0,
        num_sequences: usize_to_u64(db.num_sequences()),
        num_events: usize_to_u64(db.num_events()),
        total_length: usize_to_u64(db.total_length()),
        width,
        reserved: 0,
    };
    header.file_len = header
        .regions()
        .and_then(|regions| {
            regions
                .catalog
                .start
                .checked_add(usize_to_u64(catalog.len()))
        })
        .ok_or_else(|| corrupt("the database is too large for a snapshot image"))?;
    let regions = [as_bytes(db.store().offsets()), events, &catalog];

    // The checksum field is the one part of the file the hash skips, so it
    // is computed before anything is written.
    let mut hash = Fnv1a::new();
    let head = header.encode();
    hash.update(&head[..24]);
    hash.update(&head[32..]);
    for region in regions {
        hash.update(region);
    }
    header.checksum = hash.finish();

    // pid + process-wide counter: concurrent writers to the same
    // destination (even from different threads) get distinct temp files,
    // so the last rename wins with a complete image.
    static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let [offsets, events, catalog] = regions;
    let written = write_file(&tmp, &[&header.encode(), offsets, events, catalog])
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written?;
    Ok(header.file_len)
}

/// Writes `parts` back to back to a new file at `path` and syncs it.
fn write_file(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let mut file = File::create(path)?;
    for part in parts {
        file.write_all(part)?;
    }
    file.sync_all()
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
    // SAFETY: as for `Send`: no one writes through the read-only mapping,
    // so shared references from many threads only ever read.
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
/// (`Vec<u64>` backing), so the store columns map in place exactly as they
/// do on a mapping.
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

/// An image file's bytes: mapped, or read into one aligned buffer.
#[derive(Debug)]
enum ImageBytes {
    #[cfg(all(unix, target_pointer_width = "64", not(miri)))]
    Mapped(mapping::MmapRegion),
    Owned(AlignedBytes),
}

impl ImageBytes {
    /// Maps the file at `path` (64-bit unix); elsewhere, or when mapping
    /// fails, reads it into one aligned buffer.
    fn open(path: &Path) -> Result<Self, SnapshotError> {
        require_little_endian()?;
        let mut file = File::open(path)?;
        let Some(len) = u64_to_usize(file.metadata()?.len()) else {
            return Err(SnapshotError::Unsupported(
                "file does not fit in this platform's address space".to_owned(),
            ));
        };
        #[cfg(all(unix, target_pointer_width = "64", not(miri)))]
        if let Ok(region) = mapping::MmapRegion::map(&file, len) {
            return Ok(ImageBytes::Mapped(region));
        }
        Ok(ImageBytes::Owned(AlignedBytes::read(&mut file, len)?))
    }

    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, target_pointer_width = "64", not(miri)))]
            ImageBytes::Mapped(region) => region.bytes(),
            ImageBytes::Owned(buffer) => buffer.bytes(),
        }
    }

    /// The bytes of `range`, when it lies inside the image.
    fn region(&self, range: &Range<u64>) -> Option<&[u8]> {
        let start = u64_to_usize(range.start)?;
        self.bytes().get(start..u64_to_usize(range.end)?)
    }

    /// Region `range` as a zero-copy [`SharedSlice`] that co-owns the image.
    fn shared<T: Plain>(
        self: &Arc<Self>,
        range: &Range<u64>,
    ) -> Result<SharedSlice<T>, SnapshotError> {
        let size = std::mem::size_of::<T>();
        let Some(bytes) = self.region(range).filter(|bytes| {
            bytes.len() % size == 0 && bytes.as_ptr().align_offset(std::mem::align_of::<T>()) == 0
        }) else {
            return Err(corrupt(format!(
                "bytes {range:?} do not hold aligned {size}-byte elements"
            )));
        };
        let owner: Arc<dyn Any + Send + Sync> = self.clone();
        // SAFETY: `bytes` lies in the image, aligned for whole `T`s (checked
        // above); every bit pattern is a `T` (`Plain`); the slice holds the
        // `Arc`, so the immutable image outlives every reader.
        Ok(unsafe {
            SharedSlice::from_raw_parts(owner, bytes.as_ptr().cast::<T>(), bytes.len() / size)
        })
    }
}

// ---------------------------------------------------------------------------
// Opening
// ---------------------------------------------------------------------------

/// A prepared database read back from a format 8 image by
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

/// Opens a format 8 image written by [`write_prepared`].
///
/// The file is `mmap`ed on 64-bit unix (read into one aligned buffer
/// elsewhere), and [`verify::check`] — every check of the [`verify`]
/// layer — runs once on its bytes. Only then is the store mapped from the
/// regions the header locates and the index built from it by
/// [`InvertedIndex::build_for_store`], the builder an in-memory
/// preparation uses. The first violation found is
/// [`SnapshotError::Corrupt`]; an image of an older format is
/// [`SnapshotError::Unsupported`], naming `rgs-mine snapshot build`.
pub fn open_prepared(path: impl AsRef<Path>) -> Result<PreparedImage, SnapshotError> {
    let image = Arc::new(ImageBytes::open(path.as_ref())?);
    let (header, regions) = verify::check(image.bytes())?;

    let catalog_bytes = image
        .region(&regions.catalog)
        .ok_or_else(|| corrupt("catalog region lies outside the image"))?;
    let catalog = catalog_from_bytes(catalog_bytes)?;
    let events = if header.width == 2 {
        EventColumn::Narrow(image.shared(&regions.events)?)
    } else {
        EventColumn::Wide(image.shared(&regions.events)?)
    };
    let store = SeqStore::from_columns(events, image.shared(&regions.offsets)?);
    let index = InvertedIndex::build_for_store(&store, catalog.len());
    Ok(PreparedImage {
        database: SequenceDatabase::from_store(catalog, store),
        index,
        checksum: header.checksum,
        version: header.version,
    })
}

// ---------------------------------------------------------------------------
// Catalog codec
// ---------------------------------------------------------------------------

/// Serializes an [`EventCatalog`] as the catalog region: per label in id
/// order, a `u32` byte length and the UTF-8 bytes. The header's
/// `num_events` is the label count. Labels are owned data either way —
/// unlike the store, the catalog is copied out of the image on open (it is
/// tiny next to the event data, and the id→label vector plus the label→id
/// map want owned strings anyway).
fn catalog_to_bytes(catalog: &EventCatalog) -> Vec<u8> {
    let mut out = Vec::new();
    for (_, label) in catalog.iter() {
        let len = usize_to_u32(label.len()).expect("catalog label length fits u32");
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(label.as_bytes());
    }
    out
}

/// Deserializes the catalog region of an image that [`verify`] has
/// passed: the verifier proves it exactly `num_events` complete, valid
/// UTF-8 and distinct labels, so decoding reads labels to the end of the
/// region and checks none of that again. Its reads stay bounds-checked, so
/// bytes that were not verified come back [`SnapshotError::Corrupt`]
/// rather than panicking.
fn catalog_from_bytes(bytes: &[u8]) -> Result<EventCatalog, SnapshotError> {
    let truncated = || corrupt("catalog region is truncated");
    let mut cursor = 0usize;
    let mut catalog = EventCatalog::new();
    while cursor < bytes.len() {
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
pub(crate) mod tests {
    use super::*;

    /// A file name unique to this call: tests run in parallel threads of
    /// one process.
    pub(crate) fn temp_path(tag: &str) -> PathBuf {
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "seqdb-snapshot-{}-{tag}-{call}.bin",
            std::process::id()
        ))
    }

    /// The corpus the unit tests write: five events, a narrow arena.
    pub(crate) fn sample_db() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD", "AEEA"])
    }

    /// The bytes [`write_prepared`] writes for `db`.
    pub(crate) fn written_bytes(db: &SequenceDatabase) -> Vec<u8> {
        let path = temp_path("written");
        write_prepared(&path, db).expect("write");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        bytes
    }

    /// A region's byte range as indices into the image.
    pub(crate) fn span(range: &Range<u64>) -> Range<usize> {
        let at = |offset| u64_to_usize(offset).expect("a small test image");
        at(range.start)..at(range.end)
    }

    /// Recomputes the checksum of a patched image.
    pub(crate) fn reseal(bytes: &mut [u8]) {
        let checksum = checksum_of(bytes);
        bytes[24..32].copy_from_slice(&checksum.to_le_bytes());
    }

    /// A written narrow image patched into the wide layout and resealed:
    /// `write_prepared` writes narrowest-fit, so it never writes a small
    /// alphabet wide.
    pub(crate) fn widened(narrow: &[u8]) -> Vec<u8> {
        let mut header = Header::decode(narrow).expect("a header");
        let regions = header.regions().expect("regions");
        assert_eq!(header.width, 2, "a narrow image");
        header.width = 4;
        header.file_len += 2 * header.total_length;
        let mut wide = header.encode();
        wide.extend_from_slice(&narrow[span(&regions.offsets)]);
        for event in narrow[span(&regions.events)].chunks_exact(2) {
            let event = u16::from_le_bytes([event[0], event[1]]);
            wide.extend_from_slice(&u32::from(event).to_le_bytes());
        }
        wide.extend_from_slice(&narrow[span(&regions.catalog)]);
        reseal(&mut wide);
        wide
    }

    /// Writes `bytes` to a file of its own and opens it.
    fn open_bytes(bytes: &[u8]) -> Result<PreparedImage, SnapshotError> {
        let path = temp_path("open");
        std::fs::write(&path, bytes).expect("write image");
        let opened = open_prepared(&path);
        std::fs::remove_file(&path).ok();
        opened
    }

    #[test]
    fn round_trip_preserves_every_section() {
        let db = sample_db();
        let bytes = written_bytes(&db);
        let header = Header::decode(&bytes).expect("a header");
        assert_eq!(
            (header.magic, header.version, header.endian, header.reserved),
            (SNAPSHOT_MAGIC, SNAPSHOT_VERSION, ENDIAN_MARKER, 0)
        );
        assert_eq!(header.file_len, usize_to_u64(bytes.len()));
        assert_eq!(header.checksum, checksum_of(&bytes));
        assert_eq!(
            (header.num_sequences, header.num_events, header.total_length),
            (3, 5, 22)
        );
        assert_eq!(header.encode(), bytes[..64]);

        let regions = header.regions().expect("regions");
        let region = |range: &Range<u64>| &bytes[span(range)];
        assert_eq!(region(&regions.offsets), as_bytes(db.store().offsets()));
        let narrow = db.store().event_column().narrow_slice().expect("narrow");
        assert_eq!(region(&regions.events), as_bytes(narrow));
        assert_eq!(region(&regions.catalog), catalog_to_bytes(db.catalog()));
        assert_eq!(regions.catalog.end, header.file_len);

        let image = open_bytes(&bytes).expect("open");
        assert_eq!(image.database, db);
        assert_eq!((image.checksum, image.version), (header.checksum, 8));
    }

    #[test]
    fn u16_sections_round_trip_zero_copy() {
        // Both store columns of an opened image are windows into it, for a
        // narrow arena and for a wide one.
        let db = sample_db();
        let narrow = written_bytes(&db);
        for (bytes, is_narrow) in [(widened(&narrow), false), (narrow, true)] {
            let image = open_bytes(&bytes).expect("open");
            let store = image.database.store();
            assert_eq!(store.is_narrow(), is_narrow);
            assert!(store.is_mapped(), "narrow: {is_narrow}");
            assert_eq!(image.database, db);
        }
    }

    #[test]
    fn shared_slices_keep_the_image_alive() {
        let db = sample_db();
        let events = {
            let image = open_bytes(&written_bytes(&db)).expect("open");
            match image.database.store().event_column() {
                EventColumn::Narrow(events) => events.clone(),
                EventColumn::Wide(_) => panic!("a five-event alphabet writes narrow"),
            }
        };
        // The image and its database went out of scope (the file is gone
        // too); the slice still reads.
        assert!(events.is_mapped());
        assert_eq!(Some(&events[..]), db.store().event_column().narrow_slice());
    }

    #[test]
    fn payload_offsets_are_aligned() {
        let narrow = written_bytes(&sample_db());
        for bytes in [widened(&narrow), narrow] {
            let header = Header::decode(&bytes).expect("a header");
            let regions = header.regions().expect("regions");
            assert_eq!(regions.offsets.start, HEADER_LEN);
            assert_eq!(regions.offsets.start % 4, 0);
            assert_eq!(regions.events.start % u64::from(header.width), 0);
        }
    }

    /// Writes a prepared image of `rows`, rewrites its catalog region with
    /// `forge`, reseals the checksum, and returns the image's bytes.
    fn forged_catalog_image(tag: &str, rows: &[&str], forge: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut bytes = written_bytes(&SequenceDatabase::from_str_rows(rows));
        let catalog = Header::decode(&bytes)
            .and_then(|header| header.regions())
            .expect("regions")
            .catalog;
        forge(&mut bytes[span(&catalog)]);
        reseal(&mut bytes);
        let Err(err) = open_bytes(&bytes) else {
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

        // The catalog of `["AB", "BA"]` is: (1, "A"), (1, "B").
        let rows = ["AB", "BA"];
        let set_u32 = |region: &mut [u8], at: usize, value: u32| {
            region[at..at + 4].copy_from_slice(&value.to_le_bytes());
        };
        // Label 0 claims more bytes than the region holds.
        let truncated = forged_catalog_image("cat-truncated", &rows, |c| set_u32(c, 0, 1000));
        // Label 1 claims no bytes, leaving its one byte trailing.
        let trailing = forged_catalog_image("cat-trailing", &rows, |c| set_u32(c, 5, 0));
        // Label 1 becomes a byte that is not UTF-8.
        let not_utf8 = forged_catalog_image("cat-utf8", &rows, |c| c[9] = 0xff);
        // Label 1 becomes "A", which would renumber every event.
        let duplicate = forged_catalog_image("cat-dup", &rows, |c| c[9] = b'A');
        for bytes in [truncated, trailing, not_utf8, duplicate] {
            assert!(!verify::verify_bytes(&bytes).is_clean());
        }
    }

    #[test]
    fn prepared_layout_round_trips_and_refuses_what_verify_flags() {
        let db = sample_db();
        let mut bytes = written_bytes(&db);
        let image = open_bytes(&bytes).expect("open");
        assert_eq!(image.database, db);
        assert_eq!(image.index, db.inverted_index());
        assert!(image.database.store().is_narrow());
        let header = Header::decode(&bytes).expect("a header");
        assert_eq!(header.width, 2);

        // The first arena event set to `num_events` (one past the
        // alphabet) and the checksum resealed: the header and the other
        // regions stay well-formed, only the arena leaves the alphabet.
        let at = span(&header.regions().expect("regions").events).start;
        let past = u16::try_from(db.num_events()).expect("a narrow alphabet");
        bytes[at..at + 2].copy_from_slice(&past.to_le_bytes());
        reseal(&mut bytes);
        assert!(!verify::verify_bytes(&bytes).is_clean());
        let err = open_bytes(&bytes).expect_err("an event outside the alphabet opens");
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("store.events"), "{err}");
    }
}
