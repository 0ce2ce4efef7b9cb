//! # seqdb — sequence database substrate
//!
//! This crate implements the input model of the ICDE'09 paper *"Efficient
//! Mining of Closed Repetitive Gapped Subsequences from a Sequence
//! Database"*: a database `SeqDB = {S1, S2, ..., SN}` of sequences, where
//! each sequence is an ordered list of events drawn from a finite alphabet.
//!
//! The crate provides:
//!
//! * [`EventCatalog`] — interning of event labels to dense [`EventId`]s so
//!   that the mining algorithms work on small integers,
//! * [`SeqStore`] and [`SeqView`] — flat columnar event storage: one
//!   contiguous arena plus a CSR offsets table, with sequences read as
//!   borrowed slices; the arena is an [`EventColumn`] that picks the
//!   narrowest element width ([`width`]: `u16` when the alphabet fits,
//!   `u32` otherwise) and compares events at that native width,
//! * [`Sequence`] and [`SequenceDatabase`] — the database model (a thin
//!   facade over the store) with builders and statistics,
//! * [`InvertedIndex`] — the *inverted event index* of §III-D of the paper,
//!   event-major and linear in the data (per event, the rows of the
//!   sequences that contain it over one flat positions arena; an event in
//!   at least half the sequences stores a row per sequence), answering
//!   `next(S, e, lowest)` queries in `O(log L)` time, handing growth
//!   kernels a [`PostingCursor`] that advances through a resolved row with
//!   galloping + branch-free search, and resolving one event's rows
//!   forward-only for a growth pass through [`EventRows`],
//! * [`simd`] — the vector extensions the build targets
//!   ([`simd::detected_features`]), reported beside throughput numbers,
//! * [`SharedSlice`] — the owned-or-mapped buffer backing every columnar
//!   arena, so the same read path serves in-memory builds and zero-copy
//!   snapshot loads,
//! * [`snapshot`] — the versioned, checksummed, 64-byte-aligned single-file
//!   image format ([`SnapshotWriter`] / [`SnapshotImage`]) behind
//!   `PreparedDb::write_snapshot` / `open_snapshot` in `rgs-core`,
//! * [`io`] — readers and writers for common on-disk text formats (SPMF
//!   integer format, whitespace-token format, single-character string
//!   format, CSV),
//! * [`stats`] — dataset summary statistics used by the experiment harness.
//!
//! # Example
//!
//! ```
//! use seqdb::SequenceDatabase;
//!
//! // The running example of Table II in the paper.
//! let db = SequenceDatabase::from_str_rows(&["ABCABCA", "AABBCCC"]);
//! assert_eq!(db.num_sequences(), 2);
//! assert_eq!(db.num_events(), 3);
//! assert_eq!(db.total_length(), 14);
//!
//! let index = db.inverted_index();
//! // the first 'C' in S1 strictly after position 0 (1-based positions)
//! let a = db.catalog().id("C").unwrap();
//! assert_eq!(index.next(0, a, 0), Some(3));
//! ```
//!
//! # Example — snapshot a store and map it back
//!
//! The format layer is generic over sections; this round-trips the two
//! columns of a store through one image file with zero copies on the way
//! back. A small alphabet builds a narrow (`u16`) arena, which the format
//! writes and maps at 2 bytes per event (see `rgs-core::PreparedDb` for
//! the full prepared-database composition):
//!
//! ```
//! use std::sync::Arc;
//! use seqdb::snapshot::{section_id, SectionPayload, SnapshotImage, SnapshotWriter};
//! use seqdb::{EventColumn, SeqStore, SequenceDatabase};
//!
//! let db = SequenceDatabase::from_str_rows(&["ABCABCA", "AABBCCC"]);
//! let path = std::env::temp_dir().join(format!("seqdb-doc-{}.snap", std::process::id()));
//!
//! let narrow = db.store().event_column().narrow_slice().expect("3-event alphabet");
//! let mut writer = SnapshotWriter::new();
//! writer.section(section_id::STORE_EVENTS, SectionPayload::U16s(narrow));
//! writer.section(section_id::STORE_OFFSETS, SectionPayload::U32s(db.store().offsets()));
//! writer.write_to_path(&path)?;
//!
//! let image = Arc::new(SnapshotImage::open(&path)?);
//! let store = SeqStore::from_shared_parts(
//!     EventColumn::Narrow(image.shared_u16s(section_id::STORE_EVENTS)?),
//!     image.shared_u32s(section_id::STORE_OFFSETS)?,
//! ).expect("validated by the image checksum");
//! assert_eq!(&store, db.store());
//! std::fs::remove_file(&path)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `shared` and `snapshot` need `unsafe` for mmap and in-place slice
// reinterpretation; they opt in locally with documented safety arguments.
// Everything else stays forbidden.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::cast_possible_truncation)]

pub mod cast;
pub mod catalog;
pub mod database;
pub mod index;
pub mod io;
pub mod sequence;
pub mod shared;
pub mod simd;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod width;

pub use catalog::{EventCatalog, EventId};
pub use database::{DatabaseBuilder, SequenceDatabase};
pub use index::{EventRows, IndexColumns, InvertedIndex, PostingCursor, RunSet, ShardedIndex};
pub use sequence::Sequence;
pub use shared::SharedSlice;
pub use snapshot::{SnapshotError, SnapshotImage, SnapshotWriter};
pub use stats::DatabaseStats;
pub use store::{EventColumn, EventsIter, SeqStore, SeqView};
pub use width::{EventWidth, NARROW_MAX_EVENT};
