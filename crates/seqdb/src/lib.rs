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
//! * [`SharedSlice`] — the owned-or-mapped buffer backing the store's
//!   columns, so the same read path serves in-memory builds and zero-copy
//!   snapshot loads,
//! * [`snapshot`] — the versioned, checksummed single-file image format:
//!   a fixed 64-byte header and three regions (store offsets, event arena,
//!   catalog) at offsets computed from its counts, written, verified and
//!   read back by one module, behind `PreparedDb::write_snapshot` /
//!   `open_snapshot` in `rgs-core`,
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
//! # Example — snapshot a prepared database and map it back
//!
//! [`snapshot::write_prepared`] writes a database's store and catalog as
//! one image file; [`snapshot::open_prepared`] checks every invariant of
//! the image, maps the store back with zero copies and builds the index
//! from it. A small alphabet builds a narrow (`u16`) arena, which the
//! format writes and maps at 2 bytes per event (`rgs-core::PreparedDb`
//! wraps both calls):
//!
//! ```
//! use seqdb::snapshot::{open_prepared, write_prepared};
//! use seqdb::SequenceDatabase;
//!
//! let db = SequenceDatabase::from_str_rows(&["ABCABCA", "AABBCCC"]);
//! let path = std::env::temp_dir().join(format!("seqdb-doc-{}.snap", std::process::id()));
//! write_prepared(&path, &db)?;
//!
//! let image = open_prepared(&path)?;
//! assert_eq!(image.database, db);
//! assert_eq!(image.index, db.inverted_index());
//! assert!(image.database.store().is_narrow());
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
pub use index::{EventRows, InvertedIndex, PostingCursor, RunSet, ShardedIndex};
pub use sequence::Sequence;
pub use shared::SharedSlice;
pub use snapshot::SnapshotError;
pub use stats::DatabaseStats;
pub use store::{EventColumn, EventsIter, SeqStore, SeqView};
pub use width::{EventWidth, NARROW_MAX_EVENT};
