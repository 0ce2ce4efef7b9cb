//! The prepared-database snapshot: "prepare once, query many".
//!
//! Every mining run needs the same setup work regardless of the query:
//! interning and the inverted event index of §III-D, whose per-event
//! totals answer the frequent-event scan of Algorithms 3 and 4 in O(1) per
//! event. [`PreparedDb`] performs that work exactly once and owns the
//! result — the event catalog, the sequences and the [`InvertedIndex`] —
//! as an immutable snapshot that any number of queries (and threads: the
//! snapshot is `Send + Sync` and `Arc`-shareable) can borrow.
//!
//! ```
//! use std::sync::Arc;
//! use seqdb::SequenceDatabase;
//! use rgs_core::{Miner, Mode, PreparedDb};
//!
//! let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
//! let prepared = Arc::new(PreparedDb::new(&db));
//!
//! // Many queries, one preparation:
//! let closed = prepared.miner().min_sup(2).mode(Mode::Closed).run();
//! let all = prepared.miner().min_sup(3).mode(Mode::All).run();
//! assert!(all.len() <= closed.len() + 100);
//!
//! // Concurrent queries share the snapshot through `Arc`:
//! let worker = Arc::clone(&prepared);
//! let handle = std::thread::spawn(move || {
//!     Miner::from_shared(worker).min_sup(2).run().len()
//! });
//! assert_eq!(handle.join().unwrap(), closed.len());
//! ```

use std::path::Path;
use std::sync::Arc;

use seqdb::{snapshot, EventCatalog, EventId, InvertedIndex, SequenceDatabase, SnapshotError};

use crate::engine::{Miner, MiningRequest};
use crate::growth::SupportComputer;

/// The events whose total occurrence count reaches `min_sup` (at least 1,
/// so an event that never occurs is never a candidate), in catalog order —
/// the frequent single events of Algorithm 3, line 1, and the candidate
/// order every DFS iterates. Each count is [`InvertedIndex::total_count`],
/// O(1).
pub(crate) fn frequent_events(index: &InvertedIndex, min_sup: u64) -> Vec<EventId> {
    let min_sup = min_sup.max(1);
    (0..index.num_events())
        .filter_map(|e| u32::try_from(e).ok().map(EventId))
        .filter(|&e| index.total_count(e) as u64 >= min_sup)
        .collect()
}

/// A borrowed view of a database plus its index: what the mining cores
/// actually run against. `Copy`, so it threads freely through the DFS and
/// across `std::thread::scope` workers.
///
/// Everything behind this view is flat, contiguous storage — the columnar
/// [`seqdb::SeqStore`] event arena and the CSR inverted index — owned by
/// the [`PreparedDb`] (or the per-run preparation); workers only ever see
/// `&[u32]`/`&[EventId]` slices into those arenas, so parallel fan-out
/// shares them with zero per-thread copies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreparedRef<'a> {
    pub db: &'a SequenceDatabase,
    pub index: &'a InvertedIndex,
}

impl<'a> PreparedRef<'a> {
    /// A borrowed-index support computer over this view (O(1): no index is
    /// built).
    pub fn support_computer(self) -> SupportComputer<'a> {
        SupportComputer::borrowed(self.db, self.index)
    }
}

/// Provenance of a snapshot-backed preparation: the opened image's recorded
/// checksum and format version, as reported by
/// [`PreparedDb::image_checksum`] / [`PreparedDb::image_version`].
///
/// The checksum was verified against every file byte at open time and the
/// mapping is immutable, so it is a stable identity for the corpus — the
/// serve layer's result cache keys on it instead of re-hashing the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageInfo {
    /// The FNV-1a 64 full-file checksum from the image header.
    pub checksum: u64,
    /// The snapshot format version (always
    /// [`SNAPSHOT_VERSION`](seqdb::snapshot::SNAPSHOT_VERSION), the only
    /// one this build reads).
    pub version: u32,
}

/// An immutable, `Arc`-shareable snapshot of a database prepared for
/// mining: the catalog and sequences, and the inverted event index.
///
/// Build it once with [`PreparedDb::new`] (or [`Miner::prepare`]), then run
/// any number of queries against it through [`PreparedDb::miner`],
/// [`Miner::from_prepared`], or [`Miner::from_shared`]. Queries only borrow
/// the snapshot, so one `PreparedDb` behind an `Arc` can serve concurrent
/// requests from many threads.
#[derive(Debug, Clone)]
pub struct PreparedDb {
    /// The database and its index sit behind `Arc`s, so a clone shares
    /// them instead of copying.
    db: Arc<SequenceDatabase>,
    index: Arc<InvertedIndex>,
    /// `Some` when this preparation was reconstructed from a snapshot
    /// image, `None` for heap builds.
    image: Option<ImageInfo>,
}

impl PartialEq for PreparedDb {
    fn eq(&self, other: &Self) -> bool {
        // `image` is provenance, not content: a snapshot reopened from disk
        // equals the heap-built preparation it was written from (the
        // round-trip suites assert exactly that).
        self.db == other.db && self.index == other.index
    }
}

impl PreparedDb {
    /// Prepares a snapshot of `db`: clones the catalog and sequences and
    /// builds the inverted index.
    pub fn new(db: &SequenceDatabase) -> Self {
        Self::from_database(db.clone())
    }

    /// Prepares a snapshot taking ownership of `db` (no clone).
    pub fn from_database(db: SequenceDatabase) -> Self {
        let index = db.inverted_index();
        Self::from_parts(db, index, None)
    }

    /// Serializes this snapshot's corpus — store and catalog — into a
    /// single on-disk image file (see [`crate::snapshot`] for the format)
    /// and returns the number of bytes written. The index is not written:
    /// [`PreparedDb::open_snapshot`] builds it from the store, as
    /// [`PreparedDb::new`] does, without touching the original text.
    pub fn write_snapshot(&self, path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
        snapshot::write_prepared(path, &self.db)
    }

    /// Opens a snapshot image written by [`PreparedDb::write_snapshot`].
    ///
    /// On unix the file is `mmap`ed and the store's columns are zero-copy
    /// slices over the mapping (elsewhere the file is read once into an
    /// aligned buffer). Before the store is mapped, the bytes pass the
    /// same checks as `rgs-mine snapshot verify`
    /// ([`seqdb::snapshot::verify`]): header, full-file checksum, section
    /// table, and every cross-section invariant; the index is then built
    /// from the store by the builder [`PreparedDb::new`] uses. An image
    /// that violates an invariant is [`SnapshotError::Corrupt`] naming the
    /// first violation, an image of an older format is
    /// [`SnapshotError::Unsupported`], and nothing panics. The reopened
    /// snapshot equals the in-memory original, so mining output over it is
    /// bit-identical.
    pub fn open_snapshot(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let image = snapshot::open_prepared(path)?;
        let info = ImageInfo {
            checksum: image.checksum,
            version: image.version,
        };
        Ok(Self::from_parts(image.database, image.index, Some(info)))
    }

    /// Assembles a snapshot from a database and its index, recording which
    /// image (if any) it came from.
    fn from_parts(db: SequenceDatabase, index: InvertedIndex, image: Option<ImageInfo>) -> Self {
        Self {
            db: Arc::new(db),
            index: Arc::new(index),
            image,
        }
    }

    /// The snapshotted database.
    pub fn database(&self) -> &SequenceDatabase {
        &self.db
    }

    /// The provenance of a snapshot-backed preparation, `None` for heap
    /// builds.
    pub fn image_info(&self) -> Option<ImageInfo> {
        self.image
    }

    /// The verified full-file checksum of the image this preparation was
    /// opened from — the stable corpus identity serve-layer cache keys use.
    /// `None` for heap builds, which have no on-disk identity.
    pub fn image_checksum(&self) -> Option<u64> {
        self.image.map(|info| info.checksum)
    }

    /// The snapshot format version of the backing image (always
    /// [`SNAPSHOT_VERSION`](seqdb::snapshot::SNAPSHOT_VERSION), the only
    /// one this build reads), `None` for heap builds.
    pub fn image_version(&self) -> Option<u32> {
        self.image.map(|info| info.version)
    }

    /// The snapshotted event catalog.
    pub fn catalog(&self) -> &EventCatalog {
        self.db.catalog()
    }

    /// The inverted event index built at preparation time.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// A perfbench shim: the benchmark harness sums `store_bytes` and
    /// `index_bytes` over this list, so it holds one footprint whose fields
    /// are [`seqdb::SeqStore::heap_bytes`] and [`InvertedIndex::heap_bytes`].
    pub fn shard_footprints(&self) -> Vec<ShardFootprint> {
        vec![ShardFootprint {
            store_bytes: self.db.store().heap_bytes(),
            index_bytes: self.index.heap_bytes(),
        }]
    }

    /// Total occurrences of `event` (the repetitive support of the
    /// single-event pattern), read from the index in O(1).
    pub fn occurrence_count(&self, event: EventId) -> u64 {
        self.index.total_count(event) as u64
    }

    /// The events whose occurrence count reaches `min_sup` (at least 1),
    /// in catalog order — the per-query frequent-event scan.
    pub fn frequent_events(&self, min_sup: u64) -> Vec<EventId> {
        frequent_events(&self.index, min_sup)
    }

    /// A support computer borrowing this snapshot's index (O(1); compare
    /// [`SupportComputer::new`], which builds a fresh index).
    pub fn support_computer(&self) -> SupportComputer<'_> {
        self.as_prepared_ref().support_computer()
    }

    /// Heap bytes held by the snapshot's arenas: the columnar event store
    /// and the inverted index. These are the flat buffers every query (and
    /// every parallel worker, through `PreparedRef` slices) shares without
    /// copying.
    pub fn heap_bytes(&self) -> usize {
        self.db.store().heap_bytes() + self.index.heap_bytes()
    }

    /// Starts a [`Miner`] builder executing against this snapshot.
    pub fn miner(&self) -> Miner<'_> {
        Miner::from_prepared(self)
    }

    /// Executes a whole batch of requests through one shared DFS per
    /// compatible group (see [`crate::batch`]). `results[i]` is
    /// bit-identical — patterns, supports, order, truncation, work
    /// counters — to running `requests[i]` solo under sequential
    /// execution; only `elapsed_seconds` (whole-batch wall clock) differs.
    pub fn batch(&self, requests: &[MiningRequest]) -> Vec<crate::batch::MiningResult> {
        self.batch_with_deadlines(requests, &[])
    }

    /// [`Self::batch`] with per-request deadlines (indexed by request
    /// slot; missing or `None` entries mean no deadline). A request whose
    /// deadline expires mid-run comes back `cancelled` and truncated at
    /// the deadline, without affecting its batch siblings.
    pub fn batch_with_deadlines(
        &self,
        requests: &[MiningRequest],
        deadlines: &[Option<std::time::Instant>],
    ) -> Vec<crate::batch::MiningResult> {
        crate::batch::run_batch(self.as_prepared_ref(), requests, deadlines)
    }

    pub(crate) fn as_prepared_ref(&self) -> PreparedRef<'_> {
        PreparedRef {
            db: &self.db,
            index: &self.index,
        }
    }
}

/// A perfbench shim: the store and index bytes of a [`PreparedDb`], in the
/// shape [`PreparedDb::shard_footprints`] returns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFootprint {
    /// [`seqdb::SeqStore::heap_bytes`] of the prepared store.
    pub store_bytes: usize,
    /// [`InvertedIndex::heap_bytes`] of the prepared index.
    pub index_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::repetitive_support;
    use seqdb::DatabaseBuilder;

    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    #[test]
    fn occurrence_counts_match_the_index() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        for event in db.catalog().ids() {
            // A scan of the store, independent of the index.
            assert_eq!(
                prepared.occurrence_count(event),
                db.event_occurrences(event) as u64
            );
        }
        assert_eq!(prepared.occurrence_count(EventId(99)), 0);
    }

    #[test]
    fn frequent_events_match_the_legacy_scan() {
        // The brute-force scan: every catalog id whose single-event
        // pattern reaches the threshold, in id order.
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        for min_sup in [1, 2, 3, 5, 6] {
            let brute: Vec<EventId> = db
                .catalog()
                .ids()
                .filter(|&e| repetitive_support(&db, &[e]) >= min_sup)
                .collect();
            assert_eq!(
                prepared.frequent_events(min_sup),
                brute,
                "min_sup = {min_sup}"
            );
        }
    }

    #[test]
    fn event_order_prunes_catalog_entries_that_never_occur() {
        let mut builder = DatabaseBuilder::new();
        builder.intern("GHOST");
        builder.push_tokens(["A", "B", "A"]);
        let db = builder.finish();
        let prepared = PreparedDb::new(&db);
        let ghost = db.catalog().id("GHOST").unwrap();
        assert!(!prepared.frequent_events(1).contains(&ghost));
        assert_eq!(prepared.frequent_events(1).len(), 2);
    }

    #[test]
    fn snapshot_is_independent_of_the_source_database() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        drop(db);
        assert_eq!(prepared.database().num_sequences(), 2);
        assert!(!prepared.frequent_events(2).is_empty());
    }
}
