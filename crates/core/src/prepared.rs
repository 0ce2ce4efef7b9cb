//! The prepared-database snapshot: "prepare once, query many".
//!
//! Every mining run needs the same setup work regardless of the query:
//! interning, the inverted event index of §III-D, and the per-event
//! occurrence counts behind the frequent-event scan of Algorithms 3 and 4.
//! [`PreparedDb`] performs that work exactly once and owns the result — the
//! event catalog, the sequences, the [`InvertedIndex`], the occurrence
//! counts, and the frequency-pruned event order — as an immutable snapshot
//! that any number of queries (and threads: the snapshot is `Send + Sync`
//! and `Arc`-shareable) can borrow.
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

use seqdb::{EventCatalog, EventId, InvertedIndex, SequenceDatabase, SharedSlice, SnapshotError};

use crate::engine::{Miner, MiningRequest};
use crate::growth::SupportComputer;

/// The query-independent artifacts derived from a database: the inverted
/// index, the per-event occurrence counts, and the frequency-pruned event
/// order. Shared by [`PreparedDb`] (which owns its database) and the lazy
/// path of [`Miner::new`] (which borrows the caller's database and prepares
/// these parts per run).
///
/// Every column is a [`SharedSlice`], so the parts are either computed in
/// memory ([`PreparedParts::build`]) or reconstructed zero-copy from a
/// snapshot image ([`PreparedDb::open_snapshot`]) — queries cannot tell
/// the difference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PreparedParts {
    /// The inverted event index of §III-D over the whole database.
    pub index: InvertedIndex,
    /// `occurrence_counts[event.index()]` = total occurrences of `event`,
    /// i.e. the repetitive support of the single-event pattern.
    pub occurrence_counts: SharedSlice<u64>,
    /// The events that occur at least once, in catalog order — the
    /// candidate order every DFS iterates, so pattern emission order is
    /// identical no matter how the database was prepared.
    pub event_order: SharedSlice<EventId>,
}

impl PreparedParts {
    /// Builds the parts in one pass over `db`.
    pub fn build(db: &SequenceDatabase) -> Self {
        let index = db.inverted_index();
        let occurrence_counts = index.total_counts();
        let event_order = db
            .catalog()
            .ids()
            .filter(|e| occurrence_counts[e.index()] > 0)
            .collect::<Vec<_>>();
        Self {
            index,
            occurrence_counts: occurrence_counts.into(),
            event_order: event_order.into(),
        }
    }

    /// The events whose total occurrence count reaches `min_sup`, in
    /// catalog order — the frequent single events of Algorithm 3, line 1,
    /// answered from the precomputed counts without touching the index.
    pub fn frequent_events(&self, min_sup: u64) -> Vec<EventId> {
        self.event_order
            .iter()
            .copied()
            .filter(|e| self.occurrence_counts[e.index()] >= min_sup)
            .collect()
    }
}

/// A borrowed view of a database plus its prepared parts: what the mining
/// cores actually run against. `Copy`, so it threads freely through the
/// DFS and across `std::thread::scope` workers.
///
/// Everything behind this view is flat, contiguous storage — the columnar
/// [`seqdb::SeqStore`] event arena and the CSR inverted index — owned by
/// the [`PreparedDb`] (or the per-run preparation); workers only ever see
/// `&[u32]`/`&[EventId]` slices into those arenas, so parallel fan-out
/// shares them with zero per-thread copies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreparedRef<'a> {
    pub db: &'a SequenceDatabase,
    pub parts: &'a PreparedParts,
}

impl<'a> PreparedRef<'a> {
    /// A borrowed-index support computer over this view (O(1): no index is
    /// built).
    pub fn support_computer(self) -> SupportComputer<'a> {
        SupportComputer::borrowed(self.db, &self.parts.index)
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
    /// The snapshot format version (always 6, the only one this build
    /// reads).
    pub version: u32,
}

/// An immutable, `Arc`-shareable snapshot of a database prepared for
/// mining: the catalog and sequences, the inverted event index, the
/// per-event occurrence counts, and the frequency-pruned event order.
///
/// Build it once with [`PreparedDb::new`] (or [`Miner::prepare`]), then run
/// any number of queries against it through [`PreparedDb::miner`],
/// [`Miner::from_prepared`], or [`Miner::from_shared`]. Queries only borrow
/// the snapshot, so one `PreparedDb` behind an `Arc` can serve concurrent
/// requests from many threads.
#[derive(Debug, Clone)]
pub struct PreparedDb {
    /// The database and its prepared parts sit behind `Arc`s, so a clone
    /// shares them instead of copying.
    db: Arc<SequenceDatabase>,
    parts: Arc<PreparedParts>,
    /// `Some` when this preparation was reconstructed from a snapshot
    /// image, `None` for heap builds.
    image: Option<ImageInfo>,
}

impl PartialEq for PreparedDb {
    fn eq(&self, other: &Self) -> bool {
        // `image` is provenance, not content: a snapshot reopened from disk
        // equals the heap-built preparation it was written from (the
        // round-trip suites assert exactly that).
        self.db == other.db && self.parts == other.parts
    }
}

impl PreparedDb {
    /// Prepares a snapshot of `db`: clones the catalog and sequences, builds
    /// the inverted index, and precomputes the occurrence counts and the
    /// frequency-pruned event order.
    pub fn new(db: &SequenceDatabase) -> Self {
        Self::from_database(db.clone())
    }

    /// Prepares a snapshot taking ownership of `db` (no clone).
    pub fn from_database(db: SequenceDatabase) -> Self {
        let parts = PreparedParts::build(&db);
        Self::from_parts(db, parts, None)
    }

    /// Serializes this snapshot into a single on-disk image file (see
    /// [`crate::snapshot`] for the format) and returns the number of bytes
    /// written. The image holds everything [`PreparedDb::new`] computes —
    /// store, index, counts, event order, catalog — so
    /// [`PreparedDb::open_snapshot`] restores an equivalent snapshot
    /// without touching the original text or re-indexing.
    pub fn write_snapshot(&self, path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
        crate::snapshot::write_prepared(self, path.as_ref())
    }

    /// Opens a snapshot image written by [`PreparedDb::write_snapshot`].
    ///
    /// On unix the file is `mmap`ed and every arena is reconstructed as a
    /// zero-copy slice over the mapping (elsewhere the file is read once
    /// into an aligned buffer). The header, a full-file checksum, and every
    /// structural invariant are validated first: a truncated, bit-flipped,
    /// wrong-magic, or wrong-version file is rejected with a descriptive
    /// [`SnapshotError`] and never panics. Mining output over the reopened
    /// snapshot is bit-identical to the in-memory original.
    pub fn open_snapshot(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        crate::snapshot::open_prepared(path.as_ref())
    }

    /// Assembles a snapshot from already-validated parts (the snapshot
    /// loader's constructor), recording which image it came from.
    pub(crate) fn from_parts(
        db: SequenceDatabase,
        parts: PreparedParts,
        image: Option<ImageInfo>,
    ) -> Self {
        Self {
            db: Arc::new(db),
            parts: Arc::new(parts),
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

    /// The snapshot format version of the backing image (always 6, the
    /// only one this build reads), `None` for heap builds.
    pub fn image_version(&self) -> Option<u32> {
        self.image.map(|info| info.version)
    }

    /// The snapshotted event catalog.
    pub fn catalog(&self) -> &EventCatalog {
        self.db.catalog()
    }

    /// The inverted event index built at preparation time.
    pub fn index(&self) -> &InvertedIndex {
        &self.parts.index
    }

    /// A perfbench shim: the benchmark harness sums `store_bytes` and
    /// `index_bytes` over this list, so it holds one footprint whose fields
    /// are [`seqdb::SeqStore::heap_bytes`] and [`InvertedIndex::heap_bytes`].
    pub fn shard_footprints(&self) -> Vec<ShardFootprint> {
        vec![ShardFootprint {
            store_bytes: self.db.store().heap_bytes(),
            index_bytes: self.parts.index.heap_bytes(),
        }]
    }

    /// Total occurrences of `event` (the repetitive support of the
    /// single-event pattern), answered from the precomputed counts.
    pub fn occurrence_count(&self, event: EventId) -> u64 {
        self.parts
            .occurrence_counts
            .get(event.index())
            .copied()
            .unwrap_or(0)
    }

    /// The events whose occurrence count reaches `min_sup`, in catalog
    /// order — the per-query frequent-event scan, reduced to a filter over
    /// the precomputed counts.
    pub fn frequent_events(&self, min_sup: u64) -> Vec<EventId> {
        self.parts.frequent_events(min_sup.max(1))
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
        self.db.store().heap_bytes() + self.parts.index.heap_bytes()
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

    /// The prepared parts (snapshot serialization reads them directly).
    pub(crate) fn parts(&self) -> &PreparedParts {
        &self.parts
    }

    pub(crate) fn as_prepared_ref(&self) -> PreparedRef<'_> {
        PreparedRef {
            db: &self.db,
            parts: &self.parts,
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
    use crate::gsgrow::frequent_events;
    use seqdb::DatabaseBuilder;

    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    #[test]
    fn occurrence_counts_match_the_index() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        for event in db.catalog().ids() {
            assert_eq!(
                prepared.occurrence_count(event),
                prepared.index().total_count(event) as u64
            );
        }
        assert_eq!(prepared.occurrence_count(EventId(99)), 0);
    }

    #[test]
    fn frequent_events_match_the_legacy_scan() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let sc = SupportComputer::new(&db);
        for min_sup in [1, 2, 3, 5, 6] {
            assert_eq!(
                prepared.frequent_events(min_sup),
                frequent_events(&sc, &db, min_sup),
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
