//! Prepared-database snapshots: what goes into the single-file image and
//! how it comes back out with zero copies.
//!
//! The format layer — header, section table, checksum, `mmap` — lives in
//! [`seqdb::snapshot`]; this module is the *composition*. A format v6 image
//! (the only one this build writes or reads) holds eleven sections:
//!
//! | section | contents |
//! |---|---|
//! | `meta` | `[num_sequences, num_events, total_length]` as `u64`s |
//! | `store.events` | the flat [`seqdb::SeqStore`] event arena, at its narrowest width |
//! | `store.offsets` | the store's CSR offsets (per sequence + sentinel) |
//! | `catalog` | the interned event labels, length-prefixed UTF-8 |
//! | `event.counts` | per-event total occurrence counts (`u64`) |
//! | `event.order` | the frequency-pruned candidate event order |
//! | `index.row_dir` | the per-event row directory (`num_events + 1`) |
//! | `index.id_dir` | the per-event sparse-id directory (`num_events + 1`) |
//! | `index.row_offsets` | the row boundaries (rows + 1) |
//! | `index.ids` | the sparse sequence ids |
//! | `index.positions` | the flat positions arena |
//!
//! The five index sections are the columns of the event-major
//! [`seqdb::InvertedIndex`] ([`seqdb::IndexColumns`]), each mapped back
//! zero-copy. Their layout is canonical for the data (the dense/sparse rule
//! is fixed, not an option), so a reopened image equals the preparation
//! that wrote it. The index covers the whole corpus with global sequence
//! ids. Section id 9 held format 5's sequence-range table; it is retired.
//!
//! The `store.events` section is written **narrowest-fit**: when every
//! event id fits `u16` the arena is serialized at 2 bytes per element and
//! mapped back as an [`seqdb::EventColumn::Narrow`] column — half the
//! on-disk and resident event bytes. Larger alphabets stay at 4 bytes;
//! opening dispatches on the section's recorded element size.
//!
//! Images of formats 1–5 do not open: [`PreparedDb::open_snapshot`] returns
//! [`SnapshotError::Unsupported`] naming the version and
//! `rgs-mine snapshot build`, which regenerates the image.
//!
//! Opening reconstructs every array as a [`seqdb::SharedSlice`] borrowing
//! the mapped image and cross-checks the sections (dimensions against
//! `meta`, catalog length against `num_events`, event-order ids against
//! the alphabet), so a reopened snapshot upholds the same invariants as one
//! built by [`PreparedDb::new`]. The only owned reconstruction is the
//! catalog (label strings want owned storage).
//!
//! Entry points: [`PreparedDb::write_snapshot`],
//! [`PreparedDb::open_snapshot`], and
//! [`Miner::from_snapshot`](crate::Miner::from_snapshot). See
//! `ARCHITECTURE.md` at the repository root for the byte-level
//! walk-through.

use std::path::Path;

use seqdb::snapshot::{
    catalog_from_bytes, catalog_to_bytes, corrupt, section_id, SectionPayload, SnapshotImage,
    SnapshotWriter,
};
use seqdb::{
    EventColumn, EventWidth, IndexColumns, InvertedIndex, SeqStore, SequenceDatabase, SnapshotError,
};

use crate::prepared::{ImageInfo, PreparedDb, PreparedParts};

/// Serializes `prepared` to `path` in one pass (format v6); returns bytes
/// written.
pub(crate) fn write_prepared(prepared: &PreparedDb, path: &Path) -> Result<u64, SnapshotError> {
    let db = prepared.database();
    let meta = [
        db.num_sequences() as u64,
        db.num_events() as u64,
        db.total_length() as u64,
    ];
    let catalog_bytes = catalog_to_bytes(db.catalog());
    let parts = prepared.parts();

    // Narrowest-fit event column: an already-narrow column serializes its
    // u16 arena as-is; a wide column whose ids all fit u16 (a database
    // built wide on purpose) is re-narrowed for the image; only a genuinely
    // large alphabet stays at 4 bytes per event.
    let column = db.store().event_column();
    let renarrowed: Option<Vec<u16>> = if column.is_narrow() {
        None
    } else {
        column.iter().map(u16::from_event).collect()
    };
    let events_payload = match renarrowed.as_deref().or_else(|| column.narrow_slice()) {
        Some(narrow) => SectionPayload::U16s(narrow),
        None => SectionPayload::EventIds(column.wide_slice().unwrap_or(&[])),
    };

    let mut writer = SnapshotWriter::new();
    writer
        .section(section_id::META, SectionPayload::U64s(&meta))
        .section(section_id::STORE_EVENTS, events_payload)
        .section(
            section_id::STORE_OFFSETS,
            SectionPayload::U32s(db.store().offsets()),
        )
        .section(section_id::CATALOG, SectionPayload::Bytes(&catalog_bytes))
        .section(
            section_id::EVENT_COUNTS,
            SectionPayload::U64s(&parts.occurrence_counts),
        )
        .section(
            section_id::EVENT_ORDER,
            SectionPayload::EventIds(&parts.event_order),
        );
    for (id, column) in section_id::INDEX_COLUMNS
        .into_iter()
        .zip(prepared.index().columns().as_slices())
    {
        writer.section(id, SectionPayload::U32s(column));
    }
    writer.write_to_path(path)
}

/// Opens and cross-validates a format v6 image, reconstructing every arena
/// as a zero-copy slice over it.
pub(crate) fn open_prepared(path: &Path) -> Result<PreparedDb, SnapshotError> {
    let image = std::sync::Arc::new(SnapshotImage::open(path)?);

    let meta = image.u64s(section_id::META)?;
    let [num_sequences, num_events, total_length] = *meta else {
        return Err(corrupt(format!(
            "meta section holds {} values, expected 3",
            meta.len()
        )));
    };
    let (num_sequences, num_events, total_length) = (
        usize::try_from(num_sequences).map_err(|_| corrupt("sequence count overflows usize"))?,
        usize::try_from(num_events).map_err(|_| corrupt("event count overflows usize"))?,
        usize::try_from(total_length).map_err(|_| corrupt("total length overflows usize"))?,
    );

    let catalog = catalog_from_bytes(image.section_bytes(section_id::CATALOG)?)?;
    if catalog.len() != num_events {
        return Err(corrupt(format!(
            "catalog holds {} labels but meta records {num_events} events",
            catalog.len()
        )));
    }

    // Width dispatch: the section table records the element size the arena
    // was written at — 2 maps back narrow, 4 maps back wide.
    let narrow_events = image
        .section(section_id::STORE_EVENTS)
        .is_some_and(|entry| entry.elem_size == 2);
    let events = if narrow_events {
        EventColumn::Narrow(image.shared_u16s(section_id::STORE_EVENTS)?)
    } else {
        EventColumn::Wide(image.shared_event_ids(section_id::STORE_EVENTS)?)
    };
    let store = SeqStore::from_shared_parts(events, image.shared_u32s(section_id::STORE_OFFSETS)?)
        .map_err(corrupt)?;
    if store.num_sequences() != num_sequences || store.total_length() != total_length {
        return Err(corrupt(format!(
            "store holds {} sequences / {} events but meta records \
             {num_sequences} / {total_length}",
            store.num_sequences(),
            store.total_length()
        )));
    }
    if store.event_column().iter().any(|e| e.index() >= num_events) {
        return Err(corrupt(
            "store arena references an event id outside the catalog",
        ));
    }

    let [row_dir, id_dir, row_offsets, ids, positions] = section_id::INDEX_COLUMNS;
    let columns = IndexColumns {
        row_dir: image.shared_u32s(row_dir)?,
        id_dir: image.shared_u32s(id_dir)?,
        row_offsets: image.shared_u32s(row_offsets)?,
        ids: image.shared_u32s(ids)?,
        positions: image.shared_u32s(positions)?,
    };
    let index =
        InvertedIndex::from_shared_parts(columns, num_sequences, num_events).map_err(corrupt)?;
    if index.positions().len() != total_length {
        return Err(corrupt(format!(
            "index positions hold {} entries but meta records {total_length}",
            index.positions().len()
        )));
    }

    let occurrence_counts = image.shared_u64s(section_id::EVENT_COUNTS)?;
    if occurrence_counts.len() != num_events {
        return Err(corrupt(format!(
            "event counts hold {} entries but meta records {num_events} events",
            occurrence_counts.len()
        )));
    }

    let event_order = image.shared_event_ids(section_id::EVENT_ORDER)?;
    if event_order.iter().any(|e| e.index() >= num_events) {
        return Err(corrupt(
            "event order references an event id outside the catalog",
        ));
    }

    let db = SequenceDatabase::from_store(catalog, store);
    let parts = PreparedParts {
        index,
        occurrence_counts,
        event_order,
    };
    let info = ImageInfo {
        checksum: image.checksum(),
        version: image.version(),
    };
    Ok(PreparedDb::from_parts(db, parts, Some(info)))
}

#[cfg(test)]
mod tests {
    use crate::{Miner, Mode, PreparedDb};
    use seqdb::snapshot::SnapshotImage;
    use seqdb::SequenceDatabase;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rgs-core-snap-{}-{tag}.bin", std::process::id()))
    }

    #[test]
    fn write_open_round_trip_restores_the_snapshot() {
        let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        let prepared = PreparedDb::new(&db);
        let path = temp_path("roundtrip");
        let bytes = prepared.write_snapshot(&path).expect("write");
        assert!(bytes as usize >= prepared.heap_bytes());

        let reopened = PreparedDb::open_snapshot(&path).expect("open");
        assert_eq!(reopened, prepared);
        assert_eq!(reopened.heap_bytes(), prepared.heap_bytes());
        let fresh = prepared.miner().min_sup(2).mode(Mode::Closed).run();
        let cold = reopened.miner().min_sup(2).mode(Mode::Closed).run();
        assert_eq!(fresh.patterns, cold.patterns);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_v6_images_are_unsupported_and_name_the_rebuild_command() {
        // Patch a freshly written image's header to format 5 and re-seal it:
        // the bytes are intact, but this build no longer reads the version.
        let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        let path = temp_path("pre-v6");
        PreparedDb::new(&db).write_snapshot(&path).expect("write");
        let mut bytes = std::fs::read(&path).expect("read back");
        bytes[8..12].copy_from_slice(&5u32.to_le_bytes());
        let checksum = seqdb::snapshot::checksum_of(&bytes);
        bytes[24..32].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");

        let err = PreparedDb::open_snapshot(&path).unwrap_err();
        assert!(matches!(err, seqdb::SnapshotError::Unsupported(_)), "{err}");
        let message = err.to_string();
        assert!(message.contains("version 5"), "{message}");
        assert!(message.contains("rgs-mine snapshot build"), "{message}");

        let report = seqdb::snapshot::verify::verify_bytes(&bytes);
        assert_eq!(report.version, Some(5));
        let finding = report.violations.first().expect("version violation");
        assert!(finding.detail.contains("version 5"), "{finding}");
        assert!(
            finding.detail.contains("rgs-mine snapshot build"),
            "{finding}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn image_provenance_is_exposed_on_reopen_and_absent_on_heap_builds() {
        let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        let prepared = PreparedDb::new(&db);
        assert_eq!(prepared.image_checksum(), None);
        assert_eq!(prepared.image_version(), None);

        let path = temp_path("provenance");
        prepared.write_snapshot(&path).expect("write");
        let image = SnapshotImage::open(&path).expect("open image");
        let reopened = PreparedDb::open_snapshot(&path).expect("open");
        assert_eq!(reopened.image_checksum(), Some(image.checksum()));
        assert_eq!(reopened.image_version(), Some(image.version()));
        // Provenance is identity, not content: reopen still equals the
        // heap build.
        assert_eq!(reopened, prepared);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_database_round_trips() {
        let prepared = PreparedDb::new(&SequenceDatabase::new());
        let path = temp_path("empty");
        prepared.write_snapshot(&path).expect("write");
        let reopened = PreparedDb::open_snapshot(&path).expect("open");
        assert_eq!(reopened, prepared);
        assert!(reopened.miner().min_sup(1).run().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn miner_from_snapshot_runs_queries() {
        let db = SequenceDatabase::from_str_rows(&["AABCDABB", "ABCD"]);
        let prepared = PreparedDb::new(&db);
        let path = temp_path("miner");
        prepared.write_snapshot(&path).expect("write");
        let outcome = Miner::from_snapshot(&path)
            .expect("open")
            .min_sup(2)
            .mode(Mode::All)
            .run();
        let expected = prepared.miner().min_sup(2).mode(Mode::All).run();
        assert_eq!(outcome.patterns, expected.patterns);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn opening_a_missing_file_is_an_io_error() {
        let err = PreparedDb::open_snapshot(temp_path("never-written")).unwrap_err();
        assert!(matches!(err, seqdb::SnapshotError::Io(_)), "{err}");
    }
}
