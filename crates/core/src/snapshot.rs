//! Prepared-database snapshots: [`PreparedDb::write_snapshot`] writes a
//! preparation's corpus as one image file, and
//! [`PreparedDb::open_snapshot`] (or
//! [`Miner::from_snapshot`](crate::Miner::from_snapshot)) maps its store
//! back with zero copies and builds the index from it.
//!
//! Both wrap [`seqdb::snapshot`], which owns the format v7 layout — four
//! sections: `meta`, the width-tagged `store.events` arena,
//! `store.offsets` and the catalog — and writes, checks and reads it in
//! one place. Opening runs the [`seqdb::snapshot::verify`] checks on the
//! mapped bytes before it maps the store, so an image opens exactly when
//! `rgs-mine snapshot verify` finds it clean, and the index is built by
//! the same builder [`PreparedDb::new`] uses, so a reopened snapshot
//! equals the in-memory one. Images of formats 1–6 do not open:
//! [`PreparedDb::open_snapshot`] returns
//! [`SnapshotError::Unsupported`](seqdb::SnapshotError::Unsupported)
//! naming the version and `rgs-mine snapshot build`, which regenerates
//! the image.
//!
//! See `ARCHITECTURE.md` at the repository root for the byte-level
//! walk-through.
//!
//! [`PreparedDb::write_snapshot`]: crate::PreparedDb::write_snapshot
//! [`PreparedDb::open_snapshot`]: crate::PreparedDb::open_snapshot
//! [`PreparedDb::new`]: crate::PreparedDb::new

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
    fn pre_v7_images_are_unsupported_and_name_the_rebuild_command() {
        // Patch a freshly written image's header to formats 5 and 6 and
        // re-seal it: the bytes are intact, but this build no longer reads
        // the version.
        let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        let path = temp_path("pre-v7");
        PreparedDb::new(&db).write_snapshot(&path).expect("write");
        let written = std::fs::read(&path).expect("read back");
        for version in [5u32, 6] {
            let mut bytes = written.clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let checksum = seqdb::snapshot::checksum_of(&bytes);
            bytes[24..32].copy_from_slice(&checksum.to_le_bytes());
            std::fs::write(&path, &bytes).expect("rewrite");

            let err = PreparedDb::open_snapshot(&path).unwrap_err();
            assert!(matches!(err, seqdb::SnapshotError::Unsupported(_)), "{err}");
            let message = err.to_string();
            assert!(message.contains(&format!("version {version}")), "{message}");
            assert!(message.contains("rgs-mine snapshot build"), "{message}");

            let report = seqdb::snapshot::verify::verify_bytes(&bytes);
            assert_eq!(report.version, Some(version));
            let finding = report.violations.first().expect("version violation");
            assert!(
                finding.detail.contains(&format!("version {version}")),
                "{finding}"
            );
            assert!(
                finding.detail.contains("rgs-mine snapshot build"),
                "{finding}"
            );
        }
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
