//! # repetitive-gapped-mining — umbrella crate
//!
//! A from-scratch Rust reproduction of *"Efficient Mining of Closed
//! Repetitive Gapped Subsequences from a Sequence Database"* (Ding, Lo, Han
//! & Khoo, ICDE 2009).
//!
//! This crate re-exports the public API of the workspace members so that a
//! downstream user only needs one dependency:
//!
//! * [`seqdb`] — sequence database model, inverted event index, dataset I/O,
//! * [`core`] (crate `rgs-core`) — repetitive support, instance growth, the
//!   unified [`Miner`](core::Miner) engine (GSgrow, CloGSgrow, top-k,
//!   maximal, gap-constrained mining as composable options), streaming
//!   [`PatternSink`](core::PatternSink)s, case-study post-processing,
//! * [`synthgen`] — synthetic workload generators reproducing the paper's
//!   evaluation datasets,
//! * [`baselines`] — sequential-pattern miners (PrefixSpan, BIDE-style,
//!   CloSpan-lite, SPAM-style), serial episode miners, and the alternative
//!   support semantics of Table I,
//! * [`features`] (crate `rgs-features`) — per-sequence repetitive-support
//!   feature extraction, discriminative pattern selection, and sequence
//!   classification (the paper's future-work direction).
//!
//! # Example — the prepared two-phase flow
//!
//! Prepare the database once ([`PreparedDb`](core::PreparedDb) owns the
//! catalog, the inverted index, and the frequent-event counts), then run
//! any number of queries against the snapshot through the
//! [`Miner`](core::Miner) builder, which fills in one
//! [`MiningRequest`](core::MiningRequest) — the only description of a run:
//! mode (all/closed/maximal), gap/window constraints, top-k ranking
//! (`top_k`), caps, and sequential/parallel execution are orthogonal
//! options that compose freely.
//!
//! ```
//! use repetitive_gapped_mining::prelude::*;
//!
//! // Example 1.1 of the paper: two customers' purchase histories.
//! let db = SequenceDatabase::from_str_rows(&["AABCDABB", "ABCD"]);
//!
//! // Phase 1: prepare once.
//! let prepared = PreparedDb::new(&db);
//!
//! // Phase 2: query many times, borrowing the snapshot.
//! let closed = prepared.miner().min_sup(2).mode(Mode::Closed).run();
//! assert!(!closed.is_empty());
//!
//! // Parallel execution is bit-identical to sequential:
//! let parallel = prepared
//!     .miner()
//!     .min_sup(2)
//!     .mode(Mode::Closed)
//!     .threads(4)
//!     .run();
//! assert_eq!(closed.patterns, parallel.patterns);
//!
//! // A sink sees each pattern as the search finds it, and can stop it:
//! let mut first = None;
//! prepared
//!     .miner()
//!     .min_sup(2)
//!     .mode(Mode::All)
//!     .run_with_sink(&mut |mp: MinedPattern| {
//!         first = Some(mp);
//!         std::ops::ControlFlow::Break(())
//!     });
//! assert!(first.expect("at least one pattern").support >= 2);
//!
//! // Repetitive support distinguishes AB (repeats within S1) from CD.
//! let ab = db.pattern_from_str("AB").unwrap();
//! let cd = db.pattern_from_str("CD").unwrap();
//! assert_eq!(repetitive_support(&db, &ab), 4);
//! assert_eq!(repetitive_support(&db, &cd), 2);
//!
//! // Combinations the legacy API could not express compose for free:
//! let constrained_topk = prepared
//!     .miner()
//!     .min_sup(1)
//!     .mode(Mode::Closed)
//!     .constraints(GapConstraints::max_gap(2))
//!     .top_k(5)
//!     .min_len(2)
//!     .run();
//! assert!(constrained_topk.len() <= 5);
//!
//! // Phase 1 persists: write the snapshot once, reopen it on every cold
//! // start (mmap + checksum + one index build; no re-tokenizing).
//! let path = std::env::temp_dir().join(format!("rgm-doc-{}.snap", std::process::id()));
//! prepared.write_snapshot(&path).unwrap();
//! let reopened = PreparedDb::open_snapshot(&path).unwrap();
//! let cold = reopened.miner().min_sup(2).mode(Mode::Closed).run();
//! assert_eq!(cold.patterns, closed.patterns);
//! std::fs::remove_file(&path).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use baselines;
pub use rgs_core as core;
pub use rgs_features as features;
pub use seqdb;
pub use synthgen;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use rgs_core::{
        constrained_support, postprocess, repetitive_support, BudgetSink, CollectSink, CountSink,
        DeadlineSink, ExecutionPolicy, GapConstraints, Instance, Landmark, MinedPattern, Miner,
        MiningOutcome, MiningReport, MiningRequest, MiningResult, Mode, Pattern, PatternSink,
        PostProcessConfig, PreparedDb, SupportComputer, SupportSet,
    };
    pub use rgs_features::{
        extract_features, ClassId, Classifier, FeatureMatrix, LabeledDatabase, SelectionMethod,
    };
    pub use seqdb::{
        DatabaseBuilder, EventCatalog, EventId, InvertedIndex, Sequence, SequenceDatabase,
        SnapshotError,
    };
}
