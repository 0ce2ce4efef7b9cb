//! # rgs-core — mining (closed) repetitive gapped subsequences
//!
//! This crate is a from-scratch Rust implementation of the algorithms of
//! Ding, Lo, Han & Khoo, *"Efficient Mining of Closed Repetitive Gapped
//! Subsequences from a Sequence Database"*, ICDE 2009:
//!
//! * the **repetitive support** measure — the maximum number of pairwise
//!   non-overlapping instances of a gapped subsequence across *and within*
//!   the sequences of a database (Definitions 2.2–2.5),
//! * the **instance growth** operation `INSgrow` and the support computation
//!   routine `supComp` (Algorithms 1 and 2),
//! * **GSgrow** — depth-first mining of *all* frequent repetitive gapped
//!   subsequences (Algorithm 3),
//! * **CloGSgrow** — mining of *closed* frequent patterns using the *closure
//!   checking* (Theorem 4) and *landmark border checking* (Theorem 5)
//!   strategies (Algorithm 4),
//! * the case-study **post-processing** pipeline of §IV-B (density filter,
//!   maximality filter, ranking by length),
//! * the extensions the paper's conclusion sketches: gap/window-constrained
//!   mining ([`constraints`]), top-k mining ([`Miner::top_k`]), and maximal
//!   pattern mining ([`maximal`]).
//!
//! Every run walks the pattern tree through one DFS driver ([`batch`]):
//! solo runs, parallel runs and request batches all step the same
//! explicit-stack walker, and every one of them delivers its patterns to a
//! [`PatternSink`].
//!
//! # Quick start — prepare once, query many
//!
//! The engine separates the query-independent setup (interning, the §III-D
//! inverted event index, the frequent-event counts) from per-query
//! execution. [`PreparedDb::new`] performs the setup exactly once into an
//! immutable, `Arc`-shareable snapshot; the [`Miner`] builder then
//! describes and runs queries against it, filling in one [`MiningRequest`]
//! — the only description of a run. Mode (all/closed/maximal), gap and
//! window constraints, top-k ranking ([`MiningRequest::top_k`], the only
//! way to ask for it), length/pattern caps, support-set retention, pruning
//! ablations, and sequential/parallel execution are orthogonal options
//! that combine freely:
//!
//! ```
//! use seqdb::SequenceDatabase;
//! use rgs_core::{GapConstraints, Miner, Mode, PreparedDb, repetitive_support};
//!
//! // Example 1.1 of the paper.
//! let db = SequenceDatabase::from_str_rows(&["AABCDABB", "ABCD"]);
//!
//! // Repetitive support counts repetitions within sequences, too:
//! let ab = db.pattern_from_str("AB").unwrap();
//! let cd = db.pattern_from_str("CD").unwrap();
//! assert_eq!(repetitive_support(&db, &ab), 4);
//! assert_eq!(repetitive_support(&db, &cd), 2);
//!
//! // Phase 1: prepare once. Phase 2: every query borrows the snapshot.
//! let prepared = PreparedDb::new(&db);
//! let all = prepared.miner().min_sup(2).mode(Mode::All).run();
//! let closed = prepared.miner().min_sup(2).mode(Mode::Closed).run();
//! assert!(closed.patterns.len() <= all.patterns.len());
//!
//! // Parallel execution fans the DFS seeds across scoped threads and
//! // merges deterministically — the output is bit-identical:
//! let parallel = prepared
//!     .miner()
//!     .min_sup(2)
//!     .mode(Mode::Closed)
//!     .threads(4)
//!     .run();
//! assert_eq!(closed.patterns, parallel.patterns);
//!
//! // Orthogonal options compose — e.g. gap-constrained top-k mining:
//! let best = prepared
//!     .miner()
//!     .min_sup(1)
//!     .mode(Mode::Closed)
//!     .constraints(GapConstraints::max_gap(2))
//!     .top_k(3)
//!     .min_len(2)
//!     .run();
//! assert!(best.len() <= 3);
//! ```
//!
//! One-shot callers can skip phase 1: [`Miner::new`]`(&db)` is shorthand
//! for `PreparedDb::new(&db).miner()`, so it too builds the index once and
//! every run of that miner reuses it.
//!
//! # Snapshots — zero-copy cold starts
//!
//! A [`PreparedDb`] serializes its corpus into a **single image file**
//! ([`PreparedDb::write_snapshot`]): the columnar event store and the
//! catalog. Reopening ([`PreparedDb::open_snapshot`]) `mmap`s the file,
//! runs the checks of `rgs-mine snapshot verify` (a full-file checksum and
//! every invariant of the header and its regions) on the mapped bytes,
//! maps the store as borrowed slices over the mapping — no re-tokenizing,
//! no copies — and builds the inverted index from it with the builder
//! [`PreparedDb::new`] uses, so a reopened preparation equals the
//! in-memory one. The format is specified byte by byte in
//! [`seqdb::snapshot`] and `ARCHITECTURE.md`:
//!
//! ```
//! use seqdb::SequenceDatabase;
//! use rgs_core::{Mode, PreparedDb};
//!
//! let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
//!
//! // Prepare once, persist once.
//! let prepared = PreparedDb::new(&db);
//! let path = std::env::temp_dir().join(format!("rgs-lib-doc-{}.snap", std::process::id()));
//! let bytes_on_disk = prepared.write_snapshot(&path)?;
//! // The image holds the store verbatim; the index is built at open.
//! assert!(bytes_on_disk as usize >= prepared.database().store().heap_bytes());
//!
//! // Cold start: open the image and query it.
//! let reopened = PreparedDb::open_snapshot(&path)?;
//! let cold = reopened.miner().min_sup(2).mode(Mode::Closed).run();
//! assert_eq!(cold.patterns, prepared.miner().min_sup(2).mode(Mode::Closed).run().patterns);
//! std::fs::remove_file(&path)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Streaming
//!
//! Results can be consumed incrementally through a [`PatternSink`]: the
//! walk pushes each pattern as it finds it, and the sink cancels the rest
//! of the search by returning [`ControlFlow::Break`](std::ops::ControlFlow)
//! — the memory-bounded path for long DNA/log sequences. Closures are
//! sinks, and [`BudgetSink`] / [`DeadlineSink`] bound a run by count or by
//! wall-clock time:
//!
//! ```
//! use std::ops::ControlFlow;
//! use seqdb::SequenceDatabase;
//! use rgs_core::{BudgetSink, CollectSink, MinedPattern, Miner, Mode};
//!
//! let db = SequenceDatabase::from_str_rows(&["AABCDABB", "ABCD"]);
//! let miner = Miner::new(&db).min_sup(2).mode(Mode::All);
//!
//! // A sink sees patterns as they are found and can cancel.
//! let mut count = 0usize;
//! let report = miner.run_with_sink(&mut |_p: MinedPattern| {
//!     count += 1;
//!     if count < 5 { ControlFlow::Continue(()) } else { ControlFlow::Break(()) }
//! });
//! assert_eq!(report.emitted, count);
//! assert!(report.cancelled);
//!
//! // The first five patterns, and no more search than it takes to find them.
//! let mut first_five = BudgetSink::new(CollectSink::new(), 5);
//! miner.run_with_sink(&mut first_five);
//! assert_eq!(first_five.into_inner().patterns(), &miner.run().patterns[..5]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod canonical;
mod clogsgrow;
pub mod closure;
pub mod constrained;
pub mod constraints;
pub mod engine;
pub mod growth;
mod gsgrow;
pub mod instance;
pub mod instbuf;
pub mod json;
pub mod kernel;
pub mod maximal;
mod parallel;
pub mod pattern;
pub mod postprocess;
pub mod prepared;
pub mod reference;
pub mod result;
pub mod sink;
pub mod snapshot;
pub mod support;
mod topk;

pub use batch::MiningResult;
pub use canonical::{canonical_key, parse_mode, parse_request_body, RequestBody};
pub use constrained::constrained_support;
pub use constraints::GapConstraints;
pub use engine::{ExecutionPolicy, Miner, MiningReport, MiningRequest, Mode, DEFAULT_TOP_K};
pub use growth::{repetitive_support, SupportComputer};
pub use instance::{Instance, Landmark};
pub use instbuf::InstanceBuffer;
pub use maximal::is_maximal;
pub use pattern::Pattern;
pub use postprocess::{postprocess, PostProcessConfig};
pub use prepared::{PreparedDb, ShardFootprint};
pub use result::{sort_patterns_for_report, MinedPattern, MiningOutcome, MiningStats};
pub use seqdb::SnapshotError;
pub use sink::{BudgetSink, CollectSink, CountSink, DeadlineSink, PatternSink};
pub use support::SupportSet;
