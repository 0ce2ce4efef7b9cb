//! # rgs-bench — experiment harness for the ICDE'09 evaluation
//!
//! This crate regenerates every figure of the paper's performance study
//! (Figures 2–6), the Table I semantics comparison, the baseline runtime
//! comparison, and the §IV-B case study, on the synthetic stand-ins provided
//! by the `synthgen` crate.
//!
//! The harness is organized as:
//!
//! * [`datasets`] — the per-experiment dataset presets (paper-sized and
//!   scaled-down),
//! * [`runner`] — a uniform way to run each miner and record runtime and
//!   pattern counts,
//! * [`report`] — small table/markdown/JSON reporting utilities,
//! * [`experiments`] — one function per experiment, returning a
//!   [`report::ExperimentReport`],
//! * [`prepared_bench`] — the growth-kernel and batch-engine suites behind
//!   `BENCH_growth_kernel.json` and `BENCH_batch.json` at the repository
//!   root, with the regression floors CI checks, runnable via
//!   `cargo run --release -p rgs-bench --bin prepared_bench`.
//!
//! End-to-end timings, footprints and cold starts are measured by the
//! repository benchmark in `perfbench/`, which builds its corpora from
//! [`datasets`] and checks every answer against pinned ones.
//!
//! Absolute runtimes are hardware-dependent; what the harness is expected to
//! reproduce is the *shape* of every figure: the closed miner reports far
//! fewer patterns and stays tractable at thresholds where mining all
//! patterns blows up, runtimes grow with the number of sequences and with
//! the average sequence length, and the case study recovers the long
//! end-to-end behaviour plus the lock→unlock micro-pattern.
//!
//! # Example — check a batch report against its floor
//!
//! Dataset generation and mining are too heavy for a doctest (the real
//! runs live behind the `prepared_bench` binary); the report types are
//! plain data, render hand-rolled JSON, and carry their own floor check:
//!
//! ```
//! use rgs_bench::prepared_bench::{check_batch_floor, BatchReport, BatchWorkload};
//!
//! let report = BatchReport {
//!     scale: "dev".into(),
//!     baseline: "the same requests mined one-by-one".into(),
//!     workloads: vec![BatchWorkload {
//!         dataset: "QUEST C10T8S8I8: 2000 sequences".into(),
//!         requests: 5,
//!         min_sups: vec![40, 30, 20, 15, 10],
//!         one_by_one_seconds: 0.50,
//!         batched_seconds: 0.20,
//!         batch_speedup: 2.5,
//!         output_identical: true,
//!     }],
//! };
//! let json = report.to_json();
//! assert!(json.contains("\"benchmark\": \"batch_engine\""));
//! assert_eq!(json.matches('{').count(), json.matches('}').count());
//! assert!(check_batch_floor(&report, 1.2).is_ok());
//! assert!(check_batch_floor(&report, 3.0).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod prepared_bench;
pub mod report;
pub mod runner;

pub use report::{ExperimentReport, ReportRow};
pub use runner::{run_miner, run_miner_on, MinerKind, RunRecord};
