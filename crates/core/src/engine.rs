//! The unified mining engine: one entry point for every workload.
//!
//! The paper defines a single search skeleton — instance growth embedded in
//! a depth-first pattern growth — that GSgrow, CloGSgrow, and every
//! extension (top-k, maximal, gap-constrained) specialize. This module
//! exposes that skeleton through one composable API; every run walks it
//! through the one DFS driver in [`crate::batch`]:
//!
//! * [`Miner`] — a request bound to a database: pick a support threshold,
//!   a [`Mode`], optional [`GapConstraints`], an optional top-k ranking,
//!   caps and ablation switches, then run it — as often as you like — to a
//!   [`MiningOutcome`] with [`Miner::run`], or through a [`PatternSink`]
//!   with [`Miner::run_with_sink`] for memory-bounded consumption and
//!   cooperative cancellation.
//! * [`MiningRequest`] — the plain-data description of a run, and the
//!   only one: every option is orthogonal, so combinations such as
//!   gap-constrained top-k or constrained maximal compose for free.
//!
//! # Example
//!
//! ```
//! use seqdb::SequenceDatabase;
//! use rgs_core::{GapConstraints, Miner, Mode};
//!
//! let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
//!
//! // Closed mining (CloGSgrow), the paper's headline algorithm:
//! let closed = Miner::new(&db).min_sup(2).mode(Mode::Closed).run();
//! assert!(!closed.is_empty());
//!
//! // A previously impossible combination: gap-constrained top-k.
//! let constrained_topk = Miner::new(&db)
//!     .min_sup(1)
//!     .mode(Mode::Closed)
//!     .constraints(GapConstraints::max_gap(2))
//!     .top_k(5)
//!     .run();
//! assert!(constrained_topk.len() <= 5);
//! ```

use std::sync::Arc;
use std::time::Instant;

use seqdb::SequenceDatabase;

use crate::batch::run_solo;
use crate::constraints::GapConstraints;
use crate::prepared::{PreparedDb, PreparedRef};
use crate::result::{MiningOutcome, MiningStats};
use crate::sink::{CollectSink, PatternSink};

/// The `k` of a request body or `rgs-mine` command that asks for top-k
/// mining (`"mode": "top-k"`, `--mode top-k`, `rgs-mine topk`) without
/// giving `k` (see [`crate::parse_request_body`]).
pub const DEFAULT_TOP_K: usize = 10;

/// Which pattern family a mining run reports.
///
/// Modes compose orthogonally with every other [`MiningRequest`] option:
/// constraints, top-k ranking, caps, support-set retention, and the
/// landmark-pruning ablation all apply to every mode. Ranking is not a
/// mode: [`MiningRequest::top_k`] ranks any of them, and the TSP-style
/// top-k of closed patterns is [`Mode::Closed`] with `top_k` set (the wire
/// spelling `"top-k"` reads as exactly that).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Every frequent pattern (GSgrow, Algorithm 3).
    All,
    /// Closed frequent patterns (CloGSgrow, Algorithm 4) — the paper's
    /// headline algorithm and the default.
    #[default]
    Closed,
    /// Maximal frequent patterns: the subsumption frontier of the closed
    /// set (no frequent proper super-pattern).
    Maximal,
}

/// How a mining run executes: on the calling thread, or fanned out across
/// scoped worker threads.
///
/// Parallel execution spreads the frequent single-event seeds — the roots of
/// the first-level DFS subtrees, which are fully independent — across
/// `std::thread::scope` workers. Each worker mines its subtrees into a
/// local buffer and the buffers are merged **in seed order**, so the
/// reported pattern list is bit-identical to the sequential one in every
/// mode.
///
/// Ranked runs ([`MiningRequest::top_k`]) additionally share the dynamic
/// support floor across workers through an atomic. They return the
/// sequential patterns, but their `visited` and `instance_growths`
/// counters depend on the thread schedule: how far a seed prunes depends
/// on which floors the other seeds have published by then.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionPolicy {
    /// Everything runs on the calling thread (the default). This is also
    /// the only mode in which a [`PatternSink`] observes patterns
    /// incrementally during the search.
    #[default]
    Sequential,
    /// Seed subtrees are mined on up to `threads` scoped worker threads
    /// (`0` means one worker per available CPU). Results are buffered and
    /// merged deterministically; sinks observe them only after the merge.
    Parallel {
        /// Worker-thread count; `0` = `std::thread::available_parallelism`.
        threads: usize,
    },
}

impl ExecutionPolicy {
    /// The number of worker threads this policy resolves to (at least 1).
    pub fn effective_threads(&self) -> usize {
        match *self {
            ExecutionPolicy::Sequential => 1,
            ExecutionPolicy::Parallel { threads: 0 } => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            ExecutionPolicy::Parallel { threads } => threads.max(1),
        }
    }
}

/// The plain-data description of one mining run. Build it through
/// [`Miner`], or construct it directly and bind it with
/// [`Miner::with_request`].
#[derive(Debug, Clone, PartialEq)]
pub struct MiningRequest {
    /// Support threshold: only patterns with (constrained) repetitive
    /// support `>= min_sup` are considered. Under top-k ranking this acts
    /// as the hard floor below which patterns never qualify.
    pub min_sup: u64,
    /// Which pattern family to report.
    pub mode: Mode,
    /// Gap/window constraints on instances ([`GapConstraints::unbounded`]
    /// reproduces the paper's unconstrained semantics exactly).
    pub constraints: GapConstraints,
    /// Rank the result by support and keep only the best `k` patterns.
    /// `None` means report everything.
    pub top_k: Option<usize>,
    /// Only patterns of at least this length are reported (0 = no filter).
    pub min_len: usize,
    /// Optional cap on pattern length explored by the DFS.
    pub max_pattern_length: Option<usize>,
    /// Optional cap on the number of reported patterns; hitting it marks
    /// the outcome as truncated. Applied uniformly across all modes.
    pub max_patterns: Option<usize>,
    /// Attach the leftmost support set to every reported pattern.
    pub keep_support_sets: bool,
    /// Ablation switch: disable the landmark border pruning of Theorem 5
    /// (closed mining only; the mined set is identical either way).
    pub use_landmark_pruning: bool,
    /// Sequential or parallel execution. The reported patterns are
    /// bit-identical either way; only wall-clock time (and incremental sink
    /// delivery) differ.
    pub execution: ExecutionPolicy,
}

impl Default for MiningRequest {
    fn default() -> Self {
        Self {
            min_sup: 2,
            mode: Mode::default(),
            constraints: GapConstraints::unbounded(),
            top_k: None,
            min_len: 0,
            max_pattern_length: None,
            max_patterns: None,
            keep_support_sets: false,
            use_landmark_pruning: true,
            execution: ExecutionPolicy::Sequential,
        }
    }
}

impl MiningRequest {
    /// The request's `mode`, as is. Kept only because perfbench's trace
    /// calls it; it goes with the next change to the benchmark.
    pub fn base_mode(&self) -> Mode {
        self.mode
    }
}

/// Where a mining run gets its (prepared) database from.
///
/// `Raw` is the lazy path of [`Miner::new`]: the query-independent index
/// is built on every run.
/// `Prepared` holds a [`PreparedDb`] snapshot (a clone of one is two `Arc`
/// bumps), so runs skip the preparation entirely.
#[derive(Debug, Clone)]
enum DbHandle<'a> {
    Raw(&'a SequenceDatabase),
    Prepared(PreparedDb),
}

impl DbHandle<'_> {
    /// Runs `f` on the prepared view of this database: a raw database's
    /// index is built for the call, a snapshot lends its own.
    fn with_view<R>(&self, f: impl FnOnce(PreparedRef<'_>) -> R) -> R {
        match self {
            DbHandle::Raw(db) => f(PreparedRef {
                db,
                index: &db.inverted_index(),
            }),
            DbHandle::Prepared(prepared) => f(prepared.as_prepared_ref()),
        }
    }
}

/// A mining request bound to one database: the canonical entry point of
/// this crate. Set the request with the builder methods, then run it any
/// number of times. See the [module docs](self) for an example.
#[derive(Debug, Clone)]
pub struct Miner<'a> {
    db: DbHandle<'a>,
    request: MiningRequest,
}

impl<'a> Miner<'a> {
    /// Starts a builder with default options: `min_sup = 2`, closed mining,
    /// no constraints, no ranking, no caps, sequential execution.
    ///
    /// This path prepares the database lazily on every run. When the same
    /// database serves several queries, prepare once — [`Miner::prepare`]
    /// or [`PreparedDb::new`] — and build miners with
    /// [`Miner::from_prepared`] / [`PreparedDb::miner`] instead.
    pub fn new(db: &'a SequenceDatabase) -> Self {
        Self {
            db: DbHandle::Raw(db),
            request: MiningRequest::default(),
        }
    }

    /// Starts a builder executing against a prepared snapshot: runs share
    /// `prepared`'s arenas and skip all per-run preparation.
    pub fn from_prepared(prepared: &'a PreparedDb) -> Self {
        Self {
            db: DbHandle::Prepared(prepared.clone()),
            request: MiningRequest::default(),
        }
    }

    /// Starts a builder co-owning a shared prepared snapshot — the handle
    /// for concurrent multi-query traffic (the returned miner is `'static`
    /// and can move into worker threads).
    pub fn from_shared(prepared: Arc<PreparedDb>) -> Miner<'static> {
        Miner {
            db: DbHandle::Prepared(Arc::unwrap_or_clone(prepared)),
            request: MiningRequest::default(),
        }
    }

    /// Starts a builder over a snapshot image on disk (the cold-start
    /// path): opens and validates the file written by
    /// [`PreparedDb::write_snapshot`], mapping its store zero-copy and
    /// building the index from it instead of re-tokenizing. The returned
    /// miner co-owns the snapshot like [`Miner::from_shared`], so it is
    /// `'static` and its output is bit-identical to mining the original
    /// in-memory preparation.
    pub fn from_snapshot(
        path: impl AsRef<std::path::Path>,
    ) -> Result<Miner<'static>, seqdb::SnapshotError> {
        Ok(Miner::from_shared(Arc::new(PreparedDb::open_snapshot(
            path,
        )?)))
    }

    /// Prepares the underlying database into an owned [`PreparedDb`]
    /// snapshot (the two-phase flow: prepare once, then run many queries
    /// against it via [`PreparedDb::miner`]). The current builder options
    /// are not carried over; they describe queries, not the snapshot.
    pub fn prepare(&self) -> PreparedDb {
        match &self.db {
            DbHandle::Raw(db) => PreparedDb::new(db),
            DbHandle::Prepared(prepared) => prepared.clone(),
        }
    }

    /// Replaces the whole request in one piece — the handle for callers
    /// that assemble a [`MiningRequest`] elsewhere (the serve layer builds
    /// one from each wire body) rather than through the fluent setters.
    pub fn with_request(mut self, request: MiningRequest) -> Self {
        self.request = request;
        self
    }

    /// Sets the support threshold (floor, under top-k ranking).
    pub fn min_sup(mut self, min_sup: u64) -> Self {
        self.request.min_sup = min_sup;
        self
    }

    /// Sets the pattern family to report.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.request.mode = mode;
        self
    }

    /// Applies gap/window constraints to instances.
    pub fn constraints(mut self, constraints: GapConstraints) -> Self {
        self.request.constraints = constraints;
        self
    }

    /// Ranks the result by support and keeps only the best `k` patterns.
    pub fn top_k(mut self, k: usize) -> Self {
        self.request.top_k = Some(k);
        self
    }

    /// Only reports patterns of at least this length.
    pub fn min_len(mut self, min_len: usize) -> Self {
        self.request.min_len = min_len;
        self
    }

    /// Caps the pattern length explored by the DFS.
    pub fn max_pattern_length(mut self, max_len: usize) -> Self {
        self.request.max_pattern_length = Some(max_len);
        self
    }

    /// Caps the number of reported patterns (marks the outcome truncated
    /// when hit).
    pub fn max_patterns(mut self, cap: usize) -> Self {
        self.request.max_patterns = Some(cap);
        self
    }

    /// Attaches the leftmost support set to every reported pattern.
    pub fn keep_support_sets(mut self) -> Self {
        self.request.keep_support_sets = true;
        self
    }

    /// Enables or disables the landmark border pruning of Theorem 5
    /// (ablation switch for closed mining).
    pub fn landmark_pruning(mut self, enabled: bool) -> Self {
        self.request.use_landmark_pruning = enabled;
        self
    }

    /// Sets the execution policy (see [`ExecutionPolicy`]).
    pub fn execution(mut self, execution: ExecutionPolicy) -> Self {
        self.request.execution = execution;
        self
    }

    /// Shorthand: mine on `threads` worker threads (`<= 1` selects
    /// sequential execution, `0` is **not** auto here — use
    /// [`Miner::execution`] with [`ExecutionPolicy::Parallel`] for that).
    /// Output is bit-identical to sequential execution.
    pub fn threads(mut self, threads: usize) -> Self {
        self.request.execution = if threads <= 1 {
            ExecutionPolicy::Sequential
        } else {
            ExecutionPolicy::Parallel { threads }
        };
        self
    }

    /// The request built so far.
    pub fn request(&self) -> &MiningRequest {
        &self.request
    }

    /// Runs the request and materializes the result into a
    /// [`MiningOutcome`] (patterns in emission order, statistics, and the
    /// uniform truncation flag).
    pub fn run(&self) -> MiningOutcome {
        let mut collect = CollectSink::new();
        let report = self.run_with_sink(&mut collect);
        MiningOutcome {
            patterns: collect.into_patterns(),
            stats: report.stats,
            truncated: report.truncated,
        }
    }

    /// Runs the request, pushing every reported pattern through `sink` as
    /// it is found (incrementally for `All`/`Closed` without constraints
    /// and for constrained `All` under sequential execution; after the
    /// necessary global filter — or the deterministic parallel merge — for
    /// everything else). The sink can cancel at any emission point by
    /// returning [`ControlFlow::Break`](std::ops::ControlFlow::Break).
    pub fn run_with_sink(&self, sink: &mut dyn PatternSink) -> MiningReport {
        let start = Instant::now();
        let mut report = self
            .db
            .with_view(|prepared| run_solo(prepared, &self.request, sink));
        report.stats.set_elapsed(start.elapsed());
        report
    }
}

/// What a streamed run reports back: statistics plus how the run ended.
#[derive(Debug, Clone, PartialEq)]
pub struct MiningReport {
    /// Search statistics (DFS nodes, instance growths, pruning counters,
    /// elapsed wall-clock time — recorded uniformly for every mode).
    pub stats: MiningStats,
    /// Number of patterns handed to the sink.
    pub emitted: usize,
    /// `true` when the run stopped because `max_patterns` was reached.
    pub truncated: bool,
    /// `true` when the sink cancelled the run via
    /// [`ControlFlow::Break`](std::ops::ControlFlow::Break).
    pub cancelled: bool,
}

impl MiningReport {
    /// Serializes the report as a JSON object (hand-rolled — the workspace
    /// carries no serialization dependency; see [`crate::json`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"emitted\": {}, \"truncated\": {}, \"cancelled\": {}, \"stats\": \
             {{\"visited\": {}, \"instance_growths\": {}, \"non_closed_filtered\": {}, \
             \"landmark_border_prunes\": {}, \"elapsed_seconds\": {:.6}}}}}",
            self.emitted,
            self.truncated,
            self.cancelled,
            self.stats.visited,
            self.stats.instance_growths,
            self.stats.non_closed_filtered,
            self.stats.landmark_border_prunes,
            self.stats.elapsed_seconds,
        )
    }
}

#[cfg(test)]
mod tests {

    use std::ops::ControlFlow;

    use super::*;
    use crate::constrained::constrained_support;
    use crate::reference::pattern_set;
    use crate::result::MinedPattern;

    fn constrained_all(
        db: &SequenceDatabase,
        min_sup: u64,
        constraints: GapConstraints,
    ) -> MiningOutcome {
        Miner::new(db)
            .min_sup(min_sup)
            .mode(Mode::All)
            .constraints(constraints)
            .run()
    }

    fn constrained_closed(
        db: &SequenceDatabase,
        min_sup: u64,
        constraints: GapConstraints,
    ) -> MiningOutcome {
        Miner::new(db)
            .min_sup(min_sup)
            .mode(Mode::Closed)
            .constraints(constraints)
            .run()
    }

    use crate::sink::{BudgetSink, CountSink};

    /// Every pattern family a request can ask for: the three modes, and
    /// ranked closed mining at the default `k`.
    const FAMILIES: [(Mode, Option<usize>); 4] = [
        (Mode::All, None),
        (Mode::Closed, None),
        (Mode::Maximal, None),
        (Mode::Closed, Some(DEFAULT_TOP_K)),
    ];

    fn family(mode: Mode, top_k: Option<usize>) -> MiningRequest {
        MiningRequest {
            mode,
            top_k,
            ..MiningRequest::default()
        }
    }

    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    fn example_1_1() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["AABCDABB", "ABCD"])
    }

    #[test]
    fn mode_top_k_defaults_to_ranked_closed_mining() {
        let db = running_example();
        let body = crate::parse_request_body(r#"{"min_sup":1,"mode":"top-k","min_len":2}"#)
            .expect("valid body");
        let via_mode = Miner::new(&db).with_request(body.request).run();
        let via_option = Miner::new(&db)
            .min_sup(1)
            .mode(Mode::Closed)
            .top_k(DEFAULT_TOP_K)
            .min_len(2)
            .run();
        assert_eq!(via_mode.patterns, via_option.patterns);
        assert!(via_mode.len() <= DEFAULT_TOP_K);
    }

    #[test]
    fn constrained_top_k_composes() {
        // The combination the legacy API could not express.
        let db = running_example();
        let constraints = GapConstraints::max_gap(1);
        let outcome = Miner::new(&db)
            .min_sup(1)
            .mode(Mode::Closed)
            .constraints(constraints)
            .top_k(4)
            .min_len(2)
            .run();
        assert!(outcome.len() <= 4);
        assert!(!outcome.is_empty());
        // Every reported pattern carries its true *constrained* support and
        // the list is sorted by descending support.
        for mp in &outcome.patterns {
            assert_eq!(
                mp.support,
                constrained_support(&db, mp.pattern.events(), constraints)
            );
            assert!(mp.pattern.len() >= 2);
        }
        for w in outcome.patterns.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
        // And it agrees with ranking the full constrained closed set.
        let mut full = constrained_closed(&db, 1, constraints);
        full.patterns.retain(|mp| mp.pattern.len() >= 2);
        full.sort_for_report();
        full.patterns.truncate(4);
        assert_eq!(outcome.patterns, full.patterns);
    }

    #[test]
    fn constrained_maximal_composes() {
        let db = running_example();
        let constraints = GapConstraints::max_gap(2);
        let maximal = Miner::new(&db)
            .min_sup(2)
            .mode(Mode::Maximal)
            .constraints(constraints)
            .run();
        let all = constrained_all(&db, 2, constraints);
        assert!(!maximal.is_empty());
        // Frontier property within the constrained-frequent set.
        for mp in &maximal.patterns {
            assert!(all.contains(&mp.pattern));
            for other in &all.patterns {
                assert!(!other.pattern.is_proper_superpattern_of(&mp.pattern));
            }
        }
        for mp in &all.patterns {
            assert!(
                maximal
                    .patterns
                    .iter()
                    .any(|m| mp.pattern == m.pattern || mp.pattern.is_subpattern_of(&m.pattern)),
                "{:?} not covered",
                mp.pattern
            );
        }
    }

    #[test]
    fn streaming_sink_sees_patterns_incrementally_and_can_cancel() {
        let db = running_example();
        let mut seen = Vec::new();
        let report =
            Miner::new(&db)
                .min_sup(2)
                .mode(Mode::All)
                .run_with_sink(&mut |mp: MinedPattern| {
                    seen.push(mp);
                    if seen.len() == 3 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
        assert_eq!(seen.len(), 3);
        assert_eq!(report.emitted, 3);
        assert!(report.cancelled);
        assert!(!report.truncated);
        // The first three patterns match the materialized run's order.
        let full = Miner::new(&db).min_sup(2).mode(Mode::All).run();
        assert_eq!(&full.patterns[..3], seen.as_slice());
    }

    #[test]
    fn budget_sink_bounds_emission() {
        let db = running_example();
        let mut budget = BudgetSink::new(CountSink::new(), 4);
        let report = Miner::new(&db)
            .min_sup(1)
            .mode(Mode::All)
            .run_with_sink(&mut budget);
        assert!(report.cancelled);
        assert_eq!(budget.into_inner().count, 4);
    }

    #[test]
    fn ranked_runs_propagate_basis_truncation() {
        let db = running_example();
        // The constrained-frequent basis at min_sup 1 holds far more than 3
        // patterns, so capping the basis makes the ranking best-effort — a
        // better pattern later in DFS order may never have been seen. The
        // truncated flag must say so even though k patterns fit under the cap.
        let outcome = Miner::new(&db)
            .min_sup(1)
            .mode(Mode::Closed)
            .constraints(GapConstraints::max_gap(3))
            .top_k(2)
            .max_patterns(3)
            .run();
        assert!(outcome.truncated, "basis truncation must propagate");
        assert!(outcome.len() <= 2);
    }

    #[test]
    fn uniform_truncation_across_modes() {
        let db = running_example();
        for mode in [Mode::All, Mode::Closed, Mode::Maximal] {
            let outcome = Miner::new(&db).min_sup(1).mode(mode).max_patterns(2).run();
            assert!(outcome.truncated, "{mode:?} did not truncate");
            assert!(outcome.len() <= 2, "{mode:?} exceeded the cap");
        }
        // Constrained modes truncate too.
        let constrained = Miner::new(&db)
            .min_sup(1)
            .mode(Mode::Closed)
            .constraints(GapConstraints::max_gap(3))
            .max_patterns(2)
            .run();
        assert!(constrained.truncated);
        assert!(constrained.len() <= 2);
    }

    #[test]
    fn elapsed_is_recorded_for_every_mode() {
        let db = running_example();
        let requests: Vec<Miner<'_>> = vec![
            Miner::new(&db).min_sup(2).mode(Mode::All),
            Miner::new(&db).min_sup(2).mode(Mode::Closed),
            Miner::new(&db).min_sup(2).mode(Mode::Maximal),
            Miner::new(&db).min_sup(2).top_k(DEFAULT_TOP_K),
            Miner::new(&db).min_sup(2).top_k(0),
            Miner::new(&db)
                .min_sup(2)
                .mode(Mode::Closed)
                .constraints(GapConstraints::max_gap(2)),
            Miner::new(&db)
                .min_sup(2)
                .mode(Mode::Maximal)
                .constraints(GapConstraints::max_gap(2))
                .top_k(3),
        ];
        for miner in requests {
            let request = miner.request().clone();
            let outcome = miner.run();
            assert!(
                outcome.stats.elapsed_seconds > 0.0,
                "elapsed not recorded for {request:?}"
            );
        }
    }

    #[test]
    fn min_len_filter_applies_to_unranked_modes() {
        let db = running_example();
        let outcome = Miner::new(&db).min_sup(2).mode(Mode::All).min_len(2).run();
        assert!(!outcome.is_empty());
        for mp in &outcome.patterns {
            assert!(mp.pattern.len() >= 2);
        }
    }

    #[test]
    fn session_is_reusable() {
        let db = running_example();
        let miner = Miner::new(&db).min_sup(2).mode(Mode::Closed);
        let a = miner.run();
        let b = miner.run();
        assert!(!a.is_empty());
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(a.stats.visited, b.stats.visited);
        assert_eq!(miner.request().min_sup, 2);
    }

    #[test]
    fn keep_support_sets_composes_with_ranking() {
        let db = running_example();
        let outcome = Miner::new(&db)
            .min_sup(1)
            .mode(Mode::Closed)
            .top_k(3)
            .min_len(2)
            .keep_support_sets()
            .run();
        assert!(!outcome.is_empty());
        for mp in &outcome.patterns {
            let set = mp.support_set.as_ref().expect("support set requested");
            assert_eq!(set.support(), mp.support);
        }
    }

    #[test]
    fn parallel_execution_is_bit_identical_across_modes() {
        let db = running_example();
        for (mode, top_k) in FAMILIES {
            for constraints in [GapConstraints::unbounded(), GapConstraints::max_gap(2)] {
                let sequential = Miner::new(&db)
                    .with_request(family(mode, top_k))
                    .min_sup(2)
                    .constraints(constraints)
                    .keep_support_sets()
                    .run();
                for threads in [2, 3, 8] {
                    let parallel = Miner::new(&db)
                        .with_request(family(mode, top_k))
                        .min_sup(2)
                        .constraints(constraints)
                        .keep_support_sets()
                        .threads(threads)
                        .run();
                    assert_eq!(
                        sequential.patterns,
                        parallel.patterns,
                        "{mode:?} top_k {top_k:?} with {} diverges at {threads} threads",
                        constraints.describe()
                    );
                    assert_eq!(sequential.truncated, parallel.truncated);
                }
            }
        }
    }

    #[test]
    fn parallel_execution_respects_caps_and_truncation() {
        let db = running_example();
        for mode in [Mode::All, Mode::Closed, Mode::Maximal] {
            let sequential = Miner::new(&db).min_sup(1).mode(mode).max_patterns(4).run();
            let parallel = Miner::new(&db)
                .min_sup(1)
                .mode(mode)
                .max_patterns(4)
                .threads(4)
                .run();
            assert_eq!(sequential.patterns, parallel.patterns, "{mode:?}");
            assert!(parallel.truncated, "{mode:?}");
        }
    }

    #[test]
    fn prepared_db_reuse_matches_fresh_runs() {
        let db = running_example();
        let prepared = Miner::new(&db).prepare();
        for min_sup in [1, 2, 3] {
            for (mode, top_k) in FAMILIES {
                let request = MiningRequest {
                    min_sup,
                    ..family(mode, top_k)
                };
                let fresh = Miner::new(&db).with_request(request.clone()).run();
                let reused = prepared.miner().with_request(request).run();
                assert_eq!(
                    fresh.patterns, reused.patterns,
                    "{mode:?} top_k {top_k:?} at min_sup {min_sup}"
                );
            }
        }
    }

    #[test]
    fn shared_prepared_db_serves_concurrent_queries() {
        let db = running_example();
        let prepared = std::sync::Arc::new(PreparedDb::new(&db));
        let expected = prepared.miner().min_sup(2).mode(Mode::Closed).run();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = std::sync::Arc::clone(&prepared);
                std::thread::spawn(move || {
                    Miner::from_shared(shared)
                        .min_sup(2)
                        .mode(Mode::Closed)
                        .run()
                        .patterns
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), expected.patterns);
        }
    }

    #[test]
    fn execution_policy_resolves_thread_counts() {
        assert_eq!(ExecutionPolicy::Sequential.effective_threads(), 1);
        assert_eq!(
            ExecutionPolicy::Parallel { threads: 5 }.effective_threads(),
            5
        );
        assert!(ExecutionPolicy::Parallel { threads: 0 }.effective_threads() >= 1);
        let req = Miner::new(&running_example()).threads(1).request().clone();
        assert_eq!(req.execution, ExecutionPolicy::Sequential);
    }

    #[test]
    fn mining_report_serializes_to_json() {
        let db = running_example();
        let mut sink = CountSink::new();
        let report = Miner::new(&db)
            .min_sup(2)
            .mode(Mode::Closed)
            .run_with_sink(&mut sink);
        let json = report.to_json();
        assert!(json.contains("\"emitted\""));
        assert!(json.contains("\"visited\""));
        assert!(json.contains("\"elapsed_seconds\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON: {json}"
        );
    }

    #[test]
    fn unbounded_constraints_equal_no_constraints() {
        let db = example_1_1();
        let plain = Miner::new(&db).min_sup(2).mode(Mode::Closed).run();
        let unbounded = Miner::new(&db)
            .min_sup(2)
            .mode(Mode::Closed)
            .constraints(GapConstraints::unbounded())
            .run();
        assert_eq!(
            pattern_set(&plain.patterns),
            pattern_set(&unbounded.patterns)
        );
    }
}
