//! The pattern-tree walk: the one DFS driver behind every mining run.
//!
//! The paper has one search skeleton — instance growth embedded in a
//! depth-first pattern growth. GSgrow (Algorithm 3) walks it, and CloGSgrow
//! (Algorithm 4) walks the same tree with closure checking (Theorem 4) and
//! landmark border checking (Theorem 5) added. This module is the only code
//! in the crate that walks that tree:
//!
//! * [`crate::Miner::run_with_sink`] is a batch of one whose member
//!   forwards to the caller's sink, so the sink sees patterns as they are
//!   found and can cancel at any emission;
//! * [`crate::ExecutionPolicy::Parallel`] fans the walker out per seed
//!   subtree, each seed buffering into a [`CollectSink`], and merges the
//!   buffers in seed order;
//! * [`crate::PreparedDb::batch`] runs one walk per group of compatible
//!   requests, always on the calling thread.
//!
//! # One walk, many requests
//!
//! The growth DFS is anti-monotone in `min_sup` (Theorem 1): the search
//! tree of a request at threshold `t` is a subtree of the search tree at
//! any lower threshold. A whole batch of requests over one
//! [`PreparedDb`] can therefore be served by a *single*
//! pass at the batch's minimum threshold, routing every visited pattern to
//! each subscribed request it satisfies.
//!
//! # Grouping rules
//!
//! Requests are grouped by the *shape* of the DFS they need, not by their
//! thresholds:
//!
//! * **All-scan** — the plain GSgrow tree over one [`GapConstraints`]
//!   value. Serves unconstrained `All` streams, constrained `All` streams,
//!   the constrained basis behind constrained `Closed`/`Maximal`/ranked
//!   requests, and the unconstrained TSP-style top-k search (which walks
//!   the same tree with a dynamic per-request threshold).
//! * **Closed-scan** — the CloGSgrow tree (closure checking plus landmark
//!   border pruning), keyed by the pruning ablation switch. Serves
//!   unconstrained `Closed` streams and the closed basis behind
//!   unconstrained `Maximal` and ranked-`Maximal` requests.
//!
//! Within a group the scan runs once at `t_min`, the minimum of the
//! members' effective thresholds. Each member keeps its own per-node
//! "alive" flag: a node is alive for a member exactly when the member's
//! solo DFS would visit it (its support clears the member's threshold along
//! the whole prefix and the member's caps allow the depth). Restricting the
//! shared preorder to a member's alive nodes replays that member's solo run
//! — emissions, truncation, and work counters included — which is what pins
//! batch output bit-identical to the one-by-one loop.
//!
//! An All-scan grows a node's children one at a time, descending into each
//! before growing the next, unless a member needs the append-equal flag of
//! the whole child pass first: a Closed-scan always does (the closure
//! verdict covers append extensions), and so does an All-scan carrying a
//! closed-only top-k member.
//!
//! That eager child pass counts every candidate child's support at an
//! unconstrained node in one [`SiblingSweep`] over the node's sequences
//! when `2·steps ≤ candidates·instances` (`steps` is the suffix length the
//! sweep scans, summed in the same pass over the node's runs that builds
//! its [`RunSet`]): the counts give the append-equal flag
//! (`count == sup`), and only the children that clear `t_min` are grown.
//! Otherwise each candidate gets its own kernel pass, which stops early
//! once it cannot reach `t_min`; so does the lazy All-scan's growth of a
//! followed edge, under gap constraints too. Both are output-neutral: a
//! set below `t_min` is never followed, and a node's support is at least
//! `t_min`, so it is never append-equal. `instance_growths` counts one
//! growth per eligible candidate whichever path runs.
//!
//! The pass fills the node's child table ([`Child`]): every candidate's
//! child support (exact from `t_min` up) and the set of each child that
//! clears `t_min`. The table lives until the node closes. A followed child
//! lends its set to the open path and gets it back when its own subtree
//! closes; a child that no member follows keeps it in its slot. So while a
//! node is open, the closure check of every descendant reads the
//! ancestors' tables: the first link `P[..j] ◦ e` of each insertion chain
//! is a child of the ancestor `P[..j]`, skipped when its support is below
//! `sup(P)` and otherwise taken from the table instead of grown again. A
//! node no member grows (a top-k member at its `max_len`) fills no table;
//! checks read only strict ancestors' tables, which every path node has.
//!
//! # Why shared-floor top-k is sound (and why it is not shared)
//!
//! Top-k members keep *per-member* heaps and dynamic thresholds. Sharing a
//! single floor across subscribers would be unsound: one subscriber's
//! raised k-th-best support would prune subtrees another subscriber (with a
//! smaller `k` satisfied later, or a lower floor) still needs. The shared
//! scan only ever descends a child when *some* member's own threshold
//! admits it, so no member can starve another. The one floor that is shared
//! is a parallel run's: every seed subtree of the *same* request publishes
//! its local k-th best support, a lower bound on the global one.
//!
//! # Deadlines
//!
//! Each batch request may carry its own deadline. Its member's output is
//! wrapped in a [`DeadlineSink`], exactly like a solo run's: streaming
//! members stop at the first emission past the deadline and detach without
//! disturbing their siblings; basis and ranked members observe it at their
//! final drain.

// The mining hot path: a panic here would abort the whole run.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::time::Instant;

use seqdb::{EventId, RunSet};

use crate::closure::{CheckScratch, Child, ClosureChecker, ClosureStatus};
use crate::constraints::GapConstraints;
use crate::engine::{MiningReport, MiningRequest, Mode};
use crate::growth::{SetPool, SupportComputer};
use crate::kernel::{self, node_runs, SiblingSweep, SweepScratch};
use crate::maximal::maximal_subset;
use crate::parallel::fan_out_seeds;
use crate::pattern::Pattern;
use crate::prepared::{frequent_events, PreparedDb};
use crate::reference::closed_subset;
use crate::result::{
    report_order, sort_patterns_for_report, MinedPattern, MiningOutcome, MiningStats,
};
use crate::sink::{CollectSink, DeadlineSink, PatternSink};
use crate::support::SupportSet;

/// The outcome of one request executed through [`crate::PreparedDb::batch`]:
/// the [`MiningOutcome`] a solo [`crate::Miner::run`] would produce
/// for the same request, plus the emission-gate bookkeeping a streamed solo
/// run reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MiningResult {
    /// Patterns (in the request's own emission order), work counters, and
    /// the truncation flag — field for field what a solo run returns.
    /// `stats.elapsed_seconds` is the whole batch's wall-clock time.
    pub outcome: MiningOutcome,
    /// Number of patterns that passed this request's emission gate
    /// (the [`crate::MiningReport::emitted`] equivalent).
    pub emitted: usize,
    /// `true` when this request's deadline expired mid-run; its siblings in
    /// the batch are unaffected.
    pub cancelled: bool,
}

/// Executes `requests` against one prepared snapshot, sharing the
/// frequent-event scan and the DFS across compatible requests. `deadlines`
/// is indexed by request slot; missing entries mean no deadline.
///
/// Output contract: `results[i]` is bit-identical (patterns, supports,
/// order, truncation, work counters) to running `requests[i]` solo under
/// sequential execution, except that `elapsed_seconds` covers the whole
/// batch.
pub(crate) fn run_batch(
    prepared: &PreparedDb,
    requests: &[MiningRequest],
    deadlines: &[Option<Instant>],
) -> Vec<MiningResult> {
    let start = Instant::now();
    let mut sinks: Vec<SlotSink> = (0..requests.len())
        .map(|slot| SlotSink::new(deadlines.get(slot).copied().flatten()))
        .collect();
    let mut reports: Vec<Option<MiningReport>> = vec![None; requests.len()];

    // Group request slots by scan shape (linear scan: batches are small).
    let mut groups: Vec<(ScanKind, Vec<(usize, Shape)>)> = Vec::new();
    for (slot, request) in requests.iter().enumerate() {
        let Some((kind, shape)) = route(request) else {
            continue;
        };
        match groups.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, slots)) => slots.push((slot, shape)),
            None => groups.push((kind, vec![(slot, shape)])),
        }
    }

    let mut free: Vec<Option<&mut SlotSink>> = sinks.iter_mut().map(Some).collect();
    for (kind, slots) in groups {
        let mut members = Vec::with_capacity(slots.len());
        let mut owners = Vec::with_capacity(slots.len());
        for (slot, shape) in slots {
            let sink = free.get_mut(slot).and_then(Option::take);
            let (Some(request), Some(sink)) = (requests.get(slot), sink) else {
                continue;
            };
            let sink: &mut dyn PatternSink = sink;
            members.push(Member::new(request, shape, sink));
            owners.push(slot);
        }
        for (slot, report) in owners.into_iter().zip(walk(prepared, kind, members)) {
            if let Some(entry) = reports.get_mut(slot) {
                *entry = Some(report);
            }
        }
    }

    let elapsed = start.elapsed();
    sinks
        .into_iter()
        .zip(reports)
        .map(|(sink, report)| {
            let report = report.unwrap_or_else(empty_report);
            let mut stats = report.stats;
            stats.set_elapsed(elapsed);
            MiningResult {
                outcome: MiningOutcome {
                    patterns: sink.into_patterns(),
                    stats,
                    truncated: report.truncated,
                },
                emitted: report.emitted,
                cancelled: report.cancelled,
            }
        })
        .collect()
}

/// Runs one request, pushing every reported pattern through `sink`: a
/// batch of one under sequential execution, a per-seed fan-out merged in
/// seed order under [`crate::ExecutionPolicy::Parallel`]. Elapsed time is
/// the caller's.
pub(crate) fn run_solo(
    prepared: &PreparedDb,
    request: &MiningRequest,
    sink: &mut dyn PatternSink,
) -> MiningReport {
    let Some((kind, shape)) = route(request) else {
        return empty_report();
    };
    let mut member = Member::new(request, shape, sink);
    let threads = request.execution.effective_threads();
    if threads > 1 {
        let plan = Plan::new(prepared, kind, std::slice::from_mut(&mut member));
        return fan_out(prepared, request, &plan, member, threads);
    }
    walk(prepared, kind, vec![member])
        .pop()
        .unwrap_or_else(empty_report)
}

/// One sequential walk for a group of members; returns their reports in
/// member order.
fn walk(prepared: &PreparedDb, kind: ScanKind, members: Vec<Member<'_>>) -> Vec<MiningReport> {
    let mut scan = Scan::new(members);
    let plan = Plan::new(prepared, kind, &mut scan.members);
    plan.with_ctx(prepared, |ctx| scan.run(ctx));
    scan.members.into_iter().map(Member::finish).collect()
}

/// The parallel form of [`run_solo`]: `plan`'s seed subtrees fan out
/// through the seed queue on `threads` workers, each walked by its own
/// one-member scan that buffers what `member` would emit into a
/// [`CollectSink`], and the buffers are merged into `member` in seed order
/// — the sequential emission order.
///
/// A streaming member's buffer is gated and capped per seed (a seed can
/// never contribute more than `max_patterns` emissions), a basis member's
/// per-seed basis is capped the same way and the merged basis is capped
/// again, and a top-k member's seeds share one support floor. Counters sum
/// over every seed walked.
fn fan_out(
    prepared: &PreparedDb,
    request: &MiningRequest,
    plan: &Plan,
    mut member: Member<'_>,
    threads: usize,
) -> MiningReport {
    let eligible = member.eligible.clone();
    let shape = member.shape.clone();
    let floor = AtomicU64::new(member.floor);
    let sc = prepared.support_computer();
    let seeds = fan_out_seeds(threads, plan.events.len(), |i| {
        let mut initial = SupportSet::new();
        if let Some(&seed) = plan.events.get(i) {
            sc.initial_support_set_into(seed, &mut initial);
        }
        let mut buffer = CollectSink::new();
        let mut seed_member = Member::new(request, shape.clone(), &mut buffer);
        seed_member.shared_floor = Some(&floor);
        seed_member.set_eligible(eligible.clone());
        let mut scan = Scan::new(vec![seed_member]);
        scan.next_seed = plan.events.len();
        plan.with_ctx(prepared, |ctx| {
            scan.start_seed(ctx, i, initial);
            scan.run(ctx);
        });
        let (stats, collected) = scan
            .members
            .pop()
            .map(Member::into_seed_output)
            .unwrap_or_default();
        (stats, collected.unwrap_or_else(|| buffer.into_patterns()))
    });
    for (stats, patterns) in seeds {
        member.absorb(&stats, patterns);
    }
    member.finish()
}

/// The report of a request that never scans (ranked with `k == 0`).
fn empty_report() -> MiningReport {
    MiningReport {
        stats: MiningStats::default(),
        emitted: 0,
        truncated: false,
        cancelled: false,
    }
}

/// A batch slot's collector: a [`CollectSink`], behind a [`DeadlineSink`]
/// when the request carries a deadline.
enum SlotSink {
    Open(CollectSink),
    Timed(DeadlineSink<CollectSink>),
}

impl SlotSink {
    fn new(deadline: Option<Instant>) -> Self {
        match deadline {
            Some(deadline) => SlotSink::Timed(DeadlineSink::new(CollectSink::new(), deadline)),
            None => SlotSink::Open(CollectSink::new()),
        }
    }

    fn into_patterns(self) -> Vec<MinedPattern> {
        match self {
            SlotSink::Open(sink) => sink.into_patterns(),
            SlotSink::Timed(sink) => sink.into_inner().into_patterns(),
        }
    }
}

impl PatternSink for SlotSink {
    fn accept(&mut self, pattern: MinedPattern) -> ControlFlow<()> {
        match self {
            SlotSink::Open(sink) => sink.accept(pattern),
            SlotSink::Timed(sink) => sink.accept(pattern),
        }
    }
}

/// The DFS shape a request subscribes to. Requests with equal kinds share
/// one scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanKind {
    /// The GSgrow tree under one constraint set (unbounded constraints are
    /// canonicalized to [`GapConstraints::unbounded`] so equal-meaning
    /// values land in one group).
    All { constraints: GapConstraints },
    /// The CloGSgrow tree, keyed by the landmark-pruning ablation (the
    /// switch changes which nodes the DFS visits).
    Closed { pruning: bool },
}

/// A member's role in the scan.
#[derive(Clone)]
enum Shape {
    /// Streams through the emission gate at every alive node it reports
    /// (unconstrained `All`/`Closed`, constrained `All`).
    Stream,
    /// Collects a basis (no `min_len` filter, capped mid-search) and
    /// filters it at finish time (maximal, constrained closed / maximal,
    /// ranked-over-basis).
    Basis {
        collected: Vec<MinedPattern>,
        truncated: bool,
        /// The family the basis is filtered to at finish time: its closed
        /// or maximal subset, or the basis as is for `All`.
        family: Mode,
        /// A ranked member's `k`: the filtered basis is then `min_len`
        /// filtered, sorted for report and truncated to `k`.
        k: Option<usize>,
    },
    /// TSP-style top-k with its own dynamic threshold: the support of the
    /// worst of the best `k` patterns seen so far, which `heap` keeps.
    TopK {
        k: usize,
        closed_only: bool,
        heap: BinaryHeap<Ranked>,
    },
}

/// A top-k candidate, ordered by report rank ([`report_order`]): the top of
/// a `BinaryHeap<Ranked>` is its worst pattern, which has the heap's least
/// support.
#[derive(Clone)]
struct Ranked(MinedPattern);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        report_order(&self.0, &other.0)
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// Adds `mined` to a top-`k` heap, dropping the worst pattern when the heap
/// outgrows `k`. Report order is total and a walk reaches each pattern
/// once, so the heap ends holding exactly the best `k` patterns offered.
fn keep_best(heap: &mut BinaryHeap<Ranked>, k: usize, mined: MinedPattern) {
    heap.push(Ranked(mined));
    if heap.len() > k {
        heap.pop();
    }
}

/// Routes a request: the scan that mines it and the member's role in that
/// scan, or `None` when it needs no search (ranked with `k == 0`: the
/// result is empty and untruncated).
fn route(request: &MiningRequest) -> Option<(ScanKind, Shape)> {
    let unbounded = request.constraints.is_unbounded();
    let all = ScanKind::All {
        constraints: if unbounded {
            GapConstraints::unbounded()
        } else {
            request.constraints
        },
    };
    let closed = ScanKind::Closed {
        pruning: request.use_landmark_pruning,
    };
    let basis = |family, k| Shape::Basis {
        collected: Vec::new(),
        truncated: false,
        family,
        k,
    };
    Some(match (request.top_k, request.mode, unbounded) {
        (Some(0), _, _) => return None,
        // TSP-style top-k walks the plain GSgrow tree with its own dynamic
        // threshold.
        (Some(k), Mode::All | Mode::Closed, true) => {
            let shape = Shape::TopK {
                k,
                closed_only: request.mode == Mode::Closed,
                heap: BinaryHeap::new(),
            };
            (all, shape)
        }
        (None, Mode::All, _) => (all, Shape::Stream),
        (None, Mode::Closed, true) => (closed, Shape::Stream),
        // Maximal, ranked or not: a filter over the closed basis.
        (k, Mode::Maximal, true) => (closed, basis(Mode::Maximal, k)),
        // Constrained closed, maximal or ranked: a filter over the
        // constrained-frequent basis (Theorem 5 pruning is unsound under
        // constraints). A pattern with no proper super-pattern in the
        // basis is also closed in it, so maximal needs no closed filter.
        (k, mode, false) => (all, basis(mode, k)),
    })
}

/// One request's subscription to a scan: its thresholds and caps, its
/// emission gate and sink, and its work counters.
struct Member<'a> {
    /// Effective support threshold: `min_sup.max(1)` (the top-k floor for
    /// [`Shape::TopK`] members).
    floor: u64,
    min_len: usize,
    keep: bool,
    /// `max_patterns` — the uniform emission cap.
    cap: Option<usize>,
    /// `max_pattern_length` — the DFS depth cap.
    max_len: Option<usize>,
    /// `eligible[i]` — whether scan event `i` is frequent at this member's
    /// own floor, i.e. whether the event is in the member's solo candidate
    /// list.
    eligible: Vec<bool>,
    /// Number of `true` entries in `eligible`.
    eligible_count: u64,
    /// Set once the member stops receiving (cap hit or output cancelled).
    detached: bool,
    stats: MiningStats,
    /// Patterns that passed the emission gate.
    emitted: usize,
    truncated: bool,
    cancelled: bool,
    /// Where gated patterns go: the caller's sink, a batch slot's, or a
    /// parallel seed's buffer.
    out: &'a mut dyn PatternSink,
    shape: Shape,
    /// The support floor a parallel top-k run's seeds share.
    shared_floor: Option<&'a AtomicU64>,
}

impl<'a> Member<'a> {
    fn new(request: &MiningRequest, shape: Shape, out: &'a mut dyn PatternSink) -> Self {
        Member {
            floor: request.min_sup.max(1),
            min_len: request.min_len,
            keep: request.keep_support_sets,
            cap: request.max_patterns,
            max_len: request.max_pattern_length,
            eligible: Vec::new(),
            eligible_count: 0,
            detached: false,
            stats: MiningStats::default(),
            emitted: 0,
            truncated: false,
            cancelled: false,
            out,
            shape,
            shared_floor: None,
        }
    }

    fn set_eligible(&mut self, eligible: Vec<bool>) {
        self.eligible_count = eligible.iter().filter(|&&e| e).count() as u64;
        self.eligible = eligible;
    }

    fn is_topk(&self) -> bool {
        matches!(self.shape, Shape::TopK { .. })
    }

    fn is_closed_topk(&self) -> bool {
        matches!(
            self.shape,
            Shape::TopK {
                closed_only: true,
                ..
            }
        )
    }

    /// Whether scan event `i` is in this member's solo candidate list.
    fn eligible_at(&self, i: usize) -> bool {
        self.eligible.get(i).copied().unwrap_or(false)
    }

    /// Whether the member's DFS grows a pattern of length `len` (top-k
    /// members never stop scanning).
    fn grows_at(&self, len: usize) -> bool {
        self.max_len.is_none_or(|max| len < max) && (self.is_topk() || !self.detached)
    }

    /// Whether the member tries candidate `i` as a child of a node of
    /// length `len` it is `alive` at.
    fn follows(&self, alive: bool, len: usize, i: usize) -> bool {
        alive && self.grows_at(len) && self.eligible_at(i)
    }

    /// Whether the member still starts the subtree of seed `i`.
    fn wants_seed(&self, i: usize) -> bool {
        self.eligible_at(i) && (self.is_topk() || !self.detached)
    }

    /// The support a node needs to be visited: the floor, or a top-k
    /// member's dynamic threshold (the smallest support among its current
    /// best `k`, raised by a parallel run's shared floor).
    fn threshold(&self) -> u64 {
        let Shape::TopK { k, heap, .. } = &self.shape else {
            return self.floor;
        };
        let local = if heap.len() < *k {
            self.floor
        } else {
            heap.peek()
                .map_or(self.floor, |worst| worst.0.support)
                .max(self.floor)
        };
        self.shared_floor.map_or(local, |shared| {
            local.max(shared.load(AtomicOrdering::Relaxed))
        })
    }

    fn mined(&self, pattern: &Pattern, support: &SupportSet) -> MinedPattern {
        let mut mined = MinedPattern::new(pattern.clone(), support.support());
        if self.keep {
            mined.support_set = Some(support.clone());
        }
        mined
    }

    /// The emission gate: counts the pattern, hands it to the output, and
    /// applies the uniform cap. Returns `true` when the member must stop
    /// receiving.
    fn forward(&mut self, mined: MinedPattern) -> bool {
        self.emitted += 1;
        if self.out.accept(mined).is_break() {
            self.cancelled = true;
            return true;
        }
        if self.cap.is_some_and(|cap| self.emitted >= cap) {
            self.truncated = true;
            return true;
        }
        false
    }

    /// Reports a node the member's solo run reports: a streaming member
    /// gates it (`min_len`, support-set retention, cap), a basis member
    /// collects it.
    fn report(&mut self, pattern: &Pattern, support: &SupportSet) {
        match &self.shape {
            Shape::Stream => {
                if pattern.len() >= self.min_len {
                    let mined = self.mined(pattern, support);
                    self.detached |= self.forward(mined);
                }
            }
            Shape::Basis { .. } => {
                // No `min_len` filter on a basis: a short pattern can still
                // subsume or rank; the cap applies mid-search.
                let mined = self.mined(pattern, support);
                let cap = self.cap;
                if let Shape::Basis {
                    collected,
                    truncated,
                    ..
                } = &mut self.shape
                {
                    collected.push(mined);
                    if cap.is_some_and(|c| collected.len() >= c) {
                        *truncated = true;
                        self.detached = true;
                    }
                }
            }
            Shape::TopK { .. } => {}
        }
    }

    /// Offers a node to a top-k member's heap, publishing the local k-th
    /// best support to a parallel run's shared floor.
    fn offer(&mut self, pattern: &Pattern, support: &SupportSet) {
        let mined = self.mined(pattern, support);
        if let Shape::TopK { k, heap, .. } = &mut self.shape {
            keep_best(heap, *k, mined);
            if let (Some(shared), Some(worst)) = (self.shared_floor, heap.peek()) {
                if heap.len() >= *k {
                    shared.fetch_max(worst.0.support, AtomicOrdering::Relaxed);
                }
            }
        }
    }

    /// Drains a finished list through the gate (`min_len` filter first).
    fn drain(&mut self, patterns: impl IntoIterator<Item = MinedPattern>) {
        for mined in patterns {
            if mined.pattern.len() >= self.min_len && self.forward(mined) {
                self.detached = true;
                break;
            }
        }
    }

    /// Merges one parallel seed's counters and buffered output: a
    /// streaming member drains it through its gate at once (seed order is
    /// emission order), a basis member collects it and a top-k member
    /// ranks it for [`Member::finish`].
    fn absorb(&mut self, stats: &MiningStats, patterns: Vec<MinedPattern>) {
        self.stats.merge(stats);
        match &mut self.shape {
            Shape::Stream => {
                if !self.detached {
                    self.drain(patterns);
                }
            }
            Shape::Basis { collected, .. } => collected.extend(patterns),
            Shape::TopK { k, heap, .. } => {
                for mined in patterns {
                    keep_best(heap, *k, mined);
                }
            }
        }
    }

    /// What one parallel seed hands back: its counters, and its basis or
    /// top-k candidates (`None` for a streaming member, whose gated
    /// patterns are in its sink).
    fn into_seed_output(self) -> (MiningStats, Option<Vec<MinedPattern>>) {
        let collected = match self.shape {
            Shape::Stream => None,
            Shape::Basis { collected, .. } => Some(collected),
            Shape::TopK { heap, .. } => Some(heap.into_iter().map(|ranked| ranked.0).collect()),
        };
        (self.stats, collected)
    }

    /// Finishes the member after its walk: applies the basis filter or the
    /// top-k sort and drains the result through the gate.
    fn finish(mut self) -> MiningReport {
        match std::mem::replace(&mut self.shape, Shape::Stream) {
            Shape::Stream => {}
            Shape::TopK { heap, .. } => {
                let best = heap.into_sorted_vec();
                self.drain(best.into_iter().map(|ranked| ranked.0));
            }
            Shape::Basis {
                mut collected,
                mut truncated,
                family,
                k,
            } => {
                // A merged parallel basis is capped to the prefix the
                // sequential walk would have stopped at.
                if let Some(cap) = self.cap.filter(|&cap| collected.len() >= cap) {
                    collected.truncate(cap);
                    truncated = true;
                }
                self.truncated |= truncated;
                let mut patterns = match family {
                    Mode::All => collected,
                    Mode::Closed => closed_subset(&collected),
                    Mode::Maximal => maximal_subset(&collected),
                };
                if let Some(k) = k {
                    patterns.retain(|mp| mp.pattern.len() >= self.min_len);
                    sort_patterns_for_report(&mut patterns);
                    patterns.truncate(k);
                }
                self.drain(patterns);
            }
        }
        MiningReport {
            stats: self.stats,
            emitted: self.emitted,
            truncated: self.truncated,
            cancelled: self.cancelled,
        }
    }
}

/// The query-side setup of one scan: its shape, the candidate events at
/// the group's minimum threshold, and the closure checker's candidate
/// table.
struct Plan {
    kind: ScanKind,
    /// Frequent events at `t_min`, in candidate order.
    events: Vec<EventId>,
    /// `(event, total occurrences)` of `events` for the closure checker;
    /// empty when no member consults it.
    candidates: Vec<(EventId, u64)>,
    /// The one-pass child counter over `events`; `None` unless the plan
    /// is eager.
    sweep: Option<SiblingSweep>,
    /// The smallest member threshold.
    t_min: u64,
    /// Grow every child of a node before descending into any: closure
    /// verdicts need the append-equal flag of the whole child pass.
    eager: bool,
    /// Count one growth per followed edge: GSgrow's streaming and basis
    /// members pay per edge, while CloGSgrow pays its child pass on entry
    /// and top-k members pay theirs at the node.
    counts_edges: bool,
    /// Hand the closure checker no child tables, so every chain grows its
    /// first link: the reference walk of `tests`.
    #[cfg(test)]
    no_tables: bool,
}

impl Plan {
    /// Plans the scan for `members` and fills in each member's eligibility
    /// over the shared candidate list.
    fn new(prepared: &PreparedDb, kind: ScanKind, members: &mut [Member<'_>]) -> Self {
        let t_min = members.iter().map(|m| m.floor).min().unwrap_or(1);
        let events = frequent_events(prepared.index(), t_min);
        let count = |e: EventId| prepared.index().total_count(e) as u64;
        for member in members.iter_mut() {
            let floor = member.floor;
            member.set_eligible(events.iter().map(|&e| count(e) >= floor).collect());
        }
        let eager =
            matches!(kind, ScanKind::Closed { .. }) || members.iter().any(Member::is_closed_topk);
        let counts_edges =
            matches!(kind, ScanKind::All { .. }) && members.iter().any(|m| !m.is_topk());
        let candidates = if eager {
            events.iter().map(|&e| (e, count(e))).collect()
        } else {
            Vec::new()
        };
        // Eager plans are unconstrained: a closed-only top-k member is
        // never gap-constrained (`route`).
        let sweep = eager.then(|| SiblingSweep::new(&events));
        Plan {
            kind,
            events,
            candidates,
            sweep,
            t_min,
            eager,
            counts_edges,
            #[cfg(test)]
            no_tables: false,
        }
    }

    /// The child tables the closure check reads: the open path's.
    fn tables<'t>(&self, children: &'t [Vec<Child>]) -> &'t [Vec<Child>] {
        #[cfg(test)]
        if self.no_tables {
            return &[];
        }
        children
    }

    /// Runs `f` with the growth and closure machinery of this plan bound to
    /// `prepared` (every piece borrows; building them is O(1)).
    fn with_ctx<R>(&self, prepared: &PreparedDb, f: impl FnOnce(&Ctx<'_, '_>) -> R) -> R {
        let constraints = match self.kind {
            ScanKind::All { constraints } => constraints,
            _ => GapConstraints::unbounded(),
        };
        let sc = prepared.support_computer().with_constraints(constraints);
        let checker = self
            .eager
            .then(|| ClosureChecker::from_candidates(&sc, &self.candidates));
        f(&Ctx {
            sc: &sc,
            checker: checker.as_ref(),
            plan: self,
        })
    }
}

/// A plan bound to a prepared database for the length of one walk.
struct Ctx<'c, 'a> {
    /// Carries the scan's constraints.
    sc: &'c SupportComputer<'a>,
    checker: Option<&'c ClosureChecker<'c, 'a>>,
    plan: &'c Plan,
}

impl Ctx<'_, '_> {
    /// Instance growth of `support` by `event` (Algorithm 2, under the
    /// scan's constraints). `runs` is `support`'s [`RunSet`] when the
    /// caller grows it by many events. The pass may stop early once it
    /// cannot reach `t_min` instances: the caller discards such a set.
    fn grow(
        &self,
        support: &SupportSet,
        runs: Option<&RunSet>,
        event: EventId,
        out: &mut SupportSet,
    ) {
        let target = usize::try_from(self.plan.t_min).unwrap_or(usize::MAX);
        kernel::grow_into(
            self.sc.index(),
            event,
            self.sc.constraints(),
            support.instances(),
            runs,
            target,
            out,
        );
    }

    /// The [`RunSet`] of `support` and the suffix length a sibling sweep
    /// over it scans.
    fn runs(&self, support: &SupportSet) -> (RunSet, u64) {
        node_runs(self.sc.database().store(), support.instances())
    }
}

/// One open node of the walk.
struct Frame {
    pattern: Pattern,
    /// Index of the next candidate event to try as a child edge.
    next: usize,
    /// Whether any member grows this node.
    grows: bool,
}

/// The walk over one plan's pattern tree. Its stack of open nodes is
/// explicit rather than the native call stack, so a pattern thousands of
/// events long costs heap, not stack frames.
struct Scan<'a> {
    members: Vec<Member<'a>>,
    frames: Vec<Frame>,
    /// Leftmost support sets of the open path, root first: the prefix
    /// stack the closure check reads.
    path: Vec<SupportSet>,
    /// Index-aligned with `path`: each open node's [`RunSet`] and sweep
    /// length, built when the node first grows a child; the set is lent to
    /// every growth pass of it.
    runs: Vec<Option<(RunSet, u64)>>,
    /// `alive[d * members.len() + j]`: member `j`'s solo run visits the
    /// open node at depth `d`.
    alive: Vec<bool>,
    /// Index-aligned with `path` in an eager plan: each open node's child
    /// table, one [`Child`] per plan event, filled by its child pass and
    /// kept until the node closes. A followed child's set is lent to
    /// `path` and comes back when its subtree closes, so the closure check
    /// of any descendant reads every ancestor's children.
    children: Vec<Vec<Child>>,
    pool: SetPool,
    scratch: CheckScratch,
    sweep: SweepScratch,
    /// The next seed (index into the plan's events) to start.
    next_seed: usize,
}

impl<'a> Scan<'a> {
    fn new(members: Vec<Member<'a>>) -> Self {
        Scan {
            members,
            frames: Vec::new(),
            path: Vec::new(),
            runs: Vec::new(),
            alive: Vec::new(),
            children: Vec::new(),
            pool: SetPool::new(),
            scratch: CheckScratch::new(),
            sweep: SweepScratch::new(),
            next_seed: 0,
        }
    }

    fn is_alive(&self, depth: usize, j: usize) -> bool {
        self.alive
            .get(depth * self.members.len() + j)
            .copied()
            .unwrap_or(false)
    }

    /// Walks the open subtree and every seed from `next_seed` on, until the
    /// tree is exhausted.
    fn run(&mut self, ctx: &Ctx<'_, '_>) {
        loop {
            if !self.frames.is_empty() {
                self.advance(ctx);
                continue;
            }
            let i = self.next_seed;
            let Some(&seed) = ctx.plan.events.get(i) else {
                return;
            };
            self.next_seed += 1;
            if self.members.iter().any(|m| m.wants_seed(i)) {
                let mut initial = self.pool.take();
                ctx.sc.initial_support_set_into(seed, &mut initial);
                self.start_seed(ctx, i, initial);
            }
        }
    }

    /// Enters the subtree of seed `i` (one iteration of the outer loop of
    /// Algorithms 3 and 4) from its leftmost support set `initial`.
    fn start_seed(&mut self, ctx: &Ctx<'_, '_>, i: usize, initial: SupportSet) {
        let sup = initial.support();
        let mut any = false;
        for member in &self.members {
            let alive = member.wants_seed(i) && sup >= member.threshold();
            any |= alive;
            self.alive.push(alive);
        }
        match ctx.plan.events.get(i) {
            Some(&seed) if any => self.enter(ctx, Pattern::single(seed), initial),
            _ => {
                self.alive.truncate(self.frames.len() * self.members.len());
                self.pool.give(initial);
            }
        }
    }

    /// Visits a node whose alive flags were just pushed: counts it, reports
    /// or ranks it, grows its children when the plan is eager, and opens its
    /// frame — unless landmark border checking prunes the subtree.
    fn enter(&mut self, ctx: &Ctx<'_, '_>, pattern: Pattern, support: SupportSet) {
        let plan = ctx.plan;
        let depth = self.frames.len();
        let len = pattern.len();
        let sup = support.support();
        self.path.push(support);
        self.runs.push(None);
        let grows = |scan: &Self| {
            scan.members
                .iter()
                .enumerate()
                .any(|(j, m)| scan.is_alive(depth, j) && m.grows_at(len))
        };

        let ScanKind::Closed { pruning } = plan.kind else {
            // GSgrow: report the node before growing it.
            for j in 0..self.members.len() {
                if !self.is_alive(depth, j) {
                    continue;
                }
                if let (Some(member), Some(set)) = (self.members.get_mut(j), self.path.last()) {
                    member.stats.visited += 1;
                    member.report(&pattern, set);
                }
            }
            let grows = grows(self);
            let append_equal = plan.eager && grows && self.grow_children(ctx, depth, sup);
            self.rank(ctx, &pattern, depth, append_equal);
            self.frames.push(Frame {
                pattern,
                next: 0,
                grows,
            });
            return;
        };

        // CloGSgrow: the append children are grown before the verdict, even
        // at the depth cap (the verdict needs `append_equal`), so every
        // alive member pays one growth per candidate of its own here.
        for j in 0..self.members.len() {
            if self.is_alive(depth, j) {
                if let Some(member) = self.members.get_mut(j) {
                    member.stats.visited += 1;
                    member.stats.instance_growths += member.eligible_count;
                }
            }
        }
        let append_equal = self.grow_children(ctx, depth, sup);
        let verdict = ctx.checker.map_or(ClosureStatus::Closed, |checker| {
            checker.check_with_children(
                &pattern,
                &self.path,
                plan.tables(&self.children),
                append_equal,
                &mut self.scratch,
            )
        });
        for j in 0..self.members.len() {
            if !self.is_alive(depth, j) {
                continue;
            }
            let (Some(member), Some(set)) = (self.members.get_mut(j), self.path.last()) else {
                continue;
            };
            match verdict {
                ClosureStatus::Prune if pruning => member.stats.landmark_border_prunes += 1,
                ClosureStatus::Prune | ClosureStatus::NonClosed => {
                    member.stats.non_closed_filtered += 1;
                }
                ClosureStatus::Closed => member.report(&pattern, set),
            }
        }
        if pruning && verdict == ClosureStatus::Prune {
            // Theorem 5: no pattern with this prefix is closed — the whole
            // subtree is skipped for every member (members not alive here
            // have no alive descendants).
            self.close(depth);
            return;
        }
        let grows = grows(self);
        self.frames.push(Frame {
            pattern,
            next: 0,
            grows,
        });
    }

    /// Grows every child of the node at `depth` into that depth's table,
    /// keeping every candidate's support and the sets that clear `t_min`;
    /// returns whether some append extension has the node's own support
    /// `sup`.
    ///
    /// When the plan's [`SiblingSweep`] pays at this node, one sweep counts
    /// every child's support first and only the children that clear
    /// `t_min` are grown. Otherwise each candidate gets its own growth pass,
    /// cut short once it cannot reach `t_min` (such a child is dropped, and
    /// as `sup >= t_min` it is never append-equal either).
    fn grow_children(&mut self, ctx: &Ctx<'_, '_>, depth: usize, sup: u64) -> bool {
        if self.children.len() <= depth {
            self.children.resize_with(depth + 1, Vec::new);
        }
        let (Some(parent), Some(runs), Some(children)) = (
            self.path.last(),
            self.runs.last_mut(),
            self.children.get_mut(depth),
        ) else {
            return false;
        };
        children.clear();
        let t_min = ctx.plan.t_min;
        let (runs, steps) = &*runs.get_or_insert_with(|| ctx.runs(parent));
        let sweep = ctx
            .plan
            .sweep
            .as_ref()
            .filter(|sweep| sweep.pays(*steps, parent.instances().len()));
        let mut append_equal = false;
        if let Some(sweep) = sweep {
            sweep.count(
                ctx.sc.database().store(),
                parent.instances(),
                &mut self.sweep,
            );
            for (&event, count) in ctx.plan.events.iter().zip(self.sweep.counts()) {
                append_equal |= count == sup;
                let set = (count >= t_min).then(|| {
                    let mut grown = self.pool.take();
                    ctx.grow(parent, Some(runs), event, &mut grown);
                    grown
                });
                children.push(Child {
                    support: count,
                    set,
                });
            }
            return append_equal;
        }
        for &event in &ctx.plan.events {
            let mut grown = self.pool.take();
            ctx.grow(parent, Some(runs), event, &mut grown);
            let support = grown.support();
            append_equal |= support == sup;
            let set = if support >= t_min {
                Some(grown)
            } else {
                self.pool.give(grown);
                None
            };
            children.push(Child { support, set });
        }
        append_equal
    }

    /// Top-k members at a GSgrow node: one growth per candidate when the
    /// member grows the node, then qualification against the member's own
    /// dynamic threshold. The closure verdict is computed once per
    /// append-equal flag — a member capped at this depth grows no children,
    /// so its flag is `false`.
    fn rank(&mut self, ctx: &Ctx<'_, '_>, pattern: &Pattern, depth: usize, append_equal: bool) {
        let len = pattern.len();
        let mut verdict_growing: Option<bool> = None;
        let mut verdict_capped: Option<bool> = None;
        for j in 0..self.members.len() {
            if !self.is_alive(depth, j) {
                continue;
            }
            let (Some(member), Some(set)) = (self.members.get_mut(j), self.path.last()) else {
                continue;
            };
            let Shape::TopK { closed_only, .. } = member.shape else {
                continue;
            };
            let grows = member.grows_at(len);
            if grows {
                member.stats.instance_growths += member.eligible_count;
            }
            if len < member.min_len || set.support() < member.threshold() {
                continue;
            }
            let qualifies = !closed_only || {
                let memo = if grows {
                    &mut verdict_growing
                } else {
                    &mut verdict_capped
                };
                *memo.get_or_insert_with(|| {
                    // A node no member grows has no table of its own;
                    // the check reads only its ancestors'.
                    ctx.checker.is_some_and(|checker| {
                        checker.check_with_children(
                            pattern,
                            &self.path,
                            ctx.plan.tables(&self.children),
                            grows && append_equal,
                            &mut self.scratch,
                        ) == ClosureStatus::Closed
                    })
                })
            };
            if qualifies {
                member.offer(pattern, set);
            }
        }
    }

    /// Advances the top frame by one child edge: enters the next child some
    /// member follows, or closes the frame when its edges are exhausted.
    /// Edges are examined after the previous child's subtree is done, so
    /// every member sees its own current state (detachment, top-k
    /// threshold) — exactly when its solo DFS would.
    fn advance(&mut self, ctx: &Ctx<'_, '_>) {
        let plan = ctx.plan;
        let m = self.members.len();
        let depth = self.frames.len().saturating_sub(1);
        let base = depth * m;
        let next = 'edges: {
            let Some(frame) = self.frames.last_mut() else {
                return;
            };
            let len = frame.pattern.len();
            while frame.grows {
                let i = frame.next;
                let Some(&event) = plan.events.get(i) else {
                    break;
                };
                frame.next += 1;
                // An eager node's child that cleared `t_min` waits in its
                // slot; it leaves only to be entered.
                let kept = if plan.eager {
                    self.children
                        .get(depth)
                        .and_then(|c| c.get(i))
                        .and_then(|c| c.set.as_ref())
                        .map(SupportSet::support)
                } else {
                    None
                };
                if plan.eager && kept.is_none() && !plan.counts_edges {
                    // Below `t_min`: no member follows the edge, and none
                    // counts it.
                    continue;
                }
                let mut wanted = false;
                for (j, member) in self.members.iter_mut().enumerate() {
                    let parent_alive = self.alive.get(base + j).copied().unwrap_or(false);
                    if member.follows(parent_alive, len, i) {
                        wanted = true;
                        if plan.counts_edges && !member.is_topk() {
                            member.stats.instance_growths += 1;
                        }
                    }
                }
                if !wanted {
                    continue;
                }
                let mut grown = None;
                if !plan.eager {
                    if let (Some(parent), Some(runs)) = (self.path.last(), self.runs.last_mut()) {
                        let (runs, _) = &*runs.get_or_insert_with(|| ctx.runs(parent));
                        let mut set = self.pool.take();
                        ctx.grow(parent, Some(runs), event, &mut set);
                        grown = Some(set);
                    }
                }
                let Some(sup) = kept.or(grown.as_ref().map(SupportSet::support)) else {
                    continue;
                };
                // No member is alive below `t_min`, the least threshold.
                let mut any = false;
                for (j, member) in self.members.iter().enumerate() {
                    let parent_alive = self.alive.get(base + j).copied().unwrap_or(false);
                    let alive = member.follows(parent_alive, len, i) && sup >= member.threshold();
                    any |= alive;
                    self.alive.push(alive);
                }
                let set = if any {
                    grown.or_else(|| {
                        self.children
                            .get_mut(depth)
                            .and_then(|c| c.get_mut(i))
                            .and_then(|c| c.set.take())
                    })
                } else {
                    if let Some(set) = grown {
                        self.pool.give(set);
                    }
                    None
                };
                if let Some(set) = set {
                    break 'edges Some((frame.pattern.grow(event), set));
                }
                self.alive.truncate(base + m);
            }
            None
        };
        match next {
            Some((pattern, set)) => self.enter(ctx, pattern, set),
            None => {
                self.frames.pop();
                self.close(depth);
            }
        }
    }

    /// Releases what the node at `depth` held: its children's sets, its
    /// alive flags, and its own support set, which goes back to its slot in
    /// the parent's child table (the pool when it has no parent table: a
    /// seed, or a lazy plan's node).
    fn close(&mut self, depth: usize) {
        if let Some(children) = self.children.get_mut(depth) {
            for child in children.drain(..) {
                if let Some(set) = child.set {
                    self.pool.give(set);
                }
            }
        }
        if let Some(set) = self.path.pop() {
            // The parent's frame stepped past this node's slot on entry.
            let slot = depth.checked_sub(1).and_then(|parent| {
                let i = self.frames.get(parent)?.next.checked_sub(1)?;
                self.children.get_mut(parent)?.get_mut(i)
            });
            match slot {
                Some(child) => {
                    debug_assert!(child.set.is_none(), "a slot lent out twice");
                    child.set = Some(set);
                }
                None => self.pool.give(set),
            }
        }
        self.runs.pop();
        self.alive.truncate(depth * self.members.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ExecutionPolicy, DEFAULT_TOP_K};
    use crate::prepared::PreparedDb;
    use seqdb::SequenceDatabase;

    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    fn solo(prepared: &PreparedDb, request: &MiningRequest) -> MiningOutcome {
        prepared.miner().with_request(request.clone()).run()
    }

    fn assert_matches_solo(prepared: &PreparedDb, requests: &[MiningRequest]) {
        let batched = prepared.batch(requests);
        assert_eq!(batched.len(), requests.len());
        for (request, result) in requests.iter().zip(&batched) {
            let expected = solo(prepared, request);
            assert_eq!(
                result.outcome.patterns, expected.patterns,
                "patterns diverge for {request:?}"
            );
            assert_eq!(
                result.outcome.truncated, expected.truncated,
                "truncation diverges for {request:?}"
            );
            assert_eq!(
                result.outcome.stats.visited, expected.stats.visited,
                "visited diverges for {request:?}"
            );
            assert_eq!(
                result.outcome.stats.instance_growths, expected.stats.instance_growths,
                "growths diverge for {request:?}"
            );
            assert_eq!(
                result.outcome.stats.non_closed_filtered, expected.stats.non_closed_filtered,
                "closure counters diverge for {request:?}"
            );
            assert_eq!(
                result.outcome.stats.landmark_border_prunes, expected.stats.landmark_border_prunes,
                "pruning counters diverge for {request:?}"
            );
            assert!(!result.cancelled);
        }
    }

    fn request(mode: Mode, min_sup: u64) -> MiningRequest {
        MiningRequest {
            min_sup,
            mode,
            ..MiningRequest::default()
        }
    }

    #[test]
    fn empty_batch_yields_no_results() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        assert!(prepared.batch(&[]).is_empty());
    }

    #[test]
    fn single_request_batches_match_solo_across_modes() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        for (mode, top_k) in [
            (Mode::All, None),
            (Mode::Closed, None),
            (Mode::Maximal, None),
            (Mode::Closed, Some(DEFAULT_TOP_K)),
        ] {
            for min_sup in [1, 2, 3] {
                let mut request = request(mode, min_sup);
                request.top_k = top_k;
                assert_matches_solo(&prepared, &[request]);
            }
        }
    }

    #[test]
    fn mixed_threshold_group_matches_solo() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let requests = vec![
            request(Mode::All, 1),
            request(Mode::All, 2),
            request(Mode::All, 4),
            request(Mode::All, 2), // duplicate of an earlier member
        ];
        assert_matches_solo(&prepared, &requests);
    }

    #[test]
    fn cross_mode_batch_matches_solo() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let mut constrained = request(Mode::Closed, 2);
        constrained.constraints = GapConstraints::max_gap(2);
        let mut ranked = request(Mode::Closed, 1);
        ranked.top_k = Some(4);
        ranked.min_len = 2;
        let requests = vec![
            request(Mode::All, 2),
            request(Mode::Closed, 2),
            request(Mode::Maximal, 2),
            constrained,
            ranked,
        ];
        assert_matches_solo(&prepared, &requests);
    }

    #[test]
    fn impossible_threshold_yields_empty_but_well_formed_result() {
        // Adversarial sink case: one subscriber's min_sup exceeds every
        // pattern's support; it must come back empty (not truncated, not
        // cancelled, zero emissions) while its siblings are unaffected.
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let requests = vec![request(Mode::All, 2), request(Mode::Closed, 1_000_000)];
        assert_matches_solo(&prepared, &requests);
        let batched = prepared.batch(&requests);
        let Some(impossible) = batched.get(1) else {
            panic!("missing result");
        };
        assert!(impossible.outcome.patterns.is_empty());
        assert!(!impossible.outcome.truncated);
        assert!(!impossible.cancelled);
        assert_eq!(impossible.emitted, 0);
        let Some(sibling) = batched.first() else {
            panic!("missing result");
        };
        assert!(!sibling.outcome.patterns.is_empty());
    }

    #[test]
    fn topk_floor_of_one_subscriber_does_not_prune_siblings() {
        // Shared-floor leakage regression: a tiny-k subscriber raises its
        // own dynamic threshold almost immediately; a low-threshold stream
        // subscriber in the same scan group must still see every pattern.
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let mut tight_topk = request(Mode::All, 1);
        tight_topk.top_k = Some(1);
        tight_topk.min_len = 2;
        let full_stream = request(Mode::All, 1);
        let requests = vec![tight_topk, full_stream.clone()];
        assert_matches_solo(&prepared, &requests);
        let batched = prepared.batch(&requests);
        let expected = solo(&prepared, &full_stream);
        let Some(stream_result) = batched.get(1) else {
            panic!("missing result");
        };
        assert_eq!(stream_result.outcome.patterns, expected.patterns);
        assert!(
            stream_result.outcome.patterns.len() > 1,
            "stream must not be pruned to k"
        );
    }

    #[test]
    fn two_topk_subscribers_keep_private_thresholds() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let mut tight = request(Mode::Closed, 1);
        tight.top_k = Some(1);
        tight.min_len = 2;
        let mut wide = request(Mode::Closed, 1);
        wide.top_k = Some(50);
        wide.min_len = 2;
        assert_matches_solo(&prepared, &[tight, wide]);
    }

    #[test]
    fn caps_and_filters_stay_per_member() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let mut capped = request(Mode::All, 1);
        capped.max_patterns = Some(3);
        let mut short = request(Mode::All, 1);
        short.max_pattern_length = Some(2);
        let mut long_only = request(Mode::All, 1);
        long_only.min_len = 3;
        assert_matches_solo(
            &prepared,
            &[capped, short, long_only, request(Mode::All, 1)],
        );
    }

    #[test]
    fn ranked_k_zero_is_trivially_empty() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let mut zero = request(Mode::Closed, 1);
        zero.top_k = Some(0);
        assert_matches_solo(&prepared, &[zero, request(Mode::Closed, 2)]);
    }

    #[test]
    fn expired_deadline_cancels_only_its_own_member() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let requests = vec![request(Mode::All, 1), request(Mode::All, 1)];
        let deadlines = vec![
            Some(Instant::now() - std::time::Duration::from_secs(1)),
            None,
        ];
        let batched = prepared.batch_with_deadlines(&requests, &deadlines);
        let Some(expired) = batched.first() else {
            panic!("missing result");
        };
        assert!(expired.cancelled);
        assert!(expired.outcome.patterns.is_empty());
        let Some(healthy) = batched.get(1) else {
            panic!("missing result");
        };
        assert!(!healthy.cancelled);
        let expected = solo(&prepared, &request(Mode::All, 1));
        assert_eq!(healthy.outcome.patterns, expected.patterns);
    }

    #[test]
    fn execution_policy_is_ignored_and_matches_sequential_solo() {
        // Batch always replays sequential semantics, whatever the request
        // says; pin that the counters match the sequential run.
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let mut parallel = request(Mode::Closed, 2);
        parallel.execution = ExecutionPolicy::Parallel { threads: 4 };
        let batched = prepared.batch(std::slice::from_ref(&parallel));
        let mut sequential = parallel.clone();
        sequential.execution = ExecutionPolicy::Sequential;
        let expected = solo(&prepared, &sequential);
        let Some(result) = batched.first() else {
            panic!("missing result");
        };
        assert_eq!(result.outcome.patterns, expected.patterns);
        assert_eq!(result.outcome.stats.visited, expected.stats.visited);
    }

    /// The `k`-th capital letter.
    fn letter(k: u32) -> char {
        char::from_u32(u32::from('A') + k).unwrap_or('A')
    }

    /// One solo walk of `request` under its own execution policy, with
    /// `tweak` applied to its plan first.
    fn walk_with(
        prepared: &PreparedDb,
        request: &MiningRequest,
        tweak: impl FnOnce(&mut Plan),
    ) -> (Vec<MinedPattern>, MiningReport) {
        let mut sink = CollectSink::new();
        let report = {
            let (kind, shape) = route(request).expect("a request that searches");
            let mut member = Member::new(request, shape, &mut sink);
            let mut plan = Plan::new(prepared, kind, std::slice::from_mut(&mut member));
            tweak(&mut plan);
            match request.execution.effective_threads() {
                1 => {
                    let mut scan = Scan::new(vec![member]);
                    plan.with_ctx(prepared, |ctx| scan.run(ctx));
                    scan.members.pop().map_or_else(empty_report, Member::finish)
                }
                threads => fan_out(prepared, request, &plan, member, threads),
            }
        };
        (sink.into_patterns(), report)
    }

    /// One solo walk of `request`, with the plan's sibling sweep kept or
    /// dropped (every node then grows its children one pass per event).
    fn walk_with_sweep(
        prepared: &PreparedDb,
        request: &MiningRequest,
        sweep: bool,
    ) -> (Vec<MinedPattern>, MiningReport) {
        walk_with(prepared, request, |plan| {
            assert!(plan.sweep.is_some(), "{request:?} plans no sweep");
            if !sweep {
                plan.sweep = None;
            }
        })
    }

    /// Whole closed, maximal and top-k runs with and without the sibling
    /// sweep: patterns, order, truncation and every counter agree, on
    /// narrow and wide stores.
    #[test]
    fn sweep_walks_match_per_event_walks() {
        // Short rows over many events (the sweep pays) and long rows over
        // few, repeated events (it does not).
        let short: Vec<String> = (0u32..40)
            .map(|i| {
                (0u32..10)
                    .map(|j| letter((i * 7 + j * j * 3) % 17))
                    .collect()
            })
            .collect();
        let long: Vec<String> = (0..4)
            .map(|i| (0..60).map(|j| letter((i + j * j) % 11 % 3)).collect())
            .collect();
        for (rows, sups) in [(short, [5u64, 10]), (long, [40, 60])] {
            let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
            let narrow = SequenceDatabase::from_str_rows(&refs);
            let mut wide = narrow.clone();
            wide.widen_store();
            for db in [&narrow, &wide] {
                let prepared = PreparedDb::new(db);
                for min_sup in sups {
                    let mut ranked = request(Mode::Closed, min_sup);
                    ranked.top_k = Some(5);
                    let mut capped = request(Mode::Closed, min_sup);
                    capped.max_pattern_length = Some(3);
                    capped.max_patterns = Some(7);
                    for request in [
                        request(Mode::Closed, min_sup),
                        request(Mode::Maximal, min_sup),
                        ranked,
                        capped,
                    ] {
                        assert_eq!(
                            walk_with_sweep(&prepared, &request, true),
                            walk_with_sweep(&prepared, &request, false),
                            "{request:?}"
                        );
                    }
                }
            }
        }
    }

    /// Whole runs whose closure checks start from the ancestors' kept
    /// children, against runs that hand the checker no tables and grow every
    /// first link: patterns, order, truncation and every counter agree, on
    /// seeded corpora, sequential and parallel.
    #[test]
    fn child_table_walks_match_regrowing_walks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(25);
        for round in 0..8u32 {
            // Skewed draws over 3..8 events: the low letters repeat, so
            // chains, runs and landmark prunes all occur.
            let alphabet = 3 + round % 6;
            let rows: Vec<String> = (0..rng.gen_range(6..16))
                .map(|_| {
                    (0..rng.gen_range(6..24))
                        .map(|_| rng.gen_range(0..alphabet).min(rng.gen_range(0..alphabet)))
                        .map(letter)
                        .collect()
                })
                .collect();
            let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
            let db = SequenceDatabase::from_str_rows(&refs);
            let prepared = PreparedDb::new(&db);
            let events: u64 = rows.iter().map(|row| row.len() as u64).sum();
            let min_sup = (events / u64::from(alphabet) / 6).max(2);
            let mut closed_topk = request(Mode::Closed, min_sup);
            closed_topk.top_k = Some(40);
            // Capped below its deepest nodes: `rank()` checks nodes that
            // grew no children of their own.
            let mut capped_topk = closed_topk.clone();
            capped_topk.max_pattern_length = Some(3);
            for mut request in [
                request(Mode::Closed, min_sup),
                request(Mode::Maximal, min_sup),
                closed_topk,
                capped_topk,
            ] {
                for execution in [
                    ExecutionPolicy::Sequential,
                    ExecutionPolicy::Parallel { threads: 2 },
                    ExecutionPolicy::Parallel { threads: 3 },
                ] {
                    request.execution = execution;
                    let with_tables = walk_with(&prepared, &request, |plan| {
                        assert!(plan.eager, "{request:?} plans no child pass");
                    });
                    let regrowing = walk_with(&prepared, &request, |plan| plan.no_tables = true);
                    let what = format!("round {round}: {request:?}");
                    if request.top_k.is_some() && execution != ExecutionPolicy::Sequential {
                        // A parallel top-k run's seeds raise one shared
                        // floor in thread timing order, so its counters
                        // vary from run to run; its answer does not.
                        assert_eq!(with_tables.0, regrowing.0, "{what}");
                        assert_eq!(with_tables.1.truncated, regrowing.1.truncated, "{what}");
                    } else {
                        assert_eq!(with_tables, regrowing, "{what}");
                    }
                }
            }
        }
    }
}
