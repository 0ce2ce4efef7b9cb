//! The growth kernel: whole-pass instance advancement over resolved
//! posting rows.
//!
//! The per-call probe `next(S, e, lowest)` (Algorithm 2, line 9) pays the
//! full price on every invocation: resolve the `(sequence, event)` row,
//! binary-search the entire posting row, return one position. But one
//! extension pass fixes the event and processes all instances of a
//! sequence **consecutively and in right-shift order**, and along that run
//! the probe's `lowest` bound is non-decreasing — the `last_position`
//! watermark only grows, instance `last` positions are sorted, and the
//! constrained lower bound `lowest_exclusive` is monotone in them. So each
//! pass takes one [`seqdb::EventRows`] handle for its event, which resolves
//! each sequence's row *once* moving forward only (one add and two loads on
//! a dense event, a gallop forward along the ids on a sparse one), and the
//! row is advanced monotonically through the whole run. A caller that grows
//! one support set by many events lends the passes the set's
//! [`seqdb::RunSet`], so a sparse event's handle passes the sequences the
//! set has no instances in with one bit test each.
//!
//! One probe loop (`grow`) serves every pass: unconstrained and
//! gap-constrained growth alike (the constraints only narrow each probe's
//! window), into a support set or into the landmark arena of an
//! [`InstanceBuffer`](crate::InstanceBuffer). It advances a
//! [`PostingCursor`] one probe at a time: each probe gallops forward from
//! the previous landmark and falls back to a branch-free binary search over
//! the galloped bracket, so a run of `k` probes over a row of length `L`
//! costs amortized `O(L + k·log stride)`. An accepted position is consumed,
//! so when the next instance's bound is already below the cursor front the
//! probe returns after two compares, and a long run of instances that each
//! take the next row slot costs one compare pair per instance.
//!
//! The loop also fuses **run detection** into the same pass: a support
//! set stores its instances sorted by `(seq, last)`, so a sequence's run is
//! found by watching `seq` change under a single forward index. The
//! instances a pass cannot grow — a run's tail once its row is exhausted,
//! or the runs of sequences without the event — are skipped by a gallop
//! over the sorted instances, so skipping `k` of them costs `O(log k)`.
//!
//! A node that grows its whole child pass at once need not run a full pass
//! per candidate: [`SiblingSweep`] reads each run's sequence suffix once
//! and counts every candidate child's support in that one scan (the greedy
//! match of Algorithm 2 for all events at once), at a cost of the summed
//! suffix length instead of about `candidates · instances` probes, so only
//! the children that clear the scan's threshold are grown.
//! [`SiblingSweep::pays`] is the rule that picks it; [`node_runs`] measures
//! the suffix length in the same pass that builds the node's [`RunSet`].
//! Where the per-event passes stay, their `target` early exit stops a pass
//! that can no longer reach the scan's threshold.

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

use seqdb::index::gallop;
use seqdb::{EventColumn, EventId, EventWidth, InvertedIndex, PostingCursor, RunSet, SeqStore};

use crate::constraints::GapConstraints;
use crate::instance::Instance;
use crate::support::SupportSet;

/// One extension pass (Algorithm 2, under gap constraints): grows every
/// instance of `instances` (sorted by `(seq, last)`) by `event` and
/// reports each grown instance to `emit` with the index of the input
/// instance it extends, in input order.
///
/// Each instance takes the first occurrence of `event` after
/// `max(watermark, lowest_exclusive(last))` in its sequence if it is at
/// most `highest_inclusive(first, last)` (both no-ops when unbounded). A
/// rejected position stays at the cursor front, where it may answer the
/// next instance; an accepted one is consumed, as the watermark puts every
/// later bound at or past it. Row exhaustion ends the run. With
/// `target != usize::MAX` the pass returns early once even extending every
/// remaining instance could not reach `target` grown instances (the caller
/// is about to discard the set as infrequent anyway). `runs`, when given,
/// is the [`RunSet`] of `instances`.
pub(crate) fn grow(
    index: &InvertedIndex,
    event: EventId,
    constraints: GapConstraints,
    instances: &[Instance],
    runs: Option<&RunSet>,
    target: usize,
    emit: impl FnMut(usize, Instance),
) {
    // One branch per pass: the unconstrained instantiation sees constant
    // bounds, so they fold away from the hot loop.
    if constraints.is_unbounded() {
        let unbounded = GapConstraints::unbounded();
        probe_loop(index, event, unbounded, instances, runs, target, emit);
    } else {
        probe_loop(index, event, constraints, instances, runs, target, emit);
    }
}

/// [`grow`] into a support set: `out` is cleared (its allocation kept) and
/// refilled with the grown instances.
pub(crate) fn grow_into(
    index: &InvertedIndex,
    event: EventId,
    constraints: GapConstraints,
    instances: &[Instance],
    runs: Option<&RunSet>,
    target: usize,
    out: &mut SupportSet,
) {
    out.clear();
    let push = |_, grown| out.push(grown);
    grow(index, event, constraints, instances, runs, target, push);
}

/// The probe loop behind [`grow`], inlined into both of its
/// instantiations.
#[inline(always)]
fn probe_loop(
    index: &InvertedIndex,
    event: EventId,
    constraints: GapConstraints,
    instances: &[Instance],
    runs: Option<&RunSet>,
    target: usize,
    mut emit: impl FnMut(usize, Instance),
) {
    let total = instances.len();
    let mut emitted = 0usize;
    let mut rows = index.event_rows(event);
    if let Some(runs) = runs {
        rows.restrict(runs);
    }
    let mut i = 0usize;
    while let Some(head) = instances.get(i) {
        let seq = head.seq;
        // The next sequence at or after `seq` that may hold the event; when
        // none is left, no remaining instance can grow.
        let Some((hit, row)) = rows.next_row(seq as usize) else {
            break;
        };
        if hit != seq as usize {
            // No sequence from `seq` up to `hit` holds the event: skip
            // their runs wholesale.
            i = skip_to(instances, i, hit);
        } else {
            let mut cursor = PostingCursor::new(row);
            let mut last_position = 0u32;
            while let Some(instance) = instances.get(i) {
                if instance.seq != seq {
                    break;
                }
                // `lowest` stays non-decreasing along the run: the watermark
                // only grows and `lowest_exclusive` is monotone in the
                // sorted `last` positions, which is the cursor's contract.
                let lowest = last_position.max(constraints.lowest_exclusive(instance.last));
                match cursor.next_after(lowest) {
                    Some(pos)
                        if pos <= constraints.highest_inclusive(instance.first, instance.last) =>
                    {
                        cursor.consume();
                        last_position = pos;
                        emit(i, Instance::new(seq, instance.first, pos));
                        emitted += 1;
                        i += 1;
                    }
                    // Window miss: reject this instance only.
                    Some(_) => i += 1,
                    None => {
                        // Row exhausted: skip the run's tail.
                        i = run_end(instances, i, seq);
                        break;
                    }
                }
            }
        }
        // Early exit: even if every remaining input instance could be
        // extended, the target cannot be reached.
        if target != usize::MAX && emitted + (total - i) < target {
            return;
        }
    }
}

/// Counts the support of every sibling `P ◦ e` of a node in one pass over
/// the node's sequences, instead of one growth-kernel pass per candidate
/// event.
///
/// Algorithm 2 matches instance `i` of `P` to the first `e` after
/// `max(last_i, previous match)`, so one forward scan of a sequence finds
/// that greedy match for every event at once. For each run of instances,
/// the sweep reads the sequence's events from just after the run's first
/// `last` to its end and keeps one pointer per candidate into the run's
/// sorted `last` list: at position `p` holding candidate `e`, if the
/// pointed-to `last` is below `p`, the instance grows, `e` counts one, and
/// its pointer advances. Each candidate's count is the kernel's `support()`.
///
/// A sweep costs the summed suffix length of the runs (`steps`), the
/// per-event passes about `candidates · instances`; [`Self::pays`] is the
/// rule that picks between them. The candidate-slot table is built once per
/// scan; the counts live in a reusable [`SweepScratch`].
#[derive(Debug, Clone)]
pub struct SiblingSweep {
    /// `slots[e]`: event `e`'s index in the candidate list, or
    /// [`NO_SLOT`] when `e` is not a candidate.
    slots: Vec<u32>,
    candidates: usize,
}

/// The slot of an event that is not a candidate.
const NO_SLOT: u32 = u32::MAX;

/// Per-candidate sweep state: the running count over the node, and the
/// pointer into the current run's instances, valid while `run` matches
/// the scratch's run stamp.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    run: u32,
    next: u32,
    count: u32,
}

/// The reusable state of [`SiblingSweep::count`]: one tally per candidate,
/// reset per node, with per-run pointers invalidated by a run stamp — so a
/// warm sweep allocates nothing.
#[derive(Debug, Default)]
pub struct SweepScratch {
    tallies: Vec<Tally>,
    run: u32,
}

impl SweepScratch {
    /// Creates an empty scratch (it warms up on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The candidates' supports from the last [`SiblingSweep::count`], in
    /// candidate order.
    pub fn counts(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.tallies.iter().map(|t| u64::from(t.count))
    }

    /// Starts the next run: every pointer stamped with an older run reads
    /// as the run's first instance.
    #[inline]
    fn next_run(&mut self) -> u32 {
        if self.run == u32::MAX {
            self.tallies.iter_mut().for_each(|t| t.run = 0);
            self.run = 0;
        }
        self.run += 1;
        self.run
    }
}

impl SiblingSweep {
    /// The sweep over `events`, the scan's candidates in order.
    pub fn new(events: &[EventId]) -> Self {
        let len = events.iter().map(|e| e.index() + 1).max().unwrap_or(0);
        let mut slots = vec![NO_SLOT; len];
        for (slot, event) in events.iter().enumerate() {
            if let (Some(entry), Ok(slot)) = (slots.get_mut(event.index()), u32::try_from(slot)) {
                *entry = slot;
            }
        }
        Self {
            slots,
            candidates: events.len(),
        }
    }

    /// Whether one sweep over `steps` suffix positions beats one growth pass
    /// per candidate over `instances` instances: `2·steps ≤
    /// candidates·instances`.
    pub fn pays(&self, steps: u64, instances: usize) -> bool {
        let passes = (self.candidates as u64).saturating_mul(instances as u64);
        steps.saturating_mul(2) <= passes
    }

    /// Counts every candidate's support as a child of `instances` (sorted by
    /// `(seq, last)`, sequences of `store`) into `scratch`; read the counts
    /// with [`SweepScratch::counts`].
    pub fn count(&self, store: &SeqStore, instances: &[Instance], scratch: &mut SweepScratch) {
        scratch.tallies.clear();
        scratch.tallies.resize(self.candidates, Tally::default());
        let offsets = store.offsets();
        match store.event_column() {
            EventColumn::Narrow(column) => self.count_in(column, offsets, instances, scratch),
            EventColumn::Wide(column) => self.count_in(column, offsets, instances, scratch),
        }
    }

    /// [`Self::count`] over an event column of one width.
    fn count_in<W: EventWidth>(
        &self,
        column: &[W],
        offsets: &[u32],
        instances: &[Instance],
        scratch: &mut SweepScratch,
    ) {
        let mut i = 0usize;
        while let Some(head) = instances.get(i) {
            let end = run_end(instances, i, head.seq);
            let run = instances.get(i..end).unwrap_or(&[]);
            i = end;
            let stamp = scratch.next_run();
            let (start, stop) = sequence_bounds(offsets, head.seq);
            let suffix = column.get(start + head.last as usize..stop).unwrap_or(&[]);
            for (pos, &event) in (head.last + 1..).zip(suffix) {
                let Some(tally) = self
                    .slots
                    .get(event.to_event().index())
                    .and_then(|&slot| scratch.tallies.get_mut(slot as usize))
                else {
                    continue;
                };
                if tally.run != stamp {
                    tally.run = stamp;
                    tally.next = 0;
                }
                if run.get(tally.next as usize).is_some_and(|i| i.last < pos) {
                    tally.next += 1;
                    tally.count += 1;
                }
            }
        }
    }
}

/// The [`RunSet`] of `instances` (sorted by `(seq, last)`, sequences of
/// `store`) and the summed suffix length a [`SiblingSweep`] over them would
/// scan, in one pass over their runs.
pub fn node_runs(store: &SeqStore, instances: &[Instance]) -> (RunSet, u64) {
    let (Some(first), Some(last)) = (instances.first(), instances.last()) else {
        return (RunSet::of(std::iter::empty()), 0);
    };
    let mut runs = RunSet::spanning(first.seq as usize, last.seq as usize);
    let offsets = store.offsets();
    let mut steps = 0u64;
    let mut i = 0usize;
    while let Some(head) = instances.get(i) {
        runs.insert(head.seq as usize);
        let (start, stop) = sequence_bounds(offsets, head.seq);
        steps += (stop.saturating_sub(start + head.last as usize)) as u64;
        i = run_end(instances, i, head.seq);
    }
    (runs, steps)
}

/// The arena range `start..stop` of sequence `seq` under CSR `offsets`
/// (empty past the table).
#[inline]
fn sequence_bounds(offsets: &[u32], seq: u32) -> (usize, usize) {
    let seq = seq as usize;
    match (offsets.get(seq), offsets.get(seq + 1)) {
        (Some(&start), Some(&stop)) => (start as usize, stop as usize),
        _ => (0, 0),
    }
}

/// The sequences of `instances`, ascending.
pub(crate) fn run_seqs(
    instances: &[Instance],
) -> impl DoubleEndedIterator<Item = usize> + Clone + '_ {
    instances.iter().map(|inst| inst.seq as usize)
}

/// The index of the first instance at or after `i` in a sequence at or
/// after `seq` (instances are sorted by sequence), galloped so skipping
/// `k` instances costs `O(log k)`.
#[inline]
fn skip_to(instances: &[Instance], i: usize, seq: usize) -> usize {
    let rest = instances.get(i..).unwrap_or(&[]);
    i + gallop(rest, |inst| (inst.seq as usize) < seq)
}

/// The index of the first instance at or after `i` outside sequence `seq`,
/// galloped like [`skip_to`].
#[inline]
fn run_end(instances: &[Instance], i: usize, seq: u32) -> usize {
    let rest = instances.get(i..).unwrap_or(&[]);
    i + gallop(rest, |inst| inst.seq == seq)
}

/// One full extension layer, kernel work only: grows every support set in
/// `seeds` by every event in `events` (the exact grow calls one `mineFre`
/// level issues), reusing a single output buffer across all pairs, and
/// returns the total number of instances emitted.
///
/// This is the benchmark entry point for the growth kernels themselves:
/// unlike timing a whole mining run — where support counting, closure
/// checks, and tree bookkeeping dilute the kernel's share of the wall
/// clock — every cycle spent here is kernel time, so its throughput
/// measures the kernels and nothing else.
#[must_use]
pub fn grow_layer(index: &InvertedIndex, seeds: &[SupportSet], events: &[EventId]) -> u64 {
    let mut out = SupportSet::new();
    let mut emitted = 0u64;
    for seed in seeds {
        // One run set per seed, lent to every pass — as the miner does.
        let runs = RunSet::of(run_seqs(seed.instances()));
        for &event in events {
            grow_into(
                index,
                event,
                GapConstraints::unbounded(),
                seed.instances(),
                Some(&runs),
                usize::MAX,
                &mut out,
            );
            emitted += out.instances().len() as u64;
        }
    }
    emitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdb::SequenceDatabase;

    /// Table III: S1 = ABCACBDDB, S2 = ACDBACADD.
    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    /// The one loop under `constraints`, cut short at `target`.
    fn grow_with(
        index: &InvertedIndex,
        event: EventId,
        constraints: GapConstraints,
        instances: &[Instance],
        target: usize,
    ) -> Vec<Instance> {
        let mut out = SupportSet::new();
        grow_into(index, event, constraints, instances, None, target, &mut out);
        out.instances().to_vec()
    }

    fn grow(
        index: &InvertedIndex,
        event: EventId,
        instances: &[Instance],
        target: usize,
    ) -> Vec<Instance> {
        grow_with(index, event, GapConstraints::unbounded(), instances, target)
    }

    fn grow_gapped(
        index: &InvertedIndex,
        event: EventId,
        constraints: &GapConstraints,
        instances: &[Instance],
    ) -> Vec<Instance> {
        grow_with(index, event, *constraints, instances, usize::MAX)
    }

    /// Algorithm 2 verbatim, one `next(S, e, max(last, watermark))` per
    /// instance and no window: the naive per-call loop the unconstrained
    /// instantiation replaces.
    fn naive_unconstrained(
        index: &InvertedIndex,
        event: EventId,
        instances: &[Instance],
    ) -> Vec<Instance> {
        let mut out = Vec::new();
        let mut current_seq = u32::MAX;
        let mut last_position = 0u32;
        for instance in instances {
            if instance.seq != current_seq {
                current_seq = instance.seq;
                last_position = 0;
            }
            if let Some(pos) = index.next(
                instance.seq as usize,
                event,
                last_position.max(instance.last),
            ) {
                last_position = pos;
                out.push(Instance::new(instance.seq, instance.first, pos));
            }
        }
        out
    }

    /// The naive per-call loop the constrained instantiation replaces: one
    /// `next(S, e, lowest)` per instance, a window check, and a dead run
    /// once the row is exhausted.
    fn naive_constrained(
        index: &InvertedIndex,
        event: EventId,
        constraints: &GapConstraints,
        instances: &[Instance],
    ) -> Vec<Instance> {
        let mut out = Vec::new();
        let mut current_seq = u32::MAX;
        let mut last_position = 0u32;
        let mut dead = false;
        for instance in instances {
            if instance.seq != current_seq {
                current_seq = instance.seq;
                last_position = 0;
                dead = false;
            }
            if dead {
                continue;
            }
            let lowest = last_position.max(constraints.lowest_exclusive(instance.last));
            let highest = constraints.highest_inclusive(instance.first, instance.last);
            match index.next(instance.seq as usize, event, lowest) {
                Some(pos) if pos <= highest => {
                    last_position = pos;
                    out.push(Instance::new(instance.seq, instance.first, pos));
                }
                Some(_) => {}
                None => dead = true,
            }
        }
        out
    }

    fn multi_run_instances() -> Vec<Instance> {
        vec![
            Instance::new(0, 1, 1),
            Instance::new(0, 2, 3),
            Instance::new(0, 4, 6),
            Instance::new(1, 1, 2),
            Instance::new(1, 3, 5),
        ]
    }

    #[test]
    fn unconstrained_kernel_matches_the_per_call_probe() {
        let db = running_example();
        let index = db.inverted_index();
        let instances = multi_run_instances();
        for event in db.catalog().ids() {
            let got = grow(&index, event, &instances, usize::MAX);
            assert_eq!(
                got,
                naive_unconstrained(&index, event, &instances),
                "event {event:?}"
            );
        }
    }

    #[test]
    fn unconstrained_kernel_honors_the_target_early_exit() {
        let db = running_example();
        let index = db.inverted_index();
        let b = db.catalog().id("B").expect("B interned");
        let instances = multi_run_instances();
        // An unreachable target aborts after the first sequence's run: the
        // output is the unbounded pass's prefix up to that run's end.
        let target = instances.len() + 1;
        let cut = grow(&index, b, &instances, target);
        assert!(cut.len() < instances.len());
        let full = naive_unconstrained(&index, b, &instances);
        let first_run = full.iter().take_while(|inst| inst.seq == 0).count();
        assert_eq!(cut, full.get(..first_run).unwrap_or(&[]));
    }

    #[test]
    fn constrained_kernel_rejects_without_consuming() {
        // S1 = ABCACBDDB: D at positions {7, 8}. With max_gap 0 an instance
        // ending at 3 cannot reach 7, but the rejected position 7 must stay
        // available for a later instance ending at 6.
        let db = running_example();
        let index = db.inverted_index();
        let d = db.catalog().id("D").expect("D interned");
        let contiguous = GapConstraints::max_gap(0);
        let instances = vec![
            Instance::new(0, 1, 3),
            Instance::new(0, 2, 6),
            Instance::new(0, 4, 7),
        ];
        // (1,3): next D after 3 is 7, gap too large — rejected, not consumed.
        // (2,6): next D after 6 is 7, contiguous — emitted.
        // (4,7): next D after 7 is 8, contiguous — emitted.
        assert_eq!(
            grow_gapped(&index, d, &contiguous, &instances),
            [Instance::new(0, 2, 7), Instance::new(0, 4, 8)]
        );
    }

    #[test]
    fn unbounded_constraints_degenerate_to_the_unconstrained_kernel() {
        // The unconstrained instantiation, and the constrained one under
        // bounds that admit everything, both reproduce Algorithm 2.
        let db = running_example();
        let index = db.inverted_index();
        let admit_all = [
            GapConstraints::unbounded(),
            GapConstraints::gap_range(0, u32::MAX),
            GapConstraints::max_window(u32::MAX),
        ];
        let instances = multi_run_instances();
        for event in db.catalog().ids() {
            let naive = naive_unconstrained(&index, event, &instances);
            for constraints in &admit_all {
                assert_eq!(
                    grow_gapped(&index, event, constraints, &instances),
                    naive,
                    "event {event:?} ({constraints:?})"
                );
            }
        }
    }

    /// Deterministic LCG for the differential sweeps.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// Random constraints: each bound is present about half the time.
    fn random_constraints(rng: &mut Lcg) -> GapConstraints {
        let mut constraints = GapConstraints::unbounded().with_min_gap((rng.next() % 3) as u32);
        if rng.next().is_multiple_of(2) {
            constraints = constraints.with_max_gap((rng.next() % 5) as u32);
        }
        if rng.next().is_multiple_of(2) {
            constraints = constraints.with_max_window(1 + (rng.next() % 8) as u32);
        }
        constraints
    }

    /// Random databases + random right-shift-sorted instance slices: the
    /// one loop must reproduce the naive probes bit for bit, on rows and
    /// runs both shorter and longer than 64 positions, under a grid of
    /// constraints and a random one. Under a random `target` it must match
    /// the naive probe whenever that reaches `target`, and otherwise stop
    /// below `target` on a prefix of the naive output.
    #[test]
    fn batched_kernels_match_scalar_on_seeded_inputs() {
        let mut rng = Lcg(0xD1CE);
        let grids = [
            GapConstraints::unbounded(),
            GapConstraints::max_gap(0),
            GapConstraints::max_gap(2),
            GapConstraints::gap_range(1, 3),
            GapConstraints::max_window(5),
        ];
        for round in 0..30 {
            // Every third round is dense (two symbols, ~300 events a row)
            // so posting rows and runs reach past 64 positions.
            let (alphabet, max_len) = if round % 3 == 0 {
                (&["A", "B"][..], 300)
            } else {
                (&["A", "B", "C", "D", "E"][..], 40)
            };
            let num_seqs = 1 + (rng.next() % 4) as usize;
            let rows: Vec<String> = (0..num_seqs)
                .map(|_| {
                    let len = (rng.next() % max_len) as usize;
                    (0..len)
                        .map(|_| alphabet[(rng.next() % alphabet.len() as u64) as usize])
                        .collect()
                })
                .collect();
            let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
            let db = SequenceDatabase::from_str_rows(&refs);
            let index = db.inverted_index();

            // Right-shift-sorted instances with duplicate-heavy runs, some
            // of more than a hundred instances.
            let mut instances = Vec::new();
            for (seq, row) in rows.iter().enumerate() {
                if row.is_empty() {
                    continue;
                }
                let count = (rng.next() % 160) as usize;
                let mut last = 0u32;
                for _ in 0..count {
                    last = (last + (rng.next() % 3) as u32).clamp(1, row.len() as u32);
                    let first = 1 + (rng.next() as u32 % last);
                    instances.push(Instance::new(seq as u32, first, last));
                }
            }

            for event in db.catalog().ids() {
                assert_eq!(
                    grow(&index, event, &instances, usize::MAX),
                    naive_unconstrained(&index, event, &instances),
                    "round {round} event {event:?} (unconstrained)"
                );
                let random = random_constraints(&mut rng);
                for constraints in grids.iter().chain([&random]) {
                    let naive = naive_constrained(&index, event, constraints, &instances);
                    assert_eq!(
                        grow_gapped(&index, event, constraints, &instances),
                        naive,
                        "round {round} event {event:?} ({constraints:?})"
                    );
                    // The target sits at the naive count or one past it
                    // (the edges of the early exit) or anywhere below the
                    // input length.
                    let target = match rng.next() % 3 {
                        0 => naive.len(),
                        1 => naive.len() + 1,
                        _ => (rng.next() % (instances.len() as u64 + 2)) as usize,
                    };
                    let cut = grow_with(&index, event, *constraints, &instances, target);
                    let what =
                        format!("round {round} event {event:?} target {target} ({constraints:?})");
                    if naive.len() >= target {
                        assert_eq!(cut, naive, "{what}");
                    } else {
                        assert!(cut.len() < target, "{what}");
                        assert_eq!(cut, naive.get(..cut.len()).unwrap_or(&[]), "{what}");
                    }
                    // A target past the input length is out of reach from
                    // the start: the pass stops after the first run.
                    let unreachable = instances.len() + 1;
                    let cut = grow_with(&index, event, *constraints, &instances, unreachable);
                    let first_seq = instances.first().map(|inst| inst.seq);
                    assert!(cut.iter().all(|g| Some(g.seq) == first_seq), "{what}");
                }
            }
        }
    }

    /// A database of `"B" * b + "A" * a` rows, its index, and `A`, whose
    /// posting row in sequence `s` is `b_s + 1 ..= b_s + a_s`.
    fn b_then_a(rows: &[(usize, usize)]) -> (InvertedIndex, EventId) {
        let rows: Vec<String> = rows
            .iter()
            .map(|&(b, a)| "B".repeat(b) + &"A".repeat(a))
            .collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let db = SequenceDatabase::from_str_rows(&refs);
        let a = db.catalog().id("A").expect("A interned");
        (db.inverted_index(), a)
    }

    /// The instances `(seq, k, k)` for each `k` in `lasts`.
    fn ending_at(seq: u32, lasts: impl Iterator<Item = u32>) -> Vec<Instance> {
        lasts.map(|last| Instance::new(seq, last, last)).collect()
    }

    /// Grows `instances` and, when no `target` is set, checks the result
    /// against the naive probe; returns it.
    fn check_naive(
        index: &InvertedIndex,
        event: EventId,
        instances: &[Instance],
        target: usize,
        what: &str,
    ) -> Vec<Instance> {
        let grown = grow(index, event, instances, target);
        if target == usize::MAX {
            assert_eq!(
                grown,
                naive_unconstrained(index, event, instances),
                "{what}"
            );
        }
        grown
    }

    /// Long runs over long rows: runs of 63/64/65/128/129 instances ending
    /// on `B`s, grown into rows of 63/64/65 `A`s, so every instance takes
    /// the next row slot until the row runs out.
    #[test]
    fn block_boundaries_match_the_naive_probe() {
        for run in [63usize, 64, 65, 128, 129] {
            for left in [63usize, 64, 65] {
                let (index, a) = b_then_a(&[(run, left)]);
                let instances = ending_at(0, 1..=run as u32);
                let grown = check_naive(&index, a, &instances, usize::MAX, "boundary");
                assert_eq!(grown.len(), run.min(left), "run {run} left {left}");
            }
        }
    }

    /// Runs where the next-slot pattern breaks: an instance whose bound
    /// equals the row front, a jump past many row slots mid-run, and the
    /// `target` early exit after a run of 64 instances.
    #[test]
    fn block_hand_offs_match_the_naive_probe() {
        // `A` self-extension: instance 0's bound equals the row's first
        // position, so every probe skips the slot its own `last` holds.
        let (index, a) = b_then_a(&[(0, 400)]);
        check_naive(
            &index,
            a,
            &ending_at(0, 1..=150),
            usize::MAX,
            "self extension",
        );

        // 40 instances end on `B`s and take consecutive `A` slots, then a
        // jump into the `A`s makes instance 40 search forward.
        let (index, a) = b_then_a(&[(40, 400)]);
        let instances = ending_at(0, (1..=40).chain(200..=300));
        check_naive(&index, a, &instances, usize::MAX, "mid-run jump");

        // Target early exit after a long run: sequence 0 grows all 64
        // instances, and sequence 1's 8 cannot lift the count to 100, so
        // the pass stops before growing them.
        let (index, a) = b_then_a(&[(64, 64), (8, 8)]);
        let mut instances = ending_at(0, 1..=64);
        instances.extend(ending_at(1, 1..=8));
        let grown = check_naive(&index, a, &instances, 100, "target exit");
        let full = naive_unconstrained(&index, a, &instances);
        assert_eq!(grown, full.get(..64).unwrap_or(&[]));
    }
}
