//! The growth kernels: whole-pass instance advancement over resolved
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
//! Both kernels advance a [`PostingCursor`] one probe at a time: each probe
//! gallops forward from the previous landmark and falls back to a
//! branch-free binary search over the galloped bracket, so a run of `k`
//! probes over a row of length `L` costs amortized `O(L + k·log stride)`.
//! When an instance's bound is already below the cursor front the probe
//! returns after two compares, so a long run of instances that each take
//! the next row slot costs one compare pair per instance, with no search.
//!
//! The kernels also fuse **run detection** into the same pass: a support
//! set stores its instances sorted by `(seq, last)`, so a sequence's run is
//! found by watching `seq` change under a single forward index — not by a
//! separate `take_while` pre-scan that touches every instance twice. The
//! instances a pass cannot grow — a run's tail once its row is exhausted,
//! or the runs of sequences without the event — are skipped by a gallop
//! over the sorted instances, so skipping `k` of them costs `O(log k)`.

use seqdb::index::gallop;
use seqdb::{EventId, InvertedIndex, PostingCursor, RunSet};

use crate::constraints::GapConstraints;
use crate::instance::Instance;
use crate::support::SupportSet;

/// One unconstrained extension pass (Algorithm 2): grows every instance of
/// `instances` (sorted by `(seq, last)`) by `event`, appending the grown
/// instances to `out` in the same order.
///
/// Within a sequence's run the row cursor advances under the
/// strictly-increasing `last_position` watermark; the run stops at the
/// first instance with no further occurrence of the event, because later
/// instances end even further right. With `target != usize::MAX` the pass
/// returns early once even extending every remaining instance could not
/// reach `target` grown instances (the caller is about to discard the set
/// as infrequent anyway). `runs`, when given, is the [`RunSet`] of
/// `instances`.
pub(crate) fn grow_unconstrained(
    index: &InvertedIndex,
    event: EventId,
    instances: &[Instance],
    runs: Option<&RunSet>,
    target: usize,
    out: &mut SupportSet,
) {
    let total = instances.len();
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
                // The consuming probe is sound here: the watermark makes every
                // later bound at least the emitted position, so an emitted
                // position can never be the answer again within this run.
                match cursor.next_after_consuming(last_position.max(instance.last)) {
                    Some(pos) => {
                        last_position = pos;
                        out.push(Instance::new(seq, instance.first, pos));
                        i += 1;
                    }
                    None => {
                        // Row exhausted: the remaining instances of this run
                        // end even further right, so none of them can be
                        // extended either — skip the run's tail.
                        i = run_end(instances, i, seq);
                        break;
                    }
                }
            }
        }
        // Early exit: even if every remaining input instance could be
        // extended, the target cannot be reached.
        if target != usize::MAX && out.instances().len() + (total - i) < target {
            return;
        }
    }
}

/// One gap-constrained extension pass: like [`grow_unconstrained`], but
/// each probe's window is bounded by `constraints` relative to the instance
/// being grown.
///
/// A position outside the window rejects only the current instance (the
/// probe does **not** consume it — the same position may satisfy the next
/// instance's window, whose bounds differ); row exhaustion ends the run for
/// every remaining instance of the sequence.
pub(crate) fn grow_constrained(
    index: &InvertedIndex,
    event: EventId,
    constraints: &GapConstraints,
    instances: &[Instance],
    runs: Option<&RunSet>,
    out: &mut SupportSet,
) {
    let mut rows = index.event_rows(event);
    if let Some(runs) = runs {
        rows.restrict(runs);
    }
    let mut i = 0usize;
    while let Some(head) = instances.get(i) {
        let seq = head.seq;
        let Some((hit, row)) = rows.next_row(seq as usize) else {
            break;
        };
        if hit != seq as usize {
            i = skip_to(instances, i, hit);
            continue;
        }
        let mut cursor = PostingCursor::new(row);
        let mut last_position = 0u32;
        while let Some(instance) = instances.get(i) {
            if instance.seq != seq {
                break;
            }
            // `lowest` stays non-decreasing along the run: the watermark
            // only grows and `lowest_exclusive` is monotone in the sorted
            // `last` positions — exactly the cursor's contract. The probe
            // must NOT consume: a position rejected for this instance's
            // window may satisfy the next instance's.
            let lowest = last_position.max(constraints.lowest_exclusive(instance.last));
            let highest = constraints.highest_inclusive(instance.first, instance.last);
            match cursor.next_after(lowest) {
                Some(pos) if pos <= highest => {
                    last_position = pos;
                    out.push(Instance::new(seq, instance.first, pos));
                    i += 1;
                }
                // Window miss: reject this instance only; the position
                // stays at the cursor front for the next instance.
                Some(_) => i += 1,
                None => {
                    i = run_end(instances, i, seq);
                    break;
                }
            }
        }
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
            out.clear();
            grow_unconstrained(
                index,
                event,
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

    fn grow(
        index: &InvertedIndex,
        event: EventId,
        instances: &[Instance],
        target: usize,
    ) -> Vec<Instance> {
        let mut out = SupportSet::new();
        grow_unconstrained(index, event, instances, None, target, &mut out);
        out.instances().to_vec()
    }

    fn grow_gapped(
        index: &InvertedIndex,
        event: EventId,
        constraints: &GapConstraints,
        instances: &[Instance],
    ) -> Vec<Instance> {
        let mut out = SupportSet::new();
        grow_constrained(index, event, constraints, instances, None, &mut out);
        out.instances().to_vec()
    }

    /// The naive per-call loop the unconstrained kernel replaces.
    fn naive_unconstrained(
        index: &InvertedIndex,
        event: EventId,
        instances: &[Instance],
    ) -> Vec<Instance> {
        naive_constrained(index, event, &GapConstraints::unbounded(), instances)
    }

    /// The naive per-call loop the constrained kernel replaces: one
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
        let db = running_example();
        let index = db.inverted_index();
        let unbounded = GapConstraints::unbounded();
        let instances = multi_run_instances();
        for event in db.catalog().ids() {
            assert_eq!(
                grow(&index, event, &instances, usize::MAX),
                grow_gapped(&index, event, &unbounded, &instances),
                "event {event:?}"
            );
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

    /// Random databases + random right-shift-sorted instance slices: both
    /// kernels must reproduce the naive probes bit for bit, on rows and runs
    /// both shorter and longer than 64 positions.
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
                for constraints in &grids {
                    assert_eq!(
                        grow_gapped(&index, event, constraints, &instances),
                        naive_constrained(&index, event, constraints, &instances),
                        "round {round} event {event:?} ({constraints:?})"
                    );
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
