//! Closure checking (Theorem 4) and landmark border checking (Theorem 5).
//!
//! A pattern `P` is **not closed** iff some *extension* of `P` — a
//! super-pattern obtained by inserting one event `e'` at any slot
//! (Definition 3.4: append, interior insertion, or prepend) — has the same
//! repetitive support. Closure checking therefore rules non-closed patterns
//! out of the output, but cannot prune the search (Example 3.5: `AB` is not
//! closed yet `ABD` is).
//!
//! Landmark border checking (Theorem 5) is the pruning strategy: if some
//! equal-support extension's *leftmost* support set ends, instance by
//! instance, no later than `P`'s leftmost support set, then **no** pattern
//! with prefix `P` can be closed, and the whole DFS subtree rooted at `P`
//! can be skipped.
//!
//! The checker reuses the DFS stack of prefix support sets: the extension at
//! slot `j` shares the prefix `e1..ej`, whose leftmost support set is
//! already on the stack, so only the events from `e'` onwards need to be
//! re-grown (with early abort as soon as the support falls below `sup(P)`).

use std::borrow::Cow;

use seqdb::EventId;

use crate::growth::SupportComputer;
use crate::pattern::Pattern;
use crate::support::SupportSet;

/// Reusable scratch buffers for the closure check's extension growth.
///
/// `ClosureChecker::extension_support` chains one instance growth per
/// suffix event; with a ping/pong pair of support sets the whole chain runs
/// in the two buffers below, so a warm scratch makes every closure check
/// allocation-free. Each DFS (and each parallel worker) owns one scratch;
/// the checker itself stays shared and immutable.
#[derive(Debug, Default)]
pub struct CheckScratch {
    a: SupportSet,
    b: SupportSet,
}

impl CheckScratch {
    /// Creates an empty scratch (buffers warm up on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The verdict of the combined closure / landmark-border check for one
/// pattern node of the DFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosureStatus {
    /// No extension has equal support: the pattern is closed and is emitted.
    Closed,
    /// Some extension has equal support, but none satisfies the landmark
    /// border condition: the pattern is suppressed from the output, yet its
    /// subtree must still be explored (it may contain closed patterns).
    NonClosed,
    /// Some equal-support extension satisfies the landmark border condition
    /// (Theorem 5): the pattern and its entire subtree are pruned.
    Prune,
}

/// Stateless helper performing the checks of Theorems 4 and 5 against a
/// fixed database/index and candidate event set.
#[derive(Debug)]
pub struct ClosureChecker<'a, 'b> {
    sc: &'a SupportComputer<'b>,
    /// Candidate events for extensions, paired with their total occurrence
    /// count (an upper bound on any extension's support).
    candidates: Cow<'a, [(EventId, u64)]>,
}

impl<'a, 'b> ClosureChecker<'a, 'b> {
    /// Creates a checker. `frequent_events` must contain every event that
    /// can appear in a frequent pattern (all events with support
    /// `>= min_sup`); restricting extensions to those events is sound
    /// because an equal-support extension of a frequent pattern is itself
    /// frequent, hence so is the inserted event (Theorem 1).
    pub fn new(sc: &'a SupportComputer<'b>, frequent_events: &[EventId]) -> Self {
        let candidates: Vec<(EventId, u64)> = frequent_events
            .iter()
            .map(|&e| (e, sc.index().total_count(e) as u64))
            .collect();
        Self {
            sc,
            candidates: Cow::Owned(candidates),
        }
    }

    /// Creates a checker borrowing a precomputed `(event, total
    /// occurrences)` candidate table, in O(1) — the DFS driver keeps the
    /// table in its plan and rebinds the checker for every step of a pull
    /// stream.
    pub(crate) fn from_candidates(
        sc: &'a SupportComputer<'b>,
        candidates: &'a [(EventId, u64)],
    ) -> Self {
        Self {
            sc,
            candidates: Cow::Borrowed(candidates),
        }
    }

    /// Runs the combined check for `pattern`.
    ///
    /// * `prefix_stack[j]` must be the leftmost support set of
    ///   `pattern.prefix(j + 1)`; in particular the last element is the
    ///   leftmost support set of `pattern` itself.
    /// * `append_has_equal_support` tells the checker whether some append
    ///   extension `P ◦ e` has support equal to `sup(P)`; the DFS computes
    ///   all append children anyway, so this information is free. Append
    ///   extensions can never trigger the landmark border condition (their
    ///   instances end strictly later than `P`'s), so they only matter for
    ///   the closed/non-closed verdict.
    pub fn check(
        &self,
        pattern: &Pattern,
        prefix_stack: &[SupportSet],
        append_has_equal_support: bool,
        scratch: &mut CheckScratch,
    ) -> ClosureStatus {
        let Some(support_set) = prefix_stack.last() else {
            // The empty pattern has no extensions on the stack to compare
            // against; it is never emitted, so the verdict is moot.
            return ClosureStatus::Closed;
        };
        let support = support_set.support();
        debug_assert_eq!(prefix_stack.len(), pattern.len());

        // Per-sequence instance counts of P. If sup(P') = sup(P) then, per
        // sequence, P' has exactly as many non-overlapping instances as P
        // (per-sequence maxima are monotone and the totals are equal), and
        // each of those instances consumes a distinct occurrence of the
        // inserted event. An event that occurs fewer times than that in some
        // sequence where P has instances can therefore never yield an
        // equal-support extension — filtering it out here keeps the
        // per-slot scan below cheap.
        let per_sequence_counts: Vec<(usize, usize)> = support_set
            .per_sequence()
            .map(|(seq, instances)| (seq, instances.len()))
            .collect();
        let viable: Vec<EventId> = self
            .candidates
            .iter()
            .filter(|&&(event, total)| {
                // Sequences ascend, so one forward-only row handle serves
                // the whole scan.
                let mut rows = self.sc.index().event_rows(event);
                total >= support
                    && per_sequence_counts
                        .iter()
                        .all(|&(seq, count)| rows.row(seq).map_or(0, <[u32]>::len) >= count)
            })
            .map(|&(event, _)| event)
            .collect();

        let mut non_closed = append_has_equal_support;
        // Slots 0..len: slot j inserts e' before pattern event j; slot 0 is a
        // prepend. Slot len (append) is covered by `append_has_equal_support`.
        for slot in 0..pattern.len() {
            for &event in &viable {
                if let Some(extension) =
                    self.extension_support(pattern, prefix_stack, slot, event, support, scratch)
                {
                    non_closed = true;
                    if landmark_border_holds(extension, support_set) {
                        return ClosureStatus::Prune;
                    }
                }
            }
        }
        if non_closed {
            ClosureStatus::NonClosed
        } else {
            ClosureStatus::Closed
        }
    }

    /// Computes the leftmost support set of the extension of `pattern` with
    /// `event` inserted at `slot`, returning it (borrowed from the scratch)
    /// only when its support equals `target`. Growth aborts early as soon as
    /// the support drops below `target` (the support of a super-pattern can
    /// never exceed it, Lemma 1). The whole chain ping-pongs between the two
    /// scratch buffers, so a warm scratch allocates nothing.
    fn extension_support<'s>(
        &self,
        pattern: &Pattern,
        prefix_stack: &[SupportSet],
        slot: usize,
        event: EventId,
        target: u64,
        scratch: &'s mut CheckScratch,
    ) -> Option<&'s SupportSet> {
        let target_usize = target as usize;
        let CheckScratch { a, b } = scratch;
        let (mut current, mut spare): (&mut SupportSet, &mut SupportSet) = (a, b);
        // Leftmost support set of e1..e_slot ◦ e'.
        if slot == 0 {
            self.sc.initial_support_set_into(event, current);
        } else {
            let prefix = prefix_stack.get(slot - 1)?;
            self.sc
                .instance_growth_into(prefix, event, target_usize, current);
        }
        if current.support() < target {
            return None;
        }
        // Grow the remaining suffix e_{slot+1}..e_m.
        for &suffix_event in pattern.events().get(slot..).unwrap_or(&[]) {
            self.sc
                .instance_growth_into(current, suffix_event, target_usize, spare);
            std::mem::swap(&mut current, &mut spare);
            if current.support() < target {
                return None;
            }
        }
        debug_assert_eq!(
            current.support(),
            target,
            "supersequence support exceeds target"
        );
        Some(current)
    }
}

/// Condition (ii) of Theorem 5: the leftmost support set of the extension
/// ends, instance by instance in right-shift order, no later than the
/// leftmost support set of the pattern.
///
/// Both sets have the same size and, because per-sequence maximum
/// non-overlapping counts are monotone, the same number of instances per
/// sequence, so pairing by rank is well defined.
fn landmark_border_holds(extension: &SupportSet, pattern_support: &SupportSet) -> bool {
    debug_assert_eq!(extension.support(), pattern_support.support());
    extension
        .last_positions()
        .zip(pattern_support.last_positions())
        .all(|((ext_seq, ext_last), (pat_seq, pat_last))| {
            ext_seq == pat_seq && ext_last <= pat_last
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsgrow::frequent_events;
    use seqdb::SequenceDatabase;

    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    fn checker_fixture(db: &SequenceDatabase, min_sup: u64) -> (SupportComputer<'_>, Vec<EventId>) {
        let sc = SupportComputer::new(db);
        let events = frequent_events(&sc, db, min_sup);
        (sc, events)
    }

    fn prefix_stack(sc: &SupportComputer<'_>, pattern: &Pattern) -> Vec<SupportSet> {
        (1..=pattern.len())
            .map(|len| sc.support_set(&pattern.prefix(len)))
            .collect()
    }

    #[test]
    fn example_3_6_aa_is_pruned_by_landmark_border_checking() {
        // AA has the equal-support extension ACA whose leftmost support set
        // ends at positions {4, 5, 7}, no later than AA's {4, 5, 7}: prune.
        let db = running_example();
        let (sc, events) = checker_fixture(&db, 3);
        let checker = ClosureChecker::new(&sc, &events);
        let aa = Pattern::new(db.pattern_from_str("AA").unwrap());
        let stack = prefix_stack(&sc, &aa);
        assert_eq!(
            checker.check(&aa, &stack, false, &mut CheckScratch::new()),
            ClosureStatus::Prune
        );
    }

    #[test]
    fn example_3_5_ab_is_non_closed_but_not_prunable() {
        // ACB has the same support as AB but its instances end strictly
        // later (6 > 2 and 9 > 6), so AB must still be grown (ABD is closed).
        let db = running_example();
        let (sc, events) = checker_fixture(&db, 3);
        let checker = ClosureChecker::new(&sc, &events);
        let ab = Pattern::new(db.pattern_from_str("AB").unwrap());
        let stack = prefix_stack(&sc, &ab);
        assert_eq!(
            checker.check(&ab, &stack, false, &mut CheckScratch::new()),
            ClosureStatus::NonClosed
        );
    }

    #[test]
    fn append_extension_marks_non_closed_via_flag() {
        // In Table II's database, sup(AB) = sup(ABC) = 4: the equal-support
        // extension is an append, reported through the flag.
        let db = SequenceDatabase::from_str_rows(&["ABCABCA", "AABBCCC"]);
        let (sc, events) = checker_fixture(&db, 4);
        let checker = ClosureChecker::new(&sc, &events);
        let ab = Pattern::new(db.pattern_from_str("AB").unwrap());
        let stack = prefix_stack(&sc, &ab);
        assert_eq!(
            checker.check(&ab, &stack, true, &mut CheckScratch::new()),
            ClosureStatus::NonClosed
        );
    }

    #[test]
    fn closed_pattern_is_reported_closed() {
        let db = running_example();
        let (sc, events) = checker_fixture(&db, 3);
        let checker = ClosureChecker::new(&sc, &events);
        // ABD is closed in the running example (support 3, no equal-support
        // extension).
        let abd = Pattern::new(db.pattern_from_str("ABD").unwrap());
        let stack = prefix_stack(&sc, &abd);
        assert_eq!(
            checker.check(&abd, &stack, false, &mut CheckScratch::new()),
            ClosureStatus::Closed
        );
    }

    #[test]
    fn extension_support_matches_direct_computation() {
        let db = running_example();
        let (sc, events) = checker_fixture(&db, 3);
        let checker = ClosureChecker::new(&sc, &events);
        let aa = Pattern::new(db.pattern_from_str("AA").unwrap());
        let stack = prefix_stack(&sc, &aa);
        let c = db.catalog().id("C").unwrap();
        let mut scratch = CheckScratch::new();
        // Inserting C at slot 1 yields ACA with support 3 = sup(AA).
        let direct = sc.support_set(&Pattern::new(db.pattern_from_str("ACA").unwrap()));
        let ext = checker
            .extension_support(&aa, &stack, 1, c, 3, &mut scratch)
            .expect("ACA has equal support");
        assert_eq!(ext.support(), 3);
        assert_eq!(ext, &direct);
        // Inserting D at slot 1 yields ADA with support < 3: rejected.
        let d = db.catalog().id("D").unwrap();
        assert!(checker
            .extension_support(&aa, &stack, 1, d, 3, &mut scratch)
            .is_none());
    }

    #[test]
    fn landmark_border_comparison_is_pairwise() {
        let db = running_example();
        let sc = SupportComputer::new(&db);
        let aa = sc.support_set(&Pattern::new(db.pattern_from_str("AA").unwrap()));
        let aca = sc.support_set(&Pattern::new(db.pattern_from_str("ACA").unwrap()));
        let ab = sc.support_set(&Pattern::new(db.pattern_from_str("AB").unwrap()));
        let acb = sc.support_set(&Pattern::new(db.pattern_from_str("ACB").unwrap()));
        assert!(landmark_border_holds(&aca, &aa));
        assert!(!landmark_border_holds(&acb, &ab));
    }
}
