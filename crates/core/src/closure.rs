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
//!
//! **The first link comes from the ancestor's child table.** For `j ≥ 1`
//! the chain's first link `e1..ej ◦ e'` is a child of the ancestor
//! `e1..ej`, whose eager child pass already counted it and kept its set
//! when it cleared `t_min` ([`Child`]). Given those tables
//! ([`ClosureChecker::check_with_children`]), the check skips `e'` outright
//! when that child's support is below `sup(P)` and otherwise starts the
//! chain from the kept set, so only `ej+1..em` are grown. The prepend
//! (slot 0) and the trailing append below have no ancestor child and are
//! grown in full; [`ClosureChecker::check`] reads no tables and grows
//! every first link.
//!
//! **Each distinct extension is grown once.** Inserting `e` before `P[j]`
//! when `P[j] = e` spells the same sequence as inserting it one slot later,
//! so all insertions of `e` into one run of `e` in `P` (a maximal block of
//! equal events) give the same extension. The leftmost support set is a
//! function of the pattern alone, so they share their support set and their
//! landmark-border verdict. The check grows such an extension only at its
//! run's **end**, by skipping every `(slot j, event e)` with `e = P[j]`:
//!
//! * an interior run `P[i..=k]` of `e` is grown once, at slot `k + 1`;
//! * a run that ends `P` is grown once, as the append `P ◦ P[len-1]`: one
//!   growth of `P`'s own support set by `P[len-1]`, and none when the
//!   caller's `append_has_equal_support` flag is already set. Appends never
//!   meet the landmark border condition (their instances end strictly later
//!   than `P`'s), so this extension can only make `P` non-closed.
//!
//! A check therefore grows at most `len · |viable|` extensions. The one at
//! slot `j` is a chain of `len - j + 1` instance growths (`e'`, then
//! `ej+1..em`); from a child table it costs `len - j` for `j ≥ 1`, and
//! nothing when the ancestor's child already falls short of `sup(P)`. For
//! `P = A^k` the extension `A^(k+1)` costs one growth, not one per slot.

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

use std::borrow::Cow;

use seqdb::EventId;

use crate::growth::SupportComputer;
use crate::pattern::Pattern;
use crate::support::SupportSet;

/// Reusable scratch buffers for the closure check.
///
/// `ClosureChecker::extension_support` chains one instance growth per
/// suffix event; with a ping/pong pair of support sets the whole chain runs
/// in the two buffers below. The per-sequence instance counts of `P` and
/// the viable candidates (indices into the checker's candidate table) are
/// refilled in place on every call, so a
/// warm scratch makes every closure check allocation-free. Each DFS (and
/// each parallel worker) owns one scratch; the checker itself stays shared
/// and immutable.
#[derive(Debug, Default)]
pub struct CheckScratch {
    a: SupportSet,
    b: SupportSet,
    counts: Vec<(usize, usize)>,
    viable: Vec<usize>,
}

impl CheckScratch {
    /// Creates an empty scratch (buffers warm up on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// One slot of a DFS node's child table: the support of the node grown by
/// one candidate event, and that child's leftmost support set when it
/// cleared the scan's threshold `t_min`.
///
/// A node's table is index-aligned with the checker's candidates. Below
/// `t_min` the support may be a cut-short count; it is only known to be
/// below `t_min`, which is below the support of every node checked.
#[derive(Debug)]
pub struct Child {
    /// `sup(node ◦ e)`, exact when at least `t_min`.
    pub support: u64,
    /// The child's leftmost support set; `None` below `t_min`, and while
    /// the child is itself an open node of the walk.
    pub set: Option<SupportSet>,
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
    /// table in its plan and binds a checker to it for every walk, one per
    /// parallel seed. The table is index-aligned with the walk's child
    /// tables.
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
    ///   the closed/non-closed verdict. A caller that did not grow the
    ///   appends passes `false`; the check still finds `P ◦ P[len-1]`, the
    ///   extension every insertion into `P`'s trailing run spells.
    pub fn check(
        &self,
        pattern: &Pattern,
        prefix_stack: &[SupportSet],
        append_has_equal_support: bool,
        scratch: &mut CheckScratch,
    ) -> ClosureStatus {
        self.check_with_children(
            pattern,
            prefix_stack,
            &[],
            append_has_equal_support,
            scratch,
        )
    }

    /// [`ClosureChecker::check`], starting each chain at slot `j ≥ 1` from
    /// the child table of the ancestor `pattern.prefix(j)`.
    ///
    /// `children[d]` is the table of the node `prefix_stack[d]`, one
    /// [`Child`] per candidate in candidate order. Only the tables of
    /// strict ancestors (`d < len - 1`) are read, and a missing table means
    /// that slot's first links are grown as by `check`. The verdict is
    /// `check`'s: a kept set is the leftmost support set the chain's first
    /// growth would compute.
    pub fn check_with_children(
        &self,
        pattern: &Pattern,
        prefix_stack: &[SupportSet],
        children: &[Vec<Child>],
        append_has_equal_support: bool,
        scratch: &mut CheckScratch,
    ) -> ClosureStatus {
        // The viable list is taken out of the scratch for the scan, so the
        // growth buffers can be borrowed beside it; putting it back keeps
        // its capacity.
        let mut viable = std::mem::take(&mut scratch.viable);
        let verdict = self.scan_slots(
            pattern,
            prefix_stack,
            children,
            append_has_equal_support,
            &mut viable,
            scratch,
        );
        scratch.viable = viable;
        verdict
    }

    /// Refills `viable` with the indices of the candidate events that can
    /// yield an equal-support extension of the pattern whose support set is
    /// `support_set`.
    ///
    /// If sup(P') = sup(P) then, per sequence, P' has exactly as many
    /// non-overlapping instances as P (per-sequence maxima are monotone and
    /// the totals are equal), and each of those instances consumes a
    /// distinct occurrence of the inserted event. An event that occurs fewer
    /// times than that in some sequence where P has instances can therefore
    /// never yield an equal-support extension — filtering it out here keeps
    /// the per-slot scan cheap.
    fn fill_viable(
        &self,
        support_set: &SupportSet,
        counts: &mut Vec<(usize, usize)>,
        viable: &mut Vec<usize>,
    ) {
        let support = support_set.support();
        counts.clear();
        counts.extend(
            support_set
                .per_sequence()
                .map(|(seq, instances)| (seq, instances.len())),
        );
        viable.clear();
        viable.extend(
            self.candidates
                .iter()
                .enumerate()
                .filter(|&(_, &(event, total))| {
                    if total < support {
                        return false;
                    }
                    // Sequences ascend, so one forward-only row handle serves
                    // the whole scan.
                    let mut rows = self.sc.index().event_rows(event);
                    counts
                        .iter()
                        .all(|&(seq, count)| rows.row(seq).map_or(0, <[u32]>::len) >= count)
                })
                .map(|(i, _)| i),
        );
    }

    /// Grows each distinct single-insertion extension of `pattern` by a
    /// `viable` event once (see the module docs for the run rule), from the
    /// ancestors' `children` where there are any, and derives the verdict.
    fn scan_slots(
        &self,
        pattern: &Pattern,
        prefix_stack: &[SupportSet],
        children: &[Vec<Child>],
        append_has_equal_support: bool,
        viable: &mut Vec<usize>,
        scratch: &mut CheckScratch,
    ) -> ClosureStatus {
        let Some(support_set) = prefix_stack.last() else {
            // The empty pattern has no extensions on the stack to compare
            // against; it is never emitted, so the verdict is moot.
            return ClosureStatus::Closed;
        };
        debug_assert_eq!(prefix_stack.len(), pattern.len());
        self.fill_viable(support_set, &mut scratch.counts, viable);
        let support = support_set.support();
        let events = pattern.events();
        let mut non_closed = append_has_equal_support;
        // Slots 0..len: slot j inserts e' before pattern event j; slot 0 is a
        // prepend. Inserting e' = P[j] there spells the same pattern as
        // slot j + 1, so only the run's end is grown.
        for (slot, &at_slot) in events.iter().enumerate() {
            // The table of the ancestor P[..slot], a strict ancestor of P.
            let table = slot.checked_sub(1).and_then(|parent| children.get(parent));
            for &i in viable.iter() {
                let Some(&(event, _)) = self.candidates.get(i) else {
                    continue;
                };
                if event == at_slot {
                    continue;
                }
                let child = table.and_then(|table| table.get(i));
                if child.is_some_and(|child| child.support < support) {
                    // P[..slot] ◦ e' already falls short of sup(P).
                    continue;
                }
                let first = child.and_then(|child| child.set.as_ref());
                if let Some(extension) =
                    self.extension_support(pattern, prefix_stack, slot, event, first, scratch)
                {
                    non_closed = true;
                    if landmark_border_holds(extension, support_set) {
                        return ClosureStatus::Prune;
                    }
                }
            }
        }
        // Slot len (append) is covered by `append_has_equal_support`, except
        // that the trailing run's insertions all spell `P ◦ P[len-1]`, which
        // the loop above skipped. Callers may pass `false` without growing
        // the appends, so grow that one here; as an append it can never meet
        // the landmark border, only make `P` non-closed.
        if !non_closed {
            if let Some(&last) = events.last() {
                non_closed = viable
                    .iter()
                    .any(|&i| self.candidates.get(i).is_some_and(|&(e, _)| e == last))
                    && self
                        .extension_support(pattern, prefix_stack, events.len(), last, None, scratch)
                        .is_some();
            }
        }
        if non_closed {
            ClosureStatus::NonClosed
        } else {
            ClosureStatus::Closed
        }
    }

    /// Computes the leftmost support set of the extension of `pattern` with
    /// `event` inserted at `slot`, returning it only when its support equals
    /// `sup(P)`, the support of the last set on `prefix_stack`. `first` is
    /// the chain's first link `e1..e_slot ◦ event` when the caller has it;
    /// otherwise it is grown here. Growth aborts early as soon as the
    /// support drops below `sup(P)` (the support of a super-pattern can
    /// never exceed it, Lemma 1). The chain ping-pongs between the two
    /// scratch buffers, so a warm scratch allocates nothing.
    fn extension_support<'s>(
        &self,
        pattern: &Pattern,
        prefix_stack: &[SupportSet],
        slot: usize,
        event: EventId,
        first: Option<&'s SupportSet>,
        scratch: &'s mut CheckScratch,
    ) -> Option<&'s SupportSet> {
        let target = prefix_stack.last()?.support();
        let target_usize = target as usize;
        let CheckScratch { a, b, .. } = scratch;
        let (mut current, mut spare): (&mut SupportSet, &mut SupportSet) = (a, b);
        let mut suffix = pattern.events().get(slot..).unwrap_or(&[]).iter();
        // Leftmost support set of e1..e_slot ◦ e', and of one suffix event
        // more when it was given.
        match first {
            Some(first) => {
                if first.support() < target {
                    return None;
                }
                let Some(&next) = suffix.next() else {
                    return Some(first);
                };
                self.sc
                    .instance_growth_into(first, next, target_usize, current);
            }
            None if slot == 0 => self.sc.initial_support_set_into(event, current),
            None => {
                let prefix = prefix_stack.get(slot - 1)?;
                self.sc
                    .instance_growth_into(prefix, event, target_usize, current);
            }
        }
        if current.support() < target {
            return None;
        }
        // Grow the remaining suffix.
        for &suffix_event in suffix {
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
    use crate::prepared::{frequent_events, PreparedDb};
    use seqdb::SequenceDatabase;

    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    fn checker_fixture(prepared: &PreparedDb, min_sup: u64) -> (SupportComputer<'_>, Vec<EventId>) {
        let sc = prepared.support_computer();
        let events = frequent_events(sc.index(), min_sup);
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
        let prepared = PreparedDb::new(&db);
        let (sc, events) = checker_fixture(&prepared, 3);
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
        let prepared = PreparedDb::new(&db);
        let (sc, events) = checker_fixture(&prepared, 3);
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
        let prepared = PreparedDb::new(&db);
        let (sc, events) = checker_fixture(&prepared, 4);
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
        let prepared = PreparedDb::new(&db);
        let (sc, events) = checker_fixture(&prepared, 3);
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
        let prepared = PreparedDb::new(&db);
        let (sc, events) = checker_fixture(&prepared, 3);
        let checker = ClosureChecker::new(&sc, &events);
        let aa = Pattern::new(db.pattern_from_str("AA").unwrap());
        let stack = prefix_stack(&sc, &aa);
        let c = db.catalog().id("C").unwrap();
        let mut scratch = CheckScratch::new();
        // Inserting C at slot 1 yields ACA with support 3 = sup(AA).
        let direct = sc.support_set(&Pattern::new(db.pattern_from_str("ACA").unwrap()));
        let ext = checker
            .extension_support(&aa, &stack, 1, c, None, &mut scratch)
            .expect("ACA has equal support");
        assert_eq!(ext.support(), 3);
        assert_eq!(ext, &direct);
        // Inserting D at slot 1 yields ADA with support < 3: rejected.
        let d = db.catalog().id("D").unwrap();
        assert!(checker
            .extension_support(&aa, &stack, 1, d, None, &mut scratch)
            .is_none());
    }

    /// The child tables of `pattern`'s strict ancestors as a walk at
    /// threshold `t_min` keeps them: every candidate's child support, and
    /// the child's set when it clears `t_min` and is not the ancestor's
    /// child on the path (that one is lent to the path).
    fn child_tables(
        sc: &SupportComputer<'_>,
        pattern: &Pattern,
        events: &[EventId],
        t_min: u64,
    ) -> Vec<Vec<Child>> {
        (1..pattern.len())
            .map(|len| {
                let prefix = pattern.prefix(len);
                let on_path = pattern.events().get(len);
                events
                    .iter()
                    .map(|&event| {
                        let set = sc.support_set(&prefix.grow(event));
                        let support = set.support();
                        let kept = support >= t_min && on_path != Some(&event);
                        Child {
                            support,
                            set: kept.then_some(set),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn checks_from_child_tables_match_check() {
        // Table III's AA (pruned), AB (non-closed) and ABD (closed), with
        // and without the append flag.
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let (sc, events) = checker_fixture(&prepared, 3);
        let checker = ClosureChecker::new(&sc, &events);
        let mut scratch = CheckScratch::new();
        for (text, expected) in [
            ("AA", ClosureStatus::Prune),
            ("AB", ClosureStatus::NonClosed),
            ("ABD", ClosureStatus::Closed),
        ] {
            let pattern = Pattern::new(db.pattern_from_str(text).unwrap());
            let stack = prefix_stack(&sc, &pattern);
            let tables = child_tables(&sc, &pattern, &events, 3);
            assert_eq!(tables.len(), pattern.len() - 1);
            for append in [false, true] {
                let verdict =
                    checker.check_with_children(&pattern, &stack, &tables, append, &mut scratch);
                assert_eq!(
                    verdict,
                    checker.check(&pattern, &stack, append, &mut scratch),
                    "{text}, append flag {append}"
                );
                if !append {
                    assert_eq!(verdict, expected, "{text}");
                }
            }
        }
    }

    #[test]
    fn landmark_border_comparison_is_pairwise() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let sc = prepared.support_computer();
        let aa = sc.support_set(&Pattern::new(db.pattern_from_str("AA").unwrap()));
        let aca = sc.support_set(&Pattern::new(db.pattern_from_str("ACA").unwrap()));
        let ab = sc.support_set(&Pattern::new(db.pattern_from_str("AB").unwrap()));
        let acb = sc.support_set(&Pattern::new(db.pattern_from_str("ACB").unwrap()));
        assert!(landmark_border_holds(&aca, &aa));
        assert!(!landmark_border_holds(&acb, &ab));
    }
}
