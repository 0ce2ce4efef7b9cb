//! Instance growth (`INSgrow`, Algorithm 2) and repetitive support
//! computation (`supComp`, Algorithm 1).
//!
//! The instance-growth operation takes the leftmost support set of a pattern
//! `P` and an event `e` and extends it, greedily and in right-shift order,
//! into the leftmost support set of `P ◦ e`. The paper proves (Lemma 4) that
//! this greedy extension yields a *maximum-size* non-redundant instance set,
//! so the size of the result is exactly the repetitive support of `P ◦ e`.
//!
//! A [`SupportComputer`] carries optional [`GapConstraints`] (unbounded by
//! default, set with [`SupportComputer::with_constraints`]); every query
//! then reads as the constrained support `sup_C` of [`crate::constraints`].
//! The growth step itself is delegated to [`crate::kernel`], whose one
//! probe loop resolves each posting row once per extension pass and
//! advances one [`seqdb::PostingCursor`] through each sequence's run of
//! instances, for support sets and full landmarks alike. This module owns
//! the *semantics* (which instances to grow, in what order, into which
//! support set); the kernel owns the *mechanics* of finding each
//! instance's next admissible position.

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

use seqdb::{EventId, InvertedIndex, SequenceDatabase};

use crate::constraints::GapConstraints;
use crate::instance::{Instance, Landmark};
use crate::instbuf::InstanceBuffer;
use crate::kernel;
use crate::pattern::Pattern;
use crate::prepared::PreparedDb;
use crate::support::SupportSet;

/// Support queries against one prepared database: its sequences, its
/// inverted index and the gap constraints every growth step honours.
///
/// Get one from [`PreparedDb::support_computer`](crate::PreparedDb::support_computer),
/// which borrows the snapshot's index (O(1)), so any number of computers
/// share the index built once at preparation.
#[derive(Debug)]
pub struct SupportComputer<'a> {
    pub(crate) db: &'a SequenceDatabase,
    pub(crate) index: &'a InvertedIndex,
    /// The gap/window bounds every growth step honours.
    pub(crate) constraints: GapConstraints,
}

impl<'a> SupportComputer<'a> {
    /// This computer with every support query read under `constraints`:
    /// growth admits only extensions within their gap and window bounds,
    /// so supports are the constrained `sup_C` of [`crate::constraints`].
    pub fn with_constraints(mut self, constraints: GapConstraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// The constraints this computer applies (unbounded by default).
    pub fn constraints(&self) -> GapConstraints {
        self.constraints
    }

    /// The underlying database.
    pub fn database(&self) -> &SequenceDatabase {
        self.db
    }

    /// The underlying inverted index.
    pub fn index(&self) -> &InvertedIndex {
        self.index
    }

    /// The leftmost support set of the single-event pattern `event`: every
    /// occurrence of the event, in position order (line 1 of Algorithm 1 and
    /// line 3 of Algorithm 3).
    pub fn initial_support_set(&self, event: EventId) -> SupportSet {
        let mut set = SupportSet::new();
        self.initial_support_set_into(event, &mut set);
        set
    }

    /// [`Self::initial_support_set`] writing into a caller-provided set
    /// whose allocation is reused (cleared first).
    pub fn initial_support_set_into(&self, event: EventId, out: &mut SupportSet) {
        out.clear();
        for (seq, positions) in self.index().sequences_with_event(event) {
            for &pos in positions {
                out.push(Instance::new(seq as u32, pos, pos));
            }
        }
    }

    /// `INSgrow(SeqDB, P, I, e)` (Algorithm 2): extends the leftmost support
    /// set `support` of a pattern `P` into the leftmost support set of
    /// `P ◦ event`, admitting only extensions within this computer's
    /// constraints.
    ///
    /// The pattern itself is not needed: the compressed instances carry all
    /// the state the greedy extension requires (`first` and `last`
    /// positions).
    pub fn instance_growth(&self, support: &SupportSet, event: EventId) -> SupportSet {
        let mut grown = SupportSet::new();
        self.instance_growth_into(support, event, usize::MAX, &mut grown);
        grown
    }

    /// [`Self::instance_growth`] writing into a caller-provided set, with
    /// an early-exit bound: `out` is cleared (its allocation is kept) and
    /// refilled, so a warm buffer makes the growth step allocation-free.
    /// Growing stops as soon as it becomes impossible to reach `target`
    /// instances, i.e. when `grown_so_far + remaining_inputs < target`;
    /// with `target = usize::MAX` this is exactly Algorithm 2. This is the
    /// form the closure checks call in their hot loop.
    pub fn instance_growth_into(
        &self,
        support: &SupportSet,
        event: EventId,
        target: usize,
        out: &mut SupportSet,
    ) {
        kernel::grow_into(
            self.index(),
            event,
            self.constraints,
            support.instances(),
            None,
            target,
            out,
        );
    }

    /// `supComp(SeqDB, P)` (Algorithm 1): the leftmost support set of an
    /// arbitrary pattern, computed by chaining instance growth from the
    /// pattern's first event (constraints never restrict single events).
    pub fn support_set(&self, pattern: &Pattern) -> SupportSet {
        let events = pattern.events();
        let Some((&first, rest)) = events.split_first() else {
            return SupportSet::new();
        };
        // Double-buffered growth chain: two sets total, regardless of the
        // pattern length.
        let mut support = self.initial_support_set(first);
        let mut spare = SupportSet::new();
        for &event in rest {
            if support.is_empty() {
                return support;
            }
            self.instance_growth_into(&support, event, usize::MAX, &mut spare);
            std::mem::swap(&mut support, &mut spare);
        }
        support
    }

    /// The repetitive support `sup(P)` (Definition 2.5), or `sup_C(P)`
    /// under constraints.
    pub fn support(&self, pattern: &Pattern) -> u64 {
        self.support_set(pattern).support()
    }

    /// The leftmost support set with full landmarks (positions of every
    /// pattern event), for reporting and verification: the greedy replayed
    /// through an [`InstanceBuffer`], instance for instance
    /// [`Self::support_set`].
    pub fn support_landmarks(&self, pattern: &Pattern) -> Vec<Landmark> {
        let mut buffer = InstanceBuffer::new();
        buffer.reconstruct(self.index(), pattern, &self.constraints);
        buffer.to_landmarks()
    }
}

/// A free-list of [`SupportSet`]s recycled across instance-growth steps.
///
/// The DFS miners allocate one support set per *attempted* growth; most
/// attempts fail the threshold and the set is discarded immediately. The
/// pool keeps those discarded sets (allocation and all) and hands them back
/// on the next attempt, so steady-state mining performs zero per-step heap
/// allocations — the property pinned by the counting-allocator test.
#[derive(Debug, Default)]
pub(crate) struct SetPool {
    free: Vec<SupportSet>,
}

impl SetPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared set from the pool, or a fresh one when empty.
    pub fn take(&mut self) -> SupportSet {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a set to the pool for reuse (cleared, capacity kept).
    pub fn give(&mut self, mut set: SupportSet) {
        set.clear();
        self.free.push(set);
    }
}

/// Convenience wrapper: computes `sup(P)` for a pattern given as raw event
/// ids, preparing a temporary snapshot of `db`.
///
/// Prefer [`PreparedDb::support_computer`](crate::PreparedDb::support_computer)
/// when issuing many queries against the same database.
pub fn repetitive_support(db: &SequenceDatabase, pattern: &[EventId]) -> u64 {
    PreparedDb::new(db)
        .support_computer()
        .support(&Pattern::new(pattern.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table III: S1 = ABCACBDDB, S2 = ACDBACADD.
    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    /// Table II: S1 = ABCABCA, S2 = AABBCCC.
    fn simple_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCABCA", "AABBCCC"])
    }

    fn pattern(db: &SequenceDatabase, s: &str) -> Pattern {
        Pattern::new(db.pattern_from_str(s).unwrap())
    }

    #[test]
    fn table_iv_instance_growth_from_a_to_acb() {
        // Reproduces Table IV column by column.
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let sc = prepared.support_computer();
        let a = db.catalog().id("A").unwrap();
        let c = db.catalog().id("C").unwrap();
        let b = db.catalog().id("B").unwrap();

        let i_a = sc.initial_support_set(a);
        assert_eq!(i_a.support(), 5, "sup(A) = 5");
        assert_eq!(
            i_a.instances(),
            &[
                Instance::new(0, 1, 1),
                Instance::new(0, 4, 4),
                Instance::new(1, 1, 1),
                Instance::new(1, 5, 5),
                Instance::new(1, 7, 7),
            ]
        );

        let i_ac = sc.instance_growth(&i_a, c);
        assert_eq!(i_ac.support(), 4, "sup(AC) = 4");
        assert_eq!(
            i_ac.instances(),
            &[
                Instance::new(0, 1, 3),
                Instance::new(0, 4, 5),
                Instance::new(1, 1, 2),
                Instance::new(1, 5, 6),
            ]
        );

        let i_acb = sc.instance_growth(&i_ac, b);
        assert_eq!(i_acb.support(), 3, "sup(ACB) = 3");
        assert_eq!(
            i_acb.instances(),
            &[
                Instance::new(0, 1, 6),
                Instance::new(0, 4, 9),
                Instance::new(1, 1, 4),
            ]
        );
    }

    #[test]
    fn example_3_1_step_3_prime_aca() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let sc = prepared.support_computer();
        let aca = pattern(&db, "ACA");
        assert_eq!(sc.support(&aca), 3);
        let landmarks = sc.support_landmarks(&aca);
        assert_eq!(
            landmarks,
            vec![
                Landmark::new(0, vec![1, 3, 4]),
                Landmark::new(1, vec![1, 2, 5]),
                Landmark::new(1, vec![5, 6, 7]),
            ]
        );
    }

    #[test]
    fn example_2_2_supports_on_the_simple_database() {
        // sup(AB) = 4 and sup(ABA) = 2 in Table II's database.
        let db = simple_example();
        let prepared = PreparedDb::new(&db);
        let sc = prepared.support_computer();
        assert_eq!(sc.support(&pattern(&db, "AB")), 4);
        assert_eq!(sc.support(&pattern(&db, "ABA")), 2);
        // Example 2.3: sup(ABC) = 4 as well (AB is therefore not closed).
        assert_eq!(sc.support(&pattern(&db, "ABC")), 4);
    }

    #[test]
    fn example_1_1_motivating_supports() {
        let db = SequenceDatabase::from_str_rows(&["AABCDABB", "ABCD"]);
        let prepared = PreparedDb::new(&db);
        let sc = prepared.support_computer();
        assert_eq!(sc.support(&pattern(&db, "AB")), 4);
        assert_eq!(sc.support(&pattern(&db, "CD")), 2);
    }

    #[test]
    fn example_3_5_ab_and_acb_have_equal_support() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let sc = prepared.support_computer();
        assert_eq!(sc.support(&pattern(&db, "AB")), 3);
        assert_eq!(sc.support(&pattern(&db, "ACB")), 3);
        assert_eq!(sc.support(&pattern(&db, "ABD")), 3);
        // The leftmost support set of AB quoted in Example 3.5.
        let ab_landmarks = sc.support_landmarks(&pattern(&db, "AB"));
        assert_eq!(
            ab_landmarks,
            vec![
                Landmark::new(0, vec![1, 2]),
                Landmark::new(0, vec![4, 6]),
                Landmark::new(1, vec![1, 4]),
            ]
        );
    }

    #[test]
    fn example_3_6_aa_aca_and_aad() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let sc = prepared.support_computer();
        assert_eq!(sc.support(&pattern(&db, "AA")), 3);
        assert_eq!(sc.support(&pattern(&db, "ACA")), 3);
        assert_eq!(sc.support(&pattern(&db, "AAD")), 3);
        assert_eq!(sc.support(&pattern(&db, "ACAD")), 3);
        let aa_landmarks = sc.support_landmarks(&pattern(&db, "AA"));
        assert_eq!(
            aa_landmarks,
            vec![
                Landmark::new(0, vec![1, 4]),
                Landmark::new(1, vec![1, 5]),
                Landmark::new(1, vec![5, 7]),
            ]
        );
        let aad_landmarks = sc.support_landmarks(&pattern(&db, "AAD"));
        assert_eq!(
            aad_landmarks,
            vec![
                Landmark::new(0, vec![1, 4, 7]),
                Landmark::new(1, vec![1, 5, 8]),
                Landmark::new(1, vec![5, 7, 9]),
            ]
        );
    }

    #[test]
    fn long_pattern_over_counting_is_avoided() {
        // The paper motivates non-overlap with SeqDB = {AABBCC...ZZ}:
        // with repetitive support, sup(AB) = 2 (not 4) and sup(ABC) = 2.
        let alphabet: String = ('A'..='Z').flat_map(|c| [c, c]).collect();
        let db = SequenceDatabase::from_str_rows(&[alphabet.as_str()]);
        let prepared = PreparedDb::new(&db);
        let sc = prepared.support_computer();
        assert_eq!(sc.support(&pattern(&db, "AB")), 2);
        assert_eq!(sc.support(&pattern(&db, "ABC")), 2);
        let abcz: String = ('A'..='Z').collect();
        let full = Pattern::new(db.pattern_from_str(&abcz).unwrap());
        assert_eq!(sc.support(&full), 2);
    }

    #[test]
    fn unknown_or_empty_patterns_have_zero_support() {
        let db = simple_example();
        let prepared = PreparedDb::new(&db);
        let sc = prepared.support_computer();
        assert_eq!(sc.support(&Pattern::empty()), 0);
        // An event id that never occurs.
        let ghost = Pattern::single(EventId(77));
        assert_eq!(sc.support(&ghost), 0);
        // A pattern that starts fine but cannot be completed.
        let impossible = Pattern::new(vec![
            db.catalog().id("C").unwrap(),
            db.catalog().id("C").unwrap(),
            db.catalog().id("C").unwrap(),
            db.catalog().id("C").unwrap(),
        ]);
        assert_eq!(sc.support(&impossible), 0);
    }

    #[test]
    fn convenience_wrappers_agree_with_support_computer() {
        let db = running_example();
        let acb = db.pattern_from_str("ACB").unwrap();
        assert_eq!(repetitive_support(&db, &acb), 3);
        let prepared = PreparedDb::new(&db);
        let sc = prepared.support_computer();
        assert_eq!(sc.support_set(&Pattern::new(acb)).support(), 3);
        let i_ac = sc.support_set(&pattern(&db, "AC"));
        let grown = sc.instance_growth(&i_ac, db.catalog().id("B").unwrap());
        assert_eq!(grown.support(), 3);
    }

    #[test]
    fn bounded_growth_never_underreports_when_target_is_reachable() {
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let sc = prepared.support_computer();
        let i_ac = sc.support_set(&pattern(&db, "AC"));
        let b = db.catalog().id("B").unwrap();
        let unbounded = sc.instance_growth(&i_ac, b);
        let mut bounded = SupportSet::new();
        sc.instance_growth_into(&i_ac, b, unbounded.instances().len(), &mut bounded);
        assert_eq!(bounded.support(), unbounded.support());
    }

    #[test]
    fn apriori_monotonicity_on_the_running_example() {
        // Every prefix has support >= the full pattern (Lemma 1 restricted
        // to prefixes, which is what the DFS relies on).
        let db = running_example();
        let prepared = PreparedDb::new(&db);
        let sc = prepared.support_computer();
        for s in ["A", "AC", "ACB", "ACBD", "AAD", "ACAD", "ABDD"] {
            let pat = pattern(&db, s);
            let mut prev = u64::MAX;
            for len in 1..=pat.len() {
                let sup = sc.support(&pat.prefix(len));
                assert!(sup <= prev, "support must not increase along prefixes");
                prev = sup;
            }
        }
    }
}
