//! Gap-constrained repetitive mining (the paper's future-work direction).
//!
//! This module extends instance growth (Algorithm 2) and `supComp`
//! (Algorithm 1) to honour [`GapConstraints`]: bounds on
//! the gap between successive pattern events and on the total window an
//! instance may span. The concluding section of the paper names this
//! extension explicitly ("mining approximate repetitive patterns with gap
//! constraints, which is useful for mining subsequences from long sequences
//! of DNA, protein, and text data").
//!
//! # Semantics
//!
//! The *constrained repetitive support* `sup_C(P)` computed here is the size
//! of the instance set produced by constrained leftmost instance growth:
//! instances are extended greedily in right-shift order, and an extension is
//! admissible only if the new landmark position respects the `min_gap`,
//! `max_gap`, and `max_window` bounds relative to the instance being grown.
//!
//! Key properties (all exercised by the tests below):
//!
//! * With [`GapConstraints::unbounded`] every function of this module agrees
//!   exactly with the unconstrained algorithms (`sup_C = sup`).
//! * `sup_C` is **prefix anti-monotone**: dropping trailing events of a
//!   pattern never decreases the value, because every grown instance of
//!   `P ◦ e` extends an instance of `P`. This is what the depth-first search
//!   needs for completeness, so constrained `All` mining enumerates *every*
//!   pattern whose constrained support reaches `min_sup`.
//! * `sup_C` is **not** anti-monotone under arbitrary super-patterns: with a
//!   `max_gap`, inserting an event can *increase* the support (the classic
//!   example is contiguous matching, `max_gap = 0`, where `ABC` may occur
//!   often while `AC` never occurs contiguously). Consequently the landmark
//!   border pruning of Theorem 5 is not sound under constraints and
//!   constrained `Closed` mining instead filters the complete frequent set —
//!   a pattern is reported iff no frequent super-pattern has the same
//!   constrained support.
//! * `sup_C(P) ≤ sup(P)`: constraining can only remove admissible instances.
//!
//! The greedy value is exactly the paper's maximum-non-overlapping count in
//! the unconstrained case (Lemma 4); under constraints it is the natural
//! operational extension of the same greedy and a lower bound on the true
//! maximum. [`crate::reference::max_non_overlapping_constrained`] provides a
//! brute-force exact maximum for small inputs, used by the property tests.
//!
//! Constrained growth runs the kernel's serial probe loop
//! (`kernel::grow_constrained`): each probe's lower bound folds the
//! per-instance `min_gap`/`max_window` bound with the leftmost-growth
//! watermark, and the `max_gap` upper-bound check follows the probe. A
//! rejected position is not consumed: it may satisfy the next instance's
//! window.

use seqdb::{EventId, RunSet, SequenceDatabase};

use crate::constraints::GapConstraints;
use crate::growth::SupportComputer;
use crate::instance::Landmark;
use crate::instbuf::InstanceBuffer;
use crate::kernel;
use crate::pattern::Pattern;
use crate::support::SupportSet;

/// A [`SupportComputer`] paired with gap/window constraints.
///
/// All queries on this type interpret supports as *constrained* repetitive
/// supports (`sup_C`, see the module documentation).
#[derive(Debug)]
pub struct ConstrainedSupportComputer<'a> {
    sc: SupportComputer<'a>,
    constraints: GapConstraints,
}

impl<'a> ConstrainedSupportComputer<'a> {
    /// Builds the inverted index for `db` and attaches `constraints`.
    pub fn new(db: &'a SequenceDatabase, constraints: GapConstraints) -> Self {
        Self {
            sc: SupportComputer::new(db),
            constraints,
        }
    }

    /// Attaches `constraints` to an existing support computer (no index is
    /// built — used to share a [`crate::PreparedDb`]'s index).
    pub fn with_support_computer(sc: SupportComputer<'a>, constraints: GapConstraints) -> Self {
        Self { sc, constraints }
    }

    /// The constraints this computer applies.
    pub fn constraints(&self) -> &GapConstraints {
        &self.constraints
    }

    /// The underlying unconstrained support computer.
    pub fn inner(&self) -> &SupportComputer<'a> {
        &self.sc
    }

    /// The constrained leftmost support set of the single-event pattern
    /// `event` (constraints never restrict single events).
    pub fn initial_support_set(&self, event: EventId) -> SupportSet {
        self.sc.initial_support_set(event)
    }

    /// Constrained instance growth: extends `support` (a constrained
    /// leftmost support set of some pattern `P`) into one of `P ◦ event`,
    /// admitting only extensions that satisfy the gap and window bounds.
    pub fn instance_growth(&self, support: &SupportSet, event: EventId) -> SupportSet {
        let mut grown = SupportSet::new();
        self.instance_growth_into(support, event, &mut grown);
        grown
    }

    /// [`Self::instance_growth`] writing into a caller-provided set whose
    /// allocation is reused (cleared first) — the hot-loop form, recycled
    /// through the miners' set pools.
    pub fn instance_growth_into(&self, support: &SupportSet, event: EventId, out: &mut SupportSet) {
        self.instance_growth_within(support, None, event, out);
    }

    /// [`Self::instance_growth_into`] with the [`RunSet`] of `support`
    /// supplied by a caller that grows the same set by many events.
    pub(crate) fn instance_growth_within(
        &self,
        support: &SupportSet,
        runs: Option<&RunSet>,
        event: EventId,
        out: &mut SupportSet,
    ) {
        out.clear();
        // One fused constrained pass: each posting row is resolved once and
        // swept across the sequence's whole run — a window miss rejects
        // only the current instance (the cursor keeps the position for the
        // next one); row exhaustion ends the run.
        kernel::grow_constrained(
            self.sc.index(),
            event,
            &self.constraints,
            support.instances(),
            runs,
            out,
        );
    }

    /// Constrained `supComp`: the constrained leftmost support set of an
    /// arbitrary pattern (double-buffered growth chain: two sets total,
    /// regardless of the pattern length).
    pub fn support_set(&self, pattern: &Pattern) -> SupportSet {
        let events = pattern.events();
        let Some((&first, rest)) = events.split_first() else {
            return SupportSet::new();
        };
        let mut support = self.initial_support_set(first);
        let mut spare = SupportSet::new();
        for &event in rest {
            if support.is_empty() {
                return support;
            }
            self.instance_growth_into(&support, event, &mut spare);
            std::mem::swap(&mut support, &mut spare);
        }
        support
    }

    /// The constrained repetitive support `sup_C(P)`.
    pub fn support(&self, pattern: &Pattern) -> u64 {
        self.support_set(pattern).support()
    }

    /// The full landmarks of the constrained leftmost support set, obtained
    /// by replaying the constrained greedy with complete position lists
    /// through the shared SoA [`InstanceBuffer`] — the same loop the
    /// unconstrained
    /// [`reconstruct_landmarks`](crate::SupportSet::reconstruct_landmarks)
    /// uses (unbounded constraints degenerate to Algorithm 2 exactly).
    pub fn support_landmarks(&self, pattern: &Pattern) -> Vec<Landmark> {
        let mut buffer = InstanceBuffer::new();
        buffer.reconstruct(self.sc.index(), pattern, &self.constraints);
        buffer.to_landmarks()
    }
}

/// Convenience wrapper: the constrained repetitive support of a pattern
/// given as raw event ids, building a temporary index.
pub fn constrained_support(
    db: &SequenceDatabase,
    pattern: &[EventId],
    constraints: GapConstraints,
) -> u64 {
    ConstrainedSupportComputer::new(db, constraints).support(&Pattern::new(pattern.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MiningConfig;
    use crate::engine::{Miner, Mode};
    use crate::reference::pattern_set;
    use crate::result::MiningOutcome;
    use crate::support::{are_valid_instances, is_non_redundant};

    /// Table III: S1 = ABCACBDDB, S2 = ACDBACADD.
    fn running_example() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    fn all_patterns(db: &SequenceDatabase, config: &MiningConfig) -> MiningOutcome {
        Miner::new(db).from_config(config).mode(Mode::All).run()
    }

    fn constrained_all(
        db: &SequenceDatabase,
        config: &MiningConfig,
        constraints: GapConstraints,
    ) -> MiningOutcome {
        Miner::new(db)
            .from_config(config)
            .mode(Mode::All)
            .constraints(constraints)
            .run()
    }

    fn constrained_closed(
        db: &SequenceDatabase,
        config: &MiningConfig,
        constraints: GapConstraints,
    ) -> MiningOutcome {
        Miner::new(db)
            .from_config(config)
            .mode(Mode::Closed)
            .constraints(constraints)
            .run()
    }

    fn pattern(db: &SequenceDatabase, s: &str) -> Pattern {
        Pattern::new(db.pattern_from_str(s).unwrap())
    }

    #[test]
    fn unbounded_constraints_reproduce_the_unconstrained_supports() {
        let db = running_example();
        let csc = ConstrainedSupportComputer::new(&db, GapConstraints::unbounded());
        let sc = SupportComputer::new(&db);
        for s in ["A", "AB", "AC", "ACB", "ACA", "AAD", "ACAD", "DD", "BD"] {
            let p = pattern(&db, s);
            assert_eq!(csc.support(&p), sc.support(&p), "pattern {s}");
            assert_eq!(csc.support_set(&p), sc.support_set(&p), "pattern {s}");
        }
    }

    #[test]
    fn max_gap_zero_requires_contiguous_instances() {
        // S1 = ABCACBDDB: contiguous AB occurs once (positions 1,2);
        // contiguous AC occurs once (4,5); DD occurs once (7,8).
        let db = running_example();
        let contiguous = GapConstraints::max_gap(0);
        assert_eq!(
            constrained_support(&db, &db.pattern_from_str("AB").unwrap(), contiguous),
            1
        );
        assert_eq!(
            constrained_support(&db, &db.pattern_from_str("DD").unwrap(), contiguous),
            2 // S1: (7,8); S2: (8,9)
        );
    }

    #[test]
    fn contiguous_ac_support_counts_every_adjacent_occurrence() {
        let db = running_example();
        let contiguous = GapConstraints::max_gap(0);
        let csc = ConstrainedSupportComputer::new(&db, contiguous);
        // S1 = ABCACBDDB: "AC" adjacent at positions (4,5) only.
        // S2 = ACDBACADD: "AC" adjacent at (1,2) and (5,6).
        assert_eq!(csc.support(&pattern(&db, "AC")), 3);
        let landmarks = csc.support_landmarks(&pattern(&db, "AC"));
        assert_eq!(
            landmarks,
            vec![
                Landmark::new(0, vec![4, 5]),
                Landmark::new(1, vec![1, 2]),
                Landmark::new(1, vec![5, 6]),
            ]
        );
        assert!(is_non_redundant(&landmarks));
        assert!(are_valid_instances(
            &db,
            &db.pattern_from_str("AC").unwrap(),
            &landmarks
        ));
        for l in &landmarks {
            assert!(contiguous.admits_landmark(&l.positions));
        }
    }

    #[test]
    fn max_window_limits_the_span_of_instances() {
        let db = running_example();
        // Unconstrained sup(ACB) = 3 with spans 6, 6, and 4.
        let acb = db.pattern_from_str("ACB").unwrap();
        assert_eq!(
            constrained_support(&db, &acb, GapConstraints::unbounded()),
            3
        );
        assert_eq!(
            constrained_support(&db, &acb, GapConstraints::max_window(6)),
            3
        );
        // A window of 4 admits only (1,<4,5,6>) in S1 (span 3) and
        // (2,<1,2,4>) in S2 (span 4).
        assert_eq!(
            constrained_support(&db, &acb, GapConstraints::max_window(4)),
            2
        );
        // A window of 2 cannot hold a 3-event pattern at all.
        assert_eq!(
            constrained_support(&db, &acb, GapConstraints::max_window(2)),
            0
        );
    }

    #[test]
    fn min_gap_excludes_adjacent_matches() {
        let db = SequenceDatabase::from_str_rows(&["ABAB"]);
        let ab = db.pattern_from_str("AB").unwrap();
        assert_eq!(
            constrained_support(&db, &ab, GapConstraints::unbounded()),
            2
        );
        // Requiring at least one event between A and B leaves only A@1,B@4.
        let spaced = GapConstraints::unbounded().with_min_gap(1);
        assert_eq!(constrained_support(&db, &ab, spaced), 1);
        // Requiring at least three events between them leaves nothing.
        let wide = GapConstraints::unbounded().with_min_gap(3);
        assert_eq!(constrained_support(&db, &ab, wide), 0);
    }

    #[test]
    fn constrained_support_never_exceeds_the_unconstrained_support() {
        let db = running_example();
        let sc = SupportComputer::new(&db);
        let cases = [
            GapConstraints::max_gap(0),
            GapConstraints::max_gap(1),
            GapConstraints::max_gap(3),
            GapConstraints::max_window(3),
            GapConstraints::max_window(5),
            GapConstraints::gap_range(1, 4),
        ];
        for s in ["AB", "AC", "ACB", "ACA", "AAD", "AD", "CD", "DD"] {
            let p = pattern(&db, s);
            let unconstrained = sc.support(&p);
            for c in cases {
                assert!(
                    constrained_support(&db, p.events(), c) <= unconstrained,
                    "pattern {s} under {}",
                    c.describe()
                );
            }
        }
    }

    #[test]
    fn prefix_anti_monotonicity_holds_under_constraints() {
        let db = running_example();
        let cases = [
            GapConstraints::max_gap(1),
            GapConstraints::max_window(5),
            GapConstraints::gap_range(1, 3),
        ];
        for c in cases {
            let csc = ConstrainedSupportComputer::new(&db, c);
            for s in ["ACB", "ACAD", "ABDD", "AAD"] {
                let p = pattern(&db, s);
                let mut prev = u64::MAX;
                for len in 1..=p.len() {
                    let sup = csc.support(&p.prefix(len));
                    assert!(
                        sup <= prev,
                        "constrained support must not increase along prefixes ({s}, {})",
                        c.describe()
                    );
                    prev = sup;
                }
            }
        }
    }

    #[test]
    fn constrained_miner_with_unbounded_constraints_equals_gsgrow() {
        let db = running_example();
        for min_sup in [2, 3] {
            let config = MiningConfig::new(min_sup);
            let plain = all_patterns(&db, &config);
            let constrained = constrained_all(&db, &config, GapConstraints::unbounded());
            assert_eq!(
                pattern_set(&plain.patterns),
                pattern_set(&constrained.patterns)
            );
        }
    }

    #[test]
    fn constrained_mining_is_complete_for_its_own_support() {
        // Every reported pattern has constrained support >= min_sup, and
        // every pattern found by unconstrained mining whose constrained
        // support reaches the threshold is reported.
        let db = running_example();
        let config = MiningConfig::new(2);
        let constraints = GapConstraints::max_gap(2);
        let mined = constrained_all(&db, &config, constraints);
        for mp in &mined.patterns {
            assert!(mp.support >= 2);
            assert_eq!(
                mp.support,
                constrained_support(&db, mp.pattern.events(), constraints)
            );
        }
        let unconstrained = all_patterns(&db, &MiningConfig::new(1));
        for mp in &unconstrained.patterns {
            let csup = constrained_support(&db, mp.pattern.events(), constraints);
            if csup >= 2 {
                assert!(
                    mined.contains(&mp.pattern),
                    "missing {:?} with constrained support {}",
                    mp.pattern,
                    csup
                );
            }
        }
    }

    #[test]
    fn closed_constrained_patterns_are_a_closed_subset() {
        let db = running_example();
        let config = MiningConfig::new(2);
        let constraints = GapConstraints::max_gap(3);
        let all = constrained_all(&db, &config, constraints);
        let closed = constrained_closed(&db, &config, constraints);
        assert!(!closed.is_empty());
        assert!(closed.len() <= all.len());
        // No closed pattern has a frequent super-pattern of equal support.
        for c in &closed.patterns {
            for other in &all.patterns {
                if other.pattern.is_proper_superpattern_of(&c.pattern) {
                    assert_ne!(
                        other.support, c.support,
                        "{:?} is not closed: {:?} has equal support",
                        c.pattern, other.pattern
                    );
                }
            }
        }
        // Every frequent pattern has a closed super-pattern (or itself) with
        // the same support in the closed result.
        for mp in &all.patterns {
            assert!(
                closed.patterns.iter().any(|c| c.support == mp.support
                    && (c.pattern == mp.pattern
                        || c.pattern.is_proper_superpattern_of(&mp.pattern))),
                "no closed representative for {:?}",
                mp.pattern
            );
        }
    }

    #[test]
    fn max_gap_can_make_a_super_pattern_more_frequent_than_its_sub_pattern() {
        // Documents why Theorem 5 pruning is unsound under constraints:
        // with contiguous matching, ABC occurs while AC does not.
        let db = SequenceDatabase::from_str_rows(&["ABCABC"]);
        let contiguous = GapConstraints::max_gap(0);
        let ac = db.pattern_from_str("AC").unwrap();
        let abc = db.pattern_from_str("ABC").unwrap();
        assert_eq!(constrained_support(&db, &ac, contiguous), 0);
        assert_eq!(constrained_support(&db, &abc, contiguous), 2);
    }

    #[test]
    fn empty_database_and_empty_pattern_edge_cases() {
        let db = SequenceDatabase::new();
        let outcome = constrained_all(&db, &MiningConfig::new(1), GapConstraints::max_gap(1));
        assert!(outcome.is_empty());
        let db2 = running_example();
        let csc = ConstrainedSupportComputer::new(&db2, GapConstraints::max_gap(1));
        assert_eq!(csc.support(&Pattern::empty()), 0);
        assert!(csc.support_landmarks(&Pattern::empty()).is_empty());
    }

    #[test]
    fn truncation_and_length_caps_are_respected() {
        let db = running_example();
        let config = MiningConfig::new(1)
            .with_max_patterns(4)
            .with_support_sets();
        let mined = constrained_all(&db, &config, GapConstraints::max_gap(2));
        assert!(mined.truncated);
        assert_eq!(mined.len(), 4);
        for mp in &mined.patterns {
            assert!(mp.support_set.is_some());
        }
        let capped = MiningConfig::new(1).with_max_pattern_length(2);
        let short = constrained_all(&db, &capped, GapConstraints::max_gap(2));
        assert!(short.max_pattern_length() <= 2);
    }
}
