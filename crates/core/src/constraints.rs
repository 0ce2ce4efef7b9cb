//! Gap and window constraints for constrained repetitive mining.
//!
//! The paper's concluding section names "mining approximate repetitive
//! patterns with gap constraints" as future work: in long DNA, protein, or
//! text sequences the interesting repetitions of a pattern are those whose
//! events occur close together, so users want to bound the *gap* between two
//! successive pattern events and/or the total *window* an instance may span.
//!
//! [`GapConstraints`] captures the three standard knobs:
//!
//! * `min_gap` — the minimum number of events that must lie between two
//!   successive pattern events (`0` allows adjacent events, the paper's
//!   unconstrained default),
//! * `max_gap` — the maximum number of events allowed between two successive
//!   pattern events (`None` = unbounded, the paper's default),
//! * `max_window` — the maximum span `l_m - l_1 + 1` of an instance
//!   (`None` = unbounded).
//!
//! A [`SupportComputer`](crate::SupportComputer) carries one set of
//! constraints ([`SupportComputer::with_constraints`](crate::SupportComputer::with_constraints),
//! unbounded by default), and the miners take theirs from the request.
//!
//! # Semantics
//!
//! The *constrained repetitive support* `sup_C(P)` is the size of the
//! instance set produced by constrained leftmost instance growth: instances
//! are extended greedily in right-shift order, and an extension is
//! admissible only if the new landmark position respects the `min_gap`,
//! `max_gap`, and `max_window` bounds relative to the instance being grown.
//! The constraints only narrow the window of each instance's probe
//! `next(S, e, max(last, watermark))` (Algorithm 2): `min_gap` raises its
//! lower bound ([`GapConstraints::lowest_exclusive`]), and `max_gap` and
//! `max_window` cap the accepted position
//! ([`GapConstraints::highest_inclusive`]). A rejected position is not
//! consumed: it may satisfy the next instance's window. The growth kernel
//! (`crate::kernel`) runs this one probe loop for every shape.
//!
//! Key properties (exercised by the tests of [`crate::constrained`]):
//!
//! * With [`GapConstraints::unbounded`] every computation agrees exactly
//!   with the unconstrained algorithms (`sup_C = sup`).
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

/// Gap and window constraints on the instances of a pattern.
///
/// With the default constraints ([`GapConstraints::unbounded`]) every
/// constrained computation coincides exactly with the unconstrained
/// algorithms of the paper; this is asserted by tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapConstraints {
    /// Minimum number of events between two successive pattern events.
    /// `0` (the default) allows adjacent events.
    pub min_gap: u32,
    /// Maximum number of events between two successive pattern events.
    /// `None` (the default) leaves the gap unbounded.
    pub max_gap: Option<u32>,
    /// Maximum number of sequence positions an instance may span
    /// (`last - first + 1`). `None` (the default) leaves the span unbounded.
    pub max_window: Option<u32>,
}

impl GapConstraints {
    /// No constraints at all: the setting of the paper.
    #[inline]
    pub fn unbounded() -> Self {
        Self {
            min_gap: 0,
            max_gap: None,
            max_window: None,
        }
    }

    /// A gap requirement `min_gap <= gap <= max_gap` between successive
    /// pattern events (the form used by Zhang et al.'s periodic patterns,
    /// which the paper's related-work section discusses).
    pub fn gap_range(min_gap: u32, max_gap: u32) -> Self {
        Self {
            min_gap,
            max_gap: Some(max_gap),
            max_window: None,
        }
    }

    /// Only an upper bound on the gap between successive events.
    pub fn max_gap(max_gap: u32) -> Self {
        Self {
            min_gap: 0,
            max_gap: Some(max_gap),
            max_window: None,
        }
    }

    /// Only a bound on the total window an instance may span (the episode
    /// mining style of width-`w` windows).
    pub fn max_window(max_window: u32) -> Self {
        Self {
            min_gap: 0,
            max_gap: None,
            max_window: Some(max_window),
        }
    }

    /// Sets the minimum gap.
    pub fn with_min_gap(mut self, min_gap: u32) -> Self {
        self.min_gap = min_gap;
        self
    }

    /// Sets the maximum gap.
    pub fn with_max_gap(mut self, max_gap: u32) -> Self {
        self.max_gap = Some(max_gap);
        self
    }

    /// Sets the maximum window.
    pub fn with_max_window(mut self, max_window: u32) -> Self {
        self.max_window = Some(max_window);
        self
    }

    /// Returns `true` when no constraint is active, i.e. the configuration
    /// is equivalent to the paper's unconstrained setting.
    #[inline]
    pub fn is_unbounded(&self) -> bool {
        self.min_gap == 0 && self.max_gap.is_none() && self.max_window.is_none()
    }

    /// The lowest admissible position (exclusive lower bound for
    /// `next(S, e, lowest)`) when extending an instance whose current last
    /// landmark position is `last`.
    ///
    /// The next position must be `> last + min_gap` so that at least
    /// `min_gap` events separate the two pattern events.
    #[inline]
    pub fn lowest_exclusive(&self, last: u32) -> u32 {
        last.saturating_add(self.min_gap)
    }

    /// The highest admissible position (inclusive) when extending an
    /// instance with first landmark position `first` and current last
    /// landmark position `last`, or `u32::MAX` when unconstrained.
    #[inline]
    pub fn highest_inclusive(&self, first: u32, last: u32) -> u32 {
        let by_gap = match self.max_gap {
            Some(g) => last.saturating_add(g).saturating_add(1),
            None => u32::MAX,
        };
        let by_window = match self.max_window {
            Some(w) => first.saturating_sub(1).saturating_add(w),
            None => u32::MAX,
        };
        by_gap.min(by_window)
    }

    /// Checks whether a full landmark (strictly increasing positions)
    /// satisfies every constraint. Used by the reference implementation and
    /// by validation tests.
    pub fn admits_landmark(&self, positions: &[u32]) -> bool {
        if positions.is_empty() {
            return true;
        }
        let first = positions[0];
        let last = *positions.last().expect("non-empty");
        if let Some(w) = self.max_window {
            if last - first + 1 > w {
                return false;
            }
        }
        positions.windows(2).all(|w| {
            let gap = w[1] - w[0] - 1;
            gap >= self.min_gap && self.max_gap.is_none_or(|g| gap <= g)
        })
    }

    /// Renders the constraints compactly, e.g. `gap∈[0,4], window≤20`.
    pub fn describe(&self) -> String {
        if self.is_unbounded() {
            return "unconstrained".to_string();
        }
        let mut parts = Vec::new();
        match self.max_gap {
            Some(g) => parts.push(format!("gap∈[{},{}]", self.min_gap, g)),
            None if self.min_gap > 0 => parts.push(format!("gap≥{}", self.min_gap)),
            None => {}
        }
        if let Some(w) = self.max_window {
            parts.push(format!("window≤{w}"));
        }
        parts.join(", ")
    }
}

impl Default for GapConstraints {
    fn default() -> Self {
        Self::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_is_the_default_and_admits_everything() {
        let c = GapConstraints::default();
        assert!(c.is_unbounded());
        assert_eq!(c.lowest_exclusive(7), 7);
        assert_eq!(c.highest_inclusive(1, 7), u32::MAX);
        assert!(c.admits_landmark(&[1, 100, 10_000]));
        assert_eq!(c.describe(), "unconstrained");
    }

    #[test]
    fn gap_range_bounds_both_sides() {
        // gap in [1, 3]: positions 2 and 4 have gap 1 (ok), 2 and 3 have
        // gap 0 (too small), 2 and 7 have gap 4 (too large).
        let c = GapConstraints::gap_range(1, 3);
        assert!(c.admits_landmark(&[2, 4]));
        assert!(!c.admits_landmark(&[2, 3]));
        assert!(!c.admits_landmark(&[2, 7]));
        assert_eq!(c.lowest_exclusive(2), 3);
        assert_eq!(c.highest_inclusive(2, 2), 6);
        assert_eq!(c.describe(), "gap∈[1,3]");
    }

    #[test]
    fn max_window_bounds_the_span() {
        let c = GapConstraints::max_window(4);
        assert!(c.admits_landmark(&[3, 4, 6])); // span 4
        assert!(!c.admits_landmark(&[3, 4, 7])); // span 5
        assert_eq!(c.highest_inclusive(3, 4), 6);
        assert_eq!(c.describe(), "window≤4");
    }

    #[test]
    fn combined_constraints_take_the_tighter_bound() {
        let c = GapConstraints::gap_range(0, 10).with_max_window(3);
        // From last=2, gap allows up to 13 but window (first=1) allows 3.
        assert_eq!(c.highest_inclusive(1, 2), 3);
        // From last=2 with a wide window the gap bound applies.
        let c2 = GapConstraints::gap_range(0, 1).with_max_window(100);
        assert_eq!(c2.highest_inclusive(1, 2), 4);
        assert_eq!(c.describe(), "gap∈[0,10], window≤3");
    }

    #[test]
    fn min_gap_only_description_and_bounds() {
        let c = GapConstraints::unbounded().with_min_gap(2);
        assert!(!c.is_unbounded());
        assert_eq!(c.describe(), "gap≥2");
        assert_eq!(c.lowest_exclusive(5), 7);
        assert!(c.admits_landmark(&[1, 4]));
        assert!(!c.admits_landmark(&[1, 3]));
    }

    #[test]
    fn saturating_arithmetic_near_the_position_limits() {
        let c = GapConstraints::gap_range(0, u32::MAX).with_max_window(u32::MAX);
        assert_eq!(c.highest_inclusive(u32::MAX - 1, u32::MAX - 1), u32::MAX);
        let d = GapConstraints::unbounded().with_min_gap(u32::MAX);
        assert_eq!(d.lowest_exclusive(u32::MAX), u32::MAX);
    }

    #[test]
    fn empty_and_single_landmarks_are_always_admitted() {
        let c = GapConstraints::gap_range(5, 5).with_max_window(1);
        assert!(c.admits_landmark(&[]));
        assert!(c.admits_landmark(&[42]));
    }

    #[test]
    fn builder_setters_override_presets() {
        let c = GapConstraints::gap_range(1, 4)
            .with_max_window(9)
            .with_min_gap(2)
            .with_max_gap(6);
        assert_eq!(
            c,
            GapConstraints {
                min_gap: 2,
                max_gap: Some(6),
                max_window: Some(9),
            }
        );
        assert_eq!(c.describe(), "gap∈[2,6], window≤9");
    }
}
