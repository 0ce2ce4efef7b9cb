//! Result types shared by the miners.

use std::cmp::Ordering;
use std::time::Duration;

use seqdb::EventCatalog;

use crate::pattern::Pattern;
use crate::support::SupportSet;

/// A single mined pattern together with its repetitive support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinedPattern {
    /// The pattern.
    pub pattern: Pattern,
    /// Its repetitive support `sup(P)`.
    pub support: u64,
    /// The leftmost support set (compressed instances), when the run was
    /// configured with `keep_support_sets`.
    pub support_set: Option<SupportSet>,
}

impl MinedPattern {
    /// Creates a mined pattern without a stored support set.
    pub fn new(pattern: Pattern, support: u64) -> Self {
        Self {
            pattern,
            support,
            support_set: None,
        }
    }

    /// Renders the pattern and support as `PATTERN (sup=K)` using `catalog`.
    pub fn render(&self, catalog: &EventCatalog) -> String {
        format!("{} (sup={})", self.pattern.render(catalog), self.support)
    }
}

/// Counters describing the work performed by a mining run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MiningStats {
    /// Number of pattern nodes visited in the DFS (frequent prefixes).
    pub visited: u64,
    /// Number of instance-growth (`INSgrow`) invocations.
    pub instance_growths: u64,
    /// Number of patterns ruled out by closure checking (CloGSgrow only).
    pub non_closed_filtered: u64,
    /// Number of subtrees pruned by landmark border checking (CloGSgrow
    /// only).
    pub landmark_border_prunes: u64,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_seconds: f64,
}

impl MiningStats {
    /// Records the elapsed wall-clock time.
    pub fn set_elapsed(&mut self, elapsed: Duration) {
        self.elapsed_seconds = elapsed.as_secs_f64();
    }

    /// Accumulates another run's work counters into this one (elapsed time
    /// is excluded: wall-clock time is the enclosing run's responsibility).
    /// Used to combine per-seed statistics, sequentially or across parallel
    /// workers.
    pub fn merge(&mut self, other: &MiningStats) {
        self.visited += other.visited;
        self.instance_growths += other.instance_growths;
        self.non_closed_filtered += other.non_closed_filtered;
        self.landmark_border_prunes += other.landmark_border_prunes;
    }
}

/// The outcome of a mining run: the patterns found plus run statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MiningOutcome {
    /// The mined patterns, in DFS emission order.
    pub patterns: Vec<MinedPattern>,
    /// Run statistics.
    pub stats: MiningStats,
    /// `true` when the run stopped early because `max_patterns` was reached.
    pub truncated: bool,
}

impl MiningOutcome {
    /// Number of mined patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Returns `true` when no pattern was mined.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Looks up the support of a specific pattern in the result, if present.
    pub fn support_of(&self, pattern: &Pattern) -> Option<u64> {
        self.patterns
            .iter()
            .find(|mp| &mp.pattern == pattern)
            .map(|mp| mp.support)
    }

    /// Returns `true` if the result contains `pattern`.
    pub fn contains(&self, pattern: &Pattern) -> bool {
        self.support_of(pattern).is_some()
    }

    /// The length of the longest mined pattern (0 when empty).
    pub fn max_pattern_length(&self) -> usize {
        self.patterns
            .iter()
            .map(|mp| mp.pattern.len())
            .max()
            .unwrap_or(0)
    }

    /// Sorts the patterns by descending support, then by descending length,
    /// then lexicographically — a stable, human-friendly report order.
    pub fn sort_for_report(&mut self) {
        sort_patterns_for_report(&mut self.patterns);
    }
}

/// The canonical report order shared by every surface (materialized
/// outcomes, ranked/top-k results, CLI output): descending support, then
/// descending length, then lexicographic on the pattern events. There is
/// exactly one definition so the orders cannot drift apart.
pub fn sort_patterns_for_report(patterns: &mut [MinedPattern]) {
    patterns.sort_by(report_order);
}

/// The comparator behind [`sort_patterns_for_report`]: `Less` means `a`
/// ranks before `b`.
pub(crate) fn report_order(a: &MinedPattern, b: &MinedPattern) -> Ordering {
    b.support
        .cmp(&a.support)
        .then_with(|| b.pattern.len().cmp(&a.pattern.len()))
        .then_with(|| a.pattern.cmp(&b.pattern))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdb::EventId;

    fn pattern(ids: &[u32]) -> Pattern {
        Pattern::new(ids.iter().map(|&i| EventId(i)).collect())
    }

    #[test]
    fn support_lookup_and_contains() {
        let outcome = MiningOutcome {
            patterns: vec![
                MinedPattern::new(pattern(&[0, 1]), 4),
                MinedPattern::new(pattern(&[2, 3]), 2),
            ],
            ..Default::default()
        };
        assert_eq!(outcome.len(), 2);
        assert_eq!(outcome.support_of(&pattern(&[0, 1])), Some(4));
        assert_eq!(outcome.support_of(&pattern(&[9])), None);
        assert!(outcome.contains(&pattern(&[2, 3])));
        assert_eq!(outcome.max_pattern_length(), 2);
    }

    #[test]
    fn sort_for_report_orders_by_support_then_length() {
        let mut outcome = MiningOutcome {
            patterns: vec![
                MinedPattern::new(pattern(&[1]), 2),
                MinedPattern::new(pattern(&[0, 1, 2]), 5),
                MinedPattern::new(pattern(&[0, 1]), 5),
            ],
            ..Default::default()
        };
        outcome.sort_for_report();
        assert_eq!(outcome.patterns[0].pattern, pattern(&[0, 1, 2]));
        assert_eq!(outcome.patterns[1].pattern, pattern(&[0, 1]));
        assert_eq!(outcome.patterns[2].pattern, pattern(&[1]));
    }

    #[test]
    fn render_uses_catalog_labels() {
        let catalog = EventCatalog::from_labels(["A", "B"]);
        let mp = MinedPattern::new(pattern(&[0, 1]), 4);
        assert_eq!(mp.render(&catalog), "AB (sup=4)");
    }

    #[test]
    fn stats_record_elapsed_time() {
        let mut stats = MiningStats::default();
        stats.set_elapsed(Duration::from_millis(1500));
        assert!((stats.elapsed_seconds - 1.5).abs() < 1e-9);
    }
}
