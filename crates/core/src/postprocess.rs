//! Post-processing of mined pattern sets, following the case study of
//! §IV-B.
//!
//! The raw closed-pattern set can still be large (6 070 patterns in the
//! JBoss case study). The paper applies three steps adapted from the
//! iterative-pattern study it compares against:
//!
//! 1. **Density** — keep only patterns whose number of *unique* events is
//!    more than a fraction (40 % in the paper) of the pattern length,
//! 2. **Maximality** — keep only patterns that are not sub-patterns of
//!    another reported pattern,
//! 3. **Ranking** — order the survivors by length (longest first).

use crate::maximal::maximal_subset;
use crate::result::MinedPattern;

/// Configuration of the post-processing pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PostProcessConfig {
    /// Minimum ratio of unique events to pattern length (exclusive bound, as
    /// in the paper: "the number of unique events is > 40 % of its length").
    pub min_density: f64,
    /// Whether to keep only maximal patterns.
    pub maximal_only: bool,
    /// Whether to sort the survivors by descending length (then descending
    /// support, then lexicographically).
    pub rank_by_length: bool,
}

impl Default for PostProcessConfig {
    fn default() -> Self {
        // The case-study settings of §IV-B.
        Self {
            min_density: 0.4,
            maximal_only: true,
            rank_by_length: true,
        }
    }
}

/// The density of a pattern: unique events divided by length. Empty patterns
/// have density 0.
pub fn density(pattern: &MinedPattern) -> f64 {
    if pattern.pattern.is_empty() {
        return 0.0;
    }
    pattern.pattern.distinct_events() as f64 / pattern.pattern.len() as f64
}

/// Applies the post-processing pipeline to `patterns` and returns the
/// surviving patterns (cloned, in ranked order when requested).
pub fn postprocess(patterns: &[MinedPattern], config: &PostProcessConfig) -> Vec<MinedPattern> {
    // 1. Density filter.
    let mut survivors: Vec<MinedPattern> = patterns
        .iter()
        .filter(|mp| density(mp) > config.min_density)
        .cloned()
        .collect();

    // 2. Maximality filter: drop any pattern that is a proper sub-pattern of
    //    another survivor.
    if config.maximal_only {
        survivors = maximal_subset(&survivors);
    }

    // 3. Ranking by length.
    if config.rank_by_length {
        survivors.sort_by(|a, b| {
            b.pattern
                .len()
                .cmp(&a.pattern.len())
                .then_with(|| b.support.cmp(&a.support))
                .then_with(|| a.pattern.cmp(&b.pattern))
        });
    }
    survivors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use seqdb::EventId;

    fn mp(ids: &[u32], support: u64) -> MinedPattern {
        MinedPattern::new(
            Pattern::new(ids.iter().map(|&i| EventId(i)).collect()),
            support,
        )
    }

    #[test]
    fn density_is_unique_over_length() {
        assert!((density(&mp(&[0, 1, 0, 2], 1)) - 0.75).abs() < 1e-9);
        assert!((density(&mp(&[0, 0, 0], 1)) - (1.0 / 3.0)).abs() < 1e-9);
        assert_eq!(density(&MinedPattern::new(Pattern::empty(), 0)), 0.0);
    }

    #[test]
    fn density_filter_drops_repetitive_low_diversity_patterns() {
        let patterns = vec![mp(&[0, 0, 0, 0, 0], 9), mp(&[0, 1, 2], 5)];
        let config = PostProcessConfig {
            min_density: 0.4,
            maximal_only: false,
            rank_by_length: false,
        };
        let out = postprocess(&patterns, &config);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].pattern, mp(&[0, 1, 2], 5).pattern);
    }

    #[test]
    fn maximality_filter_keeps_only_maximal_patterns() {
        let patterns = vec![mp(&[0, 1], 4), mp(&[0, 1, 2], 4), mp(&[3], 9)];
        let config = PostProcessConfig {
            min_density: 0.0,
            maximal_only: true,
            rank_by_length: false,
        };
        let out = postprocess(&patterns, &config);
        let kept: Vec<_> = out.iter().map(|p| p.pattern.clone()).collect();
        assert!(kept.contains(&mp(&[0, 1, 2], 4).pattern));
        assert!(kept.contains(&mp(&[3], 9).pattern));
        assert!(!kept.contains(&mp(&[0, 1], 4).pattern));
    }

    #[test]
    fn ranking_orders_by_length_then_support() {
        let patterns = vec![mp(&[0], 10), mp(&[1, 2], 3), mp(&[3, 4], 7)];
        let config = PostProcessConfig {
            min_density: 0.0,
            maximal_only: false,
            rank_by_length: true,
        };
        let out = postprocess(&patterns, &config);
        assert_eq!(out[0].pattern, mp(&[3, 4], 7).pattern);
        assert_eq!(out[1].pattern, mp(&[1, 2], 3).pattern);
        assert_eq!(out[2].pattern, mp(&[0], 10).pattern);
    }

    #[test]
    fn default_config_matches_case_study_settings() {
        let config = PostProcessConfig::default();
        assert!((config.min_density - 0.4).abs() < 1e-9);
        assert!(config.maximal_only);
        assert!(config.rank_by_length);
    }

    #[test]
    fn duplicate_patterns_survive_maximality_against_themselves() {
        // A pattern equal to another is not a *proper* sub-pattern, so exact
        // duplicates are kept (the miners never emit duplicates anyway).
        let patterns = vec![mp(&[0, 1], 4), mp(&[0, 1], 4)];
        let out = postprocess(&patterns, &PostProcessConfig::default());
        assert_eq!(out.len(), 2);
    }
}
