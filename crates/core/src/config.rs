//! Mining configuration: the DFS knobs of a run as one value, imported into
//! a request with [`crate::Miner::from_config`].

/// Configuration of a mining run.
///
/// Only `min_sup` is required by the paper; the remaining knobs are
/// practical safety limits (the paper itself manually aborts GSgrow runs
/// that exceed several hours — the "cut-off" points of Figures 2–6) and
/// reporting options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiningConfig {
    /// The support threshold `min_sup`: only patterns with repetitive
    /// support `>= min_sup` are reported.
    pub min_sup: u64,
    /// Optional cap on pattern length. `None` means unbounded (the paper's
    /// setting). Useful to bound exploratory runs on pathological data.
    pub max_pattern_length: Option<usize>,
    /// Optional cap on the number of *emitted* patterns. When the cap is
    /// reached the search stops and the result is marked as truncated. This
    /// reproduces the "GSgrow takes too long / finds too many patterns"
    /// cut-off behaviour of the evaluation without multi-hour runs.
    pub max_patterns: Option<usize>,
    /// When `true`, the leftmost support set (compressed instances) of every
    /// reported pattern is stored in the result.
    pub keep_support_sets: bool,
    /// When `false`, CloGSgrow skips the landmark border pruning of
    /// Theorem 5 and relies on closure checking alone (ablation switch; the
    /// mined pattern set is identical, only the amount of search differs).
    pub use_landmark_pruning: bool,
}

impl MiningConfig {
    /// Creates a configuration with the given support threshold and default
    /// settings for everything else (no limits, no support sets kept).
    pub fn new(min_sup: u64) -> Self {
        Self {
            min_sup,
            max_pattern_length: None,
            max_patterns: None,
            keep_support_sets: false,
            use_landmark_pruning: true,
        }
    }

    /// Sets the maximum pattern length.
    pub fn with_max_pattern_length(mut self, max_len: usize) -> Self {
        self.max_pattern_length = Some(max_len);
        self
    }

    /// Sets the maximum number of emitted patterns.
    pub fn with_max_patterns(mut self, max_patterns: usize) -> Self {
        self.max_patterns = Some(max_patterns);
        self
    }

    /// Requests that support sets be kept on every mined pattern.
    pub fn with_support_sets(mut self) -> Self {
        self.keep_support_sets = true;
        self
    }

    /// Disables the landmark border pruning of Theorem 5 (ablation switch
    /// for CloGSgrow; has no effect on GSgrow).
    pub fn without_landmark_pruning(mut self) -> Self {
        self.use_landmark_pruning = false;
        self
    }

    /// The effective minimum support, never below 1 (a support threshold of
    /// 0 would make the empty-pattern semantics degenerate).
    pub fn effective_min_sup(&self) -> u64 {
        self.min_sup.max(1)
    }

    /// Returns `true` if a pattern of length `len` may still be grown.
    pub fn allows_growth(&self, len: usize) -> bool {
        self.max_pattern_length.is_none_or(|max| len < max)
    }
}

impl Default for MiningConfig {
    fn default() -> Self {
        Self::new(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_setters_compose() {
        let config = MiningConfig::new(5)
            .with_max_pattern_length(10)
            .with_max_patterns(1000)
            .with_support_sets();
        assert_eq!(config.min_sup, 5);
        assert_eq!(config.max_pattern_length, Some(10));
        assert_eq!(config.max_patterns, Some(1000));
        assert!(config.keep_support_sets);
    }

    #[test]
    fn effective_min_sup_is_at_least_one() {
        assert_eq!(MiningConfig::new(0).effective_min_sup(), 1);
        assert_eq!(MiningConfig::new(3).effective_min_sup(), 3);
    }

    #[test]
    fn allows_growth_respects_max_length() {
        let unbounded = MiningConfig::new(1);
        assert!(unbounded.allows_growth(1_000));
        let bounded = MiningConfig::new(1).with_max_pattern_length(3);
        assert!(bounded.allows_growth(2));
        assert!(!bounded.allows_growth(3));
    }

    #[test]
    fn default_threshold_is_two() {
        assert_eq!(MiningConfig::default().min_sup, 2);
    }
}
