//! Gazelle-like clickstream generator.
//!
//! The Gazelle dataset (KDD Cup 2000) used in Figure 3 of the paper is a
//! web clickstream benchmark: 29 369 sequences over 1 423 distinct events
//! with an *average* length of only 3, but a heavy tail of long sessions
//! (maximum length 651) in which patterns repeat many times. The original
//! data is not redistributable; this generator reproduces those summary
//! statistics and the structural property that matters for the evaluation —
//! a few very long, loop-heavy sessions dominate the repetition counts while
//! most sessions are trivially short.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use seqdb::{DatabaseBuilder, SequenceDatabase};

use crate::util::{sample_heavy_tail_length, ZipfSampler};

/// Configuration of the Gazelle-like clickstream generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GazelleConfig {
    /// Number of sessions (sequences). The real dataset has 29 369.
    pub num_sequences: usize,
    /// Number of distinct page events. The real dataset has 1 423.
    pub num_events: usize,
    /// Maximum session length. The real dataset's maximum is 651.
    pub max_length: usize,
    /// Typical (short) session length bound; most sessions fall in
    /// `1..=short_max`, giving an average close to the real dataset's 3.
    pub short_max: usize,
    /// Probability of a session being a long, loop-heavy tail session.
    pub tail_probability: f64,
    /// Zipf exponent of page popularity.
    pub event_skew: f64,
    /// Length of the navigation loop repeated inside tail sessions.
    pub loop_length: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GazelleConfig {
    fn default() -> Self {
        Self {
            num_sequences: 29_369,
            num_events: 1_423,
            max_length: 651,
            short_max: 4,
            tail_probability: 0.02,
            event_skew: 1.1,
            loop_length: 6,
            seed: 2000,
        }
    }
}

impl GazelleConfig {
    /// A proportionally scaled-down preset (sequence and event counts
    /// divided by `factor`, maximum length divided by `sqrt(factor)` so the
    /// tail remains much longer than the average).
    pub fn scaled_down(mut self, factor: usize) -> Self {
        let factor = factor.max(1);
        self.num_sequences = (self.num_sequences / factor).max(50);
        self.num_events = (self.num_events / factor).max(30);
        let shrink = (factor as f64).sqrt().max(1.0);
        #[allow(
            clippy::cast_sign_loss,
            reason = "a positive length divided by sqrt(factor)"
        )]
        let shrunk = (self.max_length as f64 / shrink) as usize;
        self.max_length = shrunk.max(self.short_max * 8);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the clickstream database.
    pub fn generate(&self) -> SequenceDatabase {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let num_events = self.num_events.max(2);
        let page_sampler = ZipfSampler::new(num_events, self.event_skew);
        let mut builder = DatabaseBuilder::new();
        for e in 0..num_events {
            builder.intern(&format!("page{e}"));
        }
        for _ in 0..self.num_sequences {
            let length = sample_heavy_tail_length(
                &mut rng,
                1,
                self.short_max,
                self.max_length,
                self.tail_probability,
            );
            let mut events: Vec<usize> = Vec::with_capacity(length);
            if length > self.short_max * 4 {
                // Tail session: a small navigation loop visited over and
                // over with occasional detours — the source of repetition.
                let loop_len = self.loop_length.clamp(2, 12);
                let nav_loop: Vec<usize> = (0..loop_len)
                    .map(|_| page_sampler.sample(&mut rng))
                    .collect();
                while events.len() < length {
                    for &page in &nav_loop {
                        events.push(page);
                        if rng.gen_bool(0.15) {
                            events.push(page_sampler.sample(&mut rng));
                        }
                        if events.len() >= length {
                            break;
                        }
                    }
                }
            } else {
                for _ in 0..length {
                    events.push(page_sampler.sample(&mut rng));
                }
            }
            events.truncate(length);
            let labels: Vec<String> = events.iter().map(|e| format!("page{e}")).collect();
            builder.push_tokens(labels.iter().map(String::as_str));
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> GazelleConfig {
        GazelleConfig::default().scaled_down(40)
    }

    #[test]
    fn default_matches_published_summary_statistics() {
        let config = GazelleConfig::default();
        assert_eq!(config.num_sequences, 29_369);
        assert_eq!(config.num_events, 1_423);
        assert_eq!(config.max_length, 651);
    }

    #[test]
    fn generated_data_is_heavy_tailed_with_small_average() {
        let db = small_config().generate();
        let stats = db.stats();
        assert_eq!(stats.num_sequences, small_config().num_sequences);
        assert!(
            stats.avg_length < 10.0,
            "average length should stay small, got {}",
            stats.avg_length
        );
        assert!(
            stats.max_length > 30,
            "a long tail session should exist, got max {}",
            stats.max_length
        );
    }

    #[test]
    fn tail_sessions_contain_repetition() {
        let db = small_config().with_seed(5).generate();
        let longest = db
            .sequences()
            .max_by_key(|s| s.len())
            .expect("non-empty database");
        let mut counts = std::collections::HashMap::new();
        for e in longest.iter_events() {
            *counts.entry(e).or_insert(0usize) += 1;
        }
        let max_repeat = counts.values().copied().max().unwrap_or(0);
        assert!(
            max_repeat >= 5,
            "the longest session should repeat some page many times, got {max_repeat}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_config().generate();
        let b = small_config().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn scaling_preserves_the_shape() {
        let scaled = GazelleConfig::default().scaled_down(100);
        assert!(scaled.num_sequences >= 50);
        assert!(scaled.num_events >= 30);
        assert!(scaled.max_length >= scaled.short_max * 8);
    }
}
