//! Labeled program-trace generator for the classification experiments.
//!
//! The paper's future-work paragraph proposes using repetitive gapped
//! subsequences as features for classifying sequences, naming
//! "(buggy/un-buggy) program execution traces" as the motivating example.
//! This generator produces exactly that kind of labeled corpus: traces of a
//! small resource-handling program in two behavioural classes that share
//! most of their vocabulary and differ mainly in *how often* certain
//! patterns repeat within a trace — the regime where repetitive support is
//! informative and plain sequence-count support is not.
//!
//! * **normal** traces: repeated `acquire → use → release` cycles with
//!   occasional interleaved logging, every acquisition matched by a release;
//! * **buggy** traces: the same cycles, but the release is skipped with some
//!   probability (a leak) and an `error → retry` pair repeats in bursts.
//!
//! Both classes contain every event at least occasionally, so presence-based
//! features cannot separate them reliably; the per-sequence repetition
//! counts of patterns such as `acquire release` and `error retry` can.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use seqdb::{DatabaseBuilder, SequenceDatabase};

/// Class label of the normal traces.
pub const NORMAL_LABEL: &str = "normal";
/// Class label of the buggy traces.
pub const BUGGY_LABEL: &str = "buggy";

/// Configuration of the labeled trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledTraceConfig {
    /// Number of traces per class.
    pub traces_per_class: usize,
    /// Average number of resource cycles per trace.
    pub avg_cycles: usize,
    /// Probability that a buggy trace skips a `release` (the leak).
    pub leak_probability: f64,
    /// Probability that a buggy cycle is followed by an `error retry` burst.
    pub error_burst_probability: f64,
    /// Probability that a *normal* trace still exhibits one isolated error
    /// (noise that keeps the classes from being trivially separable by
    /// presence).
    pub benign_error_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LabeledTraceConfig {
    fn default() -> Self {
        Self {
            traces_per_class: 60,
            avg_cycles: 8,
            leak_probability: 0.4,
            error_burst_probability: 0.5,
            benign_error_probability: 0.15,
            seed: 2_009,
        }
    }
}

impl LabeledTraceConfig {
    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of traces per class.
    pub fn with_traces_per_class(mut self, n: usize) -> Self {
        self.traces_per_class = n;
        self
    }

    /// Generates the corpus: a sequence database plus one label
    /// ([`NORMAL_LABEL`] or [`BUGGY_LABEL`]) per sequence, index-aligned.
    pub fn generate(&self) -> (SequenceDatabase, Vec<String>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut builder = DatabaseBuilder::new();
        // Fix the catalog order so event ids are stable across runs.
        for label in [
            "start", "acquire", "use", "release", "log", "error", "retry", "flush", "stop",
        ] {
            builder.intern(label);
        }
        let mut labels = Vec::with_capacity(self.traces_per_class * 2);
        for class in [NORMAL_LABEL, BUGGY_LABEL] {
            for _ in 0..self.traces_per_class {
                let trace = self.one_trace(&mut rng, class == BUGGY_LABEL);
                builder.push_tokens(trace.iter().copied());
                labels.push(class.to_string());
            }
        }
        (builder.finish(), labels)
    }

    fn one_trace(&self, rng: &mut StdRng, buggy: bool) -> Vec<&'static str> {
        let mut trace = vec!["start"];
        let cycles = 1 + rng.gen_range(0..=self.avg_cycles * 2);
        for _ in 0..cycles {
            trace.push("acquire");
            let uses = 1 + rng.gen_range(0..3);
            #[allow(
                clippy::same_item_push,
                reason = "each push may be followed by a log entry"
            )]
            for _ in 0..uses {
                trace.push("use");
                if rng.gen_bool(0.3) {
                    trace.push("log");
                }
            }
            if buggy && rng.gen_bool(self.leak_probability) {
                // Leak: the release is skipped.
            } else {
                trace.push("release");
            }
            if buggy && rng.gen_bool(self.error_burst_probability) {
                let burst = 1 + rng.gen_range(0..3);
                for _ in 0..burst {
                    trace.push("error");
                    trace.push("retry");
                }
            } else if !buggy && rng.gen_bool(self.benign_error_probability) {
                trace.push("error");
                trace.push("retry");
            }
        }
        if rng.gen_bool(0.5) {
            trace.push("flush");
        }
        trace.push("stop");
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LabeledTraceConfig {
        LabeledTraceConfig {
            traces_per_class: 25,
            ..LabeledTraceConfig::default()
        }
    }

    #[test]
    fn generates_one_label_per_sequence_with_both_classes() {
        let (db, labels) = small().generate();
        assert_eq!(db.num_sequences(), labels.len());
        assert_eq!(db.num_sequences(), 50);
        assert_eq!(labels.iter().filter(|l| *l == NORMAL_LABEL).count(), 25);
        assert_eq!(labels.iter().filter(|l| *l == BUGGY_LABEL).count(), 25);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = small().generate();
        let b = small().generate();
        assert_eq!(a, b);
        let c = small().with_seed(99).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn every_trace_is_bracketed_by_start_and_stop() {
        let (db, _) = small().generate();
        let start = db.catalog().id("start").unwrap();
        let stop = db.catalog().id("stop").unwrap();
        for seq in db.sequences() {
            assert_eq!(seq.at(1), Some(start));
            assert_eq!(seq.at(seq.len()), Some(stop));
        }
    }

    #[test]
    fn buggy_traces_repeat_error_retry_more_often_than_normal_ones() {
        let (db, labels) = small().generate();
        let error = db.catalog().id("error").unwrap();
        let mean_errors = |class: &str| {
            let (total, count) = db
                .sequences()
                .zip(&labels)
                .filter(|(_, l)| l.as_str() == class)
                .fold((0usize, 0usize), |(t, c), (s, _)| {
                    (t + s.count_event(error), c + 1)
                });
            total as f64 / count as f64
        };
        assert!(
            mean_errors(BUGGY_LABEL) > mean_errors(NORMAL_LABEL) * 2.0,
            "buggy traces should repeat errors far more often ({} vs {})",
            mean_errors(BUGGY_LABEL),
            mean_errors(NORMAL_LABEL)
        );
    }

    #[test]
    fn both_classes_share_the_core_vocabulary() {
        // Presence of acquire/use/release alone must not separate the
        // classes; every trace of either class uses the core events.
        let (db, labels) = small().generate();
        let acquire = db.catalog().id("acquire").unwrap();
        for (seq, label) in db.sequences().zip(&labels) {
            assert!(
                seq.count_event(acquire) >= 1,
                "trace of class {label} lacks the shared vocabulary"
            );
        }
    }

    #[test]
    fn normal_traces_balance_acquire_and_release() {
        let (db, labels) = small().generate();
        let acquire = db.catalog().id("acquire").unwrap();
        let release = db.catalog().id("release").unwrap();
        for (seq, label) in db.sequences().zip(&labels) {
            if label == NORMAL_LABEL {
                assert_eq!(seq.count_event(acquire), seq.count_event(release));
            }
        }
    }
}
