//! Uniform miner runner: runs any of the miners under comparison on a
//! database and records runtime and output size.

use std::time::Instant;

use baselines::prefixspan::SequentialConfig;
use rgs_core::{Mode, PreparedDb};
use seqdb::SequenceDatabase;

/// The miners the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinerKind {
    /// GSgrow — all frequent repetitive gapped subsequences (this paper).
    GsGrow,
    /// CloGSgrow — closed frequent repetitive gapped subsequences (this
    /// paper).
    CloGsGrow,
    /// PrefixSpan — all frequent sequential patterns (sequence-count
    /// support).
    PrefixSpan,
    /// BIDE-style closed sequential pattern mining.
    Bide,
    /// CloSpan-lite — closed sequential patterns by post-filtering.
    CloSpanLite,
}

impl MinerKind {
    /// Human-readable label used in reports (matches the figure legends:
    /// "All" and "Closed" for the paper's two miners).
    pub fn label(self) -> &'static str {
        match self {
            MinerKind::GsGrow => "All (GSgrow)",
            MinerKind::CloGsGrow => "Closed (CloGSgrow)",
            MinerKind::PrefixSpan => "PrefixSpan",
            MinerKind::Bide => "BIDE-style",
            MinerKind::CloSpanLite => "CloSpan-lite",
        }
    }
}

/// The record of one miner run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Which miner ran.
    pub miner: MinerKind,
    /// The support threshold used.
    pub min_sup: u64,
    /// Wall-clock runtime in seconds.
    pub runtime_seconds: f64,
    /// Number of patterns reported.
    pub num_patterns: usize,
    /// `true` when the run hit the safety cap on emitted patterns — the
    /// harness's analogue of the paper's "cut-off" points where GSgrow is
    /// stopped after hours.
    pub truncated: bool,
}

/// Safety limits applied to every run so a single experiment cannot take
/// hours (mirrors the paper's manual cut-offs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Cap on the number of emitted patterns.
    pub max_patterns: usize,
    /// Cap on pattern length (`None` = unbounded, the paper's setting).
    pub max_pattern_length: Option<usize>,
    /// Worker threads for the repetitive miners (1 = sequential; output is
    /// bit-identical either way). The sequential-pattern baselines are
    /// single-threaded regardless.
    pub threads: usize,
}

impl Default for RunLimits {
    fn default() -> Self {
        Self {
            max_patterns: 2_000_000,
            max_pattern_length: None,
            threads: 1,
        }
    }
}

impl RunLimits {
    /// A tighter cap used by the quick (dev-scale) experiments.
    pub fn dev() -> Self {
        Self {
            max_patterns: 200_000,
            ..Self::default()
        }
    }

    /// The same limits with `threads` worker threads for the repetitive
    /// miners.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Runs `miner` on `db` at threshold `min_sup` under `limits` and records
/// runtime and output size. The repetitive miners prepare the database as
/// part of the timed run; experiments sweeping several thresholds over one
/// dataset should prepare once and use [`run_miner_on`].
pub fn run_miner(
    db: &SequenceDatabase,
    miner: MinerKind,
    min_sup: u64,
    limits: RunLimits,
) -> RunRecord {
    timed(miner, min_sup, || {
        let config = sequential_config(min_sup, limits);
        let patterns = match miner {
            MinerKind::GsGrow | MinerKind::CloGsGrow => {
                return mine_repetitive(&PreparedDb::new(db), miner, min_sup, limits);
            }
            MinerKind::PrefixSpan => baselines::mine_sequential(db, &config),
            MinerKind::Bide => baselines::mine_closed_sequential(db, &config),
            MinerKind::CloSpanLite => baselines::mine_closed_sequential_by_filter(db, &config),
        };
        (patterns.len(), patterns.len() >= limits.max_patterns)
    })
}

/// [`run_miner`] against a caller-prepared snapshot: the per-query path for
/// threshold sweeps and repeated measurements over one dataset. The
/// repetitive miners (GSgrow/CloGSgrow) share the snapshot and skip all
/// per-run preparation; the sequential-pattern baselines run on the
/// snapshotted database.
pub fn run_miner_on(
    prepared: &PreparedDb,
    miner: MinerKind,
    min_sup: u64,
    limits: RunLimits,
) -> RunRecord {
    match miner {
        MinerKind::GsGrow | MinerKind::CloGsGrow => timed(miner, min_sup, || {
            mine_repetitive(prepared, miner, min_sup, limits)
        }),
        _ => run_miner(prepared.database(), miner, min_sup, limits),
    }
}

/// Times `run`, which returns `(patterns reported, truncated)`.
fn timed(miner: MinerKind, min_sup: u64, run: impl FnOnce() -> (usize, bool)) -> RunRecord {
    let start = Instant::now();
    let (num_patterns, truncated) = run();
    RunRecord {
        miner,
        min_sup,
        runtime_seconds: start.elapsed().as_secs_f64(),
        num_patterns,
        truncated,
    }
}

/// Mines `prepared` with one of the two repetitive miners under the shared
/// options (mode, threshold, caps, threads); returns
/// `(patterns reported, truncated)`.
fn mine_repetitive(
    prepared: &PreparedDb,
    miner: MinerKind,
    min_sup: u64,
    limits: RunLimits,
) -> (usize, bool) {
    let mode = if miner == MinerKind::GsGrow {
        Mode::All
    } else {
        Mode::Closed
    };
    let mut engine = prepared
        .miner()
        .min_sup(min_sup)
        .mode(mode)
        .max_patterns(limits.max_patterns)
        .threads(limits.threads);
    if let Some(len) = limits.max_pattern_length {
        engine = engine.max_pattern_length(len);
    }
    let outcome = engine.run();
    (outcome.len(), outcome.truncated)
}

fn sequential_config(min_sup: u64, limits: RunLimits) -> SequentialConfig {
    let mut config = SequentialConfig::new(min_sup).with_max_patterns(limits.max_patterns);
    if let Some(len) = limits.max_pattern_length {
        config = config.with_max_pattern_length(len);
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_db() -> SequenceDatabase {
        SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"])
    }

    #[test]
    fn all_miners_run_on_the_toy_database() {
        let db = toy_db();
        for miner in [
            MinerKind::GsGrow,
            MinerKind::CloGsGrow,
            MinerKind::PrefixSpan,
            MinerKind::Bide,
            MinerKind::CloSpanLite,
        ] {
            let record = run_miner(&db, miner, 2, RunLimits::default());
            assert!(record.num_patterns > 0, "{miner:?} found nothing");
            assert!(!record.truncated);
            assert!(record.runtime_seconds >= 0.0);
            assert_eq!(record.min_sup, 2);
        }
    }

    #[test]
    fn closed_miners_report_no_more_patterns_than_their_all_counterparts() {
        let db = toy_db();
        let all = run_miner(&db, MinerKind::GsGrow, 2, RunLimits::default());
        let closed = run_miner(&db, MinerKind::CloGsGrow, 2, RunLimits::default());
        assert!(closed.num_patterns <= all.num_patterns);
        let all_seq = run_miner(&db, MinerKind::PrefixSpan, 2, RunLimits::default());
        let closed_seq = run_miner(&db, MinerKind::Bide, 2, RunLimits::default());
        assert!(closed_seq.num_patterns <= all_seq.num_patterns);
    }

    #[test]
    fn pattern_cap_marks_runs_as_truncated() {
        let db = toy_db();
        let limits = RunLimits {
            max_patterns: 3,
            ..RunLimits::default()
        };
        let record = run_miner(&db, MinerKind::GsGrow, 1, limits);
        assert!(record.truncated);
        assert_eq!(record.num_patterns, 3);
    }

    #[test]
    fn prepared_runs_match_fresh_runs_for_every_miner() {
        let db = toy_db();
        let prepared = PreparedDb::new(&db);
        for miner in [
            MinerKind::GsGrow,
            MinerKind::CloGsGrow,
            MinerKind::PrefixSpan,
            MinerKind::Bide,
            MinerKind::CloSpanLite,
        ] {
            let fresh = run_miner(&db, miner, 2, RunLimits::default());
            let reused = run_miner_on(&prepared, miner, 2, RunLimits::default());
            assert_eq!(fresh.num_patterns, reused.num_patterns, "{miner:?}");
            assert_eq!(fresh.truncated, reused.truncated, "{miner:?}");
        }
    }

    #[test]
    fn threaded_runs_report_identical_counts() {
        let db = toy_db();
        let prepared = PreparedDb::new(&db);
        for miner in [MinerKind::GsGrow, MinerKind::CloGsGrow] {
            let sequential = run_miner_on(&prepared, miner, 2, RunLimits::default());
            let parallel = run_miner_on(&prepared, miner, 2, RunLimits::default().with_threads(4));
            assert_eq!(sequential.num_patterns, parallel.num_patterns, "{miner:?}");
        }
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(MinerKind::GsGrow.label(), "All (GSgrow)");
        assert_eq!(MinerKind::CloGsGrow.label(), "Closed (CloGSgrow)");
    }
}
