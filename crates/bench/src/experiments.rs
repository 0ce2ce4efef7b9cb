//! One function per experiment of the paper's evaluation (§IV), each
//! returning an [`ExperimentReport`].

use rgs_core::{postprocess, Miner, Mode, PostProcessConfig, PreparedDb};
use seqdb::SequenceDatabase;
use synthgen::JbossConfig;

use crate::datasets;
use crate::datasets::Scale;
use crate::report::ExperimentReport;
use crate::runner::{run_miner, run_miner_on, MinerKind, RunLimits, RunRecord};

fn limits_for(scale: Scale) -> RunLimits {
    match scale {
        Scale::Dev => RunLimits::dev(),
        Scale::Paper => RunLimits::default(),
    }
}

/// EXP-T1 — the Table I / Example 1.1 semantics comparison: the support of
/// `AB` and `CD` under every related-work support definition.
pub fn table1() -> ExperimentReport {
    let db = datasets::table1_dataset();
    let ab = db.pattern_from_str("AB").expect("AB");
    let cd = db.pattern_from_str("CD").expect("CD");
    let s1 = db.sequence(0).expect("S1");

    let mut report = ExperimentReport::new(
        "table1",
        "Support of AB and CD under the semantics of Table I (Example 1.1)",
        "S1 = AABCDABB, S2 = ABCD",
        "sequential: AB=2, CD=2; episodes w=4 (S1): AB=4; minimal windows (S1): AB=2; \
         gap 0..3 (S1): AB=4; interaction patterns: AB=9; iterative patterns: AB=3; \
         repetitive support (this paper): AB=4, CD=2",
    );

    let mut note = |name: &str, ab_value: u64, cd_value: u64| {
        report.push_note(format!(
            "{name}: sup(AB) = {ab_value}, sup(CD) = {cd_value}"
        ));
    };
    note(
        "sequential pattern mining (sequence count)",
        baselines::semantics::sequence_count_support(&db, &ab),
        baselines::semantics::sequence_count_support(&db, &cd),
    );
    note(
        "episode mining, width-4 windows in S1",
        baselines::semantics::episode_window_count(s1, &ab, 4),
        baselines::semantics::episode_window_count(s1, &cd, 4),
    );
    note(
        "episode mining, minimal windows in S1",
        baselines::semantics::minimal_window_count(s1, &ab),
        baselines::semantics::minimal_window_count(s1, &cd),
    );
    note(
        "periodic patterns with gap requirement 0..=3 in S1",
        baselines::semantics::gap_constrained_count(s1, &ab, 0, 3),
        baselines::semantics::gap_constrained_count(s1, &cd, 0, 3),
    );
    note(
        "interaction patterns (whole database)",
        baselines::semantics::interaction_pattern_support(&db, &ab),
        baselines::semantics::interaction_pattern_support(&db, &cd),
    );
    note(
        "iterative patterns (whole database)",
        baselines::semantics::iterative_pattern_support(&db, &ab),
        baselines::semantics::iterative_pattern_support(&db, &cd),
    );
    note(
        "repetitive support (this paper)",
        rgs_core::repetitive_support(&db, &ab),
        rgs_core::repetitive_support(&db, &cd),
    );
    report
}

/// Runs the "All" and "Closed" miners over a sweep of support thresholds on
/// one dataset (the template of Figures 2, 3 and 4).
#[allow(clippy::too_many_arguments)] // experiment descriptor, not an API
fn minsup_sweep(
    id: &str,
    title: &str,
    dataset_name: &str,
    db: &SequenceDatabase,
    thresholds: &[u64],
    all_cutoff: Option<u64>,
    expectation: &str,
    limits: RunLimits,
) -> ExperimentReport {
    let stats = db.stats();
    let mut report = ExperimentReport::new(
        id,
        title,
        &format!("{dataset_name}: {}", stats.summary()),
        expectation,
    );
    // One prepared snapshot serves the whole threshold sweep: the index is
    // query-independent.
    let prepared = PreparedDb::new(db);
    for &min_sup in thresholds {
        let mut runs: Vec<RunRecord> = Vec::new();
        // The paper only runs GSgrow above the "cut-off" threshold; below it
        // the number of frequent patterns is too large.
        let run_all = all_cutoff.is_none_or(|cutoff| min_sup >= cutoff);
        if run_all {
            runs.push(run_miner_on(&prepared, MinerKind::GsGrow, min_sup, limits));
        }
        runs.push(run_miner_on(
            &prepared,
            MinerKind::CloGsGrow,
            min_sup,
            limits,
        ));
        report.push_row(format!("min_sup={min_sup}"), runs);
    }
    summarize_sweep(&mut report);
    report
}

/// Adds shape notes shared by all min_sup sweeps: the closed result is never
/// larger than the all result, and pattern counts grow as the threshold
/// drops.
fn summarize_sweep(report: &mut ExperimentReport) {
    let mut closed_never_larger = true;
    let mut ratio_max = 0.0f64;
    for row in &report.rows {
        let all = row
            .runs
            .iter()
            .find(|r| r.miner == MinerKind::GsGrow)
            .map(|r| r.num_patterns);
        let closed = row
            .runs
            .iter()
            .find(|r| r.miner == MinerKind::CloGsGrow)
            .map(|r| r.num_patterns);
        if let (Some(all), Some(closed)) = (all, closed) {
            if closed > all {
                closed_never_larger = false;
            }
            if closed > 0 {
                ratio_max = ratio_max.max(all as f64 / closed as f64);
            }
        }
    }
    report.push_note(format!(
        "closed set never larger than all set: {closed_never_larger}; max all/closed ratio observed: {ratio_max:.1}x"
    ));
}

/// EXP-F2 — Figure 2: varying `min_sup` on the QUEST dataset D5C20N10S20.
pub fn fig2(scale: Scale) -> ExperimentReport {
    let (name, db) = datasets::fig2_dataset(scale);
    let thresholds = datasets::fig2_thresholds(scale);
    let all_cutoff = Some(thresholds[thresholds.len().saturating_sub(2)]);
    minsup_sweep(
        "fig2",
        "Varying support threshold min_sup (QUEST synthetic data)",
        &name,
        &db,
        &thresholds,
        all_cutoff,
        "Both runtimes and pattern counts grow as min_sup drops; the closed set is \
         orders of magnitude smaller than the all set at low thresholds and CloGSgrow \
         stays tractable where GSgrow is cut off",
        limits_for(scale),
    )
}

/// EXP-F3 — Figure 3: varying `min_sup` on the Gazelle-like clickstream.
pub fn fig3(scale: Scale) -> ExperimentReport {
    let (name, db) = datasets::fig3_dataset(scale);
    let thresholds = datasets::fig3_thresholds(scale);
    let all_cutoff = Some(thresholds[thresholds.len().saturating_sub(2)]);
    minsup_sweep(
        "fig3",
        "Varying support threshold min_sup (Gazelle-like clickstream)",
        &name,
        &db,
        &thresholds,
        all_cutoff,
        "A few very long sessions dominate; CloGSgrow completes even at low support \
         while GSgrow is only run at the higher thresholds",
        limits_for(scale),
    )
}

/// EXP-F4 — Figure 4: varying `min_sup` on the TCAS-like traces; the closed
/// miner is exercised down to `min_sup = 1`.
pub fn fig4(scale: Scale) -> ExperimentReport {
    let (name, db) = datasets::fig4_dataset(scale);
    let thresholds = datasets::fig4_thresholds(scale);
    let all_cutoff = Some(thresholds[0]);
    minsup_sweep(
        "fig4",
        "Varying support threshold min_sup (TCAS-like program traces)",
        &name,
        &db,
        &thresholds,
        all_cutoff,
        "Loop-heavy traces make the all-pattern set explode even at the highest \
         threshold (GSgrow is cut off), while CloGSgrow finishes at min_sup = 1",
        limits_for(scale),
    )
}

/// Runs the two miners over a list of datasets at a fixed threshold (the
/// template of Figures 5 and 6).
fn dataset_sweep(
    id: &str,
    title: &str,
    datasets: &[(String, SequenceDatabase)],
    min_sup: u64,
    expectation: &str,
    limits: RunLimits,
    all_limit: Option<usize>,
) -> ExperimentReport {
    let mut report =
        ExperimentReport::new(id, title, "QUEST synthetic data (see rows)", expectation);
    for (idx, (name, db)) in datasets.iter().enumerate() {
        let stats = db.stats();
        let prepared = PreparedDb::new(db);
        let mut runs = Vec::new();
        // The paper stops running GSgrow on the larger settings (it does not
        // terminate in reasonable time); `all_limit` is the index of the
        // last setting on which the all-miner is run.
        if all_limit.is_none_or(|limit| idx <= limit) {
            runs.push(run_miner_on(&prepared, MinerKind::GsGrow, min_sup, limits));
        }
        runs.push(run_miner_on(
            &prepared,
            MinerKind::CloGsGrow,
            min_sup,
            limits,
        ));
        report.push_row(
            format!(
                "{name} ({} seqs, avg len {:.0})",
                stats.num_sequences, stats.avg_length
            ),
            runs,
        );
    }
    summarize_sweep(&mut report);
    report
}

/// EXP-F5 — Figure 5: varying the number of sequences (D = 5..25K at paper
/// scale), C = S = 50, N = 10K, min_sup = 20.
pub fn fig5(scale: Scale) -> ExperimentReport {
    dataset_sweep(
        "fig5",
        "Varying the number of sequences |SeqDB|",
        &datasets::fig5_datasets(scale),
        datasets::fig5_fig6_threshold(scale),
        "Runtime grows with the number of sequences; GSgrow stops terminating in \
         reasonable time around the middle of the sweep while CloGSgrow handles the \
         largest setting; the closed set stays far smaller than the all set",
        limits_for(scale),
        Some(2),
    )
}

/// EXP-F6 — Figure 6: varying the average sequence length (C = S = 20..100),
/// D = 10K, N = 10K, min_sup = 20.
pub fn fig6(scale: Scale) -> ExperimentReport {
    dataset_sweep(
        "fig6",
        "Varying the average sequence length",
        &datasets::fig6_datasets(scale),
        datasets::fig5_fig6_threshold(scale),
        "Both miners slow down as sequences get longer (more frequent patterns at the \
         same threshold); GSgrow is cut off from average length 80 onwards while \
         CloGSgrow completes on the longest setting",
        limits_for(scale),
        Some(2),
    )
}

/// EXP-CMP — the Experiment-1 baseline comparison: CloGSgrow vs the
/// sequential-pattern miners (PrefixSpan, BIDE-style, CloSpan-lite) on the
/// Figure 2 dataset. The sequential miners solve an easier problem
/// (repetitions within a sequence are ignored), which is the point the
/// paper makes when comparing runtimes.
pub fn baselines_comparison(scale: Scale) -> ExperimentReport {
    let (name, db) = datasets::fig2_dataset(scale);
    let thresholds = datasets::fig2_thresholds(scale);
    let stats = db.stats();
    let limits = limits_for(scale);
    let mut report = ExperimentReport::new(
        "baselines",
        "CloGSgrow vs sequential-pattern baselines",
        &format!("{name}: {}", stats.summary()),
        "CloGSgrow is in the same runtime ballpark as closed sequential miners \
         (slightly slower than BIDE, faster than or comparable to CloSpan/PrefixSpan \
         on the synthetic dataset) while solving a strictly harder problem",
    );
    // Use the middle of the threshold sweep: low enough to be interesting,
    // high enough that every miner terminates quickly.
    let min_sup = thresholds[thresholds.len() / 2];
    // Sequence-count supports are bounded by the number of sequences, so the
    // sequential miners get a threshold scaled to sequence count.
    let seq_min_sup = (stats.num_sequences.div_ceil(20) as u64).max(2);
    let prepared = PreparedDb::new(&db);
    let runs = vec![
        run_miner_on(&prepared, MinerKind::CloGsGrow, min_sup, limits),
        run_miner_on(&prepared, MinerKind::GsGrow, min_sup, limits),
    ];
    report.push_row(format!("repetitive miners, min_sup={min_sup}"), runs);
    let mut seq_runs = Vec::new();
    for miner in [
        MinerKind::PrefixSpan,
        MinerKind::Bide,
        MinerKind::CloSpanLite,
    ] {
        seq_runs.push(run_miner(&db, miner, seq_min_sup, limits));
    }
    report.push_row(
        format!("sequential miners, min_sup={seq_min_sup}"),
        seq_runs,
    );
    report.push_note(
        "the sequential miners use sequence-count support, so their threshold is \
         expressed as a fraction of |SeqDB|"
            .to_owned(),
    );
    report
}

/// The outcome of the case study, in addition to the report: the patterns
/// that survive post-processing, rendered with event labels.
#[derive(Debug, Clone)]
pub struct CaseStudyOutcome {
    /// The report (counts, runtimes, notes).
    pub report: ExperimentReport,
    /// The surviving patterns after density + maximality + ranking, rendered
    /// as ` -> `-joined event labels.
    pub ranked_patterns: Vec<String>,
}

/// EXP-CS — the §IV-B case study on JBoss-transaction-like traces:
/// mine closed patterns at `min_sup = 18`, post-process (density > 40 %,
/// maximality, ranking by length) and check the headline findings.
pub fn case_study(scale: Scale) -> CaseStudyOutcome {
    let (name, db) = datasets::case_study_dataset(scale);
    let min_sup = datasets::case_study_threshold();
    let stats = db.stats();
    let mut report = ExperimentReport::new(
        "case_study",
        "JBoss transaction component case study (closed repetitive patterns)",
        &format!("{name}: {}", stats.summary()),
        "CloGSgrow completes at min_sup = 18 while GSgrow does not; after density, \
         maximality and ranking the longest pattern spans all six behavioural blocks \
         (connection set-up through disposal) and the most frequent 2-event pattern \
         is lock -> unlock",
    );

    let start = std::time::Instant::now();
    let closed = Miner::new(&db)
        .min_sup(min_sup)
        .mode(Mode::Closed)
        .max_patterns(limits_for(scale).max_patterns)
        .run();
    let elapsed = start.elapsed().as_secs_f64();
    report.push_row(
        format!("min_sup={min_sup}"),
        vec![RunRecord {
            miner: MinerKind::CloGsGrow,
            min_sup,
            runtime_seconds: elapsed,
            num_patterns: closed.len(),
            truncated: closed.truncated,
        }],
    );

    let processed = postprocess(&closed.patterns, &PostProcessConfig::default());
    report.push_note(format!(
        "{} closed patterns mined; {} remain after density > 40% + maximality",
        closed.len(),
        processed.len()
    ));

    if let Some(longest) = processed.first() {
        report.push_note(format!(
            "longest reported pattern has length {} with support {}",
            longest.pattern.len(),
            longest.support
        ));
        // Check whether the longest pattern spans all six semantic blocks.
        let rendered = longest.pattern.render_with(db.catalog(), " -> ");
        let block_witnesses = [
            "TransManLoc.locate",
            "TxManager.begin",
            "TransImpl.assocCurThd",
            "TransImpl.enlistResource",
            "TransImpl.commit",
            "TxManager.releaseTransImpl",
        ];
        let spans_all = block_witnesses.iter().all(|w| rendered.contains(w));
        report.push_note(format!(
            "longest pattern spans all six behavioural blocks (connection set-up .. disposal): {spans_all}"
        ));
    }

    // The lock -> unlock micro-behaviour.
    let lock_unlock: Vec<_> = ["TransImpl.lock", "TransImpl.unlock"]
        .iter()
        .filter_map(|l| db.catalog().id(l))
        .collect();
    if lock_unlock.len() == 2 {
        let sup = rgs_core::repetitive_support(&db, &lock_unlock);
        report.push_note(format!(
            "repetitive support of lock -> unlock: {sup} (paper: the most frequent 2-event behaviour)"
        ));
    }

    let ranked_patterns = processed
        .iter()
        .map(|mp| {
            format!(
                "len={} sup={} {}",
                mp.pattern.len(),
                mp.support,
                mp.pattern.render_with(db.catalog(), " -> ")
            )
        })
        .collect();

    CaseStudyOutcome {
        report,
        ranked_patterns,
    }
}

/// Ground truth helper used by integration tests: the end-to-end behaviour
/// embedded by the JBoss-like generator, as event ids of `db`.
pub fn jboss_end_to_end_pattern(db: &SequenceDatabase) -> Vec<seqdb::EventId> {
    JbossConfig::end_to_end_behaviour()
        .iter()
        .filter_map(|l| db.catalog().id(l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_every_number_of_example_1_1() {
        let report = table1();
        let joined = report.notes.join("\n");
        assert!(
            joined.contains("sequential pattern mining (sequence count): sup(AB) = 2, sup(CD) = 2")
        );
        assert!(joined.contains("episode mining, width-4 windows in S1: sup(AB) = 4"));
        assert!(joined.contains("episode mining, minimal windows in S1: sup(AB) = 2"));
        assert!(joined.contains("periodic patterns with gap requirement 0..=3 in S1: sup(AB) = 4"));
        assert!(joined.contains("interaction patterns (whole database): sup(AB) = 9"));
        assert!(joined.contains("iterative patterns (whole database): sup(AB) = 3"));
        assert!(joined.contains("repetitive support (this paper): sup(AB) = 4, sup(CD) = 2"));
    }

    #[test]
    fn case_study_recovers_the_headline_findings() {
        let outcome = case_study(Scale::Dev);
        let notes = outcome.report.notes.join("\n");
        assert!(notes
            .contains("spans all six behavioural blocks (connection set-up .. disposal): true"));
        assert!(!outcome.ranked_patterns.is_empty());
        // The longest pattern should be long (the paper's is 66 events).
        let first = &outcome.ranked_patterns[0];
        let len: usize = first
            .split_whitespace()
            .next()
            .and_then(|s| s.strip_prefix("len="))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        assert!(len >= 40, "longest pattern too short: {first}");
    }
}
