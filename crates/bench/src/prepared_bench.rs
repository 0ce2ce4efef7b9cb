//! The engine-level benchmark suites behind the `prepared_bench` binary,
//! each with the regression floor CI checks:
//!
//! - the growth kernel ([`run_growth_kernel`], written to
//!   `BENCH_growth_kernel.json`): instance-growth throughput of whole
//!   extension layers on long-sequence workloads, held to the committed
//!   file by [`check_growth_floor`];
//! - the batch engine ([`run_batch`], written to `BENCH_batch.json`):
//!   stepped-threshold sweeps mined one-by-one vs in one shared DFS pass,
//!   held to a minimum speedup and bit-identity by [`check_batch_floor`].
//!
//! End-to-end timings, byte footprints and cold starts (prepare, snapshot
//! write/verify/open) are measured by the repository benchmark in
//! `perfbench/`, which also checks every answer against its pins.

use std::time::Instant;

use rgs_core::json::{escape, Value};
use rgs_core::{MiningRequest, Mode, PreparedDb};
use seqdb::EventId;

use crate::datasets;
use crate::datasets::Scale;

/// Best-of-`repeats` wall time of `f`.
fn best_of<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let start = Instant::now();
    let mut result = f();
    best = best.min(start.elapsed().as_secs_f64());
    for _ in 1..repeats.max(1) {
        let start = Instant::now();
        result = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, result)
}

/// Growth-kernel measurements of one workload: instance growth throughput
/// plus the narrow-column storage footprint.
#[derive(Debug, Clone)]
pub struct GrowthKernelWorkload {
    /// Dataset description (name + stats summary).
    pub dataset: String,
    /// Support threshold filtering which single-event seed sets the
    /// measured extension layers grow.
    pub min_sup: u64,
    /// Physical bytes of one event-arena element (2 narrow, 4 wide).
    pub event_elem_bytes: usize,
    /// Live bytes of the event store at its actual width.
    pub store_bytes: usize,
    /// What the same store would occupy at 4 bytes per event —
    /// `store_bytes_wide - store_bytes` is the narrow-column saving.
    pub store_bytes_wide: usize,
    /// Instances emitted by one measured run (`GROWTH_LAYER_ITERS` full
    /// extension layers over the seed sets, kernel work only).
    pub instance_growths: u64,
    /// Wall time of that run: the median layer, times the layer count.
    pub growth_seconds: f64,
    /// `instance_growths / growth_seconds`.
    pub growths_per_second: f64,
}

impl GrowthKernelWorkload {
    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\": {}, \"min_sup\": {}, \
             \"event_elem_bytes\": {}, \"store_bytes\": {}, \"store_bytes_wide\": {}, \
             \"instance_growths\": {}, \"growth_seconds\": {:.6}, \
             \"growths_per_second\": {:.0}}}",
            escape(&self.dataset),
            self.min_sup,
            self.event_elem_bytes,
            self.store_bytes,
            self.store_bytes_wide,
            self.instance_growths,
            self.growth_seconds,
            self.growths_per_second,
        )
    }
}

/// The growth-kernel benchmark report (`BENCH_growth_kernel.json`).
#[derive(Debug, Clone)]
pub struct GrowthKernelReport {
    /// Benchmark scale (dev/paper).
    pub scale: String,
    /// The vector extensions the build targets (for example `"sse2"`, see
    /// `seqdb::simd::detected_features`), so cross-container numbers carry
    /// their build context instead of a prose caveat.
    pub cpu_features: String,
    /// Per-workload measurements: the Fig. 6 avg-~103 workload plus the
    /// avg-~200 / avg-~400 long-sequence datasets and the dense
    /// small-alphabet long-sequence workload with the longest posting rows.
    pub workloads: Vec<GrowthKernelWorkload>,
}

impl GrowthKernelReport {
    /// Renders the report as a JSON object (hand-rolled, no serde).
    pub fn to_json(&self) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| format!("    {}", w.to_json()))
            .collect();
        format!(
            "{{\n  \"benchmark\": \"growth_kernel\",\n  \"scale\": {},\n  \
             \"cpu_features\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
            escape(&self.scale),
            escape(&self.cpu_features),
            workloads.join(",\n"),
        )
    }
}

/// Layers per repeat of the growth-kernel measurement: a single layer over
/// the seed sets takes a few milliseconds at dev scale, so each workload
/// times `repeats x GROWTH_LAYER_ITERS` layers and reports the median one
/// scaled to this many layers.
const GROWTH_LAYER_ITERS: usize = 16;

/// Measures one growth-kernel workload: narrow-column byte footprints from
/// the dataset statistics plus the kernel-only throughput of repeated full
/// extension layers ([`rgs_core::kernel::grow_layer`]) — every frequent
/// single-event seed support set grown by every frequent event, the exact
/// grow calls the first `mineFre` level issues. Timing the kernel entry
/// point directly (instead of a whole mining run) keeps support counting,
/// closure checks, and tree bookkeeping out of the measured window, so the
/// throughput measures the kernels and nothing else.
fn growth_kernel_workload(
    name: &str,
    db: &seqdb::SequenceDatabase,
    min_sup: u64,
    repeats: usize,
) -> GrowthKernelWorkload {
    let stats = db.stats();
    let prepared = PreparedDb::new(db);
    let sc = prepared.support_computer();
    let seeds: Vec<(EventId, rgs_core::SupportSet)> = (0..db.num_events())
        .filter_map(|e| u32::try_from(e).ok().map(EventId))
        .map(|e| (e, sc.initial_support_set(e)))
        .filter(|(_, set)| set.support() >= min_sup)
        .collect();
    let events: Vec<EventId> = seeds.iter().map(|(e, _)| *e).collect();
    let seed_sets: Vec<rgs_core::SupportSet> = seeds.into_iter().map(|(_, set)| set).collect();
    // The median layer: a burst of noise on a shared machine cannot move
    // it.
    let mut times = Vec::new();
    let mut emitted = 0u64;
    for _ in 0..repeats.max(1) * GROWTH_LAYER_ITERS {
        let (seconds, layer) = best_of(1, || {
            rgs_core::kernel::grow_layer(sc.index(), &seed_sets, &events)
        });
        times.push(seconds.max(1e-12));
        emitted = layer;
    }
    // Reported per `GROWTH_LAYER_ITERS` layers, the unit of the committed
    // baselines.
    let growth_seconds = median(times) * GROWTH_LAYER_ITERS as f64;
    let instance_growths = emitted * GROWTH_LAYER_ITERS as u64;
    GrowthKernelWorkload {
        dataset: format!("{name}: {}", stats.summary()),
        min_sup,
        event_elem_bytes: stats.event_elem_bytes,
        store_bytes: stats.store_bytes,
        store_bytes_wide: stats.store_bytes_wide,
        instance_growths,
        growth_seconds,
        growths_per_second: instance_growths as f64 / growth_seconds,
    }
}

/// The median of `values` (the upper one for an even count; 0 when empty).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

/// Runs the growth-kernel benchmark: the Fig. 6 avg-length-~103 workload
/// plus the avg-~200 / avg-~400 long-sequence datasets and the skewed dense
/// workload with the longest posting rows. The rows are named by their
/// `dataset` strings, which [`check_growth_floor`] matches against the
/// committed baseline.
pub fn run_growth_kernel(scale: Scale, repeats: usize) -> GrowthKernelReport {
    let min_sup = datasets::fig5_fig6_threshold(scale);
    let mut workloads = Vec::new();

    let (fig6_name, fig6_db) = datasets::fig6_largest(scale);
    workloads.push(growth_kernel_workload(
        &fig6_name, &fig6_db, min_sup, repeats,
    ));

    for (name, db) in datasets::long_seq_datasets(scale) {
        workloads.push(growth_kernel_workload(&name, &db, min_sup, repeats));
    }

    GrowthKernelReport {
        scale: format!("{scale:?}").to_lowercase(),
        cpu_features: seqdb::simd::detected_features().to_owned(),
        workloads,
    }
}

/// Compares a fresh growth-kernel report against a committed baseline
/// report (the checked-in `BENCH_growth_kernel.json`) and fails when any
/// baseline workload regressed by more than `max_regression` (0.3 = 30%).
///
/// Rows are matched by their `dataset` string, so the baseline may list its
/// workloads in any order and carry columns the fresh report lacks. Every
/// baseline row needs a fresh row of the same name: a missing one fails the
/// check instead of being skipped. Fresh rows the baseline does not list
/// have no floor.
pub fn check_growth_floor(
    report: &GrowthKernelReport,
    baseline_json: &str,
    max_regression: f64,
) -> Result<(), String> {
    let baseline =
        rgs_core::json::parse(baseline_json).map_err(|err| format!("baseline: {err}"))?;
    let rows = baseline
        .get("workloads")
        .and_then(Value::as_arr)
        .filter(|rows| !rows.is_empty())
        .ok_or("baseline has no workloads")?;
    for row in rows {
        let (Some(dataset), Some(floor_base)) = (
            row.get("dataset").and_then(Value::as_str),
            row.get("growths_per_second").and_then(Value::as_f64),
        ) else {
            return Err("baseline row lacks a dataset or growths_per_second".to_owned());
        };
        let Some(w) = report.workloads.iter().find(|w| w.dataset == dataset) else {
            return Err(format!(
                "{dataset}: no fresh measurement for this baseline row"
            ));
        };
        let floor = floor_base * (1.0 - max_regression);
        if w.growths_per_second < floor {
            return Err(format!(
                "{}: {:.0} growths/s is below the floor {:.0} \
                 (baseline {:.0}, max regression {:.0}%)",
                w.dataset,
                w.growths_per_second,
                floor,
                floor_base,
                max_regression * 100.0,
            ));
        }
    }
    Ok(())
}

/// Batch-engine measurements of one workload: a stepped-threshold request
/// sweep mined one-by-one through the solo engine vs in one shared DFS
/// pass through [`PreparedDb::batch`].
#[derive(Debug, Clone)]
pub struct BatchWorkload {
    /// Dataset description (name + stats summary).
    pub dataset: String,
    /// Number of requests in the sweep.
    pub requests: usize,
    /// The support thresholds of the swept requests.
    pub min_sups: Vec<u64>,
    /// Best-of-N wall time of the sequential one-by-one loop.
    pub one_by_one_seconds: f64,
    /// Best-of-N wall time of the single [`PreparedDb::batch`] call.
    pub batched_seconds: f64,
    /// `one_by_one_seconds / batched_seconds`.
    pub batch_speedup: f64,
    /// Whether every batch member's patterns (and truncation flag) were
    /// bit-identical to its solo run.
    pub output_identical: bool,
}

impl BatchWorkload {
    fn to_json(&self) -> String {
        let sups: Vec<String> = self.min_sups.iter().map(u64::to_string).collect();
        format!(
            "{{\"dataset\": {}, \"requests\": {}, \"min_sups\": [{}], \
             \"one_by_one_seconds\": {:.6}, \"batched_seconds\": {:.6}, \
             \"batch_speedup\": {:.3}, \"output_identical\": {}}}",
            escape(&self.dataset),
            self.requests,
            sups.join(", "),
            self.one_by_one_seconds,
            self.batched_seconds,
            self.batch_speedup,
            self.output_identical,
        )
    }
}

/// The batch-engine benchmark report (`BENCH_batch.json`).
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Benchmark scale (dev/paper).
    pub scale: String,
    /// What the batched numbers are compared against.
    pub baseline: String,
    /// Per-workload measurements.
    pub workloads: Vec<BatchWorkload>,
}

impl BatchReport {
    /// Renders the report as a JSON object (hand-rolled, no serde).
    pub fn to_json(&self) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| format!("    {}", w.to_json()))
            .collect();
        format!(
            "{{\n  \"benchmark\": \"batch_engine\",\n  \"scale\": {},\n  \
             \"baseline\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
            escape(&self.scale),
            escape(&self.baseline),
            workloads.join(",\n"),
        )
    }
}

/// Measures one batch workload: the stepped-threshold closed-mining sweep
/// of `min_sups` on `db`, one-by-one vs batched, plus the bit-identity
/// verdict across every member.
fn batch_workload(
    name: &str,
    db: &seqdb::SequenceDatabase,
    min_sups: &[u64],
    repeats: usize,
) -> BatchWorkload {
    let prepared = PreparedDb::new(db);
    let requests: Vec<MiningRequest> = min_sups
        .iter()
        .map(|&min_sup| MiningRequest {
            min_sup,
            mode: Mode::Closed,
            ..MiningRequest::default()
        })
        .collect();

    let (one_by_one_seconds, solo) = best_of(repeats, || {
        requests
            .iter()
            .map(|request| prepared.miner().with_request(request.clone()).run())
            .collect::<Vec<_>>()
    });
    let (batched_seconds, batched) = best_of(repeats, || prepared.batch(&requests));

    let output_identical = solo.len() == batched.len()
        && solo
            .iter()
            .zip(&batched)
            .all(|(s, b)| s.patterns == b.outcome.patterns && s.truncated == b.outcome.truncated);

    BatchWorkload {
        dataset: format!("{name}: {}", db.stats().summary()),
        requests: requests.len(),
        min_sups: min_sups.to_vec(),
        one_by_one_seconds,
        batched_seconds,
        batch_speedup: one_by_one_seconds / batched_seconds.max(1e-12),
        output_identical,
    }
}

/// Runs the batch-engine benchmark: the Figure 2 threshold sweep (the same
/// shape the features pipeline's `sweep_min_sup` issues) and a stepped
/// sweep on the heaviest Fig. 5 dataset. Both sweeps land in a single
/// shared-DFS group, so the batched run pays for one scan at the lowest
/// threshold where the loop pays for every step.
///
/// The Fig. 5 thresholds step from 40% to 60% of the sequence count
/// (200..=300 at dev scale). Closed mining on that dataset explodes
/// combinatorially below ~20% of the sequence count (minutes per solo run),
/// so the sweep sits in the band where every solo run finishes in well under
/// a second and the whole suite stays CI-sized.
pub fn run_batch(scale: Scale, repeats: usize) -> BatchReport {
    let mut workloads = Vec::new();

    let (fig2_name, fig2_db) = datasets::fig2_dataset(scale);
    let fig2_sups = datasets::fig2_thresholds(scale);
    workloads.push(batch_workload(&fig2_name, &fig2_db, &fig2_sups, repeats));

    let (fig5_name, fig5_db) = datasets::fig5_largest(scale);
    let seqs = fig5_db.num_sequences() as u64;
    let fig5_sups: Vec<u64> = (0..6).map(|i| seqs * (40 + 4 * i) / 100).collect();
    workloads.push(batch_workload(&fig5_name, &fig5_db, &fig5_sups, repeats));

    BatchReport {
        scale: format!("{scale:?}").to_lowercase(),
        baseline: "the same requests mined one-by-one through the solo engine \
                   (Miner::with_request) on the same prepared snapshot"
            .to_owned(),
        workloads,
    }
}

/// Checks the batch report against its regression floor: every workload
/// must be bit-identical to the one-by-one loop and at least `min_speedup`
/// times faster than it (1.2 = batched must beat the loop by 20%).
pub fn check_batch_floor(report: &BatchReport, min_speedup: f64) -> Result<(), String> {
    for w in &report.workloads {
        if !w.output_identical {
            return Err(format!(
                "{}: batched output diverged from the one-by-one loop",
                w.dataset
            ));
        }
        if w.batch_speedup < min_speedup {
            return Err(format!(
                "{}: batched run is only {:.2}x the one-by-one loop \
                 (floor {min_speedup:.2}x)",
                w.dataset, w.batch_speedup,
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_returns_the_last_result_and_a_positive_time() {
        let (seconds, value) = best_of(3, || 42);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
    }

    #[test]
    fn growth_kernel_report_serializes_to_balanced_json() {
        let report = GrowthKernelReport {
            scale: "dev".into(),
            cpu_features: "sse2 avx2".into(),
            workloads: vec![GrowthKernelWorkload {
                dataset: "toy".into(),
                min_sup: 20,
                event_elem_bytes: 2,
                store_bytes: 1000,
                store_bytes_wide: 1900,
                instance_growths: 6000,
                growth_seconds: 0.001,
                growths_per_second: 6_000_000.0,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"growth_kernel\""));
        assert!(json.contains("\"cpu_features\": \"sse2 avx2\""));
        assert!(json.contains("\"event_elem_bytes\": 2"));
        assert!(json.contains("\"growths_per_second\": 6000000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn growth_kernel_workload_measures_a_small_database() {
        let db = seqdb::SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        let w = growth_kernel_workload("running example", &db, 2, 1);
        assert_eq!(w.event_elem_bytes, 2, "4-event alphabet must be narrow");
        assert!(w.store_bytes < w.store_bytes_wide);
        assert!(w.instance_growths > 0);
        assert!(w.growths_per_second > 0.0);
    }

    /// A growth report with one row per `(dataset, growths_per_second)`.
    fn growth_report(rows: &[(&str, f64)]) -> GrowthKernelReport {
        GrowthKernelReport {
            scale: "dev".into(),
            cpu_features: "sse2 avx2".into(),
            workloads: rows
                .iter()
                .map(|&(dataset, growths_per_second)| GrowthKernelWorkload {
                    dataset: dataset.into(),
                    min_sup: 20,
                    event_elem_bytes: 2,
                    store_bytes: 1000,
                    store_bytes_wide: 1900,
                    instance_growths: 6000,
                    growth_seconds: 0.001,
                    growths_per_second,
                })
                .collect(),
        }
    }

    #[test]
    fn growth_floor_check_accepts_equal_and_rejects_regressed_numbers() {
        let report = growth_report(&[("toy", 6_000_000.0)]);
        let same = report.to_json();
        assert!(check_growth_floor(&report, &same, 0.3).is_ok());
        // Baselines written with the retired forced-scalar column still
        // parse: only `dataset` and `growths_per_second` are read.
        let old_columns = same.replace(
            "\"growths_per_second\": 6000000",
            "\"growths_per_second\": 6000000, \"scalar_growths_per_second\": 9000000",
        );
        assert!(check_growth_floor(&report, &old_columns, 0.3).is_ok());
        // 30% headroom: a baseline up to 1/0.7 of the measurement passes.
        let faster = same.replace("6000000", "8000000");
        assert!(check_growth_floor(&report, &faster, 0.3).is_ok());
        // Beyond the floor fails with a descriptive message.
        let much_faster = same.replace("6000000", "10000000");
        let err = check_growth_floor(&report, &much_faster, 0.3).unwrap_err();
        assert!(err.contains("below the floor"), "{err}");
        // A baseline without rows or not JSON at all is an explicit error,
        // not a pass.
        assert!(check_growth_floor(&report, "{}", 0.3).is_err());
        assert!(check_growth_floor(&report, "\"growths_per_second\": 1", 0.3).is_err());
    }

    #[test]
    fn growth_floor_matches_a_reordered_baseline_by_dataset() {
        let report = growth_report(&[("slow", 1_000_000.0), ("fast", 9_000_000.0)]);
        // The same rows in the other order: pairing by position would hold
        // "slow" to the 9M floor and fail.
        let reordered = growth_report(&[("fast", 9_000_000.0), ("slow", 1_000_000.0)]);
        assert!(check_growth_floor(&report, &reordered.to_json(), 0.3).is_ok());
        // A regression is still caught, and named, when the rows are swapped.
        let regressed = growth_report(&[("fast", 20_000_000.0), ("slow", 1_000_000.0)]);
        let err = check_growth_floor(&report, &regressed.to_json(), 0.3).unwrap_err();
        assert!(err.starts_with("fast:"), "{err}");
    }

    #[test]
    fn growth_floor_fails_a_baseline_row_with_no_fresh_row() {
        let report = growth_report(&[("kept", 6_000_000.0)]);
        let baseline = growth_report(&[("kept", 6_000_000.0), ("dropped", 6_000_000.0)]);
        let err = check_growth_floor(&report, &baseline.to_json(), 0.3).unwrap_err();
        assert!(err.contains("dropped: no fresh measurement"), "{err}");
        // A fresh row the baseline does not list has no floor.
        let extra = growth_report(&[("kept", 6_000_000.0), ("new", 1.0)]);
        let baseline = growth_report(&[("kept", 6_000_000.0)]);
        assert!(check_growth_floor(&extra, &baseline.to_json(), 0.3).is_ok());
    }

    #[test]
    fn batch_report_serializes_to_balanced_json() {
        let report = BatchReport {
            scale: "dev".into(),
            baseline: "one-by-one loop".into(),
            workloads: vec![BatchWorkload {
                dataset: "toy".into(),
                requests: 5,
                min_sups: vec![40, 30, 20, 15, 10],
                one_by_one_seconds: 0.5,
                batched_seconds: 0.2,
                batch_speedup: 2.5,
                output_identical: true,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"batch_engine\""));
        assert!(json.contains("\"min_sups\": [40, 30, 20, 15, 10]"));
        assert!(json.contains("\"batch_speedup\": 2.500"));
        assert!(json.contains("\"output_identical\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn batch_workload_stays_bit_identical_on_a_small_database() {
        let db = seqdb::SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        let w = batch_workload("running example", &db, &[4, 3, 2], 1);
        assert!(w.output_identical, "batched sweep diverged from the loop");
        assert_eq!(w.requests, 3);
        assert!(w.one_by_one_seconds >= 0.0 && w.batched_seconds >= 0.0);
    }

    #[test]
    fn batch_floor_check_rejects_slow_or_divergent_workloads() {
        let good = BatchWorkload {
            dataset: "toy".into(),
            requests: 5,
            min_sups: vec![40, 30, 20, 15, 10],
            one_by_one_seconds: 0.5,
            batched_seconds: 0.2,
            batch_speedup: 2.5,
            output_identical: true,
        };
        let mut report = BatchReport {
            scale: "dev".into(),
            baseline: "one-by-one loop".into(),
            workloads: vec![good.clone()],
        };
        assert!(check_batch_floor(&report, 1.2).is_ok());

        report.workloads.push(BatchWorkload {
            batch_speedup: 1.1,
            ..good.clone()
        });
        let err = check_batch_floor(&report, 1.2).unwrap_err();
        assert!(err.contains("only 1.10x"), "{err}");

        report.workloads[1] = BatchWorkload {
            output_identical: false,
            ..good
        };
        let err = check_batch_floor(&report, 1.2).unwrap_err();
        assert!(err.contains("diverged"), "{err}");
    }
}
