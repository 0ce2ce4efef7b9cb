//! Benchmark for the prepared-query engine: measures the parallel-mining
//! speedup and the prepared-reuse speedup on the features pipeline, and
//! renders the result as the `BENCH_prepared_engine.json` entry checked in
//! at the repository root.
//!
//! Since the columnar-storage refactor the module also measures the storage
//! layer itself ([`run_columnar`]): index build time, store/index byte
//! footprints, bytes per compressed instance, and instance-growth
//! throughput on the Fig. 2/5/6 workloads — written to
//! `BENCH_columnar_store.json` so regressions against the PR 2 baseline
//! (`BENCH_prepared_engine.json`) stay visible.
//!
//! The snapshot subsystem gets its own cold-start benchmark
//! ([`run_snapshot`], written to `BENCH_snapshot.json`): on each Fig. 2/5/6
//! workload it compares *build-from-text* (parse the token file, intern,
//! build the CSR index, compute the counts) against *open-snapshot* (map
//! one image file and validate its checksum), records bytes on disk next
//! to `PreparedDb::heap_bytes`, and asserts that mining the reopened
//! snapshot is bit-identical to mining the original.

use std::time::Instant;

use rgs_core::json::escape;
use rgs_core::{CountSink, Instance, MiningRequest, Mode, PreparedDb, SupportComputer};
use rgs_features::pipeline::{run_pipeline, sweep_min_sup, PipelineConfig};
use rgs_features::LabeledDatabase;
use seqdb::EventId;
use synthgen::labeled::LabeledTraceConfig;

use crate::datasets;
use crate::datasets::Scale;

/// The measured numbers of one prepared-engine benchmark run.
#[derive(Debug, Clone)]
pub struct PreparedEngineReport {
    /// Mining dataset description.
    pub dataset: String,
    /// Support threshold of the mining measurement.
    pub min_sup: u64,
    /// Worker threads of the parallel measurement.
    pub threads: usize,
    /// CPUs actually available to this process — the hard ceiling on any
    /// parallel speedup (a 1-CPU container cannot speed up, only stay
    /// bit-identical).
    pub available_parallelism: usize,
    /// Best-of-N sequential closed-mining wall time (prepared snapshot).
    pub sequential_seconds: f64,
    /// Best-of-N parallel closed-mining wall time (same snapshot).
    pub parallel_seconds: f64,
    /// `sequential_seconds / parallel_seconds`.
    pub parallel_speedup: f64,
    /// Whether the parallel pattern list was bit-identical to sequential.
    pub parallel_output_identical: bool,
    /// Pipeline dataset description.
    pub pipeline_dataset: String,
    /// The support thresholds of the pipeline sweep.
    pub sweep_min_sups: Vec<u64>,
    /// Wall time of the sweep re-preparing per call ([`run_pipeline`]).
    pub pipeline_fresh_seconds: f64,
    /// Wall time of the sweep hoisting one snapshot ([`sweep_min_sup`]).
    pub pipeline_prepared_seconds: f64,
    /// `pipeline_fresh_seconds / pipeline_prepared_seconds`.
    pub prepared_reuse_speedup: f64,
}

impl PreparedEngineReport {
    /// Renders the report as a JSON object (hand-rolled, no serde).
    pub fn to_json(&self) -> String {
        let sweep: Vec<String> = self.sweep_min_sups.iter().map(u64::to_string).collect();
        format!(
            "{{\n  \"benchmark\": \"prepared_engine\",\n  \"dataset\": {},\n  \"min_sup\": {},\n  \
             \"threads\": {},\n  \"available_parallelism\": {},\n  \
             \"sequential_seconds\": {:.6},\n  \"parallel_seconds\": {:.6},\n  \
             \"parallel_speedup\": {:.3},\n  \"parallel_output_identical\": {},\n  \
             \"pipeline_dataset\": {},\n  \"sweep_min_sups\": [{}],\n  \
             \"pipeline_fresh_seconds\": {:.6},\n  \"pipeline_prepared_seconds\": {:.6},\n  \
             \"prepared_reuse_speedup\": {:.3}\n}}\n",
            escape(&self.dataset),
            self.min_sup,
            self.threads,
            self.available_parallelism,
            self.sequential_seconds,
            self.parallel_seconds,
            self.parallel_speedup,
            self.parallel_output_identical,
            escape(&self.pipeline_dataset),
            sweep.join(", "),
            self.pipeline_fresh_seconds,
            self.pipeline_prepared_seconds,
            self.prepared_reuse_speedup,
        )
    }
}

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

/// Runs the benchmark: parallel closed mining vs sequential on a prepared
/// snapshot, and the features-pipeline threshold sweep with and without
/// prepared reuse.
pub fn run(scale: Scale, threads: usize, repeats: usize) -> PreparedEngineReport {
    // -- Parallel speedup: closed mining on the Figure 2 QUEST dataset at
    // the lowest threshold of its sweep (the heaviest setting that still
    // terminates comfortably at dev scale).
    let (name, db) = datasets::fig2_dataset(scale);
    let thresholds = datasets::fig2_thresholds(scale);
    let min_sup = thresholds[thresholds.len() - 1];
    let prepared = PreparedDb::new(&db);
    let (sequential_seconds, sequential) = best_of(repeats, || {
        prepared.miner().min_sup(min_sup).mode(Mode::Closed).run()
    });
    let (parallel_seconds, parallel) = best_of(repeats, || {
        prepared
            .miner()
            .min_sup(min_sup)
            .mode(Mode::Closed)
            .threads(threads)
            .run()
    });
    let parallel_output_identical = sequential.patterns == parallel.patterns;

    // -- Prepared-reuse speedup: the model-selection threshold sweep of the
    // features pipeline, re-preparing per call vs hoisting one snapshot.
    // The sweep walks down from a very high threshold (the usual "find the
    // highest threshold that still yields features" search), so individual
    // queries are cheap and the per-call preparation is the waste.
    let (pipeline_db, labels) = LabeledTraceConfig::default()
        .with_traces_per_class(if scale == Scale::Paper { 1_200 } else { 400 })
        .generate();
    let data = LabeledDatabase::new(pipeline_db, labels).expect("aligned labels");
    let base = PipelineConfig::new(40, 6).with_max_pattern_length(3);
    let top_occurrences = {
        let prepared = PreparedDb::new(data.database());
        data.database()
            .catalog()
            .ids()
            .map(|e| prepared.occurrence_count(e))
            .max()
            .unwrap_or(1)
    };
    let sweep_min_sups: Vec<u64> = (1..=8).map(|i| top_occurrences * (8 + i) / 16).collect();
    let (pipeline_fresh_seconds, _) = best_of(repeats, || {
        for &min_sup in &sweep_min_sups {
            let config = PipelineConfig {
                min_sup,
                ..base.clone()
            };
            run_pipeline(&data, &config).expect("pipeline runs");
        }
    });
    let (pipeline_prepared_seconds, _) = best_of(repeats, || {
        sweep_min_sup(&data, &sweep_min_sups, &base).expect("sweep runs");
    });

    PreparedEngineReport {
        dataset: format!("{name}: {}", db.stats().summary()),
        min_sup,
        threads,
        available_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        sequential_seconds,
        parallel_seconds,
        parallel_speedup: sequential_seconds / parallel_seconds.max(1e-12),
        parallel_output_identical,
        pipeline_dataset: data.summary(),
        sweep_min_sups,
        pipeline_fresh_seconds,
        pipeline_prepared_seconds,
        prepared_reuse_speedup: pipeline_fresh_seconds / pipeline_prepared_seconds.max(1e-12),
    }
}

/// Storage-layer measurements of one Fig. 2/5/6 workload.
#[derive(Debug, Clone)]
pub struct ColumnarWorkload {
    /// Dataset description (name + stats summary).
    pub dataset: String,
    /// Support threshold of the growth-throughput measurement.
    pub min_sup: u64,
    /// Pattern budget of the growth-throughput run: GSgrow's complete
    /// output explodes combinatorially at these thresholds, so the run
    /// streams into a counting sink and stops after this many patterns —
    /// memory- and time-bounded, while the growths/second rate stays
    /// representative.
    pub pattern_cap: usize,
    /// Best-of-N wall time of one inverted-index build.
    pub index_build_seconds: f64,
    /// Live bytes of the flat event store (arena + CSR offsets).
    pub store_bytes: usize,
    /// Live bytes of the inverted index (every column).
    pub index_bytes: usize,
    /// `(store_bytes + index_bytes) / total_length`.
    pub bytes_per_event: f64,
    /// Size of one compressed `(seq, first, last)` instance triple.
    pub bytes_per_instance: usize,
    /// Instance growths performed by one full GSgrow run at `min_sup`.
    pub instance_growths: u64,
    /// Best-of-N wall time of that run (on a prepared snapshot, so the
    /// index build is *not* included).
    pub growth_seconds: f64,
    /// `instance_growths / growth_seconds`.
    pub growths_per_second: f64,
}

impl ColumnarWorkload {
    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\": {}, \"min_sup\": {}, \"pattern_cap\": {}, \
             \"index_build_seconds\": {:.6}, \
             \"store_bytes\": {}, \"index_bytes\": {}, \"bytes_per_event\": {:.3}, \
             \"bytes_per_instance\": {}, \"instance_growths\": {}, \
             \"growth_seconds\": {:.6}, \"growths_per_second\": {:.0}}}",
            escape(&self.dataset),
            self.min_sup,
            self.pattern_cap,
            self.index_build_seconds,
            self.store_bytes,
            self.index_bytes,
            self.bytes_per_event,
            self.bytes_per_instance,
            self.instance_growths,
            self.growth_seconds,
            self.growths_per_second,
        )
    }
}

/// The columnar-store benchmark report (`BENCH_columnar_store.json`).
#[derive(Debug, Clone)]
pub struct ColumnarStoreReport {
    /// Benchmark scale (dev/paper).
    pub scale: String,
    /// The PR 2 baseline file this report is compared against: its
    /// `sequential_seconds` is closed mining on the same Fig. 2 workload.
    pub baseline: String,
    /// Best-of-N closed-mining wall time on the Fig. 2 workload (directly
    /// comparable with the baseline's `sequential_seconds`).
    pub fig2_closed_seconds: f64,
    /// Per-workload storage measurements (Fig. 2, 5, 6).
    pub workloads: Vec<ColumnarWorkload>,
    /// The Fig. 3 Gazelle corpus at paper scale, whatever `scale` says —
    /// the corpus whose index a per-`(sequence, event)` layout blew up.
    pub gazelle_paper: PaperScaleRow,
}

/// Preparation cost and footprint of one corpus at paper scale.
#[derive(Debug, Clone)]
pub struct PaperScaleRow {
    /// Dataset description (name + stats summary).
    pub dataset: String,
    /// Best-of-N wall time of `PreparedDb::new` (index build, counts,
    /// event order).
    pub prepare_seconds: f64,
    /// Live bytes of the flat event store.
    pub store_bytes: usize,
    /// Live bytes of the inverted index (every column).
    pub index_bytes: usize,
    /// Events the index stores dense (one row per sequence).
    pub dense_events: usize,
    /// `(store_bytes + index_bytes) / total_length`.
    pub bytes_per_event: f64,
    /// `PreparedDb::heap_bytes` of the preparation.
    pub heap_bytes: usize,
}

impl PaperScaleRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\": {}, \"prepare_seconds\": {:.6}, \"store_bytes\": {}, \
             \"index_bytes\": {}, \"dense_events\": {}, \"bytes_per_event\": {:.3}, \
             \"heap_bytes\": {}}}",
            escape(&self.dataset),
            self.prepare_seconds,
            self.store_bytes,
            self.index_bytes,
            self.dense_events,
            self.bytes_per_event,
            self.heap_bytes,
        )
    }
}

/// Measures the preparation of the Fig. 3 Gazelle corpus at paper scale.
fn gazelle_paper_row(repeats: usize) -> PaperScaleRow {
    let (name, db) = datasets::fig3_dataset(Scale::Paper);
    let (prepare_seconds, prepared) = best_of(repeats, || PreparedDb::new(&db));
    let store_bytes = db.store().heap_bytes();
    let index = prepared.index();
    let index_bytes = index.heap_bytes();
    PaperScaleRow {
        dataset: format!("{name}: {}", db.stats().summary()),
        prepare_seconds,
        store_bytes,
        index_bytes,
        dense_events: index.dense_events(),
        bytes_per_event: (store_bytes + index_bytes) as f64 / db.total_length().max(1) as f64,
        heap_bytes: prepared.heap_bytes(),
    }
}

impl ColumnarStoreReport {
    /// Renders the report as a JSON object (hand-rolled, no serde).
    pub fn to_json(&self) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| format!("    {}", w.to_json()))
            .collect();
        format!(
            "{{\n  \"benchmark\": \"columnar_store\",\n  \"scale\": {},\n  \
             \"baseline\": {},\n  \"fig2_closed_seconds\": {:.6},\n  \
             \"workloads\": [\n{}\n  ],\n  \"gazelle_paper\": {}\n}}\n",
            escape(&self.scale),
            escape(&self.baseline),
            self.fig2_closed_seconds,
            workloads.join(",\n"),
            self.gazelle_paper.to_json(),
        )
    }
}

/// Pattern budget of the growth-throughput measurement (see
/// [`ColumnarWorkload::pattern_cap`]).
const GROWTH_PATTERN_CAP: usize = 50_000;

/// Measures one workload: index build time, byte footprints, and the
/// instance-growth throughput of a (pattern-capped) GSgrow run streamed
/// into a counting sink on a prepared snapshot — nothing is materialized.
fn columnar_workload(
    name: &str,
    db: &seqdb::SequenceDatabase,
    min_sup: u64,
    repeats: usize,
) -> ColumnarWorkload {
    let (index_build_seconds, index) = best_of(repeats, || db.inverted_index());
    let store_bytes = db.store().heap_bytes();
    let index_bytes = index.heap_bytes();
    let prepared = PreparedDb::new(db);
    let (growth_seconds, report) = best_of(repeats, || {
        let mut sink = CountSink::new();
        prepared
            .miner()
            .min_sup(min_sup)
            .mode(Mode::All)
            .max_patterns(GROWTH_PATTERN_CAP)
            .run_with_sink(&mut sink)
    });
    let instance_growths = report.stats.instance_growths;
    ColumnarWorkload {
        dataset: format!("{name}: {}", db.stats().summary()),
        min_sup,
        pattern_cap: GROWTH_PATTERN_CAP,
        index_build_seconds,
        store_bytes,
        index_bytes,
        bytes_per_event: (store_bytes + index_bytes) as f64 / db.total_length().max(1) as f64,
        bytes_per_instance: std::mem::size_of::<Instance>(),
        instance_growths,
        growth_seconds,
        growths_per_second: instance_growths as f64 / growth_seconds.max(1e-12),
    }
}

/// Runs the columnar-store benchmark on the Fig. 2/5/6 workloads.
pub fn run_columnar(scale: Scale, repeats: usize) -> ColumnarStoreReport {
    let mut workloads = Vec::new();

    let (fig2_name, fig2_db) = datasets::fig2_dataset(scale);
    let fig2_thresholds = datasets::fig2_thresholds(scale);
    let fig2_min_sup = fig2_thresholds[fig2_thresholds.len() - 1];
    workloads.push(columnar_workload(
        &fig2_name,
        &fig2_db,
        fig2_min_sup,
        repeats,
    ));

    let fig56_min_sup = datasets::fig5_fig6_threshold(scale);
    let (fig5_name, fig5_db) = datasets::fig5_largest(scale);
    workloads.push(columnar_workload(
        &fig5_name,
        &fig5_db,
        fig56_min_sup,
        repeats,
    ));
    let (fig6_name, fig6_db) = datasets::fig6_largest(scale);
    workloads.push(columnar_workload(
        &fig6_name,
        &fig6_db,
        fig56_min_sup,
        repeats,
    ));

    // Closed mining on Fig. 2 — the number directly comparable with the
    // PR 2 baseline's `sequential_seconds` in BENCH_prepared_engine.json.
    let prepared = PreparedDb::new(&fig2_db);
    let (fig2_closed_seconds, _) = best_of(repeats, || {
        prepared
            .miner()
            .min_sup(fig2_min_sup)
            .mode(Mode::Closed)
            .run()
    });

    ColumnarStoreReport {
        scale: format!("{scale:?}").to_lowercase(),
        baseline: "BENCH_prepared_engine.json (PR 2)".to_owned(),
        fig2_closed_seconds,
        workloads,
        gazelle_paper: gazelle_paper_row(repeats),
    }
}

/// Cold-start measurements of one Fig. 2/5/6 workload.
#[derive(Debug, Clone)]
pub struct SnapshotWorkload {
    /// Dataset description (name + stats summary).
    pub dataset: String,
    /// Support threshold of the round-trip mining check.
    pub min_sup: u64,
    /// Best-of-N wall time of a cold build from text: parse the token
    /// file, intern every label, flatten into the store, build the CSR
    /// index, and compute the per-event counts (what a service restart
    /// costs *without* snapshots).
    pub build_from_text_seconds: f64,
    /// Best-of-N wall time of one `PreparedDb::write_snapshot`.
    pub write_seconds: f64,
    /// Best-of-N wall time of one `PreparedDb::open_snapshot`: map the
    /// image, verify the checksum, reconstruct every arena zero-copy.
    pub open_snapshot_seconds: f64,
    /// `build_from_text_seconds / open_snapshot_seconds` — the cold-start
    /// win of shipping an image instead of text.
    pub cold_start_speedup: f64,
    /// Size of the image file on disk.
    pub snapshot_bytes: u64,
    /// `PreparedDb::heap_bytes` of the snapshotted arenas — the disk image
    /// is this plus header, section table, catalog, counts, and padding.
    pub heap_bytes: usize,
    /// Whether the open used `mmap` (zero-copy) or the buffered fallback.
    pub mmap: bool,
    /// Whether closed mining on the reopened snapshot was bit-identical to
    /// mining the in-memory preparation.
    pub roundtrip_identical: bool,
}

impl SnapshotWorkload {
    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\": {}, \"min_sup\": {}, \
             \"build_from_text_seconds\": {:.6}, \"write_seconds\": {:.6}, \
             \"open_snapshot_seconds\": {:.6}, \"cold_start_speedup\": {:.2}, \
             \"snapshot_bytes\": {}, \"heap_bytes\": {}, \"mmap\": {}, \
             \"roundtrip_identical\": {}}}",
            escape(&self.dataset),
            self.min_sup,
            self.build_from_text_seconds,
            self.write_seconds,
            self.open_snapshot_seconds,
            self.cold_start_speedup,
            self.snapshot_bytes,
            self.heap_bytes,
            self.mmap,
            self.roundtrip_identical,
        )
    }
}

/// The snapshot cold-start benchmark report (`BENCH_snapshot.json`).
#[derive(Debug, Clone)]
pub struct SnapshotReport {
    /// Benchmark scale (dev/paper).
    pub scale: String,
    /// Per-workload cold-start measurements (Fig. 2, 5, 6).
    pub workloads: Vec<SnapshotWorkload>,
}

impl SnapshotReport {
    /// Renders the report as a JSON object (hand-rolled, no serde).
    pub fn to_json(&self) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| format!("    {}", w.to_json()))
            .collect();
        format!(
            "{{\n  \"benchmark\": \"snapshot_cold_start\",\n  \"scale\": {},\n  \
             \"workloads\": [\n{}\n  ]\n}}\n",
            escape(&self.scale),
            workloads.join(",\n"),
        )
    }
}

/// Measures one workload's cold-start paths. Both temp files (the token
/// text and the image) are removed before returning.
fn snapshot_workload(
    name: &str,
    db: &seqdb::SequenceDatabase,
    min_sup: u64,
    repeats: usize,
) -> SnapshotWorkload {
    let dir = std::env::temp_dir();
    let tag = format!("rgs-snapbench-{}-{name}", std::process::id()).replace([' ', '/'], "-");
    let text_path = dir.join(format!("{tag}.tokens"));
    let image_path = dir.join(format!("{tag}.snap"));

    seqdb::io::write_tokens_file(db, &text_path).expect("write token file");
    let (build_from_text_seconds, prepared) = best_of(repeats, || {
        let db = seqdb::io::read_tokens_file(&text_path).expect("read token file");
        PreparedDb::from_database(db)
    });

    let (write_seconds, snapshot_bytes) = best_of(repeats, || {
        prepared
            .write_snapshot(&image_path)
            .expect("write snapshot")
    });
    let (open_snapshot_seconds, reopened) = best_of(repeats, || {
        PreparedDb::open_snapshot(&image_path).expect("open snapshot")
    });
    let mmap = seqdb::SnapshotImage::open(&image_path)
        .map(|image| image.is_mapped())
        .unwrap_or(false);

    // Closed mining explodes combinatorially at the Fig. 5/6 thresholds
    // (the columnar benchmark caps its growth runs for the same reason), so
    // the bit-identity check applies a uniform cap to both sides — the
    // compared prefixes are still exact.
    let fresh = prepared
        .miner()
        .min_sup(min_sup)
        .mode(Mode::Closed)
        .max_patterns(GROWTH_PATTERN_CAP)
        .run();
    let cold = reopened
        .miner()
        .min_sup(min_sup)
        .mode(Mode::Closed)
        .max_patterns(GROWTH_PATTERN_CAP)
        .run();
    let roundtrip_identical = fresh.patterns == cold.patterns;

    std::fs::remove_file(&text_path).ok();
    std::fs::remove_file(&image_path).ok();

    SnapshotWorkload {
        dataset: format!("{name}: {}", db.stats().summary()),
        min_sup,
        build_from_text_seconds,
        write_seconds,
        open_snapshot_seconds,
        cold_start_speedup: build_from_text_seconds / open_snapshot_seconds.max(1e-12),
        snapshot_bytes,
        heap_bytes: prepared.heap_bytes(),
        mmap,
        roundtrip_identical,
    }
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
    let sc = SupportComputer::new(db);
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
/// (directly comparable against the per-call-probe numbers in
/// `BENCH_columnar_store.json`) plus the avg-~200 / avg-~400 long-sequence
/// datasets and the skewed dense workload with the longest posting rows.
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
/// shared workload regressed by more than `max_regression` (0.3 = 30%).
///
/// The baseline is parsed with the same hand-rolled discipline the reports
/// are written with: the `"growths_per_second"` values in workload order.
/// Workloads beyond the baseline's count (or a baseline with no numbers at
/// all) are skipped rather than failed, so the check tolerates an older or
/// hand-edited file.
pub fn check_growth_floor(
    report: &GrowthKernelReport,
    baseline_json: &str,
    max_regression: f64,
) -> Result<(), String> {
    let baseline: Vec<f64> = baseline_json
        .match_indices("\"growths_per_second\":")
        .filter_map(|(at, key)| {
            let rest = baseline_json.get(at + key.len()..)?;
            let number: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
                .collect();
            number.parse().ok()
        })
        .collect();
    if baseline.is_empty() {
        return Err("baseline has no growths_per_second values".to_owned());
    }
    for (w, &floor_base) in report.workloads.iter().zip(&baseline) {
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

/// Runs the snapshot cold-start benchmark on the Fig. 2/5/6 workloads.
pub fn run_snapshot(scale: Scale, repeats: usize) -> SnapshotReport {
    let mut workloads = Vec::new();

    let (fig2_name, fig2_db) = datasets::fig2_dataset(scale);
    let fig2_thresholds = datasets::fig2_thresholds(scale);
    let fig2_min_sup = fig2_thresholds[fig2_thresholds.len() - 1];
    workloads.push(snapshot_workload(
        &fig2_name,
        &fig2_db,
        fig2_min_sup,
        repeats,
    ));

    let fig56_min_sup = datasets::fig5_fig6_threshold(scale);
    let (fig5_name, fig5_db) = datasets::fig5_largest(scale);
    workloads.push(snapshot_workload(
        &fig5_name,
        &fig5_db,
        fig56_min_sup,
        repeats,
    ));
    let (fig6_name, fig6_db) = datasets::fig6_largest(scale);
    workloads.push(snapshot_workload(
        &fig6_name,
        &fig6_db,
        fig56_min_sup,
        repeats,
    ));

    SnapshotReport {
        scale: format!("{scale:?}").to_lowercase(),
        workloads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_to_balanced_json() {
        let report = PreparedEngineReport {
            dataset: "toy \"quoted\"".into(),
            min_sup: 5,
            threads: 4,
            available_parallelism: 1,
            sequential_seconds: 1.0,
            parallel_seconds: 0.4,
            parallel_speedup: 2.5,
            parallel_output_identical: true,
            pipeline_dataset: "labeled toy".into(),
            sweep_min_sups: vec![2, 3],
            pipeline_fresh_seconds: 0.2,
            pipeline_prepared_seconds: 0.1,
            prepared_reuse_speedup: 2.0,
        };
        let json = report.to_json();
        assert!(json.contains("\"parallel_speedup\": 2.500"));
        assert!(json.contains("\"sweep_min_sups\": [2, 3]"));
        assert!(json.contains("\\\"quoted\\\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn best_of_returns_the_last_result_and_a_positive_time() {
        let (seconds, value) = best_of(3, || 42);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
    }

    #[test]
    fn columnar_report_serializes_to_balanced_json() {
        let report = ColumnarStoreReport {
            scale: "dev".into(),
            baseline: "BENCH_prepared_engine.json (PR 2)".into(),
            fig2_closed_seconds: 0.25,
            workloads: vec![ColumnarWorkload {
                dataset: "toy".into(),
                min_sup: 4,
                pattern_cap: 50_000,
                index_build_seconds: 0.001,
                store_bytes: 1024,
                index_bytes: 2048,
                bytes_per_event: 12.0,
                bytes_per_instance: 12,
                instance_growths: 5000,
                growth_seconds: 0.5,
                growths_per_second: 10_000.0,
            }],
            gazelle_paper: PaperScaleRow {
                dataset: "toy".into(),
                prepare_seconds: 0.01,
                store_bytes: 1024,
                index_bytes: 2048,
                dense_events: 0,
                bytes_per_event: 12.0,
                heap_bytes: 3072,
            },
        };
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"columnar_store\""));
        assert!(json.contains("\"bytes_per_instance\": 12"));
        assert!(json.contains("\"growths_per_second\": 10000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn snapshot_report_serializes_to_balanced_json() {
        let report = SnapshotReport {
            scale: "dev".into(),
            workloads: vec![SnapshotWorkload {
                dataset: "toy".into(),
                min_sup: 4,
                build_from_text_seconds: 0.2,
                write_seconds: 0.01,
                open_snapshot_seconds: 0.002,
                cold_start_speedup: 100.0,
                snapshot_bytes: 4096,
                heap_bytes: 3500,
                mmap: true,
                roundtrip_identical: true,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"snapshot_cold_start\""));
        assert!(json.contains("\"cold_start_speedup\": 100.00"));
        assert!(json.contains("\"roundtrip_identical\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn snapshot_workload_round_trips_a_small_database() {
        let db = seqdb::SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        let w = snapshot_workload("running example", &db, 2, 1);
        assert!(w.roundtrip_identical, "snapshot round trip diverged");
        assert!(w.snapshot_bytes as usize >= w.heap_bytes);
        assert!(w.build_from_text_seconds >= 0.0);
        assert!(w.open_snapshot_seconds >= 0.0);
        assert!(w.write_seconds >= 0.0);
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

    #[test]
    fn growth_floor_check_accepts_equal_and_rejects_regressed_numbers() {
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
        let same = report.to_json();
        assert!(check_growth_floor(&report, &same, 0.3).is_ok());
        // Baselines written with the retired forced-scalar column still
        // parse: only the `"growths_per_second"` values are read.
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
        // A baseline without numbers is an explicit error, not a pass.
        assert!(check_growth_floor(&report, "{}", 0.3).is_err());
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

    #[test]
    fn columnar_workload_measures_a_small_database() {
        let db = seqdb::SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        let w = columnar_workload("running example", &db, 2, 1);
        assert!(w.index_build_seconds >= 0.0);
        assert!(w.store_bytes > 0);
        assert!(w.index_bytes > 0);
        assert_eq!(
            w.bytes_per_instance,
            std::mem::size_of::<rgs_core::Instance>()
        );
        assert!(w.instance_growths > 0);
        assert!(w.growths_per_second > 0.0);
    }
}
