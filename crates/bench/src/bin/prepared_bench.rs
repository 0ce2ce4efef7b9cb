//! Prepared-engine benchmark binary.
//!
//! Measures the parallel-mining speedup and the prepared-reuse speedup on
//! the features pipeline (`BENCH_prepared_engine.json`), the columnar
//! storage layer (`BENCH_columnar_store.json`), and the snapshot
//! cold-start paths — build-from-text vs open-snapshot latency, bytes on
//! disk vs arena bytes (`BENCH_snapshot.json`). All three files land at
//! the repository root by convention.
//!
//! ```text
//! prepared_bench [--scale dev|paper] [--threads N] [--repeats N]
//!                [--out FILE] [--columnar-out FILE] [--snapshot-out FILE]
//!                [--growth-out FILE] [--batch-out FILE]
//!                [--growth-floor BASELINE_FILE] [--batch-floor SPEEDUP]
//!                [--only prepared|columnar|snapshot|growth|batch]
//! ```
//!
//! `--only` restricts the run to one benchmark (and its output file) —
//! CI uses `--only snapshot` so its artifact job pays only for its own
//! suite. The growth suite (`BENCH_growth_kernel.json`) measures the growth
//! kernel's throughput on long-sequence workloads; `--growth-floor`
//! compares the fresh numbers against a committed baseline file and fails
//! the run when any workload regressed by more than 30%. The batch suite
//! (`BENCH_batch.json`) mines stepped-threshold request sweeps one-by-one
//! vs in one shared DFS pass; `--batch-floor 1.2` fails the run when any
//! sweep's batched run is less than 1.2x the one-by-one loop or its output
//! diverges from it.

use std::path::PathBuf;
use std::process::ExitCode;

use rgs_bench::datasets::Scale;
use rgs_bench::prepared_bench;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Dev;
    let mut threads = 4usize;
    let mut repeats = 3usize;
    let mut out = PathBuf::from("BENCH_prepared_engine.json");
    let mut columnar_out = PathBuf::from("BENCH_columnar_store.json");
    let mut snapshot_out = PathBuf::from("BENCH_snapshot.json");
    let mut growth_out = PathBuf::from("BENCH_growth_kernel.json");
    let mut growth_floor: Option<PathBuf> = None;
    let mut batch_out = PathBuf::from("BENCH_batch.json");
    let mut batch_floor: Option<f64> = None;
    // Which benchmarks to run:
    // (prepared, columnar, snapshot, growth, batch).
    let mut phases = (true, true, true, true, true);

    let mut i = 0;
    while i < args.len() {
        let need_value = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--scale" => match need_value(&mut i).as_deref().and_then(Scale::parse) {
                Some(s) => scale = s,
                None => {
                    eprintln!("--scale needs dev|paper");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match need_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => threads = n,
                None => {
                    eprintln!("--threads needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--repeats" => match need_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => repeats = n,
                None => {
                    eprintln!("--repeats needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match need_value(&mut i) {
                Some(path) => out = PathBuf::from(path),
                None => {
                    eprintln!("--out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--columnar-out" => match need_value(&mut i) {
                Some(path) => columnar_out = PathBuf::from(path),
                None => {
                    eprintln!("--columnar-out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--snapshot-out" => match need_value(&mut i) {
                Some(path) => snapshot_out = PathBuf::from(path),
                None => {
                    eprintln!("--snapshot-out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--growth-out" => match need_value(&mut i) {
                Some(path) => growth_out = PathBuf::from(path),
                None => {
                    eprintln!("--growth-out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--growth-floor" => match need_value(&mut i) {
                Some(path) => growth_floor = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--growth-floor needs a baseline file path");
                    return ExitCode::FAILURE;
                }
            },
            "--batch-out" => match need_value(&mut i) {
                Some(path) => batch_out = PathBuf::from(path),
                None => {
                    eprintln!("--batch-out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--batch-floor" => match need_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(speedup) => batch_floor = Some(speedup),
                None => {
                    eprintln!("--batch-floor needs a minimum speedup (e.g. 1.2)");
                    return ExitCode::FAILURE;
                }
            },
            "--only" => match need_value(&mut i).as_deref() {
                Some("prepared") => phases = (true, false, false, false, false),
                Some("columnar") => phases = (false, true, false, false, false),
                Some("snapshot") => phases = (false, false, true, false, false),
                Some("growth") => phases = (false, false, false, true, false),
                Some("batch") => phases = (false, false, false, false, true),
                _ => {
                    eprintln!("--only needs prepared|columnar|snapshot|growth|batch");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "prepared_bench [--scale dev|paper] [--threads N] \
                     [--repeats N] [--out FILE] [--columnar-out FILE] \
                     [--snapshot-out FILE] [--growth-out FILE] \
                     [--batch-out FILE] [--growth-floor BASELINE_FILE] \
                     [--batch-floor SPEEDUP] \
                     [--only prepared|columnar|snapshot|growth|batch]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    if phases.0 {
        let report = prepared_bench::run(scale, threads, repeats);
        let json = report.to_json();
        println!("{json}");
        println!(
            "# parallel speedup: {:.2}x ({} threads, identical output: {}); \
             prepared-reuse speedup on the pipeline sweep: {:.2}x",
            report.parallel_speedup,
            report.threads,
            report.parallel_output_identical,
            report.prepared_reuse_speedup,
        );
        if let Err(err) = std::fs::write(&out, &json) {
            eprintln!("error: cannot write {}: {err}", out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("# written to {}", out.display());
    }

    if phases.1 {
        // Storage-layer measurements of the columnar refactor (index build
        // time, byte footprints, instance-growth throughput on Fig. 2/5/6).
        let columnar = prepared_bench::run_columnar(scale, repeats);
        let columnar_json = columnar.to_json();
        println!("{columnar_json}");
        for w in &columnar.workloads {
            println!(
                "# {}: {:.0} growths/s, index build {:.4}s, {:.1} B/event",
                w.dataset, w.growths_per_second, w.index_build_seconds, w.bytes_per_event
            );
        }
        if let Err(err) = std::fs::write(&columnar_out, &columnar_json) {
            eprintln!("error: cannot write {}: {err}", columnar_out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("# written to {}", columnar_out.display());
    }

    if phases.2 {
        // Snapshot cold starts: build-from-text vs open-snapshot on the same
        // workloads, plus bytes on disk vs arena bytes and the bit-identical
        // round-trip check.
        let snapshot = prepared_bench::run_snapshot(scale, repeats);
        let snapshot_json = snapshot.to_json();
        println!("{snapshot_json}");
        for w in &snapshot.workloads {
            println!(
                "# {}: cold open {:.2}x faster than rebuild ({:.4}s vs {:.4}s), \
                 {} bytes on disk, identical output: {}",
                w.dataset,
                w.cold_start_speedup,
                w.open_snapshot_seconds,
                w.build_from_text_seconds,
                w.snapshot_bytes,
                w.roundtrip_identical,
            );
        }
        if let Err(err) = std::fs::write(&snapshot_out, &snapshot_json) {
            eprintln!("error: cannot write {}: {err}", snapshot_out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("# written to {}", snapshot_out.display());
    }

    if phases.3 {
        // Growth kernel: instance-growth throughput on the
        // avg-~103/~200/~400 workloads plus the narrow-column byte savings,
        // with an optional regression floor against a committed baseline.
        let growth = prepared_bench::run_growth_kernel(scale, repeats);
        let growth_json = growth.to_json();
        println!("{growth_json}");
        for w in &growth.workloads {
            let saved = w.store_bytes_wide.saturating_sub(w.store_bytes);
            println!(
                "# {}: {:.0} growths/s, {}-byte events, {} store bytes \
                 ({} saved vs wide)",
                w.dataset, w.growths_per_second, w.event_elem_bytes, w.store_bytes, saved,
            );
        }
        if let Some(baseline_path) = &growth_floor {
            match std::fs::read_to_string(baseline_path) {
                Ok(baseline) => {
                    if let Err(err) = prepared_bench::check_growth_floor(&growth, &baseline, 0.30) {
                        eprintln!("error: growth-throughput floor violated: {err}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!(
                        "# growth floor OK against {} (max regression 30%)",
                        baseline_path.display()
                    );
                }
                Err(err) => {
                    eprintln!("error: cannot read {}: {err}", baseline_path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Err(err) = std::fs::write(&growth_out, &growth_json) {
            eprintln!("error: cannot write {}: {err}", growth_out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("# written to {}", growth_out.display());
    }

    if phases.4 {
        // Batch engine: stepped-threshold request sweeps mined one-by-one
        // vs in one shared DFS pass, with the bit-identity verdict and an
        // optional minimum-speedup floor.
        let batch = prepared_bench::run_batch(scale, repeats);
        let batch_json = batch.to_json();
        println!("{batch_json}");
        for w in &batch.workloads {
            println!(
                "# {}: {} requests batched {:.2}x faster than one-by-one \
                 ({:.4}s vs {:.4}s), identical output: {}",
                w.dataset,
                w.requests,
                w.batch_speedup,
                w.batched_seconds,
                w.one_by_one_seconds,
                w.output_identical,
            );
        }
        if let Some(min_speedup) = batch_floor {
            if let Err(err) = prepared_bench::check_batch_floor(&batch, min_speedup) {
                eprintln!("error: batch-speedup floor violated: {err}");
                return ExitCode::FAILURE;
            }
            eprintln!("# batch floor OK (every sweep >= {min_speedup:.2}x, bit-identical)");
        }
        if let Err(err) = std::fs::write(&batch_out, &batch_json) {
            eprintln!("error: cannot write {}: {err}", batch_out.display());
            return ExitCode::FAILURE;
        }
        eprintln!("# written to {}", batch_out.display());
    }
    ExitCode::SUCCESS
}
