//! Engine-level benchmark binary: the growth-kernel and batch-engine
//! suites, each with its CI floor.
//!
//! ```text
//! prepared_bench [--scale dev|paper] [--repeats N]
//!                [--growth-out FILE] [--batch-out FILE]
//!                [--growth-floor BASELINE_FILE] [--batch-floor SPEEDUP]
//!                [--only growth|batch]
//! ```
//!
//! `--only` restricts the run to one suite (and its output file). The
//! growth suite (`BENCH_growth_kernel.json`) measures the growth kernel's
//! throughput on long-sequence workloads; `--growth-floor` compares the
//! fresh numbers against a committed baseline file, row by row by dataset
//! name, and fails the run when any workload regressed by more than 30% or
//! has no fresh row. The batch suite (`BENCH_batch.json`) mines
//! stepped-threshold request sweeps one-by-one vs in one shared DFS pass;
//! `--batch-floor 1.2` fails the run when any sweep's batched run is less
//! than 1.2x the one-by-one loop or its output diverges from it. Both files
//! land at the repository root by default. End-to-end numbers come from
//! the repository benchmark in `perfbench/`.

use std::path::PathBuf;
use std::process::ExitCode;

use rgs_bench::datasets::Scale;
use rgs_bench::prepared_bench;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Dev;
    let mut repeats = 3usize;
    let mut growth_out = PathBuf::from("BENCH_growth_kernel.json");
    let mut growth_floor: Option<PathBuf> = None;
    let mut batch_out = PathBuf::from("BENCH_batch.json");
    let mut batch_floor: Option<f64> = None;
    // Which suites to run: (growth, batch).
    let mut phases = (true, true);

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
            "--repeats" => match need_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => repeats = n,
                None => {
                    eprintln!("--repeats needs an integer");
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
                Some("growth") => phases = (true, false),
                Some("batch") => phases = (false, true),
                _ => {
                    eprintln!("--only needs growth|batch");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "prepared_bench [--scale dev|paper] [--repeats N] \
                     [--growth-out FILE] [--batch-out FILE] \
                     [--growth-floor BASELINE_FILE] [--batch-floor SPEEDUP] \
                     [--only growth|batch]"
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

    if phases.1 {
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
