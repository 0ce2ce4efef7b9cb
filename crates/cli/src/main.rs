//! `rgs-mine` — command-line miner for (closed) repetitive gapped
//! subsequences, built on the unified `Miner` engine.
//!
//! ```text
//! rgs-mine [mine] --input FILE|--snapshot IMG [--format tokens|spmf|chars|json]
//!          --min-sup K
//!          [--mode all|closed|maximal|top-k] [--closed] [--all] [--maximal-mode]
//!          [--min-gap G] [--max-gap G] [--max-window W]
//!          [--top-k K] [--min-len L] [--max-len L] [--max-patterns N]
//!          [--threads N] [--top T] [--density R] [--maximal] [--stream]
//! rgs-mine topk  --input FILE|--snapshot IMG -k K [--min-sup FLOOR] [...]
//! rgs-mine batch --input FILE|--snapshot IMG --requests FILE [--top T]
//! rgs-mine stats --input FILE|--snapshot IMG [--format tokens|spmf|chars]
//! rgs-mine snapshot build --input FILE [--format ...] --out IMG
//! rgs-mine snapshot info  --snapshot IMG
//! rgs-mine snapshot verify --snapshot IMG
//! rgs-mine demo  [--min-sup K] [--mode ...]
//! ```
//!
//! The `stats` subcommand prints the dataset summary (rows, events,
//! alphabet size, lengths) together with the byte footprint of the
//! columnar store and the CSR inverted index, so store-size regressions are
//! visible without a profiler. The `topk` subcommand ranks the best `k`
//! closed patterns and composes with the gap/window constraint flags —
//! gap-constrained top-k mining from the command line. The query flags
//! write into one `MiningRequest`, and `--mode` reads its value with the
//! request-body reader's [`parse_mode`], so `--mode top-k` means what
//! `"mode": "top-k"` means. `--stream` prints patterns incrementally through a
//! `PatternSink` instead of materializing the result first. `--threads N`
//! mines on N worker threads (bit-identical output), and `--format json`
//! switches the output to a JSON document containing the `MiningReport`
//! and the reported patterns.
//!
//! The `batch` subcommand mines many requests in **one** shared DFS pass
//! over the prepared snapshot ([`PreparedDb::batch_with_deadlines`]): the
//! request file holds one JSON object per line in the same shape as a
//! `POST /mine` body (`{"min_sup": 3, "mode": "closed", "max_gap": 2}`;
//! blank lines and `#` comments are skipped), and each request's answer is
//! bit-identical to running it alone. A per-line `timeout_ms` becomes that
//! member's private deadline — an expired member comes back truncated
//! without affecting its siblings.
//!
//! `snapshot build` interns a corpus once and serializes its store and
//! catalog into a single image file; `--snapshot IMG` then serves any
//! mining/stats invocation straight from that image — the file is
//! `mmap`ed and validated, nothing is re-tokenized, and the index is built
//! from the mapped store. `snapshot info` prints the image's header and
//! the sizes of its three regions after validating it, and `snapshot
//! verify` statically proves every invariant of the image — CSR
//! monotonicity, the alphabet bound, catalog bijectivity, checksum —
//! without constructing a database, reporting each violation with its
//! region and byte offset.

// Flag values convert with `TryFrom` (`parse_num`): an `as` cast would
// wrap an out-of-range value without a trace.
#![warn(clippy::as_conversions)]

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::process::ExitCode;

use rgs_core::{
    canonical_key, json, parse_mode, parse_request_body, postprocess, sort_patterns_for_report,
    CollectSink, ExecutionPolicy, MinedPattern, Miner, MiningRequest, Mode, PostProcessConfig,
    PreparedDb, RequestBody, DEFAULT_TOP_K,
};
use seqdb::snapshot::verify;
use seqdb::{io as seqio, SequenceDatabase};

/// Parsed command-line options.
#[derive(Debug, Clone)]
struct Options {
    input: Option<PathBuf>,
    /// Mine/stat straight from a snapshot image instead of a text file.
    snapshot: Option<PathBuf>,
    /// Output path of `snapshot build`.
    out: Option<PathBuf>,
    /// Which `snapshot` subcommand ran, if any.
    snapshot_cmd: Option<SnapshotCmd>,
    /// Whether the `batch` subcommand ran.
    batch: bool,
    /// Request file of the `batch` subcommand (one JSON object per line).
    requests: Option<PathBuf>,
    format: Format,
    /// The query the mining flags write into.
    request: MiningRequest,
    top: usize,
    density: Option<f64>,
    maximal_filter: bool,
    stream: bool,
    json_output: bool,
    demo: bool,
    stats_only: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Tokens,
    Spmf,
    Chars,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SnapshotCmd {
    Build,
    Info,
    Verify,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            input: None,
            snapshot: None,
            out: None,
            snapshot_cmd: None,
            batch: false,
            requests: None,
            format: Format::Tokens,
            request: MiningRequest::default(),
            top: 20,
            density: None,
            maximal_filter: false,
            stream: false,
            json_output: false,
            demo: false,
            stats_only: false,
        }
    }
}

impl Options {
    /// A miner over `prepared` running these options' request.
    fn miner(&self, prepared: &PreparedDb) -> Miner {
        prepared.miner().with_request(self.request.clone())
    }

    fn mode_label(&self) -> String {
        let base = match self.request.mode {
            Mode::All => "frequent",
            Mode::Closed => "closed",
            Mode::Maximal => "maximal",
        };
        match self.request.top_k {
            Some(k) => format!("top-{k} {base}"),
            None => base.to_owned(),
        }
    }
}

/// Loads the mining source as one prepared snapshot: a `--snapshot` image
/// (its index is built at open), or the text corpus of [`load_text`]
/// prepared in place, without a copy.
fn load_source(options: &Options) -> Result<PreparedDb, ExitCode> {
    let Some(path) = &options.snapshot else {
        return load_text(options).map(PreparedDb::from_database);
    };
    PreparedDb::open_snapshot(path).map_err(|err| {
        eprintln!("error: cannot open snapshot {}: {err}", path.display());
        ExitCode::FAILURE
    })
}

/// Reads the `--input` text file, or the built-in demo database (Table III
/// of the paper).
fn load_text(options: &Options) -> Result<SequenceDatabase, ExitCode> {
    if options.demo {
        // The running example of the paper (Table III).
        return Ok(SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]));
    }
    let Some(path) = &options.input else {
        eprintln!("error: --input FILE, --snapshot IMG, or the demo subcommand is required");
        eprint!("{}", usage());
        return Err(ExitCode::FAILURE);
    };
    let loaded = match options.format {
        Format::Tokens => seqio::read_tokens_file(path),
        Format::Spmf => seqio::read_spmf_file(path),
        Format::Chars => seqio::read_chars_file(path),
    };
    loaded.map_err(|err| {
        eprintln!("error: cannot read {}: {err}", path.display());
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };

    match options.snapshot_cmd {
        Some(SnapshotCmd::Build) => return run_snapshot_build(&options),
        Some(SnapshotCmd::Info) => return run_snapshot_info(&options),
        Some(SnapshotCmd::Verify) => return run_snapshot_verify(&options),
        None => {}
    }

    let prepared = match load_source(&options) {
        Ok(prepared) => prepared,
        Err(code) => return code,
    };

    if options.stats_only {
        return run_stats(&prepared);
    }
    if options.batch {
        return run_batch(&prepared, &options);
    }

    let db = prepared.database();
    eprintln!("# dataset: {}", db.stats().summary());
    let constraints = options.request.constraints;
    if !constraints.is_unbounded() {
        eprintln!("# constraints: {}", constraints.describe());
    }

    if options.json_output {
        return run_json(&prepared, &options);
    }
    if options.stream {
        return run_streaming(&prepared, &options);
    }

    let mut outcome = options.miner(&prepared).run();
    eprintln!(
        "# {} {} patterns mined in {:.3}s (visited {} nodes{})",
        outcome.len(),
        options.mode_label(),
        outcome.stats.elapsed_seconds,
        outcome.stats.visited,
        if outcome.truncated { ", TRUNCATED" } else { "" },
    );

    let patterns = if options.density.is_some() || options.maximal_filter {
        let pp = PostProcessConfig {
            min_density: options.density.unwrap_or(0.0),
            maximal_only: options.maximal_filter,
            rank_by_length: true,
        };
        postprocess(&outcome.patterns, &pp)
    } else {
        outcome.sort_for_report();
        outcome.patterns.clone()
    };

    for mined in patterns.iter().take(options.top) {
        print_pattern(db, mined);
    }
    ExitCode::SUCCESS
}

/// `snapshot build`: intern the input once and serialize its store and
/// catalog into one image file (no index is built).
fn run_snapshot_build(options: &Options) -> ExitCode {
    // parse_args is the single validation point for required flags.
    let out = options.out.as_ref().expect("parse_args enforced --out");
    let db = match load_text(options) {
        Ok(db) => db,
        Err(code) => return code,
    };
    match seqdb::snapshot::write_prepared(out, &db) {
        Ok(bytes) => {
            eprintln!("# dataset: {}", db.stats().summary());
            println!(
                "written {}: {bytes} bytes on disk ({} bytes of store + header/catalog)",
                out.display(),
                db.store().heap_bytes(),
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: cannot write {}: {err}", out.display());
            ExitCode::FAILURE
        }
    }
}

/// `snapshot info`: run every check of `snapshot verify` on an image and
/// print its decoded header and the sizes of its three regions, without
/// reconstructing the database.
fn run_snapshot_info(options: &Options) -> ExitCode {
    // parse_args is the single validation point for required flags.
    let path = options
        .snapshot
        .as_ref()
        .expect("parse_args enforced --snapshot");
    let checked = std::fs::read(path)
        .map_err(seqdb::SnapshotError::from)
        .and_then(|bytes| verify::check(&bytes));
    let (header, regions) = match checked {
        Ok(checked) => checked,
        Err(err) => {
            eprintln!("error: cannot open snapshot {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    };
    println!("snapshot:  {}", path.display());
    println!("size:      {} bytes", header.file_len);
    println!("version:   {}", header.version);
    println!("checksum:  {:#018x}", header.checksum);
    println!(
        "contents:  {} sequences, {} events, {} total length",
        header.num_sequences, header.num_events, header.total_length
    );
    let (width, note) = match header.width {
        2 => ("u16 (narrow)", " — half the wide arena's bytes"),
        _ => ("u32 (wide)", ""),
    };
    println!("events:    {width} elements{note}");
    println!("regions:   (name, offset, bytes)");
    for (name, range) in [
        ("header", 0..regions.offsets.start),
        ("store.offsets", regions.offsets),
        ("store.events", regions.events),
        ("catalog", regions.catalog),
    ] {
        println!(
            "  {name:14} @{:>10} {:>12} bytes",
            range.start,
            range.end - range.start
        );
    }
    ExitCode::SUCCESS
}

/// `snapshot verify`: statically prove every invariant of an image on the
/// raw bytes — no `PreparedDb` is constructed — and report each violation
/// with its region and absolute byte offset. Exit code 0 iff the
/// image is clean.
fn run_snapshot_verify(options: &Options) -> ExitCode {
    // parse_args is the single validation point for required flags.
    let path = options
        .snapshot
        .as_ref()
        .expect("parse_args enforced --snapshot");
    let report = match verify::verify_file(path) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: cannot read snapshot {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    };
    println!("snapshot:  {}", path.display());
    if let Some(version) = report.version {
        println!("version:   {version}");
    }
    println!("size:      {} bytes", report.file_len);
    if report.is_clean() {
        println!("verify:    OK — structure, checksum, and layout invariants all hold");
        return ExitCode::SUCCESS;
    }
    for violation in &report.violations {
        println!("  {violation}");
    }
    let n = report.violations.len();
    if report.checksum_broken_only() {
        println!("verify:    FAILED — checksum mismatch with intact regions (bit rot)");
    } else {
        println!(
            "verify:    FAILED — {n} invariant violation{}",
            if n == 1 { "" } else { "s" }
        );
    }
    ExitCode::FAILURE
}

/// Parses a whole `batch` request file: one JSON object per line in the
/// `POST /mine` body shape of `rgs-serve` (read by the same
/// [`parse_request_body`]), blank lines and `#` comments skipped, errors
/// prefixed with the line number.
fn parse_batch_file(text: &str) -> Result<Vec<RequestBody>, String> {
    let mut lines = Vec::new();
    for (at, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parsed = parse_request_body(line).map_err(|err| format!("line {}: {err}", at + 1))?;
        lines.push(parsed);
    }
    if lines.is_empty() {
        return Err("request file holds no requests".to_owned());
    }
    Ok(lines)
}

/// `batch` subcommand: mine every request of the file in **one** shared
/// DFS pass over the prepared source, then print each member's
/// solo-identical answer.
fn run_batch(prepared: &PreparedDb, options: &Options) -> ExitCode {
    // parse_args is the single validation point for required flags.
    let path = options
        .requests
        .as_ref()
        .expect("parse_args enforced --requests");
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("error: cannot read {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let lines = match parse_batch_file(&text) {
        Ok(lines) => lines,
        Err(err) => {
            eprintln!("error: {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    };

    let requests: Vec<MiningRequest> = lines.iter().map(|l| l.request.clone()).collect();
    let deadlines: Vec<Option<std::time::Instant>> = lines
        .iter()
        .map(|l| {
            l.timeout_ms
                .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms))
        })
        .collect();
    let results = prepared.batch_with_deadlines(&requests, &deadlines);

    let db = prepared.database();
    if options.json_output {
        let mut out = String::from("{\n  \"batch\": [\n");
        for (i, (request, result)) in requests.iter().zip(&results).enumerate() {
            out.push_str(&format!(
                "    {{\"request\": {}, \"count\": {}, \"truncated\": {}, \
                 \"deadline_exceeded\": {}, \"patterns\": [",
                json::escape(&canonical_key(request)),
                result.outcome.len(),
                result.outcome.truncated,
                result.cancelled,
            ));
            for (j, mined) in result.outcome.patterns.iter().take(options.top).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"pattern\": {}, \"support\": {}, \"len\": {}}}",
                    json::escape(&mined.pattern.render_with(db.catalog(), " ")),
                    mined.support,
                    mined.pattern.len(),
                ));
            }
            out.push_str(&format!(
                "]}}{}\n",
                if i + 1 < requests.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}");
        println!("{out}");
        return ExitCode::SUCCESS;
    }

    eprintln!(
        "# {} requests mined in one shared pass over {}",
        requests.len(),
        db.stats().summary()
    );
    for (i, (request, result)) in requests.iter().zip(&results).enumerate() {
        println!(
            "## request {}/{}: {} -> {} patterns{}{}",
            i + 1,
            requests.len(),
            canonical_key(request),
            result.outcome.len(),
            if result.outcome.truncated {
                ", TRUNCATED"
            } else {
                ""
            },
            if result.cancelled {
                ", DEADLINE EXCEEDED"
            } else {
                ""
            },
        );
        for mined in result.outcome.patterns.iter().take(options.top) {
            print_pattern(db, mined);
        }
    }
    ExitCode::SUCCESS
}

/// `stats` subcommand: dataset summary plus the byte footprint of the
/// columnar layers (flat event store, CSR inverted index), so store-size
/// regressions show up in plain numbers instead of a profiler. With
/// `--snapshot` the store is mapped from the image; either way the index
/// is the one built when the source was prepared.
fn run_stats(prepared: &PreparedDb) -> ExitCode {
    let stats = prepared.database().stats();
    let index_bytes = prepared.index().heap_bytes();
    println!("sequences:             {}", stats.num_sequences);
    println!("events (alphabet):     {}", stats.num_events);
    println!("total length:          {}", stats.total_length);
    println!(
        "sequence length:       min {} / avg {:.2} / median {:.1} / max {}",
        stats.min_length, stats.avg_length, stats.median_length, stats.max_length
    );
    println!("max event occurrences: {}", stats.max_event_occurrences);
    println!("avg event occurrences: {:.2}", stats.avg_event_occurrences);
    println!(
        "event element width:   {} bytes ({})",
        stats.event_elem_bytes,
        if stats.event_elem_bytes == 2 {
            "narrow u16 — alphabet fits 65536 ids"
        } else {
            "wide u32"
        }
    );
    println!("store bytes (CSR):     {}", stats.store_bytes);
    if stats.store_bytes_wide > stats.store_bytes {
        println!(
            "  narrow saving:       {} bytes vs a wide (u32) arena ({})",
            stats.store_bytes_wide - stats.store_bytes,
            stats.store_bytes_wide,
        );
    }
    println!("index bytes (CSR):     {index_bytes}");
    if stats.total_length > 0 {
        #[allow(
            clippy::as_conversions,
            reason = "a printed ratio of byte counts; rounding to f64 is harmless"
        )]
        let (store, index) = (
            stats.store_bytes as f64 / stats.total_length as f64,
            index_bytes as f64 / stats.total_length as f64,
        );
        println!("bytes per event:       {store:.2} store + {index:.2} index");
    }
    // The vector extensions this build targets, so throughput reports
    // always name the build they ran on.
    println!(
        "cpu features:          {}",
        seqdb::simd::detected_features()
    );
    ExitCode::SUCCESS
}

/// `--format json`: one JSON document with the `MiningReport` (search
/// statistics, truncation/cancellation flags) and the reported patterns,
/// serialized with the workspace's hand-rolled JSON writer. The `--top`,
/// `--density` and `--maximal` report filters apply as in text mode.
fn run_json(prepared: &PreparedDb, options: &Options) -> ExitCode {
    let db = prepared.database();
    let mut collect = CollectSink::new();
    let report = options.miner(prepared).run_with_sink(&mut collect);
    let mut patterns = collect.into_patterns();
    if options.density.is_some() || options.maximal_filter {
        let pp = PostProcessConfig {
            min_density: options.density.unwrap_or(0.0),
            maximal_only: options.maximal_filter,
            rank_by_length: true,
        };
        patterns = postprocess(&patterns, &pp);
    } else {
        sort_patterns_for_report(&mut patterns);
    }
    patterns.truncate(options.top);

    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"mode\": {},\n",
        json::escape(&options.mode_label())
    ));
    out.push_str(&format!("  \"report\": {},\n", report.to_json()));
    out.push_str("  \"patterns\": [\n");
    for (i, mined) in patterns.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"pattern\": {}, \"support\": {}, \"len\": {}}}{}\n",
            json::escape(&mined.pattern.render_with(db.catalog(), " ")),
            mined.support,
            mined.pattern.len(),
            if i + 1 < patterns.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}");
    println!("{out}");
    ExitCode::SUCCESS
}

/// `--stream`: patterns are printed the moment the engine finds them,
/// bounded by `--top` through sink cancellation.
fn run_streaming(prepared: &PreparedDb, options: &Options) -> ExitCode {
    let db = prepared.database();
    let limit = options.top;
    if limit == 0 {
        eprintln!("# streamed 0 {} patterns (--top 0)", options.mode_label());
        return ExitCode::SUCCESS;
    }
    let mut printed = 0usize;
    let report = options
        .miner(prepared)
        .run_with_sink(&mut |mined: MinedPattern| {
            if printed >= limit {
                return ControlFlow::Break(());
            }
            print_pattern(db, &mined);
            printed += 1;
            if printed >= limit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
    eprintln!(
        "# streamed {} {} patterns in {:.3}s (visited {} nodes{}{})",
        report.emitted,
        options.mode_label(),
        report.stats.elapsed_seconds,
        report.stats.visited,
        if report.truncated { ", TRUNCATED" } else { "" },
        if report.cancelled {
            ", cancelled at --top limit"
        } else {
            ""
        },
    );
    ExitCode::SUCCESS
}

fn print_pattern(db: &SequenceDatabase, mined: &MinedPattern) {
    println!(
        "{}\tsup={}\tlen={}",
        mined.pattern.render_with(db.catalog(), " "),
        mined.support,
        mined.pattern.len()
    );
}

/// Parses a numeric flag value into `T`; a value out of `T`'s range is an
/// error, as in a request body, never a silent wrap.
fn parse_num<T: TryFrom<u64>>(value: &str, what: &str) -> Result<T, String> {
    let n: u64 = value
        .parse()
        .map_err(|_| format!("{what} must be an integer"))?;
    T::try_from(n).map_err(|_| format!("{what} exceeds the {} range", std::any::type_name::<T>()))
}

/// The flags that describe one mining query or shape its report. `batch`
/// reads its queries from `--requests`, and `stats` and `snapshot` mine
/// nothing, so they reject these by name, as the request reader rejects an
/// unknown field.
const QUERY_FLAGS: [&str; 19] = [
    "--min-sup",
    "-s",
    "--mode",
    "--closed",
    "--all",
    "--maximal-mode",
    "--top-k",
    "-k",
    "--min-len",
    "--min-gap",
    "--max-gap",
    "--max-window",
    "--max-len",
    "--max-patterns",
    "--threads",
    "-j",
    "--density",
    "--maximal",
    "--stream",
];

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut options = Options::default();
    let mut explicit_all = false;
    let mut explicit_closed = false;
    // Whether the last mode flag was `--mode top-k`: an unset `top_k` then
    // becomes `DEFAULT_TOP_K`.
    let mut ranked = false;
    // The first query flag seen, for the subcommands that take none.
    let mut query_flag = None;
    let mut i = 0;

    // Optional leading subcommand.
    match args.first().map(String::as_str) {
        Some("mine") => i = 1,
        Some("snapshot") => {
            options.snapshot_cmd = match args.get(1).map(String::as_str) {
                Some("build") => Some(SnapshotCmd::Build),
                Some("info") => Some(SnapshotCmd::Info),
                Some("verify") => Some(SnapshotCmd::Verify),
                other => {
                    return Err(format!(
                        "snapshot needs a build|info|verify subcommand, got {:?}",
                        other.unwrap_or("nothing")
                    ))
                }
            };
            i = 2;
        }
        Some("topk") => {
            options.request.top_k = Some(DEFAULT_TOP_K);
            options.request.min_len = 2;
            options.request.min_sup = 1;
            i = 1;
        }
        Some("batch") => {
            // The request file carries the query parameters; the remaining
            // flags only select the data source and output shaping.
            options.batch = true;
            i = 1;
        }
        Some("stats") => {
            options.stats_only = true;
            i = 1;
        }
        Some("demo") => {
            options.demo = true;
            i = 1;
        }
        _ => {}
    }

    while i < args.len() {
        let arg = args[i].clone();
        let next_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        if query_flag.is_none() && QUERY_FLAGS.contains(&arg.as_str()) {
            query_flag = Some(arg.clone());
        }
        let request = &mut options.request;
        match args[i].as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return Ok(None);
            }
            "--input" | "-i" => options.input = Some(PathBuf::from(next_value(&mut i)?)),
            "--snapshot" => options.snapshot = Some(PathBuf::from(next_value(&mut i)?)),
            "--requests" => options.requests = Some(PathBuf::from(next_value(&mut i)?)),
            "--out" | "-o" => options.out = Some(PathBuf::from(next_value(&mut i)?)),
            "--format" | "-f" => match next_value(&mut i)?.as_str() {
                "tokens" => options.format = Format::Tokens,
                "spmf" => options.format = Format::Spmf,
                "chars" => options.format = Format::Chars,
                // Output selector: serialize the MiningReport and the
                // patterns as one JSON document.
                "json" => options.json_output = true,
                other => return Err(format!("unknown format '{other}'")),
            },
            "--min-sup" | "-s" => request.min_sup = parse_num(&next_value(&mut i)?, "min-sup")?,
            "--mode" => (request.mode, ranked) = parse_mode(&next_value(&mut i)?)?,
            "--closed" => {
                (request.mode, ranked) = (Mode::Closed, false);
                explicit_closed = true;
            }
            "--all" => {
                (request.mode, ranked) = (Mode::All, false);
                explicit_all = true;
            }
            "--maximal-mode" => (request.mode, ranked) = (Mode::Maximal, false),
            "--top-k" | "-k" => request.top_k = Some(parse_num(&next_value(&mut i)?, "top-k")?),
            "--min-len" => request.min_len = parse_num(&next_value(&mut i)?, "min-len")?,
            "--min-gap" => {
                request.constraints.min_gap = parse_num(&next_value(&mut i)?, "min-gap")?;
            }
            "--max-gap" => {
                request.constraints.max_gap = Some(parse_num(&next_value(&mut i)?, "max-gap")?);
            }
            "--max-window" => {
                request.constraints.max_window =
                    Some(parse_num(&next_value(&mut i)?, "max-window")?);
            }
            "--max-len" => {
                request.max_pattern_length = Some(parse_num(&next_value(&mut i)?, "max-len")?);
            }
            "--max-patterns" => {
                request.max_patterns = Some(parse_num(&next_value(&mut i)?, "max-patterns")?);
            }
            "--threads" | "-j" => {
                request.execution = match parse_num(&next_value(&mut i)?, "threads")? {
                    0 | 1 => ExecutionPolicy::Sequential,
                    threads => ExecutionPolicy::Parallel { threads },
                };
            }
            "--top" => options.top = parse_num(&next_value(&mut i)?, "top")?,
            "--density" => {
                options.density = Some(
                    next_value(&mut i)?
                        .parse()
                        .map_err(|_| "density must be a number".to_owned())?,
                );
            }
            "--maximal" => options.maximal_filter = true,
            "--stream" => options.stream = true,
            "--stats" => options.stats_only = true,
            "--demo" => options.demo = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    let runs_no_query = if options.batch {
        Some("batch, which reads its queries from --requests")
    } else if options.stats_only {
        Some("stats, which mines nothing")
    } else {
        options
            .snapshot_cmd
            .map(|_| "snapshot, which mines nothing")
    };
    if let (Some(flag), Some(command)) = (query_flag, runs_no_query) {
        return Err(format!("{flag} does not apply to {command}"));
    }
    if ranked {
        options.request.top_k = options.request.top_k.or(Some(DEFAULT_TOP_K));
    }
    if explicit_all && explicit_closed {
        return Err("--all and --closed are mutually exclusive".to_owned());
    }
    if options.snapshot.is_some() && options.input.is_some() {
        return Err("--input and --snapshot are mutually exclusive".to_owned());
    }
    if options.batch && options.requests.is_none() {
        return Err("batch needs --requests FILE (one JSON request per line)".to_owned());
    }
    if options.requests.is_some() && !options.batch {
        return Err("--requests only applies to the batch subcommand".to_owned());
    }
    if options.snapshot_cmd == Some(SnapshotCmd::Build) && options.out.is_none() {
        return Err("snapshot build needs --out IMG".to_owned());
    }
    if options.snapshot_cmd == Some(SnapshotCmd::Build) && options.snapshot.is_some() {
        return Err("snapshot build reads --input FILE, not --snapshot".to_owned());
    }
    if options.snapshot_cmd == Some(SnapshotCmd::Info) && options.snapshot.is_none() {
        return Err("snapshot info needs --snapshot IMG".to_owned());
    }
    if options.snapshot_cmd == Some(SnapshotCmd::Verify) && options.snapshot.is_none() {
        return Err("snapshot verify needs --snapshot IMG".to_owned());
    }
    if options.stream && options.json_output {
        return Err(
            "--stream and --format json are mutually exclusive (JSON output \
                    materializes the full report)"
                .to_owned(),
        );
    }
    if options.stream && (options.density.is_some() || options.maximal_filter) {
        return Err(
            "--stream prints each pattern as it is found, so --density and \
             --maximal, which filter the full result, do not apply"
                .to_owned(),
        );
    }
    Ok(Some(options))
}

/// The usage text: printed to stdout for `--help` and to stderr after a
/// parse error.
fn usage() -> String {
    format!(
        "\
rgs-mine: mine (closed) repetitive gapped subsequences

usage:
  rgs-mine [mine] --input FILE|--snapshot IMG [--format tokens|spmf|chars|json]
           --min-sup K
           [--mode all|closed|maximal|top-k] [--closed|--all|--maximal-mode]
           [--min-gap G] [--max-gap G] [--max-window W]
           [--top-k K] [--min-len L] [--max-len L] [--max-patterns N]
           [--threads N] [--top T] [--density R] [--maximal] [--stream]
  rgs-mine topk --input FILE|--snapshot IMG [-k K] [--min-sup FLOOR] ...
  rgs-mine batch --input FILE|--snapshot IMG --requests FILE [--top T] [--format json]
  rgs-mine stats --input FILE|--snapshot IMG [--format tokens|spmf|chars]
  rgs-mine snapshot build --input FILE [--format ...] --out IMG
  rgs-mine snapshot info  --snapshot IMG
  rgs-mine snapshot verify --snapshot IMG
  rgs-mine demo [--min-sup K] [--mode ...]

subcommands:
  mine      (default) mine the requested pattern family
  topk      rank the k best closed patterns (k = {DEFAULT_TOP_K} unless -k
            sets it; min-sup 1, min-len 2; composes with gap/window
            constraints: gap-constrained top-k mining)
  batch     mine every request of --requests FILE (one JSON object
            per line, the POST /mine body shape; '#' comments ok) in
            one shared DFS pass — each answer is bit-identical to
            running that request alone, and a per-line timeout_ms
            deadline-bounds only its own member
  stats     print dataset statistics and the byte footprint of the
            flat columnar store and the CSR inverted index
  snapshot  build: intern the corpus once and write its store and
            catalog as a single mmap-able image file (the index is
            built when the image is opened); info: validate an image
            and print its header and region sizes; verify:
            prove every invariant of an image (header, CSR offsets,
            alphabet bound, catalog, checksum) on the raw bytes
            and report each violation with region + byte offset
  demo      run on the paper's running example (Table III)

notable flags:
  --mode M        all, closed, maximal, or top-k (closed mining ranked
                  by support, k = {DEFAULT_TOP_K} unless --top-k sets it)
  --snapshot IMG  serve mine/topk/batch/stats straight from a prepared
                  snapshot image (mmap'ed and checked on open as
                  `snapshot verify` checks it; no re-tokenizing on
                  start, the index is built from the mapped store)
  --threads N     mine on N worker threads (default 1; the reported
                  patterns are bit-identical to a sequential run)
  --format json   emit one JSON document with the MiningReport and
                  the reported patterns instead of text output
"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgs_core::GapConstraints;

    fn parse(tokens: &[&str]) -> Options {
        let args: Vec<String> = tokens
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        parse_args(&args).expect("parse ok").expect("not --help")
    }

    #[test]
    fn usage_lines_keep_their_indentation() {
        let text = usage();
        let lines: Vec<&str> = text.lines().collect();
        for line in [
            "  rgs-mine snapshot verify --snapshot IMG",
            "           --min-sup K",
            "  snapshot  build: intern the corpus once and write its store and",
            "  --threads N     mine on N worker threads (default 1; the reported",
        ] {
            assert!(lines.contains(&line), "{line:?} missing from:\n{text}");
        }
        // Every line under a heading is indented; only headings and the
        // title start flush-left.
        let flush_left: Vec<&str> = lines
            .iter()
            .copied()
            .filter(|line| !line.is_empty() && !line.starts_with(' '))
            .collect();
        assert_eq!(
            flush_left,
            [
                "rgs-mine: mine (closed) repetitive gapped subsequences",
                "usage:",
                "subcommands:",
                "notable flags:",
            ]
        );
        assert!(text.contains(&format!("k = {DEFAULT_TOP_K} unless -k")));
    }

    #[test]
    fn default_mode_is_closed_mining() {
        let options = parse(&["--demo", "--min-sup", "3"]);
        assert_eq!(options.request.mode, Mode::Closed);
        assert_eq!(options.request.min_sup, 3);
        assert!(options.demo);
    }

    #[test]
    fn topk_subcommand_sets_ranking_defaults() {
        let options = parse(&["topk", "--demo", "-k", "7", "--max-gap", "2"]);
        assert_eq!(options.request.mode, Mode::Closed);
        assert_eq!(options.request.top_k, Some(7));
        assert_eq!(options.request.min_len, 2);
        assert_eq!(options.request.min_sup, 1);
        assert_eq!(options.request.constraints, GapConstraints::max_gap(2));
        let defaulted = parse(&["topk", "--demo"]);
        assert_eq!(defaulted.request.top_k, Some(DEFAULT_TOP_K));
    }

    #[test]
    fn constraint_flags_compose() {
        let options = parse(&[
            "--demo",
            "--min-gap",
            "1",
            "--max-gap",
            "4",
            "--max-window",
            "9",
        ]);
        let constraints = options.request.constraints;
        assert_eq!(constraints.min_gap, 1);
        assert_eq!(constraints.max_gap, Some(4));
        assert_eq!(constraints.max_window, Some(9));
    }

    #[test]
    fn mode_flag_parses_every_variant() {
        for (name, mode, top_k) in [
            ("all", Mode::All, None),
            ("closed", Mode::Closed, None),
            ("maximal", Mode::Maximal, None),
            ("top-k", Mode::Closed, Some(DEFAULT_TOP_K)),
            ("topk", Mode::Closed, Some(DEFAULT_TOP_K)),
        ] {
            let options = parse(&["--demo", "--mode", name]);
            assert_eq!((options.request.mode, options.request.top_k), (mode, top_k));
        }
        // Ranking does not depend on flag order, and a later mode flag
        // drops it.
        let k_first = parse(&["--demo", "-k", "4", "--mode", "top-k"]);
        let k_last = parse(&["--demo", "--mode", "top-k", "-k", "4"]);
        assert_eq!(k_first.request, k_last.request);
        assert_eq!(k_first.request.top_k, Some(4));
        assert_eq!(
            parse(&["--demo", "--mode", "top-k", "--closed"])
                .request
                .top_k,
            None
        );
    }

    /// A u32 flag at 2^32 is the request-body reader's range error, not a
    /// wrap to 0; at `u32::MAX` it parses.
    fn assert_u32_flag_is_range_checked(flag: &str) {
        let args = |value: &str| -> Vec<String> {
            ["demo", flag, value]
                .iter()
                .map(std::string::ToString::to_string)
                .collect()
        };
        let err = parse_args(&args("4294967296")).expect_err(flag);
        assert!(err.contains("exceeds the u32 range"), "{flag}: {err}");
        assert!(parse_args(&args("4294967295")).is_ok(), "{flag}");
    }

    #[test]
    fn min_gap_out_of_u32_range_is_an_error() {
        assert_u32_flag_is_range_checked("--min-gap");
    }

    #[test]
    fn max_gap_out_of_u32_range_is_an_error() {
        assert_u32_flag_is_range_checked("--max-gap");
    }

    #[test]
    fn max_window_out_of_u32_range_is_an_error() {
        assert_u32_flag_is_range_checked("--max-window");
    }

    #[test]
    fn all_and_closed_remain_mutually_exclusive() {
        let args: Vec<String> = ["--demo", "--all", "--closed"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn demo_subcommand_equals_demo_flag() {
        assert!(parse(&["demo"]).demo);
        assert!(parse(&["--demo"]).demo);
    }

    #[test]
    fn stats_subcommand_and_flag_parse() {
        assert!(parse(&["stats", "--demo"]).stats_only);
        assert!(parse(&["--demo", "--stats"]).stats_only);
        assert!(!parse(&["--demo"]).stats_only);
    }

    #[test]
    fn threads_flag_parses_and_produces_identical_output() {
        let options = parse(&["--demo", "--min-sup", "2", "--threads", "4"]);
        assert_eq!(
            options.request.execution,
            ExecutionPolicy::Parallel { threads: 4 }
        );
        let sequential = parse(&["--demo", "--min-sup", "2"]);
        let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        let prepared = PreparedDb::new(&db);
        assert_eq!(
            options.miner(&prepared).run().patterns,
            sequential.miner(&prepared).run().patterns
        );
    }

    #[test]
    fn topk_accepts_threads_too() {
        let options = parse(&["topk", "--demo", "-k", "5", "--threads", "2"]);
        assert_eq!(
            options.request.execution,
            ExecutionPolicy::Parallel { threads: 2 }
        );
        assert_eq!(options.request.top_k, Some(5));
    }

    #[test]
    fn format_json_selects_json_output_without_clobbering_input_format() {
        let options = parse(&["--demo", "--format", "json"]);
        assert!(options.json_output);
        assert_eq!(options.format, Format::Tokens);
        let options = parse(&["--input", "x", "--format", "spmf", "--format", "json"]);
        assert!(options.json_output);
        assert_eq!(options.format, Format::Spmf);
    }

    #[test]
    fn stream_and_json_output_are_mutually_exclusive() {
        let args: Vec<String> = ["--demo", "--stream", "--format", "json"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn stream_rejects_the_report_filters() {
        for extra in [&["--density", "0.5"][..], &["--maximal"]] {
            let args: Vec<String> = ["--demo", "--stream"]
                .iter()
                .chain(extra)
                .map(std::string::ToString::to_string)
                .collect();
            let err = parse_args(&args).expect_err("a report filter under --stream");
            assert!(err.contains(extra[0]), "{extra:?}: {err}");
        }
        assert!(parse(&["--demo", "--maximal", "--density", "0.5"]).maximal_filter);
    }

    #[test]
    fn snapshot_subcommands_parse_and_validate() {
        let build = parse(&["snapshot", "build", "--input", "x", "--out", "y"]);
        assert_eq!(build.snapshot_cmd, Some(SnapshotCmd::Build));
        assert_eq!(build.out, Some(PathBuf::from("y")));

        let info = parse(&["snapshot", "info", "--snapshot", "z"]);
        assert_eq!(info.snapshot_cmd, Some(SnapshotCmd::Info));
        assert_eq!(info.snapshot, Some(PathBuf::from("z")));

        let verify = parse(&["snapshot", "verify", "--snapshot", "z"]);
        assert_eq!(verify.snapshot_cmd, Some(SnapshotCmd::Verify));
        assert_eq!(verify.snapshot, Some(PathBuf::from("z")));

        let fail = |tokens: &[&str]| {
            let args: Vec<String> = tokens
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            assert!(parse_args(&args).is_err(), "{tokens:?} should fail");
        };
        fail(&["snapshot"]);
        fail(&["snapshot", "check"]); // unknown subcommand
        fail(&["snapshot", "build", "--input", "x"]); // missing --out
        fail(&["snapshot", "info"]); // missing --snapshot
        fail(&["snapshot", "verify"]); // missing --snapshot
        fail(&["snapshot", "build", "--snapshot", "x", "--out", "y"]); // reads text only
        fail(&["--input", "x", "--snapshot", "y"]); // mutually exclusive
    }

    #[test]
    fn snapshot_build_from_a_text_corpus_round_trips() {
        // `snapshot build` from a text corpus, then `--snapshot`: the image
        // is format 8 and its patterns are the text corpus's.
        let dir = std::env::temp_dir();
        let image = dir.join(format!("rgs-cli-build-{}.snap", std::process::id()));
        let input = dir.join(format!("rgs-cli-build-{}.txt", std::process::id()));
        std::fs::write(&input, "A B C A C B D D B\nA C D B A C A D D\nA A B B\n").expect("input");
        let build = parse(&[
            "snapshot",
            "build",
            "--input",
            input.to_str().unwrap(),
            "--out",
            image.to_str().unwrap(),
        ]);
        assert_eq!(run_snapshot_build(&build), ExitCode::SUCCESS);
        let options = parse(&["--snapshot", image.to_str().unwrap(), "--min-sup", "2"]);
        let prepared = load_source(&options).unwrap_or_else(|_| panic!("snapshot loads"));
        assert_eq!(prepared.image_version(), Some(8));
        let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD", "AABB"]);
        assert_eq!(
            options.miner(&prepared).run().patterns,
            options.miner(&PreparedDb::new(&db)).run().patterns
        );
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&image).ok();
    }

    #[test]
    fn snapshot_build_then_mine_round_trips() {
        let dir = std::env::temp_dir();
        let image = dir.join(format!("rgs-cli-test-{}.snap", std::process::id()));
        let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        PreparedDb::new(&db).write_snapshot(&image).expect("write");

        let options = parse(&["--snapshot", image.to_str().unwrap(), "--min-sup", "2"]);
        let prepared = load_source(&options).unwrap_or_else(|_| panic!("snapshot loads"));
        assert!(prepared.image_checksum().is_some());
        let from_image = options.miner(&prepared).run();
        let fresh = options.miner(&PreparedDb::new(&db)).run();
        assert_eq!(from_image.patterns, fresh.patterns);
        std::fs::remove_file(&image).ok();
    }

    #[test]
    fn batch_subcommand_requires_a_request_file() {
        let fail = |tokens: &[&str]| {
            let args: Vec<String> = tokens
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            assert!(parse_args(&args).is_err(), "{tokens:?} should fail");
        };
        fail(&["batch", "--demo"]); // missing --requests
        fail(&["--demo", "--requests", "x"]); // --requests without batch

        let options = parse(&["batch", "--demo", "--requests", "reqs.jsonl"]);
        assert!(options.batch);
        assert_eq!(options.requests, Some(PathBuf::from("reqs.jsonl")));
    }

    #[test]
    fn batch_rejects_query_and_report_flags_by_name() {
        let args = |extra: &[&str]| -> Vec<String> {
            ["batch", "--demo", "--requests", "reqs.jsonl"]
                .iter()
                .chain(extra)
                .map(std::string::ToString::to_string)
                .collect()
        };
        for extra in [
            &["--min-sup", "3"][..],
            &["-s", "3"],
            &["--mode", "all"],
            &["--closed"],
            &["--top-k", "4"],
            &["--max-gap", "2"],
            &["--threads", "4"],
            &["--stream"],
            &["--density", "0.5"],
            &["--maximal"],
        ] {
            let err = parse_args(&args(extra)).expect_err("a query flag under batch");
            assert!(err.starts_with(extra[0]), "{extra:?}: {err}");
            assert!(err.contains("--requests"), "{extra:?}: {err}");
        }
        // Source and output flags still apply, and the query flags still
        // parse outside batch.
        let options = parse(&[
            "batch",
            "--demo",
            "--requests",
            "r",
            "--top",
            "3",
            "--format",
            "json",
        ]);
        assert_eq!(options.top, 3);
        assert!(options.json_output);
        assert_eq!(parse(&["--demo", "--min-sup", "3"]).request.min_sup, 3);
    }

    #[test]
    fn stats_and_snapshot_reject_query_flags_by_name() {
        for (command, flags_before, flags_after) in [
            ("stats", &["stats", "--demo"][..], &[][..]),
            ("stats", &["--demo"], &["--stats"]),
            (
                "snapshot",
                &["snapshot", "build", "--input", "x", "--out", "y"],
                &[],
            ),
            ("snapshot", &["snapshot", "info", "--snapshot", "z"], &[]),
            ("snapshot", &["snapshot", "verify", "--snapshot", "z"], &[]),
        ] {
            for extra in [
                &["--min-sup", "3"][..],
                &["--mode", "all"],
                &["--max-gap", "2"],
                &["--threads", "4"],
                &["--stream"],
                &["--maximal"],
            ] {
                let args: Vec<String> = flags_before
                    .iter()
                    .chain(extra)
                    .chain(flags_after)
                    .map(std::string::ToString::to_string)
                    .collect();
                let err = parse_args(&args).expect_err("a query flag that would be ignored");
                assert!(
                    err.starts_with(&format!("{} does not apply to {command}", extra[0])),
                    "{args:?}: {err}"
                );
            }
        }
    }

    /// One table of bodies that a `batch` line and a `POST /mine` body
    /// must accept or reject identically: `None` accepts, `Some(needle)`
    /// rejects with a message naming the problem.
    #[test]
    fn batch_lines_and_mine_bodies_parse_identically() {
        let table: [(&str, Option<&str>); 14] = [
            ("{}", None),
            (
                r#"{"min_sup": 3, "mode": "top-k", "max_gap": 2, "top_k": 5, "timeout_ms": 250}"#,
                None,
            ),
            (
                r#"{"min_sup": 7, "mode": "all", "min_gap": 1, "max_window": 12, "min_len": 2, "max_len": 9, "max_patterns": 1000}"#,
                None,
            ),
            (r#"{"mode": "topk"}"#, None),
            (r#"{"max_gap": null, "timeout_ms": null}"#, None),
            ("[1]", Some("JSON object")),
            (r#"{"min_supp": 3}"#, Some("min_supp")),
            (r#"{"mode": "openish"}"#, Some("openish")),
            (r#"{"mode": 4}"#, Some("must be a string")),
            (r#"{"min_sup": null}"#, Some("non-negative")),
            (r#"{"min_sup": -1}"#, Some("non-negative")),
            (r#"{"min_sup": 1.5}"#, Some("non-negative")),
            (r#"{"min_gap": 4294967296}"#, Some("u32")),
            ("{not json", Some("invalid JSON")),
        ];
        for (body, rejection) in table {
            let batch = parse_batch_file(body);
            let served = rgs_serve::protocol::parse_mine_request(body);
            match (rejection, batch, served) {
                (None, Ok(lines), Ok(served)) => assert_eq!(lines, [served], "{body}"),
                (Some(needle), Err(batch), Err(served)) => {
                    assert_eq!(served.status, 400, "{body}");
                    assert!(served.message.contains(needle), "{body} -> {served:?}");
                    assert_eq!(batch, format!("line 1: {}", served.message), "{body}");
                }
                (_, batch, served) => panic!("{body}: batch {batch:?} vs serve {served:?}"),
            }
        }

        let line = parse_request_body(
            r#"{"min_sup": 3, "mode": "top-k", "max_gap": 2, "top_k": 5, "timeout_ms": 250}"#,
        )
        .expect("full line");
        assert_eq!(line.request.min_sup, 3);
        assert_eq!(line.request.mode, Mode::Closed);
        assert_eq!(line.request.constraints.max_gap, Some(2));
        assert_eq!(line.request.top_k, Some(5));
        assert_eq!(line.timeout_ms, Some(250));
        let defaults = parse_request_body("{}").expect("empty object");
        assert_eq!(defaults.request, MiningRequest::default());
        assert_eq!(defaults.timeout_ms, None);
    }

    #[test]
    fn batch_files_skip_blanks_and_comments_and_number_errors() {
        let lines = parse_batch_file(
            "# sweep\n\n{\"min_sup\": 4}\n  {\"min_sup\": 3, \"mode\": \"all\"}\n",
        )
        .expect("file parses");
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].request.min_sup, 4);
        assert_eq!(lines[1].request.mode, Mode::All);

        let err = parse_batch_file("{}\n{oops\n").expect_err("bad line");
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(parse_batch_file("# only comments\n").is_err());
    }

    #[test]
    fn batch_answers_match_solo_runs_on_the_demo_database() {
        let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        let lines = parse_batch_file(
            "{\"min_sup\": 2}\n{\"min_sup\": 3}\n\
             {\"min_sup\": 2, \"mode\": \"all\", \"max_gap\": 1}\n\
             {\"min_sup\": 2, \"mode\": \"top-k\", \"top_k\": 4}\n",
        )
        .expect("file parses");
        let requests: Vec<MiningRequest> = lines.iter().map(|l| l.request.clone()).collect();
        let prepared = PreparedDb::new(&db);
        let results = prepared.batch(&requests);
        assert_eq!(results.len(), requests.len());
        for (request, result) in requests.iter().zip(&results) {
            let solo = prepared.miner().with_request(request.clone()).run();
            assert_eq!(result.outcome.patterns, solo.patterns, "{request:?}");
            assert!(!result.cancelled);
        }
    }

    #[test]
    fn gap_constrained_topk_runs_end_to_end() {
        // The acceptance-path combination: topk + --max-gap on the demo db.
        let options = parse(&["topk", "--demo", "-k", "4", "--max-gap", "1"]);
        let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        let outcome = options.miner(&PreparedDb::new(&db)).run();
        assert!(outcome.len() <= 4);
        assert!(!outcome.is_empty());
        for w in outcome.patterns.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
    }
}
