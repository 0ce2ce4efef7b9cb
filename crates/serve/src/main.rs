//! `rgs-serve` — the mining service daemon and its companion tools.
//!
//! ```text
//! rgs-serve serve   --snapshot IMG [--addr HOST:PORT] [--port P]
//!                   [--workers N] [--queue N] [--cache N]
//!                   [--timeout-ms MS] [--read-timeout-ms MS] [--max-batch N]
//! rgs-serve query   --addr HOST:PORT [--body JSON] [--stats] [--healthz]
//!                   [--timeout-ms MS]
//! ```
//!
//! `serve` verifies the snapshot image, maps its store zero-copy, builds
//! the index from it, and serves
//! `POST /mine` / `GET /stats` / `GET /healthz` until the process is
//! killed. `query` is a tiny client for scripting and smoke tests: it
//! sends one request and prints the JSON response body. Served throughput
//! and latency are measured by the repository benchmark's `serve-mix`
//! workload (`perfbench/`), which also checks every served answer.

use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use rgs_serve::{boot_snapshot, client, ServeConfig, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("rgs-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("--help" | "-h") | None => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        // Bare `rgs-serve --snapshot …` serves, matching the issue's
        // quickstart spelling.
        Some(flag) if flag.starts_with("--") => serve(args),
        Some(other) => Err(format!("unknown subcommand {other:?}; one of serve, query")),
    }
}

fn print_usage() {
    println!(
        "rgs-serve — long-running mining service over one shared snapshot\n\n\
         USAGE:\n  \
         rgs-serve serve   --snapshot IMG [--addr HOST:PORT] [--port P]\n                    \
         [--workers N] [--queue N] [--cache N]\n                    \
         [--timeout-ms MS] [--read-timeout-ms MS] [--max-batch N]\n  \
         rgs-serve query   --addr HOST:PORT [--body JSON] [--stats] [--healthz]\n\n\
         Endpoints: POST /mine, GET /stats, GET /healthz.\n\
         Build an image first: rgs-mine snapshot build --input FILE --out IMG"
    );
}

fn serve(args: &[String]) -> Result<ExitCode, String> {
    let mut snapshot: Option<PathBuf> = None;
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut config = ServeConfig::default();

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].clone();
        let next_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        let parse_num = |value: String, what: &str| -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{what} must be an integer"))
        };
        match args[i].as_str() {
            "--help" | "-h" => {
                print_usage();
                return Ok(ExitCode::SUCCESS);
            }
            "--snapshot" => snapshot = Some(PathBuf::from(next_value(&mut i)?)),
            "--addr" => addr = next_value(&mut i)?,
            "--port" => addr = format!("127.0.0.1:{}", parse_num(next_value(&mut i)?, "port")?),
            "--workers" => {
                config.workers = usize::try_from(parse_num(next_value(&mut i)?, "workers")?)
                    .map_err(|_| "workers out of range".to_owned())?;
            }
            "--queue" => {
                config.queue_capacity = usize::try_from(parse_num(next_value(&mut i)?, "queue")?)
                    .map_err(|_| "queue out of range".to_owned())?;
            }
            "--cache" => {
                config.cache_capacity = usize::try_from(parse_num(next_value(&mut i)?, "cache")?)
                    .map_err(|_| "cache out of range".to_owned())?;
            }
            "--timeout-ms" => {
                config.default_timeout_ms = Some(parse_num(next_value(&mut i)?, "timeout-ms")?);
            }
            "--read-timeout-ms" => {
                config.read_timeout_ms = parse_num(next_value(&mut i)?, "read-timeout-ms")?;
            }
            "--max-batch" => {
                config.max_batch = usize::try_from(parse_num(next_value(&mut i)?, "max-batch")?)
                    .map_err(|_| "max-batch out of range".to_owned())?;
            }
            other => return Err(format!("unknown flag {other:?} for serve")),
        }
        i += 1;
    }

    let snapshot = snapshot.ok_or_else(|| {
        "serve needs --snapshot IMG (build one with `rgs-mine snapshot build`)".to_owned()
    })?;
    let prepared = boot_snapshot(&snapshot)?;
    let stats = prepared.database().stats();
    let server = Server::start(prepared, addr.as_str(), config)
        .map_err(|err| format!("cannot bind {addr}: {err}"))?;
    println!(
        "rgs-serve: serving {} ({} sequences, {} events) on http://{}",
        snapshot.display(),
        stats.num_sequences,
        stats.total_length,
        server.local_addr()
    );
    println!("rgs-serve: POST /mine, GET /stats, GET /healthz — ^C to stop");
    // Serve until the process is killed. The acceptor and workers are
    // non-daemon threads; parking the main thread keeps them alive.
    loop {
        std::thread::park();
    }
}

fn query(args: &[String]) -> Result<ExitCode, String> {
    let mut addr: Option<String> = None;
    let mut body = "{}".to_owned();
    let mut path: Option<&'static str> = None;
    let mut timeout_ms: u64 = 30_000;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].clone();
        let next_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match args[i].as_str() {
            "--addr" => addr = Some(next_value(&mut i)?),
            "--body" => body = next_value(&mut i)?,
            "--stats" => path = Some("/stats"),
            "--healthz" => path = Some("/healthz"),
            "--timeout-ms" => {
                timeout_ms = next_value(&mut i)?
                    .parse()
                    .map_err(|_| "timeout-ms must be an integer".to_owned())?;
            }
            other => return Err(format!("unknown flag {other:?} for query")),
        }
        i += 1;
    }

    let addr = resolve(&addr.ok_or_else(|| "query needs --addr HOST:PORT".to_owned())?)?;
    let timeout = Duration::from_millis(timeout_ms.max(1));
    let response = match path {
        Some(get_path) => client::get(addr, get_path, timeout),
        None => client::mine(addr, &body, timeout),
    }
    .map_err(|err| format!("request to {addr} failed: {err}"))?;
    println!("{}", response.body);
    if response.status == 200 {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("rgs-serve: server answered {}", response.status);
        Ok(ExitCode::FAILURE)
    }
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|err| format!("cannot resolve {addr}: {err}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolved to no addresses"))
}
