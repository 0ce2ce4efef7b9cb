//! End-to-end tests: a real server on an ephemeral port, driven through
//! real sockets, checked against in-process mining.
//!
//! The core contract is *bit identity*: the bytes `POST /mine` returns for
//! a request must render exactly the patterns an in-process [`Miner`] run
//! produces for the same request over the same snapshot — across all four
//! modes, with and without gap constraints. On top of that: deadlines
//! produce well-formed truncated responses, a full admission queue sheds
//! with `429 Retry-After`, repeated requests come from the result cache,
//! and `/stats`/`/healthz` report it all.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rgs_bench::datasets::{fig2_dataset, Scale};
use rgs_core::json::{self, Value};
use rgs_core::{CollectSink, PreparedDb};
use rgs_serve::client;
use rgs_serve::protocol::{parse_mine_request, render_patterns};
use rgs_serve::{boot_snapshot, ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(30);

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rgs-serve-e2e-{}-{tag}.snapshot",
        std::process::id()
    ))
}

/// Writes the fig2 dev corpus to a snapshot, verifies + opens it, and
/// starts a server on an ephemeral port.
fn boot(tag: &str, config: ServeConfig) -> (Server, Arc<PreparedDb>, PathBuf) {
    let (_name, db) = fig2_dataset(Scale::Dev);
    let path = temp_path(tag);
    PreparedDb::from_database(db)
        .write_snapshot(&path)
        .expect("write snapshot");
    let shared = boot_snapshot(&path).expect("boot snapshot");
    let server = Server::start(Arc::clone(&shared), ("127.0.0.1", 0), config).expect("start");
    (server, shared, path)
}

/// The raw `"patterns"` array substring of a `/mine` response body —
/// compared byte-for-byte against in-process rendering.
fn patterns_field(body: &str) -> &str {
    let start = body.find("\"patterns\":").expect("patterns field") + "\"patterns\":".len();
    let end = body.find(",\"count\":").expect("count field");
    &body[start..end]
}

fn parse(body: &str) -> Value {
    json::parse(body).unwrap_or_else(|err| panic!("response is not valid JSON: {err}\n{body}"))
}

#[test]
fn served_results_are_bit_identical_to_in_process_mining() {
    let (server, shared, path) = boot("identity", ServeConfig::default());
    let addr = server.local_addr();

    let mut nonempty = 0usize;
    let mut truncated = 0usize;
    for mode in ["all", "closed", "maximal", "top-k"] {
        // The third variant adds a pattern budget, as load-test bodies
        // carry one, so a capped answer is checked over the wire too.
        for constraints in [
            "",
            ",\"min_gap\":1,\"max_gap\":4,\"max_window\":20",
            ",\"max_gap\":4,\"max_window\":20,\"max_patterns\":40",
        ] {
            // Unconstrained all-mode enumeration explodes combinatorially
            // on this corpus; cap the pattern length there (the bench
            // suite's "all-capped" workload does the same).
            let cap = if mode == "all" { ",\"max_len\":4" } else { "" };
            let body = format!("{{\"min_sup\":15,\"mode\":\"{mode}\"{cap}{constraints}}}");
            let response = client::mine(addr, &body, TIMEOUT).expect("mine request");
            assert_eq!(
                response.status, 200,
                "{mode}{constraints}: {}",
                response.body
            );

            // The reference: the same wire body parsed by the same
            // protocol, mined in-process over the same shared snapshot.
            let request = parse_mine_request(&body).expect("parse body").request;
            let mut sink = CollectSink::new();
            shared
                .miner()
                .with_request(request)
                .run_with_sink(&mut sink);
            let expected = render_patterns(sink.patterns(), shared.catalog());

            let served = patterns_field(&response.body);
            assert_eq!(served, expected, "mode {mode}, constraints {constraints:?}");

            let envelope = parse(&response.body);
            let count = envelope
                .get("count")
                .and_then(Value::as_u64)
                .expect("count");
            assert_eq!(count as usize, sink.patterns().len());
            assert_eq!(
                envelope.get("deadline_exceeded").and_then(Value::as_bool),
                Some(false)
            );
            if !sink.patterns().is_empty() {
                nonempty += 1;
            }
            if envelope.get("truncated").and_then(Value::as_bool) == Some(true) {
                truncated += 1;
            }
        }
    }
    assert!(
        nonempty >= 6,
        "the corpus should yield patterns ({nonempty})"
    );
    assert!(truncated >= 1, "a pattern budget should cut some answer");

    server.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn deadline_bounded_requests_return_well_formed_truncated_responses() {
    let (server, _shared, path) = boot("deadline", ServeConfig::default());
    let addr = server.local_addr();

    // timeout_ms 0: the deadline has passed before the first pattern is
    // emitted, so the run is cancelled immediately — but the response must
    // still be a complete, valid envelope.
    let body = "{\"min_sup\":10,\"mode\":\"closed\",\"timeout_ms\":0}";
    let response = client::mine(addr, body, TIMEOUT).expect("mine request");
    assert_eq!(response.status, 200, "{}", response.body);
    let envelope = parse(&response.body);
    assert_eq!(
        envelope.get("deadline_exceeded").and_then(Value::as_bool),
        Some(true),
        "{}",
        response.body
    );
    assert_eq!(envelope.get("cached").and_then(Value::as_bool), Some(false));
    let count = envelope
        .get("count")
        .and_then(Value::as_u64)
        .expect("count");
    let listed = envelope
        .get("patterns")
        .and_then(Value::as_arr)
        .expect("patterns array")
        .len();
    assert_eq!(count as usize, listed, "count matches the array");

    // The full (un-deadlined) run finds strictly more.
    let full = client::mine(addr, "{\"min_sup\":10,\"mode\":\"closed\"}", TIMEOUT).expect("full");
    let full_count = parse(&full.body)
        .get("count")
        .and_then(Value::as_u64)
        .expect("count");
    assert!(
        full_count > count,
        "deadline truncated ({count} vs {full_count})"
    );

    // A cancelled run must not be cached: the same request without the
    // deadline already mined fresh (checked above via full_count), and
    // /stats records the deadline.
    let stats = parse(&client::get(addr, "/stats", TIMEOUT).expect("stats").body);
    let counters = stats.get("counters").expect("counters");
    assert!(
        counters
            .get("deadline_exceeded")
            .and_then(Value::as_u64)
            .expect("counter")
            >= 1
    );

    server.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn overload_sheds_with_429_retry_after_instead_of_stalling() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout_ms: 3_000,
        ..ServeConfig::default()
    };
    let (server, _shared, path) = boot("shed", config);
    let addr = server.local_addr();

    // Occupy the single worker with a connection that never sends its
    // request, then fill the queue with a second one.
    let hold_worker = TcpStream::connect(addr).expect("conn 1");
    std::thread::sleep(Duration::from_millis(200));
    let hold_queue = TcpStream::connect(addr).expect("conn 2");
    std::thread::sleep(Duration::from_millis(200));

    // The next request must be shed immediately — not stall behind the
    // stuck connections.
    let shed_started = std::time::Instant::now();
    let response = client::mine(addr, "{}", TIMEOUT).expect("shed request");
    assert_eq!(response.status, 429, "{}", response.body);
    assert!(
        response.headers.contains("Retry-After:"),
        "{}",
        response.headers
    );
    assert!(
        shed_started.elapsed() < Duration::from_secs(2),
        "shedding must be immediate, took {:?}",
        shed_started.elapsed()
    );
    let envelope = parse(&response.body);
    assert_eq!(
        envelope
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_u64),
        Some(429)
    );
    assert!(
        server
            .context()
            .counters
            .shed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    drop(hold_worker);
    drop(hold_queue);
    server.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn repeated_requests_hit_the_result_cache() {
    let (server, _shared, path) = boot("cache", ServeConfig::default());
    let addr = server.local_addr();

    let body = "{\"min_sup\":15,\"mode\":\"closed\"}";
    let first = client::mine(addr, body, TIMEOUT).expect("first");
    assert_eq!(first.status, 200);
    assert_eq!(
        parse(&first.body).get("cached").and_then(Value::as_bool),
        Some(false)
    );

    // Same request, different field order and an explicit default — the
    // canonical key maps it to the same cache entry.
    let second = client::mine(
        addr,
        "{\"mode\":\"closed\",\"min_sup\":15,\"min_gap\":0}",
        TIMEOUT,
    )
    .expect("second");
    assert_eq!(second.status, 200);
    assert_eq!(
        parse(&second.body).get("cached").and_then(Value::as_bool),
        Some(true),
        "{}",
        second.body
    );
    assert_eq!(
        patterns_field(&first.body),
        patterns_field(&second.body),
        "cache serves identical bytes"
    );

    let stats = parse(&client::get(addr, "/stats", TIMEOUT).expect("stats").body);
    let cache = stats.get("cache").expect("cache");
    assert!(cache.get("hits").and_then(Value::as_u64).expect("hits") >= 1);
    assert!(cache.get("len").and_then(Value::as_u64).expect("len") >= 1);
    let counters = stats.get("counters").expect("counters");
    assert!(
        counters
            .get("cache_served")
            .and_then(Value::as_u64)
            .expect("served")
            >= 1
    );

    server.shutdown();
    let _ = std::fs::remove_file(path);
}

/// Occupies the single worker with a connection that sends nothing, so
/// every request admitted meanwhile queues up and is drained as one batch
/// the moment the holder is released.
fn occupy_worker(addr: std::net::SocketAddr) -> TcpStream {
    let holder = TcpStream::connect(addr).expect("holder connect");
    std::thread::sleep(Duration::from_millis(200));
    holder
}

#[test]
fn concurrent_requests_coalesce_into_one_batch_with_identical_bytes() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 16,
        max_batch: 16,
        read_timeout_ms: 3_000,
        ..ServeConfig::default()
    };
    let (server, shared, path) = boot("batch", config);
    let addr = server.local_addr();

    // Distinct requests (no cache collisions) spanning modes, thresholds,
    // constraints, and top-k — the shapes the batch engine must keep
    // private per member.
    let bodies = [
        "{\"min_sup\":15,\"mode\":\"closed\"}".to_owned(),
        "{\"min_sup\":25,\"mode\":\"closed\"}".to_owned(),
        "{\"min_sup\":15,\"mode\":\"maximal\"}".to_owned(),
        "{\"min_sup\":15,\"mode\":\"all\",\"max_len\":3}".to_owned(),
        "{\"min_sup\":15,\"mode\":\"top-k\",\"top_k\":5}".to_owned(),
        "{\"min_sup\":15,\"mode\":\"closed\",\"min_gap\":1,\"max_gap\":4}".to_owned(),
    ];

    // Stall the lone worker, let every client queue up behind it, then
    // release: the worker drains them all in one pop and mines one batch.
    let holder = occupy_worker(addr);
    let clients: Vec<_> = bodies
        .iter()
        .map(|body| {
            let body = body.clone();
            std::thread::spawn(move || client::mine(addr, &body, TIMEOUT).expect("mine"))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(500));
    drop(holder);

    for (body, client) in bodies.iter().zip(clients) {
        let response = client.join().expect("client thread");
        assert_eq!(response.status, 200, "{body}: {}", response.body);
        // Bit-identity vs a solo in-process run of the same wire request.
        let request = parse_mine_request(body).expect("parse body").request;
        let mut sink = CollectSink::new();
        shared
            .miner()
            .with_request(request)
            .run_with_sink(&mut sink);
        let expected = render_patterns(sink.patterns(), shared.catalog());
        assert_eq!(
            patterns_field(&response.body),
            expected,
            "batched response diverges from solo for {body}"
        );
        assert_eq!(
            parse(&response.body)
                .get("deadline_exceeded")
                .and_then(Value::as_bool),
            Some(false)
        );
    }

    // The batch counters must show real coalescing: all six requests went
    // through fewer batches than requests, and one batch held several.
    let stats = parse(&client::get(addr, "/stats", TIMEOUT).expect("stats").body);
    let counters = stats.get("counters").expect("counters");
    let batches = counters
        .get("batches")
        .and_then(Value::as_u64)
        .expect("batches counter");
    let batched_requests = counters
        .get("batched_requests")
        .and_then(Value::as_u64)
        .expect("batched_requests counter");
    let max_batch_size = counters
        .get("max_batch_size")
        .and_then(Value::as_u64)
        .expect("max_batch_size counter");
    assert_eq!(batched_requests, bodies.len() as u64);
    assert!(batches < batched_requests, "requests were not coalesced");
    assert!(max_batch_size >= 2, "no batch held more than one request");

    server.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn deadline_expired_batch_member_does_not_poison_siblings() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 16,
        max_batch: 16,
        read_timeout_ms: 3_000,
        ..ServeConfig::default()
    };
    let (server, shared, path) = boot("batch-deadline", config);
    let addr = server.local_addr();

    // One member's deadline has already passed when the batch starts; its
    // sibling (same scan group, no deadline) must still come back complete.
    let doomed_body = "{\"min_sup\":10,\"mode\":\"closed\",\"timeout_ms\":0}";
    let healthy_body = "{\"min_sup\":10,\"mode\":\"closed\"}";

    let holder = occupy_worker(addr);
    let doomed =
        std::thread::spawn(move || client::mine(addr, doomed_body, TIMEOUT).expect("doomed mine"));
    let healthy = std::thread::spawn(move || {
        client::mine(addr, healthy_body, TIMEOUT).expect("healthy mine")
    });
    std::thread::sleep(Duration::from_millis(500));
    drop(holder);

    let doomed = doomed.join().expect("doomed thread");
    assert_eq!(doomed.status, 200, "{}", doomed.body);
    assert_eq!(
        parse(&doomed.body)
            .get("deadline_exceeded")
            .and_then(Value::as_bool),
        Some(true),
        "{}",
        doomed.body
    );

    let healthy = healthy.join().expect("healthy thread");
    assert_eq!(healthy.status, 200, "{}", healthy.body);
    let healthy_envelope = parse(&healthy.body);
    assert_eq!(
        healthy_envelope
            .get("deadline_exceeded")
            .and_then(Value::as_bool),
        Some(false),
        "sibling was poisoned: {}",
        healthy.body
    );
    let request = parse_mine_request(healthy_body)
        .expect("parse body")
        .request;
    let mut sink = CollectSink::new();
    shared
        .miner()
        .with_request(request)
        .run_with_sink(&mut sink);
    assert_eq!(
        patterns_field(&healthy.body),
        render_patterns(sink.patterns(), shared.catalog()),
        "sibling of an expired member lost patterns"
    );

    let stats = parse(&client::get(addr, "/stats", TIMEOUT).expect("stats").body);
    let counters = stats.get("counters").expect("counters");
    assert!(
        counters
            .get("deadline_exceeded")
            .and_then(Value::as_u64)
            .expect("counter")
            >= 1
    );

    server.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn healthz_reports_the_snapshot_identity() {
    let (server, shared, path) = boot("health", ServeConfig::default());
    let addr = server.local_addr();

    let response = client::get(addr, "/healthz", TIMEOUT).expect("healthz");
    assert_eq!(response.status, 200);
    let envelope = parse(&response.body);
    assert_eq!(envelope.get("status").and_then(Value::as_str), Some("ok"));
    let expected = format!("{:016x}", shared.image_checksum().expect("image checksum"));
    assert_eq!(
        envelope.get("snapshot_checksum").and_then(Value::as_str),
        Some(expected.as_str())
    );

    // /stats carries the same identity plus corpus dimensions.
    let stats = parse(&client::get(addr, "/stats", TIMEOUT).expect("stats").body);
    let snapshot = stats.get("snapshot").expect("snapshot");
    assert_eq!(
        snapshot.get("checksum").and_then(Value::as_str),
        Some(expected.as_str())
    );
    let database = stats.get("database").expect("database");
    assert!(
        database
            .get("num_sequences")
            .and_then(Value::as_u64)
            .expect("sequences")
            > 0
    );

    // ... and the vector extensions the build targets.
    let kernel = stats.get("kernel").expect("kernel");
    assert!(kernel.get("cpu_features").and_then(Value::as_str).is_some());

    server.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn unknown_routes_and_bad_bodies_are_refused_cleanly() {
    let (server, _shared, path) = boot("errors", ServeConfig::default());
    let addr = server.local_addr();

    let missing = client::get(addr, "/nope", TIMEOUT).expect("404");
    assert_eq!(missing.status, 404);

    let wrong_method = client::get(addr, "/mine", TIMEOUT).expect("405");
    assert_eq!(wrong_method.status, 405);

    let bad_field = client::mine(addr, "{\"min_supp\":3}", TIMEOUT).expect("400");
    assert_eq!(bad_field.status, 400);
    let message = parse(&bad_field.body)
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .expect("message")
        .to_owned();
    assert!(message.contains("min_supp"), "{message}");

    // A raw garbage request straight on the socket.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"BLORP\r\n\r\n").expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown");
    let mut raw = String::new();
    use std::io::Read;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    stream.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

    server.shutdown();
    let _ = std::fs::remove_file(path);
}
