//! The request worker: a drained batch of connections in, one response out
//! on each.
//!
//! Lifecycle of a `/mine` request: read → parse → canonicalize → cache
//! probe → join the dequeue's mining batch → respond, recording latency
//! and counters along the way. Cached responses, protocol errors, and
//! non-mining routes are answered before the batch forms; the remaining
//! cache misses are mined together in **one** shared DFS pass
//! ([`PreparedDb::batch_with_deadlines`]), whose per-request results are
//! pinned bit-identical to solo runs — so coalescing is invisible on the
//! wire. Each member carries its own deadline; an expired member comes
//! back truncated without poisoning its siblings.
//!
//! The clippy lints at the top of this module keep it free of panics,
//! `unwrap`/`expect` and bare indexing. Every I/O failure on the response
//! path is swallowed — if the client hung up there is nobody left to tell.
//!
//! [`PreparedDb::batch_with_deadlines`]: rgs_core::PreparedDb::batch_with_deadlines

// A panic here would kill a worker thread and silently shrink the pool.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use rgs_core::{canonical_key, MiningRequest};

use crate::admission::Job;
use crate::cache::{CachedResult, ResultCache};
use crate::http::{self, Request};
use crate::metrics::HistogramSnapshot;
use crate::protocol;
use crate::server::ServeContext;

/// A `/mine` cache miss waiting for its batch: the connection plus
/// everything needed to mine and respond.
struct PendingMine {
    stream: TcpStream,
    request: MiningRequest,
    cache_key: String,
    started: Instant,
    deadline: Option<Instant>,
}

/// Handles one drained batch of admitted connections: answers everything
/// that needs no mining, then mines the remaining requests in one shared
/// DFS pass and responds to each.
pub fn handle_batch(ctx: &ServeContext, jobs: Vec<Job>) {
    let mut pending: Vec<PendingMine> = Vec::with_capacity(jobs.len());
    for job in jobs {
        if let Some(mine) = receive(ctx, job) {
            pending.push(mine);
        }
    }
    if pending.is_empty() {
        return;
    }

    let batch_size = pending.len() as u64;
    ctx.counters.batches.fetch_add(1, Ordering::Relaxed);
    ctx.counters
        .batched_requests
        .fetch_add(batch_size, Ordering::Relaxed);
    ctx.counters
        .max_batch_size
        .fetch_max(batch_size, Ordering::Relaxed);

    let requests: Vec<MiningRequest> = pending.iter().map(|p| p.request.clone()).collect();
    let deadlines: Vec<Option<Instant>> = pending.iter().map(|p| p.deadline).collect();
    let results = ctx.prepared.batch_with_deadlines(&requests, &deadlines);
    for (mine, result) in pending.into_iter().zip(results) {
        respond_mined(ctx, mine, &result);
    }
}

/// Reads and routes one connection. Returns the pending mining work when
/// the request is a `/mine` cache miss; everything else is answered here.
fn receive(ctx: &ServeContext, job: Job) -> Option<PendingMine> {
    let Job {
        mut stream,
        accepted_at,
    } = job;
    ctx.queue_wait.record(accepted_at.elapsed());
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        ctx.config.read_timeout_ms.max(1),
    )));

    let request = match http::read_request(&mut stream) {
        Ok(request) => request,
        Err(err) => {
            let (status, reason, detail) = err.status();
            ctx.counters.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(&mut stream, status, reason, &detail);
            return None;
        }
    };
    route(ctx, stream, &request)
}

fn route(ctx: &ServeContext, mut stream: TcpStream, request: &Request) -> Option<PendingMine> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let _ = http::write_response(&mut stream, 200, "OK", &[], &health_body(ctx));
        }
        ("GET", "/stats") => {
            let _ = http::write_response(&mut stream, 200, "OK", &[], &stats_body(ctx));
        }
        ("POST", "/mine") => return mine(ctx, stream, &request.body),
        ("GET", "/mine") => {
            ctx.counters.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(&mut stream, 405, "Method Not Allowed", "use POST /mine");
        }
        (_, path) => {
            ctx.counters.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(
                &mut stream,
                404,
                "Not Found",
                &format!("unknown route {path:?}; try POST /mine, GET /stats, GET /healthz"),
            );
        }
    }
    None
}

/// Parses a `/mine` body and probes the cache. A hit (or error) is
/// answered right away; a miss joins the worker's current mining batch.
fn mine(ctx: &ServeContext, mut stream: TcpStream, body: &str) -> Option<PendingMine> {
    let started = Instant::now();
    let parsed = match protocol::parse_mine_request(body) {
        Ok(parsed) => parsed,
        Err(err) => {
            ctx.counters.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(&mut stream, err.status, "Bad Request", &err.message);
            return None;
        }
    };

    let canonical = canonical_key(&parsed.request);
    let cache_key = ResultCache::key(ctx.prepared.image_checksum(), &canonical);
    if let Some(hit) = ctx.cache.get(&cache_key) {
        ctx.counters.cache_served.fetch_add(1, Ordering::Relaxed);
        ctx.counters.mined.fetch_add(1, Ordering::Relaxed);
        let elapsed = started.elapsed();
        let envelope = protocol::mine_response_body(
            &hit.patterns_json,
            hit.count,
            hit.truncated,
            false,
            true,
            elapsed.as_secs_f64() * 1000.0,
        );
        let _ = http::write_response(&mut stream, 200, "OK", &[], &envelope);
        ctx.latency.record(elapsed);
        return None;
    }

    let deadline = parsed
        .timeout_ms
        .or(ctx.config.default_timeout_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    Some(PendingMine {
        stream,
        request: parsed.request,
        cache_key,
        started,
        deadline,
    })
}

/// Responds to one batch member with its (solo-identical) mining result
/// and caches it when its deadline did not cut it short.
fn respond_mined(ctx: &ServeContext, mine: PendingMine, result: &rgs_core::MiningResult) {
    let PendingMine {
        mut stream,
        cache_key,
        started,
        ..
    } = mine;
    let deadline_exceeded = result.cancelled;
    if deadline_exceeded {
        ctx.counters
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
    }
    let patterns = &result.outcome.patterns;
    let patterns_json = protocol::render_patterns(patterns, ctx.prepared.catalog());
    let truncated = result.outcome.truncated;
    // A deadline-cut run is a partial answer; caching it would serve the
    // partial result to future callers who gave the server more time.
    if !deadline_exceeded {
        ctx.cache.insert(
            cache_key,
            CachedResult {
                patterns_json: patterns_json.clone(),
                count: patterns.len(),
                truncated,
            },
        );
    }
    ctx.counters.mined.fetch_add(1, Ordering::Relaxed);
    let elapsed = started.elapsed();
    let envelope = protocol::mine_response_body(
        &patterns_json,
        patterns.len(),
        truncated,
        deadline_exceeded,
        false,
        elapsed.as_secs_f64() * 1000.0,
    );
    let _ = http::write_response(&mut stream, 200, "OK", &[], &envelope);
    ctx.latency.record(elapsed);
}

fn respond_error(stream: &mut TcpStream, status: u16, reason: &str, message: &str) {
    let _ = http::write_response(
        stream,
        status,
        reason,
        &[],
        &protocol::error_body(status, message),
    );
}

fn health_body(ctx: &ServeContext) -> String {
    format!(
        "{{\"status\":\"ok\",\"uptime_s\":{:.1},\"workers\":{},\"snapshot_checksum\":{}}}",
        ctx.started.elapsed().as_secs_f64(),
        ctx.config.workers.max(1),
        checksum_json(ctx),
    )
}

fn checksum_json(ctx: &ServeContext) -> String {
    match ctx.prepared.image_checksum() {
        Some(sum) => format!("\"{sum:016x}\""),
        None => "null".to_owned(),
    }
}

fn histogram_json(snap: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\":{},\"mean_ms\":{:.3},\"p50_ms\":{:.3},\"p90_ms\":{:.3},\
         \"p99_ms\":{:.3},\"max_ms\":{:.3}}}",
        snap.count, snap.mean_ms, snap.p50_ms, snap.p90_ms, snap.p99_ms, snap.max_ms
    )
}

/// Builds the `/stats` document: counters, queue, cache, latency
/// histograms, snapshot identity, and the corpus-level [`DatabaseStats`]
/// computed once at boot.
///
/// [`DatabaseStats`]: seqdb::DatabaseStats
fn stats_body(ctx: &ServeContext) -> String {
    let mut out = String::with_capacity(1024);
    out.push('{');

    out.push_str("\"counters\":{");
    for (i, (name, value)) in ctx.counters.load().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{value}"));
    }
    out.push_str("},");

    out.push_str(&format!(
        "\"queue\":{{\"depth\":{},\"capacity\":{}}},",
        ctx.queue.depth(),
        ctx.queue.capacity()
    ));

    let cache = ctx.cache.stats();
    out.push_str(&format!(
        "\"cache\":{{\"hits\":{},\"misses\":{},\"insertions\":{},\"evictions\":{},\
         \"len\":{},\"capacity\":{}}},",
        cache.hits, cache.misses, cache.insertions, cache.evictions, cache.len, cache.capacity
    ));

    out.push_str(&format!(
        "\"latency\":{},",
        histogram_json(&ctx.latency.snapshot())
    ));
    out.push_str(&format!(
        "\"queue_wait\":{},",
        histogram_json(&ctx.queue_wait.snapshot())
    ));

    out.push_str(&format!(
        "\"snapshot\":{{\"checksum\":{},\"version\":{}}},",
        checksum_json(ctx),
        match ctx.prepared.image_version() {
            Some(version) => version.to_string(),
            None => "null".to_owned(),
        }
    ));

    // The vector extensions this build targets — operators comparing
    // throughput across machines need this next to the latency
    // histograms, not in a build log.
    out.push_str(&format!(
        "\"kernel\":{{\"cpu_features\":\"{}\"}},",
        seqdb::simd::detected_features()
    ));

    let db = &ctx.db_stats;
    out.push_str(&format!(
        "\"database\":{{\"num_sequences\":{},\"num_events\":{},\"total_length\":{},\
         \"min_length\":{},\"max_length\":{},\"avg_length\":{:.3},\"store_bytes\":{}}}",
        db.num_sequences,
        db.num_events,
        db.total_length,
        db.min_length,
        db.max_length,
        db.avg_length,
        db.store_bytes
    ));

    out.push('}');
    out
}
