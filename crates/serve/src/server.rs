//! Server assembly: boot, accept loop, worker pool, graceful shutdown.
//!
//! One process holds one [`PreparedDb`] behind an [`Arc`] and serves every
//! request from it. The acceptor thread owns the listener and applies
//! admission control inline: a connection either enters the bounded queue
//! or is answered `429` right there — the worker pool never sees load it
//! cannot absorb. Workers block on the queue, handle one connection at a
//! time, and drain whatever is queued when shutdown closes the queue.

use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use rgs_core::PreparedDb;
use seqdb::DatabaseStats;

use crate::admission::{AdmissionQueue, Admit};
use crate::cache::ResultCache;
use crate::http;
use crate::metrics::{Histogram, ServeCounters};
use crate::protocol;
use crate::worker;

/// Tunables for one server instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads mining concurrently.
    pub workers: usize,
    /// Connections allowed to wait for a worker before shedding starts.
    pub queue_capacity: usize,
    /// Result-cache entries ([`ResultCache`]); 0 disables caching.
    pub cache_capacity: usize,
    /// Deadline applied to requests that do not carry `timeout_ms`.
    /// `None` means no default deadline.
    pub default_timeout_ms: Option<u64>,
    /// Socket read timeout while parsing a request, milliseconds.
    pub read_timeout_ms: u64,
    /// Value of the `Retry-After` header on shed (`429`) responses.
    pub retry_after_seconds: u32,
    /// Largest mining batch one worker drains per dequeue: everything
    /// queued at that moment (up to this cap) is mined in one shared DFS
    /// pass via [`PreparedDb::batch_with_deadlines`]. 1 disables batching.
    ///
    /// [`PreparedDb::batch_with_deadlines`]: rgs_core::PreparedDb::batch_with_deadlines
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            queue_capacity: 64,
            cache_capacity: 128,
            default_timeout_ms: None,
            read_timeout_ms: 10_000,
            retry_after_seconds: 1,
            max_batch: 16,
        }
    }
}

/// Everything a worker needs to answer a request, shared via [`Arc`].
#[derive(Debug)]
pub struct ServeContext {
    /// The one corpus this process serves.
    pub prepared: Arc<PreparedDb>,
    /// The admission queue between acceptor and workers.
    pub queue: AdmissionQueue,
    /// The mining result cache.
    pub cache: ResultCache,
    /// End-to-end `/mine` latency (read → response written).
    pub latency: Histogram,
    /// Time connections spend queued before a worker picks them up.
    pub queue_wait: Histogram,
    /// Monotonic request counters.
    pub counters: ServeCounters,
    /// The configuration the server was started with.
    pub config: ServeConfig,
    /// When the server started (for `/healthz` uptime).
    pub started: Instant,
    /// Corpus statistics, computed once at boot for `/stats`.
    pub db_stats: DatabaseStats,
}

/// A running server: the listener thread, the worker pool, and the shared
/// context. Dropping without [`Server::shutdown`] detaches the threads;
/// call `shutdown` for a graceful drain.
#[derive(Debug)]
pub struct Server {
    context: Arc<ServeContext>,
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor and worker threads.
    pub fn start(
        prepared: Arc<PreparedDb>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let db_stats = prepared.database().stats();
        let context = Arc::new(ServeContext {
            prepared,
            queue: AdmissionQueue::new(config.queue_capacity),
            cache: ResultCache::new(config.cache_capacity),
            latency: Histogram::default(),
            queue_wait: Histogram::default(),
            counters: ServeCounters::default(),
            config,
            started: Instant::now(),
            db_stats,
        });
        let stop = Arc::new(AtomicBool::new(false));

        let worker_handles = (0..workers)
            .map(|i| {
                let ctx = Arc::clone(&context);
                std::thread::Builder::new()
                    .name(format!("rgs-serve-worker-{i}"))
                    .spawn(move || {
                        let max_batch = ctx.config.max_batch.max(1);
                        while let Some(jobs) = ctx.queue.pop_batch(max_batch) {
                            worker::handle_batch(&ctx, jobs);
                        }
                    })
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let acceptor = {
            let ctx = Arc::clone(&context);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("rgs-serve-acceptor".to_owned())
                .spawn(move || accept_loop(&listener, &ctx, &stop))?
        };

        Ok(Server {
            context,
            local_addr,
            stop,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound address (the actual port when started with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The shared context — exposed so tests and the load generator can
    /// read counters without going through `/stats`.
    pub fn context(&self) -> &Arc<ServeContext> {
        &self.context
    }

    /// Stops accepting, drains queued requests, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // accept() has no timeout; poke the listener so the acceptor wakes
        // up, observes the flag, and exits.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // Closing the queue wakes idle workers; busy ones finish their
        // in-flight request, drain what is queued, then exit.
        self.context.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<ServeContext>, stop: &AtomicBool) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            // This may be the shutdown poke itself; either way, stop.
            refuse(
                stream,
                ctx,
                503,
                "Service Unavailable",
                "server is shutting down",
            );
            return;
        }
        ctx.counters.accepted.fetch_add(1, Ordering::Relaxed);
        match ctx.queue.try_admit(stream) {
            Admit::Queued(_) => {}
            Admit::Full(stream) => {
                ctx.counters.shed.fetch_add(1, Ordering::Relaxed);
                refuse(
                    stream,
                    ctx,
                    429,
                    "Too Many Requests",
                    "admission queue is full; retry shortly",
                );
            }
            Admit::Closed(stream) => {
                refuse(
                    stream,
                    ctx,
                    503,
                    "Service Unavailable",
                    "server is shutting down",
                );
                return;
            }
        }
    }
}

/// Writes a one-off refusal on a connection that never reached a worker.
fn refuse(
    mut stream: TcpStream,
    ctx: &Arc<ServeContext>,
    status: u16,
    reason: &str,
    message: &str,
) {
    let retry = ctx.config.retry_after_seconds.to_string();
    let headers: &[(&str, &str)] = if status == 429 {
        &[("Retry-After", retry.as_str())]
    } else {
        &[]
    };
    let _ = http::write_response(
        &mut stream,
        status,
        reason,
        headers,
        &protocol::error_body(status, message),
    );
    // The request bytes were never read off this connection, so dropping
    // the stream now would send RST and could destroy the buffered
    // response before the client reads it. Half-close the write side and
    // drain what the client already sent, bounded by a short timeout.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(250)));
    let mut sink = [0u8; 512];
    while matches!(std::io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
}

/// Opens a snapshot image for serving.
///
/// [`PreparedDb::open_snapshot`] runs every [`seqdb::snapshot::verify`]
/// check on the mapped bytes before it rebuilds a column, so a server
/// refuses to boot on a corrupt or truncated image — the error names the
/// first violation — rather than answer wrongly or crash on request N.
pub fn boot_snapshot(path: &std::path::Path) -> Result<Arc<PreparedDb>, String> {
    PreparedDb::open_snapshot(path)
        .map(Arc::new)
        .map_err(|err| format!("cannot open snapshot {}: {err}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdb::snapshot::{checksum_of, section_id, SnapshotImage};
    use seqdb::SequenceDatabase;

    #[test]
    fn boot_refuses_a_resealed_image_and_names_the_violation() {
        let path =
            std::env::temp_dir().join(format!("rgs-serve-boot-{}.snapshot", std::process::id()));
        let db = SequenceDatabase::from_str_rows(&["ABCACBDDB", "ACDBACADD"]);
        PreparedDb::new(&db).write_snapshot(&path).expect("write");
        assert!(boot_snapshot(&path).is_ok(), "the pristine image boots");

        // Set the first arena event to 4, one past the four-event
        // alphabet, and reseal the checksum: every section stays
        // well-formed, only the arena leaves the alphabet.
        let events = SnapshotImage::open(&path)
            .expect("open image")
            .section(section_id::STORE_EVENTS)
            .expect("events section")
            .offset as usize;
        let mut bytes = std::fs::read(&path).expect("read image");
        bytes[events..events + 2].copy_from_slice(&4u16.to_le_bytes());
        let checksum = checksum_of(&bytes);
        bytes[24..32].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite image");

        let err = boot_snapshot(&path).expect_err("an event outside the alphabet must not boot");
        std::fs::remove_file(&path).ok();
        assert!(err.contains("store.events"), "{err}");
        assert!(
            err.contains("1 events reference ids outside the 4-event alphabet"),
            "{err}"
        );
    }
}
