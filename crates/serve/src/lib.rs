//! `rgs-serve`: a long-running mining service over one shared snapshot.
//!
//! The mining stack below this crate is *prepared-once/query-many*: a
//! [`PreparedDb`](rgs_core::PreparedDb) is immutable, shareable behind an
//! [`Arc`](std::sync::Arc), and produces bit-identical results for a given
//! request no matter how it is executed. This crate is the serving layer
//! that cashes those properties in:
//!
//! - **one snapshot, many requests** — the daemon verifies and opens a
//!   snapshot image once at boot ([`boot_snapshot`]) and serves every
//!   request from the shared [`PreparedDb`](rgs_core::PreparedDb);
//! - **admission control** — a bounded queue between the acceptor and the
//!   worker pool ([`admission`]); overload is answered with `429
//!   Retry-After` instead of unbounded latency;
//! - **deadlines** — per-request `timeout_ms` (or a server default) wraps
//!   the collector in a [`DeadlineSink`](rgs_core::DeadlineSink), so a slow
//!   request returns a truncated-but-well-formed response;
//! - **a result cache** — mining determinism over an immutable corpus
//!   makes an LRU cache keyed by `(image checksum, canonical request)`
//!   correct by construction ([`cache`]);
//! - **observability** — `GET /stats` and `GET /healthz` export queue
//!   depth, cache counters, latency histograms, and corpus statistics
//!   ([`metrics`]).
//!
//! The HTTP layer ([`http`]) is hand-rolled over [`std::net`] — the
//! workspace is fully offline, so the protocol surface is deliberately
//! tiny: HTTP/1.1, one request per connection, `Content-Length` bodies.
//!
//! # Endpoints
//!
//! | endpoint | body | reply |
//! |---|---|---|
//! | `POST /mine` | JSON [`MiningRequest`](rgs_core::MiningRequest) fields | patterns + envelope |
//! | `GET /stats` | — | counters, queue, cache, histograms, corpus stats |
//! | `GET /healthz` | — | liveness + snapshot identity |
//!
//! See `ARCHITECTURE.md` (Layer 5) for the request lifecycle and the
//! `rgs-serve` binary for the CLI entry points (`serve` and `query`).

pub mod admission;
pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod worker;

pub use server::{boot_snapshot, ServeConfig, Server};
