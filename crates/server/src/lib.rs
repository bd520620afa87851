//! **sketch-serve** — a dependency-free (std-only) concurrent HTTP/1.1
//! query service over a packed corpus store, turning the one-shot query
//! engine into a long-running system.
//!
//! The paper's scenario is interactive: a user uploads a column and asks
//! "which tables in the lake join with mine *and* correlate?". That
//! demands a resident index answering many concurrent queries while the
//! corpus underneath keeps mutating — the `sketch-store` delta log from
//! the mutable-corpora work, served live.
//!
//! # Endpoints
//!
//! Two front ends share one connection loop (`conn.rs`) and one
//! `/query` + `/query_batch` front half (`front.rs`): the single-store
//! server ([`server`]) and the scatter-gather coordinator
//! ([`coordinator`]), which fans queries out to servers' internal
//! `/shard_*` endpoints.
//!
//! | method & path              | served by   | purpose |
//! |----------------------------|-------------|---------|
//! | `POST /query`              | both        | top-k join-correlation query with uncertainty reports |
//! | `POST /query_batch`        | both        | many queries ranked under shared parameters |
//! | `GET /healthz`             | both        | liveness + served generation (per shard on the coordinator) |
//! | `GET /stats`               | both        | request counters, cache hits, latency percentiles |
//! | `GET /metrics`             | both        | Prometheus text exposition of the same counters |
//! | `GET /corpus`              | server      | store generation + shard/tombstone shape |
//! | `POST /shard_query`        | server      | internal: one scattered `/query`'s shard-local candidate rows |
//! | `POST /shard_query_batch`  | server      | internal: the same for every query of a `/query_batch` |
//! | `POST /shard_reports`      | server      | internal: uncertainty reports for the docs the merge shipped |
//!
//! # Design invariants
//!
//! * **Snapshot reads.** Queries run on an immutable
//!   [`IndexSnapshot`](snapshot::IndexSnapshot) behind an `Arc`; the only
//!   synchronized step is cloning that `Arc`. No query ever blocks on a
//!   mutation, and no mutation ever tears a query.
//! * **Generation-aware caching.** The LRU response cache is keyed by
//!   `(canonical query fingerprint, store generation)`, so a corpus
//!   mutation invalidates exactly the stale entries — and a cache hit is
//!   byte-identical to the miss that populated it.
//! * **Answers are the engine's answers.** A served response body is a
//!   pure rendering of [`sketch_index::engine::top_k_with_reports`] at
//!   the served generation — proven byte-identical in the
//!   mutation-under-load integration test.
//! * **Freshness off the hot path.** A background thread polls the store
//!   manifest, applies new delta generations incrementally to a private
//!   clone, and atomically swaps snapshots; after a compaction
//!   (`StaleGeneration`) it rebuilds from the store instead.

#![deny(unsafe_code)] // `signal.rs` carves out the one allowed exception.
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
mod conn;
pub mod coordinator;
mod front;
pub mod http;
mod metrics;
pub mod server;
pub mod signal;
pub mod snapshot;
pub mod stats;

pub use api::{render_batch_response, render_query_response, QueryParams};
pub use cache::QueryCache;
pub use client::{HttpClient, Response};
pub use coordinator::{start_coordinator, CoordinatorConfig, CoordinatorHandle};
pub use server::{start, ServerConfig, ServerError, ServerHandle};
pub use snapshot::{IndexSnapshot, SnapshotCell};
pub use stats::ServerStats;
