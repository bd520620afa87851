//! The server itself: a fixed pool of worker threads accepting on one
//! shared listener, routing requests against the current
//! [`IndexSnapshot`](crate::snapshot::IndexSnapshot), plus a background
//! refresher thread that polls the store manifest and swaps fresh
//! snapshots in off the hot path.
//!
//! # Concurrency model
//!
//! * **Workers** (`threads` of them) each loop `accept → serve
//!   connection (keep-alive) → accept`. The listener is non-blocking and
//!   shared, so an idle worker picks up the next connection without a
//!   dispatcher thread or a channel. A worker serves one connection at a
//!   time, so the pool size bounds concurrent connections; to keep a
//!   parked client from pinning a worker, a connection idle past
//!   `keep_alive_idle` is closed and the worker returns to accepting
//!   (active clients are unaffected — the deadline only applies between
//!   requests). Connection streams use a short read timeout, and every
//!   timeout tick honors shutdown — even mid-request on a stalled
//!   client — so graceful shutdown always completes.
//! * **Queries never take a lock**: a worker loads the current snapshot
//!   `Arc` (the only synchronized step — an `RwLock` held for one
//!   refcount increment) and runs the whole query on that immutable
//!   snapshot. A refresh swapping a new snapshot in mid-query is
//!   invisible to the request being served.
//! * **The refresher** polls `manifest.cskm` every `poll_interval`.
//!   Polling is one tiny file read; only when the generation moved does
//!   it clone the index, apply the new deltas (or rebuild after a
//!   compaction), and swap. Store errors are logged to stderr and
//!   retried next tick — the previous snapshot keeps serving.
//! * **The cache** is keyed by `(query fingerprint, generation)`; see
//!   [`crate::cache`].

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sketch_index::engine;
use sketch_obs::promtext;
use sketch_store::StoreError;

use crate::api::{self, HashedBatch, HashedQuery, HashedRequest, QueryParams};
use crate::conn::{self, Body, ConnLimits};
use crate::front::{Endpoint, Front};
use crate::http::Request;
use crate::metrics;
use crate::snapshot::{refresh_with_generation, IndexSnapshot, RefreshOutcome, SnapshotCell};
use crate::stats::ServerStats;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The packed corpus store directory to serve.
    pub store: PathBuf,
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads in the fixed pool.
    pub threads: usize,
    /// Threads for shard loading (initial load and rebuilds).
    pub load_threads: usize,
    /// Query-result cache capacity in responses (0 disables).
    pub cache_capacity: usize,
    /// How often the refresher polls the store manifest.
    pub poll_interval: Duration,
    /// How long a keep-alive connection may sit idle (no request bytes)
    /// before its worker closes it and returns to accepting. Bounds
    /// worker starvation by parked clients; active requests are never
    /// cut off.
    pub keep_alive_idle: Duration,
    /// How long a single request may take to arrive in full once its
    /// first byte has been read, and how long a response write may sit
    /// with no progress. Bounds worker starvation by slow-loris clients
    /// that trickle a partial head or body forever and by clients that
    /// never drain their response; zero disables both deadlines.
    pub request_timeout: Duration,
    /// When set, trace every `/query` and `/query_batch` internally and
    /// log one structured line (with the full span tree) for each
    /// request whose total reaches the threshold. `None` disables both
    /// the logging and the always-on tracing it requires.
    pub slow_query: Option<Duration>,
    /// Default ranking parameters for requests that omit them.
    pub defaults: QueryParams,
}

impl ServerConfig {
    /// Sensible defaults for serving `store`: ephemeral loopback port,
    /// 4 workers, 1024-entry cache, 200 ms manifest polling, 10 s
    /// keep-alive idle reclaim, 10 s per-request receive deadline.
    #[must_use]
    pub fn new(store: impl Into<PathBuf>) -> Self {
        Self {
            store: store.into(),
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            load_threads: 4,
            cache_capacity: 1024,
            poll_interval: Duration::from_millis(200),
            keep_alive_idle: Duration::from_secs(10),
            request_timeout: Duration::from_secs(10),
            slow_query: None,
            defaults: QueryParams::default(),
        }
    }
}

/// Why the server failed to start or refresh.
#[derive(Debug)]
pub enum ServerError {
    /// The corpus store could not be read.
    Store(StoreError),
    /// The listener could not be bound or configured.
    Io(std::io::Error),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Store(e) => write!(f, "{e}"),
            Self::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Store(e) => Some(e),
            Self::Io(e) => Some(e),
        }
    }
}

impl From<StoreError> for ServerError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Everything the workers and the refresher share.
struct Ctx {
    store: PathBuf,
    load_threads: usize,
    cell: SnapshotCell,
    front: Front,
    poll_interval: Duration,
    /// `/corpus` body cached per served generation, so polling
    /// dashboards don't re-stat the store (manifest + every delta
    /// shard) from a worker thread on each hit. Entries also expire
    /// after `poll_interval`: the body embeds on-disk store stats, and
    /// a generation-only key would freeze them for as long as a stuck
    /// refresher pins the served generation — hiding exactly the
    /// disk-vs-served divergence a dashboard needs to see.
    corpus_info: Mutex<Option<(u64, Instant, Arc<str>)>>,
    shutdown: AtomicBool,
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the threads (they exit with the
/// process); call `shutdown` for a deterministic, graceful stop.
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    workers: Vec<std::thread::JoinHandle<()>>,
    refresher: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The store generation currently being served.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.ctx.cell.load().generation()
    }

    /// Live sketches in the served snapshot.
    #[must_use]
    pub fn sketches(&self) -> usize {
        self.ctx.cell.load().index().len()
    }

    /// Live server counters.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.ctx.front.stats
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// join every worker and the refresher. Returns the final `/stats`
    /// payload.
    #[must_use = "the returned stats summary describes the server's whole life"]
    pub fn shutdown(self) -> String {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        for w in self.workers {
            let _ = w.join();
        }
        if let Some(r) = self.refresher {
            let _ = r.join();
        }
        let generation = self.ctx.cell.load().generation();
        self.ctx
            .front
            .stats
            .to_json(generation, self.ctx.front.cache.len())
    }
}

/// Load the store, bind the listener, and start the worker pool plus
/// the background refresher.
///
/// # Errors
///
/// [`ServerError`] when the store cannot be loaded or the address
/// cannot be bound.
pub fn start(config: ServerConfig) -> Result<ServerHandle, ServerError> {
    let snapshot = IndexSnapshot::from_store(&config.store, config.load_threads)?;
    let initial_generation = snapshot.generation();
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let ctx = Arc::new(Ctx {
        store: config.store,
        load_threads: config.load_threads,
        cell: SnapshotCell::new(snapshot),
        front: Front::new(
            config.defaults,
            config.cache_capacity,
            config.slow_query,
            "sketch-serve",
        ),
        poll_interval: config.poll_interval,
        corpus_info: Mutex::new(None),
        shutdown: AtomicBool::new(false),
    });
    // Until the refresher's first poll, the freshest on-disk generation
    // the process has observed is the one it just loaded.
    ctx.front
        .stats
        .store_generation
        .store(initial_generation, Ordering::Relaxed);

    let limits = ConnLimits {
        keep_alive_idle: config.keep_alive_idle,
        request_timeout: config.request_timeout,
    };
    // A failed spawn flags shutdown so the threads already started exit.
    let abort = |e: std::io::Error| {
        ctx.shutdown.store(true, Ordering::SeqCst);
        e
    };
    let workers = (0..config.threads.max(1))
        .map(|i| {
            let listener = listener.try_clone()?;
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name(format!("sketch-serve-{i}"))
                .spawn(move || {
                    conn::accept_loop(
                        &listener,
                        &ctx.shutdown,
                        &ctx.front.stats,
                        limits,
                        GET_PATHS,
                        |req, path| route(&ctx, req, path),
                    );
                })
        })
        .collect::<Result<Vec<_>, std::io::Error>>()
        .map_err(abort)?;

    let refresher = {
        let ctx = Arc::clone(&ctx);
        let interval = config.poll_interval;
        std::thread::Builder::new()
            .name("sketch-serve-refresh".to_string())
            .spawn(move || refresher_loop(&ctx, interval))
            .map_err(abort)?
    };

    Ok(ServerHandle {
        addr,
        ctx,
        workers,
        refresher: Some(refresher),
    })
}

fn refresher_loop(ctx: &Ctx, interval: Duration) {
    // Tick in small steps so shutdown is observed promptly even with
    // long poll intervals.
    let tick = interval.min(Duration::from_millis(50));
    let mut next_poll = Instant::now();
    while !ctx.shutdown.load(Ordering::Relaxed) {
        if Instant::now() >= next_poll {
            next_poll = Instant::now() + interval;
            // Contained like worker panics: an escaped panic here would
            // silently kill generation tracking while the server keeps
            // answering 200 from an ever-staler snapshot.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                refresh_with_generation(&ctx.cell, &ctx.store, ctx.load_threads)
            }));
            match outcome {
                Ok(Ok((outcome, store_generation))) => {
                    // Even an Unchanged poll refreshes the on-disk view,
                    // keeping the /metrics generation-lag gauge honest
                    // while a later refresh is failing.
                    ctx.front
                        .stats
                        .store_generation
                        .store(store_generation, Ordering::Relaxed);
                    match outcome {
                        RefreshOutcome::Unchanged => {}
                        RefreshOutcome::Refreshed(_) => {
                            ServerStats::bump(&ctx.front.stats.refreshes);
                        }
                        RefreshOutcome::Rebuilt => ServerStats::bump(&ctx.front.stats.rebuilds),
                    }
                }
                Ok(Err(e)) => {
                    // Keep serving the old snapshot; a mutation that is
                    // mid-write will be complete by a later poll.
                    eprintln!("sketch-serve: refresh failed (will retry): {e}");
                }
                Err(_) => {
                    ServerStats::bump(&ctx.front.stats.errors);
                    eprintln!("sketch-serve: refresh panicked (will retry)");
                }
            }
        }
        std::thread::sleep(tick);
    }
}

/// The endpoints that answer only `GET` (a 405 elsewhere allows `POST`).
const GET_PATHS: &[&str] = &["/healthz", "/stats", "/corpus", "/metrics"];

/// Dispatch one request by method and path.
fn route(ctx: &Ctx, req: &Request, path: &str) -> (u16, Body) {
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            ServerStats::bump(&ctx.front.stats.healthz);
            let snap = ctx.cell.load();
            (
                200,
                Body::Owned(format!(
                    "{{\"status\":\"ok\",\"generation\":{},\"sketches\":{}}}",
                    snap.generation(),
                    snap.index().len()
                )),
            )
        }
        ("GET", "/stats") => {
            ServerStats::bump(&ctx.front.stats.stats);
            let snap = ctx.cell.load();
            (
                200,
                Body::Owned(
                    ctx.front
                        .stats
                        .to_json(snap.generation(), ctx.front.cache.len()),
                ),
            )
        }
        ("GET", "/metrics") => {
            ServerStats::bump(&ctx.front.stats.metrics);
            let snap = ctx.cell.load();
            (
                200,
                Body::Text(
                    metrics::render_server(
                        &ctx.front.stats,
                        snap.generation(),
                        snap.index().len() as u64,
                        ctx.front.cache.len() as u64,
                        ctx.front.cache.evictions(),
                    ),
                    promtext::CONTENT_TYPE,
                ),
            )
        }
        ("GET", "/corpus") => {
            ServerStats::bump(&ctx.front.stats.corpus);
            let snap = ctx.cell.load();
            let generation = snap.generation();
            // Poison-tolerant: the slot only ever holds a complete
            // `Some`, so state after a caught panic is still valid.
            let cached = ctx
                .corpus_info
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone();
            if let Some((g, at, body)) = cached {
                if g == generation && at.elapsed() < ctx.poll_interval {
                    return (200, Body::Shared(body));
                }
            }
            match sketch_store::stat_corpus(&ctx.store) {
                Ok(info) => {
                    let body: Arc<str> = Arc::from(
                        format!(
                            "{{\"served_generation\":{},\"serving_sketches\":{},\
                             \"distinct_keys\":{},\"store\":{}}}",
                            generation,
                            snap.index().len(),
                            snap.index().distinct_keys(),
                            info.to_json()
                        )
                        .as_str(),
                    );
                    *ctx.corpus_info
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) =
                        Some((generation, Instant::now(), Arc::clone(&body)));
                    (200, Body::Shared(body))
                }
                // Transient: a compact can briefly race the stat read.
                Err(e) => (503, Body::Owned(api::render_error(&e.to_string()))),
            }
        }
        ("POST", "/query") => handle_query(ctx, &req.body),
        ("POST", "/query_batch") => handle_batch(ctx, &req.body),
        // The internal scatter-gather endpoints a coordinator fans out
        // to. They answer from the same snapshot as `/query` but ship
        // bit-exact candidate rows / reports instead of ranked JSON,
        // and are deliberately uncached — the coordinator caches merged
        // responses under the shard-generation vector.
        ("POST", "/shard_query") => {
            ServerStats::bump(&ctx.front.stats.shard);
            handle_shard_query(ctx, &req.body)
        }
        ("POST", "/shard_query_batch") => {
            ServerStats::bump(&ctx.front.stats.shard);
            handle_shard_batch(ctx, &req.body)
        }
        ("POST", "/shard_reports") => {
            ServerStats::bump(&ctx.front.stats.shard);
            handle_shard_reports(ctx, &req.body)
        }
        // Any other method on an endpoint that exists (HEAD, PUT,
        // OPTIONS, …) is 405, not "no such endpoint".
        (
            _,
            "/healthz" | "/stats" | "/corpus" | "/metrics" | "/query" | "/query_batch"
            | "/shard_query" | "/shard_query_batch" | "/shard_reports",
        ) => (405, Body::Owned(api::render_error("method not allowed"))),
        _ => (404, Body::Owned(api::render_error("no such endpoint"))),
    }
}

fn handle_query(ctx: &Ctx, body: &[u8]) -> (u16, Body) {
    let snap = ctx.cell.load();
    let generation = snap.generation();
    ctx.front.serve(
        Endpoint::Query,
        body,
        generation,
        // The parse hashes each key as it reads it; the selection below
        // runs only on a cache miss.
        |body, defaults| HashedRequest::parse_with(body, defaults, snap.query_config()),
        |req, trace| {
            let guard = trace.begin("build_query");
            let sketch = req.body.sketch();
            trace.end(guard);
            let guard = trace.begin("execute");
            let (results, plan) = engine::top_k_with_reports_traced(
                snap.index(),
                &sketch,
                &req.params.to_options(),
                req.params.alpha,
                trace,
            );
            trace.end(guard);
            ctx.front.stats.absorb_plan(&plan);
            let guard = trace.begin("render");
            let rendered = api::render_query_response(generation, &req.params, &results);
            trace.end(guard);
            (200, rendered, Some(generation))
        },
    )
}

fn handle_batch(ctx: &Ctx, body: &[u8]) -> (u16, Body) {
    let snap = ctx.cell.load();
    let generation = snap.generation();
    ctx.front.serve(
        Endpoint::Batch,
        body,
        generation,
        |body, defaults| HashedBatch::parse_with(body, defaults, snap.query_config()),
        |req, trace| {
            let guard = trace.begin("build_query");
            let sketches: Vec<_> = req.queries.iter().map(HashedQuery::sketch).collect();
            trace.end(guard);
            let (answers, plan) = engine::top_k_batch_with_reports_traced(
                snap.index(),
                &sketches,
                &req.params.to_options(),
                req.params.alpha,
                trace,
            );
            ctx.front.stats.absorb_plan(&plan);
            let guard = trace.begin("render");
            let rendered = api::render_batch_response(generation, &req.params, &answers);
            trace.end(guard);
            (200, rendered, Some(generation))
        },
    )
}

/// `POST /shard_query`: this worker's half of a scattered `/query` —
/// the shard-local candidate rows (estimated exhaustively; see
/// [`engine::shard_candidates`]), bit-exact on the wire.
fn handle_shard_query(ctx: &Ctx, body: &[u8]) -> (u16, Body) {
    let snap = ctx.cell.load();
    let req = match HashedRequest::parse_with(body, &ctx.front.defaults, snap.query_config()) {
        Ok(req) => req,
        Err(msg) => return (400, Body::Owned(api::render_error(&msg))),
    };
    let sketch = req.body.sketch();
    let rows = engine::shard_candidates(snap.index(), &sketch, &req.params.to_options());
    (
        200,
        Body::Owned(api::render_shard_query_response(
            snap.generation(),
            snap.index().len(),
            &rows,
        )),
    )
}

/// `POST /shard_query_batch`: the scattered `/query_batch` half — one
/// candidate-row list per query, all from one snapshot.
fn handle_shard_batch(ctx: &Ctx, body: &[u8]) -> (u16, Body) {
    let snap = ctx.cell.load();
    let req = match HashedBatch::parse_with(body, &ctx.front.defaults, snap.query_config()) {
        Ok(req) => req,
        Err(msg) => return (400, Body::Owned(api::render_error(&msg))),
    };
    let opts = req.params.to_options();
    let queries: Vec<_> = req
        .queries
        .iter()
        .map(|q| engine::shard_candidates(snap.index(), &q.sketch(), &opts))
        .collect();
    (
        200,
        Body::Owned(api::render_shard_batch_response(
            snap.generation(),
            snap.index().len(),
            &queries,
        )),
    )
}

/// `POST /shard_reports`: full uncertainty reports for the shard-local
/// docs the coordinator's merge actually shipped — the fetch that
/// early termination avoids for everything else.
fn handle_shard_reports(ctx: &Ctx, body: &[u8]) -> (u16, Body) {
    let snap = ctx.cell.load();
    let (req, docs) = match api::parse_shard_reports(body, &ctx.front.defaults, snap.query_config())
    {
        Ok(parsed) => parsed,
        Err(msg) => return (400, Body::Owned(api::render_error(&msg))),
    };
    let opts = req.params.to_options();
    let sketch = req.body.sketch();
    let mut sample = correlation_sketches::JoinSample::default();
    let reports: Vec<_> = docs
        .into_iter()
        .map(|doc| {
            engine::report_for_doc(
                snap.index(),
                &sketch,
                doc,
                &opts,
                req.params.alpha,
                &mut sample,
            )
        })
        .collect();
    (
        200,
        Body::Owned(api::render_shard_reports_response(
            snap.generation(),
            &reports,
        )),
    )
}
