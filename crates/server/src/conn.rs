//! The connection-serving loop shared by the single-store server and
//! the scatter-gather coordinator: accept on a shared non-blocking
//! listener, serve keep-alive requests through a caller-supplied
//! router, and apply the idle/slow-loris/shutdown discipline of
//! [`crate::http`] uniformly. Both front ends get byte-identical HTTP
//! behavior (timeouts, 400/408/413 handling, HEAD body suppression,
//! panic containment) because it is literally the same loop.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api;
use crate::http::{self, RecvError, Request};
use crate::stats::ServerStats;

/// A response body: freshly rendered JSON, JSON shared straight out of
/// the cache (no copy on the hit path), or a plain-text payload with an
/// explicit content type (the `/metrics` exposition).
pub(crate) enum Body {
    Owned(String),
    Shared(Arc<str>),
    Text(String, &'static str),
}

impl Body {
    pub(crate) fn as_str(&self) -> &str {
        match self {
            Self::Owned(s) | Self::Text(s, _) => s,
            Self::Shared(s) => s,
        }
    }

    pub(crate) fn content_type(&self) -> &'static str {
        match self {
            Self::Owned(_) | Self::Shared(_) => http::CONTENT_TYPE_JSON,
            Self::Text(_, ct) => ct,
        }
    }
}

impl From<String> for Body {
    fn from(s: String) -> Self {
        Self::Owned(s)
    }
}

/// Per-connection deadlines, taken from the front end's config.
#[derive(Clone, Copy)]
pub(crate) struct ConnLimits {
    pub keep_alive_idle: Duration,
    pub request_timeout: Duration,
}

/// One worker's accept loop: `accept → serve connection (keep-alive) →
/// accept`, with exponential idle backoff and per-connection panic
/// containment. `route` dispatches one request, given its path without
/// the query string, to `(status, body)`; a 405 on a path listed in
/// `get_paths` carries `Allow: GET`, on any other path `Allow: POST`.
pub(crate) fn accept_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    stats: &ServerStats,
    limits: ConnLimits,
    get_paths: &[&str],
    route: impl Fn(&Request, &str) -> (u16, Body),
) {
    // Idle accept polling backs off exponentially (1 ms → 25 ms) so a
    // quiet daemon isn't waking thousands of times a second, while a
    // burst after idle is still picked up within one tick; the cap also
    // keeps shutdown latency well under 50 ms.
    const IDLE_SLEEP_MIN: Duration = Duration::from_millis(1);
    const IDLE_SLEEP_MAX: Duration = Duration::from_millis(25);
    let mut idle_sleep = IDLE_SLEEP_MIN;
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                idle_sleep = IDLE_SLEEP_MIN;
                // A panic while serving must not unwind the worker out
                // of the pool — the fixed pool never respawns, so each
                // escaped panic would permanently shrink capacity until
                // the server silently stopped accepting.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_connection(stream, shutdown, stats, limits, get_paths, &route);
                }));
                if result.is_err() {
                    ServerStats::bump(&stats.errors);
                    eprintln!("sketch-serve: worker caught a panic while serving a connection");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(idle_sleep);
                idle_sleep = (idle_sleep * 2).min(IDLE_SLEEP_MAX);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    shutdown: &AtomicBool,
    stats: &ServerStats,
    limits: ConnLimits,
    get_paths: &[&str],
    route: &impl Fn(&Request, &str) -> (u16, Body),
) {
    let request_timeout = (!limits.request_timeout.is_zero()).then_some(limits.request_timeout);
    // Short read *and* write timeouts turn blocking syscalls into
    // ticks; `read_request` / `write_response_bounded` then apply the
    // same progress-credited deadline in both directions, so neither a
    // slow-loris sender nor a non-draining reader can pin the worker or
    // wedge shutdown (which joins workers).
    if stream.set_nonblocking(false).is_err()
        || stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .is_err()
        || stream
            .set_write_timeout(Some(Duration::from_millis(50)))
            .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut buf = Vec::new();
    loop {
        let idle_deadline = Some(Instant::now() + limits.keep_alive_idle);
        match http::read_request(
            &mut stream,
            &mut buf,
            shutdown,
            idle_deadline,
            request_timeout,
        ) {
            Ok(req) => {
                // Probes and load balancers routinely append query
                // parameters (`/healthz?probe=1`); routing only cares
                // about the path.
                let path = req
                    .path
                    .split_once('?')
                    .map_or(req.path.as_str(), |(path, _query)| path);
                let (status, body) = route(&req, path);
                // RFC 9110 §15.5.6: a 405 must carry `Allow`.
                let allow = (status == 405).then_some(if get_paths.contains(&path) {
                    "GET"
                } else {
                    "POST"
                });
                ServerStats::bump(&stats.requests);
                if status >= 300 {
                    ServerStats::bump(&stats.errors);
                }
                // RFC 9110: a response to HEAD must not carry a body —
                // a spec-compliant peer would leave the unread bytes in
                // its buffer and desync the next keep-alive response.
                let body_str = if req.method == "HEAD" {
                    ""
                } else {
                    body.as_str()
                };
                if http::write_response_bounded(
                    &mut stream,
                    &http::ResponsePayload {
                        status,
                        body: body_str,
                        keep_alive: req.keep_alive,
                        allow,
                        content_type: body.content_type(),
                    },
                    shutdown,
                    request_timeout,
                )
                .is_err()
                    || !req.keep_alive
                {
                    return;
                }
            }
            Err(RecvError::Closed | RecvError::Shutdown | RecvError::Io(_)) => return,
            Err(RecvError::Malformed(msg)) => {
                ServerStats::bump(&stats.requests);
                ServerStats::bump(&stats.errors);
                let _ = http::write_response_bounded(
                    &mut stream,
                    &http::ResponsePayload {
                        status: 400,
                        body: &api::render_error(&msg),
                        keep_alive: false,
                        allow: None,
                        content_type: http::CONTENT_TYPE_JSON,
                    },
                    shutdown,
                    request_timeout,
                );
                return;
            }
            Err(RecvError::TimedOut) => {
                ServerStats::bump(&stats.requests);
                ServerStats::bump(&stats.errors);
                let _ = http::write_response_bounded(
                    &mut stream,
                    &http::ResponsePayload {
                        status: 408,
                        body: &api::render_error("request timed out"),
                        keep_alive: false,
                        allow: None,
                        content_type: http::CONTENT_TYPE_JSON,
                    },
                    shutdown,
                    request_timeout,
                );
                return;
            }
            Err(RecvError::TooLarge) => {
                ServerStats::bump(&stats.requests);
                ServerStats::bump(&stats.errors);
                let _ = http::write_response_bounded(
                    &mut stream,
                    &http::ResponsePayload {
                        status: 413,
                        body: &api::render_error("request too large"),
                        keep_alive: false,
                        allow: None,
                        content_type: http::CONTENT_TYPE_JSON,
                    },
                    shutdown,
                    request_timeout,
                );
                return;
            }
        }
        // Finish the in-flight request, then honor shutdown.
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
    }
}
