//! The public-request front half shared by the single-store server and
//! the scatter-gather coordinator: `/query` and `/query_batch` both run
//! raw-body memo probe → parse → fingerprint → cache probe → miss →
//! slow-query log and trace splice, and only the miss differs between
//! the four handlers. [`Front::serve`] runs that sequence once, generic
//! over the endpoint's parsed request and its miss closure (static
//! dispatch, nothing allocated beyond what the steps themselves need).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sketch_obs::Trace;

use crate::api::{self, BatchRequestOf, KeySink, QueryParams, QueryRequestOf};
use crate::cache::{self, ParseMemo, QueryCache};
use crate::conn::Body;
use crate::stats::ServerStats;

/// Which public endpoint a request arrived on: picks its request
/// counter and its parse memo. The two memos stay separate so a body
/// posted to both endpoints can never alias.
pub(crate) enum Endpoint {
    Query,
    Batch,
}

/// What the front half reads off a parsed request.
pub(crate) trait FrontRequest {
    /// The canonical cache fingerprint.
    fn fingerprint(&self) -> u128;
    /// The `"trace": true` flag.
    fn wants_trace(&self) -> bool;
    /// Queries accounted to `batched_queries` (0 for a `/query`).
    fn batched(&self) -> u64;
}

impl<K: KeySink> FrontRequest for QueryRequestOf<K> {
    fn fingerprint(&self) -> u128 {
        Self::fingerprint(self)
    }
    fn wants_trace(&self) -> bool {
        self.trace
    }
    fn batched(&self) -> u64 {
        0
    }
}

impl<K: KeySink> FrontRequest for BatchRequestOf<K> {
    fn fingerprint(&self) -> u128 {
        Self::fingerprint(self)
    }
    fn wants_trace(&self) -> bool {
        self.trace
    }
    fn batched(&self) -> u64 {
        u64::try_from(self.queries.len()).unwrap_or(u64::MAX)
    }
}

/// The state the front half needs, embedded in both front ends' `Ctx`.
pub(crate) struct Front {
    pub(crate) defaults: QueryParams,
    pub(crate) cache: QueryCache,
    /// Raw-body-hash → `(canonical fingerprint, batched queries, trace
    /// flag)` memos, so a repeated byte-identical body skips the JSON
    /// parse in front of the cache (the parse dominates the warm path on
    /// large queries). The hit path never parses, so the memo carries
    /// what it still accounts: the batch's query count and whether to
    /// splice a span tree in.
    memo_query: ParseMemo<(u128, u64, bool)>,
    memo_batch: ParseMemo<(u128, u64, bool)>,
    slow_query: Option<Duration>,
    pub(crate) stats: ServerStats,
    log_tag: &'static str,
}

impl Front {
    pub(crate) fn new(
        defaults: QueryParams,
        cache_capacity: usize,
        slow_query: Option<Duration>,
        log_tag: &'static str,
    ) -> Self {
        // With caching disabled a memo could never produce a hit, so it
        // is disabled too rather than paying its insert on every miss.
        let memo_capacity = cache::memo_capacity(cache_capacity);
        Self {
            defaults,
            cache: QueryCache::new(cache_capacity),
            memo_query: ParseMemo::new(memo_capacity),
            memo_batch: ParseMemo::new(memo_capacity),
            slow_query,
            stats: ServerStats::default(),
            log_tag,
        }
    }

    /// Answer one `/query` or `/query_batch` body against the cache at
    /// `generation`, counting it and recording its latency when it is
    /// answered (microsecond 400 rejections would otherwise drag the
    /// percentiles down and mask real served-query latency).
    ///
    /// `parse` reads the body against the defaults. `miss` computes an
    /// uncached answer and returns `(status, rendered body, generation
    /// to cache it under)`; the front half caches the *untraced* body
    /// before the trace splice, so a traced request and its untraced
    /// twin always read back byte-identical payloads.
    pub(crate) fn serve<R: FrontRequest>(
        &self,
        endpoint: Endpoint,
        body: &[u8],
        generation: u64,
        parse: impl FnOnce(&[u8], &QueryParams) -> Result<R, String>,
        miss: impl FnOnce(R, &mut Trace) -> (u16, String, Option<u64>),
    ) -> (u16, Body) {
        let (counter, memo) = match endpoint {
            Endpoint::Query => (&self.stats.query, &self.memo_query),
            Endpoint::Batch => (&self.stats.query_batch, &self.memo_batch),
        };
        ServerStats::bump(counter);
        let t0 = Instant::now();
        let response = self.answer(memo, body, generation, parse, miss);
        if response.0 < 300 {
            self.stats
                .latency
                .record_us(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        }
        response
    }

    fn answer<R: FrontRequest>(
        &self,
        memo: &ParseMemo<(u128, u64, bool)>,
        body: &[u8],
        generation: u64,
        parse: impl FnOnce(&[u8], &QueryParams) -> Result<R, String>,
        miss: impl FnOnce(R, &mut Trace) -> (u16, String, Option<u64>),
    ) -> (u16, Body) {
        let raw = api::raw_fingerprint(body);
        let mut trace = Trace::new(self.slow_query.is_some());
        // A memo hit proves these exact bytes parsed to this canonical
        // fingerprint (and trace flag) before — skip the parse when the
        // answer is cached.
        if let Some((fp, batched, want_trace)) = memo.get(raw) {
            if want_trace && !trace.is_enabled() {
                trace = Trace::enabled();
            }
            if let Some(cached) = self.probe(&mut trace, fp, generation) {
                return self.hit(&trace, want_trace, batched, cached);
            }
        } else if !trace.is_enabled() && api::wants_trace_hint(body) {
            trace = Trace::enabled();
        }
        let guard = trace.begin("parse");
        let parsed = parse(body, &self.defaults);
        trace.end(guard);
        let req = match parsed {
            Ok(req) => req,
            Err(msg) => {
                return self.finish(&trace, false, 400, Body::Owned(api::render_error(&msg)))
            }
        };
        let want_trace = req.wants_trace();
        if want_trace && !trace.is_enabled() {
            trace = Trace::enabled();
        }
        let fp = req.fingerprint();
        let batched = req.batched();
        memo.put(raw, (fp, batched, want_trace));
        if let Some(cached) = self.probe(&mut trace, fp, generation) {
            return self.hit(&trace, want_trace, batched, cached);
        }
        ServerStats::bump(&self.stats.cache_misses);
        self.stats
            .batched_queries
            .fetch_add(batched, Ordering::Relaxed);
        let (status, rendered, cache_at) = miss(req, &mut trace);
        if let Some(cache_generation) = cache_at {
            self.cache
                .put((fp, cache_generation), Arc::from(rendered.as_str()));
        }
        self.finish(&trace, want_trace, status, Body::Owned(rendered))
    }

    fn probe(&self, trace: &mut Trace, fp: u128, generation: u64) -> Option<Arc<str>> {
        let guard = trace.begin("cache_probe");
        let cached = self.cache.get(&(fp, generation));
        trace.end(guard);
        cached
    }

    fn hit(&self, trace: &Trace, want_trace: bool, batched: u64, cached: Arc<str>) -> (u16, Body) {
        ServerStats::bump(&self.stats.cache_hits);
        self.stats
            .batched_queries
            .fetch_add(batched, Ordering::Relaxed);
        self.finish(trace, want_trace, 200, Body::Shared(cached))
    }

    /// Close out a request: log it when it crossed the slow-query
    /// threshold, then splice the span tree into the response when the
    /// request asked for it. A disabled trace returns `(status, body)`
    /// untouched — the zero-cost path every normal request takes.
    fn finish(&self, trace: &Trace, want_trace: bool, status: u16, body: Body) -> (u16, Body) {
        if !trace.is_enabled() {
            return (status, body);
        }
        if let Some(threshold) = self.slow_query {
            let total_us = trace.total_us();
            let threshold_us = u64::try_from(threshold.as_micros()).unwrap_or(u64::MAX);
            if total_us >= threshold_us {
                ServerStats::bump(&self.stats.slow_queries);
                eprintln!(
                    "{}: slow-query status={status} total_us={total_us} \
                     threshold_us={threshold_us} trace={}",
                    self.log_tag,
                    trace.render_json()
                );
            }
        }
        if want_trace {
            ServerStats::bump(&self.stats.traced);
            if status < 300 {
                let spliced = api::attach_trace(body.as_str(), &trace.render_json());
                return (status, Body::Owned(spliced));
            }
        }
        (status, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn front(slow_query: Option<Duration>) -> Front {
        Front::new(QueryParams::default(), 0, slow_query, "test")
    }

    #[test]
    fn disabled_trace_passes_the_body_through_untouched() {
        let front = front(Some(Duration::ZERO));
        let trace = Trace::disabled();
        let (status, body) = front.finish(&trace, false, 200, Body::Owned("{\"a\":1}".to_string()));
        assert_eq!(status, 200);
        assert_eq!(body.as_str(), "{\"a\":1}");
        assert_eq!(front.stats.slow_queries.load(Ordering::Relaxed), 0);
        assert_eq!(front.stats.traced.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn traced_success_gets_the_span_tree_spliced_in() {
        let front = front(None);
        let mut trace = Trace::enabled();
        let g = trace.begin("parse");
        trace.end(g);
        let (status, body) = front.finish(&trace, true, 200, Body::Owned("{\"a\":1}".to_string()));
        assert_eq!(status, 200);
        assert!(
            body.as_str().starts_with("{\"a\":1,\"trace\":{"),
            "{}",
            body.as_str()
        );
        assert!(body.as_str().contains("\"name\":\"parse\""));
        assert_eq!(front.stats.traced.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn traced_errors_count_but_keep_the_error_body() {
        let front = front(Some(Duration::ZERO));
        let trace = Trace::enabled();
        let (status, body) = front.finish(
            &trace,
            true,
            400,
            Body::Owned("{\"error\":\"x\"}".to_string()),
        );
        assert_eq!(status, 400);
        assert_eq!(body.as_str(), "{\"error\":\"x\"}");
        assert_eq!(front.stats.traced.load(Ordering::Relaxed), 1);
        // A zero threshold marks every traced request slow.
        assert_eq!(front.stats.slow_queries.load(Ordering::Relaxed), 1);
    }
}
