//! The traced run: replay a workload's distinct requests in process,
//! calling each layer's public functions in pipeline order — once
//! through the single-server path under a `request` root span, then
//! through the 2-shard coordinator path under a `coordinator` root.
//!
//! Spans time the benchmark's own calls from outside; nothing inside
//! the program is instrumented. `index.execute` times
//! `engine::top_k_with_plan_stats`, which repeats the retrieval the
//! `index.retrieval` span timed just before it, so its self time is
//! reported as the execute span minus that retrieval (estimate plus
//! rank).

use std::collections::BTreeMap;

use correlation_sketches::JoinSample;
use sketch_index::{
    engine, merge_shard_candidates, PlanStats, ReportedResult, ShardCandidate, ShardRows,
};
use sketch_server::api::{self, BatchRequest, QueryBody, QueryParams, QueryRequest, ShardState};
use sketch_server::IndexSnapshot;

use crate::spans::{self_times_ns, Recorder, Span};
use crate::summary::percentile;

/// One request to replay.
pub enum Replayed {
    /// A `/query` body.
    Query(String),
    /// A `/query_batch` body.
    Batch(String),
}

/// Exact counts gathered at the same boundaries as the spans.
#[derive(Debug, Default)]
pub struct Counts {
    /// Queries replayed.
    pub queries: u64,
    /// Overlap candidates retrieved, summed over queries.
    pub candidates: u64,
    /// Planner statistics summed over queries.
    pub plan: PlanStats,
    /// Shard request and response bytes, summed over queries.
    pub wire_bytes: u64,
    /// Reports shipped by the bound merge, summed over queries.
    pub shipped: u64,
    /// Candidates the bound merge terminated, summed over queries.
    pub terminated: u64,
    /// Response bytes rendered, summed over requests.
    pub response_bytes: u64,
    /// Requests replayed.
    pub requests: u64,
    /// Coordinator answers whose results differ from the single-server
    /// answer for the same query.
    pub shard_mismatches: u64,
}

fn results_part(body: &str) -> &str {
    body.find(",\"results\":").map_or(body, |at| &body[at..])
}

/// Replay `requests` once through both pipelines, recording into `rec`
/// (which may be disabled). Returns the rendered single-server bodies.
pub fn replay(
    rec: &mut Recorder,
    single: &IndexSnapshot,
    shards: &[IndexSnapshot],
    requests: &[Replayed],
    counts: &mut Counts,
) -> Vec<String> {
    let defaults = QueryParams::default();
    let mut bodies = Vec::with_capacity(requests.len());
    for request in requests {
        let root = rec.begin("request");
        let (queries, params, batch) = match request {
            Replayed::Query(body) => {
                let req = rec
                    .leaf("api.parse", || {
                        QueryRequest::parse(body.as_bytes(), &defaults)
                    })
                    .expect("own body parses");
                (vec![req.body], req.params, false)
            }
            Replayed::Batch(body) => {
                let req = rec
                    .leaf("api.parse", || {
                        BatchRequest::parse(body.as_bytes(), &defaults)
                    })
                    .expect("own body parses");
                (req.queries, req.params, true)
            }
        };
        let opts = params.to_options();
        let mut answers: Vec<Vec<ReportedResult>> = Vec::with_capacity(queries.len());
        for q in &queries {
            let (keys, values) = (q.keys.clone(), q.values.clone());
            let sketch = rec.leaf("core.build_query", || {
                single.build_query(&q.id, keys, values)
            });
            let hits = rec.leaf("index.retrieval", || {
                single
                    .index()
                    .overlap_candidates(&sketch, opts.overlap_candidates)
            });
            let (results, plan) = rec.leaf("index.execute", || {
                engine::top_k_with_plan_stats(single.index(), &sketch, &opts)
            });
            let reported: Vec<ReportedResult> = rec.leaf("index.reports", || {
                let mut sample = JoinSample::default();
                results
                    .into_iter()
                    .map(|result| ReportedResult {
                        report: engine::report_for_doc(
                            single.index(),
                            &sketch,
                            result.doc,
                            &opts,
                            params.alpha,
                            &mut sample,
                        ),
                        result,
                    })
                    .collect()
            });
            counts.queries += 1;
            counts.candidates += hits.len() as u64;
            counts.plan.absorb(&plan);
            answers.push(reported);
        }
        let body = rec.leaf("api.render", || {
            if batch {
                api::render_batch_response(single.generation(), &params, &answers)
            } else {
                api::render_query_response(single.generation(), &params, &answers[0])
            }
        });
        rec.end(root);
        counts.requests += 1;
        counts.response_bytes += body.len() as u64;
        bodies.push(body);

        // The same queries through the coordinator's two phases, under a
        // root of their own; their results must match the single server's.
        let root = rec.begin("coordinator");
        for (q, reported) in queries.iter().zip(&answers) {
            let coordinator = shard_path(rec, shards, q, &params, counts);
            let single_body = api::render_query_response(single.generation(), &params, reported);
            if results_part(&coordinator) != results_part(&single_body) {
                counts.shard_mismatches += 1;
            }
        }
        rec.end(root);
    }
    bodies
}

/// The coordinator's two phases for one query, from the public API:
/// per-shard candidate rows over the wire format, the bound merge, then
/// reports fetched from the shards that own the winners.
fn shard_path(
    rec: &mut Recorder,
    shards: &[IndexSnapshot],
    q: &QueryBody,
    params: &QueryParams,
    counts: &mut Counts,
) -> String {
    let opts = params.to_options();
    let open = rec.begin("shard.query");
    let mut sketches = Vec::with_capacity(shards.len());
    let mut rows: Vec<Vec<ShardCandidate>> = Vec::with_capacity(shards.len());
    for shard in shards {
        let request = rec.leaf("api.wire", || api::render_shard_query_request(q, params));
        counts.wire_bytes += request.len() as u64;
        let (keys, values) = (q.keys.clone(), q.values.clone());
        let sketch = rec.leaf("shard.build_query", || {
            shard.build_query(&q.id, keys, values)
        });
        let local = rec.leaf("index.shard_candidates", || {
            engine::shard_candidates(shard.index(), &sketch, &opts)
        });
        let parsed = rec.leaf("api.wire", || {
            let wire =
                api::render_shard_query_response(shard.generation(), shard.index().len(), &local);
            counts.wire_bytes += wire.len() as u64;
            api::parse_shard_query_response(&wire).expect("own shard response parses")
        });
        sketches.push(sketch);
        rows.push(parsed.rows);
    }
    let shard_rows: Vec<ShardRows<'_>> = rows
        .iter()
        .zip(shards)
        .map(|(r, shard)| ShardRows {
            rows: r,
            sketches: shard.index().len(),
        })
        .collect();
    let outcome = rec.leaf("index.merge", || merge_shard_candidates(&shard_rows, &opts));
    counts.shipped += outcome.shipped as u64;
    counts.terminated += outcome.terminated as u64;
    for (i, shard) in shards.iter().enumerate() {
        let docs: Vec<_> = outcome
            .winners
            .iter()
            .filter(|w| w.shard == i)
            .map(|w| w.local_doc)
            .collect();
        if !docs.is_empty() {
            let request = api::render_shard_reports_request(q, params, &docs);
            counts.wire_bytes += request.len() as u64;
            let mut sample = JoinSample::default();
            let reports: Vec<_> = docs
                .iter()
                .map(|&d| {
                    engine::report_for_doc(
                        shard.index(),
                        &sketches[i],
                        d,
                        &opts,
                        params.alpha,
                        &mut sample,
                    )
                })
                .collect();
            counts.wire_bytes +=
                api::render_shard_reports_response(shard.generation(), &reports).len() as u64;
        }
    }
    let results: Vec<ReportedResult> = rec.leaf("index.shard_reports", || {
        let mut sample = JoinSample::default();
        outcome
            .winners
            .into_iter()
            .map(|w| ReportedResult {
                report: engine::report_for_doc(
                    shards[w.shard].index(),
                    &sketches[w.shard],
                    w.local_doc,
                    &opts,
                    params.alpha,
                    &mut sample,
                ),
                result: w.result,
            })
            .collect()
    });
    let states: Vec<ShardState> = shards
        .iter()
        .map(|s| ShardState {
            generation: s.generation(),
            degraded: false,
        })
        .collect();
    let body = rec.leaf("api.render_coordinator", || {
        api::render_coordinator_response(&states, params, outcome.merged, outcome.shipped, &results)
    });
    rec.end(open);
    body
}

/// Per-layer time and allocation figures from a span list.
#[derive(Debug, Default)]
pub struct Layer {
    /// Self time of each call, µs, ascending.
    pub self_us: Vec<f64>,
    /// Allocation calls summed over calls.
    pub allocs: u64,
    /// Bytes allocated summed over calls.
    pub alloc_bytes: u64,
}

impl Layer {
    /// Median self time, µs.
    #[must_use]
    pub fn p50(&self) -> f64 {
        percentile(&self.self_us, 50.0)
    }

    /// 99th-percentile self time, µs.
    #[must_use]
    pub fn p99(&self) -> f64 {
        percentile(&self.self_us, 99.0)
    }

    /// Calls recorded.
    #[must_use]
    pub fn calls(&self) -> usize {
        self.self_us.len()
    }

    /// Allocation calls per layer call.
    #[must_use]
    pub fn allocs_per_call(&self) -> f64 {
        self.allocs as f64 / self.calls().max(1) as f64
    }

    /// Bytes allocated per layer call.
    #[must_use]
    pub fn bytes_per_call(&self) -> f64 {
        self.alloc_bytes as f64 / self.calls().max(1) as f64
    }
}

/// Aggregate spans by name. `index.execute` gets the retrieval it
/// repeats subtracted (see the module docs).
#[must_use]
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    let mut last_retrieval: Option<(Option<usize>, u64)> = None;
    for (span, self_ns) in spans.iter().zip(selfs) {
        let mut ns = self_ns;
        match span.name {
            "index.retrieval" => last_retrieval = Some((span.parent, span.dur_ns())),
            "index.execute" => {
                if let Some((parent, retrieval)) = last_retrieval.take() {
                    if parent == span.parent {
                        ns = ns.saturating_sub(retrieval);
                    }
                }
            }
            _ => {}
        }
        let layer = out.entry(span.name).or_default();
        layer.self_us.push(ns as f64 / 1e3);
        layer.allocs += span.allocs.allocs;
        layer.alloc_bytes += span.allocs.bytes;
    }
    for layer in out.values_mut() {
        layer.self_us.sort_by(f64::total_cmp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocCount;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns: start,
            end_ns: end,
            allocs: AllocCount {
                allocs: 2,
                bytes: 64,
            },
        }
    }

    #[test]
    fn execute_self_time_drops_the_repeated_retrieval() {
        let spans = vec![
            span("request", None, 0, 10_000),
            span("index.retrieval", Some(0), 1_000, 2_000),
            span("index.execute", Some(0), 2_000, 6_000),
            span("api.render", Some(0), 6_000, 6_500),
        ];
        let l = layers(&spans);
        assert_eq!(l["index.execute"].self_us, vec![3.0]);
        assert_eq!(l["index.retrieval"].self_us, vec![1.0]);
        // The root's self time is what no child covers: 10 − 1 − 4 − 0.5.
        assert_eq!(l["request"].self_us, vec![4.5]);
        assert_eq!(l["api.render"].allocs_per_call(), 2.0);
        assert_eq!(l["api.render"].bytes_per_call(), 64.0);
    }
}
