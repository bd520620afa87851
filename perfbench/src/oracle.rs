//! Expected response bytes, computed in process from the public API.
//!
//! Single-server answers are the engine's answers rendered at the
//! served generation; coordinator answers come from
//! `sketch_bench::ShardReplay`.
//! The load generator records every distinct body it received per
//! request and generation; after the run each one is compared byte for
//! byte with the oracle's.

use std::collections::HashMap;

use correlation_sketches::CorrelationSketch;
use sketch_index::{engine, ReportedResult, SketchIndex};
use sketch_server::api::{self, BatchRequest, QueryParams, QueryRequest};
use sketch_server::IndexSnapshot;

/// Every distinct body received for one request, with how often.
#[derive(Debug, Default)]
pub struct Seen {
    /// `(generation tag, body, count)`.
    pub variants: Vec<(String, String, u64)>,
}

/// Distinct bodies per request key, gathered during a run.
#[derive(Debug, Default)]
pub struct Observed {
    map: HashMap<u32, Seen>,
}

/// The generation part of a response: everything before its `scorer`
/// field (`{"generation":3,` or `{"generations":[0,0],"degraded":[],`).
#[must_use]
pub fn generation_tag(body: &str) -> &str {
    body.find(",\"scorer\"").map_or("", |at| &body[..at])
}

impl Observed {
    /// Record one 200 response to the request with key `key`.
    pub fn note(&mut self, key: u32, body: &str) {
        let tag = generation_tag(body);
        let seen = self.map.entry(key).or_default();
        if let Some(v) = seen
            .variants
            .iter_mut()
            .find(|(t, b, _)| t == tag && b == body)
        {
            v.2 += 1;
        } else {
            seen.variants.push((tag.to_string(), body.to_string(), 1));
        }
    }

    /// Merge another connection's observations.
    pub fn absorb(&mut self, other: Self) {
        for (key, seen) in other.map {
            let mine = self.map.entry(key).or_default();
            for (tag, body, n) in seen.variants {
                if let Some(v) = mine
                    .variants
                    .iter_mut()
                    .find(|(t, b, _)| *t == tag && *b == body)
                {
                    v.2 += n;
                } else {
                    mine.variants.push((tag, body, n));
                }
            }
        }
    }

    /// Request keys seen, ascending.
    #[must_use]
    pub fn keys(&self) -> Vec<u32> {
        let mut keys: Vec<u32> = self.map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Variants seen for `key`.
    #[must_use]
    pub fn get(&self, key: u32) -> Option<&Seen> {
        self.map.get(&key)
    }
}

/// Parse a served generation out of a single-server tag.
#[must_use]
pub fn tag_generation(tag: &str) -> Option<u64> {
    tag.strip_prefix("{\"generation\":")?.parse().ok()
}

/// Engine answer for one `/query` body against `snap`.
#[must_use]
pub fn query_results(snap: &IndexSnapshot, body: &str) -> (QueryParams, Vec<ReportedResult>) {
    let req =
        QueryRequest::parse(body.as_bytes(), &QueryParams::default()).expect("own body parses");
    let sketch = snap.build_query(&req.body.id, req.body.keys, req.body.values);
    let results = engine::top_k_with_reports(
        snap.index(),
        &sketch,
        &req.params.to_options(),
        req.params.alpha,
    );
    (req.params, results)
}

/// Expected `/query` body at `generation`.
#[must_use]
pub fn expected_query(snap: &IndexSnapshot, body: &str, generation: u64) -> String {
    let (params, results) = query_results(snap, body);
    api::render_query_response(generation, &params, &results)
}

/// Expected `/query_batch` body at `generation`.
#[must_use]
pub fn expected_batch_at(snap: &IndexSnapshot, body: &str, generation: u64) -> String {
    let req =
        BatchRequest::parse(body.as_bytes(), &QueryParams::default()).expect("own body parses");
    let sketches: Vec<CorrelationSketch> = req
        .queries
        .into_iter()
        .map(|q| snap.build_query(&q.id, q.keys, q.values))
        .collect();
    let answers = engine::top_k_batch_with_reports(
        snap.index(),
        &sketches,
        &req.params.to_options(),
        req.params.alpha,
    );
    api::render_batch_response(generation, &req.params, &answers)
}

/// A copy of `base` with `extra` appended — the corpus state after an
/// append of `extra`, bit-equivalent to applying the store's delta.
#[must_use]
pub fn with_sketch(base: &SketchIndex, extra: &CorrelationSketch) -> IndexSnapshot {
    let mut index = base.clone();
    index
        .insert(extra.clone())
        .expect("same hasher as the corpus");
    IndexSnapshot::new(index)
}

/// Count responses whose body differs from `expected(key, tag)`.
/// `expected` is called once per distinct `(key, tag)` seen; keys are
/// checked on up to `threads` threads.
#[must_use]
pub fn count_wrong(
    observed: &Observed,
    threads: usize,
    expected: &(dyn Fn(u32, &str) -> Option<String> + Sync),
) -> u64 {
    let keys = observed.keys();
    let chunk = keys.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut wrong = 0;
                    for &key in part {
                        let seen = observed.get(key).expect("key came from the map");
                        let mut cache: Vec<(&str, Option<String>)> = Vec::new();
                        for (tag, body, n) in &seen.variants {
                            let want = match cache.iter().find(|(t, _)| t == tag) {
                                Some((_, w)) => w.clone(),
                                None => {
                                    let w = expected(key, tag);
                                    cache.push((tag, w.clone()));
                                    w
                                }
                            };
                            if want.as_deref() != Some(body.as_str()) {
                                wrong += n;
                            }
                        }
                    }
                    wrong
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle threads do not panic"))
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_and_variants() {
        let a = "{\"generation\":3,\"scorer\":\"s1\",\"x\":1}";
        let b = "{\"generation\":4,\"scorer\":\"s1\",\"x\":1}";
        assert_eq!(generation_tag(a), "{\"generation\":3");
        assert_eq!(tag_generation(generation_tag(b)), Some(4));
        assert_eq!(
            generation_tag("{\"generations\":[0,1],\"degraded\":[],\"scorer\":\"s1\"}"),
            "{\"generations\":[0,1],\"degraded\":[]"
        );
        assert_eq!(generation_tag("{\"error\":\"x\"}"), "");

        let mut left = Observed::default();
        left.note(7, a);
        left.note(7, a);
        left.note(7, b);
        let mut right = Observed::default();
        right.note(7, a);
        right.note(9, "{\"generation\":3,\"scorer\":\"s1\",\"x\":2}");
        left.absorb(right);
        assert_eq!(left.keys(), vec![7, 9]);
        assert_eq!(left.get(7).unwrap().variants.len(), 2);
        assert_eq!(left.get(7).unwrap().variants[0].2, 3);

        // The oracle answers `a` at generation 3 and `b` at generation 4,
        // so only key 9's body is wrong.
        let oracle =
            |_key: u32, tag: &str| Some(if tag.ends_with('4') { b } else { a }.to_string());
        assert_eq!(count_wrong(&left, 2, &oracle), 1);
        let none = |_key: u32, _tag: &str| None;
        assert_eq!(count_wrong(&left, 1, &none), 5);
    }
}
