//! The public-request front half, pinned end to end on both front ends.
//!
//! `/query` and `/query_batch` run the same sequence on a single server
//! and on a scatter-gather coordinator: raw-body memo probe, parse,
//! fingerprint, cache probe, then the miss path, slow-query logging and
//! the trace splice. This file drives one fixed request script through
//! a single server and through a 2-shard coordinator and asserts the
//! exact counters that script must leave behind, that the latency
//! histogram counts only answered requests, and the ordered top-level
//! span names of a traced miss on each front end.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

use correlation_sketches::{CorrelationSketch, SketchBuilder, SketchConfig};
use sketch_server::{HttpClient, ServerConfig, ServerStats};
use sketch_store::{pack_corpus, PackOptions};
use sketch_table::ColumnPair;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("sketch-front-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sketch(table: &str, lo: usize, n: usize, scale: f64) -> CorrelationSketch {
    SketchBuilder::new(SketchConfig::with_size(64)).build(&ColumnPair::new(
        table,
        "k",
        "v",
        (lo..lo + n).map(|i| format!("key-{i}")).collect(),
        (lo..lo + n)
            .map(|i| ((i as f64) * 0.17).sin() * scale)
            .collect(),
    ))
}

/// Pack a 12-table corpus whose key ranges overlap the queries below.
fn packed_store(dir: &TempDir) -> PathBuf {
    let sketches: Vec<_> = (0..12)
        .map(|t| sketch(&format!("t{t}"), (t * 13) % 120, 80, (t + 1) as f64))
        .collect();
    let store = dir.0.join("union");
    pack_corpus(
        &store,
        &sketches,
        &PackOptions {
            shards: 2,
            threads: 1,
        },
    )
    .unwrap();
    store
}

fn column(lo: usize, f: f64) -> (String, String) {
    let keys: Vec<String> = (lo..lo + 80).map(|i| format!("\"key-{i}\"")).collect();
    let values: Vec<String> = (lo..lo + 80)
        .map(|i| format!("{:?}", ((i as f64) * f).sin() * 3.0))
        .collect();
    (keys.join(","), values.join(","))
}

/// The request script and the counters it must leave behind.
fn run_script(client: &mut HttpClient, stats: &ServerStats) -> Vec<String> {
    let (keys, values) = column(0, 0.17);
    let query = format!("{{\"id\":\"q\",\"keys\":[{keys}],\"values\":[{values}],\"k\":4}}");
    // The same request with its fields in another order: new raw bytes
    // (memo miss), same canonical fingerprint (cache hit).
    let reordered = format!("{{\"k\":4,\"values\":[{values}],\"keys\":[{keys}],\"id\":\"q\"}}");
    let batch = {
        let cols: Vec<String> = [(0, 0.17), (20, 0.21), (40, 0.13)]
            .iter()
            .enumerate()
            .map(|(i, &(lo, f))| {
                let (k, v) = column(lo, f);
                format!("{{\"id\":\"b{i}\",\"keys\":[{k}],\"values\":[{v}]}}")
            })
            .collect();
        format!("{{\"queries\":[{}],\"k\":3}}", cols.join(","))
    };
    // A fresh fingerprint (k differs), so the traced request misses and
    // runs the whole pipeline.
    let traced =
        format!("{{\"id\":\"q\",\"keys\":[{keys}],\"values\":[{values}],\"k\":5,\"trace\":true}}");

    let miss = client.post("/query", &query).unwrap();
    assert_eq!(miss.status, 200, "{}", miss.body);
    let memo_hit = client.post("/query", &query).unwrap();
    assert_eq!(memo_hit.body, miss.body);
    let parsed_hit = client.post("/query", &reordered).unwrap();
    assert_eq!(parsed_hit.body, miss.body);
    let batch_miss = client.post("/query_batch", &batch).unwrap();
    assert_eq!(batch_miss.status, 200, "{}", batch_miss.body);
    let batch_hit = client.post("/query_batch", &batch).unwrap();
    assert_eq!(batch_hit.body, batch_miss.body);
    let malformed = client.post("/query", "{\"keys\":[\"a\"],").unwrap();
    assert_eq!(malformed.status, 400, "{}", malformed.body);
    let traced = client.post("/query", &traced).unwrap();
    assert_eq!(traced.status, 200, "{}", traced.body);

    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    assert_eq!(load(&stats.query), 5, "query");
    assert_eq!(load(&stats.query_batch), 2, "query_batch");
    assert_eq!(load(&stats.cache_hits), 3, "cache_hits");
    assert_eq!(load(&stats.cache_misses), 3, "cache_misses");
    assert_eq!(load(&stats.batched_queries), 6, "batched_queries");
    assert_eq!(load(&stats.traced), 1, "traced");
    assert_eq!(load(&stats.errors), 1, "errors");
    let answered: u64 = stats.latency.snapshot().iter().sum();
    assert_eq!(
        answered, 6,
        "the 400 must stay out of the latency histogram"
    );

    top_level_spans(&traced.body)
}

/// Names of the depth-0 spans of a traced response, in order.
fn top_level_spans(body: &str) -> Vec<String> {
    let trace = &body[body.rfind(",\"trace\":{").expect("trace object")..];
    trace
        .split("{\"name\":\"")
        .skip(1)
        .filter_map(|span| {
            let (name, rest) = span.split_once('"')?;
            let depth = rest.split_once("\"depth\":")?.1;
            depth.starts_with("0,").then(|| name.to_string())
        })
        .collect()
}

#[test]
fn single_server_front_half_counts_and_spans() {
    let dir = TempDir::new("single");
    let store = packed_store(&dir);
    let handle = sketch_server::start(ServerConfig::new(&store)).unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let spans = run_script(&mut client, handle.stats());
    assert_eq!(
        spans,
        ["parse", "cache_probe", "build_query", "execute", "render"]
    );
    drop(client);
    let _ = handle.shutdown();
}

#[test]
fn coordinator_front_half_counts_and_spans() {
    let dir = TempDir::new("coord");
    let store = packed_store(&dir);
    let parts = dir.0.join("parts");
    let manifest = sketch_store::shard_corpus(&store, &parts, 2, 1).unwrap();
    let workers: Vec<_> = manifest
        .shards
        .iter()
        .map(|shard| {
            let mut config = ServerConfig::new(parts.join(&shard.dir));
            config.threads = 2;
            sketch_server::start(config).unwrap()
        })
        .collect();
    let mut config = sketch_server::CoordinatorConfig::new(
        workers.iter().map(|w| w.addr().to_string()).collect(),
    );
    config.threads = 2;
    // No worker mutates during the script, so a slow poll keeps the
    // cache key's generation vector fixed.
    config.poll_interval = Duration::from_secs(5);
    let coordinator = sketch_server::start_coordinator(config).unwrap();
    let mut client = HttpClient::connect(coordinator.addr()).unwrap();
    let spans = run_script(&mut client, coordinator.stats());
    assert_eq!(
        spans,
        ["parse", "cache_probe", "scatter", "gather", "render"]
    );
    drop(client);
    let _ = coordinator.shutdown();
    for w in workers {
        let _ = w.shutdown();
    }
}
