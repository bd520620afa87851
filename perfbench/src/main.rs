//! **perfbench** — the repository's serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compute|sharded|robust_batch|hot_churn \
//!     [--seed 7] [--seconds 24] [--trace 0|1]
//! ```
//!
//! One run generates the seeded corpus, sets the serving stack up
//! (several times, to report a median set-up time), drives the named
//! workload in a closed loop, checks every answer against an in-process
//! oracle, and prints every metric by name and unit. The last line of
//! standard output is one JSON object: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1` (which also replays
//! the workload in process under spans). See `perfbench/README.md`.

mod alloc;
mod inputs;
mod load;
mod oracle;
mod serving;
mod spans;
mod summary;
mod traced;

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use correlation_sketches::{CorrelationSketch, SketchBuilder, SketchConfig};
use sketch_bench::ShardReplay;
use sketch_index::{ReportedResult, SketchIndex};
use sketch_server::api::{self, QueryBody, QueryParams};
use sketch_server::{HttpClient, IndexSnapshot, SnapshotCell};
use sketch_store::PackOptions;
use sketch_table::ColumnPair;

use crate::inputs::{Column, Inputs, SKETCH_SIZE};
use crate::load::{LoopResult, Req, WriteLog};
use crate::serving::{Serving, Topology};
use crate::summary::{median, percentile, Outcomes};
use crate::traced::Replayed;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is omitted; baselines are taken on it.
const DEFAULT_SEED: u64 = 7;
/// A seed kept out of tuning, for rechecking a claim.
const HELD_OUT_SEED: u64 = 1009;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Closed-loop warm-up before the measured window.
const WARM: Duration = Duration::from_secs(1);
/// Query columns the hot set cycles (fits the 1024-entry cache).
const HOT_QUERIES: usize = 64;
/// Queries per `/query_batch` request.
const BATCH_SIZE: usize = 4;
/// Distinct batches `robust_batch` cycles, each cycle under fresh ids.
const BATCHES: usize = 24;
/// Shared ranking fields of every `robust_batch` request.
const ROBUST_PARAMS: &str = "\"estimator\":\"pm1\",\"scorer\":\"s2\",\"plan\":\"two-pass\"";
/// Query requests the traced run replays (compute, sharded, hot_churn).
const REPLAY_QUERIES: usize = 128;
/// Batch requests the traced run replays (robust_batch).
const REPLAY_BATCHES: usize = 2;
/// Store partitions for the coordinator.
const SHARDS: usize = 2;
/// Pause between hot_churn writes: each write makes the whole hot set
/// miss once, and the misses must stay a small share of the run so the
/// hit path sets the pace.
const CHURN_PAUSE: Duration = Duration::from_millis(2200);
/// Writes made against the idle serving side after the loop, for
/// `fresh_lag_ms` and `write_ms`.
const PROBE_WRITES: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Compute,
    Sharded,
    RobustBatch,
    HotChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "compute" => Self::Compute,
            "sharded" => Self::Sharded,
            "robust_batch" => Self::RobustBatch,
            "hot_churn" => Self::HotChurn,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::Compute => "compute",
            Self::Sharded => "sharded",
            Self::RobustBatch => "robust_batch",
            Self::HotChurn => "hot_churn",
        }
    }

    fn topology(self) -> Topology {
        if self == Self::Sharded {
            Topology::Sharded
        } else {
            Topology::Single
        }
    }

    /// Reader connections (the hot_churn writer holds one more).
    /// robust_batch sends one batch at a time: two bootstrap-heavy
    /// batches at once on the two vCPUs contended with each other, and
    /// its rate then swung by a quarter from run to run.
    fn connections(self) -> usize {
        match self {
            Self::Compute => 2,
            Self::Sharded | Self::HotChurn | Self::RobustBatch => 1,
        }
    }

    /// The query columns the workload's requests draw on, in request
    /// order: every column for the compute path; a size-stratified pick
    /// for the hot set and the batches, each batch mixing sizes.
    fn picks(self, queries: &[ColumnPair]) -> Vec<usize> {
        match self {
            Self::Compute | Self::Sharded => (0..queries.len()).collect(),
            Self::HotChurn => inputs::stratified(queries, HOT_QUERIES),
            Self::RobustBatch => {
                inputs::interleave(&inputs::stratified(queries, BATCHES * BATCH_SIZE), BATCHES)
            }
        }
    }

    /// The percentile reported as `tail_ms`, fixed per workload. The
    /// kept part of a run leaves well over ten samples beyond it; on
    /// the compute path p99 still moved by 30% from run to run with the
    /// host's load, so these workloads report p90. On hot_churn the
    /// misses each write causes are a few tenths of a percent of the
    /// requests, so p99 flipped between hit and miss latency with the
    /// slices kept; p95 stays among the hits.
    fn tail_percentile(self) -> f64 {
        match self {
            Self::Compute | Self::Sharded => 90.0,
            Self::HotChurn => 95.0,
            Self::RobustBatch => 70.0,
        }
    }

    /// Whether figures come from the half of the window's slices with
    /// the least CPU time stolen by other guests of the host. Batch
    /// requests last longer than a slice, so `robust_batch` keeps all.
    fn keeps_quiet_slices(self) -> bool {
        self != Self::RobustBatch
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 24;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve") {
        std::process::exit(serve_child(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn serve_child(argv: &[String]) -> i32 {
    let mut topology = String::new();
    let mut threads = 1;
    let mut stores = Vec::new();
    let mut it = argv.iter();
    if let Some(t) = it.next() {
        topology.clone_from(t);
    }
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--threads", Some(v)) => threads = v.parse().unwrap_or(1),
            ("--store", Some(v)) => stores.push(PathBuf::from(v)),
            _ => {
                eprintln!("perfbench --serve: bad argument {flag:?}");
                return 2;
            }
        }
    }
    match serving::child_main(&topology, threads, &stores) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench --serve: {e}");
            1
        }
    }
}

/// A named metric value with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Removes the run's working directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Timings of one set-up, seconds.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    build: f64,
    pack: f64,
    shard: f64,
    boot: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.build + self.pack + self.shard + self.boot
    }
}

/// A booted serving stack and where its stores live.
struct Stack {
    serving: Serving,
    store: PathBuf,
    workers: Vec<PathBuf>,
    setups: Vec<SetupTimes>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Build, pack, (shard,) and boot `SETUP_REPS` times from scratch;
/// keep the last stack running.
fn set_up(inputs: &Inputs, topology: Topology, work: &Path, nproc: usize) -> Result<Stack, String> {
    let mut setups = Vec::new();
    let mut last: Option<Stack> = None;
    for rep in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            prev.serving.stop();
            let _ = std::fs::remove_dir_all(prev.store.parent().expect("rep dir"));
        }
        let dir = work.join(format!("rep-{rep}"));
        let store = dir.join("store");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let mut t = SetupTimes::default();
        let t0 = Instant::now();
        let sketches = correlation_sketches::build_sketches_parallel(
            &inputs.corpus,
            SketchConfig::with_size(SKETCH_SIZE),
            nproc,
        );
        t.build = secs(t0);
        let t0 = Instant::now();
        sketch_store::pack_corpus(
            &store,
            &sketches,
            &PackOptions {
                threads: nproc,
                ..PackOptions::default()
            },
        )
        .map_err(|e| format!("pack: {e}"))?;
        t.pack = secs(t0);
        drop(sketches);
        let mut workers = vec![store.clone()];
        if topology == Topology::Sharded {
            let t0 = Instant::now();
            let parts = dir.join("parts");
            let manifest = sketch_store::shard_corpus(&store, &parts, SHARDS, nproc)
                .map_err(|e| format!("shard: {e}"))?;
            t.shard = secs(t0);
            workers = manifest.shards.iter().map(|s| parts.join(&s.dir)).collect();
        }
        let t0 = Instant::now();
        let serving =
            Serving::spawn(topology, &workers, nproc).map_err(|e| format!("boot: {e}"))?;
        t.boot = secs(t0);
        setups.push(t);
        last = Some(Stack {
            serving,
            store,
            workers,
            setups: Vec::new(),
        });
    }
    let mut stack = last.expect("at least one set-up");
    stack.setups = setups;
    Ok(stack)
}

/// Nearest-rank percentile `p` of `values` in any order.
fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

fn median_of(setups: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(f).collect::<Vec<_>>())
}

/// The sketch the writers append and remove: the held-out query column
/// with the most distinct keys, sketched like the corpus, so every seed
/// writes a full-size sketch. Its id is not in the corpus.
fn churn_sketch(inputs: &Inputs) -> CorrelationSketch {
    SketchBuilder::new(SketchConfig::with_size(SKETCH_SIZE))
        .build(&inputs.queries[inputs::largest(&inputs.queries)])
}

/// The `batch`-th `robust_batch` request body in its `cycle`-th round.
fn robust_body(columns: &[Column], batch: usize, cycle: Option<u64>) -> String {
    inputs::batch_body(
        ROBUST_PARAMS,
        &columns[batch * BATCH_SIZE..(batch + 1) * BATCH_SIZE],
        cycle,
    )
}

fn read_stat(addr: SocketAddr, path: &str) -> Option<String> {
    let mut client = HttpClient::connect(addr).ok()?;
    let resp = client.get(path).ok()?;
    (resp.status == 200).then_some(resp.body)
}

fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Round-trip latencies of `n` requests, µs, ascending.
fn round_trips(
    addr: SocketAddr,
    n: usize,
    mut send: impl FnMut(&mut HttpClient) -> bool,
) -> (Vec<f64>, u64) {
    let mut out = Vec::with_capacity(n);
    let mut failed = 0;
    let Ok(mut client) = HttpClient::connect(addr) else {
        return (out, n as u64);
    };
    for _ in 0..n {
        let t = Instant::now();
        let ok = send(&mut client);
        out.push(t.elapsed().as_secs_f64() * 1e6);
        failed += u64::from(!ok);
    }
    out.sort_by(f64::total_cmp);
    (out, failed)
}

fn command_line(program: &str, args: &[&str], git_dir: Option<&Path>) -> String {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args);
    if let Some(dir) = git_dir {
        // Look only at this checkout's own repository, never a parent's.
        cmd.env("GIT_DIR", dir);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_escape(s: &str) -> String {
    let mut out = String::new();
    correlation_sketches::json::push_string(&mut out, s);
    out
}

#[allow(clippy::too_many_lines)]
fn run(args: &Args) -> Result<(), String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let workload = args.workload;
    let t_run = Instant::now();
    let out_dir = cwd.join(".perfbench").join("out");
    let work = WorkDir(
        cwd.join(".perfbench")
            .join(format!("work-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&work.0);
    std::fs::create_dir_all(&work.0).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;

    eprintln!(
        "perfbench: {} seed {} — generating inputs",
        workload.name(),
        args.seed
    );
    let mut inputs = inputs::generate(args.seed);
    let churn = churn_sketch(&inputs);
    let conns = workload.connections().min(nproc);

    let stack = set_up(&inputs, workload.topology(), &work.0, nproc)?;
    // The corpus columns are only needed to build sketches.
    let corpus_sketches = std::mem::take(&mut inputs.corpus).len();
    eprintln!(
        "perfbench: [{:.1} s] set up {} times, median {:.3} s",
        secs(t_run),
        stack.setups.len(),
        median_of(&stack.setups, SetupTimes::total)
    );

    // Request streams. Compute-path workloads give every request a
    // fresh id per round through the sequence, so no request is ever a
    // cache hit however the connections drift against each other; the
    // hot set keeps its ids so that it is served from the cache.
    let columns: Vec<Column> = workload
        .picks(&inputs.queries)
        .into_iter()
        .map(|i| Column::new(&inputs.queries[i]))
        .collect();
    let make = |seq: u64| -> Req {
        if workload == Workload::RobustBatch {
            let batch = (seq % BATCHES as u64) as usize;
            return Req {
                path: "/query_batch",
                body: robust_body(&columns, batch, Some(seq / BATCHES as u64)),
                key: batch as u32,
                queries: BATCH_SIZE as u32,
            };
        }
        let n = columns.len() as u64;
        let round = (workload != Workload::HotChurn).then_some(seq / n);
        Req {
            path: "/query",
            body: columns[(seq % n) as usize].query_body(round),
            key: (seq % n) as u32,
            queries: 1,
        }
    };
    // The oracle's body for a request key (the answer does not depend
    // on the id suffix).
    let key_body = |key: u32| -> String {
        if workload == Workload::RobustBatch {
            robust_body(&columns, key as usize, None)
        } else {
            columns[key as usize].query_body(None)
        }
    };
    let gen0 = read_stat(stack.serving.workers[0], "/healthz")
        .and_then(|b| api::extract_u64(&b, "generation").ok())
        .ok_or("serving side does not answer /healthz")?;

    // The measured closed loop (with the writer beside it for hot_churn).
    let window = Duration::from_secs(args.seconds);
    let addr = stack.serving.addr;
    let stop = AtomicBool::new(false);
    let ticks0 = load::cpu_ticks();
    let (lp, churned): (LoopResult, WriteLog) = std::thread::scope(|s| {
        let writer = (workload == Workload::HotChurn).then(|| {
            let (store, churn, stop) = (&stack.store, &churn, &stop);
            s.spawn(move || {
                load::churn_writes(addr, store, churn, nproc, stop, usize::MAX, CHURN_PAUSE)
            })
        });
        let lp = load::closed_loop(addr, conns, WARM, window, &make);
        stop.store(true, Ordering::SeqCst);
        let writes = writer
            .map(|w| w.join().expect("writer does not panic"))
            .unwrap_or_default();
        (lp, writes)
    });
    let steal_pct = load::steal_between(ticks0, load::cpu_ticks()).map_or(f64::NAN, |s| s * 100.0);
    let keep = workload.keeps_quiet_slices().then_some(lp.steal.len() / 2);
    let m = lp.measure(keep);
    // Serving-side figures read over HTTP before shutting down.
    let stats = read_stat(addr, "/stats").unwrap_or_default();
    let prom = read_stat(addr, "/metrics").unwrap_or_default();
    let cache_hits = api::extract_u64(&stats, "cache_hits").unwrap_or(0);
    let cache_misses = api::extract_u64(&stats, "cache_misses").unwrap_or(0);
    let cache_evictions = prom_value(&prom, "sketch_cache_evictions_total").unwrap_or(0.0);
    // Judge every distinct body against the oracle, before any probe
    // write moves the stores past the generation the loop was served at.
    eprintln!(
        "perfbench: [{:.1} s] checking {} distinct requests against the oracle",
        secs(t_run),
        lp.observed.keys().len()
    );
    let t_check = Instant::now();
    let mut outcomes = lp.outcomes;
    let wrong = match workload {
        Workload::Compute => {
            let snap = IndexSnapshot::from_store(&stack.store, nproc).map_err(|e| e.to_string())?;
            oracle::count_wrong(&lp.observed, nproc, &|key, tag| {
                (oracle::tag_generation(tag)? == gen0)
                    .then(|| oracle::expected_query(&snap, &key_body(key), gen0))
            })
        }
        Workload::Sharded => {
            let replay = ShardReplay::load(&stack.workers, nproc);
            oracle::count_wrong(&lp.observed, nproc, &|key, _tag| {
                Some(replay.expected_response(&key_body(key), &QueryParams::default()))
            })
        }
        Workload::RobustBatch => {
            let snap = IndexSnapshot::from_store(&stack.store, nproc).map_err(|e| e.to_string())?;
            oracle::count_wrong(&lp.observed, nproc, &|key, tag| {
                (oracle::tag_generation(tag)? == gen0)
                    .then(|| oracle::expected_batch_at(&snap, &key_body(key), gen0))
            })
        }
        Workload::HotChurn => {
            // Writes alternate append/remove from generation 0, so odd
            // generations hold the churned sketch and even ones do not.
            let base = SketchIndex::from_store(&stack.store, nproc).map_err(|e| e.to_string())?;
            let without = IndexSnapshot::new(base.clone());
            let with = oracle::with_sketch(&base, &churn);
            let answers: Vec<[(QueryParams, Vec<ReportedResult>); 2]> = (0..columns.len() as u32)
                .map(key_body)
                .map(|b| {
                    [
                        oracle::query_results(&without, &b),
                        oracle::query_results(&with, &b),
                    ]
                })
                .collect();
            oracle::count_wrong(&lp.observed, nproc, &|key, tag| {
                let g = oracle::tag_generation(tag)?;
                let (params, results) = &answers[key as usize][(g % 2) as usize];
                Some(api::render_query_response(g, params, results))
            })
        }
    };
    outcomes.reject(wrong);
    eprintln!(
        "perfbench: oracle check took {:.2} s, {wrong} wrong bodies",
        secs(t_check)
    );

    // Freshness on the idle serving side, the same for every workload:
    // write to the first worker's store and wait for that worker to
    // serve the new generation.
    eprintln!("perfbench: [{:.1} s] probe writes", secs(t_run));
    let writes = load::churn_writes(
        stack.serving.workers[0],
        &stack.workers[0],
        &churn,
        nproc,
        &AtomicBool::new(false),
        PROBE_WRITES,
        Duration::ZERO,
    );

    let mut probe_failures = Outcomes::default();
    let (http_rtt, shard_rtt) = if args.trace {
        let (http, f1) = round_trips(addr, 500, |c| {
            c.get("/healthz").is_ok_and(|r| r.status == 200)
        });
        let shard_bodies: Vec<String> = replay_queries(&columns, workload)
            .iter()
            .map(|(q, params)| api::render_shard_query_request(q, params))
            .collect();
        let mut i = 0;
        let (shard, f2) = round_trips(stack.serving.workers[0], shard_bodies.len(), |c| {
            i += 1;
            c.post("/shard_query", &shard_bodies[i - 1])
                .is_ok_and(|r| r.status == 200)
        });
        probe_failures.attempted += (http.len() + shard.len()) as u64;
        probe_failures.failed += f1 + f2;
        (http, shard)
    } else {
        (Vec::new(), Vec::new())
    };
    eprintln!(
        "perfbench: [{:.1} s] stopping the serving side",
        secs(t_run)
    );
    let rss_mb = stack.serving.peak_rss_mb().unwrap_or(f64::NAN);
    let Stack {
        serving,
        store,
        workers,
        setups,
    } = stack;
    serving.stop();

    outcomes.absorb(churned.outcomes);
    outcomes.absorb(writes.outcomes);
    outcomes.absorb(probe_failures);

    let lat = &m.latencies_ms;
    let tail_p = workload.tail_percentile();
    let tail_supported = summary::supports(lat.len(), tail_p);

    let end_to_end = vec![
        metric("qps", m.qps, "1/s"),
        metric("p50_ms", percentile(lat, 50.0), "ms"),
        metric("tail_ms", percentile(lat, tail_p), "ms"),
        metric("setup_s", median_of(&setups, SetupTimes::total), "s"),
        metric("rss_mb", rss_mb, "MB"),
        metric("fresh_lag_ms", median(&writes.lag_ms), "ms"),
    ];

    let rustc = command_line("rustc", &["-V"], None);
    let commit = command_line("git", &["rev-parse", "HEAD"], Some(&cwd.join(".git")));
    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"workload\":\"{}\",\"seed\":{},\"default_seed\":{DEFAULT_SEED},\"held_out_seed\":{HELD_OUT_SEED},\
         \"trace\":{},\"nproc\":{nproc},\"rustc\":{},\"commit\":{},\"tables\":{},\
         \"corpus_sketches\":{},\"query_columns\":{},\"sketch_size\":{SKETCH_SIZE},\
         \"connections\":{conns},\"writer_connections\":{},\"seconds\":{},\
         \"attempted\":{},\"failed\":{},\"error_rate\":{},\"measured_requests\":{},\
         \"measured_queries\":{},\"tail_percentile\":{tail_p},\"tail_supported\":{tail_supported},\
         \"churn_writes\":{},\"probe_writes\":{},\"cache_hits\":{cache_hits},\"cache_misses\":{cache_misses},\"slices\":{},\"slices_kept\":{},\"steal_pct\":{steal_pct:.2},\"kept_steal_pct\":{:.2}}}",
        workload.name(),
        args.seed,
        args.trace,
        json_escape(&rustc),
        json_escape(&commit),
        inputs::TABLES,
        corpus_sketches,
        inputs.queries.len(),
        u8::from(workload == Workload::HotChurn),
        args.seconds,
        outcomes.attempted,
        outcomes.failed,
        outcomes.error_rate(),
        lat.len(),
        m.queries,
        churned.write_ms.len(),
        writes.write_ms.len(),
        lp.steal.len(),
        m.slices,
        m.steal * 100.0,
    );

    let mut metrics = end_to_end;
    let mut correct = outcomes.failed == 0;
    if args.trace {
        let hit_rate = cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64;
        let mut layer = vec![
            metric("server.cache_hit_rate", hit_rate, "ratio"),
            metric("server.cache_evictions", cache_evictions, "count"),
            metric("http.rtt_us.p50", percentile(&http_rtt, 50.0), "us"),
            metric("http.rtt_us.p99", percentile(&http_rtt, 99.0), "us"),
            metric(
                "server.shard_rtt_us.p50",
                percentile(&shard_rtt, 50.0),
                "us",
            ),
            metric(
                "server.shard_rtt_us.p99",
                percentile(&shard_rtt, 99.0),
                "us",
            ),
            metric(
                "core.build_corpus_ms",
                median_of(&setups, |s| s.build) * 1e3,
                "ms",
            ),
            metric("store.pack_ms", median_of(&setups, |s| s.pack) * 1e3, "ms"),
        ];
        let (traced_metrics, traced_ok) = traced_run(
            &columns, workload, &store, &workers, &churn, nproc, &setups, &out_dir, args.seed,
        )?;
        layer.extend(traced_metrics);
        correct &= traced_ok;
        metrics = layer;
    }

    let path = out_dir.join(format!(
        "record-{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(&path, format!("{record}\n"));

    println!(
        "perfbench {} — seed {}, {} s window, trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("record  : {record}");
    println!(
        "load    : {} reader connection(s), {} requests / {} queries measured, {} writes during the loop, {} after",
        conns,
        lat.len(),
        m.queries,
        churned.write_ms.len(),
        writes.write_ms.len()
    );
    println!(
        "tail    : tail_ms is p{tail_p} of {} samples ({} beyond; supported: {tail_supported})",
        lat.len(),
        summary::beyond(lat.len(), tail_p)
    );
    let spread = |v: &[f64]| {
        format!(
            "min {:.1} p25 {:.1} p50 {:.1} max {:.1}",
            quantile(v, 0.0),
            quantile(v, 25.0),
            quantile(v, 50.0),
            quantile(v, 100.0)
        )
    };
    println!(
        "writes  : write_ms {} ms; fresh_lag_ms {} ms",
        spread(&writes.write_ms),
        spread(&writes.lag_ms)
    );
    println!(
        "errors  : error_rate {:.6} ratio ({} of {} failed)",
        outcomes.error_rate(),
        outcomes.failed,
        outcomes.attempted
    );
    for m in &metrics {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("run took {:.1} s", secs(t_run));

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcomes.attempted.max(1),
        outcomes.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// The distinct queries the traced run replays for `workload`, with
/// the ranking parameters they resolve to.
fn replay_queries(columns: &[Column], workload: Workload) -> Vec<(QueryBody, QueryParams)> {
    let defaults = QueryParams::default();
    replay_requests(columns, workload)
        .iter()
        .flat_map(|r| match r {
            Replayed::Query(b) => {
                let q = api::QueryRequest::parse(b.as_bytes(), &defaults).expect("own body");
                vec![(q.body, q.params)]
            }
            Replayed::Batch(b) => {
                let q = api::BatchRequest::parse(b.as_bytes(), &defaults).expect("own body");
                q.queries.into_iter().map(|body| (body, q.params)).collect()
            }
        })
        .collect()
}

/// Requests the traced run replays: a fixed prefix of the workload's
/// own distinct requests.
fn replay_requests(columns: &[Column], workload: Workload) -> Vec<Replayed> {
    match workload {
        Workload::RobustBatch => (0..REPLAY_BATCHES)
            .map(|b| Replayed::Batch(robust_body(columns, b, None)))
            .collect(),
        _ => columns[..columns.len().min(REPLAY_QUERIES)]
            .iter()
            .map(|c| Replayed::Query(c.query_body(None)))
            .collect(),
    }
}

#[allow(clippy::too_many_arguments)]
fn traced_run(
    columns: &[Column],
    workload: Workload,
    store: &Path,
    workers: &[PathBuf],
    churn: &CorrelationSketch,
    nproc: usize,
    setups: &[SetupTimes],
    out_dir: &Path,
    seed: u64,
) -> Result<(Vec<Metric>, bool), String> {
    eprintln!("perfbench: traced replay");
    let mut metrics = Vec::new();

    // Store writes and refresh, layer by layer, on the (stopped) store.
    let t0 = Instant::now();
    let base = SketchIndex::from_store(store, nproc).map_err(|e| e.to_string())?;
    metrics.push(metric("index.load_ms", secs(t0) * 1e3, "ms"));
    let cell = SnapshotCell::new(IndexSnapshot::new(base.clone()));
    let mut applied = base.generation();
    let mut current = base;
    let mut timings: [Vec<f64>; 6] = Default::default();
    let ids = [churn.id().to_string()];
    for w in 0..PROBE_WRITES {
        let t0 = Instant::now();
        let written = if w % 2 == 0 {
            sketch_store::append_corpus(store, std::slice::from_ref(churn), nproc)
        } else {
            sketch_store::remove_from_corpus(store, &ids, nproc)
        }
        .map_err(|e| format!("write: {e}"))?;
        timings[w % 2].push(secs(t0) * 1e3);
        let t0 = Instant::now();
        let (_, records) = sketch_store::read_deltas_since(store, applied, nproc)
            .map_err(|e| format!("read deltas: {e}"))?;
        timings[2].push(secs(t0) * 1e3);
        applied = written.generation;
        let t0 = Instant::now();
        let mut next = current.clone();
        timings[3].push(secs(t0) * 1e3);
        let t0 = Instant::now();
        next.apply_delta(&records)
            .map_err(|e| format!("apply delta: {e}"))?;
        timings[4].push(secs(t0) * 1e3);
        let t0 = Instant::now();
        sketch_server::snapshot::refresh(&cell, store, nproc)
            .map_err(|e| format!("refresh: {e}"))?;
        timings[5].push(secs(t0) * 1e3);
        if cell.load().generation() != written.generation {
            return Err("refresh did not reach the written generation".into());
        }
        current = next;
    }
    for (name, t) in [
        "store.append_ms",
        "store.remove_ms",
        "store.read_deltas_ms",
        "index.clone_ms",
        "index.apply_delta_ms",
        "server.refresh_ms",
    ]
    .into_iter()
    .zip(&timings)
    {
        metrics.push(metric(name, median(t), "ms"));
    }
    drop(current);
    drop(cell);

    // Partitions for the shard path (the sharded workload already has them).
    let mut shard_dirs = workers.to_vec();
    let shard_ms = if workload == Workload::Sharded {
        median_of(setups, |s| s.shard) * 1e3
    } else {
        let parts = store.parent().expect("rep dir").join("parts");
        let t0 = Instant::now();
        let manifest = sketch_store::shard_corpus(store, &parts, SHARDS, nproc)
            .map_err(|e| format!("shard: {e}"))?;
        let ms = secs(t0) * 1e3;
        shard_dirs = manifest.shards.iter().map(|s| parts.join(&s.dir)).collect();
        ms
    };
    metrics.push(metric("store.shard_ms", shard_ms, "ms"));

    let single = IndexSnapshot::from_store(store, nproc).map_err(|e| e.to_string())?;
    let shards: Vec<IndexSnapshot> = shard_dirs
        .iter()
        .map(|d| IndexSnapshot::from_store(d, nproc))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let requests = replay_requests(columns, workload);

    // Untraced pass, then the traced pass over the same requests.
    let mut rec = spans::Recorder::new(false);
    let t0 = Instant::now();
    traced::replay(
        &mut rec,
        &single,
        &shards,
        &requests,
        &mut traced::Counts::default(),
    );
    let plain_s = secs(t0);
    let mut rec = spans::Recorder::new(true);
    let mut counts = traced::Counts::default();
    alloc::arm(true);
    let t0 = Instant::now();
    let served = traced::replay(&mut rec, &single, &shards, &requests, &mut counts);
    let traced_s = secs(t0);
    alloc::arm(false);

    // The traced answers must be the engine's answers.
    let mut ok = counts.shard_mismatches == 0;
    for (req, body) in requests.iter().zip(&served) {
        let want = match req {
            Replayed::Query(b) => oracle::expected_query(&single, b, single.generation()),
            Replayed::Batch(b) => oracle::expected_batch_at(&single, b, single.generation()),
        };
        ok &= &want == body;
    }

    let spans_path = out_dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    if let Ok(f) = std::fs::File::create(&spans_path) {
        spans::write_jsonl(rec.spans(), std::io::BufWriter::new(f)).map_err(|e| e.to_string())?;
    }

    let layers = traced::layers(rec.spans());
    let q = counts.queries.max(1) as f64;
    let get = |name: &str| layers.get(name);
    for (name, key, allocs) in [
        ("api.parse_us", "api.parse", true),
        ("api.render_us", "api.render", false),
        ("core.build_query_us", "core.build_query", true),
        ("index.retrieval_us", "index.retrieval", false),
        ("index.execute_us", "index.execute", false),
        ("index.reports_us", "index.reports", false),
        ("index.shard_candidates_us", "index.shard_candidates", false),
        ("index.merge_us", "index.merge", false),
    ] {
        let l = get(key).ok_or_else(|| format!("no {key} spans"))?;
        metrics.push(metric(&format!("{name}.p50"), l.p50(), "us"));
        metrics.push(metric(&format!("{name}.p99"), l.p99(), "us"));
        if allocs {
            metrics.push(metric(
                &format!("{key}_allocs"),
                l.allocs_per_call(),
                "count",
            ));
            metrics.push(metric(
                &format!("{key}_alloc_bytes"),
                l.bytes_per_call(),
                "bytes",
            ));
        }
    }
    let execute = get("index.execute").expect("checked above");
    metrics.push(metric(
        "index.execute_allocs",
        execute.allocs_per_call(),
        "count",
    ));
    metrics.push(metric(
        "api.response_bytes",
        counts.response_bytes as f64 / counts.requests.max(1) as f64,
        "bytes",
    ));
    metrics.push(metric(
        "index.candidates",
        counts.candidates as f64 / q,
        "count",
    ));
    metrics.push(metric(
        "stats.expensive_calls",
        counts.plan.expensive_invocations as f64 / q,
        "count",
    ));
    metrics.push(metric(
        "stats.cheap_calls",
        counts.plan.cheap_invocations as f64 / q,
        "count",
    ));
    metrics.push(metric(
        "index.plan_pruned_ratio",
        counts.plan.pruned as f64 / counts.plan.candidates.max(1) as f64,
        "ratio",
    ));
    metrics.push(metric(
        "index.merge_shipped_reports",
        counts.shipped as f64 / q,
        "count",
    ));
    metrics.push(metric(
        "index.merge_terminated",
        counts.terminated as f64 / q,
        "count",
    ));
    metrics.push(metric(
        "api.wire_bytes",
        counts.wire_bytes as f64 / q,
        "bytes",
    ));
    metrics.push(metric(
        "trace.overhead_pct",
        (traced_s - plain_s) / plain_s * 100.0,
        "%",
    ));
    eprintln!(
        "perfbench: traced replay of {} requests: {:.3} s untraced, {:.3} s traced",
        requests.len(),
        plain_s,
        traced_s
    );
    Ok((metrics, ok))
}
