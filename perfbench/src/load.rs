//! Closed-loop load and the store writer.
//!
//! Each connection sends its next request only after the previous
//! answer arrived, like an augmentation pipeline that waits for a
//! ranked answer before it sends the next query column. Connection `c`
//! of `C` sends requests `c, c + C, c + 2C, …` of one fixed sequence.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use correlation_sketches::CorrelationSketch;
use sketch_server::{api, HttpClient};

use crate::oracle::Observed;
use crate::summary::{median, Outcomes};

/// One request of a workload's sequence.
pub struct Req {
    /// Endpoint path.
    pub path: &'static str,
    /// Request body.
    pub body: String,
    /// Oracle key: requests with equal keys must get equal answers at
    /// equal generations.
    pub key: u32,
    /// Queries the request carries (a batch counts as its queries).
    pub queries: u32,
}

/// Length of one measurement slice.
pub const SLICE: Duration = Duration::from_millis(500);

/// One request completed inside the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The slice it completed in.
    pub slice: usize,
    /// When it started, seconds after the window opened (negative
    /// during warm-up).
    pub start_s: f64,
    /// Client-side latency, ms.
    pub latency_ms: f64,
    /// Queries it carried.
    pub queries: u32,
}

/// What a closed-loop run measured.
pub struct LoopResult {
    /// Requests completed inside the measured window.
    pub samples: Vec<Sample>,
    /// Share of CPU time the hypervisor stole in each slice of the
    /// window (`None` where `/proc/stat` is unavailable).
    pub steal: Vec<Option<f64>>,
    /// Every request sent, warm-up included; bodies are judged later.
    pub outcomes: Outcomes,
    /// Distinct 200 bodies per request key.
    pub observed: Observed,
}

/// Figures over the slices a run keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Queries completed per second (see [`LoopResult::measure`]).
    pub qps: f64,
    /// Latencies of the requests completed in kept slices, ms, ascending.
    pub latencies_ms: Vec<f64>,
    /// Queries completed in kept slices.
    pub queries: u64,
    /// Slices kept.
    pub slices: usize,
    /// Mean share of CPU time stolen in the kept slices.
    pub steal: f64,
}

impl LoopResult {
    /// Figures over the `keep` slices with the least stolen time, `qps`
    /// being the median of their per-slice rates; with `None`, over the
    /// whole window, `qps` being its overall rate. Requests that outlast
    /// a slice are counted with `None`: their queries are then credited
    /// to the window in proportion to the share of each request that
    /// fell inside it, so no run gains or loses a whole batch at the
    /// window's edges.
    #[must_use]
    pub fn measure(&self, keep: Option<usize>) -> Measured {
        let kept = quietest(&self.steal, keep.unwrap_or(self.steal.len()));
        let mut latencies_ms = Vec::new();
        let mut per_slice = vec![0u64; self.steal.len()];
        for s in self.samples.iter().filter(|s| kept[s.slice]) {
            latencies_ms.push(s.latency_ms);
            per_slice[s.slice] += u64::from(s.queries);
        }
        latencies_ms.sort_by(f64::total_cmp);
        let rates: Vec<f64> = per_slice
            .iter()
            .zip(&kept)
            .filter(|(_, &k)| k)
            .map(|(&q, _)| q as f64 / SLICE.as_secs_f64())
            .collect();
        let queries = per_slice.iter().sum();
        let steal = self
            .steal
            .iter()
            .zip(&kept)
            .filter_map(|(s, &k)| s.filter(|_| k))
            .sum::<f64>()
            / rates.len().max(1) as f64;
        let qps = match keep {
            Some(_) => median(&rates),
            None => self.work_in_window() / (self.steal.len().max(1) as f64 * SLICE.as_secs_f64()),
        };
        Measured {
            qps,
            latencies_ms,
            queries,
            slices: rates.len(),
            steal,
        }
    }

    /// Queries done inside the window, crediting each request's queries
    /// in proportion to the part of its span inside the window.
    fn work_in_window(&self) -> f64 {
        let window = self.steal.len() as f64 * SLICE.as_secs_f64();
        self.samples
            .iter()
            .map(|s| {
                let span = s.latency_ms / 1e3;
                let inside = (s.start_s + span).min(window) - s.start_s.max(0.0);
                f64::from(s.queries) * (inside / span.max(1e-9)).clamp(0.0, 1.0)
            })
            .sum()
    }
}

/// Which slices to keep: the `keep` with the least stolen time, ties to
/// the earlier slice; every slice when any steal reading is missing.
#[must_use]
pub fn quietest(steal: &[Option<f64>], keep: usize) -> Vec<bool> {
    if steal.iter().any(Option::is_none) || keep >= steal.len() {
        return vec![true; steal.len()];
    }
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| {
        steal[a]
            .unwrap_or(0.0)
            .total_cmp(&steal[b].unwrap_or(0.0))
            .then(a.cmp(&b))
    });
    let mut kept = vec![false; steal.len()];
    for &i in &order[..keep] {
        kept[i] = true;
    }
    kept
}

/// `(steal, total)` CPU ticks so far, from `/proc/stat`.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of the CPU time between two readings that was stolen.
#[must_use]
pub fn steal_between(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (a?, b?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

struct ConnResult {
    samples: Vec<Sample>,
    outcomes: Outcomes,
    observed: Observed,
}

/// Drive `conns` connections against `addr` for `warm` and then the
/// measured `window` (a whole number of [`SLICE`]s), sending `make(i)`
/// as the `i`-th request, while sampling stolen CPU time per slice.
#[must_use]
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    warm: Duration,
    window: Duration,
    make: &(dyn Fn(u64) -> Req + Sync),
) -> LoopResult {
    let conns = conns.max(1);
    let n_slices = (window.as_millis() / SLICE.as_millis()).max(1) as usize;
    let barrier = Barrier::new(conns + 1);
    let t0 = Instant::now() + Duration::from_millis(50);
    let window_start = t0 + warm;
    let end = window_start + SLICE * n_slices as u32;
    let (results, steal): (Vec<ConnResult>, Vec<Option<f64>>) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut client = HttpClient::connect(addr).ok();
                    let mut out = ConnResult {
                        samples: Vec::with_capacity(1 << 16),
                        outcomes: Outcomes::default(),
                        observed: Observed::default(),
                    };
                    barrier.wait();
                    sleep_until(t0);
                    let mut seq = c as u64;
                    loop {
                        let req = make(seq);
                        seq += conns as u64;
                        if client.is_none() {
                            client = HttpClient::connect(addr).ok();
                        }
                        let start = Instant::now();
                        if start >= end {
                            break;
                        }
                        let resp = client.as_mut().map(|cl| cl.post(req.path, &req.body));
                        let done = Instant::now();
                        let ok = match resp {
                            Some(Ok(r)) if r.status == 200 => {
                                out.observed.note(req.key, &r.body);
                                true
                            }
                            Some(Ok(_)) => false,
                            _ => {
                                // Transport failure: reconnect on the next request.
                                client = None;
                                std::thread::sleep(Duration::from_millis(1));
                                false
                            }
                        };
                        out.outcomes.record(ok);
                        if done >= window_start && done < end {
                            out.samples.push(Sample {
                                slice: ((done - window_start).as_nanos() / SLICE.as_nanos())
                                    as usize,
                                start_s: if start >= window_start {
                                    (start - window_start).as_secs_f64()
                                } else {
                                    -(window_start - start).as_secs_f64()
                                },
                                latency_ms: (done - start).as_secs_f64() * 1e3,
                                queries: req.queries,
                            });
                        }
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        let mut steal = Vec::with_capacity(n_slices);
        sleep_until(window_start);
        let mut prev = cpu_ticks();
        for k in 1..=n_slices {
            sleep_until(window_start + SLICE * k as u32);
            let now = cpu_ticks();
            steal.push(steal_between(prev, now));
            prev = now;
        }
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("load threads do not panic"))
            .collect();
        (results, steal)
    });
    let mut merged = LoopResult {
        samples: Vec::new(),
        steal,
        outcomes: Outcomes::default(),
        observed: Observed::default(),
    };
    for r in results {
        merged.samples.extend(r.samples);
        merged.outcomes.absorb(r.outcomes);
        merged.observed.absorb(r.observed);
    }
    merged
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The served generation, from `GET /healthz`.
fn served_generation(client: &mut HttpClient) -> Option<u64> {
    let resp = client.get("/healthz").ok()?;
    (resp.status == 200)
        .then(|| api::extract_u64(&resp.body, "generation").ok())
        .flatten()
}

/// What the store writer measured.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// Duration of each `append_corpus` / `remove_from_corpus`, ms.
    pub write_ms: Vec<f64>,
    /// From each write starting until the server reported its
    /// generation, ms.
    pub lag_ms: Vec<f64>,
    /// Writes attempted and failed (a store error, or a generation the
    /// server never reported within ten seconds).
    pub outcomes: Outcomes,
}

/// A closed-loop writer: alternate appending `sketch` to the store at
/// `store` and removing it again, waiting after each write until the
/// server at `health` reports the new generation, then pausing `pause`.
/// Stops after a remove once `stop` is set or `max_writes` writes were
/// made, so the store always ends without `sketch`.
#[must_use]
pub fn churn_writes(
    health: SocketAddr,
    store: &Path,
    sketch: &CorrelationSketch,
    threads: usize,
    stop: &AtomicBool,
    max_writes: usize,
    pause: Duration,
) -> WriteLog {
    let mut log = WriteLog::default();
    let Ok(mut client) = HttpClient::connect(health) else {
        log.outcomes.record(false);
        return log;
    };
    let ids = [sketch.id().to_string()];
    for w in 0..max_writes {
        if w % 2 == 0 && stop.load(Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(pause);
        let t0 = Instant::now();
        let written = if w % 2 == 0 {
            sketch_store::append_corpus(store, std::slice::from_ref(sketch), threads)
        } else {
            sketch_store::remove_from_corpus(store, &ids, threads)
        };
        let t1 = Instant::now();
        let Ok(manifest) = written else {
            log.outcomes.record(false);
            break;
        };
        let deadline = t1 + Duration::from_secs(10);
        let seen = loop {
            match served_generation(&mut client) {
                Some(g) if g >= manifest.generation => break Some(Instant::now()),
                _ if Instant::now() > deadline => break None,
                Some(_) => std::thread::sleep(Duration::from_millis(1)),
                None => {
                    std::thread::sleep(Duration::from_millis(1));
                    if let Ok(c) = HttpClient::connect(health) {
                        client = c;
                    }
                }
            }
        };
        let Some(seen) = seen else {
            log.outcomes.record(false);
            break;
        };
        log.outcomes.record(true);
        log.write_ms.push((t1 - t0).as_secs_f64() * 1e3);
        log.lag_ms.push((seen - t0).as_secs_f64() * 1e3);
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quietest_slices_are_kept() {
        let steal = [Some(0.3), Some(0.0), Some(0.1), Some(0.0), Some(0.2)];
        assert_eq!(quietest(&steal, 2), vec![false, true, false, true, false]);
        assert_eq!(quietest(&steal, 3), vec![false, true, true, true, false]);
        assert_eq!(quietest(&steal, 9), vec![true; 5]);
        assert_eq!(quietest(&[Some(0.1), None], 1), vec![true, true]);
        assert_eq!(steal_between(Some((10, 100)), Some((15, 200))), Some(0.05));
        assert_eq!(steal_between(Some((10, 100)), None), None);
    }

    #[test]
    fn measure_counts_kept_slices_only() {
        let sample = |slice, latency_ms| Sample {
            slice,
            start_s: 0.0,
            latency_ms,
            queries: 4,
        };
        let run = LoopResult {
            samples: vec![
                sample(0, 3.0),
                sample(0, 1.0),
                sample(1, 50.0),
                sample(2, 2.0),
            ],
            steal: vec![Some(0.0), Some(0.5), Some(0.0)],
            outcomes: Outcomes::default(),
            observed: Observed::default(),
        };
        let slice_s = SLICE.as_secs_f64();
        let m = run.measure(Some(2));
        assert_eq!(m.latencies_ms, vec![1.0, 2.0, 3.0]);
        assert_eq!(m.queries, 12);
        assert_eq!(m.slices, 2);
        assert_eq!(m.steal, 0.0);
        // Median of the kept slices' rates: 8 and 4 queries.
        assert!((m.qps - 6.0 / slice_s).abs() < 1e-9);
        let all = run.measure(None);
        assert_eq!(all.latencies_ms.len(), 4);
        assert!((all.qps - 16.0 / (3.0 * slice_s)).abs() < 1e-9);

        // A request that started before the window counts only for the
        // part of it inside the window.
        let straddling = LoopResult {
            samples: vec![Sample {
                slice: 0,
                start_s: -slice_s,
                latency_ms: 2.0 * slice_s * 1e3,
                queries: 4,
            }],
            steal: vec![Some(0.0), Some(0.0)],
            outcomes: Outcomes::default(),
            observed: Observed::default(),
        };
        assert!((straddling.measure(None).qps - 2.0 / (2.0 * slice_s)).abs() < 1e-9);
    }
}
