//! **bootstrap_kernel** — microbench of the bootstrap resample inner
//! loop: the retired gather-then-two-pass-Pearson shape (kept in-tree as
//! [`sketch_stats::kernel::resample_pearson_twopass`], the numerical
//! baseline) against the fused index-gather + five-sum kernel
//! ([`gather_sums`] + [`pearson_from_gather`]) that the PM1 bootstrap
//! and its CIs now run on.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin bootstrap_kernel -- \
//!     [--ms 300] [--blocks 64] [--assert 2.0] [--json true] [--out auto]
//! ```
//!
//! For each resample length `n ∈ {32, 256, 4096}` (the span from tiny
//! join samples to full-size sketches) the harness pre-draws `--blocks`
//! deterministic index blocks, then times each variant for at least
//! `--ms` milliseconds of steady-state work, cycling through the blocks
//! so neither variant can specialize to one index pattern. Index
//! generation is excluded from both timings — the two paths draw the
//! identical RNG stream in production, so it cancels out of the ratio.
//! The fused path's one-off column centering is likewise setup, not
//! per-resample work: a PM1 run amortizes it over hundreds of resamples.
//!
//! Each `n` also gets an ungated end-to-end row: the mean wall time of
//! one `scored_estimate(pm1, 0.95)` call — index draws, gathers, the
//! adaptive estimate and its interval's replicates on one shared stream,
//! and the interval's order statistics — the cost one contested
//! candidate adds to a robust-ranking query.
//!
//! Reported per `n`: resamples/sec for both shapes and the fused/legacy
//! ratio, plus the scored PM1 call time; the headline number is the geometric mean of the per-size
//! ratios (at n = 32 a resample is ~60 ns, so its ratio wobbles ±25%
//! run to run — the geomean is the stable summary). `--assert [min]`
//! exits non-zero unless the geomean clears `min` (default 2.0, the PR
//! gate); `--out` writes the bench-JSON artifact (`auto` →
//! `BENCH_bootstrap_kernel.json`).

use std::time::Instant;

use sketch_bench::{artifact, Args};
use sketch_stats::{kernel, scored_estimate, BootstrapScratch, CorrelationEstimator};

/// SplitMix64 step — the bench's only RNG need is deterministic index
/// blocks and column noise, so the 5-line generator beats a dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1) from the top 53 bits.
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Correlated column pair of length `n` (slope 2 plus noise), like the
/// conditioned fixtures of the `prop_kernel` battery.
fn columns(n: usize, state: &mut u64) -> (Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = (0..n)
        .map(|i| i as f64 + (unit_f64(state) - 0.5) * 0.8)
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|&v| 2.0 * v + (unit_f64(state) - 0.5) * 6.0)
        .collect();
    (x, y)
}

/// Run `resample` once per pre-drawn index block, cycling, until at
/// least `min_ms` of wall time has elapsed (after one untimed warm-up
/// lap). Returns (resamples/sec, checksum) — the checksum is consumed by
/// the caller so the optimizer cannot discard the work.
fn throughput(
    blocks: &[Vec<u32>],
    min_ms: f64,
    mut resample: impl FnMut(&[u32]) -> f64,
) -> (f64, f64) {
    let mut sink = 0.0;
    for idx in blocks {
        sink += resample(idx);
    }
    let mut total = 0u64;
    let start = Instant::now();
    loop {
        for idx in blocks {
            sink += resample(idx);
        }
        total += blocks.len() as u64;
        if start.elapsed().as_secs_f64() * 1e3 >= min_ms {
            break;
        }
    }
    (total as f64 / start.elapsed().as_secs_f64(), sink)
}

/// Mean wall time of one `call` in microseconds, over at least `min_ms`
/// of steady-state calls after one untimed warm-up call. Returns
/// (µs per call, checksum), like [`throughput`].
fn micros_per_call(min_ms: f64, mut call: impl FnMut() -> f64) -> (f64, f64) {
    let mut sink = call();
    let mut calls = 0u64;
    let start = Instant::now();
    loop {
        sink += call();
        calls += 1;
        if start.elapsed().as_secs_f64() * 1e3 >= min_ms {
            break;
        }
    }
    (start.elapsed().as_secs_f64() * 1e6 / calls as f64, sink)
}

fn main() {
    let args = Args::from_env();
    let min_ms = args.get_or("ms", 300.0f64);
    let n_blocks = args.get_or("blocks", 64usize).max(1);
    let seed = args.get_or("seed", 0x00c1_5eedu64);
    let json = args.get_or("json", false);
    // Bare `--assert` gates at the PR threshold; `--assert <r>` overrides.
    let min_ratio: Option<f64> = args.get("assert").map(|v| {
        if v == "true" {
            2.0
        } else {
            v.parse().unwrap_or_else(|e| panic!("--assert {v}: {e:?}"))
        }
    });

    let sizes = [32usize, 256, 4096];
    let mut rows = Vec::new();
    let mut checksum = 0.0f64;

    if !json {
        println!("bootstrap resample kernel — fused gather+sums vs two-pass baseline");
        println!(
            "{:>6}  {:>14}  {:>14}  {:>7}  {:>16}",
            "n", "legacy rs/s", "fused rs/s", "ratio", "scored pm1 µs"
        );
    }

    for n in sizes {
        let mut state = seed ^ (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (x, y) = columns(n, &mut state);
        // One-off setup of each shape: the legacy path owns its gather
        // buffers, the fused path its centered column copies.
        let mut bx = vec![0.0f64; n];
        let mut by = vec![0.0f64; n];
        let (mean_x, mean_y) = kernel::column_means(&x, &y);
        let cx: Vec<f64> = x.iter().map(|v| v - mean_x).collect();
        let cy: Vec<f64> = y.iter().map(|v| v - mean_y).collect();
        let blocks: Vec<Vec<u32>> = (0..n_blocks)
            .map(|_| {
                (0..n)
                    .map(|_| (splitmix64(&mut state) % n as u64) as u32)
                    .collect()
            })
            .collect();

        let (legacy_rps, s1) = throughput(&blocks, min_ms, |idx| {
            kernel::resample_pearson_twopass(&x, &y, idx, &mut bx, &mut by).unwrap_or(0.0)
        });
        let (fused_rps, s2) = throughput(&blocks, min_ms, |idx| {
            kernel::pearson_from_gather(n, &kernel::gather_sums(&cx, &cy, idx)).unwrap_or(0.0)
        });
        checksum += s1 - s2;
        let ratio = fused_rps / legacy_rps;
        let mut scratch = BootstrapScratch::new();
        let pm1 = CorrelationEstimator::Pm1Bootstrap { seed };
        let (scored_us, _) = micros_per_call(min_ms, || {
            scored_estimate(pm1, &x, &y, 0.95, &mut scratch).map_or(0.0, |s| s.ci_length())
        });
        if !json {
            println!(
                "{n:>6}  {legacy_rps:>14.0}  {fused_rps:>14.0}  {ratio:>6.2}x  {scored_us:>16.1}"
            );
        }
        rows.push((n, legacy_rps, fused_rps, ratio, scored_us));
    }
    // The two variants replay identical resamples, so their checksums
    // cancel; printing the residual keeps the work observable.
    eprintln!("bootstrap_kernel: checksum residual {checksum:.3e}");

    let fields: Vec<String> = rows
        .iter()
        .map(|(n, l, f, r, us)| {
            format!(
                "{{\"n\":{n},\"legacy_resamples_per_sec\":{l:.0},\
                 \"fused_resamples_per_sec\":{f:.0},\"ratio\":{r:.3},\
                 \"scored_pm1_us\":{us:.1}}}"
            )
        })
        .collect();
    let geomean =
        (rows.iter().map(|&(_, _, _, r, _)| r.ln()).sum::<f64>() / rows.len() as f64).exp();
    if !json {
        println!("geomean ratio: {geomean:.2}x");
    }
    let obj = format!(
        "{{\"bench\":\"bootstrap_kernel\",\"ms_per_variant\":{min_ms},\
         \"index_blocks\":{n_blocks},\"seed\":{seed},\
         \"geomean_ratio\":{geomean:.3},\"sizes\":[{}]}}",
        fields.join(",")
    );
    if json {
        println!("{obj}");
    }
    if let Some(out) = args.get("out") {
        let path = artifact::write_artifact(out, "bootstrap_kernel", &obj).expect("write artifact");
        eprintln!("bootstrap_kernel: wrote {}", path.display());
    }

    if let Some(gate) = min_ratio {
        if geomean < gate {
            eprintln!(
                "bootstrap_kernel: FAIL — geomean fused/legacy ratio {geomean:.2}x \
                 below the {gate:.2}x gate"
            );
            std::process::exit(1);
        }
        println!("bootstrap_kernel: OK — geomean speedup {geomean:.2}x >= {gate:.2}x gate");
    }
}
