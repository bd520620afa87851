//! Property battery for the SoA estimator kernels (the PR-6 hot path).
//!
//! Two distinct contracts are asserted here, and they are deliberately
//! different strengths:
//!
//! 1. **Bit-equivalence, unconditional**: the chunk-major optimized
//!    kernels and their per-lane-strided scalar references perform the
//!    same float operations in the same order, so they must agree
//!    `to_bits`-exactly for *every* numeric input — arbitrary shapes, ∞
//!    and signed-zero payloads, constant columns, degenerate resamples.
//!    No tolerance. The one carve-out is the *payload of NaN outputs*:
//!    IEEE 754 and LLVM leave NaN sign/payload propagation unspecified
//!    (`fadd` operands may be commuted per inlining context, and x86
//!    returns the first NaN operand), so two spellings of the same sum
//!    may yield differently-signed quiet NaNs. The battery therefore
//!    compares NaN as a class — *whether* a result is NaN is still exact
//!    — and [`bits_eq`] encodes that rule.
//! 2. **Old-vs-new tolerance, documented**: the fused corrected-sums
//!    resample kernel reassociates additions relative to the pre-kernel
//!    gather-then-two-pass path, so those paths agree only within a
//!    tolerance — `1e-9` per resample and per CI endpoint on bounded,
//!    well-conditioned data (order statistics are 1-Lipschitz under
//!    sup-norm perturbation of the replicate multiset). Resamples whose
//!    centered variance cancels below ~1e-6 of the raw second moment are
//!    outside the contract: there the old path already returned
//!    rounding noise, and the new path may classify them degenerate
//!    (`None`) instead. The PM1 *estimate* under the adaptive stopping
//!    rule gets a looser documented bound (the stopping iteration can
//!    flip on an ε change in one replicate), so the tight property runs
//!    on a fixed replicate budget.
//! 3. **Shared resample stream, bit-exact**: `scored_estimate(pm1, c)`
//!    draws each resample once for both its estimate and its interval,
//!    with a division-free index draw. It must equal the standalone
//!    `pm1_bootstrap` estimate plus an interval over a literal replay of
//!    the fused stream (`next_u64() % n` draws, 599 replicates, 4 × 599
//!    attempts) `to_bits` for `to_bits`, and fail with the same error.
//!    With the default config the estimate stops by ~348 successes
//!    (its stopping rule binds once `0.01·(count+1)/sd > 3.48` and
//!    `sd ≤ 1`), so the branches where the estimate's own loop passes 599
//!    successes or 4 × 599 attempts are covered by configurable unit
//!    tests in `src/bootstrap.rs`, next to the draw's exactness
//!    properties.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use sketch_stats::kernel::{
    centered_sums, centered_sums_scalar, column_means, gather_sums, gather_sums_scalar, lane_sum,
    lane_sum_scalar, pearson_from_gather, resample_pearson_twopass,
};
use sketch_stats::{
    pearson, percentile_bootstrap_ci, pm1_bootstrap, pm1_ci, scored_estimate, spearman,
    BootstrapConfig, BootstrapScratch, CorrelationEstimator, StatsError,
};

/// Bitwise equality with NaN compared as a class: every non-NaN value
/// (including -0.0 vs 0.0 and ±∞) must match to the bit, but any NaN
/// equals any NaN — NaN sign/payload is unspecified by IEEE 754/LLVM
/// and legitimately differs between spellings of the same sum.
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Special values the sum kernels must propagate identically.
fn special() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        Just(-0.0),
        Just(1e300),
        Just(-1e300),
        Just(5e-324),
    ]
}

/// Arbitrary paired columns with special-value injections, plus a
/// resample index block over them (arbitrary length, including shorter
/// and much longer than the columns).
fn wild_columns() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<u32>)> {
    (2usize..160).prop_flat_map(|n| {
        (
            vec(-1e4f64..1e4, n..n + 1),
            vec(-1e4f64..1e4, n..n + 1),
            vec(0usize..n, 1..350),
            vec((0usize..n, special()), 0..6),
            vec((0usize..n, special()), 0..6),
        )
            .prop_map(|(mut x, mut y, idx, inj_x, inj_y)| {
                for (i, v) in inj_x {
                    x[i] = v;
                }
                for (i, v) in inj_y {
                    y[i] = v;
                }
                let idx = idx.into_iter().map(|i| i as u32).collect();
                (x, y, idx)
            })
    })
}

/// Well-conditioned paired columns: strictly spread `x`, linear `y` with
/// bounded noise — every realistic resample keeps most of its variance,
/// which is what the old-vs-new tolerance contract covers.
fn conditioned_columns(len: std::ops::Range<usize>) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    len.prop_flat_map(|n| {
        (
            vec(-0.4f64..0.4, n..n + 1),
            vec(-3.0f64..3.0, n..n + 1),
            -5.0f64..5.0,
        )
            .prop_map(|(jitter, noise, slope)| {
                let x: Vec<f64> = jitter
                    .iter()
                    .enumerate()
                    .map(|(i, j)| i as f64 + j)
                    .collect();
                let y: Vec<f64> = x.iter().zip(&noise).map(|(v, e)| slope * v + e).collect();
                (x, y)
            })
    })
}

/// The pre-PR-6 replicate collector, reimplemented literally: gather the
/// resample into buffers, run two-pass `pearson`, keep successes, with
/// the same RNG stream and attempt budget as the production collectors.
fn legacy_replicates(x: &[f64], y: &[f64], replicates: usize, seed: u64) -> Vec<f64> {
    let n = x.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut bx, mut by) = (vec![0.0; n], vec![0.0; n]);
    let mut rs = Vec::new();
    let mut attempts = 0usize;
    while rs.len() < replicates && attempts < replicates * 4 {
        attempts += 1;
        for i in 0..n {
            let j = rng.random_range(0..n);
            bx[i] = x[j];
            by[i] = y[j];
        }
        if let Ok(r) = pearson(&bx, &by) {
            rs.push(r);
        }
    }
    rs
}

/// Wilcox's index table, duplicated from the implementation for the
/// legacy oracle.
fn pm1_indices(n: usize) -> (usize, usize) {
    match n {
        0..=39 => (7, 593),
        40..=79 => (8, 592),
        80..=179 => (11, 589),
        180..=249 => (14, 586),
        _ => (16, 584),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 1: five-sum gather kernel, bitwise, over everything —
    /// including the shared finisher.
    #[test]
    fn gather_sums_bit_identical_to_scalar_reference((x, y, idx) in wild_columns()) {
        let a = gather_sums(&x, &y, &idx);
        let b = gather_sums_scalar(&x, &y, &idx);
        prop_assert!(bits_eq(a.sx, b.sx), "sx {:?} vs {:?}", a.sx, b.sx);
        prop_assert!(bits_eq(a.sy, b.sy), "sy {:?} vs {:?}", a.sy, b.sy);
        prop_assert!(bits_eq(a.sxx, b.sxx), "sxx {:?} vs {:?}", a.sxx, b.sxx);
        prop_assert!(bits_eq(a.syy, b.syy), "syy {:?} vs {:?}", a.syy, b.syy);
        prop_assert!(bits_eq(a.sxy, b.sxy), "sxy {:?} vs {:?}", a.sxy, b.sxy);
        // The finisher maps every NaN sum to `None`, so its output is
        // payload-free and must match exactly.
        let ra = pearson_from_gather(idx.len(), &a).map(f64::to_bits);
        let rb = pearson_from_gather(idx.len(), &b).map(f64::to_bits);
        prop_assert_eq!(ra, rb);
    }

    /// Contract 1 for the direct-pass kernels (`pearson`'s two passes).
    #[test]
    fn centered_and_lane_sums_bit_identical_to_scalar((x, y, _) in wild_columns()) {
        prop_assert!(bits_eq(lane_sum(&x), lane_sum_scalar(&x)));
        let (mx, my) = column_means(&x, &y);
        let a = centered_sums(&x, &y, mx, my);
        let b = centered_sums_scalar(&x, &y, mx, my);
        prop_assert!(bits_eq(a.sxx, b.sxx), "sxx {:?} vs {:?}", a.sxx, b.sxx);
        prop_assert!(bits_eq(a.syy, b.syy), "syy {:?} vs {:?}", a.syy, b.syy);
        prop_assert!(bits_eq(a.sxy, b.sxy), "sxy {:?} vs {:?}", a.sxy, b.sxy);
    }

    /// A resample of an integer-valued constant column cancels exactly
    /// in the corrected sums and must classify degenerate — never a
    /// fabricated correlation.
    #[test]
    fn integer_constant_columns_classify_degenerate(
        n in 2usize..100,
        c in -1000i32..1000,
        m in 2usize..200,
    ) {
        let x = vec![f64::from(c); n];
        let y: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let idx: Vec<u32> = (0..m).map(|i| (i % n) as u32).collect();
        let (mx, my) = column_means(&x, &y);
        let cx: Vec<f64> = x.iter().map(|v| v - mx).collect();
        let cy: Vec<f64> = y.iter().map(|v| v - my).collect();
        prop_assert_eq!(pearson_from_gather(m, &gather_sums(&cx, &cy, &idx)), None);
    }

    /// Contract 2, per resample: fused corrected-sums vs the literal
    /// old gather-then-two-pass path, on full-mean-centered columns,
    /// within 1e-9 wherever the resample keeps ≥1e-6 of its raw second
    /// moment. (Both paths see the *same* resample by construction.)
    #[test]
    fn fused_resample_within_1e9_of_twopass_when_conditioned(
        (x, y) in conditioned_columns(4..120),
        draws in vec(any::<u32>(), 2..240),
    ) {
        let n = x.len();
        let idx: Vec<u32> = draws.into_iter().map(|d| d % n as u32).collect();
        let (mx, my) = column_means(&x, &y);
        let cx: Vec<f64> = x.iter().map(|v| v - mx).collect();
        let cy: Vec<f64> = y.iter().map(|v| v - my).collect();
        let sums = gather_sums(&cx, &cy, &idx);
        let m = idx.len() as f64;
        let sxx_c = sums.sxx - sums.sx * sums.sx / m;
        let syy_c = sums.syy - sums.sy * sums.sy / m;
        prop_assume!(sxx_c > 1e-6 * sums.sxx && syy_c > 1e-6 * sums.syy);

        let fused = pearson_from_gather(idx.len(), &sums);
        let (mut bx, mut by) = (vec![0.0; idx.len()], vec![0.0; idx.len()]);
        let twopass = resample_pearson_twopass(&x, &y, &idx, &mut bx, &mut by);
        match (fused, twopass) {
            (Some(a), Some(b)) => {
                prop_assert!((a - b).abs() < 1e-9, "fused={a} twopass={b}");
            }
            (a, b) => prop_assert!(false, "classification split: {a:?} vs {b:?}"),
        }
    }

    /// Contract 2, interval endpoints: the fused `pm1_ci` vs the legacy
    /// sort-and-index implementation over the same RNG stream, within
    /// 1e-9 per endpoint on well-conditioned data.
    #[test]
    fn pm1_ci_endpoints_within_1e9_of_legacy(
        (x, y) in conditioned_columns(10..60),
        seed in any::<u64>(),
    ) {
        let new = pm1_ci(&x, &y, seed).unwrap();
        let mut rs = legacy_replicates(&x, &y, 599, seed);
        prop_assume!(rs.len() == 599); // knife-edge resamples excluded
        rs.sort_by(f64::total_cmp);
        let (a, c) = pm1_indices(x.len());
        prop_assert!((new.low - rs[a - 1]).abs() < 1e-9, "{} vs {}", new.low, rs[a - 1]);
        prop_assert!((new.high - rs[c - 1]).abs() < 1e-9, "{} vs {}", new.high, rs[c - 1]);
    }

    /// Contract 2, point estimate on a *fixed* replicate budget (the
    /// adaptive stopping rule disabled by `min == max`): the mean of 200
    /// replicates each within 1e-9 stays within 1e-9.
    #[test]
    fn pm1_fixed_budget_estimate_within_1e9_of_legacy(
        (x, y) in conditioned_columns(10..60),
        seed in any::<u64>(),
    ) {
        let cfg = BootstrapConfig {
            min_resamples: 200,
            max_resamples: 200,
            seed,
            ..BootstrapConfig::default()
        };
        let new = pm1_bootstrap(&x, &y, &cfg).unwrap();
        let rs = legacy_replicates(&x, &y, 200, seed);
        prop_assume!(rs.len() == 200);
        let legacy_mean = (rs.iter().sum::<f64>() / 200.0).clamp(-1.0, 1.0);
        prop_assert_eq!(new.resamples, 200);
        prop_assert!(
            (new.estimate - legacy_mean).abs() < 1e-9,
            "new={} legacy={legacy_mean}",
            new.estimate
        );
    }

    /// Satellite regression: the generic (robust-estimator) percentile
    /// CI kept its replicate values — only the quantile step moved to
    /// `select_nth_unstable` — so its endpoints must be *bit-identical*
    /// to the old sort-then-rank implementation.
    #[test]
    fn generic_percentile_ci_bit_identical_to_sorting(
        (x, y) in conditioned_columns(8..50),
        seed in any::<u64>(),
        confidence in 0.5f64..0.99,
    ) {
        let ci = percentile_bootstrap_ci(
            &|a, b| spearman(a, b),
            &x,
            &y,
            99,
            confidence,
            seed,
            &mut BootstrapScratch::new(),
        )
        .unwrap();
        // Legacy path: same draws evaluated through the same statistic,
        // then a full sort and the rank formula.
        let n = x.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut bx, mut by) = (vec![0.0; n], vec![0.0; n]);
        let mut rs = Vec::new();
        let mut attempts = 0usize;
        while rs.len() < 99 && attempts < 99 * 4 {
            attempts += 1;
            for i in 0..n {
                let j = rng.random_range(0..n);
                bx[i] = x[j];
                by[i] = y[j];
            }
            if let Ok(r) = spearman(&bx, &by) {
                rs.push(r);
            }
        }
        rs.sort_by(f64::total_cmp);
        let alpha = (1.0 - confidence).clamp(1e-9, 1.0);
        let b = rs.len();
        let lo_rank = ((alpha / 2.0 * b as f64).ceil() as usize).clamp(1, b);
        let hi_rank = (b + 1 - lo_rank).clamp(1, b);
        prop_assert_eq!(ci.low.to_bits(), rs[lo_rank - 1].to_bits());
        prop_assert_eq!(ci.high.to_bits(), rs[hi_rank - 1].to_bits());
    }
}

/// Contract 2 under the *adaptive* stopping rule, as a deterministic
/// fixture: the stopping iteration may flip on an ε replicate change, so
/// the documented old-vs-new bound for the default config is loose
/// (0.02 — the same scale as the rule's own mean-change threshold).
#[test]
fn adaptive_pm1_documented_divergence_bound() {
    for n in [20usize, 50, 137, 400] {
        let x: Vec<f64> = (0..n)
            .map(|i| i as f64 + ((i * 7 % 13) as f64) * 0.1)
            .collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 0.7 * v + 10.0 * ((i as f64) * 0.9).sin())
            .collect();
        let cfg = BootstrapConfig::default();
        let new = pm1_bootstrap(&x, &y, &cfg).unwrap();

        // Legacy adaptive loop, literally (two-pass pearson resamples).
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (mut bx, mut by) = (vec![0.0; n], vec![0.0; n]);
        let (mut sum, mut sum_sq, mut count, mut attempts) = (0.0f64, 0.0f64, 0usize, 0usize);
        while count < cfg.max_resamples && attempts < cfg.max_resamples * 2 {
            attempts += 1;
            for i in 0..n {
                let j = rng.random_range(0..n);
                bx[i] = x[j];
                by[i] = y[j];
            }
            let Ok(r) = pearson(&bx, &by) else { continue };
            count += 1;
            sum += r;
            sum_sq += r * r;
            if count >= cfg.min_resamples {
                let mean = sum / count as f64;
                let sd = (sum_sq / count as f64 - mean * mean).max(0.0).sqrt();
                if sd == 0.0 {
                    break;
                }
                let z = cfg.mean_change_threshold * (count as f64 + 1.0) / sd;
                let p = 2.0 * (1.0 - sketch_stats::normal_cdf(z));
                if p < cfg.stop_probability {
                    break;
                }
            }
        }
        let legacy = (sum / count as f64).clamp(-1.0, 1.0);
        assert!(
            (new.estimate - legacy).abs() < 0.02,
            "n={n}: new={} legacy={legacy} (counts {} vs {count})",
            new.estimate,
            new.resamples
        );
    }
}

/// The fused Pearson replicate stream, spelled out literally: one
/// `next_u64() % n` per index (a hardware division, independent of the
/// library's division-free draw), the columns centered once at their
/// full-sample means, then the five-sum gather and its finisher, under
/// the interval collectors' budget of `replicates` successes or
/// `4 × replicates` attempts. It replays the production stream bit for
/// bit, so it pins both the draws and the interval's stopping rule.
fn literal_fused_replicates(x: &[f64], y: &[f64], replicates: usize, seed: u64) -> Vec<f64> {
    let n = x.len();
    let (mx, my) = column_means(x, y);
    let cx: Vec<f64> = x.iter().map(|v| v - mx).collect();
    let cy: Vec<f64> = y.iter().map(|v| v - my).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx = vec![0u32; n];
    let mut rs = Vec::new();
    let mut attempts = 0usize;
    while rs.len() < replicates && attempts < replicates * 4 {
        attempts += 1;
        for slot in &mut idx {
            *slot = (rng.next_u64() % n as u64) as u32;
        }
        if let Some(r) = pearson_from_gather(n, &gather_sums(&cx, &cy, &idx)) {
            rs.push(r);
        }
    }
    rs
}

/// What `scored_estimate(pm1, confidence)` must return, from the
/// reference pieces: the standalone `pm1_bootstrap` estimate, then an
/// interval over the 599 literal replicates — Wilcox's indices at 0.95
/// (also checked against the standalone `pm1_ci`), the plain percentile
/// ranks at any other level. Errors come in the same order: the
/// estimate's first, then the interval's "fewer than half" error.
fn reference_pm1_scored(
    x: &[f64],
    y: &[f64],
    seed: u64,
    confidence: f64,
) -> Result<[u64; 3], StatsError> {
    let cfg = BootstrapConfig {
        seed,
        ..BootstrapConfig::default()
    };
    let estimate = pm1_bootstrap(x, y, &cfg)?.estimate;
    let mut rs = literal_fused_replicates(x, y, 599, seed);
    if rs.len() < 599 / 2 {
        assert_eq!(pm1_ci(x, y, seed), Err(StatsError::ZeroVariance));
        return Err(StatsError::ZeroVariance);
    }
    rs.sort_by(f64::total_cmp);
    let b = rs.len();
    let (lo, hi) = if confidence == 0.95 {
        let (a, c) = pm1_indices(x.len());
        let scale = b as f64 / 599.0;
        let lo = (((a as f64) * scale).round() as usize).clamp(1, b) - 1;
        let hi = (((c as f64) * scale).round() as usize).clamp(1, b) - 1;
        let ci = pm1_ci(x, y, seed).unwrap();
        assert_eq!(ci.low.to_bits(), rs[lo].to_bits(), "pm1_ci low");
        assert_eq!(ci.high.to_bits(), rs[hi].to_bits(), "pm1_ci high");
        (lo, hi)
    } else {
        let alpha = 1.0 - confidence;
        let lo_rank = ((alpha / 2.0 * b as f64).ceil() as usize).clamp(1, b);
        let hi_rank = (b + 1 - lo_rank).clamp(1, b);
        (lo_rank - 1, hi_rank - 1)
    };
    Ok([estimate.to_bits(), rs[lo].to_bits(), rs[hi].to_bits()])
}

fn scored_pm1_bits(
    x: &[f64],
    y: &[f64],
    seed: u64,
    confidence: f64,
    scratch: &mut BootstrapScratch,
) -> Result<[u64; 3], StatsError> {
    let est = CorrelationEstimator::Pm1Bootstrap { seed };
    let s = scored_estimate(est, x, y, confidence, scratch)?;
    assert_eq!(s.sample_size, x.len());
    Ok([s.estimate.to_bits(), s.ci_lo.to_bits(), s.ci_hi.to_bits()])
}

/// Small columns over a three-level alphabet: ties everywhere, so many
/// resamples are degenerate. With `poison`, row 0 of `x` overflows when
/// squared, so every resample that draws it is degenerate too and the
/// interval's 4 × 599 attempt cap can bind before 599 successes.
fn tied_columns() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (vec((0u8..3, 0u8..3), 3..24), any::<bool>()).prop_map(|(cells, poison)| {
        let mut x: Vec<f64> = cells.iter().map(|c| f64::from(c.0)).collect();
        let y: Vec<f64> = cells.iter().map(|c| f64::from(c.1)).collect();
        if poison {
            x[0] = 1e200;
        }
        (x, y)
    })
}

/// Independent noise on few rows: the widest replicate spread the
/// default stopping rule sees, so the estimate runs longest.
fn noisy_columns() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    vec((-1.0f64..1.0, -1.0f64..1.0), 3..12)
        .prop_map(|cells| cells.into_iter().unzip::<f64, f64, Vec<f64>, Vec<f64>>())
}

/// A confidence level: the tabulated 0.95 or a plain percentile level.
fn level() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.95), Just(0.9), 0.5f64..0.99]
}

proptest! {
    /// Shared resample stream: `scored_estimate(pm1)` equals the
    /// reference pieces `to_bits` for `to_bits`, and fails with the same
    /// error, on tied and overflow-poisoned columns (degenerate resamples
    /// push the attempt caps), through a reused scratch.
    #[test]
    fn scored_pm1_equals_reference_on_tied_columns(
        (x, y) in tied_columns(),
        seed in any::<u64>(),
        confidence in level(),
    ) {
        let mut scratch = BootstrapScratch::new();
        let _ = scored_pm1_bits(&y, &x, seed ^ 1, 0.8, &mut scratch);
        let got = scored_pm1_bits(&x, &y, seed, confidence, &mut scratch);
        prop_assert_eq!(got, reference_pm1_scored(&x, &y, seed, confidence));
    }

    /// The same on wide-spread noise, well-conditioned trends of every
    /// Wilcox size band, and the smallest sample PM1 accepts.
    #[test]
    fn scored_pm1_equals_reference_on_noise_and_trends(
        (nx, ny) in noisy_columns(),
        (tx, ty) in conditioned_columns(3..300),
        tiny in vec(-5.0f64..5.0, 6..7),
        seed in any::<u64>(),
        confidence in level(),
    ) {
        let mut scratch = BootstrapScratch::new();
        let (sx, sy) = tiny.split_at(3);
        for (x, y) in [(&nx[..], &ny[..]), (&tx[..], &ty[..]), (sx, sy)] {
            let got = scored_pm1_bits(x, y, seed, confidence, &mut scratch);
            prop_assert_eq!(got, reference_pm1_scored(x, y, seed, confidence), "n={}", x.len());
        }
    }
}
