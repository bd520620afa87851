//! Golden pin for the PM1 bootstrap answers on the scored ranking path.
//!
//! `scored_estimate(pm1, …)` is a pure function of its inputs and seed.
//! This test folds the `to_bits` of every estimate and interval endpoint
//! (and the text of every error) over a fixed grid of seeded inputs into
//! one FNV-1a hash. Any change to the resample stream, the adaptive
//! stopping rule, the replicate budget or the interval's order
//! statistics moves the hash, so a refactor of the bootstrap internals
//! must leave it untouched.
//!
//! The grid covers small and large samples, tied and discrete columns
//! (many degenerate resamples), overflowing rows (resamples that include
//! them are degenerate, so attempt caps bind), constant columns (typed
//! errors), three seeds, and the tabulated 0.95 level next to a plain
//! percentile level.

use join_correlation::stats::{scored_estimate, BootstrapScratch, CorrelationEstimator};

/// SplitMix64 step: a self-contained generator, so the inputs do not
/// depend on any library RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Paired columns of length `n` in one of six shapes.
fn columns(shape: usize, n: usize, state: &mut u64) -> (Vec<f64>, Vec<f64>) {
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let (a, b) = match shape {
            // Linear trend plus noise.
            0 => {
                let a = i as f64 + unit(state);
                (a, 0.6 * a + 4.0 * (unit(state) - 0.5) * n as f64 / 8.0)
            }
            // Independent noise: wide replicate spread.
            1 => (unit(state), unit(state)),
            // Three-level discrete columns: many ties.
            2 => (
                (splitmix64(state) % 3) as f64,
                (splitmix64(state) % 3) as f64,
            ),
            // Almost constant: only two rows move each column.
            3 => (
                f64::from(u8::from(i == 0)),
                f64::from(u8::from(i == n - 1)) + f64::from(u8::from(i == 1)) * 0.5,
            ),
            // One row whose square overflows: any resample drawing it
            // is degenerate.
            4 => (
                if i == 0 { 1e200 } else { unit(state) },
                unit(state) + i as f64 * 0.01,
            ),
            // Constant column: a typed error, never a number.
            _ => (2.5, unit(state)),
        };
        x.push(a);
        y.push(b);
    }
    (x, y)
}

/// FNV-1a over 64-bit words.
fn fold(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn pm1_grid_hash() -> (u64, usize, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let (mut ok, mut err) = (0usize, 0usize);
    let mut scratch = BootstrapScratch::new();
    for n in [3usize, 4, 5, 7, 12, 40, 97, 181] {
        for shape in 0..6 {
            let mut state = (n as u64) << 8 | shape as u64;
            let (x, y) = columns(shape, n, &mut state);
            for seed in [1u64, 7, 0x5eed] {
                for confidence in [0.95, 0.9] {
                    let est = CorrelationEstimator::Pm1Bootstrap { seed };
                    match scored_estimate(est, &x, &y, confidence, &mut scratch) {
                        Ok(s) => {
                            ok += 1;
                            fold(&mut hash, s.estimate.to_bits());
                            fold(&mut hash, s.ci_lo.to_bits());
                            fold(&mut hash, s.ci_hi.to_bits());
                            fold(&mut hash, s.sample_size as u64);
                        }
                        Err(e) => {
                            err += 1;
                            for byte in e.to_string().bytes() {
                                fold(&mut hash, u64::from(byte));
                            }
                        }
                    }
                }
            }
        }
    }
    (hash, ok, err)
}

#[test]
fn pm1_scored_answers_match_the_golden_hash() {
    let (hash, ok, err) = pm1_grid_hash();
    assert_eq!((ok, err), (OK_CALLS, ERR_CALLS), "hash {hash:#018x}");
    assert_eq!(hash, GOLDEN, "PM1 answers drifted: hash {hash:#018x}");
}

/// Captured before the shared-stream and division-free-draw rewrite of
/// the bootstrap internals; both must leave every answer bit-identical.
const GOLDEN: u64 = 0xaa32_3f61_23a5_b172;
const OK_CALLS: usize = 198;
const ERR_CALLS: usize = 90;
