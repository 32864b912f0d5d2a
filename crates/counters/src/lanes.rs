//! Lane-packed ("portable SIMD") evaluation of the branch-free hash kernels.
//!
//! The bulk kernels of the write-heavy baselines spend almost their entire per-item
//! budget on *reads*: tabulation table lookups, Mersenne-prime multiplies, and the
//! probe loads into the counter matrix.  All of those are branch-free and mutually
//! independent across items, so the classic SIMD trick applies even without
//! intrinsics: pack `W = 8` items into plain `[u64; W]` arrays and evaluate
//! every step lane-by-lane in a fixed-width inner loop.  The compiler unrolls the
//! `W`-sized loops completely (the width is a const generic), which turns each
//! serial dependency chain into `W` independent chains that pipeline through the
//! multiplier and the load ports — and auto-vectorizes the pure-ALU steps where the
//! target ISA has the lanes for it.
//!
//! # Bit-equivalence by construction
//!
//! Every helper here evaluates the **same integer expression** as its scalar
//! counterpart in [`crate::hashing`], per lane, in the same operation order; lanes
//! never interact.  (The one exception, [`tabulation_hashes`], reorders XORs and
//! folds the zero bytes' terms into a constant; XOR is associative and commutative,
//! so its result is the same integer.)  Packing items into lanes therefore cannot
//! change any output bit: for each lane `l`, `f_lanes(xs)[l] ≡ f_scalar(xs[l])`
//! holds as an identity over the integers (no floating point, no rounding), and the unit
//! tests below additionally pin the equality exhaustively against the scalar
//! entry points.  This is what lets the sketch kernels swap widths freely while the
//! batch laws demand bit-identical answers, `StateReport`s, and wear tables.
//!
//! # Choosing a width
//!
//! Widths 1 (scalar fallback) and 8 are supported ([`LANE_WIDTHS`]); kernels
//! select one at construction and keep it for life.  [`DEFAULT_LANE_WIDTH`] is the
//! measured sweet spot on the recorded benchmark host: wide enough to saturate the
//! load ports during tabulation gathers, narrow enough that the per-row working set
//! of buckets and signs stays in registers.

use crate::hashing::{
    fold_mersenne, mod_mersenne, multiply_shift_bucket, FoldedItem, FourWise, TabulationHash,
    MERSENNE_61,
};

/// The lane widths every lane-packed kernel supports (1 is the scalar fallback).
pub const LANE_WIDTHS: [usize; 2] = [1, 8];

/// Default width for kernels constructed without an explicit choice (see the module
/// docs; `fig_throughput --lanes` forces other widths for A/B runs).
pub const DEFAULT_LANE_WIDTH: usize = 8;

/// Whether `w` is a supported lane width.
#[inline]
pub fn is_supported_width(w: usize) -> bool {
    LANE_WIDTHS.contains(&w)
}

/// Folds `W` items for repeated polynomial hashing — per lane identical to
/// [`FoldedItem::new`] (fold, square, cube), with the three dependent multiplies of
/// each lane pipelining against the other lanes'.
#[inline(always)]
pub fn fold_items<const W: usize>(xs: &[u64; W]) -> [FoldedItem; W] {
    let mut x = [0u64; W];
    let mut x2 = [0u64; W];
    let mut x3 = [0u64; W];
    for l in 0..W {
        x[l] = xs[l] % MERSENNE_61;
    }
    for l in 0..W {
        x2[l] = mod_mersenne(x[l] as u128 * x[l] as u128);
    }
    for l in 0..W {
        x3[l] = mod_mersenne(x2[l] as u128 * x[l] as u128);
    }
    std::array::from_fn(|l| FoldedItem {
        x: x[l],
        x2: x2[l],
        x3: x3[l],
    })
}

/// Multiply-shift bucket mapping of `W` hashes — per lane identical to
/// [`multiply_shift_bucket`].
#[inline(always)]
pub fn multiply_shift_buckets<const W: usize>(
    hashes: &[u64; W],
    buckets: usize,
    bits: u32,
) -> [usize; W] {
    std::array::from_fn(|l| multiply_shift_bucket(hashes[l], buckets, bits))
}

/// Horner evaluation of one polynomial hash at `W` folded points — per lane
/// identical to [`crate::hashing::PolyHash::hash_u64_folded`] (same coefficient
/// order, same [`mod_mersenne`] per step), with the `W` serial Horner chains
/// pipelining against each other.
#[inline(always)]
pub fn poly_hash_folded<const W: usize>(coefficients: &[u64], xs: &[u64; W]) -> [u64; W] {
    let mut acc = [0u64; W];
    for &c in coefficients.iter().rev() {
        for l in 0..W {
            acc[l] = mod_mersenne(acc[l] as u128 * xs[l] as u128 + c as u128);
        }
    }
    acc
}

/// Power-form 4-wise hash of `W` folded items under one coefficient set — per lane
/// identical to [`FourWise::hash_folded`] (three independent partial folds, one
/// final fold-and-subtract).
#[inline(always)]
pub fn four_wise_hashes<const W: usize>(c: &[u64; 4], f: &[FoldedItem; W]) -> [u64; W] {
    let mut out = [0u64; W];
    for l in 0..W {
        let s = c[0]
            + fold_mersenne(c[1] as u128 * f[l].x as u128)
            + fold_mersenne(c[2] as u128 * f[l].x2 as u128)
            + fold_mersenne(c[3] as u128 * f[l].x3 as u128);
        let r = (s & MERSENNE_61) + (s >> 61);
        out[l] = r - (MERSENNE_61 & ((r >= MERSENNE_61) as u64).wrapping_neg());
    }
    out
}

/// Rademacher signs of `W` folded items under one coefficient set — per lane
/// identical to [`FourWise::sign_folded`].
#[inline(always)]
pub fn four_wise_signs<const W: usize>(c: &[u64; 4], f: &[FoldedItem; W]) -> [i64; W] {
    let h = four_wise_hashes::<W>(c, f);
    std::array::from_fn(|l| 1 - 2 * (h[l] & 1) as i64)
}

/// Power-form 4-wise hashes of **one** folded item under `W` different coefficient
/// sets — the transposed lane shape the AMS sign kernel wants (one item, a whole
/// row of sign functions).  Per function identical to [`FourWise::hash_folded`].
///
/// # Panics
///
/// If `hashes.len() < W`.
#[inline(always)]
pub fn four_wise_hashes_many<const W: usize>(hashes: &[FourWise], f: &FoldedItem) -> [u64; W] {
    let mut out = [0u64; W];
    for l in 0..W {
        let c = hashes[l].coefficients();
        let s = c[0]
            + fold_mersenne(c[1] as u128 * f.x as u128)
            + fold_mersenne(c[2] as u128 * f.x2 as u128)
            + fold_mersenne(c[3] as u128 * f.x3 as u128);
        let r = (s & MERSENNE_61) + (s >> 61);
        out[l] = r - (MERSENNE_61 & ((r >= MERSENNE_61) as u64).wrapping_neg());
    }
    out
}

/// The number of significant bytes of `x`: the least `k` with `x < 2^(8k)` — 0
/// for `x = 0`, 8 for any key with a bit set at 56 or above.  A batch kernel takes
/// it of the OR of a block's keys and hands it to [`tabulation_hashes`].
#[inline]
pub fn significant_bytes(x: u64) -> usize {
    (64 - x.leading_zeros() as usize).div_ceil(8)
}

/// Tabulation hash of `W` keys whose bytes `bytes..8` are all zero — per lane
/// identical to [`TabulationHash::hash_u64`], with the byte-table iteration
/// outermost so the `bytes·W` independent table loads issue in interleaved order
/// and overlap in the load queue (one item's lookups are a short dependent XOR
/// reduction; `W` items' lookups are memory-level parallelism).
///
/// # Exactness
///
/// `hash_u64(x) = T_0[x₀] ^ … ^ T_7[x₇]`, `xᵢ` being byte `i` of `x`.  When
/// `xᵢ = 0` for every `i ≥ k`, the terms from `k` up are `T_k[0] ^ … ^ T_7[0]`,
/// the constant the hash precomputed at construction.  XOR is associative and
/// commutative, so starting each lane at that constant and XOR-ing in tables
/// `0..k` yields the same 64 bits as the scalar hash.  Kernels pass
/// `k = significant_bytes(x_0 | … | x_{n−1})` over a block: a key's byte `i` can
/// be non-zero only where the OR's byte `i` is, so every key of the block has zero
/// bytes from `k` up.  `k = 8` is the full eight-table evaluation; an all-zero
/// block has `k = 0` and reads no table.
///
/// # Panics
///
/// If `bytes > 8`.  Debug builds also check that every key fits in `bytes` bytes.
#[inline(always)]
pub fn tabulation_hashes<const W: usize>(
    hash: &TabulationHash,
    xs: &[u64; W],
    bytes: usize,
) -> [u64; W] {
    debug_assert!(xs.iter().all(|&x| significant_bytes(x) <= bytes));
    let mut acc = [hash.zero_tail(bytes); W];
    for (i, table) in hash.tables()[..bytes].iter().enumerate() {
        for l in 0..W {
            acc[l] ^= table[((xs[l] >> (8 * i)) & 0xff) as usize];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::PolyHash;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn probe_items(seed: u64) -> Vec<u64> {
        let mut items = vec![
            0u64,
            1,
            2,
            MERSENNE_61 - 2,
            MERSENNE_61 - 1,
            MERSENNE_61,
            MERSENNE_61 + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        items.extend(
            (0..4_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed)),
        );
        items
    }

    /// Runs `check` on every supported width over sliding windows of the probe set,
    /// so each helper is pinned at W = 1 and 8 on identical inputs.
    fn for_each_width(seed: u64, mut check: impl FnMut(&[u64])) {
        let items = probe_items(seed);
        for &w in &LANE_WIDTHS {
            for window in items.windows(w) {
                check(window);
            }
        }
    }

    #[test]
    fn supported_widths_are_exactly_the_advertised_set() {
        for w in 0..=16 {
            assert_eq!(is_supported_width(w), matches!(w, 1 | 8), "{w}");
        }
        assert!(is_supported_width(DEFAULT_LANE_WIDTH));
    }

    fn check_window<const W: usize>(window: &[u64], poly2: &PolyHash, fw: &FourWise) {
        let xs: [u64; W] = window.try_into().unwrap();
        let folded = fold_items::<W>(&xs);
        let folded_x: [u64; W] = std::array::from_fn(|l| folded[l].x);
        let poly = poly_hash_folded::<W>(poly2.coefficients(), &folded_x);
        let fwh = four_wise_hashes::<W>(&fw.coefficients(), &folded);
        let fws = four_wise_signs::<W>(&fw.coefficients(), &folded);
        let buckets = multiply_shift_buckets::<W>(&poly, 28, 61);
        for l in 0..W {
            let scalar = FoldedItem::new(xs[l]);
            assert_eq!(folded[l].x, scalar.x);
            assert_eq!(folded[l].x2, scalar.x2);
            assert_eq!(folded[l].x3, scalar.x3);
            assert_eq!(poly[l], poly2.hash_u64(xs[l]));
            assert_eq!(fwh[l], fw.hash_folded(&scalar));
            assert_eq!(fws[l], fw.sign_folded(&scalar));
            assert_eq!(buckets[l], multiply_shift_bucket(poly[l], 28, 61));
        }
    }

    #[test]
    fn every_lane_helper_is_bit_identical_to_its_scalar_counterpart() {
        for seed in [0u64, 7, 99] {
            let poly2 = PolyHash::from_seed(2, seed);
            let fw = FourWise::from_poly(&PolyHash::from_seed(4, seed ^ 0xA5));
            for_each_width(seed, |window| match window.len() {
                1 => check_window::<1>(window, &poly2, &fw),
                _ => check_window::<8>(window, &poly2, &fw),
            });
        }
    }

    #[test]
    fn many_hash_form_matches_per_function_evaluation() {
        let hashes: Vec<FourWise> = (0..16)
            .map(|s| FourWise::from_poly(&PolyHash::from_seed(4, s)))
            .collect();
        for &x in &probe_items(3)[..64] {
            let f = FoldedItem::new(x);
            let h8 = four_wise_hashes_many::<8>(&hashes, &f);
            let h4 = four_wise_hashes_many::<4>(&hashes[8..], &f);
            for l in 0..8 {
                assert_eq!(h8[l], hashes[l].hash_folded(&f), "x {x}, lane {l}");
            }
            for l in 0..4 {
                assert_eq!(h4[l], hashes[8 + l].hash_folded(&f), "x {x}, lane {l}");
            }
        }
    }

    #[test]
    fn significant_bytes_splits_at_every_byte_boundary() {
        assert_eq!(significant_bytes(0), 0);
        for k in 1..=8 {
            let low = 1u64 << (8 * (k - 1));
            assert_eq!(significant_bytes(low), k, "2^{}", 8 * (k - 1));
            let high = u64::MAX >> (64 - 8 * k);
            assert_eq!(significant_bytes(high), k, "{high:#x}");
        }
    }

    /// The probe set through the full eight-table evaluation, then keys of every
    /// width `k = 0..=8` through the `k`-table evaluation and every wider one, at
    /// both lane widths: each lane equals the scalar eight-table hash.
    #[test]
    fn tabulation_lanes_match_the_scalar_hash() {
        fn check<const W: usize>(hash: &TabulationHash, keys: &[u64], bytes: usize) {
            for window in keys.windows(W) {
                let xs: [u64; W] = window.try_into().unwrap();
                let got = tabulation_hashes::<W>(hash, &xs, bytes);
                for l in 0..W {
                    assert_eq!(
                        got[l],
                        hash.hash_u64(xs[l]),
                        "key {:#x}, {bytes} bytes",
                        xs[l]
                    );
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        let hash = TabulationHash::new(&mut rng);
        let probes = probe_items(11);
        check::<1>(&hash, &probes, 8);
        check::<8>(&hash, &probes, 8);
        for k in 0..=8usize {
            let mask = if k == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * k)) - 1
            };
            let mut keys = vec![0, mask, mask >> 1, mask & 0xff];
            keys.extend((1..64u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask));
            for bytes in k..=8 {
                check::<1>(&hash, &keys, bytes);
                check::<8>(&hash, &keys, bytes);
            }
        }
    }
}
