//! Limited-independence hash families.
//!
//! The paper's algorithms need pseudorandom decisions that can be re-derived from a
//! small stored seed rather than stored explicitly (storing a fresh random bit per item
//! would itself defeat the space bound).  This module provides:
//!
//! * [`PolyHash`] — k-wise independent polynomial hashing over the Mersenne prime
//!   `2^61 − 1`, used for universe subsampling (Algorithm 3), stream-position
//!   subsampling (Algorithm 2), and seed-derived p-stable variates ([`crate::stable`]).
//! * [`TabulationHash`] — simple tabulation hashing (3-wise independent, very fast),
//!   used by the CountMin / CountSketch baselines where 2-wise independence suffices.

use rand::{Rng, RngCore, SeedableRng};

/// The Mersenne prime 2^61 − 1, the modulus for polynomial hashing.
pub const MERSENNE_61: u64 = (1u64 << 61) - 1;

/// Reduces a 128-bit product modulo 2^61 − 1.
///
/// Branchless: the folded sum `lo + hi` is strictly below `2·(2^61 − 1)` for every
/// product of operands below the modulus, so a single masked subtraction fully
/// reduces it (the conditional is a flag-to-mask sequence, not a branch — one less
/// mispredict source inside the sign-evaluation kernels).  Public so the
/// lane-packed kernels in [`crate::lanes`] evaluate the *same* reduction per lane.
#[inline(always)]
pub fn mod_mersenne(x: u128) -> u64 {
    let lo = (x & MERSENNE_61 as u128) as u64;
    let hi = (x >> 61) as u64;
    let r = lo + hi;
    r - (MERSENNE_61 & ((r >= MERSENNE_61) as u64).wrapping_neg())
}

/// Folds a 128-bit value into `[0, 2^62)` without completing the reduction — the
/// cheap half of [`mod_mersenne`], used where several partial residues are summed
/// before one final reduction (see [`FourWise::hash_folded`]; public for the
/// lane-packed evaluators in [`crate::lanes`]).
#[inline(always)]
pub fn fold_mersenne(x: u128) -> u64 {
    (x & MERSENNE_61 as u128) as u64 + (x >> 61) as u64
}

/// Maps a hash value occupying `bits` uniform bits onto `[0, buckets)` by
/// multiply-shift: `⌊hash · buckets / 2^bits⌋`.
///
/// This is the bucket mapping shared by [`PolyHash::hash_bucket`] (61-bit hashes) and
/// [`TabulationHash::hash_bucket`] (64-bit hashes); unlike `hash % buckets` it carries
/// no modulo bias on a nearly-uniform input and compiles to one widening multiply.
#[inline(always)]
pub fn multiply_shift_bucket(hash: u64, buckets: usize, bits: u32) -> usize {
    debug_assert!(buckets > 0);
    debug_assert!(bits == 64 || hash < (1u64 << bits));
    ((hash as u128 * buckets as u128) >> bits) as usize
}

/// Smallest hash in `[0, MERSENNE_61]` satisfying a predicate that is monotone
/// non-decreasing in the hash — the shared boundary search behind
/// [`SubsampleThreshold`] and [`GeometricLevels`].  ~61 predicate evaluations, done
/// once per configuration, never per item.
fn lowest_hash_where(pred: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0u64, MERSENNE_61);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// A precomputed integer cutoff making `hash_unit(x) < rate` a single `u64` compare.
///
/// [`PolyHash::hash_unit`] divides the 61-bit hash by `2^61 − 1`; comparing that
/// quotient against `rate` per item puts an f64 division on the subsampling hot path.
/// The cutoff is the exact integer boundary of the same predicate: `keeps(h)` returns
/// precisely `(h as f64 / MERSENNE_61 as f64) < rate` for **every** `h`, because it is
/// found by binary search over the monotone f64 predicate itself (rounding included)
/// rather than by multiplying `rate` back up.  See the equivalence tests.
///
/// This is the single-fixed-rate face of the mechanism; [`GeometricLevels`] is its
/// multi-level sibling and the one on the `F_p` estimator's production hot path.
/// Reach for `SubsampleThreshold` when a new algorithm tests one subsampling rate
/// against many items (i.e. wherever [`PolyHash::subsamples`] would otherwise sit in
/// a per-item loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubsampleThreshold {
    cutoff: u64,
}

impl SubsampleThreshold {
    /// Precomputes the cutoff for `rate`.
    pub fn for_rate(rate: f64) -> Self {
        // Smallest h in [0, MERSENNE_61] with (h as f64 / M as f64) >= rate; every
        // hash below it — and only those — satisfies hash_unit < rate.
        Self {
            cutoff: lowest_hash_where(|h| (h as f64 / MERSENNE_61 as f64) >= rate),
        }
    }

    /// Whether a [`PolyHash::hash_u64`] output survives subsampling at the
    /// precomputed rate.
    #[inline(always)]
    pub fn keeps(&self, hash: u64) -> bool {
        hash < self.cutoff
    }

    /// The integer cutoff (exposed for tests and diagnostics).
    pub fn cutoff(&self) -> u64 {
        self.cutoff
    }
}

/// Precomputed cutoffs for the geometric subsampling levels `2^{-1}, 2^{-2}, …`:
/// the deepest level an item reaches becomes a leading-zero count and one integer
/// compare instead of a division plus `log2` plus `floor` per item.
///
/// [`GeometricLevels::deepest`] reproduces the f64 computation
/// `min(max_level, ⌊−log2(max(hash_unit(x), MIN_POSITIVE))⌋)` **exactly**, including
/// any rounding quirks of the platform's `log2`, because each level boundary is found
/// by binary search over that very f64 formula (which is monotone in the hash) rather
/// than over an idealised `u ≤ 2^{-k}` predicate.
///
/// Why one compare suffices: a hash `h ∈ [2^j, 2^{j+1})` converts to an f64 in
/// `[2^j, 2^{j+1}]` (rounding may reach the upper power), and dividing by
/// `2^61 − 1`, which is `2^61` as an f64, is exact.  The power-of-two endpoints have
/// exact logarithms, so `−log2 u` lies in `[60 − j, 61 − j]` and the reference level
/// is `c = 60 − j` (that is, `leading_zeros(h) − 3`) or `c + 1`; the exact bound of
/// level `c + 1` decides which.
#[derive(Debug, Clone)]
pub struct GeometricLevels {
    /// `bounds[k-1]` = smallest `h` whose f64-computed deepest level is `< k` —
    /// strictly decreasing in `k`.
    bounds: Vec<u64>,
}

impl GeometricLevels {
    /// The f64 reference computation this table replaces (kept as the oracle for both
    /// construction and the equivalence tests).
    pub fn reference_deepest(hash: u64) -> usize {
        let u = (hash as f64 / MERSENNE_61 as f64).max(f64::MIN_POSITIVE);
        (-u.log2()).floor().max(0.0) as usize
    }

    /// Precomputes boundaries for levels `1..=max_level` (level 0 is "kept always").
    pub fn new(max_level: usize) -> Self {
        let bounds = (1..=max_level)
            // Smallest h the f64 formula keeps out of level k.
            .map(|k| lowest_hash_where(|h| Self::reference_deepest(h) < k))
            .collect();
        Self { bounds }
    }

    /// The deepest level in `0..=max_level` reached by a [`PolyHash::hash_u64`] output.
    #[inline]
    pub fn deepest(&self, hash: u64) -> usize {
        // h = 0 maps to u = MIN_POSITIVE, level 1022: deeper than any table.
        let candidate = if hash == 0 {
            usize::MAX
        } else {
            (hash.leading_zeros() as usize).saturating_sub(3)
        };
        let level = next_level(&self.bounds, candidate, hash);
        debug_assert_eq!(
            level,
            Self::reference_deepest(hash).min(self.max_level()),
            "hash {hash}"
        );
        level
    }

    /// The deepest representable level.
    pub fn max_level(&self) -> usize {
        self.bounds.len()
    }
}

/// An item folded for repeated polynomial hashing: `x mod (2^61 − 1)` together with
/// its square and cube residues.
///
/// Algorithms that evaluate *many* polynomial hashes of the *same* item per update
/// (an AMS sketch evaluates one 4-wise sign per counter; CountSketch one bucket and
/// one sign per row) fold the item **once** and reuse the powers, instead of paying
/// the `x mod M` fold and the serial Horner chain inside every evaluation.
#[derive(Debug, Clone, Copy)]
pub struct FoldedItem {
    /// `x mod (2^61 − 1)`.
    pub x: u64,
    /// `x² mod (2^61 − 1)`.
    pub x2: u64,
    /// `x³ mod (2^61 − 1)`.
    pub x3: u64,
}

impl FoldedItem {
    /// Folds `x` and precomputes its square and cube residues (three multiplies,
    /// once per item instead of per hash evaluation).
    #[inline(always)]
    pub fn new(x: u64) -> Self {
        let x = x % MERSENNE_61;
        let x2 = mod_mersenne(x as u128 * x as u128);
        let x3 = mod_mersenne(x2 as u128 * x as u128);
        Self { x, x2, x3 }
    }
}

/// A 4-wise independent hash in power form: `h(x) = a₀ + a₁x + a₂x² + a₃x³ mod
/// (2^61 − 1)`, evaluated from a [`FoldedItem`]'s precomputed powers.
///
/// Bit-identical to [`PolyHash::hash_u64`] on the same coefficients (the unit tests
/// pin this), but the three coefficient multiplies are **independent** rather than a
/// serial Horner chain — they pipeline within one evaluation and across the
/// coefficient array of a whole sketch row, which is what makes the AMS batch kernel
/// fast.  The three partial residues are folded to `< 2^62` and summed (the total
/// stays below `2^64`), then one final fold-and-subtract produces the canonical
/// representative in `[0, 2^61 − 1)` — the same value the fully-reducing Horner
/// evaluation computes, because both are the unique representative of the same
/// residue class.
#[derive(Debug, Clone, Copy)]
pub struct FourWise {
    /// Coefficients `[a₀, a₁, a₂, a₃]` (constant term first).
    c: [u64; 4],
}

impl FourWise {
    /// Converts a 4-wise [`PolyHash`] into power form (same hash values).
    pub fn from_poly(h: &PolyHash) -> Self {
        assert_eq!(h.independence(), 4, "FourWise requires a 4-wise PolyHash");
        let c = h.coefficients();
        Self {
            c: [c[0], c[1], c[2], c[3]],
        }
    }

    /// The power-form coefficients `[a₀, a₁, a₂, a₃]` (constant term first) — exposed
    /// so the lane-packed evaluators in [`crate::lanes`] can re-shape the evaluation
    /// without re-drawing randomness, exactly like [`PolyHash::coefficients`].
    #[inline(always)]
    pub fn coefficients(&self) -> [u64; 4] {
        self.c
    }

    /// Hash of a folded item as an element of `[0, 2^61 − 1)` — equal to
    /// [`PolyHash::hash_u64`] of the unfolded item.
    #[inline(always)]
    pub fn hash_folded(&self, f: &FoldedItem) -> u64 {
        let s = self.c[0]
            + fold_mersenne(self.c[1] as u128 * f.x as u128)
            + fold_mersenne(self.c[2] as u128 * f.x2 as u128)
            + fold_mersenne(self.c[3] as u128 * f.x3 as u128);
        let r = (s & MERSENNE_61) + (s >> 61);
        r - (MERSENNE_61 & ((r >= MERSENNE_61) as u64).wrapping_neg())
    }

    /// Rademacher sign `±1` of a folded item — equal to [`PolyHash::hash_sign`] of
    /// the unfolded item (branchless: `1 − 2·(h & 1)`).
    #[inline(always)]
    pub fn sign_folded(&self, f: &FoldedItem) -> i64 {
        1 - 2 * (self.hash_folded(f) & 1) as i64
    }

    /// Rademacher sign `±1` of an unfolded item (folds internally; use
    /// [`FourWise::sign_folded`] when hashing the same item repeatedly).
    #[inline]
    pub fn sign(&self, x: u64) -> i64 {
        self.sign_folded(&FoldedItem::new(x))
    }
}

/// The level `c` or `c + 1` of a key known to reach level `c` and at most `c + 1`
/// (clamped to the table's depth), given `bounds[k-1]` = the smallest key whose level
/// is `< k`: one compare against the bound of level `c + 1`.
#[inline(always)]
fn next_level(bounds: &[u64], c: usize, key: u64) -> usize {
    match bounds.get(c) {
        Some(&b) => c + (key < b) as usize,
        None => bounds.len(),
    }
}

/// Precomputed cutoffs for the geometric levels of a **unit-interval draw**: the
/// deepest level `⌊−log2(u)⌋` reached by `u ∈ (0, 1)` becomes an exponent
/// extraction and one integer compare instead of an f64 `log2` + `floor` per draw.
///
/// This is the unit-interval sibling of [`GeometricLevels`] (which maps *hash*
/// outputs to levels): `FullSampleAndHold` draws one uniform per (item, repetition)
/// to pick the deepest stream-subsampling level, and that `log2` sat on its per-item
/// hot path.  [`UnitLevels::deepest`] reproduces the f64 reference computation
/// **exactly** — each boundary is found by binary search over the f64 bit patterns
/// (order-isomorphic to the values for non-negative floats) of the very formula it
/// replaces, rounding quirks included.
///
/// Why one compare suffices: a normal `u ∈ [2^e, 2^{e+1})` has `log2 u` in
/// `[e, e+1]` even after rounding (both endpoints are exact), so the reference level
/// is `c = −e − 1` or `c + 1`, and `c` is read off the biased exponent field `E` as
/// `1022 − E`.  Zero and subnormals (`E = 0`) are clamped to `MIN_POSITIVE`, level
/// 1022, which the same formula yields.
#[derive(Debug, Clone)]
pub struct UnitLevels {
    /// `bounds[k-1]` = bits of the smallest `u` whose f64-computed deepest level is
    /// `< k` — strictly decreasing in `k`.
    bounds: Vec<u64>,
}

impl UnitLevels {
    /// The f64 reference computation this table replaces (kept as the oracle for
    /// both construction and the equivalence tests).
    pub fn reference_deepest(u: f64) -> usize {
        let u = u.max(f64::MIN_POSITIVE);
        (-u.log2()).floor().max(0.0) as usize
    }

    /// Precomputes boundaries for levels `1..=max_level` (level 0 is "always").
    pub fn new(max_level: usize) -> Self {
        let one = 1.0f64.to_bits();
        let bounds = (1..=max_level)
            .map(|k| {
                // Smallest positive-f64 bit pattern the reference keeps out of level
                // k; bit patterns of non-negative floats sort like the floats.
                let (mut lo, mut hi) = (0u64, one);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if Self::reference_deepest(f64::from_bits(mid)) < k {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                lo
            })
            .collect();
        Self { bounds }
    }

    /// The deepest level in `0..=max_level` reached by `u ∈ [0, 1)` — equal to
    /// `reference_deepest(u).min(max_level)`.
    #[inline]
    pub fn deepest(&self, u: f64) -> usize {
        debug_assert!((0.0..1.0).contains(&u));
        let bits = u.to_bits();
        // u < 1 has a biased exponent of at most 1022.
        let candidate = 1022 - (bits >> 52) as usize;
        let level = next_level(&self.bounds, candidate, bits);
        debug_assert_eq!(
            level,
            Self::reference_deepest(u).min(self.max_level()),
            "u {u}"
        );
        level
    }

    /// The deepest representable level.
    pub fn max_level(&self) -> usize {
        self.bounds.len()
    }
}

/// k-wise independent hash function `h(x) = Σ a_i x^i mod (2^61 − 1)`.
///
/// Evaluations are deterministic given the seed, so the function occupies only `k`
/// words of space regardless of how many items are hashed.
#[derive(Debug, Clone)]
pub struct PolyHash {
    coefficients: Vec<u64>,
}

impl PolyHash {
    /// Draws a fresh k-wise independent hash function using `rng`.
    pub fn new(k: usize, rng: &mut impl RngCore) -> Self {
        assert!(k >= 1, "independence must be at least 1");
        let coefficients = (0..k).map(|_| rng.gen_range(0..MERSENNE_61)).collect();
        Self { coefficients }
    }

    /// Deterministically derives a k-wise independent hash function from a seed
    /// (convenient for reproducible experiments).
    pub fn from_seed(k: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Self::new(k, &mut rng)
    }

    /// A pairwise-independent function (k = 2).
    pub fn two_wise(rng: &mut impl RngCore) -> Self {
        Self::new(2, rng)
    }

    /// A 4-wise independent function (used by AMS-style sign sketches).
    pub fn four_wise(rng: &mut impl RngCore) -> Self {
        Self::new(4, rng)
    }

    /// Degree of independence.
    pub fn independence(&self) -> usize {
        self.coefficients.len()
    }

    /// The polynomial coefficients `[a₀, a₁, …]` (constant term first) — exposed so
    /// batch kernels can re-shape the evaluation (see [`FourWise`]) without
    /// re-drawing randomness.
    pub fn coefficients(&self) -> &[u64] {
        &self.coefficients
    }

    /// Hash of `x` as an element of `[0, 2^61 − 1)`.
    #[inline]
    pub fn hash_u64(&self, x: u64) -> u64 {
        self.hash_u64_folded(x % MERSENNE_61)
    }

    /// Hash of an item already folded to `[0, 2^61 − 1)` — equal to
    /// [`PolyHash::hash_u64`] of the unfolded item.  Hot loops that evaluate several
    /// hash functions of the same item fold it once (`x % MERSENNE_61`) and call this.
    #[inline]
    pub fn hash_u64_folded(&self, x: u64) -> u64 {
        debug_assert!(x < MERSENNE_61);
        let mut acc: u64 = 0;
        // Horner evaluation from the highest coefficient down.
        for &c in self.coefficients.iter().rev() {
            acc = mod_mersenne(acc as u128 * x as u128 + c as u128);
        }
        acc
    }

    /// Hash of `x` mapped to the unit interval `[0, 1)`.
    #[inline]
    pub fn hash_unit(&self, x: u64) -> f64 {
        self.hash_u64(x) as f64 / MERSENNE_61 as f64
    }

    /// Hash of `x` mapped to a bucket in `[0, buckets)` (multiply-shift on the 61-bit
    /// output; see [`multiply_shift_bucket`]).
    #[inline]
    pub fn hash_bucket(&self, x: u64, buckets: usize) -> usize {
        assert!(buckets > 0);
        multiply_shift_bucket(self.hash_u64(x), buckets, 61)
    }

    /// Hash of `x` mapped to a Rademacher sign `±1`.
    #[inline]
    pub fn hash_sign(&self, x: u64) -> i64 {
        if self.hash_u64(x) & 1 == 0 {
            1
        } else {
            -1
        }
    }

    /// Whether `x` survives subsampling at rate `rate ∈ [0, 1]`.
    ///
    /// Because the decision is a deterministic function of `x`, repeated occurrences of
    /// the same item are consistently kept or dropped — exactly what universe
    /// subsampling (Algorithm 3) requires — and nested rates produce nested subsets when
    /// the same hash function is reused with smaller rates.
    ///
    /// Hot loops that test one fixed rate against many items should precompute
    /// [`SubsampleThreshold::for_rate`] once and call
    /// `threshold.keeps(hash.hash_u64(x))` — one integer compare per item, equivalent
    /// bit-for-bit to this method.
    #[inline]
    pub fn subsamples(&self, x: u64, rate: f64) -> bool {
        self.hash_unit(x) < rate
    }
}

/// Simple tabulation hashing on the 8 bytes of a `u64` key (3-wise independent;
/// Pătraşcu & Thorup, "The Power of Simple Tabulation Hashing", JACM 2012).
///
/// Eight tables `T_0..T_7` of 256 random words; the hash of `x` is
/// `T_0[x₀] ^ T_1[x₁] ^ … ^ T_7[x₇]`, where `xᵢ` is byte `i` of `x` (least
/// significant first).  Keys drawn from a small universe `[n]` have zero high
/// bytes, whose lookups all read the same entry `Tᵢ[0]`.  Construction therefore
/// also folds those entries into nine constants `T_k[0] ^ … ^ T_7[0]`
/// (`k = 0..=8`), so a batch kernel whose keys fit in `k` bytes looks up only
/// tables `0..k` ([`crate::lanes::tabulation_hashes`]).
#[derive(Debug, Clone)]
pub struct TabulationHash {
    tables: Vec<[u64; 256]>,
    /// `zero_tail[k] = T_k[0] ^ … ^ T_7[0]`: the part of the hash contributed by
    /// zero bytes `k..8` (`zero_tail[8] = 0`).
    zero_tail: [u64; 9],
}

impl TabulationHash {
    /// Draws fresh random tables using `rng`.
    pub fn new(rng: &mut impl RngCore) -> Self {
        let mut tables = Vec::with_capacity(8);
        for _ in 0..8 {
            let mut t = [0u64; 256];
            for entry in t.iter_mut() {
                *entry = rng.gen();
            }
            tables.push(t);
        }
        let mut zero_tail = [0u64; 9];
        for k in (0..8).rev() {
            zero_tail[k] = zero_tail[k + 1] ^ tables[k][0];
        }
        Self { tables, zero_tail }
    }

    /// Hash of `x` as a full 64-bit value.
    #[inline]
    pub fn hash_u64(&self, x: u64) -> u64 {
        let mut acc = 0u64;
        for (i, table) in self.tables.iter().enumerate() {
            let byte = ((x >> (8 * i)) & 0xff) as usize;
            acc ^= table[byte];
        }
        acc
    }

    /// The eight byte tables, for the lane-packed evaluator in [`crate::lanes`]
    /// (which interleaves the table lookups of several keys for memory-level
    /// parallelism while XOR-ing each lane in the same order as
    /// [`TabulationHash::hash_u64`]).
    #[inline(always)]
    pub(crate) fn tables(&self) -> &[[u64; 256]] {
        &self.tables
    }

    /// The hash of a key whose bytes `k..8` are all zero, before tables `0..k`
    /// are XOR-ed in: `T_k[0] ^ … ^ T_7[0]` (`0` at `k = 8`).
    ///
    /// # Panics
    ///
    /// If `k > 8`.
    #[inline(always)]
    pub(crate) fn zero_tail(&self, k: usize) -> u64 {
        self.zero_tail[k]
    }

    /// Hash of `x` mapped to a bucket in `[0, buckets)` (multiply-shift on the 64-bit
    /// output; see [`multiply_shift_bucket`]).
    #[inline]
    pub fn hash_bucket(&self, x: u64, buckets: usize) -> usize {
        assert!(buckets > 0);
        multiply_shift_bucket(self.hash_u64(x), buckets, 64)
    }

    /// Hash of `x` mapped to a Rademacher sign `±1`.
    #[inline]
    pub fn hash_sign(&self, x: u64) -> i64 {
        if self.hash_u64(x).count_ones().is_multiple_of(2) {
            1
        } else {
            -1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    #[test]
    fn poly_hash_is_deterministic_and_seeded() {
        let h1 = PolyHash::from_seed(4, 99);
        let h2 = PolyHash::from_seed(4, 99);
        let h3 = PolyHash::from_seed(4, 100);
        for x in [0u64, 1, 17, u64::MAX - 3] {
            assert_eq!(h1.hash_u64(x), h2.hash_u64(x));
        }
        assert_ne!(
            (0..64).map(|x| h1.hash_u64(x)).collect::<Vec<_>>(),
            (0..64).map(|x| h3.hash_u64(x)).collect::<Vec<_>>()
        );
        assert_eq!(h1.independence(), 4);
    }

    #[test]
    fn unit_hash_is_roughly_uniform() {
        let h = PolyHash::from_seed(2, 7);
        let n = 20_000u64;
        let mean: f64 = (0..n).map(|x| h.hash_unit(x)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let below_quarter = (0..n).filter(|&x| h.hash_unit(x) < 0.25).count();
        let frac = below_quarter as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn bucket_hash_spreads_over_all_buckets() {
        let h = PolyHash::from_seed(2, 3);
        let buckets = 16;
        let mut counts = vec![0usize; buckets];
        for x in 0..16_000u64 {
            counts[h.hash_bucket(x, buckets)] += 1;
        }
        for &c in &counts {
            assert!(c > 700 && c < 1_300, "bucket count {c} far from 1000");
        }
    }

    #[test]
    fn sign_hash_is_balanced() {
        let h = PolyHash::from_seed(4, 11);
        let sum: i64 = (0..10_000u64).map(|x| h.hash_sign(x)).sum();
        assert!(sum.abs() < 500, "sign sum {sum} not balanced");
    }

    #[test]
    fn subsampling_rate_is_respected_and_consistent() {
        let h = PolyHash::from_seed(2, 5);
        let n = 50_000u64;
        let kept = (0..n).filter(|&x| h.subsamples(x, 0.1)).count();
        let frac = kept as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.01, "kept fraction {frac}");
        // Nested: everything kept at rate 0.05 is also kept at rate 0.1.
        for x in 0..n {
            if h.subsamples(x, 0.05) {
                assert!(h.subsamples(x, 0.1));
            }
        }
    }

    #[test]
    fn mersenne_reduction_matches_naive_modulo() {
        for &(a, b) in &[(3u64, 5u64), (MERSENNE_61 - 1, 2), (1 << 60, 1 << 59)] {
            let expected = ((a as u128 * b as u128) % MERSENNE_61 as u128) as u64;
            assert_eq!(mod_mersenne(a as u128 * b as u128), expected);
        }
    }

    #[test]
    fn multiply_shift_bucket_matches_the_inline_expressions() {
        // The two call sites it replaced: 61-bit (PolyHash) and 64-bit (Tabulation).
        for hash in [0u64, 1, 12345, MERSENNE_61 - 1, u64::MAX] {
            for buckets in [1usize, 2, 7, 28, 1024] {
                if hash < MERSENNE_61 {
                    assert_eq!(
                        multiply_shift_bucket(hash, buckets, 61),
                        ((hash as u128 * buckets as u128) >> 61) as usize
                    );
                    assert!(multiply_shift_bucket(hash, buckets, 61) < buckets);
                }
                assert_eq!(
                    multiply_shift_bucket(hash, buckets, 64),
                    ((hash as u128 * buckets as u128) >> 64) as usize
                );
                assert!(multiply_shift_bucket(hash, buckets, 64) < buckets);
            }
        }
    }

    /// Rates the recorded experiments actually use: the per-update sampling
    /// probabilities of `Params::sample_prob` at the table sizes, the geometric
    /// universe-subsampling rates, plus awkward boundary values.
    fn recorded_rates() -> Vec<f64> {
        let mut rates = vec![0.0, 1.0, 1.5, 0.1, 0.05, 0.25, 0.5, 1e-9, 0.6339];
        for k in 1..=24 {
            rates.push(2f64.powi(-k));
        }
        rates
    }

    #[test]
    fn subsample_threshold_is_equivalent_to_the_f64_comparison() {
        // Proof of equivalence: the cutoff is the binary-searched boundary of the f64
        // predicate, so hashes at and adjacent to it must agree, as must a dense
        // sample of the whole range and real hash outputs.
        let h = PolyHash::from_seed(2, 5);
        for rate in recorded_rates() {
            let t = SubsampleThreshold::for_rate(rate);
            // Probes stay within the hash domain [0, MERSENNE_61): for rates ≥ 1 the
            // cutoff saturates at MERSENNE_61, one past the largest possible hash.
            for probe in [
                t.cutoff().saturating_sub(2),
                t.cutoff().saturating_sub(1),
                t.cutoff().min(MERSENNE_61 - 1),
                (t.cutoff() + 1).min(MERSENNE_61 - 1),
                0,
                MERSENNE_61 - 1,
            ] {
                assert_eq!(
                    t.keeps(probe),
                    ((probe as f64 / MERSENNE_61 as f64) < rate),
                    "rate {rate}, hash {probe}"
                );
            }
            for x in 0..2_000u64 {
                let hash = h.hash_u64(x * 0x9E37_79B9 + 1);
                assert_eq!(
                    t.keeps(hash),
                    h.subsamples(x * 0x9E37_79B9 + 1, rate),
                    "rate {rate}, item hash {hash}"
                );
            }
        }
    }

    #[test]
    fn geometric_levels_are_equivalent_to_the_f64_computation() {
        // The level counts the Fp estimator instantiates at the recorded experiment
        // sizes (universe_levels() for m = 2^12 .. 2^20), plus the shallowest tables
        // and deep ones around and past the benchmark's.
        for max_level in [1usize, 2, 12, 14, 18, 20, 22, 23, 40] {
            let levels = GeometricLevels::new(max_level);
            assert_eq!(levels.max_level(), max_level);
            // ±300 around every power of two, where the O(1) candidate level steps:
            // the hash 2^(61-k) sits exactly on level k of the idealised predicate.
            for k in 0..=61u32 {
                let centre = 1u64 << (61 - k);
                for probe in centre.saturating_sub(300)..=(centre + 300).min(MERSENNE_61 - 1) {
                    assert_eq!(
                        levels.deepest(probe),
                        GeometricLevels::reference_deepest(probe).min(max_level),
                        "max_level {max_level}, hash {probe} near 2^{}",
                        61 - k
                    );
                }
            }
            // Boundary probes around every precomputed bound...
            for k in 1..=max_level {
                let b = levels.bounds[k - 1];
                for probe in [b.saturating_sub(1), b, (b + 1).min(MERSENNE_61 - 1)] {
                    assert_eq!(
                        levels.deepest(probe),
                        GeometricLevels::reference_deepest(probe).min(max_level),
                        "max_level {max_level}, boundary probe {probe}"
                    );
                }
            }
            // ... plus real hash outputs.
            let h = PolyHash::from_seed(2, 77);
            for x in 0..4_000u64 {
                let hash = h.hash_u64(x);
                assert_eq!(
                    levels.deepest(hash),
                    GeometricLevels::reference_deepest(hash).min(max_level),
                    "max_level {max_level}, x {x}"
                );
            }
        }
    }

    #[test]
    fn geometric_level_zero_hash_reaches_the_deepest_level() {
        let levels = GeometricLevels::new(19);
        assert_eq!(levels.deepest(0), 19, "h = 0 is kept everywhere");
        assert_eq!(levels.deepest(MERSENNE_61 - 1), 0);
        // A table deeper than any nonzero hash reaches (level 61, h = 1): a stream
        // length hint above 2^61 asks for one.
        let deep = GeometricLevels::new(64);
        assert_eq!(deep.deepest(0), 64);
        assert_eq!(deep.deepest(1), 61);
    }

    #[test]
    fn four_wise_power_form_equals_horner_evaluation() {
        // The batch kernels' sign evaluator must agree with PolyHash bit-for-bit on
        // every input class: small, random, near the modulus, and above it (folded).
        for seed in [0u64, 1, 7, 99, 0xDEAD] {
            let poly = PolyHash::from_seed(4, seed);
            let fw = FourWise::from_poly(&poly);
            let probes = [
                0u64,
                1,
                2,
                MERSENNE_61 - 2,
                MERSENNE_61 - 1,
                MERSENNE_61,
                MERSENNE_61 + 1,
                u64::MAX,
                u64::MAX - 1,
            ];
            for &x in &probes {
                let f = FoldedItem::new(x);
                assert_eq!(fw.hash_folded(&f), poly.hash_u64(x), "seed {seed}, x {x}");
                assert_eq!(fw.sign_folded(&f), poly.hash_sign(x), "seed {seed}, x {x}");
                assert_eq!(fw.sign(x), poly.hash_sign(x));
            }
            for i in 0..20_000u64 {
                let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
                assert_eq!(
                    fw.hash_folded(&FoldedItem::new(x)),
                    poly.hash_u64(x),
                    "seed {seed}, x {x}"
                );
            }
        }
    }

    #[test]
    fn folded_item_powers_are_the_reduced_powers() {
        for x in [3u64, MERSENNE_61 - 1, MERSENNE_61 + 5, u64::MAX] {
            let f = FoldedItem::new(x);
            let xm = (x % MERSENNE_61) as u128;
            assert_eq!(f.x as u128, xm);
            assert_eq!(f.x2 as u128, xm * xm % MERSENNE_61 as u128);
            assert_eq!(
                f.x3 as u128,
                (xm * xm % MERSENNE_61 as u128) * xm % MERSENNE_61 as u128
            );
        }
    }

    #[test]
    fn folded_poly_hash_matches_the_unfolded_entry_point() {
        let h = PolyHash::from_seed(2, 41);
        for x in [0u64, 5, MERSENNE_61 - 1, MERSENNE_61 + 3, u64::MAX] {
            assert_eq!(h.hash_u64_folded(x % MERSENNE_61), h.hash_u64(x));
        }
    }

    #[test]
    fn unit_levels_are_equivalent_to_the_f64_computation() {
        // Level counts FullSampleAndHold instantiates at the recorded experiment
        // sizes (stream_levels() − 1 for m = 2^12 .. 2^20), plus the shallowest
        // tables and deep ones around and past the benchmark's.
        for max_level in [1usize, 2, 11, 12, 18, 20, 22, 23, 40] {
            let levels = UnitLevels::new(max_level);
            assert_eq!(levels.max_level(), max_level);
            // ±300 ulps around every power of two below 1 — the normal range down to
            // MIN_POSITIVE and the subnormals below it — where the exponent-derived
            // candidate level steps; plus zero and the smallest subnormals.
            for k in 1..=1074u64 {
                // Bits of 2^-k: a biased exponent for normals, one mantissa bit below.
                let centre = if k <= 1022 {
                    (1023 - k) << 52
                } else {
                    1 << (1074 - k)
                };
                for bits in centre.saturating_sub(300)..=centre + 300 {
                    let u = f64::from_bits(bits);
                    if u < 1.0 {
                        assert_eq!(
                            levels.deepest(u),
                            UnitLevels::reference_deepest(u).min(max_level),
                            "max_level {max_level}, u {u:e} near 2^-{k}"
                        );
                    }
                }
            }
            for u in [0.0, f64::MIN_POSITIVE, f64::from_bits(1), f64::from_bits(2)] {
                assert_eq!(levels.deepest(u), max_level, "u {u:e}");
            }
            // Boundary probes around every precomputed bound...
            for k in 1..=max_level {
                let b = levels.bounds[k - 1];
                for probe in [b.saturating_sub(1), b, b + 1] {
                    let u = f64::from_bits(probe);
                    if (0.0..1.0).contains(&u) {
                        assert_eq!(
                            levels.deepest(u),
                            UnitLevels::reference_deepest(u).min(max_level),
                            "max_level {max_level}, boundary bits {probe}"
                        );
                    }
                }
            }
            // ... plus dense deterministic draws across the unit interval, biased
            // toward small u (where the deep levels live).
            for i in 1..4_000u64 {
                for &u in &[
                    i as f64 / 4_000.0,
                    2f64.powi(-((i % 60) as i32)) * (1.0 + (i as f64 / 8_000.0)).min(1.999),
                ] {
                    let u = u.min(1.0 - f64::EPSILON);
                    assert_eq!(
                        levels.deepest(u),
                        UnitLevels::reference_deepest(u).min(max_level),
                        "max_level {max_level}, u {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn unit_levels_handle_the_interval_endpoints() {
        let levels = UnitLevels::new(16);
        assert_eq!(levels.deepest(0.0), 16, "u = 0 reaches every level");
        assert_eq!(levels.deepest(f64::MIN_POSITIVE), 16);
        assert_eq!(levels.deepest(0.5), 1);
        assert_eq!(levels.deepest(0.75), 0);
        assert_eq!(
            levels.deepest(1.0 - f64::EPSILON),
            0,
            "u just below 1 stays at level 0"
        );
    }

    #[test]
    fn tabulation_hash_buckets_and_signs_behave() {
        let mut rng = StdRng::seed_from_u64(2);
        let h = TabulationHash::new(&mut rng);
        let buckets = 8;
        let mut counts = vec![0usize; buckets];
        let mut sign_sum = 0i64;
        for x in 0..8_000u64 {
            counts[h.hash_bucket(x, buckets)] += 1;
            sign_sum += h.hash_sign(x);
        }
        for &c in &counts {
            assert!(c > 700 && c < 1_300);
        }
        assert!(sign_sum.abs() < 500);
        assert_eq!(h.hash_u64(12345), h.hash_u64(12345));
    }
}
