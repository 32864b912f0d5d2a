//! Morris approximate counters (Theorem 1.5 of the paper; [Mor78, NY22]).
//!
//! A Morris counter stores only the register `X` and increments it probabilistically:
//! an increment is *accepted* with probability `(1+a)^{-X}`, and the count is estimated
//! as `((1+a)^X − 1)/a`.  After `n` increments the register is about
//! `log_{1+a}(1 + a·n)`, so the counter changes state only
//! `O((1/a)·log(a·n))  =  poly(log n, 1/ε, log 1/δ)` times — the property the paper
//! relies on to keep the per-item counters of `SampleAndHold` write-frugal.

use fsc_state::{StateTracker, TrackedCell};
use rand::{Rng, RngCore};

use crate::Counter;

/// Largest register value [`acceptance_probability`] is defined for: its exponent
/// is an `i32`.  Registers restored from untrusted bytes are checked against it.
pub const MAX_REGISTER: u64 = i32::MAX as u64;

/// Probability `(1+a)^{-x}` that an increment of a register at `x` is accepted.
///
/// The one definition every Morris register in the workspace evaluates — the
/// standalone [`MorrisCounter`] and the inline held counters of `SampleAndHold`
/// alike — so their sampled decisions agree bit for bit.
#[inline]
pub fn acceptance_probability(a: f64, x: u64) -> f64 {
    (1.0 + a).powi(-(x as i32))
}

/// Estimated count `((1+a)^x − 1)/a` of a register at `x`.
#[inline]
pub fn estimate(a: f64, x: u64) -> f64 {
    ((1.0 + a).powf(x as f64) - 1.0) / a
}

/// Memoised [`acceptance_probability`] for one growth parameter `a`:
/// `table[x] = (1+a)^{-x}`, computed with the very expression it replaces, so a
/// lookup is bit-identical to the `powi` it saves.
///
/// An owner of many registers with one `a` (the held counters of `SampleAndHold`)
/// keeps one table and reads the next acceptance probability from it on every
/// accepted increment.  The table grows on demand to the largest register looked up,
/// up to [`AcceptanceTable::CAP`] entries; registers beyond it are evaluated
/// directly, which bounds the table's memory however large a register grows (or a
/// restored one claims to be).
#[derive(Debug, Clone)]
pub struct AcceptanceTable {
    a: f64,
    table: Vec<f64>,
}

impl AcceptanceTable {
    /// Most entries the table ever holds (512 KiB of `f64`s).
    pub const CAP: usize = 1 << 16;

    /// An empty table for growth parameter `a`.
    pub fn new(a: f64) -> Self {
        Self {
            a,
            table: Vec::new(),
        }
    }

    /// The growth parameter the table is built for.
    pub fn growth(&self) -> f64 {
        self.a
    }

    /// `(1+a)^{-x}`, bit-identical to [`acceptance_probability`].
    #[inline]
    pub fn at(&mut self, x: u64) -> f64 {
        match self.table.get(x as usize) {
            Some(&p) => p,
            None => self.grow_to(x),
        }
    }

    #[cold]
    fn grow_to(&mut self, x: u64) -> f64 {
        let a = self.a;
        if (x as usize) < Self::CAP {
            let from = self.table.len() as u64;
            self.table
                .extend((from..=x).map(|y| acceptance_probability(a, y)));
        }
        acceptance_probability(a, x)
    }
}

/// A single Morris counter with growth parameter `a`.
///
/// The classic analysis gives `E[estimate] = n` (unbiased) and
/// `Var[estimate] = a·n(n−1)/2`, so choosing `a = 2ε²δ` yields a `(1±ε)`-approximation
/// with probability `1−δ` by Chebyshev's inequality.  For high-probability guarantees
/// use [`MorrisPlusCounter`], which takes a median of independent copies.
#[derive(Debug, Clone)]
pub struct MorrisCounter {
    register: TrackedCell<u64>,
    a: f64,
    /// Cached `(1+a)^{-X}` for the current register `X`.  The acceptance probability
    /// only changes when the register advances — `O((1/a)·log(a·n))` times over the
    /// counter's whole life — so caching it keeps the f64 `powi` off the rejected
    /// increments without changing a single sampled decision.
    accept_p: f64,
}

impl MorrisCounter {
    /// Creates a Morris counter with an explicit growth parameter `a ∈ (0, 1]`.
    pub fn new(tracker: &StateTracker, a: f64) -> Self {
        assert!(a > 0.0 && a <= 1.0, "growth parameter must be in (0, 1]");
        Self {
            register: TrackedCell::new(tracker, 0),
            a,
            accept_p: 1.0, // (1+a)^0
        }
    }

    /// Creates a Morris counter that is a `(1±ε)`-approximation with probability `1−δ`
    /// (single-counter Chebyshev guarantee: `a = 2ε²δ`, clamped to `(0, 1]`).
    pub fn for_accuracy(tracker: &StateTracker, eps: f64, delta: f64) -> Self {
        assert!(eps > 0.0 && delta > 0.0 && delta < 1.0);
        let a = (2.0 * eps * eps * delta).clamp(1e-9, 1.0);
        Self::new(tracker, a)
    }

    /// The growth parameter.
    pub fn growth(&self) -> f64 {
        self.a
    }

    /// Current value of the probabilistic register `X` (equals the number of state
    /// changes this counter has made).
    pub fn register(&self) -> u64 {
        *self.register.peek()
    }

    /// Probability that the next increment is accepted.
    pub fn acceptance_probability(&self) -> f64 {
        acceptance_probability(self.a, self.register())
    }

    /// Sets the register directly, keeping the cached acceptance probability in sync
    /// (test helper; production code only advances the register via `increment`).
    #[cfg(test)]
    fn force_register(&mut self, x: u64) {
        self.register.modify(|_| x);
        self.accept_p = self.acceptance_probability();
    }
}

impl Counter for MorrisCounter {
    fn increment(&mut self, rng: &mut dyn RngCore) {
        if rng.gen::<f64>() < self.accept_p {
            self.register.modify(|x| x + 1);
            self.accept_p = self.acceptance_probability();
        } else {
            // The rejected increment still reads the register but never writes.
            let _ = self.register.read();
        }
    }

    fn estimate(&self) -> f64 {
        estimate(self.a, self.register())
    }
}

/// A median of independent Morris counters, boosting the success probability from a
/// constant to `1−δ` (standard median trick; this is the form used by the paper's
/// `SampleAndHold`, which requires accuracy `1 + O(ε/log(nm))` per counter).
#[derive(Debug, Clone)]
pub struct MorrisPlusCounter {
    copies: Vec<MorrisCounter>,
}

impl MorrisPlusCounter {
    /// Creates a counter that is a `(1±ε)`-approximation with probability at least
    /// `1−δ`.  Uses `t = Θ(log 1/δ)` independent copies, each with constant failure
    /// probability, combined by a median.
    pub fn new(tracker: &StateTracker, eps: f64, delta: f64) -> Self {
        assert!(eps > 0.0 && delta > 0.0 && delta < 1.0);
        let t = ((8.0 * (1.0 / delta).ln()).ceil() as usize).max(1) | 1; // odd
        let per_copy_a = (eps * eps / 3.0).clamp(1e-9, 1.0);
        let copies = (0..t)
            .map(|_| MorrisCounter::new(tracker, per_copy_a))
            .collect();
        Self { copies }
    }

    /// Number of independent copies.
    pub fn copies(&self) -> usize {
        self.copies.len()
    }

    /// Total number of register increments (state changes) across all copies.
    pub fn total_register(&self) -> u64 {
        self.copies.iter().map(|c| c.register()).sum()
    }
}

impl Counter for MorrisPlusCounter {
    fn increment(&mut self, rng: &mut dyn RngCore) {
        for c in &mut self.copies {
            c.increment(rng);
        }
    }

    fn estimate(&self) -> f64 {
        let mut estimates: Vec<f64> = self.copies.iter().map(|c| c.estimate()).collect();
        estimates.sort_by(f64::total_cmp);
        estimates[estimates.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn estimate_is_close_for_large_counts() {
        let tracker = StateTracker::new();
        let mut rng = StdRng::seed_from_u64(42);
        let mut c = MorrisCounter::new(&tracker, 0.01);
        let n = 50_000u64;
        for _ in 0..n {
            tracker.begin_epoch();
            c.increment(&mut rng);
        }
        let est = c.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.15, "relative error {rel} too large (est {est})");
    }

    #[test]
    fn state_changes_are_logarithmic_not_linear() {
        let tracker = StateTracker::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut c = MorrisCounter::new(&tracker, 0.05);
        let n = 100_000u64;
        for _ in 0..n {
            tracker.begin_epoch();
            c.increment(&mut rng);
        }
        // The register value bounds the number of state changes; it should be around
        // ln(1 + a n)/ln(1 + a) ≈ 175, far below n.
        assert!(c.register() < 1_000, "register {} too large", c.register());
        assert!(tracker.state_changes() < 1_000);
        assert!(tracker.state_changes() >= c.register());
    }

    #[test]
    fn estimate_is_monotone_in_the_register() {
        let tracker = StateTracker::new();
        let mut c = MorrisCounter::new(&tracker, 0.3);
        let mut last = c.estimate();
        assert_eq!(last, 0.0);
        for x in 1..=20 {
            c.force_register(x);
            let e = c.estimate();
            assert!(e > last);
            last = e;
        }
    }

    #[test]
    fn acceptance_probability_decays() {
        let tracker = StateTracker::new();
        let mut c = MorrisCounter::new(&tracker, 1.0);
        assert_eq!(c.acceptance_probability(), 1.0);
        c.force_register(3);
        assert!((c.acceptance_probability() - 0.125).abs() < 1e-12);
        // The cached fast-path probability must track the accessor exactly.
        assert_eq!(c.accept_p.to_bits(), c.acceptance_probability().to_bits());
    }

    #[test]
    fn acceptance_table_is_bit_identical_to_powi() {
        // The practical-profile growth at ε = 0.2, p = 2; the paper-faithful
        // profile's clamp floor; and the largest growth allowed.
        for a in [(0.2f64 / 4.0).powi(2), 1e-9, 1.0] {
            let mut table = AcceptanceTable::new(a);
            assert_eq!(table.growth(), a);
            // Out of order first, so growth past a gap is covered, then every x.
            for x in [17u64, 3, 100_000, 0] {
                assert_eq!(
                    table.at(x).to_bits(),
                    acceptance_probability(a, x).to_bits()
                );
            }
            for x in 0..=100_000u64 {
                let want = (1.0 + a).powi(-(x as i32));
                assert_eq!(table.at(x).to_bits(), want.to_bits(), "a {a}, x {x}");
            }
            assert!(table.table.len() <= AcceptanceTable::CAP);
            assert_eq!(
                table.at(MAX_REGISTER).to_bits(),
                acceptance_probability(a, MAX_REGISTER).to_bits()
            );
        }
    }

    #[test]
    fn for_accuracy_clamps_parameters() {
        let tracker = StateTracker::new();
        let tight = MorrisCounter::for_accuracy(&tracker, 0.01, 0.01);
        let loose = MorrisCounter::for_accuracy(&tracker, 0.9, 0.9);
        assert!(tight.growth() < loose.growth());
        assert!(loose.growth() <= 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_growth_is_rejected() {
        let tracker = StateTracker::new();
        let _ = MorrisCounter::new(&tracker, 0.0);
    }

    #[test]
    fn morris_plus_uses_odd_number_of_copies_and_is_accurate() {
        let tracker = StateTracker::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = MorrisPlusCounter::new(&tracker, 0.2, 0.05);
        assert!(c.copies() % 2 == 1);
        let n = 20_000u64;
        for _ in 0..n {
            tracker.begin_epoch();
            c.increment(&mut rng);
        }
        let rel = (c.estimate() - n as f64).abs() / n as f64;
        assert!(rel < 0.25, "relative error {rel}");
        // Exact counters in every copy would perform n·copies writes; the Morris
        // registers do a small fraction of that.
        assert!(c.total_register() < n * c.copies() as u64 / 10);
    }
}
