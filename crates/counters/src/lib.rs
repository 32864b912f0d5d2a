//! # fsc-counters — approximate counters, hash families, and p-stable variates
//!
//! Building blocks shared by the paper's algorithms and the baselines:
//!
//! * [`MorrisCounter`] / [`MorrisPlusCounter`] — the approximate counters of
//!   Theorem 1.5 (\[Mor78\], analysed tightly by \[NY22\]): a `(1+ε)`-approximate counter
//!   that changes its state only `poly(log n, 1/ε, log 1/δ)` times over a stream of
//!   length `n`, instead of once per increment.
//! * [`ExactCounter`] — the write-per-increment counter used by the deterministic
//!   baselines, for comparison.
//! * [`hashing`] — limited-independence hash families (polynomial hashing over a
//!   Mersenne prime, and tabulation hashing) used for subsampling stream positions,
//!   subsampling the universe, and the CountSketch / AMS baselines.
//! * [`lanes`] — lane-packed (portable-SIMD-style) evaluators for the branch-free
//!   hash kernels above, bit-identical per lane to the scalar entry points; the
//!   bulk `process_batch` kernels of the baselines are built on these.
//! * [`fastmap`] — a seeded, deterministic FxHash-style hasher plus map/set aliases,
//!   replacing SipHash on the key-holding hot paths.
//! * [`stable`] — p-stable variate generation (Definition 3.1 / \[Nol03\]) with
//!   limited-independence seeds, used by the `p < 1` moment estimator of Theorem 3.2.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accumulator;
mod exact;
pub mod fastmap;
pub mod hashing;
pub mod lanes;
pub mod morris;
pub mod stable;

pub use accumulator::GeometricAccumulator;
pub use exact::ExactCounter;
pub use morris::{MorrisCounter, MorrisPlusCounter};

use rand::RngCore;

/// A counter that supports increment-by-one and estimation of the current count.
///
/// Both the exact counter and Morris counters implement this trait so the paper's
/// algorithms can be instantiated with either (the benchmark harness uses this to
/// ablate the effect of approximate counters on the total state-change count).
pub trait Counter {
    /// Registers one occurrence.
    fn increment(&mut self, rng: &mut dyn RngCore);

    /// Registers `k` occurrences.
    fn add(&mut self, k: u64, rng: &mut dyn RngCore) {
        for _ in 0..k {
            self.increment(rng);
        }
    }

    /// Current estimate of the number of occurrences registered.
    fn estimate(&self) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_state::StateTracker;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn add_default_impl_repeats_increment() {
        let tracker = StateTracker::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut c = ExactCounter::new(&tracker);
        c.add(25, &mut rng);
        assert_eq!(c.estimate(), 25.0);
    }
}
