//! # fsc — streaming algorithms with few state changes
//!
//! Rust implementation of the algorithms of *Streaming Algorithms with Few State
//! Changes* (Jayaram, Woodruff, Zhou; PODS 2024).  All algorithms are one-pass,
//! insertion-only, and built on the tracked-memory substrate of [`fsc_state`], so their
//! state-change counts are measured rather than asserted.
//!
//! | Type | Paper result | Guarantee |
//! |------|--------------|-----------|
//! | [`SampleAndHold`] | Algorithm 1 | frequency estimates for items that are heavy under an `F_p = Õ(n)` assumption |
//! | [`FullSampleAndHold`] | Algorithm 2 | removes the moment assumption by stream subsampling |
//! | [`FewStateHeavyHitters`] | Theorem 1.1 | `L_p` heavy hitters, `Õ(n^{1−1/p})` state changes, near-optimal space |
//! | [`FpEstimator`] | Theorem 1.3 / Algorithm 3 | `(1±ε)·F_p` for `p ≥ 1`, `Õ(n^{1−1/p})` state changes |
//! | [`FpSmallEstimator`] | Theorem 3.2 | `(1±ε)·F_p` for `p < 1`, `poly(log n, 1/ε)` state changes |
//! | [`EntropyFewState`] | Theorem 3.8 | additive-ε Shannon entropy via moments near `p = 1` |
//! | [`SparseRecovery`](sparse_recovery::FewStateSparseRecovery) | abstract | exact support of a `k`-sparse vector with `k` state changes |
//! | [`BudgetedAlgorithm`] | Theorems 1.2/1.4 | wrapper enforcing a hard state-change budget (for the lower-bound experiments) |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod budget;
mod entropy;
mod fp;
mod fp_small;
mod full_sample_and_hold;
mod heavy_hitters;
mod params;
mod sample_and_hold;
pub mod sparse_recovery;

pub use budget::BudgetedAlgorithm;
pub use entropy::EntropyFewState;
pub use fp::FpEstimator;
pub use fp_small::FpSmallEstimator;
pub use full_sample_and_hold::FullSampleAndHold;
pub use heavy_hitters::FewStateHeavyHitters;
pub use params::{Params, Profile};
pub use sample_and_hold::SampleAndHold;

// Re-exported so callers can select a tracker kind through `Params` without naming
// the `fsc_state` crate explicitly.
pub use fsc_state::TrackerKind;
