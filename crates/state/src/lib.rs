//! # fsc-state — state-change accounting substrate
//!
//! The paper *Streaming Algorithms with Few State Changes* (PODS 2024) proposes the
//! **number of internal state changes** of a streaming algorithm as a first-class
//! complexity measure, alongside space and update time.  Formally (paper, Section 1.5):
//! for an algorithm `A` with memory state `σ_t` after processing the `t`-th stream
//! update, let `X_t = 1` if `σ_t ≠ σ_{t−1}` and `X_t = 0` otherwise; the number of
//! internal state changes is `Σ_t X_t`.
//!
//! This crate provides the substrate on which every algorithm in this repository is
//! built so that state changes are measured uniformly and cannot be under-counted:
//!
//! * [`StateTracker`] — a cheaply clonable handle that records, per stream update
//!   ("epoch"), whether any tracked word of memory changed, along with finer-grained
//!   counters (word writes, redundant writes, reads) and space usage (current / peak
//!   words).  Its [`TrackerKind`] says whether it also records per-address wear.
//! * [`TrackedCell`], [`TrackedMatrix`], [`TrackedMap`] — drop-in storage
//!   primitives that report every mutation to their tracker and only count a *state
//!   change* when the stored value actually differs.  [`TrackedVec`] is the same
//!   for a flat array; no summary uses it, and it is kept as `TrackedMatrix`'s
//!   test reference.
//! * [`nvm`] — an asymmetric-memory (NVM / NAND flash) cost model that converts a
//!   [`StateReport`] into simulated write energy, latency, and per-cell wear, following
//!   the motivation of Section 1.1 of the paper.
//! * [`traits`] — the common traits implemented by the paper's algorithms and by all
//!   baselines ([`StreamAlgorithm`], [`FrequencyEstimator`], [`MomentEstimator`], …).
//!
//! ## Example
//!
//! ```
//! use fsc_state::{StateTracker, TrackedCell};
//!
//! let tracker = StateTracker::new();
//! let mut cell = TrackedCell::new(&tracker, 0u64);
//!
//! // Three stream updates; only two of them modify the cell.
//! tracker.begin_epoch();
//! cell.write(5);
//! tracker.begin_epoch();
//! cell.write(5); // unchanged: a redundant write, not a state change
//! tracker.begin_epoch();
//! cell.write(7);
//!
//! let report = tracker.snapshot();
//! assert_eq!(report.state_changes, 2);
//! // Initialising the cell plus the two updates that changed it:
//! assert_eq!(report.word_writes, 3);
//! assert_eq!(report.redundant_writes, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backend;
mod cell;
pub mod delta;
mod map;
mod matrix;
pub mod nvm;
mod report;
pub mod snapshot;
mod tracker;
pub mod traits;
mod vec;

pub use backend::TrackerKind;
pub use cell::TrackedCell;
pub use delta::{
    apply_delta, encode_delta, peek_delta, BaseRef, ChainRecovery, CheckpointChain, DeltaInfo,
    DeltaStats, DiscardedDelta,
};
pub use map::TrackedMap;
pub use matrix::TrackedMatrix;
pub use nvm::{NvmCostModel, NvmReport};
pub use report::StateReport;
pub use snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, TrackerState};
pub use tracker::{AddrRange, StateTracker};
pub use traits::{
    Answer, EntropyEstimator, FrequencyEstimator, Mergeable, MomentEstimator, Query, Queryable,
    Snapshot, StreamAlgorithm, SupportRecovery,
};
pub use vec::TrackedVec;

/// Number of 64-bit machine words needed to store a value of type `T`.
///
/// Every tracked container charges space in words of `O(log n + log m)` bits, matching
/// the word model of the paper (Section 1.5).  Zero-sized types are charged one word so
/// that presence/absence information is never free.
pub fn words_of<T>() -> usize {
    std::mem::size_of::<T>().div_ceil(8).max(1)
}

/// Charges the initialisation writes of `len` freshly allocated elements of
/// `elem_words` words each at `addr`: one changed write on the first word of every
/// element.  Single-word elements form one contiguous run, charged with a single
/// [`StateTracker::record_changed_run`] — by contract the bulk equivalent of the
/// per-word `record_write(changed = true)` loop wider elements still use.
pub(crate) fn charge_init_writes(
    tracker: &StateTracker,
    addr: AddrRange,
    len: usize,
    elem_words: usize,
) {
    if elem_words == 1 {
        tracker.record_changed_run(Some(addr.start), len as u64);
    } else {
        for i in 0..len {
            tracker.record_write(Some(addr.word(i * elem_words)), true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_of_charges_at_least_one_word() {
        assert_eq!(words_of::<()>(), 1);
        assert_eq!(words_of::<u8>(), 1);
        assert_eq!(words_of::<u64>(), 1);
        assert_eq!(words_of::<u128>(), 2);
        assert_eq!(words_of::<[u64; 5]>(), 5);
    }

    /// `filled` constructors charge their initialisation with one bulk run; every
    /// tracker kind must account it exactly like the per-word loop it replaced —
    /// counters, wear table, staleness clock — including construction inside an
    /// open epoch, where the whole initialisation is one state change.
    #[test]
    fn bulk_init_charge_matches_the_per_word_loop() {
        for kind in [TrackerKind::Full, TrackerKind::FullAddressTracked] {
            for open_epoch in [false, true] {
                let bulk = StateTracker::of_kind(kind);
                let looped = StateTracker::of_kind(kind);
                if open_epoch {
                    bulk.begin_epoch();
                    looped.begin_epoch();
                }
                let _v = TrackedVec::filled(&bulk, 37, 0u64);
                let _m = TrackedMatrix::filled(&bulk, 3, 5, 0u32);
                let _wide = TrackedVec::filled(&bulk, 4, [0u64; 2]);
                for (len, elem_words) in [(37, 1), (15, 1), (4, 2)] {
                    let addr = looped.alloc(len * elem_words);
                    for i in 0..len {
                        looped.record_write(Some(addr.word(i * elem_words)), true);
                    }
                }
                let label = format!("{kind:?}, open epoch {open_epoch}");
                assert_eq!(bulk.snapshot(), looped.snapshot(), "{label}");
                assert_eq!(bulk.address_writes(), looped.address_writes(), "{label}");
                assert_eq!(
                    bulk.state_change_generation(),
                    looped.state_change_generation(),
                    "{label}"
                );
                assert_eq!(bulk.state_changes(), u64::from(open_epoch), "{label}");
            }
        }
    }
}
