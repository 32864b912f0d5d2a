//! Merge laws for the sharded-execution summaries (`Mergeable`): merging per-shard
//! summaries must answer like (sketches) or within the documented bounds of
//! (counter summaries) a single unsharded run — plus the static `Send + Sync`
//! guarantees the sharded driver relies on.

use few_state_changes::baselines::{
    AmsSketch, CountMin, CountSketch, ExactCounting, MisraGries, SpaceSaving,
};
use few_state_changes::state::{
    FrequencyEstimator, Mergeable, MomentEstimator, StateTracker, StreamAlgorithm,
};
use few_state_changes::streamgen::FrequencyVector;

use proptest::prelude::*;

/// Splits `stream` at `at` (clamped), yielding the two shard substreams.
fn split(stream: &[u64], at: usize) -> (&[u64], &[u64]) {
    stream.split_at(at.min(stream.len()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CountMin is a linear sketch: a merged pair of shards answers *exactly* like the
    /// unsharded sketch, for every item, at every split point.
    #[test]
    fn count_min_merge_is_exact(
        stream in proptest::collection::vec(0u64..256, 1..600),
        at in 0usize..600,
    ) {
        let (left, right) = split(&stream, at);
        let mut whole = CountMin::new(64, 3, 11);
        whole.process_stream(&stream);
        let mut a = CountMin::new(64, 3, 11);
        a.process_stream(left);
        let mut b = CountMin::new(64, 3, 11);
        b.process_stream(right);
        a.merge_from(&b);
        for item in 0u64..64 {
            prop_assert_eq!(a.estimate(item), whole.estimate(item));
        }
    }

    /// CountSketch merges exactly (signed linearity).
    #[test]
    fn count_sketch_merge_is_exact(
        stream in proptest::collection::vec(0u64..256, 1..600),
        at in 0usize..600,
    ) {
        let (left, right) = split(&stream, at);
        let mut whole = CountSketch::new(64, 3, 13);
        whole.process_stream(&stream);
        let mut a = CountSketch::new(64, 3, 13);
        a.process_stream(left);
        let mut b = CountSketch::new(64, 3, 13);
        b.process_stream(right);
        a.merge_from(&b);
        for item in 0u64..64 {
            prop_assert_eq!(a.estimate(item), whole.estimate(item));
        }
    }

    /// The AMS tug-of-war sketch merges exactly: the merged moment estimate equals the
    /// unsharded one bit-for-bit.
    #[test]
    fn ams_merge_is_exact(
        stream in proptest::collection::vec(0u64..256, 1..600),
        at in 0usize..600,
    ) {
        let (left, right) = split(&stream, at);
        let mut whole = AmsSketch::new(3, 32, 17);
        whole.process_stream(&stream);
        let mut a = AmsSketch::new(3, 32, 17);
        a.process_stream(left);
        let mut b = AmsSketch::new(3, 32, 17);
        b.process_stream(right);
        a.merge_from(&b);
        prop_assert_eq!(
            a.estimate_moment().to_bits(),
            whole.estimate_moment().to_bits()
        );
    }

    /// Merged Misra-Gries keeps the law `f_i − m/(k+1) ≤ estimate(i) ≤ f_i` against the
    /// exact frequencies of the whole stream.
    #[test]
    fn misra_gries_merge_bounds_the_unsharded_frequencies(
        stream in proptest::collection::vec(0u64..64, 1..600),
        at in 0usize..600,
    ) {
        let k = 8;
        let (left, right) = split(&stream, at);
        let truth = FrequencyVector::from_stream(&stream);
        let mut a = MisraGries::new(k);
        a.process_stream(left);
        let mut b = MisraGries::new(k);
        b.process_stream(right);
        a.merge_from(&b);
        prop_assert!(a.tracked_items().len() <= k);
        let slack = stream.len() as f64 / (k + 1) as f64;
        for (item, f) in truth.iter() {
            let est = a.estimate(item);
            prop_assert!(est <= f as f64 + 1e-9, "item {} overestimated: {est} > {f}", item);
            prop_assert!(
                est >= f as f64 - slack - 1e-9,
                "item {}: est {est}, true {f}, slack {slack}", item
            );
        }
    }

    /// Merged SpaceSaving never underestimates a surviving item and stays within the
    /// combined `m/k` bound.
    #[test]
    fn space_saving_merge_bounds_surviving_items(
        stream in proptest::collection::vec(0u64..64, 1..600),
        at in 0usize..600,
    ) {
        let k = 8;
        let (left, right) = split(&stream, at);
        let truth = FrequencyVector::from_stream(&stream);
        let mut a = SpaceSaving::new(k);
        a.process_stream(left);
        let mut b = SpaceSaving::new(k);
        b.process_stream(right);
        a.merge_from(&b);
        prop_assert!(a.tracked_items().len() <= k);
        let slack = stream.len() as f64 / k as f64;
        for item in a.tracked_items() {
            let est = a.estimate(item);
            let f = truth.frequency(item) as f64;
            prop_assert!(est + 1e-9 >= f, "item {} underestimated: {est} < {f}", item);
            prop_assert!(est <= f + slack + 1e-9, "item {}: est {est}, true {f}, slack {slack}", item);
        }
    }

    /// Exact structures merge exactly: frequency vectors and exact counters of shards
    /// reproduce the unsharded answers.
    #[test]
    fn exact_structures_merge_exactly(
        stream in proptest::collection::vec(0u64..64, 1..400),
        at in 0usize..400,
    ) {
        let (left, right) = split(&stream, at);
        let whole = FrequencyVector::from_stream(&stream);
        let mut merged = FrequencyVector::from_stream(left);
        merged.merge_from(&FrequencyVector::from_stream(right));
        prop_assert_eq!(merged.stream_len(), whole.stream_len());
        prop_assert_eq!(merged.support(), whole.support());
        prop_assert_eq!(merged.fp(2.0).to_bits(), whole.fp(2.0).to_bits());

        let mut ea = ExactCounting::new(2.0);
        ea.process_stream(left);
        let mut eb = ExactCounting::new(2.0);
        eb.process_stream(right);
        ea.merge_from(&eb);
        prop_assert_eq!(ea.stream_len(), stream.len() as u64);
        for (item, f) in whole.iter() {
            prop_assert_eq!(ea.estimate(item), f as f64);
        }
    }
}

/// The sharded driver moves per-shard summaries across scoped threads, so every
/// summary — and the tracker substrate itself — must be `Send + Sync`.
#[test]
fn tracked_algorithms_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StateTracker>();
    assert_send_sync::<few_state_changes::state::TrackedCell<u64>>();
    assert_send_sync::<few_state_changes::state::TrackedVec<u64>>();
    assert_send_sync::<few_state_changes::state::TrackedMap<u64, u64>>();
    assert_send_sync::<CountMin>();
    assert_send_sync::<CountSketch>();
    assert_send_sync::<AmsSketch>();
    assert_send_sync::<MisraGries>();
    assert_send_sync::<SpaceSaving>();
    assert_send_sync::<ExactCounting>();
    assert_send_sync::<few_state_changes::algorithms::SampleAndHold>();
    assert_send_sync::<few_state_changes::algorithms::FpEstimator>();
    assert_send_sync::<few_state_changes::algorithms::FewStateHeavyHitters>();

    // And an exactly tracked summary actually crosses a thread boundary, with its
    // accounting intact on the other side.
    let tracker = StateTracker::new();
    let mut cm = CountMin::with_tracker(&tracker, 32, 2, 1);
    let handle = std::thread::spawn(move || {
        cm.process_stream(&[1, 2, 3, 1]);
        cm.estimate(1)
    });
    assert!(handle.join().unwrap() >= 2.0);
    assert_eq!(tracker.epochs(), 4);
    assert_eq!(tracker.state_changes(), 4);
}
