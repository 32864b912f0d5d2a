//! The classic Sample-and-Hold of Estan and Varghese [EV02].

use fsc_counters::fastmap::FastTrackedMap;
use fsc_state::snapshot::TrackerState;
use fsc_state::{
    impl_queryable, FrequencyEstimator, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
    StateTracker, StreamAlgorithm,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stable checkpoint-header id of [`SampleAndHoldClassic`].
const SNAPSHOT_ID: &str = "sample_and_hold_classic";

/// Classic Sample-and-Hold: each packet is sampled with a fixed probability; once an
/// item is sampled, an exact counter is created and incremented on *every* subsequent
/// occurrence, and the counter is kept until the end of the stream.
///
/// Section 1.4 of the paper contrasts its algorithm with this one on two points:
/// (1) classic Sample-and-Hold never deletes counters, so its space can grow with the
/// number of sampled items rather than being capped; (2) its counters are exact, so
/// every occurrence of a held item is a state change.  Both issues are fixed by the
/// paper's `SampleAndHold` (bounded counter table with time-bucketed maintenance, and
/// Morris counters).
#[derive(Debug, Clone)]
pub struct SampleAndHoldClassic {
    counters: FastTrackedMap<u64, u64>,
    sample_prob: f64,
    rng: StdRng,
    name: String,
    tracker: StateTracker,
}

impl SampleAndHoldClassic {
    /// Creates an instance sampling each packet with probability `sample_prob`.
    pub fn new(sample_prob: f64, seed: u64) -> Self {
        Self::with_tracker(&StateTracker::new(), sample_prob, seed)
    }

    /// Creates an instance attached to a caller-supplied tracker (e.g. an
    /// address-tracked one for wear analysis, or one per shard in sharded runs).
    pub fn with_tracker(tracker: &StateTracker, sample_prob: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&sample_prob));
        Self {
            counters: FastTrackedMap::new(tracker),
            sample_prob,
            rng: StdRng::seed_from_u64(seed),
            name: format!("SampleAndHold[EV02](p={sample_prob})"),
            tracker: tracker.clone(),
        }
    }

    /// The per-packet sampling probability.
    pub fn sample_prob(&self) -> f64 {
        self.sample_prob
    }

    /// Number of held counters.
    pub fn held(&self) -> usize {
        self.counters.len()
    }
}

impl StreamAlgorithm for SampleAndHoldClassic {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_item(&mut self, item: u64) {
        if self.counters.contains_key(&item) {
            self.counters.modify(&item, |c| c + 1);
        } else if self.rng.gen::<f64>() < self.sample_prob {
            self.counters.insert(item, 1);
        }
    }

    fn tracker(&self) -> &StateTracker {
        &self.tracker
    }
}

impl_queryable!(SampleAndHoldClassic: [frequency]);

impl Snapshot for SampleAndHoldClassic {
    fn snapshot_id(&self) -> &'static str {
        SNAPSHOT_ID
    }

    /// Layout: tracker state, `sample_prob`, the live rng state (sampling decisions
    /// after a restore continue the exact sequence), then the held-counter table.
    fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SNAPSHOT_ID);
        self.tracker.export_state().write_to(&mut w);
        w.f64(self.sample_prob);
        for word in self.rng.state() {
            w.u64(word);
        }
        crate::write_counter_table(&mut w, &self.counters);
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, SNAPSHOT_ID)?;
        let state = TrackerState::read_from(&mut r)?;
        let sample_prob = r.f64()?;
        if !(0.0..=1.0).contains(&sample_prob) {
            return Err(SnapshotError::Corrupt("sample probability out of range"));
        }
        let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let tracker = StateTracker::of_kind(state.kind);
        let mut alg = SampleAndHoldClassic::with_tracker(&tracker, sample_prob, 0);
        alg.rng = StdRng::from_state(rng_state);
        crate::read_counter_table(&mut r, &mut alg.counters)?;
        tracker.import_state(&state);
        r.finish()?;
        Ok(alg)
    }
}

impl FrequencyEstimator for SampleAndHoldClassic {
    fn estimate(&self, item: u64) -> f64 {
        self.counters.get(&item).copied().unwrap_or(0) as f64
    }

    fn tracked_items(&self) -> Vec<u64> {
        self.counters.keys_untracked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_streamgen::planted::single_heavy_hitter;
    use fsc_streamgen::uniform::uniform_stream;

    #[test]
    fn heavy_items_are_caught_and_counted_almost_exactly() {
        let stream = single_heavy_hitter(1 << 14, 20_000, 2_000, 3);
        let mut sh = SampleAndHoldClassic::new(0.01, 7);
        sh.process_stream(&stream);
        let est = sh.estimate(0);
        // The heavy hitter is sampled within its first few hundred occurrences w.h.p.,
        // so the held counter captures most of its 2000 occurrences.
        assert!(est > 1_500.0, "estimate {est} too low");
        assert!(est <= 2_000.0, "Sample-and-Hold never overestimates");
    }

    #[test]
    fn held_counters_grow_with_sampled_items_not_with_a_cap() {
        let stream = uniform_stream(1 << 16, 50_000, 1);
        let mut sh = SampleAndHoldClassic::new(0.05, 2);
        sh.process_stream(&stream);
        // ~5% of 50k distinct-ish items get a counter: thousands of counters, far more
        // than a capped table would allow.
        assert!(sh.held() > 1_500, "held {} counters", sh.held());
        assert!(sh.space_words() > 4_500);
    }

    #[test]
    fn state_changes_scale_with_held_traffic() {
        let stream = single_heavy_hitter(1 << 14, 10_000, 5_000, 4);
        let mut sh = SampleAndHoldClassic::new(0.002, 9);
        sh.process_stream(&stream);
        let r = sh.report();
        // Every occurrence of the held heavy hitter after sampling writes: the
        // state-change count is dominated by the heavy item's frequency, i.e. it is
        // NOT sublinear in m when a single item dominates.
        assert!(r.state_changes > 3_000, "state changes {}", r.state_changes);
    }

    #[test]
    fn zero_probability_never_holds_anything() {
        let stream = uniform_stream(100, 1_000, 5);
        let mut sh = SampleAndHoldClassic::new(0.0, 1);
        sh.process_stream(&stream);
        assert_eq!(sh.held(), 0);
        assert_eq!(sh.estimate(5), 0.0);
        assert_eq!(sh.report().state_changes, 0);
        assert_eq!(sh.sample_prob(), 0.0);
    }
}
