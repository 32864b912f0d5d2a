//! Exact counting with a full frequency table (the "no sketching" reference point).

use fsc_counters::fastmap::FastTrackedMap;
use fsc_state::snapshot::TrackerState;
use fsc_state::{
    impl_queryable, EntropyEstimator, FrequencyEstimator, Mergeable, MomentEstimator, Snapshot,
    SnapshotError, SnapshotReader, SnapshotWriter, StateTracker, StreamAlgorithm, SupportRecovery,
};

/// Stable checkpoint-header id of [`ExactCounting`].
const SNAPSHOT_ID: &str = "exact_counting";

/// Maintains the exact frequency of every distinct item in a tracked hash map.
///
/// Space is `Θ(F_0)` words and every update writes, so both the space and the
/// state-change count are linear.  It anchors the accuracy axis of every experiment
/// (its estimates are exact) and the cost axis (its write count is the worst case).
#[derive(Debug, Clone)]
pub struct ExactCounting {
    counts: FastTrackedMap<u64, u64>,
    tracker: StateTracker,
    /// Moment order reported through [`MomentEstimator`].
    p: f64,
}

impl ExactCounting {
    /// Creates an exact counter; `p` is the moment order reported by
    /// [`MomentEstimator::estimate_moment`].
    pub fn new(p: f64) -> Self {
        Self::with_tracker(&StateTracker::new(), p)
    }

    /// Creates an exact counter attached to a caller-supplied tracker (e.g. an
    /// address-tracked one for wear analysis, or one per shard in sharded runs).
    pub fn with_tracker(tracker: &StateTracker, p: f64) -> Self {
        Self {
            counts: FastTrackedMap::new(tracker),
            tracker: tracker.clone(),
            p,
        }
    }

    /// Number of distinct items seen.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total number of updates counted (`Σ_i f_i`).  Equals the number of epochs for a
    /// standalone run and, unlike an epoch count, stays correct after
    /// [`Mergeable::merge_from`] folds in another shard's table.
    pub fn stream_len(&self) -> u64 {
        self.counts.iter_untracked().map(|(_, &c)| c).sum()
    }

    /// Counts in sorted-key order.  Floating-point reductions over the table
    /// (moments, entropy) sum in this order so their results are a function of the
    /// table *contents* alone — hash-map iteration order is an implementation detail
    /// that checkpoint/restore does not preserve, and f64 addition is not
    /// order-invariant at the last bit.
    fn sorted_counts(&self) -> Vec<u64> {
        let mut entries: Vec<(u64, u64)> = self
            .counts
            .iter_untracked()
            .map(|(&k, &v)| (k, v))
            .collect();
        entries.sort_unstable();
        entries.into_iter().map(|(_, c)| c).collect()
    }
}

impl Mergeable for ExactCounting {
    /// Exact merge: frequency tables of disjoint substreams add componentwise.
    fn merge_from(&mut self, other: &Self) {
        self.tracker.begin_epoch();
        self.tracker.record_reads(other.counts.len() as u64);
        for (&item, &count) in other.counts.iter_untracked() {
            if self.counts.peek(&item).is_some() {
                self.counts.modify(&item, |c| c + count);
            } else {
                self.counts.insert(item, count);
            }
        }
    }
}

impl StreamAlgorithm for ExactCounting {
    fn name(&self) -> &str {
        "ExactCounting"
    }

    fn process_item(&mut self, item: u64) {
        if self.counts.contains_key(&item) {
            self.counts.modify(&item, |c| c + 1);
        } else {
            self.counts.insert(item, 1);
        }
    }

    fn tracker(&self) -> &StateTracker {
        &self.tracker
    }
}

impl FrequencyEstimator for ExactCounting {
    fn estimate(&self, item: u64) -> f64 {
        self.counts.get(&item).copied().unwrap_or(0) as f64
    }

    fn tracked_items(&self) -> Vec<u64> {
        self.counts.keys_untracked()
    }
}

impl MomentEstimator for ExactCounting {
    fn p(&self) -> f64 {
        self.p
    }

    fn estimate_moment(&self) -> f64 {
        self.sorted_counts()
            .into_iter()
            .map(|c| (c as f64).powf(self.p))
            .sum()
    }
}

impl EntropyEstimator for ExactCounting {
    fn estimate_entropy(&self) -> f64 {
        let m = self.stream_len() as f64;
        if m == 0.0 {
            return 0.0;
        }
        self.sorted_counts()
            .into_iter()
            .map(|c| {
                let q = c as f64 / m;
                -q * q.log2()
            })
            .sum()
    }
}

impl_queryable!(ExactCounting: [frequency, moment, entropy, support]);

impl Snapshot for ExactCounting {
    fn snapshot_id(&self) -> &'static str {
        SNAPSHOT_ID
    }

    /// Layout: tracker state, moment order `p`, then the frequency table in
    /// sorted-key order.
    fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SNAPSHOT_ID);
        self.tracker.export_state().write_to(&mut w);
        w.f64(self.p);
        crate::write_counter_table(&mut w, &self.counts);
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, SNAPSHOT_ID)?;
        let state = TrackerState::read_from(&mut r)?;
        let p = r.f64()?;
        let tracker = StateTracker::of_kind(state.kind);
        let mut alg = ExactCounting::with_tracker(&tracker, p);
        crate::read_counter_table(&mut r, &mut alg.counts)?;
        tracker.import_state(&state);
        r.finish()?;
        Ok(alg)
    }
}

impl SupportRecovery for ExactCounting {
    fn recovered_support(&self) -> Vec<u64> {
        let mut s = self.counts.keys_untracked();
        s.sort_unstable();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequencies_and_moments_are_exact() {
        let mut alg = ExactCounting::new(2.0);
        alg.process_stream(&[1, 2, 1, 3, 1, 2, 4, 1]);
        assert_eq!(alg.estimate(1), 4.0);
        assert_eq!(alg.estimate(9), 0.0);
        assert_eq!(alg.distinct(), 4);
        assert_eq!(alg.stream_len(), 8);
        assert_eq!(alg.estimate_moment(), 22.0);
        assert!((alg.estimate_entropy() - 1.75).abs() < 1e-12);
        assert_eq!(alg.recovered_support(), vec![1, 2, 3, 4]);
        assert_eq!(alg.p(), 2.0);
    }

    #[test]
    fn every_update_changes_state() {
        let mut alg = ExactCounting::new(1.0);
        let stream: Vec<u64> = (0..500).map(|i| i % 7).collect();
        alg.process_stream(&stream);
        let r = alg.report();
        assert_eq!(r.epochs, 500);
        assert_eq!(
            r.state_changes, 500,
            "exact counting writes on every update"
        );
    }

    #[test]
    fn heavy_hitters_come_from_the_exact_table() {
        let mut alg = ExactCounting::new(1.0);
        alg.process_stream(&[5, 5, 5, 5, 6, 7]);
        let hh = alg.heavy_hitters(3.0);
        assert_eq!(hh, vec![(5, 4.0)]);
    }
}
