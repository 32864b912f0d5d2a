//! The Misra-Gries frequent-items summary [MG82].

use fsc_counters::fastmap::FastTrackedMap;
use fsc_state::snapshot::TrackerState;
use fsc_state::{
    impl_queryable, FrequencyEstimator, Mergeable, Snapshot, SnapshotError, SnapshotReader,
    SnapshotWriter, StateTracker, StreamAlgorithm,
};

/// Stable checkpoint-header id of [`MisraGries`].
const SNAPSHOT_ID: &str = "misra_gries";

/// The deterministic Misra-Gries summary with `k` counters.
///
/// Guarantees `f_i − m/(k+1) ≤ estimate(i) ≤ f_i`, i.e. it solves the `L_1`
/// heavy-hitter problem with `ε = 1/(k+1)` in `O(k)` words.  Every update either
/// increments a counter, inserts a new counter, or decrements *all* counters — so the
/// number of state changes is `Θ(m)` (Table 1), which is what the paper improves on.
#[derive(Debug, Clone)]
pub struct MisraGries {
    counters: FastTrackedMap<u64, u64>,
    k: usize,
    name: String,
    tracker: StateTracker,
}

impl MisraGries {
    /// Creates a summary with `k ≥ 1` counters.
    pub fn new(k: usize) -> Self {
        Self::with_tracker(&StateTracker::new(), k)
    }

    /// Creates a summary attached to a caller-supplied tracker (e.g. an
    /// address-tracked one for wear analysis, or one per shard in sharded runs).
    pub fn with_tracker(tracker: &StateTracker, k: usize) -> Self {
        assert!(k >= 1);
        Self {
            counters: FastTrackedMap::new(tracker),
            k,
            name: format!("MisraGries(k={k})"),
            tracker: tracker.clone(),
        }
    }

    /// Creates a summary sized for additive error `ε·m` (i.e. `k = ⌈1/ε⌉`).
    pub fn for_epsilon(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        Self::new((1.0 / eps).ceil() as usize)
    }

    /// Number of counter slots.
    pub fn capacity(&self) -> usize {
        self.k
    }
}

impl StreamAlgorithm for MisraGries {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_item(&mut self, item: u64) {
        if self.counters.contains_key(&item) {
            self.counters.modify(&item, |c| c + 1);
        } else if self.counters.len() < self.k {
            self.counters.insert(item, 1);
        } else {
            // Decrement every counter and evict the ones that reach zero.
            let keys = self.counters.keys_untracked();
            for key in keys {
                self.counters.modify(&key, |c| c - 1);
            }
            self.counters.retain(|_, &c| c > 0);
        }
    }

    fn tracker(&self) -> &StateTracker {
        &self.tracker
    }
}

impl Mergeable for MisraGries {
    /// The Agarwal–Cormode–Huang–Phillips–Wei–Yi merge: add counters for common items,
    /// take the union otherwise, then subtract the `(k+1)`-st largest count from every
    /// counter and drop the non-positive ones.  The result is a valid `k`-counter
    /// summary of the concatenated stream: estimates stay underestimates with additive
    /// error at most `(m_a + m_b)/(k+1)`.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            self.k, other.k,
            "Misra-Gries shards must share the counter capacity k"
        );
        self.tracker.begin_epoch();
        self.tracker.record_reads(other.counters.len() as u64);
        for (&item, &count) in other.counters.iter_untracked() {
            if self.counters.peek(&item).is_some() {
                self.counters.modify(&item, |c| c + count);
            } else {
                self.counters.insert(item, count);
            }
        }
        if self.counters.len() > self.k {
            let mut counts: Vec<u64> = self.counters.iter_untracked().map(|(_, &c)| c).collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let decrement = counts[self.k];
            for key in self.counters.keys_untracked() {
                self.counters.modify(&key, |c| c.saturating_sub(decrement));
            }
            self.counters.retain(|_, &c| c > 0);
        }
    }
}

impl_queryable!(MisraGries: [frequency]);

impl Snapshot for MisraGries {
    fn snapshot_id(&self) -> &'static str {
        SNAPSHOT_ID
    }

    /// Layout: tracker state, `k`, then the counter table in sorted-key order.
    fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SNAPSHOT_ID);
        self.tracker.export_state().write_to(&mut w);
        w.usize(self.k);
        crate::write_counter_table(&mut w, &self.counters);
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, SNAPSHOT_ID)?;
        let state = TrackerState::read_from(&mut r)?;
        let k = r.usize()?;
        if k == 0 {
            return Err(SnapshotError::Corrupt("misra_gries capacity"));
        }
        let tracker = StateTracker::of_kind(state.kind);
        let mut alg = MisraGries::with_tracker(&tracker, k);
        crate::read_counter_table(&mut r, &mut alg.counters)?;
        if alg.counters.len() > k {
            return Err(SnapshotError::Corrupt("misra_gries table exceeds capacity"));
        }
        tracker.import_state(&state);
        r.finish()?;
        Ok(alg)
    }
}

impl FrequencyEstimator for MisraGries {
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
    use fsc_streamgen::zipf::zipf_stream;
    use fsc_streamgen::FrequencyVector;

    #[test]
    fn estimates_are_underestimates_with_bounded_error() {
        let stream = zipf_stream(1 << 12, 20_000, 1.2, 5);
        let truth = FrequencyVector::from_stream(&stream);
        let mut mg = MisraGries::new(64);
        mg.process_stream(&stream);
        let max_err = stream.len() as f64 / 65.0;
        for (item, f) in truth.top_k(20) {
            let est = mg.estimate(item);
            assert!(est <= f as f64 + 1e-9, "overestimate for {item}");
            assert!(
                est >= f as f64 - max_err - 1e-9,
                "item {item}: est {est} true {f} err bound {max_err}"
            );
        }
    }

    #[test]
    fn finds_the_majority_element() {
        let mut stream: Vec<u64> = vec![42; 600];
        stream.extend((0..500u64).map(|i| i + 100));
        fsc_streamgen::shuffle(&mut stream, 3);
        let mut mg = MisraGries::new(8);
        mg.process_stream(&stream);
        let hh = mg.heavy_hitters(200.0);
        assert_eq!(hh.len(), 1);
        assert_eq!(hh[0].0, 42);
    }

    #[test]
    fn space_is_bounded_by_k() {
        let stream = zipf_stream(1 << 14, 30_000, 0.8, 1);
        let mut mg = MisraGries::new(32);
        mg.process_stream(&stream);
        assert!(mg.tracked_items().len() <= 32);
        assert!(mg.capacity() == 32);
        // 3 words per entry + map overhead stays proportional to k, far below F_0.
        assert!(mg.space_words() <= 32 * 4);
    }

    #[test]
    fn sharded_merge_obeys_the_misra_gries_error_bound() {
        let stream = zipf_stream(1 << 12, 24_000, 1.2, 19);
        let truth = FrequencyVector::from_stream(&stream);
        let k = 64;
        let (left, right) = stream.split_at(stream.len() / 2);
        let mut a = MisraGries::new(k);
        a.process_stream(left);
        let mut b = MisraGries::new(k);
        b.process_stream(right);
        a.merge_from(&b);
        assert!(a.tracked_items().len() <= k, "merge must respect capacity");
        let max_err = stream.len() as f64 / (k + 1) as f64;
        for (item, f) in truth.top_k(20) {
            let est = a.estimate(item);
            assert!(est <= f as f64 + 1e-9, "merged MG overestimated {item}");
            assert!(
                est >= f as f64 - max_err - 1e-9,
                "item {item}: merged est {est}, true {f}, bound {max_err}"
            );
        }
    }

    #[test]
    fn state_changes_are_linear_in_the_stream() {
        let stream = zipf_stream(1 << 10, 10_000, 1.0, 2);
        let mut mg = MisraGries::new(16);
        mg.process_stream(&stream);
        let r = mg.report();
        assert!(
            r.state_changes as f64 > 0.95 * stream.len() as f64,
            "Misra-Gries should write on almost every update ({} of {})",
            r.state_changes,
            stream.len()
        );
    }

    #[test]
    fn for_epsilon_sets_capacity() {
        assert_eq!(MisraGries::for_epsilon(0.01).capacity(), 100);
    }
}
