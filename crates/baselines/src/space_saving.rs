//! The SpaceSaving summary [MAA05].

use fsc_counters::fastmap::FastTrackedMap;
use fsc_state::snapshot::TrackerState;
use fsc_state::{
    impl_queryable, FrequencyEstimator, Mergeable, Snapshot, SnapshotError, SnapshotReader,
    SnapshotWriter, StateTracker, StreamAlgorithm,
};

/// Stable checkpoint-header id of [`SpaceSaving`].
const SNAPSHOT_ID: &str = "space_saving";

/// The SpaceSaving summary with `k` monitored items.
///
/// On every update the counter of the arriving item is incremented; if the item is not
/// monitored, the minimum counter is evicted and *inherited* (over-)estimating the new
/// item.  Estimates satisfy `f_i ≤ estimate(i) ≤ f_i + m/k`.  Like Misra-Gries it
/// writes on every single update, so its state-change count is `Θ(m)`.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    counters: FastTrackedMap<u64, u64>,
    k: usize,
    name: String,
    tracker: StateTracker,
}

impl SpaceSaving {
    /// Creates a summary monitoring `k ≥ 1` items.
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
            name: format!("SpaceSaving(k={k})"),
            tracker: tracker.clone(),
        }
    }

    /// Creates a summary sized for additive error `ε·m` (`k = ⌈1/ε⌉`).
    pub fn for_epsilon(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        Self::new((1.0 / eps).ceil() as usize)
    }

    /// Number of monitored slots.
    pub fn capacity(&self) -> usize {
        self.k
    }

    fn min_entry(&self) -> Option<(u64, u64)> {
        self.counters
            .iter_untracked()
            .map(|(&k, &v)| (k, v))
            .min_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
    }
}

impl StreamAlgorithm for SpaceSaving {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_item(&mut self, item: u64) {
        if self.counters.contains_key(&item) {
            self.counters.modify(&item, |c| c + 1);
        } else if self.counters.len() < self.k {
            self.counters.insert(item, 1);
        } else {
            let (min_item, min_count) = self.min_entry().expect("non-empty table");
            self.counters.remove(&min_item);
            self.counters.insert(item, min_count + 1);
        }
    }

    fn tracker(&self) -> &StateTracker {
        &self.tracker
    }
}

impl Mergeable for SpaceSaving {
    /// Overestimate-preserving merge (Cafaro et al. style): an item absent from one
    /// table inherits that table's minimum counter (its largest possible frequency
    /// there), the union is summed, and the `k` largest combined counters are kept.
    /// Surviving items satisfy `f_i ≤ estimate(i) ≤ f_i + m_a/k + m_b/k`.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            self.k, other.k,
            "SpaceSaving shards must share the monitored capacity k"
        );
        self.tracker.begin_epoch();
        self.tracker.record_reads(other.counters.len() as u64);
        // An unmonitored item's frequency is bounded by the minimum counter — and by 0
        // when the table never filled (then every seen item is monitored).
        let min_self = if self.counters.len() == self.k {
            self.min_entry().map_or(0, |(_, c)| c)
        } else {
            0
        };
        let min_other = if other.counters.len() == other.k {
            other.min_entry().map_or(0, |(_, c)| c)
        } else {
            0
        };
        let mut combined: Vec<(u64, u64)> = self
            .counters
            .iter_untracked()
            .map(|(&item, &c)| {
                (
                    item,
                    c + other.counters.peek(&item).copied().unwrap_or(min_other),
                )
            })
            .collect();
        for (&item, &c) in other.counters.iter_untracked() {
            if self.counters.peek(&item).is_none() {
                combined.push((item, c + min_self));
            }
        }
        combined.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        combined.truncate(self.k);
        let mut kept = fsc_counters::fastmap::fast_set::<u64>();
        kept.extend(combined.iter().map(|&(i, _)| i));
        for key in self.counters.keys_untracked() {
            if !kept.contains(&key) {
                self.counters.remove(&key);
            }
        }
        for (item, count) in combined {
            self.counters.insert(item, count);
        }
    }
}

impl_queryable!(SpaceSaving: [frequency]);

impl Snapshot for SpaceSaving {
    fn snapshot_id(&self) -> &'static str {
        SNAPSHOT_ID
    }

    /// Layout: tracker state, `k`, then the monitored table in sorted-key order.
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
            return Err(SnapshotError::Corrupt("space_saving capacity"));
        }
        let tracker = StateTracker::of_kind(state.kind);
        let mut alg = SpaceSaving::with_tracker(&tracker, k);
        crate::read_counter_table(&mut r, &mut alg.counters)?;
        if alg.counters.len() > k {
            return Err(SnapshotError::Corrupt(
                "space_saving table exceeds capacity",
            ));
        }
        tracker.import_state(&state);
        r.finish()?;
        Ok(alg)
    }
}

impl FrequencyEstimator for SpaceSaving {
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
    fn estimates_are_overestimates_with_bounded_error() {
        let stream = zipf_stream(1 << 12, 20_000, 1.2, 8);
        let truth = FrequencyVector::from_stream(&stream);
        let mut ss = SpaceSaving::new(64);
        ss.process_stream(&stream);
        let bound = stream.len() as f64 / 64.0;
        for (item, f) in truth.top_k(10) {
            let est = ss.estimate(item);
            assert!(est + 1e-9 >= f as f64, "SpaceSaving must not underestimate");
            assert!(est <= f as f64 + bound + 1e-9, "error bound violated");
        }
    }

    #[test]
    fn table_never_exceeds_capacity() {
        let stream = zipf_stream(1 << 14, 30_000, 0.5, 2);
        let mut ss = SpaceSaving::new(20);
        ss.process_stream(&stream);
        assert_eq!(ss.tracked_items().len(), 20);
        assert_eq!(ss.capacity(), 20);
    }

    #[test]
    fn writes_happen_on_every_update() {
        let stream = zipf_stream(1 << 10, 5_000, 1.0, 6);
        let mut ss = SpaceSaving::new(16);
        ss.process_stream(&stream);
        assert_eq!(ss.report().state_changes, 5_000);
    }

    #[test]
    fn sharded_merge_keeps_overestimates_within_the_combined_bound() {
        let stream = zipf_stream(1 << 12, 24_000, 1.2, 23);
        let truth = FrequencyVector::from_stream(&stream);
        let k = 64;
        let (left, right) = stream.split_at(stream.len() / 2);
        let mut a = SpaceSaving::new(k);
        a.process_stream(left);
        let mut b = SpaceSaving::new(k);
        b.process_stream(right);
        a.merge_from(&b);
        assert!(a.tracked_items().len() <= k);
        // Per-shard error is m_shard/k, so the merged bound is (m_a + m_b)/k.
        let bound = stream.len() as f64 / k as f64;
        for (item, f) in truth.top_k(10) {
            let est = a.estimate(item);
            assert!(
                est + 1e-9 >= f as f64,
                "merged SpaceSaving must not underestimate {item}: est {est}, true {f}"
            );
            assert!(
                est <= f as f64 + bound + 1e-9,
                "item {item}: merged est {est}, true {f}, bound {bound}"
            );
        }
    }

    #[test]
    fn top_heavy_item_is_reported() {
        let mut stream: Vec<u64> = vec![7; 400];
        stream.extend(zipf_stream(1 << 10, 2_000, 0.3, 1).iter().map(|x| x + 1000));
        fsc_streamgen::shuffle(&mut stream, 5);
        let mut ss = SpaceSaving::for_epsilon(0.05);
        ss.process_stream(&stream);
        let hh = ss.heavy_hitters(stream.len() as f64 * 0.1);
        assert!(hh.iter().any(|&(i, _)| i == 7));
    }
}
