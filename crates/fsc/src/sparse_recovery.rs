//! Sparse support recovery with few state changes.
//!
//! The paper lists sparse support recovery among the problems for which state-change-
//! and space-optimal algorithms exist.  For a frequency vector promised to be
//! `k`-sparse (at most `k` distinct items appear), the support can be recovered exactly
//! with exactly one state change per *distinct* item: every update first reads the
//! summary and only writes when the item has not been seen before.  This gives `k ≤ n`
//! state changes on a stream of arbitrary length `m`, the natural analogue of the
//! paper's separation between reads (cheap, every update) and writes (rare).

use fsc_counters::fastmap::FastTrackedMap;
use fsc_state::snapshot::TrackerState;
use fsc_state::{
    impl_queryable, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter, StateTracker,
    StreamAlgorithm, SupportRecovery,
};

/// Stable checkpoint-header id of [`FewStateSparseRecovery`].
const SNAPSHOT_ID: &str = "sparse_recovery";

/// Exact support recovery for `k`-sparse streams using `O(k)` words and `k` state
/// changes.
#[derive(Debug, Clone)]
pub struct FewStateSparseRecovery {
    seen: FastTrackedMap<u64, ()>,
    sparsity: usize,
    overflowed: bool,
    name: String,
    tracker: StateTracker,
}

impl FewStateSparseRecovery {
    /// Creates a recovery structure for streams with at most `sparsity` distinct items.
    pub fn new(sparsity: usize) -> Self {
        Self::with_tracker(sparsity, &StateTracker::new())
    }

    /// Creates a recovery structure attached to a caller-supplied tracker (e.g. an
    /// address-tracked one for wear analysis).
    pub fn with_tracker(sparsity: usize, tracker: &StateTracker) -> Self {
        assert!(sparsity >= 1);
        Self {
            seen: FastTrackedMap::new(tracker),
            sparsity,
            overflowed: false,
            name: format!("FewStateSparseRecovery(k={sparsity})"),
            tracker: tracker.clone(),
        }
    }

    /// The promised sparsity `k`.
    pub fn sparsity(&self) -> usize {
        self.sparsity
    }

    /// Whether the stream violated the sparsity promise (more than `k` distinct items
    /// arrived).  The first `k` distinct items are still reported exactly.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Number of distinct items recorded so far.
    pub fn distinct_seen(&self) -> usize {
        self.seen.len()
    }
}

impl StreamAlgorithm for FewStateSparseRecovery {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_item(&mut self, item: u64) {
        if self.seen.contains_key(&item) {
            return; // read-only path: the common case costs no state change
        }
        if self.seen.len() < self.sparsity {
            self.seen.insert(item, ());
        } else {
            self.overflowed = true;
        }
    }

    fn tracker(&self) -> &StateTracker {
        &self.tracker
    }

    /// Batch kernel: the common case is one untracked membership probe per item; the
    /// per-item read charges are accumulated and flushed with one tracker call per
    /// batch, and writes (first occurrences only) keep their per-item epochs.  On a
    /// `k`-sparse stream this leaves ~1 accounting call per batch instead of ~1 per
    /// item, which matters for the fastest algorithm in the repository.
    fn process_batch(&mut self, items: &[u64]) {
        let tracker = self.tracker.clone();
        let first = tracker.begin_epochs(items.len() as u64);
        let mut reads = 0u64;
        for (i, &item) in items.iter().enumerate() {
            tracker.enter_epoch(first + i as u64);
            reads += 1; // the contains_key probe of the per-item path
            if self.seen.peek(&item).is_some() {
                continue;
            }
            if self.seen.len() < self.sparsity {
                self.seen.insert(item, ());
            } else {
                self.overflowed = true;
            }
        }
        tracker.record_reads(reads);
    }
}

impl_queryable!(FewStateSparseRecovery: [support]);

impl Snapshot for FewStateSparseRecovery {
    fn snapshot_id(&self) -> &'static str {
        SNAPSHOT_ID
    }

    /// Layout: tracker state, `sparsity`, the overflow flag, then the recorded
    /// support in sorted order.
    fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SNAPSHOT_ID);
        self.tracker.export_state().write_to(&mut w);
        w.usize(self.sparsity);
        w.bool(self.overflowed);
        let support = self.recovered_support();
        w.usize(support.len());
        for item in support {
            w.u64(item);
        }
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, SNAPSHOT_ID)?;
        let state = TrackerState::read_from(&mut r)?;
        let sparsity = r.usize()?;
        if sparsity == 0 {
            return Err(SnapshotError::Corrupt("sparsity"));
        }
        let overflowed = r.bool()?;
        let len = r.len_prefix(8)?;
        if len > sparsity {
            return Err(SnapshotError::Corrupt("support exceeds sparsity"));
        }
        let tracker = StateTracker::of_kind(state.kind);
        let mut alg = FewStateSparseRecovery::with_tracker(sparsity, &tracker);
        alg.overflowed = overflowed;
        for _ in 0..len {
            alg.seen.insert_untracked(r.u64()?, ());
        }
        tracker.import_state(&state);
        r.finish()?;
        Ok(alg)
    }
}

impl SupportRecovery for FewStateSparseRecovery {
    fn recovered_support(&self) -> Vec<u64> {
        let mut support = self.seen.keys_untracked();
        support.sort_unstable();
        support
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_streamgen::uniform::grouped_stream;
    use fsc_streamgen::FrequencyVector;

    #[test]
    fn recovers_the_exact_support_with_one_state_change_per_distinct_item() {
        // 32 distinct items, each repeated 1000 times.
        let stream = grouped_stream(32, 1_000);
        let mut alg = FewStateSparseRecovery::new(64);
        alg.process_stream(&stream);
        let truth = FrequencyVector::from_stream(&stream).support();
        assert_eq!(alg.recovered_support(), truth);
        assert_eq!(alg.distinct_seen(), 32);
        assert!(!alg.overflowed());
        let r = alg.report();
        assert_eq!(r.epochs as usize, stream.len());
        assert_eq!(r.state_changes, 32, "one state change per distinct item");
    }

    #[test]
    fn shuffled_streams_give_the_same_answer() {
        let mut stream = grouped_stream(50, 200);
        fsc_streamgen::shuffle(&mut stream, 9);
        let mut alg = FewStateSparseRecovery::new(50);
        alg.process_stream(&stream);
        assert_eq!(alg.recovered_support().len(), 50);
        assert_eq!(alg.report().state_changes, 50);
    }

    #[test]
    fn overflow_is_flagged_but_prefix_is_exact() {
        let stream: Vec<u64> = (0..100).collect();
        let mut alg = FewStateSparseRecovery::new(10);
        alg.process_stream(&stream);
        assert!(alg.overflowed());
        assert_eq!(alg.recovered_support(), (0..10).collect::<Vec<u64>>());
        assert_eq!(alg.sparsity(), 10);
    }

    #[test]
    fn space_is_proportional_to_sparsity_not_stream_length() {
        let stream = grouped_stream(16, 10_000);
        let mut alg = FewStateSparseRecovery::new(16);
        alg.process_stream(&stream);
        assert!(alg.space_words() <= 16 * 4);
    }
}
