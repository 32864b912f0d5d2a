//! Common traits implemented by every streaming algorithm in the repository —
//! the paper's algorithms and all baselines — so the benchmark harness can treat them
//! uniformly and state changes are always measured the same way.

use crate::report::StateReport;
use crate::tracker::StateTracker;

/// A one-pass insertion-only streaming algorithm over a universe `[n]` of `u64` items.
pub trait StreamAlgorithm {
    /// Human-readable algorithm name (used in benchmark tables).
    ///
    /// Returned as a borrowed string: implementations cache the rendered name at
    /// construction time (or return a static string) instead of `format!`-ing a fresh
    /// `String` on every call, since reporting loops call this once per table row.
    fn name(&self) -> &str;

    /// Processes one stream update.  Implementations must perform all of their memory
    /// activity through tracked containers attached to [`StreamAlgorithm::tracker`].
    ///
    /// Call [`StreamAlgorithm::update`] instead of this method: `update` opens the epoch
    /// that makes the per-update state-change accounting correct.
    fn process_item(&mut self, item: u64);

    /// The tracker recording this algorithm's memory activity.
    fn tracker(&self) -> &StateTracker;

    /// Processes one stream update inside its own accounting epoch.
    fn update(&mut self, item: u64) {
        self.tracker().begin_epoch();
        self.process_item(item);
    }

    /// Processes a batch of stream updates, one accounting epoch per item.
    ///
    /// Semantically identical to calling [`StreamAlgorithm::update`] per item, but the
    /// tracker handle is resolved once for the whole batch (the `tracker()` accessor is
    /// a virtual call on trait objects) and the accounting epochs are opened as one
    /// reserved span ([`StateTracker::begin_epochs`]): the whole batch costs O(1)
    /// atomic read-modify-writes, with each per-item boundary a single relaxed store
    /// ([`StateTracker::enter_epoch`]).  `StateTracker::epochs` still advances per
    /// item, so mid-batch readers observe exactly what the per-item path produces.
    ///
    /// # Specialized batch kernels
    ///
    /// This method is a *dispatch point*, not just sugar: algorithms override it with
    /// specialized kernels that hoist per-item work out of the loop (hash folding,
    /// sign evaluation, level cutoffs, read-charge accumulation) and replace per-cell
    /// tracker calls with the bulk accounting API
    /// ([`StateTracker::record_changed_run`]/[`StateTracker::record_scatter_epochs`]).
    /// Every override is required to be **observably identical** to this default —
    /// same answers, same [`StateReport`], same per-address wear — which the
    /// `batch_laws` property tests assert for every implementation in the repository
    /// (see `DESIGN.md` §1.4 for the equivalence argument).
    fn process_batch(&mut self, items: &[u64]) {
        let tracker = self.tracker().clone();
        let first = tracker.begin_epochs(items.len() as u64);
        for (i, &item) in items.iter().enumerate() {
            tracker.enter_epoch(first + i as u64);
            self.process_item(item);
        }
    }

    /// Processes an entire stream (via [`StreamAlgorithm::process_batch`]).
    fn process_stream(&mut self, stream: &[u64]) {
        self.process_batch(stream);
    }

    /// Snapshot of the algorithm's state-change / space counters.
    fn report(&self) -> StateReport {
        self.tracker().snapshot()
    }

    /// Peak space usage in 64-bit words.
    fn space_words(&self) -> usize {
        self.report().words_peak
    }
}

/// A summary that can absorb another summary of the same shape, enabling sharded
/// (split → process per shard → merge) execution.
///
/// `merge_from` folds `other` into `self` so that the merged summary answers queries
/// about the *concatenation* of the two processed streams:
///
/// * linear sketches (CountMin, CountSketch, AMS) built with identical dimensions and
///   hash seeds merge *exactly* — the merged estimates equal those of an unsharded run;
/// * counter summaries (Misra-Gries, SpaceSaving) merge with their usual additive error
///   bounds (`±(m_a + m_b)/(k+1)` resp. `+(m_a + m_b)/k`);
/// * exact structures (frequency vectors, exact counters) merge exactly.
///
/// # Accounting
///
/// A merge is post-stream work, not a stream update.  Implementations open **one**
/// accounting epoch on the receiving tracker for the whole merge, so a merge costs at
/// most one state change; reads of `other` are charged to the receiver.  The canonical
/// way to combine the *reports* of sharded runs is
/// [`StateReport::sharded`](crate::StateReport::sharded), which sums the per-shard
/// epoch/state-change/space counters.
///
/// [`Mergeable::assign_union`] is the one exception: it rebuilds a *derived* copy (a
/// serving view nobody reports on), so it charges no tracker at all.
pub trait Mergeable {
    /// Merges `other` into `self`.
    ///
    /// # Panics
    ///
    /// Implementations panic when the two summaries are not merge-compatible (different
    /// dimensions, capacities, or hash seeds).
    fn merge_from(&mut self, other: &Self);

    /// Overwrites `self` with the union of `shards`, answering every query exactly as
    /// `restore(shards[0].checkpoint())` followed by `merge_from` of each later shard
    /// would — but **charging no tracker**, neither the shards' (they are only read)
    /// nor `self`'s (whose report is therefore meaningless afterwards).  This is the
    /// engine's serving-view rebuild: `self` is a recycled buffer, so a summary that
    /// overrides this (the linear sketches) rebuilds without allocating.
    ///
    /// The default is exactly that checkpoint round trip plus tracked merges into a
    /// fresh summary.
    ///
    /// # Panics
    ///
    /// When `shards` is empty, or when `self` and the shards are not
    /// merge-compatible.
    fn assign_union(&mut self, shards: &[Self]) -> Result<(), SnapshotError>
    where
        Self: Snapshot + Sized,
    {
        let (first, rest) = shards
            .split_first()
            .expect("a union needs at least one shard");
        let mut union = Self::restore(&first.checkpoint())?;
        for shard in rest {
            union.merge_from(shard);
        }
        *self = union;
        Ok(())
    }
}

/// A typed question asked of a summary through the capability-agnostic
/// [`Queryable`] layer.
///
/// The enum replaces per-type downcasts in harness and engine code: a caller holding
/// a `dyn Queryable` (e.g. an engine shard from the `fsc-bench` registry) asks any of
/// these and matches on the [`Answer`], instead of knowing the concrete summary type
/// and its capability traits.  Algorithms answer the queries their capability traits
/// support and return [`Answer::Unsupported`] for the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Estimated frequency of one item ([`FrequencyEstimator::estimate`]).
    Point(u64),
    /// All tracked items with estimate ≥ `threshold`, sorted by decreasing estimate
    /// ([`FrequencyEstimator::heavy_hitters`]).
    HeavyHitters {
        /// Absolute frequency threshold.
        threshold: f64,
    },
    /// The items the summary holds explicit information for
    /// ([`FrequencyEstimator::tracked_items`]).
    TrackedItems,
    /// The frequency-moment estimate `F̂_p` ([`MomentEstimator::estimate_moment`]).
    Moment,
    /// The Shannon-entropy estimate in bits ([`EntropyEstimator::estimate_entropy`]).
    Entropy,
    /// The recovered support ([`SupportRecovery::recovered_support`]).
    Support,
}

/// A typed answer to a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A scalar estimate (point frequency, moment, entropy).
    Scalar(f64),
    /// `(item, estimated frequency)` pairs (heavy hitters).
    ItemWeights(Vec<(u64, f64)>),
    /// A plain item list (tracked items, recovered support).
    Items(Vec<u64>),
    /// The summary does not support the asked query.
    Unsupported,
}

impl Answer {
    /// The scalar payload, if this is a scalar answer.
    pub fn scalar(&self) -> Option<f64> {
        match self {
            Answer::Scalar(v) => Some(*v),
            _ => None,
        }
    }

    /// The item list, if this is an item-list answer.
    pub fn items(&self) -> Option<&[u64]> {
        match self {
            Answer::Items(v) => Some(v),
            _ => None,
        }
    }

    /// The weighted-item list, if this is a heavy-hitter answer.
    pub fn item_weights(&self) -> Option<&[(u64, f64)]> {
        match self {
            Answer::ItemWeights(v) => Some(v),
            _ => None,
        }
    }
}

/// The uniform query layer over [`StreamAlgorithm`]: one enum-based entry point for
/// every answer type the capability traits ([`FrequencyEstimator`],
/// [`MomentEstimator`], [`EntropyEstimator`], [`SupportRecovery`]) expose.
///
/// Implementations delegate to whichever capability traits the type implements and
/// return [`Answer::Unsupported`] otherwise — the [`crate::impl_queryable!`] macro
/// generates exactly that from a capability list.  `Queryable` is object-safe, so a
/// `Box<dyn Queryable>` is what constructor registries hand out: callers get ingest
/// (via the [`StreamAlgorithm`] supertrait) and typed queries without a single
/// downcast.
pub trait Queryable: StreamAlgorithm {
    /// Answers `query`, or [`Answer::Unsupported`] if the summary lacks the capability.
    fn query(&self, query: &Query) -> Answer;

    /// Whether the summary can answer `query` (default: probes [`Queryable::query`]).
    fn supports(&self, query: &Query) -> bool {
        !matches!(self.query(query), Answer::Unsupported)
    }
}

/// A summary that can be checkpointed to a compact, versioned byte string and
/// restored to an observably identical instance.
///
/// # The snapshot law
///
/// For every implementation, `restore(checkpoint(a))` must be **observably
/// identical** to `a`: the same answers to every query, the same
/// [`StateReport`], the same per-address wear table — and, because internal
/// randomness and caches are part of the serialized state, identical behaviour on
/// any stream processed *after* the restore.  `tests/snapshot_laws.rs` pins this for
/// every production algorithm in the repository at random checkpoint positions.
///
/// # Format
///
/// Checkpoints use the versioned header and length-checked encoding of
/// [`crate::snapshot`]: corrupt, truncated, foreign, or stale-version bytes are
/// rejected with a typed [`SnapshotError`] — never a panic.  The tracker's complete
/// counter state ([`crate::snapshot::TrackerState`]) is embedded, so restoring does
/// not lose accounting history.
///
/// Checkpointing is defined for summaries that **own** their tracker (standalone
/// construction).  A sub-summary sharing an enclosing algorithm's tracker is
/// checkpointed through its enclosing algorithm.
pub trait Snapshot: StreamAlgorithm {
    /// Stable algorithm id written into the checkpoint header (e.g. `"count_min"`).
    fn snapshot_id(&self) -> &'static str;

    /// Serializes the complete summary — configuration, data, internal randomness,
    /// and tracker accounting — into a versioned byte string.
    fn checkpoint(&self) -> Vec<u8>;

    /// Rebuilds a summary from [`Snapshot::checkpoint`] bytes.
    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError>
    where
        Self: Sized;

    /// Serializes a **delta** checkpoint against a previously captured base: the
    /// `FSCD` bytes transforming `since` into the current full checkpoint (see
    /// [`crate::delta`]).  Applying the result to `since`'s bytes with
    /// [`crate::delta::apply_delta`] reproduces [`Snapshot::checkpoint`] exactly, and
    /// the delta never exceeds the full checkpoint by more than
    /// [`crate::delta::DELTA_OVERHEAD`] plus the id length.  For a summary with few
    /// state changes the delta is small — persistence cost proportional to *changes*,
    /// the durability face of the paper's thesis.
    ///
    /// The default implementation diffs the serialized state, which is correct for
    /// every algorithm unconditionally.
    fn checkpoint_delta(&self, since: &BaseRef) -> Result<Vec<u8>, SnapshotError> {
        crate::delta::encode_delta(
            since.bytes(),
            &self.checkpoint(),
            since.epoch(),
            self.report().epochs,
        )
    }
}

use crate::delta::BaseRef;
use crate::snapshot::SnapshotError;

/// Generates a [`Queryable`] implementation from a capability list.
///
/// ```ignore
/// impl_queryable!(CountMin: [frequency]);
/// impl_queryable!(ExactCounting: [frequency, moment, entropy, support]);
/// ```
///
/// Capabilities: `frequency` (answers [`Query::Point`], [`Query::HeavyHitters`], and
/// [`Query::TrackedItems`] via [`FrequencyEstimator`]), `moment`
/// ([`MomentEstimator`]), `entropy` ([`EntropyEstimator`]), `support`
/// ([`SupportRecovery`]).  Queries outside the listed capabilities answer
/// [`Answer::Unsupported`].
#[macro_export]
macro_rules! impl_queryable {
    ($ty:ty : [$($cap:ident),* $(,)?]) => {
        impl $crate::Queryable for $ty {
            fn query(&self, query: &$crate::Query) -> $crate::Answer {
                $(
                    if let Some(answer) = $crate::impl_queryable!(@try $cap, self, query) {
                        return answer;
                    }
                )*
                let _ = query;
                $crate::Answer::Unsupported
            }
        }
    };
    // Fully-qualified trait calls: several algorithms carry inherent methods with the
    // same names (e.g. a no-argument `heavy_hitters`), which would otherwise shadow
    // the capability-trait methods inside the expansion.
    (@try frequency, $self:expr, $query:expr) => {
        match *$query {
            $crate::Query::Point(item) => Some($crate::Answer::Scalar(
                $crate::FrequencyEstimator::estimate($self, item),
            )),
            $crate::Query::HeavyHitters { threshold } => Some($crate::Answer::ItemWeights(
                $crate::FrequencyEstimator::heavy_hitters($self, threshold),
            )),
            $crate::Query::TrackedItems => Some($crate::Answer::Items(
                $crate::FrequencyEstimator::tracked_items($self),
            )),
            _ => None,
        }
    };
    (@try moment, $self:expr, $query:expr) => {
        match *$query {
            $crate::Query::Moment => Some($crate::Answer::Scalar(
                $crate::MomentEstimator::estimate_moment($self),
            )),
            _ => None,
        }
    };
    (@try entropy, $self:expr, $query:expr) => {
        match *$query {
            $crate::Query::Entropy => Some($crate::Answer::Scalar(
                $crate::EntropyEstimator::estimate_entropy($self),
            )),
            _ => None,
        }
    };
    (@try support, $self:expr, $query:expr) => {
        match *$query {
            $crate::Query::Support => Some($crate::Answer::Items(
                $crate::SupportRecovery::recovered_support($self),
            )),
            _ => None,
        }
    };
}

/// An algorithm that produces per-item frequency estimates, used for heavy hitters.
pub trait FrequencyEstimator: StreamAlgorithm {
    /// Estimated frequency of `item` (0.0 if the item is unknown to the summary).
    fn estimate(&self, item: u64) -> f64;

    /// The items for which the summary holds explicit information (candidate heavy
    /// hitters).  For sketches without explicit keys this may be empty, in which case
    /// callers must query `estimate` over a candidate set themselves.
    fn tracked_items(&self) -> Vec<u64>;

    /// All tracked items whose estimated frequency is at least `threshold`.
    fn heavy_hitters(&self, threshold: f64) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self
            .tracked_items()
            .into_iter()
            .map(|i| (i, self.estimate(i)))
            .filter(|&(_, f)| f >= threshold)
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// An algorithm that estimates the frequency moment `F_p = Σ_i f_i^p`.
pub trait MomentEstimator: StreamAlgorithm {
    /// The moment order `p` this instance estimates.
    fn p(&self) -> f64;

    /// The estimate of `F_p` given everything seen so far.
    fn estimate_moment(&self) -> f64;
}

/// An algorithm that estimates the Shannon entropy `H(f) = −Σ (f_i/m) log2(f_i/m)` of
/// the empirical distribution of the stream.
pub trait EntropyEstimator: StreamAlgorithm {
    /// The entropy estimate, in bits.
    fn estimate_entropy(&self) -> f64;
}

/// An algorithm that recovers the support of a sparse frequency vector.
pub trait SupportRecovery: StreamAlgorithm {
    /// The recovered support (distinct items believed to occur in the stream).
    fn recovered_support(&self) -> Vec<u64>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrackedCell;

    /// Minimal test double: counts stream length in a tracked cell.
    struct LengthCounter {
        len: TrackedCell<u64>,
        tracker: StateTracker,
    }

    impl LengthCounter {
        fn new() -> Self {
            let tracker = StateTracker::new();
            let len = TrackedCell::new(&tracker, 0);
            Self { len, tracker }
        }
    }

    impl StreamAlgorithm for LengthCounter {
        fn name(&self) -> &str {
            "length-counter"
        }
        fn process_item(&mut self, _item: u64) {
            self.len.modify(|v| v + 1);
        }
        fn tracker(&self) -> &StateTracker {
            &self.tracker
        }
    }

    impl FrequencyEstimator for LengthCounter {
        fn estimate(&self, _item: u64) -> f64 {
            *self.len.peek() as f64
        }
        fn tracked_items(&self) -> Vec<u64> {
            vec![0]
        }
    }

    crate::impl_queryable!(LengthCounter: [frequency]);

    #[test]
    fn update_opens_one_epoch_per_item() {
        let mut a = LengthCounter::new();
        a.process_stream(&[5, 5, 7, 9]);
        let r = a.report();
        assert_eq!(r.epochs, 4);
        // The deterministic counter writes on every update: the exact behaviour the
        // paper identifies as undesirable.
        assert_eq!(r.state_changes, 4);
        assert_eq!(*a.len.peek(), 4);
        assert_eq!(a.space_words(), 1);
    }

    #[test]
    fn process_batch_matches_per_item_updates() {
        let mut batched = LengthCounter::new();
        batched.process_batch(&[1, 2, 3, 4, 5]);
        let mut one_by_one = LengthCounter::new();
        for item in [1, 2, 3, 4, 5] {
            one_by_one.update(item);
        }
        assert_eq!(batched.report(), one_by_one.report());
        assert_eq!(*batched.len.peek(), *one_by_one.len.peek());
    }

    #[test]
    fn queryable_macro_answers_listed_capabilities_and_rejects_the_rest() {
        let mut a = LengthCounter::new();
        a.process_stream(&[1, 2, 3]);
        // Trait-object use: ingest + typed queries without a downcast.
        let dynamic: &dyn Queryable = &a;
        assert_eq!(dynamic.query(&Query::Point(7)), Answer::Scalar(3.0));
        assert_eq!(dynamic.query(&Query::TrackedItems), Answer::Items(vec![0]));
        assert_eq!(
            dynamic.query(&Query::HeavyHitters { threshold: 1.0 }),
            Answer::ItemWeights(vec![(0, 3.0)])
        );
        assert_eq!(dynamic.query(&Query::Moment), Answer::Unsupported);
        assert_eq!(dynamic.query(&Query::Entropy), Answer::Unsupported);
        assert_eq!(dynamic.query(&Query::Support), Answer::Unsupported);
        assert!(dynamic.supports(&Query::Point(0)));
        assert!(!dynamic.supports(&Query::Moment));
        // Answer accessors.
        assert_eq!(Answer::Scalar(2.0).scalar(), Some(2.0));
        assert_eq!(Answer::Items(vec![1]).items(), Some(&[1u64][..]));
        assert!(Answer::Unsupported.scalar().is_none());
        assert!(Answer::Scalar(0.0).items().is_none());
        assert!(Answer::ItemWeights(vec![]).item_weights().is_some());
    }

    #[test]
    fn tracker_state_export_import_reproduces_report_wear_and_clock() {
        for kind in [
            crate::TrackerKind::Full,
            crate::TrackerKind::FullAddressTracked,
        ] {
            let original = StateTracker::of_kind(kind);
            let range = original.alloc(4);
            original.record_write(Some(range.word(0)), true);
            for i in 0..5u64 {
                original.begin_epoch();
                original.record_write(Some(range.word((i % 4) as usize)), i % 2 == 0);
            }
            original.record_reads(9);
            original.dealloc(1);

            let state = original.export_state();
            let restored = StateTracker::of_kind(kind);
            // The restore path allocates during container rebuilds; import clobbers it.
            restored.alloc(2);
            restored.record_write(None, true);
            restored.import_state(&state);

            assert_eq!(restored.snapshot(), original.snapshot());
            assert_eq!(restored.address_writes(), original.address_writes());
            assert_eq!(restored.export_state(), state);
            // The clock continues identically: the next epoch claims a state change
            // on both (or neither).
            original.begin_epoch();
            original.record_write(Some(range.word(1)), true);
            restored.begin_epoch();
            restored.record_write(Some(range.word(1)), true);
            assert_eq!(restored.snapshot(), original.snapshot());
            // And post-import allocations continue from the same cursor.
            assert_eq!(restored.alloc(3), original.alloc(3));
        }
    }

    #[test]
    fn heavy_hitters_default_sorts_by_estimate() {
        let mut a = LengthCounter::new();
        a.process_stream(&[1, 2, 3]);
        let hh = a.heavy_hitters(1.0);
        assert_eq!(hh, vec![(0, 3.0)]);
        assert!(a.heavy_hitters(10.0).is_empty());
    }
}
