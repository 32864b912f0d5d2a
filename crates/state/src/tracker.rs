//! The [`StateTracker`] handle and its exact state-change accounting.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::backend::{bump, EpochState, TrackerKind};
use crate::report::StateReport;
use crate::snapshot::TrackerState;

/// A contiguous range of tracked memory addresses, returned by [`StateTracker::alloc`].
///
/// Addresses are abstract word indices in the tracker's address space.  They are used
/// only when per-cell wear accounting is enabled (see
/// [`StateTracker::with_address_tracking`]); algorithms never interpret them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrRange {
    /// First word index of the allocation.
    pub start: usize,
    /// Number of words allocated.
    pub len: usize,
}

impl AddrRange {
    /// An empty range used by structures created without an owning tracker allocation.
    /// Calling [`AddrRange::word`] on it is out of range for every index; callers
    /// holding a possibly-empty range must check `len` first, as
    /// [`crate::TrackedVec`]'s write path does (no production structure holds an
    /// empty range: `TrackedVec` is kept as [`crate::TrackedMatrix`]'s test
    /// reference).
    pub const EMPTY: AddrRange = AddrRange { start: 0, len: 0 };

    /// Address of the `i`-th word in this range.  Out-of-range indices (`i ≥ len`,
    /// including any index into [`AddrRange::EMPTY`]) are a caller bug and panic in
    /// debug builds.
    pub fn word(&self, i: usize) -> usize {
        debug_assert!(
            i < self.len,
            "AddrRange::word index {i} out of range for len {}",
            self.len
        );
        self.start + i
    }
}

/// Shared handle recording all memory activity of one streaming algorithm.
///
/// The handle is a reference-counted pointer to one block of counters, so tracked
/// containers each hold a clone of it and all clones count into the same totals.  It
/// keeps the exact accounting — state changes, word writes, redundant writes, reads,
/// and current/peak space — and, when built with
/// [`StateTracker::with_address_tracking`], per-address wear counts as well.
///
/// The counters are relaxed atomics and the wear table sits behind a mutex, so the
/// handle — and therefore every algorithm built on tracked containers — is
/// `Send + Sync`.  The streaming model itself stays sequential per tracker: a state
/// change is a per-update notion, and sharded runs give each shard its own tracker.
///
/// # Epochs
///
/// The paper counts a *state change* per stream update, not per modified word: an update
/// that rewrites five words counts once.  Call [`StateTracker::begin_epoch`] at the start
/// of each stream update (the [`crate::traits::StreamAlgorithm::update`] default method
/// does this for you); all writes until the next `begin_epoch` belong to that epoch, and
/// the epoch contributes at most one state change.
#[derive(Debug, Clone)]
pub struct StateTracker {
    counters: Arc<Counters>,
}

/// The counters every clone of one [`StateTracker`] shares.
#[derive(Debug, Default)]
struct Counters {
    /// Paper-definition state changes: number of epochs in which ≥ 1 word changed.
    state_changes: AtomicU64,
    /// Number of individual word writes that changed the stored value.
    word_writes: AtomicU64,
    /// Number of word writes whose new value equalled the old value.
    redundant_writes: AtomicU64,
    /// Number of word reads.
    reads: AtomicU64,
    /// Current/last-state-change epoch ids (one epoch per stream update).
    epoch: EpochState,
    /// Currently allocated words.
    words_current: AtomicUsize,
    /// Peak allocated words over the lifetime of the tracker.
    words_peak: AtomicUsize,
    /// Next free address for `alloc`.
    next_addr: AtomicUsize,
    /// Lifetime changed-write count per address; populated only when
    /// `address_tracked` is set.
    wear: Mutex<Vec<u64>>,
    /// Monotone staleness clock (see [`StateTracker::state_change_generation`]):
    /// ticks per changed write plus one taint tick per import.  Deliberately **not**
    /// serialized in [`TrackerState`] — it is an ephemeral per-instance clock, so the
    /// checkpoint format is unchanged.
    generation: AtomicU64,
    /// Whether per-address wear accounting is enabled (fixed at construction).
    address_tracked: bool,
}

impl Default for StateTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl StateTracker {
    /// Creates a tracker with exact aggregate accounting ([`TrackerKind::Full`]).
    pub fn new() -> Self {
        Self::of_kind(TrackerKind::Full)
    }

    /// Creates an exact tracker that additionally records per-address write counts,
    /// enabling wear analysis through [`crate::nvm::NvmReport`].
    ///
    /// Address tracking costs one `u64` per tracked word plus a lock per addressed
    /// write, so it is intended for moderate-size experiments (it is an analysis
    /// feature, not part of the algorithm).
    pub fn with_address_tracking() -> Self {
        Self::of_kind(TrackerKind::FullAddressTracked)
    }

    /// Creates a tracker of the given kind — the hook `Params`-style configuration
    /// uses to choose wear tracking per algorithm without touching algorithm code.
    pub fn of_kind(kind: TrackerKind) -> Self {
        Self {
            counters: Arc::new(Counters {
                address_tracked: kind == TrackerKind::FullAddressTracked,
                ..Counters::default()
            }),
        }
    }

    /// The kind this tracker was constructed with.
    pub fn kind(&self) -> TrackerKind {
        if self.counters.address_tracked {
            TrackerKind::FullAddressTracked
        } else {
            TrackerKind::Full
        }
    }

    fn wear_table(&self) -> MutexGuard<'_, Vec<u64>> {
        match self.counters.wear.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Counts `n` changed writes in the current epoch: the word and generation
    /// counters, plus the epoch's state change if these are its first changed writes.
    #[inline(always)]
    fn count_changed(&self, n: u64) {
        let c = &*self.counters;
        bump(&c.word_writes, n);
        bump(&c.generation, n);
        if c.epoch.claims_state_change() {
            bump(&c.state_changes, 1);
        }
    }

    /// Enters the fresh epochs `first..first + n` (n ≥ 1), each a state change, and
    /// counts `writes` changed writes across them.
    #[inline(always)]
    fn count_claimed_run(&self, first: u64, n: u64, writes: u64) {
        let c = &*self.counters;
        c.epoch.enter_claimed_run(first, n);
        bump(&c.state_changes, n);
        bump(&c.word_writes, writes);
        bump(&c.generation, writes);
    }

    /// Adds `n` to the wear of each of `addrs` when wear is tracked, growing the
    /// table past its end if needed.
    #[inline]
    fn add_wear(&self, addrs: &[usize], n: u64) {
        if !self.counters.address_tracked {
            return;
        }
        let mut wear = self.wear_table();
        for &a in addrs {
            if wear.len() <= a {
                wear.resize(a + 1, 0);
            }
            wear[a] += n;
        }
    }

    /// Starts a new epoch (stream update).  At most one state change is counted per
    /// epoch regardless of how many words are modified within it.
    #[inline]
    pub fn begin_epoch(&self) {
        self.counters.epoch.begin()
    }

    /// Reserves a span of `n` consecutive epochs and returns the id of the first.
    ///
    /// The caller must enter every epoch of the span (ids `first..first + n`), in
    /// order, before reserving another span or calling
    /// [`StateTracker::begin_epoch`]: one at a time with
    /// [`StateTracker::enter_epoch`], exactly one activation per stream update, or
    /// a run at a time through a bulk call that enters them
    /// ([`StateTracker::record_scatter_epochs`], [`StateTracker::record_block`]).
    /// The epoch count observed through [`StateTracker::epochs`] advances per
    /// entered epoch, not per reservation, and a whole batch costs no atomic
    /// read-modify-write.  A kernel whose update reads the clock mid-run (such as
    /// age-bucketed maintenance) and settles through a bulk call must supply the
    /// clock itself, since `epochs()` moves only when the run is settled.
    #[inline]
    pub fn begin_epochs(&self, n: u64) -> u64 {
        let _ = n;
        self.counters.epoch.reserve()
    }

    /// Activates reserved epoch `id` (see [`StateTracker::begin_epochs`]).
    #[inline]
    pub fn enter_epoch(&self, id: u64) {
        self.counters.epoch.enter(id)
    }

    /// Allocates `words` words of tracked memory and charges them to the space accounts.
    pub fn alloc(&self, words: usize) -> AddrRange {
        let c = &*self.counters;
        let start = c.next_addr.fetch_add(words, Ordering::Relaxed);
        let current = c.words_current.fetch_add(words, Ordering::Relaxed) + words;
        c.words_peak.fetch_max(current, Ordering::Relaxed);
        if c.address_tracked {
            // Grow-only: a concurrent alloc may already have extended the table past
            // this range's end, and resizing down would truncate its wear counts.
            let mut wear = self.wear_table();
            if wear.len() < start + words {
                wear.resize(start + words, 0);
            }
        }
        AddrRange { start, len: words }
    }

    /// Releases `words` words of tracked memory (peak usage is unaffected).
    pub fn dealloc(&self, words: usize) {
        let _ =
            self.counters
                .words_current
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                    Some(cur.saturating_sub(words))
                });
    }

    /// Records a write to one word.  `changed` must be `true` iff the stored value
    /// actually differs from the previous value; only changed writes can trigger a state
    /// change.  `addr` feeds per-cell wear accounting when enabled; anonymous (`None`)
    /// writes are counted but wear no cell.
    #[inline]
    pub fn record_write(&self, addr: Option<usize>, changed: bool) {
        if !changed {
            bump(&self.counters.redundant_writes, 1);
            return;
        }
        self.count_changed(1);
        if let Some(a) = addr {
            self.add_wear(&[a], 1);
        }
    }

    /// Records `n` changed writes at the consecutive addresses `start..start + n`
    /// (`None` for anonymous words), all within the current epoch — the bulk
    /// equivalent of `n` calls to [`StateTracker::record_write`] with
    /// `changed = true`, in constant time without wear tracking.  Used by batch
    /// kernels whose per-item writes land on a contiguous address run (e.g. an AMS
    /// sketch touching every counter).
    #[inline]
    pub fn record_changed_run(&self, start: Option<usize>, n: u64) {
        if n == 0 {
            return;
        }
        self.count_changed(n);
        if let (true, Some(start)) = (self.counters.address_tracked, start) {
            let end = start + n as usize;
            let mut wear = self.wear_table();
            if wear.len() < end {
                wear.resize(end, 0);
            }
            for w in &mut wear[start..end] {
                *w += 1;
            }
        }
    }

    /// Activates each reserved epoch `first + i` for `i in 0..items` in turn and
    /// records, within it, `writes` changed writes — the bulk equivalent of the
    /// per-item scatter-accounting loop
    /// `for each item: enter_epoch(first + i); for each addr: record_write(Some(addr), true)`
    /// used by the lane-packed batch kernels (`writes` probes per item, every probe
    /// a changed write, as in CountMin/CountSketch).  The caller must have reserved
    /// the span via [`StateTracker::begin_epochs`] without entering any of its
    /// epochs.
    ///
    /// The counters are updated in constant time: every scatter epoch carries
    /// `writes ≥ 1` changed writes, so each claims exactly one state change and the
    /// clock ends on the last epoch with `last_change == current` — exactly where the
    /// per-item loop leaves it.  With wear tracking on ([`StateTracker::tracks_wear`]),
    /// `addrs` must hold the `items · writes` written addresses in item order, and
    /// one more pass adds each address's wear.  With it off, `addrs` is never read,
    /// so a kernel skips computing addresses and passes an empty slice.
    #[inline]
    pub fn record_scatter_epochs(&self, first: u64, items: u64, writes: usize, addrs: &[usize]) {
        if writes == 0 || items == 0 {
            return;
        }
        let total = items * writes as u64;
        self.count_claimed_run(first, items, total);
        if self.counters.address_tracked {
            debug_assert_eq!(addrs.len() as u64, total, "one address per write");
            self.add_wear(addrs, 1);
        }
    }

    /// Settles a block of reserved epochs whose accounting was collected apart
    /// from the tracker: enters the epochs `first..first + n` and records, across
    /// them, `writes` changed writes, `redundant` redundant writes, and wear at
    /// `wear` — the bulk equivalent of the per-item loop
    /// `for each item: enter_epoch(first + i); record_write(…)` for any writes.
    /// Bit `i` of `changed` (word `i / 64`, bit `i % 64`) is set iff item `i`
    /// made at least one changed write; each set bit claims one state change, and
    /// the last one becomes the last-state-change epoch, exactly where the
    /// per-item loop leaves it.  The caller must have reserved the span via
    /// [`StateTracker::begin_epochs`] without entering any of its epochs.
    ///
    /// `wear` holds the address of every addressed changed write (each counts
    /// once) and is read only when [`StateTracker::tracks_wear`]; a caller on a
    /// tracker without wear passes an empty slice.
    pub fn record_block(
        &self,
        first: u64,
        n: u64,
        changed: &[u64],
        writes: u64,
        redundant: u64,
        wear: &[usize],
    ) {
        if n == 0 {
            return;
        }
        let c = &*self.counters;
        let claims: u64 = changed.iter().map(|w| u64::from(w.count_ones())).sum();
        let last_changed = changed
            .iter()
            .rposition(|&w| w != 0)
            .map(|k| (k * 64) as u64 + u64::from(63 - changed[k].leading_zeros()));
        debug_assert!(
            last_changed.is_none_or(|i| i < n),
            "changed bit past the block"
        );
        debug_assert!(writes >= claims, "every changed item made a changed write");
        c.epoch
            .enter_settled(first + n - 1, last_changed.map(|i| first + i));
        bump(&c.state_changes, claims);
        bump(&c.word_writes, writes);
        bump(&c.generation, writes);
        bump(&c.redundant_writes, redundant);
        self.add_wear(wear, 1);
    }

    /// Whether this tracker keeps per-address wear
    /// ([`TrackerKind::FullAddressTracked`]).  Batch kernels compute write
    /// addresses only when it does (see [`StateTracker::record_scatter_epochs`]).
    #[inline]
    pub fn tracks_wear(&self) -> bool {
        self.counters.address_tracked
    }

    /// Records `n` word reads.
    #[inline]
    pub fn record_reads(&self, n: u64) {
        bump(&self.counters.reads, n)
    }

    /// Number of state changes so far (paper definition).
    pub fn state_changes(&self) -> u64 {
        self.counters.state_changes.load(Ordering::Relaxed)
    }

    /// A monotone **staleness clock** for cached serving views: a counter that never
    /// decreases over the lifetime of this tracker and ticks on every changed word
    /// write and once per [`StateTracker::import_state`] (which replaces the whole
    /// state, so it *taints* the clock forward even when the restored counters
    /// rewind).  Redundant writes and reads never tick it.
    ///
    /// Compare two readings only at epoch boundaries — between stream updates, never
    /// mid-update.  Under that discipline, `generation unchanged` implies `no state
    /// change happened in between`, which is what lets a cached serving view skip its
    /// rebuild.  The converse is deliberately weak: an import that restored identical
    /// state still ticks, which costs a spurious rebuild, never a stale answer.
    pub fn state_change_generation(&self) -> u64 {
        self.counters.generation.load(Ordering::Relaxed)
    }

    /// Number of epochs (stream updates) started so far.
    #[inline]
    pub fn epochs(&self) -> u64 {
        self.counters.epoch.epochs()
    }

    /// Current number of allocated words.
    pub fn words_current(&self) -> usize {
        self.counters.words_current.load(Ordering::Relaxed)
    }

    /// Peak number of allocated words.
    pub fn words_peak(&self) -> usize {
        self.counters.words_peak.load(Ordering::Relaxed)
    }

    /// Produces an immutable snapshot of every counter.
    pub fn snapshot(&self) -> StateReport {
        let c = &*self.counters;
        let (max_cell_writes, tracked_cells, total_addr_writes) = if c.address_tracked {
            let wear = self.wear_table();
            (
                wear.iter().copied().max(),
                Some(wear.len()),
                Some(wear.iter().sum()),
            )
        } else {
            (None, None, None)
        };
        StateReport {
            state_changes: self.state_changes(),
            word_writes: c.word_writes.load(Ordering::Relaxed),
            redundant_writes: c.redundant_writes.load(Ordering::Relaxed),
            reads: c.reads.load(Ordering::Relaxed),
            epochs: self.epochs(),
            words_current: self.words_current(),
            words_peak: self.words_peak(),
            max_cell_writes,
            tracked_cells,
            total_addr_writes,
        }
    }

    /// Per-address write counts, if address tracking is enabled.
    pub fn address_writes(&self) -> Option<Vec<u64>> {
        self.counters
            .address_tracked
            .then(|| self.wear_table().clone())
    }

    /// Exports the complete counter state for checkpointing (see [`TrackerState`]):
    /// every aggregate counter, the epoch clock including the last-state-change epoch,
    /// the address-allocation cursor, and the wear table when present.
    pub fn export_state(&self) -> TrackerState {
        let c = &*self.counters;
        TrackerState {
            kind: self.kind(),
            epochs: self.epochs(),
            last_change_epoch: c.epoch.last_change(),
            state_changes: self.state_changes(),
            word_writes: c.word_writes.load(Ordering::Relaxed),
            redundant_writes: c.redundant_writes.load(Ordering::Relaxed),
            reads: c.reads.load(Ordering::Relaxed),
            words_current: self.words_current(),
            words_peak: self.words_peak(),
            next_addr: c.next_addr.load(Ordering::Relaxed),
            wear: self.address_writes(),
        }
    }

    /// Overwrites every counter with a previously exported state — the final step of
    /// an algorithm restore, after its containers have been rebuilt (any accounting
    /// the rebuild charged is clobbered by this call, which is what makes
    /// `restore(checkpoint(a))` reproduce the original [`crate::StateReport`] and
    /// wear table exactly).  Called on a tracker of the same kind as the exporter.
    pub fn import_state(&self, state: &TrackerState) {
        debug_assert_eq!(state.kind, self.kind(), "import into a same-kind tracker");
        let c = &*self.counters;
        c.epoch.restore(state.epochs, state.last_change_epoch);
        c.state_changes
            .store(state.state_changes, Ordering::Relaxed);
        c.word_writes.store(state.word_writes, Ordering::Relaxed);
        c.redundant_writes
            .store(state.redundant_writes, Ordering::Relaxed);
        c.reads.store(state.reads, Ordering::Relaxed);
        c.words_current
            .store(state.words_current, Ordering::Relaxed);
        c.words_peak.store(state.words_peak, Ordering::Relaxed);
        c.next_addr.store(state.next_addr, Ordering::Relaxed);
        if c.address_tracked {
            *self.wear_table() = state.wear.clone().unwrap_or_default();
        }
        // Restore taints the staleness clock: the counters above may rewind, but the
        // generation only ever moves forward — an import is a state mutation, so any
        // generation captured before it must now compare stale.
        bump(&c.generation, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_bound_state_changes() {
        let t = StateTracker::new();
        for _ in 0..10 {
            t.begin_epoch();
            // Three changed writes within the same epoch count as one state change.
            t.record_write(None, true);
            t.record_write(None, true);
            t.record_write(None, true);
        }
        let r = t.snapshot();
        assert_eq!(r.epochs, 10);
        assert_eq!(r.state_changes, 10);
        assert_eq!(r.word_writes, 30);
    }

    #[test]
    fn unchanged_writes_are_not_state_changes() {
        let t = StateTracker::new();
        t.begin_epoch();
        t.record_write(None, false);
        t.record_write(None, false);
        assert_eq!(t.state_changes(), 0);
        assert_eq!(t.snapshot().redundant_writes, 2);
    }

    #[test]
    fn allocation_tracks_current_and_peak() {
        let t = StateTracker::new();
        let a = t.alloc(10);
        let b = t.alloc(5);
        assert_eq!(a.start, 0);
        assert_eq!(b.start, 10);
        assert_eq!(t.words_current(), 15);
        t.dealloc(10);
        assert_eq!(t.words_current(), 5);
        assert_eq!(t.words_peak(), 15);
        let c = t.alloc(1);
        assert_eq!(c.start, 15, "addresses are never reused");
        t.dealloc(100);
        assert_eq!(t.words_current(), 0, "dealloc saturates at zero");
    }

    #[test]
    fn address_tracking_records_per_cell_wear() {
        let t = StateTracker::with_address_tracking();
        let r = t.alloc(4);
        t.begin_epoch();
        t.record_write(Some(r.word(0)), true);
        t.begin_epoch();
        t.record_write(Some(r.word(0)), true);
        t.begin_epoch();
        t.record_write(Some(r.word(3)), true);
        let snap = t.snapshot();
        assert_eq!(snap.max_cell_writes, Some(2));
        assert_eq!(snap.total_addr_writes, Some(3));
        assert_eq!(snap.tracked_cells, Some(4));
    }

    #[test]
    fn clones_share_counters() {
        let t = StateTracker::new();
        let t2 = t.clone();
        t.begin_epoch();
        t2.record_write(None, true);
        assert_eq!(t.state_changes(), 1);
    }

    #[test]
    fn kind_round_trips_through_of_kind() {
        for kind in [TrackerKind::Full, TrackerKind::FullAddressTracked] {
            assert_eq!(StateTracker::of_kind(kind).kind(), kind);
        }
    }

    #[test]
    fn addr_range_word_indexes_within_range() {
        let r = AddrRange { start: 7, len: 3 };
        assert_eq!(r.word(0), 7);
        assert_eq!(r.word(2), 9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    #[cfg(debug_assertions)]
    fn addr_range_word_out_of_range_panics_in_debug() {
        let _ = AddrRange::EMPTY.word(0);
    }

    /// One block's writes, per item: `(address, changed)`.
    type Block = Vec<Vec<(Option<usize>, bool)>>;

    /// Drives `block` after a warm-up epoch with a changed write, settling it by
    /// the per-item `enter_epoch`/`record_write` loop or by one `record_block`
    /// call, then one more per-item epoch; returns the full exported state and
    /// the generation clock.
    fn settle(kind: TrackerKind, block: &Block, bulk: bool) -> (TrackerState, u64) {
        let t = StateTracker::of_kind(kind);
        let r = t.alloc(8);
        t.begin_epoch();
        t.record_write(Some(r.word(7)), true);
        let first = t.begin_epochs(block.len() as u64);
        if bulk {
            let mut changed = vec![0u64; block.len().div_ceil(64)];
            let (mut writes, mut redundant, mut wear) = (0, 0, Vec::new());
            for (i, item) in block.iter().enumerate() {
                for &(addr, is_changed) in item {
                    if !is_changed {
                        redundant += 1;
                        continue;
                    }
                    writes += 1;
                    changed[i / 64] |= 1 << (i % 64);
                    if let (true, Some(a)) = (t.tracks_wear(), addr) {
                        wear.push(a);
                    }
                }
            }
            t.record_block(
                first,
                block.len() as u64,
                &changed,
                writes,
                redundant,
                &wear,
            );
        } else {
            for (i, item) in block.iter().enumerate() {
                t.enter_epoch(first + i as u64);
                for &(addr, is_changed) in item {
                    t.record_write(addr, is_changed);
                }
            }
        }
        // The clock continues where the block left it.
        t.begin_epoch();
        t.record_write(None, true);
        (t.export_state(), t.state_change_generation())
    }

    #[test]
    fn record_block_matches_the_per_item_loop() {
        let quiet = |n: usize| -> Block { vec![vec![(Some(1), false)]; n] };
        let mut last_only = quiet(100);
        last_only[99] = vec![(Some(2), true)];
        let mut straddle = quiet(130);
        straddle[63] = vec![(Some(3), true), (None, true)];
        straddle[64] = vec![(Some(3), true)];
        let mut several = quiet(10);
        several[4] = vec![
            (Some(0), true),
            (Some(0), true),
            (None, true),
            (Some(5), false),
        ];
        several[9] = vec![(Some(6), true), (Some(0), true)];
        let wear: Block = (0..200)
            .map(|i| match i % 3 {
                0 => vec![(Some(i % 8), true)],
                1 => vec![(Some(i % 5), true), (Some(7), true)],
                _ => vec![],
            })
            .collect();
        let cases: [(&str, Block); 7] = [
            ("no changed item", quiet(200)),
            ("change only on the last item", last_only),
            ("changes at items 63 and 64", straddle),
            ("a block of one, changed", vec![vec![(Some(4), true)]]),
            ("a block of one, unchanged", quiet(1)),
            ("several writes in one item", several),
            ("wear addresses", wear),
        ];
        for kind in [TrackerKind::Full, TrackerKind::FullAddressTracked] {
            for (label, block) in &cases {
                assert_eq!(
                    settle(kind, block, true),
                    settle(kind, block, false),
                    "{label} [{kind:?}]"
                );
            }
        }
    }

    #[test]
    fn record_block_of_no_items_is_a_no_op() {
        let t = StateTracker::new();
        let first = t.begin_epochs(0);
        t.record_block(first, 0, &[], 0, 0, &[]);
        assert_eq!(t.snapshot(), StateTracker::new().snapshot());
    }

    #[test]
    fn trackers_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StateTracker>();
    }
}
