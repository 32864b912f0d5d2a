//! The tracker kinds and the epoch clock behind [`crate::StateTracker`]'s accounting.
//!
//! # Hot-path cost model
//!
//! Epoch bookkeeping is a sequential per-tracker notion — a state change is defined per
//! stream update, and sharded runs give each shard its own tracker — so the update path
//! deliberately uses **relaxed load + store** sequences instead of atomic
//! read-modify-write instructions: on one thread they are equivalent, and a plain store
//! retires in a cycle where a `lock xadd` costs tens.  The atomics exist to make the
//! handles `Send + Sync` (shareable), not to merge concurrent streams into one tracker;
//! counters incremented from several threads at once may drop increments, which is
//! outside the accounting contract (each tracker is driven by one stream at a time).
//! Allocation (cold path) keeps its RMW operations so concurrent `alloc` from clones
//! stays address-disjoint.
//!
//! Epochs follow the same philosophy in batched form:
//! [`crate::StateTracker::begin_epochs`] reserves a span of epoch ids up front and
//! [`crate::StateTracker::enter_epoch`] activates each id with a single relaxed store,
//! so `process_batch` performs no atomic RMW per item.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bumps a sequentially-driven counter with a relaxed load + store pair.
///
/// Equivalent to `fetch_add` for the single-driver contract described in the module
/// docs, but compiles to plain loads/stores on the hot path.
#[inline(always)]
pub(crate) fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// What a [`crate::StateTracker`] records beyond the exact aggregate counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrackerKind {
    /// Exact accounting (the default; reproduces all recorded experiments).
    #[default]
    Full,
    /// Exact accounting plus per-address wear counts (analysis runs only).
    FullAddressTracked,
}

impl TrackerKind {
    /// The kind's checkpoint wire tag — the single source for every serializer that
    /// stores a kind (a new kind gets a tag here, and every codec picks it up).
    pub fn tag(self) -> u8 {
        match self {
            TrackerKind::Full => 0,
            TrackerKind::FullAddressTracked => 1,
        }
    }

    /// Inverse of [`TrackerKind::tag`] (`None` for unknown tags — corrupt input,
    /// including the retired tag 2).
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(TrackerKind::Full),
            1 => Some(TrackerKind::FullAddressTracked),
            _ => None,
        }
    }
}

/// The id of the current epoch (0 = no epoch opened yet, i.e. data-structure
/// initialisation) and the id of the last epoch that was counted as a state change.
///
/// Writes performed before the first epoch are counted as word writes but not as state
/// changes, matching the paper's convention that state changes are counted per stream
/// update.
#[derive(Debug, Default)]
pub(crate) struct EpochState {
    /// Id of the currently active epoch; equals the number of epochs entered so far.
    current: AtomicU64,
    /// Id of the last epoch already counted as a state change (0 = none).
    last_change: AtomicU64,
}

impl EpochState {
    #[inline(always)]
    pub(crate) fn begin(&self) {
        self.enter(self.current.load(Ordering::Relaxed) + 1);
    }

    #[inline(always)]
    pub(crate) fn reserve(&self) -> u64 {
        self.current.load(Ordering::Relaxed) + 1
    }

    #[inline(always)]
    pub(crate) fn enter(&self, id: u64) {
        self.current.store(id, Ordering::Relaxed);
    }

    #[inline(always)]
    pub(crate) fn epochs(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Returns `true` iff a changed write in the current epoch is that epoch's first —
    /// i.e. the write that makes the epoch a state change.  Pre-epoch writes (id 0)
    /// never count.
    #[inline(always)]
    pub(crate) fn claims_state_change(&self) -> bool {
        let e = self.current.load(Ordering::Relaxed);
        if e != 0 && self.last_change.load(Ordering::Relaxed) != e {
            self.last_change.store(e, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Id of the last epoch counted as a state change (0 = none) — exported by
    /// checkpoints so a restored tracker's next claim decision is identical.
    #[inline(always)]
    pub(crate) fn last_change(&self) -> u64 {
        self.last_change.load(Ordering::Relaxed)
    }

    /// Overwrites the clock with checkpointed values (restore path).
    #[inline(always)]
    pub(crate) fn restore(&self, current: u64, last_change: u64) {
        self.current.store(current, Ordering::Relaxed);
        self.last_change.store(last_change, Ordering::Relaxed);
    }

    /// Enters the fresh epochs up to `last` and, if `claimed` names one of them,
    /// records it as the last state change — where the per-item loop leaves the
    /// clock after a span whose last changed epoch is `claimed`.
    #[inline(always)]
    pub(crate) fn enter_settled(&self, last: u64, claimed: Option<u64>) {
        self.current.store(last, Ordering::Relaxed);
        if let Some(e) = claimed {
            debug_assert!(e >= 1 && e <= last);
            self.last_change.store(e, Ordering::Relaxed);
        }
    }

    /// Enters the fresh epochs `first..first + n` (n ≥ 1) and marks every one of them
    /// as claimed, leaving `current`/`last_change` exactly where the per-item loop
    /// (enter, claim, enter, claim, …) would leave them.
    #[inline(always)]
    pub(crate) fn enter_claimed_run(&self, first: u64, n: u64) {
        debug_assert!(first >= 1 && n >= 1);
        let last = first + n - 1;
        self.current.store(last, Ordering::Relaxed);
        self.last_change.store(last, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use crate::{StateReport, StateTracker, TrackerKind};

    fn exercise(t: &StateTracker) -> StateReport {
        let r = t.alloc(4);
        assert_eq!(r.len, 4);
        t.record_write(Some(r.word(0)), true); // init: before any epoch
        for _ in 0..3 {
            t.begin_epoch();
            t.record_write(Some(r.word(0)), true);
            t.record_write(Some(r.word(1)), true);
        }
        t.begin_epoch();
        t.record_write(Some(r.word(2)), false);
        t.record_reads(7);
        t.dealloc(2);
        t.snapshot()
    }

    /// Same stimulus as `exercise`, but through the batched epoch-span API.
    fn exercise_batched(t: &StateTracker) -> StateReport {
        let r = t.alloc(4);
        t.record_write(Some(r.word(0)), true);
        let first = t.begin_epochs(4);
        for (i, changed) in [true, true, true, false].iter().enumerate() {
            t.enter_epoch(first + i as u64);
            t.record_write(Some(r.word(0)), *changed);
            if *changed {
                t.record_write(Some(r.word(1)), true);
            }
        }
        t.record_reads(7);
        t.dealloc(2);
        t.snapshot()
    }

    #[test]
    fn batched_epoch_spans_match_per_item_epochs() {
        for kind in [TrackerKind::Full, TrackerKind::FullAddressTracked] {
            let per_item = exercise(&StateTracker::of_kind(kind));
            let batched = exercise_batched(&StateTracker::of_kind(kind));
            assert_eq!(batched, per_item, "{kind:?}");
        }
    }

    #[test]
    fn epochs_are_visible_per_activation_not_per_reservation() {
        // A kernel that enters its epochs one at a time shows each to mid-batch
        // readers of `epochs()`, not the end of the reserved span.
        let t = StateTracker::new();
        let first = t.begin_epochs(100);
        assert_eq!(first, 1);
        assert_eq!(t.epochs(), 0, "reservation alone opens nothing");
        t.enter_epoch(first);
        assert_eq!(t.epochs(), 1);
        t.enter_epoch(first + 1);
        assert_eq!(t.epochs(), 2);
        // A later span continues where the activations left off.
        assert_eq!(t.begin_epochs(5), 3);
    }

    /// Scattered addresses of three items with two writes each, as the lane-packed
    /// CountMin kernel hands them to `record_scatter_epochs`.
    const SCATTER: [usize; 6] = [7, 0, 4, 7, 1, 6];

    /// Per-item stimulus whose bulk equivalents the batch kernels use: a contiguous
    /// write run and a span of scatter epochs.  This loop is the reference the bulk
    /// calls must match.
    fn exercise_bulk_per_item(t: &StateTracker) -> StateReport {
        let r = t.alloc(8);
        // Epoch 1: a contiguous run of 4 changed writes (the AMS kernel shape).
        t.begin_epoch();
        for i in 0..4 {
            t.record_write(Some(r.word(i)), true);
        }
        // Epochs 2..4: one epoch per item of a lane-packed scatter block.
        let first = t.begin_epochs(3);
        for (i, item) in SCATTER.chunks_exact(2).enumerate() {
            t.enter_epoch(first + i as u64);
            for &a in item {
                t.record_write(Some(r.word(a)), true);
            }
        }
        t.record_reads(3);
        t.snapshot()
    }

    /// The same stimulus through the bulk accounting API.
    fn exercise_bulk(t: &StateTracker) -> StateReport {
        let r = t.alloc(8);
        t.begin_epoch();
        t.record_changed_run(Some(r.word(0)), 4);
        let first = t.begin_epochs(3);
        // Without wear the addresses are never read, so none are computed.
        let addrs: Vec<usize> = if t.tracks_wear() {
            SCATTER.iter().map(|&a| r.word(a)).collect()
        } else {
            Vec::new()
        };
        t.record_scatter_epochs(first, 3, 2, &addrs);
        t.record_reads(3);
        t.snapshot()
    }

    #[test]
    fn bulk_accounting_is_equivalent_to_the_per_item_loop() {
        for kind in [TrackerKind::Full, TrackerKind::FullAddressTracked] {
            let bulk = StateTracker::of_kind(kind);
            let item = StateTracker::of_kind(kind);
            assert_eq!(
                exercise_bulk(&bulk),
                exercise_bulk_per_item(&item),
                "{kind:?}"
            );
            // Wear tables, not just their aggregates, and the staleness clock.
            assert_eq!(bulk.address_writes(), item.address_writes(), "{kind:?}");
            assert_eq!(
                bulk.state_change_generation(),
                item.state_change_generation(),
                "{kind:?}"
            );
        }
        let bulk = StateTracker::with_address_tracking();
        let _ = exercise_bulk(&bulk);
        let wear = bulk.address_writes().unwrap();
        // Word 1: one write from the epoch-1 contiguous run plus one from the scatter.
        assert_eq!(wear[1], 2, "run and scatter wear accumulate");
        // Word 7: hit by two items of the scatter block.
        assert_eq!(wear[7], 2, "scatter wear counts every item");
    }

    #[test]
    fn empty_bulk_calls_are_no_ops() {
        let t = StateTracker::new();
        t.begin_epoch();
        t.record_changed_run(Some(0), 0);
        let first = t.begin_epochs(0);
        t.record_scatter_epochs(first, 0, 2, &[]);
        let snap = t.snapshot();
        assert_eq!(snap.state_changes, 0);
        assert_eq!(snap.word_writes, 0);
        assert_eq!(snap.epochs, 1);
    }

    #[test]
    fn full_counts_fine_grained_activity() {
        let full = exercise(&StateTracker::new());
        assert_eq!(full.epochs, 4);
        assert_eq!(full.state_changes, 3, "redundant-only epoch does not count");
        assert_eq!(full.word_writes, 7); // 1 init + 3 epochs × 2
        assert_eq!(full.redundant_writes, 1);
        assert_eq!(full.reads, 7);
        assert_eq!((full.words_current, full.words_peak), (2, 4));
        assert_eq!(
            full.max_cell_writes, None,
            "no wear without address tracking"
        );
    }

    #[test]
    fn full_address_tracking_records_wear_through_the_backend() {
        let full = StateTracker::with_address_tracking();
        let snap = exercise(&full);
        assert_eq!(snap.max_cell_writes, Some(4), "word 0: init + 3 epochs");
        assert_eq!(snap.tracked_cells, Some(4));
        assert_eq!(snap.total_addr_writes, Some(7));
        assert_eq!(full.address_writes().unwrap()[1], 3);
    }

    #[test]
    fn kinds_are_reported() {
        assert_eq!(StateTracker::new().kind(), TrackerKind::Full);
        assert_eq!(
            StateTracker::with_address_tracking().kind(),
            TrackerKind::FullAddressTracked
        );
    }

    #[test]
    fn full_generation_ticks_per_changed_write_and_never_on_noise() {
        let t = StateTracker::new();
        let r = t.alloc(4);
        assert_eq!(t.state_change_generation(), 0);
        t.begin_epoch();
        t.record_write(Some(r.word(0)), true);
        t.record_write(Some(r.word(1)), true);
        assert_eq!(t.state_change_generation(), 2, "exact per-changed-write");
        t.begin_epoch();
        t.record_write(Some(r.word(0)), false); // redundant write
        t.record_reads(10);
        assert_eq!(
            t.state_change_generation(),
            2,
            "noise never ticks the clock"
        );
        t.record_changed_run(Some(r.word(0)), 3);
        assert_eq!(t.state_change_generation(), 5);
        let first = t.begin_epochs(1);
        t.record_scatter_epochs(first, 1, 2, &[r.word(0), r.word(2)]);
        assert_eq!(t.state_change_generation(), 7);
    }

    #[test]
    fn generation_is_tainted_forward_by_import_never_rewound() {
        for kind in [TrackerKind::Full, TrackerKind::FullAddressTracked] {
            let t = StateTracker::of_kind(kind);
            let r = t.alloc(2);
            for _ in 0..3 {
                t.begin_epoch();
                t.record_write(Some(r.word(0)), true);
            }
            let before = t.state_change_generation();
            let state = t.export_state();
            // Import into the *same* tracker: counters rewind to the checkpoint,
            // but the staleness clock must move strictly forward.
            t.import_state(&state);
            assert!(
                t.state_change_generation() > before,
                "import taints the clock forward on {kind:?}"
            );
            // Import into a fresh tracker: even with zero local history the
            // imported state is a mutation, so the clock leaves zero.
            let restored = StateTracker::of_kind(kind);
            restored.import_state(&state);
            assert!(
                restored.state_change_generation() > 0,
                "cold import still ticks on {kind:?}"
            );
            assert_eq!(
                restored.export_state(),
                state,
                "import is exact on {kind:?}"
            );
        }
    }

    #[test]
    fn generation_satisfies_the_epoch_boundary_contract() {
        // At every epoch boundary: generation advanced since the last boundary
        // iff some observable mutation happened in between.
        for kind in [TrackerKind::Full, TrackerKind::FullAddressTracked] {
            let t = StateTracker::of_kind(kind);
            let r = t.alloc(8);
            let mut last = t.state_change_generation();
            for i in 0..32u64 {
                t.begin_epoch();
                let mutated = i % 3 == 0;
                t.record_write(Some(r.word((i % 8) as usize)), mutated);
                let now = t.state_change_generation();
                assert!(now >= last, "monotone on {kind:?}");
                assert_eq!(
                    now > last,
                    mutated,
                    "advances iff the epoch mutated on {kind:?}"
                );
                last = now;
            }
        }
    }

    #[test]
    fn backends_are_shareable_across_threads() {
        let t = StateTracker::with_address_tracking();
        let r = t.alloc(4);
        std::thread::scope(|s| {
            for i in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        t.record_reads(1);
                    }
                    // The wear table sits behind a mutex, so addressed writes from
                    // several threads never lose an increment.
                    t.record_write(Some(r.word(i)), true);
                });
            }
        });
        assert_eq!(t.address_writes(), Some(vec![1; 4]));
    }
}
