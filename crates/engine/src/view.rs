//! Generation-stamped serving views: publish-once, read-many snapshot caching.
//!
//! A [`ServingView`] is the std-only RCU cell behind
//! [`Engine::query`](crate::Engine::query): the merged shard union is built
//! once, published as an
//! [`Arc`] stamped with the engine's staleness generation, and every subsequent
//! query whose live generation still matches is a lock-free counter compare plus
//! a brief read-lock `Arc` clone — no checkpoint restore, no merge pass.  The
//! stamp only goes stale when a *state change* lands (the paper's scarce
//! resource), so the serve path inherits the `Õ(n^{1−1/p})` rebuild economy the
//! complexity measure promises; see DESIGN.md §1.7 for the soundness argument.
//!
//! Publication order matters: the snapshot is written under the write lock
//! *before* the stamp is stored (release ordering), so a reader that observes a
//! matching stamp always finds a snapshot at least that fresh in the slot.
//! Concurrent rebuilds for the same generation are idempotent — both publish
//! observably identical merged views — so readers never need to coordinate.
//!
//! `ServingView::publish` hands back the snapshot it displaced whenever no
//! reader holds it any more, and the engine rebuilds the next view into that
//! buffer; a snapshot still visible to a reader is never written.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use fsc_state::{Answer, Query, Queryable};

/// Stamp value meaning "nothing published yet".  Generations are sums of
/// per-shard counters that would take centuries of state changes to reach
/// `u64::MAX`, so the sentinel never collides with a live generation.
const STAMP_EMPTY: u64 = u64::MAX;

/// A generation-stamped snapshot cell (see the module docs above).
///
/// `stamp` is the generation the published snapshot was built at
/// (an empty-sentinel before the first publish); `slot` holds the snapshot
/// itself.  Readers clone the `Arc` out and drop the lock immediately, so a
/// concurrent publish never blocks on slow queries.
pub struct ServingView<A> {
    stamp: AtomicU64,
    slot: RwLock<Option<Arc<A>>>,
    rebuilds: AtomicU64,
}

impl<A> ServingView<A> {
    /// An empty cell: no snapshot, stamp at the sentinel, zero rebuilds.
    pub(crate) fn new() -> Self {
        Self {
            stamp: AtomicU64::new(STAMP_EMPTY),
            slot: RwLock::new(None),
            rebuilds: AtomicU64::new(0),
        }
    }

    fn read_slot(&self) -> Option<Arc<A>> {
        match self.slot.read() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// The published snapshot if it was built at exactly `generation` — the
    /// lock-free fast path (one atomic load; the read lock is only taken once
    /// the stamp already matches).
    pub(crate) fn get_if_current(&self, generation: u64) -> Option<Arc<A>> {
        if self.stamp.load(Ordering::Acquire) != generation {
            return None;
        }
        self.read_slot()
    }

    /// Publishes `snapshot` as the view at `generation` and returns it shared,
    /// together with the snapshot it displaced — but only if no reader still
    /// holds that one ([`Arc::try_unwrap`] succeeds), so the caller may reuse it
    /// as the next build's buffer without writing anything a reader can see.
    /// Once out of the slot a snapshot gains no new readers, so a unique `Arc`
    /// stays unique.
    ///
    /// Slot first, stamp second (release): a matching stamp implies the slot
    /// holds a snapshot at least that fresh.
    pub(crate) fn publish(&self, generation: u64, snapshot: A) -> (Arc<A>, Option<A>) {
        let shared = Arc::new(snapshot);
        let displaced = match self.slot.write() {
            Ok(mut guard) => guard.replace(Arc::clone(&shared)),
            Err(poisoned) => poisoned.into_inner().replace(Arc::clone(&shared)),
        };
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        self.stamp.store(generation, Ordering::Release);
        (shared, displaced.and_then(|old| Arc::try_unwrap(old).ok()))
    }

    /// Generation the published snapshot was built at (`None` until the first
    /// publish).  A reader comparing this against a live
    /// [`Engine::generation`](crate::Engine::generation) learns whether its
    /// cached answers are current without touching the summary.
    pub fn published_stamp(&self) -> Option<u64> {
        match self.stamp.load(Ordering::Acquire) {
            STAMP_EMPTY => None,
            stamp => Some(stamp),
        }
    }

    /// Number of snapshot publishes over this cell's lifetime — the serve-cost
    /// counter F13 plots against state changes.  Monotone; never reset, not
    /// even by engine restore.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// The published snapshot regardless of staleness (`None` until the first
    /// publish) — what a detached reader serves between writer refreshes.
    pub fn snapshot(&self) -> Option<Arc<A>> {
        self.read_slot()
    }
}

impl<A> fmt::Debug for ServingView<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServingView")
            .field("stamp", &self.published_stamp())
            .field("rebuilds", &self.rebuilds())
            .field("populated", &self.read_slot().is_some())
            .finish()
    }
}

/// The type-erased reader face of a [`ServingView`]: what reader threads hold
/// (via [`DynEngine::serve_handle`](crate::DynEngine::serve_handle)) to answer
/// queries from the latest *published* snapshot while a writer owns the engine
/// and keeps ingesting.
///
/// Handles are deliberately decoupled from freshness: [`ServeHandle::serve`]
/// never rebuilds, it answers from whatever the writer last published (possibly
/// stale by the updates since the last
/// [`Engine::refresh_view`](crate::Engine::refresh_view)).  At quiescence —
/// writer done, one final
/// refresh — handle answers equal the fresh merged summary exactly.
pub trait ServeHandle: Send + Sync {
    /// Answers from the latest published snapshot, or `None` if nothing has
    /// been published yet.  Never rebuilds; never blocks on ingest.
    fn serve(&self, query: &Query) -> Option<Answer>;
    /// Generation of the published snapshot (`None` before the first publish).
    fn stamp(&self) -> Option<u64>;
    /// Snapshot publishes so far (see [`ServingView::rebuilds`]).
    fn rebuilds(&self) -> u64;
}

impl<A: Queryable + Send + Sync> ServeHandle for ServingView<A> {
    fn serve(&self, query: &Query) -> Option<Answer> {
        self.snapshot().map(|view| view.query(query))
    }

    fn stamp(&self) -> Option<u64> {
        self.published_stamp()
    }

    fn rebuilds(&self) -> u64 {
        ServingView::rebuilds(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_view_serves_nothing_and_matches_no_generation() {
        let view: ServingView<u64> = ServingView::new();
        assert_eq!(view.published_stamp(), None);
        assert_eq!(view.snapshot(), None);
        assert_eq!(view.rebuilds(), 0);
        assert!(view.get_if_current(0).is_none());
        assert!(
            view.get_if_current(STAMP_EMPTY).is_none(),
            "the sentinel itself must not read as a published generation"
        );
    }

    #[test]
    fn publish_then_hit_then_stale() {
        let view: ServingView<u64> = ServingView::new();
        let (shared, _) = view.publish(7, 42);
        assert_eq!(*shared, 42);
        assert_eq!(view.published_stamp(), Some(7));
        assert_eq!(view.rebuilds(), 1);
        assert_eq!(view.get_if_current(7).as_deref(), Some(&42));
        assert!(view.get_if_current(8).is_none(), "stale stamp must miss");
        view.publish(8, 43);
        assert_eq!(view.get_if_current(8).as_deref(), Some(&43));
        assert_eq!(view.rebuilds(), 2);
    }

    #[test]
    fn readers_hold_snapshots_across_republication() {
        let view: ServingView<Vec<u64>> = ServingView::new();
        let (old, _) = view.publish(1, vec![1, 2, 3]);
        view.publish(2, vec![4, 5]);
        assert_eq!(*old, vec![1, 2, 3], "RCU: old readers keep the old epoch");
        assert_eq!(view.snapshot().as_deref(), Some(&vec![4, 5]));
    }

    #[test]
    fn publish_returns_the_displaced_snapshot_only_when_unique() {
        let view: ServingView<Vec<u64>> = ServingView::new();
        let (first, displaced) = view.publish(1, vec![1]);
        assert_eq!(displaced, None, "nothing to displace on the first publish");
        drop(first);

        // No reader holds generation 1: it comes back for reuse.
        let (second, displaced) = view.publish(2, vec![2]);
        assert_eq!(displaced, Some(vec![1]));

        // A reader holds generation 2 (here: the publisher's own handle, plus a
        // handle cloned out of the slot): it stays shared and is not returned.
        let reader = view.snapshot().expect("published");
        let (third, displaced) = view.publish(3, vec![3]);
        assert_eq!(displaced, None, "a held snapshot must never be recycled");
        assert_eq!(*reader, vec![2]);
        assert_eq!(*second, vec![2]);
        drop((reader, second, third));

        // Once the last reader of generation 3 is gone it is recyclable again.
        let (_fourth, displaced) = view.publish(4, vec![4]);
        assert_eq!(displaced, Some(vec![3]));
    }
}
