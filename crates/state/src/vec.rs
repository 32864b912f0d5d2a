//! A tracked fixed-or-growable array of values.

use crate::tracker::{AddrRange, StateTracker};
use crate::{charge_init_writes, words_of};

/// A tracked vector: every element mutation is charged to the owning [`StateTracker`].
///
/// Sketch matrices (CountMin rows, CountSketch buckets, the reservoir `Q` of
/// `SampleAndHold`, …) are stored in `TrackedVec`s so that their write behaviour is
/// measured exactly.
#[derive(Debug, Clone)]
pub struct TrackedVec<T> {
    data: Vec<T>,
    tracker: StateTracker,
    addr: AddrRange,
    elem_words: usize,
}

impl<T: PartialEq + Clone> TrackedVec<T> {
    /// Allocates a tracked vector of length `len` filled with `init`.
    ///
    /// Initialisation is charged as `len` writes (zeroing memory is a write), performed
    /// before the first epoch.
    pub fn filled(tracker: &StateTracker, len: usize, init: T) -> Self {
        let elem_words = words_of::<T>();
        let addr = tracker.alloc(len * elem_words);
        charge_init_writes(tracker, addr, len, elem_words);
        Self {
            data: vec![init; len],
            tracker: tracker.clone(),
            addr,
            elem_words,
        }
    }

    /// Creates an empty tracked vector (e.g. for push-based structures).
    pub fn new(tracker: &StateTracker) -> Self {
        Self {
            data: Vec::new(),
            tracker: tracker.clone(),
            addr: AddrRange::EMPTY,
            elem_words: words_of::<T>(),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads element `i` (charged as one read).
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        self.tracker.record_reads(self.elem_words as u64);
        &self.data[i]
    }

    /// Reads element `i` without charging (for reporting code only).
    #[inline]
    pub fn peek(&self, i: usize) -> &T {
        &self.data[i]
    }

    /// Writes `value` into slot `i`; returns `true` if the slot changed.
    #[inline]
    pub fn set(&mut self, i: usize, value: T) -> bool {
        let changed = self.data[i] != value;
        // Push-based vectors hold `AddrRange::EMPTY` (no per-slot addresses were
        // allocated), and `AddrRange::word` treats any index into an empty range as out
        // of range — so the guard on `len` is load-bearing, not defensive.
        let addr = if self.addr.len == 0 {
            None
        } else {
            Some(self.addr.word(i * self.elem_words))
        };
        self.tracker.record_write(addr, changed);
        if changed {
            self.data[i] = value;
        }
        changed
    }

    /// Applies `f` to element `i` and writes the result back (one read, one write).
    /// Returns `true` if the element changed.
    #[inline]
    pub fn update(&mut self, i: usize, f: impl FnOnce(&T) -> T) -> bool {
        let new = f(self.get(i));
        self.set(i, new)
    }

    /// Appends an element, growing the tracked allocation.
    pub fn push(&mut self, value: T) {
        self.tracker.alloc(self.elem_words);
        self.tracker.record_write(None, true);
        self.data.push(value);
    }

    /// Removes the last element, shrinking the tracked allocation.
    pub fn pop(&mut self) -> Option<T> {
        let out = self.data.pop();
        if out.is_some() {
            self.tracker.dealloc(self.elem_words);
            self.tracker.record_write(None, true);
        }
        out
    }

    /// Untracked iteration over the contents (reporting / extraction only).
    pub fn iter_untracked(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Untracked mutable view of the contents — the restore path of checkpointing
    /// (mirrors [`crate::TrackedMatrix::as_mut_slice_untracked`]).  Mutations through
    /// this slice bypass all accounting; restores follow them with
    /// [`crate::StateTracker::import_state`], which replaces every counter with the
    /// checkpointed values.
    pub fn as_mut_slice_untracked(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Untracked snapshot of the contents.
    pub fn to_vec_untracked(&self) -> Vec<T> {
        self.data.clone()
    }
}

impl<T> Drop for TrackedVec<T> {
    fn drop(&mut self) {
        self.tracker.dealloc(self.data.len() * self.elem_words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_charges_initialisation_writes() {
        let t = StateTracker::new();
        let v = TrackedVec::filled(&t, 8, 0u64);
        assert_eq!(v.len(), 8);
        assert_eq!(t.snapshot().word_writes, 8);
        assert_eq!(t.words_current(), 8);
        assert_eq!(
            t.state_changes(),
            0,
            "init happens before any epoch? no epoch opened"
        );
    }

    #[test]
    fn set_counts_only_changes() {
        let t = StateTracker::new();
        let mut v = TrackedVec::filled(&t, 4, 0u32);
        t.begin_epoch();
        assert!(v.set(2, 5));
        t.begin_epoch();
        assert!(!v.set(2, 5));
        t.begin_epoch();
        assert!(v.update(2, |x| x + 1));
        let r = t.snapshot();
        assert_eq!(r.state_changes, 2);
        assert_eq!(r.redundant_writes, 1);
        assert_eq!(*v.peek(2), 6);
    }

    #[test]
    fn per_cell_wear_is_attributed_to_the_right_slot() {
        let t = StateTracker::with_address_tracking();
        let mut v = TrackedVec::filled(&t, 4, 0u64);
        for k in 1..=5u64 {
            t.begin_epoch();
            v.set(1, k);
        }
        let writes = t.address_writes().unwrap();
        // Slot 1 received 1 init + 5 updates.
        assert_eq!(writes[1], 6);
        assert_eq!(writes[3], 1);
        assert_eq!(t.snapshot().max_cell_writes, Some(6));
    }

    #[test]
    fn push_and_pop_adjust_space() {
        let t = StateTracker::new();
        let mut v: TrackedVec<u64> = TrackedVec::new(&t);
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        assert_eq!(t.words_current(), 2);
        assert_eq!(v.pop(), Some(2));
        assert_eq!(t.words_current(), 1);
        assert_eq!(v.to_vec_untracked(), vec![1]);
        drop(v);
        assert_eq!(t.words_current(), 0);
        assert_eq!(t.words_peak(), 2);
    }

    #[test]
    fn reads_are_charged_per_element_word() {
        let t = StateTracker::new();
        let v = TrackedVec::filled(&t, 2, 0u128);
        let _ = v.get(0);
        assert_eq!(t.snapshot().reads, 2, "u128 spans two words");
        let _ = v.peek(1);
        assert_eq!(t.snapshot().reads, 2);
        assert_eq!(v.iter_untracked().count(), 2);
        assert_eq!(t.snapshot().reads, 2);
    }
}
