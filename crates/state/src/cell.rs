//! A single tracked memory cell.

use crate::tracker::{AddrRange, StateTracker};
use crate::words_of;

/// A tracked storage location holding one value of type `T`.
///
/// Writes are charged to the owning [`StateTracker`]; a write only counts toward the
/// state-change counters when the new value differs from the stored one (writing an
/// identical value is a *redundant write*, which a careful implementation can skip after
/// a read — exactly the asymmetry the paper exploits).
#[derive(Debug, Clone)]
pub struct TrackedCell<T> {
    value: T,
    tracker: StateTracker,
    addr: AddrRange,
    words: usize,
}

impl<T: PartialEq> TrackedCell<T> {
    /// Allocates a new tracked cell holding `value`.
    ///
    /// The initial value is charged as a write (initialising memory is a write on real
    /// hardware), so a freshly constructed algorithm already has a nonzero write count;
    /// construction happens before the first epoch, so it does not add a state change
    /// unless an epoch is already open.
    pub fn new(tracker: &StateTracker, value: T) -> Self {
        let words = words_of::<T>();
        let addr = tracker.alloc(words);
        tracker.record_write(Some(addr.word(0)), true);
        Self {
            value,
            tracker: tracker.clone(),
            addr,
            words,
        }
    }

    /// Reads the value (charged as one read per word).
    #[inline]
    pub fn read(&self) -> &T {
        self.tracker.record_reads(self.words as u64);
        &self.value
    }

    /// Reads the value without charging a read.  Used by reporting / debugging code that
    /// is not part of the streaming algorithm itself.
    #[inline]
    pub fn peek(&self) -> &T {
        &self.value
    }

    /// Writes `value` into the cell.  Returns `true` if the stored value changed.
    #[inline]
    pub fn write(&mut self, value: T) -> bool {
        let changed = self.value != value;
        self.tracker.record_write(Some(self.addr.word(0)), changed);
        if changed {
            self.value = value;
        }
        changed
    }

    /// Applies `f` to the current value and writes the result back, charging one read
    /// and (if the result differs) one write.  Returns `true` if the value changed.
    #[inline]
    pub fn modify(&mut self, f: impl FnOnce(&T) -> T) -> bool {
        let new = f(self.read());
        self.write(new)
    }

    /// Overwrites the stored value without any accounting — the restore path of
    /// checkpointing.  The caller must follow container rebuilds with
    /// [`crate::StateTracker::import_state`], which replaces every counter with the
    /// checkpointed values; using this on a live algorithm path would under-count.
    #[inline]
    pub fn set_untracked(&mut self, value: T) {
        self.value = value;
    }
}

impl<T> Drop for TrackedCell<T> {
    fn drop(&mut self) {
        self.tracker.dealloc(self.words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_counts_only_changes() {
        let t = StateTracker::new();
        let mut c = TrackedCell::new(&t, 0u64);
        t.begin_epoch();
        assert!(c.write(1));
        t.begin_epoch();
        assert!(!c.write(1));
        t.begin_epoch();
        assert!(c.write(2));
        let r = t.snapshot();
        // One initialisation write + two changing writes.
        assert_eq!(r.word_writes, 3);
        assert_eq!(r.redundant_writes, 1);
        assert_eq!(r.state_changes, 2);
    }

    #[test]
    fn reads_are_charged() {
        let t = StateTracker::new();
        let c = TrackedCell::new(&t, 42u32);
        assert_eq!(*c.read(), 42);
        assert_eq!(*c.read(), 42);
        assert_eq!(t.snapshot().reads, 2);
        assert_eq!(*c.peek(), 42);
        assert_eq!(t.snapshot().reads, 2, "peek is free");
    }

    #[test]
    fn modify_reads_then_writes() {
        let t = StateTracker::new();
        let mut c = TrackedCell::new(&t, 10u64);
        t.begin_epoch();
        assert!(c.modify(|v| v + 1));
        assert!(!c.modify(|v| *v));
        let r = t.snapshot();
        assert_eq!(r.reads, 2);
        assert_eq!(r.word_writes, 2); // init + one change
        assert_eq!(*c.peek(), 11);
    }

    #[test]
    fn space_is_released_on_drop() {
        let t = StateTracker::new();
        {
            let _c = TrackedCell::new(&t, [0u64; 4]);
            assert_eq!(t.words_current(), 4);
        }
        assert_eq!(t.words_current(), 0);
        assert_eq!(t.words_peak(), 4);
    }
}
