//! A tracked associative map for counter tables keyed by stream items.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

use crate::tracker::StateTracker;
use crate::words_of;

/// A tracked hash map from keys to values.
///
/// Dynamic counter tables — Misra-Gries summaries, SpaceSaving tables, the per-item
/// Morris-counter table of `SampleAndHold` — are stored in `TrackedMap`s.  Every
/// insertion, removal, and value modification is charged to the owning
/// [`StateTracker`]; writes that leave the stored value unchanged are redundant and do
/// not count as state changes.
///
/// The hasher is a type parameter (defaulting to the standard library's SipHash
/// `RandomState`): key-holding hot paths hash the key on every update, and the
/// DoS-resistant default costs several times more than a deterministic multiply-xor
/// hash.  The `fsc-counters::fastmap` module provides the fast seeded hasher the
/// algorithms plug in here; nothing observable depends on iteration order, so the
/// choice of hasher never changes a recorded experiment.
///
/// Space accounting charges `words_of::<K>() + words_of::<V>() + 1` words per entry
/// (key, value, and one word of table overhead).
#[derive(Debug, Clone)]
pub struct TrackedMap<K, V, S = std::collections::hash_map::RandomState> {
    data: HashMap<K, V, S>,
    tracker: StateTracker,
    entry_words: usize,
}

impl<K: Eq + Hash + Clone, V: PartialEq + Clone, S: BuildHasher + Default> TrackedMap<K, V, S> {
    /// Creates an empty tracked map with a default-constructed hasher.
    pub fn new(tracker: &StateTracker) -> Self {
        Self::with_hasher(tracker, S::default())
    }
}

impl<K: Eq + Hash + Clone, V: PartialEq + Clone, S: BuildHasher> TrackedMap<K, V, S> {
    /// Creates an empty tracked map using `hasher` for key hashing.
    pub fn with_hasher(tracker: &StateTracker, hasher: S) -> Self {
        Self {
            data: HashMap::with_hasher(hasher),
            tracker: tracker.clone(),
            entry_words: words_of::<K>() + words_of::<V>() + 1,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Looks up `key` (charged as one read).
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.tracker.record_reads(1);
        self.data.get(key)
    }

    /// Membership test (charged as one read).
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.tracker.record_reads(1);
        self.data.contains_key(key)
    }

    /// Inserts or overwrites `key → value`.  Returns the previous value, if any.
    /// A brand-new entry or a changed value counts as a write; re-inserting an identical
    /// value is redundant.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.data.get(&key) {
            Some(old) if *old == value => {
                self.tracker.record_write(None, false);
                Some(value)
            }
            Some(_) => {
                self.tracker.record_write(None, true);
                self.data.insert(key, value)
            }
            None => {
                self.tracker.alloc(self.entry_words);
                self.tracker.record_write(None, true);
                self.data.insert(key, value)
            }
        }
    }

    /// Removes `key`, returning its value.  Removal is a state-changing write.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let out = self.data.remove(key);
        if out.is_some() {
            self.tracker.dealloc(self.entry_words);
            self.tracker.record_write(None, true);
        }
        out
    }

    /// Applies `f` to the value stored under `key`, writing back the result.
    /// Returns `true` if the key existed and the value changed.
    #[inline]
    pub fn modify(&mut self, key: &K, f: impl FnOnce(&V) -> V) -> bool {
        self.tracker.record_reads(1);
        let new = match self.data.get(key) {
            Some(v) => f(v),
            None => return false,
        };
        let changed = self.data[key] != new;
        self.tracker.record_write(None, changed);
        if changed {
            self.data.insert(key.clone(), new);
        }
        changed
    }

    /// Removes every entry for which `pred` returns `false`, charging one write per
    /// removed entry.  Returns the number of removed entries.
    pub fn retain(&mut self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.data.len();
        let tracker = self.tracker.clone();
        let entry_words = self.entry_words;
        self.data.retain(|k, v| {
            let keep = pred(k, v);
            if !keep {
                tracker.dealloc(entry_words);
                tracker.record_write(None, true);
            }
            keep
        });
        before - self.data.len()
    }

    /// Looks up `key` without charging a read (reporting / merge bookkeeping only; the
    /// tracked analogue is [`TrackedMap::get`]).
    #[inline]
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.data.get(key)
    }

    /// Inserts `key → value` without any accounting (no allocation charge, no write) —
    /// the restore path of checkpointing, which rebuilds a freshly constructed map's
    /// entries and then replaces every tracker counter via
    /// [`crate::StateTracker::import_state`].  Entry space still counts toward the
    /// tracked-words invariants through that import, and later tracked `remove`/
    /// `retain` calls release it exactly as on the original instance.
    pub fn insert_untracked(&mut self, key: K, value: V) {
        self.data.insert(key, value);
    }

    /// Untracked iteration (reporting / extraction only).
    pub fn iter_untracked(&self) -> std::collections::hash_map::Iter<'_, K, V> {
        self.data.iter()
    }

    /// Untracked key snapshot.
    pub fn keys_untracked(&self) -> Vec<K> {
        self.data.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_accounting() {
        let t = StateTracker::new();
        let mut m: TrackedMap<u64, u64> = TrackedMap::new(&t);
        t.begin_epoch();
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m.len(), 2);
        assert_eq!(t.words_current(), 2 * 3);
        t.begin_epoch();
        assert_eq!(
            m.insert(1, 10),
            Some(10),
            "identical re-insert is redundant"
        );
        assert_eq!(t.state_changes(), 1);
        t.begin_epoch();
        m.insert(1, 11);
        assert_eq!(t.state_changes(), 2);
        t.begin_epoch();
        assert_eq!(m.remove(&2), Some(20));
        assert_eq!(t.words_current(), 3);
        assert_eq!(t.state_changes(), 3);
        assert_eq!(m.remove(&2), None);
    }

    #[test]
    fn modify_only_counts_changes() {
        let t = StateTracker::new();
        let mut m: TrackedMap<u64, u64> = TrackedMap::new(&t);
        m.insert(7, 0);
        t.begin_epoch();
        assert!(m.modify(&7, |v| v + 1));
        assert!(!m.modify(&7, |v| *v));
        assert!(!m.modify(&99, |v| v + 1), "missing keys are untouched");
        assert_eq!(*m.get(&7).unwrap(), 1);
        assert_eq!(t.state_changes(), 1);
    }

    #[test]
    fn retain_charges_removals() {
        let t = StateTracker::new();
        let mut m: TrackedMap<u64, u64> = TrackedMap::new(&t);
        for i in 0..10 {
            m.insert(i, i * i);
        }
        let peak = t.words_peak();
        t.begin_epoch();
        let removed = m.retain(|k, _| k % 2 == 0);
        assert_eq!(removed, 5);
        assert_eq!(m.len(), 5);
        assert!(t.words_current() < peak);
        assert!(m.contains_key(&4));
        assert!(!m.contains_key(&5));
    }

    #[test]
    fn reads_are_charged_for_lookups() {
        let t = StateTracker::new();
        let mut m: TrackedMap<u64, u64> = TrackedMap::new(&t);
        m.insert(1, 1);
        let _ = m.get(&1);
        let _ = m.contains_key(&2);
        assert_eq!(t.snapshot().reads, 2);
        assert_eq!(m.keys_untracked(), vec![1]);
        assert_eq!(m.iter_untracked().count(), 1);
        assert_eq!(t.snapshot().reads, 2, "untracked accessors are free");
    }
}
