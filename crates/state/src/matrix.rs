//! A tracked two-dimensional array stored in one contiguous allocation.

use crate::tracker::{AddrRange, StateTracker};
use crate::{charge_init_writes, words_of};

/// A tracked `rows × width` matrix backed by a single row-major `Vec`.
///
/// Sketch tables (CountMin rows, CountSketch rows, the AMS counter groups) are
/// naturally two-dimensional but per-update touch one cell per row; storing the whole
/// sketch as one allocation instead of `rows` boxed [`crate::TrackedVec`]s removes a
/// pointer chase per row from the per-update hot path and keeps the counters on a
/// prefetch-friendly stride.
///
/// # Accounting equivalence
///
/// The accounting is cell-for-cell identical to `rows` consecutive
/// `TrackedVec::filled` allocations on the same tracker: one allocation of
/// `rows × width` elements charged up front, one initialisation write per cell
/// (performed before the first epoch), and cell `(r, c)` living at tracked address
/// `base + (r·width + c)·elem_words` — exactly where the `r`-th consecutively
/// allocated row vector would have put it.  Recorded experiments therefore reproduce
/// bit-for-bit across the storage change (the golden `table1` test pins this).
#[derive(Debug, Clone)]
pub struct TrackedMatrix<T> {
    data: Vec<T>,
    rows: usize,
    width: usize,
    tracker: StateTracker,
    addr: AddrRange,
    elem_words: usize,
}

impl<T: PartialEq + Clone> TrackedMatrix<T> {
    /// Allocates a `rows × width` matrix filled with `init`.
    ///
    /// Initialisation is charged as `rows × width` writes (zeroing memory is a write),
    /// performed before the first epoch.
    pub fn filled(tracker: &StateTracker, rows: usize, width: usize, init: T) -> Self {
        assert!(rows >= 1 && width >= 1);
        let elem_words = words_of::<T>();
        let len = rows * width;
        let addr = tracker.alloc(len * elem_words);
        charge_init_writes(tracker, addr, len, elem_words);
        Self {
            data: vec![init; len],
            rows,
            width,
            tracker: tracker.clone(),
            addr,
            elem_words,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no cells (never true: dimensions are ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline(always)]
    fn index(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.rows && c < self.width);
        r * self.width + c
    }

    /// Reads cell `(r, c)` (charged as one element read).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> &T {
        self.tracker.record_reads(self.elem_words as u64);
        &self.data[self.index(r, c)]
    }

    /// Reads cell `(r, c)` without charging (reporting code only).
    #[inline]
    pub fn peek(&self, r: usize, c: usize) -> &T {
        &self.data[self.index(r, c)]
    }

    /// Writes `value` into cell `(r, c)`; returns `true` if the cell changed.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: T) -> bool {
        let i = self.index(r, c);
        let changed = self.data[i] != value;
        self.tracker
            .record_write(Some(self.addr.word(i * self.elem_words)), changed);
        if changed {
            self.data[i] = value;
        }
        changed
    }

    /// Applies `f` to cell `(r, c)` and writes the result back (one read, one write).
    /// Returns `true` if the cell changed.
    #[inline]
    pub fn update(&mut self, r: usize, c: usize, f: impl FnOnce(&T) -> T) -> bool {
        let new = f(self.get(r, c));
        self.set(r, c, new)
    }

    /// Tracked address of cell `(r, c)` (the address charged per word by
    /// [`TrackedMatrix::set`]/[`TrackedMatrix::update`]) — what a batch kernel passes
    /// to the bulk write-accounting calls on the tracker.
    #[inline(always)]
    pub fn addr_of(&self, r: usize, c: usize) -> usize {
        self.addr.word(self.index(r, c) * self.elem_words)
    }

    /// Number of tracked words per element (1 for `u64`/`i64` cells).
    #[inline(always)]
    pub fn elem_words(&self) -> usize {
        self.elem_words
    }

    /// Untracked view of row `r` (reporting / merge bookkeeping only).
    pub fn row_untracked(&self, r: usize) -> &[T] {
        let start = r * self.width;
        &self.data[start..start + self.width]
    }

    /// Untracked mutable view of all cells in row-major order — the data path of the
    /// specialized batch kernels.
    ///
    /// Mutations through this slice bypass per-cell accounting entirely: the caller
    /// **must** charge the tracker with the exact equivalent of the per-cell calls it
    /// skipped ([`StateTracker::record_reads`] plus
    /// [`StateTracker::record_changed_run`]/[`StateTracker::record_scatter_epochs`]
    /// with the addresses from [`TrackedMatrix::addr_of`]), or recorded experiments
    /// diverge from the per-item path.  The batch-law tests pin that equivalence for
    /// every kernel in the repository.
    #[inline(always)]
    pub fn as_mut_slice_untracked(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Untracked iteration over all cells in row-major order.
    pub fn iter_untracked(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }
}

impl<T> Drop for TrackedMatrix<T> {
    fn drop(&mut self) {
        self.tracker.dealloc(self.data.len() * self.elem_words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrackedVec;

    #[test]
    fn filled_charges_initialisation_like_consecutive_row_vectors() {
        let t_rows = StateTracker::new();
        let rows: Vec<TrackedVec<u64>> = (0..3)
            .map(|_| TrackedVec::filled(&t_rows, 4, 0u64))
            .collect();
        let t_flat = StateTracker::new();
        let flat = TrackedMatrix::filled(&t_flat, 3, 4, 0u64);
        assert_eq!(t_flat.snapshot(), t_rows.snapshot());
        assert_eq!(flat.len(), rows.iter().map(|r| r.len()).sum::<usize>());
        assert_eq!(t_flat.snapshot().word_writes, 12);
        assert_eq!(t_flat.words_current(), 12);
        assert_eq!(t_flat.state_changes(), 0, "init precedes the first epoch");
    }

    #[test]
    fn updates_charge_the_same_addresses_as_row_vectors() {
        // Same mutation pattern through both layouts: per-address wear must agree.
        let t_rows = StateTracker::with_address_tracking();
        let mut rows: Vec<TrackedVec<u64>> = (0..2)
            .map(|_| TrackedVec::filled(&t_rows, 3, 0u64))
            .collect();
        let t_flat = StateTracker::with_address_tracking();
        let mut flat = TrackedMatrix::filled(&t_flat, 2, 3, 0u64);
        for (r, c) in [(0, 1), (1, 2), (1, 2), (0, 0)] {
            t_rows.begin_epoch();
            rows[r].update(c, |v| v + 1);
            t_flat.begin_epoch();
            flat.update(r, c, |v| v + 1);
        }
        assert_eq!(t_flat.address_writes(), t_rows.address_writes());
        assert_eq!(t_flat.snapshot(), t_rows.snapshot());
        assert_eq!(*flat.peek(1, 2), 2);
    }

    #[test]
    fn set_counts_only_changes() {
        let t = StateTracker::new();
        let mut m = TrackedMatrix::filled(&t, 2, 2, 0u32);
        t.begin_epoch();
        assert!(m.set(1, 1, 5));
        t.begin_epoch();
        assert!(!m.set(1, 1, 5));
        let r = t.snapshot();
        assert_eq!(r.state_changes, 1);
        assert_eq!(r.redundant_writes, 1);
    }

    #[test]
    fn reads_are_charged_per_element_word() {
        let t = StateTracker::new();
        let m = TrackedMatrix::filled(&t, 2, 2, 0u128);
        let init_reads = t.snapshot().reads;
        let _ = m.get(0, 1);
        assert_eq!(t.snapshot().reads - init_reads, 2, "u128 spans two words");
        let _ = m.peek(1, 0);
        assert_eq!(t.snapshot().reads - init_reads, 2);
        assert_eq!(m.iter_untracked().count(), 4);
        assert_eq!(m.row_untracked(1).len(), 2);
    }

    #[test]
    fn addr_of_matches_the_addresses_charged_by_per_cell_writes() {
        // A kernel that mutates via the untracked slice and charges the tracker with
        // addr_of-addressed writes must leave the same wear table as per-cell
        // update() calls.
        let t_cell = StateTracker::with_address_tracking();
        let mut cell = TrackedMatrix::filled(&t_cell, 2, 3, 0u64);
        let t_bulk = StateTracker::with_address_tracking();
        let mut bulk = TrackedMatrix::filled(&t_bulk, 2, 3, 0u64);
        for (r, c) in [(0, 2), (1, 0), (1, 2)] {
            t_cell.begin_epoch();
            cell.update(r, c, |v| v + 1);
            t_bulk.begin_epoch();
            t_bulk.record_reads(1);
            let addr = bulk.addr_of(r, c);
            bulk.as_mut_slice_untracked()[r * 3 + c] += 1;
            t_bulk.record_write(Some(addr), true);
        }
        assert_eq!(t_bulk.address_writes(), t_cell.address_writes());
        assert_eq!(t_bulk.snapshot(), t_cell.snapshot());
        assert_eq!(bulk.peek(1, 2), cell.peek(1, 2));
        assert_eq!(bulk.elem_words(), 1);
    }

    #[test]
    fn dimensions_and_drop_release_space() {
        let t = StateTracker::new();
        let m = TrackedMatrix::filled(&t, 3, 5, 0u64);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.width(), 5);
        assert_eq!(m.len(), 15);
        assert!(!m.is_empty());
        drop(m);
        assert_eq!(t.words_current(), 0);
        assert_eq!(t.words_peak(), 15);
    }
}
