//! # fsc-baselines — classic streaming algorithms, instrumented for state changes
//!
//! The algorithms the paper compares against (Table 1 and Section 1.4), each built on
//! the tracked-memory substrate of `fsc-state` so that their write behaviour is measured
//! with exactly the same accounting as the paper's algorithms:
//!
//! | Algorithm | Problem | State changes |
//! |-----------|---------|---------------|
//! | [`ExactCounting`] | exact frequencies (reference) | `O(m)` |
//! | [`MisraGries`] \[MG82\] | `L_1` heavy hitters | `O(m)` |
//! | [`SpaceSaving`] \[MAA05\] | `L_1` heavy hitters | `O(m)` |
//! | [`CountMin`] \[CM05\] | `L_1` heavy hitters | `O(m)` |
//! | [`CountSketch`] \[CCF04\] | `L_2` heavy hitters | `O(m)` |
//! | [`AmsSketch`] \[AMS99\] | `F_2` estimation | `O(m)` |
//! | [`SampleAndHoldClassic`] \[EV02\] | frequent items | sublinear, but unbounded counter growth |
//! | [`PickAndDrop`] \[BO13/BKSV14\] | `F_p` heavy hitters | sublinear, but fails below `p = 3` (Section 1.4) |
//!
//! All of them change state on (essentially) every update — the observation that
//! motivates the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ams;
mod count_min;
mod count_sketch;
mod exact;
mod misra_gries;
mod pick_and_drop;
mod sample_hold;
mod space_saving;

pub use ams::AmsSketch;
pub use count_min::CountMin;
pub use count_sketch::CountSketch;
pub use exact::ExactCounting;
pub use misra_gries::MisraGries;
pub use pick_and_drop::PickAndDrop;
pub use sample_hold::SampleAndHoldClassic;
pub use space_saving::SpaceSaving;

/// Items per block in the lane-packed batch kernels of [`CountMin`], [`CountSketch`],
/// and [`AmsSketch`]: the hash phase fills a block's worth of probe cells before the
/// scatter phase touches the table, so the early "prefetch" reads of one block's
/// cells have a whole hash phase of latency to hide behind.  A multiple of the widest
/// lane ([`fsc_counters::lanes::LANE_WIDTHS`]), small enough that a block's cell and
/// sign buffers stay L1-resident at benchmark depths.
pub(crate) const LANE_BLOCK: usize = 256;

/// Counter tables at or below this byte size skip the prefetch touch loop: they are
/// cache-resident, so early reads cannot pull anything closer and only cost cycles.
/// Half a megabyte ≈ the point where scattered probes start missing L2 on the hosts
/// we benchmark; correctness is unaffected either way (prefetch is untracked reads).
pub(crate) const PREFETCH_MIN_BYTES: usize = 512 * 1024;

/// A batch kernel's reusable buffer, kept in its sketch so a batch allocates
/// nothing.  It holds no sketch state: empty at construction, sized by the first
/// batch, never serialized, and a clone starts empty, so construction and copies
/// cost what they would without it.  Derefs to the `Vec`.
#[derive(Debug)]
pub(crate) struct Scratch<T>(Vec<T>);

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<T> Clone for Scratch<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<T> std::ops::Deref for Scratch<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.0
    }
}

/// The untracked [`fsc_state::Mergeable::assign_union`] of the linear sketches:
/// overwrites `dst` with the element-wise sum of the `shards` counter tables — one
/// slice copy of the first, then one add pass per further shard, with the same `+`
/// their tracked `merge_from` applies cell by cell.
///
/// # Panics
///
/// When `shards` is empty or a table's length differs from `dst`'s.
pub(crate) fn assign_sum<'a, T>(dst: &mut [T], mut shards: impl Iterator<Item = &'a [T]>)
where
    T: Copy + std::ops::AddAssign + 'a,
{
    dst.copy_from_slice(shards.next().expect("a union needs at least one shard"));
    for shard in shards {
        assert_eq!(dst.len(), shard.len(), "shard tables must have equal size");
        for (cell, &v) in dst.iter_mut().zip(shard) {
            *cell += v;
        }
    }
}

/// Serializes a `u64 → u64` counter table in sorted-key order (deterministic bytes:
/// two observably identical summaries produce identical checkpoints even though hash
/// map iteration order is an implementation detail).
pub(crate) fn write_counter_table(
    w: &mut fsc_state::SnapshotWriter,
    counters: &fsc_counters::fastmap::FastTrackedMap<u64, u64>,
) {
    let mut entries: Vec<(u64, u64)> = counters.iter_untracked().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable();
    w.usize(entries.len());
    for (key, count) in entries {
        w.u64(key);
        w.u64(count);
    }
}

/// Restores a counter table serialized by [`write_counter_table`] into a freshly
/// constructed (empty) map, without accounting — the caller finishes with
/// [`fsc_state::StateTracker::import_state`].
pub(crate) fn read_counter_table(
    r: &mut fsc_state::SnapshotReader<'_>,
    counters: &mut fsc_counters::fastmap::FastTrackedMap<u64, u64>,
) -> Result<(), fsc_state::SnapshotError> {
    let len = r.len_prefix(16)?;
    for _ in 0..len {
        let key = r.u64()?;
        let count = r.u64()?;
        counters.insert_untracked(key, count);
    }
    Ok(())
}
