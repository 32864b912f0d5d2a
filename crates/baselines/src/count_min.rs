//! The CountMin sketch [CM05].

use crate::{Scratch, LANE_BLOCK, PREFETCH_MIN_BYTES};
use fsc_counters::hashing::TabulationHash;
use fsc_counters::lanes;
use fsc_state::snapshot::TrackerState;
use fsc_state::{
    impl_queryable, FrequencyEstimator, Mergeable, Snapshot, SnapshotError, SnapshotReader,
    SnapshotWriter, StateTracker, StreamAlgorithm, TrackedMatrix,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stable checkpoint-header id of [`CountMin`].
const SNAPSHOT_ID: &str = "count_min";

/// A CountMin sketch with `depth` rows of `width` counters.
///
/// Estimates satisfy `f_i ≤ estimate(i) ≤ f_i + ε·m` with probability `1 − δ` for
/// `width = ⌈e/ε⌉`, `depth = ⌈ln(1/δ)⌉`.  Every update increments `depth` counters, so
/// the state-change count is `Θ(m)` (and the word-write count is `Θ(depth·m)`).
///
/// The `depth × width` counter table lives in one contiguous [`TrackedMatrix`], so an
/// update touches one allocation instead of chasing `depth` boxed rows (accounting is
/// cell-for-cell identical to the row-vector layout; see the matrix docs).
#[derive(Debug, Clone)]
pub struct CountMin {
    table: TrackedMatrix<u64>,
    hashes: Vec<TabulationHash>,
    width: usize,
    seed: u64,
    /// Lane width of the batch kernel (1 = scalar fallback); answers and accounting
    /// are bit-identical at every width, so this is purely a speed knob.
    lanes: usize,
    name: String,
    tracker: StateTracker,
    /// The batch kernel's flat probe cells, one block at a time.
    cells: Scratch<usize>,
    /// The batch kernel's wear addresses of those cells (filled only with wear on).
    addrs: Scratch<usize>,
}

impl CountMin {
    /// Creates a sketch with explicit dimensions.
    pub fn new(width: usize, depth: usize, seed: u64) -> Self {
        Self::with_tracker(&StateTracker::new(), width, depth, seed)
    }

    /// Creates a sketch attached to a caller-supplied tracker (e.g. an
    /// address-tracked one for wear analysis, or one per shard in sharded runs).
    pub fn with_tracker(tracker: &StateTracker, width: usize, depth: usize, seed: u64) -> Self {
        assert!(width >= 1 && depth >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let table = TrackedMatrix::filled(tracker, depth, width, 0u64);
        let hashes = (0..depth).map(|_| TabulationHash::new(&mut rng)).collect();
        Self {
            table,
            hashes,
            width,
            seed,
            lanes: lanes::DEFAULT_LANE_WIDTH,
            name: format!("CountMin({depth}x{width})"),
            tracker: tracker.clone(),
            cells: Scratch::default(),
            addrs: Scratch::default(),
        }
    }

    /// Selects the lane width of the batch kernel (`1` or `8`; `1` is the scalar
    /// fallback).  Every width produces bit-identical answers, `StateReport`s,
    /// and wear tables — the batch-law lane sweep pins this — so the choice only
    /// affects throughput.  Not serialized: a restored sketch uses the default.
    ///
    /// # Panics
    ///
    /// If `lanes` is not a supported width.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(
            lanes::is_supported_width(lanes),
            "unsupported lane width {lanes} (supported: {:?})",
            lanes::LANE_WIDTHS
        );
        self.lanes = lanes;
        self
    }

    /// Creates a sketch for additive error `ε·m` with failure probability `δ`.
    pub fn for_error(eps: f64, delta: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0);
        let width = (std::f64::consts::E / eps).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        Self::new(width, depth, seed)
    }

    /// Sketch width (counters per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sketch depth (number of rows).
    pub fn depth(&self) -> usize {
        self.table.rows()
    }
}

impl StreamAlgorithm for CountMin {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_item(&mut self, item: u64) {
        for (r, hash) in self.hashes.iter().enumerate() {
            let bucket = hash.hash_bucket(item, self.width);
            self.table.update(r, bucket, |c| c + 1);
        }
    }

    fn tracker(&self) -> &StateTracker {
        &self.tracker
    }

    /// Lane-packed blocked batch kernel (scalar at `lanes == 1`): the hash phase
    /// evaluates all row hashes for a whole block of items into a cell buffer using
    /// the lane evaluators of [`fsc_counters::lanes`], the block's probe cells are
    /// touched early with plain reads (software prefetch — see DESIGN §1.10), and
    /// the scatter phase then bumps the counters and charges the tracker per item
    /// exactly as the per-item path would.  A `+1` always changes a `u64` counter,
    /// so the bulk "changed writes" charge is exactly what the per-cell `update`
    /// calls would have recorded (the batch-law tests pin report, wear, and answer
    /// equality at every lane width).
    fn process_batch(&mut self, items: &[u64]) {
        match self.lanes {
            8 => self.process_batch_lanes::<8>(items),
            _ => self.process_batch_lanes::<1>(items),
        }
    }
}

impl CountMin {
    /// The monomorphized batch kernel behind [`StreamAlgorithm::process_batch`].
    ///
    /// `W = 1` runs the same block structure with scalar hashing — the bit-identical
    /// fallback — so there is exactly one accounting path to get right.  Per block:
    ///
    /// 1. **Hash phase** — evaluate all `depth` tabulation hashes for the block's
    ///    items with [`lanes::tabulation_hashes`] (`k·W` independent table loads in
    ///    flight instead of `k` dependent ones, where `k` is the number of
    ///    significant bytes of the OR of the block's keys: the tables of the bytes
    ///    every key leaves zero are a precomputed constant) and store the flat cell
    ///    index of every probe.
    /// 2. **Prefetch phase** — read every probe cell once, summing into a value fed
    ///    to [`std::hint::black_box`].  Ordinary loads, no intrinsics: they pull the
    ///    scattered counter lines into cache while staying invisible to tracking
    ///    (reads change no state; the tracker's logical read charge is recorded in
    ///    the scatter phase, unchanged).
    /// 3. **Scatter phase** — bump every probe counter via the untracked slice, then
    ///    charge the block's reads, epochs and changed writes in bulk — call-for-call
    ///    what the scalar per-item kernel charged.  Wear addresses are computed only
    ///    when the tracker keeps wear; nothing else reads them.
    ///
    /// The cell and address buffers live in the sketch ([`Scratch`]), so a batch
    /// allocates nothing after the first.
    fn process_batch_lanes<const W: usize>(&mut self, items: &[u64]) {
        let tracker = &self.tracker;
        let first = tracker.begin_epochs(items.len() as u64);
        let depth = self.table.rows();
        let width = self.width;
        let base = self.table.addr_of(0, 0);
        let elem_words = self.table.elem_words();
        let wear = tracker.tracks_wear();
        self.cells.resize(LANE_BLOCK * depth, 0);
        if wear {
            self.addrs.resize(LANE_BLOCK * depth, 0);
        }
        let cells: &mut [usize] = &mut self.cells;
        // Prefetch pays only when the counter table outgrows cache; at cache-resident
        // sizes the touch loop is pure overhead, so skip it (no observable effect —
        // the touched cells were about to be read by the scatter anyway).
        let prefetch = depth * width * std::mem::size_of::<u64>() > PREFETCH_MIN_BYTES;
        for (b, block) in items.chunks(LANE_BLOCK).enumerate() {
            // Hash phase, row-major: one row's tabulation tables stay cache-hot
            // across the whole block instead of being evicted by the next row's
            // tables after every lane group.
            let full = block.len() - block.len() % W;
            let bytes = lanes::significant_bytes(block.iter().fold(0, |or, &x| or | x));
            for (r, hash) in self.hashes.iter().enumerate() {
                for g in (0..full).step_by(W) {
                    let xs: [u64; W] = block[g..g + W].try_into().unwrap();
                    let hs = lanes::tabulation_hashes::<W>(hash, &xs, bytes);
                    let buckets = lanes::multiply_shift_buckets::<W>(&hs, width, 64);
                    for l in 0..W {
                        cells[(g + l) * depth + r] = r * width + buckets[l];
                    }
                }
                for (i, &item) in block.iter().enumerate().skip(full) {
                    cells[i * depth + r] = r * width + hash.hash_bucket(item, width);
                }
            }
            // Prefetch phase: touch every probe cell with a plain (untracked) read.
            let probes = block.len() * depth;
            let data = self.table.as_mut_slice_untracked();
            if prefetch {
                let mut touch = 0u64;
                for &cell in &cells[..probes] {
                    touch = touch.wrapping_add(data[cell]);
                }
                std::hint::black_box(touch);
            }
            // Scatter phase.  The accounting lands in two bulk calls that are
            // call-for-call equivalent to the per-item loop: reads are a global sum,
            // and `record_scatter_epochs` enters each item's epoch and charges its
            // `depth` changed writes (constant-time in the tracker's counters).
            for &cell in &cells[..probes] {
                data[cell] += 1;
            }
            let addrs: &[usize] = if wear {
                for (a, &cell) in self.addrs.iter_mut().zip(&cells[..probes]) {
                    *a = base + cell * elem_words;
                }
                &self.addrs[..probes]
            } else {
                &[]
            };
            tracker.record_reads(probes as u64);
            let epoch = first + (b * LANE_BLOCK) as u64;
            tracker.record_scatter_epochs(epoch, block.len() as u64, depth, addrs);
        }
    }
}

impl CountMin {
    fn assert_mergeable(&self, other: &Self) {
        assert!(
            self.width == other.width
                && self.table.rows() == other.table.rows()
                && self.seed == other.seed,
            "CountMin shards must share width, depth, and hash seed"
        );
    }
}

impl Mergeable for CountMin {
    /// Exact merge by counter addition: with identical dimensions and hash seed, the
    /// merged sketch is bit-for-bit the sketch of the concatenated stream.
    fn merge_from(&mut self, other: &Self) {
        self.assert_mergeable(other);
        // One accounting epoch for the whole merge; reads of the donor sketch are
        // charged to the receiver.
        self.tracker.begin_epoch();
        self.tracker.record_reads(self.table.len() as u64);
        for r in 0..self.table.rows() {
            for (c, &v) in other.table.row_untracked(r).iter().enumerate() {
                if v != 0 {
                    self.table.update(r, c, |x| x + v);
                }
            }
        }
    }

    /// The counter tables' sum copied straight into this sketch's table, untracked.
    fn assign_union(&mut self, shards: &[Self]) -> Result<(), SnapshotError> {
        for shard in shards {
            self.assert_mergeable(shard);
        }
        let tables = shards.iter().map(|s| s.table.iter_untracked().as_slice());
        crate::assign_sum(self.table.as_mut_slice_untracked(), tables);
        Ok(())
    }
}

impl_queryable!(CountMin: [frequency]);

impl Snapshot for CountMin {
    fn snapshot_id(&self) -> &'static str {
        SNAPSHOT_ID
    }

    /// Layout: tracker state, `width`, `depth`, hash `seed`, then the counter table in
    /// row-major order.  The hash functions are not serialized — they are a
    /// deterministic function of the seed and are re-derived on restore.
    fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SNAPSHOT_ID);
        self.tracker.export_state().write_to(&mut w);
        w.usize(self.width);
        w.usize(self.table.rows());
        w.u64(self.seed);
        for &v in self.table.iter_untracked() {
            w.u64(v);
        }
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, SNAPSHOT_ID)?;
        let state = TrackerState::read_from(&mut r)?;
        let width = r.usize()?;
        let depth = r.usize()?;
        let seed = r.u64()?;
        let plausible = width
            .checked_mul(depth)
            .is_some_and(|c| c >= 1 && r.remaining() >= c.saturating_mul(8));
        if !plausible {
            return Err(SnapshotError::Corrupt("count_min dimensions"));
        }
        let tracker = StateTracker::of_kind(state.kind);
        let mut alg = CountMin::with_tracker(&tracker, width, depth, seed);
        for cell in alg.table.as_mut_slice_untracked() {
            *cell = r.u64()?;
        }
        tracker.import_state(&state);
        r.finish()?;
        Ok(alg)
    }
}

impl FrequencyEstimator for CountMin {
    fn estimate(&self, item: u64) -> f64 {
        self.hashes
            .iter()
            .enumerate()
            .map(|(r, hash)| *self.table.peek(r, hash.hash_bucket(item, self.width)))
            .min()
            .unwrap_or(0) as f64
    }

    /// CountMin has no explicit key set; heavy-hitter extraction requires an external
    /// candidate set (the benchmark harness queries the exact top-k candidates).
    fn tracked_items(&self) -> Vec<u64> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_streamgen::zipf::zipf_stream;
    use fsc_streamgen::FrequencyVector;

    #[test]
    fn estimates_are_overestimates_within_the_bound() {
        let stream = zipf_stream(1 << 12, 20_000, 1.1, 3);
        let truth = FrequencyVector::from_stream(&stream);
        let mut cm = CountMin::for_error(0.01, 0.01, 7);
        cm.process_stream(&stream);
        for (item, f) in truth.top_k(50) {
            let est = cm.estimate(item);
            assert!(est + 1e-9 >= f as f64, "CountMin never underestimates");
            assert!(
                est <= f as f64 + 0.02 * stream.len() as f64,
                "item {item}: est {est}, true {f}"
            );
        }
    }

    #[test]
    fn dimensions_follow_the_standard_formulas() {
        let cm = CountMin::for_error(0.01, 0.05, 1);
        assert_eq!(cm.width(), 272);
        assert_eq!(cm.depth(), 3);
        assert_eq!(cm.space_words(), 272 * 3);
    }

    #[test]
    fn every_update_is_a_state_change() {
        let stream = zipf_stream(256, 2_000, 1.0, 9);
        let mut cm = CountMin::new(64, 4, 2);
        cm.process_stream(&stream);
        let r = cm.report();
        assert_eq!(r.state_changes, 2_000);
        assert_eq!(
            r.word_writes as usize,
            64 * 4 + 4 * 2_000,
            "init + depth per update"
        );
    }

    #[test]
    fn sharded_merge_equals_the_unsharded_sketch() {
        let stream = zipf_stream(1 << 10, 8_000, 1.1, 5);
        let (left, right) = stream.split_at(stream.len() / 3);
        let mut whole = CountMin::new(128, 4, 9);
        whole.process_stream(&stream);
        let mut a = CountMin::new(128, 4, 9);
        a.process_stream(left);
        let mut b = CountMin::new(128, 4, 9);
        b.process_stream(right);
        a.merge_from(&b);
        for item in 0..64u64 {
            assert_eq!(a.estimate(item), whole.estimate(item), "item {item}");
        }
    }

    #[test]
    #[should_panic(expected = "must share")]
    fn merging_incompatible_sketches_panics() {
        let mut a = CountMin::new(64, 4, 1);
        let b = CountMin::new(64, 4, 2);
        a.merge_from(&b);
    }

    #[test]
    fn unseen_items_can_still_collide_but_rarely() {
        let stream = zipf_stream(1 << 10, 5_000, 1.2, 4);
        let mut cm = CountMin::for_error(0.005, 0.01, 11);
        cm.process_stream(&stream);
        // An item far outside the universe should have a small estimate.
        assert!(cm.estimate(u64::MAX - 1) <= 0.01 * stream.len() as f64);
        assert!(cm.tracked_items().is_empty());
    }
}
