//! The CountSketch [CCF04].

use crate::{Scratch, LANE_BLOCK, PREFETCH_MIN_BYTES};
use fsc_counters::hashing::{multiply_shift_bucket, FoldedItem, FourWise, PolyHash};
use fsc_counters::lanes;
use fsc_state::snapshot::TrackerState;
use fsc_state::{
    impl_queryable, FrequencyEstimator, Mergeable, Snapshot, SnapshotError, SnapshotReader,
    SnapshotWriter, StateTracker, StreamAlgorithm, TrackedMatrix,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stable checkpoint-header id of [`CountSketch`].
const SNAPSHOT_ID: &str = "count_sketch";

/// A CountSketch with `depth` rows of `width` signed counters.
///
/// Each row hashes the item to a bucket and adds a 4-wise-independent sign; the
/// estimate is the median over rows of the signed bucket values.  Estimates satisfy
/// `|estimate(i) − f_i| ≤ ε·‖f‖_2` for `width = O(1/ε²)`, making it the classic `L_2`
/// heavy-hitters sketch — the row of Table 1 directly above the paper's contribution.
/// Like CountMin it writes `depth` counters per update: `Θ(m)` state changes.
///
/// Counters live in one contiguous [`TrackedMatrix`] (one allocation for the whole
/// sketch) with accounting identical to the former per-row vectors.
#[derive(Debug, Clone)]
pub struct CountSketch {
    table: TrackedMatrix<i64>,
    bucket_hashes: Vec<PolyHash>,
    /// 4-wise sign functions in power form (same draws as the former `Vec<PolyHash>`,
    /// converted for the folded fast path; hash values unchanged).
    sign_hashes: Vec<FourWise>,
    width: usize,
    seed: u64,
    /// Lane width of the batch kernel (1 = scalar fallback); answers and accounting
    /// are bit-identical at every width, so this is purely a speed knob.
    lanes: usize,
    name: String,
    tracker: StateTracker,
    /// The batch kernel's per-block buffers: folded items, flat probe cells, their
    /// signs, and their wear addresses (filled only with wear on).
    folded: Scratch<FoldedItem>,
    cells: Scratch<usize>,
    signs: Scratch<i64>,
    addrs: Scratch<usize>,
}

impl CountSketch {
    /// Creates a sketch with explicit dimensions.
    pub fn new(width: usize, depth: usize, seed: u64) -> Self {
        Self::with_tracker(&StateTracker::new(), width, depth, seed)
    }

    /// Creates a sketch attached to a caller-supplied tracker (e.g. an
    /// address-tracked one for wear analysis, or one per shard in sharded runs).
    pub fn with_tracker(tracker: &StateTracker, width: usize, depth: usize, seed: u64) -> Self {
        assert!(width >= 1 && depth >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let table = TrackedMatrix::filled(tracker, depth, width, 0i64);
        let bucket_hashes = (0..depth).map(|_| PolyHash::two_wise(&mut rng)).collect();
        let sign_hashes = (0..depth)
            .map(|_| FourWise::from_poly(&PolyHash::four_wise(&mut rng)))
            .collect();
        Self {
            table,
            bucket_hashes,
            sign_hashes,
            width,
            seed,
            lanes: lanes::DEFAULT_LANE_WIDTH,
            name: format!("CountSketch({depth}x{width})"),
            tracker: tracker.clone(),
            folded: Scratch::default(),
            cells: Scratch::default(),
            signs: Scratch::default(),
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

    /// Creates a sketch with `L_2` error `ε·‖f‖_2` and failure probability `δ`.
    pub fn for_error(eps: f64, delta: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0);
        let width = (3.0 / (eps * eps)).ceil() as usize;
        let depth = (4.0 * (1.0 / delta).ln()).ceil().max(1.0) as usize | 1;
        Self::new(width, depth, seed)
    }

    /// Sketch width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sketch depth.
    pub fn depth(&self) -> usize {
        self.table.rows()
    }
}

impl StreamAlgorithm for CountSketch {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_item(&mut self, item: u64) {
        let folded = FoldedItem::new(item);
        for (r, (bucket_hash, sign_hash)) in
            self.bucket_hashes.iter().zip(&self.sign_hashes).enumerate()
        {
            let bucket =
                multiply_shift_bucket(bucket_hash.hash_u64_folded(folded.x), self.width, 61);
            let sign = sign_hash.sign_folded(&folded);
            self.table.update(r, bucket, |c| c + sign);
        }
    }

    fn tracker(&self) -> &StateTracker {
        &self.tracker
    }

    /// Lane-packed blocked batch kernel (see [`CountMin`](crate::CountMin) for the
    /// shape): the block's items are folded once, all row buckets and signs are
    /// evaluated lane-packed into block buffers, the probe cells are touched early
    /// (gated software prefetch), and the scatter phase bumps the signed counters
    /// and charges the tracker in bulk.  A ±1 increment always changes an `i64`
    /// cell, so the bulk charge equals the per-cell accounting exactly (the
    /// batch-law tests pin report, wear, and answer equality at every lane width).
    fn process_batch(&mut self, items: &[u64]) {
        match self.lanes {
            8 => self.process_batch_lanes::<8>(items),
            _ => self.process_batch_lanes::<1>(items),
        }
    }
}

impl CountSketch {
    /// The monomorphized batch kernel behind [`StreamAlgorithm::process_batch`]
    /// (`W = 1` is the bit-identical scalar fallback running the same block
    /// structure).  Phases per block: fold every item once; per row, evaluate the
    /// 2-wise bucket polynomial ([`lanes::poly_hash_folded`]) and the 4-wise
    /// power-form signs ([`lanes::four_wise_signs`]) over lane groups into cell and
    /// sign buffers; optionally touch the probe cells early (untracked reads, see
    /// DESIGN §1.10); then scatter the signed bumps and charge reads plus
    /// per-item epochs/changed writes in two bulk tracker calls, computing wear
    /// addresses only when the tracker keeps wear.  The buffers live in the sketch
    /// ([`Scratch`]), so a batch allocates nothing after the first.
    fn process_batch_lanes<const W: usize>(&mut self, items: &[u64]) {
        let tracker = &self.tracker;
        let first = tracker.begin_epochs(items.len() as u64);
        let depth = self.table.rows();
        let width = self.width;
        let base = self.table.addr_of(0, 0);
        let elem_words = self.table.elem_words();
        let wear = tracker.tracks_wear();
        let prefetch = depth * width * std::mem::size_of::<i64>() > PREFETCH_MIN_BYTES;
        self.cells.resize(LANE_BLOCK * depth, 0);
        self.signs.resize(LANE_BLOCK * depth, 0);
        if wear {
            self.addrs.resize(LANE_BLOCK * depth, 0);
        }
        let folded: &mut Vec<FoldedItem> = &mut self.folded;
        let cells: &mut [usize] = &mut self.cells;
        let signs: &mut [i64] = &mut self.signs;
        for (b, block) in items.chunks(LANE_BLOCK).enumerate() {
            // Fold phase: each item's x, x², x³ residues, once per block.
            let full = block.len() - block.len() % W;
            folded.clear();
            for g in (0..full).step_by(W) {
                let xs: [u64; W] = block[g..g + W].try_into().unwrap();
                folded.extend(lanes::fold_items::<W>(&xs));
            }
            folded.extend(block[full..].iter().map(|&x| FoldedItem::new(x)));
            // Hash phase, row-major (one row's hash state hot across the block).
            for (r, (bucket_hash, sign_hash)) in
                self.bucket_hashes.iter().zip(&self.sign_hashes).enumerate()
            {
                let coefficients = bucket_hash.coefficients();
                let sign_coefficients = sign_hash.coefficients();
                for g in (0..full).step_by(W) {
                    let f: &[FoldedItem; W] = folded[g..g + W].try_into().unwrap();
                    let xs: [u64; W] = std::array::from_fn(|l| f[l].x);
                    let hs = lanes::poly_hash_folded::<W>(coefficients, &xs);
                    let buckets = lanes::multiply_shift_buckets::<W>(&hs, width, 61);
                    let ss = lanes::four_wise_signs::<W>(&sign_coefficients, f);
                    for l in 0..W {
                        cells[(g + l) * depth + r] = r * width + buckets[l];
                        signs[(g + l) * depth + r] = ss[l];
                    }
                }
                for (i, f) in folded.iter().enumerate().skip(full) {
                    let bucket = multiply_shift_bucket(bucket_hash.hash_u64_folded(f.x), width, 61);
                    cells[i * depth + r] = r * width + bucket;
                    signs[i * depth + r] = sign_hash.sign_folded(f);
                }
            }
            // Prefetch phase: touch every probe cell with a plain (untracked) read.
            let data = self.table.as_mut_slice_untracked();
            let probes = block.len() * depth;
            if prefetch {
                let mut touch = 0i64;
                for &cell in &cells[..probes] {
                    touch = touch.wrapping_add(data[cell]);
                }
                std::hint::black_box(touch);
            }
            // Scatter phase with bulk accounting (see CountMin for the argument).
            for (&cell, &sign) in cells[..probes].iter().zip(&signs[..probes]) {
                data[cell] += sign;
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

impl CountSketch {
    fn assert_mergeable(&self, other: &Self) {
        assert!(
            self.width == other.width
                && self.table.rows() == other.table.rows()
                && self.seed == other.seed,
            "CountSketch shards must share width, depth, and hash seed"
        );
    }
}

impl Mergeable for CountSketch {
    /// Exact merge by signed-counter addition: with identical dimensions and hash seed,
    /// the merged sketch equals the sketch of the concatenated stream.
    fn merge_from(&mut self, other: &Self) {
        self.assert_mergeable(other);
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

    /// The signed tables' sum copied straight into this sketch's table, untracked.
    fn assign_union(&mut self, shards: &[Self]) -> Result<(), SnapshotError> {
        for shard in shards {
            self.assert_mergeable(shard);
        }
        let tables = shards.iter().map(|s| s.table.iter_untracked().as_slice());
        crate::assign_sum(self.table.as_mut_slice_untracked(), tables);
        Ok(())
    }
}

impl_queryable!(CountSketch: [frequency]);

impl Snapshot for CountSketch {
    fn snapshot_id(&self) -> &'static str {
        SNAPSHOT_ID
    }

    /// Layout mirrors [`CountMin`](crate::CountMin): tracker state, dimensions, hash
    /// seed, then the signed counter table (hash functions re-derive from the seed).
    fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SNAPSHOT_ID);
        self.tracker.export_state().write_to(&mut w);
        w.usize(self.width);
        w.usize(self.table.rows());
        w.u64(self.seed);
        for &v in self.table.iter_untracked() {
            w.i64(v);
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
            return Err(SnapshotError::Corrupt("count_sketch dimensions"));
        }
        let tracker = StateTracker::of_kind(state.kind);
        let mut alg = CountSketch::with_tracker(&tracker, width, depth, seed);
        for cell in alg.table.as_mut_slice_untracked() {
            *cell = r.i64()?;
        }
        tracker.import_state(&state);
        r.finish()?;
        Ok(alg)
    }
}

impl FrequencyEstimator for CountSketch {
    fn estimate(&self, item: u64) -> f64 {
        let mut estimates: Vec<f64> = self
            .bucket_hashes
            .iter()
            .zip(&self.sign_hashes)
            .enumerate()
            .map(|(r, (bucket_hash, sign_hash))| {
                let bucket = bucket_hash.hash_bucket(item, self.width);
                (sign_hash.sign(item) * self.table.peek(r, bucket)) as f64
            })
            .collect();
        estimates.sort_by(f64::total_cmp);
        estimates[estimates.len() / 2]
    }

    /// CountSketch has no explicit key set (see [`CountMin`](crate::CountMin)).
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
    fn l2_error_bound_holds_for_top_items() {
        let stream = zipf_stream(1 << 12, 30_000, 1.1, 5);
        let truth = FrequencyVector::from_stream(&stream);
        let eps = 0.05;
        let mut cs = CountSketch::for_error(eps, 0.02, 3);
        cs.process_stream(&stream);
        let l2 = truth.lp(2.0);
        let mut violations = 0;
        for (item, f) in truth.top_k(40) {
            if (cs.estimate(item) - f as f64).abs() > 2.0 * eps * l2 {
                violations += 1;
            }
        }
        assert!(
            violations <= 2,
            "{violations} of 40 items violated the L2 bound"
        );
    }

    #[test]
    fn dimensions_and_space() {
        let cs = CountSketch::for_error(0.1, 0.05, 1);
        assert_eq!(cs.width(), 300);
        assert!(cs.depth() % 2 == 1);
        assert_eq!(cs.space_words(), cs.width() * cs.depth());
    }

    #[test]
    fn state_changes_are_linear() {
        let stream = zipf_stream(512, 3_000, 1.0, 2);
        let mut cs = CountSketch::new(128, 5, 4);
        cs.process_stream(&stream);
        assert_eq!(cs.report().state_changes, 3_000);
    }

    #[test]
    fn sharded_merge_equals_the_unsharded_sketch() {
        let stream = zipf_stream(1 << 10, 9_000, 1.2, 8);
        let (left, right) = stream.split_at(2 * stream.len() / 5);
        let mut whole = CountSketch::new(256, 5, 21);
        whole.process_stream(&stream);
        let mut a = CountSketch::new(256, 5, 21);
        a.process_stream(left);
        let mut b = CountSketch::new(256, 5, 21);
        b.process_stream(right);
        a.merge_from(&b);
        for item in 0..64u64 {
            assert_eq!(a.estimate(item), whole.estimate(item), "item {item}");
        }
    }

    #[test]
    fn signs_keep_light_items_near_zero() {
        let stream = zipf_stream(1 << 12, 20_000, 1.3, 6);
        let mut cs = CountSketch::for_error(0.05, 0.02, 9);
        cs.process_stream(&stream);
        // Items that never appeared should typically have small (possibly negative)
        // estimates; individual queries can be unlucky, so check the median over many.
        let mut unseen: Vec<f64> = (0..50u64)
            .map(|k| cs.estimate(u64::MAX - k).abs())
            .collect();
        unseen.sort_by(f64::total_cmp);
        let median = unseen[unseen.len() / 2];
        let l2 = FrequencyVector::from_stream(&stream).lp(2.0);
        assert!(
            median <= 0.2 * l2,
            "median estimate {median} too large vs l2 {l2}"
        );
    }
}
