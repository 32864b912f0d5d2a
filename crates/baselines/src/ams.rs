//! The AMS (Alon-Matias-Szegedy) F₂ sketch [AMS99].

use fsc_counters::fastmap::{fast_map, FastMap};
use fsc_counters::hashing::{FoldedItem, FourWise, PolyHash};
use fsc_counters::lanes;
use fsc_state::snapshot::TrackerState;
use fsc_state::{
    impl_queryable, Mergeable, MomentEstimator, Snapshot, SnapshotError, SnapshotReader,
    SnapshotWriter, StateTracker, StreamAlgorithm, TrackedMatrix,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stable checkpoint-header id of [`AmsSketch`].
const SNAPSHOT_ID: &str = "ams";

/// Memory budget of the per-batch sign-pattern memo in [`AmsSketch`]'s batch kernel:
/// packed minus-sign bit vectors are cached for at most this many bytes' worth of
/// distinct items per batch (an untracked performance aid, like the reservoir mirror
/// of `SampleAndHold` — the tracked space of the sketch itself is unchanged).
const SIGN_ARENA_BYTES: usize = 2 << 20;

/// The tug-of-war sketch: `groups × per_group` signed counters `Z_j = Σ_i s_j(i)·f_i`
/// with 4-wise independent signs; `F_2` is estimated as the median over groups of the
/// mean of `Z_j²` within a group.
///
/// Every update adds ±1 to every counter, so the state-change count is `Θ(m)` and the
/// word-write count is `Θ(k·m)` — the canonical example of a space-efficient but
/// write-heavy linear sketch (Section 1.4 makes the same point about precision
/// sampling).  Because the per-update work is `Θ(k)` *sign evaluations*, this is the
/// compute-heaviest algorithm in the repository, and the one the specialized
/// [`StreamAlgorithm::process_batch`] kernel speeds up the most: the item is folded
/// once (`x, x², x³ mod 2^61−1`), the signs are evaluated in power form
/// ([`FourWise`], three independent multiplies instead of a serial Horner chain) while
/// walking the contiguous counter row, and the tracker is charged once per update via
/// the bulk accounting API instead of twice per counter.
#[derive(Debug, Clone)]
pub struct AmsSketch {
    /// `groups × per_group` signed counters in one contiguous [`TrackedMatrix`]
    /// (row = group), with accounting identical to the former flat vector.
    counters: TrackedMatrix<i64>,
    /// One 4-wise sign function per counter, in power form, stored flat in counter
    /// order (same coefficient draws as the former `Vec<PolyHash>`; see the
    /// construction).
    signs: Vec<FourWise>,
    groups: usize,
    per_group: usize,
    seed: u64,
    /// Lane width of the sign-evaluation loops in the batch kernel (1 = scalar
    /// fallback); bit-identical at every width, purely a speed knob.
    lanes: usize,
    name: String,
    tracker: StateTracker,
}

impl AmsSketch {
    /// Creates a sketch with `groups` independent groups of `per_group` counters each.
    pub fn new(groups: usize, per_group: usize, seed: u64) -> Self {
        Self::with_tracker(&StateTracker::new(), groups, per_group, seed)
    }

    /// Creates a sketch attached to a caller-supplied tracker (e.g. an
    /// address-tracked one for wear analysis, or one per shard in sharded runs).
    pub fn with_tracker(
        tracker: &StateTracker,
        groups: usize,
        per_group: usize,
        seed: u64,
    ) -> Self {
        assert!(groups >= 1 && per_group >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let total = groups * per_group;
        let counters = TrackedMatrix::filled(tracker, groups, per_group, 0i64);
        // Drawn as 4-wise PolyHash functions (same rng stream as always recorded) and
        // converted to power form for the kernels: hash values are unchanged.
        let signs = (0..total)
            .map(|_| FourWise::from_poly(&PolyHash::four_wise(&mut rng)))
            .collect();
        Self {
            counters,
            signs,
            groups,
            per_group,
            seed,
            lanes: lanes::DEFAULT_LANE_WIDTH,
            name: format!("AMS({groups}x{per_group})"),
            tracker: tracker.clone(),
        }
    }

    /// Selects the lane width of the batch kernel's sign-evaluation loops (`1` or
    /// `8`; `1` is the scalar fallback).  Every width produces bit-identical
    /// answers, `StateReport`s, and wear tables — the batch-law lane sweep pins this
    /// — so the choice only affects throughput.  Not serialized: a restored sketch
    /// uses the default.
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

    /// Creates a sketch achieving relative error `ε` with failure probability `δ`
    /// (`per_group = ⌈8/ε²⌉` counters averaged, `groups = Θ(log 1/δ)` medians).
    pub fn for_error(eps: f64, delta: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0);
        let per_group = (8.0 / (eps * eps)).ceil() as usize;
        let groups = ((4.0 * (1.0 / delta).ln()).ceil().max(1.0) as usize) | 1;
        Self::new(groups, per_group, seed)
    }

    /// Total number of counters.
    pub fn counters(&self) -> usize {
        self.groups * self.per_group
    }
}

impl StreamAlgorithm for AmsSketch {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_item(&mut self, item: u64) {
        let folded = FoldedItem::new(item);
        let per_group = self.per_group;
        for (j, sign_hash) in self.signs.iter().enumerate() {
            let sign = sign_hash.sign_folded(&folded);
            self.counters
                .update(j / per_group, j % per_group, |c| c + sign);
        }
    }

    fn tracker(&self) -> &StateTracker {
        &self.tracker
    }

    /// The blocked batch kernel, in two layers.
    ///
    /// **Compute layer** — the whole per-item cost of an AMS update is `k` 4-wise
    /// sign evaluations, and the sign vector is a *pure function of the item*: the
    /// kernel therefore memoizes, per batch, the packed minus-sign bit pattern of
    /// each distinct item (bounded arena; see `SIGN_ARENA_BYTES`).  The first
    /// occurrence evaluates all `k` signs once — item folded once, power-form
    /// [`FourWise`] evaluation, walking the coefficient array in counter order —
    /// and every further occurrence replays the pattern with one bit-unpack and add
    /// per counter, no modular arithmetic at all.  On repeating streams (Zipf,
    /// bounded universes, netflow traces) this is where the order-of-magnitude
    /// speedup comes from; on an all-distinct stream it degrades gracefully to the
    /// folded evaluation per item.
    ///
    /// **Accounting layer** — per update, the per-item path would charge one element
    /// read and one changed write per counter at consecutive tracked addresses (a ±1
    /// increment always changes an `i64` cell), which is exactly `record_reads(k)`
    /// plus `record_changed_run(base, k)` inside that update's epoch.  The
    /// batch-law tests pin report, wear, and answer equality with the per-item path.
    fn process_batch(&mut self, items: &[u64]) {
        match self.lanes {
            8 => self.process_batch_lanes::<8>(items),
            _ => self.process_batch_lanes::<1>(items),
        }
    }
}

impl AmsSketch {
    /// The monomorphized batch kernel behind [`StreamAlgorithm::process_batch`]
    /// (`W = 1` is the bit-identical scalar fallback).  Lanes enter only the two
    /// sign-evaluation loops — the pattern build and the arena-full fallback — via
    /// [`lanes::four_wise_hashes_many`], which evaluates `W` *different* sign
    /// functions at the one folded item (the transposed shape: AMS has one item and
    /// a row of hash functions, where CountMin has one hash and a row of items).
    /// Bit-packing order and counter walk order are unchanged, so patterns, sums,
    /// and accounting are bit-identical at every width.  No prefetch: the counter
    /// walk is sequential, which the hardware prefetcher already covers.
    fn process_batch_lanes<const W: usize>(&mut self, items: &[u64]) {
        let tracker = self.tracker.clone();
        let first = tracker.begin_epochs(items.len() as u64);
        let total = self.counters.len();
        let base = self.counters.addr_of(0, 0);
        let words = total.div_ceil(64);
        let max_patterns = (SIGN_ARENA_BYTES / (words * 8)).clamp(1, 1 << 20);
        let lane_chunks = self.signs.chunks_exact(W);
        let tail_start = total - lane_chunks.remainder().len();
        let mut index: FastMap<u64, u32> = fast_map();
        let mut patterns: Vec<u64> = Vec::new();
        for (i, &item) in items.iter().enumerate() {
            tracker.enter_epoch(first + i as u64);
            let pattern = match index.get(&item) {
                Some(&idx) => Some(idx as usize),
                None if index.len() < max_patterns => {
                    let idx = index.len();
                    let folded = FoldedItem::new(item);
                    let mut word = 0u64;
                    let mut bits = 0;
                    let mut push_bit = |bit: u64| {
                        word |= bit << bits;
                        bits += 1;
                        if bits == 64 {
                            patterns.push(word);
                            word = 0;
                            bits = 0;
                        }
                    };
                    for chunk in self.signs.chunks_exact(W) {
                        let hs = lanes::four_wise_hashes_many::<W>(chunk, &folded);
                        for &h in &hs {
                            push_bit(h & 1);
                        }
                    }
                    for sign_hash in &self.signs[tail_start..] {
                        push_bit(sign_hash.hash_folded(&folded) & 1);
                    }
                    if bits > 0 {
                        patterns.push(word);
                    }
                    index.insert(item, idx as u32);
                    Some(idx)
                }
                None => None, // arena full: evaluate directly below
            };
            let data = self.counters.as_mut_slice_untracked();
            match pattern {
                Some(idx) => {
                    for (wi, &word) in patterns[idx * words..(idx + 1) * words].iter().enumerate() {
                        let start = wi * 64;
                        let chunk = &mut data[start..(start + 64).min(total)];
                        for (k, cell) in chunk.iter_mut().enumerate() {
                            *cell += 1 - 2 * ((word >> k) & 1) as i64;
                        }
                    }
                }
                None => {
                    let folded = FoldedItem::new(item);
                    for (cells, hashes) in data.chunks_exact_mut(W).zip(self.signs.chunks_exact(W))
                    {
                        let hs = lanes::four_wise_hashes_many::<W>(hashes, &folded);
                        for (cell, &h) in cells.iter_mut().zip(&hs) {
                            *cell += 1 - 2 * (h & 1) as i64;
                        }
                    }
                    for (cell, sign_hash) in
                        data[tail_start..].iter_mut().zip(&self.signs[tail_start..])
                    {
                        *cell += sign_hash.sign_folded(&folded);
                    }
                }
            }
            tracker.record_reads(total as u64);
            tracker.record_changed_run(Some(base), total as u64);
        }
    }
}

impl AmsSketch {
    fn assert_mergeable(&self, other: &Self) {
        assert!(
            self.groups == other.groups
                && self.per_group == other.per_group
                && self.seed == other.seed,
            "AMS shards must share dimensions and sign seed"
        );
    }
}

impl Mergeable for AmsSketch {
    /// Exact merge: `Z_j = Σ_i s_j(i)·f_i` is linear in `f`, so adding counters yields
    /// the sketch of the concatenated stream (identical dimensions and seed required).
    fn merge_from(&mut self, other: &Self) {
        self.assert_mergeable(other);
        self.tracker.begin_epoch();
        self.tracker.record_reads(other.counters.len() as u64);
        let per_group = self.per_group;
        for (j, &v) in other.counters.iter_untracked().enumerate() {
            if v != 0 {
                self.counters
                    .update(j / per_group, j % per_group, |c| c + v);
            }
        }
    }

    /// The counters' sum copied straight into this sketch's counters, untracked.
    fn assign_union(&mut self, shards: &[Self]) -> Result<(), SnapshotError> {
        for shard in shards {
            self.assert_mergeable(shard);
        }
        let counters = shards
            .iter()
            .map(|s| s.counters.iter_untracked().as_slice());
        crate::assign_sum(self.counters.as_mut_slice_untracked(), counters);
        Ok(())
    }
}

impl_queryable!(AmsSketch: [moment]);

impl Snapshot for AmsSketch {
    fn snapshot_id(&self) -> &'static str {
        SNAPSHOT_ID
    }

    /// Layout: tracker state, `groups`, `per_group`, sign seed, then the counters in
    /// counter order (sign functions re-derive from the seed).
    fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SNAPSHOT_ID);
        self.tracker.export_state().write_to(&mut w);
        w.usize(self.groups);
        w.usize(self.per_group);
        w.u64(self.seed);
        for &v in self.counters.iter_untracked() {
            w.i64(v);
        }
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, SNAPSHOT_ID)?;
        let state = TrackerState::read_from(&mut r)?;
        let groups = r.usize()?;
        let per_group = r.usize()?;
        let seed = r.u64()?;
        let plausible = groups
            .checked_mul(per_group)
            .is_some_and(|c| c >= 1 && r.remaining() >= c.saturating_mul(8));
        if !plausible {
            return Err(SnapshotError::Corrupt("ams dimensions"));
        }
        let tracker = StateTracker::of_kind(state.kind);
        let mut alg = AmsSketch::with_tracker(&tracker, groups, per_group, seed);
        for cell in alg.counters.as_mut_slice_untracked() {
            *cell = r.i64()?;
        }
        tracker.import_state(&state);
        r.finish()?;
        Ok(alg)
    }
}

impl MomentEstimator for AmsSketch {
    fn p(&self) -> f64 {
        2.0
    }

    fn estimate_moment(&self) -> f64 {
        let mut group_means = Vec::with_capacity(self.groups);
        for g in 0..self.groups {
            let mean: f64 = (0..self.per_group)
                .map(|j| {
                    let z = *self.counters.peek(g, j) as f64;
                    z * z
                })
                .sum::<f64>()
                / self.per_group as f64;
            group_means.push(mean);
        }
        group_means.sort_by(f64::total_cmp);
        group_means[group_means.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_streamgen::zipf::zipf_stream;
    use fsc_streamgen::FrequencyVector;

    #[test]
    fn f2_estimate_is_within_relative_error() {
        let stream = zipf_stream(1 << 10, 20_000, 1.1, 7);
        let truth = FrequencyVector::from_stream(&stream).fp(2.0);
        let mut ams = AmsSketch::for_error(0.1, 0.05, 3);
        ams.process_stream(&stream);
        let est = ams.estimate_moment();
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.2, "relative error {rel} (est {est}, truth {truth})");
        assert_eq!(ams.p(), 2.0);
    }

    #[test]
    fn write_count_is_linear_in_stream_and_counters() {
        let stream = zipf_stream(256, 1_000, 1.0, 1);
        let mut ams = AmsSketch::new(3, 16, 5);
        ams.process_stream(&stream);
        let r = ams.report();
        assert_eq!(r.state_changes, 1_000);
        // init (48) + 48 sign updates per stream element, minus the rare ±1 collisions
        // that cancel (update() skips writes when the value is unchanged, which cannot
        // happen for ±1 increments).
        assert_eq!(r.word_writes as usize, 48 + 48 * 1_000);
    }

    #[test]
    fn space_matches_counter_budget() {
        let ams = AmsSketch::for_error(0.2, 0.1, 2);
        assert_eq!(ams.space_words(), ams.counters());
        // per_group = 8/0.04 = 200, groups = odd(ceil(4·ln 10)) = 11.
        assert_eq!(ams.counters(), 200 * 11);
    }

    #[test]
    fn sharded_merge_equals_the_unsharded_sketch() {
        let stream = zipf_stream(1 << 10, 6_000, 1.0, 12);
        let (left, right) = stream.split_at(stream.len() / 2);
        let mut whole = AmsSketch::new(5, 64, 33);
        whole.process_stream(&stream);
        let mut a = AmsSketch::new(5, 64, 33);
        a.process_stream(left);
        let mut b = AmsSketch::new(5, 64, 33);
        b.process_stream(right);
        a.merge_from(&b);
        assert_eq!(a.estimate_moment(), whole.estimate_moment());
    }

    #[test]
    fn permutation_stream_has_f2_equal_to_length() {
        let stream: Vec<u64> = (0..4096).collect();
        let mut ams = AmsSketch::for_error(0.1, 0.1, 11);
        ams.process_stream(&stream);
        let rel = (ams.estimate_moment() - 4096.0).abs() / 4096.0;
        assert!(rel < 0.25, "relative error {rel}");
    }
}
