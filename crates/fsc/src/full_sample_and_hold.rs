//! `FullSampleAndHold` — Algorithm 2 of the paper.
//!
//! `SampleAndHold` (Algorithm 1) needs the moment assumption `F_p = Õ_ε(n)`.
//! Algorithm 2 removes it: it runs `R × Y` copies of `SampleAndHold`, where copy
//! `(r, x)` processes the nested substream `J^{(r)}_x ⊆ [m]` obtained by keeping each
//! *stream position* independently with probability `min(1, 2^{1−x})`.  For every item,
//! some level `x` has a substream whose moment is small enough for Algorithm 1 to work,
//! and because `SampleAndHold` never overestimates, the per-item estimates from the
//! different levels (rescaled by the inverse sampling rate) can simply be combined by a
//! maximum (Section 1.3, "Removing moment assumptions").
//!
//! Practical deviation (documented in `DESIGN.md`): a level's rescaled estimate only
//! participates in the maximum once its raw (pre-rescaling) median count reaches a small
//! floor (`MIN_LEVEL_COUNT`), which suppresses the variance of multiplying a count of
//! one or two by a large factor; level `x = 0` (the full stream) always participates.

use fsc_counters::hashing::UnitLevels;
use fsc_state::snapshot::TrackerState;
use fsc_state::{
    impl_queryable, FrequencyEstimator, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
    StateTracker, StreamAlgorithm,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::params::Params;
use crate::sample_and_hold::{process_batch_leveled, Ledger, SampleAndHold, BATCH_BLOCK};

/// Stable checkpoint-header id of [`FullSampleAndHold`].
const SNAPSHOT_ID: &str = "full_sample_and_hold";

/// Minimum raw median count a subsampled level must reach before its rescaled estimate
/// is trusted (level 0 is always trusted).
const MIN_LEVEL_COUNT: f64 = 4.0;

/// Algorithm 2: `R` repetitions × `Y` nested stream-subsampling levels of Algorithm 1.
#[derive(Debug)]
pub struct FullSampleAndHold {
    params: Params,
    tracker: StateTracker,
    rng: StdRng,
    /// `instances[r][x]` processes the substream kept with probability `2^{-x}`.
    instances: Vec<Vec<SampleAndHold>>,
    levels: usize,
    /// Precomputed cutoffs turning a uniform draw into its deepest nested level —
    /// bit-identical to the former per-update `⌊−log2(u)⌋` (see [`UnitLevels`]).
    level_cutoffs: UnitLevels,
    /// Reusable per-block level buffer for the batch kernel, allocated once here at
    /// construction instead of per `process_batch` call.
    level_scratch: Vec<u16>,
    /// The batch kernel's per-block accounting, reused across calls.
    ledger: Ledger,
    name: String,
}

impl FullSampleAndHold {
    /// Creates an instance sharing `tracker` with an enclosing algorithm.
    pub fn new(params: &Params, tracker: &StateTracker, seed: u64) -> Self {
        let levels = params.stream_levels();
        let reps = params.reps;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut instances = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut row = Vec::with_capacity(levels);
            for x in 0..levels {
                let hint = (params.stream_len_hint >> x).max(1);
                row.push(SampleAndHold::new(params, hint, tracker, rng.gen()));
            }
            instances.push(row);
        }
        Self {
            name: format!(
                "FullSampleAndHold(p={}, eps={}, R={}, Y={levels})",
                params.p, params.eps, reps
            ),
            params: params.clone(),
            tracker: tracker.clone(),
            rng,
            instances,
            levels,
            level_cutoffs: UnitLevels::new(levels - 1),
            level_scratch: Vec::with_capacity(BATCH_BLOCK * reps),
            ledger: Ledger::default(),
        }
    }

    /// Creates a standalone instance with its own tracker (of the kind selected by
    /// [`Params::tracker`]).
    pub fn standalone(params: &Params) -> Self {
        let tracker = params.make_tracker();
        let seed = params.seed;
        Self::new(params, &tracker, seed)
    }

    /// Number of stream-subsampling levels `Y`.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Number of repetitions `R`.
    pub fn reps(&self) -> usize {
        self.instances.len()
    }

    /// Held counters dropped by maintenance across all copies since this
    /// instance was built or restored (untracked; tests/reporting).
    pub fn maintenance_drops(&self) -> u64 {
        self.instances
            .iter()
            .flatten()
            .map(SampleAndHold::maintenance_drops)
            .sum()
    }

    /// Serializes the post-construction state: the ensemble's own rng plus every
    /// copy's dynamic state, in `(repetition, level)` order.  Structure (level count,
    /// per-copy sizing) re-derives from the parameters on restore.
    pub(crate) fn write_dynamic_state(&self, w: &mut SnapshotWriter) {
        for word in self.rng.state() {
            w.u64(word);
        }
        for row in &self.instances {
            for inst in row {
                inst.write_dynamic_state(w);
            }
        }
    }

    /// Restores the state serialized by [`FullSampleAndHold::write_dynamic_state`]
    /// into a freshly constructed ensemble (same parameters and construction seed, so
    /// the copies' tracked containers sit at the same addresses).
    pub(crate) fn read_dynamic_state(
        &mut self,
        r: &mut SnapshotReader<'_>,
    ) -> Result<(), SnapshotError> {
        self.rng = StdRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
        for row in &mut self.instances {
            for inst in row {
                inst.read_dynamic_state(r)?;
            }
        }
        Ok(())
    }

    /// Median estimate across repetitions of the raw (unrescaled) count at level `x`.
    fn level_median(&self, item: u64, x: usize) -> f64 {
        let mut estimates: Vec<f64> = self
            .instances
            .iter()
            .map(|row| row[x].estimate(item))
            .collect();
        estimates.sort_by(f64::total_cmp);
        estimates[estimates.len() / 2]
    }
}

impl StreamAlgorithm for FullSampleAndHold {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_item(&mut self, item: u64) {
        for row in &mut self.instances {
            // One uniform draw determines the deepest nested level this update
            // reaches; the precomputed cutoffs reproduce ⌊−log2(u)⌋ clamped to the
            // level range bit-for-bit (pinned by the hashing equivalence tests).
            let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let deepest = self.level_cutoffs.deepest(u);
            for level_row in row.iter_mut().take(deepest + 1) {
                level_row.process_item(item);
            }
        }
    }

    fn tracker(&self) -> &StateTracker {
        &self.tracker
    }

    /// Blocked batch kernel (the shared `process_batch_leveled` harness): per
    /// block, all level draws are made up front — same rng, same
    /// `(item, repetition)` order as the per-item path, so the random sequence is
    /// untouched — then each `SampleAndHold` copy runs over its substream of the
    /// block, charging the block ledger that is settled once per block.
    fn process_batch(&mut self, items: &[u64]) {
        let Self {
            instances,
            rng,
            level_cutoffs,
            tracker,
            level_scratch,
            ledger,
            ..
        } = self;
        let reps = instances.len();
        process_batch_leveled(
            tracker,
            instances,
            items,
            level_scratch,
            ledger,
            |block, deepest, _reads| {
                for _ in block {
                    for _ in 0..reps {
                        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                        deepest.push(level_cutoffs.deepest(u) as u16);
                    }
                }
            },
        );
    }
}

impl_queryable!(FullSampleAndHold: [frequency]);

impl Snapshot for FullSampleAndHold {
    fn snapshot_id(&self) -> &'static str {
        SNAPSHOT_ID
    }

    /// Layout: tracker state, the parameter set, then the ensemble dynamic state.
    /// Defined for standalone-constructed instances (construction seed =
    /// [`Params::seed`], own tracker), as produced by
    /// [`FullSampleAndHold::standalone`].
    fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SNAPSHOT_ID);
        self.tracker.export_state().write_to(&mut w);
        self.params.write_snapshot(&mut w);
        self.write_dynamic_state(&mut w);
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, SNAPSHOT_ID)?;
        let state = TrackerState::read_from(&mut r)?;
        let params = Params::read_snapshot(&mut r)?.with_tracker(state.kind);
        let tracker = StateTracker::of_kind(state.kind);
        let mut alg = FullSampleAndHold::new(&params, &tracker, params.seed);
        alg.read_dynamic_state(&mut r)?;
        tracker.import_state(&state);
        r.finish()?;
        Ok(alg)
    }
}

impl FrequencyEstimator for FullSampleAndHold {
    /// Combines the per-level estimates.  Estimates from `SampleAndHold` are
    /// (approximate) underestimates, so the paper combines levels by a maximum
    /// (Section 1.3).  With the practical profile's coarser Morris counters a plain
    /// maximum over `Y ≈ log m` levels would systematically pick up the largest upward
    /// fluctuation, so the unsampled level's estimate is only overridden when a deeper
    /// level's *lower confidence bound* (two standard deviations of Poisson subsampling
    /// plus Morris noise below its rescaled median) still exceeds it — strong evidence
    /// that the unsampled level undercounted.
    fn estimate(&self, item: u64) -> f64 {
        let morris_sigma = (self.params.morris_growth() / 2.0).sqrt();
        let mut best = self.level_median(item, 0);
        for x in 1..self.levels {
            let raw = self.level_median(item, x);
            if raw < MIN_LEVEL_COUNT {
                continue;
            }
            let sigma = raw * morris_sigma + raw.sqrt();
            let lower_bound = ((raw - 2.0 * sigma).max(0.0)) * (1u64 << x) as f64;
            if lower_bound > best {
                best = lower_bound;
            }
        }
        best
    }

    fn tracked_items(&self) -> Vec<u64> {
        let mut items: Vec<u64> = self
            .instances
            .iter()
            .flat_map(|row| row.iter().flat_map(|inst| inst.tracked_items()))
            .collect();
        items.sort_unstable();
        items.dedup();
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_streamgen::planted::{planted_stream, PlantedSpec};
    use fsc_streamgen::zipf::zipf_stream;
    use fsc_streamgen::FrequencyVector;

    #[test]
    fn structure_matches_parameters() {
        let params = Params::new(2.0, 0.3, 1 << 10, 1 << 12).with_reps(3);
        let alg = FullSampleAndHold::standalone(&params);
        assert_eq!(alg.reps(), 3);
        assert_eq!(alg.levels(), 13);
        assert!(alg.name().contains("FullSampleAndHold"));
    }

    #[test]
    fn batch_scratch_is_hoisted_to_construction() {
        // Same pin as FpEstimator's: the blocked kernel's level buffer is allocated
        // once at construction and its backing pointer survives repeated
        // process_batch calls unchanged.
        let n = 1 << 10;
        let stream = zipf_stream(n, 4 * n, 1.2, 13);
        let params = Params::new(2.0, 0.3, n, 4 * n).with_seed(9);
        let mut alg = FullSampleAndHold::standalone(&params);
        assert!(
            alg.level_scratch.capacity() > 0,
            "scratch allocated at construction"
        );
        let before = alg.level_scratch.as_ptr();
        let capacity = alg.level_scratch.capacity();
        alg.process_batch(&stream[..2 * n]);
        alg.process_batch(&stream[2 * n..]);
        assert_eq!(alg.level_scratch.as_ptr(), before, "scratch buffer reused");
        assert_eq!(
            alg.level_scratch.capacity(),
            capacity,
            "no per-call reallocation"
        );
    }

    #[test]
    fn heavy_hitter_estimates_survive_without_the_moment_assumption() {
        // A stream whose Fp is much larger than n: a single item of huge frequency.
        // Algorithm 1 alone would violate its F_p = O(n polylog) assumption; the
        // stream-subsampled levels still estimate the heavy item well.
        let n = 1 << 12;
        let spec = PlantedSpec {
            universe: n,
            background_updates: 2_000,
            planted: vec![30_000],
            seed: 1,
        };
        let stream = planted_stream(&spec);
        let params = Params::new(2.0, 0.25, n, stream.len()).with_seed(3);
        let mut alg = FullSampleAndHold::standalone(&params);
        alg.process_stream(&stream);
        let est = alg.estimate(0);
        let rel = (est - 30_000.0).abs() / 30_000.0;
        assert!(rel < 0.3, "estimate {est}, relative error {rel}");
    }

    #[test]
    fn estimates_on_zipf_streams_match_the_top_frequencies() {
        let n = 1 << 13;
        let m = 4 * n;
        let stream = zipf_stream(n, m, 1.3, 21);
        let truth = FrequencyVector::from_stream(&stream);
        let params = Params::new(2.0, 0.25, n, m).with_seed(5);
        let mut alg = FullSampleAndHold::standalone(&params);
        alg.process_stream(&stream);
        for (item, f) in truth.top_k(3) {
            let est = alg.estimate(item);
            let rel = (est - f as f64).abs() / f as f64;
            assert!(rel < 0.35, "item {item}: est {est} true {f}");
        }
        assert_eq!(alg.estimate(u64::MAX - 1), 0.0);
    }

    #[test]
    fn state_changes_remain_sublinear() {
        // A single repetition isolates the per-copy behaviour (with R copies running in
        // parallel on a short stream, the one-change-per-epoch metric saturates even
        // though each copy is write-frugal; the scaling experiment F1 shows the slope).
        let n = 1 << 13;
        let m = 4 * n;
        let stream = zipf_stream(n, m, 1.0, 2);
        let params = Params::new(2.0, 0.35, n, m).with_seed(11).with_reps(1);
        let mut alg = FullSampleAndHold::standalone(&params);
        alg.process_stream(&stream);
        let r = alg.report();
        assert_eq!(r.epochs as usize, m);
        assert!(
            (r.state_changes as f64) < 0.75 * m as f64,
            "state changes {} vs m {m}",
            r.state_changes
        );
        // Word writes include the one-off reservoir initialisation of every level, so
        // the bound is looser than the per-epoch one but still far below the
        // ~2 tracked writes per update a write-per-update ensemble would make.
        assert!((r.word_writes as f64) < 2.5 * m as f64);
    }
}
