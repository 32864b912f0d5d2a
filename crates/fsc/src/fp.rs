//! `F_p` moment estimation for `p ≥ 1` (Theorem 1.3, Algorithm 3).
//!
//! The estimator follows the level-set framework of [IW05] as instantiated by the
//! paper: the universe `[n]` is subsampled at geometrically decreasing rates
//! `2^{-ℓ}`, a `SampleAndHold` summary is maintained per subsampling level and
//! repetition, and at query time the contribution `C_i` of every frequency level set
//! `Γ_i = {j : f_j^p ∈ [λ·G/2^i, 2λ·G/2^i)}` is estimated from the level
//! `ℓ(i) = max(0, i − offset)` at which about `survivor_target` members of `Γ_i`
//! survive, then rescaled by the inverse sampling rate.  `λ ~ Uni[1/2, 1]` randomises
//! the level-set boundaries (Lemma 3.6, "randomized boundaries").
//!
//! Because universe subsampling keeps or drops *items* wholesale, a surviving item's
//! frequency inside the substream equals its true frequency, so no frequency rescaling
//! is needed — only the item count is rescaled.
//!
//! Practical deviations (documented in `DESIGN.md`):
//!
//! * The paper anchors the level sets at `M̃ ≈ m^p` (Algorithm 3, line 9); anchoring at
//!   a guess `G` of `F_p` and accepting the first self-consistent guess
//!   (`total ∈ [G/2, 2G)`) avoids subsampling far past the point where anything
//!   survives.  This is the standard way the [IW05] framework removes the
//!   "know `F_p` up to a constant" assumption and does not change the state-change or
//!   space behaviour (the same summaries serve every guess).
//! * Each subsampling level runs Algorithm 1 directly rather than Algorithm 2; the
//!   level structure already provides the moment reduction that Algorithm 2's stream
//!   subsampling supplies (set [`Params::reps`] higher for more robustness).

use fsc_counters::hashing::{GeometricLevels, PolyHash, MERSENNE_61};
use fsc_state::snapshot::TrackerState;
use fsc_state::{
    impl_queryable, FrequencyEstimator, MomentEstimator, Snapshot, SnapshotError, SnapshotReader,
    SnapshotWriter, StateTracker, StreamAlgorithm,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::params::Params;
use crate::sample_and_hold::{process_batch_leveled, Ledger, SampleAndHold, BATCH_BLOCK};

/// Stable checkpoint-header id of [`FpEstimator`].
const SNAPSHOT_ID: &str = "fp_estimator";

/// Algorithm 3: universe-subsampled `SampleAndHold` summaries plus level-set estimation.
#[derive(Debug)]
pub struct FpEstimator {
    params: Params,
    tracker: StateTracker,
    /// One universe-subsampling hash per repetition (items are kept consistently).
    hashes: Vec<PolyHash>,
    /// `instances[r][ℓ]`: summary of the substream induced by keeping items with
    /// probability `2^{-ℓ}` under hash `r`.
    instances: Vec<Vec<SampleAndHold>>,
    levels: usize,
    /// Precomputed integer cutoffs mapping a universe-subsampling hash to the deepest
    /// level it reaches — bit-identical to the former per-item
    /// `⌊−log2(hash_unit)⌋` computation (see [`GeometricLevels`]).
    level_cutoffs: GeometricLevels,
    /// Random level-set boundary shift `λ ∈ [1/2, 1]`.
    lambda: f64,
    /// Reusable per-block level buffer for the batch kernel, allocated once here at
    /// construction instead of per `process_batch` call.
    level_scratch: Vec<u16>,
    /// The batch kernel's per-block accounting, reused across calls.
    ledger: Ledger,
    name: String,
}

impl FpEstimator {
    /// Creates an estimator with its own tracker (of the kind selected by
    /// [`Params::tracker`]).
    pub fn new(params: Params) -> Self {
        let tracker = params.make_tracker();
        Self::with_tracker(params, &tracker)
    }

    /// Creates an estimator sharing `tracker` with an enclosing algorithm
    /// (used by the entropy estimator, which runs several moment estimators).
    pub fn with_tracker(params: Params, tracker: &StateTracker) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x0F9E_57A7);
        let levels = params.universe_levels();
        let reps = params.reps;
        let hashes = (0..reps).map(|_| PolyHash::new(2, &mut rng)).collect();
        let mut instances = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut row = Vec::with_capacity(levels);
            for level in 0..levels {
                let hint = (params.stream_len_hint >> level).max(1);
                row.push(SampleAndHold::new(&params, hint, tracker, rng.gen()));
            }
            instances.push(row);
        }
        let lambda = 0.5 + 0.5 * rng.gen::<f64>();
        Self {
            name: format!("FpEstimator(p={}, eps={})", params.p, params.eps),
            params,
            tracker: tracker.clone(),
            hashes,
            instances,
            levels,
            level_cutoffs: GeometricLevels::new(levels - 1),
            lambda,
            level_scratch: Vec::with_capacity(BATCH_BLOCK * reps),
            ledger: Ledger::default(),
        }
    }

    /// Number of universe-subsampling levels `L`.
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

    /// The randomized level-set boundary shift `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Serializes the post-construction state: every copy's dynamic state in
    /// `(repetition, level)` order.  The subsampling hashes, `λ`, and the level
    /// structure are deterministic functions of the parameters and re-derive on
    /// restore; the estimator itself holds no rng after construction.
    pub(crate) fn write_dynamic_state(&self, w: &mut SnapshotWriter) {
        for row in &self.instances {
            for inst in row {
                inst.write_dynamic_state(w);
            }
        }
    }

    /// Restores the state serialized by [`FpEstimator::write_dynamic_state`] into a
    /// freshly constructed estimator built from the same parameters.
    pub(crate) fn read_dynamic_state(
        &mut self,
        r: &mut SnapshotReader<'_>,
    ) -> Result<(), SnapshotError> {
        for row in &mut self.instances {
            for inst in row {
                inst.read_dynamic_state(r)?;
            }
        }
        Ok(())
    }

    /// The parameter set the estimator was built from (used by the entropy wrapper's
    /// checkpoint).
    pub(crate) fn params(&self) -> &Params {
        &self.params
    }

    /// Per-(repetition, level) sorted `f̂^p` values together with prefix sums of
    /// `f̂^p` and of `f̂·ln(f̂)`, computed once per query so that each level-set
    /// interval is a pair of binary searches.
    fn summaries(&self) -> Vec<Vec<Summary>> {
        let p = self.params.p;
        self.instances
            .iter()
            .map(|row| {
                row.iter()
                    .map(|inst| {
                        let mut pairs: Vec<(f64, f64)> = inst
                            .tracked_items()
                            .into_iter()
                            .map(|j| {
                                let est = inst.estimate(j);
                                (est.powf(p), est * est.max(1.0).ln())
                            })
                            .filter(|(v, _)| *v > 0.0)
                            .collect();
                        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
                        let mut summary = Summary {
                            vals: Vec::with_capacity(pairs.len()),
                            prefix_fp: vec![0.0],
                            prefix_flnf: vec![0.0],
                        };
                        let (mut acc_fp, mut acc_flnf) = (0.0, 0.0);
                        for (fp, flnf) in pairs {
                            summary.vals.push(fp);
                            acc_fp += fp;
                            acc_flnf += flnf;
                            summary.prefix_fp.push(acc_fp);
                            summary.prefix_flnf.push(acc_flnf);
                        }
                        summary
                    })
                    .collect()
            })
            .collect()
    }

    /// The level-set estimates anchored at the moment guess `G`:
    /// `(Σ_i Ĉ_i,  Σ_i Ĉ_i weighted by f·ln f)`.
    fn total_for_guess(&self, guess: f64, summaries: &[Vec<Summary>]) -> (f64, f64) {
        let offset = self.params.level_offset();
        let lambda = self.lambda;
        let mut total_fp = 0.0;
        let mut total_flnf = 0.0;

        let mut add_interval = |level: usize, lo: f64, hi: f64, rate: f64| {
            let mut fp: Vec<f64> = Vec::with_capacity(summaries.len());
            let mut flnf: Vec<f64> = Vec::with_capacity(summaries.len());
            for row in summaries {
                let (a, b) = row[level].interval_sum(lo, hi);
                fp.push(a);
                flnf.push(b);
            }
            fp.sort_by(f64::total_cmp);
            flnf.sort_by(f64::total_cmp);
            total_fp += fp[fp.len() / 2] / rate;
            total_flnf += flnf[flnf.len() / 2] / rate;
        };

        // Overflow class [2λG, ∞), read from the unsampled level: if the guess is far
        // below the true moment, the dominant items land here and push the total above
        // the self-consistency window, forcing a larger guess.
        add_interval(0, 2.0 * lambda * guess, f64::INFINITY, 1.0);

        let mut i = 0usize;
        loop {
            let lo = lambda * guess / 2f64.powi(i as i32);
            if lo <= 0.5 && i > 0 {
                break;
            }
            let hi = 2.0 * lo;
            let level = if i > offset {
                (i - offset).min(self.levels - 1)
            } else {
                0
            };
            let rate = 2f64.powi(-(level as i32));
            add_interval(level, lo, hi, rate);
            i += 1;
            if i > 4 * self.levels + 64 {
                break;
            }
        }
        (total_fp, total_flnf)
    }

    /// Runs the guess loop and returns the `(F̂_p, Σ f̂·ln f̂)` pair of the accepted
    /// (self-consistent) guess, or of the closest guess if none is self-consistent.
    fn estimate_pair(&self) -> (f64, f64) {
        let m = self.tracker.epochs() as f64;
        if m < 1.0 {
            return (0.0, 0.0);
        }
        let summaries = self.summaries();
        let p = self.params.p;
        let j_lo = m.log2().floor() as i32;
        let j_hi = (p * m.log2()).ceil() as i32 + 1;

        let mut best: Option<(f64, (f64, f64))> = None;
        for j in j_lo..=j_hi {
            let guess = 2f64.powi(j);
            let (total_fp, total_flnf) = self.total_for_guess(guess, &summaries);
            if total_fp >= guess / 2.0 && total_fp < 2.0 * guess {
                return (total_fp.max(m), total_flnf);
            }
            if total_fp > 0.0 {
                let dist = (total_fp / guess).ln().abs();
                if best.map(|(d, _)| dist < d).unwrap_or(true) {
                    best = Some((dist, (total_fp, total_flnf)));
                }
            }
        }
        // No self-consistent guess (possible on tiny or adversarial inputs): fall back
        // to the nearest guess, flooring F̂_p at m (F_p ≥ m holds for every p ≥ 1).
        let (fp, flnf) = best.map(|(_, pair)| pair).unwrap_or((0.0, 0.0));
        (fp.max(m), flnf)
    }

    /// Estimate of `Σ_i f_i·ln(f_i)` from the same summaries (used by
    /// [`crate::EntropyFewState`]; equals `∂_p F_p` at `p = 1`).
    pub fn estimate_f_ln_f(&self) -> f64 {
        self.estimate_pair().1.max(0.0)
    }
}

/// Sorted `f̂^p` values of one summary with prefix sums of `f̂^p` and `f̂·ln f̂`.
#[derive(Debug, Clone)]
struct Summary {
    vals: Vec<f64>,
    prefix_fp: Vec<f64>,
    prefix_flnf: Vec<f64>,
}

impl Summary {
    /// Sums of `f̂^p` and `f̂·ln f̂` over tracked items whose `f̂^p` lies in `[lo, hi)`.
    fn interval_sum(&self, lo: f64, hi: f64) -> (f64, f64) {
        let lo_idx = self.vals.partition_point(|&v| v < lo);
        let hi_idx = self.vals.partition_point(|&v| v < hi);
        (
            self.prefix_fp[hi_idx] - self.prefix_fp[lo_idx],
            self.prefix_flnf[hi_idx] - self.prefix_flnf[lo_idx],
        )
    }
}

impl StreamAlgorithm for FpEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_item(&mut self, item: u64) {
        for (row, hash) in self.instances.iter_mut().zip(&self.hashes) {
            self.tracker.record_reads(1);
            // One integer compare chain instead of an f64 division + log2 per item;
            // equivalent bit-for-bit to ⌊−log2(max(hash_unit, MIN_POSITIVE))⌋ clamped
            // to the level range (the hashing tests pin the equivalence).
            let deepest = self.level_cutoffs.deepest(hash.hash_u64(item));
            for inst in row.iter_mut().take(deepest + 1) {
                inst.process_item(item);
            }
        }
    }

    fn tracker(&self) -> &StateTracker {
        &self.tracker
    }

    /// Blocked batch kernel (the shared `process_batch_leveled` harness): per
    /// block, the universe-subsampling levels of every `(item, repetition)` pair are
    /// precomputed in one tight pass — the item folded once and reused across the
    /// repetitions' hashes, with the per-repetition read charge going to the block
    /// ledger — then each `SampleAndHold` copy runs over its substream of the
    /// block.  The subsampling decision is a pure function of the item, so
    /// precomputing it reorders nothing (pinned by the batch-law tests).
    fn process_batch(&mut self, items: &[u64]) {
        let Self {
            instances,
            hashes,
            level_cutoffs,
            tracker,
            level_scratch,
            ledger,
            ..
        } = self;
        process_batch_leveled(
            tracker,
            instances,
            items,
            level_scratch,
            ledger,
            |block, deepest, reads| {
                for &item in block {
                    let folded = item % MERSENNE_61;
                    for hash in hashes.iter() {
                        *reads += 1;
                        deepest.push(level_cutoffs.deepest(hash.hash_u64_folded(folded)) as u16);
                    }
                }
            },
        );
    }
}

impl_queryable!(FpEstimator: [moment]);

impl Snapshot for FpEstimator {
    fn snapshot_id(&self) -> &'static str {
        SNAPSHOT_ID
    }

    /// Layout: tracker state, the parameter set, then the per-copy dynamic state.
    /// Defined for instances that own their tracker ([`FpEstimator::new`]); the
    /// entropy wrapper checkpoints through its own implementation.
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
        let mut alg = FpEstimator::with_tracker(params, &tracker);
        alg.read_dynamic_state(&mut r)?;
        tracker.import_state(&state);
        r.finish()?;
        Ok(alg)
    }
}

impl MomentEstimator for FpEstimator {
    fn p(&self) -> f64 {
        self.params.p
    }

    /// The `(1±ε)`-approximation of `F_p` (Theorem 1.3).
    fn estimate_moment(&self) -> f64 {
        let m = self.tracker.epochs() as f64;
        if m < 1.0 {
            return 0.0;
        }
        self.estimate_pair().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_streamgen::planted::{planted_stream, PlantedSpec};
    use fsc_streamgen::uniform::permutation_stream;
    use fsc_streamgen::zipf::zipf_stream;
    use fsc_streamgen::FrequencyVector;

    fn relative_error(est: f64, truth: f64) -> f64 {
        (est - truth).abs() / truth
    }

    #[test]
    fn batch_scratch_is_hoisted_to_construction() {
        // The blocked kernel's per-(item, repetition) level buffer is allocated once
        // at construction and reused verbatim across process_batch calls: same
        // backing pointer, no per-call reallocation.  (The level *cutoffs* were
        // already construction-cached via `GeometricLevels`; this pins the remaining
        // per-call recomputation, the scratch allocation.)
        let n = 1 << 10;
        let stream = zipf_stream(n, 4 * n, 1.2, 11);
        let mut est = FpEstimator::new(Params::new(2.0, 0.3, n, 4 * n).with_seed(5));
        assert!(
            est.level_scratch.capacity() > 0,
            "scratch allocated at construction"
        );
        let before = est.level_scratch.as_ptr();
        let capacity = est.level_scratch.capacity();
        est.process_batch(&stream[..2 * n]);
        est.process_batch(&stream[2 * n..]);
        assert_eq!(est.level_scratch.as_ptr(), before, "scratch buffer reused");
        assert_eq!(
            est.level_scratch.capacity(),
            capacity,
            "no per-call reallocation"
        );
    }

    #[test]
    fn f2_on_a_skewed_zipf_stream() {
        let n = 1 << 13;
        let m = 4 * n;
        let stream = zipf_stream(n, m, 1.3, 31);
        let truth = FrequencyVector::from_stream(&stream).fp(2.0);
        let mut est = FpEstimator::new(Params::new(2.0, 0.2, n, m).with_seed(7));
        est.process_stream(&stream);
        let rel = relative_error(est.estimate_moment(), truth);
        assert!(rel < 0.35, "relative error {rel}");
        assert_eq!(est.p(), 2.0);
    }

    #[test]
    fn f2_on_a_permutation_stream_equals_n() {
        // No heavy hitters at all: the whole moment lives in the singleton level set,
        // which is only visible through the subsampled reservoirs.
        let n = 1 << 14;
        let stream = permutation_stream(n, 5);
        let mut est = FpEstimator::new(Params::new(2.0, 0.25, n, n).with_seed(3));
        est.process_stream(&stream);
        let rel = relative_error(est.estimate_moment(), n as f64);
        assert!(rel < 0.3, "estimate {} vs n {n}", est.estimate_moment());
    }

    #[test]
    fn f2_with_a_dominant_planted_item() {
        let n = 1 << 13;
        let spec = PlantedSpec {
            universe: n,
            background_updates: 20_000,
            planted: vec![3_000],
            seed: 2,
        };
        let stream = planted_stream(&spec);
        let truth = FrequencyVector::from_stream(&stream).fp(2.0);
        let mut est = FpEstimator::new(Params::new(2.0, 0.2, n, stream.len()).with_seed(11));
        est.process_stream(&stream);
        let rel = relative_error(est.estimate_moment(), truth);
        assert!(rel < 0.3, "relative error {rel}");
    }

    #[test]
    fn f1_recovers_the_stream_length() {
        let n = 1 << 13;
        let m = 4 * n;
        let stream = zipf_stream(n, m, 1.1, 13);
        let mut est = FpEstimator::new(Params::new(1.0, 0.25, n, m).with_seed(23));
        est.process_stream(&stream);
        let rel = relative_error(est.estimate_moment(), m as f64);
        assert!(rel < 0.3, "estimate {} vs m {m}", est.estimate_moment());
    }

    #[test]
    fn f3_on_a_skewed_stream() {
        let n = 1 << 12;
        let m = 4 * n;
        let stream = zipf_stream(n, m, 1.4, 41);
        let truth = FrequencyVector::from_stream(&stream).fp(3.0);
        let mut est = FpEstimator::new(Params::new(3.0, 0.25, n, m).with_seed(5));
        est.process_stream(&stream);
        let rel = relative_error(est.estimate_moment(), truth);
        assert!(rel < 0.4, "relative error {rel}");
    }

    #[test]
    fn state_changes_are_sublinear_and_structure_is_logarithmic() {
        let n = 1 << 13;
        let m = 4 * n;
        let stream = zipf_stream(n, m, 1.0, 19);
        let mut est = FpEstimator::new(Params::new(2.0, 0.3, n, m).with_seed(2));
        est.process_stream(&stream);
        assert!(est.levels() <= 20);
        assert_eq!(est.reps(), 3);
        assert!(est.lambda() >= 0.5 && est.lambda() <= 1.0);
        let r = est.report();
        assert_eq!(r.epochs as usize, m);
        assert!(
            (r.state_changes as f64) < 0.95 * m as f64,
            "state changes {} vs m {m}",
            r.state_changes
        );
    }

    #[test]
    fn empty_stream_reports_zero() {
        let est = FpEstimator::new(Params::new(2.0, 0.3, 1 << 10, 1 << 10));
        assert_eq!(est.estimate_moment(), 0.0);
    }
}
