//! `L_p` heavy hitters with few state changes (Theorem 1.1).

use fsc_state::snapshot::TrackerState;
use fsc_state::{
    impl_queryable, FrequencyEstimator, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
    StateTracker, StreamAlgorithm,
};

use crate::full_sample_and_hold::FullSampleAndHold;
use crate::params::Params;

/// Stable checkpoint-header id of [`FewStateHeavyHitters`].
const SNAPSHOT_ID: &str = "few_state_heavy_hitters";

/// The paper's `L_p` heavy-hitter algorithm: `FullSampleAndHold` plus thresholding.
///
/// Guarantee (Theorem 1.1): with probability ≥ 2/3 the returned frequency vector
/// satisfies `‖f̂ − f‖_∞ ≤ (ε/2)·‖f‖_p`, using `Õ(n^{1−1/p})·poly(1/ε)` internal state
/// changes, `poly(log nm, 1/ε)` bits of space for `p ∈ [1,2]`, and
/// `Õ(n^{1−2/p}/ε^{4+4p})` bits for `p > 2`.
///
/// Turning frequency estimates into a heavy-hitter *list* additionally needs a
/// 2-approximation of `‖f‖_p` (paper, Section 1.2).  [`FewStateHeavyHitters::heavy_hitters`]
/// derives one from the algorithm's own summary (`F̂_p = max(m, Σ_tracked f̂^p)`, which is
/// within a constant factor whenever the tracked items capture the significant mass);
/// [`FewStateHeavyHitters::heavy_hitters_with_norm`] accepts an externally supplied
/// norm, e.g. from [`crate::FpEstimator`].
#[derive(Debug)]
pub struct FewStateHeavyHitters {
    inner: FullSampleAndHold,
    params: Params,
    name: String,
}

impl FewStateHeavyHitters {
    /// Creates the algorithm for the given parameters.
    pub fn new(params: Params) -> Self {
        Self {
            inner: FullSampleAndHold::standalone(&params),
            name: format!("FewStateHeavyHitters(p={}, eps={})", params.p, params.eps),
            params,
        }
    }

    /// The accuracy parameter `ε` the instance was built for.
    pub fn eps(&self) -> f64 {
        self.params.eps
    }

    /// The norm order `p`.
    pub fn p(&self) -> f64 {
        self.params.p
    }

    /// Held counters dropped by maintenance across the ensemble's copies since
    /// this instance was built or restored (untracked; tests/reporting).
    pub fn maintenance_drops(&self) -> u64 {
        self.inner.maintenance_drops()
    }

    /// A self-contained estimate of `F_p` built from the summary's own tracked items:
    /// `max(m, Σ_j f̂_j^p)`.  (`F_p ≥ m` always holds for `p ≥ 1` on insertion-only
    /// streams, so this never underestimates by more than the untracked light mass.)
    pub fn rough_fp(&self) -> f64 {
        let m = self.inner.tracker().epochs() as f64;
        let tracked: f64 = self
            .inner
            .tracked_items()
            .into_iter()
            .map(|j| self.inner.estimate(j).powf(self.params.p))
            .sum();
        tracked.max(m)
    }

    /// All items whose estimated frequency is at least `ε·‖f‖_p`, where `‖f‖_p` is
    /// supplied by the caller (e.g. from an `F_p` estimator or from ground truth).
    /// Returned as `(item, estimated frequency)` sorted by decreasing estimate.
    pub fn heavy_hitters_with_norm(&self, lp_norm: f64) -> Vec<(u64, f64)> {
        let threshold = self.params.eps * lp_norm;
        FrequencyEstimator::heavy_hitters(self, threshold)
    }

    /// Heavy hitters thresholded against the algorithm's own rough `F_p` estimate.
    pub fn heavy_hitters(&self) -> Vec<(u64, f64)> {
        self.heavy_hitters_with_norm(self.rough_fp().powf(1.0 / self.params.p))
    }
}

impl StreamAlgorithm for FewStateHeavyHitters {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_item(&mut self, item: u64) {
        self.inner.process_item(item);
    }

    fn tracker(&self) -> &StateTracker {
        self.inner.tracker()
    }

    /// Delegates to the inner [`FullSampleAndHold`] batch kernel (same tracker, so
    /// the epoch span it opens is this algorithm's span).
    fn process_batch(&mut self, items: &[u64]) {
        self.inner.process_batch(items);
    }
}

impl_queryable!(FewStateHeavyHitters: [frequency]);

impl Snapshot for FewStateHeavyHitters {
    fn snapshot_id(&self) -> &'static str {
        SNAPSHOT_ID
    }

    /// Layout: tracker state, the parameter set, then the inner
    /// [`FullSampleAndHold`] ensemble's dynamic state (the wrapper itself is
    /// stateless beyond its parameters).
    fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SNAPSHOT_ID);
        self.tracker().export_state().write_to(&mut w);
        self.params.write_snapshot(&mut w);
        self.inner.write_dynamic_state(&mut w);
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, SNAPSHOT_ID)?;
        let state = TrackerState::read_from(&mut r)?;
        let params = Params::read_snapshot(&mut r)?.with_tracker(state.kind);
        let mut alg = FewStateHeavyHitters::new(params);
        alg.inner.read_dynamic_state(&mut r)?;
        alg.tracker().import_state(&state);
        r.finish()?;
        Ok(alg)
    }
}

impl FrequencyEstimator for FewStateHeavyHitters {
    fn estimate(&self, item: u64) -> f64 {
        self.inner.estimate(item)
    }

    fn tracked_items(&self) -> Vec<u64> {
        self.inner.tracked_items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_streamgen::ground_truth::precision_recall;
    use fsc_streamgen::zipf::zipf_stream;
    use fsc_streamgen::FrequencyVector;

    #[test]
    fn finds_the_true_l2_heavy_hitters_on_a_zipf_stream() {
        let n = 1 << 13;
        let m = 4 * n;
        let eps = 0.25;
        let stream = zipf_stream(n, m, 1.3, 9);
        let truth = FrequencyVector::from_stream(&stream);
        let exact: Vec<u64> = truth
            .heavy_hitters(2.0, eps)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert!(
            !exact.is_empty(),
            "workload should contain L2 heavy hitters"
        );

        let mut alg = FewStateHeavyHitters::new(Params::new(2.0, eps, n, m).with_seed(4));
        alg.process_stream(&stream);
        let reported: Vec<u64> = alg
            .heavy_hitters_with_norm(truth.lp(2.0))
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        let (_, recall) = precision_recall(&reported, &exact);
        assert!(
            recall >= 0.99,
            "recall {recall} (reported {reported:?}, exact {exact:?})"
        );
        // Soundness: nothing below the ε/4 threshold may be reported.
        let floor = 0.25 * eps * truth.lp(2.0);
        for &item in &reported {
            assert!(
                truth.frequency(item) as f64 >= floor,
                "item {item} below the ε/4 floor was reported"
            );
        }
    }

    #[test]
    fn self_contained_threshold_is_usable() {
        let n = 1 << 12;
        let m = 4 * n;
        let stream = zipf_stream(n, m, 1.4, 17);
        let truth = FrequencyVector::from_stream(&stream);
        let mut alg = FewStateHeavyHitters::new(Params::new(2.0, 0.3, n, m).with_seed(8));
        alg.process_stream(&stream);
        assert!(alg.rough_fp() >= m as f64);
        assert!(
            alg.rough_fp() <= 2.0 * truth.fp(2.0),
            "rough Fp should not blow up"
        );
        let hh = alg.heavy_hitters();
        assert!(!hh.is_empty());
        // The most frequent item must be in the list.
        assert!(hh.iter().any(|&(i, _)| i == truth.mode().unwrap().0));
        assert_eq!(alg.eps(), 0.3);
        assert_eq!(alg.p(), 2.0);
    }

    #[test]
    fn state_changes_are_far_below_the_stream_length() {
        let n = 1 << 13;
        let m = 4 * n;
        let stream = zipf_stream(n, m, 1.1, 3);
        let mut alg = FewStateHeavyHitters::new(Params::new(2.0, 0.3, n, m).with_seed(2));
        alg.process_stream(&stream);
        let r = alg.report();
        assert!((r.state_changes as f64) < 0.9 * m as f64);
        assert!(r.epochs as usize == m);
    }
}
