//! Shared parameters of the paper's algorithms.
//!
//! The paper's constants (e.g. `γ = 2^{20p}`, `κ = Θ(log^{11+3p}(mn)/ε^{4+4p})`) are
//! chosen to make the proofs go through, not to be run; plugged in literally they exceed
//! the stream length for every feasible input.  [`Params`] therefore exposes two
//! profiles with the *same asymptotic form* but different constants:
//!
//! * [`Profile::Practical`] (default) — small constants; used by every experiment.
//! * [`Profile::PaperFaithful`] — the paper's polylog powers and the randomised counter
//!   budget of Algorithm 1, for reference; only feasible for tiny inputs.
//!
//! Every derived quantity is documented with the paper expression it instantiates.

use fsc_state::{SnapshotError, SnapshotReader, SnapshotWriter, StateTracker, TrackerKind};

/// Constant-factor profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Small constants with the paper's asymptotic form (default).
    Practical,
    /// The paper's constants (γ = 2^{20p}, log^{11+3p} factors, randomised budget).
    PaperFaithful,
}

/// Parameters shared by `SampleAndHold`, `FullSampleAndHold`, the heavy-hitter
/// algorithm, and the `F_p` estimator.
#[derive(Debug, Clone)]
pub struct Params {
    /// Moment order `p ≥ 1` (use [`crate::FpSmallEstimator`] for `p < 1`).
    pub p: f64,
    /// Target relative accuracy `ε ∈ (0, 1)`.
    pub eps: f64,
    /// Target failure probability `δ ∈ (0, 1)`.
    pub delta: f64,
    /// Universe size `n` (an upper bound is fine).
    pub universe: usize,
    /// A constant-factor upper bound on the stream length `m`.
    pub stream_len_hint: usize,
    /// Number of independent repetitions `R` used for median boosting.
    pub reps: usize,
    /// Constant-factor profile.
    pub profile: Profile,
    /// Seed for all internal randomness.
    pub seed: u64,
    /// Which kind of tracker the algorithm uses (default: [`TrackerKind::Full`], the
    /// exact accounting used by all recorded experiments;
    /// [`TrackerKind::FullAddressTracked`] adds per-address wear for analysis runs).
    pub tracker: TrackerKind,
}

impl Params {
    /// Practical-profile parameters with `δ = 1/3` (the paper's constant success
    /// probability) and `R = 3` repetitions.
    pub fn new(p: f64, eps: f64, universe: usize, stream_len_hint: usize) -> Self {
        assert!(
            p >= 1.0,
            "Params is for p ≥ 1; use FpSmallEstimator for p < 1"
        );
        assert!(eps > 0.0 && eps < 1.0);
        assert!(universe > 0 && stream_len_hint > 0);
        Self {
            p,
            eps,
            delta: 1.0 / 3.0,
            universe,
            stream_len_hint,
            reps: 3,
            profile: Profile::Practical,
            seed: 0xF5C_5EED,
            tracker: TrackerKind::Full,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different number of repetitions.
    pub fn with_reps(mut self, reps: usize) -> Self {
        assert!(reps >= 1);
        self.reps = reps;
        self
    }

    /// Returns a copy using the paper-faithful constants.
    pub fn paper_faithful(mut self) -> Self {
        self.profile = Profile::PaperFaithful;
        self
    }

    /// Returns a copy with a different tracker kind.
    pub fn with_tracker(mut self, tracker: TrackerKind) -> Self {
        self.tracker = tracker;
        self
    }

    /// Creates the state tracker this parameter set asks for.  Every algorithm
    /// constructor that owns its tracker goes through this, so the tracker kind is a
    /// pure `Params` concern and algorithm update paths stay kind-agnostic.
    pub fn make_tracker(&self) -> StateTracker {
        StateTracker::of_kind(self.tracker)
    }

    /// Serializes every field into a checkpoint (used by the `Snapshot`
    /// implementations of the parameterized algorithms; the constructors are
    /// deterministic functions of a `Params`, so serializing it is what lets restore
    /// re-derive hash functions, level structure, and budgets instead of storing them).
    pub(crate) fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.f64(self.p);
        w.f64(self.eps);
        w.f64(self.delta);
        w.usize(self.universe);
        w.usize(self.stream_len_hint);
        w.usize(self.reps);
        w.u8(match self.profile {
            Profile::Practical => 0,
            Profile::PaperFaithful => 1,
        });
        w.u64(self.seed);
        // Serialized for Params-codec completeness; restore paths normalise it to the
        // checkpoint's TrackerState kind (standalone construction keeps them equal).
        w.u8(self.tracker.tag());
    }

    /// Restores a parameter set written by [`Params::write_snapshot`], re-validating
    /// the invariants the constructor asserts (so corrupt bytes surface as a typed
    /// error instead of a panic inside a derived-quantity computation).
    pub(crate) fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let p = r.f64()?;
        let eps = r.f64()?;
        let delta = r.f64()?;
        let universe = r.usize()?;
        let stream_len_hint = r.usize()?;
        let reps = r.usize()?;
        let profile = match r.u8()? {
            0 => Profile::Practical,
            1 => Profile::PaperFaithful,
            _ => return Err(SnapshotError::Corrupt("profile tag")),
        };
        let seed = r.u64()?;
        let tracker =
            TrackerKind::from_tag(r.u8()?).ok_or(SnapshotError::Corrupt("tracker kind tag"))?;
        let valid = p.is_finite()
            && p >= 1.0
            && eps > 0.0
            && eps < 1.0
            && delta > 0.0
            && delta < 1.0
            && universe > 0
            && stream_len_hint > 0
            && reps >= 1
            // Structure sizes derive from these; keep corrupt bytes from requesting
            // absurd allocations during the deterministic reconstruction.
            && universe <= 1 << 48
            && stream_len_hint <= 1 << 48
            && reps <= 1 << 10;
        if !valid {
            return Err(SnapshotError::Corrupt("parameter range"));
        }
        Ok(Self {
            p,
            eps,
            delta,
            universe,
            stream_len_hint,
            reps,
            profile,
            seed,
            tracker,
        })
    }

    /// `ln(nm + 2)`, the log factor every bound is expressed in.
    pub fn log_nm(&self) -> f64 {
        ((self.universe as f64) * (self.stream_len_hint as f64) + 2.0).ln()
    }

    /// Per-update sampling probability `ϱ` of `SampleAndHold` (Algorithm 1, line 3):
    /// paper `ϱ = γ²·n^{1−1/p}·log⁴(nm)/(ε²·m)`; practical
    /// `ϱ = n^{1−1/p}·ln(nm)/(ε·m)`, clamped to `[0, 1]`.
    ///
    /// `stream_len` is the length of the (sub)stream the instance actually processes.
    pub fn sample_prob(&self, stream_len: usize) -> f64 {
        let n = self.effective_n(stream_len) as f64;
        let m = stream_len.max(1) as f64;
        let expected_samples = match self.profile {
            // Floored at 4×survivor_target: the paper's γ²·log⁴/ε² constants guarantee
            // that substreams of polylog(nm)/ε² size are sampled wholesale (needed so
            // that subsampled level-set members at least reach the reservoir); the
            // floor is the practical-scale equivalent and is itself only polylog/ε².
            Profile::Practical => (n.powf(1.0 - 1.0 / self.p) * self.log_nm() / self.eps)
                .max(4.0 * self.survivor_target()),
            Profile::PaperFaithful => {
                let gamma = 2f64.powf(20.0 * self.p).min(1e12);
                gamma * gamma * n.powf(1.0 - 1.0 / self.p) * self.log_nm().powi(4)
                    / (self.eps * self.eps)
            }
        };
        (expected_samples / m).clamp(0.0, 1.0)
    }

    /// The paper redefines `n` to be `min(n, m)` when the stream is shorter than the
    /// universe (Algorithm 1, lines 2–5).
    pub fn effective_n(&self, stream_len: usize) -> usize {
        self.universe.min(stream_len.max(1))
    }

    /// Target number of level-set members that should survive universe subsampling in
    /// the `F_p` estimator (practical stand-in for the paper's `Θ(log(nm)/ε²)` with
    /// `γ`-sized constants): `2·ln(nm)/ε²`.
    pub fn survivor_target(&self) -> f64 {
        (2.0 * self.log_nm() / (self.eps * self.eps)).max(8.0)
    }

    /// Number of reservoir slots `κ` (Algorithm 1, lines 1, 3, 5):
    /// paper `Θ(log^{11+3p}(mn)/ε^{4+4p})` for `p ∈ [1,2)` and
    /// `Θ(n^{1−2/p}·log^{11+3p}(mn)/ε^{4+4p})` for `p ≥ 2`; practical
    /// `4 × survivor_target`, so that the reservoir can hold every member of a
    /// subsampled level set (the paper guarantees the same through its much larger
    /// polylog powers).
    pub fn kappa(&self, stream_len: usize) -> usize {
        let n = self.effective_n(stream_len) as f64;
        let log = self.log_nm();
        let value = match self.profile {
            Profile::Practical => 4.0 * self.survivor_target(),
            Profile::PaperFaithful => {
                let base = if self.p >= 2.0 {
                    n.powf(1.0 - 2.0 / self.p)
                } else {
                    1.0
                };
                base * log.powf(11.0 + 3.0 * self.p) / self.eps.powf(4.0 + 4.0 * self.p)
            }
        };
        (value.ceil() as usize).clamp(16, 1 << 22)
    }

    /// Counter budget `k` (Algorithm 1, line 7).  The paper draws
    /// `k ~ Uni[200pκ·log²(nm), 202pκ·log²(nm)]` to decorrelate maintenance times from
    /// the adversary; the practical profile uses the deterministic value
    /// `κ + n^{max(0, 1−2/p)}·ln(nm)/ε` (the extra term is the `p > 2` space allowance
    /// of Theorems 1.1/1.3).
    pub fn counter_budget(&self, stream_len: usize, uniform01: f64) -> usize {
        let kappa = self.kappa(stream_len) as f64;
        match self.profile {
            Profile::Practical => {
                let n = self.effective_n(stream_len) as f64;
                let extra = n.powf((1.0 - 2.0 / self.p).max(0.0)) * self.log_nm() / self.eps;
                (kappa + extra).ceil() as usize
            }
            Profile::PaperFaithful => {
                let log2 = self.log_nm().powi(2);
                let lo = 200.0 * self.p * kappa * log2;
                let hi = 202.0 * self.p * kappa * log2;
                (lo + uniform01.clamp(0.0, 1.0) * (hi - lo)).ceil() as usize
            }
        }
    }

    /// Growth parameter of the per-item Morris counters.  The paper asks for
    /// multiplicative accuracy `1 + O(ε/log(nm))`; the practical profile uses
    /// `a = (ε/2p)²`, i.e. a per-counter relative error of about `ε/(2p)` (a frequency
    /// error of `ε/p` becomes an `ε` error after raising to the `p`-th power), with the
    /// constant failure probability boosted by the `R` repetitions.
    pub fn morris_growth(&self) -> f64 {
        match self.profile {
            Profile::Practical => {
                let acc = self.eps / (2.0 * self.p.max(1.0));
                (acc * acc).clamp(1e-6, 1.0)
            }
            Profile::PaperFaithful => {
                let acc = self.eps / (8.0 * self.log_nm());
                (2.0 * acc * acc * self.delta).clamp(1e-9, 1.0)
            }
        }
    }

    /// Number of stream-subsampling levels `Y = O(log m)` of `FullSampleAndHold`
    /// (Algorithm 2, line 1).
    pub fn stream_levels(&self) -> usize {
        ((self.stream_len_hint.max(2) as f64).log2().ceil() as usize + 1).max(2)
    }

    /// Number of universe-subsampling levels `L = O(p·log(nm))` of Algorithm 3.
    /// Levels beyond `log2(m) + 1` keep (in expectation) less than one item of any
    /// frequency class, so the practical profile stops there.
    pub fn universe_levels(&self) -> usize {
        ((self.stream_len_hint.max(2) as f64).log2().ceil() as usize + 1).max(2)
    }

    /// The level-set → subsampling-level offset `⌊log(γ²·log(nm)/ε²)⌋` of Algorithm 3
    /// (line 12); practical `⌊log2(survivor_target)⌋`.  Level set `i` is estimated from
    /// universe-subsampling level `ℓ = max(1, i − offset)`, so that in expectation about
    /// `survivor_target` members of the level set survive — few enough to fit in the
    /// reservoir (`κ = 4·survivor_target`), many enough to concentrate.
    pub fn level_offset(&self) -> usize {
        let value = match self.profile {
            Profile::Practical => self.survivor_target(),
            Profile::PaperFaithful => {
                let gamma = 2f64.powf(20.0 * self.p).min(1e12);
                gamma * gamma * self.log_nm() / (self.eps * self.eps)
            }
        };
        value.max(1.0).log2().floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Params {
        Params::new(2.0, 0.1, 1 << 16, 1 << 18)
    }

    #[test]
    fn sample_probability_scales_as_n_to_one_minus_one_over_p() {
        let small = Params::new(2.0, 0.1, 1 << 10, 1 << 12);
        let large = Params::new(2.0, 0.1, 1 << 16, 1 << 18);
        let ratio = (large.sample_prob(1 << 18) * (1u64 << 18) as f64)
            / (small.sample_prob(1 << 12) * (1u64 << 12) as f64);
        // n grows by 2^6, so n^{1/2} grows by 2^3 = 8 (up to the log factor).
        assert!(ratio > 6.0 && ratio < 16.0, "ratio {ratio}");
    }

    #[test]
    fn sample_probability_is_a_probability() {
        for p in [1.0, 1.5, 2.0, 3.0] {
            for n in [16usize, 1 << 10, 1 << 20] {
                let params = Params::new(p, 0.2, n, 4 * n);
                let prob = params.sample_prob(4 * n);
                assert!((0.0..=1.0).contains(&prob), "p={p} n={n} prob={prob}");
            }
        }
    }

    #[test]
    fn space_budgets_are_sublinear_for_large_p_and_polylog_for_small_p() {
        let p3 = Params::new(3.0, 0.1, 1 << 18, 1 << 20);
        let p15 = Params::new(1.5, 0.1, 1 << 18, 1 << 20);
        let m = 1usize << 20;
        assert!(
            p3.counter_budget(m, 0.5) > p15.counter_budget(m, 0.5),
            "p>2 needs the extra n^{{1-2/p}} counter allowance"
        );
        assert!(
            p15.counter_budget(m, 0.5) < 100_000,
            "p<2 space should be polylog-sized"
        );
        assert!(
            p3.counter_budget(m, 0.5) < (1 << 18) / 2,
            "space must stay sublinear in n"
        );
        assert!(p15.kappa(m) >= 16);
        assert!(p3.kappa(m) >= p3.survivor_target() as usize);
    }

    #[test]
    fn paper_faithful_constants_are_larger() {
        let practical = base();
        let faithful = base().paper_faithful();
        let m = 1 << 18;
        assert!(faithful.kappa(m) >= practical.kappa(m));
        assert!(faithful.sample_prob(m) >= practical.sample_prob(m));
        assert!(faithful.morris_growth() <= practical.morris_growth());
        assert!(
            faithful.counter_budget(m, 0.5) >= practical.counter_budget(m, 0.5),
            "paper budget should dominate"
        );
    }

    #[test]
    fn derived_levels_are_logarithmic() {
        let params = base();
        assert_eq!(params.stream_levels(), 19);
        assert_eq!(params.universe_levels(), 19);
        assert!(params.level_offset() >= 8);
        assert!(params.level_offset() <= 24);
    }

    #[test]
    fn builder_methods_apply() {
        let p = base().with_seed(7).with_reps(5);
        assert_eq!(p.seed, 7);
        assert_eq!(p.reps, 5);
        assert_eq!(p.profile, Profile::Practical);
        assert_eq!(p.tracker, TrackerKind::Full);
    }

    #[test]
    fn tracker_kind_selection_flows_into_make_tracker() {
        assert_eq!(base().make_tracker().kind(), TrackerKind::Full);
        assert_eq!(
            base()
                .with_tracker(TrackerKind::FullAddressTracked)
                .make_tracker()
                .kind(),
            TrackerKind::FullAddressTracked
        );
    }

    #[test]
    #[should_panic]
    fn p_below_one_is_rejected() {
        let _ = Params::new(0.5, 0.1, 10, 10);
    }
}
