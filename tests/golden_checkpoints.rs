//! Golden checkpoints of the paper's kernels.
//!
//! The batch and snapshot laws compare two paths *within one build*, so a change
//! that alters both paths alike — a different rng consumption order, a new layout
//! of the held-counter table, a drifted acceptance probability — passes them while
//! silently changing every recorded result and breaking the restore of checkpoints
//! already on disk.  This test pins, for `SampleAndHold`, `FullSampleAndHold`,
//! `FewStateHeavyHitters` and `FpEstimator` on fixed seeded zipf streams, the
//! checkpoint length, an FNV-1a digest of the checkpoint bytes, and the full
//! [`StateReport`] under the address-tracked backend.  One input keeps every held
//! counter; the other overflows the counter budget, so maintenance drops counters.
//!
//! A hot-path optimisation must leave every entry unchanged.  An *intentional*
//! behaviour change re-records the table from the failure messages (each prints the
//! actual entry) and says so in its description.

use few_state_changes::algorithms::{
    FewStateHeavyHitters, FpEstimator, FullSampleAndHold, Params, SampleAndHold,
};
use few_state_changes::state::{Snapshot, StateReport, StreamAlgorithm, TrackerKind};
use few_state_changes::streamgen::zipf::zipf_stream;

/// Length of every golden stream.
const LEN: usize = 1 << 14;
/// Batch size the stream is fed in: deliberately not a divisor of the kernels'
/// internal block size, so partial blocks are exercised.
const CHUNK: usize = 777;

/// A fixed seeded input: a zipf stream and the parameters the summaries are
/// built for.
struct Input {
    universe: usize,
    skew: f64,
    eps: f64,
    len_hint: usize,
}

/// Summaries sized for the stream: no counter is ever dropped.
const STEADY: Input = Input {
    universe: 1 << 12,
    skew: 1.1,
    eps: 0.2,
    len_hint: LEN,
};

/// A flatter stream, coarser accuracy and summaries sized for a 64× shorter
/// stream: held counters outgrow the budget and time-bucketed maintenance drops
/// them (`words_current < words_peak`).
const CHURN: Input = Input {
    universe: 1 << 14,
    skew: 0.8,
    eps: 0.5,
    len_hint: LEN / 64,
};

impl Input {
    fn params(&self, p: f64) -> Params {
        Params::new(p, self.eps, self.universe, self.len_hint)
            .with_seed(0x601D)
            .with_tracker(TrackerKind::FullAddressTracked)
    }
}

/// One pinned checkpoint.
struct Golden {
    len: usize,
    fnv: u64,
    report: StateReport,
}

/// FNV-1a over the checkpoint bytes (the digest the delta format also uses).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Feeds `input`'s stream in chunks, checkpoints, and compares against `golden`;
/// then restores the checkpoint and requires the restored instance to re-checkpoint
/// to the same bytes.
fn check<A: StreamAlgorithm + Snapshot>(label: &str, mut alg: A, input: &Input, golden: &Golden) {
    let stream = zipf_stream(input.universe, LEN, input.skew, 13);
    for chunk in stream.chunks(CHUNK) {
        alg.process_batch(chunk);
    }
    let bytes = alg.checkpoint();
    let report = alg.report();
    let actual = format!(
        "len: {}, fnv: {:#018x}, report: {:?}",
        bytes.len(),
        fnv1a(&bytes),
        report
    );
    assert_eq!(bytes.len(), golden.len, "{label} length drifted: {actual}");
    assert_eq!(fnv1a(&bytes), golden.fnv, "{label} bytes drifted: {actual}");
    assert_eq!(report, golden.report, "{label} report drifted: {actual}");
    let restored = A::restore(&bytes).unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    assert_eq!(
        restored.checkpoint(),
        bytes,
        "{label}: re-checkpoint differs"
    );
}

#[test]
fn sample_and_hold_checkpoint_is_golden() {
    check(
        "SampleAndHold",
        SampleAndHold::standalone(&STEADY.params(2.0)),
        &STEADY,
        &Golden {
            len: 126_919,
            fnv: 0xb263_ffc2_0187_e425,
            report: StateReport {
                state_changes: 10_347,
                word_writes: 15_364,
                redundant_writes: 0,
                reads: 33_474,
                epochs: 16_384,
                words_current: 5_723,
                words_peak: 5_723,
                max_cell_writes: Some(840),
                tracked_cells: Some(5_723),
                total_addr_writes: Some(14_658),
            },
        },
    );
}

#[test]
fn full_sample_and_hold_checkpoint_is_golden() {
    check(
        "FullSampleAndHold",
        FullSampleAndHold::standalone(&STEADY.params(2.0)),
        &STEADY,
        &Golden {
            len: 4_250_467,
            fnv: 0x3a11_69ab_55cf_afc8,
            report: StateReport {
                state_changes: 15_728,
                word_writes: 245_971,
                redundant_writes: 0,
                reads: 202_187,
                epochs: 16_384,
                words_current: 179_676,
                words_peak: 179_676,
                max_cell_writes: Some(831),
                tracked_cells: Some(179_676),
                total_addr_writes: Some(240_154),
            },
        },
    );
}

#[test]
fn few_state_heavy_hitters_checkpoint_is_golden() {
    check(
        "FewStateHeavyHitters",
        FewStateHeavyHitters::new(STEADY.params(2.0)),
        &STEADY,
        &Golden {
            len: 4_250_470,
            fnv: 0x6108_995e_0b2b_9639,
            report: StateReport {
                state_changes: 15_728,
                word_writes: 245_971,
                redundant_writes: 0,
                reads: 202_187,
                epochs: 16_384,
                words_current: 179_676,
                words_peak: 179_676,
                max_cell_writes: Some(831),
                tracked_cells: Some(179_676),
                total_addr_writes: Some(240_154),
            },
        },
    );
}

#[test]
fn fp_estimator_checkpoint_is_golden() {
    check(
        "FpEstimator",
        FpEstimator::new(STEADY.params(3.0)),
        &STEADY,
        &Golden {
            len: 4_290_177,
            fnv: 0xa5b7_4b7e_43b6_18a7,
            report: StateReport {
                state_changes: 16_263,
                word_writes: 259_572,
                redundant_writes: 0,
                reads: 259_182,
                epochs: 16_384,
                words_current: 182_691,
                words_peak: 182_691,
                max_cell_writes: Some(1_257),
                tracked_cells: Some(182_691),
                total_addr_writes: Some(252_750),
            },
        },
    );
}

#[test]
fn sample_and_hold_checkpoint_under_maintenance_is_golden() {
    check(
        "SampleAndHold (churn)",
        SampleAndHold::standalone(&CHURN.params(2.0)),
        &CHURN,
        &Golden {
            len: 42_902,
            fnv: 0x1418_9ccb_5e44_5152,
            report: StateReport {
                state_changes: 14_815,
                word_writes: 17_386,
                redundant_writes: 0,
                reads: 34_592,
                epochs: 16_384,
                words_current: 1_295,
                words_peak: 2_048,
                max_cell_writes: Some(151),
                tracked_cells: Some(2_840),
                total_addr_writes: Some(16_087),
            },
        },
    );
}

#[test]
fn few_state_heavy_hitters_checkpoint_under_maintenance_is_golden() {
    check(
        "FewStateHeavyHitters (churn)",
        FewStateHeavyHitters::new(CHURN.params(2.0)),
        &CHURN,
        &Golden {
            len: 637_400,
            fnv: 0xba87_489e_b9d5_9601,
            report: StateReport {
                state_changes: 16_202,
                word_writes: 116_144,
                redundant_writes: 0,
                reads: 204_066,
                epochs: 16_384,
                words_current: 25_482,
                words_peak: 26_730,
                max_cell_writes: Some(144),
                tracked_cells: Some(29_328),
                total_addr_writes: Some(109_478),
            },
        },
    );
}

#[test]
fn fp_estimator_checkpoint_under_maintenance_is_golden() {
    check(
        "FpEstimator (churn)",
        FpEstimator::new(CHURN.params(3.0)),
        &CHURN,
        &Golden {
            len: 711_712,
            fnv: 0x7170_6a15_ddc6_b73f,
            report: StateReport {
                state_changes: 16_327,
                word_writes: 119_432,
                redundant_writes: 0,
                reads: 254_994,
                epochs: 16_384,
                words_current: 30_486,
                words_peak: 31_554,
                max_cell_writes: Some(232),
                tracked_cells: Some(33_531),
                total_addr_writes: Some(111_632),
            },
        },
    );
}
