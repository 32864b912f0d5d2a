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
//! `FewStateHeavyHitters` and `FpEstimator` are also pinned freshly built and after
//! one chunk, while their reservoirs are unwritten or partly written.
//! Both are pinned once more as the kernel benchmark builds and feeds them.
//! `CountMin`, the baseline kernel under every serve tenant, is pinned on the
//! first input under both tracker kinds.
//!
//! A hot-path optimisation must leave every entry unchanged.  An *intentional*
//! behaviour change re-records the table from the failure messages (each prints the
//! actual entry) and says so in its description.

use few_state_changes::algorithms::{
    FewStateHeavyHitters, FpEstimator, FullSampleAndHold, Params, SampleAndHold,
};
use few_state_changes::baselines::CountMin;
use few_state_changes::state::{Snapshot, StateReport, StateTracker, StreamAlgorithm, TrackerKind};
use few_state_changes::streamgen::zipf::zipf_stream;
use fsc_bench::registry::{spec, MakeCtx};

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
fn check<A: StreamAlgorithm + Snapshot>(label: &str, alg: A, input: &Input, golden: &Golden) {
    check_prefix(label, alg, input, LEN, golden);
}

/// [`check`] after only the first `items` updates of the stream.
fn check_prefix<A: StreamAlgorithm + Snapshot>(
    label: &str,
    mut alg: A,
    input: &Input,
    items: usize,
    golden: &Golden,
) {
    let stream = zipf_stream(input.universe, LEN, input.skew, 13);
    for chunk in stream[..items].chunks(CHUNK) {
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

/// Freshly built and after one chunk, the ensembles' reservoirs are unwritten or
/// partly written and their free-slot stacks are full or part-used: the state
/// every restore and every short-lived summary checkpoints.
#[test]
fn ensembles_checkpoint_fresh_and_after_one_chunk_are_golden() {
    for (items, fshh, fp) in [
        (
            0,
            Golden {
                len: 3_896_849,
                fnv: 0x188e_ddc1_3b96_07bd,
                report: StateReport {
                    state_changes: 0,
                    word_writes: 162_225,
                    redundant_writes: 0,
                    reads: 0,
                    epochs: 0,
                    words_current: 162_225,
                    words_peak: 162_225,
                    max_cell_writes: Some(1),
                    tracked_cells: Some(162_225),
                    total_addr_writes: Some(162_225),
                },
            },
            Golden {
                len: 3_896_806,
                fnv: 0x257b_2eb9_1b0f_4c2b,
                report: StateReport {
                    state_changes: 0,
                    word_writes: 162_225,
                    redundant_writes: 0,
                    reads: 0,
                    epochs: 0,
                    words_current: 162_225,
                    words_peak: 162_225,
                    max_cell_writes: Some(1),
                    tracked_cells: Some(162_225),
                    total_addr_writes: Some(162_225),
                },
            },
        ),
        (
            CHUNK,
            Golden {
                len: 3_922_235,
                fnv: 0x1dd9_31ac_6e83_f083,
                report: StateReport {
                    state_changes: 757,
                    word_writes: 166_539,
                    redundant_writes: 0,
                    reads: 9_704,
                    epochs: 777,
                    words_current: 163_311,
                    words_peak: 163_311,
                    max_cell_writes: Some(109),
                    tracked_cells: Some(163_311),
                    total_addr_writes: Some(166_177),
                },
            },
            Golden {
                len: 3_927_616,
                fnv: 0x899a_21b8_287b_31fc,
                report: StateReport {
                    state_changes: 777,
                    word_writes: 167_944,
                    redundant_writes: 0,
                    reads: 12_595,
                    epochs: 777,
                    words_current: 163_545,
                    words_peak: 163_545,
                    max_cell_writes: Some(119),
                    tracked_cells: Some(163_545),
                    total_addr_writes: Some(167_504),
                },
            },
        ),
    ] {
        check_prefix(
            &format!("FewStateHeavyHitters ({items} items)"),
            FewStateHeavyHitters::new(STEADY.params(2.0)),
            &STEADY,
            items,
            &fshh,
        );
        check_prefix(
            &format!("FpEstimator ({items} items)"),
            FpEstimator::new(STEADY.params(3.0)),
            &STEADY,
            items,
            &fp,
        );
    }
}

/// CountMin, the write-every-update baseline under every serve tenant: its
/// batch kernel's hash, accounting and wear paths are pinned under both tracker
/// kinds (the plain exact tracker skips the wear-address pass).
#[test]
fn count_min_checkpoint_is_golden() {
    for (kind, golden) in [
        (
            TrackerKind::FullAddressTracked,
            Golden {
                len: 65_665,
                fnv: 0xbed6_9488_192c_0190,
                report: StateReport {
                    state_changes: 16_384,
                    word_writes: 69_632,
                    redundant_writes: 0,
                    reads: 65_536,
                    epochs: 16_384,
                    words_current: 4_096,
                    words_peak: 4_096,
                    max_cell_writes: Some(2_656),
                    tracked_cells: Some(4_096),
                    total_addr_writes: Some(69_632),
                },
            },
        ),
        (
            TrackerKind::Full,
            Golden {
                len: 32_889,
                fnv: 0x2082_421b_1dd3_5e8c,
                report: StateReport {
                    state_changes: 16_384,
                    word_writes: 69_632,
                    redundant_writes: 0,
                    reads: 65_536,
                    epochs: 16_384,
                    words_current: 4_096,
                    words_peak: 4_096,
                    max_cell_writes: None,
                    tracked_cells: None,
                    total_addr_writes: None,
                },
            },
        ),
    ] {
        let tracker = StateTracker::of_kind(kind);
        let label = format!("CountMin [{kind:?}]");
        check(
            &label,
            CountMin::with_tracker(&tracker, 1024, 4, 0x601D),
            &STEADY,
            &golden,
        );
    }
}

/// The ensembles exactly as the kernel benchmark builds and feeds them: from the
/// registry at its sizes (`MakeCtx::new(1 << 14, 4 Mi)`, plain exact tracker),
/// fed the first 16 of its 1024-item batches of `zipf_stream(1 << 14, …, 1.1, 1)`.
/// Every batch is a whole kernel block, so the block-level paths of the batch
/// kernel are pinned at the sizes whose speed is measured.
#[test]
fn ensembles_at_the_benchmark_size_are_golden() {
    fn check_registry<A: Snapshot>(id: &str, golden: &Golden) {
        let ctx = MakeCtx::new(1 << 14, 4 << 20);
        let mut alg = (spec(id).expect("registered algorithm").snapshot)(&ctx);
        for batch in zipf_stream(1 << 14, 16 << 10, 1.1, 1).chunks(1 << 10) {
            alg.process_batch(batch);
        }
        let bytes = alg.checkpoint();
        let report = alg.report();
        let actual = format!(
            "len: {}, fnv: {:#018x}, report: {:?}",
            bytes.len(),
            fnv1a(&bytes),
            report
        );
        assert_eq!(bytes.len(), golden.len, "{id} length drifted: {actual}");
        assert_eq!(fnv1a(&bytes), golden.fnv, "{id} bytes drifted: {actual}");
        assert_eq!(report, golden.report, "{id} report drifted: {actual}");
        let restored = A::restore(&bytes).unwrap_or_else(|e| panic!("{id}: restore failed: {e}"));
        assert_eq!(restored.checkpoint(), bytes, "{id}: re-checkpoint differs");
    }
    check_registry::<FewStateHeavyHitters>(
        "few_state_heavy_hitters",
        &Golden {
            len: 3_548_307,
            fnv: 0xef85_c75f_f50e_795a,
            report: StateReport {
                state_changes: 7_258,
                word_writes: 237_926,
                redundant_writes: 0,
                reads: 196_230,
                epochs: 16_384,
                words_current: 221_751,
                words_peak: 221_751,
                max_cell_writes: None,
                tracked_cells: None,
                total_addr_writes: None,
            },
        },
    );
    check_registry::<FpEstimator>(
        "fp_estimator",
        &Golden {
            len: 2_465_571,
            fnv: 0xad0a_3be8_7686_d81a,
            report: StateReport {
                state_changes: 6_975,
                word_writes: 166_538,
                redundant_writes: 0,
                reads: 232_578,
                epochs: 16_384,
                words_current: 154_089,
                words_peak: 154_089,
                max_cell_writes: None,
                tracked_cells: None,
                total_addr_writes: None,
            },
        },
    );
}
