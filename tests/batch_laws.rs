//! Batch laws: the specialized `process_batch` kernels must be **observably
//! identical** to driving the same
//! algorithm with per-item `update` calls — same answers, same `StateReport`
//! (epochs, state changes, word writes, redundant writes, reads, space), and same
//! per-address wear tables — for every batch split and every seed.
//!
//! Every production `StreamAlgorithm` implementation in the workspace is covered
//! (the only other impl, the bench-only `LegacyRowsCountMin` reference in
//! `fsc-bench`, uses the default batch path by construction).  Algorithms whose
//! constructors accept a tracker run under `StateTracker::with_address_tracking`,
//! so the comparison pins the full wear table, not just aggregate counters.  The
//! lane-packed sketches also run under the plain exact tracker, whose kernels skip
//! the wear-address pass, and over streams whose blocks mix key widths, since their
//! tabulation hash looks up only the key bytes a block sets.

use few_state_changes::algorithms::sparse_recovery::FewStateSparseRecovery;
use few_state_changes::algorithms::{
    EntropyFewState, FewStateHeavyHitters, FpEstimator, FpSmallEstimator, FullSampleAndHold,
    Params, SampleAndHold,
};
use few_state_changes::baselines::{
    AmsSketch, CountMin, CountSketch, ExactCounting, MisraGries, PickAndDrop, SampleAndHoldClassic,
    SpaceSaving,
};
use few_state_changes::state::{
    EntropyEstimator, FrequencyEstimator, MomentEstimator, Snapshot, StateTracker, StreamAlgorithm,
    SupportRecovery, TrackerKind,
};
use few_state_changes::streamgen::uniform::uniform_stream;
use few_state_changes::streamgen::zipf::zipf_stream;

use proptest::prelude::*;

/// Drives one instance per item and a twin in batches cut at `cuts` (empty batches
/// included), both on address-tracked trackers, then asserts report, wear-table,
/// and answer-digest equality.
fn check_batch_law<A: StreamAlgorithm>(
    make: impl Fn(&StateTracker) -> A,
    digest: impl Fn(&A) -> Vec<u64>,
    stream: &[u64],
    cuts: &[usize],
) {
    check_batch_law_as(TrackerKind::FullAddressTracked, make, digest, stream, cuts);
}

/// [`check_batch_law`] on trackers of `kind`; the wear tables are compared where
/// `kind` keeps them (both are `None` otherwise).  Returns the per-item side.
fn check_batch_law_as<A: StreamAlgorithm>(
    kind: TrackerKind,
    make: impl Fn(&StateTracker) -> A,
    digest: impl Fn(&A) -> Vec<u64>,
    stream: &[u64],
    cuts: &[usize],
) -> A {
    let t_item = StateTracker::of_kind(kind);
    let mut per_item = make(&t_item);
    for &x in stream {
        per_item.update(x);
    }

    let t_batch = StateTracker::of_kind(kind);
    let mut batched = make(&t_batch);
    let mut sorted: Vec<usize> = cuts.iter().map(|&c| c.min(stream.len())).collect();
    sorted.sort_unstable();
    let mut prev = 0usize;
    for &c in &sorted {
        batched.process_batch(&stream[prev..c.max(prev)]);
        prev = prev.max(c);
    }
    batched.process_batch(&stream[prev..]);

    let name = format!("{} [{kind:?}]", per_item.name());
    assert_eq!(
        batched.report(),
        per_item.report(),
        "{name}: batched report diverged"
    );
    assert_eq!(
        batched.tracker().address_writes(),
        per_item.tracker().address_writes(),
        "{name}: batched wear table diverged"
    );
    assert_eq!(
        digest(&batched),
        digest(&per_item),
        "{name}: batched answers diverged"
    );
    per_item
}

fn frequency_digest<A: FrequencyEstimator>(alg: &A) -> Vec<u64> {
    let mut items = alg.tracked_items();
    items.sort_unstable();
    let mut out = items.clone();
    out.extend(items.iter().map(|&i| alg.estimate(i).to_bits()));
    out.extend((0u64..64).map(|i| alg.estimate(i).to_bits()));
    out
}

/// [`frequency_digest`] plus the checkpoint bytes: the whole counter table and
/// tracker state, so a probe that lands in the wrong cell shows even where no
/// queried estimate moves.
fn table_digest<A: FrequencyEstimator + Snapshot>(alg: &A) -> Vec<u64> {
    let mut d = frequency_digest(alg);
    d.extend(alg.checkpoint().into_iter().map(u64::from));
    d
}

/// Items per block of the lane-packed kernels (`LANE_BLOCK` in `fsc-baselines`):
/// the unit whose keys share one significant-byte count.
const BLOCK: usize = 256;

/// A stream whose blocks, fed as one batch, mix key widths: an all-zero block;
/// a narrow block holding one `u64::MAX`; for each `k = 1..=8`, a block of keys
/// below `2^(8k)` that holds `2^(8k) − 1`; and a last block of every
/// `2^(8k) − 1` / `2^(8k)` boundary pair, each key twice.
fn mixed_width_stream(seed: u64) -> Vec<u64> {
    let mut stream = vec![0u64; BLOCK];
    let mut narrow = zipf_stream(256, BLOCK, 1.1, seed);
    narrow[BLOCK / 3] = u64::MAX;
    stream.extend(narrow);
    let mut x = seed;
    for k in 1..=8u32 {
        let mask = u64::MAX >> (64 - 8 * k);
        stream.push(mask);
        stream.extend((1..BLOCK).map(|_| {
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x14057B7EF767814F);
            (x >> 7) & mask
        }));
    }
    for k in 1..8u32 {
        let boundary = 1u64 << (8 * k);
        stream.extend([boundary - 1, boundary, boundary - 1, boundary]);
    }
    stream
}

/// Blocks of every key width, cut as one batch (blocks aligned as built) and at
/// offsets that realign them, under both tracker kinds and every lane width.
#[test]
fn mixed_width_blocks_obey_the_batch_law() {
    let cut_sets: [&[usize]; 4] = [&[], &[1], &[BLOCK - 1, BLOCK + 1], &[100, 700, 1500, 2100]];
    for seed in [1u64, 2, 3] {
        let stream = mixed_width_stream(seed);
        for kind in [TrackerKind::Full, TrackerKind::FullAddressTracked] {
            for &w in &few_state_changes::counters::lanes::LANE_WIDTHS {
                for cuts in cut_sets {
                    check_batch_law_as(
                        kind,
                        |t| CountMin::with_tracker(t, 64, 4, seed).with_lanes(w),
                        table_digest,
                        &stream,
                        cuts,
                    );
                    check_batch_law_as(
                        kind,
                        |t| CountSketch::with_tracker(t, 64, 3, seed).with_lanes(w),
                        table_digest,
                        &stream,
                        cuts,
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Baseline sketches and summaries: batch kernels (specialized for AMS,
    /// CountMin, CountSketch; default path for the others) ≡ per-item updates.
    #[test]
    fn baseline_kernels_obey_the_batch_law(
        seed in 0u64..1_000,
        len in 1usize..400,
        cuts in proptest::collection::vec(0usize..400, 0..5),
    ) {
        let stream = zipf_stream(256, len, 1.1, seed);

        check_batch_law(
            |t| AmsSketch::with_tracker(t, 3, 16, seed),
            |a| vec![a.estimate_moment().to_bits()],
            &stream,
            &cuts,
        );
        check_batch_law(
            |t| CountMin::with_tracker(t, 64, 4, seed),
            frequency_digest,
            &stream,
            &cuts,
        );
        check_batch_law(
            |t| CountSketch::with_tracker(t, 64, 3, seed),
            frequency_digest,
            &stream,
            &cuts,
        );
        check_batch_law(
            |t| MisraGries::with_tracker(t, 8),
            frequency_digest,
            &stream,
            &cuts,
        );
        check_batch_law(
            |t| SpaceSaving::with_tracker(t, 8),
            frequency_digest,
            &stream,
            &cuts,
        );
        check_batch_law(
            |t| ExactCounting::with_tracker(t, 2.0),
            |a| {
                let mut d = frequency_digest(a);
                d.push(a.estimate_moment().to_bits());
                d.push(a.estimate_entropy().to_bits());
                d
            },
            &stream,
            &cuts,
        );
        check_batch_law(
            |_| SampleAndHoldClassic::new(0.08, seed),
            frequency_digest,
            &stream,
            &cuts,
        );
        check_batch_law(
            |_| PickAndDrop::new(16, 3, seed),
            |a| a.candidates().into_iter().flat_map(|(i, c)| [i, c]).collect(),
            &stream,
            &cuts,
        );
        check_batch_law(
            |t| FewStateSparseRecovery::with_tracker(48, t),
            |a| {
                let mut d = a.recovered_support();
                d.push(a.overflowed() as u64);
                d
            },
            &stream,
            &cuts,
        );
    }

    /// The paper's algorithms: the read-accumulating, level-precomputing batch
    /// kernels ≡ per-item updates (answers, reports, wear, and the shared-rng
    /// sequences they must not perturb).
    #[test]
    fn fsc_kernels_obey_the_batch_law(
        seed in 0u64..1_000,
        len in 64usize..512,
        cuts in proptest::collection::vec(0usize..512, 0..5),
    ) {
        let n = 256;
        let stream = zipf_stream(n, len, 1.2, seed);
        let params = Params::new(2.0, 0.3, n, stream.len()).with_seed(seed);

        check_batch_law(
            |t| SampleAndHold::new(&params, stream.len(), t, seed),
            frequency_digest,
            &stream,
            &cuts,
        );
        check_batch_law(
            |t| FullSampleAndHold::new(&params, t, seed),
            frequency_digest,
            &stream,
            &cuts,
        );
        check_batch_law(
            |_| {
                FewStateHeavyHitters::new(
                    params.clone().with_tracker(TrackerKind::FullAddressTracked),
                )
            },
            |a| {
                let mut d = frequency_digest(a);
                d.push(a.rough_fp().to_bits());
                d
            },
            &stream,
            &cuts,
        );
        check_batch_law(
            |t| FpEstimator::with_tracker(params.clone(), t),
            |a| vec![a.estimate_moment().to_bits()],
            &stream,
            &cuts,
        );
        check_batch_law(
            |t| FpSmallEstimator::with_tracker(0.5, 0.4, seed, t),
            |a| vec![a.estimate_moment().to_bits()],
            &stream,
            &cuts,
        );
        check_batch_law(
            |_| EntropyFewState::new(0.3, n, stream.len(), seed),
            |a| vec![a.estimate_entropy().to_bits()],
            &stream,
            &cuts,
        );
    }

    /// Lane-width sweep: the lane-packed sketch kernels must be bit-identical to
    /// the per-item path — answers, StateReports, and per-address wear — at
    /// *every* supported width (1 is the scalar fallback, 8 the default), for
    /// random batch splits and seeds.  The per-width instances run under address
    /// tracking, so a lane kernel that writes the right totals to the wrong cells
    /// (or in the wrong epochs) is caught here, not just one that miscounts; and
    /// CountMin and CountSketch run under the plain exact tracker too, whose
    /// kernels skip the address pass.
    #[test]
    fn lane_widths_are_observably_identical(
        seed in 0u64..1_000,
        len in 1usize..400,
        cuts in proptest::collection::vec(0usize..400, 0..5),
    ) {
        let stream = zipf_stream(256, len, 1.1, seed);

        for &w in &few_state_changes::counters::lanes::LANE_WIDTHS {
            for kind in [TrackerKind::Full, TrackerKind::FullAddressTracked] {
                check_batch_law_as(
                    kind,
                    |t| CountMin::with_tracker(t, 64, 4, seed).with_lanes(w),
                    table_digest,
                    &stream,
                    &cuts,
                );
                check_batch_law_as(
                    kind,
                    |t| CountSketch::with_tracker(t, 64, 3, seed).with_lanes(w),
                    table_digest,
                    &stream,
                    &cuts,
                );
            }
            check_batch_law(
                |t| AmsSketch::with_tracker(t, 3, 16, seed).with_lanes(w),
                |a| vec![a.estimate_moment().to_bits()],
                &stream,
                &cuts,
            );
        }
    }
}

/// The ensembles over several kernel blocks (`BATCH_BLOCK` = 1024 items in
/// `fsc`) with batches cut inside blocks, on a flat stream whose coarse accuracy
/// keeps the counter budgets small: held counters outgrow them and maintenance
/// drops counters mid-block.  Both tracker kinds; the digest holds the
/// checkpoint bytes and the count of counters maintenance dropped, so the whole
/// held-counter table, tracker state and drops compare.  Each per-item run must
/// have dropped a counter, so the case cannot quietly stop running maintenance;
/// where a run ends below its peak space, that is asserted too (seed 4's
/// heavy-hitter run refills to its peak by the end).
#[test]
fn ensembles_obey_the_batch_law_across_blocks_and_through_maintenance() {
    let (n, len) = (1024, 4096);
    let cut_sets: [&[usize]; 3] = [&[], &[1000, 3100], &[1, 1025, 1500, 2047, 2049]];
    for seed in 1u64..=6 {
        let stream = uniform_stream(n, len, seed);
        let params = Params::new(2.0, 0.9, n, len).with_seed(seed);
        for kind in [TrackerKind::Full, TrackerKind::FullAddressTracked] {
            for cuts in cut_sets {
                let hh = check_batch_law_as(
                    kind,
                    |_| FewStateHeavyHitters::new(params.clone().with_tracker(kind)),
                    |a| {
                        let mut d = table_digest(a);
                        d.push(a.maintenance_drops());
                        d
                    },
                    &stream,
                    cuts,
                );
                let fp = check_batch_law_as(
                    kind,
                    |t| FpEstimator::with_tracker(params.clone(), t),
                    |a| {
                        let mut d = vec![a.estimate_moment().to_bits(), a.maintenance_drops()];
                        d.extend(a.checkpoint().into_iter().map(u64::from));
                        d
                    },
                    &stream,
                    cuts,
                );
                let runs = [
                    ("heavy hitters", hh.maintenance_drops(), hh.report()),
                    ("Fp", fp.maintenance_drops(), fp.report()),
                ];
                for (alg, drops, r) in runs {
                    assert!(
                        drops > 0,
                        "seed {seed} {alg}: maintenance never dropped a counter: {r:?}"
                    );
                    if (seed, alg) != (4, "heavy hitters") {
                        assert!(
                            r.words_peak > r.words_current,
                            "seed {seed} {alg}: the run ended at its peak space: {r:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Degenerate inputs: empty streams, empty batches, and one repeated item must all
/// agree with the per-item path.
#[test]
fn batch_law_handles_degenerate_inputs() {
    check_batch_law(
        |t| CountMin::with_tracker(t, 16, 2, 1),
        frequency_digest,
        &[],
        &[0, 0, 3],
    );
    check_batch_law(
        |t| AmsSketch::with_tracker(t, 2, 8, 2),
        |a| vec![a.estimate_moment().to_bits()],
        &[7],
        &[0, 1, 1],
    );
    check_batch_law(
        |t| SpaceSaving::with_tracker(t, 4),
        frequency_digest,
        &[9, 9, 9, 9],
        &[1, 1, 4],
    );
}
