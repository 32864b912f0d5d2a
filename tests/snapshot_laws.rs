//! Snapshot laws: `restore(checkpoint(a))` must be **observably identical** to `a` —
//! same answers, same [`StateReport`], same per-address wear table — and, because
//! internal randomness and caches are part of the serialized state, it must stay
//! identical on any stream processed *after* the restore.
//!
//! The check mirrors `tests/batch_laws.rs`: every production `StreamAlgorithm`
//! implementation is driven to a random checkpoint position on a random-seed stream,
//! checkpointed, restored, and compared against both the checkpointed instance and an
//! uninterrupted twin that processed the whole stream — reports, wear tables, answer
//! digests, and (for determinism) the checkpoint bytes themselves.  Algorithms whose
//! constructors accept a tracker run under `StateTracker::with_address_tracking`, so
//! the comparison pins the full wear table, not just aggregate counters.
//!
//! Corrupt-input behaviour is pinned separately: truncations and header corruptions
//! of real checkpoints must surface as typed `SnapshotError`s, never panics.

use few_state_changes::algorithms::sparse_recovery::FewStateSparseRecovery;
use few_state_changes::algorithms::{
    EntropyFewState, FewStateHeavyHitters, FpEstimator, FpSmallEstimator, FullSampleAndHold,
    Params, SampleAndHold,
};
use few_state_changes::baselines::{
    AmsSketch, CountMin, CountSketch, ExactCounting, MisraGries, PickAndDrop, SampleAndHoldClassic,
    SpaceSaving,
};
use few_state_changes::counters::morris;
use few_state_changes::engine::{Engine, EngineAlgorithm, EngineConfig, Routing};
use few_state_changes::state::{
    EntropyEstimator, FrequencyEstimator, MomentEstimator, Query, Snapshot, SnapshotError,
    SnapshotReader, SnapshotWriter, StateTracker, StreamAlgorithm, SupportRecovery, TrackerKind,
};
use few_state_changes::streamgen::zipf::zipf_stream;

use proptest::prelude::*;

/// Drives `make`'s instance to `split`, checkpoints, restores, and asserts the full
/// observable-identity law (immediately and after the remaining suffix), against an
/// uninterrupted twin.
fn check_snapshot_law<A: StreamAlgorithm + Snapshot>(
    make: impl Fn(&StateTracker) -> A,
    digest: impl Fn(&A) -> Vec<u64>,
    stream: &[u64],
    split: usize,
) {
    let split = split.min(stream.len());

    let t_whole = StateTracker::with_address_tracking();
    let mut whole = make(&t_whole);
    whole.process_batch(&stream[..split]);

    let t_subject = StateTracker::with_address_tracking();
    let mut subject = make(&t_subject);
    subject.process_batch(&stream[..split]);

    let bytes = subject.checkpoint();
    let mut restored = A::restore(&bytes)
        .unwrap_or_else(|e| panic!("{}: restore failed at split {split}: {e}", subject.name()));
    let name = subject.name().to_string();

    // Immediate identity: report, wear, and (determinism) the re-checkpoint — byte
    // comparisons come first because answer digests legitimately charge tracked
    // reads on some summaries.
    assert_eq!(
        restored.report(),
        subject.report(),
        "{name}: report diverged"
    );
    assert_eq!(
        restored.tracker().address_writes(),
        subject.tracker().address_writes(),
        "{name}: wear table diverged"
    );
    assert_eq!(
        restored.checkpoint(),
        bytes,
        "{name}: re-checkpoint is not byte-identical"
    );
    // Digest all three instances so the read charges a digest makes stay symmetric
    // across the instances still being compared below.
    let answers_whole = digest(&whole);
    assert_eq!(
        digest(&restored),
        digest(&subject),
        "{name}: answers diverged"
    );
    assert_eq!(
        digest(&subject),
        answers_whole,
        "{name}: twin construction is not deterministic"
    );

    // Future behaviour: the restored instance processes the suffix exactly as the
    // uninterrupted twin does (rng, caches, and addresses all survived the round
    // trip).
    restored.process_batch(&stream[split..]);
    whole.process_batch(&stream[split..]);
    assert_eq!(
        restored.report(),
        whole.report(),
        "{name}: post-restore report diverged from the uninterrupted run"
    );
    assert_eq!(
        restored.tracker().address_writes(),
        whole.tracker().address_writes(),
        "{name}: post-restore wear diverged from the uninterrupted run"
    );
    assert_eq!(
        restored.checkpoint(),
        whole.checkpoint(),
        "{name}: post-restore checkpoint bytes diverged from the uninterrupted run"
    );
    assert_eq!(
        digest(&restored),
        digest(&whole),
        "{name}: post-restore answers diverged from the uninterrupted run"
    );
}

fn frequency_digest<A: FrequencyEstimator>(alg: &A) -> Vec<u64> {
    let mut items = alg.tracked_items();
    items.sort_unstable();
    let mut out = items.clone();
    out.extend(items.iter().map(|&i| alg.estimate(i).to_bits()));
    out.extend((0u64..64).map(|i| alg.estimate(i).to_bits()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Baseline sketches and summaries round-trip at arbitrary checkpoint positions.
    #[test]
    fn baseline_checkpoints_obey_the_snapshot_law(
        seed in 0u64..1_000,
        len in 1usize..400,
        split in 0usize..400,
    ) {
        let stream = zipf_stream(256, len, 1.1, seed);

        check_snapshot_law(
            |t| AmsSketch::with_tracker(t, 3, 16, seed),
            |a| vec![a.estimate_moment().to_bits()],
            &stream,
            split,
        );
        check_snapshot_law(
            |t| CountMin::with_tracker(t, 64, 4, seed),
            frequency_digest,
            &stream,
            split,
        );
        check_snapshot_law(
            |t| CountSketch::with_tracker(t, 64, 3, seed),
            frequency_digest,
            &stream,
            split,
        );
        check_snapshot_law(|t| MisraGries::with_tracker(t, 8), frequency_digest, &stream, split);
        check_snapshot_law(|t| SpaceSaving::with_tracker(t, 8), frequency_digest, &stream, split);
        check_snapshot_law(
            |t| ExactCounting::with_tracker(t, 2.0),
            |a| {
                let mut d = frequency_digest(a);
                d.push(a.estimate_moment().to_bits());
                d.push(a.estimate_entropy().to_bits());
                d.extend(a.recovered_support());
                d
            },
            &stream,
            split,
        );
        check_snapshot_law(
            |t| SampleAndHoldClassic::with_tracker(t, 0.08, seed),
            frequency_digest,
            &stream,
            split,
        );
        check_snapshot_law(
            |t| PickAndDrop::with_tracker(t, 16, 3, seed),
            |a| a.candidates().into_iter().flat_map(|(i, c)| [i, c]).collect(),
            &stream,
            split,
        );
        check_snapshot_law(
            |t| FewStateSparseRecovery::with_tracker(48, t),
            |a| {
                let mut d = a.recovered_support();
                d.push(a.overflowed() as u64);
                d
            },
            &stream,
            split,
        );
    }

    /// The paper's algorithms — including the held-counter tables whose Morris
    /// registers are allocated mid-stream — round-trip at arbitrary positions.
    #[test]
    fn fsc_checkpoints_obey_the_snapshot_law(
        seed in 0u64..1_000,
        len in 64usize..384,
        split in 0usize..384,
    ) {
        let n = 256;
        let stream = zipf_stream(n, len, 1.2, seed);
        let tracked = TrackerKind::FullAddressTracked;
        let params = Params::new(2.0, 0.3, n, stream.len())
            .with_seed(seed)
            .with_tracker(tracked);

        check_snapshot_law(
            |_| SampleAndHold::standalone(&params),
            frequency_digest,
            &stream,
            split,
        );
        check_snapshot_law(
            |_| FullSampleAndHold::standalone(&params),
            frequency_digest,
            &stream,
            split,
        );
        check_snapshot_law(
            |_| FewStateHeavyHitters::new(params.clone()),
            |a| {
                let mut d = frequency_digest(a);
                d.push(a.rough_fp().to_bits());
                d
            },
            &stream,
            split,
        );
        check_snapshot_law(
            |_| FpEstimator::new(params.clone()),
            |a| vec![a.estimate_moment().to_bits()],
            &stream,
            split,
        );
        check_snapshot_law(
            |t| FpSmallEstimator::with_tracker(0.5, 0.4, seed, t),
            |a| vec![a.estimate_moment().to_bits()],
            &stream,
            split,
        );
        check_snapshot_law(
            |_| {
                // EntropyFewState builds its own Params internally (Full tracker);
                // wear is None on both sides, and the law still pins reports/answers.
                EntropyFewState::new(0.3, n, stream.len(), seed)
            },
            |a| vec![a.estimate_entropy().to_bits()],
            &stream,
            split,
        );
    }
}

/// Degenerate positions: empty streams, checkpoint-before-anything, and
/// checkpoint-at-the-end must all round-trip.
#[test]
fn snapshot_law_handles_degenerate_positions() {
    check_snapshot_law(
        |t| CountMin::with_tracker(t, 16, 2, 1),
        frequency_digest,
        &[],
        0,
    );
    check_snapshot_law(
        |t| MisraGries::with_tracker(t, 4),
        frequency_digest,
        &[7, 7, 8],
        0,
    );
    check_snapshot_law(
        |t| AmsSketch::with_tracker(t, 2, 8, 2),
        |a| vec![a.estimate_moment().to_bits()],
        &[5, 6, 7],
        3,
    );
}

/// Round-trips **every** shard of a sharded engine individually — not just shard 0,
/// which the merged-query path already restores on every query — and reassembles an
/// engine from the restored shards, asserting the merged answers, combined report,
/// and engine checkpoint are identical to the original.
fn check_engine_shard_law<A: EngineAlgorithm>(
    make: impl FnMut(usize) -> A,
    digest: impl Fn(&A) -> Vec<u64>,
    stream: &[u64],
) {
    let config = EngineConfig {
        shards: 4,
        routing: Routing::RoundRobin,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(config, make);
    engine.ingest(stream);
    let name = engine.shard(0).name().to_string();

    let probes: Vec<Query> = (0..32u64)
        .map(Query::Point)
        .chain([Query::Moment])
        .collect();
    let merged_before = engine.query_many(&probes).expect("merged view");

    let mut restored_shards: Vec<A> = Vec::new();
    for i in 0..engine.shards() {
        let shard = engine.shard(i);
        let bytes = shard.checkpoint();
        let restored =
            A::restore(&bytes).unwrap_or_else(|e| panic!("{name}: shard {i} restore failed: {e}"));
        assert_eq!(
            restored.report(),
            shard.report(),
            "{name}: shard {i} report diverged"
        );
        assert_eq!(
            restored.tracker().address_writes(),
            shard.tracker().address_writes(),
            "{name}: shard {i} wear table diverged"
        );
        assert_eq!(
            restored.checkpoint(),
            bytes,
            "{name}: shard {i} re-checkpoint is not byte-identical"
        );
        // Digest both sides so read charges stay symmetric for the comparisons below.
        assert_eq!(
            digest(&restored),
            digest(shard),
            "{name}: shard {i} answers diverged"
        );
        restored_shards.push(restored);
    }

    // Engine-level recovery must agree with the per-shard round trips: every shard
    // of the restored engine is byte-identical to its individually restored twin,
    // and the restored engine resumes at the original ingest position.
    let mut rebuilt = Engine::<A>::restore(&engine.checkpoint())
        .unwrap_or_else(|e| panic!("{name}: engine restore failed: {e}"));
    assert_eq!(
        rebuilt.ingested(),
        engine.ingested(),
        "{name}: rebuilt engine lost its ingest position"
    );
    for (i, twin) in restored_shards.iter().enumerate() {
        assert_eq!(
            rebuilt.shard(i).checkpoint(),
            twin.checkpoint(),
            "{name}: engine-level restore of shard {i} diverged from per-shard restore"
        );
    }
    assert_eq!(
        rebuilt.report(),
        engine.report(),
        "{name}: rebuilt engine report diverged"
    );
    assert_eq!(
        rebuilt.checkpoint(),
        engine.checkpoint(),
        "{name}: rebuilt engine checkpoint diverged"
    );
    // Query both engines so any read charges stay symmetric for the ingest below.
    assert_eq!(
        rebuilt.query_many(&probes).expect("merged view"),
        merged_before,
        "{name}: rebuilt engine merged answers diverged"
    );
    assert_eq!(
        engine.query_many(&probes).expect("merged view"),
        merged_before,
        "{name}: original engine merged answers drifted"
    );

    // The rebuilt engine also behaves identically on further traffic.
    rebuilt.ingest(stream);
    engine.ingest(stream);
    assert_eq!(
        rebuilt.checkpoint(),
        engine.checkpoint(),
        "{name}: rebuilt engine diverged on post-restore ingest"
    );
}

/// Engine coverage: the snapshot law holds shard-by-shard for exact-merge sketches
/// and bounded-merge counter summaries alike.
#[test]
fn engine_checkpoints_round_trip_every_shard() {
    let stream = zipf_stream(256, 4_000, 1.1, 11);
    check_engine_shard_law(
        |_| CountMin::with_tracker(&StateTracker::with_address_tracking(), 64, 4, 11),
        frequency_digest,
        &stream,
    );
    check_engine_shard_law(
        |_| AmsSketch::with_tracker(&StateTracker::with_address_tracking(), 3, 16, 11),
        |a| vec![a.estimate_moment().to_bits()],
        &stream,
    );
    check_engine_shard_law(
        |_| MisraGries::with_tracker(&StateTracker::with_address_tracking(), 8),
        frequency_digest,
        &stream,
    );
}

/// Every truncation of a real checkpoint, and a corrupted header, must yield a typed
/// error — never a panic (the versioned-header satellite).
#[test]
fn corrupt_checkpoints_error_instead_of_panicking() {
    let mut alg = CountMin::new(32, 3, 9);
    alg.process_stream(&zipf_stream(64, 200, 1.1, 3));
    let bytes = alg.checkpoint();

    for cut in 0..bytes.len() {
        assert!(
            CountMin::restore(&bytes[..cut]).is_err(),
            "truncation at {cut} unexpectedly restored"
        );
    }

    // Wrong algorithm id.
    assert!(matches!(
        CountSketch::restore(&bytes),
        Err(SnapshotError::WrongAlgorithm { .. })
    ));

    // Flipped magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        CountMin::restore(&bad),
        Err(SnapshotError::BadMagic)
    ));

    // Future version.
    let mut future = bytes.clone();
    future[4] = 0xFE;
    assert!(matches!(
        CountMin::restore(&future),
        Err(SnapshotError::UnsupportedVersion(_))
    ));

    // Trailing garbage.
    let mut long = bytes.clone();
    long.push(0);
    assert!(matches!(
        CountMin::restore(&long),
        Err(SnapshotError::TrailingBytes(1))
    ));

    // An ensemble checkpoint survives the same treatment (held Morris counters,
    // nested per-copy state).
    let params = Params::new(2.0, 0.3, 128, 256).with_seed(5);
    let mut sah = SampleAndHold::standalone(&params);
    sah.process_stream(&zipf_stream(128, 256, 1.2, 5));
    let bytes = sah.checkpoint();
    for cut in (0..bytes.len()).step_by(7) {
        assert!(
            SampleAndHold::restore(&bytes[..cut]).is_err(),
            "ensemble truncation at {cut} unexpectedly restored"
        );
    }

    // A held Morris register that is zero or does not fit the acceptance exponent
    // is a typed error, never a silent wrap.  Entries are serialized in key order,
    // each held one as `key | slots u32 | 1 | created_at | register | address`, so
    // a heavy item with the largest key puts its register 16 bytes from the end.
    let heavy = u64::MAX - 1;
    let mut stream = zipf_stream(128, 256, 1.2, 5);
    stream.extend(std::iter::repeat_n(heavy, 64));
    let mut sah = SampleAndHold::standalone(&params);
    sah.process_stream(&stream);
    assert!(sah.holds_counter(heavy));
    let bytes = sah.checkpoint();
    let at = bytes.len() - 16;
    let register = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    assert_eq!(
        1.0 + morris::estimate(params.morris_growth(), register),
        sah.estimate(heavy),
        "the trailing entry is the heavy item's held counter"
    );
    for bad in [0, morris::MAX_REGISTER + 1, u32::MAX as u64 + 1, u64::MAX] {
        let mut corrupt = bytes.clone();
        corrupt[at..at + 8].copy_from_slice(&bad.to_le_bytes());
        assert!(
            matches!(
                SampleAndHold::restore(&corrupt),
                Err(SnapshotError::Corrupt(_))
            ),
            "register {bad} restored"
        );
    }
    let mut widest = bytes.clone();
    widest[at..at + 8].copy_from_slice(&morris::MAX_REGISTER.to_le_bytes());
    assert!(SampleAndHold::restore(&widest).is_ok());

    // The retired tracker-kind tag 2 (and any other unknown tag) is corrupt input,
    // never a panic or a fallback to another kind — both where the tracker state
    // stores it and where a serialized `Params` does.  The tracker state is the
    // first payload field after the header, and `Params` follows it.
    let sah = SampleAndHold::standalone(&params);
    let bytes = sah.checkpoint();
    let id = SnapshotReader::peek_algorithm(&bytes).unwrap();
    let header = SnapshotWriter::new(&id).finish().len();
    let mut w = SnapshotWriter::new(&id);
    sah.tracker().export_state().write_to(&mut w);
    let params_at = w.finish().len();
    // Params: p, eps, delta, universe, stream_len_hint, reps, profile tag, seed.
    let params_tracker_at = params_at + 6 * 8 + 1 + 8;
    for at in [header, params_tracker_at] {
        assert_eq!(
            bytes[at],
            TrackerKind::Full.tag(),
            "byte {at} is a kind tag"
        );
        for tag in [2u8, 3, 0xFF] {
            let mut retired = bytes.clone();
            retired[at] = tag;
            assert_eq!(
                SampleAndHold::restore(&retired).err(),
                Some(SnapshotError::Corrupt("tracker kind tag")),
                "tag {tag} at byte {at}"
            );
        }
    }
}
