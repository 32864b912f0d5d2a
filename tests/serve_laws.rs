//! Serving-view laws: the cached [`Engine::query`] path must be **observably
//! indistinguishable** from the always-rebuild [`Engine::query_fresh`] oracle,
//! under arbitrary interleavings of ingest and queries — while rebuilding the
//! merged summary only when the state-change generation says it has to.
//!
//! Three laws, each checked for every engine-capable summary (exact-merge
//! sketches and bounded-merge counter tables alike):
//!
//! 1. **Answer equivalence** — at every interleaving point, `query` (cached)
//!    and `query_fresh` (rebuild) return identical answers for identical probes.
//! 2. **Rebuild economy** — the view rebuilds at most once per round in which
//!    the generation clock advanced (a clean round costs zero rebuilds), and
//!    the rebuild count is the same whether a round reads 4 or 256 times:
//!    reads never cause rebuilds.
//! 3. **Generation monotonicity** — `Engine::generation()` never decreases:
//!    not across ingest, not across checkpoint/restore-in-place (`restore_from`
//!    taints the clock strictly forward so pre-failover cached stamps can never
//!    satisfy a post-failover freshness check).
//!
//! Two more laws pin the recycled view buffer (a rebuild overwrites the
//! snapshot the previous publish displaced, when no reader holds it):
//!
//! 4. **Recycled ≡ fresh** — under random interleavings of ingest,
//!    `refresh_view`, cached queries, reader-held snapshots and `restore_from`,
//!    every published view answers exactly like `query_fresh`.
//! 5. **Held snapshots are immutable** — a snapshot a reader took answers
//!    identically however many refreshes follow, so a buffer is never recycled
//!    while it is still visible.
//!
//! Three non-proptest laws close the file: one big batch (which crosses the
//! parallel-ingest threshold) is observably identical to the same items fed in
//! small serial chunks; reader threads serving from a `ServeHandle` while the
//! writer ingests agree with a fresh rebuild at quiescence; and across the
//! whole registry, a few-state summary's generation clock goes quiet in windows
//! where a write-heavy baseline's moves in every one.

use few_state_changes::baselines::{
    AmsSketch, CountMin, CountSketch, ExactCounting, MisraGries, SpaceSaving,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use fsc_bench::experiments::engine::FEW_STATE_IDS;
use fsc_bench::registry::{engine_specs, registry, MakeCtx};

use few_state_changes::engine::{Engine, EngineAlgorithm, EngineConfig, Routing};
use few_state_changes::state::{Answer, Query, Queryable, StateTracker, TrackerKind};
use few_state_changes::streamgen::uniform::uniform_stream;
use few_state_changes::streamgen::zipf::zipf_stream;

use proptest::prelude::*;

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        routing: Routing::RoundRobin,
        tracker: TrackerKind::Full,
        ..EngineConfig::default()
    }
}

fn probes() -> Vec<Query> {
    (0..48u64)
        .map(Query::Point)
        .chain([Query::Moment])
        .collect()
}

/// Cached reads per round of the read-volume twins (law 2).
const READS_PER_ROUND: [usize; 2] = [4, 256];

/// Drives one engine through `rounds` ingest/query rounds, checking the
/// answer-equivalence, rebuild-economy, and monotonicity laws at every step.
/// Two twins ingest the same rounds and only read, [`READS_PER_ROUND`] cached
/// point queries each, so law 2 can compare rebuild counts across read volumes.
fn check_serve_laws<A: EngineAlgorithm>(make: impl Fn(usize) -> A, stream: &[u64], cuts: &[usize]) {
    let mut engine = Engine::new(config(4), &make);
    let mut readers = READS_PER_ROUND.map(|reads| (reads, Engine::new(config(4), &make)));
    let name = engine.shard(0).name().to_string();
    let probes = probes();

    let mut fed = 0usize;
    let mut last_generation = engine.generation();
    let mut dirty_rounds = 0u64;
    let mut built_at = None;
    for &cut in cuts {
        let cut = cut.min(stream.len());
        if cut > fed {
            engine.ingest(&stream[fed..cut]);
            for (_, reader) in &mut readers {
                reader.ingest(&stream[fed..cut]);
            }
            fed = cut;
        }

        let generation = engine.generation();
        assert!(
            generation >= last_generation,
            "{name}: generation went backwards across ingest ({last_generation} -> {generation})"
        );
        last_generation = generation;
        // A round can rebuild only when no view was built yet or the clock
        // moved since the last build.
        if built_at != Some(generation) {
            dirty_rounds += 1;
            built_at = Some(generation);
        }

        // Law 1: the cached path answers exactly like a fresh rebuild — on the
        // first (cold) query of a round and on the repeat (warm) query alike.
        let cached = engine.query_many(&probes).expect("cached view");
        let fresh = engine.query_fresh_many(&probes).expect("fresh merge");
        assert_eq!(
            cached, fresh,
            "{name}: cached answers diverged from the rebuild oracle"
        );
        let warm = engine.query_many(&probes).expect("cached view");
        assert_eq!(warm, fresh, "{name}: warm cached answers diverged");

        // Law 2: the view rebuilt at most once per generation bump, queries
        // left the clock alone, and the read volume changed no rebuild count.
        assert!(
            engine.view_rebuilds() <= dirty_rounds,
            "{name}: {} rebuilds after {dirty_rounds} generation bumps — the view \
             rebuilt without a state change",
            engine.view_rebuilds()
        );
        assert_eq!(
            engine.generation(),
            generation,
            "{name}: queries moved the generation clock"
        );
        for (reads, reader) in &readers {
            for i in 0..*reads {
                reader
                    .query(&probes[i % probes.len()])
                    .expect("cached view");
            }
            assert_eq!(
                reader.view_rebuilds(),
                engine.view_rebuilds(),
                "{name}: {reads} reads per round rebuilt a different number of times — \
                 rebuilds must track state changes, not reads"
            );
        }
    }

    // Drain the remainder so the final cross-check covers the whole stream.
    if fed < stream.len() {
        engine.ingest(&stream[fed..]);
    }
    assert_eq!(
        engine.query_many(&probes).expect("cached view"),
        engine.query_fresh_many(&probes).expect("fresh merge"),
        "{name}: final cached answers diverged from the rebuild oracle"
    );

    // Law 3 (failover leg): restore-in-place must keep the clock strictly
    // monotone even though the restored checkpoint carries a younger clock.
    let before = engine.generation();
    let bytes = engine.checkpoint();
    engine.restore_from(&bytes).expect("restore_from");
    let after = engine.generation();
    assert!(
        after > before,
        "{name}: restore_from must taint the generation forward ({before} -> {after})"
    );
    assert_eq!(
        engine.query_many(&probes).expect("cached view"),
        engine.query_fresh_many(&probes).expect("fresh merge"),
        "{name}: post-restore cached answers diverged from the rebuild oracle"
    );
}

/// One step of a recycling interleaving: an op code and its argument.
type Op = (u8, usize);

fn answers<A: Queryable>(view: &A, probes: &[Query]) -> Vec<Answer> {
    probes.iter().map(|q| view.query(q)).collect()
}

/// Drives one engine through `ops`, checking laws 4 and 5 after every step.
/// Op codes: 0–1 ingest the next `arg` items, 2 `refresh_view`, 3 a cached
/// `query_many`, 4 a reader takes the published snapshot, 5 a reader drops
/// one, 6 checkpoint + `restore_from`.
fn check_recycling_laws<A: EngineAlgorithm>(
    make: impl FnMut(usize) -> A,
    stream: &[u64],
    ops: &[Op],
) {
    let mut engine = Engine::new(config(3), make);
    let name = engine.shard(0).name().to_string();
    let probes = probes();
    let cell = engine.serving_view();
    let mut held: Vec<(Arc<A>, Vec<Answer>)> = Vec::new();
    let mut fed = 0usize;
    for (step, &(op, arg)) in ops.iter().enumerate() {
        match op % 7 {
            0 | 1 => {
                let start = fed % stream.len();
                let end = (start + arg).min(stream.len());
                engine.ingest(&stream[start..end]);
                fed += end - start;
            }
            2 => {
                engine.refresh_view().expect("refresh");
                let view = cell.snapshot().expect("a refresh publishes");
                assert_eq!(
                    answers(&*view, &probes),
                    engine.query_fresh_many(&probes).expect("fresh merge"),
                    "{name}, step {step}: refreshed view diverged from the oracle"
                );
            }
            3 => assert_eq!(
                engine.query_many(&probes).expect("cached view"),
                engine.query_fresh_many(&probes).expect("fresh merge"),
                "{name}, step {step}: cached answers diverged from the oracle"
            ),
            4 => {
                if let Some(view) = cell.snapshot() {
                    let seen = answers(&*view, &probes);
                    held.push((view, seen));
                }
            }
            5 => {
                if !held.is_empty() {
                    held.swap_remove(arg % held.len());
                }
            }
            _ => {
                let bytes = engine.checkpoint();
                engine.restore_from(&bytes).expect("restore_from");
            }
        }
        for (view, seen) in &held {
            assert_eq!(
                &answers(&**view, &probes),
                seen,
                "{name}, step {step}: a held snapshot changed under its reader"
            );
        }
    }
    engine.refresh_view().expect("refresh");
    assert_eq!(
        answers(&*cell.snapshot().expect("published"), &probes),
        engine.query_fresh_many(&probes).expect("fresh merge"),
        "{name}: final view diverged from the oracle"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All six engine-capable summaries: recycled views equal the oracle, and
    /// reader-held snapshots never change (laws 4 and 5).
    #[test]
    fn recycled_views_match_fresh_and_held_snapshots_never_change(
        seed in 0u64..1_000,
        ops in proptest::collection::vec((0u8..7, 0usize..400), 1..40),
    ) {
        let stream = zipf_stream(256, 1_200, 1.1, seed);

        check_recycling_laws(
            |_| CountMin::with_tracker(&StateTracker::with_address_tracking(), 64, 4, seed),
            &stream,
            &ops,
        );
        check_recycling_laws(
            |_| CountSketch::with_tracker(&StateTracker::with_address_tracking(), 64, 3, seed),
            &stream,
            &ops,
        );
        check_recycling_laws(
            |_| AmsSketch::with_tracker(&StateTracker::with_address_tracking(), 3, 16, seed),
            &stream,
            &ops,
        );
        check_recycling_laws(
            |_| ExactCounting::with_tracker(&StateTracker::with_address_tracking(), 2.0),
            &stream,
            &ops,
        );
        check_recycling_laws(
            |_| MisraGries::with_tracker(&StateTracker::with_address_tracking(), 8),
            &stream,
            &ops,
        );
        check_recycling_laws(
            |_| SpaceSaving::with_tracker(&StateTracker::with_address_tracking(), 8),
            &stream,
            &ops,
        );
    }

    /// All six engine-capable summaries obey the serving-view laws at arbitrary
    /// ingest/query interleavings (random streams, random round boundaries).
    #[test]
    fn cached_queries_obey_the_serving_laws(
        seed in 0u64..1_000,
        len in 32usize..600,
        mut cuts in proptest::collection::vec(0usize..600, 1..6),
    ) {
        let stream = zipf_stream(256, len, 1.1, seed);
        cuts.sort_unstable();

        check_serve_laws(
            |_| CountMin::with_tracker(&StateTracker::with_address_tracking(), 64, 4, seed),
            &stream,
            &cuts,
        );
        check_serve_laws(
            |_| CountSketch::with_tracker(&StateTracker::with_address_tracking(), 64, 3, seed),
            &stream,
            &cuts,
        );
        check_serve_laws(
            |_| AmsSketch::with_tracker(&StateTracker::with_address_tracking(), 3, 16, seed),
            &stream,
            &cuts,
        );
        check_serve_laws(
            |_| ExactCounting::with_tracker(&StateTracker::with_address_tracking(), 2.0),
            &stream,
            &cuts,
        );
        check_serve_laws(
            |_| MisraGries::with_tracker(&StateTracker::with_address_tracking(), 8),
            &stream,
            &cuts,
        );
        check_serve_laws(
            |_| SpaceSaving::with_tracker(&StateTracker::with_address_tracking(), 8),
            &stream,
            &cuts,
        );
    }

    /// The generation clock is monotone across engine checkpoint/restore chains:
    /// every `restore_from` strictly advances it, however short the hops.
    #[test]
    fn generation_is_monotone_across_restore_chains(
        seed in 0u64..1_000,
        hops in 1usize..5,
    ) {
        let stream = zipf_stream(128, 300, 1.2, seed);
        let mut engine = Engine::new(config(2), |_| {
            CountMin::new(32, 3, seed)
        });

        let mut last = engine.generation();
        for hop in 0..hops {
            engine.ingest(&stream[hop * 40..(hop + 1) * 40]);
            let grown = engine.generation();
            prop_assert!(grown >= last, "ingest rewound the clock");
            let bytes = engine.checkpoint();
            engine.restore_from(&bytes).expect("restore_from");
            let after = engine.generation();
            prop_assert!(after > grown, "restore hop {hop} failed to taint the clock");
            last = after;
        }
    }
}

/// Law 5, deterministically: a snapshot held across many dirty refreshes keeps
/// its answers, while the views published after it track the live shards (so
/// the refreshes really did rebuild, into buffers other than the held one).
#[test]
fn a_held_snapshot_survives_recycling_refreshes() {
    let stream = zipf_stream(256, 6_000, 1.1, 5);
    let mut engine = Engine::new(config(4), |_| {
        CountMin::with_tracker(&StateTracker::new(), 64, 4, 5)
    });
    let probes = probes();
    engine.ingest(&stream[..1_000]);
    engine.refresh_view().expect("refresh");
    let held = engine.serving_view().snapshot().expect("published");
    let seen = answers(&*held, &probes);
    for batch in stream[1_000..].chunks(1_000) {
        engine.ingest(batch);
        assert!(
            engine.refresh_view().expect("refresh"),
            "dirty batch rebuilds"
        );
        let live = engine.serving_view().snapshot().expect("published");
        assert_eq!(
            answers(&*live, &probes),
            engine.query_fresh_many(&probes).expect("fresh merge")
        );
        assert_ne!(answers(&*live, &probes), seen, "the view moved on");
        assert_eq!(answers(&*held, &probes), seen, "the held snapshot did not");
    }
}

/// One big ingest call (crossing the parallel-ingest threshold, so shards run on
/// scoped worker threads) is observably identical to the same items fed in small
/// serial chunks: same answers, same accounting, same checkpoint bytes.
#[test]
fn threaded_ingest_matches_serial_chunks() {
    let stream = zipf_stream(512, 64 * 1024, 1.1, 17);
    let make = |_| CountSketch::with_tracker(&StateTracker::with_address_tracking(), 128, 3, 17);

    let mut big = Engine::new(config(4), make);
    big.ingest(&stream);

    let mut chunked = Engine::new(config(4), make);
    for chunk in stream.chunks(1_000) {
        chunked.ingest(chunk);
    }

    assert_eq!(big.report(), chunked.report(), "accounting diverged");
    assert_eq!(
        big.query_many(&probes()).expect("merged view"),
        chunked.query_many(&probes()).expect("merged view"),
        "answers diverged"
    );
    assert_eq!(
        big.checkpoint(),
        chunked.checkpoint(),
        "checkpoint bytes diverged"
    );
}

/// Reader threads of [`concurrent_readers_agree_with_a_fresh_rebuild_at_quiescence`].
const READERS: usize = 2;

/// Every engine-capable registry summary, 4 shards: [`READERS`] threads answer
/// point queries from a shared `ServeHandle` while the writer ingests in
/// 2 048-item batches and republishes after each.  The readers serve, the
/// writer publishes, and at quiescence every handle answer equals a fresh
/// rebuild.
#[test]
fn concurrent_readers_agree_with_a_fresh_rebuild_at_quiescence() {
    let (n, m) = (1 << 10, 6_000);
    let ctx = MakeCtx::new(n, m);
    let stream = zipf_stream(n, m, 1.1, 31);
    let probes: Vec<Query> = (0..64).map(Query::Point).collect();
    for spec in engine_specs() {
        let factory = spec.engine.expect("engine-capable spec");
        let mut engine = factory(
            &ctx,
            EngineConfig {
                shards: 4,
                routing: Routing::RoundRobin,
                ..EngineConfig::default()
            },
        );
        let handle = engine.serve_handle();
        let stop = AtomicBool::new(false);
        let served = AtomicU64::new(0);
        // Readers and the writer start together, so the readers are live
        // before the first batch lands.
        let start = Barrier::new(READERS + 1);
        std::thread::scope(|scope| {
            for reader in 0..READERS {
                let handle = Arc::clone(&handle);
                let (stop, served, start) = (&stop, &served, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut at = reader as u64;
                    while !stop.load(Ordering::Relaxed) {
                        if handle.serve(&Query::Point(at % 64)).is_some() {
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        at += 1;
                    }
                    // One read after the stop flag: the writer has published by
                    // now, so even a reader never scheduled beside the writer
                    // serves at least once.
                    if handle.serve(&Query::Point(at % 64)).is_some() {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            start.wait();
            for chunk in stream.chunks(2_048) {
                engine.ingest(chunk);
                engine.refresh_view().expect("writer-side republish");
            }
            stop.store(true, Ordering::Relaxed);
        });
        for q in &probes {
            assert_eq!(
                handle.serve(q),
                Some(engine.query_fresh(q).expect("fresh rebuild")),
                "{}: a handle answer diverged from a fresh rebuild at quiescence",
                spec.id
            );
        }
        assert!(
            served.load(Ordering::Relaxed) > 0,
            "{}: readers answered no query at all",
            spec.id
        );
        assert!(
            engine.view_rebuilds() > 0,
            "{}: the writer never published a view",
            spec.id
        );
    }
}

/// The paper's thesis on the serving path, over the whole registry: each
/// summary ingests one uniform stream (n = 256, m = 6 000) in 64 windows, and a
/// window is dirty — a cached view would rebuild — iff the tracker's
/// state-change generation moved during it.  The write-heaviest baseline must
/// dirty at least 90% of the windows (else the comparison proves nothing), and
/// the quietest few-state summary at most half as many as that baseline.
#[test]
fn few_state_summaries_go_quiet_while_write_heavy_baselines_dirty_every_window() {
    const WINDOWS: usize = 64;
    let (n, m) = (256, 6_000usize);
    let window = m.div_ceil(WINDOWS);
    let stream = uniform_stream(n, m, 29);
    let ctx = MakeCtx::new(n, m);
    let dirty: Vec<(&str, usize)> = registry()
        .iter()
        .map(|spec| {
            let mut alg = (spec.make)(&ctx);
            let mut stamp = alg.tracker().state_change_generation();
            let mut windows = 0;
            let mut dirty_windows = 0;
            for chunk in stream.chunks(window) {
                alg.process_stream(chunk);
                windows += 1;
                let generation = alg.tracker().state_change_generation();
                if generation != stamp {
                    dirty_windows += 1;
                    stamp = generation;
                }
            }
            assert_eq!(windows, WINDOWS, "{}", spec.id);
            (spec.id, dirty_windows)
        })
        .collect();
    let (few_state, baselines): (Vec<_>, Vec<_>) =
        dirty.iter().partition(|(id, _)| FEW_STATE_IDS.contains(id));
    let &(quietest, quiet_dirty) = few_state
        .iter()
        .min_by_key(|(_, d)| *d)
        .expect("the registry has few-state summaries");
    let &(heaviest, heavy_dirty) = baselines
        .iter()
        .max_by_key(|(_, d)| *d)
        .expect("the registry has baselines");
    assert!(
        heavy_dirty as f64 >= 0.9 * WINDOWS as f64,
        "write-heavy baseline {heaviest} dirtied only {heavy_dirty}/{WINDOWS} windows — \
         the comparison basis is broken"
    );
    assert!(
        quiet_dirty as f64 <= 0.5 * heavy_dirty as f64,
        "{quietest} rebuilt in {quiet_dirty}/{WINDOWS} windows — more than half of \
         baseline {heaviest}'s {heavy_dirty} (few-state rebuilds must track state \
         changes, not ingest)"
    );
}
