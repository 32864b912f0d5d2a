//! The shared algorithm registry: one constructor table for every production
//! summary, consumed by the throughput sweep, the engine experiment, and the fig
//! binaries.
//!
//! Before this module, each experiment carried its own
//! `Box<dyn Fn(...) -> Box<dyn StreamAlgorithm>>` constructor list (e.g. the former
//! `cases()` table in `experiments/throughput.rs`) and answer extraction required
//! knowing the concrete type.  The registry replaces both: every entry exposes
//!
//! * [`AlgorithmSpec::make`] — a constructor returning `Box<dyn Queryable>`, so
//!   callers ingest through [`StreamAlgorithm`](fsc_state::StreamAlgorithm)
//!   (supertrait) and extract answers through the enum-based
//!   [`Query`](fsc_state::Query)/[`Answer`](fsc_state::Answer) API with **no
//!   downcasts**;
//! * [`AlgorithmSpec::engine`] — for [`Mergeable`](fsc_state::Mergeable) summaries,
//!   a factory building a sharded, checkpointable [`fsc_engine::Engine`] behind the
//!   object-safe [`DynEngine`] face.
//!
//! Construction parameters are the benchmark defaults recorded in
//! `BENCH_throughput.json` (identical to the former per-experiment tables, so the
//! recorded throughput rows reproduce).  Each constructor is deterministic: fixed
//! hash/sampling seeds, structure sized from the [`MakeCtx`] universe/stream hints.

use fsc::sparse_recovery::FewStateSparseRecovery;
use fsc::{
    EntropyFewState, FewStateHeavyHitters, FpEstimator, FpSmallEstimator, FullSampleAndHold,
    Params, SampleAndHold,
};
use fsc_baselines::{
    AmsSketch, CountMin, CountSketch, ExactCounting, MisraGries, PickAndDrop, SampleAndHoldClassic,
    SpaceSaving,
};
use fsc_engine::{DynEngine, Engine, EngineConfig};
use fsc_state::{Queryable, Snapshot, StateTracker, TrackerKind};

/// Construction context: the workload hints and tracker kind a constructor sizes
/// its instance for.
#[derive(Debug, Clone, Copy)]
pub struct MakeCtx {
    /// Universe size hint `n`.
    pub universe: usize,
    /// Stream length hint `m`.
    pub stream_len: usize,
    /// Tracker kind the instance's own tracker is created with.
    pub tracker: TrackerKind,
    /// Batch-kernel lane width override for the sketches that have lane-packed
    /// kernels (CountMin/CountSketch/AMS).  `None` keeps each kernel's default
    /// ([`fsc_counters::lanes::DEFAULT_LANE_WIDTH`]); other entries ignore it.
    pub lanes: Option<usize>,
}

impl MakeCtx {
    /// A context over the default exact-accounting tracker.
    pub fn new(universe: usize, stream_len: usize) -> Self {
        Self {
            universe,
            stream_len,
            tracker: TrackerKind::Full,
            lanes: None,
        }
    }

    /// Same hints, different tracker kind.
    pub fn with_tracker(mut self, tracker: TrackerKind) -> Self {
        self.tracker = tracker;
        self
    }

    /// Same hints, explicit batch-kernel lane width (must be a supported width).
    pub fn with_lanes(mut self, lanes: Option<usize>) -> Self {
        self.lanes = lanes;
        self
    }

    fn tracker(&self) -> StateTracker {
        StateTracker::of_kind(self.tracker)
    }
}

/// How a summary's [`Mergeable`](fsc_state::Mergeable) union relates to an
/// unsharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Linear/exact structures: the sharded union answers identically to a
    /// single-shard run (given shared seeds).
    Exact,
    /// Counter summaries: the union answers within the algorithm's additive bound.
    Bounded,
    /// No merge support; the summary cannot back a multi-shard engine.
    None,
}

/// Constructor signature of [`AlgorithmSpec::make`].
pub type MakeFn = fn(&MakeCtx) -> Box<dyn Queryable>;

/// Constructor signature of [`AlgorithmSpec::snapshot`] — the same instance behind
/// the persistence face ([`Snapshot`] is object-safe apart from `restore`, which is
/// `Sized`-gated), so experiments can drive `checkpoint`/`checkpoint_delta` across
/// the whole registry without downcasts.
pub type MakeSnapshotFn = fn(&MakeCtx) -> Box<dyn Snapshot>;

/// Engine-factory signature of [`AlgorithmSpec::engine`].
pub type MakeEngineFn = fn(&MakeCtx, EngineConfig) -> Box<dyn DynEngine>;

/// One registry entry (plain function pointers: `Copy`, `'static`, no allocation).
#[derive(Clone, Copy)]
pub struct AlgorithmSpec {
    /// Stable id, matching the algorithm's checkpoint-header id where one exists.
    pub id: &'static str,
    /// Constructs a fresh instance behind the query layer.
    pub make: MakeFn,
    /// Constructs the same instance behind the persistence layer (every production
    /// summary owns its tracker when built standalone, so all entries checkpoint).
    pub snapshot: MakeSnapshotFn,
    /// Constructs a sharded engine over the summary (mergeable summaries only).
    pub engine: Option<MakeEngineFn>,
    /// Merge semantics of the summary's shard union.
    pub merge: Merge,
}

impl std::fmt::Debug for AlgorithmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlgorithmSpec")
            .field("id", &self.id)
            .field("merge", &self.merge)
            .field("engine", &self.engine.is_some())
            .finish()
    }
}

// --- constructors (benchmark defaults; keep in sync with BENCH_throughput.json) ----
//
// Each algorithm is constructed in exactly one place; the macro boxes the same
// expression behind both the query face (`make_*`) and the persistence face
// (`snapshot_*`), so the two registry columns can never drift apart.

macro_rules! constructors {
    ($make:ident, $snapshot:ident, |$ctx:ident| $body:expr) => {
        fn $make($ctx: &MakeCtx) -> Box<dyn Queryable> {
            Box::new($body)
        }
        fn $snapshot($ctx: &MakeCtx) -> Box<dyn Snapshot> {
            Box::new($body)
        }
    };
}

constructors!(make_sample_and_hold, snapshot_sample_and_hold, |ctx| {
    SampleAndHold::standalone(
        &Params::new(2.0, 0.2, ctx.universe, ctx.stream_len).with_tracker(ctx.tracker),
    )
});

constructors!(
    make_few_state_heavy_hitters,
    snapshot_few_state_heavy_hitters,
    |ctx| {
        FewStateHeavyHitters::new(
            Params::new(2.0, 0.25, ctx.universe, ctx.stream_len).with_tracker(ctx.tracker),
        )
    }
);

constructors!(make_fp_estimator, snapshot_fp_estimator, |ctx| {
    FpEstimator::new(Params::new(2.0, 0.3, ctx.universe, ctx.stream_len).with_tracker(ctx.tracker))
});

constructors!(
    make_full_sample_and_hold,
    snapshot_full_sample_and_hold,
    |ctx| {
        FullSampleAndHold::standalone(
            &Params::new(2.0, 0.3, ctx.universe, ctx.stream_len).with_tracker(ctx.tracker),
        )
    }
);

constructors!(make_entropy, snapshot_entropy, |ctx| {
    // EntropyFewState derives its Params internally (Full tracker).
    EntropyFewState::new(0.3, ctx.universe, ctx.stream_len, 9)
});

constructors!(make_fp_small, snapshot_fp_small, |ctx| {
    FpSmallEstimator::with_tracker(0.5, 0.4, 6, &ctx.tracker())
});

constructors!(make_sparse_recovery, snapshot_sparse_recovery, |ctx| {
    FewStateSparseRecovery::with_tracker(1 << 12, &ctx.tracker())
});

constructors!(make_misra_gries, snapshot_misra_gries, |ctx| {
    MisraGries::with_tracker(&ctx.tracker(), 20)
});

constructors!(make_space_saving, snapshot_space_saving, |ctx| {
    SpaceSaving::with_tracker(&ctx.tracker(), 20)
});

constructors!(make_count_min, snapshot_count_min, |ctx| {
    let sketch = CountMin::with_tracker(&ctx.tracker(), 1 << 10, 4, 1);
    match ctx.lanes {
        Some(w) => sketch.with_lanes(w),
        None => sketch,
    }
});

constructors!(make_count_sketch, snapshot_count_sketch, |ctx| {
    let sketch = CountSketch::with_tracker(&ctx.tracker(), 1 << 10, 5, 2);
    match ctx.lanes {
        Some(w) => sketch.with_lanes(w),
        None => sketch,
    }
});

constructors!(make_ams, snapshot_ams, |ctx| {
    let sketch = AmsSketch::with_tracker(&ctx.tracker(), 5, 48, 3);
    match ctx.lanes {
        Some(w) => sketch.with_lanes(w),
        None => sketch,
    }
});

constructors!(make_exact_counting, snapshot_exact_counting, |ctx| {
    ExactCounting::with_tracker(&ctx.tracker(), 2.0)
});

constructors!(
    make_sample_and_hold_classic,
    snapshot_sample_and_hold_classic,
    |ctx| SampleAndHoldClassic::with_tracker(&ctx.tracker(), 0.01, 4)
);

constructors!(make_pick_and_drop, snapshot_pick_and_drop, |ctx| {
    PickAndDrop::with_tracker(&ctx.tracker(), 16, 3, 5)
});

// --- engine factories (mergeable summaries; shards share seeds so linear sketches
// merge exactly) ---------------------------------------------------------------

fn engine_count_min(ctx: &MakeCtx, config: EngineConfig) -> Box<dyn DynEngine> {
    let lanes = ctx.lanes;
    Box::new(Engine::new(config, move |_| {
        let sketch = CountMin::with_tracker(&StateTracker::of_kind(config.tracker), 1 << 10, 4, 1);
        match lanes {
            Some(w) => sketch.with_lanes(w),
            None => sketch,
        }
    }))
}

fn engine_count_sketch(ctx: &MakeCtx, config: EngineConfig) -> Box<dyn DynEngine> {
    let lanes = ctx.lanes;
    Box::new(Engine::new(config, move |_| {
        let sketch =
            CountSketch::with_tracker(&StateTracker::of_kind(config.tracker), 1 << 10, 5, 2);
        match lanes {
            Some(w) => sketch.with_lanes(w),
            None => sketch,
        }
    }))
}

fn engine_ams(ctx: &MakeCtx, config: EngineConfig) -> Box<dyn DynEngine> {
    let lanes = ctx.lanes;
    Box::new(Engine::new(config, move |_| {
        let sketch = AmsSketch::with_tracker(&StateTracker::of_kind(config.tracker), 5, 48, 3);
        match lanes {
            Some(w) => sketch.with_lanes(w),
            None => sketch,
        }
    }))
}

fn engine_misra_gries(_ctx: &MakeCtx, config: EngineConfig) -> Box<dyn DynEngine> {
    Box::new(Engine::new(config, |_| {
        MisraGries::with_tracker(&StateTracker::of_kind(config.tracker), 20)
    }))
}

fn engine_space_saving(_ctx: &MakeCtx, config: EngineConfig) -> Box<dyn DynEngine> {
    Box::new(Engine::new(config, |_| {
        SpaceSaving::with_tracker(&StateTracker::of_kind(config.tracker), 20)
    }))
}

fn engine_exact_counting(_ctx: &MakeCtx, config: EngineConfig) -> Box<dyn DynEngine> {
    Box::new(Engine::new(config, |_| {
        ExactCounting::with_tracker(&StateTracker::of_kind(config.tracker), 2.0)
    }))
}

/// Every production algorithm, in the canonical order (the paper's algorithms
/// first, then the baselines — the same grouping `tests/batch_laws.rs` and
/// `tests/snapshot_laws.rs` cover).
pub fn registry() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec {
            id: "sample_and_hold",
            make: make_sample_and_hold,
            snapshot: snapshot_sample_and_hold,
            engine: None,
            merge: Merge::None,
        },
        AlgorithmSpec {
            id: "full_sample_and_hold",
            make: make_full_sample_and_hold,
            snapshot: snapshot_full_sample_and_hold,
            engine: None,
            merge: Merge::None,
        },
        AlgorithmSpec {
            id: "few_state_heavy_hitters",
            make: make_few_state_heavy_hitters,
            snapshot: snapshot_few_state_heavy_hitters,
            engine: None,
            merge: Merge::None,
        },
        AlgorithmSpec {
            id: "fp_estimator",
            make: make_fp_estimator,
            snapshot: snapshot_fp_estimator,
            engine: None,
            merge: Merge::None,
        },
        AlgorithmSpec {
            id: "fp_small",
            make: make_fp_small,
            snapshot: snapshot_fp_small,
            engine: None,
            merge: Merge::None,
        },
        AlgorithmSpec {
            id: "entropy_few_state",
            make: make_entropy,
            snapshot: snapshot_entropy,
            engine: None,
            merge: Merge::None,
        },
        AlgorithmSpec {
            id: "sparse_recovery",
            make: make_sparse_recovery,
            snapshot: snapshot_sparse_recovery,
            engine: None,
            merge: Merge::None,
        },
        AlgorithmSpec {
            id: "count_min",
            make: make_count_min,
            snapshot: snapshot_count_min,
            engine: Some(engine_count_min),
            merge: Merge::Exact,
        },
        AlgorithmSpec {
            id: "count_sketch",
            make: make_count_sketch,
            snapshot: snapshot_count_sketch,
            engine: Some(engine_count_sketch),
            merge: Merge::Exact,
        },
        AlgorithmSpec {
            id: "ams",
            make: make_ams,
            snapshot: snapshot_ams,
            engine: Some(engine_ams),
            merge: Merge::Exact,
        },
        AlgorithmSpec {
            id: "exact_counting",
            make: make_exact_counting,
            snapshot: snapshot_exact_counting,
            engine: Some(engine_exact_counting),
            merge: Merge::Exact,
        },
        AlgorithmSpec {
            id: "misra_gries",
            make: make_misra_gries,
            snapshot: snapshot_misra_gries,
            engine: Some(engine_misra_gries),
            merge: Merge::Bounded,
        },
        AlgorithmSpec {
            id: "space_saving",
            make: make_space_saving,
            snapshot: snapshot_space_saving,
            engine: Some(engine_space_saving),
            merge: Merge::Bounded,
        },
        AlgorithmSpec {
            id: "sample_and_hold_classic",
            make: make_sample_and_hold_classic,
            snapshot: snapshot_sample_and_hold_classic,
            engine: None,
            merge: Merge::None,
        },
        AlgorithmSpec {
            id: "pick_and_drop",
            make: make_pick_and_drop,
            snapshot: snapshot_pick_and_drop,
            engine: None,
            merge: Merge::None,
        },
    ]
}

/// Looks up one entry by id.
pub fn spec(id: &str) -> Option<AlgorithmSpec> {
    registry().into_iter().find(|s| s.id == id)
}

/// The engine-capable subset (entries with a shard-engine factory).
pub fn engine_specs() -> Vec<AlgorithmSpec> {
    registry()
        .into_iter()
        .filter(|s| s.engine.is_some())
        .collect()
}

/// The registry wired up as an [`fsc_serve::EngineFactory`]: the server resolves
/// tenant algorithm ids against the same constructor table every experiment
/// uses, so a served tenant and a local oracle built from the same id are
/// *twins* — identical geometry and seeds, byte-identical checkpoints — which is
/// what lets `tests/serve_net_laws.rs` and `tests/recovery_laws.rs` assert exact
/// recovery.
///
/// Ids without an engine factory (non-mergeable summaries) resolve to `None`,
/// which the server answers as a typed `UnknownAlgorithm`.
pub fn serve_factory() -> fsc_serve::EngineFactory {
    std::sync::Arc::new(|algorithm, config| {
        let spec = spec(algorithm)?;
        let make_engine = spec.engine?;
        // Workload hints match the benchmark defaults; engine constructors
        // ignore them today (geometry is fixed per entry), but the context is
        // threaded through for parity with the other registry consumers.
        let ctx = MakeCtx::new(1 << 12, 1 << 14).with_tracker(config.tracker);
        Some(make_engine(&ctx, config))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_engine::Routing;
    use fsc_state::{Answer, Query};
    use fsc_streamgen::zipf::zipf_stream;

    #[test]
    fn every_spec_constructs_ingests_and_answers_without_downcasts() {
        let ctx = MakeCtx::new(1 << 10, 1 << 12);
        let stream = zipf_stream(ctx.universe, 2_000, 1.1, 7);
        let queries = [
            Query::Point(0),
            Query::Moment,
            Query::Entropy,
            Query::Support,
            Query::TrackedItems,
        ];
        for spec in registry() {
            let mut alg = (spec.make)(&ctx);
            alg.process_stream(&stream);
            assert_eq!(alg.report().epochs, 2_000, "{}", spec.id);
            let answered = queries.iter().filter(|q| alg.supports(q)).count();
            assert!(answered >= 1, "{} answers no query at all", spec.id);
            // Unsupported queries answer Unsupported, not panic.
            for q in &queries {
                let _ = alg.query(q);
            }
        }
        assert_eq!(registry().len(), 15, "all production algorithms are listed");
    }

    #[test]
    fn ids_are_unique_and_lookup_works() {
        let specs = registry();
        let mut ids: Vec<&str> = specs.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), specs.len(), "duplicate registry id");
        assert!(spec("count_min").is_some());
        assert!(spec("no_such_algorithm").is_none());
        assert_eq!(engine_specs().len(), 6);
    }

    #[test]
    fn engine_factories_reproduce_single_shard_answers_for_exact_merges() {
        let ctx = MakeCtx::new(1 << 10, 1 << 12);
        let stream = zipf_stream(ctx.universe, 3_000, 1.2, 11);
        for spec in engine_specs() {
            let factory = spec.engine.expect("engine-capable");
            let config = EngineConfig {
                shards: 3,
                routing: Routing::RoundRobin,
                ..EngineConfig::default()
            };
            let mut sharded = factory(&ctx, config);
            let mut single = factory(
                &ctx,
                EngineConfig {
                    shards: 1,
                    ..config
                },
            );
            sharded.ingest(&stream);
            single.ingest(&stream);
            if spec.merge == Merge::Exact {
                for q in [Query::Point(0), Query::Point(1), Query::Moment] {
                    let (a, b) = (sharded.query(&q).unwrap(), single.query(&q).unwrap());
                    if a == Answer::Unsupported {
                        continue;
                    }
                    assert_eq!(a, b, "{}: sharded union must be exact", spec.id);
                }
            }
            // Checkpoint/restore works through the dyn face for every entry.
            let bytes = sharded.checkpoint();
            let mut fresh = factory(&ctx, config);
            fresh.restore_from(&bytes).expect("restore");
            assert_eq!(fresh.report(), sharded.report(), "{}", spec.id);
        }
    }
}
