//! Update-throughput micro-benchmarks: the paper's algorithms vs. the classic
//! summaries, processing the same Zipfian stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fsc::{FewStateHeavyHitters, FpEstimator, Params, SampleAndHold};
use fsc_baselines::{CountMin, CountSketch, MisraGries, SpaceSaving};
use fsc_counters::hashing::TabulationHash;
use fsc_state::{StateTracker, StreamAlgorithm, TrackedVec, TrackerKind};
use fsc_streamgen::zipf::zipf_stream;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 1 << 12;
const M: usize = 4 * N;

fn bench_updates(c: &mut Criterion) {
    let stream = zipf_stream(N, M, 1.1, 7);
    let mut group = c.benchmark_group("stream_updates");
    group.throughput(Throughput::Elements(M as u64));
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("SampleAndHold", "p2"), |b| {
        b.iter(|| {
            let mut alg = SampleAndHold::standalone(&Params::new(2.0, 0.2, N, M));
            alg.process_stream(&stream);
            alg.report().state_changes
        })
    });
    group.bench_function(BenchmarkId::new("FewStateHeavyHitters", "p2"), |b| {
        b.iter(|| {
            let mut alg = FewStateHeavyHitters::new(Params::new(2.0, 0.2, N, M));
            alg.process_stream(&stream);
            alg.report().state_changes
        })
    });
    group.bench_function(BenchmarkId::new("FpEstimator", "p2"), |b| {
        b.iter(|| {
            let mut alg = FpEstimator::new(Params::new(2.0, 0.3, N, M));
            alg.process_stream(&stream);
            alg.report().state_changes
        })
    });
    group.bench_function(BenchmarkId::new("MisraGries", "eps0.05"), |b| {
        b.iter(|| {
            let mut alg = MisraGries::for_epsilon(0.05);
            alg.process_stream(&stream);
            alg.report().state_changes
        })
    });
    group.bench_function(BenchmarkId::new("SpaceSaving", "eps0.05"), |b| {
        b.iter(|| {
            let mut alg = SpaceSaving::for_epsilon(0.05);
            alg.process_stream(&stream);
            alg.report().state_changes
        })
    });
    group.bench_function(BenchmarkId::new("CountMin", "eps0.05"), |b| {
        b.iter(|| {
            let mut alg = CountMin::for_error(0.05, 0.05, 1);
            alg.process_stream(&stream);
            alg.report().state_changes
        })
    });
    group.bench_function(BenchmarkId::new("CountSketch", "eps0.1"), |b| {
        b.iter(|| {
            let mut alg = CountSketch::for_error(0.1, 0.05, 1);
            alg.process_stream(&stream);
            alg.report().state_changes
        })
    });
    group.finish();
}

/// The pre-PR CountMin storage layout: one boxed `TrackedVec` per sketch row, driven
/// by per-item `update()` epochs.  Kept here (bench-only) as the reference point for
/// the flat-matrix + batched-epoch hot path; accounting semantics are identical, so
/// the measured gap is pure layout + epoch-machinery cost.
struct LegacyRowsCountMin {
    rows: Vec<TrackedVec<u64>>,
    hashes: Vec<TabulationHash>,
    width: usize,
    tracker: StateTracker,
}

impl LegacyRowsCountMin {
    fn new(width: usize, depth: usize, seed: u64) -> Self {
        let tracker = StateTracker::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = (0..depth)
            .map(|_| TrackedVec::filled(&tracker, width, 0u64))
            .collect();
        let hashes = (0..depth).map(|_| TabulationHash::new(&mut rng)).collect();
        Self {
            rows,
            hashes,
            width,
            tracker,
        }
    }
}

impl StreamAlgorithm for LegacyRowsCountMin {
    fn name(&self) -> &str {
        "LegacyRowsCountMin"
    }

    fn process_item(&mut self, item: u64) {
        for (row, hash) in self.rows.iter_mut().zip(&self.hashes) {
            let bucket = hash.hash_bucket(item, self.width);
            row.update(bucket, |c| c + 1);
        }
    }

    fn tracker(&self) -> &StateTracker {
        &self.tracker
    }
}

/// Old-vs-new CountMin hot path, isolating the two tentpole levers: contiguous flat
/// storage (`TrackedMatrix`) vs per-row boxed vectors, and batched epoch spans
/// (`process_batch`) vs per-item `update()`.  Measured ratios are recorded in
/// EXPERIMENTS.md.
fn bench_flat_vs_rows(c: &mut Criterion) {
    let stream = zipf_stream(N, M, 1.1, 7);
    let (width, depth) = (1 << 10, 4);
    let mut group = c.benchmark_group("flat_vs_rows");
    group.throughput(Throughput::Elements(M as u64));
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("CountMin", "rows_per_item"), |b| {
        b.iter(|| {
            let mut alg = LegacyRowsCountMin::new(width, depth, 1);
            for &item in &stream {
                alg.update(item);
            }
            alg.report().state_changes
        })
    });
    group.bench_function(BenchmarkId::new("CountMin", "flat_per_item"), |b| {
        b.iter(|| {
            let mut alg = CountMin::new(width, depth, 1);
            for &item in &stream {
                alg.update(item);
            }
            alg.report().state_changes
        })
    });
    group.bench_function(BenchmarkId::new("CountMin", "flat_batched"), |b| {
        b.iter(|| {
            let mut alg = CountMin::new(width, depth, 1);
            alg.process_batch(&stream);
            alg.report().state_changes
        })
    });
    group.finish();
}

/// Batch kernels vs the per-item path, per algorithm: the same instance
/// configuration driven once with a per-item `update` loop and once through
/// `process_batch` (one batch = the whole stream, as `process_stream` dispatches).
/// Measured ratios are recorded in EXPERIMENTS.md — including the honest reading
/// that algorithms whose per-update work is irreducible (e.g. SampleAndHold's
/// tracked writes) gain little from batching alone, while the AMS sign-memoizing
/// kernel gains an order of magnitude on repeating streams.
fn bench_batch_kernels(c: &mut Criterion) {
    let stream = zipf_stream(N, M, 1.1, 7);
    let mut group = c.benchmark_group("batch_kernels");
    group.throughput(Throughput::Elements(M as u64));
    group.sample_size(10);

    fn drive<A: StreamAlgorithm>(mode: &str, mut alg: A, stream: &[u64]) -> u64 {
        match mode {
            "item" => {
                for &x in stream {
                    alg.update(x);
                }
            }
            _ => alg.process_batch(stream),
        }
        alg.report().state_changes
    }

    for mode in ["item", "batch"] {
        group.bench_function(BenchmarkId::new("AMS", mode), |b| {
            b.iter(|| drive(mode, fsc_baselines::AmsSketch::new(5, 48, 3), &stream))
        });
        group.bench_function(BenchmarkId::new("CountMin", mode), |b| {
            b.iter(|| drive(mode, CountMin::new(1 << 10, 4, 1), &stream))
        });
        group.bench_function(BenchmarkId::new("CountSketch", mode), |b| {
            b.iter(|| drive(mode, CountSketch::new(1 << 10, 5, 2), &stream))
        });
        group.bench_function(BenchmarkId::new("SampleAndHold", mode), |b| {
            b.iter(|| {
                drive(
                    mode,
                    SampleAndHold::standalone(&Params::new(2.0, 0.2, N, M)),
                    &stream,
                )
            })
        });
        group.bench_function(BenchmarkId::new("FewStateHeavyHitters", mode), |b| {
            b.iter(|| {
                drive(
                    mode,
                    FewStateHeavyHitters::new(Params::new(2.0, 0.25, N, M)),
                    &stream,
                )
            })
        });
        group.bench_function(BenchmarkId::new("FpEstimator", mode), |b| {
            b.iter(|| drive(mode, FpEstimator::new(Params::new(2.0, 0.3, N, M)), &stream))
        });
        group.bench_function(BenchmarkId::new("SparseRecovery", mode), |b| {
            b.iter(|| {
                drive(
                    mode,
                    fsc::sparse_recovery::FewStateSparseRecovery::new(1 << 12),
                    &stream,
                )
            })
        });
    }

    group.finish();
}

/// The serving view's three costs, at several sketch sizes: `cached` —
/// `Engine::query` answers from the generation-stamped snapshot (no rebuild
/// while the generation is unchanged); `fresh` — `Engine::query_fresh` pays the
/// oracle's per-shard `checkpoint`/`restore`/`merge_from` on every call;
/// `rebuild` — the writer's per-batch cost: ingest one 1024-item batch, then
/// `Engine::refresh_view` rebuilds the view as an untracked union into the
/// recycled buffer; `ingest` — the same batches without the refresh, so
/// `rebuild − ingest` is the refresh alone.  Measured ratios are recorded in
/// EXPERIMENTS.md §serve.
fn bench_serve_paths(c: &mut Criterion) {
    use fsc_engine::{Engine, EngineConfig, Routing};
    use fsc_state::Query;

    // 256 operations per iteration — point queries, or batch-plus-refresh rounds
    // — so the sub-microsecond cached path still registers on the harness's
    // millisecond display; the printed rate is therefore Mops/s on every path.
    const QUERIES: u64 = 256;
    const BATCH: usize = 1024;
    let stream = zipf_stream(N, M, 1.1, 7);
    let mut group = c.benchmark_group("serve_paths");
    group.throughput(Throughput::Elements(QUERIES));
    group.sample_size(10);

    for width_log2 in [8u32, 10, 12] {
        let width = 1usize << width_log2;
        let config = EngineConfig {
            shards: 4,
            routing: Routing::RoundRobin,
            tracker: TrackerKind::Full,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(config, |_| {
            CountMin::with_tracker(&StateTracker::of_kind(config.tracker), width, 4, 7)
        });
        engine.ingest(&stream);
        engine.refresh_view().expect("prime the serving view");

        let label = format!("CountMin_4x{width}");
        group.bench_function(BenchmarkId::new("cached", &label), |b| {
            b.iter(|| {
                let mut sum = 0.0f64;
                for at in 0..QUERIES {
                    let answer = engine.query(&Query::Point(at % 64)).expect("cached view");
                    sum += answer.scalar().unwrap_or(0.0);
                }
                sum
            })
        });
        group.bench_function(BenchmarkId::new("fresh", &label), |b| {
            b.iter(|| {
                let mut sum = 0.0f64;
                for at in 0..QUERIES {
                    let answer = engine
                        .query_fresh(&Query::Point(at % 64))
                        .expect("restore+merge");
                    sum += answer.scalar().unwrap_or(0.0);
                }
                sum
            })
        });
        let mut batches = stream.chunks_exact(BATCH).cycle();
        group.bench_function(BenchmarkId::new("ingest", &label), |b| {
            b.iter(|| {
                for _ in 0..QUERIES {
                    engine.ingest(batches.next().expect("cycled"));
                }
                engine.ingested()
            })
        });
        group.bench_function(BenchmarkId::new("rebuild", &label), |b| {
            b.iter(|| {
                let mut rebuilt = 0u32;
                for _ in 0..QUERIES {
                    engine.ingest(batches.next().expect("cycled"));
                    rebuilt += u32::from(engine.refresh_view().expect("rebuild"));
                }
                rebuilt
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_updates,
    bench_flat_vs_rows,
    bench_batch_kernels,
    bench_serve_paths
);
criterion_main!(benches);
