//! Experiment F13 — the cached serving view under mixed read/write load.
//!
//! The paper's complexity measure says state changes are scarce; PR 7 turns that
//! into a serve-path economy: [`fsc_engine::Engine::query`] answers from a
//! generation-stamped cached view that is rebuilt only when a *state change*
//! lands, so serve cost tracks the paper's curve, not query volume.  This
//! experiment measures that from three angles:
//!
//! * **Ratio sweep** ([`run`]) — every engine-capable registry entry ingests the
//!   same Zipf stream at several read:write ratios (cached point queries per
//!   ingested batch).  Queries/sec and view rebuilds are recorded per cell; the
//!   law the sweep pins is that **rebuild counts are identical across ratios**
//!   — 64× more queries, same rebuilds — because rebuilds are driven by the
//!   staleness generation, never by reads.
//! * **Staleness sweep** ([`staleness`]) — the **entire** 15-algorithm registry
//!   standalone: each instance ingests a uniform stream in fixed windows, and a
//!   window is *dirty* (a cached view would rebuild) iff the tracker's
//!   [`state_change_generation`](fsc_state::StateTracker::state_change_generation)
//!   moved during it.  Write-heavy baselines dirty every window; the paper's
//!   few-state algorithms go quiet once their state stops changing — the
//!   headline ratio [`headline_check`] guards.
//! * **Concurrent driver** ([`concurrent`]) — reader threads hammer
//!   [`ServeHandle::serve`](fsc_engine::ServeHandle::serve) on shared handles
//!   while the writer thread ingests and republishes between batches; at
//!   quiescence the handle answers must equal a fresh merged rebuild.  (On the
//!   1-CPU CI container the reader threads timeshare with the writer, so the
//!   recorded served-query counts measure scheduling, not peak QPS — the
//!   queries/sec record comes from the single-threaded ratio sweep.)
//!
//! The machine-readable record `BENCH_serve.json` carries a `trajectory` array
//! like the throughput record: one dated entry per recording, appended by
//! `fig_serve`, never overwritten.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fsc_engine::{DynEngine, EngineConfig, Routing};
use fsc_state::Query;
use fsc_streamgen::uniform::uniform_stream;
use fsc_streamgen::zipf::zipf_stream;

use crate::experiments::engine::FEW_STATE_IDS;
use crate::record;
use crate::registry::{engine_specs, registry, AlgorithmSpec, MakeCtx};
use crate::table::{f, Table};
use crate::Scale;

/// Shards the sweep engines run (matches F12).
pub const SHARDS: usize = 4;

/// Cached point queries issued per ingested batch, one sweep per value — the
/// read:write axis.
pub const READS_PER_BATCH: [usize; 3] = [4, 32, 256];

/// Ingest windows of the registry-wide staleness sweep.
pub const STALENESS_WINDOWS: usize = 64;

/// Reader threads of the concurrent driver.
pub const READERS: usize = 2;

/// One measured (algorithm, read:write ratio) cell of the ratio sweep.
#[derive(Debug, Clone)]
pub struct Row {
    /// Registry id.
    pub id: &'static str,
    /// Display name (shard 0's `StreamAlgorithm::name`).
    pub algorithm: String,
    /// Cached queries issued per ingested batch.
    pub reads_per_batch: usize,
    /// Ingest batch size.
    pub batch: usize,
    /// Updates ingested.
    pub updates: usize,
    /// Cached queries answered.
    pub queries: usize,
    /// Wall-clock seconds spent inside the query loop (ingest excluded).
    pub query_secs: f64,
    /// `queries / query_secs`.
    pub queries_per_sec: f64,
    /// Times the serving view was (re)built over the run.
    pub rebuilds: u64,
    /// Batches after which [`DynEngine::generation`] had moved — the upper bound
    /// rebuilds can ever reach.
    pub dirty_batches: u64,
    /// Final staleness generation.
    pub generation: u64,
    /// Combined state changes across shards.
    pub state_changes: u64,
    /// Whether every probe's cached answer equalled `query_fresh` at the end.
    pub answers_match: bool,
}

/// One algorithm's windowed-staleness record from the registry-wide sweep.
#[derive(Debug, Clone)]
pub struct StaleRow {
    /// Registry id.
    pub id: &'static str,
    /// Display name.
    pub algorithm: String,
    /// Updates ingested.
    pub updates: usize,
    /// Ingest windows observed.
    pub windows: usize,
    /// Windows in which the staleness generation moved (a cached view serving
    /// this summary would have rebuilt once per dirty window).
    pub dirty_windows: usize,
    /// Tracker-audited state changes over the run.
    pub state_changes: u64,
    /// Final staleness generation.
    pub generation: u64,
}

impl StaleRow {
    /// Dirty windows as a fraction of all windows — the serve-side persistence
    /// ratio, 1.0 meaning "every window would rebuild".
    pub fn rebuild_fraction(&self) -> f64 {
        self.dirty_windows as f64 / self.windows.max(1) as f64
    }
}

/// One engine's record from the concurrent read/write driver.
#[derive(Debug, Clone)]
pub struct ConcurrentRow {
    /// Registry id.
    pub id: &'static str,
    /// Display name.
    pub algorithm: String,
    /// Reader threads that hammered the handle.
    pub readers: usize,
    /// Updates the writer ingested while readers were live.
    pub updates: usize,
    /// Queries the readers answered from published snapshots.
    pub served: u64,
    /// Times the view was (re)built (writer-side refreshes).
    pub rebuilds: u64,
    /// Whether every probe's handle answer equalled a fresh merged rebuild at
    /// quiescence.
    pub quiescent_match: bool,
}

fn probes(universe: usize) -> Vec<Query> {
    (0..64.min(universe as u64)).map(Query::Point).collect()
}

/// Runs one (spec, reads-per-batch) cell of the ratio sweep.
fn run_cell(spec: &AlgorithmSpec, reads_per_batch: usize, scale: Scale) -> Row {
    let factory = spec.engine.expect("engine-capable spec");
    let n = scale.pick(1 << 10, 1 << 14);
    let m = scale.pick(6_000, 120_000);
    let batch = 1_024usize;
    let ctx = MakeCtx::new(n, m);
    let config = EngineConfig {
        shards: SHARDS,
        routing: Routing::RoundRobin,
        ..EngineConfig::default()
    };
    let mut engine = factory(&ctx, config);
    let stream = zipf_stream(n, m, 1.1, 23);
    let probes = probes(n);

    let mut queries = 0usize;
    let mut query_secs = 0.0f64;
    let mut dirty_batches = 0u64;
    let mut generation = engine.generation();
    for chunk in stream.chunks(batch) {
        engine.ingest(chunk);
        let now = engine.generation();
        if now != generation {
            dirty_batches += 1;
            generation = now;
        }
        let started = Instant::now();
        for i in 0..reads_per_batch {
            let answer = engine
                .query(&probes[i % probes.len()])
                .expect("cached query");
            std::hint::black_box(answer);
        }
        query_secs += started.elapsed().as_secs_f64();
        queries += reads_per_batch;
    }

    let answers_match = probes
        .iter()
        .all(|q| engine.query(q).expect("cached") == engine.query_fresh(q).expect("fresh oracle"));

    Row {
        id: spec.id,
        algorithm: engine.algorithm(),
        reads_per_batch,
        batch,
        updates: stream.len(),
        queries,
        query_secs,
        queries_per_sec: queries as f64 / query_secs.max(1e-9),
        rebuilds: engine.view_rebuilds(),
        dirty_batches,
        generation: engine.generation(),
        state_changes: engine.report().state_changes,
        answers_match,
    }
}

/// Runs the (engine-capable algorithms × read:write ratios) sweep.
pub fn run(scale: Scale) -> (Table, Vec<Row>) {
    let mut rows = Vec::new();
    for spec in engine_specs() {
        for reads in READS_PER_BATCH {
            rows.push(run_cell(&spec, reads, scale));
        }
    }
    let mut table = Table::new(
        &format!(
            "F13 — cached serving view ({SHARDS} shards): queries/sec and rebuilds \
             across read:write ratios"
        ),
        &[
            "algorithm",
            "reads/batch",
            "updates",
            "queries",
            "queries/sec",
            "rebuilds",
            "dirty batches",
            "state changes",
            "answers ok",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.algorithm.clone(),
            r.reads_per_batch.to_string(),
            r.updates.to_string(),
            r.queries.to_string(),
            format!("{:.0}", r.queries_per_sec),
            r.rebuilds.to_string(),
            r.dirty_batches.to_string(),
            r.state_changes.to_string(),
            r.answers_match.to_string(),
        ]);
    }
    (table, rows)
}

/// Sweeps the **entire** registry standalone: each instance ingests one uniform
/// stream in [`STALENESS_WINDOWS`] windows, marking a window dirty iff the
/// tracker's staleness generation moved during it.  Uniform traffic maximizes
/// distinct arrivals, the stress case for staying quiet — write-heavy baselines
/// dirty every window regardless, while a few-state summary's clock goes silent
/// once its state stops changing.
pub fn staleness(scale: Scale) -> Vec<StaleRow> {
    let n = scale.pick(256, 1 << 14);
    let m: usize = scale.pick(6_000, 120_000);
    let window = m.div_ceil(STALENESS_WINDOWS).max(1);
    let stream = uniform_stream(n, m, 29);
    let ctx = MakeCtx::new(n, m);
    registry()
        .iter()
        .map(|spec| {
            let mut alg = (spec.make)(&ctx);
            let mut stamp = alg.tracker().state_change_generation();
            let mut windows = 0usize;
            let mut dirty_windows = 0usize;
            let mut updates = 0usize;
            for chunk in stream.chunks(window) {
                alg.process_stream(chunk);
                updates += chunk.len();
                windows += 1;
                let generation = alg.tracker().state_change_generation();
                if generation != stamp {
                    dirty_windows += 1;
                    stamp = generation;
                }
            }
            let report = alg.report();
            StaleRow {
                id: spec.id,
                algorithm: alg.name().to_string(),
                updates,
                windows,
                dirty_windows,
                state_changes: report.state_changes,
                generation: stamp,
            }
        })
        .collect()
}

/// Renders the staleness sweep as a table (printed by `fig_serve` next to the
/// ratio sweep).
pub fn staleness_table(rows: &[StaleRow]) -> Table {
    let mut table = Table::new(
        &format!(
            "F13 — windowed staleness across the registry ({STALENESS_WINDOWS} ingest \
             windows, uniform traffic): windows a cached view would rebuild in"
        ),
        &[
            "algorithm",
            "updates",
            "windows",
            "dirty windows",
            "rebuild fraction",
            "state changes",
        ],
    );
    for r in rows {
        table.row(vec![
            r.algorithm.clone(),
            r.updates.to_string(),
            r.windows.to_string(),
            r.dirty_windows.to_string(),
            f(r.rebuild_fraction()),
            r.state_changes.to_string(),
        ]);
    }
    table
}

/// Drives one boxed engine through the mixed read/write pattern: [`READERS`]
/// threads answer point queries from a shared
/// [`ServeHandle`](fsc_engine::ServeHandle) while the calling thread ingests
/// `stream` in `batch`-sized chunks, republishing the view after each batch.
fn drive_mixed(
    engine: &mut Box<dyn DynEngine>,
    stream: &[u64],
    batch: usize,
    probes: &[Query],
) -> (u64, bool) {
    let handle = engine.serve_handle();
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let handle = Arc::clone(&handle);
            let (stop, served) = (&stop, &served);
            scope.spawn(move || {
                let mut at = reader as u64;
                while !stop.load(Ordering::Relaxed) {
                    if handle.serve(&Query::Point(at % 64)).is_some() {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    at += 1;
                }
                // One quiescent read after the stop flag: the writer has
                // published by now, so even a reader the 1-CPU scheduler never
                // ran concurrently with the writer serves at least once.
                if handle.serve(&Query::Point(at % 64)).is_some() {
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for chunk in stream.chunks(batch.max(1)) {
            engine.ingest(chunk);
            engine.refresh_view().expect("writer-side republish");
        }
        stop.store(true, Ordering::Relaxed);
    });
    let quiescent_match = probes.iter().all(|q| match engine.query_fresh(q) {
        Ok(fresh) => handle.serve(q) == Some(fresh),
        Err(_) => false,
    });
    (served.load(Ordering::Relaxed), quiescent_match)
}

/// Runs the concurrent read/write driver over every engine-capable entry.
pub fn concurrent(scale: Scale) -> Vec<ConcurrentRow> {
    let n = scale.pick(1 << 10, 1 << 14);
    let m = scale.pick(6_000, 60_000);
    let ctx = MakeCtx::new(n, m);
    let stream = zipf_stream(n, m, 1.1, 31);
    let probes = probes(n);
    engine_specs()
        .iter()
        .map(|spec| {
            let factory = spec.engine.expect("engine-capable spec");
            let mut engine = factory(
                &ctx,
                EngineConfig {
                    shards: SHARDS,
                    routing: Routing::RoundRobin,
                    ..EngineConfig::default()
                },
            );
            let (served, quiescent_match) = drive_mixed(&mut engine, &stream, 2_048, &probes);
            ConcurrentRow {
                id: spec.id,
                algorithm: engine.algorithm(),
                readers: READERS,
                updates: stream.len(),
                served,
                rebuilds: engine.view_rebuilds(),
                quiescent_match,
            }
        })
        .collect()
}

/// Renders the concurrent-driver rows as a table.
pub fn concurrent_table(rows: &[ConcurrentRow]) -> Table {
    let mut table = Table::new(
        &format!("F13 — {READERS} reader threads serving cached views during ingest"),
        &[
            "algorithm",
            "readers",
            "updates",
            "served",
            "rebuilds",
            "quiescent ok",
        ],
    );
    for r in rows {
        table.row(vec![
            r.algorithm.clone(),
            r.readers.to_string(),
            r.updates.to_string(),
            r.served.to_string(),
            r.rebuilds.to_string(),
            r.quiescent_match.to_string(),
        ]);
    }
    table
}

/// Fails if any ratio-sweep cell violated the serving-view laws: cached answers
/// must equal the fresh oracle, rebuilds can never exceed the dirty-batch count
/// (the generation-bump bound), and — the cache's whole point — rebuild counts
/// must be **identical across read:write ratios** for each algorithm.
pub fn serve_check(rows: &[Row]) -> Result<(), String> {
    for r in rows {
        if !r.answers_match {
            return Err(format!(
                "{} at {} reads/batch: cached answers diverged from query_fresh",
                r.id, r.reads_per_batch
            ));
        }
        if r.rebuilds > r.dirty_batches {
            return Err(format!(
                "{} at {} reads/batch: {} rebuilds exceed {} generation bumps",
                r.id, r.reads_per_batch, r.rebuilds, r.dirty_batches
            ));
        }
        if r.queries == 0 || r.rebuilds == 0 {
            return Err(format!(
                "{} at {} reads/batch: degenerate cell ({} queries, {} rebuilds)",
                r.id, r.reads_per_batch, r.queries, r.rebuilds
            ));
        }
    }
    for spec in engine_specs() {
        let counts: Vec<u64> = rows
            .iter()
            .filter(|r| r.id == spec.id)
            .map(|r| r.rebuilds)
            .collect();
        if counts.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!(
                "{}: rebuild counts vary across read:write ratios ({counts:?}) — \
                 rebuilds must track state changes, not queries",
                spec.id
            ));
        }
    }
    Ok(())
}

/// Fails if any concurrent-driver row broke quiescence equality or served
/// nothing at all.
pub fn concurrent_check(rows: &[ConcurrentRow]) -> Result<(), String> {
    for r in rows {
        if !r.quiescent_match {
            return Err(format!(
                "{}: handle answers diverged from a fresh rebuild at quiescence",
                r.id
            ));
        }
        if r.served == 0 {
            return Err(format!("{}: readers answered no query at all", r.id));
        }
        if r.rebuilds == 0 {
            return Err(format!("{}: the writer never published a view", r.id));
        }
    }
    Ok(())
}

/// The headline guard: the best few-state algorithm must rebuild at most
/// `threshold` times as often as the **worst-case write-heavy baseline** at
/// equal ingest, and that baseline must actually be write-heavy (dirtying
/// nearly every window).  Full-scale runs use `0.1` — the paper's
/// orders-of-magnitude claim; `--quick` uses `0.5` because the reduced stream
/// barely outlives the few-state algorithms' warm-up.
pub fn headline_check(rows: &[StaleRow], threshold: f64) -> Result<(), String> {
    let best_few_state = rows
        .iter()
        .filter(|r| FEW_STATE_IDS.contains(&r.id))
        .min_by_key(|r| r.dirty_windows)
        .ok_or("no few-state rows in the staleness sweep")?;
    let worst_baseline = rows
        .iter()
        .filter(|r| !FEW_STATE_IDS.contains(&r.id))
        .max_by_key(|r| r.dirty_windows)
        .ok_or("no baseline rows in the staleness sweep")?;
    if (worst_baseline.dirty_windows as f64) < 0.9 * worst_baseline.windows as f64 {
        return Err(format!(
            "write-heavy baseline {} dirtied only {}/{} windows — the comparison \
             basis is broken",
            worst_baseline.id, worst_baseline.dirty_windows, worst_baseline.windows
        ));
    }
    let bound = threshold * worst_baseline.dirty_windows as f64;
    if best_few_state.dirty_windows as f64 > bound {
        return Err(format!(
            "{} rebuilt in {}/{} windows — more than {threshold} of baseline {}'s {} \
             (few-state rebuilds must track state changes, not ingest)",
            best_few_state.id,
            best_few_state.dirty_windows,
            best_few_state.windows,
            worst_baseline.id,
            worst_baseline.dirty_windows
        ));
    }
    Ok(())
}

/// The headline scale factor for a run's scale (see [`headline_check`]).
pub fn headline_threshold(scale: Scale) -> f64 {
    scale.pick(0.5, 0.1)
}

/// Renders the three sweeps as the `BENCH_serve.json` record (hand-rolled, like
/// the throughput and engine records: the workspace is offline and carries no
/// serde).
pub fn to_json(
    scale: Scale,
    rows: &[Row],
    stale: &[StaleRow],
    threads: &[ConcurrentRow],
    trajectory: &[String],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"serve\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        scale.pick("Quick", "Full")
    ));
    out.push_str(&format!("  \"shards\": {SHARDS},\n"));
    out.push_str(&format!(
        "  \"reads_per_batch\": [{}],\n",
        READS_PER_BATCH.map(|r| r.to_string()).join(", ")
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"id\": \"{}\", \"reads_per_batch\": {}, \
             \"batch\": {}, \"updates\": {}, \"queries\": {}, \"query_secs\": {:.6}, \
             \"queries_per_sec\": {:.0}, \"rebuilds\": {}, \"dirty_batches\": {}, \
             \"generation\": {}, \"state_changes\": {}, \"answers_match\": {}}}{}\n",
            r.algorithm,
            r.id,
            r.reads_per_batch,
            r.batch,
            r.updates,
            r.queries,
            r.query_secs,
            r.queries_per_sec,
            r.rebuilds,
            r.dirty_batches,
            r.generation,
            r.state_changes,
            r.answers_match,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"staleness\": [\n");
    for (i, r) in stale.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"id\": \"{}\", \"updates\": {}, \
             \"windows\": {}, \"dirty_windows\": {}, \"rebuild_fraction\": {:.6}, \
             \"state_changes\": {}, \"generation\": {}}}{}\n",
            r.algorithm,
            r.id,
            r.updates,
            r.windows,
            r.dirty_windows,
            r.rebuild_fraction(),
            r.state_changes,
            r.generation,
            if i + 1 < stale.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"concurrent\": [\n");
    for (i, r) in threads.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"id\": \"{}\", \"readers\": {}, \
             \"updates\": {}, \"served\": {}, \"rebuilds\": {}, \"quiescent_match\": {}}}{}\n",
            r.algorithm,
            r.id,
            r.readers,
            r.updates,
            r.served,
            r.rebuilds,
            r.quiescent_match,
            if i + 1 < threads.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&record::trajectory_json(trajectory));
    out.push_str("\n}\n");
    out
}

/// One dated trajectory entry: the CountMin cached-QPS headline at the highest
/// read ratio, plus the staleness extremes the headline check compares.
pub fn trajectory_entry(
    date: &str,
    label: &str,
    scale: Scale,
    rows: &[Row],
    stale: &[StaleRow],
) -> String {
    let (date, label) = (record::sanitize(date), record::sanitize(label));
    let headline = rows
        .iter()
        .filter(|r| r.id == "count_min")
        .max_by_key(|r| r.reads_per_batch);
    let qps = headline
        .map(|r| format!("{:.0}", r.queries_per_sec))
        .unwrap_or_else(|| "null".to_string());
    let rebuilds = headline
        .map(|r| r.rebuilds.to_string())
        .unwrap_or_else(|| "null".to_string());
    let fraction = |few_state: bool, pick: fn(f64, f64) -> f64| {
        stale
            .iter()
            .filter(|r| FEW_STATE_IDS.contains(&r.id) == few_state)
            .map(StaleRow::rebuild_fraction)
            .reduce(pick)
            .map(|v| format!("{v:.4}"))
            .unwrap_or_else(|| "null".to_string())
    };
    format!(
        "{{\"date\": \"{date}\", \"label\": \"{label}\", \"scale\": \"{}\", \
         \"countmin_cached_qps\": {qps}, \"countmin_rebuilds\": {rebuilds}, \
         \"best_few_state_rebuild_fraction\": {}, \"worst_baseline_rebuild_fraction\": {}}}",
        scale.pick("Quick", "Full"),
        fraction(true, f64::min),
        fraction(false, f64::max),
    )
}

/// The keys every `BENCH_serve.json` must contain ([`record::check_keys`]).
pub const SCHEMA_KEYS: &[&str] = &[
    "\"experiment\": \"serve\"",
    "\"scale\":",
    "\"shards\":",
    "\"reads_per_batch\":",
    "\"rows\":",
    "\"queries_per_sec\":",
    "\"rebuilds\":",
    "\"dirty_batches\":",
    "\"answers_match\": true",
    "\"staleness\":",
    "\"dirty_windows\":",
    "\"rebuild_fraction\":",
    "\"concurrent\":",
    "\"quiescent_match\": true",
    "\"trajectory\":",
    "\"date\":",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ratio_sweep_covers_every_engine_spec_and_holds_the_laws() {
        let (table, rows) = run(Scale::Quick);
        assert_eq!(rows.len(), engine_specs().len() * READS_PER_BATCH.len());
        assert_eq!(table.len(), rows.len());
        serve_check(&rows).expect("serving-view laws must hold");
        for r in &rows {
            assert!(r.queries_per_sec > 0.0, "{}", r.id);
            assert!(
                r.generation >= r.rebuilds,
                "{}: more rebuilds than generation ticks",
                r.id
            );
        }
    }

    #[test]
    fn quick_staleness_sweep_covers_the_registry_and_tells_the_papers_story() {
        let rows = staleness(Scale::Quick);
        assert_eq!(rows.len(), registry().len());
        assert_eq!(staleness_table(&rows).len(), rows.len());
        headline_check(&rows, headline_threshold(Scale::Quick))
            .expect("few-state serving must go quiet");
        for r in &rows {
            assert_eq!(r.windows, STALENESS_WINDOWS, "{}", r.id);
            assert!(r.dirty_windows <= r.windows, "{}", r.id);
        }
    }

    #[test]
    fn quick_concurrent_driver_serves_during_ingest_and_agrees_at_quiescence() {
        let rows = concurrent(Scale::Quick);
        assert_eq!(rows.len(), engine_specs().len());
        assert_eq!(concurrent_table(&rows).len(), rows.len());
        concurrent_check(&rows).expect("concurrent serving laws must hold");
    }

    #[test]
    fn json_record_passes_its_own_schema_check() {
        let (_, rows) = run(Scale::Quick);
        let stale = staleness(Scale::Quick);
        let threads = concurrent(Scale::Quick);
        let entry = trajectory_entry("2026-01-01", "test", Scale::Quick, &rows, &stale);
        let json = to_json(Scale::Quick, &rows, &stale, &threads, &[entry]);
        record::check_keys(&json, SCHEMA_KEYS).expect("schema");
        assert!(record::trajectory_inner(&json).is_some_and(|t| t.len() == 1));
    }

    #[test]
    fn headline_check_flags_chatty_few_state_serving() {
        let row = |id: &'static str, dirty| StaleRow {
            id,
            algorithm: id.to_string(),
            updates: 1_000,
            windows: STALENESS_WINDOWS,
            dirty_windows: dirty,
            state_changes: dirty as u64,
            generation: dirty as u64,
        };
        let quiet = row("sparse_recovery", 3);
        let chatty = row("sparse_recovery", 32);
        let baseline = row("count_min", STALENESS_WINDOWS);
        let lazy_baseline = row("count_min", 4);
        assert!(headline_check(&[quiet.clone(), baseline.clone()], 0.1).is_ok());
        assert!(headline_check(&[chatty, baseline], 0.1).is_err());
        assert!(
            headline_check(&[quiet, lazy_baseline], 0.1).is_err(),
            "a baseline that is not write-heavy invalidates the comparison"
        );
    }

    #[test]
    fn schema_check_rejects_incomplete_json() {
        assert!(record::check_keys("{}", SCHEMA_KEYS).is_err());
    }
}
