//! Experiment F12 — the sharded, checkpointable engine under config-driven
//! scenarios, with full and delta persistence.
//!
//! For every engine-capable registry entry and every scenario in the matrix, two
//! engines ingest the same synthesized stream: a 4-shard engine and a single-shard
//! reference.  At the scenario's checkpoint cadence the sharded engine is
//! checkpointed and a **fresh** engine (simulated crash: new process, constructor
//! state only) is restored from the bytes and takes over the ingest — so every run
//! exercises the snapshot law mid-stream, not just at the end.  At the end the
//! merged shard union is compared against the single-shard reference through the
//! typed [`Query`] API: exact-merge summaries must agree bit-for-bit, bounded-merge
//! summaries within their additive bound.
//!
//! The scenario matrix is a list of [`Scenario`] *config literals* (steady Zipf,
//! drifting hot set, flash-crowd bursts, fully sorted, uniform) — adding a workload
//! is editing that list, not writing a binary.
//!
//! Each scenario also selects a [`CheckpointMode`]: `Full` persists the complete
//! engine checkpoint at every cadence point; `Delta` chains `FSCD` deltas off a base
//! through a [`CheckpointChain`] — failover restores from the chain tip, compaction
//! folds the chain without changing the tip, and a post-run time-travel audit
//! replays every retained cadence epoch with [`CheckpointChain::bytes_at`].  Every
//! cadence point is recorded as a [`CurvePoint`] (checkpoint bytes vs stream
//! length), and [`delta_curves`] sweeps the *entire* 15-algorithm registry
//! standalone, measuring what chained deltas cost against re-persisting the full
//! checkpoint — the paper's thesis as a persistence bill: algorithms with few state
//! changes persist sublinearly, write-heavy baselines do not.

use std::time::Instant;

use fsc_engine::{CheckpointMode, EngineConfig, Routing, Scenario, Segment, Workload};
use fsc_state::{Answer, CheckpointChain, Query};
use fsc_streamgen::zipf::zipf_stream;

use crate::registry::{engine_specs, registry, spec, AlgorithmSpec, MakeCtx, Merge};
use crate::table::{f, Table};
use crate::Scale;

/// Number of shards the sharded engine runs.
pub const SHARDS: usize = 4;

/// Checkpoints the standalone [`delta_curves`] sweep takes per algorithm.
pub const CURVE_CHECKPOINTS: usize = 8;

/// Per-cadence-point sample: how many bytes a full checkpoint would have cost at
/// this stream position, and how many the selected persistence mode actually wrote
/// (the base or a chained delta in delta mode; `full_bytes` itself in full mode).
#[derive(Debug, Clone, Copy)]
pub struct CurvePoint {
    /// Stream position (updates ingested) when the checkpoint was taken.
    pub ingested: usize,
    /// Size of the full checkpoint at this point, in bytes.
    pub full_bytes: usize,
    /// Bytes actually persisted at this point under the scenario's mode.
    pub persisted_bytes: usize,
}

/// One measured (algorithm, scenario) cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Summary name (shard 0's `StreamAlgorithm::name`).
    pub algorithm: String,
    /// Registry id of the summary.
    pub id: &'static str,
    /// Scenario name.
    pub scenario: String,
    /// How the scenario persisted its cadence checkpoints.
    pub mode: CheckpointMode,
    /// Updates ingested.
    pub updates: usize,
    /// Combined state changes across shards.
    pub state_changes: u64,
    /// Checkpoints taken (and failover-restored) during the run.
    pub checkpoints: usize,
    /// Size of the last full engine checkpoint, in bytes.
    pub checkpoint_bytes: usize,
    /// Bytes persisted at the last cadence point (equals `checkpoint_bytes` in full
    /// mode; the last delta's size in delta mode).
    pub delta_bytes: usize,
    /// One sample per cadence point: checkpoint bytes vs stream length.
    pub curve: Vec<CurvePoint>,
    /// Whether every mid-stream failover restore reproduced the pre-crash reports,
    /// every delta-chain tip matched the full checkpoint byte-for-byte, compaction
    /// preserved the tip, and the post-run time-travel audit replayed every
    /// retained cadence epoch exactly.
    pub restore_ok: bool,
    /// Largest |sharded − single| difference over the probe queries.
    pub max_query_diff: f64,
    /// Merge semantics of the summary (exact unions must have zero diff).
    pub merge: Merge,
}

/// One algorithm's standalone checkpoint-bytes-vs-stream-length curve: the full
/// registry ingests one steady Zipf stream, checkpointing [`CURVE_CHECKPOINTS`]
/// times into a [`CheckpointChain`].
#[derive(Debug, Clone)]
pub struct CurveRow {
    /// Registry id.
    pub id: &'static str,
    /// Display name (`StreamAlgorithm::name`).
    pub algorithm: String,
    /// Updates ingested.
    pub updates: usize,
    /// Tracker-audited state changes over the run.
    pub state_changes: u64,
    /// Size of the final full checkpoint, in bytes.
    pub final_full_bytes: usize,
    /// Total bytes the delta chain persisted (base + every delta).
    pub persisted_bytes: usize,
    /// Total bytes a persist-the-full-checkpoint-every-time policy would have
    /// written over the same cadence points.
    pub full_policy_bytes: usize,
    /// One sample per cadence point.
    pub points: Vec<CurvePoint>,
}

impl CurveRow {
    /// Persisted bytes as a fraction of the full-checkpoint-every-time policy —
    /// the delta chain's persistence bill, 1.0 meaning "no better than full".
    pub fn persistence_ratio(&self) -> f64 {
        self.persisted_bytes as f64 / self.full_policy_bytes.max(1) as f64
    }
}

/// The scenario matrix: one engine workload per traffic shape the streamgen layer
/// can synthesize.  Each entry is a plain config literal; the mix deliberately
/// covers both persistence modes (delta chains with and without compaction, plus
/// full checkpoints) so CI exercises every cadence path.
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    let n = scale.pick(1 << 10, 1 << 14);
    let m = scale.pick(6_000, 120_000);
    let cadence = Some(m / 3);
    let batch = 1_024;
    let seg = |workload, updates| Segment { workload, updates };
    vec![
        Scenario {
            name: "steady-zipf".into(),
            universe: n,
            seed: 41,
            segments: vec![seg(Workload::Zipf { theta: 1.1 }, m)],
            checkpoint_every: cadence,
            checkpoint_mode: CheckpointMode::Delta { compact_every: 0 },
            batch,
        },
        Scenario {
            name: "drifting-hot-set".into(),
            universe: n,
            seed: 42,
            segments: vec![
                seg(
                    Workload::Drift {
                        theta: 1.2,
                        step: (n / 3) as u64,
                    },
                    m / 3,
                ),
                seg(
                    Workload::Drift {
                        theta: 1.2,
                        step: (n / 3) as u64,
                    },
                    m / 3,
                ),
                seg(
                    Workload::Drift {
                        theta: 1.2,
                        step: (n / 3) as u64,
                    },
                    m - 2 * (m / 3),
                ),
            ],
            checkpoint_every: cadence,
            checkpoint_mode: CheckpointMode::Delta { compact_every: 2 },
            batch,
        },
        Scenario {
            name: "flash-crowd-bursts".into(),
            universe: n,
            seed: 43,
            segments: vec![
                seg(Workload::Zipf { theta: 1.0 }, m / 2),
                seg(
                    Workload::Bursty {
                        theta: 1.3,
                        burst: 32,
                    },
                    m - m / 2,
                ),
            ],
            checkpoint_every: cadence,
            checkpoint_mode: CheckpointMode::Full,
            batch,
        },
        Scenario {
            name: "sorted-adversarial".into(),
            universe: n,
            seed: 44,
            segments: vec![seg(Workload::Sorted { theta: 1.0 }, m)],
            checkpoint_every: cadence,
            checkpoint_mode: CheckpointMode::Delta { compact_every: 0 },
            batch,
        },
        Scenario {
            name: "uniform".into(),
            universe: n,
            seed: 45,
            segments: vec![seg(Workload::Uniform, m)],
            checkpoint_every: cadence,
            checkpoint_mode: CheckpointMode::Full,
            batch,
        },
    ]
}

/// Probe queries compared between the sharded union and the single-shard
/// reference: point estimates over the densest items plus the moment estimate.
fn probes(universe: usize) -> Vec<Query> {
    let mut out: Vec<Query> = (0..64.min(universe as u64)).map(Query::Point).collect();
    out.push(Query::Moment);
    out.push(Query::Entropy);
    out
}

fn answer_diff(a: &Answer, b: &Answer) -> Option<f64> {
    match (a, b) {
        (Answer::Unsupported, Answer::Unsupported) => None,
        (Answer::Scalar(x), Answer::Scalar(y)) => Some((x - y).abs()),
        _ => Some(f64::INFINITY),
    }
}

/// Display label for a [`CheckpointMode`].
pub fn mode_label(mode: CheckpointMode) -> String {
    match mode {
        CheckpointMode::Full => "full".into(),
        CheckpointMode::Delta { compact_every: 0 } => "delta".into(),
        CheckpointMode::Delta { compact_every } => format!("delta/c{compact_every}"),
    }
}

/// Runs one (spec, scenario) cell.
fn run_cell(spec: &AlgorithmSpec, scenario: &Scenario) -> Row {
    let factory = spec.engine.expect("engine-capable spec");
    let ctx = MakeCtx::new(scenario.universe, scenario.total_updates());
    let config = EngineConfig {
        shards: SHARDS,
        routing: Routing::RoundRobin,
        ..EngineConfig::default()
    };
    let mut engine = factory(&ctx, config);
    let mut single = factory(
        &ctx,
        EngineConfig {
            shards: 1,
            ..config
        },
    );

    let stream = scenario.stream();
    let mut checkpoints = 0usize;
    let mut checkpoint_bytes = 0usize;
    let mut delta_bytes = 0usize;
    let mut restore_ok = true;
    let mut since_checkpoint = 0usize;
    let mut ingested = 0usize;
    let mut curve: Vec<CurvePoint> = Vec::new();
    // Delta mode: the live chain plus every (epoch, full checkpoint) pair taken so
    // far, kept for the post-run time-travel audit.
    let mut chain: Option<CheckpointChain> = None;
    let mut history: Vec<(u64, Vec<u8>)> = Vec::new();
    for batch in stream.chunks(scenario.batch.max(1)) {
        engine.ingest(batch);
        single.ingest(batch);
        ingested += batch.len();
        since_checkpoint += batch.len();
        if let Some(cadence) = scenario.checkpoint_every {
            if since_checkpoint >= cadence {
                since_checkpoint = 0;
                // Checkpoint, simulate a crash, and fail over onto a fresh engine.
                let bytes = engine.checkpoint();
                checkpoint_bytes = bytes.len();
                checkpoints += 1;
                let before = engine.report();
                let persisted = match scenario.checkpoint_mode {
                    CheckpointMode::Full => bytes.len(),
                    CheckpointMode::Delta { compact_every } => {
                        // The engine's delta epoch clock is its ingest position.
                        let epoch = ingested as u64;
                        let persisted = match chain.as_mut() {
                            None => {
                                chain = Some(
                                    CheckpointChain::new(bytes.clone(), epoch)
                                        .expect("engine checkpoint is a valid base"),
                                );
                                bytes.len()
                            }
                            Some(c) => c.record(&bytes, epoch).expect("record delta").delta_bytes,
                        };
                        let c = chain.as_mut().expect("chain exists");
                        // Law: base + deltas reconstructs the full checkpoint.
                        restore_ok &= c.tip_bytes() == &bytes[..];
                        history.push((epoch, bytes.clone()));
                        if compact_every > 0 && c.len() >= compact_every {
                            // Compaction folds the chain but must not move the tip.
                            let tip = c.tip_bytes().to_vec();
                            c.compact();
                            restore_ok &= c.is_empty() && c.tip_bytes() == &tip[..];
                        }
                        persisted
                    }
                };
                delta_bytes = persisted;
                curve.push(CurvePoint {
                    ingested,
                    full_bytes: bytes.len(),
                    persisted_bytes: persisted,
                });
                // Failover source: the durable representation — the chain tip in
                // delta mode, the raw checkpoint otherwise.
                let source: Vec<u8> = match &chain {
                    Some(c) => c.tip_bytes().to_vec(),
                    None => bytes.clone(),
                };
                let mut fresh = factory(&ctx, config);
                restore_ok &= fresh.restore_from(&source).is_ok();
                restore_ok &= fresh.report() == before;
                restore_ok &= fresh.checkpoint() == bytes;
                engine = fresh;
            }
        }
    }

    // Time-travel audit: every cadence epoch still inside the chain's retained
    // window must replay to exactly the full checkpoint taken there (compaction
    // legitimately forgets epochs before the current base).
    if let Some(c) = &chain {
        for (epoch, full) in &history {
            if *epoch < c.base_epoch() {
                continue;
            }
            match c.bytes_at(*epoch) {
                Ok((replayed, at)) => restore_ok &= at == *epoch && replayed == *full,
                Err(_) => restore_ok = false,
            }
        }
    }

    let probes = probes(scenario.universe);
    // One merged view per engine for the whole probe set (query_many), not one
    // restore-and-merge pass per probe.
    let sharded_answers = engine.query_many(&probes).expect("merged view");
    let reference_answers = single.query_many(&probes).expect("merged view");
    let mut max_query_diff = 0.0f64;
    for (sharded, reference) in sharded_answers.iter().zip(&reference_answers) {
        if let Some(diff) = answer_diff(sharded, reference) {
            max_query_diff = max_query_diff.max(diff);
        }
    }

    Row {
        algorithm: engine.algorithm(),
        id: spec.id,
        scenario: scenario.name.clone(),
        mode: scenario.checkpoint_mode,
        updates: stream.len(),
        state_changes: engine.report().state_changes,
        checkpoints,
        checkpoint_bytes,
        delta_bytes,
        curve,
        restore_ok,
        max_query_diff,
        merge: spec.merge,
    }
}

/// Runs the full (engine-capable algorithms × scenarios) matrix.
pub fn run(scale: Scale) -> (Table, Vec<Row>) {
    let scenario_list = scenarios(scale);
    let mut rows = Vec::new();
    for spec in engine_specs() {
        for scenario in &scenario_list {
            rows.push(run_cell(&spec, scenario));
        }
    }

    let mut table = Table::new(
        &format!(
            "F12 — sharded engine ({SHARDS} shards) vs single shard across scenarios, \
             with mid-stream checkpoint/failover"
        ),
        &[
            "algorithm",
            "scenario",
            "mode",
            "updates",
            "state changes",
            "checkpoints",
            "ckpt bytes",
            "last Δ bytes",
            "restore ok",
            "max |Δquery|",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.algorithm.clone(),
            r.scenario.clone(),
            mode_label(r.mode),
            r.updates.to_string(),
            r.state_changes.to_string(),
            r.checkpoints.to_string(),
            r.checkpoint_bytes.to_string(),
            r.delta_bytes.to_string(),
            r.restore_ok.to_string(),
            f(r.max_query_diff),
        ]);
    }
    (table, rows)
}

/// Sweeps the **entire** 15-algorithm registry standalone: each instance ingests
/// the same steady Zipf stream, checkpointing [`CURVE_CHECKPOINTS`] times into a
/// [`CheckpointChain`], and each cadence point records full-vs-persisted bytes.
/// The resulting curves are the checkpoint-bytes-vs-stream-length record in
/// `BENCH_engine.json`.
pub fn delta_curves(scale: Scale) -> Vec<CurveRow> {
    let n = scale.pick(1 << 10, 1 << 14);
    let m = scale.pick(6_000, 120_000);
    let cadence = m / CURVE_CHECKPOINTS;
    let stream = zipf_stream(n, m, 1.1, 17);
    let ctx = MakeCtx::new(n, m);
    registry()
        .iter()
        .map(|spec| {
            let mut alg = (spec.snapshot)(&ctx);
            let mut chain: Option<CheckpointChain> = None;
            let mut points = Vec::with_capacity(CURVE_CHECKPOINTS);
            let mut persisted_bytes = 0usize;
            let mut full_policy_bytes = 0usize;
            let mut ingested = 0usize;
            let mut final_full_bytes = 0usize;
            for chunk in stream.chunks(cadence.max(1)) {
                alg.process_stream(chunk);
                ingested += chunk.len();
                let full = alg.checkpoint();
                let epoch = alg.report().epochs;
                let persisted = match chain.as_mut() {
                    None => {
                        chain = Some(
                            CheckpointChain::new(full.clone(), epoch)
                                .expect("checkpoint is a valid base"),
                        );
                        full.len()
                    }
                    Some(c) => c.record(&full, epoch).expect("record delta").delta_bytes,
                };
                let c = chain.as_ref().expect("chain exists");
                assert_eq!(
                    c.tip_bytes(),
                    &full[..],
                    "{}: base + deltas must reconstruct the full checkpoint",
                    spec.id
                );
                persisted_bytes += persisted;
                full_policy_bytes += full.len();
                final_full_bytes = full.len();
                points.push(CurvePoint {
                    ingested,
                    full_bytes: full.len(),
                    persisted_bytes: persisted,
                });
            }
            CurveRow {
                id: spec.id,
                algorithm: alg.name().to_string(),
                updates: ingested,
                state_changes: alg.report().state_changes,
                final_full_bytes,
                persisted_bytes,
                full_policy_bytes,
                points,
            }
        })
        .collect()
}

/// Renders the curve sweep as a table (printed by `fig_engine` next to the matrix).
pub fn curves_table(rows: &[CurveRow]) -> Table {
    let mut table = Table::new(
        &format!(
            "F12 — checkpoint bytes vs stream length ({CURVE_CHECKPOINTS} delta-chained \
             checkpoints per algorithm, steady Zipf)"
        ),
        &[
            "algorithm",
            "updates",
            "state changes",
            "full ckpt bytes",
            "persisted bytes",
            "full-policy bytes",
            "persist ratio",
        ],
    );
    for r in rows {
        table.row(vec![
            r.algorithm.clone(),
            r.updates.to_string(),
            r.state_changes.to_string(),
            r.final_full_bytes.to_string(),
            r.persisted_bytes.to_string(),
            r.full_policy_bytes.to_string(),
            f(r.persistence_ratio()),
        ]);
    }
    table
}

/// Fails if any cell violated the engine's laws: every mid-stream failover must
/// reproduce the pre-crash engine (in delta mode: from the chain tip, with the
/// compaction and time-travel audits folded in), exact-merge unions must answer
/// identically to the single-shard reference, and no delta may exceed its full
/// checkpoint by more than the format overhead.  `fig_engine` (and CI through it)
/// runs this after every sweep.
pub fn equivalence_check(rows: &[Row]) -> Result<(), String> {
    for r in rows {
        if !r.restore_ok {
            return Err(format!(
                "{} on {}: checkpoint/failover did not reproduce the engine",
                r.algorithm, r.scenario
            ));
        }
        if r.merge == Merge::Exact && r.max_query_diff != 0.0 {
            return Err(format!(
                "{} on {}: exact-merge union diverged from the single shard by {}",
                r.algorithm, r.scenario, r.max_query_diff
            ));
        }
        if r.checkpoints == 0 {
            return Err(format!(
                "{} on {}: scenario took no checkpoints — the failover path went untested",
                r.algorithm, r.scenario
            ));
        }
        if r.curve.len() != r.checkpoints {
            return Err(format!(
                "{} on {}: {} checkpoints but {} curve points",
                r.algorithm,
                r.scenario,
                r.checkpoints,
                r.curve.len()
            ));
        }
        for p in &r.curve {
            // FSCD guarantees delta ≤ full + DELTA_OVERHEAD + id; 512 is a slack
            // bound over both modes.
            if p.persisted_bytes > p.full_bytes + 512 {
                return Err(format!(
                    "{} on {}: persisted {} bytes at position {} for a {}-byte checkpoint",
                    r.algorithm, r.scenario, p.persisted_bytes, p.ingested, p.full_bytes
                ));
            }
        }
    }
    Ok(())
}

/// Registry ids of the paper's few-state-change algorithms (the rest of the
/// registry is the write-heavy baseline pool).
pub const FEW_STATE_IDS: [&str; 7] = [
    "sample_and_hold",
    "full_sample_and_hold",
    "few_state_heavy_hitters",
    "fp_estimator",
    "fp_small",
    "entropy_few_state",
    "sparse_recovery",
];

/// CI guard over the standalone curves: the persistence bill must tell the paper's
/// story.  Every point must respect the delta-size bound, at least one
/// few-state-change algorithm must persist **measurably sublinearly** (under half
/// the full-checkpoint-every-time policy), and it must beat the write-heaviest
/// baseline by at least 2× on the persistence ratio.
pub fn curves_check(rows: &[CurveRow]) -> Result<(), String> {
    for r in rows {
        for p in &r.points {
            if p.persisted_bytes > p.full_bytes + 512 {
                return Err(format!(
                    "{}: delta of {} bytes for a {}-byte checkpoint at position {}",
                    r.id, p.persisted_bytes, p.full_bytes, p.ingested
                ));
            }
        }
        if r.points.len() != CURVE_CHECKPOINTS {
            return Err(format!(
                "{}: {} curve points, expected {CURVE_CHECKPOINTS}",
                r.id,
                r.points.len()
            ));
        }
    }
    let best_few_state = rows
        .iter()
        .filter(|r| FEW_STATE_IDS.contains(&r.id))
        .map(|r| r.persistence_ratio())
        .fold(f64::INFINITY, f64::min);
    let worst_baseline = rows
        .iter()
        .filter(|r| !FEW_STATE_IDS.contains(&r.id))
        .map(|r| r.persistence_ratio())
        .fold(0.0f64, f64::max);
    if best_few_state > 0.5 {
        return Err(format!(
            "no few-state-change algorithm persisted sublinearly: best ratio {best_few_state:.3} \
             (want < 0.5 of the full-checkpoint-every-time policy)"
        ));
    }
    if best_few_state * 2.0 > worst_baseline {
        return Err(format!(
            "few-state-change persistence ({best_few_state:.3}) does not clearly beat the \
             write-heaviest baseline ({worst_baseline:.3})"
        ));
    }
    Ok(())
}

/// Items per batch in the engine-overhead gate: one serve ingest request.
pub const OVERHEAD_BATCH: usize = 1024;

/// The most a [`SHARDS`]-shard `Engine<CountMin>` ingest may cost over the bare
/// CountMin kernel fed the same batch: the median per-batch time ratio in
/// [`engine_overhead`].
///
/// Quick runs on a 2-vCPU host read 1.14–1.16 with the host core count cached
/// once per process, and 1.72–1.79 when `Engine::ingest` queried it on every
/// batch (a 13 µs syscall and cgroup read each time; 10 runs each).
pub const MAX_ENGINE_OVERHEAD: f64 = 1.4;

/// Per-batch engine/kernel time ratios, measured in one run: perfbench-style
/// zipf batches of [`OVERHEAD_BATCH`] items go through the serve tenant's
/// engine (the registry's `count_min` over [`SHARDS`] shards, default config)
/// and through one bare CountMin `process_batch`, alternating batch by batch
/// and swapping which side goes first, so a change in host speed hits both.
pub fn engine_overhead(scale: Scale) -> Vec<f64> {
    let universe = 1 << 14;
    let stream = zipf_stream(universe, scale.pick(1024, 4096) * OVERHEAD_BATCH, 1.1, 1);
    let ctx = MakeCtx::new(universe, stream.len());
    let count_min = spec("count_min").expect("count_min is registered");
    let config = EngineConfig {
        shards: SHARDS,
        ..EngineConfig::default()
    };
    let mut engine = (count_min.engine.expect("count_min is engine-capable"))(&ctx, config);
    let mut kernel = (count_min.make)(&ctx);
    let timed = |f: &mut dyn FnMut()| {
        let began = Instant::now();
        f();
        began.elapsed().as_secs_f64()
    };
    stream
        .chunks(OVERHEAD_BATCH)
        .enumerate()
        .map(|(b, batch)| {
            let mut ingest = || engine.ingest(batch);
            let mut process = || kernel.process_batch(batch);
            let (engine_s, kernel_s) = if b % 2 == 0 {
                let e = timed(&mut ingest);
                (e, timed(&mut process))
            } else {
                let k = timed(&mut process);
                (timed(&mut ingest), k)
            };
            engine_s / kernel_s.max(1e-9)
        })
        .collect()
}

/// The same-run engine-overhead gate: the median of the per-batch ratios must
/// not exceed [`MAX_ENGINE_OVERHEAD`].  Returns the median.
pub fn overhead_gate(ratios: &[f64]) -> Result<f64, String> {
    let mut sorted = ratios.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(&median) = sorted.get(sorted.len() / 2) else {
        return Err("engine gate: no batches measured".to_string());
    };
    if median > MAX_ENGINE_OVERHEAD {
        return Err(format!(
            "engine gate failed: a {SHARDS}-shard engine ingest costs {median:.2}x the bare \
             CountMin kernel (median over {} batches; allows {MAX_ENGINE_OVERHEAD}x)",
            ratios.len()
        ));
    }
    Ok(median)
}

fn curve_points_json(points: &[CurvePoint]) -> String {
    let body: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"ingested\": {}, \"full_bytes\": {}, \"persisted_bytes\": {}}}",
                p.ingested, p.full_bytes, p.persisted_bytes
            )
        })
        .collect();
    format!("[{}]", body.join(", "))
}

/// Renders the rows and curves as the `BENCH_engine.json` record (hand-rolled,
/// like the throughput record: the workspace is offline and carries no serde).
pub fn to_json(scale: Scale, rows: &[Row], curves: &[CurveRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"engine\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        scale.pick("Quick", "Full")
    ));
    out.push_str(&format!("  \"shards\": {SHARDS},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"id\": \"{}\", \"scenario\": \"{}\", \
             \"mode\": \"{}\", \"updates\": {}, \"state_changes\": {}, \"checkpoints\": {}, \
             \"checkpoint_bytes\": {}, \"delta_bytes\": {}, \"restore_ok\": {}, \
             \"max_query_diff\": {:.6}, \"merge\": \"{:?}\", \"curve\": {}}}{}\n",
            r.algorithm,
            r.id,
            r.scenario,
            mode_label(r.mode),
            r.updates,
            r.state_changes,
            r.checkpoints,
            r.checkpoint_bytes,
            r.delta_bytes,
            r.restore_ok,
            r.max_query_diff,
            r.merge,
            curve_points_json(&r.curve),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"curves\": [\n");
    for (i, r) in curves.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"id\": \"{}\", \"updates\": {}, \
             \"state_changes\": {}, \"final_full_bytes\": {}, \"persisted_bytes\": {}, \
             \"full_policy_bytes\": {}, \"persistence_ratio\": {:.6}, \"points\": {}}}{}\n",
            r.algorithm,
            r.id,
            r.updates,
            r.state_changes,
            r.final_full_bytes,
            r.persisted_bytes,
            r.full_policy_bytes,
            r.persistence_ratio(),
            curve_points_json(&r.points),
            if i + 1 < curves.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The keys every `BENCH_engine.json` must contain ([`crate::record::check_keys`]).
pub const SCHEMA_KEYS: &[&str] = &[
    "\"experiment\": \"engine\"",
    "\"scale\":",
    "\"shards\":",
    "\"rows\":",
    "\"mode\":",
    "\"restore_ok\": true",
    "\"checkpoint_bytes\":",
    "\"delta_bytes\":",
    "\"max_query_diff\":",
    "\"curves\":",
    "\"persisted_bytes\":",
    "\"full_policy_bytes\":",
    "\"persistence_ratio\":",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::check_keys;

    #[test]
    fn overhead_gate_holds_the_median_engine_over_kernel_ratio() {
        assert_eq!(overhead_gate(&[1.2; 5]), Ok(1.2));
        let err = overhead_gate(&[1.6; 5]).expect_err("1.6x fails");
        assert!(err.contains("1.60x"), "{err}");
        // The median decides, not the worst or the best sample.
        assert_eq!(overhead_gate(&[1.1, 9.0, 1.2, 1.3, 7.5]), Ok(1.3));
        assert!(overhead_gate(&[1.0, 1.6, 1.7, 0.9, 1.5]).is_err());
        assert!(overhead_gate(&[]).is_err());
    }

    #[test]
    fn quick_matrix_covers_every_engine_spec_and_scenario_and_holds_the_laws() {
        let (table, rows) = run(Scale::Quick);
        assert_eq!(
            rows.len(),
            engine_specs().len() * scenarios(Scale::Quick).len()
        );
        assert_eq!(table.len(), rows.len());
        equivalence_check(&rows).expect("engine laws must hold");
        let mut saw_delta = false;
        let mut saw_compacting = false;
        let mut saw_full = false;
        for r in &rows {
            assert!(
                r.checkpoints >= 1,
                "{}: no checkpoint exercised",
                r.algorithm
            );
            assert!(r.checkpoint_bytes > 0);
            assert_eq!(r.curve.len(), r.checkpoints);
            assert_eq!(r.updates, scenarios(Scale::Quick)[0].total_updates());
            if r.merge == Merge::Exact {
                assert_eq!(r.max_query_diff, 0.0, "{}", r.algorithm);
            }
            match r.mode {
                CheckpointMode::Full => {
                    saw_full = true;
                    assert_eq!(r.delta_bytes, r.checkpoint_bytes, "{}", r.algorithm);
                }
                CheckpointMode::Delta { compact_every } => {
                    saw_delta = true;
                    saw_compacting |= compact_every > 0;
                    // The chain base is a full checkpoint; later points are deltas.
                    assert_eq!(r.curve[0].persisted_bytes, r.curve[0].full_bytes);
                }
            }
        }
        assert!(
            saw_delta && saw_compacting && saw_full,
            "the matrix must exercise delta, compacting-delta, and full modes"
        );
        let curves = delta_curves(Scale::Quick);
        let json = to_json(Scale::Quick, &rows, &curves);
        check_keys(&json, SCHEMA_KEYS).expect("schema");
    }

    #[test]
    fn delta_curves_cover_the_registry_and_show_sublinear_persistence() {
        let curves = delta_curves(Scale::Quick);
        assert_eq!(curves.len(), registry().len());
        curves_check(&curves).expect("persistence-bill laws must hold");
        assert_eq!(curves_table(&curves).len(), curves.len());
        for r in &curves {
            assert!(r.final_full_bytes > 0, "{}", r.id);
            assert_eq!(r.points[0].persisted_bytes, r.points[0].full_bytes);
            assert!(
                r.points.iter().map(|p| p.ingested).is_sorted(),
                "{}: curve positions must ascend",
                r.id
            );
        }
    }

    #[test]
    fn equivalence_check_flags_violations() {
        let row = |restore_ok, diff, merge, checkpoints| Row {
            algorithm: "X".into(),
            id: "x",
            scenario: "s".into(),
            mode: CheckpointMode::Full,
            updates: 1,
            state_changes: 1,
            checkpoints,
            checkpoint_bytes: 1,
            delta_bytes: 1,
            curve: vec![
                CurvePoint {
                    ingested: 1,
                    full_bytes: 1,
                    persisted_bytes: 1
                };
                checkpoints
            ],
            restore_ok,
            max_query_diff: diff,
            merge,
        };
        assert!(equivalence_check(&[row(true, 0.0, Merge::Exact, 1)]).is_ok());
        assert!(equivalence_check(&[row(false, 0.0, Merge::Exact, 1)]).is_err());
        assert!(equivalence_check(&[row(true, 0.5, Merge::Exact, 1)]).is_err());
        assert!(equivalence_check(&[row(true, 0.5, Merge::Bounded, 1)]).is_ok());
        assert!(equivalence_check(&[row(true, 0.0, Merge::Exact, 0)]).is_err());
        // An oversized "delta" (persisted far beyond full + overhead) is flagged.
        let mut oversized = row(true, 0.0, Merge::Exact, 1);
        oversized.curve[0].persisted_bytes = 10_000;
        assert!(equivalence_check(&[oversized]).is_err());
    }

    #[test]
    fn curves_check_flags_linear_persistence() {
        let curve = |id, ratio: f64| {
            let full = 1_000usize;
            CurveRow {
                id,
                algorithm: id.to_string(),
                updates: 100,
                state_changes: 10,
                final_full_bytes: full,
                persisted_bytes: (ratio * (CURVE_CHECKPOINTS * full) as f64) as usize,
                full_policy_bytes: CURVE_CHECKPOINTS * full,
                points: vec![
                    CurvePoint {
                        ingested: 1,
                        full_bytes: full,
                        persisted_bytes: full
                    };
                    CURVE_CHECKPOINTS
                ],
            }
        };
        // A sublinear few-state row beating a linear baseline passes.
        assert!(curves_check(&[curve("sample_and_hold", 0.2), curve("count_min", 0.9)]).is_ok());
        // Few-state persisting like a baseline fails both guards.
        assert!(curves_check(&[curve("sample_and_hold", 0.9), curve("count_min", 0.9)]).is_err());
        // Sublinear but not clearly ahead of the baseline fails the 2× margin.
        assert!(curves_check(&[curve("sample_and_hold", 0.45), curve("count_min", 0.6)]).is_err());
    }

    #[test]
    fn schema_check_rejects_incomplete_json() {
        assert!(check_keys("{}", SCHEMA_KEYS).is_err());
    }
}
