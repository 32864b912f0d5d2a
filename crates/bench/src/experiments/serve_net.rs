//! F14 — the networked front-end under load and under fire; backs the
//! `fig_serve_net` binary and `BENCH_serve_net.json`.
//!
//! Two halves:
//!
//! * **Saturation sweep** — a real `fsc-serve` server on an ephemeral port, a
//!   multi-connection [`LoadGen`] per (connections × batch-size) cell, recording
//!   acknowledged-item throughput and p50/p99 ingest latency.  Every cell is
//!   verified, not just timed: every batch must be acknowledged exactly once and
//!   every tenant's sequence cursor must land on the expected value.
//!
//! * **Fault matrix** — one drill per failure class the server claims to
//!   survive: torn checkpoint write, corrupt chain tip, crash mid-ingest,
//!   dropped connections, overload.  Each drill injects its fault
//!   deterministically (seeded [`FaultPlan`]), recovers, and then asserts
//!   **exact equality** against a registry *twin* — an engine built from the
//!   same constructor table fed the same batches — first against a twin that
//!   only saw the durable prefix (the recovery law), then, after the
//!   sequence-numbered client replays the lost suffix, against an uninterrupted
//!   full oracle.  "Recovered" here is a theorem checked byte-for-byte, not a
//!   log line.
//!
//! Latency numbers from CI containers (often 1 CPU) measure scheduling, not the
//! server; the recorded full-scale numbers come from an unloaded multi-core
//! host.  The correctness checks are load-independent.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use fsc_engine::{DynEngine, EngineConfig};
use fsc_serve::faults::{flip_one_byte, splitmix64};
use fsc_serve::{
    Client, ClientConfig, FaultPlan, LoadGen, Server, ServerConfig, ServerHandle, TenantOutcome,
};
use fsc_state::{Answer, Query};

use crate::record;
use crate::registry::serve_factory;
use crate::table::{f, Table};
use crate::Scale;

/// Algorithm every drill tenant runs (engine-capable, exact merge, so the
/// served tenant and the local oracle are twins).
const ALGORITHM: &str = "count_min";
/// Shards per tenant engine.
const SHARDS: u32 = 2;
/// Item universe of the drill workload.
const UNIVERSE: u64 = 1 << 10;
/// Items per drill batch.
const DRILL_BATCH: usize = 128;
/// Workload seed shared by drills and their oracles.
const DRILL_SEED: u64 = 0xF14_5EED;

// --- shared helpers -----------------------------------------------------------

/// A scratch data dir under the system temp dir, wiped before use.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsc-serve-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic drill workload: `n` batches of [`DRILL_BATCH`] items.
fn drill_batches(n: usize) -> Vec<Vec<u64>> {
    let mut rng = DRILL_SEED;
    (0..n)
        .map(|_| {
            (0..DRILL_BATCH)
                .map(|_| splitmix64(&mut rng) % UNIVERSE)
                .collect()
        })
        .collect()
}

/// The probe queries every equality check runs (point mass across the hot end
/// of the universe plus the second moment).
fn probes() -> Vec<Query> {
    let mut out: Vec<Query> = (0..24).map(Query::Point).collect();
    out.push(Query::Moment);
    out
}

/// The registry twin: same constructor table, same config the server uses for a
/// tenant of [`ALGORITHM`] with [`SHARDS`] shards, fed `batches` directly.
fn twin(batches: &[Vec<u64>]) -> Box<dyn DynEngine> {
    let factory = serve_factory();
    let config = EngineConfig {
        shards: SHARDS as usize,
        ..EngineConfig::default()
    };
    let mut engine = factory(ALGORITHM, config).expect("registry builds the drill algorithm");
    for batch in batches {
        engine.ingest(batch);
    }
    engine
}

/// Answers of a local twin on the probe set (fresh rebuild — the oracle side).
fn twin_answers(engine: &dyn DynEngine) -> Vec<Answer> {
    probes()
        .iter()
        .map(|q| engine.query_fresh(q).expect("twin answers probes"))
        .collect()
}

/// Answers of a served tenant on the probe set, through the wire.
fn served_answers(client: &mut Client, tenant: &str) -> Result<Vec<Answer>, String> {
    probes()
        .iter()
        .map(|q| {
            client
                .query(tenant, *q)
                .map_err(|e| format!("querying {tenant}: {e}"))
        })
        .collect()
}

/// Starts a server over `dir` with an armed fault plan.
fn start_server(
    dir: &Path,
    faults: Arc<FaultPlan>,
    max_inflight: usize,
) -> (ServerHandle, fsc_serve::RecoveryReport) {
    let config = ServerConfig {
        faults,
        ..ServerConfig::new(dir)
    }
    .with_max_inflight_ingest(max_inflight);
    Server::start("127.0.0.1:0", config, serve_factory()).expect("bind ephemeral port")
}

fn client(addr: SocketAddr) -> Client {
    Client::new(addr, ClientConfig::default())
}

// --- saturation sweep ---------------------------------------------------------

/// One cell of the saturation sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Concurrent connections (one tenant each).
    pub connections: usize,
    /// Items per ingest batch.
    pub batch_size: usize,
    /// Batches per connection.
    pub batches: usize,
    /// Items acknowledged across the run.
    pub items: u64,
    /// Acknowledged-item throughput.
    pub items_per_sec: f64,
    /// Median ingest-request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile ingest-request latency, microseconds.
    pub p99_us: u64,
    /// Retry attempts across all connections (0 on a healthy loopback).
    pub retries: u64,
    /// Connections established (first connects count, so ≥ `connections`).
    pub reconnects: u64,
    /// Whether the cell verified: no per-connection errors, every batch
    /// acknowledged exactly once, every tenant's cursor at `batches`.
    pub clean: bool,
}

/// The sweep grid at `scale`.
fn sweep_grid(scale: Scale) -> (Vec<usize>, Vec<usize>, usize) {
    let connections = scale.pick(vec![1, 2], vec![1, 2, 4, 8]);
    let batch_sizes = scale.pick(vec![64, 256], vec![64, 256, 1024]);
    let batches = scale.pick(10, 60);
    (connections, batch_sizes, batches)
}

/// Runs the saturation sweep: a fresh server per cell, a [`LoadGen`] per cell,
/// post-run verification of every tenant's cursor.
pub fn run(scale: Scale) -> (Table, Vec<SweepRow>) {
    let (connections, batch_sizes, batches) = sweep_grid(scale);
    let mut table = Table::new(
        "F14 — serve-net saturation sweep (ingest batches over TCP loopback)",
        &[
            "conns", "batch", "items", "items/s", "p50 µs", "p99 µs", "retries", "clean",
        ],
    );
    let mut rows = Vec::new();
    for &conns in &connections {
        for &batch_size in &batch_sizes {
            let dir = fresh_dir(&format!("sweep-{conns}-{batch_size}"));
            let (server, report) = start_server(&dir, Arc::new(FaultPlan::none()), 64);
            assert!(report.tenants.is_empty(), "fresh dir recovers nothing");
            let gen = LoadGen {
                connections: conns,
                batches,
                batch_size,
                algorithm: ALGORITHM.into(),
                shards: SHARDS,
                universe: UNIVERSE,
                seed: DRILL_SEED ^ (conns as u64) << 8 ^ batch_size as u64,
                client: ClientConfig::default(),
            };
            let load = gen.run(server.addr());

            // Verify, don't trust: every tenant's cursor must sit at `batches`
            // and every batch must have been acknowledged exactly once.
            let mut cursors_ok = true;
            let mut check = client(server.addr());
            for i in 0..conns {
                match check.stats(&format!("lg-{i}")) {
                    Ok(stats) => cursors_ok &= stats.next_seq == batches as u64,
                    Err(_) => cursors_ok = false,
                }
            }
            let acked = load.applied_batches + load.duplicate_batches;
            let clean = load.errors.is_empty()
                && load.completed_connections == conns
                && acked == (conns * batches) as u64
                && cursors_ok;

            server.stop().expect("graceful stop");
            let _ = std::fs::remove_dir_all(&dir);

            let row = SweepRow {
                connections: conns,
                batch_size,
                batches,
                items: load.items,
                items_per_sec: load.items_per_sec(),
                p50_us: load.p50.as_micros() as u64,
                p99_us: load.p99.as_micros() as u64,
                retries: load.counters.retries,
                reconnects: load.counters.reconnects,
                clean,
            };
            table.row(vec![
                row.connections.to_string(),
                row.batch_size.to_string(),
                row.items.to_string(),
                f(row.items_per_sec),
                row.p50_us.to_string(),
                row.p99_us.to_string(),
                row.retries.to_string(),
                row.clean.to_string(),
            ]);
            rows.push(row);
        }
    }
    (table, rows)
}

/// The sweep's law: every cell verified clean, every cell moved items.
pub fn sweep_check(rows: &[SweepRow]) -> Result<(), String> {
    if rows.is_empty() {
        return Err("saturation sweep produced no cells".into());
    }
    for r in rows {
        if !r.clean {
            return Err(format!(
                "sweep cell ({} conns × {} items/batch) did not verify: \
                 a batch was lost, double-counted, or a cursor drifted",
                r.connections, r.batch_size
            ));
        }
        if r.items == 0 || r.items_per_sec <= 0.0 {
            return Err(format!(
                "sweep cell ({} conns × {} items/batch) moved no items",
                r.connections, r.batch_size
            ));
        }
    }
    Ok(())
}

// --- fault matrix -------------------------------------------------------------

/// One drilled failure class.
#[derive(Debug, Clone)]
pub struct DrillRow {
    /// Failure class name.
    pub fault: &'static str,
    /// Whether the fault demonstrably fired (a drill that injects nothing
    /// proves nothing).
    pub injected: bool,
    /// Whether the server came back (or stayed up) with the expected typed
    /// recovery outcome.
    pub recovered: bool,
    /// Whether every exact-equality check against the registry twins passed.
    pub answers_match: bool,
    /// Damaged chain entries discarded during recovery.
    pub discarded: usize,
    /// One-line account of what happened.
    pub detail: String,
}

impl DrillRow {
    /// A drill passes when its fault fired, recovery behaved, and every answer
    /// matched the oracle.
    pub fn passed(&self) -> bool {
        self.injected && self.recovered && self.answers_match
    }
}

/// Reads the recovered outcome for `tenant` out of a startup report.
fn recovered_outcome(
    report: &fsc_serve::RecoveryReport,
    tenant: &str,
) -> Option<(u64, u64, usize)> {
    report.tenants.iter().find_map(|t| {
        if t.tenant != tenant {
            return None;
        }
        match t.outcome {
            TenantOutcome::Recovered {
                epoch,
                next_seq,
                discarded,
                ..
            } => Some((epoch, next_seq, discarded)),
            TenantOutcome::Failed { .. } => None,
        }
    })
}

/// Replays `batches[from..]` through the sequence-numbered client and proves
/// exactly-once by re-sending an already-applied sequence number first.
/// Returns `(suffix_applied, duplicate_refused)`.
fn replay_suffix(
    client: &mut Client,
    tenant: &str,
    batches: &[Vec<u64>],
    from: u64,
) -> Result<(bool, bool), String> {
    let mut duplicate_refused = true;
    if from > 0 {
        // The survivor: its first copy landed before the fault; the retry must
        // ack without re-applying.
        let applied = client
            .ingest(tenant, from - 1, &batches[from as usize - 1])
            .map_err(|e| format!("duplicate resend: {e}"))?;
        duplicate_refused = !applied;
    }
    for seq in from..batches.len() as u64 {
        let applied = client
            .ingest(tenant, seq, &batches[seq as usize])
            .map_err(|e| format!("replaying seq {seq}: {e}"))?;
        if !applied {
            return Err(format!(
                "seq {seq} was already applied; replay started late"
            ));
        }
    }
    Ok((true, duplicate_refused))
}

/// Drill: the nth durable delta write is torn mid-write.  Chain recovery must
/// fall back to the newest valid prefix, and the write-ahead journal — which a
/// torn checkpoint write stops truncating — must restore every acked batch
/// without any client replay.
fn drill_torn_write() -> DrillRow {
    let fault = "torn_checkpoint_write";
    let dir = fresh_dir(fault);
    let batches = drill_batches(3);
    // Durable writes: 1 = base at create, 2 = delta for seq 1 (valid),
    // 3 = delta for seq 2 (torn), 4 = delta for seq 3 (chains onto the torn
    // tip, so recovery must discard it too).
    let faults = Arc::new(FaultPlan::seeded(0xA11).with_torn_write(3));
    let (server, _) = start_server(&dir, Arc::clone(&faults), 64);
    let mut c = client(server.addr());
    let mut detail = String::new();
    let mut run = || -> Result<(bool, usize), String> {
        c.create_tenant("t0", ALGORITHM, SHARDS)
            .map_err(|e| e.to_string())?;
        for (seq, batch) in batches.iter().enumerate() {
            c.ingest("t0", seq as u64, batch)
                .map_err(|e| e.to_string())?;
            c.checkpoint("t0").map_err(|e| e.to_string())?;
        }
        Ok((faults.writes_seen() >= 3, 0))
    };
    let injected = match run() {
        Ok((fired, _)) => fired,
        Err(e) => {
            detail = e;
            false
        }
    };
    // Die without the graceful checkpoint sweep (it would mask the tear).
    server.crash();

    let (server, report) = start_server(&dir, Arc::new(FaultPlan::none()), 64);
    let outcome = recovered_outcome(&report, "t0");
    // The valid chain prefix ends at seq 1: the torn delta and its orphaned
    // successor are both discarded.  But the tear also disabled journal
    // truncation, so the write-ahead journal still holds the acked batches for
    // seqs 1 and 2 — recovery replays them and lands at next_seq 3.
    let recovered = outcome == Some((1, 3, 2));
    let discarded = outcome.map(|(_, _, d)| d).unwrap_or(0);

    let mut c = client(server.addr());
    let mut verify = || -> Result<bool, String> {
        let prefix = served_answers(&mut c, "t0")?;
        let prefix_ok = prefix == twin_answers(twin(&batches).as_ref());
        let (_, duplicate_refused) = replay_suffix(&mut c, "t0", &batches, 3)?;
        let full = served_answers(&mut c, "t0")?;
        let full_ok = full == twin_answers(twin(&batches).as_ref());
        if detail.is_empty() {
            detail = format!(
                "tore write #3; chain fell back to seq 1 discarding \
                 {discarded}, journal replay restored the acked tail; \
                 full twin before replay {prefix_ok}, after {full_ok}"
            );
        }
        Ok(prefix_ok && full_ok && duplicate_refused)
    };
    let answers_match = match verify() {
        Ok(ok) => ok,
        Err(e) => {
            detail = e;
            false
        }
    };
    server.stop().expect("graceful stop");
    let _ = std::fs::remove_dir_all(&dir);
    DrillRow {
        fault,
        injected,
        recovered,
        answers_match,
        discarded,
        detail,
    }
}

/// Drill: the newest delta file on disk is bit-flipped after a clean shutdown.
/// The chain checksum must catch it and recovery must fall back one checkpoint.
fn drill_corrupt_tip() -> DrillRow {
    let fault = "corrupt_chain_tip";
    let dir = fresh_dir(fault);
    let batches = drill_batches(3);
    let (server, _) = start_server(&dir, Arc::new(FaultPlan::none()), 64);
    let mut c = client(server.addr());
    let mut detail = String::new();
    let mut run = || -> Result<(), String> {
        c.create_tenant("t0", ALGORITHM, SHARDS)
            .map_err(|e| e.to_string())?;
        for (seq, batch) in batches.iter().enumerate() {
            c.ingest("t0", seq as u64, batch)
                .map_err(|e| e.to_string())?;
            c.checkpoint("t0").map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    let mut injected = run().map_err(|e| detail = e).is_ok();
    server.stop().expect("graceful stop");

    // Corrupt the newest delta file in place (the chain tip).
    injected = injected
        && (|| -> Option<()> {
            let tenant_dir = dir.join("t0");
            let mut deltas: Vec<PathBuf> = std::fs::read_dir(&tenant_dir)
                .ok()?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("delta-"))
                })
                .collect();
            deltas.sort();
            let tip = deltas.pop()?;
            let mut bytes = std::fs::read(&tip).ok()?;
            let at = flip_one_byte(&mut bytes, 0xBAD_71B);
            std::fs::write(&tip, &bytes).ok()?;
            detail = format!(
                "flipped byte {at} of {:?}",
                tip.file_name().unwrap_or_default()
            );
            Some(())
        })()
        .is_some();

    let (server, report) = start_server(&dir, Arc::new(FaultPlan::none()), 64);
    let outcome = recovered_outcome(&report, "t0");
    let recovered = outcome == Some((2, 2, 1));
    let discarded = outcome.map(|(_, _, d)| d).unwrap_or(0);

    let mut c = client(server.addr());
    let mut verify = || -> Result<bool, String> {
        let prefix = served_answers(&mut c, "t0")?;
        let prefix_ok = prefix == twin_answers(twin(&batches[..2]).as_ref());
        let (_, duplicate_refused) = replay_suffix(&mut c, "t0", &batches, 2)?;
        let full = served_answers(&mut c, "t0")?;
        let full_ok = full == twin_answers(twin(&batches).as_ref());
        detail = format!(
            "{detail}; recovered to seq 2 discarding {discarded}; \
             prefix twin {prefix_ok}, replay+full twin {full_ok}"
        );
        Ok(prefix_ok && full_ok && duplicate_refused)
    };
    let answers_match = match verify() {
        Ok(ok) => ok,
        Err(e) => {
            detail = e;
            false
        }
    };
    server.stop().expect("graceful stop");
    let _ = std::fs::remove_dir_all(&dir);
    DrillRow {
        fault,
        injected,
        recovered,
        answers_match,
        discarded,
        detail,
    }
}

/// Drill: the server is killed mid-ingest (crash frame: no goodbye, no
/// checkpoint sweep).  The delta chain only holds the checkpointed prefix, but
/// the write-ahead journal holds every acked batch — the restart must answer
/// like a twin that saw all of them, with no client replay at all.
fn drill_crash_mid_ingest() -> DrillRow {
    let fault = "crash_mid_ingest";
    let dir = fresh_dir(fault);
    let batches = drill_batches(4);
    let faults = Arc::new(FaultPlan::seeded(0xDEAD).with_crash_frame());
    let (server, _) = start_server(&dir, Arc::clone(&faults), 64);
    let mut c = client(server.addr());
    let mut detail = String::new();
    let mut run = || -> Result<(), String> {
        c.create_tenant("t0", ALGORITHM, SHARDS)
            .map_err(|e| e.to_string())?;
        // Two batches checkpointed into the chain, two only in the journal.
        for seq in 0..2u64 {
            c.ingest("t0", seq, &batches[seq as usize])
                .map_err(|e| e.to_string())?;
        }
        c.checkpoint("t0").map_err(|e| e.to_string())?;
        for seq in 2..4u64 {
            c.ingest("t0", seq, &batches[seq as usize])
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    let injected = run().map_err(|e| detail = e).is_ok();
    c.crash();
    server.join();

    let (server, report) = start_server(&dir, Arc::new(FaultPlan::none()), 64);
    let outcome = recovered_outcome(&report, "t0");
    // Nothing on disk is damaged: the chain restores the checkpointed prefix
    // (epoch 2, next_seq 2) and the journal replays the two batches that were
    // acked after the last checkpoint, landing at next_seq 4.
    let recovered = outcome == Some((2, 4, 0));
    let discarded = outcome.map(|(_, _, d)| d).unwrap_or(0);

    let mut c = client(server.addr());
    let mut verify = || -> Result<bool, String> {
        let prefix = served_answers(&mut c, "t0")?;
        let prefix_ok = prefix == twin_answers(twin(&batches).as_ref());
        let (_, duplicate_refused) = replay_suffix(&mut c, "t0", &batches, 4)?;
        let full = served_answers(&mut c, "t0")?;
        let full_ok = full == twin_answers(twin(&batches).as_ref());
        if detail.is_empty() {
            detail = format!(
                "crashed holding 2 journaled-but-uncheckpointed batches; \
                 restart answered as the full 4-batch twin ({prefix_ok}) with \
                 no client replay; duplicates still refused ({full_ok})"
            );
        }
        Ok(prefix_ok && full_ok && duplicate_refused)
    };
    let answers_match = match verify() {
        Ok(ok) => ok,
        Err(e) => {
            detail = e;
            false
        }
    };
    server.stop().expect("graceful stop");
    let _ = std::fs::remove_dir_all(&dir);
    DrillRow {
        fault,
        injected,
        recovered,
        answers_match,
        discarded,
        detail,
    }
}

/// Drill: every connection is dropped after three answered frames, *after* the
/// request took effect but *before* the response — the worst case for a
/// retrying client.  Retries plus sequence numbers must converge to
/// exactly-once.
fn drill_dropped_connections() -> DrillRow {
    let fault = "dropped_connections";
    let dir = fresh_dir(fault);
    let batches = drill_batches(6);
    let faults = Arc::new(FaultPlan::seeded(0xD0D0).with_drop_after_frames(3));
    let (server, _) = start_server(&dir, Arc::clone(&faults), 64);
    let mut c = client(server.addr());
    let mut detail = String::new();
    let mut run = || -> Result<(), String> {
        c.create_tenant("t0", ALGORITHM, SHARDS)
            .map_err(|e| e.to_string())?;
        for (seq, batch) in batches.iter().enumerate() {
            let _ = c
                .ingest("t0", seq as u64, batch)
                .map_err(|e| format!("seq {seq}: {e}"))?;
        }
        Ok(())
    };
    let ingest_ok = run().map_err(|e| detail = e).is_ok();
    // The fault fired iff connections actually died: more than the one initial
    // connect, and at least one retried batch acked as a duplicate.
    let injected = ingest_ok && c.counters.reconnects > 1 && c.counters.duplicate_acks >= 1;
    let recovered = ingest_ok && !server.stopped();

    let mut verify = || -> Result<bool, String> {
        let cursor = c.stats("t0").map_err(|e| format!("stats: {e}"))?.next_seq;
        let served = served_answers(&mut c, "t0")?;
        let full_ok = served == twin_answers(twin(&batches).as_ref());
        if detail.is_empty() {
            detail = format!(
                "{} reconnects, {} duplicate acks, cursor {cursor}; \
                 full twin {full_ok}",
                c.counters.reconnects, c.counters.duplicate_acks
            );
        }
        Ok(full_ok && cursor == batches.len() as u64)
    };
    let answers_match = match verify() {
        Ok(ok) => ok,
        Err(e) => {
            detail = e;
            false
        }
    };
    server.stop().expect("graceful stop");
    let _ = std::fs::remove_dir_all(&dir);
    DrillRow {
        fault,
        injected,
        recovered,
        answers_match,
        discarded: 0,
        detail,
    }
}

/// Drill: ingest stalls under the tenant lock while the admission bound is 1.
/// Concurrent writers must be shed with typed `Overloaded` (absorbed by client
/// backoff), readers must stay live off the cached view, and every batch must
/// still land exactly once.
fn drill_overload() -> DrillRow {
    let fault = "overload_shedding";
    let dir = fresh_dir(fault);
    let batches = drill_batches(6);
    let faults = Arc::new(FaultPlan::seeded(0x0DD).with_stall_ingest(Duration::from_millis(40)));
    let (server, _) = start_server(&dir, Arc::clone(&faults), 1);
    let addr = server.addr();
    let patient = ClientConfig {
        retries: 24,
        backoff: Duration::from_millis(2),
        ..ClientConfig::default()
    };

    let mut detail = String::new();
    let mut setup = client(addr);
    let setup_ok = setup
        .create_tenant("ta", ALGORITHM, SHARDS)
        .and_then(|()| setup.create_tenant("tb", ALGORITHM, SHARDS))
        .map_err(|e| detail = e.to_string())
        .is_ok();

    let mut overloaded = 0u64;
    let mut writer_errors = Vec::new();
    let mut reads_ok = 0usize;
    let mut reads_failed = 0usize;
    if setup_ok {
        std::thread::scope(|scope| {
            let writers: Vec<_> = ["ta", "tb"]
                .into_iter()
                .map(|tenant| {
                    let batches = &batches;
                    scope.spawn(move || {
                        let mut c = Client::new(addr, patient);
                        for (seq, batch) in batches.iter().enumerate() {
                            if let Err(e) = c.ingest(tenant, seq as u64, batch) {
                                return (c.counters, Some(format!("{tenant} seq {seq}: {e}")));
                            }
                        }
                        (c.counters, None)
                    })
                })
                .collect();
            // Reads during the stall storm: the cached view must answer without
            // queueing behind the stalled ingest path.
            let mut reader = client(addr);
            for _ in 0..20 {
                match reader.query("ta", Query::Point(0)) {
                    Ok(_) => reads_ok += 1,
                    Err(_) => reads_failed += 1,
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            for w in writers {
                let (counters, error) = w.join().expect("writer thread");
                overloaded += counters.overloaded;
                if let Some(e) = error {
                    writer_errors.push(e);
                }
            }
        });
    }
    let injected = setup_ok && overloaded >= 1;
    let recovered = setup_ok && writer_errors.is_empty() && reads_failed == 0 && reads_ok == 20;

    let mut verify = || -> Result<bool, String> {
        let expected = twin_answers(twin(&batches).as_ref());
        let mut c = client(addr);
        let mut all_ok = true;
        for tenant in ["ta", "tb"] {
            let cursor = c
                .stats(tenant)
                .map_err(|e| format!("{tenant} stats: {e}"))?
                .next_seq;
            let served = served_answers(&mut c, tenant)?;
            all_ok &= served == expected && cursor == batches.len() as u64;
        }
        if detail.is_empty() {
            detail = format!(
                "{overloaded} sheds absorbed by backoff; {reads_ok}/20 reads \
                 live during the stall; both tenants match the full twin: {all_ok}"
            );
        }
        Ok(all_ok)
    };
    let answers_match = match verify() {
        Ok(ok) => ok,
        Err(e) => {
            if !writer_errors.is_empty() {
                detail = writer_errors.join("; ");
            } else {
                detail = e;
            }
            false
        }
    };
    server.stop().expect("graceful stop");
    let _ = std::fs::remove_dir_all(&dir);
    DrillRow {
        fault,
        injected,
        recovered,
        answers_match,
        discarded: 0,
        detail,
    }
}

/// Runs the full fault matrix (the matrix is scale-independent: every class is
/// always drilled; only the sweep scales).
pub fn fault_matrix() -> (Table, Vec<DrillRow>) {
    let rows = vec![
        drill_torn_write(),
        drill_corrupt_tip(),
        drill_crash_mid_ingest(),
        drill_dropped_connections(),
        drill_overload(),
    ];
    let mut table = Table::new(
        "F14 — fault matrix (every class must end in verified-exact recovery)",
        &[
            "fault",
            "injected",
            "recovered",
            "answers match",
            "discarded",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.fault.to_string(),
            r.injected.to_string(),
            r.recovered.to_string(),
            r.answers_match.to_string(),
            r.discarded.to_string(),
        ]);
    }
    (table, rows)
}

/// Every failure class the crate claims to survive.
pub const FAULT_CLASSES: [&str; 5] = [
    "torn_checkpoint_write",
    "corrupt_chain_tip",
    "crash_mid_ingest",
    "dropped_connections",
    "overload_shedding",
];

/// The matrix's law: all five classes drilled, every drill injected its fault,
/// recovered as typed, and matched its twins exactly.
pub fn matrix_check(rows: &[DrillRow]) -> Result<(), String> {
    for class in FAULT_CLASSES {
        let Some(row) = rows.iter().find(|r| r.fault == class) else {
            return Err(format!("fault class {class:?} was never drilled"));
        };
        if !row.injected {
            return Err(format!(
                "drill {class:?} did not demonstrably inject its fault: {}",
                row.detail
            ));
        }
        if !row.recovered {
            return Err(format!(
                "drill {class:?} did not recover as typed: {}",
                row.detail
            ));
        }
        if !row.answers_match {
            return Err(format!(
                "drill {class:?} diverged from its registry twin: {}",
                row.detail
            ));
        }
    }
    Ok(())
}

// --- JSON record --------------------------------------------------------------

/// Serializes the record written to `BENCH_serve_net.json`.
pub fn to_json(
    scale: Scale,
    sweep: &[SweepRow],
    matrix: &[DrillRow],
    trajectory: &[String],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"serve_net\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        scale.pick("Quick", "Full")
    ));
    out.push_str(&format!("  \"algorithm\": \"{ALGORITHM}\",\n"));
    out.push_str(&format!("  \"shards\": {SHARDS},\n"));
    out.push_str("  \"sweep\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"connections\": {}, \"batch_size\": {}, \"batches\": {}, \
             \"items\": {}, \"items_per_sec\": {:.0}, \"p50_us\": {}, \
             \"p99_us\": {}, \"retries\": {}, \"reconnects\": {}, \"clean\": {}}}{}\n",
            r.connections,
            r.batch_size,
            r.batches,
            r.items,
            r.items_per_sec,
            r.p50_us,
            r.p99_us,
            r.retries,
            r.reconnects,
            r.clean,
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"fault_matrix\": [\n");
    for (i, r) in matrix.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"fault\": \"{}\", \"injected\": {}, \"recovered\": {}, \
             \"answers_match\": {}, \"discarded\": {}, \"detail\": \"{}\"}}{}\n",
            r.fault,
            r.injected,
            r.recovered,
            r.answers_match,
            r.discarded,
            record::sanitize(&r.detail),
            if i + 1 < matrix.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&record::trajectory_json(trajectory));
    out.push_str("\n}\n");
    out
}

/// One trajectory entry (headline throughput cell + the matrix verdict), same
/// shape as the throughput/serve records.
pub fn trajectory_entry(
    date: &str,
    label: &str,
    scale: Scale,
    sweep: &[SweepRow],
    matrix: &[DrillRow],
) -> String {
    let (date, label) = (record::sanitize(date), record::sanitize(label));
    let peak = sweep
        .iter()
        .max_by(|a, b| a.items_per_sec.total_cmp(&b.items_per_sec));
    let peak_ips = peak
        .map(|r| format!("{:.0}", r.items_per_sec))
        .unwrap_or_else(|| "null".to_string());
    let peak_p99 = peak
        .map(|r| r.p99_us.to_string())
        .unwrap_or_else(|| "null".to_string());
    let passed = matrix.iter().filter(|r| r.passed()).count();
    format!(
        "{{\"date\": \"{date}\", \"label\": \"{label}\", \"scale\": \"{}\", \
         \"peak_items_per_sec\": {peak_ips}, \"peak_cell_p99_us\": {peak_p99}, \
         \"faults_drilled\": {}, \"faults_recovered_exactly\": {passed}}}",
        scale.pick("Quick", "Full"),
        matrix.len(),
    )
}

/// The keys every `BENCH_serve_net.json` must contain ([`record::check_keys`]):
/// the fixed fields plus one row per `FAULT_CLASSES` entry.
pub fn schema_keys() -> Vec<String> {
    [
        "\"experiment\": \"serve_net\"",
        "\"scale\":",
        "\"algorithm\":",
        "\"sweep\":",
        "\"items_per_sec\":",
        "\"p99_us\":",
        "\"clean\": true",
        "\"fault_matrix\":",
        "\"injected\": true",
        "\"recovered\": true",
        "\"answers_match\": true",
        "\"trajectory\":",
        "\"date\":",
        "\"faults_recovered_exactly\":",
    ]
    .into_iter()
    .map(String::from)
    .chain(
        FAULT_CLASSES
            .iter()
            .map(|class| format!("\"fault\": \"{class}\"")),
    )
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_saturation_sweep_verifies_every_cell() {
        let (table, rows) = run(Scale::Quick);
        let (connections, batch_sizes, _) = sweep_grid(Scale::Quick);
        assert_eq!(rows.len(), connections.len() * batch_sizes.len());
        assert_eq!(table.len(), rows.len());
        sweep_check(&rows).expect("every sweep cell must verify clean");
    }

    #[test]
    fn fault_matrix_every_class_recovers_exactly() {
        let (table, rows) = fault_matrix();
        assert_eq!(rows.len(), FAULT_CLASSES.len());
        assert_eq!(table.len(), rows.len());
        matrix_check(&rows).unwrap_or_else(|e| panic!("fault matrix law: {e}"));
    }

    #[test]
    fn json_record_passes_its_own_schema_check() {
        let sweep = vec![SweepRow {
            connections: 2,
            batch_size: 256,
            batches: 10,
            items: 5120,
            items_per_sec: 123456.0,
            p50_us: 90,
            p99_us: 400,
            retries: 0,
            reconnects: 2,
            clean: true,
        }];
        let matrix: Vec<DrillRow> = FAULT_CLASSES
            .iter()
            .map(|&fault| DrillRow {
                fault,
                injected: true,
                recovered: true,
                answers_match: true,
                discarded: 1,
                detail: "synthetic \"detail\" [with] hostile\nbytes".into(),
            })
            .collect();
        let entry = trajectory_entry("2026-08-08", "unit", Scale::Quick, &sweep, &matrix);
        let json = to_json(Scale::Quick, &sweep, &matrix, std::slice::from_ref(&entry));
        record::check_keys(&json, &schema_keys()).expect("schema");
        assert!(entry.contains("\"faults_drilled\": 5"));
        assert!(entry.contains("\"faults_recovered_exactly\": 5"));
        assert!(!json.contains("hostile\nbytes"), "detail sanitized");
        let restored = record::trajectory_inner(&json).expect("trajectory parses back");
        assert_eq!(restored, vec![entry]);
    }

    #[test]
    fn matrix_check_rejects_a_failed_drill() {
        let mut rows: Vec<DrillRow> = FAULT_CLASSES
            .iter()
            .map(|&fault| DrillRow {
                fault,
                injected: true,
                recovered: true,
                answers_match: true,
                discarded: 0,
                detail: String::new(),
            })
            .collect();
        matrix_check(&rows).expect("all-pass matrix");
        rows[2].answers_match = false;
        let err = matrix_check(&rows).expect_err("divergence must fail");
        assert!(err.contains("crash_mid_ingest"), "{err}");
        rows.pop();
        rows[2].answers_match = true;
        let err = matrix_check(&rows).expect_err("a missing class must fail");
        assert!(err.contains("overload_shedding"), "{err}");
    }
}
