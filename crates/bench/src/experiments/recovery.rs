//! F15 — durable ingest: the crash-point matrix and the recovery-cost sweep;
//! backs the `fig_recovery` binary and `BENCH_recovery.json`.
//!
//! Two halves:
//!
//! * **Crash matrix** — one scenario per way an ingest pipeline can die: a
//!   process kill in each durability mode, a fault-injected crash at each of
//!   the three crash points inside the write path (before the journal append,
//!   after it, after the in-memory apply), a torn journal append, a corrupt
//!   journal record, and a simulated power loss in each durability mode
//!   (`wal.fscw` truncated to its fsynced boundary, the bytes the page cache
//!   would have eaten).  Every scenario counts the batches the server actually
//!   *acknowledged*, restarts over the same data dir, and checks the recovered
//!   tenant against a registry twin fed exactly the recovered prefix — then
//!   replays the lost tail and checks the full twin.  The headline law: in
//!   [`Durability::AckAfterDurable`] mode, **every** crash point recovers with
//!   zero acked-batch loss; in the relaxed default, loss is bounded by the
//!   group-commit window and only under power loss.
//!
//! * **Cadence sweep** — every engine-capable registry algorithm × checkpoint
//!   cadence, in durable mode: ingest with a checkpoint every `cadence`
//!   batches (leaving an uncheckpointed journal tail), kill the server, time
//!   the restart, and record recovery time, replayed batches, and durable
//!   bytes per item (checkpoint files + lifetime journal appends).  The
//!   paper's thesis priced in durability terms: algorithms with few state
//!   changes write small deltas, so at equal cadence their durable-byte bill
//!   is a fraction of a write-heavy baseline's.
//!
//! Recovery-time numbers from loaded CI containers measure scheduling; the
//! recorded full-scale numbers come from an unloaded host.  The zero-loss and
//! equality checks are load-independent.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fsc_engine::{DynEngine, EngineConfig};
use fsc_serve::faults::splitmix64;
use fsc_serve::wal::WAL_HEADER;
use fsc_serve::{
    Client, ClientConfig, CrashPoint, Durability, FaultPlan, Server, ServerConfig, ServerHandle,
    TenantOutcome,
};
use fsc_state::{Answer, Query};

use crate::record;
use crate::registry::{engine_specs, serve_factory};
use crate::table::{f, Table};
use crate::Scale;

/// Algorithm the crash matrix runs (engine-capable, exact merge, so served
/// tenant and local oracle are twins).
const ALGORITHM: &str = "count_min";
/// Shards per tenant engine.
const SHARDS: u32 = 2;
/// Item universe of the workload.
const UNIVERSE: u64 = 1 << 10;
/// Items per batch.
const BATCH: usize = 128;
/// Workload seed shared by scenarios and their oracles.
const SEED: u64 = 0xF15_5EED;
/// Batches every crash scenario ingests (or tries to).
const MATRIX_BATCHES: usize = 8;
/// The one checkpoint in the crash matrix runs after this many batches.
const CHECKPOINT_AFTER: usize = 3;
/// The fault-injected scenarios arm the nth ingest / journal append — the
/// sixth, i.e. sequence number 5, two acked batches past the checkpoint.
const CRASH_NTH: u64 = 6;
/// Group-commit window of the relaxed-durability scenarios.
const GROUP_COMMIT: u64 = 4;
/// On-disk bytes of one journal record holding a [`BATCH`]-item batch
/// (`len | seq | checksum` framing plus the items).
const RECORD_BYTES: u64 = 20 + 8 * BATCH as u64;

// --- shared helpers -----------------------------------------------------------

/// A scratch data dir under the system temp dir, wiped before use.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsc-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic workload: `n` batches of [`BATCH`] items.
fn workload(n: usize) -> Vec<Vec<u64>> {
    let mut rng = SEED;
    (0..n)
        .map(|_| {
            (0..BATCH)
                .map(|_| splitmix64(&mut rng) % UNIVERSE)
                .collect()
        })
        .collect()
}

/// Candidate probe queries; each check keeps the subset its twin answers.
fn candidate_probes() -> Vec<Query> {
    let mut out: Vec<Query> = (0..24).map(Query::Point).collect();
    out.push(Query::Moment);
    out
}

/// The registry twin: same constructor table and config the server uses, fed
/// `batches` directly.
fn twin(algorithm: &str, batches: &[Vec<u64>]) -> Box<dyn DynEngine> {
    let factory = serve_factory();
    let config = EngineConfig {
        shards: SHARDS as usize,
        ..EngineConfig::default()
    };
    let mut engine = factory(algorithm, config).expect("registry builds the algorithm");
    for batch in batches {
        engine.ingest(batch);
    }
    engine
}

/// The probes `engine` can answer, with its answers (the oracle side).
fn twin_answers(engine: &dyn DynEngine) -> Vec<(Query, Answer)> {
    candidate_probes()
        .into_iter()
        .filter_map(|q| engine.query_fresh(&q).ok().map(|a| (q, a)))
        .collect()
}

/// Asks the served tenant the oracle's probes and compares answers exactly.
fn served_matches(
    client: &mut Client,
    tenant: &str,
    oracle: &[(Query, Answer)],
) -> Result<bool, String> {
    if oracle.is_empty() {
        return Err("oracle answered no probes".into());
    }
    for (q, expected) in oracle {
        let got = client
            .query(tenant, *q)
            .map_err(|e| format!("querying {tenant}: {e}"))?;
        if got != *expected {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Starts a server over `dir` with the given fault plan and durability mode.
fn start_server(
    dir: &Path,
    faults: Arc<FaultPlan>,
    durability: Durability,
) -> (ServerHandle, fsc_serve::RecoveryReport) {
    let config = ServerConfig {
        faults,
        ..ServerConfig::new(dir)
    }
    .with_durability(durability)
    .with_group_commit(GROUP_COMMIT)
    .with_max_inflight_ingest(64);
    Server::start("127.0.0.1:0", config, serve_factory()).expect("bind ephemeral port")
}

/// Reads the recovered `(next_seq, wal_replayed, wal_truncated_bytes)` for
/// `tenant` out of a startup report.
fn recovered(report: &fsc_serve::RecoveryReport, tenant: &str) -> Option<(u64, u64, u64)> {
    report.tenants.iter().find_map(|t| {
        if t.tenant != tenant {
            return None;
        }
        match t.outcome {
            TenantOutcome::Recovered {
                next_seq,
                wal_replayed,
                wal_truncated_bytes,
                ..
            } => Some((next_seq, wal_replayed, wal_truncated_bytes)),
            TenantOutcome::Failed { .. } => None,
        }
    })
}

// --- crash matrix -------------------------------------------------------------

/// One crash scenario's outcome.
#[derive(Debug, Clone)]
pub struct CrashRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Durability mode the server ran under.
    pub durability: &'static str,
    /// Batches the server acknowledged before dying.
    pub acked: u64,
    /// `next_seq` after restart: the batches the recovered tenant holds.
    pub recovered_next_seq: u64,
    /// Acked batches the restart did *not* hold (`acked - recovered`, floored
    /// at zero — recovery may legitimately hold unacked journaled batches).
    pub acked_lost: u64,
    /// Journal batches replayed past the chain tip during recovery.
    pub replayed: u64,
    /// Bytes of damaged journal tail truncated at the last valid record.
    pub truncated_bytes: u64,
    /// Whether the restarted tenant matched a registry twin fed exactly
    /// `recovered_next_seq` batches.
    pub exact_at_recovery: bool,
    /// Whether replaying the lost tail (if any) converged to the full twin,
    /// with duplicate re-sends refused.
    pub converged: bool,
    /// One-line account of what happened.
    pub detail: String,
}

impl CrashRow {
    /// The headline predicate: no acknowledged batch went missing.
    pub fn zero_acked_loss(&self) -> bool {
        self.acked_lost == 0
    }
}

/// The server-side fault a scenario injects, if any.
#[derive(Clone, Copy)]
enum Inject {
    /// No injected fault: the run completes, then the server is killed.
    Kill,
    /// The nth ingest dies at a crash point inside the write path.
    CrashAt(CrashPoint),
    /// The nth journal append is torn mid-write (the server dies with it).
    TornWal,
    /// One byte of the nth journal record is flipped after it lands: latent
    /// media damage — the server keeps running and acking.
    CorruptWal,
}

struct Scenario {
    name: &'static str,
    durability: Durability,
    inject: Inject,
    /// Simulate power loss after the kill: truncate `wal.fscw` to its fsynced
    /// boundary, discarding what only the page cache held.
    power_cut: bool,
}

fn scenarios() -> Vec<Scenario> {
    use Durability::{AckAfterApply, AckAfterDurable};
    vec![
        Scenario {
            name: "process_kill_durable",
            durability: AckAfterDurable,
            inject: Inject::Kill,
            power_cut: false,
        },
        Scenario {
            name: "process_kill_relaxed",
            durability: AckAfterApply,
            inject: Inject::Kill,
            power_cut: false,
        },
        Scenario {
            name: "crash_before_journal_durable",
            durability: AckAfterDurable,
            inject: Inject::CrashAt(CrashPoint::BeforeJournal),
            power_cut: false,
        },
        Scenario {
            name: "crash_after_journal_durable",
            durability: AckAfterDurable,
            inject: Inject::CrashAt(CrashPoint::AfterJournal),
            power_cut: false,
        },
        Scenario {
            name: "crash_after_apply_durable",
            durability: AckAfterDurable,
            inject: Inject::CrashAt(CrashPoint::AfterApply),
            power_cut: false,
        },
        Scenario {
            name: "torn_wal_append_durable",
            durability: AckAfterDurable,
            inject: Inject::TornWal,
            power_cut: false,
        },
        Scenario {
            name: "corrupt_wal_record_durable",
            durability: AckAfterDurable,
            inject: Inject::CorruptWal,
            power_cut: false,
        },
        Scenario {
            name: "power_loss_durable",
            durability: AckAfterDurable,
            inject: Inject::Kill,
            power_cut: true,
        },
        Scenario {
            name: "power_loss_relaxed",
            durability: AckAfterApply,
            inject: Inject::Kill,
            power_cut: true,
        },
    ]
}

/// Truncates the tenant's journal to its fsynced boundary — what the disk
/// still holds after the power comes back.  Returns the bytes discarded.
fn cut_power(dir: &Path, tenant: &str, synced_records: u64) -> Result<u64, String> {
    let path = fsc_serve::wal::wal_path(&dir.join(tenant));
    let keep = WAL_HEADER + synced_records * RECORD_BYTES;
    let len = std::fs::metadata(&path)
        .map_err(|e| format!("stat {path:?}: {e}"))?
        .len();
    if len < keep {
        return Err(format!(
            "journal shorter than its synced boundary: {len} < {keep}"
        ));
    }
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .map_err(|e| format!("open {path:?}: {e}"))?;
    file.set_len(keep).map_err(|e| format!("truncate: {e}"))?;
    Ok(len - keep)
}

/// Runs one crash scenario end to end.
fn drill(index: u64, s: &Scenario) -> CrashRow {
    let dir = fresh_dir(s.name);
    let batches = workload(MATRIX_BATCHES);
    let mut plan = FaultPlan::seeded(SEED ^ index).with_crash_frame();
    plan = match s.inject {
        Inject::Kill => plan,
        Inject::CrashAt(point) => plan.with_crash_at(point, CRASH_NTH),
        Inject::TornWal => plan.with_torn_wal_append(CRASH_NTH),
        Inject::CorruptWal => plan.with_corrupt_wal_record(CRASH_NTH),
    };
    let (server, _) = start_server(&dir, Arc::new(plan), s.durability);
    // No retries: a fault-driven crash must surface as the failed ingest it
    // is, not be masked (or worse, re-attempted) by the retry loop.  The long
    // timeout keeps a loaded machine from faking an early death.
    let mut c = Client::new(
        server.addr(),
        ClientConfig {
            retries: 0,
            timeout: std::time::Duration::from_secs(10),
            ..ClientConfig::default()
        },
    );

    let mut detail = String::new();
    let mut acked = 0u64;
    let setup = c
        .create_tenant("t0", ALGORITHM, SHARDS)
        .map_err(|e| detail = format!("create: {e}"));
    if setup.is_ok() {
        for (seq, batch) in batches.iter().enumerate() {
            match c.ingest("t0", seq as u64, batch) {
                Ok(_) => acked += 1,
                Err(e) => {
                    detail = format!("seq {seq} died as armed: {e}");
                    break;
                }
            }
            if seq + 1 == CHECKPOINT_AFTER {
                if let Err(e) = c.checkpoint("t0") {
                    detail = format!("checkpoint: {e}");
                    break;
                }
            }
        }
    }
    if !server.stopped() {
        c.crash();
    }
    server.join();

    let mut cut = Ok(0u64);
    if s.power_cut {
        // Appends since the checkpoint truncated the journal; in durable mode
        // all of them are fsynced, in relaxed mode only whole group-commit
        // windows are.
        let appends = MATRIX_BATCHES as u64 - CHECKPOINT_AFTER as u64;
        let synced = match s.durability {
            Durability::AckAfterDurable => appends,
            Durability::AckAfterApply => appends - appends % GROUP_COMMIT,
        };
        cut = cut_power(&dir, "t0", synced);
    }

    let (server, report) = start_server(&dir, Arc::new(FaultPlan::none()), s.durability);
    let outcome = recovered(&report, "t0");
    let (next_seq, replayed, truncated_bytes) = outcome.unwrap_or((0, 0, 0));
    let acked_lost = acked.saturating_sub(next_seq);

    let mut c = Client::new(server.addr(), ClientConfig::default());
    let mut verify = || -> Result<(bool, bool), String> {
        if outcome.is_none() {
            return Err("tenant failed to recover".into());
        }
        let cut = cut.clone()?;
        let oracle = twin_answers(twin(ALGORITHM, &batches[..next_seq as usize]).as_ref());
        let exact = served_matches(&mut c, "t0", &oracle)?;
        // The newest recovered batch must refuse a duplicate re-send …
        let mut converged = next_seq == 0
            || !c
                .ingest("t0", next_seq - 1, &batches[next_seq as usize - 1])
                .map_err(|e| format!("duplicate resend: {e}"))?;
        // … and replaying the tail past it must converge to the full twin.
        for seq in next_seq..batches.len() as u64 {
            converged &= c
                .ingest("t0", seq, &batches[seq as usize])
                .map_err(|e| format!("replaying seq {seq}: {e}"))?;
        }
        let full_oracle = twin_answers(twin(ALGORITHM, &batches).as_ref());
        converged &= served_matches(&mut c, "t0", &full_oracle)?;
        if detail.is_empty() {
            detail = format!("acked {acked}, recovered to {next_seq} ({replayed} replayed)");
        }
        if s.power_cut {
            detail.push_str(&format!("; power cut dropped {cut} unsynced byte(s)"));
        }
        if truncated_bytes > 0 {
            detail.push_str(&format!("; {truncated_bytes} damaged byte(s) truncated"));
        }
        Ok((exact, converged))
    };
    let (exact_at_recovery, converged) = match verify() {
        Ok(pair) => pair,
        Err(e) => {
            detail = e;
            (false, false)
        }
    };
    server.stop().expect("graceful stop");
    let _ = std::fs::remove_dir_all(&dir);
    CrashRow {
        scenario: s.name,
        durability: match s.durability {
            Durability::AckAfterDurable => "durable",
            Durability::AckAfterApply => "relaxed",
        },
        acked,
        recovered_next_seq: next_seq,
        acked_lost,
        replayed,
        truncated_bytes,
        exact_at_recovery,
        converged,
        detail,
    }
}

/// Runs the full crash matrix (scale-independent: every scenario is always
/// drilled; only the cadence sweep scales).
pub fn crash_matrix() -> (Table, Vec<CrashRow>) {
    let rows: Vec<CrashRow> = scenarios()
        .iter()
        .enumerate()
        .map(|(i, s)| drill(i as u64, s))
        .collect();
    let mut table = Table::new(
        "F15 — crash matrix (durable mode must lose zero acked batches)",
        &[
            "scenario",
            "mode",
            "acked",
            "recovered",
            "lost",
            "replayed",
            "truncated B",
            "exact",
            "converged",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.scenario.to_string(),
            r.durability.to_string(),
            r.acked.to_string(),
            r.recovered_next_seq.to_string(),
            r.acked_lost.to_string(),
            r.replayed.to_string(),
            r.truncated_bytes.to_string(),
            r.exact_at_recovery.to_string(),
            r.converged.to_string(),
        ]);
    }
    (table, rows)
}

/// Every scenario the crash matrix must drill.
pub const SCENARIOS: [&str; 9] = [
    "process_kill_durable",
    "process_kill_relaxed",
    "crash_before_journal_durable",
    "crash_after_journal_durable",
    "crash_after_apply_durable",
    "torn_wal_append_durable",
    "corrupt_wal_record_durable",
    "power_loss_durable",
    "power_loss_relaxed",
];

/// Scenarios covered by the zero-acked-loss contract: every durable-mode
/// scenario except latent media damage (a corrupt record is not a crash — it
/// is detected, truncated, and surfaced as typed counts instead), plus a
/// relaxed-mode process kill (the page cache survives a dead process).
pub const ZERO_LOSS_SCENARIOS: [&str; 7] = [
    "process_kill_durable",
    "process_kill_relaxed",
    "crash_before_journal_durable",
    "crash_after_journal_durable",
    "crash_after_apply_durable",
    "torn_wal_append_durable",
    "power_loss_durable",
];

/// The matrix's law.  Every scenario recovered exactly and converged; the
/// zero-loss scenarios lost nothing; the torn and corrupt scenarios actually
/// truncated damage (a drill that injects nothing proves nothing); relaxed
/// power loss is bounded by the group-commit window and nonzero (the
/// simulation demonstrably cut something).
pub fn matrix_check(rows: &[CrashRow]) -> Result<(), String> {
    for name in SCENARIOS {
        let Some(row) = rows.iter().find(|r| r.scenario == name) else {
            return Err(format!("scenario {name:?} was never drilled"));
        };
        if !row.exact_at_recovery {
            return Err(format!(
                "scenario {name:?} diverged from the twin of its recovered prefix: {}",
                row.detail
            ));
        }
        if !row.converged {
            return Err(format!(
                "scenario {name:?} did not converge to the full twin after replay: {}",
                row.detail
            ));
        }
        if ZERO_LOSS_SCENARIOS.contains(&name) && !row.zero_acked_loss() {
            return Err(format!(
                "scenario {name:?} lost {} acked batch(es): {}",
                row.acked_lost, row.detail
            ));
        }
    }
    let truncating = ["torn_wal_append_durable", "corrupt_wal_record_durable"];
    for name in truncating {
        let row = rows.iter().find(|r| r.scenario == name).unwrap();
        if row.truncated_bytes == 0 {
            return Err(format!(
                "scenario {name:?} truncated nothing — the fault did not fire: {}",
                row.detail
            ));
        }
    }
    let relaxed = rows
        .iter()
        .find(|r| r.scenario == "power_loss_relaxed")
        .unwrap();
    if relaxed.acked_lost == 0 || relaxed.acked_lost > GROUP_COMMIT {
        return Err(format!(
            "relaxed power loss must lose within (0, {GROUP_COMMIT}] batches, lost {}: {}",
            relaxed.acked_lost, relaxed.detail
        ));
    }
    Ok(())
}

// --- cadence sweep ------------------------------------------------------------

/// One (algorithm × checkpoint cadence) cell of the recovery-cost sweep.
#[derive(Debug, Clone)]
pub struct CadenceRow {
    /// Registry algorithm id.
    pub algorithm: String,
    /// Batches between checkpoints.
    pub cadence: usize,
    /// Batches ingested.
    pub batches: usize,
    /// Items ingested.
    pub items: u64,
    /// Journal batches replayed at restart (the uncheckpointed tail).
    pub replayed: u64,
    /// Wall-clock restart-and-recover time, milliseconds.
    pub recovery_ms: f64,
    /// Bytes of checkpoint files on disk at the crash (base + deltas).
    pub checkpoint_bytes: u64,
    /// Lifetime journal bytes appended during the run.
    pub wal_bytes: u64,
    /// Total durable bytes written per ingested item.
    pub durable_bytes_per_item: f64,
    /// Whether the recovered tenant matched its registry twin exactly.
    pub exact: bool,
}

/// Registry ids whose durable-byte bill the paper's thesis predicts to be
/// small: few state changes ⇒ small deltas at every cadence.
pub const FEW_STATE: [&str; 2] = ["misra_gries", "space_saving"];

/// The sweep grid at `scale`: checkpoint cadences and batches per cell.
fn sweep_grid(scale: Scale) -> (Vec<usize>, usize) {
    (scale.pick(vec![1, 4], vec![1, 2, 4, 8]), scale.pick(16, 64))
}

/// Bytes of checkpoint state (base + delta files) in a tenant directory.
fn checkpoint_bytes(dir: &Path, tenant: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir.join(tenant)) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name().to_str().is_some_and(|n| {
                n == "base.fscs" || (n.starts_with("delta-") && n.ends_with(".fscd"))
            })
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Runs one sweep cell: ingest with checkpoints every `cadence` batches
/// (skipping the final one, so a journal tail is left to replay), kill the
/// server, time the restart, verify against the twin.
fn sweep_cell(algorithm: &str, cadence: usize, batches: usize) -> Result<CadenceRow, String> {
    let dir = fresh_dir(&format!("sweep-{algorithm}-{cadence}"));
    let work = workload(batches);
    let (server, _) = start_server(
        &dir,
        Arc::new(FaultPlan::none()),
        Durability::AckAfterDurable,
    );
    let mut c = Client::new(server.addr(), ClientConfig::default());
    c.create_tenant("t0", algorithm, SHARDS)
        .map_err(|e| format!("{algorithm}: create: {e}"))?;
    for (seq, batch) in work.iter().enumerate() {
        c.ingest("t0", seq as u64, batch)
            .map_err(|e| format!("{algorithm}: seq {seq}: {e}"))?;
        if (seq + 1) % cadence == 0 && seq + 1 < batches {
            c.checkpoint("t0")
                .map_err(|e| format!("{algorithm}: checkpoint: {e}"))?;
        }
    }
    let status = c
        .status()
        .map_err(|e| format!("{algorithm}: status: {e}"))?;
    let wal_bytes = status
        .tenants
        .iter()
        .find(|t| t.tenant == "t0")
        .map(|t| t.wal_appended_bytes)
        .ok_or_else(|| format!("{algorithm}: tenant missing from status"))?;
    server.crash();

    let checkpoint_bytes = checkpoint_bytes(&dir, "t0");
    let started = Instant::now();
    let (server, report) = start_server(
        &dir,
        Arc::new(FaultPlan::none()),
        Durability::AckAfterDurable,
    );
    let recovery_ms = started.elapsed().as_secs_f64() * 1e3;
    let (next_seq, replayed, truncated) =
        recovered(&report, "t0").ok_or_else(|| format!("{algorithm}: tenant failed to recover"))?;
    if next_seq != batches as u64 || truncated != 0 {
        return Err(format!(
            "{algorithm} cadence {cadence}: recovered to {next_seq}/{batches} \
             with {truncated} truncated byte(s) — a kill damages nothing"
        ));
    }
    let mut c = Client::new(server.addr(), ClientConfig::default());
    let oracle = twin_answers(twin(algorithm, &work).as_ref());
    let exact = served_matches(&mut c, "t0", &oracle)?;
    server.stop().expect("graceful stop");
    let _ = std::fs::remove_dir_all(&dir);

    let items = (batches * BATCH) as u64;
    Ok(CadenceRow {
        algorithm: algorithm.to_string(),
        cadence,
        batches,
        items,
        replayed,
        recovery_ms,
        checkpoint_bytes,
        wal_bytes,
        durable_bytes_per_item: (checkpoint_bytes + wal_bytes) as f64 / items as f64,
        exact,
    })
}

/// Runs the cadence sweep over every engine-capable registry algorithm.
pub fn cadence_sweep(scale: Scale) -> (Table, Vec<CadenceRow>) {
    let (cadences, batches) = sweep_grid(scale);
    let mut table = Table::new(
        "F15 — recovery-cost sweep (durable mode, checkpoint every k batches)",
        &[
            "algorithm",
            "cadence",
            "replayed",
            "recovery ms",
            "ckpt B",
            "wal B",
            "durable B/item",
            "exact",
        ],
    );
    let mut rows = Vec::new();
    for spec in engine_specs() {
        for &cadence in &cadences {
            let row = sweep_cell(spec.id, cadence, batches)
                .unwrap_or_else(|e| panic!("cadence sweep cell failed: {e}"));
            table.row(vec![
                row.algorithm.clone(),
                row.cadence.to_string(),
                row.replayed.to_string(),
                f(row.recovery_ms),
                row.checkpoint_bytes.to_string(),
                row.wal_bytes.to_string(),
                f(row.durable_bytes_per_item),
                row.exact.to_string(),
            ]);
            rows.push(row);
        }
    }
    (table, rows)
}

/// At the tightest cadence swept, the ratio of the worst write-heavy
/// baseline's durable bytes per item to the best few-state algorithm's.
pub fn durable_ratio(rows: &[CadenceRow]) -> Option<f64> {
    let tight = rows.iter().map(|r| r.cadence).min()?;
    let at_tight = move |few: bool| {
        rows.iter()
            .filter(move |r| r.cadence == tight && FEW_STATE.contains(&r.algorithm.as_str()) == few)
    };
    let best_few = at_tight(true)
        .map(|r| r.durable_bytes_per_item)
        .fold(f64::INFINITY, f64::min);
    let worst_baseline = at_tight(false)
        .map(|r| r.durable_bytes_per_item)
        .fold(0.0, f64::max);
    (best_few.is_finite() && worst_baseline > 0.0).then_some(worst_baseline / best_few)
}

/// The sweep's law: every cell recovered the full run exactly and replayed
/// exactly its uncheckpointed tail, and at the tightest cadence at least one
/// few-state algorithm beats the worst write-heavy baseline's durable-byte
/// bill by ≥ 2×.
pub fn sweep_check(rows: &[CadenceRow]) -> Result<(), String> {
    if rows.is_empty() {
        return Err("cadence sweep produced no cells".into());
    }
    for r in rows {
        if !r.exact {
            return Err(format!(
                "{} at cadence {} diverged from its registry twin after recovery",
                r.algorithm, r.cadence
            ));
        }
        if r.replayed != r.cadence as u64 {
            return Err(format!(
                "{} at cadence {} replayed {} batch(es), expected the {}-batch tail",
                r.algorithm, r.cadence, r.replayed, r.cadence
            ));
        }
    }
    match durable_ratio(rows) {
        Some(ratio) if ratio >= 2.0 => Ok(()),
        Some(ratio) => Err(format!(
            "durable-byte advantage at the tightest cadence is only {ratio:.2}× \
             (need ≥ 2×): few-state checkpoints are not paying for themselves"
        )),
        None => Err("durable-byte ratio is undefined (a cohort is missing)".into()),
    }
}

// --- JSON record --------------------------------------------------------------

/// Serializes the record written to `BENCH_recovery.json`.
pub fn to_json(
    scale: Scale,
    matrix: &[CrashRow],
    sweep: &[CadenceRow],
    trajectory: &[String],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"recovery\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        scale.pick("Quick", "Full")
    ));
    out.push_str(&format!("  \"matrix_algorithm\": \"{ALGORITHM}\",\n"));
    out.push_str(&format!("  \"group_commit\": {GROUP_COMMIT},\n"));
    out.push_str("  \"crash_matrix\": [\n");
    for (i, r) in matrix.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"durability\": \"{}\", \"acked\": {}, \
             \"recovered_next_seq\": {}, \"acked_lost\": {}, \"replayed\": {}, \
             \"truncated_bytes\": {}, \"exact_at_recovery\": {}, \"converged\": {}, \
             \"detail\": \"{}\"}}{}\n",
            r.scenario,
            r.durability,
            r.acked,
            r.recovered_next_seq,
            r.acked_lost,
            r.replayed,
            r.truncated_bytes,
            r.exact_at_recovery,
            r.converged,
            record::sanitize(&r.detail),
            if i + 1 < matrix.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"cadence_sweep\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"cadence\": {}, \"batches\": {}, \
             \"items\": {}, \"replayed\": {}, \"recovery_ms\": {:.3}, \
             \"checkpoint_bytes\": {}, \"wal_bytes\": {}, \
             \"durable_bytes_per_item\": {:.3}, \"exact\": {}}}{}\n",
            record::sanitize(&r.algorithm),
            r.cadence,
            r.batches,
            r.items,
            r.replayed,
            r.recovery_ms,
            r.checkpoint_bytes,
            r.wal_bytes,
            r.durable_bytes_per_item,
            r.exact,
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&record::trajectory_json(trajectory));
    out.push_str("\n}\n");
    out
}

/// One trajectory entry: the matrix verdict plus the headline durable-byte
/// ratio, same shape as the other records.
pub fn trajectory_entry(
    date: &str,
    label: &str,
    scale: Scale,
    matrix: &[CrashRow],
    sweep: &[CadenceRow],
) -> String {
    let (date, label) = (record::sanitize(date), record::sanitize(label));
    let zero_loss = matrix
        .iter()
        .filter(|r| ZERO_LOSS_SCENARIOS.contains(&r.scenario) && r.zero_acked_loss())
        .count();
    let ratio = durable_ratio(sweep)
        .map(|x| format!("{x:.2}"))
        .unwrap_or_else(|| "null".to_string());
    format!(
        "{{\"date\": \"{date}\", \"label\": \"{label}\", \"scale\": \"{}\", \
         \"crash_scenarios\": {}, \"zero_loss_held\": {zero_loss}, \
         \"zero_loss_required\": {}, \"durable_bytes_ratio\": {ratio}}}",
        scale.pick("Quick", "Full"),
        matrix.len(),
        ZERO_LOSS_SCENARIOS.len(),
    )
}

/// The keys every `BENCH_recovery.json` must contain ([`record::check_keys`]):
/// the fixed fields plus one row per `SCENARIOS` entry.
pub fn schema_keys() -> Vec<String> {
    [
        "\"experiment\": \"recovery\"",
        "\"scale\":",
        "\"group_commit\":",
        "\"crash_matrix\":",
        "\"acked_lost\":",
        "\"exact_at_recovery\": true",
        "\"converged\": true",
        "\"cadence_sweep\":",
        "\"durable_bytes_per_item\":",
        "\"recovery_ms\":",
        "\"exact\": true",
        "\"trajectory\":",
        "\"date\":",
        "\"zero_loss_held\":",
        "\"durable_bytes_ratio\":",
    ]
    .into_iter()
    .map(String::from)
    .chain(
        SCENARIOS
            .iter()
            .map(|scenario| format!("\"scenario\": \"{scenario}\"")),
    )
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_matrix_durable_mode_loses_no_acked_batches() {
        let (table, rows) = crash_matrix();
        assert_eq!(rows.len(), SCENARIOS.len());
        assert_eq!(table.len(), rows.len());
        matrix_check(&rows).unwrap_or_else(|e| panic!("crash-matrix law: {e}"));
    }

    #[test]
    fn quick_cadence_sweep_recovers_exactly_and_prices_durability() {
        let (table, rows) = cadence_sweep(Scale::Quick);
        let (cadences, _) = sweep_grid(Scale::Quick);
        assert_eq!(rows.len(), engine_specs().len() * cadences.len());
        assert_eq!(table.len(), rows.len());
        sweep_check(&rows).unwrap_or_else(|e| panic!("cadence-sweep law: {e}"));
    }

    #[test]
    fn json_record_passes_its_own_schema_check() {
        let matrix: Vec<CrashRow> = SCENARIOS
            .iter()
            .map(|&scenario| CrashRow {
                scenario,
                durability: "durable",
                acked: 8,
                recovered_next_seq: 8,
                acked_lost: 0,
                replayed: 5,
                truncated_bytes: 0,
                exact_at_recovery: true,
                converged: true,
                detail: "synthetic \"detail\" [with] hostile\nbytes".into(),
            })
            .collect();
        let sweep = vec![
            CadenceRow {
                algorithm: "misra_gries".into(),
                cadence: 1,
                batches: 16,
                items: 2048,
                replayed: 1,
                recovery_ms: 4.2,
                checkpoint_bytes: 9_000,
                wal_bytes: 8_704,
                durable_bytes_per_item: 8.6,
                exact: true,
            },
            CadenceRow {
                algorithm: "exact_counting".into(),
                cadence: 1,
                batches: 16,
                items: 2048,
                replayed: 1,
                recovery_ms: 4.8,
                checkpoint_bytes: 45_000,
                wal_bytes: 8_704,
                durable_bytes_per_item: 26.2,
                exact: true,
            },
        ];
        let entry = trajectory_entry("2026-08-09", "unit", Scale::Quick, &matrix, &sweep);
        let json = to_json(Scale::Quick, &matrix, &sweep, std::slice::from_ref(&entry));
        record::check_keys(&json, &schema_keys()).expect("schema");
        assert!(entry.contains("\"zero_loss_held\": 7"));
        assert!(entry.contains(&format!("\"durable_bytes_ratio\": {:.2}", 26.2 / 8.6)));
        assert!(!json.contains("hostile\nbytes"), "detail sanitized");
        let restored = record::trajectory_inner(&json).expect("trajectory parses back");
        assert_eq!(restored, vec![entry]);
    }

    #[test]
    fn matrix_check_rejects_loss_and_missing_scenarios() {
        let mut rows: Vec<CrashRow> = SCENARIOS
            .iter()
            .map(|&scenario| CrashRow {
                scenario,
                durability: "durable",
                acked: 8,
                recovered_next_seq: if scenario == "power_loss_relaxed" {
                    7
                } else if scenario == "corrupt_wal_record_durable" {
                    5
                } else {
                    8
                },
                acked_lost: if scenario == "power_loss_relaxed" {
                    1
                } else if scenario == "corrupt_wal_record_durable" {
                    3
                } else {
                    0
                },
                replayed: 5,
                truncated_bytes: if scenario == "torn_wal_append_durable"
                    || scenario == "corrupt_wal_record_durable"
                {
                    700
                } else {
                    0
                },
                exact_at_recovery: true,
                converged: true,
                detail: String::new(),
            })
            .collect();
        matrix_check(&rows).expect("all-pass matrix");

        let kill = rows
            .iter_mut()
            .find(|r| r.scenario == "process_kill_durable")
            .unwrap();
        kill.acked_lost = 1;
        let err = matrix_check(&rows).expect_err("acked loss must fail");
        assert!(err.contains("process_kill_durable"), "{err}");
        rows.iter_mut()
            .find(|r| r.scenario == "process_kill_durable")
            .unwrap()
            .acked_lost = 0;

        let torn = rows
            .iter_mut()
            .find(|r| r.scenario == "torn_wal_append_durable")
            .unwrap();
        torn.truncated_bytes = 0;
        let err = matrix_check(&rows).expect_err("a drill that tears nothing proves nothing");
        assert!(err.contains("torn_wal_append_durable"), "{err}");
        rows.iter_mut()
            .find(|r| r.scenario == "torn_wal_append_durable")
            .unwrap()
            .truncated_bytes = 700;

        rows.retain(|r| r.scenario != "power_loss_relaxed");
        let err = matrix_check(&rows).expect_err("a missing scenario must fail");
        assert!(err.contains("power_loss_relaxed"), "{err}");
    }

    #[test]
    fn sweep_check_requires_the_durability_advantage() {
        let row = |algorithm: &str, dbpi: f64| CadenceRow {
            algorithm: algorithm.into(),
            cadence: 1,
            batches: 16,
            items: 2048,
            replayed: 1,
            recovery_ms: 1.0,
            checkpoint_bytes: 1,
            wal_bytes: 1,
            durable_bytes_per_item: dbpi,
            exact: true,
        };
        let good = vec![row("misra_gries", 8.0), row("exact_counting", 26.0)];
        sweep_check(&good).expect("3.25× advantage passes");
        let bad = vec![row("misra_gries", 20.0), row("exact_counting", 26.0)];
        let err = sweep_check(&bad).expect_err("1.3× must fail");
        assert!(err.contains("1.30"), "{err}");
    }
}
