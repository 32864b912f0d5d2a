//! F15 — durable ingest: the recovery-cost sweep; backs the `fig_recovery`
//! binary and `BENCH_recovery.json`.
//!
//! Every engine-capable registry algorithm × checkpoint cadence, in durable
//! mode: ingest with a checkpoint every `cadence` batches (leaving an
//! uncheckpointed journal tail), kill the server, time the restart, and record
//! recovery time, replayed batches, and durable bytes per item (checkpoint
//! files + lifetime journal appends).  The paper's thesis priced in durability
//! terms: algorithms with few state changes write small deltas, so at equal
//! cadence their durable-byte bill is a fraction of a write-heavy baseline's.
//!
//! The crash-point, power-loss and journal-damage drills live in
//! `tests/recovery_laws.rs`.  Recovery-time numbers from loaded CI containers
//! measure scheduling; the recorded full-scale numbers come from an unloaded
//! host.  The equality checks are load-independent.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fsc_engine::{DynEngine, EngineConfig};
use fsc_serve::faults::splitmix64;
use fsc_serve::{
    Client, ClientConfig, Durability, Server, ServerConfig, ServerHandle, TenantOutcome,
};
use fsc_state::{Answer, Query};

use crate::record;
use crate::registry::{engine_specs, serve_factory};
use crate::table::{f, Table};
use crate::Scale;

/// Shards per tenant engine.
const SHARDS: u32 = 2;
/// Item universe of the workload.
const UNIVERSE: u64 = 1 << 10;
/// Items per batch.
const BATCH: usize = 128;
/// Workload seed shared by the sweep cells and their oracles.
const SEED: u64 = 0xF15_5EED;

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

/// Starts a durable-mode server over `dir`.
fn start_server(dir: &Path) -> (ServerHandle, fsc_serve::RecoveryReport) {
    let config = ServerConfig::new(dir)
        .with_durability(Durability::AckAfterDurable)
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
    let (server, _) = start_server(&dir);
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
    let (server, report) = start_server(&dir);
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
pub fn to_json(scale: Scale, sweep: &[CadenceRow], trajectory: &[String]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"recovery\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        scale.pick("Quick", "Full")
    ));
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

/// One trajectory entry: the headline durable-byte ratio, same shape as the
/// other records.
pub fn trajectory_entry(date: &str, label: &str, scale: Scale, sweep: &[CadenceRow]) -> String {
    let (date, label) = (record::sanitize(date), record::sanitize(label));
    let ratio = durable_ratio(sweep)
        .map(|x| format!("{x:.2}"))
        .unwrap_or_else(|| "null".to_string());
    format!(
        "{{\"date\": \"{date}\", \"label\": \"{label}\", \"scale\": \"{}\", \
         \"durable_bytes_ratio\": {ratio}}}",
        scale.pick("Quick", "Full"),
    )
}

/// The keys every `BENCH_recovery.json` must contain ([`record::check_keys`]).
pub const SCHEMA_KEYS: &[&str] = &[
    "\"experiment\": \"recovery\"",
    "\"scale\":",
    "\"cadence_sweep\":",
    "\"durable_bytes_per_item\":",
    "\"recovery_ms\":",
    "\"exact\": true",
    "\"trajectory\":",
    "\"date\":",
    "\"durable_bytes_ratio\":",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_cadence_sweep_recovers_exactly_and_prices_durability() {
        let (table, rows) = cadence_sweep(Scale::Quick);
        let (cadences, _) = sweep_grid(Scale::Quick);
        assert_eq!(rows.len(), engine_specs().len() * cadences.len());
        assert_eq!(table.len(), rows.len());
        sweep_check(&rows).unwrap_or_else(|e| panic!("cadence-sweep law: {e}"));
    }

    /// The record passes its schema, and the trajectory recorded in the
    /// committed `BENCH_recovery.json` (which also carries the retired crash
    /// matrix's fields) carries forward verbatim under it.
    #[test]
    fn json_record_passes_its_own_schema_check() {
        let row =
            |algorithm: &str, checkpoint_bytes: u64, durable_bytes_per_item: f64| CadenceRow {
                algorithm: algorithm.into(),
                cadence: 1,
                batches: 16,
                items: 2048,
                replayed: 1,
                recovery_ms: 4.2,
                checkpoint_bytes,
                wal_bytes: 8_704,
                durable_bytes_per_item,
                exact: true,
            };
        let sweep = vec![
            row("misra_gries", 9_000, 8.6),
            row("exact_counting", 45_000, 26.2),
        ];
        let entry = trajectory_entry("2026-08-09", "unit \"x\"\n", Scale::Quick, &sweep);
        assert!(entry.contains(&format!("\"durable_bytes_ratio\": {:.2}", 26.2 / 8.6)));
        assert!(!entry.contains("x\"\n"), "label sanitized");
        let json = to_json(Scale::Quick, &sweep, std::slice::from_ref(&entry));
        record::check_keys(&json, SCHEMA_KEYS).expect("schema");
        let restored = record::trajectory_inner(&json).expect("trajectory parses back");
        assert_eq!(restored, vec![entry.clone()]);

        let committed = record::default_out("recovery", Scale::Full);
        let trajectory = record::carry_forward(&committed, entry);
        assert!(trajectory.len() >= 2, "the committed record has history");
        record::check(
            &committed,
            &to_json(Scale::Full, &sweep, &trajectory),
            SCHEMA_KEYS,
        )
        .expect("recorded entries carry forward under the trimmed schema");
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
