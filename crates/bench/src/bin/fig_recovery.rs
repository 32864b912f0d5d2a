//! F15 — durable ingest under every crash point; writes `BENCH_recovery.json`.
//!
//! ```text
//! cargo run -p fsc-bench --release --bin fig_recovery             # full scale
//! cargo run -p fsc-bench --release --bin fig_recovery -- --quick  # CI self-check
//! ... fig_recovery -- --label "PR 8 durable ingest"               # trajectory label
//! ... fig_recovery -- --out /tmp/recovery.json                    # custom path
//! ```
//!
//! Two halves (see `experiments::recovery`): the crash matrix — process kill,
//! a fault-injected crash at each point inside the write path, torn journal
//! append, corrupt journal record, simulated power loss, each in its
//! durability mode — and the cadence sweep pricing recovery across every
//! engine-capable registry algorithm × checkpoint cadence.  The binary
//! **fails** (non-zero exit) if any durable-mode scenario loses an acked
//! batch, any scenario diverges from its registry twin, any sweep cell
//! recovers short or misses the ≥ 2× durable-byte advantage at the tightest
//! cadence, or the emitted JSON fails its schema check.
//!
//! Recovery-time columns measured on a loaded CI container reflect
//! scheduling; recorded full-scale numbers come from an unloaded host.  The
//! zero-loss and equality checks are load-independent.
//!
//! The record and its trajectory are written through `fsc_bench::record`.

use fsc_bench::experiments::recovery::{
    cadence_sweep, crash_matrix, durable_ratio, matrix_check, schema_keys, sweep_check, to_json,
    trajectory_entry,
};
use fsc_bench::record;

fn main() {
    let (scale, label, out) = record::flags_from_env("recovery");

    let (matrix_table, matrix) = crash_matrix();
    matrix_table.print();
    for r in &matrix {
        println!("  {}: {}", r.scenario, r.detail);
    }
    if let Err(err) = matrix_check(&matrix) {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
    println!(
        "crash-matrix check: all {} scenarios recovered exactly; every durable-mode \
         crash point lost zero acked batches",
        matrix.len()
    );

    let (sweep_table, sweep) = cadence_sweep(scale);
    sweep_table.print();
    if let Err(err) = sweep_check(&sweep) {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
    println!(
        "cadence-sweep check: every cell recovered its full run exactly and replayed \
         exactly its uncheckpointed tail"
    );

    let trajectory = record::carry_forward(
        &out,
        trajectory_entry(&record::today(), &label, scale, &matrix, &sweep),
    );
    let json = to_json(scale, &matrix, &sweep, &trajectory);
    if let Some(ratio) = durable_ratio(&sweep) {
        println!(
            "headline: at the tightest checkpoint cadence, the best few-state algorithm \
             writes {ratio:.2}× fewer durable bytes per item than the worst baseline"
        );
    }
    record::write(&out, &json, &schema_keys());
}
