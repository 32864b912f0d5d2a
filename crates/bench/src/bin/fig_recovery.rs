//! F15 — the recovery-cost sweep; writes `BENCH_recovery.json`.
//!
//! ```text
//! cargo run -p fsc-bench --release --bin fig_recovery             # full scale
//! cargo run -p fsc-bench --release --bin fig_recovery -- --quick  # CI self-check
//! ... fig_recovery -- --label "PR 8 durable ingest"               # trajectory label
//! ... fig_recovery -- --out /tmp/recovery.json                    # custom path
//! ```
//!
//! The cadence sweep (see `experiments::recovery`) prices recovery across every
//! engine-capable registry algorithm × checkpoint cadence.  The binary
//! **fails** (non-zero exit) if any sweep cell recovers short, diverges from
//! its registry twin, or misses the ≥ 2× durable-byte advantage at the
//! tightest cadence, or if the emitted JSON fails its schema check.  The
//! crash-point drills are the law tests in `tests/recovery_laws.rs`.
//!
//! Recovery-time columns measured on a loaded CI container reflect
//! scheduling; recorded full-scale numbers come from an unloaded host.  The
//! equality checks are load-independent.
//!
//! The record and its trajectory are written through `fsc_bench::record`.

use fsc_bench::experiments::recovery::{
    cadence_sweep, durable_ratio, sweep_check, to_json, trajectory_entry, SCHEMA_KEYS,
};
use fsc_bench::record;

fn main() {
    let (scale, label, out) = record::flags_from_env("recovery");

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
        trajectory_entry(&record::today(), &label, scale, &sweep),
    );
    let json = to_json(scale, &sweep, &trajectory);
    if let Some(ratio) = durable_ratio(&sweep) {
        println!(
            "headline: at the tightest checkpoint cadence, the best few-state algorithm \
             writes {ratio:.2}× fewer durable bytes per item than the worst baseline"
        );
    }
    record::write(&out, &json, SCHEMA_KEYS);
}
