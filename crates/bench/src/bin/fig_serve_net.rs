//! F14 — the networked front-end under load and under fire; writes
//! `BENCH_serve_net.json`.
//!
//! ```text
//! cargo run -p fsc-bench --release --bin fig_serve_net             # full scale
//! cargo run -p fsc-bench --release --bin fig_serve_net -- --quick  # CI self-check
//! ... fig_serve_net -- --label "PR 8 serve front-end"              # trajectory label
//! ... fig_serve_net -- --out /tmp/serve_net.json                   # custom path
//! ```
//!
//! Two halves (see `experiments::serve_net`): a saturation sweep driving a real
//! `fsc-serve` server over TCP loopback across (connections × batch-size) cells,
//! and the five-class fault matrix — torn checkpoint write, corrupt chain tip,
//! crash mid-ingest, dropped connections, overload shedding — where every class
//! must end in recovery verified **exact** against a registry twin.  The binary
//! **fails** (non-zero exit) if any sweep cell loses or double-counts a batch,
//! if any drill fails to inject its fault, recovers with the wrong typed
//! outcome, or diverges from its twin, or if the emitted JSON fails its schema
//! check.
//!
//! Latency columns measured on a 1-CPU CI container reflect scheduling, not the
//! server; recorded full-scale numbers come from an unloaded host.  The
//! correctness checks are load-independent.
//!
//! The record and its trajectory are written through `fsc_bench::record`.

use fsc_bench::experiments::serve_net::{
    fault_matrix, matrix_check, run, schema_keys, sweep_check, to_json, trajectory_entry,
};
use fsc_bench::record;

fn main() {
    let (scale, label, out) = record::flags_from_env("serve_net");

    let (table, sweep) = run(scale);
    table.print();
    if let Err(err) = sweep_check(&sweep) {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
    println!(
        "sweep check: every cell acknowledged every batch exactly once and every \
         tenant cursor verified"
    );

    let (matrix_table, matrix) = fault_matrix();
    matrix_table.print();
    for r in &matrix {
        println!("  {}: {}", r.fault, r.detail);
    }
    if let Err(err) = matrix_check(&matrix) {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
    println!(
        "fault-matrix check: all {} failure classes injected, recovered as typed, \
         and matched their registry twins exactly",
        matrix.len()
    );

    let trajectory = record::carry_forward(
        &out,
        trajectory_entry(&record::today(), &label, scale, &sweep, &matrix),
    );
    let json = to_json(scale, &sweep, &matrix, &trajectory);
    if let Some(peak) = sweep
        .iter()
        .max_by(|a, b| a.items_per_sec.total_cmp(&b.items_per_sec))
    {
        println!(
            "headline: peak ingest = {:.2} Mitems/s at {} connections × {} items/batch \
             (p99 {} µs)",
            peak.items_per_sec / 1e6,
            peak.connections,
            peak.batch_size,
            peak.p99_us
        );
    }
    record::write(&out, &json, &schema_keys());
}
