//! F13 — cached serving views under mixed read/write load; writes
//! `BENCH_serve.json`.
//!
//! ```text
//! cargo run -p fsc-bench --release --bin fig_serve             # full scale
//! cargo run -p fsc-bench --release --bin fig_serve -- --quick  # CI self-check
//! ... fig_serve -- --label "PR 7 serving views"                # trajectory label
//! ... fig_serve -- --out /tmp/serve.json                       # custom path
//! ```
//!
//! Three sweeps (see `experiments::serve`): cached queries/sec and view rebuilds
//! across read:write ratios for every engine-capable algorithm, windowed
//! staleness across the **whole** registry, and a multi-threaded driver where
//! reader threads serve cached views while a writer ingests.  The binary
//! **fails** (non-zero exit) if any cached answer diverges from the
//! always-rebuild oracle, if rebuild counts vary with the read ratio (rebuilds
//! must track state changes, not queries), if concurrent readers disagree with a
//! fresh rebuild at quiescence, or if the headline stops telling the paper's
//! story: the best few-state algorithm must rebuild at most 10% (full scale;
//! 50% at `--quick`) as often as the write-heaviest baseline at equal ingest.
//! The emitted JSON is schema-checked.
//!
//! The record and its trajectory are written through `fsc_bench::record`.

use fsc_bench::experiments::serve::{
    concurrent, concurrent_check, concurrent_table, headline_check, headline_threshold, run,
    staleness, staleness_table, to_json, trajectory_entry, SCHEMA_KEYS,
};
use fsc_bench::record;

fn main() {
    let (scale, label, out) = record::flags_from_env("serve");

    let (table, rows) = run(scale);
    table.print();
    if let Err(err) = fsc_bench::experiments::serve::serve_check(&rows) {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
    println!(
        "serve check: cached answers match the always-rebuild oracle and rebuild \
         counts are identical across read:write ratios"
    );

    let stale = staleness(scale);
    staleness_table(&stale).print();
    if let Err(err) = headline_check(&stale, headline_threshold(scale)) {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
    println!(
        "headline check: few-state serving rebuilds track state changes, not ingest \
         (threshold {})",
        headline_threshold(scale)
    );

    let threads = concurrent(scale);
    concurrent_table(&threads).print();
    if let Err(err) = concurrent_check(&threads) {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
    println!(
        "concurrent check: reader threads served cached views during ingest and \
         matched a fresh rebuild at quiescence"
    );

    let trajectory = record::carry_forward(
        &out,
        trajectory_entry(&record::today(), &label, scale, &rows, &stale),
    );
    let json = to_json(scale, &rows, &stale, &threads, &trajectory);
    if let Some(head) = rows
        .iter()
        .filter(|r| r.id == "count_min")
        .max_by_key(|r| r.reads_per_batch)
    {
        println!(
            "headline: CountMin cached serve = {:.2} Mqueries/s at {} reads/batch \
             ({} rebuilds over {} updates)",
            head.queries_per_sec / 1e6,
            head.reads_per_batch,
            head.rebuilds,
            head.updates
        );
    }
    record::write(&out, &json, SCHEMA_KEYS);
}
