//! F12 — sharded engine vs single shard across config-driven scenarios, with
//! mid-stream checkpoint/failover and the checkpoint-bytes-vs-stream-length
//! curves; writes `BENCH_engine.json`.
//!
//! ```text
//! cargo run -p fsc-bench --release --bin fig_engine             # full scale
//! cargo run -p fsc-bench --release --bin fig_engine -- --quick  # CI self-check
//! ... fig_engine -- --out /tmp/engine.json                      # custom path
//! ```
//!
//! The binary **fails** (non-zero exit) if any cell violates the engine's laws —
//! a mid-stream failover that does not reproduce the pre-crash engine (delta-mode
//! scenarios fail over from the chain tip and replay every retained epoch), an
//! exact-merge union that diverges from the single-shard reference, or a scenario
//! that never exercised the checkpoint path — or if the standalone delta-curve
//! sweep stops telling the paper's story: at least one few-state-change algorithm
//! must persist measurably sublinearly and clearly beat the write-heaviest
//! baseline — or if the same-run engine-overhead gate fails: a 4-shard
//! `Engine<CountMin>` ingest of a 1024-item batch may cost at most
//! `MAX_ENGINE_OVERHEAD` times the bare kernel on the same batch (median over
//! the batches, the two sides alternating).  The emitted JSON is
//! schema-checked.  CI runs `--quick`, so a regression in the
//! snapshot/delta/merge layers or on the engine's ingest path fails the build
//! here rather than in a downstream consumer.
//!
//! The record is written through `fsc_bench::record`.

use fsc_bench::experiments::engine::{
    curves_check, curves_table, delta_curves, engine_overhead, equivalence_check, overhead_gate,
    run, to_json, MAX_ENGINE_OVERHEAD, OVERHEAD_BATCH, SCHEMA_KEYS,
};
use fsc_bench::{cli, record};

fn main() {
    let (scale, out) = cli::from_env(&["--quick", "--out <path>"], |args| {
        let scale = args.scale();
        let out = args.value("--out")?;
        Ok((
            scale,
            out.unwrap_or_else(|| record::default_out("engine", scale)),
        ))
    });

    let (table, rows) = run(scale);
    table.print();

    if let Err(err) = equivalence_check(&rows) {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
    println!(
        "equivalence check: every failover reproduced its engine (delta chains included) \
         and every exact-merge union matched the single shard"
    );

    let curves = delta_curves(scale);
    curves_table(&curves).print();
    if let Err(err) = curves_check(&curves) {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
    println!(
        "curves check: few-state-change algorithms persist sublinearly and beat the \
         write-heavy baselines on checkpoint bytes"
    );

    let ratios = engine_overhead(scale);
    match overhead_gate(&ratios) {
        Ok(median) => println!(
            "engine gate: engine/kernel ingest = {median:.2}x (median over {} batches of \
             {OVERHEAD_BATCH}; allows {MAX_ENGINE_OVERHEAD}x; {} core(s) detected) — ok",
            ratios.len(),
            fsc_engine::detected_cores()
        ),
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }

    record::write(&out, &to_json(scale, &rows, &curves), SCHEMA_KEYS);
}
