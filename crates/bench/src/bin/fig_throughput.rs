//! T2 — update-throughput sweep; writes `BENCH_throughput.json` at the repo root.
//!
//! ```text
//! cargo run -p fsc-bench --release --bin fig_throughput                 # full scale
//! cargo run -p fsc-bench --release --bin fig_throughput -- --quick     # CI smoke
//! ... fig_throughput -- --mode batch|item|both                         # update path(s)
//! ... fig_throughput -- --label "PR 4 batch kernels"                   # trajectory label
//! ... fig_throughput -- --lanes 1|8                                    # kernel lane width
//! ... fig_throughput -- --out /tmp/bench.json                          # custom path
//! ```
//!
//! `--mode both` (the default) measures every algorithm through both the batch
//! kernels (`process_stream`) and the per-item `update` loop, and **fails the run**
//! if any cell's state-change count differs between the two — a batch kernel that
//! silently diverges from the per-item path fails CI, not a later experiment.  At
//! the default lane width it also runs the same-run perf gate
//! (`throughput::kernel_gate`): the run fails when CountMin's batch kernel is less
//! than `MIN_KERNEL_SPEEDUP` times as fast as its per-item loop, the median over
//! `GATE_REPS` interleaved repetitions timed for the gate alone.
//!
//! `--lanes W` forces the lane-packed sketch kernels (CountMin/CountSketch/AMS) to
//! width `W ∈ {1, 8}`; `--lanes 1` is the scalar fallback, so CI exercising
//! both `--lanes 1` and the default proves the divergence check across widths.
//!
//! The record and its trajectory are written through `fsc_bench::record`.

use fsc_bench::experiments::throughput::{
    self, divergence_check, gate_ratios, kernel_gate, schema_keys, Mode,
};
use fsc_bench::{cli, record};

fn main() {
    let spec = &[
        "--quick",
        "--mode <batch|item|both>",
        "--label <text>",
        "--lanes <1|8>",
        "--out <path>",
    ];
    let (scale, mode, label, lanes, out) = cli::from_env(spec, |args| {
        let scale = args.scale();
        let lanes: Option<usize> = args.value("--lanes")?;
        if let Some(w) = lanes.filter(|w| !fsc_counters::lanes::is_supported_width(*w)) {
            return Err(format!("--lanes <1|8>: unsupported width {w}"));
        }
        Ok((
            scale,
            args.value("--mode")?.unwrap_or_default(),
            args.value("--label")?
                .unwrap_or_else(|| "unlabelled recording".to_string()),
            lanes,
            args.value("--out")?
                .unwrap_or_else(|| record::default_out("throughput", scale)),
        ))
    });

    let (table, report) = throughput::run(scale, mode, lanes);
    table.print();
    println!(
        "host: {} core(s) detected; sketch kernels at lane width {}",
        report.host_cores, report.lane_width
    );

    if mode == Mode::Both {
        if let Err(err) = divergence_check(&report) {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
        println!("divergence check: batch and per-item state changes agree on every cell");
    }
    if report.lane_width == fsc_counters::lanes::DEFAULT_LANE_WIDTH {
        match kernel_gate(&gate_ratios()) {
            Ok(ratio) => println!(
                "kernel gate: CountMin batch/item = {ratio:.2}x (median over {} \
                 interleaved repetitions; needs {}x) — ok",
                throughput::GATE_REPS,
                throughput::MIN_KERNEL_SPEEDUP
            ),
            Err(err) => {
                eprintln!("error: {err}");
                std::process::exit(1);
            }
        }
    } else {
        println!("kernel gate: not applicable (needs the default lane width)");
    }

    if let Some(head) = report.headline() {
        println!(
            "headline: {} on {} ({}) = {:.2} Mitems/s",
            head.algorithm,
            head.stream,
            head.mode,
            head.items_per_sec / 1e6
        );
    }
    let trajectory = record::carry_forward(&out, report.trajectory_entry(&record::today(), &label));
    record::write(&out, &report.to_json(&trajectory), &schema_keys(mode));
}
