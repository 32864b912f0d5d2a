//! T2 — update-throughput sweep; writes `BENCH_throughput.json` at the repo root.
//!
//! ```text
//! cargo run -p fsc-bench --release --bin fig_throughput                 # full scale
//! cargo run -p fsc-bench --release --bin fig_throughput -- --quick     # CI smoke
//! ... fig_throughput -- --mode batch|item|both                         # update path(s)
//! ... fig_throughput -- --label "PR 4 batch kernels"                   # trajectory label
//! ... fig_throughput -- --baseline-countmin 9205209                    # record speedup
//! ... fig_throughput -- --lanes 1|8                                    # kernel lane width
//! ... fig_throughput -- --regression-gate                              # CI perf gate
//! ... fig_throughput -- --out /tmp/bench.json                          # custom path
//! ```
//!
//! `--mode both` (the default) measures every algorithm through both the batch
//! kernels (`process_stream`) and the per-item `update` loop, and **fails the run**
//! if any cell's state-change count differs between the two — a batch kernel that
//! silently diverges from the per-item path fails CI, not a later experiment.  The
//! emitted JSON is also schema-checked after writing.
//!
//! The JSON carries a `trajectory` array recording one dated entry per recording
//! (now including the detected host core count and the batch-kernel lane width):
//! existing entries are carried forward verbatim and this run's entry is appended,
//! so the perf history across PRs stays machine-readable.  A pre-trajectory record
//! (the PR 3 format) is seeded into the history from its own rows before appending.
//! Before writing, the run **refuses to overwrite prior trajectory entries**: if
//! the new array is not a verbatim in-order extension of the recorded one, the run
//! fails instead of rewriting history.
//!
//! `--lanes W` forces the lane-packed sketch kernels (CountMin/CountSketch/AMS) to
//! width `W ∈ {1, 8}`; `--lanes 1` is the scalar fallback, so CI exercising
//! both `--lanes 1` and the default proves the divergence check across widths.
//!
//! `--regression-gate` compares this run's CountMin headline against the
//! `countmin` cell of the **last trajectory entry** in the committed repo-root
//! `BENCH_throughput.json` and exits non-zero if the fresh measurement falls more
//! than [`REGRESSION_TOLERANCE`] below it.  With no recorded reference (fresh
//! clone, legacy record) the gate passes with a note rather than blocking.
//!
//! `--baseline-countmin ITEMS_PER_SEC` embeds a pre-change headline measurement
//! (taken with this same harness on the same host) so the JSON records the speedup
//! of the CountMin full-tracker hot path against it.
//!
//! Only a **full-scale** run defaults to the committed repo-root
//! `BENCH_throughput.json`; `--quick` defaults to a file in the system temp directory
//! so a smoke run can never silently replace the recorded perf trajectory with
//! reduced-scale noise (pass `--out` explicitly to override either default).

use fsc_bench::experiments::throughput::{
    self, assert_append_only, divergence_check, extract_cell, last_trajectory_countmin,
    schema_check, trajectory_inner, Mode,
};
use fsc_bench::Scale;

/// Maximum fraction the fresh CountMin headline may fall below the last recorded
/// trajectory entry before `--regression-gate` fails the run.
///
/// 15% is deliberately generous for a CI gate: the committed trajectory entries are
/// **full-scale** recordings while CI gates at `--quick` scale (shorter streams
/// carry relatively more fixed overhead), the CI host is not the recording host,
/// and a shared/1-CPU container adds real run-to-run noise even under best-of
/// sampling.  The gate is meant to catch a kernel that got structurally slower
/// (a regression eating the lane-packing win), not a 5% wobble; if it fires,
/// re-run once before digging in.
const REGRESSION_TOLERANCE: f64 = 0.15;

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Today's date as `YYYY-MM-DD` (UTC), from the system clock — no external crate.
/// Uses the standard civil-from-days algorithm.
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Seeds a trajectory from a pre-trajectory (PR 3 format) record's own rows, so the
/// old headline numbers stay machine-readable instead of being overwritten.
fn seed_entry_from_legacy(old: &str) -> Option<String> {
    let cell = |alg: &str| {
        extract_cell(old, alg, "full", "zipf")
            .map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| "null".to_string())
    };
    // Only synthesize when the legacy record actually has rows to read.
    extract_cell(old, "CountMin", "full", "zipf")?;
    Some(format!(
        "{{\"date\": \"pre-existing\", \"label\": \"PR 3 recording (pre batch kernels)\", \
         \"scale\": \"Full\", \"stream\": \"zipf-1.1\", \"mode\": \"batch\", \
         \"countmin\": {}, \"ams\": {}, \"few_state_heavy_hitters\": {}, \
         \"fp_estimator\": {}, \"sample_and_hold\": {}}}",
        cell("CountMin"),
        cell("AMS"),
        cell("FewStateHeavyHitters"),
        cell("FpEstimator"),
        cell("SampleAndHold(")
    ))
}

fn main() {
    let scale = Scale::from_args();
    let mode = match flag_value("--mode") {
        Some(v) => Mode::parse(&v).unwrap_or_else(|| {
            eprintln!("error: --mode expects batch|item|both, got {v:?}");
            std::process::exit(2);
        }),
        None => Mode::Both,
    };
    let label = flag_value("--label").unwrap_or_else(|| "unlabelled recording".to_string());
    let baseline: Option<f64> = flag_value("--baseline-countmin").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("error: --baseline-countmin expects a plain items/sec number, got {v:?}");
            std::process::exit(2);
        })
    });
    let lanes: Option<usize> = flag_value("--lanes").map(|v| {
        v.parse()
            .ok()
            .filter(|w| fsc_counters::lanes::is_supported_width(*w))
            .unwrap_or_else(|| {
                eprintln!("error: --lanes expects one of 1|8, got {v:?}");
                std::process::exit(2);
            })
    });
    let regression_gate = std::env::args().any(|a| a == "--regression-gate");
    let out_path = flag_value("--out").unwrap_or_else(|| match scale {
        // The committed perf-trajectory record is full-scale by definition.
        Scale::Full => format!("{}/../../BENCH_throughput.json", env!("CARGO_MANIFEST_DIR")),
        Scale::Quick => std::env::temp_dir()
            .join("BENCH_throughput.quick.json")
            .to_string_lossy()
            .into_owned(),
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

    // Carry the existing trajectory forward (or seed one from a legacy record), then
    // append this run's entry.
    let old = std::fs::read_to_string(&out_path).unwrap_or_default();
    let recorded = trajectory_inner(&old).unwrap_or_default();
    let mut trajectory = trajectory_inner(&old)
        .or_else(|| seed_entry_from_legacy(&old).map(|e| vec![e]))
        .unwrap_or_default();
    trajectory.push(report.trajectory_entry(&today(), &label));
    // Refuse to rewrite history: the recorded entries must be a verbatim prefix of
    // what is about to be written.
    if let Err(err) = assert_append_only(&recorded, &trajectory) {
        eprintln!("error: {err}");
        std::process::exit(1);
    }

    let json = report.to_json(baseline, &trajectory);
    if let Err(err) = schema_check(&json, mode) {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
    std::fs::write(&out_path, &json).expect("write BENCH_throughput.json");
    if let Some(head) = report.headline() {
        println!(
            "headline: {} on {} ({}) = {:.2} Mitems/s",
            head.algorithm,
            head.stream,
            head.mode,
            head.items_per_sec / 1e6
        );
        if let Some(base) = baseline {
            println!(
                "speedup vs pre-PR hot path: {:.2}x (baseline {:.2} Mitems/s)",
                head.items_per_sec / base,
                base / 1e6
            );
        }
    }
    println!("trajectory: {} entr(y/ies) recorded", trajectory.len());
    println!("wrote {out_path}");

    if regression_gate {
        // The reference is always the committed repo-root record (the last
        // trajectory entry), regardless of where this run's JSON went — a --quick
        // CI run writes to the temp dir but still gates against recorded history.
        let committed = format!("{}/../../BENCH_throughput.json", env!("CARGO_MANIFEST_DIR"));
        let reference = std::fs::read_to_string(&committed)
            .ok()
            .and_then(|s| last_trajectory_countmin(&s));
        match (reference, report.headline()) {
            (Some(reference), Some(head)) => {
                let floor = reference * (1.0 - REGRESSION_TOLERANCE);
                if head.items_per_sec < floor {
                    eprintln!(
                        "error: throughput regression gate failed: CountMin headline \
                         {:.2} Mitems/s is more than {:.0}% below the last recorded \
                         trajectory entry ({:.2} Mitems/s, floor {:.2})",
                        head.items_per_sec / 1e6,
                        REGRESSION_TOLERANCE * 100.0,
                        reference / 1e6,
                        floor / 1e6
                    );
                    std::process::exit(1);
                }
                println!(
                    "regression gate: {:.2} Mitems/s vs recorded {:.2} Mitems/s \
                     (floor {:.2}, tolerance {:.0}%) — ok",
                    head.items_per_sec / 1e6,
                    reference / 1e6,
                    floor / 1e6,
                    REGRESSION_TOLERANCE * 100.0
                );
            }
            (None, _) => println!(
                "regression gate: no recorded CountMin reference in {committed}; \
                 passing with a note"
            ),
            (_, None) => println!(
                "regression gate: no batch headline in this run (--mode item); \
                 passing with a note"
            ),
        }
    }
}
