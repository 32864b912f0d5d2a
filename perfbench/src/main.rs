//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <kernel_fshh|kernel_fp|kernel_countmin|serve_ingest|serve_mixed>
//!           --seed <n>
//!           --seconds <s> --trace <0|1> --server <fsc_serve binary>
//!           --work-dir <dir>
//! ```
//!
//! `perfbench/run.py` builds the server and this binary and passes the last
//! two flags.  Every flag is required and an unknown or repeated flag is an
//! error (exit 2).  An untraced run prints every end-to-end metric, a traced
//! run every per-layer metric; both print each metric by name with its unit
//! and sample count, then one JSON result line.  A failed output check prints
//! `"correct": false` and exits 1.

mod kernel;
mod replay;
mod report;
mod serve;
mod server;
mod stats;
mod stream;
mod trace;

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serve::Spec;
use stats::Sample;

/// Steps of the fixed integer calibration loop.
const CALIBRATION_STEPS: u64 = 20_000_000;
/// Words (32 MiB) and random reads of the fixed memory calibration loop.
const MEMORY_WORDS: usize = 1 << 22;
const MEMORY_READS: u64 = 300_000;

const USAGE: &str = "usage: perfbench --workload \
<kernel_fshh|kernel_fp|kernel_countmin|serve_ingest|serve_mixed> \
--seed <n> --seconds <s> --trace <0|1> --server <path> --work-dir <dir>";

/// One run's settings.
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// The measured window.
    pub window: Duration,
    /// The `fsc_serve` binary.
    pub server: PathBuf,
    /// Scratch data dirs for this run (removed at exit).
    pub data: PathBuf,
    /// Where span files are written.
    pub out: PathBuf,
}

/// The workloads; see `perfbench/README.md` for why each exists.
const WORKLOADS: [&str; 5] = [
    "kernel_fshh",
    "kernel_fp",
    "kernel_countmin",
    "serve_ingest",
    "serve_mixed",
];

/// The tenant and traffic of a serve workload.  A kernel workload's traced
/// run replays its stream the way `serve_ingest` serves it, so every layer is
/// measured on every workload.
fn spec(workload: &str) -> Spec {
    match workload {
        "serve_mixed" => Spec {
            algorithm: "count_min",
            shards: 4,
            checkpoint_every: None,
            paced: true,
        },
        _ => Spec {
            algorithm: "count_min",
            shards: 4,
            checkpoint_every: Some(64),
            paced: false,
        },
    }
}

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    work_dir: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut slots: [(&str, Option<String>); 6] = [
        ("--workload", None),
        ("--seed", None),
        ("--seconds", None),
        ("--trace", None),
        ("--server", None),
        ("--work-dir", None),
    ];
    while let Some(flag) = argv.next() {
        let slot = slots
            .iter_mut()
            .find(|(name, _)| *name == flag)
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        if slot.1.is_some() {
            return Err(format!("{flag} given twice"));
        }
        slot.1 = Some(argv.next().ok_or_else(|| format!("{flag} needs a value"))?);
    }
    let [workload, seed, seconds, trace, server, work_dir] =
        slots.map(|(name, value)| value.ok_or_else(|| format!("{name} is required")));
    let workload = workload?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |value: String, name: &str| {
        value
            .parse::<u64>()
            .map_err(|e| format!("{name} {value:?}: {e}"))
    };
    let seconds = number(seconds?, "--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let trace = match trace?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
    };
    Ok(Args {
        workload,
        seed: number(seed?, "--seed")?,
        seconds,
        trace,
        server: PathBuf::from(server?),
        work_dir: PathBuf::from(work_dir?),
    })
}

/// Median time of five runs of `work`, in ms.
fn median_ms(mut work: impl FnMut()) -> f64 {
    let times = (0..5)
        .map(|_| {
            let began = Instant::now();
            work();
            began.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Sample::new(times).p50().unwrap_or(0.0)
}

/// Median times of a fixed integer loop and of a fixed loop of dependent
/// random reads over 32 MiB, in ms: the same work on every commit, so their
/// drift between runs is host drift, not a code change.  The memory loop is
/// the one that tracks the host's slow stretches: they come from contention
/// for shared caches and memory, which the integer loop does not feel.
fn calibration_ms(memory: &[u64]) -> (f64, f64) {
    let integer = median_ms(|| {
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for i in 0..CALIBRATION_STEPS {
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(i ^ (x >> 29));
        }
        black_box(x);
    });
    let random_reads = median_ms(|| {
        let mut at = 0usize;
        for _ in 0..MEMORY_READS {
            at = (memory[at] as usize) % memory.len();
        }
        black_box(at);
    });
    (integer, random_reads)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        server: args.server,
        data: args.work_dir.join(format!("run-{}", std::process::id())),
        out: args.work_dir,
    };
    let _ = std::fs::remove_dir_all(&ctx.data);
    if let Err(e) = std::fs::create_dir_all(&ctx.data) {
        eprintln!("perfbench: creating {}: {e}", ctx.data.display());
        std::process::exit(1);
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        ctx.workload,
        ctx.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // A fixed odd-multiplier permutation cycle, so each read depends on the last.
    let memory: Vec<u64> = (0..MEMORY_WORDS as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) + 0x7F4A_7C15) % MEMORY_WORDS as u64)
        .collect();
    let calibration_before = calibration_ms(&memory);
    let pool = stream::Pool::new(ctx.seed);
    let spec = spec(ctx.workload);
    let kernel = kernel::KERNELS.iter().position(|k| k.0 == ctx.workload);
    let outcome = match (kernel, args.trace) {
        (Some(k), false) => Ok(kernel::e2e(&ctx, &pool, k)),
        (None, false) => serve::e2e(&ctx, &spec, &pool),
        (_, true) => serve::traced(&ctx, &spec, &pool),
    };
    let _ = std::fs::remove_dir_all(&ctx.data);
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let calibration_after = calibration_ms(&memory);
    println!(
        "host: available_parallelism {}, lane width {}, calibration loop {:.3} ms before / {:.3} ms after, \
         memory loop {:.3} ms before / {:.3} ms after",
        fsc_engine::detected_cores(),
        fsc_counters::lanes::DEFAULT_LANE_WIDTH,
        calibration_before.0,
        calibration_after.0,
        calibration_before.1,
        calibration_after.1
    );
    for m in &outcome.gated {
        if !m.value.is_finite() {
            outcome
                .failures
                .push(format!("{} is not a finite number", m.name));
        }
    }
    for m in outcome.gated.iter().chain(&outcome.shown) {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("metric {} = {} {}{note}", m.name, m.value, m.unit);
    }
    for failure in &outcome.failures {
        println!("check failed: {failure}");
    }
    println!("{}", outcome.result_line());
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    const GOOD: [&str; 12] = [
        "--workload",
        "kernel_fp",
        "--seed",
        "3",
        "--seconds",
        "10",
        "--trace",
        "1",
        "--server",
        "s",
        "--work-dir",
        "w",
    ];

    #[test]
    fn accepts_the_full_flag_set() {
        let args = parse(&GOOD).expect("valid");
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            ("kernel_fp", 3, 10, true)
        );
    }

    #[test]
    fn rejects_unknown_repeated_missing_and_malformed_flags() {
        let mut typo = GOOD.to_vec();
        typo[4] = "--second";
        assert!(parse(&typo).unwrap_err().contains("unknown argument"));
        let mut twice = GOOD.to_vec();
        twice.extend(["--seed", "4"]);
        assert!(parse(&twice).unwrap_err().contains("twice"));
        assert!(parse(&GOOD[..10])
            .unwrap_err()
            .contains("--work-dir is required"));
        assert!(parse(&GOOD[..11]).unwrap_err().contains("needs a value"));
        let mut bad = GOOD.to_vec();
        bad[1] = "kernel";
        assert!(parse(&bad).unwrap_err().contains("unknown workload"));
        bad = GOOD.to_vec();
        bad[7] = "2";
        assert!(parse(&bad).is_err());
        bad = GOOD.to_vec();
        bad[5] = "0";
        assert!(parse(&bad).is_err());
    }
}
