//! The kernel workloads: FewStateHeavyHitters, FpEstimator and CountMin,
//! built by the registry and fed 1024-item batches through `process_batch`
//! in process, one summary per workload.  No server, journal or view runs, so
//! kernel and state-accounting changes show here undiluted.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fsc_bench::registry::{spec, MakeCtx};
use fsc_state::{Queryable, StateReport};

use crate::report::{Metric, Outcome};
use crate::stats::Sample;
use crate::stream::{Pool, POOL_BATCHES, UNIVERSE};
use crate::trace::Tracer;
use crate::Ctx;

/// (workload, registry id, span name), in the traced pass's feeding order.
pub const KERNELS: [(&str, &str, &str); 3] = [
    ("kernel_fshh", "few_state_heavy_hitters", "kernel.fshh"),
    ("kernel_fp", "fp_estimator", "kernel.fp"),
    ("kernel_countmin", "count_min", "kernel.countmin"),
];
/// Rounds of constructions per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// Each set-up round repeats the construction until this much time has passed.
const SETUP_ROUND: Duration = Duration::from_millis(100);

fn construct(pool: &Pool, kernel: usize) -> Box<dyn Queryable> {
    let ctx = MakeCtx::new(UNIVERSE, pool.len());
    (spec(KERNELS[kernel].1).expect("registered algorithm").make)(&ctx)
}

/// One pass of the whole pool through fresh summaries.
pub struct KernelPass {
    /// `batch_us[k][b]`: time of batch `b` through the `k`-th fed summary, in µs.
    batch_us: Vec<Vec<f64>>,
    reports: Vec<StateReport>,
    items: u64,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
}

impl KernelPass {
    /// Items per second of summed `process_batch` time, over all fed summaries.
    fn items_per_s(&self) -> f64 {
        let busy_us: f64 = self.batch_us.iter().flatten().sum();
        self.items as f64 * 1e6 / busy_us
    }

    fn per_item(&self, count: u64) -> f64 {
        count as f64 / self.items as f64
    }
}

/// Feeds the pool through fresh summaries of `kernels` (spans when `tracer`
/// is on), batch by batch.
fn pass(pool: &Pool, kernels: &[usize], tracer: &mut Tracer) -> KernelPass {
    let mut summaries: Vec<_> = kernels.iter().map(|&k| construct(pool, k)).collect();
    let mut batch_us = vec![Vec::with_capacity(POOL_BATCHES); kernels.len()];
    for b in 0..POOL_BATCHES as u64 {
        let batch = pool.batch(b);
        let req = tracer.request("request.kernel");
        for ((summary, &k), times) in summaries.iter_mut().zip(kernels).zip(&mut batch_us) {
            let began = Instant::now();
            tracer.span(req, KERNELS[k].2, || summary.process_batch(batch));
            times.push(began.elapsed().as_secs_f64() * 1e6);
        }
        tracer.end(req);
    }
    let items = pool.len() as u64;
    let reports: Vec<StateReport> = summaries.iter().map(|s| s.report()).collect();
    let failures = reports
        .iter()
        .zip(kernels)
        .filter(|(r, _)| r.epochs != items)
        .map(|(r, &k)| {
            format!(
                "{}: report().epochs {} after {items} items",
                KERNELS[k].0, r.epochs
            )
        })
        .collect();
    KernelPass {
        batch_us,
        reports,
        items,
        failures,
    }
}

/// Set-up time of one construction: the median over [`SETUP_ROUNDS`] rounds
/// of each round's mean, a round repeating the construction for at least
/// [`SETUP_ROUND`].
fn setup_s(pool: &Pool, kernel: usize) -> (f64, usize) {
    let mut built = 0;
    let rounds = (0..SETUP_ROUNDS)
        .map(|_| {
            let began = Instant::now();
            let mut n = 0u32;
            while n == 0 || began.elapsed() < SETUP_ROUND {
                black_box(construct(pool, kernel));
                n += 1;
            }
            built += n as usize;
            began.elapsed().as_secs_f64() / f64::from(n)
        })
        .collect();
    (Sample::new(rounds).p50().unwrap_or(0.0), built)
}

/// The untraced run of one kernel workload: passes over the pool through
/// fresh summaries until the window is spent.
///
/// Every pass feeds the same batches in the same order, so batch position `b`
/// costs the same in every pass up to host noise.  The gated figures take,
/// for each position, its fastest pass: a position needs one pass in a fast
/// stretch of the host, not a whole run.
pub fn e2e(ctx: &Ctx, pool: &Pool, kernel: usize) -> Outcome {
    let (setup, built) = setup_s(pool, kernel);
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 2 || started.elapsed() < ctx.window {
        passes.push(pass(pool, &[kernel], &mut Tracer::new(false)));
    }
    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    let changes = passes[0].reports[0].state_changes;
    if passes.iter().any(|p| p.reports[0].state_changes != changes) {
        failures.push("state changes differ between passes over the same stream".into());
    }
    let fastest: Vec<f64> = (0..POOL_BATCHES)
        .map(|b| {
            passes
                .iter()
                .map(|p| p.batch_us[0][b])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let fastest = Sample::new(fastest);
    let whole = Sample::new(passes.iter().flat_map(|p| p.batch_us[0].clone()).collect());
    let n_passes = format!("{} passes of {} items", passes.len(), pool.len());
    let gated = vec![
        Metric::new(
            "setup_s",
            setup,
            "s",
            format!("median of {SETUP_ROUNDS} rounds, {built} constructions"),
        ),
        Metric::new(
            "items_per_s",
            pool.len() as f64 * 1e6 / fastest.sum(),
            "items/s",
            format!("one pass at each batch's fastest time; {n_passes}"),
        ),
        Metric::new(
            "latency_p50_us",
            fastest.p50().unwrap_or(0.0),
            "us",
            format!("median over {POOL_BATCHES} batches of each one's fastest time"),
        ),
        Metric::new(
            "state_changes_per_item",
            passes[0].per_item(changes),
            "count/item",
            format!("{changes} state changes, exact"),
        ),
    ];
    let shown = vec![
        Metric::new(
            "items_per_s (whole run)",
            Sample::new(passes.iter().map(KernelPass::items_per_s).collect())
                .p50()
                .unwrap_or(0.0),
            "items/s",
            format!("median pass; {n_passes}"),
        ),
        Metric::new(
            "batch latency p50 (whole run)",
            whole.p50().unwrap_or(0.0),
            "us",
            format!("n = {}", whole.len()),
        ),
        Metric::tail("batch latency (whole run)", &whole, "us"),
    ];
    Outcome {
        gated,
        shown,
        attempted: (passes.len() * POOL_BATCHES) as u64,
        failed: 0,
        failures,
    }
}

/// One traced and one untraced pass through all three summaries, for the
/// per-layer metrics and the tracing overhead.
pub fn traced_pair(pool: &Pool, tracer: &mut Tracer) -> (KernelPass, KernelPass) {
    let all = [0, 1, 2];
    let traced = pass(pool, &all, tracer);
    let untraced = pass(pool, &all, &mut Tracer::new(false));
    (traced, untraced)
}

/// The state-accounting metrics of the paper's two algorithms, and the
/// kernel tracing overhead.
pub fn layer_metrics(traced: &KernelPass, untraced: &KernelPass) -> Vec<Metric> {
    let mut out = Vec::new();
    for (k, name) in [(0, "fshh"), (1, "fp")] {
        let r = &traced.reports[k];
        out.push(Metric::new(
            &format!("state.{name}.word_writes_per_item"),
            traced.per_item(r.word_writes),
            "count/item",
            String::new(),
        ));
        out.push(Metric::new(
            &format!("state.{name}.reads_per_item"),
            traced.per_item(r.reads),
            "count/item",
            String::new(),
        ));
    }
    out.push(Metric::new(
        "trace.kernel_overhead_ratio",
        untraced.items_per_s() / traced.items_per_s(),
        "ratio",
        format!(
            "untraced {:.0} / traced {:.0} items/s",
            untraced.items_per_s(),
            traced.items_per_s()
        ),
    ));
    out
}
