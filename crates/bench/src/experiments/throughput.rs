//! Experiment T2 — sustained single-thread update throughput (items/sec).
//!
//! The paper's thesis is that state changes — not instructions — are the scarce
//! resource, which only holds water if the measurement substrate itself costs almost
//! nothing.  This experiment times every algorithm in the repository on three
//! workloads (Zipf, uniform, and a synthetic netflow trace) and reports items/sec,
//! along two *modes*:
//!
//! * **batch** — `process_stream`, i.e. the specialized `process_batch` kernels
//!   (the production fast path);
//! * **item** — a per-item `update` loop (the reference path the kernels must be
//!   observably identical to).
//!
//! Because kernels and per-item paths are required to produce identical state-change
//! counts, [`divergence_check`] fails the run (and CI) if any `(algorithm, stream)`
//! cell disagrees between modes — a kernel that silently diverges cannot land.
//!
//! The perf gate is a ratio measured within the run, not a number recorded on
//! another host: [`kernel_gate`] fails the run when CountMin's batch kernel is less
//! than [`MIN_KERNEL_SPEEDUP`] times as fast as its per-item loop, the median over
//! [`GATE_REPS`] interleaved repetitions on the zipf stream ([`gate_ratios`]), at
//! the default lane width.
//!
//! Timing methodology: per (algorithm, stream) cell the stream is processed once
//! per mode as a warm-up and then `samples` more times on freshly constructed
//! instances, the batch and item samples interleaved so a change in the host's
//! speed during the cell hits both sides of the ratio; the **best** wall-clock time
//! per mode is reported (minimum is the standard estimator for a deterministic
//! workload on a noisy machine — all other samples are strictly noise-inflated).
//! Construction is outside the timed region.

use std::str::FromStr;
use std::time::Instant;

use fsc_streamgen::netflow::{flow_trace, FlowTraceSpec};
use fsc_streamgen::uniform::uniform_stream;
use fsc_streamgen::zipf::zipf_stream;

use crate::record;
use crate::registry::{spec, MakeCtx};
use crate::table::{f, Table};
use crate::Scale;

/// Which update path(s) a throughput run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// `process_stream` → the specialized batch kernels.
    Batch,
    /// A per-item `update` loop (the reference path).
    Item,
    /// Both, enabling the kernel-divergence check.
    #[default]
    Both,
}

impl FromStr for Mode {
    type Err = &'static str;

    /// Parses a `--mode` flag value.
    fn from_str(s: &str) -> Result<Mode, Self::Err> {
        match s {
            "batch" => Ok(Mode::Batch),
            "item" => Ok(Mode::Item),
            "both" => Ok(Mode::Both),
            _ => Err("expected batch, item or both"),
        }
    }
}

impl Mode {
    fn includes(self, mode: &str) -> bool {
        matches!(
            (self, mode),
            (Mode::Both, _) | (Mode::Batch, "batch") | (Mode::Item, "item")
        )
    }
}

/// One measured (algorithm, stream, mode) cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Algorithm name (as reported by [`fsc_state::StreamAlgorithm::name`]).
    pub algorithm: String,
    /// Tracker the instance ran with: always `"full"` (rows recorded before the
    /// lean tracker was retired may also say `"lean"`).
    pub tracker: &'static str,
    /// Stream label.
    pub stream: String,
    /// Update path: `"batch"` (`process_stream`) or `"item"` (per-item `update`).
    pub mode: &'static str,
    /// Number of stream updates processed per run.
    pub items: usize,
    /// Best wall-clock seconds over the timed samples.
    pub best_elapsed_s: f64,
    /// `items / best_elapsed_s`.
    pub items_per_sec: f64,
    /// State changes recorded by the run (identical across samples — determinism —
    /// and, by the batch laws, identical across modes).
    pub state_changes: u64,
}

/// The full measurement set plus the metadata needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Report {
    /// `"Quick"` or `"Full"`.
    pub scale: &'static str,
    /// Timed samples per cell (after one warm-up).
    pub samples: usize,
    /// Logical cores detected on the measuring host
    /// ([`fsc_engine::detected_cores`]) — recorded so a reader can tell a 1-CPU
    /// container's numbers from a workstation's.
    pub host_cores: usize,
    /// Batch-kernel lane width the lane-packed sketches ran with (the default
    /// width when no `--lanes` override was given).
    pub lane_width: usize,
    /// `(label, universe, length)` per stream.
    pub streams: Vec<(String, usize, usize)>,
    /// All measured cells.
    pub rows: Vec<Row>,
}

impl Report {
    /// The headline cell: CountMin on the Zipf stream under the exact-accounting
    /// (full) tracker, batch mode — the row the PR-over-PR perf trajectory is
    /// anchored to.
    pub fn headline(&self) -> Option<&Row> {
        self.cell("CountMin", "full", "zipf", "batch")
    }

    /// Looks up the batch/full cell for a `(algorithm prefix, stream prefix)` pair.
    pub fn cell(&self, algorithm: &str, tracker: &str, stream: &str, mode: &str) -> Option<&Row> {
        self.rows.iter().find(|r| {
            r.algorithm.starts_with(algorithm)
                && r.tracker == tracker
                && r.stream.starts_with(stream)
                && r.mode == mode
        })
    }

    /// Renders the report as pretty-printed JSON; `trajectory` is the full
    /// (carried-forward plus appended) history array ([`record::carry_forward`]).
    pub fn to_json(&self, trajectory: &[String]) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"throughput\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        out.push_str(&format!("  \"samples\": {},\n", self.samples));
        out.push_str(&format!("  \"host_cores\": {},\n", self.host_cores));
        out.push_str(&format!("  \"lane_width\": {},\n", self.lane_width));
        out.push_str("  \"unit\": \"items_per_sec\",\n");
        out.push_str("  \"streams\": [\n");
        for (i, (label, n, m)) in self.streams.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{label}\", \"universe\": {n}, \"length\": {m}}}{}\n",
                if i + 1 < self.streams.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"algorithm\": \"{}\", \"tracker\": \"{}\", \"stream\": \"{}\", \
                 \"mode\": \"{}\", \"items\": {}, \"best_elapsed_s\": {:.6}, \
                 \"items_per_sec\": {:.0}, \"state_changes\": {}}}{}\n",
                r.algorithm,
                r.tracker,
                r.stream,
                r.mode,
                r.items,
                r.best_elapsed_s,
                r.items_per_sec,
                r.state_changes,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&record::trajectory_json(trajectory));
        if let Some(head) = self.headline() {
            out.push_str(",\n  \"headline\": {\n");
            out.push_str(&format!(
                "    \"algorithm\": \"{}\", \"stream\": \"{}\", \"mode\": \"{}\",\n",
                head.algorithm, head.stream, head.mode
            ));
            out.push_str(&format!("    \"items_per_sec\": {:.0}", head.items_per_sec));
            out.push_str("\n  }");
        }
        out.push_str("\n}\n");
        out
    }

    /// Renders this run's dated trajectory entry: the key full-tracker Zipf cells in
    /// batch mode (items/sec), labelled so readers can attribute the recording
    /// (date and label pass through [`record::sanitize`]).
    pub fn trajectory_entry(&self, date: &str, label: &str) -> String {
        let (date, label) = (record::sanitize(date), record::sanitize(label));
        let cell = |alg: &str| {
            self.cell(alg, "full", "zipf", "batch")
                .map(|r| format!("{:.0}", r.items_per_sec))
                .unwrap_or_else(|| "null".to_string())
        };
        format!(
            "{{\"date\": \"{date}\", \"label\": \"{label}\", \"scale\": \"{}\", \
             \"cores\": {}, \"lane_width\": {}, \
             \"stream\": \"zipf-1.1\", \"mode\": \"batch\", \
             \"countmin\": {}, \"ams\": {}, \"few_state_heavy_hitters\": {}, \
             \"fp_estimator\": {}, \"sample_and_hold\": {}}}",
            self.scale,
            self.host_cores,
            self.lane_width,
            cell("CountMin"),
            cell("AMS"),
            cell("FewStateHeavyHitters"),
            cell("FpEstimator"),
            cell("SampleAndHold(")
        )
    }
}

/// Fails if any `(algorithm, tracker, stream)` cell measured in both modes recorded
/// different state-change counts — the observable a silently divergent batch kernel
/// cannot fake.
pub fn divergence_check(report: &Report) -> Result<(), String> {
    for r in &report.rows {
        if r.mode != "batch" {
            continue;
        }
        if let Some(item_row) = report.rows.iter().find(|x| {
            x.mode == "item"
                && x.algorithm == r.algorithm
                && x.tracker == r.tracker
                && x.stream == r.stream
        }) {
            if item_row.state_changes != r.state_changes {
                return Err(format!(
                    "kernel divergence: {} [{}] on {}: batch recorded {} state changes, \
                     per-item recorded {}",
                    r.algorithm, r.tracker, r.stream, r.state_changes, item_row.state_changes
                ));
            }
        }
    }
    Ok(())
}

/// The keys a record of `mode` must contain ([`record::check_keys`]): rows for
/// each measured mode and — whenever a batch row exists — the headline block
/// (item-only runs legitimately have neither).
pub fn schema_keys(mode: Mode) -> Vec<&'static str> {
    let mut keys = vec![
        "\"experiment\": \"throughput\"",
        "\"scale\":",
        "\"samples\":",
        "\"host_cores\":",
        "\"lane_width\":",
        "\"unit\": \"items_per_sec\"",
        "\"streams\":",
        "\"rows\":",
        "\"trajectory\":",
        "\"items_per_sec\":",
        "\"state_changes\":",
        "\"date\":",
    ];
    if mode.includes("batch") {
        keys.extend(["\"headline\":", "\"mode\": \"batch\""]);
    }
    if mode.includes("item") {
        keys.push("\"mode\": \"item\"");
    }
    keys
}

/// The batch/item speedup CountMin's kernel must keep at the default lane width,
/// as [`kernel_gate`] reads it from [`gate_ratios`].
///
/// On a 2-vCPU Xeon host, 40 healthy quick runs read 3.80–4.16, and 25 runs with
/// the batch kernel's significant-byte lookup reverted to all eight tables read
/// 2.83–3.18, so the bound sits below every healthy run and above every
/// reverted one.  A host with another microarchitecture may read other ratios;
/// re-measure both sides there before trusting the bound.  The bound was set for
/// the default width, so the gate applies there only (the scalar kernel,
/// `--lanes 1`, reads about 2.7).
pub const MIN_KERNEL_SPEEDUP: f64 = 3.4;

/// Interleaved batch/item repetitions [`gate_ratios`] times.
pub const GATE_REPS: usize = 64;

/// The kernel gate's own measurement: CountMin at the default lane width on the
/// quick zipf-1.1 stream (16 Ki items over 4 Ki keys), [`GATE_REPS`] repetitions
/// after one warm-up, each timing one fresh instance through `process_stream`
/// and another through the per-item loop, the order alternating between
/// repetitions so drift in the host's speed hits both sides.  Returns each
/// repetition's batch/item speedup (item time over batch time).  Construction
/// is outside the timed region.
pub fn gate_ratios() -> Vec<f64> {
    let (n, m) = (1 << 12, 1 << 14);
    let stream = zipf_stream(n, m, 1.1, 7);
    let make = spec("count_min").expect("count_min is registered").make;
    let ctx = MakeCtx::new(n, m);
    let time = |batch: bool| {
        let mut alg = make(&ctx);
        let start = Instant::now();
        if batch {
            alg.process_stream(&stream);
        } else {
            for &x in &stream {
                alg.update(x);
            }
        }
        start.elapsed().as_secs_f64()
    };
    time(true);
    time(false);
    (0..GATE_REPS)
        .map(|rep| {
            let (batch, item) = if rep % 2 == 0 {
                let batch = time(true);
                (batch, time(false))
            } else {
                let item = time(false);
                (time(true), item)
            };
            item / batch
        })
        .collect()
}

/// The same-run perf gate over [`gate_ratios`]' repetitions: their median, or
/// an error when it falls below [`MIN_KERNEL_SPEEDUP`].
pub fn kernel_gate(ratios: &[f64]) -> Result<f64, String> {
    let mut sorted = ratios.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = *sorted
        .get(sorted.len() / 2)
        .ok_or("kernel gate: no repetitions were timed")?;
    if median < MIN_KERNEL_SPEEDUP {
        return Err(format!(
            "kernel gate failed: CountMin's batch kernel is only {median:.2}x as fast as \
             its per-item loop (median over {} repetitions; needs {MIN_KERNEL_SPEEDUP}x)",
            sorted.len()
        ));
    }
    Ok(median)
}

/// The measured registry ids — the constructor bodies live in [`crate::registry`]
/// (shared with the engine experiment and every fig binary), so this experiment only
/// names *which* entries it times, each on the default exact tracker.  Order and
/// parameters reproduce the recorded `BENCH_throughput.json` rows exactly.
const CASES: &[&str] = &[
    "sample_and_hold",
    "few_state_heavy_hitters",
    "fp_estimator",
    "sparse_recovery",
    "misra_gries",
    "space_saving",
    "count_min",
    "count_sketch",
    "ams",
    "sample_and_hold_classic",
];

/// Runs the throughput sweep over the requested mode(s) and returns the printed
/// table plus the raw report.  `lanes` overrides the batch-kernel lane width of
/// the lane-packed sketches (`None` keeps each kernel's default); the effective
/// width and the detected host core count are recorded in the report.
pub fn run(scale: Scale, mode: Mode, lanes: Option<usize>) -> (Table, Report) {
    let n = scale.pick(1 << 12, 1 << 14);
    let m = scale.pick(1 << 14, 1 << 18);
    let samples = scale.pick(2, 3);

    let netflow = flow_trace(&FlowTraceSpec {
        elephants: scale.pick(8, 32),
        mice: (m / 4).max(64),
        seed: 9,
        ..FlowTraceSpec::default()
    });
    let streams: Vec<(String, usize, Vec<u64>)> = vec![
        ("zipf-1.1".to_string(), n, zipf_stream(n, m, 1.1, 7)),
        ("uniform".to_string(), n, uniform_stream(n, m, 8)),
        ("netflow".to_string(), netflow.flows, netflow.packets),
    ];

    let mut report = Report {
        scale: scale.pick("Quick", "Full"),
        samples,
        host_cores: fsc_engine::detected_cores(),
        lane_width: lanes.unwrap_or(fsc_counters::lanes::DEFAULT_LANE_WIDTH),
        streams: streams
            .iter()
            .map(|(label, n, s)| (label.clone(), *n, s.len()))
            .collect(),
        rows: Vec::new(),
    };

    let modes: Vec<&'static str> = ["batch", "item"]
        .into_iter()
        .filter(|m| mode.includes(m))
        .collect();
    for &id in CASES {
        let make = spec(id)
            .unwrap_or_else(|| panic!("unknown registry id {id}"))
            .make;
        for (label, universe, stream) in &streams {
            let mut best = vec![f64::INFINITY; modes.len()];
            let mut outcome = vec![(String::new(), 0); modes.len()];
            // One warm-up + `samples` timed runs per mode, each on a fresh
            // instance, the modes interleaved sample by sample.
            for sample in 0..=samples {
                for (k, &run_mode) in modes.iter().enumerate() {
                    let ctx = MakeCtx::new(*universe, stream.len()).with_lanes(lanes);
                    let mut alg = make(&ctx);
                    let start = Instant::now();
                    match run_mode {
                        "item" => {
                            for &x in stream {
                                alg.update(x);
                            }
                        }
                        _ => alg.process_stream(stream),
                    }
                    let elapsed = start.elapsed().as_secs_f64();
                    if sample > 0 {
                        best[k] = best[k].min(elapsed);
                    }
                    outcome[k] = (alg.name().to_string(), alg.report().state_changes);
                }
            }
            for ((&run_mode, best), (algorithm, state_changes)) in
                modes.iter().zip(best).zip(outcome)
            {
                report.rows.push(Row {
                    algorithm,
                    tracker: "full",
                    stream: label.clone(),
                    mode: run_mode,
                    items: stream.len(),
                    best_elapsed_s: best,
                    items_per_sec: stream.len() as f64 / best,
                    state_changes,
                });
            }
        }
    }

    let mut table = Table::new(
        &format!(
            "Throughput — items/sec over {} timed samples (best), m = {m}",
            samples
        ),
        &[
            "algorithm",
            "tracker",
            "stream",
            "mode",
            "items/sec",
            "state changes",
        ],
    );
    for r in &report.rows {
        table.row(vec![
            r.algorithm.clone(),
            r.tracker.to_string(),
            r.stream.clone(),
            r.mode.to_string(),
            f(r.items_per_sec),
            r.state_changes.to_string(),
        ]);
    }
    (table, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{check_keys, trajectory_inner};

    /// A report over `rows`, without streams unless a row names one.
    fn report(lane_width: usize, rows: Vec<Row>) -> Report {
        let mut streams: Vec<(String, usize, usize)> = Vec::new();
        for r in &rows {
            if !streams.iter().any(|(s, _, _)| *s == r.stream) {
                streams.push((r.stream.clone(), 1, r.items));
            }
        }
        Report {
            scale: "Quick",
            samples: 1,
            host_cores: 1,
            lane_width,
            streams,
            rows,
        }
    }

    fn row(algorithm: &str, stream: &str, mode: &'static str, ips: f64, sc: u64) -> Row {
        Row {
            algorithm: algorithm.into(),
            tracker: "full",
            stream: stream.into(),
            mode,
            items: 10,
            best_elapsed_s: 10.0 / ips,
            items_per_sec: ips,
            state_changes: sc,
        }
    }

    #[test]
    fn quick_sweep_measures_every_cell_in_both_modes() {
        let (table, report) = run(Scale::Quick, Mode::Both, None);
        assert_eq!(report.rows.len(), CASES.len() * 3 * 2);
        assert_eq!(report.lane_width, fsc_counters::lanes::DEFAULT_LANE_WIDTH);
        assert!(report.host_cores >= 1);
        assert_eq!(table.len(), report.rows.len());
        for row in &report.rows {
            assert!(row.items_per_sec > 0.0, "{}: no throughput", row.algorithm);
            assert!(row.items > 0);
        }
        let head = report.headline().expect("CountMin/zipf/batch headline row");
        assert_eq!(head.tracker, "full");
        assert_eq!(head.mode, "batch");
        divergence_check(&report).expect("batch kernels must not diverge");

        let entry = report.trajectory_entry("2026-01-01", "test");
        let json = report.to_json(std::slice::from_ref(&entry));
        assert!(json.contains("\"experiment\": \"throughput\""));
        assert!(json.contains("\"trajectory\": ["));
        check_keys(&json, &schema_keys(Mode::Both)).expect("emitted JSON must satisfy the schema");

        // The trajectory round-trips through the carry-forward extractor.
        assert_eq!(trajectory_inner(&json), Some(vec![entry]));
    }

    #[test]
    fn single_mode_runs_measure_only_that_mode() {
        let (_, report) = run(Scale::Quick, Mode::Batch, Some(1));
        assert!(report.rows.iter().all(|r| r.mode == "batch"));
        assert_eq!(report.rows.len(), CASES.len() * 3);
        assert_eq!(report.lane_width, 1, "--lanes override is recorded");
        assert!("nope".parse::<Mode>().is_err());
        assert_eq!("item".parse(), Ok(Mode::Item));
        assert_eq!("both".parse(), Ok(Mode::Both));
    }

    #[test]
    fn item_only_records_satisfy_the_schema_without_a_headline() {
        // An item-only run has no batch rows, hence no headline block; its record is
        // nevertheless valid (regression: the schema check used to demand the
        // headline unconditionally, failing every advertised `--mode item` run).
        let (_, report) = run(Scale::Quick, Mode::Item, None);
        assert!(report.headline().is_none());
        let entry = report.trajectory_entry("2026-01-01", "item-only");
        let json = report.to_json(std::slice::from_ref(&entry));
        check_keys(&json, &schema_keys(Mode::Item)).expect("item-only record must be schema-valid");
        assert!(
            check_keys(&json, &schema_keys(Mode::Both)).is_err(),
            "no batch rows"
        );
    }

    #[test]
    fn trajectory_labels_are_sanitized_for_the_handrolled_writer() {
        let report = report(8, vec![]);
        let entry = report.trajectory_entry("2026-01-01", "PR 5 \"batch\" [wip]\\x");
        assert!(entry.contains("PR 5 _batch_ _wip__x"), "entry: {entry}");
        // The sanitized entry survives the write → carry-forward round trip even
        // though the writer and parser are hand-rolled.
        let json = report.to_json(std::slice::from_ref(&entry));
        assert_eq!(trajectory_inner(&json), Some(vec![entry]));
    }

    #[test]
    fn divergence_check_catches_a_mismatched_cell() {
        let cells = |batch, item| {
            vec![
                row("X", "zipf", "batch", 10.0, batch),
                row("X", "zipf", "item", 10.0, item),
            ]
        };
        assert!(divergence_check(&report(8, cells(5, 6))).is_err());
        assert!(divergence_check(&report(8, cells(5, 5))).is_ok());
    }

    #[test]
    fn kernel_gate_holds_the_batch_over_item_ratio_at_the_default_width() {
        let bound = MIN_KERNEL_SPEEDUP;
        let ratio = kernel_gate(&[bound + 0.1; 5]).expect("above the bound passes");
        assert!((ratio - (bound + 0.1)).abs() < 1e-9);
        let err = kernel_gate(&[bound - 0.1; 5]).expect_err("below the bound fails");
        assert!(err.contains(&format!("{:.2}x", bound - 0.1)), "{err}");

        // The median, not the slowest repetition, decides.
        let mut one_slow = vec![bound + 0.1; 5];
        one_slow[0] = 1.0;
        assert!(kernel_gate(&one_slow).is_ok());
        assert!(kernel_gate(&[]).is_err(), "no repetitions is no evidence");

        // The real measurement times every repetition and reads a speedup.
        let ratios = gate_ratios();
        assert_eq!(ratios.len(), GATE_REPS);
        assert!(ratios.iter().all(|r| r.is_finite() && *r > 0.0));
    }

    #[test]
    fn schema_check_rejects_incomplete_json() {
        assert!(check_keys("{}", &schema_keys(Mode::Batch)).is_err());
        assert!(check_keys("", &schema_keys(Mode::Both)).is_err());
    }
}
