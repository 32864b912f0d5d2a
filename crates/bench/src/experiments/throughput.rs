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
//! The machine-readable record `BENCH_throughput.json` additionally carries a
//! `trajectory` array: one dated entry per recording — including the detected host
//! core count and the batch-kernel lane width — appended (never overwritten) by
//! `fig_throughput`, so the perf history across PRs stays machine-readable.
//! [`assert_append_only`] enforces the never-overwritten part, and
//! [`last_trajectory_countmin`] exposes the latest recorded headline as the
//! reference for the CI throughput-regression gate.
//!
//! Timing methodology: per (algorithm, stream, mode) cell the stream is processed
//! once as a warm-up and then `samples` more times on freshly constructed instances;
//! the **best** wall-clock time is reported (minimum is the standard estimator for a
//! deterministic workload on a noisy machine — all other samples are strictly
//! noise-inflated).  Construction is outside the timed region.

use std::time::Instant;

use fsc_streamgen::netflow::{flow_trace, FlowTraceSpec};
use fsc_streamgen::uniform::uniform_stream;
use fsc_streamgen::zipf::zipf_stream;

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

impl Mode {
    /// Parses a `--mode` flag value.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "batch" => Some(Mode::Batch),
            "item" => Some(Mode::Item),
            "both" => Some(Mode::Both),
            _ => None,
        }
    }

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

    /// Renders the report as pretty-printed JSON (hand-rolled: the workspace is
    /// offline and carries no serde).  `baseline_countmin` is the pre-PR headline
    /// items/sec measured by this same harness, used to record the speedup;
    /// `trajectory` is the full (carried-forward plus appended) history array,
    /// rendered verbatim as its entries' JSON objects.
    pub fn to_json(&self, baseline_countmin: Option<f64>, trajectory: &[String]) -> String {
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
        out.push_str("  \"trajectory\": [\n");
        for (i, entry) in trajectory.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                entry.trim(),
                if i + 1 < trajectory.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]");
        if let Some(head) = self.headline() {
            out.push_str(",\n  \"headline\": {\n");
            out.push_str(&format!(
                "    \"algorithm\": \"{}\", \"stream\": \"{}\", \"mode\": \"{}\",\n",
                head.algorithm, head.stream, head.mode
            ));
            out.push_str(&format!("    \"items_per_sec\": {:.0}", head.items_per_sec));
            if let Some(base) = baseline_countmin {
                out.push_str(&format!(",\n    \"pre_pr_items_per_sec\": {base:.0}"));
                if base > 0.0 {
                    out.push_str(&format!(
                        ",\n    \"speedup_vs_pre_pr\": {:.2}",
                        head.items_per_sec / base
                    ));
                }
            }
            out.push_str("\n  }");
        }
        out.push_str("\n}\n");
        out
    }

    /// Renders this run's dated trajectory entry: the key full-tracker Zipf cells in
    /// batch mode (items/sec), labelled so readers can attribute the recording.
    ///
    /// The caller-supplied label and date are sanitized for the hand-rolled JSON
    /// writer and the bracket-scanning [`trajectory_inner`] parser: quotes,
    /// backslashes, square brackets, and control characters become `_`, so a label
    /// like `PR 5 "batch" [wip]` cannot corrupt the committed record.
    pub fn trajectory_entry(&self, date: &str, label: &str) -> String {
        let sanitize = |text: &str| -> String {
            text.chars()
                .map(|c| match c {
                    '"' | '\\' | '[' | ']' => '_',
                    c if c.is_control() => '_',
                    c => c,
                })
                .collect()
        };
        let (date, label) = (sanitize(date), sanitize(label));
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

/// Structural check of the emitted JSON against the mode that produced it: all
/// required keys present, rows for each measured mode, and — whenever a batch row
/// exists — the headline block (item-only runs legitimately have neither).
/// Hand-rolled writer, hand-rolled checker: a malformed record fails CI instead of
/// silently rotting the trajectory.
pub fn schema_check(json: &str, mode: Mode) -> Result<(), String> {
    let mut required = vec![
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
        required.push("\"headline\":");
        required.push("\"mode\": \"batch\"");
    }
    if mode.includes("item") {
        required.push("\"mode\": \"item\"");
    }
    for key in required {
        if !json.contains(key) {
            return Err(format!("BENCH_throughput.json is missing {key}"));
        }
    }
    Ok(())
}

/// Extracts the raw inner text of an existing record's `"trajectory": [...]` array
/// (verbatim entry objects, one per line), so a new recording can carry history
/// forward.  Returns `None` when the file predates the trajectory format.
pub fn trajectory_inner(old_json: &str) -> Option<Vec<String>> {
    let start = old_json.find("\"trajectory\": [")?;
    let open = old_json[start..].find('[')? + start;
    let mut depth = 0usize;
    let mut end = None;
    for (i, c) in old_json[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(open + i);
                    break;
                }
            }
            _ => {}
        }
    }
    let inner = &old_json[open + 1..end?];
    Some(
        inner
            .lines()
            .map(|l| l.trim().trim_end_matches(',').to_string())
            .filter(|l| !l.is_empty())
            .collect(),
    )
}

/// Fails unless the previously recorded trajectory entries are a verbatim,
/// in-order prefix of the new entry list — i.e. a recording may only *append*
/// history, never rewrite or drop it.  `fig_throughput` runs this before
/// overwriting `BENCH_throughput.json`, so a bug (or a tempting hand edit) in the
/// carry-forward path cannot silently erase the PR-over-PR perf record.
pub fn assert_append_only(old_entries: &[String], new_entries: &[String]) -> Result<(), String> {
    if new_entries.len() < old_entries.len() {
        return Err(format!(
            "trajectory shrank from {} to {} entries; recordings must append, never drop",
            old_entries.len(),
            new_entries.len()
        ));
    }
    for (i, (old, new)) in old_entries.iter().zip(new_entries).enumerate() {
        if old != new {
            return Err(format!(
                "trajectory entry {i} was rewritten:\n  recorded: {old}\n  new:      {new}\n\
                 recordings must carry prior entries forward verbatim"
            ));
        }
    }
    Ok(())
}

/// The `countmin` items/sec of the *last* trajectory entry in an existing record —
/// the reference the CI throughput-regression gate compares a fresh measurement
/// against.  `None` when the record predates the trajectory format or the last
/// entry carries no CountMin cell.
pub fn last_trajectory_countmin(old_json: &str) -> Option<f64> {
    let entries = trajectory_inner(old_json)?;
    let last = entries.last()?;
    let idx = last.find("\"countmin\": ")?;
    let rest = &last[idx + "\"countmin\": ".len()..];
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    num.parse().ok()
}

/// Extracts `items_per_sec` of a `(algorithm prefix, tracker, stream prefix)` row
/// from an existing record (rows without a `"mode"` field — the pre-batch-kernel
/// format — are treated as batch rows, which is what `process_stream` measured).
pub fn extract_cell(old_json: &str, algorithm: &str, tracker: &str, stream: &str) -> Option<f64> {
    for line in old_json.lines() {
        if line.contains(&format!("\"algorithm\": \"{algorithm}"))
            && line.contains(&format!("\"tracker\": \"{tracker}\""))
            && line.contains(&format!("\"stream\": \"{stream}"))
            && (!line.contains("\"mode\":") || line.contains("\"mode\": \"batch\""))
        {
            let idx = line.find("\"items_per_sec\": ")?;
            let rest = &line[idx + "\"items_per_sec\": ".len()..];
            let num: String = rest
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            return num.parse().ok();
        }
    }
    None
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

    for &id in CASES {
        let make = spec(id)
            .unwrap_or_else(|| panic!("unknown registry id {id}"))
            .make;
        for (label, universe, stream) in &streams {
            for run_mode in ["batch", "item"] {
                if !mode.includes(run_mode) {
                    continue;
                }
                let mut best = f64::INFINITY;
                let mut state_changes = 0;
                let mut algorithm = String::new();
                // One warm-up + `samples` timed runs, each on a fresh instance.
                for sample in 0..=samples {
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
                        best = best.min(elapsed);
                    }
                    state_changes = alg.report().state_changes;
                    algorithm = alg.name().to_string();
                }
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
        let json = report.to_json(Some(head.items_per_sec / 2.0), std::slice::from_ref(&entry));
        assert!(json.contains("\"speedup_vs_pre_pr\": 2.00"));
        assert!(json.contains("\"experiment\": \"throughput\""));
        assert!(json.contains("\"trajectory\": ["));
        schema_check(&json, Mode::Both).expect("emitted JSON must satisfy the schema");

        // The trajectory round-trips through the carry-forward extractor.
        let carried = trajectory_inner(&json).expect("trajectory array present");
        assert_eq!(carried, vec![entry]);
        // Cells extract from our own format.
        assert!(extract_cell(&json, "CountMin", "full", "zipf").is_some());
        assert_eq!(extract_cell(&json, "NoSuchAlgorithm", "full", "zipf"), None);
    }

    #[test]
    fn single_mode_runs_measure_only_that_mode() {
        let (_, report) = run(Scale::Quick, Mode::Batch, Some(1));
        assert!(report.rows.iter().all(|r| r.mode == "batch"));
        assert_eq!(report.rows.len(), CASES.len() * 3);
        assert_eq!(report.lane_width, 1, "--lanes override is recorded");
        assert!(Mode::parse("nope").is_none());
        assert_eq!(Mode::parse("item"), Some(Mode::Item));
        assert_eq!(Mode::parse("both"), Some(Mode::Both));
    }

    #[test]
    fn item_only_records_satisfy_the_schema_without_a_headline() {
        // An item-only run has no batch rows, hence no headline block; its record is
        // nevertheless valid (regression: schema_check used to demand the headline
        // unconditionally, failing every advertised `--mode item` run).
        let (_, report) = run(Scale::Quick, Mode::Item, None);
        assert!(report.headline().is_none());
        let entry = report.trajectory_entry("2026-01-01", "item-only");
        let json = report.to_json(None, std::slice::from_ref(&entry));
        schema_check(&json, Mode::Item).expect("item-only record must be schema-valid");
        assert!(schema_check(&json, Mode::Both).is_err(), "no batch rows");
    }

    #[test]
    fn trajectory_labels_are_sanitized_for_the_handrolled_writer() {
        let report = Report {
            scale: "Quick",
            samples: 1,
            host_cores: 1,
            lane_width: 8,
            streams: vec![],
            rows: vec![],
        };
        let entry = report.trajectory_entry("2026-01-01", "PR 5 \"batch\" [wip]\\x");
        assert!(entry.contains("PR 5 _batch_ _wip__x"), "entry: {entry}");
        // The sanitized entry survives the write → carry-forward round trip even
        // though the writer and parser are hand-rolled.
        let json = report.to_json(None, std::slice::from_ref(&entry));
        assert_eq!(trajectory_inner(&json), Some(vec![entry]));
    }

    #[test]
    fn divergence_check_catches_a_mismatched_cell() {
        let mk = |mode: &'static str, sc: u64| Row {
            algorithm: "X".into(),
            tracker: "full",
            stream: "zipf".into(),
            mode,
            items: 10,
            best_elapsed_s: 1.0,
            items_per_sec: 10.0,
            state_changes: sc,
        };
        let report = Report {
            scale: "Quick",
            samples: 1,
            host_cores: 1,
            lane_width: 8,
            streams: vec![],
            rows: vec![mk("batch", 5), mk("item", 6)],
        };
        assert!(divergence_check(&report).is_err());
        let ok = Report {
            scale: "Quick",
            samples: 1,
            host_cores: 1,
            lane_width: 8,
            streams: vec![],
            rows: vec![mk("batch", 5), mk("item", 5)],
        };
        assert!(divergence_check(&ok).is_ok());
    }

    #[test]
    fn schema_check_rejects_incomplete_json() {
        assert!(schema_check("{}", Mode::Batch).is_err());
        assert!(schema_check("", Mode::Both).is_err());
    }

    #[test]
    fn append_only_guard_rejects_rewrites_and_drops() {
        let old = vec!["{\"a\": 1}".to_string(), "{\"b\": 2}".to_string()];
        let appended = vec![old[0].clone(), old[1].clone(), "{\"c\": 3}".to_string()];
        assert!(assert_append_only(&old, &appended).is_ok());
        assert!(
            assert_append_only(&old, &old).is_ok(),
            "no-op carry-forward"
        );
        assert!(assert_append_only(&[], &appended).is_ok(), "fresh record");

        let dropped = vec![old[0].clone()];
        assert!(
            assert_append_only(&old, &dropped).is_err(),
            "shrunk history"
        );
        let rewritten = vec![old[0].clone(), "{\"b\": 99}".to_string()];
        assert!(
            assert_append_only(&old, &rewritten).is_err(),
            "rewritten entry"
        );
        let reordered = vec![old[1].clone(), old[0].clone()];
        assert!(assert_append_only(&old, &reordered).is_err(), "reordered");
    }

    #[test]
    fn regression_reference_is_the_last_trajectory_entry() {
        let json = r#"{
  "trajectory": [
    {"date": "2026-07-01", "label": "old", "countmin": 1000000, "ams": 50},
    {"date": "2026-08-01", "label": "new", "countmin": 2000000, "ams": 60}
  ]
}"#;
        assert_eq!(last_trajectory_countmin(json), Some(2_000_000.0));
        assert_eq!(last_trajectory_countmin("{}"), None, "no trajectory");
        let null_cell = r#"{
  "trajectory": [
    {"date": "2026-07-01", "label": "x", "countmin": null}
  ]
}"#;
        assert_eq!(last_trajectory_countmin(null_cell), None, "null cell");
    }

    #[test]
    fn trajectory_extraction_handles_the_pre_trajectory_format() {
        // The PR 3 recording had rows but no trajectory array and no mode field.
        let old = r#"{
  "rows": [
    {"algorithm": "AMS(5x48)", "tracker": "full", "stream": "zipf-1.1", "items": 262144, "best_elapsed_s": 0.791214, "items_per_sec": 331319, "state_changes": 262144}
  ]
}"#;
        assert_eq!(trajectory_inner(old), None);
        assert_eq!(extract_cell(old, "AMS", "full", "zipf"), Some(331319.0));
        assert_eq!(extract_cell(old, "AMS", "lean", "zipf"), None);
    }
}
