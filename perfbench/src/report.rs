//! Named metrics and the result line.

use crate::stats::{label, Sample};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `latency_p50_us`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `us`.
    pub unit: &'static str,
    /// Sample count or derivation, printed beside the value.
    pub note: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str, note: String) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            note,
        }
    }

    /// The highest percentile of `sample` that has at least ten samples
    /// beyond it, named after that percentile.
    pub fn tail(what: &str, sample: &Sample, unit: &'static str) -> Self {
        let n = sample.len();
        match sample.tail() {
            Some((bp, value)) => Self::new(
                &format!("{what} {}", label(bp)),
                value,
                unit,
                format!("n = {n}; highest percentile with at least 10 samples beyond it"),
            ),
            None => Self::new(
                &format!("{what} p50"),
                sample.p50().unwrap_or(0.0),
                unit,
                format!("n = {n}; too few samples for any tail"),
            ),
        }
    }
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics of the result line: every end-to-end metric of an untraced
    /// run, every per-layer metric of a traced one.
    pub gated: Vec<Metric>,
    /// Further metrics printed by name only.
    pub shown: Vec<Metric>,
    /// Requests (or kernel batches) attempted.
    pub attempted: u64,
    /// Attempts that failed, were refused, or were retried.
    pub failed: u64,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .gated
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
