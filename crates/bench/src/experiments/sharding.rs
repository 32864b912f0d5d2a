//! Experiment F11 — sharded parallel execution of mergeable summaries.
//!
//! Ingests one Zipfian stream into an [`Engine`] of `S` shards (round-robin routing;
//! the shards drain on worker threads when the host has the cores), merges the shard
//! summaries, and compares the merged answers and total accounting against a serial
//! run of the same summary:
//!
//! * linear sketches (CountMin, CountSketch) merge *exactly* — identical estimates;
//! * counter summaries (Misra-Gries, SpaceSaving) merge within their additive bounds;
//! * total epochs across shards always equal the stream length, and the state-change
//!   counts add across shards (state frugality survives sharding).
//!
//! The first and third points are F11's self-check ([`Row::violation`]):
//! `fig_sharding` exits 1 when either fails.

use std::time::Instant;

use fsc_baselines::{CountMin, CountSketch, MisraGries, SpaceSaving};
use fsc_engine::{Engine, EngineAlgorithm, EngineConfig};
use fsc_state::FrequencyEstimator;
use fsc_streamgen::zipf::zipf_stream;
use fsc_streamgen::FrequencyVector;

use crate::table::{f, Table};
use crate::Scale;

/// Number of shards the experiment uses.
pub const SHARDS: usize = 4;

/// One measured row of the sharding comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Summary name.
    pub name: String,
    /// Whether the summary is a linear sketch, whose sharded merge must be exact.
    pub linear: bool,
    /// Stream length.
    pub items: u64,
    /// Serial state changes.
    pub serial_state_changes: u64,
    /// Sum of per-shard state changes (excluding the merge epoch).
    pub sharded_state_changes: u64,
    /// Sum of per-shard epochs ([`Engine::report`]); equals `items` when every item
    /// reached exactly one shard.
    pub sharded_epochs: u64,
    /// Largest |merged − serial| estimate difference over the query items.
    pub max_estimate_diff: f64,
    /// Serial wall-clock for the stream pass, in milliseconds.
    pub serial_ms: f64,
    /// Sharded wall-clock for the engine ingest plus merge, in milliseconds.
    pub sharded_ms: f64,
}

impl Row {
    /// What this row breaks of F11's self-check, if anything: a linear sketch whose
    /// merged estimates differ from the serial run, or shard epochs that do not add
    /// up to the stream length.
    pub fn violation(&self) -> Option<String> {
        if self.linear && self.max_estimate_diff != 0.0 {
            return Some(format!(
                "{}: merged estimate differs from the serial run by {}",
                self.name, self.max_estimate_diff
            ));
        }
        if self.sharded_epochs != self.items {
            return Some(format!(
                "{}: shards report {} epochs for {} items",
                self.name, self.sharded_epochs, self.items
            ));
        }
        None
    }

    /// Wall-clock speedup of the sharded pass over the serial pass.
    pub fn speedup(&self) -> f64 {
        if self.sharded_ms > 0.0 {
            self.serial_ms / self.sharded_ms
        } else {
            0.0
        }
    }
}

fn compare<A>(
    name: &str,
    linear: bool,
    stream: &[u64],
    candidates: &[u64],
    make: impl Fn() -> A,
) -> Row
where
    A: EngineAlgorithm + FrequencyEstimator,
{
    let start = Instant::now();
    let mut serial = make();
    serial.process_batch(stream);
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;

    // Every shard is built by the same constructor: linear sketches need identical
    // hash functions for the merge to be exact.
    let start = Instant::now();
    let config = EngineConfig {
        shards: SHARDS,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(config, |_| make());
    engine.ingest(stream);
    let merged = engine
        .merged_summary()
        .expect("shards built by one constructor merge");
    let sharded_ms = start.elapsed().as_secs_f64() * 1e3;

    let max_estimate_diff = candidates
        .iter()
        .map(|&c| (merged.estimate(c) - serial.estimate(c)).abs())
        .fold(0.0, f64::max);
    let report = engine.report();
    Row {
        name: name.to_string(),
        linear,
        items: stream.len() as u64,
        serial_state_changes: serial.report().state_changes,
        sharded_state_changes: report.state_changes,
        sharded_epochs: report.epochs,
        max_estimate_diff,
        serial_ms,
        sharded_ms,
    }
}

/// Runs the sharding comparison and returns the rows.
pub fn run(scale: Scale) -> (Table, Vec<Row>) {
    let n = scale.pick(1 << 12, 1 << 16);
    let m = scale.pick(8, 16) * n;
    let stream = zipf_stream(n, m, 1.1, 77);
    let truth = FrequencyVector::from_stream(&stream);
    let candidates: Vec<u64> = truth.top_k(64).into_iter().map(|(i, _)| i).collect();
    let k = 256;
    let (width, depth, sketch_seed) = (scale.pick(512, 2048), 4, 1234);

    // Serial baseline and shards both run on the exact tracker, so the wall-clock
    // columns compare equal accounting work and isolate sharding itself.
    let rows = vec![
        compare("CountMin", true, &stream, &candidates, || {
            CountMin::new(width, depth, sketch_seed)
        }),
        compare("CountSketch", true, &stream, &candidates, || {
            CountSketch::new(width, depth + 1, sketch_seed)
        }),
        compare("MisraGries", false, &stream, &candidates, || {
            MisraGries::new(k)
        }),
        compare("SpaceSaving", false, &stream, &candidates, || {
            SpaceSaving::new(k)
        }),
    ];

    let mut table = Table::new(
        &format!(
            "Sharding — merged vs serial summaries, Zipf(1.1), n = {n}, m = {m}, {SHARDS} shards"
        ),
        &[
            "summary",
            "serial changes",
            "sharded changes",
            "max abs Δestimate",
            "serial ms",
            "sharded ms",
            "speedup",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.name.clone(),
            r.serial_state_changes.to_string(),
            r.sharded_state_changes.to_string(),
            f(r.max_estimate_diff),
            f(r.serial_ms),
            f(r.sharded_ms),
            f(r.speedup()),
        ]);
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_merges_are_exact_and_counter_merges_are_bounded() {
        let (table, rows) = run(Scale::Quick);
        assert_eq!(rows.len(), 4);
        assert!(!table.is_empty());
        let m = Scale::Quick.pick(8, 16) * (1 << 12) as usize;
        for r in &rows[..2] {
            assert!(r.linear);
            assert_eq!(
                r.max_estimate_diff, 0.0,
                "{} is a linear sketch: sharded merge must be exact",
                r.name
            );
        }
        // Counter summaries: the merged estimate may differ from the serial run, but
        // both carry the same additive guarantee; at quick scale the top items should
        // stay within the m/(k+1)-style bound of each other (twice the one-sided bound).
        for r in &rows[2..] {
            assert!(
                r.max_estimate_diff <= 2.0 * m as f64 / 257.0,
                "{}: merged vs serial diff {} exceeds the additive bound",
                r.name,
                r.max_estimate_diff
            );
        }
        for r in &rows {
            assert!(
                r.sharded_state_changes > 0 && r.serial_state_changes > 0,
                "accounting must survive sharding"
            );
            assert_eq!(r.sharded_epochs, m as u64, "{}: one epoch per item", r.name);
            assert_eq!(r.violation(), None);
        }
    }
}
