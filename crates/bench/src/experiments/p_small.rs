//! Experiment F10 — `F_p` estimation for `p < 1` (Theorem 3.2): accuracy and word
//! writes of the p-stable sketch with geometric accumulators, against the write count
//! an exact-accumulator sketch of the same dimensions would incur.

use fsc::FpSmallEstimator;
use fsc_state::{MomentEstimator, StreamAlgorithm};
use fsc_streamgen::zipf::zipf_stream;
use fsc_streamgen::FrequencyVector;

use crate::table::{f, Table};
use crate::Scale;

/// One `p < 1` measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Moment order `p`.
    pub p: f64,
    /// Relative error of the estimate.
    pub rel_error: f64,
    /// Measured word writes of the approximate sketch.
    pub word_writes: u64,
    /// Word writes an exact sketch of the same dimensions would perform (`rows · m`).
    pub exact_sketch_writes: u64,
}

/// Runs the `p < 1` sweep serially.
pub fn run(scale: Scale) -> (Table, Vec<Row>) {
    run_with_threads(scale, 1)
}

/// Runs the `p < 1` sweep with up to `threads` worker threads (rows are deterministic
/// per cell, so output is identical at every thread count).
pub fn run_with_threads(scale: Scale, threads: usize) -> (Table, Vec<Row>) {
    let n = scale.pick(1 << 10, 1 << 12);
    let m = 8 * n;
    let stream = zipf_stream(n, m, 1.0, 777);
    let truth = FrequencyVector::from_stream(&stream);
    let ps = [0.25, 0.5, 0.75];
    let eps = 0.3;

    // Each p-cell is an independent deterministic computation, so the sweep spreads
    // over its own worker threads when asked (these are in addition to any workers the
    // caller holds — `run_all` accepts the modest oversubscription).
    let rows = crate::parallel_map(
        ps.iter().copied().enumerate().collect(),
        threads,
        |_, (idx, p)| {
            let exact = truth.fp(p);
            let mut est = FpSmallEstimator::new(p, eps, 10 + idx as u64);
            est.process_stream(&stream);
            let rel_error = (est.estimate_moment() - exact).abs() / exact;
            let report = est.report();
            let exact_sketch_writes = (est.rows() * m) as u64;
            Row {
                p,
                rel_error,
                word_writes: report.word_writes,
                exact_sketch_writes,
            }
        },
    );

    let mut table = Table::new(
        &format!("F10 — F_p estimation for p < 1 (n = {n}, m = {m}, eps = {eps})"),
        &[
            "p",
            "rel. error",
            "word writes (ours)",
            "word writes (exact sketch)",
            "reduction",
        ],
    );
    for r in &rows {
        table.row(vec![
            f(r.p),
            f(r.rel_error),
            r.word_writes.to_string(),
            r.exact_sketch_writes.to_string(),
            f(r.exact_sketch_writes as f64 / r.word_writes.max(1) as f64),
        ]);
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_are_accurate_with_far_fewer_writes() {
        let (_, rows) = run(Scale::Quick);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.rel_error < 0.45, "p={} error {}", row.p, row.rel_error);
            assert!(
                row.word_writes * 5 < row.exact_sketch_writes,
                "p={}: writes {} vs exact sketch {}",
                row.p,
                row.word_writes,
                row.exact_sketch_writes
            );
        }
    }
}
