//! Experiment F3 — accuracy of the `F_p` estimator versus `ε` (Theorem 1.3's
//! `(1±ε)` guarantee), with the AMS sketch as the classic write-heavy reference for
//! `p = 2`.

use fsc::{FpEstimator, Params};
use fsc_baselines::AmsSketch;
use fsc_state::{MomentEstimator, StreamAlgorithm};
use fsc_streamgen::zipf::zipf_stream;
use fsc_streamgen::FrequencyVector;

use crate::parallel_map;
use crate::table::{f, Table};
use crate::Scale;

/// One measured accuracy point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Moment order.
    pub p: f64,
    /// Target accuracy `ε`.
    pub eps: f64,
    /// Measured relative error of the few-state-changes estimator (median of repeats).
    pub rel_error: f64,
    /// Its measured state changes.
    pub state_changes: u64,
    /// Relative error of the AMS reference (only for `p = 2`).
    pub ams_rel_error: Option<f64>,
    /// State changes of the AMS reference (only for `p = 2`).
    pub ams_state_changes: Option<u64>,
}

/// Runs the accuracy sweep serially.
pub fn run(scale: Scale) -> (Table, Vec<Row>) {
    run_with_threads(scale, 1)
}

/// Runs the accuracy sweep with up to `threads` worker threads.  Each `(p, ε)` grid
/// cell is an independent deterministic computation (own estimator, own seeds), so the
/// rows — and therefore the table — are identical at every thread count.
pub fn run_with_threads(scale: Scale, threads: usize) -> (Table, Vec<Row>) {
    let n = scale.pick(1 << 12, 1 << 14);
    let m = 4 * n;
    let repeats = scale.pick(1, 3);
    let eps_values = [0.1, 0.2, 0.3];
    let ps = [1.0, 2.0, 3.0];
    let stream = zipf_stream(n, m, 1.2, 77);
    let truth = FrequencyVector::from_stream(&stream);

    let grid: Vec<(f64, f64)> = ps
        .iter()
        .flat_map(|&p| eps_values.iter().map(move |&eps| (p, eps)))
        .collect();
    let rows = parallel_map(grid, threads, |_, (p, eps)| {
        let exact = truth.fp(p);
        let mut errors = Vec::new();
        let mut changes = Vec::new();
        for rep in 0..repeats {
            let mut est = FpEstimator::new(Params::new(p, eps, n, m).with_seed(900 + rep as u64));
            est.process_stream(&stream);
            errors.push((est.estimate_moment() - exact).abs() / exact);
            changes.push(est.report().state_changes);
        }
        errors.sort_by(f64::total_cmp);
        let rel_error = errors[errors.len() / 2];
        let state_changes = changes[changes.len() / 2];

        let (ams_rel_error, ams_state_changes) = if (p - 2.0).abs() < 1e-9 {
            let mut ams = AmsSketch::for_error(eps, 0.1, 5);
            ams.process_stream(&stream);
            (
                Some((ams.estimate_moment() - exact).abs() / exact),
                Some(ams.report().state_changes),
            )
        } else {
            (None, None)
        };

        Row {
            p,
            eps,
            rel_error,
            state_changes,
            ams_rel_error,
            ams_state_changes,
        }
    });

    let mut table = Table::new(
        &format!("F3 — relative error of F_p estimation (Zipf 1.2, n = {n}, m = {m})"),
        &[
            "p",
            "eps",
            "rel. error (ours)",
            "state changes (ours)",
            "rel. error (AMS)",
            "state changes (AMS)",
        ],
    );
    for r in &rows {
        table.row(vec![
            f(r.p),
            f(r.eps),
            f(r.rel_error),
            r.state_changes.to_string(),
            r.ams_rel_error.map(f).unwrap_or_else(|| "-".into()),
            r.ams_state_changes
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_bounded_and_ams_writes_more() {
        let (_, rows) = run(Scale::Quick);
        assert_eq!(rows.len(), 9);
        for row in &rows {
            assert!(
                row.rel_error < 2.0 * row.eps + 0.15,
                "p={} eps={} error {}",
                row.p,
                row.eps,
                row.rel_error
            );
            if let Some(ams_changes) = row.ams_state_changes {
                assert!(row.state_changes < ams_changes);
            }
        }
    }
}
