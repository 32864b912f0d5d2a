//! # fsc-bench — experiment harness
//!
//! One module per table/figure of the paper (see `DESIGN.md`, Section 5 for the
//! experiment index and `EXPERIMENTS.md` for recorded results).  Every experiment is a
//! plain function that returns its rows as data and prints a markdown table, so it can
//! be invoked from the corresponding `src/bin/*.rs` binary, from `run_all`, or from a
//! test at a reduced scale.
//!
//! Run an individual experiment with e.g.
//! `cargo run -p fsc-bench --release --bin table1`, or everything with
//! `cargo run -p fsc-bench --release --bin run_all`.  Pass `--quick` for a reduced
//! problem size (used in CI and in the crate tests).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod record;
pub mod registry;
pub mod table;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Problem-size profile shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes for tests / CI smoke runs (seconds).
    Quick,
    /// The sizes recorded in `EXPERIMENTS.md` (minutes).
    Full,
}

impl Scale {
    /// Picks between the quick and full value.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Applies `f` to every item on up to `threads` worker threads, preserving input order
/// in the output.  Work is claimed dynamically (an atomic cursor over the item list),
/// so heterogeneous item durations — experiment cells — still balance.
///
/// With `threads <= 1` this runs inline on the calling thread with no thread or lock
/// overhead, so callers can pass the user's `--threads` value straight through.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each slot is claimed exactly once");
                let result = f(i, item);
                *results[i].lock().unwrap() = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("worker stored a result for every claimed slot")
        })
        .collect()
}

/// Least-squares slope of `ln(y)` against `ln(x)` — used to verify scaling exponents
/// such as the `n^{1−1/p}` state-change growth of Theorem 1.3.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return 0.0;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_a_power_law_is_recovered() {
        let pts: Vec<(f64, f64)> = (1..=8)
            .map(|i| {
                let x = 2f64.powi(i);
                (x, 3.0 * x.powf(0.5))
            })
            .collect();
        assert!((log_log_slope(&pts) - 0.5).abs() < 1e-9);
        assert_eq!(log_log_slope(&[(1.0, 1.0)]), 0.0);
    }

    #[test]
    fn parallel_map_preserves_order_and_runs_everything() {
        let squares = parallel_map((0..100u64).collect(), 8, |_, x| x * x);
        assert_eq!(squares, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
        let inline = parallel_map(vec![1, 2, 3], 1, |i, x| (i, x));
        assert_eq!(inline, vec![(0, 1), (1, 2), (2, 3)]);
        assert!(parallel_map(Vec::<u64>::new(), 4, |_, x| x).is_empty());
    }

    #[test]
    fn scale_pick_selects_the_right_value() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
