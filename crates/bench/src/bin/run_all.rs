//! Runs every experiment in DESIGN.md order and prints all tables.
//!
//! `cargo run -p fsc-bench --release --bin run_all`            — full scale (minutes)
//! `cargo run -p fsc-bench --release --bin run_all -- --quick` — reduced scale
//! `... run_all -- --quick --threads 4`                        — parallel experiment cells
//!
//! `--threads N` runs independent experiment cells on up to `N` worker threads (via
//! [`fsc_bench::parallel_map`]); a missing, non-numeric or zero `N` exits with
//! status 2.  Every experiment is a deterministic function of its seeds, so the
//! output is identical at every thread count; only the wall-clock changes.  Tables
//! stream out progressively in DESIGN.md order: each table prints as soon as it and
//! every earlier table have finished.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::Mutex;

use fsc_bench::{cli, experiments, parallel_map};

/// One experiment cell: deferred work producing its rendered output.
type Cell = Box<dyn FnOnce() -> String + Send>;

fn main() {
    let (scale, threads) = cli::from_env(&["--quick", "--threads <n>"], |args| {
        let threads = args.value("--threads")?.map_or(1, NonZeroUsize::get);
        Ok((args.scale(), threads))
    });
    println!("# Few State Changes — experiment suite ({scale:?} scale, {threads} thread(s))\n");

    let cells: Vec<Cell> = vec![
        Box::new(move || experiments::table1::run(scale).0.render()),
        Box::new(move || {
            let (f1, f2, series) = experiments::scaling::run(scale);
            let mut out = f1.render();
            for s in &series {
                out.push_str(&format!(
                    "p = {:.1}: fitted state-change slope {:.3} (theory {:.3})\n",
                    s.p, s.state_slope, s.predicted_state_slope
                ));
            }
            out.push_str(&f2.render());
            out
        }),
        // The two heaviest sweeps additionally parallelise their own grid cells with
        // their own workers (briefly oversubscribing `--threads` while they run — the
        // cells are compute-bound and deterministic, so only scheduling is affected).
        Box::new(move || {
            experiments::accuracy::run_with_threads(scale, threads)
                .0
                .render()
        }),
        Box::new(move || experiments::heavy_hitters::run(scale).0.render()),
        Box::new(move || experiments::lower_bound::run(scale).0.render()),
        Box::new(move || experiments::counterexample::run(scale).0.render()),
        Box::new(move || experiments::morris::run(scale).0.render()),
        Box::new(move || experiments::entropy::run(scale).0.render()),
        Box::new(move || experiments::nvm::run(scale).0.render()),
        Box::new(move || {
            experiments::p_small::run_with_threads(scale, threads)
                .0
                .render()
        }),
        Box::new(move || experiments::sharding::run(scale).0.render()),
        Box::new(move || experiments::engine::run(scale).0.render()),
        Box::new(move || experiments::recovery::cadence_sweep(scale).0.render()),
    ];

    // Print progressively: finished cells are buffered only until every earlier cell
    // (in DESIGN.md order) has printed, so a long full-scale run shows output as it
    // goes instead of staying silent until the slowest cell ends.
    let printer: Mutex<(usize, BTreeMap<usize, String>)> = Mutex::new((0, BTreeMap::new()));
    parallel_map(cells, threads, |index, cell| {
        let output = cell();
        // Tolerate a poisoned lock (e.g. a sibling worker hit a broken pipe while
        // printing): the buffer is still consistent, each index is written once.
        let mut guard = printer.lock().unwrap_or_else(|p| p.into_inner());
        let (next, pending) = &mut *guard;
        pending.insert(index, output);
        while let Some(ready) = pending.remove(next) {
            println!("{ready}");
            *next += 1;
        }
    });
}
