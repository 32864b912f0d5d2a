//! Regenerates experiment F6: the Section 1.4 counterexample stream.

fn main() {
    let scale = fsc_bench::cli::from_env(&["--quick"], |args| Ok(args.scale()));
    let (table, _) = fsc_bench::experiments::counterexample::run(scale);
    table.print();
}
