//! Regenerates experiment F8: entropy estimation across stream skews.

fn main() {
    let scale = fsc_bench::cli::from_env(&["--quick"], |args| Ok(args.scale()));
    let (table, _) = fsc_bench::experiments::entropy::run(scale);
    table.print();
}
