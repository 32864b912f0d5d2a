//! Regenerates experiment F4: heavy-hitter quality vs classic summaries.

fn main() {
    let scale = fsc_bench::cli::from_env(&["--quick"], |args| Ok(args.scale()));
    let (table, _) = fsc_bench::experiments::heavy_hitters::run(scale);
    table.print();
}
