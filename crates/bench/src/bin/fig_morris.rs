//! Regenerates experiment F7: Morris counter accuracy and state changes.

fn main() {
    let scale = fsc_bench::cli::from_env(&["--quick"], |args| Ok(args.scale()));
    let (table, _) = fsc_bench::experiments::morris::run(scale);
    table.print();
}
