//! Regenerates Table 1 of the paper (experiment T1 in DESIGN.md).

fn main() {
    let scale = fsc_bench::cli::from_env(&["--quick"], |args| Ok(args.scale()));
    let (table, _) = fsc_bench::experiments::table1::run(scale);
    table.print();
}
