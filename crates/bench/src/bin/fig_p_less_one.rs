//! Regenerates experiment F10: F_p estimation for p < 1.

fn main() {
    let scale = fsc_bench::cli::from_env(&["--quick"], |args| Ok(args.scale()));
    let (table, _) = fsc_bench::experiments::p_small::run(scale);
    table.print();
}
