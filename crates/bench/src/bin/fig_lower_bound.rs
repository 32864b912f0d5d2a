//! Regenerates experiment F5: the state-change lower bound phase transition.

fn main() {
    let scale = fsc_bench::cli::from_env(&["--quick"], |args| Ok(args.scale()));
    let (table, _) = fsc_bench::experiments::lower_bound::run(scale);
    table.print();
}
