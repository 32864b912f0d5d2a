//! Regenerates experiment F3: accuracy of F_p estimation vs ε.

fn main() {
    let scale = fsc_bench::cli::from_env(&["--quick"], |args| Ok(args.scale()));
    let (table, _) = fsc_bench::experiments::accuracy::run(scale);
    table.print();
}
