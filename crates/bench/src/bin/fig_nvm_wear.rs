//! Regenerates experiment F9: simulated NVM write energy and wear.

fn main() {
    let scale = fsc_bench::cli::from_env(&["--quick"], |args| Ok(args.scale()));
    let (table, _) = fsc_bench::experiments::nvm::run(scale);
    table.print();
}
