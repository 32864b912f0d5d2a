//! Regenerates experiment F2: space scaling of the F_p estimator.

fn main() {
    let scale = fsc_bench::cli::from_env(&["--quick"], |args| Ok(args.scale()));
    let (_, space_table, series) = fsc_bench::experiments::scaling::run(scale);
    space_table.print();
    for s in series {
        println!(
            "p = {:.1}: fitted space slope {:.3} (theory {:.3})",
            s.p,
            s.space_slope,
            (1.0 - 2.0 / s.p).max(0.0)
        );
    }
}
