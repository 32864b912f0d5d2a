//! Regenerates experiment F1: state-change scaling of the F_p estimator.

fn main() {
    let scale = fsc_bench::cli::from_env(&["--quick"], |args| Ok(args.scale()));
    let (state_table, _, series) = fsc_bench::experiments::scaling::run(scale);
    state_table.print();
    for s in series {
        println!(
            "p = {:.1}: fitted state-change slope {:.3} (theory {:.3})",
            s.p, s.state_slope, s.predicted_state_slope
        );
    }
}
