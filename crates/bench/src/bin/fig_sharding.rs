//! Regenerates experiment F11: sharded merged summaries vs serial runs.
//!
//! Exits 1 when a linear sketch's merged estimates differ from the serial run or the
//! shards' epochs do not add up to the stream length (see `Row::violation`).

fn main() {
    let scale = fsc_bench::cli::from_env(&["--quick"], |args| Ok(args.scale()));
    let (table, rows) = fsc_bench::experiments::sharding::run(scale);
    table.print();
    for r in &rows {
        println!(
            "{}: {} shards, wall-clock speedup {:.2}x",
            r.name,
            fsc_bench::experiments::sharding::SHARDS,
            r.speedup()
        );
    }
    let violations: Vec<String> = rows.iter().filter_map(|r| r.violation()).collect();
    for v in &violations {
        eprintln!("error: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
