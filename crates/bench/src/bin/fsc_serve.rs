//! The standalone `fsc-serve` server over the full algorithm registry.
//!
//! ```text
//! cargo run -p fsc-bench --release --bin fsc_serve -- --data-dir /tmp/fsc-data
//! ... fsc_serve -- --addr 127.0.0.1:7070 --data-dir /tmp/fsc-data
//! ... fsc_serve -- --data-dir /tmp/fsc-data --max-inflight 128
//! ... fsc_serve -- --data-dir /tmp/fsc-data --durable          # fsync every ack
//! ... fsc_serve -- --data-dir /tmp/fsc-data --group-commit 16  # relaxed fsync window
//! ```
//!
//! Binds the address (an ephemeral port if `--addr` ends in `:0`), recovers
//! every tenant directory found under the data dir (printing the typed
//! recovery report), and serves until a client sends the `Shutdown` control
//! frame (e.g. `fsc_loadgen -- --shutdown`), which checkpoints every tenant
//! before stopping.  Killing the process instead is the crash path the
//! fault-matrix drills cover: the next start restores the checkpointed chain
//! prefix and replays every acked batch out of the write-ahead journal.  With
//! `--durable` the journal append is fsynced before every ack, so acked
//! batches survive power loss too; the default relaxed mode batches fsyncs
//! every `--group-commit` appends.

use fsc_bench::cli;
use fsc_bench::registry::serve_factory;
use fsc_serve::{Durability, Server, ServerConfig};

fn main() {
    let spec = &[
        "--addr <host:port>",
        "--data-dir <dir>",
        "--max-inflight <n>",
        "--durable",
        "--group-commit <n>",
    ];
    let (addr, data_dir, config) = cli::from_env(spec, |args| {
        let data_dir: String = args
            .value("--data-dir")?
            .unwrap_or_else(|| "fsc-serve-data".into());
        let durability = if args.flag("--durable") {
            Durability::AckAfterDurable
        } else {
            Durability::AckAfterApply
        };
        let config = ServerConfig::new(&data_dir)
            .with_max_inflight_ingest(args.value("--max-inflight")?.unwrap_or(64))
            .with_durability(durability)
            .with_group_commit(args.value("--group-commit")?.unwrap_or(8));
        let addr = args.value("--addr")?;
        Ok((
            addr.unwrap_or_else(|| "127.0.0.1:7070".to_string()),
            data_dir,
            config,
        ))
    });
    let (server, recovery) = match Server::start(&addr, config.clone(), serve_factory()) {
        Ok(started) => started,
        Err(e) => {
            eprintln!("error: binding {addr}: {e}");
            std::process::exit(1);
        }
    };
    if recovery.tenants.is_empty() {
        println!("recovery: fresh data dir, no tenants");
    } else {
        println!("recovery: {recovery}");
    }
    if recovery.failed() > 0 {
        eprintln!(
            "warning: {} tenant(s) failed recovery and are offline (isolation: \
             the rest are serving)",
            recovery.failed()
        );
    }
    println!(
        "serving on {} (data dir {data_dir}, ingest admission bound {}, {}, group commit {})",
        server.addr(),
        config.max_inflight_ingest,
        config.durability,
        config.group_commit
    );
    println!(
        "stop with a client Shutdown frame, e.g.: fsc_loadgen -- --addr {} --shutdown",
        server.addr()
    );
    server.join();
    println!("shutdown frame received: all tenants checkpointed, stopped");
}
