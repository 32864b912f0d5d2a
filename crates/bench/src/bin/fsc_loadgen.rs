//! The standalone load generator / control client for `fsc_serve`.
//!
//! ```text
//! cargo run -p fsc-bench --release --bin fsc_loadgen -- --addr 127.0.0.1:7070
//! ... fsc_loadgen -- --addr 127.0.0.1:7070 --connections 4 --batches 100 --batch-size 512
//! ... fsc_loadgen -- --addr 127.0.0.1:7070 --algorithm space_saving --shards 4
//! ... fsc_loadgen -- --addr 127.0.0.1:7070 --status     # durability/recovery report
//! ... fsc_loadgen -- --addr 127.0.0.1:7070 --shutdown   # graceful server stop
//! ```
//!
//! Each connection runs its own tenant (`lg-<i>`) and ingests sequence-numbered
//! batches with per-request timeouts, bounded retries, and jittered exponential
//! backoff; the report prints acknowledged-item throughput, p50/p99 ingest
//! latency, and the resilience counters (retries, reconnects, duplicate acks —
//! all zero against a healthy server).  With `--status` the client asks the
//! server for its durability mode and per-tenant recovery/journal counts, and
//! exits non-zero if any tenant failed recovery, discarded chain entries, or
//! truncated journal damage — a one-command health check after a restart.
//! With `--shutdown` the run (if any batches were requested) is followed by
//! the `Shutdown` control frame, which checkpoints every tenant and stops the
//! server.

use std::net::{SocketAddr, ToSocketAddrs};

use fsc_bench::cli;
use fsc_serve::{Client, ClientConfig, LoadGen};

fn main() {
    let spec = &[
        "--addr <host:port>",
        "--connections <n>",
        "--batches <n>",
        "--batch-size <n>",
        "--algorithm <id>",
        "--shards <n>",
        "--universe <n>",
        "--seed <n>",
        "--status",
        "--shutdown",
    ];
    let (addr, gen, status, shutdown) = cli::from_env(spec, |args| {
        let shutdown = args.flag("--shutdown");
        let gen = LoadGen {
            connections: args.value("--connections")?.unwrap_or(2),
            batches: args
                .value("--batches")?
                .unwrap_or(if shutdown { 0 } else { 50 }),
            batch_size: args.value("--batch-size")?.unwrap_or(256),
            algorithm: args
                .value("--algorithm")?
                .unwrap_or_else(|| "count_min".to_string()),
            shards: args.value("--shards")?.unwrap_or(2),
            universe: args.value("--universe")?.unwrap_or(1 << 12),
            seed: args.value("--seed")?.unwrap_or(1),
            client: ClientConfig::default(),
        };
        let addr: String = args
            .value("--addr")?
            .unwrap_or_else(|| "127.0.0.1:7070".to_string());
        Ok((addr, gen, args.flag("--status"), shutdown))
    });
    let addr: SocketAddr = match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(resolved) => resolved,
        None => {
            eprintln!("error: cannot resolve {addr}");
            std::process::exit(1);
        }
    };

    if gen.batches > 0 {
        println!(
            "load: {} connection(s) × {} batch(es) × {} item(s) of {:?} against {addr}",
            gen.connections, gen.batches, gen.batch_size, gen.algorithm
        );
        let report = gen.run(addr);
        println!(
            "done: {} items in {:.3} s = {:.0} items/s ({} applied + {} duplicate batches)",
            report.items,
            report.elapsed.as_secs_f64(),
            report.items_per_sec(),
            report.applied_batches,
            report.duplicate_batches
        );
        println!(
            "latency: p50 {} µs, p99 {} µs; resilience: {} retries, {} reconnects, \
             {} overloaded, {} duplicate acks",
            report.p50.as_micros(),
            report.p99.as_micros(),
            report.counters.retries,
            report.counters.reconnects,
            report.counters.overloaded,
            report.counters.duplicate_acks
        );
        for e in &report.errors {
            eprintln!("error: {e}");
        }
        if !report.errors.is_empty() {
            std::process::exit(1);
        }
    }

    if status {
        let mut client = Client::new(addr, ClientConfig::default());
        let status = match client.status() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: status: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "server: {}, group commit {}, {} tenant(s), {} failed recovery",
            status.durability,
            status.group_commit,
            status.tenants.len(),
            status.failed_tenants
        );
        let mut unhealthy = status.failed_tenants > 0;
        for t in &status.tenants {
            println!(
                "  {}: next_seq {}, {}{} chain deltas applied, {} discarded; journal: \
                 {} record(s) / {} B live, {} batch(es) replayed, {} B truncated",
                t.tenant,
                t.next_seq,
                if t.recovered { "recovered, " } else { "" },
                t.chain_applied,
                t.chain_discarded,
                t.wal_records,
                t.wal_bytes,
                t.wal_replayed,
                t.wal_truncated_bytes
            );
            unhealthy |= t.chain_discarded > 0 || t.wal_truncated_bytes > 0;
        }
        if unhealthy {
            eprintln!(
                "error: at least one tenant failed recovery, discarded chain entries, \
                 or truncated journal damage"
            );
            std::process::exit(1);
        }
    }

    if shutdown {
        let mut client = Client::new(addr, ClientConfig::default());
        match client.shutdown() {
            Ok(()) => println!("server checkpointed all tenants and stopped"),
            Err(e) => {
                eprintln!("error: shutdown: {e}");
                std::process::exit(1);
            }
        }
    }
}
