//! Fault-drill walkthrough: crash → recover on a real TCP server, in both
//! durability modes, end to end.
//!
//! **Section A — the journal closes the crash gap.**  A server in the default
//! relaxed mode ingests sequence-numbered batches, checkpoints partway, and is
//! killed by a `Crash` frame holding batches that were acked but never
//! checkpointed (no shutdown sweep — exactly what `kill -9` would do).  A
//! restart on the same data dir restores the checkpointed prefix from the
//! delta chain, replays the acked suffix out of the write-ahead journal, and
//! answers *exactly* like a twin engine that saw every acked batch — no
//! client-side replay at all, duplicate re-sends refused.
//!
//! **Section B — durable mode survives the ingest path dying mid-write.**  A
//! server in `AckAfterDurable` mode (journal fsynced before every ack) has a
//! seeded fault kill it *inside* the write path of one ingest — after some
//! batches were acked, before the victim is.  The restart holds exactly the
//! acked prefix; the client re-sends from its own cursor and converges.
//!
//! The same loops, with torn journal appends, corrupt records, and simulated
//! power loss layered in, are what the `recovery_laws` suite drills in CI
//! (`durable_mode_loses_no_acked_batch_at_any_crash_point` and
//! `relaxed_power_loss_is_bounded_by_the_group_commit_window`).
//!
//! Run with: `cargo run --release --example fault_drill`

use fsc_bench::registry::serve_factory;
use fsc_serve::faults::splitmix64;
use fsc_serve::{Client, ClientConfig, CrashPoint, Durability, FaultPlan, Server, ServerConfig};

use few_state_changes::engine::{DynEngine, EngineConfig};
use few_state_changes::state::{Answer, Query};

const ALGORITHM: &str = "count_min";
const SHARDS: u32 = 2;
const BATCHES: usize = 6;
const CHECKPOINTED: usize = 4; // batches checkpointed into the chain before the crash
const BATCH: usize = 256;

/// Deterministic drill traffic: same seed on the wire and in the twins.
fn batches() -> Vec<Vec<u64>> {
    let mut rng = 0x000D_2111_u64;
    (0..BATCHES)
        .map(|_| {
            (0..BATCH)
                .map(|_| splitmix64(&mut rng) % (1 << 10))
                .collect()
        })
        .collect()
}

/// Point mass across the hot end of the universe, plus the second moment.
fn probes() -> Vec<Query> {
    let mut out: Vec<Query> = (0..24).map(Query::Point).collect();
    out.push(Query::Moment);
    out
}

/// The local twin: same registry constructor table, same config the server
/// uses for the tenant — so equality below is byte-level, not approximate.
fn twin_answers(prefix: &[Vec<u64>]) -> Vec<Answer> {
    let config = EngineConfig {
        shards: SHARDS as usize,
        ..EngineConfig::default()
    };
    let mut engine: Box<dyn DynEngine> =
        serve_factory()(ALGORITHM, config).expect("registry builds count_min");
    for batch in prefix {
        engine.ingest(batch);
    }
    probes()
        .iter()
        .map(|q| engine.query_fresh(q).expect("twin answers probes"))
        .collect()
}

fn served_answers(client: &mut Client) -> Vec<Answer> {
    probes()
        .iter()
        .map(|q| client.query("drill", *q).expect("served probe"))
        .collect()
}

/// Section A: process kill in the relaxed default — chain prefix + journal
/// suffix recover every acked batch, nothing to replay.
fn drill_process_kill(batches: &[Vec<u64>]) {
    let dir = std::env::temp_dir().join(format!("fsc-fault-drill-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // `with_crash_frame` arms the drill-only `Crash` request; a production
    // server leaves it disarmed and this step is a plain `kill -9`.
    let config = ServerConfig::new(&dir).with_faults(FaultPlan::none().with_crash_frame());
    let (server, _) = Server::start("127.0.0.1:0", config, serve_factory()).unwrap();
    let mut client = Client::new(server.addr(), ClientConfig::default());
    client.create_tenant("drill", ALGORITHM, SHARDS).unwrap();
    for (seq, batch) in batches.iter().enumerate() {
        assert!(client.ingest("drill", seq as u64, batch).unwrap());
        if seq + 1 == CHECKPOINTED {
            client.checkpoint("drill").unwrap(); // newest chain delta: seq 0..CHECKPOINTED
        }
    }
    println!(
        "[A] ingested {BATCHES} batches of {BATCH}; {CHECKPOINTED} checkpointed, \
         {} journal-only — crashing now",
        BATCHES - CHECKPOINTED
    );
    client.crash(); // no shutdown sweep: in-memory state is gone
    server.join();

    // Restart on the same data dir: chain prefix + journal replay, typed.
    let (server, report) =
        Server::start("127.0.0.1:0", ServerConfig::new(&dir), serve_factory()).unwrap();
    println!("[A] recovery: {report}");
    assert_eq!(report.recovered(), 1);
    assert!(
        report.is_clean(),
        "a crash damages nothing on disk; the journal holds the acked suffix"
    );
    assert_eq!(
        report.total_wal_replayed(),
        (BATCHES - CHECKPOINTED) as u64,
        "every acked-but-uncheckpointed batch replays from the journal"
    );

    // The recovered server answers exactly like the FULL twin — the client
    // has nothing to replay.
    let mut client = Client::new(server.addr(), ClientConfig::default());
    assert_eq!(served_answers(&mut client), twin_answers(batches));
    println!("[A] recovered answers == full {BATCHES}-batch twin: exact, no client replay");

    // Re-sends of recovered batches are refused and change nothing.
    for (seq, batch) in batches.iter().enumerate().skip(CHECKPOINTED) {
        assert!(
            !client.ingest("drill", seq as u64, batch).unwrap(),
            "an acked batch re-sent after recovery must not re-apply"
        );
    }
    assert_eq!(served_answers(&mut client), twin_answers(batches));
    println!("[A] duplicate re-sends refused: answers unchanged");

    client.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Section B: durable mode, the ingest path dies mid-write.  The victim batch
/// was never acked; everything acked survives exactly.
fn drill_durable_crash_mid_ingest(batches: &[Vec<u64>]) {
    let dir = std::env::temp_dir().join(format!("fsc-fault-drill-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    const VICTIM: usize = 5; // the 5th ingest dies before its journal append

    let config = ServerConfig::new(&dir)
        .with_faults(
            FaultPlan::seeded(0xD12).with_crash_at(CrashPoint::BeforeJournal, VICTIM as u64),
        )
        .with_durability(Durability::AckAfterDurable);
    let (server, _) = Server::start("127.0.0.1:0", config, serve_factory()).unwrap();
    // No retries: the armed crash must surface as the failed ingest it is.
    // (Long timeout: a slow machine must not fake the death early.)
    let mut client = Client::new(
        server.addr(),
        ClientConfig {
            retries: 0,
            timeout: std::time::Duration::from_secs(10),
            ..ClientConfig::default()
        },
    );
    client.create_tenant("drill", ALGORITHM, SHARDS).unwrap();
    let mut acked = 0usize;
    for (seq, batch) in batches.iter().enumerate() {
        match client.ingest("drill", seq as u64, batch) {
            Ok(_) => acked += 1,
            Err(e) => {
                println!("[B] seq {seq} died inside the write path (as armed): {e}");
                break;
            }
        }
    }
    assert_eq!(acked, VICTIM - 1, "the victim ingest is never acked");
    server.join();

    // The restart holds exactly the acked prefix: every fsynced journal
    // record replays, the unacked victim never existed.
    let (server, report) =
        Server::start("127.0.0.1:0", ServerConfig::new(&dir), serve_factory()).unwrap();
    println!("[B] recovery: {report}");
    assert_eq!(report.recovered(), 1);
    assert!(report.is_clean(), "a crash between writes damages nothing");
    let mut client = Client::new(server.addr(), ClientConfig::default());
    assert_eq!(
        served_answers(&mut client),
        twin_answers(&batches[..acked]),
        "zero acked-write loss: the restart is the {acked}-batch twin"
    );
    println!("[B] recovered answers == acked {acked}-batch prefix twin: exact");

    // The client resumes from its own cursor; convergence is exact.
    for (seq, batch) in batches.iter().enumerate().skip(acked) {
        assert!(client.ingest("drill", seq as u64, batch).unwrap());
    }
    assert_eq!(served_answers(&mut client), twin_answers(batches));
    println!(
        "[B] re-sent the {} unacked batches: answers == full twin, exact",
        BATCHES - acked
    );

    client.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let batches = batches();
    drill_process_kill(&batches);
    drill_durable_crash_mid_ingest(&batches);
    println!("fault drill: both sections recovered exactly");
}
