//! Laws of the checkpoint that runs beside ingest.
//!
//! A checkpoint holds the tenant lock only to take its snapshot and rotate
//! the journal (`wal.fscw` becomes the retired segment, a fresh `wal.fscw`
//! takes appends); the delta is encoded, written and fsynced, and the retired
//! segment unlinked, with only the tenant's persist mutex held.
//!
//! * **Ingest does not wait for a checkpoint** — with the checkpoint stalled
//!   after its rotation, ingests on another connection are acked (and queries
//!   answered) while the `Checkpoint` is still pending, and the tenant then
//!   answers exactly like a registry twin.
//! * **Every checkpoint crash point recovers exactly** — a crash after the
//!   rotation, after the delta write, after the delta fsync and after the
//!   unlink, in both durability modes, with batches acked while the
//!   checkpoint was in flight: the restart folds any leftover retired segment
//!   into the journal, holds every acked batch, answers like the twin, and
//!   keeps ingesting, checkpointing and recovering exactly.
//! * **A torn delta keeps the retired segment** — after it, no checkpoint
//!   rotates or unlinks until a restart, which replays both segments.
//! * **`Stats.chain_len`** counts deltas applied at recovery plus deltas
//!   appended since, across checkpoints and a restart.

use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use fsc_bench::registry::serve_factory;
use fsc_engine::EngineConfig;
use fsc_serve::faults::splitmix64;
use fsc_serve::wal::{retired_path, scan, wal_path};
use fsc_serve::{
    Client, ClientConfig, CrashPoint, Durability, FaultPlan, Server, ServerConfig, ServerHandle,
};
use fsc_state::{Answer, Query};

// --- helpers ------------------------------------------------------------------

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fsc-checkpoint-laws-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(
    dir: &PathBuf,
    faults: FaultPlan,
    durability: Durability,
) -> (ServerHandle, fsc_serve::RecoveryReport) {
    let config = ServerConfig::new(dir)
        .with_faults(faults)
        .with_durability(durability)
        .with_group_commit(4);
    Server::start("127.0.0.1:0", config, serve_factory()).expect("bind")
}

/// A client that never retries and waits out a stalled checkpoint.
fn patient(addr: std::net::SocketAddr) -> Client {
    Client::new(
        addr,
        ClientConfig {
            retries: 0,
            timeout: Duration::from_secs(10),
            ..ClientConfig::default()
        },
    )
}

/// `n` seeded batches of `per` items over a small universe.
fn batches(n: usize, per: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = seed;
    (0..n)
        .map(|_| (0..per).map(|_| splitmix64(&mut rng) % 512).collect())
        .collect()
}

/// Probe answers of a registry twin fed `upto` of `batches`.
fn twin_answers(batches: &[Vec<u64>], upto: usize, probes: &[Query]) -> Vec<Answer> {
    let factory = serve_factory();
    let mut engine = factory(
        "count_min",
        EngineConfig {
            shards: 2,
            ..EngineConfig::default()
        },
    )
    .expect("count_min is engine-capable");
    for batch in &batches[..upto] {
        engine.ingest(batch);
    }
    probes
        .iter()
        .map(|q| engine.query_fresh(q).expect("twin answers"))
        .collect()
}

fn served_answers(c: &mut Client, probes: &[Query]) -> Vec<Answer> {
    probes
        .iter()
        .map(|q| c.query("t0", *q).expect("query"))
        .collect()
}

fn probes() -> Vec<Query> {
    (0..16).map(Query::Point).chain([Query::Moment]).collect()
}

fn ingest_all(c: &mut Client, work: &[Vec<u64>], seqs: std::ops::Range<usize>) {
    for seq in seqs {
        assert!(
            c.ingest("t0", seq as u64, &work[seq])
                .unwrap_or_else(|e| panic!("seq {seq}: {e}")),
            "seq {seq} applies once"
        );
    }
}

/// Records in the tenant's active journal segment.
fn journal_records(c: &mut Client) -> u64 {
    c.status().expect("status").tenants[0].wal_records
}

/// Blocks until a checkpoint in flight has rotated the journal, which holds
/// records when this is called: the active segment's record count drops to 0.
fn await_rotation(c: &mut Client) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while journal_records(c) != 0 {
        assert!(Instant::now() < deadline, "the checkpoint never rotated");
        thread::sleep(Duration::from_millis(1));
    }
}

/// The journal on disk is one clean segment: no retired segment is left and
/// `wal.fscw` scans without damage.
fn assert_one_clean_segment(tenant_dir: &Path, case: &str) {
    assert!(
        !retired_path(tenant_dir).exists(),
        "{case}: no retired segment is left"
    );
    let journal = std::fs::read(wal_path(tenant_dir)).expect("read journal");
    assert!(
        scan(&journal).damage.is_none(),
        "{case}: the journal scans clean"
    );
}

// --- ingest beside a checkpoint -----------------------------------------------

/// A checkpoint stalled after its rotation does not hold the tenant lock:
/// ingests on another connection are acked, and queries answered, while the
/// `Checkpoint` is still pending.  Afterwards the tenant answers as the twin,
/// and so does a restart.
#[test]
fn a_checkpoint_in_flight_does_not_block_ingest() {
    let work = batches(8, 32, 0xB10C_5EED);
    let probes = probes();
    let dir = tmp_dir("beside");
    let plan = FaultPlan::none().with_stall_persist(Duration::from_secs(2));
    let (server, _) = start(&dir, plan, Durability::AckAfterDurable);
    let addr = server.addr();
    let mut writer = patient(addr);
    writer.create_tenant("t0", "count_min", 2).expect("create");
    ingest_all(&mut writer, &work, 0..4);

    let checkpoint = thread::spawn(move || patient(addr).checkpoint("t0"));
    await_rotation(&mut writer);
    ingest_all(&mut writer, &work, 4..8);
    assert_eq!(
        served_answers(&mut writer, &probes),
        twin_answers(&work, 8, &probes),
        "reads see every batch acked beside the checkpoint"
    );
    assert!(
        !checkpoint.is_finished(),
        "four batches were acked while the checkpoint was pending"
    );
    checkpoint
        .join()
        .expect("checkpoint thread")
        .expect("the stalled checkpoint succeeds");
    assert_eq!(
        journal_records(&mut writer),
        4,
        "the fresh segment's records"
    );
    assert_eq!(writer.stats("t0").expect("stats").chain_len, 1);
    server.stop().expect("stop");

    let (server, report) = start(&dir, FaultPlan::none(), Durability::AckAfterDurable);
    assert!(report.is_clean(), "{report}");
    assert_one_clean_segment(&dir.join("t0"), "restart");
    let mut c = patient(server.addr());
    assert_eq!(c.stats("t0").expect("stats").next_seq, 8);
    assert_eq!(
        served_answers(&mut c, &probes),
        twin_answers(&work, 8, &probes)
    );
    server.stop().expect("stop");
    let _ = std::fs::remove_dir_all(&dir);
}

// --- crash points inside a checkpoint -----------------------------------------

/// A crash at each checkpoint step, in both durability modes.  The first
/// checkpoint completes; the second rotates, stalls while three more batches
/// are acked into the fresh segment, and dies at the armed point, unacked.
/// The restart must fold the retired segment (if the crash left one) into the
/// journal, hold all nine acked batches, answer as their twin, and carry on:
/// more batches, a checkpoint, a crash, and an exact recovery again.
#[test]
fn every_checkpoint_crash_point_recovers_exactly() {
    let work = batches(12, 32, 0xC4_5EED);
    let probes = probes();
    for durability in [Durability::AckAfterApply, Durability::AckAfterDurable] {
        for point in [
            CrashPoint::AfterRotate,
            CrashPoint::AfterDeltaWrite,
            CrashPoint::AfterDeltaSync,
            CrashPoint::AfterUnlink,
        ] {
            let case = format!("{durability} {point:?}");
            let dir = tmp_dir(&format!("crash-{durability}-{point:?}"));
            let tenant_dir = dir.join("t0");
            let plan = FaultPlan::seeded(1)
                .with_crash_at(point, 2)
                .with_stall_persist(Duration::from_secs(1))
                .with_crash_frame();
            let (server, _) = start(&dir, plan, durability);
            let addr = server.addr();
            let mut writer = patient(addr);
            writer.create_tenant("t0", "count_min", 2).expect("create");
            ingest_all(&mut writer, &work, 0..3);
            writer.checkpoint("t0").expect("the first checkpoint");
            ingest_all(&mut writer, &work, 3..6);

            let checkpoint = thread::spawn(move || patient(addr).checkpoint("t0"));
            await_rotation(&mut writer);
            ingest_all(&mut writer, &work, 6..9);
            assert!(
                checkpoint.join().expect("checkpoint thread").is_err(),
                "{case}: the crashed checkpoint is never acked"
            );
            server.join();
            let left_retired = retired_path(&tenant_dir).exists();
            assert_eq!(
                left_retired,
                point != CrashPoint::AfterUnlink,
                "{case}: the retired segment lives until the unlink"
            );

            let (server, report) = start(&dir, FaultPlan::seeded(2).with_crash_frame(), durability);
            assert!(report.is_clean(), "{case}: {report}");
            assert_one_clean_segment(&tenant_dir, &case);
            let mut c = patient(server.addr());
            let stats = c.stats("t0").expect("stats");
            assert_eq!(stats.next_seq, 9, "{case}: every acked batch is back");
            let covered = if point == CrashPoint::AfterRotate {
                3
            } else {
                6
            };
            assert_eq!(
                report.total_wal_replayed(),
                9 - covered,
                "{case}: the journal replays exactly what no durable delta covers"
            );
            assert_eq!(
                served_answers(&mut c, &probes),
                twin_answers(&work, 9, &probes),
                "{case}: restart answers as the twin of every acked batch"
            );
            assert!(
                !c.ingest("t0", 8, &work[8]).expect("resend"),
                "{case}: a recovered batch is not applied twice"
            );

            ingest_all(&mut c, &work, 9..12);
            c.checkpoint("t0").expect("a checkpoint after recovery");
            c.crash();
            server.join();
            let (server, report) = start(&dir, FaultPlan::none(), durability);
            assert!(report.is_clean(), "{case}, second restart: {report}");
            let mut c = patient(server.addr());
            assert_eq!(
                served_answers(&mut c, &probes),
                twin_answers(&work, work.len(), &probes),
                "{case}: the second restart answers as the full twin"
            );
            server.stop().expect("stop");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A delta torn after its rotation leaves the retired segment the only
/// durable copy of its batches, so nothing unlinks it, and the next
/// checkpoint does not rotate (there is never a second retired segment):
/// the fresh segment keeps its records too.  A restart replays both segments
/// past the torn delta and answers as the twin of every acked batch.
#[test]
fn a_torn_delta_keeps_the_retired_segment_until_restart() {
    let work = batches(12, 32, 0x7042_5EED);
    let probes = probes();
    let dir = tmp_dir("torn-delta");
    let tenant_dir = dir.join("t0");
    // Durable write 1 is the base, 2 the first delta, 3 the second (torn).
    let plan = FaultPlan::seeded(4).with_torn_write(3).with_crash_frame();
    let (server, _) = start(&dir, plan, Durability::AckAfterDurable);
    let mut c = patient(server.addr());
    c.create_tenant("t0", "count_min", 2).expect("create");
    ingest_all(&mut c, &work, 0..3);
    c.checkpoint("t0").expect("first checkpoint");
    ingest_all(&mut c, &work, 3..6);
    c.checkpoint("t0")
        .expect("a torn checkpoint is answered Ok");
    assert!(
        retired_path(&tenant_dir).exists(),
        "the retired segment stays"
    );
    ingest_all(&mut c, &work, 6..9);
    c.checkpoint("t0").expect("third checkpoint");
    assert_eq!(
        journal_records(&mut c),
        3,
        "the fresh segment is not rotated"
    );
    c.crash();
    server.join();

    let (server, report) = start(&dir, FaultPlan::none(), Durability::AckAfterDurable);
    assert_eq!(report.recovered(), 1, "{report}");
    assert_eq!(
        report.total_discarded(),
        2,
        "the torn delta and the one chained onto it: {report}"
    );
    assert_eq!(report.total_wal_replayed(), 6, "{report}");
    assert_one_clean_segment(&tenant_dir, "restart");
    let mut c = patient(server.addr());
    assert_eq!(
        served_answers(&mut c, &probes),
        twin_answers(&work, 9, &probes)
    );
    ingest_all(&mut c, &work, 9..12);
    c.checkpoint("t0").expect("checkpoint after restart");
    server.stop().expect("stop");

    let (server, _) = start(&dir, FaultPlan::none(), Durability::AckAfterDurable);
    let mut c = patient(server.addr());
    assert_eq!(
        served_answers(&mut c, &probes),
        twin_answers(&work, work.len(), &probes)
    );
    server.stop().expect("stop");
    let _ = std::fs::remove_dir_all(&dir);
}

// --- the chain length ---------------------------------------------------------

/// `Stats.chain_len` is the deltas applied at recovery plus the deltas
/// appended since: a checkpoint with nothing new adds none, and a restart
/// starts from what the chain on disk holds.
#[test]
fn chain_len_counts_recovered_and_appended_deltas() {
    let work = batches(6, 32, 0xC1_5EED);
    let dir = tmp_dir("chain-len");
    let (server, _) = start(&dir, FaultPlan::none(), Durability::AckAfterApply);
    let mut c = patient(server.addr());
    c.create_tenant("t0", "count_min", 2).expect("create");
    let chain_len = |c: &mut Client| c.stats("t0").expect("stats").chain_len;
    assert_eq!(chain_len(&mut c), 0);
    ingest_all(&mut c, &work, 0..2);
    c.checkpoint("t0").expect("checkpoint");
    assert_eq!(chain_len(&mut c), 1);
    c.checkpoint("t0").expect("a checkpoint with nothing new");
    assert_eq!(chain_len(&mut c), 1);
    ingest_all(&mut c, &work, 2..4);
    c.checkpoint("t0").expect("checkpoint");
    assert_eq!(chain_len(&mut c), 2);
    // The shutdown sweep has nothing new to write.
    server.stop().expect("stop");

    let (server, report) = start(&dir, FaultPlan::none(), Durability::AckAfterApply);
    assert!(report.is_clean(), "{report}");
    let mut c = patient(server.addr());
    assert_eq!(chain_len(&mut c), 2, "the deltas applied at recovery");
    ingest_all(&mut c, &work, 4..6);
    c.checkpoint("t0").expect("checkpoint");
    assert_eq!(chain_len(&mut c), 3);
    server.stop().expect("stop");
    let _ = std::fs::remove_dir_all(&dir);
}
