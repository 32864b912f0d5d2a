//! Laws of durable ingest: the write-ahead journal and crash recovery.
//!
//! * **Torn-tail totality** — for *every* byte-length prefix of a journal
//!   file (every place a crash can cut a write), opening the journal keeps
//!   exactly the whole records the prefix contains, truncates the rest with
//!   typed counts, and leaves a file that re-scans clean.  Checked both at
//!   the `Wal` layer (every cut, exhaustively) and through a live server
//!   (seeded cuts of a real tenant's journal).
//! * **Zero acked-write loss** — in `AckAfterDurable` mode, a crash injected
//!   at *every* point inside the ingest write path (before the journal
//!   append, after it, after the in-memory apply, and a torn append) and at
//!   every batch position recovers a server that answers exactly like a
//!   registry twin fed at least every acked batch; so does a process kill in
//!   either mode.  A corrupt journal record is truncated typed, and the
//!   client's replay converges to the full twin after every one of them.
//! * **Bounded power loss** — a simulated power loss (journal truncated to
//!   its fsynced boundary) loses at most one group-commit window of acked
//!   batches in the default `AckAfterApply` mode and none in durable mode,
//!   and the sequence-numbered client replays the tail to exact convergence.
//! * **A failed fsync loses nothing acked** — in both modes, a journal fsync
//!   that fails, the client's retry of that seq, more acked batches and a
//!   crash recover exactly the twin of every acked batch.
//! * **Old journals replay** — a version-1 journal written by an earlier
//!   build replays exactly, and the tenant keeps ingesting and recovering.

use std::path::PathBuf;

use fsc_bench::registry::serve_factory;
use fsc_engine::EngineConfig;
use fsc_serve::faults::splitmix64;
use fsc_serve::wal::{scan, Wal, WAL_HEADER};
use fsc_serve::{
    Client, ClientConfig, ClientError, CrashPoint, Durability, FaultPlan, JournalRemedy,
    ServeError, Server, ServerConfig, ServerHandle,
};
use fsc_state::{Answer, Query};
use proptest::prelude::*;

// --- helpers ------------------------------------------------------------------

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsc-recovery-laws-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(
    dir: &PathBuf,
    faults: FaultPlan,
    durability: Durability,
    group_commit: u64,
) -> (ServerHandle, fsc_serve::RecoveryReport) {
    let config = ServerConfig::new(dir)
        .with_faults(faults)
        .with_durability(durability)
        .with_group_commit(group_commit);
    Server::start("127.0.0.1:0", config, serve_factory()).expect("bind")
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

// --- torn-tail totality at the Wal layer --------------------------------------

/// Builds a journal of `shapes.len()` records (one per item count), returns
/// the file's bytes.
fn journal_image(dir: &PathBuf, shapes: &[usize]) -> Vec<u8> {
    std::fs::create_dir_all(dir).expect("mkdir");
    let mut wal = Wal::create(dir).expect("create journal");
    let none = FaultPlan::none();
    for (seq, &n) in shapes.iter().enumerate() {
        let items: Vec<u64> = (0..n as u64).map(|i| i * 31 + seq as u64).collect();
        wal.append(seq as u64, &items, &none).expect("append");
    }
    wal.sync().expect("sync");
    std::fs::read(fsc_serve::wal::wal_path(dir)).expect("read journal")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For EVERY byte-length prefix of a journal — every place a crash can cut
    /// a write — opening recovers exactly the whole records the prefix holds,
    /// reports the rest as typed truncation, and repairs the file in place so
    /// a second scan is clean.
    #[test]
    fn every_byte_prefix_of_a_journal_recovers_its_whole_records(seed in 0u64..10_000) {
        let mut rng = seed;
        let shapes: Vec<usize> = (0..3).map(|_| (splitmix64(&mut rng) % 9) as usize).collect();
        let build = tmp_dir(&format!("image-{seed}"));
        let image = journal_image(&build, &shapes);
        let _ = std::fs::remove_dir_all(&build);

        let dir = tmp_dir(&format!("cut-{seed}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = fsc_serve::wal::wal_path(&dir);
        for cut in 0..=image.len() {
            std::fs::write(&path, &image[..cut]).expect("write cut prefix");
            let oracle = scan(&image[..cut]);
            let (wal, recovery) = Wal::open(&dir, 0).expect("open never errors on damage");
            prop_assert_eq!(
                &recovery.replay, &oracle.records,
                "cut {} must keep exactly the whole records", cut
            );
            prop_assert_eq!(recovery.skipped, 0);
            // Everything past the last whole record is truncated — including a
            // damaged header, which is rewritten from scratch.
            let expected_truncated = cut as u64 - oracle.valid_len.min(cut as u64);
            prop_assert_eq!(
                recovery.truncated_bytes, expected_truncated,
                "cut {}: truncation counts every damaged byte", cut
            );
            prop_assert_eq!(
                recovery.damage.is_some(),
                expected_truncated > 0 || cut < WAL_HEADER as usize,
                "cut {}: damage is typed exactly when something was repaired", cut
            );
            prop_assert_eq!(wal.records(), oracle.records.len() as u64);
            // The repaired file re-scans clean.
            let repaired = std::fs::read(&path).expect("read repaired");
            let rescan = scan(&repaired);
            prop_assert!(rescan.damage.is_none(), "cut {} left damage behind", cut);
            prop_assert_eq!(rescan.records, oracle.records);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// --- torn-tail totality through a live server ---------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cut a real tenant's journal at a seeded byte offset (as a crash mid-
    /// append would), restart the server, and it must recover exactly the
    /// whole-record prefix, report the truncation typed, and let the client
    /// replay the lost tail to exact convergence.
    #[test]
    fn a_cut_journal_tail_recovers_the_longest_whole_prefix(seed in 0u64..10_000) {
        let dir = tmp_dir(&format!("server-cut-{seed}"));
        let work = batches(3, 32, seed ^ 0x7A11);
        let probes = probes();

        let (server, _) = start(
            &dir,
            FaultPlan::seeded(seed).with_crash_frame(),
            Durability::AckAfterDurable,
            8,
        );
        let mut c = Client::new(server.addr(), ClientConfig::default());
        c.create_tenant("t0", "count_min", 2).expect("create");
        for (seq, batch) in work.iter().enumerate() {
            // Ignore the `applied` flag: a lost ack plus a client retry
            // legally acks `applied = false` (idempotent duplicate); the twin
            // equality below pins that every batch landed exactly once.
            c.ingest("t0", seq as u64, batch).expect("ingest");
        }
        c.crash();
        server.join();

        // Cut the journal at a seeded offset past the header.
        let path = fsc_serve::wal::wal_path(&dir.join("t0"));
        let image = std::fs::read(&path).expect("read journal");
        let mut rng = seed ^ 0xC07;
        let cut = WAL_HEADER as usize
            + (splitmix64(&mut rng) % (image.len() as u64 - WAL_HEADER)) as usize;
        std::fs::write(&path, &image[..cut]).expect("cut journal");
        let oracle = scan(&image[..cut]);
        let kept = oracle.records.len();

        let (server, report) = start(
            &dir,
            FaultPlan::none(),
            Durability::AckAfterDurable,
            8,
        );
        prop_assert_eq!(report.recovered(), 1, "t0 comes back: {}", &report);
        prop_assert_eq!(report.total_wal_replayed(), kept as u64);
        prop_assert_eq!(
            report.total_wal_truncated_bytes(),
            cut as u64 - oracle.valid_len,
            "truncation is reported typed: {}", &report
        );
        prop_assert_eq!(report.is_clean(), cut as u64 == oracle.valid_len);

        let mut c = Client::new(server.addr(), ClientConfig::default());
        prop_assert_eq!(
            served_answers(&mut c, &probes),
            twin_answers(&work, kept, &probes),
            "restart answers as the {}-batch twin", kept
        );
        // The client replays the truncated tail; convergence is exact.  (The
        // `applied` flag is not asserted: a retried ack may be a duplicate.)
        for (seq, batch) in work.iter().enumerate().skip(kept) {
            c.ingest("t0", seq as u64, batch).expect("replay");
        }
        prop_assert_eq!(
            served_answers(&mut c, &probes),
            twin_answers(&work, work.len(), &probes)
        );
        server.stop().expect("stop");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// --- the zero-acked-loss law --------------------------------------------------

/// The fault one run of the crash-point law injects into the ingest path.
#[derive(Debug, Clone, Copy)]
enum Inject {
    /// The server dies at this point inside the nth ingest.
    CrashAt(CrashPoint),
    /// The nth journal append writes only a prefix of its record, and the
    /// server dies with it.
    TornAppend,
    /// One byte of the nth journal record is flipped on its way to the file:
    /// latent media damage.  The server keeps running and acking.
    CorruptRecord,
    /// No fault: every batch is acked, then the process is killed.
    Kill,
}

/// Crash at every point inside the write path × every batch position, with a
/// checkpoint after the second batch, so recovery runs chain plus journal:
/// the restart must hold at least every acked batch, answer exactly like the
/// twin of what it holds, refuse a re-sent survivor, and converge to the full
/// twin when the client replays the rest.  A torn append and a plain process
/// kill (in both modes: the page cache outlives a dead process) are crashes
/// too.  A corrupt record is not a crash but latent damage: recovery truncates
/// the journal at it, typed, which loses the acked batches from that record on
/// until the client replays them.
#[test]
fn durable_mode_loses_no_acked_batch_at_any_crash_point() {
    const CHECKPOINT_AFTER: u64 = 2;
    let work = batches(5, 32, 0xD0_5EED);
    let last = work.len() as u64;
    let probes = probes();
    let durable = Durability::AckAfterDurable;
    // (mode, fault, the ingests or appends it is armed at)
    let mut runs: Vec<(Durability, Inject, Vec<u64>)> = [
        CrashPoint::BeforeJournal,
        CrashPoint::AfterJournal,
        CrashPoint::AfterApply,
    ]
    .into_iter()
    .map(|point| (durable, Inject::CrashAt(point), (1..=last).collect()))
    .collect();
    runs.extend([
        (durable, Inject::TornAppend, (1..=last).collect()),
        // Records the checkpoint has not truncated away.
        (
            durable,
            Inject::CorruptRecord,
            (CHECKPOINT_AFTER + 1..=last).collect(),
        ),
        (durable, Inject::Kill, vec![0]),
        (Durability::AckAfterApply, Inject::Kill, vec![0]),
    ]);
    for (durability, inject, positions) in runs {
        for nth in positions {
            let case = format!("{durability} {inject:?} at {nth}");
            let dir = tmp_dir(&format!("crash-{durability}-{inject:?}-{nth}"));
            let plan = FaultPlan::seeded(nth).with_crash_frame();
            let plan = match inject {
                Inject::CrashAt(point) => plan.with_crash_at(point, nth),
                Inject::TornAppend => plan.with_torn_wal_append(nth),
                Inject::CorruptRecord => plan.with_corrupt_wal_record(nth),
                Inject::Kill => plan,
            };
            let (server, _) = start(&dir, plan, durability, 8);
            // No retries: the armed crash must surface as the failed ingest
            // it is, never be re-attempted against a dying server.  The long
            // timeout keeps a loaded test machine from faking an early death
            // (which would leave the crash unarmed and the join hanging).
            let mut c = Client::new(
                server.addr(),
                ClientConfig {
                    retries: 0,
                    timeout: std::time::Duration::from_secs(10),
                    ..ClientConfig::default()
                },
            );
            c.create_tenant("t0", "count_min", 2).expect("create");
            let mut acked = 0u64;
            for (seq, batch) in work.iter().enumerate() {
                match c.ingest("t0", seq as u64, batch) {
                    Ok(_) => acked += 1,
                    Err(_) => break,
                }
                if acked == CHECKPOINT_AFTER {
                    c.checkpoint("t0").expect("checkpoint");
                }
            }
            let dies_unacked = matches!(inject, Inject::CrashAt(_) | Inject::TornAppend);
            let expected_acked = if dies_unacked { nth - 1 } else { last };
            assert_eq!(acked, expected_acked, "{case}: acked batches");
            if !dies_unacked {
                c.crash();
            }
            server.join();

            let (server, report) = start(&dir, FaultPlan::none(), durability, 8);
            assert_eq!(report.recovered(), 1, "{case}: {report}");
            let truncated = report.total_wal_truncated_bytes();
            match inject {
                Inject::TornAppend | Inject::CorruptRecord => assert!(
                    truncated > 0 && report.total_discarded() == 0,
                    "{case}: the damaged journal tail is truncated typed: {report}"
                ),
                Inject::CrashAt(_) | Inject::Kill => assert!(
                    report.is_clean(),
                    "{case}: a crash between writes damages nothing: {report}"
                ),
            }
            let journal = std::fs::read(fsc_serve::wal::wal_path(&dir.join("t0")));
            assert!(
                scan(&journal.expect("read journal")).damage.is_none(),
                "{case}: recovery leaves a journal that re-scans clean"
            );
            let mut c = Client::new(server.addr(), ClientConfig::default());
            let next_seq = c.stats("t0").expect("stats").next_seq;
            if let Inject::CorruptRecord = inject {
                assert_eq!(
                    next_seq,
                    nth - 1,
                    "{case}: recovery stops at the corrupt record"
                );
            } else {
                assert!(
                    next_seq >= acked,
                    "{case}: recovered {next_seq} < acked {acked} — an acknowledged \
                     batch was lost"
                );
            }
            assert_eq!(
                served_answers(&mut c, &probes),
                twin_answers(&work, next_seq as usize, &probes),
                "{case}: restart must answer as the {next_seq}-batch twin"
            );
            if next_seq > 0 {
                let survivor = next_seq - 1;
                assert!(
                    !c.ingest("t0", survivor, &work[survivor as usize])
                        .expect("duplicate resend"),
                    "{case}: recovered batch {survivor} must not re-apply"
                );
            }
            for seq in next_seq..last {
                c.ingest("t0", seq, &work[seq as usize]).expect("replay");
            }
            assert_eq!(
                served_answers(&mut c, &probes),
                twin_answers(&work, work.len(), &probes),
                "{case}: replay converges to the full twin"
            );
            server.stop().expect("stop");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// --- bounded relaxed loss -----------------------------------------------------

/// Power loss keeps only what was fsynced.  In the relaxed default that costs
/// at most one group-commit window of acked batches, and the client replays
/// back to exact convergence; in durable mode every acked append was fsynced,
/// so nothing acked is lost.
#[test]
fn relaxed_power_loss_is_bounded_by_the_group_commit_window() {
    const GROUP_COMMIT: u64 = 4;
    let work = batches(6, 32, 0x9_5EED);
    let appends = work.len() as u64;
    let probes = probes();
    // 6 appends at window 4 ⇒ 4 survive in relaxed mode, all 6 in durable mode.
    for (durability, synced) in [
        (
            Durability::AckAfterApply,
            appends / GROUP_COMMIT * GROUP_COMMIT,
        ),
        (Durability::AckAfterDurable, appends),
    ] {
        let dir = tmp_dir(&format!("power-loss-{durability}"));
        let (server, _) = start(
            &dir,
            FaultPlan::seeded(3).with_crash_frame(),
            durability,
            GROUP_COMMIT,
        );
        let mut c = Client::new(server.addr(), ClientConfig::default());
        c.create_tenant("t0", "count_min", 2).expect("create");
        for (seq, batch) in work.iter().enumerate() {
            // `applied` not asserted: a lost ack plus a retry is a legal duplicate.
            c.ingest("t0", seq as u64, batch).expect("ingest");
        }
        c.crash();
        server.join();

        // Power loss: the file keeps only what was fsynced.
        let record_bytes = 20 + 8 * 32u64;
        let path = fsc_serve::wal::wal_path(&dir.join("t0"));
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open journal");
        assert!(
            file.metadata().expect("stat").len() >= WAL_HEADER + synced * record_bytes,
            "{durability}: the journal holds every synced record"
        );
        file.set_len(WAL_HEADER + synced * record_bytes)
            .expect("truncate to the fsynced boundary");
        drop(file);

        let (server, report) = start(&dir, FaultPlan::none(), durability, GROUP_COMMIT);
        assert_eq!(report.recovered(), 1, "{durability}: {report}");
        let mut c = Client::new(server.addr(), ClientConfig::default());
        let next_seq = c.stats("t0").expect("stats").next_seq;
        let lost = appends - next_seq;
        assert!(
            lost <= GROUP_COMMIT,
            "{durability}: lost {lost} acked batches, more than the group-commit window"
        );
        assert_eq!(
            next_seq, synced,
            "{durability}: exactly the unsynced tail is lost"
        );
        assert_eq!(
            served_answers(&mut c, &probes),
            twin_answers(&work, next_seq as usize, &probes)
        );
        // The sequence-numbered client replays the lost tail exactly once.
        for seq in next_seq..appends {
            c.ingest("t0", seq, &work[seq as usize]).expect("replay");
        }
        assert_eq!(
            served_answers(&mut c, &probes),
            twin_answers(&work, work.len(), &probes),
            "{durability}: replay converges to the full twin"
        );
        server.stop().expect("stop");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// --- a failed fsync -----------------------------------------------------------

/// Fail one journal fsync mid-run, retry that seq as a client would, ack more
/// batches, crash: the restart must equal the twin of every acked batch.
/// Were the journal to take appends after a failed fsync, the retry would
/// append a second copy of the seq, recovery would stop at it, and every
/// batch acked after it would be lost.
#[test]
fn a_failed_fsync_loses_no_acked_batch() {
    let work = batches(6, 32, 0xF5_5EED);
    let probes = probes();
    // (mode, group commit, failing fsync, the seq whose append asks for it):
    // durable mode syncs every append; a group commit of 2 syncs after seqs
    // 1, 3, 5.
    for (durability, group_commit, nth_sync, failing_seq) in [
        (Durability::AckAfterDurable, 8, 3, 2),
        (Durability::AckAfterApply, 2, 2, 3),
    ] {
        let dir = tmp_dir(&format!("failed-sync-{durability}"));
        let (server, _) = start(
            &dir,
            FaultPlan::seeded(5)
                .with_failed_sync(nth_sync)
                .with_crash_frame(),
            durability,
            group_commit,
        );
        let mut c = Client::new(server.addr(), ClientConfig::default());
        c.create_tenant("t0", "count_min", 2).expect("create");
        for (seq, batch) in work.iter().enumerate() {
            let seq = seq as u64;
            if seq == failing_seq {
                // The checkpoint truncated the journal: the refusal says retry now.
                let refused = c.ingest("t0", seq, batch);
                assert!(
                    matches!(
                        refused,
                        Err(ClientError::Server(ServeError::JournalRefused {
                            remedy: JournalRemedy::RetryNow,
                            ..
                        }))
                    ),
                    "{durability}: seq {seq} must fail typed, got {refused:?}"
                );
            }
            c.ingest("t0", seq, batch)
                .unwrap_or_else(|e| panic!("{durability}: seq {seq}: {e}"));
        }
        c.crash();
        server.join();

        let (server, report) = start(&dir, FaultPlan::none(), durability, group_commit);
        assert!(report.is_clean(), "{durability}: {report}");
        let mut c = Client::new(server.addr(), ClientConfig::default());
        assert_eq!(
            c.stats("t0").expect("stats").next_seq,
            work.len() as u64,
            "{durability}: every acked batch is recovered"
        );
        assert_eq!(
            served_answers(&mut c, &probes),
            twin_answers(&work, work.len(), &probes),
            "{durability}: restart answers as the twin of every acked batch"
        );
        server.stop().expect("stop");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A failed fsync whose checkpoint then tears leaves the journal the only
/// durable copy of the acked batches, so nothing may truncate it: the tenant
/// refuses ingest, typed `Restart`, and a client `Checkpoint` does not lift
/// that.  A restart recovers every acked batch, and ingest carries on.
#[test]
fn a_failed_fsync_after_a_torn_checkpoint_is_refused_until_restart() {
    let work = batches(5, 32, 0x7E_5EED);
    let probes = probes();
    let dir = tmp_dir("failed-sync-torn-delta");
    // Durable mode syncs every append, so seq 2 asks for the third fsync.  The
    // base checkpoint is durable blob 1; blob 2 is the delta the server writes
    // after the failed fsync.
    let faults = FaultPlan::seeded(7)
        .with_failed_sync(3)
        .with_torn_write(2)
        .with_crash_frame();
    let (server, _) = start(&dir, faults, Durability::AckAfterDurable, 8);
    let mut c = Client::new(server.addr(), ClientConfig::default());
    c.create_tenant("t0", "count_min", 2).expect("create");
    for (seq, batch) in work.iter().enumerate().take(2) {
        c.ingest("t0", seq as u64, batch).expect("ack");
    }
    let refused_until_restart = |r: &Result<bool, ClientError>| {
        matches!(
            r,
            Err(ClientError::Server(ServeError::JournalRefused {
                remedy: JournalRemedy::Restart,
                ..
            }))
        )
    };
    let first = c.ingest("t0", 2, &work[2]);
    assert!(refused_until_restart(&first), "failed fsync: {first:?}");
    c.checkpoint("t0")
        .expect("a checkpoint with nothing new succeeds");
    let again = c.ingest("t0", 2, &work[2]);
    assert!(
        refused_until_restart(&again),
        "after a checkpoint: {again:?}"
    );
    c.crash();
    server.join();

    let (server, _) = start(&dir, FaultPlan::none(), Durability::AckAfterDurable, 8);
    let mut c = Client::new(server.addr(), ClientConfig::default());
    // Seq 2's record reached the journal before its fsync failed, so recovery
    // may replay it; its retry then acks without re-applying.
    for (seq, batch) in work.iter().enumerate().skip(2) {
        c.ingest("t0", seq as u64, batch)
            .unwrap_or_else(|e| panic!("seq {seq} after restart: {e}"));
    }
    assert_eq!(
        served_answers(&mut c, &probes),
        twin_answers(&work, work.len(), &probes),
        "restart answers as the twin of every batch"
    );
    server.stop().expect("stop");
    let _ = std::fs::remove_dir_all(&dir);
}

// --- journals written by an earlier build -------------------------------------

/// `tests/golden/wal_v1.fscw` was written by the version-1 journal code: four
/// records of `batches(4, 32, 0x71_5EED)` with FNV-1a checksums.  Dropped into
/// a fresh tenant, it replays exactly; the tenant then keeps ingesting, and
/// recovers exactly again after a second crash.
#[test]
fn a_version_one_journal_replays_and_the_tenant_carries_on() {
    let v1 = include_bytes!("golden/wal_v1.fscw");
    assert_eq!(
        v1[4..8],
        1u32.to_le_bytes(),
        "the fixture is a version-1 journal"
    );
    let work = batches(8, 32, 0x71_5EED);
    let probes = probes();
    let dir = tmp_dir("v1-journal");
    let crashable = || FaultPlan::none().with_crash_frame();

    let (server, _) = start(&dir, crashable(), Durability::AckAfterDurable, 8);
    let mut c = Client::new(server.addr(), ClientConfig::default());
    c.create_tenant("t0", "count_min", 2).expect("create");
    c.crash();
    server.join();
    let journal = fsc_serve::wal::wal_path(&dir.join("t0"));
    std::fs::write(&journal, v1).expect("install the old journal");

    let (server, report) = start(&dir, crashable(), Durability::AckAfterDurable, 8);
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.total_wal_replayed(), 4);
    let mut c = Client::new(server.addr(), ClientConfig::default());
    assert_eq!(
        served_answers(&mut c, &probes),
        twin_answers(&work, 4, &probes)
    );
    for (seq, batch) in work.iter().enumerate().skip(4) {
        assert!(c.ingest("t0", seq as u64, batch).expect("ingest"));
    }
    c.crash();
    server.join();
    let rescan = scan(&std::fs::read(&journal).expect("read journal"));
    assert!(rescan.damage.is_none());
    assert_eq!(rescan.records.len(), work.len(), "one file, one version");

    let (server, report) = start(&dir, FaultPlan::none(), Durability::AckAfterDurable, 8);
    assert!(report.is_clean(), "{report}");
    let mut c = Client::new(server.addr(), ClientConfig::default());
    assert_eq!(
        served_answers(&mut c, &probes),
        twin_answers(&work, work.len(), &probes)
    );
    server.stop().expect("stop");
    let _ = std::fs::remove_dir_all(&dir);
}
