//! Laws of the networked front-end (`fsc-serve`).
//!
//! * **Wire totality** — every `Request`/`Response` frame type round-trips
//!   through its codec, and every truncation of every frame decodes to a typed
//!   error: no panic, no partial parse, no unbounded allocation.  Garbage and
//!   oversized frames sent to a *live* server get typed refusals and never take
//!   the server down.
//! * **The recovery law** — kill a server mid-ingest and restart it over the
//!   same data dir: the delta chain restores the checkpointed prefix, the
//!   write-ahead journal replays the acked suffix, and the restart answers
//!   exactly like a twin that saw every acked batch — with duplicate re-sends
//!   refused, no client-side replay needed.
//!   A damaged chain tip — a torn checkpoint write or a bit-flipped delta —
//!   falls back to the newest valid prefix, and the journal or the client's
//!   replay brings back every batch.
//! * **Idempotency** — re-sending an applied batch acks without re-applying,
//!   and connections dropped between apply and ack converge to exactly-once
//!   under retries, for one client and for a multi-connection load generator.
//! * **Graceful degradation** — excess ingest is shed with typed `Overloaded`
//!   while readers keep answering off the cached view, a corrupt tenant
//!   fails alone (its neighbors recover and serve), and a `CreateTenant` asking
//!   for more than `MAX_TENANT_SHARDS` shards is refused typed without
//!   disturbing its neighbors.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use fsc_bench::registry::serve_factory;
use fsc_engine::EngineConfig;
use fsc_serve::faults::{flip_one_byte, splitmix64};
use fsc_serve::protocol::{
    read_frame, write_frame, JournalRemedy, Request, Response, ServeError, MAX_FRAME,
};
use fsc_serve::storage::{TenantMeta, TenantOutcome};
use fsc_serve::{
    Client, ClientConfig, FaultPlan, LoadGen, Server, ServerConfig, ServerHandle, MAX_TENANT_SHARDS,
};
use fsc_state::{Answer, Query};
use proptest::prelude::*;

// --- helpers ------------------------------------------------------------------

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsc-serve-net-laws-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(dir: &PathBuf, faults: FaultPlan, max_inflight: usize) -> ServerHandle {
    let config = ServerConfig::new(dir)
        .with_faults(faults)
        .with_max_inflight_ingest(max_inflight);
    Server::start("127.0.0.1:0", config, serve_factory())
        .expect("bind")
        .0
}

fn restart(dir: &PathBuf) -> (ServerHandle, fsc_serve::RecoveryReport) {
    Server::start("127.0.0.1:0", ServerConfig::new(dir), serve_factory()).expect("bind")
}

fn client(server: &ServerHandle) -> Client {
    Client::new(server.addr(), ClientConfig::default())
}

/// `n` seeded batches of `per` items over a 512-item universe.
fn batches(n: usize, per: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = seed;
    (0..n)
        .map(|_| (0..per).map(|_| splitmix64(&mut rng) % 512).collect())
        .collect()
}

fn probes() -> Vec<Query> {
    (0..16).map(Query::Point).chain([Query::Moment]).collect()
}

/// Probe answers of a registry twin of a 2-shard `count_min` tenant fed
/// `batches`.
fn twin_answers(batches: &[Vec<u64>]) -> Vec<Answer> {
    let factory = serve_factory();
    let mut engine = factory(
        "count_min",
        EngineConfig {
            shards: 2,
            ..EngineConfig::default()
        },
    )
    .expect("count_min is engine-capable");
    for batch in batches {
        engine.ingest(batch);
    }
    probes()
        .iter()
        .map(|q| engine.query_fresh(q).expect("twin answers"))
        .collect()
}

fn served_answers(c: &mut Client, tenant: &str) -> Vec<Answer> {
    probes()
        .iter()
        .map(|q| c.query(tenant, *q).expect("query"))
        .collect()
}

/// `(epoch, next_seq, discarded)` of a recovered tenant.
fn recovered(report: &fsc_serve::RecoveryReport, tenant: &str) -> Option<(u64, u64, usize)> {
    report.tenants.iter().find_map(|t| match t.outcome {
        TenantOutcome::Recovered {
            epoch,
            next_seq,
            discarded,
            ..
        } if t.tenant == tenant => Some((epoch, next_seq, discarded)),
        _ => None,
    })
}

// --- seeded frame generators (the proptest shim drives the seeds) -------------

fn arb_name(rng: &mut u64) -> String {
    let len = 1 + (splitmix64(rng) % 12) as usize;
    (0..len)
        .map(|_| {
            let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789-_";
            alphabet[(splitmix64(rng) as usize) % alphabet.len()] as char
        })
        .collect()
}

fn arb_items(rng: &mut u64) -> Vec<u64> {
    let len = (splitmix64(rng) % 20) as usize;
    (0..len).map(|_| splitmix64(rng)).collect()
}

fn arb_query(rng: &mut u64) -> Query {
    match splitmix64(rng) % 6 {
        0 => Query::Point(splitmix64(rng)),
        1 => Query::HeavyHitters {
            threshold: (splitmix64(rng) % 1_000) as f64 / 8.0,
        },
        2 => Query::TrackedItems,
        3 => Query::Moment,
        4 => Query::Entropy,
        _ => Query::Support,
    }
}

fn arb_answer(rng: &mut u64) -> Answer {
    match splitmix64(rng) % 4 {
        0 => Answer::Scalar((splitmix64(rng) % 100_000) as f64 / 16.0),
        1 => Answer::ItemWeights(
            (0..splitmix64(rng) % 8)
                .map(|_| (splitmix64(rng), (splitmix64(rng) % 4_096) as f64))
                .collect(),
        ),
        2 => Answer::Items(arb_items(rng)),
        _ => Answer::Unsupported,
    }
}

fn arb_error(rng: &mut u64) -> ServeError {
    match splitmix64(rng) % 9 {
        0 => ServeError::UnknownTenant(arb_name(rng)),
        1 => ServeError::TenantExists(arb_name(rng)),
        2 => ServeError::UnknownAlgorithm(arb_name(rng)),
        3 => ServeError::Overloaded,
        4 => ServeError::SeqGap {
            expected: splitmix64(rng),
            found: splitmix64(rng),
        },
        5 => ServeError::Protocol(arb_name(rng)),
        6 => ServeError::ShuttingDown,
        7 => ServeError::Internal(arb_name(rng)),
        _ => ServeError::JournalRefused {
            remedy: [
                JournalRemedy::RetryNow,
                JournalRemedy::AfterCheckpoint,
                JournalRemedy::Restart,
            ][(splitmix64(rng) % 3) as usize],
            detail: arb_name(rng),
        },
    }
}

fn arb_request(rng: &mut u64) -> Request {
    match splitmix64(rng) % 8 {
        0 => Request::CreateTenant {
            tenant: arb_name(rng),
            algorithm: arb_name(rng),
            shards: (splitmix64(rng) % 8) as u32,
        },
        1 => Request::Ingest {
            tenant: arb_name(rng),
            seq: splitmix64(rng),
            items: arb_items(rng),
        },
        2 => Request::Query {
            tenant: arb_name(rng),
            query: arb_query(rng),
        },
        3 => Request::Checkpoint {
            tenant: arb_name(rng),
        },
        4 => Request::Stats {
            tenant: arb_name(rng),
        },
        5 => Request::Shutdown,
        6 => Request::Crash,
        _ => Request::Status,
    }
}

fn arb_tenant_status(rng: &mut u64) -> fsc_serve::TenantStatus {
    fsc_serve::TenantStatus {
        tenant: arb_name(rng),
        recovered: splitmix64(rng).is_multiple_of(2),
        next_seq: splitmix64(rng),
        chain_applied: splitmix64(rng),
        chain_discarded: splitmix64(rng),
        wal_replayed: splitmix64(rng),
        wal_truncated_bytes: splitmix64(rng),
        wal_records: splitmix64(rng),
        wal_bytes: splitmix64(rng),
        wal_appended_bytes: splitmix64(rng),
    }
}

fn arb_response(rng: &mut u64) -> Response {
    match splitmix64(rng) % 6 {
        0 => Response::Ok,
        1 => Response::Answer(arb_answer(rng)),
        2 => Response::IngestAck {
            seq: splitmix64(rng),
            applied: splitmix64(rng).is_multiple_of(2),
        },
        3 => Response::Stats(fsc_serve::TenantStats {
            ingested: splitmix64(rng),
            next_seq: splitmix64(rng),
            rebuilds: splitmix64(rng),
            chain_len: splitmix64(rng),
        }),
        4 => Response::Status(fsc_serve::ServerStatus {
            durability: if splitmix64(rng).is_multiple_of(2) {
                fsc_serve::Durability::AckAfterApply
            } else {
                fsc_serve::Durability::AckAfterDurable
            },
            group_commit: splitmix64(rng),
            failed_tenants: splitmix64(rng),
            tenants: (0..splitmix64(rng) % 4)
                .map(|_| arb_tenant_status(rng))
                .collect(),
        }),
        _ => Response::Error(arb_error(rng)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request frame round-trips, and every strict prefix of its encoding
    /// decodes to a typed error (total parsing: no panic, no partial accept).
    #[test]
    fn request_frames_round_trip_and_reject_every_truncation(seed in 0u64..100_000) {
        let mut rng = seed;
        let request = arb_request(&mut rng);
        let bytes = request.encode();
        prop_assert_eq!(Request::decode(&bytes).expect("round trip"), request);
        for cut in 0..bytes.len() {
            prop_assert!(Request::decode(&bytes[..cut]).is_err(), "cut {} parsed", cut);
        }
    }

    /// Same law for every response frame type.
    #[test]
    fn response_frames_round_trip_and_reject_every_truncation(seed in 0u64..100_000) {
        let mut rng = seed ^ 0xFEED;
        let response = arb_response(&mut rng);
        let bytes = response.encode();
        prop_assert_eq!(Response::decode(&bytes).expect("round trip"), response);
        for cut in 0..bytes.len() {
            prop_assert!(Response::decode(&bytes[..cut]).is_err(), "cut {} parsed", cut);
        }
    }

    /// Garbage bytes never panic the decoders and never decode by accident
    /// (the FSCS magic + id check in the header gates everything).
    #[test]
    fn garbage_payloads_land_in_typed_errors(
        seed in 0u64..100_000,
        len in 0usize..256,
    ) {
        let mut rng = seed ^ 0x6A5B;
        let garbage: Vec<u8> = (0..len).map(|_| splitmix64(&mut rng) as u8).collect();
        prop_assert!(Request::decode(&garbage).is_err());
        prop_assert!(Response::decode(&garbage).is_err());
    }
}

// --- live-server fuzz: hostile frames against a serving socket ----------------

#[test]
fn an_oversized_frame_announcement_is_refused_typed_and_the_server_survives() {
    let dir = tmp_dir("oversized");
    let server = start(&dir, FaultPlan::none(), 64);

    // Announce a frame just past the cap; send no payload.  The server must
    // refuse *before* allocating the announced size.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&((MAX_FRAME as u32) + 1).to_le_bytes())
        .expect("write length prefix");
    let payload = read_frame(&mut raw)
        .expect("typed refusal frame")
        .expect("response before close");
    match Response::decode(&payload).expect("refusal decodes") {
        Response::Error(ServeError::Protocol(msg)) => {
            assert!(msg.contains("bytes"), "refusal names the size: {msg}")
        }
        other => panic!("expected a protocol refusal, got {other:?}"),
    }

    // The listener is unaffected: a fresh client gets full service.
    let mut c = client(&server);
    c.create_tenant("after", "count_min", 1).expect("create");
    assert!(c.ingest("after", 0, &[3, 3]).expect("ingest"));
    assert_eq!(
        c.query("after", Query::Point(3)).expect("query"),
        Answer::Scalar(2.0)
    );
    server.stop().expect("stop");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_and_truncated_frames_get_typed_errors_without_killing_the_connection() {
    let dir = tmp_dir("garbage");
    let server = start(&dir, FaultPlan::none(), 64);

    // A well-framed garbage payload: typed error, connection stays usable.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_frame(&mut raw, b"definitely not an FSCS record").expect("send garbage");
    let payload = read_frame(&mut raw).expect("frame").expect("response");
    assert!(
        matches!(
            Response::decode(&payload).expect("decodes"),
            Response::Error(ServeError::Protocol(_))
        ),
        "garbage must get a typed protocol error"
    );
    // Same connection, now a valid request: the server re-synchronized.
    write_frame(&mut raw, &Request::Shutdown.encode()).expect("still framed");
    let payload = read_frame(&mut raw).expect("frame").expect("response");
    assert_eq!(Response::decode(&payload).expect("decodes"), Response::Ok);
    server.join();

    // A frame torn mid-payload (peer dies): the server drops the connection and
    // keeps serving others.
    let dir = tmp_dir("torn-frame");
    let server = start(&dir, FaultPlan::none(), 64);
    {
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.write_all(&100u32.to_le_bytes()).expect("announce 100");
        raw.write_all(&[0xAB; 10]).expect("send only 10");
        // Drop: half-closed mid-frame.
    }
    let mut c = client(&server);
    c.create_tenant("still-up", "count_min", 1).expect("create");
    assert!(c.ingest("still-up", 0, &[9]).expect("ingest"));
    server.stop().expect("stop");
    let _ = std::fs::remove_dir_all(&dir);
}

// --- the recovery law ---------------------------------------------------------

/// Kill mid-ingest, restart, and the server answers exactly like a twin that
/// saw every acked batch: the chain restores the checkpointed prefix and the
/// write-ahead journal replays the acked suffix — no client-side replay, and
/// duplicate re-sends are refused.
#[test]
fn a_restart_after_crash_answers_like_the_truncated_twin_and_replay_converges() {
    let dir = tmp_dir("recovery-law");
    let batches = batches(5, 64, 0xC4A5);
    let twin = |upto: usize| twin_answers(&batches[..upto]);

    let server = start(&dir, FaultPlan::seeded(1).with_crash_frame(), 64);
    let mut c = client(&server);
    c.create_tenant("t0", "count_min", 2).expect("create");
    for seq in 0..3u64 {
        assert!(c.ingest("t0", seq, &batches[seq as usize]).expect("ingest"));
    }
    c.checkpoint("t0").expect("checkpoint at seq 3");
    for seq in 3..5u64 {
        assert!(c.ingest("t0", seq, &batches[seq as usize]).expect("ingest"));
    }
    c.crash(); // batches 3..5 were acked but never checkpointed: journal only
    server.join();

    let (server, report) = restart(&dir);
    assert_eq!(report.recovered(), 1, "t0 comes back: {report}");
    assert!(
        report.is_clean(),
        "a crash damages nothing on disk: {report}"
    );
    assert_eq!(
        report.total_wal_replayed(),
        2,
        "the journal holds the acked suffix: {report}"
    );

    let mut c = client(&server);
    assert_eq!(
        served_answers(&mut c, "t0"),
        twin(5),
        "restart must answer as the full 5-batch twin: chain prefix + journal suffix"
    );

    // The cursor covers the replayed batches; re-sends of acked seqs are
    // refused — the client has nothing to replay.
    assert_eq!(c.stats("t0").expect("stats").next_seq, 5);
    for seq in 2..5u64 {
        assert!(
            !c.ingest("t0", seq, &batches[seq as usize])
                .expect("duplicate resend"),
            "acked batch {seq} must not re-apply after recovery"
        );
    }
    assert_eq!(
        served_answers(&mut c, "t0"),
        twin(5),
        "duplicate re-sends must not change answers"
    );

    // The Status frame reports the same recovery the report did.
    let status = c.status().expect("status");
    assert_eq!(status.failed_tenants, 0);
    assert_eq!(status.tenants.len(), 1);
    let t0 = &status.tenants[0];
    assert!(t0.recovered);
    assert_eq!(t0.next_seq, 5);
    assert_eq!(t0.wal_replayed, 2);
    assert_eq!(t0.wal_truncated_bytes, 0);
    server.stop().expect("stop");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The chain tip is damaged two ways: the third durable write (the delta
/// after seq 1) tears mid-write and the server crashes, or the newest delta
/// file gets one byte flipped after a clean stop.  Either way recovery falls
/// back to the newest valid chain prefix, discarding the damaged delta and
/// anything chained onto it.  A torn write stops journal truncation, so the
/// journal still holds every acked batch and the restart answers like the full
/// twin; after a clean stop the journal is empty, and the client replays the
/// tail past the fallback point.  Either way a re-sent survivor is refused
/// and the tenant ends equal to the full twin.
#[test]
fn a_damaged_chain_tip_falls_back_and_every_batch_comes_back() {
    let work = batches(3, 128, 0xF14_5EED);
    // (damage, faults, expected (epoch, next_seq, discarded) after restart)
    for (damage, faults, expected) in [
        (
            "torn-checkpoint-write",
            FaultPlan::seeded(0xA11)
                .with_torn_write(3)
                .with_crash_frame(),
            (1, 3, 2),
        ),
        ("corrupt-chain-tip", FaultPlan::none(), (2, 2, 1)),
    ] {
        let dir = tmp_dir(damage);
        let server = start(&dir, faults, 64);
        let mut c = client(&server);
        c.create_tenant("t0", "count_min", 2).expect("create");
        for (seq, batch) in work.iter().enumerate() {
            assert!(c.ingest("t0", seq as u64, batch).expect("ingest"));
            c.checkpoint("t0").expect("checkpoint");
        }
        if damage == "corrupt-chain-tip" {
            server.stop().expect("stop");
            let tip = std::fs::read_dir(dir.join("t0"))
                .expect("tenant dir")
                .map(|e| e.expect("entry").path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("delta-"))
                })
                .max()
                .expect("a delta on disk");
            let mut bytes = std::fs::read(&tip).expect("read tip");
            flip_one_byte(&mut bytes, 0xBAD_71B);
            std::fs::write(&tip, &bytes).expect("write tip");
        } else {
            c.crash();
            server.join();
        }

        let (server, report) = restart(&dir);
        assert_eq!(
            recovered(&report, "t0"),
            Some(expected),
            "{damage}: {report}"
        );
        let next_seq = expected.1 as usize;
        let mut c = client(&server);
        assert_eq!(
            served_answers(&mut c, "t0"),
            twin_answers(&work[..next_seq]),
            "{damage}: the restart answers as the twin of what it recovered"
        );
        assert!(
            !c.ingest("t0", next_seq as u64 - 1, &work[next_seq - 1])
                .expect("duplicate resend"),
            "{damage}: a recovered batch must not re-apply"
        );
        for (seq, batch) in work.iter().enumerate().skip(next_seq) {
            assert!(c.ingest("t0", seq as u64, batch).expect("replay"));
        }
        assert_eq!(
            served_answers(&mut c, "t0"),
            twin_answers(&work),
            "{damage}: replay converges to the full twin"
        );
        server.stop().expect("stop");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every connection dies after three answered frames — after the request took
/// effect, before its response — so retries meet batches that already landed.
/// One sequence-numbered client and a two-connection load generator must both
/// converge to exactly-once: cursors at the batches sent, every batch acked
/// once as applied or as a duplicate, and answers equal to the twin.
#[test]
fn dropped_connections_converge_to_exactly_once() {
    let dir = tmp_dir("dropped");
    let server = start(
        &dir,
        FaultPlan::seeded(0xD0D0).with_drop_after_frames(3),
        64,
    );
    let work = batches(6, 128, 0xD0D0);
    let mut c = client(&server);
    c.create_tenant("t0", "count_min", 2).expect("create");
    for (seq, batch) in work.iter().enumerate() {
        c.ingest("t0", seq as u64, batch)
            .unwrap_or_else(|e| panic!("seq {seq}: {e}"));
    }
    assert!(
        c.counters.reconnects > 1 && c.counters.duplicate_acks >= 1,
        "the drops fired: {:?}",
        c.counters
    );
    assert_eq!(c.stats("t0").expect("stats").next_seq, work.len() as u64);
    assert_eq!(served_answers(&mut c, "t0"), twin_answers(&work));

    let (connections, per_connection) = (2, 10);
    let load = LoadGen {
        connections,
        batches: per_connection,
        batch_size: 64,
        algorithm: "count_min".into(),
        shards: 2,
        universe: 1 << 10,
        seed: 0xF14,
        client: ClientConfig::default(),
    }
    .run(server.addr());
    assert!(load.errors.is_empty(), "{:?}", load.errors);
    assert_eq!(load.completed_connections, connections);
    assert_eq!(
        load.applied_batches + load.duplicate_batches,
        (connections * per_connection) as u64,
        "every batch acked exactly once"
    );
    assert!(
        load.counters.reconnects > connections as u64,
        "the drops fired"
    );
    for i in 0..connections {
        assert_eq!(
            c.stats(&format!("lg-{i}")).expect("stats").next_seq,
            per_connection as u64
        );
    }
    assert!(!server.stopped());
    server.stop().expect("stop");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retried_ingest_never_double_counts() {
    let dir = tmp_dir("idempotent");
    let server = start(&dir, FaultPlan::none(), 64);
    let mut c = client(&server);
    c.create_tenant("t0", "count_min", 1).expect("create");
    assert!(c.ingest("t0", 0, &[5; 10]).expect("first delivery"));
    // The retry (response lost, say): acked, not re-applied.
    assert!(!c.ingest("t0", 0, &[5; 10]).expect("retry"));
    assert_eq!(c.counters.duplicate_acks, 1);
    let stats = c.stats("t0").expect("stats");
    assert_eq!(stats.ingested, 10, "ten items, not twenty");
    assert_eq!(stats.next_seq, 1);
    assert_eq!(
        c.query("t0", Query::Point(5)).expect("query"),
        Answer::Scalar(10.0)
    );
    // A gap is refused typed, not silently reordered.
    match c.request(&Request::Ingest {
        tenant: "t0".into(),
        seq: 7,
        items: vec![1],
    }) {
        Ok(Response::Error(ServeError::SeqGap { expected, found })) => {
            assert_eq!((expected, found), (1, 7));
        }
        other => panic!("expected a typed SeqGap, got {other:?}"),
    }
    server.stop().expect("stop");
    let _ = std::fs::remove_dir_all(&dir);
}

// --- graceful degradation -----------------------------------------------------

#[test]
fn overload_is_shed_typed_while_readers_stay_live() {
    let dir = tmp_dir("overload");
    let stall = Duration::from_millis(300);
    let server = start(&dir, FaultPlan::seeded(9).with_stall_ingest(stall), 1);
    let addr = server.addr();
    let mut c = client(&server);
    c.create_tenant("ta", "count_min", 1).expect("create ta");
    c.create_tenant("tb", "count_min", 1).expect("create tb");
    assert!(c.ingest("ta", 0, &[4, 4, 4]).expect("seed ta"));

    std::thread::scope(|scope| {
        // Writer A occupies the single admission slot (stalled under the lock).
        let slow = scope.spawn(move || {
            let mut c = Client::new(addr, ClientConfig::default());
            c.ingest("ta", 1, &[1, 2, 3]).expect("admitted ingest")
        });
        std::thread::sleep(stall / 4);

        // Writer B, no retries: must be shed with the typed Overloaded.
        let mut b = Client::new(addr, ClientConfig::default());
        let shed = b
            .request_once(&Request::Ingest {
                tenant: "tb".into(),
                seq: 0,
                items: vec![7],
            })
            .expect("request completes");
        assert_eq!(
            shed,
            Response::Error(ServeError::Overloaded),
            "excess ingest is shed typed, not queued"
        );

        // A reader during the stall: served off the cached view, no admission
        // gate, answers promptly.
        let started = std::time::Instant::now();
        assert_eq!(
            b.query("ta", Query::Point(4)).expect("read during stall"),
            Answer::Scalar(3.0)
        );
        assert!(
            started.elapsed() < stall,
            "reads must not queue behind the stalled ingest path"
        );
        assert!(
            slow.join().expect("writer thread"),
            "admitted batch applies"
        );
    });

    // Once the stall clears, the shed writer's retry path gets through.
    let mut b = Client::new(addr, ClientConfig::default());
    assert!(b.ingest("tb", 0, &[7]).expect("retry after shed"));
    server.stop().expect("stop");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_tenant_fails_alone_and_its_neighbors_recover() {
    let dir = tmp_dir("isolation");
    let server = start(&dir, FaultPlan::none(), 64);
    let mut c = client(&server);
    for tenant in ["t-good", "t-bad"] {
        c.create_tenant(tenant, "count_min", 1).expect("create");
        assert!(c.ingest(tenant, 0, &[11, 11]).expect("ingest"));
        c.checkpoint(tenant).expect("checkpoint");
    }
    server.stop().expect("stop");

    // Truncate t-bad's base checkpoint inside the header: unrecoverable.
    let base = dir.join("t-bad").join("base.fscs");
    let bytes = std::fs::read(&base).expect("read base");
    std::fs::write(&base, &bytes[..4]).expect("truncate base");

    let (server, report) = restart(&dir);
    assert_eq!(report.recovered(), 1, "{report}");
    assert_eq!(report.failed(), 1, "{report}");
    let bad = report
        .tenants
        .iter()
        .find(|t| t.tenant == "t-bad")
        .expect("t-bad reported");
    assert!(
        matches!(&bad.outcome, TenantOutcome::Failed { error } if error.contains("base")),
        "typed failure names the damaged artifact: {:?}",
        bad.outcome
    );

    // The survivor serves; the failed tenant is absent, typed.
    let mut c = client(&server);
    assert_eq!(
        c.query("t-good", Query::Point(11))
            .expect("survivor serves"),
        Answer::Scalar(2.0)
    );
    match c.query("t-bad", Query::Point(11)) {
        Err(fsc_serve::ClientError::Server(ServeError::UnknownTenant(name))) => {
            assert_eq!(name, "t-bad")
        }
        other => panic!("expected UnknownTenant for the failed tenant, got {other:?}"),
    }
    server.stop().expect("stop");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_oversized_shard_count_is_refused_typed_and_neighbors_keep_serving() {
    let dir = tmp_dir("shard-bound");
    let server = start(&dir, FaultPlan::none(), 64);
    let mut c = client(&server);
    for tenant in ["neighbor", "bloated"] {
        c.create_tenant(tenant, "count_min", 1).expect("create");
    }
    assert!(c.ingest("neighbor", 0, &[5, 5]).expect("ingest"));

    match c.create_tenant("greedy", "count_min", MAX_TENANT_SHARDS + 1) {
        Err(fsc_serve::ClientError::Server(ServeError::Protocol(msg))) => {
            assert!(msg.contains("maximum"), "refusal names the bound: {msg}")
        }
        other => panic!("expected a typed shard-count refusal, got {other:?}"),
    }
    match c.query("greedy", Query::Point(5)) {
        Err(fsc_serve::ClientError::Server(ServeError::UnknownTenant(name))) => {
            assert_eq!(name, "greedy", "a refused create provisions nothing")
        }
        other => panic!("expected UnknownTenant for the refused tenant, got {other:?}"),
    }
    assert!(c.ingest("neighbor", 1, &[5]).expect("ingest after refusal"));
    server.stop().expect("stop");

    // A meta record over the bound fails its tenant alone at recovery, before
    // any summary is built.
    let meta = TenantMeta {
        algorithm: "count_min".into(),
        shards: MAX_TENANT_SHARDS + 1,
    };
    std::fs::write(dir.join("bloated").join("meta.fscs"), meta.encode()).expect("rewrite meta");
    let (server, report) = restart(&dir);
    assert_eq!(report.recovered(), 1, "{report}");
    assert_eq!(report.failed(), 1, "{report}");
    assert!(
        report.tenants.iter().any(|t| t.tenant == "bloated"
            && matches!(&t.outcome, TenantOutcome::Failed { error } if error.contains("maximum"))),
        "{report}"
    );
    assert_eq!(
        client(&server)
            .query("neighbor", Query::Point(5))
            .expect("neighbor serves"),
        Answer::Scalar(3.0)
    );
    server.stop().expect("stop");
    let _ = std::fs::remove_dir_all(&dir);
}
