//! The serve workloads: one generator process drives a separate `fsc_serve`
//! over loopback TCP.  Every request is timed both from its actual send and
//! from its planned send time.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fsc_serve::{Client, ClientError};
use fsc_state::{Answer, Query};

use crate::kernel;
use crate::replay::{replay, Plan, Replayed};
use crate::report::{Metric, Outcome};
use crate::server::{client_config, ServerProc};
use crate::stats::{windowed, Sample, P99};
use crate::stream::{hot_read, probes, twin, Pool, BATCH};
use crate::trace::{SelfTimes, Tracer};
use crate::Ctx;

/// The tenant every serve workload drives.
pub const TENANT: &str = "bench";

/// Acked batches per window of the closed-loop rate: one checkpoint period
/// of `serve_ingest`, so every window holds one checkpoint and eight group
/// commits.
const RATE_WINDOW: usize = 64;
/// Fewest acked batches in a timed pass, so per-request p99s rest on at least
/// 1000 samples.
const MIN_BATCHES: u64 = 1_000;
/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Paced writer interval: 500 batches/s.
const WRITE_INTERVAL: Duration = Duration::from_micros(2_000);
/// Paced point reads per write interval.
const READS_PER_WRITE: u32 = 4;
/// Share of `--seconds` the traced run spends on its client pass.
const TRACED_PASS_SHARE: f64 = 0.3;

/// How a serve workload's tenant and traffic are configured.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Registry algorithm of the tenant.
    pub algorithm: &'static str,
    /// Shards of the tenant engine.
    pub shards: u32,
    /// A control connection checkpoints after every this many acked batches.
    pub checkpoint_every: Option<u64>,
    /// Writer and reader paced on a schedule (open loop) instead of closed loop.
    pub paced: bool,
}

impl Spec {
    /// Whether a checkpoint follows the ack that moved the cursor to `next_seq`.
    pub fn checkpoint_after(&self, next_seq: u64) -> bool {
        self.checkpoint_every
            .is_some_and(|n| next_seq.is_multiple_of(n))
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What one run's timed traffic measured.
#[derive(Debug, Default)]
struct Pass {
    /// Batches sent (each exactly once from the client's view).
    sent: u64,
    /// Batches acked as applied.
    acked: u64,
    /// Acks of batches the server had already applied.
    duplicates: u64,
    /// Time spent ingesting, in s.
    elapsed: f64,
    /// Ingest latency from the actual send.
    write_us: Vec<f64>,
    /// Ingest latency from the planned send (closed loop: the previous response).
    write_planned_us: Vec<f64>,
    /// Read latency from the actual send.
    read_us: Vec<f64>,
    /// Read latency from the planned send.
    read_planned_us: Vec<f64>,
    /// How late each request left, against its planned send time.
    late_us: Vec<f64>,
    attempted: u64,
    /// Failed, refused or retried requests.
    failed: u64,
    retries: u64,
    errors: Vec<String>,
}

impl Pass {
    /// Sends one request due at `planned` and records how late it left and its
    /// latency from the actual and from the planned send.  Returns the reply
    /// and its arrival, or `None` after recording the failure.
    fn time<T>(
        &mut self,
        planned: Instant,
        read: bool,
        request: impl FnOnce() -> Result<T, ClientError>,
    ) -> Option<(T, Instant)> {
        let sent = Instant::now();
        self.late_us.push(us(sent - planned));
        self.attempted += 1;
        match request() {
            Ok(reply) => {
                let done = Instant::now();
                let (actual, from_plan) = match read {
                    true => (&mut self.read_us, &mut self.read_planned_us),
                    false => (&mut self.write_us, &mut self.write_planned_us),
                };
                actual.push(us(done - sent));
                from_plan.push(us(done - planned));
                Some((reply, done))
            }
            Err(e) => {
                self.failed += 1;
                let what = if read { "read" } else { "ingest" };
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }

    fn absorb(&mut self, client: &Client) {
        self.failed += client.counters.retried_requests;
        self.retries += client.counters.retries;
    }

    fn merge(&mut self, other: Pass) {
        self.read_us.extend(other.read_us);
        self.read_planned_us.extend(other.read_planned_us);
        self.late_us.extend(other.late_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retries += other.retries;
        self.errors.extend(other.errors);
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// A connection whose set-up (connect, and the server's accept poll) is paid
/// by an untimed request before any timed one.
fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut client = Client::new(addr, client_config());
    client
        .stats(TENANT)
        .map_err(|e| format!("warming a connection: {e}"))?;
    Ok(client)
}

/// Closed loop: each batch leaves as soon as the previous one is acked, so its
/// planned send time is the previous ack.  A control connection checkpoints
/// every `checkpoint_every` acks.
fn closed_loop(
    addr: SocketAddr,
    spec: &Spec,
    pool: &Pool,
    window: Duration,
) -> Result<Pass, String> {
    let (tick, ticks) = mpsc::channel::<()>();
    let control_client = spec.checkpoint_every.map(|_| connect(addr)).transpose()?;
    let mut client = connect(addr)?;
    Ok(std::thread::scope(|scope| {
        let control = control_client.map(|mut client| {
            scope.spawn(move || {
                let mut control = Pass::default();
                for () in ticks {
                    control.attempted += 1;
                    if let Err(e) = client.checkpoint(TENANT) {
                        control.failed += 1;
                        control.errors.push(format!("checkpoint: {e}"));
                    }
                }
                control.absorb(&client);
                control
            })
        });
        let mut pass = Pass::default();
        let start = Instant::now();
        let mut planned = start;
        while start.elapsed() < window || pass.acked < MIN_BATCHES {
            let seq = pass.sent;
            pass.sent += 1;
            match pass.time(planned, false, || {
                client.ingest(TENANT, seq, pool.batch(seq))
            }) {
                Some((applied, done)) => {
                    pass.acked += u64::from(applied);
                    pass.duplicates += u64::from(!applied);
                    planned = done;
                }
                None => break,
            }
            if spec.checkpoint_after(pass.sent) {
                let _ = tick.send(());
            }
        }
        pass.elapsed = (planned - start).as_secs_f64();
        drop(tick);
        pass.absorb(&client);
        if let Some(control) = control {
            pass.merge(control.join().expect("control thread"));
        }
        pass
    }))
}

/// Open loop: the writer sends on a fixed schedule and the reader sends
/// [`READS_PER_WRITE`] point reads per write interval.  Both connections are
/// warmed before the schedule starts.
fn paced(addr: SocketAddr, pool: &Pool, window: Duration) -> Result<Pass, String> {
    let mut writer = connect(addr)?;
    let mut reader = connect(addr)?;
    let writer_done = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(2);
    Ok(std::thread::scope(|scope| {
        let reads = scope.spawn(|| {
            let mut pass = Pass::default();
            let interval = WRITE_INTERVAL / READS_PER_WRITE;
            for j in 0u32.. {
                if writer_done.load(Ordering::SeqCst) {
                    break;
                }
                let planned = start + interval * j;
                sleep_until(planned);
                if pass
                    .time(planned, true, || reader.query(TENANT, hot_read(j as u64)))
                    .is_none()
                {
                    break;
                }
            }
            pass.absorb(&reader);
            pass
        });
        let mut pass = Pass::default();
        let mut last = start;
        for k in 0u32.. {
            let planned = start + WRITE_INTERVAL * k;
            if planned - start >= window && pass.acked >= MIN_BATCHES {
                break;
            }
            let seq = pass.sent;
            pass.sent += 1;
            sleep_until(planned);
            match pass.time(planned, false, || {
                writer.ingest(TENANT, seq, pool.batch(seq))
            }) {
                Some((applied, done)) => {
                    pass.acked += u64::from(applied);
                    pass.duplicates += u64::from(!applied);
                    last = done;
                }
                None => break,
            }
        }
        pass.elapsed = (last - start).as_secs_f64();
        writer_done.store(true, Ordering::SeqCst);
        pass.absorb(&writer);
        pass.merge(reads.join().expect("reader thread"));
        pass
    }))
}

/// The probe answers over the wire, and the round trip of each point probe in µs.
fn answers_over_wire(addr: SocketAddr) -> Result<(Vec<Answer>, Vec<f64>), String> {
    let mut client = connect(addr)?;
    let mut rtt_us = Vec::new();
    let answers = probes()
        .into_iter()
        .map(|q| {
            let began = Instant::now();
            let answer = client
                .query(TENANT, q.clone())
                .map_err(|e| format!("probe: {e}"));
            if matches!(q, Query::Point(_)) {
                rtt_us.push(us(began.elapsed()));
            }
            answer
        })
        .collect::<Result<_, _>>()?;
    Ok((answers, rtt_us))
}

/// Bytes of checkpoint delta files in a tenant directory.
fn delta_file_bytes(tenant_dir: &Path) -> u64 {
    std::fs::read_dir(tenant_dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".fscd"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Starts the server `starts` times on fresh data dirs and keeps the last
/// one.  Set-up time runs from spawn to the first successful response, the
/// tenant's creation.
fn start(ctx: &Ctx, spec: &Spec, starts: usize) -> Result<(ServerProc, PathBuf, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(starts);
    for i in 0..starts {
        let dir = ctx.data.join(format!("server-{i}"));
        let began = Instant::now();
        let server = ServerProc::spawn(&ctx.server, &dir)?;
        let mut client = Client::new(server.addr(), client_config());
        client
            .create_tenant(TENANT, spec.algorithm, spec.shards)
            .map_err(|e| format!("create tenant: {e}"))?;
        setups.push(began.elapsed().as_secs_f64());
        if i + 1 == starts {
            return Ok((server, dir, setups));
        }
        server.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }
    Err("no server started".into())
}

/// One served run: set-up, the timed traffic, and the output checks.
struct Session {
    setups: Vec<f64>,
    pass: Pass,
    /// Probe answers over the wire at the end.
    answers: Vec<Answer>,
    /// Round trips of the point probes, in µs.
    probe_rtt_us: Vec<f64>,
    /// The tenant's state changes per acked item, from its registry twin.
    state_changes_per_item: f64,
    durable_bytes_per_item: f64,
    failures: Vec<String>,
}

fn session(
    ctx: &Ctx,
    spec: &Spec,
    pool: &Pool,
    window: Duration,
    starts: usize,
) -> Result<Session, String> {
    let mut failures = Vec::new();
    let (server, dir, setups) = start(ctx, spec, starts)?;
    let addr = server.addr();

    let pass = if spec.paced {
        paced(addr, pool, window)?
    } else {
        closed_loop(addr, spec, pool, window)?
    };

    let stats = Client::new(addr, client_config())
        .stats(TENANT)
        .map_err(|e| format!("stats: {e}"))?;
    if stats.next_seq != pass.sent || pass.duplicates != 0 || pass.acked != pass.sent {
        failures.push(format!(
            "ack accounting: server cursor {} after {} sent, {} acked, {} duplicate acks",
            stats.next_seq, pass.sent, pass.acked, pass.duplicates
        ));
    }
    let (answers, probe_rtt_us) = answers_over_wire(addr)?;
    let (twin_answers, twin_report) = twin(spec.algorithm, spec.shards, pool, pass.acked);
    if answers != twin_answers {
        failures.push("answers over the wire differ from the registry twin".into());
    }
    let status = Client::new(addr, client_config())
        .status()
        .map_err(|e| format!("status: {e}"))?;
    let wal_bytes: u64 = status.tenants.iter().map(|t| t.wal_appended_bytes).sum();
    let written = wal_bytes + delta_file_bytes(&dir.join(TENANT));
    failures.extend(pass.errors.iter().cloned());
    server.shutdown()?;
    let items = (pass.acked * BATCH as u64).max(1) as f64;
    Ok(Session {
        setups,
        state_changes_per_item: twin_report.state_changes as f64 / items,
        durable_bytes_per_item: written as f64 / items,
        pass,
        answers,
        probe_rtt_us,
        failures,
    })
}

fn p99_or_fail(sample: &Sample, what: &str, failures: &mut Vec<String>) -> f64 {
    sample.backed(P99).unwrap_or_else(|| {
        failures.push(format!(
            "{what}: {} samples cannot back a p99",
            sample.len()
        ));
        sample.at(P99).unwrap_or(0.0)
    })
}

/// The untraced run: every end-to-end metric.
///
/// The gated figures are medians over the whole run.  On the benchmark host
/// they spread least across runs: a fast-decile window spread four to five
/// times as much, because the host's slow stretches are seconds to minutes
/// long.
pub fn e2e(ctx: &Ctx, spec: &Spec, pool: &Pool) -> Result<Outcome, String> {
    let s = session(ctx, spec, pool, ctx.window, SETUPS)?;
    let mut failures = s.failures;
    let whole_rate = (s.pass.acked * BATCH as u64) as f64 / s.pass.elapsed;
    let writes = Sample::new(s.pass.write_planned_us.clone());
    let reads = Sample::new(s.pass.read_planned_us.clone());
    // A paced writer's rate is its schedule: a sanity check that moves only
    // if the server falls behind.  A closed loop's planned-send latencies
    // tile its ingest time, so they give each window's rate.
    let (items_per_s, rate_note) = match spec.paced {
        true => (Some(whole_rate), "the paced schedule".to_string()),
        false => (
            windowed(&s.pass.write_planned_us, RATE_WINDOW, 5_000, |w| {
                Some((RATE_WINDOW * BATCH) as f64 * 1e6 / w.sum())
            }),
            format!(
                "median of {} windows of {RATE_WINDOW} acks",
                s.pass.write_planned_us.len() / RATE_WINDOW
            ),
        ),
    };
    let (latency, latency_note) = match spec.paced {
        true => (&reads, "point reads from the planned send"),
        false => (&writes, "ingest acks"),
    };
    let gated = vec![
        Metric::new(
            "setup_s",
            Sample::new(s.setups.clone()).p50().unwrap_or(0.0),
            "s",
            format!("median of {} server starts", s.setups.len()),
        ),
        Metric::new(
            "items_per_s",
            items_per_s.unwrap_or_else(|| {
                failures.push("no full window to rate".into());
                0.0
            }),
            "items/s",
            rate_note,
        ),
        Metric::new(
            "latency_p50_us",
            latency.p50().unwrap_or(0.0),
            "us",
            format!("{latency_note}, n = {}", latency.len()),
        ),
        Metric::new(
            "state_changes_per_item",
            s.state_changes_per_item,
            "count/item",
            "the registry twin's, exact".into(),
        ),
    ];
    let mut shown = vec![Metric::new(
        "items_per_s (whole run)",
        whole_rate,
        "items/s",
        format!("{} batches acked in {:.3} s", s.pass.acked, s.pass.elapsed),
    )];
    // Latencies from the planned send time (see README.md).
    let mut planned = vec![("ingest", &writes)];
    if spec.paced {
        planned.push(("query", &reads));
    }
    for (what, sample) in planned {
        let actual = Sample::new(match what {
            "ingest" => s.pass.write_us.clone(),
            _ => s.pass.read_us.clone(),
        });
        shown.push(Metric::new(
            &format!("{what} latency p50 from the actual send"),
            actual.p50().unwrap_or(0.0),
            "us",
            format!("n = {}", actual.len()),
        ));
        let note = format!("from the planned send, n = {}", sample.len());
        shown.push(Metric::new(
            &format!("{what}_p50_us"),
            sample.p50().unwrap_or(0.0),
            "us",
            note.clone(),
        ));
        let p99 = p99_or_fail(sample, what, &mut failures);
        shown.push(Metric::new(&format!("{what}_p99_us"), p99, "us", note));
        shown.push(Metric::tail(&format!("{what} latency"), sample, "us"));
    }
    let late = Sample::new(s.pass.late_us.clone());
    shown.extend([
        Metric::new(
            "durable_bytes_per_item",
            s.durable_bytes_per_item,
            "B/item",
            "journal bytes appended since boot + new delta files".into(),
        ),
        Metric::new(
            "error_rate",
            s.pass.failed as f64 / s.pass.attempted.max(1) as f64,
            "fraction",
            format!("{} of {} requests", s.pass.failed, s.pass.attempted),
        ),
        Metric::new(
            "loadgen.late_p99_us",
            late.at(P99).unwrap_or(0.0),
            "us",
            format!("n = {}", late.len()),
        ),
    ]);
    Ok(Outcome {
        gated,
        shown,
        attempted: s.pass.attempted,
        failed: s.pass.failed,
        failures,
    })
}

/// The traced run: a short untraced client pass for the network-side
/// metrics, then the in-process replay of exactly the acked sequence (traced
/// and untraced), then one kernel pass (traced and untraced).
pub fn traced(ctx: &Ctx, spec: &Spec, pool: &Pool) -> Result<Outcome, String> {
    let window = ctx.window.mul_f64(TRACED_PASS_SHARE);
    let s = session(ctx, spec, pool, window, 1)?;
    let mut failures = s.failures;
    let plan = Plan {
        spec,
        pool,
        batches: s.pass.acked,
        reads_per_batch: if spec.paced {
            READS_PER_WRITE as u64
        } else {
            0
        },
    };
    let mut tracer = Tracer::new(true);
    let on = replay(&plan, &ctx.data.join("replay-traced"), &mut tracer)?;
    let off = replay(
        &plan,
        &ctx.data.join("replay-untraced"),
        &mut Tracer::new(false),
    )?;
    for (what, r) in [("traced", &on), ("untraced", &off)] {
        if r.answers != s.answers {
            failures.push(format!(
                "{what} replay answers differ from the served tenant's"
            ));
        }
    }
    let (kernel_traced, kernel_untraced) = kernel::traced_pair(pool, &mut tracer);
    failures.extend(kernel_traced.failures.iter().cloned());

    let times = tracer.self_times();
    let mut gated = layer_metrics(&times, &on, &mut failures);
    gated.extend(kernel::layer_metrics(&kernel_traced, &kernel_untraced));

    let served_writes = Sample::new(s.pass.write_us.clone());
    let probe_rtt = Sample::new(s.probe_rtt_us.clone());
    let late = Sample::new(s.pass.late_us.clone());
    let layer_time = Sample::new(tracer.layer_time_per_request("request.ingest"));
    let serve_time = Sample::new(
        times
            .get(&("request.query", "view.serve"))
            .cloned()
            .unwrap_or_default(),
    );
    let layer_p50 = layer_time.p50().unwrap_or(0.0);
    gated.extend([
        Metric::new(
            "request.layer_us.p50",
            layer_p50,
            "us",
            format!("n = {}", layer_time.len()),
        ),
        Metric::new(
            "net.query_rtt_us",
            probe_rtt.p50().unwrap_or(0.0) - serve_time.p50().unwrap_or(0.0),
            "us",
            format!("point-probe round trip p50 over n = {}", probe_rtt.len()),
        ),
        Metric::new(
            "net.residual_us",
            served_writes.p50().unwrap_or(0.0) - layer_p50,
            "us",
            format!("served ingest p50 over n = {}", served_writes.len()),
        ),
        Metric::new("net.retries", s.pass.retries as f64, "count", String::new()),
        Metric::new(
            "loadgen.late_p99_us",
            p99_or_fail(&late, "generator lateness", &mut failures),
            "us",
            format!("n = {}", late.len()),
        ),
        Metric::new(
            "trace.overhead_ratio",
            on.elapsed / off.elapsed,
            "ratio",
            format!("traced {:.3} s / untraced {:.3} s", on.elapsed, off.elapsed),
        ),
    ]);
    let spans = ctx
        .out
        .join(format!("spans-{}-{}.csv", ctx.workload, ctx.seed));
    tracer
        .write_csv(&spans)
        .map_err(|e| format!("writing spans: {e}"))?;
    let shown = vec![Metric::new(
        "spans",
        tracer.len() as f64,
        "count",
        format!("written to {}", spans.display()),
    )];
    Ok(Outcome {
        gated,
        shown,
        attempted: s.pass.attempted,
        failed: s.pass.failed,
        failures,
    })
}

/// Timed layers: (metric, root span, layer span, whether a p99 is reported).
const TIMED_LAYERS: [(&str, &str, &str, bool); 17] = [
    (
        "protocol.decode_us",
        "request.ingest",
        "protocol.decode",
        true,
    ),
    (
        "protocol.encode_us",
        "request.ingest",
        "protocol.encode",
        true,
    ),
    ("wal.append_us", "request.ingest", "wal.append", true),
    ("wal.fsync_us", "request.ingest", "wal.fsync", false),
    ("engine.ingest_us", "request.ingest", "engine.ingest", true),
    ("view.refresh_us", "request.ingest", "view.refresh", true),
    ("view.serve_us", "request.query", "view.serve", false),
    (
        "checkpoint.snapshot_us",
        "request.checkpoint",
        "checkpoint.snapshot",
        false,
    ),
    (
        "checkpoint.delta_us",
        "request.checkpoint",
        "checkpoint.delta",
        false,
    ),
    (
        "checkpoint.chain_us",
        "request.checkpoint",
        "checkpoint.chain",
        false,
    ),
    (
        "checkpoint.write_us",
        "request.checkpoint",
        "checkpoint.write",
        false,
    ),
    (
        "checkpoint.truncate_us",
        "request.checkpoint",
        "checkpoint.truncate",
        false,
    ),
    (
        "recovery.load_us",
        "request.recover",
        "recovery.load",
        false,
    ),
    (
        "recovery.replay_us",
        "request.recover",
        "recovery.replay",
        false,
    ),
    (
        "kernel.fshh.batch_us",
        "request.kernel",
        "kernel.fshh",
        true,
    ),
    ("kernel.fp.batch_us", "request.kernel", "kernel.fp", true),
    (
        "kernel.countmin.batch_us",
        "request.kernel",
        "kernel.countmin",
        true,
    ),
];

/// Per-layer timings (`.p50`, `.p99` where backed by design, `.n`) and counts.
fn layer_metrics(times: &SelfTimes, r: &Replayed, failures: &mut Vec<String>) -> Vec<Metric> {
    let mut out = Vec::new();
    for (metric, root, layer, with_p99) in TIMED_LAYERS {
        let sample = Sample::new(times.get(&(root, layer)).cloned().unwrap_or_default());
        if sample.len() == 0 {
            failures.push(format!("no {layer} spans under {root}"));
        }
        out.push(Metric::new(
            &format!("{metric}.p50"),
            sample.p50().unwrap_or(0.0),
            "us",
            String::new(),
        ));
        if with_p99 {
            let p99 = p99_or_fail(&sample, metric, failures);
            out.push(Metric::new(
                &format!("{metric}.p99"),
                p99,
                "us",
                String::new(),
            ));
        }
        out.push(Metric::new(
            &format!("{metric}.n"),
            sample.len() as f64,
            "count",
            String::new(),
        ));
    }
    let per = |num: f64, den: u64| num / den.max(1) as f64;
    let deltas = Sample::new(r.delta_bytes.clone());
    out.extend([
        Metric::new(
            "wal.fsyncs_per_ack",
            per(r.fsyncs as f64, r.ingests),
            "count/ack",
            String::new(),
        ),
        Metric::new(
            "wal.bytes_per_item",
            per(r.wal_bytes as f64, r.items),
            "B/item",
            String::new(),
        ),
        Metric::new(
            "view.rebuilds_per_batch",
            per(r.rebuilds as f64, r.ingests),
            "count/batch",
            String::new(),
        ),
        Metric::new(
            "view.unread_rebuild_ratio",
            per(r.unread_rebuilds as f64, r.rebuilds),
            "ratio",
            String::new(),
        ),
        Metric::new(
            "checkpoint.delta_bytes",
            deltas.p50().unwrap_or(0.0),
            "B",
            format!("median of {}", deltas.len()),
        ),
    ]);
    out
}
