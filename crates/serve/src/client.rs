//! The resilient client: per-request timeouts, bounded retries with jittered
//! exponential backoff, reconnects, and idempotent ingest — plus the
//! multi-connection load generator the saturation sweep runs.
//!
//! # Why retries are safe
//!
//! Every ingest batch carries a caller-chosen sequence number and the server
//! applies a batch **iff** its number equals the tenant's cursor.  The failure
//! a retry papers over is always one of:
//!
//! * the request never arrived → the cursor didn't move → the retry applies
//!   (acks `applied = true`);
//! * the request applied but the response was lost → the cursor moved past the
//!   batch → the retry is acknowledged **without** re-applying
//!   (`applied = false`).
//!
//! Either way the batch lands exactly once, and [`Client::ingest`] reports
//! which case happened.  Queries and stats are read-only, checkpoints are
//! no-ops when nothing changed — every request the client retries is
//! idempotent.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use fsc_state::{Answer, Query};

use crate::faults::splitmix64;
use crate::protocol::{
    read_frame, write_frame, FrameError, Request, Response, ServeError, ServerStatus, TenantStats,
};

/// Client resilience knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Per-request timeout (covers connect, send, and the response wait).
    pub timeout: Duration,
    /// Retries after the first attempt (total attempts = `retries + 1`).
    pub retries: u32,
    /// Base backoff before the first retry; doubles per retry, with seeded
    /// jitter of up to one base added, capped at 500 ms.
    pub backoff: Duration,
    /// Jitter seed (deterministic per client).
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            timeout: Duration::from_millis(500),
            retries: 5,
            backoff: Duration::from_millis(5),
            seed: 0x5EED,
        }
    }
}

/// What a request ultimately failed with (after retries, where applicable).
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure on a non-retryable path, or retries exhausted on I/O.
    Io(io::Error),
    /// The server's bytes did not parse, or the response type was impossible
    /// for the request.
    Protocol(String),
    /// The server answered a typed, non-retryable error.
    Server(ServeError),
    /// All attempts failed; `last` stringifies the final failure.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// The last failure.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client transport: {e}"),
            ClientError::Protocol(msg) => write!(f, "client protocol: {msg}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Counters a client accumulates across its lifetime (drill assertions read
/// these: "the retry path actually fired").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Requests that needed at least one retry.
    pub retried_requests: u64,
    /// Total retry attempts.
    pub retries: u64,
    /// `Overloaded` responses absorbed by backoff.
    pub overloaded: u64,
    /// Connections established (the first connect counts; anything above 1 is a
    /// reconnect after a dead or dropped connection).
    pub reconnects: u64,
    /// Ingest acks with `applied = false` (retried batches whose first copy
    /// landed — the exactly-once evidence).
    pub duplicate_acks: u64,
}

/// A connection to one server, with resilience built in.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<TcpStream>,
    rng: u64,
    /// Lifetime counters.
    pub counters: ClientCounters,
}

impl Client {
    /// Creates a client for `addr` (connects lazily on first use).
    pub fn new(addr: SocketAddr, config: ClientConfig) -> Self {
        Self {
            addr,
            config,
            stream: None,
            rng: config.seed ^ 0x9E37_79B9_7F4A_7C15,
            counters: ClientCounters::default(),
        }
    }

    fn ensure_stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.config.timeout)?;
            stream.set_read_timeout(Some(self.config.timeout))?;
            stream.set_write_timeout(Some(self.config.timeout))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just ensured"))
    }

    /// One attempt, no retries: send `request`, wait for one response frame.
    /// Any transport failure poisons the connection (the next attempt
    /// reconnects).
    pub fn request_once(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send_once(&request.encode())
    }

    /// [`Client::request_once`] for an encoded request payload.
    fn send_once(&mut self, payload: &[u8]) -> Result<Response, ClientError> {
        let result = self.send_once_inner(payload);
        if matches!(result, Err(ClientError::Io(_))) {
            self.stream = None;
        }
        result
    }

    fn send_once_inner(&mut self, payload: &[u8]) -> Result<Response, ClientError> {
        if self.stream.is_none() {
            self.counters.reconnects += 1;
        }
        self.ensure_stream().map_err(ClientError::Io)?;
        let stream = self.stream.as_mut().expect("ensured");
        write_frame(stream, payload).map_err(ClientError::Io)?;
        match read_frame(stream) {
            Ok(Some(payload)) => {
                Response::decode(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
            }
            Ok(None) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before responding",
            ))),
            Err(FrameError::Idle) | Err(FrameError::Io(_)) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "response timed out",
            ))),
            Err(FrameError::Truncated) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "response truncated",
            ))),
            Err(FrameError::Oversized { announced }) => Err(ClientError::Protocol(format!(
                "server announced a {announced}-byte frame"
            ))),
        }
    }

    /// Sends with bounded retries: transport failures and `Overloaded` back off
    /// (exponential, seeded jitter) and retry; every other response returns.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(&request.encode())
    }

    /// [`Client::request`] for an encoded request payload, encoded once for
    /// every attempt.
    fn send(&mut self, payload: &[u8]) -> Result<Response, ClientError> {
        let attempts = self.config.retries + 1;
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                self.counters.retries += 1;
                if attempt == 1 {
                    self.counters.retried_requests += 1;
                }
                std::thread::sleep(self.backoff_delay(attempt));
            }
            match self.send_once(payload) {
                Ok(Response::Error(ServeError::Overloaded)) => {
                    self.counters.overloaded += 1;
                    last = ServeError::Overloaded.to_string();
                }
                Ok(response) => return Ok(response),
                Err(ClientError::Io(e)) => last = e.to_string(),
                Err(fatal) => return Err(fatal),
            }
        }
        Err(ClientError::RetriesExhausted { attempts, last })
    }

    /// Backoff before retry `attempt` (1-based): `base · 2^(attempt-1)` plus up
    /// to one extra base of seeded jitter, capped at 500 ms.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let base = self.config.backoff.max(Duration::from_micros(100));
        let exp = base.saturating_mul(1u32 << (attempt - 1).min(10));
        let jitter_us = splitmix64(&mut self.rng) % (base.as_micros().max(1) as u64);
        (exp + Duration::from_micros(jitter_us)).min(Duration::from_millis(500))
    }

    fn expect_ok(&mut self, request: &Request) -> Result<(), ClientError> {
        match self.request(request)? {
            Response::Ok => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// Provisions a tenant.
    pub fn create_tenant(
        &mut self,
        tenant: &str,
        algorithm: &str,
        shards: u32,
    ) -> Result<(), ClientError> {
        self.expect_ok(&Request::CreateTenant {
            tenant: tenant.into(),
            algorithm: algorithm.into(),
            shards,
        })
    }

    /// Ingests one batch under `seq`.  Returns whether this call applied it
    /// (`false` = a retried duplicate had already landed; either way the batch
    /// is in exactly once).
    pub fn ingest(&mut self, tenant: &str, seq: u64, items: &[u64]) -> Result<bool, ClientError> {
        match self.send(&Request::encode_ingest(tenant, seq, items))? {
            Response::IngestAck { applied, .. } => {
                if !applied {
                    self.counters.duplicate_acks += 1;
                }
                Ok(applied)
            }
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// Asks a typed query.
    pub fn query(&mut self, tenant: &str, query: Query) -> Result<Answer, ClientError> {
        let request = Request::Query {
            tenant: tenant.into(),
            query,
        };
        match self.request(&request)? {
            Response::Answer(a) => Ok(a),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// Forces a durable checkpoint of `tenant`.
    pub fn checkpoint(&mut self, tenant: &str) -> Result<(), ClientError> {
        self.expect_ok(&Request::Checkpoint {
            tenant: tenant.into(),
        })
    }

    /// Reads tenant counters.
    pub fn stats(&mut self, tenant: &str) -> Result<TenantStats, ClientError> {
        let request = Request::Stats {
            tenant: tenant.into(),
        };
        match self.request(&request)? {
            Response::Stats(s) => Ok(s),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// Reads the server-wide durability status (mode, boot recovery counts,
    /// live journal state per tenant).
    pub fn status(&mut self) -> Result<ServerStatus, ClientError> {
        match self.request(&Request::Status)? {
            Response::Status(s) => Ok(s),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }

    /// Asks the server to checkpoint everything and stop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Shutdown)
    }

    /// Asks an armed server to die without checkpointing (drills only).  The
    /// server stops without responding, so a transport error here is success.
    pub fn crash(&mut self) {
        let _ = self.request_once(&Request::Crash);
        self.stream = None;
    }
}

/// The saturation-sweep load generator: `connections` threads, each its own
/// tenant, each sending `batches` batches of `batch_size` seeded items and
/// recording per-request latency.
#[derive(Debug, Clone)]
pub struct LoadGen {
    /// Concurrent connections (each gets tenant `lg-<i>`).
    pub connections: usize,
    /// Batches per connection.
    pub batches: usize,
    /// Items per batch.
    pub batch_size: usize,
    /// Registry algorithm every tenant runs.
    pub algorithm: String,
    /// Shards per tenant engine.
    pub shards: u32,
    /// Item universe (items are `splitmix64 % universe`).
    pub universe: u64,
    /// Workload seed.
    pub seed: u64,
    /// Client resilience knobs used by every connection.
    pub client: ClientConfig,
}

impl Default for LoadGen {
    fn default() -> Self {
        Self {
            connections: 2,
            batches: 20,
            batch_size: 256,
            algorithm: "count_min".into(),
            shards: 2,
            universe: 1 << 12,
            seed: 1,
            client: ClientConfig::default(),
        }
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Connections that completed all their batches.
    pub completed_connections: usize,
    /// Items acknowledged across all connections.
    pub items: u64,
    /// Batches applied on first delivery.
    pub applied_batches: u64,
    /// Batches acknowledged as already-applied duplicates.
    pub duplicate_batches: u64,
    /// Summed client counters.
    pub counters: ClientCounters,
    /// Wall-clock of the whole run.
    pub elapsed: Duration,
    /// Per-ingest-request latency, median.
    pub p50: Duration,
    /// Per-ingest-request latency, 99th percentile.
    pub p99: Duration,
    /// Stringified per-connection failures (empty on a clean run).
    pub errors: Vec<String>,
}

impl LoadReport {
    /// Acknowledged-item throughput of the run.
    pub fn items_per_sec(&self) -> f64 {
        self.items as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

impl LoadGen {
    /// Runs the load against `addr`.
    pub fn run(&self, addr: SocketAddr) -> LoadReport {
        let started = Instant::now();
        let results: Vec<ConnResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.connections)
                .map(|i| {
                    let gen = self.clone();
                    scope.spawn(move || gen.run_connection(addr, i))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let elapsed = started.elapsed();

        let mut latencies: Vec<Duration> = Vec::new();
        let mut report = LoadReport {
            completed_connections: 0,
            items: 0,
            applied_batches: 0,
            duplicate_batches: 0,
            counters: ClientCounters::default(),
            elapsed,
            p50: Duration::ZERO,
            p99: Duration::ZERO,
            errors: Vec::new(),
        };
        for r in results {
            report.items += r.items;
            report.applied_batches += r.applied;
            report.duplicate_batches += r.duplicates;
            report.counters.retried_requests += r.counters.retried_requests;
            report.counters.retries += r.counters.retries;
            report.counters.overloaded += r.counters.overloaded;
            report.counters.reconnects += r.counters.reconnects;
            report.counters.duplicate_acks += r.counters.duplicate_acks;
            latencies.extend(r.latencies);
            match r.error {
                None => report.completed_connections += 1,
                Some(e) => report.errors.push(e),
            }
        }
        latencies.sort_unstable();
        report.p50 = percentile(&latencies, 0.50);
        report.p99 = percentile(&latencies, 0.99);
        report
    }

    fn run_connection(&self, addr: SocketAddr, index: usize) -> ConnResult {
        let mut result = ConnResult::default();
        let mut client = Client::new(
            addr,
            ClientConfig {
                seed: self.client.seed ^ (index as u64).wrapping_mul(0xA5A5_A5A5),
                ..self.client
            },
        );
        let tenant = format!("lg-{index}");
        if let Err(e) = client.create_tenant(&tenant, &self.algorithm, self.shards) {
            result.error = Some(format!("{tenant}: create: {e}"));
            return result;
        }
        let mut rng = self.seed ^ ((index as u64) << 32);
        for seq in 0..self.batches as u64 {
            let batch: Vec<u64> = (0..self.batch_size)
                .map(|_| splitmix64(&mut rng) % self.universe.max(1))
                .collect();
            let at = Instant::now();
            match client.ingest(&tenant, seq, &batch) {
                Ok(true) => result.applied += 1,
                Ok(false) => result.duplicates += 1,
                Err(e) => {
                    result.error = Some(format!("{tenant}: seq {seq}: {e}"));
                    result.counters = client.counters;
                    return result;
                }
            }
            result.latencies.push(at.elapsed());
            result.items += batch.len() as u64;
        }
        result.counters = client.counters;
        result
    }
}

#[derive(Default)]
struct ConnResult {
    items: u64,
    applied: u64,
    duplicates: u64,
    latencies: Vec<Duration>,
    counters: ClientCounters,
    error: Option<String>,
}
