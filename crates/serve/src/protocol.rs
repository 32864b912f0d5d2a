//! The wire protocol: length-prefixed frames whose payloads reuse the `FSCS`
//! snapshot codec, so parsing is total and every malformed input maps to a typed
//! error instead of a panic or an unbounded allocation.
//!
//! # Frame layout
//!
//! ```text
//! +----------------+-------------------------------+
//! | len: u32 LE    | payload: len bytes            |
//! +----------------+-------------------------------+
//! ```
//!
//! The payload is an `FSCS` blob with algorithm id [`FRAME_ID`]: magic, version,
//! id string, then a request/response tag byte and the tag's fields.  Reusing
//! [`SnapshotReader`] buys the same guarantees the checkpoint formats already
//! have — length-prefix validation *before* allocation, typed truncation errors,
//! and a trailing-bytes check — so a fuzzer cannot distinguish "weird frame" from
//! "damaged checkpoint": both land in [`SnapshotError`].
//!
//! `len` is validated against [`MAX_FRAME`] before any allocation; an oversized
//! prefix fails typed ([`FrameError::Oversized`]) with **zero** bytes buffered.

use std::io::{self, IoSlice, Read, Write};

use fsc_state::{Answer, Query, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::wal::Durability;

/// `FSCS` algorithm id of every frame payload.
pub const FRAME_ID: &str = "fsc_serve_frame";

/// Upper bound on a frame payload (16 MiB).  Large enough for a full engine
/// checkpoint response, small enough that a hostile length prefix cannot drive
/// an allocation.
pub const MAX_FRAME: usize = 16 << 20;

/// Upper bound on a tenant's shard count.  `CreateTenant` above it is refused
/// with a typed [`ServeError::Protocol`] before anything is built, so one frame
/// cannot make the server allocate billions of summaries and take every tenant
/// down with it; boot recovery refuses a tenant whose meta exceeds it.
pub const MAX_TENANT_SHARDS: u32 = 64;

/// What went wrong reading a frame off a stream.
#[derive(Debug)]
pub enum FrameError {
    /// A read timeout fired with **zero** bytes of the frame consumed: the peer
    /// is idle, not broken, and the caller can safely poll again.  A timeout
    /// *inside* a frame surfaces as [`FrameError::Io`] instead — resuming there
    /// would desynchronize the stream.
    Idle,
    /// The transport failed (includes mid-frame timeouts and dropped peers).
    Io(io::Error),
    /// The peer announced a payload larger than [`MAX_FRAME`]; nothing was
    /// allocated or consumed past the prefix.
    Oversized {
        /// The announced payload length.
        announced: usize,
    },
    /// The stream ended inside a frame (a torn write or a dropped peer).
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Idle => write!(f, "read timed out before a frame started"),
            FrameError::Io(e) => write!(f, "frame transport: {e}"),
            FrameError::Oversized { announced } => {
                write!(f, "frame announces {announced} bytes (max {MAX_FRAME})")
            }
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// Whether this is a read timeout (the retry signal, as opposed to a dead
    /// peer): either an [`FrameError::Idle`] poll or a mid-frame timeout.
    pub fn is_timeout(&self) -> bool {
        match self {
            FrameError::Idle => true,
            FrameError::Io(e) => {
                matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                )
            }
            _ => false,
        }
    }
}

fn is_timeout_kind(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Writes one frame (length prefix + payload) with one vectored write, so a
/// socket with `TCP_NODELAY` sends the frame as one segment rather than a
/// 4-byte prefix segment and then the payload.  The payload is not copied.
/// A writer that takes fewer bytes per call gets the rest in later calls.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let prefix = (payload.len() as u32).to_le_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(payload)];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match w.write_vectored(pending) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame payload.  `Ok(None)` is a clean end-of-stream *at a frame
/// boundary*; ending mid-frame is [`FrameError::Truncated`].  The length prefix
/// is validated against [`MAX_FRAME`] before the payload buffer is allocated.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if filled == 0 && is_timeout_kind(&e) => return Err(FrameError::Idle),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { announced: len });
    }
    let mut payload = vec![0u8; len];
    let mut at = 0;
    while at < len {
        match r.read(&mut payload[at..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(payload))
}

/// A typed error the server answers with — every failure a client can cause or
/// observe has a variant, so drills can assert on the *kind* of failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No tenant with that name exists.
    UnknownTenant(String),
    /// `CreateTenant` for a name that is already provisioned.
    TenantExists(String),
    /// `CreateTenant` for a registry id without an engine factory.
    UnknownAlgorithm(String),
    /// The ingest admission bound is full; retry later (graceful degradation:
    /// shed writes, never stall reads).
    Overloaded,
    /// An ingest batch arrived out of order: a gap means a previous batch was
    /// lost for good, which idempotent retry cannot paper over.
    SeqGap {
        /// The sequence number the tenant expects next.
        expected: u64,
        /// The sequence number the batch carried.
        found: u64,
    },
    /// The frame did not parse as a request (the typed fuzz answer).
    Protocol(String),
    /// The server is draining for shutdown and takes no new work.
    ShuttingDown,
    /// An internal persistence or engine failure, stringified.
    Internal(String),
    /// An ingest whose journal append or fsync failed: the batch was neither
    /// applied nor acked, and `remedy` names what brings the tenant back.
    JournalRefused {
        /// What the client can do about it.
        remedy: JournalRemedy,
        /// The underlying failure, for operators.
        detail: String,
    },
}

/// What clears a [`ServeError::JournalRefused`] refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRemedy {
    /// The journal is clean again (the failed write was rolled back, or the
    /// applied batches were checkpointed and the journal truncated): retry the
    /// same seq now.
    RetryNow,
    /// The journal refuses appends until a checkpoint truncates it; retry after
    /// a `Checkpoint` request succeeds.
    AfterCheckpoint,
    /// A delta write failed, so the journal is the only durable copy of the
    /// acked suffix and no checkpoint may truncate it: the tenant refuses ingest
    /// until the server restarts and recovers.
    Restart,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServeError::TenantExists(t) => write!(f, "tenant {t:?} already exists"),
            ServeError::UnknownAlgorithm(a) => write!(f, "no engine factory for {a:?}"),
            ServeError::Overloaded => write!(f, "ingest admission bound full; retry"),
            ServeError::SeqGap { expected, found } => {
                write!(f, "ingest gap: expected seq {expected}, got {found}")
            }
            ServeError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Internal(msg) => write!(f, "internal: {msg}"),
            ServeError::JournalRefused { remedy, detail } => {
                let remedy = match remedy {
                    JournalRemedy::RetryNow => "retry now",
                    JournalRemedy::AfterCheckpoint => "retry after a checkpoint",
                    JournalRemedy::Restart => "refused until restart",
                };
                write!(f, "journal refused the batch ({remedy}): {detail}")
            }
        }
    }
}

/// A request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Provisions a tenant running `shards` replicas of registry algorithm
    /// `algorithm`.  Idempotent on exact repeats is *not* promised; a repeat
    /// answers [`ServeError::TenantExists`].
    CreateTenant {
        /// Namespace name (also the on-disk directory name; validated).
        tenant: String,
        /// Registry id, e.g. `"count_min"`.
        algorithm: String,
        /// Shard count (0 is read as 1; at most [`MAX_TENANT_SHARDS`]).
        shards: u32,
    },
    /// Appends a batch under an idempotency sequence number: batches must arrive
    /// with consecutive `seq` starting at the tenant's `next_seq` (0 after
    /// creation).  A duplicate (`seq < next_seq`) acks `applied = false` — the
    /// retry-safety contract.
    Ingest {
        /// Target tenant.
        tenant: String,
        /// Batch sequence number.
        seq: u64,
        /// The items.
        items: Vec<u64>,
    },
    /// Asks a typed [`Query`] against the tenant's cached serving view.
    Query {
        /// Target tenant.
        tenant: String,
        /// The question.
        query: Query,
    },
    /// Forces a durable delta-chain checkpoint of the tenant now.
    Checkpoint {
        /// Target tenant.
        tenant: String,
    },
    /// Reads the tenant's counters (ingest position, seq, rebuilds, ...).
    Stats {
        /// Target tenant.
        tenant: String,
    },
    /// Graceful shutdown: checkpoint every tenant, then stop (the SIGTERM
    /// equivalent as a control frame).
    Shutdown,
    /// Abrupt stop *without* checkpointing — the `kill -9` drill hook.  Only
    /// honored when the server was started with fault injection armed.
    Crash,
    /// Reads the server-wide durability status: the mode, the boot-time
    /// recovery counts per tenant, and each tenant's live journal state —
    /// what an operator needs to assert clean recovery remotely.
    Status,
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request succeeded and carries no payload.
    Ok,
    /// Answer to a [`Request::Query`].
    Answer(Answer),
    /// Answer to a [`Request::Ingest`]: `applied` is false iff the batch was a
    /// duplicate of one already ingested (a retried frame whose first copy
    /// landed).
    IngestAck {
        /// Echo of the batch sequence number.
        seq: u64,
        /// Whether this frame mutated state.
        applied: bool,
    },
    /// Answer to a [`Request::Stats`].
    Stats(TenantStats),
    /// The request failed, typed.
    Error(ServeError),
    /// Answer to a [`Request::Status`].
    Status(ServerStatus),
}

/// Tenant counters reported by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStats {
    /// Items ingested since creation (the engine's epoch clock).
    pub ingested: u64,
    /// Next expected ingest sequence number.
    pub next_seq: u64,
    /// Serving-view publishes so far.
    pub rebuilds: u64,
    /// Deltas in the in-memory chain since the last base.
    pub chain_len: u64,
}

/// Server-wide durability status reported by [`Request::Status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStatus {
    /// The ack-vs-durable mode the server is running in.
    pub durability: Durability,
    /// Journal appends between fsyncs in `AckAfterApply` mode.
    pub group_commit: u64,
    /// Tenant directories found at boot that could not be recovered.
    pub failed_tenants: u64,
    /// Per-tenant status, sorted by tenant name.
    pub tenants: Vec<TenantStatus>,
}

/// One tenant's recovery history and live journal state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStatus {
    /// Tenant name.
    pub tenant: String,
    /// False when the tenant was created by this process (nothing recovered).
    pub recovered: bool,
    /// Next expected ingest sequence number, live.
    pub next_seq: u64,
    /// Deltas applied during boot-time chain replay.
    pub chain_applied: u64,
    /// Damaged chain entries discarded during boot-time replay.
    pub chain_discarded: u64,
    /// Journal batches replayed past the chain tip at boot.
    pub wal_replayed: u64,
    /// Torn journal bytes truncated at boot.
    pub wal_truncated_bytes: u64,
    /// Records currently in the journal (drops to 0 at each checkpoint).
    pub wal_records: u64,
    /// Bytes currently in the journal file, header included.
    pub wal_bytes: u64,
    /// Lifetime journal bytes appended since boot (checkpoint truncation does
    /// not reset this — it is the durable-write cost meter).
    pub wal_appended_bytes: u64,
}

fn write_query(w: &mut SnapshotWriter, q: &Query) {
    match q {
        Query::Point(item) => {
            w.u8(0);
            w.u64(*item);
        }
        Query::HeavyHitters { threshold } => {
            w.u8(1);
            w.f64(*threshold);
        }
        Query::TrackedItems => w.u8(2),
        Query::Moment => w.u8(3),
        Query::Entropy => w.u8(4),
        Query::Support => w.u8(5),
    }
}

fn read_query(r: &mut SnapshotReader<'_>) -> Result<Query, SnapshotError> {
    Ok(match r.u8()? {
        0 => Query::Point(r.u64()?),
        1 => Query::HeavyHitters {
            threshold: r.f64()?,
        },
        2 => Query::TrackedItems,
        3 => Query::Moment,
        4 => Query::Entropy,
        5 => Query::Support,
        _ => return Err(SnapshotError::Corrupt("query tag")),
    })
}

fn write_answer(w: &mut SnapshotWriter, a: &Answer) {
    match a {
        Answer::Scalar(v) => {
            w.u8(0);
            w.f64(*v);
        }
        Answer::ItemWeights(pairs) => {
            w.u8(1);
            w.usize(pairs.len());
            for (item, weight) in pairs {
                w.u64(*item);
                w.f64(*weight);
            }
        }
        Answer::Items(items) => {
            w.u8(2);
            w.usize(items.len());
            for item in items {
                w.u64(*item);
            }
        }
        Answer::Unsupported => w.u8(3),
    }
}

fn read_answer(r: &mut SnapshotReader<'_>) -> Result<Answer, SnapshotError> {
    Ok(match r.u8()? {
        0 => Answer::Scalar(r.f64()?),
        1 => {
            let len = r.len_prefix(16)?;
            let mut pairs = Vec::with_capacity(len);
            for _ in 0..len {
                pairs.push((r.u64()?, r.f64()?));
            }
            Answer::ItemWeights(pairs)
        }
        2 => {
            let len = r.len_prefix(8)?;
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(r.u64()?);
            }
            Answer::Items(items)
        }
        3 => Answer::Unsupported,
        _ => return Err(SnapshotError::Corrupt("answer tag")),
    })
}

fn write_serve_error(w: &mut SnapshotWriter, e: &ServeError) {
    match e {
        ServeError::UnknownTenant(t) => {
            w.u8(0);
            w.str(t);
        }
        ServeError::TenantExists(t) => {
            w.u8(1);
            w.str(t);
        }
        ServeError::UnknownAlgorithm(a) => {
            w.u8(2);
            w.str(a);
        }
        ServeError::Overloaded => w.u8(3),
        ServeError::SeqGap { expected, found } => {
            w.u8(4);
            w.u64(*expected);
            w.u64(*found);
        }
        ServeError::Protocol(msg) => {
            w.u8(5);
            w.str(msg);
        }
        ServeError::ShuttingDown => w.u8(6),
        ServeError::Internal(msg) => {
            w.u8(7);
            w.str(msg);
        }
        ServeError::JournalRefused { remedy, detail } => {
            w.u8(8);
            w.u8(match remedy {
                JournalRemedy::RetryNow => 0,
                JournalRemedy::AfterCheckpoint => 1,
                JournalRemedy::Restart => 2,
            });
            w.str(detail);
        }
    }
}

fn read_serve_error(r: &mut SnapshotReader<'_>) -> Result<ServeError, SnapshotError> {
    Ok(match r.u8()? {
        0 => ServeError::UnknownTenant(r.string()?),
        1 => ServeError::TenantExists(r.string()?),
        2 => ServeError::UnknownAlgorithm(r.string()?),
        3 => ServeError::Overloaded,
        4 => ServeError::SeqGap {
            expected: r.u64()?,
            found: r.u64()?,
        },
        5 => ServeError::Protocol(r.string()?),
        6 => ServeError::ShuttingDown,
        7 => ServeError::Internal(r.string()?),
        8 => ServeError::JournalRefused {
            remedy: match r.u8()? {
                0 => JournalRemedy::RetryNow,
                1 => JournalRemedy::AfterCheckpoint,
                2 => JournalRemedy::Restart,
                _ => return Err(SnapshotError::Corrupt("journal remedy tag")),
            },
            detail: r.string()?,
        },
        _ => return Err(SnapshotError::Corrupt("serve error tag")),
    })
}

fn write_durability(w: &mut SnapshotWriter, d: Durability) {
    w.u8(match d {
        Durability::AckAfterApply => 0,
        Durability::AckAfterDurable => 1,
    });
}

fn read_durability(r: &mut SnapshotReader<'_>) -> Result<Durability, SnapshotError> {
    Ok(match r.u8()? {
        0 => Durability::AckAfterApply,
        1 => Durability::AckAfterDurable,
        _ => return Err(SnapshotError::Corrupt("durability tag")),
    })
}

fn write_server_status(w: &mut SnapshotWriter, s: &ServerStatus) {
    write_durability(w, s.durability);
    w.u64(s.group_commit);
    w.u64(s.failed_tenants);
    w.usize(s.tenants.len());
    for t in &s.tenants {
        w.str(&t.tenant);
        w.bool(t.recovered);
        w.u64(t.next_seq);
        w.u64(t.chain_applied);
        w.u64(t.chain_discarded);
        w.u64(t.wal_replayed);
        w.u64(t.wal_truncated_bytes);
        w.u64(t.wal_records);
        w.u64(t.wal_bytes);
        w.u64(t.wal_appended_bytes);
    }
}

fn read_server_status(r: &mut SnapshotReader<'_>) -> Result<ServerStatus, SnapshotError> {
    let durability = read_durability(r)?;
    let group_commit = r.u64()?;
    let failed_tenants = r.u64()?;
    let len = r.len_prefix(32)?;
    let mut tenants = Vec::with_capacity(len);
    for _ in 0..len {
        tenants.push(TenantStatus {
            tenant: r.string()?,
            recovered: r.bool()?,
            next_seq: r.u64()?,
            chain_applied: r.u64()?,
            chain_discarded: r.u64()?,
            wal_replayed: r.u64()?,
            wal_truncated_bytes: r.u64()?,
            wal_records: r.u64()?,
            wal_bytes: r.u64()?,
            wal_appended_bytes: r.u64()?,
        });
    }
    Ok(ServerStatus {
        durability,
        group_commit,
        failed_tenants,
        tenants,
    })
}

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(FRAME_ID);
        match self {
            Request::CreateTenant {
                tenant,
                algorithm,
                shards,
            } => {
                w.u8(0);
                w.str(tenant);
                w.str(algorithm);
                w.u32(*shards);
            }
            Request::Ingest { tenant, seq, items } => {
                return Request::encode_ingest(tenant, *seq, items)
            }
            Request::Query { tenant, query } => {
                w.u8(2);
                w.str(tenant);
                write_query(&mut w, query);
            }
            Request::Checkpoint { tenant } => {
                w.u8(3);
                w.str(tenant);
            }
            Request::Stats { tenant } => {
                w.u8(4);
                w.str(tenant);
            }
            Request::Shutdown => w.u8(5),
            Request::Crash => w.u8(6),
            Request::Status => w.u8(7),
        }
        w.finish()
    }

    /// Encodes an [`Request::Ingest`] payload from borrowed items, into a
    /// buffer sized up front: the same bytes as [`Request::encode`], without
    /// first copying the batch into a `Request`.
    pub fn encode_ingest(tenant: &str, seq: u64, items: &[u64]) -> Vec<u8> {
        // Tag, tenant length prefix and bytes, seq, item count, items.
        let body = 1 + 8 + tenant.len() + 8 + 8 + 8 * items.len();
        let mut w = SnapshotWriter::with_capacity(FRAME_ID, body);
        w.u8(1);
        w.str(tenant);
        w.u64(seq);
        w.usize(items.len());
        for &item in items {
            w.u64(item);
        }
        w.finish()
    }

    /// Decodes a frame payload.  Total: truncated, oversized-field, wrong-id, and
    /// trailing-byte payloads all fail typed.
    pub fn decode(payload: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(payload, FRAME_ID)?;
        let req = match r.u8()? {
            0 => Request::CreateTenant {
                tenant: r.string()?,
                algorithm: r.string()?,
                shards: r.u32()?,
            },
            1 => {
                let tenant = r.string()?;
                let seq = r.u64()?;
                let len = r.len_prefix(8)?;
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(r.u64()?);
                }
                Request::Ingest { tenant, seq, items }
            }
            2 => Request::Query {
                tenant: r.string()?,
                query: read_query(&mut r)?,
            },
            3 => Request::Checkpoint {
                tenant: r.string()?,
            },
            4 => Request::Stats {
                tenant: r.string()?,
            },
            5 => Request::Shutdown,
            6 => Request::Crash,
            7 => Request::Status,
            _ => return Err(SnapshotError::Corrupt("request tag")),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(FRAME_ID);
        match self {
            Response::Ok => w.u8(0),
            Response::Answer(a) => {
                w.u8(1);
                write_answer(&mut w, a);
            }
            Response::IngestAck { seq, applied } => {
                w.u8(2);
                w.u64(*seq);
                w.bool(*applied);
            }
            Response::Stats(s) => {
                w.u8(3);
                w.u64(s.ingested);
                w.u64(s.next_seq);
                w.u64(s.rebuilds);
                w.u64(s.chain_len);
            }
            Response::Error(e) => {
                w.u8(4);
                write_serve_error(&mut w, e);
            }
            Response::Status(s) => {
                w.u8(5);
                write_server_status(&mut w, s);
            }
        }
        w.finish()
    }

    /// Decodes a frame payload (same totality as [`Request::decode`]).
    pub fn decode(payload: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(payload, FRAME_ID)?;
        let resp = match r.u8()? {
            0 => Response::Ok,
            1 => Response::Answer(read_answer(&mut r)?),
            2 => Response::IngestAck {
                seq: r.u64()?,
                applied: r.bool()?,
            },
            3 => Response::Stats(TenantStats {
                ingested: r.u64()?,
                next_seq: r.u64()?,
                rebuilds: r.u64()?,
                chain_len: r.u64()?,
            }),
            4 => Response::Error(read_serve_error(&mut r)?),
            5 => Response::Status(read_server_status(&mut r)?),
            _ => return Err(SnapshotError::Corrupt("response tag")),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Tenant names become directory names; keep them boring (nonempty, `[A-Za-z0-9_-]`,
/// ≤ 64 bytes) so the storage layer never interprets a name as a path.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let req = Request::Ingest {
            tenant: "t0".into(),
            seq: 7,
            items: vec![1, 2, 3],
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let mut cursor = &wire[..];
        let payload = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(Request::decode(&payload).unwrap(), req);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    /// Counts the calls a writer gets, taking at most `cap` bytes per call
    /// and filling the slices of a vectored write in order, as a socket does.
    struct CountingWriter {
        wire: Vec<u8>,
        calls: usize,
        cap: usize,
    }

    impl CountingWriter {
        fn new(cap: usize) -> Self {
            CountingWriter {
                wire: Vec::new(),
                calls: 0,
                cap,
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.cap;
            for buf in bufs {
                let n = buf.len().min(room);
                self.wire.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.cap - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for len in [0, 30, 8 << 10] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut w = CountingWriter::new(usize::MAX);
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.calls, 1, "{len}-byte payload");
            assert_eq!(w.wire[..4], (len as u32).to_le_bytes());
            assert_eq!(w.wire[4..], payload[..]);
        }
    }

    #[test]
    fn a_frame_survives_a_writer_that_takes_a_few_bytes_per_call() {
        let payload: Vec<u8> = (0..30u8).collect();
        for cap in [1, 3, 5] {
            let mut w = CountingWriter::new(cap);
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.calls, (4 + payload.len()).div_ceil(cap));
            let mut cursor = &w.wire[..];
            assert_eq!(read_frame(&mut cursor).unwrap(), Some(payload.clone()));
        }
    }

    #[test]
    fn a_borrowed_ingest_encodes_like_the_request_into_an_exact_buffer() {
        let items: Vec<u64> = (0..1024).map(|i| i * 0x9E37).collect();
        let payload = Request::encode_ingest("t0", 9, &items);
        let request = Request::Ingest {
            tenant: "t0".into(),
            seq: 9,
            items,
        };
        assert_eq!(payload, request.encode());
        assert_eq!(payload.len(), payload.capacity(), "sized up front");
    }

    #[test]
    fn oversized_length_prefix_fails_before_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0; 16]);
        match read_frame(&mut &wire[..]) {
            Err(FrameError::Oversized { announced }) => {
                assert_eq!(announced, u32::MAX as usize);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn torn_frame_is_truncated_not_a_clean_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Shutdown.encode()).unwrap();
        wire.truncate(wire.len() - 2);
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn status_frames_round_trip() {
        assert_eq!(
            Request::decode(&Request::Status.encode()).unwrap(),
            Request::Status
        );
        let status = ServerStatus {
            durability: Durability::AckAfterDurable,
            group_commit: 8,
            failed_tenants: 1,
            tenants: vec![TenantStatus {
                tenant: "t0".into(),
                recovered: true,
                next_seq: 42,
                chain_applied: 3,
                chain_discarded: 1,
                wal_replayed: 2,
                wal_truncated_bytes: 17,
                wal_records: 4,
                wal_bytes: 500,
                wal_appended_bytes: 1200,
            }],
        };
        let resp = Response::Status(status);
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn tenant_names_cannot_traverse_paths() {
        assert!(valid_tenant_name("tenant-07_a"));
        for bad in ["", "../up", "a/b", "a b", &"x".repeat(65)] {
            assert!(!valid_tenant_name(bad), "{bad:?}");
        }
    }
}
