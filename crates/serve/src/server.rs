//! The server: a thread-per-connection TCP front-end over per-tenant
//! [`DynEngine`]s, with delta-chain persistence, startup recovery, admission
//! control, and fault-plan hooks.
//!
//! # Threading and degradation
//!
//! * **A blocking accept loop.**  One thread blocks in `accept` and spawns a
//!   thread per connection, so a new client is served as soon as it connects
//!   (no poll interval to wait out).  The listener is bound before recovery
//!   runs; every path that stops the server — [`ServerHandle::stop`] /
//!   [`ServerHandle::crash`] / drop, and the `Shutdown` and `Crash` frames —
//!   sets the stop flag and then connects to the listener once, which wakes
//!   the loop to see the flag, drop that connection, and join the connection
//!   threads (each notices the flag within its 10 ms idle read timeout).
//! * **Writes lock, reads don't.**  Each tenant's engine lives behind a mutex
//!   taken by ingest, and by a checkpoint only for its snapshot and journal
//!   rotation; queries go through the engine's lock-free [`ServeHandle`] (the
//!   cached serving view), so a stalled or overloaded ingest path never blocks
//!   readers — they serve the last published view.
//! * **Admission control.**  At most [`ServerConfig::max_inflight_ingest`]
//!   ingest requests are admitted concurrently; excess load is shed with the
//!   typed [`ServeError::Overloaded`] instead of queueing without bound.
//! * **Per-tenant isolation.**  Tenants share nothing but the listener: a
//!   corrupt chain fails one tenant's recovery (reported, the rest come up), and
//!   a locked tenant delays only its own writers.
//!
//! # Durability
//!
//! Two layers make acked batches durable.  Checkpoints (the explicit
//! [`Request::Checkpoint`] frame and the shutdown sweep of
//! [`Request::Shutdown`] / [`ServerHandle::stop`]) persist the applied state as
//! delta-chain entries.  Between checkpoints, every ingest batch is appended to
//! the tenant's write-ahead journal ([`crate::wal`]) *before* the ack, and each
//! checkpoint retires the journal it makes redundant.  Recovery is
//! restore-chain-tip → truncate any torn journal tail → replay the journal
//! suffix through the idempotency cursor, so a restarted server answers
//! identically to a twin that saw every acked batch.
//!
//! A checkpoint holds the tenant lock only to take its snapshot and rotate
//! the journal ([`Wal::rotate`]): the records the snapshot covers move to the
//! retired segment and ingest goes on appending to a fresh one.  A per-tenant
//! persist mutex, always taken before the tenant lock, serialises the rest
//! off the lock: encode the delta, apply it to the in-memory chain tip, write
//! and fsync it, unlink the retired segment, ack.  A poisoned journal is not
//! rotated but truncated once the delta is durable, and after a torn delta
//! nothing is rotated, unlinked or truncated until a restart, which replays
//! the retired segment and the fresh one as one journal.
//!
//! The [`Durability`] mode sets when the ack is safe against *power loss*:
//! [`Durability::AckAfterDurable`] fsyncs the journal append before every ack
//! (zero acked loss at every crash point); the default
//! [`Durability::AckAfterApply`] batches fsyncs every
//! [`ServerConfig::group_commit`] appends — a process kill still loses nothing
//! (the page cache survives), and power loss is bounded by the group-commit
//! window.  The recovery law is drilled end to end by the law tests
//! `recovery_laws::durable_mode_loses_no_acked_batch_at_any_crash_point` and
//! `recovery_laws::relaxed_power_loss_is_bounded_by_the_group_commit_window`.

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use fsc_engine::{DynEngine, EngineConfig, ServeHandle};
use fsc_state::delta::{encode_delta, ChainTip};

use crate::faults::{CrashPoint, FaultPlan};
use crate::protocol::{
    read_frame, valid_tenant_name, write_frame, FrameError, JournalRemedy, Request, Response,
    ServeError, ServerStatus, TenantStats, TenantStatus, MAX_TENANT_SHARDS,
};
use crate::storage::{
    list_tenants, load_tenant, RecoveryReport, TenantMeta, TenantOutcome, TenantRecovery,
    TenantSnapshot, TenantStorage,
};
use crate::wal::{remove_retired, Durability, Wal, WalAppend};

/// How servers construct engines from registry algorithm ids, without this crate
/// depending on the registry: `fsc-bench` supplies the closure (its
/// `serve_factory()`), tests supply their own.  Returns `None` for unknown or
/// engine-incapable ids.
pub type EngineFactory =
    Arc<dyn Fn(&str, EngineConfig) -> Option<Box<dyn DynEngine>> + Send + Sync>;

/// The per-connection idle read timeout (how quickly connection threads notice
/// the stop flag), and the accept loop's back-off after an accept error.
const POLL: Duration = Duration::from_millis(10);

/// How long a peer may stall *inside* a frame (between the length prefix and
/// the last payload byte, or while draining a response) before the server
/// declares it dead.  This is the slow-reader/slow-writer bound: a trickling or
/// wedged peer occupies its connection thread for at most this long per frame,
/// while an honest client on a congested link (or one whose small writes Nagle
/// coalesces lazily) is not mistaken for a torn stream.
const FRAME_TIMEOUT: Duration = Duration::from_secs(2);

/// Server construction parameters.
#[derive(Clone)]
pub struct ServerConfig {
    /// Root directory tenant state persists under (created on demand).
    pub data_dir: PathBuf,
    /// Ingest admission bound: concurrent ingest requests beyond this many are
    /// shed with [`ServeError::Overloaded`].
    pub max_inflight_ingest: usize,
    /// The armed fault plan ([`FaultPlan::none`] in production).
    pub faults: Arc<FaultPlan>,
    /// When the ack is issued relative to journal durability.
    pub durability: Durability,
    /// Journal appends between fsyncs in [`Durability::AckAfterApply`] mode
    /// (ignored in `AckAfterDurable`, which syncs every append).
    pub group_commit: u64,
}

impl ServerConfig {
    /// Defaults: the given data dir, an admission bound of 64, no faults,
    /// `AckAfterApply` durability with a group commit of 8 appends.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            max_inflight_ingest: 64,
            faults: Arc::new(FaultPlan::none()),
            durability: Durability::default(),
            group_commit: 8,
        }
    }

    /// Replaces the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Arc::new(faults);
        self
    }

    /// Replaces the ingest admission bound.
    pub fn with_max_inflight_ingest(mut self, bound: usize) -> Self {
        self.max_inflight_ingest = bound.max(1);
        self
    }

    /// Replaces the durability mode.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Replaces the group-commit window, clamped to at least 1 (sync every
    /// append), so the reported window is the effective one.
    pub fn with_group_commit(mut self, appends: u64) -> Self {
        self.group_commit = appends.max(1);
        self
    }
}

/// One tenant: the checkpoint side, the locked write side and the lock-free
/// read side.
///
/// Lock order: `persist` before `inner`, never the reverse. Nothing takes
/// `persist` while holding `inner`, so a checkpoint waiting for the tenant lock
/// and a writer waiting for a checkpoint cannot deadlock.
struct Tenant {
    /// Serialises checkpoints, and holds what only they touch.
    persist: Mutex<Persister>,
    inner: Mutex<TenantInner>,
    /// Deltas applied at recovery plus deltas appended to the tip since
    /// (`Stats.chain_len`), readable without waiting for a checkpoint.
    chain_len: AtomicU64,
    /// The engine's serving-view handle: queries answer from here without
    /// touching the mutex.
    serve: Arc<dyn ServeHandle>,
}

/// What boot-time recovery found for one tenant (frozen at boot; reported by
/// [`Request::Status`] so operators can assert clean recovery remotely).
struct TenantBoot {
    /// False for tenants created by this process (nothing to recover).
    recovered: bool,
    chain_applied: u64,
    chain_discarded: u64,
    wal_replayed: u64,
    wal_truncated_bytes: u64,
}

impl TenantBoot {
    /// The boot record of a freshly created tenant.
    fn fresh() -> Self {
        TenantBoot {
            recovered: false,
            chain_applied: 0,
            chain_discarded: 0,
            wal_replayed: 0,
            wal_truncated_bytes: 0,
        }
    }
}

struct TenantInner {
    engine: Box<dyn DynEngine>,
    /// Next expected ingest sequence number (the idempotency cursor).
    next_seq: u64,
    /// The write-ahead batch journal: appended (and fsynced, per mode) before
    /// every ack, rotated by every checkpoint that can retire its records.
    wal: Wal,
    /// Cleared permanently when a delta write tears or fails, or a checkpoint
    /// fails after rotating the journal: past that point the on-disk chain
    /// stops short of the journal, which is the only durable copy of the acked
    /// suffix, so checkpoints must stop rotating, unlinking and truncating it
    /// until a restart replays disk truth.
    wal_ok: bool,
    boot: TenantBoot,
}

/// What only a checkpoint touches, behind [`Tenant::persist`].
struct Persister {
    /// The tip of the in-memory delta chain. Chain epochs are applied-batch
    /// counts (`next_seq` at capture), which strictly increase per applied
    /// batch — including empty ones — so every checkpoint with new batches has
    /// a recordable epoch.
    tip: ChainTip,
    storage: TenantStorage,
}

/// Why a checkpoint did not finish.
#[derive(Debug)]
enum PersistError {
    /// An armed checkpoint [`CrashPoint`] fired: the server dies here,
    /// answering nothing.
    Crash,
    /// The step that failed, and why.
    Failed(String),
}

impl From<String> for PersistError {
    fn from(detail: String) -> Self {
        PersistError::Failed(detail)
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Crash => write!(f, "an injected crash point fired"),
            PersistError::Failed(detail) => write!(f, "{detail}"),
        }
    }
}

/// `Err(Crash)` if the armed crash fires at `point` in checkpoint `nth`.
fn crash_point(faults: &FaultPlan, point: CrashPoint, nth: u64) -> Result<(), PersistError> {
    if faults.crash_now(point, nth) {
        return Err(PersistError::Crash);
    }
    Ok(())
}

impl Tenant {
    /// Makes the applied state durable as one delta against the chain tip.
    /// A no-op when no batch was applied since the tip, unless the journal is
    /// poisoned: the tip already covers every applied batch, so the truncation
    /// alone makes the journal trustworthy again.
    ///
    /// Under the tenant lock it only takes the snapshot and rotates the
    /// journal, so the retired segment holds exactly what the snapshot covers.
    /// The rest runs with only the persist mutex held, while ingests append to
    /// the fresh segment: encode the delta, apply it to the tip (which checks
    /// it), write and fsync it, then unlink the retired segment.
    ///
    /// A poisoned journal, or one that a failed delta made the only durable
    /// copy of the acked suffix (`wal_ok` cleared), is not rotated. A poisoned
    /// one refuses appends, so the snapshot still covers all of it once the
    /// delta is durable, and the tenant lock is taken again to truncate it.
    fn persist(&self, faults: &FaultPlan) -> Result<(), PersistError> {
        let mut p = self.persist.lock().unwrap();
        let (full, epoch, rotated) = {
            let mut inner = self.inner.lock().unwrap();
            if inner.next_seq == p.tip.epoch() {
                return if inner.wal.is_poisoned() {
                    Ok(inner.truncate_journal()?)
                } else {
                    Ok(())
                };
            }
            let full = inner.snapshot().encode();
            let rotated = inner.wal_ok && !inner.wal.is_poisoned();
            if rotated {
                inner
                    .wal
                    .rotate()
                    .map_err(|e| format!("rotating journal: {e}"))?;
            }
            (full, inner.next_seq, rotated)
        };
        let nth = faults.persist_begun();
        if let Some(stall) = faults.persist_stall() {
            std::thread::sleep(stall);
        }
        crash_point(faults, CrashPoint::AfterRotate, nth)?;
        let written = p.write_delta(&full, epoch, faults, nth);
        let advanced = p.tip.epoch() == epoch;
        if advanced {
            self.chain_len.fetch_add(1, Ordering::Relaxed);
        }
        match written {
            Ok(true) => {}
            Err(PersistError::Crash) => return Err(PersistError::Crash),
            // A torn or failed delta write leaves the on-disk chain short of
            // the journal's covered records (after a rotation, any failure
            // does), so the journal stays the durable copy of the acked
            // suffix from here on.  A torn write is still answered Ok.
            torn_or_failed => {
                if rotated || advanced {
                    self.inner.lock().unwrap().wal_ok = false;
                }
                return torn_or_failed.map(|_| ());
            }
        }
        if !rotated {
            return Ok(self.inner.lock().unwrap().truncate_journal()?);
        }
        if let Err(e) = remove_retired(p.storage.dir()) {
            self.inner.lock().unwrap().wal_ok = false;
            return Err(format!("unlinking retired journal: {e}").into());
        }
        crash_point(faults, CrashPoint::AfterUnlink, nth)
    }
}

impl Persister {
    /// Encodes `full` (the snapshot at `epoch`) as a delta against the tip,
    /// applies it to the tip, then writes and fsyncs it through the fault
    /// plan.  Returns whether the delta landed intact.
    fn write_delta(
        &mut self,
        full: &[u8],
        epoch: u64,
        faults: &FaultPlan,
        nth: u64,
    ) -> Result<bool, PersistError> {
        let delta = encode_delta(self.tip.bytes(), full, self.tip.epoch(), epoch)
            .map_err(|e| format!("encoding delta: {e}"))?;
        self.tip
            .append_delta(&delta)
            .map_err(|e| format!("appending delta: {e}"))?;
        let (file, intact) = self
            .storage
            .write_delta(&delta, faults)
            .map_err(|e| format!("writing delta: {e}"))?;
        crash_point(faults, CrashPoint::AfterDeltaWrite, nth)?;
        self.storage
            .sync_delta(&file)
            .map_err(|e| format!("syncing delta: {e}"))?;
        crash_point(faults, CrashPoint::AfterDeltaSync, nth)?;
        Ok(intact)
    }
}

impl TenantInner {
    /// Captures the wrapper checkpoint at the current cursor.
    fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            next_seq: self.next_seq,
            epoch: self.next_seq,
            engine: self.engine.checkpoint(),
        }
    }

    /// The typed refusal of an ingest whose journal append or fsync failed,
    /// naming what clears it: nothing (the journal is clean), a checkpoint that
    /// truncates the poisoned journal, or a restart once a failed delta write
    /// has made the journal the only durable copy of the acked suffix.
    fn journal_refusal(&self, detail: String) -> ServeError {
        let remedy = if !self.wal.is_poisoned() {
            JournalRemedy::RetryNow
        } else if self.wal_ok {
            JournalRemedy::AfterCheckpoint
        } else {
            JournalRemedy::Restart
        };
        ServeError::JournalRefused { remedy, detail }
    }

    /// Empties the journal, unless a failed delta write made it the only
    /// durable copy of the acked suffix.
    fn truncate_journal(&mut self) -> Result<(), String> {
        if self.wal_ok {
            self.wal
                .truncate()
                .map_err(|e| format!("truncating journal: {e}"))?;
        }
        Ok(())
    }
}

/// State shared between the accept loop, connection threads, and the handle.
struct Shared {
    /// The listener's bound address: [`Shared::request_stop`] connects here to
    /// wake the blocking accept loop.
    addr: SocketAddr,
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    factory: EngineFactory,
    data_dir: PathBuf,
    faults: Arc<FaultPlan>,
    /// Set on shutdown/crash (only through [`Shared::request_stop`]); all loops
    /// exit when they see it.
    stop: AtomicBool,
    /// Ingest requests currently admitted.
    inflight: AtomicUsize,
    max_inflight: usize,
    durability: Durability,
    group_commit: u64,
    /// Tenant directories found at boot that could not be recovered (set once
    /// after startup recovery; reported by `Status`).
    failed_tenants: AtomicUsize,
}

impl Shared {
    /// Sets the stop flag, then wakes the accept loop — blocked in `accept` —
    /// with a throwaway self-connection, so it sees the flag at once.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, FRAME_TIMEOUT);
    }

    fn tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.read().unwrap().get(name).cloned()
    }

    /// Checkpoints every tenant (the shutdown sweep).  Returns the first
    /// error; an injected crash ends the sweep at once.
    fn persist_all(&self) -> Result<(), PersistError> {
        let tenants: Vec<Arc<Tenant>> = self.tenants.read().unwrap().values().cloned().collect();
        let mut first_err = None;
        for tenant in tenants {
            match tenant.persist(&self.faults) {
                Ok(()) => {}
                Err(PersistError::Crash) => return Err(PersistError::Crash),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// The running server's control handle.  Dropping it stops the server
/// *gracefully* (checkpoint sweep); use [`Request::Crash`] or
/// [`ServerHandle::crash`] to drill the ungraceful path.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (`127.0.0.1:0` resolves to a real port here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful stop: checkpoint every tenant, then stop accepting and join all
    /// threads.  Returns the first persistence error, if any.
    pub fn stop(mut self) -> Result<(), String> {
        let result = self.shared.persist_all();
        self.halt();
        result.map_err(|e| e.to_string())
    }

    /// Ungraceful stop: no checkpoint sweep, just halt — the in-process
    /// equivalent of `kill -9`, for drills that cannot spare a process.
    pub fn crash(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.shared.request_stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Whether the server has stopped (shutdown frame, crash frame, or handle).
    pub fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Blocks until the server stops on its own (a `Shutdown` or `Crash` frame),
    /// then joins its threads.
    pub fn join(mut self) {
        while !self.stopped() {
            std::thread::sleep(POLL);
        }
        self.halt();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            let _ = self.shared.persist_all();
            self.halt();
        }
    }
}

/// The server constructor.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), recovers every tenant
    /// directory found under the data dir, and starts serving.  The returned
    /// [`RecoveryReport`] is the typed account of what recovery found — a clean
    /// boot reports every tenant recovered with zero discards.
    pub fn start(
        addr: &str,
        config: ServerConfig,
        factory: EngineFactory,
    ) -> io::Result<(ServerHandle, RecoveryReport)> {
        std::fs::create_dir_all(&config.data_dir)?;
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let shared = Arc::new(Shared {
            addr: bound,
            tenants: RwLock::new(HashMap::new()),
            factory,
            data_dir: config.data_dir.clone(),
            faults: Arc::clone(&config.faults),
            stop: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            max_inflight: config.max_inflight_ingest,
            durability: config.durability,
            group_commit: config.group_commit,
            failed_tenants: AtomicUsize::new(0),
        });
        let report = recover_all(&shared)?;
        shared
            .failed_tenants
            .store(report.failed(), Ordering::SeqCst);

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok((
            ServerHandle {
                addr: bound,
                shared,
                accept_thread: Some(accept_thread),
            },
            report,
        ))
    }
}

/// Replays every tenant directory through chain recovery and the engine's
/// restore pairing checks.  A tenant that cannot come back is reported Failed
/// and skipped; the server still starts.
fn recover_all(shared: &Shared) -> io::Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
    for name in list_tenants(&shared.data_dir)? {
        let outcome = recover_tenant(shared, &name);
        report.tenants.push(TenantRecovery {
            tenant: name,
            outcome,
        });
    }
    Ok(report)
}

fn recover_tenant(shared: &Shared, name: &str) -> TenantOutcome {
    let loaded = match load_tenant(&shared.data_dir, name) {
        Ok(loaded) => loaded,
        Err(error) => return TenantOutcome::Failed { error },
    };
    let config = match tenant_config(loaded.meta.shards) {
        Ok(config) => config,
        Err(error) => return TenantOutcome::Failed { error },
    };
    let Some(mut engine) = (shared.factory)(&loaded.meta.algorithm, config) else {
        return TenantOutcome::Failed {
            error: format!("no engine factory for {:?}", loaded.meta.algorithm),
        };
    };
    if let Err(e) = engine.restore_from(&loaded.snapshot.engine) {
        return TenantOutcome::Failed {
            error: format!("restoring recovered tip: {e}"),
        };
    }
    let storage = match TenantStorage::open(&shared.data_dir, name) {
        Ok(s) => s,
        Err(e) => {
            return TenantOutcome::Failed {
                error: format!("opening storage: {e}"),
            }
        }
    };
    // The chain tip is restored; now repair the journal (truncating any torn
    // tail at the last valid record) and replay its suffix through the
    // idempotency cursor — the batches that were acked but not yet
    // checkpointed when the process died.
    let (wal, wal_recovery) = match Wal::open(storage.dir(), loaded.snapshot.next_seq) {
        Ok(pair) => pair,
        Err(e) => {
            return TenantOutcome::Failed {
                error: format!("opening journal: {e}"),
            }
        }
    };
    let mut next_seq = loaded.snapshot.next_seq;
    for record in &wal_recovery.replay {
        engine.ingest(&record.items);
        next_seq += 1;
    }
    let _ = engine.refresh_view();
    let outcome = TenantOutcome::Recovered {
        epoch: loaded.chain.tip_epoch(),
        next_seq,
        applied: loaded.replay.applied,
        discarded: loaded.replay.discarded.len(),
        wal_replayed: wal_recovery.replay.len() as u64,
        wal_truncated_bytes: wal_recovery.truncated_bytes,
    };
    let serve = engine.serve_handle();
    shared.tenants.write().unwrap().insert(
        name.to_string(),
        Arc::new(Tenant {
            persist: Mutex::new(Persister {
                tip: loaded.chain.into_tip(),
                storage,
            }),
            chain_len: AtomicU64::new(loaded.replay.applied as u64),
            inner: Mutex::new(TenantInner {
                engine,
                next_seq,
                wal,
                wal_ok: true,
                boot: TenantBoot {
                    recovered: true,
                    chain_applied: loaded.replay.applied as u64,
                    chain_discarded: loaded.replay.discarded.len() as u64,
                    wal_replayed: wal_recovery.replay.len() as u64,
                    wal_truncated_bytes: wal_recovery.truncated_bytes,
                },
            }),
            serve,
        }),
    );
    outcome
}

/// Blocks in `accept` until a peer connects; every path that sets the stop flag
/// wakes it with a self-connection ([`Shared::request_stop`]), which is dropped
/// unserved.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(&shared);
                conns.push(std::thread::spawn(move || {
                    handle_connection(stream, conn_shared)
                }));
            }
            // Out of descriptors or a peer that reset before the accept: back
            // off briefly instead of spinning on a persistent error.
            Err(_) => std::thread::sleep(POLL),
        }
        conns.retain(|c| !c.is_finished());
    }
    for conn in conns {
        let _ = conn.join();
    }
}

/// Waits for the next frame: idle-polls via `peek` under the short [`POLL`]
/// timeout (so the stop flag is noticed quickly), and only once bytes are
/// available reads the frame under the generous [`FRAME_TIMEOUT`] — a peer that
/// pauses *between* frames is simply idle, and one that dribbles a frame slowly
/// gets the full slow-peer budget instead of the poll interval.
fn await_frame(stream: &mut TcpStream) -> Result<Option<Vec<u8>>, FrameError> {
    let mut probe = [0u8; 1];
    match stream.peek(&mut probe) {
        Ok(0) => return Ok(None), // clean EOF at a frame boundary
        Ok(_) => {}
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            return Err(FrameError::Idle)
        }
        Err(e) => return Err(FrameError::Io(e)),
    }
    let _ = stream.set_read_timeout(Some(FRAME_TIMEOUT));
    let result = read_frame(stream);
    let _ = stream.set_read_timeout(Some(POLL));
    result
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(FRAME_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut answered = 0u64;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let payload = match await_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(FrameError::Oversized { announced }) => {
                // Typed refusal, then close: after an oversized announcement the
                // stream cannot be re-synchronized.
                let resp = Response::Error(ServeError::Protocol(format!(
                    "frame announces {announced} bytes"
                )));
                let _ = write_frame(&mut stream, &resp.encode());
                return;
            }
            // Idle poll: no bytes yet, go around (and re-check the stop flag).
            Err(FrameError::Idle) => continue,
            // Everything else — mid-frame timeouts (a stalled or desynchronized
            // peer), torn frames, transport errors — closes the connection; the
            // framing cannot be trusted past this point.
            Err(_) => return,
        };
        let (response, control) = match Request::decode(&payload) {
            Ok(request) => handle_request(&shared, request),
            Err(e) => (
                Response::Error(ServeError::Protocol(e.to_string())),
                Control::None,
            ),
        };
        answered += 1;
        if shared.faults.should_drop(answered) {
            // The injected worst case: the request took effect, the response is
            // lost.  Clients must retry idempotently.
            return;
        }
        if matches!(control, Control::Crash) {
            // kill -9: no goodbye frame, nothing persisted.
            shared.request_stop();
            return;
        }
        if write_frame(&mut stream, &response.encode()).is_err() {
            return;
        }
        if matches!(control, Control::Shutdown) {
            shared.request_stop();
            return;
        }
    }
}

/// Post-response connection control.
enum Control {
    None,
    Shutdown,
    Crash,
}

fn handle_request(shared: &Shared, request: Request) -> (Response, Control) {
    if shared.stop.load(Ordering::SeqCst) {
        return (Response::Error(ServeError::ShuttingDown), Control::None);
    }
    match request {
        Request::CreateTenant {
            tenant,
            algorithm,
            shards,
        } => (
            create_tenant(shared, &tenant, &algorithm, shards),
            Control::None,
        ),
        Request::Ingest { tenant, seq, items } => ingest(shared, &tenant, seq, &items),
        Request::Query { tenant, query } => (query_tenant(shared, &tenant, &query), Control::None),
        Request::Checkpoint { tenant } => checkpoint_tenant(shared, &tenant),
        Request::Stats { tenant } => (stats_tenant(shared, &tenant), Control::None),
        Request::Status => (status(shared), Control::None),
        Request::Shutdown => match shared.persist_all() {
            Ok(()) => (Response::Ok, Control::Shutdown),
            Err(PersistError::Crash) => (Response::Ok, Control::Crash),
            Err(e) => (
                Response::Error(ServeError::Internal(e.to_string())),
                Control::Shutdown,
            ),
        },
        Request::Crash => {
            if shared.faults.crash_frame_allowed() {
                (Response::Ok, Control::Crash)
            } else {
                (
                    Response::Error(ServeError::Protocol(
                        "crash frame requires an armed fault plan".into(),
                    )),
                    Control::None,
                )
            }
        }
    }
}

/// The engine config of a tenant with `shards` shards (0 reads as 1), or why
/// the count is refused: above [`MAX_TENANT_SHARDS`], checked before any
/// summary is built.
fn tenant_config(shards: u32) -> Result<EngineConfig, String> {
    if shards > MAX_TENANT_SHARDS {
        return Err(format!(
            "{shards} shards exceeds the maximum of {MAX_TENANT_SHARDS}"
        ));
    }
    Ok(EngineConfig {
        shards: (shards as usize).max(1),
        ..EngineConfig::default()
    })
}

fn create_tenant(shared: &Shared, tenant: &str, algorithm: &str, shards: u32) -> Response {
    if !valid_tenant_name(tenant) {
        return Response::Error(ServeError::Protocol(format!(
            "invalid tenant name {tenant:?}"
        )));
    }
    let config = match tenant_config(shards) {
        Ok(config) => config,
        Err(error) => return Response::Error(ServeError::Protocol(error)),
    };
    let mut map = shared.tenants.write().unwrap();
    if map.contains_key(tenant) {
        return Response::Error(ServeError::TenantExists(tenant.to_string()));
    }
    let Some(engine) = (shared.factory)(algorithm, config) else {
        return Response::Error(ServeError::UnknownAlgorithm(algorithm.to_string()));
    };
    let _ = engine.refresh_view();
    let base = TenantSnapshot {
        next_seq: 0,
        epoch: 0,
        engine: engine.checkpoint(),
    };
    let meta = TenantMeta {
        algorithm: algorithm.to_string(),
        shards: shards.max(1),
    };
    let storage =
        match TenantStorage::create(&shared.data_dir, tenant, &meta, &base, &shared.faults) {
            Ok(s) => s,
            Err(e) => return Response::Error(ServeError::Internal(format!("provisioning: {e}"))),
        };
    let wal = match Wal::create(storage.dir()) {
        Ok(w) => w,
        Err(e) => return Response::Error(ServeError::Internal(format!("creating journal: {e}"))),
    };
    let tip = match ChainTip::new(base.encode(), 0) {
        Ok(tip) => tip,
        Err(e) => return Response::Error(ServeError::Internal(format!("chain base: {e}"))),
    };
    let serve = engine.serve_handle();
    map.insert(
        tenant.to_string(),
        Arc::new(Tenant {
            persist: Mutex::new(Persister { tip, storage }),
            chain_len: AtomicU64::new(0),
            inner: Mutex::new(TenantInner {
                engine,
                next_seq: 0,
                wal,
                wal_ok: true,
                boot: TenantBoot::fresh(),
            }),
            serve,
        }),
    );
    Response::Ok
}

fn ingest(shared: &Shared, tenant: &str, seq: u64, items: &[u64]) -> (Response, Control) {
    // Admission first: shed before queueing on any lock.
    if shared.inflight.fetch_add(1, Ordering::SeqCst) + 1 > shared.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        return (Response::Error(ServeError::Overloaded), Control::None);
    }
    let result = ingest_admitted(shared, tenant, seq, items);
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    result
}

/// The write path, in ack-contract order: journal append → sync (per mode) →
/// apply → ack.  [`Control::Crash`] exits mean the client never sees an ack —
/// either an armed [`CrashPoint`] fired, or the journal append itself tore
/// (a torn append *is* the crash: appending more records behind the tear would
/// strand them past damage, so the server dies exactly where the write died).
fn ingest_admitted(shared: &Shared, tenant: &str, seq: u64, items: &[u64]) -> (Response, Control) {
    let Some(tenant) = shared.tenant(tenant) else {
        return (
            Response::Error(ServeError::UnknownTenant(tenant.to_string())),
            Control::None,
        );
    };
    let mut inner = tenant.inner.lock().unwrap();
    if let Some(stall) = shared.faults.ingest_stall() {
        std::thread::sleep(stall);
    }
    if seq < inner.next_seq {
        // A retried batch whose first copy landed: ack without re-applying.
        return (
            Response::IngestAck {
                seq,
                applied: false,
            },
            Control::None,
        );
    }
    if seq > inner.next_seq {
        return (
            Response::Error(ServeError::SeqGap {
                expected: inner.next_seq,
                found: seq,
            }),
            Control::None,
        );
    }
    let nth = shared.faults.ingest_begun();
    if shared.faults.crash_now(CrashPoint::BeforeJournal, nth) {
        return (Response::Ok, Control::Crash);
    }
    match inner.wal.append(seq, items, &shared.faults) {
        Ok(WalAppend::Clean) => {}
        // Latent media damage: framing intact, so later appends still land
        // behind it; the *next* recovery's checksum pass truncates there.
        Ok(WalAppend::Corrupt) => {}
        Ok(WalAppend::Torn) => return (Response::Ok, Control::Crash),
        Err(e) => {
            let refusal = inner.journal_refusal(format!("journal append: {e}"));
            return (Response::Error(refusal), Control::None);
        }
    }
    let group_commit = match shared.durability {
        Durability::AckAfterDurable => 1,
        Durability::AckAfterApply => shared.group_commit,
    };
    if let Err(e) = inner.wal.maybe_sync_with(group_commit, &shared.faults) {
        // The failed fsync poisoned the journal (see `Wal::sync`), and this
        // batch is neither applied nor acked.  Checkpoint the applied batches,
        // which truncates the journal and lifts the poisoning, so the client's
        // retry of this seq appends to a clean journal.  If the checkpoint
        // fails too, the tenant refuses ingest until one succeeds, or until a
        // restart if the on-disk chain is broken; the refusal names which.
        // The checkpoint takes the persist mutex, which the lock order puts
        // before the tenant lock, so the tenant lock is released first.
        drop(inner);
        let detail = match tenant.persist(&shared.faults) {
            Ok(()) => format!("journal sync: {e}"),
            Err(PersistError::Crash) => return (Response::Ok, Control::Crash),
            Err(ce) => format!("journal sync: {e}; checkpoint: {ce}"),
        };
        let refusal = tenant.inner.lock().unwrap().journal_refusal(detail);
        return (Response::Error(refusal), Control::None);
    }
    if shared.faults.crash_now(CrashPoint::AfterJournal, nth) {
        return (Response::Ok, Control::Crash);
    }
    inner.engine.ingest(items);
    inner.next_seq += 1;
    // Publish for the lock-free readers; a failure here means a query raced a
    // poisoned merge, which the engine surfaces on its own query path too.
    let _ = inner.engine.refresh_view();
    if shared.faults.crash_now(CrashPoint::AfterApply, nth) {
        return (Response::Ok, Control::Crash);
    }
    (Response::IngestAck { seq, applied: true }, Control::None)
}

fn query_tenant(shared: &Shared, tenant: &str, query: &fsc_state::Query) -> Response {
    let Some(tenant) = shared.tenant(tenant) else {
        return Response::Error(ServeError::UnknownTenant(tenant.to_string()));
    };
    // Lock-free fast path: the published view.
    if let Some(answer) = tenant.serve.serve(query) {
        return Response::Answer(answer);
    }
    // Nothing published yet (possible only before the first refresh): fall back
    // to the locked engine.
    let inner = tenant.inner.lock().unwrap();
    match inner.engine.query(query) {
        Ok(answer) => Response::Answer(answer),
        Err(e) => Response::Error(ServeError::Internal(e.to_string())),
    }
}

fn checkpoint_tenant(shared: &Shared, tenant: &str) -> (Response, Control) {
    let Some(tenant) = shared.tenant(tenant) else {
        return (
            Response::Error(ServeError::UnknownTenant(tenant.to_string())),
            Control::None,
        );
    };
    match tenant.persist(&shared.faults) {
        Ok(()) => (Response::Ok, Control::None),
        Err(PersistError::Crash) => (Response::Ok, Control::Crash),
        Err(e) => (
            Response::Error(ServeError::Internal(e.to_string())),
            Control::None,
        ),
    }
}

fn stats_tenant(shared: &Shared, tenant: &str) -> Response {
    let Some(tenant) = shared.tenant(tenant) else {
        return Response::Error(ServeError::UnknownTenant(tenant.to_string()));
    };
    let inner = tenant.inner.lock().unwrap();
    Response::Stats(TenantStats {
        ingested: inner.engine.ingested(),
        next_seq: inner.next_seq,
        rebuilds: inner.engine.view_rebuilds(),
        chain_len: tenant.chain_len.load(Ordering::Relaxed),
    })
}

/// The server-wide durability status: mode, boot recovery counts, live
/// journal state — everything the remote clean-recovery assertion needs.
fn status(shared: &Shared) -> Response {
    let tenants: Vec<(String, Arc<Tenant>)> = {
        let map = shared.tenants.read().unwrap();
        let mut out: Vec<_> = map
            .iter()
            .map(|(name, tenant)| (name.clone(), Arc::clone(tenant)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    };
    let mut rows = Vec::with_capacity(tenants.len());
    for (name, tenant) in tenants {
        let inner = tenant.inner.lock().unwrap();
        rows.push(TenantStatus {
            tenant: name,
            recovered: inner.boot.recovered,
            next_seq: inner.next_seq,
            chain_applied: inner.boot.chain_applied,
            chain_discarded: inner.boot.chain_discarded,
            wal_replayed: inner.boot.wal_replayed,
            wal_truncated_bytes: inner.boot.wal_truncated_bytes,
            wal_records: inner.wal.records(),
            wal_bytes: inner.wal.len(),
            wal_appended_bytes: inner.wal.appended_bytes(),
        });
    }
    Response::Status(ServerStatus {
        durability: shared.durability,
        group_commit: shared.group_commit,
        failed_tenants: shared.failed_tenants.load(Ordering::SeqCst) as u64,
        tenants: rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_knobs_clamp_to_their_effective_values() {
        let config = ServerConfig::new("unused")
            .with_group_commit(0)
            .with_max_inflight_ingest(0);
        assert_eq!(config.group_commit, 1, "0 syncs every append, like 1");
        assert_eq!(config.max_inflight_ingest, 1);
        assert_eq!(
            ServerConfig::new("unused")
                .with_group_commit(16)
                .group_commit,
            16
        );
    }
}
