//! The sharded engine: replica ownership, routing, cached merged queries,
//! checkpoints.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use fsc_state::delta::{encode_delta, BaseRef, CheckpointChain};
use fsc_state::snapshot::{SnapshotReader, SnapshotWriter, TrackerState};
use fsc_state::{
    Answer, Mergeable, Query, Queryable, Snapshot, SnapshotError, StateReport, StreamAlgorithm,
    TrackerKind,
};

use crate::view::{ServeHandle, ServingView};

/// Checkpoint-header id of an engine checkpoint (shard checkpoints nest inside with
/// their own algorithm ids).
const SNAPSHOT_ID: &str = "fsc_engine";

/// How ingested items are distributed across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// Item `t` (global stream position) goes to shard `t mod S`.  Spreads load
    /// evenly regardless of key skew; exact-merging sketches reproduce the
    /// single-shard answers under any routing, so this is the default.
    #[default]
    RoundRobin,
    /// Items route by a multiplicative hash of their identity, so all occurrences of
    /// one item land on the same shard.  Counter summaries (Misra-Gries,
    /// SpaceSaving) keep per-item counts exact-per-shard under this policy, at the
    /// cost of load skew on heavy-hitter traffic.
    ByItemHash,
}

impl Routing {
    fn tag(self) -> u8 {
        match self {
            Routing::RoundRobin => 0,
            Routing::ByItemHash => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, SnapshotError> {
        match tag {
            0 => Ok(Routing::RoundRobin),
            1 => Ok(Routing::ByItemHash),
            _ => Err(SnapshotError::Corrupt("routing tag")),
        }
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of shard replicas (≥ 1).
    pub shards: usize,
    /// Routing policy for ingested items.
    pub routing: Routing,
    /// Tracker kind each shard's summary is constructed with.
    pub tracker: TrackerKind,
    /// Worker budget for the threaded ingest drain: `None` (the default) sizes it
    /// from [`detected_cores`] — read once per process, so a later CPU-quota
    /// change is not seen — and a 1-CPU host never pays thread-spawn overhead
    /// for workers that cannot run concurrently.  A runtime performance knob, not
    /// engine state — it is not serialized: [`Engine::restore`] sets `None` and
    /// [`Engine::restore_from`] keeps the live value (answers and accounting are
    /// identical either way; only wall-clock changes).  Tests force `Some(n)` to
    /// exercise the threaded path on any host.
    pub ingest_threads: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            routing: Routing::RoundRobin,
            tracker: TrackerKind::Full,
            ingest_threads: None,
        }
    }
}

/// Usable cores on this host, as reported by [`std::thread::available_parallelism`]
/// (1 when detection fails).  Sizes the engine's threaded ingest gate and is
/// recorded in the throughput experiment's JSON so numbers from a 1-CPU container
/// are never mistaken for multi-core ones.
///
/// Read once per process and cached: on Linux the query is an affinity syscall
/// plus cgroup-quota file reads, which cost more than a small batch kernel.  A
/// CPU-quota or affinity change after the first call is therefore not seen.
pub fn detected_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The threaded-ingest gate, as a pure function of the three quantities that decide
/// it: worker threads only pay when there is more than one shard to drain, more
/// than one core to drain them on, and enough items per worker to amortize the
/// spawn cost ([`PARALLEL_INGEST_THRESHOLD`]).
#[inline]
fn use_parallel_ingest(shards: usize, workers: usize, largest: usize) -> bool {
    shards > 1 && workers > 1 && largest >= PARALLEL_INGEST_THRESHOLD
}

/// The bound an engine places on its summary type: ingest
/// ([`StreamAlgorithm`]), typed queries ([`Queryable`]), checkpoints
/// ([`Snapshot`]), and shard union ([`Mergeable`]) — plus `Send + Sync +
/// 'static`, so shards can ingest on scoped worker threads and reader threads
/// can hold `Arc`-published serving views across engine generations.
///
/// Blanket-implemented: any summary with the four capabilities is engine-ready
/// (all of this repository's summaries are plain owned data over thread-safe
/// trackers, so the marker bounds come for free).
pub trait EngineAlgorithm:
    StreamAlgorithm + Queryable + Snapshot + Mergeable + Sized + Send + Sync + 'static
{
}

impl<T: StreamAlgorithm + Queryable + Snapshot + Mergeable + Sized + Send + Sync + 'static>
    EngineAlgorithm for T
{
}

/// A sharded, checkpointable serving engine over `S` replicas of one summary type.
///
/// See the [crate docs](crate) for the design and the laws it relies on.  The shard
/// summaries must be merge-compatible — built by one constructor with shared
/// dimensions and hash seeds — which [`Engine::new`]'s factory-closure construction
/// makes the natural default.
#[derive(Debug)]
pub struct Engine<A: EngineAlgorithm> {
    config: EngineConfig,
    shards: Vec<A>,
    /// Total items ingested (drives round-robin routing across batch boundaries).
    ingested: u64,
    /// Per-shard routing buffers, reused across batches.
    buffers: Vec<Vec<u64>>,
    /// The cached merged view queries serve from, shared with any detached
    /// reader handles (see [`ServingView`]).
    view: Arc<ServingView<A>>,
    /// The buffer the next view build overwrites: the snapshot the last publish
    /// displaced, kept only if no reader still held it.  One slot — a build that
    /// finds it empty restores a fresh buffer instead.
    spare: Mutex<Option<A>>,
    /// Added to the summed shard generations by [`Engine::generation`].  Zero
    /// for the life of a normally-constructed engine; bumped by
    /// [`Engine::restore_from`] so the staleness clock stays strictly monotone
    /// across in-place failover even though the restored trackers start their
    /// own clocks near zero.
    gen_offset: u64,
}

/// Per-shard sub-batch size at which [`Engine::ingest`] moves from the serial
/// drain to scoped worker threads.  Spawning a thread costs microseconds —
/// three orders of magnitude more than a small batch kernel — so parallelism
/// only pays once each worker has thousands of items to chew through.
const PARALLEL_INGEST_THRESHOLD: usize = 8_192;

/// Multiplicative item hash for [`Routing::ByItemHash`] (SplitMix64 finalizer — the
/// route must be a stable pure function of the item, independent of shard count
/// changes elsewhere).
#[inline]
fn route_hash(item: u64) -> u64 {
    let mut x = item.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl<A: EngineAlgorithm> Engine<A> {
    /// Builds an engine whose `config.shards` replicas are produced by `make`
    /// (called with the shard index).  For exact sharded answers the factory must
    /// produce merge-compatible summaries — in practice, ignore the index and build
    /// identical instances (same dimensions and seeds) on fresh trackers of
    /// `config.tracker` kind.
    pub fn new(config: EngineConfig, mut make: impl FnMut(usize) -> A) -> Self {
        assert!(config.shards >= 1, "an engine needs at least one shard");
        let shards: Vec<A> = (0..config.shards).map(&mut make).collect();
        let buffers = vec![Vec::new(); config.shards];
        Self {
            config,
            shards,
            ingested: 0,
            buffers,
            view: Arc::new(ServingView::new()),
            spare: Mutex::new(None),
            gen_offset: 0,
        }
    }

    /// The engine's construction parameters.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total items ingested so far.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Read access to one shard's summary (reporting/tests).
    pub fn shard(&self, index: usize) -> &A {
        &self.shards[index]
    }

    /// Ingests a batch: items are routed to their shards and each shard processes
    /// its sub-batch through the specialized batch kernels.  Small batches run in
    /// shard order on the calling thread; once the largest routed sub-batch
    /// clears the parallel-ingest threshold (8 Ki items) **and** the worker budget
    /// ([`EngineConfig::ingest_threads`], by default the host's [`detected_cores`],
    /// read once per process) exceeds one, the shards drain concurrently on
    /// [`std::thread::scope`] workers (shards own disjoint state, so the result
    /// is observably identical either way — pinned by the parallel-ingest law
    /// test).  The threshold keeps the thread-spawn cost out of the
    /// latency-sensitive small-batch path, and the core gate keeps it off
    /// single-CPU hosts where workers cannot overlap.
    pub fn ingest(&mut self, items: &[u64]) {
        match self.config.routing {
            Routing::RoundRobin => {
                let shards = self.shards.len() as u64;
                for (i, &item) in items.iter().enumerate() {
                    let shard = ((self.ingested + i as u64) % shards) as usize;
                    self.buffers[shard].push(item);
                }
            }
            Routing::ByItemHash => {
                let shards = self.shards.len() as u64;
                for &item in items {
                    let shard = (route_hash(item) % shards) as usize;
                    self.buffers[shard].push(item);
                }
            }
        }
        self.ingested += items.len() as u64;
        let largest = self.buffers.iter().map(Vec::len).max().unwrap_or(0);
        let workers = self.config.ingest_threads.unwrap_or_else(detected_cores);
        if use_parallel_ingest(self.shards.len(), workers, largest) {
            std::thread::scope(|scope| {
                for (shard, buffer) in self.shards.iter_mut().zip(&mut self.buffers) {
                    if !buffer.is_empty() {
                        scope.spawn(move || {
                            shard.process_batch(buffer);
                            buffer.clear();
                        });
                    }
                }
            });
        } else {
            for (shard, buffer) in self.shards.iter_mut().zip(&mut self.buffers) {
                if !buffer.is_empty() {
                    shard.process_batch(buffer);
                    buffer.clear();
                }
            }
        }
    }

    /// The merged summary built the independent way — the **oracle** behind
    /// [`Engine::query_fresh`], not what the serving view is built with.  Shard
    /// 0 is cloned via a checkpoint round trip (queries must not disturb shard
    /// state, and the snapshot law guarantees the clone is observably
    /// identical), then every other shard is folded in with the tracked
    /// [`Mergeable::merge_from`].  Allocates a whole summary per call.
    pub fn merged_summary(&self) -> Result<A, SnapshotError> {
        let mut merged = A::restore(&self.shards[0].checkpoint())?;
        for shard in &self.shards[1..] {
            merged.merge_from(shard);
        }
        Ok(merged)
    }

    /// Builds the serving view and publishes it at `generation`: the shards'
    /// [`Mergeable::assign_union`] written into the spare buffer — the snapshot
    /// the previous publish displaced, when no reader held it — or, with no
    /// spare, into a freshly restored copy of shard 0.  The union reads the
    /// shards and charges no tracker; a snapshot a reader can still see is never
    /// written (DESIGN.md §1.7).
    fn publish_view(&self, generation: u64) -> Result<Arc<A>, SnapshotError> {
        let spare = self
            .spare
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let mut view = match spare {
            Some(buffer) => buffer,
            None => A::restore(&self.shards[0].checkpoint())?,
        };
        view.assign_union(&self.shards)?;
        let (published, displaced) = self.view.publish(generation, view);
        if displaced.is_some() {
            *self.spare.lock().unwrap_or_else(PoisonError::into_inner) = displaced;
        }
        Ok(published)
    }

    /// The engine's **staleness generation**: the sum of every shard tracker's
    /// [`state_change_generation`](fsc_state::StateTracker::state_change_generation)
    /// (plus a restore offset keeping the clock monotone across
    /// [`Engine::restore_from`]).  Monotone over this engine instance's
    /// lifetime, and guaranteed to have advanced after any ingest that changed
    /// an observable answer on *any* shard.
    ///
    /// The sum — not the max — is what makes the clock sound: shard clocks
    /// advance at different rates, and a change on a lagging shard would be
    /// invisible to the max while the union's answers moved (DESIGN.md §1.7
    /// spells out the argument).  Every changed write strictly increases its
    /// own shard's term, hence the sum.
    ///
    /// Because ingest needs `&mut self`, the generation is frozen while any
    /// `&self` query runs — a query compares a stable clock, never a racing
    /// one.
    pub fn generation(&self) -> u64 {
        self.gen_offset
            + self
                .shards
                .iter()
                .map(|s| s.tracker().state_change_generation())
                .sum::<u64>()
    }

    /// The cached view if it is current, else rebuild-and-publish at the live
    /// generation.
    fn current_view(&self) -> Result<Arc<A>, SnapshotError> {
        let generation = self.generation();
        if let Some(view) = self.view.get_if_current(generation) {
            return Ok(view);
        }
        self.publish_view(generation)
    }

    /// Answers a typed query from the **cached** merged view.
    ///
    /// Freshness contract: the answer always reflects every ingested item.  The
    /// view is revalidated lazily against [`Engine::generation`] — if no state
    /// change landed since the last rebuild the query is a lock-free stamp
    /// compare plus an `Arc` clone (no restore, no merge); otherwise the view
    /// is rebuilt once and republished for every subsequent reader.  Rebuild
    /// frequency therefore tracks *state changes*, not queries or ingested
    /// items.  [`Engine::query_fresh`] bypasses the cache when a test wants the
    /// always-rebuild semantics.
    pub fn query(&self, query: &Query) -> Result<Answer, SnapshotError> {
        Ok(self.current_view()?.query(query))
    }

    /// Answers a batch of queries from one cached view (at most one rebuild,
    /// however many queries follow — and none at all when the view is current).
    pub fn query_many(&self, queries: &[Query]) -> Result<Vec<Answer>, SnapshotError> {
        let merged = self.current_view()?;
        Ok(queries.iter().map(|q| merged.query(q)).collect())
    }

    /// Answers a typed query from a [`Engine::merged_summary`] built for this
    /// call, bypassing the cache.  That build shares nothing with the serving
    /// view's — a checkpoint round trip and tracked merges into a new summary,
    /// instead of an untracked union into a recycled buffer — which is what makes
    /// it the independent oracle the serve-law tests compare cached answers
    /// against.
    pub fn query_fresh(&self, query: &Query) -> Result<Answer, SnapshotError> {
        Ok(self.merged_summary()?.query(query))
    }

    /// Batch flavour of [`Engine::query_fresh`]: one fresh rebuild, many
    /// queries, cache untouched.
    pub fn query_fresh_many(&self, queries: &[Query]) -> Result<Vec<Answer>, SnapshotError> {
        let merged = self.merged_summary()?;
        Ok(queries.iter().map(|q| merged.query(q)).collect())
    }

    /// Rebuilds and republishes the cached view if it is stale; returns whether
    /// a rebuild happened.  This is the writer-side verb of the mixed
    /// read/write pattern: reader threads serve from [`Engine::serving_view`]
    /// handles while the ingesting thread (which owns `&mut self`) calls this
    /// between batches to push fresh snapshots to them.
    ///
    /// A rebuild is an untracked union of the shards into the snapshot the
    /// previous refresh displaced (when no reader still holds it).  For the
    /// linear sketches that is one copy and one add pass per further shard over
    /// the counter tables — no allocation, no checkpoint round trip; other
    /// summaries keep [`Mergeable::assign_union`]'s restore-and-merge default.
    /// The server calls this eagerly after every acked batch.
    pub fn refresh_view(&self) -> Result<bool, SnapshotError> {
        let generation = self.generation();
        if self.view.get_if_current(generation).is_some() {
            return Ok(false);
        }
        self.publish_view(generation)?;
        Ok(true)
    }

    /// Times the cached view has been (re)built over this engine's lifetime —
    /// the serve-cost counter F13 records next to state changes.
    pub fn view_rebuilds(&self) -> u64 {
        self.view.rebuilds()
    }

    /// A shared handle on the engine's serving view, for detached reader
    /// threads.  The handle survives [`Engine::restore_from`] failover and
    /// serves the latest *published* snapshot without ever rebuilding (see
    /// [`ServeHandle`] for the staleness contract).
    pub fn serving_view(&self) -> Arc<ServingView<A>> {
        Arc::clone(&self.view)
    }

    /// Serializes the whole engine — config, ingest position, and one nested
    /// checkpoint per shard — into a versioned byte string.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SNAPSHOT_ID);
        w.usize(self.shards.len());
        w.u8(self.config.routing.tag());
        blank_tracker_state(self.config.tracker).write_to(&mut w);
        w.u64(self.ingested);
        for shard in &self.shards {
            w.bytes(&shard.checkpoint());
        }
        w.finish()
    }

    /// Captures the current full checkpoint as a [`BaseRef`] for later
    /// [`Engine::checkpoint_delta`] calls.  The engine's epoch clock is its ingest
    /// position, so delta epochs line up with the stream positions a
    /// [`crate::Scenario`] checkpoint cadence is expressed in.
    pub fn base_ref(&self) -> BaseRef {
        BaseRef::new(self.checkpoint(), self.ingested)
    }

    /// Serializes a **delta** checkpoint against a previously captured base: the
    /// `FSCD` bytes transforming `since` into the current [`Engine::checkpoint`]
    /// (see [`fsc_state::delta`]).  Because engine checkpoints nest one `FSCS`
    /// checkpoint per shard at stable offsets, a few-state-change summary's shard
    /// payloads diff in few words and the engine delta stays proportional to what
    /// changed across all shards.
    pub fn checkpoint_delta(&self, since: &BaseRef) -> Result<Vec<u8>, SnapshotError> {
        encode_delta(
            since.bytes(),
            &self.checkpoint(),
            since.epoch(),
            self.ingested,
        )
    }

    /// Rebuilds an engine from [`Engine::checkpoint`] bytes.  By the snapshot law
    /// the result is observably identical: same answers, same per-shard
    /// [`StateReport`]s and wear tables, same behaviour on subsequently ingested
    /// batches.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, SNAPSHOT_ID)?;
        let shard_count = r.usize()?;
        if shard_count == 0 || shard_count > 1 << 20 {
            return Err(SnapshotError::Corrupt("shard count"));
        }
        let routing = Routing::from_tag(r.u8()?)?;
        let tracker = TrackerState::read_from(&mut r)?.kind;
        let ingested = r.u64()?;
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let shard_bytes = r.byte_slice()?;
            shards.push(A::restore(shard_bytes)?);
        }
        r.finish()?;
        Ok(Self {
            config: EngineConfig {
                shards: shard_count,
                routing,
                tracker,
                ingest_threads: None,
            },
            buffers: vec![Vec::new(); shard_count],
            shards,
            ingested,
            view: Arc::new(ServingView::new()),
            spare: Mutex::new(None),
            gen_offset: 0,
        })
    }

    /// Replaces this engine's state with a restored checkpoint in place (the
    /// failover verb: a fresh process constructs an engine and restores into
    /// it).  Three things survive the swap that a plain [`Engine::restore`]
    /// would discard:
    ///
    /// * **Reader handles** — the serving view cell is kept, so
    ///   [`Engine::serving_view`] handles held by reader threads keep working;
    ///   they serve the pre-restore snapshot until the next refresh.
    /// * **Clock monotonicity** — restored trackers restart their staleness
    ///   clocks near zero (import *taints* rather than restores the
    ///   generation), so [`Engine::generation`] is re-based to land strictly
    ///   above its pre-restore value.  Any stamp issued before the restore —
    ///   including the kept view's — therefore compares stale, and the first
    ///   post-restore query rebuilds: a restore is a state mutation.
    /// * **The worker budget** — [`EngineConfig::ingest_threads`] is not in the
    ///   checkpoint, so the live engine's value is kept rather than compared.
    ///
    /// Restoring is only meaningful between *twins*: a checkpoint from a
    /// different summary type fails with the nested shard's typed
    /// [`SnapshotError::WrongAlgorithm`], and a checkpoint whose engine config
    /// (shard count, routing, tracker kind) or summary geometry (dimensions and
    /// seeds, as carried in the summary's name) differs from this engine's
    /// fails with [`SnapshotError::ConfigMismatch`] — *before* any state is
    /// swapped, so a rejected restore leaves the engine untouched.
    pub fn restore_from(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let before = self.generation();
        let mut restored = Engine::<A>::restore(bytes)?;
        // `ingest_threads` is a runtime knob the checkpoint does not carry: the
        // live engine's value is kept, and only the serialized fields must pair.
        restored.config.ingest_threads = self.config.ingest_threads;
        if restored.config != self.config {
            return Err(SnapshotError::ConfigMismatch {
                what: "engine config",
                expected: format!("{:?}", self.config),
                found: format!("{:?}", restored.config),
            });
        }
        let expected = self.shards[0].name();
        let found = restored.shards[0].name();
        if expected != found {
            return Err(SnapshotError::ConfigMismatch {
                what: "summary geometry",
                expected: expected.to_string(),
                found: found.to_string(),
            });
        }
        let raw = restored.generation();
        restored.gen_offset = (before + 1).saturating_sub(raw);
        restored.view = Arc::clone(&self.view);
        *self = restored;
        Ok(())
    }

    /// [`Engine::restore_from`], fed by the tip of a persisted
    /// [`CheckpointChain`] — the recovery verb: replay a base + delta log (via
    /// [`CheckpointChain::recover`] when the log may be damaged), then restore
    /// the surviving tip into a freshly constructed twin.  All of
    /// [`Engine::restore_from`]'s pairing checks apply.
    pub fn restore_from_chain(&mut self, chain: &CheckpointChain) -> Result<(), SnapshotError> {
        self.restore_from(chain.tip_bytes())
    }

    /// Combined accounting across shards ([`StateReport::sharded`] semantics: epochs,
    /// state changes, writes, and space are additive over the disjoint substreams).
    pub fn report(&self) -> StateReport {
        self.shards
            .iter()
            .map(|s| s.report())
            .reduce(|a, b| a.sharded(&b))
            .expect("an engine has at least one shard")
    }

    /// Per-shard accounting reports.
    pub fn shard_reports(&self) -> Vec<StateReport> {
        self.shards.iter().map(|s| s.report()).collect()
    }

    /// Per-shard wear tables (present when shards run address-tracked trackers).
    pub fn shard_wear(&self, index: usize) -> Option<Vec<u64>> {
        self.shards[index].tracker().address_writes()
    }
}

/// A zeroed tracker state of the given kind — the engine header only needs to carry
/// the *kind* (each shard checkpoint embeds its own full state), but reusing
/// [`TrackerState`]'s codec keeps the format single-sourced.
fn blank_tracker_state(kind: TrackerKind) -> TrackerState {
    TrackerState {
        kind,
        epochs: 0,
        last_change_epoch: 0,
        state_changes: 0,
        word_writes: 0,
        redundant_writes: 0,
        reads: 0,
        words_current: 0,
        words_peak: 0,
        next_addr: 0,
        wear: if kind == TrackerKind::FullAddressTracked {
            Some(Vec::new())
        } else {
            None
        },
    }
}

/// The object-safe face of [`Engine`], so registries and scenario runners can hold
/// engines over different summary types uniformly (`Box<dyn DynEngine>`) without
/// downcasting.
///
/// `Send` is a supertrait so servers can own engines from connection-handling
/// threads; every [`Engine`] qualifies for free ([`EngineAlgorithm`] already
/// requires `Send + Sync` summaries).
pub trait DynEngine: Send {
    /// Name of the underlying summary (shard 0's [`StreamAlgorithm::name`]).
    fn algorithm(&self) -> String;
    /// Number of shards.
    fn shards(&self) -> usize;
    /// Total items ingested so far.
    fn ingested(&self) -> u64;
    /// Routes and ingests a batch (see [`Engine::ingest`]).
    fn ingest(&mut self, items: &[u64]);
    /// Answers a typed query from the **cached** merged view (see
    /// [`Engine::query`] for the freshness contract).
    fn query(&self, query: &Query) -> Result<Answer, SnapshotError>;
    /// Answers a batch of queries from one cached view (see [`Engine::query_many`]).
    fn query_many(&self, queries: &[Query]) -> Result<Vec<Answer>, SnapshotError>;
    /// Answers a typed query by rebuilding, cache bypassed (see
    /// [`Engine::query_fresh`]).
    fn query_fresh(&self, query: &Query) -> Result<Answer, SnapshotError>;
    /// The engine's staleness generation (see [`Engine::generation`]).
    fn generation(&self) -> u64;
    /// Times the cached view has been built (see [`Engine::view_rebuilds`]).
    fn view_rebuilds(&self) -> u64;
    /// Rebuilds the cached view if stale; `Ok(true)` iff it rebuilt (see
    /// [`Engine::refresh_view`]).
    fn refresh_view(&self) -> Result<bool, SnapshotError>;
    /// A shared, type-erased reader handle on the serving view (see
    /// [`ServeHandle`] and [`Engine::serving_view`]).
    fn serve_handle(&self) -> Arc<dyn ServeHandle>;
    /// Serializes the engine (see [`Engine::checkpoint`]).
    fn checkpoint(&self) -> Vec<u8>;
    /// Captures the current checkpoint as a delta base (see [`Engine::base_ref`]).
    fn base_ref(&self) -> BaseRef;
    /// Serializes a delta checkpoint against `since` (see
    /// [`Engine::checkpoint_delta`]).
    fn checkpoint_delta(&self, since: &BaseRef) -> Result<Vec<u8>, SnapshotError>;
    /// Replaces this engine's state with a restored checkpoint (the failover verb;
    /// see [`Engine::restore_from`] for what survives the swap and which
    /// mismatched pairings are rejected).
    fn restore_from(&mut self, bytes: &[u8]) -> Result<(), SnapshotError>;
    /// Replaces this engine's state with the tip of a persisted chain (the
    /// recovery verb; see [`Engine::restore_from_chain`]).
    fn restore_from_chain(&mut self, chain: &CheckpointChain) -> Result<(), SnapshotError>;
    /// Combined accounting across shards (see [`Engine::report`]).
    fn report(&self) -> StateReport;
    /// Per-shard accounting reports.
    fn shard_reports(&self) -> Vec<StateReport>;
}

impl<A: EngineAlgorithm> DynEngine for Engine<A> {
    fn algorithm(&self) -> String {
        self.shards[0].name().to_string()
    }

    fn shards(&self) -> usize {
        self.shards.len()
    }

    fn ingested(&self) -> u64 {
        self.ingested
    }

    fn ingest(&mut self, items: &[u64]) {
        Engine::ingest(self, items);
    }

    fn query(&self, query: &Query) -> Result<Answer, SnapshotError> {
        Engine::query(self, query)
    }

    fn query_many(&self, queries: &[Query]) -> Result<Vec<Answer>, SnapshotError> {
        Engine::query_many(self, queries)
    }

    fn query_fresh(&self, query: &Query) -> Result<Answer, SnapshotError> {
        Engine::query_fresh(self, query)
    }

    fn generation(&self) -> u64 {
        Engine::generation(self)
    }

    fn view_rebuilds(&self) -> u64 {
        Engine::view_rebuilds(self)
    }

    fn refresh_view(&self) -> Result<bool, SnapshotError> {
        Engine::refresh_view(self)
    }

    fn serve_handle(&self) -> Arc<dyn ServeHandle> {
        self.serving_view()
    }

    fn checkpoint(&self) -> Vec<u8> {
        Engine::checkpoint(self)
    }

    fn base_ref(&self) -> BaseRef {
        Engine::base_ref(self)
    }

    fn checkpoint_delta(&self, since: &BaseRef) -> Result<Vec<u8>, SnapshotError> {
        Engine::checkpoint_delta(self, since)
    }

    fn restore_from(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        Engine::restore_from(self, bytes)
    }

    fn restore_from_chain(&mut self, chain: &CheckpointChain) -> Result<(), SnapshotError> {
        Engine::restore_from_chain(self, chain)
    }

    fn report(&self) -> StateReport {
        Engine::report(self)
    }

    fn shard_reports(&self) -> Vec<StateReport> {
        Engine::shard_reports(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_baselines::{CountMin, MisraGries};
    use fsc_state::{FrequencyEstimator, StateTracker};
    use fsc_streamgen::zipf::zipf_stream;

    fn count_min_engine(config: EngineConfig) -> Engine<CountMin> {
        Engine::new(config, |_| {
            CountMin::with_tracker(&StateTracker::of_kind(config.tracker), 128, 4, 77)
        })
    }

    #[test]
    fn sharded_engine_reproduces_single_shard_answers_exactly() {
        let stream = zipf_stream(1 << 10, 6_000, 1.1, 3);
        for routing in [Routing::RoundRobin, Routing::ByItemHash] {
            let mut sharded = count_min_engine(EngineConfig {
                shards: 4,
                routing,
                ..EngineConfig::default()
            });
            let mut single = count_min_engine(EngineConfig {
                shards: 1,
                routing,
                ..EngineConfig::default()
            });
            for batch in stream.chunks(512) {
                sharded.ingest(batch);
                single.ingest(batch);
            }
            assert_eq!(sharded.ingested(), stream.len() as u64);
            for item in 0..64u64 {
                assert_eq!(
                    sharded.query(&Query::Point(item)).unwrap(),
                    single.query(&Query::Point(item)).unwrap(),
                    "{routing:?}: item {item}"
                );
            }
            // Epochs are additive over shards: together they saw the whole stream.
            assert_eq!(sharded.report().epochs, stream.len() as u64);
        }
    }

    #[test]
    fn one_shard_engine_degenerates_to_a_serial_run() {
        let stream = zipf_stream(256, 2_000, 1.0, 5);
        let mut engine = Engine::new(
            EngineConfig {
                shards: 1,
                ..EngineConfig::default()
            },
            |_| MisraGries::new(16),
        );
        engine.ingest(&stream);
        let mut serial = MisraGries::new(16);
        serial.process_stream(&stream);
        // Snapshot before querying: estimates charge reads to the serial tracker.
        assert_eq!(engine.report(), serial.report());
        let merged = engine.merged_summary().unwrap();
        let mut items = serial.tracked_items();
        items.sort_unstable();
        let mut merged_items = merged.tracked_items();
        merged_items.sort_unstable();
        assert_eq!(merged_items, items);
        for &item in &items {
            assert_eq!(merged.estimate(item), serial.estimate(item));
        }
    }

    #[test]
    fn restore_of_checkpoint_is_observably_identical_and_continues_identically() {
        let stream = zipf_stream(512, 4_000, 1.2, 9);
        let (prefix, suffix) = stream.split_at(2_500);
        let config = EngineConfig {
            shards: 3,
            tracker: TrackerKind::FullAddressTracked,
            ..EngineConfig::default()
        };
        let mut engine = count_min_engine(config);
        let mut uninterrupted = count_min_engine(config);
        engine.ingest(prefix);
        uninterrupted.ingest(prefix);

        let bytes = engine.checkpoint();
        let mut restored = Engine::<CountMin>::restore(&bytes).expect("restore");
        assert_eq!(restored.shards(), 3);
        assert_eq!(restored.ingested(), engine.ingested());
        assert_eq!(restored.shard_reports(), engine.shard_reports());
        for i in 0..3 {
            assert_eq!(restored.shard_wear(i), engine.shard_wear(i), "shard {i}");
        }
        assert_eq!(restored.checkpoint(), bytes, "re-checkpoint determinism");

        // The restored engine continues bit-identically to the uninterrupted one.
        restored.ingest(suffix);
        uninterrupted.ingest(suffix);
        assert_eq!(restored.shard_reports(), uninterrupted.shard_reports());
        assert_eq!(restored.checkpoint(), uninterrupted.checkpoint());
        for item in 0..32u64 {
            assert_eq!(
                restored.query(&Query::Point(item)).unwrap(),
                uninterrupted.query(&Query::Point(item)).unwrap()
            );
        }
    }

    #[test]
    fn queries_do_not_disturb_shard_state() {
        let stream = zipf_stream(256, 1_000, 1.0, 5);
        let mut engine = count_min_engine(EngineConfig::default());
        engine.ingest(&stream);
        let before = engine.checkpoint();
        let _ = engine.query(&Query::Point(1)).unwrap();
        let _ = engine
            .query(&Query::HeavyHitters { threshold: 10.0 })
            .unwrap();
        assert_eq!(engine.checkpoint(), before);
    }

    #[test]
    fn dyn_engine_round_trips_through_the_object_safe_face() {
        let mut engine: Box<dyn DynEngine> = Box::new(count_min_engine(EngineConfig::default()));
        engine.ingest(&zipf_stream(128, 500, 1.1, 2));
        assert!(engine.algorithm().contains("CountMin"));
        assert_eq!(engine.shards(), 4);
        let bytes = engine.checkpoint();
        let mut fresh: Box<dyn DynEngine> = Box::new(count_min_engine(EngineConfig::default()));
        fresh.restore_from(&bytes).expect("failover restore");
        assert_eq!(fresh.ingested(), 500);
        assert_eq!(fresh.report(), engine.report());
        assert_eq!(
            fresh.query(&Query::Point(3)).unwrap(),
            engine.query(&Query::Point(3)).unwrap()
        );
    }

    #[test]
    fn restore_from_rejects_a_checkpoint_of_a_different_algorithm() {
        let mut donor = Engine::new(EngineConfig::default(), |_| {
            MisraGries::with_tracker(&StateTracker::new(), 32)
        });
        donor.ingest(&zipf_stream(128, 500, 1.1, 2));
        let bytes = donor.checkpoint();

        let mut engine = count_min_engine(EngineConfig::default());
        engine.ingest(&zipf_stream(128, 200, 1.1, 3));
        let before = engine.checkpoint();
        match engine.restore_from(&bytes) {
            Err(SnapshotError::WrongAlgorithm { .. }) => {}
            other => panic!("cross-algorithm restore must fail typed, got {other:?}"),
        }
        assert_eq!(engine.checkpoint(), before, "rejected restore is a no-op");
    }

    #[test]
    fn restore_from_rejects_mismatched_geometry_and_config() {
        // Same summary type, different sketch width: parses fine, pairs wrong.
        let mut wide = Engine::new(EngineConfig::default(), |_| {
            CountMin::with_tracker(&StateTracker::new(), 256, 4, 77)
        });
        wide.ingest(&zipf_stream(128, 400, 1.1, 5));
        let mut narrow = count_min_engine(EngineConfig::default());
        match narrow.restore_from(&wide.checkpoint()) {
            Err(SnapshotError::ConfigMismatch { what, .. }) => {
                assert_eq!(what, "summary geometry");
            }
            other => panic!("geometry mismatch must fail typed, got {other:?}"),
        }

        // Same summary, different shard count: engine config mismatch.
        let mut five = count_min_engine(EngineConfig {
            shards: 5,
            ..EngineConfig::default()
        });
        five.ingest(&zipf_stream(128, 400, 1.1, 5));
        match narrow.restore_from(&five.checkpoint()) {
            Err(SnapshotError::ConfigMismatch { what, .. }) => {
                assert_eq!(what, "engine config");
            }
            other => panic!("config mismatch must fail typed, got {other:?}"),
        }
    }

    #[test]
    fn restore_from_accepts_its_own_checkpoint_with_a_worker_budget_set() {
        let config = EngineConfig {
            ingest_threads: Some(4),
            ..EngineConfig::default()
        };
        let mut engine = count_min_engine(config);
        engine.ingest(&[1, 2, 3]);
        let bytes = engine.checkpoint();
        engine
            .restore_from(&bytes)
            .expect("an engine restores its own checkpoint");
        assert_eq!(engine.config(), &config, "the live worker budget survives");
        assert_eq!(engine.ingested(), 3);
        assert_eq!(engine.checkpoint(), bytes);
    }

    #[test]
    fn restore_from_chain_restores_the_recovered_tip() {
        use fsc_state::delta::CheckpointChain;
        let stream = zipf_stream(256, 3_000, 1.2, 21);
        let mut engine = count_min_engine(EngineConfig::default());
        engine.ingest(&stream[..1_000]);
        let mut chain = CheckpointChain::new(engine.checkpoint(), engine.ingested()).unwrap();
        for end in [2_000, 3_000] {
            engine.ingest(&stream[end - 1_000..end]);
            chain
                .record(&engine.checkpoint(), engine.ingested())
                .unwrap();
        }

        let mut twin: Box<dyn DynEngine> = Box::new(count_min_engine(EngineConfig::default()));
        twin.restore_from_chain(&chain).expect("chain restore");
        assert_eq!(twin.ingested(), 3_000);
        for item in 0..16u64 {
            assert_eq!(
                twin.query(&Query::Point(item)).unwrap(),
                engine.query(&Query::Point(item)).unwrap()
            );
        }
    }

    #[test]
    fn bounded_merge_summaries_serve_union_answers() {
        let stream = zipf_stream(256, 3_000, 1.3, 11);
        let mut engine = Engine::new(
            EngineConfig {
                shards: 2,
                routing: Routing::ByItemHash,
                ..EngineConfig::default()
            },
            |_| MisraGries::with_tracker(&StateTracker::new(), 32),
        );
        engine.ingest(&stream);
        // Under item-hash routing every occurrence of an item is on one shard, so
        // the union's top item estimate matches a serial Misra-Gries within the
        // merge bound; qualitatively, the heaviest item must be reported.
        let answer = engine
            .query(&Query::HeavyHitters { threshold: 50.0 })
            .unwrap();
        let hh = answer.item_weights().expect("heavy hitter answer");
        assert!(!hh.is_empty(), "top items survive the union");
    }

    #[test]
    fn delta_checkpoints_reconstruct_the_full_checkpoint() {
        use fsc_state::delta::{apply_delta, CheckpointChain};
        let stream = zipf_stream(512, 4_000, 1.2, 17);
        let mut engine = count_min_engine(EngineConfig::default());
        engine.ingest(&stream[..1_000]);

        // Point delta: base → later full checkpoint, byte-for-byte.
        let base = engine.base_ref();
        engine.ingest(&stream[1_000..2_000]);
        let full = engine.checkpoint();
        let delta = engine.checkpoint_delta(&base).unwrap();
        assert_eq!(apply_delta(base.bytes(), &delta).unwrap(), full);

        // Chain across further cadence points; tip restores a working engine.
        let mut chain = CheckpointChain::new(full, engine.ingested()).unwrap();
        assert_eq!(chain.algorithm(), SNAPSHOT_ID);
        for end in [3_000, 4_000] {
            engine.ingest(&stream[end - 1_000..end]);
            chain
                .record(&engine.checkpoint(), engine.ingested())
                .unwrap();
        }
        let restored = Engine::<CountMin>::restore(chain.tip_bytes()).unwrap();
        assert_eq!(restored.ingested(), 4_000);
        assert_eq!(restored.shard_reports(), engine.shard_reports());

        // Time travel: the engine as of ingest position 3_000.
        let (bytes, at) = chain.bytes_at(3_500).unwrap();
        assert_eq!(at, 3_000);
        let past = Engine::<CountMin>::restore(&bytes).unwrap();
        assert_eq!(past.ingested(), 3_000);
    }

    #[test]
    fn cached_queries_match_fresh_and_rebuild_only_on_state_changes() {
        let stream = zipf_stream(512, 4_000, 1.1, 21);
        let mut engine = count_min_engine(EngineConfig::default());
        assert_eq!(engine.view_rebuilds(), 0);
        for batch in stream.chunks(500) {
            engine.ingest(batch);
            for item in 0..16u64 {
                let q = Query::Point(item);
                assert_eq!(
                    engine.query(&q).unwrap(),
                    engine.query_fresh(&q).unwrap(),
                    "cached answer must match the always-rebuild oracle"
                );
            }
        }
        // 8 ingest rounds, 128 queries: the first query of each round rebuilds
        // (CountMin changes state almost every epoch), the rest hit the cache.
        assert_eq!(engine.view_rebuilds(), 8, "one rebuild per dirty round");
        let before = engine.view_rebuilds();
        let _ = engine.query_many(&(0..64).map(Query::Point).collect::<Vec<_>>());
        assert_eq!(
            engine.view_rebuilds(),
            before,
            "current view: zero rebuilds"
        );
    }

    #[test]
    fn generation_advances_with_changes_and_freezes_between_ingests() {
        let mut engine = count_min_engine(EngineConfig::default());
        let g0 = engine.generation();
        engine.ingest(&zipf_stream(256, 1_000, 1.1, 4));
        let g1 = engine.generation();
        assert!(g1 > g0, "ingest that changes state must advance the clock");
        let _ = engine.query(&Query::Point(1)).unwrap();
        let _ = engine.refresh_view().unwrap();
        assert_eq!(engine.generation(), g1, "reads never tick the clock");
    }

    #[test]
    fn restore_from_taints_the_generation_and_keeps_handles_alive() {
        let stream = zipf_stream(256, 2_000, 1.1, 8);
        let mut engine = count_min_engine(EngineConfig::default());
        engine.ingest(&stream);
        let handle = engine.serving_view();
        let q = Query::Point(3);
        let live = engine.query(&q).unwrap();
        assert_eq!(
            handle.serve(&q),
            Some(live.clone()),
            "handle sees publishes"
        );

        let bytes = engine.checkpoint();
        let before = engine.generation();
        let stamp_before = handle.published_stamp().unwrap();
        engine.restore_from(&bytes).expect("failover restore");
        assert!(
            engine.generation() > before,
            "restore taints the clock forward even though trackers rewind"
        );
        assert_ne!(
            engine.generation(),
            stamp_before,
            "the kept view's stamp must compare stale after restore"
        );
        // The old handle still serves (the pre-restore snapshot) ...
        assert_eq!(handle.serve(&q), Some(live.clone()));
        // ... and the first post-restore query rebuilds through the same cell.
        let rebuilds = engine.view_rebuilds();
        assert_eq!(engine.query(&q).unwrap(), live);
        assert_eq!(engine.view_rebuilds(), rebuilds + 1);
        assert_eq!(handle.serve(&q), Some(live), "handle caught the republish");
    }

    #[test]
    fn parallel_ingest_gate_requires_shards_cores_and_volume() {
        let t = PARALLEL_INGEST_THRESHOLD;
        assert!(use_parallel_ingest(4, 4, t));
        assert!(use_parallel_ingest(2, 2, t + 1));
        assert!(
            !use_parallel_ingest(1, 4, t),
            "one shard has no parallelism"
        );
        assert!(
            !use_parallel_ingest(4, 1, t),
            "one core cannot overlap workers"
        );
        assert!(
            !use_parallel_ingest(4, 4, t - 1),
            "sub-threshold stays serial"
        );
        assert!(!use_parallel_ingest(4, 0, t), "zero workers never thread");
    }

    #[test]
    fn parallel_ingest_is_observably_identical_to_serial() {
        // Large enough that every shard's sub-batch clears the threshold, with the
        // worker budget forced past the gate so the scoped-thread path actually
        // runs even on a single-CPU host (where the default budget stays serial).
        let stream = zipf_stream(1 << 10, 4 * PARALLEL_INGEST_THRESHOLD, 1.1, 13);
        let config = EngineConfig {
            tracker: TrackerKind::FullAddressTracked,
            ingest_threads: Some(4),
            ..EngineConfig::default()
        };
        let mut parallel = count_min_engine(config);
        let mut serial = count_min_engine(config);
        parallel.ingest(&stream); // one call: sub-batches ≥ threshold → workers
        for batch in stream.chunks(1_000) {
            serial.ingest(batch); // small calls: always the serial drain
        }
        assert_eq!(parallel.shard_reports(), serial.shard_reports());
        assert_eq!(parallel.checkpoint(), serial.checkpoint());
        for i in 0..4 {
            assert_eq!(parallel.shard_wear(i), serial.shard_wear(i), "shard {i}");
        }
    }

    #[test]
    fn corrupt_engine_checkpoints_error_not_panic() {
        let mut engine = count_min_engine(EngineConfig::default());
        engine.ingest(&zipf_stream(64, 300, 1.1, 1));
        let bytes = engine.checkpoint();
        for cut in (0..bytes.len()).step_by(3) {
            assert!(Engine::<CountMin>::restore(&bytes[..cut]).is_err());
        }
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(matches!(
            Engine::<CountMin>::restore(&bad),
            Err(SnapshotError::BadMagic)
        ));
        // A shard checkpoint of the wrong algorithm type is rejected by the nested
        // header validation.
        assert!(Engine::<MisraGries>::restore(&bytes).is_err());
    }
}
