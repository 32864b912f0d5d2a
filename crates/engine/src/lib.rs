//! # fsc-engine — a checkpointable, sharded streaming engine
//!
//! The long-lived serving layer over the repository's summaries: an [`Engine`] owns
//! `S` replicas ("shards") of one summary type, routes every ingested batch across
//! them, serves queries from their [`Mergeable`](fsc_state::Mergeable) union, and
//! persists/recovers itself through the versioned checkpoints of the
//! [`Snapshot`](fsc_state::Snapshot) layer.
//!
//! The design leans on the three laws the algorithm layer already guarantees:
//!
//! * **Batch law** — shard ingest goes through the specialized `process_batch`
//!   kernels, observably identical to per-item updates;
//! * **Merge law** — linear sketches with shared seeds merge *exactly*, so a sharded
//!   engine answers queries identically to a single-shard run over the concatenated
//!   stream (counter summaries merge within their usual additive bounds);
//! * **Snapshot law** — `restore(checkpoint(e))` is observably identical to `e`
//!   (answers, per-shard [`StateReport`](fsc_state::StateReport), per-address wear),
//!   so a crash between checkpoints loses only the updates since the last one.
//!
//! Queries never disturb shard state, and they almost never rebuild: the merged
//! view — the shards' untracked
//! [`assign_union`](fsc_state::Mergeable::assign_union), written into the
//! snapshot the previous publish displaced when no reader still holds it — is
//! built once and published through a generation-stamped
//! [`ServingView`], then revalidated lazily against [`Engine::generation`], the
//! engine's state-change clock.  A query on a current view is a lock-free stamp
//! compare plus an `Arc` clone; a rebuild happens only after a *state change*
//! lands, so serve cost tracks the paper's scarce resource rather than ingest
//! volume ([`Engine::query_fresh`] keeps the always-rebuild path as the testing
//! oracle, and [`ServeHandle`] lets detached reader threads serve published
//! snapshots while a writer ingests).
//!
//! Checkpoints have two faces: [`Engine::checkpoint`] serializes everything, and
//! [`Engine::checkpoint_delta`] emits only the `FSCD` bytes that changed since a
//! captured [`BaseRef`](fsc_state::delta::BaseRef) — chained and time-travelled via
//! [`CheckpointChain`](fsc_state::delta::CheckpointChain), with the cadence/mode
//! selected per scenario through [`scenario::CheckpointMode`] (the delta-law tests
//! pin that base + deltas reconstructs the full checkpoint byte-for-byte).
//!
//! [`scenario`] adds the config-driven workload layer: a [`Scenario`] is a literal
//! description (segments of Zipf/uniform/sorted/bursty/drifting traffic, a checkpoint
//! cadence) that synthesizes its stream from `fsc-streamgen`, so a new workload is a
//! config value, not a new binary.  The `fsc-bench` experiment F12 (`fig_engine`)
//! drives engines from the shared algorithm registry through these scenarios.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
pub mod scenario;
mod view;

pub use engine::{detected_cores, DynEngine, Engine, EngineAlgorithm, EngineConfig, Routing};
pub use scenario::{CheckpointMode, Scenario, Segment, Workload};
pub use view::{ServeHandle, ServingView};
