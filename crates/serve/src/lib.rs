//! # fsc-serve — a crash-tolerant network front-end over the engine
//!
//! The paper's thesis is that state changes are scarce; PRs 5–7 turned that
//! into cheap checkpoints, delta chains, and a cached serving path.  This crate
//! is where those mechanisms earn their keep: a long-lived TCP server whose
//! failure behavior — torn checkpoint writes, corrupt chain tips, crashes
//! mid-ingest, dropped connections, overload — is *drilled*, not hoped about.
//!
//! Std-only by construction (threads + `std::net`, length-prefixed binary
//! frames reusing the `FSCS` codec): the build environment vendors its few
//! dependencies as shims, so the server depends on nothing it cannot see.
//!
//! ## The pieces
//!
//! * [`protocol`] — the framed wire format.  Total parsing: truncated, garbage,
//!   and oversized-length frames land in typed errors, never panics or
//!   unbounded allocations.
//! * [`server`] — thread-per-connection server over per-tenant
//!   [`DynEngine`](fsc_engine::DynEngine)s: lock-free reads off the cached
//!   serving view, admission-bounded writes, delta-chain persistence, startup
//!   recovery past damaged logs with a typed [`RecoveryReport`].
//! * [`client`] — per-request timeouts, bounded retries with jittered
//!   exponential backoff, sequence-numbered idempotent ingest, and the
//!   [`LoadGen`] saturation driver.
//! * [`faults`] — the seeded fault-injection plan the drills arm.
//! * [`storage`] — the per-tenant directory layout (meta, base, delta files,
//!   journal), with every durable write fsynced through to the directory.
//! * [`wal`] — the per-tenant write-ahead batch journal: checksummed,
//!   seq-stamped records appended before every ack, replayed at recovery,
//!   truncated at every checkpoint.
//!
//! ## Quickstart
//!
//! A server over a toy factory, a client ingesting and querying, a graceful
//! shutdown (the README's server quickstart, compile-checked and run as a doc
//! test):
//!
//! ```
//! use std::sync::Arc;
//! use fsc_engine::{Engine, EngineConfig};
//! use fsc_serve::{Client, ClientConfig, EngineFactory, Server, ServerConfig};
//! use fsc_state::{Answer, Query};
//!
//! // Engine factory: normally fsc_bench::registry::serve_factory(); any
//! // closure from algorithm id to DynEngine works.
//! # use fsc_state::{StateTracker, TrackerKind};
//! # use fsc_baselines::CountMin;
//! let factory: EngineFactory = Arc::new(|algorithm, config| match algorithm {
//!     "count_min" => Some(Box::new(Engine::new(config, |_| {
//!         CountMin::with_tracker(&StateTracker::of_kind(config.tracker), 1 << 10, 4, 1)
//!     })) as Box<dyn fsc_engine::DynEngine>),
//!     _ => None,
//! });
//!
//! let dir = std::env::temp_dir().join(format!("fsc-serve-quickstart-{}", std::process::id()));
//! let (server, recovery) =
//!     Server::start("127.0.0.1:0", ServerConfig::new(&dir), factory).unwrap();
//! assert_eq!(recovery.tenants.len(), 0, "fresh data dir: nothing to recover");
//!
//! let mut client = Client::new(server.addr(), ClientConfig::default());
//! client.create_tenant("demo", "count_min", 2).unwrap();
//! assert!(client.ingest("demo", 0, &[7, 7, 7, 8]).unwrap());
//! let answer = client.query("demo", Query::Point(7)).unwrap();
//! assert_eq!(answer, Answer::Scalar(3.0));
//! client.shutdown().unwrap();   // checkpoints every tenant, then stops
//! server.join();
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! ## The recovery law
//!
//! Kill a server mid-ingest and restart it over the same data dir: the restart
//! answers exactly like a twin that saw *every acked batch* — the delta chain
//! supplies the checkpointed prefix, the write-ahead journal replays the acked
//! suffix, and any torn journal tail is truncated at the last valid record
//! with typed counts in the [`RecoveryReport`].  Duplicate re-sends of
//! recovered batches ack without re-applying.  In
//! [`Durability::AckAfterDurable`] mode the
//! law holds against power loss too: the journal append is fsynced before
//! every ack.  The law tests drill the fault classes against registry twins:
//! `tests/serve_net_laws.rs` the torn checkpoint writes, corrupt chain tips,
//! dropped connections and overload, and `tests/recovery_laws.rs` every crash
//! point, torn and corrupt journal appends, and power loss.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod faults;
pub mod protocol;
pub mod server;
pub mod storage;
pub mod wal;

pub use client::{Client, ClientConfig, ClientCounters, ClientError, LoadGen, LoadReport};
pub use faults::{CrashPoint, FaultPlan};
pub use protocol::{
    JournalRemedy, Request, Response, ServeError, ServerStatus, TenantStats, TenantStatus,
    MAX_FRAME, MAX_TENANT_SHARDS,
};
pub use server::{EngineFactory, Server, ServerConfig, ServerHandle};
pub use storage::{RecoveryReport, TenantOutcome, TenantRecovery};
pub use wal::{Durability, Wal, WalError, WalRecord};
