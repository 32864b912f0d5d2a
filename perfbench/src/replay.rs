//! The traced replay: an acked request sequence, in process, through each
//! layer's public functions in the order the server calls them.
//!
//! * ingest: `Request::decode` → `Wal::append` → `Wal::maybe_sync` (an fsync
//!   when the group commit fills) → `DynEngine::ingest` →
//!   `DynEngine::refresh_view` → `Response::encode`;
//! * query: `Request::decode` → `ServeHandle::serve` → `Response::encode`
//!   (the paced reads of `serve_mixed`, and the probe queries whose answers
//!   the output checks compare);
//! * checkpoint: `DynEngine::checkpoint` + `TenantSnapshot::encode` →
//!   `encode_delta` → `CheckpointChain::append_delta` →
//!   `TenantStorage::append_delta` → `Wal::truncate`;
//! * recovery: `storage::load_tenant` + `DynEngine::restore_from` →
//!   `Wal::open` + journal replay + `refresh_view`.
//!
//! It mirrors `fsc_serve::server` call for call, without the socket, the
//! admission counter and the tenant lock, so the untraced client latency
//! minus the replay's layer time is what those cost (`net.residual_us`).

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fsc_engine::{DynEngine, ServeHandle};
use fsc_serve::storage::{load_tenant, TenantMeta, TenantSnapshot, TenantStorage};
use fsc_serve::wal::WalAppend;
use fsc_serve::{FaultPlan, Request, Response, ServerConfig, Wal};
use fsc_state::delta::{encode_delta, CheckpointChain};
use fsc_state::{Answer, Query};

use crate::serve::{Spec, TENANT};
use crate::stream::{hot_read, probes, tenant_engine, Pool};
use crate::trace::Tracer;

/// Times recovery runs at the restart point (the last one continues).
const RECOVERIES: usize = 5;

/// What to replay.
pub struct Plan<'a> {
    /// The served tenant's configuration.
    pub spec: &'a Spec,
    /// The item stream.
    pub pool: &'a Pool,
    /// Acked batches to replay (sequence numbers `0..batches`).  After the
    /// last one and its reads, the tenant is dropped without a checkpoint and
    /// recovered from disk, as a killed server restarts.
    pub batches: u64,
    /// Point reads after each ingest.
    pub reads_per_batch: u64,
}

/// Counts the replay keeps beside its spans.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Answers to the probe queries at the end.
    pub answers: Vec<Answer>,
    /// Wall time of the whole replay, in s.
    pub elapsed: f64,
    /// Ingest requests applied.
    pub ingests: u64,
    /// Items applied.
    pub items: u64,
    /// Journal fsyncs on the ingest path.
    pub fsyncs: u64,
    /// Journal bytes appended.
    pub wal_bytes: u64,
    /// View rebuilds on the ingest path.
    pub rebuilds: u64,
    /// Rebuilds that no read saw before the next rebuild replaced them.
    pub unread_rebuilds: u64,
    /// Size of each checkpoint delta, in bytes.
    pub delta_bytes: Vec<f64>,
}

/// One tenant's server-side state, as `fsc_serve::server` holds it.
struct Tenant {
    engine: Box<dyn DynEngine>,
    serve: Arc<dyn ServeHandle>,
    next_seq: u64,
    chain: CheckpointChain,
    storage: TenantStorage,
    wal: Wal,
}

fn fail(what: &str, detail: impl std::fmt::Display) -> String {
    format!("replay {what}: {detail}")
}

impl Tenant {
    /// Provisions the tenant as `CreateTenant` does (untimed: set-up).
    fn create(root: &Path, spec: &Spec, faults: &FaultPlan) -> Result<Self, String> {
        let engine = tenant_engine(spec.algorithm, spec.shards);
        engine.refresh_view().map_err(|x| fail("create", x))?;
        let base = TenantSnapshot {
            next_seq: 0,
            epoch: 0,
            engine: engine.checkpoint(),
        };
        let meta = TenantMeta {
            algorithm: spec.algorithm.to_string(),
            shards: spec.shards,
        };
        let storage = TenantStorage::create(root, TENANT, &meta, &base, faults)
            .map_err(|x| fail("create", x))?;
        let wal = Wal::create(storage.dir()).map_err(|x| fail("create", x))?;
        let chain = CheckpointChain::new(base.encode(), 0).map_err(|x| fail("create", x))?;
        Ok(Self {
            serve: engine.serve_handle(),
            engine,
            next_seq: 0,
            chain,
            storage,
            wal,
        })
    }

    /// Restarts the tenant from disk as server start-up does.
    fn recover(root: &Path, tracer: &mut Tracer) -> Result<(Self, u64), String> {
        let req = tracer.request("request.recover");
        let (mut engine, loaded, storage) = tracer.span(req, "recovery.load", || {
            let loaded = load_tenant(root, TENANT).map_err(|x| fail("recovery", x))?;
            let mut engine = tenant_engine(&loaded.meta.algorithm, loaded.meta.shards);
            engine
                .restore_from(&loaded.snapshot.engine)
                .map_err(|x| fail("recovery", x))?;
            let storage = TenantStorage::open(root, TENANT).map_err(|x| fail("recovery", x))?;
            Ok::<_, String>((engine, loaded, storage))
        })?;
        let (wal, next_seq, replayed) = tracer.span(req, "recovery.replay", || {
            let (wal, recovery) = Wal::open(storage.dir(), loaded.snapshot.next_seq)
                .map_err(|x| fail("recovery", x))?;
            let mut next_seq = loaded.snapshot.next_seq;
            for record in &recovery.replay {
                engine.ingest(&record.items);
                next_seq += 1;
            }
            engine.refresh_view().map_err(|x| fail("recovery", x))?;
            Ok::<_, String>((wal, next_seq, recovery.replay.len() as u64))
        })?;
        tracer.end(req);
        Ok((
            Self {
                serve: engine.serve_handle(),
                engine,
                next_seq,
                chain: loaded.chain,
                storage,
                wal,
            },
            replayed,
        ))
    }

    /// One ingest request; returns whether the view was rebuilt.
    fn ingest(
        &mut self,
        payload: &[u8],
        group_commit: u64,
        faults: &FaultPlan,
        tracer: &mut Tracer,
        out: &mut Replayed,
    ) -> Result<bool, String> {
        let req = tracer.request("request.ingest");
        let request = tracer
            .span(req, "protocol.decode", || Request::decode(payload))
            .map_err(|x| fail("ingest", x))?;
        let Request::Ingest { seq, items, .. } = request else {
            return Err(fail("ingest", format_args!("decoded {request:?}")));
        };
        if seq != self.next_seq {
            return Err(fail(
                "ingest",
                format_args!("seq {seq}, expected {}", self.next_seq),
            ));
        }
        let appended = self.wal.appended_bytes();
        let landed = tracer
            .span(req, "wal.append", || self.wal.append(seq, &items, faults))
            .map_err(|x| fail("ingest", x))?;
        if landed != WalAppend::Clean {
            return Err(fail(
                "ingest",
                format_args!("journal append landed {landed:?}"),
            ));
        }
        out.wal_bytes += self.wal.appended_bytes() - appended;
        let synced = self.wal.synced_len();
        let mark = tracer.mark();
        self.wal
            .maybe_sync(group_commit)
            .map_err(|x| fail("ingest", x))?;
        if self.wal.synced_len() != synced {
            tracer.record(req, "wal.fsync", mark);
            out.fsyncs += 1;
        }
        tracer.span(req, "engine.ingest", || self.engine.ingest(&items));
        self.next_seq += 1;
        let rebuilt = tracer
            .span(req, "view.refresh", || self.engine.refresh_view())
            .map_err(|x| fail("ingest", x))?;
        let response = tracer.span(req, "protocol.encode", || {
            Response::IngestAck { seq, applied: true }.encode()
        });
        tracer.end(req);
        black_box(response);
        out.ingests += 1;
        out.items += items.len() as u64;
        Ok(rebuilt)
    }

    /// One query request.
    fn read(&self, payload: &[u8], tracer: &mut Tracer) -> Result<Answer, String> {
        let req = tracer.request("request.query");
        let request = tracer
            .span(req, "protocol.decode", || Request::decode(payload))
            .map_err(|x| fail("query", x))?;
        let Request::Query { query, .. } = request else {
            return Err(fail("query", format_args!("decoded {request:?}")));
        };
        let answer = tracer
            .span(req, "view.serve", || self.serve.serve(&query))
            .ok_or_else(|| fail("query", format_args!("no view published")))?;
        let response = tracer.span(req, "protocol.encode", || {
            Response::Answer(answer.clone()).encode()
        });
        tracer.end(req);
        black_box(response);
        Ok(answer)
    }

    /// One checkpoint request (`TenantInner::persist`); returns the delta size.
    fn checkpoint(
        &mut self,
        payload: &[u8],
        faults: &FaultPlan,
        tracer: &mut Tracer,
    ) -> Result<Option<usize>, String> {
        let req = tracer.request("request.checkpoint");
        let request = tracer
            .span(req, "protocol.decode", || Request::decode(payload))
            .map_err(|x| fail("checkpoint", x))?;
        if !matches!(request, Request::Checkpoint { .. }) {
            return Err(fail("checkpoint", format_args!("decoded {request:?}")));
        }
        let mut size = None;
        if self.next_seq != self.chain.tip_epoch() {
            let full = tracer.span(req, "checkpoint.snapshot", || {
                TenantSnapshot {
                    next_seq: self.next_seq,
                    epoch: self.next_seq,
                    engine: self.engine.checkpoint(),
                }
                .encode()
            });
            let delta = tracer
                .span(req, "checkpoint.delta", || {
                    encode_delta(
                        self.chain.tip_bytes(),
                        &full,
                        self.chain.tip_epoch(),
                        self.next_seq,
                    )
                })
                .map_err(|x| fail("checkpoint", x))?;
            tracer
                .span(req, "checkpoint.chain", || {
                    self.chain.append_delta(delta.clone())
                })
                .map_err(|x| fail("checkpoint", x))?;
            let intact = tracer
                .span(req, "checkpoint.write", || {
                    self.storage.append_delta(&delta, faults)
                })
                .map_err(|x| fail("checkpoint", x))?;
            if !intact {
                return Err(fail("checkpoint", format_args!("delta write tore")));
            }
            tracer
                .span(req, "checkpoint.truncate", || self.wal.truncate())
                .map_err(|x| fail("checkpoint", x))?;
            size = Some(delta.len());
        }
        let response = tracer.span(req, "protocol.encode", || Response::Ok.encode());
        tracer.end(req);
        black_box(response);
        Ok(size)
    }

    /// The answers to the probe queries, each one a query request.
    fn answers(&self, tracer: &mut Tracer) -> Result<Vec<Answer>, String> {
        probes()
            .into_iter()
            .map(|q| self.read(&query_payload(q), tracer))
            .collect()
    }
}

fn query_payload(query: Query) -> Vec<u8> {
    Request::Query {
        tenant: TENANT.into(),
        query,
    }
    .encode()
}

/// Replays `plan` into a fresh data dir under `root`.
pub fn replay(plan: &Plan<'_>, root: &Path, tracer: &mut Tracer) -> Result<Replayed, String> {
    let spec = plan.spec;
    let faults = FaultPlan::none();
    let group_commit = ServerConfig::new(root).group_commit;
    let checkpoint = Request::Checkpoint {
        tenant: TENANT.into(),
    }
    .encode();
    let started = Instant::now();
    let mut out = Replayed::default();
    let mut tenant = Tenant::create(root, spec, &faults)?;
    let mut reads = 0u64;
    // Whether the newest published view has not been read yet.
    let mut unread = false;
    for seq in 0..plan.batches {
        let payload = Request::Ingest {
            tenant: TENANT.into(),
            seq,
            items: plan.pool.batch(seq).to_vec(),
        }
        .encode();
        if tenant.ingest(&payload, group_commit, &faults, tracer, &mut out)? {
            out.rebuilds += 1;
            out.unread_rebuilds += u64::from(unread);
            unread = true;
        }
        for _ in 0..plan.reads_per_batch {
            tenant.read(&query_payload(hot_read(reads)), tracer)?;
            reads += 1;
            unread = false;
        }
        if spec.checkpoint_after(tenant.next_seq) {
            if let Some(size) = tenant.checkpoint(&checkpoint, &faults, tracer)? {
                out.delta_bytes.push(size as f64);
            }
        }
    }
    // The probes read the last rebuild.
    out.answers = tenant.answers(tracer)?;

    // A killed server restarts from disk: the chain tip plus the journal.
    let expected = tenant.next_seq - tenant.chain.tip_epoch();
    drop(tenant);
    let mut recovered = None;
    for _ in 0..RECOVERIES {
        recovered = Some(Tenant::recover(root, tracer)?);
    }
    let (mut tenant, replayed) = recovered.expect("at least one recovery");
    if replayed != expected || tenant.answers(tracer)? != out.answers {
        return Err(format!(
            "replay recovery: replayed {replayed} of {expected} journaled batches, \
             or answers changed across the restart"
        ));
    }
    // The shutdown sweep: every tenant checkpoints before the server stops.
    if let Some(size) = tenant.checkpoint(&checkpoint, &faults, tracer)? {
        out.delta_bytes.push(size as f64);
    }
    out.elapsed = started.elapsed().as_secs_f64();
    Ok(out)
}
