//! Per-tenant durable state: one directory per tenant holding a meta record, a
//! base checkpoint, and an append-only run of delta files — the on-disk form of
//! a [`CheckpointChain`].
//!
//! ```text
//! <root>/<tenant>/meta.fscs         # algorithm id + shard count
//! <root>/<tenant>/base.fscs         # wrapper checkpoint (next_seq + engine bytes)
//! <root>/<tenant>/delta-000000.fscd # deltas, in append order
//! <root>/<tenant>/delta-000001.fscd
//! <root>/<tenant>/wal.fscw          # write-ahead batch journal (see `wal`)
//! <root>/<tenant>/wal-retired.fscw  # the journal segment a checkpoint in flight covers
//! ```
//!
//! The retired journal segment exists only between a checkpoint's journal
//! rotation and the unlink that follows its durable delta (or, after a torn
//! delta, until the next restart); recovery reads it ahead of `wal.fscw` and
//! folds both into one `wal.fscw` (see [`crate::wal`]).
//!
//! Every durable write here is fsynced (file *and* parent directory), so
//! "durable" means surviving power loss, not just process kill.
//!
//! Checkpoints persist the *wrapper* ([`TenantSnapshot`]: ingest sequence
//! number plus nested engine checkpoint), not the bare engine, so the cursor
//! rides inside the same delta chain as the summary state — a recovered tenant
//! knows exactly which batches it holds, and a retrying client's duplicate
//! detection survives the crash.
//!
//! All durable writes route through the [`FaultPlan`], which may tear them; the
//! read path is therefore written against torn files as the *normal* case:
//! [`CheckpointChain::recover`] replays the newest valid prefix and reports what
//! it discarded, and stale torn deltas left behind on disk are re-discarded on
//! every subsequent load (appending continues past them, and the chain's
//! epoch-pairing validation keeps them from ever applying).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use fsc_state::delta::{ChainRecovery, CheckpointChain};
use fsc_state::{SnapshotError, SnapshotReader, SnapshotWriter};

use crate::faults::FaultPlan;

/// `FSCS` id of the tenant meta record.
pub const META_ID: &str = "fsc_serve_meta";
/// `FSCS` id of the wrapper checkpoint the delta chain runs over.
pub const TENANT_SNAPSHOT_ID: &str = "fsc_serve_tenant";

/// The immutable facts about a tenant (written once at provisioning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantMeta {
    /// Registry algorithm id (e.g. `"count_min"`).
    pub algorithm: String,
    /// Engine shard count.
    pub shards: u32,
}

impl TenantMeta {
    /// Encodes the meta record.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(META_ID);
        w.str(&self.algorithm);
        w.u32(self.shards);
        w.finish()
    }

    /// Decodes a meta record (total).
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, META_ID)?;
        let meta = Self {
            algorithm: r.string()?,
            shards: r.u32()?,
        };
        r.finish()?;
        Ok(meta)
    }
}

/// The wrapper checkpoint: idempotency cursor + nested engine checkpoint, taken
/// at one ingest epoch.  This is what the delta chain diffs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Next expected ingest sequence number at capture time.
    pub next_seq: u64,
    /// Ingest epoch (engine items ingested) at capture time.
    pub epoch: u64,
    /// Nested [`DynEngine::checkpoint`](fsc_engine::DynEngine::checkpoint) bytes.
    pub engine: Vec<u8>,
}

impl TenantSnapshot {
    /// Encodes the wrapper.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(TENANT_SNAPSHOT_ID);
        w.u64(self.next_seq);
        w.u64(self.epoch);
        w.bytes(&self.engine);
        w.finish()
    }

    /// Decodes the wrapper (total).
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, TENANT_SNAPSHOT_ID)?;
        let snap = Self {
            next_seq: r.u64()?,
            epoch: r.u64()?,
            engine: r.byte_slice()?.to_vec(),
        };
        r.finish()?;
        Ok(snap)
    }
}

/// One tenant's directory.
#[derive(Debug, Clone)]
pub struct TenantStorage {
    dir: PathBuf,
    /// Index the next delta file gets (max existing index + 1, so discarded torn
    /// files are left in place and skipped forever).
    next_delta: u64,
}

fn delta_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("delta-{index:06}.fscd"))
}

/// Writes `bytes` to `path` and fsyncs the file. The caller still owes a
/// [`sync_dir`] on the parent if the file is new.
fn durable_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = fs::File::create(path)?;
    io::Write::write_all(&mut file, bytes)?;
    file.sync_all()
}

/// Fsyncs a directory, so a just-created file's *name* survives power loss
/// (a file's own `sync_all` makes its bytes durable, not its directory entry).
/// No-op off Unix, where directories cannot be opened for syncing.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Lists `(index, path)` of the delta files present, in index order.
fn delta_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(index) = name
            .strip_prefix("delta-")
            .and_then(|rest| rest.strip_suffix(".fscd"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            out.push((index, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(index, _)| *index);
    Ok(out)
}

impl TenantStorage {
    /// Provisions a tenant directory: creates it and writes the meta record and
    /// the base checkpoint (the latter through the fault plan).
    pub fn create(
        root: &Path,
        tenant: &str,
        meta: &TenantMeta,
        base: &TenantSnapshot,
        faults: &FaultPlan,
    ) -> io::Result<Self> {
        let dir = root.join(tenant);
        fs::create_dir_all(&dir)?;
        durable_write(&dir.join("meta.fscs"), &meta.encode())?;
        let bytes = base.encode();
        let written = faults.tear_write(&bytes).unwrap_or(bytes);
        durable_write(&dir.join("base.fscs"), &written)?;
        sync_dir(&dir)?;
        sync_dir(root)?;
        Ok(Self { dir, next_delta: 0 })
    }

    /// Opens an existing tenant directory without reading state.
    pub fn open(root: &Path, tenant: &str) -> io::Result<Self> {
        let dir = root.join(tenant);
        if !dir.join("meta.fscs").is_file() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("tenant {tenant:?} has no meta record"),
            ));
        }
        let next_delta = delta_files(&dir)?
            .last()
            .map(|(index, _)| index + 1)
            .unwrap_or(0);
        Ok(Self { dir, next_delta })
    }

    /// Appends one delta blob (through the fault plan), fsyncing the file and
    /// its directory.  The in-memory chain has already validated it; a tear
    /// here is exactly the crash-mid-write case the recovery path drills.
    ///
    /// Returns whether the blob landed intact (`false` means the fault plan
    /// tore it — the caller must then treat the on-disk chain as damaged and
    /// stop truncating the journal, or acked batches past the tear would have
    /// no durable copy anywhere).
    pub fn append_delta(&mut self, delta: &[u8], faults: &FaultPlan) -> io::Result<bool> {
        let (file, intact) = self.write_delta(delta, faults)?;
        self.sync_delta(&file)?;
        Ok(intact)
    }

    /// The first half of [`TenantStorage::append_delta`]: writes the blob
    /// (through the fault plan) to the next delta file, unsynced.  Returns the
    /// open file, for [`TenantStorage::sync_delta`], and whether the blob
    /// landed intact.
    pub fn write_delta(
        &mut self,
        delta: &[u8],
        faults: &FaultPlan,
    ) -> io::Result<(fs::File, bool)> {
        let path = delta_path(&self.dir, self.next_delta);
        self.next_delta += 1;
        let torn = faults.tear_write(delta);
        let mut file = fs::File::create(path)?;
        io::Write::write_all(&mut file, torn.as_deref().unwrap_or(delta))?;
        Ok((file, torn.is_none()))
    }

    /// The second half of [`TenantStorage::append_delta`]: fsyncs a delta file
    /// from [`TenantStorage::write_delta`] and then the tenant directory.
    pub fn sync_delta(&self, file: &fs::File) -> io::Result<()> {
        file.sync_all()?;
        sync_dir(&self.dir)
    }

    /// The tenant directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Everything read back from a tenant directory, before chain replay.
#[derive(Debug)]
pub struct LoadedTenant {
    /// The meta record.
    pub meta: TenantMeta,
    /// Replayed chain (newest valid prefix) and what the replay discarded.
    pub chain: CheckpointChain,
    /// The replay report.
    pub replay: ChainRecovery,
    /// The wrapper decoded from the chain tip.
    pub snapshot: TenantSnapshot,
}

/// Reads a tenant directory back and replays its chain past any torn or corrupt
/// entries.  Errors mean the tenant is unrecoverable (missing/torn meta or base,
/// or a tip wrapper that does not decode) — per-tenant isolation turns that into
/// one failed tenant, never a failed server.
pub fn load_tenant(root: &Path, tenant: &str) -> Result<LoadedTenant, String> {
    let dir = root.join(tenant);
    let meta_bytes = fs::read(dir.join("meta.fscs")).map_err(|e| format!("reading meta: {e}"))?;
    let meta = TenantMeta::decode(&meta_bytes).map_err(|e| format!("decoding meta: {e}"))?;
    let base_bytes = fs::read(dir.join("base.fscs")).map_err(|e| format!("reading base: {e}"))?;
    let base_epoch = TenantSnapshot::decode(&base_bytes)
        .map_err(|e| format!("decoding base checkpoint: {e}"))?
        .epoch;
    let mut deltas = Vec::new();
    for (_, path) in delta_files(&dir).map_err(|e| format!("listing deltas: {e}"))? {
        deltas.push(fs::read(&path).map_err(|e| format!("reading {path:?}: {e}"))?);
    }
    let (chain, replay) = CheckpointChain::recover(base_bytes, base_epoch, deltas)
        .map_err(|e| format!("replaying chain: {e}"))?;
    let snapshot = TenantSnapshot::decode(chain.tip_bytes())
        .map_err(|e| format!("decoding recovered tip: {e}"))?;
    Ok(LoadedTenant {
        meta,
        chain,
        replay,
        snapshot,
    })
}

/// Tenant directories present under `root` (sorted; empty when `root` does not
/// exist yet).
pub fn list_tenants(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if entry.path().join("meta.fscs").is_file() {
            out.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// What startup recovery concluded about one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenantOutcome {
    /// The tenant is live again at `epoch`, `discarded` damaged chain entries
    /// were dropped during replay.
    Recovered {
        /// Ingest epoch of the recovered tip.
        epoch: u64,
        /// Next expected ingest sequence number.
        next_seq: u64,
        /// Deltas applied during replay.
        applied: usize,
        /// Damaged chain entries discarded during replay.
        discarded: usize,
        /// Journal batches replayed past the chain tip.
        wal_replayed: u64,
        /// Bytes of torn journal tail truncated at the last valid record.
        wal_truncated_bytes: u64,
    },
    /// The tenant could not be brought back (reason stringified); other tenants
    /// are unaffected.
    Failed {
        /// Why.
        error: String,
    },
}

/// Per-tenant outcome of one server startup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRecovery {
    /// Tenant name.
    pub tenant: String,
    /// What happened.
    pub outcome: TenantOutcome,
}

/// The typed startup-recovery report: one entry per tenant directory found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Per-tenant outcomes, sorted by tenant name.
    pub tenants: Vec<TenantRecovery>,
}

impl RecoveryReport {
    /// Tenants brought back live.
    pub fn recovered(&self) -> usize {
        self.tenants
            .iter()
            .filter(|t| matches!(t.outcome, TenantOutcome::Recovered { .. }))
            .count()
    }

    /// Tenants that could not be brought back.
    pub fn failed(&self) -> usize {
        self.tenants.len() - self.recovered()
    }

    /// Total damaged chain entries discarded across recovered tenants.
    pub fn total_discarded(&self) -> usize {
        self.tenants
            .iter()
            .map(|t| match t.outcome {
                TenantOutcome::Recovered { discarded, .. } => discarded,
                TenantOutcome::Failed { .. } => 0,
            })
            .sum()
    }

    /// Total journal batches replayed past chain tips across recovered tenants.
    pub fn total_wal_replayed(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| match t.outcome {
                TenantOutcome::Recovered { wal_replayed, .. } => wal_replayed,
                TenantOutcome::Failed { .. } => 0,
            })
            .sum()
    }

    /// Total torn journal bytes truncated across recovered tenants.
    pub fn total_wal_truncated_bytes(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| match t.outcome {
                TenantOutcome::Recovered {
                    wal_truncated_bytes,
                    ..
                } => wal_truncated_bytes,
                TenantOutcome::Failed { .. } => 0,
            })
            .sum()
    }

    /// Whether every tenant came back with nothing discarded or truncated.
    /// Journal *replay* is clean — it is the journal doing its job — but a
    /// truncated tail means a record was torn or corrupted on disk.
    pub fn is_clean(&self) -> bool {
        self.failed() == 0 && self.total_discarded() == 0 && self.total_wal_truncated_bytes() == 0
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} tenant(s): {} recovered, {} failed, {} chain entr(ies) discarded, \
             {} journal batch(es) replayed, {} journal byte(s) truncated",
            self.tenants.len(),
            self.recovered(),
            self.failed(),
            self.total_discarded(),
            self.total_wal_replayed(),
            self.total_wal_truncated_bytes()
        )?;
        for t in &self.tenants {
            match &t.outcome {
                TenantOutcome::Recovered {
                    epoch,
                    next_seq,
                    applied,
                    discarded,
                    wal_replayed,
                    wal_truncated_bytes,
                } => write!(
                    f,
                    "; {}: epoch {epoch}, next_seq {next_seq}, {applied} applied, \
                     {discarded} discarded, {wal_replayed} replayed, \
                     {wal_truncated_bytes} truncated",
                    t.tenant
                )?,
                TenantOutcome::Failed { error } => write!(f, "; {}: FAILED ({error})", t.tenant)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fsc-serve-storage-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snapshot(next_seq: u64, epoch: u64, payload: &[u64]) -> TenantSnapshot {
        let mut w = SnapshotWriter::new("unit_engine");
        for &v in payload {
            w.u64(v);
        }
        TenantSnapshot {
            next_seq,
            epoch,
            engine: w.finish(),
        }
    }

    #[test]
    fn wrapper_and_meta_round_trip() {
        let meta = TenantMeta {
            algorithm: "count_min".into(),
            shards: 3,
        };
        assert_eq!(TenantMeta::decode(&meta.encode()).unwrap(), meta);
        let snap = snapshot(5, 800, &[1, 2, 3]);
        assert_eq!(TenantSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn a_tenant_round_trips_through_its_directory() {
        let root = tmp_dir("roundtrip");
        let faults = FaultPlan::none();
        let meta = TenantMeta {
            algorithm: "count_min".into(),
            shards: 2,
        };
        let base = snapshot(0, 0, &[0, 0]);
        let mut storage = TenantStorage::create(&root, "t0", &meta, &base, &faults).unwrap();

        let mut chain = CheckpointChain::new(base.encode(), 0).unwrap();
        for (seq, epoch) in [(1u64, 100u64), (2, 200)] {
            let snap = snapshot(seq, epoch, &[seq, epoch]);
            let delta = record_delta(&mut chain, &snap.encode(), epoch);
            assert!(storage.append_delta(&delta, &faults).unwrap());
        }

        let loaded = load_tenant(&root, "t0").unwrap();
        assert_eq!(loaded.meta, meta);
        assert!(loaded.replay.is_clean());
        assert_eq!(loaded.snapshot.next_seq, 2);
        assert_eq!(loaded.snapshot.epoch, 200);
        assert_eq!(list_tenants(&root).unwrap(), vec!["t0".to_string()]);
        fs::remove_dir_all(&root).unwrap();
    }

    /// Diffs `full` against the chain tip, appends it, and returns the delta
    /// bytes to persist — the same encode-append-write order the server uses.
    fn record_delta(chain: &mut CheckpointChain, full: &[u8], epoch: u64) -> Vec<u8> {
        let delta =
            fsc_state::delta::encode_delta(chain.tip_bytes(), full, chain.tip_epoch(), epoch)
                .unwrap();
        chain.append_delta(delta.clone()).unwrap();
        delta
    }

    #[test]
    fn a_torn_delta_write_is_discarded_on_load_and_future_appends_heal() {
        let root = tmp_dir("torn");
        let meta = TenantMeta {
            algorithm: "count_min".into(),
            shards: 1,
        };
        let base = snapshot(0, 0, &[7, 7, 7, 7]);
        // Writes: 1 = base, 2 = first delta (torn).
        let faults = FaultPlan::seeded(11).with_torn_write(2);
        let mut storage = TenantStorage::create(&root, "t0", &meta, &base, &faults).unwrap();

        let mut chain = CheckpointChain::new(base.encode(), 0).unwrap();
        let snap1 = snapshot(1, 50, &[7, 8, 7, 7]);
        let delta1 = record_delta(&mut chain, &snap1.encode(), 50);
        let intact = storage.append_delta(&delta1, &faults).unwrap();
        assert!(!intact, "the armed tear reports the blob as damaged");

        // The process "dies" here.  A new process reloads:
        let loaded = load_tenant(&root, "t0").unwrap();
        assert_eq!(loaded.replay.applied, 0);
        assert_eq!(loaded.replay.discarded.len(), 1);
        assert_eq!(loaded.snapshot.epoch, 0, "recovered to the base");

        // It resumes from the recovered tip and checkpoints again; the torn file
        // stays on disk but the new delta chains onto the *recovered* tip, so a
        // second reload applies it and re-discards the torn one.
        let mut storage = TenantStorage::open(&root, "t0").unwrap();
        let mut chain = loaded.chain;
        let snap1b = snapshot(1, 60, &[7, 9, 7, 7]);
        let delta = record_delta(&mut chain, &snap1b.encode(), 60);
        storage.append_delta(&delta, &FaultPlan::none()).unwrap();

        let reloaded = load_tenant(&root, "t0").unwrap();
        assert_eq!(reloaded.replay.applied, 1);
        assert_eq!(reloaded.replay.discarded.len(), 1);
        assert_eq!(reloaded.snapshot.epoch, 60);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_torn_base_fails_only_that_tenant() {
        let root = tmp_dir("tornbase");
        let meta = TenantMeta {
            algorithm: "count_min".into(),
            shards: 1,
        };
        // First durable write is t-bad's base: torn.
        let faults = FaultPlan::seeded(3).with_torn_write(1);
        TenantStorage::create(&root, "t-bad", &meta, &snapshot(0, 0, &[1]), &faults).unwrap();
        TenantStorage::create(&root, "t-good", &meta, &snapshot(0, 0, &[2]), &faults).unwrap();

        assert!(load_tenant(&root, "t-bad").is_err());
        assert!(load_tenant(&root, "t-good").is_ok());
        assert_eq!(list_tenants(&root).unwrap().len(), 2);
        fs::remove_dir_all(&root).unwrap();
    }
}
