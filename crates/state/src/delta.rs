//! Delta checkpoints (`FSCD`) and time-travel chains over the `FSCS` format.
//!
//! The paper's thesis is that state changes are scarce — `Õ(n^{1−1/p})` for the
//! moment and heavy-hitter summaries of Sections 3–4 — so the bytes that must be
//! *persisted* per checkpoint should be proportional to what changed, not to the
//! summary size.  A full [`Snapshot::checkpoint`]
//! always serializes the whole summary; this module adds the incremental layer:
//!
//! * [`encode_delta`] / [`apply_delta`] — the `FSCD` wire format: a word-granular
//!   binary diff between two full `FSCS` checkpoints of the same algorithm.  The
//!   encoder compares the checkpoints as zero-padded 8-byte words and emits runs of
//!   changed words; when the diff would exceed the full checkpoint it embeds the full
//!   payload instead, so a delta is never more than a small header larger than the
//!   checkpoint it replaces ([`DELTA_OVERHEAD`]).  A checksum of the reconstruction
//!   target and the exact base length are stored, so applying a delta to the wrong
//!   base fails with a typed [`SnapshotError::MissingBase`] — never silent corruption.
//! * [`BaseRef`] — a captured full checkpoint plus its epoch, the "since" argument of
//!   [`Snapshot::checkpoint_delta`].
//! * [`CheckpointChain`] — a base plus ordered deltas: append with ordering
//!   validation ([`SnapshotError::OutOfOrderDelta`]), reconstruct the tip, answer
//!   time-travel queries with [`CheckpointChain::bytes_at`] /
//!   [`CheckpointChain::restore_at`] (replay from the base up to the nearest
//!   checkpoint at-or-before the asked epoch), and fold history into a fresh base
//!   with [`CheckpointChain::compact`].
//! * [`ChainTip`] — the tip alone, validated and applied per append exactly as the
//!   chain does it, but keeping no delta: the in-memory state of a writer that
//!   only persists deltas (the server's per-tenant chain).
//!
//! # Why a byte diff and not an address diff
//!
//! Tracked addresses ([`crate::AddrRange`]) are abstract word indices with no stable
//! mapping to checkpoint byte offsets: container layouts are algorithm-private, and
//! [`crate::TrackedMap`] writes are anonymous (no address at all).  The delta encoding
//! therefore diffs the serialized state, which is correct for every algorithm
//! unconditionally.  Because checkpoint encodings are deterministic and word-aligned
//! (`SnapshotWriter` emits little-endian words), a summary with few state changes
//! produces a byte diff whose size tracks the changed words, which is exactly the
//! persistence-cost claim the `fig_engine` curves measure (EXPERIMENTS.md
//! §checkpoint-bytes).

use crate::snapshot::{SnapshotError, SnapshotReader, SNAPSHOT_VERSION};
use crate::traits::Snapshot;

/// Leading magic of every delta checkpoint (`FSCD` = Few-State-Changes Delta).
pub const DELTA_MAGIC: [u8; 4] = *b"FSCD";

/// Worst-case size overhead of a delta over the full checkpoint it encodes, in bytes
/// (header, lengths, checksum, and the embedded-payload length prefix), excluding the
/// algorithm-id string both formats carry.  The encoder falls back to embedding the
/// full payload whenever the word diff would be larger, so
/// `delta.len() ≤ full.len() + DELTA_OVERHEAD + algorithm_id.len()` always holds —
/// the "delta bytes ≤ full checkpoint bytes" law up to this additive slack.
pub const DELTA_OVERHEAD: usize = 4 + 2 + 8 + 8 * 5 + 1 + 8;

/// FNV-1a over `bytes` — the integrity checksum stored in every delta, validating
/// that applying it reproduced the exact full checkpoint it was encoded from.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `i`-th 8-byte little-endian word of `bytes`, zero-padded past the end — the
/// word view both diff sides are compared in (padding makes grow/shrink well-defined).
fn padded_word(bytes: &[u8], i: usize) -> u64 {
    let start = i * 8;
    let mut buf = [0u8; 8];
    if start < bytes.len() {
        let end = (start + 8).min(bytes.len());
        buf[..end - start].copy_from_slice(&bytes[start..end]);
    }
    u64::from_le_bytes(buf)
}

/// Parsed header of a delta checkpoint — everything needed to validate ordering and
/// base identity before committing to an apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaInfo {
    /// Algorithm id shared with the base/target `FSCS` headers.
    pub algorithm: String,
    /// Epoch of the base checkpoint this delta was encoded against.
    pub base_epoch: u64,
    /// Epoch of the checkpoint this delta reconstructs.
    pub epoch: u64,
    /// Exact byte length the base must have.
    pub base_len: usize,
    /// Byte length of the reconstructed full checkpoint.
    pub new_len: usize,
}

/// Sizes recorded when a delta is appended to a [`CheckpointChain`] — the raw
/// material of the checkpoint-bytes-vs-stream-length curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaStats {
    /// Epoch of the checkpoint the delta reconstructs.
    pub epoch: u64,
    /// Size of the full checkpoint at that epoch.
    pub full_bytes: usize,
    /// Size of the emitted delta.
    pub delta_bytes: usize,
}

/// One delta dropped by [`CheckpointChain::recover`], with the typed reason.
///
/// `index` is the delta's position in the supplied log (0 = the first delta after
/// the base); `epoch` is the target epoch the delta claimed, when its header was
/// still parseable (a torn header yields `None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscardedDelta {
    /// Position of the delta in the supplied log.
    pub index: usize,
    /// Target epoch from the delta header, if the header parsed.
    pub epoch: Option<u64>,
    /// Why the delta was not applied.
    pub error: SnapshotError,
}

/// Outcome of [`CheckpointChain::recover`]: how much of a persisted delta log was
/// restorable and exactly what was discarded — the typed report a crash-recovering
/// server surfaces instead of silently dropping history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainRecovery {
    /// Deltas applied onto the base, in order.
    pub applied: usize,
    /// Epoch of the recovered tip (base epoch when nothing applied).
    pub tip_epoch: u64,
    /// Deltas that failed validation or application, with typed reasons.
    pub discarded: Vec<DiscardedDelta>,
}

impl ChainRecovery {
    /// Whether the whole log was applied (nothing discarded).
    pub fn is_clean(&self) -> bool {
        self.discarded.is_empty()
    }
}

impl std::fmt::Display for ChainRecovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} delta(s) applied to epoch {}",
            self.applied, self.tip_epoch
        )?;
        for d in &self.discarded {
            match d.epoch {
                Some(e) => write!(f, "; discarded #{} (epoch {}): {}", d.index, e, d.error)?,
                None => write!(f, "; discarded #{}: {}", d.index, d.error)?,
            }
        }
        Ok(())
    }
}

/// A captured full checkpoint plus the epoch it was taken at: the `since` argument of
/// [`Snapshot::checkpoint_delta`].
#[derive(Debug, Clone)]
pub struct BaseRef {
    epoch: u64,
    bytes: Vec<u8>,
}

impl BaseRef {
    /// Captures `a`'s current full checkpoint and epoch clock.
    pub fn capture<A: Snapshot + ?Sized>(a: &A) -> Self {
        Self {
            epoch: a.report().epochs,
            bytes: a.checkpoint(),
        }
    }

    /// Wraps previously captured checkpoint bytes taken at `epoch` (e.g. an engine
    /// checkpoint, which is not a [`Snapshot`] implementor).
    pub fn new(bytes: Vec<u8>, epoch: u64) -> Self {
        Self { epoch, bytes }
    }

    /// The epoch the base was captured at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The captured full checkpoint.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Encodes the `FSCD` delta transforming the full checkpoint `base` (taken at
/// `base_epoch`) into the full checkpoint `new` (taken at `epoch`).
///
/// Both inputs must be valid `FSCS` checkpoints of the same algorithm; `epoch` must
/// not precede `base_epoch`.  The payload is whichever is smaller of (a) run-length
/// encoded changed 8-byte words and (b) the full `new` bytes embedded verbatim, so
/// the result never exceeds `new.len() + DELTA_OVERHEAD + algorithm_id.len()`.
pub fn encode_delta(
    base: &[u8],
    new: &[u8],
    base_epoch: u64,
    epoch: u64,
) -> Result<Vec<u8>, SnapshotError> {
    let algorithm = SnapshotReader::peek_algorithm(base)?;
    let new_algorithm = SnapshotReader::peek_algorithm(new)?;
    if algorithm != new_algorithm {
        return Err(SnapshotError::WrongAlgorithm {
            expected: algorithm,
            found: new_algorithm,
        });
    }
    if epoch < base_epoch {
        return Err(SnapshotError::Corrupt("delta epoch precedes base epoch"));
    }

    let mut w = Vec::with_capacity(DELTA_OVERHEAD + algorithm.len() + new.len());
    w.extend_from_slice(&DELTA_MAGIC);
    w.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    w.extend_from_slice(&(algorithm.len() as u64).to_le_bytes());
    w.extend_from_slice(algorithm.as_bytes());
    w.extend_from_slice(&base_epoch.to_le_bytes());
    w.extend_from_slice(&epoch.to_le_bytes());
    w.extend_from_slice(&(base.len() as u64).to_le_bytes());
    w.extend_from_slice(&(new.len() as u64).to_le_bytes());
    w.extend_from_slice(&fnv1a(new).to_le_bytes());
    let mode_at = w.len();
    if !push_runs(&mut w, base, new) {
        w.truncate(mode_at);
        w.push(1); // mode: full payload embedded verbatim
        w.extend_from_slice(&(new.len() as u64).to_le_bytes());
        w.extend_from_slice(new);
    }
    Ok(w)
}

/// Appends the changed-word runs payload (mode tag 0, run count, then each run's
/// start word, length and words) of `new` against `base` to `out`, comparing the
/// two as zero-padded 8-byte words.  Only `new`'s words need entries:
/// [`apply_delta`] resizes the output to `new_len` before replaying runs, which
/// already drops any base bytes past it, and it rejects runs beyond `new`'s word
/// count.
///
/// Returns false, leaving `out` partly written, once the runs reach `new.len()`
/// bytes: embedding `new` verbatim is then no larger, so the caller falls back
/// to it.  Run bytes only grow, so stopping there picks the same mode as
/// measuring every run first.
fn push_runs(out: &mut Vec<u8>, base: &[u8], new: &[u8]) -> bool {
    out.push(0);
    let count_at = out.len();
    out.extend_from_slice(&0u64.to_le_bytes());
    let limit = out.len() + new.len();
    let mut runs = Runs {
        out: &mut *out,
        limit,
        count: 0,
        open: None,
    };
    // Whole words on both sides compare in place; only the words past the
    // shorter side's last whole word need padding.
    let whole = base.len().min(new.len()) / 8;
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
    let pairs = base[..8 * whole]
        .chunks_exact(8)
        .zip(new[..8 * whole].chunks_exact(8));
    for (i, (b, n)) in pairs.enumerate() {
        let (b, n) = (word(b), word(n));
        if (b != n || runs.open.is_some()) && !runs.word(i, b, n) {
            return false;
        }
    }
    for i in whole..new.len().div_ceil(8) {
        if !runs.word(i, padded_word(base, i), padded_word(new, i)) {
            return false;
        }
    }
    runs.close();
    let count = runs.count;
    out[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
    true
}

/// The changed-word runs [`push_runs`] is writing.
struct Runs<'a> {
    out: &'a mut Vec<u8>,
    /// `out` must stay shorter than this for runs to beat the embedded payload.
    limit: usize,
    count: u64,
    /// Offset in `out` of the open run's length field.
    open: Option<usize>,
}

impl Runs<'_> {
    /// Visits word `i` (`base` word `b`, `new` word `n`): extends or opens a run
    /// when they differ, closes the open run when they do not.  False once the
    /// runs have outgrown [`Runs::limit`].
    fn word(&mut self, i: usize, b: u64, n: u64) -> bool {
        if b == n {
            self.close();
            return true;
        }
        if self.open.is_none() {
            self.count += 1;
            self.out.extend_from_slice(&(i as u64).to_le_bytes());
            self.open = Some(self.out.len());
            self.out.extend_from_slice(&0u64.to_le_bytes());
        }
        self.out.extend_from_slice(&n.to_le_bytes());
        self.out.len() < self.limit
    }

    /// Writes the open run's length, if a run is open.
    fn close(&mut self) {
        if let Some(at) = self.open.take() {
            let len = ((self.out.len() - at - 8) / 8) as u64;
            self.out[at..at + 8].copy_from_slice(&len.to_le_bytes());
        }
    }
}

/// Parses a delta's header without applying it (ordering/identity checks, labeling).
pub fn peek_delta(delta: &[u8]) -> Result<DeltaInfo, SnapshotError> {
    let mut r = SnapshotReader::raw(delta);
    let (info, _) = read_delta_header(&mut r)?;
    Ok(info)
}

/// Reads the `FSCD` header; returns the parsed info and the expected checksum,
/// leaving the reader positioned at the mode tag.
fn read_delta_header<'a>(r: &mut SnapshotReader<'a>) -> Result<(DeltaInfo, u64), SnapshotError> {
    if r.take_bytes(4)? != DELTA_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u16()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let algorithm = r.string()?;
    let base_epoch = r.u64()?;
    let epoch = r.u64()?;
    if epoch < base_epoch {
        return Err(SnapshotError::Corrupt("delta epoch precedes base epoch"));
    }
    let base_len = r.usize()?;
    let new_len = r.usize()?;
    let checksum = r.u64()?;
    Ok((
        DeltaInfo {
            algorithm,
            base_epoch,
            epoch,
            base_len,
            new_len,
        },
        checksum,
    ))
}

/// Applies an `FSCD` delta to the full checkpoint it was encoded against, returning
/// the reconstructed full checkpoint.
///
/// Validation is total: a base belonging to a different algorithm fails with
/// [`SnapshotError::WrongAlgorithm`]; a base of the wrong length — or one whose
/// content leads to a checksum mismatch — fails with
/// [`SnapshotError::MissingBase`]; truncated or malformed delta bytes fail with the
/// usual typed errors.  On success the result is byte-identical to the `new`
/// argument of the matching [`encode_delta`] call.
pub fn apply_delta(base: &[u8], delta: &[u8]) -> Result<Vec<u8>, SnapshotError> {
    let mut r = SnapshotReader::raw(delta);
    let (info, checksum) = read_delta_header(&mut r)?;
    let base_algorithm = SnapshotReader::peek_algorithm(base)?;
    if base_algorithm != info.algorithm {
        return Err(SnapshotError::WrongAlgorithm {
            expected: info.algorithm,
            found: base_algorithm,
        });
    }
    if info.base_len != base.len() {
        return Err(SnapshotError::MissingBase);
    }
    let mut out = match r.u8()? {
        0 => {
            let mut out = base.to_vec();
            out.resize(info.new_len, 0);
            let run_count = r.len_prefix(16)?;
            let max_word = info.new_len.div_ceil(8);
            for _ in 0..run_count {
                let start = r.usize()?;
                let len = r.len_prefix(8)?;
                if start.checked_add(len).is_none_or(|end| end > max_word) {
                    return Err(SnapshotError::Corrupt("delta run out of bounds"));
                }
                for i in 0..len {
                    let word = r.u64()?.to_le_bytes();
                    let at = (start + i) * 8;
                    let end = (at + 8).min(info.new_len);
                    out[at..end].copy_from_slice(&word[..end - at]);
                }
            }
            out
        }
        1 => {
            let payload = r.byte_slice()?;
            if payload.len() != info.new_len {
                return Err(SnapshotError::Corrupt("embedded payload length"));
            }
            payload.to_vec()
        }
        _ => return Err(SnapshotError::Corrupt("delta mode tag")),
    };
    r.finish()?;
    out.truncate(info.new_len);
    if fnv1a(&out) != checksum {
        return Err(SnapshotError::MissingBase);
    }
    Ok(out)
}

/// The tip of a delta chain without its history: the full checkpoint the last
/// appended delta reconstructs, and its epoch.
///
/// This is all a writer persisting deltas needs in memory: each append is
/// validated and applied exactly as [`CheckpointChain::append_delta`] does it
/// (algorithm identity, ordering, base length and the reconstruction checksum),
/// but the delta is not kept, so memory stays one checkpoint however many
/// deltas are appended.
#[derive(Debug, Clone)]
pub struct ChainTip {
    algorithm: String,
    bytes: Vec<u8>,
    epoch: u64,
}

impl ChainTip {
    /// A tip at the full checkpoint `bytes`, taken at `epoch`.
    pub fn new(bytes: Vec<u8>, epoch: u64) -> Result<Self, SnapshotError> {
        Ok(Self {
            algorithm: SnapshotReader::peek_algorithm(&bytes)?,
            bytes,
            epoch,
        })
    }

    /// Applies `delta` to the tip after validating algorithm identity and
    /// ordering, and returns its header.  On error the tip is unchanged.
    pub fn append_delta(&mut self, delta: &[u8]) -> Result<DeltaInfo, SnapshotError> {
        let info = peek_delta(delta)?;
        if info.algorithm != self.algorithm {
            return Err(SnapshotError::WrongAlgorithm {
                expected: self.algorithm.clone(),
                found: info.algorithm,
            });
        }
        if info.base_epoch != self.epoch {
            return Err(SnapshotError::OutOfOrderDelta {
                expected: self.epoch,
                found: info.base_epoch,
            });
        }
        self.bytes = apply_delta(&self.bytes, delta)?;
        self.epoch = info.epoch;
        Ok(info)
    }

    /// The algorithm id of the tip checkpoint.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// The full checkpoint at the tip.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The epoch of the tip.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A base checkpoint plus an ordered run of deltas — the durable form of an
/// incrementally persisted summary, and the index time-travel queries run against.
///
/// The chain is byte-generic: it works for any `FSCS` checkpoint producer, including
/// `fsc-engine` shard-set checkpoints (algorithm id `"fsc_engine"`), not just
/// [`Snapshot`] implementors.  Appends validate algorithm identity, base length, and
/// epoch ordering with typed errors, so a corrupted or reordered persistence log is
/// rejected instead of reconstructing garbage.
#[derive(Debug, Clone)]
pub struct CheckpointChain {
    base: Vec<u8>,
    base_epoch: u64,
    /// `(epoch, delta bytes)` in append order; epochs are non-decreasing.
    deltas: Vec<(u64, Vec<u8>)>,
    /// Reconstruction of the tip (cached so appends validate in O(delta)).
    tip: ChainTip,
}

impl CheckpointChain {
    /// Starts a chain from a full checkpoint taken at `base_epoch`.
    pub fn new(base: Vec<u8>, base_epoch: u64) -> Result<Self, SnapshotError> {
        Ok(Self {
            tip: ChainTip::new(base.clone(), base_epoch)?,
            base,
            base_epoch,
            deltas: Vec::new(),
        })
    }

    /// Rebuilds a chain from a persisted log — a base plus deltas read back from
    /// durable storage — **recovering past corrupt, truncated, or misordered
    /// entries** instead of failing the whole chain.
    ///
    /// Each delta is validated and applied in log order; one that fails (torn
    /// bytes, flipped bits caught by the checksum, an epoch that does not chain
    /// onto the tip) is *discarded* with its typed error and recovery continues
    /// with the next entry.  Because a delta must chain onto the exact tip epoch
    /// and content, discarding entry `k` normally discards everything after it
    /// too — the newest valid prefix semantics a crash-recovering server wants —
    /// but a retried write of the same range (first copy torn, second intact)
    /// heals without loss.  The base itself must be a valid `FSCS` checkpoint;
    /// a torn base fails the whole recovery (the caller falls back to an older
    /// base or reports the tenant lost).
    ///
    /// [`CheckpointChain::restore`] and [`CheckpointChain::restore_at`] on the
    /// returned chain therefore answer from the newest restorable state, and the
    /// [`ChainRecovery`] says exactly which persisted entries were thrown away.
    pub fn recover(
        base: Vec<u8>,
        base_epoch: u64,
        deltas: impl IntoIterator<Item = Vec<u8>>,
    ) -> Result<(Self, ChainRecovery), SnapshotError> {
        let mut chain = Self::new(base, base_epoch)?;
        let mut discarded = Vec::new();
        for (index, delta) in deltas.into_iter().enumerate() {
            let epoch = peek_delta(&delta).ok().map(|info| info.epoch);
            if let Err(error) = chain.append_delta(delta) {
                discarded.push(DiscardedDelta {
                    index,
                    epoch,
                    error,
                });
            }
        }
        let recovery = ChainRecovery {
            applied: chain.len(),
            tip_epoch: chain.tip_epoch(),
            discarded,
        };
        Ok((chain, recovery))
    }

    /// The algorithm id shared by the base and every delta.
    pub fn algorithm(&self) -> &str {
        self.tip.algorithm()
    }

    /// Epoch of the chain's base checkpoint.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Epoch of the chain's tip (base epoch when no deltas are appended).
    pub fn tip_epoch(&self) -> u64 {
        self.tip.epoch()
    }

    /// Number of deltas currently in the chain.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether the chain holds no deltas (tip == base).
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Encodes `full` (the current full checkpoint, taken at `epoch`) as a delta
    /// against the tip, appends it, and reports the sizes.  This is the persistence
    /// write path: only the returned `delta_bytes` need to be made durable.
    pub fn record(&mut self, full: &[u8], epoch: u64) -> Result<DeltaStats, SnapshotError> {
        let delta = encode_delta(self.tip.bytes(), full, self.tip.epoch(), epoch)?;
        let stats = DeltaStats {
            epoch,
            full_bytes: full.len(),
            delta_bytes: delta.len(),
        };
        self.append_delta(delta)?;
        Ok(stats)
    }

    /// Appends a delta produced elsewhere (e.g. read back from a persistence log),
    /// validating algorithm identity, ordering, and base identity before advancing
    /// the tip.
    pub fn append_delta(&mut self, delta: Vec<u8>) -> Result<(), SnapshotError> {
        let info = self.tip.append_delta(&delta)?;
        self.deltas.push((info.epoch, delta));
        Ok(())
    }

    /// The tip alone, dropping the base and the retained deltas.
    pub fn into_tip(self) -> ChainTip {
        self.tip
    }

    /// The reconstructed full checkpoint at the tip of the chain.
    pub fn tip_bytes(&self) -> &[u8] {
        self.tip.bytes()
    }

    /// Restores a summary from the tip of the chain.
    pub fn restore<A: Snapshot>(&self) -> Result<A, SnapshotError> {
        A::restore(self.tip.bytes())
    }

    /// Time travel: the full checkpoint as of `epoch` — the latest checkpoint in the
    /// chain taken at-or-before `epoch`, reconstructed by replaying deltas from the
    /// base.  Asking for an epoch before the base fails with
    /// [`SnapshotError::MissingBase`] (that history was compacted away).  Returns the
    /// bytes and the epoch of the checkpoint actually used.
    pub fn bytes_at(&self, epoch: u64) -> Result<(Vec<u8>, u64), SnapshotError> {
        if epoch < self.base_epoch {
            return Err(SnapshotError::MissingBase);
        }
        let mut bytes = self.base.clone();
        let mut at = self.base_epoch;
        for (delta_epoch, delta) in &self.deltas {
            if *delta_epoch > epoch {
                break;
            }
            bytes = apply_delta(&bytes, delta)?;
            at = *delta_epoch;
        }
        Ok((bytes, at))
    }

    /// Time travel: restores the summary as it was at `epoch` (see
    /// [`CheckpointChain::bytes_at`] for nearest-checkpoint semantics).  Returns the
    /// instance and the epoch of the checkpoint it was restored from.
    pub fn restore_at<A: Snapshot>(&self, epoch: u64) -> Result<(A, u64), SnapshotError> {
        let (bytes, at) = self.bytes_at(epoch)?;
        Ok((A::restore(&bytes)?, at))
    }

    /// Folds the chain into a fresh base at the tip: the reconstruction and its epoch
    /// become the new base and the deltas are dropped.  History before the tip is no
    /// longer reachable ([`CheckpointChain::bytes_at`] of earlier epochs then fails),
    /// which is the intended trade: a compacted chain costs one full checkpoint of
    /// storage and zero replay work.
    pub fn compact(&mut self) {
        self.base = self.tip.bytes().to_vec();
        self.base_epoch = self.tip.epoch();
        self.deltas.clear();
    }

    /// Total bytes held in deltas (the incremental persistence cost since the base).
    pub fn delta_bytes(&self) -> usize {
        self.deltas.iter().map(|(_, d)| d.len()).sum()
    }

    /// Total bytes a durable copy of the chain occupies (base plus deltas).
    pub fn total_bytes(&self) -> usize {
        self.base.len() + self.delta_bytes()
    }

    /// The epochs at which checkpoints exist in the chain (base first).
    pub fn epochs(&self) -> Vec<u64> {
        let mut out = vec![self.base_epoch];
        out.extend(self.deltas.iter().map(|(e, _)| *e));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotWriter;

    fn checkpoint_with(algorithm: &str, payload: &[u64]) -> Vec<u8> {
        let mut w = SnapshotWriter::new(algorithm);
        for &v in payload {
            w.u64(v);
        }
        w.finish()
    }

    #[test]
    fn delta_round_trips_sparse_changes() {
        let payload: Vec<u64> = (0..64).collect();
        let base = checkpoint_with("unit", &payload);
        let mut new_payload = payload.clone();
        new_payload[2] = 99;
        new_payload[46] = 100;
        let new = checkpoint_with("unit", &new_payload);

        let delta = encode_delta(&base, &new, 10, 20).unwrap();
        assert!(delta.len() < new.len(), "two changed words must diff small");
        let info = peek_delta(&delta).unwrap();
        assert_eq!(info.algorithm, "unit");
        assert_eq!(info.base_epoch, 10);
        assert_eq!(info.epoch, 20);
        assert_eq!(apply_delta(&base, &delta).unwrap(), new);
    }

    #[test]
    fn delta_handles_growth_shrink_and_unaligned_lengths() {
        // Checkpoint lengths are not multiples of 8 (the id string unaligns them),
        // so the padded-word view and clipping are load-bearing here.
        let shapes: [(&[u64], &[u64]); 4] = [
            (&[1, 2], &[1, 2, 3, 4]), // grow
            (&[1, 2, 3, 4], &[9]),    // shrink
            (&[], &[7]),              // from empty payload
            (&[5, 5, 5], &[5, 5, 5]), // identical
        ];
        for (a, b) in shapes {
            let base = checkpoint_with("odd", a);
            let new = checkpoint_with("odd", b);
            let delta = encode_delta(&base, &new, 0, 1).unwrap();
            assert_eq!(apply_delta(&base, &delta).unwrap(), new);
            assert!(delta.len() <= new.len() + DELTA_OVERHEAD + "odd".len());
        }
    }

    #[test]
    fn sparse_shrink_with_nonzero_trailing_base_bytes_round_trips() {
        // Regression: a shrinking checkpoint whose trailing base bytes are nonzero
        // and whose diff is otherwise sparse selects runs mode (not the embedded
        // fallback).  The encoder used to emit runs for the truncated trailing
        // words — past the word count apply_delta accepts — so encode succeeded
        // but apply failed with Corrupt("delta run out of bounds").
        let base = checkpoint_with("unit", &vec![u64::MAX; 200]);
        let new = checkpoint_with("unit", &vec![u64::MAX; 199]);
        let delta = encode_delta(&base, &new, 0, 1).unwrap();
        assert!(
            delta.len() < new.len(),
            "sparse shrink must stay in runs mode for this regression to bite"
        );
        assert_eq!(apply_delta(&base, &delta).unwrap(), new);

        // Same shape through the chain API that the F12 runner uses.
        let mut chain = CheckpointChain::new(base, 0).unwrap();
        let stats = chain.record(&new, 1).unwrap();
        assert_eq!(chain.tip_bytes(), &new[..]);
        assert!(stats.delta_bytes < stats.full_bytes);
    }

    #[test]
    fn dense_changes_fall_back_to_embedded_payload() {
        let base = checkpoint_with("unit", &(0..64).collect::<Vec<_>>());
        let new = checkpoint_with("unit", &(100..164).collect::<Vec<_>>());
        let delta = encode_delta(&base, &new, 0, 5).unwrap();
        assert!(delta.len() <= new.len() + DELTA_OVERHEAD + "unit".len());
        assert_eq!(apply_delta(&base, &delta).unwrap(), new);
    }

    #[test]
    fn wrong_base_is_a_typed_missing_base_error() {
        let base = checkpoint_with("unit", &[1, 2, 3]);
        let new = checkpoint_with("unit", &[1, 9, 3]);
        let delta = encode_delta(&base, &new, 0, 1).unwrap();
        // Wrong length.
        let short = checkpoint_with("unit", &[1, 2]);
        assert_eq!(
            apply_delta(&short, &delta).unwrap_err(),
            SnapshotError::MissingBase
        );
        // Right length, wrong content: the checksum catches it.
        let sibling = checkpoint_with("unit", &[8, 2, 3]);
        assert_eq!(
            apply_delta(&sibling, &delta).unwrap_err(),
            SnapshotError::MissingBase
        );
    }

    #[test]
    fn mismatched_algorithms_are_rejected_at_encode_time() {
        let a = checkpoint_with("alpha", &[1]);
        let b = checkpoint_with("beta", &[1]);
        assert!(matches!(
            encode_delta(&a, &b, 0, 1),
            Err(SnapshotError::WrongAlgorithm { .. })
        ));
    }

    #[test]
    fn backwards_epochs_are_rejected() {
        let base = checkpoint_with("unit", &[1]);
        let new = checkpoint_with("unit", &[2]);
        assert!(matches!(
            encode_delta(&base, &new, 5, 4),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn every_truncation_of_a_delta_errors_instead_of_panicking() {
        let base = checkpoint_with("unit", &[1, 2, 3, 4]);
        let new = checkpoint_with("unit", &[1, 9, 3, 8]);
        let delta = encode_delta(&base, &new, 3, 7).unwrap();
        for cut in 0..delta.len() {
            assert!(
                apply_delta(&base, &delta[..cut]).is_err(),
                "truncation at {cut} unexpectedly applied"
            );
        }
        // Flipped magic / future version.
        let mut bad = delta.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            apply_delta(&base, &bad).unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut future = delta.clone();
        future[4] = 0xFE;
        assert!(matches!(
            apply_delta(&base, &future).unwrap_err(),
            SnapshotError::UnsupportedVersion(_)
        ));
        // Trailing garbage.
        let mut long = delta.clone();
        long.push(0);
        assert!(matches!(
            apply_delta(&base, &long).unwrap_err(),
            SnapshotError::TrailingBytes(1)
        ));
    }

    #[test]
    fn chain_replays_orders_and_time_travels() {
        let v0 = checkpoint_with("unit", &[0, 0, 0, 0]);
        let v1 = checkpoint_with("unit", &[1, 0, 0, 0]);
        let v2 = checkpoint_with("unit", &[1, 2, 0, 0]);
        let v3 = checkpoint_with("unit", &[1, 2, 3, 0]);

        let mut chain = CheckpointChain::new(v0.clone(), 0).unwrap();
        chain.record(&v1, 10).unwrap();
        chain.record(&v2, 20).unwrap();
        chain.record(&v3, 30).unwrap();
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.tip_bytes(), &v3[..]);
        assert_eq!(chain.tip_epoch(), 30);
        assert_eq!(chain.epochs(), vec![0, 10, 20, 30]);

        // Nearest-checkpoint-at-or-before semantics.
        assert_eq!(chain.bytes_at(0).unwrap(), (v0.clone(), 0));
        assert_eq!(chain.bytes_at(9).unwrap(), (v0.clone(), 0));
        assert_eq!(chain.bytes_at(10).unwrap(), (v1.clone(), 10));
        assert_eq!(chain.bytes_at(25).unwrap(), (v2.clone(), 20));
        assert_eq!(chain.bytes_at(u64::MAX).unwrap(), (v3.clone(), 30));

        // Out-of-order append: a delta based on an epoch that is not the tip.
        let stale = encode_delta(&v1, &v2, 10, 20).unwrap();
        assert_eq!(
            chain.append_delta(stale).unwrap_err(),
            SnapshotError::OutOfOrderDelta {
                expected: 30,
                found: 10
            }
        );

        // Compaction folds to the tip and forgets earlier history.
        chain.compact();
        assert!(chain.is_empty());
        assert_eq!(chain.base_epoch(), 30);
        assert_eq!(chain.tip_bytes(), &v3[..]);
        assert_eq!(chain.bytes_at(20).unwrap_err(), SnapshotError::MissingBase);
        assert_eq!(chain.bytes_at(30).unwrap(), (v3, 30));
    }

    #[test]
    fn chain_rejects_foreign_algorithms() {
        let mut chain = CheckpointChain::new(checkpoint_with("alpha", &[1]), 0).unwrap();
        assert_eq!(chain.algorithm(), "alpha");
        let foreign = encode_delta(
            &checkpoint_with("beta", &[1]),
            &checkpoint_with("beta", &[2]),
            0,
            1,
        )
        .unwrap();
        assert!(matches!(
            chain.append_delta(foreign),
            Err(SnapshotError::WrongAlgorithm { .. })
        ));
    }

    /// The persisted parts of a 3-checkpoint chain: base bytes/epoch plus the two
    /// delta byte strings, and the intermediate full checkpoints for oracles.
    fn persisted_chain() -> (Vec<u8>, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let v0 = checkpoint_with("unit", &[0, 0, 0, 0]);
        let v1 = checkpoint_with("unit", &[1, 0, 7, 0]);
        let v2 = checkpoint_with("unit", &[1, 2, 7, 9]);
        let mut chain = CheckpointChain::new(v0.clone(), 0).unwrap();
        chain.record(&v1, 10).unwrap();
        chain.record(&v2, 20).unwrap();
        let deltas: Vec<Vec<u8>> = chain.deltas.iter().map(|(_, d)| d.clone()).collect();
        (v0, deltas, vec![v1, v2])
    }

    #[test]
    fn recover_applies_a_clean_log_fully() {
        let (base, deltas, fulls) = persisted_chain();
        let (chain, report) = CheckpointChain::recover(base, 0, deltas).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.applied, 2);
        assert_eq!(report.tip_epoch, 20);
        assert_eq!(chain.tip_bytes(), &fulls[1][..]);
        assert_eq!(chain.bytes_at(10).unwrap(), (fulls[0].clone(), 10));
    }

    #[test]
    fn recover_falls_back_past_every_truncation_of_the_tip() {
        let (base, deltas, fulls) = persisted_chain();
        for cut in 0..deltas[1].len() {
            let log = vec![deltas[0].clone(), deltas[1][..cut].to_vec()];
            let (chain, report) =
                CheckpointChain::recover(base.clone(), 0, log).expect("base is intact");
            assert_eq!(report.applied, 1, "cut at {cut}");
            assert_eq!(report.tip_epoch, 10, "cut at {cut}");
            assert_eq!(
                chain.tip_bytes(),
                &fulls[0][..],
                "cut at {cut}: tip must be the pre-corruption checkpoint"
            );
            assert_eq!(report.discarded.len(), 1, "cut at {cut}");
            let discarded = &report.discarded[0];
            assert_eq!(discarded.index, 1, "cut at {cut}");
            assert!(
                discarded.error != SnapshotError::BadMagic || cut < 4,
                "cut at {cut}: full magic present must not read as BadMagic"
            );
        }
    }

    #[test]
    fn recover_falls_back_past_a_bit_flipped_tip() {
        let (base, mut deltas, fulls) = persisted_chain();
        // Flip one payload byte near the end: the header parses, the checksum
        // catches the damage, and the typed reason says so.
        let last = deltas[1].len() - 1;
        deltas[1][last] ^= 0x40;
        let (chain, report) = CheckpointChain::recover(base, 0, deltas).unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(chain.tip_bytes(), &fulls[0][..]);
        assert_eq!(report.discarded.len(), 1);
        assert_eq!(report.discarded[0].epoch, Some(20), "header still parses");
        assert!(!report.is_clean());
        let rendered = report.to_string();
        assert!(rendered.contains("discarded #1"), "{rendered}");
    }

    #[test]
    fn recover_discards_everything_chained_past_a_corrupt_middle() {
        let (base, mut deltas, _) = persisted_chain();
        deltas[0][6] ^= 0xFF; // corrupt the *first* delta
        let (chain, report) = CheckpointChain::recover(base.clone(), 0, deltas).unwrap();
        // The second delta chains onto epoch 10, which never materialized.
        assert_eq!(report.applied, 0);
        assert_eq!(report.tip_epoch, 0);
        assert_eq!(chain.tip_bytes(), &base[..]);
        assert_eq!(report.discarded.len(), 2);
        assert_eq!(
            report.discarded[1].error,
            SnapshotError::OutOfOrderDelta {
                expected: 0,
                found: 10
            }
        );
    }

    #[test]
    fn recover_heals_a_torn_write_that_was_retried() {
        let (base, deltas, fulls) = persisted_chain();
        // The first copy of delta 0 is torn mid-write; the retried copy landed
        // intact right after it.  Recovery discards the torn copy and applies the
        // retry — no history lost.
        let log = vec![
            deltas[0][..deltas[0].len() / 2].to_vec(),
            deltas[0].clone(),
            deltas[1].clone(),
        ];
        let (chain, report) = CheckpointChain::recover(base, 0, log).unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(report.tip_epoch, 20);
        assert_eq!(chain.tip_bytes(), &fulls[1][..]);
        assert_eq!(report.discarded.len(), 1);
        assert_eq!(report.discarded[0].index, 0);
    }

    #[test]
    fn recover_rejects_a_base_torn_inside_the_header() {
        let (base, deltas, _) = persisted_chain();
        assert!(CheckpointChain::recover(base[..3].to_vec(), 0, deltas).is_err());
    }

    #[test]
    fn recover_applies_nothing_onto_a_base_torn_inside_the_payload() {
        // A tear past the header parses as a (shorter) checkpoint, so the chain
        // layer cannot reject it outright — but every delta was encoded against
        // the intact base, so each one fails its length/checksum pairing and the
        // report shows an empty prefix.  Callers treat `applied == 0` with a
        // non-empty discard list as "restore from the tip and let the algorithm's
        // own total parsing have the final word".
        let (base, deltas, _) = persisted_chain();
        let torn = base[..base.len() / 2].to_vec();
        let (chain, report) = CheckpointChain::recover(torn.clone(), 0, deltas).unwrap();
        assert_eq!(report.applied, 0);
        assert_eq!(chain.tip_bytes(), &torn[..]);
        assert_eq!(report.discarded.len(), 2);
        assert_eq!(report.discarded[0].error, SnapshotError::MissingBase);
    }

    #[test]
    fn chain_accounts_delta_and_total_bytes() {
        let v0 = checkpoint_with("unit", &[0; 32]);
        let mut v1_payload = [0u64; 32];
        v1_payload[7] = 1;
        let v1 = checkpoint_with("unit", &v1_payload);
        let mut chain = CheckpointChain::new(v0.clone(), 0).unwrap();
        let stats = chain.record(&v1, 1).unwrap();
        assert_eq!(stats.full_bytes, v1.len());
        assert!(stats.delta_bytes < stats.full_bytes);
        assert_eq!(chain.delta_bytes(), stats.delta_bytes);
        assert_eq!(chain.total_bytes(), v0.len() + stats.delta_bytes);
    }

    /// The encoder as it was before it compared whole words in place and wrote
    /// runs straight into its output: every word through `padded_word`, one
    /// `Vec` per run, the mode chosen after all runs are measured.  Kept as the
    /// reference [`encode_delta`] must match byte for byte.
    fn reference_encode_delta(base: &[u8], new: &[u8], base_epoch: u64, epoch: u64) -> Vec<u8> {
        let algorithm = SnapshotReader::peek_algorithm(base).unwrap();
        let words = new.len().div_ceil(8);
        let mut runs: Vec<(usize, Vec<u64>)> = Vec::new();
        let mut i = 0;
        while i < words {
            if padded_word(base, i) == padded_word(new, i) {
                i += 1;
                continue;
            }
            let start = i;
            let mut changed = Vec::new();
            while i < words && padded_word(base, i) != padded_word(new, i) {
                changed.push(padded_word(new, i));
                i += 1;
            }
            runs.push((start, changed));
        }
        let runs_bytes: usize = 8 + runs.iter().map(|(_, w)| 16 + 8 * w.len()).sum::<usize>();
        let mut w = Vec::new();
        w.extend_from_slice(&DELTA_MAGIC);
        w.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        w.extend_from_slice(&(algorithm.len() as u64).to_le_bytes());
        w.extend_from_slice(algorithm.as_bytes());
        w.extend_from_slice(&base_epoch.to_le_bytes());
        w.extend_from_slice(&epoch.to_le_bytes());
        w.extend_from_slice(&(base.len() as u64).to_le_bytes());
        w.extend_from_slice(&(new.len() as u64).to_le_bytes());
        w.extend_from_slice(&fnv1a(new).to_le_bytes());
        if runs_bytes < 8 + new.len() {
            w.push(0);
            w.extend_from_slice(&(runs.len() as u64).to_le_bytes());
            for (start, words) in &runs {
                w.extend_from_slice(&(*start as u64).to_le_bytes());
                w.extend_from_slice(&(words.len() as u64).to_le_bytes());
                for word in words {
                    w.extend_from_slice(&word.to_le_bytes());
                }
            }
        } else {
            w.push(1);
            w.extend_from_slice(&(new.len() as u64).to_le_bytes());
            w.extend_from_slice(new);
        }
        w
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A checkpoint of `words` payload words followed by `tail` bytes (so its
    /// length is unaligned for most `tail`), under an id of `id_len` bytes.
    fn random_checkpoint(rng: &mut u64, id_len: usize, words: usize, tail: usize) -> Vec<u8> {
        let mut w = SnapshotWriter::new(&"x".repeat(id_len));
        for _ in 0..words {
            w.u64(splitmix(rng) % 4);
        }
        for _ in 0..tail {
            w.u8(splitmix(rng) as u8 % 3);
        }
        w.finish()
    }

    /// Returns a copy of `base`'s payload edited in place at a random density:
    /// nothing, a few words, or most of them.
    fn mutate(rng: &mut u64, base: &[u8], header: usize) -> Vec<u8> {
        let mut out = base.to_vec();
        let every = 1 + splitmix(rng) % 40;
        for byte in out.iter_mut().skip(header) {
            if splitmix(rng).is_multiple_of(every) {
                *byte ^= 1 + (splitmix(rng) % 255) as u8;
            }
        }
        out
    }

    #[test]
    fn encode_delta_is_byte_identical_to_the_reference_encoder() {
        let mut rng = 0xDE17A;
        let mut modes = [0usize; 2];
        for case in 0..3000 {
            let id_len = 1 + (splitmix(&mut rng) % 11) as usize;
            let a_words = (splitmix(&mut rng) % 48) as usize;
            let a_tail = (splitmix(&mut rng) % 9) as usize;
            let base = random_checkpoint(&mut rng, id_len, a_words, a_tail);
            let new = match case % 4 {
                // identical inputs
                0 => base.clone(),
                // same length, sparse or dense edits
                1 => mutate(&mut rng, &base, 14 + id_len),
                // growth, shrink or an unrelated length
                _ => {
                    let b_words = (splitmix(&mut rng) % 48) as usize;
                    let b_tail = (splitmix(&mut rng) % 9) as usize;
                    let other = random_checkpoint(&mut rng, id_len, b_words, b_tail);
                    // Share a prefix with the base so growth and shrink diff
                    // sparsely, not only through the embedded fallback.
                    let mut new = base.clone();
                    new.resize(other.len(), 0);
                    let from = (splitmix(&mut rng) as usize) % (new.len() + 1);
                    new[from..].copy_from_slice(&other[from..]);
                    new
                }
            };
            let (e0, e1) = (splitmix(&mut rng) % 100, splitmix(&mut rng) % 100);
            let delta = encode_delta(&base, &new, e0, e0 + e1).unwrap();
            assert_eq!(
                delta,
                reference_encode_delta(&base, &new, e0, e0 + e1),
                "case {case}: {} -> {} bytes",
                base.len(),
                new.len()
            );
            assert_eq!(apply_delta(&base, &delta).unwrap(), new, "case {case}");
            modes[usize::from(delta[DELTA_OVERHEAD - 9 + id_len] == 1)] += 1;
        }
        assert!(
            modes[0] > 100 && modes[1] > 100,
            "both payload modes are covered: {modes:?}"
        );

        // The mode boundary: one run of `k` changed words costs `16 + 8k`
        // bytes, which meets a word-aligned checkpoint's length at the last
        // `k`, where the payload must be embedded.  A 2-byte id ends the
        // header at byte 16, so the run can start at word 2.
        let base = (0..8)
            .map(|tail| random_checkpoint(&mut rng, 2, 20, tail))
            .find(|c| c.len() % 8 == 0)
            .expect("some tail aligns the checkpoint");
        for k in 0..=base.len() / 8 - 2 {
            let mut new = base.clone();
            for byte in &mut new[16..16 + 8 * k] {
                *byte ^= 0xA5;
            }
            let delta = encode_delta(&base, &new, 0, 1).unwrap();
            assert_eq!(delta, reference_encode_delta(&base, &new, 0, 1), "k {k}");
        }
    }

    #[test]
    fn a_tip_validates_and_applies_like_the_chain_without_keeping_deltas() {
        let v0 = checkpoint_with("unit", &[0, 0, 0, 0]);
        let v1 = checkpoint_with("unit", &[1, 0, 0, 0]);
        let v2 = checkpoint_with("unit", &[1, 2, 0, 0]);
        let mut chain = CheckpointChain::new(v0.clone(), 0).unwrap();
        let mut tip = ChainTip::new(v0.clone(), 0).unwrap();
        for (full, epoch) in [(&v1, 10), (&v2, 20)] {
            let delta = encode_delta(tip.bytes(), full, tip.epoch(), epoch).unwrap();
            assert_eq!(tip.append_delta(&delta).unwrap().epoch, epoch);
            chain.append_delta(delta).unwrap();
            assert_eq!(tip.bytes(), chain.tip_bytes());
            assert_eq!(tip.epoch(), chain.tip_epoch());
        }
        // The same typed refusals, and a refused append leaves the tip as it was.
        let stale = encode_delta(&v0, &v1, 0, 10).unwrap();
        assert_eq!(
            tip.append_delta(&stale).unwrap_err(),
            SnapshotError::OutOfOrderDelta {
                expected: 20,
                found: 0
            }
        );
        let mut forged = encode_delta(&v2, &v1, 20, 30).unwrap();
        let last = forged.len() - 1;
        forged[last] ^= 0x40;
        assert_eq!(
            tip.append_delta(&forged).unwrap_err(),
            SnapshotError::MissingBase
        );
        assert_eq!((tip.bytes(), tip.epoch()), (&v2[..], 20));
        let recovered = chain.into_tip();
        assert_eq!((recovered.bytes(), recovered.epoch()), (&v2[..], 20));
        assert_eq!(recovered.algorithm(), "unit");
    }
}
