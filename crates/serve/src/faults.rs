//! Deterministic fault injection: every failure class the server claims to
//! survive, producible on demand from a seed.
//!
//! The plan is *armed*, not random: each knob names one failure class (torn
//! checkpoint write, torn or corrupt journal append, failed journal fsync,
//! crash point, dropped connection, stalled ingest or checkpoint) and fires at a
//! configured occurrence count, with any remaining nondeterminism (where a torn
//! write tears, which byte a corruption flips) drawn from a seeded SplitMix64
//! stream.  Runs with the same plan and seed inject byte-identical faults, which
//! is what lets the law tests in `tests/serve_net_laws.rs` and
//! `tests/recovery_laws.rs` assert *exact* recovery instead of "it probably
//! worked".

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// SplitMix64 — the repository's stock deterministic mixer (also used for
/// routing hashes and the proptest shim), reused here for tear offsets and
/// backoff jitter so the serve crate needs no `rand`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where inside the write path of one ingest batch, or inside one checkpoint,
/// an injected crash fires.
///
/// The first three points bracket the journal append and the in-memory apply
/// of an ingest — the interleavings the durability contract is stated over. In
/// every case the client never sees an ack for the batch in flight; what
/// differs is whether the journal holds the batch when the server comes back.
///
/// The last four follow one checkpoint's steps after the tenant lock is
/// released: journal rotation, delta write, delta fsync and the unlink of the
/// retired journal segment. The `Checkpoint` is never acked; what differs is
/// which of the retired segment, the new delta and the fresh segment recovery
/// finds. For these the armed ordinal counts checkpoints that write a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before the journal append: the batch is nowhere on disk.
    BeforeJournal,
    /// After the journal append (and its fsync, per mode) but before the
    /// in-memory apply: recovery replays the batch from the journal.
    AfterJournal,
    /// After the apply but before the ack is written: the batch is journaled
    /// *and* applied, only the ack is lost.
    AfterApply,
    /// After the journal was rotated (and any stall the plan holds the
    /// checkpoint for): the retired segment and the fresh one are both on disk,
    /// no delta covers the retired one.
    AfterRotate,
    /// After the delta file was written, before its fsync.
    AfterDeltaWrite,
    /// After the delta file and its directory were fsynced, before the retired
    /// segment is unlinked.
    AfterDeltaSync,
    /// After the retired segment was unlinked, before the checkpoint is acked.
    AfterUnlink,
}

/// How an injected fault mangles one journal append's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalWriteFault {
    /// Write faithfully.
    Clean,
    /// Write only this prefix: the record is torn mid-write.
    Torn(Vec<u8>),
    /// Write this instead: one byte flipped, framing intact.
    Corrupt(Vec<u8>),
}

/// A seeded injection plan.  [`FaultPlan::none`] (the default) injects nothing
/// and is what production servers run with; drills arm exactly one knob per
/// scenario so observed failures have one cause.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Tear the `nth` durable write (1-based), truncating it at a seeded offset.
    torn_write_at: Option<u64>,
    writes: AtomicU64,
    /// Tear the `nth` journal append (1-based) at a seeded offset.
    torn_wal_at: Option<u64>,
    /// Flip one seeded byte inside the `nth` journal append (1-based).
    corrupt_wal_at: Option<u64>,
    wal_appends: AtomicU64,
    /// Fail the `nth` journal fsync (1-based).
    fail_sync_at: Option<u64>,
    syncs: AtomicU64,
    /// Crash at this point inside the `nth` ingest or delta-writing checkpoint
    /// (1-based).
    crash_at: Option<(CrashPoint, u64)>,
    ingests: AtomicU64,
    persists: AtomicU64,
    /// Drop each connection after it has answered this many frames.
    drop_after_frames: Option<u64>,
    /// Added to every ingest, holding the tenant lock (drills the admission
    /// bound: concurrent writers see `Overloaded`, readers stay live).
    stall_ingest: Option<Duration>,
    /// Added to every delta-writing checkpoint right after it releases the
    /// tenant lock (drills ingest running beside an in-flight checkpoint).
    stall_persist: Option<Duration>,
    /// Whether the [`Request::Crash`](crate::protocol::Request::Crash) drill
    /// frame is honored.
    allow_crash_frame: bool,
}

impl FaultPlan {
    /// The empty plan: no injected faults, crash frame refused.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan seeded for reproducible tear offsets and flips.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Arms a torn durable write: the `nth` persisted blob (1-based, counted
    /// across all tenants) is truncated mid-write, as if the process died there.
    pub fn with_torn_write(mut self, nth: u64) -> Self {
        self.torn_write_at = Some(nth);
        self
    }

    /// Arms a torn journal append: the `nth` append (1-based, counted across
    /// all tenants) writes only a seeded prefix of its record, as if the
    /// process died mid-append.
    pub fn with_torn_wal_append(mut self, nth: u64) -> Self {
        self.torn_wal_at = Some(nth);
        self
    }

    /// Arms a corrupt journal record: one seeded byte of the `nth` append
    /// (1-based) is flipped before it reaches the file — latent media damage
    /// that only the next recovery's checksum pass can see.
    pub fn with_corrupt_wal_record(mut self, nth: u64) -> Self {
        self.corrupt_wal_at = Some(nth);
        self
    }

    /// Arms a failed journal fsync: the `nth` fsync an ingest asks for
    /// (1-based, counted across all tenants) returns an error, as a failing
    /// disk's `fsync` does. Whether the bytes reached the disk is unknown.
    pub fn with_failed_sync(mut self, nth: u64) -> Self {
        self.fail_sync_at = Some(nth);
        self
    }

    /// Arms an injected crash at `point` inside the `nth` ingest (1-based,
    /// counted across all tenants), or, for the checkpoint points from
    /// [`CrashPoint::AfterRotate`] on, inside the `nth` checkpoint that writes
    /// a delta. The connection dies without a response, and the server stops,
    /// exactly like a `kill -9` at that instruction.
    pub fn with_crash_at(mut self, point: CrashPoint, nth: u64) -> Self {
        self.crash_at = Some((point, nth));
        self
    }

    /// Arms connection drops: every connection dies after answering `frames`
    /// frames (the drop happens *after* the request takes effect but *before*
    /// the response is written — the worst case for a retrying client).
    pub fn with_drop_after_frames(mut self, frames: u64) -> Self {
        self.drop_after_frames = Some(frames);
        self
    }

    /// Arms slow ingest: every ingest holds the tenant for `stall` extra time.
    pub fn with_stall_ingest(mut self, stall: Duration) -> Self {
        self.stall_ingest = Some(stall);
        self
    }

    /// Arms slow checkpoints: every checkpoint that writes a delta sleeps for
    /// `stall` after releasing the tenant lock, before its delta is encoded.
    pub fn with_stall_persist(mut self, stall: Duration) -> Self {
        self.stall_persist = Some(stall);
        self
    }

    /// Honors the `Crash` control frame (kill-without-checkpoint drills).
    pub fn with_crash_frame(mut self) -> Self {
        self.allow_crash_frame = true;
        self
    }

    /// Whether the `Crash` control frame is honored.
    pub fn crash_frame_allowed(&self) -> bool {
        self.allow_crash_frame
    }

    /// Called by the storage layer before each durable write.  Returns the
    /// bytes to *actually* write: a seeded-truncation of `bytes` on the armed
    /// occurrence, `None` (write faithfully) otherwise.
    ///
    /// The tear keeps at least 1 byte and drops at least 1 byte, so an armed
    /// tear is never accidentally a no-op or an empty file.
    pub fn tear_write(&self, bytes: &[u8]) -> Option<Vec<u8>> {
        let nth = self.torn_write_at?;
        let count = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if count != nth || bytes.len() < 2 {
            return None;
        }
        let mut state = self.seed ^ nth;
        let cut = 1 + (splitmix64(&mut state) as usize) % (bytes.len() - 1);
        Some(bytes[..cut].to_vec())
    }

    /// Called by the journal before each append.  Returns how to mangle the
    /// record bytes: torn (seeded prefix, ≥ 1 byte kept and ≥ 1 dropped) or
    /// corrupt (one seeded byte flipped) on the armed occurrence, clean
    /// otherwise.  Appends are counted across both knobs so `nth` means "the
    /// nth journal append", whichever fault is armed.
    pub fn wal_write_fault(&self, bytes: &[u8]) -> WalWriteFault {
        if self.torn_wal_at.is_none() && self.corrupt_wal_at.is_none() {
            return WalWriteFault::Clean;
        }
        let count = self.wal_appends.fetch_add(1, Ordering::Relaxed) + 1;
        if self.torn_wal_at == Some(count) && bytes.len() >= 2 {
            let mut state = self.seed ^ count;
            let cut = 1 + (splitmix64(&mut state) as usize) % (bytes.len() - 1);
            return WalWriteFault::Torn(bytes[..cut].to_vec());
        }
        if self.corrupt_wal_at == Some(count) && !bytes.is_empty() {
            let mut mangled = bytes.to_vec();
            flip_one_byte(&mut mangled, self.seed ^ count);
            return WalWriteFault::Corrupt(mangled);
        }
        WalWriteFault::Clean
    }

    /// Called by the journal before each fsync an ingest asks for. Whether
    /// this one fails: true once, on the armed occurrence.
    pub fn sync_fails(&self) -> bool {
        let Some(nth) = self.fail_sync_at else {
            return false;
        };
        self.syncs.fetch_add(1, Ordering::Relaxed) + 1 == nth
    }

    /// Journal appends attempted so far (tells a drill whether its fault fired).
    pub fn wal_appends_seen(&self) -> u64 {
        self.wal_appends.load(Ordering::Relaxed)
    }

    /// Called by the server at the top of each admitted ingest.  Returns the
    /// 1-based ordinal of this ingest, which the crash-point checks below key on.
    pub fn ingest_begun(&self) -> u64 {
        self.ingests.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Called by the server when a checkpoint that writes a delta has released
    /// the tenant lock.  Returns its 1-based ordinal, which the checkpoint
    /// crash points key on.
    pub fn persist_begun(&self) -> u64 {
        self.persists.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Whether the armed crash fires at `point` inside ingest (or checkpoint)
    /// number `nth`.
    pub fn crash_now(&self, point: CrashPoint, nth: u64) -> bool {
        self.crash_at == Some((point, nth))
    }

    /// Whether a connection that has answered `frames_answered` frames should
    /// now be dropped (before writing the pending response).
    pub fn should_drop(&self, frames_answered: u64) -> bool {
        self.drop_after_frames
            .is_some_and(|limit| frames_answered >= limit)
    }

    /// The armed per-ingest stall, if any.
    pub fn ingest_stall(&self) -> Option<Duration> {
        self.stall_ingest
    }

    /// The armed per-checkpoint stall, if any.
    pub fn persist_stall(&self) -> Option<Duration> {
        self.stall_persist
    }

    /// Durable writes attempted so far (tells a drill whether its tear fired).
    pub fn writes_seen(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

/// Flips one seeded byte of `bytes` (used by drills to corrupt a chain tip file
/// in place).  Returns the flipped offset.
pub fn flip_one_byte(bytes: &mut [u8], seed: u64) -> usize {
    assert!(!bytes.is_empty());
    let mut state = seed;
    let at = (splitmix64(&mut state) as usize) % bytes.len();
    // XOR with a nonzero mask always changes the byte.
    bytes[at] ^= 0x5A;
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torn_write_fires_exactly_once_at_the_armed_occurrence() {
        let plan = FaultPlan::seeded(7).with_torn_write(3);
        let blob = vec![9u8; 100];
        assert!(plan.tear_write(&blob).is_none());
        assert!(plan.tear_write(&blob).is_none());
        let torn = plan.tear_write(&blob).expect("third write tears");
        assert!(!torn.is_empty() && torn.len() < blob.len());
        assert!(plan.tear_write(&blob).is_none(), "fires once");
        assert_eq!(plan.writes_seen(), 4);
    }

    #[test]
    fn tears_are_reproducible_per_seed() {
        let blob = vec![1u8; 64];
        let a = FaultPlan::seeded(42).with_torn_write(1);
        let b = FaultPlan::seeded(42).with_torn_write(1);
        let c = FaultPlan::seeded(43).with_torn_write(1);
        let ta = a.tear_write(&blob).unwrap();
        assert_eq!(ta, b.tear_write(&blob).unwrap());
        // A different seed *may* pick the same cut; lengths just have to be valid.
        let tc = c.tear_write(&blob).unwrap();
        assert!((1..blob.len()).contains(&tc.len()));
        assert!((1..blob.len()).contains(&ta.len()));
    }

    #[test]
    fn byte_flip_always_changes_the_payload() {
        let original = vec![0xA5u8; 33];
        for seed in 0..32 {
            let mut copy = original.clone();
            let at = flip_one_byte(&mut copy, seed);
            assert!(at < copy.len());
            assert_ne!(copy, original, "seed {seed}");
        }
    }

    #[test]
    fn the_empty_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.tear_write(&[1, 2, 3]).is_none());
        assert_eq!(plan.wal_write_fault(&[1, 2, 3]), WalWriteFault::Clean);
        assert!(!plan.crash_now(CrashPoint::AfterApply, 1));
        assert!(!plan.should_drop(u64::MAX));
        assert!(plan.ingest_stall().is_none());
        assert!(plan.persist_stall().is_none());
        assert!(!plan.crash_frame_allowed());
        assert!(!plan.sync_fails());
    }

    #[test]
    fn a_failed_sync_fires_exactly_once_at_the_armed_fsync() {
        let plan = FaultPlan::none().with_failed_sync(2);
        let fired: Vec<bool> = (0..4).map(|_| plan.sync_fails()).collect();
        assert_eq!(fired, [false, true, false, false]);
    }

    #[test]
    fn wal_faults_fire_exactly_once_at_the_armed_append() {
        let record = vec![7u8; 40];
        let plan = FaultPlan::seeded(9).with_torn_wal_append(2);
        assert_eq!(plan.wal_write_fault(&record), WalWriteFault::Clean);
        match plan.wal_write_fault(&record) {
            WalWriteFault::Torn(prefix) => {
                assert!(!prefix.is_empty() && prefix.len() < record.len());
                assert_eq!(prefix, record[..prefix.len()]);
            }
            other => panic!("second append must tear, got {other:?}"),
        }
        assert_eq!(plan.wal_write_fault(&record), WalWriteFault::Clean);
        assert_eq!(plan.wal_appends_seen(), 3);

        let plan = FaultPlan::seeded(9).with_corrupt_wal_record(1);
        match plan.wal_write_fault(&record) {
            WalWriteFault::Corrupt(mangled) => {
                assert_eq!(mangled.len(), record.len());
                let flips = mangled.iter().zip(&record).filter(|(a, b)| a != b).count();
                assert_eq!(flips, 1, "exactly one byte flips");
            }
            other => panic!("first append must corrupt, got {other:?}"),
        }
    }

    #[test]
    fn the_armed_crash_fires_only_at_its_point_and_ordinal() {
        let plan = FaultPlan::none().with_crash_at(CrashPoint::AfterJournal, 3);
        assert_eq!(plan.ingest_begun(), 1);
        assert_eq!(plan.ingest_begun(), 2);
        let nth = plan.ingest_begun();
        assert_eq!(nth, 3);
        assert!(!plan.crash_now(CrashPoint::BeforeJournal, nth));
        assert!(!plan.crash_now(CrashPoint::AfterApply, nth));
        assert!(plan.crash_now(CrashPoint::AfterJournal, nth));
        assert!(!plan.crash_now(CrashPoint::AfterJournal, plan.ingest_begun()));

        // Checkpoint points count checkpoints, not ingests.
        let plan = FaultPlan::none().with_crash_at(CrashPoint::AfterDeltaWrite, 2);
        assert_eq!(plan.ingest_begun(), 1);
        assert_eq!(plan.persist_begun(), 1);
        let nth = plan.persist_begun();
        assert!(!plan.crash_now(CrashPoint::AfterRotate, nth));
        assert!(plan.crash_now(CrashPoint::AfterDeltaWrite, nth));
    }
}
