//! Per-tenant write-ahead batch journal: the durability layer under the ack.
//!
//! Checkpoints (`storage` + `fsc_persist`) make the *applied* prefix durable,
//! but only when a checkpoint runs. The journal closes the gap: every ingest
//! batch is appended here — length-prefixed, seq-stamped, checksummed — before
//! the server acknowledges it (in [`Durability::AckAfterDurable`] mode, fsynced
//! before the ack). Recovery then becomes: restore the chain tip, truncate any
//! torn journal tail at the last valid record, and replay the suffix through
//! the idempotency cursor. An acked batch is either inside the recovered chain
//! prefix or inside the replayed journal suffix — never lost.
//!
//! # On-disk format
//!
//! ```text
//! wal.fscw := magic "FSCW" | version u32 LE | record*
//! record   := len u32 LE | seq u64 LE | checksum u64 LE | item u64 LE × n
//! ```
//!
//! `len` counts everything after itself (`16 + 8·n` bytes), `checksum` covers
//! the seq and the item bytes, and seqs within a journal are strictly
//! consecutive. Version 2 checksums with [`record_checksum`], four independent
//! multiply-xorshift lanes over the item words; version 1 (the same layout)
//! used byte-serial FNV-1a-64. [`scan`] reads both, and [`Wal::open`] rewrites
//! a version-1 journal as version 2 before appending to it, so no file ever
//! mixes versions. Parsing is total: [`scan`] classifies any byte string into a
//! valid prefix plus an optional typed [`WalError`], and never panics. Damage
//! past the last valid record is *truncated* (a torn append from a crash); the
//! valid prefix is always kept.
//!
//! A failed fsync leaves the journal's unsynced tail of unknown content, so the
//! journal then refuses appends until [`Wal::truncate`] empties it (see
//! [`Wal::sync`]).
//!
//! # Segments
//!
//! A checkpoint retires the records it covers without waiting on the disk
//! under the tenant lock: [`Wal::rotate`] renames `wal.fscw` to
//! `wal-retired.fscw` ([`retired_path`]) and starts a fresh `wal.fscw`, and
//! [`remove_retired`] unlinks the retired segment once the checkpoint's delta
//! is durable. At most one retired segment exists. [`Wal::open`] reads it
//! ahead of `wal.fscw` as one record stream and folds both into one
//! `wal.fscw` before deleting it, so a recovered journal is always one file.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::faults::{FaultPlan, WalWriteFault};
use crate::storage::sync_dir;

/// First bytes of every journal file.
pub const WAL_MAGIC: [u8; 4] = *b"FSCW";
/// Format version stamped after the magic by this build.
pub const WAL_VERSION: u32 = 2;
/// The oldest version [`scan`] still reads (FNV-1a record checksums).
const WAL_VERSION_FNV: u32 = 1;
/// Bytes of `magic | version` before the first record.
pub const WAL_HEADER: u64 = 8;
/// Bytes of `len | seq | checksum` framing around each record's items.
pub const RECORD_OVERHEAD: u64 = 20;
/// Hard cap on a single record's `len` field, mirroring the frame cap.
pub const MAX_WAL_RECORD: u32 = 16 << 20;

/// Independent lanes of [`record_checksum`]: word `i` of the items feeds lane
/// `i % LANES`, so consecutive words' multiplies do not wait on each other.
const LANES: usize = 4;
/// Each lane's starting state (arbitrary distinct constants).
const LANE_SEEDS: [u64; LANES] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
/// Odd multiplier of the lane steps.
const LANE_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Odd multiplier of the fold steps.
const FOLD_MUL: u64 = 0xBF58_476D_1CE4_E5B9;

/// One checksum step, `h ← g(h ^ w)`; see [`record_checksum`].
#[inline(always)]
fn mix(h: u64, w: u64, mul: u64) -> u64 {
    let m = (h ^ w).wrapping_mul(mul);
    m ^ (m >> 32)
}

/// The version-2 record checksum over `seq` and the record's item bytes
/// (little-endian `u64` words; `items.len()` is a multiple of 8 in every
/// record).
///
/// One step absorbs a word `w` into a state `h` as `h ← g(h ^ w)`, where
/// `g(x) = m ^ (m >> 32)` with `m = x · mul` for an odd constant `mul`.
/// Multiplying by an odd number is a bijection of `u64` (odd numbers are
/// invertible mod 2⁶⁴), and `m ↦ m ^ (m >> 32)` is a bijection too (the high
/// half passes through unchanged and then recovers the low half). So for a
/// fixed word the step is a bijection of the state, and for a fixed state it
/// is a bijection of the word.
///
/// Word `i` of `items` steps lane `i % 4`. The lanes run independently, so
/// their multiplies overlap, where FNV-1a's one multiply per byte each waited
/// on the last. The fold then steps one accumulator through the checksummed
/// byte length, the seq and the four lanes in turn.
///
/// **A single changed word always changes the digest.** A changed item word
/// changes its lane's state at that step (the step is a bijection of the
/// word), and every later step on that lane, being a bijection of the state,
/// keeps it changed. In the fold each step is a bijection of the value it
/// absorbs and of the accumulator, so a changed lane — or a changed seq —
/// changes the digest. So any single flipped bit or byte inside the seq or
/// the items is detected with certainty, as version 1's FNV-1a guaranteed
/// with its bijective byte steps. A record of a different length is a
/// different input: the framing checks catch most such records first, and
/// the folded length separates the rest.
pub fn record_checksum(seq: u64, items: &[u8]) -> u64 {
    debug_assert_eq!(items.len() % 8, 0, "records hold whole words");
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8-byte word"));
    let mut lanes = LANE_SEEDS;
    let mut rows = items.chunks_exact(8 * LANES);
    for row in &mut rows {
        for (lane, bytes) in lanes.iter_mut().zip(row.chunks_exact(8)) {
            *lane = mix(*lane, word(bytes), LANE_MUL);
        }
    }
    for (lane, bytes) in lanes.iter_mut().zip(rows.remainder().chunks_exact(8)) {
        *lane = mix(*lane, word(bytes), LANE_MUL);
    }
    let digest = mix(0, 8 + items.len() as u64, FOLD_MUL);
    lanes
        .into_iter()
        .fold(mix(digest, seq, FOLD_MUL), |d, lane| mix(d, lane, FOLD_MUL))
}

/// The version-1 record checksum: FNV-1a-64 over the seq bytes followed by
/// the item bytes, one dependent multiply per byte. Kept to replay journals
/// written before version 2.
fn fnv1a_record_checksum(seq: u64, items: &[u8]) -> u64 {
    seq.to_le_bytes()
        .iter()
        .chain(items)
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// Path of the journal inside a tenant directory: the active segment, the one
/// appends go to.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.fscw")
}

/// Path of the retired journal segment inside a tenant directory: the segment
/// [`Wal::rotate`] moved aside, kept until the checkpoint covering it is
/// durable (see [`remove_retired`]).
pub fn retired_path(dir: &Path) -> PathBuf {
    dir.join("wal-retired.fscw")
}

/// Unlinks the retired segment once a durable delta covers it, and fsyncs the
/// directory so the unlink itself survives power loss: a retired segment that
/// came back would stand in front of a journal truncated since, and recovery
/// would stop at the seq gap between them.
pub fn remove_retired(dir: &Path) -> io::Result<()> {
    std::fs::remove_file(retired_path(dir))?;
    sync_dir(dir)
}

/// When the server acknowledges an ingest batch, relative to durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Ack once the batch is applied in memory and appended to the journal.
    /// The append is fsynced every `group_commit` appends, so a process kill
    /// loses nothing (the page cache survives) and power loss is bounded by
    /// the group-commit window. This is the seed behavior plus a journal.
    #[default]
    AckAfterApply,
    /// Fsync the journal append before every ack: an acked batch survives
    /// power loss. Zero acked-write loss at every crash point.
    AckAfterDurable,
}

impl fmt::Display for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Durability::AckAfterApply => write!(f, "ack-after-apply"),
            Durability::AckAfterDurable => write!(f, "ack-after-durable"),
        }
    }
}

/// Typed damage found while scanning a journal. `at` is the byte offset of the
/// damaged region; everything before it is a valid prefix that recovery keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The file does not start with `FSCW`.
    BadMagic,
    /// The version stamp is one this build cannot read.
    UnsupportedVersion(u32),
    /// The file ends mid-record: a torn append.
    Truncated {
        /// Byte offset where the torn record starts.
        at: u64,
    },
    /// A record's length field is malformed (too small, not a whole number of
    /// items, or over the cap) — garbage, not a record.
    BadLength {
        /// Byte offset of the malformed record.
        at: u64,
        /// The length field found there.
        len: u32,
    },
    /// A record frames correctly but its checksum does not match: corruption.
    BadChecksum {
        /// Byte offset of the corrupt record.
        at: u64,
    },
    /// A record's seq is not `prev + 1`: the journal itself is inconsistent.
    OutOfOrderSeq {
        /// Byte offset of the out-of-order record.
        at: u64,
        /// The seq of the record before it.
        prev: u64,
        /// The seq found.
        found: u64,
    },
    /// The first surviving record is past the recovery cursor: the journal
    /// cannot supply the batch the chain tip needs next.
    Gap {
        /// Byte offset of the unusable record.
        at: u64,
        /// The seq the chain tip needs next.
        expected: u64,
        /// The seq found.
        found: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::BadMagic => write!(f, "journal header is not FSCW"),
            WalError::UnsupportedVersion(v) => write!(f, "unsupported journal version {v}"),
            WalError::Truncated { at } => write!(f, "torn journal record at byte {at}"),
            WalError::BadLength { at, len } => {
                write!(f, "malformed journal record length {len} at byte {at}")
            }
            WalError::BadChecksum { at } => {
                write!(f, "journal record checksum mismatch at byte {at}")
            }
            WalError::OutOfOrderSeq { at, prev, found } => write!(
                f,
                "journal seq {found} after {prev} at byte {at} (records must be consecutive)"
            ),
            WalError::Gap {
                at,
                expected,
                found,
            } => write!(
                f,
                "journal starts at seq {found} but recovery needs seq {expected} (byte {at})"
            ),
        }
    }
}

impl std::error::Error for WalError {}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Byte offset of the record's length field inside the file.
    pub at: u64,
    /// Ingest sequence number the batch was acked under.
    pub seq: u64,
    /// The batch items, exactly as ingested.
    pub items: Vec<u64>,
}

/// Result of a total scan: the valid prefix and the first damage past it.
#[derive(Debug)]
pub struct WalScan {
    /// Every record in the valid prefix, in order.
    pub records: Vec<WalRecord>,
    /// Bytes of the valid prefix (header + whole records). Truncating the
    /// file to this length removes exactly the damage.
    pub valid_len: u64,
    /// The first damage found, if any. `None` means the file is clean.
    pub damage: Option<WalError>,
}

/// Totally parse a journal image: never panics, classifies every byte string.
pub fn scan(bytes: &[u8]) -> WalScan {
    if bytes.len() < WAL_HEADER as usize {
        return WalScan {
            records: Vec::new(),
            valid_len: 0,
            damage: Some(WalError::Truncated { at: 0 }),
        };
    }
    if bytes[..4] != WAL_MAGIC {
        return WalScan {
            records: Vec::new(),
            valid_len: 0,
            damage: Some(WalError::BadMagic),
        };
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let checksum_of = match version {
        WAL_VERSION => record_checksum,
        WAL_VERSION_FNV => fnv1a_record_checksum,
        _ => {
            return WalScan {
                records: Vec::new(),
                valid_len: 0,
                damage: Some(WalError::UnsupportedVersion(version)),
            }
        }
    };

    let mut records = Vec::new();
    let mut offset = WAL_HEADER as usize;
    let mut prev_seq: Option<u64> = None;
    let damage = loop {
        if offset == bytes.len() {
            break None;
        }
        let at = offset as u64;
        if bytes.len() - offset < 4 {
            break Some(WalError::Truncated { at });
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        if len < 16 || (len - 16) % 8 != 0 || len > MAX_WAL_RECORD {
            break Some(WalError::BadLength { at, len });
        }
        if bytes.len() - offset - 4 < len as usize {
            break Some(WalError::Truncated { at });
        }
        let body = &bytes[offset + 4..offset + 4 + len as usize];
        let seq = u64::from_le_bytes(body[..8].try_into().unwrap());
        let checksum = u64::from_le_bytes(body[8..16].try_into().unwrap());
        if checksum_of(seq, &body[16..]) != checksum {
            break Some(WalError::BadChecksum { at });
        }
        if let Some(prev) = prev_seq {
            if prev.checked_add(1) != Some(seq) {
                break Some(WalError::OutOfOrderSeq {
                    at,
                    prev,
                    found: seq,
                });
            }
        }
        let items = body[16..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        records.push(WalRecord { at, seq, items });
        prev_seq = Some(seq);
        offset += 4 + len as usize;
    };
    let valid_len = records.last().map_or(WAL_HEADER, |r| {
        r.at + RECORD_OVERHEAD + 8 * r.items.len() as u64
    });
    WalScan {
        records,
        valid_len,
        damage,
    }
}

/// Encodes one current-version record (`len | seq | checksum | items`) into
/// `out`, replacing its contents, ready to append.
fn encode_record(out: &mut Vec<u8>, seq: u64, items: &[u64]) {
    let len = 16 + 8 * items.len() as u32;
    out.clear();
    out.resize(4 + len as usize, 0);
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4..12].copy_from_slice(&seq.to_le_bytes());
    for (bytes, item) in out[20..].chunks_exact_mut(8).zip(items) {
        bytes.copy_from_slice(&item.to_le_bytes());
    }
    let checksum = record_checksum(seq, &out[20..]);
    out[12..20].copy_from_slice(&checksum.to_le_bytes());
}

/// What recovery replays and repairs when a journal is opened.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Records past the chain tip, in seq order: the suffix to replay.
    pub replay: Vec<WalRecord>,
    /// Records skipped because the chain tip already covers them.
    pub skipped: u64,
    /// Bytes of damaged tail removed from the file (0 on a clean open).
    pub truncated_bytes: u64,
    /// The damage that forced the truncation, if any.
    pub damage: Option<WalError>,
}

/// How an append landed on disk, after fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalAppend {
    /// The full record is in the file (fsynced only per the durability mode).
    Clean,
    /// A fault cut the record short: the file ends mid-record, exactly as a
    /// crash during the write would leave it. The server must treat this as
    /// the crash itself — appending more records behind the tear would strand
    /// them past damage and recovery would truncate them away.
    Torn,
    /// A fault flipped a byte inside the record: latent media damage that the
    /// next recovery detects by checksum and truncates.
    Corrupt,
}

/// Why a [`Wal`] refuses appends: what made its file untrustworthy.
const FAILED_ROLLBACK: &str = "an append failed and could not be rolled back";
const FAILED_FSYNC: &str = "an fsync failed, so its unsynced tail is of unknown content";
const FAILED_ROTATION: &str = "a rotation moved the journal aside and could not put it back";

/// An open per-tenant journal.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Bytes in the file (header + records + any injected damage).
    len: u64,
    /// Bytes known fsynced. `len > synced_len` is the power-loss exposure.
    synced_len: u64,
    unsynced_appends: u64,
    /// Records currently in the journal (reset by `truncate`).
    records: u64,
    /// Lifetime appends since open — survive truncation, feed the cost sweep.
    appended_records: u64,
    appended_bytes: u64,
    /// Set while the file cannot be trusted (`FAILED_ROLLBACK`,
    /// `FAILED_FSYNC` or `FAILED_ROTATION`): appends behind it would be
    /// stranded or duplicated. A successful [`Wal::truncate`] clears it.
    poisoned: Option<&'static str>,
    /// Set by [`Wal::rotate`]: the fresh segment's directory entry is not yet
    /// durable, so the next fsync also fsyncs the directory.
    dir_unsynced: bool,
    /// The record being appended, reused so an append allocates nothing.
    record: Vec<u8>,
}

impl Wal {
    /// An open journal of `len` bytes, all of them synced.
    fn opened(path: PathBuf, file: File, len: u64, records: u64) -> Wal {
        Wal {
            path,
            file,
            len,
            synced_len: len,
            unsynced_appends: 0,
            records,
            appended_records: 0,
            appended_bytes: 0,
            poisoned: None,
            dir_unsynced: false,
            record: Vec::new(),
        }
    }

    /// Create a fresh journal in `dir`, durably (file and directory synced).
    pub fn create(dir: &Path) -> io::Result<Wal> {
        let path = wal_path(dir);
        let file = new_segment(&path)?;
        file.sync_all()?;
        sync_dir(dir)?;
        Ok(Wal::opened(path, file, WAL_HEADER, 0))
    }

    /// Open the journal in `dir`, repairing any torn tail and splitting its
    /// records at `cursor` (the recovered chain tip's next expected seq):
    /// records below the cursor are skipped, records from it on are returned
    /// for replay. A missing file is created fresh — tenants from before the
    /// journal existed recover exactly as they used to. A journal of an older
    /// version is rewritten as the current version, crash-atomically, so the
    /// appends that follow never mix versions in one file.
    ///
    /// A retired segment left by a checkpoint that did not finish (see
    /// [`Wal::rotate`]) is read first, and the active segment's records after
    /// it, as one record stream under the same scan, truncation and gap rules;
    /// byte offsets count through that stream. The records kept are rewritten
    /// into one `wal.fscw` crash-atomically, and only then is the retired
    /// segment deleted.
    pub fn open(dir: &Path, cursor: u64) -> io::Result<(Wal, WalRecovery)> {
        let path = wal_path(dir);
        let retired = read_if_present(&retired_path(dir))?;
        let active = read_if_present(&path)?;
        let (bytes, merged) = match (retired, active) {
            (None, None) => return Ok((Wal::create(dir)?, WalRecovery::default())),
            (None, Some(active)) => (active, false),
            (Some(retired), active) => (join_segments(retired, active.unwrap_or_default()), true),
        };
        let scanned = scan(&bytes);
        let mut recovery = WalRecovery {
            damage: scanned.damage,
            ..WalRecovery::default()
        };

        if scanned.valid_len < WAL_HEADER {
            // Header damage: nothing salvageable. Rewrite a fresh journal and
            // count every byte as truncated.
            recovery.truncated_bytes = bytes.len() as u64;
            let wal = Wal::create(dir)?;
            if merged {
                remove_retired(dir)?;
            }
            return Ok((wal, recovery));
        }
        let mut valid_len = scanned.valid_len;
        let mut records = scanned.records;

        // Split at the cursor: the chain tip already covers seqs below it.
        // Seqs are consecutive, so only the first record at or past the
        // cursor can be out of place.
        let first = records.partition_point(|r| r.seq < cursor);
        if let Some(record) = records.get(first).filter(|r| r.seq != cursor) {
            // The journal's surviving records start past the cursor: the
            // batches the chain needs next were never journaled (possible
            // only after on-disk damage elsewhere). Keep the covered prefix,
            // drop the unusable suffix.
            recovery.damage = Some(WalError::Gap {
                at: record.at,
                expected: cursor,
                found: record.seq,
            });
            valid_len = record.at;
            records.truncate(first);
        }
        if valid_len < bytes.len() as u64 {
            recovery.truncated_bytes = bytes.len() as u64 - valid_len;
        }
        let file = if merged || bytes[4..8] != WAL_VERSION.to_le_bytes() {
            // Records keep their size across versions and segments, so the
            // rewrite is exactly `valid_len` bytes long and every offset
            // still holds.
            let file = rewrite(dir, &records)?;
            if merged {
                remove_retired(dir)?;
            }
            file
        } else {
            let file = OpenOptions::new().read(true).append(true).open(&path)?;
            if recovery.truncated_bytes > 0 {
                file.set_len(valid_len)?;
                file.sync_all()?;
            }
            file
        };
        recovery.skipped = first as u64;
        let kept = records.len() as u64;
        recovery.replay = records.split_off(first);
        Ok((Wal::opened(path, file, valid_len, kept), recovery))
    }

    /// Append one batch record, applying any injected write fault from
    /// `faults`. Returns how the bytes actually landed. An io error rolls the
    /// file back to its pre-append length so a retry appends cleanly; if the
    /// rollback itself fails, or an earlier fsync failed, the journal is
    /// poisoned and every append errors until a [`Wal::truncate`] empties it
    /// (no ack can be issued over a file that may end in garbage).
    pub fn append(&mut self, seq: u64, items: &[u64], faults: &FaultPlan) -> io::Result<WalAppend> {
        if let Some(reason) = self.poisoned {
            return Err(io::Error::other(format!(
                "journal refuses appends until a checkpoint truncates it: {reason}"
            )));
        }
        encode_record(&mut self.record, seq, items);
        let fault = faults.wal_write_fault(&self.record);
        let (bytes, landed): (&[u8], WalAppend) = match &fault {
            WalWriteFault::Clean => (&self.record, WalAppend::Clean),
            WalWriteFault::Torn(torn) => (torn, WalAppend::Torn),
            WalWriteFault::Corrupt(mangled) => (mangled, WalAppend::Corrupt),
        };
        if let Err(e) = self.file.write_all(bytes) {
            if self.file.set_len(self.len).is_err() {
                self.poisoned = Some(FAILED_ROLLBACK);
            }
            return Err(e);
        }
        self.len += bytes.len() as u64;
        self.appended_bytes += bytes.len() as u64;
        if landed != WalAppend::Torn {
            self.records += 1;
            self.appended_records += 1;
        }
        self.unsynced_appends += 1;
        Ok(landed)
    }

    /// Fsync the journal: everything appended so far survives power loss.
    ///
    /// A failed fsync poisons the journal. After one, the kernel may already
    /// have dropped the unsynced pages, and a later fsync can succeed without
    /// writing them (the "fsyncgate" failure; Rebello et al., ATC '20). An
    /// append behind them would also let a retried seq land twice, and
    /// recovery stops at the duplicate. So nothing is appended until a
    /// checkpoint covers the applied batches and [`Wal::truncate`] empties
    /// the file.
    ///
    /// The first sync after a [`Wal::rotate`] also fsyncs the directory, so
    /// the fresh segment's name is as durable as the appends it acks.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Err(e) = self.sync_file() {
            self.poisoned = Some(FAILED_FSYNC);
            return Err(e);
        }
        self.synced_len = self.len;
        self.unsynced_appends = 0;
        Ok(())
    }

    /// Fsyncs the file, and the directory while a rotation's is pending.
    fn sync_file(&mut self) -> io::Result<()> {
        self.file.sync_all()?;
        if self.dir_unsynced {
            sync_dir(self.dir())?;
            self.dir_unsynced = false;
        }
        Ok(())
    }

    /// The tenant directory the journal lives in.
    fn dir(&self) -> &Path {
        self.path
            .parent()
            .expect("a journal path names its directory")
    }

    /// Fsync only once `group_commit` appends have accumulated (a knob of 0
    /// behaves as 1: every append syncs).
    pub fn maybe_sync(&mut self, group_commit: u64) -> io::Result<()> {
        self.maybe_sync_with(group_commit, &FaultPlan::none())
    }

    /// [`Wal::maybe_sync`] through the fault plan: an armed fsync failure
    /// errors, and poisons the journal, exactly as a failed [`Wal::sync`].
    pub fn maybe_sync_with(&mut self, group_commit: u64, faults: &FaultPlan) -> io::Result<()> {
        if self.unsynced_appends < group_commit.max(1) {
            return Ok(());
        }
        if faults.sync_fails() {
            self.poisoned = Some(FAILED_FSYNC);
            return Err(io::Error::other("injected journal fsync failure"));
        }
        self.sync()
    }

    /// Drop every record: the checkpoint that just landed covers them all.
    /// Atomic in the crash sense — a crash before the `set_len` leaves the
    /// full journal (recovery skips the covered records via the cursor), a
    /// crash after it leaves the empty journal (recovery replays nothing).
    /// Success lifts any poisoning: the file is back to its synced header.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(WAL_HEADER)?;
        self.sync_file()?;
        self.len = WAL_HEADER;
        self.synced_len = WAL_HEADER;
        self.unsynced_appends = 0;
        self.records = 0;
        self.poisoned = None;
        Ok(())
    }

    /// Switches appends to a fresh segment: renames `wal.fscw` to the retired
    /// segment ([`retired_path`]) and creates a new, empty `wal.fscw`. The
    /// checkpoint that rotates takes its snapshot under the same lock, so the
    /// retired segment holds exactly the records that snapshot covers; once
    /// the delta is durable, [`remove_retired`] drops them, and appends never
    /// waited for the delta.
    ///
    /// If the segment being retired has unsynced appends, they are fsynced
    /// first: otherwise a power loss could keep the new segment's synced
    /// records but not the retired segment's tail, and recovery would drop
    /// the new records past the gap. The new segment's header and directory
    /// entry are not fsynced here; the next [`Wal::sync`] fsyncs both.
    ///
    /// A poisoned journal is never rotated: its records stay where the
    /// truncate that lifts the poisoning will find them. A leftover retired
    /// segment is replaced, so the caller must rotate only when the last one
    /// is covered by a durable delta (or already unlinked).
    pub fn rotate(&mut self) -> io::Result<()> {
        if let Some(reason) = self.poisoned {
            return Err(io::Error::other(format!(
                "journal refuses to rotate until a checkpoint truncates it: {reason}"
            )));
        }
        if self.synced_len < self.len {
            self.sync()?;
        }
        let retired = retired_path(self.dir());
        std::fs::rename(&self.path, &retired)?;
        let file = match new_segment(&self.path) {
            Ok(file) => file,
            Err(e) => {
                // Put the segment back so appends keep landing in
                // `wal.fscw`; failing that, refuse them.
                if std::fs::rename(&retired, &self.path).is_err() {
                    self.poisoned = Some(FAILED_ROTATION);
                }
                return Err(e);
            }
        };
        self.file = file;
        self.len = WAL_HEADER;
        self.synced_len = 0;
        self.records = 0;
        self.dir_unsynced = true;
        Ok(())
    }

    /// Whether the journal refuses appends until the next [`Wal::truncate`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Records currently in the journal.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes currently in the journal file, header included.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Bytes known fsynced (`len` minus the power-loss exposure).
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// Lifetime records appended since open (truncation does not reset this).
    pub fn appended_records(&self) -> u64 {
        self.appended_records
    }

    /// Lifetime bytes appended since open (truncation does not reset this).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Path of the journal file (drills truncate it to simulate power loss).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Creates (or empties) the journal segment at `path` and writes the header,
/// unsynced. Returns the file, open for appending.
fn new_segment(path: &Path) -> io::Result<File> {
    // `truncate` and `append` cannot be combined in `OpenOptions`; open in
    // append mode and empty the file explicitly.
    let mut file = OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)?;
    file.set_len(0)?;
    file.write_all(&header())?;
    Ok(file)
}

/// The file's bytes, or `None` when it does not exist.
fn read_if_present(path: &Path) -> io::Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// The seq field of an image's first record, unchecked, if the image holds
/// a current-version header and a whole record's framing.
fn first_seq(image: &[u8]) -> Option<u64> {
    let seq = image.get(12..20).filter(|_| image[..8] == header())?;
    Some(u64::from_le_bytes(seq.try_into().expect("8 bytes")))
}

/// The retired segment followed by the active one, as one journal image: the
/// retired segment's bytes, then the active segment's records. An active
/// segment without a current-version header (a rotation cut short by power
/// loss) is appended whole, so [`scan`] stops at it and counts it truncated;
/// an empty one adds nothing.
///
/// An active segment that starts with the retired segment's first record
/// already holds it: recovery rewrote both into `wal.fscw` and died before
/// unlinking the retired segment. That segment is then the whole image.
fn join_segments(mut retired: Vec<u8>, active: Vec<u8>) -> Vec<u8> {
    if first_seq(&retired).is_some() && first_seq(&retired) == first_seq(&active) {
        return active;
    }
    let records = active.strip_prefix(&header()[..]).unwrap_or(&active);
    retired.extend_from_slice(records);
    retired
}

/// The current-version file header.
fn header() -> [u8; WAL_HEADER as usize] {
    let mut header = [0; WAL_HEADER as usize];
    header[..4].copy_from_slice(&WAL_MAGIC);
    header[4..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    header
}

/// Replaces the journal in `dir` with a current-version journal of `records`:
/// written and fsynced under a temporary name, renamed over the journal, then
/// the directory fsynced. A crash at any step leaves either the old journal or
/// the new one, each holding the same batches. Returns the new file, open for
/// appending.
fn rewrite(dir: &Path, records: &[WalRecord]) -> io::Result<File> {
    let mut bytes = header().to_vec();
    let mut record = Vec::new();
    for r in records {
        encode_record(&mut record, r.seq, &r.items);
        bytes.extend_from_slice(&record);
    }
    let temp = dir.join("wal.fscw.tmp");
    let mut file = File::create(&temp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    std::fs::rename(&temp, wal_path(dir))?;
    sync_dir(dir)?;
    OpenOptions::new()
        .read(true)
        .append(true)
        .open(wal_path(dir))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fsc-serve-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn appended_records_round_trip_through_open() {
        let dir = tmp_dir("roundtrip");
        let faults = FaultPlan::none();
        let mut wal = Wal::create(&dir).unwrap();
        for seq in 0..5u64 {
            let items = vec![seq, seq * 10, seq * 100];
            assert_eq!(wal.append(seq, &items, &faults).unwrap(), WalAppend::Clean);
        }
        wal.sync().unwrap();
        assert_eq!(wal.records(), 5);
        drop(wal);

        let (wal, recovery) = Wal::open(&dir, 0).unwrap();
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.skipped, 0);
        assert!(recovery.damage.is_none());
        assert_eq!(recovery.replay.len(), 5);
        for (seq, record) in recovery.replay.iter().enumerate() {
            assert_eq!(record.seq, seq as u64);
            let seq = seq as u64;
            assert_eq!(record.items, vec![seq, seq * 10, seq * 100]);
        }
        assert_eq!(wal.records(), 5);
    }

    #[test]
    fn the_cursor_splits_skip_from_replay() {
        let dir = tmp_dir("cursor");
        let faults = FaultPlan::none();
        let mut wal = Wal::create(&dir).unwrap();
        for seq in 0..6u64 {
            wal.append(seq, &[seq], &faults).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let (_, recovery) = Wal::open(&dir, 4).unwrap();
        assert_eq!(recovery.skipped, 4);
        assert_eq!(
            recovery.replay.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![4, 5]
        );
    }

    #[test]
    fn every_byte_prefix_of_a_journal_truncates_to_whole_records() {
        let dir = tmp_dir("prefix");
        let faults = FaultPlan::none();
        let mut wal = Wal::create(&dir).unwrap();
        let mut boundaries = vec![WAL_HEADER];
        for seq in 0..3u64 {
            wal.append(seq, &[seq, seq + 7], &faults).unwrap();
            boundaries.push(wal.len());
        }
        wal.sync().unwrap();
        drop(wal);
        let image = std::fs::read(wal_path(&dir)).unwrap();

        for cut in 0..=image.len() {
            let sub = dir.join(format!("cut-{cut}"));
            std::fs::create_dir(&sub).unwrap();
            std::fs::write(wal_path(&sub), &image[..cut]).unwrap();
            let (_, recovery) = Wal::open(&sub, 0).unwrap();
            let whole = boundaries
                .iter()
                .filter(|&&b| b <= cut as u64)
                .count()
                .saturating_sub(1);
            assert_eq!(
                recovery.replay.len(),
                whole,
                "cut at byte {cut} must keep exactly the whole records before it"
            );
            let valid = boundaries
                .iter()
                .copied()
                .filter(|&b| b <= cut as u64)
                .max()
                .unwrap_or(0);
            assert_eq!(
                recovery.truncated_bytes,
                cut as u64 - valid,
                "cut at byte {cut} must truncate exactly the torn tail"
            );
            assert_eq!(recovery.damage.is_some(), cut as u64 != valid || cut < 8);
            // The repaired file reopens clean.
            let (_, again) = Wal::open(&sub, 0).unwrap();
            assert!(again.damage.is_none());
            assert_eq!(again.truncated_bytes, 0);
        }
    }

    #[test]
    fn a_flipped_byte_is_caught_and_truncated() {
        let dir = tmp_dir("flip");
        let faults = FaultPlan::none();
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(0, &[1, 2, 3], &faults).unwrap();
        wal.append(1, &[4, 5, 6], &faults).unwrap();
        wal.sync().unwrap();
        let first_record_end = WAL_HEADER + RECORD_OVERHEAD + 24;
        drop(wal);

        let path = wal_path(&dir);
        let mut image = std::fs::read(&path).unwrap();
        // Flip a byte inside the second record's payload.
        let target = first_record_end as usize + 21;
        image[target] ^= 0x5A;
        std::fs::write(&path, &image).unwrap();

        let (_, recovery) = Wal::open(&dir, 0).unwrap();
        assert_eq!(recovery.replay.len(), 1);
        assert!(matches!(
            recovery.damage,
            Some(WalError::BadChecksum { at }) if at == first_record_end
        ));
        assert!(recovery.truncated_bytes > 0);
    }

    #[test]
    fn group_commit_syncs_every_nth_append() {
        let dir = tmp_dir("group");
        let faults = FaultPlan::none();
        let mut wal = Wal::create(&dir).unwrap();
        for seq in 0..7u64 {
            wal.append(seq, &[seq], &faults).unwrap();
            wal.maybe_sync(3).unwrap();
        }
        // 7 appends, sync at 3 and 6: one append of exposure remains.
        assert_eq!(wal.len() - wal.synced_len(), RECORD_OVERHEAD + 8);
        wal.sync().unwrap();
        assert_eq!(wal.len(), wal.synced_len());
    }

    #[test]
    fn truncate_resets_the_journal_but_not_lifetime_counters() {
        let dir = tmp_dir("truncate");
        let faults = FaultPlan::none();
        let mut wal = Wal::create(&dir).unwrap();
        for seq in 0..4u64 {
            wal.append(seq, &[seq], &faults).unwrap();
        }
        let appended = wal.appended_bytes();
        wal.truncate().unwrap();
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.len(), WAL_HEADER);
        assert_eq!(wal.appended_records(), 4);
        assert_eq!(wal.appended_bytes(), appended);

        wal.append(4, &[4], &faults).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, recovery) = Wal::open(&dir, 4).unwrap();
        assert_eq!(recovery.replay.len(), 1);
        assert_eq!(recovery.replay[0].seq, 4);
    }

    #[test]
    fn a_torn_injected_append_leaves_a_repairable_tail() {
        let dir = tmp_dir("torn");
        let mut wal = Wal::create(&dir).unwrap();
        let clean = FaultPlan::none();
        wal.append(0, &[1, 2], &clean).unwrap();
        let faults = FaultPlan::none().with_torn_wal_append(1);
        assert_eq!(wal.append(1, &[3, 4], &faults).unwrap(), WalAppend::Torn);
        wal.sync().unwrap();
        drop(wal);

        let (_, recovery) = Wal::open(&dir, 0).unwrap();
        assert_eq!(recovery.replay.len(), 1);
        assert!(matches!(recovery.damage, Some(WalError::Truncated { .. })));
        assert!(recovery.truncated_bytes > 0);
    }

    #[test]
    fn a_corrupt_injected_append_is_caught_on_reopen() {
        let dir = tmp_dir("corrupt");
        let mut wal = Wal::create(&dir).unwrap();
        let clean = FaultPlan::none();
        wal.append(0, &[1, 2], &clean).unwrap();
        let faults = FaultPlan::none().with_corrupt_wal_record(1);
        assert_eq!(wal.append(1, &[3, 4], &faults).unwrap(), WalAppend::Corrupt);
        wal.sync().unwrap();
        drop(wal);

        let (_, recovery) = Wal::open(&dir, 0).unwrap();
        assert_eq!(recovery.replay.len(), 1);
        assert!(matches!(
            recovery.damage,
            Some(WalError::BadChecksum { .. })
        ));
    }

    #[test]
    fn scan_is_total_over_noise() {
        assert!(scan(b"").damage.is_some());
        assert!(scan(b"FSC").damage.is_some());
        assert!(scan(b"NOPE0000").damage.is_some());
        let mut v3 = Vec::new();
        v3.extend_from_slice(&WAL_MAGIC);
        v3.extend_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            scan(&v3).damage,
            Some(WalError::UnsupportedVersion(3))
        ));
        // A length field of garbage is BadLength, not a panic.
        let mut bad = Vec::new();
        bad.extend_from_slice(&WAL_MAGIC);
        bad.extend_from_slice(&WAL_VERSION.to_le_bytes());
        bad.extend_from_slice(&3u32.to_le_bytes());
        bad.extend_from_slice(&[0; 16]);
        assert!(matches!(
            scan(&bad).damage,
            Some(WalError::BadLength { at: 8, len: 3 })
        ));
        // A seq at the top of the range is followed by no valid seq: typed
        // damage, not an overflow.
        let mut wrap = header().to_vec();
        let mut record = Vec::new();
        for seq in [u64::MAX, 0] {
            encode_record(&mut record, seq, &[1]);
            wrap.extend_from_slice(&record);
        }
        let scanned = scan(&wrap);
        assert_eq!(scanned.records.len(), 1);
        assert!(matches!(
            scanned.damage,
            Some(WalError::OutOfOrderSeq {
                prev: u64::MAX,
                found: 0,
                ..
            })
        ));
    }

    /// A journal image of `version` holding one record per item count in
    /// `shapes`, seqs from 0, encoded by hand so version 1 needs no writer.
    fn image(version: u32, shapes: &[usize]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&WAL_MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        for (seq, &n) in shapes.iter().enumerate() {
            let items: Vec<u64> = (0..n as u64).map(|i| i * 0x9E37 + seq as u64).collect();
            let mut record = Vec::new();
            encode_record(&mut record, seq as u64, &items);
            if version == WAL_VERSION_FNV {
                let checksum = fnv1a_record_checksum(seq as u64, &record[20..]);
                record[12..20].copy_from_slice(&checksum.to_le_bytes());
            }
            out.extend_from_slice(&record);
        }
        out
    }

    #[test]
    fn every_single_bit_flip_in_a_record_is_typed_damage() {
        for version in [WAL_VERSION_FNV, WAL_VERSION] {
            for n in 0..=8 {
                let clean = image(version, &[3, n]);
                let target = (WAL_HEADER + RECORD_OVERHEAD + 24) as usize;
                assert_eq!(scan(&clean).records.len(), 2);
                for byte in target..clean.len() {
                    for bit in 0..8 {
                        let mut flipped = clean.clone();
                        flipped[byte] ^= 1 << bit;
                        let scanned = scan(&flipped);
                        let at = match scanned.damage {
                            Some(WalError::BadChecksum { at })
                            | Some(WalError::BadLength { at, .. })
                            | Some(WalError::Truncated { at }) => at,
                            other => {
                                panic!("v{version}, {n} items, byte {byte} bit {bit}: {other:?}")
                            }
                        };
                        assert_eq!(at, target as u64, "v{version}, {n} items, byte {byte}");
                        assert_eq!(scanned.records.len(), 1);
                        assert_eq!(scanned.valid_len, target as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn the_record_checksum_is_pinned() {
        // Any change to the lanes, constants or fold is a format change that
        // must bump `WAL_VERSION`; it fails here first.  The values were
        // checked against an independent reimplementation.
        let items: Vec<u8> = (1..=6u64).flat_map(u64::to_le_bytes).collect();
        assert_eq!(record_checksum(7, &items), 0xFD72_C5AA_3B58_8E5F);
        assert_eq!(record_checksum(7, &[]), 0x5681_E956_45DE_ECA5);
        assert_eq!(fnv1a_record_checksum(7, &items), 0x37DC_9052_4314_4DE5);
    }

    #[test]
    fn a_version_one_journal_replays_and_is_rewritten_as_version_two() {
        let dir = tmp_dir("v1");
        let old = image(WAL_VERSION_FNV, &[2, 0, 5]);
        // A torn tail on the old journal is truncated by the rewrite too.
        let mut torn = old.clone();
        torn.extend_from_slice(&[9, 9, 9]);
        std::fs::write(wal_path(&dir), &torn).unwrap();

        let (mut wal, recovery) = Wal::open(&dir, 1).unwrap();
        assert_eq!(recovery.skipped, 1);
        assert_eq!(recovery.truncated_bytes, 3);
        assert!(matches!(recovery.damage, Some(WalError::Truncated { .. })));
        let old_records = scan(&old).records;
        assert_eq!(recovery.replay, old_records[1..]);
        assert_eq!(wal.len(), old.len() as u64);
        assert_eq!(wal.records(), 3);

        let faults = FaultPlan::none();
        wal.append(3, &[42], &faults).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let rewritten = std::fs::read(wal_path(&dir)).unwrap();
        assert_eq!(rewritten[4..8], WAL_VERSION.to_le_bytes());
        assert_eq!(rewritten[..old.len()], image(WAL_VERSION, &[2, 0, 5])[..]);
        assert!(!dir.join("wal.fscw.tmp").exists());
        let (_, again) = Wal::open(&dir, 0).unwrap();
        assert!(again.damage.is_none());
        assert_eq!(again.replay.len(), 4);
        assert_eq!(again.replay[..3], old_records[..]);
        assert_eq!(again.replay[3].items, vec![42]);
    }

    #[test]
    fn a_failed_sync_refuses_appends_until_truncate() {
        let dir = tmp_dir("failed-sync");
        let clean = FaultPlan::none();
        let faults = FaultPlan::none().with_failed_sync(2);
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(0, &[1], &clean).unwrap();
        wal.maybe_sync_with(1, &faults).unwrap();
        wal.append(1, &[2], &clean).unwrap();
        assert!(wal.maybe_sync_with(1, &faults).is_err());
        assert!(wal.is_poisoned());
        assert!(
            wal.append(1, &[2], &clean).is_err(),
            "no second copy of seq 1"
        );
        assert_eq!(wal.records(), 2);

        wal.truncate().unwrap();
        assert!(!wal.is_poisoned());
        wal.append(1, &[2], &clean).unwrap();
        wal.maybe_sync_with(1, &faults).unwrap();
        drop(wal);
        let (_, recovery) = Wal::open(&dir, 1).unwrap();
        assert!(recovery.damage.is_none());
        assert_eq!(recovery.replay.len(), 1);
    }

    /// A journal in `dir` whose retired segment holds seqs `0..split` and
    /// whose active segment holds `split..n`, as a rotation leaves it.
    fn rotated(dir: &Path, split: u64, n: u64) -> Wal {
        let faults = FaultPlan::none();
        let mut wal = Wal::create(dir).unwrap();
        for seq in 0..=n {
            if seq == split {
                wal.rotate().unwrap();
                assert_eq!((wal.records(), wal.len()), (0, WAL_HEADER));
            }
            if seq < n {
                wal.append(seq, &[seq, seq + 1], &faults).unwrap();
            }
        }
        wal.sync().unwrap();
        wal
    }

    #[test]
    fn a_rotated_journal_recovers_both_segments_as_one() {
        for cursor in [0, 2, 3, 4, 5] {
            let dir = tmp_dir(&format!("rotated-{cursor}"));
            drop(rotated(&dir, 3, 5));
            assert!(retired_path(&dir).exists());

            let (mut wal, recovery) = Wal::open(&dir, cursor).unwrap();
            assert!(recovery.damage.is_none(), "cursor {cursor}");
            assert_eq!(recovery.truncated_bytes, 0);
            assert_eq!(recovery.skipped, cursor);
            let seqs: Vec<u64> = recovery.replay.iter().map(|r| r.seq).collect();
            assert_eq!(seqs, (cursor..5).collect::<Vec<_>>(), "cursor {cursor}");
            assert!(!retired_path(&dir).exists(), "folded into wal.fscw");
            assert_eq!(wal.records(), 5);
            wal.append(5, &[9], &FaultPlan::none()).unwrap();
            wal.sync().unwrap();
            drop(wal);
            let (_, again) = Wal::open(&dir, 0).unwrap();
            assert!(again.damage.is_none());
            assert_eq!(again.replay.len(), 6);
        }
    }

    #[test]
    fn a_retired_segment_left_by_a_finished_recovery_is_not_replayed_twice() {
        // Recovery rewrites both segments into wal.fscw and then unlinks the
        // retired one; a crash between the two leaves both on disk.
        let dir = tmp_dir("merged-twice");
        drop(rotated(&dir, 2, 4));
        let retired = std::fs::read(retired_path(&dir)).unwrap();
        drop(Wal::open(&dir, 0).unwrap());
        std::fs::write(retired_path(&dir), &retired).unwrap();

        let (wal, recovery) = Wal::open(&dir, 0).unwrap();
        assert!(recovery.damage.is_none());
        let seqs: Vec<u64> = recovery.replay.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(wal.records(), 4);
        assert!(!retired_path(&dir).exists());
    }

    #[test]
    fn a_rotation_cut_short_keeps_the_retired_records() {
        // No fresh segment yet, an empty one, or one whose header was torn.
        for (active, truncated) in [(None, 0), (Some(&[][..]), 0), (Some(&b"FSC"[..]), 3)] {
            let dir = tmp_dir(&format!("cut-rotation-{truncated}-{}", active.is_some()));
            drop(rotated(&dir, 3, 3));
            match active {
                None => std::fs::remove_file(wal_path(&dir)).unwrap(),
                Some(bytes) => std::fs::write(wal_path(&dir), bytes).unwrap(),
            }
            let (_, recovery) = Wal::open(&dir, 0).unwrap();
            assert_eq!(recovery.replay.len(), 3, "{active:?}");
            assert_eq!(recovery.truncated_bytes, truncated, "{active:?}");
            assert_eq!(recovery.damage.is_some(), truncated > 0, "{active:?}");
            assert!(!retired_path(&dir).exists());
            let (_, again) = Wal::open(&dir, 0).unwrap();
            assert!(again.damage.is_none());
            assert_eq!(again.replay.len(), 3);
        }
    }

    #[test]
    fn damage_in_the_retired_segment_strands_the_active_one() {
        // One record stream: a corrupt retired record truncates everything
        // after it, the active segment's records included.
        let dir = tmp_dir("retired-damage");
        drop(rotated(&dir, 2, 4));
        let mut image = std::fs::read(retired_path(&dir)).unwrap();
        let second = (WAL_HEADER + RECORD_OVERHEAD + 16) as usize;
        image[second + RECORD_OVERHEAD as usize] ^= 0x5A;
        std::fs::write(retired_path(&dir), &image).unwrap();
        let active_records = std::fs::metadata(wal_path(&dir)).unwrap().len() - WAL_HEADER;

        let (wal, recovery) = Wal::open(&dir, 0).unwrap();
        assert!(matches!(
            recovery.damage,
            Some(WalError::BadChecksum { at }) if at == second as u64
        ));
        assert_eq!(recovery.replay.len(), 1);
        assert_eq!(
            recovery.truncated_bytes,
            (image.len() - second) as u64 + active_records
        );
        assert_eq!(wal.len(), second as u64);
    }

    #[test]
    fn rotation_syncs_the_retired_tail_and_refuses_a_poisoned_journal() {
        let dir = tmp_dir("rotate-sync");
        let faults = FaultPlan::none();
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(0, &[1], &faults).unwrap();
        assert!(wal.synced_len() < wal.len());
        let retired_len = wal.len();
        wal.rotate().unwrap();
        assert_eq!(
            std::fs::metadata(retired_path(&dir)).unwrap().len(),
            retired_len
        );
        assert_eq!(wal.synced_len(), 0, "the fresh header is not synced yet");
        wal.append(1, &[2], &faults).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.synced_len(), wal.len());

        let failing = FaultPlan::none().with_failed_sync(1);
        wal.append(2, &[3], &faults).unwrap();
        assert!(wal.maybe_sync_with(1, &failing).is_err());
        assert!(wal.rotate().is_err(), "a poisoned journal is never rotated");
        assert_eq!(wal.records(), 2, "its records stay where they are");
        wal.truncate().unwrap();
        wal.rotate().unwrap();
    }
}
