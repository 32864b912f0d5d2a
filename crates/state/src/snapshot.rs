//! Versioned binary checkpoints of summary state and tracker accounting.
//!
//! The paper's central object — a summary whose state changes are scarce — is exactly
//! what makes checkpoint/restore cheap: the bytes that must be persisted are the few
//! words the algorithm actually wrote.  This module provides the wire format shared by
//! every [`Snapshot`](crate::traits::Snapshot) implementation and by the `fsc-engine`
//! shard checkpoints:
//!
//! * a fixed header — magic `FSCS`, a format version, and the algorithm id — so stale
//!   or foreign bytes are rejected with a typed error instead of a panic or a
//!   misinterpreted payload;
//! * [`SnapshotWriter`] / [`SnapshotReader`] — length-checked little-endian
//!   serialization helpers (hand-rolled: the workspace is offline and carries no
//!   serde).  Every reader method returns [`SnapshotError::Truncated`] instead of
//!   panicking on short input, and length prefixes are validated against the remaining
//!   byte count before any allocation, so corrupt input cannot trigger an OOM;
//! * [`TrackerState`] — the complete counter state of a tracker (including the
//!   per-address wear table when present), exported via
//!   [`StateTracker::export_state`](crate::StateTracker::export_state) and
//!   re-imported on restore so that `restore(checkpoint(a))` reproduces not just the
//!   answers but the full [`crate::StateReport`] and wear accounting.

use std::fmt;

use crate::backend::TrackerKind;
use crate::report::StateReport;

/// Leading magic of every checkpoint (`FSCS` = Few-State-Changes Snapshot).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"FSCS";

/// Current format version.  Bumped on any incompatible layout change; readers reject
/// other versions with [`SnapshotError::UnsupportedVersion`].
pub const SNAPSHOT_VERSION: u16 = 1;

/// Typed failure of [`SnapshotReader`] / `Snapshot::restore`.
///
/// Corrupt, truncated, or mismatched input always surfaces as an `Err` of this type —
/// never a panic (pinned by the unit tests below and by `tests/snapshot_laws.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with [`SNAPSHOT_MAGIC`] — not a checkpoint at all.
    BadMagic,
    /// The checkpoint was written by an incompatible format version.
    UnsupportedVersion(u16),
    /// The checkpoint belongs to a different algorithm than the one restoring it.
    WrongAlgorithm {
        /// The algorithm id the caller expected.
        expected: String,
        /// The algorithm id found in the header.
        found: String,
    },
    /// The input ended before the declared payload did.
    Truncated,
    /// A structurally valid read produced a value the algorithm cannot accept
    /// (impossible enum tag, mismatched dimension, inconsistent table size, …).
    Corrupt(&'static str),
    /// Bytes remained after the payload was fully parsed (the count is attached).
    TrailingBytes(usize),
    /// A delta checkpoint was applied to a base it was not encoded against (wrong
    /// length or content), or a time-travel query asked for an epoch before the
    /// chain's base.
    MissingBase,
    /// A delta was appended out of order: its recorded base epoch does not match the
    /// epoch of the chain's current tip.
    OutOfOrderDelta {
        /// The tip epoch the chain expected the delta to be based on.
        expected: u64,
        /// The base epoch the delta was actually encoded against.
        found: u64,
    },
    /// A structurally valid checkpoint was restored *into* a live structure whose
    /// configuration it does not match — e.g. an engine checkpoint with a different
    /// shard count, routing policy, tracker kind, or summary geometry than the
    /// engine performing the failover.  Distinct from [`SnapshotError::Corrupt`]:
    /// the bytes are fine, the *pairing* is wrong.
    ConfigMismatch {
        /// Which configuration axis mismatched (e.g. `"shard count"`).
        what: &'static str,
        /// The receiving structure's value.
        expected: String,
        /// The checkpoint's value.
        found: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot: bad magic (not a checkpoint)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "snapshot: unsupported format version {v}")
            }
            SnapshotError::WrongAlgorithm { expected, found } => {
                write!(
                    f,
                    "snapshot: expected algorithm {expected:?}, found {found:?}"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot: truncated input"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot: corrupt payload ({what})"),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "snapshot: {n} trailing byte(s) after the payload")
            }
            SnapshotError::MissingBase => {
                write!(f, "snapshot: delta does not match the supplied base")
            }
            SnapshotError::OutOfOrderDelta { expected, found } => {
                write!(
                    f,
                    "snapshot: delta based on epoch {found}, chain tip is at epoch {expected}"
                )
            }
            SnapshotError::ConfigMismatch {
                what,
                expected,
                found,
            } => {
                write!(
                    f,
                    "snapshot: checkpoint {what} mismatch (restoring structure has \
                     {expected:?}, checkpoint has {found:?})"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Little-endian checkpoint writer.  Construction writes the versioned header.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a checkpoint for the algorithm identified by `algorithm` (a short stable
    /// id such as `"count_min"`; see `Snapshot::snapshot_id`).
    pub fn new(algorithm: &str) -> Self {
        Self::with_capacity(algorithm, 0)
    }

    /// [`SnapshotWriter::new`] with room for `body` more bytes after the header,
    /// for a caller that knows its size up front and must not regrow the buffer.
    pub fn with_capacity(algorithm: &str, body: usize) -> Self {
        let header = SNAPSHOT_MAGIC.len() + 2 + 8 + algorithm.len();
        let mut w = Self {
            buf: Vec::with_capacity(header + body),
        };
        w.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        w.u16(SNAPSHOT_VERSION);
        w.str(algorithm);
        w
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` (little-endian).
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` (as its two's-complement `u64`).
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// Appends a `usize` (as `u64`, portable across word sizes).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` by bit pattern (exact round trip, NaN included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed byte string (e.g. a nested checkpoint).
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Finishes the checkpoint and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

/// Little-endian checkpoint reader over a byte slice.  All methods are total: short or
/// malformed input returns an error, never panics.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Opens a checkpoint, validating magic, version, and the algorithm id against
    /// `expected_algorithm`.  Returns a reader positioned at the first payload byte.
    pub fn open(bytes: &'a [u8], expected_algorithm: &str) -> Result<Self, SnapshotError> {
        let mut r = Self { bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let found = r.string()?;
        if found != expected_algorithm {
            return Err(SnapshotError::WrongAlgorithm {
                expected: expected_algorithm.to_string(),
                found,
            });
        }
        Ok(r)
    }

    /// The algorithm id stored in a checkpoint header, without committing to restore it
    /// (used for labeling and dispatch).
    pub fn peek_algorithm(bytes: &[u8]) -> Result<String, SnapshotError> {
        let mut r = SnapshotReader { bytes, pos: 0 };
        if r.take(4)? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        r.string()
    }

    /// Opens a reader with **no** header validation — the delta format
    /// ([`crate::delta`]) carries its own magic and parses the shared header fields
    /// itself.
    pub(crate) fn raw(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Crate-internal raw read of `n` bytes (the delta header parser).
    pub(crate) fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(self.u64()? as i64)
    }

    /// Reads a `usize`, rejecting values that do not fit the platform word.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt("usize overflow"))
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`, rejecting tags other than 0/1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool tag")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.len_prefix(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt("non-UTF-8 string"))
    }

    /// Reads a length prefix for elements of `elem_bytes` serialized bytes each,
    /// validating it against the remaining input *before* any allocation (a corrupt
    /// length cannot cause an OOM or a partial read that panics later).
    pub fn len_prefix(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let len = self.usize()?;
        let need = len
            .checked_mul(elem_bytes.max(1))
            .ok_or(SnapshotError::Corrupt("length overflow"))?;
        if need > self.bytes.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        Ok(len)
    }

    /// Reads a length-prefixed `Vec<u64>`.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let len = self.len_prefix(8)?;
        (0..len).map(|_| self.u64()).collect()
    }

    /// Reads a length-prefixed byte string (e.g. a nested checkpoint).
    pub fn byte_slice(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.len_prefix(1)?;
        self.take(len)
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes(self.bytes.len() - self.pos))
        }
    }
}

/// Writes a length-prefixed `&[u64]`.
pub fn write_u64_slice(w: &mut SnapshotWriter, values: &[u64]) {
    w.usize(values.len());
    for &v in values {
        w.u64(v);
    }
}

// ---------------------------------------------------------------------------
// TrackerState — the serializable counter state of a tracker.
// ---------------------------------------------------------------------------

/// The complete counter state of a tracker, sufficient to make a freshly
/// constructed tracker observably identical to the exported one: the same
/// [`StateReport`], the same per-address wear table, the same epoch clock, and the
/// same address-allocation cursor (so writes *after* a restore land on the same
/// tracked addresses as they would have on the original).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackerState {
    /// Tracker kind the state was exported from (restore builds the same kind).
    pub kind: TrackerKind,
    /// Current epoch id (number of stream updates entered).
    pub epochs: u64,
    /// Id of the last epoch counted as a state change (0 = none).
    pub last_change_epoch: u64,
    /// Paper-definition state changes.
    pub state_changes: u64,
    /// Changed word writes.
    pub word_writes: u64,
    /// Redundant word writes.
    pub redundant_writes: u64,
    /// Word reads.
    pub reads: u64,
    /// Currently allocated words.
    pub words_current: usize,
    /// Peak allocated words.
    pub words_peak: usize,
    /// Next free address handed out by `alloc`.
    pub next_addr: usize,
    /// Per-address wear counts (present only with address tracking).
    pub wear: Option<Vec<u64>>,
}

impl TrackerState {
    /// The [`StateReport`] this state reproduces (what `snapshot()` returns after a
    /// faithful import).
    pub fn report(&self) -> StateReport {
        StateReport {
            state_changes: self.state_changes,
            word_writes: self.word_writes,
            redundant_writes: self.redundant_writes,
            reads: self.reads,
            epochs: self.epochs,
            words_current: self.words_current,
            words_peak: self.words_peak,
            max_cell_writes: self
                .wear
                .as_ref()
                .map(|w| w.iter().copied().max().unwrap_or(0)),
            tracked_cells: self.wear.as_ref().map(|w| w.len()),
            total_addr_writes: self.wear.as_ref().map(|w| w.iter().sum()),
        }
    }

    /// Serializes the state into a checkpoint.
    pub fn write_to(&self, w: &mut SnapshotWriter) {
        w.u8(self.kind.tag());
        w.u64(self.epochs);
        w.u64(self.last_change_epoch);
        w.u64(self.state_changes);
        w.u64(self.word_writes);
        w.u64(self.redundant_writes);
        w.u64(self.reads);
        w.usize(self.words_current);
        w.usize(self.words_peak);
        w.usize(self.next_addr);
        match &self.wear {
            Some(wear) => {
                w.bool(true);
                write_u64_slice(w, wear);
            }
            None => w.bool(false),
        }
    }

    /// Deserializes a state written by [`TrackerState::write_to`].
    pub fn read_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let kind =
            TrackerKind::from_tag(r.u8()?).ok_or(SnapshotError::Corrupt("tracker kind tag"))?;
        let state = Self {
            kind,
            epochs: r.u64()?,
            last_change_epoch: r.u64()?,
            state_changes: r.u64()?,
            word_writes: r.u64()?,
            redundant_writes: r.u64()?,
            reads: r.u64()?,
            words_current: r.usize()?,
            words_peak: r.usize()?,
            next_addr: r.usize()?,
            wear: if r.bool()? { Some(r.u64_vec()?) } else { None },
        };
        if state.wear.is_some() != (kind == TrackerKind::FullAddressTracked) {
            return Err(SnapshotError::Corrupt(
                "wear table presence vs tracker kind",
            ));
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_scalar_shape() {
        let mut w = SnapshotWriter::new("unit");
        w.u8(7);
        w.u16(65_000);
        w.u32(4_000_000_000);
        w.u64(u64::MAX);
        w.i64(-42);
        w.usize(123);
        w.f64(-0.125);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("hello");
        write_u64_slice(&mut w, &[1, 2, 3]);
        let bytes = w.finish();

        let mut r = SnapshotReader::open(&bytes, "unit").expect("open");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65_000);
        assert_eq!(r.u32().unwrap(), 4_000_000_000);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 123);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.string().unwrap(), "hello");
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
        r.finish().expect("fully consumed");
    }

    #[test]
    fn header_validation_is_typed() {
        assert_eq!(
            SnapshotReader::open(b"", "x").unwrap_err(),
            SnapshotError::Truncated
        );
        assert_eq!(
            SnapshotReader::open(b"NOPE\x01\x00\x00\x00", "x").unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut versioned = SNAPSHOT_MAGIC.to_vec();
        versioned.extend_from_slice(&99u16.to_le_bytes());
        assert_eq!(
            SnapshotReader::open(&versioned, "x").unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
        let bytes = SnapshotWriter::new("count_min").finish();
        match SnapshotReader::open(&bytes, "ams").unwrap_err() {
            SnapshotError::WrongAlgorithm { expected, found } => {
                assert_eq!(expected, "ams");
                assert_eq!(found, "count_min");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(SnapshotReader::peek_algorithm(&bytes).unwrap(), "count_min");
    }

    #[test]
    fn every_truncation_point_errors_instead_of_panicking() {
        let mut w = SnapshotWriter::new("unit");
        w.u64(5);
        w.str("payload");
        write_u64_slice(&mut w, &[9, 9, 9]);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let short = &bytes[..cut];
            // Either the header or a later read must fail with a typed error.
            let outcome = SnapshotReader::open(short, "unit").and_then(|mut r| {
                r.u64()?;
                r.string()?;
                r.u64_vec()?;
                r.finish()
            });
            assert!(outcome.is_err(), "cut at {cut} unexpectedly parsed");
        }
    }

    #[test]
    fn corrupt_length_prefixes_cannot_allocate() {
        // A length prefix claiming 2^60 elements is rejected before allocation.
        let mut w = SnapshotWriter::new("unit");
        w.u64(1 << 60);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes, "unit").unwrap();
        assert_eq!(r.u64_vec().unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let mut w = SnapshotWriter::new("unit");
        w.u64(1);
        let mut bytes = w.finish();
        bytes.push(0xAB);
        let mut r = SnapshotReader::open(&bytes, "unit").unwrap();
        r.u64().unwrap();
        assert_eq!(r.finish().unwrap_err(), SnapshotError::TrailingBytes(1));
    }

    #[test]
    fn tracker_state_round_trips_with_and_without_wear() {
        for wear in [None, Some(vec![0, 3, 1, 7])] {
            let state = TrackerState {
                kind: if wear.is_some() {
                    TrackerKind::FullAddressTracked
                } else {
                    TrackerKind::Full
                },
                epochs: 10,
                last_change_epoch: 9,
                state_changes: 4,
                word_writes: 11,
                redundant_writes: 2,
                reads: 30,
                words_current: 5,
                words_peak: 8,
                next_addr: 12,
                wear: wear.clone(),
            };
            let mut w = SnapshotWriter::new("t");
            state.write_to(&mut w);
            let bytes = w.finish();
            let mut r = SnapshotReader::open(&bytes, "t").unwrap();
            let back = TrackerState::read_from(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, state);
            assert_eq!(back.report().epochs, 10);
            assert_eq!(
                back.report().max_cell_writes,
                wear.map(|_| 7),
                "report derives wear aggregates"
            );
        }
    }

    #[test]
    fn mismatched_wear_presence_is_corrupt() {
        let state = TrackerState {
            kind: TrackerKind::Full,
            epochs: 0,
            last_change_epoch: 0,
            state_changes: 0,
            word_writes: 0,
            redundant_writes: 0,
            reads: 0,
            words_current: 0,
            words_peak: 0,
            next_addr: 0,
            wear: Some(vec![1]),
        };
        let mut w = SnapshotWriter::new("t");
        state.write_to(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes, "t").unwrap();
        assert!(matches!(
            TrackerState::read_from(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
