//! Config-driven workload scenarios.
//!
//! A [`Scenario`] is a *literal description* of a workload — segments of traffic
//! drawn from the `fsc-streamgen` generators, plus an optional checkpoint cadence —
//! that synthesizes its stream deterministically from its seed.  Adding a workload
//! to an experiment means writing a config value, not a new binary:
//!
//! ```
//! use fsc_engine::{CheckpointMode, Scenario, Segment, Workload};
//!
//! let scenario = Scenario {
//!     name: "drift-then-burst".into(),
//!     universe: 1 << 12,
//!     seed: 7,
//!     segments: vec![
//!         Segment { workload: Workload::Zipf { theta: 1.1 }, updates: 10_000 },
//!         Segment { workload: Workload::Drift { theta: 1.1, step: 512 }, updates: 10_000 },
//!         Segment { workload: Workload::Bursty { theta: 1.2, burst: 32 }, updates: 5_000 },
//!     ],
//!     checkpoint_every: Some(8_192),
//!     checkpoint_mode: CheckpointMode::Delta { compact_every: 4 },
//!     batch: 1_024,
//! };
//! let stream = scenario.stream();
//! assert_eq!(stream.len(), scenario.total_updates());
//! assert_eq!(stream, scenario.stream(), "synthesis is deterministic");
//! ```

use fsc_streamgen::uniform::uniform_stream;
use fsc_streamgen::zipf::zipf_stream;

/// One segment's traffic shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Zipf(θ)-distributed items — steady skewed traffic.
    Zipf {
        /// Skew exponent.
        theta: f64,
    },
    /// Uniform items over the universe — the heavy-hitter-free stress case.
    Uniform,
    /// Zipf(θ) traffic sorted ascending — maximal run structure (the adversarial
    /// extreme for eviction policies that key on recency).
    Sorted {
        /// Skew exponent of the underlying draw.
        theta: f64,
    },
    /// Zipf(θ) traffic where each drawn item arrives as a burst of `burst`
    /// consecutive copies — flash-crowd traffic.
    Bursty {
        /// Skew exponent of the underlying draw.
        theta: f64,
        /// Copies per drawn item (≥ 1).
        burst: usize,
    },
    /// Zipf(θ) traffic whose item identities are rotated by `segment_index · step`
    /// within the universe — the hot set drifts between segments, so summaries
    /// tuned to a static hot set must adapt.
    Drift {
        /// Skew exponent.
        theta: f64,
        /// Identity rotation per segment.
        step: u64,
    },
}

/// How a scenario's checkpoint cadence persists the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointMode {
    /// Every cadence point serializes and persists the full engine checkpoint.
    #[default]
    Full,
    /// Cadence points persist `FSCD` deltas into a
    /// [`fsc_state::delta::CheckpointChain`]: the first checkpoint is the base, each
    /// later one stores only the bytes that changed since the previous — the
    /// persistence cost the paper argues should track *state changes*, not summary
    /// size.
    Delta {
        /// Fold the chain into a fresh base after this many deltas (`0` = never):
        /// bounds both replay length on failover and how far back time-travel
        /// queries can reach.
        compact_every: usize,
    },
}

/// A contiguous stretch of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Traffic shape of this segment.
    pub workload: Workload,
    /// Number of stream updates the segment contributes.
    pub updates: usize,
}

/// A config-driven workload: named segments over one universe, a deterministic
/// seed, and the operational parameters of an engine run (batch size, checkpoint
/// cadence).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Display name (experiment tables, logs).
    pub name: String,
    /// Universe size `n` shared by all segments.
    pub universe: usize,
    /// Master seed; segment `i` derives its generator seed as `seed + i`.
    pub seed: u64,
    /// The traffic segments, in arrival order.
    pub segments: Vec<Segment>,
    /// Checkpoint the engine every this many ingested updates (`None` = never).
    pub checkpoint_every: Option<usize>,
    /// How cadence checkpoints are persisted: full serializations or deltas chained
    /// off a base (see [`CheckpointMode`]).
    pub checkpoint_mode: CheckpointMode,
    /// Ingest batch size the runner feeds the engine with.
    pub batch: usize,
}

impl Scenario {
    /// Total updates across all segments.
    pub fn total_updates(&self) -> usize {
        self.segments.iter().map(|s| s.updates).sum()
    }

    /// Synthesizes the full stream deterministically from the scenario's seed.
    pub fn stream(&self) -> Vec<u64> {
        assert!(self.universe >= 1, "scenario needs a non-empty universe");
        let mut out = Vec::with_capacity(self.total_updates());
        for (index, segment) in self.segments.iter().enumerate() {
            let seed = self.seed.wrapping_add(index as u64);
            let n = self.universe;
            let m = segment.updates;
            match segment.workload {
                Workload::Zipf { theta } => out.extend(zipf_stream(n, m, theta, seed)),
                Workload::Uniform => out.extend(uniform_stream(n, m, seed)),
                Workload::Sorted { theta } => {
                    let mut items = zipf_stream(n, m, theta, seed);
                    items.sort_unstable();
                    out.extend(items);
                }
                Workload::Bursty { theta, burst } => {
                    let burst = burst.max(1);
                    let draws = zipf_stream(n, m.div_ceil(burst), theta, seed);
                    out.extend(
                        draws
                            .into_iter()
                            .flat_map(|item| std::iter::repeat_n(item, burst))
                            .take(m),
                    );
                }
                Workload::Drift { theta, step } => {
                    let shift = step.wrapping_mul(index as u64) % n as u64;
                    out.extend(
                        zipf_stream(n, m, theta, seed)
                            .into_iter()
                            .map(|item| (item + shift) % n as u64),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(segments: Vec<Segment>) -> Scenario {
        Scenario {
            name: "test".into(),
            universe: 64,
            seed: 3,
            segments,
            checkpoint_every: None,
            checkpoint_mode: CheckpointMode::default(),
            batch: 16,
        }
    }

    #[test]
    fn every_workload_synthesizes_its_exact_length() {
        for workload in [
            Workload::Zipf { theta: 1.1 },
            Workload::Uniform,
            Workload::Sorted { theta: 1.0 },
            Workload::Bursty {
                theta: 1.0,
                burst: 7,
            },
            Workload::Drift {
                theta: 1.0,
                step: 5,
            },
        ] {
            let s = scenario(vec![Segment {
                workload,
                updates: 1_000,
            }]);
            let stream = s.stream();
            assert_eq!(stream.len(), 1_000, "{workload:?}");
            assert!(
                stream.iter().all(|&x| x < 64),
                "{workload:?} stays in universe"
            );
            assert_eq!(stream, s.stream(), "{workload:?} is deterministic");
        }
    }

    #[test]
    fn sorted_segments_are_sorted_and_bursts_repeat() {
        let s = scenario(vec![
            Segment {
                workload: Workload::Sorted { theta: 1.0 },
                updates: 500,
            },
            Segment {
                workload: Workload::Bursty {
                    theta: 1.0,
                    burst: 10,
                },
                updates: 500,
            },
        ]);
        let stream = s.stream();
        assert_eq!(s.total_updates(), 1_000);
        assert!(stream[..500].windows(2).all(|w| w[0] <= w[1]));
        // Bursts: the second segment is runs of length 10 (except possibly the tail).
        let bursty = &stream[500..];
        assert!(bursty.chunks(10).all(|c| c.iter().all(|&x| x == c[0])));
    }

    #[test]
    fn drift_rotates_identities_between_segments() {
        let updates = 400;
        let drift = Workload::Drift {
            theta: 1.3,
            step: 13,
        };
        let s = scenario(vec![
            Segment {
                workload: drift,
                updates,
            },
            Segment {
                workload: drift,
                updates,
            },
        ]);
        let stream = s.stream();
        // Same θ and universe, different hot sets: the most frequent item of the two
        // segments differs by the rotation.
        let mode = |xs: &[u64]| {
            let mut counts = [0u32; 64];
            for &x in xs {
                counts[x as usize] += 1;
            }
            (0..64).max_by_key(|&i| counts[i]).unwrap() as u64
        };
        let first = mode(&stream[..updates]);
        let second = mode(&stream[updates..]);
        assert_ne!(first, second, "hot set must move between segments");
    }
}
