//! Sharded parallel execution: split a stream across shards, run a mergeable summary
//! per shard on its own thread, merge the summaries, and combine the accounting.
//!
//! Also provides [`parallel_map`], the generic work-queue used by `run_all --threads N`
//! to run independent experiment cells concurrently, and [`shard_seed`], the canonical
//! derivation of per-shard RNG seeds from a master seed.
//!
//! Everything here is plain `std::thread::scope` — no external dependencies.  Shards
//! work because every algorithm built on the tracked substrate is `Send` (the tracker
//! is internally synchronised), and each shard owns its *own* tracker, so the
//! sequential per-tracker epoch discipline is preserved.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fsc_state::{Mergeable, StateReport, StreamAlgorithm};

/// Derives the RNG seed for `shard` from `master`: the XOR of the master seed with the
/// shard index, passed through a SplitMix64 finalizer so that adjacent shard indices do
/// not yield correlated low bits.  Deterministic: the same `(master, shard)` pair always
/// produces the same seed, so sharded runs reproduce exactly (see `tests/determinism.rs`).
pub fn shard_seed(master: u64, shard: usize) -> u64 {
    let mut z = (master ^ shard as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The result of a sharded run: the merged summary plus per-shard and combined
/// accounting.
#[derive(Debug)]
pub struct ShardedOutcome<A> {
    /// The summary after merging every shard (answers queries about the whole stream).
    pub merged: A,
    /// Pre-merge accounting snapshot of each shard, in shard order.
    pub shard_reports: Vec<StateReport>,
    /// The [`StateReport::sharded`] combination of all shard reports: total epochs,
    /// state changes, and space across shards, excluding the merge itself (the merge
    /// opens one extra epoch on shard 0's tracker; see [`Mergeable`]).
    pub combined_report: StateReport,
}

/// Splits `stream` into exactly `shards` contiguous chunks (sizes differing by at most
/// one; trailing chunks are empty when the stream is shorter than the shard count),
/// runs `make(shard_index)`'s summary over each chunk on its own scoped thread, then
/// merges all shard summaries into shard 0's.
///
/// `make` receives the shard index so it can derive per-shard randomness via
/// [`shard_seed`].  Summaries that must merge exactly (linear sketches) should instead
/// use the *same* seed for every shard — mergeability of sketches requires identical
/// hash functions.
///
/// With one shard this degenerates to a plain `process_batch` run on the calling
/// thread.
pub fn run_sharded<A, F>(stream: &[u64], shards: usize, make: F) -> ShardedOutcome<A>
where
    A: StreamAlgorithm + Mergeable + Send,
    F: Fn(usize) -> A + Sync,
{
    assert!(shards >= 1, "need at least one shard");
    // Balanced contiguous split into exactly `shards` chunks: the first
    // `len % shards` chunks carry one extra item (chunks may be empty when the
    // stream is shorter than the shard count), so every shard index — and its
    // derived seed — is exercised and sizes differ by at most one.
    let (base, extra) = (stream.len() / shards, stream.len() % shards);
    let mut chunks: Vec<&[u64]> = Vec::with_capacity(shards);
    let mut offset = 0;
    for shard in 0..shards {
        let len = base + usize::from(shard < extra);
        chunks.push(&stream[offset..offset + len]);
        offset += len;
    }
    let mut summaries: Vec<A> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .enumerate()
            .map(|(index, chunk)| {
                let make = &make;
                scope.spawn(move || {
                    let mut summary = make(index);
                    summary.process_batch(chunk);
                    summary
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    let shard_reports: Vec<StateReport> = summaries.iter().map(|s| s.report()).collect();
    let combined_report = shard_reports
        .iter()
        .skip(1)
        .fold(shard_reports[0], |acc, r| acc.sharded(r));
    let mut merged = summaries.remove(0);
    for other in &summaries {
        merged.merge_from(other);
    }
    ShardedOutcome {
        merged,
        shard_reports,
        combined_report,
    }
}

/// Applies `f` to every item on up to `threads` worker threads, preserving input order
/// in the output.  Work is claimed dynamically (an atomic cursor over the item list),
/// so heterogeneous item durations — experiment cells — still balance.
///
/// With `threads <= 1` this runs inline on the calling thread with no thread or lock
/// overhead, so callers can pass the user's `--threads` value straight through.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each slot is claimed exactly once");
                let result = f(i, item);
                *results[i].lock().unwrap() = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("worker stored a result for every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_baselines::{CountMin, MisraGries};
    use fsc_state::FrequencyEstimator;
    use fsc_streamgen::zipf::zipf_stream;

    #[test]
    fn shard_seeds_are_deterministic_and_distinct() {
        let seeds: Vec<u64> = (0..16).map(|s| shard_seed(42, s)).collect();
        let again: Vec<u64> = (0..16).map(|s| shard_seed(42, s)).collect();
        assert_eq!(seeds, again);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "shard seeds must not collide");
        assert_ne!(shard_seed(42, 0), shard_seed(43, 0));
    }

    #[test]
    fn sharded_count_min_matches_the_serial_run() {
        let stream = zipf_stream(1 << 10, 10_000, 1.1, 3);
        let mut serial = CountMin::new(128, 4, 7);
        serial.process_stream(&stream);
        let outcome = run_sharded(&stream, 4, |_| CountMin::new(128, 4, 7));
        for item in 0..64u64 {
            assert_eq!(outcome.merged.estimate(item), serial.estimate(item));
        }
        assert_eq!(outcome.shard_reports.len(), 4);
        assert_eq!(outcome.combined_report.epochs as usize, stream.len());
    }

    #[test]
    fn one_shard_degenerates_to_a_serial_run() {
        let stream = zipf_stream(256, 2_000, 1.0, 5);
        let outcome = run_sharded(&stream, 1, |_| MisraGries::new(16));
        let mut serial = MisraGries::new(16);
        serial.process_stream(&stream);
        // Snapshot before querying: estimates charge reads to the serial tracker.
        let serial_report = serial.report();
        let mut merged_items = outcome.merged.tracked_items();
        merged_items.sort_unstable();
        let mut serial_items = serial.tracked_items();
        serial_items.sort_unstable();
        assert_eq!(merged_items, serial_items);
        for &item in &serial_items {
            assert_eq!(outcome.merged.estimate(item), serial.estimate(item));
        }
        assert_eq!(outcome.combined_report, serial_report);
    }

    #[test]
    fn every_shard_index_is_exercised_even_on_short_streams() {
        // 9 items over 4 shards: balanced split 3/2/2/2 — four shards, four reports.
        let stream: Vec<u64> = (0..9).collect();
        let outcome = run_sharded(&stream, 4, |_| MisraGries::new(4));
        assert_eq!(outcome.shard_reports.len(), 4);
        assert_eq!(outcome.combined_report.epochs, 9);
        // 2 items over 4 shards: trailing shards get empty chunks but still exist.
        let outcome = run_sharded(&stream[..2], 4, |_| MisraGries::new(4));
        assert_eq!(outcome.shard_reports.len(), 4);
        assert_eq!(outcome.combined_report.epochs, 2);
        // Empty stream: still one summary per shard, zero epochs.
        let outcome = run_sharded(&[], 3, |_| MisraGries::new(4));
        assert_eq!(outcome.shard_reports.len(), 3);
        assert_eq!(outcome.combined_report.epochs, 0);
    }

    #[test]
    fn parallel_map_preserves_order_and_runs_everything() {
        let squares = parallel_map((0..100u64).collect(), 8, |_, x| x * x);
        assert_eq!(squares, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
        let inline = parallel_map(vec![1, 2, 3], 1, |i, x| (i, x));
        assert_eq!(inline, vec![(0, 1), (1, 2), (2, 3)]);
        assert!(parallel_map(Vec::<u64>::new(), 4, |_, x| x).is_empty());
    }
}
