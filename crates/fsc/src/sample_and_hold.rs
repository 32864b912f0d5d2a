//! `SampleAndHold` — Algorithm 1 of the paper.
//!
//! The subroutine that makes few state changes possible: items are *sampled* into a
//! small reservoir with probability `ϱ ≈ n^{1−1/p}·polylog/(ε·m)`, and a (Morris)
//! counter is *held* for an item only when it arrives again while it sits in the
//! reservoir.  Heavy items are caught early and their frequencies counted almost
//! completely; light items rarely acquire counters.  When too many counters exist, the
//! paper's time-bucketed maintenance keeps, within every age group `[2^z, 2^{z+1})`,
//! only the half with the largest approximate counts — the rule that defeats the
//! Section 1.4 counterexample on which globally-smallest-counter eviction fails.
//!
//! Deviations of the practical profile (all documented in `DESIGN.md`):
//!
//! * the counter budget is the deterministic `4κ` instead of the randomised
//!   `Uni[200pκ log²(nm), 202pκ log²(nm)]` (the randomisation is only needed for the
//!   worst-case proof of Lemma 2.1);
//! * an item sitting in the reservoir counts as one implicit occurrence, so
//!   frequency-one items surviving aggressive universe subsampling are still visible to
//!   the `F_p` estimator (the paper implicitly assumes the same when it credits the
//!   sampled occurrence);
//! * the stream position used for age bucketing is the update index supplied by the
//!   harness (the paper likewise indexes updates by `t` without charging for a clock).

use std::num::NonZeroU32;

use fsc_counters::fastmap::{fast_map, FastMap};
use fsc_counters::morris::{self, AcceptanceTable};
use fsc_state::snapshot::TrackerState;
use fsc_state::{
    impl_queryable, FrequencyEstimator, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
    StateTracker, StreamAlgorithm, TrackedVec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::params::Params;

/// Stable checkpoint-header id of [`SampleAndHold`].
const SNAPSHOT_ID: &str = "sample_and_hold";

/// A held per-item Morris counter, inline: the register, its cached acceptance
/// probability, the tracked address of the register word, and the creation time.
///
/// The accounting is exactly that of a [`fsc_counters::MorrisCounter`] over a
/// `TrackedCell` — one allocated word with an initialisation write, a read plus a
/// changed write per accepted increment, a read per rejected one, the word released
/// when the counter drops — charged through the owning [`SampleAndHold`]'s tracker
/// handle instead of a tracker clone per counter.  A held counter always counted the
/// occurrence that created it, so its register is never 0.
#[derive(Debug, Clone)]
struct HeldCounter {
    register: NonZeroU32,
    /// `(1+a)^{-register}`, refreshed from the owner's [`AcceptanceTable`] whenever
    /// the register advances.
    accept_p: f64,
    addr: usize,
    created_at: u64,
}

impl HeldCounter {
    /// Morris estimate of the occurrences counted since the hold, at growth `a`.
    fn estimate(&self, a: f64) -> f64 {
        morris::estimate(a, self.register.get() as u64)
    }
}

/// The merged per-item slot: an item known to the summary is in the reservoir
/// (`reservoir_slots > 0`), holds a Morris counter (`held`), or both.
///
/// Keeping one table instead of a counter map plus a reservoir mirror halves the
/// hash probes of the dominant "unknown item" path (one miss instead of two) — the
/// single most important cost inside `FullSampleAndHold` and `FpEstimator`, which
/// run `O(log)` copies of this algorithm per update.  The table is untracked
/// (a performance aid, like the mirror it replaces); the tracked read charges still
/// follow the per-item path's logical probes of the counter table and reservoir.
#[derive(Debug, Clone, Default)]
struct ItemSlot {
    held: Option<HeldCounter>,
    /// Number of reservoir slots currently holding this item.
    reservoir_slots: u32,
}

// Every update of every copy probes a table of these slots (one copy per level
// and repetition of the ensembles, 69 at the benchmark's size); keep it compact.
const _: () = assert!(std::mem::size_of::<ItemSlot>() <= 48);

/// Words charged for the key and creation-time metadata of a held counter
/// (the Morris register charges its own word).
const HELD_METADATA_WORDS: usize = 2;

/// Algorithm 1: reservoir sampling plus held Morris counters with time-bucketed
/// maintenance.
#[derive(Debug)]
pub struct SampleAndHold {
    params: Params,
    tracker: StateTracker,
    rng: StdRng,
    reservoir: TrackedVec<u64>,
    /// Untracked merged view of the summary keyed by item: reservoir membership
    /// counts and held Morris counters in one probe (see [`ItemSlot`]).  Invariant:
    /// an entry exists iff it is held or occupies ≥ 1 reservoir slot.
    items: FastMap<u64, ItemSlot>,
    /// Number of entries currently holding a Morris counter (`items` entries with
    /// `held.is_some()`), maintained incrementally.
    held_len: usize,
    /// Untracked memo of the held counters' acceptance probabilities (a performance
    /// aid, like `items`): an accepted increment reads its next probability here
    /// instead of evaluating `powi`.
    accept: AcceptanceTable,
    /// Slots that have never been written; preferred over random eviction so that a
    /// lightly-loaded reservoir retains every sampled item (practical deviation noted
    /// in the module docs — the paper always evicts a uniformly random slot).
    free_slots: Vec<usize>,
    counter_budget: usize,
    sample_prob: f64,
    name: String,
}

/// Sentinel marking an empty reservoir slot.
const EMPTY_SLOT: u64 = u64::MAX;

/// Items per block of the leveled-ensemble batch kernels: large enough to amortise
/// the per-block bookkeeping, small enough that the level scratch stays
/// cache-resident.
pub(crate) const BATCH_BLOCK: usize = 1024;

/// The shared blocked batch kernel of the leveled ensembles (`FullSampleAndHold`'s
/// stream-subsampling levels, `FpEstimator`'s universe-subsampling levels).
///
/// Per block, `fill_levels` precomputes the deepest level of every
/// `(item, repetition)` pair — in `(item, repetition)` order, so an ensemble whose
/// level decision consumes its own rng draws them in exactly the per-item sequence —
/// then the updates dispatch into the per-level `SampleAndHold` copies inside
/// per-item epochs, with all logical read charges accumulated (both the ensemble's
/// own, via the accumulator handed to `fill_levels`, and the copies') and flushed
/// with one tracker call per batch.  Each copy still sees its substream in stream
/// order, so every observable matches the per-item path — the batch-law tests pin
/// this for both ensembles.
///
/// `scratch` is the block-level buffer the deepest-level table is built in — owned
/// by the calling ensemble and allocated once at construction, so repeated
/// `process_batch` calls reuse one allocation instead of growing a fresh vector each
/// call.  Contents on entry are irrelevant; the kernel clears it per block.
pub(crate) fn process_batch_leveled(
    tracker: &StateTracker,
    instances: &mut [Vec<SampleAndHold>],
    items: &[u64],
    scratch: &mut Vec<u16>,
    mut fill_levels: impl FnMut(&[u64], &mut Vec<u16>, &mut u64),
) {
    let first = tracker.begin_epochs(items.len() as u64);
    let reps = instances.len();
    let mut reads = 0u64;
    let deepest = scratch;
    let mut offset = 0u64;
    for block in items.chunks(BATCH_BLOCK) {
        deepest.clear();
        fill_levels(block, deepest, &mut reads);
        for (i, &item) in block.iter().enumerate() {
            tracker.enter_epoch(first + offset + i as u64);
            for (r, row) in instances.iter_mut().enumerate() {
                let d = deepest[i * reps + r] as usize;
                for inst in row.iter_mut().take(d + 1) {
                    inst.process_item_inner(item, &mut reads);
                }
            }
        }
        offset += block.len() as u64;
    }
    tracker.record_reads(reads);
}

impl SampleAndHold {
    /// Creates an instance that shares `tracker` with an enclosing algorithm and is
    /// sized for a (sub)stream of about `substream_len_hint` updates.
    pub fn new(
        params: &Params,
        substream_len_hint: usize,
        tracker: &StateTracker,
        seed: u64,
    ) -> Self {
        let substream_len_hint = substream_len_hint.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let kappa = params.kappa(substream_len_hint);
        let counter_budget = params.counter_budget(substream_len_hint, rng.gen());
        let sample_prob = params.sample_prob(substream_len_hint);
        let reservoir = TrackedVec::filled(tracker, kappa, EMPTY_SLOT);
        Self {
            name: format!("SampleAndHold(p={}, eps={})", params.p, params.eps),
            params: params.clone(),
            tracker: tracker.clone(),
            rng,
            reservoir,
            items: fast_map(),
            held_len: 0,
            accept: AcceptanceTable::new(params.morris_growth()),
            free_slots: (0..kappa).rev().collect(),
            counter_budget,
            sample_prob,
        }
    }

    /// Creates a standalone instance with its own tracker (of the backend kind selected
    /// by [`Params::tracker`]), sized from [`Params::stream_len_hint`].
    pub fn standalone(params: &Params) -> Self {
        let tracker = params.make_tracker();
        let hint = params.stream_len_hint;
        let seed = params.seed;
        Self::new(params, hint, &tracker, seed)
    }

    /// Per-update sampling probability `ϱ` in use.
    pub fn sample_prob(&self) -> f64 {
        self.sample_prob
    }

    /// Number of reservoir slots `κ`.
    pub fn reservoir_slots(&self) -> usize {
        self.reservoir.len()
    }

    /// Counter budget `k` that triggers maintenance.
    pub fn counter_budget(&self) -> usize {
        self.counter_budget
    }

    /// Number of currently held counters.
    pub fn held_counters(&self) -> usize {
        self.held_len
    }

    /// Whether `item` currently holds a Morris counter (untracked; tests/reporting).
    pub fn holds_counter(&self, item: u64) -> bool {
        self.items.get(&item).is_some_and(|s| s.held.is_some())
    }

    fn now(&self) -> u64 {
        self.tracker.epochs()
    }

    fn hold_counter(&mut self, item: u64, reads: &mut u64) {
        // The register word: allocated and initialised to 0 ...
        let addr = self.tracker.alloc(1).start;
        self.tracker.record_write(Some(addr), true);
        // ... then the occurrence that triggered the hold is counted.  Its draw is
        // accepted with probability (1+a)^0 = 1 but still consumed.
        let _ = self.rng.gen::<f64>();
        *reads += 1;
        self.tracker.record_write(Some(addr), true);
        self.tracker.alloc(HELD_METADATA_WORDS);
        self.tracker.record_write(None, true);
        let held = HeldCounter {
            register: NonZeroU32::MIN,
            accept_p: self.accept.at(1),
            addr,
            created_at: self.now(),
        };
        self.items.entry(item).or_default().held = Some(held);
        self.held_len += 1;
        if self.held_len > self.counter_budget {
            self.maintain();
        }
    }

    /// Time-bucketed maintenance (Algorithm 1, lines 19–21): within each age bucket
    /// `[2^z, 2^{z+1})`, retain the half of the counters with the largest approximate
    /// counts and drop the rest.
    fn maintain(&mut self) {
        let now = self.now();
        self.tracker.record_reads(self.held_len as u64);

        let mut buckets: FastMap<u32, Vec<(u64, f64)>> = fast_map();
        for (&item, slot) in &self.items {
            if let Some(held) = &slot.held {
                let age = now.saturating_sub(held.created_at) + 1;
                let z = 63 - age.leading_zeros(); // floor(log2(age))
                let estimate = held.estimate(self.accept.growth());
                buckets.entry(z).or_default().push((item, estimate));
            }
        }

        let mut to_remove: Vec<u64> = Vec::new();
        for (_, mut members) in buckets {
            members.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let keep = members.len().div_ceil(2);
            for &(item, _) in &members[keep..] {
                to_remove.push(item);
            }
        }
        for item in to_remove {
            let slot = self
                .items
                .get_mut(&item)
                .expect("held item is in the table");
            slot.held = None;
            self.held_len -= 1;
            if slot.reservoir_slots == 0 {
                self.items.remove(&item);
            }
            // The register word, then the metadata words.
            self.tracker.dealloc(1);
            self.tracker.dealloc(HELD_METADATA_WORDS);
            self.tracker.record_write(None, true);
        }
    }

    /// The per-update body, with read charges accumulated into `reads` instead of
    /// being dispatched to the tracker one at a time.
    ///
    /// [`StreamAlgorithm::process_item`] flushes after one item; the batch kernels of
    /// this type and of the enclosing ensembles (`FullSampleAndHold`, `FpEstimator`)
    /// flush once per batch.  Only the read *total* is deferred — writes, epochs, and
    /// state-change claims go to the tracker at their natural points, so the
    /// accounting is observably identical (reads are a single aggregate counter).
    #[inline]
    pub(crate) fn process_item_inner(&mut self, item: u64, reads: &mut u64) {
        // One physical probe of the merged table resolves both logical lookups of
        // the algorithm; the read charges still follow the logical path (counter
        // table, then — for unheld items — the reservoir).
        *reads += 1;
        match self.items.get_mut(&item) {
            // 1. Already held: update its Morris counter (a state change only when
            //    the probabilistic register advances).  Accepted or not, the
            //    increment reads the register.
            Some(ItemSlot {
                held: Some(held), ..
            }) => {
                *reads += 1;
                if self.rng.gen::<f64>() < held.accept_p {
                    self.tracker.record_write(Some(held.addr), true);
                    held.register = held
                        .register
                        .checked_add(1)
                        .expect("Morris register overflow");
                    held.accept_p = self.accept.at(held.register.get() as u64);
                }
            }
            // 2. In the reservoir: start holding a counter for it.
            Some(_) => {
                *reads += 1;
                self.hold_counter(item, reads);
            }
            // 3. Otherwise: sample it into the reservoir with probability ϱ.
            None => {
                *reads += 1;
                if self.rng.gen::<f64>() < self.sample_prob {
                    self.sample_into_reservoir(item);
                }
            }
        }
    }

    fn sample_into_reservoir(&mut self, item: u64) {
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None => self.rng.gen_range(0..self.reservoir.len()),
        };
        let old = *self.reservoir.peek(slot);
        if self.reservoir.set(slot, item) {
            if old != EMPTY_SLOT {
                if let Some(entry) = self.items.get_mut(&old) {
                    entry.reservoir_slots -= 1;
                    if entry.reservoir_slots == 0 && entry.held.is_none() {
                        self.items.remove(&old);
                    }
                }
            }
            self.items.entry(item).or_default().reservoir_slots += 1;
        }
    }

    /// Serializes the dynamic (post-construction) state: the live rng, the derived
    /// budgets, the reservoir contents, the free-slot stack, and the merged item
    /// table including each held Morris counter's register, creation time, and
    /// tracked register address (held counters are allocated mid-stream, so their
    /// addresses cannot be re-derived by reconstruction — recording them is what
    /// keeps post-restore wear landing on the same cells as the original).
    ///
    /// Configuration-derived structure (reservoir size, hash functions) is *not*
    /// serialized: the caller rebuilds the instance with its deterministic
    /// constructor first, then overwrites this dynamic state, then imports the
    /// tracker state — see the ensemble `Snapshot` implementations.
    pub(crate) fn write_dynamic_state(&self, w: &mut SnapshotWriter) {
        for word in self.rng.state() {
            w.u64(word);
        }
        w.f64(self.sample_prob);
        w.usize(self.counter_budget);
        w.usize(self.free_slots.len());
        for &slot in &self.free_slots {
            w.usize(slot);
        }
        w.usize(self.reservoir.len());
        for &slot in self.reservoir.iter_untracked() {
            w.u64(slot);
        }
        let mut entries: Vec<(&u64, &ItemSlot)> = self.items.iter().collect();
        entries.sort_unstable_by_key(|(&k, _)| k);
        w.usize(entries.len());
        for (&item, slot) in entries {
            w.u64(item);
            w.u32(slot.reservoir_slots);
            match &slot.held {
                Some(held) => {
                    w.bool(true);
                    w.u64(held.created_at);
                    w.u64(held.register.get() as u64);
                    w.usize(held.addr);
                }
                None => w.bool(false),
            }
        }
    }

    /// Restores the dynamic state serialized by
    /// [`SampleAndHold::write_dynamic_state`] into a freshly constructed instance
    /// (same parameters, same tracker construction order).  The caller finishes with
    /// [`StateTracker::import_state`].
    pub(crate) fn read_dynamic_state(
        &mut self,
        r: &mut SnapshotReader<'_>,
    ) -> Result<(), SnapshotError> {
        self.rng = StdRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
        let sample_prob = r.f64()?;
        if !(0.0..=1.0).contains(&sample_prob) {
            return Err(SnapshotError::Corrupt("sample probability out of range"));
        }
        self.sample_prob = sample_prob;
        self.counter_budget = r.usize()?;
        let kappa = self.reservoir.len();
        let free = r.len_prefix(8)?;
        if free > kappa {
            return Err(SnapshotError::Corrupt("free-slot stack exceeds reservoir"));
        }
        self.free_slots.clear();
        for _ in 0..free {
            let slot = r.usize()?;
            if slot >= kappa {
                return Err(SnapshotError::Corrupt("free slot out of range"));
            }
            self.free_slots.push(slot);
        }
        if r.len_prefix(8)? != kappa {
            return Err(SnapshotError::Corrupt("reservoir size mismatch"));
        }
        for slot in self.reservoir.as_mut_slice_untracked() {
            *slot = r.u64()?;
        }
        // Dropping the current counters releases their register words.
        self.tracker.dealloc(self.held_len);
        self.items.clear();
        self.held_len = 0;
        // Minimum serialized entry: key (8) + slots (4) + held flag (1).
        let entries = r.len_prefix(13)?;
        for _ in 0..entries {
            let item = r.u64()?;
            let reservoir_slots = r.u32()?;
            let held = if r.bool()? {
                let created_at = r.u64()?;
                let register = r.u64()?;
                let addr = r.usize()?;
                if register > morris::MAX_REGISTER {
                    return Err(SnapshotError::Corrupt("Morris register out of range"));
                }
                let register = NonZeroU32::new(register as u32)
                    .ok_or(SnapshotError::Corrupt("held Morris register is zero"))?;
                self.held_len += 1;
                Some(HeldCounter {
                    register,
                    accept_p: self.accept.at(register.get() as u64),
                    addr,
                    created_at,
                })
            } else {
                None
            };
            if held.is_none() && reservoir_slots == 0 {
                return Err(SnapshotError::Corrupt("item slot neither held nor sampled"));
            }
            self.items.insert(
                item,
                ItemSlot {
                    held,
                    reservoir_slots,
                },
            );
        }
        Ok(())
    }

    /// Items currently held in the reservoir (without counters).
    pub fn reservoir_items(&self) -> Vec<u64> {
        self.items
            .iter()
            .filter(|(_, s)| s.reservoir_slots > 0)
            .map(|(&i, _)| i)
            .collect()
    }
}

impl StreamAlgorithm for SampleAndHold {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_item(&mut self, item: u64) {
        let mut reads = 0;
        self.process_item_inner(item, &mut reads);
        self.tracker.record_reads(reads);
    }

    fn tracker(&self) -> &StateTracker {
        &self.tracker
    }

    /// Batch kernel: the tracker handle is resolved once, the epoch span is hoisted,
    /// and the per-update read charges (1–2 per item) are accumulated and flushed
    /// with a single tracker call for the whole batch.
    fn process_batch(&mut self, items: &[u64]) {
        let tracker = self.tracker.clone();
        let first = tracker.begin_epochs(items.len() as u64);
        let mut reads = 0;
        for (i, &item) in items.iter().enumerate() {
            tracker.enter_epoch(first + i as u64);
            self.process_item_inner(item, &mut reads);
        }
        tracker.record_reads(reads);
    }
}

impl Drop for SampleAndHold {
    /// Releases the held counters' register words, as dropping each counter did.
    fn drop(&mut self) {
        self.tracker.dealloc(self.held_len);
    }
}

impl_queryable!(SampleAndHold: [frequency]);

impl Snapshot for SampleAndHold {
    fn snapshot_id(&self) -> &'static str {
        SNAPSHOT_ID
    }

    /// Layout: tracker state, the parameter set, then the dynamic state
    /// (`write_dynamic_state`).
    ///
    /// Defined for standalone-constructed instances (the instance owns its tracker
    /// and was sized from [`Params::stream_len_hint`], as [`SampleAndHold::standalone`]
    /// does); copies embedded in an ensemble are checkpointed through the ensemble's
    /// own `Snapshot` implementation.
    fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(SNAPSHOT_ID);
        self.tracker.export_state().write_to(&mut w);
        self.params.write_snapshot(&mut w);
        self.write_dynamic_state(&mut w);
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, SNAPSHOT_ID)?;
        let state = TrackerState::read_from(&mut r)?;
        let params = Params::read_snapshot(&mut r)?.with_tracker(state.kind);
        let tracker = StateTracker::of_kind(state.kind);
        let mut alg = SampleAndHold::new(&params, params.stream_len_hint, &tracker, params.seed);
        alg.read_dynamic_state(&mut r)?;
        tracker.import_state(&state);
        r.finish()?;
        Ok(alg)
    }
}

impl FrequencyEstimator for SampleAndHold {
    /// Estimated frequency: one implicit occurrence for the event that put the item in
    /// the summary, plus the Morris estimate of subsequent occurrences.  Estimates never
    /// exceed the true frequency by more than the Morris approximation error — the
    /// one-sidedness `FullSampleAndHold` relies on.
    fn estimate(&self, item: u64) -> f64 {
        match self.items.get(&item) {
            Some(slot) => match &slot.held {
                Some(held) => 1.0 + held.estimate(self.accept.growth()),
                None => 1.0, // reservoir-only: the sampled occurrence itself
            },
            None => 0.0,
        }
    }

    fn tracked_items(&self) -> Vec<u64> {
        // Table invariant: every entry is held and/or in the reservoir, so the key
        // set is exactly the union the two former tables produced.
        let mut items: Vec<u64> = self.items.keys().copied().collect();
        items.sort_unstable();
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_streamgen::blocks::counterexample_stream;
    use fsc_streamgen::planted::{planted_stream, PlantedSpec};
    use fsc_streamgen::zipf::zipf_stream;
    use fsc_streamgen::FrequencyVector;

    fn params(n: usize, m: usize, eps: f64) -> Params {
        Params::new(2.0, eps, n, m)
    }

    #[test]
    fn heavy_hitter_frequencies_are_estimated_well() {
        let n = 1 << 14;
        let m = 4 * n;
        let stream = zipf_stream(n, m, 1.2, 11);
        let truth = FrequencyVector::from_stream(&stream);
        let mut alg = SampleAndHold::standalone(&params(n, m, 0.2).with_seed(5));
        alg.process_stream(&stream);
        for (item, f) in truth.top_k(3) {
            let est = alg.estimate(item);
            let rel = (est - f as f64).abs() / f as f64;
            assert!(rel < 0.3, "item {item}: est {est}, true {f}, rel {rel}");
        }
    }

    #[test]
    fn estimates_do_not_materially_overestimate() {
        let n = 1 << 13;
        let m = 4 * n;
        let stream = zipf_stream(n, m, 1.1, 3);
        let truth = FrequencyVector::from_stream(&stream);
        let mut alg = SampleAndHold::standalone(&params(n, m, 0.2).with_seed(9));
        alg.process_stream(&stream);
        for item in alg.tracked_items() {
            let est = alg.estimate(item);
            let true_f = truth.frequency(item) as f64;
            assert!(
                est <= 1.3 * true_f + 2.0,
                "item {item} overestimated: est {est}, true {true_f}"
            );
        }
    }

    #[test]
    fn state_changes_are_sublinear_in_the_stream_length() {
        let n = 1 << 14;
        let m = 4 * n;
        let stream = zipf_stream(n, m, 1.0, 7);
        let mut alg = SampleAndHold::standalone(&params(n, m, 0.3).with_seed(2));
        alg.process_stream(&stream);
        let r = alg.report();
        assert_eq!(r.epochs as usize, m);
        assert!(
            (r.state_changes as f64) < 0.5 * m as f64,
            "state changes {} vs stream length {m}",
            r.state_changes
        );
    }

    #[test]
    fn space_stays_within_the_counter_budget() {
        let n = 1 << 14;
        let m = 4 * n;
        let stream = zipf_stream(n, m, 0.9, 13);
        let mut alg = SampleAndHold::standalone(&params(n, m, 0.25).with_seed(21));
        alg.process_stream(&stream);
        assert!(alg.held_counters() <= alg.counter_budget());
        // Reservoir + counters + Morris registers, with a small constant of slack.
        let budget_words =
            alg.reservoir_slots() + alg.counter_budget() * (HELD_METADATA_WORDS + 1) + 16;
        assert!(
            alg.space_words() <= budget_words,
            "space {} exceeds budget {budget_words}",
            alg.space_words()
        );
    }

    #[test]
    fn maintenance_keeps_the_heavy_hitter_on_the_counterexample_stream() {
        // The Section 1.4 stream: time-bucketed maintenance must not evict the true
        // heavy hitter in favour of locally-large pseudo-heavy items.
        let cx = counterexample_stream(12);
        let n = cx.stream.len();
        let p = Params::new(2.0, 0.3, n, n).with_seed(17);
        let mut alg = SampleAndHold::standalone(&p);
        alg.process_stream(&cx.stream);
        let est = alg.estimate(cx.heavy_hitter);
        assert!(
            est >= 0.4 * cx.heavy_freq as f64,
            "heavy hitter estimate {est} vs true {}",
            cx.heavy_freq
        );
    }

    #[test]
    fn reservoir_only_items_report_one_occurrence() {
        let spec = PlantedSpec {
            universe: 1 << 12,
            background_updates: 10_000,
            planted: vec![2_000],
            seed: 3,
        };
        let stream = planted_stream(&spec);
        let mut alg = SampleAndHold::standalone(&params(1 << 12, stream.len(), 0.3).with_seed(8));
        alg.process_stream(&stream);
        let reservoir_only: Vec<u64> = alg
            .reservoir_items()
            .into_iter()
            .filter(|&i| !alg.holds_counter(i))
            .collect();
        for item in reservoir_only {
            assert_eq!(alg.estimate(item), 1.0);
        }
        assert_eq!(alg.estimate(u64::MAX - 7), 0.0);
    }

    #[test]
    fn dropping_an_instance_releases_the_reservoir_and_register_words() {
        // As dropping the reservoir and every held MorrisCounter did: the metadata
        // words stay charged, like before.
        let n = 1 << 12;
        let tracker = StateTracker::new();
        let mut alg = SampleAndHold::new(&params(n, 4 * n, 0.3), 4 * n, &tracker, 4);
        alg.process_stream(&zipf_stream(n, 4 * n, 1.1, 4));
        assert!(alg.held_counters() > 0);
        let released = alg.reservoir_slots() + alg.held_counters();
        let before = tracker.words_current();
        drop(alg);
        assert_eq!(tracker.words_current(), before - released);
    }

    #[test]
    fn standalone_uses_its_own_tracker_and_parameters() {
        let p = params(1 << 10, 1 << 12, 0.2);
        let alg = SampleAndHold::standalone(&p);
        assert!(alg.sample_prob() > 0.0 && alg.sample_prob() <= 1.0);
        assert!(alg.reservoir_slots() >= 16);
        assert!(alg.counter_budget() >= alg.reservoir_slots());
        assert_eq!(alg.held_counters(), 0);
        assert_eq!(alg.report().epochs, 0);
    }
}
