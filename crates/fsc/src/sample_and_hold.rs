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
use std::sync::OnceLock;

use fsc_counters::fastmap::{fast_map, FastMap};
use fsc_counters::morris::{self, AcceptanceTable};
use fsc_state::snapshot::TrackerState;
use fsc_state::{
    impl_queryable, AddrRange, FrequencyEstimator, Snapshot, SnapshotError, SnapshotReader,
    SnapshotWriter, StateTracker, StreamAlgorithm,
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
    /// The reservoir `Q`: κ tracked words at `reservoir_addr`, charged (allocation
    /// and one initialisation write each) at construction.  Only the prefix up to
    /// the last slot a changed write reached is held in memory; every slot past it
    /// is [`EMPTY_SLOT`], so building a copy writes none of its κ slots.
    reservoir: Vec<u64>,
    /// Tracked addresses of the reservoir words; `len` is κ.
    reservoir_addr: AddrRange,
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
    /// Slots `next_free..κ` have never been written and are filled in order before
    /// any random eviction, so that a lightly-loaded reservoir retains every sampled
    /// item (practical deviation noted in the module docs — the paper always evicts
    /// a uniformly random slot).  Checkpoints carry them as the free-slot stack
    /// `κ-1, …, next_free`.
    next_free: usize,
    counter_budget: usize,
    sample_prob: f64,
    /// Held counters dropped by maintenance since this instance was built or
    /// restored.  Untracked and not checkpointed: an observation for tests and
    /// reports, not summary state.
    maintenance_drops: u64,
    /// Formatted on the first [`StreamAlgorithm::name`] call: a copy inside an
    /// ensemble is never asked for its name.
    name: OnceLock<String>,
}

/// Sentinel marking an empty reservoir slot.
const EMPTY_SLOT: u64 = u64::MAX;

/// Items per block of the leveled-ensemble batch kernels: large enough to amortise
/// the per-block bookkeeping, small enough that the level scratch stays
/// cache-resident.
pub(crate) const BATCH_BLOCK: usize = 1024;

/// Where one copy's update charges its accounting: straight to the copy's tracker
/// ([`Direct`]), or to a block's [`Ledger`] that the batch kernel settles later.
/// The update body ([`SampleAndHold::process_item_inner`] and the methods it
/// calls) is written once against this trait; `tracker` is always the copy's own
/// handle.
pub(crate) trait Sink {
    /// The epoch of the update in progress: the maintenance clock and a new held
    /// counter's creation time.
    fn now(&self, tracker: &StateTracker) -> u64;
    /// Charges `n` word reads.
    fn reads(&mut self, n: u64);
    /// Charges a write to one word, as [`StateTracker::record_write`] does.
    fn write(&mut self, tracker: &StateTracker, addr: Option<usize>, changed: bool);
    /// Allocates a held counter's register and metadata words for `item`; returns
    /// the register's address.
    fn hold(&mut self, tracker: &StateTracker, item: u64) -> usize;
    /// Releases a held counter's register and metadata words.
    fn release(&mut self, tracker: &StateTracker);
}

/// Charges the tracker at each event, except reads, which are summed and flushed
/// by the caller (`reads` is a single aggregate counter).
#[derive(Default)]
pub(crate) struct Direct {
    pub(crate) reads: u64,
}

impl Sink for Direct {
    #[inline]
    fn now(&self, tracker: &StateTracker) -> u64 {
        tracker.epochs()
    }

    #[inline]
    fn reads(&mut self, n: u64) {
        self.reads += n;
    }

    #[inline]
    fn write(&mut self, tracker: &StateTracker, addr: Option<usize>, changed: bool) {
        tracker.record_write(addr, changed);
    }

    fn hold(&mut self, tracker: &StateTracker, _item: u64) -> usize {
        let addr = tracker.alloc(1).start;
        tracker.alloc(HELD_METADATA_WORDS);
        addr
    }

    fn release(&mut self, tracker: &StateTracker) {
        tracker.dealloc(1);
        tracker.dealloc(HELD_METADATA_WORDS);
    }
}

/// Marks a held counter's register address as provisional: allocated inside a
/// block that the [`Ledger`] has not settled yet.  The low bits number the
/// block's holds in the order the copies made them.
const PROVISIONAL: usize = 1 << (usize::BITS - 1);

/// A held counter allocated (`Some`) or released (`None`) by copy `copy` while
/// updating the block's item `at`.
#[derive(Debug, Clone, Copy)]
struct SpaceEvent {
    at: usize,
    copy: (usize, usize),
    /// The held item and the hold's provisional number.
    hold: Option<(u64, usize)>,
}

/// One block's accounting, collected while the batch kernel runs the ensemble copy
/// by copy and settled into the tracker once per block by [`Ledger::settle`], in
/// the order the per-item path would have charged it.
///
/// Everything but space is an order-free total per item: changed writes mark the
/// item in `changed` (its epoch is a state change) and are counted, with their
/// addresses kept for the wear table when the tracker keeps one.  Space is
/// ordered: address assignment and peak space depend on the interleaving of holds
/// and releases across copies, so those are logged as events tagged with their
/// item and copy, and a new held counter gets a provisional address
/// ([`PROVISIONAL`]) until the replay allocates its real one.
///
/// Owned by the ensemble and reused across batches, like its level scratch.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// Epoch of the block's first item.
    first: u64,
    /// Block index of the item the running copy is updating.
    at: usize,
    /// `(repetition, level)` of the running copy.
    copy: (usize, usize),
    /// Bit `i` is set iff item `i` made a changed write.
    changed: [u64; BATCH_BLOCK / 64],
    writes: u64,
    redundant: u64,
    /// Read charges, the ensemble's level pass included.
    pub(crate) reads: u64,
    /// Whether the tracker keeps a wear table, so `wear` is collected.
    track_wear: bool,
    /// Addresses of the addressed changed writes, provisional ones included.
    wear: Vec<usize>,
    /// Holds and releases in the order the copies made them.
    events: Vec<SpaceEvent>,
    /// Real register address of each provisional one, by its number; one entry
    /// per hold, filled in when the block is settled.
    addrs: Vec<usize>,
}

impl Ledger {
    /// Empties the ledger for a block whose first item has epoch `first`.
    fn open(&mut self, first: u64, track_wear: bool) {
        self.first = first;
        self.changed = [0; BATCH_BLOCK / 64];
        self.writes = 0;
        self.redundant = 0;
        self.reads = 0;
        self.track_wear = track_wear;
        self.wear.clear();
        self.events.clear();
        self.addrs.clear();
    }

    /// Settles the block's `n` items into `tracker`: replays the holds and
    /// releases in `(item, repetition, level)` order — the per-item path's — so
    /// every register gets the address the per-item path gives it, patches those
    /// addresses into the held counters that still carry their provisional ones,
    /// and enters the block's epochs with their writes, reads and wear.
    fn settle(&mut self, tracker: &StateTracker, instances: &mut [Vec<SampleAndHold>], n: usize) {
        // Stable: events of one item keep the copies' (repetition, level) order,
        // and one copy's hold stays ahead of the releases its maintenance made.
        self.events.sort_by_key(|e| e.at);
        for e in &self.events {
            match e.hold {
                Some((item, number)) => {
                    let addr = Direct::default().hold(tracker, item);
                    self.addrs[number] = addr;
                    let (r, l) = e.copy;
                    instances[r][l].settle_address(item, PROVISIONAL | number, addr);
                }
                None => Direct::default().release(tracker),
            }
        }
        for a in &mut self.wear {
            if *a & PROVISIONAL != 0 {
                *a = self.addrs[*a & !PROVISIONAL];
            }
        }
        tracker.record_block(
            self.first,
            n as u64,
            &self.changed,
            self.writes,
            self.redundant,
            &self.wear,
        );
        tracker.record_reads(self.reads);
    }
}

impl Sink for Ledger {
    #[inline]
    fn now(&self, _tracker: &StateTracker) -> u64 {
        self.first + self.at as u64
    }

    #[inline]
    fn reads(&mut self, n: u64) {
        self.reads += n;
    }

    #[inline]
    fn write(&mut self, _tracker: &StateTracker, addr: Option<usize>, changed: bool) {
        if !changed {
            self.redundant += 1;
            return;
        }
        self.writes += 1;
        self.changed[self.at / 64] |= 1 << (self.at % 64);
        if let (true, Some(a)) = (self.track_wear, addr) {
            self.wear.push(a);
        }
    }

    fn hold(&mut self, _tracker: &StateTracker, item: u64) -> usize {
        let number = self.addrs.len();
        self.addrs.push(0);
        self.events.push(SpaceEvent {
            at: self.at,
            copy: self.copy,
            hold: Some((item, number)),
        });
        PROVISIONAL | number
    }

    fn release(&mut self, _tracker: &StateTracker) {
        self.events.push(SpaceEvent {
            at: self.at,
            copy: self.copy,
            hold: None,
        });
    }
}

/// The shared blocked batch kernel of the leveled ensembles (`FullSampleAndHold`'s
/// stream-subsampling levels, `FpEstimator`'s universe-subsampling levels).
///
/// Per block, `fill_levels` precomputes the deepest level of every
/// `(item, repetition)` pair — in `(item, repetition)` order, so an ensemble whose
/// level decision consumes its own rng draws them in exactly the per-item sequence.
/// Then the kernel runs the ensemble copy by copy: copy `(r, l)` updates, in
/// stream order, the block's items whose deepest level in repetition `r` is at
/// least `l`, so each copy still sees its own substream in order and draws its
/// private rng in the per-item sequence.  The copies charge the block's [`Ledger`],
/// which is settled into the tracker once per block in the per-item path's order,
/// so every observable — checkpoint bytes, reports, wear, rng draws — matches the
/// per-item path; the batch-law tests pin this for both ensembles.
///
/// `scratch` is the block-level buffer the deepest-level table is built in, and
/// `ledger` the block's accounting — both owned by the calling ensemble and reused
/// across calls.  Contents on entry are irrelevant; the kernel clears them per
/// block.
pub(crate) fn process_batch_leveled(
    tracker: &StateTracker,
    instances: &mut [Vec<SampleAndHold>],
    items: &[u64],
    scratch: &mut Vec<u16>,
    ledger: &mut Ledger,
    mut fill_levels: impl FnMut(&[u64], &mut Vec<u16>, &mut u64),
) {
    let mut first = tracker.begin_epochs(items.len() as u64);
    let reps = instances.len();
    let deepest = scratch;
    // The block indices of the items the running copy updates.
    let mut live = [0u16; BATCH_BLOCK];
    for block in items.chunks(BATCH_BLOCK) {
        deepest.clear();
        ledger.open(first, tracker.tracks_wear());
        fill_levels(block, deepest, &mut ledger.reads);
        for (r, row) in instances.iter_mut().enumerate() {
            let mut len = block.len();
            for (i, at) in live[..len].iter_mut().enumerate() {
                *at = i as u16;
            }
            for (l, inst) in row.iter_mut().enumerate() {
                ledger.copy = (r, l);
                for &i in &live[..len] {
                    ledger.at = i as usize;
                    inst.process_item_inner(block[i as usize], ledger);
                }
                // Level l + 1 updates the items reaching past level l; filtered in
                // place, in order, without a branch.
                let mut kept = 0;
                for j in 0..len {
                    let i = live[j];
                    live[kept] = i;
                    kept += usize::from(deepest[i as usize * reps + r] as usize > l);
                }
                len = kept;
                if len == 0 {
                    break;
                }
            }
        }
        ledger.settle(tracker, instances, block.len());
        first += block.len() as u64;
    }
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
        let reservoir_addr = tracker.alloc(kappa);
        // Emptying the κ slots is charged as one initialisation-write run; no slot
        // is stored until a changed write reaches it.
        tracker.record_changed_run(Some(reservoir_addr.start), kappa as u64);
        Self {
            name: OnceLock::new(),
            params: params.clone(),
            tracker: tracker.clone(),
            rng,
            reservoir: Vec::new(),
            reservoir_addr,
            items: fast_map(),
            held_len: 0,
            accept: AcceptanceTable::new(params.morris_growth()),
            next_free: 0,
            counter_budget,
            sample_prob,
            maintenance_drops: 0,
        }
    }

    /// Creates a standalone instance with its own tracker (of the kind selected by
    /// [`Params::tracker`]), sized from [`Params::stream_len_hint`].
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
        self.reservoir_addr.len
    }

    /// Counter budget `k` that triggers maintenance.
    pub fn counter_budget(&self) -> usize {
        self.counter_budget
    }

    /// Number of currently held counters.
    pub fn held_counters(&self) -> usize {
        self.held_len
    }

    /// Held counters dropped by maintenance since this instance was built or
    /// restored (untracked; tests/reporting).
    pub fn maintenance_drops(&self) -> u64 {
        self.maintenance_drops
    }

    /// Whether `item` currently holds a Morris counter (untracked; tests/reporting).
    pub fn holds_counter(&self, item: u64) -> bool {
        self.items.get(&item).is_some_and(|s| s.held.is_some())
    }

    fn hold_counter<S: Sink>(&mut self, item: u64, sink: &mut S) {
        // The register word and the metadata words: allocated, the register
        // initialised to 0 ...
        let addr = sink.hold(&self.tracker, item);
        sink.write(&self.tracker, Some(addr), true);
        // ... then the occurrence that triggered the hold is counted.  Its draw is
        // accepted with probability (1+a)^0 = 1 but still consumed.
        let _ = self.rng.gen::<f64>();
        sink.reads(1);
        sink.write(&self.tracker, Some(addr), true);
        sink.write(&self.tracker, None, true);
        let held = HeldCounter {
            register: NonZeroU32::MIN,
            accept_p: self.accept.at(1),
            addr,
            created_at: sink.now(&self.tracker),
        };
        self.items.entry(item).or_default().held = Some(held);
        self.held_len += 1;
        if self.held_len > self.counter_budget {
            self.maintain(sink);
        }
    }

    /// Replaces the provisional register address `provisional` of `item`'s held
    /// counter by its settled address `addr` — unless maintenance has dropped that
    /// counter since (it then carries no address, or a later hold's).
    fn settle_address(&mut self, item: u64, provisional: usize, addr: usize) {
        if let Some(held) = self.items.get_mut(&item).and_then(|s| s.held.as_mut()) {
            if held.addr == provisional {
                held.addr = addr;
            }
        }
    }

    /// Time-bucketed maintenance (Algorithm 1, lines 19–21): within each age bucket
    /// `[2^z, 2^{z+1})`, retain the half of the counters with the largest approximate
    /// counts and drop the rest.
    fn maintain<S: Sink>(&mut self, sink: &mut S) {
        let now = sink.now(&self.tracker);
        sink.reads(self.held_len as u64);

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
        self.maintenance_drops += to_remove.len() as u64;
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
            sink.release(&self.tracker);
            sink.write(&self.tracker, None, true);
        }
    }

    /// The per-update body, charging its accounting to `sink`: the tracker as it
    /// goes ([`Direct`], with reads flushed by the caller — after one item in
    /// [`StreamAlgorithm::process_item`], once per batch in this type's batch
    /// kernel), or the block [`Ledger`] of the ensembles' batch kernel.
    ///
    /// Forced inline, so each copy's visit compiles into the copy-by-copy loop of
    /// [`process_batch_leveled`]; the rare hold, sample and maintain paths stay
    /// out of line.  Under plain `#[inline]`, LLVM inlined those paths into the
    /// body and left the body itself out of line, so every visit (about six per
    /// stream item) paid a call and a 248-byte frame: ~15% of `kernel_fshh`'s
    /// throughput.
    #[inline(always)]
    pub(crate) fn process_item_inner<S: Sink>(&mut self, item: u64, sink: &mut S) {
        // One physical probe of the merged table resolves both logical lookups of
        // the algorithm; the read charges still follow the logical path (counter
        // table, then — for unheld items — the reservoir).
        sink.reads(1);
        match self.items.get_mut(&item) {
            // 1. Already held: update its Morris counter (a state change only when
            //    the probabilistic register advances).  Accepted or not, the
            //    increment reads the register.
            Some(ItemSlot {
                held: Some(held), ..
            }) => {
                sink.reads(1);
                if self.rng.gen::<f64>() < held.accept_p {
                    sink.write(&self.tracker, Some(held.addr), true);
                    held.register = held
                        .register
                        .checked_add(1)
                        .expect("Morris register overflow");
                    held.accept_p = self.accept.at(held.register.get() as u64);
                }
            }
            // 2. In the reservoir: start holding a counter for it.
            Some(_) => {
                sink.reads(1);
                self.hold_counter(item, sink);
            }
            // 3. Otherwise: sample it into the reservoir with probability ϱ.
            None => {
                sink.reads(1);
                if self.rng.gen::<f64>() < self.sample_prob {
                    self.sample_into_reservoir(item, sink);
                }
            }
        }
    }

    /// Reservoir slot `slot`: [`EMPTY_SLOT`] past the written prefix.
    fn reservoir_word(&self, slot: usize) -> u64 {
        self.reservoir.get(slot).copied().unwrap_or(EMPTY_SLOT)
    }

    fn sample_into_reservoir<S: Sink>(&mut self, item: u64, sink: &mut S) {
        let kappa = self.reservoir_addr.len;
        let slot = if self.next_free < kappa {
            self.next_free += 1;
            self.next_free - 1
        } else {
            self.rng.gen_range(0..kappa)
        };
        let old = self.reservoir_word(slot);
        let changed = old != item;
        sink.write(&self.tracker, Some(self.reservoir_addr.word(slot)), changed);
        if !changed {
            return;
        }
        if slot >= self.reservoir.len() {
            self.reservoir.resize(slot + 1, EMPTY_SLOT);
        }
        self.reservoir[slot] = item;
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
        let kappa = self.reservoir_addr.len;
        w.usize(kappa - self.next_free);
        for slot in (self.next_free..kappa).rev() {
            w.usize(slot);
        }
        w.usize(kappa);
        for slot in 0..kappa {
            w.u64(self.reservoir_word(slot));
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
        let kappa = self.reservoir_addr.len;
        let free = r.len_prefix(8)?;
        if free > kappa {
            return Err(SnapshotError::Corrupt("free-slot stack exceeds reservoir"));
        }
        // Slots are only ever taken from the top of the stack, so every writer
        // leaves it holding exactly the unwritten suffix.
        self.next_free = kappa - free;
        for expected in (self.next_free..kappa).rev() {
            if r.usize()? != expected {
                return Err(SnapshotError::Corrupt(
                    "free-slot stack is not the unwritten suffix",
                ));
            }
        }
        if r.len_prefix(8)? != kappa {
            return Err(SnapshotError::Corrupt("reservoir size mismatch"));
        }
        self.reservoir.clear();
        for slot in 0..kappa {
            let word = r.u64()?;
            if word != EMPTY_SLOT {
                self.reservoir.resize(slot, EMPTY_SLOT);
                self.reservoir.push(word);
            }
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

    /// Items currently in the reservoir, whether or not they also hold a counter.
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
        self.name.get_or_init(|| {
            format!(
                "SampleAndHold(p={}, eps={})",
                self.params.p, self.params.eps
            )
        })
    }

    fn process_item(&mut self, item: u64) {
        let mut sink = Direct::default();
        self.process_item_inner(item, &mut sink);
        self.tracker.record_reads(sink.reads);
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
        let mut sink = Direct::default();
        for (i, &item) in items.iter().enumerate() {
            tracker.enter_epoch(first + i as u64);
            self.process_item_inner(item, &mut sink);
        }
        tracker.record_reads(sink.reads);
    }
}

impl Drop for SampleAndHold {
    /// Releases the reservoir's κ words and the held counters' register words.
    fn drop(&mut self) {
        self.tracker
            .dealloc(self.reservoir_addr.len + self.held_len);
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
    use fsc_streamgen::uniform::uniform_stream;
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
        // heavy hitter in favour of locally-large pseudo-heavy items.  At scale 20
        // and ε = 0.9 the counter budget (264) is small enough that maintenance
        // runs; at scale 12 and ε = 0.3 it never did, and the test checked nothing
        // about maintenance.
        let cx = counterexample_stream(20);
        let n = cx.stream.len();
        let p = Params::new(2.0, 0.9, n, n).with_seed(17);
        let mut alg = SampleAndHold::standalone(&p);
        alg.process_stream(&cx.stream);
        assert!(alg.maintenance_drops() > 0, "maintenance never ran");
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

    fn tracked_params() -> Params {
        params(1 << 8, 1 << 13, 0.9)
            .with_seed(12)
            .with_tracker(fsc_state::TrackerKind::FullAddressTracked)
    }

    #[test]
    fn a_fresh_instance_materialises_no_reservoir_words() {
        let alg = SampleAndHold::standalone(&tracked_params());
        assert_eq!(alg.reservoir.capacity(), 0);
        // ... yet all κ words are charged: allocated and written once each.
        let r = alg.report();
        assert_eq!(r.words_current, alg.reservoir_slots());
        assert_eq!(r.word_writes, alg.reservoir_slots() as u64);
        assert_eq!(r.tracked_cells, Some(alg.reservoir_slots()));
    }

    #[test]
    fn a_free_slot_stack_out_of_order_fails_restore_as_corrupt() {
        let mut alg = SampleAndHold::standalone(&tracked_params());
        alg.process_batch(&zipf_stream(1 << 8, 200, 1.1, 12));
        let kappa = alg.reservoir_slots();
        assert!(alg.next_free > 0 && alg.next_free + 2 < kappa);
        let mut bytes = alg.checkpoint();
        // The stack as written: its length, then κ-1, κ-2, … down to `next_free`.
        let stack: Vec<u8> = [kappa - alg.next_free, kappa - 1, kappa - 2]
            .iter()
            .flat_map(|&w| (w as u64).to_le_bytes())
            .collect();
        let at = bytes
            .windows(stack.len())
            .position(|w| w == stack.as_slice())
            .expect("free-slot stack in the checkpoint")
            + 8;
        let (top, next) = bytes[at..at + 16].split_at_mut(8);
        top.swap_with_slice(next);
        assert!(matches!(
            SampleAndHold::restore(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn restore_round_trips_at_every_chunk_boundary() {
        // Each boundary's checkpoint is restored and the stream continues on the
        // restored copy, from an unwritten reservoir through a partly written one
        // to random eviction (the stream is 4× the one the summary is sized for);
        // an uninterrupted twin must checkpoint the same bytes.
        let p = tracked_params();
        let mut twin = SampleAndHold::standalone(&p);
        let mut alg = SampleAndHold::standalone(&p);
        let kappa = alg.reservoir_slots();
        let mut partly_written = false;
        for chunk in zipf_stream(1 << 8, 1 << 15, 0.8, 12).chunks(1000) {
            let bytes = alg.checkpoint();
            assert_eq!(bytes, twin.checkpoint());
            let restored = SampleAndHold::restore(&bytes).expect("restore");
            assert_eq!(restored.checkpoint(), bytes);
            assert_eq!(restored.report(), alg.report());
            partly_written |= alg.next_free > 0 && alg.next_free < kappa;
            alg = restored;
            alg.process_batch(chunk);
            twin.process_batch(chunk);
        }
        assert!(partly_written);
        assert_eq!(alg.next_free, kappa, "the stream reaches random eviction");
        assert_eq!(alg.checkpoint(), twin.checkpoint());
        assert_eq!(alg.report(), twin.report());
    }

    #[test]
    fn an_item_equal_to_the_empty_slot_sentinel_keeps_its_accounting() {
        // `u64::MAX` is the empty-slot sentinel.  Sampled into a free slot it uses
        // the slot up as a redundant write and leaves it empty; once the free slots
        // are gone it can evict a sampled item.  The report was recorded from the
        // eagerly filled reservoir this type used to build.
        let (n, m) = (1 << 8, 1 << 15);
        let p = params(n, m, 0.9)
            .with_seed(6)
            .with_tracker(fsc_state::TrackerKind::FullAddressTracked);
        let mut alg = SampleAndHold::standalone(&p);
        let stream: Vec<u64> = zipf_stream(n, m, 1.1, 6)
            .into_iter()
            .enumerate()
            .map(|(i, x)| if i % 3 == 0 { EMPTY_SLOT } else { x })
            .collect();
        for chunk in stream.chunks(500) {
            alg.process_batch(chunk);
        }
        assert_eq!(
            alg.report(),
            fsc_state::StateReport {
                state_changes: 2_107,
                word_writes: 2_411,
                redundant_writes: 90,
                reads: 65_609,
                epochs: 32_768,
                words_current: 377,
                words_peak: 377,
                max_cell_writes: Some(114),
                tracked_cells: Some(377),
                total_addr_writes: Some(2_338),
            }
        );
        let bytes = alg.checkpoint();
        assert_eq!(SampleAndHold::restore(&bytes).unwrap().checkpoint(), bytes);
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

    #[test]
    fn a_copy_formats_its_name_from_its_parameters() {
        let alg = SampleAndHold::standalone(&params(1 << 10, 1 << 12, 0.2));
        assert_eq!(alg.name(), "SampleAndHold(p=2, eps=0.2)");
        assert_eq!(alg.name(), "SampleAndHold(p=2, eps=0.2)");
    }

    #[test]
    fn maintenance_drops_are_not_checkpointed() {
        let (n, m) = (1024, 4096);
        let mut alg = SampleAndHold::standalone(&params(n, m, 0.9).with_seed(5));
        alg.process_stream(&uniform_stream(n, m, 5));
        assert!(alg.maintenance_drops() > 0, "maintenance never ran");
        let restored = SampleAndHold::restore(&alg.checkpoint()).unwrap();
        assert_eq!(restored.maintenance_drops(), 0);
        assert_eq!(restored.checkpoint(), alg.checkpoint());
    }
}
