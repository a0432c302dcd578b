//! The event queue driving the discrete-event simulation.
//!
//! Two schedulers live here:
//!
//! * [`EventQueue`] — the production engine, a **hierarchical timing
//!   wheel** keyed on virtual time. Most packet events land within a
//!   few RTT buckets of "now", so O(1) bucket insertion plus a sorted
//!   drain of one ~2 ms bucket at a time beats a binary heap's
//!   O(log n) sift on every operation.
//! * [`HeapQueue`] — the original `BinaryHeap` engine, kept as the
//!   executable reference for the scheduler-equivalence suite
//!   (`tests/scheduler.rs`): both must produce bit-identical pop
//!   sequences for any interleaving of schedules and pops.
//!
//! Both order events by virtual time and break ties between
//! simultaneous events by insertion order. The FIFO tie-break matters:
//! without it, two packets enqueued for the same instant would pop in
//! an order depending on container internals, and simulation runs
//! would not be bit-reproducible across refactorings.
//!
//! The tie-break number can be taken apart from the schedule:
//! [`EventQueue::reserve_seq`] takes it now, and
//! [`EventQueue::schedule_reserved`] schedules with it later, as long as
//! the clock has not yet passed the event's `(time, seq)` position. The
//! event then pops exactly where one scheduled at reservation time would
//! have. tcpsim's timers rely on this to keep one queued event each,
//! and cdnsim's start book (where [`EventQueue::reserve_seqs`] takes a
//! query series' whole block) to keep pending query starts out of the
//! queue behind one queued wake.
//!
//! Payloads live in a slab indexed by the queue entries rather than in
//! the wheel itself: bucket chains and cascades move 24-byte
//! `(time, seq, idx)` records instead of full event payloads (a
//! packet-delivery event carries a whole segment, ~100 bytes). Freed
//! slab slots are recycled through a free list, so a steady-state
//! simulation allocates nothing per event. The slot an event lands in
//! never influences ordering — only `(time, seq)` does — so recycling
//! cannot perturb trajectories.
//!
//! # Wheel layout
//!
//! Six levels of 64 buckets each. Level `l` buckets span
//! `2^(21 + 6·l)` ns: ~2.1 ms at level 0 (a couple of packet
//! serializations), ~134 ms at level 1 (an RTT or an RTO), ~8.6 s at
//! level 2 (fault windows), up to ~1.6 years of reach at level 5.
//! Anything beyond the top level's window — `SimTime::MAX` sentinels,
//! absurd client deadlines — parks in an unsorted overflow list with a
//! cached minimum.
//!
//! The wheel maintains a **ready batch**: the entries of the earliest
//! non-empty level-0 bucket, sorted descending by `(time, seq)` so the
//! next event pops from the back in O(1). `horizon` marks the end of
//! the committed span — one past the last committed entry, *not* the
//! bucket's end, so a sparse far-ahead commit cannot drag the horizon
//! a whole window forward. Every pending entry with `t < horizon` is
//! in the ready batch (late schedules into the committed span do a
//! sorted insert — rare, and the batch is small), and every wheel /
//! overflow entry has `t >= horizon`. If a schedule still lands well
//! below a horizon that leapt ahead (first event into an empty queue
//! was far-future, then near traffic arrived), the wheel **demotes**:
//! it lowers the horizon back to the newcomer's bucket, returns the
//! committed-too-early entries to the wheel, and re-buckets any chains
//! whose window the rebase invalidated — restoring the O(1) insert
//! path instead of letting the ready batch grow a sorted-insert
//! hotspot. When the batch drains, the refill scan picks the earliest
//! candidate among the per-level occupancy bitmaps and the overflow
//! minimum; coarse buckets cascade one level down (re-bucketed against
//! the advanced horizon, which provably lands them in a strictly finer
//! level, so a refill terminates after at most `LEVELS` cascades per
//! entry). Ties between levels resolve toward the **coarsest** level:
//! its bucket may hide events earlier than a finer candidate's, so it
//! must cascade first.
//!
//! Exact FIFO inside a coarse bucket comes for free: chains are
//! unordered until the level-0 drain sorts the batch by `(time, seq)`,
//! which is a total order — the heap and the wheel are therefore
//! byte-equivalent, which `tests/scheduler.rs` proves by property
//! testing.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A queue entry: the scheduled instant, a monotone sequence number,
/// and the payload's slab slot.
#[derive(Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    idx: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// log2 of the number of buckets per wheel level.
const SLOT_BITS: u32 = 6;
/// Buckets per level (64).
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels. Level 5 reaches ~1.6 years of virtual time;
/// beyond that, entries park in the overflow list.
const LEVELS: usize = 6;
/// log2 of the level-0 bucket span in nanoseconds (~2.1 ms).
const BASE_SHIFT: u32 = 21;

/// Bit shift from a nanosecond timestamp to a bucket index at `level`.
#[inline]
fn shift(level: usize) -> u32 {
    BASE_SHIFT + SLOT_BITS * level as u32
}

/// A time-ordered event queue with stable FIFO ordering of simultaneous
/// events, backed by a hierarchical timing wheel.
///
/// The queue also tracks the current virtual time: [`EventQueue::pop`]
/// advances the clock to the popped event's timestamp. Scheduling into the
/// past is a logic error and panics in debug builds (it is clamped to
/// "now" in release builds — and counted, see
/// [`EventQueue::sched_past_clamps`] — which keeps long batch runs alive
/// while still surfacing the bug).
pub struct EventQueue<E> {
    /// Entries of the committed span `[.., horizon)`, sorted descending
    /// by `(at, seq)`: the global minimum is always `ready.last()`.
    ready: Vec<Entry>,
    /// End of the committed span (ns). Invariant: every pending entry
    /// with `at < horizon` is in `ready`; every wheel/overflow entry
    /// has `at >= horizon`.
    horizon: u64,
    /// `LEVELS * SLOTS` bucket chains, row-major by level.
    buckets: Vec<Vec<Entry>>,
    /// Per-level bucket occupancy bitmaps (bit = slot index).
    occupied: [u64; LEVELS],
    /// Entries beyond the top level's window, unsorted.
    overflow: Vec<Entry>,
    /// Minimum timestamp in `overflow` (ns); `u64::MAX` when empty.
    overflow_min: u64,
    /// Total pending entries across ready + wheel + overflow.
    pending: usize,
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
    past_clamps: u64,
    cascade_moves: u64,
    overflow_promotions: u64,
    horizon_demotions: u64,
    max_drain_batch: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            ready: Vec::new(),
            horizon: 0,
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            pending: 0,
            slab: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
            past_clamps: 0,
            cascade_moves: 0,
            overflow_promotions: 0,
            horizon_demotions: 0,
            max_drain_batch: 0,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total number of events popped so far (a cheap progress metric for
    /// harnesses and runaway-simulation guards).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Number of payload slots the slab has ever allocated. Because freed
    /// slots are recycled before the slab grows, this is exactly the
    /// high-water mark of concurrently pending events — the
    /// `tcpsim.slab_high_water` telemetry gauge.
    pub fn slab_slots(&self) -> usize {
        self.slab.len()
    }

    /// Times a release-mode `schedule_at` clamped a past timestamp to
    /// "now". Always 0 in debug builds (the debug assertion fires
    /// instead). Surfaced as the `tcpsim.sched_past_clamps` counter so
    /// the latent logic bug shows up in metrics.tsv instead of
    /// vanishing.
    pub fn sched_past_clamps(&self) -> u64 {
        self.past_clamps
    }

    /// Entries moved between wheel levels by refill cascades (the
    /// `tcpsim.wheel_cascade_moves` gauge). Bounded by
    /// `LEVELS * events_processed`.
    pub fn cascade_moves(&self) -> u64 {
        self.cascade_moves
    }

    /// Entries promoted out of the far-future overflow list back into
    /// the wheel (the `tcpsim.wheel_overflow_promotions` gauge).
    pub fn overflow_promotions(&self) -> u64 {
        self.overflow_promotions
    }

    /// Ready-batch entries returned to the wheel by horizon demotions —
    /// rebases triggered when a schedule lands well below a horizon
    /// that leapt ahead through a sparse far-future bucket.
    pub fn horizon_demotions(&self) -> u64 {
        self.horizon_demotions
    }

    /// Largest level-0 bucket drained into the ready batch — the
    /// bucket-occupancy high-water mark (the `tcpsim.wheel_max_drain_batch`
    /// gauge).
    pub fn max_drain_batch(&self) -> usize {
        self.max_drain_batch
    }

    /// Schedules `payload` at the absolute instant `at`.
    ///
    /// Debug-panics if `at` is in the past; clamps to `now` (and counts
    /// the clamp) in release.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        let seq = self.reserve_seq();
        self.schedule_reserved(at, seq, payload);
    }

    /// Takes the next FIFO tie-break number without scheduling
    /// anything. An event later scheduled with it through
    /// [`EventQueue::schedule_reserved`] pops exactly where one
    /// scheduled now would have.
    pub fn reserve_seq(&mut self) -> u64 {
        self.reserve_seqs(1)
    }

    /// Takes the next `n` tie-break numbers as one block and returns the
    /// first: member `i` is `first + i`, exactly the number the `i`-th
    /// of `n` schedules made now would take.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedules `payload` at `at` with a tie-break number taken earlier
    /// from [`EventQueue::reserve_seq`]. The caller must schedule it
    /// before the clock passes `(at, seq)`, and use each number once.
    ///
    /// Debug-panics if `at` is in the past; clamps to `now` (and counts
    /// the clamp) in release.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let at = if at < self.now {
            self.past_clamps += 1;
            self.now
        } else {
            at
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(payload);
                i
            }
            None => {
                self.slab.push(Some(payload));
                (self.slab.len() - 1) as u32
            }
        };
        self.pending += 1;
        self.insert(Entry { at, seq, idx });
        if self.ready.is_empty() {
            // Only reachable when the queue was empty before this
            // schedule: restore the "ready non-empty while pending"
            // invariant so `peek_time` stays O(1).
            self.refill();
        }
    }

    /// Schedules `payload` after a relative delay from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.ready.last().map(|e| e.at)
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.ready.pop()?;
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        self.popped += 1;
        self.pending -= 1;
        let payload = self.slab[entry.idx as usize]
            .take()
            .expect("queue entry without slab payload");
        self.free.push(entry.idx);
        if self.ready.is_empty() && self.pending > 0 {
            self.refill();
            debug_assert!(!self.ready.is_empty(), "refill left a pending queue dry");
        }
        Some((entry.at, payload))
    }

    /// Drops all pending events, keeping the clock where it is.
    pub fn clear(&mut self) {
        self.ready.clear();
        for l in 0..LEVELS {
            let mut occ = self.occupied[l];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                self.buckets[l * SLOTS + slot].clear();
                occ &= occ - 1;
            }
            self.occupied[l] = 0;
        }
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.pending = 0;
        self.slab.clear();
        self.free.clear();
    }

    /// Routes an entry to the ready batch, a wheel bucket, or the
    /// overflow list, per the horizon invariant.
    fn insert(&mut self, e: Entry) {
        let t = e.at.as_nanos();
        if t < self.horizon {
            if (t >> BASE_SHIFT) + 1 < (self.horizon >> BASE_SHIFT) {
                // The newcomer is more than a bucket below the horizon:
                // the horizon must have leapt ahead of `now` by
                // committing a sparse far-ahead bucket (first schedule
                // into an empty queue, post-overflow rebase). Rebase it
                // back down and return the committed-too-early entries
                // to the wheel, so later schedules in this span take the
                // O(1) bucket path instead of piling into `ready`.
                self.demote_horizon(t);
            }
            if t < self.horizon {
                // Late schedule just under the horizon: sorted insert
                // into the (descending) ready batch. The tight-horizon
                // rule bounds `ready` to roughly one bucket's span, so
                // the memmove stays small.
                let key = (e.at, e.seq);
                let pos = self.ready.partition_point(|x| (x.at, x.seq) > key);
                self.ready.insert(pos, e);
                return;
            }
        }
        for l in 0..LEVELS {
            let s = shift(l);
            // Window rule: level l can address 64 buckets starting at
            // the horizon's bucket. Using the horizon (not "now") keeps
            // every occupied bucket id in `[horizon >> s, +64)`, which
            // the refill scan's bitmap rotation relies on.
            if (t >> s) < (self.horizon >> s) + SLOTS as u64 {
                let slot = ((t >> s) & (SLOTS as u64 - 1)) as usize;
                self.buckets[l * SLOTS + slot].push(e);
                self.occupied[l] |= 1u64 << slot;
                return;
            }
        }
        if t < self.overflow_min {
            self.overflow_min = t;
        }
        self.overflow.push(e);
    }

    /// Lowers the horizon to the start of `t`'s level-0 bucket and
    /// re-buckets every ready entry at or above the new horizon. Only
    /// called from the late-insert path, so `t < horizon` and the move
    /// strictly lowers it; demoted entries re-enter through `insert` at
    /// or above the new horizon, so the recursion is depth-one.
    ///
    /// May leave `ready` empty with events still pending;
    /// [`EventQueue::schedule_at`] restores the peek invariant by
    /// refilling after the insert completes.
    fn demote_horizon(&mut self, t: u64) {
        let new_h = (t >> BASE_SHIFT) << BASE_SHIFT;
        if new_h >= self.horizon {
            return;
        }
        // Window invariant: every occupied bucket id must stay within
        // `SLOTS` of the horizon's bucket at its level (the refill
        // scan's bitmap rotation decodes slot indices relative to the
        // horizon). Lowering the horizon shifts every window down, so
        // sweep out the buckets that fall off the top — their entries
        // re-bucket at a coarser level, whose window is wide enough to
        // hold anything the old windows could (windows nest upward).
        let mut moved: Vec<Entry> = Vec::new();
        for l in 0..LEVELS {
            let s = shift(l);
            let old_hb = self.horizon >> s;
            let new_top = (new_h >> s) + SLOTS as u64;
            let mut occ = self.occupied[l];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let off = (slot as u64).wrapping_sub(old_hb) & (SLOTS as u64 - 1);
                let id = old_hb + off;
                if id >= new_top {
                    moved.append(&mut self.buckets[l * SLOTS + slot]);
                    self.occupied[l] &= !(1u64 << slot);
                }
            }
        }
        let pos = self.ready.partition_point(|x| x.at.as_nanos() >= new_h);
        self.horizon = new_h;
        // Descending order: `[0, pos)` holds the entries at/above the
        // new horizon; the tail keeps its committed status.
        let keep = self.ready.split_off(pos);
        let demoted = std::mem::replace(&mut self.ready, keep);
        self.horizon_demotions += demoted.len() as u64;
        // All of these are at/above the new horizon: they re-enter
        // through the wheel/overflow paths, never the late path, so the
        // recursion is depth-one.
        for e in demoted {
            self.insert(e);
        }
        for e in moved {
            self.insert(e);
        }
    }

    /// Drains the overflow list back through `insert` against the
    /// current horizon. Entries still beyond the top window return to
    /// the overflow; the rest are counted as promotions.
    fn promote_overflow(&mut self) {
        let stash = std::mem::take(&mut self.overflow);
        let before = stash.len();
        self.overflow_min = u64::MAX;
        for e in stash {
            self.insert(e);
        }
        self.overflow_promotions += (before - self.overflow.len()) as u64;
    }

    /// Refills the ready batch from the wheel. Caller guarantees the
    /// batch is empty and at least one entry is pending.
    ///
    /// Termination: an overflow promotion strictly shrinks the overflow
    /// (the guard only fires when its minimum fits the wheel), and a
    /// cascade re-buckets entries at a strictly finer level (after the
    /// horizon advances to the coarse bucket's span start, an entry's
    /// bucket id at the next finer level is within 64 of the horizon's).
    fn refill(&mut self) {
        debug_assert!(self.ready.is_empty());
        loop {
            // Earliest candidate bucket per level, clamped to the
            // horizon (a coarse bucket's span may begin before it).
            let mut best_level = usize::MAX;
            let mut best_key = self.overflow_min;
            let mut best_bucket = 0u64;
            for l in 0..LEVELS {
                let occ = self.occupied[l];
                if occ == 0 {
                    continue;
                }
                let s = shift(l);
                let hb = self.horizon >> s;
                let off = occ
                    .rotate_right((hb & (SLOTS as u64 - 1)) as u32)
                    .trailing_zeros() as u64;
                let b = hb + off;
                let k = (b << s).max(self.horizon);
                // `<=`: on ties prefer the coarsest level — its bucket
                // may hide events earlier than a finer candidate's, so
                // it must cascade before anything commits.
                if k <= best_key {
                    best_level = l;
                    best_key = k;
                    best_bucket = b;
                }
            }
            if best_level == usize::MAX {
                if self.overflow.is_empty() {
                    return; // queue empty
                }
                // The overflow holds the global minimum: rebase the
                // horizon onto it and fold it into the wheel.
                self.horizon = self.overflow_min;
                self.promote_overflow();
                continue;
            }
            let s = shift(best_level);
            let bucket_end = (best_bucket + 1) << s;
            if self.overflow_min < bucket_end {
                // A far-future timer has come inside this bucket's span
                // (possible after a long virtual-time jump). Any
                // timestamp below `bucket_end` fits the wheel's window,
                // so this promotion strictly shrinks the overflow.
                self.promote_overflow();
                continue;
            }
            let slot = (best_bucket & (SLOTS as u64 - 1)) as usize;
            let mut chain = std::mem::take(&mut self.buckets[best_level * SLOTS + slot]);
            self.occupied[best_level] &= !(1u64 << slot);
            if best_level == 0 {
                // Commit: every pending entry below `bucket_end` is in
                // this chain. Sort descending so pops come off the back.
                if chain.len() > self.max_drain_batch {
                    self.max_drain_batch = chain.len();
                }
                chain.sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                // Advance the horizon just past the last committed
                // entry, NOT to the bucket's end. A sparse bucket far
                // ahead of `now` (first schedule into an empty queue,
                // post-overflow rebase) would otherwise drag the horizon
                // a whole level-0 window forward, and every later
                // schedule under it would take the O(|ready|) late-path
                // insert — quadratic once the queue is large. With a
                // tight horizon the bucket's unconsumed tail span stays
                // wheel-addressable (slot `b` still satisfies the window
                // rule), so new arrivals there re-occupy the bucket
                // instead of piling into `ready`.
                self.horizon = chain[0].at.as_nanos() + 1;
                // Recycle the old ready allocation as the empty bucket.
                let recycled = std::mem::replace(&mut self.ready, chain);
                self.buckets[slot] = recycled;
                return;
            }
            // Coarse bucket: advance the horizon to its span start
            // (nothing pending is earlier), then cascade its entries
            // down. Re-insertion lands each at a strictly finer level.
            let span_start = best_bucket << s;
            if span_start > self.horizon {
                self.horizon = span_start;
            }
            self.cascade_moves += chain.len() as u64;
            for e in chain.drain(..) {
                self.insert(e);
            }
            self.buckets[best_level * SLOTS + slot] = chain;
        }
    }
}

/// The original `BinaryHeap`-backed scheduler, kept as the executable
/// reference implementation for the wheel-equivalence suite.
///
/// Same contract as [`EventQueue`]: pops in `(time, seq)` order, the
/// clock advances on pop, scheduling into the past debug-panics and
/// release-clamps. Not used on any production path.
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry>,
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events popped so far.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Number of payload slots the slab has ever allocated.
    pub fn slab_slots(&self) -> usize {
        self.slab.len()
    }

    /// Schedules `payload` at the absolute instant `at`.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        let seq = self.reserve_seq();
        self.schedule_reserved(at, seq, payload);
    }

    /// Takes the next FIFO tie-break number without scheduling anything.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` at `at` with a number from
    /// [`HeapQueue::reserve_seq`].
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let at = if at < self.now { self.now } else { at };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(payload);
                i
            }
            None => {
                self.slab.push(Some(payload));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Entry { at, seq, idx });
    }

    /// Schedules `payload` after a relative delay from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        self.popped += 1;
        let payload = self.slab[entry.idx as usize]
            .take()
            .expect("heap entry without slab payload");
        self.free.push(entry.idx);
        Some((entry.at, payload))
    }

    /// Drops all pending events, keeping the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), "c");
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(7));
        assert_eq!(q.now(), SimTime::from_millis(7));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_millis(10), 1u8);
        q.pop();
        q.schedule_in(SimDuration::from_millis(10), 2u8);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, SimTime::from_millis(20));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_keeps_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(3), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(9), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_millis(3));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(5), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(1), ());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn scheduling_into_past_clamps_and_counts_in_release() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(5), 0u8);
        q.pop();
        assert_eq!(q.sched_past_clamps(), 0);
        q.schedule_at(SimTime::from_millis(1), 1u8);
        assert_eq!(q.sched_past_clamps(), 1);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_millis(5), 1));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(1), 1);
        q.schedule_at(SimTime::from_millis(100), 100);
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, 1);
        q.schedule_at(SimTime::from_millis(50), 50);
        let (_, second) = q.pop().unwrap();
        assert_eq!(second, 50);
        let (_, third) = q.pop().unwrap();
        assert_eq!(third, 100);
    }

    #[test]
    fn slab_slots_are_recycled() {
        // Heavy schedule/pop churn must not grow the slab beyond the
        // high-water mark of concurrently pending events.
        let mut q = EventQueue::new();
        for round in 0..1_000u64 {
            for k in 0..4u64 {
                q.schedule_in(SimDuration::from_millis(k + 1), round * 4 + k);
            }
            for _ in 0..4 {
                q.pop().unwrap();
            }
        }
        assert!(q.is_empty());
        assert!(
            q.slab.len() <= 8,
            "slab grew to {} slots for 4 pending events",
            q.slab.len()
        );
        assert_eq!(q.events_processed(), 4_000);
    }

    #[test]
    fn bucket_boundary_timestamps_pop_in_order() {
        // Timestamps straddling level-0 bucket edges (multiples of
        // 2^BASE_SHIFT ns) must not reorder.
        let mut q = EventQueue::new();
        let span = 1u64 << BASE_SHIFT;
        let mut want = Vec::new();
        for b in 1..5u64 {
            for t in [b * span - 1, b * span, b * span + 1] {
                q.schedule_at(SimTime::from_nanos(t), t);
                want.push(t);
            }
        }
        want.sort_unstable();
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn far_future_outlier_goes_through_overflow() {
        let mut q = EventQueue::new();
        // Beyond level 5's window (~1.6 years): must park in overflow.
        let far = SimTime::from_nanos(1u64 << 60);
        q.schedule_at(far, "far");
        q.schedule_at(SimTime::from_millis(1), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.overflow_promotions() > 0, "overflow was never promoted");
        assert!(q.is_empty());
    }

    #[test]
    fn cascade_across_levels_preserves_order() {
        // Spread events over ~9 seconds (level-2 territory) so refills
        // must cascade coarse buckets down; order must stay exact.
        let mut q = EventQueue::new();
        let mut want = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..500u64 {
            // xorshift64*: deterministic pseudo-random offsets.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let t = x.wrapping_mul(0x2545_f491_4f6c_dd1d) % 9_000_000_000;
            q.schedule_at(SimTime::from_nanos(t), (t, i));
            want.push((t, i));
        }
        want.sort_unstable();
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, want);
        assert!(q.cascade_moves() > 0, "no cascades across a 9 s spread");
    }

    #[test]
    fn late_schedule_into_committed_span_pops_in_order() {
        // After a pop, the horizon sits at the end of the drained
        // bucket; scheduling inside that span must sorted-insert into
        // the ready batch, not a wheel bucket.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(100), "a");
        q.schedule_at(SimTime::from_micros(900), "d");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule_at(SimTime::from_micros(300), "b");
        q.schedule_at(SimTime::from_micros(300), "c");
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, vec!["b", "c", "d"]);
    }

    #[test]
    fn wheel_matches_heap_on_mixed_churn() {
        // Deterministic smoke version of the proptest equivalence suite
        // (tests/scheduler.rs): identical op sequences through both
        // engines must produce identical pop streams.
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for i in 0..20_000u64 {
            let r = rng();
            if r % 3 == 0 && !wheel.is_empty() {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a.as_ref().map(|(t, e)| (*t, *e)), b, "pop {i} diverged");
                assert_eq!(wheel.now(), heap.now());
            } else {
                // Mix of sub-bucket, RTT-scale, and rare far offsets.
                let ns = match r % 7 {
                    0 => 0,
                    1..=3 => r % 2_000_000,
                    4 | 5 => r % 400_000_000,
                    _ => r % (1u64 << 53),
                };
                let delay = SimDuration::from_nanos(ns);
                wheel.schedule_in(delay, i);
                heap.schedule_in(delay, i);
            }
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.peek_time(), heap.peek_time(), "peek {i} diverged");
        }
        while let Some(a) = wheel.pop() {
            assert_eq!(Some(a), heap.pop());
        }
        assert!(heap.is_empty());
    }
}
