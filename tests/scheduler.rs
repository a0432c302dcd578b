//! Scheduler equivalence: the timing-wheel `EventQueue` against the
//! `HeapQueue` reference implementation.
//!
//! The wheel replaces the binary heap on every hot path, and the whole
//! determinism contract (byte-identical goldens at any thread count)
//! rests on the two engines being observationally identical: same pop
//! order, same clock, same lengths, same peeks, for *any* interleaving
//! of `schedule_at` / `schedule_in` / `pop` — including simultaneous
//! timestamps (FIFO tie-break), bucket-boundary timestamps, far-future
//! outliers (overflow parking + promotion), and spreads wide enough to
//! force multi-level cascades at wheel rollover. Reserved sequence
//! numbers are part of the contract: an event the wheel schedules late
//! with `schedule_reserved` must pop where the heap's eager schedule at
//! reservation time pops.

use proptest::prelude::*;
use simcore::time::{SimDuration, SimTime};
use simcore::{EventQueue, HeapQueue};

/// Schedules the same payload at the same instant into both engines.
fn sched_at(wheel: &mut EventQueue<u64>, heap: &mut HeapQueue<u64>, t: SimTime, id: u64) {
    wheel.schedule_at(t, id);
    heap.schedule_at(t, id);
}

/// Pops both engines and asserts identical results and clocks.
fn pop_both(wheel: &mut EventQueue<u64>, heap: &mut HeapQueue<u64>) -> bool {
    let a = wheel.pop();
    let b = heap.pop();
    assert_eq!(a, b, "pop streams diverged");
    assert_eq!(wheel.now(), heap.now(), "clocks diverged");
    a.is_some()
}

/// Drains both engines to empty, asserting lock-step equality.
fn drain_both(wheel: &mut EventQueue<u64>, heap: &mut HeapQueue<u64>) {
    while pop_both(wheel, heap) {}
    assert!(wheel.is_empty() && heap.is_empty());
}

/// Reservations the wheel has taken but not scheduled yet:
/// `(at, seq, id)`. The heap scheduled each one eagerly.
type Reserved = Vec<(SimTime, u64, u64)>;

/// Schedules on the wheel every reservation at or before its earliest
/// pending event, so the next pop cannot pass one.
fn schedule_due(wheel: &mut EventQueue<u64>, reserved: &mut Reserved) {
    let due = wheel.peek_time().unwrap_or(SimTime::MAX);
    reserved.retain(|&(at, seq, id)| {
        if at <= due {
            wheel.schedule_reserved(at, seq, id);
        }
        at > due
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of schedules and pops across every timescale
    /// the simulator uses — sub-bucket, RTT, RTO, fault-window — plus
    /// deliberately colliding timestamps and far-future outliers.
    #[test]
    fn wheel_matches_heap_on_random_interleavings(
        ops in prop::collection::vec((0u64..10, 0u64..u64::MAX), 1..300)
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut reserved = Reserved::new();
        let mut id = 0u64;
        for &(kind, raw) in &ops {
            match kind {
                // Pops get double weight so queues drain as well as grow.
                0 | 1 => {
                    schedule_due(&mut wheel, &mut reserved);
                    pop_both(&mut wheel, &mut heap);
                }
                // Reserve a seq: the heap schedules now, the wheel keeps
                // the reservation and schedules it later (op 9, or just
                // before a pop could pass it). Colliding RTT-scale
                // offsets put reserved events between eager ones at the
                // same instant.
                8 => {
                    let d = SimDuration::from_nanos((raw % 8) * 25_000_000);
                    let at = wheel.now() + d;
                    let seq = wheel.reserve_seq();
                    heap.schedule_at(at, id);
                    reserved.push((at, seq, id));
                    id += 1;
                }
                // Schedule one pending reservation before it is due.
                9 => {
                    if !reserved.is_empty() {
                        let k = (raw % reserved.len() as u64) as usize;
                        let (at, seq, rid) = reserved.swap_remove(k);
                        wheel.schedule_reserved(at, seq, rid);
                    }
                }
                // Heavily colliding offsets: only 8 distinct values, so
                // the FIFO tie-break is exercised constantly.
                2 => {
                    let d = SimDuration::from_nanos((raw % 8) * 500_000);
                    wheel.schedule_in(d, id);
                    heap.schedule_in(d, id);
                    id += 1;
                }
                // Sub-bucket offsets (below the ~2.1 ms level-0 span).
                3 => {
                    let d = SimDuration::from_nanos(raw % 2_100_000);
                    wheel.schedule_in(d, id);
                    heap.schedule_in(d, id);
                    id += 1;
                }
                // RTT/RTO scale (level 1-2 territory).
                4 => {
                    let d = SimDuration::from_nanos(raw % 400_000_000);
                    wheel.schedule_in(d, id);
                    heap.schedule_in(d, id);
                    id += 1;
                }
                // Fault-window scale (minutes): multi-level cascades.
                5 => {
                    let d = SimDuration::from_nanos(raw % 600_000_000_000);
                    wheel.schedule_in(d, id);
                    heap.schedule_in(d, id);
                    id += 1;
                }
                // Exact bucket-boundary timestamps: multiples of the
                // 2^21 ns level-0 span, and their +/-1 neighbours.
                6 => {
                    let base = wheel.now().as_nanos();
                    let k = (base >> 21) + 1 + (raw % 64);
                    let t = ((k << 21) + (raw % 3)).saturating_sub(1).max(base);
                    sched_at(&mut wheel, &mut heap, SimTime::from_nanos(t), id);
                    id += 1;
                }
                // Far-future outliers, up to beyond the top level's
                // window: parks in the overflow, later promoted.
                _ => {
                    let t = wheel
                        .now()
                        .as_nanos()
                        .saturating_add(1u64 << (40 + (raw % 23)));
                    sched_at(&mut wheel, &mut heap, SimTime::from_nanos(t), id);
                    id += 1;
                }
            }
            let peek = reserved.iter().map(|r| r.0).chain(wheel.peek_time()).min();
            assert_eq!(wheel.len() + reserved.len(), heap.len(), "lengths diverged");
            assert_eq!(peek, heap.peek_time(), "peeks diverged");
        }
        schedule_due(&mut wheel, &mut reserved);
        while !reserved.is_empty() {
            pop_both(&mut wheel, &mut heap);
            schedule_due(&mut wheel, &mut reserved);
        }
        drain_both(&mut wheel, &mut heap);
    }

    /// Dense simultaneous bursts: many events at exactly the same
    /// instant must pop in insertion order from both engines.
    #[test]
    fn simultaneous_bursts_stay_fifo(
        bursts in prop::collection::vec((0u64..50, 1u64..40), 1..20)
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut id = 0u64;
        for &(slot_ms, count) in &bursts {
            let t = SimTime::from_millis(slot_ms);
            for _ in 0..count {
                // Clamp below current time is exercised deliberately in
                // release; under proptest (debug) keep times legal.
                let t = t.max(wheel.now());
                sched_at(&mut wheel, &mut heap, t, id);
                id += 1;
            }
            // Partial drain between bursts.
            for _ in 0..(count / 2) {
                pop_both(&mut wheel, &mut heap);
            }
        }
        drain_both(&mut wheel, &mut heap);
    }
}

/// Slot-index wraparound: scheduling a stream of events that marches
/// across many multiples of the level-0 window (64 buckets) forces the
/// refill scan to rotate its occupancy bitmaps past the wrap point and
/// to cascade level-1 buckets down as the horizon advances.
#[test]
fn wheel_rollover_cascade_matches_heap() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    let bucket_ns = 1u64 << 21;
    // 400 events, one per ~bucket, spanning ~6 level-0 windows; pop two
    // of every three as we go so schedules interleave with refills.
    for i in 0..400u64 {
        let t = SimTime::from_nanos(i * bucket_ns + (i % 7) * 1_000);
        let t = t.max(wheel.now());
        sched_at(&mut wheel, &mut heap, t, i);
        if i % 3 != 0 {
            pop_both(&mut wheel, &mut heap);
        }
    }
    drain_both(&mut wheel, &mut heap);
    assert!(
        wheel.cascade_moves() > 0,
        "a 400-bucket march must cascade at least once"
    );
}

/// Horizon demotion: a far-future first event into an empty queue
/// commits its bucket and drags the horizon hours ahead of `now`; the
/// next near-term schedule must rebase the horizon back down (restoring
/// O(1) bucket inserts instead of growing a sorted-insert hotspot in
/// the ready batch) while keeping exact heap order.
#[test]
fn far_first_event_then_near_traffic_demotes_horizon() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    let hour = SimTime::from_nanos(3_600_000_000_000);
    sched_at(&mut wheel, &mut heap, hour, 0);
    assert_eq!(wheel.peek_time(), heap.peek_time());
    // Near-term burst far below the leapt horizon.
    for i in 0..500u64 {
        let d = SimDuration::from_micros(10 + (i * 37) % 5_000);
        wheel.schedule_in(d, 1 + i);
        heap.schedule_in(d, 1 + i);
        assert_eq!(wheel.peek_time(), heap.peek_time());
    }
    assert!(
        wheel.horizon_demotions() >= 1,
        "the leapt horizon must rebase down for near traffic"
    );
    drain_both(&mut wheel, &mut heap);
}

/// Overflow promotion: timers parked beyond the top level's window must
/// re-enter the wheel when the horizon catches up, in exact order.
#[test]
fn overflow_promotion_preserves_order() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    // Two sentinels far beyond the wheel's reach, interleaved with near
    // traffic; one pair shares a timestamp to check FIFO across the
    // overflow/wheel divide.
    let far = SimTime::from_nanos(1u64 << 60);
    sched_at(&mut wheel, &mut heap, far, 0);
    sched_at(&mut wheel, &mut heap, SimTime::from_millis(5), 1);
    sched_at(&mut wheel, &mut heap, far, 2);
    sched_at(&mut wheel, &mut heap, SimTime::from_secs(2), 3);
    assert_eq!(wheel.peek_time(), heap.peek_time());
    drain_both(&mut wheel, &mut heap);
    // The first sentinel parks in the overflow and is promoted when the
    // horizon rebases onto it; the second shares its timestamp, so it
    // lands directly in the already-committed span.
    assert!(
        wheel.overflow_promotions() >= 1,
        "the far timer must round-trip through the overflow"
    );

    // After promotion the engines keep working: the clock sits at the
    // sentinel now, and new relative schedules still order correctly.
    wheel.schedule_in(SimDuration::from_millis(3), 10);
    heap.schedule_in(SimDuration::from_millis(3), 10);
    wheel.schedule_in(SimDuration::from_millis(1), 11);
    heap.schedule_in(SimDuration::from_millis(1), 11);
    drain_both(&mut wheel, &mut heap);
}
