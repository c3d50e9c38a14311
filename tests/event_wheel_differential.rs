//! Differential property test for the timing-wheel event queue.
//!
//! The wheel ([`EventQueue`]) replaced the binary heap as the simulation
//! scheduler; the heap survives as [`ReferenceEventQueue`] precisely so this
//! suite can drive both through identical operation interleavings and demand
//! identical observable behavior:
//!
//! 1. **Same pops.** Every `pop` returns the same `(time, payload)` pair from
//!    both queues, including FIFO tie-breaking for events scheduled at the
//!    same instant.
//! 2. **Same batches.** `pop_due_into` (and `pop_due`) drains the same due
//!    prefix in the same order at every probed horizon.
//! 3. **Same bookkeeping.** `len`/`is_empty`/`peek_time` agree after every
//!    operation.
//!
//! The generated schedules deliberately include same-instant ties, past-time
//! schedules (at times already popped), and far-future offsets beyond the
//! wheel's 2^42 µs horizon so the overflow spill/rescue path is exercised.

use slimstart::simcore::event::EventQueue;
use slimstart::simcore::{SimRng, SimTime};

use reference::ReferenceEventQueue;

mod reference {
    //! The pre-wheel `BinaryHeap` event queue, retained verbatim as the
    //! differential-testing oracle.

    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use slimstart::simcore::SimTime;

    #[derive(Debug, Clone)]
    struct Entry<T> {
        at: SimTime,
        seq: u64,
        payload: T,
    }

    impl<T> PartialEq for Entry<T> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }

    impl<T> Eq for Entry<T> {}

    impl<T> PartialOrd for Entry<T> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<T> Ord for Entry<T> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; reverse for earliest-first, with seq
            // as a FIFO tie-break.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The heap-backed oracle with the exact [`super::EventQueue`] API.
    #[derive(Debug, Clone)]
    pub struct ReferenceEventQueue<T> {
        heap: BinaryHeap<Entry<T>>,
        next_seq: u64,
    }

    impl<T> ReferenceEventQueue<T> {
        /// Creates an empty queue.
        pub fn new() -> Self {
            ReferenceEventQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        /// Schedules `payload` at instant `at`.
        pub fn schedule(&mut self, at: SimTime, payload: T) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, payload });
        }

        /// Removes and returns the earliest event, if any.
        pub fn pop(&mut self) -> Option<(SimTime, T)> {
            self.heap.pop().map(|e| (e.at, e.payload))
        }

        /// The due time of the earliest event, if any.
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// Whether the queue has no pending events.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Drains all events due at or before `now`, earliest first.
        pub fn pop_due(&mut self, now: SimTime) -> Vec<(SimTime, T)> {
            let mut due = Vec::new();
            self.pop_due_into(now, &mut due);
            due
        }

        /// Drains all events due at or before `now` into `buf`, earliest
        /// first. `buf` is cleared first.
        pub fn pop_due_into(&mut self, now: SimTime, buf: &mut Vec<(SimTime, T)>) {
            buf.clear();
            while let Some(t) = self.peek_time() {
                if t > now {
                    break;
                }
                buf.push(self.pop().expect("peeked event exists"));
            }
        }
    }

    impl<T> Default for ReferenceEventQueue<T> {
        fn default() -> Self {
            ReferenceEventQueue::new()
        }
    }
}

/// One randomized interleaving: mixed schedule / pop / pop_due_into traffic
/// driven against both queues in lockstep.
fn drive(seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: ReferenceEventQueue<u64> = ReferenceEventQueue::new();
    let mut wheel_buf = Vec::new();
    let mut heap_buf = Vec::new();
    let mut now = SimTime::ZERO;
    let mut payload = 0u64;

    for op in 0..ops {
        match rng.next_below(10) {
            // Schedule-heavy mix keeps the queues populated.
            0..=5 => {
                let offset = match rng.next_below(20) {
                    // Common case: near-future offsets inside level 0..3.
                    0..=13 => rng.next_below(1_000_000) as u64,
                    // Mid-range: minutes out, upper wheel levels.
                    14..=17 => rng.next_below(60_000_000) as u64,
                    // Same-instant tie with whatever `now` is.
                    18 => 0,
                    // Beyond the 2^42 µs horizon: overflow list.
                    _ => (1u64 << 43) + rng.next_below(1_000_000) as u64,
                };
                // Occasionally aim *behind* the cursor: a past-time schedule
                // must still pop (clamped), ordered by its true timestamp.
                let at = if rng.chance(0.1) && now.as_micros() > 10 {
                    SimTime::from_micros(now.as_micros() - rng.next_below(10) as u64)
                } else {
                    SimTime::from_micros(now.as_micros() + offset)
                };
                payload += 1;
                wheel.schedule(at, payload);
                heap.schedule(at, payload);
            }
            6..=7 => {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "seed {seed} op {op}: pop diverged");
                if let Some((at, _)) = a {
                    now = now.max(at);
                }
            }
            _ => {
                let horizon =
                    SimTime::from_micros(now.as_micros() + rng.next_below(5_000_000) as u64);
                wheel.pop_due_into(horizon, &mut wheel_buf);
                heap.pop_due_into(horizon, &mut heap_buf);
                assert_eq!(
                    wheel_buf, heap_buf,
                    "seed {seed} op {op}: pop_due_into diverged at {horizon:?}"
                );
                if let Some((at, _)) = wheel_buf.last() {
                    now = now.max(*at);
                }
            }
        }
        assert_eq!(wheel.len(), heap.len(), "seed {seed} op {op}: len diverged");
        assert_eq!(
            wheel.is_empty(),
            heap.is_empty(),
            "seed {seed} op {op}: is_empty diverged"
        );
        assert_eq!(
            wheel.peek_time(),
            heap.peek_time(),
            "seed {seed} op {op}: peek_time diverged"
        );
    }

    // The allocating batch drain agrees too, then a full drain must agree
    // to the last event.
    assert_eq!(
        wheel.pop_due(now),
        heap.pop_due(now),
        "seed {seed}: pop_due diverged at {now:?}"
    );
    while let Some(expected) = heap.pop() {
        assert_eq!(wheel.pop(), Some(expected), "seed {seed}: drain diverged");
    }
    assert!(wheel.is_empty());
}

#[test]
fn random_interleavings_match_the_reference_heap() {
    for seed in [1, 7, 42, 1234, 0xDEAD_BEEF, 2025] {
        drive(seed, 3_000);
    }
}

#[test]
fn same_instant_ties_drain_in_schedule_order() {
    let mut wheel: EventQueue<&str> = EventQueue::new();
    let mut heap: ReferenceEventQueue<&str> = ReferenceEventQueue::new();
    let at = SimTime::from_millis(5);
    for payload in ["first", "second", "third", "fourth"] {
        wheel.schedule(at, payload);
        heap.schedule(at, payload);
    }
    // A later event must not disturb the tie order of the earlier four.
    wheel.schedule(SimTime::from_millis(6), "later");
    heap.schedule(SimTime::from_millis(6), "later");
    for _ in 0..5 {
        assert_eq!(wheel.pop(), heap.pop());
    }
    assert_eq!(wheel.pop(), None);
}

#[test]
fn far_future_overflow_agrees_with_the_heap() {
    let mut wheel: EventQueue<u32> = EventQueue::new();
    let mut heap: ReferenceEventQueue<u32> = ReferenceEventQueue::new();
    // Interleave near events with ones far past the wheel horizon, then a
    // second near wave after the first drain forces overflow redistribution.
    let far = 1u64 << 44;
    for (i, at) in [3, far, 1, far + 2, 2, far + 1].iter().enumerate() {
        wheel.schedule(SimTime::from_micros(*at), i as u32);
        heap.schedule(SimTime::from_micros(*at), i as u32);
    }
    for _ in 0..3 {
        assert_eq!(wheel.pop(), heap.pop());
    }
    wheel.schedule(SimTime::from_micros(far + 3), 99);
    heap.schedule(SimTime::from_micros(far + 3), 99);
    while let Some(expected) = heap.pop() {
        assert_eq!(wheel.pop(), Some(expected));
    }
    assert!(wheel.is_empty());
}

#[test]
fn matches_reference_heap_on_random_interleavings() {
    for seed in 0..8u64 {
        let mut rng = SimRng::seed_from(0xE4E47 ^ seed);
        let mut wheel = EventQueue::new();
        let mut heap = ReferenceEventQueue::new();
        let mut base: u64 = 0;
        for _ in 0..2_000 {
            match rng.next_below(4) {
                0 | 1 => {
                    // Mixed horizons: ties, near, far, overflow-far.
                    let at = match rng.next_below(4) {
                        0 => base,
                        1 => base + rng.next_below(1_000) as u64,
                        2 => base + rng.next_below(600_000_000) as u64,
                        _ => base + (1u64 << 43) + rng.next_below(1_000) as u64,
                    };
                    let t = SimTime::from_micros(at);
                    wheel.schedule(t, at);
                    heap.schedule(t, at);
                }
                2 => {
                    assert_eq!(wheel.peek_time(), heap.peek_time());
                    let (w, h) = (wheel.pop(), heap.pop());
                    assert_eq!(w, h);
                    if let Some((t, _)) = w {
                        base = base.max(t.as_micros());
                    }
                }
                _ => {
                    let now = SimTime::from_micros(base + rng.next_below(10_000) as u64);
                    let mut wb = Vec::new();
                    let mut hb = Vec::new();
                    wheel.pop_due_into(now, &mut wb);
                    heap.pop_due_into(now, &mut hb);
                    assert_eq!(wb, hb);
                    base = base.max(now.as_micros());
                }
            }
            assert_eq!(wheel.len(), heap.len());
        }
        // Drain fully; order must agree to the last event.
        while let Some(h) = heap.pop() {
            assert_eq!(wheel.pop(), Some(h));
        }
        assert!(wheel.is_empty());
    }
}
