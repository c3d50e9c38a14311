//! A generic discrete-event queue keyed by virtual time.
//!
//! The platform simulator schedules container reclamations and invocation
//! arrivals as events; ties at the same instant pop in insertion order so
//! simulations are fully deterministic.
//!
//! # Implementation: hierarchical timing wheel
//!
//! [`EventQueue`] is a hierarchical timing wheel: `LEVELS` (7) levels of
//! `SLOTS` (64) buckets each, where a level-`L` slot spans `64^L`
//! microseconds (power-of-two bucket spans, `BITS` (6) bits per level). An
//! event lands at the lowest level whose resolution still separates it from
//! the wheel cursor; events beyond the top level's horizon (~52 simulated
//! days) wait in an overflow list. Scheduling is O(1); popping finds the
//! earliest non-empty bucket with one occupancy-bitmap scan per level and
//! cascades coarse buckets down as the cursor reaches them, so each event is
//! touched at most `LEVELS` times over its lifetime — versus the O(log n)
//! comparisons *per operation* of the binary heap it replaced. Ties at the
//! same instant still pop in `seq` (insertion) order: level-0 buckets
//! resolve to a single microsecond, and draining one picks the minimum
//! `(at, seq)` entry.
//!
//! The previous `BinaryHeap` implementation lives on as the
//! differential-testing oracle of the `event_wheel_differential` suite.

use crate::time::SimTime;

/// Bits per wheel level: each level has `2^BITS` slots.
const BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << BITS;
/// Wheel levels; level `L` slots span `2^(BITS·L)` µs, so the wheel covers
/// `2^(BITS·LEVELS)` µs (~52 days) before events fall into the overflow.
const LEVELS: usize = 7;
/// Bucket array size: `LEVELS * SLOTS` rounded up to the next power of two,
/// so a masked index provably stays in bounds and the per-placement bounds
/// check vanishes (the top 64 buckets are simply never addressed).
const BUCKETS: usize = (LEVELS * SLOTS).next_power_of_two();

/// An entry in the queue: payload `T` due at `at`.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

/// One wheel slot: FIFO of entries plus a cached minimum due time (valid
/// while the bucket is non-empty) so peeks never scan entries.
#[derive(Debug, Clone)]
struct Bucket<T> {
    entries: Vec<Entry<T>>,
    min_at: SimTime,
}

impl<T> Bucket<T> {
    fn new() -> Self {
        Bucket {
            entries: Vec::new(),
            min_at: SimTime::MAX,
        }
    }
}

/// A deterministic earliest-first event queue (hierarchical timing wheel).
///
/// # Example
///
/// ```
/// use slimstart_simcore::event::EventQueue;
/// use slimstart_simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "late");
/// q.schedule(SimTime::from_millis(1), "early");
/// assert_eq!(q.pop().map(|(_, p)| p), Some("early"));
/// assert_eq!(q.pop().map(|(_, p)| p), Some("late"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// [`BUCKETS`] buckets, level-major (`level·SLOTS + slot`).
    buckets: Box<[Bucket<T>; BUCKETS]>,
    /// One occupancy bit per slot, per level.
    occupancy: [u64; LEVELS],
    /// Events beyond the wheel horizon, unordered.
    overflow: Vec<Entry<T>>,
    /// Minimum due time in `overflow` (valid while non-empty).
    overflow_min: SimTime,
    /// Placement reference, µs. Invariants: never decreases, and never
    /// exceeds any pending entry's placement time — so every non-empty
    /// slot at each level sits at or beyond the cursor's index there.
    cursor: u64,
    len: usize,
    next_seq: u64,
    /// Exact global minimum due time while `cached_min_valid` — lets the
    /// hot "anything due yet?" probe skip the level scan. `SimTime::MAX`
    /// means the queue is empty.
    cached_min: SimTime,
    /// Whether `cached_min` is trustworthy; invalidated by [`EventQueue::pop`],
    /// restored by the next full scan.
    cached_min_valid: bool,
    /// Capacity reservoir rotated through cascades: the emptied bucket
    /// swaps its allocation in here instead of dropping it, so steady-state
    /// cascading performs no heap traffic.
    spare: Vec<Entry<T>>,
    /// Scratch for [`EventQueue::pop_due_into`]'s batch collection; kept on
    /// the queue so repeated drains reuse one allocation.
    due_scratch: Vec<Entry<T>>,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let buckets: Vec<Bucket<T>> = (0..BUCKETS).map(|_| Bucket::new()).collect();
        let buckets = match <Box<[Bucket<T>; BUCKETS]>>::try_from(buckets.into_boxed_slice()) {
            Ok(array) => array,
            Err(_) => unreachable!("constructed with exactly BUCKETS elements"),
        };
        EventQueue {
            buckets,
            occupancy: [0; LEVELS],
            overflow: Vec::new(),
            overflow_min: SimTime::MAX,
            cursor: 0,
            len: 0,
            next_seq: 0,
            cached_min: SimTime::MAX,
            cached_min_valid: true,
            spare: Vec::new(),
            due_scratch: Vec::new(),
        }
    }

    /// Schedules `payload` at instant `at`.
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // A valid cached minimum stays exact under insertion.
        self.cached_min = self.cached_min.min(at);
        self.place(Entry { at, seq, payload });
        self.len += 1;
    }

    /// Inserts an entry at the level/slot implied by the current cursor.
    /// Due times in the past (before the cursor) are placed at the cursor
    /// itself; ordering still uses the entry's true `at`.
    fn place(&mut self, entry: Entry<T>) {
        let t = entry.at.as_micros().max(self.cursor);
        let diff = t ^ self.cursor;
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / BITS) as usize
        };
        if level >= LEVELS {
            if entry.at < self.overflow_min {
                self.overflow_min = entry.at;
            }
            self.overflow.push(entry);
            return;
        }
        let slot = ((t >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let bucket = &mut self.buckets[(level * SLOTS + slot) & (BUCKETS - 1)];
        if bucket.entries.is_empty() || entry.at < bucket.min_at {
            bucket.min_at = entry.at;
        }
        bucket.entries.push(entry);
        self.occupancy[level] |= 1u64 << slot;
    }

    /// The `(level, slot, min_at)` of the bucket holding the earliest
    /// pending event; `level == LEVELS` designates the overflow list.
    ///
    /// Bucket time ranges are pairwise disjoint and *nested by level*:
    /// every level-`L` entry shares the cursor's level-`L+1` window (its
    /// address differs from the cursor only below bit `6·(L+1)`), while an
    /// occupied level-`L+1` slot differs from the cursor's — an entry in
    /// the cursor's own slot would have been placed at a finer level — so
    /// it sits in a strictly later window. The first occupied level from
    /// the bottom therefore holds the global minimum, and overflow entries
    /// (beyond the horizon) are later than everything in the wheel.
    fn best_bucket(&self) -> Option<(usize, usize, SimTime)> {
        for level in 0..LEVELS {
            let occ = self.occupancy[level];
            if occ != 0 {
                // Within a level, slot ranges are disjoint and increasing,
                // so the lowest occupied slot is the earliest.
                let slot = occ.trailing_zeros() as usize;
                let min_at = self.buckets[(level * SLOTS + slot) & (BUCKETS - 1)].min_at;
                return Some((level, slot, min_at));
            }
        }
        if !self.overflow.is_empty() {
            return Some((LEVELS, 0, self.overflow_min));
        }
        None
    }

    /// The first instant covered by `slot` at `level`, relative to the
    /// cursor's position.
    fn bucket_start(&self, level: usize, slot: usize) -> u64 {
        let shift = BITS * level as u32;
        let window = !((1u64 << (shift + BITS)) - 1);
        (self.cursor & window) | ((slot as u64) << shift)
    }

    /// The overflow holds the global minimum: advance the cursor to it and
    /// pull every overflow event that now fits the wheel horizon back in
    /// (the minimum itself always does; the rest may spill right back).
    fn rescue_overflow(&mut self) {
        self.cursor = self.cursor.max(self.overflow_min.as_micros());
        let mut entries = std::mem::replace(&mut self.overflow, std::mem::take(&mut self.spare));
        self.overflow_min = SimTime::MAX;
        for e in entries.drain(..) {
            self.place(e);
        }
        self.spare = entries;
    }

    /// Cascades a coarse bucket's entries to finer levels (each lands
    /// strictly below `level` relative to the already-advanced cursor). The
    /// bucket's allocation rotates through `spare` instead of being freed.
    fn cascade(&mut self, level: usize, slot: usize) {
        debug_assert!(level > 0);
        let bucket = &mut self.buckets[(level * SLOTS + slot) & (BUCKETS - 1)];
        let mut entries = std::mem::replace(&mut bucket.entries, std::mem::take(&mut self.spare));
        bucket.min_at = SimTime::MAX;
        self.occupancy[level] &= !(1u64 << slot);
        for e in entries.drain(..) {
            self.place(e);
        }
        self.spare = entries;
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        loop {
            let Some((level, slot, _)) = self.best_bucket() else {
                self.cached_min = SimTime::MAX;
                self.cached_min_valid = true;
                return None;
            };

            if level == LEVELS {
                self.rescue_overflow();
                continue;
            }

            let start = self.bucket_start(level, slot);
            self.cursor = self.cursor.max(start);

            if level > 0 {
                self.cascade(level, slot);
                continue;
            }

            // Level-0 bucket: one microsecond of span, so every entry is a
            // tie except past-due events clamped to the cursor slot — pick
            // the minimum (at, seq).
            let bucket = &mut self.buckets[slot & (BUCKETS - 1)];
            let mut pick = 0;
            for (i, e) in bucket.entries.iter().enumerate().skip(1) {
                let best = &bucket.entries[pick];
                if (e.at, e.seq) < (best.at, best.seq) {
                    pick = i;
                }
            }
            let entry = bucket.entries.swap_remove(pick);
            if bucket.entries.is_empty() {
                bucket.min_at = SimTime::MAX;
                self.occupancy[0] &= !(1u64 << slot);
            } else {
                bucket.min_at = bucket
                    .entries
                    .iter()
                    .map(|e| e.at)
                    .min()
                    .expect("bucket is non-empty");
            }
            self.len -= 1;
            // The minimum just left; the next one is unknown until the next
            // scan.
            self.cached_min_valid = false;
            return Some((entry.at, entry.payload));
        }
    }

    /// The due time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.cached_min_valid {
            // `cached_min` is exact; `len` (not MAX-ness) distinguishes the
            // empty queue from an event genuinely due at `SimTime::MAX`.
            return if self.len == 0 {
                None
            } else {
                Some(self.cached_min)
            };
        }
        self.best_bucket().map(|(_, _, min_at)| min_at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drains all events due at or before `now`, earliest first.
    ///
    /// Allocates a fresh `Vec` per call; hot loops should hold a scratch
    /// buffer and use [`EventQueue::pop_due_into`] instead.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<(SimTime, T)> {
        let mut due = Vec::new();
        self.pop_due_into(now, &mut due);
        due
    }

    /// Drains all events due at or before `now` into `buf`, earliest first.
    ///
    /// `buf` is cleared first, so callers can reuse one scratch buffer across
    /// calls and amortize the allocation to zero once it reaches its
    /// high-water mark. In the common no-event case this is a single
    /// occupancy-bitmap scan with no allocation at all.
    pub fn pop_due_into(&mut self, now: SimTime, buf: &mut Vec<(SimTime, T)>) {
        buf.clear();
        if self.cached_min_valid && (self.len == 0 || self.cached_min > now) {
            // Nothing due: one compare instead of a level scan.
            return;
        }
        let mut due = std::mem::take(&mut self.due_scratch);
        let now_us = now.as_micros();
        loop {
            let Some((level, slot, min_at)) = self.best_bucket() else {
                self.cached_min = SimTime::MAX;
                self.cached_min_valid = true;
                break;
            };
            if min_at > now {
                self.cached_min = min_at;
                self.cached_min_valid = true;
                break;
            }
            if level == LEVELS {
                self.rescue_overflow();
                continue;
            }
            let start = self.bucket_start(level, slot);
            self.cursor = self.cursor.max(start);
            let span = 1u64 << (BITS * level as u32);
            if start.saturating_add(span - 1) <= now_us {
                // The bucket's whole time span is due, so every entry in it
                // is (clamped past-due ones even more so): collect it raw,
                // skipping the cascade entirely — each event is touched
                // once here instead of once per remaining level, and the
                // (at, seq) order pop would have produced is restored by
                // the single sort below.
                let bucket = &mut self.buckets[(level * SLOTS + slot) & (BUCKETS - 1)];
                self.len -= bucket.entries.len();
                self.occupancy[level] &= !(1u64 << slot);
                bucket.min_at = SimTime::MAX;
                due.append(&mut bucket.entries);
                continue;
            }
            if level > 0 {
                // Partially-due coarse bucket: split instead of cascading
                // wholesale. Due entries exit here — touched once, never
                // cascaded — and only the not-yet-due remainder re-places
                // into finer levels.
                let bucket = &mut self.buckets[(level * SLOTS + slot) & (BUCKETS - 1)];
                let mut entries =
                    std::mem::replace(&mut bucket.entries, std::mem::take(&mut self.spare));
                bucket.min_at = SimTime::MAX;
                self.occupancy[level] &= !(1u64 << slot);
                for e in entries.drain(..) {
                    if e.at <= now {
                        self.len -= 1;
                        due.push(e);
                    } else {
                        self.place(e);
                    }
                }
                self.spare = entries;
                continue;
            }
            // A level-0 slot whose instant is beyond `now`, yet its minimum
            // is due: only past-due entries clamped into the cursor slot
            // qualify. Extract exactly those.
            let bucket = &mut self.buckets[slot & (BUCKETS - 1)];
            let mut i = 0;
            while i < bucket.entries.len() {
                if bucket.entries[i].at <= now {
                    due.push(bucket.entries.swap_remove(i));
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
            if bucket.entries.is_empty() {
                self.occupancy[0] &= !(1u64 << slot);
                bucket.min_at = SimTime::MAX;
            } else {
                bucket.min_at = bucket
                    .entries
                    .iter()
                    .map(|e| e.at)
                    .min()
                    .expect("bucket is non-empty");
            }
        }
        // Buckets were collected earliest-range-first, so `due` is nearly
        // sorted already; (at, seq) is a total order (seq is unique), so an
        // unstable sort reproduces pop's exact FIFO-tie sequence.
        due.sort_unstable_by_key(|e| (e.at, e.seq));
        buf.extend(due.drain(..).map(|e| (e.at, e.payload)));
        self.due_scratch = due;
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), 5);
        q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.schedule(t, "a");
        q.schedule(t, "b");
        q.schedule(t, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_due_splits_correctly() {
        let mut q = EventQueue::new();
        for ms in [1u64, 2, 3, 4, 5] {
            q.schedule(SimTime::from_millis(ms), ms);
        }
        let due = q.pop_due(SimTime::from_millis(3));
        assert_eq!(
            due.iter().map(|(_, p)| *p).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_due_into_reuses_buffer() {
        let mut q = EventQueue::new();
        for ms in [1u64, 2, 3] {
            q.schedule(SimTime::from_millis(ms), ms);
        }
        let mut buf = Vec::with_capacity(8);
        q.pop_due_into(SimTime::from_millis(2), &mut buf);
        assert_eq!(buf.iter().map(|(_, p)| *p).collect::<Vec<_>>(), vec![1, 2]);
        let cap = buf.capacity();
        // Stale contents are cleared, capacity is retained.
        q.pop_due_into(SimTime::from_millis(1), &mut buf);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), cap);
        q.pop_due_into(SimTime::from_millis(3), &mut buf);
        assert_eq!(buf.iter().map(|(_, p)| *p).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert!(q.pop_due(SimTime::MAX).is_empty());
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        // Beyond the 2^42 µs wheel horizon — lands in the overflow list.
        let far = SimTime::from_micros(1 << 50);
        q.schedule(far, "far");
        q.schedule(SimTime::from_millis(1), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop().map(|(_, p)| p), Some("near"));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn max_instant_round_trips() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "end");
        q.schedule(SimTime::ZERO, "start");
        assert_eq!(q.pop().map(|(_, p)| p), Some("start"));
        assert_eq!(q.pop(), Some((SimTime::MAX, "end")));
    }

    #[test]
    fn past_events_pop_before_present_ones() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "t10");
        assert_eq!(q.pop().map(|(_, p)| p), Some("t10"));
        // Scheduled before the last popped instant: still pops first, in
        // (at, seq) order, exactly like the reference heap.
        q.schedule(SimTime::from_millis(12), "t12");
        q.schedule(SimTime::from_millis(5), "t5");
        q.schedule(SimTime::from_millis(7), "t7");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["t5", "t7", "t12"]);
    }

    #[test]
    fn cascades_preserve_order_across_levels() {
        let mut q = EventQueue::new();
        // Spread events across every wheel level's span.
        let times: Vec<u64> = vec![
            3,
            64,
            65,
            4_095,
            4_096,
            262_143,
            262_145,
            16_777_215,
            1_073_741_824,
            68_719_476_736,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_micros())).collect();
        let mut expected = times.clone();
        expected.sort_unstable();
        assert_eq!(popped, expected);
    }
}
