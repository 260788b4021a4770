//! The time-ordered event scheduler.
//!
//! [`EventQueue`] pops in ascending `(time, seq)` order, where `seq` is
//! the insertion number and scheduling in the past clamps to `now`. It
//! is a calendar queue (bucketed timing wheel) with an event arena:
//! O(1) amortized schedule/pop for the dense, near-future traffic a
//! protocol simulation generates, with a spill heap for far-future
//! events (pre-scheduled open-loop arrivals). The original binary-heap
//! scheduler lives on as the reference implementation in this crate's
//! `tests/reference`; the differential proptest holds the two to
//! identical pop sequences.

use crate::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of wheel buckets. Power of two so day→bucket is a mask.
const NB: usize = 4096;
/// log2 of the bucket width in time units (ns): buckets are 1 µs wide,
/// so the wheel spans ~4.2 ms — comfortably past the hop/persist
/// latencies that dominate in-window scheduling.
const SHIFT: u32 = 10;
const MASK: u64 = (NB as u64) - 1;
/// Occupancy bitmap words (NB bits).
const WORDS: usize = NB / 64;

/// A bucket entry; the payload lives in the arena at `slot`.
#[derive(Clone, Copy)]
struct Slot {
    time: Time,
    seq: u64,
    slot: u32,
}

/// One wheel bucket: entries sorted ascending by `(time, seq)`, with a
/// consumed prefix `[..pos]`. The common append (new maximum) and the
/// common pop (front of the live suffix) are both O(1); only an
/// out-of-order insert inside one 1 µs bucket pays a shift.
#[derive(Default)]
struct Bucket {
    entries: Vec<Slot>,
    pos: usize,
}

impl Bucket {
    fn live(&self) -> bool {
        self.pos < self.entries.len()
    }

    fn insert(&mut self, e: Slot) {
        if self
            .entries
            .last()
            .is_none_or(|l| (l.time, l.seq) < (e.time, e.seq))
        {
            self.entries.push(e);
        } else {
            let at = self.entries[self.pos..]
                .partition_point(|s| (s.time, s.seq) < (e.time, e.seq))
                + self.pos;
            self.entries.insert(at, e);
        }
    }

    fn front(&self) -> Option<&Slot> {
        self.entries.get(self.pos)
    }

    fn take_front(&mut self) -> Slot {
        let e = self.entries[self.pos];
        self.pos += 1;
        if self.pos == self.entries.len() {
            self.entries.clear();
            self.pos = 0;
        }
        e
    }
}

/// A deterministic time-ordered event queue (calendar queue).
///
/// Events scheduled for the same instant pop in insertion order, making
/// whole-simulation runs reproducible regardless of payload type. The
/// pop sequence is bit-identical to the binary-heap reference scheduler's
/// (`tests/reference`).
///
/// Layout: payloads live in a slab arena (`Vec<Option<E>>` plus a
/// freelist) so bucket entries are small `Copy` triples and a
/// schedule/pop cycle recycles its slot instead of allocating. Events
/// within the wheel's window land in per-µs buckets found through a
/// 4096-bit occupancy bitmap; events past the window wait in a spill
/// heap and migrate into the wheel when it drains (pops are monotone in
/// time, so the window only ever moves forward, and it only needs to
/// move when the wheel is empty or an insert lands past the horizon).
pub struct EventQueue<E> {
    buckets: Vec<Bucket>,
    occ: [u64; WORDS],
    /// First day (time >> SHIFT) of the wheel's window `[base_day,
    /// base_day + NB)`.
    base_day: u64,
    in_wheel: usize,
    /// Events whose day falls past the window horizon.
    overflow: BinaryHeap<Reverse<(Time, u64, u32)>>,
    /// Payload arena; `free` lists vacant slots.
    arena: Vec<Option<E>>,
    free: Vec<u32>,
    seq: u64,
    now: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..NB).map(|_| Bucket::default()).collect(),
            occ: [0; WORDS],
            base_day: 0,
            in_wheel: 0,
            overflow: BinaryHeap::new(),
            arena: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: 0,
        }
    }

    /// The time of the most recently popped event.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now` (a zero-latency hop
    /// cannot reorder before already-processed events).
    pub fn schedule(&mut self, at: Time, payload: E) {
        let time = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.arena[s as usize] = Some(payload);
                s
            }
            None => {
                self.arena.push(Some(payload));
                (self.arena.len() - 1) as u32
            }
        };
        self.place(Slot { time, seq, slot });
    }

    /// Schedules `payload` at `now + delay`.
    pub fn schedule_in(&mut self, delay: Time, payload: E) {
        self.schedule(self.now + delay, payload);
    }

    fn place(&mut self, e: Slot) {
        let mut day = e.time >> SHIFT;
        if day >= self.base_day + NB as u64 {
            // Past the horizon. Every bucket below now's day is already
            // drained (pops are monotone), so the window may slide up to
            // there — or, if the wheel is empty, straight to the
            // earliest pending day. Only if the event is still beyond
            // the advanced horizon does it spill.
            let ovf_day = self.overflow.peek().map(|&Reverse((t, _, _))| t >> SHIFT);
            let target = if self.in_wheel == 0 {
                ovf_day.map_or(day, |o| o.min(day))
            } else {
                (self.now >> SHIFT).max(self.base_day)
            };
            if target > self.base_day {
                self.rebase(target);
            }
            if day >= self.base_day + NB as u64 {
                self.overflow.push(Reverse((e.time, e.seq, e.slot)));
                return;
            }
        } else if day < self.base_day {
            // Clamped into a window that has already moved on (only
            // possible right after a rebase past `now`): fold into the
            // window's first bucket. Ordering stays correct — folded
            // times are below every other window time and the bucket
            // itself orders by (time, seq).
            day = self.base_day;
        }
        self.wheel_insert(day, e);
    }

    fn wheel_insert(&mut self, day: u64, e: Slot) {
        let idx = (day & MASK) as usize;
        self.buckets[idx].insert(e);
        self.occ[idx >> 6] |= 1u64 << (idx & 63);
        self.in_wheel += 1;
    }

    /// Slides the window forward to `[new_base, new_base + NB)` and
    /// pulls spilled events that now fall inside it onto the wheel,
    /// restoring the invariant that the spill heap holds only events
    /// past the horizon. Callers guarantee every bucket below
    /// `new_base` is empty.
    fn rebase(&mut self, new_base: u64) {
        self.base_day = new_base;
        let horizon = new_base + NB as u64;
        while let Some(&Reverse((time, seq, slot))) = self.overflow.peek() {
            if time >> SHIFT >= horizon {
                break;
            }
            self.overflow.pop();
            self.wheel_insert(time >> SHIFT, Slot { time, seq, slot });
        }
    }

    /// Wheel empty but spill heap not: slide the window to the earliest
    /// spilled event.
    fn migrate_overflow(&mut self) {
        if let Some(&Reverse((t, _, _))) = self.overflow.peek() {
            self.rebase(t >> SHIFT);
        }
    }

    /// Bitmap scan for the first live bucket at or after `from_day`.
    fn first_live(&self, from_day: u64) -> Option<usize> {
        let horizon = self.base_day + NB as u64;
        let mut day = from_day.max(self.base_day);
        while day < horizon {
            let idx = (day & MASK) as usize;
            let (w, b) = (idx >> 6, idx & 63);
            // Scan whole bitmap words: consecutive days share a word
            // until the word boundary (or the horizon) — recomputing
            // idx from day each iteration handles the ring wrap.
            let span = (64 - b as u64).min(horizon - day);
            let mask = if span == 64 {
                !0u64
            } else {
                ((1u64 << span) - 1) << b
            };
            let hit = self.occ[w] & mask;
            if hit != 0 {
                let bit = hit.trailing_zeros() as usize;
                return Some((w << 6) | bit);
            }
            day += span;
        }
        None
    }

    fn wheel_front(&self) -> Option<usize> {
        if self.in_wheel == 0 {
            return None;
        }
        self.first_live(self.now >> SHIFT)
    }

    /// Pops the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.in_wheel == 0 && !self.overflow.is_empty() {
            self.migrate_overflow();
        }
        let idx = self.wheel_front()?;
        let e = self.buckets[idx].take_front();
        if !self.buckets[idx].live() {
            self.occ[idx >> 6] &= !(1u64 << (idx & 63));
        }
        self.in_wheel -= 1;
        self.now = e.time;
        let payload = self.arena[e.slot as usize]
            .take()
            .expect("arena slot vacated while queued");
        self.free.push(e.slot);
        Some((e.time, payload))
    }

    /// Timestamp of the next event without popping it.
    #[must_use]
    pub fn peek_time(&self) -> Option<Time> {
        match self.wheel_front() {
            Some(idx) => self.buckets[idx].front().map(|s| s.time),
            // Wheel empty: the spill heap holds the minimum (its events
            // are all past the wheel's horizon by construction).
            None => self.overflow.peek().map(|&Reverse((t, _, _))| t),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.in_wheel + self.overflow.len()
    }

    /// True when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("in_wheel", &self.in_wheel)
            .field("base_day", &self.base_day)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(50, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 50);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(100, "late");
        q.pop();
        q.schedule(10, "early"); // in the past
        assert_eq!(q.pop(), Some((100, "early")));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(40, "a");
        q.pop();
        q.schedule_in(5, "b");
        assert_eq!(q.pop(), Some((45, "b")));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(1));
    }

    #[test]
    fn far_future_events_spill_and_return() {
        let mut q = EventQueue::new();
        // One per wheel-window (~4.2 ms): all but the first overflow.
        let span = (NB as u64) << SHIFT;
        for i in 0..20u64 {
            q.schedule(i * span + 5, i);
        }
        assert_eq!(q.len(), 20);
        for i in 0..20u64 {
            assert_eq!(q.pop(), Some((i * span + 5, i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_near_and_far() {
        let mut q = EventQueue::new();
        let far = (NB as u64) << (SHIFT + 2);
        q.schedule(far, "far");
        q.schedule(3, "near");
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(q.pop(), Some((3, "near")));
        // After the near event, inserts beyond the original horizon
        // still order correctly against the spilled one.
        q.schedule(far - 1, "mid");
        assert_eq!(q.pop(), Some((far - 1, "mid")));
        assert_eq!(q.pop(), Some((far, "far")));
    }

    #[test]
    fn bucket_boundary_ordering() {
        let mut q = EventQueue::new();
        let w = 1u64 << SHIFT;
        // Straddle a bucket boundary in reverse order.
        q.schedule(w, "b");
        q.schedule(w - 1, "a");
        q.schedule(w + 1, "c");
        assert_eq!(q.pop(), Some((w - 1, "a")));
        assert_eq!(q.pop(), Some((w, "b")));
        assert_eq!(q.pop(), Some((w + 1, "c")));
    }

    #[test]
    fn arena_slots_recycle() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.schedule(round, round);
            assert_eq!(q.pop(), Some((round, round)));
        }
        // One live event at a time → the arena never grew past 1 slot.
        assert!(q.arena.len() <= 2, "arena len {}", q.arena.len());
    }
}
