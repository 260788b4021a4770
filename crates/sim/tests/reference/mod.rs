//! The original binary-heap event queue: the reference implementation
//! the calendar queue ([`minos_sim::EventQueue`]) is differentially
//! tested against. Same contract — pop in ascending `(time, seq)` order,
//! scheduling in the past clamps to `now`.

use minos_sim::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: Time,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The original binary-heap event queue: the reference the calendar
/// queue is differentially tested against.
#[derive(Default)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: Time,
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// The time of the most recently popped event.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `payload` at absolute time `at` (past clamps to `now`).
    pub fn schedule(&mut self, at: Time, payload: E) {
        let time = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Schedules `payload` at `now + delay`.
    pub fn schedule_in(&mut self, delay: Time, payload: E) {
        self.schedule(self.now + delay, payload);
    }

    /// Pops the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.payload)
        })
    }

    /// Timestamp of the next event without popping it.
    #[must_use]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

impl<E> std::fmt::Debug for HeapEventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapEventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}
