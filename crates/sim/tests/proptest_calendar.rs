//! Differential property tests: the calendar queue ([`EventQueue`])
//! must pop in *exactly* the same order as the binary-heap reference
//! ([`HeapEventQueue`]) — same `(time, payload)` stream, same
//! `peek_time`, same `len` — for arbitrary interleavings of schedules
//! and pops, including same-instant ties, bucket-width boundaries, and
//! schedules spanning the wheel's horizon into the spill heap.

mod reference;

use minos_sim::EventQueue;
use proptest::prelude::*;
use reference::HeapEventQueue;

/// Bucket width (2^10 ns) and wheel span (4096 buckets) of the calendar
/// queue; the generators below aim offsets at these edges on purpose.
const BUCKET: u64 = 1 << 10;
const WHEEL_SPAN: u64 = 4096 * BUCKET;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + delta` (0 ⇒ same-instant tie with the event
    /// that set `now`).
    Schedule(u64),
    /// Schedule at an absolute time, possibly in the past (both
    /// implementations clamp to `now`).
    ScheduleAbs(u64),
    Pop,
}

fn delta_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Dense near-future traffic — the hot path.
        0u64..4 * BUCKET,
        // Exactly on / around bucket boundaries.
        (0u64..8).prop_map(|k| k * BUCKET),
        (1u64..8).prop_map(|k| k * BUCKET - 1),
        (0u64..8).prop_map(|k| k * BUCKET + 1),
        // Around the wheel horizon: forces spills and migrations.
        (WHEEL_SPAN - 2 * BUCKET)..(WHEEL_SPAN + 2 * BUCKET),
        // Deep future: lives in the spill heap for many rebases.
        (2 * WHEEL_SPAN)..(20 * WHEEL_SPAN),
    ]
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            delta_strategy().prop_map(Op::Schedule),
            delta_strategy().prop_map(Op::Schedule),
            (0u64..4 * WHEEL_SPAN).prop_map(Op::ScheduleAbs),
            Just(Op::Pop),
            Just(Op::Pop),
        ],
        1..400,
    )
}

fn run_differential(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut cal: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
    for (i, op) in ops.iter().enumerate() {
        let payload = i as u32;
        match *op {
            Op::Schedule(delta) => {
                cal.schedule_in(delta, payload);
                heap.schedule_in(delta, payload);
            }
            Op::ScheduleAbs(at) => {
                cal.schedule(at, payload);
                heap.schedule(at, payload);
            }
            Op::Pop => {
                prop_assert_eq!(cal.peek_time(), heap.peek_time());
                prop_assert_eq!(cal.pop(), heap.pop());
                prop_assert_eq!(cal.now(), heap.now());
            }
        }
        prop_assert_eq!(cal.len(), heap.len());
    }
    // Drain both: every remaining event must match too.
    loop {
        prop_assert_eq!(cal.peek_time(), heap.peek_time());
        let (c, h) = (cal.pop(), heap.pop());
        prop_assert_eq!(c, h);
        if c.is_none() {
            break;
        }
    }
    prop_assert!(cal.is_empty());
    Ok(())
}

proptest! {
    /// Arbitrary schedule/pop interleavings pop identically.
    #[test]
    fn calendar_matches_heap_on_random_interleavings(ops in ops_strategy()) {
        run_differential(&ops)?;
    }

    /// Many events at the *same instant* pop in insertion order on both
    /// implementations (the deterministic same-tick FIFO contract).
    #[test]
    fn calendar_matches_heap_on_same_instant_ties(
        base in 0u64..3 * WHEEL_SPAN,
        n in 1usize..150,
        pops_between in 0usize..3,
    ) {
        let mut ops = Vec::new();
        for i in 0..n {
            ops.push(Op::ScheduleAbs(base));
            if i % 7 < pops_between {
                ops.push(Op::Pop);
            }
        }
        ops.extend(std::iter::repeat_n(Op::Pop, n));
        run_differential(&ops)?;
    }

    /// Schedules clustered tightly around bucket-width multiples (the
    /// boundary between adjacent buckets) and around the wheel horizon
    /// (the boundary between wheel and spill heap).
    #[test]
    fn calendar_matches_heap_on_boundary_spanning_schedules(
        edges in proptest::collection::vec((0u64..4200, 0u64..5), 1..120),
    ) {
        let mut ops: Vec<Op> = edges
            .iter()
            .map(|&(bucket_idx, jitter)| {
                // jitter 0..5 maps to offsets −2..+2 around the edge.
                let t = (bucket_idx * BUCKET) as i64 + jitter as i64 - 2;
                Op::ScheduleAbs(t.max(0) as u64)
            })
            .collect();
        ops.extend(std::iter::repeat_n(Op::Pop, edges.len()));
        run_differential(&ops)?;
    }
}
