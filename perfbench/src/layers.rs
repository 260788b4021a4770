//! Per-layer probes: timings of single modules' public functions, taken
//! from the benchmark's own code around each call.

use crate::live::{calls_of, model, Call, NODES};
use crate::report::Report;
use crate::stats::{median, quantile};
use bytes::Bytes;
use minos_core::loopback::BCluster;
use minos_kv::DurableState;
use minos_sim::EventQueue;
use minos_types::wire::{decode_peer_frame_ctx, encode_peer_frame_ctx_into};
use minos_types::{Key, Message, NodeId, Ts};
use minos_workload::openloop::{Arrival, OpenLoopSpec};
use std::hint::black_box;
use std::time::Instant;

/// Times `OpenLoopSpec::schedule` (median of three) → `workload.gen_ms`.
pub fn schedule_gen(r: &mut Report, spec: &OpenLoopSpec, seed: u64) {
    let ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(spec.schedule(seed));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    r.metric("workload.gen_ms", median(&ms));
}

/// Replays the calls of `schedule` one at a time on a loopback
/// `BCluster` (one thread, no injected delays, persists released on
/// every op) → `core.put_ns`, `core.get_ns` (medians per call), then
/// times the lock-table scan of the final engine → `core.lock_scan_us`,
/// `core.records`.
pub fn loopback_replay(r: &mut Report, schedule: &[Arrival]) {
    let mut cl = BCluster::new(NODES, model());
    let mut puts = Vec::new();
    let mut gets = Vec::new();
    for a in schedule {
        let node = NodeId((a.session as usize % NODES) as u16);
        for call in calls_of(&a.op) {
            let put = matches!(call, Call::Put(..));
            let before = cl.completions().len();
            let t = Instant::now();
            match call {
                Call::Get(k) => {
                    cl.submit_read(node, k);
                }
                Call::Put(k, v) => {
                    cl.submit_write(node, k, v, None);
                }
            }
            cl.run();
            let ns = t.elapsed().as_nanos() as u64;
            r.attempted += 1;
            if cl.completions().len() != before + 1 {
                r.failed += 1;
            } else if put {
                puts.push(ns);
            } else {
                gets.push(ns);
            }
        }
    }
    r.metric("core.put_ns", quantile(&mut puts, 0.5).unwrap_or(0) as f64);
    r.metric("core.get_ns", quantile(&mut gets, 0.5).unwrap_or(0) as f64);
    r.note(format!(
        "core replay: {} puts, {} gets on a {NODES}-node loopback cluster",
        puts.len(),
        gets.len()
    ));

    let engine = cl.engine(NodeId(0));
    let scans: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(engine.locked_records());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    r.metric("core.lock_scan_us", median(&scans));
    r.metric("core.records", engine.keys().len() as f64);
}

/// A 1 KB record payload.
fn kb_value() -> Bytes {
    Bytes::from(vec![0xAB; 1024])
}

/// `DurableState::persist` of 1 KB writes → `kv.persist_ns` (median of
/// three batches).
pub fn persist(r: &mut Report) {
    const N: u32 = 20_000;
    let value = kb_value();
    let per: Vec<f64> = (0..3)
        .map(|_| {
            let mut d = DurableState::with_persist_latency(1295);
            let t = Instant::now();
            for i in 0..N {
                black_box(d.persist(
                    Key(u64::from(i % 1000)),
                    Ts::new(NodeId(0), i + 1),
                    value.clone(),
                ));
            }
            t.elapsed().as_nanos() as f64 / f64::from(N)
        })
        .collect();
    r.metric("kv.persist_ns", median(&per));
}

/// Peer-frame codec on one frame carrying a 1 KB INV → `wire.encode_ns`,
/// `wire.decode_ns` (medians of three batches).
pub fn wire(r: &mut Report) {
    const N: u32 = 50_000;
    let msgs = [Message::Inv {
        key: Key(42),
        ts: Ts::new(NodeId(1), 7),
        value: kb_value(),
        scope: None,
    }];
    let mut buf = Vec::new();
    let enc: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..N {
                encode_peer_frame_ctx_into(NodeId(1), black_box(&msgs), None, &mut buf);
                black_box(&buf);
            }
            t.elapsed().as_nanos() as f64 / f64::from(N)
        })
        .collect();
    let dec: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..N {
                black_box(decode_peer_frame_ctx(black_box(&buf)).expect("frame decodes"));
            }
            t.elapsed().as_nanos() as f64 / f64::from(N)
        })
        .collect();
    r.metric("wire.encode_ns", median(&enc));
    r.metric("wire.decode_ns", median(&dec));
}

/// One push plus one pop on `minos_sim::EventQueue`, holding 1024 pending
/// events spaced `gap_ns` apart → `sim.queue_ns` (median of three).
pub fn event_queue(r: &mut Report, gap_ns: u64) {
    const DEPTH: u64 = 1024;
    const N: u32 = 1_000_000;
    let per: Vec<f64> = (0..3)
        .map(|_| {
            let mut q = EventQueue::new();
            for i in 0..DEPTH {
                q.schedule(i * gap_ns, i);
            }
            let t = Instant::now();
            for _ in 0..N {
                let (at, ev) = q.pop().expect("queue holds events");
                q.schedule(at + DEPTH * gap_ns, black_box(ev));
            }
            t.elapsed().as_nanos() as f64 / f64::from(N)
        })
        .collect();
    r.metric("sim.queue_ns", median(&per));
}
