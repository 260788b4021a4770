//! `tcp-ycsb-b`: three in-process `tcp::TcpNode`s on loopback.

use crate::gate;
use crate::live::{
    call_streams, client_threads, closed_loop, connect_tcp, latency, overhead_pct, record_e2e,
    spawn_tcp, Call, Phase, TraceBreakdown, NODES,
};
use crate::report::Report;
use crate::stats::{peak_rss_mb, quantile, reset_peak_rss};
use minos_cluster::tcp::{TcpClient, TcpNode};
use minos_core::obs;
use minos_workload::openloop::{OpenLoopSpec, Scenario};
use std::path::Path;
use std::time::{Duration, Instant};

/// Arrivals generated per run (far more than a run issues at the seed).
const SCHEDULE_OPS: u64 = 20_000;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Admin round trips behind `tcp.admin_rtt_us`.
const ADMIN_RTTS: usize = 9;

/// The schedule spec: zipfian keys over 100 k records of 1 KB.
pub fn spec(scenario: Scenario) -> OpenLoopSpec {
    OpenLoopSpec::new(scenario, 1e6)
        .with_total_ops(SCHEDULE_OPS)
        .with_record_bytes(1024)
}

fn check(r: &mut Report, phase: &Phase) {
    r.violations.extend(gate::linearizable(&phase.history()));
}

fn connect(r: &mut Report, nodes: &[TcpNode]) -> Vec<TcpClient> {
    connect_tcp(nodes, client_threads()).unwrap_or_else(|e| {
        r.violations.push(format!("client connect: {e}"));
        Vec::new()
    })
}

/// A served cluster with its clients connected.
struct Setup {
    streams: Vec<Vec<Call>>,
    nodes: Vec<TcpNode>,
    clients: Vec<TcpClient>,
}

impl Setup {
    fn shutdown(self) {
        drop(self.clients);
        self.nodes.into_iter().for_each(TcpNode::shutdown);
    }
}

/// The untraced end-to-end run: `SETUPS` set-ups (the last one is kept),
/// then one timed phase.
pub fn e2e(seed: u64, secs: f64) -> Report {
    let spec = spec(Scenario::YcsbB);
    let mut r = Report::default();
    let mut times = Vec::with_capacity(SETUPS);
    let mut ready: Option<Setup> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let streams = call_streams(&spec.schedule(seed), client_threads());
        let nodes = spawn_tcp(None);
        let clients = connect(&mut r, &nodes);
        times.push(t.elapsed().as_secs_f64());
        // The previous set-up is torn down outside the timing.
        if let Some(old) = ready.replace(Setup {
            streams,
            nodes,
            clients,
        }) {
            old.shutdown();
        }
    }
    let Setup {
        streams,
        nodes,
        clients,
    } = ready.expect("at least one set-up");
    r.setup(&times);
    if clients.len() == streams.len() {
        reset_peak_rss();
        let phase = closed_loop(clients, &streams, Duration::from_secs_f64(secs));
        r.metric("peak_rss_mb", peak_rss_mb());
        check(&mut r, &phase);
        record_e2e(&mut r, std::slice::from_ref(&phase), "tcp");
    }
    nodes.into_iter().for_each(TcpNode::shutdown);
    r
}

/// The TCP layers under `scenario`: the admin round trip on fresh
/// (empty-log) nodes, an untraced phase, then a traced phase whose nodes
/// write JSONL traces under `scratch`.
pub fn layers(
    r: &mut Report,
    scenario: Scenario,
    seed: u64,
    dur: Duration,
    scratch: &Path,
) -> (TraceBreakdown, f64) {
    let streams = call_streams(&spec(scenario).schedule(seed), client_threads());

    let nodes = spawn_tcp(None);
    let mut rtts = Vec::with_capacity(ADMIN_RTTS);
    match TcpClient::connect(nodes[NODES - 1].client_addr()) {
        Ok(mut admin) => {
            for _ in 0..ADMIN_RTTS {
                let t = Instant::now();
                match admin.dump_durable() {
                    Ok(log) if log.is_empty() => rtts.push(t.elapsed().as_nanos() as u64),
                    Ok(_) => r
                        .violations
                        .push("a fresh node's durable log is not empty".into()),
                    Err(e) => r.violations.push(format!("admin round trip: {e}")),
                }
            }
        }
        Err(e) => r.violations.push(format!("admin connect: {e}")),
    }
    let admin_us = quantile(&mut rtts, 0.5).unwrap_or(0) as f64 / 1e3;
    r.metric("tcp.admin_rtt_us", admin_us);
    let clients = connect(r, &nodes);
    let plain = closed_loop(clients, &streams, dur);
    check(r, &plain);
    nodes.into_iter().for_each(TcpNode::shutdown);
    r.attempted += plain.attempted();
    r.failed += plain.failed();
    if let Some(s) = latency(&plain, false) {
        r.metric("tcp.get_engine_us", s.p50_us - admin_us);
    }
    if let Some(s) = latency(&plain, true) {
        r.metric("tcp.put_engine_us", s.p50_us - admin_us);
    }

    let dir = scratch.join("tcp-trace");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    let nodes = spawn_tcp(Some(&dir));
    let clients = connect(r, &nodes);
    let traced = closed_loop(clients, &streams, dur);
    check(r, &traced);
    nodes.into_iter().for_each(TcpNode::shutdown);
    r.attempted += traced.attempted();
    r.failed += traced.failed();
    // Each node stamps its own clock, so timelines are rebuilt per node.
    let mut ops = Vec::new();
    for i in 0..NODES {
        let text = std::fs::read_to_string(dir.join(format!("node{i}.jsonl"))).unwrap_or_default();
        ops.extend(obs::analyze(&obs::parse_jsonl(&text)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    (TraceBreakdown::of(&ops), overhead_pct(&plain, &traced))
}
