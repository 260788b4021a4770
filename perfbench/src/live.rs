//! Closed-loop load on the live runtimes: the threaded cluster and
//! in-process TCP nodes on loopback.
//!
//! Each client thread owns one connection (or origin node), replays its
//! share of the generated schedule, and blocks on every call; it records
//! the call's invocation and return instants on a clock shared by all
//! threads, plus the timestamp the call returned, so the run can be
//! checked for linearizability afterwards.

use crate::report::Report;
use crate::stats::{median, LatencySummary, WINDOWS};
use minos_check::history::{ClientOp, History};
use minos_cluster::tcp::{TcpClient, TcpNode, TcpNodeConfig};
use minos_cluster::Cluster;
use minos_core::obs::{OpKind, OpTrace};
use minos_types::{ClusterConfig, DdpModel, Key, NodeId, PersistencyModel, Ts, Value};
use minos_workload::openloop::{Arrival, SessionOp};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Every workload runs ⟨Lin, Synch⟩.
pub fn model() -> DdpModel {
    DdpModel::lin(PersistencyModel::Synchronous)
}

/// Nodes in each live cluster.
pub const NODES: usize = 3;

/// One client call.
#[derive(Debug, Clone)]
pub enum Call {
    /// A read of the key.
    Get(Key),
    /// A write of the value to the key.
    Put(Key, Value),
}

/// Splits a schedule into `threads` call streams by session: a
/// read-modify-write becomes a get followed by a put of the same key,
/// each timed as its own call.
pub fn call_streams(schedule: &[Arrival], threads: usize) -> Vec<Vec<Call>> {
    let mut out = vec![Vec::new(); threads];
    for a in schedule {
        out[a.session as usize % threads].extend(calls_of(&a.op));
    }
    out
}

/// The calls one generated op is made of.
///
/// # Panics
///
/// Panics on an op kind the YCSB-A/B mixes do not generate.
pub fn calls_of(op: &SessionOp) -> Vec<Call> {
    match op {
        SessionOp::Read { key } => vec![Call::Get(*key)],
        SessionOp::Write { key, value } => vec![Call::Put(*key, value.clone())],
        SessionOp::Rmw { key, value } => vec![Call::Get(*key), Call::Put(*key, value.clone())],
        other => panic!(
            "unexpected op {} in a YCSB-A/B schedule",
            other.kind_label()
        ),
    }
}

/// A blocking client of one live runtime.
pub trait Client {
    /// Reads `key`; returns the version observed.
    fn get(&mut self, key: Key) -> Result<Ts, String>;
    /// Writes `value` to `key`; returns the write's timestamp.
    fn put(&mut self, key: Key, value: &Value) -> Result<Ts, String>;
}

/// A threaded-cluster client attached to one origin node.
pub struct ThreadedClient<'a> {
    /// The cluster.
    pub cluster: &'a Cluster,
    /// The origin node.
    pub node: NodeId,
}

impl Client for ThreadedClient<'_> {
    fn get(&mut self, key: Key) -> Result<Ts, String> {
        self.cluster
            .get_versioned(self.node, key)
            .map(|(_, ts)| ts)
            .map_err(|e| e.to_string())
    }

    fn put(&mut self, key: Key, value: &Value) -> Result<Ts, String> {
        self.cluster
            .put(self.node, key, value.clone())
            .map_err(|e| e.to_string())
    }
}

impl Client for TcpClient {
    fn get(&mut self, key: Key) -> Result<Ts, String> {
        self.get_versioned(key)
            .map(|(_, ts)| ts)
            .map_err(|e| e.to_string())
    }

    fn put(&mut self, key: Key, value: &Value) -> Result<Ts, String> {
        TcpClient::put(self, key, value, None).map_err(|e| e.to_string())
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct CallRec {
    /// A put (else a get).
    pub put: bool,
    /// The key.
    pub key: Key,
    /// Invocation instant, ns on the run's clock.
    pub call_ns: u64,
    /// Return instant, ns on the run's clock.
    pub ret_ns: u64,
    /// The timestamp returned; `None` when the call failed.
    pub ts: Option<Ts>,
}

/// The calls one closed-loop phase made, per client thread.
#[derive(Debug)]
pub struct Phase {
    /// Per thread: its origin node and its calls in order.
    pub threads: Vec<(NodeId, Vec<CallRec>)>,
    /// Wall-clock seconds from start until the last thread stopped.
    pub elapsed_s: f64,
}

impl Phase {
    fn calls(&self) -> impl Iterator<Item = &CallRec> {
        self.threads.iter().flat_map(|(_, c)| c.iter())
    }

    /// Calls attempted.
    pub fn attempted(&self) -> u64 {
        self.calls().count() as u64
    }

    /// Calls that failed.
    pub fn failed(&self) -> u64 {
        self.calls().filter(|c| c.ts.is_none()).count() as u64
    }

    /// Median over [`WINDOWS`] equal windows of the completed calls per
    /// second in each.
    pub fn windowed_throughput(&self) -> f64 {
        median(&self.window_throughputs(WINDOWS))
    }

    /// Completed calls per second in each of `n` equal windows of the phase.
    pub fn window_throughputs(&self, n: usize) -> Vec<f64> {
        let start = self.calls().map(|c| c.call_ns).min().unwrap_or(0);
        let width = self.elapsed_s * 1e9 / n as f64;
        let mut counts = vec![0u64; n];
        for c in self.calls().filter(|c| c.ts.is_some()) {
            let w = ((c.ret_ns - start) as f64 / width) as usize;
            counts[w.min(n - 1)] += 1;
        }
        counts.iter().map(|&c| c as f64 / (width / 1e9)).collect()
    }

    /// Client-observed latencies (ns) of the completed puts or gets, in
    /// invocation order.
    pub fn latencies_ns(&self, put: bool) -> Vec<u64> {
        let mut calls: Vec<&CallRec> = self
            .calls()
            .filter(|c| c.put == put && c.ts.is_some())
            .collect();
        calls.sort_by_key(|c| c.call_ns);
        calls.iter().map(|c| c.ret_ns - c.call_ns).collect()
    }

    /// The phase as a checkable history. Each thread is its origin
    /// node's only client, so call order numbers requests uniquely.
    pub fn history(&self) -> History {
        let mut ops = Vec::new();
        for (node, calls) in &self.threads {
            for (i, c) in calls.iter().enumerate() {
                ops.push(ClientOp {
                    node: *node,
                    req: i as u64,
                    kind: if c.put { OpKind::Write } else { OpKind::Read },
                    key: Some(c.key),
                    scope: None,
                    call: c.call_ns,
                    ret: c.ts.map(|_| c.ret_ns),
                    ts: c.ts,
                    obsolete: false,
                });
            }
        }
        History { ops }
    }
}

/// Runs one closed-loop phase: thread `i` drives `clients[i]` (attached
/// at node `i`) through `streams[i]`, cycling, until `dur` has passed and
/// a put has completed, so every phase carries put latencies (or until
/// `4 × dur` has passed). Instants are ns from the phase's start.
pub fn closed_loop<C: Client + Send>(
    clients: Vec<C>,
    streams: &[Vec<Call>],
    dur: Duration,
) -> Phase {
    assert_eq!(clients.len(), streams.len(), "one stream per client");
    let start = Instant::now();
    let deadline = start + dur;
    let hard_stop = start + 4 * dur;
    let puts = AtomicU64::new(0);
    let puts = &puts;
    let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let threads = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(i, (mut client, stream))| {
                s.spawn(move || {
                    let mut recs = Vec::with_capacity(stream.len());
                    for call in stream.iter().cycle() {
                        let t0 = Instant::now();
                        if t0 >= hard_stop || (t0 >= deadline && puts.load(Ordering::Relaxed) > 0) {
                            break;
                        }
                        let (put, key, res) = match call {
                            Call::Get(k) => (false, *k, client.get(*k)),
                            Call::Put(k, v) => (true, *k, client.put(*k, v)),
                        };
                        let t1 = Instant::now();
                        if put && res.is_ok() {
                            puts.fetch_add(1, Ordering::Relaxed);
                        }
                        recs.push(CallRec {
                            put,
                            key,
                            call_ns: ns(t0),
                            ret_ns: ns(t1),
                            ts: res.ok(),
                        });
                    }
                    (NodeId(i as u16), recs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Phase {
        threads,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// The threaded cluster's configuration: Table II delays (2 µs wire,
/// 1295 ns/KB persist) on three nodes.
pub fn threaded_config() -> ClusterConfig {
    ClusterConfig::cloudlab().with_nodes(NODES)
}

/// The critical-path delay a ⟨Lin, Synch⟩ put of `bytes` waits for on the
/// threaded cluster: INV to a follower, its persist, its ACK back.
pub fn threaded_put_floor_us(cfg: &ClusterConfig, bytes: u64) -> f64 {
    let persist = minos_nvm::NvmDevice::with_latency(cfg.nvm_persist_ns_per_kb).persist_ns(bytes);
    (2 * cfg.wire_latency_ns + persist) as f64 / 1e3
}

/// Serves `NODES` TCP nodes on free loopback ports with the
/// `minos-noded` defaults (no batching or broadcast, 1295 ns/KB persist).
/// With `trace_dir`, node `i` appends JSONL trace records to
/// `trace_dir/node<i>.jsonl`.
///
/// # Panics
///
/// Panics when no free ports can be bound after several attempts.
pub fn spawn_tcp(trace_dir: Option<&Path>) -> Vec<TcpNode> {
    'attempt: for _ in 0..16 {
        let probes: Vec<TcpListener> = (0..2 * NODES)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a loopback port"))
            .collect();
        let addrs: Vec<SocketAddr> = probes
            .iter()
            .map(|l| l.local_addr().expect("bound address"))
            .collect();
        drop(probes);
        let mut nodes = Vec::with_capacity(NODES);
        for i in 0..NODES {
            let cfg = TcpNodeConfig {
                node: NodeId(i as u16),
                model: model(),
                peers: addrs[..NODES].to_vec(),
                client_addr: addrs[NODES + i],
                persist_ns_per_kb: 1295,
                batching: false,
                broadcast: false,
                trace_out: trace_dir.map(|d| d.join(format!("node{i}.jsonl"))),
                metrics_out: None,
                metrics_interval: Duration::from_secs(1),
                chaos: None,
                fault: None,
                placement: None,
                nvm_log: None,
                rejoin_donor: None,
            };
            match TcpNode::serve(cfg) {
                Ok(n) => nodes.push(n),
                Err(_) => {
                    nodes.into_iter().for_each(TcpNode::shutdown);
                    continue 'attempt;
                }
            }
        }
        return nodes;
    }
    panic!("could not bind a TCP cluster on loopback");
}

/// Connects one client to each of the first `n` nodes.
pub fn connect_tcp(nodes: &[TcpNode], n: usize) -> std::io::Result<Vec<TcpClient>> {
    nodes
        .iter()
        .take(n)
        .map(|node| TcpClient::connect(node.client_addr()))
        .collect()
}

/// Client threads and connections per live run: two (one per origin
/// node, as in the paper's client setup), but never more than the cores
/// this process may use.
pub fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Client-observed latency summary of the phase's completed puts or gets.
pub fn latency(phase: &Phase, put: bool) -> Option<LatencySummary> {
    LatencySummary::of_ns(phase.latencies_ns(put))
}

/// Records the end-to-end metrics of a run's untraced phases (episodes
/// on fresh clusters): each metric is the median over the episodes of
/// the episode's figure, and every figure is printed with the samples
/// behind it.
pub fn record_e2e(r: &mut Report, episodes: &[Phase], runtime: &str) {
    let mut rates = Vec::new();
    for (i, phase) in episodes.iter().enumerate() {
        r.attempted += phase.attempted();
        r.failed += phase.failed();
        rates.push(phase.windowed_throughput());
        r.note(format!(
            "{runtime} episode {i}: {} calls in {:.3} s from {} client threads; ops/s per window {:?}",
            phase.attempted(),
            phase.elapsed_s,
            phase.threads.len(),
            phase
                .window_throughputs(WINDOWS)
                .iter()
                .map(|t| t.round())
                .collect::<Vec<_>>()
        ));
    }
    r.metric("throughput_ops_s", median(&rates));
    for (put, kind, p50, p99) in [
        (true, "put", "put_p50_us", "put_p99_us"),
        (false, "get", "get_p50_us", "get_p99_us"),
    ] {
        let summaries: Vec<LatencySummary> =
            episodes.iter().filter_map(|p| latency(p, put)).collect();
        if summaries.len() < episodes.len() {
            r.note(format!("{runtime} {kind}: an episode completed no {kind}s"));
            continue;
        }
        let pick =
            |f: fn(&LatencySummary) -> f64| median(&summaries.iter().map(f).collect::<Vec<_>>());
        r.metric(p50, pick(|s| s.p50_us));
        r.metric(p99, pick(|s| s.p99_us));
        for s in &summaries {
            r.note(format!(
                "{runtime} {kind}: p50 {:.3} us, p99 {:.3} us from {} samples in {} windows{}",
                s.p50_us,
                s.p99_us,
                s.samples,
                s.windows,
                if s.p99_supported() {
                    ""
                } else {
                    " (p99 under-sampled: fewer than 1000)"
                }
            ));
        }
    }
}

/// Mean per-put Fig. 4 breakdown of a traced phase.
#[derive(Debug, Clone, Copy)]
pub struct TraceBreakdown {
    /// Puts the means cover.
    pub puts: usize,
    /// Mean µs per put in dispatch, computation, communication, persist.
    pub category_us: [f64; 4],
    /// Mean admit-to-complete µs per put.
    pub put_mean_us: f64,
}

impl TraceBreakdown {
    /// Averages the write timelines `obs::analyze` rebuilt.
    pub fn of(ops: &[OpTrace]) -> TraceBreakdown {
        let puts: Vec<&OpTrace> = ops.iter().filter(|o| o.op == OpKind::Write).collect();
        let n = puts.len().max(1) as f64;
        let mut category_us = [0.0; 4];
        for p in &puts {
            for (sum, ns) in category_us.iter_mut().zip(p.breakdown()) {
                *sum += ns as f64 / 1e3 / n;
            }
        }
        TraceBreakdown {
            puts: puts.len(),
            category_us,
            put_mean_us: puts.iter().map(|p| p.total_ns() as f64 / 1e3).sum::<f64>() / n,
        }
    }

    /// Records the `trace.*` metrics; `overhead_pct` is the traced
    /// phase's throughput loss against the untraced one.
    pub fn record(&self, r: &mut Report, overhead_pct: f64) {
        let names = [
            "trace.dispatch_us",
            "trace.computation_us",
            "trace.communication_us",
            "trace.persist_us",
        ];
        for (name, us) in names.into_iter().zip(self.category_us) {
            r.metric(name, us);
        }
        r.metric("trace.put_mean_us", self.put_mean_us);
        r.metric("trace.puts", self.puts as f64);
        r.metric("trace.overhead_pct", overhead_pct);
    }
}

/// Throughput lost to tracing, in percent of the untraced throughput.
pub fn overhead_pct(untraced: &Phase, traced: &Phase) -> f64 {
    100.0 * (1.0 - traced.windowed_throughput() / untraced.windowed_throughput())
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_workload::openloop::{OpenLoopSpec, Scenario};

    #[test]
    fn rmw_becomes_get_then_put_and_sessions_split() {
        let sched = OpenLoopSpec::new(Scenario::YcsbA, 1e6)
            .with_total_ops(2000)
            .schedule(3);
        let streams = call_streams(&sched, 2);
        let rmws = sched
            .iter()
            .filter(|a| matches!(a.op, SessionOp::Rmw { .. }))
            .count();
        let puts: usize = streams
            .iter()
            .map(|s| s.iter().filter(|c| matches!(c, Call::Put(..))).count())
            .sum();
        assert_eq!(puts, rmws);
        assert_eq!(streams[0].len() + streams[1].len(), sched.len() + rmws);
    }

    #[test]
    fn floor_is_two_hops_and_one_persist() {
        let us = threaded_put_floor_us(&threaded_config(), 1024);
        assert!((us - 5.295).abs() < 1e-9, "floor {us}");
    }
}
