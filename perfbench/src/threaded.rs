//! `threaded-ycsb-a`: the threaded cluster (`minos_cluster::Cluster`).

use crate::gate;
use crate::live::{
    call_streams, client_threads, closed_loop, latency, model, overhead_pct, record_e2e,
    threaded_config, threaded_put_floor_us, Call, Phase, ThreadedClient, TraceBreakdown, NODES,
};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, reset_peak_rss};
use minos_cluster::Cluster;
use minos_core::obs::{self, GaugeKind, RingRecorder, SharedSink};
use minos_nvm::LogEntry;
use minos_types::{NodeId, PersistencyModel};
use minos_workload::openloop::{OpenLoopSpec, Scenario};
use std::time::{Duration, Instant};

/// Arrivals generated per run; the client threads cycle through them if
/// a run outlasts them.
const SCHEDULE_OPS: u64 = 200_000;

/// Fresh-cluster episodes an untraced run is split into.
const EPISODES: usize = 8;

/// Trace records kept from a traced phase (the most recent ones).
const RING_RECORDS: usize = 400_000;

/// The schedule spec: zipfian keys over 100 k records of 1 KB.
pub fn spec(scenario: Scenario) -> OpenLoopSpec {
    OpenLoopSpec::new(scenario, 1e6)
        .with_total_ops(SCHEDULE_OPS)
        .with_record_bytes(1024)
}

fn run(cluster: &Cluster, streams: &[Vec<Call>], dur: Duration) -> Phase {
    let clients = (0..streams.len())
        .map(|i| ThreadedClient {
            cluster,
            node: NodeId(i as u16),
        })
        .collect();
    closed_loop(clients, streams, dur)
}

/// Every node's durable log, fetched after a phase.
fn durable_logs(r: &mut Report, cluster: &Cluster) -> Vec<(NodeId, Vec<LogEntry>)> {
    let mut logs = Vec::with_capacity(NODES);
    for n in 0..NODES {
        let node = NodeId(n as u16);
        match cluster.durable_log(node) {
            Ok(log) => logs.push((node, log)),
            Err(e) => r.violations.push(format!("durable log of {node}: {e}")),
        }
    }
    logs
}

/// Linearizability of the phase, and Synch persistency against every
/// node's durable log.
fn check(r: &mut Report, phase: &Phase, logs: &[(NodeId, Vec<LogEntry>)]) {
    let history = phase.history();
    r.violations.extend(gate::linearizable(&history));
    if logs.len() == NODES {
        r.violations.extend(gate::persistent(
            PersistencyModel::Synchronous,
            &history,
            logs,
        ));
    }
}

/// The untraced end-to-end run: `EPISODES` closed-loop episodes of equal
/// length, each set up afresh (schedule generation, a new cluster) and
/// replaying the schedule from its start, so every episode grows the same
/// working set from empty. Set-ups, like every other metric, are thus
/// sampled across the whole run.
pub fn e2e(seed: u64, secs: f64) -> Report {
    let spec = spec(Scenario::YcsbA);
    let mut r = Report::default();
    let dur = Duration::from_secs_f64(secs / EPISODES as f64);
    let mut setups = Vec::with_capacity(EPISODES);
    let mut rss = Vec::with_capacity(EPISODES);
    let mut episodes = Vec::with_capacity(EPISODES);
    for _ in 0..EPISODES {
        let t = Instant::now();
        let streams = call_streams(&spec.schedule(seed), client_threads());
        let cluster = Cluster::spawn(threaded_config(), model());
        setups.push(t.elapsed().as_secs_f64());
        reset_peak_rss();
        let phase = run(&cluster, &streams, dur);
        rss.push(peak_rss_mb());
        let logs = durable_logs(&mut r, &cluster);
        cluster.shutdown();
        check(&mut r, &phase, &logs);
        episodes.push(phase);
    }
    r.setup(&setups);
    r.metric("peak_rss_mb", median(&rss));
    r.note(format!("peak RSS per episode (MiB): {rss:?}"));
    record_e2e(&mut r, &episodes, "threaded");
    r
}

/// The threaded layers under `scenario`: an untraced phase for the
/// cluster counters and waits, then a traced phase (a `RingRecorder` on
/// every node) for the Fig. 4 breakdown. Needs `core.put_ns` and
/// `core.get_ns` already in `r`.
pub fn layers(
    r: &mut Report,
    scenario: Scenario,
    seed: u64,
    dur: Duration,
) -> (TraceBreakdown, f64) {
    let cfg = threaded_config();
    let streams = call_streams(&spec(scenario).schedule(seed), client_threads());

    let cluster = Cluster::spawn(cfg.clone(), model());
    let plain = run(&cluster, &streams, dur);
    r.attempted += plain.attempted();
    r.failed += plain.failed();
    let logs = durable_logs(r, &cluster);
    check(r, &plain, &logs);
    match cluster.dispatch_stats_total() {
        Ok((stats, counters)) => {
            let done = (stats.writes_done + stats.reads_done).max(1) as f64;
            r.metric(
                "core.msgs_per_op",
                (stats.sends + stats.fanout_dests) as f64 / done,
            );
            r.metric("core.frames_per_op", counters.wire_msgs as f64 / done);
            r.metric(
                "core.persists_per_write",
                stats.persists as f64 / stats.writes_done.max(1) as f64,
            );
            r.metric("core.defers_per_op", stats.defers as f64 / done);
            r.metric(
                "core.useful_ratio",
                done / (done + (stats.defers + stats.redirects) as f64),
            );
        }
        Err(e) => r.violations.push(format!("dispatch stats: {e}")),
    }
    let gauges = cluster.gauges();
    let high = |k| gauges.high_water(k).unwrap_or(0) as f64;
    r.metric("cluster.inbox_max", high(GaugeKind::HostSendQueue));
    r.metric("cluster.inflight_max", high(GaugeKind::InflightTxs));
    cluster.shutdown();

    let floor = threaded_put_floor_us(&cfg, 1024);
    let core_us = |name| r.get(name).expect("core replay ran first") / 1e3;
    let (put_ns, get_ns) = (core_us("core.put_ns"), core_us("core.get_ns"));
    if let (Some(put), Some(get)) = (latency(&plain, true), latency(&plain, false)) {
        r.metric("cluster.put_wait_us", put.p50_us - put_ns - floor);
        r.metric("cluster.get_wait_us", get.p50_us - get_ns);
        r.note(format!(
            "threaded: put p50 {:.3} us = core {:.3} + floor {floor:.3} (2 wire hops + 1 KB persist) + wait; get p50 {:.3} us",
            put.p50_us, put_ns, get.p50_us
        ));
    }

    let ring = obs::shared(RingRecorder::new(RING_RECORDS));
    let sink: SharedSink = ring.clone();
    let cluster = Cluster::spawn_observed(cfg, model(), vec![sink]);
    let traced = run(&cluster, &streams, dur);
    r.attempted += traced.attempted();
    r.failed += traced.failed();
    let logs = durable_logs(r, &cluster);
    check(r, &traced, &logs);
    cluster.shutdown();
    let records = ring.lock().expect("trace ring").to_vec();
    let breakdown = TraceBreakdown::of(&obs::analyze(&records));
    (breakdown, overhead_pct(&plain, &traced))
}
