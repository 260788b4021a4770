//! `des-ycsb-a`: the discrete-event simulator at `SimConfig::paper_defaults()`.

use crate::live::{calls_of, model, Call};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, reset_peak_rss, LatencySummary};
use minos_core::ReqId;
use minos_net::driver::{run_open_loop, OpenLoopResult};
use minos_net::{Arch, BSim, OSim};
use minos_types::{NodeId, SimConfig};
use minos_workload::openloop::{Arrival, OpenLoopSpec, Scenario};
use std::time::{Duration, Instant};

/// Open-loop offered load: below MINOS-B's ~1.6 M ops/s knee.
const OFFERED_OPS_S: f64 = 1e6;

/// Calls timed one at a time in each round, on that round's fresh kernels.
const ROUND_CALLS: usize = 2000;

/// Arrivals in the simulated schedule.
pub const SIM_OPS: u64 = 10_000;

/// The schedule spec: `ops` arrivals, zipfian keys over 100 k records of
/// 1 KB.
pub fn spec(scenario: Scenario, ops: u64) -> OpenLoopSpec {
    OpenLoopSpec::new(scenario, OFFERED_OPS_S)
        .with_total_ops(ops)
        .with_record_bytes(1024)
}

/// The run outcome that must repeat exactly for one seed: the virtual
/// makespan and the p50/p99 latency.
fn fingerprint(r: &mut OpenLoopResult) -> (u64, u64, u64) {
    (r.makespan, r.lat.p50(), r.lat.p99())
}

/// A simulator kernel driven one client call at a time.
trait Kernel {
    fn submit(&mut self, node: NodeId, call: &Call) -> ReqId;
    fn completes(&mut self, req: ReqId) -> bool;
}

macro_rules! kernel {
    ($sim:ty) => {
        impl Kernel for $sim {
            fn submit(&mut self, node: NodeId, call: &Call) -> ReqId {
                let at = self.now();
                match call {
                    Call::Get(k) => self.submit_read(at, node, *k),
                    Call::Put(k, v) => self.submit_write(at, node, *k, v.clone(), None),
                }
            }

            fn completes(&mut self, req: ReqId) -> bool {
                self.run_to_idle();
                self.drain_completions().iter().any(|c| c.req == req)
            }
        }
    };
}

kernel!(BSim);
kernel!(OSim);

fn kernels(cfg: &SimConfig) -> (BSim, OSim) {
    (
        BSim::new(cfg.clone(), Arch::baseline(), model()),
        OSim::new(cfg.clone(), Arch::minos_o(), model()),
    )
}

/// The schedule's calls in arrival order, each at its session's node
/// (as `run_open_loop` places them).
fn sim_calls(schedule: &[Arrival], nodes: usize) -> Vec<(NodeId, Call)> {
    schedule
        .iter()
        .flat_map(|a| {
            let node = NodeId((a.session as usize % nodes) as u16);
            calls_of(&a.op).into_iter().map(move |c| (node, c))
        })
        .collect()
}

/// Times one call on `sim`; `None` when it did not complete.
fn timed_call(sim: &mut impl Kernel, node: NodeId, call: &Call) -> Option<u64> {
    let t = Instant::now();
    let req = sim.submit(node, call);
    let ok = sim.completes(req);
    ok.then(|| t.elapsed().as_nanos() as u64)
}

/// The untraced end-to-end run, in rounds until `secs` have passed (two
/// at least). Each round sets up (schedule generation and both kernels),
/// replays the schedule open loop on MINOS-B then MINOS-O (throughput,
/// and the fingerprint gate), then times the round's share of the
/// schedule's calls one at a time on the fresh kernels (per-call wall
/// latency). Interleaving spreads every metric's samples over the whole
/// run, so a slow spell of the shared machine moves a few samples of each
/// rather than all of one.
pub fn e2e(spec: &OpenLoopSpec, seed: u64, secs: f64) -> Report {
    let cfg = SimConfig::paper_defaults();
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut fingerprints = Vec::new();
    let (mut puts, mut gets) = (Vec::new(), Vec::new());
    reset_peak_rss();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(secs);
    while rates.len() < 2 || start.elapsed() < budget {
        let t = Instant::now();
        let calls = sim_calls(&spec.schedule(seed), cfg.nodes);
        let (mut bsim, mut osim) = kernels(&cfg);
        setups.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let mut b = run_open_loop(Arch::baseline(), &cfg, model(), spec, seed);
        let mut o = run_open_loop(Arch::minos_o(), &cfg, model(), spec, seed);
        let wall = t.elapsed().as_secs_f64();
        for run in [&b, &o] {
            r.attempted += run.submitted;
            r.failed += run.submitted - run.completed;
        }
        rates.push((b.completed + o.completed) as f64 / wall);
        fingerprints.push((fingerprint(&mut b), fingerprint(&mut o)));

        let round = calls.chunks(ROUND_CALLS).cycle().nth(rates.len() - 1);
        for (node, call) in round.expect("the schedule has calls") {
            r.attempted += 1;
            match (
                timed_call(&mut bsim, *node, call),
                timed_call(&mut osim, *node, call),
            ) {
                (Some(tb), Some(to)) => match call {
                    Call::Put(..) => puts.push(tb + to),
                    Call::Get(_) => gets.push(tb + to),
                },
                _ => r.failed += 1,
            }
        }
    }
    r.metric("peak_rss_mb", peak_rss_mb());
    r.setup(&setups);
    r.metric("throughput_ops_s", median(&rates));
    let ((b, o), rest) = fingerprints.split_first().expect("two rounds ran");
    r.note(format!(
        "des: {} rounds; open-loop ops/s per round {:?}; fingerprint (makespan ns, p50 ns, p99 ns) MINOS-B {b:?} MINOS-O {o:?}",
        rates.len(),
        rates.iter().map(|x| x.round()).collect::<Vec<_>>(),
    ));
    if rest.iter().any(|fp| fp != &(*b, *o)) {
        r.violations.push(format!(
            "des fingerprint differs across repeats of seed {seed}: {fingerprints:?}"
        ));
    }
    for (samples, kind, p50, p99) in [
        (puts, "put", "put_p50_us", "put_p99_us"),
        (gets, "get", "get_p50_us", "get_p99_us"),
    ] {
        if let Some(s) = LatencySummary::of_ns(samples) {
            r.metric(p50, s.p50_us);
            r.metric(p99, s.p99_us);
            r.note(format!(
                "des {kind}: wall time to simulate one call on MINOS-B plus MINOS-O, {} samples in {} windows",
                s.samples, s.windows
            ));
        }
    }
    r
}

/// The simulator layers on `spec`'s schedule: each kernel's open-loop
/// replay with the paper's 1 µs telemetry tick and with telemetry off.
/// The two must simulate the same outcome.
pub fn layers(r: &mut Report, spec: &OpenLoopSpec, seed: u64) {
    let paper = SimConfig::paper_defaults();
    let quiet = paper.clone().with_telemetry_tick(0);
    for (arch, wall, ops, share) in [
        (
            Arch::baseline(),
            "bsim.wall_s",
            "bsim.ops_per_s",
            "bsim.telemetry_share",
        ),
        (
            Arch::minos_o(),
            "osim.wall_s",
            "osim.ops_per_s",
            "osim.telemetry_share",
        ),
    ] {
        let t = Instant::now();
        let mut with = run_open_loop(arch, &paper, model(), spec, seed);
        let w = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut without = run_open_loop(arch, &quiet, model(), spec, seed);
        let w0 = t.elapsed().as_secs_f64();
        for run in [&with, &without] {
            r.attempted += run.submitted;
            r.failed += run.submitted - run.completed;
        }
        if fingerprint(&mut with) != fingerprint(&mut without) {
            r.violations.push(format!(
                "{}: telemetry changed the simulated outcome",
                arch.label()
            ));
        }
        r.metric(wall, w);
        r.metric(ops, with.completed as f64 / w);
        r.metric(share, 1.0 - w0 / w);
    }
}
