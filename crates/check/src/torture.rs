//! Seeded torture runs over the live runtimes.
//!
//! One *run* = one seed: derive a [`Schedule`] from the seed, stand up a
//! fresh cluster with the schedule's message injections installed in its
//! transport, drive concurrent client traffic (plus the schedule's
//! crash/rejoin points, keyed on completed-op count), then hand the
//! recorded history and the end-of-run durable logs to every checker:
//! the necessary-condition pre-pass, the complete per-key
//! linearizability search, the model's persistency oracles, and a
//! value-consistency sweep against what the clients actually wrote.
//!
//! One driver does all of that for both live runtimes. It sees a runtime
//! through a small crate-private control surface (completed-op count,
//! history clock, crash, quiesce, rejoin, durable log, history) plus
//! per-thread client handles (put, multi-key put, get and scope flush at
//! a chosen coordinator) that own their connections, so the driver's
//! crash controller can crash and rejoin nodes while clients run. The two
//! entry points only build their runtime, and differ in where the
//! history comes from:
//!
//! * [`run_threaded`] — the in-process threaded cluster. The history
//!   comes from a [`HistoryRecorder`] tapping the observability layer,
//!   whose `[admit, complete]` windows are tighter than any interval a
//!   client could measure; crash/rejoin points go through the cluster
//!   facade's epoch/lease view machinery
//!   ([`minos_cluster::Cluster::rejoin_node`]).
//! * [`run_tcp`] — real-socket nodes. Every node process has its own
//!   trace epoch, so the client handles record the history themselves
//!   (invocation/response around each blocking call — a superset of the
//!   true intervals, hence sound); durable logs arrive over the wire via
//!   the `dump-durable` client op. Crash points stop the node outright
//!   (ports released, per-node NVM log file surviving on disk) and
//!   rejoin re-serves it on the same addresses — own-log replay, donor
//!   catch-up, `set_peer_status` readmission.
//!
//! Schedules stick to delay/reorder injections (no retransmission on the
//! live wire). The driver hands each node's membership history to the
//! persistency oracles as an [`AuditMode`], so a rejoined replica is
//! audited in full for everything invoked after its readmission.
//!
//! # Workload
//!
//! Every run opens with a short **warm-up**: each key is written once,
//! sequentially, before concurrency starts. Sequential writes are
//! overlap-free, which puts the persistency oracles in their *exact*
//! containment form (see [`crate::persistency`]) — this is what makes
//! the armed-fault mutation smoke deterministic: a fault that skips an
//! INV or fakes a persist during warm-up is caught on the very first
//! seed, whatever the chaos schedule does.
//!
//! The client mix is either the classic torture roll or, with
//! [`TortureOptions::workload`] set, one of the open-loop scenario
//! shapes ([`Scenario`]): YCSB A–F (RMW for A/F, scans for E), the
//! compose flows, the hot-key skew storm, or the WAN geo profile.
//! Scenario ops decompose into the primitive reads and writes the
//! history already records, so the checkers need no scenario knowledge.
//! Each client thread draws its ops from a seeded stream that is the
//! same on both runtimes.
//!
//! After the clients join, the driver quiesces and issues a sequential
//! **probe read of every key at every live node**. Probes enter the same
//! history, so a replica left stale by a protocol bug fails the
//! linearizability search even if no concurrent client read happened to
//! catch it.

use crate::history::{ClientOp, History, HistoryRecorder};
use crate::persistency::{self, AuditMode, NodeLog};
use crate::schedule::{generate, shrink, Rng, Schedule, ScheduleOptions};
use minos_cluster::tcp::{TcpClient, TcpNode, TcpNodeConfig};
use minos_cluster::Cluster;
use minos_core::obs::{OpKind, SharedSink};
use minos_nvm::LogEntry;
use minos_types::{
    ClusterConfig, DdpModel, FaultSpec, Key, MsgChaos, NodeId, PersistencyModel, ScopeId, ShardMap,
    Ts,
};
use minos_workload::openloop::Scenario;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Workload and cluster knobs for one torture campaign.
#[derive(Debug, Clone)]
pub struct TortureOptions {
    /// Persistency model under test (consistency is always `Lin`).
    pub model: PersistencyModel,
    /// Cluster size.
    pub nodes: u16,
    /// Concurrent client threads.
    pub clients: u16,
    /// Ops per client thread (after warm-up).
    pub ops_per_client: u32,
    /// Key-space size (small on purpose: contention is the point).
    pub keys: u64,
    /// Message injections per generated schedule.
    pub injections: u32,
    /// Allow crash/rejoin points.
    pub allow_crash: bool,
    /// Most crash points per schedule (≥2 yields rolling restarts).
    pub max_crashes: u32,
    /// Deliberate protocol bug to arm (mutation smoke). Ignored unless
    /// the engines were compiled with `fault-injection`.
    pub fault: Option<FaultSpec>,
    /// Key-space placement: when set, nodes replicate only their shards,
    /// clients route through the facade, the workload mixes in multi-key
    /// cross-shard writes, recovery donors come from the crashed node's
    /// replica group, and the persistency oracles audit per the map.
    /// Threaded runtime only: TCP rejoin picks any live donor rather than
    /// a replica-group peer, and TCP clients have no `put_multi`.
    pub placement: Option<ShardMap>,
    /// Scenario shaping the client mix ([`Scenario`] from the open-loop
    /// library). `None` keeps the classic torture mix. Scenario ops
    /// decompose into the history's primitive reads and writes — an RMW
    /// is a read plus a dependent write, a scan a fan-out of point reads
    /// — so every checker and oracle applies unchanged. The skew storm
    /// biases key choice onto a hot head; the geo profile additionally
    /// raises the threaded cluster's wire latency to a WAN hop.
    pub workload: Option<Scenario>,
}

impl TortureOptions {
    /// Defaults sized so one run takes well under a second.
    #[must_use]
    pub fn new(model: PersistencyModel) -> Self {
        TortureOptions {
            model,
            nodes: 3,
            clients: 3,
            ops_per_client: 15,
            keys: 4,
            injections: 5,
            allow_crash: true,
            max_crashes: 2,
            fault: None,
            placement: None,
            workload: None,
        }
    }

    /// Shapes the client mix after `scenario` (see [`Scenario`]).
    #[must_use]
    pub fn with_workload(mut self, scenario: Scenario) -> Self {
        self.workload = Some(scenario);
        self
    }

    /// Shards the cluster `shards` ways at `replicas` copies per shard,
    /// keeping `self.nodes` as the cluster size.
    #[must_use]
    pub fn sharded(mut self, shards: u32, replicas: u16) -> Self {
        self.placement = Some(ShardMap::uniform(shards, self.nodes as usize, replicas));
        self
    }

    /// Total client ops a run attempts (warm-up included).
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.keys + u64::from(self.clients) * u64::from(self.ops_per_client)
    }

    /// Schedule-generation knobs matching this workload (the same for
    /// both runtimes).
    #[must_use]
    pub fn schedule_options(&self) -> ScheduleOptions {
        ScheduleOptions {
            nodes: self.nodes,
            injections: self.injections,
            // Rough messages-per-op upper bound keeps injections inside
            // the run's actual traffic.
            max_nth: self.total_ops() * 6,
            // The live runtimes have no retransmission: drops would
            // wedge writes by design, so schedules stay delay/reorder.
            kinds: vec![MsgChaos::DelayToFlush, MsgChaos::ReorderNext],
            allow_crash: self.allow_crash,
            max_crashes: self.max_crashes,
            total_ops: self.total_ops(),
        }
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunReport {
    /// Every violation any checker found (empty = the run conforms).
    pub violations: Vec<String>,
    /// Client ops the run completed.
    pub ops: usize,
}

/// A reproduced, shrunk failure.
#[derive(Debug)]
pub struct Failure {
    /// The seed that produced the violating schedule.
    pub seed: u64,
    /// The greedily-shrunk schedule that still fails.
    pub shrunk: Schedule,
    /// The violations of the final (shrunk) reproduction run.
    pub violations: Vec<String>,
    /// Re-runs the shrinker spent.
    pub shrink_runs: usize,
}

/// A whole campaign's result.
#[derive(Debug)]
pub struct TortureResult {
    /// The first failure found, if any.
    pub failure: Option<Failure>,
    /// Seeds actually run (stops early on failure).
    pub seeds_run: u64,
    /// Completed ops checked across all clean runs.
    pub ops_checked: usize,
}

/// Runs all checkers over a finished run.
fn check_everything(
    model: PersistencyModel,
    history: &History,
    logs: &[NodeLog],
    placement: Option<&ShardMap>,
    ledger: &Ledger,
) -> Vec<String> {
    let mut v = crate::check_consistency(history);
    v.extend(persistency::check_placed(model, history, logs, placement));
    let written = ledger.written.lock().unwrap();
    for (k, ts, got) in ledger.reads.lock().unwrap().iter() {
        if ts.version == 0 {
            if !got.is_empty() {
                v.push(format!(
                    "value violation: a read of {k} observed the initial \
                     version yet returned {} bytes",
                    got.len()
                ));
            }
        } else if let Some(expect) = written.get(&(*k, *ts)) {
            if got != expect {
                v.push(format!(
                    "value violation: read of ({k}, {ts}) returned {:?}, \
                     but that version wrote {:?}",
                    String::from_utf8_lossy(got),
                    String::from_utf8_lossy(expect),
                ));
            }
        }
    }
    v
}

/// What a client thread decides to do next.
enum Roll {
    Write,
    MultiWrite,
    Read,
    /// Read-modify-write: a read followed by a dependent write of the
    /// same key. Decomposes into two primitive history ops.
    Rmw,
    /// A fan-out of point reads over this many adjacent keys.
    Scan(u64),
    Flush,
}

/// Picks the next op. `multi_ok` gates batched multi-key writes (the
/// threaded facade routes them; TCP clients have none).
fn roll(
    rng: &mut Rng,
    model: PersistencyModel,
    multi_ok: bool,
    workload: Option<Scenario>,
) -> Roll {
    let Some(w) = workload else {
        // The classic torture mix.
        return match rng.below(100) {
            0..=47 => Roll::Write,
            48..=54 if multi_ok => Roll::MultiWrite,
            48..=92 => Roll::Read,
            _ if model == PersistencyModel::Scope => Roll::Flush,
            _ => Roll::Read,
        };
    };
    // Scope-model runs keep a slice of flushes whatever the scenario, so
    // the scope machinery stays under test.
    if model == PersistencyModel::Scope && rng.chance(1, 16) {
        return Roll::Flush;
    }
    let pct = rng.below(100);
    match w {
        // YCSB-A is 50% RMW under torture (the update half becomes a
        // dependent read-then-write); F is the same mix drawn uniform.
        Scenario::YcsbA | Scenario::YcsbF => {
            if pct < 50 {
                Roll::Rmw
            } else {
                Roll::Read
            }
        }
        // B, D and the geo profile share a 95/5 read-heavy point mix;
        // geo's WAN latency comes from the cluster config, not the mix.
        Scenario::YcsbB | Scenario::YcsbD | Scenario::Geo => {
            if pct < 5 {
                Roll::Write
            } else {
                Roll::Read
            }
        }
        Scenario::YcsbC => Roll::Read,
        Scenario::YcsbE => {
            if pct < 95 {
                Roll::Scan(1 + rng.below(3))
            } else {
                Roll::Write
            }
        }
        // Compose alternates post composition (a burst of adjacent
        // writes — batched when the runtime can) with timeline fan-ins.
        Scenario::Compose => match pct % 3 {
            0 if multi_ok => Roll::MultiWrite,
            0 => Roll::Write,
            1 => Roll::Read,
            _ => Roll::Scan(2),
        },
        // The skew storm's heat lives in pick_key; the mix is half/half.
        Scenario::Skew => {
            if pct < 50 {
                Roll::Write
            } else {
                Roll::Read
            }
        }
    }
}

/// Key choice for the next op: uniform, except the skew storm sends 60%
/// of traffic to a two-key hot head.
fn pick_key(rng: &mut Rng, keys: u64, workload: Option<Scenario>) -> Key {
    if workload == Some(Scenario::Skew) && rng.chance(3, 5) {
        return Key(rng.below(2.min(keys)));
    }
    Key(rng.below(keys))
}

/// A client or control op's outcome; the error is only ever reported.
type OpResult<T> = Result<T, String>;

/// What the clients wrote and read: written values keyed by the
/// protocol-assigned `(key, ts)` — the ground truth reads and the
/// persistency oracles are audited against — and every read as
/// `(key, observed ts, observed bytes)`.
#[derive(Default)]
struct Ledger {
    written: Mutex<HashMap<(Key, Ts), Vec<u8>>>,
    reads: Mutex<Vec<(Key, Ts, Vec<u8>)>>,
}

impl Ledger {
    fn put(
        &self,
        client: &mut impl Client,
        node: NodeId,
        key: Key,
        value: Vec<u8>,
        scope: Option<ScopeId>,
    ) -> OpResult<()> {
        let ts = client.put(node, key, &value, scope)?;
        self.written.lock().unwrap().insert((key, ts), value);
        Ok(())
    }

    fn put_multi(
        &self,
        client: &mut impl Client,
        node: NodeId,
        batch: Vec<(Key, Vec<u8>)>,
        scope: Option<ScopeId>,
    ) -> OpResult<()> {
        let tss = client.put_multi(node, &batch, scope)?;
        let mut w = self.written.lock().unwrap();
        for ((k, v), ts) in batch.into_iter().zip(tss) {
            w.insert((k, ts), v);
        }
        Ok(())
    }

    fn get(&self, client: &mut impl Client, node: NodeId, key: Key) -> OpResult<()> {
        let (v, ts) = client.get(node, key)?;
        self.reads.lock().unwrap().push((key, ts, v));
        Ok(())
    }
}

/// A live runtime under torture: the control surface the crash
/// controller drives, and a factory for client handles.
trait Runtime {
    /// A client thread's handle. It does not borrow the runtime, so the
    /// controller can crash and rejoin nodes while clients run.
    type Client: Client + Send;
    /// Whether clients can issue batched multi-key writes.
    const MULTI_WRITES: bool;
    fn client(&self) -> Self::Client;
    /// Client ops completed so far; crash points are keyed on it.
    fn completed(&self) -> u64;
    /// The history clock now: a rejoiner is audited from here on.
    fn clock(&self) -> u64;
    /// Crashes `node` and has the survivors exclude it.
    fn crash(&mut self, node: NodeId) -> OpResult<()>;
    /// Lets in-flight work land while clients are paused (nodes in
    /// `down` excepted) before a rejoin ships a donor's durable log.
    fn quiesce(&self, down: &[NodeId]);
    /// Brings crashed `node` back: own-log replay, donor catch-up,
    /// readmission.
    fn rejoin(&mut self, node: NodeId) -> OpResult<()>;
    /// `node`'s durable log (crashed nodes too: NVM survives).
    fn durable_log(&self, node: NodeId) -> OpResult<Vec<LogEntry>>;
    fn history(&self) -> History;
    fn shutdown(self);
}

/// A client handle: blocking ops at a chosen coordinator.
trait Client {
    fn put(&mut self, node: NodeId, key: Key, value: &[u8], scope: Option<ScopeId>)
        -> OpResult<Ts>;
    fn put_multi(
        &mut self,
        node: NodeId,
        writes: &[(Key, Vec<u8>)],
        scope: Option<ScopeId>,
    ) -> OpResult<Vec<Ts>>;
    fn get(&mut self, node: NodeId, key: Key) -> OpResult<(Vec<u8>, Ts)>;
    fn persist_scope(&mut self, node: NodeId, scope: ScopeId) -> OpResult<()>;
}

/// Client thread `c`'s op stream. Failed ops need no handling here: a
/// write that never returned stays pending in the history.
fn client_ops(
    client: &mut impl Client,
    c: u16,
    seed: u64,
    opts: &TortureOptions,
    multi_ok: bool,
    paused: &AtomicBool,
    ledger: &Ledger,
) {
    let mut rng = Rng::new(seed ^ (0xC1E27 + u64::from(c) * 0x9E3779B9));
    // Scope-model clients pin their coordinator: scopes are registered
    // per (origin, sc), so the flush must go through the node that
    // coordinated the scoped writes.
    let scoped = opts.model == PersistencyModel::Scope;
    let pinned = NodeId(c % opts.nodes);
    let scope = ScopeId(u32::from(c));
    for i in 0..opts.ops_per_client {
        while paused.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let node = if scoped {
            pinned
        } else {
            NodeId(rng.below(u64::from(opts.nodes)) as u16)
        };
        let key = pick_key(&mut rng, opts.keys, opts.workload);
        let tag = format!("s{seed:x}-c{c}-i{i}");
        match roll(&mut rng, opts.model, multi_ok, opts.workload) {
            Roll::Write => {
                let sc = (scoped && rng.chance(2, 3)).then_some(scope);
                let _ = ledger.put(client, node, key, tag.into_bytes(), sc);
            }
            Roll::MultiWrite => {
                // 2–3 adjacent keys: consecutive keys land on
                // consecutive shards, so the batch crosses a shard
                // boundary whenever the map has one.
                let count = (2 + u64::from(rng.chance(1, 2))).min(opts.keys);
                let batch = (0..count)
                    .map(|j| {
                        let k = Key((key.0 + j) % opts.keys);
                        (k, format!("{tag}-m{j}").into_bytes())
                    })
                    .collect();
                let sc = (scoped && rng.chance(2, 3)).then_some(scope);
                let _ = ledger.put_multi(client, node, batch, sc);
            }
            Roll::Read => {
                let _ = ledger.get(client, node, key);
            }
            Roll::Rmw => {
                // Read, then the dependent write (issued whether or not
                // the read succeeded): two primitive history ops, so
                // every oracle applies as-is.
                let _ = ledger.get(client, node, key);
                let _ = ledger.put(client, node, key, format!("{tag}-rmw").into_bytes(), None);
            }
            Roll::Scan(len) => {
                // Each leg is an ordinary point read; a failed leg ends
                // the scan.
                for j in 0..len {
                    if ledger
                        .get(client, node, Key((key.0 + j) % opts.keys))
                        .is_err()
                    {
                        break;
                    }
                }
            }
            Roll::Flush => {
                let _ = client.persist_scope(pinned, scope);
            }
        }
    }
}

/// One run of `schedule` on `rt`: warm-up, the client threads under the
/// crash controller, post-run rejoin, the probe pass, then every checker
/// over the history and durable logs. Shuts `rt` down.
fn run<R: Runtime>(mut rt: R, schedule: &Schedule, opts: &TortureOptions) -> RunReport {
    let ledger = Ledger::default();
    let mut violations = Vec::new();

    // Warm-up: one sequential, overlap-free write per key.
    let mut warm = rt.client();
    for k in 0..opts.keys {
        let node = NodeId((k % u64::from(opts.nodes)) as u16);
        let value = format!("warmup-k{k}").into_bytes();
        if let Err(e) = ledger.put(&mut warm, node, Key(k), value, None) {
            violations.push(format!("warm-up write of k{k} via {node} failed: {e}"));
        }
    }
    drop(warm);

    let paused = AtomicBool::new(false);
    let done_clients = AtomicU32::new(0);
    let multi_ok =
        R::MULTI_WRITES && (opts.placement.is_some() || opts.workload == Some(Scenario::Compose));

    // Membership bookkeeping the crash controller maintains: nodes
    // currently down, every node that crashed at least once, and — per
    // rejoined node — the history-clock watermark of its readmission
    // (everything invoked after it is audited in full).
    let mut down: Vec<NodeId> = Vec::new();
    let mut ever_crashed: HashSet<NodeId> = HashSet::new();
    let mut rejoined_at: HashMap<NodeId, u64> = HashMap::new();

    std::thread::scope(|s| {
        for c in 0..opts.clients {
            let mut client = rt.client();
            let (paused, done_clients, ledger) = (&paused, &done_clients, &ledger);
            s.spawn(move || {
                client_ops(
                    &mut client,
                    c,
                    schedule.seed,
                    opts,
                    multi_ok,
                    paused,
                    ledger,
                );
                done_clients.fetch_add(1, Ordering::Release);
            });
        }

        // The driver doubles as the crash controller, keyed on protocol
        // progress so schedules replay stably. Points run in order — a
        // rolling restart when the windows chain across nodes.
        let all_done = || done_clients.load(Ordering::Acquire) >= u32::from(opts.clients);
        let await_ops = |rt: &R, ops: u64| {
            while rt.completed() < ops && !all_done() {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        for cp in &schedule.crashes {
            let node = NodeId(cp.node % opts.nodes);
            await_ops(&rt, cp.after_ops);
            if down.contains(&node) {
                // Shrinking can drop an earlier rejoin and leave this
                // point aimed at a node that is already down.
                continue;
            }
            if let Err(e) = rt.crash(node) {
                violations.push(e);
            }
            down.push(node);
            ever_crashed.insert(node);
            let Some(after) = cp.recover_after_ops else {
                continue;
            };
            await_ops(&rt, after);
            // Quiesce before the catch-up delta ships: rejoin replicates
            // from the *donor's durable log*, so in-flight writes (and,
            // under the background-persist models, persists still in the
            // device) must land first or the rejoiner would serve
            // genuinely stale data.
            paused.store(true, Ordering::Release);
            rt.quiesce(&down);
            match rt.rejoin(node) {
                Ok(()) => {
                    down.retain(|&n| n != node);
                    rejoined_at.insert(node, rt.clock());
                }
                Err(e) => violations.push(format!("rejoin of {node} failed: {e}")),
            }
            paused.store(false, Ordering::Release);
        }
    });

    // Post-run: rejoin every node the schedule left down — the rejoin
    // machinery is part of what's under test, and the probe pass below
    // then audits the rejoiner too.
    for node in std::mem::take(&mut down) {
        match rt.rejoin(node) {
            Ok(()) => {
                rejoined_at.insert(node, rt.clock());
            }
            Err(e) => violations.push(format!("post-run rejoin of {node} failed: {e}")),
        }
    }

    // Probe pass: sequential reads of every key at every node, entering
    // the same history (they are real client ops).
    std::thread::sleep(Duration::from_millis(10));
    let mut probe = rt.client();
    for k in 0..opts.keys {
        for n in 0..opts.nodes {
            let _ = ledger.get(&mut probe, NodeId(n), Key(k));
        }
    }
    drop(probe);

    // Durable-log snapshots. The audit mode encodes each node's
    // membership history: full-run nodes get the full containment
    // oracles, rejoined nodes answer for everything invoked after their
    // readmission, nodes that never made it back get the phantom oracle
    // only.
    let mut logs = Vec::new();
    for node in (0..opts.nodes).map(NodeId) {
        let mode = if !ever_crashed.contains(&node) {
            AuditMode::Full
        } else if let Some(&since) = rejoined_at.get(&node) {
            AuditMode::Rejoined { since }
        } else {
            AuditMode::Excused
        };
        match rt.durable_log(node) {
            Ok(entries) => logs.push(NodeLog {
                node,
                entries: entries.iter().map(|e| (e.key, e.ts)).collect(),
                mode,
            }),
            Err(e) => violations.push(format!("durable-log snapshot of {node} failed: {e}")),
        }
    }

    let history = rt.history();
    let ops = history.completed().count();
    violations.extend(check_everything(
        opts.model,
        &history,
        &logs,
        opts.placement.as_ref(),
        &ledger,
    ));
    rt.shutdown();
    RunReport { violations, ops }
}

/// One threaded-cluster run under `schedule`.
#[must_use]
pub fn run_threaded(schedule: &Schedule, opts: &TortureOptions) -> RunReport {
    let mut cfg = ClusterConfig::cloudlab().with_nodes(opts.nodes as usize);
    if let Some(map) = &opts.placement {
        assert_eq!(
            map.n_nodes(),
            opts.nodes as usize,
            "placement map sized for a different cluster"
        );
        cfg = cfg.with_placement(map.clone());
    }
    cfg.wire_latency_ns = 20_000;
    cfg.failure_timeout_ns = 40_000_000;
    if opts.workload == Some(Scenario::Geo) {
        // WAN profile: every hop pays a 500 µs geo link, and the failure
        // detector backs off to match.
        cfg.wire_latency_ns = 500_000;
        cfg.failure_timeout_ns = 200_000_000;
    }
    if !schedule.injections.is_empty() {
        cfg = cfg.with_chaos(schedule.spec());
    }
    if let Some(f) = opts.fault {
        cfg = cfg.with_fault(f);
    }
    let recorder = minos_core::obs::shared(HistoryRecorder::new());
    let sink: SharedSink = recorder.clone();
    let cluster = Cluster::spawn_observed(cfg, DdpModel::lin(opts.model), vec![sink]);
    let rt = Threaded {
        cluster: Arc::new(cluster),
        recorder,
    };
    run(rt, schedule, opts)
}

/// The threaded cluster, with its history from the trace tap.
struct Threaded {
    cluster: Arc<Cluster>,
    recorder: Arc<Mutex<HistoryRecorder>>,
}

impl Runtime for Threaded {
    type Client = Arc<Cluster>;
    const MULTI_WRITES: bool = true;

    fn client(&self) -> Arc<Cluster> {
        Arc::clone(&self.cluster)
    }

    fn completed(&self) -> u64 {
        self.recorder.lock().unwrap().completed_count() as u64
    }

    fn clock(&self) -> u64 {
        let ops = self.history().ops;
        ops.iter()
            .map(|o| o.ret.unwrap_or(o.call))
            .max()
            .unwrap_or(0)
    }

    fn crash(&mut self, node: NodeId) -> OpResult<()> {
        self.cluster.crash_node(node);
        let detected = self
            .cluster
            .await_failure_detection(node, Duration::from_secs(5));
        detected
            .then_some(())
            .ok_or_else(|| format!("failure detection never reported {node}"))
    }

    fn quiesce(&self, down: &[NodeId]) {
        // Drain the ops pending at live nodes (bounded: a write wedged by
        // chaos may never return).
        let deadline = Instant::now() + Duration::from_secs(2);
        let pending = || {
            let ops = self.history().ops;
            ops.iter()
                .any(|o| !o.is_complete() && !down.contains(&o.node))
        };
        while pending() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn rejoin(&mut self, node: NodeId) -> OpResult<()> {
        std::thread::sleep(Duration::from_millis(25));
        // The facade picks the donor: an alive placement-group peer, or
        // any alive node when fully replicated.
        self.cluster
            .rejoin_node(node)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    fn durable_log(&self, node: NodeId) -> OpResult<Vec<LogEntry>> {
        self.cluster.durable_log(node).map_err(|e| e.to_string())
    }

    fn history(&self) -> History {
        self.recorder.lock().unwrap().snapshot()
    }

    fn shutdown(self) {
        match Arc::try_unwrap(self.cluster) {
            Ok(cl) => cl.shutdown(),
            Err(_) => unreachable!("every client handle is dropped"),
        }
    }
}

impl Client for Arc<Cluster> {
    fn put(
        &mut self,
        node: NodeId,
        key: Key,
        value: &[u8],
        scope: Option<ScopeId>,
    ) -> OpResult<Ts> {
        Cluster::put_scoped(self, node, key, value.to_vec().into(), scope)
            .map_err(|e| e.to_string())
    }

    fn put_multi(
        &mut self,
        node: NodeId,
        writes: &[(Key, Vec<u8>)],
        scope: Option<ScopeId>,
    ) -> OpResult<Vec<Ts>> {
        let writes = writes.iter().map(|(k, v)| (*k, v.clone().into())).collect();
        Cluster::put_multi(self, node, writes, scope).map_err(|e| e.to_string())
    }

    fn get(&mut self, node: NodeId, key: Key) -> OpResult<(Vec<u8>, Ts)> {
        let (v, ts) = Cluster::get_versioned(self, node, key).map_err(|e| e.to_string())?;
        Ok((v.as_ref().to_vec(), ts))
    }

    fn persist_scope(&mut self, node: NodeId, scope: ScopeId) -> OpResult<()> {
        Cluster::persist_scope(self, node, scope).map_err(|e| e.to_string())
    }
}

/// One TCP-cluster run under `schedule`. Crash points kill the node
/// in-process (threads stopped, ports released, peers treating the dead
/// sockets as frame loss) and notify survivors via the `set_peer_status`
/// admin op; rejoin re-serves the node on the same addresses against its
/// surviving on-disk NVM log, with a live peer as catch-up donor.
#[must_use]
pub fn run_tcp(schedule: &Schedule, opts: &TortureOptions) -> RunReport {
    assert!(
        opts.placement.is_none(),
        "sharded torture runs on the threaded runtime: TCP rejoin picks any \
         live donor rather than a replica-group peer, and TCP clients have \
         no put_multi"
    );
    run(TcpHarness::bind(schedule, opts), schedule, opts)
}

/// Nanoseconds since `epoch`: the TCP history clock.
fn now_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A live TCP torture cluster: node handles (`None` while crashed), the
/// client address plan, the per-node on-disk NVM logs (present only when
/// the schedule carries crash points), the config every node is
/// (re-)served from, and the client-side history with its clock epoch.
struct TcpHarness {
    nodes: Vec<Option<TcpNode>>,
    client_addrs: Vec<SocketAddr>,
    log_paths: Vec<Option<PathBuf>>,
    template: TcpNodeConfig,
    history: Arc<Mutex<Vec<ClientOp>>>,
    epoch: Instant,
}

impl TcpHarness {
    /// Brings up an in-process TCP cluster on fresh ports. All probe
    /// listeners are held simultaneously before any port is reused (a
    /// sequentially probed port can be handed right back by the kernel),
    /// and the whole bind phase retries on a collision — a port released
    /// by a probe can still be grabbed by another process between probe
    /// and bind.
    fn bind(schedule: &Schedule, opts: &TortureOptions) -> TcpHarness {
        let n = usize::from(opts.nodes);
        // Crash schedules need every node's NVM to survive its process:
        // an on-disk log per node, cleaned of any stale content from a
        // previous (possibly aborted) run of the same seed.
        let log_paths: Vec<Option<PathBuf>> = (0..n)
            .map(|i| {
                (!schedule.crashes.is_empty()).then(|| {
                    let path = std::env::temp_dir().join(format!(
                        "minos-torture-{}-{:x}-n{i}.nvmlog",
                        std::process::id(),
                        schedule.seed,
                    ));
                    let _ = std::fs::remove_file(&path);
                    path
                })
            })
            .collect();
        'attempt: for _ in 0..16 {
            let probes: Vec<std::net::TcpListener> = (0..2 * n)
                .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("probe port"))
                .collect();
            let addrs: Vec<SocketAddr> = probes.iter().map(|l| l.local_addr().unwrap()).collect();
            drop(probes);
            let (peers, client_addrs) = addrs.split_at(n);
            let mut harness = TcpHarness {
                nodes: Vec::with_capacity(n),
                client_addrs: client_addrs.to_vec(),
                log_paths: log_paths.clone(),
                template: TcpNodeConfig {
                    node: NodeId(0),
                    model: DdpModel::lin(opts.model),
                    peers: peers.to_vec(),
                    client_addr: client_addrs[0],
                    persist_ns_per_kb: 1295,
                    batching: false,
                    broadcast: false,
                    trace_out: None,
                    metrics_out: None,
                    metrics_interval: Duration::from_secs(1),
                    chaos: (!schedule.injections.is_empty()).then(|| schedule.spec()),
                    fault: opts.fault,
                    placement: None,
                    nvm_log: None,
                    rejoin_donor: None,
                },
                history: Arc::default(),
                epoch: Instant::now(),
            };
            for i in 0..n {
                match TcpNode::serve(harness.config(i, None)) {
                    Ok(node) => harness.nodes.push(Some(node)),
                    Err(_) => {
                        harness.shutdown();
                        continue 'attempt;
                    }
                }
            }
            return harness;
        }
        panic!("could not bind a TCP cluster after 16 attempts");
    }

    /// The config for (re-)serving node `i`.
    fn config(&self, i: usize, rejoin_donor: Option<SocketAddr>) -> TcpNodeConfig {
        TcpNodeConfig {
            node: NodeId(i as u16),
            client_addr: self.client_addrs[i],
            nvm_log: self.log_paths[i].clone(),
            rejoin_donor,
            ..self.template.clone()
        }
    }

    /// Sends `set_peer_status(peer, up)` to every live node but `peer`.
    fn announce(&self, peer: NodeId, up: bool) {
        for (j, &addr) in self.client_addrs.iter().enumerate() {
            if j != usize::from(peer.0) && self.nodes[j].is_some() {
                if let Ok(mut c) = TcpClient::connect(addr) {
                    let _ = c.set_peer_status(peer, up);
                }
            }
        }
    }
}

impl Runtime for TcpHarness {
    type Client = TcpTortureClient;
    const MULTI_WRITES: bool = false;

    fn client(&self) -> TcpTortureClient {
        TcpTortureClient {
            addrs: self.client_addrs.clone(),
            conns: self.client_addrs.iter().map(|_| None).collect(),
            history: Arc::clone(&self.history),
            epoch: self.epoch,
        }
    }

    fn completed(&self) -> u64 {
        let history = self.history.lock().unwrap();
        history.iter().filter(|o| o.is_complete()).count() as u64
    }

    fn clock(&self) -> u64 {
        now_ns(self.epoch)
    }

    fn crash(&mut self, node: NodeId) -> OpResult<()> {
        if let Some(handle) = self.nodes[usize::from(node.0)].take() {
            handle.shutdown();
        }
        // The TCP runtime has no in-band failure detector: the control
        // plane alerts the survivors, which shrink their quorums and
        // complete any write wedged on the dead peer.
        self.announce(node, false);
        Ok(())
    }

    fn quiesce(&self, _down: &[NodeId]) {
        std::thread::sleep(Duration::from_millis(50));
    }

    /// Re-serves `node` on its original addresses: own-log replay from
    /// the surviving NVM file, donor catch-up from the first live node,
    /// then `set_peer_status` notifications so every survivor re-admits
    /// it (dropping any cached connection to its dead pre-crash sockets)
    /// and the rejoiner learns which peers are still down.
    fn rejoin(&mut self, node: NodeId) -> OpResult<()> {
        let ni = usize::from(node.0);
        let donor = self
            .nodes
            .iter()
            .position(Option::is_some)
            .map(|j| self.client_addrs[j]);
        let cfg = self.config(ni, donor);
        // The old listener's port is released by shutdown, but give the
        // kernel a few tries in case another process squats it briefly.
        let served = (0..10).find_map(|_| {
            let served = TcpNode::serve(cfg.clone()).ok();
            if served.is_none() {
                std::thread::sleep(Duration::from_millis(10));
            }
            served
        });
        self.nodes[ni] = Some(served.ok_or("the node could not rebind its ports")?);
        self.announce(node, true);
        if let Ok(mut c) = TcpClient::connect(self.client_addrs[ni]) {
            for (j, peer) in self.nodes.iter().enumerate() {
                if peer.is_none() {
                    let _ = c.set_peer_status(NodeId(j as u16), false);
                }
            }
        }
        Ok(())
    }

    fn durable_log(&self, node: NodeId) -> OpResult<Vec<LogEntry>> {
        TcpClient::connect(self.client_addrs[usize::from(node.0)])
            .and_then(|mut c| c.dump_durable())
            .map_err(|e| e.to_string())
    }

    fn history(&self) -> History {
        History {
            ops: self.history.lock().unwrap().clone(),
        }
    }

    fn shutdown(self) {
        for node in self.nodes.into_iter().flatten() {
            node.shutdown();
        }
        for path in self.log_paths.into_iter().flatten() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A TCP client thread's handle: lazy per-node connections, dropped on
/// error (a crashed node kills its sockets, and a rejoined node listens
/// on a fresh listener at the same address), and the shared client-side
/// history.
struct TcpTortureClient {
    addrs: Vec<SocketAddr>,
    conns: Vec<Option<TcpClient>>,
    history: Arc<Mutex<Vec<ClientOp>>>,
    epoch: Instant,
}

impl TcpTortureClient {
    /// Runs one blocking call at `node` and records it in the history.
    /// A node that refuses the connection is down: nothing was invoked,
    /// nothing is recorded. `op` returns the result plus the timestamp
    /// the op carried. A failed call drops the connection; a failed
    /// write stays in the history as pending (its effects may or may not
    /// have landed), while a failed read or flush has nothing to audit.
    fn call<T>(
        &mut self,
        node: NodeId,
        kind: OpKind,
        key: Option<Key>,
        scope: Option<ScopeId>,
        op: impl FnOnce(&mut TcpClient) -> std::io::Result<(T, Option<Ts>)>,
    ) -> OpResult<T> {
        let ni = usize::from(node.0);
        if self.conns[ni].is_none() {
            self.conns[ni] = Some(TcpClient::connect(self.addrs[ni]).map_err(|e| e.to_string())?);
        }
        let call = now_ns(self.epoch);
        let result = op(self.conns[ni].as_mut().expect("connected above"));
        let (ret, ts) = match &result {
            Ok((_, ts)) => (Some(now_ns(self.epoch)), *ts),
            Err(_) => {
                self.conns[ni] = None;
                (None, None)
            }
        };
        if ret.is_some() || kind == OpKind::Write {
            self.history.lock().unwrap().push(ClientOp {
                node,
                req: call,
                kind,
                key,
                scope,
                call,
                ret,
                ts,
                obsolete: false,
            });
        }
        result.map(|(v, _)| v).map_err(|e| e.to_string())
    }
}

impl Client for TcpTortureClient {
    fn put(
        &mut self,
        node: NodeId,
        key: Key,
        value: &[u8],
        scope: Option<ScopeId>,
    ) -> OpResult<Ts> {
        self.call(node, OpKind::Write, Some(key), scope, |c| {
            c.put(key, value, scope).map(|ts| (ts, Some(ts)))
        })
    }

    fn put_multi(
        &mut self,
        _node: NodeId,
        _writes: &[(Key, Vec<u8>)],
        _scope: Option<ScopeId>,
    ) -> OpResult<Vec<Ts>> {
        unreachable!("TCP clients have no put_multi (MULTI_WRITES is false)")
    }

    fn get(&mut self, node: NodeId, key: Key) -> OpResult<(Vec<u8>, Ts)> {
        self.call(node, OpKind::Read, Some(key), None, |c| {
            c.get_versioned(key).map(|(v, ts)| ((v, ts), Some(ts)))
        })
    }

    fn persist_scope(&mut self, node: NodeId, scope: ScopeId) -> OpResult<()> {
        self.call(node, OpKind::PersistScope, None, Some(scope), |c| {
            c.persist_scope(scope).map(|()| ((), None))
        })
    }
}

/// Runs `count` seeds starting at `start`, stopping (and shrinking) on
/// the first violation. `verbose` prints per-seed progress to stdout —
/// the `minos-torture` binary's output.
pub fn torture<R>(
    start: u64,
    count: u64,
    opts: &TortureOptions,
    runner: R,
    verbose: bool,
) -> TortureResult
where
    R: Fn(&Schedule, &TortureOptions) -> RunReport,
{
    let sched_opts = opts.schedule_options();
    let mut ops_checked = 0;
    for i in 0..count {
        let seed = start.wrapping_add(i);
        let schedule = generate(seed, &sched_opts);
        let report = runner(&schedule, opts);
        if report.violations.is_empty() {
            ops_checked += report.ops;
            if verbose {
                println!(
                    "seed {seed:#018x} {model:?}{wl}: ok ({ops} ops, {w} injections{crash})",
                    model = opts.model,
                    wl = opts.workload.map(|w| format!("/{w}")).unwrap_or_default(),
                    ops = report.ops,
                    w = schedule.injections.len(),
                    crash = match schedule.crashes.len() {
                        0 => String::new(),
                        1 => ", 1 crash".into(),
                        k => format!(", {k} crashes"),
                    },
                );
            }
            continue;
        }
        if verbose {
            println!(
                "seed {seed:#018x} {model:?}{wl}: VIOLATION — shrinking…",
                model = opts.model,
                wl = opts.workload.map(|w| format!("/{w}")).unwrap_or_default(),
            );
            for v in &report.violations {
                println!("  {v}");
            }
        }
        let (shrunk, shrink_runs) =
            shrink(&schedule, |s| !runner(s, opts).violations.is_empty(), 40);
        let final_report = runner(&shrunk, opts);
        let violations = if final_report.violations.is_empty() {
            report.violations
        } else {
            final_report.violations
        };
        return TortureResult {
            failure: Some(Failure {
                seed,
                shrunk,
                violations,
                shrink_runs,
            }),
            seeds_run: i + 1,
            ops_checked,
        };
    }
    TortureResult {
        failure: None,
        seeds_run: count,
        ops_checked,
    }
}
