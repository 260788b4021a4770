//! The per-node worker thread.
//!
//! Action interpretation is delegated to the shared
//! [`minos_core::runtime`] dispatcher; this module supplies the
//! crossbeam-channel transport ([`NodeHandler`]) and wraps it in the
//! [`Batched`] middleware so the Fig. 12 batching/broadcast capabilities
//! can be toggled per cluster via [`ClusterConfig`].

use crate::cluster::{CompletionMap, Outcome};
use crate::timer::Scheduler;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use minos_core::obs::{GaugeKind, SharedGauges, Tracer};
use minos_core::runtime::{
    ActionSink, BatchPolicy, Batched, ChaosNet, ChaosState, DispatchStats, Dispatcher,
    FrameTransport, TransportCounters,
};
use minos_core::{DelayClass, Event, NodeEngine, ReqId};
use minos_kv::DurableState;
use minos_nvm::LogEntry;
use minos_types::wire::TraceCtx;
use minos_types::{ClusterConfig, DdpModel, Key, Message, NodeId, Ts, Value};
use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Messages a node thread accepts.
#[derive(Debug)]
pub(crate) enum NodeMsg {
    /// A protocol or client event, with the trace context of the
    /// dispatch that caused it (`None` for client submissions).
    Ev(Event, Option<TraceCtx>),
    /// Framed peer traffic: one transport deposit carrying one or more
    /// protocol messages from `from`.
    Frame {
        /// Sending peer.
        from: NodeId,
        /// The batched messages, in emission order.
        msgs: Vec<Message>,
        /// The sending dispatch's trace context, if traced.
        ctx: Option<TraceCtx>,
    },
    /// Liveness beacon from a peer.
    Heartbeat {
        /// The beaconing peer.
        from: NodeId,
    },
    /// Donor side of recovery: ship the durable-log suffix.
    ShipLog {
        /// Ship entries at or after this LSN.
        since: u64,
        /// Where to send them.
        reply: Sender<Vec<LogEntry>>,
    },
    /// Rejoiner side of catch-up, step 1: report the newest durable
    /// version per key (served from NVM even while crashed — this *is*
    /// the "replay your own log first" step: the summary is what local
    /// replay reconstructs).
    QuerySummary {
        /// Where to send the summary.
        reply: Sender<Vec<(Key, Ts)>>,
    },
    /// Donor side of catch-up, step 2: ship the durable records the
    /// rejoiner's summary shows it missed.
    ShipDelta {
        /// The rejoiner's per-key durable high-water marks.
        have: Vec<(Key, Ts)>,
        /// Where to send the missing versions.
        reply: Sender<Vec<LogEntry>>,
    },
    /// Re-replication cutover: adopt `map` iff its placement epoch is
    /// newer, installing `entries` (the background copy) first when this
    /// node is the new replica.
    InstallPlacement {
        /// The new placement, epoch included.
        map: minos_types::ShardMap,
        /// Copied records for a node joining a group (empty for
        /// bystanders, who only swap their routing map).
        entries: Vec<LogEntry>,
        /// Signaled once the install is visible (new-replica side).
        done: Option<Sender<()>>,
    },
    /// Rejoiner side of recovery: replay shipped entries, install the
    /// rebuilt records, resume service.
    Revive {
        /// The shipped log suffix.
        entries: Vec<LogEntry>,
        /// Signaled when the node is serving again.
        done: Sender<()>,
    },
    /// Report the node's dispatch and transport counters.
    QueryStats {
        /// Where to send them.
        reply: Sender<(DispatchStats, TransportCounters)>,
    },
    /// Simulate a crash: stop processing (messages drain unhandled).
    Crash,
    /// Membership notice: `node` was detected failed by the cluster.
    PeerFailed {
        /// The failed peer.
        node: NodeId,
    },
    /// Membership notice: `node` rejoined.
    PeerRecovered {
        /// The recovered peer.
        node: NodeId,
    },
    /// Terminate the thread.
    Shutdown,
}

pub(crate) struct NodeThread {
    pub(crate) tx: Sender<NodeMsg>,
    pub(crate) handle: Option<JoinHandle<()>>,
}

/// Spawns the worker thread for `node`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_node(
    node: NodeId,
    cfg: ClusterConfig,
    model: DdpModel,
    rx: Receiver<NodeMsg>,
    tx: Sender<NodeMsg>,
    scheduler: Scheduler<NodeMsg>,
    completions: CompletionMap,
    failure_tx: Sender<NodeId>,
    tracer: Option<Tracer>,
    gauges: SharedGauges,
) -> NodeThread {
    let handle = std::thread::Builder::new()
        .name(format!("minos-node-{}", node.0))
        .spawn(move || {
            let mut dispatcher = Dispatcher::new();
            dispatcher.set_tracer(tracer);
            let mut engine = NodeEngine::new(node, cfg.nodes, model);
            engine.set_placement(cfg.placement.clone());
            #[cfg(feature = "fault-injection")]
            if let Some(f) = cfg.fault {
                if f.node == node.0 {
                    engine.arm_fault(f.kind);
                }
            }
            let chaos = cfg.chaos.as_ref().map(|spec| ChaosState::new(spec, node));
            NodeLoop {
                node,
                engine,
                dispatcher,
                counters: TransportCounters::default(),
                durable: DurableState::with_persist_latency(cfg.nvm_persist_ns_per_kb),
                cfg,
                model,
                rx,
                scheduler,
                completions,
                failure_tx,
                last_seen: HashMap::new(),
                crashed: false,
                inflight: HashMap::new(),
                chaos,
                gauges,
                dispatches: 0,
            }
            .run();
        })
        .expect("spawn node thread");
    NodeThread {
        tx,
        handle: Some(handle),
    }
}

struct NodeLoop {
    node: NodeId,
    engine: NodeEngine,
    dispatcher: Dispatcher<NodeEngine>,
    counters: TransportCounters,
    durable: DurableState,
    cfg: ClusterConfig,
    model: DdpModel,
    rx: Receiver<NodeMsg>,
    scheduler: Scheduler<NodeMsg>,
    completions: CompletionMap,
    failure_tx: Sender<NodeId>,
    last_seen: HashMap<NodeId, Instant>,
    crashed: bool,
    /// Client requests admitted here and not yet completed, each tagged
    /// with the shard its key belongs to (`None` when unsharded or
    /// keyless). Severed (reply senders dropped) on [`NodeMsg::Crash`] so
    /// blocked `Cluster::submit` callers observe the crash immediately
    /// instead of timing out.
    inflight: HashMap<ReqId, Option<u32>>,
    /// Seeded chaos bookkeeping (`ClusterConfig::chaos`); persists across
    /// dispatches so injection indices count whole-run outbound traffic.
    chaos: Option<ChaosState>,
    /// Cluster-shared resource telemetry: in-flight ops, lock-table
    /// size, inbox depth (sampled every [`GAUGE_SAMPLE_DISPATCHES`]
    /// dispatches) and the batch fill at each flush.
    gauges: SharedGauges,
    /// Dispatches handled so far — the gauge sampling pacer.
    dispatches: u64,
}

/// Sample the level gauges once per this many dispatches: the lock-table
/// scan is O(records), so it stays off the per-event hot path.
const GAUGE_SAMPLE_DISPATCHES: u64 = 32;

/// The crossbeam-cluster dispatch handler: frames ride the delay wheel,
/// persists go through the emulated NVM device, completions wake the
/// blocked client thread.
struct NodeHandler<'a> {
    node: NodeId,
    /// The dispatching node's trace context, stamped onto every frame
    /// and event this dispatch emits.
    ctx: Option<TraceCtx>,
    cfg: &'a ClusterConfig,
    scheduler: &'a Scheduler<NodeMsg>,
    durable: &'a mut DurableState,
    completions: &'a CompletionMap,
    inflight: &'a mut HashMap<ReqId, Option<u32>>,
}

impl NodeHandler<'_> {
    fn complete(&mut self, req: ReqId, outcome: Outcome) {
        self.inflight.remove(&req);
        if let Some(tx) = self.completions.lock().remove(&req) {
            let _ = tx.send(outcome);
        }
    }
}

impl FrameTransport for NodeHandler<'_> {
    fn deposit(&mut self, to: NodeId, msgs: Vec<Message>) {
        self.scheduler.send_after(
            self.cfg.wire_latency_ns,
            to,
            NodeMsg::Frame {
                from: self.node,
                msgs,
                ctx: self.ctx,
            },
        );
    }

    fn deposit_all(&mut self, dests: &[NodeId], msgs: Vec<Message>) {
        // Native broadcast: one wheel entry expands to every destination
        // at expiry.
        let deliveries = dests
            .iter()
            .map(|&to| {
                (
                    to,
                    NodeMsg::Frame {
                        from: self.node,
                        msgs: msgs.clone(),
                        ctx: self.ctx,
                    },
                )
            })
            .collect();
        self.scheduler
            .send_after_many(self.cfg.wire_latency_ns, deliveries);
    }

    fn set_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.ctx = ctx;
    }
}

impl ActionSink for NodeHandler<'_> {
    fn persist(&mut self, key: Key, ts: Ts, value: Value, _background: bool) {
        let ns = self.durable.device().persist_ns(value.len() as u64);
        self.durable.persist(key, ts, value);
        self.scheduler.send_after(
            ns,
            self.node,
            NodeMsg::Ev(Event::PersistDone { key, ts }, self.ctx),
        );
    }

    fn redirect(&mut self, to: NodeId, event: Event) {
        self.scheduler
            .send_after(self.cfg.wire_latency_ns, to, NodeMsg::Ev(event, self.ctx));
    }

    fn defer(&mut self, event: Event, _class: DelayClass) {
        // Local dispatch hop: back through our own queue.
        self.scheduler
            .send_after(0, self.node, NodeMsg::Ev(event, self.ctx));
    }

    fn write_done(&mut self, req: ReqId, _key: Key, ts: Ts, obsolete: bool) {
        self.complete(req, Outcome::Write { ts, obsolete });
    }

    fn read_done(&mut self, req: ReqId, _key: Key, value: Value, ts: Ts) {
        self.complete(req, Outcome::Read { value, ts });
    }

    fn persist_scope_done(&mut self, req: ReqId, scope: minos_types::ScopeId) {
        self.complete(req, Outcome::PersistScope { scope });
    }
}

impl NodeLoop {
    fn run(mut self) {
        let heartbeat_every =
            Duration::from_nanos(self.cfg.failure_timeout_ns / 4).max(Duration::from_millis(1));
        let mut next_beat = Instant::now();
        let boot = Instant::now();
        loop {
            let wait = next_beat.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(wait.max(Duration::from_micros(100))) {
                Ok(NodeMsg::Shutdown) => {
                    if let Some(tr) = self.dispatcher.tracer_mut() {
                        tr.flush_sinks();
                    }
                    return;
                }
                Ok(NodeMsg::Crash) => {
                    self.crashed = true;
                    // A crash loses every op this coordinator had in
                    // flight: drop their reply senders so the blocked
                    // clients fail fast rather than waiting out the
                    // submit timeout. (The completion map is shared by
                    // all nodes, so only our own requests are removed.)
                    let mut map = self.completions.lock();
                    for (req, _) in self.inflight.drain() {
                        map.remove(&req);
                    }
                }
                Ok(NodeMsg::Revive { entries, done }) => {
                    self.revive(&entries);
                    let _ = done.send(());
                }
                Ok(NodeMsg::QueryStats { reply }) => {
                    let _ = reply.send((*self.dispatcher.stats(), self.counters));
                }
                Ok(NodeMsg::ShipLog { since, reply }) => {
                    // Served even while crashed: the log lives in NVM,
                    // which survives the crash — this is what makes both
                    // recovery and post-crash durability audits possible.
                    let _ = reply.send(self.durable.entries_since(since));
                }
                Ok(NodeMsg::QuerySummary { reply }) => {
                    // Also served while crashed: the summary is derived
                    // from the durable database the node's own log replay
                    // reconstructs.
                    let _ = reply.send(self.durable.summary());
                }
                Ok(NodeMsg::ShipDelta { have, reply }) => {
                    let _ = reply.send(self.durable.delta_against(&have));
                }
                Ok(NodeMsg::InstallPlacement { map, entries, done }) if !self.crashed => {
                    self.install_placement(map, &entries);
                    if let Some(done) = done {
                        let _ = done.send(());
                    }
                }
                Ok(msg) if self.crashed => {
                    // A crashed node silently drains its inbox — but a
                    // client op racing the crash (sent before the failed
                    // flag was visible) must still fail fast, so its
                    // reply sender is dropped here just as `Crash` does
                    // for ops already admitted.
                    if let NodeMsg::Ev(
                        Event::ClientWrite { req, .. }
                        | Event::ClientRead { req, .. }
                        | Event::ClientPersistScope { req, .. },
                        _,
                    ) = msg
                    {
                        self.completions.lock().remove(&req);
                    }
                }
                // Unreachable in practice (the guarded arms above cover
                // both crashed and alive), but guards don't count toward
                // exhaustiveness.
                Ok(NodeMsg::InstallPlacement { .. }) => {}
                Ok(NodeMsg::Ev(ev, ctx)) => self.handle_event(ev, ctx),
                Ok(NodeMsg::Frame { from, msgs, ctx }) => {
                    for msg in msgs {
                        self.handle_event(Event::Message { from, msg }, ctx);
                    }
                }
                Ok(NodeMsg::Heartbeat { from }) => {
                    self.last_seen.insert(from, Instant::now());
                }
                Ok(NodeMsg::PeerFailed { node }) => {
                    self.engine.mark_failed(node);
                    let mut out = Vec::new();
                    self.engine.poll_now(&mut out);
                    let mut handler = Batched::new(
                        NodeHandler {
                            node: self.node,
                            ctx: None,
                            cfg: &self.cfg,
                            scheduler: &self.scheduler,
                            durable: &mut self.durable,
                            completions: &self.completions,
                            inflight: &mut self.inflight,
                        },
                        BatchPolicy {
                            batching: self.cfg.batching,
                            broadcast: self.cfg.broadcast,
                        },
                    );
                    if let Some(chaos) = self.chaos.as_mut() {
                        let mut net = ChaosNet::new(&mut handler, chaos);
                        self.dispatcher.run_actions(&self.engine, out, &mut net);
                    } else {
                        self.dispatcher.run_actions(&self.engine, out, &mut handler);
                    }
                    let (_, c) = handler.into_parts();
                    self.counters.merge(&c);
                }
                Ok(NodeMsg::PeerRecovered { node }) => {
                    self.engine.mark_recovered(node);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }

            // Heartbeating + failure detection (§III-E timeouts).
            if !self.crashed && Instant::now() >= next_beat {
                next_beat = Instant::now() + heartbeat_every;
                for peer in self.engine.alive_peers() {
                    self.scheduler.send_after(
                        self.cfg.wire_latency_ns,
                        peer,
                        NodeMsg::Heartbeat { from: self.node },
                    );
                }
                let timeout = Duration::from_nanos(self.cfg.failure_timeout_ns);
                // Grace period: peers we have never heard from are only
                // suspect once the cluster has been up for a full timeout.
                if boot.elapsed() > timeout {
                    let suspects: Vec<NodeId> = self
                        .engine
                        .alive_peers()
                        .into_iter()
                        .filter(|p| self.last_seen.get(p).is_none_or(|t| t.elapsed() > timeout))
                        .collect();
                    for s in suspects {
                        // Report to the cluster monitor, which alerts all
                        // other nodes (including us, via PeerFailed).
                        let _ = self.failure_tx.send(s);
                    }
                }
            }
        }
    }

    fn handle_event(&mut self, ev: Event, ctx: Option<TraceCtx>) {
        match &ev {
            Event::ClientWrite { req, key, .. } | Event::ClientRead { req, key, .. } => {
                let shard = self.cfg.placement.as_ref().map(|m| m.shard_of(*key).0);
                self.inflight.insert(*req, shard);
            }
            Event::ClientPersistScope { req, .. } => {
                self.inflight.insert(*req, None);
            }
            _ => {}
        }
        let mut handler = Batched::new(
            NodeHandler {
                node: self.node,
                ctx: None,
                cfg: &self.cfg,
                scheduler: &self.scheduler,
                durable: &mut self.durable,
                completions: &self.completions,
                inflight: &mut self.inflight,
            },
            BatchPolicy {
                batching: self.cfg.batching,
                broadcast: self.cfg.broadcast,
            },
        );
        if let Some(chaos) = self.chaos.as_mut() {
            // Chaos sits *above* batching so injection indices count
            // protocol messages, not frames — schedules replay the same
            // whatever the NIC capabilities.
            let mut net = ChaosNet::new(&mut handler, chaos);
            self.dispatcher
                .dispatch_ctx(&mut self.engine, ev, ctx, &mut net);
        } else {
            self.dispatcher
                .dispatch_ctx(&mut self.engine, ev, ctx, &mut handler);
        }
        let (_, c) = handler.into_parts();
        self.counters.merge(&c);
        self.sample_gauges(&c);
    }

    /// Telemetry: batch fill at every flush (batching runs only), level
    /// gauges on the dispatch-count pacer.
    fn sample_gauges(&mut self, c: &TransportCounters) {
        self.dispatches += 1;
        let node = u32::from(self.node.0);
        if self.cfg.batching && c.deposits > 0 {
            self.gauges.lock().expect("gauge lock").observe(
                GaugeKind::BatchFill,
                node,
                c.protocol_msgs / c.deposits,
            );
        }
        // `% N == 1` rather than `== 0`: short runs still get a sample.
        if self.dispatches % GAUGE_SAMPLE_DISPATCHES == 1 {
            let mut g = self.gauges.lock().expect("gauge lock");
            match self.cfg.placement.as_ref() {
                Some(map) => {
                    // Sharded: level gauges are keyed by (node, shard) so
                    // hot shards are visible. Hosted shards with no locks
                    // still sample an explicit zero.
                    let locked = self.engine.locked_records_by_shard(map);
                    for sh in map.shards_on(self.node) {
                        let v = locked.get(&sh.0).copied().unwrap_or(0);
                        g.observe_shard(GaugeKind::LockTableSize, node, sh.0, v as u64);
                    }
                    let mut by_shard: HashMap<u32, u64> = HashMap::new();
                    for sh in self.inflight.values().flatten() {
                        *by_shard.entry(*sh).or_default() += 1;
                    }
                    for (sh, v) in by_shard {
                        g.observe_shard(GaugeKind::InflightTxs, node, sh, v);
                    }
                    g.observe(GaugeKind::InflightTxs, node, self.inflight.len() as u64);
                }
                None => {
                    g.observe(GaugeKind::InflightTxs, node, self.inflight.len() as u64);
                    g.observe(
                        GaugeKind::LockTableSize,
                        node,
                        self.engine.locked_records() as u64,
                    );
                }
            }
            g.observe(GaugeKind::HostSendQueue, node, self.rx.len() as u64);
        }
    }

    /// Re-replication cutover at this node: install the copied records
    /// (when joining the group), then adopt the new map iff its epoch is
    /// newer than the one in force — a stale cutover racing a newer view
    /// change must lose.
    fn install_placement(&mut self, map: minos_types::ShardMap, entries: &[LogEntry]) {
        let newer = self
            .cfg
            .placement
            .as_ref()
            .is_none_or(|m| map.epoch() > m.epoch());
        if !newer {
            return;
        }
        if !entries.is_empty() {
            self.durable.replay(entries);
            for e in entries {
                self.engine.install_recovered(e.key, e.ts, e.value.clone());
            }
        }
        self.cfg.placement = Some(map.clone());
        self.engine.set_placement(Some(map));
    }

    /// §III-E rejoin: a crash wiped the volatile state, so the protocol
    /// engine is rebuilt from scratch (no stale transactions or locks),
    /// the shipped log is replayed into durable state, and the rebuilt
    /// records are installed into the fresh volatile replica.
    fn revive(&mut self, entries: &[LogEntry]) {
        self.engine = NodeEngine::new(self.node, self.cfg.nodes, self.model);
        self.engine.set_placement(self.cfg.placement.clone());
        self.durable.replay(entries);
        let records: Vec<(Key, Ts, Value)> = self
            .durable
            .iter_durable()
            .map(|(k, (ts, v))| (*k, *ts, v.clone()))
            .collect();
        for (key, ts, value) in records {
            self.engine.install_recovered(key, ts, value);
        }
        self.crashed = false;
        self.last_seen.clear();
    }
}
