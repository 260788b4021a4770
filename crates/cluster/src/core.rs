//! The node core both live runtimes share.
//!
//! A live node is a [`NodeEngine`] plus everything that turns its
//! actions into effects: the [`Dispatcher`], the [`Batched`] and
//! [`ChaosNet`] middleware, the emulated NVM ([`DurableState`]) with its
//! optional on-disk log mirror, and the table of client requests in
//! flight. [`NodeCore`] owns all of it once. What differs between the
//! threaded and the TCP runtime — how a frame reaches a peer, how an
//! event comes back to this node later, how a client learns its result —
//! sits behind the small [`NodeIo`] trait, so each runtime's loop is
//! input decoding plus its `NodeIo`.

use crate::cluster::Outcome;
use minos_core::obs::{GaugeKind, SharedGauges, Tracer};
use minos_core::runtime::{
    observe_lock_table, ActionSink, BatchPolicy, Batched, ChaosNet, ChaosState, DispatchStats,
    Dispatcher, FrameTransport, Handler, TransportCounters,
};
use minos_core::{Action, DelayClass, Event, NodeEngine, ReqId};
use minos_kv::DurableState;
use minos_nvm::{decode_entries, encode_entries, DecodeOutcome, LogEntry};
use minos_types::wire::TraceCtx;
use minos_types::{ClusterConfig, DdpModel, Key, Message, NodeId, ScopeId, ShardMap, Ts, Value};
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// How one runtime moves a node's effects: peer frames, events this
/// node schedules for itself, redirects and client completions.
pub(crate) trait NodeIo {
    /// Routes a completion back to the client that issued the request.
    type Reply;

    /// Delivers `msgs` to peer `to` as one frame under `ctx`.
    fn deposit(&mut self, to: NodeId, msgs: Vec<Message>, ctx: Option<TraceCtx>);

    /// Delivers the same frame to every peer in `dests` from one enqueue.
    fn deposit_all(&mut self, dests: &[NodeId], msgs: Vec<Message>, ctx: Option<TraceCtx>);

    /// Feeds `event` back into this node after `delay_ns` (0 = the next
    /// local dispatch hop).
    fn local(&mut self, delay_ns: u64, event: Event, ctx: Option<TraceCtx>);

    /// Hands a mis-routed client event to node `to`.
    fn redirect(&mut self, to: NodeId, event: Event, ctx: Option<TraceCtx>);

    /// Answers client request `req` through `reply`.
    fn complete(&mut self, req: ReqId, reply: Self::Reply, outcome: Outcome);
}

/// One node's protocol state and dispatch stack, runtime-independent.
pub(crate) struct NodeCore<IO: NodeIo> {
    node: NodeId,
    model: DdpModel,
    /// The node-local knobs: cluster size, placement (re-replication
    /// may move it), fault, chaos, batching and broadcast, NVM latency.
    cfg: ClusterConfig,
    engine: NodeEngine,
    dispatcher: Dispatcher<NodeEngine>,
    durable: DurableState,
    log_file: Option<File>,
    /// Seeded chaos bookkeeping; persists across dispatches (and
    /// reboots) so injection indices count whole-run outbound traffic.
    chaos: Option<ChaosState>,
    counters: TransportCounters,
    /// Client requests admitted here and not yet answered: the shard of
    /// the request's key (`None` when unsharded or keyless) and where
    /// the answer goes.
    inflight: HashMap<ReqId, (Option<u32>, IO::Reply)>,
    /// In-flight ops, lock-table size and inbox depth (see
    /// [`NodeCore::sample_gauges`]) plus the batch fill at each flush.
    gauges: SharedGauges,
}

/// The engine a node boots (and reboots) with: placement installed and,
/// under the `fault-injection` feature, the configured fault armed if
/// it names this node.
fn new_engine(node: NodeId, model: DdpModel, cfg: &ClusterConfig) -> NodeEngine {
    let mut engine = NodeEngine::new(node, cfg.nodes, model);
    engine.set_placement(cfg.placement.clone());
    #[cfg(feature = "fault-injection")]
    if let Some(f) = cfg.fault.filter(|f| f.node == node.0) {
        engine.arm_fault(f.kind);
    }
    engine
}

/// Raises the engine's volatile replica to recovered durable records:
/// they are already globally consistent and durable, so no protocol
/// message flows.
fn install<'a>(engine: &mut NodeEngine, records: impl IntoIterator<Item = (Key, Ts, &'a Value)>) {
    for (key, ts, value) in records {
        engine.install_recovered(key, ts, value.clone());
    }
}

/// Replays the on-disk NVM log at `path` into `durable` and opens it for
/// appending. A torn final append (a crash mid-write) is truncated away,
/// per the codec's crash-consistency contract.
fn open_log(path: &Path, durable: &mut DurableState) -> Option<File> {
    if let Ok(bytes) = std::fs::read(path) {
        let (entries, outcome) = decode_entries(&bytes);
        if let DecodeOutcome::Truncated { valid_bytes } = outcome {
            eprintln!(
                "minos-node: NVM log {} has a torn tail; truncating to {valid_bytes} bytes",
                path.display()
            );
            if let Ok(f) = std::fs::OpenOptions::new().write(true).open(path) {
                let _ = f.set_len(valid_bytes as u64);
            }
        }
        durable.replay(&entries);
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path);
    file.map_err(|e| eprintln!("minos-node: cannot open NVM log {}: {e}", path.display()))
        .ok()
}

impl<IO: NodeIo> NodeCore<IO> {
    /// Builds node `node` of a cluster configured by `cfg`: engine,
    /// chaos state, dispatcher (tracing through `tracer`), and durable
    /// state replayed from the on-disk log at `nvm_log` if given. The
    /// engine starts empty; [`NodeCore::reboot`] raises it to the
    /// replayed durable state.
    pub(crate) fn boot(
        node: NodeId,
        model: DdpModel,
        cfg: ClusterConfig,
        nvm_log: Option<&Path>,
        tracer: Option<Tracer>,
        gauges: SharedGauges,
    ) -> Self {
        let mut durable = DurableState::with_persist_latency(cfg.nvm_persist_ns_per_kb);
        let log_file = nvm_log.and_then(|path| open_log(path, &mut durable));
        let mut dispatcher = Dispatcher::new();
        dispatcher.set_tracer(tracer);
        NodeCore {
            node,
            model,
            engine: new_engine(node, model, &cfg),
            chaos: cfg.chaos.as_ref().map(|c| ChaosState::new(c, node)),
            cfg,
            dispatcher,
            durable,
            log_file,
            counters: TransportCounters::default(),
            inflight: HashMap::new(),
            gauges,
        }
    }

    /// The engine (read-only: liveness for the failure detector).
    pub(crate) fn engine(&self) -> &NodeEngine {
        &self.engine
    }

    /// The node's durable state (log shipping, summaries, audits).
    pub(crate) fn durable(&self) -> &DurableState {
        &self.durable
    }

    /// Accumulated dispatch statistics and transport counters.
    pub(crate) fn stats(&self) -> (DispatchStats, TransportCounters) {
        (*self.dispatcher.stats(), self.counters)
    }

    /// Flushes the tracer's sinks, if tracing.
    pub(crate) fn flush_trace(&mut self) {
        if let Some(tr) = self.dispatcher.tracer_mut() {
            tr.flush_sinks();
        }
    }

    /// Registers `ev`, if it is a client request, as in flight and
    /// answered through `reply`. Other events are ignored.
    pub(crate) fn admit(&mut self, ev: &Event, reply: IO::Reply) {
        let (req, shard) = match ev {
            Event::ClientWrite { req, key, .. } | Event::ClientRead { req, key, .. } => (
                *req,
                self.cfg.placement.as_ref().map(|m| m.shard_of(*key).0),
            ),
            Event::ClientPersistScope { req, .. } => (*req, None),
            _ => return,
        };
        self.inflight.insert(req, (shard, reply));
    }

    /// Forgets every request in flight (a crash lost them), returning
    /// their ids.
    pub(crate) fn drop_inflight(&mut self) -> impl Iterator<Item = ReqId> + '_ {
        self.inflight.drain().map(|(req, _)| req)
    }

    /// Feeds one event through the engine and the dispatch stack.
    pub(crate) fn dispatch(&mut self, ev: Event, ctx: Option<TraceCtx>, io: &mut IO) {
        self.run(Work::Event(ev, ctx), io);
    }

    /// Applies a view change: `peer` left (`up = false`) or rejoined the
    /// replica set. The engine re-evaluates its wait conditions, and any
    /// transaction the new quorum unblocks proceeds at once. A peer
    /// outside the cluster (a malformed admin request) is ignored.
    pub(crate) fn view_change(&mut self, peer: NodeId, up: bool, io: &mut IO) {
        if peer == self.node || usize::from(peer.0) >= self.cfg.nodes {
            return;
        }
        if up {
            self.engine.mark_recovered(peer);
        } else {
            self.engine.mark_failed(peer);
        }
        let mut out = Vec::new();
        self.engine.poll_now(&mut out);
        self.run(Work::Actions(out), io);
    }

    /// §III-E rejoin: a crash wiped the volatile state, so the engine is
    /// rebuilt from scratch (no stale transactions or locks), `entries`
    /// (shipped log or catch-up delta) are replayed into durable state
    /// and the on-disk mirror, the fresh engine excludes `still_down`,
    /// and the whole durable state is installed into it.
    pub(crate) fn reboot(&mut self, entries: &[LogEntry], still_down: &[NodeId]) {
        self.replay(entries);
        self.engine = new_engine(self.node, self.model, &self.cfg);
        for &peer in still_down.iter().filter(|&&p| p != self.node) {
            self.engine.mark_failed(peer);
        }
        install(
            &mut self.engine,
            self.durable.iter_durable().map(|(k, (ts, v))| (*k, *ts, v)),
        );
    }

    /// Re-replication cutover at this node: install the copied records
    /// (when joining the group), then adopt `map` iff its epoch is newer
    /// than the one in force — a stale cutover racing a newer view
    /// change must lose.
    pub(crate) fn install_placement(&mut self, map: ShardMap, entries: &[LogEntry]) {
        if self
            .cfg
            .placement
            .as_ref()
            .is_some_and(|m| map.epoch() <= m.epoch())
        {
            return;
        }
        self.replay(entries);
        install(
            &mut self.engine,
            entries.iter().map(|e| (e.key, e.ts, &e.value)),
        );
        self.engine.set_placement(Some(map.clone()));
        self.cfg.placement = Some(map);
    }

    /// Samples the level gauges: in-flight client ops, records holding
    /// locks and the inbox depth `inbox`. Sharded nodes report in-flight
    /// ops and locks per hosted shard too (a hosted shard with no locks
    /// samples an explicit zero). Each sample takes the shared gauge
    /// lock and walks the in-flight table, so runtimes pace this off the
    /// per-event path.
    pub(crate) fn sample_gauges(&self, inbox: usize) {
        let node = u32::from(self.node.0);
        let mut g = self.gauges.lock().expect("gauge lock");
        g.observe(GaugeKind::InflightTxs, node, self.inflight.len() as u64);
        g.observe(GaugeKind::HostSendQueue, node, inbox as u64);
        let map = self.cfg.placement.as_ref();
        observe_lock_table(&self.engine, &mut g, self.node, map);
        if map.is_none() {
            return;
        }
        let mut by_shard: HashMap<u32, u64> = HashMap::new();
        for &(sh, _) in self.inflight.values() {
            let Some(sh) = sh else { continue };
            *by_shard.entry(sh).or_default() += 1;
        }
        for (sh, v) in by_shard {
            g.observe_shard(GaugeKind::InflightTxs, node, sh, v);
        }
    }

    /// Replays `entries` into durable state and the on-disk mirror.
    fn replay(&mut self, entries: &[LogEntry]) {
        if entries.is_empty() {
            return;
        }
        self.durable.replay(entries);
        if let Some(f) = self.log_file.as_mut() {
            let _ = f.write_all(&encode_entries(entries));
        }
    }

    /// Runs `work` through the one dispatch stack: chaos above batching
    /// (so injection indices count protocol messages, not frames —
    /// schedules replay the same whatever the NIC capabilities), then
    /// [`Batched`] over the core's handler.
    fn run(&mut self, work: Work, io: &mut IO) {
        let policy = BatchPolicy {
            batching: self.cfg.batching,
            broadcast: self.cfg.broadcast,
        };
        let mut handler = Batched::new(
            CoreHandler {
                ctx: None,
                durable: &mut self.durable,
                log_file: &mut self.log_file,
                inflight: &mut self.inflight,
                io,
            },
            policy,
        );
        match self.chaos.as_mut() {
            Some(chaos) => work.run(
                &mut self.dispatcher,
                &mut self.engine,
                &mut ChaosNet::new(&mut handler, chaos),
            ),
            None => work.run(&mut self.dispatcher, &mut self.engine, &mut handler),
        }
        let (_, c) = handler.into_parts();
        self.counters.merge(&c);
        if policy.batching && c.deposits > 0 {
            self.gauges.lock().expect("gauge lock").observe(
                GaugeKind::BatchFill,
                u32::from(self.node.0),
                c.protocol_msgs / c.deposits,
            );
        }
    }
}

/// What one pass through the dispatch stack interprets.
enum Work {
    /// An input event, with the trace context it arrived under.
    Event(Event, Option<TraceCtx>),
    /// Actions a view-change poll produced outside `on_event`.
    Actions(Vec<Action>),
}

impl Work {
    fn run<H: Handler<NodeEngine>>(
        self,
        dispatcher: &mut Dispatcher<NodeEngine>,
        engine: &mut NodeEngine,
        handler: &mut H,
    ) {
        match self {
            Work::Event(ev, ctx) => dispatcher.dispatch_ctx(engine, ev, ctx, handler),
            Work::Actions(out) => dispatcher.run_actions(engine, out, handler),
        }
    }
}

/// The one dispatch handler: persists go to the emulated NVM (and its
/// on-disk mirror) with the completion fed back after the device
/// latency, completions answer the in-flight table, and everything that
/// leaves the node goes through the runtime's [`NodeIo`].
struct CoreHandler<'a, IO: NodeIo> {
    /// The dispatching node's trace context, stamped onto every frame
    /// and event this dispatch emits.
    ctx: Option<TraceCtx>,
    durable: &'a mut DurableState,
    log_file: &'a mut Option<File>,
    inflight: &'a mut HashMap<ReqId, (Option<u32>, IO::Reply)>,
    io: &'a mut IO,
}

impl<IO: NodeIo> CoreHandler<'_, IO> {
    fn complete(&mut self, req: ReqId, outcome: Outcome) {
        if let Some((_, reply)) = self.inflight.remove(&req) {
            self.io.complete(req, reply, outcome);
        }
    }
}

impl<IO: NodeIo> FrameTransport for CoreHandler<'_, IO> {
    fn deposit(&mut self, to: NodeId, msgs: Vec<Message>) {
        self.io.deposit(to, msgs, self.ctx);
    }

    fn deposit_all(&mut self, dests: &[NodeId], msgs: Vec<Message>) {
        self.io.deposit_all(dests, msgs, self.ctx);
    }

    fn set_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.ctx = ctx;
    }
}

impl<IO: NodeIo> ActionSink for CoreHandler<'_, IO> {
    fn persist(&mut self, key: Key, ts: Ts, value: Value, _background: bool) {
        let ns = self.durable.device().persist_ns(value.len() as u64);
        let lsn = self.durable.persist(key, ts, value.clone());
        // Mirror the persist to the on-disk log so it survives a real
        // process restart (the rejoin path replays this file).
        if let Some(f) = self.log_file.as_mut() {
            let entry = LogEntry {
                lsn,
                key,
                ts,
                value,
            };
            let _ = f.write_all(&encode_entries(&[entry]));
        }
        self.io.local(ns, Event::PersistDone { key, ts }, self.ctx);
    }

    fn redirect(&mut self, to: NodeId, event: Event) {
        self.io.redirect(to, event, self.ctx);
    }

    fn defer(&mut self, event: Event, _class: DelayClass) {
        self.io.local(0, event, self.ctx);
    }

    fn write_done(&mut self, req: ReqId, _key: Key, ts: Ts, obsolete: bool) {
        self.complete(req, Outcome::Write { ts, obsolete });
    }

    fn read_done(&mut self, req: ReqId, _key: Key, value: Value, ts: Ts) {
        self.complete(req, Outcome::Read { value, ts });
    }

    fn persist_scope_done(&mut self, req: ReqId, scope: ScopeId) {
        self.complete(req, Outcome::PersistScope { scope });
    }
}
