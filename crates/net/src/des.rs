//! The discrete-event front shared by both simulated machines.
//!
//! [`Sim<P>`](Sim) owns everything that does not depend on where the
//! protocol runs: the event queue, client submission and shard routing,
//! completion draining with barrier folding, the common resource gauges,
//! scheduled membership view changes and the event loop. A [`Machine`]
//! supplies the rest — its per-node hardware, its dispatch handler (the
//! cost model) and its extra gauges. [`BSim`](crate::BSim) and
//! [`OSim`](crate::OSim) are the two instantiations.

use crate::arch::Arch;
use crate::driver::{CompletionKind, CompletionRec};
use crate::timing;
use minos_core::obs::{GaugeKind, GaugeSet, SharedSink, TraceClock, Tracer, GAUGE_NODE_ALL};
use minos_core::runtime::{observe_lock_table, Dispatcher, Handler, Protocol, ShardRouter};
use minos_core::ReqId;
use minos_sim::{DepthTracker, EventQueue, Resource, Time};
use minos_types::wire::TraceCtx;
use minos_types::{DdpModel, Key, MembershipView, NodeId, ScopeId, ShardMap, SimConfig, Ts, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A scheduled delivery: destination, event, and the trace context of
/// the dispatch that caused the event (`None` for client submissions —
/// admission mints the trace).
pub type Queued<P> = (NodeId, <P as Protocol>::Event, Option<TraceCtx>);

/// A protocol placed on simulated hardware: the per-architecture half of
/// a [`Sim`].
pub trait Machine: Protocol {
    /// Per-node hardware resources plus per-run instrumentation.
    type Hw: fmt::Debug;

    /// The dispatch handler for one event at one node: the cost model.
    type Sink<'a>: Handler<Self>
    where
        Self: 'a;

    /// Whether this machine models the offloaded architectures; must
    /// match [`Arch::offload`].
    const OFFLOAD: bool;

    /// Fresh hardware for `cfg.nodes` nodes.
    fn hw(cfg: &SimConfig) -> Self::Hw;

    /// Samples the per-node hardware gauges at virtual time `t`.
    fn sample_hw(hw: &mut Self::Hw, t: Time, gauges: &mut GaugeSet);

    /// The handler for dispatching `event` at `node`, arriving at `t`
    /// (`None` for an action batch released by a view change).
    fn sink<'a>(
        env: Env<'a, Self>,
        hw: &'a mut Self::Hw,
        node: NodeId,
        t: Time,
        event: Option<&Self::Event>,
    ) -> Self::Sink<'a>;
}

/// The simulation state a dispatch handler schedules into.
pub struct Env<'a, P: Protocol> {
    /// Timing parameters.
    pub cfg: &'a SimConfig,
    /// The simulated architecture's capabilities.
    pub arch: Arch,
    /// Placement map (sharded runs).
    pub placement: Option<&'a ShardMap>,
    /// Cluster size.
    pub n_nodes: usize,
    /// The event queue.
    pub queue: &'a mut EventQueue<Queued<P>>,
    /// Completions recorded since the last drain.
    pub completions: &'a mut Vec<CompletionRec>,
    /// Resource telemetry.
    pub gauges: &'a mut GaugeSet,
}

/// The NIC send engine and the two queue-depth trackers every simulated
/// node has, whichever side runs the protocol.
#[derive(Debug, Clone, Default)]
pub(crate) struct NicPort {
    /// NIC send engine (serializes outgoing messages).
    tx: Resource,
    /// Telemetry companion: host send-queue (PCIe submission) depth.
    pub(crate) pcie_depth: DepthTracker,
    /// Telemetry companion: NIC wire-TX queue depth.
    nic_depth: DepthTracker,
}

impl NicPort {
    /// Occupies the NIC send engine for `cost` from `from`, feeding the
    /// TX-queue-depth tracker; returns the departure time.
    pub(crate) fn send(&mut self, from: Time, cost: Time) -> Time {
        let depart = self.tx.acquire(from, cost);
        self.nic_depth.on_acquire(depart);
        depart
    }

    /// Samples the host and NIC send-queue gauges of `node` at `t`.
    pub(crate) fn sample(&mut self, node: u32, t: Time, gauges: &mut GaugeSet) {
        gauges.observe(
            GaugeKind::HostSendQueue,
            node,
            self.pcie_depth.depth(t) as u64,
        );
        gauges.observe(
            GaugeKind::NicSendQueue,
            node,
            self.nic_depth.depth(t) as u64,
        );
    }
}

/// A scheduled membership action, applied when simulated time reaches
/// it (before any protocol event at a later instant).
#[derive(Debug, Clone, Copy)]
enum ViewChange {
    /// Kill the node: volatile loss, survivors shrink their quorums.
    Crash(NodeId),
    /// Start the node's rejoin: donor copy now, re-admittance after the
    /// catch-up transfer time.
    BeginRejoin {
        /// Rejoining node.
        node: NodeId,
        /// Serving peer that streams the catch-up delta.
        donor: NodeId,
    },
    /// Catch-up done: the node re-enters every quorum and the epoch
    /// advances (scheduled internally by `BeginRejoin`).
    Readmit(NodeId),
}

/// Lease duration granted by the simulated views. Generous — the DES
/// failure detector is the scheduled [`ViewChange`] list, not lease
/// expiry; leases document liveness, they don't drive it here.
const SIM_LEASE_NS: Time = 1 << 40;

/// A discrete-event simulation of a cluster running protocol `P` on
/// machine `P`'s hardware.
#[derive(Debug)]
pub struct Sim<P: Machine> {
    cfg: SimConfig,
    arch: Arch,
    engines: Vec<P>,
    dispatchers: Vec<Dispatcher<P>>,
    queue: EventQueue<Queued<P>>,
    hw: P::Hw,
    completions: Vec<CompletionRec>,
    next_req: u64,
    /// Virtual-clock source shared with attached tracers: holds the
    /// simulated time of the event being dispatched.
    vclock: Option<Arc<AtomicU64>>,
    /// Resource telemetry, sampled every `cfg.telemetry_tick_ns` of
    /// virtual time (PCIe bytes and batch fill accumulate event-driven).
    gauges: GaugeSet,
    /// Next virtual-time telemetry sample point.
    next_sample: Time,
    /// Completions already handed out through `drain_completions` (for
    /// the in-flight gauge).
    drained: u64,
    /// Events processed by [`Sim::step`] so far (view changes, dropped
    /// frames to dead nodes, and dispatched protocol events alike) —
    /// the denominator of the simulator's events/sec speed cells.
    events: u64,
    /// Key → shard-group routing and multi-op barriers; identity when the
    /// simulation is unsharded. MINOS-O engines have no redirect path,
    /// so on a sharded simulation this facade routing is what keeps
    /// every submit on a replica.
    router: ShardRouter,
    /// Requests routed off their origin node: req → origin. Their
    /// completions pay the return routing hop at drain time.
    routed: HashMap<ReqId, NodeId>,
    /// Barrier parents: parent req → (origin, completion kind).
    parents: HashMap<ReqId, (NodeId, CompletionKind)>,
    /// Latest child completion seen per parent (the barrier release time).
    parent_hwm: HashMap<ReqId, Time>,
    /// Submitted-minus-completed keyed ops per shard (sharded only).
    inflight_by_shard: BTreeMap<u32, u64>,
    /// Scheduled membership actions, fired in time order interleaved
    /// with the protocol event queue.
    ctrl: Vec<(Time, ViewChange)>,
    /// Epoch/lease membership view; simulated time feeds the lease
    /// clock. Crashed and catching-up nodes are out of the serving set:
    /// events addressed to them are dropped (frames to a dead node are
    /// lost) and survivors exclude them from acknowledgment quorums.
    view: MembershipView,
}

impl<P: Machine> Sim<P> {
    /// Builds the simulation for `cfg.nodes` nodes running `model`.
    ///
    /// # Panics
    ///
    /// Panics if `arch.offload` does not match the machine.
    #[must_use]
    pub fn new(cfg: SimConfig, arch: Arch, model: DdpModel) -> Self {
        assert_eq!(
            arch.offload,
            P::OFFLOAD,
            "architecture {arch:?} does not run on this simulated machine"
        );
        let n = cfg.nodes;
        Sim {
            engines: (0..n).map(|i| P::new(NodeId(i as u16), n, model)).collect(),
            dispatchers: vec![Dispatcher::new(); n],
            queue: EventQueue::new(),
            hw: P::hw(&cfg),
            completions: Vec::new(),
            next_req: 1,
            vclock: None,
            gauges: GaugeSet::new(),
            next_sample: 0,
            drained: 0,
            events: 0,
            router: ShardRouter::new(None),
            routed: HashMap::new(),
            parents: HashMap::new(),
            parent_hwm: HashMap::new(),
            inflight_by_shard: BTreeMap::new(),
            ctrl: Vec::new(),
            view: MembershipView::new(n, SIM_LEASE_NS, 0),
            cfg,
            arch,
        }
    }

    /// Builds a sharded simulation over `map`'s nodes: one simulation
    /// hosts every shard group, each engine holds only its shards' keys,
    /// and client ops submitted outside their key's replica group pay a
    /// routing hop (`timing::route_hop_ns`) each way.
    ///
    /// # Panics
    ///
    /// Panics if `map` does not span exactly `cfg.nodes` nodes.
    #[must_use]
    pub fn with_placement(cfg: SimConfig, arch: Arch, model: DdpModel, map: ShardMap) -> Self {
        assert_eq!(map.n_nodes(), cfg.nodes, "placement/config node mismatch");
        let mut sim = Self::new(cfg, arch, model);
        for e in &mut sim.engines {
            e.set_placement(Some(map.clone()));
        }
        sim.router = ShardRouter::new(Some(map));
        sim
    }

    /// [`Sim::new`] or, given a placement, [`Sim::with_placement`].
    pub(crate) fn build(
        arch: Arch,
        cfg: &SimConfig,
        model: DdpModel,
        placement: Option<&ShardMap>,
    ) -> Self {
        match placement {
            Some(map) => Self::with_placement(cfg.clone(), arch, model, map.clone()),
            None => Self::new(cfg.clone(), arch, model),
        }
    }

    /// The placement map, if this simulation is sharded.
    #[must_use]
    pub fn placement(&self) -> Option<&ShardMap> {
        self.router.map()
    }

    /// Attaches observability sinks to every node's dispatcher. Records
    /// are stamped with simulated time (a virtual clock that tracks the
    /// event queue), so traces replay on the same axis as the DES.
    pub fn attach_tracer(&mut self, sinks: Vec<SharedSink>) {
        let source = Arc::new(AtomicU64::new(0));
        for (i, d) in self.dispatchers.iter_mut().enumerate() {
            d.set_tracer(Some(Tracer::new(
                NodeId(i as u16),
                TraceClock::virtual_time(Arc::clone(&source)),
                sinks.clone(),
            )));
        }
        self.vclock = Some(source);
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Pre-loads a record on every node that replicates it.
    pub fn load_all(&mut self, key: Key, value: Value) {
        for e in &mut self.engines {
            if e.is_replica(key) {
                e.load_record(key, value.clone());
            }
        }
    }

    /// Access to a node's engine (assertions, state dumps).
    #[must_use]
    pub fn engine(&self, node: NodeId) -> &P {
        &self.engines[node.0 as usize]
    }

    /// Every node's engine, mutably (pre-run configuration).
    pub(crate) fn engines_mut(&mut self) -> &mut [P] {
        &mut self.engines
    }

    /// Per-node dispatch statistics (protocol actions interpreted for
    /// `node` so far).
    #[must_use]
    pub fn dispatch_stats(&self, node: NodeId) -> &P::Stats {
        self.dispatchers[node.0 as usize].stats()
    }

    fn note_submitted(&mut self, key: Key) {
        if let Some(map) = self.router.map() {
            let shard = map.shard_of(key).0;
            *self.inflight_by_shard.entry(shard).or_insert(0) += 1;
        }
    }

    fn fresh_req(&mut self) -> ReqId {
        let r = ReqId(self.next_req);
        self.next_req += 1;
        r
    }

    /// Schedules `ev` at `coord`, charging the one-way routing hop when
    /// the op was submitted at a different node; remembers the origin so
    /// the completion pays the return hop.
    fn route_schedule(
        &mut self,
        at: Time,
        origin: NodeId,
        coord: NodeId,
        req: ReqId,
        ev: P::Event,
    ) {
        let at = if coord == origin {
            at
        } else {
            self.routed.insert(req, origin);
            at + timing::route_hop_ns(&self.cfg)
        };
        self.queue.schedule(at, (coord, ev, None));
    }

    /// Submits a client write at `node`, `at` the given time. On a
    /// sharded simulation the write is routed to a replica of its key's
    /// shard, paying the routing hop each way when `node` is not one.
    pub fn submit_write(
        &mut self,
        at: Time,
        node: NodeId,
        key: Key,
        value: Value,
        scope: Option<ScopeId>,
    ) -> ReqId {
        let req = self.fresh_req();
        let coord = self.router.route_write(node, key, scope);
        self.note_submitted(key);
        let ev = P::client_write(key, value, scope, req);
        self.route_schedule(at, node, coord, req, ev);
        req
    }

    /// Submits a client read, routed to a serving replica.
    pub fn submit_read(&mut self, at: Time, node: NodeId, key: Key) -> ReqId {
        let req = self.fresh_req();
        let serving = self.router.serving(node, key);
        self.note_submitted(key);
        self.route_schedule(at, node, serving, req, P::client_read(key, req));
        req
    }

    /// Submits a multi-key write batch: one routed child write per key,
    /// barrier-joined into the returned parent request, which completes
    /// (kind [`CompletionKind::MultiWrite`], at the latest child's
    /// completion) only once every child has.
    ///
    /// # Panics
    ///
    /// Panics if `writes` is empty.
    pub fn submit_write_multi(
        &mut self,
        at: Time,
        node: NodeId,
        writes: Vec<(Key, Value)>,
        scope: Option<ScopeId>,
    ) -> ReqId {
        assert!(!writes.is_empty(), "empty multi-key write batch");
        let req = self.fresh_req();
        let children: Vec<ReqId> = writes.iter().map(|_| self.fresh_req()).collect();
        self.router.begin_barrier(req, &children);
        self.parents.insert(req, (node, CompletionKind::MultiWrite));
        for ((key, value), child) in writes.into_iter().zip(children) {
            let coord = self.router.route_write(node, key, scope);
            self.note_submitted(key);
            let ev = P::client_write(key, value, scope, child);
            self.route_schedule(at, node, coord, child, ev);
        }
        req
    }

    /// Submits a `[PERSIST]sc`. On a sharded simulation the flush fans
    /// out to every coordinator that scoped writes from `node` were
    /// routed to, barrier-joined into the returned parent request.
    pub fn submit_persist_scope(&mut self, at: Time, node: NodeId, scope: ScopeId) -> ReqId {
        let req = self.fresh_req();
        if self.router.map().is_some() {
            let coords = self.router.scope_coordinators(node, scope);
            let children: Vec<ReqId> = coords.iter().map(|_| self.fresh_req()).collect();
            self.router.begin_barrier(req, &children);
            self.parents
                .insert(req, (node, CompletionKind::PersistScope));
            for (coord, child) in coords.into_iter().zip(children) {
                let ev = P::client_persist_scope(scope, child);
                self.route_schedule(at, node, coord, child, ev);
            }
        } else {
            self.queue
                .schedule(at, (node, P::client_persist_scope(scope, req), None));
        }
        req
    }

    /// Drains the completions recorded since the last call. Routed
    /// requests pay the return hop here; barrier children are folded
    /// into their parent, which surfaces at the latest child completion.
    pub fn drain_completions(&mut self) -> Vec<CompletionRec> {
        let raw = std::mem::take(&mut self.completions);
        let mut out = Vec::with_capacity(raw.len());
        for mut rec in raw {
            if self.routed.remove(&rec.req).is_some() {
                rec.at += timing::route_hop_ns(&self.cfg);
            }
            if let Some(key) = rec.key {
                if let Some(map) = self.router.map() {
                    let shard = map.shard_of(key).0;
                    if let Some(n) = self.inflight_by_shard.get_mut(&shard) {
                        *n = n.saturating_sub(1);
                    }
                }
            }
            match self.router.parent_of(rec.req) {
                None => out.push(rec),
                Some(parent) => {
                    let hwm = self.parent_hwm.entry(parent).or_insert(0);
                    *hwm = (*hwm).max(rec.at);
                    if self.router.complete_child(rec.req).is_some() {
                        let (origin, kind) = self.parents.remove(&parent).expect("parent recorded");
                        let at = self.parent_hwm.remove(&parent).unwrap_or(rec.at);
                        out.push(CompletionRec::new(parent, origin, at, kind));
                    }
                }
            }
        }
        self.drained += out.len() as u64;
        out
    }

    /// The resource-telemetry gauges accumulated so far.
    #[must_use]
    pub fn gauges(&self) -> &GaugeSet {
        &self.gauges
    }

    /// Samples the level gauges at virtual time `t` when a telemetry
    /// tick boundary has been crossed (one sample per crossing).
    fn sample_gauges(&mut self, t: Time) {
        let tick = self.cfg.telemetry_tick_ns;
        if tick == 0 || t < self.next_sample {
            return;
        }
        self.next_sample = (t / tick + 1) * tick;
        self.gauges.observe(
            GaugeKind::EventQueueDepth,
            GAUGE_NODE_ALL,
            self.queue.len() as u64,
        );
        P::sample_hw(&mut self.hw, t, &mut self.gauges);
        let map = self.router.map();
        for (i, e) in self.engines.iter().enumerate() {
            observe_lock_table(e, &mut self.gauges, NodeId(i as u16), map);
        }
        if map.is_some() {
            for (&shard, &n) in &self.inflight_by_shard {
                self.gauges
                    .observe_shard(GaugeKind::InflightTxs, GAUGE_NODE_ALL, shard, n);
            }
        } else {
            let issued = self.next_req - 1;
            let done = self.drained + self.completions.len() as u64;
            self.gauges.observe(
                GaugeKind::InflightTxs,
                GAUGE_NODE_ALL,
                issued.saturating_sub(done),
            );
        }
    }

    /// Schedules a crash of `node` at simulated time `at`: its volatile
    /// state is lost, events addressed to it from then on are dropped,
    /// survivors shrink their acknowledgment quorums, and the view epoch
    /// advances. A protocol without a failure detector (MINOS-O) needs
    /// every engine idle when the action fires: its full-group quorums
    /// would otherwise stall forever, so the simulation panics.
    pub fn schedule_crash(&mut self, at: Time, node: NodeId) {
        self.ctrl.push((at, ViewChange::Crash(node)));
    }

    /// Schedules the rejoin of a crashed `node` at `at`, with `donor` as
    /// the catch-up source. The donor copy is installed at `at`; the
    /// node re-enters the serving set (and the epoch advances) only
    /// after the catch-up transfer time [`timing::catchup_ns`] — the
    /// availability dip a rolling restart pays per node. The attempt is
    /// dropped if `node` is not down or `donor` is not serving when the
    /// action fires.
    pub fn schedule_rejoin(&mut self, at: Time, node: NodeId, donor: NodeId) {
        self.ctrl
            .push((at, ViewChange::BeginRejoin { node, donor }));
    }

    /// The epoch/lease membership view in force.
    #[must_use]
    pub fn membership(&self) -> &MembershipView {
        &self.view
    }

    /// The current view epoch.
    #[must_use]
    pub fn view_epoch(&self) -> u64 {
        self.view.epoch()
    }

    /// Pops the earliest scheduled view change if it is due before (or
    /// at) the next protocol event.
    fn pop_ctrl_due(&mut self) -> Option<(Time, ViewChange)> {
        let idx = self
            .ctrl
            .iter()
            .enumerate()
            .min_by_key(|(_, (t, _))| *t)
            .map(|(i, _)| i)?;
        let t = self.ctrl[idx].0;
        if self.queue.peek_time().is_none_or(|evt| t <= evt) {
            Some(self.ctrl.remove(idx))
        } else {
            None
        }
    }

    fn set_clock(&self, t: Time) {
        if let Some(v) = &self.vclock {
            v.store(t, Ordering::Relaxed);
        }
    }

    /// Applies one due view change at simulated time `t`.
    fn apply_view_change(&mut self, t: Time, vc: ViewChange) {
        assert!(
            P::FAILURE_DETECTOR || self.engines.iter().all(P::is_quiescent),
            "view changes must be quiesced: the engine has no failure detector"
        );
        self.set_clock(t);
        self.sample_gauges(t);
        match vc {
            ViewChange::Crash(node) => {
                let ni = node.0 as usize;
                let n = self.engines.len();
                let model = self.engines[ni].model();
                self.engines[ni] = P::new(node, n, model);
                self.engines[ni].set_placement(self.router.map().cloned());
                self.dispatchers[ni] = Dispatcher::new();
                if self.view.mark_down(node).is_err() {
                    return;
                }
                for i in 0..n {
                    if i != ni {
                        self.engines[i].mark_failed(node);
                    }
                }
                self.poke_all(t);
            }
            ViewChange::BeginRejoin { node, donor } => {
                if !self.view.is_serving(donor) || self.view.begin_rejoin(node).is_err() {
                    return;
                }
                let ni = node.0 as usize;
                let records: Vec<(Key, Ts, Value)> = self.engines[donor.0 as usize]
                    .keys()
                    .into_iter()
                    .filter(|&k| self.engines[ni].is_replica(k))
                    .map(|k| {
                        let e = &self.engines[donor.0 as usize];
                        (
                            k,
                            e.record_meta(k).volatile_ts,
                            e.record_value(k).unwrap_or_default(),
                        )
                    })
                    .collect();
                let bytes: u64 = records.iter().map(|(_, _, v)| v.len() as u64).sum();
                let cost = timing::catchup_ns(&self.cfg, records.len() as u64, bytes);
                for (k, ts, v) in records {
                    self.engines[ni].install_recovered(k, ts, v);
                }
                self.ctrl.push((t + cost, ViewChange::Readmit(node)));
            }
            ViewChange::Readmit(node) => {
                let ni = node.0 as usize;
                for i in 0..self.engines.len() {
                    let other = NodeId(i as u16);
                    if other == node {
                        continue;
                    }
                    self.engines[i].mark_recovered(node);
                    // The rebuilt engine starts with everyone alive;
                    // teach it about peers still out of the set.
                    if !self.view.is_serving(other) {
                        self.engines[ni].mark_failed(other);
                    }
                }
                self.view
                    .complete_rejoin(node, t)
                    .expect("readmit follows begin_rejoin");
                self.poke_all(t);
            }
        }
    }

    /// Splits the borrows one dispatch at node `ni` needs.
    fn parts(&mut self, ni: usize) -> (Env<'_, P>, &mut P::Hw, &mut Dispatcher<P>, &mut P) {
        let n_nodes = self.engines.len();
        let env = Env {
            cfg: &self.cfg,
            arch: self.arch,
            placement: self.router.map(),
            n_nodes,
            queue: &mut self.queue,
            completions: &mut self.completions,
            gauges: &mut self.gauges,
        };
        (
            env,
            &mut self.hw,
            &mut self.dispatchers[ni],
            &mut self.engines[ni],
        )
    }

    /// Re-evaluates every serving engine's wait conditions at `t`: a
    /// view change may have made a quorum satisfiable (or a blocked
    /// transaction re-targetable).
    fn poke_all(&mut self, t: Time) {
        for i in 0..self.engines.len() {
            let node = NodeId(i as u16);
            if !self.view.is_serving(node) {
                continue;
            }
            let mut out = Vec::new();
            self.engines[i].poll_now(&mut out);
            if out.is_empty() {
                continue;
            }
            let (env, hw, dispatcher, engine) = self.parts(i);
            let mut sink = P::sink(env, hw, node, t, None);
            dispatcher.run_actions(engine, out, &mut sink);
        }
    }

    /// Events processed by [`Sim::step`] so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Processes one simulated event. Returns false when idle.
    pub fn step(&mut self) -> bool {
        if let Some((t, vc)) = self.pop_ctrl_due() {
            self.events += 1;
            self.apply_view_change(t, vc);
            return true;
        }
        let Some((t, (node, ev, ctx))) = self.queue.pop() else {
            return false;
        };
        self.events += 1;
        // A node outside the serving set neither receives nor computes:
        // frames addressed to it are lost on the wire.
        if !self.view.is_serving(node) {
            return true;
        }
        self.set_clock(t);
        self.sample_gauges(t);
        let (env, hw, dispatcher, engine) = self.parts(node.0 as usize);
        let mut sink = P::sink(env, hw, node, t, Some(&ev));
        dispatcher.dispatch_ctx(engine, ev, ctx, &mut sink);
        true
    }

    /// Runs until the event queue is empty.
    pub fn run_to_idle(&mut self) {
        while self.step() {}
    }
}
