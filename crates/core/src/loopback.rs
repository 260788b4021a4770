//! A deterministic, single-process loopback harness for the protocol
//! engines.
//!
//! [`Cluster<P>`](Cluster) drives a cluster of any [`Protocol`] engine —
//! [`BCluster`] for MINOS-B, [`OCluster`] for MINOS-O — with a FIFO event
//! queue and immediate action execution. No timing is modeled — this
//! harness answers "does the protocol converge and what does it decide",
//! which is what the unit tests, the KV layer, and the examples need. For
//! timing, use the simulator in `minos-net`; for exhaustive
//! interleavings, `minos-mc`.
//!
//! Action interpretation is the [`runtime`](crate::runtime) dispatcher's:
//! this harness only supplies an [`Immediate`] handler that feeds the
//! in-process event queue, so its operational semantics are the same
//! code every other harness runs.
//!
//! Persist completions can be held back (`auto_persist = false`) to test
//! the persistency gates of each model.

use crate::baseline::NodeEngine;
use crate::event::ReqId;
use crate::obs::{GaugeKind, GaugeSet, SharedSink, TraceClock, Tracer, GAUGE_NODE_ALL};
use crate::offload::ONodeEngine;
pub use crate::runtime::Completion;
use crate::runtime::{
    observe_lock_table, Counters, Dispatcher, Immediate, Protocol, ShardRouter, Transport,
};
use minos_types::wire::TraceCtx;
use minos_types::{DdpModel, Key, MembershipView, Message, NodeId, ScopeId, ShardMap, Ts, Value};
use std::collections::{BTreeMap, VecDeque};

/// A barrier parent awaiting its routed children (used by the sharded
/// submit paths; the unsharded paths never enroll one).
#[derive(Debug, Clone)]
enum ParentOp {
    /// A multi-key write batch.
    Multi {
        /// Origin node.
        node: NodeId,
        /// Keys in submission order.
        keys: Vec<Key>,
    },
    /// A `[PERSIST]sc` fanned out to every coordinator of the scope.
    Scope {
        /// Origin node.
        node: NodeId,
        /// Scope being flushed.
        scope: ScopeId,
    },
}

impl ParentOp {
    fn finish(self, req: ReqId) -> Completion {
        match self {
            ParentOp::Multi { node, keys } => Completion::MultiWrite { node, req, keys },
            ParentOp::Scope { node, scope } => Completion::PersistScope { node, req, scope },
        }
    }
}

/// Loopback driver for a cluster of MINOS-B engines.
///
/// # Example
///
/// ```
/// use minos_core::loopback::BCluster;
/// use minos_types::{DdpModel, Key, NodeId, PersistencyModel};
///
/// let mut cl = BCluster::new(3, DdpModel::lin(PersistencyModel::Synchronous));
/// let req = cl.submit_write(NodeId(0), Key(1), "v1".into(), None);
/// cl.run();
/// assert!(cl.write_completed(req));
/// // All three replicas converged.
/// for n in 0..3 {
///     assert_eq!(cl.engine(NodeId(n)).record_value(Key(1)).unwrap(), "v1");
/// }
/// ```
pub type BCluster = Cluster<NodeEngine>;

/// Loopback driver for a cluster of MINOS-O engines (host + SmartNIC per
/// node). PCIe descriptors and FIFO drains are delivered through the same
/// FIFO queue; functional behavior matches the simulator's, minus timing.
pub type OCluster = Cluster<ONodeEngine>;

/// A queued delivery: destination, event, and the trace context of the
/// dispatch that caused the event (`None` for client submissions —
/// admission mints the trace).
type Queued<P> = (NodeId, <P as Protocol>::Event, Option<TraceCtx>);

/// Loopback driver for a cluster of [`Protocol`] engines.
#[derive(Debug, Clone)]
pub struct Cluster<P: Protocol> {
    engines: Vec<P>,
    dispatchers: Vec<Dispatcher<P>>,
    queue: VecDeque<Queued<P>>,
    /// When false, persist completions are parked in `held_persists` until
    /// [`Cluster::release_persists`] is called.
    pub auto_persist: bool,
    held_persists: Vec<Queued<P>>,
    completions: Vec<Completion>,
    next_req: u64,
    scramble: Option<u64>,
    /// Resource telemetry (lock-table size, in-flight ops, event-queue
    /// depth), sampled every [`LOOPBACK_SAMPLE_STEPS`] dispatch steps.
    gauges: GaugeSet,
    steps: u64,
    /// Key → shard-group routing and multi-op barriers; the identity
    /// router when the cluster is unsharded. MINOS-O engines have no
    /// redirect path, so on a sharded cluster this facade routing is what
    /// keeps every submit on a replica.
    router: ShardRouter,
    /// Barrier parents awaiting their last child.
    parents: BTreeMap<ReqId, ParentOp>,
    /// Submitted-minus-completed keyed ops per shard (sharded only).
    inflight_by_shard: BTreeMap<u32, u64>,
    /// Epoch/lease membership view, advanced by
    /// [`Cluster::crash_node`]/[`Cluster::rejoin_node`]. The loopback
    /// harness has no clock, so the dispatch-step counter stands in for
    /// nanoseconds and leases are granted generously — lease *expiry* is
    /// the timed runtimes' concern; loopback exercises the view changes.
    view: MembershipView,
}

/// Dispatch steps between telemetry samples on the loopback clusters.
/// The loopback harness has no clock, so the sequence counter paces the
/// gauges; 64 keeps the per-node observations off the hot path (the
/// lock-table read itself is O(1)). Changing the pace changes every
/// recorded gauge series.
const LOOPBACK_SAMPLE_STEPS: u64 = 64;

/// Lease duration on the loopback clusters, in the step-counter "clock".
/// Effectively never expires within a test run — the loopback harness
/// exercises view *changes*, not lease timing.
const LOOPBACK_LEASE: u64 = 1 << 40;

/// xorshift64*, used for seeded event-order scrambling without pulling a
/// random-number dependency into the protocol crate.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The loopback handler: every action effect is a push onto the shared
/// in-process queue (or the completion/held-persist lists).
struct LoopHandler<'a, P: Protocol> {
    node: NodeId,
    auto_persist: bool,
    /// The dispatching node's trace context, stamped onto every event
    /// this dispatch causes so the trace follows messages, deferrals,
    /// redirects, and persist completions across the queue.
    ctx: Option<TraceCtx>,
    queue: &'a mut VecDeque<Queued<P>>,
    held_persists: &'a mut Vec<Queued<P>>,
    completions: &'a mut Vec<Completion>,
}

impl<P: Protocol> Transport for LoopHandler<'_, P> {
    fn send(&mut self, to: NodeId, msg: Message) {
        self.queue
            .push_back((to, P::net_message(self.node, msg), self.ctx));
    }

    fn set_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.ctx = ctx;
    }
}

impl<P: Protocol> Immediate<P> for LoopHandler<'_, P> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn deliver(&mut self, to: NodeId, event: P::Event) {
        self.queue.push_back((to, event, self.ctx));
    }

    fn persisted(&mut self, event: P::Event) {
        if self.auto_persist {
            self.queue.push_back((self.node, event, self.ctx));
        } else {
            self.held_persists.push((self.node, event, self.ctx));
        }
    }

    fn done(&mut self, done: Completion) {
        self.completions.push(done);
    }
}

impl<P: Protocol> Cluster<P> {
    /// Builds an `n`-node cluster running `model`.
    #[must_use]
    pub fn new(n: usize, model: DdpModel) -> Self {
        Cluster {
            engines: (0..n).map(|i| P::new(NodeId(i as u16), n, model)).collect(),
            dispatchers: vec![Dispatcher::new(); n],
            queue: VecDeque::new(),
            auto_persist: true,
            held_persists: Vec::new(),
            completions: Vec::new(),
            next_req: 1,
            scramble: None,
            gauges: GaugeSet::new(),
            steps: 0,
            router: ShardRouter::new(None),
            parents: BTreeMap::new(),
            inflight_by_shard: BTreeMap::new(),
            view: MembershipView::new(n, LOOPBACK_LEASE, 0),
        }
    }

    /// Builds a sharded cluster over `map`'s nodes: every engine holds
    /// only its shards' keys, and client operations are routed through a
    /// [`ShardRouter`] to a replica of their key's shard.
    #[must_use]
    pub fn with_placement(map: ShardMap, model: DdpModel) -> Self {
        let mut cl = Self::new(map.n_nodes(), model);
        for e in &mut cl.engines {
            e.set_placement(Some(map.clone()));
        }
        cl.router = ShardRouter::new(Some(map));
        cl
    }

    /// The placement map, if this cluster is sharded.
    #[must_use]
    pub fn placement(&self) -> Option<&ShardMap> {
        self.router.map()
    }

    /// Enables seeded event-order scrambling: `step` pops a pseudo-random
    /// queued event instead of the oldest one. Per-pair FIFO ordering is
    /// *not* preserved — this explores message reorderings the network
    /// could produce, which the protocol must tolerate.
    pub fn set_scramble(&mut self, seed: u64) {
        self.scramble = Some(seed.max(1));
    }

    /// Attaches `sinks` to every node's dispatcher. Records are stamped
    /// with one cluster-global [`TraceClock::sequence`] counter, so the
    /// trace is a deterministic total order of protocol boundaries —
    /// tests assert exact event sequences against it.
    pub fn attach_tracer(&mut self, sinks: Vec<SharedSink>) {
        let clock = TraceClock::sequence();
        for (i, d) in self.dispatchers.iter_mut().enumerate() {
            d.set_tracer(Some(Tracer::new(
                NodeId(i as u16),
                clock.clone(),
                sinks.clone(),
            )));
        }
    }

    /// Access to a node's engine.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the cluster.
    #[must_use]
    pub fn engine(&self, node: NodeId) -> &P {
        &self.engines[node.0 as usize]
    }

    /// Mutable access to a node's engine (e.g. to pre-load records).
    pub fn engine_mut(&mut self, node: NodeId) -> &mut P {
        &mut self.engines[node.0 as usize]
    }

    /// A node's accumulated dispatch counters.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the cluster.
    #[must_use]
    pub fn dispatch_stats(&self, node: NodeId) -> &P::Stats {
        self.dispatchers[node.0 as usize].stats()
    }

    /// Cluster-wide dispatch counters (all nodes merged).
    #[must_use]
    pub fn dispatch_stats_total(&self) -> P::Stats {
        let mut total = P::Stats::default();
        for d in &self.dispatchers {
            total.merge_from(d.stats());
        }
        total
    }

    /// Pre-loads `key` on every node that replicates it (every node, when
    /// the cluster is unsharded).
    pub fn load_all(&mut self, key: Key, value: Value) {
        for e in &mut self.engines {
            if e.is_replica(key) {
                e.load_record(key, value.clone());
            }
        }
    }

    /// Completions observed so far.
    #[must_use]
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    fn fresh_req(&mut self) -> ReqId {
        let r = ReqId(self.next_req);
        self.next_req += 1;
        r
    }

    fn note_submitted(&mut self, key: Key) {
        if let Some(map) = self.router.map() {
            let shard = map.shard_of(key).0;
            *self.inflight_by_shard.entry(shard).or_insert(0) += 1;
        }
    }

    /// Submits a client write at `node`; returns its request id. On a
    /// sharded cluster the write is routed to a replica of its key's
    /// shard (the submitting node when it is one).
    pub fn submit_write(
        &mut self,
        node: NodeId,
        key: Key,
        value: Value,
        scope: Option<ScopeId>,
    ) -> ReqId {
        let req = self.fresh_req();
        let coord = self.router.route_write(node, key, scope);
        self.note_submitted(key);
        self.queue
            .push_back((coord, P::client_write(key, value, scope, req), None));
        req
    }

    /// Submits a client read at `node`, routed to a serving replica.
    pub fn submit_read(&mut self, node: NodeId, key: Key) -> ReqId {
        let req = self.fresh_req();
        let serving = self.router.serving(node, key);
        self.note_submitted(key);
        self.queue
            .push_back((serving, P::client_read(key, req), None));
        req
    }

    /// Submits a multi-key write batch at `node`: each key is routed to
    /// its shard's coordinator and the returned parent request completes
    /// (as [`Completion::MultiWrite`]) only once every per-key child has.
    /// Works on unsharded clusters too — the children all run at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `writes` is empty.
    pub fn submit_write_multi(
        &mut self,
        node: NodeId,
        writes: Vec<(Key, Value)>,
        scope: Option<ScopeId>,
    ) -> ReqId {
        assert!(!writes.is_empty(), "empty multi-key write batch");
        let req = self.fresh_req();
        let children: Vec<ReqId> = writes.iter().map(|_| self.fresh_req()).collect();
        self.router.begin_barrier(req, &children);
        self.parents.insert(
            req,
            ParentOp::Multi {
                node,
                keys: writes.iter().map(|(k, _)| *k).collect(),
            },
        );
        for ((key, value), child) in writes.into_iter().zip(children) {
            let coord = self.router.route_write(node, key, scope);
            self.note_submitted(key);
            self.queue
                .push_back((coord, P::client_write(key, value, scope, child), None));
        }
        req
    }

    /// Submits a `[PERSIST]sc` at `node`. On a sharded cluster the flush
    /// is fanned out to every coordinator that scoped writes from `node`
    /// were routed to, barrier-joined into the returned parent request.
    pub fn submit_persist_scope(&mut self, node: NodeId, scope: ScopeId) -> ReqId {
        let req = self.fresh_req();
        if self.router.map().is_some() {
            let coords = self.router.scope_coordinators(node, scope);
            let children: Vec<ReqId> = coords.iter().map(|_| self.fresh_req()).collect();
            self.router.begin_barrier(req, &children);
            self.parents.insert(req, ParentOp::Scope { node, scope });
            for (coord, child) in coords.into_iter().zip(children) {
                self.queue
                    .push_back((coord, P::client_persist_scope(scope, child), None));
            }
        } else {
            self.queue
                .push_back((node, P::client_persist_scope(scope, req), None));
        }
        req
    }

    /// Injects a raw event (tests use this for out-of-order deliveries).
    pub fn inject(&mut self, node: NodeId, event: P::Event) {
        self.queue.push_back((node, event, None));
    }

    /// Processes one queued event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let picked = match self.scramble {
            Some(ref mut seed) if !self.queue.is_empty() => {
                let idx = (xorshift(seed) % self.queue.len() as u64) as usize;
                self.queue.remove(idx)
            }
            _ => self.queue.pop_front(),
        };
        let Some((node, ev, ctx)) = picked else {
            return false;
        };
        let ni = node.0 as usize;
        let pre = self.completions.len();
        let mut handler = LoopHandler {
            node,
            auto_persist: self.auto_persist,
            ctx: None,
            queue: &mut self.queue,
            held_persists: &mut self.held_persists,
            completions: &mut self.completions,
        };
        P::dispatch_immediate(
            &mut self.dispatchers[ni],
            &mut self.engines[ni],
            ev,
            ctx,
            &mut handler,
        );
        self.absorb_completions(pre);
        self.steps += 1;
        if self.steps.is_multiple_of(LOOPBACK_SAMPLE_STEPS) {
            self.sample_gauges();
        }
        true
    }

    fn sample_gauges(&mut self) {
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
            let done: u64 = self.completions.len() as u64;
            self.gauges.observe(
                GaugeKind::InflightTxs,
                GAUGE_NODE_ALL,
                (self.next_req - 1).saturating_sub(done),
            );
        }
        self.gauges.observe(
            GaugeKind::HostSendQueue,
            GAUGE_NODE_ALL,
            self.queue.len() as u64,
        );
    }

    /// Folds barrier-child completions into their parent: a child's
    /// completion is absorbed (never surfaced), and when a parent's last
    /// child lands, the parent's own completion is surfaced at its
    /// origin. Also retires per-shard in-flight counts.
    fn absorb_completions(&mut self, from: usize) {
        let mut i = from;
        while i < self.completions.len() {
            let (req, key) = match &self.completions[i] {
                Completion::Write { req, key, .. } | Completion::Read { req, key, .. } => {
                    (*req, Some(*key))
                }
                Completion::PersistScope { req, .. } | Completion::MultiWrite { req, .. } => {
                    (*req, None)
                }
            };
            if let (Some(map), Some(key)) = (self.router.map(), key) {
                let shard = map.shard_of(key).0;
                if let Some(n) = self.inflight_by_shard.get_mut(&shard) {
                    *n = n.saturating_sub(1);
                }
            }
            if self.router.is_child(req) {
                self.completions.remove(i);
                if let Some(parent) = self.router.complete_child(req) {
                    let op = self
                        .parents
                        .remove(&parent)
                        .expect("barrier parent recorded");
                    self.completions.push(op.finish(parent));
                }
            } else {
                i += 1;
            }
        }
    }

    /// The resource-telemetry gauges accumulated so far.
    #[must_use]
    pub fn gauges(&self) -> &GaugeSet {
        &self.gauges
    }

    /// Runs until no event is queued.
    ///
    /// # Panics
    ///
    /// Panics after 10 million steps (a protocol livelock would otherwise
    /// hang the test suite).
    pub fn run(&mut self) {
        let mut steps = 0u64;
        while self.step() {
            steps += 1;
            assert!(steps < 10_000_000, "loopback cluster did not quiesce");
        }
    }

    /// Releases all held persist completions (manual-persist mode) and
    /// returns how many were released.
    pub fn release_persists(&mut self) -> usize {
        let held = std::mem::take(&mut self.held_persists);
        let n = held.len();
        self.queue.extend(held);
        n
    }

    /// Whether write `req` has completed.
    #[must_use]
    pub fn write_completed(&self, req: ReqId) -> bool {
        self.completions
            .iter()
            .any(|c| matches!(c, Completion::Write { req: r, .. } if *r == req))
    }

    /// Whether multi-key write `req` (a barrier parent) has completed.
    #[must_use]
    pub fn multi_completed(&self, req: ReqId) -> bool {
        self.completions
            .iter()
            .any(|c| matches!(c, Completion::MultiWrite { req: r, .. } if *r == req))
    }

    /// The value observed by read `req`, if it has completed.
    #[must_use]
    pub fn read_value(&self, req: ReqId) -> Option<Value> {
        self.completions.iter().find_map(|c| match c {
            Completion::Read { req: r, value, .. } if *r == req => Some(value.clone()),
            _ => None,
        })
    }

    /// Asserts that every replica of `key` converged to the same value and
    /// fully-released, consistent metadata. Returns that value. On a
    /// sharded cluster only the key's replica group is checked — other
    /// nodes never hold the record.
    ///
    /// # Panics
    ///
    /// Panics if replicas diverge or a lock is still held.
    pub fn assert_converged(&self, key: Key) -> Value {
        let replicas: Vec<&P> = self.engines.iter().filter(|e| e.is_replica(key)).collect();
        let first = replicas[0].record_value(key).unwrap_or_default();
        let meta0 = replicas[0].record_meta(key);
        for e in replicas {
            let meta = e.record_meta(key);
            assert!(
                meta.readable(),
                "node {}: RDLock still held: {meta}",
                e.node()
            );
            assert!(!meta.wr_lock, "node {}: WRLock still held", e.node());
            assert_eq!(
                e.record_value(key).unwrap_or_default(),
                first,
                "replica divergence at node {}",
                e.node()
            );
            assert_eq!(
                meta.volatile_ts,
                meta0.volatile_ts,
                "volatileTS divergence at node {}",
                e.node()
            );
        }
        first
    }

    /// The epoch/lease membership view in force.
    #[must_use]
    pub fn membership(&self) -> &MembershipView {
        &self.view
    }

    /// The current view epoch (bumped by every crash and every completed
    /// rejoin).
    #[must_use]
    pub fn view_epoch(&self) -> u64 {
        self.view.epoch()
    }

    /// A protocol without a failure detector (MINOS-O) keeps its quorums
    /// spanning the full replica group, so its view changes are
    /// *quiesced*: a Synchronous write coordinated elsewhere would
    /// otherwise wait forever for the dead node's acknowledgment.
    fn assert_view_change_allowed(&self) {
        assert!(
            P::FAILURE_DETECTOR || self.engines.iter().all(P::is_quiescent),
            "view changes must be quiesced: the engine has no failure detector"
        );
    }

    /// Crashes `node`: its volatile state is lost (the engine is rebuilt
    /// fresh), events queued for it are dropped, NVM completions it was
    /// awaiting are discarded, every surviving engine excludes it from
    /// its acknowledgment quorums, and the view epoch advances.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the cluster, or if the protocol has no
    /// failure detector and any engine has an operation in flight.
    pub fn crash_node(&mut self, node: NodeId) {
        self.assert_view_change_allowed();
        let ni = node.0 as usize;
        let n = self.engines.len();
        let model = self.engines[ni].model();
        self.engines[ni] = P::new(node, n, model);
        self.engines[ni].set_placement(self.router.map().cloned());
        self.dispatchers[ni] = Dispatcher::new();
        self.queue.retain(|(to, _, _)| *to != node);
        self.held_persists.retain(|(at, _, _)| *at != node);
        self.view.mark_down(node).expect("crash a known node");
        for i in 0..n {
            if i != ni {
                self.engines[i].mark_failed(node);
            }
        }
        // In-flight transactions blocked on the dead node's ack
        // re-evaluate against the shrunken quorum.
        self.poke_all();
    }

    /// Rejoins crashed `node` with `donor` as the catch-up source: the
    /// fresh engine installs every record the donor replicates on
    /// `node`'s shards (the loopback stand-in for durable-log replay
    /// plus the donor's missing-version delta — loopback has no
    /// persistence layer, so the donor copy *is* the recovered state),
    /// the survivors re-admit it to their quorums, and the epoch
    /// advances again.
    ///
    /// # Panics
    ///
    /// Panics unless `node` is down and `donor` is serving, or if the
    /// protocol has no failure detector and the cluster is not quiescent.
    pub fn rejoin_node(&mut self, node: NodeId, donor: NodeId) {
        self.assert_view_change_allowed();
        assert!(
            self.view.is_serving(donor),
            "rejoin donor {donor} is not serving"
        );
        self.view.begin_rejoin(node).expect("rejoin a down node");
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
        for (k, ts, v) in records {
            self.engines[ni].install_recovered(k, ts, v);
        }
        for i in 0..self.engines.len() {
            let other = NodeId(i as u16);
            if other == node {
                continue;
            }
            self.engines[i].mark_recovered(node);
            // The rebuilt engine starts with everyone alive; teach it
            // about peers that are still down.
            if !self.view.is_serving(other) {
                self.engines[ni].mark_failed(other);
            }
        }
        self.view
            .complete_rejoin(node, self.steps)
            .expect("complete rejoin");
        self.poke_all();
    }

    /// Drains the unblock actions a view change releases: every engine
    /// re-evaluates its in-flight transactions now (the timed runtimes
    /// do this on their next timer tick).
    fn poke_all(&mut self) {
        let pre = self.completions.len();
        for i in 0..self.engines.len() {
            let mut out = Vec::new();
            self.engines[i].poll_now(&mut out);
            let mut handler = LoopHandler {
                node: NodeId(i as u16),
                auto_persist: self.auto_persist,
                ctx: None,
                queue: &mut self.queue,
                held_persists: &mut self.held_persists,
                completions: &mut self.completions,
            };
            P::run_immediate(
                &mut self.dispatchers[i],
                &self.engines[i],
                out,
                &mut handler,
            );
        }
        self.absorb_completions(pre);
    }
}
