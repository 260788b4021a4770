//! One protocol interface, two placements.
//!
//! MINOS-B and MINOS-O are the same leaderless DDP protocol: MINOS-O
//! runs it split across a host and its SmartNIC. [`Protocol`] is the
//! interface every generic harness — the [`Dispatcher`],
//! the loopback cluster, the DES front and the model checker — programs
//! against; [`NodeEngine`] and [`ONodeEngine`] implement it directly.
//!
//! What stays per protocol is only what knows the action shapes:
//!
//! * the [`Handler`] impls: the per-action match that counts each action
//!   and translates it into an [`ActionSink`]/[`OSink`] call;
//! * the zero-delay sink impls: the feedback of local effects (persist →
//!   `PersistDone`; PCIe descriptor → `PcieFrom*`; FIFO enqueue →
//!   `*Drained`) for [`Immediate`] handlers, the harnesses without a
//!   cost model;
//! * the trace-boundary mapping and the client-event constructors.

use super::{ActionSink, DispatchStats, Dispatcher, ODispatchStats, OSink, Transport};
use crate::baseline::{CoordTxView, NodeEngine};
use crate::event::{Action, DelayClass, Event, ReqId};
use crate::obs::{GaugeKind, GaugeSet, OpKind, TraceEvent};
use crate::offload::{OAction, OEvent, ONodeEngine, PcieMsg, Side};
use minos_types::wire::TraceCtx;
use minos_types::{DdpModel, Key, Message, NodeId, RecordMeta, ScopeId, ShardMap, Ts, Value};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Per-node protocol counters kept by a dispatcher.
pub trait Counters: Copy + Default + Debug + PartialEq + Eq {
    /// Adds `other` into `self` (cluster-wide aggregation).
    fn merge_from(&mut self, other: &Self);

    /// Protocol messages put on the wire: unicasts plus fan-outs.
    fn wire_msgs(&self) -> u64;
}

impl Counters for DispatchStats {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }

    fn wire_msgs(&self) -> u64 {
        self.sends + self.fanouts
    }
}

impl Counters for ODispatchStats {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }

    fn wire_msgs(&self) -> u64 {
        self.sends + self.fanouts
    }
}

/// Samples `engine`'s lock-table gauge as node `node`: one node-wide
/// sample when unsharded; under `map`, one sample per shard `node`
/// hosts, with an explicit zero for a hosted shard holding no locks.
/// Every harness's gauge sampler (DES, loopback, the live node core)
/// goes through here.
pub fn observe_lock_table<P: Protocol>(
    engine: &P,
    gauges: &mut GaugeSet,
    node: NodeId,
    map: Option<&ShardMap>,
) {
    let id = u32::from(node.0);
    let Some(map) = map else {
        gauges.observe(GaugeKind::LockTableSize, id, engine.locked_records() as u64);
        return;
    };
    let by_shard = engine.locked_records_by_shard(map);
    for sh in map.shards_on(node) {
        let n = by_shard.get(&sh.0).copied().unwrap_or(0);
        gauges.observe_shard(GaugeKind::LockTableSize, id, sh.0, n as u64);
    }
}

/// A MINOS protocol engine, as the generic harnesses see it.
pub trait Protocol: Clone + Debug {
    /// Engine input.
    type Event: Clone + Debug;
    /// Engine output.
    type Action: Clone + Debug;
    /// The counters a [`Dispatcher`] keeps per node.
    type Stats: Counters;

    /// Whether the engine carries a failure detector. Without one
    /// (MINOS-O) quorums always span the full replica group, so
    /// harnesses require every engine to be quiescent at a view change,
    /// and [`Protocol::mark_failed`]/[`Protocol::mark_recovered`]/
    /// [`Protocol::poll_now`] do nothing.
    const FAILURE_DETECTOR: bool;

    /// The engine for `node` in a cluster of `n_nodes`.
    fn new(node: NodeId, n_nodes: usize, model: DdpModel) -> Self;

    /// Handles one input event, appending the resulting actions to `out`.
    fn on_event(&mut self, event: Self::Event, out: &mut Vec<Self::Action>);

    /// Re-evaluates every wait condition without a new event (after a
    /// view change).
    fn poll_now(&mut self, out: &mut Vec<Self::Action>);

    /// Excludes `peer` from acknowledgment quorums.
    fn mark_failed(&mut self, peer: NodeId);

    /// Re-admits `peer` to acknowledgment quorums.
    fn mark_recovered(&mut self, peer: NodeId);

    /// This node's id.
    fn node(&self) -> NodeId;

    /// The DDP model in force.
    fn model(&self) -> DdpModel;

    /// Installs the cluster placement map (`None` = full replication).
    fn set_placement(&mut self, map: Option<ShardMap>);

    /// Whether this node holds a replica of `key`.
    fn is_replica(&self, key: Key) -> bool;

    /// Pre-populates a record.
    fn load_record(&mut self, key: Key, value: Value);

    /// Installs a record recovered from a donor (already consistent and
    /// durable cluster-wide).
    fn install_recovered(&mut self, key: Key, ts: Ts, value: Value);

    /// Record metadata.
    fn record_meta(&self, key: Key) -> RecordMeta;

    /// Current value of `key` in local volatile memory.
    fn record_value(&self, key: Key) -> Option<Value>;

    /// All keys materialized at this node.
    fn keys(&self) -> Vec<Key>;

    /// Records holding an RDLock or WRLock (the lock-table gauge).
    fn locked_records(&self) -> usize;

    /// Locked records per shard of `map`.
    fn locked_records_by_shard(&self, map: &ShardMap) -> BTreeMap<u32, usize>;

    /// True when nothing is in flight.
    fn is_quiescent(&self) -> bool;

    /// Views of every in-flight coordinator transaction.
    fn coord_tx_views(&self) -> Vec<CoordTxView>;

    /// A client write admission.
    fn client_write(key: Key, value: Value, scope: Option<ScopeId>, req: ReqId) -> Self::Event;

    /// A client read admission.
    fn client_read(key: Key, req: ReqId) -> Self::Event;

    /// A client `[PERSIST]sc` admission.
    fn client_persist_scope(scope: ScopeId, req: ReqId) -> Self::Event;

    /// A protocol message from peer `from` arriving at this node.
    fn net_message(from: NodeId, msg: Message) -> Self::Event;

    /// The trace boundary an input event crosses, if any. Client
    /// admissions map to [`TraceEvent::OpAdmitted`].
    fn trace_of_event(event: &Self::Event) -> Option<TraceEvent>;

    /// The trace boundary an output action crosses, if any (fan-outs
    /// carry this engine's destination count).
    fn trace_of_action(&self, act: &Self::Action) -> Option<TraceEvent>;

    /// [`Dispatcher::dispatch_ctx`] through an [`Immediate`] handler:
    /// local effects feed straight back as events.
    fn dispatch_immediate<H: Immediate<Self>>(
        dispatcher: &mut Dispatcher<Self>,
        engine: &mut Self,
        event: Self::Event,
        ctx: Option<TraceCtx>,
        handler: &mut H,
    );

    /// [`Dispatcher::run_actions`] through an [`Immediate`] handler.
    fn run_immediate<H: Immediate<Self>>(
        dispatcher: &mut Dispatcher<Self>,
        engine: &Self,
        actions: Vec<Self::Action>,
        handler: &mut H,
    );
}

/// A dispatch handler for protocol `P`: the messaging half
/// ([`Transport`]) plus the protocol's local half. Implemented for every
/// `Transport + ActionSink` (MINOS-B) and every `Transport + OSink`
/// (MINOS-O); harnesses implement those, never this.
pub trait Handler<P: Protocol>: Transport {
    /// Called once per dispatch with the full action batch.
    fn start(&mut self, actions: &[P::Action]);

    /// Counts `act` in `stats` and hands it to the handler.
    fn apply(&mut self, engine: &P, stats: &mut P::Stats, act: P::Action);
}

/// A client-visible completion, as reported to an [`Immediate`] handler
/// (and observed by a loopback cluster).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completion {
    /// A write finished.
    Write {
        /// Node that coordinated it.
        node: NodeId,
        /// Request id.
        req: ReqId,
        /// Key written.
        key: Key,
        /// Timestamp assigned.
        ts: Ts,
        /// Whether it was cut short as obsolete.
        obsolete: bool,
    },
    /// A read finished.
    Read {
        /// Node that served it.
        node: NodeId,
        /// Request id.
        req: ReqId,
        /// Key read.
        key: Key,
        /// Value observed.
        value: Value,
        /// Version observed.
        ts: Ts,
    },
    /// A `[PERSIST]sc` finished.
    PersistScope {
        /// Coordinating node.
        node: NodeId,
        /// Request id.
        req: ReqId,
        /// Scope flushed.
        scope: ScopeId,
    },
    /// A multi-key write batch finished: every per-key child write
    /// completed and the loopback cluster's barrier released the parent
    /// request. Never reported by a dispatch.
    MultiWrite {
        /// Node the batch was submitted at.
        node: NodeId,
        /// Parent request id.
        req: ReqId,
        /// Keys written, in submission order.
        keys: Vec<Key>,
    },
}

/// A handler without a cost model, where every local effect completes at
/// once: the loopback cluster and the model checker. Dispatch through it
/// with [`Protocol::dispatch_immediate`], which turns each protocol's
/// local effects into the events they feed back.
pub trait Immediate<P: Protocol>: Transport {
    /// The dispatching node.
    fn node(&self) -> NodeId;

    /// Delivers `event` to node `to` (the dispatching node itself for
    /// local effects).
    fn deliver(&mut self, to: NodeId, event: P::Event);

    /// A persist completion for the dispatching node. The default
    /// delivers it at once; the loopback cluster can hold it back.
    fn persisted(&mut self, event: P::Event) {
        let node = self.node();
        self.deliver(node, event);
    }

    /// A client operation completed at the dispatching node.
    fn done(&mut self, done: Completion);
}

/// Adapts an [`Immediate`] handler into a dispatch handler for either
/// protocol: each protocol's sink impl below feeds its local effects
/// straight back.
struct ZeroDelay<'a, H>(&'a mut H);

impl<H: Transport> Transport for ZeroDelay<'_, H> {
    fn send(&mut self, to: NodeId, msg: Message) {
        self.0.send(to, msg);
    }

    fn broadcast(&mut self, dests: &[NodeId], msg: Message) {
        self.0.broadcast(dests, msg);
    }

    fn flush(&mut self) {
        self.0.flush();
    }

    fn set_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.0.set_ctx(ctx);
    }
}

fn admitted(op: OpKind, req: ReqId, key: Option<Key>, scope: Option<ScopeId>) -> TraceEvent {
    TraceEvent::OpAdmitted {
        op,
        req,
        key,
        scope,
    }
}

fn completed(
    op: OpKind,
    req: ReqId,
    key: Option<Key>,
    ts: Option<Ts>,
    obsolete: bool,
) -> TraceEvent {
    TraceEvent::OpCompleted {
        op,
        req,
        key,
        obsolete,
        ts,
    }
}

fn received(from: NodeId, msg: &Message) -> TraceEvent {
    TraceEvent::MsgReceived {
        from,
        kind: msg.kind(),
        key: msg.key(),
    }
}

fn sent(to: NodeId, msg: &Message) -> TraceEvent {
    TraceEvent::MsgSent {
        to,
        kind: msg.kind(),
        key: msg.key(),
    }
}

fn fanned_out(dests: usize, msg: &Message) -> TraceEvent {
    TraceEvent::FanOut {
        dests: u32::try_from(dests).unwrap_or(u32::MAX),
        kind: msg.kind(),
        key: msg.key(),
    }
}

/// The trait methods whose text is the same for both protocols: the
/// engine accessors both expose under the same inherent names (inherent
/// methods win method resolution, so `self.x()` here forwards rather
/// than recurses), and the zero-delay dispatch entry points (which
/// resolve to each protocol's own `ZeroDelay` sink impl).
macro_rules! shared_impl {
    () => {
        fn dispatch_immediate<H: Immediate<Self>>(
            dispatcher: &mut Dispatcher<Self>,
            engine: &mut Self,
            event: Self::Event,
            ctx: Option<TraceCtx>,
            handler: &mut H,
        ) {
            dispatcher.dispatch_ctx(engine, event, ctx, &mut ZeroDelay(handler));
        }

        fn run_immediate<H: Immediate<Self>>(
            dispatcher: &mut Dispatcher<Self>,
            engine: &Self,
            actions: Vec<Self::Action>,
            handler: &mut H,
        ) {
            dispatcher.run_actions(engine, actions, &mut ZeroDelay(handler));
        }

        #[inline]
        fn node(&self) -> NodeId {
            self.node()
        }

        #[inline]
        fn model(&self) -> DdpModel {
            self.model()
        }

        #[inline]
        fn set_placement(&mut self, map: Option<ShardMap>) {
            self.set_placement(map);
        }

        #[inline]
        fn is_replica(&self, key: Key) -> bool {
            self.is_replica(key)
        }

        #[inline]
        fn load_record(&mut self, key: Key, value: Value) {
            self.load_record(key, value);
        }

        #[inline]
        fn install_recovered(&mut self, key: Key, ts: Ts, value: Value) {
            self.install_recovered(key, ts, value);
        }

        #[inline]
        fn record_meta(&self, key: Key) -> RecordMeta {
            self.record_meta(key)
        }

        #[inline]
        fn record_value(&self, key: Key) -> Option<Value> {
            self.record_value(key)
        }

        #[inline]
        fn keys(&self) -> Vec<Key> {
            self.keys()
        }

        #[inline]
        fn locked_records(&self) -> usize {
            self.locked_records()
        }

        #[inline]
        fn locked_records_by_shard(&self, map: &ShardMap) -> BTreeMap<u32, usize> {
            self.locked_records_by_shard(map)
        }

        #[inline]
        fn is_quiescent(&self) -> bool {
            self.is_quiescent()
        }

        #[inline]
        fn coord_tx_views(&self) -> Vec<CoordTxView> {
            self.coord_tx_views()
        }
    };
}

/// The client-completion methods of both protocols' zero-delay sinks
/// (`ActionSink` and `OSink` share their signatures).
macro_rules! zero_delay_completions {
    () => {
        fn write_done(&mut self, req: ReqId, key: Key, ts: Ts, obsolete: bool) {
            let node = self.0.node();
            self.0.done(Completion::Write {
                node,
                req,
                key,
                ts,
                obsolete,
            });
        }

        fn read_done(&mut self, req: ReqId, key: Key, value: Value, ts: Ts) {
            let node = self.0.node();
            self.0.done(Completion::Read {
                node,
                req,
                key,
                value,
                ts,
            });
        }

        fn persist_scope_done(&mut self, req: ReqId, scope: ScopeId) {
            let node = self.0.node();
            self.0.done(Completion::PersistScope { node, req, scope });
        }
    };
}

// ---------------------------------------------------------------------
// MINOS-B

impl Protocol for NodeEngine {
    type Event = Event;
    type Action = Action;
    type Stats = DispatchStats;

    const FAILURE_DETECTOR: bool = true;

    fn new(node: NodeId, n_nodes: usize, model: DdpModel) -> Self {
        NodeEngine::new(node, n_nodes, model)
    }

    #[inline]
    fn on_event(&mut self, event: Event, out: &mut Vec<Action>) {
        self.on_event(event, out);
    }

    fn poll_now(&mut self, out: &mut Vec<Action>) {
        self.poll_now(out);
    }

    fn mark_failed(&mut self, peer: NodeId) {
        self.mark_failed(peer);
    }

    fn mark_recovered(&mut self, peer: NodeId) {
        self.mark_recovered(peer);
    }

    shared_impl!();

    fn client_write(key: Key, value: Value, scope: Option<ScopeId>, req: ReqId) -> Event {
        Event::ClientWrite {
            key,
            value,
            scope,
            req,
        }
    }

    fn client_read(key: Key, req: ReqId) -> Event {
        Event::ClientRead { key, req }
    }

    fn client_persist_scope(scope: ScopeId, req: ReqId) -> Event {
        Event::ClientPersistScope { scope, req }
    }

    fn net_message(from: NodeId, msg: Message) -> Event {
        Event::Message { from, msg }
    }

    fn trace_of_event(ev: &Event) -> Option<TraceEvent> {
        Some(match ev {
            Event::ClientWrite {
                key, req, scope, ..
            } => admitted(OpKind::Write, *req, Some(*key), *scope),
            Event::ClientRead { key, req } => admitted(OpKind::Read, *req, Some(*key), None),
            Event::ClientPersistScope { req, scope } => {
                admitted(OpKind::PersistScope, *req, None, Some(*scope))
            }
            Event::StartWrite { key, .. } => TraceEvent::WriteStarted { key: *key },
            Event::Message { from, msg } => received(*from, msg),
            Event::PersistDone { key, .. } => TraceEvent::PersistCompleted { key: *key },
        })
    }

    fn trace_of_action(&self, act: &Action) -> Option<TraceEvent> {
        Some(match act {
            Action::Send { to, msg } => sent(*to, msg),
            Action::SendToFollowers { msg } => {
                fanned_out(self.fanout_targets(msg.key()).len(), msg)
            }
            Action::Persist {
                key, background, ..
            } => TraceEvent::PersistStarted {
                key: *key,
                background: *background,
            },
            Action::WriteDone {
                req,
                key,
                ts,
                obsolete,
            } => completed(OpKind::Write, *req, Some(*key), Some(*ts), *obsolete),
            Action::ReadDone { req, key, ts, .. } => {
                completed(OpKind::Read, *req, Some(*key), Some(*ts), false)
            }
            Action::PersistScopeDone { req, .. } => {
                completed(OpKind::PersistScope, *req, None, None, false)
            }
            Action::Defer { .. } | Action::Redirect { .. } | Action::Meta(_) => return None,
        })
    }
}

impl<H: Transport + ActionSink> Handler<NodeEngine> for H {
    fn start(&mut self, actions: &[Action]) {
        self.begin(actions);
    }

    fn apply(&mut self, engine: &NodeEngine, stats: &mut DispatchStats, act: Action) {
        match act {
            Action::Send { to, msg } => {
                stats.sends += 1;
                self.send(to, msg);
            }
            Action::SendToFollowers { msg } => {
                let dests = engine.fanout_targets(msg.key());
                stats.fanouts += 1;
                stats.fanout_dests += dests.len() as u64;
                self.broadcast(&dests, msg);
            }
            Action::Persist {
                key,
                ts,
                value,
                background,
            } => {
                stats.persists += 1;
                self.persist(key, ts, value, background);
            }
            Action::Redirect { to, event } => {
                stats.redirects += 1;
                self.redirect(to, event);
            }
            Action::Defer { event, class } => {
                stats.defers += 1;
                self.defer(event, class);
            }
            Action::WriteDone {
                req,
                key,
                ts,
                obsolete,
            } => {
                stats.writes_done += 1;
                self.write_done(req, key, ts, obsolete);
            }
            Action::ReadDone {
                req,
                key,
                value,
                ts,
            } => {
                stats.reads_done += 1;
                self.read_done(req, key, value, ts);
            }
            Action::PersistScopeDone { req, scope } => {
                stats.persist_scopes_done += 1;
                self.persist_scope_done(req, scope);
            }
            Action::Meta(op) => {
                stats.meta.record(&op);
                self.meta(&op);
            }
        }
    }
}

impl<H: Immediate<NodeEngine>> ActionSink for ZeroDelay<'_, H> {
    fn persist(&mut self, key: Key, ts: Ts, _value: Value, _background: bool) {
        self.0.persisted(Event::PersistDone { key, ts });
    }

    fn redirect(&mut self, to: NodeId, event: Event) {
        self.0.deliver(to, event);
    }

    fn defer(&mut self, event: Event, _class: DelayClass) {
        let node = self.0.node();
        self.0.deliver(node, event);
    }

    zero_delay_completions!();
}

// ---------------------------------------------------------------------
// MINOS-O

impl Protocol for ONodeEngine {
    type Event = OEvent;
    type Action = OAction;
    type Stats = ODispatchStats;

    const FAILURE_DETECTOR: bool = false;

    fn new(node: NodeId, n_nodes: usize, model: DdpModel) -> Self {
        ONodeEngine::new(node, n_nodes, model)
    }

    #[inline]
    fn on_event(&mut self, event: OEvent, out: &mut Vec<OAction>) {
        self.on_event(event, out);
    }

    fn poll_now(&mut self, _out: &mut Vec<OAction>) {}

    fn mark_failed(&mut self, _peer: NodeId) {}

    fn mark_recovered(&mut self, _peer: NodeId) {}

    shared_impl!();

    fn client_write(key: Key, value: Value, scope: Option<ScopeId>, req: ReqId) -> OEvent {
        OEvent::ClientWrite {
            key,
            value,
            scope,
            req,
        }
    }

    fn client_read(key: Key, req: ReqId) -> OEvent {
        OEvent::ClientRead { key, req }
    }

    fn client_persist_scope(scope: ScopeId, req: ReqId) -> OEvent {
        OEvent::ClientPersistScope { scope, req }
    }

    fn net_message(from: NodeId, msg: Message) -> OEvent {
        OEvent::NetMessage { from, msg }
    }

    fn trace_of_event(ev: &OEvent) -> Option<TraceEvent> {
        Some(match ev {
            OEvent::ClientWrite {
                key, req, scope, ..
            } => admitted(OpKind::Write, *req, Some(*key), *scope),
            OEvent::ClientRead { key, req } => admitted(OpKind::Read, *req, Some(*key), None),
            OEvent::ClientPersistScope { req, scope } => {
                admitted(OpKind::PersistScope, *req, None, Some(*scope))
            }
            OEvent::HostStart { key, .. } => TraceEvent::WriteStarted { key: *key },
            OEvent::NetMessage { from, msg } => received(*from, msg),
            OEvent::VfifoDrained { key, .. } => TraceEvent::FifoDrained {
                durable: false,
                key: *key,
            },
            OEvent::DfifoDrained { key, .. } => TraceEvent::FifoDrained {
                durable: true,
                key: *key,
            },
            // The PCIe crossing is traced once, at enqueue.
            OEvent::PcieFromHost(_) | OEvent::PcieFromSnic(_) => return None,
        })
    }

    fn trace_of_action(&self, act: &OAction) -> Option<TraceEvent> {
        Some(match act {
            OAction::Send { to, msg } => sent(*to, msg),
            OAction::SendToFollowers { msg } => {
                fanned_out(self.fanout_targets(msg.key()).len(), msg)
            }
            OAction::Pcie { from, .. } => TraceEvent::PcieCrossing { from: *from },
            OAction::VfifoEnqueue { key, .. } => TraceEvent::FifoEnqueued {
                durable: false,
                key: *key,
            },
            OAction::DfifoEnqueue { key, .. } => TraceEvent::FifoEnqueued {
                durable: true,
                key: *key,
            },
            OAction::WriteDone {
                req,
                key,
                ts,
                obsolete,
            } => completed(OpKind::Write, *req, Some(*key), Some(*ts), *obsolete),
            OAction::ReadDone { req, key, ts, .. } => {
                completed(OpKind::Read, *req, Some(*key), Some(*ts), false)
            }
            OAction::PersistScopeDone { req, .. } => {
                completed(OpKind::PersistScope, *req, None, None, false)
            }
            OAction::CoherenceTransfer { key } => TraceEvent::CoherenceTransfer { key: *key },
            OAction::Defer { .. } | OAction::Meta { .. } => return None,
        })
    }
}

impl<H: Transport + OSink> Handler<ONodeEngine> for H {
    fn start(&mut self, actions: &[OAction]) {
        self.begin(actions);
    }

    fn apply(&mut self, engine: &ONodeEngine, stats: &mut ODispatchStats, act: OAction) {
        match act {
            OAction::Send { to, msg } => {
                stats.sends += 1;
                self.send(to, msg);
            }
            OAction::SendToFollowers { msg } => {
                // The SNIC broadcast module fans out to the key's replica
                // group — every peer when the store is fully replicated
                // (the paper's MINOS-O shape), the shard's peers under a
                // placement map.
                let dests = engine.fanout_targets(msg.key());
                stats.fanouts += 1;
                stats.fanout_dests += dests.len() as u64;
                self.broadcast(&dests, msg);
            }
            OAction::Pcie { from, msg } => {
                stats.pcie_msgs += 1;
                self.pcie(from, msg);
            }
            OAction::VfifoEnqueue { key, ts, bytes } => {
                stats.vfifo_enqueues += 1;
                self.vfifo_enqueue(key, ts, bytes);
            }
            OAction::DfifoEnqueue { key, ts, bytes } => {
                stats.dfifo_enqueues += 1;
                self.dfifo_enqueue(key, ts, bytes);
            }
            OAction::Defer { event } => {
                stats.defers += 1;
                self.defer(event);
            }
            OAction::WriteDone {
                req,
                key,
                ts,
                obsolete,
            } => {
                stats.writes_done += 1;
                self.write_done(req, key, ts, obsolete);
            }
            OAction::ReadDone {
                req,
                key,
                value,
                ts,
            } => {
                stats.reads_done += 1;
                self.read_done(req, key, value, ts);
            }
            OAction::PersistScopeDone { req, scope } => {
                stats.persist_scopes_done += 1;
                self.persist_scope_done(req, scope);
            }
            OAction::Meta { side, op } => {
                match side {
                    Side::Host => stats.host_meta.record(&op),
                    Side::Snic => stats.snic_meta.record(&op),
                }
                self.meta(side, &op);
            }
            OAction::CoherenceTransfer { key } => {
                stats.coherence_transfers += 1;
                self.coherence_transfer(key);
            }
        }
    }
}

impl<H: Immediate<ONodeEngine>> OSink for ZeroDelay<'_, H> {
    fn pcie(&mut self, from: Side, msg: PcieMsg) {
        let event = match from {
            Side::Host => OEvent::PcieFromHost(msg),
            Side::Snic => OEvent::PcieFromSnic(msg),
        };
        let node = self.0.node();
        self.0.deliver(node, event);
    }

    fn vfifo_enqueue(&mut self, key: Key, ts: Ts, _bytes: u64) {
        let node = self.0.node();
        self.0.deliver(node, OEvent::VfifoDrained { key, ts });
    }

    fn dfifo_enqueue(&mut self, key: Key, ts: Ts, _bytes: u64) {
        let node = self.0.node();
        self.0.deliver(node, OEvent::DfifoDrained { key, ts });
    }

    fn defer(&mut self, event: OEvent) {
        let node = self.0.node();
        self.0.deliver(node, event);
    }

    zero_delay_completions!();
}
