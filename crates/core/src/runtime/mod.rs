//! The shared action-dispatch runtime.
//!
//! Every MINOS harness — the in-process loopback cluster, the threaded
//! crossbeam cluster, the TCP cluster, both discrete-event simulators and
//! both model-checker systems — used to carry its own `match act { ... }`
//! loop interpreting [`Action`]s/[`OAction`]s. Six copies of the protocol's
//! *operational* semantics drifted independently (the threaded cluster,
//! for instance, silently dropped [`Action::Meta`] hints).
//!
//! This module owns the single canonical interpretation:
//!
//! * [`Protocol`] is the one interface MINOS-B ([`crate::NodeEngine`])
//!   and MINOS-O ([`crate::ONodeEngine`]) both implement: event, action
//!   and counter types, client-event constructors, the trace-boundary
//!   mapping, and — through their [`Handler`] impls — the per-action
//!   match. Every generic harness is written once against it.
//! * [`Dispatcher<P>`](Dispatcher) feeds an event to an engine and walks
//!   the resulting actions exactly once, translating each into a call on
//!   a harness-provided handler and keeping the protocol's counters
//!   ([`DispatchStats`]/[`ODispatchStats`]) as it goes. Fan-out
//!   destination computation — replicas of a key — lives here, not in
//!   the harnesses.
//! * [`Transport`] is the messaging half of a handler: `send` one protocol
//!   message, `broadcast` one message to a destination set, and `flush`
//!   at the end of a dispatch (the batch boundary).
//! * [`ActionSink`]/[`OSink`] are the local half: persists, PCIe
//!   descriptors, FIFO enqueues, deferred events, client completions,
//!   redirects and timing hints. Harnesses without a cost model implement
//!   [`Immediate`] instead and dispatch with
//!   [`Protocol::dispatch_immediate`], which feeds every local effect
//!   straight back as an event.
//! * [`Batched`] is transport middleware implementing the paper's Fig. 12
//!   *batching* and *broadcast* NIC capabilities for the live runtimes:
//!   it coalesces the messages of one dispatch into per-destination
//!   frames and fans a follower broadcast out of a single enqueue,
//!   delegating framed delivery to a [`FrameTransport`].
//!
//! Actions are streamed to the handler **in emission order**; handlers
//! that gate sends on earlier actions of the same dispatch (the MINOS-O
//! simulator gates ACKs on its FIFO enqueues) can rely on that.
//!
//! Being the single choke point also makes the dispatcher the single
//! *instrumentation* point: a [`crate::obs::Tracer`] installed
//! via [`Dispatcher::set_tracer`] emits a
//! structured [`crate::obs::TraceEvent`] at every protocol-event
//! boundary, in every harness, from one piece of code. Without a tracer
//! (the default) the only cost is an `Option` discriminant check.
//!
//! Time still does not exist here: the dispatcher is as deterministic as
//! the engines, and the simulators implement [`Transport`] over their
//! virtual-time event queues.

mod batch;
mod chaos;
mod protocol;
mod router;

pub use batch::{BatchPolicy, Batched, FrameTransport, TransportCounters};
pub use chaos::{ChaosNet, ChaosState};
pub use protocol::{observe_lock_table, Completion, Counters, Handler, Immediate, Protocol};
pub use router::ShardRouter;

use crate::event::{Action, DelayClass, Event, MetaOp, ReqId};
use crate::obs::{TraceEvent, TraceMeta, Tracer};
use crate::offload::{OAction, OEvent, PcieMsg, Side};
use minos_types::wire::TraceCtx;
use minos_types::{Key, Message, NodeId, ScopeId, Ts, Value};

/// The messaging half of a dispatch handler: how protocol messages leave
/// the node.
pub trait Transport {
    /// Delivers `msg` to peer `to`.
    fn send(&mut self, to: NodeId, msg: Message);

    /// Delivers `msg` to every node in `dests` (a follower fan-out).
    ///
    /// The default expands to one [`Transport::send`] per destination;
    /// transports with native fan-out (the [`Batched`] middleware, the
    /// simulators' NIC models) override it.
    fn broadcast(&mut self, dests: &[NodeId], msg: Message) {
        for &d in dests {
            self.send(d, msg.clone());
        }
    }

    /// Marks the end of one dispatch — the batch boundary. Buffering
    /// transports emit their coalesced frames here.
    fn flush(&mut self) {}

    /// Installs the trace context every message of the current dispatch
    /// travels under (the dispatcher calls this once per dispatch,
    /// before any send). Transports that put traffic on a wire attach it
    /// to their frames; the default ignores it.
    fn set_ctx(&mut self, _ctx: Option<TraceCtx>) {}
}

/// The local half of a MINOS-B dispatch handler: everything an engine
/// asks of its node other than messaging.
pub trait ActionSink {
    /// Called once per dispatch with the full action batch, before any
    /// per-action call. Harnesses that charge a handler cost up front
    /// (the simulator's core acquisition) hook this; most ignore it.
    fn begin(&mut self, _actions: &[Action]) {}

    /// Persist `key = value` at `ts` to the durable medium; the harness
    /// must eventually feed [`Event::PersistDone`] back to the engine.
    fn persist(&mut self, key: Key, ts: Ts, value: Value, background: bool);

    /// Hand `event` to node `to` (a mis-routed client request).
    fn redirect(&mut self, to: NodeId, event: Event);

    /// Re-inject `event` into this node after the class's dispatch delay.
    fn defer(&mut self, event: Event, class: DelayClass);

    /// A client write completed.
    fn write_done(&mut self, req: ReqId, key: Key, ts: Ts, obsolete: bool);

    /// A client read completed.
    fn read_done(&mut self, req: ReqId, key: Key, value: Value, ts: Ts);

    /// A client `[PERSIST]sc` completed.
    fn persist_scope_done(&mut self, req: ReqId, scope: ScopeId);

    /// A timing hint. The dispatcher already counts these in
    /// [`DispatchStats::meta`]; only harnesses that *charge* for them
    /// (the simulator) need to hook this.
    fn meta(&mut self, _op: &MetaOp) {}
}

/// Counters over [`MetaOp`] timing hints, kept per node by the
/// dispatchers so every harness reports the same protocol-step counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetaStats {
    /// Obsoleteness checks performed.
    pub obsolete_checks: u64,
    /// RDLock snatches (§III-A optimization).
    pub snatch_rd_locks: u64,
    /// RDLock releases.
    pub rd_unlocks: u64,
    /// WRLock acquisitions.
    pub wr_lock_acquires: u64,
    /// WRLock releases.
    pub wr_lock_releases: u64,
    /// LLC update operations.
    pub llc_updates: u64,
    /// Total bytes written through LLC updates.
    pub llc_bytes: u64,
    /// Timestamp-counter updates.
    pub ts_updates: u64,
}

impl MetaStats {
    /// Counts one hint.
    pub fn record(&mut self, op: &MetaOp) {
        match op {
            MetaOp::ObsoleteCheck => self.obsolete_checks += 1,
            MetaOp::SnatchRdLock => self.snatch_rd_locks += 1,
            MetaOp::RdUnlock => self.rd_unlocks += 1,
            MetaOp::WrLockAcquire => self.wr_lock_acquires += 1,
            MetaOp::WrLockRelease => self.wr_lock_releases += 1,
            MetaOp::LlcUpdate { bytes } => {
                self.llc_updates += 1;
                self.llc_bytes += bytes;
            }
            MetaOp::TsUpdate => self.ts_updates += 1,
        }
    }

    /// Total hint count (LLC bytes excluded).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.obsolete_checks
            + self.snatch_rd_locks
            + self.rd_unlocks
            + self.wr_lock_acquires
            + self.wr_lock_releases
            + self.llc_updates
            + self.ts_updates
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &MetaStats) {
        self.obsolete_checks += other.obsolete_checks;
        self.snatch_rd_locks += other.snatch_rd_locks;
        self.rd_unlocks += other.rd_unlocks;
        self.wr_lock_acquires += other.wr_lock_acquires;
        self.wr_lock_releases += other.wr_lock_releases;
        self.llc_updates += other.llc_updates;
        self.llc_bytes += other.llc_bytes;
        self.ts_updates += other.ts_updates;
    }
}

/// Per-node protocol counters kept by a MINOS-B [`Dispatcher`]. Identical workloads
/// must produce identical stats in every harness — the cross-harness
/// parity tests assert exactly that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Unicast protocol messages emitted.
    pub sends: u64,
    /// Follower fan-outs emitted ([`Action::SendToFollowers`]).
    pub fanouts: u64,
    /// Total destinations across all fan-outs.
    pub fanout_dests: u64,
    /// Persist requests issued to the durable medium.
    pub persists: u64,
    /// Client requests redirected to another node.
    pub redirects: u64,
    /// Events re-injected after a dispatch delay.
    pub defers: u64,
    /// Client writes completed.
    pub writes_done: u64,
    /// Client reads completed.
    pub reads_done: u64,
    /// Client `[PERSIST]sc` transactions completed.
    pub persist_scopes_done: u64,
    /// Timing-hint counts.
    pub meta: MetaStats,
}

impl DispatchStats {
    /// Adds `other` into `self` (cluster-wide aggregation).
    pub fn merge(&mut self, other: &DispatchStats) {
        self.sends += other.sends;
        self.fanouts += other.fanouts;
        self.fanout_dests += other.fanout_dests;
        self.persists += other.persists;
        self.redirects += other.redirects;
        self.defers += other.defers;
        self.writes_done += other.writes_done;
        self.reads_done += other.reads_done;
        self.persist_scopes_done += other.persist_scopes_done;
        self.meta.merge(&other.meta);
    }
}

/// The canonical action interpreter, for either protocol.
///
/// One dispatcher serves one engine (it keeps that node's
/// [`Protocol::Stats`]); harnesses that re-create handlers per step keep
/// the dispatcher across steps so counters accumulate.
#[derive(Debug, Clone)]
pub struct Dispatcher<P: Protocol> {
    stats: P::Stats,
    scratch: Vec<P::Action>,
    tracer: Option<Tracer>,
}

impl<P: Protocol> Default for Dispatcher<P> {
    fn default() -> Self {
        Dispatcher {
            stats: P::Stats::default(),
            scratch: Vec::new(),
            tracer: None,
        }
    }
}

impl<P: Protocol> Dispatcher<P> {
    /// A fresh dispatcher with zeroed stats and no tracer.
    #[must_use]
    pub fn new() -> Self {
        Dispatcher::default()
    }

    /// This node's accumulated protocol counters.
    #[must_use]
    pub fn stats(&self) -> &P::Stats {
        &self.stats
    }

    /// Installs (or, with `None`, removes) the observability tracer.
    /// Every subsequent dispatch emits [`TraceEvent`]s through it.
    pub fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.tracer = tracer;
    }

    /// The installed tracer (harnesses flush its sinks at shutdown).
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_mut()
    }

    /// Emits the batch-flush boundary if the dispatch put traffic on the
    /// wire (`wire0` is [`Counters::wire_msgs`] before the dispatch).
    fn trace_flush(&mut self, wire0: u64) {
        if let Some(tr) = self.tracer.as_mut() {
            let sent = self.stats.wire_msgs() - wire0;
            if sent > 0 {
                tr.emit(TraceEvent::BatchFlushed {
                    sends: u32::try_from(sent).unwrap_or(u32::MAX),
                });
            }
        }
    }

    /// Feeds `event` to `engine` and interprets every resulting action
    /// through `handler`, in emission order, ending with a
    /// [`Transport::flush`]. Equivalent to [`Dispatcher::dispatch_ctx`]
    /// with no inbound trace context.
    pub fn dispatch<H: Handler<P>>(&mut self, engine: &mut P, event: P::Event, handler: &mut H) {
        self.dispatch_ctx(engine, event, None, handler);
    }

    /// [`Dispatcher::dispatch`] with the distributed-tracing context the
    /// event arrived under (`None` for untraced or locally originated
    /// events).
    ///
    /// With a tracer installed, the dispatch joins the inbound trace (or
    /// mints a fresh trace id at a client-op admission), mints its own
    /// span, stamps every emitted [`TraceEvent`] with the resulting
    /// [`TraceMeta`], and hands the handler an *outgoing*
    /// [`TraceCtx`] — `(trace_id, this span, local clock)` — via
    /// [`Transport::set_ctx`] so wire transports can attach it to this
    /// dispatch's frames. Without a tracer the inbound context is
    /// forwarded unchanged, so untraced relay nodes do not sever a trace.
    pub fn dispatch_ctx<H: Handler<P>>(
        &mut self,
        engine: &mut P,
        event: P::Event,
        ctx: Option<TraceCtx>,
        handler: &mut H,
    ) {
        let mut out_ctx = ctx.filter(|c| !c.is_empty());
        if let Some(tr) = self.tracer.as_mut() {
            let inbound = out_ctx.unwrap_or_default();
            let boundary = P::trace_of_event(&event);
            let admission = matches!(boundary, Some(TraceEvent::OpAdmitted { .. }));
            let trace_id = if inbound.trace_id != 0 {
                inbound.trace_id
            } else if admission {
                tr.mint_id()
            } else {
                0
            };
            let span = tr.mint_id();
            tr.set_meta(TraceMeta {
                trace_id,
                span,
                parent: inbound.span,
                remote_ns: inbound.origin_ns,
            });
            if let Some(ev) = boundary {
                tr.emit(ev);
            }
            // The remote clock belongs to the input boundary only; action
            // records carry just the dispatch identity.
            let meta = tr.meta();
            tr.set_meta(TraceMeta {
                remote_ns: 0,
                ..meta
            });
            out_ctx = Some(TraceCtx {
                trace_id,
                span,
                origin_ns: tr.origin_ns(),
            });
        }
        handler.set_ctx(out_ctx);
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        engine.on_event(event, &mut out);
        handler.start(&out);
        let wire0 = self.stats.wire_msgs();
        for act in out.drain(..) {
            self.apply(engine, act, handler);
        }
        handler.flush();
        self.trace_flush(wire0);
        if let Some(tr) = self.tracer.as_mut() {
            tr.set_meta(TraceMeta::default());
        }
        self.scratch = out;
    }

    /// Interprets an already-collected action batch — for harness paths
    /// that drive the engine outside `on_event` (failure-handling polls).
    pub fn run_actions<H: Handler<P>>(
        &mut self,
        engine: &P,
        actions: Vec<P::Action>,
        handler: &mut H,
    ) {
        handler.start(&actions);
        let wire0 = self.stats.wire_msgs();
        for act in actions {
            self.apply(engine, act, handler);
        }
        handler.flush();
        self.trace_flush(wire0);
    }

    fn apply<H: Handler<P>>(&mut self, engine: &P, act: P::Action, handler: &mut H) {
        if let Some(tr) = self.tracer.as_mut() {
            if let Some(ev) = engine.trace_of_action(&act) {
                tr.emit(ev);
            }
        }
        handler.apply(engine, &mut self.stats, act);
    }
}

/// The local half of a MINOS-O dispatch handler.
pub trait OSink {
    /// Called once per dispatch with the full action batch (see
    /// [`ActionSink::begin`]).
    fn begin(&mut self, _actions: &[OAction]) {}

    /// Deliver a PCIe descriptor from `from` to the node's other side
    /// after the PCIe delay.
    fn pcie(&mut self, from: Side, msg: PcieMsg);

    /// Enqueue `(key, ts)` into the volatile FIFO; the harness feeds back
    /// [`OEvent::VfifoDrained`].
    fn vfifo_enqueue(&mut self, key: Key, ts: Ts, bytes: u64);

    /// Enqueue `(key, ts)` into the durable FIFO; the harness feeds back
    /// [`OEvent::DfifoDrained`].
    fn dfifo_enqueue(&mut self, key: Key, ts: Ts, bytes: u64);

    /// Re-inject `event` after a local dispatch delay.
    fn defer(&mut self, event: OEvent);

    /// A client write completed.
    fn write_done(&mut self, req: ReqId, key: Key, ts: Ts, obsolete: bool);

    /// A client read completed.
    fn read_done(&mut self, req: ReqId, key: Key, value: Value, ts: Ts);

    /// A client `[PERSIST]sc` completed.
    fn persist_scope_done(&mut self, req: ReqId, scope: ScopeId);

    /// A side-tagged timing hint (already counted by the dispatcher).
    fn meta(&mut self, _side: Side, _op: &MetaOp) {}

    /// A coherent metadata line migrated between host and SmartNIC
    /// (already counted by the dispatcher).
    fn coherence_transfer(&mut self, _key: Key) {}
}

/// Per-node protocol counters kept by a MINOS-O [`Dispatcher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ODispatchStats {
    /// Unicast NIC-to-NIC messages emitted.
    pub sends: u64,
    /// Broadcast-module fan-outs emitted.
    pub fanouts: u64,
    /// Total destinations across all fan-outs.
    pub fanout_dests: u64,
    /// PCIe descriptors crossing between host and SmartNIC.
    pub pcie_msgs: u64,
    /// vFIFO enqueues.
    pub vfifo_enqueues: u64,
    /// dFIFO enqueues.
    pub dfifo_enqueues: u64,
    /// Events re-injected after a dispatch delay.
    pub defers: u64,
    /// Client writes completed.
    pub writes_done: u64,
    /// Client reads completed.
    pub reads_done: u64,
    /// Client `[PERSIST]sc` transactions completed.
    pub persist_scopes_done: u64,
    /// Coherence-line transfers between host and SmartNIC.
    pub coherence_transfers: u64,
    /// Timing hints performed by the host CPU.
    pub host_meta: MetaStats,
    /// Timing hints performed by the SmartNIC.
    pub snic_meta: MetaStats,
}

impl ODispatchStats {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &ODispatchStats) {
        self.sends += other.sends;
        self.fanouts += other.fanouts;
        self.fanout_dests += other.fanout_dests;
        self.pcie_msgs += other.pcie_msgs;
        self.vfifo_enqueues += other.vfifo_enqueues;
        self.dfifo_enqueues += other.dfifo_enqueues;
        self.defers += other.defers;
        self.writes_done += other.writes_done;
        self.reads_done += other.reads_done;
        self.persist_scopes_done += other.persist_scopes_done;
        self.coherence_transfers += other.coherence_transfers;
        self.host_meta.merge(&other.host_meta);
        self.snic_meta.merge(&other.snic_meta);
    }
}

// ---------------------------------------------------------------------
// Batch digests for `begin` hooks.
//
// Cost-modelling handlers (the discrete-event simulators) charge compute
// for a whole dispatch up front, before the per-action calls stream in.
// These digests give `begin` implementations the aggregate facts they
// need without re-interpreting `Action`/`OAction` variants — keeping the
// match over action shapes confined to this module.

/// The [`MetaOp`] timing hints in a MINOS-B action batch, in order.
pub fn meta_ops(actions: &[Action]) -> impl Iterator<Item = &MetaOp> {
    actions.iter().filter_map(|a| match a {
        Action::Meta(op) => Some(op),
        _ => None,
    })
}

/// Payload sizes of the critical-path (foreground) persists in a
/// MINOS-B action batch, in bytes.
pub fn foreground_persist_bytes(actions: &[Action]) -> impl Iterator<Item = u64> + '_ {
    actions.iter().filter_map(|a| match a {
        Action::Persist {
            value,
            background: false,
            ..
        } => Some(value.len() as u64),
        _ => None,
    })
}

/// The `(side, op)` timing hints in a MINOS-O action batch, in order.
pub fn o_meta_ops(actions: &[OAction]) -> impl Iterator<Item = (Side, &MetaOp)> {
    actions.iter().filter_map(|a| match a {
        OAction::Meta { side, op } => Some((*side, op)),
        _ => None,
    })
}

/// Number of host/SNIC coherence snoops in a MINOS-O action batch.
#[must_use]
pub fn coherence_transfer_count(actions: &[OAction]) -> usize {
    actions
        .iter()
        .filter(|a| matches!(a, OAction::CoherenceTransfer { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeEngine, ONodeEngine};
    use minos_types::{DdpModel, PersistencyModel};

    /// A handler that records everything it is asked to do.
    #[derive(Default)]
    struct Recorder {
        sent: Vec<(NodeId, Message)>,
        broadcasts: Vec<(Vec<NodeId>, Message)>,
        persists: Vec<(Key, Ts)>,
        deferred: Vec<Event>,
        completions: Vec<ReqId>,
        flushes: usize,
        begun: usize,
    }

    impl Transport for Recorder {
        fn send(&mut self, to: NodeId, msg: Message) {
            self.sent.push((to, msg));
        }
        fn broadcast(&mut self, dests: &[NodeId], msg: Message) {
            self.broadcasts.push((dests.to_vec(), msg));
        }
        fn flush(&mut self) {
            self.flushes += 1;
        }
    }

    impl ActionSink for Recorder {
        fn begin(&mut self, _actions: &[Action]) {
            self.begun += 1;
        }
        fn persist(&mut self, key: Key, ts: Ts, _value: Value, _background: bool) {
            self.persists.push((key, ts));
        }
        fn redirect(&mut self, _to: NodeId, _event: Event) {}
        fn defer(&mut self, event: Event, _class: DelayClass) {
            self.deferred.push(event);
        }
        fn write_done(&mut self, req: ReqId, _key: Key, _ts: Ts, _obsolete: bool) {
            self.completions.push(req);
        }
        fn read_done(&mut self, req: ReqId, _key: Key, _value: Value, _ts: Ts) {
            self.completions.push(req);
        }
        fn persist_scope_done(&mut self, req: ReqId, _scope: ScopeId) {
            self.completions.push(req);
        }
    }

    #[test]
    fn write_fanout_goes_through_broadcast() {
        let model = DdpModel::lin(PersistencyModel::Eventual);
        let mut engine = NodeEngine::new(NodeId(0), 3, model);
        let mut disp = Dispatcher::<NodeEngine>::new();
        let mut h = Recorder::default();

        disp.dispatch(
            &mut engine,
            Event::ClientWrite {
                key: Key(1),
                value: "v".into(),
                scope: None,
                req: ReqId(1),
            },
            &mut h,
        );
        // The write body is deferred; deliver it to trigger the fan-out.
        let start = h.deferred.pop().expect("deferred StartWrite");
        disp.dispatch(&mut engine, start, &mut h);

        let (dests, msg) = h.broadcasts.pop().expect("INV fan-out");
        assert!(matches!(msg, Message::Inv { .. }));
        assert!(!dests.contains(&NodeId(0)), "no self-fanout");
        assert!(!dests.is_empty());
        assert_eq!(disp.stats().fanouts, 1);
        assert_eq!(disp.stats().fanout_dests, dests.len() as u64);
        assert_eq!(h.flushes, 2, "one flush per dispatch");
        assert_eq!(h.begun, 2, "one begin per dispatch");
        assert!(disp.stats().defers >= 1);
    }

    #[test]
    fn read_completes_locally_and_counts() {
        let model = DdpModel::lin(PersistencyModel::Synchronous);
        let mut engine = NodeEngine::new(NodeId(0), 1, model);
        let mut disp = Dispatcher::<NodeEngine>::new();
        let mut h = Recorder::default();
        disp.dispatch(
            &mut engine,
            Event::ClientRead {
                key: Key(5),
                req: ReqId(7),
            },
            &mut h,
        );
        assert_eq!(h.completions, vec![ReqId(7)]);
        assert_eq!(disp.stats().reads_done, 1);
    }

    #[derive(Default)]
    struct ORecorder {
        broadcasts: Vec<(Vec<NodeId>, Message)>,
        pcie: Vec<(Side, PcieMsg)>,
        deferred: Vec<OEvent>,
    }

    impl Transport for ORecorder {
        fn send(&mut self, _to: NodeId, _msg: Message) {}
        fn broadcast(&mut self, dests: &[NodeId], msg: Message) {
            self.broadcasts.push((dests.to_vec(), msg));
        }
    }

    impl OSink for ORecorder {
        fn pcie(&mut self, from: Side, msg: PcieMsg) {
            self.pcie.push((from, msg));
        }
        fn vfifo_enqueue(&mut self, _key: Key, _ts: Ts, _bytes: u64) {}
        fn dfifo_enqueue(&mut self, _key: Key, _ts: Ts, _bytes: u64) {}
        fn defer(&mut self, event: OEvent) {
            self.deferred.push(event);
        }
        fn write_done(&mut self, _req: ReqId, _key: Key, _ts: Ts, _obsolete: bool) {}
        fn read_done(&mut self, _req: ReqId, _key: Key, _value: Value, _ts: Ts) {}
        fn persist_scope_done(&mut self, _req: ReqId, _scope: ScopeId) {}
    }

    #[test]
    fn offload_fanout_targets_all_peers() {
        let model = DdpModel::lin(PersistencyModel::Eventual);
        let mut engine = ONodeEngine::new(NodeId(1), 4, model);
        let mut disp = Dispatcher::<ONodeEngine>::new();
        let mut h = ORecorder::default();

        disp.dispatch(
            &mut engine,
            OEvent::ClientWrite {
                key: Key(1),
                value: "v".into(),
                scope: None,
                req: ReqId(1),
            },
            &mut h,
        );
        // Drive deferred host work and the PCIe descriptor until the SNIC
        // broadcasts the INV.
        for _ in 0..8 {
            if let Some(ev) = h.deferred.pop() {
                disp.dispatch(&mut engine, ev, &mut h);
            }
            if let Some((from, msg)) = h.pcie.pop() {
                let ev = match from {
                    Side::Host => OEvent::PcieFromHost(msg),
                    Side::Snic => OEvent::PcieFromSnic(msg),
                };
                disp.dispatch(&mut engine, ev, &mut h);
            }
            if !h.broadcasts.is_empty() {
                break;
            }
        }
        let (dests, msg) = h.broadcasts.pop().expect("SNIC INV fan-out");
        assert!(matches!(msg, Message::Inv { .. }));
        assert_eq!(
            dests,
            vec![NodeId(0), NodeId(2), NodeId(3)],
            "all peers except self"
        );
        assert_eq!(disp.stats().fanouts, 1);
        assert_eq!(disp.stats().fanout_dests, 3);
        assert!(disp.stats().pcie_msgs >= 1);
    }

    /// A zero-delay handler that records what the dispatcher hands the
    /// transport: each dispatch's outgoing context, and a count of the
    /// messages put on the wire. Local effects queue up to be fed back.
    struct CtxProbe<P: Protocol> {
        ctxs: Vec<Option<TraceCtx>>,
        sent: usize,
        local: Vec<P::Event>,
    }

    impl<P: Protocol> Transport for CtxProbe<P> {
        fn send(&mut self, _to: NodeId, _msg: Message) {
            self.sent += 1;
        }
        fn set_ctx(&mut self, ctx: Option<TraceCtx>) {
            self.ctxs.push(ctx);
        }
    }

    impl<P: Protocol> Immediate<P> for CtxProbe<P> {
        fn node(&self) -> NodeId {
            NodeId(0)
        }
        fn deliver(&mut self, _to: NodeId, event: P::Event) {
            self.local.push(event);
        }
        fn done(&mut self, _done: Completion) {}
    }

    /// The dispatcher's trace-context contract, one body for both
    /// protocols.
    fn trace_ctx_contract<P: Protocol>() {
        use crate::obs::{shared, RingRecorder, TraceClock};

        let model = DdpModel::lin(PersistencyModel::Synchronous);
        let ring = shared(RingRecorder::new(4096));
        let records = || ring.lock().expect("ring").to_vec();
        let mut engine = P::new(NodeId(0), 3, model);
        let mut disp = Dispatcher::<P>::new();
        disp.set_tracer(Some(Tracer::new(
            NodeId(0),
            TraceClock::sequence(),
            vec![ring.clone()],
        )));
        let mut probe = CtxProbe::<P> {
            ctxs: Vec::new(),
            sent: 0,
            local: Vec::new(),
        };
        let last_ctx = |p: &CtxProbe<P>| p.ctxs.last().copied().flatten().expect("ctx");

        // A client admission with no inbound context mints a trace id,
        // and the outgoing context carries it with this dispatch's span.
        let read = P::client_read(Key(1), ReqId(1));
        P::dispatch_immediate(&mut disp, &mut engine, read, None, &mut probe);
        let recs = records();
        assert!(matches!(recs[0].event, TraceEvent::OpAdmitted { .. }));
        assert_ne!(recs[0].meta.trace_id, 0, "admission mints a trace id");
        assert_eq!(recs[0].meta.parent, 0);
        let out = last_ctx(&probe);
        assert_eq!(
            (out.trace_id, out.span),
            (recs[0].meta.trace_id, recs[0].meta.span)
        );

        // An inbound context is adopted: same trace, its span as parent,
        // its clock on the input boundary only.
        let inbound = TraceCtx {
            trace_id: 0xfeed,
            span: 0x51,
            origin_ns: 7,
        };
        let after_read = recs.len();
        let write = P::client_write(Key(2), "v".into(), None, ReqId(2));
        P::dispatch_immediate(&mut disp, &mut engine, write, Some(inbound), &mut probe);
        let recs = records();
        let admitted = &recs[after_read];
        assert_eq!(admitted.meta.trace_id, 0xfeed);
        assert_eq!(admitted.meta.parent, 0x51);
        assert_eq!(admitted.meta.remote_ns, 7);
        assert!(recs[after_read + 1..].iter().all(|r| r.meta.remote_ns == 0));
        let out = last_ctx(&probe);
        assert_eq!(out.trace_id, 0xfeed);
        assert_eq!(out.span, admitted.meta.span);
        assert_ne!(out.span, 0x51, "the dispatch mints its own span");

        // Feed the write's local effects back until it reaches the wire:
        // a dispatch ends with BatchFlushed exactly when it sent.
        let mut wire_dispatches = 0;
        while let Some(ev) = probe.local.pop() {
            let (seen, sent) = (records().len(), probe.sent);
            P::dispatch_immediate(&mut disp, &mut engine, ev, None, &mut probe);
            let flushed = records()[seen..]
                .iter()
                .any(|r| matches!(r.event, TraceEvent::BatchFlushed { .. }));
            assert_eq!(
                flushed,
                probe.sent > sent,
                "BatchFlushed iff the dispatch sent"
            );
            wire_dispatches += usize::from(flushed);
        }
        assert!(wire_dispatches > 0, "the write reached the wire");
        let flushed_reads = records()[..after_read]
            .iter()
            .any(|r| matches!(r.event, TraceEvent::BatchFlushed { .. }));
        assert!(!flushed_reads, "a local read sends nothing");

        // Without a tracer the inbound context reaches the transport
        // unchanged, so an untraced relay does not sever the trace.
        let mut plain = Dispatcher::<P>::new();
        let read = P::client_read(Key(1), ReqId(3));
        P::dispatch_immediate(&mut plain, &mut engine, read, Some(inbound), &mut probe);
        assert_eq!(probe.ctxs.last(), Some(&Some(inbound)));
    }

    #[test]
    fn trace_ctx_contract_baseline() {
        trace_ctx_contract::<NodeEngine>();
    }

    #[test]
    fn trace_ctx_contract_offload() {
        trace_ctx_contract::<ONodeEngine>();
    }

    #[test]
    fn meta_stats_count_per_kind() {
        let mut m = MetaStats::default();
        m.record(&MetaOp::ObsoleteCheck);
        m.record(&MetaOp::LlcUpdate { bytes: 128 });
        m.record(&MetaOp::LlcUpdate { bytes: 64 });
        m.record(&MetaOp::TsUpdate);
        assert_eq!(m.obsolete_checks, 1);
        assert_eq!(m.llc_updates, 2);
        assert_eq!(m.llc_bytes, 192);
        assert_eq!(m.total(), 4);

        let mut sum = MetaStats::default();
        sum.merge(&m);
        sum.merge(&m);
        assert_eq!(sum.llc_bytes, 384);
        assert_eq!(sum.total(), 8);
    }
}
