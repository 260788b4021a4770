//! The simulated MINOS-B machine: protocol on host CPUs, plain NICs.

use crate::des::{Env, Machine, NicPort, Sim};
use crate::driver::{CompletionKind, CompletionRec};
use crate::timing::{self, DISPATCH_NS};
use minos_core::obs::{GaugeKind, GaugeSet};
use minos_core::runtime::{self, ActionSink, Transport};
use minos_core::{Action, DelayClass, Event, NodeEngine, ReqId, Side};
use minos_sim::{CorePool, Resource, Time};
use minos_types::wire::TraceCtx;
use minos_types::{Key, Message, MessageKind, NodeId, ScopeId, SimConfig, Ts, Value};
use std::collections::HashMap;

/// The MINOS-B discrete-event simulation.
///
/// Every protocol step runs on host cores; every message pays PCIe both
/// ways plus the NIC send cost and the network link. The [`Arch`](crate::Arch)
/// flags graft batching/broadcast NIC capabilities onto the baseline for
/// the Figure 12 ablation.
pub type BSim = Sim<NodeEngine>;

/// Per-node sender-side hardware resources. The receive-side PCIe
/// resources live in a separate array so a dispatch handler can borrow
/// its own node's sender resources and every peer's receiver at once.
#[derive(Debug, Clone)]
pub(crate) struct NodeRes {
    cores: CorePool,
    /// Host→NIC PCIe bandwidth (one direction).
    pcie_tx: Resource,
    port: NicPort,
}

/// Per-write instrumentation for the Figure 4 communication/computation
/// breakdown (§IV).
#[derive(Debug, Clone, Copy, Default)]
struct TxTrace {
    first_inv_deposit: Time,
    last_ack_arrival: Time,
    foll_handle_total: Time,
    foll_handles: u32,
}

/// The MINOS-B machine's hardware and per-run instrumentation.
#[derive(Debug)]
pub struct BHw {
    nodes: Vec<NodeRes>,
    /// NIC→host PCIe bandwidth, indexed by receiving node.
    pcie_rx: Vec<Resource>,
    traces: HashMap<(Key, Ts), TxTrace>,
}

impl Machine for NodeEngine {
    type Hw = BHw;
    type Sink<'a> = BSimHandler<'a>;

    const OFFLOAD: bool = false;

    fn hw(cfg: &SimConfig) -> BHw {
        BHw {
            nodes: (0..cfg.nodes)
                .map(|_| NodeRes {
                    cores: CorePool::new(cfg.host_cores),
                    pcie_tx: Resource::new(),
                    port: NicPort::default(),
                })
                .collect(),
            pcie_rx: vec![Resource::new(); cfg.nodes],
            traces: HashMap::new(),
        }
    }

    fn sample_hw(hw: &mut BHw, t: Time, gauges: &mut GaugeSet) {
        for (i, res) in hw.nodes.iter_mut().enumerate() {
            res.port.sample(i as u32, t, gauges);
        }
    }

    fn sink<'a>(
        env: Env<'a, NodeEngine>,
        hw: &'a mut BHw,
        node: NodeId,
        t: Time,
        event: Option<&Event>,
    ) -> BSimHandler<'a> {
        let mut inv_key = None;
        if let Some(Event::Message { msg, .. }) = event {
            // Instrumentation: acknowledgment arrivals close the comm
            // window.
            if msg.is_ack() {
                if let (Some(key), Some(ts)) = (msg.key(), msg.ts()) {
                    if let Some(tr) = hw.traces.get_mut(&(key, ts)) {
                        tr.last_ack_arrival = tr.last_ack_arrival.max(t);
                    }
                }
            }
            if let Message::Inv { key, ts, .. } = msg {
                inv_key = Some((*key, *ts));
            }
        }
        BSimHandler {
            env,
            node,
            t,
            end: t,
            inv_key,
            ctx: None,
            res: &mut hw.nodes[node.0 as usize],
            peer_rx: &mut hw.pcie_rx,
            traces: &mut hw.traces,
        }
    }
}

impl BSim {
    /// Disables RDLock snatching on every node (the §III-A design-choice
    /// ablation).
    pub fn disable_snatching(&mut self) {
        for e in self.engines_mut() {
            e.set_snatch_enabled(false);
        }
    }
}

/// The DES dispatch handler for one event at one node: models the host
/// send queue → PCIe → NIC → wire → NIC → PCIe receive path and charges
/// compute to the node's core pool. Created fresh per [`Sim::step`].
pub struct BSimHandler<'a> {
    env: Env<'a, NodeEngine>,
    node: NodeId,
    /// Event arrival time.
    t: Time,
    /// Core-release time — when the emitted actions take effect. Set by
    /// [`ActionSink::begin`] once the compute charge is known.
    end: Time,
    inv_key: Option<(Key, Ts)>,
    /// The dispatching node's trace context, stamped onto every event
    /// this dispatch schedules.
    ctx: Option<TraceCtx>,
    res: &'a mut NodeRes,
    peer_rx: &'a mut [Resource],
    traces: &'a mut HashMap<(Key, Ts), TxTrace>,
}

impl BSimHandler<'_> {
    /// PCIe cost of one message: §IV — messages are "taken one at a time
    /// from the send queue, transferred along the slow PCIe bus", so the
    /// full latency+bandwidth time occupies the bus (no pipelining).
    fn pcie_msg_ns(&self, bytes: u64) -> Time {
        self.env.cfg.pcie_transfer_ns(bytes.max(64))
    }

    /// Occupies the host→NIC PCIe bus for `bytes` starting at `from`,
    /// feeding the send-queue-depth tracker and the PCIe-byte counter.
    fn pcie_tx(&mut self, from: Time, bytes: u64) -> Time {
        let done = self.res.pcie_tx.acquire(from, self.pcie_msg_ns(bytes));
        self.res.port.pcie_depth.on_acquire(done);
        self.env
            .gauges
            .add(GaugeKind::PcieBytes, u32::from(self.node.0), bytes.max(64));
        done
    }

    /// Occupies the NIC send engine, feeding the TX-queue-depth tracker.
    fn nic_tx(&mut self, from: Time, cost: Time) -> Time {
        self.res.port.send(from, cost)
    }

    /// Wire + receiver-side path shared by unicast and fan-out.
    fn deliver(&mut self, to: NodeId, depart: Time, msg: Message) {
        let bytes = msg.wire_bytes();
        let arrival_nic = depart + timing::link_time(self.env.cfg, &msg);
        let cost = self.pcie_msg_ns(bytes);
        let arrival_host = self.peer_rx[to.0 as usize].acquire(arrival_nic, cost);
        self.env
            .gauges
            .add(GaugeKind::PcieBytes, u32::from(to.0), bytes.max(64));
        self.env.queue.schedule(
            arrival_host,
            (
                to,
                Event::Message {
                    from: self.node,
                    msg,
                },
                self.ctx,
            ),
        );
    }
}

impl Transport for BSimHandler<'_> {
    /// Delivers `msg` to `to`: host send queue → PCIe → NIC → wire →
    /// NIC → PCIe → host receive queue.
    fn send(&mut self, to: NodeId, msg: Message) {
        let bytes = msg.wire_bytes();
        let pcie_done = self.pcie_tx(self.end, bytes);
        let depart = self.nic_tx(pcie_done, timing::send_cost(self.env.cfg, &msg));
        self.deliver(to, depart, msg);
    }

    fn set_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.ctx = ctx;
    }

    /// The Coordinator's INV/VAL fan-out, shaped by the batching and
    /// broadcast capabilities (§IV: "the multiple INV messages in a
    /// transaction are sent one at a time" on the baseline).
    fn broadcast(&mut self, dests: &[NodeId], msg: Message) {
        let deposit = self.end;
        // Open the Figure 4 communication window at the send-queue
        // deposit of the first INV.
        if msg.kind() == MessageKind::Inv {
            if let (Some(key), Some(ts)) = (msg.key(), msg.ts()) {
                let tr = self.traces.entry((key, ts)).or_default();
                if tr.first_inv_deposit == 0 {
                    tr.first_inv_deposit = deposit;
                }
            }
        }

        let bytes = msg.wire_bytes();
        let send = timing::send_cost(self.env.cfg, &msg);
        let gap = self.env.cfg.inter_msg_gap_ns;

        if self.env.arch.batching {
            // One descriptor (payload + an 8-byte entry per destination).
            let desc = bytes + 8 * dests.len() as u64;
            let pcie_done = self.pcie_tx(deposit, desc);
            self.env.gauges.observe(
                GaugeKind::BatchFill,
                u32::from(self.node.0),
                dests.len() as u64,
            );
            if self.env.arch.broadcast {
                // Deposit once; the broadcast FSM replicates on the wire.
                let depart = self.nic_tx(pcie_done, send);
                for &d in dests {
                    self.deliver(d, depart, msg.clone());
                }
            } else {
                // The NIC must unpack the batch, then send serially.
                let base = pcie_done + self.env.cfg.batch_unpack_ns;
                for &d in dests {
                    let depart = self.nic_tx(base, send + gap);
                    self.deliver(d, depart, msg.clone());
                }
            }
        } else {
            // One PCIe transfer per destination, serialized.
            let mut first = true;
            for &d in dests {
                let pcie_done = self.pcie_tx(deposit, bytes);
                let cost = if self.env.arch.broadcast {
                    // The FSM only pays the prepare cost once.
                    if first {
                        send
                    } else {
                        0
                    }
                } else {
                    send + gap
                };
                first = false;
                let depart = self.nic_tx(pcie_done, cost);
                self.deliver(d, depart, msg.clone());
            }
        }
    }
}

impl ActionSink for BSimHandler<'_> {
    fn begin(&mut self, actions: &[Action]) {
        // Charge compute: dispatch + every meta hint, on a host core.
        let cost: Time = DISPATCH_NS
            + runtime::meta_ops(actions)
                .map(|op| timing::meta_cost(self.env.cfg, Side::Host, *op))
                .sum::<Time>();
        self.end = self.res.cores.acquire(self.t, cost);

        if let Some(k) = self.inv_key {
            // The paper's comm measure subtracts the average time a
            // Follower takes to handle an INV (Lines 26-40), which
            // includes the critical-path NVM persist of Line 39.
            let persist: Time = runtime::foreground_persist_bytes(actions)
                .map(|bytes| self.env.cfg.persist_ns(bytes))
                .sum();
            let tr = self.traces.entry(k).or_default();
            tr.foll_handle_total += cost + persist;
            tr.foll_handles += 1;
        }
    }

    fn persist(&mut self, key: Key, ts: Ts, value: Value, _background: bool) {
        // The CloudLab machine emulates NVM by spinning the issuing core
        // for the persist latency (Table II), so the persist occupies a
        // host core rather than a device port.
        let d = self.env.cfg.persist_ns(value.len() as u64);
        let done = self.res.cores.acquire(self.end, d);
        self.env
            .queue
            .schedule(done, (self.node, Event::PersistDone { key, ts }, self.ctx));
    }

    fn redirect(&mut self, to: NodeId, event: Event) {
        // Client re-submission at a replica: one wire hop.
        let arrival = self.end
            + timing::link_time(
                self.env.cfg,
                &Message::ReadReq {
                    key: Key(0),
                    token: 0,
                },
            );
        self.env.queue.schedule(arrival, (to, event, self.ctx));
    }

    fn defer(&mut self, event: Event, _class: DelayClass) {
        self.env
            .queue
            .schedule(self.end, (self.node, event, self.ctx));
    }

    fn write_done(&mut self, req: ReqId, key: Key, ts: Ts, obsolete: bool) {
        let comm_ns = self.traces.remove(&(key, ts)).map(|tr| {
            let avg_handle = if tr.foll_handles > 0 {
                tr.foll_handle_total / Time::from(tr.foll_handles)
            } else {
                0
            };
            tr.last_ack_arrival
                .saturating_sub(tr.first_inv_deposit)
                .saturating_sub(avg_handle)
        });
        self.env.completions.push(CompletionRec {
            key: Some(key),
            ts,
            obsolete,
            comm_ns,
            ..CompletionRec::new(req, self.node, self.end, CompletionKind::Write)
        });
    }

    fn read_done(&mut self, req: ReqId, key: Key, _value: Value, ts: Ts) {
        self.env.completions.push(CompletionRec {
            key: Some(key),
            ts,
            ..CompletionRec::new(req, self.node, self.end, CompletionKind::Read)
        });
    }

    fn persist_scope_done(&mut self, req: ReqId, _scope: ScopeId) {
        let rec = CompletionRec::new(req, self.node, self.end, CompletionKind::PersistScope);
        self.env.completions.push(rec);
    }
}
