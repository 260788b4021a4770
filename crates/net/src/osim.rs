//! The simulated MINOS-O machine: SmartNIC-offloaded protocol execution.

use crate::des::{Env, Machine, NicPort, Sim};
use crate::driver::{CompletionKind, CompletionRec};
use crate::timing::{self, DISPATCH_NS};
use minos_core::obs::{GaugeKind, GaugeSet};
use minos_core::runtime::{self, OSink, Transport};
use minos_core::{OAction, OEvent, ONodeEngine, PcieMsg, ReqId, Side};
use minos_sim::{BoundedFifo, CorePool, Resource, Time};
use minos_types::wire::TraceCtx;
use minos_types::{Key, Message, MessageKind, NodeId, ScopeId, SimConfig, Ts, Value};

/// The MINOS-O discrete-event simulation.
///
/// Follower processing and the Coordinator's fan-out/collection run on
/// SmartNIC cores; only batched descriptors cross PCIe; local-writes go
/// through the bounded vFIFO/dFIFO; metadata accesses that migrate the
/// coherent line between host and SNIC pay the snoop latency.
///
/// With `Arch { batching: false, .. }` or `broadcast: false` this also
/// models the intermediate Figure 12 points (Combined, Combined+batch,
/// Combined+bcast).
///
/// The offloaded engine has no failure detector, so view changes
/// scheduled with [`Sim::schedule_crash`]/[`Sim::schedule_rejoin`] are
/// *quiesced*: they must fire between client batches, and the simulation
/// panics if an operation is still in flight.
pub type OSim = Sim<ONodeEngine>;

/// Per-node MINOS-O hardware.
#[derive(Debug, Clone)]
pub struct ONodeRes {
    host_cores: CorePool,
    snic_cores: CorePool,
    /// Host→SNIC PCIe bandwidth.
    pcie_down: Resource,
    /// SNIC→host PCIe bandwidth.
    pcie_up: Resource,
    vfifo: BoundedFifo,
    dfifo: BoundedFifo,
    /// SNIC network send engine and the send-queue depth trackers.
    port: NicPort,
}

impl Machine for ONodeEngine {
    type Hw = Vec<ONodeRes>;
    type Sink<'a> = OSimHandler<'a>;

    const OFFLOAD: bool = true;

    fn hw(cfg: &SimConfig) -> Vec<ONodeRes> {
        (0..cfg.nodes)
            .map(|_| ONodeRes {
                host_cores: CorePool::new(cfg.host_cores),
                snic_cores: CorePool::new(cfg.snic_cores),
                pcie_down: Resource::new(),
                pcie_up: Resource::new(),
                vfifo: BoundedFifo::new(cfg.vfifo_entries),
                dfifo: BoundedFifo::new(cfg.dfifo_entries),
                port: NicPort::default(),
            })
            .collect()
    }

    fn sample_hw(hw: &mut Vec<ONodeRes>, t: Time, gauges: &mut GaugeSet) {
        for (i, res) in hw.iter_mut().enumerate() {
            let node = i as u32;
            gauges.observe(
                GaugeKind::VfifoOccupancy,
                node,
                res.vfifo.occupancy(t) as u64,
            );
            gauges.observe(
                GaugeKind::DfifoOccupancy,
                node,
                res.dfifo.occupancy(t) as u64,
            );
            res.port.sample(node, t, gauges);
        }
    }

    fn sink<'a>(
        env: Env<'a, ONodeEngine>,
        hw: &'a mut Vec<ONodeRes>,
        node: NodeId,
        t: Time,
        event: Option<&OEvent>,
    ) -> OSimHandler<'a> {
        OSimHandler {
            env,
            node,
            side: event.map_or(Side::Host, side_of),
            t,
            end: t,
            vq_done: None,
            dq_done: None,
            ctx: None,
            res: &mut hw[node.0 as usize],
        }
    }
}

/// Which side executes a given event's handler.
fn side_of(ev: &OEvent) -> Side {
    match ev {
        OEvent::ClientWrite { .. }
        | OEvent::HostStart { .. }
        | OEvent::ClientRead { .. }
        | OEvent::ClientPersistScope { .. }
        | OEvent::PcieFromSnic(_) => Side::Host,
        OEvent::PcieFromHost(_)
        | OEvent::NetMessage { .. }
        | OEvent::VfifoDrained { .. }
        | OEvent::DfifoDrained { .. } => Side::Snic,
    }
}

/// The DES dispatch handler for one event at one node. The dispatcher
/// streams actions in emission order, so the FIFO-enqueue sink calls are
/// seen *before* the sends they semantically precede — the handler
/// records their completion times and gates later sends on them (§V-C).
pub struct OSimHandler<'a> {
    env: Env<'a, ONodeEngine>,
    node: NodeId,
    /// Which side's cores run this event's handler.
    side: Side,
    /// Event arrival time.
    t: Time,
    /// Core-release time, set by [`OSink::begin`].
    end: Time,
    /// vFIFO enqueue completion within this dispatch, if any.
    vq_done: Option<Time>,
    /// dFIFO enqueue completion within this dispatch, if any.
    dq_done: Option<Time>,
    /// The dispatching node's trace context, stamped onto every event
    /// this dispatch schedules.
    ctx: Option<TraceCtx>,
    res: &'a mut ONodeRes,
}

impl OSimHandler<'_> {
    /// How many followers a batched INV for `key` fans out to: the key's
    /// replica group minus the coordinator under a placement map, all
    /// peers otherwise.
    fn batch_fanout(&self, key: Key) -> u64 {
        match self.env.placement {
            Some(map) => (map.replicas_of_key(key).len().saturating_sub(1)).max(1) as u64,
            None => (self.env.n_nodes - 1).max(1) as u64,
        }
    }

    /// The earliest time a message emitted by this handler may be sent,
    /// given the FIFO writes that precede it semantically.
    fn send_gate(&self, msg: &Message) -> Time {
        match msg.kind() {
            // Consistency acks follow the vFIFO enqueue.
            MessageKind::AckC => self.vq_done.unwrap_or(self.end),
            // Combined/persistency acks follow the dFIFO enqueue (the
            // update must be durable).
            MessageKind::Ack | MessageKind::AckP | MessageKind::PersistAckP => {
                self.dq_done.or(self.vq_done).unwrap_or(self.end)
            }
            _ => self.end,
        }
    }

    fn deliver(&mut self, to: NodeId, depart: Time, msg: Message) {
        let arrival = depart + timing::link_time(self.env.cfg, &msg);
        self.env.queue.schedule(
            arrival,
            (
                to,
                OEvent::NetMessage {
                    from: self.node,
                    msg,
                },
                self.ctx,
            ),
        );
    }

    /// Records a client completion at this dispatch's core-release time.
    fn complete(
        &mut self,
        req: ReqId,
        kind: CompletionKind,
        key: Option<Key>,
        ts: Ts,
        obsolete: bool,
    ) {
        self.env.completions.push(CompletionRec {
            key,
            ts,
            obsolete,
            ..CompletionRec::new(req, self.node, self.end, kind)
        });
    }

    /// Occupies the SNIC send engine, feeding the TX-queue-depth
    /// telemetry tracker.
    fn nic_tx(&mut self, from: Time, cost: Time) -> Time {
        self.res.port.send(from, cost)
    }
}

impl Transport for OSimHandler<'_> {
    fn send(&mut self, to: NodeId, msg: Message) {
        let start = self.send_gate(&msg);
        let depart = self.nic_tx(start, timing::send_cost(self.env.cfg, &msg));
        self.deliver(to, depart, msg);
    }

    fn set_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.ctx = ctx;
    }

    /// SNIC-side fan-out: a single Send-Buffer deposit with the broadcast
    /// FSM, or serialized sends (plus the batch-unpack penalty when the
    /// descriptor was batched but cannot be broadcast — the Figure 12
    /// "Combined+batching is slower" effect).
    fn broadcast(&mut self, dests: &[NodeId], msg: Message) {
        let start = self.send_gate(&msg);
        let send = timing::send_cost(self.env.cfg, &msg);
        if self.env.arch.broadcast {
            let depart = self.nic_tx(start, send);
            for &d in dests {
                self.deliver(d, depart, msg.clone());
            }
        } else {
            let base = if self.env.arch.batching {
                start + self.env.cfg.batch_unpack_ns
            } else {
                start
            };
            for &d in dests {
                let depart = self.nic_tx(base, send + self.env.cfg.inter_msg_gap_ns);
                self.deliver(d, depart, msg.clone());
            }
        }
    }
}

impl OSink for OSimHandler<'_> {
    fn begin(&mut self, actions: &[OAction]) {
        // Handler compute cost: dispatch + meta hints + coherence snoops.
        let cost: Time = DISPATCH_NS
            + runtime::o_meta_ops(actions)
                .map(|(side, op)| timing::meta_cost(self.env.cfg, side, *op))
                .sum::<Time>()
            + runtime::coherence_transfer_count(actions) as Time * self.env.cfg.coherence_snoop_ns;
        self.end = match self.side {
            Side::Host => self.res.host_cores.acquire(self.t, cost),
            Side::Snic => self.res.snic_cores.acquire(self.t, cost),
        };
    }

    /// A PCIe descriptor between host and SNIC.
    ///
    /// Unlike the baseline's dumb NIC (doorbell per message, transfers
    /// one at a time), the SmartNIC's DMA engines stream descriptors
    /// back-to-back: per-descriptor occupancy is the bandwidth component
    /// and the bus latency pipelines across them. Without batching, the
    /// `BatchedInv` therefore costs one bandwidth slot per destination
    /// (the Combined-without-batching ablation point); with batching it
    /// is a single full transfer — whose *unpack* cost on the SNIC is
    /// what makes batching a loss until broadcast removes it (Figure 12).
    fn pcie(&mut self, from: Side, msg: PcieMsg) {
        let bytes = msg.wire_bytes();
        let transfers = match (&msg, self.env.arch.batching) {
            (PcieMsg::BatchedInv { key, .. }, false) => self.batch_fanout(*key),
            _ => 1,
        };
        if self.env.arch.batching {
            if let PcieMsg::BatchedInv { key, .. } = &msg {
                // One descriptor carried the whole fan-out: its fill is
                // the destination count.
                let fill = self.batch_fanout(*key);
                self.env
                    .gauges
                    .observe(GaugeKind::BatchFill, u32::from(self.node.0), fill);
            }
        }
        self.env.gauges.add(
            GaugeKind::PcieBytes,
            u32::from(self.node.0),
            bytes.max(64) * transfers,
        );
        let res = match from {
            Side::Host => &mut self.res.pcie_down,
            Side::Snic => &mut self.res.pcie_up,
        };
        let bw = (bytes.max(64) * 1_000_000_000 / self.env.cfg.pcie_bw_bytes_per_s).max(1);
        let mut bw_done = self.end;
        for _ in 0..transfers {
            bw_done = res.acquire(self.end, bw);
        }
        if from == Side::Host {
            // Host-side submissions feed the host send-queue gauge.
            self.res.port.pcie_depth.on_acquire(bw_done);
        }
        let arrival = bw_done + self.env.cfg.pcie_latency_ns;
        let ev = match from {
            Side::Host => OEvent::PcieFromHost(msg),
            Side::Snic => OEvent::PcieFromSnic(msg),
        };
        self.env.queue.schedule(arrival, (self.node, ev, self.ctx));
    }

    fn vfifo_enqueue(&mut self, key: Key, ts: Ts, bytes: u64) {
        let write = self.env.cfg.vfifo_write_ns(bytes);
        // Drain = DMA into the host LLC across PCIe.
        let drain = self.env.cfg.pcie_transfer_ns(bytes) + self.env.cfg.llc_update_ns(bytes);
        self.env
            .gauges
            .add(GaugeKind::PcieBytes, u32::from(self.node.0), bytes.max(64));
        let outcome = self.res.vfifo.enqueue(self.end, write, drain);
        self.vq_done = Some(outcome.enqueued_at);
        self.env.queue.schedule(
            outcome.drained_at,
            (self.node, OEvent::VfifoDrained { key, ts }, self.ctx),
        );
    }

    fn dfifo_enqueue(&mut self, key: Key, ts: Ts, bytes: u64) {
        let write = self.env.cfg.dfifo_write_ns(bytes);
        // The dFIFO write itself made the update durable. An entry hands
        // off to the DMA output register as soon as it reaches the head
        // (slot held for the write only); the background DMA append to
        // the host NVM log shows up in the drained-event time.
        let outcome = self.res.dfifo.enqueue(self.end, write, 0);
        self.dq_done = Some(outcome.enqueued_at);
        self.env
            .gauges
            .add(GaugeKind::PcieBytes, u32::from(self.node.0), bytes.max(64));
        let dma_done = outcome.drained_at + self.env.cfg.pcie_transfer_ns(bytes);
        self.env.queue.schedule(
            dma_done,
            (self.node, OEvent::DfifoDrained { key, ts }, self.ctx),
        );
    }

    fn defer(&mut self, event: OEvent) {
        self.env
            .queue
            .schedule(self.end, (self.node, event, self.ctx));
    }

    fn write_done(&mut self, req: ReqId, key: Key, ts: Ts, obsolete: bool) {
        self.complete(req, CompletionKind::Write, Some(key), ts, obsolete);
    }

    fn read_done(&mut self, req: ReqId, key: Key, _value: Value, ts: Ts) {
        self.complete(req, CompletionKind::Read, Some(key), ts, false);
    }

    fn persist_scope_done(&mut self, req: ReqId, _scope: ScopeId) {
        self.complete(req, CompletionKind::PersistScope, None, Ts::zero(), false);
    }
}
