//! The MINOS-Offload (MINOS-O) node engine: §V's redesigned algorithms
//! running across a host and its SmartNIC (Figures 7 and 8).
//!
//! One [`ONodeEngine`] embodies one node = host + SmartNIC. The two sides
//! communicate through [`PcieMsg`]s (the harness delays them by the PCIe
//! latency) and share the four coherent metadata structures
//! (`RDLock_Owner`, `volatileTS`, `glb_volatileTS`, `glb_durableTS`)
//! through the engine's store; the [`Side`]-tagged meta hints plus
//! [`OAction::CoherenceTransfer`] let the simulator charge the MSI snoop
//! costs of the Selective Coherence Module.
//!
//! The four MINOS-O optimizations and where they live:
//!
//! 1. **Offloading** — the follower algorithm and the coordinator's
//!    fan-out/collection run in SmartNIC handlers ([`OEvent::NetMessage`],
//!    [`OEvent::PcieFromHost`]); the host only issues/completes requests.
//! 2. **Host↔NIC coherence** — shared metadata + transfer hints.
//! 3. **Batching & broadcasting** — one [`PcieMsg::BatchedInv`] descriptor
//!    crosses PCIe per write, and one [`OAction::SendToFollowers`] per
//!    fan-out (the harness's broadcast module expands it).
//! 4. **WRLock elimination** — local-writes are enqueued to the vFIFO and
//!    dFIFO ([`OAction::VfifoEnqueue`]/[`OAction::DfifoEnqueue`]); the
//!    obsoleteness check moves to drain time ([`OEvent::VfifoDrained`]).

mod flow;

use crate::event::{MetaOp, ReqId};
use crate::scope::ScopeTable;
use crate::stats::EngineStats;
use crate::store::Store;
use minos_types::{DdpModel, Key, Message, NodeId, RecordMeta, ScopeId, ShardMap, Ts, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Which side of the node performed an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The host CPU.
    Host,
    /// The SmartNIC.
    Snic,
}

/// Messages crossing the PCIe bus between host and SmartNIC.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PcieMsg {
    /// Host → SNIC: one batched INV descriptor ("the host sends a single
    /// INV message with information about which nodes should receive it").
    BatchedInv {
        /// Record being written.
        key: Key,
        /// The write's `TS_WR`.
        ts: Ts,
        /// Payload.
        value: Value,
        /// Scope tag.
        scope: Option<ScopeId>,
    },
    /// SNIC → host: one batched ACK once the follower acknowledgments the
    /// client return waits on have all arrived.
    BatchedAck {
        /// Record being written.
        key: Key,
        /// The write's `TS_WR`.
        ts: Ts,
    },
    /// Host → SNIC: run the `[PERSIST]sc` transaction.
    PersistScopeReq {
        /// Scope to flush.
        scope: ScopeId,
        /// Client request id.
        req: ReqId,
    },
    /// SNIC → host: `[PERSIST]sc` completed.
    PersistScopeDone {
        /// The flushed scope.
        scope: ScopeId,
        /// Client request id.
        req: ReqId,
    },
}

impl PcieMsg {
    /// Approximate descriptor size crossing PCIe, for the timing model.
    #[must_use]
    pub fn wire_bytes(&self) -> u64 {
        const DESC: u64 = 64;
        match self {
            PcieMsg::BatchedInv { value, .. } => DESC + value.len() as u64,
            _ => DESC,
        }
    }
}

/// Inputs to the MINOS-O engine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OEvent {
    /// Host: client write submitted.
    ClientWrite {
        /// Record to write.
        key: Key,
        /// New value.
        value: Value,
        /// Scope tag.
        scope: Option<ScopeId>,
        /// Request id.
        req: ReqId,
    },
    /// Host: deferred write body (Figure 8 Lines 5–12).
    HostStart {
        /// Record being written.
        key: Key,
        /// Timestamp issued at [`OEvent::ClientWrite`].
        ts: Ts,
    },
    /// Host: client read submitted.
    ClientRead {
        /// Record to read.
        key: Key,
        /// Request id.
        req: ReqId,
    },
    /// Host: client `[PERSIST]sc`.
    ClientPersistScope {
        /// Scope to flush.
        scope: ScopeId,
        /// Request id.
        req: ReqId,
    },
    /// SNIC: a PCIe descriptor from the local host arrived.
    PcieFromHost(PcieMsg),
    /// Host: a PCIe descriptor from the local SmartNIC arrived.
    PcieFromSnic(PcieMsg),
    /// SNIC: a network message arrived from a peer SmartNIC.
    NetMessage {
        /// Sending node.
        from: NodeId,
        /// The message.
        msg: Message,
    },
    /// The vFIFO hardware drained the entry for `(key, ts)`: obsoleteness
    /// is checked and, if current, the update is DMAed into the host LLC.
    VfifoDrained {
        /// Record.
        key: Key,
        /// Entry timestamp.
        ts: Ts,
    },
    /// The dFIFO hardware drained the entry (pushed to the host NVM log in
    /// the background; the entry was already durable on enqueue).
    DfifoDrained {
        /// Record.
        key: Key,
        /// Entry timestamp.
        ts: Ts,
    },
}

/// Outputs of the MINOS-O engine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OAction {
    /// Deliver a PCIe descriptor to the other side after the PCIe delay.
    Pcie {
        /// Which side *sent* the descriptor.
        from: Side,
        /// The descriptor.
        msg: PcieMsg,
    },
    /// SNIC broadcast-module fan-out to every peer.
    SendToFollowers {
        /// The message.
        msg: Message,
    },
    /// SNIC unicast to one peer.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: Message,
    },
    /// Enqueue `(key, ts)` into the volatile FIFO; the harness feeds back
    /// [`OEvent::VfifoDrained`] (after queueing + 465 ns/KB, with
    /// backpressure when full).
    VfifoEnqueue {
        /// Record.
        key: Key,
        /// Entry timestamp.
        ts: Ts,
        /// Payload size.
        bytes: u64,
    },
    /// Enqueue into the durable FIFO (the update is durable once enqueued;
    /// the drain to the host NVM log is background).
    DfifoEnqueue {
        /// Record.
        key: Key,
        /// Entry timestamp.
        ts: Ts,
        /// Payload size.
        bytes: u64,
    },
    /// Re-inject an event after a local dispatch delay.
    Defer {
        /// The event.
        event: OEvent,
    },
    /// Client write completed.
    WriteDone {
        /// Request id.
        req: ReqId,
        /// Record written.
        key: Key,
        /// The write's timestamp.
        ts: Ts,
        /// Cut short as obsolete.
        obsolete: bool,
    },
    /// Client read completed.
    ReadDone {
        /// Request id.
        req: ReqId,
        /// Record read.
        key: Key,
        /// Observed value.
        value: Value,
        /// Observed version.
        ts: Ts,
    },
    /// `[PERSIST]sc` completed.
    PersistScopeDone {
        /// Request id.
        req: ReqId,
        /// The flushed scope.
        scope: ScopeId,
    },
    /// Timing hint, tagged with the side that performed the step.
    Meta {
        /// Performing side.
        side: Side,
        /// The step.
        op: MetaOp,
    },
    /// Timing hint: a coherent metadata line for `key` migrated between
    /// host and SmartNIC (one MSI snoop on the dedicated bus).
    CoherenceTransfer {
        /// The record whose metadata line moved.
        key: Key,
    },
}

/// A client-write at its MINOS-O Coordinator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OCoordTx {
    /// Client request id.
    pub req: ReqId,
    /// Payload.
    pub value: Value,
    /// Scope tag.
    pub scope: Option<ScopeId>,
    /// `Some(target)`: cut short as obsolete; waiting on the glb spins.
    pub obsolete: Option<Ts>,
    /// Host issued the batched INV.
    pub inv_sent: bool,
    /// SNIC processed the batched INV (broadcast + FIFO enqueues done).
    pub enqueued: bool,
    /// vFIFO entry drained into the host LLC.
    pub vfifo_drained: bool,
    /// Combined ACKs received (Synchronous).
    pub acks: BTreeSet<NodeId>,
    /// ACK_Cs received.
    pub ack_cs: BTreeSet<NodeId>,
    /// ACK_Ps received.
    pub ack_ps: BTreeSet<NodeId>,
    /// Batched ACK pushed to the host.
    pub batched_ack_sent: bool,
    /// Client response delivered.
    pub client_done: bool,
    /// Consistency-global effects applied (glb_volatile raised, VAL_C
    /// fan-out sent where applicable).
    pub val_c_sent: bool,
    /// Persistency-global effects applied.
    pub val_p_sent: bool,
}

/// A write at a MINOS-O Follower's SmartNIC.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OFollTx {
    /// The write's Coordinator.
    pub coord: NodeId,
    /// Payload.
    pub value: Value,
    /// Scope tag.
    pub scope: Option<ScopeId>,
    /// `Some(target)` when the INV was obsolete on arrival.
    pub obsolete: Option<Ts>,
    /// FIFO enqueues performed.
    pub enqueued: bool,
    /// vFIFO entry drained.
    pub vfifo_drained: bool,
    /// Combined ACK sent.
    pub sent_ack: bool,
    /// ACK_C sent.
    pub sent_ack_c: bool,
    /// ACK_P sent.
    pub sent_ack_p: bool,
    /// Consistency validation received.
    pub got_val_c: bool,
    /// VAL_C effects applied.
    pub val_c_applied: bool,
    /// VAL_P received (Strict).
    pub got_val_p: bool,
}

/// The MINOS-Offload engine for one node (host + SmartNIC).
///
/// Functionally equivalent to [`crate::NodeEngine`] — the model checker
/// verifies both against the same invariants — but restructured so a
/// harness can charge host, SmartNIC, PCIe, FIFO, and coherence costs
/// separately.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ONodeEngine {
    node: NodeId,
    n_nodes: usize,
    model: DdpModel,
    store: Store,
    coord: BTreeMap<(Key, Ts), OCoordTx>,
    foll: BTreeMap<(Key, Ts), OFollTx>,
    reads: BTreeMap<Key, Vec<ReqId>>,
    scopes: ScopeTable,
    /// Which side last touched each coherent metadata line (MSI owner).
    coherence_owner: BTreeMap<Key, Side>,
    stats: EngineStats,
    /// Key-space placement (`None` = the paper's full replication).
    /// MINOS-O has no redirect path: a routing facade must submit every
    /// operation at a replica of its key's shard; the engine only scopes
    /// its fan-outs and acknowledgment quorums to the replica group.
    placement: Option<ShardMap>,
    /// Keys whose in-flight transactions may have a newly-satisfiable
    /// wait condition; the poll pass visits only these (see
    /// `NodeEngine`'s field of the same name — identical reasoning and
    /// byte-identical output versus the full scan).
    dirty: BTreeSet<Key>,
    /// Placement changes invalidate every per-key wait condition at
    /// once; the next poll falls back to one full scan.
    dirty_all: bool,
}

impl ONodeEngine {
    /// Creates the engine for `node` in a cluster of `n_nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero or `node` is outside `0..n_nodes`.
    #[must_use]
    pub fn new(node: NodeId, n_nodes: usize, model: DdpModel) -> Self {
        assert!(n_nodes > 0, "cluster must have at least one node");
        assert!(
            (node.0 as usize) < n_nodes,
            "node id {node} outside cluster of {n_nodes}"
        );
        ONodeEngine {
            node,
            n_nodes,
            model,
            store: Store::new(),
            coord: BTreeMap::new(),
            foll: BTreeMap::new(),
            reads: BTreeMap::new(),
            scopes: ScopeTable::new(),
            coherence_owner: BTreeMap::new(),
            stats: EngineStats::default(),
            placement: None,
            dirty: BTreeSet::new(),
            dirty_all: false,
        }
    }

    /// Flags `key` for re-evaluation in the next poll pass.
    pub(crate) fn mark_dirty(&mut self, key: Key) {
        self.dirty.insert(key);
    }

    /// Installs the cluster placement map (`None` = full replication).
    /// Callers must also route submissions: the engine panics at
    /// coordination time if asked to coordinate a key it does not
    /// replicate, because MINOS-O has no redirect message.
    ///
    /// # Panics
    ///
    /// Panics if the map's node count disagrees with the engine's.
    pub fn set_placement(&mut self, map: Option<ShardMap>) {
        if let Some(map) = &map {
            assert_eq!(
                map.n_nodes(),
                self.n_nodes,
                "placement map covers {} nodes, engine cluster has {}",
                map.n_nodes(),
                self.n_nodes
            );
        }
        self.placement = map;
        self.dirty_all = true;
    }

    /// The installed placement map, if any.
    #[must_use]
    pub fn placement(&self) -> Option<&ShardMap> {
        self.placement.as_ref()
    }

    /// Whether this node holds a replica of `key`.
    #[must_use]
    pub fn is_replica(&self, key: Key) -> bool {
        match &self.placement {
            None => true,
            Some(map) => map.is_replica(self.node, key),
        }
    }

    /// The destinations a fan-out should reach: the key's replica peers
    /// under a placement map, every peer for scope messages or without a
    /// map (the paper's fully replicated MINOS-O).
    #[must_use]
    pub fn fanout_targets(&self, key: Option<Key>) -> Vec<NodeId> {
        let all_peers = || {
            (0..self.n_nodes as u16)
                .map(NodeId)
                .filter(|&n| n != self.node)
                .collect()
        };
        match (key, &self.placement) {
            (Some(key), Some(map)) => map
                .replicas_of_key(key)
                .iter()
                .copied()
                .filter(|&r| r != self.node)
                .collect(),
            _ => all_peers(),
        }
    }

    /// Peers expected to acknowledge a write to `key`.
    pub(crate) fn followers_for(&self, key: Key) -> usize {
        self.fanout_targets(Some(key)).len()
    }

    /// Per-shard locked-record counts (the lock-table gauge under a
    /// placement map); see [`crate::NodeEngine::locked_records_by_shard`].
    #[must_use]
    pub fn locked_records_by_shard(&self, map: &ShardMap) -> BTreeMap<u32, usize> {
        self.store.locked_records_by_shard(map)
    }

    /// This node's id.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Cluster size.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The DDP model in force.
    #[must_use]
    pub fn model(&self) -> DdpModel {
        self.model
    }

    pub(crate) fn followers(&self) -> usize {
        self.n_nodes - 1
    }

    /// Pre-populates a record.
    pub fn load_record(&mut self, key: Key, value: Value) {
        self.store.load(key, value);
    }

    /// Installs a record recovered from a donor during a quiesced rejoin
    /// (the loopback/DES membership paths): the update is already
    /// globally consistent *and* durable, so `volatileTS`,
    /// `glb_volatileTS` and `glb_durableTS` all advance to `ts` and no
    /// PCIe or network traffic flows. Older-than-current entries are
    /// ignored. Mirrors `NodeEngine::install_recovered`.
    pub fn install_recovered(&mut self, key: Key, ts: Ts, value: Value) {
        let mut rec = self.store.record_mut(key);
        if ts >= rec.meta.volatile_ts {
            rec.value = value;
            rec.meta.raise_volatile(ts);
        }
        rec.meta.raise_glb_volatile(ts);
        rec.meta.raise_glb_durable(ts);
        self.dirty.insert(key);
    }

    /// Record metadata accessor.
    #[must_use]
    pub fn record_meta(&self, key: Key) -> RecordMeta {
        self.store.meta(key)
    }

    /// Current value in the host LLC.
    #[must_use]
    pub fn record_value(&self, key: Key) -> Option<Value> {
        self.store.record(key).map(|r| r.value.clone())
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// True when nothing is in flight.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.coord.is_empty()
            && self.foll.is_empty()
            && self.reads.values().all(Vec::is_empty)
            && self.scopes.scope_ids().next().is_none()
    }

    /// All keys materialized at this node.
    #[must_use]
    pub fn keys(&self) -> Vec<Key> {
        self.store.iter().map(|(k, _)| *k).collect()
    }

    /// Records currently holding an RDLock or WRLock (the lock-table
    /// resource gauge).
    #[must_use]
    pub fn locked_records(&self) -> usize {
        self.store.locked_records()
    }

    /// Views of every in-flight coordinator transaction (invariant
    /// checks), mirroring [`crate::NodeEngine::coord_tx_views`].
    #[must_use]
    pub fn coord_tx_views(&self) -> Vec<crate::CoordTxView> {
        self.coord
            .iter()
            .map(|(&(key, ts), tx)| {
                let needed = self.followers_for(key);
                let consistency_complete = match self.model.persistency {
                    minos_types::PersistencyModel::Synchronous => tx.acks.len() >= needed,
                    _ => tx.ack_cs.len() >= needed,
                };
                crate::CoordTxView {
                    key,
                    ts,
                    state: if tx.obsolete.is_some() {
                        crate::CoordState::ObsoleteConsistency {
                            target: tx.obsolete.unwrap_or_default(),
                        }
                    } else {
                        crate::CoordState::AwaitAcks
                    },
                    acks: tx.acks.iter().copied().collect(),
                    ack_cs: tx.ack_cs.iter().copied().collect(),
                    ack_ps: tx.ack_ps.iter().copied().collect(),
                    consistency_complete,
                }
            })
            .collect()
    }

    /// Handles one event; actions are appended to `out`.
    pub fn on_event(&mut self, ev: OEvent, out: &mut Vec<OAction>) {
        match ev {
            OEvent::ClientWrite {
                key,
                value,
                scope,
                req,
            } => self.o_client_write(key, value, scope, req, out),
            OEvent::HostStart { key, ts } => self.o_host_start(key, ts, out),
            OEvent::ClientRead { key, req } => self.o_client_read(key, req, out),
            OEvent::ClientPersistScope { scope, req } => {
                // The host forwards the whole transaction to the SNIC.
                out.push(OAction::Pcie {
                    from: Side::Host,
                    msg: PcieMsg::PersistScopeReq { scope, req },
                });
            }
            OEvent::PcieFromHost(msg) => self.o_snic_from_host(msg, out),
            OEvent::PcieFromSnic(msg) => self.o_host_from_snic(msg, out),
            OEvent::NetMessage { from, msg } => self.o_net_message(from, msg, out),
            OEvent::VfifoDrained { key, ts } => self.o_vfifo_drained(key, ts, out),
            OEvent::DfifoDrained { key, ts } => self.o_dfifo_drained(key, ts),
        }
        self.o_poll(out);
    }

    /// Books a metadata access from `side`, emitting a coherence-transfer
    /// hint when the MSI line migrates.
    pub(crate) fn meta_access(&mut self, side: Side, key: Key, out: &mut Vec<OAction>) {
        let owner = self.coherence_owner.insert(key, side);
        if owner.is_some_and(|o| o != side) {
            out.push(OAction::CoherenceTransfer { key });
        }
    }

    pub(crate) fn hint(&self, side: Side, op: MetaOp, out: &mut Vec<OAction>) {
        out.push(OAction::Meta { side, op });
    }

    pub(crate) fn store(&self) -> &Store {
        &self.store
    }

    pub(crate) fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    pub(crate) fn scopes(&self) -> &ScopeTable {
        &self.scopes
    }

    pub(crate) fn scopes_mut(&mut self) -> &mut ScopeTable {
        &mut self.scopes
    }

    pub(crate) fn stats_mut(&mut self) -> &mut EngineStats {
        &mut self.stats
    }

    pub(crate) fn coord_map(&mut self) -> &mut BTreeMap<(Key, Ts), OCoordTx> {
        &mut self.coord
    }

    pub(crate) fn foll_map(&mut self) -> &mut BTreeMap<(Key, Ts), OFollTx> {
        &mut self.foll
    }

    pub(crate) fn reads_map(&mut self) -> &mut BTreeMap<Key, Vec<ReqId>> {
        &mut self.reads
    }

    pub(crate) fn coord_keys(&self) -> Vec<(Key, Ts)> {
        self.coord.keys().copied().collect()
    }

    pub(crate) fn foll_keys(&self) -> Vec<(Key, Ts)> {
        self.foll.keys().copied().collect()
    }

    /// In-flight coordinator transaction timestamps for `key`.
    pub(crate) fn coord_ts_of(&self, key: Key) -> Vec<Ts> {
        self.coord
            .range((key, Ts::zero())..)
            .take_while(|(&(k, _), _)| k == key)
            .map(|(&(_, ts), _)| ts)
            .collect()
    }

    /// In-flight follower transaction timestamps for `key`.
    pub(crate) fn foll_ts_of(&self, key: Key) -> Vec<Ts> {
        self.foll
            .range((key, Ts::zero())..)
            .take_while(|(&(k, _), _)| k == key)
            .map(|(&(_, ts), _)| ts)
            .collect()
    }
}
