//! The MINOS-Baseline (MINOS-B) node engine: detailed leaderless algorithms
//! for `<Lin, {Synch, Strict, REnf, Event, Scope}>` (Figures 2 and 3 of the
//! paper).
//!
//! One [`NodeEngine`] instance embodies one node. It plays *Coordinator*
//! for client-writes submitted locally and *Follower* for `INV`s received
//! from peers — the protocols are leaderless, so every node runs both
//! roles concurrently.

mod coord;
mod foll;
mod poll;

use crate::event::{Action, DelayClass, Event, MetaOp, ReqId};
use crate::scope::ScopeTable;
use crate::stats::EngineStats;
use crate::store::Store;
use minos_types::{DdpModel, Key, Message, NodeId, RecordMeta, ScopeId, ShardMap, Ts, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Progress of a client-write at its Coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoordState {
    /// Timestamp issued; Figure 2 Lines 5–18 run at the next
    /// [`Event::StartWrite`].
    PendingStart,
    /// Cut short as obsolete; running `ConsistencySpin()` — waiting for
    /// `glb_volatileTS >= target`.
    ObsoleteConsistency {
        /// The newer write's timestamp observed when cut short.
        target: Ts,
    },
    /// Running `PersistencySpin()` — waiting for `glb_durableTS >= target`.
    ObsoletePersistency {
        /// The newer write's timestamp observed when cut short.
        target: Ts,
    },
    /// INVs sent; collecting acknowledgments (Figure 2 Line 19 / Figure 3
    /// Step e).
    AwaitAcks,
    /// Second gate of Strict/REnf: collecting `ACK_P`s (Figure 3 Step f).
    AwaitPersistAcks,
}

/// A client-write transaction in flight at its Coordinator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CoordTx {
    /// Client request id.
    pub req: ReqId,
    /// Value being written.
    pub value: Value,
    /// Scope tag (`<Lin, Scope>` only).
    pub scope: Option<ScopeId>,
    /// Current protocol state.
    pub state: CoordState,
    /// Followers whose combined `ACK` arrived (Synchronous).
    pub acks: BTreeSet<NodeId>,
    /// Followers whose `ACK_C` arrived.
    pub ack_cs: BTreeSet<NodeId>,
    /// Followers whose `ACK_P` arrived.
    pub ack_ps: BTreeSet<NodeId>,
    /// Local NVM persist completed.
    pub local_persisted: bool,
    /// The response has been returned to the client.
    pub client_done: bool,
}

/// A write transaction in flight at a Follower (triggered by an `INV`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FollTx {
    /// The write's Coordinator (destination of our ACKs).
    pub coord: NodeId,
    /// Value carried by the INV.
    pub value: Value,
    /// Scope tag.
    pub scope: Option<ScopeId>,
    /// `Some(target)` when the INV was obsolete on arrival: the spins wait
    /// for `glb_volatileTS`/`glb_durableTS` to reach `target`.
    pub obsolete: Option<Ts>,
    /// Local LLC updated (non-obsolete path).
    pub llc_updated: bool,
    /// Local NVM persist completed.
    pub local_persisted: bool,
    /// Combined `ACK` sent (Synchronous).
    pub sent_ack: bool,
    /// `ACK_C` sent.
    pub sent_ack_c: bool,
    /// `ACK_P` sent.
    pub sent_ack_p: bool,
    /// Consistency validation received (`VAL` for Synch/REnf, `VAL_C` for
    /// Strict/Event/Scope).
    pub got_val_c: bool,
    /// The VAL_C effects (RDLock release + `glb_volatileTS` raise) have
    /// been applied (Strict separates this from `got_val_p` completion).
    pub val_c_applied: bool,
    /// `VAL_P` received (Strict only).
    pub got_val_p: bool,
}

impl FollTx {
    fn new(coord: NodeId, value: Value, scope: Option<ScopeId>) -> Self {
        FollTx {
            coord,
            value,
            scope,
            obsolete: None,
            llc_updated: false,
            local_persisted: false,
            sent_ack: false,
            sent_ack_c: false,
            sent_ack_p: false,
            got_val_c: false,
            val_c_applied: false,
            got_val_p: false,
        }
    }
}

/// A read-only view of a coordinator transaction, for invariant checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordTxView {
    /// Record being written.
    pub key: Key,
    /// The write's timestamp.
    pub ts: Ts,
    /// Protocol state.
    pub state: CoordState,
    /// Senders of combined ACKs.
    pub acks: Vec<NodeId>,
    /// Senders of ACK_Cs.
    pub ack_cs: Vec<NodeId>,
    /// Senders of ACK_Ps.
    pub ack_ps: Vec<NodeId>,
    /// Whether all consistency acknowledgments have arrived.
    pub consistency_complete: bool,
}

/// The MINOS-Baseline protocol engine for one node.
///
/// Feed [`Event`]s via [`NodeEngine::on_event`]; execute the returned
/// [`Action`]s. The engine is deterministic, `Clone`, `Eq` and `Hash`, so
/// the model checker can snapshot and compare entire node states.
///
/// # Example
///
/// ```
/// use minos_core::{Action, Event, NodeEngine, ReqId};
/// use minos_types::{DdpModel, Key, NodeId, PersistencyModel};
///
/// // A 1-node "cluster": a write completes without any network traffic.
/// let mut node = NodeEngine::new(NodeId(0), 1, DdpModel::lin(PersistencyModel::Eventual));
/// let mut out = Vec::new();
/// node.on_event(
///     Event::ClientWrite {
///         key: Key(7),
///         value: "hello".into(),
///         scope: None,
///         req: ReqId(1),
///     },
///     &mut out,
/// );
/// // The engine defers the write body to a StartWrite event.
/// let start = out
///     .iter()
///     .find_map(|a| match a {
///         Action::Defer { event, .. } => Some(event.clone()),
///         _ => None,
///     })
///     .expect("deferred start");
/// out.clear();
/// node.on_event(start, &mut out);
/// assert!(out.iter().any(|a| matches!(a, Action::WriteDone { .. })));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeEngine {
    node: NodeId,
    n_nodes: usize,
    model: DdpModel,
    store: Store,
    coord: BTreeMap<(Key, Ts), CoordTx>,
    foll: BTreeMap<(Key, Ts), FollTx>,
    reads: BTreeMap<Key, Vec<ReadWaiter>>,
    /// Outstanding reads forwarded to a replica: token → local request.
    forwarded_reads: BTreeMap<u64, ReqId>,
    next_read_token: u64,
    scopes: ScopeTable,
    stats: EngineStats,
    /// Cluster membership as seen by this node (§III-E: failure detection
    /// "identifies the non-responding node(s) and alerts all the other
    /// nodes"). Acknowledgment quorums count only live peers.
    alive: BTreeSet<NodeId>,
    /// Whether younger writes may *snatch* the RDLock from older ones
    /// (§III-A). On by default — disabling it is the snatch-ablation
    /// study: correctness is preserved (the lock owner always releases at
    /// its completion point), but a younger write's completion can then
    /// be delayed behind an older one's.
    snatch_enabled: bool,
    /// Key-space placement (the paper assumes "a record is replicated in
    /// all the nodes … for simplicity"): `Some(map)` places each record
    /// on its shard's replica group. Writes must be coordinated by a
    /// replica (non-replicas redirect); reads forward. The legacy
    /// replication-factor knob is sugar for a `uniform(n, n, k)` map.
    placement: Option<ShardMap>,
    /// A deliberately armed protocol bug, used by the mutation smoke
    /// tests to prove the conformance checkers can catch real protocol
    /// violations. Compiled out of production builds.
    #[cfg(feature = "fault-injection")]
    fault: Option<ArmedFault>,
    /// Keys whose in-flight transactions may have a newly-satisfiable
    /// wait condition. The poll pass visits only these keys: a
    /// transaction's gates read only its own flags/ack sets and its
    /// key's global timestamps, and every mutation of either marks the
    /// key dirty — so a clean key's transactions provably cannot
    /// progress (polling them would emit nothing), and the pass stays
    /// O(changed) per event instead of O(in-flight).
    dirty: BTreeSet<Key>,
    /// Alive-set or placement changes invalidate every per-key wait
    /// condition at once (quorum sizes shrink, followers orphan); the
    /// next poll falls back to one full scan.
    dirty_all: bool,
}

/// An armed deliberate protocol bug (see [`NodeEngine::arm_fault`]); it
/// fires at most once per engine lifetime so a single run contains
/// exactly one violation to find and shrink toward.
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
struct ArmedFault {
    kind: minos_types::FaultKind,
    fired: bool,
}

/// A stalled read waiting for a record's RDLock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum ReadWaiter {
    /// A local client read.
    Local(ReqId),
    /// A read forwarded from a non-replica node.
    Remote {
        /// Forwarding node.
        from: NodeId,
        /// Its correlation token.
        token: u64,
    },
}

impl NodeEngine {
    /// Creates the engine for `node` in a cluster of `n_nodes`, running
    /// DDP model `model`.
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
        NodeEngine {
            node,
            n_nodes,
            model,
            store: Store::new(),
            coord: BTreeMap::new(),
            foll: BTreeMap::new(),
            reads: BTreeMap::new(),
            forwarded_reads: BTreeMap::new(),
            next_read_token: 1,
            scopes: ScopeTable::new(),
            stats: EngineStats::default(),
            alive: (0..n_nodes as u16).map(NodeId).collect(),
            snatch_enabled: true,
            placement: None,
            #[cfg(feature = "fault-injection")]
            fault: None,
            dirty: BTreeSet::new(),
            dirty_all: false,
        }
    }

    /// Flags `key` for re-evaluation in the next poll pass.
    pub(crate) fn mark_dirty(&mut self, key: Key) {
        self.dirty.insert(key);
    }

    /// In-flight coordinator transaction timestamps for `key`.
    fn coord_ts_of(&self, key: Key) -> Vec<Ts> {
        self.coord
            .range((key, Ts::zero())..)
            .take_while(|(&(k, _), _)| k == key)
            .map(|(&(_, ts), _)| ts)
            .collect()
    }

    /// In-flight follower transaction timestamps for `key`.
    fn foll_ts_of(&self, key: Key) -> Vec<Ts> {
        self.foll
            .range((key, Ts::zero())..)
            .take_while(|(&(k, _), _)| k == key)
            .map(|(&(_, ts), _)| ts)
            .collect()
    }

    /// Arms deliberate protocol bug `kind`; it fires at most once. Only
    /// available under the `fault-injection` feature — the mutation smoke
    /// tests use it to prove the conformance checkers catch real bugs.
    #[cfg(feature = "fault-injection")]
    pub fn arm_fault(&mut self, kind: minos_types::FaultKind) {
        self.fault = Some(ArmedFault { kind, fired: false });
    }

    /// Consumes the armed fault if it is `kind` and has not fired yet.
    #[cfg(feature = "fault-injection")]
    pub(crate) fn take_fault(&mut self, kind: minos_types::FaultKind) -> bool {
        match &mut self.fault {
            Some(f) if f.kind == kind && !f.fired => {
                f.fired = true;
                true
            }
            _ => false,
        }
    }

    /// Enables partial replication with factor `k`: each record lives on
    /// `k` of the `n` nodes (hash-ring placement). Pass `None` to restore
    /// the paper's full replication. Sugar for
    /// [`NodeEngine::set_placement`] with a `ShardMap::uniform(n, n, k)`
    /// ring, kept for the legacy call sites.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the cluster size, or if the
    /// engine runs the `<Lin, Scope>` model (scope flush targets are not
    /// defined under the legacy knob; use an explicit placement map and a
    /// routing facade instead).
    pub fn set_replication_factor(&mut self, k: Option<u16>) {
        if let Some(k) = k {
            assert!(k >= 1 && (k as usize) <= self.n_nodes, "bad factor {k}");
            assert!(
                self.model.persistency != minos_types::PersistencyModel::Scope,
                "partial replication is not supported under <Lin, Scope>"
            );
        }
        self.placement = k.map(|k| ShardMap::uniform(self.n_nodes as u32, self.n_nodes, k));
        self.dirty_all = true;
    }

    /// Installs the cluster placement map (`None` = the paper's full
    /// replication). Scoped models are supported when a routing facade
    /// directs every scoped write to a replica of its key (the
    /// `ShardRouter` layer does this); the engine itself only consults
    /// the map for replica sets and redirect targets.
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

    /// The nodes holding a replica of `key` (placement-map lookup;
    /// identical on every node).
    #[must_use]
    pub fn replicas_of(&self, key: Key) -> Vec<NodeId> {
        match &self.placement {
            None => (0..self.n_nodes as u16).map(NodeId).collect(),
            Some(map) => map.replicas_of_key(key).to_vec(),
        }
    }

    /// Whether this node holds a replica of `key`.
    #[must_use]
    pub fn is_replica(&self, key: Key) -> bool {
        match &self.placement {
            None => true,
            Some(map) => map.is_replica(self.node, key),
        }
    }

    /// Live peers expected to acknowledge a write to `key`.
    pub(crate) fn followers_for(&self, key: Key) -> usize {
        self.replicas_of(key)
            .iter()
            .filter(|&&r| r != self.node && self.alive.contains(&r))
            .count()
    }

    /// The destinations a fan-out action should reach: for per-record
    /// messages, the live replicas of the key; for scope messages, every
    /// live peer. Harnesses expand [`Action::SendToFollowers`] with this.
    #[must_use]
    pub fn fanout_targets(&self, key: Option<Key>) -> Vec<NodeId> {
        match key {
            Some(key) => self
                .replicas_of(key)
                .into_iter()
                .filter(|&r| r != self.node && self.alive.contains(&r))
                .collect(),
            None => self.alive_peers(),
        }
    }

    /// Disables (or re-enables) RDLock snatching — the ablation knob for
    /// the §III-A design choice. Call before submitting work.
    pub fn set_snatch_enabled(&mut self, enabled: bool) {
        self.snatch_enabled = enabled;
    }

    /// Acquires the RDLock for `ts` per the configured policy; returns
    /// whether the lock is now owned by this write.
    pub(crate) fn acquire_rd_lock(&mut self, key: Key, ts: Ts) -> bool {
        let snatch = self.snatch_enabled;
        let mut rec = self.store.record_mut(key);
        let got = if snatch {
            rec.meta.snatch_rd_lock(ts)
        } else {
            rec.meta.try_rd_lock(ts)
        };
        if got {
            self.stats.rd_lock_snatches += 1;
        }
        got
    }

    /// Marks `peer` as failed: it is excluded from the replica set, so
    /// acknowledgment quorums no longer wait for it. In-flight
    /// transactions re-evaluate against the shrunken quorum on the next
    /// event.
    ///
    /// # Panics
    ///
    /// Panics when asked to fail this node itself.
    pub fn mark_failed(&mut self, peer: NodeId) {
        assert_ne!(peer, self.node, "a node cannot exclude itself");
        self.alive.remove(&peer);
        self.dirty_all = true;
    }

    /// Re-inserts a recovered `peer` into the replica set (§III-E: the
    /// node is brought up-to-date via log shipping before this is called).
    pub fn mark_recovered(&mut self, peer: NodeId) {
        self.alive.insert(peer);
        self.dirty_all = true;
    }

    /// The peers currently considered alive (excluding this node).
    #[must_use]
    pub fn alive_peers(&self) -> Vec<NodeId> {
        self.alive
            .iter()
            .copied()
            .filter(|&p| p != self.node)
            .collect()
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

    /// Number of followers = live peers expected to acknowledge.
    pub(crate) fn followers(&self) -> usize {
        self.alive
            .len()
            .saturating_sub(usize::from(self.alive.contains(&self.node)))
    }

    /// Pre-populates a record (used to load the database before a run).
    pub fn load_record(&mut self, key: Key, value: Value) {
        self.store.load(key, value);
    }

    /// Installs a record recovered via §III-E log shipping: the update is
    /// already globally consistent *and* durable (it came from a live
    /// node's committed log), so `volatileTS`, `glb_volatileTS` and
    /// `glb_durableTS` all advance to `ts` and no protocol messages flow.
    /// Older-than-current entries are ignored (obsoleteness check).
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

    /// Record metadata accessor (for harnesses and invariant checks).
    #[must_use]
    pub fn record_meta(&self, key: Key) -> RecordMeta {
        self.store.meta(key)
    }

    /// Current value of `key` in local volatile memory.
    #[must_use]
    pub fn record_value(&self, key: Key) -> Option<Value> {
        self.store.record(key).map(|r| r.value.clone())
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

    /// Locked records broken down by the shard each key hashes to under
    /// `map` (the per-shard lock-table gauge). Shards with no locked
    /// records are omitted.
    #[must_use]
    pub fn locked_records_by_shard(&self, map: &ShardMap) -> BTreeMap<u32, usize> {
        self.store.locked_records_by_shard(map)
    }

    /// Cumulative protocol statistics.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// True when no transaction, pending read, or scope work is in flight.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.coord.is_empty()
            && self.foll.is_empty()
            && self.reads.values().all(Vec::is_empty)
            && self.forwarded_reads.is_empty()
            && self.scopes.scope_ids().next().is_none()
    }

    /// Views of every in-flight coordinator transaction (invariant checks).
    #[must_use]
    pub fn coord_tx_views(&self) -> Vec<CoordTxView> {
        self.coord
            .iter()
            .map(|(&(key, ts), tx)| {
                let needed = self.followers_for(key);
                let consistency_complete = match self.model.persistency {
                    minos_types::PersistencyModel::Synchronous => tx.acks.len() >= needed,
                    _ => tx.ack_cs.len() >= needed,
                };
                CoordTxView {
                    key,
                    ts,
                    state: tx.state,
                    acks: tx.acks.iter().copied().collect(),
                    ack_cs: tx.ack_cs.iter().copied().collect(),
                    ack_ps: tx.ack_ps.iter().copied().collect(),
                    consistency_complete,
                }
            })
            .collect()
    }

    /// Re-evaluates every wait condition without a new event. Call after
    /// [`NodeEngine::mark_failed`]: quorum gates that were waiting on the
    /// failed peer may now be satisfiable.
    pub fn poll_now(&mut self, out: &mut Vec<Action>) {
        self.dirty_all = true;
        self.poll(out);
    }

    /// Handles one input event, appending the resulting actions to `out`.
    ///
    /// The engine never blocks: the paper's spin loops are realized as
    /// internal wait conditions re-evaluated after every event.
    pub fn on_event(&mut self, ev: Event, out: &mut Vec<Action>) {
        match ev {
            Event::ClientWrite {
                key,
                value,
                scope,
                req,
            } => self.client_write(key, value, scope, req, out),
            Event::StartWrite { key, ts } => self.start_write(key, ts, out),
            Event::ClientRead { key, req } => self.client_read(key, req, out),
            Event::ClientPersistScope { scope, req } => {
                self.client_persist_scope(scope, req, out);
            }
            Event::Message { from, msg } => self.on_message(from, msg, out),
            Event::PersistDone { key, ts } => self.on_persist_done(key, ts, out),
        }
        self.poll(out);
    }

    fn client_read(&mut self, key: Key, req: ReqId, out: &mut Vec<Action>) {
        self.stats.reads += 1;
        // Partial replication: forward to the primary replica.
        if !self.is_replica(key) {
            let token = self.next_read_token;
            self.next_read_token += 1;
            self.forwarded_reads.insert(token, req);
            let to = self.replicas_of(key)[0];
            self.send_one(to, Message::ReadReq { key, token }, out);
            return;
        }
        // §III-D: a read stalls only while the record's RDLock is taken.
        if self.store.meta(key).readable() {
            self.serve_read(key, ReadWaiter::Local(req), out);
        } else {
            self.stats.reads_stalled += 1;
            self.reads
                .entry(key)
                .or_default()
                .push(ReadWaiter::Local(req));
        }
    }

    /// Serves a ready read to its waiter (local completion or remote
    /// response).
    pub(crate) fn serve_read(&mut self, key: Key, waiter: ReadWaiter, out: &mut Vec<Action>) {
        let (value, ts) = match self.store.record(key) {
            Some(r) => (r.value.clone(), r.meta.volatile_ts),
            None => (Value::new(), Ts::zero()),
        };
        match waiter {
            ReadWaiter::Local(req) => out.push(Action::ReadDone {
                req,
                key,
                value,
                ts,
            }),
            ReadWaiter::Remote { from, token } => {
                self.send_one(
                    from,
                    Message::ReadResp {
                        key,
                        token,
                        value,
                        ts,
                    },
                    out,
                );
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Message, out: &mut Vec<Action>) {
        self.stats.record_received(msg.kind());
        match msg {
            Message::Inv {
                key,
                ts,
                value,
                scope,
            } => self.handle_inv(from, key, ts, value, scope, out),
            Message::Ack { key, ts } => self.record_ack(key, ts, from, AckKind::Combined),
            Message::AckC { key, ts, .. } => self.record_ack(key, ts, from, AckKind::Consistency),
            Message::AckP { key, ts } => self.record_ack(key, ts, from, AckKind::Persistency),
            Message::Val { key, ts } | Message::ValC { key, ts, .. } => {
                self.handle_val_c(key, ts, out);
            }
            Message::ValP { key, ts } => self.handle_val_p(key, ts),
            Message::Persist { scope } => self.handle_persist_request(from, scope),
            Message::ReadReq { key, token } => {
                // Served under the same RDLock discipline as a local read.
                let waiter = ReadWaiter::Remote { from, token };
                if self.store.meta(key).readable() {
                    self.serve_read(key, waiter, out);
                } else {
                    self.stats.reads_stalled += 1;
                    self.reads.entry(key).or_default().push(waiter);
                }
            }
            Message::ReadResp {
                key,
                token,
                value,
                ts,
            } => {
                if let Some(req) = self.forwarded_reads.remove(&token) {
                    out.push(Action::ReadDone {
                        req,
                        key,
                        value,
                        ts,
                    });
                }
            }
            Message::PersistAckP { scope } => {
                self.scopes.persist_ack_insert(self.node, scope, from);
            }
            Message::PersistValP { scope } => self.handle_persist_val(from, scope),
        }
    }

    fn on_persist_done(&mut self, key: Key, ts: Ts, out: &mut Vec<Action>) {
        self.stats.persists_completed += 1;
        self.dirty.insert(key);
        if let Some(tx) = self.coord.get_mut(&(key, ts)) {
            tx.local_persisted = true;
        }
        if let Some(tx) = self.foll.get_mut(&(key, ts)) {
            tx.local_persisted = true;
        }
        // Scope bookkeeping: flush requests that just became satisfiable
        // are answered in the poll pass.
        let _ = self.scopes.mark_persisted(key, ts);
        let _ = out;
    }

    /// Wakes reads pending on `key` if its RDLock is now free.
    pub(crate) fn wake_reads(&mut self, key: Key, out: &mut Vec<Action>) {
        if !self.store.meta(key).readable() {
            return;
        }
        if let Some(pending) = self.reads.remove(&key) {
            for waiter in pending {
                self.serve_read(key, waiter, out);
            }
        }
    }

    pub(crate) fn send_to_followers(&mut self, msg: Message, out: &mut Vec<Action>) {
        let n = self.fanout_targets(msg.key()).len();
        self.stats.record_fanout(msg.kind(), n);
        out.push(Action::SendToFollowers { msg });
    }

    pub(crate) fn send_one(&mut self, to: NodeId, msg: Message, out: &mut Vec<Action>) {
        self.stats.record_sent(msg.kind());
        out.push(Action::Send { to, msg });
    }

    pub(crate) fn meta_hint(&self, op: MetaOp, out: &mut Vec<Action>) {
        out.push(Action::Meta(op));
    }

    pub(crate) fn defer(&self, event: Event, out: &mut Vec<Action>) {
        out.push(Action::Defer {
            event,
            class: DelayClass::LocalDispatch,
        });
    }

    pub(crate) fn store(&self) -> &Store {
        &self.store
    }

    pub(crate) fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    pub(crate) fn scopes_mut(&mut self) -> &mut ScopeTable {
        &mut self.scopes
    }

    pub(crate) fn scopes(&self) -> &ScopeTable {
        &self.scopes
    }

    pub(crate) fn stats_mut(&mut self) -> &mut EngineStats {
        &mut self.stats
    }
}

/// Which acknowledgment flavor a message carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AckKind {
    Combined,
    Consistency,
    Persistency,
}
