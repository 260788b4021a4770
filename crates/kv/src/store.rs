//! The single-process replicated MINOS-KV store.

use crate::durable::DurableState;
use crate::hash_key;
use minos_core::runtime::{ActionSink, DispatchStats, Dispatcher, ShardRouter, Transport};
use minos_core::{DelayClass, EngineStats, Event, NodeEngine, ReqId};
use minos_types::{
    DdpModel, Key, Message, MinosError, NodeId, Result, ScopeId, ShardMap, Ts, Value,
};
use std::collections::VecDeque;

/// A replicated key-value store: N protocol engines + N durable states,
/// driven to quiescence after every client call.
///
/// This is the "real application" face of the workspace: examples and the
/// KV test-suite use it; the simulator and model checker drive the same
/// engines through their own harnesses.
///
/// Failure injection: [`MinosKv::fail_node`] partitions a node away
/// (messages to/from it are dropped, quorums shrink);
/// [`MinosKv::recover_node`] re-inserts it after shipping the durable-log
/// suffix from a designated surviving node, as §III-E prescribes.
#[derive(Debug, Clone)]
pub struct MinosKv {
    engines: Vec<NodeEngine>,
    dispatchers: Vec<Dispatcher<NodeEngine>>,
    durable: Vec<DurableState>,
    /// Per-node recovery cursor: the donor log position the node has
    /// replayed up to.
    failed: Vec<bool>,
    queue: VecDeque<(NodeId, Event)>,
    completions: Vec<(ReqId, KvOutcome)>,
    next_req: u64,
    model: DdpModel,
    /// Facade-level shard routing over the cluster placement map
    /// (identity when fully replicated). Scoped writes record their
    /// coordinator here so `[PERSIST]sc` can fan out to the touched
    /// shards.
    router: ShardRouter,
}

/// Result of a completed client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum KvOutcome {
    Write { ts: Ts, obsolete: bool },
    Read { value: Value, ts: Ts },
    PersistScope,
}

impl MinosKv {
    /// Creates an `n`-node store running `model`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize, model: DdpModel) -> Self {
        MinosKv {
            engines: (0..n)
                .map(|i| NodeEngine::new(NodeId(i as u16), n, model))
                .collect(),
            dispatchers: vec![Dispatcher::new(); n],
            durable: (0..n).map(|_| DurableState::new()).collect(),
            failed: vec![false; n],
            queue: VecDeque::new(),
            completions: Vec::new(),
            next_req: 1,
            model,
            router: ShardRouter::new(None),
        }
    }

    /// Creates an `n`-node store with each record replicated on only `k`
    /// nodes — the partial-replication extension lifting the paper's
    /// "replicated in all the nodes" simplification, expressed as a
    /// `ShardMap::uniform(n, n, k)` ring over the shared placement map.
    /// Writes submitted at a non-replica are transparently redirected;
    /// reads at a non-replica are forwarded to a replica over the
    /// ReadReq/ReadResp sub-protocol.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds `n`, or if `model` is
    /// `<Lin, Scope>` (scope flush targets are undefined under the ring
    /// layout's overlapping groups; use [`MinosKv::with_shard_map`] with
    /// a disjoint map instead).
    #[must_use]
    pub fn with_replication(n: usize, k: u16, model: DdpModel) -> Self {
        assert!(k >= 1 && (k as usize) <= n, "bad factor {k}");
        assert!(
            model.persistency != minos_types::PersistencyModel::Scope,
            "partial replication is not supported under <Lin, Scope>; \
             use with_shard_map with a disjoint placement"
        );
        MinosKv::with_shard_map(ShardMap::uniform(n as u32, n, k), model)
    }

    /// Creates a store partitioned by `map`: one engine per node, each
    /// replicating only the shards the map places on it, with all client
    /// operations routed through the shared [`ShardRouter`] facade. All
    /// five persistency models are supported — scoped writes register
    /// their coordinator so [`MinosKv::persist_scope`] fans the flush out
    /// to exactly the touched shards.
    ///
    /// # Panics
    ///
    /// Panics if the map is empty.
    #[must_use]
    pub fn with_shard_map(map: ShardMap, model: DdpModel) -> Self {
        let mut kv = MinosKv::new(map.n_nodes(), model);
        for e in &mut kv.engines {
            e.set_placement(Some(map.clone()));
        }
        kv.router = ShardRouter::new(Some(map));
        kv
    }

    /// The placement map partitioning this store, if any.
    #[must_use]
    pub fn placement(&self) -> Option<&ShardMap> {
        self.router.map()
    }

    /// The DDP model in force.
    #[must_use]
    pub fn model(&self) -> DdpModel {
        self.model
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.engines.len()
    }

    /// Writes `value` under `name`, coordinated by `node`. Blocks (drives
    /// the cluster) until the write's client response; returns its
    /// timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`MinosError::NodeFailed`] if `node` is marked failed.
    pub fn put(
        &mut self,
        node: NodeId,
        name: impl AsRef<[u8]>,
        value: impl Into<Value>,
    ) -> Result<Ts> {
        self.put_scoped(node, name, value, None)
    }

    /// [`MinosKv::put`] with a scope tag (`<Lin, Scope>` model).
    ///
    /// # Errors
    ///
    /// Returns [`MinosError::NodeFailed`] if `node` is marked failed.
    pub fn put_scoped(
        &mut self,
        node: NodeId,
        name: impl AsRef<[u8]>,
        value: impl Into<Value>,
        scope: Option<ScopeId>,
    ) -> Result<Ts> {
        self.check_alive(node)?;
        let req = self.fresh_req();
        let key = hash_key(name);
        // Facade routing: the write is coordinated by a replica of its
        // key's shard (the origin when it is one). The engine-level
        // redirect remains as a safety net for unrouted submissions.
        let coord = self.router.route_write(node, key, scope);
        self.queue.push_back((
            coord,
            Event::ClientWrite {
                key,
                value: value.into(),
                scope,
                req,
            },
        ));
        self.run();
        match self.take_completion(req) {
            Some(KvOutcome::Write { ts, .. }) => Ok(ts),
            _ => Err(MinosError::Shutdown),
        }
    }

    /// Reads `name` at `node` (always served locally, §III-D).
    ///
    /// Returns `None` for never-written records.
    ///
    /// # Errors
    ///
    /// Returns [`MinosError::NodeFailed`] if `node` is marked failed.
    pub fn get(&mut self, node: NodeId, name: impl AsRef<[u8]>) -> Result<Option<Value>> {
        self.check_alive(node)?;
        let req = self.fresh_req();
        let key = hash_key(name);
        self.queue.push_back((node, Event::ClientRead { key, req }));
        self.run();
        match self.take_completion(req) {
            Some(KvOutcome::Read { value, ts }) => {
                Ok((ts != Ts::zero() || !value.is_empty()).then_some(value))
            }
            _ => Err(MinosError::Shutdown),
        }
    }

    /// Ends scope `scope` at `node` with a `[PERSIST]sc` transaction.
    ///
    /// Sharded stores fan the flush out to every coordinator the scope's
    /// writes were routed to; a scope with no routed writes flushes
    /// trivially at the origin.
    ///
    /// # Errors
    ///
    /// Returns [`MinosError::NodeFailed`] if `node` is marked failed.
    pub fn persist_scope(&mut self, node: NodeId, scope: ScopeId) -> Result<()> {
        self.check_alive(node)?;
        let coords = self.router.scope_coordinators(node, scope);
        let reqs: Vec<ReqId> = coords.iter().map(|_| self.fresh_req()).collect();
        for (&coord, &req) in coords.iter().zip(&reqs) {
            self.queue
                .push_back((coord, Event::ClientPersistScope { scope, req }));
        }
        self.run();
        for req in reqs {
            match self.take_completion(req) {
                Some(KvOutcome::PersistScope) => {}
                _ => return Err(MinosError::Shutdown),
            }
        }
        Ok(())
    }

    /// The durable state of `node` (inspection, tests).
    #[must_use]
    pub fn durable(&self, node: NodeId) -> &DurableState {
        &self.durable[node.0 as usize]
    }

    /// Protocol statistics of `node`.
    #[must_use]
    pub fn stats(&self, node: NodeId) -> &EngineStats {
        self.engines[node.0 as usize].stats()
    }

    /// Dispatch statistics of `node` (actions interpreted by the shared
    /// runtime dispatcher on its behalf).
    #[must_use]
    pub fn dispatch_stats(&self, node: NodeId) -> &DispatchStats {
        self.dispatchers[node.0 as usize].stats()
    }

    /// Attaches observability `sinks` to every node's dispatcher,
    /// stamped by a deterministic cluster-global sequence clock (see
    /// [`minos_core::obs`]).
    pub fn attach_tracer(&mut self, sinks: Vec<minos_core::obs::SharedSink>) {
        let clock = minos_core::obs::TraceClock::sequence();
        for (i, d) in self.dispatchers.iter_mut().enumerate() {
            d.set_tracer(Some(minos_core::obs::Tracer::new(
                NodeId(i as u16),
                clock.clone(),
                sinks.clone(),
            )));
        }
    }

    /// The protocol engine of `node` (inspection, tests).
    #[must_use]
    pub fn engine(&self, node: NodeId) -> &NodeEngine {
        &self.engines[node.0 as usize]
    }

    /// Fails `node`: its messages are dropped and every surviving node
    /// excludes it from acknowledgment quorums.
    ///
    /// # Panics
    ///
    /// Panics if it would leave the cluster empty.
    pub fn fail_node(&mut self, node: NodeId) {
        assert!(
            self.failed.iter().filter(|f| !**f).count() > 1,
            "cannot fail the last live node"
        );
        self.failed[node.0 as usize] = true;
        for e in &mut self.engines {
            if e.node() != node {
                e.mark_failed(node);
            }
        }
        // Drop queued traffic involving the failed node.
        self.queue.retain(|(to, ev)| {
            *to != node && !matches!(ev, Event::Message { from, .. } if *from == node)
        });
        self.run();
    }

    /// Recovers `node` per §III-E: `donor` ships the durable-log suffix;
    /// the rejoining node replays it (obsoleteness-checked) into durable
    /// state and reloads its volatile replica from the result, then every
    /// node re-admits it.
    ///
    /// # Panics
    ///
    /// Panics if `donor` is failed or `node` is not failed.
    pub fn recover_node(&mut self, node: NodeId, donor: NodeId) {
        assert!(self.failed[node.0 as usize], "{node} is not failed");
        assert!(!self.failed[donor.0 as usize], "donor {donor} is failed");

        // Ship everything the rejoining node is missing. The donor sends
        // its whole live log suffix from the rejoiner's high-water mark;
        // obsolete entries are skipped during replay.
        let from = 0; // conservative: replay full log (idempotent)
        let entries = self.durable[donor.0 as usize].entries_since(from);
        let ni = node.0 as usize;
        self.durable[ni].replay(&entries);

        // The crash wiped volatile state: rebuild the engine so no stale
        // transaction or lock survives (re-installing the cluster
        // placement), then re-exclude any other nodes that are still
        // failed.
        self.engines[ni] = NodeEngine::new(node, self.engines.len(), self.model);
        self.engines[ni].set_placement(self.router.map().cloned());
        for (i, f) in self.failed.iter().enumerate() {
            if *f && i != ni {
                self.engines[ni].mark_failed(NodeId(i as u16));
            }
        }

        // Reload the volatile replica from the recovered durable state:
        // these updates are already globally consistent and durable, so
        // they are installed directly (no protocol traffic).
        let records: Vec<(Key, Ts, Value)> = self.durable[ni]
            .iter_durable()
            .map(|(k, (ts, v))| (*k, *ts, v.clone()))
            .collect();
        for (key, ts, value) in records {
            self.engines[ni].install_recovered(key, ts, value);
        }

        self.failed[ni] = false;
        for e in &mut self.engines {
            if e.node() != node {
                e.mark_recovered(node);
            }
        }
        self.run();
    }

    fn check_alive(&self, node: NodeId) -> Result<()> {
        if self
            .failed
            .get(node.0 as usize)
            .copied()
            .ok_or(MinosError::UnknownNode(node))?
        {
            Err(MinosError::NodeFailed(node))
        } else {
            Ok(())
        }
    }

    fn fresh_req(&mut self) -> ReqId {
        let r = ReqId(self.next_req);
        self.next_req += 1;
        r
    }

    fn take_completion(&mut self, req: ReqId) -> Option<KvOutcome> {
        let idx = self.completions.iter().position(|(r, _)| *r == req)?;
        Some(self.completions.swap_remove(idx).1)
    }

    fn run(&mut self) {
        let mut steps = 0u64;
        while let Some((node, ev)) = self.queue.pop_front() {
            steps += 1;
            assert!(steps < 10_000_000, "MINOS-KV cluster did not quiesce");
            if self.failed[node.0 as usize] {
                continue;
            }
            if let Event::Message { from, .. } = &ev {
                if self.failed[from.0 as usize] {
                    continue;
                }
            }
            let ni = node.0 as usize;
            let mut handler = KvHandler {
                node,
                durable: &mut self.durable[ni],
                queue: &mut self.queue,
                completions: &mut self.completions,
            };
            self.dispatchers[ni].dispatch(&mut self.engines[ni], ev, &mut handler);
        }
    }
}

/// Dispatch handler for the single-process store: messages hop queues
/// synchronously, persists apply immediately to the node's durable state.
struct KvHandler<'a> {
    node: NodeId,
    durable: &'a mut DurableState,
    queue: &'a mut VecDeque<(NodeId, Event)>,
    completions: &'a mut Vec<(ReqId, KvOutcome)>,
}

impl Transport for KvHandler<'_> {
    fn send(&mut self, to: NodeId, msg: Message) {
        self.queue.push_back((
            to,
            Event::Message {
                from: self.node,
                msg,
            },
        ));
    }
}

impl ActionSink for KvHandler<'_> {
    fn persist(&mut self, key: Key, ts: Ts, value: Value, _background: bool) {
        // Real durable effect: log append + durable-db apply, then the
        // completion event the engine's gates await.
        self.durable.persist(key, ts, value);
        self.queue
            .push_back((self.node, Event::PersistDone { key, ts }));
    }

    fn redirect(&mut self, to: NodeId, event: Event) {
        self.queue.push_back((to, event));
    }

    fn defer(&mut self, event: Event, _class: DelayClass) {
        self.queue.push_back((self.node, event));
    }

    fn write_done(&mut self, req: ReqId, _key: Key, ts: Ts, obsolete: bool) {
        self.completions
            .push((req, KvOutcome::Write { ts, obsolete }));
    }

    fn read_done(&mut self, req: ReqId, _key: Key, value: Value, ts: Ts) {
        self.completions.push((req, KvOutcome::Read { value, ts }));
    }

    fn persist_scope_done(&mut self, req: ReqId, _scope: ScopeId) {
        self.completions.push((req, KvOutcome::PersistScope));
    }
}
