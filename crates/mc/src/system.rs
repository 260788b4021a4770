//! The system under check, for either protocol.

use crate::explore::{explore, hash_debug, McReport, System, Violation};
use crate::invariants::{
    check_acked_visibility, check_bookkeeping, check_read_visibility, check_timestamp_staging,
    check_unlocked_agreement, legal_message, NodeView,
};
use crate::workload::{McOp, Workload};
use minos_core::runtime::{Completion, Dispatcher, Immediate, Protocol, Transport};
use minos_core::{NodeEngine, ONodeEngine, ReqId};
use minos_types::{DdpModel, Message, NodeId, ScopeId};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

#[derive(Clone)]
pub(crate) struct McSystem<P: Protocol> {
    model: DdpModel,
    engines: Vec<P>,
    /// Deliverable events: every interleaving of these is explored.
    inflight: Vec<(NodeId, P::Event)>,
    /// `[PERSIST]sc` ops staged until all writes complete.
    staged: Vec<(NodeId, ScopeId, ReqId)>,
    expected_writes: usize,
    expected_reads: usize,
    expected_persists: usize,
    writes_done: usize,
    reads_done: usize,
    persists_done: usize,
    /// Violations detected while dispatching (illegal messages).
    dispatch_violations: Vec<Violation>,
}

impl<P: Protocol> McSystem<P> {
    /// The system over `engines` (one per workload node), seeded with
    /// `w`'s operations.
    fn new(model: DdpModel, w: &Workload, engines: Vec<P>) -> Self {
        let mut sys = McSystem {
            model,
            engines,
            inflight: Vec::new(),
            staged: Vec::new(),
            expected_writes: 0,
            expected_reads: 0,
            expected_persists: 0,
            writes_done: 0,
            reads_done: 0,
            persists_done: 0,
            dispatch_violations: Vec::new(),
        };
        for (i, op) in w.ops.iter().enumerate() {
            let req = ReqId(i as u64 + 1);
            match op.clone() {
                McOp::Write {
                    node,
                    key,
                    value,
                    scope,
                } => {
                    sys.expected_writes += 1;
                    sys.inflight
                        .push((node, P::client_write(key, value, scope, req)));
                }
                McOp::Read { node, key } => {
                    sys.expected_reads += 1;
                    sys.inflight.push((node, P::client_read(key, req)));
                }
                McOp::PersistScope { node, scope } => {
                    sys.expected_persists += 1;
                    sys.staged.push((node, scope, req));
                }
            }
        }
        sys
    }

    fn keys(&self) -> BTreeSet<minos_types::Key> {
        self.engines.iter().flat_map(P::keys).collect()
    }

    fn views(&self) -> Vec<NodeView> {
        let keys = self.keys();
        self.engines
            .iter()
            .map(|e| NodeView {
                node: e.node(),
                // Only replicated keys: non-replicas hold no copy to
                // compare (partial-replication extension).
                metas: keys
                    .iter()
                    .filter(|&&k| e.is_replica(k))
                    .map(|&k| (k, e.record_meta(k)))
                    .collect(),
                coord_txs: e.coord_tx_views(),
                quiescent: e.is_quiescent(),
            })
            .collect()
    }
}

/// Dispatch handler for one model-checker transition: every effect —
/// network, persist, PCIe, FIFO — becomes a deliverable in-flight event,
/// so the explorer interleaves them freely, and each send is audited
/// against the Table I condition 4a legal message set for the model
/// under check.
struct McHandler<'a, P: Protocol> {
    model: DdpModel,
    node: NodeId,
    inflight: &'a mut Vec<(NodeId, P::Event)>,
    violations: &'a mut Vec<Violation>,
    writes_done: &'a mut usize,
    reads_done: &'a mut usize,
    persists_done: &'a mut usize,
}

impl<P: Protocol> McHandler<'_, P> {
    fn audit(&mut self, msg: &Message, verb: &str) {
        if !legal_message(self.model, msg) {
            self.violations.push(Violation {
                condition: "4a legal message set".into(),
                detail: format!("{} {verb} {msg} under {}", self.node, self.model),
            });
        }
    }
}

impl<P: Protocol> Transport for McHandler<'_, P> {
    fn send(&mut self, to: NodeId, msg: Message) {
        self.audit(&msg, "sent");
        self.inflight.push((to, P::net_message(self.node, msg)));
    }

    fn broadcast(&mut self, dests: &[NodeId], msg: Message) {
        self.audit(&msg, "fanned out");
        for &to in dests {
            self.inflight
                .push((to, P::net_message(self.node, msg.clone())));
        }
    }
}

impl<P: Protocol> Immediate<P> for McHandler<'_, P> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn deliver(&mut self, to: NodeId, event: P::Event) {
        self.inflight.push((to, event));
    }

    fn done(&mut self, done: Completion) {
        match done {
            Completion::Write { .. } => *self.writes_done += 1,
            Completion::Read { .. } => *self.reads_done += 1,
            Completion::PersistScope { .. } => *self.persists_done += 1,
            Completion::MultiWrite { .. } => unreachable!("a dispatch never completes a barrier"),
        }
    }
}

impl<P: Protocol + Hash> System for McSystem<P> {
    fn deliverable(&self) -> usize {
        self.inflight.len()
    }

    fn deliver(&self, i: usize) -> Self {
        let mut next = self.clone();
        let (node, ev) = next.inflight.remove(i);
        // A fresh dispatcher per transition: the checker explores a tree
        // of cloned states, so cumulative statistics are meaningless.
        let mut dispatcher = Dispatcher::new();
        let mut handler = McHandler {
            model: next.model,
            node,
            inflight: &mut next.inflight,
            violations: &mut next.dispatch_violations,
            writes_done: &mut next.writes_done,
            reads_done: &mut next.reads_done,
            persists_done: &mut next.persists_done,
        };
        P::dispatch_immediate(
            &mut dispatcher,
            &mut next.engines[node.0 as usize],
            ev,
            None,
            &mut handler,
        );
        // Clients issue [PERSIST]sc only after their writes returned.
        if next.writes_done == next.expected_writes && !next.staged.is_empty() {
            for (node, scope, req) in std::mem::take(&mut next.staged) {
                next.inflight
                    .push((node, P::client_persist_scope(scope, req)));
            }
        }
        next
    }

    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for e in &self.engines {
            e.hash(&mut h);
        }
        let mut pending: Vec<String> = self
            .inflight
            .iter()
            .map(|(n, ev)| format!("{n}:{ev:?}"))
            .collect();
        pending.sort_unstable();
        for p in &pending {
            h.write(p.as_bytes());
        }
        hash_debug(&mut h, &self.staged);
        h.write_usize(self.writes_done);
        h.write_usize(self.reads_done);
        h.write_usize(self.persists_done);
        h.finish()
    }

    fn check_state(&self, out: &mut Vec<Violation>) {
        out.extend(self.dispatch_violations.iter().cloned());
        let views = self.views();
        check_timestamp_staging(self.model, &views, out);
        check_acked_visibility(&views, out);
        check_read_visibility(&views, out);
        check_bookkeeping(self.engines.len(), &views, out);
    }

    fn check_terminal(&self, out: &mut Vec<Violation>) {
        // Agreement conditions 2(a)/3(a) are exact at terminal states.
        check_unlocked_agreement(self.model, &self.views(), out);
        // 1. No deadlock: a terminal state must be fully quiescent with
        // every seeded operation completed.
        for e in &self.engines {
            if !e.is_quiescent() {
                out.push(Violation {
                    condition: "1 deadlock freedom".into(),
                    detail: format!("terminal state but {} is not quiescent", e.node()),
                });
            }
        }
        if self.writes_done != self.expected_writes
            || self.reads_done != self.expected_reads
            || self.persists_done != self.expected_persists
        {
            out.push(Violation {
                condition: "1 completion".into(),
                detail: format!(
                    "terminal state completed {}/{} writes, {}/{} reads, {}/{} persists",
                    self.writes_done,
                    self.expected_writes,
                    self.reads_done,
                    self.expected_reads,
                    self.persists_done,
                    self.expected_persists
                ),
            });
        }
        // Replica convergence: every record equal across its replicas.
        for key in self.keys() {
            let values: Vec<_> = self
                .engines
                .iter()
                .filter(|e| e.is_replica(key))
                .map(|e| (e.node(), e.record_value(key)))
                .collect();
            if let Some((_, v0)) = values.first() {
                for (n, v) in &values[1..] {
                    if v != v0 {
                        out.push(Violation {
                            condition: "terminal replica convergence".into(),
                            detail: format!("{key} diverges at {n}"),
                        });
                    }
                }
            }
        }
    }
}

/// MINOS-B engines for `w`, with RDLock snatching and partial
/// replication configured.
fn b_engines(model: DdpModel, w: &Workload, snatch: bool, k: Option<u16>) -> Vec<NodeEngine> {
    (0..w.nodes)
        .map(|i| {
            let mut e = NodeEngine::new(NodeId(i as u16), w.nodes, model);
            e.set_snatch_enabled(snatch);
            e.set_replication_factor(k);
            e
        })
        .collect()
}

/// Model-checks MINOS-B under `model` on `workload`, exploring up to
/// `max_states` distinct states.
#[must_use]
pub fn check_baseline(model: DdpModel, workload: &Workload, max_states: usize) -> McReport {
    let engines = b_engines(model, workload, true, None);
    explore(McSystem::new(model, workload, engines), max_states)
}

/// Model-checks the partial-replication extension: each record lives on
/// `k` nodes; writes redirect and reads forward. The same Table I
/// invariants are checked, with agreement restricted to replicas.
#[must_use]
pub fn check_baseline_replicated(
    model: DdpModel,
    workload: &Workload,
    k: u16,
    max_states: usize,
) -> McReport {
    let engines = b_engines(model, workload, true, Some(k));
    explore(McSystem::new(model, workload, engines), max_states)
}

/// Fault injection: model-checks MINOS-B with the §III-A RDLock-snatching
/// rule disabled. The read-visibility invariant (condition 2d) is
/// expected to catch the resulting exposure of unacknowledged writes —
/// this validates both the checker and the paper's design rationale.
#[must_use]
pub fn check_baseline_no_snatch(
    model: DdpModel,
    workload: &Workload,
    max_states: usize,
) -> McReport {
    let engines = b_engines(model, workload, false, None);
    explore(McSystem::new(model, workload, engines), max_states)
}

/// Model-checks MINOS-O under `model` on `workload`, exploring up to
/// `max_states` distinct states.
#[must_use]
pub fn check_offload(model: DdpModel, workload: &Workload, max_states: usize) -> McReport {
    let engines = (0..workload.nodes)
        .map(|i| ONodeEngine::new(NodeId(i as u16), workload.nodes, model))
        .collect();
    explore(McSystem::new(model, workload, engines), max_states)
}
