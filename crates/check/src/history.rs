//! Operation histories and the trace-tap recorder.
//!
//! A *history* is the unit every checker in this crate consumes: client
//! operations with real-time invocation/response bounds, the timestamp
//! each op carried (a write's assigned `TS_WR`, a read's observed
//! `volatileTS`), and the coordinator that served it. Histories come
//! from two places:
//!
//! * [`HistoryRecorder`] — a [`TraceSink`] that pairs the observability
//!   layer's `OpAdmitted`/`OpCompleted` records. The `[admit, complete]`
//!   window sits strictly *inside* the client's real invocation/response
//!   interval, and every protocol effect of the op happens within it, so
//!   using it as the op interval is sound for linearizability checking
//!   (it can only make the real-time order *stricter*, never miss an
//!   ordering constraint the client could observe).
//! * Client-side recording — on the TCP runtime the torture driver's
//!   client handles timestamp their own blocking calls (every node
//!   process has its own trace epoch, so node-side `at_ns` values are
//!   not comparable across a TCP cluster).

use minos_core::obs::{OpKind, TraceEvent, TraceRecord, TraceSink};
use minos_types::{Key, NodeId, ScopeId, Ts};
use std::collections::{BTreeMap, HashMap};

/// One client operation, with its real-time interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientOp {
    /// The coordinator that served the op.
    pub node: NodeId,
    /// Request correlation id (unique per coordinator).
    pub req: u64,
    /// Operation class.
    pub kind: OpKind,
    /// Target record, if the op names one.
    pub key: Option<Key>,
    /// Scope the op carries (`<Lin, Scope>` only).
    pub scope: Option<ScopeId>,
    /// Invocation time, nanoseconds on the history's shared clock.
    pub call: u64,
    /// Response time; `None` while the op never returned (its effects
    /// may or may not have taken place — a crashed coordinator, a write
    /// wedged by chaos, a run that ended mid-op).
    pub ret: Option<u64>,
    /// A write's assigned `TS_WR` / a read's observed `volatileTS`.
    /// `None` for scope flushes and for ops that never completed.
    pub ts: Option<Ts>,
    /// Write cut short as obsolete (§III-A). Metadata only: the checkers
    /// derive everything they need from timestamps and intervals, so
    /// histories that cannot observe this flag (the TCP wire) leave it
    /// `false`.
    pub obsolete: bool,
}

impl ClientOp {
    /// True once the op returned to the client.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.ret.is_some()
    }

    /// Response time, with `u64::MAX` standing in for "never returned".
    #[must_use]
    pub fn ret_or_inf(&self) -> u64 {
        self.ret.unwrap_or(u64::MAX)
    }

    /// True when `self` and `other` overlap in real time.
    #[must_use]
    pub fn overlaps(&self, other: &ClientOp) -> bool {
        self.call <= other.ret_or_inf() && other.call <= self.ret_or_inf()
    }
}

/// A complete run: every client operation the run produced, completed or
/// not, on one shared clock.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// The operations, in no particular order.
    pub ops: Vec<ClientOp>,
}

impl History {
    /// Completed operations only.
    pub fn completed(&self) -> impl Iterator<Item = &ClientOp> {
        self.ops.iter().filter(|o| o.is_complete())
    }

    /// Indices of the keyed ops (writes + reads), grouped per key.
    #[must_use]
    pub fn per_key(&self) -> BTreeMap<Key, Vec<usize>> {
        let mut by_key: BTreeMap<Key, Vec<usize>> = BTreeMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            if let Some(key) = op.key {
                if op.kind != OpKind::PersistScope {
                    by_key.entry(key).or_default().push(i);
                }
            }
        }
        by_key
    }

    /// Completed writes (any obsoleteness), as `(key, ts, op)`.
    pub fn completed_writes(&self) -> impl Iterator<Item = (Key, Ts, &ClientOp)> {
        self.completed()
            .filter_map(|o| match (o.kind, o.key, o.ts) {
                (OpKind::Write, Some(k), Some(ts)) => Some((k, ts, o)),
                _ => None,
            })
    }

    /// Completed reads, as `(key, observed_ts, op)`.
    pub fn completed_reads(&self) -> impl Iterator<Item = (Key, Ts, &ClientOp)> {
        self.completed()
            .filter_map(|o| match (o.kind, o.key, o.ts) {
                (OpKind::Read, Some(k), Some(ts)) => Some((k, ts, o)),
                _ => None,
            })
    }

    /// True when some write on `key` overlaps `op` and either has a
    /// newer timestamp than `ts` or an unknown one (never completed).
    /// While such a write exists, a follower may legitimately have
    /// treated `ts` as obsolete-on-arrival and skipped its local persist
    /// (the superseding durable version stands in for it); without one,
    /// the write's INV can never have arrived obsolete anywhere and its
    /// durability must be *exact*.
    #[must_use]
    pub fn has_newer_overlapping_write(&self, key: Key, ts: Ts, op: &ClientOp) -> bool {
        self.ops.iter().any(|w| {
            w.kind == OpKind::Write
                && w.key == Some(key)
                && !std::ptr::eq(w, op)
                && w.overlaps(op)
                && w.ts.is_none_or(|wts| wts.newer_than(ts))
        })
    }
}

/// A [`TraceSink`] that folds `OpAdmitted`/`OpCompleted` trace records
/// into a [`History`]. Attach one (via [`minos_core::obs::shared`]) to
/// any harness that takes sinks — the loopback clusters, the threaded
/// cluster, the DES simulators — and [`snapshot`](Self::snapshot) the
/// history when the run quiesces.
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    pending: HashMap<(u16, u64), ClientOp>,
    done: Vec<ClientOp>,
}

impl HistoryRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        HistoryRecorder::default()
    }

    /// Completed operations so far. The torture driver polls this to
    /// place crash points ("crash node 2 after 17 completed ops") so
    /// crash schedules are phrased in protocol progress, not wall time.
    #[must_use]
    pub fn completed_count(&self) -> usize {
        self.done.len()
    }

    /// The history so far: completed ops plus every still-pending
    /// invocation (with `ret: None`).
    #[must_use]
    pub fn snapshot(&self) -> History {
        let mut ops = self.done.clone();
        ops.extend(self.pending.values().cloned());
        History { ops }
    }
}

impl TraceSink for HistoryRecorder {
    fn record(&mut self, rec: &TraceRecord) {
        match rec.event {
            TraceEvent::OpAdmitted {
                op,
                req,
                key,
                scope,
            } => {
                self.pending.insert(
                    (rec.node.0, req.0),
                    ClientOp {
                        node: rec.node,
                        req: req.0,
                        kind: op,
                        key,
                        scope,
                        call: rec.at_ns,
                        ret: None,
                        ts: None,
                        obsolete: false,
                    },
                );
            }
            TraceEvent::OpCompleted {
                op,
                req,
                key,
                obsolete,
                ts,
            } => {
                let mut rec_op = self.pending.remove(&(rec.node.0, req.0)).unwrap_or(
                    // Admission predates the recorder's attachment; the
                    // zero-length interval is the soundest available.
                    ClientOp {
                        node: rec.node,
                        req: req.0,
                        kind: op,
                        key,
                        scope: None,
                        call: rec.at_ns,
                        ret: None,
                        ts: None,
                        obsolete: false,
                    },
                );
                rec_op.ret = Some(rec.at_ns);
                rec_op.ts = ts;
                rec_op.obsolete = obsolete;
                self.done.push(rec_op);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_core::ReqId;

    fn rec(at_ns: u64, node: u16, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at_ns,
            node: NodeId(node),
            event,
            meta: minos_core::obs::TraceMeta::default(),
        }
    }

    #[test]
    fn recorder_pairs_admit_and_complete() {
        let mut r = HistoryRecorder::new();
        r.record(&rec(
            10,
            0,
            TraceEvent::OpAdmitted {
                op: OpKind::Write,
                req: ReqId(7),
                key: Some(Key(1)),
                scope: Some(ScopeId(3)),
            },
        ));
        assert_eq!(r.completed_count(), 0);
        r.record(&rec(
            50,
            0,
            TraceEvent::OpCompleted {
                op: OpKind::Write,
                req: ReqId(7),
                key: Some(Key(1)),
                obsolete: false,
                ts: Some(Ts::new(NodeId(0), 1)),
            },
        ));
        let h = r.snapshot();
        assert_eq!(h.ops.len(), 1);
        let op = &h.ops[0];
        assert_eq!((op.call, op.ret), (10, Some(50)));
        assert_eq!(op.scope, Some(ScopeId(3)));
        assert_eq!(op.ts, Some(Ts::new(NodeId(0), 1)));
    }

    #[test]
    fn unmatched_admissions_stay_pending_in_snapshot() {
        let mut r = HistoryRecorder::new();
        r.record(&rec(
            5,
            2,
            TraceEvent::OpAdmitted {
                op: OpKind::Read,
                req: ReqId(1),
                key: Some(Key(9)),
                scope: None,
            },
        ));
        let h = r.snapshot();
        assert_eq!(h.ops.len(), 1);
        assert!(!h.ops[0].is_complete());
        assert_eq!(h.ops[0].ret_or_inf(), u64::MAX);
    }

    #[test]
    fn same_req_on_distinct_nodes_does_not_collide() {
        let mut r = HistoryRecorder::new();
        for n in 0..2 {
            r.record(&rec(
                n as u64,
                n,
                TraceEvent::OpAdmitted {
                    op: OpKind::Write,
                    req: ReqId(1),
                    key: Some(Key(0)),
                    scope: None,
                },
            ));
        }
        assert_eq!(r.snapshot().ops.len(), 2);
    }
}
