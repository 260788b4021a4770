//! The correctness gate: linearizability and persistency of a live run,
//! checked after the timed phase with the repository's checkers.
//!
//! `minos_check::linearize::check` caps one key at 4096 operations and
//! `persistency::check` is quadratic in the operations it is handed, while
//! a zipfian run puts tens of thousands of operations on its hottest key.
//! Both checks are therefore fed in exact decompositions:
//!
//! * linearizability is checked per key, split at *quiescent cuts*: points
//!   where every earlier operation on the key has returned before any later
//!   one is invoked. Real time then orders every earlier operation before
//!   every later one, and the max-register state at the cut is the largest
//!   timestamp written before it, so each chunk is checked with one extra
//!   completed write carrying that timestamp just before the chunk;
//! * persistency oracles relate a key's writes only to that key's log
//!   entries, so the history and the logs are split per key.

use minos_check::history::{ClientOp, History};
use minos_check::linearize;
use minos_check::persistency::{self, AuditMode, NodeLog};
use minos_core::obs::OpKind;
use minos_nvm::LogEntry;
use minos_types::{Key, NodeId, PersistencyModel, Ts};
use std::collections::BTreeMap;

/// Largest per-key chunk handed to the linearizability checker.
const CHUNK_OPS: usize = 1024;

/// Per-key chunks are renamed to distinct keys above this bit so one
/// checker call covers them all; schedules draw keys below it.
const CHUNK_KEY_SHIFT: u32 = 40;

fn by_key(h: &History) -> BTreeMap<Key, Vec<&ClientOp>> {
    let mut out: BTreeMap<Key, Vec<&ClientOp>> = BTreeMap::new();
    for op in &h.ops {
        // An unanswered read constrains nothing and would block every
        // later cut on its key.
        if op.kind == OpKind::Read && op.ret.is_none() {
            continue;
        }
        if let Some(k) = op.key {
            out.entry(k).or_default().push(op);
        }
    }
    out
}

/// Splits each key's operations at quiescent cuts into chunks of at most
/// [`CHUNK_OPS`] (a chunk grows past it only when no cut exists), renames
/// every chunk to its own key, and seeds each chunk after the first with a
/// completed write of the timestamp the key held at the cut.
fn chunked(h: &History) -> History {
    let mut out = Vec::with_capacity(h.ops.len());
    for (key, mut ops) in by_key(h) {
        assert!(
            key.0 >> CHUNK_KEY_SHIFT == 0,
            "key {key} collides with chunk ids"
        );
        ops.sort_by_key(|o| o.call);
        let mut chunk = 0u64;
        let mut in_chunk = 0usize;
        let mut latest_ret = 0u64;
        let mut reg = Ts::zero();
        for op in ops {
            if in_chunk >= CHUNK_OPS && latest_ret < op.call {
                chunk += 1;
                in_chunk = 0;
                if reg != Ts::zero() {
                    out.push(ClientOp {
                        node: reg.node,
                        req: u64::MAX,
                        kind: OpKind::Write,
                        key: Some(Key(key.0 | chunk << CHUNK_KEY_SHIFT)),
                        scope: None,
                        call: op.call - 1,
                        ret: Some(op.call - 1),
                        ts: Some(reg),
                        obsolete: false,
                    });
                }
            }
            latest_ret = latest_ret.max(op.ret_or_inf());
            if op.kind == OpKind::Write {
                if let Some(ts) = op.ts {
                    reg = reg.max(ts);
                }
            }
            let mut op = op.clone();
            op.key = Some(Key(key.0 | chunk << CHUNK_KEY_SHIFT));
            out.push(op);
            in_chunk += 1;
        }
    }
    History { ops: out }
}

/// Linearizability violations of `h` (empty = linearizable).
pub fn linearizable(h: &History) -> Vec<String> {
    linearize::check(&chunked(h))
}

/// Persistency violations of `h` against every node's durable log under
/// `model` (empty = conforms).
pub fn persistent(
    model: PersistencyModel,
    h: &History,
    logs: &[(NodeId, Vec<LogEntry>)],
) -> Vec<String> {
    let ops = by_key(h);
    let mut entries: BTreeMap<Key, Vec<Vec<(Key, Ts)>>> = BTreeMap::new();
    for (i, (_, log)) in logs.iter().enumerate() {
        for e in log {
            entries
                .entry(e.key)
                .or_insert_with(|| vec![Vec::new(); logs.len()])[i]
                .push((e.key, e.ts));
        }
    }
    let keys: std::collections::BTreeSet<Key> = ops.keys().chain(entries.keys()).copied().collect();
    let mut violations = Vec::new();
    for key in keys {
        let sub = History {
            ops: ops
                .get(&key)
                .map_or_else(Vec::new, |v| v.iter().map(|&o| o.clone()).collect()),
        };
        let per_node = entries
            .remove(&key)
            .unwrap_or_else(|| vec![Vec::new(); logs.len()]);
        let node_logs: Vec<NodeLog> = logs
            .iter()
            .zip(per_node)
            .map(|((node, _), entries)| NodeLog {
                node: *node,
                entries,
                mode: AuditMode::Full,
            })
            .collect();
        violations.extend(persistency::check(model, &sub, &node_logs));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(write: bool, key: u64, ts: Ts, call: u64, ret: u64) -> ClientOp {
        ClientOp {
            node: ts.node,
            req: call,
            kind: if write { OpKind::Write } else { OpKind::Read },
            key: Some(Key(key)),
            scope: None,
            call,
            ret: Some(ret),
            ts: Some(ts),
            obsolete: false,
        }
    }

    /// A long sequential history on one key: writes with rising
    /// versions, each followed by a read of it.
    fn sequential(n: u32, stale_at: Option<u32>) -> History {
        let mut ops = Vec::new();
        for v in 1..=n {
            let t = u64::from(v) * 10;
            let w = Ts::new(NodeId(0), v);
            ops.push(op(true, 7, w, t, t + 2));
            let seen = if Some(v) == stale_at {
                Ts::new(NodeId(0), v - 1)
            } else {
                w
            };
            ops.push(op(false, 7, seen, t + 4, t + 6));
        }
        History { ops }
    }

    #[test]
    fn long_sequential_history_is_linearizable_across_chunks() {
        let h = sequential(3000, None);
        assert!(chunked(&h).per_key().len() > 1, "history was not split");
        assert!(linearizable(&h).is_empty());
    }

    #[test]
    fn stale_read_after_a_cut_is_caught() {
        // The stale read sits deep in a later chunk and in its first op.
        for stale in [2500, 1 + CHUNK_OPS as u32 / 2] {
            let h = sequential(3000, Some(stale));
            assert!(
                !linearizable(&h).is_empty(),
                "stale read at v{stale} missed"
            );
        }
    }

    #[test]
    fn persistency_needs_each_write_in_every_log() {
        let w = Ts::new(NodeId(0), 1);
        let h = History {
            ops: vec![op(true, 3, w, 0, 5)],
        };
        let entry = LogEntry {
            lsn: 0,
            key: Key(3),
            ts: w,
            value: bytes::Bytes::from_static(b"x"),
        };
        let full = [(NodeId(0), vec![entry.clone()]), (NodeId(1), vec![entry])];
        assert!(persistent(PersistencyModel::Synchronous, &h, &full).is_empty());
        let missing = [(NodeId(0), full[0].1.clone()), (NodeId(1), Vec::new())];
        assert_eq!(
            persistent(PersistencyModel::Synchronous, &h, &missing).len(),
            1
        );
    }
}
