//! Node-local record store shared by the baseline and offload engines.

use minos_types::{Key, NodeId, Record, RecordMeta, ShardMap, Ts, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// The volatile, node-local view of every record plus timestamp-issuing
/// state.
///
/// Records are created lazily with zeroed metadata and an empty value, so a
/// cluster does not need a loading phase; `minos-kv` pre-populates the
/// store for YCSB-style workloads.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Store {
    records: BTreeMap<Key, Record>,
    /// Highest version this node has issued per key. The paper issues
    /// `volatileTS.version + 1`; two back-to-back client-writes at the same
    /// node could then collide, so we additionally floor on the last
    /// locally-issued version (documented in DESIGN.md §1).
    last_issued: BTreeMap<Key, u32>,
    /// Keys whose record holds an RDLock or WRLock — the lock-table
    /// gauge, kept exact by [`RecordMut`]'s drop and by [`Store::load`].
    locked: BTreeSet<Key>,
}

/// `locked` is a function of `records`, so hashing it would add nothing;
/// leaving it out keeps state fingerprints (the model checker's visited
/// set) what they were before the index existed.
impl Hash for Store {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.records.hash(state);
        self.last_issued.hash(state);
    }
}

/// Whether `meta` counts toward the lock-table gauge.
fn holds_lock(meta: &RecordMeta) -> bool {
    meta.rd_lock_owner.is_some() || meta.wr_lock
}

/// Mutable access to one record, from [`Store::record_mut`]. On drop it
/// brings the store's locked-key index up to date when the record's lock
/// state changed while it was held.
#[derive(Debug)]
pub struct RecordMut<'a> {
    key: Key,
    record: &'a mut Record,
    locked: &'a mut BTreeSet<Key>,
    was_locked: bool,
}

impl Deref for RecordMut<'_> {
    type Target = Record;

    fn deref(&self) -> &Record {
        self.record
    }
}

impl DerefMut for RecordMut<'_> {
    fn deref_mut(&mut self) -> &mut Record {
        self.record
    }
}

impl Drop for RecordMut<'_> {
    fn drop(&mut self) {
        let now = holds_lock(&self.record.meta);
        if now != self.was_locked {
            if now {
                self.locked.insert(self.key);
            } else {
                self.locked.remove(&self.key);
            }
        }
    }
}

impl Store {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Store::default()
    }

    /// Pre-populates `key` with `value` (metadata zeroed, so unlocked).
    pub fn load(&mut self, key: Key, value: Value) {
        self.records.insert(key, Record::new(key, value));
        self.locked.remove(&key);
    }

    /// Read-only access to a record's metadata (zeroed default if the
    /// record has never been touched).
    #[must_use]
    pub fn meta(&self, key: Key) -> RecordMeta {
        self.records.get(&key).map(|r| r.meta).unwrap_or_default()
    }

    /// Mutable access to a record, creating it lazily. The guard keeps
    /// the lock-table index exact when it drops.
    pub fn record_mut(&mut self, key: Key) -> RecordMut<'_> {
        let record = self
            .records
            .entry(key)
            .or_insert_with(|| Record::new(key, Value::new()));
        let was_locked = holds_lock(&record.meta);
        RecordMut {
            key,
            record,
            locked: &mut self.locked,
            was_locked,
        }
    }

    /// Read-only access to a record, if present.
    #[must_use]
    pub fn record(&self, key: Key) -> Option<&Record> {
        self.records.get(&key)
    }

    /// Issues a fresh `TS_WR` for a client-write at `node` (§III-A), with
    /// the local-monotonicity floor described above.
    pub fn issue_ts(&mut self, key: Key, node: NodeId) -> Ts {
        let cur = self.meta(key).volatile_ts.version;
        let floor = self.last_issued.get(&key).copied().unwrap_or(0);
        let version = cur.max(floor) + 1;
        self.last_issued.insert(key, version);
        Ts::new(node, version)
    }

    /// Applies a local-write: raises `volatileTS` and stores the value.
    /// Callers must have passed the obsoleteness check.
    pub fn apply_local_write(&mut self, key: Key, ts: Ts, value: Value) {
        let mut rec = self.record_mut(key);
        rec.meta.raise_volatile(ts);
        rec.value = value;
    }

    /// Iterates over all records (used by recovery and invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Record)> {
        self.records.iter()
    }

    /// Records whose metadata currently holds an RDLock or WRLock — the
    /// lock-table-size resource gauge
    /// ([`GaugeKind::LockTableSize`](crate::obs::GaugeKind)). O(1): the
    /// size of the locked-key index.
    #[must_use]
    pub fn locked_records(&self) -> usize {
        self.locked.len()
    }

    /// Locked records grouped by the shard each key hashes to under
    /// `map`; shards with no locked records are omitted. Walks only the
    /// locked keys.
    #[must_use]
    pub fn locked_records_by_shard(&self, map: &ShardMap) -> BTreeMap<u32, usize> {
        let mut by_shard = BTreeMap::new();
        for key in &self.locked {
            *by_shard.entry(map.shard_of(*key).0).or_insert(0) += 1;
        }
        by_shard
    }

    /// Number of materialized records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no record has been materialized.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn issue_ts_increments_from_volatile() {
        let mut s = Store::new();
        let t1 = s.issue_ts(Key(1), NodeId(2));
        assert_eq!(t1, Ts::new(NodeId(2), 1));
    }

    #[test]
    fn issue_ts_never_repeats_locally() {
        let mut s = Store::new();
        let t1 = s.issue_ts(Key(1), NodeId(0));
        let t2 = s.issue_ts(Key(1), NodeId(0));
        assert!(t2 > t1, "{t2} must be newer than {t1}");
    }

    #[test]
    fn issue_ts_respects_remote_updates() {
        let mut s = Store::new();
        s.apply_local_write(Key(1), Ts::new(NodeId(4), 9), Bytes::from_static(b"x"));
        let t = s.issue_ts(Key(1), NodeId(0));
        assert_eq!(t.version, 10);
    }

    #[test]
    fn apply_local_write_is_monotone() {
        let mut s = Store::new();
        s.apply_local_write(Key(1), Ts::new(NodeId(1), 5), Bytes::from_static(b"new"));
        // An older write slipping through must not regress volatileTS.
        s.apply_local_write(Key(1), Ts::new(NodeId(0), 4), Bytes::from_static(b"old"));
        assert_eq!(s.meta(Key(1)).volatile_ts, Ts::new(NodeId(1), 5));
    }

    #[test]
    fn lazy_records_have_zero_meta() {
        let s = Store::new();
        assert_eq!(s.meta(Key(77)), RecordMeta::default());
        assert!(s.is_empty());
    }

    #[test]
    fn load_prepopulates() {
        let mut s = Store::new();
        s.load(Key(3), Bytes::from_static(b"v"));
        assert_eq!(s.record(Key(3)).unwrap().value, Bytes::from_static(b"v"));
        assert_eq!(s.len(), 1);
    }
}
