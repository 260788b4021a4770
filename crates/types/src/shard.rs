//! Key-space sharding: the cluster-wide placement map.
//!
//! The paper evaluates MINOS on a single fully-replicated group, but the
//! B/O engines are per-key state machines — nothing in the protocol needs
//! global membership. [`ShardMap`] partitions the key space into
//! [`ShardId`]s by hash, assigns each shard a replica group (a
//! [`GroupId`] naming an ordered set of nodes), and versions the whole
//! assignment with a placement epoch. Every runtime (loopback, DES,
//! threaded, TCP, KV) consults the same map, so routing decisions agree
//! across harnesses.
//!
//! Placement rules:
//!
//! * `shard_of(key) = key % n_shards` — hash partition;
//! * one replica group per shard, `replication_factor()` nodes each;
//! * [`ShardMap::uniform`] lays groups out disjointly (stride
//!   `n_nodes / n_shards`) when the node count divides evenly and the
//!   factor fits the stride — the scale-out shape — and falls back to a
//!   hash-ring of consecutive nodes otherwise, which makes
//!   `uniform(n, n, k)` reproduce the legacy `replication factor k`
//!   semantics exactly (k consecutive nodes from `key % n`).

use minos_types_shard_imports::*;

mod minos_types_shard_imports {
    pub use crate::ts::{Key, NodeId};
    pub use serde::{Deserialize, Serialize};
    pub use std::collections::BTreeSet;
    pub use std::fmt;
    pub use std::str::FromStr;
}

/// Largest `S × K` an `"SxK"` spec may ask for: the map holds one entry
/// per replica slot, so a typo like `4000000000x1` is refused instead of
/// allocated.
const MAX_SPEC_PLACEMENTS: u64 = 1 << 20;

/// Identifier of one key-space partition.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of a replica group. Groups and shards are 1:1 in the
/// current map (group `g` serves shard `g`); the distinct type keeps the
/// door open for multi-shard groups without another refactor.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The cluster-wide placement map: hash partition of the key space into
/// shards, one replica group (ordered node set) per shard, versioned by
/// a monotonically increasing placement epoch.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShardMap {
    /// Placement version; bumped on every reassignment.
    epoch: u64,
    /// Total nodes the map places onto.
    n_nodes: usize,
    /// Replica group per shard (index = shard id), each an ordered,
    /// duplicate-free node list. `groups[s][0]` is the shard's home node
    /// (deterministic redirect target for non-replica submissions).
    groups: Vec<Vec<NodeId>>,
}

impl ShardMap {
    /// The unsharded map: one shard, replicated on all `n_nodes` nodes —
    /// the paper's full-replication configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero.
    #[must_use]
    pub fn single(n_nodes: usize) -> Self {
        ShardMap::uniform(1, n_nodes, n_nodes as u16)
    }

    /// `n_shards` shards over `n_nodes` nodes, `replicas` nodes per
    /// group.
    ///
    /// When `n_nodes` is a multiple of `n_shards` and `replicas` fits in
    /// the stride, groups are disjoint node ranges (shard `s` owns nodes
    /// `[s·stride, s·stride + replicas)`) — independent groups, the
    /// scale-out shape. Otherwise groups are `replicas` consecutive
    /// nodes starting at `s % n_nodes` (hash ring), which makes
    /// `uniform(n, n, k)` equal the legacy replication-factor-`k`
    /// placement.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `replicas > n_nodes`.
    #[must_use]
    pub fn uniform(n_shards: u32, n_nodes: usize, replicas: u16) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        assert!(n_nodes > 0, "need at least one node");
        let k = replicas as usize;
        assert!(
            k >= 1 && k <= n_nodes,
            "replication factor {replicas} out of range for {n_nodes} nodes"
        );
        let stride = n_nodes / n_shards as usize;
        let disjoint = n_nodes.is_multiple_of(n_shards as usize) && k <= stride;
        let groups = (0..n_shards as usize)
            .map(|s| {
                if disjoint {
                    (0..k).map(|i| NodeId((s * stride + i) as u16)).collect()
                } else {
                    let start = s % n_nodes;
                    (0..k)
                        .map(|i| NodeId(((start + i) % n_nodes) as u16))
                        .collect()
                }
            })
            .collect();
        ShardMap {
            epoch: 1,
            n_nodes,
            groups,
        }
    }

    /// Builds a map from explicit replica groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty, any group is empty or holds
    /// duplicates, or any node index is `>= n_nodes`.
    #[must_use]
    pub fn explicit(n_nodes: usize, groups: Vec<Vec<NodeId>>) -> Self {
        assert!(!groups.is_empty(), "need at least one shard group");
        for (s, g) in groups.iter().enumerate() {
            assert!(!g.is_empty(), "shard {s} has an empty replica group");
            let distinct: BTreeSet<NodeId> = g.iter().copied().collect();
            assert_eq!(distinct.len(), g.len(), "shard {s} lists a node twice");
            for n in g {
                assert!(
                    (n.0 as usize) < n_nodes,
                    "shard {s} places on node {n} but the map has {n_nodes} nodes"
                );
            }
        }
        ShardMap {
            epoch: 1,
            n_nodes,
            groups,
        }
    }

    /// The placement epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the placement epoch (a reassignment happened); returns
    /// the new epoch. Strictly monotonic.
    pub fn bump_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> u32 {
        self.groups.len() as u32
    }

    /// Number of nodes the map places onto.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Replicas per shard (groups are uniform in size for maps built by
    /// [`ShardMap::uniform`]; for explicit maps this is the largest
    /// group).
    #[must_use]
    pub fn replication_factor(&self) -> usize {
        self.groups.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The shard `key` hashes to. Total: every key maps to exactly one
    /// shard.
    #[must_use]
    pub fn shard_of(&self, key: Key) -> ShardId {
        ShardId((key.0 % self.groups.len() as u64) as u32)
    }

    /// The replica group serving `shard`.
    #[must_use]
    pub fn group_of(&self, shard: ShardId) -> GroupId {
        assert!((shard.0 as usize) < self.groups.len(), "unknown {shard}");
        GroupId(shard.0)
    }

    /// The ordered replica set of `shard`.
    #[must_use]
    pub fn replicas_of_shard(&self, shard: ShardId) -> &[NodeId] {
        &self.groups[shard.0 as usize]
    }

    /// The ordered replica set of `key`'s shard.
    #[must_use]
    pub fn replicas_of_key(&self, key: Key) -> &[NodeId] {
        self.replicas_of_shard(self.shard_of(key))
    }

    /// True when `node` replicates `key`'s shard.
    #[must_use]
    pub fn is_replica(&self, node: NodeId, key: Key) -> bool {
        self.replicas_of_key(key).contains(&node)
    }

    /// The node that serves an operation on `key` submitted at `origin`:
    /// `origin` itself when it is a replica, otherwise the shard's home
    /// node (the deterministic redirect target).
    #[must_use]
    pub fn serving(&self, origin: NodeId, key: Key) -> NodeId {
        if self.is_replica(origin, key) {
            origin
        } else {
            self.replicas_of_key(key)[0]
        }
    }

    /// The shards `node` replicates, ascending.
    #[must_use]
    pub fn shards_on(&self, node: NodeId) -> Vec<ShardId> {
        (0..self.groups.len() as u32)
            .map(ShardId)
            .filter(|&s| self.groups[s.0 as usize].contains(&node))
            .collect()
    }

    /// `Some(shard)` when `node` replicates exactly one shard — the
    /// disjoint scale-out layout, where per-node telemetry can be tagged
    /// with the node's shard.
    #[must_use]
    pub fn sole_shard_on(&self, node: NodeId) -> Option<ShardId> {
        let mut shards = self.shards_on(node).into_iter();
        match (shards.next(), shards.next()) {
            (Some(s), None) => Some(s),
            _ => None,
        }
    }

    /// Every node that shares at least one shard group with `node` (its
    /// candidate recovery donors), excluding `node` itself.
    #[must_use]
    pub fn peers_of(&self, node: NodeId) -> BTreeSet<NodeId> {
        let mut peers = BTreeSet::new();
        for g in &self.groups {
            if g.contains(&node) {
                peers.extend(g.iter().copied());
            }
        }
        peers.remove(&node);
        peers
    }

    /// True when no node replicates more than one shard and no two
    /// groups overlap — the independent-groups scale-out layout.
    #[must_use]
    pub fn is_disjoint(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.groups
            .iter()
            .all(|g| g.iter().all(|&n| seen.insert(n)))
    }

    /// Removes `node` from every replica group it appears in (the node
    /// left the cluster for good, or is being drained ahead of a
    /// re-replication) and bumps the epoch. Returns the shards that are
    /// now short one replica — the re-replication work list.
    ///
    /// # Errors
    ///
    /// Refuses (leaving the map untouched) when removing the node would
    /// empty any group: a shard must always keep at least one replica to
    /// donate from.
    pub fn remove_node(&mut self, node: NodeId) -> Result<Vec<ShardId>, String> {
        let affected: Vec<ShardId> = self.shards_on(node);
        for &s in &affected {
            if self.groups[s.0 as usize].len() == 1 {
                return Err(format!(
                    "removing node {node} would leave {s} with no replicas"
                ));
            }
        }
        for &s in &affected {
            self.groups[s.0 as usize].retain(|&n| n != node);
        }
        if !affected.is_empty() {
            self.bump_epoch();
        }
        Ok(affected)
    }

    /// Adds `node` as a replica of `shard` (the re-replication cutover:
    /// the background copy finished and the new replica goes live) and
    /// bumps the epoch.
    ///
    /// # Errors
    ///
    /// Refuses when the node already replicates the shard or its id is
    /// outside the map.
    pub fn add_replica(&mut self, shard: ShardId, node: NodeId) -> Result<u64, String> {
        assert!((shard.0 as usize) < self.groups.len(), "unknown {shard}");
        if (node.0 as usize) >= self.n_nodes {
            return Err(format!(
                "node {node} is outside the {}-node map",
                self.n_nodes
            ));
        }
        if self.groups[shard.0 as usize].contains(&node) {
            return Err(format!("node {node} already replicates {shard}"));
        }
        self.groups[shard.0 as usize].push(node);
        Ok(self.bump_epoch())
    }

    /// Shards with fewer than `target` replicas, ascending — the
    /// re-replication planner's input.
    #[must_use]
    pub fn under_replicated(&self, target: usize) -> Vec<ShardId> {
        (0..self.groups.len() as u32)
            .map(ShardId)
            .filter(|&s| self.groups[s.0 as usize].len() < target)
            .collect()
    }

    /// Picks the donor for re-replicating `shard`: the group's first
    /// member not listed in `exclude` (the home node is the
    /// longest-standing replica, so it is preferred).
    #[must_use]
    pub fn donor_for(&self, shard: ShardId, exclude: &[NodeId]) -> Option<NodeId> {
        self.groups[shard.0 as usize]
            .iter()
            .copied()
            .find(|n| !exclude.contains(n))
    }

    /// Parses the compact spec accepted by the `--shards`/`--placement`
    /// CLI flags. Two forms:
    ///
    /// * `"SxK"` — `S` shards, `K` replicas each, uniform over
    ///   `n_nodes` (e.g. `16x4`);
    /// * the explicit [`fmt::Display`] codec,
    ///   `"epoch=E;nodes=N;groups=0,1,2|3,4,5"`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn parse_spec(spec: &str, n_nodes: usize) -> Result<Self, String> {
        if spec.contains('=') {
            return spec.parse();
        }
        let (s, k) = spec
            .split_once('x')
            .ok_or_else(|| format!("placement spec {spec:?}: expected SxK or the epoch= codec"))?;
        let shards: u32 = s
            .trim()
            .parse()
            .map_err(|e| format!("placement spec {spec:?}: bad shard count: {e}"))?;
        let replicas: u16 = k
            .trim()
            .parse()
            .map_err(|e| format!("placement spec {spec:?}: bad replica count: {e}"))?;
        if shards == 0 || replicas == 0 || replicas as usize > n_nodes {
            return Err(format!(
                "placement spec {spec:?} is out of range for {n_nodes} nodes"
            ));
        }
        if u64::from(shards) * u64::from(replicas) > MAX_SPEC_PLACEMENTS {
            return Err(format!(
                "placement spec {spec:?} asks for more than {MAX_SPEC_PLACEMENTS} replica slots"
            ));
        }
        Ok(ShardMap::uniform(shards, n_nodes, replicas))
    }
}

impl fmt::Display for ShardMap {
    /// The compact text codec: `epoch=E;nodes=N;groups=0,1|2,3`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch={};nodes={};groups=", self.epoch, self.n_nodes)?;
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                f.write_str("|")?;
            }
            for (j, n) in g.iter().enumerate() {
                if j > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{}", n.0)?;
            }
        }
        Ok(())
    }
}

impl FromStr for ShardMap {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut epoch = None;
        let mut nodes = None;
        let mut groups = None;
        for field in s.split(';') {
            let (k, v) = field
                .split_once('=')
                .ok_or_else(|| format!("placement codec: field {field:?} has no '='"))?;
            match k.trim() {
                "epoch" => {
                    epoch = Some(
                        v.trim()
                            .parse::<u64>()
                            .map_err(|e| format!("placement codec: bad epoch: {e}"))?,
                    );
                }
                "nodes" => {
                    nodes = Some(
                        v.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("placement codec: bad node count: {e}"))?,
                    );
                }
                "groups" => {
                    let parsed: Result<Vec<Vec<NodeId>>, String> =
                        v.split('|')
                            .map(|g| {
                                g.split(',')
                                    .map(|n| {
                                        n.trim().parse::<u16>().map(NodeId).map_err(|e| {
                                            format!("placement codec: bad node id: {e}")
                                        })
                                    })
                                    .collect()
                            })
                            .collect();
                    groups = Some(parsed?);
                }
                other => return Err(format!("placement codec: unknown field {other:?}")),
            }
        }
        let nodes = nodes.ok_or("placement codec: missing nodes=")?;
        let groups = groups.ok_or("placement codec: missing groups=")?;
        if groups.is_empty() || groups.iter().any(Vec::is_empty) {
            return Err("placement codec: empty group".into());
        }
        for g in &groups {
            let mut seen = BTreeSet::new();
            for n in g {
                if n.0 as usize >= nodes {
                    return Err(format!("placement codec: node {n} out of range"));
                }
                if !seen.insert(n) {
                    return Err(format!("placement codec: node {n} listed twice in a group"));
                }
            }
        }
        let mut map = ShardMap::explicit(nodes, groups);
        map.epoch = epoch.unwrap_or(1);
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_maps_to_exactly_one_shard() {
        let map = ShardMap::uniform(16, 64, 4);
        for k in 0..10_000u64 {
            let s = map.shard_of(Key(k));
            assert!(s.0 < map.n_shards());
            // Deterministic: the same key always lands on the same shard.
            assert_eq!(map.shard_of(Key(k)), s);
            assert_eq!(map.replicas_of_key(Key(k)).len(), 4);
        }
    }

    #[test]
    fn uniform_disjoint_when_nodes_divide_evenly() {
        let map = ShardMap::uniform(16, 64, 4);
        assert!(map.is_disjoint());
        assert_eq!(
            map.replicas_of_shard(ShardId(0)),
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(
            map.replicas_of_shard(ShardId(15)),
            &[NodeId(60), NodeId(61), NodeId(62), NodeId(63)]
        );
        assert_eq!(map.sole_shard_on(NodeId(61)), Some(ShardId(15)));
    }

    #[test]
    fn uniform_ring_matches_legacy_replication_factor() {
        // uniform(n, n, k) must equal the legacy `replication = Some(k)`
        // placement: k consecutive nodes starting at key % n.
        let (n, k) = (5usize, 3u16);
        let map = ShardMap::uniform(n as u32, n, k);
        for key in 0..100u64 {
            let start = (key % n as u64) as usize;
            let want: Vec<NodeId> = (0..k as usize)
                .map(|i| NodeId(((start + i) % n) as u16))
                .collect();
            assert_eq!(map.replicas_of_key(Key(key)), &want[..], "key {key}");
        }
        assert!(!map.is_disjoint());
    }

    #[test]
    fn single_replicates_everywhere() {
        let map = ShardMap::single(5);
        assert_eq!(map.n_shards(), 1);
        for key in [0u64, 1, 99] {
            assert_eq!(map.replicas_of_key(Key(key)).len(), 5);
            assert!(map.is_replica(NodeId(4), Key(key)));
        }
    }

    #[test]
    fn serving_prefers_origin_then_home() {
        let map = ShardMap::uniform(2, 4, 2); // s0: n0,n1; s1: n2,n3
        let k0 = Key(0); // shard 0
        let k1 = Key(1); // shard 1
        assert_eq!(map.serving(NodeId(1), k0), NodeId(1));
        assert_eq!(map.serving(NodeId(1), k1), NodeId(2));
        assert_eq!(map.serving(NodeId(3), k0), NodeId(0));
    }

    #[test]
    fn epoch_bumps_are_monotonic() {
        let mut map = ShardMap::uniform(4, 8, 2);
        let mut last = map.epoch();
        for _ in 0..10 {
            let next = map.bump_epoch();
            assert!(next > last, "epoch must strictly increase");
            last = next;
        }
    }

    #[test]
    fn peers_share_a_group() {
        let map = ShardMap::uniform(2, 4, 2);
        assert_eq!(
            map.peers_of(NodeId(0)).into_iter().collect::<Vec<_>>(),
            vec![NodeId(1)]
        );
        let ring = ShardMap::uniform(5, 5, 3);
        assert!(ring.peers_of(NodeId(0)).len() >= 3);
    }

    #[test]
    fn codec_round_trips() {
        let mut map = ShardMap::uniform(3, 6, 2);
        map.bump_epoch();
        let text = map.to_string();
        let back: ShardMap = text.parse().expect("codec parses");
        assert_eq!(back, map);
        assert_eq!(back.epoch(), 2);
    }

    #[test]
    fn parse_spec_accepts_both_forms() {
        let uni = ShardMap::parse_spec("16x4", 64).expect("SxK");
        assert_eq!(uni, ShardMap::uniform(16, 64, 4));
        let explicit = ShardMap::parse_spec("epoch=1;nodes=4;groups=0,1|2,3", 4).expect("codec");
        assert_eq!(explicit, ShardMap::uniform(2, 4, 2));
        assert!(ShardMap::parse_spec("0x4", 64).is_err());
        assert!(ShardMap::parse_spec("4x9", 8).is_err());
        assert!(ShardMap::parse_spec("garbage", 8).is_err());
        assert!(ShardMap::parse_spec("4294967295x1", 8).is_err());
    }

    #[test]
    fn remove_node_lists_under_replicated_shards() {
        let mut map = ShardMap::uniform(2, 4, 2); // s0: n0,n1  s1: n2,n3
        let e0 = map.epoch();
        let short = map.remove_node(NodeId(1)).expect("removable");
        assert_eq!(short, vec![ShardId(0)]);
        assert_eq!(map.epoch(), e0 + 1, "removal is a view change");
        assert_eq!(map.replicas_of_shard(ShardId(0)), &[NodeId(0)]);
        assert_eq!(map.under_replicated(2), vec![ShardId(0)]);
        // Removing a node that hosts nothing is a no-op, epoch included.
        assert_eq!(map.remove_node(NodeId(1)), Ok(vec![]));
        assert_eq!(map.epoch(), e0 + 1);
    }

    #[test]
    fn last_replica_cannot_be_removed() {
        let mut map = ShardMap::explicit(2, vec![vec![NodeId(0)], vec![NodeId(1)]]);
        let err = map.remove_node(NodeId(0)).unwrap_err();
        assert!(err.contains("no replicas"), "{err}");
        assert_eq!(map.replicas_of_shard(ShardId(0)), &[NodeId(0)], "untouched");
    }

    #[test]
    fn add_replica_is_the_epoch_gated_cutover() {
        let mut map = ShardMap::uniform(2, 4, 2);
        map.remove_node(NodeId(1)).unwrap(); // epoch 2
        let e = map.add_replica(ShardId(0), NodeId(3)).expect("cutover");
        assert_eq!(e, 3);
        assert_eq!(map.replicas_of_shard(ShardId(0)), &[NodeId(0), NodeId(3)]);
        assert!(map.under_replicated(2).is_empty());
        assert!(map.add_replica(ShardId(0), NodeId(3)).is_err(), "duplicate");
        assert!(map.add_replica(ShardId(0), NodeId(9)).is_err(), "range");
    }

    #[test]
    fn donor_prefers_home_and_honors_exclusions() {
        let map = ShardMap::uniform(1, 3, 3);
        assert_eq!(map.donor_for(ShardId(0), &[]), Some(NodeId(0)));
        assert_eq!(map.donor_for(ShardId(0), &[NodeId(0)]), Some(NodeId(1)));
        assert_eq!(
            map.donor_for(ShardId(0), &[NodeId(0), NodeId(1), NodeId(2)]),
            None
        );
    }

    #[test]
    fn codec_round_trips_non_uniform_post_rereplication_map() {
        // A map as re-replication leaves it: one group grown to 3, one
        // shrunk to 1 — group sizes differ, order is not sorted.
        let mut map = ShardMap::uniform(2, 4, 2);
        map.remove_node(NodeId(2)).unwrap();
        map.add_replica(ShardId(1), NodeId(0)).unwrap();
        map.add_replica(ShardId(0), NodeId(3)).unwrap();
        assert_eq!(map.epoch(), 4);
        assert!(!map.is_disjoint());
        let text = map.to_string();
        let back: ShardMap = text.parse().expect("codec parses");
        assert_eq!(back, map, "groups, order, and epoch all survive");
        assert_eq!(back.epoch(), 4);
        assert_eq!(
            back.replicas_of_shard(ShardId(1)),
            &[NodeId(3), NodeId(0)],
            "replica order (home first) survives the round trip"
        );
    }

    #[test]
    fn explicit_validates_groups() {
        let map = ShardMap::explicit(4, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]);
        assert_eq!(map.replication_factor(), 2);
        assert_eq!(map.shards_on(NodeId(2)), vec![ShardId(1)]);
        assert!(std::panic::catch_unwind(|| {
            ShardMap::explicit(2, vec![vec![NodeId(0), NodeId(0)]])
        })
        .is_err());
    }
}
