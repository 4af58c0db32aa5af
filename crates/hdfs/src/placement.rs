//! Replica placement.
//!
//! [`place_replicas`] mimics HDFS's `BlockPlacementPolicyDefault`: first
//! replica on the writer's node (or a random node for remote writers),
//! second on a node in a *different* rack, third on a different node in the
//! *same rack as the second*; further replicas land on random nodes. On a
//! single-rack cluster all replicas are distinct random nodes.

use crate::topology::{NodeId, Topology};
use rand::seq::SliceRandom;
use rand::Rng;

/// Choose `replication` distinct nodes (capped by the cluster size) for a
/// block written from `writer` (if any), by the HDFS default policy (see
/// module docs).
pub fn place_replicas<R: Rng + ?Sized>(
    topo: &Topology,
    writer: Option<NodeId>,
    replication: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let replication = replication.min(topo.num_nodes()).max(1);
    let mut chosen: Vec<NodeId> = Vec::with_capacity(replication);

    // Replica 1: writer-local, or random.
    let first = writer.unwrap_or_else(|| NodeId(rng.gen_range(0..topo.num_nodes() as u32)));
    chosen.push(first);

    // Replica 2: a node in a different rack, if one exists.
    if replication >= 2 {
        let off_rack: Vec<NodeId> = topo
            .nodes()
            .filter(|&n| !topo.same_rack(n, first) && !chosen.contains(&n))
            .collect();
        let pick = if off_rack.is_empty() {
            random_excluding(topo, &chosen, rng)
        } else {
            off_rack.choose(rng).copied()
        };
        if let Some(n) = pick {
            chosen.push(n);
        }
    }

    // Replica 3: same rack as replica 2, different node.
    if replication >= 3 && chosen.len() >= 2 {
        let second = chosen[1];
        let same_rack: Vec<NodeId> = topo
            .nodes_in_rack(topo.rack_of(second))
            .iter()
            .copied()
            .filter(|n| !chosen.contains(n))
            .collect();
        let pick = if same_rack.is_empty() {
            random_excluding(topo, &chosen, rng)
        } else {
            same_rack.choose(rng).copied()
        };
        if let Some(n) = pick {
            chosen.push(n);
        }
    }

    // Remaining replicas: random distinct nodes.
    while chosen.len() < replication {
        match random_excluding(topo, &chosen, rng) {
            Some(n) => chosen.push(n),
            None => break,
        }
    }
    chosen
}

fn random_excluding<R: Rng + ?Sized>(
    topo: &Topology,
    exclude: &[NodeId],
    rng: &mut R,
) -> Option<NodeId> {
    let candidates: Vec<NodeId> = topo.nodes().filter(|n| !exclude.contains(n)).collect();
    candidates.choose(rng).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn default_policy_replicas_are_distinct() {
        let topo = Topology::with_racks(&[3, 3]);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let r = place_replicas(&topo, Some(NodeId(0)), 3, &mut rng);
            assert_eq!(r.len(), 3);
            assert_eq!(r[0], NodeId(0), "first replica is writer-local");
            let mut d = r.clone();
            d.sort();
            d.dedup();
            assert_eq!(d.len(), 3, "replicas must be distinct: {r:?}");
            // Second replica off-rack from the writer.
            assert!(!topo.same_rack(r[0], r[1]));
            // Third replica in the same rack as the second.
            assert!(topo.same_rack(r[1], r[2]));
        }
    }

    #[test]
    fn single_rack_fallback() {
        let topo = Topology::single_rack(4);
        let mut rng = SmallRng::seed_from_u64(2);
        let r = place_replicas(&topo, Some(NodeId(2)), 3, &mut rng);
        assert_eq!(r.len(), 3);
        let mut d = r.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn replication_capped_by_cluster_size() {
        let topo = Topology::single_rack(2);
        let mut rng = SmallRng::seed_from_u64(3);
        let r = place_replicas(&topo, None, 3, &mut rng);
        assert_eq!(r.len(), 2);
    }
}
