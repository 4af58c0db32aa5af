//! Cluster topology: nodes grouped into racks, with HDFS-style network
//! distances used by block placement and locality-aware scheduling.

use std::fmt;

/// Identifier of a worker node (also a YARN NodeManager host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RackId(pub u32);

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Placement/topology map of the cluster.
#[derive(Debug, Clone)]
pub struct Topology {
    /// `node_rack[n]` = rack of node `n`.
    node_rack: Vec<RackId>,
    /// Nodes per rack, indexed by rack id.
    rack_nodes: Vec<Vec<NodeId>>,
}

impl Topology {
    /// All nodes in one rack — the common small-cluster benchmark layout
    /// (the paper's 4/6/8-node testbed).
    pub fn single_rack(nodes: usize) -> Self {
        Topology::with_racks(&[nodes])
    }

    /// Build from an explicit list of rack sizes.
    pub fn with_racks(rack_sizes: &[usize]) -> Self {
        assert!(!rack_sizes.is_empty(), "need at least one rack");
        let mut node_rack = Vec::new();
        let mut rack_nodes = Vec::new();
        let mut next = 0u32;
        for (r, &sz) in rack_sizes.iter().enumerate() {
            assert!(sz > 0, "empty rack {r}");
            let mut nodes = Vec::with_capacity(sz);
            for _ in 0..sz {
                node_rack.push(RackId(r as u32));
                nodes.push(NodeId(next));
                next += 1;
            }
            rack_nodes.push(nodes);
        }
        Topology {
            node_rack,
            rack_nodes,
        }
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_rack.len()
    }

    /// All node ids, in order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_rack.len() as u32).map(NodeId)
    }

    /// Rack of a node.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.node_rack[node.0 as usize]
    }

    /// Nodes in a rack.
    pub fn nodes_in_rack(&self, rack: RackId) -> &[NodeId] {
        &self.rack_nodes[rack.0 as usize]
    }

    /// HDFS-style network distance: 0 = same node, 2 = same rack,
    /// 4 = different rack.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            0
        } else if self.rack_of(a) == self.rack_of(b) {
            2
        } else {
            4
        }
    }

    /// Whether two nodes share a rack.
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rack_layout() {
        let t = Topology::single_rack(4);
        assert_eq!(t.num_nodes(), 4);
        assert!(t.nodes().all(|n| t.rack_of(n) == RackId(0)));
        assert_eq!(t.distance(NodeId(0), NodeId(0)), 0);
        assert_eq!(t.distance(NodeId(0), NodeId(3)), 2);
    }

    #[test]
    fn multi_rack_distances() {
        let t = Topology::with_racks(&[2, 3]);
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.rack_of(NodeId(1)), RackId(0));
        assert_eq!(t.rack_of(NodeId(2)), RackId(1));
        assert_eq!(t.distance(NodeId(0), NodeId(1)), 2);
        assert_eq!(t.distance(NodeId(1), NodeId(2)), 4);
        assert!(t.same_rack(NodeId(2), NodeId(4)));
        assert_eq!(
            t.nodes_in_rack(RackId(1)),
            &[NodeId(2), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    #[should_panic(expected = "empty rack")]
    fn empty_rack_rejected() {
        Topology::with_racks(&[2, 0]);
    }
}
