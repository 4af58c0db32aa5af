//! NodeManager-side bookkeeping: per-node capacity and live containers.

use crate::container::ContainerId;
use crate::resources::ResourceVector;
use hdfs_sim::{NodeId, Topology};

/// Scheduler-visible state of one node.
#[derive(Debug, Clone)]
pub struct NodeState {
    /// The node this tracks.
    pub id: NodeId,
    /// Total capacity advertised by the NodeManager.
    pub capacity: ResourceVector,
    /// Resources currently allocated to containers.
    pub allocated: ResourceVector,
    /// Live containers on this node.
    pub containers: Vec<ContainerId>,
}

impl NodeState {
    /// A node with nothing allocated.
    pub fn new(id: NodeId, capacity: ResourceVector) -> Self {
        NodeState {
            id,
            capacity,
            allocated: ResourceVector::ZERO,
            containers: Vec::new(),
        }
    }

    /// Unallocated headroom.
    pub fn available(&self) -> ResourceVector {
        self.capacity.saturating_sub(&self.allocated)
    }

    /// Whether a container of `size` fits right now.
    pub fn can_fit(&self, size: &ResourceVector) -> bool {
        size.fits_in(&self.available())
    }

    /// Occupancy rate in \[0, 1\]: dominant share of allocated over capacity.
    /// The paper assigns containers "to the nodes with the lowest value"
    /// of this rate (§4.2.2).
    pub fn occupancy_rate(&self) -> f64 {
        self.allocated.dominant_share(&self.capacity)
    }

    /// Reserve resources for a container. Panics if it does not fit
    /// (callers must check `can_fit`).
    pub fn allocate(&mut self, id: ContainerId, size: ResourceVector) {
        assert!(
            self.can_fit(&size),
            "container {id} does not fit on {}",
            self.id
        );
        self.allocated += size;
        self.containers.push(id);
    }

    /// Release a container's resources. Panics if the container is unknown.
    pub fn release(&mut self, id: ContainerId, size: ResourceVector) {
        let idx = self
            .containers
            .iter()
            .position(|&c| c == id)
            .unwrap_or_else(|| panic!("releasing unknown container {id} on {}", self.id));
        self.containers.swap_remove(idx);
        self.allocated -= size;
    }
}

/// Scheduler's view of every node.
#[derive(Debug, Clone)]
pub struct ClusterState {
    /// Physical topology (shared with HDFS).
    pub topology: Topology,
    nodes: Vec<NodeState>,
}

impl ClusterState {
    /// A cluster where every node advertises `capacity`.
    pub fn homogeneous(topology: Topology, capacity: ResourceVector) -> Self {
        let nodes = topology
            .nodes()
            .map(|n| NodeState::new(n, capacity))
            .collect();
        ClusterState { topology, nodes }
    }

    /// Mutable node state.
    pub fn node_mut(&mut self, id: NodeId) -> &mut NodeState {
        &mut self.nodes[id.0 as usize]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[NodeState] {
        &self.nodes
    }

    /// Aggregate capacity.
    pub fn total_capacity(&self) -> ResourceVector {
        self.nodes
            .iter()
            .fold(ResourceVector::ZERO, |acc, n| acc + n.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ContainerId;

    #[test]
    fn allocate_release_roundtrip() {
        let mut n = NodeState::new(NodeId(0), ResourceVector::new(4096, 4));
        let c = ResourceVector::new(1024, 1);
        n.allocate(ContainerId(1), c);
        n.allocate(ContainerId(2), c);
        assert_eq!(n.available(), ResourceVector::new(2048, 2));
        assert!((n.occupancy_rate() - 0.5).abs() < 1e-12);
        n.release(ContainerId(1), c);
        assert_eq!(n.available(), ResourceVector::new(3072, 3));
        assert_eq!(n.containers, vec![ContainerId(2)]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overallocation_panics() {
        let mut n = NodeState::new(NodeId(0), ResourceVector::new(1024, 1));
        n.allocate(ContainerId(1), ResourceVector::new(1024, 1));
        n.allocate(ContainerId(2), ResourceVector::new(1, 1));
    }
}
