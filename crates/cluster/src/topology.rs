//! Cluster topology: a flat two-level hierarchy of nodes each holding the
//! same number of GPUs.
//!
//! The paper's systems have flat fat-tree networks "without much
//! over-subscription", so the only locality boundary that matters is the
//! node boundary (Section III-C.1). Frontera's GPU subsystem has 4 GPUs per
//! node; all simulated configurations are 4 GPUs/node as well.

use crate::ids::{GpuId, NodeId};
use serde::{Deserialize, Serialize};

/// A homogeneous `nodes × gpus_per_node` cluster layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterTopology {
    /// Number of nodes.
    pub nodes: usize,
    /// GPUs in each node.
    pub gpus_per_node: usize,
}

impl ClusterTopology {
    /// Create a topology. Panics on zero nodes or zero GPUs per node.
    pub fn new(nodes: usize, gpus_per_node: usize) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        assert!(gpus_per_node > 0, "nodes need at least one GPU");
        ClusterTopology {
            nodes,
            gpus_per_node,
        }
    }

    /// The paper's 16-node, 64-GPU Sia/testbed configuration.
    pub fn sia_64() -> Self {
        ClusterTopology::new(16, 4)
    }

    /// The paper's 64-node, 256-GPU Synergy configuration.
    pub fn synergy_256() -> Self {
        ClusterTopology::new(64, 4)
    }

    /// Total GPU count.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Node that hosts a GPU. Panics if the GPU id is out of range.
    pub fn node_of(&self, gpu: GpuId) -> NodeId {
        assert!(
            gpu.index() < self.total_gpus(),
            "{gpu} out of range for {} GPUs",
            self.total_gpus()
        );
        NodeId((gpu.index() / self.gpus_per_node) as u32)
    }

    /// The GPUs hosted by a node, in id order.
    pub fn gpus_of(&self, node: NodeId) -> Vec<GpuId> {
        assert!(node.index() < self.nodes, "{node} out of range");
        let base = node.index() * self.gpus_per_node;
        (base..base + self.gpus_per_node)
            .map(|i| GpuId(i as u32))
            .collect()
    }

    /// All GPU ids, in order.
    pub fn all_gpus(&self) -> Vec<GpuId> {
        (0..self.total_gpus()).map(|i| GpuId(i as u32)).collect()
    }

    /// Number of distinct nodes an allocation touches.
    pub fn nodes_spanned(&self, gpus: &[GpuId]) -> usize {
        let mut nodes: Vec<usize> = gpus.iter().map(|&g| self.node_of(g).index()).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    /// Whether an allocation crosses a node boundary (pays `L_across`).
    /// Allocation-free — this sits in the simulator's per-job, per-round
    /// execution path.
    pub fn spans_nodes(&self, gpus: &[GpuId]) -> bool {
        match gpus.split_first() {
            None => false,
            Some((&first, rest)) => {
                let node = self.node_of(first);
                rest.iter().any(|&g| self.node_of(g) != node)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        assert_eq!(ClusterTopology::sia_64().total_gpus(), 64);
        assert_eq!(ClusterTopology::synergy_256().total_gpus(), 256);
    }

    #[test]
    fn node_of_maps_contiguously() {
        let t = ClusterTopology::new(2, 4);
        assert_eq!(t.node_of(GpuId(0)), NodeId(0));
        assert_eq!(t.node_of(GpuId(3)), NodeId(0));
        assert_eq!(t.node_of(GpuId(4)), NodeId(1));
        assert_eq!(t.node_of(GpuId(7)), NodeId(1));
    }

    #[test]
    fn gpus_of_inverts_node_of() {
        let t = ClusterTopology::new(3, 4);
        for node in (0..t.nodes).map(|n| NodeId(n as u32)) {
            for gpu in t.gpus_of(node) {
                assert_eq!(t.node_of(gpu), node);
            }
        }
    }

    #[test]
    fn spans_nodes_detection() {
        let t = ClusterTopology::new(2, 4);
        assert!(!t.spans_nodes(&[GpuId(0), GpuId(1), GpuId(2), GpuId(3)]));
        assert!(t.spans_nodes(&[GpuId(3), GpuId(4)]));
        assert!(!t.spans_nodes(&[GpuId(5)]));
        assert_eq!(t.nodes_spanned(&[GpuId(0), GpuId(4), GpuId(5)]), 2);
    }

    #[test]
    fn empty_allocation_spans_zero_nodes() {
        let t = ClusterTopology::new(2, 4);
        assert_eq!(t.nodes_spanned(&[]), 0);
        assert!(!t.spans_nodes(&[]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_of_out_of_range_panics() {
        ClusterTopology::new(1, 4).node_of(GpuId(4));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        ClusterTopology::new(0, 4);
    }

    #[test]
    fn all_gpus_count() {
        let t = ClusterTopology::new(5, 3);
        assert_eq!(t.all_gpus().len(), 15);
    }
}
