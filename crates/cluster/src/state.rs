//! GPU occupancy tracking: the scheduler's live view of which GPUs are free
//! (the "Cluster State Monitor" box of Blox's architecture, Figure 1).

use crate::ids::GpuId;
use crate::topology::ClusterTopology;
use crate::view::ClusterView;
use serde::{Deserialize, Serialize};

/// Occupancy state of every GPU in a cluster.
///
/// Free counts — total and per node — and the per-node free-GPU *lists*
/// (the [`ClusterView`]) are maintained incrementally on every
/// allocate/release, so neither the O(1)/O(nodes) count queries nor the
/// free-list reads placement policies issue on each decision ever rescan
/// the GPU bitmap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterState {
    topology: ClusterTopology,
    in_use: Vec<bool>,
    free_total: usize,
    free_per_node: Vec<usize>,
    view: ClusterView,
}

impl ClusterState {
    /// All-free state for a topology.
    pub fn new(topology: ClusterTopology) -> Self {
        ClusterState {
            in_use: vec![false; topology.total_gpus()],
            free_total: topology.total_gpus(),
            free_per_node: vec![topology.gpus_per_node; topology.nodes],
            view: ClusterView::all_free(&topology),
            topology,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// The incrementally maintained free-GPU view: per-node free lists in
    /// GPU-id order, kept up to date by every [`allocate`](Self::allocate)
    /// and [`release`](Self::release). This is what placement policies
    /// should read instead of materializing free lists per decision.
    pub fn view(&self) -> &ClusterView {
        &self.view
    }

    /// Whether a GPU is currently free.
    pub fn is_free(&self, gpu: GpuId) -> bool {
        !self.in_use[gpu.index()]
    }

    /// Number of free GPUs. O(1).
    pub fn free_count(&self) -> usize {
        self.free_total
    }

    /// Free-GPU count of every node, indexed by node id. O(1) (borrowed
    /// from the incrementally maintained counters).
    pub fn free_count_by_node(&self) -> &[usize] {
        &self.free_per_node
    }

    /// Number of busy GPUs.
    pub fn busy_count(&self) -> usize {
        self.topology.total_gpus() - self.free_count()
    }

    /// The free list, in GPU-id order.
    pub fn free_gpus(&self) -> Vec<GpuId> {
        self.in_use
            .iter()
            .enumerate()
            .filter(|&(_, &u)| !u)
            .map(|(i, _)| GpuId(i as u32))
            .collect()
    }

    /// Check that the free counts and free lists agree with the occupancy
    /// flags and the topology — what a deserialized state must establish
    /// before [`allocate`](Self::allocate) and [`release`](Self::release)
    /// can trust them. O(GPUs).
    pub fn check_consistent(&self) -> Result<(), String> {
        let total = self.topology.total_gpus();
        if self.in_use.len() != total {
            return Err(format!(
                "cluster has {} occupancy flags for {total} GPUs",
                self.in_use.len()
            ));
        }
        let mut rebuilt = ClusterState::new(self.topology);
        let busy: Vec<GpuId> = (0..total as u32)
            .map(GpuId)
            .filter(|g| self.in_use[g.index()])
            .collect();
        rebuilt.allocate(&busy);
        if rebuilt != *self {
            return Err(
                "cluster free counts or free lists disagree with its occupancy flags".into(),
            );
        }
        Ok(())
    }

    /// Mark GPUs busy. Panics if any is already in use or duplicated — a
    /// double-allocation is always a scheduler bug, never a recoverable
    /// condition.
    pub fn allocate(&mut self, gpus: &[GpuId]) {
        for &g in gpus {
            assert!(
                !self.in_use[g.index()],
                "double allocation of {g}: already in use"
            );
            let node = self.topology.node_of(g);
            self.in_use[g.index()] = true;
            self.free_total -= 1;
            self.free_per_node[node.index()] -= 1;
            self.view.on_allocate(node, g);
        }
    }

    /// Mark GPUs free. Panics if any was not in use.
    pub fn release(&mut self, gpus: &[GpuId]) {
        for &g in gpus {
            assert!(self.in_use[g.index()], "releasing free GPU {g}");
            let node = self.topology.node_of(g);
            self.in_use[g.index()] = false;
            self.free_total += 1;
            self.free_per_node[node.index()] += 1;
            self.view.on_release(node, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use serde::Value;

    fn state() -> ClusterState {
        ClusterState::new(ClusterTopology::new(2, 4))
    }

    #[test]
    fn fresh_state_all_free() {
        let s = state();
        assert_eq!(s.free_count(), 8);
        assert_eq!(s.busy_count(), 0);
        assert_eq!(s.free_gpus().len(), 8);
    }

    #[test]
    fn allocate_release_roundtrip() {
        let mut s = state();
        let alloc = vec![GpuId(1), GpuId(5)];
        s.allocate(&alloc);
        assert_eq!(s.free_count(), 6);
        assert!(!s.is_free(GpuId(1)));
        assert!(!s.is_free(GpuId(5)));
        s.release(&alloc);
        assert_eq!(s.free_count(), 8);
    }

    #[test]
    #[should_panic(expected = "double allocation")]
    fn double_allocate_panics() {
        let mut s = state();
        s.allocate(&[GpuId(0)]);
        s.allocate(&[GpuId(0)]);
    }

    #[test]
    #[should_panic(expected = "double allocation")]
    fn duplicate_in_one_call_panics() {
        let mut s = state();
        s.allocate(&[GpuId(2), GpuId(2)]);
    }

    #[test]
    #[should_panic(expected = "releasing free GPU")]
    fn release_free_panics() {
        let mut s = state();
        s.release(&[GpuId(0)]);
    }

    #[test]
    fn free_by_node_respects_topology() {
        let mut s = state();
        s.allocate(&[GpuId(0), GpuId(1), GpuId(2), GpuId(3)]); // node 0 full
        let view = s.view();
        assert!(view.node_free(NodeId(0)).is_empty());
        assert_eq!(view.node_free(NodeId(1)).len(), 4);
        assert_eq!(view.node_free(NodeId(1)).words(), &[0b1111]);
    }

    #[test]
    fn incremental_counts_track_bitmap() {
        let mut s = state();
        assert_eq!(s.free_count_by_node(), &[4, 4]);
        s.allocate(&[GpuId(0), GpuId(1), GpuId(5)]);
        assert_eq!(s.free_count(), 5);
        assert_eq!(s.free_count_by_node(), &[2, 3]);
        s.release(&[GpuId(1)]);
        assert_eq!(s.free_count(), 6);
        assert_eq!(s.free_count_by_node(), &[3, 3]);
        // Counts must agree with the incrementally maintained free lists
        // at all times.
        let from_view: Vec<usize> = s.view().per_node().map(|nf| nf.len()).collect();
        assert_eq!(s.free_count_by_node(), &from_view[..]);
    }

    #[test]
    fn consistency_check_catches_drifted_counts() {
        let mut s = state();
        s.allocate(&[GpuId(1), GpuId(6)]);
        assert_eq!(s.check_consistent(), Ok(()));
        // Overwrite one serialized field, as a hand-edited state file would.
        let with = |key: &str, value: Value| {
            let mut v = s.to_value();
            if let Value::Map(entries) = &mut v {
                entries.iter_mut().find(|(k, _)| k == key).expect("field").1 = value;
            }
            ClusterState::from_value(&v).unwrap()
        };
        let flags = |n: usize| Value::Seq(vec![Value::Bool(false); n]);
        for (bad, reason) in [
            (with("in_use", flags(7)), "occupancy flags"),
            (with("in_use", flags(8)), "disagree"),
            (with("free_total", Value::Int(7)), "disagree"),
        ] {
            let err = bad.check_consistent().unwrap_err();
            assert!(err.contains(reason), "{err}");
        }
    }
}
