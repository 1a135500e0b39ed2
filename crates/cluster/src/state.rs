//! GPU occupancy tracking: the scheduler's live view of which GPUs are free
//! (the "Cluster State Monitor" box of Blox's architecture, Figure 1).

use crate::ids::GpuId;
use crate::topology::ClusterTopology;
use crate::view::ClusterView;
use serde::{de, DeError, Deserialize, Emitter, Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Occupancy state of every GPU in a cluster.
///
/// Free counts — total and per node — and the per-node free-GPU *lists*
/// (the [`ClusterView`]) are maintained incrementally on every
/// allocate/release, so neither the O(1)/O(nodes) count queries nor the
/// free-list reads placement policies issue on each decision ever rescan
/// the GPU bitmap.
///
/// Each state also carries an [`OccupancyToken`] that changes on every
/// [`release`](Self::release). It is run-time only: equality and the
/// serialized form see the occupancy fields alone, and a clone or a
/// deserialized state starts with a token of its own.
#[derive(Debug)]
pub struct ClusterState {
    topology: ClusterTopology,
    in_use: Vec<bool>,
    free_total: usize,
    free_per_node: Vec<usize>,
    view: ClusterView,
    token: OccupancyToken,
}

/// Proof that no GPU of one [`ClusterState`] instance has been freed
/// since the token was read ([`ClusterState::occupancy_token`]).
///
/// Two reads return equal tokens exactly when they come from the same
/// instance with no [`release`](ClusterState::release) in between, so a
/// fact of the form "these GPUs are busy" that was true at the first read
/// still holds. Allocation leaves the token unchanged; it only makes more
/// GPUs busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyToken {
    /// Unique per state instance: drawn from [`NEXT_INSTANCE`] by
    /// `new`, `clone` and `from_value`, so a clone never shares a token
    /// with its source even when both make the same number of releases.
    instance: u64,
    /// `release` calls on this instance so far.
    releases: u64,
}

/// Instance ids handed out so far. Bumped once per state construction,
/// never per release, so concurrent simulations do not contend on it.
/// Id 0 is never handed out: [`OccupancyToken::NONE`] uses it.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

impl OccupancyToken {
    /// A token no state ever returns.
    pub(crate) const NONE: OccupancyToken = OccupancyToken {
        instance: 0,
        releases: 0,
    };

    /// A token for a freshly constructed state instance.
    fn fresh() -> Self {
        OccupancyToken {
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            releases: 0,
        }
    }
}

impl Clone for ClusterState {
    fn clone(&self) -> Self {
        ClusterState {
            topology: self.topology,
            in_use: self.in_use.clone(),
            free_total: self.free_total,
            free_per_node: self.free_per_node.clone(),
            view: self.view.clone(),
            token: OccupancyToken::fresh(),
        }
    }
}

impl PartialEq for ClusterState {
    fn eq(&self, other: &Self) -> bool {
        self.topology == other.topology
            && self.in_use == other.in_use
            && self.free_total == other.free_total
            && self.free_per_node == other.free_per_node
            && self.view == other.view
    }
}

// The field map a derive would write, without the token.
impl Serialize for ClusterState {
    fn emit(&self, out: &mut dyn Emitter) {
        out.map(5);
        out.key("topology");
        self.topology.emit(out);
        out.key("in_use");
        self.in_use.emit(out);
        out.key("free_total");
        self.free_total.emit(out);
        out.key("free_per_node");
        self.free_per_node.emit(out);
        out.key("view");
        self.view.emit(out);
        out.end();
    }
}

impl<'de> Deserialize<'de> for ClusterState {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        fn field<T: for<'a> Deserialize<'a>>(
            entries: &[(String, Value)],
            name: &str,
        ) -> Result<T, DeError> {
            T::from_value(de::struct_field(entries, name)).map_err(|e| e.context(name))
        }
        let entries = de::as_struct_map(
            value,
            "ClusterState",
            &["topology", "in_use", "free_total", "free_per_node", "view"],
        )?;
        Ok(ClusterState {
            topology: field(entries, "topology")?,
            in_use: field(entries, "in_use")?,
            free_total: field(entries, "free_total")?,
            free_per_node: field(entries, "free_per_node")?,
            view: field(entries, "view")?,
            token: OccupancyToken::fresh(),
        })
    }
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
            token: OccupancyToken::fresh(),
        }
    }

    /// The current [`OccupancyToken`]. O(1).
    pub fn occupancy_token(&self) -> OccupancyToken {
        self.token
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

    /// Mark GPUs free and change the [`OccupancyToken`]. Panics if any
    /// was not in use.
    pub fn release(&mut self, gpus: &[GpuId]) {
        self.token.releases += 1;
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
    fn release_changes_the_token_and_allocate_does_not() {
        let mut s = state();
        let t0 = s.occupancy_token();
        s.allocate(&[GpuId(1), GpuId(6)]);
        assert_eq!(s.occupancy_token(), t0);
        s.release(&[GpuId(6)]);
        let t1 = s.occupancy_token();
        assert_ne!(t1, t0);
        s.release(&[GpuId(1)]);
        assert_ne!(s.occupancy_token(), t1);
        assert_ne!(s.occupancy_token(), t0);
    }

    #[test]
    fn copies_get_tokens_of_their_own() {
        let mut s = state();
        s.allocate(&[GpuId(2)]);
        s.release(&[GpuId(2)]);
        let copies = [
            s.clone(),
            s.clone(),
            ClusterState::from_value(&s.to_value()).unwrap(),
            ClusterState::from_value(&s.to_value()).unwrap(),
            state(),
        ];
        for (i, a) in copies.iter().enumerate() {
            assert_ne!(a.occupancy_token(), s.occupancy_token());
            for b in &copies[i + 1..] {
                assert_ne!(a.occupancy_token(), b.occupancy_token());
            }
        }
    }

    #[test]
    fn token_is_invisible_to_equality_and_serialization() {
        let mut s = state();
        s.allocate(&[GpuId(3), GpuId(4)]);
        let mut t = state();
        t.allocate(&[GpuId(0), GpuId(3), GpuId(4)]);
        t.release(&[GpuId(0)]);
        assert_ne!(s.occupancy_token(), t.occupancy_token());
        assert_eq!(s, t);
        assert_eq!(s.to_value(), t.to_value());
        let keys: Vec<String> = match s.to_value() {
            Value::Map(entries) => entries.into_iter().map(|(k, _)| k).collect(),
            other => panic!("state serialized as {}", other.kind()),
        };
        assert_eq!(
            keys,
            ["topology", "in_use", "free_total", "free_per_node", "view"]
        );
        let back = ClusterState::from_value(&s.to_value()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.check_consistent(), Ok(()));
        let err = ClusterState::from_value(&Value::Map(vec![("token".into(), Value::Int(0))]))
            .unwrap_err();
        assert!(err.to_string().contains("unknown field `token`"), "{err}");
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
