//! The PM-First placement policy (Section III-B, Algorithm 1, Figure 4).
//!
//! PM-First "gives PM-induced variability first-order precedence": within
//! the schedulable prefix, class A jobs pick GPUs first (placement
//! priority), and each job greedily takes the free GPUs with the best
//! (lowest) binned PM-scores for its class.
//!
//! Selection is allocation-free: next to its score table the policy keeps
//! lazily built per-class orderings of *all* GPUs by ascending binned
//! score ([`ClassOrders`]) — static while the table is static — and each
//! `place_into` walks the job's class ordering, skipping busy GPUs. The
//! walk starts at the class's cursor, the first GPU the previous walk
//! found free: until the cluster state reports a release (its
//! [`OccupancyToken`](pal_cluster::OccupancyToken) changes), every GPU
//! before it is still busy, so a round of placements skips each busy GPU
//! once per class instead of once per job.

use crate::pm_scores::PmScoreTable;
use pal_cluster::{ClassOrders, ClusterState, JobClass, VariabilityProfile};
use pal_sim::{Allocation, PlacementCtx, PlacementPolicy, PlacementRequest};
use std::sync::Arc;

/// PM-First placement.
///
/// Holds its PM-score table behind an `Arc` so sweeps can share one table
/// across many instances (see [`crate::PmTableCache`]).
#[derive(Debug, Clone)]
pub struct PmFirstPlacement {
    table: Arc<PmScoreTable>,
    orders: ClassOrders,
}

impl PmFirstPlacement {
    /// Build from a variability profile using the paper's default binning.
    pub fn new(profile: &VariabilityProfile) -> Self {
        PmFirstPlacement::from_shared(Arc::new(PmScoreTable::build_default(profile)))
    }

    /// Build around an already-constructed shared table — the sweep path:
    /// a [`crate::PmTableCache`] builds each distinct table once and every
    /// campaign cell's policy borrows it by reference count.
    pub fn from_shared(table: Arc<PmScoreTable>) -> Self {
        let orders = ClassOrders::new(table.num_classes());
        PmFirstPlacement { table, orders }
    }

    /// The precomputed PM-score table.
    pub fn table(&self) -> &PmScoreTable {
        &self.table
    }

    /// The shared handle to the PM-score table.
    pub fn shared_table(&self) -> &Arc<PmScoreTable> {
        &self.table
    }
}

/// Stable class-priority reorder of the schedulable prefix, written into
/// `out`: class A first, preserving scheduling order within a class
/// (Figure 4's "sort by class, up to cluster size").
pub(crate) fn class_priority_order_into(requests: &[PlacementRequest], out: &mut Vec<usize>) {
    out.clear();
    out.extend(0..requests.len());
    // The index tie-breaker makes the key a strict total order, so the
    // allocation-free unstable sort reproduces the stable partition.
    out.sort_unstable_by_key(|&i| (requests[i].class, i));
}

/// Build (if stale) the class's all-GPU ordering by ascending binned
/// PM-score, ties by GPU id — the walk order of `GET_PMFIRST_GPUS`.
pub(crate) fn ensure_class_order(table: &PmScoreTable, orders: &mut ClassOrders, class: JobClass) {
    orders.ensure(class.0, table.num_gpus(), |g| table.score(class, g));
}

impl PlacementPolicy for PmFirstPlacement {
    fn name(&self) -> &str {
        "PM-First"
    }

    fn wants_observations(&self) -> bool {
        false // offline scores; inherits the no-op `observe`
    }

    fn placement_order_into(
        &self,
        requests: &[PlacementRequest],
        _ctx: &PlacementCtx,
        out: &mut Vec<usize>,
    ) {
        class_priority_order_into(requests, out);
    }

    fn place_into(
        &mut self,
        request: &PlacementRequest,
        _ctx: &PlacementCtx,
        state: &ClusterState,
        out: &mut Allocation,
    ) {
        // Greedy best-scores-first selection (`GET_PMFIRST_GPUS`).
        ensure_class_order(&self.table, &mut self.orders, request.class);
        self.orders
            .first_free_into(request.class.0, request.gpu_demand, state, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pal_cluster::{ClusterTopology, GpuId, LocalityModel};
    use pal_trace::JobId;

    /// 2 nodes × 4 GPUs; class-A scores make GPUs 4..8 (node 1) the fast
    /// ones; class-C scores are flat.
    fn fixture() -> (VariabilityProfile, ClusterState, LocalityModel) {
        let class_a = vec![1.4, 1.4, 1.5, 1.5, 0.9, 0.9, 1.0, 1.0];
        let class_b = vec![1.1, 1.1, 1.2, 1.2, 0.95, 0.95, 1.0, 1.0];
        let class_c = vec![1.0; 8];
        let profile = VariabilityProfile::from_raw(vec![class_a, class_b, class_c]);
        let state = ClusterState::new(ClusterTopology::new(2, 4));
        (profile, state, LocalityModel::uniform(1.5))
    }

    fn req(job: u32, class: JobClass, demand: usize) -> PlacementRequest {
        PlacementRequest {
            job: JobId(job),
            model: "resnet50",
            class,
            gpu_demand: demand,
        }
    }

    #[test]
    fn picks_best_scoring_gpus() {
        let (profile, state, locality) = fixture();
        let mut p = PmFirstPlacement::new(&profile);
        let ctx = PlacementCtx {
            profile: &profile,
            locality: &locality,
            view: state.view(),
        };
        let alloc = p.place(&req(0, JobClass::A, 2), &ctx, &state);
        // The two best class-A GPUs are 4 and 5 (score 0.9).
        assert_eq!(alloc, vec![GpuId(4), GpuId(5)]);
    }

    #[test]
    fn ignores_locality_entirely() {
        // Classic PM-First behaviour: takes the 4 best GPUs even though
        // they straddle nodes.
        let class_a = vec![0.9, 1.5, 1.5, 1.5, 0.9, 1.5, 1.5, 0.95];
        let profile = VariabilityProfile::from_raw(vec![class_a.clone(), class_a.clone(), class_a]);
        let state = ClusterState::new(ClusterTopology::new(2, 4));
        let locality = LocalityModel::uniform(3.0);
        let mut p = PmFirstPlacement::new(&profile);
        let ctx = PlacementCtx {
            profile: &profile,
            locality: &locality,
            view: state.view(),
        };
        let alloc = p.place(&req(0, JobClass::A, 3), &ctx, &state);
        assert!(state.topology().spans_nodes(&alloc));
        // Best three by binned score: 0, 4 (0.9) then 7 (0.95).
        assert_eq!(alloc, vec![GpuId(0), GpuId(4), GpuId(7)]);
    }

    #[test]
    fn respects_busy_gpus() {
        let (profile, mut state, locality) = fixture();
        state.allocate(&[GpuId(4), GpuId(5)]);
        let mut p = PmFirstPlacement::new(&profile);
        let ctx = PlacementCtx {
            profile: &profile,
            locality: &locality,
            view: state.view(),
        };
        let alloc = p.place(&req(0, JobClass::A, 2), &ctx, &state);
        // Next best after 4,5: 6 and 7 (score 1.0).
        assert_eq!(alloc, vec![GpuId(6), GpuId(7)]);
    }

    #[test]
    fn placement_order_sorts_by_class_stably() {
        let (profile, state, locality) = fixture();
        let p = PmFirstPlacement::new(&profile);
        let ctx = PlacementCtx {
            profile: &profile,
            locality: &locality,
            view: state.view(),
        };
        let reqs = vec![
            req(0, JobClass::B, 1),
            req(1, JobClass::A, 1),
            req(2, JobClass::C, 1),
            req(3, JobClass::A, 1),
            req(4, JobClass::B, 1),
        ];
        // A jobs first in original order, then B, then C (Figure 4).
        assert_eq!(p.placement_order(&reqs, &ctx), vec![1, 3, 0, 4, 2]);
    }

    #[test]
    fn class_c_sees_flat_scores_so_order_is_by_id() {
        let (profile, state, locality) = fixture();
        let mut p = PmFirstPlacement::new(&profile);
        let ctx = PlacementCtx {
            profile: &profile,
            locality: &locality,
            view: state.view(),
        };
        let alloc = p.place(&req(0, JobClass::C, 3), &ctx, &state);
        assert_eq!(alloc, vec![GpuId(0), GpuId(1), GpuId(2)]);
    }

    #[test]
    fn demand_equal_to_free_takes_everything() {
        let (profile, state, locality) = fixture();
        let mut p = PmFirstPlacement::new(&profile);
        let ctx = PlacementCtx {
            profile: &profile,
            locality: &locality,
            view: state.view(),
        };
        let alloc = p.place(&req(0, JobClass::A, 8), &ctx, &state);
        assert_eq!(alloc.len(), 8);
    }
}
