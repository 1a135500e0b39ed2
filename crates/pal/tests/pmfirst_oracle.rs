//! The PM-First walk, with its per-class cursor, against a sort of the
//! free list.
//!
//! The reference sorts the free GPUs by (binned score, GPU id) and takes
//! the first `demand`: `GET_PMFIRST_GPUS` (Algorithm 1) with no cache at
//! all. The property drives one long-lived `PmFirstPlacement`, and one
//! long-lived `PalPlacement` on the requests it places PM-First
//! (single-GPU and larger-than-node jobs), through random allocations and
//! releases, and requires every allocation to be identical — same GPUs,
//! same order.
//!
//! Midway the policies move, without being told, to a clone of the state
//! taken earlier and then to a deserialized copy of it. The cursors they
//! carry were advanced on the original, past GPUs that are still free in
//! the copies; a walk that trusted them would skip those GPUs.

mod common;

use common::{profile, topology, Mix};
use pal::{PalPlacement, PmFirstPlacement, PmScoreTable};
use pal_cluster::{ClusterState, GpuId, JobClass, LocalityModel};
use pal_sim::{Allocation, PlacementCtx, PlacementPolicy, PlacementRequest};
use pal_trace::JobId;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The first `demand` free GPUs by (binned score, GPU id), or all free
/// GPUs if fewer.
fn reference_pmfirst(
    table: &PmScoreTable,
    class: JobClass,
    demand: usize,
    state: &ClusterState,
) -> Allocation {
    let mut free = state.free_gpus();
    free.sort_by(|&a, &b| {
        table
            .score(class, a)
            .partial_cmp(&table.score(class, b))
            .unwrap()
            .then(a.cmp(&b))
    });
    free.truncate(demand);
    free
}

/// Steps run on the original state; the snapshot is taken at the end.
const MIXED_STEPS: u32 = 12;
/// Allocation-only steps on the original after the snapshot, then on the
/// clone, each before the next switch: no release may reset the cursors.
const ALLOC_ONLY_STEPS: u32 = 8;
/// Steps on the deserialized copy.
const TAIL_STEPS: u32 = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pmfirst_walk_matches_sorted_free_list(
        seed in 0u64..1_000_000,
        shape in 0usize..3,
        longhorn in any::<bool>(),
    ) {
        let mut rng = Mix(seed);
        let topo = topology(shape, &mut rng);
        let n = topo.total_gpus();
        let gpn = topo.gpus_per_node;
        let profile = profile(n, longhorn, seed, &mut rng);
        let locality = LocalityModel::uniform(1.5);
        let table = Arc::new(PmScoreTable::build_default(&profile));
        let mut pmfirst = PmFirstPlacement::from_shared(Arc::clone(&table));
        let mut pal = PalPlacement::from_shared(Arc::clone(&table));

        let mut state = ClusterState::new(topo);
        let busy_p = 0.5 * rng.unit();
        let busy: Vec<GpuId> = (0..n as u32)
            .map(GpuId)
            .filter(|_| rng.unit() < busy_p)
            .collect();
        state.allocate(&busy);
        let mut live: Vec<Allocation> = Vec::new();
        let mut snapshot = None;
        let alloc_only = MIXED_STEPS..MIXED_STEPS + 2 * ALLOC_ONLY_STEPS;
        let end = alloc_only.end + TAIL_STEPS;
        for step in 0..end {
            if step == MIXED_STEPS {
                snapshot = Some((state.clone(), state.to_value(), live.clone()));
            }
            if step == MIXED_STEPS + ALLOC_ONLY_STEPS {
                let (copy, _, copy_live) = snapshot.as_ref().expect("snapshot taken");
                state = copy.clone();
                live = copy_live.clone();
            }
            if step == alloc_only.end {
                let (_, saved, copy_live) = snapshot.as_ref().expect("snapshot taken");
                state = ClusterState::from_value(saved).expect("state round-trips");
                live = copy_live.clone();
            }
            if !alloc_only.contains(&step) && !live.is_empty() && rng.below(3) == 0 {
                let gone = live.swap_remove(rng.below(live.len()));
                state.release(&gone);
            }
            // Mostly single-GPU jobs (both policies walk), some wider than
            // a node (both walk), the rest within a node (PM-First only).
            let demand = match rng.below(4) {
                0 | 1 => 1,
                2 if n > gpn => gpn + 1 + rng.below(n - gpn),
                _ => 1 + rng.below(gpn),
            };
            let request = PlacementRequest {
                job: JobId(step),
                model: "resnet50",
                class: JobClass(rng.below(3)),
                gpu_demand: demand,
            };
            let ctx = PlacementCtx {
                profile: &profile,
                locality: &locality,
                view: state.view(),
            };
            let want = reference_pmfirst(&table, request.class, demand, &state);
            let got = pmfirst.place(&request, &ctx, &state);
            prop_assert_eq!(
                &got, &want,
                "PM-First, seed {} step {}: topo {}x{}, demand {}, class {:?}",
                seed, step, topo.nodes, gpn, demand, request.class
            );
            if demand == 1 || demand > gpn {
                let got = pal.place(&request, &ctx, &state);
                prop_assert_eq!(
                    &got, &want,
                    "PAL, seed {} step {}: topo {}x{}, demand {}, class {:?}",
                    seed, step, topo.nodes, gpn, demand, request.class
                );
            }
            if want.len() == demand {
                state.allocate(&want);
                live.push(want);
            }
        }
    }
}
