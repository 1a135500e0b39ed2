//! PAL's closed-form L×V choice and one-pass-per-arm picks against the
//! per-entry traversal they replaced.
//!
//! The reference below is the original Algorithm 2 traversal, kept
//! verbatim as an oracle: every L×V entry re-scans every node, filters the
//! node's free GPUs by the entry's score cap, sorts them, and keeps the
//! min-max (then min-sum, then lowest node) packed set; an `L_across`
//! entry walks the class's score ordering under the cap. The property
//! drives one long-lived `PalPlacement` through a sequence of decisions on
//! a mutating cluster and requires every allocation to be identical —
//! same GPUs, same order.

mod common;

use common::{profile, topology, Mix};
use pal::{LocalityLevel, LvMatrix, PalPlacement, PmScoreTable};
use pal_cluster::{ClusterState, GpuId, JobClass, LocalityModel};
use pal_sim::{Allocation, PlacementCtx, PlacementPolicy, PlacementRequest};
use pal_trace::JobId;
use proptest::prelude::*;

/// Score-filter tolerance, as in the policy.
const EPS: f64 = 1e-9;

/// The per-entry `(L_within, V_i)` arm: filter each node's free GPUs by
/// the cap, sort by (score, id), keep the best `demand`, and take the
/// node with the lowest max (ties: sum, then node order).
fn reference_packed(
    table: &PmScoreTable,
    class: JobClass,
    demand: usize,
    v_cap: f64,
    state: &ClusterState,
) -> Option<Allocation> {
    let mut best: Option<(f64, f64, Allocation)> = None;
    for node_gpus in state.view().per_node() {
        let mut filt: Vec<GpuId> = node_gpus
            .iter()
            .filter(|&g| table.score(class, g) <= v_cap + EPS)
            .collect();
        if filt.len() < demand {
            continue;
        }
        filt.sort_by(|&a, &b| {
            table
                .score(class, a)
                .partial_cmp(&table.score(class, b))
                .unwrap()
                .then(a.cmp(&b))
        });
        filt.truncate(demand);
        let max_s = filt
            .iter()
            .map(|&g| table.score(class, g))
            .fold(0.0f64, f64::max);
        let sum_s: f64 = filt.iter().map(|&g| table.score(class, g)).sum();
        let better = match &best {
            None => true,
            Some((bm, bs, _)) => {
                max_s < bm - EPS || ((max_s - bm).abs() <= EPS && sum_s < bs - EPS)
            }
        };
        if better {
            best = Some((max_s, sum_s, filt));
        }
    }
    best.map(|(_, _, alloc)| alloc)
}

/// The per-entry `(L_across, V_i)` arm: the first `demand` free GPUs of
/// the class ordering, stopping at the first score above the cap.
fn reference_spread(
    table: &PmScoreTable,
    order: &[GpuId],
    class: JobClass,
    demand: usize,
    v_cap: f64,
    state: &ClusterState,
) -> Option<Allocation> {
    let mut out = Vec::new();
    for &g in order {
        if table.score(class, g) > v_cap + EPS {
            break;
        }
        if state.is_free(g) {
            out.push(g);
            if out.len() == demand {
                return Some(out);
            }
        }
    }
    None
}

/// Algorithm 2 with the per-entry arms above; PM-First outside the
/// `1 < demand <= gpus_per_node` window or on an exhausted traversal.
fn reference_place(
    table: &PmScoreTable,
    request: &PlacementRequest,
    locality: &LocalityModel,
    state: &ClusterState,
) -> Allocation {
    let class = request.class;
    let demand = request.gpu_demand;
    let mut order: Vec<GpuId> = (0..table.num_gpus()).map(|i| GpuId(i as u32)).collect();
    order.sort_by(|&a, &b| {
        table
            .score(class, a)
            .partial_cmp(&table.score(class, b))
            .unwrap()
            .then(a.cmp(&b))
    });
    if demand > 1 && demand <= state.topology().gpus_per_node {
        let matrix = LvMatrix::new(
            table.levels(class),
            locality.l_within,
            locality.l_across_for(request.model),
        );
        for entry in matrix.traverse() {
            let found = match entry.locality {
                LocalityLevel::Within => {
                    reference_packed(table, class, demand, entry.v_value, state)
                }
                LocalityLevel::Across => {
                    reference_spread(table, &order, class, demand, entry.v_value, state)
                }
            };
            if let Some(alloc) = found {
                return alloc;
            }
        }
    }
    order
        .into_iter()
        .filter(|&g| state.is_free(g))
        .take(demand)
        .collect()
}

/// `l_across == l_within`, a typical uniform penalty, per-model overrides
/// (one of them equal to `l_within`), or the paper's Frontera per-model
/// penalties, under which consecutive requests switch `l_across`.
fn locality(kind: usize, rng: &mut Mix) -> LocalityModel {
    match kind {
        0 => LocalityModel::uniform(1.0),
        1 => LocalityModel::uniform(1.0 + 2.0 * rng.unit()),
        2 => LocalityModel::uniform(1.5)
            .with_model_penalty("vgg19", 1.0 + 3.0 * rng.unit())
            .with_model_penalty("pointnet", 1.0),
        _ => LocalityModel::frontera_per_model(),
    }
}

/// The locality kind whose requests draw from [`FRONTERA_MODELS`].
const FRONTERA: usize = 3;

const MODELS: [&str; 3] = ["resnet50", "vgg19", "pointnet"];

/// The six models `LocalityModel::frontera_per_model` prices.
const FRONTERA_MODELS: [&str; 6] = ["vgg19", "dcgan", "bert", "gpt2", "resnet50", "pointnet"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn place_into_matches_per_entry_reference(
        seed in 0u64..1_000_000,
        shape in 0usize..3,
        longhorn in any::<bool>(),
        loc in 0usize..4,
    ) {
        let mut rng = Mix(seed);
        let topo = topology(shape, &mut rng);
        let n = topo.total_gpus();
        let profile = profile(n, longhorn, seed, &mut rng);
        let locality = locality(loc, &mut rng);
        let models: &[&'static str] = if loc == FRONTERA { &FRONTERA_MODELS } else { &MODELS };
        let table = PmScoreTable::build_default(&profile);
        let mut pal = PalPlacement::from_shared(std::sync::Arc::new(table.clone()));

        // Random starting occupancy, then a run of decisions that each
        // allocate (and sometimes release) so the free bitsets keep moving
        // under the policy's long-lived caches.
        let mut state = ClusterState::new(topo);
        let busy_p = rng.unit();
        let busy: Vec<GpuId> = (0..n as u32)
            .map(GpuId)
            .filter(|_| rng.unit() < busy_p)
            .collect();
        state.allocate(&busy);
        let mut live: Vec<Allocation> = Vec::new();
        for step in 0..24u32 {
            if !live.is_empty() && rng.below(3) == 0 {
                let gone = live.swap_remove(rng.below(live.len()));
                state.release(&gone);
            }
            let demand = match rng.below(4) {
                0 => 1 + rng.below(n),
                _ => 1 + rng.below(topo.gpus_per_node.min(n)),
            };
            let request = PlacementRequest {
                job: JobId(step),
                model: models[rng.below(models.len())],
                class: JobClass(rng.below(3)),
                gpu_demand: demand,
            };
            let ctx = PlacementCtx {
                profile: &profile,
                locality: &locality,
                view: state.view(),
            };
            let got = pal.place(&request, &ctx, &state);
            let want = reference_place(&table, &request, &locality, &state);
            prop_assert_eq!(
                &got, &want,
                "seed {} step {}: topo {}x{}, demand {}, class {:?}, model {}",
                seed, step, topo.nodes, topo.gpus_per_node, demand, request.class,
                request.model
            );
            if got.len() == demand {
                state.allocate(&got);
                live.push(got);
            }
        }
    }
}
