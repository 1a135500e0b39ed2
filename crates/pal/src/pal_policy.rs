//! The PAL placement policy (Section III-C, Algorithm 2).
//!
//! PAL co-optimizes locality and variability: for a job that fits within a
//! node (`1 < N_j <= GPUS_PER_NODE`) it traverses the class's L×V matrix in
//! ascending LV-product order and takes the first feasible allocation —
//! packed allocations from good-enough bins first, spilling across nodes
//! only when packing would require a catastrophically slow bin. Jobs larger
//! than a node must pay the inter-node penalty anyway and are placed
//! PM-First (Algorithm 2, lines 23–25); single-GPU jobs have no locality
//! dimension and are likewise PM-First.
//!
//! Because traversal is ordered by LV-product, the first feasible entry
//! yields the globally minimal combined slowdown for the job (over the
//! binned scores) — the property `tests` verify against exhaustive search.
//!
//! # Cost per decision
//!
//! Neither arm's best allocation depends on an entry's score cap — only
//! whether it *qualifies* does — so each arm is evaluated once per decision
//! and no matrix is built: both rows ascend with the class's score levels,
//! so each row's first feasible entry is one `partition_point` over them.
//!
//! - **Packed `(L_within, V_i)`.** The policy keeps, per class, every
//!   node's GPUs in ascending (binned score, GPU id) order with the score
//!   stored beside each GPU — the *node-local orders*, built lazily from
//!   the global [`ClassOrders`] ordering in O(G) and static while the table
//!   is. A node's best packed pick is its first `N_j` free GPUs in that
//!   order, read off the [`pal_cluster::ClusterView`] bitset words; its
//!   cost is the `N_j`-th score (the pick's max) and the sum of all `N_j`.
//!   One O(nodes) pass brings every node's cost up to date; an entry with
//!   cap `V_i` is feasible iff the smallest node cost is within `V_i`, and
//!   the winning entry folds over the qualifying nodes (max, then sum, then
//!   lowest node id). No per-entry re-scan, filter or sort.
//! - **Spread `(L_across, V_i)`.** PM-First over the capped free list *is*
//!   plain PM-First whenever its `N_j`-th GPU passes the cap, so one walk
//!   of the class ordering fixes the pick and its `N_j`-th score places the
//!   row's `partition_point`. The walk is PM-First's own
//!   ([`ClassOrders::first_free_into`]): it resumes at the class's cursor
//!   while no GPU has been released, so it skips the GPUs earlier
//!   placements took only once. Because it moves that cursor, it runs only
//!   when the traversal would reach an Across entry — when the Across
//!   row's first product is below the Within winner's.
//!
//! A node's packed cost depends only on its free-bitset words, so the
//! costs are cached per (class, `N_j`) next to the words they were computed
//! from: the pass re-walks only nodes whose words changed since the last
//! decision with the same key. One `place_into` call allocates nothing once
//! the node-local orders and cost caches have warmed up.

use crate::lv::LocalityLevel;
use crate::pm_scores::PmScoreTable;
use crate::pmfirst::{class_priority_order_into, ensure_class_order};
use pal_cluster::{
    ClassOrders, ClusterState, ClusterView, GpuId, JobClass, NodeId, VariabilityProfile,
};
use pal_kmeans::ScoreBinning;
use pal_sim::{Allocation, PlacementCtx, PlacementPolicy, PlacementRequest};
use std::sync::Arc;

/// Score-filter tolerance for "PM-score ≤ V_i" comparisons.
const EPS: f64 = 1e-9;

/// PAL placement.
///
/// The PM-score table is held behind an `Arc`: sweeps that build many PAL
/// instances over one profile share a single table (see
/// [`crate::PmTableCache`] and [`PalPlacement::from_shared`]) instead of
/// re-running K-Means binning per instance.
#[derive(Debug, Clone)]
pub struct PalPlacement {
    table: Arc<PmScoreTable>,
    orders: ClassOrders,
    packed: PackedIndex,
}

/// A node-local order entry: `(binned score, local bit)`.
type LocalGpu = (f64, u32);

/// A node's packed cost: `(max, sum)` of its best free scores.
type PackedCost = (f64, f64);

/// The packed arm's long-lived state (see the module docs): per-class
/// node-local orders and per-(class, demand) node costs.
#[derive(Debug, Clone, Default)]
struct PackedIndex {
    /// Node width everything below was laid out for.
    gpus_per_node: usize,
    /// Per class, node-major: node `n`'s GPUs occupy
    /// `[n * gpus_per_node..][..gpus_per_node]` as `(binned score, local
    /// bit)` pairs, ascending by (score, GPU id). Empty until first built.
    orders: Vec<Vec<LocalGpu>>,
    /// Per `(class, demand)`, at `class * (gpus_per_node + 1) + demand`.
    costs: Vec<NodeCosts>,
}

/// Every node's packed cost for one (class, demand), each valid for the
/// free-bitset words recorded beside it.
#[derive(Debug, Clone, Default)]
struct NodeCosts {
    /// The words each node's cost was computed from, node-major like the
    /// view.
    seen: Vec<u64>,
    /// Per node `(max, sum)`; `max` is ∞ where the node cannot hold the
    /// job.
    cost: Vec<PackedCost>,
}

impl PackedIndex {
    /// Bring the `(class, demand)` node costs up to date with `view` and
    /// return the class's node-local orders, the costs, and the smallest
    /// node max (∞ if no node can hold the job). Builds the class's orders
    /// on first use by bucketing the global ascending `order` by node
    /// (which keeps each bucket ascending).
    fn refresh(
        &mut self,
        table: &PmScoreTable,
        class: JobClass,
        order: &[GpuId],
        demand: usize,
        view: &ClusterView,
    ) -> (&[LocalGpu], &[PackedCost], f64) {
        let gpn = view.gpus_per_node();
        if self.gpus_per_node != gpn {
            self.gpus_per_node = gpn;
            self.orders = vec![Vec::new(); table.num_classes()];
            self.costs = vec![NodeCosts::default(); table.num_classes() * (gpn + 1)];
        }
        let local = &mut self.orders[class.0];
        if local.is_empty() {
            assert_eq!(
                order.len(),
                view.nodes() * gpn,
                "PM-score table does not match the cluster's GPU count"
            );
            let mut fill: Vec<usize> = (0..view.nodes()).map(|n| n * gpn).collect();
            local.resize(order.len(), (0.0, 0));
            for &g in order {
                let slot = &mut fill[g.index() / gpn];
                local[*slot] = (table.score(class, g), (g.index() % gpn) as u32);
                *slot += 1;
            }
        }
        let costs = &mut self.costs[class.0 * (gpn + 1) + demand];
        if costs.cost.len() != view.nodes() {
            // Complemented words never match, so the pass below computes
            // every node on first use.
            costs.seen.clear();
            costs.seen.extend(view.node_spans().flatten().map(|w| !w));
            costs.cost.clear();
            costs
                .cost
                .resize(view.nodes(), (f64::INFINITY, f64::INFINITY));
        }
        let mut min = f64::INFINITY;
        let nodes = local
            .chunks_exact(gpn)
            .zip(view.node_spans())
            .zip(costs.seen.chunks_exact_mut(view.words_per_node()))
            .zip(&mut costs.cost);
        for (((node, words), seen), cost) in nodes {
            if words.iter().zip(seen.iter()).any(|(w, s)| w != s) {
                *cost = node_cost(node, words, demand);
                seen.copy_from_slice(words);
            }
            min = min.min(cost.0);
        }
        (local, &costs.cost, min)
    }
}

impl PalPlacement {
    /// Build from a variability profile using the paper's default binning.
    pub fn new(profile: &VariabilityProfile) -> Self {
        PalPlacement::from_shared(Arc::new(PmScoreTable::build_default(profile)))
    }

    /// Build with a custom binning configuration.
    pub fn with_binning(profile: &VariabilityProfile, binning: &ScoreBinning) -> Self {
        PalPlacement::from_shared(Arc::new(PmScoreTable::build(profile, binning)))
    }

    /// Build around an already-constructed shared table — the sweep path:
    /// a [`crate::PmTableCache`] builds each distinct table once and every
    /// campaign cell's policy borrows it by reference count.
    pub fn from_shared(table: Arc<PmScoreTable>) -> Self {
        let orders = ClassOrders::new(table.num_classes());
        PalPlacement {
            table,
            orders,
            packed: PackedIndex::default(),
        }
    }

    /// The precomputed PM-score table.
    pub fn table(&self) -> &PmScoreTable {
        &self.table
    }

    /// The shared handle to the PM-score table (e.g. to assert sharing in
    /// tests, or to hand the same table to another policy).
    pub fn shared_table(&self) -> &Arc<PmScoreTable> {
        &self.table
    }
}

/// The first entry, as `(row, V_i)`, in [`LvMatrix`](crate::LvMatrix)
/// traversal order whose row cost is `≤ V_i + EPS` — `packed_min` for
/// Within, `spread_max()` for Across — or `None`. Ties on product go to
/// Within, as in the matrix's sort key. `spread_max` runs exactly when the
/// traversal would reach an Across entry.
fn first_feasible_entry(
    levels: &[f64],
    l_within: f64,
    l_across: f64,
    packed_min: f64,
    spread_max: impl FnOnce() -> f64,
) -> Option<(LocalityLevel, f64)> {
    let w = levels.partition_point(|&v| packed_min > v + EPS);
    let within = levels.get(w).copied();
    let beats_within = |p: f64| within.is_none_or(|v| p < l_within * v);
    if levels.first().is_some_and(|&v| beats_within(l_across * v)) {
        let spread_max = spread_max();
        let a = levels.partition_point(|&v| spread_max > v + EPS);
        if let Some(&v) = levels.get(a).filter(|&&v| beats_within(l_across * v)) {
            return Some((LocalityLevel::Across, v));
        }
    }
    within.map(|v| (LocalityLevel::Within, v))
}

/// Whether local GPU `bit` is set in a node's free-bitset `words`.
fn is_free_bit(words: &[u64], bit: u32) -> bool {
    words[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
}

/// One node's packed cost for a `demand`-GPU job: the `demand`-th free
/// score in node-local order (the pick's max) and the ascending sum of the
/// first `demand`; `(∞, ∞)` if fewer than `demand` GPUs are free.
fn node_cost(node: &[LocalGpu], words: &[u64], demand: usize) -> PackedCost {
    let free: u32 = words.iter().map(|w| w.count_ones()).sum();
    if (free as usize) >= demand {
        let (mut left, mut sum) = (demand, 0.0);
        for &(score, bit) in node {
            if is_free_bit(words, bit) {
                sum += score;
                left -= 1;
                if left == 0 {
                    return (score, sum);
                }
            }
        }
    }
    (f64::INFINITY, f64::INFINITY)
}

/// The `(L_within, V_i)` pick at score cap `cap`: among nodes whose packed
/// cost fits under the cap, the lowest max (`GenerateCombos` + `GetMinV`;
/// a node's best `n` scores *are* its min-max combo), ties on sum, then
/// node id. Writes that node's first `demand` free GPUs in node-local
/// order into `out`. At least one node must qualify.
fn packed_pick_into(
    local: &[LocalGpu],
    costs: &[PackedCost],
    demand: usize,
    cap: f64,
    view: &ClusterView,
    out: &mut Allocation,
) {
    let mut best: Option<(usize, f64, f64)> = None;
    for (n, &(max_s, sum_s)) in costs.iter().enumerate() {
        if max_s > cap {
            continue;
        }
        let better = match best {
            None => true,
            Some((_, bm, bs)) => {
                max_s < bm - EPS || ((max_s - bm).abs() <= EPS && sum_s < bs - EPS)
            }
        };
        if better {
            best = Some((n, max_s, sum_s));
        }
    }
    let (n, _, _) = best.expect("a node qualified at this cap");
    let free = view.node_free(NodeId(n as u32));
    let gpn = view.gpus_per_node();
    out.clear();
    for &(_, bit) in &local[n * gpn..(n + 1) * gpn] {
        if is_free_bit(free.words(), bit) {
            out.push(GpuId(free.base().0 + bit));
            if out.len() == demand {
                return;
            }
        }
    }
}

impl PlacementPolicy for PalPlacement {
    fn name(&self) -> &str {
        "PAL"
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
        ctx: &PlacementCtx,
        state: &ClusterState,
        out: &mut Allocation,
    ) {
        let demand = request.gpu_demand;
        let class = request.class;
        ensure_class_order(&self.table, &mut self.orders, class);

        if demand > 1 && demand <= state.topology().gpus_per_node {
            // One `partition_point` per row over the class's levels: on the
            // smallest node cost for Within, then, only if the Across row's
            // first product undercuts that winner (the walk moves the class
            // cursor), on the spread walk's `demand`-th score.
            let (local, costs, packed_min) = self.packed.refresh(
                &self.table,
                class,
                self.orders.get(class.0),
                demand,
                ctx.view,
            );
            let entry = first_feasible_entry(
                self.table.levels(class),
                ctx.locality.l_within,
                ctx.locality.l_across_for(request.model),
                packed_min,
                || {
                    self.orders.first_free_into(class.0, demand, state, out);
                    if out.len() == demand {
                        self.table.score(class, out[demand - 1])
                    } else {
                        f64::INFINITY
                    }
                },
            );
            match entry {
                Some((LocalityLevel::Within, v)) => {
                    packed_pick_into(local, costs, demand, v + EPS, ctx.view, out);
                    return;
                }
                Some((LocalityLevel::Across, _)) => return, // `out` holds the spread pick
                None => {}
            }
        }
        // N_j == 1, N_j > GPUS_PER_NODE, or (defensively) no feasible
        // L×V entry: PM-First selection.
        self.orders.first_free_into(class.0, demand, state, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lv::LvMatrix;
    use pal_cluster::{ClusterTopology, LocalityModel};
    use pal_trace::JobId;
    use proptest::prelude::*;

    fn req(job: u32, class: JobClass, demand: usize) -> PlacementRequest {
        PlacementRequest {
            job: JobId(job),
            model: "resnet50",
            class,
            gpu_demand: demand,
        }
    }

    /// Raw scores chosen so binning keeps them distinct-ish: node 0 has two
    /// great and two terrible GPUs; node 1 is uniformly mediocre.
    fn split_profile() -> VariabilityProfile {
        let class_a = vec![0.90, 0.90, 2.60, 2.60, 1.05, 1.05, 1.05, 1.05];
        VariabilityProfile::from_raw(vec![class_a.clone(), class_a.clone(), class_a])
    }

    fn ctx_with<'a>(
        profile: &'a VariabilityProfile,
        locality: &'a LocalityModel,
        state: &'a ClusterState,
    ) -> PlacementCtx<'a> {
        PlacementCtx {
            profile,
            locality,
            view: state.view(),
        }
    }

    #[test]
    fn prefers_packed_mediocre_over_spread_good() {
        // 2 GPUs wanted. Packed options: (0.90, 0.90) in node 0 — great and
        // packed. PAL must find it.
        let profile = split_profile();
        let state = ClusterState::new(ClusterTopology::new(2, 4));
        let locality = LocalityModel::uniform(1.5);
        let mut pal = PalPlacement::new(&profile);
        let alloc = pal.place(
            &req(0, JobClass::A, 2),
            &ctx_with(&profile, &locality, &state),
            &state,
        );
        assert_eq!(alloc, vec![GpuId(0), GpuId(1)]);
    }

    #[test]
    fn avoids_terrible_bin_by_spreading() {
        // Want 3 GPUs. Packed-in-node-0 needs a 2.60 GPU (product 2.6);
        // packed-in-node-1 gives max 1.05 (product 1.05) — that wins. Now
        // busy out one node-1 GPU so node 1 can only give 3 with... it has
        // 4, keep 3 free: still fine. Then busy two: node 1 has 2 free, no
        // packed 3-set without the 2.60 bin -> PAL must spread (1.5 × 1.05
        // = 1.575) rather than pack with 2.60.
        let profile = split_profile();
        let mut state = ClusterState::new(ClusterTopology::new(2, 4));
        state.allocate(&[GpuId(4), GpuId(5)]);
        let locality = LocalityModel::uniform(1.5);
        let mut pal = PalPlacement::new(&profile);
        let alloc = pal.place(
            &req(0, JobClass::A, 3),
            &ctx_with(&profile, &locality, &state),
            &state,
        );
        assert!(state.topology().spans_nodes(&alloc));
        let worst = alloc
            .iter()
            .map(|&g| pal.table().score(JobClass::A, g))
            .fold(0.0f64, f64::max);
        assert!(worst < 2.0, "PAL picked a terrible GPU (max score {worst})");
    }

    #[test]
    fn packs_with_bad_bin_when_locality_is_expensive_enough() {
        // Same situation but L_across = 3.0: spread product = 3 × 1.05 =
        // 3.15 > packed-with-2.60 product 2.60 -> PAL packs on node 0.
        let profile = split_profile();
        let mut state = ClusterState::new(ClusterTopology::new(2, 4));
        state.allocate(&[GpuId(4), GpuId(5)]);
        let locality = LocalityModel::uniform(3.0);
        let mut pal = PalPlacement::new(&profile);
        let alloc = pal.place(
            &req(0, JobClass::A, 3),
            &ctx_with(&profile, &locality, &state),
            &state,
        );
        assert!(!state.topology().spans_nodes(&alloc));
        assert!(alloc.contains(&GpuId(2)) || alloc.contains(&GpuId(3)));
    }

    #[test]
    fn single_gpu_job_is_pmfirst() {
        let profile = split_profile();
        let state = ClusterState::new(ClusterTopology::new(2, 4));
        let locality = LocalityModel::uniform(1.5);
        let mut pal = PalPlacement::new(&profile);
        let alloc = pal.place(
            &req(0, JobClass::A, 1),
            &ctx_with(&profile, &locality, &state),
            &state,
        );
        assert_eq!(alloc, vec![GpuId(0)]); // globally best score
    }

    #[test]
    fn bigger_than_node_job_is_pmfirst() {
        let profile = split_profile();
        let state = ClusterState::new(ClusterTopology::new(2, 4));
        let locality = LocalityModel::uniform(1.5);
        let mut pal = PalPlacement::new(&profile);
        let mut pmf = crate::pmfirst::PmFirstPlacement::new(&profile);
        let ctx = ctx_with(&profile, &locality, &state);
        let a = pal.place(&req(0, JobClass::A, 6), &ctx, &state);
        let b = pmf.place(&req(0, JobClass::A, 6), &ctx, &state);
        assert_eq!(a, b);
    }

    #[test]
    fn class_c_ignores_variability_and_packs() {
        // Give class C flat scores; PAL should behave locality-first.
        let class_a = vec![0.90, 0.90, 2.60, 2.60, 1.05, 1.05, 1.05, 1.05];
        let class_c = vec![1.0; 8];
        let profile = VariabilityProfile::from_raw(vec![class_a.clone(), class_a, class_c]);
        let state = ClusterState::new(ClusterTopology::new(2, 4));
        let locality = LocalityModel::uniform(1.5);
        let mut pal = PalPlacement::new(&profile);
        let alloc = pal.place(
            &req(0, JobClass::C, 4),
            &ctx_with(&profile, &locality, &state),
            &state,
        );
        assert!(!state.topology().spans_nodes(&alloc));
    }

    #[test]
    fn placement_order_is_class_priority() {
        let profile = split_profile();
        let state = ClusterState::new(ClusterTopology::new(2, 4));
        let locality = LocalityModel::uniform(1.5);
        let pal = PalPlacement::new(&profile);
        let reqs = vec![
            req(0, JobClass::C, 1),
            req(1, JobClass::A, 1),
            req(2, JobClass::B, 1),
        ];
        assert_eq!(
            pal.placement_order(&reqs, &ctx_with(&profile, &locality, &state)),
            vec![1, 2, 0]
        );
    }

    /// PAL's traversal achieves the exhaustive minimum LV-product over all
    /// feasible allocations (see module docs for why first-feasible is
    /// optimal).
    #[test]
    fn achieves_exhaustive_minimum_lv_product() {
        let scenarios: Vec<(Vec<f64>, Vec<GpuId>, usize, f64)> = vec![
            // (class-A raw scores per GPU, busy GPUs, demand, l_across)
            (
                vec![0.90, 0.90, 2.60, 2.60, 1.05, 1.05, 1.05, 1.05],
                vec![GpuId(4), GpuId(5)],
                3,
                1.5,
            ),
            (
                vec![0.90, 0.90, 2.60, 2.60, 1.05, 1.05, 1.05, 1.05],
                vec![GpuId(4), GpuId(5)],
                3,
                3.0,
            ),
            (vec![1.0, 1.3, 1.3, 1.0, 0.8, 2.4, 0.8, 2.4], vec![], 2, 1.7),
            (
                vec![1.0, 1.3, 1.3, 1.0, 0.8, 2.4, 0.8, 2.4],
                vec![GpuId(0)],
                4,
                1.2,
            ),
        ];
        for (scores, busy, demand, l_across) in scenarios {
            let profile =
                VariabilityProfile::from_raw(vec![scores.clone(), scores.clone(), scores]);
            let topo = ClusterTopology::new(2, 4);
            let mut state = ClusterState::new(topo);
            state.allocate(&busy);
            let locality = LocalityModel::uniform(l_across);
            let mut pal = PalPlacement::new(&profile);
            let ctx = ctx_with(&profile, &locality, &state);
            let alloc = pal.place(&req(0, JobClass::A, demand), &ctx, &state);

            let product_of = |gpus: &[GpuId]| {
                let l = locality.penalty(&topo, "resnet50", gpus);
                let v = gpus
                    .iter()
                    .map(|&g| pal.table().score(JobClass::A, g))
                    .fold(0.0f64, f64::max);
                l * v
            };
            let achieved = product_of(&alloc);

            // Exhaustive minimum over all C(free, demand) subsets.
            let free = state.free_gpus();
            let mut best = f64::INFINITY;
            let mut combo = vec![0usize; demand];
            fn recurse(
                free: &[GpuId],
                combo: &mut Vec<usize>,
                depth: usize,
                start: usize,
                best: &mut f64,
                product_of: &dyn Fn(&[GpuId]) -> f64,
            ) {
                if depth == combo.len() {
                    let gpus: Vec<GpuId> = combo.iter().map(|&i| free[i]).collect();
                    let p = product_of(&gpus);
                    if p < *best {
                        *best = p;
                    }
                    return;
                }
                for i in start..free.len() {
                    combo[depth] = i;
                    recurse(free, combo, depth + 1, i + 1, best, product_of);
                }
            }
            recurse(&free, &mut combo, 0, 0, &mut best, &product_of);
            assert!(
                (achieved - best).abs() < 1e-9,
                "PAL product {achieved} != exhaustive min {best} \
                 (demand {demand}, l_across {l_across})"
            );
        }
    }

    /// The traversal [`first_feasible_entry`] stands for: walk the sorted
    /// matrix and take the first entry whose row cost is `≤ V_i + EPS`,
    /// asking for the spread cost on the first Across entry reached.
    /// Returns the entry and whether the spread cost was asked for.
    fn traversal_entry(
        levels: &[f64],
        l_within: f64,
        l_across: f64,
        packed_min: f64,
        spread_max: f64,
    ) -> (Option<(LocalityLevel, f64)>, bool) {
        let mut spread = None;
        for e in LvMatrix::new(levels, l_within, l_across).traverse() {
            let cost = match e.locality {
                LocalityLevel::Within => packed_min,
                LocalityLevel::Across => *spread.get_or_insert(spread_max),
            };
            if cost <= e.v_value + EPS {
                return (Some((e.locality, e.v_value)), spread.is_some());
            }
        }
        (None, spread.is_some())
    }

    /// A row cost near `levels`: ∞, below or above every level, or a level
    /// itself, its cap `v + EPS`, or one ulp either side of that cap.
    fn cost_near(levels: &[f64], (kind, i, x): (usize, usize, f64)) -> f64 {
        let v = levels[i % levels.len()];
        match kind {
            0 => f64::INFINITY,
            1 => levels[0] * x,
            2 => levels[levels.len() - 1] + 1.0 + x,
            3 => v,
            4 => v + EPS,
            5 => (v + EPS).next_up(),
            _ => (v + EPS).next_down(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The closed form picks the traversal's first feasible entry and
        /// runs the spread walk exactly when the traversal reaches an
        /// Across entry. Levels are one to twelve ascending values whose
        /// gaps may be one ulp, about `EPS`, or wide; `l_across` may equal
        /// `l_within` (Figure 13's C1.0) or sit one ulp above it.
        #[test]
        fn closed_form_matches_traversal(
            base in 0.5f64..1.5,
            gaps in proptest::collection::vec((0usize..3, 0.0f64..1.0), 0..12),
            l_within in prop_oneof![Just(1.0), 0.5f64..2.0],
            l_kind in 0usize..3,
            l_x in 0.0f64..2.0,
            packed in (0usize..7, 0usize..12, 0.0f64..1.0),
            spread in (0usize..7, 0usize..12, 0.0f64..1.0),
        ) {
            let mut levels = vec![base];
            for (kind, x) in gaps {
                let prev = levels[levels.len() - 1];
                levels.push(match kind {
                    0 => prev.next_up(),
                    1 => prev + EPS * (0.5 + x),
                    _ => prev + x + EPS,
                });
            }
            let l_across = match l_kind {
                0 => l_within,
                1 => l_within.next_up(),
                _ => l_within * (1.0 + l_x),
            };
            let packed_min = cost_near(&levels, packed);
            let spread_max = cost_near(&levels, spread);
            let (want, want_walk) = traversal_entry(&levels, l_within, l_across, packed_min, spread_max);
            let mut walked = false;
            let got = first_feasible_entry(&levels, l_within, l_across, packed_min, || {
                walked = true;
                spread_max
            });
            prop_assert_eq!(
                (got, walked), (want, want_walk),
                "levels {:?}, l {}/{}, packed_min {}, spread_max {}",
                levels, l_within, l_across, packed_min, spread_max
            );
        }
    }
}
