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
//! and every L×V entry is then a single comparison:
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
//!   plain PM-First whenever its `N_j`-th GPU passes the cap, so one lazy
//!   walk of the class ordering fixes the pick and each entry tests that
//!   GPU's score. The walk is PM-First's own
//!   ([`ClassOrders::first_free_into`]): it resumes at the class's cursor
//!   while no GPU has been released, so it skips the GPUs earlier
//!   placements took only once.
//!
//! A node's packed cost depends only on its free-bitset words, so the
//! costs are cached per (class, `N_j`) next to the words they were computed
//! from: the pass re-walks only nodes whose words changed since the last
//! decision with the same key. One `place_into` call allocates nothing once
//! the node-local orders and cost caches have warmed up.

use crate::lv::{LocalityLevel, LvMatrix};
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
    /// Cached per-class L×V matrices, keyed by the locality multipliers
    /// they were built with (one model's `l_across` at a time; rebuilt in
    /// place when a request's model maps to different multipliers).
    lv_cache: Vec<Option<LvSlot>>,
}

/// One cached L×V matrix plus the locality multipliers it encodes.
#[derive(Debug, Clone)]
struct LvSlot {
    l_within: f64,
    l_across: f64,
    matrix: LvMatrix,
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
        let lv_cache = vec![None; table.num_classes()];
        PalPlacement {
            table,
            orders,
            packed: PackedIndex::default(),
            lv_cache,
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

/// The class's L×V matrix for the request's locality multipliers, from
/// the policy's cache — rebuilt in place (no allocation once warm) only
/// when the multipliers change (e.g. per-model `l_across`). A free
/// function over the individual fields so callers can keep borrowing the
/// table/orders/scratch alongside the returned matrix.
fn lv_matrix<'a>(
    cache: &'a mut [Option<LvSlot>],
    table: &PmScoreTable,
    class: JobClass,
    l_within: f64,
    l_across: f64,
) -> &'a LvMatrix {
    let slot = &mut cache[class.0];
    match slot {
        Some(s) if s.l_within == l_within && s.l_across == l_across => {}
        Some(s) => {
            s.matrix.rebuild(table.levels(class), l_within, l_across);
            s.l_within = l_within;
            s.l_across = l_across;
        }
        None => {
            *slot = Some(LvSlot {
                l_within,
                l_across,
                matrix: LvMatrix::new(table.levels(class), l_within, l_across),
            });
        }
    }
    &slot.as_ref().expect("slot just filled").matrix
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
            // The first entry is always packed (`l_across >= l_within`,
            // ties resolve Within first), so the packed costs are needed
            // up front; the spread pick's `demand`-th score is computed on
            // the first `L_across` entry reached.
            let (local, costs, packed_min) = self.packed.refresh(
                &self.table,
                class,
                self.orders.get(class.0),
                demand,
                ctx.view,
            );
            let matrix = lv_matrix(
                &mut self.lv_cache,
                &self.table,
                class,
                ctx.locality.l_within,
                ctx.locality.l_across_for(request.model),
            );
            let mut spread_max: Option<f64> = None;
            for entry in matrix.traverse() {
                let cap = entry.v_value + EPS;
                match entry.locality {
                    LocalityLevel::Within => {
                        if packed_min <= cap {
                            packed_pick_into(local, costs, demand, cap, ctx.view, out);
                            return;
                        }
                    }
                    LocalityLevel::Across => {
                        let max = *spread_max.get_or_insert_with(|| {
                            self.orders.first_free_into(class.0, demand, state, out);
                            if out.len() == demand {
                                self.table.score(class, out[demand - 1])
                            } else {
                                f64::INFINITY
                            }
                        });
                        if max <= cap {
                            return; // `out` holds the spread pick
                        }
                    }
                }
            }
        }
        // N_j == 1, N_j > GPUS_PER_NODE, or (defensively) an exhausted
        // traversal: PM-First selection.
        self.orders.first_free_into(class.0, demand, state, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pal_cluster::{ClusterTopology, LocalityModel};
    use pal_trace::JobId;

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
}
