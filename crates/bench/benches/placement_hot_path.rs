//! The placement hot path at saturation: one `place_into` decision for
//! PAL vs PM-First vs Packed on a nearly full cluster, across cluster
//! sizes — the exact code the engine times for Figure 18.
//!
//! Beyond wall-clock timings, this bench runs under a counting global
//! allocator and *asserts* the PR-3 redesign's core claim: after warmup
//! (class orderings built, scratch buffers grown), `place_into` performs
//! **zero heap allocations per call** for every policy. The measured
//! allocs/call are merged into the repo-root `BENCH_engine.json`
//! alongside the timings (section `placement_hot_path`).

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use pal::{PalPlacement, PmFirstPlacement};
use pal_bench::{longhorn_profile, modeled_longhorn_profile, PROFILE_SEED};
use pal_cluster::{
    ClusterState, ClusterTopology, GpuId, JobClass, LocalityModel, VariabilityProfile,
};
use pal_sim::placement::{PackedPlacement, RandomPlacement};
use pal_sim::{Allocation, PlacementCtx, PlacementPolicy, PlacementRequest};
use pal_trace::JobId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting every alloc/realloc (frees excluded:
/// the claim under test is that the hot path *acquires* no memory).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn request(demand: usize) -> PlacementRequest {
    PlacementRequest {
        job: JobId(0),
        model: "resnet50",
        class: JobClass::A,
        gpu_demand: demand,
    }
}

/// Saturated occupancy: 3 of every 4 GPUs busy, holes scattered across
/// nodes — the regime where per-decision free-list rebuilds used to hurt
/// most (many nodes, small free lists).
fn saturated(topo: ClusterTopology) -> ClusterState {
    let mut state = ClusterState::new(topo);
    let gpus: Vec<GpuId> = topo
        .all_gpus()
        .into_iter()
        .filter(|g| g.index() % 4 != 3)
        .collect();
    state.allocate(&gpus);
    state
}

/// The policy lineup of the bench (paper policies + baselines), with
/// unambiguous labels (both Packed modes report `name() == "Packed"`).
fn policies(profile: &VariabilityProfile) -> Vec<(&'static str, Box<dyn PlacementPolicy>)> {
    vec![
        ("PAL", Box::new(PalPlacement::new(profile))),
        ("PM-First", Box::new(PmFirstPlacement::new(profile))),
        ("Packed-det", Box::new(PackedPlacement::deterministic())),
        ("Packed-rand", Box::new(PackedPlacement::randomized(17))),
        ("Random", Box::new(RandomPlacement::new(17))),
    ]
}

fn bench_single_place(c: &mut Criterion) {
    let locality = LocalityModel::uniform(1.7);
    let mut group = c.benchmark_group("single_place");
    for nodes in [16usize, 64] {
        let topo = ClusterTopology::new(nodes, 4);
        let n = topo.total_gpus();
        let profile = longhorn_profile(n, PROFILE_SEED);
        let state = saturated(topo);
        let ctx = PlacementCtx {
            profile: &profile,
            locality: &locality,
            view: state.view(),
        };
        for (label, mut policy) in policies(&profile) {
            let mut out: Allocation = Vec::new();
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    policy.place_into(&request(4), &ctx, &state, &mut out);
                    black_box(out.len())
                })
            });
        }
    }
    // The 2,500-GPU `wide_train` cluster (625 × 4), modeled Longhorn
    // scores: the scale at which PAL's per-node packed pass dominates.
    // Demand 4 keys match the smaller points; demand 2 gets a `-d2` label.
    let (topo, profile) = large_cluster();
    let n = topo.total_gpus();
    let state = saturated(topo);
    let ctx = PlacementCtx {
        profile: &profile,
        locality: &locality,
        view: state.view(),
    };
    for (label, mut policy) in large_policies(&profile) {
        for demand in [2usize, 4] {
            let id = if demand == 4 {
                BenchmarkId::new(label, n)
            } else {
                BenchmarkId::new(format!("{label}-d{demand}"), n)
            };
            let mut out: Allocation = Vec::new();
            group.bench_with_input(id, &n, |b, _| {
                b.iter(|| {
                    policy.place_into(&request(demand), &ctx, &state, &mut out);
                    black_box(out.len())
                })
            });
        }
    }
    group.finish();
}

/// The 2,500-GPU point's topology and modeled Longhorn profile.
fn large_cluster() -> (ClusterTopology, VariabilityProfile) {
    let topo = ClusterTopology::new(625, 4);
    let profile = modeled_longhorn_profile(topo.total_gpus(), PROFILE_SEED);
    (topo, profile)
}

/// The policies measured at the 2,500-GPU point: the two paper policies.
fn large_policies(profile: &VariabilityProfile) -> Vec<(&'static str, Box<dyn PlacementPolicy>)> {
    let mut lineup = policies(profile);
    lineup.retain(|(label, _)| matches!(*label, "PAL" | "PM-First"));
    lineup
}

/// Run `policy` through a warmup and then `calls` decisions at each of
/// `demands`, returning the heap allocations made after warmup.
fn allocs_after_warmup(
    policy: &mut dyn PlacementPolicy,
    ctx: &PlacementCtx,
    state: &ClusterState,
    demands: &[usize],
    calls: u64,
) -> u64 {
    let mut out: Allocation = Vec::new();
    // Warmup: builds lazy class orderings (and PAL's node-local orders)
    // and grows every scratch buffer to steady-state capacity.
    for _ in 0..16 {
        for &d in demands {
            policy.place_into(&request(d), ctx, state, &mut out);
        }
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..calls {
        for &d in demands {
            policy.place_into(&request(d), ctx, state, &mut out);
            black_box(out.len());
        }
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Post-warmup allocation counts: `place_into` must not touch the heap.
/// Reported per policy (allocs per 1000 calls, so flakiness would show as
/// a fraction) and asserted to be exactly zero.
fn check_zero_allocations() -> Vec<(String, f64)> {
    const CALLS: u64 = 1000;
    let locality = LocalityModel::uniform(1.7);
    let topo = ClusterTopology::new(64, 4);
    let profile = longhorn_profile(topo.total_gpus(), PROFILE_SEED);
    let state = saturated(topo);
    let ctx = PlacementCtx {
        profile: &profile,
        locality: &locality,
        view: state.view(),
    };
    let mut results = Vec::new();
    for (label, mut policy) in policies(&profile) {
        let allocs = allocs_after_warmup(policy.as_mut(), &ctx, &state, &[4], CALLS);
        println!("allocs_per_place/{label}: {allocs} allocations across {CALLS} calls");
        assert_eq!(allocs, 0, "{label} allocated on the placement hot path");
        results.push((format!("allocs_per_place/{label}"), allocs as f64));
    }
    let (topo, profile) = large_cluster();
    let state = saturated(topo);
    let ctx = PlacementCtx {
        profile: &profile,
        locality: &locality,
        view: state.view(),
    };
    for (label, mut policy) in large_policies(&profile) {
        let allocs = allocs_after_warmup(policy.as_mut(), &ctx, &state, &[2, 4], CALLS);
        let n = topo.total_gpus();
        println!("allocs_per_place/{label}/{n}: {allocs} allocations across {CALLS}x2 calls");
        assert_eq!(
            allocs, 0,
            "{label} allocated on the {n}-GPU placement hot path"
        );
        results.push((format!("allocs_per_place/{label}/{n}"), allocs as f64));
    }
    results
}

criterion_group!(benches, bench_single_place);

fn main() {
    benches();
    let mut measurements = criterion::take_measurements();
    measurements.extend(check_zero_allocations());
    pal_bench::bench_json::update_workspace("placement_hot_path", &measurements)
        .expect("update BENCH_engine.json");
}
