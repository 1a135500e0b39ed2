//! Criterion benchmark for campaign start-up cost: a scenarios×policies
//! grid over **one** distinct profile must pay for one PM-score table
//! build (K-Means + silhouette over every class), not one per cell.
//!
//! Two wall-time variants run the same 4×4 grid:
//!
//! - `shared_cache`: the PR-5 path — `Arc`-shared trace/profile handles
//!   and a [`pal::PmTableCache`] shared across the policy columns, so
//!   PM-First and PAL cells all borrow one table;
//! - `per_cell_build`: the historical behaviour — every table-consuming
//!   cell rebuilds its table from the profile (8 builds for the 4×4
//!   grid: 4 PM-First + 4 PAL cells).
//!
//! `table_build/longhorn_2500` times one cold
//! [`PmScoreTable::build_default`](pal::PmScoreTable::build_default) on a
//! modeled 2,500-GPU Longhorn (the size of the `wide_train` benchmark
//! workload): the cost each distinct profile pays once, under the cache
//! lock.
//!
//! Beyond wall time, `main` records the *deterministic* build counts
//! (`builds/...`) into `BENCH_engine.json`; the CI bench gate pins them
//! bit-exactly, so a regression that quietly reintroduces per-cell table
//! construction fails the build even on a noisy runner.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use pal::{PalPlacement, PmFirstPlacement, PmScoreTable, PmTableCache};
use pal_bench::{modeled_longhorn_profile, PROFILE_SEED};
use pal_cluster::{ClusterTopology, JobClass, LocalityModel, VariabilityProfile};
use pal_gpumodel::Workload;
use pal_sim::placement::{PackedPlacement, RandomPlacement};
use pal_sim::sched::{Fifo, Las, Srsf, Srtf};
use pal_sim::{Campaign, PolicySpec, Scenario};
use pal_trace::{JobId, JobSpec, Trace};
use std::sync::Arc;

/// Cluster for the grid: the paper's 64-GPU Sia configuration — large
/// enough that the K ∈ 2..=11 binning sweep has real work per class.
fn topology() -> ClusterTopology {
    ClusterTopology::sia_64()
}

/// Deterministic non-flat 3-class profile sized to the cluster; built
/// once and shared so profile synthesis stays outside the measurement.
fn profile(gpus: usize) -> VariabilityProfile {
    VariabilityProfile::from_raw(
        (0..3)
            .map(|c| {
                (0..gpus)
                    .map(|g| 1.0 + ((g * 11 + c * 17) % 13) as f64 * 0.04)
                    .collect()
            })
            .collect(),
    )
}

/// A small trace: the grid's cells should be dominated by start-up work
/// (table builds or their absence), not by simulated rounds.
fn small_trace(tag: u32) -> Trace {
    Trace::new(
        format!("startup-{tag}"),
        (0..10)
            .map(|i| JobSpec {
                id: JobId(i),
                model: Workload::ResNet50,
                class: JobClass(i as usize % 3),
                arrival: i as f64 * 120.0,
                gpu_demand: 1 + (i as usize % 4),
                iterations: 300 + 60 * i as u64,
                base_iter_time: 1.0,
            })
            .collect(),
    )
}

/// The 4-scenario axis: one scheduler per row, all rows sharing the same
/// `Arc` trace/profile handles.
fn grid_campaign(policies: Vec<PolicySpec>) -> Campaign {
    let profile = Arc::new(profile(topology().total_gpus()));
    let locality = Arc::new(LocalityModel::uniform(1.5));
    let mut campaign = Campaign::new().seed(0x5EED).policies(policies);
    for (tag, idx) in [("fifo", 0u32), ("las", 1), ("srtf", 2), ("srsf", 3)] {
        let trace = Arc::new(small_trace(idx));
        let profile = Arc::clone(&profile);
        let locality = Arc::clone(&locality);
        campaign = campaign.scenario(tag, move || {
            let s = Scenario::new(Arc::clone(&trace), topology())
                .profile(Arc::clone(&profile))
                .locality(Arc::clone(&locality));
            match idx {
                0 => s.scheduler(Fifo),
                1 => s.scheduler(Las::default()),
                2 => s.scheduler(Srtf),
                _ => s.scheduler(Srsf),
            }
        });
    }
    campaign
}

/// The 4-policy axis with a shared table cache: one build serves every
/// PM-First and PAL cell.
fn cached_policies(cache: &Arc<PmTableCache>) -> Vec<PolicySpec> {
    let pal_cache = Arc::clone(cache);
    let pmf_cache = Arc::clone(cache);
    vec![
        PolicySpec::new("Random", |_, seed| Box::new(RandomPlacement::new(seed))),
        PolicySpec::new("Tiresias", |_, seed| {
            Box::new(PackedPlacement::randomized(seed))
        })
        .sticky(true),
        PolicySpec::new("PM-First", move |profile, _| {
            Box::new(PmFirstPlacement::from_shared(
                pmf_cache.get_or_build_default(profile),
            ))
        }),
        PolicySpec::new("PAL", move |profile, _| {
            Box::new(PalPlacement::from_shared(
                pal_cache.get_or_build_default(profile),
            ))
        }),
    ]
}

/// The same 4-policy axis rebuilding tables per cell (the pre-cache
/// behaviour, kept as the bench's contrast arm).
fn uncached_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::new("Random", |_, seed| Box::new(RandomPlacement::new(seed))),
        PolicySpec::new("Tiresias", |_, seed| {
            Box::new(PackedPlacement::randomized(seed))
        })
        .sticky(true),
        PolicySpec::new("PM-First", |profile, _| {
            Box::new(PmFirstPlacement::new(profile))
        }),
        PolicySpec::new("PAL", |profile, _| Box::new(PalPlacement::new(profile))),
    ]
}

fn bench_campaign_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_grid");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("4x4", "shared_cache"), |b| {
        b.iter(|| {
            let cache = Arc::new(PmTableCache::new());
            let results = grid_campaign(cached_policies(&cache))
                .run()
                .expect("bench campaign");
            assert_eq!(cache.builds(), 1, "grid over one profile, one build");
            black_box(results.len())
        })
    });
    group.bench_function(BenchmarkId::new("4x4", "per_cell_build"), |b| {
        b.iter(|| {
            let results = grid_campaign(uncached_policies())
                .run()
                .expect("bench campaign");
            black_box(results.len())
        })
    });
    group.finish();
}

fn bench_table_build(c: &mut Criterion) {
    let profile = modeled_longhorn_profile(2500, PROFILE_SEED);
    let mut group = c.benchmark_group("table_build");
    group.sample_size(10);
    group.bench_function("longhorn_2500", |b| {
        b.iter(|| black_box(PmScoreTable::build_default(&profile)))
    });
    group.finish();
}

criterion_group!(benches, bench_campaign_grid, bench_table_build);

fn main() {
    benches();
    let mut entries = criterion::take_measurements();
    // Deterministic build counts for the CI gate: one distinct profile ⇒
    // one table build; a second distinct profile (the truth-perturbation
    // shape) ⇒ exactly one more. Counter-verified through PmTableCache,
    // independent of machine speed.
    let cache = Arc::new(PmTableCache::new());
    grid_campaign(cached_policies(&cache))
        .run()
        .expect("build-accounting run");
    entries.push(("builds/4x4_one_profile".to_string(), cache.builds() as f64));
    let second = profile(topology().total_gpus()).perturbed(JobClass::A, &[], 1.0);
    // Same content ⇒ still one build; a genuinely different profile adds one.
    cache.get_or_build_default(&second);
    entries.push((
        "builds/after_identical_profile".to_string(),
        cache.builds() as f64,
    ));
    let perturbed =
        profile(topology().total_gpus()).perturbed(JobClass::A, &[pal_cluster::GpuId(0)], 4.0);
    cache.get_or_build_default(&perturbed);
    entries.push((
        "builds/after_distinct_profile".to_string(),
        cache.builds() as f64,
    ));
    pal_bench::bench_json::update_workspace("campaign_startup", &entries)
        .expect("update BENCH_engine.json");
}
