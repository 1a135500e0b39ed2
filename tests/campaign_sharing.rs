//! Sharing semantics of `Arc`-backed campaign inputs and the memoized
//! PM-score table cache (PR 5).
//!
//! Two contracts:
//!
//! 1. **Equivalence** — sharing is a cost optimization, not a semantic
//!    change: a campaign whose factories hand every cell `Arc` handles of
//!    one trace/profile/locality (and whose policy builders borrow one
//!    cached PM-score table) produces `same_outcome`-identical results to
//!    the historical per-cell behaviour, where every factory call deep-
//!    clones the inputs and every PAL/PM-First constructor re-runs
//!    K-Means binning — across the full scheduler × placement grid.
//! 2. **Build accounting** — a scenarios×policies grid over one distinct
//!    profile performs exactly one table build (counter-verified through
//!    [`PmTableCache`]), and a grid over P distinct profiles performs
//!    exactly P.

use pal::{AdaptiveConfig, AdaptivePal, PalPlacement, PmFirstPlacement, PmTableCache};
use pal_cluster::{ClusterTopology, JobClass, LocalityModel, VariabilityProfile};
use pal_gpumodel::Workload;
use pal_sim::placement::{PackedPlacement, RandomPlacement};
use pal_sim::sched::{Fifo, Las, Srsf, Srtf};
use pal_sim::{Campaign, CampaignResult, PolicySpec, Scenario};
use pal_trace::{JobId, JobSpec, Trace};
use std::sync::Arc;

fn topology() -> ClusterTopology {
    ClusterTopology::new(4, 4)
}

fn grid_trace() -> Trace {
    Trace::new(
        "sharing-grid",
        (0..16)
            .map(|i| JobSpec {
                id: JobId(i),
                model: Workload::ResNet50,
                class: JobClass(i as usize % 3),
                arrival: i as f64 * 140.0,
                gpu_demand: 1 + (i as usize % 4),
                iterations: 400 + 90 * i as u64,
                base_iter_time: 1.0,
            })
            .collect(),
    )
}

fn varied_profile(gpus: usize, bump: f64) -> VariabilityProfile {
    VariabilityProfile::from_raw(
        (0..3)
            .map(|c| {
                (0..gpus)
                    .map(|g| 1.0 + bump + ((g * 7 + c * 5) % 9) as f64 * 0.06)
                    .collect()
            })
            .collect(),
    )
}

/// The four scheduler rows of the grid; `build_scenario` supplies the
/// shared-or-cloned base scenario per cell.
fn with_scheduler_rows(
    mut campaign: Campaign,
    build_scenario: impl Fn() -> Scenario + Clone + Send + Sync + 'static,
) -> Campaign {
    for (tag, pick) in [("fifo", 0u8), ("las", 1), ("srtf", 2), ("srsf", 3)] {
        let base = build_scenario.clone();
        campaign = campaign.scenario(tag, move || match pick {
            0 => base().scheduler(Fifo),
            1 => base().scheduler(Las::default()),
            2 => base().scheduler(Srtf),
            _ => base().scheduler(Srsf),
        });
    }
    campaign
}

/// The four placement columns, table-consuming policies sourced from the
/// given builder so callers choose cached vs per-cell construction.
fn policy_columns(
    pal_of: impl Fn(&VariabilityProfile) -> PalPlacement + Send + Sync + 'static,
    pmfirst_of: impl Fn(&VariabilityProfile) -> PmFirstPlacement + Send + Sync + 'static,
) -> Vec<PolicySpec> {
    vec![
        PolicySpec::new("Random", |_, seed| Box::new(RandomPlacement::new(seed))),
        PolicySpec::new("Tiresias", |_, seed| {
            Box::new(PackedPlacement::randomized(seed))
        })
        .sticky(true),
        PolicySpec::new("PM-First", move |p, _| Box::new(pmfirst_of(p))),
        PolicySpec::new("PAL", move |p, _| Box::new(pal_of(p))),
    ]
}

fn run_shared() -> (Vec<CampaignResult>, Arc<PmTableCache>) {
    let trace = Arc::new(grid_trace());
    let profile = Arc::new(varied_profile(topology().total_gpus(), 0.0));
    let locality = Arc::new(LocalityModel::uniform(1.5));
    let cache = Arc::new(PmTableCache::new());
    let (pal_cache, pmf_cache) = (Arc::clone(&cache), Arc::clone(&cache));
    let campaign = with_scheduler_rows(
        Campaign::new().seed(0xA11CE).policies(policy_columns(
            move |p| PalPlacement::from_shared(pal_cache.get_or_build_default(p)),
            move |p| PmFirstPlacement::from_shared(pmf_cache.get_or_build_default(p)),
        )),
        move || {
            Scenario::new(Arc::clone(&trace), topology())
                .profile(Arc::clone(&profile))
                .locality(Arc::clone(&locality))
        },
    );
    (campaign.run().expect("shared campaign"), cache)
}

fn run_per_cell_clone() -> Vec<CampaignResult> {
    // The PR-4 shape: owned inputs captured by the factory, deep-cloned on
    // every call; PAL/PM-First rebuild their tables from the profile in
    // every cell.
    let trace = grid_trace();
    let profile = varied_profile(topology().total_gpus(), 0.0);
    let locality = LocalityModel::uniform(1.5);
    let campaign = with_scheduler_rows(
        Campaign::new()
            .seed(0xA11CE)
            .policies(policy_columns(PalPlacement::new, PmFirstPlacement::new)),
        move || {
            Scenario::new(trace.clone(), topology())
                .profile(profile.clone())
                .locality(locality.clone())
        },
    );
    campaign.run().expect("per-cell-clone campaign")
}

#[test]
fn arc_sharing_is_outcome_identical_to_per_cell_cloning() {
    let (shared, _) = run_shared();
    let cloned = run_per_cell_clone();
    assert_eq!(shared.len(), 16);
    assert_eq!(shared.len(), cloned.len());
    for (a, b) in shared.iter().zip(&cloned) {
        assert_eq!(
            (a.scenario.as_str(), a.policy.as_str()),
            (b.scenario.as_str(), b.policy.as_str())
        );
        assert_eq!(a.seed, b.seed, "{}/{}: seed moved", a.scenario, a.policy);
        assert!(
            a.result.same_outcome(&b.result),
            "{}/{}: Arc sharing changed the outcome",
            a.scenario,
            a.policy
        );
        assert_eq!(a.result.records, b.result.records);
    }
}

#[test]
fn one_profile_grid_builds_exactly_one_table() {
    let (results, cache) = run_shared();
    assert_eq!(results.len(), 16);
    assert_eq!(
        cache.builds(),
        1,
        "4 scenarios × 4 policies over one profile must build one table"
    );
    assert_eq!(cache.len(), 1);
}

#[test]
fn table_builds_scale_with_distinct_profiles_not_cells() {
    // Two scenario rows with profile A, two with profile B, times four
    // policy columns: 16 cells, exactly 2 builds.
    let profiles = [
        Arc::new(varied_profile(topology().total_gpus(), 0.0)),
        Arc::new(varied_profile(topology().total_gpus(), 0.4)),
    ];
    let trace = Arc::new(grid_trace());
    let cache = Arc::new(PmTableCache::new());
    let (pal_cache, pmf_cache) = (Arc::clone(&cache), Arc::clone(&cache));
    let mut campaign = Campaign::new().seed(7).policies(policy_columns(
        move |p| PalPlacement::from_shared(pal_cache.get_or_build_default(p)),
        move |p| PmFirstPlacement::from_shared(pmf_cache.get_or_build_default(p)),
    ));
    for (tag, which) in [("a0", 0usize), ("a1", 0), ("b0", 1), ("b1", 1)] {
        let trace = Arc::clone(&trace);
        let profile = Arc::clone(&profiles[which]);
        campaign = campaign.scenario(tag, move || {
            Scenario::new(Arc::clone(&trace), topology()).profile(Arc::clone(&profile))
        });
    }
    let results = campaign.run().expect("two-profile campaign");
    assert_eq!(results.len(), 16);
    assert_eq!(cache.builds(), 2, "builds must track distinct profiles");
}

#[test]
fn cached_policies_share_one_table_instance() {
    // Not just "equal" tables — the *same allocation*, across policy
    // kinds, including Adaptive-PAL's initial design-time table.
    let profile = varied_profile(topology().total_gpus(), 0.0);
    let cache = PmTableCache::new();
    let table = cache.get_or_build_default(&profile);
    let pal = PalPlacement::from_shared(cache.get_or_build_default(&profile));
    let pmf = PmFirstPlacement::from_shared(cache.get_or_build_default(&profile));
    let config = AdaptiveConfig::default();
    let adaptive = AdaptivePal::from_shared(&profile, cache.get_or_build_default(&profile), config);
    assert!(Arc::ptr_eq(&table, pal.shared_table()));
    assert!(Arc::ptr_eq(&table, pmf.shared_table()));
    assert_eq!(adaptive.table(), &*table);
    assert_eq!(cache.builds(), 1);
    // And the shared table is the same value a from-scratch build yields.
    assert_eq!(*table, *PalPlacement::new(&profile).table());
}

#[test]
fn adaptive_from_shared_behaves_like_with_config() {
    // The shared-table constructor must be a pure cost optimization.
    let profile = varied_profile(topology().total_gpus(), 0.2);
    let cache = PmTableCache::new();
    let config = AdaptiveConfig::default();
    let shared = AdaptivePal::from_shared(
        &profile,
        cache.get_or_build_default(&profile),
        config.clone(),
    );
    let owned = AdaptivePal::with_config(&profile, config);
    assert_eq!(shared.table(), owned.table());
    for c in 0..3 {
        for g in 0..topology().total_gpus() {
            assert_eq!(
                shared.estimate(JobClass(c), pal_cluster::GpuId(g as u32)),
                owned.estimate(JobClass(c), pal_cluster::GpuId(g as u32))
            );
        }
    }
}
