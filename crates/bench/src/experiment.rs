//! Shared experiment plumbing: cluster/profile construction matching the
//! paper's methodology (Section IV) and [`PolicyKind`], the six placement
//! configurations of Section IV-A1, expressed as [`pal_sim::Campaign`]
//! policy specs.
//!
//! The sweep helpers here are thin conveniences over the simulator's
//! `Scenario`/`Campaign` API: [`run_policy`] runs one cell,
//! [`run_all_policies`] runs the full six-policy column for one trace, and
//! [`paper_campaign`] builds the raw `Campaign` for binaries that sweep
//! several scenarios at once.

use pal::{PalPlacement, PmFirstPlacement, PmTableCache};
use pal_cluster::{ClusterTopology, LocalityModel, VariabilityProfile};
use pal_gpumodel::{profiler, ClusterFlavor, GpuSpec, ProfiledApp, Workload};
use pal_sim::placement::{PackedPlacement, RandomPlacement};
use pal_sim::{Campaign, PlacementPolicy, PolicySpec, Scenario, SchedulingPolicy, SimResult};
use pal_trace::Trace;
use std::sync::Arc;

/// Default seed for profile synthesis — fixed so every figure binary sees
/// the same cluster.
pub const PROFILE_SEED: u64 = 0x70AC_C01D;

/// Default campaign seed for the policy sweeps (feeds the deterministic
/// per-cell seeds).
pub const CAMPAIGN_SEED: u64 = 0xD1CE;

/// Measured-cluster sizes the synthetic profiles are drawn from. Longhorn
/// had 448 V100s (8 nodes × 4 GPUs × 14 chassis in the GPU subsystem);
/// anything ≥ the largest simulated cluster works for
/// sample-without-repetition.
pub const LONGHORN_MEASURED_GPUS: usize = 448;

/// Profile the three Table III representatives on a modeled cluster.
pub fn profile_table3(
    spec: &GpuSpec,
    flavor: ClusterFlavor,
    n: usize,
    seed: u64,
) -> Vec<ProfiledApp> {
    let gpus = profiler::build_cluster_gpus(spec, flavor, n, seed);
    Workload::TABLE_III
        .iter()
        .map(|w| profiler::profile_cluster(&w.spec(), &gpus))
        .collect()
}

/// The Longhorn-derived simulation profile of Section IV-C: profile the
/// measured cluster, then sample `n_gpus` PM penalties per class without
/// repetition.
pub fn longhorn_profile(n_gpus: usize, seed: u64) -> VariabilityProfile {
    let profiled = profile_table3(
        &GpuSpec::v100(),
        ClusterFlavor::Longhorn,
        LONGHORN_MEASURED_GPUS,
        seed,
    );
    VariabilityProfile::sample_from_profiled(&profiled, n_gpus, seed ^ 0x5A5A)
}

/// A modeled Longhorn-flavoured cluster of `n_gpus` V100s, every GPU
/// profiled (no sampling, so any size works): the profile of the
/// 1,000-GPU PM-table golden and the 2,500-GPU table-build benches.
pub fn modeled_longhorn_profile(n_gpus: usize, seed: u64) -> VariabilityProfile {
    let gpus =
        profiler::build_cluster_gpus(&GpuSpec::v100(), ClusterFlavor::Longhorn, n_gpus, seed);
    let apps: Vec<_> = Workload::TABLE_III.iter().map(|w| w.spec()).collect();
    VariabilityProfile::from_modeled_gpus(&apps, &gpus)
}

/// The exact 64-GPU Frontera testbed profile of Section V-A (indexed by
/// GPU UUID — i.e., per-device, no sampling).
pub fn frontera_testbed_profile(seed: u64) -> VariabilityProfile {
    let gpus = profiler::build_cluster_gpus(
        &GpuSpec::quadro_rtx5000(),
        ClusterFlavor::FronteraTestbed,
        64,
        seed,
    );
    let apps: Vec<_> = Workload::TABLE_III.iter().map(|w| w.spec()).collect();
    VariabilityProfile::from_modeled_gpus(&apps, &gpus)
}

/// The six placement configurations of the evaluation (Section IV-A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Random placement, sticky.
    RandomSticky,
    /// Random placement, non-sticky.
    RandomNonSticky,
    /// Packed non-sticky — the paper's *Gandiva* baseline.
    Gandiva,
    /// Packed sticky — the paper's *Tiresias* baseline (best baseline).
    Tiresias,
    /// PM-First (non-sticky, Section III-B).
    PmFirst,
    /// PAL (non-sticky, Section III-C).
    Pal,
}

impl PolicyKind {
    /// All six, in Figure 11's legend order.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::RandomNonSticky,
        PolicyKind::RandomSticky,
        PolicyKind::Gandiva,
        PolicyKind::Tiresias,
        PolicyKind::PmFirst,
        PolicyKind::Pal,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::RandomSticky => "Random-Sticky",
            PolicyKind::RandomNonSticky => "Random-Non-Sticky",
            PolicyKind::Gandiva => "Gandiva",
            PolicyKind::Tiresias => "Tiresias",
            PolicyKind::PmFirst => "PM-First",
            PolicyKind::Pal => "PAL",
        }
    }

    /// Whether this configuration runs sticky.
    pub fn sticky(self) -> bool {
        matches!(self, PolicyKind::RandomSticky | PolicyKind::Tiresias)
    }

    /// Instantiate the placement policy object, building any PM-score
    /// table from scratch. Prefer [`build_cached`](PolicyKind::build_cached)
    /// in sweeps.
    pub fn build(self, profile: &VariabilityProfile, seed: u64) -> Box<dyn PlacementPolicy + Send> {
        self.build_cached(&PmTableCache::new(), profile, seed)
    }

    /// Instantiate the placement policy object, sourcing any PM-score
    /// table from `cache` — PM-First and PAL built over the same profile
    /// (and the paper's default binning) share one table, so an N×M
    /// campaign performs O(distinct profiles) table builds instead of one
    /// per cell.
    pub fn build_cached(
        self,
        cache: &PmTableCache,
        profile: &VariabilityProfile,
        seed: u64,
    ) -> Box<dyn PlacementPolicy + Send> {
        match self {
            PolicyKind::RandomSticky | PolicyKind::RandomNonSticky => {
                Box::new(RandomPlacement::new(seed))
            }
            PolicyKind::Gandiva | PolicyKind::Tiresias => {
                Box::new(PackedPlacement::randomized(seed))
            }
            PolicyKind::PmFirst => Box::new(PmFirstPlacement::from_shared(
                cache.get_or_build_default(profile),
            )),
            PolicyKind::Pal => Box::new(PalPlacement::from_shared(
                cache.get_or_build_default(profile),
            )),
        }
    }

    /// This configuration as a [`Campaign`] policy column: the paper's
    /// label, the policy builder, and the sticky override. The column
    /// memoizes its own PM-score tables; to share one cache across
    /// several columns (as [`paper_policy_specs`] does), use
    /// [`spec_cached`](PolicyKind::spec_cached).
    pub fn spec(self) -> PolicySpec {
        self.spec_cached(Arc::new(PmTableCache::new()))
    }

    /// [`spec`](PolicyKind::spec) with an explicit (usually shared)
    /// PM-score table cache.
    pub fn spec_cached(self, cache: Arc<PmTableCache>) -> PolicySpec {
        PolicySpec::new(self.name(), move |profile, seed| {
            self.build_cached(&cache, profile, seed)
        })
        .sticky(self.sticky())
    }
}

/// All six placement configurations as [`Campaign`] policy columns, in
/// [`PolicyKind::ALL`] order, sharing one PM-score table cache: a whole
/// paper sweep builds each distinct profile's table exactly once.
pub fn paper_policy_specs() -> Vec<PolicySpec> {
    let cache = Arc::new(PmTableCache::new());
    PolicyKind::ALL
        .iter()
        .map(|k| k.spec_cached(Arc::clone(&cache)))
        .collect()
}

/// A campaign pre-loaded with the six paper policies (add scenarios with
/// [`Campaign::scenario`]).
pub fn paper_campaign() -> Campaign {
    Campaign::new()
        .seed(CAMPAIGN_SEED)
        .policies(paper_policy_specs())
}

/// Run one `(trace, policy)` simulation with the policy-appropriate sticky
/// mode, as a one-cell [`Campaign`].
///
/// Cell seeds are derived from `(CAMPAIGN_SEED, trace name, policy name)`,
/// so this reproduces the corresponding cell of [`run_all_policies`]
/// exactly — figure binaries mixing the two helpers report consistent
/// numbers for identical configurations.
pub fn run_policy<S>(
    trace: &Trace,
    topology: ClusterTopology,
    profile: &VariabilityProfile,
    locality: &LocalityModel,
    scheduler: S,
    kind: PolicyKind,
) -> SimResult
where
    S: SchedulingPolicy + Send + Sync + Clone + 'static,
{
    let tag = trace.name.clone();
    // One deep copy each into shared handles; every cell clones the Arc.
    let trace = Arc::new(trace.clone());
    let profile = Arc::new(profile.clone());
    let locality = Arc::new(locality.clone());
    let mut results = Campaign::new()
        .seed(CAMPAIGN_SEED)
        .scenario(tag, move || {
            Scenario::new(Arc::clone(&trace), topology)
                .profile(Arc::clone(&profile))
                .locality(Arc::clone(&locality))
                .scheduler(scheduler.clone())
        })
        .policy(kind.spec())
        .run()
        .expect("experiment scenario misconfigured");
    results.pop().expect("one cell ran").result
}

/// Run every policy of [`PolicyKind::ALL`] over one trace, in parallel,
/// as a one-scenario [`Campaign`].
pub fn run_all_policies<S>(
    trace: &Trace,
    topology: ClusterTopology,
    profile: &VariabilityProfile,
    locality: &LocalityModel,
    scheduler: S,
) -> Vec<(PolicyKind, SimResult)>
where
    S: SchedulingPolicy + Send + Sync + Clone + 'static,
{
    let tag = trace.name.clone();
    // One deep copy each into shared handles; every cell clones the Arc.
    let trace = Arc::new(trace.clone());
    let profile = Arc::new(profile.clone());
    let locality = Arc::new(locality.clone());
    let results = paper_campaign()
        .scenario(tag, move || {
            Scenario::new(Arc::clone(&trace), topology)
                .profile(Arc::clone(&profile))
                .locality(Arc::clone(&locality))
                .scheduler(scheduler.clone())
        })
        .run()
        .expect("experiment campaign misconfigured");
    PolicyKind::ALL
        .iter()
        .copied()
        .zip(results.into_iter().map(|cell| cell.result))
        .collect()
}

/// Seconds → hours, for printing in the paper's units.
pub fn hours(seconds: f64) -> f64 {
    seconds / 3600.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pal_sim::sched::Fifo;
    use pal_trace::{ModelCatalog, SiaPhillyConfig};

    #[test]
    fn run_policy_matches_run_all_policies_cell() {
        // Both helpers derive cell seeds from (CAMPAIGN_SEED, trace name,
        // policy name), so a figure binary mixing them must see identical
        // results for the same configuration.
        let catalog = ModelCatalog::table2(&GpuSpec::v100());
        let trace = SiaPhillyConfig {
            num_jobs: 20,
            ..Default::default()
        }
        .generate(1, &catalog);
        let topo = ClusterTopology::sia_64();
        let profile = longhorn_profile(64, PROFILE_SEED);
        let locality = LocalityModel::uniform(1.5);

        let all = run_all_policies(&trace, topo, &profile, &locality, Fifo);
        for kind in [PolicyKind::Tiresias, PolicyKind::RandomNonSticky] {
            let single = run_policy(&trace, topo, &profile, &locality, Fifo, kind);
            let cell = &all.iter().find(|(k, _)| *k == kind).expect("cell ran").1;
            assert!(
                single.same_outcome(cell),
                "run_policy and run_all_policies diverged for {}",
                kind.name()
            );
        }
    }
}
