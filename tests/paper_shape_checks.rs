//! Shape checks against the paper's headline claims. We do not assert
//! absolute numbers (our substrate is synthetic), but who wins, in which
//! direction effects move, and rough magnitudes must match Section V.
//!
//! These use reduced trace sizes to stay fast in debug builds; the full
//! configurations are the campaign files under `configs/paper/`, whose
//! outputs are pinned under `tests/data/paper/`.

use pal::{PalPlacement, PmFirstPlacement};
use pal_cluster::{ClusterTopology, JobClass, LocalityModel, VariabilityProfile};
use pal_gpumodel::{profiler, ClusterFlavor, GpuSpec, Workload};
use pal_sim::placement::PackedPlacement;
use pal_sim::{Scenario, SimResult};
use pal_trace::{ModelCatalog, SiaPhillyConfig, Trace};

fn profile_64() -> VariabilityProfile {
    let measured = profiler::build_cluster_gpus(&GpuSpec::v100(), ClusterFlavor::Longhorn, 256, 7);
    let profiled: Vec<_> = Workload::TABLE_III
        .iter()
        .map(|w| profiler::profile_cluster(&w.spec(), &measured))
        .collect();
    VariabilityProfile::sample_from_profiled(&profiled, 64, 11)
}

fn traces(n: usize) -> Vec<Trace> {
    let catalog = ModelCatalog::table2(&GpuSpec::v100());
    let cfg = SiaPhillyConfig {
        num_jobs: 80,
        ..Default::default()
    };
    (1..=n as u32).map(|w| cfg.generate(w, &catalog)).collect()
}

fn run(
    trace: &Trace,
    profile: &VariabilityProfile,
    locality: &LocalityModel,
    which: &str,
) -> SimResult {
    let topo = ClusterTopology::sia_64();
    let scenario = Scenario::new(trace.clone(), topo)
        .profile(profile.clone())
        .locality(locality.clone());
    match which {
        "tiresias" => scenario
            .placement(PackedPlacement::randomized(5))
            .sticky(true),
        "pmfirst" => scenario.placement(PmFirstPlacement::new(profile)),
        "pal" => scenario.placement(PalPlacement::new(profile)),
        _ => unreachable!(),
    }
    .run()
    .expect("shape-check scenario misconfigured")
}

#[test]
fn pal_and_pmfirst_beat_tiresias_geomean() {
    // Section V-B: "PM-First improves average JCT by 40% geomean … PAL …
    // 43% geomean compared to Tiresias." Shape check: both beat Tiresias
    // by a healthy margin, PAL >= PM-First.
    let profile = profile_64();
    let locality = LocalityModel::frontera_per_model();
    let (mut t, mut pf, mut p) = (vec![], vec![], vec![]);
    for trace in traces(4) {
        t.push(run(&trace, &profile, &locality, "tiresias").avg_jct());
        pf.push(run(&trace, &profile, &locality, "pmfirst").avg_jct());
        p.push(run(&trace, &profile, &locality, "pal").avg_jct());
    }
    let g_pf = pal_stats::geomean_of_ratios(&pf, &t).expect("positive JCTs");
    let g_p = pal_stats::geomean_of_ratios(&p, &t).expect("positive JCTs");
    assert!(g_pf < 0.9, "PM-First geomean ratio {g_pf} not clearly < 1");
    assert!(g_p < 0.9, "PAL geomean ratio {g_p} not clearly < 1");
    assert!(
        g_p <= g_pf + 0.02,
        "PAL ({g_p}) should be at least as good as PM-First ({g_pf})"
    );
}

#[test]
fn pal_improves_makespan_and_utilization() {
    let profile = profile_64();
    let locality = LocalityModel::frontera_per_model();
    let trace = &traces(2)[1];
    let t = run(trace, &profile, &locality, "tiresias");
    let p = run(trace, &profile, &locality, "pal");
    assert!(p.makespan() < t.makespan(), "PAL should shrink makespan");
    assert!(
        p.utilization() > t.utilization(),
        "PAL should raise effective utilization"
    );
}

#[test]
fn pmfirst_edge_shrinks_with_locality_penalty_but_pal_holds() {
    // Figure 13's trend: raising L_across erodes PM-First's advantage over
    // Tiresias faster than PAL's.
    let profile = profile_64();
    let trace = &traces(1)[0];
    let edge = |which: &str, penalty: f64| {
        let locality = LocalityModel::uniform(penalty);
        let t = run(trace, &profile, &locality, "tiresias").avg_jct();
        let x = run(trace, &profile, &locality, which).avg_jct();
        1.0 - x / t
    };
    let pf_low = edge("pmfirst", 1.0);
    let pf_high = edge("pmfirst", 3.0);
    let pal_high = edge("pal", 3.0);
    assert!(
        pf_high < pf_low,
        "PM-First edge should shrink: {pf_low} -> {pf_high}"
    );
    assert!(
        pal_high >= pf_high - 0.02,
        "PAL at high penalty ({pal_high}) should hold up at least as well as PM-First ({pf_high})"
    );
}

#[test]
fn class_a_variability_dominates_class_c() {
    // Section II-A: compute-bound apps see ~20x the variability of
    // memory-bound ones (22% vs 1%).
    let profile = profile_64();
    let a = profile.geomean_variability(JobClass::A);
    let c = profile.geomean_variability(JobClass::C);
    assert!(a > 0.05, "class A geomean variability {a} too small");
    assert!(c < 0.02, "class C geomean variability {c} too large");
    assert!(a > 5.0 * c.max(1e-4));
}

#[test]
fn pm_score_bins_within_paper_k_range() {
    // Section III-B sweeps K from 2 to 11.
    let profile = profile_64();
    let table = pal::PmScoreTable::build_default(&profile);
    for class in 0..3 {
        let k = table.bins_of(JobClass(class));
        assert!((1..=11).contains(&k), "class {class} chose K = {k}");
    }
}

#[test]
fn placement_time_is_negligible_vs_epoch() {
    // Figure 18: worst-case placement compute time must be orders of
    // magnitude below the 300 s epoch.
    let profile = profile_64();
    let locality = LocalityModel::uniform(1.7);
    let trace = &traces(1)[0];
    let r = run(trace, &profile, &locality, "pal");
    let worst = r
        .placement_compute_times
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    assert!(
        worst < 1.0,
        "worst-case placement time {worst}s suspiciously large"
    );
}

#[test]
fn testbed_experiment_reproduces_cluster_sim_gap() {
    // Section V-A: the cluster arm (stale profile) is slower than the
    // simulation arm for both policies, and PAL still wins on the cluster.
    let topo = ClusterTopology::sia_64();
    let gpus = profiler::build_cluster_gpus(
        &GpuSpec::quadro_rtx5000(),
        ClusterFlavor::FronteraTestbed,
        64,
        7,
    );
    let apps: Vec<_> = Workload::TABLE_III.iter().map(|w| w.spec()).collect();
    let profile = VariabilityProfile::from_modeled_gpus(&apps, &gpus);
    let truth = profile.perturbed(JobClass::A, &topo.gpus_of(pal_cluster::NodeId(5)), 2.0);
    let locality = LocalityModel::frontera_per_model();
    let catalog = ModelCatalog::table2(&GpuSpec::quadro_rtx5000());
    let trace = SiaPhillyConfig {
        num_jobs: 80,
        ..Default::default()
    }
    .generate(1, &catalog);

    let arm = |sticky: bool, truth: &VariabilityProfile, pal: bool| {
        let policy: Box<dyn pal_sim::PlacementPolicy + Send> = if pal {
            Box::new(PalPlacement::new(&profile))
        } else {
            Box::new(PackedPlacement::randomized(5))
        };
        Scenario::new(trace.clone(), topo)
            .profile(profile.clone())
            .truth(truth.clone())
            .locality(locality.clone())
            .placement_boxed(policy)
            .sticky(sticky)
            .run()
            .expect("testbed-arm scenario misconfigured")
            .avg_jct()
    };
    let tiresias_sim = arm(true, &profile, false);
    let tiresias_cluster = arm(true, &truth, false);
    let pal_sim = arm(false, &profile, true);
    let pal_cluster = arm(false, &truth, true);

    assert!(tiresias_cluster >= tiresias_sim * 0.999);
    assert!(pal_cluster >= pal_sim * 0.999);
    assert!(
        pal_cluster < tiresias_cluster,
        "PAL should still win on the (perturbed) cluster: {pal_cluster} vs {tiresias_cluster}"
    );
}
