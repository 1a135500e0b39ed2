//! Ablation: online PM-score updates (the Section V-A future-work
//! extension) under stale profiles.
//!
//! Scenario: two nodes' class-A GPUs degraded 3× after profiling (cooling
//! failure, re-racked hardware, …). The placement policy's profile is
//! stale; ground truth is not. Arms:
//!
//! - **PAL (stale)**: the paper's policy with the outdated profile,
//! - **Adaptive-PAL**: starts stale, learns from per-round telemetry,
//! - **PAL (oracle)**: given the true profile — the recoverable optimum.

use pal::{AdaptivePal, PalPlacement};
use pal_bench::{frontera_testbed_profile, hours, PROFILE_SEED};
use pal_cluster::{ClusterTopology, JobClass, LocalityModel, NodeId};
use pal_gpumodel::GpuSpec;
use pal_sim::{PlacementPolicy, Scenario};
use pal_trace::{ModelCatalog, SiaPhillyConfig};

fn main() {
    let topo = ClusterTopology::sia_64();
    let stale = frontera_testbed_profile(PROFILE_SEED);
    let mut degraded_gpus = topo.gpus_of(NodeId(2));
    degraded_gpus.extend(topo.gpus_of(NodeId(9)));
    let truth = stale.perturbed(JobClass::A, &degraded_gpus, 3.0);
    let locality = LocalityModel::frontera_per_model();
    let catalog = ModelCatalog::table2(&GpuSpec::quadro_rtx5000());

    println!("# Ablation: online PM-score updates under a stale profile");
    println!(
        "# (class-A speed of 2 nodes, {} GPUs, degraded 3x after profiling)",
        degraded_gpus.len()
    );
    println!("workload,policy,avg_jct_h,p99_jct_h,makespan_h");
    for w in 1..=4u32 {
        let trace = SiaPhillyConfig::default().generate(w, &catalog);
        let arms: Vec<(
            &str,
            Box<dyn PlacementPolicy + Send>,
            &pal_cluster::VariabilityProfile,
        )> = vec![
            ("PAL-stale", Box::new(PalPlacement::new(&stale)), &stale),
            ("Adaptive-PAL", Box::new(AdaptivePal::new(&stale)), &stale),
            ("PAL-oracle", Box::new(PalPlacement::new(&truth)), &truth),
        ];
        for (name, policy, visible) in arms {
            let r = Scenario::new(trace.clone(), topo)
                .profile(visible.clone())
                .truth(truth.clone())
                .locality(locality.clone())
                .placement_boxed(policy)
                .run()
                .expect("ablation scenario misconfigured");
            println!(
                "{w},{name},{:.2},{:.2},{:.2}",
                hours(r.avg_jct()),
                hours(r.p99_jct()),
                hours(r.makespan())
            );
        }
    }
    println!();
    println!("# Expected shape: stale worst; adaptive recovers the gap (~ oracle re-profiling)");
}
