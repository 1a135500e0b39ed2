//! Cross-module tests for the cluster crate: profiles built from the GPU
//! model, perturbed, and sampled must stay consistent.

use pal_cluster::{ClusterTopology, JobClass, VariabilityProfile};
use pal_gpumodel::{profiler, ClusterFlavor, GpuSpec, Workload};

fn modeled_profile(n: usize, seed: u64) -> VariabilityProfile {
    let gpus = profiler::build_cluster_gpus(&GpuSpec::v100(), ClusterFlavor::Frontera, n, seed);
    let apps: Vec<_> = Workload::TABLE_III.iter().map(|w| w.spec()).collect();
    VariabilityProfile::from_modeled_gpus(&apps, &gpus)
}

#[test]
fn sampling_preserves_class_spread_ordering() {
    let gpus = profiler::build_cluster_gpus(&GpuSpec::v100(), ClusterFlavor::Longhorn, 448, 7);
    let profiled: Vec<_> = Workload::TABLE_III
        .iter()
        .map(|w| profiler::profile_cluster(&w.spec(), &gpus))
        .collect();
    let sampled = VariabilityProfile::sample_from_profiled(&profiled, 128, 5);
    assert!(sampled.geomean_variability(JobClass::A) > sampled.geomean_variability(JobClass::C));
}

#[test]
fn perturbation_composes_with_topology() {
    let topo = ClusterTopology::new(4, 4);
    let p = modeled_profile(16, 9);
    let node2 = topo.gpus_of(pal_cluster::NodeId(2));
    let q = p.perturbed(JobClass::A, &node2, 5.0);
    for g in topo.all_gpus() {
        let factor = q.score(JobClass::A, g) / p.score(JobClass::A, g);
        if node2.contains(&g) {
            assert!((factor - 5.0).abs() < 1e-9);
        } else {
            assert!((factor - 1.0).abs() < 1e-12);
        }
        // Other classes untouched everywhere.
        assert_eq!(q.score(JobClass::B, g), p.score(JobClass::B, g));
    }
}

#[test]
fn state_and_topology_agree_on_shape() {
    let topo = ClusterTopology::new(6, 4);
    let state = pal_cluster::ClusterState::new(topo);
    assert_eq!(state.free_gpus().len(), topo.total_gpus());
    assert_eq!(state.view().nodes(), topo.nodes);
    for (n, gpus) in state.view().per_node().enumerate() {
        for g in gpus {
            assert_eq!(topo.node_of(g).index(), n);
        }
    }
}
