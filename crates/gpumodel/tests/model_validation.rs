//! Cross-module validation of the GPU model: the profiles it produces must
//! have the structure the paper's measurements show, on both GPU specs.

use pal_gpumodel::{profiler, ClusterFlavor, GpuSpec, ModeledGpu, PmState, Workload};

#[test]
fn variability_ordering_holds_on_both_gpu_specs() {
    // Class A > class B > class C variability, on V100 and Quadro alike.
    for spec in [GpuSpec::v100(), GpuSpec::quadro_rtx5000()] {
        let gpus = profiler::build_cluster_gpus(&spec, ClusterFlavor::Longhorn, 256, 9);
        let var_of =
            |w: Workload| profiler::profile_cluster(&w.spec(), &gpus).geomean_variability();
        let a = var_of(Workload::ResNet50);
        let b = var_of(Workload::Bert);
        let c = var_of(Workload::PageRank);
        assert!(a > b, "{}: class A {a} <= class B {b}", spec.name);
        assert!(b > c, "{}: class B {b} <= class C {c}", spec.name);
    }
}

#[test]
fn flavor_spreads_ordered_longhorn_widest() {
    let spread = |flavor: ClusterFlavor| {
        let gpus = profiler::build_cluster_gpus(&GpuSpec::v100(), flavor, 512, 11);
        profiler::profile_cluster(&Workload::ResNet50.spec(), &gpus).geomean_variability()
    };
    let longhorn = spread(ClusterFlavor::Longhorn);
    let frontera = spread(ClusterFlavor::Frontera);
    let testbed = spread(ClusterFlavor::FronteraTestbed);
    assert!(
        longhorn > frontera && frontera > testbed,
        "expected Longhorn > Frontera > Testbed, got {longhorn} / {frontera} / {testbed}"
    );
}

#[test]
fn iteration_times_scale_inversely_with_frequency_for_compute_apps() {
    let spec = GpuSpec::v100();
    let app = Workload::Vgg19.spec();
    let at = |f: f64| {
        ModeledGpu {
            spec: spec.clone(),
            pm: PmState {
                freq_multiplier: f,
                mem_multiplier: 1.0,
            },
        }
        .iteration_time(&app.kernels)
    };
    let t1 = at(1.0);
    let t_half = at(0.5);
    // VGG19 is strongly compute-bound: halving frequency ~doubles time.
    assert!((t_half / t1 - 2.0).abs() < 0.1, "ratio {}", t_half / t1);
}

#[test]
fn cabinet_structure_visible_in_profiles() {
    // Cabinet offsets should make per-cabinet medians differ measurably on
    // a compute-bound app, which is what Figures 6-8 plot.
    let flavor = ClusterFlavor::Longhorn;
    let gpus = profiler::build_cluster_gpus(&GpuSpec::v100(), flavor, 400, 17);
    let p = profiler::profile_cluster(&Workload::ResNet50.spec(), &gpus);
    let mut medians = Vec::new();
    for cab in 0..flavor.cabinet_count() {
        let vals: Vec<f64> = p
            .normalized
            .iter()
            .enumerate()
            .filter(|&(i, _)| flavor.cabinet_of(i) == cab)
            .map(|(_, &v)| v)
            .collect();
        medians.push(pal_stats::median(&vals).expect("non-empty cabinet"));
    }
    let spread = medians.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - medians.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        spread > 0.005,
        "cabinet medians indistinguishable: {medians:?}"
    );
}
