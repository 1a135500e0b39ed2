//! Criterion benchmarks for the core algorithmic kernels underlying PAL:
//! K-Means binning, silhouette scoring, classifier fitting, and a full
//! end-to-end Sia simulation round-trip.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pal::{AppClassifier, PalPlacement, PmFirstPlacement};
use pal_bench::{longhorn_profile, modeled_longhorn_profile, LONGHORN_MEASURED_GPUS, PROFILE_SEED};
use pal_cluster::{ClusterTopology, JobClass, LocalityModel, VariabilityProfile};
use pal_gpumodel::{GpuSpec, Workload};
use pal_kmeans::{KMeans, ScoreBinning};
use pal_sim::placement::PackedPlacement;
use pal_sim::{PlacementPolicy, Scenario};
use pal_trace::{ModelCatalog, SiaPhillyConfig};
use std::hint::black_box;

fn bench_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_1d");
    for n in [128usize, 512] {
        let profile = longhorn_profile(n.min(448), PROFILE_SEED);
        let points: Vec<[f64; 1]> = profile
            .class_scores(JobClass::A)
            .iter()
            .map(|&v| [v])
            .collect();
        group.bench_with_input(BenchmarkId::new("k4", n), &n, |b, _| {
            b.iter(|| black_box(KMeans::new(4, 7).fit(&points)))
        });
    }
    group.finish();
}

fn bench_binning(c: &mut Criterion) {
    let mut group = c.benchmark_group("score_binning_k_sweep");
    for n in [64usize, 256, 2500] {
        // Sampled Longhorn profiles stop at the measured 448 GPUs; larger
        // clusters model every GPU.
        let profile = if n <= LONGHORN_MEASURED_GPUS {
            longhorn_profile(n, PROFILE_SEED)
        } else {
            modeled_longhorn_profile(n, PROFILE_SEED)
        };
        let scores = profile.class_scores(JobClass::A).to_vec();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(ScoreBinning::default().bin(&scores)))
        });
    }
    group.finish();
}

fn bench_classifier_fit(c: &mut Criterion) {
    let workloads: Vec<Workload> = Workload::ALL.to_vec();
    let spec = GpuSpec::v100();
    c.bench_function("classifier_fit_11_apps", |b| {
        b.iter(|| black_box(AppClassifier::fit_workloads(&workloads, &spec, 3, 1)))
    });
}

fn bench_full_simulation(c: &mut Criterion) {
    let topo = ClusterTopology::sia_64();
    let profile = longhorn_profile(64, PROFILE_SEED);
    let locality = LocalityModel::frontera_per_model();
    let catalog = ModelCatalog::table2(&GpuSpec::v100());
    let trace = SiaPhillyConfig::default().generate(1, &catalog);
    let mut group = c.benchmark_group("sia_trace_end_to_end");
    group.sample_size(20);
    type Build = fn(&VariabilityProfile) -> Box<dyn PlacementPolicy + Send>;
    let policies: [(&str, bool, Build); 3] = [
        ("Tiresias", true, |_| {
            Box::new(PackedPlacement::randomized(7))
        }),
        ("PM-First", false, |p| Box::new(PmFirstPlacement::new(p))),
        ("PAL", false, |p| Box::new(PalPlacement::new(p))),
    ];
    for (name, sticky, build) in policies {
        group.bench_function(name, |b| {
            b.iter(|| {
                // The policy (and its PM-score table) is built inside the
                // timed region, as a one-cell campaign would build it.
                let run = Scenario::new(trace.clone(), topo)
                    .profile(profile.clone())
                    .locality(locality.clone())
                    .placement_boxed(build(&profile))
                    .sticky(sticky)
                    .run();
                black_box(run.expect("benchmark scenario misconfigured"))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kmeans,
    bench_binning,
    bench_classifier_fit,
    bench_full_simulation
);
criterion_main!(benches);
