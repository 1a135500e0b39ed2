//! Criterion benchmark for raw engine throughput: scheduling rounds per
//! second on Synergy-generated traces over the paper's 256-GPU cluster,
//! at a low (4 jobs/hour) and a high (14 jobs/hour, past saturation)
//! arrival rate.
//!
//! This pins the perf trajectory of the round loop itself: the PR 2
//! engine decomposition (allocation-free stepper, cached-key scheduling
//! sort, incremental active queue) must keep ≥2× the seed engine's
//! rounds/sec at the high rate, and future engine work lands its speedup
//! here. The high-rate case is the interesting one — hundreds of jobs
//! are active at once, so per-round costs that scale with the active
//! queue dominate.
//!
//! The `engine_sticky_drain` group covers event-driven round skipping
//! (PR 4) on the workload it exists for — a burst of long jobs draining
//! under sticky placement — in both modes. Beyond wall time, `main`
//! records the simulated and *executed* round counts of both modes into
//! `BENCH_engine.json` (`rounds/sticky_drain/...`), where the CI bench
//! gate watches the skip win.
//!
//! `main` also drives the **large-scale cohort workloads** (1k jobs /
//! 100 GPUs up to 100k jobs / 10k GPUs) through both stepping modes —
//! the stepper with round skipping and the plain fixed-round stepper —
//! recording per size the simulated round count, each mode's executed
//! round count (`rounds/large_*`, deterministically gated), wall times,
//! and peak RSS (`mem/*`, informational). Cohorts of identical
//! single-GPU jobs arrive at irregular multi-round gaps, so each
//! cohort's completions land in one round, while a sparse set of 3×
//! slow GPUs seeds long-running stragglers that later cohorts' SRTF
//! keys overtake at staggered rounds — order changes the skip mode must
//! stop at. The 100k-size run asserts that skipping executes ≥2× fewer
//! rounds than fixed-round stepping.
//!
//! Last, `main` runs the paper's own policies at **fleet scale**: PM-First
//! and PAL, non-sticky, on 2,500 × 4 modeled Longhorn V100s under LAS with
//! per-model Frontera locality, over a 100k-job heavy-tail trace at 6,000
//! jobs/hour (`large_run/{pmfirst,pal}_10k_gpus` wall times,
//! `rounds/{pmfirst,pal}_10k_gpus/*` round counts). Both share one
//! PM-score table, built once outside the timed runs.
//!
//! The **backlog** run times the scheduling order under a deep queue:
//! PM-First under LAS on 112 × 4 modeled Longhorn V100s, a 30,000-job
//! heavy-tail trace at 500 jobs/hour, which arrive faster than the
//! cluster drains them (`large_run/las_backlog_448`,
//! `rounds/las_backlog_448/*`) — the shape of the e2e `contended_fork`
//! workload, run from the start rather than forked.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use pal::{PalPlacement, PmFirstPlacement, PmScoreTable};
use pal_bench::{modeled_longhorn_profile, PROFILE_SEED};
use pal_cluster::{ClusterTopology, LocalityModel, VariabilityProfile};
use pal_gpumodel::GpuSpec;
use pal_sim::placement::PackedPlacement;
use pal_sim::sched::{Las, Srtf};
use pal_sim::{PlacementPolicy, Scenario, StepOutcome};
use pal_trace::{HeavyTailConfig, JobId, JobSpec, ModelCatalog, SynergyConfig, Trace};
use std::sync::Arc;
use std::time::Instant;

/// Deterministic non-flat 3-class profile sized to the cluster (profile
/// synthesis is not what this bench measures, so keep it cheap) — built
/// once per bench and shared by `Arc` handle.
fn profile(gpus: usize) -> Arc<VariabilityProfile> {
    Arc::new(VariabilityProfile::from_raw(
        (0..3)
            .map(|c| {
                (0..gpus)
                    .map(|g| 1.0 + ((g * 7 + c * 13) % 10) as f64 * 0.05)
                    .collect()
            })
            .collect(),
    ))
}

fn synergy_trace(jobs_per_hour: f64) -> Arc<Trace> {
    let catalog = ModelCatalog::table2(&GpuSpec::v100());
    Arc::new(
        SynergyConfig {
            num_jobs: 300,
            jobs_per_hour,
            ..Default::default()
        }
        .generate(&catalog),
    )
}

/// Scenarios share the trace and profile by `Arc` handle, so the
/// measured loop starts each run without re-copying the 300-job trace or
/// re-synthesizing the profile.
fn scenario(
    trace: &Arc<Trace>,
    profile: &Arc<VariabilityProfile>,
    topo: ClusterTopology,
) -> Scenario {
    Scenario::new(Arc::clone(trace), topo)
        .profile(Arc::clone(profile))
        .locality(LocalityModel::uniform(1.5))
        .scheduler(Las::default())
}

/// The event-driven skip's home turf: 48 long jobs arriving in a burst
/// (~3 rounds), then draining for thousands of rounds under sticky
/// placement with no queue changes between completions.
fn sticky_drain_trace() -> Arc<Trace> {
    let catalog = ModelCatalog::table2(&GpuSpec::v100());
    Arc::new(
        SynergyConfig {
            num_jobs: 48,
            jobs_per_hour: 240.0,
            median_duration_s: 250_000.0,
            ..Default::default()
        }
        .generate(&catalog),
    )
}

/// Topology for the drain workload: small enough that the burst
/// oversubscribes it into several waves.
fn drain_topology() -> ClusterTopology {
    ClusterTopology::new(8, 4)
}

fn drain_scenario(
    trace: &Arc<Trace>,
    profile: &Arc<VariabilityProfile>,
    event_driven: bool,
) -> Scenario {
    scenario(trace, profile, drain_topology())
        .sticky(true)
        .event_driven(event_driven)
}

fn bench_full_run(c: &mut Criterion) {
    let topo = ClusterTopology::new(64, 4);
    let prof = profile(topo.total_gpus());
    let mut group = c.benchmark_group("engine_full_run");
    group.sample_size(10);
    for (label, rate) in [("low_4jph", 4.0), ("high_14jph", 14.0)] {
        let trace = synergy_trace(rate);
        group.bench_with_input(BenchmarkId::new("synergy_300jobs", label), &rate, |b, _| {
            b.iter(|| {
                let r = scenario(&trace, &prof, topo).run().expect("bench run");
                black_box(r.rounds)
            })
        });
    }
    group.finish();
}

fn bench_single_steps(c: &mut Criterion) {
    // Per-round cost at saturation: warm a stepper into the congested
    // regime once, then measure individual `step()` calls (restarting
    // when the run completes). This is the allocation-free hot path.
    let topo = ClusterTopology::new(64, 4);
    let prof = profile(topo.total_gpus());
    let trace = synergy_trace(14.0);
    let mut group = c.benchmark_group("engine_step");
    let mut sim = scenario(&trace, &prof, topo)
        .start()
        .expect("bench scenario");
    for _ in 0..200 {
        sim.step().expect("warmup step");
    }
    group.bench_function("saturated_round", |b| {
        b.iter(|| {
            if sim.step().expect("bench step") == StepOutcome::Complete {
                sim = scenario(&trace, &prof, topo)
                    .start()
                    .expect("bench scenario");
                for _ in 0..200 {
                    sim.step().expect("warmup step");
                }
            }
            black_box(sim.rounds())
        })
    });
    group.finish();
}

fn bench_sticky_drain(c: &mut Criterion) {
    let trace = sticky_drain_trace();
    let prof = profile(drain_topology().total_gpus());
    let mut group = c.benchmark_group("engine_sticky_drain");
    group.sample_size(10);
    for (label, event_driven) in [("event_on", true), ("event_off", false)] {
        group.bench_with_input(
            BenchmarkId::new("drain_48jobs", label),
            &event_driven,
            |b, &event_driven| {
                b.iter(|| {
                    let r = drain_scenario(&trace, &prof, event_driven)
                        .run()
                        .expect("bench run");
                    black_box(r.executed_rounds)
                })
            },
        );
    }
    group.finish();
}

/// Ideal single-GPU duration of every large-workload job, seconds:
/// exactly 200 rounds on a nominal GPU, 600 on a 3×-slow one, so a
/// cohort's completions collapse into one round per speed class.
const LARGE_IDEAL_S: f64 = 60_000.0;

/// GPUs with `g % SLOW_GPU_PERIOD == 1` run 3× slow: rare enough that
/// stragglers stay a small minority, common enough that some are always
/// in flight.
const SLOW_GPU_PERIOD: usize = 64;

/// The large-workload sizes: jobs, nodes (× 4 GPUs), and cohort size.
/// Cohorts are ~1/16 of cluster capacity so ~10 cohorts of mostly
/// 200-round jobs arriving every ~20 rounds keep the cluster ~65 %
/// busy — everything runs on arrival, so the only prefix-set changes
/// are arrivals and completions.
const LARGE_SCALES: &[(&str, usize, usize, usize)] = &[
    ("large_1k", 1_000, 25, 6),
    ("large_10k", 10_000, 250, 62),
    ("large_100k", 100_000, 2_500, 625),
];

/// Cohort trace: `num_jobs` identical single-GPU jobs arriving in
/// cohorts of `cohort`, successive cohorts spaced an irregular 17–23
/// rounds apart (irregular so the straggler-overtake rounds spread out
/// instead of landing on a common multiple). Built through the
/// streaming constructor: the only allocation is the trace's own job
/// vector.
fn cohort_trace(num_jobs: usize, cohort: usize) -> Arc<Trace> {
    let catalog = ModelCatalog::table2(&GpuSpec::v100());
    let entry = &catalog.entries()[0];
    let (model, class, base_iter_time) = (entry.model, entry.class, entry.base_iter_time);
    let iterations = (LARGE_IDEAL_S / base_iter_time).ceil().max(1.0) as u64;
    let jobs = (0..num_jobs).scan(0usize, move |start_round, i| {
        let c = i / cohort;
        if c > 0 && i % cohort == 0 {
            *start_round += 17 + (c - 1) * 5 % 7;
        }
        Some(JobSpec {
            id: JobId(i as u32),
            model,
            class,
            arrival: (*start_round * 300) as f64,
            gpu_demand: 1,
            iterations,
            base_iter_time,
        })
    });
    Arc::new(Trace::from_sorted_stream(
        format!("cohorts-{num_jobs}"),
        jobs,
    ))
}

/// Two-speed profile for the large workloads: nominal GPUs at 1.0 and
/// every [`SLOW_GPU_PERIOD`]-th at 3.0, identically across classes —
/// quantized so same-cohort, same-speed jobs finish in the same round.
fn quantized_profile(gpus: usize) -> Arc<VariabilityProfile> {
    Arc::new(VariabilityProfile::from_raw(
        (0..3)
            .map(|_| {
                (0..gpus)
                    .map(|g| if g % SLOW_GPU_PERIOD == 1 { 3.0 } else { 1.0 })
                    .collect()
            })
            .collect(),
    ))
}

/// The two stepping modes the large benches compare.
#[derive(Clone, Copy)]
enum Stepping {
    /// Compat stepper with provably-stable round skipping.
    CompatSkip,
    /// Plain fixed-round compat stepper.
    CompatFixed,
}

impl Stepping {
    fn label(self) -> &'static str {
        match self {
            Stepping::CompatSkip => "compat_skip",
            Stepping::CompatFixed => "compat_fixed",
        }
    }
}

fn large_scenario(
    trace: &Arc<Trace>,
    profile: &Arc<VariabilityProfile>,
    topo: ClusterTopology,
    mode: Stepping,
) -> Scenario {
    let s = Scenario::new(Arc::clone(trace), topo)
        .profile(Arc::clone(profile))
        .locality(LocalityModel::uniform(1.5))
        .scheduler(Srtf)
        .placement(PackedPlacement::deterministic())
        .sticky(true);
    match mode {
        Stepping::CompatSkip => s.event_driven(true),
        Stepping::CompatFixed => s.event_driven(false),
    }
}

/// Run the large cohort workloads through both modes, appending
/// round-count, wall-time, and peak-RSS entries; asserts the skip win at
/// the 100k size.
fn large_scale_accounting(entries: &mut Vec<(String, f64)>) {
    for &(label, num_jobs, nodes, cohort) in LARGE_SCALES {
        let topo = ClusterTopology::new(nodes, 4);
        let prof = quantized_profile(topo.total_gpus());
        let trace = cohort_trace(num_jobs, cohort);
        let mut executed = [0usize; 2];
        let mut simulated = [0usize; 2];
        for (i, mode) in [Stepping::CompatSkip, Stepping::CompatFixed]
            .into_iter()
            .enumerate()
        {
            pal_bench::memory::reset_peak_rss();
            let start = Instant::now();
            let r = large_scenario(&trace, &prof, topo, mode)
                .run()
                .expect("large-scale run");
            let wall = start.elapsed();
            executed[i] = r.executed_rounds;
            simulated[i] = r.rounds;
            entries.push((
                format!("rounds/{label}/executed_{}", mode.label()),
                r.executed_rounds as f64,
            ));
            entries.push((
                format!("large_run/{label}/{}", mode.label()),
                wall.as_nanos() as f64,
            ));
            if let Some(mib) = pal_bench::memory::peak_rss_mib() {
                entries.push((format!("mem/peak_rss_mb/{label}_{}", mode.label()), mib));
            }
        }
        eprintln!(
            "{label}: {} simulated rounds; executed compat_skip {} / compat_fixed {}",
            simulated[0], executed[0], executed[1]
        );
        // Both modes simulate the same virtual-time span.
        assert_eq!(
            simulated[0], simulated[1],
            "{label}: simulated rounds differ"
        );
        entries.push((format!("rounds/{label}/simulated"), simulated[0] as f64));
        if label == "large_100k" {
            // At 100k jobs / 10k GPUs skipping executes ≥2× fewer rounds
            // than fixed-round stepping.
            assert!(
                executed[1] >= 2 * executed[0],
                "skip mode executed {} rounds vs fixed's {} (< 2x win)",
                executed[0],
                executed[1]
            );
        }
    }
}

/// Run PM-First and PAL once each at fleet scale (see the module docs),
/// appending their wall times and simulated/executed round counts.
fn fleet_scale_accounting(entries: &mut Vec<(String, f64)>) {
    let topo = ClusterTopology::new(2_500, 4);
    let profile = Arc::new(modeled_longhorn_profile(topo.total_gpus(), PROFILE_SEED));
    let start = Instant::now();
    let table = Arc::new(PmScoreTable::build_default(&profile));
    eprintln!("fleet scale: PM-score table built in {:?}", start.elapsed());
    let catalog = ModelCatalog::table2(&GpuSpec::v100());
    let trace = Arc::new(
        HeavyTailConfig {
            num_jobs: 100_000,
            jobs_per_hour: 6_000.0,
            ..Default::default()
        }
        .generate(&catalog),
    );
    let policies: [(&str, Box<dyn PlacementPolicy + Send>); 2] = [
        (
            "pmfirst_10k_gpus",
            Box::new(PmFirstPlacement::from_shared(Arc::clone(&table))),
        ),
        (
            "pal_10k_gpus",
            Box::new(PalPlacement::from_shared(Arc::clone(&table))),
        ),
    ];
    for (label, placement) in policies {
        let start = Instant::now();
        let r = Scenario::new(Arc::clone(&trace), topo)
            .profile(Arc::clone(&profile))
            .locality(LocalityModel::frontera_per_model())
            .scheduler(Las::default())
            .placement_boxed(placement)
            .run()
            .expect("fleet-scale run");
        let wall = start.elapsed();
        eprintln!(
            "{label}: {wall:?}; {} simulated rounds, {} executed",
            r.rounds, r.executed_rounds
        );
        entries.push((format!("large_run/{label}"), wall.as_nanos() as f64));
        entries.push((format!("rounds/{label}/simulated"), r.rounds as f64));
        entries.push((format!("rounds/{label}/executed"), r.executed_rounds as f64));
    }
}

/// Run PM-First under LAS on an over-subscribed 448-GPU cluster, the
/// shape of the e2e `contended_fork` workload (see the module docs),
/// appending its wall time and simulated/executed round counts.
fn backlog_accounting(entries: &mut Vec<(String, f64)>) {
    let topo = ClusterTopology::new(112, 4);
    let profile = Arc::new(modeled_longhorn_profile(topo.total_gpus(), PROFILE_SEED));
    let placement = PmFirstPlacement::new(&profile);
    let trace = HeavyTailConfig {
        num_jobs: 30_000,
        jobs_per_hour: 500.0,
        ..Default::default()
    }
    .generate(&ModelCatalog::table2(&GpuSpec::v100()));
    let label = "las_backlog_448";
    let start = Instant::now();
    let r = Scenario::new(trace, topo)
        .profile(profile)
        .locality(LocalityModel::uniform(1.5))
        .scheduler(Las::default())
        .placement(placement)
        .run()
        .expect("backlog run");
    let wall = start.elapsed();
    eprintln!(
        "{label}: {wall:?}; {} simulated rounds, {} executed",
        r.rounds, r.executed_rounds
    );
    entries.push((format!("large_run/{label}"), wall.as_nanos() as f64));
    entries.push((format!("rounds/{label}/simulated"), r.rounds as f64));
    entries.push((format!("rounds/{label}/executed"), r.executed_rounds as f64));
}

criterion_group!(
    benches,
    bench_full_run,
    bench_single_steps,
    bench_sticky_drain
);

fn main() {
    benches();
    let mut entries = criterion::take_measurements();
    // Beyond wall time, record the round counts of both stepping modes:
    // the skip win is `executed_event_off / executed_event_on` (simulated
    // counts are bit-identical by construction), and the CI bench gate
    // fails the build if the executed count regresses.
    let trace = sticky_drain_trace();
    let prof = profile(drain_topology().total_gpus());
    for (label, event_driven) in [("event_on", true), ("event_off", false)] {
        let r = drain_scenario(&trace, &prof, event_driven)
            .run()
            .expect("rounds-accounting run");
        entries.push((
            format!("rounds/sticky_drain/simulated_{label}"),
            r.rounds as f64,
        ));
        entries.push((
            format!("rounds/sticky_drain/executed_{label}"),
            r.executed_rounds as f64,
        ));
    }
    large_scale_accounting(&mut entries);
    fleet_scale_accounting(&mut entries);
    backlog_accounting(&mut entries);
    pal_bench::bench_json::update_workspace("engine_rounds", &entries)
        .expect("update BENCH_engine.json");
}
