//! The serving subsystem's cross-crate contracts (PR 6).
//!
//! Property tests pin the three invariants the subsystem is built on:
//!
//! 1. **Open-loop determinism** — a [`ServingWorkload`] stream is a pure
//!    function of its seed: same seed ⇒ identical request stream, for
//!    every arrival process.
//! 2. **Stepping-mode equivalence** — mixed serving + training scenarios
//!    produce bit-identical [`SimResult`]s (including every serving
//!    metric) under event-driven and fixed-round stepping.
//! 3. **Batcher safety** — push-to-deadline batching never *extends* a
//!    batch past the head request's deadline budget: any batch of two or
//!    more requests finishes within the head's deadline, and a batch
//!    stops growing only when full, out of requests, or out of budget.
//!
//! Directed tests pin the headline behavior: variability-aware placement
//! (PAL) serves a lower latency tail than variability-blind packing on a
//! skewed cluster, and an underloaded deployment attains its SLO.

use pal::PalPlacement;
use pal_cluster::{ClusterTopology, JobClass, LocalityModel, VariabilityProfile};
use pal_gpumodel::Workload;
use pal_sim::placement::{PackedPlacement, RandomPlacement};
use pal_sim::sched::{Fifo, Las, SchedulingPolicy, Srtf};
use pal_sim::serving::form_batch;
use pal_sim::{BatcherConfig, PlacementPolicy, Scenario, ServingJob, SimResult};
use pal_trace::{
    ArrivalProcess, JobId, JobSpec, RequestId, ServingRequest, ServingWorkload, Trace,
};
use proptest::prelude::*;

fn profile(gpus: usize) -> VariabilityProfile {
    VariabilityProfile::from_raw(
        (0..3)
            .map(|c| {
                (0..gpus)
                    .map(|g| 1.0 + ((g * 7 + c * 13) % 10) as f64 * 0.05)
                    .collect()
            })
            .collect(),
    )
}

fn arrivals(pick: usize, rate: f64) -> ArrivalProcess {
    match pick {
        0 => ArrivalProcess::Poisson { rate_per_s: rate },
        1 => ArrivalProcess::Bursty {
            base_rate_per_s: rate,
            burst_rate_per_s: rate * 4.0,
            mean_dwell_s: 5.0,
        },
        _ => ArrivalProcess::Diurnal {
            mean_rate_per_s: rate,
            amplitude: 0.8,
            period_s: 60.0,
        },
    }
}

fn scheduler(pick: usize) -> Box<dyn SchedulingPolicy + Send + Sync> {
    match pick {
        0 => Box::new(Fifo),
        1 => Box::new(Las {
            threshold_gpu_seconds: 1800.0,
        }),
        _ => Box::new(Srtf),
    }
}

fn placement(pick: usize, profile: &VariabilityProfile) -> Box<dyn PlacementPolicy + Send> {
    match pick {
        0 => Box::new(PackedPlacement::deterministic()),
        1 => Box::new(RandomPlacement::new(7)),
        _ => Box::new(PalPlacement::new(profile)),
    }
}

fn spec(id: u32, arrival: f64, demand: usize, iters: u64, class: usize) -> JobSpec {
    JobSpec {
        id: JobId(id),
        model: Workload::ResNet50,
        class: JobClass(class),
        arrival,
        gpu_demand: demand,
        iterations: iters,
        base_iter_time: 1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Same seed ⇒ byte-identical request stream, for every arrival
    /// process; different seeds diverge; arrivals strictly increase.
    #[test]
    fn open_loop_streams_are_deterministic_per_seed(
        pick in 0usize..3,
        rate in 0.5f64..200.0,
        seed in any::<u64>(),
        n in 1u64..400,
    ) {
        let w = ServingWorkload {
            arrivals: arrivals(pick, rate),
            seed,
            ..ServingWorkload::poisson("det", rate, n)
        };
        let a: Vec<ServingRequest> = w.stream().collect();
        let b: Vec<ServingRequest> = w.stream().collect();
        prop_assert_eq!(&a, &b, "same seed must replay the same stream");
        prop_assert_eq!(a.len() as u64, n);
        for pair in a.windows(2) {
            prop_assert!(pair[1].arrival > pair[0].arrival);
        }
        let other = ServingWorkload { seed: seed ^ 1, ..w };
        let c: Vec<ServingRequest> = other.stream().collect();
        prop_assert_ne!(&a, &c, "different seeds must diverge");
    }

    /// Event-driven and fixed-round stepping of a mixed serving +
    /// training scenario produce the same outcome — serving metrics
    /// included (`same_outcome` compares them).
    #[test]
    fn serving_outcomes_match_across_stepping_modes(
        raw in proptest::collection::vec(
            (0.0f64..20_000.0, 1usize..=4, 1u64..4_000, 0usize..3),
            1..8,
        ),
        pick in 0usize..3,
        rate in 1.0f64..60.0,
        n in 1u64..250,
        replicas in 1usize..=2,
        sched_pick in 0usize..3,
        place_pick in 0usize..3,
        sticky in any::<bool>(),
    ) {
        let jobs: Vec<JobSpec> = raw
            .iter()
            .enumerate()
            .map(|(i, &(arrival, demand, iters, class))| {
                spec(i as u32, arrival, demand, iters, class)
            })
            .collect();
        let run = |event_driven: bool| -> SimResult {
            let topo = ClusterTopology::new(2, 4);
            let prof = profile(topo.total_gpus());
            let w = ServingWorkload {
                arrivals: arrivals(pick, rate),
                ..ServingWorkload::poisson("mix", rate, n)
            };
            Scenario::new(Trace::new("mix", jobs.clone()), topo)
                .profile(prof.clone())
                .locality(LocalityModel::uniform(1.5))
                .scheduler_boxed(scheduler(sched_pick))
                .placement_boxed(placement(place_pick, &prof))
                .serving(ServingJob::new(w, replicas, 1))
                .sticky(sticky)
                .event_driven(event_driven)
                .run()
                .expect("mixed scenario runs")
        };
        let on = run(true);
        let off = run(false);
        prop_assert!(
            on.same_outcome(&off),
            "serving run diverged across stepping modes \
             (sched {sched_pick}, place {place_pick}, sticky {sticky})"
        );
        prop_assert_eq!(on.serving.len(), 1);
        prop_assert_eq!(on.serving[0].requests, n);
    }

    /// Push-to-deadline batching: FIFO-contiguous batches, bounded by
    /// `max_batch_size`, never extended past the head's deadline budget,
    /// and never stopped early while budget and space remain.
    #[test]
    fn batches_respect_the_head_deadline_budget(
        raw in proptest::collection::vec(
            (0.001f64..0.5, 0.01f64..2.0),
            1..30,
        ),
        now in 0.0f64..100.0,
        max_batch_size in 1usize..8,
        batch_overhead_s in 0.0f64..0.1,
        slowdown in 0.5f64..3.0,
    ) {
        let original: Vec<ServingRequest> = raw
            .iter()
            .enumerate()
            .map(|(i, &(work, slack))| ServingRequest {
                id: RequestId(i as u64),
                arrival: now - 1.0,
                work,
                deadline: now + slack,
            })
            .collect();
        let work: Vec<f64> = original.iter().map(|r| r.work).collect();
        let cfg = BatcherConfig {
            max_batch_size,
            batch_overhead_s,
        };
        let end = form_batch(&work, original[0].deadline, now, slowdown, &cfg);
        prop_assert!(end <= original.len());
        let (batch, queue) = original.split_at(end);

        // The head is always served, batches are FIFO-contiguous, and
        // nothing is dropped.
        prop_assert!(!batch.is_empty());
        prop_assert!(batch.len() <= max_batch_size);
        prop_assert_eq!(batch, &original[..batch.len()]);
        prop_assert_eq!(queue.len(), original.len() - batch.len());

        let budget = original[0].deadline - now;
        let exec =
            (batch_overhead_s + batch.iter().map(|r| r.work).sum::<f64>()) * slowdown;
        if batch.len() >= 2 {
            prop_assert!(
                exec <= budget + 1e-9,
                "batch of {} runs {exec:.4}s against a {budget:.4}s budget",
                batch.len()
            );
        }
        // Push-to-deadline: the batch only stops growing when full, out
        // of requests, or the next admission would bust the budget.
        if batch.len() < max_batch_size {
            if let Some(next) = queue.first() {
                prop_assert!(
                    exec + next.work * slowdown > budget,
                    "batcher left budget on the table"
                );
            }
        }
    }
}

/// On a cluster whose low-index GPUs are slow, variability-blind packing
/// serves from the slow GPUs while PAL picks the fast ones — so PAL's
/// latency tail (and SLO attainment) must win at a load the fast GPU can
/// absorb and the slow one cannot.
#[test]
fn pal_placement_beats_packed_on_serving_tail_latency() {
    let topo = ClusterTopology::new(1, 4);
    // GPUs 0,1 run at half speed for every class; 2,3 at full speed.
    let prof = VariabilityProfile::from_raw(vec![vec![2.0, 2.0, 1.0, 1.0]; 3]);
    let run = |placement: Box<dyn PlacementPolicy + Send>| -> SimResult {
        let w = ServingWorkload {
            work_median_s: 0.08,
            work_sigma: 0.2,
            slo_s: 0.5,
            ..ServingWorkload::poisson("tail", 8.0, 2_000)
        };
        Scenario::new(Trace::new("none", vec![]), topo)
            .profile(prof.clone())
            .placement_boxed(placement)
            .serving(ServingJob::new(w, 1, 1))
            .run()
            .expect("serving-only scenario runs")
    };
    let packed = run(Box::new(PackedPlacement::deterministic()));
    let pal = run(Box::new(PalPlacement::new(&prof)));
    let (packed, pal) = (&packed.serving[0], &pal.serving[0]);
    assert!(
        pal.latency_p99 < packed.latency_p99,
        "PAL p99 {} vs Packed p99 {}",
        pal.latency_p99,
        packed.latency_p99
    );
    assert!(
        pal.slo_attainment() > packed.slo_attainment(),
        "PAL attainment {} vs Packed {}",
        pal.slo_attainment(),
        packed.slo_attainment()
    );
}

/// An underloaded deployment with a generous SLO attains it completely,
/// and its goodput ≈ the offered rate.
#[test]
fn underloaded_deployment_attains_full_slo() {
    let w = ServingWorkload {
        work_median_s: 0.02,
        work_sigma: 0.1,
        slo_s: 5.0,
        ..ServingWorkload::poisson("easy", 10.0, 3_000)
    };
    let r = Scenario::new(Trace::new("none", vec![]), ClusterTopology::new(1, 4))
        .serving(ServingJob::new(w, 2, 1))
        .run()
        .unwrap();
    let m = &r.serving[0];
    assert_eq!(m.requests, 3_000);
    assert!(
        (m.slo_attainment() - 1.0).abs() < 1e-12,
        "{}",
        m.slo_attainment()
    );
    assert!(
        (m.goodput() - 10.0).abs() < 2.0,
        "goodput {} vs offered 10 req/s",
        m.goodput()
    );
}

/// Training and serving coexist: training jobs complete on the reduced
/// capacity, serving drains its stream, and a mid-run state export
/// reports serving progress.
#[test]
fn mixed_training_and_serving_run_completes_and_snapshots() {
    let jobs: Vec<JobSpec> = (0..6)
        .map(|i| {
            spec(
                i,
                i as f64 * 200.0,
                1 + (i as usize % 2),
                2_000,
                i as usize % 3,
            )
        })
        .collect();
    let topo = ClusterTopology::new(2, 4);
    let prof = profile(topo.total_gpus());
    let w = ServingWorkload {
        slo_s: 2.0,
        ..ServingWorkload::poisson("side", 5.0, 500)
    };
    let mut sim = Scenario::new(Trace::new("mix", jobs), topo)
        .profile(prof)
        .locality(LocalityModel::uniform(1.5))
        .serving(ServingJob::new(w, 2, 1))
        .start()
        .unwrap();
    sim.step().unwrap();
    let state = sim.export_state();
    assert_eq!(state.serving.len(), 1);
    let side = &state.serving[0];
    assert_eq!(side.workload, "side");
    assert!(side.completed > 0, "{side:?}");
    assert!(side.arrived >= side.completed, "{side:?}");
    let r = sim.run_to_completion().unwrap();
    assert_eq!(r.records.len(), 6);
    assert_eq!(r.serving[0].requests, 500);
    assert!(r.serving[0].slo_attained > 0);
    // 2 of 8 GPUs are carved out for serving; training still fits.
    assert_eq!(r.total_gpus, 8);
}

/// A training-only run built through the same (serving-capable) API has
/// an empty serving field and debug output free of serving noise.
#[test]
fn training_only_runs_report_no_serving() {
    let r = Scenario::new(
        Trace::new("t", vec![spec(0, 0.0, 2, 500, 0)]),
        ClusterTopology::new(1, 4),
    )
    .run()
    .unwrap();
    assert!(r.serving.is_empty());
    assert!(!format!("{r:?}").contains("serving"));
}
