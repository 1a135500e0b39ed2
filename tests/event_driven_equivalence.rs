//! Event-driven round skipping (PR 4) must be unobservable: for any
//! scenario, a run with `Scenario::event_driven(true)` produces a
//! `SimResult` bit-identical to fixed-round stepping — same records, same
//! telemetry series, same simulated round count — differing only in how
//! many rounds the engine actually executed.
//!
//! The property sweeps arbitrary small traces across every scheduler ×
//! placement combination (including the stateful Adaptive-PAL, whose
//! per-round EWMA observations the skip path must replay exactly) in both
//! sticky and non-sticky modes. Two test-local, key-only schedulers whose
//! order moves while jobs run pin that skipping is sound for any
//! `SchedulingPolicy`, not just the built-in four. A deterministic companion test pins the
//! point of the feature: a sticky drain workload executes ≥5× fewer
//! rounds than it simulates.

use pal::{AdaptivePal, PalPlacement, PmFirstPlacement};
use pal_cluster::{ClusterTopology, JobClass, LocalityModel, VariabilityProfile};
use pal_gpumodel::Workload;
use pal_sim::job_state::ActiveJob;
use pal_sim::placement::{PackedPlacement, RandomPlacement};
use pal_sim::sched::{Fifo, Las, SchedulingPolicy, Srsf, Srtf};
use pal_sim::{PlacementPolicy, Scenario, SimResult};
use pal_trace::{JobId, JobSpec, Trace};
use proptest::prelude::*;

/// 3 classes × `gpus` GPUs of non-flat variability, so placement choices
/// (and therefore any divergence in them) change finish times.
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

/// A scheduler defined by nothing but its key: attained service, scaled
/// by `sign`. With `sign = -1.0` (most service first) running jobs keep
/// overtaking each other; with `sign = 1.0` (continuous LAS) they fall
/// behind waiting jobs and get preempted. Either way the order moves
/// between decision rounds, and only the engine's re-check can see it.
struct ServiceKey {
    sign: f64,
}

impl SchedulingPolicy for ServiceKey {
    fn name(&self) -> &'static str {
        "SERVICE"
    }

    fn key(&self, job: &ActiveJob) -> f64 {
        self.sign * job.attained_service
    }
}

fn scheduler(pick: usize) -> Box<dyn SchedulingPolicy + Send + Sync> {
    match pick {
        0 => Box::new(Fifo),
        // Low demotion threshold so attained-service crossings fire
        // inside small traces — a skip hop must end at each of them.
        1 => Box::new(Las {
            threshold_gpu_seconds: 1800.0,
        }),
        2 => Box::new(Srtf),
        3 => Box::new(Srsf),
        4 => Box::new(ServiceKey { sign: -1.0 }),
        _ => Box::new(ServiceKey { sign: 1.0 }),
    }
}

fn placement(pick: usize, profile: &VariabilityProfile) -> Box<dyn PlacementPolicy + Send> {
    match pick {
        0 => Box::new(PackedPlacement::deterministic()),
        1 => Box::new(PackedPlacement::randomized(11)),
        2 => Box::new(RandomPlacement::new(7)),
        3 => Box::new(PmFirstPlacement::new(profile)),
        4 => Box::new(PalPlacement::new(profile)),
        _ => Box::new(AdaptivePal::new(profile)),
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

fn run(
    jobs: &[JobSpec],
    sched_pick: usize,
    place_pick: usize,
    sticky: bool,
    event_driven: bool,
) -> SimResult {
    let topo = ClusterTopology::new(2, 4);
    let prof = profile(topo.total_gpus());
    Scenario::new(Trace::new("equiv", jobs.to_vec()), topo)
        .profile(prof.clone())
        .locality(LocalityModel::uniform(1.5))
        .scheduler_boxed(scheduler(sched_pick))
        .placement_boxed(placement(place_pick, &prof))
        .sticky(sticky)
        .event_driven(event_driven)
        .run()
        .expect("equivalence scenario runs")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]
    #[test]
    fn event_driven_matches_fixed_round_everywhere(
        raw in proptest::collection::vec(
            (0.0f64..30_000.0, 1usize..=4, 1u64..6_000, 0usize..3),
            1..12,
        ),
        sched_pick in 0usize..6,
        place_pick in 0usize..6,
        sticky in any::<bool>(),
    ) {
        let jobs: Vec<JobSpec> = raw
            .iter()
            .enumerate()
            .map(|(i, &(arrival, demand, iters, class))| {
                spec(i as u32, arrival, demand, iters, class)
            })
            .collect();
        let on = run(&jobs, sched_pick, place_pick, sticky, true);
        let off = run(&jobs, sched_pick, place_pick, sticky, false);
        prop_assert!(
            on.same_outcome(&off),
            "event-driven diverged (sched {sched_pick}, place {place_pick}, sticky {sticky})"
        );
        prop_assert_eq!(off.executed_rounds, off.rounds);
        prop_assert!(on.executed_rounds <= off.executed_rounds);
    }
}

#[test]
fn sticky_drain_executes_far_fewer_rounds() {
    // The workload event-driven skipping exists for: a burst of long jobs
    // drains under sticky placement, so after the last queue change the
    // only events are completions (plus early LAS demotions). Simulated
    // rounds stay in the thousands; executed rounds collapse.
    let jobs: Vec<JobSpec> = (0..12)
        .map(|i| {
            spec(
                i,
                (i as f64) * 40.0,
                1 + (i as usize % 3),
                200_000 + 17_000 * i as u64,
                i as usize % 3,
            )
        })
        .collect();
    for sched_pick in 0..4 {
        let on = run(&jobs, sched_pick, 0, true, true);
        let off = run(&jobs, sched_pick, 0, true, false);
        assert!(on.same_outcome(&off), "sched {sched_pick} diverged");
        assert!(
            on.executed_rounds * 5 <= on.rounds,
            "sched {sched_pick}: executed {} of {} simulated rounds — skip not engaging",
            on.executed_rounds,
            on.rounds
        );
    }
}

#[test]
fn non_sticky_never_skips() {
    // Non-sticky rounds re-place every running job (consuming RNG for
    // seeded policies), so they must run every round even with
    // event-driven stepping enabled.
    let jobs: Vec<JobSpec> = (0..6)
        .map(|i| spec(i, (i as f64) * 100.0, 2, 50_000, i as usize % 3))
        .collect();
    let r = run(&jobs, 0, 1, false, true);
    assert_eq!(r.executed_rounds, r.rounds);
}
