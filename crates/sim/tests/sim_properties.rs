//! Property-based tests for the simulation engine: conservation and
//! causality invariants must hold for arbitrary traces, cluster shapes,
//! policies, and schedulers.

use pal_cluster::{ClusterTopology, JobClass, LocalityModel, VariabilityProfile};
use pal_config::{state_from_json, state_to_json};
use pal_gpumodel::Workload;
use pal_sim::placement::{PackedPlacement, RandomPlacement};
use pal_sim::sched::{Fifo, Las, SchedulingPolicy, Srsf, Srtf};
use pal_sim::{
    Campaign, PlacementPolicy, PolicySpec, Scenario, ServingJob, SimConfig, SimResult, StepOutcome,
};
use pal_trace::{JobId, JobSpec, ServingWorkload, Trace};
use proptest::prelude::*;

/// Strategy: a random small trace on a random small cluster.
fn scenario() -> impl Strategy<Value = (ClusterTopology, Trace, Vec<f64>)> {
    (2usize..=6, 2usize..=4)
        .prop_flat_map(|(nodes, gpn)| {
            let n = nodes * gpn;
            let jobs = proptest::collection::vec(
                (
                    0.0f64..20_000.0,  // arrival
                    1usize..=n.min(8), // demand
                    60.0f64..4000.0,   // ideal duration
                    0usize..3,         // class
                ),
                1..25,
            );
            (
                Just(ClusterTopology::new(nodes, gpn)),
                jobs,
                proptest::collection::vec(0.85f64..3.0, n),
            )
        })
        .prop_map(|(topo, raw, scores)| {
            let jobs: Vec<JobSpec> = raw
                .into_iter()
                .enumerate()
                .map(|(i, (arrival, demand, duration, class))| JobSpec {
                    id: JobId(i as u32),
                    model: Workload::ALL[i % Workload::ALL.len()],
                    class: JobClass(class),
                    arrival,
                    gpu_demand: demand,
                    iterations: duration.max(1.0) as u64,
                    base_iter_time: 1.0,
                })
                .collect();
            (topo, Trace::new("prop", jobs), scores)
        })
}

fn check_invariants(topo: ClusterTopology, trace: &Trace, r: &SimResult) {
    // Every job finished, exactly once, causally.
    assert_eq!(r.records.len(), trace.len());
    for (rec, spec) in r.records.iter().zip(&trace.jobs) {
        assert_eq!(rec.id, spec.id);
        assert!(
            rec.first_start >= spec.arrival - 1e-9,
            "{} ran early",
            rec.id
        );
        assert!(rec.finish > rec.first_start - 1e-9);
        // A job can never finish faster than its ideal runtime (scores are
        // >= 0.85 here, so give 0.8 slack).
        assert!(
            rec.jct() >= 0.8 * spec.ideal_runtime() - 1e-6,
            "{} finished impossibly fast: {} < {}",
            rec.id,
            rec.jct(),
            spec.ideal_runtime()
        );
    }
    // Busy GPU time can't exceed capacity over the makespan, and must cover
    // at least the ideal service (slowdowns only add time).
    let capacity = topo.total_gpus() as f64 * r.makespan();
    assert!(r.busy_gpu_seconds <= capacity + 1e-6);
    assert!(r.busy_gpu_seconds >= 0.8 * trace.total_ideal_gpu_service() - 1e-6);
    // GPUs-in-use series never exceeds the cluster size or goes negative.
    for &(_, v) in r.gpus_in_use.points() {
        assert!(v >= 0.0 && v <= topo.total_gpus() as f64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn invariants_hold_for_all_policy_scheduler_combos(
        (topo, trace, scores) in scenario(),
        seed in 0u64..500,
        sched_pick in 0usize..4,
        sticky in any::<bool>(),
    ) {
        let profile = VariabilityProfile::from_raw(vec![scores.clone(), scores.clone(), scores]);
        let locality = LocalityModel::uniform(1.5);
        let sched: Box<dyn SchedulingPolicy + Send + Sync> = match sched_pick {
            0 => Box::new(Fifo),
            1 => Box::new(Las::default()),
            2 => Box::new(Srtf),
            _ => Box::new(Srsf),
        };
        let policy: Box<dyn PlacementPolicy + Send> = if seed % 2 == 0 {
            Box::new(RandomPlacement::new(seed))
        } else {
            Box::new(PackedPlacement::randomized(seed))
        };
        let r = Scenario::new(trace.clone(), topo)
            .profile(profile)
            .locality(locality)
            .scheduler_boxed(sched)
            .placement_boxed(policy)
            .sticky(sticky)
            .run()
            .expect("property scenario misconfigured");
        check_invariants(topo, &trace, &r);
    }

    #[test]
    fn zero_variability_flat_profile_jct_exact(
        nodes in 2usize..=6,
        demand in 1usize..=4,
        duration in 60.0f64..4000.0,
        class in 0usize..3,
    ) {
        // With V = 1.0 everywhere and L = 1.0, a single job alone on the
        // cluster finishes in exactly its ideal runtime (rounded up to
        // round admission).
        let topo = ClusterTopology::new(nodes, 4);
        let trace = Trace::new(
            "solo",
            vec![JobSpec {
                id: JobId(0),
                model: Workload::ResNet50,
                class: JobClass(class),
                arrival: 0.0,
                gpu_demand: demand,
                iterations: duration.max(1.0) as u64,
                base_iter_time: 1.0,
            }],
        );
        let r = Scenario::new(trace.clone(), topo)
            .placement(PackedPlacement::deterministic())
            .run()
            .expect("flat scenario misconfigured");
        let rec = &r.records[0];
        let ideal = trace.jobs[0].ideal_runtime();
        prop_assert!((rec.finish - rec.first_start - ideal).abs() < 1e-6);
    }

    #[test]
    fn sticky_never_migrates_unpreempted_jobs(
        (topo, trace, scores) in scenario(),
        seed in 0u64..500,
    ) {
        let profile = VariabilityProfile::from_raw(vec![scores.clone(), scores.clone(), scores]);
        let r = Scenario::new(trace.clone(), topo)
            .profile(profile)
            .locality(LocalityModel::uniform(1.5))
            .placement(PackedPlacement::randomized(seed))
            .config(SimConfig::sticky())
            .run()
            .expect("sticky scenario misconfigured");
        for rec in &r.records {
            if rec.preemptions == 0 {
                prop_assert_eq!(
                    rec.migrations, 0,
                    "{} migrated without preemption under sticky", rec.id
                );
            }
        }
    }

    #[test]
    fn spanning_job_runtime_scales_linearly_with_penalty(
        nodes in 2usize..=5,
        penalty in 1.0f64..3.0,
        duration in 300.0f64..5000.0,
    ) {
        // A lone job larger than a node pays exactly L_across on its
        // execution time (Equation 1 with flat V). Note that scheduling
        // anomalies make whole-trace monotonicity claims unsound (Graham's
        // anomalies), so we check the per-job law instead.
        let topo = ClusterTopology::new(nodes, 4);
        let demand = 4 + 1; // always spans two nodes
        let job = JobSpec {
            id: JobId(0),
            model: Workload::ResNet50,
            class: JobClass::A,
            arrival: 0.0,
            gpu_demand: demand,
            iterations: duration as u64,
            base_iter_time: 1.0,
        };
        let ideal = job.ideal_runtime();
        let trace = Trace::new("span", vec![job]);
        let r = Scenario::new(trace.clone(), topo)
            .locality(LocalityModel::uniform(penalty))
            .placement(PackedPlacement::deterministic())
            .run()
            .expect("spanning scenario misconfigured");
        let run_time = r.records[0].finish - r.records[0].first_start;
        prop_assert!(
            (run_time - penalty * ideal).abs() < 1e-6 * penalty * ideal + 1e-6,
            "expected {}, got {run_time}",
            penalty * ideal
        );
    }
}

/// A serving replica holds one GPU for the whole run, so cap training
/// demands at the remaining capacity when `serving` is on.
fn resumable_trace(topo: ClusterTopology, trace: Trace, serving: bool) -> Trace {
    if !serving {
        return trace;
    }
    let jobs = trace
        .jobs
        .into_iter()
        .map(|mut j| {
            j.gpu_demand = j.gpu_demand.min(topo.total_gpus() - 1);
            j
        })
        .collect();
    Trace::new("prop", jobs)
}

/// Build the scenario used by the pause/resume properties: random trace,
/// seeded Random placement (so hidden RNG state is in play), optional
/// serving deployment, fixed-round or event-driven stepping.
fn resumable_scenario(
    topo: ClusterTopology,
    trace: &Trace,
    scores: &[f64],
    seed: u64,
    event_driven: bool,
    serving: bool,
) -> Scenario {
    let mut s = Scenario::new(trace.clone(), topo)
        .profile(VariabilityProfile::from_raw(vec![scores.to_vec(); 3]))
        .locality(LocalityModel::uniform(1.5))
        .placement(RandomPlacement::new(seed))
        .event_driven(event_driven);
    if serving {
        let w = ServingWorkload {
            work_median_s: 0.01,
            work_sigma: 0.2,
            slo_s: 0.5,
            ..ServingWorkload::poisson("chat", 20.0, 200)
        };
        s = s.serving(ServingJob::new(w, 1, 1));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn export_import_at_any_step_matches_uninterrupted(
        (topo, trace, scores) in scenario(),
        seed in 0u64..500,
        steps in 0usize..40,
        event_driven in any::<bool>(),
        serving in any::<bool>(),
    ) {
        let trace = resumable_trace(topo, trace, serving);
        let build = || resumable_scenario(topo, &trace, &scores, seed, event_driven, serving);

        let reference = build().run().expect("property scenario misconfigured");
        let mut first = build().start().unwrap();
        for _ in 0..steps {
            if first.step().unwrap() != StepOutcome::Running {
                break;
            }
        }
        let state = first.export_state();
        let mut resumed = build().start().unwrap();
        resumed.import_state(&state).unwrap();
        let from_resume = resumed.run_to_completion().unwrap();
        let from_first = first.run_to_completion().unwrap();
        prop_assert!(
            reference.same_outcome(&from_first),
            "stepped run diverged from uninterrupted"
        );
        prop_assert!(
            reference.same_outcome(&from_resume),
            "export at step {} / import lost state", steps
        );
        prop_assert_eq!(reference.executed_rounds, from_resume.executed_rounds);
    }

    #[test]
    fn export_to_json_and_back_at_any_step_matches_uninterrupted(
        (topo, trace, scores) in scenario(),
        seed in 0u64..500,
        steps in 0usize..40,
        event_driven in any::<bool>(),
        serving in any::<bool>(),
    ) {
        let trace = resumable_trace(topo, trace, serving);
        let build = || resumable_scenario(topo, &trace, &scores, seed, event_driven, serving);

        let reference = build().run().expect("property scenario misconfigured");
        let mut first = build().start().unwrap();
        for _ in 0..steps {
            if first.step().unwrap() != StepOutcome::Running {
                break;
            }
        }
        let state = first.export_state();
        let json = state_to_json(&state).expect("an exported state serializes");
        let back = state_from_json("prop.state.json", &json).expect("the file reads back");
        prop_assert_eq!(&back, &state);
        let mut resumed = build().start().unwrap();
        resumed.import_state(&back).unwrap();
        let from_resume = resumed.run_to_completion().unwrap();
        prop_assert!(
            reference.same_outcome(&from_resume),
            "export at step {} / JSON round trip / import lost state", steps
        );
        prop_assert_eq!(reference.executed_rounds, from_resume.executed_rounds);
    }

    #[test]
    fn what_if_fork_at_zero_matches_fresh_runs(
        (topo, trace, scores) in scenario(),
        seed in 0u64..500,
    ) {
        let c = Campaign::new()
            .seed(seed)
            .scenario("prop", move || {
                Scenario::new(trace.clone(), topo)
                    .profile(VariabilityProfile::from_raw(vec![scores.clone(); 3]))
                    .locality(LocalityModel::uniform(1.5))
            })
            .policy(PolicySpec::new("Random", |_, s| {
                Box::new(RandomPlacement::new(s))
            }))
            .policy(PolicySpec::new("Packed", |_, s| {
                Box::new(PackedPlacement::randomized(s))
            }));
        let fresh = c.run_sequential().unwrap();
        let report = c.what_if(0.0).unwrap();
        prop_assert_eq!(report.scenarios.len(), 1);
        for (branch, cell) in report.scenarios[0].branches.iter().zip(&fresh) {
            prop_assert_eq!(&branch.policy, &cell.policy);
            prop_assert_eq!(branch.seed, cell.seed);
            prop_assert!(
                branch.result.same_outcome(&cell.result),
                "fork_at(0) branch `{}` diverged from a fresh run", branch.policy
            );
        }
    }
}
