//! The round-based simulation engine; [`Simulation`] documents its
//! layers and stepping modes.

mod round;
mod state;
mod stepper;
mod telemetry;

pub use round::StepOutcome;
pub use stepper::Simulation;

pub(crate) use stepper::SimulationParts;
pub(crate) use telemetry::Observer;
#[cfg(test)]
pub(crate) use telemetry::Telemetry;

use crate::config::SimConfig;
use crate::error::{ProfileRole, SimError};
use pal_cluster::{ClusterTopology, VariabilityProfile};
use pal_trace::Trace;

/// Completion tolerance: a job whose computed finish lands within this many
/// seconds past the round boundary is treated as finishing at the boundary
/// (floating-point slack).
pub(crate) const EPS: f64 = 1e-9;

/// The static configuration checks shared by [`crate::Scenario::validate`]
/// (where profile/truth may still be unset) and
/// [`crate::Scenario::start`] (where both are resolved). `None` profiles
/// are exempt from the GPU-count check — the flat default always matches
/// — and a `(None, None)` pair places no bound on job classes, since the
/// default profile sizes itself to the trace.
pub(crate) fn validate_inputs(
    trace: &Trace,
    topology: &ClusterTopology,
    profile: Option<&VariabilityProfile>,
    truth: Option<&VariabilityProfile>,
    config: &SimConfig,
) -> Result<(), SimError> {
    let total_gpus = topology.total_gpus();
    if let Some(p) = profile {
        if p.num_gpus() != total_gpus {
            return Err(SimError::ProfileTopologyMismatch {
                role: ProfileRole::Policy,
                profile_gpus: p.num_gpus(),
                topology_gpus: total_gpus,
            });
        }
    }
    if let Some(t) = truth {
        if t.num_gpus() != total_gpus {
            return Err(SimError::ProfileTopologyMismatch {
                role: ProfileRole::Truth,
                profile_gpus: t.num_gpus(),
                topology_gpus: total_gpus,
            });
        }
    }
    let dt = config.round_duration;
    if !(dt > 0.0 && dt.is_finite()) {
        return Err(SimError::InvalidRoundDuration { round_duration: dt });
    }
    if config.max_rounds == 0 {
        return Err(SimError::ZeroMaxRounds);
    }
    if !(dt * config.max_rounds as f64).is_finite() {
        return Err(SimError::ClockOverflow {
            round_duration: dt,
            max_rounds: config.max_rounds,
        });
    }
    let overhead = config.migration_overhead;
    if !(overhead >= 0.0 && overhead.is_finite()) {
        return Err(SimError::InvalidMigrationOverhead {
            migration_overhead: overhead,
        });
    }
    let num_classes = match (profile, truth) {
        (Some(p), Some(t)) => p.num_classes().min(t.num_classes()),
        (Some(p), None) => p.num_classes(),
        (None, Some(t)) => t.num_classes(),
        (None, None) => usize::MAX,
    };
    if let Some(job) = trace.jobs.iter().find(|j| j.class.0 >= num_classes) {
        return Err(SimError::ClassOutOfRange {
            job: job.id,
            class: job.class,
            num_classes,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SimResult;
    use crate::placement::{PackedPlacement, RandomPlacement};
    use crate::scenario::Scenario;
    use crate::sched::{Fifo, Las, Srtf};
    use pal_cluster::{GpuId, JobClass, LocalityModel};
    use pal_gpumodel::Workload;
    use pal_trace::{JobId, JobSpec};

    fn spec(id: u32, arrival: f64, demand: usize, ideal_secs: f64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            model: Workload::ResNet50,
            class: JobClass::A,
            arrival,
            gpu_demand: demand,
            iterations: ideal_secs.max(1.0) as u64,
            base_iter_time: 1.0,
        }
    }

    fn flat_profile(n: usize) -> VariabilityProfile {
        VariabilityProfile::from_raw(vec![vec![1.0; n]; 3])
    }

    fn run_simple(
        jobs: Vec<JobSpec>,
        nodes: usize,
        sticky: bool,
        l_across: f64,
    ) -> Result<SimResult, SimError> {
        let topo = ClusterTopology::new(nodes, 4);
        Scenario::new(Trace::new("test", jobs), topo)
            .profile(flat_profile(topo.total_gpus()))
            .locality(LocalityModel::uniform(l_across))
            .placement(PackedPlacement::deterministic())
            .config(if sticky {
                SimConfig::sticky()
            } else {
                SimConfig::default()
            })
            .run()
    }

    #[test]
    fn single_job_runs_to_completion() {
        let r = run_simple(vec![spec(0, 0.0, 1, 1000.0)], 1, false, 1.5).unwrap();
        assert_eq!(r.records.len(), 1);
        assert!((r.records[0].finish - 1000.0).abs() < 1.0);
        assert_eq!(r.records[0].wait_time(), 0.0);
    }

    #[test]
    fn job_arriving_mid_round_starts_next_round() {
        let r = run_simple(vec![spec(0, 450.0, 1, 100.0)], 1, false, 1.5).unwrap();
        // Rounds at 0,300,600: arrival 450 -> first start 600.
        assert_eq!(r.records[0].first_start, 600.0);
        assert!((r.records[0].finish - 700.0).abs() < 1.0);
    }

    #[test]
    fn contention_queues_second_job() {
        // Two 4-GPU jobs on one 4-GPU node: strictly serial.
        let r = run_simple(
            vec![spec(0, 0.0, 4, 600.0), spec(1, 0.0, 4, 600.0)],
            1,
            false,
            1.5,
        )
        .unwrap();
        let j0 = &r.records[0];
        let j1 = &r.records[1];
        assert!((j0.finish - 600.0).abs() < 1.0);
        // Job 1 starts at the first round boundary >= j0's finish.
        assert!(j1.first_start >= 600.0);
        assert!((j1.jct() - (j1.first_start - j1.arrival + 600.0)).abs() < 1.0);
    }

    #[test]
    fn spanning_job_pays_locality_penalty() {
        // 8-GPU job on 2 nodes of 4: penalty 2.0 doubles runtime.
        let r = run_simple(vec![spec(0, 0.0, 8, 600.0)], 2, false, 2.0).unwrap();
        assert!(
            (r.records[0].finish - 1200.0).abs() < 1.0,
            "{}",
            r.records[0].finish
        );
    }

    #[test]
    fn slow_gpu_slows_whole_job() {
        // 4-GPU job where one GPU has V = 2.0 (BSP straggler effect).
        let mut scores = vec![1.0; 4];
        scores[2] = 2.0;
        let r = Scenario::new(
            Trace::new("t", vec![spec(0, 0.0, 4, 600.0)]),
            ClusterTopology::new(1, 4),
        )
        .profile(VariabilityProfile::from_raw(vec![
            scores.clone(),
            scores.clone(),
            scores,
        ]))
        .locality(LocalityModel::uniform(1.5))
        .placement(PackedPlacement::deterministic())
        .run()
        .unwrap();
        assert!((r.records[0].finish - 1200.0).abs() < 1.0);
    }

    #[test]
    fn perturbed_truth_slows_execution_but_not_policy() {
        let profile = flat_profile(4);
        let truth = profile.perturbed(JobClass::A, &[GpuId(0), GpuId(1), GpuId(2), GpuId(3)], 2.0);
        let r = Scenario::new(
            Trace::new("t", vec![spec(0, 0.0, 1, 600.0)]),
            ClusterTopology::new(1, 4),
        )
        .profile(profile)
        .truth(truth)
        .locality(LocalityModel::uniform(1.5))
        .placement(PackedPlacement::deterministic())
        .run()
        .unwrap();
        assert!((r.records[0].finish - 1200.0).abs() < 1.0);
    }

    #[test]
    fn srtf_prefers_short_job() {
        // Long job arrives first; short job arrives during its run. Under
        // SRTF the short job preempts at the next round.
        let jobs = vec![spec(0, 0.0, 4, 3000.0), spec(1, 100.0, 4, 300.0)];
        let r = Scenario::new(Trace::new("t", jobs), ClusterTopology::new(1, 4))
            .profile(flat_profile(4))
            .locality(LocalityModel::uniform(1.5))
            .scheduler(Srtf)
            .placement(PackedPlacement::deterministic())
            .run()
            .unwrap();
        let short = &r.records[1];
        let long = &r.records[0];
        assert!(short.finish < long.finish);
        assert!(long.preemptions >= 1);
    }

    #[test]
    fn las_gives_new_jobs_priority() {
        let jobs = vec![spec(0, 0.0, 4, 10_000.0), spec(1, 600.0, 4, 600.0)];
        let r = Scenario::new(Trace::new("t", jobs), ClusterTopology::new(1, 4))
            .profile(flat_profile(4))
            .locality(LocalityModel::uniform(1.5))
            .scheduler(Las::default())
            .placement(PackedPlacement::deterministic())
            .run()
            .unwrap();
        // Job 0 accrues 4 GPU * 900s+ of service before job 1's first
        // round, exceeding the 3600 GPU-second threshold -> demoted.
        assert!(r.records[1].finish < r.records[0].finish);
    }

    #[test]
    fn sticky_jobs_never_migrate_while_running() {
        let jobs = vec![
            spec(0, 0.0, 2, 2000.0),
            spec(1, 0.0, 2, 2000.0),
            spec(2, 0.0, 2, 2000.0),
        ];
        let r = Scenario::new(Trace::new("t", jobs), ClusterTopology::new(2, 4))
            .profile(flat_profile(8))
            .locality(LocalityModel::uniform(1.5))
            .placement(PackedPlacement::deterministic())
            .config(SimConfig::sticky())
            .run()
            .unwrap();
        for rec in &r.records {
            assert_eq!(
                rec.migrations, 0,
                "{} migrated under sticky FIFO with no preemption",
                rec.id
            );
        }
        assert!(r.placement.contains("Sticky"));
    }

    #[test]
    fn all_schedulers_complete_a_mixed_trace() {
        let jobs: Vec<JobSpec> = (0..12)
            .map(|i| {
                spec(
                    i,
                    i as f64 * 200.0,
                    1 + (i as usize % 4),
                    500.0 + 100.0 * i as f64,
                )
            })
            .collect();
        for pick in 0..3 {
            let mut scenario =
                Scenario::new(Trace::new("t", jobs.clone()), ClusterTopology::new(2, 4))
                    .profile(flat_profile(8))
                    .locality(LocalityModel::uniform(1.5))
                    .placement(RandomPlacement::new(1));
            scenario = match pick {
                0 => scenario.scheduler(Fifo),
                1 => scenario.scheduler(Las::default()),
                _ => scenario.scheduler(Srtf),
            };
            let r = scenario.run().unwrap();
            assert_eq!(r.records.len(), 12, "scheduler pick {pick}");
            for rec in &r.records {
                assert!(rec.finish > rec.arrival);
                assert!(rec.first_start >= rec.arrival);
            }
        }
    }

    #[test]
    fn utilization_bounded_and_positive() {
        let r = run_simple(
            vec![spec(0, 0.0, 2, 900.0), spec(1, 0.0, 2, 900.0)],
            1,
            false,
            1.5,
        )
        .unwrap();
        let u = r.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn gpus_in_use_series_tracks_demand() {
        let r = run_simple(vec![spec(0, 0.0, 3, 500.0)], 1, false, 1.5).unwrap();
        assert_eq!(r.gpus_in_use.eval(10.0), 3.0);
        assert_eq!(r.gpus_in_use.eval(1e9), 0.0);
    }

    #[test]
    fn oversized_job_is_a_typed_error() {
        let err = run_simple(vec![spec(0, 0.0, 64, 100.0)], 1, false, 1.5).unwrap_err();
        assert_eq!(
            err,
            SimError::OversizedJob {
                job: JobId(0),
                demand: 64,
                total_gpus: 4
            }
        );
    }

    #[test]
    fn idle_gap_fast_forwards() {
        let r = run_simple(
            vec![spec(0, 0.0, 1, 100.0), spec(1, 100_000.0, 1, 100.0)],
            1,
            false,
            1.5,
        )
        .unwrap();
        // Without fast-forward this would need ~334 rounds; with it, far
        // fewer.
        assert!(r.rounds < 20, "rounds {}", r.rounds);
        assert!(r.records[1].first_start >= 100_000.0);
    }

    #[test]
    fn admission_policy_rejects_and_reports() {
        use crate::admission::RejectOversized;
        // One oversized job, one normal: the oversized one is rejected,
        // the normal one completes.
        let jobs = vec![spec(0, 0.0, 64, 100.0), spec(1, 0.0, 1, 100.0)];
        let r = Scenario::new(Trace::new("adm", jobs), ClusterTopology::new(1, 4))
            .profile(flat_profile(4))
            .locality(LocalityModel::uniform(1.5))
            .placement(PackedPlacement::deterministic())
            .admission(RejectOversized)
            .run()
            .unwrap();
        assert_eq!(r.rejected.len(), 1);
        assert_eq!(r.records.len(), 1);
        assert!((r.records[0].finish - 100.0).abs() < 1.0);
    }

    #[test]
    fn max_active_jobs_caps_queue() {
        use crate::admission::MaxActiveJobs;
        let jobs: Vec<JobSpec> = (0..6).map(|i| spec(i, 0.0, 4, 900.0)).collect();
        let r = Scenario::new(Trace::new("cap", jobs), ClusterTopology::new(1, 4))
            .profile(flat_profile(4))
            .locality(LocalityModel::uniform(1.5))
            .placement(PackedPlacement::deterministic())
            .admission(MaxActiveJobs { limit: 2 })
            .run()
            .unwrap();
        // First two admitted; the rest arrive while both are active.
        assert_eq!(r.rejected.len(), 4);
        assert_eq!(r.records.len(), 2);
    }

    #[test]
    fn deterministic_end_to_end() {
        let jobs: Vec<JobSpec> = (0..8)
            .map(|i| spec(i, i as f64 * 100.0, 1 + (i as usize % 3), 700.0))
            .collect();
        let run = || {
            Scenario::new(Trace::new("t", jobs.clone()), ClusterTopology::new(2, 4))
                .profile(flat_profile(8))
                .locality(LocalityModel::uniform(1.5))
                .placement(RandomPlacement::new(7))
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
    }
}
