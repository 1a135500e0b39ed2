//! Simulation outputs: per-job records and aggregate metrics (JCT,
//! makespan, utilization, wait times, GPUs-in-use series).

use crate::serving::ServingMetrics;
use pal_cluster::JobClass;
use pal_stats::{EmpiricalCdf, StepSeries};
use pal_trace::JobId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Outcome of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job identity (trace order).
    pub id: JobId,
    /// Model name.
    pub model: String,
    /// Variability class.
    pub class: JobClass,
    /// GPUs requested.
    pub gpu_demand: usize,
    /// Submission time, seconds.
    pub arrival: f64,
    /// First time the job ran, seconds.
    pub first_start: f64,
    /// Completion time, seconds.
    pub finish: f64,
    /// Allocation changes over the job's lifetime.
    pub migrations: u32,
    /// Times the job was preempted after having run.
    pub preemptions: u32,
}

impl JobRecord {
    /// Job completion time (finish − arrival), the paper's primary metric.
    pub fn jct(&self) -> f64 {
        self.finish - self.arrival
    }

    /// Queueing delay before first execution (Figures 12 & 19 plot this).
    pub fn wait_time(&self) -> f64 {
        self.first_start - self.arrival
    }
}

/// Full result of one simulation run.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Trace name.
    pub trace: String,
    /// Scheduling policy name.
    pub scheduler: String,
    /// Placement policy name (including sticky-ness, e.g. `Packed-Sticky`).
    pub placement: String,
    /// One record per *admitted* job, in job-id order.
    pub records: Vec<JobRecord>,
    /// Jobs turned away by the admission policy (empty under the default
    /// `AdmitAll`).
    pub rejected: Vec<JobId>,
    /// GPUs in use over time (Figure 15).
    pub gpus_in_use: StepSeries,
    /// Total busy GPU-seconds delivered.
    pub busy_gpu_seconds: f64,
    /// Total *ideal* GPU-seconds the trace demanded (policy-independent;
    /// the useful-work numerator for effective utilization).
    pub ideal_gpu_seconds: f64,
    /// Cluster GPU count.
    pub total_gpus: usize,
    /// Simulated scheduling rounds elapsed, as fixed-round stepping counts
    /// them (event-driven skipping replays this counter bit-identically).
    pub rounds: usize,
    /// Rounds the engine actually executed (decision rounds plus idle
    /// fast-forwards). Equals `rounds` with event-driven skipping off;
    /// far lower on sticky runs with it on. Excluded from
    /// [`same_outcome`](SimResult::same_outcome), which compares what a
    /// run *produced*, not how it was driven.
    pub executed_rounds: usize,
    /// Wall-clock seconds the placement policy spent per executed round
    /// (Figure 18; skipped rounds invoke no placement code and add no
    /// entry).
    pub placement_compute_times: Vec<f64>,
    /// Per-deployment serving outcomes (SLO attainment, goodput, latency
    /// percentiles) — empty for training-only runs.
    pub serving: Vec<ServingMetrics>,
}

// `Debug` lists the fields in declaration order but omits an empty
// `serving`, keeping training-only output free of serving noise.
// `debug_mentions_serving_only_when_present` checks that every
// serialized field appears, so a new field cannot go missing here.
impl fmt::Debug for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("SimResult");
        d.field("trace", &self.trace)
            .field("scheduler", &self.scheduler)
            .field("placement", &self.placement)
            .field("records", &self.records)
            .field("rejected", &self.rejected)
            .field("gpus_in_use", &self.gpus_in_use)
            .field("busy_gpu_seconds", &self.busy_gpu_seconds)
            .field("ideal_gpu_seconds", &self.ideal_gpu_seconds)
            .field("total_gpus", &self.total_gpus)
            .field("rounds", &self.rounds)
            .field("executed_rounds", &self.executed_rounds)
            .field("placement_compute_times", &self.placement_compute_times);
        if !self.serving.is_empty() {
            d.field("serving", &self.serving);
        }
        d.finish()
    }
}

impl SimResult {
    /// Makespan: completion time of the last job (trace starts at 0).
    pub fn makespan(&self) -> f64 {
        self.records.iter().map(|r| r.finish).fold(0.0, f64::max)
    }

    /// All JCTs in job order.
    pub fn jcts(&self) -> Vec<f64> {
        self.records.iter().map(JobRecord::jct).collect()
    }

    /// Mean JCT, seconds.
    pub fn avg_jct(&self) -> f64 {
        pal_stats::mean(&self.jcts()).expect("no jobs in result")
    }

    /// 99th-percentile JCT, seconds.
    pub fn p99_jct(&self) -> f64 {
        pal_stats::percentile(&self.jcts(), 99.0).expect("no jobs in result")
    }

    /// Mean JCT of the multi-GPU subset (the paper reports PAL's larger
    /// gains there), `None` if the trace has no multi-GPU jobs.
    pub fn avg_jct_multi_gpu(&self) -> Option<f64> {
        let jcts: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.gpu_demand > 1)
            .map(JobRecord::jct)
            .collect();
        pal_stats::mean(&jcts)
    }

    /// Mean JCT over a job-id window (Synergy steady-state measurement
    /// "job IDs 2000 to 3000"), `None` if the window is empty.
    pub fn avg_jct_window(&self, lo: usize, hi: usize) -> Option<f64> {
        let jcts: Vec<f64> = self
            .records
            .iter()
            .filter(|r| (lo..hi).contains(&r.id.index()))
            .map(JobRecord::jct)
            .collect();
        pal_stats::mean(&jcts)
    }

    /// Cluster occupancy: GPU-seconds *held* by jobs over available
    /// GPU-seconds across the makespan. Note that a policy that slows jobs
    /// down inflates this number — they hold GPUs longer for the same work.
    pub fn occupancy(&self) -> f64 {
        let span = self.makespan();
        if span <= 0.0 {
            return 0.0;
        }
        self.busy_gpu_seconds / (self.total_gpus as f64 * span)
    }

    /// Effective cluster utilization: *useful* (ideal-equivalent)
    /// GPU-seconds delivered per available GPU-second over the makespan.
    /// Variability and locality slowdowns waste capacity, so better
    /// placement raises this — the sense in which the paper reports
    /// utilization improvements.
    pub fn utilization(&self) -> f64 {
        let span = self.makespan();
        if span <= 0.0 {
            return 0.0;
        }
        self.ideal_gpu_seconds / (self.total_gpus as f64 * span)
    }

    /// Empirical CDF of JCTs (Figure 9).
    pub fn jct_cdf(&self) -> EmpiricalCdf {
        EmpiricalCdf::new(&self.jcts()).expect("no jobs in result")
    }

    /// `(job id, wait time)` pairs in job order (Figures 12 & 19).
    pub fn wait_times(&self) -> Vec<(usize, f64)> {
        self.records
            .iter()
            .map(|r| (r.id.index(), r.wait_time()))
            .collect()
    }

    /// Total migrations across all jobs.
    pub fn total_migrations(&self) -> u64 {
        self.records.iter().map(|r| r.migrations as u64).sum()
    }

    /// Whether two results describe the same simulated outcome: every
    /// field equal except `placement_compute_times`, which is wall-clock
    /// measurement noise rather than simulation state. This is the
    /// equality [`crate::Campaign`]'s determinism contract is stated in.
    pub fn same_outcome(&self, other: &SimResult) -> bool {
        self.trace == other.trace
            && self.scheduler == other.scheduler
            && self.placement == other.placement
            && self.records == other.records
            && self.rejected == other.rejected
            && self.gpus_in_use == other.gpus_in_use
            && self.busy_gpu_seconds == other.busy_gpu_seconds
            && self.ideal_gpu_seconds == other.ideal_gpu_seconds
            && self.total_gpus == other.total_gpus
            && self.rounds == other.rounds
            && self.serving == other.serving
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn record(id: u32, arrival: f64, start: f64, finish: f64, demand: usize) -> JobRecord {
        JobRecord {
            id: JobId(id),
            model: "resnet50".into(),
            class: JobClass::A,
            gpu_demand: demand,
            arrival,
            first_start: start,
            finish,
            migrations: 0,
            preemptions: 0,
        }
    }

    fn result(records: Vec<JobRecord>) -> SimResult {
        SimResult {
            trace: "t".into(),
            scheduler: "FIFO".into(),
            placement: "Packed-Sticky".into(),
            records,
            rejected: vec![],
            gpus_in_use: StepSeries::new(0.0),
            executed_rounds: 1,
            busy_gpu_seconds: 100.0,
            ideal_gpu_seconds: 80.0,
            total_gpus: 4,
            rounds: 1,
            placement_compute_times: vec![],
            serving: vec![],
        }
    }

    #[test]
    fn jct_and_wait() {
        let r = record(0, 10.0, 40.0, 110.0, 1);
        assert_eq!(r.jct(), 100.0);
        assert_eq!(r.wait_time(), 30.0);
    }

    #[test]
    fn aggregates() {
        let res = result(vec![
            record(0, 0.0, 0.0, 100.0, 1),
            record(1, 0.0, 0.0, 300.0, 2),
        ]);
        assert_eq!(res.avg_jct(), 200.0);
        assert_eq!(res.makespan(), 300.0);
        assert_eq!(res.avg_jct_multi_gpu(), Some(300.0));
        // occupancy = 100 busy / (4 gpus * 300 s); utilization uses ideal.
        assert!((res.occupancy() - 100.0 / 1200.0).abs() < 1e-12);
        assert!((res.utilization() - 80.0 / 1200.0).abs() < 1e-12);
    }

    #[test]
    fn window_average() {
        let res = result(vec![
            record(0, 0.0, 0.0, 10.0, 1),
            record(1, 0.0, 0.0, 20.0, 1),
            record(2, 0.0, 0.0, 40.0, 1),
        ]);
        assert_eq!(res.avg_jct_window(1, 3), Some(30.0));
        assert_eq!(res.avg_jct_window(5, 9), None);
    }

    #[test]
    fn no_multi_gpu_is_none() {
        let res = result(vec![record(0, 0.0, 0.0, 10.0, 1)]);
        assert_eq!(res.avg_jct_multi_gpu(), None);
    }

    #[test]
    fn debug_mentions_serving_only_when_present() {
        let res = result(vec![record(0, 0.0, 0.0, 10.0, 1)]);
        let d = format!("{res:?}");
        assert!(!d.contains("serving"), "{d}");

        let mut with = result(vec![record(0, 0.0, 0.0, 10.0, 1)]);
        with.serving.push(ServingMetrics {
            workload: "chat".into(),
            replicas: 1,
            gpus: 1,
            requests: 10,
            batches: 5,
            slo_attained: 9,
            latency_mean: 0.1,
            latency_p50: 0.1,
            latency_p95: 0.2,
            latency_p99: 0.3,
            latency_max: 0.4,
            first_arrival: 0.0,
            last_finish: 2.0,
        });
        let d = format!("{with:?}");
        assert!(d.contains("serving") && d.contains("chat"), "{d}");
        assert!(!res.same_outcome(&with));

        // With serving present, every field the serializer enumerates is
        // rendered — Debug cannot drift from the spill/export format.
        let Value::Map(fields) = with.to_value() else {
            panic!("SimResult serializes as a map");
        };
        for (key, _) in &fields {
            assert!(d.contains(&format!("{key}:")), "missing {key} in {d}");
        }
    }

    #[test]
    fn cdf_has_all_jobs() {
        let res = result(vec![
            record(0, 0.0, 0.0, 10.0, 1),
            record(1, 0.0, 0.0, 20.0, 1),
        ]);
        assert_eq!(res.jct_cdf().len(), 2);
    }
}
