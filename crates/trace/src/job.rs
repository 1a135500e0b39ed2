//! Job specifications and traces.

use pal_cluster::JobClass;
use pal_gpumodel::Workload;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense job identifier within one trace (arrival order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u32);

impl JobId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// One ML training job as submitted to the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Identifier (arrival order within the trace).
    pub id: JobId,
    /// The model being trained.
    pub model: Workload,
    /// Variability class of the model (ground truth; the classifier of the
    /// `pal` crate recovers this from utilization features).
    pub class: JobClass,
    /// Submission time, seconds from trace start.
    pub arrival: f64,
    /// Number of GPUs requested (fixed for the job's lifetime — these are
    /// rigid jobs, like Tiresias').
    pub gpu_demand: usize,
    /// Training iterations to run.
    pub iterations: u64,
    /// Iteration time on a median GPU with a fully packed allocation,
    /// seconds.
    pub base_iter_time: f64,
}

impl JobSpec {
    /// Ideal runtime (no variability, no locality penalty, no queueing),
    /// seconds.
    pub fn ideal_runtime(&self) -> f64 {
        self.iterations as f64 * self.base_iter_time
    }

    /// GPU-seconds of ideal service this job demands.
    pub fn ideal_gpu_service(&self) -> f64 {
        self.ideal_runtime() * self.gpu_demand as f64
    }

    /// Validate internal consistency; used by generators and tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.gpu_demand == 0 {
            return Err(format!("{}: zero GPU demand", self.id));
        }
        if self.iterations == 0 {
            return Err(format!("{}: zero iterations", self.id));
        }
        if !(self.base_iter_time > 0.0 && self.base_iter_time.is_finite()) {
            return Err(format!(
                "{}: non-positive or non-finite iteration time {}",
                self.id, self.base_iter_time
            ));
        }
        if !(self.arrival >= 0.0 && self.arrival.is_finite()) {
            return Err(format!(
                "{}: negative or non-finite arrival {}",
                self.id, self.arrival
            ));
        }
        Ok(())
    }
}

/// A full trace: jobs sorted by arrival time.
///
/// A trace is immutable once built — the simulator copies per-job *run
/// state* out of it, never mutates it — so sweeps running many scenarios
/// over one workload should share it via `Arc<Trace>` (every
/// `pal_sim::Scenario` input setter accepts `impl Into<Arc<T>>`) rather
/// than deep-cloning the job list per run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Human-readable trace name (e.g. `sia-philly-3`).
    pub name: String,
    /// Jobs in arrival order.
    pub jobs: Vec<JobSpec>,
}

impl Trace {
    /// Build a trace, sorting by arrival and re-assigning dense ids in
    /// arrival order. Panics if any job fails validation.
    pub fn new(name: impl Into<String>, mut jobs: Vec<JobSpec>) -> Self {
        jobs.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).expect("NaN arrival"));
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = JobId(i as u32);
            if let Err(e) = j.validate() {
                panic!("invalid job in trace: {e}");
            }
        }
        Trace {
            name: name.into(),
            jobs,
        }
    }

    /// Build a trace from a stream of jobs already in arrival order,
    /// without the sort (and its scratch) [`Trace::new`] performs: jobs
    /// are validated and densely re-numbered as they are drained, so
    /// peak memory is the output vector itself plus O(1) per job — the
    /// shape that matters when generators stream 100k-job synthetic
    /// traces straight into a trace (see
    /// [`SynergyConfig::stream`](crate::SynergyConfig::stream)). Panics
    /// if a job fails validation or arrives before its predecessor.
    pub fn from_sorted_stream(
        name: impl Into<String>,
        jobs: impl IntoIterator<Item = JobSpec>,
    ) -> Self {
        let iter = jobs.into_iter();
        let mut out: Vec<JobSpec> = Vec::with_capacity(iter.size_hint().0);
        let mut last_arrival = f64::NEG_INFINITY;
        for (i, mut j) in iter.enumerate() {
            j.id = JobId(i as u32);
            if let Err(e) = j.validate() {
                panic!("invalid job in trace: {e}");
            }
            assert!(
                j.arrival >= last_arrival,
                "{}: arrival {} out of order (previous {})",
                j.id,
                j.arrival,
                last_arrival
            );
            last_arrival = j.arrival;
            out.push(j);
        }
        Trace {
            name: name.into(),
            jobs: out,
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the trace has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Fraction of single-GPU jobs.
    pub fn single_gpu_fraction(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().filter(|j| j.gpu_demand == 1).count() as f64 / self.jobs.len() as f64
    }

    /// Largest GPU demand in the trace.
    pub fn max_gpu_demand(&self) -> usize {
        self.jobs.iter().map(|j| j.gpu_demand).max().unwrap_or(0)
    }

    /// Total ideal GPU-seconds of service across all jobs (used to estimate
    /// offered load against cluster capacity).
    pub fn total_ideal_gpu_service(&self) -> f64 {
        self.jobs.iter().map(|j| j.ideal_gpu_service()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u32, arrival: f64, demand: usize) -> JobSpec {
        JobSpec {
            id: JobId(id),
            model: Workload::ResNet50,
            class: JobClass::A,
            arrival,
            gpu_demand: demand,
            iterations: 100,
            base_iter_time: 0.5,
        }
    }

    #[test]
    fn ideal_runtime_and_service() {
        let j = job(0, 0.0, 4);
        assert_eq!(j.ideal_runtime(), 50.0);
        assert_eq!(j.ideal_gpu_service(), 200.0);
    }

    #[test]
    fn trace_sorts_and_renumbers() {
        let t = Trace::new("t", vec![job(5, 10.0, 1), job(9, 5.0, 2)]);
        assert_eq!(t.jobs[0].arrival, 5.0);
        assert_eq!(t.jobs[0].id, JobId(0));
        assert_eq!(t.jobs[1].id, JobId(1));
    }

    #[test]
    fn single_gpu_fraction_counts() {
        let t = Trace::new("t", vec![job(0, 0.0, 1), job(1, 1.0, 1), job(2, 2.0, 4)]);
        assert!((t.single_gpu_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.max_gpu_demand(), 4);
    }

    #[test]
    #[should_panic(expected = "zero GPU demand")]
    fn invalid_job_panics() {
        Trace::new("t", vec![job(0, 0.0, 0)]);
    }

    #[test]
    fn validate_catches_all_fields() {
        let mut j = job(0, 0.0, 1);
        j.iterations = 0;
        assert!(j.validate().is_err());
        let mut j = job(0, 0.0, 1);
        j.base_iter_time = 0.0;
        assert!(j.validate().is_err());
        let mut j = job(0, 0.0, 1);
        j.arrival = -1.0;
        assert!(j.validate().is_err());
        assert!(job(0, 0.0, 1).validate().is_ok());
    }

    #[test]
    fn from_sorted_stream_matches_new() {
        let jobs = vec![job(7, 1.0, 1), job(3, 2.0, 2), job(9, 2.0, 4)];
        let streamed = Trace::from_sorted_stream("t", jobs.clone());
        assert_eq!(streamed, Trace::new("t", jobs));
        assert_eq!(streamed.jobs[2].id, JobId(2));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn from_sorted_stream_rejects_unsorted() {
        Trace::from_sorted_stream("t", vec![job(0, 5.0, 1), job(1, 4.0, 1)]);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("t", vec![]);
        assert!(t.is_empty());
        assert_eq!(t.max_gpu_demand(), 0);
        assert_eq!(t.single_gpu_fraction(), 0.0);
    }
}
