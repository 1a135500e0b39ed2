//! Pluggable run observability: the [`MetricsSink`] trait and the event
//! types the engine emits through it.
//!
//! A custom sink overrides only the events it consumes:
//!
//! ```
//! use pal_cluster::{ClusterTopology, JobClass};
//! use pal_gpumodel::Workload;
//! use pal_sim::{JobEvent, JobEventKind, MetricsSink, Scenario};
//! use pal_trace::{JobId, JobSpec, Trace};
//! use std::sync::{Arc, Mutex};
//!
//! /// Streams job completion times into shared state as they happen.
//! struct FinishLog {
//!     finishes: Arc<Mutex<Vec<(JobId, f64)>>>,
//! }
//!
//! impl MetricsSink for FinishLog {
//!     fn on_job(&mut self, ev: &JobEvent) {
//!         if ev.kind == JobEventKind::Finished {
//!             self.finishes.lock().unwrap().push((ev.job, ev.t));
//!         }
//!     }
//! }
//!
//! let jobs = (0..4)
//!     .map(|i| JobSpec {
//!         id: JobId(i),
//!         model: Workload::ResNet50,
//!         class: JobClass::A,
//!         arrival: i as f64 * 100.0,
//!         gpu_demand: 1 + i as usize % 2,
//!         iterations: 600,
//!         base_iter_time: 1.0,
//!     })
//!     .collect();
//! let finishes = Arc::new(Mutex::new(Vec::new()));
//! let mut sim = Scenario::new(Trace::new("doc", jobs), ClusterTopology::new(2, 4))
//!     .start()
//!     .unwrap();
//! sim.attach_sink(Box::new(FinishLog {
//!     finishes: Arc::clone(&finishes),
//! }));
//! let result = sim.run_to_completion().unwrap();
//! // The sink saw every completion the result records, as it happened.
//! assert_eq!(finishes.lock().unwrap().len(), result.records.len());
//! ```

use pal_trace::JobId;
use serde::{Deserialize, Serialize};

/// What happened to a job in a lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobEventKind {
    /// Admission control accepted the job into the active queue.
    Admitted,
    /// Admission control turned the job away.
    Rejected,
    /// The job received its first GPU allocation.
    Started,
    /// The job fell out of the schedulable prefix and lost its GPUs.
    Preempted,
    /// A re-placed job came back on a different GPU set.
    Migrated,
    /// The job completed its work.
    Finished,
}

/// One job-lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobEvent {
    /// Simulated time of the transition, seconds. For
    /// [`Finished`](JobEventKind::Finished) this is the exact (possibly
    /// mid-round) completion time; other transitions happen at round
    /// boundaries.
    pub t: f64,
    /// The job.
    pub job: JobId,
    /// What happened.
    pub kind: JobEventKind,
}

/// One executed engine round (decision round or idle fast-forward),
/// delivered after the round's effects are applied.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundEvent {
    /// Simulated rounds elapsed, as fixed-round stepping counts them
    /// (includes rounds the event-driven engine replayed inside this
    /// step).
    pub round: usize,
    /// Rounds actually executed — the count of these events so far.
    pub executed_rounds: usize,
    /// Simulated clock after the round, seconds.
    pub t: f64,
    /// Jobs currently holding GPUs.
    pub running: usize,
    /// Admitted jobs waiting for GPUs.
    pub waiting: usize,
    /// Jobs out of the system (completed or rejected).
    pub finished: usize,
}

/// One executed serving batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingBatchEvent {
    /// Workload name of the deployment that ran the batch.
    pub workload: String,
    /// Batch start time, seconds.
    pub start: f64,
    /// Batch completion time, seconds.
    pub finish: f64,
    /// Requests in the batch.
    pub batch_size: usize,
    /// Requests in the batch that met their deadline.
    pub slo_met: usize,
    /// Requests left waiting in the deployment's queue after the batch
    /// was formed.
    pub queued: usize,
}

/// A consumer of engine events.
///
/// The engine's own accumulators (`engine::telemetry::Telemetry`, which
/// assembles [`SimResult`](crate::SimResult)) implement this same trait —
/// result assembly is just the built-in sink. An *additional* sink can be
/// attached to a [`Simulation`](crate::Simulation) with
/// [`attach_sink`](crate::Simulation::attach_sink) (or per campaign cell
/// with [`Campaign::metrics_sinks`](crate::Campaign::metrics_sinks)) to
/// stream
/// round-boundary, job-lifecycle, and serving-batch events out of a live
/// run — to JSONL/CSV files, a progress display, or anything else —
/// without touching the engine.
///
/// Attaching no sink costs nothing: the hot loop's only addition is one
/// branch on an `Option` that is `None` (the `observer_overhead` bench
/// gates this at ≤1.05× the pre-refactor throughput). Event delivery
/// never affects simulation state; runs are bit-identical with any sink
/// attached, including [`NullSink`].
///
/// ## Event cadence
///
/// Accumulation events ([`on_gpu_usage`](MetricsSink::on_gpu_usage),
/// [`on_busy_gpu_seconds`](MetricsSink::on_busy_gpu_seconds)) fire for
/// every simulated round, including rounds the event-driven engine
/// fast-replays. [`on_round`](MetricsSink::on_round) fires once per
/// *executed* round (decision rounds and idle fast-forwards) — the same
/// granularity as [`Simulation::step`](crate::Simulation::step) — so a
/// skipped span delivers its accumulation bit-identically but only one
/// round event at the hop's end.
///
/// Every method defaults to a no-op, so implementations override only the
/// events they consume. Sinks observe; they cannot perturb the run —
/// outcomes are bit-identical whatever the sink does.
pub trait MetricsSink {
    /// The GPUs-in-use step series gained a point: `gpus` GPUs busy from
    /// time `t` on. Fires for executed *and* fast-replayed rounds, plus
    /// once per mid-round completion.
    fn on_gpu_usage(&mut self, t: f64, gpus: f64) {
        let _ = (t, gpus);
    }

    /// `gpu_seconds` of busy GPU time were delivered (one increment per
    /// running job per simulated round).
    fn on_busy_gpu_seconds(&mut self, gpu_seconds: f64) {
        let _ = gpu_seconds;
    }

    /// The placement policy spent `seconds` of wall-clock time this
    /// round (the Figure 18 series; one entry per executed decision
    /// round).
    fn on_placement_compute(&mut self, seconds: f64) {
        let _ = seconds;
    }

    /// A job changed lifecycle state.
    fn on_job(&mut self, event: &JobEvent) {
        let _ = event;
    }

    /// An engine round executed.
    fn on_round(&mut self, event: &RoundEvent) {
        let _ = event;
    }

    /// A serving deployment executed a batch.
    fn on_serving_batch(&mut self, event: &ServingBatchEvent) {
        let _ = event;
    }
}

/// A sink that discards every event — the explicit way to say "observe
/// nothing". Behaviorally identical to attaching no sink; the
/// `observer_overhead` bench pins the cost of the difference (one dead
/// branch per event site) at ≤1.05×.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl MetricsSink for NullSink {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_accepts_every_event() {
        let mut s = NullSink;
        s.on_gpu_usage(0.0, 4.0);
        s.on_busy_gpu_seconds(1200.0);
        s.on_placement_compute(1e-6);
        s.on_job(&JobEvent {
            t: 0.0,
            job: JobId(0),
            kind: JobEventKind::Admitted,
        });
        s.on_round(&RoundEvent {
            round: 1,
            executed_rounds: 1,
            t: 300.0,
            running: 1,
            waiting: 0,
            finished: 0,
        });
        s.on_serving_batch(&ServingBatchEvent {
            workload: "chat".into(),
            start: 0.0,
            finish: 0.1,
            batch_size: 4,
            slo_met: 4,
            queued: 0,
        });
    }

    #[test]
    fn events_round_trip_through_serde() {
        use serde::{Deserialize, Serialize};
        let ev = JobEvent {
            t: 12.5,
            job: JobId(3),
            kind: JobEventKind::Migrated,
        };
        assert_eq!(JobEvent::from_value(&ev.to_value()).unwrap(), ev);

        let ev = ServingBatchEvent {
            workload: "chat".into(),
            start: 1.0,
            finish: 2.0,
            batch_size: 3,
            slo_met: 2,
            queued: 7,
        };
        assert_eq!(ServingBatchEvent::from_value(&ev.to_value()).unwrap(), ev);
    }
}
