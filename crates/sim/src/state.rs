//! Versioned, serializable simulation state — the export/import format
//! behind pause-resume and fork-at-T what-if replay.
//!
//! [`SimState`] captures everything a paused [`Simulation`] needs to
//! resume bit-identically: the job table, cluster occupancy, clocks,
//! accumulated telemetry, the placement policy's opaque run state
//! ([`PlacementPolicy::export_state`]), and every serving deployment's
//! queue/counters/replica times. Per-round scratch buffers are
//! deliberately absent — they are rebuilt from the persistent state at
//! the next executed round, so serializing them would only version-lock
//! internals.
//!
//! ## Versioning
//!
//! Every exported state is stamped with [`STATE_FORMAT_VERSION`].
//! [`Simulation::import_state`] (and the file readers in `pal-config`)
//! refuse states from a different format version rather than guessing:
//! the format changes exactly when the engine's persistent state grows a
//! field, and silently dropping or defaulting one would break the
//! resumed-equals-uninterrupted guarantee the proptests pin.
//!
//! [`Simulation`]: crate::Simulation
//! [`Simulation::import_state`]: crate::Simulation::import_state
//! [`PlacementPolicy::export_state`]: crate::PlacementPolicy::export_state

use crate::job_state::{ActiveJob, JobPhase};
use pal_cluster::ClusterState;
use pal_stats::StepSeries;
use pal_trace::ServingRequest;
use serde::{Deserialize, Serialize, Value};

/// Format version written into every [`SimState`]. Bump whenever a field
/// is added, removed, or reinterpreted; importers reject other versions.
pub const STATE_FORMAT_VERSION: u32 = 1;

/// The complete persistent state of one simulation run at a round
/// boundary. Produced by [`Simulation::export_state`], consumed by
/// [`Simulation::import_state`]; serialize it with the canonical JSON
/// writer in `pal-config` for on-disk round-trips.
///
/// [`Simulation::export_state`]: crate::Simulation::export_state
/// [`Simulation::import_state`]: crate::Simulation::import_state
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimState {
    /// Format version ([`STATE_FORMAT_VERSION`] at export time).
    pub version: u32,
    /// Name of the trace the run was started from (import sanity check).
    pub trace: String,
    /// Scheduling policy name at export (informational — schedulers are
    /// stateless, and what-if branches may legitimately swap them).
    pub scheduler: String,
    /// Placement policy name at export. Checked on import only when
    /// [`placement_state`](Self::placement_state) is present: restoring
    /// one policy's opaque state into another is the real hazard.
    pub placement: String,
    /// Sticky-placement flag at export (informational, like `scheduler`).
    pub sticky: bool,
    /// Simulated seconds at the start of the next round.
    pub time: f64,
    /// Simulated scheduling rounds elapsed.
    pub rounds: usize,
    /// Rounds the engine actually executed.
    pub executed_rounds: usize,
    /// Jobs out of the system (completed or rejected).
    pub finished: usize,
    /// Jobs processed by admission so far (arrival order).
    pub next_admit: usize,
    /// Indices of admitted, unfinished jobs, ascending.
    pub active_queue: Vec<usize>,
    /// Sum of GPU demands over the active queue.
    pub active_demand: usize,
    /// Runtime state of every job, in trace order.
    pub jobs: Vec<ActiveJob>,
    /// Whether admission rejected each job (parallel to `jobs`).
    pub rejected: Vec<bool>,
    /// GPU occupancy, including GPUs held by serving replicas.
    pub cluster: ClusterState,
    /// GPUs-in-use series accumulated so far.
    pub gpus_in_use: StepSeries,
    /// Busy GPU-seconds accumulated so far.
    pub busy_gpu_seconds: f64,
    /// Per-round placement compute times accumulated so far.
    pub placement_compute_times: Vec<f64>,
    /// The placement policy's opaque run state — `None` for stateless
    /// policies (and cleared by what-if forks, whose branch policies
    /// start fresh by design).
    pub placement_state: Option<Value>,
    /// Per-deployment serving state, in deployment order; empty for
    /// training-only runs.
    pub serving: Vec<ServingState>,
}

impl SimState {
    /// Check the state's internal consistency — what an importer must
    /// establish before the engine indexes with it. A state that fails
    /// would otherwise panic mid-run or never finish. Cross-checks the
    /// counters, the queue and the cluster against the job table in one
    /// O(jobs + GPUs) pass; expects the cluster's topology to be the
    /// importer's (checked first, so its sizes are trusted).
    pub(crate) fn validate(&self) -> Result<(), String> {
        let n = self.jobs.len();
        if self.rejected.len() != n {
            return Err(format!(
                "state has {} rejection flags for {n} jobs",
                self.rejected.len()
            ));
        }
        for (field, count) in [("next_admit", self.next_admit), ("finished", self.finished)] {
            if count > n {
                return Err(format!("{field} {count} exceeds {n} jobs"));
            }
        }
        if self.rounds < self.executed_rounds {
            return Err(format!(
                "rounds {} is below executed_rounds {}",
                self.rounds, self.executed_rounds
            ));
        }
        let mut queued = vec![false; n];
        for &ji in &self.active_queue {
            if ji >= n || std::mem::replace(&mut queued[ji], true) {
                return Err(format!(
                    "active_queue index {ji} is out of range or repeated"
                ));
            }
        }
        self.cluster.check_consistent()?;

        // One pass over the jobs: each job's phase against admission, the
        // queue and the cluster, tallying what the counters must equal.
        let total_gpus = self.cluster.topology().total_gpus();
        let mut held = vec![false; total_gpus];
        let (mut held_gpus, mut queued_demand, mut completed, mut rejected) =
            (0usize, 0usize, 0, 0);
        for (ji, job) in self.jobs.iter().enumerate() {
            let id = job.spec.id.0;
            for (field, v) in [
                ("remaining_work", job.remaining_work),
                ("attained_service", job.attained_service),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("job {id} has {field} {v}"));
                }
            }
            let processed = ji < self.next_admit;
            if self.rejected[ji] {
                rejected += 1;
                if !processed {
                    return Err(format!(
                        "job {id} is rejected but admission has not reached it"
                    ));
                }
            }
            let admitted = processed && !self.rejected[ji];
            match &job.phase {
                JobPhase::Waiting => {}
                _ if !admitted => {
                    return Err(format!("job {id} has started but was never admitted"));
                }
                JobPhase::Finished { .. } => completed += 1,
                JobPhase::Running { gpus } => {
                    if gpus.len() != job.spec.gpu_demand {
                        return Err(format!(
                            "job {id} runs on {} GPUs but demands {}",
                            gpus.len(),
                            job.spec.gpu_demand
                        ));
                    }
                    for &g in gpus {
                        if g.index() >= total_gpus || std::mem::replace(&mut held[g.index()], true)
                        {
                            return Err(format!(
                                "job {id} runs on {g}, which is out of range or held twice"
                            ));
                        }
                        if self.cluster.is_free(g) {
                            return Err(format!(
                                "job {id} runs on {g}, which the cluster marks free"
                            ));
                        }
                    }
                    held_gpus += gpus.len();
                }
            }
            let unfinished = admitted && job.is_active();
            if queued[ji] != unfinished {
                return Err(format!(
                    "active_queue {} job {id}, which is {}",
                    if queued[ji] { "holds" } else { "lacks" },
                    if unfinished {
                        "admitted and unfinished"
                    } else {
                        "not admitted or finished"
                    }
                ));
            }
            if unfinished {
                // Saturating: demands come from the file and may be huge.
                queued_demand = queued_demand.saturating_add(job.spec.gpu_demand);
            }
        }
        if self.active_demand != queued_demand {
            return Err(format!(
                "active_demand {} is not the queue's total demand {queued_demand}",
                self.active_demand
            ));
        }
        if self.finished != completed + rejected {
            return Err(format!(
                "finished {} is not {completed} completed plus {rejected} rejected jobs",
                self.finished
            ));
        }
        // Serving replicas hold GPUs no job records; only their count is
        // in the state.
        let serving_gpus = self
            .serving
            .iter()
            .fold(0, |sum: usize, d| sum.saturating_add(d.gpus));
        if self.cluster.busy_count() != held_gpus.saturating_add(serving_gpus) {
            return Err(format!(
                "cluster has {} GPUs in use, but running jobs hold {held_gpus} and serving \
                 {serving_gpus}",
                self.cluster.busy_count()
            ));
        }
        Ok(())
    }
}

/// Persistent state of one serving deployment: stream position, queue,
/// counters, latency log, and per-replica availability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingState {
    /// Workload name (matched against the deployment on import).
    pub workload: String,
    /// GPUs the deployment holds.
    pub gpus: usize,
    /// Requests that have entered the queue so far. Together with
    /// `next`, this pins the request stream's position: the stream has
    /// been pulled `arrived + next.is_some()` times, which import
    /// replays against a fresh stream (same workload, same seed) to
    /// land on the identical continuation.
    pub arrived: u64,
    /// The one-slot stream lookahead (pulled but not yet queued).
    pub next: Option<ServingRequest>,
    /// Requests waiting for a batch, FIFO order.
    pub queue: Vec<ServingRequest>,
    /// Requests served so far.
    pub completed: u64,
    /// Batches executed so far.
    pub batches: u64,
    /// Requests that met their deadline so far.
    pub slo_met: u64,
    /// Latency of every completed request, completion order.
    pub latencies: Vec<f64>,
    /// Arrival time of the first request (0 until one arrives).
    pub first_arrival: f64,
    /// Completion time of the last batch so far.
    pub last_finish: f64,
    /// Per-replica `(slowdown, free_at)`, replica order.
    pub replicas: Vec<ReplicaState>,
}

/// Persistent state of one serving replica.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicaState {
    /// Service slowdown of the replica's GPUs (Equation 1).
    pub slowdown: f64,
    /// Time the replica frees up.
    pub free_at: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_state_round_trips_through_serde() {
        let r = ReplicaState {
            slowdown: 1.25,
            free_at: 301.5,
        };
        let v = r.to_value();
        assert_eq!(ReplicaState::from_value(&v).unwrap(), r);
    }
}
