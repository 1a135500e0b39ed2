//! Versioned, serializable simulation state — the export/import format
//! behind pause-resume and fork-at-T what-if replay.

use crate::engine::EPS;
use crate::job_state::{ActiveJob, JobPhase};
use pal_cluster::ClusterState;
use pal_stats::StepSeries;
use pal_trace::JobSpec;
use serde::{Deserialize, Emitter, Serialize, Value};

/// Format version written into every [`SimState`]. Bump whenever a field
/// is added, removed, or reinterpreted; importers reject other versions.
pub const STATE_FORMAT_VERSION: u32 = 3;

/// The persistent state of one simulation run at a round boundary,
/// beyond what its scenario already holds. Produced by
/// [`Simulation::export_state`], consumed by
/// [`Simulation::import_state`]; serialize it with the canonical JSON
/// writer in `pal-config` for on-disk round-trips.
///
/// It captures what a paused [`Simulation`] needs, on top of
/// its own scenario, to resume bit-identically: the progress of every
/// admitted job, cluster occupancy, clocks, accumulated telemetry, the
/// placement policy's opaque run state
/// ([`PlacementPolicy::export_state`]), and every serving deployment's
/// stream position/counters/replica times. Per-round scratch buffers are
/// deliberately absent — they are rebuilt from the persistent state at
/// the next executed round, so serializing them would only version-lock
/// internals.
///
/// ## Layout (format v3)
///
/// A state saves what the run changed, not the workload:
///
/// - **No job specs.** The importer already holds the trace. The state
///   names it (`trace`), counts its jobs (`trace_jobs`) and carries an
///   FNV-1a digest of its specs (`trace_digest`); an importer whose trace
///   differs in any of these refuses the state before touching anything.
///   Every resumed job is the importer's own spec plus the saved
///   progress, so a state file cannot rewrite the workload.
/// - **Progress only for admitted jobs.** `jobs` holds one
///   [`JobProgress`] (phase, remaining work, attained service, first
///   start, migration and preemption counts) per job below `next_admit`,
///   in trace order. Admission has not reached the jobs at or past
///   `next_admit`, so they are still exactly `ActiveJob::new(spec)`, and
///   the importer resets them to that.
/// - **Rejections as indices.** `rejected` lists the rejected jobs'
///   indices, strictly ascending and below `next_admit`.
/// - **Serving positions as indices.** A deployment's requests are its
///   workload's, regenerated from the seed; its state holds only the
///   `completed` and `arrived` counts (the queue is the requests between
///   them), counters, latencies and replica times.
///
/// ## Versioning
///
/// Every exported state is stamped with [`STATE_FORMAT_VERSION`].
/// [`Simulation::import_state`] (and the file readers in `pal-config`)
/// refuse states from a different format version rather than guessing:
/// the format changes exactly when the engine's persistent state grows a
/// field, and silently dropping or defaulting one would break the
/// resumed-equals-uninterrupted guarantee the proptests pin. Version 1
/// stored every job's spec and runtime state, and version 2 every
/// serving deployment's queued requests and stream lookahead; this build
/// refuses both.
///
/// [`Simulation`]: crate::Simulation
/// [`PlacementPolicy::export_state`]: crate::PlacementPolicy::export_state
///
/// [`Simulation::export_state`]: crate::Simulation::export_state
/// [`Simulation::import_state`]: crate::Simulation::import_state
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimState {
    /// Format version ([`STATE_FORMAT_VERSION`] at export time).
    pub version: u32,
    /// Name of the trace the run was started from (import sanity check).
    pub trace: String,
    /// Number of jobs in that trace.
    pub trace_jobs: usize,
    /// FNV-1a digest of that trace's job specs: the importer rebuilds
    /// every job from its own trace, so the two must be the same trace.
    pub trace_digest: u64,
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
    /// Progress of the first `next_admit` jobs, in trace order. Later
    /// jobs have not been admitted and are fresh.
    pub jobs: Vec<JobProgress>,
    /// Indices of the jobs admission rejected, strictly ascending and
    /// all below `next_admit`.
    pub rejected: Vec<usize>,
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

/// The dynamic part of one job's runtime state: everything in
/// [`ActiveJob`] except the immutable [`JobSpec`], which the importer
/// takes from its own trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobProgress {
    /// Current phase.
    pub phase: JobPhase,
    /// Remaining ideal work, in median-GPU seconds.
    pub remaining_work: f64,
    /// Attained GPU service, GPU-seconds.
    pub attained_service: f64,
    /// First time the job ever ran, if it has.
    pub first_start: Option<f64>,
    /// Allocation changes while alive.
    pub migrations: u32,
    /// Rounds the job was preempted after having run.
    pub preemptions: u32,
}

impl From<&ActiveJob> for JobProgress {
    fn from(job: &ActiveJob) -> Self {
        JobProgress {
            phase: job.phase.clone(),
            remaining_work: job.remaining_work,
            attained_service: job.attained_service,
            first_start: job.first_start,
            migrations: job.migrations,
            preemptions: job.preemptions,
        }
    }
}

impl JobProgress {
    /// Overwrite `job`'s dynamic fields, keeping its spec.
    pub(crate) fn restore(&self, job: &mut ActiveJob) {
        job.phase = self.phase.clone();
        job.remaining_work = self.remaining_work;
        job.attained_service = self.attained_service;
        job.first_start = self.first_start;
        job.migrations = self.migrations;
        job.preemptions = self.preemptions;
    }
}

/// The FNV-1a 64 offset basis: the starting state of a standard digest.
pub const FNV1A_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Continue an FNV-1a 64 hash from state `h` over `bytes`. Start from
/// [`FNV1A_BASIS`] for the standard digest; the workspace's digests (cell
/// seeds, fork and trace digests, spill lines, PM-table fingerprints) all
/// run through this one loop.
pub fn fnv1a(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a digest of a trace's job specs, streamed through
/// [`Serialize::emit`] with [`FnvEmitter`]'s encoding.
pub(crate) fn trace_digest<'a>(specs: impl ExactSizeIterator<Item = &'a JobSpec>) -> u64 {
    let mut fnv = FnvEmitter::new();
    fnv.seq(specs.len());
    specs.for_each(|spec| spec.emit(&mut fnv));
    fnv.end();
    fnv.h
}

/// FNV-1a digest of a whole state, streamed through [`Serialize::emit`]
/// with the same encoding as the trace digest (no copy of the state and
/// no value tree is built). Every field counts, the policy names included, so two
/// states digest equally only when they would save to the same file.
///
/// [`Campaign::what_if`](crate::Campaign::what_if) uses it to prove that
/// every branch resumed from its scenario's prefix: it gives each
/// branch's export the fork's policy identity before comparing, since
/// the policies are all a branch may change. The fork drops the
/// wall-clock `placement_compute_times`, so re-running the same what-if
/// reproduces the digest, and a saved fork state digests the same after
/// it is reloaded.
pub fn fork_digest(state: &SimState) -> u64 {
    let mut fnv = FnvEmitter::new();
    state.emit(&mut fnv);
    fnv.h
}

/// FNV-1a over an injective encoding of an emitted value tree: every
/// node is tagged with its kind, and strings, keys, sequences and maps
/// are length-prefixed so adjacent values cannot alias across
/// boundaries.
struct FnvEmitter {
    /// The digest so far.
    h: u64,
}

impl FnvEmitter {
    fn new() -> Self {
        FnvEmitter { h: FNV1A_BASIS }
    }

    fn absorb(&mut self, bytes: &[u8]) {
        self.h = fnv1a(self.h, bytes.iter().copied());
    }
}

impl Emitter for FnvEmitter {
    fn unit(&mut self) {
        self.absorb(b"u");
    }
    fn bool(&mut self, v: bool) {
        self.absorb(if v { b"t" } else { b"f" });
    }
    fn int(&mut self, v: i128) {
        self.absorb(b"i");
        self.absorb(&v.to_le_bytes());
    }
    fn float(&mut self, v: f64) {
        self.absorb(b"d");
        self.absorb(&v.to_bits().to_le_bytes());
    }
    fn str(&mut self, v: &str) {
        self.absorb(b"s");
        self.absorb(&(v.len() as u64).to_le_bytes());
        self.absorb(v.as_bytes());
    }
    fn seq(&mut self, len: usize) {
        self.absorb(b"[");
        self.absorb(&(len as u64).to_le_bytes());
    }
    fn map(&mut self, len: usize) {
        self.absorb(b"{");
        self.absorb(&(len as u64).to_le_bytes());
    }
    fn key(&mut self, key: &str) {
        self.absorb(&(key.len() as u64).to_le_bytes());
        self.absorb(key.as_bytes());
    }
    fn end(&mut self) {}
}

impl SimState {
    /// Check the state against the importer's job table `trace` (whose
    /// specs the resumed jobs take) and for internal consistency — what
    /// an importer must establish before the engine indexes with it. A
    /// state that fails would otherwise panic mid-run, never finish, or
    /// report non-finite times. Cross-checks the clocks, the counters,
    /// the queue and the cluster against the progress entries in one
    /// O(`next_admit` + GPUs) pass; expects the trace's length and
    /// digest and the cluster's topology to be the importer's (checked
    /// first, so their sizes are trusted).
    pub(crate) fn validate(&self, trace: &[ActiveJob]) -> Result<(), String> {
        let n = trace.len();
        for (field, count) in [("next_admit", self.next_admit), ("finished", self.finished)] {
            if count > n {
                return Err(format!("{field} {count} exceeds {n} jobs"));
            }
        }
        let admitted = self.next_admit;
        if self.jobs.len() != admitted {
            return Err(format!(
                "state has {} job progress entries for next_admit {admitted}",
                self.jobs.len()
            ));
        }
        if self.rounds < self.executed_rounds {
            return Err(format!(
                "rounds {} is below executed_rounds {}",
                self.rounds, self.executed_rounds
            ));
        }
        self.check_clocks()?;
        // Jobs past `next_admit` are fresh, so neither queued nor rejected.
        let mut queued = vec![false; admitted];
        for &ji in &self.active_queue {
            if ji >= admitted || std::mem::replace(&mut queued[ji], true) {
                return Err(format!(
                    "active_queue index {ji} is out of range, repeated, or not yet admitted"
                ));
            }
        }
        for (i, &ji) in self.rejected.iter().enumerate() {
            if i > 0 && ji <= self.rejected[i - 1] {
                return Err(format!(
                    "rejected index {ji} is not above the one before it (unsorted or repeated)"
                ));
            }
            if ji >= admitted {
                return Err(format!(
                    "job {ji} is rejected but admission has not reached it"
                ));
            }
        }
        self.cluster.check_consistent()?;

        // One pass over the admitted jobs: each job's progress against its
        // spec, the clock, the queue and the cluster, tallying what the
        // counters must equal.
        let total_gpus = self.cluster.topology().total_gpus();
        let mut held = vec![false; total_gpus];
        let (mut held_gpus, mut queued_demand, mut completed) = (0usize, 0usize, 0);
        let mut rejections = self.rejected.iter().peekable();
        for (ji, (job, spec)) in self.jobs.iter().zip(trace).enumerate() {
            let spec = &spec.spec;
            let id = spec.id.0;
            for (field, v) in [
                ("remaining_work", job.remaining_work),
                ("attained_service", job.attained_service),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("job {id} has {field} {v}"));
                }
            }
            // One migration or preemption per round at most; the bound
            // also keeps the counters from overflowing on resume.
            for (field, count) in [
                ("migrations", job.migrations),
                ("preemptions", job.preemptions),
            ] {
                if count as usize > self.rounds {
                    return Err(format!(
                        "job {id} has {field} {count}, more than the {} rounds run",
                        self.rounds
                    ));
                }
            }
            if let Some(start) = job.first_start {
                if !start.is_finite() || start > self.time {
                    return Err(format!(
                        "job {id} has first_start {start}, not finite and no later than time {}",
                        self.time
                    ));
                }
            }
            let rejected = rejections.next_if_eq(&&ji).is_some();
            match &job.phase {
                JobPhase::Waiting => {}
                _ if rejected => {
                    return Err(format!("job {id} has started but was never admitted"));
                }
                _ if job.first_start.is_none() => {
                    return Err(format!("job {id} has started but has no first_start"));
                }
                // Completions land up to the engine's tolerance past the
                // boundary that ends their round.
                &JobPhase::Finished { at } => {
                    if !at.is_finite() || at > self.time + EPS {
                        return Err(format!(
                            "job {id} finished at {at}, not finite and no later than time {}",
                            self.time
                        ));
                    }
                    completed += 1;
                }
                JobPhase::Running { gpus } => {
                    if gpus.len() != spec.gpu_demand {
                        return Err(format!(
                            "job {id} runs on {} GPUs but demands {}",
                            gpus.len(),
                            spec.gpu_demand
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
            let unfinished = !rejected && !matches!(job.phase, JobPhase::Finished { .. });
            if queued[ji] != unfinished {
                return Err(format!(
                    "active_queue {} job {id}, which is {}",
                    if queued[ji] { "holds" } else { "lacks" },
                    if unfinished {
                        "admitted and unfinished"
                    } else {
                        "rejected or finished"
                    }
                ));
            }
            if unfinished {
                queued_demand = queued_demand.saturating_add(spec.gpu_demand);
            }
        }
        if self.active_demand != queued_demand {
            return Err(format!(
                "active_demand {} is not the queue's total demand {queued_demand}",
                self.active_demand
            ));
        }
        let rejected = self.rejected.len();
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

    /// The clocks: `time` finite, non-negative and not before the last
    /// GPUs-in-use breakpoint, breakpoint times finite and
    /// non-decreasing, and the busy GPU-seconds finite and non-negative.
    /// A state that breaks these panics appending to the series, or
    /// reports non-finite times.
    fn check_clocks(&self) -> Result<(), String> {
        if !self.time.is_finite() || self.time < 0.0 {
            return Err(format!("time {} is not finite and non-negative", self.time));
        }
        let mut last = f64::NEG_INFINITY;
        for &(t, _) in self.gpus_in_use.points() {
            if !t.is_finite() || t < last {
                return Err(format!(
                    "gpus_in_use breakpoint at {t} is not finite or goes back from {last}"
                ));
            }
            last = t;
        }
        if last > self.time {
            return Err(format!(
                "time {} is before the last gpus_in_use breakpoint {last}",
                self.time
            ));
        }
        let busy = self.busy_gpu_seconds;
        if !busy.is_finite() || busy < 0.0 {
            return Err(format!(
                "busy_gpu_seconds {busy} is not finite and non-negative"
            ));
        }
        Ok(())
    }
}

/// Persistent state of one serving deployment: stream position,
/// counters, latency log, and per-replica availability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingState {
    /// Workload name (matched against the deployment on import).
    pub workload: String,
    /// GPUs the deployment holds.
    pub gpus: usize,
    /// Requests that had arrived by the last batch's start. The ones
    /// from `completed` on are queued; the stream, a pure function of the
    /// workload's seed, supplies them on import.
    pub arrived: u64,
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
