//! The inference-serving subsystem: replicated serving deployments that
//! occupy GPUs alongside training jobs and process open-loop request
//! streams ([`pal_trace::ServingWorkload`]) under latency SLOs.
//!
//! ## Model
//!
//! A [`ServingJob`] deploys `replicas` model replicas, each holding
//! `gpus_per_replica` GPUs for the whole run. Replicas are placed once at
//! `t = 0` through the scenario's [`PlacementPolicy`] — the same
//! `ClusterView` path training jobs use — so a variability-aware policy
//! (PAL, PM-First) picks *which* GPUs serve, and a replica's service rate
//! inherits Equation 1: `slowdown = locality_penalty × max_g V_g` over its
//! GPUs. The remaining GPUs form the training capacity; with no serving
//! jobs the capacity is the whole cluster and the training path is
//! bit-identical to a serving-free build.
//!
//! Each distinct workload's requests are materialized once, as a
//! request log of `arrival` and `work` columns (16 B per request; the id
//! is the index and the deadline is `arrival + slo_s`). Every clone of a
//! [`ServingJob`] — every cell of a campaign row — shares one log while
//! any of them runs. A deployment walks the log by index: requests
//! `completed..arrived` are its FIFO queue, and the push-to-deadline
//! batcher ([`batcher::form_batch`]) takes a batch off its front. Each
//! batch runs on the earliest-free replica for
//! `(overhead + Σ work) × slowdown` seconds. Processing is
//! continuous-time and advanced lazily to the round clock
//! (`ServingEngine::advance_to`): decisions depend only on the queue
//! contents at each batch's start time, never on the stepping
//! granularity, so event-driven and fixed-round runs produce identical
//! serving outcomes.
//!
//! Completed-request latencies feed [`ServingMetrics`] — SLO attainment,
//! goodput, and p50/p95/p99 latency — reported per deployment in
//! [`SimResult::serving`](crate::SimResult::serving). The summary sorts
//! the latency log in place by IEEE bit pattern, which for these finite,
//! sign-bit-clear values is numeric order; a finished run's summary
//! sorts the log it owns, with no copy.

pub mod batcher;
#[cfg(test)]
mod oracle;

pub use batcher::{form_batch, BatcherConfig};

use crate::engine::Observer;
use crate::error::SimError;
use crate::observe::ServingBatchEvent;
use crate::placement::{validate_allocation, PlacementCtx, PlacementPolicy, PlacementRequest};
use crate::state::{ReplicaState, ServingState};
use pal_cluster::{ClusterState, ClusterTopology, JobClass, LocalityModel, VariabilityProfile};
use pal_gpumodel::Workload;
use pal_trace::{JobId, ServingWorkload};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError, TryLockError, Weak};

/// Completion tolerance for the SLO check, mirroring the engine's round
/// tolerance: a batch finishing within this of the deadline meets it.
const EPS: f64 = 1e-9;

/// One serving deployment to run alongside the training trace: a workload,
/// a replica count, and the placement-relevant identity (model + class)
/// of each replica.
#[derive(Debug, Clone)]
pub struct ServingJob {
    /// The open-loop request workload (shared, like `Arc<Trace>`).
    pub workload: Arc<ServingWorkload>,
    /// Model replicas to place; requests go to the earliest-free one.
    pub replicas: usize,
    /// GPUs each replica holds for the whole run.
    pub gpus_per_replica: usize,
    /// The served model (for per-model locality lookups).
    pub model: Workload,
    /// Variability class of the model — what PM-score-aware placement
    /// keys on.
    pub class: JobClass,
    /// Batcher knobs.
    pub batcher: BatcherConfig,
    /// The request log a clone of this job built, while one is alive.
    log: LogSlot,
}

/// The request-log slot every clone of a [`ServingJob`] shares.
type LogSlot = Arc<Mutex<Weak<RequestLog>>>;

/// Bytes each request costs while its deployment runs: `arrival` and
/// `work` in the request log, plus its latency.
const BYTES_PER_REQUEST: u64 = 24;

/// The most requests one serving stream may hold: 2.4 GB at
/// [`BYTES_PER_REQUEST`], and 100× the largest stream any shipped config,
/// bench or benchmark workload runs (1,000,000). The cap is fixed rather
/// than sized to the host, so a config that validates on one machine
/// validates on every machine; below it, a log the allocator still cannot
/// hold fails [`RequestLog::build`]'s reservation as a typed error.
const MAX_REQUESTS_PER_STREAM: u64 = 100_000_000;

impl ServingJob {
    /// A deployment of `replicas` × `gpus_per_replica` GPUs serving
    /// `workload`, with default model identity (BERT, class A) and
    /// batcher knobs.
    pub fn new(
        workload: impl Into<Arc<ServingWorkload>>,
        replicas: usize,
        gpus_per_replica: usize,
    ) -> Self {
        ServingJob {
            workload: workload.into(),
            replicas,
            gpus_per_replica,
            model: Workload::Bert,
            class: JobClass::A,
            batcher: BatcherConfig::default(),
            log: LogSlot::default(),
        }
    }

    /// Set the served model.
    pub fn model(mut self, model: Workload) -> Self {
        self.model = model;
        self
    }

    /// Set the variability class.
    pub fn class(mut self, class: JobClass) -> Self {
        self.class = class;
        self
    }

    /// Set the batcher knobs.
    pub fn batcher(mut self, batcher: BatcherConfig) -> Self {
        self.batcher = batcher;
        self
    }

    /// Total GPUs this deployment holds.
    pub fn total_gpus(&self) -> usize {
        self.replicas * self.gpus_per_replica
    }

    /// The request log of this job's workload: the one a clone of this
    /// job built, while it is alive and was built from this very
    /// workload, or else a new one, which the clones then share. Holding
    /// the slot's lock while building keeps concurrent cells from
    /// generating the same stream twice. A poisoned slot is still valid:
    /// it is written in one store, after the log is complete.
    fn request_log(&self) -> Result<Arc<RequestLog>, SimError> {
        self.log_in(&mut self.log.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// [`request_log`](Self::request_log), or `None` while a concurrent
    /// cell holds the slot (building the log).
    fn try_request_log(&self) -> Option<Result<Arc<RequestLog>, SimError>> {
        match self.log.try_lock() {
            Ok(mut slot) => Some(self.log_in(&mut slot)),
            Err(TryLockError::Poisoned(slot)) => Some(self.log_in(&mut slot.into_inner())),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    fn log_in(&self, slot: &mut Weak<RequestLog>) -> Result<Arc<RequestLog>, SimError> {
        if let Some(log) = slot.upgrade() {
            if Arc::ptr_eq(&log.workload, &self.workload) {
                return Ok(log);
            }
        }
        let log = Arc::new(RequestLog::build(&self.workload)?);
        *slot = Arc::downgrade(&log);
        Ok(log)
    }
}

/// One workload's requests in arrival order, by index: request `i`
/// arrives at `arrival[i]`, needs `work[i]` seconds on a median replica
/// and is due at `arrival[i] + slo_s`, exactly as the stream computes
/// its deadline.
#[derive(Debug)]
struct RequestLog {
    /// The workload the log was generated from: the key a [`ServingJob`]
    /// checks before it shares the log.
    workload: Arc<ServingWorkload>,
    arrival: Vec<f64>,
    work: Vec<f64>,
}

impl RequestLog {
    /// Generate `workload`'s whole stream. The columns are reserved up
    /// front, so a count the allocator cannot hold is a typed error, not
    /// an abort.
    fn build(workload: &Arc<ServingWorkload>) -> Result<RequestLog, SimError> {
        // A count past `usize` cannot be reserved either.
        let n = usize::try_from(workload.num_requests).unwrap_or(usize::MAX);
        let (mut arrival, mut work) = (Vec::new(), Vec::new());
        arrival
            .try_reserve_exact(n)
            .and_then(|()| work.try_reserve_exact(n))
            .map_err(|e| unallocatable(workload, "request log", e))?;
        for r in workload.stream() {
            arrival.push(r.arrival);
            work.push(r.work);
        }
        Ok(RequestLog {
            workload: Arc::clone(workload),
            arrival,
            work,
        })
    }
}

fn unallocatable(
    workload: &ServingWorkload,
    what: &str,
    e: std::collections::TryReserveError,
) -> SimError {
    SimError::InvalidServingJob {
        workload: workload.name.clone(),
        reason: format!(
            "cannot allocate the {what} of {} requests: {e}",
            workload.num_requests
        ),
    }
}

/// Validate serving jobs against the cluster and profile dimensions.
/// `num_classes` bounds the class indices exactly as
/// `engine::validate_inputs` bounds training jobs'.
pub(crate) fn validate_serving(
    jobs: &[ServingJob],
    topology: &ClusterTopology,
    num_classes: usize,
) -> Result<(), SimError> {
    let mut demand = 0usize;
    for job in jobs {
        let name = job.workload.name.clone();
        let invalid = |reason: String| SimError::InvalidServingJob {
            workload: name.clone(),
            reason,
        };
        job.workload.validate().map_err(&invalid)?;
        job.batcher.validate().map_err(&invalid)?;
        if job.workload.num_requests > MAX_REQUESTS_PER_STREAM {
            return Err(invalid(format!(
                "{} requests exceed the cap of {MAX_REQUESTS_PER_STREAM} per stream \
                 ({BYTES_PER_REQUEST} B each)",
                job.workload.num_requests
            )));
        }
        if job.replicas == 0 {
            return Err(invalid("zero replicas".into()));
        }
        if job.gpus_per_replica == 0 {
            return Err(invalid("zero GPUs per replica".into()));
        }
        if job.class.0 >= num_classes {
            return Err(invalid(format!(
                "class {:?} out of range (profile defines {num_classes} classes)",
                job.class
            )));
        }
        demand += job.total_gpus();
    }
    if demand > topology.total_gpus() {
        return Err(SimError::ServingOvercommitted {
            demand,
            total_gpus: topology.total_gpus(),
        });
    }
    Ok(())
}

/// One placed replica: its service slowdown (Equation 1 over its GPUs)
/// and the time it frees up.
#[derive(Debug, Clone)]
struct Replica {
    slowdown: f64,
    free_at: f64,
}

/// Runtime state of one [`ServingJob`]'s deployment: a position in its
/// request log, counters, the latency log and the replicas.
#[derive(Debug)]
struct Deployment {
    name: String,
    cfg: BatcherConfig,
    gpus: usize,
    slo_s: f64,
    log: Arc<RequestLog>,
    replicas: Vec<Replica>,
    /// Requests that have arrived by the last batch's start; those from
    /// `completed` on are the FIFO queue.
    arrived: usize,
    completed: usize,
    batches: u64,
    slo_met: u64,
    latencies: Vec<f64>,
    first_arrival: f64,
    last_finish: f64,
}

impl Deployment {
    /// A deployment of `job` over its request log at `t = 0`, one
    /// replica per slowdown. Its latency log is reserved for the whole
    /// stream.
    fn new(
        job: &ServingJob,
        log: Arc<RequestLog>,
        slowdowns: &[f64],
    ) -> Result<Deployment, SimError> {
        let mut latencies = Vec::new();
        latencies
            .try_reserve_exact(log.arrival.len())
            .map_err(|e| unallocatable(&job.workload, "latency log", e))?;
        Ok(Deployment {
            name: job.workload.name.clone(),
            cfg: job.batcher,
            gpus: job.total_gpus(),
            slo_s: job.workload.slo_s,
            log,
            replicas: slowdowns
                .iter()
                .map(|&slowdown| Replica {
                    slowdown,
                    free_at: 0.0,
                })
                .collect(),
            arrived: 0,
            completed: 0,
            batches: 0,
            slo_met: 0,
            latencies,
            first_arrival: 0.0,
            last_finish: 0.0,
        })
    }

    fn total(&self) -> usize {
        self.log.arrival.len()
    }

    fn is_done(&self) -> bool {
        self.completed >= self.total()
    }

    /// Process every batch whose start time is `≤ t_end`. Start times
    /// depend only on replica availability and request arrivals — never
    /// on `t_end` — so any partition of the timeline into `advance_to`
    /// calls yields identical batches, latencies, and counters. Each
    /// executed batch is reported through `obs` (extra sink only; the
    /// deployment's own counters are the built-in accumulators here).
    fn advance_to(&mut self, t_end: f64, obs: &mut Observer<'_>) {
        let RequestLog { arrival, work, .. } = &*self.log;
        let total = arrival.len();
        while self.completed < total {
            let head = self.completed;
            // Earliest-free replica, lowest index on ties.
            let mut ri = 0usize;
            for i in 1..self.replicas.len() {
                if self.replicas[i].free_at < self.replicas[ri].free_at {
                    ri = i;
                }
            }
            let start = self.replicas[ri].free_at.max(arrival[head]);
            if start > t_end {
                return;
            }
            // Everything that has arrived by the batch's start is
            // eligible; the head always has.
            if self.arrived == 0 {
                self.first_arrival = arrival[0];
            }
            while self.arrived < total && arrival[self.arrived] <= start {
                self.arrived += 1;
            }
            let slowdown = self.replicas[ri].slowdown;
            let end = head
                + form_batch(
                    &work[head..self.arrived],
                    arrival[head] + self.slo_s,
                    start,
                    slowdown,
                    &self.cfg,
                );
            let batch_work: f64 = work[head..end].iter().sum();
            let finish = start + (self.cfg.batch_overhead_s + batch_work) * slowdown;
            let mut batch_slo_met = 0usize;
            for &a in &arrival[head..end] {
                self.latencies.push(finish - a);
                if finish <= (a + self.slo_s) + EPS {
                    batch_slo_met += 1;
                }
            }
            self.slo_met += batch_slo_met as u64;
            self.completed = end;
            self.batches += 1;
            self.replicas[ri].free_at = finish;
            if finish > self.last_finish {
                self.last_finish = finish;
            }
            if obs.active() {
                obs.serving_batch(ServingBatchEvent {
                    workload: self.name.clone(),
                    start,
                    finish,
                    batch_size: end - head,
                    slo_met: batch_slo_met,
                    queued: self.arrived - end,
                });
            }
        }
    }

    fn export_state(&self) -> ServingState {
        ServingState {
            workload: self.name.clone(),
            gpus: self.gpus,
            arrived: self.arrived as u64,
            completed: self.completed as u64,
            batches: self.batches,
            slo_met: self.slo_met,
            latencies: self.latencies.clone(),
            first_arrival: self.first_arrival,
            last_finish: self.last_finish,
            replicas: self
                .replicas
                .iter()
                .map(|r| ReplicaState {
                    slowdown: r.slowdown,
                    free_at: r.free_at,
                })
                .collect(),
        }
    }

    /// Restore a state exported from the same workload. The queue is
    /// `completed..arrived` of the request log, so the two indices are
    /// the whole stream position. A state [`Deployment::check_state`]
    /// refuses leaves the deployment untouched.
    fn import_state(&mut self, s: &ServingState) -> Result<(), String> {
        self.check_state(s)?;
        // Both fit: check_state bounds them by the log's length.
        self.arrived = s.arrived as usize;
        self.completed = s.completed as usize;
        self.batches = s.batches;
        self.slo_met = s.slo_met;
        self.latencies.clear();
        self.latencies.extend_from_slice(&s.latencies);
        self.first_arrival = s.first_arrival;
        self.last_finish = s.last_finish;
        for (r, rs) in self.replicas.iter_mut().zip(&s.replicas) {
            r.slowdown = rs.slowdown;
            r.free_at = rs.free_at;
        }
        Ok(())
    }

    /// Refuse a state that disagrees with this deployment, its request
    /// log or itself. Without the position checks, an index past the
    /// log's end panics in `advance_to`, and a queued request that has
    /// not arrived by the next batch's start finishes before it arrives.
    ///
    /// Every latency must be finite with a clear sign bit, as live ones
    /// are: `finish − arrival` with `finish ≥ arrival` is never negative
    /// and never `-0.0`. [`Deployment::summary`] sorts by bit pattern and
    /// does not check: a NaN, a `-0.0` or a negative latency would sort
    /// after every other value and come out as `latency_max`, so this
    /// check is the only guard.
    fn check_state(&self, s: &ServingState) -> Result<(), String> {
        let fail = |what: String| Err(format!("serving state for `{}`: {what}", s.workload));
        if s.workload != self.name {
            return fail(format!("does not match deployment `{}`", self.name));
        }
        if s.replicas.len() != self.replicas.len() {
            return fail(format!(
                "{} replicas, deployment has {}",
                s.replicas.len(),
                self.replicas.len()
            ));
        }
        if s.gpus != self.gpus {
            return fail(format!(
                "gpus {} but the deployment holds {}",
                s.gpus, self.gpus
            ));
        }
        if !(s.completed <= s.arrived && s.arrived <= self.total() as u64) {
            return fail(format!(
                "completed {} and arrived {} do not fit a {}-request stream",
                s.completed,
                s.arrived,
                self.total()
            ));
        }
        if s.latencies.len() as u64 != s.completed || s.slo_met > s.completed {
            return fail(format!(
                "{} latencies and slo_met {} for {} completed requests",
                s.latencies.len(),
                s.slo_met,
                s.completed
            ));
        }
        if let Some(l) = s
            .latencies
            .iter()
            .find(|l| !(l.is_finite() && l.is_sign_positive()))
        {
            return fail(format!("latency {l:?} is not finite with a clear sign bit"));
        }
        if let Some(r) = s
            .replicas
            .iter()
            .find(|r| !(r.slowdown.is_finite() && r.slowdown > 0.0 && r.free_at.is_finite()))
        {
            return fail(format!(
                "replica slowdown {} / free_at {} (need a finite slowdown > 0 and a finite \
                 free_at)",
                r.slowdown, r.free_at
            ));
        }
        // A live run queues only requests that arrived by the last
        // batch's start, and the next batch — on the earliest-free
        // replica, no earlier than its head's arrival — starts no earlier.
        if s.arrived > s.completed {
            let arrival = &self.log.arrival;
            let free = s
                .replicas
                .iter()
                .map(|r| r.free_at)
                .fold(f64::INFINITY, f64::min);
            let next_start = free.max(arrival[s.completed as usize]);
            let last = arrival[s.arrived as usize - 1];
            if last > next_start {
                return fail(format!(
                    "arrived {} queues a request arriving at {last}, after the next batch \
                     starts at {next_start}",
                    s.arrived
                ));
            }
        }
        Ok(())
    }

    /// This deployment's metrics, with the latency summary taken over
    /// `latencies` — its own latency log or a copy of it — which is
    /// sorted in place.
    ///
    /// Every latency is finite with a clear sign bit, and for such values
    /// the order of the IEEE bit patterns is the numeric order: the sort
    /// on `to_bits()` gives the comparison sort's vector bit for bit,
    /// without its scratch buffer. The mean is summed in that sorted
    /// order.
    fn summary(&self, latencies: &mut [f64]) -> ServingMetrics {
        debug_assert!(
            latencies
                .iter()
                .all(|l| l.is_finite() && l.is_sign_positive()),
            "latency log holds a non-finite or sign-bit-set value"
        );
        latencies.sort_unstable_by_key(|l| l.to_bits());
        let sorted = &*latencies;
        let pct = |p: f64| {
            if sorted.is_empty() {
                0.0
            } else {
                pal_stats::percentile_of_sorted(sorted, p)
            }
        };
        ServingMetrics {
            workload: self.name.clone(),
            replicas: self.replicas.len(),
            gpus: self.gpus,
            requests: self.completed as u64,
            batches: self.batches,
            slo_attained: self.slo_met,
            latency_mean: pal_stats::mean(sorted).unwrap_or(0.0),
            latency_p50: pct(50.0),
            latency_p95: pct(95.0),
            latency_p99: pct(99.0),
            latency_max: sorted.last().copied().unwrap_or(0.0),
            first_arrival: self.first_arrival,
            last_finish: self.last_finish,
        }
    }
}

/// The serving side of one run: every deployment's replicas, queues, and
/// latency accounting. Owned by the `Simulation` stepper and advanced to
/// the round clock as it moves.
#[derive(Debug)]
pub(crate) struct ServingEngine {
    deployments: Vec<Deployment>,
    gpus_held: usize,
}

impl ServingEngine {
    /// Place every deployment's replicas on the (empty-at-`t = 0`)
    /// cluster through the scenario's placement policy, exactly like the
    /// round loop places training jobs: `placement_order_into` over all
    /// replica requests, then `place_into` + validation + allocation per
    /// replica in the policy's order. Replica request ids continue after
    /// the trace's job ids. Fails only when a request or latency log
    /// cannot be allocated.
    pub(crate) fn place(
        jobs: &[ServingJob],
        cluster: &mut ClusterState,
        placement: &mut dyn PlacementPolicy,
        profile: &VariabilityProfile,
        truth: &VariabilityProfile,
        locality: &LocalityModel,
        first_replica_id: u32,
    ) -> Result<ServingEngine, SimError> {
        let mut requests = Vec::new();
        for job in jobs {
            for _ in 0..job.replicas {
                requests.push(PlacementRequest {
                    job: JobId(first_replica_id + requests.len() as u32),
                    model: job.model.name(),
                    class: job.class,
                    gpu_demand: job.gpus_per_replica,
                });
            }
        }
        let mut order = Vec::with_capacity(requests.len());
        placement.placement_order_into(
            &requests,
            &PlacementCtx {
                profile,
                locality,
                view: cluster.view(),
            },
            &mut order,
        );
        let mut perm = order.clone();
        perm.sort_unstable();
        assert!(
            perm.iter().copied().eq(0..requests.len()),
            "{} returned an invalid placement order for serving replicas",
            placement.name()
        );
        let mut slowdowns = vec![0.0f64; requests.len()];
        for &ri in &order {
            let req = &requests[ri];
            let pctx = PlacementCtx {
                profile,
                locality,
                view: cluster.view(),
            };
            let mut alloc = Vec::with_capacity(req.gpu_demand);
            placement.place_into(req, &pctx, cluster, &mut alloc);
            validate_allocation(placement.name(), req, cluster, &alloc);
            cluster.allocate(&alloc);
            let l = locality.penalty(cluster.topology(), req.model, &alloc);
            let v = alloc
                .iter()
                .map(|&g| truth.score(req.class, g))
                .fold(0.0f64, f64::max);
            slowdowns[ri] = l * v;
        }
        // Take the logs no concurrent cell is building first, then wait
        // for the others: the cells of a row then generate their distinct
        // streams in parallel.
        let mut logs = Vec::with_capacity(jobs.len());
        for job in jobs {
            logs.push(job.try_request_log().transpose()?);
        }
        let mut deployments = Vec::with_capacity(jobs.len());
        let mut next_replica = 0usize;
        for (job, log) in jobs.iter().zip(logs) {
            let log = match log {
                Some(log) => log,
                None => job.request_log()?,
            };
            let replicas = next_replica..next_replica + job.replicas;
            deployments.push(Deployment::new(job, log, &slowdowns[replicas])?);
            next_replica += job.replicas;
        }
        Ok(ServingEngine {
            gpus_held: jobs.iter().map(ServingJob::total_gpus).sum(),
            deployments,
        })
    }

    /// GPUs carved out of the cluster for serving replicas.
    pub(crate) fn gpus_held(&self) -> usize {
        self.gpus_held
    }

    /// Whether every deployment has served its whole stream.
    pub(crate) fn is_done(&self) -> bool {
        self.deployments.iter().all(Deployment::is_done)
    }

    /// Advance every deployment's continuous-time processing to `t_end`,
    /// reporting executed batches through `obs`.
    pub(crate) fn advance_to(&mut self, t_end: f64, obs: &mut Observer<'_>) {
        for d in &mut self.deployments {
            d.advance_to(t_end, obs);
        }
    }

    /// Persistent state of every deployment, in deployment order.
    pub(crate) fn export_state(&self) -> Vec<ServingState> {
        self.deployments
            .iter()
            .map(Deployment::export_state)
            .collect()
    }

    /// Restore every deployment from states exported by a run of the same
    /// scenario (deployments are matched positionally and by name).
    pub(crate) fn import_state(&mut self, states: &[ServingState]) -> Result<(), String> {
        if states.len() != self.deployments.len() {
            return Err(format!(
                "state has {} serving deployments, simulation has {}",
                states.len(),
                self.deployments.len()
            ));
        }
        for (d, s) in self.deployments.iter_mut().zip(states) {
            d.import_state(s)?;
        }
        Ok(())
    }

    /// Current per-deployment metrics of a run that may go on: each
    /// summary sorts a copy of the deployment's latency log.
    pub(crate) fn metrics(&self) -> Vec<ServingMetrics> {
        self.deployments
            .iter()
            .map(|d| d.summary(&mut d.latencies.clone()))
            .collect()
    }

    /// Final per-deployment metrics, equal to [`metrics`](Self::metrics):
    /// each summary sorts the deployment's own latency log, so nothing is
    /// copied.
    pub(crate) fn into_metrics(self) -> Vec<ServingMetrics> {
        self.deployments
            .into_iter()
            .map(|mut d| {
                let mut latencies = std::mem::take(&mut d.latencies);
                d.summary(&mut latencies)
            })
            .collect()
    }
}

/// Per-deployment serving outcome: request/batch counts, SLO attainment,
/// and the latency distribution tail — the serving-side counterpart of
/// per-job JCT records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingMetrics {
    /// Workload name of the deployment.
    pub workload: String,
    /// Replicas the deployment ran.
    pub replicas: usize,
    /// GPUs the deployment held.
    pub gpus: usize,
    /// Requests served.
    pub requests: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests that met their deadline.
    pub slo_attained: u64,
    /// Mean request latency, seconds.
    pub latency_mean: f64,
    /// Median request latency, seconds.
    pub latency_p50: f64,
    /// 95th-percentile request latency, seconds.
    pub latency_p95: f64,
    /// 99th-percentile request latency, seconds — the tail the paper's
    /// placement comparisons move.
    pub latency_p99: f64,
    /// Worst request latency, seconds.
    pub latency_max: f64,
    /// Arrival time of the first request, seconds.
    pub first_arrival: f64,
    /// Completion time of the last batch, seconds.
    pub last_finish: f64,
}

impl ServingMetrics {
    /// Fraction of requests that met their deadline, in `[0, 1]`.
    pub fn slo_attainment(&self) -> f64 {
        if self.requests == 0 {
            return 1.0;
        }
        self.slo_attained as f64 / self.requests as f64
    }

    /// Seconds between the first arrival and the last completion.
    pub fn span(&self) -> f64 {
        (self.last_finish - self.first_arrival).max(0.0)
    }

    /// Goodput: SLO-meeting requests per second over the serving span.
    pub fn goodput(&self) -> f64 {
        let span = self.span();
        if span <= 0.0 {
            return 0.0;
        }
        self.slo_attained as f64 / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PackedPlacement;
    use pal_cluster::ClusterTopology;
    use pal_trace::ArrivalProcess;
    use proptest::prelude::*;

    /// Drive an engine with no extra sink attached, as the round loop
    /// does for an unobserved run.
    fn advance(e: &mut ServingEngine, t_end: f64) {
        let mut tel = crate::engine::Telemetry::new();
        let mut obs = Observer::new(&mut tel, None);
        e.advance_to(t_end, &mut obs);
    }

    fn engine(replicas: usize, workload: ServingWorkload) -> ServingEngine {
        let topo = ClusterTopology::new(1, 4);
        let mut cluster = ClusterState::new(topo);
        let profile = VariabilityProfile::from_raw(vec![vec![1.0; 4]; 3]);
        let locality = LocalityModel::uniform(1.0);
        let mut placement = PackedPlacement::deterministic();
        ServingEngine::place(
            &[ServingJob::new(workload, replicas, 1)],
            &mut cluster,
            &mut placement,
            &profile,
            &profile,
            &locality,
            0,
        )
        .unwrap()
    }

    fn workload(rate: f64, n: u64) -> ServingWorkload {
        ServingWorkload {
            work_median_s: 0.01,
            work_sigma: 0.2,
            slo_s: 0.5,
            ..ServingWorkload::poisson("test", rate, n)
        }
    }

    #[test]
    fn serves_whole_stream_and_counts_add_up() {
        let mut e = engine(2, workload(50.0, 500));
        assert_eq!(e.gpus_held(), 2);
        assert!(!e.is_done());
        advance(&mut e, 1e12);
        assert!(e.is_done());
        let m = &e.metrics()[0];
        assert_eq!(m.requests, 500);
        assert!(m.batches >= 1 && m.batches <= 500);
        assert!(m.slo_attained <= m.requests);
        assert!(m.latency_p50 <= m.latency_p95);
        assert!(m.latency_p95 <= m.latency_p99);
        assert!(m.latency_p99 <= m.latency_max);
        assert!(m.latency_mean > 0.0);
        assert!(m.last_finish > m.first_arrival);
    }

    #[test]
    fn latency_summary_bits_are_pinned() {
        // A near-capacity stream, so latencies spread over queueing
        // delays and the mean's last bit depends on the summation order
        // (summed in arrival order it ends in …469b). The bits were
        // taken from the comparison-sort summary this one replaced.
        let mut e = engine(2, workload(150.0, 3000));
        advance(&mut e, 1e12);
        let m = e.metrics().remove(0);
        assert_eq!(m.latency_mean.to_bits(), 0x3fc2_a155_2ded_469a);
        assert_eq!(m.latency_p99.to_bits(), 0x3fd2_9e0f_48b5_a175);
        assert_eq!(m.latency_max.to_bits(), 0x3fd5_e8c1_56c1_0810);
        assert_eq!(e.into_metrics(), vec![m]);
    }

    fn summary_bits(m: &ServingMetrics) -> [u64; 7] {
        [
            m.latency_mean,
            m.latency_p50,
            m.latency_p95,
            m.latency_p99,
            m.latency_max,
            m.first_arrival,
            m.last_finish,
        ]
        .map(f64::to_bits)
    }

    /// Finite values with a clear sign bit of everyday size, with `+0.0`,
    /// subnormals and a small pool that makes duplicates common. Their
    /// sums round differently in different orders.
    fn latency() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            (1u64..0x0010_0000_0000_0000).prop_map(f64::from_bits),
            (0usize..4).prop_map(|i| [0.25, 0.1, 3.0, 1e-3][i]),
            0.0f64..2.0,
        ]
    }

    /// [`latency`] plus values near `f64::MAX` and anywhere in the
    /// finite non-negative bit range.
    fn extreme_latency() -> impl Strategy<Value = f64> {
        prop_oneof![
            latency(),
            (0x7fe0_0000_0000_0000u64..0x7ff0_0000_0000_0000).prop_map(f64::from_bits),
            (0u64..0x7ff0_0000_0000_0000).prop_map(f64::from_bits),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bit_pattern_summary_matches_comparison_sort(
            latencies in prop_oneof![
                proptest::collection::vec(extreme_latency(), 0..3),
                proptest::collection::vec(extreme_latency(), 0..200),
                proptest::collection::vec(latency(), 0..200),
            ],
        ) {
            let mut e = engine(1, workload(10.0, 10));
            advance(&mut e, 1e12);
            let d = &e.deployments[0];
            let oracle = oracle::comparison_sort_summary(d.summary(&mut []), &latencies);
            let mut sorted = latencies.clone();
            let m = d.summary(&mut sorted);
            prop_assert_eq!(summary_bits(&m), summary_bits(&oracle));
            prop_assert_eq!(&m, &oracle);
            let bits = |v: &[f64]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
            let mut expected = latencies;
            expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert_eq!(bits(&sorted), bits(&expected));
        }
    }

    /// Collects the serving batches a run reports.
    #[derive(Default)]
    struct Batches(Vec<ServingBatchEvent>);

    impl crate::observe::MetricsSink for Batches {
        fn on_serving_batch(&mut self, event: &ServingBatchEvent) {
            self.0.push(event.clone());
        }
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

    fn event_bits(e: &ServingBatchEvent) -> (u64, u64, usize, usize, usize) {
        (
            e.start.to_bits(),
            e.finish.to_bits(),
            e.batch_size,
            e.slo_met,
            e.queued,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The indexed loop over the shared request log serves exactly
        /// what the queue-and-stream loop it replaced served: the same
        /// batches, in the same order, with bit-equal times and metrics,
        /// at any `advance_to` granularity.
        #[test]
        fn indexed_loop_matches_the_queue_oracle(
            pick in 0usize..3,
            rate in 1.0f64..150.0,
            n in 1u64..400,
            seed in any::<u64>(),
            work_median_s in 0.002f64..0.1,
            slo_s in 0.05f64..2.0,
            slowdowns in proptest::collection::vec(0.5f64..3.0, 1..=3),
            max_batch_size in 1usize..12,
            batch_overhead_s in 0.0f64..0.05,
            step in prop_oneof![Just(f64::INFINITY), 0.05f64..5.0],
        ) {
            let w = ServingWorkload {
                arrivals: arrivals(pick, rate),
                work_median_s,
                slo_s,
                seed,
                ..ServingWorkload::poisson("diff", rate, n)
            };
            let job = ServingJob::new(w, slowdowns.len(), 1).batcher(BatcherConfig {
                max_batch_size,
                batch_overhead_s,
            });
            let mut indexed = Deployment::new(&job, job.request_log().unwrap(), &slowdowns).unwrap();
            let mut oracle = oracle::Oracle::new(&job, &slowdowns);
            let (mut got, mut want) = (Batches::default(), Vec::new());
            let mut tel = crate::engine::Telemetry::new();
            let mut t = 0.0;
            while !(indexed.is_done() && oracle.is_done()) {
                t += step;
                indexed.advance_to(t, &mut Observer::new(&mut tel, Some(&mut got)));
                oracle.advance_to(t, &mut want);
                prop_assert_eq!(indexed.is_done(), oracle.is_done());
                prop_assert_eq!(got.0.len(), want.len());
            }
            prop_assert_eq!(&got.0, &want);
            let bits = |es: &[ServingBatchEvent]| es.iter().map(event_bits).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got.0), bits(&want));
            let (m, o) = (indexed.summary(&mut indexed.latencies.clone()), oracle.metrics());
            prop_assert_eq!(summary_bits(&m), summary_bits(&o));
            prop_assert_eq!(m, o);
        }
    }

    #[test]
    fn clones_of_a_job_share_one_log_while_it_lives() {
        let job = ServingJob::new(workload(50.0, 500), 1, 1);
        let twin = job.clone();
        let a = job.request_log().unwrap();
        let b = twin.request_log().unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let bits = |l: &RequestLog| {
            let col = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (col(&l.arrival), col(&l.work))
        };
        let stream: Vec<_> = job.workload.stream().collect();
        assert_eq!(
            bits(&a).0,
            stream
                .iter()
                .map(|r| r.arrival.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            bits(&a).1,
            stream.iter().map(|r| r.work.to_bits()).collect::<Vec<_>>()
        );
        let before = bits(&a);
        drop((a, b));
        let rebuilt = twin.request_log().unwrap();
        assert_eq!(bits(&rebuilt), before);
        // A clone given another workload never gets this one's log.
        let mut other = job.clone();
        other.workload = Arc::new(workload(60.0, 500));
        let log = other.request_log().unwrap();
        assert!(!Arc::ptr_eq(&log, &rebuilt));
        assert!(Arc::ptr_eq(&log.workload, &other.workload));
    }

    #[test]
    fn request_counts_beyond_memory_are_typed_errors() {
        let topo = ClusterTopology::new(1, 4);
        let mut huge = workload(10.0, u64::MAX);
        let job = |w: &ServingWorkload| ServingJob::new(w.clone(), 1, 1);
        for n in [u64::MAX, 1 << 58, MAX_REQUESTS_PER_STREAM + 1] {
            huge.num_requests = n;
            assert!(
                matches!(
                    validate_serving(&[job(&huge)], &topo, 3),
                    Err(SimError::InvalidServingJob { reason, .. }) if reason.contains("cap")
                ),
                "{n} requests"
            );
        }
        huge.num_requests = MAX_REQUESTS_PER_STREAM;
        assert!(validate_serving(&[job(&huge)], &topo, 3).is_ok());
        // The reservation still refuses what no allocator can hold: the
        // 2 EiB columns of 2^58 requests fail before a byte is touched.
        huge.num_requests = 1 << 58;
        let err = job(&huge).request_log().unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidServingJob { reason, .. } if reason.contains("cannot allocate")),
            "{err}"
        );
    }

    #[test]
    fn advance_granularity_does_not_change_outcomes() {
        let mut coarse = engine(2, workload(80.0, 800));
        advance(&mut coarse, 1e12);
        let mut fine = engine(2, workload(80.0, 800));
        let mut t = 0.0;
        while !fine.is_done() {
            t += 0.37;
            advance(&mut fine, t);
        }
        assert_eq!(coarse.metrics(), fine.metrics());
    }

    #[test]
    fn underloaded_deployment_attains_slo() {
        // 2 replicas × 100 req/s capacity vs 5 req/s offered: every
        // request is served immediately and well within the 0.5 s SLO.
        let mut e = engine(2, workload(5.0, 200));
        advance(&mut e, 1e12);
        let m = &e.metrics()[0];
        assert_eq!(m.slo_attained, 200, "p99 {}", m.latency_p99);
        assert!((m.slo_attainment() - 1.0).abs() < 1e-12);
        assert!(m.goodput() > 0.0);
    }

    #[test]
    fn overloaded_deployment_misses_deadlines_but_drops_nothing() {
        // One replica, offered load ≫ capacity: the queue grows, tail
        // latencies blow past the SLO, yet every request is served.
        let w = ServingWorkload {
            work_median_s: 0.1,
            work_sigma: 0.0,
            ..workload(100.0, 300)
        };
        let mut e = engine(1, w);
        advance(&mut e, 1e12);
        let m = &e.metrics()[0];
        assert_eq!(m.requests, 300, "never drop requests");
        assert!(
            m.slo_attainment() < 0.5,
            "attainment {}",
            m.slo_attainment()
        );
    }

    #[test]
    fn snapshot_tracks_progress() {
        let mut e = engine(1, workload(10.0, 100));
        let s0 = &e.export_state()[0];
        assert_eq!(s0.completed, 0);
        advance(&mut e, 4.0);
        let s1 = &e.export_state()[0];
        assert!(s1.completed > 0 && s1.completed < 100);
        assert!(s1.arrived >= s1.completed);
        advance(&mut e, 1e12);
        assert_eq!(e.export_state()[0].completed, 100);
    }

    #[test]
    fn slower_gpus_stretch_latency() {
        let topo = ClusterTopology::new(1, 4);
        let run = |score: f64| {
            let mut cluster = ClusterState::new(topo);
            let profile = VariabilityProfile::from_raw(vec![vec![1.0; 4]; 3]);
            let truth = VariabilityProfile::from_raw(vec![vec![score; 4]; 3]);
            let locality = LocalityModel::uniform(1.0);
            let mut placement = PackedPlacement::deterministic();
            let mut e = ServingEngine::place(
                &[ServingJob::new(workload(20.0, 200), 1, 1)],
                &mut cluster,
                &mut placement,
                &profile,
                &truth,
                &locality,
                0,
            )
            .unwrap();
            advance(&mut e, 1e12);
            e.metrics()[0].latency_mean
        };
        assert!(run(2.0) > run(1.0));
    }

    #[test]
    fn validate_serving_catches_bad_jobs() {
        let topo = ClusterTopology::new(1, 4);
        let ok = ServingJob::new(workload(10.0, 10), 2, 1);
        assert!(validate_serving(std::slice::from_ref(&ok), &topo, 3).is_ok());
        let mut zero = ok.clone();
        zero.replicas = 0;
        assert!(matches!(
            validate_serving(&[zero], &topo, 3),
            Err(SimError::InvalidServingJob { .. })
        ));
        let high_class = ok.clone().class(JobClass(7));
        assert!(matches!(
            validate_serving(&[high_class], &topo, 3),
            Err(SimError::InvalidServingJob { .. })
        ));
        let big = ServingJob::new(workload(10.0, 10), 3, 2);
        assert_eq!(
            validate_serving(&[big], &topo, 3),
            Err(SimError::ServingOvercommitted {
                demand: 6,
                total_gpus: 4
            })
        );
        let mut bad_wl = workload(10.0, 10);
        bad_wl.slo_s = -1.0;
        assert!(matches!(
            validate_serving(&[ServingJob::new(bad_wl, 1, 1)], &topo, 3),
            Err(SimError::InvalidServingJob { .. })
        ));
    }
}
