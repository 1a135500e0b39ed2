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
//! Requests flow FIFO through a per-deployment queue into the
//! push-to-deadline batcher ([`batcher::form_batch`]); each batch runs on
//! the earliest-free replica for `(overhead + Σ work) × slowdown`
//! seconds. Processing is continuous-time and advanced lazily to the
//! round clock (`ServingEngine::advance_to`): decisions depend only on
//! the queue contents at each batch's start time, never on the stepping
//! granularity, so event-driven and fixed-round runs produce identical
//! serving outcomes.
//!
//! Completed-request latencies feed [`ServingMetrics`] — SLO attainment,
//! goodput, and p50/p95/p99 latency — reported per deployment in
//! [`SimResult::serving`](crate::SimResult::serving).

pub mod batcher;

pub use batcher::{form_batch, BatcherConfig};

use crate::engine::Observer;
use crate::error::SimError;
use crate::observe::ServingBatchEvent;
use crate::placement::{validate_allocation, PlacementCtx, PlacementPolicy, PlacementRequest};
use crate::state::{ReplicaState, ServingState};
use pal_cluster::{ClusterState, ClusterTopology, JobClass, LocalityModel, VariabilityProfile};
use pal_gpumodel::Workload;
use pal_trace::{JobId, RequestStream, ServingRequest, ServingWorkload};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

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
}

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

/// Runtime state of one [`ServingJob`]'s deployment.
#[derive(Debug)]
struct Deployment {
    name: String,
    cfg: BatcherConfig,
    gpus: usize,
    /// The workload behind `stream` — kept so state import can rebuild
    /// the stream at the exported position (streams are deterministic
    /// per workload seed, so position is just a pull count).
    workload: Arc<ServingWorkload>,
    stream: RequestStream,
    /// One-slot stream lookahead: the next request not yet queued.
    next: Option<ServingRequest>,
    queue: VecDeque<ServingRequest>,
    replicas: Vec<Replica>,
    batch: Vec<ServingRequest>,
    total: u64,
    arrived: u64,
    completed: u64,
    batches: u64,
    slo_met: u64,
    latencies: Vec<f64>,
    first_arrival: f64,
    last_finish: f64,
}

impl Deployment {
    fn is_done(&self) -> bool {
        self.completed >= self.total
    }

    /// Process every batch whose start time is `≤ t_end`. Start times
    /// depend only on replica availability and request arrivals — never
    /// on `t_end` — so any partition of the timeline into `advance_to`
    /// calls yields identical batches, latencies, and counters. Each
    /// executed batch is reported through `obs` (extra sink only; the
    /// deployment's own counters are the built-in accumulators here).
    fn advance_to(&mut self, t_end: f64, obs: &mut Observer<'_>) {
        while !self.is_done() {
            let head_arrival = match self.queue.front() {
                Some(r) => r.arrival,
                None => match &self.next {
                    Some(r) => r.arrival,
                    None => unreachable!("pending requests but none left to pull"),
                },
            };
            // Earliest-free replica, lowest index on ties.
            let mut ri = 0usize;
            for i in 1..self.replicas.len() {
                if self.replicas[i].free_at < self.replicas[ri].free_at {
                    ri = i;
                }
            }
            let start = self.replicas[ri].free_at.max(head_arrival);
            if start > t_end {
                return;
            }
            // Everything that has arrived by the batch's start is eligible.
            while let Some(r) = self.next.take() {
                if r.arrival <= start {
                    if self.arrived == 0 {
                        self.first_arrival = r.arrival;
                    }
                    self.arrived += 1;
                    self.queue.push_back(r);
                    self.next = self.stream.next();
                } else {
                    self.next = Some(r);
                    break;
                }
            }
            let slowdown = self.replicas[ri].slowdown;
            form_batch(&mut self.queue, start, slowdown, &self.cfg, &mut self.batch);
            let work: f64 = self.batch.iter().map(|r| r.work).sum();
            let finish = start + (self.cfg.batch_overhead_s + work) * slowdown;
            let mut batch_slo_met = 0usize;
            for r in &self.batch {
                self.latencies.push(finish - r.arrival);
                if finish <= r.deadline + EPS {
                    self.slo_met += 1;
                    batch_slo_met += 1;
                }
            }
            self.completed += self.batch.len() as u64;
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
                    batch_size: self.batch.len(),
                    slo_met: batch_slo_met,
                    queued: self.queue.len(),
                });
            }
        }
    }

    fn export_state(&self) -> ServingState {
        ServingState {
            workload: self.name.clone(),
            gpus: self.gpus,
            arrived: self.arrived,
            next: self.next,
            queue: self.queue.iter().copied().collect(),
            completed: self.completed,
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

    /// Restore a state exported from the same workload. The stream is
    /// repositioned by replaying pulls against a fresh stream — each
    /// queued arrival consumed one pull, plus one for the lookahead —
    /// then the lookahead and queue are overwritten wholesale, so the
    /// resumed deployment sees exactly the continuation the exported one
    /// would have. A state [`Deployment::check_state`] refuses leaves the
    /// deployment untouched.
    fn import_state(&mut self, s: &ServingState) -> Result<(), String> {
        self.check_state(s)?;
        let mut stream = self.workload.stream();
        for _ in 0..s.arrived + u64::from(s.next.is_some()) {
            stream.next();
        }
        self.stream = stream;
        self.next = s.next;
        self.queue = s.queue.iter().copied().collect();
        self.arrived = s.arrived;
        self.completed = s.completed;
        self.batches = s.batches;
        self.slo_met = s.slo_met;
        self.latencies = s.latencies.clone();
        self.first_arrival = s.first_arrival;
        self.last_finish = s.last_finish;
        for (r, rs) in self.replicas.iter_mut().zip(&s.replicas) {
            r.slowdown = rs.slowdown;
            r.free_at = rs.free_at;
        }
        self.batch.clear();
        Ok(())
    }

    /// Refuse a state that disagrees with this deployment or with itself.
    /// Without the counter and value checks, a stream position past the
    /// workload's end replays (or overflows) an unbounded pull count, a
    /// lookahead missing mid-stream reaches `advance_to`'s
    /// `unreachable!`, and a NaN latency panics in
    /// [`Deployment::metrics`].
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
        // `next` is `None` exactly when the stream is exhausted, so this
        // also bounds the replayed pull count `arrived + next.is_some()`.
        if s.arrived > self.total || s.next.is_none() != (s.arrived == self.total) {
            return fail(format!(
                "arrived {} with{} a lookahead request does not fit a {}-request stream",
                s.arrived,
                if s.next.is_some() { "" } else { "out" },
                self.total
            ));
        }
        if s.completed.checked_add(s.queue.len() as u64) != Some(s.arrived) {
            return fail(format!(
                "completed {} + queued {} != arrived {}",
                s.completed,
                s.queue.len(),
                s.arrived
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
        if let Some(l) = s.latencies.iter().find(|l| !(l.is_finite() && **l >= 0.0)) {
            return fail(format!("latency {l} is not finite and non-negative"));
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
        Ok(())
    }

    fn snapshot(&self) -> ServingSnapshot {
        ServingSnapshot {
            workload: self.name.clone(),
            arrived: self.arrived,
            completed: self.completed,
            slo_met: self.slo_met,
            queued: self.queue.len(),
        }
    }

    fn metrics(&self) -> ServingMetrics {
        let mut sorted = self.latencies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN latency"));
        let pct = |p: f64| {
            if sorted.is_empty() {
                0.0
            } else {
                pal_stats::percentile_of_sorted(&sorted, p)
            }
        };
        ServingMetrics {
            workload: self.name.clone(),
            replicas: self.replicas.len(),
            gpus: self.gpus,
            requests: self.completed,
            batches: self.batches,
            slo_attained: self.slo_met,
            latency_mean: pal_stats::mean(&sorted).unwrap_or(0.0),
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
    /// the trace's job ids.
    pub(crate) fn place(
        jobs: &[ServingJob],
        cluster: &mut ClusterState,
        placement: &mut dyn PlacementPolicy,
        profile: &VariabilityProfile,
        truth: &VariabilityProfile,
        locality: &LocalityModel,
        first_replica_id: u32,
    ) -> ServingEngine {
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
        let mut deployments = Vec::with_capacity(jobs.len());
        let mut next_replica = 0usize;
        let mut gpus_held = 0usize;
        for job in jobs {
            let replicas: Vec<Replica> = (0..job.replicas)
                .map(|k| Replica {
                    slowdown: slowdowns[next_replica + k],
                    free_at: 0.0,
                })
                .collect();
            next_replica += job.replicas;
            gpus_held += job.total_gpus();
            let mut stream = job.workload.stream();
            let next = stream.next();
            deployments.push(Deployment {
                name: job.workload.name.clone(),
                cfg: job.batcher,
                gpus: job.total_gpus(),
                workload: Arc::clone(&job.workload),
                stream,
                next,
                queue: VecDeque::new(),
                replicas,
                batch: Vec::new(),
                total: job.workload.num_requests,
                arrived: 0,
                completed: 0,
                batches: 0,
                slo_met: 0,
                latencies: Vec::new(),
                first_arrival: 0.0,
                last_finish: 0.0,
            });
        }
        ServingEngine {
            deployments,
            gpus_held,
        }
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

    /// Point-in-time progress of every deployment.
    pub(crate) fn snapshots(&self) -> Vec<ServingSnapshot> {
        self.deployments.iter().map(Deployment::snapshot).collect()
    }

    /// Final (or current) per-deployment metrics.
    pub(crate) fn metrics(&self) -> Vec<ServingMetrics> {
        self.deployments.iter().map(Deployment::metrics).collect()
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

    /// Mean requests per batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.requests as f64 / self.batches as f64
    }
}

/// Point-in-time progress of one serving deployment, reported in
/// [`SimSnapshot::serving`](crate::SimSnapshot::serving).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingSnapshot {
    /// Workload name of the deployment.
    pub workload: String,
    /// Requests that have arrived (entered the queue) so far.
    pub arrived: u64,
    /// Requests served so far.
    pub completed: u64,
    /// Requests that met their deadline so far.
    pub slo_met: u64,
    /// Requests waiting in the queue.
    pub queued: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PackedPlacement;
    use pal_cluster::ClusterTopology;

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
        let s0 = &e.snapshots()[0];
        assert_eq!(s0.completed, 0);
        advance(&mut e, 4.0);
        let s1 = &e.snapshots()[0];
        assert!(s1.completed > 0 && s1.completed < 100);
        assert!(s1.arrived >= s1.completed);
        advance(&mut e, 1e12);
        assert_eq!(e.snapshots()[0].completed, 100);
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
            );
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
