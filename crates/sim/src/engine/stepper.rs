//! [`Simulation`]: the public pause-inspect-resume driver over the engine.
//!
//! [`Scenario::start`](crate::Scenario::start) validates a scenario and
//! returns a `Simulation` that owns everything the run needs. Callers can
//! [`step`](Simulation::step) one scheduling round at a time, read the
//! clocks, [`export_state`](Simulation::export_state) the whole paused run
//! (clocks, per-job progress, rejections, serving positions and counters),
//! and either keep stepping or finish with
//! [`run_to_completion`](Simulation::run_to_completion). Stepping is
//! side-effect-free between rounds: a run driven round-by-round (with any
//! number of exports taken along the way) is bit-identical to
//! [`Scenario::run`](crate::Scenario::run).

use super::round::{step_round, RoundCtx, StepOutcome};
use super::state::{EngineState, RoundScratch};
use super::telemetry::{build_result, Observer, RunLabels, Telemetry};
use crate::admission::AdmissionPolicy;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::job_state::ActiveJob;
use crate::metrics::SimResult;
use crate::observe::MetricsSink;
use crate::placement::PlacementPolicy;
use crate::sched::SchedulingPolicy;
use crate::serving::{ServingEngine, ServingJob, ServingMetrics};
use crate::state::{trace_digest, JobProgress, SimState, STATE_FORMAT_VERSION};
use pal_cluster::{ClusterTopology, LocalityModel, VariabilityProfile};
use pal_trace::Trace;
use std::cell::OnceCell;
use std::sync::Arc;

/// The resolved ingredients of a run, bundled by
/// [`Scenario::start`](crate::Scenario::start).
///
/// The immutable inputs arrive as `Arc` handles (see the
/// [`Scenario` docs](crate::Scenario#shared-inputs)): a sweep
/// starting many simulations over the same trace/profile/locality model
/// shares one copy of each, and building a stepper copies nothing but the
/// per-run job state.
pub(crate) struct SimulationParts {
    pub trace: Arc<Trace>,
    pub topology: ClusterTopology,
    pub profile: Arc<VariabilityProfile>,
    pub truth: Arc<VariabilityProfile>,
    pub locality: Arc<LocalityModel>,
    pub scheduler: Box<dyn SchedulingPolicy + Send + Sync>,
    pub placement: Box<dyn PlacementPolicy + Send>,
    pub admission: Box<dyn AdmissionPolicy + Send + Sync>,
    pub config: SimConfig,
    pub serving: Vec<ServingJob>,
}

/// A paused-or-running simulation: the public stepper over the engine.
///
/// Obtained from [`Scenario::start`](crate::Scenario::start). Stepping is
/// side-effect-free between rounds: a run driven round-by-round (with any
/// number of [`export_state`](Simulation::export_state)s taken along the way) is
/// bit-identical to [`Scenario::run`](crate::Scenario::run).
/// [`Scenario::run`](crate::Scenario::run) and [`Campaign`](crate::Campaign)
/// are thin drivers over this stepper.
///
/// # Engine layers
///
/// Underneath, the round-based engine has three crate-private layers:
///
/// - the engine state: the job table, cluster occupancy, clocks, the
///   incrementally maintained active queue, and the scratch buffers the
///   hot loop reuses so that a steady-state round performs no heap
///   allocation;
/// - the round: one scheduling round (admission → ordering → prefix
///   marking → placement → execution → telemetry), advancing the engine
///   state by one epoch, plus the one fast path that skips stable rounds
///   (see below);
/// - telemetry: the accumulators (GPUs-in-use series, busy GPU-seconds,
///   per-round policy compute time) and the final
///   [`SimResult`](crate::SimResult) assembly.
///
/// # Stepping modes
///
/// The engine steps in one of two modes, chosen by
/// [`SimConfig::event_driven`](crate::SimConfig::event_driven):
///
/// - *event-driven* (the default): after a sticky round in which every
///   prefix job kept running, the engine fast-replays the rounds up to
///   the next event (arrival, completion, or a change in the re-derived
///   scheduling order) in one hop;
/// - *fixed-round* (`event_driven = false`): every round is executed.
///   This is the reference oracle the goldens and proptests compare
///   against.
///
/// Both modes give bit-identical outcomes; only
/// [`executed_rounds`](crate::SimResult::executed_rounds) records the
/// difference.
pub struct Simulation {
    trace_name: String,
    /// [`trace_digest`] of the trace's specs, computed by the first
    /// export or import that needs it (a what-if branch needs it twice).
    trace_digest: OnceCell<u64>,
    ideal_gpu_seconds: f64,
    /// Training capacity: cluster GPUs minus those serving replicas hold
    /// (the whole cluster when no serving jobs are deployed).
    training_gpus: usize,
    profile: Arc<VariabilityProfile>,
    truth: Arc<VariabilityProfile>,
    locality: Arc<LocalityModel>,
    scheduler: Box<dyn SchedulingPolicy + Send + Sync>,
    placement: Box<dyn PlacementPolicy + Send>,
    admission: Box<dyn AdmissionPolicy + Send + Sync>,
    config: SimConfig,
    state: EngineState,
    telemetry: Telemetry,
    serving: Option<ServingEngine>,
    /// Optional attached [`MetricsSink`] — events stream here in addition
    /// to the built-in accumulators. `None` costs one dead branch per
    /// event site.
    sink: Option<Box<dyn MetricsSink + Send>>,
}

impl Simulation {
    /// Build a stepper from resolved, validated parts. Fails only when a
    /// serving deployment's request or latency log cannot be allocated.
    pub(crate) fn from_parts(parts: SimulationParts) -> Result<Self, SimError> {
        let SimulationParts {
            trace,
            topology,
            profile,
            truth,
            locality,
            scheduler,
            mut placement,
            admission,
            config,
            serving,
        } = parts;
        let total_gpus = topology.total_gpus();
        let mut state = EngineState::new(&trace, topology);
        // Serving replicas are placed once, up front, through the same
        // placement policy training jobs use; the GPUs they hold are
        // carved out of the training capacity for the whole run.
        let serving = if serving.is_empty() {
            None
        } else {
            Some(ServingEngine::place(
                &serving,
                &mut state.cluster,
                placement.as_mut(),
                &profile,
                &truth,
                &locality,
                trace.len() as u32,
            )?)
        };
        let held = serving.as_ref().map_or(0, ServingEngine::gpus_held);
        Ok(Simulation {
            ideal_gpu_seconds: trace.total_ideal_gpu_service(),
            trace_name: trace.name.clone(),
            trace_digest: OnceCell::new(),
            training_gpus: total_gpus - held,
            profile,
            truth,
            locality,
            scheduler,
            placement,
            admission,
            config,
            state,
            telemetry: Telemetry::new(),
            serving,
            sink: None,
        })
    }

    /// Attach a [`MetricsSink`]: from the next [`step`](Simulation::step)
    /// on, every engine event (round boundaries, job lifecycle
    /// transitions, serving batches, accumulator updates) is also
    /// delivered to `sink`. Replaces any previously attached sink. Sinks
    /// observe without perturbing: the run's outcome is bit-identical
    /// whatever the sink does. See [`MetricsSink`] for event cadence.
    pub fn attach_sink(&mut self, sink: Box<dyn MetricsSink + Send>) {
        self.sink = Some(sink);
    }

    /// Advance the simulation by one scheduling round (or one idle
    /// fast-forward hop when nothing is active).
    ///
    /// Returns [`StepOutcome::Complete`] — idempotently, without advancing
    /// anything — once every job has finished or been rejected.
    /// Configuration errors surface exactly as they do from
    /// [`Scenario::run`](crate::Scenario::run) and are stable: stepping
    /// again re-derives the same error.
    pub fn step(&mut self) -> Result<StepOutcome, SimError> {
        self.step_until(f64::INFINITY)
    }

    /// [`step`](Simulation::step), except that an event-driven skip hop
    /// commits no round starting at or after `skip_until`. Stepping while
    /// `time() < skip_until` therefore stops on the first round boundary
    /// at or after it, exactly as fixed-round stepping does.
    pub(crate) fn step_until(&mut self, skip_until: f64) -> Result<StepOutcome, SimError> {
        let ctx = RoundCtx {
            profile: &self.profile,
            truth: &self.truth,
            locality: &self.locality,
            config: &self.config,
            total_gpus: self.training_gpus,
            skip_until,
        };
        let mut obs = Observer::new(
            &mut self.telemetry,
            self.sink.as_deref_mut().map(|s| s as &mut dyn MetricsSink),
        );
        step_round(
            &mut self.state,
            &mut obs,
            &ctx,
            self.scheduler.as_ref(),
            self.placement.as_mut(),
            self.admission.as_ref(),
            &mut self.serving,
        )
    }

    /// Export the run's persistent state at the current round boundary:
    /// the progress of every admitted job, cluster occupancy, clocks,
    /// telemetry accumulators, the placement policy's opaque state, and
    /// every serving deployment's position. Job specs and the jobs
    /// admission has not reached are the trace's and are left out, as is
    /// per-round scratch, which is rebuilt on resume (see
    /// [`SimState`]'s layout).
    ///
    /// Feeding the result to [`import_state`](Simulation::import_state)
    /// on a freshly [`Scenario::start`](crate::Scenario::start)-ed
    /// simulation of the same scenario resumes the run bit-identically:
    /// the resumed run's [`SimResult`] equals the uninterrupted one's.
    pub fn export_state(&self) -> SimState {
        SimState {
            version: STATE_FORMAT_VERSION,
            trace: self.trace_name.clone(),
            trace_jobs: self.state.jobs.len(),
            trace_digest: self.trace_digest(),
            scheduler: self.scheduler.name().to_string(),
            placement: self.placement.name().to_string(),
            sticky: self.config.sticky,
            time: self.state.t,
            rounds: self.state.rounds,
            executed_rounds: self.state.executed_rounds,
            finished: self.state.finished,
            next_admit: self.state.next_admit,
            active_queue: self.state.active_queue.clone(),
            active_demand: self.state.active_demand,
            jobs: self.state.jobs[..self.state.next_admit]
                .iter()
                .map(JobProgress::from)
                .collect(),
            rejected: (0..self.state.next_admit)
                .filter(|&ji| self.state.rejected[ji])
                .collect(),
            cluster: self.state.cluster.clone(),
            gpus_in_use: self.telemetry.gpus_in_use.clone(),
            busy_gpu_seconds: self.telemetry.busy_gpu_seconds,
            placement_compute_times: self.telemetry.placement_compute_times.clone(),
            placement_state: self.placement.export_state(),
            serving: self
                .serving
                .as_ref()
                .map(ServingEngine::export_state)
                .unwrap_or_default(),
        }
    }

    /// Restore a state produced by [`export_state`](Simulation::export_state)
    /// into this freshly started simulation, replacing its `t = 0` state.
    ///
    /// The receiving simulation must have been started from a compatible
    /// scenario: same format version, same trace (name, job count and
    /// spec digest), same topology, and matching serving deployments.
    /// Every job is rebuilt from this simulation's own spec plus the
    /// state's progress; jobs admission has not reached start fresh. The
    /// state must also be internally consistent: finite clocks that do
    /// not run backwards, unique in-range queue and rejection indices,
    /// counters that match the jobs, finite non-negative work values,
    /// allocations that match the specs' demands and the cluster, and no
    /// more executed than simulated rounds. The *policies* may
    /// differ — that is the point of what-if forking — except that a
    /// state carrying `placement_state` must be imported into the same
    /// placement policy it was exported from (opaque policy state does
    /// not transfer across policies; clear it to fork onto a fresh
    /// policy). Incompatibilities return [`SimError::StateImport`]; a
    /// failed import may leave the simulation partially restored, so
    /// discard it and start a fresh one.
    pub fn import_state(&mut self, state: &SimState) -> Result<(), SimError> {
        let fail = |reason: String| SimError::StateImport { reason };
        if state.version != STATE_FORMAT_VERSION {
            return Err(fail(format!(
                "state format v{} unsupported (this build reads v{STATE_FORMAT_VERSION})",
                state.version
            )));
        }
        if state.trace != self.trace_name {
            return Err(fail(format!(
                "state is from trace `{}`, simulation runs `{}`",
                state.trace, self.trace_name
            )));
        }
        if state.trace_jobs != self.state.jobs.len() {
            return Err(fail(format!(
                "state is from a trace of {} jobs, trace has {}",
                state.trace_jobs,
                self.state.jobs.len()
            )));
        }
        let digest = self.trace_digest();
        if state.trace_digest != digest {
            return Err(fail(format!(
                "state's trace digest {:#018x} does not match the trace's job specs \
                 ({digest:#018x})",
                state.trace_digest
            )));
        }
        if state.cluster.topology() != self.state.cluster.topology() {
            return Err(fail(format!(
                "state topology {:?} does not match simulation topology {:?}",
                state.cluster.topology(),
                self.state.cluster.topology()
            )));
        }
        state.validate(&self.state.jobs).map_err(&fail)?;
        if let Some(ps) = &state.placement_state {
            if state.placement != self.placement.name() {
                return Err(fail(format!(
                    "state carries `{}` placement state but the simulation uses `{}` \
                     (clear placement_state to fork onto a fresh policy)",
                    state.placement,
                    self.placement.name()
                )));
            }
            self.placement.import_state(ps).map_err(&fail)?;
        }
        match (&mut self.serving, state.serving.is_empty()) {
            (None, true) => {}
            (Some(engine), _) => engine.import_state(&state.serving).map_err(&fail)?,
            (None, false) => {
                return Err(fail(format!(
                    "state has {} serving deployments, simulation has none",
                    state.serving.len()
                )));
            }
        }
        for (ji, job) in self.state.jobs.iter_mut().enumerate() {
            match state.jobs.get(ji) {
                Some(progress) => progress.restore(job),
                None => *job = ActiveJob::new(job.spec.clone()),
            }
        }
        self.state.rejected.fill(false);
        for &ji in &state.rejected {
            self.state.rejected[ji] = true;
        }
        self.state.cluster = state.cluster.clone();
        self.state.t = state.time;
        self.state.finished = state.finished;
        self.state.next_admit = state.next_admit;
        self.state.rounds = state.rounds;
        self.state.executed_rounds = state.executed_rounds;
        self.state.active_queue = state.active_queue.clone();
        self.state.active_demand = state.active_demand;
        // Scratch is derived, per-executed-round state: reset it exactly
        // as `EngineState::new` builds it.
        self.state.scratch = RoundScratch::new(self.state.jobs.len());
        self.telemetry.gpus_in_use = state.gpus_in_use.clone();
        self.telemetry.busy_gpu_seconds = state.busy_gpu_seconds;
        self.telemetry.placement_compute_times = state.placement_compute_times.clone();
        Ok(())
    }

    /// [`trace_digest`] of the trace this simulation runs.
    fn trace_digest(&self) -> u64 {
        *self
            .trace_digest
            .get_or_init(|| trace_digest(self.state.jobs.iter().map(|job| &job.spec)))
    }

    /// Simulated time, seconds: the start of the next round to execute.
    pub fn time(&self) -> f64 {
        self.state.t
    }

    /// Simulated scheduling rounds elapsed so far, exactly as fixed-round
    /// stepping counts them: event-driven skipping replays the counter for
    /// every round it hops over (idle fast-forwards still count as one).
    pub fn rounds(&self) -> usize {
        self.state.rounds
    }

    /// Rounds the engine actually executed — full decision rounds plus
    /// idle fast-forward hops. With
    /// [`SimConfig::event_driven`](crate::SimConfig::event_driven) on,
    /// sticky runs execute far fewer rounds than they simulate; with it
    /// off this equals [`rounds`](Simulation::rounds).
    pub fn executed_rounds(&self) -> usize {
        self.state.executed_rounds
    }

    /// Whether the run is over: every training job completed or rejected,
    /// and every serving deployment drained.
    pub fn is_complete(&self) -> bool {
        self.state.is_complete() && self.serving.as_ref().is_none_or(ServingEngine::is_done)
    }

    /// The run's result, if it has completed; `None` while jobs remain.
    /// Leaves the simulation as it was: each serving summary sorts a copy
    /// of its deployment's latency log.
    pub fn result(&self) -> Option<SimResult> {
        if !self.is_complete() {
            return None;
        }
        let serving = self.serving.as_ref().map(ServingEngine::metrics);
        Some(self.result_with(serving.unwrap_or_default()))
    }

    /// Step until every job has left the system, then return the result.
    /// Equal to [`result`](Simulation::result) on the finished run, but
    /// each serving summary sorts its deployment's own latency log.
    pub fn run_to_completion(mut self) -> Result<SimResult, SimError> {
        while self.step()? == StepOutcome::Running {}
        assert!(self.is_complete(), "stepper reported completion");
        let serving = self.serving.take().map(ServingEngine::into_metrics);
        Ok(self.result_with(serving.unwrap_or_default()))
    }

    /// The [`SimResult`] of a completed run with these serving metrics.
    fn result_with(&self, serving: Vec<ServingMetrics>) -> SimResult {
        build_result(
            &self.state,
            &self.telemetry,
            RunLabels {
                trace_name: &self.trace_name,
                scheduler_name: self.scheduler.name(),
                placement_name: self.placement.name(),
                sticky: self.config.sticky,
            },
            self.ideal_gpu_seconds,
            serving,
        )
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("trace", &self.trace_name)
            .field("time", &self.state.t)
            .field("rounds", &self.state.rounds)
            .field("finished", &self.state.finished)
            .field("total_jobs", &self.state.jobs.len())
            .field("scheduler", &self.scheduler.name())
            .field("placement", &self.placement.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job_state::JobPhase;
    use crate::scenario::Scenario;
    use pal_cluster::{ClusterState, GpuId, JobClass};
    use pal_gpumodel::Workload;
    use pal_trace::{JobId, JobSpec};
    use serde::{Deserialize, Serialize, Value};

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

    fn two_job_scenario() -> Scenario {
        Scenario::new(
            Trace::new(
                "step",
                vec![spec(0, 0.0, 2, 700.0), spec(1, 100.0, 2, 400.0)],
            ),
            ClusterTopology::new(1, 4),
        )
    }

    #[test]
    fn stepping_advances_clocks_monotonically() {
        let mut sim = two_job_scenario().start().unwrap();
        assert_eq!(sim.time(), 0.0);
        assert_eq!(sim.rounds(), 0);
        let mut last = 0.0;
        while sim.step().unwrap() == StepOutcome::Running {
            assert!(sim.time() > last, "time must advance");
            last = sim.time();
        }
        assert!(sim.is_complete());
        assert_eq!(sim.export_state().finished, 2);
    }

    #[test]
    fn result_is_none_until_complete() {
        let mut sim = two_job_scenario().start().unwrap();
        assert!(sim.result().is_none());
        while sim.step().unwrap() == StepOutcome::Running {}
        let r = sim.result().expect("complete run has a result");
        assert_eq!(r.records.len(), 2);
    }

    #[test]
    fn step_after_completion_is_idempotent() {
        let mut sim = two_job_scenario().start().unwrap();
        while sim.step().unwrap() == StepOutcome::Running {}
        let rounds = sim.rounds();
        let r1 = sim.result().unwrap();
        assert_eq!(sim.step().unwrap(), StepOutcome::Complete);
        assert_eq!(sim.rounds(), rounds, "completed stepper must not advance");
        assert!(r1.same_outcome(&sim.result().unwrap()));
    }

    #[test]
    fn empty_trace_completes_immediately() {
        let mut sim = Scenario::new(Trace::new("empty", vec![]), ClusterTopology::new(1, 4))
            .start()
            .unwrap();
        assert!(sim.is_complete());
        assert_eq!(sim.step().unwrap(), StepOutcome::Complete);
        assert_eq!(sim.result().unwrap().rounds, 0);
    }

    #[test]
    fn snapshot_reflects_mid_run_state() {
        let mut sim = two_job_scenario().start().unwrap();
        sim.step().unwrap();
        let state = sim.export_state();
        assert_eq!(state.rounds, 1);
        assert_eq!(state.time, 300.0);
        assert_eq!(state.trace_jobs, 2);
        // Job 0 ran the first round; job 1 arrives at 100 s, after the
        // first round's admission, so it has no progress entry yet.
        assert_eq!(state.jobs.len(), 1);
        assert!(matches!(state.jobs[0].phase, JobPhase::Running { .. }));
        assert!(state.rejected.is_empty());
    }

    #[test]
    fn stepper_errors_are_stable() {
        let trace = Trace::new("big", vec![spec(0, 0.0, 64, 100.0)]);
        let mut sim = Scenario::new(trace, ClusterTopology::new(1, 4))
            .start()
            .unwrap();
        let rounds_before = sim.rounds();
        let e1 = sim.step().unwrap_err();
        let e2 = sim.step().unwrap_err();
        assert_eq!(e1, e2);
        assert!(matches!(e1, SimError::OversizedJob { .. }));
        assert_eq!(
            sim.rounds(),
            rounds_before,
            "failed steps must not count rounds"
        );
    }

    #[test]
    fn livelock_error_is_stable_across_retries() {
        use crate::config::SimConfig;
        // Two serialized 4-GPU jobs with a 1-round cap: the second round
        // can never run, so every step after the first is Livelock — with
        // an identical payload each time, however often it is retried.
        let trace = Trace::new("cap", vec![spec(0, 0.0, 4, 900.0), spec(1, 0.0, 4, 900.0)]);
        let mut sim = Scenario::new(trace, ClusterTopology::new(1, 4))
            .config(SimConfig {
                max_rounds: 1,
                ..Default::default()
            })
            .start()
            .unwrap();
        assert_eq!(sim.step().unwrap(), StepOutcome::Running);
        let e1 = sim.step().unwrap_err();
        let e2 = sim.step().unwrap_err();
        let e3 = sim.step().unwrap_err();
        assert_eq!(e1, SimError::Livelock { rounds: 1 });
        assert_eq!(e1, e2);
        assert_eq!(e2, e3);
        assert_eq!(sim.rounds(), 1, "failed steps must not count rounds");
    }

    #[test]
    fn event_driven_sticky_step_hops_to_next_event() {
        use crate::config::SimConfig;
        // One 10-round job under sticky FIFO: after the round that starts
        // it, nothing can change until its completion, so the first step
        // hops straight to the round before it finishes.
        let trace = Trace::new("hop", vec![spec(0, 0.0, 2, 3000.0)]);
        let mut sim = Scenario::new(trace, ClusterTopology::new(1, 4))
            .config(SimConfig::sticky())
            .start()
            .unwrap();
        assert_eq!(sim.step().unwrap(), StepOutcome::Running);
        assert_eq!(sim.executed_rounds(), 1);
        assert_eq!(sim.rounds(), 9, "8 decision-free rounds hopped");
        assert_eq!(sim.step().unwrap(), StepOutcome::Complete);
        assert_eq!(sim.rounds(), 10);
        assert_eq!(sim.executed_rounds(), 2);
        let r = sim.result().unwrap();
        assert_eq!(r.rounds, 10);
        assert_eq!(r.executed_rounds, 2);
        assert!((r.records[0].finish - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_round_mode_executes_every_round() {
        use crate::config::SimConfig;
        let trace = Trace::new("fixed", vec![spec(0, 0.0, 2, 3000.0)]);
        let mut sim = Scenario::new(trace, ClusterTopology::new(1, 4))
            .config(SimConfig::sticky())
            .event_driven(false)
            .start()
            .unwrap();
        while sim.step().unwrap() == StepOutcome::Running {}
        assert_eq!(sim.rounds(), 10);
        assert_eq!(sim.executed_rounds(), 10);
    }

    #[test]
    fn export_import_resumes_bit_identically() {
        // Uninterrupted reference run.
        let reference = two_job_scenario()
            .start()
            .unwrap()
            .run_to_completion()
            .unwrap();
        // Run 1 round, export, import into a fresh sim, finish both.
        let mut first = two_job_scenario().start().unwrap();
        first.step().unwrap();
        let state = first.export_state();
        assert_eq!(state.version, crate::state::STATE_FORMAT_VERSION);
        assert_eq!(state.time, 300.0);
        let mut resumed = two_job_scenario().start().unwrap();
        resumed.import_state(&state).unwrap();
        assert_eq!(resumed.time(), 300.0);
        assert_eq!(resumed.rounds(), 1);
        let from_resume = resumed.run_to_completion().unwrap();
        let from_first = first.run_to_completion().unwrap();
        // `same_outcome`: placement compute times are wall-clock
        // measurements and never reproduce across runs.
        assert!(reference.same_outcome(&from_first));
        assert!(reference.same_outcome(&from_resume));
        assert_eq!(reference.executed_rounds, from_resume.executed_rounds);
    }

    /// A scenario exercising both kinds of hidden run state: the
    /// placement RNG (Random) and a 400-request serving deployment.
    fn serving_scenario(rate_per_s: f64) -> Scenario {
        use crate::placement::RandomPlacement;
        use pal_trace::ServingWorkload;
        let w = ServingWorkload {
            work_median_s: 0.01,
            work_sigma: 0.2,
            slo_s: 0.5,
            ..ServingWorkload::poisson("chat", rate_per_s, 400)
        };
        Scenario::new(
            Trace::new(
                "mix",
                vec![spec(0, 0.0, 2, 900.0), spec(1, 200.0, 1, 500.0)],
            ),
            ClusterTopology::new(2, 4),
        )
        .placement(RandomPlacement::new(11))
        .serving(ServingJob::new(w, 1, 1))
    }

    #[test]
    fn export_import_resumes_serving_and_rng_state() {
        let scenario = || serving_scenario(20.0);
        let reference = scenario().start().unwrap().run_to_completion().unwrap();
        let mut first = scenario().start().unwrap();
        first.step().unwrap();
        first.step().unwrap();
        let state = first.export_state();
        assert!(state.placement_state.is_some(), "Random exports RNG state");
        assert_eq!(state.serving.len(), 1);
        assert!(state.serving[0].arrived > 0, "serving stream is mid-flight");
        let mut resumed = scenario().start().unwrap();
        resumed.import_state(&state).unwrap();
        let from_resume = resumed.run_to_completion().unwrap();
        assert!(reference.same_outcome(&from_resume));
        assert!(reference.same_outcome(&first.run_to_completion().unwrap()));
    }

    #[test]
    fn borrowed_and_consuming_results_agree_on_serving() {
        let mut stepped = serving_scenario(20.0).start().unwrap();
        while stepped.step().unwrap() == StepOutcome::Running {}
        let log = stepped.export_state().serving[0].latencies.clone();
        assert!(log.windows(2).any(|w| w[0] > w[1]), "log is not pre-sorted");
        let first = stepped.result().unwrap();
        let second = stepped.result().unwrap();
        assert_eq!(first.serving, second.serving);
        assert_eq!(
            stepped.export_state().serving[0].latencies,
            log,
            "result() sorts a copy, not the simulation's latency log"
        );
        let consumed = serving_scenario(20.0)
            .start()
            .unwrap()
            .run_to_completion()
            .unwrap();
        assert_eq!(first.serving, consumed.serving);
        assert_eq!(first.serving[0].requests, 400);
    }

    #[test]
    fn export_state_round_trips_through_serde() {
        let mut sim = two_job_scenario().start().unwrap();
        sim.step().unwrap();
        let state = sim.export_state();
        let value = state.to_value();
        let back = crate::state::SimState::from_value(&value).unwrap();
        assert_eq!(state, back);
    }

    #[test]
    fn import_rejects_incompatible_states() {
        let mut sim = two_job_scenario().start().unwrap();
        sim.step().unwrap();
        let good = sim.export_state();

        let mut wrong_version = good.clone();
        wrong_version.version = 999;
        let mut fresh = two_job_scenario().start().unwrap();
        assert!(matches!(
            fresh.import_state(&wrong_version),
            Err(SimError::StateImport { .. })
        ));

        let mut wrong_trace = good.clone();
        wrong_trace.trace = "other".into();
        assert!(fresh.import_state(&wrong_trace).is_err());

        // Foreign placement state must not restore into a different policy.
        let mut foreign_policy = good.clone();
        foreign_policy.placement = "Random".into();
        foreign_policy.placement_state = Some(serde::Value::Bool(true));
        assert!(fresh.import_state(&foreign_policy).is_err());

        // The same state with placement_state cleared is a legal fork.
        foreign_policy.placement_state = None;
        assert!(fresh.import_state(&foreign_policy).is_ok());
    }

    /// Export after one round of the two-job scenario, corrupt one field,
    /// and require a fresh simulation to refuse the import.
    fn assert_import_rejects(corrupt: impl Fn(&mut SimState), field: &str) {
        let mut sim = two_job_scenario().start().unwrap();
        sim.step().unwrap();
        let mut state = sim.export_state();
        assert_eq!(state.active_queue, vec![0], "job 0 is mid-run");
        corrupt(&mut state);
        let err = two_job_scenario().start().unwrap().import_state(&state);
        assert!(
            matches!(&err, Err(SimError::StateImport { reason }) if reason.contains(field)),
            "{field}: {err:?}"
        );
    }

    /// Export a serving scenario after one round, corrupt its state, and
    /// require a fresh simulation to refuse the import. At 0.5 requests/s
    /// the 400-request stream is still mid-flight after the round.
    fn assert_serving_import_rejects(corrupt: impl Fn(&mut SimState), field: &str) {
        let mut sim = serving_scenario(0.5).start().unwrap();
        sim.step().unwrap();
        let mut state = sim.export_state();
        let s = &state.serving[0];
        assert!(s.completed > 0 && s.arrived < 400, "stream is mid-flight");
        let mut fresh = serving_scenario(0.5).start().unwrap();
        fresh
            .import_state(&state)
            .expect("the uncorrupted state imports");
        corrupt(&mut state);
        let err = serving_scenario(0.5).start().unwrap().import_state(&state);
        assert!(
            matches!(&err, Err(SimError::StateImport { reason }) if reason.contains(field)),
            "{field}: {err:?}"
        );
    }

    #[test]
    fn import_rejects_serving_gpus_other_than_the_deployment() {
        // The cluster keeps agreeing with the counted GPUs, so only the
        // serving check can catch the mismatch.
        assert_serving_import_rejects(
            |s| {
                s.serving[0].gpus += 1;
                let free = s.cluster.free_gpus()[0];
                s.cluster.allocate(&[free]);
            },
            "gpus 2",
        );
    }

    #[test]
    fn import_rejects_serving_stream_position_past_the_workload() {
        // Each would index past the 400-request log in `advance_to`.
        assert_serving_import_rejects(
            |s| s.serving[0].arrived = u64::MAX,
            "arrived 18446744073709551615 do not fit a 400-request stream",
        );
        assert_serving_import_rejects(|s| s.serving[0].arrived = 401, "arrived 401 do not fit");
    }

    #[test]
    fn import_rejects_serving_queue_that_disagrees_with_counters() {
        // The queue is `completed..arrived`: empty-or-longer only.
        assert_serving_import_rejects(
            |s| {
                let d = &mut s.serving[0];
                d.completed = d.arrived + 1;
                d.latencies.resize(d.completed as usize, 0.1);
            },
            "do not fit",
        );
        // Queued requests that arrive after the next batch starts would
        // finish before they arrive.
        assert_serving_import_rejects(|s| s.serving[0].arrived = 400, "queues a request");
    }

    #[test]
    fn import_rejects_serving_latency_log_or_slo_count_past_completed() {
        assert_serving_import_rejects(
            |s| {
                s.serving[0].latencies.pop();
            },
            "latencies",
        );
        assert_serving_import_rejects(
            |s| s.serving[0].slo_met = s.serving[0].completed + 1,
            "slo_met",
        );
    }

    #[test]
    fn import_rejects_non_finite_or_negative_serving_latency() {
        // The summary sorts by bit pattern, where each of these would
        // come after every valid latency and be reported as the worst.
        assert_serving_import_rejects(|s| s.serving[0].latencies[0] = f64::NAN, "latency NaN");
        assert_serving_import_rejects(|s| s.serving[0].latencies[0] = -1.0, "latency -1");
        assert_serving_import_rejects(|s| s.serving[0].latencies[0] = -0.0, "latency -0.0");
    }

    #[test]
    fn import_rejects_bad_serving_replica_times() {
        assert_serving_import_rejects(
            |s| s.serving[0].replicas[0].slowdown = 0.0,
            "replica slowdown",
        );
        assert_serving_import_rejects(
            |s| s.serving[0].replicas[0].slowdown = f64::NAN,
            "replica slowdown",
        );
        assert_serving_import_rejects(
            |s| s.serving[0].replicas[0].free_at = f64::INFINITY,
            "replica slowdown",
        );
    }

    #[test]
    fn import_rejects_out_of_range_or_duplicate_queue_index() {
        assert_import_rejects(|s| s.active_queue.push(2), "active_queue");
        assert_import_rejects(|s| s.active_queue.push(0), "active_queue");
    }

    #[test]
    fn import_rejects_next_admit_past_job_table() {
        assert_import_rejects(|s| s.next_admit = 3, "next_admit");
    }

    #[test]
    fn import_rejects_finished_past_job_table() {
        assert_import_rejects(|s| s.finished = 3, "finished");
    }

    #[test]
    fn import_rejects_bad_remaining_work() {
        assert_import_rejects(|s| s.jobs[0].remaining_work = f64::NAN, "remaining_work");
        assert_import_rejects(|s| s.jobs[0].remaining_work = -1.0, "remaining_work");
    }

    #[test]
    fn import_rejects_bad_attained_service() {
        assert_import_rejects(
            |s| s.jobs[0].attained_service = f64::INFINITY,
            "attained_service",
        );
        assert_import_rejects(|s| s.jobs[0].attained_service = -0.5, "attained_service");
    }

    #[test]
    fn import_rejects_fewer_rounds_than_executed() {
        assert_import_rejects(|s| s.rounds = 0, "executed_rounds");
    }

    /// Admit job 1 in the exported two-job state (fresh, waiting, queued),
    /// so the state has two progress entries.
    fn admit_second_job(s: &mut SimState) {
        s.next_admit = 2;
        s.jobs
            .push(JobProgress::from(&ActiveJob::new(spec(1, 100.0, 2, 400.0))));
        s.active_queue.push(1);
        s.active_demand += 2;
    }

    #[test]
    fn import_rejects_unsorted_repeated_or_unadmitted_rejections() {
        assert_import_rejects(
            |s| s.rejected.push(1),
            "job 1 is rejected but admission has not reached it",
        );
        assert_import_rejects(|s| s.rejected.extend([0, 0]), "unsorted or repeated");
        assert_import_rejects(
            |s| {
                admit_second_job(s);
                s.rejected.extend([1, 0]);
            },
            "unsorted or repeated",
        );
    }

    #[test]
    fn import_rejects_a_different_trace() {
        // Same name and job count, one spec changed: only the digest
        // tells the traces apart. A v1 state carried its own specs, so
        // this import used to succeed and run the file's workload.
        let mut sim = two_job_scenario().start().unwrap();
        sim.step().unwrap();
        let state = sim.export_state();
        let mut other = Scenario::new(
            Trace::new(
                "step",
                vec![spec(0, 0.0, 2, 700.0), spec(1, 100.0, 3, 400.0)],
            ),
            ClusterTopology::new(1, 4),
        )
        .start()
        .unwrap();
        let err = other.import_state(&state);
        assert!(
            matches!(&err, Err(SimError::StateImport { reason }) if reason.contains("trace digest")),
            "{err:?}"
        );
        assert!(
            other.run_to_completion().is_ok(),
            "the refused import left it runnable"
        );

        assert_import_rejects(|s| s.trace_jobs = 3, "trace of 3 jobs");
    }

    #[test]
    fn import_rejects_progress_entries_other_than_next_admit() {
        assert_import_rejects(
            |s| s.jobs.push(s.jobs[0].clone()),
            "2 job progress entries for next_admit 1",
        );
        assert_import_rejects(|s| s.jobs.clear(), "0 job progress entries");
    }

    /// Rewrite the exported GPUs-in-use breakpoints through the series'
    /// value tree (its fields are private, and `push` refuses going back).
    fn set_breakpoints(s: &mut SimState, points: &[(f64, f64)]) {
        let mut v = s.gpus_in_use.to_value();
        if let Value::Map(entries) = &mut v {
            let field = entries.iter_mut().find(|(k, _)| k == "points");
            field.expect("series field").1 = points.to_value();
        }
        s.gpus_in_use = pal_stats::StepSeries::from_value(&v).unwrap();
    }

    #[test]
    fn import_rejects_bad_clocks() {
        // NaN and negative times passed import, then panicked appending
        // to the GPUs-in-use series ("time went backwards").
        assert_import_rejects(|s| s.time = f64::NAN, "time NaN");
        assert_import_rejects(|s| s.time = -1e9, "time -1000000000");
        // An infinite time gave infinite JCTs.
        assert_import_rejects(|s| s.time = f64::INFINITY, "time inf");
        assert_import_rejects(|s| s.busy_gpu_seconds = f64::NAN, "busy_gpu_seconds NaN");
        assert_import_rejects(|s| s.busy_gpu_seconds = -1.0, "busy_gpu_seconds -1");
        assert_import_rejects(
            |s| set_breakpoints(s, &[(0.0, 2.0), (400.0, 0.0)]),
            "before the last gpus_in_use breakpoint 400",
        );
        assert_import_rejects(
            |s| set_breakpoints(s, &[(f64::NAN, 2.0)]),
            "breakpoint at NaN",
        );
        assert_import_rejects(
            |s| set_breakpoints(s, &[(200.0, 2.0), (100.0, 0.0)]),
            "goes back from 200",
        );
    }

    #[test]
    fn import_rejects_bad_job_times() {
        assert_import_rejects(
            |s| s.jobs[0].first_start = Some(f64::INFINITY),
            "first_start inf",
        );
        assert_import_rejects(|s| s.jobs[0].first_start = Some(301.0), "first_start 301");
        assert_import_rejects(|s| s.jobs[0].first_start = None, "no first_start");
        // `u32::MAX` migrations overflowed at the job's next migration.
        assert_import_rejects(|s| s.jobs[0].migrations = u32::MAX, "migrations 4294967295");
        assert_import_rejects(|s| s.jobs[0].preemptions = 2, "preemptions 2");
        let finish_at = |at: f64| {
            move |s: &mut SimState| {
                s.jobs[0].phase = JobPhase::Finished { at };
                s.active_queue.clear();
                s.active_demand = 0;
                s.finished = 1;
            }
        };
        assert_import_rejects(finish_at(f64::NAN), "finished at NaN");
        assert_import_rejects(finish_at(301.0), "finished at 301");
        // A finish within the engine's tolerance past the boundary is
        // what an executed round records; only the cluster disagrees.
        assert_import_rejects(finish_at(300.0 + 1e-10), "in use");
    }

    #[test]
    fn import_rejects_cluster_that_disagrees_with_running_jobs() {
        // All GPUs free while job 0 runs: importing used to succeed and
        // the run then panicked releasing a free GPU.
        assert_import_rejects(
            |s| s.cluster = ClusterState::new(*s.cluster.topology()),
            "marks free",
        );
        // A GPU busy that no job or serving replica holds.
        assert_import_rejects(|s| s.cluster.allocate(&[GpuId(3)]), "in use");
        // Free counts that disagree with the occupancy flags.
        assert_import_rejects(
            |s| {
                let mut v = s.cluster.to_value();
                if let Value::Map(entries) = &mut v {
                    let free_total = entries.iter_mut().find(|(k, _)| k == "free_total");
                    free_total.expect("cluster field").1 = Value::Int(4);
                }
                s.cluster = ClusterState::from_value(&v).unwrap();
            },
            "disagree",
        );
        let mut sim = two_job_scenario().start().unwrap();
        sim.step().unwrap();
        let mut state = sim.export_state();
        state.cluster = ClusterState::new(*state.cluster.topology());
        let mut fresh = two_job_scenario().start().unwrap();
        assert!(fresh.import_state(&state).is_err());
        // The refused import left the fresh simulation runnable.
        assert!(fresh.run_to_completion().is_ok());
    }

    #[test]
    fn import_rejects_bad_running_allocations() {
        let set_gpus = |gpus: Vec<u32>| {
            move |s: &mut SimState| {
                s.jobs[0].phase = JobPhase::Running {
                    gpus: gpus.iter().map(|&g| GpuId(g)).collect(),
                }
            }
        };
        assert_import_rejects(set_gpus(vec![0]), "demands 2");
        assert_import_rejects(set_gpus(vec![0, 0]), "held twice");
        assert_import_rejects(set_gpus(vec![0, 9]), "out of range");
    }

    #[test]
    fn import_rejects_queue_and_counters_that_disagree_with_jobs() {
        assert_import_rejects(|s| s.active_demand = 0, "active_demand");
        assert_import_rejects(|s| s.active_queue.clear(), "active_queue");
        assert_import_rejects(
            |s| {
                admit_second_job(s);
                s.active_demand -= 2;
            },
            "active_demand",
        );
        assert_import_rejects(
            |s| {
                admit_second_job(s);
                s.active_queue.pop();
            },
            "lacks job 1",
        );
        assert_import_rejects(|s| s.finished = 1, "finished 1");
        assert_import_rejects(|s| s.rejected.push(0), "never admitted");
    }

    #[test]
    fn debug_shows_progress() {
        let mut sim = two_job_scenario().start().unwrap();
        sim.step().unwrap();
        let d = format!("{sim:?}");
        assert!(d.contains("rounds: 1"), "{d}");
    }
}
