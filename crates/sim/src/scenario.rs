//! The [`Scenario`] builder — the primary entry point to the simulator.
//!
//! The minimal run:
//!
//! ```
//! use pal_sim::Scenario;
//! use pal_cluster::ClusterTopology;
//! use pal_trace::{JobId, JobSpec, Trace};
//! use pal_cluster::JobClass;
//! use pal_gpumodel::Workload;
//!
//! let job = JobSpec {
//!     id: JobId(0), model: Workload::ResNet50, class: JobClass::A,
//!     arrival: 0.0, gpu_demand: 2, iterations: 600, base_iter_time: 1.0,
//! };
//! let result = Scenario::new(Trace::new("demo", vec![job]), ClusterTopology::new(2, 4))
//!     .run()
//!     .expect("valid scenario");
//! assert_eq!(result.records.len(), 1);
//! ```

use crate::admission::{AdmissionPolicy, AdmitAll};
use crate::config::SimConfig;
use crate::engine::{Simulation, SimulationParts};
use crate::error::SimError;
use crate::metrics::SimResult;
use crate::placement::{PackedPlacement, PlacementPolicy};
use crate::sched::{Fifo, SchedulingPolicy};
use crate::serving::ServingJob;
use pal_cluster::{ClusterTopology, LocalityModel, VariabilityProfile};
use pal_trace::Trace;
use std::sync::Arc;

/// Minimum number of variability classes a default (flat) profile covers.
const DEFAULT_CLASSES: usize = 3;

/// A fully described simulation run.
///
/// A scenario owns everything one simulation run needs: the trace, the
/// cluster, the profiles, the policies, and the knob set. Every dimension
/// beyond `(trace, topology)` has a sensible default, so the minimal run
/// is [`Scenario::new`] followed by [`Scenario::run`].
///
/// Misconfiguration surfaces as a typed [`SimError`] instead of a panic,
/// and new scenario dimensions (truth perturbation, admission control,
/// sticky mode, …) compose through builder methods without touching any
/// call site that doesn't care.
///
/// ## Shared inputs
///
/// The heavy immutable inputs — the trace, the variability profiles, and
/// the locality model — are held behind [`Arc`]s. Every setter accepts
/// `impl Into<Arc<T>>`, so passing an owned value works exactly as before
/// while sweep drivers ([`crate::Campaign`] factories, figure binaries)
/// can build the input once, wrap it in an `Arc`, and hand each scenario
/// a cheap handle instead of a deep clone. The handles flow untouched
/// through [`Scenario::start`] into the engine; a `Campaign` cell's
/// marginal start-up cost is O(jobs) run-state initialization, not
/// O(trace + profile) copying. (`ClusterTopology` is two words and
/// `Copy`, so it flows by value.)
///
/// Build with [`Scenario::new`], customize with the chained setters, and
/// execute with [`Scenario::run`]. For sweeps over many scenarios and
/// placement policies, see [`crate::Campaign`].
pub struct Scenario {
    trace: Arc<Trace>,
    topology: ClusterTopology,
    profile: Option<Arc<VariabilityProfile>>,
    truth: Option<Arc<VariabilityProfile>>,
    locality: Arc<LocalityModel>,
    scheduler: Box<dyn SchedulingPolicy + Send + Sync>,
    placement: Box<dyn PlacementPolicy + Send>,
    admission: Box<dyn AdmissionPolicy + Send + Sync>,
    config: SimConfig,
    serving: Vec<ServingJob>,
}

impl Scenario {
    /// A scenario with defaults for everything but the workload and the
    /// cluster: flat (variability-free) profile, no locality penalty, FIFO
    /// scheduling, deterministic packed placement, admit-all admission,
    /// and the paper's 300 s non-sticky rounds.
    ///
    /// Accepts an owned [`Trace`] or a pre-wrapped `Arc<Trace>` — sweeps
    /// building many scenarios over one trace should pass `Arc` handles so
    /// the jobs are shared rather than copied (see the
    /// [type docs](Scenario#shared-inputs)).
    pub fn new(trace: impl Into<Arc<Trace>>, topology: ClusterTopology) -> Self {
        Scenario {
            trace: trace.into(),
            topology,
            profile: None,
            truth: None,
            locality: Arc::new(LocalityModel::uniform(1.0)),
            scheduler: Box::new(Fifo),
            placement: Box::new(PackedPlacement::deterministic()),
            admission: Box::new(AdmitAll),
            config: SimConfig::default(),
            serving: Vec::new(),
        }
    }

    /// The variability profile placement policies consult (and, unless
    /// [`truth`](Scenario::truth) is set, the one execution follows).
    /// Accepts an owned profile or a shared `Arc` handle.
    pub fn profile(mut self, profile: impl Into<Arc<VariabilityProfile>>) -> Self {
        self.profile = Some(profile.into());
        self
    }

    /// A distinct ground-truth profile driving execution — the
    /// stale-profile experiments of Section V-A perturb this copy.
    /// Accepts an owned profile or a shared `Arc` handle.
    pub fn truth(mut self, truth: impl Into<Arc<VariabilityProfile>>) -> Self {
        self.truth = Some(truth.into());
        self
    }

    /// The locality penalty model (defaults to no penalty). Accepts an
    /// owned model or a shared `Arc` handle.
    pub fn locality(mut self, locality: impl Into<Arc<LocalityModel>>) -> Self {
        self.locality = locality.into();
        self
    }

    /// The scheduling policy ordering the queue (defaults to FIFO).
    pub fn scheduler(mut self, scheduler: impl SchedulingPolicy + Send + Sync + 'static) -> Self {
        self.scheduler = Box::new(scheduler);
        self
    }

    /// Boxed-policy variant of [`scheduler`](Scenario::scheduler), for
    /// callers that pick the scheduler dynamically (e.g. from a CLI flag).
    pub fn scheduler_boxed(mut self, scheduler: Box<dyn SchedulingPolicy + Send + Sync>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The placement policy choosing GPUs (defaults to deterministic
    /// packed placement).
    pub fn placement(mut self, placement: impl PlacementPolicy + Send + 'static) -> Self {
        self.placement = Box::new(placement);
        self
    }

    /// Boxed-policy variant of [`placement`](Scenario::placement), for
    /// callers that build policies dynamically (e.g. [`crate::Campaign`]).
    pub fn placement_boxed(mut self, placement: Box<dyn PlacementPolicy + Send>) -> Self {
        self.placement = placement;
        self
    }

    /// Add a serving deployment to run alongside the training trace.
    /// Its replicas are placed once at `t = 0` through the scenario's
    /// placement policy and hold their GPUs for the whole run; the
    /// training jobs schedule over the remaining capacity. Call
    /// repeatedly to deploy several workloads. Results land in
    /// [`SimResult::serving`](crate::SimResult::serving).
    pub fn serving(mut self, job: ServingJob) -> Self {
        self.serving.push(job);
        self
    }

    /// The admission-control policy (defaults to admit-all).
    pub fn admission(mut self, admission: impl AdmissionPolicy + Send + Sync + 'static) -> Self {
        self.admission = Box::new(admission);
        self
    }

    /// Boxed-policy variant of [`admission`](Scenario::admission), for
    /// callers that pick the policy dynamically (e.g. from a config file).
    pub fn admission_boxed(mut self, admission: Box<dyn AdmissionPolicy + Send + Sync>) -> Self {
        self.admission = admission;
        self
    }

    /// Replace the whole knob set.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Set sticky placement without touching the other knobs.
    pub fn sticky(mut self, sticky: bool) -> Self {
        self.config.sticky = sticky;
        self
    }

    /// Set the scheduling round duration without touching the other knobs.
    pub fn round_duration(mut self, seconds: f64) -> Self {
        self.config.round_duration = seconds;
        self
    }

    /// Enable or disable event-driven round skipping without touching the
    /// other knobs (defaults to on). Skipping changes *only* how many
    /// rounds the engine executes ([`SimResult::executed_rounds`]); every
    /// simulated outcome is bit-identical either way.
    ///
    /// [`SimResult::executed_rounds`]: crate::SimResult::executed_rounds
    pub fn event_driven(mut self, enabled: bool) -> Self {
        self.config.event_driven = enabled;
        self
    }

    /// The effective policy-visible profile: the one set via
    /// [`profile`](Scenario::profile), or the flat default.
    ///
    /// Returns the scenario's own `Arc` handle — cloning it is a
    /// reference-count bump, not a copy of the score matrix, so per-cell
    /// callers ([`crate::Campaign`] hands it to every [`crate::PolicySpec`]
    /// builder) pay nothing per call. Only the unset-profile case
    /// materializes a fresh (flat) profile.
    pub fn effective_profile(&self) -> Arc<VariabilityProfile> {
        match &self.profile {
            Some(p) => Arc::clone(p),
            None => Arc::new(flat_profile(&self.trace, &self.serving, &self.topology)),
        }
    }

    /// Trace accessor (e.g. for labeling sweep results).
    pub fn trace_name(&self) -> &str {
        &self.trace.name
    }

    /// Validate the scenario without running it. Catches the static
    /// configuration errors ([`SimError::ProfileTopologyMismatch`],
    /// [`SimError::InvalidRoundDuration`], [`SimError::ZeroMaxRounds`],
    /// [`SimError::ClockOverflow`],
    /// [`SimError::InvalidMigrationOverhead`], [`SimError::ClassOutOfRange`]);
    /// admission-dependent conditions such as [`SimError::OversizedJob`]
    /// are only detectable by running.
    pub fn validate(&self) -> Result<(), SimError> {
        crate::engine::validate_inputs(
            &self.trace,
            &self.topology,
            self.profile.as_deref(),
            self.truth.as_deref(),
            &self.config,
        )?;
        // Mirror validate_inputs' class bound: unset profiles place no
        // bound, since the flat default sizes itself to the workloads.
        let num_classes = match (self.profile.as_deref(), self.truth.as_deref()) {
            (Some(p), Some(t)) => p.num_classes().min(t.num_classes()),
            (Some(p), None) => p.num_classes(),
            (None, Some(t)) => t.num_classes(),
            (None, None) => usize::MAX,
        };
        crate::serving::validate_serving(&self.serving, &self.topology, num_classes)
    }

    /// Validate the scenario and return a paused [`Simulation`] stepper
    /// at `t = 0`, ready to be advanced round by round.
    ///
    /// The stepper lets callers pause, inspect or save
    /// ([`Simulation::export_state`]), and instrument a run mid-flight;
    /// driving it to completion is bit-identical to
    /// [`run`](Scenario::run), which is a thin wrapper over this method.
    ///
    /// Starting generates each serving deployment's request log, unless
    /// a running clone of the same [`ServingJob`] already holds it; a log
    /// the allocator cannot hold is [`SimError::InvalidServingJob`].
    pub fn start(self) -> Result<Simulation, SimError> {
        let Scenario {
            trace,
            topology,
            profile,
            truth,
            locality,
            scheduler,
            placement,
            admission,
            config,
            serving,
        } = self;
        let profile =
            profile.unwrap_or_else(|| Arc::new(flat_profile(&trace, &serving, &topology)));
        let truth = truth.unwrap_or_else(|| Arc::clone(&profile));
        crate::engine::validate_inputs(&trace, &topology, Some(&profile), Some(&truth), &config)?;
        crate::serving::validate_serving(
            &serving,
            &topology,
            profile.num_classes().min(truth.num_classes()),
        )?;
        Simulation::from_parts(SimulationParts {
            trace,
            topology,
            profile,
            truth,
            locality,
            scheduler,
            placement,
            admission,
            config,
            serving,
        })
    }

    /// Run the simulation to completion.
    pub fn run(self) -> Result<SimResult, SimError> {
        self.start()?.run_to_completion()
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("Scenario");
        d.field("trace", &self.trace.name)
            .field("jobs", &self.trace.len())
            .field("topology", &self.topology)
            .field("profile", &self.profile.as_ref().map(|_| "set"))
            .field("truth", &self.truth.as_ref().map(|_| "set"))
            .field("scheduler", &self.scheduler.name())
            .field("placement", &self.placement.name())
            .field("admission", &self.admission.name())
            .field("config", &self.config);
        if !self.serving.is_empty() {
            d.field("serving", &self.serving.len());
        }
        d.finish()
    }
}

/// A variability-free profile sized to the topology, with enough class
/// rows for every training job and serving deployment (at least
/// [`DEFAULT_CLASSES`]).
fn flat_profile(
    trace: &Trace,
    serving: &[ServingJob],
    topology: &ClusterTopology,
) -> VariabilityProfile {
    let classes = trace
        .jobs
        .iter()
        .map(|j| j.class.0 + 1)
        .chain(serving.iter().map(|s| s.class.0 + 1))
        .max()
        .unwrap_or(0)
        .max(DEFAULT_CLASSES);
    VariabilityProfile::from_raw(vec![vec![1.0; topology.total_gpus()]; classes])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ProfileRole;
    use pal_cluster::JobClass;
    use pal_gpumodel::Workload;
    use pal_trace::{JobId, JobSpec};

    fn spec(id: u32, demand: usize, class: JobClass) -> JobSpec {
        JobSpec {
            id: JobId(id),
            model: Workload::ResNet50,
            class,
            arrival: 0.0,
            gpu_demand: demand,
            iterations: 100,
            base_iter_time: 1.0,
        }
    }

    #[test]
    fn defaults_run_a_minimal_trace() {
        let r = Scenario::new(
            Trace::new("t", vec![spec(0, 2, JobClass::A)]),
            ClusterTopology::new(1, 4),
        )
        .run()
        .unwrap();
        assert_eq!(r.records.len(), 1);
        // Flat profile + no locality penalty: exact ideal runtime.
        assert!((r.records[0].finish - 100.0).abs() < 1e-6);
    }

    #[test]
    fn mismatched_profile_is_typed_error() {
        let err = Scenario::new(
            Trace::new("t", vec![spec(0, 1, JobClass::A)]),
            ClusterTopology::new(2, 4),
        )
        .profile(VariabilityProfile::from_raw(vec![vec![1.0; 4]; 3]))
        .run()
        .unwrap_err();
        assert_eq!(
            err,
            SimError::ProfileTopologyMismatch {
                role: ProfileRole::Policy,
                profile_gpus: 4,
                topology_gpus: 8
            }
        );
    }

    #[test]
    fn mismatched_truth_is_typed_error() {
        let err = Scenario::new(
            Trace::new("t", vec![spec(0, 1, JobClass::A)]),
            ClusterTopology::new(1, 4),
        )
        .truth(VariabilityProfile::from_raw(vec![vec![1.0; 8]; 3]))
        .run()
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::ProfileTopologyMismatch {
                role: ProfileRole::Truth,
                ..
            }
        ));
    }

    #[test]
    fn invalid_round_duration_is_typed_error() {
        let err = Scenario::new(
            Trace::new("t", vec![spec(0, 1, JobClass::A)]),
            ClusterTopology::new(1, 4),
        )
        .round_duration(0.0)
        .run()
        .unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidRoundDuration {
                round_duration: 0.0
            }
        );
    }

    #[test]
    fn negative_or_non_finite_migration_overhead_is_typed_error() {
        // A negative overhead let migrated jobs finish before their
        // restore was paid; -1e300 gave a mean JCT of -2e299.
        for overhead in [-100_000.0, -1e300, f64::NAN, f64::INFINITY] {
            let err = Scenario::new(
                Trace::new("t", vec![spec(0, 1, JobClass::A)]),
                ClusterTopology::new(1, 4),
            )
            .config(SimConfig {
                migration_overhead: overhead,
                ..SimConfig::default()
            })
            .validate()
            .unwrap_err();
            assert!(
                matches!(err, SimError::InvalidMigrationOverhead { migration_overhead }
                    if migration_overhead.to_bits() == overhead.to_bits()),
                "{overhead}: {err}"
            );
        }
    }

    #[test]
    fn overflowing_round_clock_is_typed_error() {
        // 1e308 s rounds overflowed the clock on the second round and
        // reported an infinite mean JCT.
        let err = Scenario::new(
            Trace::new("t", vec![spec(0, 1, JobClass::A)]),
            ClusterTopology::new(1, 4),
        )
        .round_duration(1e308)
        .run()
        .unwrap_err();
        assert_eq!(
            err,
            SimError::ClockOverflow {
                round_duration: 1e308,
                max_rounds: SimConfig::default().max_rounds,
            }
        );
        assert!(err.to_string().contains("1e308"), "{err}");
    }

    #[test]
    fn zero_max_rounds_is_typed_error() {
        // A zero cap could never run a round: refused up front, not
        // reported as a livelock after the run starts.
        let scenario = Scenario::new(
            Trace::new("t", vec![spec(0, 1, JobClass::A)]),
            ClusterTopology::new(1, 4),
        )
        .config(SimConfig {
            max_rounds: 0,
            ..Default::default()
        });
        assert_eq!(scenario.validate().unwrap_err(), SimError::ZeroMaxRounds);
        let err = scenario.run().unwrap_err();
        assert_eq!(err, SimError::ZeroMaxRounds);
        assert!(err.to_string().contains("max_rounds"), "{err}");
    }

    #[test]
    fn class_out_of_range_is_typed_error() {
        let err = Scenario::new(
            Trace::new("t", vec![spec(0, 1, JobClass(7))]),
            ClusterTopology::new(1, 4),
        )
        .profile(VariabilityProfile::from_raw(vec![vec![1.0; 4]; 3]))
        .run()
        .unwrap_err();
        assert!(matches!(err, SimError::ClassOutOfRange { .. }));
    }

    #[test]
    fn default_flat_profile_covers_high_class_indices() {
        // Class 5 with no explicit profile: the default sizes itself.
        let r = Scenario::new(
            Trace::new("t", vec![spec(0, 1, JobClass(5))]),
            ClusterTopology::new(1, 4),
        )
        .run()
        .unwrap();
        assert_eq!(r.records.len(), 1);
    }

    #[test]
    fn validate_catches_static_errors_without_running() {
        let s = Scenario::new(
            Trace::new("t", vec![spec(0, 1, JobClass::A)]),
            ClusterTopology::new(2, 4),
        )
        .profile(VariabilityProfile::from_raw(vec![vec![1.0; 4]; 3]));
        assert!(s.validate().is_err());

        let ok = Scenario::new(
            Trace::new("t", vec![spec(0, 1, JobClass::A)]),
            ClusterTopology::new(1, 4),
        );
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn rejecting_the_final_pending_job_terminates_cleanly() {
        // Regression: job 1 arrives after job 0 finishes and is rejected
        // by admission while nothing is active — the idle fast-forward
        // must not index past the end of the job list.
        use crate::admission::RejectOversized;
        let mut late_oversized = spec(1, 99, JobClass::A);
        late_oversized.arrival = 400.0;
        let jobs = vec![spec(0, 1, JobClass::A), late_oversized];
        let r = Scenario::new(Trace::new("t", jobs), ClusterTopology::new(1, 4))
            .admission(RejectOversized)
            .run()
            .expect("rejection of the last pending job must not panic");
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.rejected.len(), 1);
    }

    #[test]
    fn livelock_is_typed_error() {
        let config = SimConfig {
            max_rounds: 1,
            ..Default::default()
        };
        let jobs = vec![spec(0, 4, JobClass::A), spec(1, 4, JobClass::A)];
        let err = Scenario::new(Trace::new("t", jobs), ClusterTopology::new(1, 4))
            .config(config)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Livelock { rounds: 1 },
            "reports the cap it hit"
        );
    }

    #[test]
    fn debug_is_informative() {
        let s = Scenario::new(
            Trace::new("debug-trace", vec![spec(0, 1, JobClass::A)]),
            ClusterTopology::new(1, 4),
        );
        let d = format!("{s:?}");
        assert!(d.contains("debug-trace"));
        assert!(d.contains("FIFO") || d.contains("Fifo"));
    }
}
