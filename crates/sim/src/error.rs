//! Typed simulation errors.
//!
//! The seed engine `assert!`ed on misconfiguration; the [`crate::Scenario`]
//! API returns these instead so callers (sweep runners, services, tests)
//! can handle bad configurations without catching panics.

use pal_cluster::JobClass;
use pal_trace::JobId;
use std::fmt;

/// Which profile argument of a scenario failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileRole {
    /// The profile the placement policy sees.
    Policy,
    /// The ground-truth profile driving execution (defaults to the policy
    /// profile; the testbed experiments perturb it).
    Truth,
}

impl fmt::Display for ProfileRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileRole::Policy => write!(f, "policy"),
            ProfileRole::Truth => write!(f, "ground-truth"),
        }
    }
}

/// Everything that can go wrong when running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A variability profile's GPU count does not match the topology's.
    ProfileTopologyMismatch {
        /// Which profile argument mismatched.
        role: ProfileRole,
        /// GPUs covered by the profile.
        profile_gpus: usize,
        /// GPUs in the cluster topology.
        topology_gpus: usize,
    },
    /// A job references a variability class the profile does not define.
    ClassOutOfRange {
        /// The offending job.
        job: JobId,
        /// Its class.
        class: JobClass,
        /// Classes the profile defines.
        num_classes: usize,
    },
    /// An admitted job demands more GPUs than the cluster has, so it can
    /// never be scheduled (pair with an admission policy such as
    /// `RejectOversized` if oversized submissions are expected).
    OversizedJob {
        /// The offending job.
        job: JobId,
        /// Its GPU demand.
        demand: usize,
        /// GPUs in the cluster.
        total_gpus: usize,
    },
    /// `SimConfig::round_duration` is not a positive, finite number.
    InvalidRoundDuration {
        /// The rejected value.
        round_duration: f64,
    },
    /// `SimConfig::migration_overhead` is negative or not finite: a
    /// migrated job would finish before its restore was paid.
    InvalidMigrationOverhead {
        /// The rejected value.
        migration_overhead: f64,
    },
    /// `SimConfig::round_duration × SimConfig::max_rounds` is not finite,
    /// so the simulated clock can overflow before the round cap stops it.
    ClockOverflow {
        /// The configured round duration, seconds.
        round_duration: f64,
        /// The configured round cap.
        max_rounds: usize,
    },
    /// `SimConfig::max_rounds` is zero, so no round may ever run.
    ZeroMaxRounds,
    /// The simulation reached `SimConfig::max_rounds` without finishing.
    Livelock {
        /// The round cap it reached.
        rounds: usize,
    },
    /// A serving job's parameters are inconsistent (zero replicas, an
    /// invalid workload, a class the profile does not define, …).
    InvalidServingJob {
        /// Name of the offending workload.
        workload: String,
        /// What was wrong with it.
        reason: String,
    },
    /// Serving deployments together demand more GPUs than the cluster
    /// has, so their replicas can never be placed.
    ServingOvercommitted {
        /// GPUs demanded by all serving replicas.
        demand: usize,
        /// GPUs in the cluster.
        total_gpus: usize,
    },
    /// An exported simulation state could not be imported: wrong format
    /// version, a different trace/topology than the receiving simulation,
    /// or policy state that does not fit the configured policy.
    StateImport {
        /// What was incompatible.
        reason: String,
    },
    /// A campaign result sink failed to accept a completed cell (disk
    /// full, spill-directory I/O error, out-of-range cell index, …).
    /// Unlike a per-cell simulation error, a sink error stops the worker
    /// that hit it from taking more cells (the other workers keep going):
    /// the sink is shared state, and streaming on into a broken sink
    /// would silently drop results.
    Sink {
        /// What the sink reported.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ProfileTopologyMismatch {
                role,
                profile_gpus,
                topology_gpus,
            } => write!(
                f,
                "{role} profile covers {profile_gpus} GPUs but topology has {topology_gpus}"
            ),
            SimError::ClassOutOfRange {
                job,
                class,
                num_classes,
            } => write!(
                f,
                "{job} has class {class:?} but the profile defines only {num_classes} classes"
            ),
            SimError::OversizedJob {
                job,
                demand,
                total_gpus,
            } => write!(
                f,
                "{job} demands {demand} GPUs but the cluster has {total_gpus} \
                 (use an admission policy such as RejectOversized)"
            ),
            SimError::InvalidRoundDuration { round_duration } => {
                write!(
                    f,
                    "round duration must be positive and finite, got {round_duration}"
                )
            }
            SimError::InvalidMigrationOverhead { migration_overhead } => write!(
                f,
                "migration overhead must be finite and non-negative, got {migration_overhead:?}"
            ),
            SimError::ClockOverflow {
                round_duration,
                max_rounds,
            } => write!(
                f,
                "round duration {round_duration:?} s over max_rounds {max_rounds} overflows the \
                 simulated clock"
            ),
            SimError::ZeroMaxRounds => {
                write!(f, "max_rounds must be positive: no round could ever run")
            }
            SimError::Livelock { rounds } => {
                write!(f, "simulation exceeded {rounds} rounds — livelock?")
            }
            SimError::InvalidServingJob { workload, reason } => {
                write!(f, "serving workload {workload}: {reason}")
            }
            SimError::ServingOvercommitted { demand, total_gpus } => write!(
                f,
                "serving replicas demand {demand} GPUs but the cluster has {total_gpus}"
            ),
            SimError::StateImport { reason } => {
                write!(f, "state import failed: {reason}")
            }
            SimError::Sink { message } => write!(f, "result sink failed: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_carry_key_context() {
        let e = SimError::OversizedJob {
            job: JobId(3),
            demand: 64,
            total_gpus: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("demands"), "{msg}");
        assert!(msg.contains("64"), "{msg}");

        let e = SimError::ProfileTopologyMismatch {
            role: ProfileRole::Truth,
            profile_gpus: 8,
            topology_gpus: 16,
        };
        assert!(e.to_string().contains("profile covers 8 GPUs"), "{e}");

        let e = SimError::Livelock { rounds: 100 };
        assert!(e.to_string().contains("livelock"), "{e}");

        let e = SimError::InvalidServingJob {
            workload: "chat".into(),
            reason: "zero replicas".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("chat") && msg.contains("zero replicas"),
            "{msg}"
        );

        let e = SimError::ServingOvercommitted {
            demand: 9,
            total_gpus: 8,
        };
        let msg = e.to_string();
        assert!(msg.contains('9') && msg.contains('8'), "{msg}");

        let e = SimError::Sink {
            message: "disk full".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("sink") && msg.contains("disk full"), "{msg}");

        let e = SimError::StateImport {
            reason: "state format v9 unsupported".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("state import") && msg.contains("v9"), "{msg}");
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(SimError::Livelock { rounds: 7 });
        assert!(!e.to_string().is_empty());
    }
}
