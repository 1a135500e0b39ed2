//! Simulation configuration.

use serde::{Deserialize, Serialize};

/// Simulator knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Scheduling round (epoch) duration, seconds. Blox and the paper use
    /// 300 s ("much smaller than the 300 second epoch duration",
    /// Section V-C).
    pub round_duration: f64,
    /// Sticky placement: running jobs keep their allocation until they
    /// complete or are preempted; re-placement happens only on resume
    /// (Section IV-A1). Non-sticky re-places every scheduled job each
    /// round.
    pub sticky: bool,
    /// Seconds of checkpoint/restore delay charged to a job whose
    /// allocation changed this round (migration under non-sticky placement,
    /// or resume after preemption). The paper calls these overheads
    /// "typically negligible relative to the overall job run-time"; a small
    /// non-zero value models the restore cost that makes sticky placement
    /// competitive. Must be finite and non-negative.
    pub migration_overhead: f64,
    /// Safety cap on simulated rounds; exceeding it is a simulator bug or a
    /// pathological configuration and fails the run with
    /// [`SimError::Livelock`](crate::SimError::Livelock) rather than
    /// spinning forever. `round_duration × max_rounds` must be finite, so
    /// the clock cannot overflow before the cap stops the run.
    pub max_rounds: usize,
    /// Event-driven round skipping, the engine's one fast path: after a
    /// sticky round in which every prefix job keeps running, the engine
    /// fast-replays the rounds up to the next *event* — arrival,
    /// completion, or a change in the scheduling order — executing only the
    /// bookkeeping (progress accrual, telemetry, policy observations)
    /// those rounds would have produced. Outcomes are bit-identical to
    /// fixed-round stepping; only
    /// [`executed_rounds`](crate::SimResult::executed_rounds) drops.
    /// Defaults to on; `false` selects fixed-round stepping, the reference
    /// oracle the goldens and proptests compare against.
    pub event_driven: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            round_duration: 300.0,
            sticky: false,
            migration_overhead: 30.0,
            max_rounds: 2_000_000,
            event_driven: true,
        }
    }
}

impl SimConfig {
    /// Sticky config with the paper's 300 s rounds.
    pub fn sticky() -> Self {
        SimConfig {
            sticky: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.round_duration, 300.0);
        assert!(!c.sticky);
    }

    #[test]
    fn sticky_helpers() {
        assert!(SimConfig::sticky().sticky);
        assert!(!SimConfig::default().sticky);
    }

    #[test]
    fn event_driven_defaults_on() {
        assert!(SimConfig::default().event_driven);
        assert!(SimConfig::sticky().event_driven);
    }
}
