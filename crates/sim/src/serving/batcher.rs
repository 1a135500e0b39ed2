//! Deadline-aware request batching: the *push-to-deadline* rule.
//!
//! Batching amortizes per-invocation overhead (kernel launch, weight
//! residency, KV-cache setup) across requests, but every admitted request
//! delays the whole batch's completion. The push-to-deadline batcher
//! resolves the tension against the head-of-line request's SLO: keep
//! admitting FIFO-contiguous requests into the forming batch as long as
//! the projected batch completion still meets the *head's* deadline — the
//! tightest one in a FIFO queue with a uniform SLO offset.

use serde::{Deserialize, Serialize};

/// Batcher knobs of one serving deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatcherConfig {
    /// Hard cap on requests per batch (memory / framework limit).
    pub max_batch_size: usize,
    /// Fixed per-batch overhead on a median replica, seconds — the cost
    /// batching exists to amortize.
    pub batch_overhead_s: f64,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch_size: 16,
            batch_overhead_s: 0.02,
        }
    }
}

impl BatcherConfig {
    /// Validate knob ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_batch_size == 0 {
            return Err("max_batch_size must be at least 1".into());
        }
        if !(self.batch_overhead_s >= 0.0 && self.batch_overhead_s.is_finite()) {
            return Err(format!(
                "batch_overhead_s must be non-negative and finite, got {}",
                self.batch_overhead_s
            ));
        }
        Ok(())
    }
}

/// Form one batch from the front of a FIFO queue at time `now` on a
/// replica with the given `slowdown`, and return its end: the batch is
/// `work[..end]`.
///
/// `work` holds the queued requests' service demands in FIFO order and
/// `head_deadline` is the absolute deadline of the first of them. The
/// head always goes in — a request is never dropped, even when its
/// deadline is already unmeetable (it runs as a singleton or at the front
/// of whatever fits, and is counted as an SLO miss when it finishes
/// late). Further requests are admitted in FIFO order while the projected
/// execution time `(overhead + Σ work) × slowdown` stays within the
/// head's deadline budget and the batch is under
/// [`BatcherConfig::max_batch_size`].
///
/// Invariant (pinned by proptests): a batch of size ≥ 2 never violates
/// the head-of-line deadline budget at formation time.
///
/// Panics if `work` is empty.
pub fn form_batch(
    work: &[f64],
    head_deadline: f64,
    now: f64,
    slowdown: f64,
    cfg: &BatcherConfig,
) -> usize {
    debug_assert!(slowdown > 0.0);
    let (&head, rest) = work.split_first().expect("form_batch on an empty queue");
    let budget = head_deadline - now;
    let mut exec = (cfg.batch_overhead_s + head) * slowdown;
    let mut end = 1;
    for &next in rest.iter().take(cfg.max_batch_size.saturating_sub(1)) {
        let with_next = exec + next * slowdown;
        if with_next > budget {
            break;
        }
        exec = with_next;
        end += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_up_to_budget() {
        // Head budget 1.0 s, overhead 0.1, each request 0.2: overhead +
        // 4 × 0.2 = 0.9 fits, a fifth (1.1) would not.
        let cfg = BatcherConfig {
            max_batch_size: 16,
            batch_overhead_s: 0.1,
        };
        let work = [0.2; 8];
        let end = form_batch(&work, 1.0, 0.0, 1.0, &cfg);
        assert_eq!(end, 4);
        assert_eq!(work.len() - end, 4);
    }

    #[test]
    fn respects_max_batch_size() {
        let cfg = BatcherConfig {
            max_batch_size: 3,
            batch_overhead_s: 0.0,
        };
        assert_eq!(form_batch(&[1e-6; 10], 100.0, 0.0, 1.0, &cfg), 3);
    }

    #[test]
    fn doomed_head_still_runs_as_singleton() {
        // Head's deadline already passed: budget is negative, nothing else
        // is admitted, but the head is not dropped.
        let cfg = BatcherConfig::default();
        let work = [0.5, 0.5];
        let end = form_batch(&work, 1.0, 5.0, 1.0, &cfg);
        assert_eq!(end, 1);
        assert_eq!(work.len() - end, 1);
    }

    #[test]
    fn slowdown_shrinks_the_batch() {
        let cfg = BatcherConfig {
            max_batch_size: 16,
            batch_overhead_s: 0.1,
        };
        let work = [0.2; 8];
        let fast = form_batch(&work, 1.0, 0.0, 1.0, &cfg);
        let slow = form_batch(&work, 1.0, 0.0, 2.0, &cfg);
        assert!(slow < fast);
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        assert!(BatcherConfig::default().validate().is_ok());
        assert!(BatcherConfig {
            max_batch_size: 0,
            batch_overhead_s: 0.0
        }
        .validate()
        .is_err());
        assert!(BatcherConfig {
            max_batch_size: 1,
            batch_overhead_s: f64::NAN
        }
        .validate()
        .is_err());
    }
}
