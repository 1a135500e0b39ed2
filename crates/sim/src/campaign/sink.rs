//! [`ResultSink`]: where completed campaign cells go.
//!
//! [`Campaign::run_with_sink`](super::Campaign::run_with_sink) hands each
//! [`CampaignResult`] to a sink the moment its cell finishes, instead of
//! accumulating a `Vec` — the runner's memory footprint is then bounded by
//! the sink, not by the grid size. Two implementations ship:
//!
//! - [`MemorySink`] here: the classic collect-everything behaviour
//!   [`Campaign::run`](super::Campaign::run) wraps;
//! - `pal-config`'s `SpillSink`: streams each result to a JSONL file and
//!   records a digest + the cell's injective seed in a manifest, keeping
//!   memory flat across thousand-cell grids and making the run resumable
//!   after an interrupt.
//!
//! Sinks are shared across worker threads, so [`ResultSink::accept`]
//! takes `&self` and implementations synchronize internally. A sink
//! error stops the worker that hit it; the other workers keep running
//! cells. Like a per-cell simulation error, it surfaces from the run
//! (as [`SimError::Sink`]) only if no earlier cell, in cell order,
//! failed.

use super::CampaignResult;
use crate::error::SimError;
use std::sync::Mutex;

/// Consumer of completed campaign cells. See the [module docs](self).
pub trait ResultSink: Sync {
    /// Accept the finished result of cell `cell` (an index into
    /// [`Campaign::cells`](super::Campaign::cells) order). Called from
    /// worker threads in completion order, which is nondeterministic;
    /// `cell` is what ties a result back to its deterministic identity.
    fn accept(&self, cell: usize, result: CampaignResult) -> Result<(), SimError>;
}

/// The in-memory collector: one slot per cell, indexed by cell order, so
/// nondeterministic completion order still reads back deterministically.
#[derive(Debug)]
pub struct MemorySink {
    slots: Mutex<Vec<Option<CampaignResult>>>,
}

impl MemorySink {
    /// A sink with `cells` empty slots.
    pub fn new(cells: usize) -> Self {
        MemorySink {
            slots: Mutex::new((0..cells).map(|_| None).collect()),
        }
    }

    /// The collected results in cell order; cells that never completed
    /// (skipped, failed, or interrupted) are `None`.
    pub fn into_results(self) -> Vec<Option<CampaignResult>> {
        self.slots.into_inner().expect("memory sink lock")
    }
}

impl ResultSink for MemorySink {
    fn accept(&self, cell: usize, result: CampaignResult) -> Result<(), SimError> {
        let mut slots = self.slots.lock().expect("memory sink lock");
        if cell >= slots.len() {
            return Err(SimError::Sink {
                message: format!(
                    "cell index {cell} out of range for {}-slot memory sink",
                    slots.len()
                ),
            });
        }
        slots[cell] = Some(result);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SimResult;
    use pal_stats::StepSeries;

    fn dummy_result(tag: &str) -> CampaignResult {
        CampaignResult {
            scenario: tag.to_string(),
            policy: "P".to_string(),
            seed: 7,
            workers: 1,
            result: SimResult {
                trace: tag.to_string(),
                scheduler: "FIFO".into(),
                placement: "P".into(),
                records: vec![],
                rejected: vec![],
                gpus_in_use: StepSeries::new(0.0),
                busy_gpu_seconds: 0.0,
                ideal_gpu_seconds: 0.0,
                total_gpus: 4,
                rounds: 1,
                executed_rounds: 1,
                placement_compute_times: vec![],
                serving: vec![],
            },
        }
    }

    #[test]
    fn slots_fill_by_cell_index_not_completion_order() {
        let sink = MemorySink::new(3);
        sink.accept(2, dummy_result("c")).unwrap();
        sink.accept(0, dummy_result("a")).unwrap();
        let slots = sink.into_results();
        assert_eq!(slots[0].as_ref().unwrap().scenario, "a");
        assert!(slots[1].is_none());
        assert_eq!(slots[2].as_ref().unwrap().scenario, "c");
    }

    #[test]
    fn out_of_range_cell_is_a_sink_error() {
        let sink = MemorySink::new(1);
        let err = sink.accept(1, dummy_result("x")).unwrap_err();
        assert!(matches!(err, SimError::Sink { .. }), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
    }
}
