//! Sink-driven campaign execution: worker-count resolution, the
//! small-grid scoped pool, and the large-grid work-stealing runner. The
//! same pool runs campaign cells and [`Campaign::what_if`] branches;
//! only the per-cell preparation differs.
//!
//! Both execution paths produce identical outcomes for a fixed campaign
//! seed — cell seeds are pure functions of `(seed, tag, policy)`, so
//! *which thread* runs a cell (and in what order) is unobservable in the
//! results. The split is purely a throughput matter:
//!
//! - **small grids** (fewer than [`STEAL_THRESHOLD_CELLS_PER_WORKER`]
//!   cells per worker) keep the original shared-counter scoped pool —
//!   with so few cells there is nothing to rebalance, and a bare
//!   `fetch_add` beats deque locks;
//! - **larger grids** run through the work-stealing
//!   [`CellQueue`]: contiguous chunks keep row-adjacent
//!   cells (sharing `Arc`'d traces/profiles) on one worker, and
//!   steal-half rebalances when cell costs are skewed, so one expensive
//!   scenario row no longer serializes the tail of the sweep.

use super::sink::ResultSink;
use super::{Campaign, CellInfo, CellQueue};
use crate::engine::Simulation;
use crate::error::SimError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count used when the machine's parallelism cannot be determined.
///
/// `std::thread::available_parallelism` can fail (exotic platforms,
/// restrictive sandboxes); earlier revisions silently substituted 4 in
/// that case. The fallback is now this named, documented constant, and
/// the count actually chosen — fallback or not — is surfaced in
/// [`CampaignRunStats::workers`] and stamped on every
/// [`CampaignResult::workers`](super::CampaignResult::workers), so a run
/// that quietly degraded to 4 threads is visible in its own output.
pub const FALLBACK_WORKERS: usize = 4;

/// Below this many runnable cells per worker, the work-stealing queue is
/// skipped in favour of the shared-counter scoped pool.
pub const STEAL_THRESHOLD_CELLS_PER_WORKER: usize = 4;

/// What a sink-driven run did: the execution metadata that is *not* in
/// the sink (worker count, skip accounting, steal diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRunStats {
    /// Worker threads used ([`Campaign::effective_workers`]).
    pub workers: usize,
    /// Total cells in the campaign grid.
    pub cells_total: usize,
    /// Cells actually executed to completion by this run.
    pub cells_run: usize,
    /// Cells the skip predicate excluded (already-completed cells of a
    /// resumed grid).
    pub cells_skipped: usize,
    /// Successful steal operations in the work-stealing queue (0 on the
    /// small-grid path). Nondeterministic — diagnostics only.
    pub steals: usize,
}

impl Campaign {
    /// The worker count a run over `cells` runnable cells will use: the
    /// explicit [`Campaign::max_parallelism`] cap if set, otherwise the
    /// machine's available parallelism, otherwise [`FALLBACK_WORKERS`] —
    /// never more than `cells`, never less than 1.
    pub fn effective_workers(&self, cells: usize) -> usize {
        self.max_parallelism
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(FALLBACK_WORKERS, |p| p.get())
            })
            .min(cells)
            .max(1)
    }

    /// Run every cell, streaming each completed
    /// [`CampaignResult`](super::CampaignResult) into
    /// `sink` instead of collecting a `Vec`. Memory is bounded by the
    /// sink (O(workers × one result) for a streaming sink), not by the
    /// grid. Returns run statistics; if any cell fails, every other cell
    /// still runs and the first failing cell's error (in cell order) is
    /// returned.
    pub fn run_with_sink(&self, sink: &dyn ResultSink) -> Result<CampaignRunStats, SimError> {
        self.run_cells_with_sink(&|_| false, sink)
    }

    /// [`Campaign::run_with_sink`], skipping every cell index (in
    /// [`Campaign::cells`] order) for which `skip` returns `true` — the
    /// resume primitive: a durable sink's manifest says which cells
    /// already completed, and re-running the remainder is byte-identical
    /// to an uninterrupted run because cell seeds depend only on
    /// `(campaign seed, tag, policy)`.
    pub fn run_cells_with_sink(
        &self,
        skip: &(dyn Fn(usize) -> bool + Sync),
        sink: &dyn ResultSink,
    ) -> Result<CampaignRunStats, SimError> {
        self.run_cells(skip, sink, &|sim, info| self.attach_metrics(sim, info))
    }

    /// The campaign worker pool: [`Campaign::run_cells_with_sink`] with
    /// each started cell handed to `prepare` before it runs (see
    /// [`Campaign::run_cell_with`]). Campaign runs attach metrics sinks
    /// there; what-if branches import and verify their fork.
    pub(crate) fn run_cells(
        &self,
        skip: &(dyn Fn(usize) -> bool + Sync),
        sink: &dyn ResultSink,
        prepare: &(dyn Fn(&mut Simulation, &CellInfo) -> Result<(), SimError> + Sync),
    ) -> Result<CampaignRunStats, SimError> {
        let all = self.cell_indices();
        let cells_total = all.len();
        // Runnable cells as (cell index, scenario idx, policy idx).
        let cells: Vec<(usize, usize, Option<usize>)> = all
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| !skip(i))
            .map(|(i, (si, pi))| (i, si, pi))
            .collect();
        let n = cells.len();
        let workers = self.effective_workers(n);
        let mut stats = CampaignRunStats {
            workers,
            cells_total,
            cells_run: 0,
            cells_skipped: cells_total - n,
            steals: 0,
        };
        if n == 0 {
            return Ok(stats);
        }

        // First error per cell, resolved to cell order below.
        let errors: Mutex<Vec<(usize, SimError)>> = Mutex::new(Vec::new());
        let completed = AtomicUsize::new(0);
        let record = |cell: usize, err: SimError| {
            errors
                .lock()
                .expect("campaign error lock")
                .push((cell, err));
        };
        // One worker body shared by both pools: run the cell, hand the
        // result to the sink. Sim errors are per-cell (record, keep
        // going); sink errors poison the run (record, stop this worker).
        let run_one = |&(cell, si, pi): &(usize, usize, Option<usize>)| -> bool {
            match self.run_cell_with(si, pi, workers, prepare) {
                Ok(result) => match sink.accept(cell, result) {
                    Ok(()) => {
                        completed.fetch_add(1, Ordering::Relaxed);
                        true
                    }
                    Err(e) => {
                        record(cell, e);
                        false
                    }
                },
                Err(e) => {
                    record(cell, e);
                    true
                }
            }
        };

        // The calling thread works as worker 0, so a pool of `workers`
        // spawns only `workers - 1` threads.
        if workers == 1 || n < workers * STEAL_THRESHOLD_CELLS_PER_WORKER {
            // Small grid: the original shared-counter scoped pool.
            let next = AtomicUsize::new(0);
            let worker = || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || !run_one(&cells[i]) {
                    break;
                }
            };
            std::thread::scope(|scope| {
                for _ in 1..workers {
                    scope.spawn(worker);
                }
                worker();
            });
        } else {
            let queue = CellQueue::new(n, workers);
            let worker = |w: usize| {
                while let Some(i) = queue.pop(w) {
                    if !run_one(&cells[i]) {
                        break;
                    }
                }
            };
            std::thread::scope(|scope| {
                for w in 1..workers {
                    let worker = &worker;
                    scope.spawn(move || worker(w));
                }
                worker(0);
            });
            stats.steals = queue.steals();
        }

        stats.cells_run = completed.load(Ordering::Relaxed);
        let mut errors = errors.into_inner().expect("campaign error lock");
        errors.sort_by_key(|&(cell, _)| cell);
        match errors.into_iter().next() {
            Some((_, err)) => Err(err),
            None => Ok(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{MemorySink, PolicySpec};
    use super::*;
    use crate::placement::{PackedPlacement, RandomPlacement};
    use crate::scenario::Scenario;
    use crate::sched::Fifo;
    use pal_cluster::{ClusterTopology, JobClass, VariabilityProfile};
    use pal_gpumodel::Workload;
    use pal_trace::{JobId, JobSpec, Trace};
    use std::sync::Arc;

    /// A grid big enough (8×4 = 32 cells) that 4 workers take the
    /// work-stealing path (32 ≥ 4 × STEAL_THRESHOLD_CELLS_PER_WORKER).
    fn wide_campaign(parallelism: usize) -> Campaign {
        let trace = Arc::new(Trace::new(
            "runner-test",
            (0..6)
                .map(|i| JobSpec {
                    id: JobId(i),
                    model: Workload::ResNet50,
                    class: JobClass(i as usize % 3),
                    arrival: i as f64 * 200.0,
                    gpu_demand: 1 + (i as usize % 3),
                    iterations: 200 + 50 * i as u64,
                    base_iter_time: 1.0,
                })
                .collect::<Vec<_>>(),
        ));
        let profile = Arc::new(VariabilityProfile::from_raw(vec![vec![1.2; 8]; 3]));
        let mut c = Campaign::new().seed(0xFEED).max_parallelism(parallelism);
        for row in 0..8 {
            let trace = Arc::clone(&trace);
            let profile = Arc::clone(&profile);
            c = c.scenario(format!("row-{row}"), move || {
                Scenario::new(Arc::clone(&trace), ClusterTopology::new(2, 4))
                    .profile(Arc::clone(&profile))
                    .scheduler(Fifo)
            });
        }
        c.policies([
            PolicySpec::new("Random", |_, seed| Box::new(RandomPlacement::new(seed))),
            PolicySpec::new("Packed", |_, seed| {
                Box::new(PackedPlacement::randomized(seed))
            }),
            PolicySpec::new("Packed-Sticky", |_, seed| {
                Box::new(PackedPlacement::randomized(seed))
            })
            .sticky(true),
            PolicySpec::new("Random-Sticky", |_, seed| {
                Box::new(RandomPlacement::new(seed))
            })
            .sticky(true),
        ])
    }

    #[test]
    fn work_stealing_path_matches_sequential_outcomes() {
        let wide = wide_campaign(4);
        let seq = wide.run_sequential().unwrap();
        let par = wide.run().unwrap();
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(
                (a.scenario.as_str(), a.policy.as_str(), a.seed),
                (b.scenario.as_str(), b.policy.as_str(), b.seed)
            );
            assert!(
                a.result.same_outcome(&b.result),
                "{}/{}",
                a.scenario,
                a.policy
            );
        }
    }

    #[test]
    fn stats_report_workers_and_run_counts() {
        let c = wide_campaign(4);
        let sink = MemorySink::new(c.num_cells());
        let stats = c.run_with_sink(&sink).unwrap();
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.cells_total, 32);
        assert_eq!(stats.cells_run, 32);
        assert_eq!(stats.cells_skipped, 0);
        for slot in sink.into_results() {
            assert_eq!(slot.expect("every cell ran").workers, 4);
        }
    }

    #[test]
    fn skip_predicate_skips_exactly_and_resumed_cells_match() {
        let c = wide_campaign(2);
        let full = c.run().unwrap();
        // "Resume": skip the first 20 cells, run the remaining 12.
        let sink = MemorySink::new(c.num_cells());
        let stats = c.run_cells_with_sink(&|i| i < 20, &sink).unwrap();
        assert_eq!(stats.cells_skipped, 20);
        assert_eq!(stats.cells_run, 12);
        let slots = sink.into_results();
        for (i, slot) in slots.iter().enumerate() {
            match slot {
                None => assert!(i < 20, "cell {i} should have run"),
                Some(r) => {
                    assert!(i >= 20, "cell {i} should have been skipped");
                    assert!(
                        r.result.same_outcome(&full[i].result),
                        "resumed cell {i} diverged from the uninterrupted run"
                    );
                }
            }
        }
    }

    #[test]
    fn effective_workers_caps_and_floors() {
        let c = Campaign::new().max_parallelism(8);
        assert_eq!(c.effective_workers(3), 3);
        assert_eq!(c.effective_workers(100), 8);
        assert_eq!(c.effective_workers(0), 1);
        // Unset: machine parallelism (or FALLBACK_WORKERS), capped by cells.
        let c = Campaign::new();
        assert_eq!(c.effective_workers(1), 1);
        assert!(c.effective_workers(usize::MAX) >= 1);
    }

    #[test]
    fn sequential_results_report_one_worker() {
        let c = wide_campaign(4);
        for r in c.run_sequential().unwrap() {
            assert_eq!(r.workers, 1);
        }
    }
}
