//! Scheduling policies: which jobs run this round (Section IV-A2).
//!
//! A scheduling policy orders the active queue; the simulator then marks
//! the schedulable prefix and hands it to the placement policy. Job
//! *selection* is orthogonal to PAL's contribution, so these are faithful,
//! simple implementations of the three schedulers the paper attaches its
//! placement policies to: FIFO, Tiresias/LAS, and SRTF.

mod fifo;
mod las;
mod srsf;
mod srtf;

pub use fifo::Fifo;
pub use las::Las;
pub use srsf::Srsf;
pub use srtf::Srtf;

use crate::job_state::ActiveJob;
use pal_trace::JobId;

/// The cached sort key of one queued job: the policy's primary key plus
/// the universal tie-breakers (arrival time, then job id), computed once
/// per round and sorted without re-invoking the policy — the cached-key
/// sort the engine's hot loop relies on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedKey {
    /// Policy priority (smaller = runs earlier).
    pub key: f64,
    /// Arrival-time tie-breaker.
    pub arrival: f64,
    /// Job-id tie-breaker, making the order total and deterministic.
    pub id: JobId,
    /// Index of the job in the caller's job table.
    pub job: usize,
}

impl SchedKey {
    /// Strict total order: key, then arrival, then id. Panics on NaN keys
    /// (a policy bug) exactly like the seed engine's comparator did. Public
    /// because the engine re-derives keys at skipped round boundaries and
    /// checks the cached sequence is still sorted under this order.
    pub fn cmp_total(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .partial_cmp(&other.key)
            .expect("NaN scheduling key")
            .then(
                self.arrival
                    .partial_cmp(&other.arrival)
                    .expect("NaN arrival"),
            )
            .then(self.id.cmp(&other.id))
    }
}

/// A scheduling policy: produce a total priority order over active jobs.
///
/// Implementations return a sort key per job; the simulator sorts ascending
/// (smaller key = higher priority) with arrival time and job id as
/// universal tie-breakers, so every policy yields a deterministic total
/// order.
///
/// The engine calls [`order_into`](SchedulingPolicy::order_into) — and
/// only it — with the *borrowed* job table and reusable scratch buffers:
/// keys are computed exactly once per job (no closure re-evaluation
/// inside the comparator) and nothing is cloned or allocated once the
/// buffers have warmed up. Customize a policy by implementing
/// [`key`](SchedulingPolicy::key); an ordering not expressible as a
/// per-job scalar key must override `order_into` itself (the engine
/// honors such overrides). [`order`](SchedulingPolicy::order) is an
/// allocating convenience wrapper for tests and one-off callers — the
/// engine never calls it, so overriding it has no effect on simulation.
pub trait SchedulingPolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Primary sort key for one job (smaller = runs earlier).
    fn key(&self, job: &ActiveJob) -> f64;

    /// Write the scheduling order of `queue` (indices into `jobs`) into
    /// `out`, highest priority first. Each job's key is computed exactly
    /// once; `keys` is scratch the caller reuses across rounds, so the
    /// sort is allocation-free at steady state. Because the `(key,
    /// arrival, id)` order is total and strict, the result is independent
    /// of the order of `queue` itself.
    fn order_into(
        &self,
        jobs: &[ActiveJob],
        queue: &[usize],
        keys: &mut Vec<SchedKey>,
        out: &mut Vec<usize>,
    ) {
        keys.clear();
        for &ji in queue {
            let job = &jobs[ji];
            keys.push(SchedKey {
                key: self.key(job),
                arrival: job.spec.arrival,
                id: job.spec.id,
                job: ji,
            });
        }
        // Unstable sort allocates nothing; the unique job-id tie-breaker
        // makes the order strict, so stability cannot matter.
        keys.sort_unstable_by(SchedKey::cmp_total);
        out.clear();
        out.extend(keys.iter().map(|k| k.job));
    }

    /// Order the given jobs by priority, returning indices into `jobs`.
    fn order(&self, jobs: &[ActiveJob]) -> Vec<usize> {
        let queue: Vec<usize> = (0..jobs.len()).collect();
        let mut keys = Vec::with_capacity(jobs.len());
        let mut out = Vec::with_capacity(jobs.len());
        self.order_into(jobs, &queue, &mut keys, &mut out);
        out
    }

    /// How many consecutive upcoming round boundaries — counting the one
    /// the engine is about to process, whose keys equal the state in
    /// `jobs` — the ordering in `sorted` (the current queue order,
    /// ascending) provably survives, assuming the active queue does not
    /// change and each job retires `progress_per_round[job]` seconds of
    /// ideal work per round (zero for jobs not running). The boundary
    /// reached after `m` further rounds of accrual is covered when the
    /// returned value exceeds `m`.
    ///
    /// This is the scheduler's half of event-driven round skipping: the
    /// engine skips a round only while (a) no job arrives, (b) no running
    /// job completes, and (c) the priority order cannot change — this hook
    /// answers (c). Return `usize::MAX` when the order can never change on
    /// its own (e.g. FIFO), or the number of rounds until the next
    /// *priority crossing* (e.g. a LAS job reaching its demotion
    /// threshold). The estimate only has to be a best effort: the engine
    /// re-derives every key at each skipped boundary and stops the moment
    /// the order actually shifts, so an optimistic answer costs nothing
    /// but a shorter skip — however, returning nonzero asserts that the
    /// policy's ordering is the default `(key, arrival, id)` cached-key
    /// sort, which is what the engine's per-boundary re-check validates. A
    /// policy that overrides [`order_into`](SchedulingPolicy::order_into)
    /// with an ordering not derived from [`key`](SchedulingPolicy::key)
    /// must keep the conservative default of `0` ("may change every
    /// round"), which disables skipping under that policy.
    ///
    /// Returning nonzero also asserts the *frozen-waiting-key* contract:
    /// the key of a job that is not running never changes on its own
    /// (waiting jobs' remaining work and attained service are frozen). The
    /// per-boundary re-check relies on it to re-derive only running jobs'
    /// keys, so each skipped boundary costs O(prefix) key evaluations
    /// rather than O(active). All four built-in policies satisfy it.
    fn order_stable_rounds(
        &self,
        jobs: &[ActiveJob],
        sorted: &[SchedKey],
        progress_per_round: &[f64],
        round_duration: f64,
    ) -> usize {
        let _ = (jobs, sorted, progress_per_round, round_duration);
        0
    }
}

/// Rounds until two adjacent linearly-decaying keys cross: the shared
/// analysis behind [`SchedulingPolicy::order_stable_rounds`] for policies
/// whose key shrinks at a constant per-round rate while a job runs (SRTF,
/// SRSF). For each adjacent pair in `sorted`, the gap `key[i+1] - key[i]`
/// closes by `drop(i+1) - drop(i)` per round (`drop` = the key's per-round
/// decrement); the order is safe strictly before the earliest gap reaches
/// zero. Ties in the primary key are ordered by the universal tie-breakers
/// and stay stable unless the later entry decays strictly faster.
pub fn stable_rounds_linear_keys(
    sorted: &[SchedKey],
    drop_per_round: impl Fn(usize) -> f64,
) -> usize {
    let mut stable = usize::MAX;
    for pair in sorted.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        let closing = drop_per_round(hi.job) - drop_per_round(lo.job);
        if closing <= 0.0 {
            continue; // the gap never shrinks
        }
        let gap = hi.key - lo.key;
        let rounds = if gap <= 0.0 {
            // Tied now (ordered by the tie-breakers); `hi` decays strictly
            // faster, so the pair flips after one round of accrual.
            1
        } else {
            // Boundaries reached after m rounds stay ordered while
            // m < gap/closing; the engine's exact per-boundary re-check
            // makes any floating-point optimism here harmless.
            (gap / closing).ceil() as usize
        };
        stable = stable.min(rounds);
        if stable == 0 {
            break;
        }
    }
    stable
}

#[cfg(test)]
pub(crate) mod test_util {
    use crate::job_state::ActiveJob;
    use pal_cluster::JobClass;
    use pal_gpumodel::Workload;
    use pal_trace::{JobId, JobSpec};

    /// Build a minimal active job for policy tests.
    pub fn job(id: u32, arrival: f64, demand: usize, iters: u64) -> ActiveJob {
        ActiveJob::new(JobSpec {
            id: JobId(id),
            model: Workload::ResNet50,
            class: JobClass::A,
            arrival,
            gpu_demand: demand,
            iterations: iters,
            base_iter_time: 1.0,
        })
    }
}
