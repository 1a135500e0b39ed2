//! [`EngineState`]: everything one simulation run mutates, separated from
//! the policies that drive it.
//!
//! The state owns the job table, the cluster occupancy map, the clocks,
//! and — the point of the decomposition — the *incrementally maintained*
//! active queue plus a bundle of scratch buffers the round loop reuses.
//! The seed engine rescanned `0..next_admit` twice per round and cloned
//! every active job for the scheduler; here the active queue is updated
//! only when jobs are admitted or finish, and every per-round temporary
//! lives in [`RoundScratch`] so a steady-state round allocates nothing.

use crate::job_state::ActiveJob;
use crate::placement::PlacementRequest;
use crate::sched::SchedKey;
use pal_cluster::{ClusterState, ClusterTopology, GpuId};
use pal_trace::Trace;

/// Mutable state of one simulation run.
pub(crate) struct EngineState {
    /// Runtime state of every job, in trace (arrival) order.
    pub(crate) jobs: Vec<ActiveJob>,
    /// Whether admission control turned the job away (parallel to `jobs`).
    pub(crate) rejected: Vec<bool>,
    /// GPU occupancy.
    pub(crate) cluster: ClusterState,
    /// Simulated time at the *start* of the next round, seconds.
    pub(crate) t: f64,
    /// Jobs out of the system: completed or rejected.
    pub(crate) finished: usize,
    /// Jobs processed by admission so far (arrival order).
    pub(crate) next_admit: usize,
    /// Simulated scheduling rounds elapsed, exactly as fixed-round
    /// stepping would count them (event-driven skipping replays the
    /// counter for every round it hops over, so results stay
    /// bit-identical).
    pub(crate) rounds: usize,
    /// Rounds the engine actually *executed* — full decision rounds plus
    /// idle fast-forwards. Event-driven skipping advances `rounds` without
    /// advancing this; the gap is the skip win.
    pub(crate) executed_rounds: usize,
    /// Indices of admitted, unfinished jobs, ascending. Maintained
    /// incrementally: push on admission, compact when jobs finish.
    pub(crate) active_queue: Vec<usize>,
    /// Sum of GPU demands over `active_queue` — the admission-control
    /// context counter the seed engine recomputed per arrival (O(jobs²)
    /// across a burst).
    pub(crate) active_demand: usize,
    /// Reusable per-round buffers.
    pub(crate) scratch: RoundScratch,
}

/// [`RoundScratch::old_slot`] marker: the job has no released allocation.
pub(crate) const NO_SLOT: usize = usize::MAX;

/// Per-round temporaries, allocated once and reused every round.
#[derive(Default)]
pub(crate) struct RoundScratch {
    /// Cached-key sort scratch for the scheduling order.
    pub(crate) sched_keys: Vec<SchedKey>,
    /// Scheduling order of the active queue (job indices).
    pub(crate) order: Vec<usize>,
    /// The schedulable prefix (job indices, scheduling order).
    pub(crate) prefix: Vec<usize>,
    /// Prefix membership flags, indexed by job; reset after every round.
    pub(crate) in_prefix: Vec<bool>,
    /// Jobs whose allocation changed this round (pay restore overhead);
    /// indexed by job, reset after every round.
    pub(crate) migrated: Vec<bool>,
    /// Prefix jobs needing GPUs this round (job indices).
    pub(crate) needs: Vec<usize>,
    /// Placement requests, parallel to `needs`.
    pub(crate) requests: Vec<PlacementRequest>,
    /// Allocation order over `requests` (the policy's placement
    /// priority), reused across rounds.
    pub(crate) place_order: Vec<usize>,
    /// Recycled GPU-allocation vectors: emptied when jobs release GPUs
    /// (preemption, completion, non-sticky re-placement) and handed back
    /// to `PlacementPolicy::place_into`, so the round loop moves GPU ids
    /// without collecting a fresh `Vec` per placement.
    pub(crate) gpu_pool: Vec<Vec<GpuId>>,
    /// Allocations released for non-sticky re-placement (the GPU vectors
    /// are *moved* out of the job phase, not cloned).
    pub(crate) old_allocs: Vec<Vec<GpuId>>,
    /// Per-job index into `old_allocs` ([`NO_SLOT`] when the job released
    /// nothing this round), so migration detection is an O(1) lookup;
    /// reset when `old_allocs` is drained.
    pub(crate) old_slot: Vec<usize>,
    /// `(finish time, GPU demand)` of jobs completing mid-round.
    pub(crate) completions: Vec<(f64, usize)>,
    /// Per-GPU ground-truth slowdowns for one telemetry observation.
    pub(crate) per_gpu: Vec<f64>,
    /// Sorted copy of a fresh allocation, for migration detection.
    pub(crate) alloc_sorted: Vec<GpuId>,
    /// Sorted copy of a placement order, for the permutation check.
    pub(crate) perm_check: Vec<usize>,
    /// Per-job slowdown (locality × straggler) of the current allocation,
    /// cached by the round loop for event-driven skipping; indexed by job,
    /// meaningful only for jobs in the last round's prefix.
    pub(crate) slowdown: Vec<f64>,
    /// Per-job locality penalty of the current allocation (cached for
    /// replaying telemetry observations); indexed like `slowdown`.
    pub(crate) locality_penalty: Vec<f64>,
    /// Per-job ideal seconds retired per full round at the current
    /// allocation (`round_duration / slowdown`); 0.0 for jobs not running,
    /// so a skip hop re-derives scheduling keys only where it is nonzero.
    pub(crate) progress_per_round: Vec<f64>,
}

impl RoundScratch {
    /// Empty scratch with the per-job buffers sized for `n` jobs.
    pub(crate) fn new(n: usize) -> Self {
        RoundScratch {
            in_prefix: vec![false; n],
            migrated: vec![false; n],
            slowdown: vec![0.0; n],
            locality_penalty: vec![0.0; n],
            progress_per_round: vec![0.0; n],
            old_slot: vec![NO_SLOT; n],
            ..Default::default()
        }
    }
}

impl EngineState {
    /// Fresh state for a trace on an all-free cluster at `t = 0`.
    pub(crate) fn new(trace: &Trace, topology: ClusterTopology) -> Self {
        let jobs: Vec<ActiveJob> = trace.jobs.iter().cloned().map(ActiveJob::new).collect();
        let n = jobs.len();
        EngineState {
            rejected: vec![false; n],
            cluster: ClusterState::new(topology),
            t: 0.0,
            finished: 0,
            next_admit: 0,
            rounds: 0,
            executed_rounds: 0,
            active_queue: Vec::new(),
            active_demand: 0,
            scratch: RoundScratch::new(n),
            jobs,
        }
    }

    /// Whether every job has left the system (completed or rejected).
    pub(crate) fn is_complete(&self) -> bool {
        self.finished >= self.jobs.len()
    }
}
