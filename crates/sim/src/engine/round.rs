//! One scheduling round: the engine's hot loop, operating on borrowed
//! [`EngineState`] and policies.
//!
//! The round body is behaviorally identical to the seed engine's loop —
//! golden tests pin the outputs bit-for-bit — but allocation-free at
//! steady state:
//!
//! - the incrementally maintained active queue is ordered by a cached-key
//!   sort over [`SchedulingPolicy::key`] (keys computed once, borrowed
//!   jobs, reused buffers) instead of sorting a cloned `Vec<ActiveJob>`;
//! - admission-control context comes from two incrementally maintained
//!   counters instead of an O(active) rescan per arrival;
//! - preemption/re-placement *move* GPU vectors out of the job phase
//!   rather than cloning them;
//! - prefix membership and migration marking use per-job flag buffers
//!   rather than per-round hash sets;
//! - allocation validity checks and the placement-order permutation
//!   assert sit *outside* the timed window, so the reported per-round
//!   policy compute time (Figure 18) measures only the policy.

use super::state::{EngineState, NO_SLOT};
use super::telemetry::Observer;
use super::EPS;
use crate::admission::{AdmissionCtx, AdmissionPolicy};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::job_state::JobPhase;
use crate::observe::{JobEventKind, RoundEvent};
use crate::placement::{
    validate_allocation, PlacementCtx, PlacementPolicy, PlacementRequest, RoundObservation,
};
use crate::sched::{self, SchedKey, SchedulingPolicy};
use crate::serving::ServingEngine;
use pal_cluster::{LocalityModel, VariabilityProfile};
use std::time::{Duration, Instant};

/// What one step of the simulation (see [`crate::Simulation::step`]) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The round executed (or idle time was fast-forwarded); jobs remain.
    Running,
    /// Every job has left the system; the state will no longer change.
    Complete,
}

/// Borrowed read-only context of one run, shared by every round.
pub(crate) struct RoundCtx<'a> {
    /// The profile placement policies consult.
    pub profile: &'a VariabilityProfile,
    /// The ground-truth profile driving execution (Equation 1).
    pub truth: &'a VariabilityProfile,
    /// Locality penalty model.
    pub locality: &'a LocalityModel,
    /// Simulator knobs.
    pub config: &'a SimConfig,
    /// Cluster GPU count.
    pub total_gpus: usize,
    /// A skip hop commits no round that starts at or after this time, so
    /// a caller stepping to a target time lands on the first boundary at
    /// or after it exactly as fixed-round stepping does (`+∞` for plain
    /// stepping).
    pub skip_until: f64,
}

/// Advance the simulation by one scheduling round.
///
/// Returns [`StepOutcome::Complete`] without touching the state once every
/// job has finished or been rejected; errors ([`SimError::Livelock`],
/// [`SimError::OversizedJob`]) are stable — calling again re-derives the
/// same error.
pub(crate) fn step_round(
    st: &mut EngineState,
    obs: &mut Observer<'_>,
    ctx: &RoundCtx<'_>,
    scheduler: &dyn SchedulingPolicy,
    placement: &mut dyn PlacementPolicy,
    admission: &dyn AdmissionPolicy,
    serving: &mut Option<ServingEngine>,
) -> Result<StepOutcome, SimError> {
    // With serving deployments pending, a step keeps advancing the clock
    // (and the serving engine with it) even after every training job has
    // left the system; `ctx.total_gpus` is already the training capacity
    // net of the GPUs the replicas hold.
    let serving_pending = serving.as_ref().is_some_and(|s| !s.is_done());
    if st.is_complete() && !serving_pending {
        return Ok(StepOutcome::Complete);
    }
    // The round counter is checked *before* incrementing (and rolled back
    // on the admission error below), so a failed step leaves it untouched
    // and retrying re-derives exactly the same error forever.
    if st.rounds >= ctx.config.max_rounds {
        return Err(SimError::Livelock {
            rounds: ctx.config.max_rounds,
        });
    }
    st.rounds += 1;
    st.executed_rounds += 1;
    let dt = ctx.config.round_duration;
    let total_gpus = ctx.total_gpus;
    let t = st.t;

    // 1. Admission: consult the admission policy for every job that has
    // arrived by now (Blox admits at queue entry). The context counters
    // are maintained incrementally — a burst of k arrivals costs O(k),
    // not O(k × active).
    while st.next_admit < st.jobs.len() && st.jobs[st.next_admit].spec.arrival <= t + EPS {
        let a_ctx = AdmissionCtx {
            total_gpus,
            active_jobs: st.active_queue.len(),
            active_demand: st.active_demand,
        };
        let spec = &st.jobs[st.next_admit].spec;
        if !admission.admit(spec, &a_ctx) {
            obs.job(t, spec.id, JobEventKind::Rejected);
            st.rejected[st.next_admit] = true;
            st.finished += 1;
        } else if spec.gpu_demand > total_gpus {
            st.rounds -= 1; // un-count the aborted round: errors are stable
            st.executed_rounds -= 1;
            return Err(SimError::OversizedJob {
                job: spec.id,
                demand: spec.gpu_demand,
                total_gpus,
            });
        } else {
            obs.job(t, spec.id, JobEventKind::Admitted);
            st.active_demand += spec.gpu_demand;
            st.active_queue.push(st.next_admit);
        }
        st.next_admit += 1;
    }

    // Idle fast-forward: nothing to run until the next arrival.
    if st.active_queue.is_empty() {
        // The admission loop may have just rejected the final pending
        // job(s): nothing is active and nothing is left to admit.
        if st.next_admit >= st.jobs.len() {
            // Training is drained; with serving streams still pending the
            // clock keeps advancing one round per step (same cadence in
            // fixed and event-driven modes) until every stream is served.
            if serving_pending {
                let srv = serving.as_mut().expect("serving pending");
                st.t = t + dt;
                srv.advance_to(st.t, obs);
                emit_round(st, obs, 0);
                return Ok(if srv.is_done() {
                    StepOutcome::Complete
                } else {
                    StepOutcome::Running
                });
            }
            emit_round(st, obs, 0);
            return Ok(StepOutcome::Complete);
        }
        let next_arrival = st.jobs[st.next_admit].spec.arrival;
        let k = (next_arrival / dt).floor();
        let mut nt = k * dt;
        if nt <= t + EPS || nt + EPS < next_arrival {
            nt = (k + 1.0) * dt;
        }
        st.t = nt.max(t + dt);
        // The idle hop is identical in fixed and event-driven modes, so
        // advancing serving to the hopped clock preserves equivalence.
        if let Some(srv) = serving.as_mut() {
            srv.advance_to(st.t, obs);
        }
        emit_round(st, obs, 0);
        return Ok(StepOutcome::Running);
    }

    // 2. Scheduling order over the active queue (cached-key sort over
    // borrowed jobs — no clones, no per-round allocation).
    sched::order_into(
        scheduler,
        &st.jobs,
        &st.active_queue,
        &mut st.scratch.sched_keys,
        &mut st.scratch.order,
    );

    // 3. Mark the schedulable prefix (Figure 4): maximal prefix of the
    // ordered queue whose cumulative demand fits the cluster.
    st.scratch.prefix.clear();
    let mut demand_sum = 0usize;
    for i in 0..st.scratch.order.len() {
        let ji = st.scratch.order[i];
        let d = st.jobs[ji].spec.gpu_demand;
        if demand_sum + d > total_gpus {
            break;
        }
        demand_sum += d;
        st.scratch.prefix.push(ji);
        st.scratch.in_prefix[ji] = true;
    }

    // 4a. Preempt running jobs that fell out of the prefix (O(active) via
    // the membership flags). The GPU vector is moved out of the phase —
    // not cloned — and recycled into the allocation pool.
    for qi in 0..st.active_queue.len() {
        let ji = st.active_queue[qi];
        if st.jobs[ji].is_running() && !st.scratch.in_prefix[ji] {
            let phase = std::mem::replace(&mut st.jobs[ji].phase, JobPhase::Waiting);
            if let JobPhase::Running { mut gpus } = phase {
                st.cluster.release(&gpus);
                gpus.clear();
                st.scratch.gpu_pool.push(gpus);
            }
            st.jobs[ji].preemptions += 1;
            st.scratch.progress_per_round[ji] = 0.0; // no longer accruing
            obs.job(t, st.jobs[ji].spec.id, JobEventKind::Preempted);
        }
    }

    // 4b. Under non-sticky placement every prefix job is re-placed; under
    // sticky placement running jobs keep their GPUs.
    st.scratch.old_allocs.clear();
    if !ctx.config.sticky {
        for i in 0..st.scratch.prefix.len() {
            let ji = st.scratch.prefix[i];
            if st.jobs[ji].is_running() {
                let phase = std::mem::replace(&mut st.jobs[ji].phase, JobPhase::Waiting);
                if let JobPhase::Running { gpus } = phase {
                    st.cluster.release(&gpus);
                    st.scratch.old_slot[ji] = st.scratch.old_allocs.len();
                    st.scratch.old_allocs.push(gpus);
                }
            }
        }
    }

    // 4c. Build requests (in scheduling order) for jobs needing GPUs.
    st.scratch.needs.clear();
    st.scratch.requests.clear();
    for i in 0..st.scratch.prefix.len() {
        let ji = st.scratch.prefix[i];
        if !st.jobs[ji].is_running() {
            st.scratch.needs.push(ji);
            st.scratch.requests.push(PlacementRequest {
                job: st.jobs[ji].spec.id,
                model: st.jobs[ji].spec.model.name(),
                class: st.jobs[ji].spec.class,
                gpu_demand: st.jobs[ji].spec.gpu_demand,
            });
        }
    }

    // 4d. Place. Only the policy's own work — `placement_order_into` and
    // each `place_into` call — is inside the timed window (Figure 18
    // reports this); the engine-side validity checks and bookkeeping are
    // excluded. The `PlacementCtx` is re-assembled per decision because
    // the borrowed `ClusterView` must reflect the allocations of earlier
    // placements in the same round — it is three pointers, so this costs
    // nothing.
    let mut policy_time = Duration::ZERO;
    let clock = Instant::now();
    placement.placement_order_into(
        &st.scratch.requests,
        &PlacementCtx {
            profile: ctx.profile,
            locality: ctx.locality,
            view: st.cluster.view(),
        },
        &mut st.scratch.place_order,
    );
    policy_time += clock.elapsed();
    st.scratch.perm_check.clear();
    st.scratch
        .perm_check
        .extend_from_slice(&st.scratch.place_order);
    st.scratch.perm_check.sort_unstable();
    assert!(
        st.scratch
            .perm_check
            .iter()
            .copied()
            .eq(0..st.scratch.requests.len()),
        "{} returned an invalid placement order",
        placement.name()
    );
    for oi in 0..st.scratch.place_order.len() {
        let ri = st.scratch.place_order[oi];
        let mut alloc = st.scratch.gpu_pool.pop().unwrap_or_default();
        let req = &st.scratch.requests[ri];
        let pctx = PlacementCtx {
            profile: ctx.profile,
            locality: ctx.locality,
            view: st.cluster.view(),
        };
        let clock = Instant::now();
        placement.place_into(req, &pctx, &st.cluster, &mut alloc);
        policy_time += clock.elapsed();
        validate_allocation(placement.name(), req, &st.cluster, &alloc);
        st.cluster.allocate(&alloc);
        let ji = st.scratch.needs[ri];
        if st.jobs[ji].first_start.is_none() {
            st.jobs[ji].first_start = Some(t);
            obs.job(t, st.jobs[ji].spec.id, JobEventKind::Started);
        } else {
            // Re-placement of a previously running job: count a migration
            // if the GPU set changed.
            let migrated = match st.scratch.old_allocs.get_mut(st.scratch.old_slot[ji]) {
                Some(old) => {
                    old.sort_unstable();
                    st.scratch.alloc_sorted.clear();
                    st.scratch.alloc_sorted.extend_from_slice(&alloc);
                    st.scratch.alloc_sorted.sort_unstable();
                    st.scratch.alloc_sorted[..] != old[..]
                }
                None => true, // resume after preemption
            };
            if migrated {
                st.jobs[ji].migrations += 1;
                st.scratch.migrated[ji] = true;
                obs.job(t, st.jobs[ji].spec.id, JobEventKind::Migrated);
            }
        }
        st.jobs[ji].phase = JobPhase::Running { gpus: alloc };
    }
    // The old allocations kept for migration detection are spent; recycle
    // their vectors into the pool for future placements.
    {
        let scratch = &mut st.scratch;
        for &ji in &scratch.prefix {
            scratch.old_slot[ji] = NO_SLOT;
        }
        for mut gpus in scratch.old_allocs.drain(..) {
            gpus.clear();
            scratch.gpu_pool.push(gpus);
        }
    }
    obs.placement_compute(policy_time.as_secs_f64());

    // 5. Execute to the round boundary. Rates are constant within the
    // round, so each job's completion time is closed-form. The telemetry
    // observation is delivered from the borrowed allocation *before* the
    // job mutates — so jobs finishing (and releasing their GPUs)
    // mid-round still report their final round, the online-update signal
    // of Section V-A.
    let running_demand: usize = st
        .scratch
        .prefix
        .iter()
        .map(|&ji| st.jobs[ji].spec.gpu_demand)
        .sum();
    obs.gpu_usage(t, running_demand as f64);
    st.scratch.completions.clear();
    let mut finished_this_round = 0usize;
    for i in 0..st.scratch.prefix.len() {
        let ji = st.scratch.prefix[i];
        let job = &st.jobs[ji];
        let gpus = job.allocation().expect("prefix job running");
        let l = ctx
            .locality
            .penalty(st.cluster.topology(), job.spec.model.name(), gpus);
        // One score lookup per GPU serves both the slowdown (the max
        // straggler, Equation 1) and the telemetry observation below.
        st.scratch.per_gpu.clear();
        st.scratch
            .per_gpu
            .extend(gpus.iter().map(|&g| ctx.truth.score(job.spec.class, g)));
        let v = st.scratch.per_gpu.iter().copied().fold(0.0f64, f64::max);
        let slowdown = l * v;
        debug_assert!(slowdown > 0.0);
        // Cache the allocation-derived rates for event-driven skipping:
        // they stay constant exactly as long as the allocation does, which
        // is the window the skip replays. `dt / slowdown` is bit-identical
        // to the `(dt - overhead) / slowdown` an overhead-free round
        // computes.
        st.scratch.slowdown[ji] = slowdown;
        st.scratch.locality_penalty[ji] = l;
        st.scratch.progress_per_round[ji] = dt / slowdown;
        // A migrated job spends the restore overhead re-loading its
        // checkpoint before making progress; its GPUs are occupied but
        // idle during that window.
        let overhead = if st.scratch.migrated[ji] {
            ctx.config.migration_overhead.min(dt)
        } else {
            0.0
        };
        let finish_t = t + overhead + job.remaining_work * slowdown;
        // Telemetry feedback: what this job's GPUs actually delivered
        // this round (per-GPU ground-truth penalties plus the locality
        // penalty paid).
        placement.observe(&RoundObservation {
            job: job.spec.id,
            class: job.spec.class,
            gpus,
            per_gpu_slowdown: &st.scratch.per_gpu,
            locality_penalty: l,
        });
        let demand = job.spec.gpu_demand;
        let job = &mut st.jobs[ji];
        if finish_t <= t + dt + EPS {
            let run = finish_t - t;
            obs.busy_gpu_seconds(demand as f64 * run);
            job.attained_service += demand as f64 * run;
            job.remaining_work = 0.0;
            let phase = std::mem::replace(&mut job.phase, JobPhase::Finished { at: finish_t });
            if let JobPhase::Running { mut gpus } = phase {
                st.cluster.release(&gpus);
                gpus.clear();
                st.scratch.gpu_pool.push(gpus);
            }
            st.finished += 1;
            finished_this_round += 1;
            st.active_demand -= demand;
            st.scratch.completions.push((finish_t, demand));
            obs.job(finish_t, st.jobs[ji].spec.id, JobEventKind::Finished);
        } else {
            obs.busy_gpu_seconds(demand as f64 * dt);
            job.attained_service += demand as f64 * dt;
            job.remaining_work -= (dt - overhead) / slowdown;
        }
    }

    // Record mid-round utilization drops in completion order (stable sort:
    // simultaneous finishes stay in prefix order, as the seed engine had).
    st.scratch
        .completions
        .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN finish"));
    let mut in_use = running_demand as f64;
    for &(ft, d) in st.scratch.completions.iter() {
        in_use -= d as f64;
        // Clamp the breakpoint into this round: a completion whose exact
        // finish time lands within EPS past the boundary (boundary-exact
        // durations) must not out-run the next round's breakpoint at
        // `t + dt` — the job record keeps the exact finish time.
        obs.gpu_usage(ft.clamp(t, t + dt), in_use);
    }

    // Reset the per-job round flags and compact the active queue.
    for i in 0..st.scratch.prefix.len() {
        let ji = st.scratch.prefix[i];
        st.scratch.in_prefix[ji] = false;
        st.scratch.migrated[ji] = false;
    }
    if finished_this_round > 0 {
        let jobs = &st.jobs;
        st.active_queue.retain(|&ji| jobs[ji].is_active());
    }

    st.t = t + dt;

    // Event-driven round skipping: a sticky round in which every prefix
    // job kept running leaves nothing for the next rounds to decide until
    // an event — arrival, completion, or a change in the scheduling
    // order — so fast-replay those rounds' bookkeeping in one hop.
    // Non-sticky rounds re-place (and so re-randomize, for seeded
    // policies) every running job each round and are never skipped.
    if ctx.config.event_driven
        && ctx.config.sticky
        && finished_this_round == 0
        && !st.active_queue.is_empty()
    {
        skip_stable_rounds(st, obs, ctx, scheduler, placement);
    }

    // Serving processing is continuous-time and depends only on the clock
    // value, so advancing it after the (possibly skipped-ahead) boundary
    // yields identical outcomes under fixed and event-driven stepping.
    if let Some(srv) = serving.as_mut() {
        srv.advance_to(st.t, obs);
    }

    emit_round(st, obs, st.scratch.prefix.len() - finished_this_round);
    Ok(
        if st.is_complete() && serving.as_ref().is_none_or(|s| s.is_done()) {
            StepOutcome::Complete
        } else {
            StepOutcome::Running
        },
    )
}

/// Deliver the executed-round boundary event for the step that just ran.
/// The caller passes the running-job count it already knows (the placed
/// prefix minus this round's completions; zero on the idle paths), so an
/// attached sink costs O(1) here — a scan of a deep backlog's active
/// queue would tax `NullSink` runs measurably (the `observer_overhead`
/// bench gates this).
fn emit_round(st: &EngineState, obs: &mut Observer<'_>, running: usize) {
    if !obs.active() {
        return;
    }
    debug_assert_eq!(
        running,
        st.active_queue
            .iter()
            .filter(|&&ji| st.jobs[ji].is_running())
            .count(),
        "caller-tracked running count drifted from the job table"
    );
    obs.round(RoundEvent {
        round: st.rounds,
        executed_rounds: st.executed_rounds,
        t: st.t,
        running,
        waiting: st.active_queue.len() - running,
        finished: st.finished,
    });
}

/// Re-derive the cached keys from the current job state and check the
/// cached sequence is still sorted under the strict `(key, arrival, id)`
/// order — which, the order being total, holds exactly when
/// [`sched::order_into`] would reproduce the sequence.
///
/// Only *running* jobs' keys are re-derived. A key depends only on its
/// job (see [`SchedulingPolicy`]), and a job that is not running has
/// frozen remaining work and attained service, so its cached key is
/// already exact and the probe costs O(prefix) key evaluations per
/// boundary rather than O(active).
fn order_still_holds(
    scheduler: &dyn SchedulingPolicy,
    jobs: &[crate::job_state::ActiveJob],
    progress_per_round: &[f64],
    sorted: &mut [SchedKey],
) -> bool {
    for k in sorted.iter_mut() {
        if progress_per_round[k.job] > 0.0 {
            k.key = scheduler.key(&jobs[k.job]);
        }
    }
    sorted
        .windows(2)
        .all(|w| w[0].cmp_total(&w[1]) != std::cmp::Ordering::Greater)
}

/// Fast-replay the rounds between here and the next *event* — arrival,
/// running-job completion, a change in the re-derived scheduling order,
/// the `max_rounds` cap, or the caller's [`RoundCtx::skip_until`] —
/// executing exactly (and only) the bookkeeping those
/// rounds would have produced: the round counter, per-job progress and
/// service accrual, the telemetry accumulators, and the placement
/// policy's per-job observations. Every arithmetic operation replays the
/// fixed-round code path value for value (the allocation, and therefore
/// each job's slowdown and per-round progress, is constant across the
/// hop), and the scheduling order is re-verified from re-derived keys at
/// every skipped boundary, so a skipped run is bit-identical to a
/// fixed-round run everywhere except [`EngineState::executed_rounds`].
///
/// Call this only after an executed sticky round in which no job finished
/// (so the running set equals the schedulable prefix and the next round
/// would issue no placement requests). `placement_order_into` is *not*
/// replayed: it takes `&self` on an empty request list, so skipping the
/// call is unobservable; the per-round policy-compute series therefore
/// keeps one entry per executed round only.
fn skip_stable_rounds(
    st: &mut EngineState,
    obs: &mut Observer<'_>,
    ctx: &RoundCtx<'_>,
    scheduler: &dyn SchedulingPolicy,
    placement: &mut dyn PlacementPolicy,
) {
    let dt = ctx.config.round_duration;
    let running_demand: usize = st
        .scratch
        .prefix
        .iter()
        .map(|&ji| st.jobs[ji].spec.gpu_demand)
        .sum();
    // Observation replay is the hop's only O(GPUs) work; elide it for
    // policies whose `observe` is a no-op (bit-identical either way).
    let deliver_observations = placement.wants_observations();
    'boundary: loop {
        let t = st.t;
        // Livelock cap: stop here; the next executed step re-derives the
        // identical error at the identical round count. The caller's stop
        // time ends the hop on the first boundary at or after it.
        if st.rounds >= ctx.config.max_rounds || t >= ctx.skip_until {
            break;
        }
        // Admission would pick up an arrival at this boundary.
        if st.next_admit < st.jobs.len() && st.jobs[st.next_admit].spec.arrival <= t + EPS {
            break;
        }
        // A running job completes within this round (same closed-form
        // finish time, and the same tolerance, the executed round uses).
        for i in 0..st.scratch.prefix.len() {
            let ji = st.scratch.prefix[i];
            let finish_t = t + st.jobs[ji].remaining_work * st.scratch.slowdown[ji];
            if finish_t <= t + dt + EPS {
                break 'boundary;
            }
        }
        // The executed round and the accrual replayed so far moved the
        // running jobs' keys; the cached order survives into this
        // boundary only if it re-derives identically.
        if !order_still_holds(
            scheduler,
            &st.jobs,
            &st.scratch.progress_per_round,
            &mut st.scratch.sched_keys,
        ) {
            break;
        }

        // Commit: replay the bookkeeping of one unchanged round.
        st.rounds += 1;
        obs.gpu_usage(t, running_demand as f64);
        for i in 0..st.scratch.prefix.len() {
            let ji = st.scratch.prefix[i];
            if deliver_observations {
                let job = &st.jobs[ji];
                let gpus = job.allocation().expect("prefix job running");
                st.scratch.per_gpu.clear();
                st.scratch
                    .per_gpu
                    .extend(gpus.iter().map(|&g| ctx.truth.score(job.spec.class, g)));
                placement.observe(&RoundObservation {
                    job: job.spec.id,
                    class: job.spec.class,
                    gpus,
                    per_gpu_slowdown: &st.scratch.per_gpu,
                    locality_penalty: st.scratch.locality_penalty[ji],
                });
            }
            let job = &mut st.jobs[ji];
            let demand = job.spec.gpu_demand;
            obs.busy_gpu_seconds(demand as f64 * dt);
            job.attained_service += demand as f64 * dt;
            job.remaining_work -= st.scratch.progress_per_round[ji];
        }
        st.t = t + dt;
    }
}
