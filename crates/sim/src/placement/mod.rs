//! Placement policies: which GPUs a scheduled job gets (Section IV-A1).
//!
//! The simulator hands the placement policy the schedulable prefix in
//! scheduling order; the policy may reorder it (PAL's placement priority,
//! Figure 4) and must then choose exactly `gpu_demand` free GPUs for each
//! job. The Packed and Random baselines live here; PM-First and PAL live in
//! the `pal` crate and implement the same trait.

mod packed;
mod random;

pub use packed::PackedPlacement;
pub use random::RandomPlacement;

use pal_cluster::{ClusterState, ClusterView, GpuId, JobClass, LocalityModel, VariabilityProfile};
use pal_trace::JobId;

/// The GPUs chosen for one request. Policies *fill* a caller-owned buffer
/// ([`PlacementPolicy::place_into`]) so the engine can recycle allocation
/// vectors round over round instead of collecting a fresh `Vec` per
/// placement.
pub type Allocation = Vec<GpuId>;

/// Everything a placement policy may consult: the variability profile, the
/// locality model (baselines ignore both — that is exactly the paper's
/// point), and the simulation-owned [`ClusterView`] — per-node free-GPU
/// lists maintained incrementally by the cluster state, so policies read
/// free lists without rebuilding them per decision.
pub struct PlacementCtx<'a> {
    /// Per-class per-GPU PM penalties.
    pub profile: &'a VariabilityProfile,
    /// Locality penalty model.
    pub locality: &'a LocalityModel,
    /// Incrementally maintained per-node free-GPU lists (always current:
    /// the engine re-borrows the view for every placement decision).
    pub view: &'a ClusterView,
}

/// One job awaiting GPUs this round.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementRequest {
    /// Job identity.
    pub job: JobId,
    /// Model name (for per-model locality lookups).
    pub model: &'static str,
    /// Variability class.
    pub class: JobClass,
    /// GPUs required.
    pub gpu_demand: usize,
}

/// Per-round telemetry about one running job, delivered to the placement
/// policy after the round executes (what a real deployment measures from
/// iteration timestamps). Section V-A motivates this: stale offline
/// profiles caused an 11–14 % cluster-to-simulation gap, and the paper
/// calls for "dynamic online updates to GPU PM-Scores" — the adaptive
/// policies in the `pal` crate consume these observations.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundObservation<'a> {
    /// The observed job.
    pub job: JobId,
    /// Its variability class.
    pub class: JobClass,
    /// The GPUs it ran on this round.
    pub gpus: &'a [GpuId],
    /// Measured per-GPU slowdown relative to the median GPU (the
    /// ground-truth PM penalty each device actually delivered), aligned
    /// with `gpus`.
    pub per_gpu_slowdown: &'a [f64],
    /// The locality penalty the allocation paid this round.
    pub locality_penalty: f64,
}

/// A GPU placement policy.
///
/// The engine calls [`placement_order_into`] and [`place_into`] — and only
/// them — with reusable buffers, so a policy that fills the buffers from
/// the borrowed [`PlacementCtx::view`] performs no allocation per
/// decision (the property `benches/placement_hot_path.rs` pins).
/// [`placement_order`] and [`place`] are allocating convenience wrappers
/// for tests and one-off callers — the engine never calls them, so
/// overriding them has no effect on simulation.
///
/// [`placement_order_into`]: PlacementPolicy::placement_order_into
/// [`place_into`]: PlacementPolicy::place_into
/// [`placement_order`]: PlacementPolicy::placement_order
/// [`place`]: PlacementPolicy::place
pub trait PlacementPolicy {
    /// Policy name for reports (e.g. `Tiresias`, `PAL`).
    fn name(&self) -> &str;

    /// Telemetry feedback after each executed round. The default ignores
    /// it; adaptive policies fold it into their PM-score estimates.
    fn observe(&mut self, _obs: &RoundObservation) {}

    /// Whether this policy consumes [`observe`](PlacementPolicy::observe)
    /// callbacks. The engine's event-driven skip path replays one
    /// observation per running job per skipped round; a policy whose
    /// `observe` is a no-op returns `false` here so the skip can elide
    /// assembling them (the built-in non-adaptive policies do). The
    /// default is `true` — always safe, and required whenever `observe`
    /// is overridden with a non-trivial body.
    fn wants_observations(&self) -> bool {
        true
    }

    /// Write the allocation order of the schedulable prefix — indices into
    /// `requests` — into `out` (cleared first). The default keeps
    /// scheduling order; PAL and PM-First sort by class (placement
    /// priority) *within* the prefix, which is legal because every prefix
    /// job is guaranteed to be scheduled this round (Figure 4).
    fn placement_order_into(
        &self,
        requests: &[PlacementRequest],
        _ctx: &PlacementCtx,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend(0..requests.len());
    }

    /// Choose exactly `request.gpu_demand` free GPUs and push them into
    /// `out` (handed over cleared by the engine, with its previous
    /// capacity intact). The simulator guarantees `state.free_count() >=
    /// request.gpu_demand`; leaving any other number of GPUs in `out`, or
    /// busy GPUs, is a policy bug and panics in the engine.
    fn place_into(
        &mut self,
        request: &PlacementRequest,
        ctx: &PlacementCtx,
        state: &ClusterState,
        out: &mut Allocation,
    );

    /// Serialize the policy's mutable run state (RNG words, online
    /// estimates, …) for [`Simulation::export_state`]. Stateless policies
    /// — the default — return `None` and restore as factory-fresh;
    /// stateful ones return a self-describing [`serde::Value`] their
    /// [`import_state`](Self::import_state) can rebuild from. The value's
    /// layout is policy-private: it round-trips through the simulator's
    /// versioned state files opaquely.
    ///
    /// [`Simulation::export_state`]: crate::Simulation::export_state
    fn export_state(&self) -> Option<serde::Value> {
        None
    }

    /// Restore run state produced by [`export_state`](Self::export_state)
    /// on the *same* policy configuration. Returns an error message when
    /// the value doesn't fit (wrong policy, wrong shape); the default
    /// refuses everything, matching the default `export_state`'s `None`.
    fn import_state(&mut self, state: &serde::Value) -> Result<(), String> {
        let _ = state;
        Err(format!(
            "placement policy {} is stateless and accepts no state",
            self.name()
        ))
    }

    /// Allocating convenience wrapper over
    /// [`placement_order_into`](Self::placement_order_into).
    fn placement_order(&self, requests: &[PlacementRequest], ctx: &PlacementCtx) -> Vec<usize> {
        let mut out = Vec::with_capacity(requests.len());
        self.placement_order_into(requests, ctx, &mut out);
        out
    }

    /// Allocating convenience wrapper over [`place_into`](Self::place_into).
    fn place(
        &mut self,
        request: &PlacementRequest,
        ctx: &PlacementCtx,
        state: &ClusterState,
    ) -> Allocation {
        let mut out = Vec::with_capacity(request.gpu_demand);
        self.place_into(request, ctx, state, &mut out);
        out
    }
}

/// Validate a policy's answer: right count, all free, no duplicates.
/// Called by the engine after every `place` (outside the policy-timing
/// window). Duplicate detection is a quadratic scan — allocations are at
/// most a few dozen GPUs, and this runs per placement per round, so
/// avoiding a hash set matters more than big-O.
pub(crate) fn validate_allocation(
    policy: &str,
    request: &PlacementRequest,
    state: &ClusterState,
    gpus: &[GpuId],
) {
    assert_eq!(
        gpus.len(),
        request.gpu_demand,
        "{policy} returned {} GPUs for {} (demand {})",
        gpus.len(),
        request.job,
        request.gpu_demand
    );
    for (i, &g) in gpus.iter().enumerate() {
        assert!(state.is_free(g), "{policy} allocated busy {g}");
        assert!(!gpus[..i].contains(&g), "{policy} duplicated {g}");
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use pal_cluster::{ClusterTopology, VariabilityProfile};

    /// A uniform profile (every GPU scores 1.0 for 3 classes) over `n` GPUs.
    pub(crate) fn flat_profile(n: usize) -> VariabilityProfile {
        VariabilityProfile::from_raw(vec![vec![1.0; n]; 3])
    }

    /// Convenience request.
    pub(crate) fn request(job: u32, demand: usize) -> PlacementRequest {
        PlacementRequest {
            job: JobId(job),
            model: "resnet50",
            class: JobClass::A,
            gpu_demand: demand,
        }
    }

    /// A 4-GPUs-per-node state.
    pub(crate) fn state(nodes: usize) -> ClusterState {
        ClusterState::new(ClusterTopology::new(nodes, 4))
    }
}
