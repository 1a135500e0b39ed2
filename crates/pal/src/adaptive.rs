//! Online PM-score updates (the future-work extension Section V-A calls
//! for).
//!
//! The testbed experiment showed that *stale* offline profiles cost real
//! performance: node 0's class-A PM scores were far better in the profile
//! than on the machine, producing an 11–14 % cluster-to-simulation JCT gap.
//! The paper concludes: "This highlights the need for periodic re-profiling
//! of the cluster, or dynamic online updates to GPU PM-Scores."
//!
//! [`AdaptivePal`] implements the latter. It starts from the offline
//! profile, folds every round's measured per-GPU penalties into an
//! exponentially weighted moving average, and periodically re-bins the
//! estimates (K-Means + silhouette, as at design time) so the L×V matrix
//! tracks reality. The `abl_online_updates` benchmark shows it recovering
//! most of the JCT lost to a stale profile.

use crate::pal_policy::PalPlacement;
use crate::pm_scores::PmScoreTable;
use pal_cluster::{ClusterState, GpuId, JobClass, VariabilityProfile};
use pal_sim::{Allocation, PlacementCtx, PlacementPolicy, PlacementRequest, RoundObservation};
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// Configuration for the online estimator.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// EWMA weight of a new observation (0 = never update, 1 = replace).
    pub alpha: f64,
    /// Re-bin (K-Means + silhouette, the paper's default binning) after
    /// this many observation batches.
    pub rebin_every: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            alpha: 0.25,
            rebin_every: 16,
        }
    }
}

/// PAL with online PM-score updates.
#[derive(Debug, Clone)]
pub struct AdaptivePal {
    config: AdaptiveConfig,
    /// Current per-class, per-GPU raw score estimates (EWMA state).
    estimates: Vec<Vec<f64>>,
    /// Rounds observed since the last re-bin.
    rounds_since_rebin: usize,
    /// Whether any estimate changed since the last re-bin.
    dirty: bool,
    /// The estimates the current `inner` table was binned from — `None`
    /// until the first re-bin (the table is still the design-time one).
    /// Recorded so state export can rebuild `inner` exactly: re-binning
    /// the *current* estimates on import would bake in observations the
    /// original table never saw.
    rebin_source: Option<Vec<Vec<f64>>>,
    /// The PAL policy built on the current binned estimates.
    inner: PalPlacement,
}

impl AdaptivePal {
    /// Start from an offline profile (possibly stale).
    pub fn new(initial: &VariabilityProfile) -> Self {
        AdaptivePal::with_config(initial, AdaptiveConfig::default())
    }

    /// Start with a custom estimator configuration.
    pub fn with_config(initial: &VariabilityProfile, config: AdaptiveConfig) -> Self {
        let table = Arc::new(PmScoreTable::build_default(initial));
        AdaptivePal::from_shared(initial, table, config)
    }

    /// Start from an offline profile whose *initial* binned table has
    /// already been built — the sweep path: a [`crate::PmTableCache`]
    /// memoizes the design-time table (which must have been built from
    /// `initial` with the default binning), and each campaign cell's
    /// Adaptive-PAL shares it until its first re-bin diverges from the
    /// offline scores.
    ///
    /// Panics if the table's shape doesn't match `initial` — the cheap
    /// half of the "built from `initial` with the default binning"
    /// precondition; handing a table of the right shape but the wrong
    /// content is on the caller (the cache upholds it by construction).
    pub fn from_shared(
        initial: &VariabilityProfile,
        table: Arc<PmScoreTable>,
        config: AdaptiveConfig,
    ) -> Self {
        assert!(
            table.num_classes() == initial.num_classes() && table.num_gpus() == initial.num_gpus(),
            "shared table shape {}x{} does not match the initial profile {}x{}",
            table.num_classes(),
            table.num_gpus(),
            initial.num_classes(),
            initial.num_gpus()
        );
        let estimates: Vec<Vec<f64>> = (0..initial.num_classes())
            .map(|c| initial.class_scores(JobClass(c)).to_vec())
            .collect();
        let inner = PalPlacement::from_shared(table);
        AdaptivePal {
            config,
            estimates,
            rounds_since_rebin: 0,
            dirty: false,
            rebin_source: None,
            inner,
        }
    }

    /// Current raw estimate for one (class, GPU) pair.
    pub fn estimate(&self, class: JobClass, gpu: GpuId) -> f64 {
        self.estimates[class.0][gpu.index()]
    }

    /// The PM-score table currently in use (rebuilt on re-bin).
    pub fn table(&self) -> &PmScoreTable {
        self.inner.table()
    }

    /// Re-bin the current estimates now. The new inner PAL policy brings
    /// fresh, empty per-class score orderings (`pal_cluster::ClassOrders`),
    /// which keeps spread/PM-First selection consistent with the new
    /// table; they build on the next placement that needs them.
    fn rebin(&mut self) {
        let profile = VariabilityProfile::from_raw(self.estimates.clone());
        self.inner = PalPlacement::new(&profile);
        self.rebin_source = Some(self.estimates.clone());
        self.rounds_since_rebin = 0;
        self.dirty = false;
    }

    /// Refuse an imported score grid that is not this policy's classes ×
    /// GPUs shape or holds a value that is not positive and finite — the
    /// inputs `VariabilityProfile::from_raw` and a later re-bin accept.
    fn check_scores(&self, key: &str, grid: &[Vec<f64>]) -> Result<(), String> {
        if grid.len() != self.estimates.len()
            || grid
                .iter()
                .zip(&self.estimates)
                .any(|(a, b)| a.len() != b.len())
        {
            return Err(format!(
                "Adaptive-PAL state: `{key}` shape {}x{} does not match this policy's {}x{}",
                grid.len(),
                grid.first().map_or(0, Vec::len),
                self.estimates.len(),
                self.estimates.first().map_or(0, Vec::len)
            ));
        }
        match grid
            .iter()
            .flatten()
            .find(|&&v| !(v > 0.0 && v.is_finite()))
        {
            Some(v) => Err(format!(
                "Adaptive-PAL state: `{key}` holds {v}; scores must be positive and finite"
            )),
            None => Ok(()),
        }
    }
}

impl PlacementPolicy for AdaptivePal {
    fn name(&self) -> &str {
        "Adaptive-PAL"
    }

    /// The EWMA estimates, the re-bin clock, and the source of the
    /// current table. The design-time profile and `AdaptiveConfig` are
    /// configuration, not run state — import assumes a freshly built
    /// policy with the same configuration (which is what the simulator's
    /// state-import contract provides).
    fn export_state(&self) -> Option<Value> {
        Some(Value::Map(vec![
            ("estimates".into(), self.estimates.to_value()),
            (
                "rounds_since_rebin".into(),
                self.rounds_since_rebin.to_value(),
            ),
            ("dirty".into(), self.dirty.to_value()),
            ("rebin_source".into(), self.rebin_source.to_value()),
        ]))
    }

    fn import_state(&mut self, state: &Value) -> Result<(), String> {
        let field = |key: &str| {
            state
                .get(key)
                .ok_or_else(|| format!("Adaptive-PAL state: missing field `{key}`"))
        };
        let de = |key: &str, e: serde::DeError| format!("Adaptive-PAL state `{key}`: {e}");
        let estimates =
            Vec::<Vec<f64>>::from_value(field("estimates")?).map_err(|e| de("estimates", e))?;
        self.check_scores("estimates", &estimates)?;
        let rounds_since_rebin = usize::from_value(field("rounds_since_rebin")?)
            .map_err(|e| de("rounds_since_rebin", e))?;
        let dirty = bool::from_value(field("dirty")?).map_err(|e| de("dirty", e))?;
        let rebin_source = Option::<Vec<Vec<f64>>>::from_value(field("rebin_source")?)
            .map_err(|e| de("rebin_source", e))?;
        if let Some(src) = &rebin_source {
            self.check_scores("rebin_source", src)?;
        }
        // With no re-bin on record the factory-fresh `inner` (design-time
        // table) is already correct; otherwise rebuild it from the exact
        // estimates the exported run last binned (deterministic K-Means).
        if let Some(src) = &rebin_source {
            let profile = VariabilityProfile::from_raw(src.clone());
            self.inner = PalPlacement::new(&profile);
        }
        self.estimates = estimates;
        self.rounds_since_rebin = rounds_since_rebin;
        self.dirty = dirty;
        self.rebin_source = rebin_source;
        Ok(())
    }

    fn observe(&mut self, obs: &RoundObservation) {
        let a = self.config.alpha;
        for (&g, &v) in obs.gpus.iter().zip(obs.per_gpu_slowdown) {
            let e = &mut self.estimates[obs.class.0][g.index()];
            let updated = (1.0 - a) * *e + a * v;
            if (updated - *e).abs() > 1e-12 {
                *e = updated;
                self.dirty = true;
            }
        }
        self.rounds_since_rebin += 1;
        if self.dirty && self.rounds_since_rebin >= self.config.rebin_every {
            self.rebin();
        }
    }

    fn placement_order_into(
        &self,
        requests: &[PlacementRequest],
        ctx: &PlacementCtx,
        out: &mut Vec<usize>,
    ) {
        self.inner.placement_order_into(requests, ctx, out);
    }

    fn place_into(
        &mut self,
        request: &PlacementRequest,
        ctx: &PlacementCtx,
        state: &ClusterState,
        out: &mut Allocation,
    ) {
        self.inner.place_into(request, ctx, state, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pal_cluster::{ClusterTopology, LocalityModel};
    use pal_trace::JobId;

    fn flat_profile(n: usize) -> VariabilityProfile {
        VariabilityProfile::from_raw(vec![vec![1.0; n]; 3])
    }

    fn observe_gpu(policy: &mut AdaptivePal, gpu: GpuId, v: f64, times: usize) {
        let gpus = [gpu];
        let slow = [v];
        for _ in 0..times {
            policy.observe(&RoundObservation {
                job: JobId(0),
                class: JobClass::A,
                gpus: &gpus,
                per_gpu_slowdown: &slow,
                locality_penalty: 1.0,
            });
        }
    }

    #[test]
    fn estimates_converge_to_observations() {
        let mut p = AdaptivePal::new(&flat_profile(8));
        observe_gpu(&mut p, GpuId(3), 2.0, 50);
        let e = p.estimate(JobClass::A, GpuId(3));
        assert!((e - 2.0).abs() < 0.01, "estimate {e} should approach 2.0");
        // Unobserved GPUs keep their prior.
        assert_eq!(p.estimate(JobClass::A, GpuId(0)), 1.0);
        assert_eq!(p.estimate(JobClass::B, GpuId(3)), 1.0);
    }

    #[test]
    fn rebin_folds_observations_into_table() {
        let mut p = AdaptivePal::new(&flat_profile(8));
        // Before observations: GPU 3 is scored like everyone else.
        assert!((p.table().score(JobClass::A, GpuId(3)) - 1.0).abs() < 1e-9);
        observe_gpu(&mut p, GpuId(3), 3.0, 40);
        // rebin_every = 16 < 40 observations, so the table has been rebuilt.
        assert!(
            p.table().score(JobClass::A, GpuId(3)) > 1.5,
            "rebinned table should reflect the slow GPU (got {})",
            p.table().score(JobClass::A, GpuId(3))
        );
    }

    #[test]
    fn adaptive_pal_steers_away_from_discovered_straggler() {
        let profile = flat_profile(8);
        let mut p = AdaptivePal::new(&profile);
        observe_gpu(&mut p, GpuId(0), 4.0, 40);
        let state = ClusterState::new(ClusterTopology::new(2, 4));
        let locality = LocalityModel::uniform(1.5);
        let ctx = PlacementCtx {
            profile: &profile,
            locality: &locality,
            view: state.view(),
        };
        let req = PlacementRequest {
            job: JobId(1),
            model: "resnet50",
            class: JobClass::A,
            gpu_demand: 4,
        };
        let alloc = p.place(&req, &ctx, &state);
        assert!(
            !alloc.contains(&GpuId(0)),
            "adaptive PAL should avoid the discovered straggler: {alloc:?}"
        );
    }

    #[test]
    fn no_observations_behaves_like_pal() {
        let scores = vec![0.9, 0.9, 2.5, 2.5, 1.05, 1.05, 1.05, 1.05];
        let profile = VariabilityProfile::from_raw(vec![scores.clone(), scores.clone(), scores]);
        let mut adaptive = AdaptivePal::new(&profile);
        let mut plain = PalPlacement::new(&profile);
        let state = ClusterState::new(ClusterTopology::new(2, 4));
        let locality = LocalityModel::uniform(1.5);
        let ctx = PlacementCtx {
            profile: &profile,
            locality: &locality,
            view: state.view(),
        };
        let req = PlacementRequest {
            job: JobId(0),
            model: "resnet50",
            class: JobClass::A,
            gpu_demand: 2,
        };
        assert_eq!(
            adaptive.place(&req, &ctx, &state),
            plain.place(&req, &ctx, &state)
        );
    }

    #[test]
    fn alpha_zero_never_updates() {
        let cfg = AdaptiveConfig {
            alpha: 0.0,
            ..Default::default()
        };
        let mut p = AdaptivePal::with_config(&flat_profile(4), cfg);
        observe_gpu(&mut p, GpuId(1), 5.0, 30);
        assert_eq!(p.estimate(JobClass::A, GpuId(1)), 1.0);
    }

    #[test]
    fn state_round_trip_restores_estimates_and_table() {
        let profile = flat_profile(8);
        let mut original = AdaptivePal::new(&profile);
        observe_gpu(&mut original, GpuId(3), 3.0, 40); // crosses a re-bin
        observe_gpu(&mut original, GpuId(5), 1.8, 3); // plus un-binned drift
        let exported = original.export_state().expect("Adaptive-PAL is stateful");
        let mut restored = AdaptivePal::new(&profile);
        restored.import_state(&exported).unwrap();
        for c in 0..3 {
            for g in 0..8 {
                assert_eq!(
                    restored.estimate(JobClass(c), GpuId(g as u32)),
                    original.estimate(JobClass(c), GpuId(g as u32))
                );
                assert_eq!(
                    restored.table().score(JobClass(c), GpuId(g as u32)),
                    original.table().score(JobClass(c), GpuId(g as u32))
                );
            }
        }
        // Resumed policy re-bins at the same future round as the original.
        observe_gpu(&mut original, GpuId(5), 1.8, 16);
        observe_gpu(&mut restored, GpuId(5), 1.8, 16);
        assert_eq!(
            restored.table().score(JobClass::A, GpuId(5)),
            original.table().score(JobClass::A, GpuId(5))
        );
        // Wrong-shape estimates are refused.
        let mut small = AdaptivePal::new(&flat_profile(4));
        assert!(small.import_state(&exported).is_err());
    }

    #[test]
    fn manual_rebin_resets_counter() {
        let mut p = AdaptivePal::new(&flat_profile(4));
        observe_gpu(&mut p, GpuId(0), 2.0, 3);
        p.rebin();
        assert!(p.table().score(JobClass::A, GpuId(0)) > 1.0);
    }

    /// An exported state of an 8-GPU policy that has re-binned once, with
    /// `key` replaced by `value`.
    fn state_with(key: &str, value: Value) -> Value {
        let mut p = AdaptivePal::new(&flat_profile(8));
        observe_gpu(&mut p, GpuId(3), 3.0, 20);
        let Some(Value::Map(mut fields)) = p.export_state() else {
            panic!("Adaptive-PAL exports a map");
        };
        let (_, field) = fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("exported field");
        *field = value;
        Value::Map(fields)
    }

    fn import_err(state: &Value) -> String {
        AdaptivePal::new(&flat_profile(8))
            .import_state(state)
            .expect_err("malformed state must be refused")
    }

    #[test]
    fn import_refuses_gpu_less_rebin_source() {
        let err = import_err(&state_with(
            "rebin_source",
            Some(vec![Vec::<f64>::new()]).to_value(),
        ));
        assert!(err.contains("`rebin_source` shape 1x0"), "{err}");
    }

    #[test]
    fn import_refuses_negative_rebin_source() {
        let err = import_err(&state_with(
            "rebin_source",
            Some(vec![vec![-1.0; 8]; 3]).to_value(),
        ));
        assert!(err.contains("`rebin_source` holds -1"), "{err}");
    }

    #[test]
    fn import_refuses_rebin_source_of_another_cluster_size() {
        let err = import_err(&state_with(
            "rebin_source",
            Some(vec![vec![1.0, 2.0]; 3]).to_value(),
        ));
        assert!(err.contains("`rebin_source` shape 3x2"), "{err}");
    }

    #[test]
    fn import_refuses_negative_or_non_finite_estimates() {
        for bad in [-0.5, 0.0, f64::INFINITY] {
            let mut estimates = vec![vec![1.0; 8]; 3];
            estimates[2][5] = bad;
            let err = import_err(&state_with("estimates", estimates.to_value()));
            assert!(err.contains("`estimates` holds"), "{err}");
        }
    }
}
