//! The [`Campaign`] sweep runner: M scenarios × N placement policies,
//! executed in parallel with deterministic per-cell seeds and tagged
//! results.
//!
//! A campaign cell is one `(scenario, policy)` pair. Scenarios are
//! registered as named factories (a fresh [`Scenario`] is built per cell,
//! since placement policies are stateful); policies are registered as
//! named [`PolicySpec`] builders receiving the scenario's effective
//! variability profile and the cell's seed. Cell seeds are a pure function
//! of `(campaign seed, scenario tag, policy name)`, so results are
//! byte-identical across thread interleavings and match
//! [`Campaign::run_sequential`] exactly (modulo wall-clock placement
//! timing, which [`SimResult::same_outcome`] ignores).
//!
//! ## Sharing inputs across cells
//!
//! [`Scenario`] holds its heavy inputs behind `Arc`s (see the
//! [`Scenario` module docs](crate::scenario#shared-inputs)), so a factory
//! that captures `Arc<Trace>` / `Arc<VariabilityProfile>` handles and
//! clones *them* gives every cell a view of one shared copy — an N×M grid
//! over one trace allocates the trace once, not N×M times. Policy builders
//! receive the scenario's profile as a shared `&Arc` for the same reason:
//! builders that derive expensive per-profile artifacts (e.g. the `pal`
//! crate's PM-score tables) can key a memoization cache on it and build
//! each distinct artifact once per campaign instead of once per cell.
//!
//! ## Fleet-scale execution
//!
//! [`Campaign::run`] collects every [`CampaignResult`] in memory — fine
//! for paper-sized sweeps, quadratically painful for thousand-cell grids.
//! The fleet-scale surface decomposes that into three parts:
//!
//! - [`runner`]: [`Campaign::run_with_sink`] /
//!   [`Campaign::run_cells_with_sink`] drive cells through one scoped
//!   worker pool — workers pull cells off a shared cursor, in cell order
//!   — and hand each completed result to a sink instead of accumulating
//!   it;
//! - [`sink`]: the [`ResultSink`] trait with the in-memory
//!   [`MemorySink`] collector. Streaming sinks (the `pal-config` crate's
//!   JSONL spill sink) bound memory to O(workers × one result) and make
//!   runs crash-resumable;
//! - [`Campaign::cells`]: the deterministic cell enumeration — index,
//!   tag, policy name, injective seed — that durable sinks record so an
//!   interrupted grid can be resumed by skipping completed cells
//!   (re-running a cell is byte-identical because its seed is a pure
//!   function of `(campaign seed, tag, policy)`).

pub mod runner;
pub mod sink;
pub mod what_if;

pub use runner::{CampaignRunStats, FALLBACK_WORKERS};
pub use sink::{MemorySink, ResultSink};
pub use what_if::{WhatIfReport, WhatIfScenario};

use crate::error::SimError;
use crate::metrics::SimResult;
use crate::observe::MetricsSink;
use crate::placement::PlacementPolicy;
use crate::scenario::Scenario;
use crate::state::{fnv1a, FNV1A_BASIS};
use crate::Simulation;
use pal_cluster::VariabilityProfile;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

type ScenarioFactory = Box<dyn Fn() -> Scenario + Send + Sync>;
type PolicyBuilder =
    Box<dyn Fn(&Arc<VariabilityProfile>, u64) -> Box<dyn PlacementPolicy + Send> + Send + Sync>;
type MetricsSinkFactory =
    Box<dyn Fn(&CellInfo) -> Option<Box<dyn MetricsSink + Send>> + Send + Sync>;

/// A named placement-policy configuration for sweeps.
///
/// The builder closure receives the scenario's effective variability
/// profile (as a shared `Arc` handle — clone it freely, it's a
/// reference-count bump) and the cell's deterministic seed, and returns a
/// fresh policy instance. An optional sticky override lets one spec flip
/// the scenario's placement mode (e.g. the paper's Tiresias =
/// packed+sticky vs Gandiva = packed+non-sticky).
pub struct PolicySpec {
    name: String,
    sticky: Option<bool>,
    build: PolicyBuilder,
}

impl PolicySpec {
    /// A policy spec with no sticky override.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn(&Arc<VariabilityProfile>, u64) -> Box<dyn PlacementPolicy + Send>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        PolicySpec {
            name: name.into(),
            sticky: None,
            build: Box::new(build),
        }
    }

    /// Override the scenario's sticky mode when running under this spec.
    pub fn sticky(mut self, sticky: bool) -> Self {
        self.sticky = Some(sticky);
        self
    }

    /// Display name used to tag results.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sticky override, if any.
    pub fn sticky_override(&self) -> Option<bool> {
        self.sticky
    }

    /// Build a fresh policy instance for one cell. The profile is the
    /// scenario's shared handle ([`Scenario::effective_profile`]).
    pub fn build(
        &self,
        profile: &Arc<VariabilityProfile>,
        seed: u64,
    ) -> Box<dyn PlacementPolicy + Send> {
        (self.build)(profile, seed)
    }
}

impl std::fmt::Debug for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicySpec")
            .field("name", &self.name)
            .field("sticky", &self.sticky)
            .finish()
    }
}

/// One completed campaign cell.
///
/// Serializable (via the workspace serde shim), so streaming sinks can
/// spill completed cells to disk and resume runners can load them back;
/// the JSON round-trip is exact ([`SimResult::same_outcome`] holds
/// against the original).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Tag of the scenario that ran.
    pub scenario: String,
    /// Name of the policy that ran (the scenario's own placement name if
    /// the campaign had no policy axis).
    pub policy: String,
    /// The deterministic seed the cell's policy was built with.
    pub seed: u64,
    /// Worker threads the producing run was using (1 for
    /// [`Campaign::run_sequential`]; the pool size for
    /// [`Campaign::what_if`] branches, which run on the campaign pool).
    /// Execution metadata, not simulation state: two runs with different
    /// worker counts still produce [`SimResult::same_outcome`]-identical
    /// `result`s.
    pub workers: usize,
    /// The simulation output. `result.placement` carries the policy name.
    pub result: SimResult,
}

/// Static description of one campaign cell, in deterministic cell order
/// (scenario-major). This is the identity a durable [`ResultSink`]
/// records per completed cell: `index` keys the cell within *this*
/// campaign composition, while `(scenario, policy, seed)` lets a resume
/// runner verify the spill directory actually belongs to the campaign it
/// was asked to resume (the seed is an injective function of
/// `(campaign seed, scenario tag, policy name)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellInfo {
    /// Position in [`Campaign::cells`] order.
    pub index: usize,
    /// Scenario tag.
    pub scenario: String,
    /// Policy-spec name (empty for a scenario-only campaign, which runs
    /// each scenario's own placement).
    pub policy: String,
    /// The cell's deterministic seed ([`Campaign::cell_seed`]).
    pub seed: u64,
}

/// A sweep over scenarios × placement policies. See the
/// [module docs](self).
///
/// With no registered [`PolicySpec`]s, each scenario runs once with its
/// own placement policy (a pure scenario sweep).
#[derive(Default)]
pub struct Campaign {
    scenarios: Vec<(String, ScenarioFactory)>,
    policies: Vec<PolicySpec>,
    base_seed: u64,
    max_parallelism: Option<usize>,
    metrics: Option<MetricsSinkFactory>,
}

impl Campaign {
    /// An empty campaign (seed 0).
    pub fn new() -> Self {
        Campaign::default()
    }

    /// Set the campaign seed all per-cell seeds derive from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Cap the number of worker threads (defaults to the machine's
    /// available parallelism).
    pub fn max_parallelism(mut self, threads: usize) -> Self {
        self.max_parallelism = Some(threads.max(1));
        self
    }

    /// Register a scenario under `tag`. The factory is called once per
    /// cell so each run gets fresh policy state.
    pub fn scenario(
        mut self,
        tag: impl Into<String>,
        factory: impl Fn() -> Scenario + Send + Sync + 'static,
    ) -> Self {
        self.scenarios.push((tag.into(), Box::new(factory)));
        self
    }

    /// Register one scenario per load factor: a load sweep row group.
    /// Each cell's tag is `"{prefix}@x{load}"` and its factory receives
    /// the load, so serving sweeps can scale an arrival process
    /// ([`pal_trace::ServingWorkload::at_load`]) — or any other
    /// load-dependent dimension — across a grid of offered loads.
    pub fn scenario_sweep(
        mut self,
        prefix: impl Into<String>,
        loads: &[f64],
        factory: impl Fn(f64) -> Scenario + Send + Sync + Clone + 'static,
    ) -> Self {
        let prefix = prefix.into();
        for &load in loads {
            let f = factory.clone();
            self.scenarios
                .push((format!("{prefix}@x{load}"), Box::new(move || f(load))));
        }
        self
    }

    /// Register one policy column of the sweep.
    pub fn policy(mut self, spec: PolicySpec) -> Self {
        self.policies.push(spec);
        self
    }

    /// Register many policy columns at once.
    pub fn policies(mut self, specs: impl IntoIterator<Item = PolicySpec>) -> Self {
        self.policies.extend(specs);
        self
    }

    /// Register a per-cell [`MetricsSink`] factory. Before each cell
    /// runs, the factory receives the cell's [`CellInfo`] and may return
    /// a sink to attach for that cell ([`Simulation::attach_sink`]) —
    /// `None` leaves the cell unobserved. Sinks observe without
    /// perturbing, so a campaign with metrics attached produces
    /// outcomes identical to one without; the factory is called from
    /// worker threads and must hand each cell its *own* sink (share
    /// state across cells behind `Arc<Mutex<…>>` inside the sinks if
    /// needed).
    ///
    /// [`Simulation::attach_sink`]: crate::Simulation::attach_sink
    pub fn metrics_sinks(
        mut self,
        factory: impl Fn(&CellInfo) -> Option<Box<dyn MetricsSink + Send>> + Send + Sync + 'static,
    ) -> Self {
        self.metrics = Some(Box::new(factory));
        self
    }

    /// Number of cells this campaign will run.
    pub fn num_cells(&self) -> usize {
        self.scenarios.len() * self.policies.len().max(1)
    }

    /// The deterministic seed of cell `(scenario_idx, policy_idx)`: a pure
    /// function of the campaign seed, the scenario *tag*, and the policy
    /// *name* — not of registration order — so the same `(seed, tag,
    /// policy)` triple yields the same cell in any campaign composition
    /// (a one-cell campaign reproduces the matching cell of a full sweep).
    pub fn cell_seed(&self, scenario_idx: usize, policy_idx: usize) -> u64 {
        let tag = &self.scenarios[scenario_idx].0;
        let policy = self.policies.get(policy_idx).map_or("", |p| p.name());
        // FNV-1a over the length-prefixed (tag, policy) byte streams, then
        // SplitMix64 finalization. Length-prefixing makes the encoding
        // injective: the earlier NUL-separated form mapped e.g.
        // ("a\0b", "") and ("a", "b\0") to the same bytes, colliding their
        // cell seeds.
        let absorb = |h, bytes: &[u8]| {
            let len = (bytes.len() as u64).to_le_bytes();
            fnv1a(h, len.into_iter().chain(bytes.iter().copied()))
        };
        let h = absorb(FNV1A_BASIS ^ self.base_seed, tag.as_bytes());
        let h = absorb(h, policy.as_bytes());
        let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Statically validate every scenario without running any cell: each
    /// factory is invoked once and its output checked with
    /// [`Scenario::validate`]. Catches the whole class of
    /// configuration errors (oversized jobs, class-count mismatches,
    /// bad knobs) up front, in scenario registration order, instead of
    /// mid-sweep after earlier cells have already burned CPU time.
    pub fn validate(&self) -> Result<(), SimError> {
        for (_, factory) in &self.scenarios {
            factory().validate()?;
        }
        Ok(())
    }

    /// Every cell of this campaign in deterministic cell order
    /// (scenario-major), without running anything. Durable sinks record
    /// these alongside results; resume runners re-derive them to decide
    /// which cells to skip.
    pub fn cells(&self) -> Vec<CellInfo> {
        self.cell_indices()
            .into_iter()
            .map(|(si, pi)| self.cell_info(si, pi))
            .collect()
    }

    fn cell_info(&self, scenario_idx: usize, policy_idx: Option<usize>) -> CellInfo {
        CellInfo {
            index: scenario_idx * self.policies.len().max(1) + policy_idx.unwrap_or(0),
            scenario: self.scenarios[scenario_idx].0.clone(),
            policy: policy_idx
                .map(|pi| self.policies[pi].name().to_string())
                .unwrap_or_default(),
            seed: self.cell_seed(scenario_idx, policy_idx.unwrap_or(0)),
        }
    }

    /// Run every cell in parallel. Results come back in deterministic
    /// cell order (scenario-major), regardless of which thread finished
    /// first; the first failing cell's error (again in cell order) is
    /// returned if any cell fails.
    ///
    /// Collects everything in memory — a convenience wrapper over
    /// [`Campaign::run_with_sink`] with a [`MemorySink`]. Thousand-cell
    /// grids should prefer a streaming sink.
    pub fn run(&self) -> Result<Vec<CampaignResult>, SimError> {
        let sink = MemorySink::new(self.num_cells());
        self.run_with_sink(&sink)?;
        Ok(sink
            .into_results()
            .into_iter()
            .map(|slot| slot.expect("every cell ran"))
            .collect())
    }

    /// Run every cell on the calling thread, in cell order. Exists mainly
    /// to state the determinism contract: for a fixed campaign seed this
    /// produces the same outcomes as [`Campaign::run`].
    pub fn run_sequential(&self) -> Result<Vec<CampaignResult>, SimError> {
        self.cell_indices()
            .into_iter()
            .map(|(si, pi)| {
                self.run_cell_with(si, pi, 1, |sim, info| self.attach_metrics(sim, info))
            })
            .collect()
    }

    pub(crate) fn cell_indices(&self) -> Vec<(usize, Option<usize>)> {
        (0..self.scenarios.len())
            .flat_map(|si| self.policy_columns().into_iter().map(move |pi| (si, pi)))
            .collect()
    }

    /// The policy axis: one column per spec, or the scenario's own
    /// placement (`None`) when no spec is registered.
    fn policy_columns(&self) -> Vec<Option<usize>> {
        if self.policies.is_empty() {
            vec![None]
        } else {
            (0..self.policies.len()).map(Some).collect()
        }
    }

    /// Attach the cell's metrics sink, if the campaign has a factory and
    /// it returns one for `info`.
    fn attach_metrics(&self, sim: &mut Simulation, info: &CellInfo) -> Result<(), SimError> {
        if let Some(sink) = self.metrics.as_ref().and_then(|factory| factory(info)) {
            sim.attach_sink(sink);
        }
        Ok(())
    }

    /// Build a cell's scenario with its policy column applied (the
    /// placement built from the cell seed, plus the column's sticky
    /// override), start it, let `prepare` adjust the started simulation,
    /// run it to completion and label the result.
    pub(crate) fn run_cell_with(
        &self,
        scenario_idx: usize,
        policy_idx: Option<usize>,
        workers: usize,
        prepare: impl FnOnce(&mut Simulation, &CellInfo) -> Result<(), SimError>,
    ) -> Result<CampaignResult, SimError> {
        let info = self.cell_info(scenario_idx, policy_idx);
        let mut scenario = (self.scenarios[scenario_idx].1)();
        let spec = policy_idx.map(|pi| &self.policies[pi]);
        if let Some(spec) = spec {
            let profile = scenario.effective_profile();
            scenario = scenario.placement_boxed(spec.build(&profile, info.seed));
            if let Some(sticky) = spec.sticky_override() {
                scenario = scenario.sticky(sticky);
            }
        }
        let mut sim = scenario.start()?;
        prepare(&mut sim, &info)?;
        let mut result = sim.run_to_completion()?;
        if spec.is_some() {
            // Report the spec's paper-facing label (the column name),
            // not the placement object's own name.
            result.placement = info.policy;
        }
        Ok(CampaignResult {
            scenario: info.scenario,
            policy: result.placement.clone(),
            seed: info.seed,
            workers,
            result,
        })
    }
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field(
                "scenarios",
                &self.scenarios.iter().map(|(t, _)| t).collect::<Vec<_>>(),
            )
            .field("policies", &self.policies)
            .field("base_seed", &self.base_seed)
            .field("max_parallelism", &self.max_parallelism)
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{PackedPlacement, RandomPlacement};
    use crate::sched::Fifo;
    use pal_cluster::{ClusterTopology, JobClass, VariabilityProfile};
    use pal_gpumodel::Workload;
    use pal_trace::{JobId, JobSpec, Trace};
    use std::sync::Mutex;

    fn small_trace(n: u32) -> Trace {
        Trace::new(
            "campaign-test",
            (0..n)
                .map(|i| JobSpec {
                    id: JobId(i),
                    model: Workload::ResNet50,
                    class: JobClass::A,
                    arrival: i as f64 * 150.0,
                    gpu_demand: 1 + (i as usize % 3),
                    iterations: 400 + 100 * i as u64,
                    base_iter_time: 1.0,
                })
                .collect(),
        )
    }

    fn test_campaign() -> Campaign {
        Campaign::new()
            .seed(0xC0FFEE)
            .scenario("low-load", || {
                Scenario::new(small_trace(6), ClusterTopology::new(2, 4))
                    .profile(VariabilityProfile::from_raw(vec![vec![1.2; 8]; 3]))
                    .scheduler(Fifo)
            })
            .scenario("high-load", || {
                Scenario::new(small_trace(12), ClusterTopology::new(2, 4))
                    .profile(VariabilityProfile::from_raw(vec![vec![1.2; 8]; 3]))
                    .scheduler(Fifo)
            })
            .policy(PolicySpec::new("Random", |_, seed| {
                Box::new(RandomPlacement::new(seed))
            }))
            .policy(
                PolicySpec::new("Packed-Sticky", |_, seed| {
                    Box::new(PackedPlacement::randomized(seed))
                })
                .sticky(true),
            )
    }

    #[test]
    fn runs_all_cells_with_tags() {
        let results = test_campaign().run().unwrap();
        assert_eq!(results.len(), 4);
        let tags: Vec<(&str, &str)> = results
            .iter()
            .map(|r| (r.scenario.as_str(), r.policy.as_str()))
            .collect();
        assert_eq!(
            tags,
            vec![
                ("low-load", "Random"),
                ("low-load", "Packed-Sticky"),
                ("high-load", "Random"),
                ("high-load", "Packed-Sticky"),
            ]
        );
        for r in &results {
            assert_eq!(r.result.placement, r.policy);
            assert!(!r.result.records.is_empty());
        }
    }

    #[test]
    fn parallel_matches_sequential_bytewise() {
        let campaign = test_campaign();
        let par = campaign.run().unwrap();
        let seq = campaign.run_sequential().unwrap();
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.seed, b.seed);
            assert!(
                a.result.same_outcome(&b.result),
                "{}/{}",
                a.scenario,
                a.policy
            );
        }
    }

    #[test]
    fn single_thread_matches_many_threads() {
        let campaign = test_campaign();
        let wide = campaign.run().unwrap();
        let narrow = test_campaign().max_parallelism(1).run().unwrap();
        for (a, b) in wide.iter().zip(&narrow) {
            assert!(a.result.same_outcome(&b.result));
        }
    }

    #[test]
    fn sticky_override_applies() {
        let results = test_campaign().run().unwrap();
        // Packed-Sticky cells must report sticky placement in the raw
        // engine label... which we overwrote with the policy tag; check
        // migrations semantics instead: sticky FIFO with no preemptions
        // never migrates.
        let sticky = results
            .iter()
            .find(|r| r.policy == "Packed-Sticky")
            .unwrap();
        for rec in &sticky.result.records {
            if rec.preemptions == 0 {
                assert_eq!(rec.migrations, 0);
            }
        }
    }

    #[test]
    fn event_driven_sweeps_match_fixed_round_sweeps() {
        // A campaign sweeping both stepping modes (the scenario rows
        // differ only in `event_driven`) must produce pairwise-identical
        // outcomes per policy column: the mode is a perf knob, not a
        // semantic one.
        let sweep = |event_driven: bool| {
            Campaign::new()
                .seed(7)
                .scenario("drain", move || {
                    Scenario::new(small_trace(9), ClusterTopology::new(2, 4))
                        .profile(VariabilityProfile::from_raw(vec![vec![1.2; 8]; 3]))
                        .scheduler(Fifo)
                        .sticky(true)
                        .event_driven(event_driven)
                })
                .policy(PolicySpec::new("Packed", |_, seed| {
                    Box::new(PackedPlacement::randomized(seed))
                }))
                .policy(PolicySpec::new("Random", |_, seed| {
                    Box::new(RandomPlacement::new(seed))
                }))
                .run()
                .unwrap()
        };
        let on = sweep(true);
        let off = sweep(false);
        assert_eq!(on.len(), off.len());
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(a.policy, b.policy);
            assert!(
                a.result.same_outcome(&b.result),
                "event-driven sweep diverged on {}",
                a.policy
            );
            assert!(a.result.executed_rounds <= b.result.executed_rounds);
            assert_eq!(b.result.executed_rounds, b.result.rounds);
        }
    }

    #[test]
    fn cell_seeds_are_unique_and_stable() {
        let c = test_campaign();
        let seeds: Vec<u64> = (0..2)
            .flat_map(|si| (0..2).map(move |pi| (si, pi)))
            .map(|(si, pi)| c.cell_seed(si, pi))
            .collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "cell seeds collide: {seeds:?}");
        assert_eq!(c.cell_seed(1, 1), test_campaign().cell_seed(1, 1));
    }

    #[test]
    fn cell_seed_encoding_is_injective_across_nul_boundaries() {
        // Regression: the pre-length-prefix FNV encoding concatenated
        // (tag, NUL, policy), so any (tag, policy) pairs whose concatenated
        // byte streams matched — e.g. ("a\0b", "") and ("a", "b\0") —
        // derived the *same* cell seed. Length-prefixing delimits the two
        // streams unambiguously.
        let seed_of = |tag: &str, policy: &str| {
            let tag = tag.to_string();
            let c = Campaign::new()
                .seed(99)
                .scenario(tag, || {
                    Scenario::new(small_trace(1), ClusterTopology::new(1, 4))
                })
                .policy(PolicySpec::new(policy, |_, seed| {
                    Box::new(RandomPlacement::new(seed))
                }));
            c.cell_seed(0, 0)
        };
        // The historically colliding pair.
        assert_ne!(seed_of("a\0b", ""), seed_of("a", "b\0"));
        // Neighbouring shifted-boundary pairs stay distinct too.
        assert_ne!(seed_of("a\0b", ""), seed_of("a", "b"));
        assert_ne!(seed_of("ab", "c"), seed_of("a", "bc"));
        assert_ne!(seed_of("", "a"), seed_of("a", ""));
    }

    #[test]
    fn cells_share_one_trace_and_profile_allocation() {
        // The whole point of Arc-shared inputs: a factory capturing Arc
        // handles gives every cell (and every policy builder) a view of
        // the same allocation.
        use pal_cluster::VariabilityProfile;
        use std::sync::Arc;
        let trace = Arc::new(small_trace(4));
        let profile = Arc::new(VariabilityProfile::from_raw(vec![vec![1.1; 8]; 3]));
        // Pointer identity recorded as usize so the closure stays Send.
        let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let seen_in_builder = Arc::clone(&seen);
        let results = Campaign::new()
            .scenario("shared", {
                let trace = Arc::clone(&trace);
                let profile = Arc::clone(&profile);
                move || {
                    Scenario::new(Arc::clone(&trace), ClusterTopology::new(2, 4))
                        .profile(Arc::clone(&profile))
                        .scheduler(Fifo)
                }
            })
            .policies([
                PolicySpec::new("Random", move |p, seed| {
                    seen_in_builder
                        .lock()
                        .unwrap()
                        .push(Arc::as_ptr(p) as usize);
                    Box::new(RandomPlacement::new(seed))
                }),
                PolicySpec::new("Packed", |_, seed| {
                    Box::new(PackedPlacement::randomized(seed))
                }),
            ])
            .max_parallelism(1)
            .run()
            .unwrap();
        assert_eq!(results.len(), 2);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1);
        assert_eq!(
            seen[0],
            Arc::as_ptr(&profile) as usize,
            "policy builder saw a per-cell profile copy, not the shared handle"
        );
    }

    #[test]
    fn metrics_sink_factory_observes_every_cell_without_perturbing() {
        use crate::observe::{JobEvent, MetricsSink, RoundEvent};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct Counter {
            jobs: Arc<AtomicUsize>,
            rounds: Arc<AtomicUsize>,
        }
        impl MetricsSink for Counter {
            fn on_job(&mut self, _: &JobEvent) {
                self.jobs.fetch_add(1, Ordering::Relaxed);
            }
            fn on_round(&mut self, _: &RoundEvent) {
                self.rounds.fetch_add(1, Ordering::Relaxed);
            }
        }

        let plain = test_campaign().run().unwrap();
        let jobs = Arc::new(AtomicUsize::new(0));
        let rounds = Arc::new(AtomicUsize::new(0));
        let cells: Arc<Mutex<Vec<CellInfo>>> = Arc::new(Mutex::new(Vec::new()));
        let observed = {
            let jobs = Arc::clone(&jobs);
            let rounds = Arc::clone(&rounds);
            let cells = Arc::clone(&cells);
            test_campaign()
                .metrics_sinks(move |info| {
                    cells.lock().unwrap().push(info.clone());
                    Some(Box::new(Counter {
                        jobs: Arc::clone(&jobs),
                        rounds: Arc::clone(&rounds),
                    }))
                })
                .run()
                .unwrap()
        };
        // Sinks observe without perturbing.
        for (a, b) in observed.iter().zip(&plain) {
            assert!(
                a.result.same_outcome(&b.result),
                "{}/{}",
                a.scenario,
                a.policy
            );
        }
        // Every cell got a sink carrying its campaign identity.
        let mut cells = cells.lock().unwrap().clone();
        cells.sort_by_key(|c| c.index);
        assert_eq!(cells, test_campaign().cells());
        assert!(jobs.load(Ordering::Relaxed) > 0);
        assert!(rounds.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn debug_includes_max_parallelism() {
        let c = Campaign::new().max_parallelism(3);
        let d = format!("{c:?}");
        assert!(d.contains("max_parallelism: Some(3)"), "{d}");
    }

    #[test]
    fn scenario_only_campaign_runs_each_once() {
        let results = Campaign::new()
            .scenario("solo", || {
                Scenario::new(small_trace(3), ClusterTopology::new(1, 4))
            })
            .run()
            .unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].policy.contains("Packed"));
    }

    #[test]
    fn error_in_any_cell_surfaces() {
        let err = Campaign::new()
            .scenario("bad", || {
                Scenario::new(small_trace(3), ClusterTopology::new(1, 4))
                    .profile(VariabilityProfile::from_raw(vec![vec![1.0; 2]; 3]))
            })
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::ProfileTopologyMismatch { .. }));
    }

    #[test]
    fn empty_campaign_is_empty() {
        assert!(Campaign::new().run().unwrap().is_empty());
    }
}
