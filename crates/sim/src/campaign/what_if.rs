//! Fork-at-T what-if replay: run one shared prefix per scenario, then
//! branch the run across every policy column from the frozen state.
//!
//! The question a what-if answers is counterfactual, not comparative:
//! *given the exact cluster state at time T — queue, placements,
//! accumulated progress, serving backlogs — what would each policy do
//! from here?* Running each policy from t = 0 answers a different
//! question, because by time T the policies have already diverged the
//! state. [`Campaign::what_if`] instead executes each scenario once up
//! to the fork point under the scenario's own placement, exports the
//! engine state ([`Simulation::export_state`]), and imports that one
//! state into a fresh simulation per policy column
//! ([`Simulation::import_state`] with the placement's opaque state
//! cleared — branch policies start fresh by design, observing only the
//! rounds after the fork).
//!
//! Every branch's identity-independent state is digest-checked against
//! the prefix immediately after import ([`fork_digest`]): all branches
//! of one scenario provably continue from bit-identical state, so any
//! difference in their results is attributable to the branch policy
//! alone.
//!
//! [`Simulation::export_state`]: crate::Simulation::export_state
//! [`Simulation::import_state`]: crate::Simulation::import_state

use super::{Campaign, CampaignResult};
use crate::engine::StepOutcome;
use crate::error::SimError;
use crate::state::SimState;
use serde::{Deserialize, Serialize, Value};

/// The outcome of one [`Campaign::what_if`] call: one
/// [`WhatIfScenario`] per registered scenario, in registration order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhatIfReport {
    /// The fork time that was requested.
    pub fork_time: f64,
    /// Per-scenario fork results, scenario registration order.
    pub scenarios: Vec<WhatIfScenario>,
}

/// One scenario's shared prefix plus its policy branches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhatIfScenario {
    /// Scenario tag.
    pub scenario: String,
    /// Simulated time the state was actually exported at — the first
    /// round boundary at or after the requested fork time (the end of
    /// the run, if the prefix finished first).
    pub forked_at: f64,
    /// Scheduling rounds the shared prefix covered.
    pub prefix_rounds: usize,
    /// [`fork_digest`] of the shared state every branch was verified to
    /// start from.
    pub prefix_digest: u64,
    /// The exported state every branch resumed from (placement state
    /// already cleared) — persist it with `pal-config`'s state writer to
    /// re-fork the same point later without re-running the prefix.
    pub fork_state: SimState,
    /// One completed result per policy column (a single branch under the
    /// scenario's own placement if the campaign has no policy axis), in
    /// policy registration order. Each carries the same cell seed the
    /// policy would get in a full [`Campaign::run`].
    pub branches: Vec<CampaignResult>,
}

/// FNV-1a digest of a state's *dynamic* content — everything except the
/// policy identity fields (`scheduler`, `placement`, `sticky`,
/// `placement_state`), which what-if branches legitimately change, and
/// the wall-clock placement-compute measurements, which never reproduce
/// across runs (the same exclusion [`SimResult::same_outcome`] makes).
///
/// Two states with equal digests hold bit-identical job tables, cluster
/// occupancy, clocks, telemetry, and serving state; the what-if runner
/// uses this to prove every branch resumed from the same prefix, and
/// because every retained field is deterministic, re-running the same
/// what-if reproduces the digest exactly.
///
/// [`SimResult::same_outcome`]: crate::SimResult::same_outcome
pub fn fork_digest(state: &SimState) -> u64 {
    let mut neutral = state.clone();
    neutral.scheduler = String::new();
    neutral.placement = String::new();
    neutral.sticky = false;
    neutral.placement_state = None;
    neutral.placement_compute_times = Vec::new();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    absorb_value(&neutral.to_value(), &mut h);
    h
}

fn absorb_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Hash a [`Value`] tree with an injective encoding: every node is
/// tagged with its kind, and strings/sequences/maps are length-prefixed
/// so adjacent fields cannot alias across boundaries.
fn absorb_value(v: &Value, h: &mut u64) {
    match v {
        Value::Unit => absorb_bytes(h, b"u"),
        Value::Bool(b) => absorb_bytes(h, if *b { b"t" } else { b"f" }),
        Value::Int(i) => {
            absorb_bytes(h, b"i");
            absorb_bytes(h, &i.to_le_bytes());
        }
        Value::Float(x) => {
            absorb_bytes(h, b"d");
            absorb_bytes(h, &x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            absorb_bytes(h, b"s");
            absorb_bytes(h, &(s.len() as u64).to_le_bytes());
            absorb_bytes(h, s.as_bytes());
        }
        Value::Seq(items) => {
            absorb_bytes(h, b"[");
            absorb_bytes(h, &(items.len() as u64).to_le_bytes());
            for item in items {
                absorb_value(item, h);
            }
        }
        Value::Map(entries) => {
            absorb_bytes(h, b"{");
            absorb_bytes(h, &(entries.len() as u64).to_le_bytes());
            for (key, item) in entries {
                absorb_bytes(h, &(key.len() as u64).to_le_bytes());
                absorb_bytes(h, key.as_bytes());
                absorb_value(item, h);
            }
        }
    }
}

impl Campaign {
    /// Fork every scenario at simulated time `fork_t` and replay the
    /// suffix once per policy column. See the [module docs](self).
    ///
    /// The prefix runs under the scenario's own placement policy and is
    /// exported at the first round boundary at or after `fork_t`
    /// (`what_if(0.0)` forks at the initial state, so each branch is
    /// equivalent to a fresh full run of that policy; a fork time past
    /// the makespan exports the final state, so every branch just
    /// reproduces the prefix outcome). Branch policies are built with
    /// the same deterministic cell seed a full [`Campaign::run`] would
    /// give them.
    pub fn what_if(&self, fork_t: f64) -> Result<WhatIfReport, SimError> {
        if !fork_t.is_finite() || fork_t < 0.0 {
            return Err(SimError::StateImport {
                reason: format!("what-if fork time must be finite and non-negative, got {fork_t}"),
            });
        }
        let mut scenarios = Vec::with_capacity(self.scenarios.len());
        for (si, (tag, factory)) in self.scenarios.iter().enumerate() {
            // Shared prefix under the scenario's own placement, stopped on
            // the first round boundary at or after the fork time whether
            // or not the engine skips rounds.
            let mut prefix = factory().start()?;
            while prefix.time() < fork_t {
                if prefix.step_until(fork_t)? != StepOutcome::Running {
                    break;
                }
            }
            let mut fork = prefix.export_state();
            // Branch policies start fresh: what they would have learned
            // before T belongs to the prefix's policy, not to them.
            fork.placement_state = None;
            let prefix_digest = fork_digest(&fork);

            let mut branches = Vec::new();
            for pi in self.policy_columns() {
                branches.push(self.run_cell_with(si, pi, 1, |sim, info| {
                    sim.import_state(&fork)?;
                    let resumed = fork_digest(&sim.export_state());
                    if resumed != prefix_digest {
                        return Err(SimError::StateImport {
                            reason: format!(
                                "what-if branch `{}` of scenario `{tag}` does not reproduce the \
                                 shared prefix after import (digest {resumed:#018x} != \
                                 {prefix_digest:#018x})",
                                pi.map_or("<scenario placement>", |_| info.policy.as_str()),
                            ),
                        });
                    }
                    Ok(())
                })?);
            }
            scenarios.push(WhatIfScenario {
                scenario: tag.clone(),
                forked_at: fork.time,
                prefix_rounds: fork.rounds,
                prefix_digest,
                fork_state: fork,
                branches,
            });
        }
        Ok(WhatIfReport {
            fork_time: fork_t,
            scenarios,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::PolicySpec;
    use super::*;
    use crate::placement::{PackedPlacement, RandomPlacement};
    use crate::scenario::Scenario;
    use crate::sched::Fifo;
    use pal_cluster::{ClusterTopology, JobClass, VariabilityProfile};
    use pal_gpumodel::Workload;
    use pal_trace::{JobId, JobSpec, Trace};

    fn trace(n: u32) -> Trace {
        Trace::new(
            "what-if-test",
            (0..n)
                .map(|i| JobSpec {
                    id: JobId(i),
                    model: Workload::ResNet50,
                    class: JobClass(i as usize % 3),
                    arrival: i as f64 * 150.0,
                    gpu_demand: 1 + (i as usize % 3),
                    iterations: 400 + 100 * i as u64,
                    base_iter_time: 1.0,
                })
                .collect(),
        )
    }

    fn campaign() -> Campaign {
        Campaign::new()
            .seed(0xF0CA)
            .scenario("base", || {
                Scenario::new(trace(8), ClusterTopology::new(2, 4))
                    .profile(VariabilityProfile::from_raw(vec![vec![1.2; 8]; 3]))
                    .scheduler(Fifo)
            })
            .policy(PolicySpec::new("Random", |_, seed| {
                Box::new(RandomPlacement::new(seed))
            }))
            .policy(PolicySpec::new("Packed", |_, seed| {
                Box::new(PackedPlacement::randomized(seed))
            }))
    }

    #[test]
    fn fork_at_zero_matches_fresh_runs() {
        let c = campaign();
        let fresh = c.run_sequential().unwrap();
        let report = c.what_if(0.0).unwrap();
        assert_eq!(report.scenarios.len(), 1);
        let sc = &report.scenarios[0];
        assert_eq!(sc.forked_at, 0.0);
        assert_eq!(sc.prefix_rounds, 0);
        assert_eq!(sc.branches.len(), 2);
        for (branch, cell) in sc.branches.iter().zip(&fresh) {
            assert_eq!(branch.policy, cell.policy);
            assert_eq!(branch.seed, cell.seed);
            assert!(
                branch.result.same_outcome(&cell.result),
                "fork_at(0) branch `{}` diverged from a fresh run",
                branch.policy
            );
        }
    }

    #[test]
    fn mid_run_fork_shares_one_prefix() {
        let report = campaign().what_if(700.0).unwrap();
        let sc = &report.scenarios[0];
        // Forked at the first round boundary at or after the request.
        assert!(sc.forked_at >= 700.0, "{}", sc.forked_at);
        assert!(sc.prefix_rounds > 0);
        assert_eq!(sc.branches.len(), 2);
        // The two branches continue the same history but finish as their
        // own policies; the digest check inside what_if already proved
        // the prefixes identical.
        for branch in &sc.branches {
            assert_eq!(branch.result.records.len(), 8);
            assert!(branch.result.records.iter().all(|r| r.finish > 0.0));
        }
        // Deterministic: re-running the what-if reproduces every branch.
        let again = campaign().what_if(700.0).unwrap();
        assert_eq!(again.scenarios[0].prefix_digest, sc.prefix_digest);
        for (a, b) in again.scenarios[0].branches.iter().zip(&sc.branches) {
            assert!(a.result.same_outcome(&b.result), "{}", a.policy);
        }
    }

    #[test]
    fn fork_past_makespan_reproduces_prefix_outcome() {
        let report = campaign().what_if(1e12).unwrap();
        let sc = &report.scenarios[0];
        let reference = sc.branches[0].result.clone();
        for branch in &sc.branches {
            // Nothing is left to run after the fork, so every branch
            // reports the prefix's outcome (modulo its own policy label).
            assert_eq!(branch.result.records, reference.records);
            assert_eq!(branch.result.rounds, reference.rounds);
        }
    }

    #[test]
    fn event_driven_prefix_forks_where_fixed_rounds_do() {
        // Three sticky FIFO 2-GPU jobs (6,000–7,800 s) share 2×4 GPUs, so
        // nothing happens between their start and the first completion:
        // a skip hop would run far past the fork time unless it stops
        // there. The non-sticky Random branch then makes the fork point
        // visible in the outcome.
        let campaign = |event_driven: bool| {
            Campaign::new()
                .seed(7)
                .scenario("sticky", move || {
                    let jobs = (0..3)
                        .map(|i| JobSpec {
                            id: JobId(i),
                            model: Workload::ResNet50,
                            class: JobClass(i as usize),
                            arrival: 0.0,
                            gpu_demand: 2,
                            iterations: 6_000 + 900 * u64::from(i),
                            base_iter_time: 1.0,
                        })
                        .collect();
                    Scenario::new(Trace::new("sticky-fork", jobs), ClusterTopology::new(2, 4))
                        .scheduler(Fifo)
                        .sticky(true)
                        .event_driven(event_driven)
                })
                .policy(
                    PolicySpec::new("Random", |_, seed| Box::new(RandomPlacement::new(seed)))
                        .sticky(false),
                )
        };
        let skip = campaign(true).what_if(1000.0).unwrap();
        let fixed = campaign(false).what_if(1000.0).unwrap();
        let (s, f) = (&skip.scenarios[0], &fixed.scenarios[0]);
        assert_eq!(f.forked_at, 1200.0);
        assert_eq!(s.forked_at, f.forked_at);
        assert_eq!(s.prefix_rounds, 4);
        assert_eq!(s.prefix_rounds, f.prefix_rounds);
        assert!(
            s.fork_state.executed_rounds < f.fork_state.executed_rounds,
            "the prefix still skips up to the fork"
        );
        assert!(s.branches[0].result.same_outcome(&f.branches[0].result));
    }

    #[test]
    fn invalid_fork_times_error() {
        for t in [f64::NAN, f64::INFINITY, -1.0] {
            let err = campaign().what_if(t).unwrap_err();
            assert!(matches!(err, SimError::StateImport { .. }), "{t}: {err}");
        }
    }

    #[test]
    fn fork_digest_ignores_policy_identity_only() {
        let mut sim = Scenario::new(trace(4), ClusterTopology::new(2, 4))
            .scheduler(Fifo)
            .start()
            .unwrap();
        sim.step().unwrap();
        let state = sim.export_state();
        let d = fork_digest(&state);
        let mut relabeled = state.clone();
        relabeled.placement = "SomethingElse".into();
        relabeled.scheduler = "Other".into();
        relabeled.sticky = !relabeled.sticky;
        relabeled.placement_state = None;
        assert_eq!(
            fork_digest(&relabeled),
            d,
            "identity fields must not matter"
        );
        let mut touched = state.clone();
        touched.time += 300.0;
        assert_ne!(fork_digest(&touched), d, "dynamic fields must matter");
    }
}
