//! Fork-at-T what-if replay: run one shared prefix per scenario, then
//! branch the run across every policy column from the frozen state.

use super::{Campaign, CampaignResult, MemorySink};
use crate::engine::StepOutcome;
use crate::error::SimError;
use crate::state::{fork_digest, SimState};
use serde::{Deserialize, Serialize};

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
    /// [`fork_digest`] of [`fork_state`](Self::fork_state), the shared
    /// state every branch was verified to start from. Reloading a saved `fork_state` gives
    /// the same digest.
    pub prefix_digest: u64,
    /// The exported state every branch resumed from (placement state
    /// and placement compute times already cleared) — persist it with
    /// `pal-config`'s state writer to re-fork the same point later
    /// without re-running the prefix.
    pub fork_state: SimState,
    /// One completed result per policy column (a single branch under the
    /// scenario's own placement if the campaign has no policy axis), in
    /// policy registration order. Each carries the same cell seed the
    /// policy would get in a full [`Campaign::run`].
    pub branches: Vec<CampaignResult>,
}

impl Campaign {
    /// Fork every scenario at simulated time `fork_t` and replay the
    /// suffix once per policy column.
    ///
    /// The question a what-if answers is counterfactual, not comparative:
    /// *given the exact cluster state at time T — queue, placements,
    /// accumulated progress, serving backlogs — what would each policy do
    /// from here?* Running each policy from t = 0 answers a different
    /// question, because by time T the policies have already diverged the
    /// state. This method instead executes each scenario once up
    /// to the fork point under the scenario's own placement, exports the
    /// engine state ([`Simulation::export_state`]), and imports that one
    /// state into a fresh simulation per policy column
    /// ([`Simulation::import_state`] with the placement's opaque state and
    /// its wall-clock compute times cleared — branch policies start fresh by
    /// design, observing only the rounds after the fork).
    ///
    /// The prefixes run first, one after another; every (scenario, policy
    /// column) branch then runs on the same worker pool as
    /// [`Campaign::run_with_sink`], sized by [`Campaign::effective_workers`].
    /// Branches come back in column order whichever worker finished first,
    /// and a failing branch reports the first failing cell's error in cell
    /// order.
    ///
    /// Every branch's state is digest-checked against the prefix
    /// immediately after import ([`fork_digest`]). A branch differs from its
    /// prefix only in its policies, so the check first gives the branch's
    /// export the fork's policy identity (`scheduler`, `placement`, `sticky`)
    /// and clears its `placement_state`: all branches of one scenario
    /// provably continue from bit-identical state, so any difference in
    /// their results is attributable to the branch policy alone.
    ///
    /// [`Simulation::export_state`]: crate::Simulation::export_state
    /// [`Simulation::import_state`]: crate::Simulation::import_state
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
        // Shared prefixes under each scenario's own placement, stopped on
        // the first round boundary at or after the fork time whether or
        // not the engine skips rounds.
        let mut forks = Vec::with_capacity(self.scenarios.len());
        for (_, factory) in &self.scenarios {
            let mut prefix = factory().start()?;
            while prefix.time() < fork_t {
                if prefix.step_until(fork_t)? != StepOutcome::Running {
                    break;
                }
            }
            let mut fork = prefix.export_state();
            // Branch policies start fresh: what they would have learned
            // before T, and the wall-clock time it took to place, belong
            // to the prefix's policy, not to them. Dropping the times
            // also makes the fork a deterministic function of the
            // campaign and the fork time.
            fork.placement_state = None;
            fork.placement_compute_times.clear();
            let digest = fork_digest(&fork);
            forks.push((fork, digest));
        }

        // Every (scenario, column) branch on the campaign pool; cells are
        // scenario-major, so a cell's scenario is its index over the
        // column count.
        let columns = self.policy_columns().len();
        let sink = MemorySink::new(self.num_cells());
        self.run_cells(&|_| false, &sink, &|sim, info| {
            let (fork, prefix_digest) = &forks[info.index / columns];
            sim.import_state(fork)?;
            let mut resumed = sim.export_state();
            resumed.scheduler.clone_from(&fork.scheduler);
            resumed.placement.clone_from(&fork.placement);
            resumed.sticky = fork.sticky;
            resumed.placement_state = None;
            let resumed = fork_digest(&resumed);
            if resumed != *prefix_digest {
                return Err(SimError::StateImport {
                    reason: format!(
                        "what-if branch `{}` of scenario `{}` does not reproduce the shared \
                         prefix after import (digest {resumed:#018x} != {prefix_digest:#018x})",
                        if info.policy.is_empty() {
                            "<scenario placement>"
                        } else {
                            &info.policy
                        },
                        info.scenario,
                    ),
                });
            }
            Ok(())
        })?;
        let mut branches = sink
            .into_results()
            .into_iter()
            .map(|slot| slot.expect("every branch ran"));
        let scenarios = self
            .scenarios
            .iter()
            .zip(forks)
            .map(|((tag, _), (fork, prefix_digest))| WhatIfScenario {
                scenario: tag.clone(),
                forked_at: fork.time,
                prefix_rounds: fork.rounds,
                prefix_digest,
                fork_state: fork,
                branches: branches.by_ref().take(columns).collect(),
            })
            .collect();
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
    use crate::config::SimConfig;
    use crate::placement::{PackedPlacement, RandomPlacement};
    use crate::scenario::Scenario;
    use crate::sched::Fifo;
    use crate::serving::ServingJob;
    use pal_cluster::{ClusterTopology, JobClass, VariabilityProfile};
    use pal_gpumodel::Workload;
    use pal_trace::{JobId, JobSpec, ServingWorkload, Trace};
    use proptest::prelude::*;
    use serde::Value;

    /// The tree path [`fork_digest`] streams: build the state's
    /// [`Value`] tree and hash that. Kept as the reference the streamed
    /// digest must equal.
    fn tree_fork_digest(state: &SimState) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        absorb_value(&state.to_value(), &mut h);
        h
    }

    fn absorb_bytes(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn streamed_fork_digest_matches_tree_oracle(
            raw in proptest::collection::vec(
                (0.0f64..6_000.0, 1usize..=4, 100u64..3_000, 0usize..3),
                1..16,
            ),
            seed in 0u64..1_000,
            steps in 0usize..20,
            serving in any::<bool>(),
            labels in (0usize..4, any::<bool>(), proptest::collection::vec(0.0f64..1.0, 0..4)),
        ) {
            let jobs = raw
                .into_iter()
                .enumerate()
                .map(|(i, (arrival, demand, iterations, class))| JobSpec {
                    id: JobId(i as u32),
                    model: Workload::ALL[i % Workload::ALL.len()],
                    class: JobClass(class),
                    arrival,
                    gpu_demand: demand,
                    iterations,
                    base_iter_time: 1.0,
                })
                .collect();
            // Seeded Random placement exports its RNG as placement state.
            let mut scenario = Scenario::new(Trace::new("digest-prop", jobs), ClusterTopology::new(2, 4))
                .profile(VariabilityProfile::from_raw(vec![vec![1.2; 8]; 3]))
                .placement(RandomPlacement::new(seed));
            if serving {
                let w = ServingWorkload {
                    work_median_s: 0.01,
                    slo_s: 0.5,
                    ..ServingWorkload::poisson("chat", 20.0, 50)
                };
                scenario = scenario.serving(ServingJob::new(w, 1, 1));
            }
            let mut sim = scenario.start().unwrap();
            for _ in 0..steps {
                if sim.step().unwrap() != StepOutcome::Running {
                    break;
                }
            }
            let mut state = sim.export_state();
            prop_assert!(state.placement_state.is_some());
            prop_assert_eq!(state.serving.len(), usize::from(serving));
            prop_assert_eq!(fork_digest(&state), tree_fork_digest(&state));

            // Other policy labels, times and no placement state: the
            // stream still encodes exactly the tree.
            let (name, sticky, times) = labels;
            state.scheduler = "LAS".repeat(name);
            state.placement = "P".repeat(name + 1);
            state.sticky = sticky;
            state.placement_compute_times.extend(times);
            state.placement_compute_times.push(1e-3);
            prop_assert_eq!(fork_digest(&state), tree_fork_digest(&state));
            state.placement_state = None;
            prop_assert_eq!(fork_digest(&state), tree_fork_digest(&state));
        }
    }

    #[test]
    fn parallel_branches_match_one_worker() {
        let two_scenarios = |threads: usize| {
            campaign().max_parallelism(threads).scenario("late", || {
                let mut jobs = trace(6).jobs.clone();
                for j in &mut jobs {
                    j.arrival += 400.0;
                }
                Scenario::new(Trace::new("what-if-late", jobs), ClusterTopology::new(2, 4))
                    .profile(VariabilityProfile::from_raw(vec![vec![1.1; 8]; 3]))
                    .scheduler(Fifo)
            })
        };
        let one = two_scenarios(1).what_if(700.0).unwrap();
        let four = two_scenarios(4).what_if(700.0).unwrap();
        assert_eq!(one.scenarios.len(), 2);
        for (a, b) in one.scenarios.iter().zip(&four.scenarios) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.prefix_digest, b.prefix_digest);
            assert_eq!(a.branches.len(), 2);
            for (x, y) in a.branches.iter().zip(&b.branches) {
                assert_eq!(
                    (&x.scenario, &x.policy, x.seed),
                    (&y.scenario, &y.policy, y.seed)
                );
                assert!(
                    x.result.same_outcome(&y.result),
                    "{}/{}",
                    x.scenario,
                    x.policy
                );
                assert_eq!(
                    (x.workers, y.workers),
                    (1, 4),
                    "branches report the pool size"
                );
            }
        }
        assert_eq!(
            four.scenarios[0]
                .branches
                .iter()
                .map(|b| b.policy.as_str())
                .collect::<Vec<_>>(),
            ["Random", "Packed"],
            "branches come back in column order"
        );
    }

    #[test]
    fn failing_branch_reports_first_failing_cell() {
        // Forked at zero, every branch runs the whole trace; the capped
        // scenarios livelock after their round caps, and the later cell
        // (the lower cap) is likely to fail first on the wall clock.
        let capped = |max_rounds: usize| {
            move || {
                Scenario::new(trace(8), ClusterTopology::new(2, 4))
                    .profile(VariabilityProfile::from_raw(vec![vec![1.2; 8]; 3]))
                    .scheduler(Fifo)
                    .config(SimConfig {
                        max_rounds,
                        ..SimConfig::default()
                    })
            }
        };
        let c = campaign()
            .max_parallelism(4)
            .scenario("cap-3", capped(3))
            .scenario("cap-1", capped(1));
        let err = c.what_if(0.0).unwrap_err();
        assert!(
            matches!(err, SimError::Livelock { rounds: 3 }),
            "expected the cap-3 branch's error, got {err}"
        );
    }

    #[test]
    fn relabelled_or_touched_states_digest_differently() {
        let mut sim = Scenario::new(trace(4), ClusterTopology::new(2, 4))
            .scheduler(Fifo)
            .start()
            .unwrap();
        sim.step().unwrap();
        let state = sim.export_state();
        let d = fork_digest(&state);
        assert_eq!(fork_digest(&state.clone()), d);
        let relabels: [fn(&mut SimState); 4] = [
            |s| s.placement = "SomethingElse".into(),
            |s| s.scheduler = "Other".into(),
            |s| s.sticky = !s.sticky,
            |s| s.placement_state = Some(Value::Bool(true)),
        ];
        for relabel in relabels {
            let mut relabelled = state.clone();
            relabel(&mut relabelled);
            assert_ne!(fork_digest(&relabelled), d, "policy fields count");
        }
        let mut touched = state.clone();
        touched.time += 300.0;
        assert_ne!(fork_digest(&touched), d, "dynamic fields count");
    }
}
