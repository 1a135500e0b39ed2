//! Figures 9 & 10 and Table IV: the physical 64-GPU Frontera testbed
//! experiment (Section V-A).
//!
//! The paper runs the same Sia trace on the physical cluster and in
//! simulation, finding an 11–14 % cluster-to-sim JCT gap caused by stale
//! PM scores on node 0 (its class-A profile was ~8× too optimistic). We
//! model both sides:
//!
//! - "simulation": ground-truth execution uses the same profile the policy
//!   sees;
//! - "cluster": ground truth perturbs one node's class-A scores by 2×
//!   while the policy still sees the stale profile.
//!
//! Both arms of a policy run from one placement seed, so the gap between
//! them is the stale profile's alone, not seed noise.
//!
//! This does **not** reproduce Table IV's gap. The stale node (node 15,
//! whose class-A scores sit nearest the cluster median) never runs a PAL
//! class-A job, so PAL's two arms are identical: a 0 % gap and a KS
//! distance of 0.000 at 2×, 4× and 8× penalties alike. Only Tiresias,
//! which packs without looking at scores, meets the node; its gap is
//! −2 %, +5 % and +11 % at 2×, 4× and 8× (KS 0.062, 0.088, 0.100). A
//! model in which both policies hit the stale node would change the
//! printed table.
//!
//! Prints the four JCT CDFs (Figure 9), boxplot stats (Figure 10), and the
//! Table IV summary.

use pal::PalPlacement;
use pal_bench::{frontera_testbed_profile, hours, PROFILE_SEED};
use pal_cluster::{ClusterTopology, JobClass, LocalityModel, VariabilityProfile};
use pal_gpumodel::GpuSpec;
use pal_sim::placement::PackedPlacement;
use pal_sim::sched::Las;
use pal_sim::{PlacementPolicy, Scenario, SimResult};
use pal_stats::BoxplotStats;
use pal_trace::{ModelCatalog, SiaPhillyConfig, Trace};

/// The placement seed of every arm.
const PLACEMENT_SEED: u64 = 0xD1CE;

/// A testbed placement configuration: legend name, stickiness, and the
/// policy built over the profile the policy sees.
struct Policy {
    name: &'static str,
    sticky: bool,
    build: fn(&VariabilityProfile) -> Box<dyn PlacementPolicy + Send>,
}

/// The testbed's two configurations: the Tiresias baseline (packed,
/// sticky) and PAL (non-sticky).
const POLICIES: [Policy; 2] = [
    Policy {
        name: "Tiresias",
        sticky: true,
        build: |_| Box::new(PackedPlacement::randomized(PLACEMENT_SEED)),
    },
    Policy {
        name: "PAL",
        sticky: false,
        build: |profile| Box::new(PalPlacement::new(profile)),
    },
];

/// The experiment's fixed inputs: the policy sees `profile`; the
/// "cluster" arm executes against `truth`.
struct Testbed {
    topo: ClusterTopology,
    profile: VariabilityProfile,
    locality: LocalityModel,
    trace: Trace,
}

impl Testbed {
    /// One run of `policy` whose jobs execute against `truth`. The testbed
    /// runs use Tiresias (LAS) scheduling (Section IV-A2).
    fn run(&self, policy: &Policy, truth: &VariabilityProfile) -> SimResult {
        Scenario::new(self.trace.clone(), self.topo)
            .profile(self.profile.clone())
            .truth(truth.clone())
            .locality(self.locality.clone())
            .scheduler(Las::default())
            .placement_boxed((policy.build)(&self.profile))
            .sticky(policy.sticky)
            .run()
            .expect("testbed scenario misconfigured")
    }

    /// The (simulation, "physical cluster") arms of `policy`: the same
    /// run, with ground truth equal to the policy's profile and equal to
    /// `truth` respectively.
    fn arms(&self, policy: &Policy, truth: &VariabilityProfile) -> (SimResult, SimResult) {
        (self.run(policy, &self.profile), self.run(policy, truth))
    }
}

fn main() {
    let topo = ClusterTopology::sia_64();
    let profile = frontera_testbed_profile(PROFILE_SEED);
    // Stale-profile effect (Section V-A's c196-071 finding): node 0's
    // class-A PM scores are stale, so jobs placed there run worse than the
    // profile predicts. The paper measured an 11-14% cluster-to-sim JCT
    // gap from this. We apply a 2x ground-truth penalty to one node;
    // Table IV reports the gap it yields, which is not the paper's.
    // The perturbed node is the one whose profiled class-A scores sit
    // nearest the cluster median (node 15). That keeps it from being
    // PAL-seeking, but it does not make exposure policy-independent:
    // PAL never places a class-A job there, so its arms are identical
    // (0% gap, KS 0.000) at 2x, 4x and 8x, while Tiresias's gap is
    // -2%, +5% and +11%.
    let stale_node = (0..topo.nodes)
        .min_by(|&a, &b| {
            let mean = |n: usize| {
                topo.gpus_of(pal_cluster::NodeId(n as u32))
                    .iter()
                    .map(|&g| profile.score(JobClass::A, g))
                    .sum::<f64>()
                    / topo.gpus_per_node as f64
            };
            (mean(a) - 1.0)
                .abs()
                .partial_cmp(&(mean(b) - 1.0).abs())
                .expect("finite scores")
        })
        .expect("non-empty cluster");
    let truth = profile.perturbed(
        JobClass::A,
        &topo.gpus_of(pal_cluster::NodeId(stale_node as u32)),
        2.0,
    );
    let catalog = ModelCatalog::table2(&GpuSpec::quadro_rtx5000());
    let testbed = Testbed {
        topo,
        profile,
        locality: LocalityModel::frontera_per_model(),
        trace: SiaPhillyConfig::default().generate(1, &catalog),
    };

    let mut results: Vec<(String, SimResult)> = Vec::new();
    for policy in &POLICIES {
        let (sim, cluster) = testbed.arms(policy, &truth);
        results.push((format!("{} Simulation", policy.name), sim));
        results.push((policy.name.to_string(), cluster));
    }

    println!("# Figure 9: cumulative JCT distributions (seconds)");
    println!("arm,fraction_of_jobs,jct_seconds");
    for (name, r) in &results {
        for (q, v) in r.jct_cdf().staircase(33) {
            println!("{name},{q:.4},{v:.1}");
        }
    }

    println!();
    println!("# Figure 10: JCT boxplots (seconds)");
    println!("arm,q1,median,q3,whisker_lo,whisker_hi,outliers");
    for (name, r) in &results {
        let b = BoxplotStats::of(&r.jcts()).expect("non-empty");
        println!(
            "{name},{:.0},{:.0},{:.0},{:.0},{:.0},{}",
            b.q1,
            b.median,
            b.q3,
            b.whisker_lo,
            b.whisker_hi,
            b.outliers.len()
        );
    }

    println!();
    println!("# Table IV: physical cluster & simulation results");
    println!("placement,avg_jct_cluster_h,avg_jct_sim_h,cluster_to_sim_diff_pct");
    let get = |name: &str| {
        &results
            .iter()
            .find(|(n, _)| n == name)
            .expect("known arm")
            .1
    };
    let row = |label: &str| {
        let cluster = get(label).avg_jct();
        let sim = get(&format!("{label} Simulation")).avg_jct();
        println!(
            "{label},{:.2},{:.2},{:.0}%",
            hours(cluster),
            hours(sim),
            (cluster - sim) / sim * 100.0
        );
        (cluster, sim)
    };
    let (t_cluster, t_sim) = row("Tiresias");
    let (p_cluster, p_sim) = row("PAL");
    println!(
        "% improvement,{:.0}%,{:.0}%,",
        (1.0 - p_cluster / t_cluster) * 100.0,
        (1.0 - p_sim / t_sim) * 100.0
    );
    println!();
    println!(
        "# makespan: PAL vs Tiresias (cluster arm): {:.0}% improvement",
        (1.0 - get("PAL").makespan() / get("Tiresias").makespan()) * 100.0
    );
    println!(
        "# KS distance cluster-vs-sim: Tiresias {:.3}, PAL {:.3}",
        get("Tiresias")
            .jct_cdf()
            .ks_distance(&get("Tiresias Simulation").jct_cdf()),
        get("PAL")
            .jct_cdf()
            .ks_distance(&get("PAL Simulation").jct_cdf())
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_agree_when_truth_is_the_profile() {
        // With no stale node, the two arms of a policy are one
        // configuration, so any gap between them would be seed noise.
        let catalog = ModelCatalog::table2(&GpuSpec::quadro_rtx5000());
        let testbed = Testbed {
            topo: ClusterTopology::sia_64(),
            profile: frontera_testbed_profile(PROFILE_SEED),
            locality: LocalityModel::frontera_per_model(),
            trace: SiaPhillyConfig {
                num_jobs: 40,
                ..Default::default()
            }
            .generate(1, &catalog),
        };
        for policy in &POLICIES {
            let (sim, cluster) = testbed.arms(policy, &testbed.profile);
            assert!(
                sim.same_outcome(&cluster),
                "{} arms diverged with truth = profile",
                policy.name
            );
        }
    }
}
