//! Figure 18: PAL placement-policy compute time per scheduling epoch for
//! 64-, 128-, and 256-GPU clusters (boxplot statistics over all epochs of
//! a Synergy run).
//!
//! The paper's bound to beat: worst case well under the 300-second epoch
//! (they report ≤4 s in Python/Blox; a Rust implementation is far faster,
//! but the shape — growing with cluster size, tiny versus the epoch — is
//! the claim).
//!
//! The engine times *only* the policy's `placement_order` and `place`
//! calls — allocation-validity checks and engine bookkeeping sit outside
//! the measured window — so these numbers are the policy's own compute
//! cost, directly comparable to the paper's.

use pal::PalPlacement;
use pal_bench::{longhorn_profile, PROFILE_SEED};
use pal_cluster::{ClusterTopology, LocalityModel};
use pal_gpumodel::GpuSpec;
use pal_sim::Scenario;
use pal_stats::BoxplotStats;
use pal_trace::{ModelCatalog, SynergyConfig};

fn main() {
    let catalog = ModelCatalog::table2(&GpuSpec::v100());
    let locality = LocalityModel::uniform(1.7);

    println!("# Figure 18: PAL allocation compute time (microseconds) per epoch vs cluster size");
    println!("cluster_size,epochs,q1_us,median_us,q3_us,whisker_hi_us,max_us,total_share_of_epoch");
    for (nodes, load) in [(16usize, 6.0), (32, 12.0), (64, 24.0)] {
        let topo = ClusterTopology::new(nodes, 4);
        let n = topo.total_gpus();
        let profile = longhorn_profile(n, PROFILE_SEED);
        // Scale offered load with cluster size so contention is comparable.
        let trace = SynergyConfig::default().at_load(load).generate(&catalog);
        let r = Scenario::new(trace, topo)
            .placement(PalPlacement::new(&profile))
            .profile(profile)
            .locality(locality.clone())
            .run()
            .expect("overhead scenario misconfigured");
        let us: Vec<f64> = r.placement_compute_times.iter().map(|&s| s * 1e6).collect();
        let b = BoxplotStats::of(&us).expect("at least one epoch");
        let max = us.iter().cloned().fold(0.0, f64::max);
        println!(
            "{n},{},{:.1},{:.1},{:.1},{:.1},{:.1},{:.2e}",
            us.len(),
            b.q1,
            b.median,
            b.q3,
            b.whisker_hi,
            max,
            max / 1e6 / 300.0
        );
    }
    println!();
    println!(
        "# (also see `cargo bench -p pal-bench --bench placement_overhead` for Criterion timings)"
    );
}
