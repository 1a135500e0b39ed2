//! A full Sia-Philly evaluation campaign: all eight workload variants, all
//! six placement policies, FIFO scheduling — the experiment behind
//! Figure 11 — printed as a summary table.
//!
//! This is the simulator's [`Campaign`] API end to end: scenarios are the
//! eight workloads, policy columns are the six placement configurations,
//! and the 48 cells run in parallel with deterministic per-cell seeds.
//!
//! ```text
//! cargo run --release --example sia_philly_campaign
//! ```

use pal::{PalPlacement, PmFirstPlacement};
use pal_cluster::{ClusterTopology, LocalityModel, VariabilityProfile};
use pal_gpumodel::{profiler, ClusterFlavor, GpuSpec, Workload};
use pal_sim::placement::{PackedPlacement, RandomPlacement};
use pal_sim::{Campaign, PolicySpec, Scenario};
use pal_trace::{ModelCatalog, SiaPhillyConfig, Trace};

/// The six placement configurations of the paper's evaluation, as
/// campaign policy columns.
fn policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::new("Random-Non-Sticky", |_, seed| {
            Box::new(RandomPlacement::new(seed))
        })
        .sticky(false),
        PolicySpec::new("Random-Sticky", |_, seed| {
            Box::new(RandomPlacement::new(seed))
        })
        .sticky(true),
        PolicySpec::new("Gandiva", |_, seed| {
            Box::new(PackedPlacement::randomized(seed))
        })
        .sticky(false),
        PolicySpec::new("Tiresias", |_, seed| {
            Box::new(PackedPlacement::randomized(seed))
        })
        .sticky(true),
        PolicySpec::new("PM-First", |profile, _| {
            Box::new(PmFirstPlacement::new(profile))
        })
        .sticky(false),
        PolicySpec::new("PAL", |profile, _| Box::new(PalPlacement::new(profile))).sticky(false),
    ]
}

fn main() {
    let topology = ClusterTopology::sia_64();
    // Longhorn profiles, sampled without repetition onto the 64 GPUs.
    let measured = profiler::build_cluster_gpus(&GpuSpec::v100(), ClusterFlavor::Longhorn, 448, 9);
    let profiled: Vec<_> = Workload::TABLE_III
        .iter()
        .map(|w| profiler::profile_cluster(&w.spec(), &measured))
        .collect();
    let profile = VariabilityProfile::sample_from_profiled(&profiled, 64, 11);
    let locality = LocalityModel::frontera_per_model();
    let catalog = ModelCatalog::table2(&GpuSpec::v100());
    let traces: Vec<Trace> = (1..=8)
        .map(|w| SiaPhillyConfig::default().generate(w, &catalog))
        .collect();

    let mut campaign = Campaign::new().seed(0x51A).policies(policies());
    for (w, trace) in traces.iter().enumerate() {
        let trace = trace.clone();
        let profile = profile.clone();
        let locality = locality.clone();
        campaign = campaign.scenario(format!("w{}", w + 1), move || {
            Scenario::new(trace.clone(), topology)
                .profile(profile.clone())
                .locality(locality.clone())
        });
    }
    let cells = campaign.run().expect("campaign misconfigured");

    println!("avg JCT (hours) per workload; ratio = geomean vs Tiresias");
    println!(
        "{:<18} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}  ratio",
        "policy", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8"
    );
    let row_of = |policy: &str| -> Vec<f64> {
        (1..=traces.len())
            .map(|w| {
                cells
                    .iter()
                    .find(|c| c.policy == policy && c.scenario == format!("w{w}"))
                    .expect("cell ran")
                    .result
                    .avg_jct()
            })
            .collect()
    };
    let tiresias_jcts = row_of("Tiresias");
    for spec in policies() {
        let name = spec.name().to_string();
        let row = row_of(&name);
        let ratio = pal_stats::geomean_of_ratios(&row, &tiresias_jcts).unwrap_or(f64::NAN);
        print!("{name:<18}");
        for v in &row {
            print!(" {:>6.2}", v / 3600.0);
        }
        println!("  {ratio:>5.3}");
    }
    println!("\n(ratio < 1.0 = better than Tiresias; the paper reports PAL ~0.58 geomean)");
}
