//! The config subsystem's reproduction guarantee (PR 8): a checked-in
//! campaign file builds a [`Campaign`] whose cells are **bit-identical**
//! to the same sweep written by hand against the builder API — same
//! per-cell seeds (derived only from campaign seed, scenario tag, and
//! policy name) and [`SimResult::same_outcome`]-equal results — across a
//! policy grid and a load sweep. Also builds every file in `configs/`
//! (subdirectories included) through the same registry `palsim` uses, so
//! the checked-in cookbook can't rot, and pins the output of the paper's
//! Figure 11 campaign (`configs/paper/fig11.toml`).

use pal::{PalPlacement, PmFirstPlacement};
use pal_bench::{config_files, registry, run_paper_config, write_csv};
use pal_cluster::{ClusterTopology, VariabilityProfile};
use pal_config::{build_campaign, campaign_from_path, parse_campaign_str};
use pal_sim::placement::{PackedPlacement, RandomPlacement};
use pal_sim::sched::Fifo;
use pal_sim::{Campaign, PolicySpec, Scenario};
use pal_trace::{ModelCatalog, SynergyConfig};
use std::path::Path;
use std::sync::Arc;

/// The same sweep, twice: once as a campaign file, once through the
/// builder API. 2 loads × 4 policies = 8 cells.
const SWEEP: &str = r#"
profile = { kind = "flat", classes = 3, value = 1.25 }
scheduler = "fifo"
policy = ["random", "tiresias", "pm-first", "pal"]

[campaign]
seed = 48879

[cluster]
nodes = 2
gpus_per_node = 4

[[scenario]]
tag = "grid"
trace = { kind = "synergy", num_jobs = 16, jobs_per_hour = 40.0 }
loads = [1.0, 2.0]
"#;

fn builder_campaign() -> Campaign {
    let catalog = ModelCatalog::table2(&pal_gpumodel::GpuSpec::v100());
    let profile = Arc::new(VariabilityProfile::from_raw(vec![vec![1.25; 8]; 3]));
    let mut campaign = Campaign::new().seed(48879);
    for load in [1.0_f64, 2.0] {
        let trace = Arc::new(
            SynergyConfig {
                num_jobs: 16,
                jobs_per_hour: 40.0 * load,
                ..Default::default()
            }
            .generate(&catalog),
        );
        let profile = Arc::clone(&profile);
        campaign = campaign.scenario(format!("grid@x{load}"), move || {
            Scenario::new(Arc::clone(&trace), ClusterTopology::new(2, 4))
                .profile(Arc::clone(&profile))
                .scheduler(Fifo)
        });
    }
    campaign
        .policy(
            PolicySpec::new("Random-Non-Sticky", |_, seed| {
                Box::new(RandomPlacement::new(seed))
            })
            .sticky(false),
        )
        .policy(
            PolicySpec::new("Tiresias", |_, seed| {
                Box::new(PackedPlacement::randomized(seed))
            })
            .sticky(true),
        )
        .policy(
            PolicySpec::new("PM-First", |profile, _| {
                Box::new(PmFirstPlacement::new(profile))
            })
            .sticky(false),
        )
        .policy(
            PolicySpec::new("PAL", |profile, _| Box::new(PalPlacement::new(profile))).sticky(false),
        )
}

#[test]
fn file_campaign_matches_builder_campaign_across_policy_grid() {
    let file = parse_campaign_str(SWEEP, "<inline>").expect("sweep parses");
    let file_results = build_campaign(&file, &registry(), Path::new("."))
        .expect("sweep builds")
        .run()
        .expect("file campaign runs");
    let hand_results = builder_campaign().run().expect("builder campaign runs");

    assert_eq!(file_results.len(), 8);
    assert_eq!(file_results.len(), hand_results.len());
    for (a, b) in file_results.iter().zip(&hand_results) {
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.policy, b.policy);
        assert_eq!(
            a.seed, b.seed,
            "cell seed diverged on {}/{}",
            a.scenario, a.policy
        );
        assert!(
            a.result.same_outcome(&b.result),
            "outcome diverged on {}/{}",
            a.scenario,
            a.policy
        );
    }
}

/// Every checked-in `configs/` file, `configs/paper/` included, must
/// parse, resolve, and validate through the same registry `palsim` uses
/// — builtins plus the Longhorn profile registered downstream (the
/// no-edits extension pattern).
#[test]
fn all_checked_in_configs_build() {
    let registry = registry();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs");
    let files = config_files(&dir).expect("configs/ is readable");
    for path in &files {
        let campaign = campaign_from_path(path, &registry)
            .unwrap_or_else(|e| panic!("{} failed to build: {e}", path.display()));
        assert!(campaign.num_cells() > 0, "{} has no cells", path.display());
    }
    // The walk reaches `configs/paper/`, and every figure there has its
    // pinned output.
    let paper = dir.join("paper");
    let figures: Vec<_> = files.iter().filter(|p| p.starts_with(&paper)).collect();
    assert!(
        !figures.is_empty(),
        "no campaign files under {}",
        paper.display()
    );
    for fig in figures {
        let stem = fig
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("UTF-8 name");
        let pin = dir.join(format!("../tests/data/paper/{stem}.csv"));
        assert!(
            pin.is_file(),
            "{} has no pin {}",
            fig.display(),
            pin.display()
        );
    }
}

/// Figure 11's campaign file reproduces its committed CSV byte for byte
/// (the other `configs/paper/` files are diffed against their pins by a
/// release-build CI step).
#[test]
fn paper_fig11_matches_its_pinned_csv() {
    let mut csv = Vec::new();
    write_csv(&mut csv, &run_paper_config("fig11")).expect("write to memory");
    let pin = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/paper/fig11.csv");
    let pinned = std::fs::read_to_string(&pin).expect("pinned CSV exists");
    assert_eq!(String::from_utf8(csv).expect("UTF-8 CSV"), pinned);
}
