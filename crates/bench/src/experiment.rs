//! Shared experiment plumbing: cluster/profile construction matching the
//! paper's methodology (Section IV), the campaign-file [`registry`] every
//! binary resolves configs through, and [`run_paper_config`], which runs
//! one of the paper's figure campaigns from `configs/paper/`.
//!
//! The figures' cells are defined only in those campaign files; the
//! binaries that print per-job or per-round series load them here.

use pal_cluster::VariabilityProfile;
use pal_config::{campaign_from_path, render_chain, ConfigError, Registry};
use pal_gpumodel::{profiler, ClusterFlavor, GpuSpec, ProfiledApp, Workload};
use pal_sim::CampaignResult;
use std::io;
use std::path::{Path, PathBuf};

/// Default seed for profile synthesis — fixed so every figure binary sees
/// the same cluster.
pub const PROFILE_SEED: u64 = 0x70AC_C01D;

/// Measured-cluster sizes the synthetic profiles are drawn from. Longhorn
/// had 448 V100s (8 nodes × 4 GPUs × 14 chassis in the GPU subsystem);
/// anything ≥ the largest simulated cluster works for
/// sample-without-repetition.
pub const LONGHORN_MEASURED_GPUS: usize = 448;

/// Profile the three Table III representatives on a modeled cluster.
pub fn profile_table3(
    spec: &GpuSpec,
    flavor: ClusterFlavor,
    n: usize,
    seed: u64,
) -> Vec<ProfiledApp> {
    let gpus = profiler::build_cluster_gpus(spec, flavor, n, seed);
    Workload::TABLE_III
        .iter()
        .map(|w| profiler::profile_cluster(&w.spec(), &gpus))
        .collect()
}

/// The Longhorn-derived simulation profile of Section IV-C: profile the
/// measured cluster, then sample `n_gpus` PM penalties per class without
/// repetition.
pub fn longhorn_profile(n_gpus: usize, seed: u64) -> VariabilityProfile {
    let profiled = profile_table3(
        &GpuSpec::v100(),
        ClusterFlavor::Longhorn,
        LONGHORN_MEASURED_GPUS,
        seed,
    );
    VariabilityProfile::sample_from_profiled(&profiled, n_gpus, seed ^ 0x5A5A)
}

/// A modeled Longhorn-flavoured cluster of `n_gpus` V100s, every GPU
/// profiled (no sampling, so any size works): the profile of the
/// 1,000-GPU PM-table golden and the 2,500-GPU table-build benches.
pub fn modeled_longhorn_profile(n_gpus: usize, seed: u64) -> VariabilityProfile {
    let gpus =
        profiler::build_cluster_gpus(&GpuSpec::v100(), ClusterFlavor::Longhorn, n_gpus, seed);
    let apps: Vec<_> = Workload::TABLE_III.iter().map(|w| w.spec()).collect();
    VariabilityProfile::from_modeled_gpus(&apps, &gpus)
}

/// The exact 64-GPU Frontera testbed profile of Section V-A (indexed by
/// GPU UUID — i.e., per-device, no sampling).
pub fn frontera_testbed_profile(seed: u64) -> VariabilityProfile {
    let gpus = profiler::build_cluster_gpus(
        &GpuSpec::quadro_rtx5000(),
        ClusterFlavor::FronteraTestbed,
        64,
        seed,
    );
    let apps: Vec<_> = Workload::TABLE_III.iter().map(|w| w.spec()).collect();
    VariabilityProfile::from_modeled_gpus(&apps, &gpus)
}

/// Seconds → hours, for printing in the paper's units.
pub fn hours(seconds: f64) -> f64 {
    seconds / 3600.0
}

/// The registry campaign files resolve through: every `pal-config`
/// builtin plus the paper's `longhorn` profile, registered here (not
/// inside `pal-config`) — the intended pattern for downstream workload
/// families. `palsim`, the figure printers and the tests all use it.
pub fn registry() -> Registry {
    let mut registry = Registry::with_builtins();
    registry.register_profile("longhorn", |args, ctx| {
        let seed = args.get_or("seed", PROFILE_SEED)?;
        // The profile samples per-GPU scores without repetition from the
        // measured cluster, so it cannot cover a larger one.
        if ctx.gpus > LONGHORN_MEASURED_GPUS {
            return Err(ConfigError::BadParam {
                context: args.context().to_string(),
                message: format!(
                    "the Longhorn profile covers at most {LONGHORN_MEASURED_GPUS} GPUs \
                     (the measured cluster), got a {}-GPU cluster",
                    ctx.gpus
                ),
            });
        }
        Ok(longhorn_profile(ctx.gpus, seed))
    });
    registry
}

/// Every `.toml`/`.json` campaign file under `dir`, subdirectories
/// included, sorted by path.
pub fn config_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            files.extend(config_files(&path)?);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("toml") | Some("json")
        ) {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Build `configs/paper/<name>.toml` through [`registry`] and run every
/// cell, returning the results in cell order. Panics with the config
/// error's chain if the file does not build, or if a cell fails.
pub fn run_paper_config(name: &str) -> Vec<CampaignResult> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../configs/paper")
        .join(format!("{name}.toml"));
    let campaign = campaign_from_path(&path, &registry())
        .unwrap_or_else(|e| panic!("{}: {}", path.display(), render_chain(&e)));
    campaign
        .run()
        .unwrap_or_else(|e| panic!("{}: {}", path.display(), render_chain(&e)))
}
