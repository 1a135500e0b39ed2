//! The benchmark's registry: the builtin kinds plus the two Longhorn
//! profile kinds, and the traced variant that re-registers every kind the
//! workloads use behind timers.

use crate::probe::Layers;
use pal::{PalPlacement, PmFirstPlacement};
use pal_bench::{longhorn_profile, PROFILE_SEED};
use pal_cluster::VariabilityProfile;
use pal_config::Registry;
use pal_gpumodel::{profiler, ClusterFlavor, GpuSpec, Workload};
use pal_sim::placement::{PackedPlacement, RandomPlacement};
use pal_sim::PlacementPolicy;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `Registry::with_builtins` plus `longhorn`, registered exactly as
/// `palsim` registers it, and `longhorn-full`.
///
/// `longhorn` samples per-GPU scores without repetition from a modeled
/// 448-GPU Longhorn, so it panics above 448 GPUs
/// (`VariabilityProfile::sample_from_profiled`: "profile resnet50 has 448
/// entries, need N"). `longhorn-full` models every GPU of the cluster
/// instead, which is what a 2,500-GPU workload needs.
pub fn bench_registry() -> Registry {
    let mut registry = Registry::with_builtins();
    registry.register_profile("longhorn", |args, ctx| {
        let seed = args.get_or("seed", PROFILE_SEED)?;
        Ok(longhorn_profile(ctx.gpus, seed))
    });
    registry.register_profile("longhorn-full", |args, ctx| {
        let seed = args.get_or("seed", PROFILE_SEED)?;
        let gpus =
            profiler::build_cluster_gpus(&GpuSpec::v100(), ClusterFlavor::Longhorn, ctx.gpus, seed);
        let apps: Vec<_> = Workload::TABLE_III.iter().map(|w| w.spec()).collect();
        Ok(VariabilityProfile::from_modeled_gpus(&apps, &gpus))
    });
    registry
}

const TRACE_KINDS: [&str; 3] = ["heavy-tail", "sia-philly", "synergy"];
const PROFILE_KINDS: [&str; 2] = ["longhorn", "longhorn-full"];
/// The builtin placement kinds the workloads use, with the column
/// (display) name each gives its cells.
const COLUMNS: [(&str, &str); 6] = [
    ("random-sticky", "Random-Sticky"),
    ("random", "Random-Non-Sticky"),
    ("gandiva", "Gandiva"),
    ("tiresias", "Tiresias"),
    ("pm-first", "PM-First"),
    ("pal", "PAL"),
];

/// The policy kind behind a column name.
pub fn column_kind(display: &str) -> Option<&'static str> {
    COLUMNS.iter().find(|c| c.1 == display).map(|c| c.0)
}

/// The builtin placement families the workloads use. `PolicyEntry`'s
/// factory is private to `pal-config`, so the traced registry rebuilds
/// each policy the way the builtin factory does; the output check proves
/// the traced run's outcomes equal the untraced run's.
fn build_policy(kind: &str, ctx: &pal_config::PolicyCtx) -> Box<dyn PlacementPolicy + Send> {
    match kind {
        "random-sticky" | "random" => Box::new(RandomPlacement::new(ctx.seed)),
        "gandiva" | "tiresias" => Box::new(PackedPlacement::randomized(ctx.seed)),
        "pm-first" => Box::new(PmFirstPlacement::from_shared(
            ctx.table_cache.get_or_build_default(ctx.profile),
        )),
        "pal" => Box::new(PalPlacement::from_shared(
            ctx.table_cache.get_or_build_default(ctx.profile),
        )),
        other => unreachable!("no traced builder for policy kind `{other}`"),
    }
}

/// [`bench_registry`] with every trace, profile and policy kind the
/// workloads use re-registered behind a timer. Kind, display name and
/// stickiness are unchanged, so cell seeds are unchanged.
pub fn traced_registry(layers: &Arc<Mutex<Layers>>) -> Registry {
    let mut registry = bench_registry();
    for kind in TRACE_KINDS {
        let inner = Arc::clone(registry.trace(kind).expect("builtin trace kind"));
        let layers = Arc::clone(layers);
        registry.register_trace(kind, move |args, ctx| {
            let start = Instant::now();
            let trace = inner(args, ctx);
            let mut l = layers.lock().expect("layer probe lock");
            l.trace_gen_s += start.elapsed().as_secs_f64();
            if let Ok(t) = &trace {
                l.trace_jobs += t.len() as u64;
            }
            trace
        });
    }
    for kind in PROFILE_KINDS {
        let inner = Arc::clone(registry.profile(kind).expect("registered profile kind"));
        let layers = Arc::clone(layers);
        registry.register_profile(kind, move |args, ctx| {
            let start = Instant::now();
            let profile = inner(args, ctx);
            layers.lock().expect("layer probe lock").profile_synth_s +=
                start.elapsed().as_secs_f64();
            profile
        });
    }
    for (kind, _) in COLUMNS {
        let entry = registry.policy(kind).expect("builtin policy kind").clone();
        let layers = Arc::clone(layers);
        registry.register_policy(
            kind,
            entry.display_name,
            entry.default_sticky,
            move |_args, ctx| {
                let start = Instant::now();
                let policy = build_policy(kind, ctx);
                let built = Instant::now();
                layers.lock().expect("layer probe lock").policy_built(
                    ctx.seed,
                    start,
                    built,
                    ctx.table_cache.builds(),
                );
                Ok(policy)
            },
        );
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_names_match_the_builtin_registry() {
        let registry = bench_registry();
        for (kind, display) in COLUMNS {
            assert_eq!(registry.policy(kind).expect(kind).display_name, display);
        }
    }
}
