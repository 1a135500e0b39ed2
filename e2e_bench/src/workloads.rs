//! The benchmark's workloads: one generated campaign file each.
//!
//! Every workload exists because it puts a different layer on the
//! critical path; the `why` of each says which. Sizes are fixed here,
//! and everything random derives from the one `--seed` the benchmark
//! receives: the campaign seed (hence every cell seed), the trace
//! generator seeds, the profile seed and the serving stream seeds. The
//! program under test sees only the generated file.

/// The seed whose cell outcomes are recorded under `golden/`.
pub const DEFAULT_SEED: u64 = 1;

/// How a workload's campaign is driven, mirroring the two `palsim`
/// commands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// `palsim run`: `Campaign::run_with_sink` over every cell.
    Run,
    /// `palsim what-if --fork-at <s> --export <dir>`: one shared prefix
    /// per scenario, then one branch per policy column.
    WhatIf { fork_at: f64 },
}

/// One generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub drive: Drive,
    /// Stream every finished cell to a spill directory and read it back,
    /// as `palsim run --spill` does.
    pub spill: bool,
    /// Stream per-cell engine events to files, as `palsim run --metrics`.
    pub metrics: bool,
    /// The campaign file's text.
    pub toml: String,
}

pub const NAMES: [&str; 4] = ["wide_train", "contended_fork", "paper_grid", "serving_mix"];

/// SplitMix64 over `seed` and a per-use salt: independent, reproducible
/// sub-seeds. Masked to 48 bits so every seed is a plain TOML integer.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0xFFFF_FFFF_FFFF
}

/// Header shared by every workload: campaign seed, two workers (the
/// machine the sizes were chosen on has two cores), the paper's
/// measured 1.5x inter-node locality penalty.
fn header(seed: u64, name: &str, nodes: usize) -> String {
    format!(
        "[campaign]\nname = \"{name}\"\nseed = {}\nmax_parallelism = 2\n\n\
         [cluster]\nnodes = {nodes}\ngpus_per_node = 4\n\n\
         [locality]\nl_within = 1.0\nl_across = 1.5\n",
        sub_seed(seed, 1)
    )
}

pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let profile_seed = sub_seed(seed, 2);
    let trace_seed = sub_seed(seed, 3);
    Some(match name {
        "wide_train" => Workload {
            name: "wide_train",
            why: "placement and PM-score table builds grow with GPU count: \
                  PAL placement dominates a 2,500-GPU cell",
            drive: Drive::Run,
            spill: false,
            metrics: false,
            toml: format!(
                "profile = {{ kind = \"longhorn-full\", seed = {profile_seed} }}\n\
                 scheduler = \"las\"\n\
                 policy = [\"tiresias\", \"pm-first\", \"pal\"]\n\n{}\n\
                 [[scenario]]\ntag = \"wide\"\n\
                 trace = {{ kind = \"heavy-tail\", num_jobs = 30000, jobs_per_hour = 1500.0, \
                 seed = {trace_seed} }}\n",
                header(seed, "wide_train", 625)
            ),
        },
        "contended_fork" => Workload {
            name: "contended_fork",
            why: "an over-subscribed cluster with thousands queued: scheduler ordering, \
                  accrual and fork-state export/import dominate",
            drive: Drive::WhatIf { fork_at: 108_000.0 },
            spill: false,
            metrics: false,
            toml: format!(
                "profile = {{ kind = \"longhorn\", seed = {profile_seed} }}\n\
                 scheduler = \"las\"\n\
                 policy = [\"tiresias\", \"pm-first\", \"pal\"]\n\n{}\n\
                 [[scenario]]\ntag = \"contended\"\n\
                 trace = {{ kind = \"heavy-tail\", num_jobs = 30000, jobs_per_hour = 500.0, \
                 seed = {trace_seed} }}\n",
                header(seed, "contended_fork", 112)
            ),
        },
        "paper_grid" => {
            let mut toml = format!(
                "profile = {{ kind = \"longhorn\", seed = {profile_seed} }}\n\
                 scheduler = \"fifo\"\n\
                 policy = [\"random-sticky\", \"random\", \"gandiva\", \"tiresias\", \
                 \"pm-first\", \"pal\"]\n\n{}",
                header(seed, "paper_grid", 16)
            );
            for w in 1..=8 {
                toml.push_str(&format!(
                    "\n[[scenario]]\ntag = \"sia-w{w}\"\n\
                     trace = {{ kind = \"sia-philly\", workload_id = {w} }}\n"
                ));
            }
            toml.push_str(&format!(
                "\n[[scenario]]\ntag = \"synergy\"\n\
                 trace = {{ kind = \"synergy\", num_jobs = 160, jobs_per_hour = 2.0, \
                 seed = {trace_seed} }}\nloads = [1.0, 2.0, 3.0, 4.0]\n"
            ));
            Workload {
                name: "paper_grid",
                why: "72 millisecond-scale paper cells: the campaign runner, per-cell \
                      policy builds and the spill/metrics write-then-read path dominate",
                drive: Drive::Run,
                spill: true,
                metrics: true,
                toml,
            }
        }
        "serving_mix" => Workload {
            name: "serving_mix",
            why: "two 1M-request serving streams beside a small training trace: the \
                  batcher and request expansion dominate, placement runs once per replica",
            drive: Drive::Run,
            spill: false,
            metrics: false,
            toml: format!(
                "profile = {{ kind = \"longhorn\", seed = {profile_seed} }}\n\
                 scheduler = \"las\"\n\
                 admission = \"reject-oversized\"\n\
                 policy = [\"tiresias\", \"gandiva\", \"pm-first\", \"pal\"]\n\n{}\n\
                 [[scenario]]\ntag = \"mix\"\n\
                 trace = {{ kind = \"synergy\", num_jobs = 200, jobs_per_hour = 8.0, \
                 seed = {trace_seed} }}\nloads = [0.7, 1.3]\n\n\
                 [[scenario.serving]]\nreplicas = 2\ngpus_per_replica = 4\nmodel = \"Bert\"\n\
                 class = 0\n\n\
                 [scenario.serving.workload]\nname = \"chat-poisson\"\nnum_requests = 1000000\n\
                 work_median_s = 0.05\nwork_sigma = 0.3\nslo_s = 1.0\nseed = {}\n\n\
                 [scenario.serving.workload.arrivals]\nPoisson = {{ rate_per_s = 32.0 }}\n\n\
                 [[scenario.serving]]\nreplicas = 2\ngpus_per_replica = 4\nmodel = \"Gpt2\"\n\
                 class = 2\n\n\
                 [scenario.serving.workload]\nname = \"api-bursty\"\nnum_requests = 1000000\n\
                 work_median_s = 0.08\nwork_sigma = 0.4\nslo_s = 2.0\nseed = {}\n\n\
                 [scenario.serving.workload.arrivals]\n\
                 Bursty = {{ base_rate_per_s = 8.0, burst_rate_per_s = 24.0, \
                 mean_dwell_s = 30.0 }}\n",
                header(seed, "serving_mix", 16),
                sub_seed(seed, 4),
                sub_seed(seed, 5)
            ),
        },
        _ => return None,
    })
}
