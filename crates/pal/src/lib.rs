//! # pal
//!
//! The paper's primary contribution: **variability-aware GPU placement**.
//!
//! - [`AppClassifier`]: the application classification layer of
//!   Section III-A — 2-D K-Means over the `DRAMUtil × PeakFUUtil` plane
//!   producing ordered classes (A = most variability-sensitive, … —
//!   Figure 3).
//! - [`PmScoreTable`]: per-class PM-score tables — per-GPU normalized
//!   performance binned with K-Means + silhouette K selection
//!   (Section III-B, Figure 5).
//! - [`PmFirstPlacement`]: the PM-First placement policy (Algorithm 1) —
//!   greedy best-GPUs-first allocation with class-based placement
//!   priority (Figure 4).
//! - [`LvMatrix`]: the L×V matrix of Section III-C.1 — the combined
//!   locality-variability slowdown entries ([`LvEntry`], one per
//!   [`LocalityLevel`] × score level), traversed in ascending LV-product
//!   order. It is the printed table and the tests' reference.
//! - [`PalPlacement`]: the PAL placement policy (Algorithm 2) —
//!   co-optimizes locality and variability for intra-node-sized jobs by
//!   taking the L×V matrix's first feasible entry, found in closed form
//!   (one binary search over the class's score levels per locality row)
//!   rather than by building and walking the matrix; larger jobs fall
//!   back to PM-First.
//!
//! - [`AdaptivePal`]: online PM-score updates (the extension Section V-A
//!   motivates after finding stale profiles cost 11–14 % JCT), configured
//!   by [`AdaptiveConfig`].
//! - [`PmTableCache`]: memoized PM-score table construction — campaign
//!   sweeps build each distinct profile's table exactly once and hand
//!   every policy a shared `Arc<PmScoreTable>` handle.
//!
//! All policies implement [`pal_sim::PlacementPolicy`] and plug into the
//! simulator next to the Packed/Random baselines.
//!
//! # Example
//!
//! ```
//! use pal::PalPlacement;
//! use pal_cluster::{ClusterTopology, LocalityModel, VariabilityProfile};
//! use pal_gpumodel::{profiler, ClusterFlavor, GpuSpec, Workload};
//! use pal_sim::Scenario;
//! use pal_trace::{ModelCatalog, SiaPhillyConfig};
//!
//! // Offline: model a 16-node cluster and profile each class representative.
//! let topo = ClusterTopology::new(16, 4);
//! let gpus = profiler::build_cluster_gpus(
//!     &GpuSpec::v100(), ClusterFlavor::Longhorn, topo.total_gpus(), 42);
//! let apps: Vec<_> = Workload::TABLE_III.iter().map(|w| w.spec()).collect();
//! let profile = VariabilityProfile::from_modeled_gpus(&apps, &gpus);
//!
//! // Online: schedule a small trace with PAL.
//! let catalog = ModelCatalog::table2(&GpuSpec::v100());
//! let mut cfg = SiaPhillyConfig::default();
//! cfg.num_jobs = 20;
//! let trace = cfg.generate(1, &catalog);
//! let result = Scenario::new(trace, topo)
//!     .profile(profile.clone())
//!     .locality(LocalityModel::uniform(1.5))
//!     .placement(PalPlacement::new(&profile))
//!     .run()
//!     .expect("valid scenario");
//! assert_eq!(result.records.len(), 20);
//! assert!(result.avg_jct() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod adaptive;
mod classifier;
mod lv;
mod pal_policy;
mod pm_scores;
mod pmfirst;
mod table_cache;

pub use adaptive::{AdaptiveConfig, AdaptivePal};
pub use classifier::AppClassifier;
pub use lv::{LocalityLevel, LvEntry, LvMatrix};
pub use pal_policy::PalPlacement;
pub use pm_scores::PmScoreTable;
pub use pmfirst::PmFirstPlacement;
pub use table_cache::PmTableCache;
