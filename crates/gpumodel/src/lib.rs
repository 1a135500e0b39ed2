//! # pal-gpumodel
//!
//! A synthetic GPU execution model that stands in for the paper's offline
//! profiling runs on TACC's Longhorn (V100) and Frontera (Quadro RTX 5000)
//! clusters.
//!
//! ## Why this substrate exists
//!
//! PAL consumes two kinds of profiled data that we cannot obtain without the
//! authors' hardware:
//!
//! 1. **nsight-compute utilization metrics** per application
//!    (`DRAMUtil`, `PeakFUUtil` in `[0, 10]`) feeding the classifier of
//!    Section III-A / Figure 3, and
//! 2. **per-GPU variability profiles** — iteration time of a representative
//!    app on every GPU, normalized to the cluster median — feeding PM-score
//!    computation (Section IV-C, Figures 5–8).
//!
//! This crate models both from first principles. Each GPU carries a
//! *power-management state*: a core-frequency multiplier drawn from an
//! empirically shaped distribution (most GPUs near nominal, a slow tail, a
//! few extreme outliers) and a memory-bandwidth multiplier that barely
//! varies. Kernels are roofline-timed against the scaled peaks, so
//! compute-bound applications (ResNet-50, VGG19) inherit the full frequency
//! variability (≈13–22 % spread, >2.5× outliers) while memory-bound ones
//! (PageRank) see ≈1 % — exactly the application-specific variability the
//! paper builds on.
//!
//! The [`profiler`] module then "runs" an application on every GPU of a
//! modeled cluster and emits median-normalized profiles, and [`Workload`]
//! is the model zoo of Tables II/III with kernel mixes tuned to land
//! where Figure 3 places them in the `DRAMUtil × PeakFUUtil` plane.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod apps;
mod gpu;
mod kernel;
mod pm;
pub mod profiler;

pub use apps::{AppSpec, Workload};
pub use gpu::{GpuSpec, ModeledGpu};
pub use kernel::{FuncUnit, Kernel};
pub use pm::{ClusterFlavor, PmState};
pub use profiler::{profile_cluster, utilization_features, ProfiledApp};
