//! # pal-kmeans
//!
//! K-Means clustering machinery for the PAL scheduler reproduction.
//!
//! The paper uses K-Means in two places:
//!
//! 1. **Application classification** (Section III-A): 2-D clustering of
//!    applications in the `DRAMUtil × PeakFUUtil` space to form ordered
//!    classes A, B, C, … (Figure 3).
//! 2. **PM-score binning** (Section III-B): 1-D clustering of per-GPU
//!    normalized performance into a small number of bins so the scheduler
//!    tracks a handful of PM-scores instead of one per GPU (Figure 5). The
//!    optimal bin count K is chosen with silhouette scores over K = 2..=11,
//!    with >3σ outliers separated first and given their own exact scores.
//!
//! This crate provides Lloyd's algorithm with k-means++ seeding
//! ([`KMeans`], one implementation over contiguous `[f64; D]`
//! points, monomorphized per dimension), silhouette analysis
//! ([`silhouette_samples`]), and the 1-D binning pipeline
//! ([`ScoreBinning`]). All randomness flows through
//! caller-provided seeds for exact reproducibility.
//!
//! Binning scores every candidate K with an exact 1-D worst-bin
//! silhouette in O(n·K·log n) ([`min_cluster_silhouette_1d`]); the O(n²)
//! pairwise [`min_cluster_silhouette`] is kept as its reference oracle.
//! Its K-Means fits assign points by a sweep over the sorted values that
//! matches the O(n·K) nearest-centroid scan bit for bit ([`KMeans`]).

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod binning;
mod kmeans;
mod silhouette;

pub use binning::{BinnedScores, ScoreBinning};
pub use kmeans::{KMeans, KMeansResult};
pub use silhouette::{min_cluster_silhouette, min_cluster_silhouette_1d, silhouette_samples};
