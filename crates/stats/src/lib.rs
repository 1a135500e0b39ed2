//! # pal-stats
//!
//! Descriptive statistics used throughout the PAL scheduler reproduction:
//! summaries (mean / geometric mean), percentiles,
//! empirical CDFs, boxplot statistics, and step-function time series.
//!
//! The paper reports geomean improvements in job completion time (JCT),
//! 99th-percentile JCT, makespan, and cluster utilization; the CDFs of
//! Figure 9, the boxplots of Figures 10 and 18, and the GPUs-in-use time
//! series of Figure 15 are all produced from the primitives in this crate.
//!
//! All functions operate on `f64` samples, ignore nothing, and panic only on
//! clearly-documented misuse (e.g. percentile outside `[0, 100]`). Empty
//! inputs yield `None` rather than NaN wherever a value would otherwise be
//! undefined.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod boxplot;
mod cdf;
mod percentile;
mod summary;
mod timeseries;

pub use boxplot::BoxplotStats;
pub use cdf::EmpiricalCdf;
pub use percentile::{median, percentile, percentile_of_sorted};
pub use summary::{geomean, geomean_of_ratios, mean};
pub use timeseries::StepSeries;
