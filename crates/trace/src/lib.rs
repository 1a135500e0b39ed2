//! # pal-trace
//!
//! Workload traces for the PAL scheduler reproduction.
//!
//! The paper evaluates on two trace families derived from Microsoft's
//! public Philly production traces (Section IV-B):
//!
//! - **Sia-Philly** ([`SiaPhillyConfig`]): eight traces of 160 jobs each,
//!   submitted over an 8-hour window at 20 jobs/hour, 40 % single-GPU,
//!   multi-GPU jobs up to 48 GPUs, run on a 64-GPU cluster.
//! - **Synergy** ([`SynergyConfig`]): Poisson arrivals at a configurable
//!   rate (the job-load sweeps of Figures 14, 16, 17), >80 % single-GPU
//!   jobs, run on a 256-GPU cluster.
//!
//! Beyond the paper's closed-loop training traces, [`ServingWorkload`]
//! adds open-loop inference request streams (Poisson, bursty/MMPP, diurnal)
//! with per-request SLO deadlines, for the serving subsystem of `pal-sim`.
//!
//! We do not have the original trace files, so both families are
//! *statistical regenerations* from the published characteristics (job
//! counts, arrival processes, demand distributions, duration scales).
//! [`HeavyTailConfig`] adds a third family with bounded-Pareto durations.
//! All three are one Poisson job source with different parameters: per
//! job it draws the arrival gap, single- vs multi-GPU, a demand from a
//! fixed table, a uniformly chosen catalog model and a duration
//! (log-normal for Sia-Philly and Synergy, Pareto for heavy-tail).
//! Generators are deterministic in their seed, and the eight Sia workload
//! variants are eight seeds. [`read_trace_csv`] / [`write_trace_csv`]
//! persist a trace and [`import_csv_trace`] reads external (Philly,
//! Alibaba, Google) CSV logs.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod generator;
mod heavytail;
mod import;
mod io;
mod job;
mod models;
mod philly;
mod serving;
mod synergy;

pub use heavytail::HeavyTailConfig;
pub use import::{import_csv_trace, ExternalCsvFormat, ImportOptions};
pub use io::{read_trace_csv, write_trace_csv, TraceIoError};
pub use job::{JobId, JobSpec, Trace};
pub use models::{CatalogEntry, ModelCatalog};
pub use philly::SiaPhillyConfig;
pub use serving::{ArrivalProcess, RequestId, ServingRequest, ServingWorkload};
pub use synergy::SynergyConfig;
