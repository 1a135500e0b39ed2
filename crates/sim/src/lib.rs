//! # pal-sim
//!
//! A Blox-style round-based, trace-driven GPU cluster scheduling simulator
//! (the paper integrates its policies into Blox \[26\]; this crate is the
//! in-process Rust equivalent).
//!
//! ## Model
//!
//! Time advances in fixed scheduling rounds (Blox's 300 s epochs). Each
//! round the simulator:
//!
//! 1. admits newly arrived jobs into the active queue,
//! 2. orders the queue by the [`sched::SchedulingPolicy`]'s per-job key,
//! 3. marks the *schedulable prefix* — the maximal prefix whose cumulative
//!    GPU demand fits the cluster (Figure 4's "mark queue at cluster
//!    size"); prefix jobs are guaranteed to run this round, the rest wait
//!    (running jobs outside the prefix are preempted),
//! 4. asks the [`placement::PlacementPolicy`] for GPU allocations —
//!    keeping sticky jobs' existing GPUs or re-placing everything,
//!    depending on the sticky mode (Section IV-A1),
//! 5. executes to the next round boundary: each running job progresses at
//!    `1 / (L × max_g V_g)` of its nominal iteration rate (Equation 1),
//!    with mid-round completions credited at their exact times.
//!
//! Metrics ([`metrics`]): per-job JCT and wait time, makespan, cluster
//! utilization, GPUs-in-use time series, and per-round placement compute
//! time (Figure 18).
//!
//! ## Entry points
//!
//! - [`Scenario`]: the builder describing one run — trace + topology plus
//!   optional profile/truth/locality/scheduler/placement/admission/config
//!   dimensions — executed with `run() -> Result<SimResult, SimError>`,
//!   or started paused with `start() -> Result<Simulation, SimError>`.
//! - [`Simulation`]: the round stepper behind both — `step()` one round
//!   at a time, inspect or save mid-run state with `export_state()`
//!   (a [`SimState`]), finish with `run_to_completion()`.
//! - [`Campaign`]: a sweep of M scenarios × N [`PolicySpec`]s run in
//!   parallel with deterministic per-cell seeds and tagged results.
//!
//! Placement policies implement [`PlacementPolicy`] against the
//! incrementally maintained `ClusterView` (`pal_cluster::ClusterView`,
//! borrowed via [`PlacementCtx::view`]): the engine hands each decision
//! reusable buffers (`placement_order_into`, `place_into`), so policies —
//! like the round loop driving them — allocate nothing at steady state.

#![warn(missing_docs)]

pub mod admission;
pub mod campaign;
pub mod config;
pub mod engine;
pub mod error;
pub mod job_state;
pub mod metrics;
pub mod observe;
pub mod placement;
pub mod scenario;
pub mod sched;
pub mod serving;
pub mod state;

pub use admission::{AdmissionCtx, AdmissionPolicy, AdmitAll};
pub use campaign::{
    Campaign, CampaignResult, CampaignRunStats, CellInfo, MemorySink, PolicySpec, ResultSink,
    WhatIfReport, WhatIfScenario, FALLBACK_WORKERS,
};
pub use config::SimConfig;
pub use engine::{Simulation, StepOutcome};
pub use error::{ProfileRole, SimError};
pub use metrics::{JobRecord, SimResult};
pub use observe::{JobEvent, JobEventKind, MetricsSink, NullSink, RoundEvent, ServingBatchEvent};
pub use placement::{
    Allocation, PlacementCtx, PlacementPolicy, PlacementRequest, RoundObservation,
};
pub use scenario::Scenario;
pub use sched::SchedulingPolicy;
pub use serving::{BatcherConfig, ServingJob, ServingMetrics};
pub use state::{
    fnv1a, fork_digest, ReplicaState, ServingState, SimState, FNV1A_BASIS, STATE_FORMAT_VERSION,
};
