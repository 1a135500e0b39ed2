//! # pal-bench
//!
//! The benchmark harness for the paper's evaluation. The simulation
//! figures' cells are campaign files under `configs/paper/` (run them
//! with the `palsim` binary; their CSV output is pinned under
//! `tests/data/paper/`). The binaries under `src/bin/` print what a
//! campaign CSV cannot: per-job and per-round series (`fig12`, `fig14`,
//! `fig15`, `fig19`), the testbed experiment, profiles, classifier and
//! ablation studies. Criterion benches cover the placement-overhead
//! measurements of Figure 18.
//!
//! The engine-perf benches (`engine_rounds`, `placement_hot_path`) also
//! merge their measurements into the repo-root `BENCH_engine.json` via
//! [`bench_json`], so the hot-path trajectory is tracked across PRs —
//! and [`gate`] (driven by the `bench_gate` binary) turns that tracking
//! into a CI failure when the freshly measured numbers regress past
//! tolerance against the committed baseline.

#![warn(missing_docs)]

pub mod bench_json;
mod csv;
pub mod experiment;
pub mod gate;
pub mod memory;

pub use csv::write_csv;
pub use experiment::*;
