//! # pal-config
//!
//! Config-driven scenarios: declarative campaign files, a pluggable
//! workload-generator/policy registry, and external trace importers.
//!
//! Everything the [`pal_sim::Scenario`]/[`pal_sim::Campaign`] builder
//! API can express — cluster topology, locality model, variability
//! profiles and ground truth, scheduler, admission, placement-policy
//! columns, training traces, serving workloads, load sweeps, seeds —
//! can be written as a checked-in TOML (or JSON) file and run with
//! `palsim run campaign.toml`. A file-built campaign reproduces its
//! builder-built equivalent **bit-identically**: cell seeds derive from
//! `(campaign seed, scenario tag, policy name)` only, and the builtin
//! registry uses the exact figure-legend policy names, so
//! [`pal_sim::SimResult::same_outcome`] holds cell for cell.
//!
//! The three layers:
//!
//! - The schema: the typed file format ([`CampaignFile`]), round-trippable
//!   through [`serde::Value`] via the workspace's derive shim.
//! - The [`Registry`]: string-keyed builders for the trace, profile and
//!   placement-policy families ([`Registry::with_builtins`]); downstream
//!   crates extend them with `register_*` without touching this crate.
//!   Schedulers and admission rules are a fixed set, resolved by kind.
//! - The build step: [`load_campaign_file`] (parse + schema-check) and
//!   [`build_campaign`] (resolve against a registry into a runnable
//!   [`pal_sim::Campaign`], with eager validation so errors carry file
//!   or scenario context).
//!
//! Formats: TOML ([`parse_toml`], a hand-rolled subset with 1-based
//! line/col errors) and JSON ([`parse_json`], with `//` comments, plus
//! the canonical [`to_json`] writer); [`read_jsonl_trace`] adds a JSONL
//! trace reader alongside [`pal_trace::import_csv_trace`]'s external CSV
//! importers.
//!
//! [`spill`] is the fleet-scale layer: a streaming
//! [`pal_sim::ResultSink`] that spills each completed campaign cell to
//! JSONL under a digest-carrying manifest, and [`resume_spilled`], which
//! re-runs only the cells an interrupted run never finished —
//! byte-identical to an uninterrupted run.
//!
//! [`save_state`] and [`load_state`] persist exported engine state
//! ([`pal_sim::SimState`]) as canonical-JSON files with an up-front
//! format-version check — the on-disk half of pause-resume and `palsim
//! what-if` forking — and [`MetricsDir`] streams live engine events to
//! per-cell JSONL/CSV files through [`pal_sim::Campaign::metrics_sinks`].

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod build;
mod error;
mod import;
mod json;
mod metrics;
mod registry;
mod schema;
pub mod spill;
mod state;
mod toml;

pub use build::{build_campaign, campaign_from_path, load_campaign_file, parse_campaign_str};
pub use error::{render_chain, ConfigError};
pub use import::read_jsonl_trace;
pub use json::{from_json, parse_json, to_json, write_json};
pub use metrics::MetricsDir;
pub use registry::{Args, PolicyCtx, PolicyEntry, ProfileCtx, Registry, TraceCtx};
pub use schema::{
    CampaignFile, CampaignSection, GeneratorRef, PolicyRef, ScenarioSpec, ServingSpec, SimSection,
};
pub use spill::{resume_spilled, run_spilled, spilled_config, spilled_results, SpillSink};
pub use state::{load_state, save_state, state_from_json, state_to_json};
pub use toml::{parse_toml, write_toml, TomlError};
