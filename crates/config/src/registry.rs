//! The pluggable generator/policy registry.
//!
//! Registering a trace kind from outside the crate:
//!
//! ```
//! use pal_config::{Args, ConfigError, Registry, TraceCtx};
//! use pal_trace::Trace;
//!
//! let mut registry = Registry::with_builtins();
//! registry.register_trace("always-empty", |args: &Args, _ctx: &TraceCtx| {
//!     let name = args.get_or("name", "empty".to_string())?;
//!     Ok::<_, ConfigError>(Trace::new(name, vec![]))
//! });
//! assert!(registry.trace("always-empty").is_ok());
//! ```

use crate::error::ConfigError;
use crate::import::read_jsonl_trace;
use pal::{AdaptiveConfig, AdaptivePal, PalPlacement, PmFirstPlacement, PmTableCache};
use pal_cluster::VariabilityProfile;
use pal_gpumodel::{GpuSpec, Workload};
use pal_sim::admission::{
    AdmissionPolicy, AdmitAll, DemandBackpressure, MaxActiveJobs, RejectOversized,
};
use pal_sim::placement::{PackedPlacement, PlacementPolicy, RandomPlacement};
use pal_sim::sched::{Fifo, Las, SchedulingPolicy, Srsf, Srtf};
use pal_trace::{
    import_csv_trace, read_trace_csv, ExternalCsvFormat, HeavyTailConfig, ImportOptions,
    ModelCatalog, SiaPhillyConfig, SynergyConfig, Trace, TraceIoError,
};
use serde::{Deserialize, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Typed access to a generator reference's parameter map.
///
/// Getters record which keys were read; [`Args::finish`] (called by the
/// campaign builder after the factory returns) rejects any key no getter
/// touched, so misspelled parameters surface as errors.
pub struct Args<'a> {
    context: String,
    entries: &'a [(String, Value)],
    seen: RefCell<Vec<usize>>,
}

impl<'a> Args<'a> {
    /// Wrap `params` (a [`Value::Map`] or [`Value::Unit`]) for the
    /// builder identified by `context` (e.g. ``trace `synergy` ``).
    pub fn new(context: impl Into<String>, params: &'a Value) -> Result<Self, ConfigError> {
        let context = context.into();
        let entries: &[(String, Value)] = match params {
            Value::Map(entries) => entries,
            Value::Unit => &[],
            other => {
                return Err(ConfigError::BadParam {
                    context,
                    message: format!("parameters must be a table, got {other:?}"),
                })
            }
        };
        Ok(Args {
            context,
            entries,
            seen: RefCell::new(Vec::new()),
        })
    }

    /// The builder identity, for error messages.
    pub fn context(&self) -> &str {
        &self.context
    }

    fn bad(&self, message: impl Into<String>) -> ConfigError {
        ConfigError::BadParam {
            context: self.context.clone(),
            message: message.into(),
        }
    }

    /// The raw value of `key`, if present (marks it consumed).
    pub fn value(&self, key: &str) -> Option<&'a Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        let mut seen = self.seen.borrow_mut();
        if !seen.contains(&idx) {
            seen.push(idx);
        }
        Some(&self.entries[idx].1)
    }

    /// Deserialize `key` into `T`, or `None` if absent.
    pub fn get<T: for<'de> Deserialize<'de>>(&self, key: &str) -> Result<Option<T>, ConfigError> {
        match self.value(key) {
            None => Ok(None),
            Some(v) => T::from_value(v)
                .map(Some)
                .map_err(|e| self.bad(format!("parameter `{key}`: {e}"))),
        }
    }

    /// Deserialize `key` into `T`, or `default` if absent.
    pub fn get_or<T: for<'de> Deserialize<'de>>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ConfigError> {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// Deserialize `key` into `T`; absence is an error.
    pub fn require<T: for<'de> Deserialize<'de>>(&self, key: &str) -> Result<T, ConfigError> {
        self.get(key)?
            .ok_or_else(|| self.bad(format!("missing required parameter `{key}`")))
    }

    /// String parameter with a default (convenience over [`Args::get_or`]).
    fn str_or(&self, key: &str, default: &str) -> Result<String, ConfigError> {
        self.get_or(key, default.to_string())
    }

    /// Error on any parameter no getter consumed.
    pub fn finish(&self) -> Result<(), ConfigError> {
        let seen = self.seen.borrow();
        for (idx, (key, _)) in self.entries.iter().enumerate() {
            if !seen.contains(&idx) {
                return Err(self.bad(format!("unknown parameter `{key}`")));
            }
        }
        Ok(())
    }
}

/// Context handed to trace builders.
pub struct TraceCtx<'a> {
    /// The swept load factor, when the scenario is a load sweep.
    /// Synthetic generators scale their arrival rate by it; trace
    /// replayers compress arrival gaps by it.
    pub load: Option<f64>,
    /// Directory of the campaign file — relative `path` parameters
    /// resolve against it.
    pub base_dir: &'a Path,
}

impl TraceCtx<'_> {
    /// Resolve a possibly-relative path parameter against the campaign
    /// file's directory.
    pub fn resolve(&self, path: &str) -> PathBuf {
        let p = Path::new(path);
        if p.is_absolute() {
            p.to_path_buf()
        } else {
            self.base_dir.join(p)
        }
    }
}

/// Context handed to profile builders.
pub struct ProfileCtx {
    /// Total GPUs in the campaign's cluster — profiles size themselves
    /// to it.
    pub gpus: usize,
}

/// Context handed to placement-policy builders, once per campaign cell.
pub struct PolicyCtx<'a> {
    /// The policy-visible variability profile of the cell's scenario.
    pub profile: &'a Arc<VariabilityProfile>,
    /// The cell's deterministic seed.
    pub seed: u64,
    /// PM-score table cache shared across the whole campaign, so PAL and
    /// PM-First columns over the same profile build one table.
    pub table_cache: &'a Arc<PmTableCache>,
}

type TraceFactory = Arc<dyn Fn(&Args, &TraceCtx) -> Result<Trace, ConfigError> + Send + Sync>;
type ProfileFactory =
    Arc<dyn Fn(&Args, &ProfileCtx) -> Result<VariabilityProfile, ConfigError> + Send + Sync>;
type PolicyFactory = Arc<
    dyn Fn(&Args, &PolicyCtx) -> Result<Box<dyn PlacementPolicy + Send>, ConfigError> + Send + Sync,
>;

/// A registered placement-policy family.
#[derive(Clone)]
pub struct PolicyEntry {
    /// Column name a [`PolicyRef`](crate::PolicyRef) without a `name`
    /// override gets — feeds the deterministic per-cell seeds, so it
    /// matches the paper's figure labels for the builtin families.
    pub display_name: String,
    /// Whether the family runs sticky by default.
    pub default_sticky: bool,
    pub(crate) factory: PolicyFactory,
}

/// Maps kind strings to builders for the trace, profile and
/// placement-policy families.
///
/// A campaign file names its pieces by string kind (`trace = { kind =
/// "synergy" }`, `policy = ["pal"]`); a [`Registry`] maps the trace,
/// profile and placement-policy kinds to builder functions.
/// [`Registry::with_builtins`] registers every family shipped in the
/// workspace; downstream code adds its own with the `register_*` methods
/// — **no edits inside this crate required**.
///
/// The scheduler and admission kinds are fixed (the paper's FIFO, LAS,
/// SRTF and SRSF orders and four admission rules) and resolve through a
/// `match`, not the registry.
///
/// Builders receive an [`Args`] view of the reference's parameter map —
/// typed getters with defaults — plus a context struct with what the
/// campaign knows (the swept load factor, the config file's directory
/// for relative paths, the cell's profile and seed). Parameters no
/// builder consumed are an error, so a typo like `num_job = 100` fails
/// loudly instead of silently running the default.
#[derive(Clone)]
pub struct Registry {
    traces: BTreeMap<String, TraceFactory>,
    profiles: BTreeMap<String, ProfileFactory>,
    policies: BTreeMap<String, PolicyEntry>,
}

impl Registry {
    /// A registry with every family shipped in the workspace. See the
    /// README's file-format reference for the full list and their
    /// parameters.
    pub fn with_builtins() -> Self {
        let mut r = Registry {
            traces: BTreeMap::new(),
            profiles: BTreeMap::new(),
            policies: BTreeMap::new(),
        };
        register_builtin_traces(&mut r);
        register_builtin_profiles(&mut r);
        register_builtin_policies(&mut r);
        r
    }

    /// Register (or replace) a trace-generator family.
    pub fn register_trace(
        &mut self,
        kind: impl Into<String>,
        factory: impl Fn(&Args, &TraceCtx) -> Result<Trace, ConfigError> + Send + Sync + 'static,
    ) {
        self.traces.insert(kind.into(), Arc::new(factory));
    }

    /// Register (or replace) a variability-profile family.
    pub fn register_profile(
        &mut self,
        kind: impl Into<String>,
        factory: impl Fn(&Args, &ProfileCtx) -> Result<VariabilityProfile, ConfigError>
            + Send
            + Sync
            + 'static,
    ) {
        self.profiles.insert(kind.into(), Arc::new(factory));
    }

    /// Register (or replace) a placement-policy family. `display_name`
    /// becomes the default campaign column name and `default_sticky` its
    /// stickiness; the factory runs once per campaign cell.
    pub fn register_policy(
        &mut self,
        kind: impl Into<String>,
        display_name: impl Into<String>,
        default_sticky: bool,
        factory: impl Fn(&Args, &PolicyCtx) -> Result<Box<dyn PlacementPolicy + Send>, ConfigError>
            + Send
            + Sync
            + 'static,
    ) {
        self.policies.insert(
            kind.into(),
            PolicyEntry {
                display_name: display_name.into(),
                default_sticky,
                factory: Arc::new(factory),
            },
        );
    }

    /// Look up a trace factory.
    pub fn trace(&self, kind: &str) -> Result<&TraceFactory, ConfigError> {
        lookup(&self.traces, "trace", kind)
    }

    /// Look up a profile factory.
    pub fn profile(&self, kind: &str) -> Result<&ProfileFactory, ConfigError> {
        lookup(&self.profiles, "profile", kind)
    }

    /// Look up a policy entry.
    pub fn policy(&self, kind: &str) -> Result<&PolicyEntry, ConfigError> {
        lookup(&self.policies, "policy", kind)
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_builtins()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("traces", &self.traces.keys())
            .field("profiles", &self.profiles.keys())
            .field("policies", &self.policies.keys())
            .finish()
    }
}

/// The `kind` entry of a registry map, or the error listing its keys.
fn lookup<'m, V>(
    map: &'m BTreeMap<String, V>,
    category: &'static str,
    kind: &str,
) -> Result<&'m V, ConfigError> {
    map.get(kind)
        .ok_or_else(|| unknown(category, kind, map.keys()))
}

/// The error for a `kind` outside `known` (listed in the order given).
fn unknown(
    category: &'static str,
    kind: &str,
    known: impl IntoIterator<Item = impl Into<String>>,
) -> ConfigError {
    ConfigError::UnknownKind {
        category,
        kind: kind.to_string(),
        known: known.into_iter().map(Into::into).collect(),
    }
}

/// The fixed scheduler kinds, sorted as error messages list them.
const SCHEDULER_KINDS: [&str; 4] = ["fifo", "las", "srsf", "srtf"];

/// The fixed admission kinds, sorted as error messages list them.
const ADMISSION_KINDS: [&str; 4] = [
    "admit-all",
    "demand-backpressure",
    "max-active-jobs",
    "reject-oversized",
];

/// The scheduler a `scheduler = ...` reference names.
pub(crate) fn build_scheduler(
    kind: &str,
    args: &Args,
) -> Result<Box<dyn SchedulingPolicy + Send + Sync>, ConfigError> {
    Ok(match kind {
        "fifo" => Box::new(Fifo),
        "las" => Box::new(Las {
            threshold_gpu_seconds: args.get_or(
                "threshold_gpu_seconds",
                Las::default().threshold_gpu_seconds,
            )?,
        }),
        "srsf" => Box::new(Srsf),
        "srtf" => Box::new(Srtf),
        _ => return Err(unknown("scheduler", kind, SCHEDULER_KINDS)),
    })
}

/// The admission rule an `admission = ...` reference names.
pub(crate) fn build_admission(
    kind: &str,
    args: &Args,
) -> Result<Box<dyn AdmissionPolicy + Send + Sync>, ConfigError> {
    Ok(match kind {
        "admit-all" => Box::new(AdmitAll),
        "demand-backpressure" => Box::new(DemandBackpressure {
            capacity_multiple: args.require("capacity_multiple")?,
        }),
        "max-active-jobs" => Box::new(MaxActiveJobs {
            limit: args.require("limit")?,
        }),
        "reject-oversized" => Box::new(RejectOversized),
        _ => return Err(unknown("admission", kind, ADMISSION_KINDS)),
    })
}

fn catalog() -> ModelCatalog {
    ModelCatalog::table2(&GpuSpec::v100())
}

/// Compress a replayed trace's arrival gaps by the load factor (arrival
/// times divide by `load`), the standard load knob for fixed traces.
fn scale_replay_load(mut trace: Trace, load: Option<f64>) -> Trace {
    if let Some(load) = load {
        if load != 1.0 {
            for job in &mut trace.jobs {
                job.arrival /= load;
            }
            trace.name = format!("{}@x{load}", trace.name);
        }
    }
    trace
}

/// Replay a trace file: resolve the `path` parameter, name the trace
/// after the file stem unless `name` is set (`fallback` if the path has
/// no stem), parse it with `read`, and compress its arrivals by the swept
/// load.
fn replay(
    args: &Args,
    ctx: &TraceCtx,
    fallback: &str,
    read: impl FnOnce(&str, BufReader<File>) -> Result<Trace, TraceIoError>,
) -> Result<Trace, ConfigError> {
    let resolved = ctx.resolve(&args.require::<String>("path")?);
    let default_name = resolved.file_stem().map_or_else(
        || fallback.to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    let name = args.str_or("name", &default_name)?;
    let reader = File::open(&resolved)
        .map(BufReader::new)
        .map_err(|source| ConfigError::Io {
            path: resolved.clone(),
            source,
        })?;
    let trace = read(&name, reader).map_err(|source| ConfigError::Trace {
        context: format!("{} from {}", args.context(), resolved.display()),
        source,
    })?;
    Ok(scale_replay_load(trace, ctx.load))
}

/// The checks below run in the builders so that a parameter outside a
/// generator's domain is a typed [`ConfigError::BadParam`], never one of
/// the generator's `assert!`s.
///
/// `key` read as an `f64` (or `default`) and required to satisfy `valid`,
/// which the error message describes as `domain`.
fn checked(
    args: &Args,
    key: &str,
    default: f64,
    domain: &str,
    valid: fn(f64) -> bool,
) -> Result<f64, ConfigError> {
    let value: f64 = args.get_or(key, default)?;
    if valid(value) {
        Ok(value)
    } else {
        Err(args.bad(format!("`{key}` must be {domain}, got {value}")))
    }
}

fn positive_finite(v: f64) -> bool {
    v > 0.0 && v.is_finite()
}

fn positive(args: &Args, key: &str, default: f64) -> Result<f64, ConfigError> {
    checked(args, key, default, "positive and finite", positive_finite)
}

/// The arrival rate `key` (jobs per hour) scaled by the swept load; the
/// product is checked too, so a zero or non-finite load cannot reach the
/// generator either. The rate must also keep the last of `num_jobs`
/// arrivals finite: an exponential gap is at most 708.4 / rate-per-second
/// (the sampler draws `u ≥ f64::MIN_POSITIVE`), so a rate for which
/// `num_jobs × 709 × 3600 / rate` overflows is refused.
fn arrival_rate(
    args: &Args,
    ctx: &TraceCtx,
    num_jobs: usize,
    key: &str,
    default: f64,
) -> Result<f64, ConfigError> {
    let load = ctx.load.unwrap_or(1.0);
    let rate = positive(args, key, default)? * load;
    if !positive_finite(rate) {
        return Err(args.bad(format!(
            "`{key}` × load must be positive and finite, got {rate} (load {load})"
        )));
    }
    if !(num_jobs as f64 * 709.0 * 3600.0 / rate).is_finite() {
        return Err(args.bad(format!(
            "`{key}` × load = {rate:e} is too small: {num_jobs} arrivals would overflow the clock"
        )));
    }
    Ok(rate)
}

fn fraction(args: &Args, default: f64) -> Result<f64, ConfigError> {
    checked(args, "single_gpu_fraction", default, "in [0, 1]", |v| {
        (0.0..=1.0).contains(&v)
    })
}

fn sigma(args: &Args, default: f64) -> Result<f64, ConfigError> {
    checked(
        args,
        "duration_sigma",
        default,
        "non-negative and finite",
        |v| v >= 0.0 && v.is_finite(),
    )
}

fn register_builtin_traces(r: &mut Registry) {
    r.register_trace("sia-philly", |args, ctx| {
        let d = SiaPhillyConfig::default();
        let workload_id: u32 = args.get_or("workload_id", 1)?;
        if !(1..=8).contains(&workload_id) {
            return Err(args.bad(format!("workload_id must be in 1..=8, got {workload_id}")));
        }
        let num_jobs = args.get_or("num_jobs", d.num_jobs)?;
        let cfg = SiaPhillyConfig {
            num_jobs,
            arrival_rate_per_hour: arrival_rate(
                args,
                ctx,
                num_jobs,
                "arrival_rate_per_hour",
                d.arrival_rate_per_hour,
            )?,
            single_gpu_fraction: fraction(args, d.single_gpu_fraction)?,
            median_duration_s: positive(args, "median_duration_s", d.median_duration_s)?,
            duration_sigma: sigma(args, d.duration_sigma)?,
            max_duration_s: args.get_or("max_duration_s", d.max_duration_s)?,
        };
        Ok(cfg.generate(workload_id, &catalog()))
    });
    r.register_trace("synergy", |args, ctx| {
        let d = SynergyConfig::default();
        let num_jobs = args.get_or("num_jobs", d.num_jobs)?;
        let cfg = SynergyConfig {
            num_jobs,
            jobs_per_hour: arrival_rate(args, ctx, num_jobs, "jobs_per_hour", d.jobs_per_hour)?,
            single_gpu_fraction: fraction(args, d.single_gpu_fraction)?,
            median_duration_s: positive(args, "median_duration_s", d.median_duration_s)?,
            duration_sigma: sigma(args, d.duration_sigma)?,
            max_duration_s: args.get_or("max_duration_s", d.max_duration_s)?,
            seed: args.get_or("seed", d.seed)?,
        };
        Ok(cfg.generate(&catalog()))
    });
    r.register_trace("heavy-tail", |args, ctx| {
        let d = HeavyTailConfig::default();
        let num_jobs = args.get_or("num_jobs", d.num_jobs)?;
        let cfg = HeavyTailConfig {
            num_jobs,
            jobs_per_hour: arrival_rate(args, ctx, num_jobs, "jobs_per_hour", d.jobs_per_hour)?,
            alpha: positive(args, "alpha", d.alpha)?,
            min_duration_s: positive(args, "min_duration_s", d.min_duration_s)?,
            max_duration_s: positive(args, "max_duration_s", d.max_duration_s)?,
            single_gpu_fraction: fraction(args, d.single_gpu_fraction)?,
            seed: args.get_or("seed", d.seed)?,
        };
        if cfg.min_duration_s > cfg.max_duration_s {
            return Err(args.bad(format!(
                "`min_duration_s` ({}) must not exceed `max_duration_s` ({})",
                cfg.min_duration_s, cfg.max_duration_s
            )));
        }
        Ok(cfg.generate(&catalog()))
    });
    r.register_trace("empty", |args, _ctx| {
        Ok(Trace::new(args.str_or("name", "empty")?, vec![]))
    });
    r.register_trace("csv", |args, ctx| replay(args, ctx, "csv", read_trace_csv));
    r.register_trace("jsonl", |args, ctx| {
        replay(args, ctx, "jsonl", read_jsonl_trace)
    });
    for (kind, format) in [
        ("philly-csv", ExternalCsvFormat::philly as fn() -> _),
        ("alibaba-csv", ExternalCsvFormat::alibaba),
        ("google-csv", ExternalCsvFormat::google),
    ] {
        r.register_trace(kind, move |args, ctx| {
            let defaults = ImportOptions::default();
            let model = match args.get::<String>("model")? {
                None => defaults.model,
                Some(name) => Workload::from_name(&name)
                    .ok_or_else(|| args.bad(format!("unknown model `{name}`")))?,
            };
            let opts = ImportOptions {
                model,
                class: args.get_or("class", defaults.class)?,
                base_iter_time: args.get_or("base_iter_time", defaults.base_iter_time)?,
                max_jobs: args.get("max_jobs")?,
            };
            replay(args, ctx, kind, |name, reader| {
                import_csv_trace(name, &format(), &opts, reader)
            })
        });
    }
}

/// Most classes a `flat` profile may declare. The paper uses three; the
/// bound leaves room for any classifier K while turning a typo such as
/// `classes = 4294967296` into a diagnostic instead of a classes × GPUs
/// score allocation that aborts the process.
const MAX_FLAT_CLASSES: usize = 1024;

fn register_builtin_profiles(r: &mut Registry) {
    r.register_profile("flat", |args, ctx| {
        let classes: usize = args.get_or("classes", 3)?;
        let value: f64 = args.get_or("value", 1.0)?;
        if !(1..=MAX_FLAT_CLASSES).contains(&classes) {
            return Err(args.bad(format!(
                "classes must be in 1..={MAX_FLAT_CLASSES}, got {classes}"
            )));
        }
        if !(value > 0.0 && value.is_finite()) {
            return Err(args.bad(format!("value must be positive and finite, got {value}")));
        }
        Ok(VariabilityProfile::from_raw(vec![
            vec![value; ctx.gpus];
            classes
        ]))
    });
}

fn register_builtin_policies(r: &mut Registry) {
    // The six paper configurations, under their figure-legend names —
    // cell seeds hash the column name, so a file-built campaign
    // reproduces a builder-built one with the same names bit-for-bit.
    r.register_policy("random-sticky", "Random-Sticky", true, |_args, ctx| {
        Ok(Box::new(RandomPlacement::new(ctx.seed)))
    });
    r.register_policy("random", "Random-Non-Sticky", false, |_args, ctx| {
        Ok(Box::new(RandomPlacement::new(ctx.seed)))
    });
    r.register_policy("gandiva", "Gandiva", false, |_args, ctx| {
        Ok(Box::new(PackedPlacement::randomized(ctx.seed)))
    });
    r.register_policy("tiresias", "Tiresias", true, |_args, ctx| {
        Ok(Box::new(PackedPlacement::randomized(ctx.seed)))
    });
    r.register_policy("pm-first", "PM-First", false, |_args, ctx| {
        Ok(Box::new(PmFirstPlacement::from_shared(
            ctx.table_cache.get_or_build_default(ctx.profile),
        )))
    });
    r.register_policy("pal", "PAL", false, |_args, ctx| {
        Ok(Box::new(PalPlacement::from_shared(
            ctx.table_cache.get_or_build_default(ctx.profile),
        )))
    });
    r.register_policy("adaptive-pal", "Adaptive-PAL", false, |args, ctx| {
        let d = AdaptiveConfig::default();
        let config = AdaptiveConfig {
            alpha: args.get_or("alpha", d.alpha)?,
            rebin_every: args.get_or("rebin_every", d.rebin_every)?,
        };
        Ok(Box::new(AdaptivePal::from_shared(
            ctx.profile,
            ctx.table_cache.get_or_build_default(ctx.profile),
            config,
        )))
    });
    r.register_policy("packed", "Packed-Randomized", false, |_args, ctx| {
        Ok(Box::new(PackedPlacement::randomized(ctx.seed)))
    });
    r.register_policy(
        "packed-deterministic",
        "Packed-Deterministic",
        false,
        |_args, _ctx| Ok(Box::new(PackedPlacement::deterministic())),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_map(entries: Vec<(&str, Value)>) -> Value {
        Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn args_typed_getters_and_defaults() {
        let params = args_map(vec![
            ("num_jobs", Value::Int(50)),
            ("rate", Value::Float(2.5)),
        ]);
        let args = Args::new("test", &params).unwrap();
        assert_eq!(args.get_or("num_jobs", 10usize).unwrap(), 50);
        assert_eq!(args.get_or("rate", 1.0f64).unwrap(), 2.5);
        assert_eq!(args.get_or("missing", 7u64).unwrap(), 7);
        args.finish().expect("all keys consumed");
    }

    #[test]
    fn args_rejects_unconsumed_keys() {
        let params = args_map(vec![("num_job", Value::Int(50))]); // typo
        let args = Args::new("trace `synergy`", &params).unwrap();
        let _ = args.get_or("num_jobs", 10usize);
        let err = args.finish().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown parameter `num_job`"), "{msg}");
        assert!(msg.contains("trace `synergy`"), "{msg}");
    }

    #[test]
    fn args_type_mismatch_names_key_and_context() {
        let params = args_map(vec![("num_jobs", Value::Str("many".into()))]);
        let args = Args::new("trace `synergy`", &params).unwrap();
        let err = args.get_or("num_jobs", 10usize).unwrap_err();
        assert!(err.to_string().contains("num_jobs"), "{err}");
    }

    #[test]
    fn builtins_cover_every_category() {
        let r = Registry::with_builtins();
        for kind in [
            "sia-philly",
            "synergy",
            "heavy-tail",
            "csv",
            "jsonl",
            "philly-csv",
            "alibaba-csv",
            "google-csv",
            "empty",
        ] {
            assert!(r.trace(kind).is_ok(), "missing trace {kind}");
        }
        assert!(r.profile("flat").is_ok());
        let no_params = Value::Map(vec![]);
        let args = Args::new("scheduler", &no_params).unwrap();
        for kind in ["fifo", "las", "srtf", "srsf"] {
            assert!(
                build_scheduler(kind, &args).is_ok(),
                "missing scheduler {kind}"
            );
        }
        let params = args_map(vec![
            ("limit", Value::Int(4)),
            ("capacity_multiple", Value::Float(2.0)),
        ]);
        let args = Args::new("admission", &params).unwrap();
        for kind in [
            "admit-all",
            "reject-oversized",
            "max-active-jobs",
            "demand-backpressure",
        ] {
            assert!(
                build_admission(kind, &args).is_ok(),
                "missing admission {kind}"
            );
        }
        for (kind, name, sticky) in [
            ("random-sticky", "Random-Sticky", true),
            ("random", "Random-Non-Sticky", false),
            ("gandiva", "Gandiva", false),
            ("tiresias", "Tiresias", true),
            ("pm-first", "PM-First", false),
            ("pal", "PAL", false),
        ] {
            let entry = r.policy(kind).expect(kind);
            assert_eq!(entry.display_name, name);
            assert_eq!(entry.default_sticky, sticky);
        }
    }

    #[test]
    fn unknown_kind_error_lists_known() {
        let r = Registry::with_builtins();
        let err = match r.trace("philly2") {
            Err(e) => e,
            Ok(_) => panic!("unknown kind should error"),
        };
        let msg = err.to_string();
        assert!(msg.contains("`philly2`"), "{msg}");
        assert!(msg.contains("sia-philly"), "{msg}");

        let params = Value::Map(vec![]);
        let args = Args::new("scheduler", &params).unwrap();
        let Err(err) = build_scheduler("tiresias", &args) else {
            panic!("unknown scheduler should error");
        };
        assert_eq!(
            err.to_string(),
            "unknown scheduler kind `tiresias` (registered: fifo, las, srsf, srtf)"
        );
        let Err(err) = build_admission("admit-none", &args) else {
            panic!("unknown admission rule should error");
        };
        assert_eq!(
            err.to_string(),
            "unknown admission kind `admit-none` (registered: admit-all, demand-backpressure, \
             max-active-jobs, reject-oversized)"
        );
    }

    #[test]
    fn synergy_builder_scales_with_load() {
        let r = Registry::with_builtins();
        let params = args_map(vec![("num_jobs", Value::Int(40))]);
        let base_dir = Path::new(".");
        let build = |load| {
            let args = Args::new("trace `synergy`", &params).unwrap();
            let t = (r.trace("synergy").unwrap())(&args, &TraceCtx { load, base_dir }).unwrap();
            args.finish().unwrap();
            t
        };
        let t1 = build(None);
        let t2 = build(Some(2.0));
        assert_eq!(t1.len(), 40);
        assert_eq!(t2.len(), 40);
        // Double load → arrivals compressed ~2× on average.
        let span1 = t1.jobs.last().unwrap().arrival;
        let span2 = t2.jobs.last().unwrap().arrival;
        assert!(span2 < span1 * 0.75, "span1={span1} span2={span2}");
    }

    #[test]
    fn bad_rates_and_loads_are_rejected_in_the_builder() {
        let r = Registry::with_builtins();
        let base_dir = Path::new(".");
        let build = |kind: &str, params: &Value, load| {
            let args = Args::new(format!("trace `{kind}`"), params).unwrap();
            (r.trace(kind).unwrap())(&args, &TraceCtx { load, base_dir })
        };
        let rate = |v: f64| args_map(vec![("jobs_per_hour", Value::Float(v))]);
        for kind in ["synergy", "heavy-tail"] {
            for v in [0.0, -3.0, f64::NAN, f64::INFINITY] {
                let err = build(kind, &rate(v), None).unwrap_err();
                assert!(
                    err.to_string().contains("jobs_per_hour"),
                    "{kind} {v}: {err}"
                );
            }
            // A zero or non-finite load zeroes (or poisons) the scaled rate.
            let ok = args_map(vec![("num_jobs", Value::Int(2))]);
            for load in [0.0, f64::NAN, f64::INFINITY] {
                assert!(build(kind, &ok, Some(load)).is_err(), "{kind} load {load}");
            }
            assert!(build(kind, &ok, Some(2.0)).is_ok());
        }
        let heavy = |entries| build("heavy-tail", &args_map(entries), None);
        assert!(heavy(vec![("alpha", Value::Float(0.0))]).is_err());
        assert!(heavy(vec![("alpha", Value::Float(-1.5))]).is_err());
        assert!(heavy(vec![("min_duration_s", Value::Float(0.0))]).is_err());
        let err = heavy(vec![
            ("min_duration_s", Value::Float(10.0)),
            ("max_duration_s", Value::Float(5.0)),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("max_duration_s"), "{err}");
        assert!(heavy(vec![
            ("min_duration_s", Value::Float(5.0)),
            ("max_duration_s", Value::Float(5.0)),
        ])
        .is_ok());
    }

    #[test]
    fn downstream_registration_needs_no_crate_edits() {
        let mut r = Registry::with_builtins();
        r.register_trace("two-jobs", |args, _ctx| {
            args.finish()?;
            let catalog = catalog();
            let cfg = SynergyConfig {
                num_jobs: 2,
                ..Default::default()
            };
            Ok(cfg.generate(&catalog))
        });
        let params = Value::Map(vec![]);
        let args = Args::new("trace `two-jobs`", &params).unwrap();
        let t = (r.trace("two-jobs").unwrap())(
            &args,
            &TraceCtx {
                load: None,
                base_dir: Path::new("."),
            },
        )
        .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn policy_builders_run() {
        let r = Registry::with_builtins();
        let profile = Arc::new(VariabilityProfile::from_raw(vec![vec![1.0; 8]; 3]));
        let cache = Arc::new(PmTableCache::new());
        let params = Value::Map(vec![]);
        for (kind, entry) in &r.policies {
            let args = Args::new(format!("policy `{kind}`"), &params).unwrap();
            let built = (entry.factory)(
                &args,
                &PolicyCtx {
                    profile: &profile,
                    seed: 42,
                    table_cache: &cache,
                },
            );
            assert!(built.is_ok(), "policy {kind} failed to build");
        }
        // PAL, PM-First, and Adaptive-PAL shared one table build.
        assert!(cache.builds() <= 1, "cache missed sharing");
    }
}
