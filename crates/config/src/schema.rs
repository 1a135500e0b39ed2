//! The typed campaign-file schema: [`CampaignFile`] and the
//! [`GeneratorRef`]/[`PolicyRef`] references it resolves at build time.

use pal_cluster::{ClusterTopology, JobClass, LocalityModel};
use pal_gpumodel::Workload;
use pal_sim::serving::BatcherConfig;
use pal_sim::SimConfig;
use pal_trace::ServingWorkload;
use serde::{emit_value, DeError, Deserialize, Emitter, Serialize, Value};

/// A complete campaign file: cluster-wide defaults plus a scenario × policy
/// grid. See `configs/` for commented examples.
///
/// A campaign file describes everything the [`pal_sim::Campaign`] /
/// [`pal_sim::Scenario`] builders can express — topology, locality,
/// profiles, scheduler, admission, placement policies, training traces,
/// serving workloads, load sweeps, seeds — as plain data. Where the
/// simulator already has a serde-derived config struct
/// ([`ClusterTopology`], [`LocalityModel`], [`ServingWorkload`],
/// [`BatcherConfig`]), the schema reuses it directly, so the file format
/// and the Rust API cannot drift apart.
///
/// Pluggable pieces — trace generators, profiles, schedulers, admission
/// and placement policies — appear as [`GeneratorRef`]/[`PolicyRef`]: a
/// kind plus free-form parameters, resolved at build time (traces,
/// profiles and policies against a [`Registry`](crate::Registry), the
/// fixed scheduler and admission kinds by name).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignFile {
    /// Campaign-level knobs (`[campaign]`).
    pub campaign: Option<CampaignSection>,
    /// Cluster shape (`[cluster]`), required.
    pub cluster: ClusterTopology,
    /// Locality penalty model (`[locality]`); the scenario default
    /// (uniform, no cross-node penalty) if absent.
    pub locality: Option<LocalityModel>,
    /// Default policy-visible variability profile; flat (no variability)
    /// if absent.
    pub profile: Option<GeneratorRef>,
    /// Default ground-truth profile; same as `profile` if absent.
    pub truth: Option<GeneratorRef>,
    /// Default scheduling policy; FIFO if absent.
    pub scheduler: Option<GeneratorRef>,
    /// Default admission policy; admit-all if absent.
    pub admission: Option<GeneratorRef>,
    /// Default training-trace generator, overridable per scenario.
    pub trace: Option<GeneratorRef>,
    /// Default simulator-knob overrides (`[sim]`).
    pub sim: Option<SimSection>,
    /// The scenario rows (`[[scenario]]`).
    pub scenario: Vec<ScenarioSpec>,
    /// The policy columns (`[[policy]]`, or `policy = ["pal", ...]`).
    pub policy: Vec<PolicyRef>,
}

/// `[campaign]`: name, seed, and execution knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSection {
    /// Human-readable campaign name (reporting only).
    pub name: Option<String>,
    /// Base seed every per-cell seed derives from (default 0).
    pub seed: Option<u64>,
    /// Cap on worker threads (default: machine parallelism).
    pub max_parallelism: Option<usize>,
}

/// One scenario row: a trace (and/or serving deployments) swept over a
/// list of load factors, with optional per-scenario overrides of the
/// campaign-level defaults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Row tag; cell tags become `"{tag}@x{load}"` under a load sweep.
    pub tag: String,
    /// Training-trace generator (falls back to the campaign default; a
    /// scenario with serving deployments may omit both).
    pub trace: Option<GeneratorRef>,
    /// Load factors to sweep; empty means one cell at the generator's
    /// native load, with the bare tag.
    pub loads: Vec<f64>,
    /// Serving deployments running alongside the training trace.
    pub serving: Vec<ServingSpec>,
    /// Scheduler override for this row.
    pub scheduler: Option<GeneratorRef>,
    /// Admission override for this row.
    pub admission: Option<GeneratorRef>,
    /// Policy-visible profile override for this row.
    pub profile: Option<GeneratorRef>,
    /// Ground-truth profile override for this row.
    pub truth: Option<GeneratorRef>,
    /// Locality override for this row.
    pub locality: Option<LocalityModel>,
    /// Simulator-knob overrides for this row (applied on top of the
    /// campaign-level `[sim]`).
    pub sim: Option<SimSection>,
}

/// One serving deployment inside a scenario: the open-loop workload plus
/// its placement footprint. The workload's arrival rates scale with the
/// scenario's load factor ([`ServingWorkload::at_load`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingSpec {
    /// The open-loop request workload (arrival process, request count,
    /// work distribution, SLO, seed).
    pub workload: ServingWorkload,
    /// Model replicas to place.
    pub replicas: usize,
    /// GPUs each replica holds.
    pub gpus_per_replica: usize,
    /// Served model (defaults to BERT).
    pub model: Option<Workload>,
    /// Variability class (defaults to class A).
    pub class: Option<JobClass>,
    /// Batcher knobs (defaults to [`BatcherConfig::default`]).
    pub batcher: Option<BatcherConfig>,
}

/// `[sim]`: partial overrides of [`SimConfig`]. Only the fields present
/// in the file are overridden; everything else keeps the paper defaults,
/// and scenario-level sections stack on campaign-level ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSection {
    /// Override of [`SimConfig::round_duration`].
    pub round_duration: Option<f64>,
    /// Override of [`SimConfig::sticky`].
    pub sticky: Option<bool>,
    /// Override of [`SimConfig::migration_overhead`].
    pub migration_overhead: Option<f64>,
    /// Override of [`SimConfig::max_rounds`].
    pub max_rounds: Option<usize>,
    /// Override of [`SimConfig::event_driven`].
    pub event_driven: Option<bool>,
}

impl SimSection {
    /// `base` with this section's overrides applied.
    pub fn apply(&self, base: SimConfig) -> SimConfig {
        SimConfig {
            round_duration: self.round_duration.unwrap_or(base.round_duration),
            sticky: self.sticky.unwrap_or(base.sticky),
            migration_overhead: self.migration_overhead.unwrap_or(base.migration_overhead),
            max_rounds: self.max_rounds.unwrap_or(base.max_rounds),
            event_driven: self.event_driven.unwrap_or(base.event_driven),
        }
    }
}

/// A reference to a generator (trace, profile, scheduler, or admission
/// family): a kind string plus free-form parameters the family's
/// builder interprets.
///
/// Serialized forms: `"las"` (shorthand, no parameters) or
/// `{ kind = "las", threshold_gpu_seconds = 7200.0 }` (every key except
/// `kind` is a parameter).
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorRef {
    /// Kind of the family.
    pub kind: String,
    /// Builder parameters, always a [`Value::Map`].
    pub params: Value,
}

impl GeneratorRef {
    /// A parameterless reference.
    pub fn new(kind: impl Into<String>) -> Self {
        GeneratorRef {
            kind: kind.into(),
            params: Value::Map(Vec::new()),
        }
    }

    /// Add one builder parameter.
    pub fn param(mut self, key: impl Into<String>, value: Value) -> Self {
        if let Value::Map(entries) = &mut self.params {
            entries.push((key.into(), value));
        }
        self
    }
}

fn params_map(params: &Value) -> &[(String, Value)] {
    match params {
        Value::Map(entries) => entries,
        _ => &[],
    }
}

/// Emit a reference: the bare `kind` when it has no other entries, else
/// one map of `kind`, the set `reserved` entries, then the builder
/// parameters.
fn emit_ref(
    kind: &str,
    reserved: &[(&str, &dyn Serialize)],
    params: &Value,
    out: &mut dyn Emitter,
) {
    let params = params_map(params);
    if reserved.is_empty() && params.is_empty() {
        return out.str(kind);
    }
    out.map(1 + reserved.len() + params.len());
    out.key("kind");
    out.str(kind);
    for (key, value) in reserved {
        out.key(key);
        value.emit(out);
    }
    for (key, value) in params {
        out.key(key);
        emit_value(value, out);
    }
    out.end();
}

impl Serialize for GeneratorRef {
    fn emit(&self, out: &mut dyn Emitter) {
        emit_ref(&self.kind, &[], &self.params, out);
    }
}

impl<'de> Deserialize<'de> for GeneratorRef {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let (kind, params) = split_ref(value)?;
        Ok(GeneratorRef {
            kind,
            params: Value::Map(params),
        })
    }
}

/// A reference to a registered placement-policy family — a
/// [`GeneratorRef`] plus the two pieces of [`pal_sim::PolicySpec`]
/// identity: the column name (which feeds per-cell seeds) and the sticky
/// override.
///
/// Serialized forms: `"pal"` or `{ kind = "random", name = "Random-2",
/// sticky = true, ... }` (`kind`/`name`/`sticky` are reserved; every
/// other key is a builder parameter).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRef {
    /// Registry key of the family.
    pub kind: String,
    /// Column-name override (defaults to the family's display name).
    pub name: Option<String>,
    /// Stickiness override (defaults to the family's own).
    pub sticky: Option<bool>,
    /// Builder parameters, always a [`Value::Map`].
    pub params: Value,
}

impl PolicyRef {
    /// A parameterless reference with default name and stickiness.
    pub fn new(kind: impl Into<String>) -> Self {
        PolicyRef {
            kind: kind.into(),
            name: None,
            sticky: None,
            params: Value::Map(Vec::new()),
        }
    }
}

impl Serialize for PolicyRef {
    fn emit(&self, out: &mut dyn Emitter) {
        let name = self.name.as_ref().map(|n| ("name", n as &dyn Serialize));
        let sticky = self
            .sticky
            .as_ref()
            .map(|s| ("sticky", s as &dyn Serialize));
        let reserved: Vec<_> = [name, sticky].into_iter().flatten().collect();
        emit_ref(&self.kind, &reserved, &self.params, out);
    }
}

impl<'de> Deserialize<'de> for PolicyRef {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let (kind, mut rest) = split_ref(value)?;
        let mut take = |key: &str| {
            rest.iter()
                .position(|(k, _)| k == key)
                .map(|i| rest.remove(i).1)
        };
        let name = match take("name") {
            Some(v) => Some(String::from_value(&v).map_err(|e| e.context("name"))?),
            None => None,
        };
        let sticky = match take("sticky") {
            Some(v) => Some(bool::from_value(&v).map_err(|e| e.context("sticky"))?),
            None => None,
        };
        Ok(PolicyRef {
            kind,
            name,
            sticky,
            params: Value::Map(rest),
        })
    }
}

/// Shared shorthand handling: `Str(kind)` or a map with a `kind` key.
/// Returns the kind and the remaining entries (reserved keys included —
/// callers extract theirs). Duplicate keys are rejected.
fn split_ref(value: &Value) -> Result<(String, Vec<(String, Value)>), DeError> {
    match value {
        Value::Str(kind) => Ok((kind.clone(), Vec::new())),
        Value::Map(entries) => {
            for (i, (key, _)) in entries.iter().enumerate() {
                if entries[..i].iter().any(|(k, _)| k == key) {
                    return Err(DeError::new(format!("duplicate field `{key}`")));
                }
            }
            let mut kind = None;
            let mut rest = Vec::new();
            for (key, v) in entries {
                if key == "kind" {
                    kind = Some(String::from_value(v).map_err(|e| e.context("kind"))?);
                } else {
                    rest.push((key.clone(), v.clone()));
                }
            }
            kind.map(|kind| (kind, rest))
                .ok_or_else(|| DeError::new("missing `kind` in generator reference"))
        }
        other => Err(DeError::mismatch(
            "string or map for generator reference",
            other,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_ref_shorthand_roundtrip() {
        let short = GeneratorRef::new("fifo");
        assert_eq!(short.to_value(), Value::Str("fifo".into()));
        assert_eq!(GeneratorRef::from_value(&short.to_value()).unwrap(), short);

        let full = GeneratorRef::new("las").param("threshold_gpu_seconds", Value::Float(7200.0));
        let v = full.to_value();
        assert_eq!(v.get("kind"), Some(&Value::Str("las".into())));
        assert_eq!(v.get("threshold_gpu_seconds"), Some(&Value::Float(7200.0)));
        assert_eq!(GeneratorRef::from_value(&v).unwrap(), full);
    }

    #[test]
    fn policy_ref_reserved_keys_split_from_params() {
        let v = Value::Map(vec![
            ("kind".into(), Value::Str("random".into())),
            ("name".into(), Value::Str("Random-2".into())),
            ("sticky".into(), Value::Bool(true)),
            ("extra".into(), Value::Int(1)),
        ]);
        let p = PolicyRef::from_value(&v).unwrap();
        assert_eq!(p.kind, "random");
        assert_eq!(p.name.as_deref(), Some("Random-2"));
        assert_eq!(p.sticky, Some(true));
        assert_eq!(p.params.get("extra"), Some(&Value::Int(1)));
        assert!(p.to_value().eq_unordered(&v));
        assert_eq!(PolicyRef::from_value(&p.to_value()).unwrap(), p);
    }

    #[test]
    fn missing_kind_errors() {
        let v = Value::Map(vec![("name".into(), Value::Str("x".into()))]);
        let err = PolicyRef::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("missing `kind`"), "{err}");
    }

    #[test]
    fn sim_section_overrides_stack() {
        let campaign_level = SimSection {
            round_duration: Some(60.0),
            sticky: None,
            migration_overhead: None,
            max_rounds: None,
            event_driven: None,
        };
        let scenario_level = SimSection {
            sticky: Some(true),
            ..campaign_level.clone()
        };
        let cfg = scenario_level.apply(campaign_level.apply(SimConfig::default()));
        assert_eq!(cfg.round_duration, 60.0);
        assert!(cfg.sticky);
        assert_eq!(cfg.migration_overhead, 30.0); // untouched default
    }

    #[test]
    fn campaign_file_roundtrips_through_value() {
        let file = CampaignFile {
            campaign: Some(CampaignSection {
                name: Some("unit".into()),
                seed: Some(0xD1CE),
                max_parallelism: None,
            }),
            cluster: ClusterTopology {
                nodes: 4,
                gpus_per_node: 16,
            },
            locality: None,
            profile: Some(GeneratorRef::new("flat").param("classes", Value::Int(3))),
            truth: None,
            scheduler: Some(GeneratorRef::new("las")),
            admission: None,
            trace: None,
            sim: None,
            scenario: vec![ScenarioSpec {
                tag: "row".into(),
                trace: Some(GeneratorRef::new("synergy")),
                loads: vec![0.5, 1.0],
                serving: vec![],
                scheduler: None,
                admission: None,
                profile: None,
                truth: None,
                locality: None,
                sim: None,
            }],
            policy: vec![
                PolicyRef::new("pal"),
                PolicyRef {
                    sticky: Some(true),
                    ..PolicyRef::new("random")
                },
            ],
        };
        let back = CampaignFile::from_value(&file.to_value()).expect("round-trip");
        assert_eq!(back, file);
    }

    #[test]
    fn unknown_top_level_field_is_rejected() {
        let mut v = CampaignFile {
            campaign: None,
            cluster: ClusterTopology {
                nodes: 1,
                gpus_per_node: 4,
            },
            locality: None,
            profile: None,
            truth: None,
            scheduler: None,
            admission: None,
            trace: None,
            sim: None,
            scenario: vec![],
            policy: vec![],
        }
        .to_value();
        if let Value::Map(entries) = &mut v {
            entries.push(("typo_section".into(), Value::Int(1)));
        }
        let err = CampaignFile::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("typo_section"), "{err}");
    }

    #[test]
    fn removed_sim_key_is_rejected() {
        // `[sim] event_core = true`: the setting was removed with the
        // discrete-event engine core, so old files fail loudly instead of
        // silently running without it. Spelled in halves so a repository
        // search for the removed name finds no live references.
        let key = concat!("event", "_core");
        let file = format!("[cluster]\nnodes = 1\ngpus_per_node = 4\n[sim]\n{key} = true\n");
        let err = crate::parse_campaign_str(&file, "old.toml").unwrap_err();
        assert!(err.to_string().contains(key), "{err}");
    }

    #[test]
    fn removed_scenario_sticky_key_is_rejected() {
        // `[[scenario]] sticky` duplicated `[scenario.sim] sticky`, which
        // sets the same `SimConfig::sticky`; old files fail loudly.
        let file = "[cluster]\nnodes = 1\ngpus_per_node = 4\n\
                    [[scenario]]\ntag = \"t\"\nsticky = true\n";
        let err = crate::parse_campaign_str(file, "old.toml").unwrap_err();
        assert!(err.to_string().contains("sticky"), "{err}");
        // The stickiness of a row lives under its `[scenario.sim]`.
        let file = "[cluster]\nnodes = 1\ngpus_per_node = 4\n\
                    [[scenario]]\ntag = \"t\"\n[scenario.sim]\nsticky = true\n";
        let parsed = crate::parse_campaign_str(file, "new.toml").unwrap();
        assert_eq!(parsed.scenario[0].sim.as_ref().unwrap().sticky, Some(true));
    }
}
