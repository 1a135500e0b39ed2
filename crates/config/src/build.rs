//! From file to runnable campaign.

use crate::error::ConfigError;
use crate::json::parse_json;
use crate::registry::{
    build_admission, build_scheduler, Args, PolicyCtx, ProfileCtx, Registry, TraceCtx,
};
use crate::schema::{CampaignFile, GeneratorRef, ScenarioSpec};
use crate::toml::parse_toml;
use pal::PmTableCache;
use pal_cluster::{LocalityModel, VariabilityProfile};
use pal_sim::{Campaign, PolicySpec, Scenario, ServingJob, SimConfig};
use pal_trace::Trace;
use serde::Deserialize;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// The most GPUs one cluster may hold: 1,048,576, which is 419× the
/// largest cluster any shipped config or benchmark workload runs (2,500)
/// and 104× the fleet-scale bench's (10,000). Building a campaign
/// allocates a probe profile of 3 × GPUs scores, 24 MiB at the cap. The
/// cap is fixed rather than sized to the host, so a config that validates
/// on one machine validates on every machine; GPU ids are `u32`s, which
/// it also keeps in range.
const MAX_CLUSTER_GPUS: usize = 1 << 20;

/// Parse campaign text into the typed schema. `label` names the source
/// in errors (a path, or something like `"<inline>"`); text is parsed as
/// JSON when the label ends in `.json` or the text leads with `{`, as
/// TOML otherwise.
pub fn parse_campaign_str(text: &str, label: &str) -> Result<CampaignFile, ConfigError> {
    let as_json = label.ends_with(".json") || text.trim_start().starts_with('{');
    let value = if as_json {
        parse_json(text)
    } else {
        parse_toml(text)
    }
    .map_err(|e| ConfigError::Syntax {
        file: label.to_string(),
        line: e.line,
        col: e.col,
        message: e.message,
    })?;
    CampaignFile::from_value(&value).map_err(|e| ConfigError::Schema {
        file: label.to_string(),
        message: e.to_string(),
    })
}

/// Read and parse a campaign file from disk.
pub fn load_campaign_file(path: impl AsRef<Path>) -> Result<CampaignFile, ConfigError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|source| ConfigError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    parse_campaign_str(&text, &path.display().to_string())
}

/// [`load_campaign_file`] + [`build_campaign`], resolving relative trace
/// paths against the campaign file's directory.
pub fn campaign_from_path(
    path: impl AsRef<Path>,
    registry: &Registry,
) -> Result<Campaign, ConfigError> {
    let path = path.as_ref();
    let file = load_campaign_file(path)?;
    let base_dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    build_campaign(&file, registry, base_dir)
}

/// Resolve a parsed [`CampaignFile`] against a [`Registry`] into a
/// runnable [`Campaign`].
///
/// Three steps, each with its own error context:
///
/// 1. [`parse_campaign_str`] / [`load_campaign_file`]: text → [`serde::Value`]
///    (TOML by default, JSON for `.json` files or `{`-leading text) →
///    [`CampaignFile`]. Syntax errors carry `file:line:col`; schema
///    errors carry the file name and the offending field path.
/// 2. [`build_campaign`]: resolve every [`GeneratorRef`]/`PolicyRef`
///    against a [`Registry`] into a [`pal_sim::Campaign`]. Resolution is
///    **eager**: every factory runs (and its parameters are checked for
///    typos) at build time, and every scenario cell is
///    [validated](pal_sim::Scenario::validate) before the campaign is
///    returned — a config error never surfaces mid-sweep.
/// 3. [`campaign_from_path`]: both of the above, with relative `path`
///    parameters resolved against the config file's directory.
///
/// ## Bit-identical reproduction
///
/// A file-built campaign is *the same campaign* as its builder-built
/// equivalent: cell seeds depend only on `(campaign seed, scenario tag,
/// policy name)`, load-sweep tags use the builder's exact
/// `"{tag}@x{load}"` format, and the builtin policy kinds carry the
/// figure-legend names — so [`pal_sim::SimResult::same_outcome`] holds
/// cell for cell against code that constructs the sweep by hand.
pub fn build_campaign(
    file: &CampaignFile,
    registry: &Registry,
    base_dir: &Path,
) -> Result<Campaign, ConfigError> {
    if file.cluster.nodes == 0 || file.cluster.gpus_per_node == 0 {
        return Err(ConfigError::BadParam {
            context: "cluster".to_string(),
            message: format!(
                "nodes and gpus_per_node must be positive, got {}×{}",
                file.cluster.nodes, file.cluster.gpus_per_node
            ),
        });
    }
    // Checked, because the product can also wrap.
    let gpus = file
        .cluster
        .nodes
        .checked_mul(file.cluster.gpus_per_node)
        .filter(|&gpus| gpus <= MAX_CLUSTER_GPUS)
        .ok_or_else(|| ConfigError::BadParam {
            context: "cluster".to_string(),
            message: format!(
                "{} nodes × {} GPUs per node exceeds the limit of {MAX_CLUSTER_GPUS} GPUs",
                file.cluster.nodes, file.cluster.gpus_per_node,
            ),
        })?;
    if let Some(l) = &file.locality {
        check_locality(l, "locality")?;
    }

    let section = file.campaign.as_ref();
    let mut campaign = Campaign::new().seed(section.and_then(|c| c.seed).unwrap_or(0));
    if let Some(threads) = section.and_then(|c| c.max_parallelism) {
        campaign = campaign.max_parallelism(threads);
    }

    // One PM-score table cache for the whole campaign: PAL / PM-First /
    // Adaptive-PAL columns over one profile share a single table build.
    let table_cache = Arc::new(PmTableCache::new());
    // Probe profile for eager parameter validation: every policy factory
    // runs once here so a typo'd parameter fails at load, not mid-sweep.
    // The probe gets its own throwaway table cache, so the shared one
    // holds tables only for profiles that cells run on.
    let probe = Arc::new(VariabilityProfile::from_raw(vec![vec![1.0; gpus]; 3]));
    let probe_cache = Arc::new(PmTableCache::new());
    for pref in &file.policy {
        let entry = registry.policy(&pref.kind)?.clone();
        let name = pref
            .name
            .clone()
            .unwrap_or_else(|| entry.display_name.clone());
        let sticky = pref.sticky.unwrap_or(entry.default_sticky);
        let context = format!("policy `{}`", pref.kind);
        {
            let args = Args::new(context.clone(), &pref.params)?;
            (entry.factory)(
                &args,
                &PolicyCtx {
                    profile: &probe,
                    seed: 0,
                    table_cache: &probe_cache,
                },
            )?;
            args.finish()?;
        }
        let params = pref.params.clone();
        let factory = entry.factory.clone();
        let cache = Arc::clone(&table_cache);
        campaign = campaign.policy(
            PolicySpec::new(name, move |profile, seed| {
                let args =
                    Args::new(context.clone(), &params).expect("params validated at config load");
                factory(
                    &args,
                    &PolicyCtx {
                        profile,
                        seed,
                        table_cache: &cache,
                    },
                )
                .expect("policy params validated at config load")
            })
            .sticky(sticky),
        );
    }

    let mut tags_seen: BTreeSet<String> = BTreeSet::new();
    for spec in &file.scenario {
        if let Some(l) = &spec.locality {
            check_locality(l, &format!("scenario `{}` locality", spec.tag))?;
        }
        for &load in &spec.loads {
            if !(load > 0.0 && load.is_finite()) {
                return Err(ConfigError::BadParam {
                    context: format!("scenario `{}`", spec.tag),
                    message: format!("load factors must be positive and finite, got {load}"),
                });
            }
        }
        let loads: Vec<Option<f64>> = if spec.loads.is_empty() {
            vec![None]
        } else {
            spec.loads.iter().map(|&l| Some(l)).collect()
        };
        for load in loads {
            // The builder's exact `scenario_sweep` tag format — cell
            // seeds hash the tag, so this must not drift.
            let tag = match load {
                Some(l) => format!("{}@x{l}", spec.tag),
                None => spec.tag.clone(),
            };
            if !tags_seen.insert(tag.clone()) {
                return Err(ConfigError::BadParam {
                    context: format!("scenario `{}`", spec.tag),
                    message: format!("duplicate cell tag `{tag}` (cell seeds would collide)"),
                });
            }
            let cell = build_cell(file, spec, registry, base_dir, gpus, &tag, load)?;
            campaign = campaign.scenario(tag, cell);
        }
    }
    Ok(campaign)
}

/// Reject a locality model PAL's L×V matrix cannot be built from:
/// `l_within` must be finite and positive, `l_across` and every per-model
/// override finite and no smaller than `l_within`.
fn check_locality(l: &LocalityModel, context: &str) -> Result<(), ConfigError> {
    let bad = |message: String| ConfigError::BadParam {
        context: context.to_string(),
        message,
    };
    if !(l.l_within.is_finite() && l.l_within > 0.0) {
        return Err(bad(format!(
            "l_within must be positive and finite, got {}",
            l.l_within
        )));
    }
    // Sorted so the first complaint is deterministic across runs.
    let mut models: Vec<(&String, &f64)> = l.per_model.iter().collect();
    models.sort_by(|a, b| a.0.cmp(b.0));
    let penalties = std::iter::once(("l_across".to_string(), l.l_across)).chain(
        models
            .into_iter()
            .map(|(m, &v)| (format!("per_model.{m}"), v)),
    );
    for (key, v) in penalties {
        if !(v.is_finite() && v >= l.l_within) {
            return Err(bad(format!(
                "{key} must be finite and at least l_within = {}, got {v}",
                l.l_within
            )));
        }
    }
    Ok(())
}

/// A scheduler or admission builder: [`build_scheduler`] or
/// [`build_admission`].
type Build<T> = fn(&str, &Args) -> Result<T, ConfigError>;

/// A scheduler or admission reference with the error context it resolves
/// under. It resolves once at build time, so an unknown kind or a bad
/// parameter fails at load, and again for every cell (policies are
/// stateful, so each cell needs a fresh instance).
struct CheckedRef {
    r: GeneratorRef,
    context: String,
}

impl CheckedRef {
    fn check<T>(
        r: Option<&GeneratorRef>,
        which: &str,
        tag: &str,
        build: Build<T>,
    ) -> Result<Option<Self>, ConfigError> {
        let Some(r) = r else { return Ok(None) };
        let checked = CheckedRef {
            r: r.clone(),
            context: format!("{which} `{}` (scenario `{tag}`)", r.kind),
        };
        checked.resolve(build)?;
        Ok(Some(checked))
    }

    fn resolve<T>(&self, build: Build<T>) -> Result<T, ConfigError> {
        let args = Args::new(self.context.clone(), &self.r.params)?;
        let built = build(&self.r.kind, &args)?;
        args.finish()?;
        Ok(built)
    }
}

/// Build one campaign cell: resolve every reference for `(spec, load)`,
/// validate the resulting scenario, and return its factory closure.
fn build_cell(
    file: &CampaignFile,
    spec: &ScenarioSpec,
    registry: &Registry,
    base_dir: &Path,
    gpus: usize,
    tag: &str,
    load: Option<f64>,
) -> Result<impl Fn() -> Scenario + Send + Sync + 'static, ConfigError> {
    let trace: Arc<Trace> = match spec.trace.as_ref().or(file.trace.as_ref()) {
        Some(r) => {
            let factory = registry.trace(&r.kind)?;
            let args = Args::new(format!("trace `{}` (scenario `{tag}`)", r.kind), &r.params)?;
            let t = factory(&args, &TraceCtx { load, base_dir })?;
            args.finish()?;
            Arc::new(t)
        }
        None if !spec.serving.is_empty() => Arc::new(Trace::new(tag, vec![])),
        None => {
            return Err(ConfigError::BadParam {
                context: format!("scenario `{}`", spec.tag),
                message: "no trace generator (set `trace` in the scenario or at the top \
                          level) and no serving deployments"
                    .to_string(),
            })
        }
    };

    let profile = build_profile(
        spec.profile.as_ref().or(file.profile.as_ref()),
        "profile",
        tag,
        registry,
        gpus,
    )?;
    let truth = build_profile(
        spec.truth.as_ref().or(file.truth.as_ref()),
        "truth",
        tag,
        registry,
        gpus,
    )?;
    let locality = spec
        .locality
        .as_ref()
        .or(file.locality.as_ref())
        .cloned()
        .map(Arc::new);

    let scheduler = CheckedRef::check(
        spec.scheduler.as_ref().or(file.scheduler.as_ref()),
        "scheduler",
        tag,
        build_scheduler,
    )?;
    let admission = CheckedRef::check(
        spec.admission.as_ref().or(file.admission.as_ref()),
        "admission",
        tag,
        build_admission,
    )?;

    let mut config = SimConfig::default();
    if let Some(s) = &file.sim {
        config = s.apply(config);
    }
    if let Some(s) = &spec.sim {
        config = s.apply(config);
    }

    let mut serving_jobs: Vec<ServingJob> = Vec::new();
    for s in &spec.serving {
        if s.replicas == 0 || s.gpus_per_replica == 0 {
            return Err(ConfigError::BadParam {
                context: format!("scenario `{}` serving `{}`", spec.tag, s.workload.name),
                message: "replicas and gpus_per_replica must be positive".to_string(),
            });
        }
        let workload = match load {
            Some(l) => s.workload.at_load(l),
            None => s.workload.clone(),
        };
        let mut job = ServingJob::new(workload, s.replicas, s.gpus_per_replica);
        if let Some(model) = s.model {
            job = job.model(model);
        }
        if let Some(class) = s.class {
            job = job.class(class);
        }
        if let Some(batcher) = s.batcher {
            job = job.batcher(batcher);
        }
        serving_jobs.push(job);
    }

    let topology = file.cluster;
    let factory = move || {
        let mut sc = Scenario::new(Arc::clone(&trace), topology).config(config.clone());
        if let Some(p) = &profile {
            sc = sc.profile(Arc::clone(p));
        }
        if let Some(t) = &truth {
            sc = sc.truth(Arc::clone(t));
        }
        if let Some(l) = &locality {
            sc = sc.locality(Arc::clone(l));
        }
        if let Some(r) = &scheduler {
            sc = sc.scheduler_boxed(r.resolve(build_scheduler).expect("checked at config load"));
        }
        if let Some(r) = &admission {
            sc = sc.admission_boxed(r.resolve(build_admission).expect("checked at config load"));
        }
        for job in &serving_jobs {
            sc = sc.serving(job.clone());
        }
        sc
    };
    factory()
        .validate()
        .map_err(|source| ConfigError::Scenario {
            tag: tag.to_string(),
            source,
        })?;
    Ok(factory)
}

/// Resolve an optional profile reference into a shared handle, checking
/// its parameters.
fn build_profile(
    r: Option<&GeneratorRef>,
    which: &str,
    tag: &str,
    registry: &Registry,
    gpus: usize,
) -> Result<Option<Arc<VariabilityProfile>>, ConfigError> {
    match r {
        None => Ok(None),
        Some(r) => {
            let factory = registry.profile(&r.kind)?;
            let args = Args::new(
                format!("{which} `{}` (scenario `{tag}`)", r.kind),
                &r.params,
            )?;
            let p = factory(&args, &ProfileCtx { gpus })?;
            args.finish()?;
            Ok(Some(Arc::new(p)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    const SMALL: &str = r#"
# A minimal two-policy sweep. Root-level keys come before the first
# table header, as TOML requires.
profile = { kind = "flat", classes = 3, value = 1.2 }
scheduler = "fifo"
policy = ["random", "tiresias"]

[campaign]
seed = 0xC0FFEE

[cluster]
nodes = 2
gpus_per_node = 4

[[scenario]]
tag = "row"
trace = { kind = "synergy", num_jobs = 12, jobs_per_hour = 40.0 }
"#;

    #[test]
    fn small_campaign_parses_and_runs() {
        let file = parse_campaign_str(SMALL, "<inline>").expect("parse");
        assert_eq!(file.campaign.as_ref().unwrap().seed, Some(0xC0FFEE));
        assert_eq!(file.policy.len(), 2);
        let campaign =
            build_campaign(&file, &Registry::with_builtins(), Path::new(".")).expect("build");
        assert_eq!(campaign.num_cells(), 2);
        let results = campaign.run().expect("run");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].policy, "Random-Non-Sticky");
        assert_eq!(results[1].policy, "Tiresias");
    }

    #[test]
    fn file_campaign_matches_builder_campaign_bitwise() {
        // The reproduction guarantee, in miniature: the same sweep
        // written by hand against the builder API yields the same
        // outcomes, cell for cell.
        use pal_cluster::{ClusterTopology, VariabilityProfile};
        use pal_sim::placement::{PackedPlacement, RandomPlacement};
        use pal_sim::sched::Fifo;
        use pal_trace::{ModelCatalog, SynergyConfig};

        let file_results = build_campaign(
            &parse_campaign_str(SMALL, "<inline>").unwrap(),
            &Registry::with_builtins(),
            Path::new("."),
        )
        .unwrap()
        .run()
        .unwrap();

        let catalog = ModelCatalog::table2(&pal_gpumodel::GpuSpec::v100());
        let trace = Arc::new(
            SynergyConfig {
                num_jobs: 12,
                jobs_per_hour: 40.0,
                ..Default::default()
            }
            .generate(&catalog),
        );
        let profile = Arc::new(VariabilityProfile::from_raw(vec![vec![1.2; 8]; 3]));
        let hand_results = Campaign::new()
            .seed(0xC0FFEE)
            .scenario("row", move || {
                Scenario::new(Arc::clone(&trace), ClusterTopology::new(2, 4))
                    .profile(Arc::clone(&profile))
                    .scheduler(Fifo)
            })
            .policy(
                PolicySpec::new("Random-Non-Sticky", |_, seed| {
                    Box::new(RandomPlacement::new(seed))
                })
                .sticky(false),
            )
            .policy(
                PolicySpec::new("Tiresias", |_, seed| {
                    Box::new(PackedPlacement::randomized(seed))
                })
                .sticky(true),
            )
            .run()
            .unwrap();

        assert_eq!(file_results.len(), hand_results.len());
        for (a, b) in file_results.iter().zip(&hand_results) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.seed, b.seed, "cell seeds must match bit-for-bit");
            assert!(
                a.result.same_outcome(&b.result),
                "outcome diverged on {}/{}",
                a.scenario,
                a.policy
            );
        }
    }

    #[test]
    fn load_sweep_tags_match_builder_format() {
        let src = r#"
policy = ["random"]
[cluster]
nodes = 2
gpus_per_node = 4
[[scenario]]
tag = "sweep"
trace = { kind = "synergy", num_jobs = 4 }
loads = [0.5, 1.0, 2.0]
"#;
        let file = parse_campaign_str(src, "<inline>").unwrap();
        let campaign = build_campaign(&file, &Registry::with_builtins(), Path::new(".")).unwrap();
        let results = campaign.run().unwrap();
        let tags: Vec<&str> = results.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(tags, vec!["sweep@x0.5", "sweep@x1", "sweep@x2"]);
    }

    #[test]
    fn syntax_error_carries_position() {
        let err = parse_campaign_str("nodes = @\n", "bad.toml").unwrap_err();
        match err {
            ConfigError::Syntax { file, line, .. } => {
                assert_eq!(file, "bad.toml");
                assert_eq!(line, 1);
            }
            other => panic!("expected syntax error, got {other}"),
        }
    }

    #[test]
    fn unknown_kind_and_typo_params_fail_at_build() {
        let base = |trace: &str| {
            format!(
                "policy = [\"random\"]\n[cluster]\nnodes = 1\ngpus_per_node = 4\n\
                 [[scenario]]\ntag = \"t\"\ntrace = {trace}\n"
            )
        };
        let r = Registry::with_builtins();
        let err = build_campaign(
            &parse_campaign_str(&base("\"no-such-trace\""), "<inline>").unwrap(),
            &r,
            Path::new("."),
        )
        .unwrap_err();
        assert!(matches!(err, ConfigError::UnknownKind { .. }), "{err}");

        let err = build_campaign(
            &parse_campaign_str(&base("{ kind = \"synergy\", num_job = 5 }"), "<inline>").unwrap(),
            &r,
            Path::new("."),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown parameter `num_job`"),
            "{err}"
        );
    }

    #[test]
    fn generator_preconditions_are_typed_errors() {
        // Each of these once reached an `assert!` or an abort inside a
        // generator. `extra` is one more scenario line.
        let r = Registry::with_builtins();
        for (trace, extra) in [
            ("{ kind = \"synergy\", jobs_per_hour = 0.0 }", ""),
            ("{ kind = \"synergy\", num_jobs = 2 }", "loads = [0.0]"),
            ("{ kind = \"heavy-tail\", jobs_per_hour = -1.0 }", ""),
            ("{ kind = \"heavy-tail\", alpha = 0.0 }", ""),
            ("{ kind = \"heavy-tail\", min_duration_s = 0.0 }", ""),
            (
                "{ kind = \"heavy-tail\", min_duration_s = 900.0, max_duration_s = 600.0 }",
                "",
            ),
            ("{ kind = \"sia-philly\", arrival_rate_per_hour = 0.0 }", ""),
            ("{ kind = \"sia-philly\", median_duration_s = 0.0 }", ""),
            ("{ kind = \"synergy\", duration_sigma = -1.0 }", ""),
            ("{ kind = \"synergy\", single_gpu_fraction = 1.5 }", ""),
            // Rates so small that the last arrival would be `inf`.
            ("{ kind = \"synergy\", jobs_per_hour = 1e-308 }", ""),
            ("{ kind = \"synergy\", num_jobs = 2 }", "loads = [1e-308]"),
            ("{ kind = \"heavy-tail\", jobs_per_hour = 1e-308 }", ""),
            (
                "{ kind = \"sia-philly\", arrival_rate_per_hour = 1e-308 }",
                "",
            ),
            // A `flat` profile too large to allocate, and one past the bound.
            (
                "{ kind = \"synergy\", num_jobs = 2 }",
                "profile = { kind = \"flat\", classes = 4294967296 }",
            ),
            (
                "{ kind = \"synergy\", num_jobs = 2 }",
                "profile = { kind = \"flat\", classes = 1025 }",
            ),
        ] {
            let src = format!(
                "policy = [\"random\"]\n[cluster]\nnodes = 1\ngpus_per_node = 4\n\
                 [[scenario]]\ntag = \"t\"\ntrace = {trace}\n{extra}\n"
            );
            let file = parse_campaign_str(&src, "<inline>").unwrap();
            match build_campaign(&file, &r, Path::new(".")) {
                Err(ConfigError::BadParam { .. }) => {}
                Err(other) => panic!("{trace} {extra}: expected BadParam, got {other}"),
                Ok(_) => panic!("{trace} {extra}: built"),
            }
        }
    }

    #[test]
    fn bad_locality_values_are_typed_errors() {
        let r = Registry::with_builtins();
        let build = |file_locality: &str, scenario_locality: &str| {
            let src = format!(
                "policy = [\"pal\"]\n{file_locality}\n[cluster]\nnodes = 1\ngpus_per_node = 4\n\
                 [[scenario]]\ntag = \"t\"\ntrace = {{ kind = \"synergy\", num_jobs = 2 }}\n\
                 {scenario_locality}\n"
            );
            build_campaign(
                &parse_campaign_str(&src, "<inline>").unwrap(),
                &r,
                Path::new("."),
            )
        };
        for (file_locality, scenario_locality, needle) in [
            (
                "locality = { l_within = 1.0, l_across = 0.5 }",
                "",
                "locality: l_across",
            ),
            (
                "locality = { l_within = 0.0, l_across = 1.5 }",
                "",
                "locality: l_within",
            ),
            (
                "locality = { l_within = -1.0, l_across = 1.5 }",
                "",
                "l_within must be positive",
            ),
            (
                "locality = { l_within = 2.0, l_across = 1.5 }",
                "",
                "at least l_within = 2, got 1.5",
            ),
            (
                "locality = { l_within = 1.0, l_across = 1.5, per_model = { vgg19 = 0.9 } }",
                "",
                "per_model.vgg19",
            ),
            (
                "",
                "locality = { l_within = 1.0, l_across = 0.5 }",
                "scenario `t` locality: l_across",
            ),
            (
                "",
                "locality = { l_within = 1.0, l_across = 1.5, per_model = { bert = 0.5 } }",
                "per_model.bert",
            ),
        ] {
            match build(file_locality, scenario_locality) {
                Err(e @ ConfigError::BadParam { .. }) => {
                    assert!(e.to_string().contains(needle), "{e} lacks `{needle}`")
                }
                Err(other) => {
                    panic!("{file_locality}{scenario_locality}: expected BadParam, got {other}")
                }
                Ok(_) => panic!("{file_locality}{scenario_locality}: built"),
            }
        }
        // Boundary values stay valid: `l_across == l_within`, and an
        // override equal to `l_within`.
        build(
            "locality = { l_within = 1.0, l_across = 1.0, per_model = { vgg19 = 1.0 } }",
            "locality = { l_within = 0.5, l_across = 0.5 }",
        )
        .expect("l_across == l_within is a valid locality model");
    }

    #[test]
    fn oversized_cluster_is_a_typed_error() {
        // 2^62 + 1 nodes × 4 GPUs wraps to 4 GPUs in a release build;
        // 2^61 × 4 does not wrap, but no GPU vector can hold 2^63 GPUs;
        // 2^30 × 4 is one past `u32` GPU ids; 2^18 + 1 nodes × 4 GPUs is
        // one node past the cap, whose probe profile would still fit.
        let build = |nodes: &str| {
            let src = format!(
                "policy = [\"random\"]\n[cluster]\nnodes = {nodes}\ngpus_per_node = 4\n\
                 [[scenario]]\ntag = \"t\"\ntrace = {{ kind = \"synergy\", num_jobs = 2 }}\n"
            );
            let file = parse_campaign_str(&src, "<inline>").unwrap();
            build_campaign(&file, &Registry::with_builtins(), Path::new("."))
        };
        for nodes in [
            "4611686018427387905",
            "2305843009213693952",
            "1073741824",
            "262145",
        ] {
            match build(nodes) {
                Err(ConfigError::BadParam { context, message }) => {
                    assert_eq!(context, "cluster");
                    assert!(message.contains("limit of 1048576 GPUs"), "{message}");
                }
                Err(other) => panic!("{nodes} nodes: expected BadParam, got {other}"),
                Ok(_) => panic!("{nodes} nodes: built"),
            }
        }
        build("262144").expect("a cluster of exactly the cap builds");
    }

    #[test]
    fn missing_trace_and_duplicate_tags_are_rejected() {
        let r = Registry::with_builtins();
        let no_trace = "[cluster]\nnodes = 1\ngpus_per_node = 4\n[[scenario]]\ntag = \"t\"\n";
        let err = build_campaign(
            &parse_campaign_str(no_trace, "<inline>").unwrap(),
            &r,
            Path::new("."),
        )
        .unwrap_err();
        assert!(err.to_string().contains("no trace generator"), "{err}");

        let dup = "[cluster]\nnodes = 1\ngpus_per_node = 4\n\
                   [[scenario]]\ntag = \"t\"\ntrace = { kind = \"synergy\", num_jobs = 2 }\n\
                   [[scenario]]\ntag = \"t\"\ntrace = { kind = \"synergy\", num_jobs = 2 }\n";
        let err = build_campaign(
            &parse_campaign_str(dup, "<inline>").unwrap(),
            &r,
            Path::new("."),
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate cell tag"), "{err}");
    }

    #[test]
    fn json_campaigns_parse_too() {
        let src = r#"{
  // comments work in our JSON dialect
  "cluster": {"nodes": 1, "gpus_per_node": 4},
  "scenario": [{"tag": "j", "trace": {"kind": "synergy", "num_jobs": 3}}],
  "policy": ["random"]
}"#;
        let file = parse_campaign_str(src, "<inline>").expect("json parse");
        assert_eq!(file.scenario[0].tag, "j");
        let campaign = build_campaign(&file, &Registry::with_builtins(), Path::new(".")).unwrap();
        assert_eq!(campaign.num_cells(), 1);
    }

    #[test]
    fn scenario_validation_happens_at_build() {
        // A serving deployment demanding more GPUs than the cluster is a
        // Scenario::validate error; the campaign builder must surface it
        // with the tag, before any cell runs.
        let src = "policy = [\"random\"]\n\
                   [cluster]\nnodes = 1\ngpus_per_node = 2\n\
                   [[scenario]]\ntag = \"big\"\n\
                   serving = [ { workload = { name = \"chat\", arrivals = { Poisson = \
                   { rate_per_s = 2.0 } }, num_requests = 10, work_median_s = 0.05, \
                   work_sigma = 0.0, slo_s = 1.0, seed = 1 }, replicas = 2, \
                   gpus_per_replica = 4 } ]\n";
        let err = build_campaign(
            &parse_campaign_str(src, "<inline>").unwrap(),
            &Registry::with_builtins(),
            Path::new("."),
        )
        .unwrap_err();
        match &err {
            ConfigError::Scenario { tag, .. } => assert_eq!(tag, "big"),
            other => panic!("expected scenario error, got {other}"),
        }
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn policy_name_and_sticky_overrides_apply() {
        let src = "[cluster]\nnodes = 2\ngpus_per_node = 4\n\
                   [[scenario]]\ntag = \"t\"\ntrace = { kind = \"synergy\", num_jobs = 4 }\n\
                   [[policy]]\nkind = \"random\"\nname = \"Random-2\"\nsticky = true\n";
        let results = build_campaign(
            &parse_campaign_str(src, "<inline>").unwrap(),
            &Registry::with_builtins(),
            Path::new("."),
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(results[0].policy, "Random-2");
    }

    #[test]
    fn generator_ref_param_builder_roundtrips() {
        let r = GeneratorRef::new("synergy").param("num_jobs", Value::Int(12));
        let file = CampaignFile {
            campaign: None,
            cluster: pal_cluster::ClusterTopology {
                nodes: 1,
                gpus_per_node: 4,
            },
            locality: None,
            profile: None,
            truth: None,
            scheduler: None,
            admission: None,
            trace: Some(r),
            sim: None,
            scenario: vec![],
            policy: vec![],
        };
        let text = crate::toml::write_toml(&serde::Serialize::to_value(&file)).unwrap();
        let back = parse_campaign_str(&text, "<inline>").unwrap();
        assert_eq!(back, file);
    }
}
