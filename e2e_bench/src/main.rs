//! End-to-end campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!     [--golden <file>] [--record]
//! ```
//!
//! Generates the workload's campaign file from the seed, then repeats
//! the path `palsim run` / `palsim what-if` takes through the public API
//! (`load_campaign_file` → `build_campaign` → `Campaign::run_with_sink`
//! or `Campaign::what_if` → spill, metrics, state files and results on
//! disk) until `--seconds` have passed, and reports medians. Every cell
//! of every repetition is checked: its outcome digest must equal the
//! digest recorded under `golden/` (default seed) or that of a
//! fixed-round reference run (any other seed). The last stdout line is
//! one JSON object; the exit code is non-zero when any check failed.
//!
//! `--trace 1` alternates untraced and traced repetitions and reports
//! the per-layer split measured by the wrappers in `probe` and
//! `registry`. `--record` rewrites the golden digests from a fixed-round
//! reference run; `--golden` reads them from another file.

mod check;
mod probe;
mod registry;
mod sys;
mod workloads;

use check::CellDigest;
use pal_config::{
    build_campaign, load_campaign_file, load_state, render_chain, save_state, spilled_results,
    MetricsDir, SpillSink,
};
use pal_sim::{fork_digest, Campaign, CampaignResult, CampaignRunStats, MemorySink, ResultSink};
use probe::{Layers, ProbeSink, TimedSink};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workloads::{Drive, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--golden <file>] [--record]";

/// Medians need a few samples even when one repetition outlasts
/// `--seconds`.
const MIN_REPETITIONS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    golden: Option<PathBuf>,
    record: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut golden = None;
    let mut record = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("flag {flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--golden" => golden = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if record && seed != Some(DEFAULT_SEED) {
        return Err(format!("--record records the default seed, {DEFAULT_SEED}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        golden,
        record,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("e2e_bench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::workload(&args.workload, args.seed) else {
        eprintln!(
            "e2e_bench: unknown workload `{}` (known: {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("run")
        .join(format!("{}-{}", w.name, std::process::id()));
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))
        .and_then(|()| measure(&args, &w, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("e2e_bench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// An error and its causes on one line, as `palsim` prints them.
fn render(e: impl std::error::Error) -> String {
    render_chain(&e)
}

/// Sim-side outcome totals of one repetition: deterministic per seed.
#[derive(Debug, Default, Clone)]
struct SimTotals {
    jobs: u64,
    requests: u64,
    jct_gain: f64,
    utilization: f64,
    slo_attainment: f64,
}

fn sim_totals(results: &[CampaignResult]) -> SimTotals {
    let jobs = results.iter().map(|c| c.result.records.len() as u64).sum();
    let requests = results
        .iter()
        .flat_map(|c| &c.result.serving)
        .map(|s| s.requests)
        .sum();
    let mut tiresias_jct: BTreeMap<&str, f64> = BTreeMap::new();
    let mut gains = Vec::new();
    let mut utilizations = Vec::new();
    let (mut pal_met, mut pal_requests) = (0u64, 0u64);
    for c in results {
        if c.policy == "Tiresias" && !c.result.records.is_empty() {
            tiresias_jct.insert(&c.scenario, c.result.avg_jct());
        }
    }
    for c in results.iter().filter(|c| c.policy == "PAL") {
        if let Some(t) = tiresias_jct.get(c.scenario.as_str()) {
            gains.push(t / c.result.avg_jct());
        }
        utilizations.push(c.result.utilization());
        for s in &c.result.serving {
            pal_met += s.slo_attained;
            pal_requests += s.requests;
        }
    }
    SimTotals {
        jobs,
        requests,
        jct_gain: sys::geomean(&gains),
        utilization: sys::geomean(&utilizations),
        slo_attainment: if pal_requests == 0 {
            0.0
        } else {
            pal_met as f64 / pal_requests as f64
        },
    }
}

/// What one pass over the workload produced.
struct Repetition {
    wall_s: f64,
    setup_s: f64,
    cpu_s: f64,
    cells: Vec<CellDigest>,
    /// Fork states that did not reload to their digest.
    failed: usize,
    sim: SimTotals,
    /// Per-layer metrics; traced repetitions only.
    layers: BTreeMap<String, f64>,
}

/// Host timings of the traced seams that are direct calls.
#[derive(Default)]
struct Calls {
    parse_s: f64,
    build_s: f64,
    run_s: f64,
    run_end: Option<Instant>,
    stats: Option<CampaignRunStats>,
    spill_read_s: f64,
    output_write_s: f64,
    whatif: Option<WhatIfSplit>,
}

/// Engine work of a what-if, read from its results: `Campaign::what_if`
/// attaches no metrics sink, so the probe sees none of it.
#[derive(Default)]
struct WhatIfSplit {
    start: Option<Instant>,
    s: f64,
    prefix_rounds: u64,
    steps: u64,
    sim_rounds: u64,
    placement_s: f64,
    placement_decisions: u64,
    placement_by_column: BTreeMap<String, f64>,
    preemptions: u64,
    migrations: u64,
    save_s: f64,
    load_s: f64,
    digest_s: f64,
    state_bytes: u64,
}

fn run_with(
    campaign: &Campaign,
    sink: &dyn ResultSink,
    layers: Option<&Mutex<Layers>>,
    calls: &mut Calls,
) -> Result<(), String> {
    let start = Instant::now();
    let stats = match layers {
        Some(layers) => campaign.run_with_sink(&TimedSink {
            inner: sink,
            layers,
        }),
        None => campaign.run_with_sink(sink),
    }
    .map_err(render)?;
    let end = Instant::now();
    calls.run_s = (end - start).as_secs_f64();
    calls.run_end = Some(end);
    calls.stats = Some(stats);
    Ok(())
}

fn write_results_csv(path: &Path, results: &[CampaignResult]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "scenario,policy,seed,jobs,avg_jct_s,p99_jct_s,makespan_s,\
         utilization,occupancy,migrations,rounds"
    )?;
    for r in results {
        let jct = if r.result.records.is_empty() {
            ",".into()
        } else {
            format!("{:.3},{:.3}", r.result.avg_jct(), r.result.p99_jct())
        };
        writeln!(
            out,
            "{},{},{},{},{},{:.3},{:.5},{:.5},{},{}",
            r.scenario,
            r.policy,
            r.seed,
            r.result.records.len(),
            jct,
            r.result.makespan(),
            r.result.utilization(),
            r.result.occupancy(),
            r.result.total_migrations(),
            r.result.rounds,
        )?;
    }
    out.flush()
}

/// One pass: config file to every output on disk. With `traced`, every
/// seam is wrapped and the per-layer split is returned too.
fn repetition(w: &Workload, config: &Path, out: &Path, traced: bool) -> Result<Repetition, String> {
    let _ = std::fs::remove_dir_all(out);
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let layers = Arc::new(Mutex::new(Layers::default()));
    let registry = if traced {
        registry::traced_registry(&layers)
    } else {
        registry::bench_registry()
    };
    let probe = traced.then_some(&*layers);
    let base_dir = config.parent().unwrap_or(Path::new("."));
    let mut calls = Calls::default();
    let mut results = Vec::new();
    let mut failed = 0;

    let cpu_start = sys::cpu_seconds();
    let start = Instant::now();
    let file = load_campaign_file(config).map_err(render)?;
    let parsed = Instant::now();
    let mut campaign = build_campaign(&file, &registry, base_dir).map_err(render)?;
    let built = Instant::now();
    calls.parse_s = (parsed - start).as_secs_f64();
    calls.build_s = (built - parsed).as_secs_f64();

    let metrics = match w.metrics {
        true => Some(MetricsDir::create(out.join("metrics")).map_err(|e| e.to_string())?),
        false => None,
    };
    if traced {
        let metrics = metrics.clone();
        let layers = Arc::clone(&layers);
        campaign = campaign.metrics_sinks(move |cell| {
            let inner = metrics.as_ref().and_then(|m| m.sink_for(cell));
            Some(Box::new(ProbeSink::new(
                inner,
                cell.policy.clone(),
                Arc::clone(&layers),
            )))
        });
    } else if let Some(metrics) = metrics.clone() {
        campaign = campaign.metrics_sinks(move |cell| metrics.sink_for(cell));
    }

    match w.drive {
        Drive::Run if w.spill => {
            let dir = out.join("spill");
            let sink = SpillSink::create(&dir, &campaign).map_err(render)?;
            let copy_start = Instant::now();
            std::fs::copy(config, dir.join("campaign.toml"))
                .map_err(|e| format!("cannot copy the config into the spill: {e}"))?;
            calls.output_write_s += copy_start.elapsed().as_secs_f64();
            run_with(&campaign, &sink, probe, &mut calls)?;
            drop(sink);
            let read_start = Instant::now();
            // A spill that does not read back leaves every cell missing,
            // which the digest check counts.
            match spilled_results(&dir, &campaign) {
                Ok(r) => results = r,
                Err(e) => eprintln!("e2e_bench: spill read-back failed: {}", render(e)),
            }
            calls.spill_read_s = read_start.elapsed().as_secs_f64();
        }
        Drive::Run => {
            let sink = MemorySink::new(campaign.num_cells());
            run_with(&campaign, &sink, probe, &mut calls)?;
            results = sink.into_results().into_iter().flatten().collect();
        }
        Drive::WhatIf { fork_at } => {
            let mut split = WhatIfSplit::default();
            let whatif_start = Instant::now();
            let report = campaign.what_if(fork_at).map_err(render)?;
            split.start = Some(whatif_start);
            split.s = whatif_start.elapsed().as_secs_f64();
            for sc in report.scenarios {
                let path = out.join(format!("{}.state.json", sc.scenario));
                let save_start = Instant::now();
                save_state(&path, &sc.fork_state).map_err(render)?;
                let saved = Instant::now();
                let state = load_state(&path).map_err(render)?;
                let loaded = Instant::now();
                let digest = fork_digest(&state);
                let digested = Instant::now();
                if digest != sc.prefix_digest {
                    eprintln!(
                        "e2e_bench: {}: reloaded fork state digests to {digest:016x}, \
                         what-if reported {:016x}",
                        sc.scenario, sc.prefix_digest
                    );
                    failed += 1;
                }
                if traced {
                    split.save_s += (saved - save_start).as_secs_f64();
                    split.load_s += (loaded - saved).as_secs_f64();
                    split.digest_s += (digested - loaded).as_secs_f64();
                    split.state_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
                    split.add_scenario(&sc.fork_state, &sc.branches);
                }
                results.extend(sc.branches);
            }
            calls.whatif = Some(split);
        }
    }
    if let Some(err) = metrics.as_ref().and_then(MetricsDir::first_error) {
        return Err(format!("metrics incomplete: {err}"));
    }
    let csv_start = Instant::now();
    write_results_csv(&out.join("results.csv"), &results)
        .map_err(|e| format!("cannot write results.csv: {e}"))?;
    let end = Instant::now();
    calls.output_write_s += (end - csv_start).as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu_start;

    let layer_metrics = if traced {
        let l = layers.lock().expect("layer probe lock");
        layer_split(w, &campaign, &l, &calls, out)
    } else {
        BTreeMap::new()
    };
    Ok(Repetition {
        wall_s: (end - start).as_secs_f64(),
        setup_s: (built - start).as_secs_f64(),
        cpu_s,
        cells: check::digests(&results),
        failed,
        sim: sim_totals(&results),
        layers: layer_metrics,
    })
}

impl WhatIfSplit {
    /// Count the shared prefix once and each branch's work after the
    /// fork: branch results carry the prefix's rounds and placement
    /// times, since the fork state restores them.
    fn add_scenario(&mut self, fork: &pal_sim::SimState, branches: &[CampaignResult]) {
        let prefix_times = &fork.placement_compute_times;
        self.prefix_rounds += fork.rounds as u64;
        self.steps += fork.executed_rounds as u64;
        self.sim_rounds += fork.rounds as u64;
        self.placement_s += prefix_times.iter().sum::<f64>();
        self.placement_decisions += prefix_times.len() as u64;
        for b in branches {
            let r = &b.result;
            self.steps += r.executed_rounds.saturating_sub(fork.executed_rounds) as u64;
            self.sim_rounds += r.rounds.saturating_sub(fork.rounds) as u64;
            let own = &r.placement_compute_times
                [prefix_times.len().min(r.placement_compute_times.len())..];
            let own_s: f64 = own.iter().sum();
            self.placement_s += own_s;
            self.placement_decisions += own.len() as u64;
            *self
                .placement_by_column
                .entry(b.policy.clone())
                .or_default() += own_s;
            self.preemptions += r.records.iter().map(|j| j.preemptions as u64).sum::<u64>();
            self.migrations += r.records.iter().map(|j| j.migrations as u64).sum::<u64>();
        }
    }
}

/// The policy columns every workload runs; the engine split per column
/// covers these.
const SPLIT_COLUMNS: [&str; 3] = ["tiresias", "pm-first", "pal"];

/// Every per-layer metric with its unit, in report order.
fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("config.parse_s", "s"),
        ("config.build_s", "s"),
        ("trace.gen_s", "s"),
        ("trace.jobs", "count"),
        ("profile.synth_s", "s"),
        ("pal.policy_build_s", "s"),
        ("pal.table_builds", "count"),
        ("campaign.run_s", "s"),
        ("campaign.workers", "count"),
        ("campaign.steals", "count"),
        ("campaign.cells_timed", "count"),
        ("campaign.cell_p50_s", "s"),
        ("campaign.cell_tail_s", "s"),
        ("campaign.cell_tail_pct", "%"),
        ("campaign.idle_s", "s"),
        ("engine.steps", "count"),
        ("engine.sim_rounds", "count"),
        ("engine.skip_ratio", "ratio"),
        ("engine.step_s", "s"),
        ("engine.step_p50_us", "us"),
        ("engine.step_p99_us", "us"),
        ("engine.self_s", "s"),
        ("engine.accrual_events", "count"),
        ("engine.preemptions", "count"),
        ("engine.migrations", "count"),
        ("placement.s", "s"),
        ("placement.decisions", "count"),
        ("placement.us_per_decision", "us"),
        ("placement.share", "ratio"),
        ("serving.requests", "count"),
        ("serving.batches", "count"),
        ("serving.batch_mean", "count"),
        ("serving.slo_met", "count"),
        ("spill.write_s", "s"),
        ("spill.read_s", "s"),
        ("spill.bytes", "bytes"),
        ("metrics.write_s", "s"),
        ("metrics.events", "count"),
        ("metrics.bytes", "bytes"),
        ("output.write_s", "s"),
        ("whatif.s", "s"),
        ("whatif.prefix_s", "s"),
        ("whatif.prefix_rounds", "count"),
        ("state.save_s", "s"),
        ("state.load_s", "s"),
        ("state.digest_s", "s"),
        ("state.bytes", "bytes"),
        ("bench.trace_overhead", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for kind in SPLIT_COLUMNS {
        names.push((format!("engine.step_s.{kind}"), "s"));
        names.push((format!("engine.self_s.{kind}"), "s"));
        names.push((format!("placement.s.{kind}"), "s"));
    }
    names
}

/// Assemble one traced repetition's per-layer metrics.
fn layer_split(
    w: &Workload,
    campaign: &Campaign,
    l: &Layers,
    calls: &Calls,
    out: &Path,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    set("config.parse_s", calls.parse_s);
    set("config.build_s", calls.build_s);
    set("trace.gen_s", l.trace_gen_s);
    set("trace.jobs", l.trace_jobs as f64);
    set("profile.synth_s", l.profile_synth_s);
    set("pal.policy_build_s", l.policy_build_s);
    set("pal.table_builds", l.table_builds as f64);
    set("output.write_s", calls.output_write_s);

    // Policy builds mark when each cell (or what-if branch) started.
    let cells = campaign.cells();
    let cell_of_seed: BTreeMap<u64, usize> = cells.iter().map(|c| (c.seed, c.index)).collect();
    let column_step: BTreeMap<String, f64>;
    let column_placement: BTreeMap<String, f64>;
    let mut cell_s = Vec::new();

    if let Some(split) = &calls.whatif {
        // Branch spans: from one branch's policy build to the next, the
        // last ending when `what_if` returned. Each includes the branch's
        // in-memory state import and digest check.
        let start = split.start.expect("what-if start recorded");
        let end = start + std::time::Duration::from_secs_f64(split.s);
        let branch_starts: Vec<(u64, Instant)> = l
            .policy_calls
            .iter()
            .copied()
            .filter(|&(seed, t)| t >= start && cell_of_seed.contains_key(&seed))
            .collect();
        let mut steps = BTreeMap::new();
        for (i, &(seed, t)) in branch_starts.iter().enumerate() {
            let next = branch_starts.get(i + 1).map_or(end, |&(_, n)| n);
            let span = (next - t).as_secs_f64();
            cell_s.push(span);
            let policy = &cells[cell_of_seed[&seed]].policy;
            *steps.entry(policy.clone()).or_insert(0.0) += span;
        }
        let prefix_s = branch_starts
            .first()
            .map_or(split.s, |&(_, t)| (t - start).as_secs_f64());
        column_step = steps;
        column_placement = split.placement_by_column.clone();
        set("campaign.run_s", split.s);
        set("campaign.workers", 1.0);
        set("campaign.steals", 0.0);
        set("campaign.idle_s", 0.0);
        set("engine.steps", split.steps as f64);
        set("engine.sim_rounds", split.sim_rounds as f64);
        set("engine.step_s", split.s);
        set("engine.preemptions", split.preemptions as f64);
        set("engine.migrations", split.migrations as f64);
        set("placement.s", split.placement_s);
        set("placement.decisions", split.placement_decisions as f64);
        set("whatif.s", split.s);
        set("whatif.prefix_s", prefix_s);
        set("whatif.prefix_rounds", split.prefix_rounds as f64);
        set("state.save_s", split.save_s);
        set("state.load_s", split.load_s);
        set("state.digest_s", split.digest_s);
        set("state.bytes", split.state_bytes as f64);
    } else {
        let stats = calls.stats.as_ref().expect("run stats recorded");
        let run_end = calls.run_end.expect("run end recorded");
        let mut last_done: HashMap<std::thread::ThreadId, Instant> = HashMap::new();
        for &(seed, t) in &l.policy_calls {
            let Some(&cell) = cell_of_seed.get(&seed) else {
                continue; // the eager validation build inside build_campaign
            };
            if let Some(&(done, thread)) = l.cell_done.get(&cell) {
                cell_s.push((done - t).as_secs_f64());
                let last = last_done.entry(thread).or_insert(done);
                *last = (*last).max(done);
            }
        }
        let idle_workers = stats.workers.saturating_sub(last_done.len()) as f64 * calls.run_s;
        let idle: f64 = last_done
            .values()
            .map(|&t| (run_end - t).as_secs_f64())
            .sum::<f64>()
            + idle_workers;
        column_step = l
            .columns
            .iter()
            .map(|(k, c)| (k.clone(), c.step_s))
            .collect();
        column_placement = l
            .columns
            .iter()
            .map(|(k, c)| (k.clone(), c.placement_s))
            .collect();
        set("campaign.run_s", calls.run_s);
        set("campaign.workers", stats.workers as f64);
        set("campaign.steals", stats.steals as f64);
        set("campaign.idle_s", idle);
        set("engine.steps", l.steps as f64);
        set("engine.sim_rounds", l.sim_rounds as f64);
        set("engine.step_s", l.columns.values().map(|c| c.step_s).sum());
        set(
            "engine.step_p50_us",
            sys::quantile(&l.step_durations, 0.5) * 1e6,
        );
        set(
            "engine.step_p99_us",
            sys::quantile(&l.step_durations, 0.99) * 1e6,
        );
        set("engine.accrual_events", l.accrual_events as f64);
        set("engine.preemptions", l.preemptions as f64);
        set("engine.migrations", l.migrations as f64);
        set(
            "placement.s",
            l.columns.values().map(|c| c.placement_s).sum(),
        );
        set("placement.decisions", l.placement_decisions as f64);
        set("serving.requests", l.serving_requests as f64);
        set("serving.batches", l.serving_batches as f64);
        set(
            "serving.batch_mean",
            if l.serving_batches == 0 {
                0.0
            } else {
                l.serving_requests as f64 / l.serving_batches as f64
            },
        );
        set("serving.slo_met", l.serving_slo_met as f64);
        if w.spill {
            set("spill.write_s", l.spill_write_s);
            set("spill.read_s", calls.spill_read_s);
            set("spill.bytes", sys::dir_bytes(&out.join("spill")) as f64);
        }
        if w.metrics {
            set("metrics.write_s", l.metrics_write_s);
            set("metrics.events", l.metrics_events as f64);
            set("metrics.bytes", sys::dir_bytes(&out.join("metrics")) as f64);
        }
    }

    let tail = sys::tail_quantile(cell_s.len());
    set("campaign.cells_timed", cell_s.len() as f64);
    set("campaign.cell_p50_s", sys::quantile(&cell_s, 0.5));
    set("campaign.cell_tail_s", sys::quantile(&cell_s, tail));
    set("campaign.cell_tail_pct", tail * 100.0);

    for (display, step_s) in &column_step {
        let Some(kind) = registry::column_kind(display).filter(|k| SPLIT_COLUMNS.contains(k))
        else {
            continue;
        };
        let placement_s = column_placement.get(display).copied().unwrap_or(0.0);
        set(&format!("engine.step_s.{kind}"), *step_s);
        set(&format!("engine.self_s.{kind}"), step_s - placement_s);
        set(&format!("placement.s.{kind}"), placement_s);
    }
    let step_s = m.get("engine.step_s").copied().unwrap_or(0.0);
    let steps = m.get("engine.steps").copied().unwrap_or(0.0);
    let placement_s = m.get("placement.s").copied().unwrap_or(0.0);
    let decisions = m.get("placement.decisions").copied().unwrap_or(0.0);
    let sim_rounds = m.get("engine.sim_rounds").copied().unwrap_or(0.0);
    m.insert("engine.self_s".into(), step_s - placement_s);
    m.insert(
        "engine.skip_ratio".into(),
        if steps > 0.0 { sim_rounds / steps } else { 0.0 },
    );
    m.insert(
        "placement.us_per_decision".into(),
        if decisions > 0.0 {
            placement_s / decisions * 1e6
        } else {
            0.0
        },
    );
    m.insert(
        "placement.share".into(),
        if step_s > 0.0 {
            placement_s / step_s
        } else {
            0.0
        },
    );
    m
}

/// Cell digests of a fixed-round (`event_driven = false`) run of the
/// same campaign: the reference oracle the engine modes are held to.
fn reference_digests(w: &Workload, dir: &Path) -> Result<Vec<CellDigest>, String> {
    let path = dir.join("reference.toml");
    std::fs::write(&path, format!("{}\n[sim]\nevent_driven = false\n", w.toml))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let file = load_campaign_file(&path).map_err(render)?;
    let campaign = build_campaign(&file, &registry::bench_registry(), dir).map_err(render)?;
    let results = match w.drive {
        Drive::Run => campaign.run().map_err(render)?,
        Drive::WhatIf { fork_at } => campaign
            .what_if(fork_at)
            .map_err(render)?
            .scenarios
            .into_iter()
            .flat_map(|s| s.branches)
            .collect(),
    };
    Ok(check::digests(&results))
}

/// JSON number for a measured value (JSON has no NaN or infinity).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn measure(args: &Args, w: &Workload, dir: &Path) -> Result<bool, String> {
    let config = dir.join("campaign.toml");
    std::fs::write(&config, &w.toml)
        .map_err(|e| format!("cannot write {}: {e}", config.display()))?;
    let out = dir.join("out");
    eprintln!("e2e_bench: {} (seed {}): {}", w.name, args.seed, w.why);

    let start = Instant::now();
    let mut plain: Vec<Repetition> = Vec::new();
    let mut traced: Vec<Repetition> = Vec::new();
    let mut errors = 0;
    'measure: while plain.len() < MIN_REPETITIONS || start.elapsed().as_secs_f64() < args.seconds {
        for (is_traced, reps) in [(false, &mut plain), (true, &mut traced)] {
            if is_traced && !args.trace {
                continue;
            }
            match repetition(w, &config, &out, is_traced) {
                Ok(rep) => {
                    eprintln!(
                        "e2e_bench: {} repetition {}: wall {:.4} s, setup {:.4} s",
                        if is_traced { "traced" } else { "untraced" },
                        reps.len() + 1,
                        rep.wall_s,
                        rep.setup_s
                    );
                    reps.push(rep);
                }
                Err(msg) => {
                    eprintln!("e2e_bench: repetition failed: {msg}");
                    errors += 1;
                    break 'measure;
                }
            }
        }
    }
    let peak_rss_mb = sys::peak_rss_mb();
    let _ = std::fs::remove_dir_all(&out);

    let golden = args.golden.clone().unwrap_or_else(|| {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("{}.tsv", w.name))
    });
    let expected = if args.record || args.seed != DEFAULT_SEED {
        reference_digests(w, dir)?
    } else {
        check::read_golden(&golden)?
    };
    if args.record {
        check::write_golden(&golden, &expected)
            .map_err(|e| format!("cannot write {}: {e}", golden.display()))?;
        eprintln!(
            "e2e_bench: recorded {} cell digests to {}",
            expected.len(),
            golden.display()
        );
    }
    // Every repetition attempts every cell; one that errored fails them all.
    let attempted = (plain.len() + traced.len() + errors) * expected.len();
    let failed = errors * expected.len()
        + plain
            .iter()
            .chain(&traced)
            .map(|rep| check::mismatches(&rep.cells, &expected) + rep.failed)
            .sum::<usize>();
    let correct = failed == 0 && attempted > 0;

    let wall: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let traced_wall: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
        for (name, unit) in per_layer_catalog() {
            let value = if name == "bench.trace_overhead" {
                sys::median(&traced_wall) / sys::median(&wall)
            } else {
                let v: Vec<f64> = traced
                    .iter()
                    .map(|r| r.layers.get(&name).copied().unwrap_or(0.0))
                    .collect();
                sys::median(&v)
            };
            metrics.push((name, value, unit));
        }
        if matches!(w.drive, Drive::WhatIf { .. }) {
            println!(
                "unmeasured on {}: engine.step_p50_us, engine.step_p99_us, \
                 engine.accrual_events and serving.* (Campaign::what_if attaches no metrics \
                 sink, so no engine event reaches the probe); engine counts and placement \
                 come from the branch results, step time from policy-build timestamps",
                w.name
            );
        }
    } else {
        let of = |f: fn(&Repetition) -> f64| sys::median(&plain.iter().map(f).collect::<Vec<_>>());
        let sim = plain.first().map(|r| r.sim.clone()).unwrap_or_default();
        metrics.push(("wall_s".into(), of(|r| r.wall_s), "s"));
        metrics.push(("setup_s".into(), of(|r| r.setup_s), "s"));
        metrics.push(("cpu_s".into(), of(|r| r.cpu_s), "s"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb, "MiB"));
        metrics.push((
            "sim_jobs_per_s".into(),
            of(|r| r.sim.jobs as f64 / (r.wall_s - r.setup_s)),
            "jobs/s",
        ));
        // Printed, not in the JSON: zero on some workloads, or too
        // seed-dependent to bound (each seed is another trace).
        println!("pal_jct_gain = {} ratio", sim.jct_gain);
        println!("pal_utilization = {} ratio", sim.utilization);
        println!("cells = {} count (per repetition)", expected.len());
        println!("cells_failed = {failed} count (over {attempted} attempted)");
        if sim.requests > 0 {
            println!(
                "sim_requests_per_s = {} req/s",
                of(|r| r.sim.requests as f64 / (r.wall_s - r.setup_s))
            );
            println!("pal_slo_attainment = {} ratio", sim.slo_attainment);
        }
    }
    println!(
        "repetitions = {} untraced, {} traced, over {:.1} s",
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    for (name, value, unit) in &metrics {
        println!("{name} = {} {unit}", json_num(*value));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}
