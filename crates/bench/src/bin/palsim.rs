//! `palsim` — command-line driver for simulations.
//!
//! Four subcommands:
//!
//! ```text
//! palsim run <campaign.toml|.json> [--csv] [--spill <dir>] [--metrics <dir>]
//! palsim what-if <campaign.toml|.json> --fork-at <seconds> [--csv] [--export <dir>]
//! palsim resume <spill-dir> [--csv]
//! palsim check <file-or-dir> [...]
//! ```
//!
//! `run` executes a declarative campaign file (see `configs/` for
//! commented examples and the README for the format reference); with
//! `--spill <dir>` each completed cell is streamed to `<dir>/results.jsonl`
//! under a digest-carrying manifest (bounded memory, crash-safe), and a
//! copy of the config lands in the directory so `resume` can rebuild the
//! campaign; with `--metrics <dir>` every cell streams its job-lifecycle
//! events (JSONL) and per-round table (CSV) to files as it runs, via the
//! engine's metrics-sink observer. `what-if` runs each scenario once up
//! to the fork time under its own placement, then replays the suffix from
//! that frozen state once per policy column — the counterfactual "what
//! would each policy do from *here*" — printing fork diagnostics (time,
//! rounds, state digest) to stderr and branch results to stdout;
//! `--export <dir>` also writes each scenario's fork state as a
//! versioned canonical-JSON state file. `resume` picks an interrupted
//! spill back up, re-running only the never-completed cells — the final
//! output is byte-identical to an uninterrupted run. `check` parses and
//! validates files — or every `.toml`/`.json` in a directory — without
//! running any cell. Bad arguments and invalid configs exit 2 with a
//! one-line diagnostic (`file:line:col: message` for syntax errors, with
//! a `caused by:` chain for wrapped errors); runtime simulation failures
//! exit 1. A bare `palsim` or an unknown subcommand prints the usage and
//! exits 2. Results go to stdout; progress (cell and worker counts) goes
//! to stderr, so piped CSV stays clean.
//!
//! Examples:
//!
//! ```text
//! palsim run configs/paper_sweep.toml --csv
//! palsim run configs/paper_sweep.toml --spill out/sweep --metrics out/metrics
//! palsim what-if configs/paper_sweep.toml --fork-at 86400 --csv
//! palsim resume out/sweep --csv
//! palsim check configs/
//! ```

use pal_bench::{longhorn_profile, LONGHORN_MEASURED_GPUS, PROFILE_SEED};
use pal_config::{
    campaign_from_path, render_chain, resume_spilled, save_state, spilled_config, spilled_results,
    ConfigError, MetricsDir, Registry, SpillSink,
};
use pal_sim::{CampaignResult, MemorySink};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: palsim run <campaign.toml|.json> [--csv] [--spill <dir>] [--metrics <dir>]
       palsim what-if <campaign.toml|.json> --fork-at <seconds> [--csv] [--export <dir>]
       palsim resume <spill-dir> [--csv]
       palsim check <campaign-file-or-dir> [...]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(|s| s.as_str()) {
        Some("run") => cmd_run(&argv[1..]),
        Some("what-if") => cmd_what_if(&argv[1..]),
        Some("resume") => cmd_resume(&argv[1..]),
        Some("check") => cmd_check(&argv[1..]),
        Some(other) if other != "--help" && other != "-h" => {
            eprintln!("palsim: unknown subcommand `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The CLI's registry: every builtin family plus the paper's Longhorn
/// profile, registered here (not inside `pal-config`) — the intended
/// pattern for downstream workload families.
fn cli_registry() -> Registry {
    let mut registry = Registry::with_builtins();
    registry.register_profile("longhorn", |args, ctx| {
        let seed = args.get_or("seed", PROFILE_SEED)?;
        // The profile samples per-GPU scores without repetition from the
        // measured cluster, so it cannot cover a larger one.
        if ctx.gpus > LONGHORN_MEASURED_GPUS {
            return Err(ConfigError::BadParam {
                context: args.context().to_string(),
                message: format!(
                    "the Longhorn profile covers at most {LONGHORN_MEASURED_GPUS} GPUs \
                     (the measured cluster), got a {}-GPU cluster",
                    ctx.gpus
                ),
            });
        }
        Ok(longhorn_profile(ctx.gpus, seed))
    });
    registry
}

const RUN_USAGE: &str =
    "usage: palsim run <campaign.toml|.json> [--csv] [--spill <dir>] [--metrics <dir>]";

fn cmd_run(argv: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut csv = false;
    let mut spill: Option<PathBuf> = None;
    let mut metrics_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--csv" => csv = true,
            "--spill" => {
                i += 1;
                match argv.get(i) {
                    Some(dir) => spill = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("palsim run: --spill needs a directory\n{RUN_USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--metrics" => {
                i += 1;
                match argv.get(i) {
                    Some(dir) => metrics_dir = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("palsim run: --metrics needs a directory\n{RUN_USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!("{RUN_USAGE}");
                return ExitCode::from(2);
            }
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => {
                eprintln!("palsim run: unexpected argument `{other}`\n{RUN_USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let Some(path) = path else {
        eprintln!("{RUN_USAGE}");
        return ExitCode::from(2);
    };
    let mut campaign = match campaign_from_path(path, &cli_registry()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("palsim: {}", render_chain(&e));
            return ExitCode::from(2);
        }
    };
    if campaign.num_cells() == 0 {
        eprintln!("palsim: {path}: campaign has no cells (no scenarios)");
        return ExitCode::from(2);
    }
    // Live per-cell event/round streaming through the engine's sink path.
    let metrics = match metrics_dir {
        Some(dir) => match MetricsDir::create(&dir) {
            Ok(metrics) => {
                let factory = metrics.clone();
                campaign = campaign.metrics_sinks(move |cell| factory.sink_for(cell));
                Some(metrics)
            }
            Err(e) => {
                eprintln!("palsim: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let results = if let Some(dir) = spill {
        match run_spill(path, &campaign, &dir) {
            Ok(r) => r,
            Err(code) => return code,
        }
    } else {
        let sink = MemorySink::new(campaign.num_cells());
        match campaign.run_with_sink(&sink) {
            Ok(stats) => report_stats(&stats),
            Err(e) => {
                eprintln!("palsim: campaign failed: {}", render_chain(&e));
                return ExitCode::FAILURE;
            }
        }
        sink.into_results()
            .into_iter()
            .map(|slot| slot.expect("every cell completed without error"))
            .collect()
    };
    if let Some(err) = metrics.as_ref().and_then(MetricsDir::first_error) {
        eprintln!("palsim: metrics incomplete: {err}");
        return ExitCode::FAILURE;
    }
    output_results(&results, csv);
    ExitCode::SUCCESS
}

/// `palsim run --spill`: create the spill, copy the config file into it
/// (so `resume` can rebuild the campaign), and stream-run the grid.
fn run_spill(
    config_path: &str,
    campaign: &pal_sim::Campaign,
    dir: &Path,
) -> Result<Vec<CampaignResult>, ExitCode> {
    let sink = match SpillSink::create(dir, campaign) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("palsim: {}", render_chain(&e));
            return Err(ExitCode::from(2));
        }
    };
    // Byte copy, named by format: resume re-parses it exactly as run did.
    let ext = if config_path.ends_with(".json") {
        "json"
    } else {
        "toml"
    };
    let copy = dir.join(format!("campaign.{ext}"));
    if let Err(e) = std::fs::copy(config_path, &copy) {
        eprintln!(
            "palsim: cannot copy {config_path} to {}: {e}",
            copy.display()
        );
        return Err(ExitCode::from(2));
    }
    eprintln!(
        "palsim: spilling {} cells to {}",
        campaign.num_cells(),
        dir.display()
    );
    match campaign.run_with_sink(&sink) {
        Ok(stats) => report_stats(&stats),
        Err(e) => {
            eprintln!("palsim: campaign failed: {}", render_chain(&e));
            return Err(ExitCode::FAILURE);
        }
    }
    drop(sink);
    spilled_results(dir, campaign).map_err(|e| {
        eprintln!("palsim: {}", render_chain(&e));
        ExitCode::FAILURE
    })
}

const RESUME_USAGE: &str = "usage: palsim resume <spill-dir> [--csv]";

fn cmd_resume(argv: &[String]) -> ExitCode {
    let mut dir: Option<&str> = None;
    let mut csv = false;
    for arg in argv {
        match arg.as_str() {
            "--csv" => csv = true,
            "--help" | "-h" => {
                eprintln!("{RESUME_USAGE}");
                return ExitCode::from(2);
            }
            other if !other.starts_with('-') && dir.is_none() => dir = Some(other),
            other => {
                eprintln!("palsim resume: unexpected argument `{other}`\n{RESUME_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(dir) = dir.map(Path::new) else {
        eprintln!("{RESUME_USAGE}");
        return ExitCode::from(2);
    };
    let Some(config) = spilled_config(dir) else {
        eprintln!(
            "palsim: {}: no campaign.toml or campaign.json — not a spill directory?",
            dir.display()
        );
        return ExitCode::from(2);
    };
    let campaign = match campaign_from_path(&config, &cli_registry()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("palsim: {}", render_chain(&e));
            return ExitCode::from(2);
        }
    };
    match resume_spilled(&campaign, dir) {
        Ok((stats, results)) => {
            eprintln!("palsim: resumed {}:", dir.display());
            report_stats(&stats);
            output_results(&results, csv);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("palsim: {}", render_chain(&e));
            ExitCode::FAILURE
        }
    }
}

const WHAT_IF_USAGE: &str = "usage: palsim what-if <campaign.toml|.json> --fork-at <seconds> \
     [--csv] [--export <dir>]";

/// `palsim what-if`: fork every scenario of a campaign at one simulated
/// time and replay the suffix once per policy column
/// ([`pal_sim::Campaign::what_if`]). Fork diagnostics go to stderr;
/// branch results go to stdout through the same formatter `run` uses.
fn cmd_what_if(argv: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut fork_at: Option<f64> = None;
    let mut csv = false;
    let mut export: Option<PathBuf> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--csv" => csv = true,
            "--fork-at" => {
                i += 1;
                match argv.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(t) => fork_at = Some(t),
                    None => {
                        eprintln!(
                            "palsim what-if: --fork-at needs a time in seconds\n{WHAT_IF_USAGE}"
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            "--export" => {
                i += 1;
                match argv.get(i) {
                    Some(dir) => export = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("palsim what-if: --export needs a directory\n{WHAT_IF_USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!("{WHAT_IF_USAGE}");
                return ExitCode::from(2);
            }
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => {
                eprintln!("palsim what-if: unexpected argument `{other}`\n{WHAT_IF_USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let (Some(path), Some(fork_at)) = (path, fork_at) else {
        eprintln!("{WHAT_IF_USAGE}");
        return ExitCode::from(2);
    };
    let campaign = match campaign_from_path(path, &cli_registry()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("palsim: {}", render_chain(&e));
            return ExitCode::from(2);
        }
    };
    if campaign.num_cells() == 0 {
        eprintln!("palsim: {path}: campaign has no cells (no scenarios)");
        return ExitCode::from(2);
    }
    if let Some(dir) = &export {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("palsim: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let report = match campaign.what_if(fork_at) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("palsim: what-if failed: {}", render_chain(&e));
            return ExitCode::FAILURE;
        }
    };
    let mut results = Vec::new();
    for sc in report.scenarios {
        eprintln!(
            "palsim: {}: forked at t={:.0}s after {} rounds, {} branches, \
             prefix digest {:016x}",
            sc.scenario,
            sc.forked_at,
            sc.prefix_rounds,
            sc.branches.len(),
            sc.prefix_digest
        );
        if let Some(dir) = &export {
            let file = dir.join(format!("{}.state.json", sanitize_file_stem(&sc.scenario)));
            if let Err(e) = save_state(&file, &sc.fork_state) {
                eprintln!("palsim: {}", render_chain(&e));
                return ExitCode::FAILURE;
            }
            eprintln!("palsim: {}: fork state -> {}", sc.scenario, file.display());
        }
        results.extend(sc.branches);
    }
    output_results(&results, csv);
    ExitCode::SUCCESS
}

fn sanitize_file_stem(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// One implementation of the run-progress line every campaign-driving
/// mode (`run`, `run --spill`, `resume`) reports.
fn report_stats(stats: &pal_sim::CampaignRunStats) {
    if stats.cells_skipped > 0 {
        eprintln!(
            "palsim: {} cells already done, ran {} on {} workers",
            stats.cells_skipped, stats.cells_run, stats.workers
        );
    } else {
        eprintln!(
            "palsim: ran {} cells on {} workers",
            stats.cells_run, stats.workers
        );
    }
}

/// One place that picks the stdout format for campaign results.
fn output_results(results: &[CampaignResult], csv: bool) {
    if csv {
        print_csv(results);
    } else {
        print_table(results);
    }
}

fn print_csv(results: &[CampaignResult]) {
    println!(
        "scenario,policy,seed,jobs,avg_jct_s,p99_jct_s,makespan_s,\
         utilization,occupancy,migrations,rounds"
    );
    for r in results {
        // Serving-only cells have no training records; JCT columns stay
        // empty rather than inventing a number.
        let jct = if r.result.records.is_empty() {
            ",".into()
        } else {
            format!("{:.3},{:.3}", r.result.avg_jct(), r.result.p99_jct())
        };
        println!(
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
        );
    }
}

fn print_table(results: &[CampaignResult]) {
    for r in results {
        if r.result.records.is_empty() {
            // Serving-only cell: no training jobs, so no JCT stats.
            println!(
                "{:<28} {:<20} (no training jobs)  makespan {:>8.2} h",
                r.scenario,
                r.policy,
                r.result.makespan() / 3600.0,
            );
        } else {
            println!(
                "{:<28} {:<20} avg JCT {:>8.2} h  p99 {:>8.2} h  makespan {:>8.2} h  util {:.3}",
                r.scenario,
                r.policy,
                r.result.avg_jct() / 3600.0,
                r.result.p99_jct() / 3600.0,
                r.result.makespan() / 3600.0,
                r.result.utilization(),
            );
        }
        for s in &r.result.serving {
            println!(
                "{:<28} {:<20}   serving {}: goodput {:.2} req/s  \
                 SLO {:.1}%  p99 {:.0} ms",
                "",
                "",
                s.workload,
                s.goodput(),
                s.slo_attainment() * 100.0,
                s.latency_p99 * 1e3,
            );
        }
    }
}

const CHECK_USAGE: &str = "usage: palsim check <campaign-file-or-dir> [...]";

fn cmd_check(argv: &[String]) -> ExitCode {
    if argv.is_empty() || argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{CHECK_USAGE}");
        return ExitCode::from(2);
    }
    let mut files: Vec<PathBuf> = Vec::new();
    for arg in argv {
        let path = Path::new(arg);
        if path.is_dir() {
            let mut found = Vec::new();
            match std::fs::read_dir(path) {
                Ok(entries) => {
                    for entry in entries.flatten() {
                        let p = entry.path();
                        let ext = p.extension().and_then(|e| e.to_str());
                        if matches!(ext, Some("toml") | Some("json")) {
                            found.push(p);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("palsim: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            if found.is_empty() {
                eprintln!("palsim: {}: no .toml or .json files", path.display());
                return ExitCode::from(2);
            }
            found.sort();
            files.extend(found);
        } else {
            files.push(path.to_path_buf());
        }
    }
    let registry = cli_registry();
    let mut failed = false;
    for file in &files {
        match campaign_from_path(file, &registry) {
            Ok(campaign) => {
                println!("{}: OK ({} cells)", file.display(), campaign.num_cells());
            }
            Err(e) => {
                eprintln!("{}", render_chain(&e));
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pal_config::{build_campaign, parse_campaign_str};

    #[test]
    fn longhorn_profile_rejects_clusters_above_the_measured_one() {
        let build = |nodes: usize| {
            let src = format!(
                "profile = {{ kind = \"longhorn\" }}\npolicy = [\"pal\"]\n\
                 [cluster]\nnodes = {nodes}\ngpus_per_node = 4\n\
                 [[scenario]]\ntag = \"t\"\ntrace = {{ kind = \"synergy\", num_jobs = 4 }}\n"
            );
            let file = parse_campaign_str(&src, "<inline>").unwrap();
            build_campaign(&file, &cli_registry(), Path::new("."))
        };
        let Err(err) = build(625) else {
            panic!("2,500 GPUs exceed the measured cluster");
        };
        assert!(matches!(err, ConfigError::BadParam { .. }), "{err}");
        assert!(err.to_string().contains("448"), "{err}");
        assert!(build(LONGHORN_MEASURED_GPUS / 4).is_ok());
    }
}
