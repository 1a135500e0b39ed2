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
//! validates files — or every `.toml`/`.json` in a directory and its
//! subdirectories — without running any cell. Bad arguments and invalid
//! configs exit 2 with a one-line diagnostic (`file:line:col: message`
//! for syntax errors, with a `caused by:` chain for wrapped errors);
//! runtime simulation failures exit 1. A bare `palsim` or an unknown
//! subcommand prints the usage and exits 2. Results go to stdout;
//! progress (cell and worker counts) goes to stderr, so piped CSV stays
//! clean.
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

use pal_bench::{config_files, registry, write_csv};
use pal_config::{
    campaign_from_path, render_chain, resume_spilled, save_state, spilled_config, spilled_results,
    MetricsDir, SpillSink,
};
use pal_sim::{CampaignResult, MemorySink};
use std::io::Write;
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

const RUN_USAGE: &str =
    "usage: palsim run <campaign.toml|.json> [--csv] [--spill <dir>] [--metrics <dir>]";

fn cmd_run(argv: &[String]) -> ExitCode {
    let (path, flags) = match parse_args("run", RUN_USAGE, argv) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let mut campaign = match campaign_from_path(path, &registry()) {
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
    let metrics = match flags.metrics {
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
    let results = if let Some(dir) = flags.spill {
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
    output_results(&results, flags.csv);
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
    let (dir, flags) = match parse_args("resume", RESUME_USAGE, argv) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let dir = Path::new(dir);
    let Some(config) = spilled_config(dir) else {
        eprintln!(
            "palsim: {}: no campaign.toml or campaign.json — not a spill directory?",
            dir.display()
        );
        return ExitCode::from(2);
    };
    let campaign = match campaign_from_path(&config, &registry()) {
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
            output_results(&results, flags.csv);
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
    let (path, flags) = match parse_args("what-if", WHAT_IF_USAGE, argv) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let Some(fork_at) = flags.fork_at else {
        eprintln!("{WHAT_IF_USAGE}");
        return ExitCode::from(2);
    };
    let campaign = match campaign_from_path(path, &registry()) {
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
    if let Some(dir) = &flags.export {
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
        if let Some(dir) = &flags.export {
            let file = dir.join(format!("{}.state.json", sanitize_file_stem(&sc.scenario)));
            if let Err(e) = save_state(&file, &sc.fork_state) {
                eprintln!("palsim: {}", render_chain(&e));
                return ExitCode::FAILURE;
            }
            eprintln!("palsim: {}: fork state -> {}", sc.scenario, file.display());
        }
        results.extend(sc.branches);
    }
    output_results(&results, flags.csv);
    ExitCode::SUCCESS
}

/// The flags `run`, `what-if` and `resume` share: `--csv` plus the value
/// flags each one's usage line names.
#[derive(Default)]
struct Flags {
    csv: bool,
    spill: Option<PathBuf>,
    metrics: Option<PathBuf>,
    export: Option<PathBuf>,
    fork_at: Option<f64>,
}

/// The one argument parser of `run`, `what-if` and `resume`: one path
/// plus [`Flags`], where a value flag is accepted only if the
/// subcommand's `usage` line names it. `--help`, a missing path or any
/// bad argument prints the usage (after a one-line diagnostic) and
/// returns exit code 2.
fn parse_args<'a>(
    cmd: &str,
    usage: &str,
    argv: &'a [String],
) -> Result<(&'a str, Flags), ExitCode> {
    let bad = |msg: String| {
        eprintln!("palsim {cmd}: {msg}\n{usage}");
        ExitCode::from(2)
    };
    let usage_only = || {
        eprintln!("{usage}");
        ExitCode::from(2)
    };
    let mut path = None;
    let mut flags = Flags::default();
    let mut args = argv.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--csv" => flags.csv = true,
            "--fork-at" if usage.contains(arg) => {
                match args.next().and_then(|v| v.parse::<f64>().ok()) {
                    Some(t) if t.is_finite() && t >= 0.0 => flags.fork_at = Some(t),
                    _ => return Err(bad("--fork-at needs a finite time ≥ 0 in seconds".into())),
                }
            }
            "--spill" | "--metrics" | "--export" if usage.contains(arg) => {
                let Some(dir) = args.next() else {
                    return Err(bad(format!("{arg} needs a directory")));
                };
                let slot = match arg {
                    "--spill" => &mut flags.spill,
                    "--metrics" => &mut flags.metrics,
                    _ => &mut flags.export,
                };
                *slot = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => return Err(usage_only()),
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            other => return Err(bad(format!("unexpected argument `{other}`"))),
        }
    }
    path.map(|path| (path, flags)).ok_or_else(usage_only)
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
        let mut out = std::io::BufWriter::new(std::io::stdout().lock());
        write_csv(&mut out, results)
            .and_then(|()| out.flush())
            .expect("write CSV to stdout");
    } else {
        print_table(results);
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
            match config_files(path) {
                Ok(found) if !found.is_empty() => files.extend(found),
                Ok(_) => {
                    eprintln!("palsim: {}: no .toml or .json files", path.display());
                    return ExitCode::from(2);
                }
                Err(e) => {
                    eprintln!("palsim: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        } else {
            files.push(path.to_path_buf());
        }
    }
    let registry = registry();
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
    use pal_bench::LONGHORN_MEASURED_GPUS;
    use pal_config::{build_campaign, parse_campaign_str, ConfigError};

    #[test]
    fn longhorn_profile_rejects_clusters_above_the_measured_one() {
        let build = |nodes: usize| {
            let src = format!(
                "profile = {{ kind = \"longhorn\" }}\npolicy = [\"pal\"]\n\
                 [cluster]\nnodes = {nodes}\ngpus_per_node = 4\n\
                 [[scenario]]\ntag = \"t\"\ntrace = {{ kind = \"synergy\", num_jobs = 4 }}\n"
            );
            let file = parse_campaign_str(&src, "<inline>").unwrap();
            build_campaign(&file, &registry(), Path::new("."))
        };
        let Err(err) = build(625) else {
            panic!("2,500 GPUs exceed the measured cluster");
        };
        assert!(matches!(err, ConfigError::BadParam { .. }), "{err}");
        assert!(err.to_string().contains("448"), "{err}");
        assert!(build(LONGHORN_MEASURED_GPUS / 4).is_ok());
    }

    #[test]
    fn fork_at_must_be_a_finite_non_negative_time() {
        let fork_at = |value: &str| {
            let argv = ["c.toml", "--fork-at", value].map(String::from);
            parse_args("what-if", WHAT_IF_USAGE, &argv)
                .ok()
                .map(|(_, flags)| flags.fork_at)
        };
        for bad in ["nan", "-5", "inf", "1e400", "soon"] {
            assert_eq!(fork_at(bad), None, "{bad}");
        }
        assert_eq!(fork_at("0"), Some(Some(0.0)));
        assert_eq!(fork_at("3600"), Some(Some(3600.0)));
    }

    #[test]
    fn value_flags_are_accepted_only_where_the_usage_names_them() {
        let parses = |cmd: &str, usage: &str, flag: &str| {
            let argv = ["dir", flag, "x"].map(String::from);
            parse_args(cmd, usage, &argv).is_ok()
        };
        assert!(parses("run", RUN_USAGE, "--spill"));
        assert!(parses("run", RUN_USAGE, "--metrics"));
        assert!(!parses("run", RUN_USAGE, "--export"));
        assert!(parses("what-if", WHAT_IF_USAGE, "--export"));
        assert!(!parses("what-if", WHAT_IF_USAGE, "--spill"));
        assert!(!parses("resume", RESUME_USAGE, "--metrics"));
    }
}
