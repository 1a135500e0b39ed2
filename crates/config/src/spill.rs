//! Bounded-memory campaign spill: stream completed cells to JSONL, resume
//! interrupted grids deterministically.
//!
//! A *spill directory* is the durable form of one campaign run:
//!
//! - `results.jsonl` — one canonical-JSON [`CampaignResult`] per line
//!   ([`crate::json::to_json`]), appended the moment a cell completes;
//! - `manifest.jsonl` — one JSON entry per completed cell: the
//!   cell's deterministic identity ([`CellInfo`]: index, scenario tag,
//!   policy name, injective seed), the 0-based `results.jsonl` line the
//!   result landed on, and an FNV-1a 64 digest of that line's bytes;
//! - `campaign.toml` / `campaign.json` — a byte copy of the config file
//!   (written by the CLI) so `palsim resume <dir>` can rebuild the exact
//!   campaign.
//!
//! ## Crash safety
//!
//! [`SpillSink`] writes and flushes the result line *before* its manifest
//! entry: a cell counts as completed only when its manifest entry exists
//! and its digest matches the recorded result line. A SIGKILL can
//! therefore leave (a) a torn final line in either file — tolerated on
//! read, the affected cell just re-runs — or (b) a flushed result with no
//! manifest entry — same outcome. Re-opening for append first terminates
//! any torn final line with `\n`, turning it into a dead line that keeps
//! every recorded line number stable. Later manifest entries for a cell
//! supersede earlier ones, so a superseded (torn or stale) result line is
//! simply never read back.
//!
//! ## Memory bound and determinism
//!
//! The runner streams through the sink, so a grid of any size holds at
//! most one in-flight [`CampaignResult`] per worker — O(workers), not
//! O(cells). Because cell seeds are pure functions of `(campaign seed,
//! scenario tag, policy name)` and the canonical JSON round-trip is
//! exact, [`resume_spilled`] over an interrupted directory merges to the
//! same results — byte-identical CSV — as an uninterrupted
//! [`run_spilled`].

use crate::error::ConfigError;
use crate::json::{parse_json, to_json};
use pal_sim::{Campaign, CampaignResult, CampaignRunStats, CellInfo, ResultSink, SimError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File name of the streamed results inside a spill directory.
const RESULTS_FILE: &str = "results.jsonl";
/// File name of the completion manifest inside a spill directory.
pub const MANIFEST_FILE: &str = "manifest.jsonl";

/// One completed cell as recorded in `manifest.jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ManifestEntry {
    /// Cell index in [`Campaign::cells`] order.
    cell: usize,
    /// Scenario tag of the cell.
    scenario: String,
    /// Policy name of the cell (empty for scenario-only campaigns).
    policy: String,
    /// The cell's deterministic seed — resume verifies it against the
    /// campaign being resumed, so a spill directory cannot silently be
    /// continued with a different campaign.
    seed: u64,
    /// FNV-1a 64 digest of the result line's bytes (excluding `\n`).
    digest: u64,
    /// 0-based line number of the result in `results.jsonl`.
    line: usize,
}

/// FNV-1a 64 over `bytes` — the digest recorded per result line.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    pal_sim::fnv1a(pal_sim::FNV1A_BASIS, bytes.iter().copied())
}

#[derive(Debug)]
struct SpillFiles {
    results: File,
    manifest: File,
    /// Line number the next result will land on.
    next_line: usize,
}

/// A streaming [`ResultSink`] over a spill directory. See the
/// [module docs](self) for the file format and crash-safety contract.
#[derive(Debug)]
pub struct SpillSink {
    cells: Vec<CellInfo>,
    files: Mutex<SpillFiles>,
}

impl SpillSink {
    /// Create a fresh spill for `campaign` in `dir` (created if absent).
    /// Refuses to overwrite an existing spill: a directory that already
    /// has `results.jsonl` or `manifest.jsonl` is a resume candidate, not
    /// a blank slate.
    pub fn create(dir: &Path, campaign: &Campaign) -> Result<Self, ConfigError> {
        std::fs::create_dir_all(dir).map_err(|source| ConfigError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        for name in [RESULTS_FILE, MANIFEST_FILE] {
            let path = dir.join(name);
            if path.exists() {
                return Err(ConfigError::Spill {
                    path,
                    message: "already exists — use resume, or spill to a fresh directory".into(),
                });
            }
        }
        let open = |name: &str| {
            let path = dir.join(name);
            OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)
                .map_err(|source| ConfigError::Io { path, source })
        };
        Ok(SpillSink {
            cells: campaign.cells(),
            files: Mutex::new(SpillFiles {
                results: open(RESULTS_FILE)?,
                manifest: open(MANIFEST_FILE)?,
                next_line: 0,
            }),
        })
    }

    /// Re-open an existing spill for `campaign` in `dir` to append the
    /// remaining cells of a resumed run. Terminates any torn final line
    /// in either file with `\n` first (the torn line becomes a dead line;
    /// recorded line numbers stay valid).
    fn append(dir: &Path, campaign: &Campaign) -> Result<Self, ConfigError> {
        let open = |name: &str| {
            let path = dir.join(name);
            let mut file = OpenOptions::new()
                .read(true)
                .append(true)
                .open(&path)
                .map_err(|source| ConfigError::Io {
                    path: path.clone(),
                    source,
                })?;
            let lines = terminate_torn_line(&mut file).map_err(|source| ConfigError::Io {
                path: path.clone(),
                source,
            })?;
            Ok::<(File, usize), ConfigError>((file, lines))
        };
        let (results, next_line) = open(RESULTS_FILE)?;
        let (manifest, _) = open(MANIFEST_FILE)?;
        Ok(SpillSink {
            cells: campaign.cells(),
            files: Mutex::new(SpillFiles {
                results,
                manifest,
                next_line,
            }),
        })
    }
}

/// Ensure `file` ends with `\n` (appending one if a torn final line is
/// present) and return its line count.
fn terminate_torn_line(file: &mut File) -> std::io::Result<usize> {
    let mut contents = String::new();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_string(&mut contents)?;
    if !contents.is_empty() && !contents.ends_with('\n') {
        file.write_all(b"\n")?;
        file.flush()?;
    }
    Ok(contents.lines().count())
}

impl ResultSink for SpillSink {
    fn accept(&self, cell: usize, result: CampaignResult) -> Result<(), SimError> {
        let sink_err = |message: String| SimError::Sink { message };
        let info = self
            .cells
            .get(cell)
            .ok_or_else(|| sink_err(format!("cell {cell} out of range for spill sink")))?;
        if result.scenario != info.scenario || result.seed != info.seed {
            return Err(sink_err(format!(
                "cell {cell} result is {}#{:016x}, expected {}#{:016x}",
                result.scenario, result.seed, info.scenario, info.seed
            )));
        }
        let line = to_json(&result)
            .map_err(|e| sink_err(format!("cell {cell} result not serializable: {e}")))?;
        let mut files = self.files.lock().expect("spill sink lock");
        let entry = ManifestEntry {
            cell,
            scenario: info.scenario.clone(),
            policy: info.policy.clone(),
            seed: info.seed,
            digest: fnv1a64(line.as_bytes()),
            line: files.next_line,
        };
        let manifest_line = to_json(&entry)
            .map_err(|e| sink_err(format!("cell {cell} manifest entry not serializable: {e}")))?;
        let io = |e: std::io::Error| sink_err(format!("spill write failed for cell {cell}: {e}"));
        // Result first, then manifest: a cell only counts as completed
        // once its manifest entry lands, so a crash between the two
        // writes just re-runs the cell.
        files.results.write_all(line.as_bytes()).map_err(io)?;
        files.results.write_all(b"\n").map_err(io)?;
        files.results.flush().map_err(io)?;
        files.next_line += 1;
        files
            .manifest
            .write_all(manifest_line.as_bytes())
            .map_err(io)?;
        files.manifest.write_all(b"\n").map_err(io)?;
        files.manifest.flush().map_err(io)?;
        Ok(())
    }
}

/// Read `manifest.jsonl` from `dir`. Entries appear in completion order.
/// Lines that are not valid JSON are skipped, not errors: a SIGKILL
/// leaves a torn final line, and [`SpillSink::append`] later terminates
/// it into a dead mid-file line — in both cases the affected cell has no
/// entry and simply re-runs, which is always safe. A line that *is*
/// valid JSON but not a manifest entry is real corruption and errors.
fn read_manifest(dir: &Path) -> Result<Vec<ManifestEntry>, ConfigError> {
    let path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&path).map_err(|source| ConfigError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let Ok(value) = parse_json(line) else {
            continue; // torn (or torn-then-terminated) line: cell re-runs
        };
        entries.push(
            ManifestEntry::from_value(&value).map_err(|e| ConfigError::Spill {
                path: path.clone(),
                message: format!("line {}: bad manifest entry: {e}", i + 1),
            })?,
        );
    }
    Ok(entries)
}

/// Load every *verified-complete* cell of `campaign` from the spill in
/// `dir`: manifest entries whose identity matches the campaign's
/// [`Campaign::cells`] enumeration and whose recorded result line exists
/// with a matching digest. Entries with a missing or digest-mismatched
/// result line are treated as incomplete (the cell re-runs on resume);
/// entries that *identify* a different campaign (wrong tag, policy, or
/// seed for their index) are an error — resuming the wrong directory
/// should fail loudly, not re-run everything.
fn load_completed(
    dir: &Path,
    campaign: &Campaign,
) -> Result<BTreeMap<usize, CampaignResult>, ConfigError> {
    let cells = campaign.cells();
    let manifest_path = dir.join(MANIFEST_FILE);
    let results_path = dir.join(RESULTS_FILE);
    let entries = read_manifest(dir)?;
    let result_lines: Vec<String> = {
        let text = std::fs::read_to_string(&results_path).map_err(|source| ConfigError::Io {
            path: results_path.clone(),
            source,
        })?;
        text.lines().map(str::to_string).collect()
    };
    let mut completed = BTreeMap::new();
    for entry in entries {
        let info = cells.get(entry.cell).ok_or_else(|| ConfigError::Spill {
            path: manifest_path.clone(),
            message: format!(
                "cell {} not in this campaign ({} cells) — wrong spill directory?",
                entry.cell,
                cells.len()
            ),
        })?;
        if entry.scenario != info.scenario || entry.policy != info.policy || entry.seed != info.seed
        {
            return Err(ConfigError::Spill {
                path: manifest_path.clone(),
                message: format!(
                    "cell {} is {}/{}#{:016x} in the manifest but {}/{}#{:016x} in the campaign \
                     — wrong spill directory?",
                    entry.cell,
                    entry.scenario,
                    entry.policy,
                    entry.seed,
                    info.scenario,
                    info.policy,
                    info.seed
                ),
            });
        }
        let Some(line) = result_lines.get(entry.line) else {
            continue; // result line torn away — cell re-runs
        };
        if fnv1a64(line.as_bytes()) != entry.digest {
            continue; // torn or superseded line — cell re-runs
        }
        let value = parse_json(line).map_err(|e| ConfigError::Spill {
            path: results_path.clone(),
            message: format!(
                "line {}: digest matched but JSON is invalid: {e}",
                entry.line + 1
            ),
        })?;
        let result = CampaignResult::from_value(&value).map_err(|e| ConfigError::Spill {
            path: results_path.clone(),
            message: format!("line {}: not a campaign result: {e}", entry.line + 1),
        })?;
        if result.scenario != info.scenario || result.seed != info.seed {
            return Err(ConfigError::Spill {
                path: results_path.clone(),
                message: format!(
                    "line {}: result is {}#{:016x} but the manifest points cell {} at it",
                    entry.line + 1,
                    result.scenario,
                    result.seed,
                    entry.cell
                ),
            });
        }
        // Later manifest entries supersede earlier ones for the cell.
        completed.insert(entry.cell, result);
    }
    Ok(completed)
}

/// Every cell of the campaign, loaded back from a *finished* spill in
/// deterministic cell order. Errors if any cell is missing (the run was
/// interrupted — resume it first).
pub fn spilled_results(
    dir: &Path,
    campaign: &Campaign,
) -> Result<Vec<CampaignResult>, ConfigError> {
    let mut completed = load_completed(dir, campaign)?;
    let total = campaign.num_cells();
    let mut out = Vec::with_capacity(total);
    for cell in 0..total {
        match completed.remove(&cell) {
            Some(r) => out.push(r),
            None => {
                return Err(ConfigError::Spill {
                    path: dir.join(MANIFEST_FILE),
                    message: format!(
                        "cell {cell} never completed ({}/{} done) — resume this directory",
                        out.len(),
                        total
                    ),
                })
            }
        }
    }
    Ok(out)
}

/// Run `campaign` from scratch, spilling to `dir`, and return the run
/// stats plus all results in cell order.
pub fn run_spilled(
    campaign: &Campaign,
    dir: &Path,
) -> Result<(CampaignRunStats, Vec<CampaignResult>), ConfigError> {
    let sink = SpillSink::create(dir, campaign)?;
    let stats = campaign
        .run_with_sink(&sink)
        .map_err(|source| ConfigError::Sim { source })?;
    drop(sink);
    Ok((stats, spilled_results(dir, campaign)?))
}

/// Resume an interrupted spill of `campaign` in `dir`: load the verified
/// completed cells, re-run only the rest, and return the merged results
/// in cell order — byte-identical to an uninterrupted [`run_spilled`]
/// because every cell's seed depends only on the campaign definition.
/// Already-finished spills are a no-op resume (`cells_run == 0`).
pub fn resume_spilled(
    campaign: &Campaign,
    dir: &Path,
) -> Result<(CampaignRunStats, Vec<CampaignResult>), ConfigError> {
    let completed = load_completed(dir, campaign)?;
    let sink = SpillSink::append(dir, campaign)?;
    let stats = campaign
        .run_cells_with_sink(&|cell| completed.contains_key(&cell), &sink)
        .map_err(|source| ConfigError::Sim { source })?;
    drop(sink);
    Ok((stats, spilled_results(dir, campaign)?))
}

/// The config file copied into a spill directory by `palsim run --spill`
/// (`campaign.toml` or `campaign.json`), so `palsim resume <dir>` can
/// rebuild the campaign. `None` if neither exists.
pub fn spilled_config(dir: &Path) -> Option<PathBuf> {
    ["campaign.toml", "campaign.json"]
        .iter()
        .map(|name| dir.join(name))
        .find(|p| p.is_file())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::parse_campaign_str;
    use crate::registry::Registry;
    use crate::{build_campaign, render_chain};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn test_campaign(seed: u64) -> Campaign {
        let text = format!(
            r#"
            profile = {{ kind = "flat", classes = 3, value = 1.2 }}
            policy = ["random", "tiresias", "pal"]

            [campaign]
            name = "spill-test"
            seed = {seed}
            max_parallelism = 2

            [cluster]
            nodes = 2
            gpus_per_node = 4

            [[scenario]]
            tag = "grid"
            trace = {{ kind = "synergy", num_jobs = 12, jobs_per_hour = 30.0 }}
            loads = [1.0, 2.0]

            [sim]
            round_duration = 300.0
            "#
        );
        let file = parse_campaign_str(&text, "spill-test.toml").expect("parse");
        build_campaign(&file, &Registry::with_builtins(), Path::new(".")).expect("build")
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pal-spill-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn run_spilled_matches_in_memory_run() {
        let campaign = test_campaign(7);
        let dir = tmp_dir("full");
        let (stats, spilled) = run_spilled(&campaign, &dir).expect("run_spilled");
        assert_eq!(stats.cells_run, campaign.num_cells());
        let in_memory = campaign.run().expect("run");
        assert_eq!(spilled.len(), in_memory.len());
        for (a, b) in spilled.iter().zip(&in_memory) {
            assert_eq!(
                (a.scenario.as_str(), a.policy.as_str(), a.seed),
                (b.scenario.as_str(), b.policy.as_str(), b.seed)
            );
            assert!(
                a.result.same_outcome(&b.result),
                "spilled {}/{} diverged after the JSON round trip",
                a.scenario,
                a.policy
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_after_truncated_manifest_reruns_only_missing_cells() {
        let campaign = test_campaign(11);
        let dir = tmp_dir("resume");
        let (_, full) = run_spilled(&campaign, &dir).expect("run_spilled");

        // Simulate a SIGKILL after two cells: keep the first two manifest
        // lines (results file untouched — extra unreferenced lines are
        // exactly what a mid-grid kill leaves behind).
        let manifest_path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest_path).unwrap();
        let keep: Vec<&str> = text.lines().take(2).collect();
        std::fs::write(&manifest_path, format!("{}\n", keep.join("\n"))).unwrap();

        let (stats, resumed) = resume_spilled(&campaign, &dir).expect("resume");
        assert_eq!(stats.cells_skipped, 2);
        assert_eq!(stats.cells_run, campaign.num_cells() - 2);
        for (a, b) in resumed.iter().zip(&full) {
            assert_eq!(a.seed, b.seed);
            assert!(
                a.result.same_outcome(&b.result),
                "{}/{}",
                a.scenario,
                a.policy
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_lines_are_tolerated_and_reruns_converge() {
        let campaign = test_campaign(13);
        let dir = tmp_dir("torn");
        let (_, full) = run_spilled(&campaign, &dir).expect("run_spilled");

        // Tear the final line of both files mid-byte.
        for name in [RESULTS_FILE, MANIFEST_FILE] {
            let path = dir.join(name);
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, &text[..text.len() - 7]).unwrap();
        }
        let (stats, resumed) = resume_spilled(&campaign, &dir).expect("resume");
        // At least the torn-manifest cell re-ran; possibly also the cell
        // whose result line was torn (if they differ).
        assert!(stats.cells_run >= 1, "{stats:?}");
        for (a, b) in resumed.iter().zip(&full) {
            assert!(
                a.result.same_outcome(&b.result),
                "{}/{}",
                a.scenario,
                a.policy
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_mismatch_forces_rerun() {
        let campaign = test_campaign(17);
        let dir = tmp_dir("digest");
        run_spilled(&campaign, &dir).expect("run_spilled");

        // Corrupt one mid-file result line without touching its length.
        let path = dir.join(RESULTS_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 1 {
                    l.replace(char::from(l.as_bytes()[10]), "~")
                } else {
                    l.to_string()
                }
            })
            .collect();
        std::fs::write(&path, format!("{}\n", corrupted.join("\n"))).unwrap();

        let (stats, _) = resume_spilled(&campaign, &dir).expect("resume");
        assert_eq!(stats.cells_run, 1, "exactly the corrupted cell re-runs");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_campaign_is_rejected_loudly() {
        let campaign = test_campaign(19);
        let dir = tmp_dir("wrong");
        run_spilled(&campaign, &dir).expect("run_spilled");
        let other = test_campaign(20); // different seed → different cell seeds
        let err = resume_spilled(&other, &dir).unwrap_err();
        let msg = render_chain(&err);
        assert!(msg.contains("wrong spill directory"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_to_overwrite_existing_spill() {
        let campaign = test_campaign(23);
        let dir = tmp_dir("exists");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(RESULTS_FILE), "").unwrap();
        let err = SpillSink::create(&dir, &campaign).unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finished_spill_resumes_as_a_no_op() {
        let campaign = test_campaign(29);
        let dir = tmp_dir("noop");
        let (_, full) = run_spilled(&campaign, &dir).expect("run_spilled");
        let (stats, resumed) = resume_spilled(&campaign, &dir).expect("resume");
        assert_eq!(stats.cells_run, 0);
        assert_eq!(stats.cells_skipped, campaign.num_cells());
        for (a, b) in resumed.iter().zip(&full) {
            assert!(a.result.same_outcome(&b.result));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_line_bytes_are_pinned() {
        // Captured from the tree-building writer this one replaced.
        let entry = ManifestEntry {
            cell: 3,
            scenario: "philly@x1.5".into(),
            policy: "PAL (adaptive)".into(),
            seed: u64::MAX,
            digest: 0xDEAD_BEEF_0123_4567,
            line: 2,
        };
        assert_eq!(
            to_json(&entry).unwrap(),
            concat!(
                r#"{"cell":3,"scenario":"philly@x1.5","policy":"PAL (adaptive)","#,
                r#""seed":18446744073709551615,"digest":16045690981116495207,"line":2}"#
            )
        );
    }
}
