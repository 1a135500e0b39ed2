//! The output check: one digest per cell over every field
//! `SimResult::same_outcome` compares, and the recorded digests of the
//! default seed.

use pal_config::spill::fnv1a64;
use pal_config::write_json;
use pal_sim::{CampaignResult, SimResult};
use serde::{Serialize, Value};
use std::path::Path;

/// One cell's identity and outcome digest.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDigest {
    pub scenario: String,
    pub policy: String,
    pub digest: u64,
}

/// FNV-1a over the canonical JSON of exactly the fields
/// `SimResult::same_outcome` compares. `placement_compute_times` (wall
/// clock) and `executed_rounds` (which differs between engine modes by
/// design) are left out, as `same_outcome` leaves them out.
pub fn outcome_digest(r: &SimResult) -> u64 {
    let fields = Value::Map(vec![
        ("trace".into(), r.trace.to_value()),
        ("scheduler".into(), r.scheduler.to_value()),
        ("placement".into(), r.placement.to_value()),
        ("records".into(), r.records.to_value()),
        ("rejected".into(), r.rejected.to_value()),
        ("gpus_in_use".into(), r.gpus_in_use.to_value()),
        ("busy_gpu_seconds".into(), r.busy_gpu_seconds.to_value()),
        ("ideal_gpu_seconds".into(), r.ideal_gpu_seconds.to_value()),
        ("total_gpus".into(), r.total_gpus.to_value()),
        ("rounds".into(), r.rounds.to_value()),
        ("serving".into(), r.serving.to_value()),
    ]);
    let json = write_json(&fields).expect("simulation results hold only finite numbers");
    fnv1a64(json.as_bytes())
}

pub fn digests(results: &[CampaignResult]) -> Vec<CellDigest> {
    results
        .iter()
        .map(|c| CellDigest {
            scenario: c.scenario.clone(),
            policy: c.policy.clone(),
            digest: outcome_digest(&c.result),
        })
        .collect()
}

/// Cells of `got` that do not match `want`, counting cells missing from
/// either side.
pub fn mismatches(got: &[CellDigest], want: &[CellDigest]) -> usize {
    let differing = got.iter().zip(want).filter(|(g, w)| g != w).count();
    differing + got.len().abs_diff(want.len())
}

/// Recorded digests: one `scenario<TAB>policy<TAB>digest` line per cell.
pub fn read_golden(path: &Path) -> Result<Vec<CellDigest>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let bad = || format!("{}:{}: malformed digest line", path.display(), i + 1);
            let mut parts = line.split('\t');
            let (Some(scenario), Some(policy), Some(hex), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(bad());
            };
            Ok(CellDigest {
                scenario: scenario.to_string(),
                policy: policy.to_string(),
                digest: u64::from_str_radix(hex, 16).map_err(|_| bad())?,
            })
        })
        .collect()
}

pub fn write_golden(path: &Path, cells: &[CellDigest]) -> std::io::Result<()> {
    let text: String = cells
        .iter()
        .map(|c| format!("{}\t{}\t{:016x}\n", c.scenario, c.policy, c.digest))
        .collect();
    std::fs::write(path, text)
}
