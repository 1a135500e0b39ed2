//! Figure 19: Tiresias' and PAL's wait times under (a) LAS, (b) SRTF, and
//! (c) FIFO schedulers, for the Synergy trace at 8 jobs/hour.
//!
//! LAS gives fresh jobs priority, so waits decay over the trace; FIFO's
//! waits grow monotonically; SRTF sits between.
//!
//! The cells are `configs/paper/fig19.toml` (one row per scheduler); this
//! prints their per-job wait series, which the campaign CSV does not
//! carry.

use pal_bench::{hours, run_paper_config};

fn main() {
    println!("# Figure 19: wait time (hours) vs job ID per scheduler");
    println!("scheduler,policy,job_id,wait_time_h");
    for cell in run_paper_config("fig19") {
        for (id, wait) in cell.result.wait_times() {
            println!("{},{},{id},{:.3}", cell.scenario, cell.policy, hours(wait));
        }
    }
}
