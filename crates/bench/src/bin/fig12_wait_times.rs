//! Figure 12: job ID vs waiting time for Sia-Philly workloads 3 and 5
//! under Tiresias, PM-First, and PAL placement (FIFO scheduling).
//!
//! Workload 5's early large jobs blow up wait times for everything behind
//! them; workload 3's large jobs arrive late, so waits stay low — which is
//! why the policies' benefits differ between the two.
//!
//! The cells are `configs/paper/fig12.toml`; this prints their per-job
//! wait series, which the campaign CSV does not carry.

use pal_bench::{hours, run_paper_config};

fn main() {
    println!("# Figure 12: wait time (hours) vs job ID");
    println!("trace,policy,job_id,wait_time_h");
    for cell in run_paper_config("fig12") {
        for (id, wait) in cell.result.wait_times() {
            println!("{},{},{id},{:.3}", cell.scenario, cell.policy, hours(wait));
        }
    }
}
