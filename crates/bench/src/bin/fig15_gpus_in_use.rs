//! Figure 15: number of GPUs in use at every scheduling epoch for Synergy
//! at 8 and 10 jobs/hour, Tiresias vs PAL (FIFO, 256 GPUs).
//!
//! PAL's utilization curve "runs ahead" of Tiresias — it finishes the same
//! work earlier, freeing resources sooner.
//!
//! The cells are `configs/paper/fig15.toml`; this prints their
//! GPUs-in-use series, which the campaign CSV does not carry.

use pal_bench::run_paper_config;

fn main() {
    println!("# Figure 15: GPUs in use over time");
    println!("trace,policy,time_s,gpus_in_use");
    for cell in run_paper_config("fig15") {
        let r = &cell.result;
        for (t, v) in r.gpus_in_use.resample(0.0, r.makespan(), 200) {
            println!("{},{},{t:.0},{v:.0}", cell.scenario, cell.policy);
        }
    }
}
