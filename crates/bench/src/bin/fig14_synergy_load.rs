//! Figure 14: average JCT for Synergy traces with FIFO scheduling as the
//! job load varies from 4 to 20 jobs/hour on a 256-GPU cluster with a
//! constant locality penalty of 1.7 and Longhorn variability profiles.
//!
//! Also prints the multi-GPU-subset JCTs the paper quotes ("PAL improves
//! the average JCT of multi-GPU jobs by 5% to 31% over Tiresias").
//!
//! The cells are `configs/paper/fig14.toml`; this adds the steady-state
//! window and multi-GPU columns the campaign CSV does not carry.

use pal_bench::{hours, run_paper_config};

/// Steady-state measurement window over job ids (the paper measures job
/// ids 2000–3000 of its longer traces; ours are 600 jobs).
const WINDOW: (usize, usize) = (150, 450);

fn main() {
    println!("# Figure 14: Synergy avg JCT (hours) vs job load, FIFO");
    println!("trace,policy,avg_jct_h,steady_state_jct_h,multi_gpu_jct_h");
    for cell in run_paper_config("fig14") {
        let r = &cell.result;
        println!(
            "{},{},{:.2},{:.2},{:.2}",
            cell.scenario,
            cell.policy,
            hours(r.avg_jct()),
            hours(
                r.avg_jct_window(WINDOW.0, WINDOW.1)
                    .expect("window non-empty")
            ),
            hours(r.avg_jct_multi_gpu().expect("trace has multi-GPU jobs"))
        );
    }
}
