//! Criterion benchmark for fleet-scale campaign execution: a 16×16 grid
//! (256 cells) driven through the campaign worker pool, measuring grid
//! wall time and pinning deterministic cells-completed counts.
//!
//! The grid deliberately skews per-cell cost (scenario rows carry
//! different trace sizes), so workers finish cells out of order and the
//! shared cell cursor has to balance them — the wall-time entry
//! `grid/16x16/run_with_sink` tracks what fleet sweeps cost end-to-end,
//! runner included.
//!
//! Beyond wall time, `main` records *deterministic* counts into
//! `BENCH_engine.json` under the `cells/` prefix the CI gate pins
//! bit-exactly:
//!
//! - `cells/16x16/completed`: every cell of a full run fills its sink
//!   slot (a dropped or twice-run cell also fails this bench's own
//!   `cells_run` assertion, and CI with it);
//! - `cells/16x16/resumed_after_128`: a simulated resume skipping the
//!   first half of the grid runs exactly the other half.
//!
//! Worker count is pinned with `max_parallelism(8)` so the counts do not
//! depend on the runner machine's core count.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use pal_cluster::{ClusterTopology, JobClass, VariabilityProfile};
use pal_gpumodel::Workload;
use pal_sim::placement::{PackedPlacement, RandomPlacement};
use pal_sim::sched::Fifo;
use pal_sim::{Campaign, MemorySink, PolicySpec, Scenario};
use pal_trace::{JobId, JobSpec, Trace};
use std::sync::Arc;

/// Workers the grid is pinned to, independent of the machine.
const WORKERS: usize = 8;

/// A small trace whose size grows with the scenario row, skewing
/// per-cell cost so workers finish cells out of order.
fn row_trace(row: usize) -> Trace {
    let jobs = 4 + 2 * row; // rows 0..16 → 4..36 jobs
    Trace::new(
        format!("fleet-row-{row}"),
        (0..jobs as u32)
            .map(|i| JobSpec {
                id: JobId(i),
                model: Workload::ResNet50,
                class: JobClass(i as usize % 3),
                arrival: i as f64 * 150.0,
                gpu_demand: 1 + (i as usize % 3),
                iterations: 200 + 40 * i as u64,
                base_iter_time: 1.0,
            })
            .collect(),
    )
}

/// The 16×16 grid: 16 scenario rows of increasing cost × 16 seed-varied
/// policy columns, all rows sharing one `Arc`'d profile.
fn grid_campaign() -> Campaign {
    let profile = Arc::new(VariabilityProfile::from_raw(
        (0..3)
            .map(|c| {
                (0..8)
                    .map(|g| 1.0 + ((g * 7 + c * 5) % 11) as f64 * 0.05)
                    .collect()
            })
            .collect(),
    ));
    let mut campaign = Campaign::new().seed(0xF1EE7).max_parallelism(WORKERS);
    for row in 0..16 {
        let trace = Arc::new(row_trace(row));
        let profile = Arc::clone(&profile);
        campaign = campaign.scenario(format!("row-{row:02}"), move || {
            Scenario::new(Arc::clone(&trace), ClusterTopology::new(2, 4))
                .profile(Arc::clone(&profile))
                .scheduler(Fifo)
        });
    }
    campaign.policies((0..16).map(|col| {
        let name = format!("col-{col:02}");
        if col % 2 == 0 {
            PolicySpec::new(name, |_, seed| Box::new(RandomPlacement::new(seed)))
        } else {
            PolicySpec::new(name, |_, seed| Box::new(PackedPlacement::randomized(seed)))
                .sticky(col % 4 == 1)
        }
    }))
}

fn bench_grid(c: &mut Criterion) {
    let campaign = grid_campaign();
    let mut group = c.benchmark_group("grid");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("16x16", "run_with_sink"), |b| {
        b.iter(|| {
            let sink = MemorySink::new(campaign.num_cells());
            let stats = campaign.run_with_sink(&sink).expect("bench campaign");
            assert_eq!(stats.cells_run, 256, "grid lost cells mid-run");
            black_box(stats.cells_run)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_grid);

fn main() {
    benches();
    let mut entries = criterion::take_measurements();
    let campaign = grid_campaign();

    // Deterministic cells-completed counts for the CI gate, independent
    // of machine speed and core count (workers are pinned). A full run
    // completes all 256 cells exactly once; a resume that skips the
    // first half runs exactly the other 128.
    let sink = MemorySink::new(campaign.num_cells());
    let stats = campaign.run_with_sink(&sink).expect("accounting run");
    assert_eq!(stats.workers, WORKERS, "worker pin did not take");
    assert_eq!(stats.cells_run, 256, "full grid must complete every cell");
    let completed = sink
        .into_results()
        .into_iter()
        .filter(|slot| slot.is_some())
        .count();
    assert_eq!(completed, 256, "sink slots must all fill exactly once");
    entries.push(("cells/16x16/completed".to_string(), completed as f64));

    let resume_sink = MemorySink::new(campaign.num_cells());
    let resumed = campaign
        .run_cells_with_sink(&|cell| cell < 128, &resume_sink)
        .expect("resume accounting run");
    assert_eq!(resumed.cells_skipped, 128);
    entries.push((
        "cells/16x16/resumed_after_128".to_string(),
        resumed.cells_run as f64,
    ));

    pal_bench::bench_json::update_workspace("campaign_throughput", &entries)
        .expect("update BENCH_engine.json");
}
