//! Outside-in tracing: a probe `MetricsSink` attached per cell, and a
//! forwarding `ResultSink`. Both hand every call on unchanged, so a
//! traced run's outcomes equal an untraced run's (the output check
//! verifies it).

use pal_sim::{
    CampaignResult, JobEvent, JobEventKind, MetricsSink, ResultSink, RoundEvent, ServingBatchEvent,
    SimError,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Engine-side totals of one policy column.
#[derive(Debug, Default, Clone)]
pub struct Column {
    pub step_s: f64,
    pub placement_s: f64,
}

/// Everything the traced run's wrappers record, shared between them.
#[derive(Debug, Default)]
pub struct Layers {
    pub trace_gen_s: f64,
    pub trace_jobs: u64,
    pub profile_synth_s: f64,
    pub policy_build_s: f64,
    pub table_builds: usize,
    /// `(cell seed, build start)` of every policy build, in call order.
    pub policy_calls: Vec<(u64, Instant)>,
    pub steps: u64,
    pub step_durations: Vec<f64>,
    pub sim_rounds: u64,
    pub accrual_events: u64,
    pub placement_decisions: u64,
    pub preemptions: u64,
    pub migrations: u64,
    pub serving_requests: u64,
    pub serving_batches: u64,
    pub serving_slo_met: u64,
    pub metrics_write_s: f64,
    pub metrics_events: u64,
    pub spill_write_s: f64,
    /// Per cell index: when the result sink accepted it, and on which
    /// worker thread.
    pub cell_done: BTreeMap<usize, (Instant, ThreadId)>,
    /// Keyed by policy column (display name).
    pub columns: BTreeMap<String, Column>,
}

impl Layers {
    pub fn policy_built(&mut self, seed: u64, start: Instant, built: Instant, table_builds: usize) {
        self.policy_build_s += (built - start).as_secs_f64();
        self.table_builds = self.table_builds.max(table_builds);
        self.policy_calls.push((seed, start));
    }
}

/// Per-cell probe: counts and times engine events, and forwards each
/// one to the cell's metrics-file sink when the workload streams them.
pub struct ProbeSink {
    inner: Option<Box<dyn MetricsSink + Send>>,
    column: String,
    layers: Arc<Mutex<Layers>>,
    last_round: Instant,
    /// Time spent forwarding since the last round event: metrics-file
    /// writes, which are not engine time.
    forward_in_step: f64,
    forward_s: f64,
    forwarded: u64,
    step_durations: Vec<f64>,
    sim_rounds: u64,
    accrual_events: u64,
    placement_s: f64,
    placement_decisions: u64,
    preemptions: u64,
    migrations: u64,
    serving_requests: u64,
    serving_batches: u64,
    serving_slo_met: u64,
}

impl ProbeSink {
    pub fn new(
        inner: Option<Box<dyn MetricsSink + Send>>,
        column: String,
        layers: Arc<Mutex<Layers>>,
    ) -> Self {
        ProbeSink {
            inner,
            column,
            layers,
            last_round: Instant::now(),
            forward_in_step: 0.0,
            forward_s: 0.0,
            forwarded: 0,
            step_durations: Vec::new(),
            sim_rounds: 0,
            accrual_events: 0,
            placement_s: 0.0,
            placement_decisions: 0,
            preemptions: 0,
            migrations: 0,
            serving_requests: 0,
            serving_batches: 0,
            serving_slo_met: 0,
        }
    }

    /// Forward a file-writing event to the inner sink, timing the call.
    fn forward(&mut self, f: impl FnOnce(&mut (dyn MetricsSink + Send))) {
        if let Some(inner) = self.inner.as_deref_mut() {
            let start = Instant::now();
            f(inner);
            let dt = start.elapsed().as_secs_f64();
            self.forward_in_step += dt;
            self.forward_s += dt;
            self.forwarded += 1;
        }
    }
}

impl MetricsSink for ProbeSink {
    fn on_gpu_usage(&mut self, t: f64, gpus: f64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_gpu_usage(t, gpus);
        }
    }

    fn on_busy_gpu_seconds(&mut self, gpu_seconds: f64) {
        self.accrual_events += 1;
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_busy_gpu_seconds(gpu_seconds);
        }
    }

    fn on_placement_compute(&mut self, seconds: f64) {
        self.placement_s += seconds;
        self.placement_decisions += 1;
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_placement_compute(seconds);
        }
    }

    fn on_job(&mut self, event: &JobEvent) {
        match event.kind {
            JobEventKind::Preempted => self.preemptions += 1,
            JobEventKind::Migrated => self.migrations += 1,
            _ => {}
        }
        self.forward(|s| s.on_job(event));
    }

    fn on_round(&mut self, event: &RoundEvent) {
        let step = self.last_round.elapsed().as_secs_f64() - self.forward_in_step;
        self.step_durations.push(step);
        self.sim_rounds = event.round as u64;
        self.forward_in_step = 0.0;
        self.forward(|s| s.on_round(event));
        self.forward_in_step = 0.0;
        self.last_round = Instant::now();
    }

    fn on_serving_batch(&mut self, event: &ServingBatchEvent) {
        self.serving_requests += event.batch_size as u64;
        self.serving_batches += 1;
        self.serving_slo_met += event.slo_met as u64;
        self.forward(|s| s.on_serving_batch(event));
    }
}

impl Drop for ProbeSink {
    fn drop(&mut self) {
        // Dropping the file sink flushes its buffers: metrics write time.
        let flush_s = self.inner.take().map_or(0.0, |inner| {
            let start = Instant::now();
            drop(inner);
            start.elapsed().as_secs_f64()
        });
        // A poisoned lock means another wrapper panicked; that panic is
        // the error to report, so the totals are dropped here.
        let Ok(mut l) = self.layers.lock() else {
            return;
        };
        let step_s: f64 = self.step_durations.iter().sum();
        l.steps += self.step_durations.len() as u64;
        l.step_durations.append(&mut self.step_durations);
        l.sim_rounds += self.sim_rounds;
        l.accrual_events += self.accrual_events;
        l.placement_decisions += self.placement_decisions;
        l.preemptions += self.preemptions;
        l.migrations += self.migrations;
        l.serving_requests += self.serving_requests;
        l.serving_batches += self.serving_batches;
        l.serving_slo_met += self.serving_slo_met;
        l.metrics_write_s += self.forward_s + flush_s;
        l.metrics_events += self.forwarded;
        let column = l.columns.entry(self.column.clone()).or_default();
        column.step_s += step_s;
        column.placement_s += self.placement_s;
    }
}

/// Forwards every finished cell to the real result sink, recording when
/// and on which worker it finished and how long the sink took.
pub struct TimedSink<'a> {
    pub inner: &'a dyn ResultSink,
    pub layers: &'a Mutex<Layers>,
}

impl ResultSink for TimedSink<'_> {
    fn accept(&self, cell: usize, result: CampaignResult) -> Result<(), SimError> {
        let start = Instant::now();
        let accepted = self.inner.accept(cell, result);
        let done = Instant::now();
        let mut l = self.layers.lock().expect("layer probe lock");
        l.spill_write_s += (done - start).as_secs_f64();
        l.cell_done
            .insert(cell, (done, std::thread::current().id()));
        accepted
    }
}
