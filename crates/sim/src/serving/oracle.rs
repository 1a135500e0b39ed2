//! The serving loop as it ran before the request log: the workload's
//! lazy stream pulled into a `VecDeque` one arrival at a time, behind a
//! one-request lookahead, and a batcher that pops each batch off the
//! queue's front. The indexed [`Deployment`](super::Deployment) is
//! checked against it bit for bit.

use super::{BatcherConfig, ServingJob, ServingMetrics, EPS};
use crate::observe::ServingBatchEvent;
use pal_trace::ServingRequest;
use std::collections::VecDeque;

/// The push-to-deadline rule over a queue: pop the head, then pop
/// followers while the batch fits the head's deadline budget.
fn form_batch(
    queue: &mut VecDeque<ServingRequest>,
    now: f64,
    slowdown: f64,
    cfg: &BatcherConfig,
    out: &mut Vec<ServingRequest>,
) {
    out.clear();
    let head = queue.pop_front().expect("form_batch on an empty queue");
    let budget = head.deadline - now;
    let mut exec = (cfg.batch_overhead_s + head.work) * slowdown;
    out.push(head);
    while out.len() < cfg.max_batch_size {
        let Some(next) = queue.front() else { break };
        let with_next = exec + next.work * slowdown;
        if with_next > budget {
            break;
        }
        exec = with_next;
        out.push(queue.pop_front().expect("front just observed"));
    }
}

/// One deployment, driven by its stream and queue.
pub(super) struct Oracle {
    name: String,
    cfg: BatcherConfig,
    gpus: usize,
    stream: Box<dyn Iterator<Item = ServingRequest>>,
    next: Option<ServingRequest>,
    queue: VecDeque<ServingRequest>,
    /// `(slowdown, free_at)` per replica.
    replicas: Vec<(f64, f64)>,
    batch: Vec<ServingRequest>,
    total: u64,
    completed: u64,
    batches: u64,
    slo_met: u64,
    latencies: Vec<f64>,
    first_arrival: f64,
    last_finish: f64,
}

impl Oracle {
    pub(super) fn new(job: &ServingJob, slowdowns: &[f64]) -> Oracle {
        let mut stream = Box::new(job.workload.stream());
        let next = stream.next();
        Oracle {
            name: job.workload.name.clone(),
            cfg: job.batcher,
            gpus: job.total_gpus(),
            stream,
            next,
            queue: VecDeque::new(),
            replicas: slowdowns.iter().map(|&s| (s, 0.0)).collect(),
            batch: Vec::new(),
            total: job.workload.num_requests,
            completed: 0,
            batches: 0,
            slo_met: 0,
            latencies: Vec::new(),
            first_arrival: 0.0,
            last_finish: 0.0,
        }
    }

    pub(super) fn is_done(&self) -> bool {
        self.completed >= self.total
    }

    /// Process every batch that starts by `t_end`, appending one event
    /// per batch to `events`.
    pub(super) fn advance_to(&mut self, t_end: f64, events: &mut Vec<ServingBatchEvent>) {
        while !self.is_done() {
            let head_arrival = match (self.queue.front(), &self.next) {
                (Some(r), _) | (None, Some(r)) => r.arrival,
                (None, None) => unreachable!("pending requests but none left to pull"),
            };
            let mut ri = 0usize;
            for i in 1..self.replicas.len() {
                if self.replicas[i].1 < self.replicas[ri].1 {
                    ri = i;
                }
            }
            let start = self.replicas[ri].1.max(head_arrival);
            if start > t_end {
                return;
            }
            while let Some(r) = self.next.take() {
                if r.arrival <= start {
                    if self.completed == 0 && self.queue.is_empty() {
                        self.first_arrival = r.arrival;
                    }
                    self.queue.push_back(r);
                    self.next = self.stream.next();
                } else {
                    self.next = Some(r);
                    break;
                }
            }
            let slowdown = self.replicas[ri].0;
            form_batch(&mut self.queue, start, slowdown, &self.cfg, &mut self.batch);
            let work: f64 = self.batch.iter().map(|r| r.work).sum();
            let finish = start + (self.cfg.batch_overhead_s + work) * slowdown;
            let mut batch_slo_met = 0usize;
            for r in &self.batch {
                self.latencies.push(finish - r.arrival);
                if finish <= r.deadline + EPS {
                    self.slo_met += 1;
                    batch_slo_met += 1;
                }
            }
            self.completed += self.batch.len() as u64;
            self.batches += 1;
            self.replicas[ri].1 = finish;
            if finish > self.last_finish {
                self.last_finish = finish;
            }
            events.push(ServingBatchEvent {
                workload: self.name.clone(),
                start,
                finish,
                batch_size: self.batch.len(),
                slo_met: batch_slo_met,
                queued: self.queue.len(),
            });
        }
    }

    pub(super) fn metrics(&self) -> ServingMetrics {
        let counters = ServingMetrics {
            workload: self.name.clone(),
            replicas: self.replicas.len(),
            gpus: self.gpus,
            requests: self.completed,
            batches: self.batches,
            slo_attained: self.slo_met,
            latency_mean: 0.0,
            latency_p50: 0.0,
            latency_p95: 0.0,
            latency_p99: 0.0,
            latency_max: 0.0,
            first_arrival: self.first_arrival,
            last_finish: self.last_finish,
        };
        comparison_sort_summary(counters, &self.latencies)
    }
}

/// `m` with its latency fields summarized as they were before the
/// bit-pattern sort: over a copy of `latencies`, comparison-sorted, with
/// the mean summed in sorted order.
pub(super) fn comparison_sort_summary(m: ServingMetrics, latencies: &[f64]) -> ServingMetrics {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN latency"));
    let pct = |p: f64| {
        if sorted.is_empty() {
            0.0
        } else {
            pal_stats::percentile_of_sorted(&sorted, p)
        }
    };
    ServingMetrics {
        latency_mean: pal_stats::mean(&sorted).unwrap_or(0.0),
        latency_p50: pct(50.0),
        latency_p95: pct(95.0),
        latency_p99: pct(99.0),
        latency_max: sorted.last().copied().unwrap_or(0.0),
        ..m
    }
}
