//! Streaming file sinks for engine events: JSONL lifecycle logs and CSV
//! round tables, written live as a run executes.
//!
//! Each cell's sink implements [`pal_sim::MetricsSink`] over two
//! files: every job-lifecycle and serving-batch event becomes one line
//! of canonical JSON in an `.events.jsonl` file — streamed from the
//! event's [`Serialize::emit`] by the [`to_json`](crate::to_json)
//! writer into one reused line buffer, with no value tree in between —
//! and every executed round becomes one row of a `.rounds.csv` table.
//! Both streams contain only simulated quantities (clocks, ids,
//! counts), so two runs of the same cell produce byte-identical files —
//! the same determinism contract the campaign spill sink gives results.
//! High-volume accumulation events (per-round GPU usage, busy
//! GPU-seconds) are deliberately not logged; the `StepSeries` in the
//! result already carries them compactly.
//!
//! [`MetricsDir`] is the campaign wiring: a per-cell factory for
//! [`pal_sim::Campaign::metrics_sinks`] that lays one file pair per cell
//! out under a directory. Sink methods cannot return errors (the engine
//! never fails because an observer did), so I/O failures park in a
//! shared slot the caller checks after the run with
//! [`MetricsDir::first_error`].

use crate::json::to_json_into;
use pal_sim::{CellInfo, JobEvent, MetricsSink, RoundEvent, ServingBatchEvent};
use serde::Serialize;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Shared first-error slot for sinks whose owner outlives them.
type ErrorSlot = Arc<Mutex<Option<String>>>;

fn record_error(slot: &ErrorSlot, context: &str, err: &std::io::Error) {
    let mut slot = slot.lock().expect("metrics error slot");
    if slot.is_none() {
        *slot = Some(format!("{context}: {err}"));
    }
}

/// Header of the `.rounds.csv` table [`CellMetricsSink`] writes.
const ROUNDS_CSV_HEADER: &str = "round,executed_rounds,t,running,waiting,finished";

/// A [`MetricsSink`] streaming one run's events to a JSONL file (job
/// lifecycle + serving batches, each line a `{"type": …}`-tagged
/// canonical-JSON object) and its executed rounds to a CSV table.
///
/// Buffered; everything is flushed when the sink drops at the end of
/// the run. See the [module docs](self) for the error contract.
struct CellMetricsSink {
    events: BufWriter<File>,
    rounds: BufWriter<File>,
    /// The line being built, reused across events and rounds.
    line: String,
    error: ErrorSlot,
}

impl CellMetricsSink {
    /// Open `events_path` (JSONL) and `rounds_path` (CSV, header written
    /// immediately), truncating either if it exists. I/O errors after
    /// creation go to `error` — first one wins.
    fn create(events_path: &Path, rounds_path: &Path, error: ErrorSlot) -> std::io::Result<Self> {
        let events = BufWriter::new(File::create(events_path)?);
        let mut rounds = BufWriter::new(File::create(rounds_path)?);
        writeln!(rounds, "{ROUNDS_CSV_HEADER}")?;
        Ok(CellMetricsSink {
            events,
            rounds,
            line: String::new(),
            error,
        })
    }

    /// Write `event` as one JSON line with a leading `"type": kind` entry.
    fn write_event(&mut self, kind: &str, event: &impl Serialize) {
        // Engine events are named-field structs holding only finite
        // floats: the writer cannot fail, and the event is an object
        // whose opening `{` becomes the comma after the tag entry.
        let line = &mut self.line;
        line.clear();
        line.push_str("{\"type\":\"");
        line.push_str(kind);
        line.push('"');
        let start = line.len();
        to_json_into(event, line).expect("event serializes");
        debug_assert!(line[start..].starts_with("{\""), "{line}");
        line.replace_range(start..=start, ",");
        line.push('\n');
        if let Err(e) = self.events.write_all(line.as_bytes()) {
            record_error(&self.error, "writing events.jsonl", &e);
        }
    }
}

impl MetricsSink for CellMetricsSink {
    fn on_job(&mut self, event: &JobEvent) {
        self.write_event("job", event);
    }

    fn on_round(&mut self, event: &RoundEvent) {
        let row = &mut self.line;
        row.clear();
        let _ = writeln!(
            row,
            "{},{},{},{},{},{}",
            event.round,
            event.executed_rounds,
            event.t,
            event.running,
            event.waiting,
            event.finished
        );
        if let Err(e) = self.rounds.write_all(row.as_bytes()) {
            record_error(&self.error, "writing rounds.csv", &e);
        }
    }

    fn on_serving_batch(&mut self, event: &ServingBatchEvent) {
        self.write_event("serving_batch", event);
    }
}

impl Drop for CellMetricsSink {
    fn drop(&mut self) {
        if let Err(e) = self.events.flush() {
            record_error(&self.error, "flushing events.jsonl", &e);
        }
        if let Err(e) = self.rounds.flush() {
            record_error(&self.error, "flushing rounds.csv", &e);
        }
    }
}

/// Per-cell metrics layout under one directory: the factory side of
/// [`pal_sim::Campaign::metrics_sinks`].
///
/// Each cell gets `cell<index>_<scenario>_<policy>.events.jsonl` and
/// `….rounds.csv` (tag and policy sanitized for the filesystem). Clones
/// share the error slot, so keep one handle to interrogate with
/// [`first_error`](MetricsDir::first_error) after the campaign run:
///
/// ```no_run
/// # fn demo(campaign: pal_sim::Campaign) -> Result<(), Box<dyn std::error::Error>> {
/// use pal_config::MetricsDir;
///
/// let metrics = MetricsDir::create("metrics-out")?;
/// let factory = metrics.clone();
/// let results = campaign
///     .metrics_sinks(move |cell| factory.sink_for(cell))
///     .run()?;
/// if let Some(err) = metrics.first_error() {
///     eprintln!("metrics incomplete: {err}");
/// }
/// # Ok(()) }
/// ```
#[derive(Clone)]
pub struct MetricsDir {
    dir: PathBuf,
    error: ErrorSlot,
}

impl MetricsDir {
    /// Create `dir` (and parents) if needed and return the factory.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(MetricsDir {
            dir,
            error: Arc::default(),
        })
    }

    /// The file-name stem used for `cell` (without extension).
    fn stem(cell: &CellInfo) -> String {
        let sanitize = |s: &str| -> String {
            s.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        };
        format!(
            "cell{:04}_{}_{}",
            cell.index,
            sanitize(&cell.scenario),
            sanitize(&cell.policy)
        )
    }

    /// Open the file pair for `cell`. Returns `None` (and records the
    /// error) if the files cannot be created — the cell then runs
    /// unobserved rather than not at all.
    pub fn sink_for(&self, cell: &CellInfo) -> Option<Box<dyn MetricsSink + Send>> {
        let stem = Self::stem(cell);
        let events = self.dir.join(format!("{stem}.events.jsonl"));
        let rounds = self.dir.join(format!("{stem}.rounds.csv"));
        match CellMetricsSink::create(&events, &rounds, Arc::clone(&self.error)) {
            Ok(sink) => Some(Box::new(sink)),
            Err(e) => {
                record_error(&self.error, &format!("creating {}", events.display()), &e);
                None
            }
        }
    }

    /// The first I/O error any sink from this directory hit, if any.
    pub fn first_error(&self) -> Option<String> {
        self.error.lock().expect("metrics error slot").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use pal_cluster::{ClusterTopology, JobClass, VariabilityProfile};
    use pal_gpumodel::Workload;
    use pal_sim::{Campaign, PolicySpec, Scenario};
    use pal_trace::{JobId, JobSpec, Trace};
    use serde::Value;

    fn campaign(metrics: &MetricsDir) -> Campaign {
        let factory = metrics.clone();
        Campaign::new()
            .seed(77)
            .scenario("stream", || {
                let jobs = (0..5)
                    .map(|i| JobSpec {
                        id: JobId(i),
                        model: Workload::ResNet50,
                        class: JobClass(i as usize % 3),
                        arrival: i as f64 * 200.0,
                        gpu_demand: 1 + i as usize % 2,
                        iterations: 300 + 100 * i as u64,
                        base_iter_time: 1.0,
                    })
                    .collect::<Vec<_>>();
                Scenario::new(Trace::new("stream-test", jobs), ClusterTopology::new(2, 4))
                    .profile(VariabilityProfile::from_raw(vec![vec![1.2; 8]; 3]))
            })
            .policy(PolicySpec::new("Packed", |_, _| {
                Box::new(pal_sim::placement::PackedPlacement::deterministic())
            }))
            .metrics_sinks(move |cell| factory.sink_for(cell))
    }

    #[test]
    fn campaign_streams_deterministic_event_and_round_files() {
        let dir = std::env::temp_dir().join("pal_config_metrics_test");
        std::fs::remove_dir_all(&dir).ok();
        let metrics = MetricsDir::create(&dir).unwrap();
        let results = campaign(&metrics).run().unwrap();
        assert_eq!(metrics.first_error(), None);
        assert_eq!(results.len(), 1);

        let stem = MetricsDir::stem(&CellInfo {
            index: 0,
            scenario: "stream".into(),
            policy: "Packed".into(),
            seed: results[0].seed,
        });
        let events = std::fs::read_to_string(dir.join(format!("{stem}.events.jsonl"))).unwrap();
        let rounds = std::fs::read_to_string(dir.join(format!("{stem}.rounds.csv"))).unwrap();

        // Every line parses; finishes match the result's job records.
        let mut finished = 0;
        for line in events.lines() {
            let v = parse_json(line).expect("every event line is valid JSON");
            assert!(v.get("type").is_some(), "{line}");
            if v.get("kind") == Some(&Value::Str("Finished".into())) {
                finished += 1;
            }
        }
        assert_eq!(finished, results[0].result.records.len());

        // CSV: header plus one row per executed round.
        let mut lines = rounds.lines();
        assert_eq!(lines.next(), Some(ROUNDS_CSV_HEADER));
        assert_eq!(lines.count(), results[0].result.executed_rounds);

        // Byte-identical on re-run: events carry only simulated state.
        let metrics2 = MetricsDir::create(&dir).unwrap();
        campaign(&metrics2).run().unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join(format!("{stem}.events.jsonl"))).unwrap(),
            events
        );
        assert_eq!(
            std::fs::read_to_string(dir.join(format!("{stem}.rounds.csv"))).unwrap(),
            rounds
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_line_bytes_are_pinned() {
        // Captured from the tree-building writer this one replaced.
        let dir = std::env::temp_dir().join("pal_config_metrics_golden");
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("cell.events.jsonl");
        let mut sink =
            CellMetricsSink::create(&events, &dir.join("cell.rounds.csv"), Arc::default()).unwrap();
        sink.on_job(&JobEvent {
            t: 1234.5,
            job: JobId(7),
            kind: pal_sim::JobEventKind::Finished,
        });
        sink.on_serving_batch(&ServingBatchEvent {
            workload: "chat \"x\"".into(),
            start: 0.1,
            finish: 2.0,
            batch_size: 3,
            slo_met: 2,
            queued: 0,
        });
        drop(sink);
        assert_eq!(
            std::fs::read_to_string(&events).unwrap(),
            concat!(
                r#"{"type":"job","t":1234.5,"job":7,"kind":"Finished"}"#,
                "\n",
                r#"{"type":"serving_batch","workload":"chat \"x\"","start":0.1,"finish":2,"#,
                r#""batch_size":3,"slo_met":2,"queued":0}"#,
                "\n"
            )
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stems_are_filesystem_safe() {
        let stem = MetricsDir::stem(&CellInfo {
            index: 3,
            scenario: "philly@x1.5/serving".into(),
            policy: "PAL (adaptive)".into(),
            seed: 1,
        });
        assert_eq!(stem, "cell0003_philly_x1.5_serving_PAL__adaptive_");
    }
}
