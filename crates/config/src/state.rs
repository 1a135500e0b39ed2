//! On-disk persistence for [`SimState`] — canonical-JSON state files
//! behind pause-resume and `palsim what-if`.
//!
//! A state file is one line of canonical JSON ([`to_json`]) plus a
//! trailing newline. Canonical means deterministic bytes for a given
//! state — fields in declaration order, shortest-round-trip floats — so
//! the same exported state always serializes to the same file and two
//! states can be compared by comparing bytes (the what-if smoke test
//! relies on this).
//!
//! [`load_state`] checks [`STATE_FORMAT_VERSION`] *before* deserializing
//! the rest of the document: a future-format file fails with a clear
//! "written by a newer version" diagnostic instead of a confusing
//! missing-field error from whatever the schema happens to be today.

use crate::error::ConfigError;
use crate::json::{parse_json, to_json};
use pal_sim::{SimState, STATE_FORMAT_VERSION};
use serde::{Deserialize, Value};
use std::path::Path;

/// Serialize `state` as one line of canonical JSON.
///
/// Infallible for real exported states (every float in engine state is
/// finite); returns the writer's error otherwise.
pub fn state_to_json(state: &SimState) -> Result<String, String> {
    to_json(state)
}

/// Write `state` to `path` as canonical JSON (one line + trailing
/// newline). Overwrites any existing file.
pub fn save_state(path: impl AsRef<Path>, state: &SimState) -> Result<(), ConfigError> {
    let path = path.as_ref();
    let line = state_to_json(state).map_err(|message| ConfigError::Schema {
        file: path.display().to_string(),
        message,
    })?;
    std::fs::write(path, line + "\n").map_err(|source| ConfigError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Parse a state document from JSON text, checking the format version.
///
/// `file` names the source in diagnostics (a path, or a synthetic name
/// for in-memory input).
pub fn state_from_json(file: &str, src: &str) -> Result<SimState, ConfigError> {
    let value = parse_json(src).map_err(|e| ConfigError::Syntax {
        file: file.to_string(),
        line: e.line,
        col: e.col,
        message: e.message,
    })?;
    // Version first: a mismatched file should say so, not fail on
    // whatever field the current schema misses.
    match value.get("version") {
        Some(&Value::Int(v)) if v == i128::from(STATE_FORMAT_VERSION) => {}
        Some(&Value::Int(v)) => {
            return Err(ConfigError::Schema {
                file: file.to_string(),
                message: format!(
                    "state format v{v} is not supported (this build reads \
                     v{STATE_FORMAT_VERSION}); the file was written by a \
                     different version"
                ),
            })
        }
        _ => {
            return Err(ConfigError::Schema {
                file: file.to_string(),
                message: "not a state file: missing integer `version` field".to_string(),
            })
        }
    }
    SimState::from_value(&value).map_err(|e| ConfigError::Schema {
        file: file.to_string(),
        message: e.to_string(),
    })
}

/// Read a [`SimState`] from a canonical-JSON state file.
pub fn load_state(path: impl AsRef<Path>) -> Result<SimState, ConfigError> {
    let path = path.as_ref();
    let src = std::fs::read_to_string(path).map_err(|source| ConfigError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    state_from_json(&path.display().to_string(), &src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pal_cluster::{ClusterTopology, JobClass};
    use pal_gpumodel::Workload;
    use pal_sim::{Scenario, ServingJob, SimError};
    use pal_trace::{JobId, JobSpec, ServingWorkload, Trace};

    fn spec(id: u32, arrival: f64, demand: usize, ideal_secs: f64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            model: Workload::ResNet50,
            class: JobClass::A,
            arrival,
            gpu_demand: demand,
            iterations: ideal_secs.max(1.0) as u64,
            base_iter_time: 1.0,
        }
    }

    fn exported_state() -> SimState {
        let trace = Trace::new("pair", vec![spec(0, 0.0, 2, 40.0), spec(1, 150.0, 1, 80.0)]);
        let mut sim = Scenario::new(trace, ClusterTopology::new(2, 2))
            .start()
            .expect("scenario should start");
        sim.step().expect("step should succeed");
        sim.export_state()
    }

    #[test]
    fn save_load_round_trips_exactly() {
        let state = exported_state();
        let dir = std::env::temp_dir().join("pal_config_state_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        save_state(&path, &state).expect("save should succeed");
        let back = load_state(&path).expect("load should succeed");
        assert_eq!(back, state);
        // Canonical writer: re-saving the loaded state reproduces the
        // file byte for byte.
        let bytes = std::fs::read(&path).unwrap();
        save_state(&path, &back).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn state_bytes_are_pinned() {
        // Captured from the tree-building writer this one replaced; the
        // wall-clock compute times are fixed so the bytes are too.
        let mut state = exported_state();
        state.placement_compute_times = vec![2.5e-6, 0.125];
        assert_eq!(
            state_to_json(&state).unwrap(),
            concat!(
                r#"{"version":3,"trace":"pair","trace_jobs":2,"trace_digest":10072191973144045054,"#,
                r#""scheduler":"FIFO","placement":"Packed","sticky":false,"time":300,"rounds":1,"#,
                r#""executed_rounds":1,"finished":1,"next_admit":1,"active_queue":[],"active_demand":0,"#,
                r#""jobs":[{"phase":{"Finished":{"at":40}},"remaining_work":0,"attained_service":80,"#,
                r#""first_start":0,"migrations":0,"preemptions":0}],"rejected":[],"#,
                r#""cluster":{"topology":{"nodes":2,"gpus_per_node":2},"in_use":[false,false,false,false],"#,
                r#""free_total":4,"free_per_node":[2,2],"view":{"words":[3,3],"words_per_node":1,"#,
                r#""gpus_per_node":2,"nodes":2}},"gpus_in_use":{"initial":0,"points":[[0,2],[40,0]]},"#,
                r#""busy_gpu_seconds":80,"placement_compute_times":[0.0000025,0.125],"#,
                r#""placement_state":null,"serving":[]}"#
            )
        );
    }

    #[test]
    fn negative_zero_latency_file_is_refused_on_import() {
        // `-0.0` survives the file round trip; the import must refuse it,
        // since the bit-pattern latency sort would report it as the max.
        let scenario = || {
            let w = ServingWorkload {
                work_median_s: 0.01,
                slo_s: 0.5,
                ..ServingWorkload::poisson("chat", 0.5, 50)
            };
            Scenario::new(
                Trace::new("pair", vec![spec(0, 0.0, 1, 900.0)]),
                ClusterTopology::new(2, 2),
            )
            .serving(ServingJob::new(w, 1, 1))
        };
        let mut sim = scenario().start().unwrap();
        sim.step().unwrap();
        let mut state = sim.export_state();
        assert!(!state.serving[0].latencies.is_empty());
        state.serving[0].latencies[0] = -0.0;
        let back = state_from_json("mem.json", &state_to_json(&state).unwrap()).unwrap();
        assert_eq!(back.serving[0].latencies[0].to_bits(), (-0.0f64).to_bits());
        let err = scenario().start().unwrap().import_state(&back).unwrap_err();
        assert!(matches!(err, SimError::StateImport { .. }), "{err}");
        assert!(err.to_string().contains("latency -0.0"), "{err}");
    }

    #[test]
    fn version_mismatch_is_a_clear_error() {
        let state = exported_state();
        let line = state_to_json(&state).unwrap();
        let current = format!("\"version\":{STATE_FORMAT_VERSION}");
        let future = line.replacen(&current, "\"version\":999", 1);
        assert_ne!(future, line, "version field should be present");
        let err = state_from_json("mem.json", &future).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("v999"), "{msg}");
        assert!(msg.contains("different version"), "{msg}");
    }

    #[test]
    fn v1_documents_get_the_version_error() {
        // The v1 layout: every job's spec and runtime state, and one
        // rejection flag per job.
        let v1 = r#"{"version":1,"trace":"pair","scheduler":"FIFO","placement":"Packed",
            "sticky":false,"time":300,"rounds":1,"executed_rounds":1,"finished":0,
            "next_admit":1,"active_queue":[0],"active_demand":2,
            "jobs":[{"spec":{"id":0,"model":"ResNet50","class":0,"arrival":0,
            "gpu_demand":2,"iterations":40,"base_iter_time":1},"phase":"Waiting",
            "remaining_work":40,"attained_service":0,"first_start":null,
            "migrations":0,"preemptions":0}],"rejected":[false]}"#;
        let msg = state_from_json("v1.json", v1).unwrap_err().to_string();
        assert!(msg.contains("state format v1 is not supported"), "{msg}");
        assert!(msg.contains("different version"), "{msg}");
    }

    #[test]
    fn v2_documents_get_the_version_error() {
        // The v2 serving layout: every queued request and the stream's
        // one-request lookahead, beside the counters.
        let v2 = r#"{"version":2,"trace":"mix","trace_jobs":0,"trace_digest":1,
            "serving":[{"workload":"chat","gpus":1,"arrived":2,
            "next":{"id":2,"arrival":3.5,"work":0.01,"deadline":4.0},
            "queue":[{"id":1,"arrival":1.5,"work":0.01,"deadline":2.0}],
            "completed":1,"batches":1,"slo_met":1,"latencies":[0.02],
            "first_arrival":0.5,"last_finish":0.52,
            "replicas":[{"slowdown":1,"free_at":0.52}]}]}"#;
        let msg = state_from_json("v2.json", v2).unwrap_err().to_string();
        assert!(msg.contains("state format v2 is not supported"), "{msg}");
        assert!(msg.contains("different version"), "{msg}");
    }

    #[test]
    fn non_state_documents_are_rejected_up_front() {
        let err = state_from_json("mem.json", r#"{"seed": 1}"#).unwrap_err();
        assert!(err.to_string().contains("not a state file"), "{err}");

        let err = state_from_json("mem.json", "{oops").unwrap_err();
        assert!(matches!(err, ConfigError::Syntax { .. }), "{err}");
    }

    #[test]
    fn missing_file_reports_path() {
        let err = load_state("/nonexistent/dir/state.json").unwrap_err();
        assert!(matches!(err, ConfigError::Io { .. }), "{err}");
        assert!(err.to_string().contains("state.json"), "{err}");
    }
}
