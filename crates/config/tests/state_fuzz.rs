//! Fixed-seed mutation fuzz over state files: a state file is untrusted
//! input, so every corruption of a real exported state must read back as
//! a typed error, import as a typed error, or import and run to a typed
//! outcome — never panic.
//!
//! The seeds are two exported states: a two-job training run paused
//! mid-job, and a run with a seeded Random placement (opaque RNG state)
//! and a serving deployment paused mid-stream. Each gets 1,000 seeded
//! mutations: truncation, a flipped digit, a deleted byte, or one scalar
//! value swapped for `null`, `-1`, `1e309`, a huge integer, and the like.
//! The serving state's position — the `arrived` and `completed` indices
//! into its request log — is also set to every pair of values around the
//! log's ends and the exported position.

use pal_cluster::{ClusterTopology, JobClass};
use pal_config::{state_from_json, state_to_json};
use pal_gpumodel::Workload;
use pal_sim::placement::RandomPlacement;
use pal_sim::{Scenario, ServingJob, SimConfig, SimError};
use pal_trace::{JobId, JobSpec, ServingWorkload, Trace};
use std::panic::{catch_unwind, AssertUnwindSafe};

const MUTATIONS_PER_SEED: usize = 1_000;

/// Replacements for one scalar value.
const SWAPS: &[&str] = &[
    "null",
    "-1",
    "0",
    "1e309",
    "-1e309",
    "1e300",
    "1.7e308",
    "4294967295",
    "340282366920938463463374607431768211456",
    "18446744073709551616",
    "99999999999999999999",
    "0.5",
    "true",
    "\"x\"",
    "[]",
    "{}",
];

fn spec(id: u32, arrival: f64, demand: usize, ideal_secs: f64) -> JobSpec {
    JobSpec {
        id: JobId(id),
        model: Workload::ResNet50,
        class: JobClass::A,
        arrival,
        gpu_demand: demand,
        iterations: ideal_secs as u64,
        base_iter_time: 1.0,
    }
}

/// A short round cap, so a mutated state that imports cleanly but can
/// never finish ends in a livelock error quickly.
fn capped() -> SimConfig {
    SimConfig {
        max_rounds: 2_000,
        ..SimConfig::default()
    }
}

fn two_job_scenario() -> Scenario {
    Scenario::new(
        Trace::new(
            "step",
            vec![spec(0, 0.0, 2, 700.0), spec(1, 100.0, 2, 400.0)],
        ),
        ClusterTopology::new(1, 4),
    )
    .config(capped())
}

fn serving_scenario() -> Scenario {
    let w = ServingWorkload {
        work_median_s: 0.01,
        work_sigma: 0.2,
        slo_s: 0.5,
        ..ServingWorkload::poisson("chat", 0.5, 400)
    };
    Scenario::new(
        Trace::new(
            "mix",
            vec![spec(0, 0.0, 2, 900.0), spec(1, 200.0, 1, 500.0)],
        ),
        ClusterTopology::new(2, 4),
    )
    .placement(RandomPlacement::new(11))
    .serving(ServingJob::new(w, 1, 1))
    .config(capped())
}

/// splitmix64: a fixed-seed stream, so every run fuzzes the same inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Byte ranges of the scalar values in a canonical JSON line (strings
/// included; keys are strings followed by `:` and are left alone).
fn scalar_spans(json: &str) -> Vec<(usize, usize)> {
    let b = json.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        match b[i] {
            b'"' => {
                i += 1;
                while b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
                if b.get(i) != Some(&b':') {
                    spans.push((start, i));
                }
            }
            b'-' | b'0'..=b'9' | b't' | b'f' | b'n' => {
                while i < b.len() && !matches!(b[i], b',' | b']' | b'}') {
                    i += 1;
                }
                spans.push((start, i));
            }
            _ => i += 1,
        }
    }
    spans
}

/// One seeded corruption of `json`, with a description for failures.
fn mutate(json: &str, spans: &[(usize, usize)], rng: &mut Rng) -> (String, String) {
    let mut out = json.to_string();
    match rng.below(4) {
        0 => {
            let at = rng.below(json.len());
            out.truncate(at);
            (out, format!("truncated at byte {at}"))
        }
        1 => {
            let digits: Vec<usize> = json
                .bytes()
                .enumerate()
                .filter(|(_, b)| b.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            let at = digits[rng.below(digits.len())];
            let digit = char::from(b'0' + rng.below(10) as u8);
            out.replace_range(at..=at, &digit.to_string());
            (out, format!("digit at byte {at} set to {digit}"))
        }
        2 => {
            let at = rng.below(json.len());
            out.remove(at);
            (out, format!("byte {at} deleted"))
        }
        _ => {
            let (start, end) = spans[rng.below(spans.len())];
            let swap = SWAPS[rng.below(SWAPS.len())];
            let was = json[start..end].to_string();
            out.replace_range(start..end, swap);
            (
                out,
                format!("value `{was}` at byte {start} swapped for `{swap}`"),
            )
        }
    }
}

/// Export `scenario` after `steps` rounds, then feed it every mutation.
fn fuzz(name: &str, scenario: fn() -> Scenario, steps: usize, seed: u64) {
    let mut sim = scenario().start().unwrap();
    for _ in 0..steps {
        sim.step().unwrap();
    }
    let json = state_to_json(&sim.export_state()).unwrap();
    assert!(json.is_ascii(), "mutations index bytes");
    let spans = scalar_spans(&json);
    let mut rng = Rng(seed);
    let (mut read, mut imported) = (0, 0);
    for i in 0..MUTATIONS_PER_SEED {
        let (doc, what) = mutate(&json, &spans, &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(state) = state_from_json("fuzz.state.json", &doc) else {
                return (false, false);
            };
            let mut sim = scenario().start().unwrap();
            match sim.import_state(&state) {
                Err(SimError::StateImport { .. }) => (true, false),
                Err(other) => panic!("import failed with a non-import error: {other}"),
                Ok(()) => {
                    // An accepted state must run to a result or a typed
                    // error.
                    let _ = sim.run_to_completion();
                    (true, true)
                }
            }
        }));
        match outcome {
            Ok((r, imp)) => {
                read += usize::from(r);
                imported += usize::from(imp);
            }
            Err(_) => panic!("{name} mutation {i} panicked: {what}"),
        }
    }
    // The fuzz must reach the importer and, past it, the engine.
    assert!(read > MUTATIONS_PER_SEED / 10, "{name}: only {read} parsed");
    assert!(imported > 0, "{name}: no mutation imported");
}

#[test]
fn mutated_training_states_never_panic() {
    fuzz("two-job", two_job_scenario, 1, 0x5EED_0001);
}

#[test]
fn mutated_serving_states_never_panic() {
    fuzz("serving", serving_scenario, 2, 0x5EED_0002);
}

/// Requests in [`serving_scenario`]'s stream.
const SERVING_TOTAL: u64 = 400;

#[test]
fn serving_positions_around_the_stream_end_never_panic() {
    let mut sim = serving_scenario().start().unwrap();
    for _ in 0..2 {
        sim.step().unwrap();
    }
    let state = sim.export_state();
    let (completed, arrived) = (state.serving[0].completed, state.serving[0].arrived);
    assert!(
        0 < completed && arrived < SERVING_TOTAL,
        "stream is mid-flight"
    );
    let mut values: Vec<u64> = [0, completed, arrived, SERVING_TOTAL]
        .iter()
        .flat_map(|&v| [v.saturating_sub(1), v, v + 1])
        .chain([u64::MAX])
        .collect();
    values.sort_unstable();
    values.dedup();
    let (mut imported, mut refused) = (0, 0);
    for &arrived in &values {
        for &completed in &values {
            let mut mutated = state.clone();
            let d = &mut mutated.serving[0];
            d.arrived = arrived;
            d.completed = completed;
            // Stretch or cut the latency log to `completed`, so the
            // position checks, not the latency count, decide.
            if completed <= SERVING_TOTAL + 1 {
                d.latencies.resize(completed as usize, 0.25);
                d.slo_met = d.slo_met.min(completed);
            }
            let doc = state_to_json(&mutated).unwrap();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let back = state_from_json("positions.state.json", &doc).unwrap();
                let mut sim = serving_scenario().start().unwrap();
                match sim.import_state(&back) {
                    Err(SimError::StateImport { .. }) => false,
                    Err(other) => panic!("import failed with a non-import error: {other}"),
                    Ok(()) => {
                        let _ = sim.run_to_completion();
                        true
                    }
                }
            }));
            match outcome {
                Ok(true) => imported += 1,
                Ok(false) => refused += 1,
                Err(_) => panic!("arrived {arrived}, completed {completed} panicked"),
            }
        }
    }
    assert!(imported > 0, "no position imported");
    assert!(refused > 0, "no position refused");
}
