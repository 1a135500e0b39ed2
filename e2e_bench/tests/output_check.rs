//! The output check catches wrong outcomes, and the traced run passes the
//! same check as the untraced one. Runs the benchmark binary on
//! `paper_grid`, its cheapest workload, for the minimum repetitions.

use std::path::Path;
use std::process::Command;

struct Run {
    success: bool,
    last_line: String,
}

fn run_paper_grid(extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
        .args(["--workload", "paper_grid", "--seed", "1", "--seconds", "0"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Run {
        success: out.status.success(),
        last_line: stdout.lines().last().unwrap_or_default().to_string(),
    }
}

/// The integer after `"key": ` in the result line.
fn count(line: &str, key: &str) -> u64 {
    let pattern = format!("\"{key}\": ");
    let rest = &line[line.find(&pattern).expect("key in result line") + pattern.len()..];
    rest.split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .expect("integer value")
}

#[test]
fn wrong_expected_digest_fails_the_run() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/paper_grid.tsv");
    let text = std::fs::read_to_string(golden).expect("recorded digests");
    let (first, rest) = text.split_once('\n').expect("at least one cell");
    let (cell, digest) = first.rsplit_once('\t').expect("digest column");
    let flipped = if digest.ends_with('0') { "1" } else { "0" };
    let wrong = format!("{cell}\t{}{flipped}\n{rest}", &digest[..digest.len() - 1]);
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper_grid.wrong.tsv");
    std::fs::write(&path, wrong).expect("write wrong digests");

    let run = run_paper_grid(&[
        "--trace",
        "0",
        "--golden",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(!run.success, "a wrong digest must fail the run");
    assert!(
        run.last_line.contains("\"correct\": false"),
        "{}",
        run.last_line
    );
    // One wrong cell per repetition.
    assert!(count(&run.last_line, "failed") >= 3, "{}", run.last_line);
}

#[test]
fn traced_run_passes_the_untraced_check() {
    let run = run_paper_grid(&["--trace", "1"]);
    assert!(run.success, "{}", run.last_line);
    assert!(
        run.last_line.contains("\"correct\": true"),
        "{}",
        run.last_line
    );
    assert_eq!(count(&run.last_line, "failed"), 0);
    for metric in [
        "engine.step_s",
        "placement.share",
        "spill.write_s",
        "bench.trace_overhead",
    ] {
        assert!(
            run.last_line.contains(&format!("\"{metric}\"")),
            "{metric} missing"
        );
    }
}
