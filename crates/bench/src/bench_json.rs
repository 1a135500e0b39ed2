//! Machine-readable benchmark output: `BENCH_engine.json` at the
//! repository root, tracking the perf trajectory across PRs.
//!
//! The vendored criterion shim records every reported measurement
//! (`criterion::take_measurements`); benches with a custom `main` hand
//! them here and [`update`] merges them into the JSON file as one section
//! per bench binary, leaving other sections untouched:
//!
//! ```json
//! {
//!   "engine_rounds": { "engine_full_run/synergy_300jobs/low_4jph": 1.2e9 },
//!   "placement_hot_path": { "single_place/PAL/256": 85.0 }
//! }
//! ```
//!
//! The file is read with `pal-config`'s JSON reader into that two-level
//! `string → string → number` shape, and written in one canonical layout
//! — sections and keys sorted, one key per line — which keeps the
//! committed file diff-friendly.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Sections of the benchmark file: bench name → (label → median ns/iter
/// or other scalar).
pub type BenchSections = BTreeMap<String, BTreeMap<String, f64>>;

/// Merge `entries` in as section `section` of the JSON file at `path`
/// (replacing that section, preserving the others) and rewrite the file.
/// A missing file starts empty; a *malformed* file is an error — silently
/// treating it as empty would discard every other bench's history, which
/// is exactly what the file exists to preserve.
pub fn update(path: &Path, section: &str, entries: &[(String, f64)]) -> io::Result<()> {
    let mut sections = match std::fs::read_to_string(path) {
        Ok(text) => parse_text(&text).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} is not in bench_json's canonical shape; fix or delete it \
                     before re-running the bench",
                    path.display()
                ),
            )
        })?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => BenchSections::default(),
        Err(e) => return Err(e),
    };
    sections.insert(
        section.to_string(),
        entries.iter().cloned().collect::<BTreeMap<_, _>>(),
    );
    std::fs::write(path, render(&sections))
}

/// [`update`] against the workspace root's `BENCH_engine.json` (the file
/// CI's bench-smoke job refreshes).
pub fn update_workspace(section: &str, entries: &[(String, f64)]) -> io::Result<()> {
    update(&workspace_path(), section, entries)
}

/// The workspace root's `BENCH_engine.json`.
pub fn workspace_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")
}

/// Read and parse a bench file in the canonical two-level shape.
pub fn load(path: &Path) -> io::Result<BenchSections> {
    let text = std::fs::read_to_string(path)?;
    parse_text(&text).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not in bench_json's canonical shape", path.display()),
        )
    })
}

/// Parse bench-file text in the two-level shape (e.g. a committed
/// baseline read out of `git show`); `None` when malformed.
pub fn parse_text(text: &str) -> Option<BenchSections> {
    pal_config::from_json(text).ok()
}

/// Render the canonical form: sorted sections, sorted keys, one per line.
fn render(sections: &BenchSections) -> String {
    let mut out = String::from("{\n");
    for (si, (section, entries)) in sections.iter().enumerate() {
        out.push_str(&format!("  {:?}: {{\n", section));
        for (ki, (key, value)) in entries.iter().enumerate() {
            let comma = if ki + 1 < entries.len() { "," } else { "" };
            out.push_str(&format!("    {:?}: {}{}\n", key, fmt_num(*value), comma));
        }
        let comma = if si + 1 < sections.len() { "," } else { "" };
        out.push_str(&format!("  }}{}\n", comma));
    }
    out.push_str("}\n");
    out
}

/// Format a scalar so it round-trips through [`parse_text`] (always includes a
/// decimal point or exponent; JSON-compatible).
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_creates_and_merges_sections() {
        let dir = std::env::temp_dir().join("pal_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);

        update(&path, "b", &[("x/1".into(), 10.0), ("x/2".into(), 2.5e6)]).unwrap();
        update(&path, "a", &[("y".into(), 1.0)]).unwrap();
        // Overwrite one section; the other survives.
        update(&path, "b", &[("x/1".into(), 11.0)]).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let sections = parse_text(&text).expect("canonical output parses");
        assert_eq!(sections.len(), 2);
        assert_eq!(sections["a"]["y"], 1.0);
        assert_eq!(sections["b"].len(), 1);
        assert_eq!(sections["b"]["x/1"], 11.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn render_parse_roundtrip() {
        let mut sections = BenchSections::new();
        sections.insert(
            "s".into(),
            [("k".to_string(), 123.456), ("l".to_string(), 7.0)]
                .into_iter()
                .collect(),
        );
        sections.insert("empty".into(), BTreeMap::new());
        let text = render(&sections);
        assert_eq!(parse_text(&text).as_ref(), Some(&sections));
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(parse_text("not json").is_none());
        assert!(parse_text("{\"a\": {").is_none());
        assert_eq!(parse_text("{}").map(|s| s.len()), Some(0));
    }

    #[test]
    fn update_refuses_to_clobber_a_malformed_file() {
        let dir = std::env::temp_dir().join("pal_bench_json_malformed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_bad.json");
        std::fs::write(&path, "<<<<<<< merge conflict").unwrap();
        let err = update(&path, "s", &[("k".into(), 1.0)]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The malformed content survives for the operator to inspect.
        assert!(std::fs::read_to_string(&path).unwrap().contains("merge"));
        std::fs::remove_file(&path).unwrap();
    }

    /// The committed file is already in the canonical layout, so reading
    /// and rendering it gives back the same bytes.
    #[test]
    fn committed_bench_file_renders_back_byte_for_byte() {
        let text =
            std::fs::read_to_string(workspace_path()).expect("BENCH_engine.json is committed");
        let sections = parse_text(&text).expect("committed BENCH_engine.json parses");
        assert_eq!(render(&sections), text);
    }

    /// The committed repo-root BENCH_engine.json must stay parseable —
    /// this is what keeps the cross-PR perf trajectory readable (and what
    /// CI relies on: `cargo test` runs before the bench-smoke steps
    /// regenerate the file).
    #[test]
    fn committed_bench_file_parses() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
        let text = std::fs::read_to_string(&path).expect("BENCH_engine.json is committed");
        let sections = parse_text(&text).expect("committed BENCH_engine.json parses");
        for bench in [
            "engine_rounds",
            "placement_hot_path",
            "serving_latency",
            "observer_overhead",
        ] {
            assert!(
                sections.contains_key(bench),
                "BENCH_engine.json lost its {bench} section"
            );
        }
    }
}
