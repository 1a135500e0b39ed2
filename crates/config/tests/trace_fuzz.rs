//! Fixed-seed mutation fuzz over trace imports: a trace file is
//! untrusted input, so every corruption of a real trace must fail to
//! build with a typed error or run to a result or a typed error — never
//! panic.
//!
//! The seeds are the committed `philly_sample.csv` (read by the
//! `philly-csv` importer), `jobs_sample.jsonl` (`jsonl`), and the same
//! JSONL jobs written as a native `csv` trace. Each gets seeded
//! mutations: truncation, a flipped digit, a deleted byte, or one field
//! swapped for `inf`, `NaN`, `-1`, a huge number, and the like. Every
//! mutated file runs through the campaign builder and the result
//! summary, like `palsim run`.

use pal_config::{build_campaign, parse_campaign_str, read_jsonl_trace, Registry};
use pal_trace::write_trace_csv;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

const MUTATIONS_PER_SEED: usize = 600;

const PHILLY: &str = include_str!("../../../configs/data/philly_sample.csv");
const JSONL: &str = include_str!("../../../configs/data/jobs_sample.jsonl");

/// Replacements for one field.
const SWAPS: &[&str] = &[
    "inf",
    "-inf",
    "NaN",
    "1e309",
    "1e300",
    "-1",
    "0",
    "0.5",
    "1e-300",
    "4294967296",
    "18446744073709551615",
    "340282366920938463463374607431768211456",
    "",
    "x",
    "\"x\"",
    "null",
];

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

/// Byte ranges of the fields of a CSV or JSONL text: maximal runs
/// between separators (JSON keys included; a swapped key is an unknown
/// field).
fn field_spans(text: &str) -> Vec<(usize, usize)> {
    let is_sep = |b: u8| matches!(b, b',' | b'\n' | b':' | b'{' | b'}' | b' ');
    let b = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if is_sep(b[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && !is_sep(b[i]) {
            i += 1;
        }
        spans.push((start, i));
    }
    spans
}

/// One seeded corruption of `text`, with a description for failures.
fn mutate(text: &str, spans: &[(usize, usize)], rng: &mut Rng) -> (String, String) {
    let mut out = text.to_string();
    match rng.below(4) {
        0 => {
            let at = rng.below(text.len());
            out.truncate(at);
            (out, format!("truncated at byte {at}"))
        }
        1 => {
            let digits: Vec<usize> = text
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
            let at = rng.below(text.len());
            out.remove(at);
            (out, format!("byte {at} deleted"))
        }
        _ => {
            let (start, end) = spans[rng.below(spans.len())];
            let swap = SWAPS[rng.below(SWAPS.len())];
            let was = text[start..end].to_string();
            out.replace_range(start..end, swap);
            (
                out,
                format!("field `{was}` at byte {start} swapped for `{swap}`"),
            )
        }
    }
}

/// A one-scenario campaign over the trace at `path` (relative to the
/// campaign's directory), with a short round cap so a trace that
/// imports but can never finish ends in a livelock error quickly.
fn campaign_text(kind: &str, path: &str) -> String {
    format!(
        r#"
        profile = {{ kind = "flat", classes = 3, value = 1.15 }}
        scheduler = "fifo"
        policy = ["pal"]

        [campaign]
        name = "trace-fuzz"
        seed = 3
        max_parallelism = 1

        [cluster]
        nodes = 2
        gpus_per_node = 8

        [sim]
        max_rounds = 2000

        [[scenario]]
        tag = "fuzz"
        trace = {{ kind = "{kind}", path = "{path}" }}
        "#
    )
}

/// Import and run `text` as a `kind` trace, then compute the summary
/// `palsim run` prints; true when it ran to a result, false for a typed
/// error anywhere on the way.
fn import_and_run(dir: &Path, kind: &str, file: &str, text: &str) -> bool {
    std::fs::write(dir.join(file), text).expect("write mutated trace");
    let config = parse_campaign_str(&campaign_text(kind, file), "<fuzz>").expect("campaign parses");
    let Ok(campaign) = build_campaign(&config, &Registry::with_builtins(), dir) else {
        return false;
    };
    let Ok(results) = campaign.run() else {
        return false;
    };
    for r in &results {
        if !r.result.records.is_empty() {
            black_box((r.result.avg_jct(), r.result.p99_jct()));
        }
        black_box((
            r.result.makespan(),
            r.result.utilization(),
            r.result.occupancy(),
            r.result.total_migrations(),
        ));
    }
    true
}

fn fuzz(kind: &str, file: &str, text: &str, seed: u64) {
    let dir = std::env::temp_dir().join(format!("pal_trace_fuzz_{kind}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create fuzz dir");
    assert!(
        import_and_run(&dir, kind, file, text),
        "{kind}: the unmutated seed must run"
    );
    let spans = field_spans(text);
    let mut rng = Rng(seed);
    let mut ran = 0;
    for i in 0..MUTATIONS_PER_SEED {
        let (doc, what) = mutate(text, &spans, &mut rng);
        match catch_unwind(AssertUnwindSafe(|| import_and_run(&dir, kind, file, &doc))) {
            Ok(ok) => ran += usize::from(ok),
            Err(_) => panic!("{kind} mutation {i} panicked: {what}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    // The fuzz must get past the importer and into the engine.
    assert!(ran > MUTATIONS_PER_SEED / 10, "{kind}: only {ran} ran");
}

#[test]
fn mutated_philly_csv_never_panics() {
    fuzz("philly-csv", "philly.csv", PHILLY, 0x7ACE_0001);
}

#[test]
fn mutated_jsonl_never_panics() {
    fuzz("jsonl", "jobs.jsonl", JSONL, 0x7ACE_0002);
}

#[test]
fn mutated_native_csv_never_panics() {
    let trace = read_jsonl_trace("jobs", JSONL.as_bytes()).expect("sample parses");
    let mut csv = Vec::new();
    write_trace_csv(&trace, &mut csv).expect("write native csv");
    let csv = String::from_utf8(csv).expect("csv is UTF-8");
    fuzz("csv", "jobs.csv", &csv, 0x7ACE_0003);
}
