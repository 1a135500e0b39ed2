//! Fixed-seed mutation fuzz over spill directories: `palsim resume`
//! reads `manifest.jsonl` and `results.jsonl` back from disk, so every
//! corruption of a real spill must make `resume_spilled` return a typed
//! spill error (`ConfigError::Spill`), or the results of the
//! uninterrupted run — never panic, and never different results.
//!
//! The seed is a finished four-cell spill. Each mutation corrupts one of
//! its two files: truncation, a flipped digit, a cell or line index set
//! out of range, or two lines' seeds, tags or policy names swapped.

use pal_config::spill::MANIFEST_FILE;
use pal_config::{
    build_campaign, parse_campaign_str, resume_spilled, run_spilled, ConfigError, Registry,
};
use pal_sim::{Campaign, CampaignResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

const MUTATIONS: usize = 300;

const RESULTS: &str = "results.jsonl";

/// Replacements for a manifest `cell` or `line` index (the campaign has
/// four cells, and the results file four lines).
const OUT_OF_RANGE: &[&str] = &[
    "4",
    "1000",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1.5",
    "1e3",
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

/// A 2 × 2 grid of small cells on one worker.
fn campaign() -> Campaign {
    let text = r#"
        profile = { kind = "flat", classes = 3, value = 1.2 }
        policy = ["random", "tiresias"]

        [campaign]
        name = "spill-fuzz"
        seed = 5
        max_parallelism = 1

        [cluster]
        nodes = 2
        gpus_per_node = 4

        [[scenario]]
        tag = "grid"
        trace = { kind = "synergy", num_jobs = 6, jobs_per_hour = 30.0 }
        loads = [1.0, 2.0]

        [sim]
        round_duration = 300.0
    "#;
    let file = parse_campaign_str(text, "spill-fuzz.toml").expect("parse");
    build_campaign(&file, &Registry::with_builtins(), Path::new(".")).expect("build")
}

/// Byte span of the value of the first `"key":` in `line`: a string with
/// its quotes, or a bare value up to the next `,` or `}`.
fn value_span(line: &str, key: &str) -> Option<(usize, usize)> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[start..];
    let len = if let Some(body) = rest.strip_prefix('"') {
        body.find('"')? + 2
    } else {
        rest.find([',', '}'])?
    };
    Some((start, start + len))
}

/// Replace the `key` value of line `at` with `value`.
fn set_value(lines: &mut [String], at: usize, key: &str, value: &str) -> bool {
    let Some((start, end)) = value_span(&lines[at], key) else {
        return false;
    };
    lines[at].replace_range(start..end, value);
    true
}

/// One seeded corruption of a spill, as `(manifest, results, what)`.
fn mutate(manifest: &str, results: &str, rng: &mut Rng) -> (String, String, String) {
    let mut files = [manifest.to_string(), results.to_string()];
    let f = rng.below(2);
    let name = [MANIFEST_FILE, RESULTS][f];
    let what = match rng.below(4) {
        0 => {
            let at = rng.below(files[f].len());
            files[f].truncate(at);
            format!("{name} truncated at byte {at}")
        }
        1 => {
            let digits: Vec<usize> = files[f]
                .bytes()
                .enumerate()
                .filter(|(_, b)| b.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            let at = digits[rng.below(digits.len())];
            let digit = char::from(b'0' + rng.below(10) as u8);
            files[f].replace_range(at..=at, &digit.to_string());
            format!("{name} digit at byte {at} set to {digit}")
        }
        2 => {
            let mut lines: Vec<String> = files[0].lines().map(str::to_string).collect();
            let at = rng.below(lines.len());
            let key = ["cell", "line"][rng.below(2)];
            let value = OUT_OF_RANGE[rng.below(OUT_OF_RANGE.len())];
            assert!(
                set_value(&mut lines, at, key, value),
                "manifest has `{key}`"
            );
            files[0] = lines.join("\n") + "\n";
            format!("{MANIFEST_FILE} line {at}: `{key}` set to {value}")
        }
        _ => {
            let mut lines: Vec<String> = files[f].lines().map(str::to_string).collect();
            let (a, b) = (rng.below(lines.len()), rng.below(lines.len()));
            let key = ["seed", "scenario", "policy"][rng.below(3)];
            let (sa, ea) = value_span(&lines[a], key).expect("every line has the key");
            let (sb, eb) = value_span(&lines[b], key).expect("every line has the key");
            let (va, vb) = (lines[a][sa..ea].to_string(), lines[b][sb..eb].to_string());
            set_value(&mut lines, a, key, &vb);
            set_value(&mut lines, b, key, &va);
            files[f] = lines.join("\n") + "\n";
            format!("{name} lines {a} and {b}: `{key}` swapped")
        }
    };
    let [manifest, results] = files;
    (manifest, results, what)
}

/// Whether `resumed` is the uninterrupted run's results, cell for cell.
fn same_results(resumed: &[CampaignResult], full: &[CampaignResult]) -> bool {
    resumed.len() == full.len()
        && resumed.iter().zip(full).all(|(a, b)| {
            (&a.scenario, &a.policy, a.seed) == (&b.scenario, &b.policy, b.seed)
                && a.result.same_outcome(&b.result)
        })
}

#[test]
fn mutated_spills_resume_to_the_same_results_or_a_typed_error() {
    let campaign = campaign();
    let root = std::env::temp_dir().join(format!("pal_spill_fuzz_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let (_, full) = run_spilled(&campaign, &root.join("seed")).expect("seed spill runs");
    assert_eq!(full.len(), 4);
    let read = |name: &str| std::fs::read_to_string(root.join("seed").join(name)).unwrap();
    let (manifest, results) = (read(MANIFEST_FILE), read(RESULTS));

    let mut rng = Rng(0x5B11_0001);
    let (mut resumed, mut refused) = (0, 0);
    for i in 0..MUTATIONS {
        let (m, r, what) = mutate(&manifest, &results, &mut rng);
        let dir = root.join(format!("m{i}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), m).unwrap();
        std::fs::write(dir.join(RESULTS), r).unwrap();
        match catch_unwind(AssertUnwindSafe(|| resume_spilled(&campaign, &dir))) {
            Ok(Ok((_, got))) => {
                assert!(
                    same_results(&got, &full),
                    "mutation {i} resumed to different results: {what}"
                );
                resumed += 1;
            }
            Ok(Err(ConfigError::Spill { .. })) => refused += 1,
            Ok(Err(other)) => {
                panic!("mutation {i} failed outside the spill check: {what}: {other}")
            }
            Err(_) => panic!("mutation {i} panicked: {what}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&root).ok();
    // Both outcomes must actually occur, or the fuzz tests nothing.
    assert!(resumed > MUTATIONS / 10, "only {resumed} resumed");
    assert!(refused > MUTATIONS / 10, "only {refused} refused");
}
