//! Fixed-seed mutation fuzz over campaign files: a campaign file is user
//! input, so every numeric edit of a committed one must either be refused
//! with a typed error or build a campaign that passes
//! [`Campaign::validate`](pal_sim::Campaign::validate) — never panic.
//!
//! The seeds are every `configs/**/*.toml`. Each mutation replaces one
//! numeric token (outside strings and comments) with a zero, a negative,
//! a fraction, a tiny or huge float, an out-of-range integer, and the
//! like, then runs the file through `parse_campaign_str`,
//! `build_campaign` and `validate`, the path `palsim check` takes.
//!
//! Size keys (`nodes`, `gpus_per_node`, `classes`, `num_jobs`,
//! `num_requests`, `replicas`, and `max_parallelism`) only get values at
//! or below 10⁴: building a campaign allocates in proportion to them (a
//! profile is classes × GPUs scores, a trace holds `num_jobs` specs), so
//! a larger value would make this test allocate large amounts of memory
//! rather than find a missing check.

use pal_cluster::VariabilityProfile;
use pal_config::{build_campaign, parse_campaign_str, Registry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const MUTATIONS: usize = 400;

/// Keys whose value sizes an allocation; see the module docs.
const SIZE_KEYS: &[&str] = &[
    "nodes",
    "gpus_per_node",
    "classes",
    "num_jobs",
    "num_requests",
    "replicas",
    "max_parallelism",
];

/// Replacements for a size key: all at or below 10⁴.
const SIZE_SWAPS: &[&str] = &["0", "-1", "1", "2", "7", "10000", "0.5", "1e-308", "-0.0"];

/// Replacements for any other numeric value.
const SWAPS: &[&str] = &[
    "0",
    "-0.0",
    "-1",
    "0.5",
    "1",
    "1.5",
    "9",
    "1e-308",
    "5e-324",
    "1e308",
    "1.7976931348623157e308",
    "inf",
    "-inf",
    "nan",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
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

/// Every `.toml` under `dir`, subdirectories included, sorted by path.
fn toml_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read configs dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files.extend(toml_files(&path));
        } else if path.extension().is_some_and(|e| e == "toml") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// Byte spans of the numeric tokens of a TOML text, skipping strings and
/// `#` comments: a digit, or a sign before one, through the following
/// digits, `.`, `_`, exponent and exponent sign.
fn numeric_tokens(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            c if c.is_ascii_digit()
                || (c == b'-' && b.get(i + 1).is_some_and(u8::is_ascii_digit)) =>
            {
                let start = i;
                i += 1;
                while i < b.len()
                    && (b[i].is_ascii_digit()
                        || matches!(b[i], b'.' | b'_' | b'e' | b'E')
                        || (matches!(b[i], b'+' | b'-') && matches!(b[i - 1], b'e' | b'E')))
                {
                    i += 1;
                }
                spans.push((start, i));
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                // A bare key or word (`gpus_per_node`, `true`): digits in
                // it are not numbers.
                while i < b.len() && (b[i].is_ascii_alphanumeric() || matches!(b[i], b'_' | b'-')) {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    spans
}

/// The key a value at byte `at` belongs to: the bare word before the
/// last `=` ahead of it (`loads` for every element of `loads = [..]`).
fn key_of(text: &str, at: usize) -> &str {
    let Some(eq) = text[..at].rfind('=') else {
        return "";
    };
    let head = text[..eq].trim_end();
    let start = head
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
        .map_or(0, |i| i + 1);
    &head[start..]
}

/// The builtin registry plus a stand-in for the Longhorn profile the
/// paper-figure files use (registered downstream, in `pal-bench`): flat
/// scores sized to the cluster.
fn registry() -> Registry {
    let mut registry = Registry::with_builtins();
    registry.register_profile("longhorn", |args, ctx| {
        let _: Option<u64> = args.get("seed")?;
        Ok(VariabilityProfile::from_raw(vec![vec![1.0; ctx.gpus]; 3]))
    });
    registry
}

/// One committed campaign file to mutate.
struct Seed {
    /// Path from the repository root, for messages.
    name: String,
    /// The file's directory: relative trace paths resolve against it.
    dir: PathBuf,
    text: String,
    /// Byte spans of its numeric tokens.
    spans: Vec<(usize, usize)>,
}

/// Parse, build and validate `text` as `palsim check` would; `Err` is the
/// typed refusal, `Ok` a valid campaign.
fn check(text: &str, name: &str, base_dir: &Path, registry: &Registry) -> Result<(), String> {
    let file = parse_campaign_str(text, name).map_err(|e| e.to_string())?;
    let campaign = build_campaign(&file, registry, base_dir).map_err(|e| e.to_string())?;
    campaign.validate().map_err(|e| e.to_string())
}

#[test]
fn mutated_campaign_files_are_refused_or_valid() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs");
    let registry = registry();
    let seeds: Vec<Seed> = toml_files(&root)
        .into_iter()
        .map(|path| {
            let name = path.strip_prefix(&root).unwrap_or(&path).display();
            let text = std::fs::read_to_string(&path).expect("read config");
            Seed {
                name: format!("configs/{name}"),
                dir: path.parent().expect("file in a directory").to_path_buf(),
                spans: numeric_tokens(&text),
                text,
            }
        })
        .collect();
    assert!(seeds.len() >= 10, "found {} campaign files", seeds.len());
    for seed in &seeds {
        let name = &seed.name;
        if let Err(e) = check(&seed.text, name, &seed.dir, &registry) {
            panic!("{name} does not build unmutated: {e}");
        }
        assert!(!seed.spans.is_empty(), "{name} has no numbers to mutate");
    }

    let mut rng = Rng(0xC0F1_0001);
    let (mut valid, mut refused) = (0, 0);
    for i in 0..MUTATIONS {
        let Seed {
            name,
            dir,
            text,
            spans,
        } = &seeds[rng.below(seeds.len())];
        let (start, end) = spans[rng.below(spans.len())];
        let key = key_of(text, start);
        let swaps = if SIZE_KEYS.contains(&key) {
            SIZE_SWAPS
        } else {
            SWAPS
        };
        let value = swaps[rng.below(swaps.len())];
        let mut mutated = text.clone();
        mutated.replace_range(start..end, value);
        let what = format!(
            "{name}: `{key}` value `{}` at byte {start} set to `{value}`",
            &text[start..end]
        );
        match catch_unwind(AssertUnwindSafe(|| check(&mutated, name, dir, &registry))) {
            Ok(Ok(())) => valid += 1,
            Ok(Err(_)) => refused += 1,
            Err(_) => panic!("mutation {i} panicked: {what}"),
        }
    }
    // Both outcomes must actually occur, or the fuzz tests nothing.
    assert!(valid > MUTATIONS / 10, "only {valid} valid");
    assert!(refused > MUTATIONS / 10, "only {refused} refused");
}
