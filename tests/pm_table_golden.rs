//! Golden digests for PM-score table construction: per class, the chosen
//! K and an FNV-1a digest over the bits of `scores`, `levels`, `level_of`
//! and `outlier_indices`. Everything a placement decision reads from a
//! table is pinned; the informational `silhouette` value is not, so the
//! silhouette kernel may change its floating-point summation order as
//! long as the K it selects does not move.
//!
//! The table covers the sampled Longhorn profiles the figure binaries use
//! (64 and 448 GPUs) and a modeled 1,000-GPU Longhorn, where inlier
//! counts are large enough for the fast kernels' code paths to matter.

use pal::PmScoreTable;
use pal_bench::{longhorn_profile, modeled_longhorn_profile, PROFILE_SEED};
use pal_cluster::{JobClass, VariabilityProfile};
use pal_kmeans::BinnedScores;

/// `(profile, per-class (K, digest))`, captured from the O(n²)
/// silhouette and `Vec<Vec<f64>>` Lloyd implementation.
const GOLDEN: [(&str, [(usize, u64); 3]); 3] = [
    (
        "longhorn_64",
        [
            (4, 0xF8EC_DF0B_89E1_BEEA),
            (4, 0x5A62_F1A8_C58E_5E60),
            (2, 0x5287_EB7B_F1CA_5EBE),
        ],
    ),
    (
        "longhorn_448",
        [
            (2, 0x7CE4_C9D2_B628_0055),
            (2, 0x8413_17C2_C705_B002),
            (2, 0x74D1_E864_44DB_96BD),
        ],
    ),
    (
        "modeled_1000",
        [
            (3, 0xA610_C187_3422_F3CA),
            (3, 0x91E2_D706_D239_34FD),
            (2, 0xE3E0_3DF3_F3F0_FDB2),
        ],
    ),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn digest(b: &BinnedScores) -> u64 {
    let mut h = Fnv::new();
    h.u64(b.scores.len() as u64);
    for &s in &b.scores {
        h.u64(s.to_bits());
    }
    h.u64(b.levels.len() as u64);
    for &l in &b.levels {
        h.u64(l.to_bits());
    }
    for &i in &b.level_of {
        h.u64(i as u64);
    }
    h.u64(b.outlier_indices.len() as u64);
    for &i in &b.outlier_indices {
        h.u64(i as u64);
    }
    h.0
}

fn profile(name: &str) -> VariabilityProfile {
    match name {
        "longhorn_64" => longhorn_profile(64, PROFILE_SEED),
        "longhorn_448" => longhorn_profile(448, PROFILE_SEED),
        "modeled_1000" => modeled_longhorn_profile(1000, PROFILE_SEED),
        _ => unreachable!("unknown golden profile {name}"),
    }
}

#[test]
fn pm_tables_match_golden() {
    let mut actual = Vec::new();
    for (name, _) in GOLDEN {
        let table = PmScoreTable::build_default(&profile(name));
        let per_class: Vec<(usize, u64)> = (0..table.num_classes())
            .map(|c| {
                let b = table.binned(JobClass(c));
                (b.k, digest(b))
            })
            .collect();
        actual.push((name, per_class));
    }
    let rendered: Vec<String> = actual
        .iter()
        .map(|(name, per_class)| {
            let cells: Vec<String> = per_class
                .iter()
                .map(|(k, d)| format!("({k}, 0x{d:016X})"))
                .collect();
            format!("(\"{name}\", [{}]),", cells.join(", "))
        })
        .collect();
    for ((name, expected), (_, got)) in GOLDEN.iter().zip(&actual) {
        assert_eq!(
            expected.as_slice(),
            got.as_slice(),
            "PM-score table for {name} moved; actual table:\n{}",
            rendered.join("\n")
        );
    }
}
