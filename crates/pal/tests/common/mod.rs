//! Randomness and cluster fixtures shared by the placement oracles.

use pal_cluster::{ClusterTopology, VariabilityProfile};
use pal_gpumodel::{profiler, ClusterFlavor, GpuSpec, Workload};

/// SplitMix64: the case's private randomness, derived from one seed.
pub struct Mix(pub u64);

impl Mix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Three topology families: one node, 4-GPU nodes, and nodes wider than
/// one 64-bit word (multi-word bitset spans).
pub fn topology(shape: usize, rng: &mut Mix) -> ClusterTopology {
    match shape {
        0 => ClusterTopology::new(1, 2 + rng.below(15)),
        1 => ClusterTopology::new(1 + rng.below(24), 4),
        _ => ClusterTopology::new(1 + rng.below(3), 65 + rng.below(70)),
    }
}

/// Modeled Longhorn V100s (binned by the policy's default K-Means), or a
/// hand-made palette with many exact ties and a few far outliers.
pub fn profile(n: usize, longhorn: bool, seed: u64, rng: &mut Mix) -> VariabilityProfile {
    if longhorn {
        let gpus = profiler::build_cluster_gpus(&GpuSpec::v100(), ClusterFlavor::Longhorn, n, seed);
        let apps: Vec<_> = Workload::TABLE_III.iter().map(|w| w.spec()).collect();
        return VariabilityProfile::from_modeled_gpus(&apps, &gpus);
    }
    const PALETTE: [f64; 6] = [0.9, 1.0, 1.0, 1.05, 1.3, 1.3];
    let class = |rng: &mut Mix| -> Vec<f64> {
        (0..n)
            .map(|_| match rng.below(20) {
                0 => 2.6,
                1 => 4.0 + rng.unit(),
                _ => PALETTE[rng.below(PALETTE.len())],
            })
            .collect()
    };
    VariabilityProfile::from_raw(vec![class(rng), class(rng), class(rng)])
}
