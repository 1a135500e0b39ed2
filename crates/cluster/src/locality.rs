//! The two-level locality cost model of Section III-C.1.
//!
//! A multi-GPU job pays `L_across` on its iteration time when its allocation
//! spills across nodes and `L_within = 1.0` when fully packed. The paper
//! initially estimated `L_across ≈ 1.7` on Frontera from 4-GPU vs 8-GPU
//! ResNet-50 runs, later refined to per-model penalties; both forms are
//! supported here.

use crate::ids::GpuId;
use crate::topology::ClusterTopology;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Locality penalty model: a default inter-node penalty plus optional
/// per-model overrides (Section IV-D measured model-dependent penalties on
/// the physical cluster).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalityModel {
    /// Penalty multiplier for allocations that stay within one node.
    /// Always 1.0 in the paper's model; kept explicit for clarity.
    pub l_within: f64,
    /// Default penalty multiplier for allocations spanning nodes.
    pub l_across: f64,
    /// Per-model overrides of `l_across`, keyed by model name.
    pub per_model: HashMap<String, f64>,
}

impl LocalityModel {
    /// Uniform model with the given inter-node penalty.
    pub fn uniform(l_across: f64) -> Self {
        assert!(l_across >= 1.0, "locality penalty must be >= 1.0");
        LocalityModel {
            l_within: 1.0,
            l_across,
            per_model: HashMap::new(),
        }
    }

    /// Per-model penalties estimated from the paper's physical experiments
    /// ("inter-node communication costs are not as high on Frontera, and are
    /// also model-dependent", Section IV-D). Communication-heavy models pay
    /// more; PointNet's small point-cloud gradients pay the least.
    pub fn frontera_per_model() -> Self {
        let mut m = LocalityModel::uniform(1.3);
        for (model, pen) in [
            ("vgg19", 1.45),
            ("dcgan", 1.25),
            ("bert", 1.30),
            ("gpt2", 1.35),
            ("resnet50", 1.20),
            ("pointnet", 1.10),
        ] {
            m.per_model.insert(model.to_string(), pen);
        }
        m
    }

    /// Set a per-model override.
    pub fn with_model_penalty(mut self, model: &str, l_across: f64) -> Self {
        assert!(l_across >= 1.0, "locality penalty must be >= 1.0");
        self.per_model.insert(model.to_string(), l_across);
        self
    }

    /// The inter-node penalty that applies to `model` (falls back to the
    /// default when no override exists).
    pub fn l_across_for(&self, model: &str) -> f64 {
        self.per_model.get(model).copied().unwrap_or(self.l_across)
    }

    /// Penalty multiplier for a concrete allocation of `model` on `topo`:
    /// `l_within` if packed in one node (or a single/empty allocation),
    /// `l_across_for(model)` otherwise.
    pub fn penalty(&self, topo: &ClusterTopology, model: &str, gpus: &[GpuId]) -> f64 {
        if topo.spans_nodes(gpus) {
            self.l_across_for(model)
        } else {
            self.l_within
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_allocation_pays_nothing() {
        let t = ClusterTopology::new(2, 4);
        let m = LocalityModel::uniform(1.5);
        assert_eq!(m.penalty(&t, "resnet50", &[GpuId(0), GpuId(1)]), 1.0);
        assert_eq!(m.penalty(&t, "resnet50", &[GpuId(2)]), 1.0);
    }

    #[test]
    fn spread_allocation_pays_l_across() {
        let t = ClusterTopology::new(2, 4);
        let m = LocalityModel::uniform(1.5);
        assert_eq!(m.penalty(&t, "resnet50", &[GpuId(0), GpuId(4)]), 1.5);
    }

    #[test]
    fn per_model_override_wins() {
        let t = ClusterTopology::new(2, 4);
        let m = LocalityModel::uniform(1.5).with_model_penalty("bert", 1.2);
        assert_eq!(m.penalty(&t, "bert", &[GpuId(0), GpuId(4)]), 1.2);
        assert_eq!(m.penalty(&t, "vgg19", &[GpuId(0), GpuId(4)]), 1.5);
    }

    #[test]
    fn frontera_per_model_covers_table2() {
        let m = LocalityModel::frontera_per_model();
        for model in ["pointnet", "vgg19", "dcgan", "bert", "resnet50", "gpt2"] {
            assert!(m.l_across_for(model) >= 1.0);
        }
        // Unknown models fall back to the default.
        assert_eq!(m.l_across_for("unknown_model"), m.l_across);
    }

    #[test]
    #[should_panic(expected = "must be >= 1.0")]
    fn sub_unity_penalty_panics() {
        LocalityModel::uniform(0.9);
    }

    #[test]
    fn penalty_of_locality_1_is_free_even_across_nodes() {
        // Figure 13's C1.0 point: no locality cost at all.
        let t = ClusterTopology::new(2, 4);
        let m = LocalityModel::uniform(1.0);
        assert_eq!(m.penalty(&t, "x", &[GpuId(0), GpuId(7)]), 1.0);
    }
}
