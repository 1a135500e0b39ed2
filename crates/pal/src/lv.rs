//! The L×V matrix (Section III-C.1).
//!
//! Rows are locality levels (`L_within = 1.0`, `L_across`), columns the
//! class's distinct binned PM-score levels. Each entry's value is the
//! LV-product — the combined slowdown a job would suffer from that
//! (locality, variability) combination. PAL traverses entries in ascending
//! LV-product order, taking the first that admits a feasible allocation.
//!
//! The matrix holds 2 × (#PM-score levels) entries, and that count grows
//! with the cluster: every outlier score is its own level, so classes A
//! and B have 5–6 levels on 64 modeled Longhorn GPUs, 78 on 2,500 and 303
//! on 10,000. [`PalPlacement`](crate::PalPlacement) therefore never builds
//! one: it finds the first feasible entry of each row with a binary search
//! over the levels. `LvMatrix` is the reference that choice is tested
//! against and the table `examples/profile_and_classify.rs` prints.

use serde::{Deserialize, Serialize};

/// Which locality row an entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocalityLevel {
    /// Allocation packed within one node.
    Within,
    /// Allocation spanning nodes.
    Across,
}

/// One L×V matrix entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LvEntry {
    /// The locality row.
    pub locality: LocalityLevel,
    /// The locality multiplier of that row.
    pub l_value: f64,
    /// The PM-score column value (bin centroid or outlier score).
    pub v_value: f64,
    /// `l_value × v_value` — the combined slowdown to minimize.
    pub product: f64,
}

/// A class-specific L×V matrix with a precomputed traversal order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LvMatrix {
    entries: Vec<LvEntry>,
}

impl LvMatrix {
    /// Build from a class's sorted PM-score levels and the two locality
    /// multipliers. Entries are sorted by ascending LV-product at
    /// construction; ties resolve Within before Across (packing is free to
    /// prefer when products are equal), then lower V first.
    pub fn new(levels: &[f64], l_within: f64, l_across: f64) -> Self {
        assert!(!levels.is_empty(), "L×V matrix needs at least one V level");
        assert!(
            l_within > 0.0 && l_across >= l_within,
            "bad locality values"
        );
        let mut entries = Vec::with_capacity(levels.len() * 2);
        for &(locality, l) in &[
            (LocalityLevel::Within, l_within),
            (LocalityLevel::Across, l_across),
        ] {
            for &v in levels {
                entries.push(LvEntry {
                    locality,
                    l_value: l,
                    v_value: v,
                    product: l * v,
                });
            }
        }
        // The key is a strict total order (levels are distinct, and `v`
        // breaks every tie the rounded products leave), so the unstable
        // sort is deterministic.
        entries.sort_unstable_by(|a, b| {
            a.product
                .partial_cmp(&b.product)
                .expect("NaN LV product")
                .then_with(|| {
                    let rank = |e: &LvEntry| match e.locality {
                        LocalityLevel::Within => 0,
                        LocalityLevel::Across => 1,
                    };
                    rank(a).cmp(&rank(b))
                })
                .then(a.v_value.partial_cmp(&b.v_value).expect("NaN V"))
        });
        LvMatrix { entries }
    }

    /// Entries in ascending LV-product (traversal) order.
    pub fn traverse(&self) -> impl Iterator<Item = &LvEntry> {
        self.entries.iter()
    }

    /// Number of entries (2 × levels).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the matrix is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from Section III-C.1: V = [0.89, 0.94, 1.06,
    /// 2.55], L_across = 1.5.
    fn paper_matrix() -> LvMatrix {
        LvMatrix::new(&[0.89, 0.94, 1.06, 2.55], 1.0, 1.5)
    }

    #[test]
    fn paper_traversal_order() {
        let m = paper_matrix();
        let order: Vec<(f64, f64)> = m.traverse().map(|e| (e.l_value, e.product)).collect();
        // (1, 0.89) -> (1, 0.94) -> (1, 1.06) -> (1.5, 1.335) -> (1.5, 1.41)
        // -> (1.5, 1.59) -> (1, 2.55) -> (1.5, 3.825)
        // NOTE: the paper's prose skips the (1, 2.55) entry in its example
        // listing, but by the min-LV-product rule a packed allocation on the
        // 2.55 bin (product 2.55) precedes the spread 2.55 allocation
        // (product 3.825) — our traversal is strictly product-ordered.
        let expected_products = [0.89, 0.94, 1.06, 1.335, 1.41, 1.59, 2.55, 3.825];
        for (i, &(_, p)) in order.iter().enumerate() {
            assert!(
                (p - expected_products[i]).abs() < 1e-9,
                "entry {i}: product {p}, expected {}",
                expected_products[i]
            );
        }
    }

    #[test]
    fn within_entries_precede_their_across_twins() {
        let m = paper_matrix();
        let entries: Vec<&LvEntry> = m.traverse().collect();
        for v in [0.89, 0.94, 1.06, 2.55] {
            let wi = entries
                .iter()
                .position(|e| e.locality == LocalityLevel::Within && (e.v_value - v).abs() < 1e-12)
                .unwrap();
            let ai = entries
                .iter()
                .position(|e| e.locality == LocalityLevel::Across && (e.v_value - v).abs() < 1e-12)
                .unwrap();
            assert!(wi < ai, "within({v}) must precede across({v})");
        }
    }

    #[test]
    fn products_nondecreasing() {
        let m = paper_matrix();
        let prods: Vec<f64> = m.traverse().map(|e| e.product).collect();
        for w in prods.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn locality_one_ties_resolve_within_first() {
        // With L_across = 1.0 every (within, v) ties with (across, v); the
        // within entry must come first so PAL still prefers packing.
        let m = LvMatrix::new(&[1.0, 1.2], 1.0, 1.0);
        let first_two: Vec<LocalityLevel> = m.traverse().take(2).map(|e| e.locality).collect();
        assert_eq!(first_two[0], LocalityLevel::Within);
        assert_eq!(first_two[1], LocalityLevel::Across);
    }

    #[test]
    fn spread_allocation_beats_terrible_bin() {
        // The paper's point: (1.5, 1.59) precedes packed (1.0, 2.55).
        let m = paper_matrix();
        let prods: Vec<(f64, f64)> = m.traverse().map(|e| (e.l_value, e.v_value)).collect();
        let spread_idx = prods
            .iter()
            .position(|&(l, v)| l == 1.5 && (v - 1.06).abs() < 1e-12)
            .unwrap();
        let packed_bad_idx = prods
            .iter()
            .position(|&(l, v)| l == 1.0 && (v - 2.55).abs() < 1e-12)
            .unwrap();
        assert!(spread_idx < packed_bad_idx);
    }

    #[test]
    fn size_is_twice_levels() {
        assert_eq!(paper_matrix().len(), 8);
    }

    #[test]
    #[should_panic(expected = "bad locality values")]
    fn across_below_within_panics() {
        LvMatrix::new(&[1.0], 1.0, 0.9);
    }
}
