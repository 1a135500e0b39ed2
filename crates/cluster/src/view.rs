//! [`ClusterView`]: the long-lived, incrementally maintained free-GPU view
//! placement policies consume.
//!
//! The seed policies rebuilt cluster state per decision —
//! `free_gpus_by_node()` materialized a fresh `Vec<Vec<GpuId>>` on every
//! `place` call, the dominant cost of the paper's own overhead experiment
//! (Figure 18) once the engine round loop itself became allocation-free.
//! The view inverts that: [`ClusterState`](crate::ClusterState) keeps
//! per-node free lists up to date on every `allocate`/`release` (exactly
//! like its incremental free *counters*), and policies borrow them for the
//! lifetime of a simulation instead of re-deriving them per decision.
//!
//! The free lists are stored as **fixed-width bitsets**: every node owns
//! the same number of 64-bit words (`ceil(gpus_per_node / 64)`), bit `i`
//! of a node's span set exactly when local GPU `i` is free. Allocate and
//! release are single bit flips (the `Vec` representation paid an
//! O(gpus_per_node) shift per op), membership order is GPU-id ascending by
//! construction, and consumers that want raw speed can scan a node
//! word-at-a-time via [`NodeFree::words`] instead of walking ids.
//!
//! [`ClassOrders`] is the companion cache for score-driven policies: one
//! lazily built, per-class ordering of *all* GPUs by ascending score.
//! Selecting the best free GPUs then degenerates to walking the ordering
//! and skipping busy devices — no per-call sort, no per-call allocation.
//! Each class also keeps a cursor: the position of the first GPU the last
//! walk found free, stamped with the state's
//! [`OccupancyToken`](crate::OccupancyToken). Every GPU before it is busy
//! until the next release, so while the token still matches a walk starts
//! at the cursor instead of re-skipping the GPUs earlier placements took.
//! An ordering is built once and never changes: a policy whose scores
//! drift (Adaptive-PAL's online re-bin) builds a new policy, and with it
//! a new, empty `ClassOrders`.

use crate::ids::{GpuId, NodeId};
use crate::state::{ClusterState, OccupancyToken};
use crate::topology::ClusterTopology;
use serde::{Deserialize, Serialize};

/// Per-node free-GPU bitsets, fixed-width (same word count per node),
/// maintained incrementally by [`ClusterState`](crate::ClusterState) on
/// every allocate/release.
///
/// Obtained via [`ClusterState::view`](crate::ClusterState::view); nodes
/// with no free GPUs are present as all-zero spans so indices align with
/// node ids. Iteration over a node ([`NodeFree`]) yields GPU ids
/// ascending — the exact order the earlier sorted-`Vec` representation
/// exposed, so policies are bit-for-bit indifferent to the layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterView {
    /// Free bits, node-major: node `n` owns
    /// `words[n * words_per_node .. (n + 1) * words_per_node]`.
    words: Vec<u64>,
    /// Words per node: `ceil(gpus_per_node / 64)`, identical for every
    /// node (the fixed width that makes node spans directly indexable).
    words_per_node: usize,
    gpus_per_node: usize,
    nodes: usize,
}

impl ClusterView {
    /// All-free view for a topology.
    pub(crate) fn all_free(topology: &ClusterTopology) -> Self {
        let gpn = topology.gpus_per_node;
        let wpn = gpn.div_ceil(64).max(1);
        let mut words = vec![0u64; topology.nodes * wpn];
        for n in 0..topology.nodes {
            for i in 0..gpn {
                words[n * wpn + i / 64] |= 1u64 << (i % 64);
            }
        }
        ClusterView {
            words,
            words_per_node: wpn,
            gpus_per_node: gpn,
            nodes: topology.nodes,
        }
    }

    /// Number of nodes in the view.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The free GPUs of one node, ascending by GPU id. O(1), borrowed:
    /// returns a [`NodeFree`] handle over the node's bitset span.
    pub fn node_free(&self, node: NodeId) -> NodeFree<'_> {
        let n = node.index();
        NodeFree {
            words: &self.words[n * self.words_per_node..(n + 1) * self.words_per_node],
            base: (n * self.gpus_per_node) as u32,
        }
    }

    /// Per-node free sets in node order (all-zero spans included so
    /// indices align with node ids).
    pub fn per_node(&self) -> impl Iterator<Item = NodeFree<'_>> {
        (0..self.nodes).map(|n| self.node_free(NodeId(n as u32)))
    }

    /// GPUs per node.
    pub fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    /// 64-bit words per node span: `ceil(gpus_per_node / 64)`.
    pub fn words_per_node(&self) -> usize {
        self.words_per_node
    }

    /// Every node's raw bitset span in node order (the per-node
    /// [`NodeFree::words`], without building a handle per node), for
    /// consumers that sweep the whole cluster word-at-a-time.
    pub fn node_spans(&self) -> std::slice::ChunksExact<'_, u64> {
        self.words.chunks_exact(self.words_per_node)
    }

    /// Every free GPU, ascending by GPU id (node-major happens to *be*
    /// id-ascending because nodes own contiguous id ranges).
    pub fn free_iter(&self) -> impl Iterator<Item = GpuId> + '_ {
        self.per_node().flatten()
    }

    /// Clear `gpu`'s free bit. Panics if it was not set — the caller
    /// ([`ClusterState`](crate::ClusterState)) has already ruled out
    /// double allocation.
    pub(crate) fn on_allocate(&mut self, node: NodeId, gpu: GpuId) {
        let (wi, bit) = self.locate(node, gpu);
        assert!(self.words[wi] & bit != 0, "view missing free GPU");
        self.words[wi] &= !bit;
    }

    /// Set `gpu`'s free bit. Panics if it was already set.
    pub(crate) fn on_release(&mut self, node: NodeId, gpu: GpuId) {
        let (wi, bit) = self.locate(node, gpu);
        assert!(self.words[wi] & bit == 0, "view already holds released GPU");
        self.words[wi] |= bit;
    }

    /// Word index and bit mask of one GPU within its node's span.
    fn locate(&self, node: NodeId, gpu: GpuId) -> (usize, u64) {
        let local = gpu.index() - node.index() * self.gpus_per_node;
        debug_assert!(local < self.gpus_per_node, "GPU outside its node span");
        (
            node.index() * self.words_per_node + local / 64,
            1u64 << (local % 64),
        )
    }
}

/// One node's free-GPU set: a borrowed view over the node's bitset span.
///
/// Iterating yields free GPU ids ascending (word-at-a-time scan with
/// `trailing_zeros`, so a fully-busy 64-GPU span costs one load). Cheap to
/// copy — two words — and [`Copy`] so callers can pass it by value.
#[derive(Debug, Clone, Copy)]
pub struct NodeFree<'a> {
    words: &'a [u64],
    base: u32,
}

impl<'a> NodeFree<'a> {
    /// Number of free GPUs on the node (popcount over the span).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the node has no free GPUs.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Free GPU ids of the node, ascending.
    pub fn iter(&self) -> NodeFreeIter<'a> {
        NodeFreeIter {
            words: self.words,
            wi: 0,
            cur: self.words.first().copied().unwrap_or(0),
            base: self.base,
        }
    }

    /// The raw bitset words of the node's span (bit `i` of word `w` =
    /// local GPU `w * 64 + i` free), for consumers that scan
    /// word-at-a-time.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// GPU id of local bit 0 (the node's first GPU).
    pub fn base(&self) -> GpuId {
        GpuId(self.base)
    }
}

impl<'a> IntoIterator for NodeFree<'a> {
    type Item = GpuId;
    type IntoIter = NodeFreeIter<'a>;
    fn into_iter(self) -> NodeFreeIter<'a> {
        self.iter()
    }
}

/// Ascending-id iterator over one node's free GPUs.
#[derive(Debug, Clone)]
pub struct NodeFreeIter<'a> {
    words: &'a [u64],
    wi: usize,
    cur: u64,
    base: u32,
}

impl Iterator for NodeFreeIter<'_> {
    type Item = GpuId;
    fn next(&mut self) -> Option<GpuId> {
        while self.cur == 0 {
            self.wi += 1;
            if self.wi >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.wi];
        }
        let bit = self.cur.trailing_zeros();
        self.cur &= self.cur - 1;
        Some(GpuId(self.base + (self.wi as u32) * 64 + bit))
    }
}

/// Lazily built per-class orderings of all GPUs by ascending score (ties
/// broken by GPU id, so every ordering is total and deterministic), each
/// with a walk cursor.
///
/// Score-driven placement policies (PM-First, PAL's spread arm) own one of
/// these next to their score table: [`ensure`](ClassOrders::ensure) builds
/// a class's ordering on first use, [`get`](ClassOrders::get) borrows it
/// and [`first_free_into`](ClassOrders::first_free_into) takes its best
/// free GPUs, all allocation-free afterwards. The cache belongs to one
/// score table; new scores need a new cache.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassOrders {
    orders: Vec<Vec<GpuId>>,
    /// Per class `(position, token)`: every GPU before `position` in the
    /// class's ordering was busy when `token` was read, and stays busy
    /// while the state's token still equals it.
    cursors: Vec<(usize, OccupancyToken)>,
}

impl ClassOrders {
    /// Empty cache for `num_classes` classes (orderings build on demand).
    pub fn new(num_classes: usize) -> Self {
        ClassOrders {
            orders: vec![Vec::new(); num_classes],
            cursors: vec![(0, OccupancyToken::NONE); num_classes],
        }
    }

    /// Build `class`'s ordering if it is missing: all
    /// `num_gpus` GPUs sorted ascending by `score`, ties by GPU id.
    /// Panics on NaN scores (a policy bug).
    pub fn ensure(&mut self, class: usize, num_gpus: usize, score: impl Fn(GpuId) -> f64) {
        let order = &mut self.orders[class];
        if !order.is_empty() {
            return;
        }
        order.extend((0..num_gpus).map(|i| GpuId(i as u32)));
        order.sort_by(|&a, &b| {
            score(a)
                .partial_cmp(&score(b))
                .expect("NaN GPU score")
                .then(a.cmp(&b))
        });
    }

    /// Borrow `class`'s ordering. Empty until [`ensure`](Self::ensure) has
    /// built it.
    pub fn get(&self, class: usize) -> &[GpuId] {
        &self.orders[class]
    }

    /// Write the first `demand` GPUs of `class`'s ordering that are free
    /// in `state` into `out`, in ordering order (fewer if fewer are free)
    /// — the same GPUs as sorting the free list by (score, GPU id) and
    /// truncating.
    ///
    /// The walk starts at the class's cursor when `state`'s
    /// [`OccupancyToken`] still matches the one stored with it, and at
    /// the start of the ordering otherwise; it then moves the cursor to
    /// the first free GPU it sees. Between releases each GPU is therefore
    /// skipped as busy at most once per class, however many placements
    /// walk past it.
    pub fn first_free_into(
        &mut self,
        class: usize,
        demand: usize,
        state: &ClusterState,
        out: &mut Vec<GpuId>,
    ) {
        out.clear();
        let token = state.occupancy_token();
        let cursor = &mut self.cursors[class];
        let start = if cursor.1 == token { cursor.0 } else { 0 };
        let rest = &self.orders[class][start..];
        let busy = rest
            .iter()
            .position(|&g| state.is_free(g))
            .unwrap_or(rest.len());
        *cursor = (start + busy, token);
        for &g in &rest[busy..] {
            if state.is_free(g) {
                out.push(g);
                if out.len() == demand {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ClusterState {
        ClusterState::new(ClusterTopology::new(2, 4))
    }

    fn free_vec(state: &ClusterState, node: u32) -> Vec<GpuId> {
        state.view().node_free(NodeId(node)).iter().collect()
    }

    #[test]
    fn fresh_view_lists_every_gpu_in_order() {
        let s = state();
        assert_eq!(s.view().nodes(), 2);
        assert_eq!(
            free_vec(&s, 1),
            vec![GpuId(4), GpuId(5), GpuId(6), GpuId(7)]
        );
        let all: Vec<GpuId> = s.view().free_iter().collect();
        assert_eq!(all, s.free_gpus());
    }

    #[test]
    fn view_tracks_allocate_and_release_incrementally() {
        let mut s = state();
        s.allocate(&[GpuId(1), GpuId(5), GpuId(6)]);
        assert_eq!(free_vec(&s, 0), vec![GpuId(0), GpuId(2), GpuId(3)]);
        assert_eq!(free_vec(&s, 1), vec![GpuId(4), GpuId(7)]);
        s.release(&[GpuId(5)]);
        assert_eq!(free_vec(&s, 1), vec![GpuId(4), GpuId(5), GpuId(7)]);
        // Release order must not matter: bit order is id order.
        s.allocate(&[GpuId(4), GpuId(7)]);
        s.release(&[GpuId(7)]);
        s.release(&[GpuId(4)]);
        assert_eq!(free_vec(&s, 1), vec![GpuId(4), GpuId(5), GpuId(7)]);
    }

    #[test]
    fn per_node_aligns_with_node_ids() {
        let mut s = state();
        s.allocate(&[GpuId(0), GpuId(1), GpuId(2), GpuId(3)]); // node 0 full
        let lens: Vec<usize> = s.view().per_node().map(|nf| nf.len()).collect();
        assert_eq!(lens, vec![0, 4]);
        assert!(s.view().node_free(NodeId(0)).is_empty());
    }

    #[test]
    fn wide_nodes_span_multiple_words() {
        // 130 GPUs per node forces a 3-word span; the iterator must cross
        // word boundaries in id order.
        let topo = ClusterTopology::new(2, 130);
        let mut s = ClusterState::new(topo);
        s.allocate(&[GpuId(0), GpuId(63), GpuId(64), GpuId(129), GpuId(130)]);
        let free0: Vec<GpuId> = s.view().node_free(NodeId(0)).iter().collect();
        assert_eq!(free0.len(), 130 - 4);
        assert_eq!(free0[0], GpuId(1));
        assert!(free0.contains(&GpuId(65)));
        assert!(!free0.contains(&GpuId(129)));
        let free1: Vec<GpuId> = s.view().node_free(NodeId(1)).iter().collect();
        assert_eq!(free1[0], GpuId(131));
        assert_eq!(s.view().node_free(NodeId(1)).base(), GpuId(130));
    }

    #[test]
    fn node_words_expose_raw_bits() {
        let mut s = state();
        s.allocate(&[GpuId(5)]);
        let nf = s.view().node_free(NodeId(1));
        // Node 1's span: local bits 0..4 for GPUs 4..8, bit 1 (GPU 5) clear.
        assert_eq!(nf.words(), &[0b1101]);
        let spans: Vec<&[u64]> = s.view().node_spans().collect();
        assert_eq!(spans, vec![&[0b1111u64][..], &[0b1101u64][..]]);
    }

    #[test]
    fn class_orders_sort_by_score_then_id() {
        let scores = [1.5, 0.9, 1.5, 0.7];
        let mut orders = ClassOrders::new(1);
        orders.ensure(0, 4, |g| scores[g.index()]);
        assert_eq!(
            orders.get(0),
            &[GpuId(3), GpuId(1), GpuId(0), GpuId(2)],
            "ascending score, ties by id"
        );
    }

    #[test]
    fn first_free_walk_resumes_at_its_cursor_until_a_release() {
        let mut s = state();
        let mut orders = ClassOrders::new(1);
        orders.ensure(0, 8, |g| -(g.index() as f64)); // 7, 6, …, 0
        let mut out = Vec::new();
        orders.first_free_into(0, 2, &s, &mut out);
        assert_eq!(out, [GpuId(7), GpuId(6)]);
        s.allocate(&out);
        orders.first_free_into(0, 2, &s, &mut out);
        assert_eq!(out, [GpuId(5), GpuId(4)]);
        assert_eq!(orders.cursors[0].0, 2, "skipped 7 and 6 as busy");
        s.allocate(&out);
        orders.first_free_into(0, 1, &s, &mut out);
        assert_eq!(orders.cursors[0].0, 4);
        // A release behind the cursor: the walk starts over.
        s.release(&[GpuId(6)]);
        orders.first_free_into(0, 1, &s, &mut out);
        assert_eq!(out, [GpuId(6)]);
        assert_eq!(orders.cursors[0].0, 1);
        s.allocate(&out);
        orders.first_free_into(0, 1, &s, &mut out);
        assert_eq!(out, [GpuId(3)]);
        // So does a walk over another state instance.
        orders.first_free_into(0, 1, &state(), &mut out);
        assert_eq!(out, [GpuId(7)]);
    }

    #[test]
    fn class_orders_rebuild_after_invalidation() {
        // A built ordering is fixed: ensure() with new scores is a no-op.
        let mut orders = ClassOrders::new(2);
        orders.ensure(0, 3, |g| g.index() as f64);
        assert_eq!(orders.get(0), &[GpuId(0), GpuId(1), GpuId(2)]);
        orders.ensure(0, 3, |g| -(g.index() as f64));
        assert_eq!(orders.get(0), &[GpuId(0), GpuId(1), GpuId(2)]);
        // Untouched classes stay lazily empty.
        assert!(orders.get(1).is_empty());
        // A re-bin invalidates by replacing the cache: a fresh one builds
        // from the new scores.
        let mut orders = ClassOrders::new(2);
        orders.ensure(0, 3, |g| -(g.index() as f64));
        assert_eq!(orders.get(0), &[GpuId(2), GpuId(1), GpuId(0)]);
    }
}
