//! Memoized PM-score table construction for wide sweeps
//! ([`PmTableCache`]).

use crate::pm_scores::PmScoreTable;
use pal_cluster::{JobClass, VariabilityProfile};
use pal_sim::{fnv1a, FNV1A_BASIS};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A memoizing, thread-safe store of built [`PmScoreTable`]s.
///
/// Section IV-C makes PM-score tables a *static, design-time* artifact:
/// with the paper's default binning they depend only on the variability
/// profile, never on the trace, the scheduler, or the cell seed. A
/// campaign sweeping M scenarios × N policies over one profile therefore
/// needs exactly **one** table — not one per cell — yet each
/// [`PalPlacement`](crate::PalPlacement) /
/// [`PmFirstPlacement`](crate::PmFirstPlacement) constructor re-runs the
/// full K-Means + silhouette pipeline.
///
/// This cache closes that gap: policy builders ask it for the table via
/// [`get_or_build_default`](PmTableCache::get_or_build_default) and
/// receive a shared `Arc<PmScoreTable>`, built on first request and
/// handed out by reference count afterwards. Entries are bucketed by a
/// **content fingerprint** of the profile (shape + FNV-1a over the score
/// bits), and every hit is verified against the stored profile by value,
/// so equality is genuinely by value: two separately constructed but
/// identical profiles share one table, a dropped profile can never alias
/// a stale entry the way raw-pointer interning could, and a fingerprint
/// collision costs a probe rather than serving the wrong table. Fingerprinting and verification are
/// O(classes × GPUs) — noise next to the K-Means sweep they avoid, which
/// costs about 0.3 s for a 2,500-GPU, 3-class profile.
///
/// The cache counts its [`builds`](PmTableCache::builds), which is what
/// lets tests and the `campaign_startup` benchmark pin "an N×M grid over
/// one profile performs exactly one table build" as a deterministic,
/// CI-gated number.
///
/// Construction happens under the cache lock, so concurrent campaign
/// cells requesting the same profile's table serialize on one
/// build instead of racing to duplicate it — the build count is
/// deterministic under any thread interleaving. (The flip side: builds
/// of *distinct* profiles also serialize, and every worker that needs a
/// table waits out the build. That is the intended trade — a campaign
/// sweeps a handful of design-time profiles, each built once: a few
/// milliseconds at 64 GPUs, about 0.3 s at 2,500 GPUs (the
/// `campaign_startup` bench's `table_build/longhorn_2500`, 2-vCPU host)
/// — and determinism of `builds()` is what the CI gate pins.)
#[derive(Debug, Default)]
pub struct PmTableCache {
    entries: Mutex<HashMap<TableKey, Vec<CacheEntry>>>,
    builds: AtomicUsize,
}

/// Fingerprint bucket of one memoized table: profile shape and profile
/// content fingerprint. A hit is only served after the stored profile
/// compares equal by value ([`CacheEntry`]), so a 64-bit fingerprint
/// collision costs one extra linear probe, never a wrong table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TableKey {
    classes: usize,
    gpus: usize,
    profile_fp: u64,
}

/// One memoized table plus the exact profile it was built from, kept so a
/// hit can be verified by value rather than trusted to the fingerprint.
#[derive(Debug)]
struct CacheEntry {
    profile: VariabilityProfile,
    table: Arc<PmScoreTable>,
}

fn profile_fingerprint(profile: &VariabilityProfile) -> u64 {
    fnv1a(
        FNV1A_BASIS,
        (0..profile.num_classes()).flat_map(|c| {
            profile
                .class_scores(JobClass(c))
                .iter()
                .flat_map(|s| s.to_bits().to_le_bytes())
        }),
    )
}

/// Bit-level profile equality: shapes plus the exact bit pattern of every
/// score. Deliberately *not* `PartialEq` — `NaN != NaN` under IEEE
/// comparison would make a degenerate (deserialized) NaN-bearing profile
/// miss its own cache entry forever, re-building and re-inserting on
/// every request; comparing bits keeps the `builds()` == distinct-inputs
/// contract for any input the table builder accepts.
fn profiles_bitwise_eq(a: &VariabilityProfile, b: &VariabilityProfile) -> bool {
    a.num_classes() == b.num_classes()
        && a.num_gpus() == b.num_gpus()
        && (0..a.num_classes()).all(|c| {
            let class = JobClass(c);
            a.class_scores(class)
                .iter()
                .zip(b.class_scores(class))
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

impl PmTableCache {
    /// An empty cache.
    pub fn new() -> Self {
        PmTableCache::default()
    }

    /// The shared table for `profile`, binned with the paper's default
    /// configuration ([`PmScoreTable::build_default`]): built on first
    /// request, a reference-count bump on every later one.
    pub fn get_or_build_default(&self, profile: &VariabilityProfile) -> Arc<PmScoreTable> {
        let key = TableKey {
            classes: profile.num_classes(),
            gpus: profile.num_gpus(),
            profile_fp: profile_fingerprint(profile),
        };
        let mut entries = self.entries.lock().expect("PM-table cache lock");
        let bucket = entries.entry(key).or_default();
        if let Some(hit) = bucket
            .iter()
            .find(|e| profiles_bitwise_eq(&e.profile, profile))
        {
            return Arc::clone(&hit.table);
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        let table = Arc::new(PmScoreTable::build_default(profile));
        bucket.push(CacheEntry {
            profile: profile.clone(),
            table: Arc::clone(&table),
        });
        table
    }

    /// How many tables this cache has actually constructed (cache misses).
    /// For an N×M campaign over P distinct profiles this is exactly P,
    /// independent of thread interleaving.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Number of distinct profiles' tables currently held.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("PM-table cache lock")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Whether the cache has served no builds yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pal_cluster::GpuId;

    fn profile(bump: f64) -> VariabilityProfile {
        VariabilityProfile::from_raw(
            (0..3)
                .map(|c| {
                    (0..16)
                        .map(|g| 1.0 + bump + ((g * 5 + c * 3) % 7) as f64 * 0.07)
                        .collect()
                })
                .collect(),
        )
    }

    #[test]
    fn same_inputs_hit_the_cache() {
        let cache = PmTableCache::new();
        let a = cache.get_or_build_default(&profile(0.0));
        let b = cache.get_or_build_default(&profile(0.0));
        assert!(Arc::ptr_eq(&a, &b), "identical profiles must share a table");
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn value_identity_not_handle_identity() {
        // Two separately allocated but equal profiles share one table.
        let cache = PmTableCache::new();
        let p1 = profile(0.1);
        let p2 = profile(0.1);
        assert_ne!(&p1 as *const _, &p2 as *const _);
        let a = cache.get_or_build_default(&p1);
        let b = cache.get_or_build_default(&p2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.builds(), 1);
    }

    #[test]
    fn distinct_profiles_build_distinct_tables() {
        let cache = PmTableCache::new();
        let a = cache.get_or_build_default(&profile(0.0));
        let b = cache.get_or_build_default(&profile(0.5));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.builds(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_table_matches_a_direct_build() {
        let p = profile(0.2);
        let cache = PmTableCache::new();
        let cached = cache.get_or_build_default(&p);
        let direct = PmScoreTable::build_default(&p);
        assert_eq!(*cached, direct);
        assert_eq!(
            cached.score(JobClass::A, GpuId(3)),
            direct.score(JobClass::A, GpuId(3))
        );
    }

    #[test]
    fn concurrent_requests_build_once() {
        let cache = Arc::new(PmTableCache::new());
        let p = Arc::new(profile(0.3));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let p = Arc::clone(&p);
                scope.spawn(move || cache.get_or_build_default(&p));
            }
        });
        assert_eq!(
            cache.builds(),
            1,
            "racing requests must not duplicate the build"
        );
    }
}
