//! The FPC summary kind of the content store (see [`crate::store`]): the
//! finalization statistics of one `(spec, runs, seed)` batch (the `fpc:`
//! query namespace), addressed by [`summary_key`] so every spelling of
//! one workload shares one entry. The entry is the [`FpcStats`] object
//! itself; it is valid only if its recorded `(spec, runs, seed)` fields
//! re-derive the address it was read under.

use std::path::Path;

use act_fpc::{run_stats, FpcSpec, FpcStats};
use act_obs::Counter;

use crate::store::{ContentStore, Entry};
use crate::{SERVE_FPC_CORRUPT, SERVE_FPC_HITS, SERVE_FPC_MISSES};

/// Schema version of the persisted summary JSON.
pub const FPC_SUMMARY_SCHEMA: u64 = 1;

/// The largest batch a single query may ask for (simulation is cheap,
/// but a summary is computed synchronously on the serving thread).
pub const FPC_MAX_RUNS: u64 = 1_000_000;

/// Default batch size when a query names none.
pub const FPC_DEFAULT_RUNS: u64 = 10_000;

/// Default batch seed when a query names none (the campaign default).
pub const FPC_DEFAULT_SEED: u64 = 0xFAC7;

/// The content address of one `(spec, runs, seed)` summary.
pub fn summary_key(spec: &FpcSpec, runs: u64, seed: u64) -> u128 {
    crate::content_hash128(
        format!(
            "fact-fpc|schema={FPC_SUMMARY_SCHEMA}|spec={}|runs={runs}|seed={seed}",
            spec.canonical_string()
        )
        .as_bytes(),
    )
}

impl Entry for FpcStats {
    type Key = u128;
    type Value = FpcStats;
    const SUBDIR: &'static str = "fpc";
    const PREFIX: &'static str = "fpc-";
    const PRETTY: bool = true;
    const MEMORY_CAPACITY: usize = 1024;
    const CORRUPT: &'static Counter = &SERVE_FPC_CORRUPT;
    const CORRUPT_EVENT: &'static str = "serve.fpc.corrupt";
    const WRITE_FAILED_EVENT: &'static str = "serve.fpc.write_failed";
    const TEARABLE: bool = false;

    fn address(key: &u128) -> u128 {
        *key
    }

    fn encode(_: &u128, stats: &FpcStats) -> FpcStats {
        stats.clone()
    }

    fn key(&self) -> Option<u128> {
        let spec = FpcSpec::parse(&self.spec).ok()?;
        Some(summary_key(&spec, self.runs, self.seed))
    }

    fn into_value(self) -> Result<FpcStats, &'static str> {
        Ok(self)
    }
}

/// A two-tier (memory + optional disk) cache of FPC summaries.
pub struct FpcCache(ContentStore<FpcStats>);

impl FpcCache {
    /// A memory-only cache.
    pub fn in_memory() -> FpcCache {
        FpcCache(ContentStore::in_memory())
    }

    /// A cache persisting under `<store>/fpc/` — the same store root the
    /// verdict store uses, so one `--store` directory carries both
    /// namespaces.
    pub fn open(store_root: &Path) -> std::io::Result<FpcCache> {
        ContentStore::open(store_root).map(FpcCache)
    }

    /// Looks a summary up (memory first, then validated disk read).
    pub fn get(&self, spec: &FpcSpec, runs: u64, seed: u64) -> Option<FpcStats> {
        self.0.get(&summary_key(spec, runs, seed))
    }

    /// Commits a summary (memory insert + atomic disk publish).
    pub fn put(&self, spec: &FpcSpec, runs: u64, seed: u64, stats: &FpcStats) {
        self.0.put(&summary_key(spec, runs, seed), stats);
    }

    /// Answers one query: a cache hit, or a freshly simulated batch
    /// committed for the next asker. The `&'static str` is the answer's
    /// source (`"store"` / `"engine"`), mirroring solve replies.
    pub fn summary(&self, spec: &FpcSpec, runs: u64, seed: u64) -> (FpcStats, &'static str) {
        if let Some(stats) = self.get(spec, runs, seed) {
            SERVE_FPC_HITS.add(1);
            return (stats, "store");
        }
        SERVE_FPC_MISSES.add(1);
        let stats = run_stats(spec, runs, seed);
        self.put(spec, runs, seed, &stats);
        (stats, "engine")
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn temp_store(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fact-fpc-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_are_canonical_across_spellings() {
        let a = FpcSpec::parse("fpc:32:8:berserk").unwrap();
        let b = FpcSpec::parse("fpc:32:8:berserk:10:500").unwrap();
        assert_eq!(summary_key(&a, 100, 7), summary_key(&b, 100, 7));
        assert_ne!(summary_key(&a, 100, 7), summary_key(&a, 101, 7));
        assert_ne!(summary_key(&a, 100, 7), summary_key(&a, 100, 8));
    }

    #[test]
    fn second_query_is_a_store_hit_across_cache_instances() {
        let _serial = crate::test_serial_guard();
        let root = temp_store("hit");
        let spec = FpcSpec::parse("fpc:16:4:berserk:5:500").unwrap();
        let cache = FpcCache::open(&root).unwrap();
        let (first, source) = cache.summary(&spec, 200, 42);
        assert_eq!(source, "engine");
        let (again, source) = cache.summary(&spec, 200, 42);
        assert_eq!(source, "store");
        assert_eq!(first, again);

        // A fresh cache over the same directory hits the disk tier.
        let reopened = FpcCache::open(&root).unwrap();
        let (persisted, source) = reopened.summary(&spec, 200, 42);
        assert_eq!(source, "store");
        assert_eq!(persisted, first);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_degrade_to_misses() {
        let _serial = crate::test_serial_guard();
        let root = temp_store("corrupt");
        let spec = FpcSpec::parse("fpc:16:4:berserk:5:500").unwrap();
        let cache = FpcCache::open(&root).unwrap();
        let (stats, _) = cache.summary(&spec, 100, 1);

        // Tamper with the persisted entry: swap the recorded seed, so
        // the content address no longer matches.
        let key = summary_key(&spec, 100, 1);
        let path = root.join("fpc").join(format!("fpc-{key:032x}.json"));
        let mut forged = stats.clone();
        forged.seed = 999;
        std::fs::write(&path, serde_json::to_string(&forged).unwrap()).unwrap();
        let corrupt_before = SERVE_FPC_CORRUPT.get();
        let fresh = FpcCache::open(&root).unwrap();
        let (recomputed, source) = fresh.summary(&spec, 100, 1);
        assert_eq!(source, "engine", "a forged entry must not serve");
        assert_eq!(SERVE_FPC_CORRUPT.get(), corrupt_before + 1);
        assert_eq!(recomputed, stats);

        // Truncated JSON degrades the same way.
        std::fs::write(&path, "{\"spec\":").unwrap();
        let truncated = FpcCache::open(&root).unwrap();
        assert!(truncated.get(&spec, 100, 1).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A summary for `seed` with fabricated statistics (no simulation).
    fn fabricated(spec: &FpcSpec, runs: u64, seed: u64) -> FpcStats {
        FpcStats {
            spec: spec.canonical_string(),
            runs,
            seed,
            agreement_failures: 0,
            termination_failures: seed % 3,
            rounds_p50: 4,
            rounds_p99: 9,
            rounds_max: 11,
            mean_rounds_milli: 4_250,
            fingerprint: format!("{seed:016x}"),
        }
    }

    #[test]
    fn concurrent_writers_of_one_summary_never_publish_a_torn_file() {
        let _serial = crate::test_serial_guard();
        let root = temp_store("race");
        let spec = FpcSpec::parse("fpc:16:4:berserk").unwrap();
        let stats = fabricated(&spec, 300, 5);
        let corrupt_before = SERVE_FPC_CORRUPT.get();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let writer = FpcCache::open(&root).unwrap();
                    for _ in 0..25 {
                        writer.put(&spec, 300, 5, &stats);
                        // A fresh cache has no memory tier to hide behind.
                        let reader = FpcCache::open(&root).unwrap();
                        if let Some(read) = reader.get(&spec, 300, 5) {
                            assert_eq!(read, stats);
                        }
                    }
                });
            }
        });
        assert_eq!(SERVE_FPC_CORRUPT.get(), corrupt_before);
        let fresh = FpcCache::open(&root).unwrap();
        assert_eq!(fresh.get(&spec, 300, 5), Some(stats));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn the_memory_tier_is_bounded_and_evicted_summaries_serve_from_disk() {
        let _serial = crate::test_serial_guard();
        let root = temp_store("lru");
        let spec = FpcSpec::parse("fpc:16:4:berserk").unwrap();
        let cache = FpcCache::open(&root).unwrap();
        let capacity = <FpcStats as Entry>::MEMORY_CAPACITY as u64;
        for seed in 0..=capacity {
            cache.put(&spec, 10, seed, &fabricated(&spec, 10, seed));
        }
        assert_eq!(cache.0.memory_len() as u64, capacity);
        // Seed 0 was the least recently used: evicted from memory, it is
        // still served from disk.
        assert!(cache.0.peek(summary_key(&spec, 10, 0)).is_none());
        let corrupt_before = SERVE_FPC_CORRUPT.get();
        assert_eq!(cache.get(&spec, 10, 0), Some(fabricated(&spec, 10, 0)));
        assert_eq!(SERVE_FPC_CORRUPT.get(), corrupt_before);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unreadable_entries_count_as_corrupt() {
        let _serial = crate::test_serial_guard();
        let root = temp_store("unreadable");
        let spec = FpcSpec::parse("fpc:16:4:berserk").unwrap();
        // A directory where the entry file should be: reading it fails
        // with an error other than "not found".
        let path = root
            .join("fpc")
            .join(format!("fpc-{:032x}.json", summary_key(&spec, 10, 1)));
        std::fs::create_dir_all(&path).unwrap();
        let corrupt_before = SERVE_FPC_CORRUPT.get();
        let cache = FpcCache::open(&root).unwrap();
        assert!(cache.get(&spec, 10, 1).is_none());
        assert_eq!(SERVE_FPC_CORRUPT.get(), corrupt_before + 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
