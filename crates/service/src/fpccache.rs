//! Content-addressed caching for FPC finalization summaries (the
//! `fpc:` query namespace).
//!
//! A summary is addressed by `(spec, runs, seed)` through the same
//! canonical-text-to-content-hash discipline the verdict store uses:
//! every spelling of one workload resolves to one key, so a summary
//! computed once — by `fact-cli fpc` or by a serve worker — is a store
//! hit for every later query. Summaries are tiny (one [`FpcStats`]
//! JSON object), deterministic (the whole batch is a pure function of
//! the key), and **validated on read**: a disk entry must reproduce its
//! own content address from its recorded `(spec, runs, seed)` fields,
//! so a truncated or tampered file degrades to a counted miss instead
//! of serving a wrong summary.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use act_fpc::{run_stats, FpcSpec, FpcStats};

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

/// A two-tier (memory + optional disk) cache of FPC summaries.
pub struct FpcCache {
    memory: Mutex<BTreeMap<u128, FpcStats>>,
    disk: Option<PathBuf>,
}

impl FpcCache {
    /// A memory-only cache.
    pub fn in_memory() -> FpcCache {
        FpcCache {
            memory: Mutex::new(BTreeMap::new()),
            disk: None,
        }
    }

    /// A cache persisting under `<store>/fpc/` — the same store root the
    /// verdict store uses, so one `--store` directory carries both
    /// namespaces.
    pub fn open(store_root: &Path) -> std::io::Result<FpcCache> {
        let dir = store_root.join("fpc");
        std::fs::create_dir_all(&dir)?;
        Ok(FpcCache {
            memory: Mutex::new(BTreeMap::new()),
            disk: Some(dir),
        })
    }

    fn entry_path(&self, key: u128) -> Option<PathBuf> {
        self.disk
            .as_ref()
            .map(|d| d.join(format!("fpc-{key:032x}.json")))
    }

    /// Looks a summary up (memory first, then validated disk read).
    pub fn get(&self, spec: &FpcSpec, runs: u64, seed: u64) -> Option<FpcStats> {
        let key = summary_key(spec, runs, seed);
        if let Some(stats) = self
            .memory
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
        {
            return Some(stats.clone());
        }
        let path = self.entry_path(key)?;
        let json = std::fs::read_to_string(&path).ok()?;
        let stats: FpcStats = match serde_json::from_str(&json) {
            Ok(s) => s,
            Err(_) => {
                SERVE_FPC_CORRUPT.add(1);
                return None;
            }
        };
        // Validate on read: the entry must reproduce its own address
        // from its recorded fields, or it is not the summary we asked
        // for (tampering, truncation-survivable JSON, or a moved file).
        let recorded_spec = FpcSpec::parse(&stats.spec).ok();
        let valid = recorded_spec
            .map(|s| summary_key(&s, stats.runs, stats.seed) == key)
            .unwrap_or(false);
        if !valid {
            SERVE_FPC_CORRUPT.add(1);
            return None;
        }
        self.memory
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, stats.clone());
        Some(stats)
    }

    /// Commits a summary (memory insert + atomic disk publish).
    pub fn put(&self, spec: &FpcSpec, runs: u64, seed: u64, stats: &FpcStats) {
        let key = summary_key(spec, runs, seed);
        self.memory
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, stats.clone());
        if let Some(path) = self.entry_path(key) {
            if let Ok(json) = serde_json::to_string_pretty(stats) {
                let tmp = path.with_extension("json.tmp");
                if std::fs::write(&tmp, json).is_ok() {
                    let _ = std::fs::rename(&tmp, &path);
                }
            }
        }
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
}
