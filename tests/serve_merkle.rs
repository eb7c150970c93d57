//! Integrity tests for the Merkle-verified verdict store: proof
//! round-trips under arbitrary entry sets, tamper detection at every
//! byte, and torn-write tolerance at every truncation boundary for both
//! the verdict store and the tower store.

use std::sync::{Mutex, MutexGuard};

use act_service::{
    MerkleIndex, Scheduler, ServeConfig, StoreKey, StoredVerdict, TowerStore, VerdictStore,
    SERVE_STORE_CORRUPT, SERVE_TOWER_CORRUPT,
};
use fact::{ModelSpec, TaskSpec};
use proptest::prelude::*;

/// Serializes the tests that diff process-global counters.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fact-merkle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(model: &str, k: usize, level: usize) -> StoreKey {
    let model = ModelSpec::parse(model, false).unwrap();
    let task = TaskSpec::set_consensus(model.num_processes(), k).unwrap();
    StoreKey::new(&model, &task, level)
}

fn verdict(iterations: u64) -> StoredVerdict {
    StoredVerdict {
        verdict: "no-map".into(),
        iterations,
        witness: Vec::new(),
    }
}

/// Widens sampled `u64` pairs into deduplicated `(entry, file)` hash
/// pairs; keeps the proptests independent of any one hash function.
fn entry_pairs(raw: &[(u64, u64)]) -> std::collections::BTreeMap<u128, u128> {
    raw.iter()
        .map(|&(a, b)| {
            let entry = ((a as u128) << 64) | b as u128;
            let file = ((b as u128) << 64) | a as u128 ^ 0x5eed;
            (entry, file)
        })
        .collect()
}

fn pair_strategy(max_len: usize) -> impl proptest::strategy::Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 1..max_len)
}

proptest! {
    /// Every entry of an arbitrary set has a proof that verifies
    /// against the common root, and the root is order-independent.
    #[test]
    fn proofs_verify_for_arbitrary_entry_sets(raw in pair_strategy(40)) {
        let pairs = entry_pairs(&raw);
        let mut index = MerkleIndex::new();
        for (&e, &f) in &pairs {
            index.insert(e, f);
        }
        // Insertion order must not matter: rebuild reversed.
        let mut reversed = MerkleIndex::new();
        for (&e, &f) in pairs.iter().rev() {
            reversed.insert(e, f);
        }
        prop_assert_eq!(index.root(), reversed.root());
        for (&e, &f) in &pairs {
            let proof = index.proof(e).expect("member entries have proofs");
            prop_assert!(proof.verify());
            prop_assert_eq!(proof.root, index.root());
            prop_assert_eq!(proof.file_hash, f);
        }
    }

    /// Any single-bit tamper with any component of a proof — the entry
    /// hash, the file hash, the root, or any path sibling — makes
    /// verification fail.
    #[test]
    fn any_tampered_proof_fails(
        raw in pair_strategy(20),
        pick in 0usize..64,
        bit in 0u32..128,
        component in 0usize..4,
    ) {
        let pairs = entry_pairs(&raw);
        let mut index = MerkleIndex::new();
        for (&e, &f) in &pairs {
            index.insert(e, f);
        }
        let entries: Vec<u128> = pairs.keys().copied().collect();
        let target = entries[pick % entries.len()];
        let mut proof = index.proof(target).unwrap();
        let flip = 1u128 << bit;
        match component {
            0 => proof.entry_hash ^= flip,
            1 => proof.file_hash ^= flip,
            2 => proof.root ^= flip,
            _ => {
                if proof.path.is_empty() {
                    // Single-entry tree: no siblings to corrupt; fall
                    // back to the root.
                    proof.root ^= flip;
                } else {
                    let i = (bit as usize) % proof.path.len();
                    proof.path[i].sibling ^= flip;
                }
            }
        }
        prop_assert!(!proof.verify(), "tampered proof must not verify");
    }

    /// Removing an entry changes the root; re-inserting restores it.
    #[test]
    fn roots_track_membership(raw in pair_strategy(20), pick in 0usize..64) {
        let pairs = entry_pairs(&raw);
        let mut index = MerkleIndex::new();
        for (&e, &f) in &pairs {
            index.insert(e, f);
        }
        let full_root = index.root();
        let entries: Vec<u128> = pairs.keys().copied().collect();
        let target = entries[pick % entries.len()];
        index.remove(target);
        prop_assert_ne!(index.root(), full_root);
        index.insert(target, pairs[&target]);
        prop_assert_eq!(index.root(), full_root);
    }
}

#[test]
fn verdict_entries_survive_truncation_at_every_byte_boundary() {
    let _serial = serial();
    let dir = temp_dir("torn-verdict");
    let k = key("t-res:3:1", 2, 1);
    let path = {
        let store = VerdictStore::open(&dir).unwrap();
        assert!(store.put(&k, &verdict(1)));
        store.entry_path(&k).unwrap()
    };
    let full = std::fs::read(&path).unwrap();
    assert!(full.len() > 10, "sanity: entry file has content");
    for keep in 0..full.len() {
        std::fs::write(&path, &full[..keep]).unwrap();
        let corrupt_before = SERVE_STORE_CORRUPT.get();
        // A fresh open (index rebuild) plus a direct get: both must
        // treat the torn entry as a miss, never panic, and the get must
        // count the corruption.
        let store = VerdictStore::open(&dir).unwrap();
        assert_eq!(
            store.merkle_len(),
            0,
            "torn entry (keep {keep}/{}) must not enter the index",
            full.len()
        );
        assert!(
            store.get(&k).is_none(),
            "torn entry (keep {keep}/{}) must be a miss",
            full.len()
        );
        assert!(
            SERVE_STORE_CORRUPT.get() > corrupt_before,
            "torn entry (keep {keep}/{}) must be counted corrupt",
            full.len()
        );
    }
    // The intact bytes still load.
    std::fs::write(&path, &full).unwrap();
    let store = VerdictStore::open(&dir).unwrap();
    assert_eq!(store.get(&k), Some(verdict(1)));
    assert_eq!(store.merkle_len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tower_entries_survive_truncation_at_every_byte_boundary() {
    let _serial = serial();
    let dir = temp_dir("torn-tower");
    std::fs::create_dir_all(&dir).unwrap();
    let towers = TowerStore::open(&dir).unwrap();
    let complex = fact::topology::Complex::standard(3).iterated_subdivision(1);
    let tower_key = act_service::TowerKey {
        affine_hash: 7,
        inputs_hash: 9,
        level: 1,
    };
    towers.put(&tower_key, &complex);
    let path = towers.entry_path(&tower_key);
    let full = std::fs::read(&path).unwrap();
    assert_eq!(towers.get(&tower_key).as_ref(), Some(&complex));
    // Tower entries are big (hex-encoded complexes); checking every
    // boundary of a multi-kilobyte file is slow without telling us more
    // than a stride does, so step through it, but pin the edges.
    let stride = (full.len() / 97).max(1);
    let mut corrupt_seen = 0u64;
    for keep in (0..full.len()).step_by(stride).chain([1, full.len() - 1]) {
        std::fs::write(&path, &full[..keep]).unwrap();
        let before = SERVE_TOWER_CORRUPT.get();
        assert!(
            towers.get(&tower_key).is_none(),
            "torn tower (keep {keep}/{}) must be a miss",
            full.len()
        );
        corrupt_seen += SERVE_TOWER_CORRUPT.get() - before;
    }
    assert!(corrupt_seen > 0, "torn tower loads are counted corrupt");
    std::fs::write(&path, &full).unwrap();
    assert_eq!(towers.get(&tower_key).as_ref(), Some(&complex));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_repairs_from_memory_and_quarantines_orphans() {
    let _serial = serial();
    let dir = temp_dir("scrub");
    let store = VerdictStore::open(&dir).unwrap();
    let k = key("t-res:3:1", 2, 1);
    assert!(store.put(&k, &verdict(1)));
    let root = store.merkle_root();
    let path = store.entry_path(&k).unwrap();

    // Corrupt the bytes on disk. The entry is still in the memory tier,
    // so a scrub repairs the file back to the committed bytes.
    std::fs::write(&path, b"{\"truncated\":").unwrap();
    let report = store.scrub(None);
    assert_eq!(report.corrupt, 1);
    assert_eq!(report.repaired, 1);
    assert_eq!(report.quarantined, 0);
    assert_eq!(store.merkle_root(), root, "repair restores the root");
    assert_eq!(store.get(&k), Some(verdict(1)));

    // A fresh store instance has no memory tier: the same corruption
    // with no fetch source quarantines the entry instead.
    std::fs::write(&path, b"{\"truncated\":").unwrap();
    let cold = VerdictStore::open(&dir).unwrap();
    let report = cold.scrub(None);
    assert_eq!(report.repaired, 0);
    assert_eq!(report.quarantined, 1);
    assert!(!path.exists(), "quarantined entry leaves the store root");
    assert_eq!(cold.merkle_len(), 0);

    // With a fetch source (standing in for a peer), the cold store
    // repairs instead of quarantining.
    let warm = VerdictStore::open(&dir).unwrap();
    let canonical = {
        let donor = VerdictStore::in_memory();
        donor.put(&k, &verdict(1));
        donor.raw_entry(k.content_hash()).unwrap()
    };
    assert!(warm.put_raw_entry(&canonical));
    std::fs::write(warm.entry_path(&k).unwrap(), b"xx").unwrap();
    let rewarm = VerdictStore::open(&dir).unwrap();
    let fetch = move |hash: u128| (hash == k.content_hash()).then(|| canonical.clone());
    let report = rewarm.scrub(Some(&fetch));
    assert_eq!(report.corrupt, 1);
    assert_eq!(report.repaired, 1);
    assert_eq!(rewarm.merkle_root(), root);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_snapshot_reports_the_merkle_root() {
    let _serial = serial();
    let store = std::sync::Arc::new(VerdictStore::in_memory());
    let scheduler = Scheduler::new(store.clone(), ServeConfig::default());
    let empty = scheduler.stats_snapshot();
    assert_eq!(empty.merkle_entries, 0);
    store.put(&key("t-res:3:1", 2, 1), &verdict(1));
    let warm = scheduler.stats_snapshot();
    assert_eq!(warm.merkle_entries, 1);
    assert_ne!(warm.merkle_root, empty.merkle_root);
    assert_eq!(warm.merkle_root, format!("{:032x}", store.merkle_root()));
}
