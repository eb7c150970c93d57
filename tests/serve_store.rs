//! Robustness tests for the serving layer's persistent verdict store and
//! single-flight scheduler: concurrent access, corruption tolerance,
//! schema invalidation, backpressure, and the never-persist rule for
//! unreliable verdicts.

use std::sync::{Arc, Mutex, MutexGuard};

use act_service::{
    Scheduler, ServeConfig, Served, SolveQuery, StoreKey, StoredVerdict, Submitted, TowerStore,
    VerdictStore, SERVE_ENGINE_RUNS, SERVE_STORE_CORRUPT, SERVE_TOWER_CORRUPT,
};
use fact::{ModelSpec, TaskSpec, TowerPersistence};

/// Serializes the tests that diff process-global counters.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fact-serve-{tag}-{}", std::process::id()));
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

fn query(model: &str, k: usize, iters: usize) -> SolveQuery {
    let model = ModelSpec::parse(model, false).unwrap();
    let task = TaskSpec::set_consensus(model.num_processes(), k).unwrap();
    SolveQuery {
        model,
        task,
        iters,
        deadline_ms: None,
    }
}

#[test]
fn concurrent_readers_and_writers_share_one_directory() {
    // Two store instances over the same directory stand in for the CLI
    // and the server sharing a store across processes: atomic renames
    // mean a reader sees a complete entry or nothing, never a torn one.
    let dir = temp_dir("concurrent");
    let writer = Arc::new(VerdictStore::open(&dir).unwrap());
    let reader = Arc::new(VerdictStore::open(&dir).unwrap());
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let writer = Arc::clone(&writer);
        handles.push(std::thread::spawn(move || {
            for round in 0..25u64 {
                // All threads fight over the same key plus one private
                // key each; every write is a full valid entry.
                writer.put(&key("t-res:3:1", 1, 1), &verdict(round));
                writer.put(&key("t-res:3:1", 1, 2 + t as usize), &verdict(round));
            }
        }));
        let reader = Arc::clone(&reader);
        let dir = dir.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..25 {
                // A fresh store per read forces the disk path (no memory
                // tier warm-up) under concurrent writes.
                let cold = VerdictStore::open(&dir).unwrap();
                if let Some(v) = cold.get(&key("t-res:3:1", 1, 1)) {
                    assert_eq!(v.verdict, "no-map");
                }
                let _ = reader.get(&key("t-res:3:1", 1, 1));
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panics under contention");
    }
    // Every contested entry is a complete, valid verdict afterwards.
    let fresh = VerdictStore::open(&dir).unwrap();
    assert_eq!(
        fresh.get(&key("t-res:3:1", 1, 1)).unwrap().verdict,
        "no-map"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entries_degrade_to_counted_misses() {
    let _guard = serial();
    let dir = temp_dir("corrupt");
    let store = VerdictStore::open(&dir).unwrap();
    let k1 = key("t-res:3:1", 1, 1);
    let k2 = key("t-res:3:1", 1, 2);
    let k3 = key("t-res:3:1", 1, 3);
    for k in [&k1, &k2, &k3] {
        assert!(store.put(k, &verdict(k.level as u64)));
    }

    // Truncate one entry, bit-flip another's payload, leave the third.
    let p1 = store.entry_path(&k1).unwrap();
    let text = std::fs::read_to_string(&p1).unwrap();
    std::fs::write(&p1, &text[..text.len() / 2]).unwrap();
    let p2 = store.entry_path(&k2).unwrap();
    let tampered = std::fs::read_to_string(&p2)
        .unwrap()
        .replace("\"no-map\"", "\"solvable\"");
    std::fs::write(&p2, tampered).unwrap();

    let corrupt_before = SERVE_STORE_CORRUPT.get();
    // A fresh store has no memory tier to hide behind: both damaged
    // entries must load as misses — never a panic, never a wrong verdict.
    let fresh = VerdictStore::open(&dir).unwrap();
    assert_eq!(fresh.get(&k1), None, "truncated entry is a miss");
    assert_eq!(fresh.get(&k2), None, "checksum-mismatched entry is a miss");
    assert_eq!(SERVE_STORE_CORRUPT.get() - corrupt_before, 2);
    // The untouched sibling still round-trips.
    assert_eq!(fresh.get(&k3).unwrap().iterations, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schema_and_format_bumps_are_clean_misses() {
    let _guard = serial();
    let dir = temp_dir("schema");
    let store = VerdictStore::open(&dir).unwrap();
    let k = key("k-of:3:2", 2, 1);
    assert!(store.put(&k, &verdict(1)));

    let corrupt_before = SERVE_STORE_CORRUPT.get();
    // An engine-schema bump changes the content address, so the old
    // entry is simply invisible — a miss with no corruption counted.
    let mut bumped = k.clone();
    bumped.engine_schema += 1;
    let fresh = VerdictStore::open(&dir).unwrap();
    assert_eq!(fresh.get(&bumped), None);

    // A format bump on the envelope itself is also a clean miss: the
    // loader rejects the version before it ever checks the payload.
    let path = store.entry_path(&k).unwrap();
    let aged = std::fs::read_to_string(&path)
        .unwrap()
        .replace("\"format\": 1", "\"format\": 999");
    assert_ne!(aged, std::fs::read_to_string(&path).unwrap());
    std::fs::write(&path, aged).unwrap();
    let fresh = VerdictStore::open(&dir).unwrap();
    assert_eq!(fresh.get(&k), None);
    assert_eq!(
        SERVE_STORE_CORRUPT.get(),
        corrupt_before,
        "version bumps must not count as corruption"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_tower_entries_degrade_to_counted_misses_and_recompute() {
    let _guard = serial();
    let dir = temp_dir("tower-corrupt");
    let store = Arc::new(TowerStore::open(&dir).unwrap());
    let alpha = act_adversary::AgreementFunction::k_concurrency(2, 2);
    let r_a = act_affine::fair_affine_task(&alpha);
    let inputs = act_topology::Complex::standard(2);

    // A first lifetime persists the tower levels…
    {
        let mut cache = fact::DomainCache::new()
            .with_persistence(Arc::clone(&store) as Arc<dyn TowerPersistence>);
        assert!(cache.domain(&r_a, &inputs, 2).facet_count() > 0);
    }
    // …which are then damaged on disk (truncated mid-entry).
    let towers_dir = dir.join("towers");
    let mut damaged = 0;
    for entry in std::fs::read_dir(&towers_dir).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        damaged += 1;
    }
    assert!(damaged >= 2, "both levels were persisted");

    // A restarted lifetime must count the corruption, fall back to
    // building from scratch, and still produce the exact domain.
    let corrupt_before = SERVE_TOWER_CORRUPT.get();
    let mut restarted =
        fact::DomainCache::new().with_persistence(Arc::clone(&store) as Arc<dyn TowerPersistence>);
    let recomputed = restarted.domain(&r_a, &inputs, 2).clone();
    assert_eq!(
        SERVE_TOWER_CORRUPT.get() - corrupt_before,
        damaged as u64,
        "every damaged entry is a counted miss, never a panic"
    );
    assert_eq!(recomputed, fact::affine_domain(&r_a, &inputs, 2));

    // The recompute re-persisted sound entries: a third lifetime loads
    // them cleanly with no further corruption counted.
    let corrupt_before = SERVE_TOWER_CORRUPT.get();
    let mut third =
        fact::DomainCache::new().with_persistence(Arc::clone(&store) as Arc<dyn TowerPersistence>);
    assert_eq!(third.domain(&r_a, &inputs, 2), &recomputed);
    assert_eq!(SERVE_TOWER_CORRUPT.get(), corrupt_before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn n_identical_concurrent_queries_run_the_engine_once() {
    let _guard = serial();
    let store = Arc::new(VerdictStore::in_memory());
    let sched = Scheduler::new(store, ServeConfig::default());
    let runs_before = SERVE_ENGINE_RUNS.get();
    // Submit the whole batch before any worker exists, so every query is
    // provably in flight at once; then let the pool race over them.
    let receivers: Vec<_> = (0..8)
        .map(|_| match sched.submit(query("t-res:3:1", 2, 1)) {
            Submitted::Pending(rx) => rx,
            _ => panic!("first submissions must be admitted"),
        })
        .collect();
    sched.start_workers();
    for rx in receivers {
        match rx.recv().expect("every waiter is answered") {
            Served::Authoritative { verdict, .. } => assert_eq!(verdict.verdict, "solvable"),
            other => panic!("expected an authoritative verdict, got {other:?}"),
        }
    }
    assert_eq!(
        SERVE_ENGINE_RUNS.get() - runs_before,
        1,
        "single-flight: 8 identical queries, exactly one engine run"
    );
    sched.drain();
}

#[test]
fn bounded_queue_rejects_rather_than_buffering() {
    let config = ServeConfig {
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let sched = Scheduler::new(Arc::new(VerdictStore::in_memory()), config);
    assert!(matches!(
        sched.submit(query("t-res:3:1", 1, 1)),
        Submitted::Pending(_)
    ));
    assert!(matches!(
        sched.submit(query("t-res:3:1", 1, 2)),
        Submitted::Pending(_)
    ));
    // Queue full; a coalescible duplicate still joins…
    assert!(matches!(
        sched.submit(query("t-res:3:1", 1, 1)),
        Submitted::Pending(_)
    ));
    // …but a distinct query is pushed back on.
    assert!(matches!(
        sched.submit(query("t-res:3:1", 1, 3)),
        Submitted::Busy { depth: 2 }
    ));
    sched.drain();
}

#[test]
fn unreliable_verdicts_answer_but_never_persist() {
    let dir = temp_dir("unreliable");
    let store = Arc::new(VerdictStore::open(&dir).unwrap());
    let config = ServeConfig {
        // Every job inherits an already-expired deadline.
        deadline_ms: Some(0),
        ..ServeConfig::default()
    };
    let sched = Scheduler::new(Arc::clone(&store), config);
    sched.start_workers();
    // Below α(Π) = 3, so the search (not the leader map) answers it.
    let q = query("t-res:4:2", 2, 1);
    let served = match sched.submit(q.clone()) {
        Submitted::Ready(s) => s,
        Submitted::Pending(rx) => rx.recv().unwrap(),
        _ => panic!("query must be admitted"),
    };
    match served {
        Served::Unreliable { verdict, .. } => assert_eq!(verdict, "timed-out"),
        other => panic!("expected a timed-out answer, got {other:?}"),
    }
    // Nothing was persisted, in memory or on disk.
    assert_eq!(store.get(&q.key()), None);
    assert!(!store.entry_path(&q.key()).unwrap().exists());
    // The same query with a real budget recomputes and then persists.
    let mut patient = q.clone();
    patient.deadline_ms = Some(60_000);
    let served = match sched.submit(patient) {
        Submitted::Ready(s) => s,
        Submitted::Pending(rx) => rx.recv().unwrap(),
        _ => panic!("query must be admitted"),
    };
    match served {
        Served::Authoritative { verdict, source } => {
            assert_eq!(verdict.verdict, "solvable");
            assert_eq!(source, "engine");
        }
        other => panic!("expected an authoritative verdict, got {other:?}"),
    }
    assert!(store.entry_path(&q.key()).unwrap().exists());
    sched.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_and_scheduler_agree_on_canonical_spellings() {
    // Two spellings of one custom model coalesce to one stored entry.
    let store = VerdictStore::in_memory();
    let a = ModelSpec::parse("custom:3:{p1,p3};{p2}", false).unwrap();
    let b = ModelSpec::parse("custom:3:{p2}; {p3,p1}", false).unwrap();
    let task = TaskSpec::set_consensus(3, 1).unwrap();
    let ka = StoreKey::new(&a, &task, 1);
    let kb = StoreKey::new(&b, &task, 1);
    assert_eq!(ka.content_hash(), kb.content_hash());
    assert!(store.put(&ka, &verdict(1)));
    assert_eq!(store.get(&kb).unwrap().iterations, 1);
}
