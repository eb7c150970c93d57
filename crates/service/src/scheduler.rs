//! The batching, single-flight scheduler.
//!
//! Queries flow through three gates:
//!
//! 1. **Store check** — an authoritative verdict already in the
//!    [`VerdictStore`] is returned immediately ([`Submitted::Ready`],
//!    counted by [`SERVE_HIT`](crate::SERVE_HIT)).
//! 2. **Single-flight coalescing** — a query identical (by
//!    [`StoreKey`]) to one already queued or running does not enqueue a
//!    second job; the caller is attached as a waiter on the in-flight
//!    computation and all waiters receive the one result
//!    ([`SERVE_COALESCED`](crate::SERVE_COALESCED)).
//! 3. **Bounded admission** — a full queue rejects with
//!    [`Submitted::Busy`] instead of buffering without limit
//!    ([`SERVE_REJECTED`](crate::SERVE_REJECTED)).
//!
//! Admitted jobs are served by a worker pool. Workers are **cache-aware**:
//! each prefers the queued job whose agreement function matches the
//! tower slot it just warmed, so a mixed workload naturally batches by
//! model and the shared [`DomainCache`] towers (plus the memoized `R_A`
//! itself) are extended, not rebuilt. A slot is keyed by the canonical α
//! table alone ([`SolveQuery::tower_key`]): `R_A` is a function of α, so
//! every spelling of one model and every `k` share one `R_A`. Slots live
//! in a small LRU so a long-running server's memory stays bounded.
//!
//! Every engine run goes through the deadline / degraded-engine
//! machinery ([`SearchConfig`]); a `timed-out` or `exhausted` outcome is
//! reported to the requesters as [`Served::Unreliable`] and **never
//! persisted** — only authoritative verdicts reach the store.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use act_affine::{fair_affine_task, AffineTask};
use act_tasks::{SearchConfig, SetConsensus};
use act_topology::ColorSet;
use fact::{DomainCache, ModelSpec, TaskSpec};

use crate::protocol::{StatsBody, CODE_RUNTIME};
use crate::store::{StoreKey, StoredVerdict, VerdictStore};
use crate::{
    deepening_verdict, SERVE_COALESCED, SERVE_ENGINE_RUNS, SERVE_HIT, SERVE_MISS,
    SERVE_QUEUE_DEPTH, SERVE_REJECTED,
};

/// Tuning knobs for a [`Scheduler`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads serving the queue (minimum 1).
    pub workers: usize,
    /// Bound on the number of queued (not yet running) jobs; beyond it
    /// submissions are rejected with [`Submitted::Busy`].
    pub queue_capacity: usize,
    /// Default per-job wall-clock budget, used when a query carries no
    /// deadline of its own.
    pub deadline_ms: Option<u64>,
    /// Map-search node budget per engine run.
    pub max_nodes: usize,
    /// Engine threads per run (`None` = the environment's
    /// `mapsearch_threads()` default).
    pub threads: Option<usize>,
    /// How many warmed tower slots to keep resident: one per agreement
    /// function, each holding its `R_A` and the towers of its `k`s.
    pub tower_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            deadline_ms: None,
            max_nodes: 5_000_000,
            threads: None,
            tower_capacity: 8,
        }
    }
}

/// One solvability query, already validated by the spec parsers.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveQuery {
    /// The model.
    pub model: ModelSpec,
    /// The task (its `k` validated against the model's process count).
    pub task: TaskSpec,
    /// Deepening bound `ℓ`.
    pub iters: usize,
    /// Per-request wall-clock budget, overriding the config default.
    pub deadline_ms: Option<u64>,
}

impl SolveQuery {
    /// The query's store identity.
    pub fn key(&self) -> StoreKey {
        StoreKey::new(&self.model, &self.task, self.iters)
    }

    /// The identity of the warmed state this query can reuse: the
    /// model's canonical α table (`alpha:N:<table>`). `R_A` is a function
    /// of α alone, so jobs with equal tower keys share one `R_A` and one
    /// `DomainCache` whatever their spelling, `k` or `ℓ`; the cache holds
    /// one tower per `k` (one rainbow input complex each).
    pub fn tower_key(&self) -> String {
        let alpha = self.model.agreement_function();
        ModelSpec::Alpha {
            n: alpha.num_processes(),
            table: alpha.table().to_vec(),
        }
        .canonical_string()
    }
}

/// The outcome of one served query.
#[derive(Clone, Debug, PartialEq)]
pub enum Served {
    /// An authoritative verdict (`solvable` / `no-map`), from `source`:
    /// `"store"`, `"engine"`, or `"coalesced"`.
    Authoritative {
        /// The verdict (and witness, when solvable).
        verdict: StoredVerdict,
        /// Where this requester's answer came from.
        source: &'static str,
    },
    /// A resource outcome (`exhausted` / `timed-out`): reported, never
    /// persisted.
    Unreliable {
        /// The verdict name.
        verdict: String,
        /// The iteration count the search gave up at.
        iterations: u64,
    },
    /// The query could not be answered at all.
    Failed {
        /// What went wrong.
        error: String,
        /// Protocol error code (see [`crate::protocol`]).
        code: u64,
    },
}

/// What [`Scheduler::submit`] did with a query.
#[derive(Debug)]
pub enum Submitted {
    /// Answered synchronously from the store.
    Ready(Served),
    /// Admitted (or coalesced); the result arrives on the receiver.
    Pending(Receiver<Served>),
    /// Rejected: the bounded queue is full (backpressure).
    Busy {
        /// The queue depth observed at rejection.
        depth: u64,
    },
    /// Rejected: the scheduler is draining for shutdown.
    Draining,
}

/// A queued job: the canonical key, the tower slot it warms (computed
/// once, since workers compare it on every pick) and the query it
/// answers.
struct Job {
    key: StoreKey,
    tower: String,
    query: SolveQuery,
}

/// Mutable scheduler state behind one lock.
struct SchedState {
    queue: VecDeque<Job>,
    /// Waiters per in-flight key; index 0 is the submitter that caused
    /// the enqueue (its answer is sourced `"engine"`, later joiners get
    /// `"coalesced"`).
    inflight: HashMap<StoreKey, Vec<Sender<Served>>>,
    running: usize,
    draining: bool,
}

/// A warmed per-agreement-function tower slot: the affine task `R_A` and
/// the incremental `R_A^ℓ` domain cache.
struct TowerSlot {
    affine: AffineTask,
    cache: DomainCache,
}

struct TowerMap {
    slots: HashMap<String, (Arc<Mutex<TowerSlot>>, u64)>,
    clock: u64,
}

/// The write-through replication hook: called with the content hash of
/// every freshly persisted authoritative verdict.
pub type Replicator = Arc<dyn Fn(u128) + Send + Sync>;

/// The batching, single-flight scheduler over a shared [`VerdictStore`].
pub struct Scheduler {
    store: Arc<VerdictStore>,
    /// Persistent `R_A^ℓ` towers, opened under the verdict store's disk
    /// directory (`<store>/towers`). `None` for memory-only stores: no
    /// disk, nothing to warm-restart from.
    tower_store: Option<Arc<crate::TowerStore>>,
    config: ServeConfig,
    state: Mutex<SchedState>,
    job_ready: Condvar,
    towers: Mutex<TowerMap>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Write-through replication hook: the cluster layer ships the
    /// committed bytes to the other owners.
    replicator: Mutex<Option<Replicator>>,
}

impl Scheduler {
    /// A scheduler over `store`. Workers are **not** started — call
    /// [`Scheduler::start_workers`]; the split lets tests submit a batch
    /// of identical queries first and assert that exactly one engine run
    /// serves them all.
    pub fn new(store: Arc<VerdictStore>, config: ServeConfig) -> Arc<Scheduler> {
        let tower_store = store
            .disk_dir()
            .and_then(|dir| crate::TowerStore::open(dir).ok())
            .map(Arc::new);
        Arc::new(Scheduler {
            store,
            tower_store,
            config,
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                running: 0,
                draining: false,
            }),
            job_ready: Condvar::new(),
            towers: Mutex::new(TowerMap {
                slots: HashMap::new(),
                clock: 0,
            }),
            workers: Mutex::new(Vec::new()),
            replicator: Mutex::new(None),
        })
    }

    /// Installs the write-through replication hook (see the `replicator`
    /// field). The server wires the cluster layer in through this seam,
    /// keeping the scheduler free of any peer knowledge.
    pub fn set_replicator(&self, hook: Replicator) {
        *self.replicator.lock().unwrap_or_else(|e| e.into_inner()) = Some(hook);
    }

    /// The store this scheduler answers from and writes to.
    pub fn store(&self) -> &VerdictStore {
        &self.store
    }

    /// Spawns the worker pool (idempotent).
    pub fn start_workers(self: &Arc<Scheduler>) {
        let mut workers = self.lock_workers();
        if !workers.is_empty() {
            return;
        }
        for i in 0..self.config.workers.max(1) {
            let me = Arc::clone(self);
            let handle = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || me.worker_loop())
                .expect("spawn scheduler worker");
            workers.push(handle);
        }
    }

    /// Submits a query through the store-check / coalesce / admit gates.
    pub fn submit(&self, query: SolveQuery) -> Submitted {
        let key = query.key();
        if let Some(verdict) = self.store.get(&key) {
            SERVE_HIT.add(1);
            return Submitted::Ready(Served::Authoritative {
                verdict,
                source: "store",
            });
        }
        let tower = query.tower_key();
        let mut state = self.lock_state();
        if state.draining {
            return Submitted::Draining;
        }
        if let Some(waiters) = state.inflight.get_mut(&key) {
            SERVE_COALESCED.add(1);
            let (tx, rx) = channel();
            waiters.push(tx);
            return Submitted::Pending(rx);
        }
        if state.queue.len() >= self.config.queue_capacity {
            SERVE_REJECTED.add(1);
            return Submitted::Busy {
                depth: state.queue.len() as u64,
            };
        }
        SERVE_MISS.add(1);
        let (tx, rx) = channel();
        state.inflight.insert(key.clone(), vec![tx]);
        state.queue.push_back(Job { key, tower, query });
        SERVE_QUEUE_DEPTH.set(state.queue.len() as u64);
        drop(state);
        self.job_ready.notify_one();
        Submitted::Pending(rx)
    }

    /// A point-in-time snapshot of the serving counters. The counters
    /// are process-global, so in-process tests diff them rather than
    /// assert absolutes.
    pub fn stats_snapshot(&self) -> StatsBody {
        let state = self.lock_state();
        StatsBody {
            hits: SERVE_HIT.get(),
            misses: SERVE_MISS.get(),
            coalesced: SERVE_COALESCED.get(),
            engine_runs: SERVE_ENGINE_RUNS.get(),
            store_corrupt: crate::SERVE_STORE_CORRUPT.get(),
            tower_hits: crate::SERVE_TOWER_HIT.get(),
            tower_misses: crate::SERVE_TOWER_MISS.get(),
            tower_corrupt: crate::SERVE_TOWER_CORRUPT.get(),
            rejected: SERVE_REJECTED.get(),
            queue_depth: state.queue.len() as u64,
            inflight: (state.queue.len() + state.running) as u64,
            workers: self.lock_workers().len() as u64,
            merkle_root: format!("{:032x}", self.store.merkle_root()),
            merkle_entries: self.store.merkle_len() as u64,
            scrub_runs: crate::SERVE_SCRUB_RUNS.get(),
            scrub_corrupt: crate::SERVE_SCRUB_CORRUPT.get(),
            scrub_repaired: crate::SERVE_SCRUB_REPAIRED.get(),
            scrub_quarantined: crate::SERVE_SCRUB_QUARANTINED.get(),
            peer_forwards: crate::SERVE_PEER_FORWARDS.get(),
            failovers: crate::SERVE_PEER_FAILOVERS.get(),
            peer_replications: crate::SERVE_PEER_REPLICATIONS.get(),
            peer_sync_pulls: crate::SERVE_PEER_SYNC_PULLS.get(),
            fpc_hits: crate::SERVE_FPC_HITS.get(),
            fpc_misses: crate::SERVE_FPC_MISSES.get(),
            fpc_corrupt: crate::SERVE_FPC_CORRUPT.get(),
        }
    }

    /// Graceful drain: stop admitting, finish every queued and running
    /// job (their waiters still get answers), then join the workers.
    pub fn drain(&self) {
        {
            let mut state = self.lock_state();
            state.draining = true;
        }
        self.job_ready.notify_all();
        let handles = std::mem::take(&mut *self.lock_workers());
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_workers(&self) -> MutexGuard<'_, Vec<std::thread::JoinHandle<()>>> {
        self.workers.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn worker_loop(self: Arc<Scheduler>) {
        let mut last_tower: Option<String> = None;
        while let Some(job) = self.next_job(last_tower.as_deref()) {
            let result = self.compute(&job.tower, &job.query);
            self.finish(&job.key, result);
            last_tower = Some(job.tower);
        }
    }

    /// Blocks for the next job. Cache-aware: prefers a queued job whose
    /// tower key matches the one this worker just warmed, falling back
    /// to FIFO. Returns `None` when draining and the queue is empty.
    fn next_job(&self, last_tower: Option<&str>) -> Option<Job> {
        let mut state = self.lock_state();
        loop {
            if !state.queue.is_empty() {
                let pos = last_tower
                    .and_then(|t| state.queue.iter().position(|j| j.tower == t))
                    .unwrap_or(0);
                let job = state.queue.remove(pos).expect("non-empty queue");
                state.running += 1;
                SERVE_QUEUE_DEPTH.set(state.queue.len() as u64);
                return Some(job);
            }
            if state.draining {
                return None;
            }
            state = self
                .job_ready
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The warmed tower slot `tower_key` of a query, building (and
    /// LRU-evicting) as needed. Building fails when the model admits no
    /// runs.
    fn tower_slot(
        &self,
        tower_key: &str,
        query: &SolveQuery,
    ) -> Result<Arc<Mutex<TowerSlot>>, String> {
        let mut towers = self.towers.lock().unwrap_or_else(|e| e.into_inner());
        towers.clock += 1;
        let clock = towers.clock;
        if let Some((slot, stamp)) = towers.slots.get_mut(tower_key) {
            *stamp = clock;
            return Ok(Arc::clone(slot));
        }
        let alpha = query.model.agreement_function();
        if alpha.alpha(ColorSet::full(query.model.num_processes())) == 0 {
            return Err("the model admits no runs".into());
        }
        let mut cache = DomainCache::new();
        if let Some(ts) = &self.tower_store {
            // Store-backed towers: a fresh slot (cold process, or one
            // rebuilt after an eviction or panic) reloads its levels from
            // disk instead of resubdividing.
            cache.set_persistence(Arc::clone(ts) as Arc<dyn fact::TowerPersistence>);
        }
        let slot = Arc::new(Mutex::new(TowerSlot {
            affine: fair_affine_task(&alpha),
            cache,
        }));
        towers
            .slots
            .insert(tower_key.to_string(), (Arc::clone(&slot), clock));
        while towers.slots.len() > self.config.tower_capacity.max(1) {
            let Some(oldest) = towers
                .slots
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            towers.slots.remove(&oldest);
        }
        Ok(slot)
    }

    /// Runs the engine for one job: warmed tower, shared deepening loop,
    /// panic containment, store write for authoritative verdicts only.
    fn compute(&self, tower_key: &str, query: &SolveQuery) -> Served {
        let slot = match self.tower_slot(tower_key, query) {
            Ok(slot) => slot,
            Err(error) => {
                return Served::Failed {
                    error,
                    code: CODE_RUNTIME,
                }
            }
        };
        let task: SetConsensus = query.task.task();
        let mut config = SearchConfig::new(self.config.max_nodes);
        if let Some(threads) = self.config.threads {
            config = config.with_threads(threads);
        }
        if let Some(ms) = query.deadline_ms.or(self.config.deadline_ms) {
            config = config.with_deadline(Duration::from_millis(ms));
        }
        let mut tower = slot.lock().unwrap_or_else(|e| e.into_inner());
        let TowerSlot { affine, cache } = &mut *tower;
        SERVE_ENGINE_RUNS.add(1);
        let span = act_obs::span("serve.engine");
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            deepening_verdict(cache, &task, affine, query.iters, &config)
        }));
        span.finish()
            .str("model", &query.model.canonical_string())
            .bool("panicked", verdict.is_err())
            .emit();
        let verdict = match verdict {
            Ok(v) => v,
            Err(_) => {
                // A panicked engine may have left the tower half-built:
                // drop the slot so the next job rebuilds it cleanly.
                drop(tower);
                self.towers
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .slots
                    .remove(tower_key);
                return Served::Failed {
                    error: "engine panicked".into(),
                    code: CODE_RUNTIME,
                };
            }
        };
        match StoredVerdict::from_solvability(&verdict) {
            Some(stored) => {
                let key = query.key();
                self.store.put(&key, &stored);
                let hook = self
                    .replicator
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone();
                if let Some(hook) = hook {
                    hook(key.content_hash());
                }
                Served::Authoritative {
                    verdict: stored,
                    source: "engine",
                }
            }
            None => {
                let iterations = match &verdict {
                    fact::Solvability::Exhausted { iterations }
                    | fact::Solvability::TimedOut { iterations } => *iterations as u64,
                    _ => 0,
                };
                Served::Unreliable {
                    verdict: verdict.verdict_name().to_string(),
                    iterations,
                }
            }
        }
    }

    /// Delivers one result to every waiter on `key`. The submitter
    /// (index 0) keeps the computed source; coalesced joiners see
    /// `"coalesced"`.
    fn finish(&self, key: &StoreKey, result: Served) {
        let waiters = {
            let mut state = self.lock_state();
            state.running -= 1;
            state.inflight.remove(key).unwrap_or_default()
        };
        for (i, tx) in waiters.into_iter().enumerate() {
            let msg = match (&result, i) {
                (Served::Authoritative { verdict, source }, 0) => Served::Authoritative {
                    verdict: verdict.clone(),
                    source,
                },
                (Served::Authoritative { verdict, .. }, _) => Served::Authoritative {
                    verdict: verdict.clone(),
                    source: "coalesced",
                },
                _ => result.clone(),
            };
            let _ = tx.send(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(iters: usize) -> SolveQuery {
        SolveQuery {
            model: ModelSpec::parse("t-res:3:1", false).unwrap(),
            task: TaskSpec::set_consensus(3, 1).unwrap(),
            iters,
            deadline_ms: None,
        }
    }

    #[test]
    fn identical_queries_coalesce_before_workers_start() {
        let _serial = crate::test_serial_guard();
        let sched = Scheduler::new(Arc::new(VerdictStore::in_memory()), ServeConfig::default());
        let runs_before = SERVE_ENGINE_RUNS.get();
        let coalesced_before = SERVE_COALESCED.get();
        let mut waiting = Vec::new();
        for _ in 0..4 {
            match sched.submit(query(1)) {
                Submitted::Pending(rx) => waiting.push(rx),
                other => panic!("expected Pending, got {}", kind(&other)),
            }
        }
        assert_eq!(SERVE_COALESCED.get() - coalesced_before, 3);
        assert_eq!(sched.stats_snapshot().queue_depth, 1);
        sched.start_workers();
        let mut sources = Vec::new();
        for rx in waiting {
            match rx.recv().expect("worker answers every waiter") {
                Served::Authoritative { verdict, source } => {
                    // With the CLI value convention (k + 1 values),
                    // t-res:3:1 solves consensus at ℓ = 1.
                    assert_eq!(verdict.verdict, "solvable");
                    assert!(!verdict.witness.is_empty());
                    sources.push(source);
                }
                other => panic!("expected authoritative, got {other:?}"),
            }
        }
        // One engine run served all four; the batch's submitter is the
        // engine answer, the rest are coalesced.
        assert_eq!(SERVE_ENGINE_RUNS.get() - runs_before, 1);
        sources.sort();
        assert_eq!(sources, ["coalesced", "coalesced", "coalesced", "engine"]);
        // And the verdict is now stored: the next submit is a hit.
        match sched.submit(query(1)) {
            Submitted::Ready(Served::Authoritative { source, .. }) => {
                assert_eq!(source, "store")
            }
            other => panic!("expected Ready, got {}", kind(&other)),
        }
        sched.drain();
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let config = ServeConfig {
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let _serial = crate::test_serial_guard();
        let sched = Scheduler::new(Arc::new(VerdictStore::in_memory()), config);
        let rejected_before = SERVE_REJECTED.get();
        assert!(matches!(sched.submit(query(1)), Submitted::Pending(_)));
        // A *different* query can't coalesce and the queue is full.
        match sched.submit(query(2)) {
            Submitted::Busy { depth } => assert_eq!(depth, 1),
            other => panic!("expected Busy, got {}", kind(&other)),
        }
        assert_eq!(SERVE_REJECTED.get() - rejected_before, 1);
        // Drain without workers: queued waiters see a closed channel,
        // not a hang.
        sched.drain();
        assert!(matches!(sched.submit(query(3)), Submitted::Draining));
    }

    #[test]
    fn tower_keys_name_the_agreement_function_not_the_spelling_or_task() {
        let query = |model: &str, k: usize| SolveQuery {
            model: ModelSpec::parse(model, false).unwrap(),
            task: TaskSpec::set_consensus(4, k).unwrap(),
            iters: 1,
            deadline_ms: None,
        };
        // t-res:4:1: α(P) = 1 on the four triples, 2 on Π, 0 below.
        let spellings = [
            "t-res:4:1",
            "alpha:4:0000000100010112",
            "custom:4:{p1,p2,p3};{p1,p2,p4};{p1,p3,p4};{p2,p3,p4};{p1,p2,p3,p4}",
        ];
        let key = query("t-res:4:1", 1).tower_key();
        for model in spellings {
            for k in 1..=3 {
                assert_eq!(query(model, k).tower_key(), key, "{model} at k = {k}");
            }
        }
        assert_ne!(query("t-res:4:2", 1).tower_key(), key);
    }

    fn kind(s: &Submitted) -> &'static str {
        match s {
            Submitted::Ready(_) => "Ready",
            Submitted::Pending(_) => "Pending",
            Submitted::Busy { .. } => "Busy",
            Submitted::Draining => "Draining",
        }
    }
}
