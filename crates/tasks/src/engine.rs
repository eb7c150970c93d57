//! The map-search engine: trail-backtracking conflict-directed dom/wdeg
//! search over the bitset CSP of [`crate::csp`], run serially or fanned
//! out over scoped worker threads that split the root variable's
//! candidate values.
//!
//! Branching minimizes `domain size / conflict weight` ([`pick_branch_var`]):
//! every constraint starts at weight 1, and each wipe-out a constraint
//! causes bumps all of its members, so the search gravitates toward the
//! variables implicated in past conflicts. With no conflicts seen the
//! rule degrades to plain MRV. Root branches cleanly refuted (`NoMap`,
//! never a budget/deadline cut) are recorded in a shared nogood store so
//! the serial retry of a panicked chunk never redoes finished work.
//!
//! # Parallel protocol
//!
//! After the root GAC fixpoint, the engine picks the same dom/wdeg
//! variable the serial search would branch on first and
//! partitions its values into contiguous chunks, one per worker
//! (reusing [`act_topology::parallel_map_ranges_catch`], the subdivision
//! engine's deterministic fork/join with panic containment). Each worker
//! clones the mutable CSP state once, searches its branches in value
//! order, and:
//!
//! * checks a shared `AtomicBool` *found/abort* flag at every node,
//!   stopping early once any worker has a witness;
//! * draws every node from a shared atomic *budget pool* of
//!   `max_nodes`, so the whole parallel search is bounded exactly like
//!   the serial one;
//! * checks the wall-clock deadline (when [`SearchConfig::deadline`] is
//!   set) at every node, aborting the whole fan-out into
//!   [`SearchResult::TimedOut`] when it expires;
//! * on success, records `(branch index, witness)` in a shared slot
//!   that keeps the **lowest branch index** — the deterministic rule
//!   for which worker's witness is returned.
//!
//! # Graceful degradation
//!
//! A panicking worker poisons only its own chunk: the panic is caught at
//! the fork/join boundary, an `engine.degraded` event is emitted, and the
//! engine retries the chunk's branches serially on the calling thread
//! (each retry itself under `catch_unwind`). A branch that completes on
//! retry contributes to the verdict exactly as if its worker had never
//! panicked; a branch that cannot complete even serially marks the run
//! *degraded* ([`SearchStats::degraded`]), and a degraded run never
//! claims `Unsolvable` — the strongest verdict it can report without a
//! witness is [`SearchResult::Exhausted`], because some subtree was
//! never exhausted.
//!
//! Verdicts are deterministic across thread counts: `Found` iff some
//! branch has a solution, `Unsolvable` iff every branch exhausts its
//! subtree with no map (no worker ran out of budget or time, and no
//! branch was lost to a panic), `Exhausted`/`TimedOut` otherwise.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use act_topology::{parallel_map_ranges_catch, subdivision_threads, Complex, VertexMap};

use crate::csp::{build, propagate, State, Tables};
use crate::mapsearch::{SearchResult, SearchStats};
use crate::task::Task;

/// Tuning knobs of one map search.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Node budget shared by all workers (the atomic pool).
    pub max_nodes: usize,
    /// Worker threads the root branches are split across.
    pub threads: usize,
    /// Optional wall-clock deadline for the whole search. When it
    /// expires the engine aborts every worker and returns
    /// [`SearchResult::TimedOut`] (distinct from the node-budget
    /// [`SearchResult::Exhausted`]). `None` (the default) disables the
    /// watchdog; verdicts are then time-independent.
    pub deadline: Option<Duration>,
}

impl SearchConfig {
    /// A config using the environment's thread count
    /// ([`mapsearch_threads`]).
    pub fn new(max_nodes: usize) -> SearchConfig {
        SearchConfig {
            max_nodes,
            threads: mapsearch_threads(),
            deadline: None,
        }
    }

    /// A single-threaded config (the serial engine).
    pub fn serial(max_nodes: usize) -> SearchConfig {
        SearchConfig {
            max_nodes,
            threads: 1,
            deadline: None,
        }
    }

    /// Overrides the thread count.
    pub fn with_threads(mut self, threads: usize) -> SearchConfig {
        self.threads = threads.max(1);
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> SearchConfig {
        self.deadline = Some(deadline);
        self
    }
}

/// The number of worker threads map searches fan out to: the same
/// `RAYON_NUM_THREADS`-honouring count as the subdivision engine
/// (`RAYON_NUM_THREADS=1` forces the serial engine).
pub fn mapsearch_threads() -> usize {
    subdivision_threads()
}

/// Process-global count of parallel map searches that caught a worker
/// panic and entered degraded mode (telemetry; see [`act_obs::Counter`]).
pub static ENGINE_DEGRADED: act_obs::Counter = act_obs::Counter::new("engine.degraded_total");

/// Version stamp of the search engine's *observable semantics*: the
/// verdict vocabulary, the deterministic witness rule (lowest branch
/// index), and the carried-map encoding. Persistent verdict stores key
/// entries by it, so bump it whenever a change could make a previously
/// stored verdict or witness disagree with what the engine would compute
/// today — stale entries then become clean cache misses instead of
/// wrong answers.
///
/// History: 1 = plain MRV branching; 2 = conflict-directed dom/wdeg
/// branching with multi-directional residues (different witnesses for
/// the same solvable instance); 3 = lex-leader symmetry breaking over
/// the task's declared symmetries (only the lex-least witness of each
/// solution orbit survives, so witnesses for symmetric instances moved
/// again); 4 = set consensus at `k ≥ α(Π)` and `ℓ = 1` answered by the
/// leader-map construction (`fact::leader_map_witness`) instead of the
/// search (same verdicts, iteration counts and witness lengths;
/// different witnesses).
pub const ENGINE_SCHEMA_VERSION: u32 = 4;

/// Deterministic fault-injection hooks for the parallel engine, used by
/// the chaos suite: arm a root-branch index and the next parallel map
/// search panics when a worker reaches that branch. The hooks only fire
/// on the parallel fan-out (workers and their serial retries), never on
/// the plain serial engine, so a serial baseline run is always clean.
pub mod chaos {
    use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

    const OFF: u8 = 0;
    const ONCE: u8 = 1;
    const ALWAYS: u8 = 2;

    static MODE: AtomicU8 = AtomicU8::new(OFF);
    static BRANCH: AtomicUsize = AtomicUsize::new(usize::MAX);

    /// Arms a one-shot panic: the first worker to reach root branch
    /// `branch` panics, then the hook disarms itself — so the engine's
    /// serial retry of the poisoned chunk succeeds (recovery path).
    pub fn panic_once_on_branch(branch: usize) {
        BRANCH.store(branch, Ordering::SeqCst);
        MODE.store(ONCE, Ordering::SeqCst);
    }

    /// Arms a persistent panic: every attempt at root branch `branch`,
    /// including serial retries, panics until [`disarm`] is called
    /// (degraded path — the branch can never complete).
    pub fn panic_always_on_branch(branch: usize) {
        BRANCH.store(branch, Ordering::SeqCst);
        MODE.store(ALWAYS, Ordering::SeqCst);
    }

    /// Disarms the hook.
    pub fn disarm() {
        MODE.store(OFF, Ordering::SeqCst);
        BRANCH.store(usize::MAX, Ordering::SeqCst);
    }

    /// Called by the parallel engine at the start of every root branch.
    pub(crate) fn maybe_panic(branch: usize) {
        if BRANCH.load(Ordering::SeqCst) != branch {
            return;
        }
        match MODE.load(Ordering::SeqCst) {
            ALWAYS => panic!("chaos: injected worker panic at root branch {branch}"),
            // The compare-exchange guarantees exactly one panic even if
            // several workers race to the armed branch.
            ONCE if MODE
                .compare_exchange(ONCE, OFF, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok() =>
            {
                panic!("chaos: injected worker panic at root branch {branch}");
            }
            _ => {}
        }
    }
}

/// Shared node-budget pool: every node, on every worker, draws one unit.
struct BudgetPool {
    remaining: AtomicUsize,
}

impl BudgetPool {
    fn new(max_nodes: usize) -> BudgetPool {
        BudgetPool {
            remaining: AtomicUsize::new(max_nodes),
        }
    }

    /// Draws one node from the pool; `false` means the budget ran out
    /// (the node is still counted by the caller, mirroring the serial
    /// engine's "the overrunning node is observed" accounting).
    fn charge(&self) -> bool {
        self.remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
    }
}

/// The run-wide limits every worker checks at each node: the pooled
/// budget, the shared abort flag, and the wall-clock deadline.
struct Limits<'a> {
    pool: &'a BudgetPool,
    abort: &'a AtomicBool,
    timed_out: &'a AtomicBool,
    deadline: Option<Instant>,
}

impl Limits<'_> {
    /// Charges one node against the deadline and the budget pool,
    /// reporting the overrun kind when either is exceeded.
    fn charge(&self) -> Option<Assign> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.timed_out.store(true, Ordering::Relaxed);
                self.abort.store(true, Ordering::Relaxed);
                return Some(Assign::TimedOut);
            }
        }
        if !self.pool.charge() {
            return Some(Assign::Budget);
        }
        None
    }

    /// What an abort observed mid-search means: a deadline expiry
    /// anywhere turns the whole run into a timeout; otherwise some
    /// worker found a witness.
    fn abort_kind(&self) -> Assign {
        if self.timed_out.load(Ordering::Relaxed) {
            Assign::TimedOut
        } else {
            Assign::Aborted
        }
    }
}

/// Outcome of one (sub)search.
enum Assign {
    Found,
    NoMap,
    Budget,
    TimedOut,
    Aborted,
}

/// Picks the unassigned variable minimizing `count / wdeg` — classic
/// conflict-directed dom/wdeg branching. Compared by cross-multiplication
/// (`count[a]·wdeg[b] < count[b]·wdeg[a]`) so no floats are involved;
/// ties break on the lower index, which keeps the pick deterministic and
/// degrades to plain MRV while no conflicts have been seen (all weights
/// equal). `None` means every domain is a singleton.
fn pick_branch_var(tables: &Tables, state: &State) -> Option<usize> {
    (0..tables.vars.len())
        .filter(|&i| state.count[i] > 1)
        .min_by(|&a, &b| {
            let lhs = state.count[a] as u64 * state.wdeg[b];
            let rhs = state.count[b] as u64 * state.wdeg[a];
            lhs.cmp(&rhs).then(a.cmp(&b))
        })
}

/// Recursive dom/wdeg backtracking over the shared tables. Leaves the
/// state fully assigned on [`Assign::Found`].
fn search(tables: &Tables, state: &mut State, stats: &mut SearchStats, limits: &Limits) -> Assign {
    if limits.abort.load(Ordering::Relaxed) {
        return limits.abort_kind();
    }
    let var = match pick_branch_var(tables, state) {
        None => return Assign::Found, // all singletons and GAC-consistent
        Some(v) => v,
    };
    stats.nodes += 1;
    if let Some(overrun) = limits.charge() {
        return overrun;
    }
    for val in state.domain_values(tables, var) {
        let mark = state.trail.len();
        assign(tables, state, var, val);
        if propagate(tables, state, Some(var), stats) {
            match search(tables, state, stats, limits) {
                Assign::Found => return Assign::Found,
                Assign::Budget => return Assign::Budget,
                Assign::TimedOut => return Assign::TimedOut,
                Assign::Aborted => return Assign::Aborted,
                Assign::NoMap => {}
            }
        }
        state.undo_to(tables, mark);
    }
    Assign::NoMap
}

/// Narrows `var` to exactly `val`, trailing every other removal.
fn assign(tables: &Tables, state: &mut State, var: usize, val: u32) {
    for other in state.domain_values(tables, var) {
        if other != val {
            state.remove(tables, var, other);
        }
    }
}

/// Reads the witnessing map out of a fully assigned state.
fn extract_map(tables: &Tables, state: &State) -> VertexMap {
    let mut map = VertexMap::new();
    for (i, &v) in tables.vars.iter().enumerate() {
        let val = state.single_value(tables, i);
        map.set(v, tables.values[i][val as usize]);
    }
    map
}

/// Records a witness under the lowest-branch-index rule, recovering the
/// slot if a panicking worker poisoned the mutex (the data is a plain
/// `Option` the winner fully overwrites, so a poisoned lock is safe to
/// re-enter).
fn record_witness(best: &Mutex<Option<(usize, VertexMap)>>, branch: usize, map: VertexMap) {
    let mut slot = best.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    if slot.as_ref().is_none_or(|(b, _)| branch < *b) {
        *slot = Some((branch, map));
    }
}

/// Shared nogood store of root branch *values* proven `NoMap` by a
/// clean, complete refutation (a root-level wipe-out or an exhausted
/// subtree — never a budget, deadline, or abort cut, which leave the
/// subtree unexplored). A recorded value may be skipped soundly by any
/// later attempt at the same branch: the serial retry of a panicked
/// chunk reuses the branches its worker finished before dying. The set
/// is keyed by value, not branch index, so it stays meaningful across
/// the retry's re-enumeration. Poisoned-lock recovery matches
/// [`record_witness`]: the set only ever grows by completed insertions.
struct NogoodStore {
    refuted: Mutex<HashSet<u32>>,
}

impl NogoodStore {
    fn new() -> NogoodStore {
        NogoodStore {
            refuted: Mutex::new(HashSet::new()),
        }
    }

    fn contains(&self, val: u32) -> bool {
        self.refuted
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .contains(&val)
    }

    fn record(&self, val: u32) {
        self.refuted
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(val);
    }
}

/// Per-worker report for telemetry and verdict aggregation.
struct WorkerReport {
    id: usize,
    stats: SearchStats,
    reason: &'static str,
    budget_ran_out: bool,
}

fn emit_worker_event(report: &WorkerReport) {
    if act_obs::enabled() {
        act_obs::event("mapsearch.worker")
            .u64("worker", report.id as u64)
            .u64("nodes", report.stats.nodes as u64)
            .u64("prunes", report.stats.prunes as u64)
            .u64("wipeouts", report.stats.wipeouts as u64)
            .u64("residue_hits", report.stats.residue_hits as u64)
            .u64("residue_misses", report.stats.residue_misses as u64)
            .u64("nogoods_recorded", report.stats.nogoods_recorded as u64)
            .u64("nogoods_skipped", report.stats.nogoods_skipped as u64)
            .str("reason", report.reason)
            .emit();
    }
}

/// Runs the full search (build → root GAC → serial or parallel
/// backtracking), accumulating telemetry into `stats`.
pub(crate) fn run(
    task: &dyn Task,
    domain: &Complex,
    config: &SearchConfig,
    stats: &mut SearchStats,
) -> SearchResult {
    let threads = config.threads.max(1);
    let started = Instant::now();
    let deadline = config.deadline.map(|d| started + d);
    // The calling thread always does at least the build and root GAC;
    // the parallel path overrides this with the real fan-out width.
    stats.workers = 1;
    let (tables, mut root) = match build(task, domain, threads) {
        Some(b) => b,
        None => return SearchResult::Unsolvable,
    };
    stats.variables = tables.vars.len();
    stats.constraints = tables.facet_constraints;
    stats.symmetry_constraints = tables.constraints.len() - tables.facet_constraints;
    if !propagate(&tables, &mut root, None, stats) {
        return SearchResult::Unsolvable;
    }

    let pool = BudgetPool::new(config.max_nodes);
    let abort = AtomicBool::new(false);
    let timed_out = AtomicBool::new(false);
    let limits = Limits {
        pool: &pool,
        abort: &abort,
        timed_out: &timed_out,
        deadline,
    };

    // The root branching variable: the serial search's first dom/wdeg
    // pick (which at the root, before any conflict, is the MRV pick).
    let split = match pick_branch_var(&tables, &root) {
        None => {
            // GAC alone solved it.
            stats.workers = 1;
            return SearchResult::Found(extract_map(&tables, &root));
        }
        Some(v) => v,
    };

    let branches = root.domain_values(&tables, split);
    let workers = threads.min(branches.len());
    if workers <= 1 {
        // Serial engine: one worker owns the whole tree.
        stats.workers = 1;
        let result = match search(&tables, &mut root, stats, &limits) {
            Assign::Found => SearchResult::Found(extract_map(&tables, &root)),
            Assign::NoMap => SearchResult::Unsolvable,
            Assign::Budget => SearchResult::Exhausted,
            Assign::TimedOut => SearchResult::TimedOut,
            Assign::Aborted => unreachable!("serial search only aborts via the deadline"),
        };
        emit_worker_event(&WorkerReport {
            id: 0,
            stats: *stats,
            reason: result.verdict_name(),
            budget_ran_out: matches!(result, SearchResult::Exhausted),
        });
        emit_deadline_event(&timed_out, started);
        return result;
    }

    // Parallel engine: contiguous branch chunks, one scoped worker each.
    // The winning witness is the one from the lowest branch index that
    // reported Found — a deterministic rule given the reported set.
    let best: Mutex<Option<(usize, VertexMap)>> = Mutex::new(None);
    let nogoods = NogoodStore::new();
    let worker_id = AtomicUsize::new(0);
    let chunk_results = parallel_map_ranges_catch(branches.len(), workers, |range| {
        let id = worker_id.fetch_add(1, Ordering::Relaxed);
        let mut state = root.clone();
        let mut wstats = SearchStats::default();
        let mut reason = "no-map";
        let mut budget_ran_out = false;
        for b in range {
            chaos::maybe_panic(b);
            if abort.load(Ordering::Relaxed) {
                if reason == "no-map" {
                    reason = match limits.abort_kind() {
                        Assign::TimedOut => "timed-out",
                        _ => "aborted",
                    };
                }
                break;
            }
            if nogoods.contains(branches[b]) {
                wstats.nogoods_skipped += 1;
                continue;
            }
            let mark = state.trail.len();
            assign(&tables, &mut state, split, branches[b]);
            let refuted = if propagate(&tables, &mut state, Some(split), &mut wstats) {
                match search(&tables, &mut state, &mut wstats, &limits) {
                    Assign::Found => {
                        let map = extract_map(&tables, &state);
                        record_witness(&best, b, map);
                        abort.store(true, Ordering::Relaxed);
                        reason = "found";
                        break;
                    }
                    Assign::Budget => {
                        reason = "exhausted";
                        budget_ran_out = true;
                        break;
                    }
                    Assign::TimedOut => {
                        reason = "timed-out";
                        break;
                    }
                    Assign::Aborted => {
                        reason = "aborted";
                        break;
                    }
                    Assign::NoMap => true,
                }
            } else {
                // A root-level wipe-out refutes the branch outright.
                true
            };
            if refuted {
                nogoods.record(branches[b]);
                wstats.nogoods_recorded += 1;
            }
            state.undo_to(&tables, mark);
        }
        let report = WorkerReport {
            id,
            stats: wstats,
            reason,
            budget_ran_out,
        };
        emit_worker_event(&report);
        report
    });

    // Aggregate the chunks; a panicked chunk is retried serially here on
    // the calling thread, branch by branch, each retry contained by its
    // own catch_unwind (a fresh state clone per branch keeps a mid-search
    // panic from corrupting the next branch's domains).
    let mut reports: Vec<WorkerReport> = Vec::with_capacity(chunk_results.len());
    let mut lost_branches = 0usize;
    for (range, chunk) in chunk_results {
        match chunk {
            Ok(report) => reports.push(report),
            Err(message) => {
                stats.caught_panics += 1;
                ENGINE_DEGRADED.add(1);
                if act_obs::enabled() {
                    act_obs::event("engine.degraded")
                        .u64("chunk_start", range.start as u64)
                        .u64("chunk_end", range.end as u64)
                        .str("error", &message)
                        .emit();
                }
                let id = worker_id.fetch_add(1, Ordering::Relaxed);
                let mut wstats = SearchStats::default();
                let mut reason = "no-map";
                let mut budget_ran_out = false;
                for b in range {
                    if abort.load(Ordering::Relaxed) {
                        if reason == "no-map" {
                            reason = match limits.abort_kind() {
                                Assign::TimedOut => "timed-out",
                                _ => "aborted",
                            };
                        }
                        break;
                    }
                    // The panicked worker may have cleanly refuted this
                    // branch before dying — its nogood spares the retry.
                    if nogoods.contains(branches[b]) {
                        wstats.nogoods_skipped += 1;
                        continue;
                    }
                    let attempt = catch_unwind(AssertUnwindSafe(|| {
                        chaos::maybe_panic(b);
                        let mut state = root.clone();
                        let mut bstats = SearchStats::default();
                        assign(&tables, &mut state, split, branches[b]);
                        let outcome = if propagate(&tables, &mut state, Some(split), &mut bstats) {
                            search(&tables, &mut state, &mut bstats, &limits)
                        } else {
                            Assign::NoMap
                        };
                        let map = match outcome {
                            Assign::Found => Some(extract_map(&tables, &state)),
                            _ => None,
                        };
                        (outcome, map, bstats)
                    }));
                    match attempt {
                        Err(_) => {
                            // The branch cannot complete even serially:
                            // its subtree was never exhausted, so the
                            // run is degraded.
                            lost_branches += 1;
                        }
                        Ok((outcome, map, bstats)) => {
                            wstats.absorb(&bstats);
                            if matches!(outcome, Assign::NoMap) {
                                nogoods.record(branches[b]);
                                wstats.nogoods_recorded += 1;
                            }
                            match outcome {
                                Assign::Found => {
                                    if let Some(map) = map {
                                        record_witness(&best, b, map);
                                    }
                                    abort.store(true, Ordering::Relaxed);
                                    reason = "found";
                                    break;
                                }
                                Assign::Budget => {
                                    reason = "exhausted";
                                    budget_ran_out = true;
                                    break;
                                }
                                Assign::TimedOut => {
                                    reason = "timed-out";
                                    break;
                                }
                                Assign::Aborted => {
                                    reason = "aborted";
                                    break;
                                }
                                Assign::NoMap => {}
                            }
                        }
                    }
                }
                let report = WorkerReport {
                    id,
                    stats: wstats,
                    reason,
                    budget_ran_out,
                };
                emit_worker_event(&report);
                reports.push(report);
            }
        }
    }

    stats.workers = reports.len();
    stats.degraded = lost_branches > 0;
    let mut any_exhausted = false;
    for r in &reports {
        stats.absorb(&r.stats);
        any_exhausted |= r.budget_ran_out;
    }
    emit_deadline_event(&timed_out, started);
    let witness = best
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some((_, map)) = witness {
        SearchResult::Found(map)
    } else if timed_out.load(Ordering::Relaxed) {
        SearchResult::TimedOut
    } else if any_exhausted || lost_branches > 0 {
        // No worker aborted without cause (abort is only ever set by a
        // Found or a deadline), so a missing witness with complete
        // branches means exhaustive unsolvability — but a degraded run
        // lost a subtree and must not claim it.
        SearchResult::Exhausted
    } else {
        SearchResult::Unsolvable
    }
}

/// Emits the `engine.deadline` event when the watchdog fired.
fn emit_deadline_event(timed_out: &AtomicBool, started: Instant) {
    if timed_out.load(Ordering::Relaxed) && act_obs::enabled() {
        act_obs::event("engine.deadline")
            .u64("elapsed_us", started.elapsed().as_micros() as u64)
            .emit();
    }
}
