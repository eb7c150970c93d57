//! The map-search engine: trail-backtracking conflict-directed dom/wdeg
//! search over the bitset CSP of [`crate::csp`].
//!
//! Branching minimizes `domain size / conflict weight` ([`pick_branch_var`]):
//! every constraint starts at weight 1, and each wipe-out a constraint
//! causes bumps all of its members, so the search gravitates toward the
//! variables implicated in past conflicts. With no conflicts seen the
//! rule degrades to plain MRV.
//!
//! One run is build → root GAC → backtracking, on the calling thread,
//! bounded by the node budget ([`SearchConfig::max_nodes`]) and, when
//! set, the wall-clock deadline ([`SearchConfig::deadline`]). The verdict
//! is `Found` with the first witness in branching order, `Unsolvable` iff
//! the whole tree was exhausted with no map, and `Exhausted` / `TimedOut`
//! when the budget / deadline cut the search short. Concurrency lives
//! across queries (scheduler workers, campaign fleets), never inside one.

use std::time::{Duration, Instant};

use act_topology::{Complex, VertexMap};

use crate::csp::{build, propagate, State, Tables};
use crate::mapsearch::{SearchResult, SearchStats};
use crate::task::Task;

/// Tuning knobs of one map search.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Backtracking-node budget.
    pub max_nodes: usize,
    /// Optional wall-clock deadline for the whole search. When it
    /// expires the engine returns [`SearchResult::TimedOut`] (distinct
    /// from the node-budget [`SearchResult::Exhausted`]). `None` (the
    /// default) disables the watchdog; verdicts are then
    /// time-independent.
    pub deadline: Option<Duration>,
}

impl SearchConfig {
    /// A config with a node budget and no deadline.
    pub fn new(max_nodes: usize) -> SearchConfig {
        SearchConfig {
            max_nodes,
            deadline: None,
        }
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> SearchConfig {
        self.deadline = Some(deadline);
        self
    }
}

/// Version stamp of the search engine's *observable semantics*: the
/// verdict vocabulary, the deterministic witness rule (the first witness
/// of the dom/wdeg search), and the carried-map encoding. Persistent
/// verdict stores key entries by it, so bump it whenever a change could
/// make a previously stored verdict or witness disagree with what the
/// engine would compute today — stale entries then become clean cache
/// misses instead of wrong answers.
///
/// History: 1 = plain MRV branching; 2 = conflict-directed dom/wdeg
/// branching with multi-directional residues (different witnesses for
/// the same solvable instance); 3 = lex-leader symmetry breaking over
/// the task's declared symmetries (only the lex-least witness of each
/// solution orbit survives, so witnesses for symmetric instances moved
/// again); 4 = set consensus at `k ≥ α(Π)` and `ℓ = 1` answered by the
/// leader-map construction (`fact::leader_map_witness`) instead of the
/// search (same verdicts, iteration counts and witness lengths;
/// different witnesses). Dropping the root-split worker fan-out kept 4:
/// every witness the engine now returns is the one version 4 already
/// returned with a single worker.
pub const ENGINE_SCHEMA_VERSION: u32 = 4;

/// A fault-injection hook for tests: arm it and the next map search on
/// the same thread panics as it starts, so callers can check that a
/// panicking engine never turns into a verdict. The hook is
/// thread-local, so a search running concurrently elsewhere in the
/// process (another test, another worker) never trips it.
pub mod chaos {
    use std::cell::Cell;

    thread_local! {
        static ARMED: Cell<bool> = const { Cell::new(false) };
    }

    /// Arms a one-shot panic: the next map search on the calling thread
    /// panics at its start, and the hook disarms itself.
    pub fn panic_on_next_run() {
        ARMED.with(|armed| armed.set(true));
    }

    /// Called by the engine at the start of every run.
    pub(crate) fn maybe_panic() {
        if ARMED.with(|armed| armed.replace(false)) {
            panic!("chaos: injected engine panic");
        }
    }
}

/// The run-wide limits checked at every node.
struct Limits {
    /// Node budget: the search gives up at node `max_nodes + 1`.
    max_nodes: usize,
    /// Wall-clock instant after which the search gives up.
    deadline: Option<Instant>,
}

/// Outcome of one (sub)search.
enum Assign {
    Found,
    NoMap,
    Budget,
    TimedOut,
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
    let var = match pick_branch_var(tables, state) {
        None => return Assign::Found, // all singletons and GAC-consistent
        Some(v) => v,
    };
    stats.nodes += 1;
    if limits.deadline.is_some_and(|d| Instant::now() >= d) {
        return Assign::TimedOut;
    }
    if stats.nodes > limits.max_nodes {
        return Assign::Budget;
    }
    for val in state.domain_values(tables, var) {
        let mark = state.trail.len();
        assign(tables, state, var, val);
        if propagate(tables, state, Some(var), stats) {
            match search(tables, state, stats, limits) {
                Assign::NoMap => {}
                cut => return cut,
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

/// Runs the full search (build → root GAC → backtracking), accumulating
/// telemetry into `stats`, whose node count must start at 0.
pub(crate) fn run(
    task: &dyn Task,
    domain: &Complex,
    config: &SearchConfig,
    stats: &mut SearchStats,
) -> SearchResult {
    chaos::maybe_panic();
    let started = Instant::now();
    let (tables, mut state) = match build(task, domain) {
        Some(b) => b,
        None => return SearchResult::Unsolvable,
    };
    stats.variables = tables.vars.len();
    stats.constraints = tables.facet_constraints;
    stats.symmetry_constraints = tables.constraints.len() - tables.facet_constraints;
    if !propagate(&tables, &mut state, None, stats) {
        return SearchResult::Unsolvable;
    }
    let limits = Limits {
        max_nodes: config.max_nodes,
        deadline: config.deadline.map(|d| started + d),
    };
    match search(&tables, &mut state, stats, &limits) {
        Assign::Found => SearchResult::Found(extract_map(&tables, &state)),
        Assign::NoMap => SearchResult::Unsolvable,
        Assign::Budget => SearchResult::Exhausted,
        Assign::TimedOut => {
            if act_obs::enabled() {
                act_obs::event("engine.deadline")
                    .u64("elapsed_us", started.elapsed().as_micros() as u64)
                    .emit();
            }
            SearchResult::TimedOut
        }
    }
}
