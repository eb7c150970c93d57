//! Deciding the existence of a chromatic simplicial map carried by a
//! task's carrier map — the computational content of the (F)ACT statement
//! "`T` is solvable iff there is `ℓ` and `φ : R_A^ℓ(I) → O` carried by Δ".
//!
//! The decision procedure is a constraint search. Every used vertex of the
//! (subdivided) domain is a variable whose values are same-colored output
//! vertices; every facet contributes one table constraint whose allowed
//! tuples are precomputed. Generalized arc consistency over the tables
//! plus backtracking makes both directions — finding maps and *exhausting*
//! the space (unsolvability proofs) — practical for the paper's instances.
//!
//! The implementation is split across two private modules:
//!
//! * [`crate::csp`] — bitset domains (candidate sets as `u64`-word masks
//!   over dense per-variable value indices), a backtracking trail
//!   (removals are undone instead of domains cloned), GAC with residual
//!   supports, and signature-memoized constraint-table construction;
//! * [`crate::engine`] — the dom/wdeg backtracking search itself, bounded
//!   by a node budget and an optional deadline (see [`SearchConfig`]).

use act_topology::{Complex, VertexMap};

use crate::engine::{run, SearchConfig};
use crate::task::Task;

/// The verdict of a bounded map search.
#[derive(Clone, Debug)]
pub enum SearchResult {
    /// A carried chromatic simplicial map exists.
    Found(VertexMap),
    /// No such map exists (the search space was exhausted).
    Unsolvable,
    /// The step budget ran out before the search completed.
    Exhausted,
    /// The wall-clock deadline ([`SearchConfig::deadline`]) expired
    /// before the search completed. Distinct from [`Exhausted`]: the
    /// node budget may have been plentiful, the clock was not.
    ///
    /// [`Exhausted`]: SearchResult::Exhausted
    TimedOut,
}

impl SearchResult {
    /// Whether a map was found.
    pub fn is_found(&self) -> bool {
        matches!(self, SearchResult::Found(_))
    }

    /// Whether unsolvability was established.
    pub fn is_unsolvable(&self) -> bool {
        matches!(self, SearchResult::Unsolvable)
    }

    /// The found map, if any.
    pub fn into_map(self) -> Option<VertexMap> {
        match self {
            SearchResult::Found(m) => Some(m),
            _ => None,
        }
    }

    /// A short machine-readable name of the verdict.
    pub fn verdict_name(&self) -> &'static str {
        match self {
            SearchResult::Found(_) => "found",
            SearchResult::Unsolvable => "unsolvable",
            SearchResult::Exhausted => "exhausted",
            SearchResult::TimedOut => "timed-out",
        }
    }
}

/// Telemetry tallies of one [`find_carried_map`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// CSP variables (used domain vertices).
    pub variables: usize,
    /// Table constraints (facets of the domain).
    pub constraints: usize,
    /// Lex-leader symmetry-breaking constraints added on top of the
    /// facet tables (0 when the task declares no symmetries or none act
    /// on the concrete domain).
    pub symmetry_constraints: usize,
    /// Backtracking nodes visited.
    pub nodes: usize,
    /// Candidate values pruned by generalized arc consistency.
    pub prunes: usize,
    /// Domain wipe-outs (dead ends detected by propagation).
    pub wipeouts: usize,
    /// Node budget left when the search returned (0 when exhausted).
    pub budget_remaining: usize,
    /// Subdivision depth (level) of the searched domain.
    pub depth: usize,
    /// GAC residual-support checks that validated the cached tuple.
    pub residue_hits: usize,
    /// GAC residual-support checks that had to rescan the table.
    pub residue_misses: usize,
}

impl SearchStats {
    /// The residual-support hit rate in `[0, 1]` (0 when no check ran).
    pub fn residue_hit_rate(&self) -> f64 {
        let total = self.residue_hits + self.residue_misses;
        if total == 0 {
            0.0
        } else {
            self.residue_hits as f64 / total as f64
        }
    }
}

/// Process-global count of backtracking nodes across all map searches.
pub static SEARCH_NODES: act_obs::Counter = act_obs::Counter::new("mapsearch.nodes");
/// Process-global count of GAC prunes across all map searches.
pub static SEARCH_PRUNES: act_obs::Counter = act_obs::Counter::new("mapsearch.prunes");
/// Process-global residual-support hit/miss tally across all searches.
pub static SEARCH_RESIDUE: act_obs::RateCounter = act_obs::RateCounter::new("mapsearch.residue");

/// Searches for a chromatic simplicial map `φ : domain → task.outputs()`
/// carried by `Δ ∘ carrier`, where `domain` is a subdivision (possibly an
/// iterated affine task) whose base is the task's input complex.
///
/// `max_nodes` bounds the number of backtracking nodes explored;
/// [`SearchResult::Exhausted`] is returned when it runs out, so callers
/// can distinguish "no map" from "gave up".
///
/// # Panics
///
/// Panics if the domain's base complex does not match the task's input
/// complex structurally (vertex count / process count).
pub fn find_carried_map(task: &dyn Task, domain: &Complex, max_nodes: usize) -> SearchResult {
    find_carried_map_with_stats(task, domain, max_nodes).0
}

/// [`find_carried_map`], additionally returning the search telemetry
/// (nodes visited, prunes, wipe-outs, budget remaining). When a telemetry
/// sink is installed (see [`act_obs`]) the stats are also emitted as a
/// `mapsearch.done` event.
pub fn find_carried_map_with_stats(
    task: &dyn Task,
    domain: &Complex,
    max_nodes: usize,
) -> (SearchResult, SearchStats) {
    find_carried_map_with_config(task, domain, &SearchConfig::new(max_nodes))
}

/// [`find_carried_map_with_stats`] with explicit engine knobs: the node
/// budget and the deadline (see [`SearchConfig`]).
pub fn find_carried_map_with_config(
    task: &dyn Task,
    domain: &Complex,
    config: &SearchConfig,
) -> (SearchResult, SearchStats) {
    assert_eq!(
        domain.base().num_vertices(),
        task.inputs().num_vertices(),
        "domain must be a subdivision of the task's input complex"
    );
    assert_eq!(domain.num_processes(), task.num_processes());

    let span = act_obs::span("mapsearch.done");
    let mut stats = SearchStats {
        budget_remaining: config.max_nodes,
        depth: domain.level(),
        ..SearchStats::default()
    };
    let result = run(task, domain, config, &mut stats);
    stats.budget_remaining = config.max_nodes.saturating_sub(stats.nodes);
    SEARCH_NODES.add(stats.nodes as u64);
    SEARCH_PRUNES.add(stats.prunes as u64);
    SEARCH_RESIDUE.hit(stats.residue_hits as u64);
    SEARCH_RESIDUE.miss(stats.residue_misses as u64);
    if act_obs::enabled() {
        span.finish()
            .str("verdict", result.verdict_name())
            .u64("depth", stats.depth as u64)
            .u64("variables", stats.variables as u64)
            .u64("constraints", stats.constraints as u64)
            .u64("symmetry_constraints", stats.symmetry_constraints as u64)
            .u64("nodes", stats.nodes as u64)
            .u64("prunes", stats.prunes as u64)
            .u64("wipeouts", stats.wipeouts as u64)
            .u64("budget_remaining", stats.budget_remaining as u64)
            .u64("residue_hits", stats.residue_hits as u64)
            .u64("residue_misses", stats.residue_misses as u64)
            .f64("residue_hit_rate", stats.residue_hit_rate())
            .emit();
    }
    (result, stats)
}

/// Independently verifies that `map` is a total chromatic simplicial map
/// from `domain` to the task's outputs, carried by `Δ ∘ carrier` on every
/// simplex (exhaustive over all faces of all facets).
pub fn verify_carried_map(task: &dyn Task, domain: &Complex, map: &VertexMap) -> bool {
    let outputs = task.outputs();
    if !map.is_total_on(domain) {
        return false;
    }
    if !map.is_chromatic(domain, outputs) {
        return false;
    }
    for facet in domain.facets() {
        for face in facet.non_empty_faces() {
            let image = match map.image(&face) {
                Some(i) => i,
                None => return false,
            };
            if !outputs.contains_simplex(&image) {
                return false;
            }
            let carrier = domain.carrier_in_base(&face);
            if !task.allows(&carrier, &image) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{consensus, SetConsensus, Task, TrivialTask};
    use act_topology::Complex;

    /// Subdivide a task's input complex m times with Chr.
    fn chr_domain(task: &dyn Task, m: usize) -> Complex {
        task.inputs().iterated_subdivision(m)
    }

    #[test]
    fn trivial_task_solvable_without_subdivision() {
        let t = TrivialTask::new(2, &[0, 1]);
        let domain = t.inputs().clone();
        let result = find_carried_map(&t, &domain, 100_000);
        let map = result.into_map().expect("trivial task is solvable");
        assert!(verify_carried_map(&t, &domain, &map));
    }

    #[test]
    fn trivial_task_solvable_after_subdivision() {
        let t = TrivialTask::new(2, &[0, 1]);
        let domain = chr_domain(&t, 1);
        let result = find_carried_map(&t, &domain, 100_000);
        let map = result.into_map().expect("still solvable after Chr");
        assert!(verify_carried_map(&t, &domain, &map));
    }

    #[test]
    fn consensus_unsolvable_wait_free_two_processes() {
        // FLP / ACT: consensus is not wait-free solvable — no chromatic
        // carried map exists from any Chr^m(I), checked for m = 1, 2.
        let t = consensus(2, &[0, 1]);
        for m in 1..=2 {
            let domain = chr_domain(&t, m);
            let result = find_carried_map(&t, &domain, 1_000_000);
            assert!(
                result.is_unsolvable(),
                "consensus must be unsolvable at m = {m}"
            );
        }
    }

    #[test]
    fn two_set_consensus_solvable_wait_free_two_processes() {
        // 2 processes, k = 2: trivially solvable (everyone decides own
        // value).
        let t = SetConsensus::new(2, 2, &[0, 1, 2]);
        let domain = chr_domain(&t, 1);
        let result = find_carried_map(&t, &domain, 100_000);
        let map = result
            .into_map()
            .expect("2-set consensus is wait-free solvable");
        assert!(verify_carried_map(&t, &domain, &map));
    }

    #[test]
    fn search_stats_match_verdicts() {
        // A found map consumes little budget and reports the CSP size.
        let t = TrivialTask::new(2, &[0, 1]);
        let domain = t.inputs().clone();
        let (result, stats) = find_carried_map_with_stats(&t, &domain, 100_000);
        assert!(result.is_found());
        assert_eq!(stats.variables, domain.used_vertices().len());
        assert_eq!(stats.constraints, domain.facet_count());
        assert_eq!(stats.depth, 0);
        assert_eq!(stats.budget_remaining, 100_000 - stats.nodes);

        // An exhausted search reports an empty budget.
        let t = consensus(2, &[0, 1]);
        let domain = chr_domain(&t, 2);
        let (result, stats) = find_carried_map_with_stats(&t, &domain, 1);
        assert_eq!(stats.depth, 2);
        if matches!(result, SearchResult::Exhausted) {
            assert_eq!(stats.budget_remaining, 0);
            assert!(stats.nodes > 1, "budget of 1 was overrun");
        }

        // An unsolvable verdict comes from propagation: prunes and
        // wipe-outs are observed.
        let t = consensus(2, &[0, 1]);
        let domain = chr_domain(&t, 1);
        let (result, stats) = find_carried_map_with_stats(&t, &domain, 1_000_000);
        assert!(result.is_unsolvable());
        assert!(stats.prunes > 0, "unsolvability requires pruning work");
    }

    #[test]
    fn exhaustion_is_reported() {
        let t = consensus(2, &[0, 1]);
        let domain = chr_domain(&t, 2);
        let result = find_carried_map(&t, &domain, 1);
        assert!(matches!(
            result,
            SearchResult::Exhausted | SearchResult::Unsolvable
        ));
    }

    #[test]
    fn three_process_two_set_consensus_wait_free_unsolvable() {
        // Herlihy–Shavit / Saks–Zaharoglou: (n−1)-set consensus is not
        // wait-free solvable. Parity-type impossibilities are invisible to
        // local consistency (plain search would have to enumerate an
        // astronomic space), so this is established with the Sperner
        // certificate on the wait-free domains Chr^m s.
        use crate::sperner::sperner_certificate;
        for m in 1..=2 {
            let domain = Complex::standard(3).iterated_subdivision(m);
            assert!(
                sperner_certificate(&domain),
                "Sperner certificate must apply at depth {m}"
            );
        }
    }

    #[test]
    fn consensus_unsolvable_wait_free_three_processes_one_round() {
        // Consensus constraints (one decided value per run) propagate
        // strongly: GAC exhausts the rainbow-restricted instance fast.
        let t = consensus(3, &[0, 1, 2]);
        let i = t.inputs();
        let rainbow = i
            .facets()
            .iter()
            .find(|f| {
                let mut vals: Vec<u64> = f.vertices().iter().map(|&v| i.vertex(v).label).collect();
                vals.sort_unstable();
                vals == vec![0, 1, 2]
            })
            .unwrap()
            .clone();
        let domain = i.sub_complex(vec![rainbow]).iterated_subdivision(1);
        let result = find_carried_map(&t, &domain, 1_000_000);
        assert!(result.is_unsolvable());
    }

    #[test]
    fn symmetry_breaking_preserves_verdicts_and_witness_validity() {
        // Solvable symmetric instance: the lex-least witness survives
        // the breakers and is a genuine solution of the ORIGINAL query —
        // no un-canonicalization step exists or is needed.
        let t = SetConsensus::new(2, 2, &[0, 1, 2]);
        let domain = chr_domain(&t, 1);
        let (result, stats) = find_carried_map_with_stats(&t, &domain, 100_000);
        let map = result.into_map().expect("solvable with breakers");
        assert!(verify_carried_map(&t, &domain, &map));
        assert_eq!(stats.constraints, domain.facet_count());

        // Unsolvable symmetric instances stay exactly unsolvable.
        let t = consensus(2, &[0, 1]);
        let domain = chr_domain(&t, 2);
        assert!(find_carried_map(&t, &domain, 1_000_000).is_unsolvable());
    }

    #[test]
    fn witnesses_transport_along_symmetry_actions() {
        // The witness orbit: pushing a found map through a task symmetry
        // (`act_topology::transport_vertex_map`) yields another valid
        // witness of the same query — the equivalence class the
        // lex-leader breakers quotient by.
        use act_topology::{chain_action, transport_vertex_map, LabelMatching};
        let t = SetConsensus::new(2, 2, &[0, 1, 2]);
        let domain = chr_domain(&t, 1);
        let map = find_carried_map(&t, &domain, 100_000)
            .into_map()
            .expect("solvable");
        let mut transported_some = false;
        for sym in t.symmetries() {
            let in_matching = match &sym.input_labels {
                Some(m) => LabelMatching::Relabeled(m),
                None => LabelMatching::Strict,
            };
            let Some(g) = chain_action(&domain, &sym.color, in_matching) else {
                continue;
            };
            if !g.preserves_facets(&domain) {
                continue;
            }
            let out_matching = match &sym.output_labels {
                Some(m) => LabelMatching::Relabeled(m),
                None => LabelMatching::Strict,
            };
            let Some(h) = chain_action(t.outputs(), &sym.color, out_matching) else {
                continue;
            };
            let transported =
                transport_vertex_map(&map, g.level_map(domain.level()), h.inverse().level_map(0));
            assert!(
                verify_carried_map(&t, &domain, &transported),
                "the witness orbit stays inside the solution set"
            );
            transported_some = true;
        }
        assert!(transported_some, "some declared symmetry acts on Chr¹");
    }

    #[test]
    fn residue_hit_rate_is_observed_on_branching_searches() {
        let t = SetConsensus::new(2, 2, &[0, 1, 2]);
        let domain = chr_domain(&t, 1);
        let (result, stats) = find_carried_map_with_stats(&t, &domain, 1_000_000);
        assert!(result.is_found());
        assert!(
            stats.residue_hits + stats.residue_misses > 0,
            "GAC ran support checks"
        );
        let rate = stats.residue_hit_rate();
        assert!((0.0..=1.0).contains(&rate));
    }
}
