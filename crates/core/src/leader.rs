//! The α-adaptive leader-election map `µ_Q` on `R_A` (Section 6.2).
//!
//! Given the set `Q` of processes that may participate in an α-adaptive
//! set-consensus instance (and have not yet terminated the enclosing
//! simulation), `µ_Q` assigns to every vertex `v ∈ R_A` with `χ(v) ∈ Q` a
//! *leader* among `Q`:
//!
//! * if `v` observes a critical simplex whose `View1` touches `Q`
//!   (`δ_Q`): the smallest such critical `View1`;
//! * otherwise (`γ_Q`): the smallest observed `View1` touching `Q`;
//! * finally `min_Q`: the smallest `Q`-process of the selected view.
//!
//! Properties 9 (validity), 10 (agreement ≤ `α(carrier)`) and 12
//! (robustness: only `Q ∩ carrier(v, s)` matters) are verified by the
//! test-suite and exhaustively by the `exp_leader` bench.
//!
//! Together, Properties 9 and 10 make "decide the input of `µ_Π(v)`" a
//! carried chromatic map `R_A(I) → O` with at most `α(Π)` values — the
//! paper's own one-iteration witness for `k`-set consensus whenever
//! `k ≥ α(Π)`. [`leader_map_witness`] builds it, so the solver answers
//! that side by construction instead of by search.

use std::cell::RefCell;
use std::collections::HashMap;

use act_adversary::AgreementFunction;
use act_affine::{AffineTask, CriticalAnalysis};
use act_tasks::{SetConsensus, Task};
use act_topology::{ColorSet, Complex, ProcessId, Simplex, VertexId, VertexMap};

/// Evaluator of `µ_Q` over a fixed level-2 complex (an affine task `R_A`)
/// and agreement function.
pub struct LeaderMap<'a> {
    complex: &'a Complex,
    parent: Complex,
    alpha: &'a AgreementFunction,
    /// Per level-1 carrier: the `View1` sets of its critical simplices.
    critical_views: RefCell<HashMap<Simplex, Vec<ColorSet>>>,
}

impl<'a> LeaderMap<'a> {
    /// Creates the evaluator.
    ///
    /// # Panics
    ///
    /// Panics if the complex is not a level-2 subdivision or the process
    /// counts disagree.
    pub fn new(complex: &'a Complex, alpha: &'a AgreementFunction) -> Self {
        assert_eq!(
            complex.level(),
            2,
            "µ_Q is defined on sub-complexes of Chr² s"
        );
        assert_eq!(complex.num_processes(), alpha.num_processes());
        let parent = complex.parent().expect("level-2 complex").clone();
        LeaderMap {
            complex,
            parent,
            alpha,
            critical_views: RefCell::new(HashMap::new()),
        }
    }

    fn critical_views_of(&self, carrier: &Simplex) -> Vec<ColorSet> {
        if let Some(views) = self.critical_views.borrow().get(carrier) {
            return views.clone();
        }
        let mut crit = CriticalAnalysis::new(&self.parent, self.alpha);
        let views: Vec<ColorSet> = crit
            .analyze(carrier)
            .critical
            .iter()
            .map(|t| self.parent.carrier_colors(t))
            .collect();
        self.critical_views
            .borrow_mut()
            .insert(carrier.clone(), views.clone());
        views
    }

    /// `δ_Q(v)`: the smallest `View1` of a critical simplex observed by
    /// `v` that intersects `Q`, if any.
    pub fn delta_q(&self, v: VertexId, q: ColorSet) -> Option<ColorSet> {
        let carrier = self.complex.carrier_of_vertex(v);
        self.critical_views_of(carrier)
            .into_iter()
            .filter(|view| view.intersects(q))
            .min_by_key(|view| view.len())
    }

    /// `γ_Q(v)`: the smallest `View1` among the level-1 vertices observed
    /// by `v` whose view intersects `Q`, if any.
    pub fn gamma_q(&self, v: VertexId, q: ColorSet) -> Option<ColorSet> {
        let carrier = self.complex.carrier_of_vertex(v);
        carrier
            .vertices()
            .iter()
            .map(|&w| self.parent.base_colors_of_vertex(w))
            .filter(|view| view.intersects(q))
            .min_by_key(|view| view.len())
    }

    /// `µ_Q(v)`: the elected leader (Property 9 guarantees it exists for
    /// `χ(v) ∈ Q` and lies in `Q ∩ carrier(v, s)`).
    ///
    /// # Panics
    ///
    /// Panics if `χ(v) ∉ Q` (the map is only defined there).
    pub fn mu_q(&self, v: VertexId, q: ColorSet) -> ProcessId {
        assert!(
            q.contains(self.complex.color(v)),
            "µ_Q is defined on vertices of processes in Q"
        );
        let view = match self.delta_q(v, q) {
            Some(view) => view,
            None => self
                .gamma_q(v, q)
                .expect("γ_Q always has a candidate (self-inclusion)"),
        };
        view.intersection(q)
            .min()
            .expect("selected view intersects Q")
    }
}

/// The leader-map witness for `task` on `domain = R_A(I)`: every used
/// domain vertex `v` decides the input of its leader, i.e. maps to the
/// output vertex `(χ(v), input of µ_Π(v))`.
///
/// Returns `None` unless `affine` carries its agreement function (only
/// [`act_affine::fair_affine_task`] records one), `task.k() ≥ α(Π)`, and
/// `domain` is a single application of `R_A` (subdivision level 2). The
/// map is a witness by Properties 9 and 10; callers that rely on it still
/// check it with [`act_tasks::verify_carried_map`].
pub fn leader_map_witness(
    task: &SetConsensus,
    affine: &AffineTask,
    domain: &Complex,
) -> Option<VertexMap> {
    leader_map_witness_for(task, affine.agreement_function()?, domain)
}

/// [`leader_map_witness`] with the agreement function given explicitly.
pub(crate) fn leader_map_witness_for(
    task: &SetConsensus,
    alpha: &AgreementFunction,
    domain: &Complex,
) -> Option<VertexMap> {
    let n = task.num_processes();
    let everyone = ColorSet::full(n);
    if domain.level() != 2
        || domain.num_processes() != n
        || alpha.num_processes() != n
        || task.k() < alpha.alpha(everyone)
    {
        return None;
    }
    let outputs = task.outputs();
    let output_vertex: HashMap<(ProcessId, u64), VertexId> = (0..outputs.num_vertices())
        .map(VertexId::from_index)
        .map(|w| ((outputs.color(w), outputs.vertex(w).label), w))
        .collect();
    let base = domain.base();
    let leaders = LeaderMap::new(domain, alpha);
    let mut map = VertexMap::new();
    for v in domain.used_vertices() {
        let leader = leaders.mu_q(v, everyone);
        // Property 9: the leader was observed, so its input vertex lies
        // in the base carrier of `v`.
        let input = *domain
            .carrier_in_base(&Simplex::vertex(v))
            .vertices()
            .iter()
            .find(|&&b| base.color(b) == leader)?;
        let image = output_vertex.get(&(domain.color(v), base.vertex(input).label))?;
        map.set(v, *image);
    }
    Some(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_adversary::{zoo, Adversary};
    use act_affine::fair_affine_task;
    use act_topology::Simplex;

    fn models() -> Vec<AgreementFunction> {
        vec![
            AgreementFunction::k_concurrency(3, 1),
            AgreementFunction::k_concurrency(3, 2),
            AgreementFunction::of_adversary(&zoo::figure_5b_adversary()),
            AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1)),
        ]
    }

    #[test]
    fn property_9_validity() {
        // µ_Q(v) ∈ χ(carrier(v, s)) ∩ Q for every vertex of R_A and every
        // Q containing χ(v).
        for alpha in models() {
            let r = fair_affine_task(&alpha);
            let lm = LeaderMap::new(r.complex(), &alpha);
            let full = ColorSet::full(3);
            for v in r.complex().used_vertices() {
                let color = r.complex().color(v);
                for q in full.non_empty_subsets() {
                    if !q.contains(color) {
                        continue;
                    }
                    let leader = lm.mu_q(v, q);
                    assert!(q.contains(leader), "leader in Q");
                    assert!(
                        r.complex().base_colors_of_vertex(v).contains(leader),
                        "leader was observed"
                    );
                }
            }
        }
    }

    #[test]
    fn property_10_agreement() {
        // For every facet σ of R_A, every Q and every θ ⊆ σ with
        // χ(θ) ⊆ Q: |{µ_Q(v)}| ≤ α(χ(carrier(θ, s))).
        for alpha in models() {
            let r = fair_affine_task(&alpha);
            let lm = LeaderMap::new(r.complex(), &alpha);
            let full = ColorSet::full(3);
            for facet in r.complex().facets() {
                for q in full.non_empty_subsets() {
                    let theta = facet.filter(|v| q.contains(r.complex().color(v)));
                    if theta.is_empty() {
                        continue;
                    }
                    for sub in theta.non_empty_faces() {
                        let leaders: ColorSet =
                            sub.vertices().iter().map(|&v| lm.mu_q(v, q)).collect();
                        let carrier = r.complex().carrier_colors(&sub);
                        assert!(
                            leaders.len() <= alpha.alpha(carrier),
                            "Property 10 violated: {} leaders for carrier {carrier} \
                             (α = {})",
                            leaders.len(),
                            alpha.alpha(carrier)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn property_12_robustness() {
        // µ_Q(v) = µ_{Q ∩ carrier(v, s)}(v).
        for alpha in models().into_iter().take(2) {
            let r = fair_affine_task(&alpha);
            let lm = LeaderMap::new(r.complex(), &alpha);
            let full = ColorSet::full(3);
            for v in r.complex().used_vertices() {
                let color = r.complex().color(v);
                let seen = r.complex().base_colors_of_vertex(v);
                for q in full.non_empty_subsets() {
                    if !q.contains(color) {
                        continue;
                    }
                    assert_eq!(lm.mu_q(v, q), lm.mu_q(v, q.intersection(seen)));
                }
            }
        }
    }

    #[test]
    fn delta_prefers_critical_views() {
        // Wherever δ_Q is defined it is used, and it returns a critical
        // simplex view.
        let alpha = AgreementFunction::of_adversary(&zoo::figure_5b_adversary());
        let r = fair_affine_task(&alpha);
        let lm = LeaderMap::new(r.complex(), &alpha);
        let full = ColorSet::full(3);
        let mut delta_used = 0;
        for v in r.complex().used_vertices() {
            if let Some(view) = lm.delta_q(v, full) {
                delta_used += 1;
                let leader = lm.mu_q(v, full);
                assert_eq!(Some(leader), view.intersection(full).min());
            }
        }
        assert!(delta_used > 0, "critical simplices are observed somewhere");
    }

    #[test]
    #[should_panic(expected = "processes in Q")]
    fn mu_q_outside_q_rejected() {
        let alpha = AgreementFunction::k_concurrency(3, 1);
        let r = fair_affine_task(&alpha);
        let lm = LeaderMap::new(r.complex(), &alpha);
        let v = r.complex().used_vertices()[0];
        let color = r.complex().color(v);
        let q = ColorSet::full(3).without(color);
        let _ = lm.mu_q(v, q);
    }

    #[test]
    fn gamma_is_smallest_observed_view() {
        let alpha = AgreementFunction::k_concurrency(3, 2);
        let r = fair_affine_task(&alpha);
        let lm = LeaderMap::new(r.complex(), &alpha);
        for v in r.complex().used_vertices().into_iter().take(20) {
            let q = ColorSet::full(3);
            let gamma = lm.gamma_q(v, q).unwrap();
            // γ is the View1 of some observed process and no observed view
            // intersecting Q is smaller.
            let carrier = r.complex().carrier_of_vertex(v);
            let views: Vec<ColorSet> = carrier
                .vertices()
                .iter()
                .map(|&w| r.complex().parent().unwrap().base_colors_of_vertex(w))
                .collect();
            assert!(views.contains(&gamma));
            assert!(views.iter().all(|w| w.len() >= gamma.len()));
            let _ = Simplex::empty();
        }
    }
}
