//! Affine tasks: pure sub-complexes of `Chr² s`, their carrier-map
//! restrictions, and their iteration (`L^m`, the affine model `L^*`).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use act_adversary::AgreementFunction;
use act_topology::{all_recipes, ColorSet, Complex, ProcessId, Recipe, Simplex, VertexId};

/// Process-global count of affine subdivision rounds: one per
/// [`AffineTask::apply_to`] call, i.e. one per domain-tower level actually
/// built. This is the unit of work a domain cache saves — regression tests
/// diff it to prove that a cached extension costs exactly one round and a
/// store-backed warm restart costs zero.
pub static APPLY_CALLS: act_obs::Counter = act_obs::Counter::new("affine.apply_to");

/// An affine task: a pure, non-empty, chromatic sub-complex `L ⊆ Chr² s`
/// (Section 2 of the paper). The associated task is `(s, L, Δ)` with
/// `Δ(t) = L ∩ Chr²(t)` for every face `t ⊆ s`.
///
/// # Examples
///
/// ```
/// use act_affine::AffineTask;
/// use act_topology::Complex;
///
/// // The wait-free affine task: all of Chr² s.
/// let chr2 = Complex::standard(3).iterated_subdivision(2);
/// let l = AffineTask::new("wait-free", chr2);
/// assert_eq!(l.complex().facet_count(), 169);
/// ```
#[derive(Clone)]
pub struct AffineTask {
    name: String,
    complex: Complex,
    /// The agreement function this task was built from, when it is a
    /// fair `R_A` ([`crate::fair_affine_task`]); `None` otherwise.
    alpha: Option<AgreementFunction>,
    /// [`AffineTask::recipes`] per participating color set, computed on
    /// first use. The task is immutable, so the answer never changes;
    /// clones share the memo.
    recipe_memo: Arc<RecipeMemo>,
}

#[derive(Default)]
struct RecipeMemo {
    sets: Mutex<HashMap<ColorSet, Arc<Vec<Recipe>>>>,
    /// Recipe sets actually computed (memo misses).
    computed: AtomicUsize,
}

impl AffineTask {
    /// Wraps a level-2 sub-complex of `Chr² s` as an affine task.
    ///
    /// # Panics
    ///
    /// Panics if the complex is not a pure, non-empty, chromatic complex of
    /// dimension `n − 1` at subdivision level 2 over the standard simplex.
    pub fn new(name: impl Into<String>, complex: Complex) -> AffineTask {
        let n = complex.num_processes();
        assert_eq!(complex.level(), 2, "affine tasks live in Chr² s");
        assert_eq!(
            complex.base().num_vertices(),
            n,
            "affine tasks are defined over the standard simplex"
        );
        assert!(!complex.is_void(), "affine tasks are non-empty");
        assert!(complex.is_pure(), "affine tasks are pure complexes");
        assert_eq!(
            complex.dim(),
            n as isize - 1,
            "affine tasks have full dimension"
        );
        assert!(complex.is_chromatic(), "affine tasks are chromatic");
        AffineTask {
            name: name.into(),
            complex,
            alpha: None,
            recipe_memo: Arc::default(),
        }
    }

    /// Records the agreement function a fair `R_A` was built from.
    pub(crate) fn with_agreement_function(mut self, alpha: &AgreementFunction) -> AffineTask {
        self.alpha = Some(alpha.clone());
        self
    }

    /// The task's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of processes.
    pub fn num_processes(&self) -> usize {
        self.complex.num_processes()
    }

    /// The output complex `L`.
    pub fn complex(&self) -> &Complex {
        &self.complex
    }

    /// The agreement function `α` this task is the `R_A` of, when it was
    /// built by [`crate::fair_affine_task`]. Tasks made by
    /// [`AffineTask::new`] or [`AffineTask::from_recipes`] carry none.
    pub fn agreement_function(&self) -> Option<&AgreementFunction> {
        self.alpha.as_ref()
    }

    /// The carrier-map value `Δ(t) = L ∩ Chr²(t)` for the face of `s`
    /// spanned by `participants`. May be void ("participation must grow
    /// before outputs are produced").
    pub fn delta(&self, participants: ColorSet) -> Complex {
        self.complex.restrict_carrier_colors(participants)
    }

    /// The depth-2 recipes of `L ∩ Chr²(t)` for the face spanned by
    /// `participants`: the ordered-set-partition pairs over `participants`
    /// whose 2-round IS run lands in `L`.
    ///
    /// These recipes drive the iteration of the task over arbitrary
    /// complexes. The set is memoized per color set on the task (and
    /// shared by its clones), so every tower built over one task pays the
    /// enumeration of all depth-2 recipes once; the `Arc` is handed to
    /// the subdivision engine without copying.
    pub fn recipes(&self, participants: ColorSet) -> Arc<Vec<Recipe>> {
        let memo = &self.recipe_memo;
        // Held across the computation: concurrent callers on one task
        // wait for the single computation instead of repeating it.
        let mut sets = memo.sets.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = sets.get(&participants) {
            return Arc::clone(hit);
        }
        let set = Arc::new(self.compute_recipes(participants));
        memo.computed.fetch_add(1, Ordering::Relaxed);
        sets.insert(participants, Arc::clone(&set));
        set
    }

    /// How many recipe sets this task (and its clones) actually computed.
    #[cfg(test)]
    fn recipe_sets_computed(&self) -> usize {
        self.recipe_memo.computed.load(Ordering::Relaxed)
    }

    fn compute_recipes(&self, participants: ColorSet) -> Vec<Recipe> {
        let parent = self
            .complex
            .parent()
            .expect("level-2 complexes have a parent");
        // Base vertices resolved by color, not by index: a color-permuted
        // affine complex (see `act_topology::permute_complex`) keeps its
        // vertex numbering, so vertex `i` need not carry color `i`.
        let base = self.complex.base();
        let mut base_vertex: HashMap<ProcessId, VertexId> = HashMap::new();
        for i in 0..base.num_vertices() {
            let v = VertexId::from_index(i);
            base_vertex.insert(base.color(v), v);
        }
        let mut out = Vec::new();
        'recipes: for recipe in all_recipes(participants, 2) {
            let r1 = &recipe[0];
            let r2 = &recipe[1];
            // Resolve the level-1 vertex of each color.
            let mut level1: HashMap<ProcessId, VertexId> = HashMap::new();
            for c in participants.iter() {
                let view1 = r1.view_of(c).expect("recipe covers all participants");
                let carrier0 = Simplex::from_vertices(view1.iter().map(|p| base_vertex[&p]));
                match parent.find_vertex(c, &carrier0) {
                    Some(v) => {
                        level1.insert(c, v);
                    }
                    None => continue 'recipes,
                }
            }
            // Resolve the level-2 vertex of each color and collect the
            // candidate simplex.
            let mut verts = Vec::new();
            for c in participants.iter() {
                let view2 = r2.view_of(c).expect("recipe covers all participants");
                let carrier1 = Simplex::from_vertices(view2.iter().map(|p| level1[&p]));
                match self.complex.find_vertex(c, &carrier1) {
                    Some(v) => verts.push(v),
                    None => continue 'recipes,
                }
            }
            let candidate = Simplex::from_vertices(verts);
            if self.complex.contains_simplex(&candidate) {
                out.push(recipe);
            }
        }
        out
    }

    /// Applies one iteration of the task to a chromatic complex: every
    /// facet `σ` is replaced by the copies of `L ∩ Chr²(s_{χ(σ)})` drawn
    /// inside `Chr² σ`, glued along shared faces. Applying to the standard
    /// simplex `m` times yields `L^m`.
    pub fn apply_to(&self, complex: &Complex) -> Complex {
        APPLY_CALLS.add(1);
        complex.subdivide_patterned(2, |colors| self.recipes(colors))
    }

    /// [`AffineTask::apply_to`] with symmetry-orbit sharing: one
    /// representative facet per color-symmetry orbit of `complex` is
    /// expanded directly and the rest are transported
    /// ([`Complex::subdivide_patterned_orbit_shared`]). Byte-identical to
    /// `apply_to`; facets whose recipe sets are not equivariant fall back
    /// to direct expansion, so this is always correct — just faster when
    /// the input (and the task) are symmetric.
    pub fn apply_to_shared(&self, complex: &Complex) -> Complex {
        APPLY_CALLS.add(1);
        complex.subdivide_patterned_orbit_shared(2, |colors| self.recipes(colors))
    }

    /// The iterated task `L^m` over the standard simplex, a sub-complex of
    /// `Chr^{2m} s`.
    ///
    /// # Panics
    ///
    /// Panics if `m = 0`.
    pub fn iterate(&self, m: usize) -> Complex {
        assert!(m >= 1, "iteration count must be at least 1");
        let mut c = Complex::standard(self.num_processes());
        for _ in 0..m {
            c = self.apply_to(&c);
        }
        c
    }

    /// A portable description of the task: its full-participation recipes
    /// (each facet as its pair of ordered set partitions). Serializable
    /// with serde; [`AffineTask::from_recipes`] rebuilds the task.
    pub fn to_recipes(&self) -> Vec<Recipe> {
        self.complex
            .facets()
            .iter()
            .map(|f| self.complex.recipe_of_facet(f, 2))
            .collect()
    }

    /// Rebuilds an affine task from full-participation recipes (the
    /// inverse of [`AffineTask::to_recipes`]).
    ///
    /// # Panics
    ///
    /// Panics if a recipe does not describe a facet of `Chr² s` over `n`
    /// processes, or the resulting complex is not a valid affine task.
    pub fn from_recipes(name: impl Into<String>, n: usize, recipes: &[Recipe]) -> AffineTask {
        let chr2 = Complex::standard(n).iterated_subdivision(2);
        let base_facet = Complex::standard(n).facets()[0].clone();
        let facets: Vec<Simplex> = recipes
            .iter()
            .map(|r| {
                chr2.simplex_for_recipe(&base_facet, r)
                    .expect("recipe describes a facet of Chr² s")
            })
            .collect();
        AffineTask::new(name, chr2.sub_complex(facets))
    }
}

impl fmt::Debug for AffineTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AffineTask({}, {} facets of dim {})",
            self.name,
            self.complex.facet_count(),
            self.complex.dim()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait_free(n: usize) -> AffineTask {
        AffineTask::new("wait-free", Complex::standard(n).iterated_subdivision(2))
    }

    #[test]
    fn wait_free_task_recipes_are_all() {
        let l = wait_free(3);
        let full = ColorSet::full(3);
        assert_eq!(l.recipes(full).len(), 169);
        let pair = ColorSet::from_indices([0, 1]);
        assert_eq!(l.recipes(pair).len(), 9);
        let solo = ColorSet::from_indices([2]);
        assert_eq!(l.recipes(solo).len(), 1);
    }

    fn rainbow3() -> Complex {
        Complex::from_labeled_vertices(
            3,
            (0..3).map(|i| (ProcessId::new(i), i as u64)).collect(),
            vec![vec![0, 1, 2]],
        )
    }

    #[test]
    fn clones_share_one_recipe_memo() {
        let l = wait_free(3);
        let copy = l.clone();
        let full = ColorSet::full(3);
        let first = l.recipes(full);
        assert!(Arc::ptr_eq(&first, &copy.recipes(full)));
        assert!(Arc::ptr_eq(&first, &l.recipes(full)));
        assert_eq!(copy.recipe_sets_computed(), 1);
        copy.recipes(ColorSet::from_indices([0, 2]));
        assert_eq!(l.recipe_sets_computed(), 2);
    }

    #[test]
    fn warmed_tasks_apply_exactly_like_fresh_ones() {
        use crate::fair::fair_affine_task;
        for alpha in [
            act_adversary::AgreementFunction::k_concurrency(3, 2),
            act_adversary::AgreementFunction::of_adversary(
                &act_adversary::zoo::figure_5b_adversary(),
            ),
        ] {
            let warmed = fair_affine_task(&alpha);
            for inputs in [Complex::standard(3), rainbow3()] {
                warmed.iterate(2);
                let level1 = warmed.apply_to(&inputs);
                for (got, want) in [
                    (
                        warmed.apply_to(&inputs),
                        fair_affine_task(&alpha).apply_to(&inputs),
                    ),
                    (
                        warmed.apply_to_shared(&level1),
                        fair_affine_task(&alpha).apply_to_shared(&level1),
                    ),
                ] {
                    assert_eq!(got, want);
                    assert_eq!(got.encode_portable(), want.encode_portable());
                }
            }
        }
    }

    #[test]
    fn two_towers_over_one_task_compute_each_recipe_set_once() {
        use crate::fair::fair_affine_task;
        let task = fair_affine_task(&act_adversary::AgreementFunction::k_concurrency(3, 1));
        for inputs in [Complex::standard(3), rainbow3()] {
            let level1 = task.apply_to_shared(&inputs);
            task.apply_to_shared(&level1);
        }
        // Every facet of every level spans all three colors: one set, Π.
        assert_eq!(task.recipe_sets_computed(), 1);
    }

    #[test]
    fn iterate_once_reproduces_the_task() {
        let l = wait_free(2);
        let l1 = l.iterate(1);
        assert!(l1.same_complex(l.complex()));
    }

    #[test]
    fn iterate_twice_of_wait_free_is_chr4() {
        let l = wait_free(2);
        let l2 = l.iterate(2);
        let chr4 = Complex::standard(2).iterated_subdivision(4);
        assert_eq!(l2.facet_count(), chr4.facet_count());
        assert!(l2.same_complex(&chr4));
    }

    #[test]
    fn delta_restricts_participation() {
        let l = wait_free(3);
        let pair = ColorSet::from_indices([0, 1]);
        let d = l.delta(pair);
        assert!(!d.is_void());
        // Δ({p1,p2}) is Chr² of an edge: 9 facets.
        assert_eq!(d.facet_count(), 9);
        for f in d.facets() {
            assert!(d.carrier_colors(f).is_subset_of(pair));
        }
    }

    #[test]
    fn sub_task_recipes_subset_of_full() {
        // An affine task that keeps only runs whose second round is
        // synchronous.
        let chr2 = Complex::standard(3).iterated_subdivision(2);
        let kept: Vec<Simplex> = chr2
            .facets()
            .iter()
            .filter(|f| {
                f.vertices().iter().all(|&v| {
                    chr2.parent()
                        .unwrap()
                        .colors(chr2.carrier_of_vertex(v))
                        .len()
                        == 3
                })
            })
            .cloned()
            .collect();
        assert_eq!(kept.len(), 13, "one synchronous second round per Chr-facet");
        let l = AffineTask::new("sync-2nd", chr2.sub_complex(kept));
        let recipes = l.recipes(ColorSet::full(3));
        assert_eq!(recipes.len(), 13);
        for r in recipes.iter() {
            assert_eq!(r[1].num_blocks(), 1, "second round is synchronous");
        }
        // Restricted participation: no sub-simplex of a sync-2nd facet has
        // carrier inside a proper face... actually the corner simplices do.
        // Just check recipes are consistent with delta.
        let pair = ColorSet::from_indices([0, 1]);
        let d = l.delta(pair);
        let r = l.recipes(pair);
        // Each recipe over the pair corresponds to a facet of Δ(pair) of
        // full pair dimension; Δ may also contain lower-dim facets.
        assert!(r.len() <= d.facet_count().max(9));
    }

    #[test]
    fn recipes_roundtrip_through_serialization() {
        use crate::fair::fair_affine_task;
        let alpha = act_adversary::AgreementFunction::k_concurrency(3, 1);
        let task = fair_affine_task(&alpha);
        let recipes = task.to_recipes();
        assert_eq!(recipes.len(), task.complex().facet_count());
        // Serde round-trip of the portable description.
        let json = serde_json::to_string(&recipes).unwrap();
        let back: Vec<Recipe> = serde_json::from_str(&json).unwrap();
        let rebuilt = AffineTask::from_recipes("roundtrip", 3, &back);
        assert!(rebuilt.complex().same_complex(task.complex()));
    }

    #[test]
    fn only_fair_tasks_carry_their_agreement_function() {
        use crate::fair::{fair_affine_task, fair_affine_task_with, CriticalSideCondition};
        let alpha = act_adversary::AgreementFunction::k_concurrency(3, 2);
        let fair = fair_affine_task(&alpha);
        assert_eq!(fair.agreement_function(), Some(&alpha));
        let triple = fair_affine_task_with(&alpha, CriticalSideCondition::TripleIntersection);
        assert_eq!(triple.agreement_function(), Some(&alpha));
        assert_eq!(wait_free(3).agreement_function(), None);
        let rebuilt = AffineTask::from_recipes("rebuilt", 3, &fair.to_recipes());
        assert_eq!(rebuilt.agreement_function(), None);
    }

    #[test]
    #[should_panic(expected = "Chr²")]
    fn wrong_level_rejected() {
        let chr = Complex::standard(2).chromatic_subdivision();
        let _ = AffineTask::new("bad", chr);
    }

    #[test]
    #[should_panic(expected = "pure")]
    fn non_pure_rejected() {
        let chr2 = Complex::standard(2).iterated_subdivision(2);
        // A facet plus a disconnected lower-dim simplex elsewhere.
        let facet = chr2.facets()[0].clone();
        let outside = chr2
            .used_vertices()
            .into_iter()
            .find(|&v| !facet.contains(v))
            .expect("Chr² of an edge has vertices outside any one facet");
        let sub = chr2.sub_complex(vec![facet, Simplex::vertex(outside)]);
        let _ = AffineTask::new("bad", sub);
    }
}
