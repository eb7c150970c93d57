//! The affine task `R_A` of a fair adversary (Definition 9, Figure 7).
//!
//! `R_A` keeps exactly the facets of `Chr² s` in which every "non-critical"
//! contention simplex — one that cannot rely on critical simplices to reach
//! α-adaptive set consensus — is small enough to solve it on its own:
//!
//! ```text
//! R_A = Cl({σ ∈ facets(Chr² s) : ∀ θ ⊆ σ, P(θ, σ)})
//! P(θ, σ) ≡ θ ∈ Cont² ∧ χ(θ) ∩ (χ(CSM_α(ρ)) ∪ χ(CSV_α(τ))) = ∅
//!             ⟹ dim(θ) < Conc_α(τ)
//! ```
//!
//! with `τ = carrier(θ, Chr s)` and `ρ = carrier(σ, Chr s)`.
//!
//! **A note on the side condition.** Definition 9 of the arXiv text writes
//! the triple intersection `χ(θ) ∩ χ(CSM_α(ρ)) ∩ χ(CSV_α(τ)) = ∅`, but the
//! safety proof (Lemma 6) and the agreement proof of `µ_Q` (Property 10)
//! both use the *union* form above (a process is excused from the
//! concurrency bound if it is a critical member **or** observed by a
//! critical simplex). We implement both readings
//! ([`CriticalSideCondition`]); the union reading is the default. It is the
//! one that reproduces the known affine tasks: on `t`-resilient
//! adversaries `R_A` coincides *exactly* with Saraph et al.'s `R_{t-res}`
//! (every checked `(n, t)`), and on `k`-obstruction-free adversaries it
//! coincides with `R_{k-OF}` (Definition 6) at `k = 1` and `k = n`. For
//! intermediate `k` the two (both model-capturing) complexes differ:
//! at `n = 3` `R_A ⊊ R_{k-OF}`, and at `n = 4, k = 2` they are
//! incomparable. The test-suite and the Figure-7 experiment record the
//! exact relationship; Algorithm 1's safety and `µ_Q`'s properties are
//! verified against this `R_A` for `n ≤ 4`.

use act_adversary::AgreementFunction;
use act_topology::{ColorPerm, ColorSet, Complex, Simplex};

use crate::contention::is_contention_simplex;
use crate::critical::CriticalAnalysis;
use crate::task::AffineTask;

/// Which reading of Definition 9's side condition to use; see the module
/// documentation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CriticalSideCondition {
    /// `χ(θ) ∩ (χ(CSM_α(ρ)) ∪ χ(CSV_α(τ))) = ∅` — the form used by the
    /// paper's proofs (Lemma 6, Property 10). Default.
    #[default]
    Union,
    /// `χ(θ) ∩ χ(CSM_α(ρ)) ∩ χ(CSV_α(τ)) = ∅` — the form as literally
    /// printed in Definition 9.
    TripleIntersection,
}

/// Builds the affine task `R_A` for the fair-adversary model with agreement
/// function `alpha`, using the default (union) side condition. The task
/// records `alpha` ([`AffineTask::agreement_function`]), which is what lets
/// the solver construct set-consensus witnesses from the leader map `µ_Π`
/// instead of searching for them.
///
/// # Panics
///
/// Panics if `alpha(Π) = 0` (the model admits no runs) or the agreement
/// function is structurally invalid.
///
/// # Examples
///
/// ```
/// use act_adversary::AgreementFunction;
/// use act_affine::fair_affine_task;
///
/// // Figure 7a: R_A for 1-obstruction-freedom over 3 processes.
/// let alpha = AgreementFunction::k_concurrency(3, 1);
/// let r = fair_affine_task(&alpha);
/// assert!(r.complex().facet_count() > 0);
/// assert!(r.complex().facet_count() < 169);
/// ```
pub fn fair_affine_task(alpha: &AgreementFunction) -> AffineTask {
    fair_affine_task_with(alpha, CriticalSideCondition::Union)
}

/// [`fair_affine_task`] with an explicit side-condition reading.
pub fn fair_affine_task_with(alpha: &AgreementFunction, side: CriticalSideCondition) -> AffineTask {
    let n = alpha.num_processes();
    alpha
        .validate()
        .expect("structurally valid agreement function");
    assert!(
        alpha.alpha(act_topology::ColorSet::full(n)) >= 1,
        "the model must admit at least one run (α(Π) ≥ 1)"
    );
    let chr2 = Complex::standard(n).iterated_subdivision(2);
    let complex = restrict_to_fair(&chr2, alpha, side);
    AffineTask::new(format!("R_A[{side:?}]"), complex).with_agreement_function(alpha)
}

/// The facet filter of Definition 9, applied to a level-2 complex. One
/// memoizing [`CriticalAnalysis`] serves every facet.
fn restrict_to_fair(
    chr2: &Complex,
    alpha: &AgreementFunction,
    side: CriticalSideCondition,
) -> Complex {
    let parent = chr2.parent().expect("level-2 complex").clone();
    let mut crit = CriticalAnalysis::new(&parent, alpha);
    let kept: Vec<Simplex> = chr2
        .facets()
        .iter()
        .filter(|sigma| facet_satisfies_p(chr2, &mut crit, sigma, side))
        .cloned()
        .collect();
    chr2.sub_complex(kept)
}

/// The result of the symmetry-quotiented `R_A` census
/// ([`fair_census_quotiented`]): facet counts obtained from one
/// representative `Chr`-facet per orbit, without materializing `Chr² s`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FairCensus {
    /// The facet count of `R_A`: Σ over orbits of
    /// `orbit_size × |surviving representative-expansion facets|`.
    pub facet_count: usize,
    /// Number of `Chr s` facet orbits examined (compositions of `n`:
    /// 4, 8, 16 for n = 3, 4, 5 — versus 13, 75, 541 facets).
    pub orbit_count: usize,
    /// The facet count of the ambient `Chr² s`, from the same census.
    pub chr2_facet_count: usize,
}

/// Whether an agreement function is invariant under every color
/// permutation. Checked on the adjacent transpositions, which generate
/// `S_n`. Symmetric adversaries (`k`-obstruction-free, `t`-resilient,
/// wait-free) qualify; Figure 5b's adversary does not.
pub fn alpha_is_symmetric(alpha: &AgreementFunction) -> bool {
    let n = alpha.num_processes();
    for i in 0..n.saturating_sub(1) {
        let mut images: Vec<usize> = (0..n).collect();
        images.swap(i, i + 1);
        let perm = ColorPerm::from_images(&images).expect("a transposition is a bijection");
        for s in ColorSet::full(n).subsets() {
            if alpha.alpha(perm.apply_colors(s)) != alpha.alpha(s) {
                return false;
            }
        }
    }
    true
}

/// The symmetry-quotiented `R_A` census with the default (union) side
/// condition; see [`fair_census_quotiented_with`].
pub fn fair_census_quotiented(alpha: &AgreementFunction) -> Option<FairCensus> {
    fair_census_quotiented_with(alpha, CriticalSideCondition::Union)
}

/// Counts the facets of `R_A` through the color-symmetry quotient: the
/// facets of `Chr s` are partitioned into orbits (compositions of `n`),
/// only one representative per orbit is expanded to level 2 (against the
/// *full* `Chr s` as parent, so carrier and view lookups are exact), and
/// Definition 9 is evaluated on those expansions alone. Each surviving
/// representative facet stands for `orbit_size` facets of `R_A`.
///
/// This avoids building `Chr² s` entirely — 16 representative expansions
/// of 541 recipes each instead of 292 681 facets at `n = 5` — which is
/// what makes the n = 5 census tractable.
///
/// Sound only for color-symmetric agreement functions (Definition 9 is
/// equivariant exactly when `α` is); returns `None` otherwise, and callers
/// fall back to the direct [`fair_affine_task_with`] construction.
///
/// # Panics
///
/// Panics if `alpha` is structurally invalid or `α(Π) = 0`.
pub fn fair_census_quotiented_with(
    alpha: &AgreementFunction,
    side: CriticalSideCondition,
) -> Option<FairCensus> {
    let n = alpha.num_processes();
    alpha
        .validate()
        .expect("structurally valid agreement function");
    assert!(
        alpha.alpha(ColorSet::full(n)) >= 1,
        "the model must admit at least one run (α(Π) ≥ 1)"
    );
    if !alpha_is_symmetric(alpha) {
        return None;
    }
    let chr = Complex::standard(n).chromatic_subdivision();
    let quotient = chr.chromatic_subdivision_quotiented();
    let reps = quotient.representatives();
    let mut crit = CriticalAnalysis::new(&chr, alpha);
    let mut facet_count = 0usize;
    let mut chr2_facet_count = 0usize;
    for expansion in quotient.orbit_expansions() {
        let size = expansion.orbit.orbit_size();
        chr2_facet_count += size * expansion.rep_facets.len();
        let surviving = expansion
            .rep_facets
            .iter()
            .filter(|sigma| facet_satisfies_p(reps, &mut crit, sigma, side))
            .count();
        facet_count += size * surviving;
    }
    Some(FairCensus {
        facet_count,
        orbit_count: quotient.orbits().len(),
        chr2_facet_count,
    })
}

/// Whether every subset `θ` of the facet `σ` satisfies `P(θ, σ)`.
fn facet_satisfies_p(
    chr2: &Complex,
    crit: &mut CriticalAnalysis<'_>,
    sigma: &Simplex,
    side: CriticalSideCondition,
) -> bool {
    let rho = chr2.carrier_in_parent(sigma);
    let csm_rho = crit.member_colors(&rho);
    for theta in sigma.non_empty_faces() {
        if !is_contention_simplex(chr2, &theta) {
            continue;
        }
        let tau = chr2.carrier_in_parent(&theta);
        let csv_tau = crit.view_colors(&tau);
        let chi_theta = chr2.colors(&theta);
        let excused = match side {
            CriticalSideCondition::Union => {
                chi_theta.intersects(csm_rho) || chi_theta.intersects(csv_tau)
            }
            CriticalSideCondition::TripleIntersection => {
                chi_theta.intersection(csm_rho).intersects(csv_tau)
            }
        };
        if excused {
            continue;
        }
        let conc = crit.concurrency(&tau);
        if theta.dim() >= conc as isize {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_adversary::{zoo, Adversary};
    use act_topology::ColorSet;

    #[test]
    fn r_a_for_wait_free_is_all_of_chr2() {
        // α(P) = |P|: every contention simplex of dim d needs Conc > d,
        // and indeed no facet is excluded (the wait-free model is Chr² s).
        let alpha = AgreementFunction::of_adversary(&Adversary::wait_free(3));
        let r = fair_affine_task(&alpha);
        assert_eq!(r.complex().facet_count(), 169);
    }

    #[test]
    fn r_a_for_one_of_is_strict_subcomplex() {
        let alpha = AgreementFunction::k_concurrency(3, 1);
        let r = fair_affine_task(&alpha);
        let count = r.complex().facet_count();
        assert!(count > 0 && count < 169, "got {count}");
    }

    #[test]
    fn r_a_for_figure_5b_adversary() {
        let alpha = AgreementFunction::of_adversary(&zoo::figure_5b_adversary());
        let r = fair_affine_task(&alpha);
        let count = r.complex().facet_count();
        assert!(count > 0 && count < 169, "got {count}");
    }

    #[test]
    fn r_a_is_monotone_in_agreement_power() {
        // More concurrency ⇒ more permitted facets.
        let r1 = fair_affine_task(&AgreementFunction::k_concurrency(3, 1));
        let r2 = fair_affine_task(&AgreementFunction::k_concurrency(3, 2));
        let r3 = fair_affine_task(&AgreementFunction::k_concurrency(3, 3));
        let c1 = r1.complex().facet_count();
        let c2 = r2.complex().facet_count();
        let c3 = r3.complex().facet_count();
        assert!(c1 <= c2 && c2 <= c3, "{c1} ≤ {c2} ≤ {c3} violated");
        assert_eq!(c3, 169, "3-concurrency over 3 processes is wait-free");
    }

    #[test]
    fn quotient_census_matches_direct_construction() {
        // The tentpole parity gate: for every symmetric model, the
        // quotiented census equals the facet count of the directly built
        // R_A, and the ambient count equals |Chr² s|.
        let models: Vec<AgreementFunction> = vec![
            AgreementFunction::k_concurrency(3, 1),
            AgreementFunction::k_concurrency(3, 2),
            AgreementFunction::of_adversary(&Adversary::wait_free(3)),
            AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1)),
            AgreementFunction::k_concurrency(4, 2),
        ];
        for alpha in &models {
            for side in [
                CriticalSideCondition::Union,
                CriticalSideCondition::TripleIntersection,
            ] {
                let census =
                    fair_census_quotiented_with(alpha, side).expect("symmetric model has a census");
                let direct = fair_affine_task_with(alpha, side);
                assert_eq!(
                    census.facet_count,
                    direct.complex().facet_count(),
                    "model {alpha:?}, side {side:?}"
                );
                let n = alpha.num_processes();
                let fubini2 = act_topology::fubini(n) * act_topology::fubini(n);
                assert_eq!(census.chr2_facet_count as u64, fubini2);
            }
        }
    }

    #[test]
    fn asymmetric_alpha_has_no_quotient_census() {
        let alpha = AgreementFunction::of_adversary(&zoo::figure_5b_adversary());
        assert!(!alpha_is_symmetric(&alpha));
        assert!(fair_census_quotiented(&alpha).is_none());
    }

    #[test]
    fn n5_census_is_reachable() {
        // Previously unreachable: |Chr² s| = 541² = 292 681 facets at
        // n = 5. The census touches only 16 representative expansions.
        let alpha = AgreementFunction::k_concurrency(5, 2);
        let census = fair_census_quotiented(&alpha).unwrap();
        assert_eq!(census.orbit_count, 16, "compositions of 5");
        assert_eq!(census.chr2_facet_count, 541 * 541);
        assert!(census.facet_count > 0 && census.facet_count < 541 * 541);
    }

    #[test]
    fn apply_to_shared_matches_apply_to() {
        let alpha = AgreementFunction::k_concurrency(3, 1);
        let task = fair_affine_task(&alpha);
        let base = Complex::standard(3);
        let l1_direct = task.apply_to(&base);
        let l1_shared = task.apply_to_shared(&base);
        assert_eq!(l1_direct, l1_shared, "level 1 byte-identical");
        let l2_direct = task.apply_to(&l1_direct);
        let l2_shared = task.apply_to_shared(&l1_shared);
        assert_eq!(l2_direct, l2_shared, "level 2 byte-identical");
    }

    #[test]
    #[should_panic(expected = "α(Π) ≥ 1")]
    fn powerless_model_rejected() {
        let alpha = AgreementFunction::from_fn(2, |_| 0);
        let _ = fair_affine_task(&alpha);
    }

    #[test]
    fn one_resilient_r_a_contains_central_facets() {
        // For the 1-resilient adversary, fully synchronous double runs are
        // always allowed.
        let alpha = AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1));
        let r = fair_affine_task(&alpha);
        let chr2 = r.complex();
        let full = ColorSet::full(3);
        let sync = chr2.facets().iter().find(|f| {
            f.vertices()
                .iter()
                .all(|&v| chr2.base_colors_of_vertex(v) == full)
        });
        assert!(sync.is_some(), "the synchronous facet survives in R_A");
    }
}
