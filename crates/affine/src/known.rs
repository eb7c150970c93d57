//! The previously known affine tasks: `R_{k-OF}` (Definition 6, Gafni et
//! al.) and `R_{t-res}` (Saraph–Herlihy–Gafni), plus the wait-free task.
//!
//! These serve as independent cross-checks of the general `R_A`
//! construction: on a `k`-obstruction-free adversary, Definition 9 must
//! reduce to Definition 6 (the paper: "one can check, which is not
//! obvious"); the reproduction checks it computationally.
//!
//! *Extension hook*: the affine tasks for `k`-test-and-set of
//! Kuznetsov–Rieutord (reference [25] of the paper) would slot in here;
//! they are listed as future work by the paper and are out of scope.

use act_topology::{Complex, Simplex};

use crate::contention::max_contention_dim;
use crate::task::AffineTask;

/// The affine task `R_{k-OF}` of the `k`-obstruction-free adversary
/// (Definition 6): the pure complement in `Chr² s` of the contention
/// simplices of dimension `≥ k` — i.e. the facets whose largest contention
/// simplex has fewer than `k + 1` processes.
///
/// # Panics
///
/// Panics if `k` is 0 or exceeds `n`.
pub fn k_obstruction_free_task(n: usize, k: usize) -> AffineTask {
    assert!((1..=n).contains(&k), "k must be in 1..=n");
    let chr2 = Complex::standard(n).iterated_subdivision(2);
    // Pure complement as a facet filter (the facets of Chr² s are all
    // maximal, so filtering them is equivalent).
    let kept: Vec<Simplex> = chr2
        .facets()
        .iter()
        .filter(|facet| {
            !facet.non_empty_faces().any(|theta| {
                theta.dim() >= k as isize && crate::contention::is_contention_simplex(&chr2, &theta)
            })
        })
        .cloned()
        .collect();
    AffineTask::new(format!("R_{k}-OF"), chr2.sub_complex(kept))
}

/// The affine task `R_{t-res}` of the `t`-resilient adversary
/// (Saraph et al.): the facets of `Chr² s` in which every process sees at
/// least `n − t − 1` *other* processes across the two immediate snapshots —
/// equivalently, the pure complement of the star of the low-participation
/// skeleton (carriers of at most `n − t − 1` processes).
///
/// # Panics
///
/// Panics if `t >= n`.
pub fn t_resilient_task(n: usize, t: usize) -> AffineTask {
    assert!(t < n, "t-resilience requires t < n");
    let chr2 = Complex::standard(n).iterated_subdivision(2);
    let kept: Vec<Simplex> = chr2
        .facets()
        .iter()
        .filter(|f| {
            f.vertices()
                .iter()
                .all(|&v| chr2.base_colors_of_vertex(v).len() >= n - t)
        })
        .cloned()
        .collect();
    AffineTask::new(format!("R_{t}-res"), chr2.sub_complex(kept))
}

/// The wait-free affine task: all of `Chr² s` (Herlihy–Shavit; equal to
/// both `R_{(n-1)-res}` and `R_{n-OF}`).
pub fn wait_free_task(n: usize) -> AffineTask {
    AffineTask::new("wait-free", Complex::standard(n).iterated_subdivision(2))
}

/// Convenience: the maximal contention dimension over all facets of a
/// task's complex (diagnostics for Figure 7).
pub fn max_contention_of_task(task: &AffineTask) -> isize {
    let k = task.complex();
    k.facets()
        .iter()
        .map(|f| max_contention_dim(k, f))
        .max()
        .unwrap_or(-1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_adversary::AgreementFunction;

    use crate::fair::{fair_affine_task_with, CriticalSideCondition};

    #[test]
    fn wait_free_equals_full_chr2() {
        let l = wait_free_task(3);
        assert_eq!(l.complex().facet_count(), 169);
        let r = t_resilient_task(3, 2);
        assert!(l.complex().same_complex(r.complex()));
        let r = k_obstruction_free_task(3, 3);
        assert!(l.complex().same_complex(r.complex()));
    }

    #[test]
    fn figure_1b_one_resilient_task() {
        // Figure 1b: R_{1-res} for 3 processes is a proper sub-complex
        // excluding the corner regions where a process saw only itself.
        let r = t_resilient_task(3, 1);
        let count = r.complex().facet_count();
        assert!(count > 0 && count < 169, "got {count}");
        for f in r.complex().facets() {
            for &v in f.vertices() {
                assert!(r.complex().base_colors_of_vertex(v).len() >= 2);
            }
        }
    }

    #[test]
    fn k_of_tasks_are_nested() {
        let c1 = k_obstruction_free_task(3, 1).complex().facet_count();
        let c2 = k_obstruction_free_task(3, 2).complex().facet_count();
        let c3 = k_obstruction_free_task(3, 3).complex().facet_count();
        assert!(c1 < c2 && c2 < c3, "{c1} < {c2} < {c3} violated");
        assert_eq!(c3, 169);
    }

    #[test]
    fn definition_9_refines_definition_6() {
        // The paper says Definition 9 "reduces to" R_{k-OF} on the
        // k-obstruction-free adversary. Computationally (and consistently
        // with hand-simulating Algorithm 1), the relationship at n = 3 is:
        //
        //   R_A(Def 9) ⊆ R_{k-OF}(Def 6), with equality at k = 1 and k = n,
        //   and strict containment for intermediate k: Def 9 additionally
        //   excludes runs in which a process with a large View1 overtakes
        //   in round 2 without a critical excuse — runs Algorithm 1's
        //   waiting phase can never produce. (At n = 4, k = 2 the two
        //   complexes become incomparable — see tests/n4_validation.rs.)
        //   Both tasks capture the same model (validated by the
        //   solvability experiments).
        for n in 2..=3 {
            for k in 1..=n {
                let alpha = AgreementFunction::k_concurrency(n, k);
                let general = fair_affine_task_with(&alpha, CriticalSideCondition::Union);
                let direct = k_obstruction_free_task(n, k);
                let g = general.complex().canonical_facets();
                let d = direct.complex().canonical_facets();
                assert!(
                    g.is_subset(&d),
                    "R_A ⊆ R_{{k-OF}} violated for n = {n}, k = {k}"
                );
                if k == 1 || k == n {
                    assert_eq!(g, d, "equality at k = {k}, n = {n}");
                }
            }
        }
        // The documented strictness for (n, k) = (3, 2).
        let alpha = AgreementFunction::k_concurrency(3, 2);
        let general = fair_affine_task_with(&alpha, CriticalSideCondition::Union);
        assert_eq!(general.complex().facet_count(), 142);
        assert_eq!(k_obstruction_free_task(3, 2).complex().facet_count(), 163);
    }

    #[test]
    fn triple_intersection_reading_is_stricter() {
        // The literally-printed side condition of Definition 9 excludes
        // even more facets than the proofs' union form; both stay inside
        // Def 6. Recorded so the discrepancy is visible.
        for (n, k) in [(2, 1), (3, 1), (3, 2)] {
            let alpha = AgreementFunction::k_concurrency(n, k);
            let union = fair_affine_task_with(&alpha, CriticalSideCondition::Union);
            let triple = fair_affine_task_with(&alpha, CriticalSideCondition::TripleIntersection);
            let u = union.complex().canonical_facets();
            let t = triple.complex().canonical_facets();
            assert!(t.is_subset(&u), "triple ⊆ union for n = {n}, k = {k}");
            assert!(t.len() < u.len(), "strict for n = {n}, k = {k}");
        }
    }

    #[test]
    fn definition_9_equals_saraph_t_resilient_task() {
        // A reproduction finding: on t-resilient adversaries, the general
        // R_A of Definition 9 coincides EXACTLY with the independently
        // defined R_{t-res} of Saraph–Herlihy–Gafni, for every (n, t) we
        // can afford to check.
        use act_adversary::Adversary;
        for (n, t) in [(2usize, 0usize), (2, 1), (3, 0), (3, 1), (3, 2)] {
            let alpha = AgreementFunction::of_adversary(&Adversary::t_resilient(n, t));
            let general = fair_affine_task_with(&alpha, CriticalSideCondition::Union);
            let direct = t_resilient_task(n, t);
            assert!(
                general.complex().same_complex(direct.complex()),
                "R_A ≠ R_t-res for n = {n}, t = {t}: {} vs {} facets",
                general.complex().facet_count(),
                direct.complex().facet_count()
            );
        }
    }
}
