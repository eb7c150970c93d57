//! Property-based tests of the core data-structure invariants, driven by
//! proptest.

use act_adversary::{Adversary, AgreementFunction, SetconSolver};
use act_runtime::osp_from_views;
use act_topology::{
    ordered_set_partitions, ColorSet, Complex, InternArena, ProcessId, Simplex, VertexId,
};
use proptest::prelude::*;

fn colorset(n: usize) -> impl Strategy<Value = ColorSet> {
    (0u64..(1 << n)).prop_map(ColorSet::from_bits)
}

fn adversary(n: usize) -> impl Strategy<Value = Adversary> {
    let sets = (1u64..(1 << n)).prop_map(ColorSet::from_bits);
    proptest::collection::btree_set(sets, 0..=6).prop_map(move |s| Adversary::from_live_sets(n, s))
}

proptest! {
    #[test]
    fn colorset_algebra_is_boolean(a in colorset(6), b in colorset(6), c in colorset(6)) {
        prop_assert_eq!(a.union(b).intersection(c), a.intersection(c).union(b.intersection(c)));
        prop_assert_eq!(a.minus(b).union(a.intersection(b)), a);
        prop_assert!(a.intersection(b).is_subset_of(a));
        prop_assert!(a.is_subset_of(a.union(b)));
        prop_assert_eq!(a.union(b).len() + a.intersection(b).len(), a.len() + b.len());
    }

    #[test]
    fn colorset_subsets_are_exactly_the_power_set(a in colorset(5)) {
        let subs: Vec<ColorSet> = a.subsets().collect();
        prop_assert_eq!(subs.len(), 1usize << a.len());
        for s in &subs {
            prop_assert!(s.is_subset_of(a));
        }
        let mut dedup = subs.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), subs.len());
    }

    #[test]
    fn simplex_ops_are_set_ops(xs in proptest::collection::vec(0usize..30, 0..10),
                               ys in proptest::collection::vec(0usize..30, 0..10)) {
        let a = Simplex::from_vertices(xs.iter().map(|&i| VertexId::from_index(i)));
        let b = Simplex::from_vertices(ys.iter().map(|&i| VertexId::from_index(i)));
        let u = a.union(&b);
        prop_assert!(a.is_face_of(&u) && b.is_face_of(&u));
        let i = a.intersection(&b);
        prop_assert!(i.is_face_of(&a) && i.is_face_of(&b));
        prop_assert_eq!(u.len() + i.len(), a.len() + b.len());
        prop_assert_eq!(a.minus(&b).len() + i.len(), a.len());
        prop_assert_eq!(a.intersects(&b), !i.is_empty());
    }

    #[test]
    fn osp_views_roundtrip(seed in 0usize..10_000) {
        let all = ordered_set_partitions(ColorSet::full(4));
        let osp = &all[seed % all.len()];
        prop_assert_eq!(&osp_from_views(&osp.views()), osp);
    }

    #[test]
    fn osp_views_are_monotone_in_blocks(seed in 0usize..10_000) {
        let all = ordered_set_partitions(ColorSet::full(4));
        let osp = &all[seed % all.len()];
        let views = osp.views();
        for (p, v) in &views {
            prop_assert!(v.contains(*p));
            for (q, w) in &views {
                if v.contains(*q) {
                    prop_assert!(w.is_subset_of(*v));
                }
            }
        }
    }

    #[test]
    fn setcon_is_monotone_and_bounded(a in adversary(4)) {
        let alpha = AgreementFunction::of_adversary(&a);
        prop_assert!(alpha.validate().is_ok());
        prop_assert!(alpha.has_bounded_decrease());
        let full = ColorSet::full(4);
        prop_assert_eq!(alpha.alpha(full), a.setcon());
    }

    #[test]
    fn superset_closure_brings_csize_equal_setcon(a in adversary(4)) {
        // Close any adversary under supersets: then csize = setcon.
        if !a.is_empty() {
            let closed = Adversary::superset_closure(4, a.live_sets());
            prop_assert!(closed.is_superset_closed());
            prop_assert!(closed.is_fair());
            prop_assert_eq!(closed.setcon(), closed.csize());
        }
    }

    #[test]
    fn symmetric_adversaries_match_size_formula(sizes in proptest::collection::btree_set(1usize..=4, 0..=4)) {
        let a = Adversary::symmetric(4, sizes.iter().copied());
        prop_assert!(a.is_symmetric());
        prop_assert!(a.is_fair());
        prop_assert_eq!(a.setcon(), sizes.len());
    }

    #[test]
    fn restrictions_commute_with_setcon_solver(a in adversary(4), p in colorset(4), q in colorset(4)) {
        let q = q.intersection(p);
        let mut solver = SetconSolver::new(&a);
        let direct = solver.setcon_touching(p, q);
        // The same value through explicit restriction.
        let restricted = a.restrict_touching(p, q);
        prop_assert_eq!(direct, restricted.setcon());
    }

    #[test]
    fn canonical_form_is_perm_invariant_and_idempotent(
        n in 2usize..=4,
        fi in 0usize..1000,
        gi in 0usize..24,
    ) {
        use act_topology::{symmetry_group, LabelMatching};
        let chr = Complex::standard(n).chromatic_subdivision();
        let group = symmetry_group(&chr, LabelMatching::Strict);
        let facet = &chr.facets()[fi % chr.facet_count()];
        let action = group.element(gi % group.order());
        let image = action.apply_simplex(chr.level(), facet);
        let canon = group.canonical_form(facet);
        // Constant on the orbit: a randomly permuted facet canonicalizes
        // to the same representative…
        prop_assert_eq!(&group.canonical_form(&image), &canon);
        // …and canonicalizing a canonical form is the identity.
        prop_assert_eq!(&group.canonical_form(&canon), &canon);
    }

    #[test]
    fn subdivision_carriers_are_consistent(seed in 0u64..500) {
        // Pick a pseudo-random facet of Chr² s and check carrier algebra.
        let chr2 = Complex::standard(3).iterated_subdivision(2);
        let facet = &chr2.facets()[(seed as usize) % chr2.facet_count()];
        for face in facet.non_empty_faces() {
            let carrier1 = chr2.carrier_in_parent(&face);
            prop_assert!(chr2.parent().unwrap().contains_simplex(&carrier1));
            // carrier composition: colors of the base carrier match.
            let via_parent = chr2.parent().unwrap().carrier_colors(&carrier1);
            prop_assert_eq!(chr2.carrier_colors(&face), via_parent);
        }
    }

    #[test]
    fn recipes_resolve_and_roundtrip(seed in 0u64..500) {
        let chr2 = Complex::standard(3).iterated_subdivision(2);
        let facet = chr2.facets()[(seed as usize) % chr2.facet_count()].clone();
        let recipe = chr2.recipe_of_facet(&facet, 2);
        let base_facet = Complex::standard(3).facets()[0].clone();
        let resolved = chr2.simplex_for_recipe(&base_facet, &recipe).unwrap();
        prop_assert_eq!(resolved, facet);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn insertion_order_does_not_change_the_complex(rot in 0usize..13) {
        // Rotating the input facet list permutes the interned ids but
        // yields the same complex structurally.
        let chr = Complex::standard(3).chromatic_subdivision();
        let mut facets = chr.facets().to_vec();
        let shift = rot % facets.len();
        facets.rotate_left(shift);
        let rotated = chr.sub_complex(facets);
        let a = rotated.chromatic_subdivision();
        let b = chr.chromatic_subdivision();
        prop_assert!(a.same_complex(&b));
    }

    #[test]
    fn interning_round_trips(keys in proptest::collection::vec(
        (0usize..4, proptest::collection::vec(0usize..12, 1..4)), 1..40)) {
        // intern ∘ resolve = id: resolving an interned id recovers the
        // canonical key, and looking the key back up returns the id.
        let mut arena = InternArena::new();
        let mut interned = Vec::new();
        for (c, verts) in &keys {
            let color = ProcessId::new(*c);
            let carrier = Simplex::from_vertices(verts.iter().map(|&i| VertexId::from_index(i)));
            let id = arena.intern(color, carrier.clone(), Simplex::empty(), ColorSet::EMPTY);
            interned.push((color, carrier, id));
        }
        for (color, carrier, id) in &interned {
            let (rc, rcar) = arena.resolve(*id).unwrap();
            prop_assert_eq!(rc, *color);
            prop_assert_eq!(rcar, carrier);
            prop_assert_eq!(arena.lookup(*color, carrier), Some(*id));
        }
        // Ids are dense: one per distinct key, in first-occurrence order.
        let distinct: std::collections::BTreeSet<_> =
            interned.iter().map(|(c, s, _)| (*c, s.clone())).collect();
        prop_assert_eq!(arena.len(), distinct.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn afek_snapshot_histories_are_atomic(seed in 0u64..1_000_000,
                                          writes in 1usize..4,
                                          n in 2usize..5) {
        use act_runtime::{run_adversarial, AfekSystem};
        use rand::SeedableRng;

        let scripts: Vec<Vec<u32>> = (0..n)
            .map(|i| (0..writes).map(|w| (w * n + i + 1) as u32).collect())
            .collect();
        let mut sys = AfekSystem::new(scripts);
        let participants = ColorSet::full(n);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let outcome =
            run_adversarial(&mut sys, participants, participants, &mut rng, |_| 0, 400_000);
        prop_assert!(outcome.all_correct_terminated);
        // Comparability of all scans, pointwise by value monotonicity.
        let leq = |a: &Vec<Option<u32>>, b: &Vec<Option<u32>>| {
            a.iter().zip(b).all(|(x, y)| match (x, y) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(x), Some(y)) => x <= y,
            })
        };
        let scans = sys.scans();
        for (i, s1) in scans.iter().enumerate() {
            for s2 in &scans[i + 1..] {
                prop_assert!(leq(&s1.view, &s2.view) || leq(&s2.view, &s1.view));
            }
        }
    }

    #[test]
    fn algorithm_one_traces_replay_deterministically(seed in 0u64..1_000_000) {
        use act_adversary::AgreementFunction;
        use act_runtime::{run_adversarial, Trace};
        use fact::AlgorithmOneSystem;
        use rand::SeedableRng;

        let alpha = AgreementFunction::k_concurrency(3, 2);
        let full = ColorSet::full(3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut sys = AlgorithmOneSystem::new(&alpha, full);
        let outcome = run_adversarial(&mut sys, full, full, &mut rng, |_| 0, 300_000);
        prop_assert!(outcome.all_correct_terminated);
        let trace = Trace::from_outcome(full, &outcome);
        let mut replayed = AlgorithmOneSystem::new(&alpha, full);
        let terminated = trace.replay(&mut replayed).expect("recorded trace is in range");
        prop_assert_eq!(terminated, outcome.terminated);
        prop_assert_eq!(replayed.outputs(), sys.outputs());
    }

    #[test]
    fn betti_zero_equals_components_on_random_subcomplexes(mask in 1u64..(1 << 13)) {
        use act_topology::{betti_numbers, connected_components};
        let chr = Complex::standard(3).chromatic_subdivision();
        let facets: Vec<_> = chr
            .facets()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, f)| f.clone())
            .collect();
        let sub = chr.sub_complex(facets);
        let betti = betti_numbers(&sub);
        prop_assert_eq!(betti[0], connected_components(&sub));
    }

    #[test]
    fn random_fair_adversaries_admit_safe_algorithm_runs(a in adversary(3), seed in 0u64..1_000_000) {
        use act_affine::fair_affine_task;
        use act_runtime::run_adversarial;
        use fact::{outputs_to_simplex, AlgorithmOneSystem};
        use rand::SeedableRng;

        if a.setcon() == 0 || !a.is_fair() {
            return Ok(());
        }
        let alpha = AgreementFunction::of_adversary(&a);
        let r_a = fair_affine_task(&alpha);
        let full = ColorSet::full(3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut sys = AlgorithmOneSystem::new(&alpha, full);
        let outcome = run_adversarial(&mut sys, full, full, &mut rng, |_| 0, 200_000);
        prop_assert!(outcome.all_correct_terminated);
        let simplex = outputs_to_simplex(r_a.complex(), &sys.outputs()).unwrap();
        prop_assert!(r_a.complex().contains_simplex(&simplex));
        let _ = ProcessId::new(0);
    }
}
