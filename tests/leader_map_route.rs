//! The leader-map route: the solvable side of `k`-set consensus
//! (`k ≥ α(Π)`) is answered by the paper's own witness, "decide the
//! input of `µ_Π(v)`" (Properties 9–10), instead of by search. Every
//! constructed witness is checked against a second code path: the
//! exhaustive carried-map verifier, and at n = 3 the CSP search itself.

use act_adversary::{zoo, AgreementFunction};
use act_affine::fair_affine_task;
use act_tasks::{find_carried_map_with_config, verify_carried_map, SearchConfig, SearchResult};
use act_topology::ColorSet;
use fact::{
    affine_domain, leader_map_witness, set_consensus_verdict_with_config, DomainCache, ModelSpec,
    Solvability, TaskSpec, LEADER_MAP_REJECTED,
};

#[test]
fn the_route_builds_exactly_the_solvable_side_at_n3_and_the_search_agrees() {
    let config = SearchConfig::new(2_000_000);
    let (mut built, mut declined) = (0, 0);
    let models: Vec<AgreementFunction> = zoo::all_fair_adversaries(3)
        .iter()
        .map(AgreementFunction::of_adversary)
        .filter(|alpha| alpha.alpha(ColorSet::full(3)) >= 1)
        .collect();
    assert_eq!(models.len(), 43, "the fair n = 3 zoo with runs");
    for alpha in &models {
        let power = alpha.alpha(ColorSet::full(3));
        let affine = fair_affine_task(alpha);
        for k in 1..3 {
            let task = TaskSpec::set_consensus(3, k).unwrap().task();
            let domain = affine_domain(&affine, &task.rainbow_inputs(), 1);
            let Some(map) = leader_map_witness(&task, &affine, &domain) else {
                assert!(
                    k < power,
                    "declined at k = {k} ≥ α(Π) = {power} for {alpha:?}"
                );
                declined += 1;
                continue;
            };
            assert!(
                k >= power,
                "built at k = {k} < α(Π) = {power} for {alpha:?}"
            );
            assert!(
                verify_carried_map(&task, &domain, &map),
                "leader map rejected at k = {k} for {alpha:?}"
            );
            let (searched, _) = find_carried_map_with_config(&task, &domain, &config);
            assert!(
                matches!(searched, SearchResult::Found(_)),
                "the search disagrees at k = {k} for {alpha:?}: {}",
                searched.verdict_name()
            );
            built += 1;
        }
    }
    assert_eq!((built, declined), (66, 20));
}

#[test]
fn named_n4_models_construct_verify_and_answer_through_the_route() {
    let rejected_before = LEADER_MAP_REJECTED.get();
    for spec in [
        "t-res:4:1",
        "t-res:4:2",
        "k-of:4:1",
        "k-of:4:2",
        "k-of:4:3",
        "wait-free:4",
    ] {
        let alpha = ModelSpec::parse(spec, false).unwrap().agreement_function();
        let power = alpha.alpha(ColorSet::full(4));
        let affine = fair_affine_task(&alpha);
        let mut cache = DomainCache::new();
        for k in 1..4 {
            let task = TaskSpec::set_consensus(4, k).unwrap().task();
            let domain = affine_domain(&affine, &task.rainbow_inputs(), 1);
            let witness = leader_map_witness(&task, &affine, &domain);
            assert_eq!(witness.is_some(), k >= power, "{spec} at k = {k}");
            let Some(map) = witness else { continue };
            assert!(
                verify_carried_map(&task, &domain, &map),
                "{spec} at k = {k}"
            );
            // A zero node budget: only the construction can answer.
            let verdict = set_consensus_verdict_with_config(
                &mut cache,
                &task,
                &affine,
                1,
                &SearchConfig::new(0),
            );
            match verdict {
                Solvability::Solvable { iterations, map } => {
                    assert_eq!(iterations, 1);
                    assert!(
                        verify_carried_map(&task, &domain, &map),
                        "{spec} at k = {k}"
                    );
                }
                other => panic!("{spec} at k = {k}: expected the leader map, got {other:?}"),
            }
        }
    }
    assert_eq!(LEADER_MAP_REJECTED.get(), rejected_before);
}
