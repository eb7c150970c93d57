//! Determinism of the map-search engine: exact `Unsolvable` verdicts on
//! the golden cases are never cut short into `Exhausted`, and the witness
//! of a solvable search is reproducible run to run and always verifies.

use act_tasks::{
    consensus, find_carried_map_with_config, verify_carried_map, SearchConfig, SetConsensus, Task,
};

/// The golden unsolvable cases of the test suite: exact `Unsolvable`
/// verdicts with budget to spare — running out of budget would degrade
/// them to `Exhausted`.
#[test]
fn golden_unsolvable_cases_never_degrade_to_exhausted() {
    // 2-process consensus at depths 1 and 2 (FLP), budget 1M.
    let t = consensus(2, &[0, 1]);
    for depth in 1..=2 {
        let domain = t.inputs().iterated_subdivision(depth);
        let config = SearchConfig::new(1_000_000);
        let (result, stats) = find_carried_map_with_config(&t, &domain, &config);
        assert!(
            result.is_unsolvable(),
            "consensus depth {depth}: got {}",
            result.verdict_name()
        );
        assert!(stats.budget_remaining > 0, "the budget was never emptied");
    }

    // 3-process consensus on the rainbow input facet, one round.
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
        .expect("rainbow facet exists")
        .clone();
    let domain = i.sub_complex(vec![rainbow]).iterated_subdivision(1);
    let config = SearchConfig::new(1_000_000);
    let (result, _) = find_carried_map_with_config(&t, &domain, &config);
    assert!(
        result.is_unsolvable(),
        "3-process rainbow consensus: got {}",
        result.verdict_name()
    );
}

/// A branching solvable instance (the bench's reference case): the
/// engine's witness is reproducible run to run and verifies.
#[test]
fn solvable_searches_are_reproducible_and_always_verified() {
    let t = SetConsensus::new(2, 2, &[0, 1, 2]);
    let domain = t.inputs().iterated_subdivision(1);

    let config = SearchConfig::new(100_000);
    let first = find_carried_map_with_config(&t, &domain, &config)
        .0
        .into_map()
        .expect("solvable");
    let second = find_carried_map_with_config(&t, &domain, &config)
        .0
        .into_map()
        .expect("solvable");
    assert_eq!(first, second, "the engine is deterministic");
    assert!(verify_carried_map(&t, &domain, &first));
}
