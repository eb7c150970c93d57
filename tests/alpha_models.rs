//! The α-model family end to end: agreement-function lattice laws
//! under proptest, spec round-trips across the adversary zoo, and the
//! serve-path acceptance checks — an `alpha:` query resolves through
//! the scheduler and verdict store exactly like an adversary spec, and
//! `alpha:(A)` (the α-model carved out of an adversary `A`) answers
//! identically to `A` itself.

use std::sync::{Arc, Mutex, MutexGuard};

use act_adversary::{zoo, Adversary, AgreementFunction};
use act_service::{
    Scheduler, ServeConfig, Served, SolveQuery, Submitted, VerdictStore, SERVE_ENGINE_RUNS,
    SERVE_HIT,
};
use act_topology::ColorSet;
use fact::{ModelSpec, TaskSpec};
use proptest::prelude::*;

/// Serializes the tests that run a `Scheduler`: its workers move the
/// process-global serving counters other tests diff.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn colorset(n: usize) -> impl Strategy<Value = ColorSet> {
    (0u64..(1 << n)).prop_map(ColorSet::from_bits)
}

fn adversary(n: usize) -> impl Strategy<Value = Adversary> {
    let sets = (1u64..(1 << n)).prop_map(ColorSet::from_bits);
    proptest::collection::btree_set(sets, 0..=6).prop_map(move |s| Adversary::from_live_sets(n, s))
}

/// The `alpha:N:<table>` spelling of an agreement function.
fn alpha_spec_of(alpha: &AgreementFunction) -> String {
    let digits: String = alpha.table().iter().map(|d| d.to_string()).collect();
    format!("alpha:{}:{digits}", alpha.num_processes())
}

/// The `custom:N:{…};…` spelling of an adversary's live sets.
fn custom_spec_of(a: &Adversary) -> String {
    let sets: Vec<String> = a
        .live_sets()
        .map(|cs| {
            let names: Vec<String> = cs.iter().map(|p| format!("p{}", p.index() + 1)).collect();
            format!("{{{}}}", names.join(","))
        })
        .collect();
    format!("custom:{}:{}", a.num_processes(), sets.join(";"))
}

proptest! {
    #[test]
    fn alpha_is_monotone_under_subset(a in adversary(4), p in colorset(4), q in colorset(4)) {
        // The law as stated: P ⊆ P' ⇒ α(P) ≤ α(P'), probed with an
        // arbitrary pair through its meet and join (p∩q ⊆ p ⊆ p∪q).
        let alpha = AgreementFunction::of_adversary(&a);
        let meet = p.intersection(q);
        let join = p.union(q);
        prop_assert!(alpha.alpha(meet) <= alpha.alpha(p));
        prop_assert!(alpha.alpha(p) <= alpha.alpha(join));
        prop_assert!(alpha.alpha(p) <= p.len());
    }

    #[test]
    fn alpha_decrease_is_bounded_by_the_departures(a in adversary(4), p in colorset(4), q in colorset(4)) {
        // Bounded decrease, Section 5.3: α(P \ Q) ≥ α(P) − |Q| — losing
        // |Q| processes costs at most |Q| agreement power.
        let alpha = AgreementFunction::of_adversary(&a);
        let q = q.intersection(p);
        prop_assert!(alpha.alpha(p.minus(q)) + q.len() >= alpha.alpha(p));
        prop_assert!(alpha.has_bounded_decrease());
    }

    #[test]
    fn alpha_tables_round_trip_through_from_table(a in adversary(4)) {
        // `of_adversary → table → from_table` is the identity, and the
        // validator accepts every table that setcon produces.
        let alpha = AgreementFunction::of_adversary(&a);
        prop_assert!(alpha.validate().is_ok());
        let back = AgreementFunction::from_table(4, alpha.table().to_vec());
        prop_assert_eq!(back.unwrap(), alpha);
    }
}

#[test]
fn zoo_alpha_specs_round_trip_and_stay_stable() {
    // Across the fair zoo at n ≤ 4: `alpha:(A)` parses, canonicalizes
    // to itself (stability — re-rendering a parsed spec is a fixpoint),
    // and reproduces `A`'s agreement function exactly.
    let mut models: Vec<Adversary> = zoo::all_fair_adversaries(3);
    for spec in ["wait-free:4", "t-res:4:1", "t-res:4:2", "k-of:4:2"] {
        models.push(ModelSpec::parse(spec, false).unwrap().adversary().unwrap());
    }
    for a in &models {
        let alpha = AgreementFunction::of_adversary(a);
        let spec = alpha_spec_of(&alpha);
        let parsed = ModelSpec::parse(&spec, false).unwrap();
        assert_eq!(parsed.canonical_string(), spec, "{spec} is a fixpoint");
        assert_eq!(parsed.agreement_function(), alpha, "{spec} α round-trips");
        assert!(
            parsed.adversary().is_err(),
            "α-models deliberately name no adversary"
        );
    }
}

fn alpha_query(spec: &str, k: usize) -> SolveQuery {
    let model = ModelSpec::parse(spec, false).unwrap();
    let task = TaskSpec::set_consensus(model.num_processes(), k).unwrap();
    SolveQuery {
        model,
        task,
        iters: 1,
        deadline_ms: None,
    }
}

fn served_verdict(sched: &Scheduler, q: SolveQuery) -> (String, &'static str) {
    let served = match sched.submit(q) {
        Submitted::Ready(s) => s,
        Submitted::Pending(rx) => rx.recv().unwrap(),
        other => panic!("query must be admitted, got {other:?}"),
    };
    match served {
        Served::Authoritative { verdict, source } => (verdict.verdict, source),
        other => panic!("expected an authoritative verdict, got {other:?}"),
    }
}

#[test]
fn alpha_queries_persist_and_hit_the_store_on_the_second_ask() {
    let _guard = serial();
    let dir = std::env::temp_dir().join(format!("fact-alpha-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = alpha_spec_of(&AgreementFunction::k_concurrency(3, 2));

    let first = {
        let store = Arc::new(VerdictStore::open(&dir).unwrap());
        let sched = Scheduler::new(store, ServeConfig::default());
        sched.start_workers();
        let engine_before = SERVE_ENGINE_RUNS.get();
        let (verdict, source) = served_verdict(&sched, alpha_query(&spec, 2));
        assert_eq!(source, "engine", "a cold store computes");
        assert_eq!(SERVE_ENGINE_RUNS.get() - engine_before, 1);
        sched.drain();
        verdict
    };

    // A second scheduler lifetime over the same directory: the α
    // verdict must come back from the store, no engine run.
    let store = Arc::new(VerdictStore::open(&dir).unwrap());
    let sched = Scheduler::new(store, ServeConfig::default());
    sched.start_workers();
    let hits_before = SERVE_HIT.get();
    let engine_before = SERVE_ENGINE_RUNS.get();
    let (verdict, source) = served_verdict(&sched, alpha_query(&spec, 2));
    assert_eq!(source, "store");
    assert_eq!(verdict, first);
    assert_eq!(SERVE_HIT.get() - hits_before, 1);
    assert_eq!(SERVE_ENGINE_RUNS.get() - engine_before, 0);
    sched.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn alpha_verdicts_agree_with_their_adversary_specs_across_the_zoo() {
    // The tentpole cross-check: for every fair adversary A in the zoo
    // at n ≤ 4, `alpha:(A)` and A's own spec answer every k-set
    // consensus query identically through the full scheduler path —
    // distinct store keys, one truth.
    let _guard = serial();
    let sched = Scheduler::new(Arc::new(VerdictStore::in_memory()), ServeConfig::default());
    sched.start_workers();
    // The empty adversary admits no runs, so it has no custom spelling
    // (and nothing to solve); every other fair adversary is covered.
    let mut specs: Vec<String> = zoo::all_fair_adversaries(3)
        .iter()
        .filter(|a| a.live_sets().next().is_some())
        .map(custom_spec_of)
        .collect();
    specs.extend(["t-res:4:1".to_string(), "k-of:4:2".to_string()]);
    for spec in &specs {
        let model = ModelSpec::parse(spec, false).unwrap();
        let n = model.num_processes();
        let alpha_spec = alpha_spec_of(&model.agreement_function());
        for k in 1..n {
            let (direct, _) = served_verdict(&sched, alpha_query(spec, k));
            let (via_alpha, _) = served_verdict(&sched, alpha_query(&alpha_spec, k));
            assert_eq!(
                direct, via_alpha,
                "{spec} and {alpha_spec} disagree on {k}-set consensus"
            );
        }
    }
    sched.drain();
}
