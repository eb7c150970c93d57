//! The components certificate against the search: on consensus, it fires
//! exactly when the carried-map CSP answers `Unsolvable`, its checker
//! accepts everything it finds, and a certificate whose tree lost an edge
//! of the domain is rejected.

use act_adversary::{zoo, AgreementFunction};
use act_affine::fair_affine_task;
use act_tasks::certificate::{self, ComponentsCertificate};
use act_tasks::{find_carried_map_with_config, SearchConfig, SearchResult, SetConsensus};
use act_topology::{ColorSet, Complex, Simplex};
use fact::{DomainCache, ModelSpec};

/// The certificate and the search agree on `domain`; returns whether the
/// certificate fired.
fn agree(task: &SetConsensus, domain: &Complex, what: &str) -> bool {
    let cert = certificate::find(domain);
    let (searched, _) = find_carried_map_with_config(task, domain, &SearchConfig::new(5_000_000));
    match (&cert, &searched) {
        (Some(cert), SearchResult::Unsolvable) => {
            assert!(certificate::check(domain, cert), "{what}: rejected");
            assert_mutation_rejected(domain, cert, what);
            true
        }
        (None, SearchResult::Found(_)) => false,
        _ => panic!(
            "{what}: certificate {}, search {}",
            cert.is_some(),
            searched.verdict_name()
        ),
    }
}

/// Without the facets carrying one of its tree edges, the domain no
/// longer supports the certificate.
fn assert_mutation_rejected(domain: &Complex, cert: &ComponentsCertificate, what: &str) {
    let Some(&(u, v, _)) = cert.tree.get(cert.tree.len() / 2) else {
        return;
    };
    let edge = Simplex::from_vertices([u, v]);
    let rest: Vec<Simplex> = domain
        .facets()
        .iter()
        .filter(|f| !edge.is_face_of(f))
        .cloned()
        .collect();
    assert!(rest.len() < domain.facet_count());
    assert!(
        !certificate::check(&domain.sub_complex(rest), cert),
        "{what}: accepted after the facets under {u:?}–{v:?} were dropped"
    );
}

/// Consensus over values `0..values`, assigned cyclically on the rainbow
/// inputs: two values is what `TaskSpec::task()` builds, `n` values gives
/// every process its own.
fn consensus(n: usize, values: u64) -> SetConsensus {
    SetConsensus::new(n, 1, &(0..values).collect::<Vec<_>>())
}

#[test]
fn the_certificate_fires_exactly_on_the_no_maps_of_the_n3_zoo() {
    let models: Vec<AgreementFunction> = zoo::all_fair_adversaries(3)
        .iter()
        .map(AgreementFunction::of_adversary)
        .filter(|alpha| alpha.alpha(ColorSet::full(3)) >= 1)
        .collect();
    assert_eq!(models.len(), 43, "the fair n = 3 zoo with runs");
    let mut fired = [0; 3];
    for alpha in &models {
        let affine = fair_affine_task(alpha);
        let power = alpha.alpha(ColorSet::full(3));
        let mut cache = DomainCache::new();
        for (i, (values, level)) in [(2, 1), (2, 2), (3, 1)].into_iter().enumerate() {
            let task = consensus(3, values);
            let domain = cache.domain(&affine, &task.rainbow_inputs(), level);
            let what = format!("{alpha:?}, {values} values, ℓ = {level}");
            let certified = agree(&task, domain, &what);
            // With a value per process, consensus is solvable iff α(Π) = 1.
            if values == 3 {
                assert_eq!(certified, power > 1, "{what}");
            }
            fired[i] += usize::from(certified);
        }
    }
    assert_eq!(fired, [14, 14, 19]);
}

#[test]
fn the_certificate_fires_exactly_on_the_no_maps_of_the_named_n4_families() {
    let mut fired = 0;
    for spec in [
        "t-res:4:1",
        "t-res:4:2",
        "k-of:4:1",
        "k-of:4:2",
        "k-of:4:3",
        "wait-free:4",
    ] {
        let alpha = ModelSpec::parse(spec, false).unwrap().agreement_function();
        let affine = fair_affine_task(&alpha);
        for values in [2, 4] {
            let task = consensus(4, values);
            let domain = DomainCache::new()
                .domain(&affine, &task.rainbow_inputs(), 1)
                .clone();
            let certified = agree(&task, &domain, &format!("{spec}, {values} values"));
            if values == 4 {
                assert_eq!(certified, alpha.alpha(ColorSet::full(4)) > 1, "{spec}");
            }
            fired += usize::from(certified);
        }
    }
    assert_eq!(fired, 9);
}
