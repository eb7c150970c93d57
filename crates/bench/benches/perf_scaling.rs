//! P1–P3, P7 — performance envelope for downstream users: scaling of
//! the subdivision machinery, `R_A` construction, `setcon`, and the cost
//! of a tower's canonical key, as a function of system size. Each row id
//! names one method; the map search (P4) lives in `perf_mapsearch`.

use act_adversary::{Adversary, AgreementFunction, SetconSolver};
use act_affine::{fair_affine_task, fair_census_quotiented};
use act_bench::{banner, metric};
use act_tasks::SetConsensus;
use act_topology::{canonical_pair_hashes, permute_complex, ColorPerm, ColorSet, Complex};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// The mean of row `id`, which must have been reported in this run.
fn row_mean_ns(id: &str) -> u64 {
    criterion::result_mean_ns(id).unwrap_or_else(|| panic!("benchmark row {id:?} did not run"))
}

fn print_experiment_data() {
    banner("P1-P3", "scaling envelope");
    for n in 2..=5usize {
        let chr = Complex::standard(n).chromatic_subdivision();
        println!("n = {n}: |facets(Chr s)| = {}", chr.facet_count());
    }
    for n in 2..=4usize {
        let chr2 = Complex::standard(n).iterated_subdivision(2);
        println!("n = {n}: |facets(Chr² s)| = {}", chr2.facet_count());
    }
    for n in 2..=4usize {
        let alpha = AgreementFunction::k_concurrency(n, 1.max(n - 1));
        let r = fair_affine_task(&alpha);
        println!(
            "n = {n}: |facets(R_(n-1)-OF)| = {}",
            r.complex().facet_count()
        );
    }
}

fn bench(c: &mut Criterion) {
    print_experiment_data();

    // P1: subdivision scaling.
    let mut g = c.benchmark_group("p1_chr_scaling");
    for n in 2..=5usize {
        g.bench_with_input(BenchmarkId::new("chr", n), &n, |b, &n| {
            let s = Complex::standard(n);
            b.iter(|| s.chromatic_subdivision().facet_count())
        });
    }
    g.finish();

    // P2: R_A construction scaling — direct builds for n ≤ 4, and the
    // symmetry-quotiented census alongside them. Quotiented and direct
    // must agree on the facet count (verdict parity is checked before
    // any timing), and the quotient is what makes n = 5 reachable at
    // all: 16 representative orbit expansions instead of the 292 681
    // facets of Chr² s.
    for n in 3..=4usize {
        let alpha = AgreementFunction::k_concurrency(n, n - 1);
        let census = fair_census_quotiented(&alpha).expect("k-concurrency is color-symmetric");
        assert_eq!(
            census.facet_count,
            fair_affine_task(&alpha).complex().facet_count(),
            "quotiented census must agree with the direct build at n = {n}"
        );
    }
    let mut g = c.benchmark_group("p2_r_a_scaling");
    for n in 2..=4usize {
        g.bench_with_input(BenchmarkId::new("r_a_kof", n), &n, |b, &n| {
            let alpha = AgreementFunction::k_concurrency(n, 1.max(n - 1));
            b.iter(|| fair_affine_task(&alpha).complex().facet_count())
        });
    }
    // The n = 5 row was previously unreachable: the direct build
    // materializes Chr² s (292 681 facets at n = 5) before Definition 9
    // prunes it; the quotiented census never builds it and lands in tens
    // of milliseconds.
    for n in 3..=5usize {
        g.bench_with_input(BenchmarkId::new("r_a_kof_quotient", n), &n, |b, &n| {
            let alpha = AgreementFunction::k_concurrency(n, n - 1);
            b.iter(|| {
                fair_census_quotiented(&alpha)
                    .expect("k-concurrency is color-symmetric")
                    .facet_count
            })
        });
    }
    g.finish();
    let n5 = fair_census_quotiented(&AgreementFunction::k_concurrency(5, 4))
        .expect("k-concurrency is color-symmetric");
    metric("r_a_kof5_facets", n5.facet_count as u64);
    metric("r_a_kof5_orbits", n5.orbit_count as u64);
    metric("r_a_kof5_chr2_facets", n5.chr2_facet_count as u64);
    // Quotiented-vs-direct speedup on the same instance, read back from
    // the rows of this very run (CI perf-smoke enforces the n = 4 one).
    let direct3 = row_mean_ns("p2_r_a_scaling/r_a_kof/3");
    let quotient3 = row_mean_ns("p2_r_a_scaling/r_a_kof_quotient/3");
    let direct4 = row_mean_ns("p2_r_a_scaling/r_a_kof/4");
    let quotient4 = row_mean_ns("p2_r_a_scaling/r_a_kof_quotient/4");
    metric("quotient_speedup_n3_x100", direct3 * 100 / quotient3.max(1));
    metric("quotient_speedup_x100", direct4 * 100 / quotient4.max(1));
    println!(
        "R_A quotient: n = 3 direct {direct3} ns vs quotient {quotient3} ns, \
         n = 4 direct {direct4} ns vs quotient {quotient4} ns"
    );

    // P3: setcon scaling over adversary size.
    let mut g = c.benchmark_group("p3_setcon_scaling");
    for n in 4..=8usize {
        g.bench_with_input(BenchmarkId::new("t_resilient", n), &n, |b, &n| {
            let a = Adversary::t_resilient(n, n / 2);
            b.iter(|| {
                let mut solver = SetconSolver::new(&a);
                solver.setcon(ColorSet::full(n))
            })
        });
    }
    g.finish();

    // P7: the canonical key of an n = 4 tower — the joint S_n-minimal
    // encoding of (R_A, rainbow inputs) that keys the DomainCache and the
    // tower store. `materialize` builds each of the 24 permuted complexes
    // and encodes it (the former method); `direct` encodes each permuted
    // image straight from the unpermuted tables. Both must agree before
    // any timing.
    let alpha = AgreementFunction::of_adversary(&Adversary::t_resilient(4, 1));
    let r_a = fair_affine_task(&alpha);
    let inputs = SetConsensus::new(4, 2, &[0, 1, 2]).rainbow_inputs();
    let pair = (r_a.complex(), &inputs);
    assert_eq!(
        materialized_pair_hashes(pair.0, pair.1),
        canonical_pair_hashes(pair.0, pair.1),
        "direct canonical key must equal the materialized one"
    );
    let mut g = c.benchmark_group("p7_canonical");
    g.bench_with_input(
        BenchmarkId::new("pair_r_a_n4", "materialize"),
        &pair,
        |b, (a, i)| b.iter(|| materialized_pair_hashes(a, i).0),
    );
    g.bench_with_input(
        BenchmarkId::new("pair_r_a_n4", "direct"),
        &pair,
        |b, (a, i)| b.iter(|| canonical_pair_hashes(a, i).0),
    );
    g.finish();
    let materialize = row_mean_ns("p7_canonical/pair_r_a_n4/materialize");
    let direct = row_mean_ns("p7_canonical/pair_r_a_n4/direct");
    metric("canonical_speedup_x100", materialize * 100 / direct.max(1));
    println!("n = 4 canonical pair key: materialize {materialize} ns vs direct {direct} ns");
}

/// The canonical pair key by its definition: build `π · a` and `π · b`
/// for every `π ∈ S_n`, encode both, keep the lexicographically smallest
/// pair (first permutation on ties).
fn materialized_pair_hashes(a: &Complex, b: &Complex) -> (u128, u128, ColorPerm) {
    let mut best: Option<(Vec<u8>, Vec<u8>, ColorPerm)> = None;
    for perm in ColorPerm::all(a.num_processes()) {
        let ba = permute_complex(a, &perm).encode_portable();
        let bb = permute_complex(b, &perm).encode_portable();
        if best
            .as_ref()
            .is_none_or(|(xa, xb, _)| (&ba, &bb) < (xa, xb))
        {
            best = Some((ba, bb, perm));
        }
    }
    let (ba, bb, perm) = best.expect("S_n is non-empty");
    (
        act_obs::content_hash128(&ba),
        act_obs::content_hash128(&bb),
        perm,
    )
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
