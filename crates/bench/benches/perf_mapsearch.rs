//! P6 — the map-search engine after the bitset/trail/residue rewrite:
//! serial and default engines on the PR-2 reference instance
//! (`p4_map_search/2set_1res/*`), unsolvable propagation-heavy searches,
//! and the incremental `DomainCache` against from-scratch domain builds.
//!
//! Every `*_mean_ns` metric (and every derived speedup) is read back
//! from the result row of the same run with
//! [`criterion::result_mean_ns`], so the `metrics` block of the JSON
//! report can never disagree with the rows it summarizes.
//!
//! The `p6_domain_build/r_a_l2` group measures four ways to obtain
//! `R_A²(I)`:
//!
//! * `scratch` — a full rebuild, two subdivision rounds per sample;
//! * `extend` — a cache already holding the ℓ = 1 tower is cloned and
//!   extended by exactly one `apply_to` per sample (the incremental
//!   path a deepening solver takes at every new level);
//! * `cached` — one persistent cache serves every sample, the steady
//!   state of a solver or server re-asking reachable depths; the first
//!   (warm-up) sample pays the build, the measured ones are pure tower
//!   reuse. CI enforces `cached_speedup_x100 >= 150` over `scratch`;
//! * `warm_restart` — a *fresh* cache per sample, backed by a
//!   `TowerStore` populated by an earlier process lifetime: every level
//!   is decoded from disk, zero subdivisions run;
//! * `orbit_hit` — the cache already holds the tower for one coloring
//!   of the query and a *color-permuted* client asks for the same
//!   domain: the resident tower is transported along the permutation
//!   (`domain.cache.orbit_hit`), zero subdivisions run. Each sample
//!   clones the seeded cache so every measurement is a fresh orbit
//!   transport, not a resident-tower lookup.
//!
//! The `p6_no_map/wait_free3_l2` group answers one consensus no-map —
//! `R_A²` of the wait-free model on the two-value rainbow inputs, the
//! largest `n = 3` domain the solver meets — two ways: `search` exhausts
//! the carried-map CSP, `components` finds and checks the components
//! certificate ([`act_tasks::certificate`]). `p6_sperner/wait_free3_l2`
//! times the one-pass Sperner certificate on the same domain, as the
//! solver runs it for 2-set consensus. CI enforces
//! `components_speedup_x100 >= 400`.
//!
//! The `speedup_vs_pr2*` metrics compare against the mean the PR-2
//! engine recorded for the same instance (7 286 497 ns); this bench's
//! `p4_map_search/2set_1res/default` row is the only live timing of it. `ACT_BENCH_SAMPLES` overrides the per-benchmark
//! sample count (default 10) so CI smoke runs can keep this cheap.

use std::sync::Arc;

use act_adversary::{Adversary, AgreementFunction};
use act_affine::{fair_affine_task, AffineTask};
use act_bench::{banner, metric};
use act_service::TowerStore;
use act_tasks::{
    certificate, consensus, find_carried_map, find_carried_map_with_config,
    find_carried_map_with_stats, sperner_certificate, SearchConfig, SetConsensus, Task,
};
use act_topology::{permute_complex, ColorPerm};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fact::{affine_domain, DomainCache, TowerPersistence};

/// Mean of the PR-2 engine (domain-cloning backtracking over
/// `Vec<VertexId>` domains) on the same reference instance.
const PR2_P4_MEAN_NS: u64 = 7_286_497;

fn samples() -> usize {
    std::env::var("ACT_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(10)
}

/// The mean of row `id`, which must have been reported in this run.
fn row_mean_ns(id: &str) -> u64 {
    criterion::result_mean_ns(id).unwrap_or_else(|| panic!("benchmark row {id:?} did not run"))
}

fn bench(c: &mut Criterion) {
    banner("P6", "map-search engine");
    let n = samples();

    let alpha = AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1));
    let r_a = fair_affine_task(&alpha);
    let t = SetConsensus::new(3, 2, &[0, 1, 2]);
    let inputs = t.rainbow_inputs();
    let domain = affine_domain(&r_a, &inputs, 1);

    // The PR-2 reference instance.
    let mut g = c.benchmark_group("p4_map_search");
    g.sample_size(n);
    g.bench_with_input(BenchmarkId::new("2set_1res", "serial"), &(), |b, ()| {
        let config = SearchConfig::serial(3_000_000);
        b.iter(|| {
            assert!(find_carried_map_with_config(&t, &domain, &config)
                .0
                .is_found())
        })
    });
    g.bench_with_input(BenchmarkId::new("2set_1res", "default"), &(), |b, ()| {
        b.iter(|| assert!(find_carried_map(&t, &domain, 3_000_000).is_found()))
    });
    g.finish();

    // Unsolvable side: pure propagation work (consensus on Chr²).
    c.bench_function("p6_consensus_unsolvable_chr2", |b| {
        let t = consensus(2, &[0, 1]);
        let domain = t.inputs().iterated_subdivision(2);
        b.iter(|| assert!(find_carried_map(&t, &domain, 1_000_000).is_unsolvable()))
    });

    // The certificate routes against the search on one no-map domain.
    let wait_free = fair_affine_task(&AgreementFunction::of_adversary(&Adversary::wait_free(3)));
    let no_map = consensus(3, &[0, 1]);
    let wf_domain = affine_domain(&wait_free, &no_map.rainbow_inputs(), 2);
    let certified = certificate::find(&wf_domain).expect("consensus is not wait-free solvable");
    assert!(certificate::check(&wf_domain, &certified));
    assert!(find_carried_map(&no_map, &wf_domain, 5_000_000).is_unsolvable());
    let mut g = c.benchmark_group("p6_no_map");
    g.sample_size(n);
    g.bench_with_input(BenchmarkId::new("wait_free3_l2", "search"), &(), |b, ()| {
        b.iter(|| assert!(find_carried_map(&no_map, &wf_domain, 5_000_000).is_unsolvable()))
    });
    g.bench_with_input(
        BenchmarkId::new("wait_free3_l2", "components"),
        &(),
        |b, ()| {
            b.iter(|| {
                let cert = certificate::find(&wf_domain).expect("certified above");
                assert!(certificate::check(&wf_domain, &cert))
            })
        },
    );
    g.finish();
    c.bench_function("p6_sperner/wait_free3_l2", |b| {
        b.iter(|| assert!(sperner_certificate(&wf_domain)))
    });

    // Domain construction: from-scratch rebuilds vs the three
    // incremental paths (see the module docs for what each row means).
    let store_dir =
        std::env::temp_dir().join(format!("fact-bench-towers-{}-{}", std::process::id(), "p6"));
    let _ = std::fs::remove_dir_all(&store_dir);
    let towers = Arc::new(TowerStore::open(&store_dir).expect("open bench tower store"));
    {
        // A prior lifetime populates the store (levels 1 and 2).
        let mut warmer =
            DomainCache::new().with_persistence(Arc::clone(&towers) as Arc<dyn TowerPersistence>);
        assert!(warmer.domain(&r_a, &inputs, 2).facet_count() > 0);
    }

    let mut g = c.benchmark_group("p6_domain_build");
    g.sample_size(n);
    g.bench_with_input(BenchmarkId::new("r_a_l2", "scratch"), &(), |b, ()| {
        b.iter(|| affine_domain(&r_a, &inputs, 2).facet_count())
    });
    g.bench_with_input(BenchmarkId::new("r_a_l2", "extend"), &(), |b, ()| {
        // The tower up to ℓ = 1 is paid once outside the measurement;
        // each sample clones it (cheap Arc clones) and extends it by
        // exactly one `apply_to`.
        let mut seeded = DomainCache::new();
        seeded.domain(&r_a, &inputs, 1);
        b.iter(|| {
            let mut cache = seeded.clone();
            cache.domain(&r_a, &inputs, 2).facet_count()
        })
    });
    g.bench_with_input(BenchmarkId::new("r_a_l2", "cached"), &(), |b, ()| {
        // One cache across all samples: the warm-up pays the build,
        // the measured samples are steady-state tower reuse.
        let mut cache = DomainCache::new();
        b.iter(|| cache.domain(&r_a, &inputs, 2).facet_count())
    });
    g.bench_with_input(BenchmarkId::new("r_a_l2", "warm_restart"), &(), |b, ()| {
        // A fresh cache per sample, as after a process restart: every
        // level is decoded from the tower store, zero subdivisions.
        b.iter(|| {
            let mut cache = DomainCache::new()
                .with_persistence(Arc::clone(&towers) as Arc<dyn TowerPersistence>);
            cache.domain(&r_a, &inputs, 2).facet_count()
        })
    });
    g.bench_with_input(BenchmarkId::new("r_a_l2", "orbit_hit"), &(), |b, ()| {
        // A color-permuted client asks for the tower the cache already
        // holds in another coloring: the resident tower is transported
        // along the permutation instead of being rebuilt. The seeded
        // cache is cloned per sample (cheap Arc clones) so every
        // measurement performs the transport, not a resident lookup.
        let perm = ColorPerm::from_images(&[2, 0, 1]).expect("a 3-cycle is a bijection");
        let r_a_p = AffineTask::new(
            format!("{}-permuted", r_a.name()),
            permute_complex(r_a.complex(), &perm),
        );
        let inputs_p = permute_complex(&inputs, &perm);
        let mut seeded = DomainCache::new();
        seeded.domain(&r_a, &inputs, 2);
        b.iter(|| {
            let mut cache = seeded.clone();
            cache.domain(&r_a_p, &inputs_p, 2).facet_count()
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&store_dir);

    // Metrics, all derived from the rows above — never from a separate
    // timing loop.
    let serial = row_mean_ns("p4_map_search/2set_1res/serial");
    let default = row_mean_ns("p4_map_search/2set_1res/default");
    metric("p4_serial_mean_ns", serial);
    metric("p4_default_mean_ns", default);
    metric(
        "speedup_serial_vs_pr2",
        (PR2_P4_MEAN_NS + serial / 2) / serial.max(1),
    );
    metric(
        "speedup_serial_vs_pr2_x100",
        PR2_P4_MEAN_NS * 100 / serial.max(1),
    );
    metric(
        "speedup_vs_pr2",
        (PR2_P4_MEAN_NS + default / 2) / default.max(1),
    );
    metric("speedup_vs_pr2_x100", PR2_P4_MEAN_NS * 100 / default.max(1));
    println!(
        "p4 reference instance: PR-2 {} ns → serial {} ns ({:.1}x), default {} ns ({:.1}x)",
        PR2_P4_MEAN_NS,
        serial,
        PR2_P4_MEAN_NS as f64 / serial.max(1) as f64,
        default,
        PR2_P4_MEAN_NS as f64 / default.max(1) as f64,
    );

    let scratch = row_mean_ns("p6_domain_build/r_a_l2/scratch");
    let extend = row_mean_ns("p6_domain_build/r_a_l2/extend");
    let cached = row_mean_ns("p6_domain_build/r_a_l2/cached");
    let warm = row_mean_ns("p6_domain_build/r_a_l2/warm_restart");
    let orbit = row_mean_ns("p6_domain_build/r_a_l2/orbit_hit");
    metric("domain_scratch_l2_mean_ns", scratch);
    metric("domain_extend_l2_mean_ns", extend);
    metric("domain_cached_l2_mean_ns", cached);
    metric("warm_restart_l2_mean_ns", warm);
    metric("orbit_hit_l2_mean_ns", orbit);
    metric("cached_speedup_x100", scratch * 100 / cached.max(1));
    metric("extend_speedup_x100", scratch * 100 / extend.max(1));
    metric("warm_restart_speedup_x100", scratch * 100 / warm.max(1));
    metric("orbit_hit_speedup_x100", scratch * 100 / orbit.max(1));
    println!(
        "R_A²(I): scratch {scratch} ns, extend {extend} ns, cached {cached} ns, \
         warm restart {warm} ns, orbit hit {orbit} ns"
    );

    let search = row_mean_ns("p6_no_map/wait_free3_l2/search");
    let components = row_mean_ns("p6_no_map/wait_free3_l2/components");
    let sperner = row_mean_ns("p6_sperner/wait_free3_l2");
    metric("components_speedup_x100", search * 100 / components.max(1));
    println!(
        "consensus no-map on R_A²(I), wait-free n = 3 ({} facets): search {search} ns, \
         components {components} ns; Sperner certificate {sperner} ns",
        wf_domain.facet_count()
    );

    // Residual-support effectiveness on the reference search (telemetry
    // counters, not timings — these have no result row to read back).
    let (result, stats) = find_carried_map_with_stats(&t, &domain, 3_000_000);
    assert!(result.is_found());
    metric("p4_nodes", stats.nodes as u64);
    metric("p4_workers", stats.workers as u64);
    metric(
        "residue_hit_rate_x100",
        (stats.residue_hit_rate() * 100.0) as u64,
    );
    println!(
        "p4 search: {} nodes, {} workers, residue hit rate {:.1}% ({} hits / {} misses)",
        stats.nodes,
        stats.workers,
        stats.residue_hit_rate() * 100.0,
        stats.residue_hits,
        stats.residue_misses,
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
