//! Serving-layer performance: cold (engine) vs warm (store hit) vs
//! coalesced (single-flight fan-in) throughput and latency of the
//! `act-service` scheduler over a persistent verdict store.
//!
//! The experiment mirrors `EXPERIMENTS.md`'s cold-vs-warm methodology:
//! one portfolio of solvability queries is answered three ways —
//! first by running the engine into an empty store, then from the
//! store's disk tier through a fresh process-equivalent (a new
//! `VerdictStore` over the same directory, so the memory LRU cannot
//! hide the disk path), and finally as a burst of identical in-flight
//! queries that must coalesce onto one engine run. Each phase reports
//! queries/second and p50/p99 per-query latency as metrics in
//! `BENCH_perf_serve.json`.

use std::sync::Arc;
use std::time::Instant;

use act_bench::{banner, metric};
use act_service::{Scheduler, ServeConfig, Served, SolveQuery, Submitted, VerdictStore};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fact::{ModelSpec, TaskSpec};

fn query(model: &str, k: usize, iters: usize) -> SolveQuery {
    let model = ModelSpec::parse(model, false).expect("portfolio model parses");
    let task = TaskSpec::set_consensus(model.num_processes(), k).expect("portfolio task parses");
    SolveQuery {
        model,
        task,
        iters,
        deadline_ms: None,
    }
}

/// The query portfolio: small `n = 3` instances across the adversary
/// zoo, cheap enough to answer at ℓ = 1 but distinct enough that every
/// cold answer is a real engine run with its own `R_A` tower.
fn portfolio() -> Vec<SolveQuery> {
    vec![
        query("t-res:3:1", 1, 1),
        query("t-res:3:1", 2, 1),
        query("t-res:3:2", 2, 1),
        query("k-of:3:1", 1, 1),
        query("k-of:3:2", 2, 1),
        query("wait-free:3", 2, 1),
    ]
}

/// Submits `q` and blocks for its answer, returning the per-query
/// latency in nanoseconds. Panics on backpressure/drain — the bench
/// never fills the queue.
fn answer_one(sched: &Scheduler, q: SolveQuery) -> u64 {
    let start = Instant::now();
    let served = match sched.submit(q) {
        Submitted::Ready(s) => s,
        Submitted::Pending(rx) => rx.recv().expect("worker answers"),
        other => panic!("bench query rejected: {other:?}"),
    };
    match served {
        Served::Authoritative { .. } | Served::Unreliable { .. } => {}
        Served::Failed { error, .. } => panic!("bench query failed: {error}"),
    }
    start.elapsed().as_nanos() as u64
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Reports `<phase>_qps`, `<phase>_p50_ns`, `<phase>_p99_ns` from one
/// phase's per-query latencies and total wall clock.
fn report_phase(phase: &str, mut latencies: Vec<u64>, total_ns: u64) {
    latencies.sort_unstable();
    let qps = latencies.len() as f64 * 1e9 / total_ns.max(1) as f64;
    metric(&format!("{phase}_qps"), qps as u64);
    metric(&format!("{phase}_p50_ns"), percentile(&latencies, 0.50));
    metric(&format!("{phase}_p99_ns"), percentile(&latencies, 0.99));
    println!(
        "{phase}: {} queries in {:.3} ms — {:.0} qps, p50 {} ns, p99 {} ns",
        latencies.len(),
        total_ns as f64 / 1e6,
        qps,
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
    );
}

fn print_experiment_data(dir: &std::path::Path) {
    banner("P7", "serving layer: cold vs warm vs coalesced");
    let rounds = criterion::sample_count(10);

    // Cold: every query is an engine run into an empty store.
    let store = Arc::new(VerdictStore::open(dir).expect("open bench store"));
    let sched = Scheduler::new(Arc::clone(&store), ServeConfig::default());
    sched.start_workers();
    let mut cold = Vec::new();
    let cold_start = Instant::now();
    for q in portfolio() {
        cold.push(answer_one(&sched, q));
    }
    let cold_total = cold_start.elapsed().as_nanos() as u64;
    sched.drain();
    report_phase("cold", cold, cold_total);

    // Warm: a fresh store over the same directory stands in for a new
    // process — every answer comes off the disk tier, no engine, no
    // memory-LRU shortcut. Repeated `rounds` times for a stable tail.
    let mut warm = Vec::new();
    let warm_start = Instant::now();
    for _ in 0..rounds {
        let fresh = Arc::new(VerdictStore::open(dir).expect("reopen bench store"));
        let sched = Scheduler::new(fresh, ServeConfig::default());
        for q in portfolio() {
            warm.push(answer_one(&sched, q));
        }
        sched.drain();
    }
    let warm_total = warm_start.elapsed().as_nanos() as u64;
    report_phase("warm", warm, warm_total);

    // Coalesced: a burst of identical queries enqueued before any worker
    // starts, so all but one provably ride the same engine run.
    const BURST: usize = 16;
    let sched = Scheduler::new(Arc::new(VerdictStore::in_memory()), ServeConfig::default());
    let burst_start = Instant::now();
    let receivers: Vec<_> = (0..BURST)
        .map(|_| match sched.submit(query("t-res:3:2", 2, 1)) {
            Submitted::Pending(rx) => rx,
            other => panic!("burst query rejected: {other:?}"),
        })
        .collect();
    sched.start_workers();
    let mut coalesced = Vec::new();
    for rx in receivers {
        rx.recv().expect("burst waiter answered");
        coalesced.push(burst_start.elapsed().as_nanos() as u64);
    }
    let coalesced_total = burst_start.elapsed().as_nanos() as u64;
    sched.drain();
    metric("coalesced_burst", BURST as u64);
    report_phase("coalesced", coalesced, coalesced_total);
}

fn bench(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("fact-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    print_experiment_data(&dir);

    // Timed slices of the two hot paths: a memory-tier hit on a live
    // scheduler, and a disk-tier load through a cold store.
    let store = Arc::new(VerdictStore::open(&dir).expect("open bench store"));
    let warm_key = query("t-res:3:1", 1, 1).key();
    assert!(
        store.get(&warm_key).is_some(),
        "cold phase must have populated the store"
    );
    let mut g = c.benchmark_group("p7_store_hit");
    g.bench_with_input(BenchmarkId::new("hit", "memory_tier"), &(), |b, ()| {
        b.iter(|| store.get(&warm_key).expect("memory hit"))
    });
    g.bench_with_input(BenchmarkId::new("hit", "disk_tier"), &(), |b, ()| {
        b.iter(|| {
            let cold = VerdictStore::open(&dir).expect("reopen bench store");
            cold.get(&warm_key).expect("disk hit")
        })
    });
    g.finish();

    // The full warm request path: scheduler submit → store-backed Ready.
    c.bench_function("p7_warm_submit", |b| {
        let sched = Scheduler::new(Arc::clone(&store), ServeConfig::default());
        b.iter(|| match sched.submit(query("t-res:3:1", 1, 1)) {
            Submitted::Ready(Served::Authoritative { verdict, .. }) => verdict.iterations,
            other => panic!("warm submit must be a store hit, got {other:?}"),
        })
    });

    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
