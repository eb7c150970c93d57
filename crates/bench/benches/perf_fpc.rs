//! FPC workload throughput: seeded simulator runs/second and the
//! rounds-to-finality distribution per malicious strategy.
//!
//! Each strategy contributes one row to `BENCH_perf_fpc.json` carrying
//! the stub's timing fields plus result metrics attached via
//! `record_result_metric`: `runs_per_sec`, `rounds_p50`, and
//! `rounds_p99` (plus the node count for context). The perf-smoke CI
//! job asserts this schema.

use act_bench::{banner, metric};
use act_fpc::{run_stats, FpcSpec};
use criterion::{criterion_group, criterion_main, record_result_metric, BenchmarkId, Criterion};
use std::time::Instant;

const STRATEGIES: [&str; 3] = ["cautious", "berserk", "fixed-split"];

/// Size of the dedicated throughput batch each strategy runs once; the
/// criterion-timed loop uses a tenth of this per iteration.
fn batch_runs() -> u64 {
    std::env::var("ACT_BENCH_FPC_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5_000)
}

fn spec_for(strategy: &str) -> FpcSpec {
    FpcSpec::parse(&format!("fpc:32:8:{strategy}:10:600")).expect("bench spec parses")
}

fn bench(c: &mut Criterion) {
    banner(
        "P9",
        "FPC workloads: runs/sec + rounds-to-finality by strategy",
    );
    let runs = batch_runs();

    let mut g = c.benchmark_group("fpc");
    for strategy in STRATEGIES {
        let spec = spec_for(strategy);
        let id = BenchmarkId::new("seeded_runs", strategy);
        let timed = (runs / 10).max(500);
        g.bench_with_input(id, &spec, |b, spec| {
            b.iter(|| run_stats(spec, timed, 0xFAC7))
        });

        // One fixed-size batch per strategy gives the headline numbers;
        // the statistics are a pure function of (spec, runs, seed), so
        // re-running this bench reproduces them bit for bit.
        let t0 = Instant::now();
        let stats = run_stats(&spec, runs, 0xFAC7);
        let rps = runs as f64 / t0.elapsed().as_secs_f64().max(f64::EPSILON);
        assert_eq!(stats.runs, runs);
        println!(
            "fpc {strategy}: {runs} runs, {rps:.0} runs/sec, rounds p50 {} p99 {} max {}",
            stats.rounds_p50, stats.rounds_p99, stats.rounds_max
        );
        let row = format!("fpc/seeded_runs/{strategy}");
        record_result_metric(&row, "runs_per_sec", rps);
        record_result_metric(&row, "rounds_p50", stats.rounds_p50 as f64);
        record_result_metric(&row, "rounds_p99", stats.rounds_p99 as f64);
        record_result_metric(&row, "nodes", 32.0);
        metric(&format!("rounds_p50_{strategy}"), stats.rounds_p50);
    }
    g.finish();
    metric("fpc_runs", runs);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
