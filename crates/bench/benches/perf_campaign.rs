//! Campaign-runner throughput: sampled runs/second over the worker
//! fleet at 1, 4, and 8 workers on the `t-res:3:1` model (solver oracle
//! off, so every measured unit is schedule generation + adversarial
//! execution + invariant checking, not the one-off solvability query).
//!
//! Each worker count contributes one row to `BENCH_perf_campaign.json`
//! carrying the stub's timing fields plus two result metrics attached
//! via `record_result_metric`: `runs_per_sec` (from a dedicated
//! fixed-size throughput campaign) and `workers`. The perf-smoke CI job
//! asserts this schema.

use act_bench::{banner, metric};
use act_campaign::{run_campaign_in, CampaignConfig, CampaignContext, Scope};
use criterion::{criterion_group, criterion_main, record_result_metric, BenchmarkId, Criterion};

const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

/// Size of the dedicated throughput campaign each worker count runs
/// once; the criterion-timed loop uses a tenth of this per iteration.
fn campaign_runs() -> u64 {
    std::env::var("ACT_BENCH_CAMPAIGN_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(20_000)
}

fn config(workers: usize, samples: u64, seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::new("t-res:3:1");
    config.scope = Scope::Sampled { samples };
    config.seed = seed;
    config.workers = workers;
    config.batch = (samples / 4).max(1);
    config.fault_rate_percent = 25;
    config.solver_check = false;
    config
}

fn bench(c: &mut Criterion) {
    banner("P8", "campaign runner: sampled runs/sec by worker count");
    let ctx = CampaignContext::new("t-res:3:1", false).expect("campaign context builds");
    let runs = campaign_runs();

    let mut g = c.benchmark_group("campaign");
    for workers in WORKER_COUNTS {
        let id = BenchmarkId::new("sampled_runs", workers);
        let timed = config(workers, (runs / 10).max(1_000), 0xFAC7);
        g.bench_with_input(id, &timed, |b, cfg| {
            b.iter(|| run_campaign_in(&ctx, cfg).expect("timed campaign completes"))
        });

        // One fixed-size campaign per worker count gives the headline
        // throughput number; coverage is worker-count-invariant, so the
        // three reports double as a determinism check.
        let report =
            run_campaign_in(&ctx, &config(workers, runs, 0xFAC7)).expect("campaign completes");
        assert_eq!(report.coverage.runs, runs);
        assert_eq!(report.coverage.violations, 0);
        let rps = report.runs_per_sec();
        println!(
            "campaign throughput: {workers} worker(s), {runs} runs, {:.0} runs/sec",
            rps
        );
        let row = format!("campaign/sampled_runs/{workers}");
        record_result_metric(&row, "runs_per_sec", rps);
        record_result_metric(&row, "workers", workers as f64);
        metric(&format!("runs_per_sec_w{workers}"), rps as u64);
    }
    g.finish();
    metric("campaign_runs", runs);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
