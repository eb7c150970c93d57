//! Replicated serving performance: wire-path throughput and tail
//! latency of a fact-serve cluster at 1, 2, and 4 peers.
//!
//! Each phase stands up an in-process cluster over real TCP sockets
//! (`spawn_server` per peer, every peer configured with the full
//! membership list), then drives it through the resilient
//! `ClusterClient` — so the measured path includes placement,
//! non-owner forwarding, and write-through replication, exactly what a
//! production client pays. Per peer count the bench reports cold
//! (engine + replication) and warm (store hit over the wire)
//! queries/second with p50/p99 latency as `peers{N}_*` metrics in
//! `BENCH_perf_cluster.json`.

use std::net::TcpListener;
use std::time::Instant;

use act_bench::{banner, metric};
use act_service::{spawn_server, ClusterClient, ClusterConfig, ServeOptions, ServerHandle};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// The wire portfolio: the same small `n = 3` instances `perf_serve`
/// uses, issued as protocol requests instead of scheduler submits.
const PORTFOLIO: &[(&str, usize)] = &[
    ("t-res:3:1", 1),
    ("t-res:3:1", 2),
    ("t-res:3:2", 2),
    ("k-of:3:1", 1),
    ("k-of:3:2", 2),
    ("wait-free:3", 2),
];

struct TestCluster {
    handles: Vec<ServerHandle>,
    client: ClusterClient,
}

fn start_cluster(peers: usize) -> TestCluster {
    let listeners: Vec<TcpListener> = (0..peers)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind bench listener"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("listener addr").to_string())
        .collect();
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let options = ServeOptions {
                cluster: (peers > 1).then(|| ClusterConfig::new(addrs.clone(), i)),
                ..ServeOptions::default()
            };
            spawn_server(&options, listener).expect("spawn bench peer")
        })
        .collect();
    TestCluster {
        handles,
        client: ClusterClient::new(addrs, 0xBE7C),
    }
}

impl TestCluster {
    fn stop(self) {
        for h in self.handles {
            h.stop();
        }
    }
}

/// One wire solve, returning its latency in nanoseconds.
fn solve_one(client: &ClusterClient, model: &str, k: usize) -> u64 {
    let start = Instant::now();
    let resp = client
        .solve(model, k, 1, false, Some(60_000))
        .expect("bench solve answered");
    assert!(resp.ok, "bench solve must succeed: {:?}", resp.error);
    start.elapsed().as_nanos() as u64
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn report_phase(phase: &str, mut latencies: Vec<u64>, total_ns: u64) {
    latencies.sort_unstable();
    let qps = latencies.len() as f64 * 1e9 / total_ns.max(1) as f64;
    metric(&format!("{phase}_qps"), qps as u64);
    metric(&format!("{phase}_p50_ns"), percentile(&latencies, 0.50));
    metric(&format!("{phase}_p99_ns"), percentile(&latencies, 0.99));
    println!(
        "{phase}: {} requests in {:.3} ms — {:.0} qps, p50 {} ns, p99 {} ns",
        latencies.len(),
        total_ns as f64 / 1e6,
        qps,
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
    );
}

fn print_experiment_data() {
    banner("P8", "replicated serving: wire qps/p99 at 1/2/4 peers");
    let rounds = criterion::sample_count(10);
    for peers in [1usize, 2, 4] {
        let cluster = start_cluster(peers);

        // Cold: every solve runs the engine and (for peers > 1)
        // write-through replicates before the reply.
        let mut cold = Vec::new();
        let cold_start = Instant::now();
        for &(model, k) in PORTFOLIO {
            cold.push(solve_one(&cluster.client, model, k));
        }
        let cold_total = cold_start.elapsed().as_nanos() as u64;
        report_phase(&format!("peers{peers}_cold"), cold, cold_total);

        // Warm: the same portfolio over and over — every request is a
        // store hit on whichever peer answers (owner or forwarded).
        let mut warm = Vec::new();
        let warm_start = Instant::now();
        for _ in 0..rounds {
            for &(model, k) in PORTFOLIO {
                warm.push(solve_one(&cluster.client, model, k));
            }
        }
        let warm_total = warm_start.elapsed().as_nanos() as u64;
        report_phase(&format!("peers{peers}"), warm, warm_total);

        cluster.stop();
    }
}

fn bench(c: &mut Criterion) {
    print_experiment_data();

    // Timed slice: the full warm wire round-trip (client → TCP →
    // forward/answer → reply) on a 2-peer cluster.
    let cluster = start_cluster(2);
    solve_one(&cluster.client, "t-res:3:1", 2);
    let mut g = c.benchmark_group("p8_cluster_wire");
    g.bench_with_input(BenchmarkId::new("warm_solve", "2peers"), &(), |b, ()| {
        b.iter(|| solve_one(&cluster.client, "t-res:3:1", 2))
    });
    g.bench_with_input(BenchmarkId::new("stats", "2peers"), &(), |b, ()| {
        b.iter(|| cluster.client.stats().expect("stats answered"))
    });
    g.finish();
    cluster.stop();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
