//! `serve-hot`: open-loop, Zipf-skewed reads against a 3-peer cluster
//! restarted over stores warmed in set-up.
//!
//! Every solve is a store hit, so the client, server, cluster and
//! store-read layers do all the work and the engine none. Arrivals are
//! seeded (Poisson) and follow a geometric rate ladder of 100·2^i req/s,
//! stopping at the first rung that misses the SLO (p99 ≤ 10 ms, no
//! failed request, generator lateness not growing). Each request is
//! timed from its due time. The traced run replays the 200 req/s
//! reference rung with and without client spans and times each serving
//! stage through its public function.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use act_fpc::{FpcSpec, FpcStats};
use act_service::protocol::parse_request;
use act_service::{
    ClusterClient, FpcCache, PeerRing, Response, SolveQuery, StoreKey, Submitted, VerdictStore,
    REPLICATION_FACTOR,
};
use fact::{ModelSpec, TaskSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::solve_sweep::{self, Query};
use crate::trace::Tracer;
use crate::util::{self, Cluster, Scratch};
use crate::{Ctx, Outcome};

/// Sender threads (and so client connections in flight).
const SENDERS: usize = 2;
/// The reference rung, where latency is reported.
const REFERENCE_RATE: f64 = 200.0;
/// SLO on each rung's p99, in ms.
const SLO_P99_MS: f64 = 10.0;
/// A rung's backlog counts as growing when the median lateness of its
/// last quarter exceeds that of its first quarter by more than this.
const LATENESS_GROWTH_MS: f64 = 2.0;
/// Zipf exponent of the key popularity.
const ZIPF_S: f64 = 1.1;
/// Request mix: shares of `stats`, cached `fpc` and proof-carrying solves.
const STATS_SHARE: f64 = 0.01;
const FPC_SHARE: f64 = 0.05;
const PROOF_SHARE: f64 = 0.10;
/// Requests per SLO window.
const WINDOW: usize = 200;
/// Tail percentile reported at the reference rung. p99 is printed too,
/// but on a small shared host a single multi-millisecond scheduling
/// stall moves it by half; p95 (60 samples beyond it) holds.
const TAIL_P: f64 = 95.0;
/// Top of the rate ladder.
const MAX_RATE: f64 = 3_200.0;
/// Per-request client deadline.
const DEADLINE_MS: u64 = 5_000;
/// Set-ups per untraced run (the median is `setup_s`).
const SETUP_REPEATS: usize = 3;
/// FPC summaries warmed on every peer.
const FPC_KEYS: usize = 4;
const FPC_SPEC: &str = "fpc:16:4:berserk";
const FPC_RUNS: u64 = 200;

/// One warmed key and the verdict its warm-up answer carried.
struct Key {
    query: Query,
    hash: u128,
    verdict: (String, u64, u64),
}

struct FpcKey {
    seed: u64,
    stats: FpcStats,
}

fn fpc_line(seed: u64) -> String {
    format!(
        "{{\"op\":\"fpc\",\"id\":1,\"spec\":\"{FPC_SPEC}\",\"runs\":{FPC_RUNS},\"seed\":{seed}}}"
    )
}

struct Warm {
    keys: Vec<Key>,
    fpc: Vec<FpcKey>,
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Solve { key: usize, proof: bool },
    Fpc(usize),
    Stats,
}

struct Arrival {
    due: Duration,
    op: Op,
}

#[derive(Clone, Debug, Default)]
struct Sample {
    /// Due → reply, in ms (a stall delays every later request).
    latency_ms: f64,
    /// Due → send, in ms.
    late_ms: f64,
    ok: bool,
    solve: bool,
    forwarded: bool,
    proof: bool,
}

fn store_key(q: &Query) -> StoreKey {
    let model = ModelSpec::parse(&q.model, false).expect("pool spec parses");
    let task = TaskSpec::set_consensus(model.num_processes(), q.k).expect("pool task is valid");
    StoreKey::new(&model, &task, q.iters)
}

/// The warm-up's record of what it answered, tab-separated: one line per
/// key (`key`, k, ℓ, verdict, iterations, witness length, model) and
/// per FPC summary (`fpc`, seed, fingerprint).
const WARM_FILE: &str = "warm.txt";

fn peer_dirs(dir: &Path) -> Vec<PathBuf> {
    (0..util::PEERS)
        .map(|i| dir.join(format!("peer{i}")))
        .collect()
}

/// The warm-up, run in a process of its own (`--warm-up <dir>`) so that
/// the measured process's peak RSS holds none of its engine work: a cold
/// cluster over `<dir>/peer*` answers every key once and computes the
/// FPC summaries on every peer, and [`WARM_FILE`] records each answer.
pub fn warm_up(ctx: &Ctx, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let dirs = peer_dirs(dir);
    for d in &dirs {
        if let Err(e) = std::fs::create_dir_all(d) {
            out.fail(format!("create {}: {e}", d.display()));
            return out;
        }
    }
    let queries = solve_sweep::n3_keys(ctx.seed);
    let cluster = Cluster::spawn(&dirs);
    let silent = Tracer::new(false);
    let (answers, _) = solve_sweep::wire_sweep(&cluster, &queries, ctx.seed, &silent);
    let mut record = String::new();
    let mut digest_text = String::new();
    for (q, a) in queries.iter().zip(answers) {
        match a.verdict {
            Some(verdict) => {
                digest_text.push_str(&format!("{}|{}|{}={verdict:?}\n", q.model, q.k, q.iters));
                record.push_str(&format!(
                    "key\t{}\t{}\t{}\t{}\t{}\t{}\n",
                    q.k, q.iters, verdict.0, verdict.1, verdict.2, q.model
                ));
            }
            None => out.fail(format!("{} k={}: {:?}", q.model, q.k, a.error)),
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed ^ 0xF9C);
    for _ in 0..FPC_KEYS {
        let seed = rng.gen_range(1..=1_000_000u64);
        let mut stats: Option<FpcStats> = None;
        for addr in &cluster.addrs {
            let client = ClusterClient::new(vec![addr.clone()], seed);
            match client.request(&fpc_line(seed), Some(60_000)) {
                Ok(r) if r.ok && r.fpc.is_some() => {
                    let got = r.fpc.expect("checked");
                    if stats.as_ref().is_some_and(|s| *s != got) {
                        out.fail(format!("fpc seed {seed}: peers disagree"));
                    }
                    stats = Some(got);
                }
                other => out.fail(format!("fpc seed {seed}: {other:?}")),
            }
        }
        if let Some(stats) = stats {
            digest_text.push_str(&format!("fpc {seed} {}\n", stats.fingerprint));
            record.push_str(&format!("fpc\t{seed}\t{}\n", stats.fingerprint));
        }
    }
    if let Err(e) = util::check_stable_digest(
        &ctx.out,
        &format!("serve-hot-seed{}", ctx.seed),
        &util::digest(&digest_text),
    ) {
        out.fail(e);
    }
    cluster.stop();
    let path = dir.join(WARM_FILE);
    if let Err(e) = std::fs::write(&path, record) {
        out.fail(format!("write {}: {e}", path.display()));
    }
    out
}

/// Set-up: [`warm_up`] in a child process, then a cluster started over
/// the stores it left, so each key's first touch reads the disk tier.
/// The FPC summaries the checks expect are read from peer 0's summary
/// cache and must carry the fingerprints the warm-up recorded.
fn set_up(ctx: &Ctx, out: &mut Outcome, scratch: &Scratch) -> Option<(Cluster, Warm)> {
    let dir = scratch.fresh("warm");
    let child = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--workload", "serve-hot", "--seed", &ctx.seed.to_string()])
            .args(["--seconds", &ctx.seconds.to_string()])
            .arg("--out")
            .arg(&ctx.out)
            .arg("--spec")
            .arg(&ctx.spec)
            .arg("--warm-up")
            .arg(&dir)
            .stdin(Stdio::null())
            .output()
    });
    match child {
        Ok(o) if o.status.success() => {}
        Ok(o) => {
            out.fail(format!(
                "warm-up process {}: {}",
                o.status,
                String::from_utf8_lossy(&o.stderr).trim()
            ));
            return None;
        }
        Err(e) => {
            out.fail(format!("start the warm-up process: {e}"));
            return None;
        }
    }
    let text = match std::fs::read_to_string(dir.join(WARM_FILE)) {
        Ok(text) => text,
        Err(e) => {
            out.fail(format!("read the warm-up record: {e}"));
            return None;
        }
    };
    let dirs = peer_dirs(&dir);
    let cache = match FpcCache::open(&dirs[0]) {
        Ok(cache) => cache,
        Err(e) => {
            out.fail(format!("open peer 0's fpc cache: {e}"));
            return None;
        }
    };
    let fpc_spec = FpcSpec::parse(FPC_SPEC).expect("fpc spec parses");
    let mut keys = Vec::new();
    let mut fpc = Vec::new();
    for line in text.lines() {
        match line.split('\t').collect::<Vec<_>>().as_slice() {
            ["key", k, iters, verdict, iterations, witness, model] => {
                let (Ok(k), Ok(iters), Ok(iterations), Ok(witness)) = (
                    k.parse::<usize>(),
                    iters.parse::<usize>(),
                    iterations.parse::<u64>(),
                    witness.parse::<u64>(),
                ) else {
                    out.fail(format!("warm-up record: bad line {line:?}"));
                    return None;
                };
                let query = Query {
                    model: model.to_string(),
                    k,
                    iters,
                };
                keys.push(Key {
                    hash: store_key(&query).content_hash(),
                    query,
                    verdict: (verdict.to_string(), iterations, witness),
                });
            }
            ["fpc", seed, fingerprint] => {
                let Ok(seed) = seed.parse::<u64>() else {
                    out.fail(format!("warm-up record: bad line {line:?}"));
                    return None;
                };
                match cache.get(&fpc_spec, FPC_RUNS, seed) {
                    Some(stats) if stats.fingerprint == *fingerprint => {
                        fpc.push(FpcKey { seed, stats })
                    }
                    other => {
                        out.fail(format!(
                            "fpc seed {seed}: stored summary {:?}, warm-up answered {fingerprint}",
                            other.map(|s| s.fingerprint)
                        ));
                        return None;
                    }
                }
            }
            _ => {
                out.fail(format!("warm-up record: bad line {line:?}"));
                return None;
            }
        }
    }
    Some((Cluster::spawn(&dirs), Warm { keys, fpc }))
}

/// Seeded Zipf sampler over the keys. Ranks cycle through the three
/// placement classes (which peer is *not* an owner), so the share of
/// traffic a contacted peer must forward does not hinge on where the
/// few hottest keys happen to land; within a class the seed orders keys.
struct Zipf {
    cumulative: Vec<f64>,
    rank_to_key: Vec<usize>,
}

impl Zipf {
    fn new(keys: &[Key], rng: &mut ChaCha8Rng) -> Zipf {
        let ring = PeerRing::new(util::PEERS);
        let mut classes: Vec<Vec<usize>> = vec![Vec::new(); util::PEERS];
        for (i, key) in keys.iter().enumerate() {
            let owners = ring.owners(key.hash, REPLICATION_FACTOR);
            let outsider = (0..util::PEERS).find(|p| !owners.contains(p)).unwrap_or(0);
            classes[outsider].push(i);
        }
        for class in &mut classes {
            util::shuffle(class, rng);
            class.reverse();
        }
        let mut rank_to_key = Vec::with_capacity(keys.len());
        let mut class = 0;
        while rank_to_key.len() < keys.len() {
            if let Some(k) = classes[class % util::PEERS].pop() {
                rank_to_key.push(k);
            } else if let Some(k) = classes.iter_mut().find_map(|c| c.pop()) {
                rank_to_key.push(k);
            }
            class += 1;
        }
        let mut total = 0.0;
        let cumulative = (1..=keys.len())
            .map(|r| {
                total += 1.0 / (r as f64).powf(ZIPF_S);
                total
            })
            .collect();
        Zipf {
            cumulative,
            rank_to_key,
        }
    }

    fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let x = util::unit(rng) * self.cumulative.last().copied().unwrap_or(1.0);
        let rank = self
            .cumulative
            .partition_point(|&c| c < x)
            .min(self.cumulative.len() - 1);
        self.rank_to_key[rank]
    }
}

/// `count` seeded Poisson arrivals at `rate` req/s.
fn arrivals(
    rng: &mut ChaCha8Rng,
    zipf: &Zipf,
    warm: &Warm,
    rate: f64,
    count: usize,
) -> Vec<Arrival> {
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            t += -(1.0 - util::unit(rng)).ln() / rate;
            let draw = util::unit(rng);
            let op = if draw < STATS_SHARE {
                Op::Stats
            } else if draw < STATS_SHARE + FPC_SHARE && !warm.fpc.is_empty() {
                Op::Fpc(rng.gen_range(0..warm.fpc.len()))
            } else {
                Op::Solve {
                    key: zipf.sample(rng),
                    proof: util::unit(rng) < PROOF_SHARE,
                }
            };
            Arrival {
                due: Duration::from_secs_f64(t),
                op,
            }
        })
        .collect()
}

/// Checks one reply against the warm-up record; `Err` says why not.
fn check_reply(
    warm: &Warm,
    op: Op,
    reply: &Response,
    verify_us: &mut Option<f64>,
) -> Result<(), String> {
    if !reply.ok {
        return Err(format!(
            "error reply: {:?} (code {:?})",
            reply.error, reply.code
        ));
    }
    match op {
        Op::Solve { key, proof } => {
            let k = &warm.keys[key];
            let got = (
                reply.verdict.clone().unwrap_or_default(),
                reply.iterations.unwrap_or(0),
                reply.witness_len.unwrap_or(0),
            );
            if got != k.verdict || reply.source.as_deref() != Some("store") {
                return Err(format!(
                    "{} k={} iters={}: got {got:?} from {:?}, warm-up recorded {:?}",
                    k.query.model, k.query.k, k.query.iters, reply.source, k.verdict
                ));
            }
            if proof {
                let t0 = Instant::now();
                let verified = reply.verified_proof();
                *verify_us = Some(t0.elapsed().as_secs_f64() * 1e6);
                match verified {
                    Some(p) if p.entry_hash == k.hash => {}
                    Some(_) => {
                        return Err(format!("{}: proof is for another entry", k.query.model))
                    }
                    None => return Err(format!("{}: proof does not verify", k.query.model)),
                }
            }
            Ok(())
        }
        Op::Fpc(i) => match &reply.fpc {
            Some(stats)
                if *stats == warm.fpc[i].stats && reply.source.as_deref() == Some("store") =>
            {
                Ok(())
            }
            other => Err(format!(
                "fpc seed {}: got {other:?} from {:?}",
                warm.fpc[i].seed, reply.source
            )),
        },
        Op::Stats => Ok(()),
    }
}

/// Drives one rung: [`SENDERS`] threads take arrivals in order, wait
/// for each one's due time, and send it.
fn run_rung(
    cluster: &Cluster,
    warm: &Warm,
    schedule: &[Arrival],
    seed: u64,
    tracer: &Tracer,
    out: &Mutex<Vec<String>>,
    verify_us: &Mutex<Vec<f64>>,
) -> Vec<Sample> {
    let ring = PeerRing::new(cluster.addrs.len());
    let cursor = AtomicUsize::new(0);
    let samples = Mutex::new(vec![Sample::default(); schedule.len()]);
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for s in 0..SENDERS {
            let client = ClusterClient::new(cluster.peers_from(s), seed ^ (0xC1 + s as u64));
            let (cursor, samples, ring) = (&cursor, &samples, &ring);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(arrival) = schedule.get(i) else {
                    break;
                };
                let due = start + arrival.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let span = tracer.open("request.wire", None, i as u64);
                let reply = match arrival.op {
                    Op::Solve { key, proof } => {
                        let q = &warm.keys[key].query;
                        client.solve(&q.model, q.k, q.iters, proof, Some(DEADLINE_MS))
                    }
                    Op::Fpc(f) => client.request(&fpc_line(warm.fpc[f].seed), Some(DEADLINE_MS)),
                    Op::Stats => client.stats(),
                };
                tracer.close(span);
                let done = Instant::now();
                let mut verify = None;
                let checked = match &reply {
                    Ok(r) => check_reply(warm, arrival.op, r, &mut verify),
                    Err(e) => Err(e.to_string()),
                };
                if let Some(v) = verify {
                    verify_us.lock().expect("verify lock").push(v);
                }
                if let Err(e) = &checked {
                    out.lock().expect("error lock").push(e.clone());
                }
                let (solve, forwarded, proof) = match arrival.op {
                    Op::Solve { key, proof } => (
                        true,
                        !ring
                            .owners(warm.keys[key].hash, REPLICATION_FACTOR)
                            .contains(&s),
                        proof,
                    ),
                    _ => (false, false, false),
                };
                samples.lock().expect("sample lock")[i] = Sample {
                    latency_ms: (done - due).as_secs_f64() * 1e3,
                    late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                    ok: checked.is_ok(),
                    solve,
                    forwarded,
                    proof,
                };
            });
        }
    });
    samples.into_inner().expect("sample lock")
}

/// Whether a rung met the SLO: every request answered correctly, the
/// median [`WINDOW`]-request window's p99 at most [`SLO_P99_MS`] (so one
/// host scheduling stall does not sink a whole rung), and no growing
/// backlog. Also returns the rung's plain p99 and the lateness growth.
fn rung_passes(samples: &[Sample]) -> (bool, f64, f64) {
    let lat = util::sorted(samples.iter().map(|s| s.latency_ms).collect());
    let p99 = util::percentile(&lat, 99.0);
    let q = samples.len() / 4;
    let first = util::median(&samples[..q].iter().map(|s| s.late_ms).collect::<Vec<_>>());
    let last = util::median(
        &samples[samples.len() - q..]
            .iter()
            .map(|s| s.late_ms)
            .collect::<Vec<_>>(),
    );
    let growth = last - first;
    let pass = samples.iter().all(|s| s.ok)
        && windowed_p99(samples) <= SLO_P99_MS
        && growth <= LATENESS_GROWTH_MS;
    (pass, p99, growth)
}

/// Requests per rung: the reference rung gets at least 1000 (for a p99
/// with ten samples beyond it); the ladder to 800 req/s and the peak
/// phase take about `seconds` with set-up.
fn rung_count(rate: f64, seconds: f64) -> usize {
    let scale = seconds / 15.0;
    if rate == REFERENCE_RATE {
        ((1200.0 * scale) as usize).max(1000)
    } else if rate < REFERENCE_RATE {
        ((150.0 * scale) as usize).max(50)
    } else if rate == 2.0 * REFERENCE_RATE {
        // The rung next to the SLO edge: enough requests for a steady p99.
        ((1600.0 * scale) as usize).max(400)
    } else {
        ((1000.0 * scale) as usize).max(200)
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let scratch = Scratch::new(&ctx.out, "serve-hot");
    // The untraced run sets up several times (the median is `setup_s`)
    // and serves from the last cluster.
    let repeats = if ctx.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut up: Option<(Cluster, Warm)> = None;
    for _ in 0..repeats {
        if let Some((cluster, _)) = up.take() {
            cluster.stop();
        }
        let t0 = Instant::now();
        up = set_up(ctx, &mut out, &scratch);
        if up.is_none() {
            return out;
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (cluster, warm) = up.expect("at least one set-up");
    let setup_s = util::median(&setups);
    out.note(format!(
        "warmed {} solve keys and {} fpc summaries in a child process; restarted the cluster ({} set-ups: {:?} s)",
        warm.keys.len(),
        warm.fpc.len(),
        setups.len(),
        setups
    ));
    if warm.keys.is_empty() {
        out.fail("no key warmed".into());
        cluster.stop();
        return out;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed ^ 0x2195);
    let zipf = Zipf::new(&warm.keys, &mut rng);
    let engine_before = act_service::SERVE_ENGINE_RUNS.get();
    let fpc_miss_before = act_service::SERVE_FPC_MISSES.get();
    let retries_before = act_service::SERVE_CLIENT_RETRIES.get();
    let errors = Mutex::new(Vec::new());
    let verify_us = Mutex::new(Vec::new());
    let silent = Tracer::new(false);

    if ctx.trace {
        traced(
            ctx, &mut out, &cluster, &warm, &zipf, &mut rng, &errors, &verify_us,
        );
    } else {
        out.metric("setup_s", setup_s);
        let mut rate = 100.0;
        let mut max_rate_in_slo: Option<f64> = None;
        let mut all_passed = true;
        loop {
            let schedule = arrivals(
                &mut rung_rng(ctx.seed, rate),
                &zipf,
                &warm,
                rate,
                rung_count(rate, ctx.seconds),
            );
            let samples = run_rung(
                &cluster, &warm, &schedule, ctx.seed, &silent, &errors, &verify_us,
            );
            out.attempted += samples.len() as u64;
            out.failed += samples.iter().filter(|s| !s.ok).count() as u64;
            let (pass, p99, growth) = rung_passes(&samples);
            let achieved = samples.len() as f64 / samples_span_s(&schedule, &samples);
            let lat = util::sorted(samples.iter().map(|s| s.latency_ms).collect());
            out.note(format!(
                "rung {rate:>5.0} req/s: {} requests, achieved {achieved:.1} req/s, p50 {:.3} p95 {:.3} p99 {p99:.3} max {:.3} ms, window p99 {:.3} ms, lateness growth {growth:.3} ms -> {}",
                samples.len(),
                util::percentile(&lat, 50.0),
                util::percentile(&lat, 95.0),
                lat.last().copied().unwrap_or(0.0),
                windowed_p99(&samples),
                if pass { "in SLO" } else { "misses SLO" }
            ));
            if rate == REFERENCE_RATE {
                out.metric("latency_p50_ms", util::percentile(&lat, 50.0));
                out.metric("latency_tail_ms", util::percentile(&lat, TAIL_P));
                out.note(format!(
                    "reference rung: p50 {:.3} ms, p{TAIL_P} {:.3} ms, p99 {p99:.3} ms over {} requests",
                    util::percentile(&lat, 50.0),
                    util::percentile(&lat, TAIL_P),
                    lat.len()
                ));
            }
            // The highest rung with every rung up to it in SLO.
            all_passed &= pass;
            if all_passed {
                max_rate_in_slo = Some(rate);
            }
            // The ladder stops at the first rung that misses the SLO, but
            // always reaches the reference rung.
            if (!pass && rate >= REFERENCE_RATE) || rate >= MAX_RATE {
                break;
            }
            rate *= 2.0;
        }
        out.note(format!(
            "max_rate_in_slo: {} req/s (p99 <= {SLO_P99_MS} ms per {WINDOW}-request window, median window)",
            max_rate_in_slo.map_or("none".to_string(), |r| format!("{r:.0}"))
        ));
        // Peak throughput: the same mix sent back to back on the senders'
        // connections (a closed loop), which the rate ladder brackets.
        let schedule = arrivals(
            &mut rung_rng(ctx.seed, f64::INFINITY),
            &zipf,
            &warm,
            f64::INFINITY,
            peak_count(ctx.seconds),
        );
        let t = Instant::now();
        let samples = run_rung(
            &cluster, &warm, &schedule, ctx.seed, &silent, &errors, &verify_us,
        );
        let wall = t.elapsed().as_secs_f64();
        out.attempted += samples.len() as u64;
        out.failed += samples.iter().filter(|s| !s.ok).count() as u64;
        out.metric("throughput_per_s", samples.len() as f64 / wall);
        out.note(format!(
            "peak: {} requests back to back in {wall:.3} s ({:.1} req/s)",
            samples.len(),
            samples.len() as f64 / wall
        ));
    }

    let engine_runs = act_service::SERVE_ENGINE_RUNS.get() - engine_before;
    let fpc_misses = act_service::SERVE_FPC_MISSES.get() - fpc_miss_before;
    if engine_runs != 0 || fpc_misses != 0 {
        out.fail(format!("traffic ran the engine {engine_runs} time(s) and simulated {fpc_misses} fpc batch(es); every op must be a store hit"));
    }
    if ctx.trace {
        out.metric("scheduler.engine_runs", engine_runs as f64);
        out.metric(
            "client.retries",
            (act_service::SERVE_CLIENT_RETRIES.get() - retries_before) as f64,
        );
    }
    let errors = errors.into_inner().expect("error lock");
    for e in errors.iter().take(10) {
        out.fail(e.clone());
    }
    if errors.len() > 10 {
        out.fail(format!(
            "... and {} more failed request(s)",
            errors.len() - 10
        ));
    }
    cluster.stop();
    out
}

/// Median over consecutive windows of [`WINDOW`] requests of each
/// window's p99 (one window when the rung is shorter).
fn windowed_p99(samples: &[Sample]) -> f64 {
    let window = WINDOW.min(samples.len()).max(1);
    let per: Vec<f64> = samples
        .chunks(window)
        .filter(|w| w.len() == window)
        .map(|w| {
            util::percentile(
                &util::sorted(w.iter().map(|s| s.latency_ms).collect()),
                99.0,
            )
        })
        .collect();
    util::median(&per)
}

/// Each rung's arrivals are a function of the seed and the rate alone.
fn rung_rng(seed: u64, rate: f64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ rate.to_bits().rotate_left(17))
}

/// Requests in the closed-loop peak phase (about two seconds on a
/// 2-core host).
fn peak_count(seconds: f64) -> usize {
    ((1500.0 * seconds / 15.0) as usize).max(300)
}

/// Wall time from the first due time to the last reply.
fn samples_span_s(schedule: &[Arrival], samples: &[Sample]) -> f64 {
    let end = schedule
        .iter()
        .zip(samples)
        .map(|(a, s)| a.due.as_secs_f64() + s.latency_ms / 1e3)
        .fold(0.0, f64::max);
    let begin = schedule.first().map_or(0.0, |a| a.due.as_secs_f64());
    (end - begin).max(1e-9)
}

/// The traced run: the reference rung without and with client spans
/// (tracing overhead), the per-stage timings from it, then each serving
/// stage timed through its public function.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    cluster: &Cluster,
    warm: &Warm,
    zipf: &Zipf,
    rng: &mut ChaCha8Rng,
    errors: &Mutex<Vec<String>>,
    verify_us: &Mutex<Vec<f64>>,
) {
    let count = rung_count(REFERENCE_RATE, ctx.seconds);
    let schedule = arrivals(
        &mut rung_rng(ctx.seed, REFERENCE_RATE),
        zipf,
        warm,
        REFERENCE_RATE,
        count,
    );
    let silent = Tracer::new(false);
    let untraced = run_rung(
        cluster, warm, &schedule, ctx.seed, &silent, errors, verify_us,
    );
    let tracer = Tracer::new(true);
    let samples = run_rung(
        cluster, warm, &schedule, ctx.seed, &tracer, errors, verify_us,
    );
    out.attempted += (untraced.len() + samples.len()) as u64;
    out.failed += untraced.iter().chain(&samples).filter(|s| !s.ok).count() as u64;
    let p50 = |v: &[Sample]| util::median(&v.iter().map(|s| s.latency_ms).collect::<Vec<_>>());
    out.metric("trace_overhead_share", p50(&samples) / p50(&untraced) - 1.0);
    let _ = tracer.write_jsonl(&ctx.spans_path("wire"));

    let late = util::sorted(samples.iter().map(|s| s.late_ms).collect());
    out.metric("loadgen.late_p99_ms", util::percentile(&late, 99.0));
    let solves: Vec<&Sample> = samples.iter().filter(|s| s.solve).collect();
    let forwarded: Vec<f64> = solves
        .iter()
        .filter(|s| s.forwarded)
        .map(|s| s.latency_ms - s.late_ms)
        .collect();
    let owned: Vec<f64> = solves
        .iter()
        .filter(|s| !s.forwarded)
        .map(|s| s.latency_ms - s.late_ms)
        .collect();
    out.metric(
        "cluster.forward_share",
        forwarded.len() as f64 / solves.len().max(1) as f64,
    );
    let forward_extra_us = (util::median(&forwarded) - util::median(&owned)) * 1e3;
    out.metric("cluster.forward_extra_us", forward_extra_us);

    // Wire floor. `stats` on a held-open connection (each request one
    // write, no Nagle delay on this side); on a fresh connection per
    // request as the client sends it, at seeded random gaps so requests
    // meet the accept loop at any phase, as open-loop arrivals do; and a
    // loopback echo between two of this process's own threads. The fresh
    // round trip less the loopback one is the accept path's wait.
    let peer0 = &cluster.addrs[0];
    let open_rtt = util::median(&held_open_rtt_us(peer0, 50));
    let client = ClusterClient::new(vec![peer0.clone()], ctx.seed);
    let fresh: Vec<f64> = (0..300)
        .map(|_| {
            std::thread::sleep(Duration::from_micros(rng.gen_range(0..4_000u64)));
            let t = Instant::now();
            let r = client.stats();
            if !matches!(&r, Ok(x) if x.ok) {
                errors
                    .lock()
                    .expect("error lock")
                    .push(format!("fresh stats: {r:?}"));
            }
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let fresh_p50 = util::median(&fresh);
    let fresh_mean = mean(&fresh);
    let loopback = loopback_echo_rtt_us(200);
    let loopback_p50 = util::median(&loopback);
    out.metric("server.open_conn_rtt_us", open_rtt);
    out.metric("server.accept_wait_us", fresh_p50 - loopback_p50);
    out.note(format!(
        "wire: stats p50 {fresh_p50:.1} us fresh, {open_rtt:.1} us held open, loopback echo {loopback_p50:.1} us"
    ));

    // Stage costs through the public functions, over the rung's ops.
    let lines: Vec<String> = schedule.iter().map(|a| request_line(warm, a.op)).collect();
    let parse: Vec<f64> = lines
        .iter()
        .map(|l| time_us(|| parse_request(l).is_ok()))
        .collect();
    out.metric("server.parse_us", util::median(&parse));
    let replies: Vec<Response> = solves_of(&schedule)
        .map(|k| {
            let v = &warm.keys[k].verdict;
            Response::solve(1, &v.0, v.1, v.2, "store", true)
        })
        .collect();
    let encode: Vec<f64> = replies
        .iter()
        .map(|r| time_us(|| r.encode().len()))
        .collect();
    out.metric("server.encode_us", util::median(&encode));

    // Scheduler and store tiers on the owning peer of each key.
    let ring = PeerRing::new(cluster.addrs.len());
    let mut submit = Vec::new();
    let mut get_mem = Vec::new();
    let mut proof = Vec::new();
    for k in solves_of(&schedule) {
        let key = &warm.keys[k];
        let owner = ring.owners(key.hash, REPLICATION_FACTOR)[0];
        let scheduler = cluster.handles[owner].scheduler();
        let query = solve_query(&key.query);
        let t = Instant::now();
        let submitted = scheduler.submit(query);
        submit.push(t.elapsed().as_secs_f64() * 1e6);
        if !matches!(submitted, Submitted::Ready(_)) {
            errors
                .lock()
                .expect("error lock")
                .push(format!("{}: submit was not a store hit", key.query.model));
        }
        let sk = store_key(&key.query);
        get_mem.push(time_us(|| scheduler.store().get(&sk).is_some()));
        proof.push(time_us(|| scheduler.store().inclusion_proof(&sk).is_some()));
    }
    out.metric("scheduler.submit_us", util::median(&submit));
    out.metric("store.get_mem_us", util::median(&get_mem));
    out.metric("store.proof_us", util::median(&proof));

    // Disk tier: a freshly opened store over the owner's directory has
    // only its index in memory, so each first get reads the entry file.
    let mut get_disk = Vec::new();
    let mut fpc_get = Vec::new();
    for (p, handle) in cluster.handles.iter().enumerate() {
        let Some(dir) = handle
            .scheduler()
            .store()
            .disk_dir()
            .map(|d| d.to_path_buf())
        else {
            continue;
        };
        let cold = VerdictStore::open(&dir).expect("reopen peer store");
        for key in warm
            .keys
            .iter()
            .filter(|k| ring.owners(k.hash, REPLICATION_FACTOR).contains(&p))
        {
            let sk = store_key(&key.query);
            get_disk.push(time_us(|| cold.get(&sk).is_some()));
        }
        let cache = FpcCache::open(&dir).expect("open peer fpc cache");
        let spec = FpcSpec::parse(FPC_SPEC).expect("fpc spec parses");
        for _ in 0..25 {
            for f in &warm.fpc {
                fpc_get.push(time_us(|| cache.get(&spec, FPC_RUNS, f.seed).is_some()));
            }
        }
    }
    out.metric("store.get_disk_us", util::median(&get_disk));
    out.metric("store.fpc_get_us", util::median(&fpc_get));
    let verify = verify_us.lock().expect("verify lock").clone();
    out.metric("client.proof_verify_us", util::median(&verify));
    let verify_mean = mean(&verify);

    // Stages must add up. No span sees inside the peers, so each
    // request's wire time is rebuilt from the mean cost of each stage,
    // every one measured on its own above, and compared with the
    // measured total (lateness excluded). One hop is the accept wait,
    // the loopback round trip, parse and encode; a forwarded request pays
    // a second hop. `submit` includes its store get; the traced rung
    // follows the untraced one over the same keys, so every get hits the
    // memory tier.
    let loopback_mean = mean(&loopback);
    let accept_wait_mean = fresh_mean - loopback_mean;
    let hop = accept_wait_mean + loopback_mean + mean(&parse) + mean(&encode);
    let get_mem_mean = mean(&get_mem);
    let submit_self = mean(&submit) - get_mem_mean;
    let mut modelled = 0.0;
    let mut measured = 0.0;
    for (s, a) in samples.iter().zip(&schedule) {
        measured += (s.latency_ms - s.late_ms) * 1e3;
        let mut m = hop;
        match a.op {
            Op::Solve { .. } => {
                m += submit_self + get_mem_mean;
                if s.proof {
                    m += mean(&proof) + verify_mean;
                }
                if s.forwarded {
                    m += hop;
                }
            }
            Op::Fpc(_) => m += mean(&fpc_get),
            Op::Stats => {}
        }
        modelled += m;
    }
    out.metric("unaccounted_share", 1.0 - modelled / measured.max(1e-9));
    out.note(format!(
        "reference rung replayed: {} requests, {} solves ({} forwarded)",
        samples.len(),
        solves.len(),
        forwarded.len()
    ));
}

fn solves_of(schedule: &[Arrival]) -> impl Iterator<Item = usize> + '_ {
    schedule.iter().filter_map(|a| match a.op {
        Op::Solve { key, .. } => Some(key),
        _ => None,
    })
}

fn solve_query(q: &Query) -> SolveQuery {
    let model = ModelSpec::parse(&q.model, false).expect("pool spec parses");
    let task = TaskSpec::set_consensus(model.num_processes(), q.k).expect("pool task is valid");
    SolveQuery {
        model,
        task,
        iters: q.iters,
        deadline_ms: Some(DEADLINE_MS),
    }
}

fn request_line(warm: &Warm, op: Op) -> String {
    match op {
        Op::Solve { key, proof } => {
            let mut line = warm.keys[key].query.line(1);
            if proof {
                line.insert_str(line.len() - 1, ",\"proof\":true");
            }
            line
        }
        Op::Fpc(f) => fpc_line(warm.fpc[f].seed),
        Op::Stats => "{\"op\":\"stats\",\"id\":1}".to_string(),
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn time_us<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64() * 1e6
}

/// `count` `stats` round trips on one held-open raw TCP connection.
fn held_open_rtt_us(addr: &str, count: usize) -> Vec<f64> {
    let Ok(stream) = TcpStream::connect(addr) else {
        return Vec::new();
    };
    round_trips_us(stream, count, |id| {
        format!("{{\"op\":\"stats\",\"id\":{id}}}\n")
    })
}

/// `count` round trips through a loopback echo thread: the kernel's TCP
/// round trip with no server work.
fn loopback_echo_rtt_us(count: usize) -> Vec<f64> {
    let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
        return Vec::new();
    };
    let Ok(addr) = listener.local_addr() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let _ = stream.set_nodelay(true);
            let Ok(mut writer) = stream.try_clone() else {
                return;
            };
            let mut line = String::new();
            let mut reader = BufReader::new(stream);
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                if writer.write_all(line.as_bytes()).is_err() {
                    return;
                }
                line.clear();
            }
        });
        match TcpStream::connect(addr) {
            Ok(stream) => round_trips_us(stream, count, |id| format!("echo {id}\n")),
            Err(_) => Vec::new(),
        }
    })
}

/// Sends `count` lines on `stream`, each in one write, reading one reply
/// line per request; returns each round trip in microseconds. Dropping
/// the stream at the end closes the connection.
fn round_trips_us(stream: TcpStream, count: usize, line: impl Fn(usize) -> String) -> Vec<f64> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let Ok(mut writer) = stream.try_clone() else {
        return Vec::new();
    };
    let mut reader = BufReader::new(stream);
    let mut out = Vec::with_capacity(count);
    let mut reply = String::new();
    for id in 0..count {
        let request = line(id);
        let t = Instant::now();
        if writer.write_all(request.as_bytes()).is_err() {
            break;
        }
        reply.clear();
        if reader.read_line(&mut reply).map_or(true, |n| n == 0) {
            break;
        }
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let _ = writer.shutdown(std::net::Shutdown::Both);
    out
}
