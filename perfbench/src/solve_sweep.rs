//! `solve-sweep`: a closed loop of two clients sending a seeded sweep of
//! distinct `(model, k, iters)` solves to a cold 3-peer RF=2 cluster.
//!
//! Every query is a first-time engine run, so the affine, solver and
//! tasks layers do nearly all the work; each answer is also a verdict
//! put, a tower write and write-through replication (the write path).
//! The traced run replays every query in-process in the server's order,
//! with a span around each public call the server makes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use act_adversary::AgreementFunction;
use act_affine::{fair_affine_task, AffineTask};
use act_service::cluster::Cluster as PeerCluster;
use act_service::protocol::{parse_request, RequestBody};
use act_service::{
    ClusterClient, ClusterConfig, Response, ServeConfig, StoreKey, StoredVerdict, TowerStore,
    VerdictStore,
};
use act_tasks::{verify_carried_map, SearchConfig};
use act_topology::{ColorSet, Complex};
use fact::{
    set_consensus_verdict_with_config, DomainCache, ModelSpec, Solvability, TowerPersistence,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::trace::{SpanId, Tracer};
use crate::util::{self, shuffle, Cluster, Scratch};
use crate::{Ctx, Outcome};

/// Wire deadline per solve. The pool holds only instances that answer
/// well inside it; an expiry is a failed op.
const DEADLINE_MS: u64 = 60_000;
/// Cluster set-ups per run (the median is `setup_s`). Each lasts a few
/// milliseconds, so many of them steady the median.
const SETUP_REPEATS: usize = 101;
/// About how long one sweep takes on a 2-core host; `--seconds` buys
/// `seconds / SWEEP_SECONDS` sweeps.
const SWEEP_SECONDS: f64 = 7.5;
/// Tail percentile (p95: the n = 4 searches and ℓ = 2 Sperner
/// certificates set it).
const TAIL_P: f64 = 95.0;
/// Client threads (the closed loop's concurrency).
const CLIENTS: usize = 2;

/// A model family of the pool: one agreement function (up to a color
/// permutation for asymmetric ones) with the `k` and `ℓ` a researcher
/// sweeps over it, in `spellings` distinct spellings per sweep.
struct Family {
    base: &'static str,
    /// Named spellings of the same model besides the custom/alpha forms.
    aliases: &'static [&'static str],
    ks: &'static [usize],
    iters: &'static [usize],
    /// Whether the family is color-asymmetric (the seed permutes it).
    asymmetric: bool,
    spellings: usize,
}

const fn n3(base: &'static str, aliases: &'static [&'static str], asymmetric: bool) -> Family {
    Family {
        base,
        aliases,
        ks: &[1, 2],
        iters: &[1, 2],
        asymmetric,
        spellings: if asymmetric { 6 } else { 4 },
    }
}

const fn n4(base: &'static str, aliases: &'static [&'static str], ks: &'static [usize]) -> Family {
    Family {
        base,
        aliases,
        ks,
        iters: &[1],
        asymmetric: false,
        spellings: 2,
    }
}

/// The candidate pool, `n = 3` families first. Every instance answers
/// authoritatively in about a second or less cold; pathological `n = 4`
/// searches (`k-of:4:3` at `k ≥ 2`, `wait-free:4` at `k = 2`, which run
/// past any useful deadline) are left out.
const FAMILIES: &[Family] = &[
    n3("t-res:3:1", &[], false),
    n3("wait-free:3", &["t-res:3:2", "k-of:3:3"], false),
    n3("k-of:3:1", &[], false),
    n3("k-of:3:2", &[], false),
    n3("custom:3:{p1};{p2,p3}", &[], true),
    n3("fig5b", &[], true),
    n3("custom:3:{p1,p2};{p2,p3}", &[], true),
    n4("t-res:4:1", &[], &[1, 2, 3]),
    n4("t-res:4:2", &[], &[1, 2, 3]),
    n4("k-of:4:1", &[], &[1, 2, 3]),
    n4("k-of:4:2", &[], &[1, 2, 3]),
    n4("wait-free:4", &["t-res:4:3", "k-of:4:4"], &[1, 3]),
];

/// One query of the sweep.
#[derive(Clone, Debug)]
pub struct Query {
    pub model: String,
    pub k: usize,
    pub iters: usize,
}

impl Query {
    /// The request line `ClusterClient::solve` sends for this query.
    pub fn line(&self, id: u64) -> String {
        format!(
            "{{\"op\":\"solve\",\"id\":{id},\"model\":{},\"k\":{},\"iters\":{},\"deadline_ms\":{DEADLINE_MS}}}",
            serde_json::to_string(&self.model).expect("encode model string"),
            self.k,
            self.iters
        )
    }
}

fn permute_set(set: ColorSet, perm: &[usize]) -> ColorSet {
    ColorSet::from_indices(set.iter().map(|p| perm[p.index()]))
}

/// `custom:` spelling of `spec`'s adversary under the color permutation
/// `perm` (`None` for α-only specs).
fn custom_spelling(spec: &ModelSpec, perm: &[usize]) -> Option<String> {
    let adversary = spec.adversary().ok()?;
    let n = spec.num_processes();
    let blocks: Vec<String> = adversary
        .live_sets()
        .filter(|s| !s.is_empty())
        .map(|s| {
            let names: Vec<String> = permute_set(s, perm)
                .iter()
                .map(|p| format!("p{}", p.index() + 1))
                .collect();
            format!("{{{}}}", names.join(","))
        })
        .collect();
    let text = format!("custom:{n}:{}", blocks.join(";"));
    // Round-trip through the parser so the spelling is its canonical one.
    ModelSpec::parse(&text, false)
        .ok()
        .map(|m| m.canonical_string())
}

/// `alpha:` spelling of `spec`'s agreement function under `perm`.
fn alpha_spelling(spec: &ModelSpec, perm: &[usize]) -> String {
    let n = spec.num_processes();
    let alpha = spec.agreement_function();
    let mut table = vec![0u8; 1 << n];
    for bits in 0..(1u64 << n) {
        let set = ColorSet::from_bits(bits);
        table[permute_set(set, perm).bits() as usize] = alpha.alpha(set) as u8;
    }
    AgreementFunction::from_table(n, table.clone()).expect("a permuted α is an α");
    let digits: String = table.iter().map(|d| char::from(b'0' + d)).collect();
    format!("alpha:{n}:{digits}")
}

/// The seeded sweep: per family, its distinct spellings (named aliases,
/// the custom live-set form and the α table, under seeded color
/// permutations for asymmetric families), each swept over the family's
/// `k` and `ℓ`. The `n = 3` families come first, then `n = 4`, each
/// group in seeded order; within a family, queries are grouped by
/// spelling, then `k`, then `ℓ`.
pub fn sweep(seed: u64) -> Vec<Query> {
    build(seed, false)
}

/// Every spelling of every `n = 3` family of the pool, swept over its
/// `k` and `ℓ`: the key set `serve-hot` warms.
pub fn n3_keys(seed: u64) -> Vec<Query> {
    build(seed, true)
}

fn build(seed: u64, every_n3_spelling: bool) -> Vec<Query> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_5EE9);
    let (mut small, mut large): (Vec<&Family>, Vec<&Family>) = FAMILIES.iter().partition(|f| {
        ModelSpec::parse(f.base, false)
            .expect("pool spec parses")
            .num_processes()
            == 3
    });
    shuffle(&mut small, &mut rng);
    shuffle(&mut large, &mut rng);
    let mut queries = Vec::new();
    if every_n3_spelling {
        large.clear();
    }
    for family in small.into_iter().chain(large) {
        let spec = ModelSpec::parse(family.base, false).expect("pool spec parses");
        let n = spec.num_processes();
        let mut candidates: Vec<String> = Vec::new();
        if family.asymmetric {
            let mut perms: Vec<Vec<usize>> = permutations(n);
            shuffle(&mut perms, &mut rng);
            for perm in perms {
                candidates.extend(custom_spelling(&spec, &perm));
                candidates.push(alpha_spelling(&spec, &perm));
            }
        } else {
            let identity: Vec<usize> = (0..n).collect();
            candidates.push(spec.canonical_string());
            candidates.extend(family.aliases.iter().map(|a| a.to_string()));
            candidates.extend(custom_spelling(&spec, &identity));
            candidates.push(alpha_spelling(&spec, &identity));
            shuffle(&mut candidates, &mut rng);
        }
        let mut seen = std::collections::BTreeSet::new();
        let chosen: Vec<String> = candidates
            .into_iter()
            .filter(|c| seen.insert(c.clone()))
            .take(if every_n3_spelling {
                usize::MAX
            } else {
                family.spellings
            })
            .collect();
        for model in chosen {
            for &k in family.ks {
                for &iters in family.iters {
                    queries.push(Query {
                        model: model.clone(),
                        k,
                        iters,
                    });
                }
            }
        }
    }
    queries
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    permute_into(&mut current, 0, &mut out);
    out
}

fn permute_into(v: &mut Vec<usize>, at: usize, out: &mut Vec<Vec<usize>>) {
    if at == v.len() {
        out.push(v.clone());
        return;
    }
    for i in at..v.len() {
        v.swap(at, i);
        permute_into(v, at + 1, out);
        v.swap(at, i);
    }
}

/// What the wire returned for one query.
#[derive(Clone, Debug, Default)]
pub struct Answer {
    pub latency_ms: f64,
    /// `(verdict, iterations, witness_len)` of an authoritative answer.
    pub verdict: Option<(String, u64, u64)>,
    pub error: Option<String>,
    /// Completion order (the server's order, as the replay follows it).
    pub finished: usize,
}

/// Runs the sweep as a closed loop of [`CLIENTS`] clients; returns the
/// answers and the sweep's wall time.
pub fn wire_sweep(
    cluster: &Cluster,
    queries: &[Query],
    seed: u64,
    tracer: &Tracer,
) -> (Vec<Answer>, f64) {
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let answers: Mutex<Vec<Answer>> = Mutex::new(vec![Answer::default(); queries.len()]);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let client = ClusterClient::new(cluster.peers_from(c), seed ^ (c as u64 + 1));
            let (cursor, done, answers) = (&cursor, &done, &answers);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(q) = queries.get(i) else { break };
                let span = tracer.open("request.solve", None, i as u64);
                let t0 = Instant::now();
                let reply = client.solve(&q.model, q.k, q.iters, false, Some(DEADLINE_MS));
                let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                tracer.close(span);
                let mut answer = Answer {
                    latency_ms,
                    finished: done.fetch_add(1, Ordering::Relaxed),
                    ..Answer::default()
                };
                match reply {
                    Ok(r) if r.ok && r.authoritative == Some(true) => {
                        answer.verdict = Some((
                            r.verdict.unwrap_or_default(),
                            r.iterations.unwrap_or(0),
                            r.witness_len.unwrap_or(0),
                        ))
                    }
                    Ok(r) => {
                        answer.error = Some(format!(
                            "non-authoritative reply: verdict {:?}, error {:?}",
                            r.verdict, r.error
                        ))
                    }
                    Err(e) => answer.error = Some(e.to_string()),
                }
                answers.lock().expect("answer lock")[i] = answer;
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    (answers.into_inner().expect("answer lock"), wall)
}

fn verdict_digest(queries: &[Query], answers: &[Answer]) -> String {
    let mut text = String::new();
    for (q, a) in queries.iter().zip(answers) {
        text.push_str(&format!(
            "{}|{}|{}={:?}\n",
            q.model, q.k, q.iters, a.verdict
        ));
    }
    util::digest(&text)
}

/// Cluster set-up: three peers spawned over fresh store directories,
/// timed up to the first `stats` reply from each peer. Making the empty
/// directories is the benchmark's own bookkeeping and is not timed.
fn set_up(scratch: &Scratch, tag: &str) -> Result<(Cluster, f64), String> {
    let dirs = scratch.store_dirs(tag);
    let t0 = Instant::now();
    let cluster = Cluster::spawn(&dirs);
    for addr in cluster.addrs.clone() {
        match ClusterClient::new(vec![addr.clone()], 0).stats() {
            Ok(r) if r.ok => {}
            other => {
                cluster.stop();
                return Err(format!(
                    "set-up: peer {addr} did not answer stats: {other:?}"
                ));
            }
        }
    }
    Ok((cluster, t0.elapsed().as_secs_f64()))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let scratch = Scratch::new(&ctx.out, "solve-sweep");
    let queries = sweep(ctx.seed);
    out.note(format!(
        "sweep: {} distinct solves over {} spellings (seed {})",
        queries.len(),
        queries
            .iter()
            .map(|q| q.model.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        ctx.seed
    ));

    let mut setups = Vec::new();
    for r in 0..SETUP_REPEATS - 1 {
        match set_up(&scratch, &format!("setup{r}")) {
            Ok((cluster, s)) => {
                setups.push(s);
                cluster.stop();
            }
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
    }

    // Cycles: the whole sweep on a fresh cold cluster, as many times as
    // fit the budget (one in a traced run, which sweeps once more).
    let untraced = Tracer::new(false);
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let mut digests = Vec::new();
    let cycles = if ctx.trace {
        1
    } else {
        ((ctx.seconds / SWEEP_SECONDS).round() as usize).max(1)
    };
    let mut last: Option<(Cluster, Vec<Answer>)> = None;
    for cycle in 0..cycles {
        if let Some((cluster, _)) = last.take() {
            cluster.stop();
        }
        let (cluster, s) = match set_up(&scratch, &format!("cycle{cycle}")) {
            Ok(up) => up,
            Err(e) => {
                out.fail(e);
                return out;
            }
        };
        if cycle == 0 {
            setups.push(s);
        }
        let (answers, wall) = wire_sweep(&cluster, &queries, ctx.seed, &untraced);
        let answered = answers.iter().filter(|a| a.verdict.is_some()).count();
        out.attempted += answers.len() as u64;
        out.failed += (answers.len() - answered) as u64;
        for (q, a) in queries.iter().zip(&answers) {
            if let Some(e) = &a.error {
                out.fail(format!("{} k={} iters={}: {e}", q.model, q.k, q.iters));
            }
        }
        rates.push(answered as f64 / wall);
        latencies.extend(answers.iter().map(|a| a.latency_ms));
        digests.push(verdict_digest(&queries, &answers));
        out.note(format!(
            "cycle {cycle}: {answered}/{} answered in {wall:.3} s ({:.2} queries/s)",
            answers.len(),
            answered as f64 / wall
        ));
        if cycle == 0 {
            let mut slowest: Vec<usize> = (0..queries.len()).collect();
            slowest.sort_by(|&a, &b| answers[b].latency_ms.total_cmp(&answers[a].latency_ms));
            for &i in slowest.iter().take(5) {
                let q = &queries[i];
                out.note(format!(
                    "  slow: {} k={} iters={} {:.1} ms",
                    q.model, q.k, q.iters, answers[i].latency_ms
                ));
            }
        }
        last = Some((cluster, answers));
    }
    if digests.iter().any(|d| *d != digests[0]) {
        out.fail(format!(
            "verdict digest differs between sweeps of one run: {digests:?}"
        ));
    }
    if let Err(e) = util::check_stable_digest(
        &ctx.out,
        &format!("solve-sweep-seed{}", ctx.seed),
        &digests[0],
    ) {
        out.fail(e);
    }
    out.note(format!("verdict digest {} (seed {})", digests[0], ctx.seed));

    let lat = util::sorted(latencies);
    let setups = util::sorted(setups);
    out.note(format!(
        "set-up: {} spawns to first replies, p25 {:.3} p50 {:.3} p75 {:.3} ms",
        setups.len(),
        util::percentile(&setups, 25.0) * 1e3,
        util::percentile(&setups, 50.0) * 1e3,
        util::percentile(&setups, 75.0) * 1e3
    ));
    out.metric("setup_s", util::median(&setups));
    out.metric("throughput_per_s", util::median(&rates));
    out.metric("latency_p50_ms", util::percentile(&lat, 50.0));
    out.metric("latency_tail_ms", util::percentile(&lat, TAIL_P));
    out.note(format!(
        "latency: p50 {:.3} ms, p{TAIL_P} {:.3} ms over {} solves; throughput = queries_per_s",
        util::percentile(&lat, 50.0),
        util::percentile(&lat, TAIL_P),
        lat.len()
    ));

    let (cluster, answers) = last.expect("at least one cycle ran");
    if ctx.trace {
        traced(
            ctx,
            &mut out,
            &scratch,
            &queries,
            &cluster,
            &answers,
            util::median(&rates),
        );
    }
    cluster.stop();
    out
}

/// The traced run: one more cold sweep with client spans (for the
/// tracing overhead), then the in-process replay of every query.
fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    scratch: &Scratch,
    queries: &[Query],
    cluster: &Cluster,
    answers: &[Answer],
    untraced_rate: f64,
) {
    let wire_tracer = Tracer::new(true);
    match set_up(scratch, "traced") {
        Err(e) => out.fail(e),
        Ok((fresh, _)) => {
            let (traced_answers, wall) = wire_sweep(&fresh, queries, ctx.seed, &wire_tracer);
            fresh.stop();
            let answered = traced_answers
                .iter()
                .filter(|a| a.verdict.is_some())
                .count();
            out.attempted += traced_answers.len() as u64;
            out.failed += (traced_answers.len() - answered) as u64;
            if verdict_digest(queries, &traced_answers) != verdict_digest(queries, answers) {
                out.fail("the traced sweep's verdicts differ from the untraced sweep's".into());
            }
            let traced_rate = answered as f64 / wall;
            out.metric("trace_overhead_share", untraced_rate / traced_rate - 1.0);
        }
    }
    let tracer = Arc::new(Tracer::new(true));
    replay(out, scratch, queries, cluster, answers, &tracer);
    out.metric("unaccounted_share", tracer.unaccounted_share());
    let _ = wire_tracer.write_jsonl(&ctx.spans_path("wire"));
    let _ = tracer.write_jsonl(&ctx.spans_path("replay"));
}

/// A [`TowerPersistence`] over the tower store that records a span per
/// load and store under the current solver span.
pub struct TimedTowers {
    inner: Arc<TowerStore>,
    tracer: Arc<Tracer>,
    parent: Mutex<Option<SpanId>>,
    loads: AtomicUsize,
    writes: AtomicUsize,
}

impl TowerPersistence for TimedTowers {
    fn load_level(&self, affine_hash: u128, inputs_hash: u128, level: usize) -> Option<Complex> {
        let parent = *self.parent.lock().expect("parent lock");
        let found = self.tracer.scope("store.tower_load", parent, 0, || {
            self.inner.load_level(affine_hash, inputs_hash, level)
        });
        if found.is_some() {
            self.loads.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn store_level(&self, affine_hash: u128, inputs_hash: u128, level: usize, domain: &Complex) {
        let parent = *self.parent.lock().expect("parent lock");
        self.tracer.scope("store.tower_write", parent, 0, || {
            self.inner
                .store_level(affine_hash, inputs_hash, level, domain)
        });
        self.writes.fetch_add(1, Ordering::Relaxed);
    }
}

/// Sum of the `elapsed`-free fields the engine reports per verdict call:
/// `(route, nodes)` from the `solver.set_consensus` event.
fn verdict_event(lines: &[String]) -> Option<(String, u64)> {
    let line = lines
        .iter()
        .rev()
        .find(|l| l.contains("\"ev\":\"solver.set_consensus\""))?;
    let v: serde::Value = serde_json::from_str(line).ok()?;
    let route = match v.field("route") {
        Ok(serde::Value::Str(s)) => s.clone(),
        _ => return None,
    };
    let nodes = match v.field("nodes") {
        Ok(serde::Value::UInt(n)) => *n,
        Ok(serde::Value::Int(n)) => *n as u64,
        _ => 0,
    };
    Some((route, nodes))
}

/// Replays the engine's share of a solve through its public calls —
/// `fair_affine_task`, `DomainCache::domain` per level and
/// `set_consensus_verdict_with_config` in the deepening loop — with a
/// span around each, and tallies the engine counters over the replay.
pub struct EngineReplay {
    sink: Arc<act_obs::MemorySink>,
    config: SearchConfig,
    towers: Option<Arc<TimedTowers>>,
    builds: u64,
    sperner_ns: u64,
    search_ns: u64,
    nodes: u64,
    facets: u64,
    queries: u64,
    apply_before: u64,
    orbit_before: u64,
    evict_before: u64,
}

impl EngineReplay {
    /// Starts a replay; the engine's `solver.set_consensus` events (route
    /// and search nodes) are captured in memory until [`Self::finish`].
    pub fn begin(config: SearchConfig, towers: Option<Arc<TimedTowers>>) -> EngineReplay {
        let sink = act_obs::MemorySink::shared();
        act_obs::install(sink.clone());
        EngineReplay {
            sink,
            config,
            towers,
            builds: 0,
            sperner_ns: 0,
            search_ns: 0,
            nodes: 0,
            facets: 0,
            queries: 0,
            apply_before: act_affine::APPLY_CALLS.get(),
            orbit_before: fact::DOMAIN_CACHE_ORBIT_HITS.get(),
            evict_before: fact::DOMAIN_CACHE_EVICTIONS.get(),
        }
    }

    /// A fresh tower slot: `R_A` built under a span, and a domain cache
    /// over the timed tower store when there is one.
    pub fn slot(
        &mut self,
        tracer: &Tracer,
        root: Option<SpanId>,
        request: u64,
        model: &ModelSpec,
    ) -> Slot {
        let alpha = model.agreement_function();
        let affine = tracer.scope("affine.r_a_build", root, request, || {
            fair_affine_task(&alpha)
        });
        self.builds += 1;
        let mut cache = DomainCache::new();
        if let Some(towers) = &self.towers {
            cache.set_persistence(Arc::clone(towers) as Arc<dyn TowerPersistence>);
        }
        Slot {
            affine,
            cache,
            stamp: 0,
        }
    }

    /// The deepening loop: `ℓ = 1, …, iters` while the verdict is a
    /// clean `NoMapUpTo`.
    pub fn decide(
        &mut self,
        tracer: &Tracer,
        root: Option<SpanId>,
        request: u64,
        slot: &mut Slot,
        task: &act_tasks::SetConsensus,
        iters: usize,
    ) -> Solvability {
        self.queries += 1;
        let inputs = task.rainbow_inputs();
        let mut verdict = Solvability::NoMapUpTo { max_iterations: 0 };
        for level in 1..=iters {
            let span = tracer.open("solver.tower", root, request);
            if let Some(towers) = &self.towers {
                *towers.parent.lock().expect("parent lock") = span;
            }
            let f = slot
                .cache
                .domain(&slot.affine, &inputs, level)
                .facet_count();
            tracer.close(span);
            self.facets += f as u64;
            self.sink.drain();
            let t0 = Instant::now();
            verdict = tracer.scope("tasks.verdict", root, request, || {
                set_consensus_verdict_with_config(
                    &mut slot.cache,
                    task,
                    &slot.affine,
                    level,
                    &self.config,
                )
            });
            let ns = t0.elapsed().as_nanos() as u64;
            match verdict_event(&self.sink.drain()) {
                Some((route, n)) if route == "sperner" => {
                    self.sperner_ns += ns;
                    self.nodes += n;
                }
                Some((_, n)) => {
                    self.search_ns += ns;
                    self.nodes += n;
                }
                None => self.search_ns += ns,
            }
            if !matches!(verdict, Solvability::NoMapUpTo { .. }) {
                break;
            }
        }
        verdict
    }

    /// Stops capturing and records the affine, solver and tasks metrics.
    pub fn finish(self, out: &mut Outcome, tracer: &Tracer) {
        act_obs::uninstall();
        let self_ns = tracer.self_time_by_name();
        let ms = |name: &str| *self_ns.get(name).unwrap_or(&0) as f64 / 1e6;
        out.metric("affine.r_a_build_ms", ms("affine.r_a_build"));
        out.metric("affine.r_a_builds", self.builds as f64);
        out.metric("solver.tower_ms", ms("solver.tower"));
        out.metric(
            "solver.apply_calls",
            (act_affine::APPLY_CALLS.get() - self.apply_before) as f64,
        );
        out.metric(
            "solver.orbit_hits",
            (fact::DOMAIN_CACHE_ORBIT_HITS.get() - self.orbit_before) as f64,
        );
        out.metric(
            "solver.evictions",
            (fact::DOMAIN_CACHE_EVICTIONS.get() - self.evict_before) as f64,
        );
        out.metric(
            "solver.domain_facets",
            self.facets as f64 / self.queries.max(1) as f64,
        );
        out.metric("tasks.search_ms", self.search_ns as f64 / 1e6);
        out.metric("tasks.search_nodes", self.nodes as f64);
        out.metric("tasks.sperner_ms", self.sperner_ns as f64 / 1e6);
        out.metric(
            "tasks.sperner_share",
            self.sperner_ns as f64 / (self.sperner_ns + self.search_ns).max(1) as f64,
        );
        if let Some(towers) = &self.towers {
            out.metric("store.tower_load_ms", ms("store.tower_load"));
            out.metric(
                "store.tower_loads",
                towers.loads.load(Ordering::Relaxed) as f64,
            );
            out.metric("store.tower_write_ms", ms("store.tower_write"));
            out.metric(
                "store.tower_writes",
                towers.writes.load(Ordering::Relaxed) as f64,
            );
        }
    }
}

/// A warmed tower: `R_A` and its incremental domain cache.
pub struct Slot {
    affine: AffineTask,
    cache: DomainCache,
    stamp: u64,
}

/// Replays each query through the public calls the server makes for a
/// cold solve, in the order the wire run completed them, and checks
/// each verdict (and witness) against the wire's answer.
pub fn replay(
    out: &mut Outcome,
    scratch: &Scratch,
    queries: &[Query],
    cluster: &Cluster,
    answers: &[Answer],
    tracer: &Arc<Tracer>,
) {
    let dir = scratch.fresh("replay-store");
    let store = VerdictStore::open(&dir).expect("open replay store");
    let towers = Arc::new(TimedTowers {
        inner: Arc::new(TowerStore::open(&dir).expect("open replay tower store")),
        tracer: Arc::clone(tracer),
        parent: Mutex::new(None),
        loads: AtomicUsize::new(0),
        writes: AtomicUsize::new(0),
    });
    let peer = PeerCluster::new(ClusterConfig::new(cluster.addrs.clone(), 0));
    let config = SearchConfig::new(5_000_000).with_deadline(Duration::from_millis(DEADLINE_MS));
    let mut engine = EngineReplay::begin(config, Some(towers));
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by_key(|&i| answers[i].finished);

    let mut slots: HashMap<String, Slot> = HashMap::new();
    let tower_capacity = ServeConfig::default().tower_capacity.max(1);
    let mut clock = 0u64;
    let mut mismatches = 0;
    for &qi in &order {
        let q = &queries[qi];
        let req = qi as u64;
        let root = tracer.open("request.replay", None, req);
        let line = q.line(req);
        let request = tracer.scope("server.parse", root, req, || parse_request(&line));
        let Ok(request) = request else {
            out.fail(format!("replay: {line} does not parse"));
            tracer.close(root);
            continue;
        };
        let RequestBody::Solve {
            model, task, iters, ..
        } = request.body
        else {
            unreachable!("sweep lines are solves")
        };
        let key = StoreKey::new(&model, &task, iters);
        // The scheduler's tower slots: one per (model, task), LRU-bounded
        // by its default resident-tower capacity.
        let tower_key = format!("{}|{}", model.canonical_string(), task.canonical_string());
        clock += 1;
        if !slots.contains_key(&tower_key) {
            let mut slot = engine.slot(tracer, root, req, &model);
            slot.stamp = clock;
            slots.insert(tower_key.clone(), slot);
            while slots.len() > tower_capacity {
                let oldest = slots
                    .iter()
                    .min_by_key(|(_, s)| s.stamp)
                    .map(|(k, _)| k.clone());
                slots.remove(&oldest.expect("non-empty"));
            }
        }
        let slot = slots.get_mut(&tower_key).expect("slot just ensured");
        slot.stamp = clock;
        let set_consensus = task.task();
        let verdict = engine.decide(tracer, root, req, slot, &set_consensus, iters);
        let Some(stored) = StoredVerdict::from_solvability(&verdict) else {
            out.fail(format!(
                "replay: {} k={} iters={} is not authoritative",
                q.model, q.k, q.iters
            ));
            tracer.close(root);
            continue;
        };
        tracer.scope("store.verdict_put", root, req, || store.put(&key, &stored));
        tracer.scope("cluster.replicate", root, req, || {
            peer.replicate(&store, key.content_hash())
        });
        let response = Response::solve(
            req,
            &stored.verdict,
            stored.iterations,
            stored.witness.len() as u64,
            "engine",
            true,
        );
        tracer.scope("server.encode", root, req, || response.encode());
        tracer.close(root);

        if let Solvability::Solvable { iterations, map } = &verdict {
            let domain = slot
                .cache
                .domain(&slot.affine, &set_consensus.rainbow_inputs(), *iterations)
                .clone();
            if !verify_carried_map(&set_consensus, &domain, map) {
                out.fail(format!(
                    "replay: witness for {} k={} does not verify",
                    q.model, q.k
                ));
            }
        }
        let replayed = Some((
            stored.verdict.clone(),
            stored.iterations,
            stored.witness.len() as u64,
        ));
        if replayed != answers[qi].verdict {
            mismatches += 1;
            out.fail(format!(
                "replay: {} k={} iters={} gave {replayed:?}, the wire {:?}",
                q.model, q.k, q.iters, answers[qi].verdict
            ));
        }
    }
    engine.finish(out, tracer);

    let self_ns = tracer.self_time_by_name();
    let ms = |name: &str| *self_ns.get(name).unwrap_or(&0) as f64 / 1e6;
    out.metric("store.verdict_put_ms", ms("store.verdict_put"));
    out.metric("cluster.replicate_ms", ms("cluster.replicate"));
    out.metric(
        "server.parse_us",
        util::median(&us(tracer.durations_ns("server.parse"))),
    );
    out.metric(
        "server.encode_us",
        util::median(&us(tracer.durations_ns("server.encode"))),
    );
    out.note(format!(
        "replay: {} queries in the server's order, {mismatches} verdict mismatch(es) against the wire",
        order.len()
    ));
}

fn us(ns: Vec<u64>) -> Vec<f64> {
    ns.into_iter().map(|n| n as f64 / 1e3).collect()
}
