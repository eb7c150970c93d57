//! `fact-cli` — command-line front end for the FACT reproduction.
//!
//! ```console
//! $ fact-cli analyze t-res:3:1
//! $ fact-cli analyze 'custom:3:{p2};{p1,p3}' --closure
//! $ fact-cli solve k-of:3:2 2
//! $ fact-cli solve t-res:3:1 1 --store target/verdicts
//! $ fact-cli serve --addr 127.0.0.1:7878 --store target/verdicts
//! $ fact-cli simulate fig5b 200
//! $ fact-cli campaign t-res:3:1 --samples 1000000 --workers 8 --checkpoint c.jsonl
//! $ fact-cli census
//! $ fact-cli solve t-res:3:1 2 --report report.json
//! $ fact-cli validate-report report.json
//! $ fact-cli replay target/act-artifacts/liveness-1234-0.json t-res:3:1
//! ```
//!
//! Models are specified as `wait-free:N`, `t-res:N:T`, `k-of:N:K`,
//! `fig5b`, or `custom:N:{p1,p2};{p3};…` (live sets by process name;
//! add `--closure` to close under supersets).
//!
//! `solve --store <dir>` and `serve --store <dir>` share one persistent
//! content-addressed verdict store: a one-shot CLI run warms the server
//! and vice versa.
//!
//! Telemetry: set `ACT_OBS_OUT=stderr` (or a file path) to stream
//! JSON-lines events, or pass `--report <path>` to capture the run's
//! events into a validated [`RunReport`] JSON file.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use act_service::{
    deepening_verdict, ClusterClient, ClusterConfig, FpcCache, ServeConfig, ServeFaultPlan,
    ServeOptions, StoreKey, StoredVerdict, VerdictStore, FPC_DEFAULT_RUNS, FPC_DEFAULT_SEED,
    FPC_MAX_RUNS,
};
use fact::adversary::{zoo, Adversary, AgreementFunction};
use fact::affine::fair_affine_task;
use fact::runtime::{run_adversarial, Trace, TraceArtifact};
use fact::tasks::SearchConfig;
use fact::topology::{betti_numbers, connected_components, is_link_connected, ColorSet, ProcessId};
use fact::{
    execute_affine_iterations, executed_set_consensus, outputs_to_simplex, validate_report_json,
    AlgorithmOneSystem, DomainCache, FactError, ModelSpec, RunReport, Solvability, TaskSpec,
};
use rand::SeedableRng;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let report_path = match extract_report_flag(&mut args) {
        Ok(p) => p,
        Err(msg) => return fail(FactError::Usage(msg)),
    };
    match extract_threads_flag(&mut args) {
        // Both the subdivision engine and the map-search engine read
        // RAYON_NUM_THREADS; setting it before any work starts makes the
        // flag govern every parallel fan-out of the run.
        Ok(Some(n)) => std::env::set_var("RAYON_NUM_THREADS", n.to_string()),
        Ok(None) => {}
        Err(msg) => return fail(FactError::Usage(msg)),
    }
    let deadline_ms = match extract_deadline_flag(&mut args) {
        Ok(d) => d,
        Err(msg) => return fail(FactError::Usage(msg)),
    };
    // With --report, the run's telemetry is captured in memory and lands
    // in the report; otherwise ACT_OBS_OUT (if set) picks the stream.
    let sink = if report_path.is_some() {
        let s = act_obs::MemorySink::shared();
        act_obs::install(s.clone());
        Some(s)
    } else {
        act_obs::init_from_env();
        None
    };
    let degraded_before = fact::tasks::ENGINE_DEGRADED.get();
    let mut result = run(&args, deadline_ms);
    // A run that completed but lost a search branch to a caught panic is
    // reported as degraded (exit code 3): its non-Found verdicts are not
    // exhaustive, and CI must not treat them as clean.
    let degraded_runs = fact::tasks::ENGINE_DEGRADED.get() - degraded_before;
    if result.is_ok() && degraded_runs > 0 {
        result = Err(FactError::Degraded(format!(
            "{degraded_runs} map search(es) caught a worker panic; \
             non-Found verdicts are not exhaustive"
        )));
    }
    if let (Some(path), Some(sink)) = (&report_path, &sink) {
        let lines = sink.drain();
        let command = args.first().cloned().unwrap_or_default();
        let model = match command.as_str() {
            "analyze" | "solve" | "simulate" => args.get(1).cloned().unwrap_or_default(),
            "replay" => args.get(2).cloned().unwrap_or_default(),
            _ => String::new(),
        };
        let verdict = result.as_ref().ok().cloned().flatten();
        let report = RunReport::from_events(&command, &model, result.is_ok(), verdict, &lines);
        let json = match serde_json::to_string_pretty(&report) {
            Ok(j) => j,
            Err(e) => return fail(FactError::Runtime(format!("serialize report: {e}"))),
        };
        if let Err(e) = std::fs::write(path, json) {
            return fail(FactError::Runtime(format!("write report {path:?}: {e}")));
        }
        eprintln!("report written to {path}");
    }
    match result {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

/// Prints the error (plus usage when the invocation was malformed) and
/// maps it to its exit code: 1 runtime, 2 usage, 3 degraded, 4 timed out.
fn fail(e: FactError) -> ExitCode {
    eprintln!("error: {e}");
    if e.is_usage() {
        eprintln!();
        eprintln!("{USAGE}");
    }
    ExitCode::from(e.exit_code())
}

/// Removes `--report <path>` from the argument list, returning the path.
fn extract_report_flag(args: &mut Vec<String>) -> Result<Option<String>, String> {
    extract_value_flag(args, "--report")
}

/// Removes `<flag> <value>` from the argument list, returning the value.
fn extract_value_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(format!("{flag} needs a value"));
            }
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
    }
}

/// Removes `<flag> <n>` (a count, at least 1) from the argument list.
fn extract_count_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<usize>, String> {
    match extract_value_flag(args, flag)? {
        None => Ok(None),
        Some(raw) => {
            let n: usize = raw
                .parse()
                .map_err(|_| format!("bad {flag} value {raw:?}"))?;
            if n == 0 {
                return Err(format!("{flag} must be at least 1"));
            }
            Ok(Some(n))
        }
    }
}

/// Removes a bare boolean `<flag>` from the argument list, returning
/// whether it was present.
fn extract_bool_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        None => false,
        Some(i) => {
            args.remove(i);
            true
        }
    }
}

/// Removes `--threads <n>` from the argument list, returning the count.
fn extract_threads_flag(args: &mut Vec<String>) -> Result<Option<usize>, String> {
    match args.iter().position(|a| a == "--threads") {
        None => Ok(None),
        Some(i) => {
            if i + 1 >= args.len() {
                return Err("--threads needs a worker count".into());
            }
            let raw = args.remove(i + 1);
            args.remove(i);
            let n: usize = raw
                .parse()
                .map_err(|_| format!("bad --threads value {raw:?}"))?;
            if n == 0 {
                return Err("--threads must be at least 1".into());
            }
            Ok(Some(n))
        }
    }
}

/// Removes `--deadline-ms <n>` from the argument list, returning the
/// wall-clock budget for map searches in milliseconds.
fn extract_deadline_flag(args: &mut Vec<String>) -> Result<Option<u64>, String> {
    match args.iter().position(|a| a == "--deadline-ms") {
        None => Ok(None),
        Some(i) => {
            if i + 1 >= args.len() {
                return Err("--deadline-ms needs a millisecond count".into());
            }
            let raw = args.remove(i + 1);
            args.remove(i);
            let n: u64 = raw
                .parse()
                .map_err(|_| format!("bad --deadline-ms value {raw:?}"))?;
            Ok(Some(n))
        }
    }
}

const USAGE: &str = "\
usage:
  fact-cli analyze <model> [--closure]   adversary/agreement/affine-task report
  fact-cli solve <model> <k> [iters]     decide k-set consensus via the FACT,
                                         deepening R_A^ℓ up to ℓ = iters (default 1)
            [--store <dir>]              answer from / persist into a verdict store
  fact-cli serve [--stdio] [--addr H:P]  run the solvability query service
            [--store <dir>] [--workers <n>] [--queue <n>]
            [--peers H:P,H:P,...]        full cluster membership (incl. self)
            [--self-index <i>]           which --peers entry this server is
            [--replication-factor <r>]   distinct owners per entry (default 2)
            [--ring-weights w1,w2,...]   per-peer ring weights (default all 1)
            [--scrub-interval-ms <ms>]   background Merkle scrub period
            [--sync-interval-ms <ms>]    background anti-entropy period
            [--fault-plan <path>]        install a chaos plan (JSON; testing)
  fact-cli query <model> <k> [iters]     resilient client: solve via a cluster
            --peers H:P,H:P,...          with retry/backoff/replica failover
            [--proof]                    demand + verify a Merkle proof
            [--seed <n>]                 jitter seed (replayable retries)
  fact-cli cluster-stats --peers H:P,... per-peer counters + root convergence
  fact-cli simulate <model> <runs>       run Algorithm 1 under adversarial schedules
  fact-cli campaign <model>              large randomized run campaign with invariant
                                         mining, failure dedup, and auto-shrinking
            [--scope sampled|exhaustive] population tier (default sampled)
            [--samples <n>]              sampled-tier run count (default 100000)
            [--depth <d>]                exhaustive-tier schedule depth (default 6)
            [--workers <n>] [--batch <n>] [--seed <n>] [--max-steps <n>]
            [--fault-rate <pct>]         share of runs driven under a fault plan
            [--checkpoint <path>]        JSON-lines checkpoint file [--resume]
            [--artifacts <dir>]          where shrunk violation traces land
            [--inject-liveness <i,j,..>] force synthetic violations at run indices
            [--no-solver-check]          skip the solver verdict-agreement oracle
            [--quotient-oracle]          cross-check the solver verdict under both
                                         direct and symmetry-quotiented towers
            [--invariants <a,b,..>]      judge only the named invariants
            [--list-invariants]          print the invariant registry and exit
  fact-cli fpc <workload>                seeded FPC finalization statistics
            [--runs <n>] [--seed <n>]    batch size and base seed
            [--store <dir>]              cache summaries under <dir>/fpc
  fact-cli census                        survey all 3-process adversaries
  fact-cli validate-report <path>        check a --report JSON file
  fact-cli replay <path> <model>         replay a captured trace artifact

options:
  --report <path>   capture the run's telemetry into a RunReport JSON file
  --threads <n>     worker threads for subdivision and map search
                    (sets RAYON_NUM_THREADS; 1 forces the serial engines)
  --deadline-ms <n> wall-clock budget for each map search; expiry yields
                    a timed-out verdict (exit code 4), not a hang
                    (under serve: the default per-request budget)

exit codes: 0 success | 1 runtime failure | 2 usage error
            3 degraded run (a search branch was lost to a caught panic)
            4 search deadline expired
            42 chaos plan killed the server (kill-peer event; testing only)

models: wait-free:N | t-res:N:T | k-of:N:K | fig5b | custom:N:{p1,p2};{p3};...
        alpha:N:<table> | alpha-kconc:N:K   agreement-function (α) model families
        fpc:N:M:STRATEGY[:Q[:O]]            FPC workloads (fpc subcommand + serve)

serving: `serve` speaks newline-delimited JSON (see README \"Serving\");
shutdown is the wire request {\"op\":\"shutdown\"} — it drains the queue,
answers every admitted job, and only then acknowledges and exits.

telemetry: ACT_OBS_OUT=stderr|<file> streams JSON-lines events;
ACT_OBS_ARTIFACTS=<dir> captures liveness-failing runs as replayable traces.";

/// Dispatches a command, returning its one-line verdict (when it has
/// one) for the `--report` summary.
fn run(args: &[String], deadline_ms: Option<u64>) -> Result<Option<String>, FactError> {
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("solve") => solve(&args[1..], deadline_ms),
        Some("serve") => serve(&args[1..], deadline_ms),
        Some("query") => query(&args[1..], deadline_ms),
        Some("cluster-stats") => cluster_stats(&args[1..]),
        Some("simulate") => simulate(&args[1..]),
        Some("campaign") => campaign(&args[1..]),
        Some("fpc") => fpc(&args[1..]),
        Some("census") => census(),
        Some("validate-report") => validate_report(&args[1..]),
        Some("replay") => replay(&args[1..]),
        Some(other) => Err(FactError::Usage(format!("unknown command {other:?}"))),
        None => Err(FactError::Usage("missing command".into())),
    }
}

/// Parses a model spec into an adversary (through the canonical
/// [`ModelSpec`] parser shared with the serving layer). Rejects
/// `alpha:` specs, which name no unique adversary.
fn parse_model(spec: &str, closure: bool) -> Result<Adversary, String> {
    ModelSpec::parse(spec, closure)?.adversary()
}

fn analyze(args: &[String]) -> Result<Option<String>, FactError> {
    let spec = args
        .first()
        .ok_or_else(|| "analyze needs a model spec".to_string())?;
    let closure = args.iter().any(|a| a == "--closure");
    let model = ModelSpec::parse(spec, closure)?;
    let n = model.num_processes();
    let alpha = model.agreement_function();
    let verdict;
    match model.adversary() {
        Ok(a) => {
            verdict = Some(format!(
                "setcon={} fair={}",
                a.setcon(),
                a.fairness_witness().is_none()
            ));
            println!("adversary        : {a}");
            println!("live sets        : {}", a.len());
            println!("superset-closed  : {}", a.is_superset_closed());
            println!("symmetric        : {}", a.is_symmetric());
            match a.fairness_witness() {
                None => println!("fair             : yes"),
                Some(w) => println!(
                    "fair             : NO (setcon(A|{},{}) = {} ≠ min(|Q|, setcon(A|P)) = {})",
                    w.p, w.q, w.restricted_power, w.expected_power
                ),
            }
            println!("setcon           : {}", a.setcon());
            if a.is_superset_closed() {
                println!("csize            : {}", a.csize());
            }
        }
        Err(_) => {
            // An α-model: no adversary to report on, but the agreement
            // function (validated at parse time) and its affine task
            // carry the whole analysis.
            let power = alpha.alpha(ColorSet::full(n));
            verdict = Some(format!("setcon={power} alpha-model=true"));
            println!("model            : α-model {}", model.canonical_string());
            println!("setcon (α(Π))    : {power}");
            println!(
                "bounded decrease : {}",
                if alpha.has_bounded_decrease() {
                    "yes"
                } else {
                    "NO"
                }
            );
        }
    }
    println!("agreement function:");
    for p in ColorSet::full(n).non_empty_subsets() {
        println!("  alpha({p}) = {}", alpha.alpha(p));
    }
    if alpha.alpha(ColorSet::full(n)) == 0 {
        println!("the model admits no runs; no affine task");
        return Ok(verdict);
    }
    if n > 4 {
        println!("(R_A construction skipped for n = {n}: Chr² too large)");
        return Ok(verdict);
    }
    let r = fair_affine_task(&alpha);
    let c = r.complex();
    println!(
        "affine task R_A  : {} facets (of {} in Chr² s)",
        c.facet_count(),
        {
            let full = fact::topology::Complex::standard(n).iterated_subdivision(2);
            full.facet_count()
        }
    );
    println!("components       : {}", connected_components(c));
    println!("link-connected   : {}", is_link_connected(c));
    println!("betti (GF(2))    : {:?}", betti_numbers(c));
    Ok(verdict)
}

fn solve(args: &[String], deadline_ms: Option<u64>) -> Result<Option<String>, FactError> {
    let mut args: Vec<String> = args.to_vec();
    let store_dir = extract_value_flag(&mut args, "--store")?;
    let spec = args
        .first()
        .ok_or_else(|| "solve needs a model spec".to_string())?;
    let k: usize = args
        .get(1)
        .ok_or_else(|| "solve needs k".to_string())?
        .parse()
        .map_err(|_| "bad k".to_string())?;
    let max_iters: usize = match args.get(2) {
        None => 1,
        Some(raw) => {
            let n: usize = raw.parse().map_err(|_| format!("bad iters {raw:?}"))?;
            if n == 0 {
                return Err(FactError::Usage("iters must be at least 1".into()));
            }
            n
        }
    };
    let model = ModelSpec::parse(spec, false)?;
    let task = TaskSpec::set_consensus(model.num_processes(), k)?;
    // The whole solve path is a function of the model's agreement
    // function — `R_A` is built from α alone — so α-models and
    // adversary models share every line below, store keys included.
    let alpha = model.agreement_function();
    let store = match &store_dir {
        None => None,
        Some(dir) => Some(
            VerdictStore::open(std::path::Path::new(dir))
                .map_err(|e| FactError::Runtime(format!("open store {dir:?}: {e}")))?,
        ),
    };
    let n = model.num_processes();
    println!(
        "model setcon = {}; deciding {k}-set consensus…",
        alpha.alpha(ColorSet::full(n))
    );
    let key = StoreKey::new(&model, &task, max_iters);
    if let Some(store) = &store {
        if let Some(stored) = store.get(&key) {
            act_service::SERVE_HIT.add(1);
            act_service::SERVE_HIT.emit();
            let verdict = stored.to_solvability().ok_or_else(|| {
                FactError::Runtime("stored verdict did not decode (corrupt store?)".into())
            })?;
            println!("(served from store)");
            return report_verdict(&verdict);
        }
    }
    if alpha.alpha(ColorSet::full(n)) == 0 {
        return Err(FactError::Runtime("the model admits no runs".into()));
    }
    let r_a = fair_affine_task(&alpha);
    let t = task.task();
    let mut config = SearchConfig::new(5_000_000);
    if let Some(ms) = deadline_ms {
        config = config.with_deadline(std::time::Duration::from_millis(ms));
    }
    // One DomainCache across the deepening loop: each new ℓ extends the
    // R_A^ℓ tower by a single subdivision round instead of rebuilding.
    // The loop itself is `deepening_verdict`, shared with the server so
    // both front ends return byte-identical verdicts. With `--store`, the
    // cache is backed by the tower store under `<store>/towers`, so a
    // cold process reloads persisted R_A^ℓ levels instead of
    // resubdividing them.
    let mut cache = DomainCache::new();
    if let Some(store) = &store {
        if let Some(dir) = store.disk_dir() {
            if let Ok(towers) = act_service::TowerStore::open(dir) {
                cache.set_persistence(std::sync::Arc::new(towers));
            }
        }
    }
    let verdict = deepening_verdict(&mut cache, &t, &r_a, max_iters, &config);
    if let Some(store) = &store {
        // Only authoritative verdicts persist; a timed-out or exhausted
        // outcome is a fact about this run's budget, not the model.
        if let Some(stored) = StoredVerdict::from_solvability(&verdict) {
            store.put(&key, &stored);
        }
    }
    report_verdict(&verdict)
}

/// Prints a verdict the way `solve` always has, mapping `timed-out` to
/// its exit code. Shared by the engine and store paths, so a warm run's
/// output differs from a cold one only by the `(served from store)`
/// marker line.
fn report_verdict(verdict: &Solvability) -> Result<Option<String>, FactError> {
    match verdict {
        Solvability::Solvable { iterations, .. } => {
            println!(
                "SOLVABLE with {iterations} iteration(s) of R_A (map verified by construction)"
            )
        }
        Solvability::NoMapUpTo { max_iterations } => {
            println!("NO MAP up to {max_iterations} iteration(s) — unsolvable at that depth")
        }
        Solvability::Exhausted { iterations } => {
            println!("search budget exhausted at {iterations} iteration(s) — verdict unknown")
        }
        Solvability::TimedOut { iterations } => {
            println!("search deadline expired at {iterations} iteration(s) — verdict unknown");
            return Err(FactError::TimedOut {
                iterations: *iterations,
            });
        }
    }
    Ok(Some(verdict.verdict_name().to_string()))
}

fn serve(args: &[String], deadline_ms: Option<u64>) -> Result<Option<String>, FactError> {
    let options = parse_serve_options(args, deadline_ms)?;
    act_service::serve(options).map_err(|e| FactError::Runtime(format!("serve: {e}")))?;
    Ok(Some("drained".into()))
}

/// Parses the `serve` flags into [`ServeOptions`].
fn parse_serve_options(
    args: &[String],
    deadline_ms: Option<u64>,
) -> Result<ServeOptions, FactError> {
    let mut args: Vec<String> = args.to_vec();
    let store_dir = extract_value_flag(&mut args, "--store")?;
    let addr = extract_value_flag(&mut args, "--addr")?;
    let workers = extract_count_flag(&mut args, "--workers")?;
    let queue = extract_count_flag(&mut args, "--queue")?;
    let peers = extract_value_flag(&mut args, "--peers")?;
    let self_index = extract_value_flag(&mut args, "--self-index")?
        .map(|raw| {
            raw.parse::<usize>()
                .map_err(|_| format!("bad --self-index value {raw:?}"))
        })
        .transpose()?;
    let replication = extract_count_flag(&mut args, "--replication-factor")?;
    let ring_weights = extract_value_flag(&mut args, "--ring-weights")?
        .map(|raw| {
            raw.split(',')
                .map(|s| {
                    s.trim()
                        .parse::<usize>()
                        .map_err(|_| format!("bad --ring-weights entry {s:?}"))
                })
                .collect::<Result<Vec<usize>, String>>()
        })
        .transpose()?;
    let fault_plan_path = extract_value_flag(&mut args, "--fault-plan")?;
    let scrub_interval_ms = extract_millis_flag(&mut args, "--scrub-interval-ms")?;
    let sync_interval_ms = extract_millis_flag(&mut args, "--sync-interval-ms")?;
    let stdio = match args.iter().position(|a| a == "--stdio") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    if let Some(stray) = args.first() {
        return Err(FactError::Usage(format!(
            "serve does not take positional argument {stray:?}"
        )));
    }
    let placement_flags = replication.is_some() || ring_weights.is_some();
    let cluster = match (peers, self_index) {
        (None, None) => None,
        (Some(_), None) => {
            return Err(FactError::Usage(
                "--peers needs --self-index (which peer this server is)".into(),
            ))
        }
        (None, Some(_)) => return Err(FactError::Usage("--self-index needs --peers".into())),
        (Some(list), Some(self_index)) => {
            let peers = parse_peer_list(&list)?;
            if self_index >= peers.len() {
                return Err(FactError::Usage(format!(
                    "--self-index {self_index} out of range for {} peer(s)",
                    peers.len()
                )));
            }
            let mut cluster = ClusterConfig::new(peers, self_index);
            if let Some(rf) = replication {
                if rf > cluster.peers.len() {
                    return Err(FactError::Usage(format!(
                        "--replication-factor {rf} exceeds the {} peer(s)",
                        cluster.peers.len()
                    )));
                }
                cluster.replication = rf;
            }
            if let Some(weights) = ring_weights {
                if weights.len() != cluster.peers.len() {
                    return Err(FactError::Usage(format!(
                        "--ring-weights has {} entries for {} peer(s)",
                        weights.len(),
                        cluster.peers.len()
                    )));
                }
                if weights.iter().all(|&w| w == 0) {
                    return Err(FactError::Usage(
                        "--ring-weights needs at least one non-zero entry".into(),
                    ));
                }
                cluster.weights = weights;
            }
            Some(cluster)
        }
    };
    if cluster.is_none() && placement_flags {
        return Err(FactError::Usage(
            "--replication-factor/--ring-weights need --peers".into(),
        ));
    }
    let fault_plan = match fault_plan_path {
        None => None,
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| FactError::Runtime(format!("read fault plan {path:?}: {e}")))?;
            Some(ServeFaultPlan::from_json(&text).map_err(FactError::Usage)?)
        }
    };
    let mut config = ServeConfig::default();
    if let Some(w) = workers {
        config.workers = w;
    }
    if let Some(q) = queue {
        config.queue_capacity = q;
    }
    config.deadline_ms = deadline_ms;
    Ok(ServeOptions {
        addr,
        stdio,
        store_dir: store_dir.map(PathBuf::from),
        config,
        cluster,
        fault_plan,
        scrub_interval_ms,
        sync_interval_ms,
    })
}

/// Removes `<flag> <ms>` (a millisecond count, 0 allowed) from the
/// argument list.
fn extract_millis_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<u64>, String> {
    match extract_value_flag(args, flag)? {
        None => Ok(None),
        Some(raw) => raw
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("bad {flag} value {raw:?}")),
    }
}

/// Splits a `--peers` list (`host:port,host:port,…`) into addresses.
fn parse_peer_list(list: &str) -> Result<Vec<String>, FactError> {
    let peers: Vec<String> = list
        .split(',')
        .map(|p| p.trim().to_string())
        .filter(|p| !p.is_empty())
        .collect();
    if peers.is_empty() {
        return Err(FactError::Usage("--peers list is empty".into()));
    }
    for p in &peers {
        if !p.contains(':') {
            return Err(FactError::Usage(format!(
                "bad peer address {p:?} (want host:port)"
            )));
        }
    }
    Ok(peers)
}

/// `fact-cli query <model> <k> [iters] --peers a,b,…` — the resilient
/// client path: retries with jittered backoff, honors `retry_after_ms`
/// hints, rotates to replicas on failure, and propagates the remaining
/// `--deadline-ms` budget to the server on every attempt.
fn query(args: &[String], deadline_ms: Option<u64>) -> Result<Option<String>, FactError> {
    let mut args: Vec<String> = args.to_vec();
    let peers = extract_value_flag(&mut args, "--peers")?
        .ok_or_else(|| "query needs --peers host:port[,host:port…]".to_string())?;
    let peers = parse_peer_list(&peers)?;
    let seed = extract_value_flag(&mut args, "--seed")?
        .map(|raw| {
            raw.parse::<u64>()
                .map_err(|_| format!("bad --seed value {raw:?}"))
        })
        .transpose()?
        .unwrap_or(0);
    let proof = extract_bool_flag(&mut args, "--proof");
    let spec = args
        .first()
        .ok_or_else(|| "query needs a model spec".to_string())?;
    let k: usize = args
        .get(1)
        .ok_or_else(|| "query needs k".to_string())?
        .parse()
        .map_err(|_| "bad k".to_string())?;
    let iters: usize = match args.get(2) {
        None => 1,
        Some(raw) => {
            let n: usize = raw.parse().map_err(|_| format!("bad iters {raw:?}"))?;
            if n == 0 {
                return Err(FactError::Usage("iters must be at least 1".into()));
            }
            n
        }
    };
    // Validate the spec locally so a typo is a usage error here, not a
    // round-trip to the cluster.
    ModelSpec::parse(spec, false)?;
    let client = ClusterClient::new(peers, seed);
    let response = client
        .solve(spec, k, iters, proof, deadline_ms)
        .map_err(|e| FactError::Runtime(format!("query: {e}")))?;
    if !response.ok {
        return Err(FactError::Runtime(format!(
            "server error: {} (code {})",
            response.error.as_deref().unwrap_or("unknown"),
            response.code.unwrap_or(0)
        )));
    }
    let verdict = response.verdict.clone().unwrap_or_default();
    println!(
        "verdict       : {verdict} ({}, source {})",
        if response.authoritative == Some(true) {
            "authoritative"
        } else {
            "unreliable"
        },
        response.source.as_deref().unwrap_or("?")
    );
    if proof {
        match response.verified_proof() {
            Some(p) => println!(
                "merkle proof  : VERIFIED against root {:032x} ({} step(s))",
                p.root,
                p.path.len()
            ),
            None if response.proof_entry.is_some() => {
                return Err(FactError::Runtime(
                    "merkle proof FAILED verification — store integrity suspect".into(),
                ))
            }
            None => println!("merkle proof  : none (verdict was not store-committed)"),
        }
    }
    Ok(Some(verdict))
}

/// `fact-cli cluster-stats --peers a,b,…` — per-peer serving counters,
/// Merkle roots, and scrub/replication health, one row per reachable
/// peer. Exits nonzero when live peers disagree on the Merkle root.
fn cluster_stats(args: &[String]) -> Result<Option<String>, FactError> {
    let mut args: Vec<String> = args.to_vec();
    let peers = extract_value_flag(&mut args, "--peers")?
        .ok_or_else(|| "cluster-stats needs --peers host:port[,host:port…]".to_string())?;
    let peers = parse_peer_list(&peers)?;
    if let Some(stray) = args.first() {
        return Err(FactError::Usage(format!("unexpected argument {stray:?}")));
    }
    let mut roots = std::collections::BTreeSet::new();
    let mut reachable = 0usize;
    for (i, peer) in peers.iter().enumerate() {
        let client = ClusterClient::new(vec![peer.clone()], i as u64);
        match client.stats() {
            Err(e) => println!("peer {i} {peer}: UNREACHABLE ({e})"),
            Ok(resp) => {
                let Some(stats) = resp.stats else {
                    println!("peer {i} {peer}: malformed stats reply");
                    continue;
                };
                reachable += 1;
                roots.insert(stats.merkle_root.clone());
                println!(
                    "peer {i} {peer}: entries={} root={} hits={} engine_runs={} \
                     scrub(runs={} corrupt={} repaired={} quarantined={}) \
                     peer(forwards={} failovers={} replications={} sync_pulls={})",
                    stats.merkle_entries,
                    &stats.merkle_root[..12.min(stats.merkle_root.len())],
                    stats.hits,
                    stats.engine_runs,
                    stats.scrub_runs,
                    stats.scrub_corrupt,
                    stats.scrub_repaired,
                    stats.scrub_quarantined,
                    stats.peer_forwards,
                    stats.failovers,
                    stats.peer_replications,
                    stats.peer_sync_pulls,
                );
            }
        }
    }
    if reachable == 0 {
        return Err(FactError::Runtime("no peer was reachable".into()));
    }
    if roots.len() > 1 {
        return Err(FactError::Runtime(format!(
            "live peers disagree on the Merkle root ({} distinct roots) — \
             run {{\"op\":\"sync\"}} or wait for anti-entropy",
            roots.len()
        )));
    }
    let summary = format!(
        "{reachable}/{} peer(s) reachable, roots converged",
        peers.len()
    );
    println!("{summary}");
    Ok(Some(summary))
}

fn simulate(args: &[String]) -> Result<Option<String>, FactError> {
    let spec = args
        .first()
        .ok_or_else(|| "simulate needs a model spec".to_string())?;
    let runs: usize = args
        .get(1)
        .map(|s| s.parse().map_err(|_| "bad run count".to_string()))
        .transpose()?
        .unwrap_or(100);
    let a = parse_model(spec, false)?;
    let n = a.num_processes();
    let alpha = AgreementFunction::of_adversary(&a);
    let full = ColorSet::full(n);
    if alpha.alpha(full) == 0 {
        return Err(FactError::Runtime("the model admits no runs".into()));
    }
    let r_a = fair_affine_task(&alpha);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xC11);
    let mut steps = 0usize;
    let mut distinct = std::collections::BTreeSet::new();
    for _ in 0..runs {
        let mut sys = AlgorithmOneSystem::new(&alpha, full);
        let outcome = run_adversarial(&mut sys, full, full, &mut rng, |_| 0, 500_000);
        if !outcome.all_correct_terminated {
            return Err(FactError::Runtime(
                "liveness violation — this would be a bug".into(),
            ));
        }
        steps += outcome.steps;
        let sx = outputs_to_simplex(r_a.complex(), &sys.outputs())
            .ok_or_else(|| FactError::Runtime("outputs did not resolve".into()))?;
        if !r_a.complex().contains_simplex(&sx) {
            return Err(FactError::Runtime(
                "SAFETY violation — this would be a bug".into(),
            ));
        }
        distinct.insert(sx);
    }
    println!("Algorithm 1: {runs} runs, all live and safe");
    println!("average steps per run : {}", steps / runs.max(1));
    println!(
        "distinct output facets: {} / {}",
        distinct.len(),
        r_a.complex().facet_count()
    );

    // One executed iteration + µ_Q consensus for flavour.
    let its = execute_affine_iterations(&r_a, &alpha, full, 1, &mut rng);
    let proposals: HashMap<ProcessId, u64> =
        full.iter().map(|p| (p, 100 + p.index() as u64)).collect();
    let decisions = executed_set_consensus(&r_a, &alpha, &its[0], full, &proposals);
    println!("µ_Q consensus on one executed run: {decisions:?}");
    Ok(Some(format!("{runs} runs live and safe")))
}

fn campaign(args: &[String]) -> Result<Option<String>, FactError> {
    let mut args = args.to_vec();
    if extract_bool_flag(&mut args, "--list-invariants") {
        println!("{:<28} {:<12} description", "invariant", "run family");
        for info in act_campaign::invariant_registry() {
            println!("{:<28} {:<12} {}", info.name, info.family, info.description);
        }
        return Ok(Some("listed the invariant registry".into()));
    }
    let scope_kind = extract_value_flag(&mut args, "--scope")?;
    let samples = extract_count_flag(&mut args, "--samples")?;
    let depth = extract_count_flag(&mut args, "--depth")?;
    let workers = extract_count_flag(&mut args, "--workers")?;
    let batch = extract_count_flag(&mut args, "--batch")?;
    let max_steps = extract_count_flag(&mut args, "--max-steps")?;
    let seed = extract_value_flag(&mut args, "--seed")?
        .map(|raw| {
            raw.parse::<u64>()
                .map_err(|_| format!("bad --seed value {raw:?}"))
        })
        .transpose()?;
    let fault_rate = extract_value_flag(&mut args, "--fault-rate")?
        .map(|raw| {
            raw.parse::<u8>()
                .ok()
                .filter(|p| *p <= 100)
                .ok_or_else(|| format!("bad --fault-rate value {raw:?} (want 0..=100)"))
        })
        .transpose()?;
    let checkpoint = extract_value_flag(&mut args, "--checkpoint")?;
    let artifacts = extract_value_flag(&mut args, "--artifacts")?;
    let inject = extract_value_flag(&mut args, "--inject-liveness")?
        .map(|raw| {
            raw.split(',')
                .map(|s| {
                    s.trim()
                        .parse::<u64>()
                        .map_err(|_| format!("bad --inject-liveness index {s:?}"))
                })
                .collect::<Result<Vec<u64>, String>>()
        })
        .transpose()?;
    let invariants = extract_value_flag(&mut args, "--invariants")?.map(|raw| {
        raw.split(',')
            .map(|s| s.trim().to_string())
            .collect::<Vec<_>>()
    });
    let resume = extract_bool_flag(&mut args, "--resume");
    let no_solver_check = extract_bool_flag(&mut args, "--no-solver-check");
    let quotient_oracle = extract_bool_flag(&mut args, "--quotient-oracle");
    let spec = args
        .first()
        .ok_or_else(|| "campaign needs a model spec".to_string())?;
    if let Some(stray) = args.get(1) {
        return Err(FactError::Usage(format!("unexpected argument {stray:?}")));
    }
    let mut config = act_campaign::CampaignConfig::new(spec);
    // Validate an invariant selection up front so an unknown name is a
    // usage error (exit 2), not a runtime failure mid-campaign.
    if let Some(selection) = &invariants {
        let family = if config.is_fpc() {
            act_campaign::FAMILY_FPC
        } else {
            act_campaign::FAMILY_ADVERSARIAL
        };
        act_campaign::resolve_invariant_names(Some(selection), family).map_err(FactError::Usage)?;
    }
    config.scope = match scope_kind.as_deref() {
        None | Some("sampled") => act_campaign::Scope::Sampled {
            samples: samples.unwrap_or(100_000) as u64,
        },
        Some("exhaustive") => {
            if samples.is_some() {
                return Err(FactError::Usage(
                    "--samples applies to the sampled scope only".into(),
                ));
            }
            act_campaign::Scope::Exhaustive {
                max_depth: depth.unwrap_or(6),
            }
        }
        Some(other) => {
            return Err(FactError::Usage(format!(
                "bad --scope {other:?} (want sampled or exhaustive)"
            )))
        }
    };
    if let Some(seed) = seed {
        config.seed = seed;
    }
    if let Some(workers) = workers {
        config.workers = workers;
    }
    if let Some(batch) = batch {
        config.batch = batch as u64;
    }
    if let Some(max_steps) = max_steps {
        config.max_steps = max_steps;
    }
    if let Some(fault_rate) = fault_rate {
        config.fault_rate_percent = fault_rate;
    }
    config.checkpoint = checkpoint.map(PathBuf::from);
    config.artifacts = artifacts.map(PathBuf::from);
    config.resume = resume;
    config.inject_liveness = inject.unwrap_or_default();
    config.invariants = invariants;
    config.solver_check = !no_solver_check;
    config.quotient_oracle = quotient_oracle;
    if quotient_oracle && no_solver_check {
        return Err(FactError::Usage(
            "--quotient-oracle needs the solver check (drop --no-solver-check)".into(),
        ));
    }

    let report = act_campaign::run_campaign(&config).map_err(FactError::Runtime)?;
    let coverage = &report.coverage;
    println!(
        "campaign              : {} runs ({} resumed + {} executed), {:.0} runs/sec",
        report.cursor,
        report.resumed_from,
        report.cursor - report.resumed_from,
        report.runs_per_sec()
    );
    println!(
        "liveness              : {} live runs, {} scheduler steps",
        coverage.live, coverage.steps
    );
    println!(
        "fault injection       : {} faulted runs, {} fault events applied",
        coverage.faulted_runs, coverage.faults_applied
    );
    if config.is_fpc() {
        println!("distinct trajectories : {}", coverage.facets.len());
    } else {
        println!("distinct output facets: {}", coverage.facets.len());
    }
    println!(
        "violations            : {} total ({} injected, {} deduplicated)",
        coverage.violations, coverage.injected_violations, coverage.deduped
    );
    for (invariant, count) in &coverage.invariant_violations {
        println!("  {invariant:<24} ×{count}");
    }
    for path in &report.new_artifacts {
        println!("artifact              : {}", path.display());
    }
    let uninjected = coverage.violations - coverage.injected_violations;
    if uninjected > 0 {
        return Err(FactError::Runtime(format!(
            "campaign mined {uninjected} uninjected invariant violation(s); \
             shrunk artifacts: {:?}",
            report.artifact_sigs
        )));
    }
    Ok(Some(format!(
        "{} runs, {} violations ({} injected), {} artifact(s)",
        report.cursor,
        coverage.violations,
        coverage.injected_violations,
        report.artifact_sigs.len()
    )))
}

fn fpc(args: &[String]) -> Result<Option<String>, FactError> {
    let mut args = args.to_vec();
    let runs = extract_count_flag(&mut args, "--runs")?
        .map(|n| n as u64)
        .unwrap_or(FPC_DEFAULT_RUNS);
    let seed = extract_value_flag(&mut args, "--seed")?
        .map(|raw| {
            raw.parse::<u64>()
                .map_err(|_| format!("bad --seed value {raw:?}"))
        })
        .transpose()?
        .unwrap_or(FPC_DEFAULT_SEED);
    let store = extract_value_flag(&mut args, "--store")?;
    let spec_text = args
        .first()
        .ok_or_else(|| "fpc needs a workload spec (fpc:N:M:STRATEGY[:Q[:O]])".to_string())?;
    if let Some(stray) = args.get(1) {
        return Err(FactError::Usage(format!("unexpected argument {stray:?}")));
    }
    let spec = act_fpc::FpcSpec::parse(spec_text).map_err(FactError::Usage)?;
    if !(1..=FPC_MAX_RUNS).contains(&runs) {
        return Err(FactError::Usage(format!(
            "--runs must be in 1..={FPC_MAX_RUNS}"
        )));
    }
    let cache = match &store {
        Some(dir) => FpcCache::open(std::path::Path::new(dir))
            .map_err(|e| FactError::Runtime(format!("opening store {dir:?}: {e}")))?,
        None => FpcCache::in_memory(),
    };
    let (stats, source) = cache.summary(&spec, runs, seed);
    println!("workload              : {}", stats.spec);
    println!(
        "batch                 : {} runs, seed {} ({source})",
        stats.runs, stats.seed
    );
    println!(
        "agreement failures    : {} ({} per mille)",
        stats.agreement_failures,
        stats.agreement_failures * 1000 / stats.runs.max(1)
    );
    println!(
        "termination failures  : {} ({} per mille)",
        stats.termination_failures,
        stats.termination_failures * 1000 / stats.runs.max(1)
    );
    println!(
        "rounds to finality    : p50 {}, p99 {}, max {}, mean {}.{:03}",
        stats.rounds_p50,
        stats.rounds_p99,
        stats.rounds_max,
        stats.mean_rounds_milli / 1000,
        stats.mean_rounds_milli % 1000
    );
    println!("batch fingerprint     : {}", stats.fingerprint);
    Ok(Some(format!(
        "{} over {} runs: {} agree-fail, {} term-fail, p50 {} rounds ({source})",
        stats.spec,
        stats.runs,
        stats.agreement_failures,
        stats.termination_failures,
        stats.rounds_p50
    )))
}

fn census() -> Result<Option<String>, FactError> {
    let all = zoo::all_adversaries(3);
    let fair = all.iter().filter(|a| a.is_fair()).count();
    let sym = all.iter().filter(|a| a.is_symmetric()).count();
    let ssc = all.iter().filter(|a| a.is_superset_closed()).count();
    println!("adversaries over 3 processes : {}", all.len());
    println!("fair                         : {fair}");
    println!("symmetric                    : {sym}");
    println!("superset-closed              : {ssc}");
    // Distinct agreement functions among the fair ones with runs.
    let mut alphas = std::collections::BTreeSet::new();
    let mut tasks: HashMap<Vec<u8>, usize> = HashMap::new();
    for a in all.iter().filter(|a| a.is_fair() && a.setcon() >= 1) {
        let alpha = AgreementFunction::of_adversary(a);
        let table: Vec<u8> = ColorSet::full(3)
            .subsets()
            .map(|p| alpha.alpha(p) as u8)
            .collect();
        alphas.insert(table.clone());
        *tasks.entry(table).or_insert(0) += 1;
    }
    println!(
        "distinct agreement functions among fair models with runs: {}",
        alphas.len()
    );
    println!("(fair adversaries with the same α share the same R_A and the same tasks)");
    Ok(None)
}

fn validate_report(args: &[String]) -> Result<Option<String>, FactError> {
    let path = args
        .first()
        .ok_or_else(|| "validate-report needs a file path".to_string())?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| FactError::Runtime(format!("read {path:?}: {e}")))?;
    let report = validate_report_json(&text).map_err(FactError::Runtime)?;
    println!(
        "valid run report: command={:?} model={:?} ok={} events={}",
        report.command,
        report.model,
        report.ok,
        report.events.len()
    );
    for (name, count) in &report.counters {
        let us = report.timings_us.get(name).copied();
        match us {
            Some(us) => println!("  {name:<24} ×{count:<6} {us} µs"),
            None => println!("  {name:<24} ×{count}"),
        }
    }
    Ok(Some("valid".into()))
}

fn replay(args: &[String]) -> Result<Option<String>, FactError> {
    let path = args
        .first()
        .ok_or_else(|| "replay needs an artifact path".to_string())?;
    let spec = args
        .get(1)
        .ok_or_else(|| "replay needs a model spec".to_string())?;
    let a = parse_model(spec, false)?;
    let alpha = AgreementFunction::of_adversary(&a);
    let text = std::fs::read_to_string(path)
        .map_err(|e| FactError::Runtime(format!("read {path:?}: {e}")))?;
    // Accept full artifacts and bare (possibly pre-context) traces.
    let (trace, reason) = match serde_json::from_str::<TraceArtifact>(&text) {
        Ok(artifact) => (artifact.trace, artifact.reason),
        Err(_) => (
            serde_json::from_str::<Trace>(&text).map_err(|e| {
                FactError::Runtime(format!("parse {path:?}: neither artifact nor trace: {e}"))
            })?,
            "bare-trace".to_string(),
        ),
    };
    println!(
        "replaying {reason} trace: {} steps, participants {}",
        trace.len(),
        trace.participants
    );
    if let Some(plan) = &trace.fault_plan {
        // The recorded schedule already reflects every injected fault, so
        // the replay never re-injects; the plan is provenance only.
        println!(
            "fault plan            : seed {:#x}, {} event(s) (recorded, not re-injected)",
            plan.seed,
            plan.events.len()
        );
    }
    let mut sys = AlgorithmOneSystem::new(&alpha, trace.participants);
    let terminated = trace.replay(&mut sys)?;
    println!("terminated            : {terminated}");
    let verdict = match trace.correct_terminated(terminated) {
        Some(true) => "correct set terminated — the recorded failure did NOT reproduce",
        Some(false) => "liveness failure reproduced (correct set did not terminate)",
        None => {
            if trace.participants.is_subset_of(terminated) {
                "all participants terminated"
            } else {
                "some participants still running (trace has no recorded correct set)"
            }
        }
    };
    println!("verdict               : {verdict}");
    Ok(Some(verdict.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_specs_parse() {
        assert_eq!(parse_model("wait-free:3", false).unwrap().len(), 7);
        assert_eq!(parse_model("t-res:3:1", false).unwrap().setcon(), 2);
        assert_eq!(parse_model("k-of:4:2", false).unwrap().setcon(), 2);
        assert!(parse_model("fig5b", false).unwrap().is_superset_closed());
        let custom = parse_model("custom:3:{p2};{p1,p3}", true).unwrap();
        assert_eq!(custom, zoo::figure_5b_adversary());
        let raw = parse_model("custom:3:{p2};{p1,p3}", false).unwrap();
        assert_eq!(raw.len(), 2);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(parse_model("nope:3", false).is_err());
        assert!(parse_model("t-res:3:3", false).is_err());
        assert!(parse_model("k-of:3:0", false).is_err());
        assert!(parse_model("wait-free:9", false).is_err());
        assert!(parse_model("custom:3:{p9}", false).is_err());
        assert!(parse_model("custom:3:{}", false).is_err());
    }

    #[test]
    fn commands_dispatch() {
        assert!(run(&[], None).is_err());
        assert!(run(&["frobnicate".into()], None).is_err());
        assert!(run(&["census".into()], None).is_ok());
        assert!(run(&["analyze".into(), "k-of:3:1".into()], None).is_ok());
        assert!(run(&["solve".into(), "k-of:3:1".into(), "1".into()], None).is_ok());
        assert!(run(&["validate-report".into()], None).is_err());
        assert!(run(
            &["replay".into(), "/no/such/file".into(), "t-res:3:1".into()],
            None
        )
        .is_err());
    }

    #[test]
    fn errors_carry_their_exit_codes() {
        // Malformed invocations are usage errors (exit 2)…
        let e = run(&["frobnicate".into()], None).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.is_usage());
        // …and so are malformed specs, everywhere they can appear.
        let e = run(&["solve".into(), "nope:3".into(), "1".into()], None).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.is_usage());
        // …while failures on well-formed invocations are runtime (exit 1).
        let e = run(
            &["replay".into(), "/no/such/file".into(), "t-res:3:1".into()],
            None,
        )
        .unwrap_err();
        assert_eq!(e.exit_code(), 1);
        assert!(!e.is_usage());
    }

    #[test]
    fn zero_deadline_times_out_the_solve() {
        // A deadline that has already expired must surface as TimedOut
        // (exit 4), never as Exhausted or a hang. t-res:4:2 at k = 2 lies
        // below α(Π) = 3, so the search (not the leader map) answers it.
        let e = run(&["solve".into(), "t-res:4:2".into(), "2".into()], Some(0)).unwrap_err();
        assert!(matches!(e, FactError::TimedOut { .. }), "got {e:?}");
        assert_eq!(e.exit_code(), 4);
    }

    #[test]
    fn threads_flag_is_extracted() {
        let mut args: Vec<String> = ["solve", "--threads", "4", "t-res:3:1", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let n = extract_threads_flag(&mut args).unwrap();
        assert_eq!(n, Some(4));
        assert_eq!(args, ["solve", "t-res:3:1", "2"]);

        let mut none: Vec<String> = vec!["census".into()];
        assert_eq!(extract_threads_flag(&mut none).unwrap(), None);

        let mut missing: Vec<String> = vec!["census".into(), "--threads".into()];
        assert!(extract_threads_flag(&mut missing).is_err());

        let mut zero: Vec<String> = vec!["--threads".into(), "0".into()];
        assert!(extract_threads_flag(&mut zero).is_err());

        let mut junk: Vec<String> = vec!["--threads".into(), "lots".into()];
        assert!(extract_threads_flag(&mut junk).is_err());
    }

    #[test]
    fn solve_accepts_an_iteration_bound() {
        let solve = |iters: &str| {
            run(
                &["solve".into(), "k-of:3:1".into(), "1".into(), iters.into()],
                None,
            )
        };
        assert!(solve("2").is_ok());
        assert!(solve("0").is_err());
        assert!(solve("x").is_err());
    }

    #[test]
    fn deadline_flag_is_extracted() {
        let mut args: Vec<String> = ["solve", "--deadline-ms", "250", "t-res:3:1", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(extract_deadline_flag(&mut args).unwrap(), Some(250));
        assert_eq!(args, ["solve", "t-res:3:1", "2"]);

        let mut none: Vec<String> = vec!["census".into()];
        assert_eq!(extract_deadline_flag(&mut none).unwrap(), None);

        let mut missing: Vec<String> = vec!["census".into(), "--deadline-ms".into()];
        assert!(extract_deadline_flag(&mut missing).is_err());

        let mut junk: Vec<String> = vec!["--deadline-ms".into(), "soon".into()];
        assert!(extract_deadline_flag(&mut junk).is_err());
    }

    #[test]
    fn report_flag_is_extracted() {
        let mut args: Vec<String> = ["solve", "--report", "out.json", "t-res:3:1", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let path = extract_report_flag(&mut args).unwrap();
        assert_eq!(path.as_deref(), Some("out.json"));
        assert_eq!(args, ["solve", "t-res:3:1", "2"]);

        let mut none: Vec<String> = vec!["census".into()];
        assert_eq!(extract_report_flag(&mut none).unwrap(), None);

        let mut bad: Vec<String> = vec!["census".into(), "--report".into()];
        assert!(extract_report_flag(&mut bad).is_err());
    }

    #[test]
    fn serve_options_parse() {
        let args: Vec<String> = [
            "--stdio",
            "--store",
            "/tmp/s",
            "--workers",
            "3",
            "--queue",
            "16",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_serve_options(&args, Some(250)).unwrap();
        assert!(opts.stdio);
        assert_eq!(
            opts.store_dir.as_deref(),
            Some(std::path::Path::new("/tmp/s"))
        );
        assert_eq!(opts.config.workers, 3);
        assert_eq!(opts.config.queue_capacity, 16);
        assert_eq!(opts.config.deadline_ms, Some(250));

        let defaults = parse_serve_options(&[], None).unwrap();
        assert!(!defaults.stdio);
        assert_eq!(defaults.addr, None);
        assert_eq!(defaults.config.workers, ServeConfig::default().workers);
        assert!(defaults.cluster.is_none());
        assert!(defaults.fault_plan.is_none());
        assert_eq!(defaults.scrub_interval_ms, None);
        assert_eq!(defaults.sync_interval_ms, None);

        let bad: Vec<String> = vec!["--workers".into(), "0".into()];
        assert!(parse_serve_options(&bad, None).is_err());
        let stray: Vec<String> = vec!["t-res:3:1".into()];
        assert!(parse_serve_options(&stray, None).is_err());
    }

    #[test]
    fn cluster_serve_flags_parse() {
        let args: Vec<String> = [
            "--peers",
            "127.0.0.1:7001,127.0.0.1:7002",
            "--self-index",
            "1",
            "--scrub-interval-ms",
            "500",
            "--sync-interval-ms",
            "250",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_serve_options(&args, None).unwrap();
        let cluster = opts.cluster.expect("cluster config");
        assert_eq!(cluster.peers.len(), 2);
        assert_eq!(cluster.self_index, 1);
        assert_eq!(opts.scrub_interval_ms, Some(500));
        assert_eq!(opts.sync_interval_ms, Some(250));

        // --peers without --self-index (and vice versa) is a usage error…
        let half: Vec<String> = vec!["--peers".into(), "a:1,b:2".into()];
        assert!(parse_serve_options(&half, None).is_err());
        let other: Vec<String> = vec!["--self-index".into(), "0".into()];
        assert!(parse_serve_options(&other, None).is_err());
        // …as are an out-of-range index and a portless peer.
        let oob: Vec<String> = vec![
            "--peers".into(),
            "a:1,b:2".into(),
            "--self-index".into(),
            "2".into(),
        ];
        assert!(parse_serve_options(&oob, None).is_err());
        assert!(parse_peer_list("localhost").is_err());
        assert!(parse_peer_list("").is_err());
        assert_eq!(parse_peer_list("a:1, b:2,").unwrap(), vec!["a:1", "b:2"]);
    }

    #[test]
    fn query_and_cluster_stats_validate_their_arguments() {
        // Missing --peers is a usage error for both commands.
        let e = run(&["query".into(), "t-res:3:1".into(), "2".into()], None).unwrap_err();
        assert!(e.is_usage());
        let e = run(&["cluster-stats".into()], None).unwrap_err();
        assert!(e.is_usage());
        // A bad model spec fails locally, before any network attempt.
        let e = run(
            &[
                "query".into(),
                "nope:3".into(),
                "1".into(),
                "--peers".into(),
                "127.0.0.1:1".into(),
            ],
            None,
        )
        .unwrap_err();
        assert!(e.is_usage());
        // A well-formed query against a dead peer is a runtime failure.
        let e = run(
            &[
                "query".into(),
                "t-res:3:1".into(),
                "2".into(),
                "--peers".into(),
                "127.0.0.1:1".into(),
            ],
            None,
        )
        .unwrap_err();
        assert_eq!(e.exit_code(), 1);
    }

    #[test]
    fn solve_warms_and_reads_the_store() {
        let dir = std::env::temp_dir().join(format!("fact-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.display().to_string();
        let solve = |args: &[&str]| {
            let mut full: Vec<String> = vec!["solve".into(), "t-res:3:1".into(), "2".into()];
            full.extend(args.iter().map(|s| s.to_string()));
            run(&full, None)
        };
        let hits_before = act_service::SERVE_HIT.get();
        // Cold: runs the engine and persists the verdict…
        assert_eq!(
            solve(&["--store", &dir_arg]).unwrap(),
            Some("solvable".into())
        );
        assert_eq!(act_service::SERVE_HIT.get(), hits_before);
        // …warm: identical verdict, answered from the store.
        assert_eq!(
            solve(&["--store", &dir_arg]).unwrap(),
            Some("solvable".into())
        );
        assert_eq!(act_service::SERVE_HIT.get(), hits_before + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
