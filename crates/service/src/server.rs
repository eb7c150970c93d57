//! The operational front end: newline-delimited JSON over TCP or stdio.
//!
//! * **TCP** — the listener binds (by default `127.0.0.1:0`, letting the
//!   OS pick a free port) and prints `fact-serve listening on ADDR` as
//!   its first stdout line, so harnesses can scrape the assigned port.
//!   Each connection gets a thread; requests on one connection are
//!   answered in order, and clients open several connections for
//!   concurrency.
//! * **stdio** — one request per stdin line, one response per stdout
//!   line; used by tests and pipelines (`fact-cli serve --stdio`). EOF
//!   drains and exits cleanly.
//!
//! With a [`ClusterConfig`] the server is one peer of a replicated
//! cluster: non-owner solves forward to the key's owners (failing over
//! down the owner list), fresh verdicts write-through replicate, and
//! two background loops keep the store honest — a **scrub** pass
//! re-checksums entries against the Merkle index (repairing from the
//! memory tier or a peer, quarantining what nothing can restore) and an
//! **anti-entropy** round converges diverged peers by Merkle-root diff.
//! An installed [`ServeFaultPlan`] injects wire/disk chaos
//! deterministically (see [`crate::chaos`]).
//!
//! There is no signal handling (the crate is std-only): **graceful
//! shutdown is a wire request**. A `{"op":"shutdown"}` stops admission,
//! lets every queued and running job finish and answer its waiters,
//! joins the workers, and only then acknowledges — so a client that has
//! seen the `shutdown` response knows the queue was drained, and the
//! serve loop exits.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::chaos::{self, ServeFaultPlan, WireAction};
use crate::cluster::{Cluster, ClusterConfig};
use crate::fpccache::FpcCache;
use crate::merkle::ScrubReport;
use crate::protocol::{parse_request, RequestBody, Response, CODE_DRAINING, CODE_USAGE};
use crate::scheduler::{Scheduler, ServeConfig, Served, SolveQuery, Submitted};
use crate::store::{StoreKey, VerdictStore};
use crate::SERVE_MERKLE_PROOFS;

/// How the serve loop is wired up.
#[derive(Clone, Debug, Default)]
pub struct ServeOptions {
    /// TCP listen address (`None` = `127.0.0.1:0`, OS-assigned port).
    /// Ignored under `stdio`.
    pub addr: Option<String>,
    /// Serve stdin/stdout instead of TCP.
    pub stdio: bool,
    /// Directory of the persistent verdict store (`None` = memory only).
    pub store_dir: Option<PathBuf>,
    /// Scheduler tuning.
    pub config: ServeConfig,
    /// Cluster topology (`None` = a single standalone server).
    pub cluster: Option<ClusterConfig>,
    /// Chaos plan to install for this server's lifetime.
    pub fault_plan: Option<ServeFaultPlan>,
    /// Background scrub period (`None` = scrub only on request).
    pub scrub_interval_ms: Option<u64>,
    /// Background anti-entropy period (`None` = sync only at startup
    /// and on request). Ignored without a cluster.
    pub sync_interval_ms: Option<u64>,
}

/// Everything a request handler needs: the scheduler plus the optional
/// peer layer.
struct ServeCtx {
    scheduler: Arc<Scheduler>,
    cluster: Option<Arc<Cluster>>,
    fpc: FpcCache,
}

impl ServeCtx {
    /// One scrub pass, with peers as the remote repair source when
    /// clustered.
    fn scrub(&self) -> ScrubReport {
        let store = self.scheduler.store();
        match &self.cluster {
            Some(c) => {
                let cluster = Arc::clone(c);
                store.scrub(Some(&move |hash| cluster.fetch_entry(hash)))
            }
            None => store.scrub(None),
        }
    }

    /// One anti-entropy round (0 pulls when standalone).
    fn sync(&self) -> u64 {
        match &self.cluster {
            Some(c) => c.sync(self.scheduler.store()),
            None => 0,
        }
    }
}

/// Builds the context `serve`/`spawn_server` share: store, scheduler,
/// workers, cluster, replication hook, and chaos plan.
fn build_ctx(options: &ServeOptions) -> std::io::Result<Arc<ServeCtx>> {
    let store = Arc::new(match &options.store_dir {
        Some(dir) => VerdictStore::open(dir)?,
        None => VerdictStore::in_memory(),
    });
    let scheduler = Scheduler::new(Arc::clone(&store), options.config.clone());
    scheduler.start_workers();
    let cluster = options
        .cluster
        .clone()
        .filter(|c| !c.is_single())
        .map(|c| Arc::new(Cluster::new(c)));
    if let Some(cluster) = &cluster {
        let hook_cluster = Arc::clone(cluster);
        let hook_store = Arc::clone(&store);
        scheduler.set_replicator(Arc::new(move |hash| {
            hook_cluster.replicate(&hook_store, hash);
        }));
    }
    if let Some(plan) = &options.fault_plan {
        chaos::install(plan.clone());
    }
    let fpc = match &options.store_dir {
        Some(dir) => FpcCache::open(dir)?,
        None => FpcCache::in_memory(),
    };
    Ok(Arc::new(ServeCtx {
        scheduler,
        cluster,
        fpc,
    }))
}

/// Spawns the background scrub / anti-entropy loops. Both poll `stop`
/// on a short beat so shutdown is prompt; a clustered server also runs
/// one sync round right away (a restarted peer converges before its
/// first interval).
fn spawn_maintenance(ctx: &Arc<ServeCtx>, stop: &Arc<AtomicBool>, options: &ServeOptions) {
    if ctx.cluster.is_some() {
        let ctx = Arc::clone(ctx);
        let stop = Arc::clone(stop);
        let interval = options.sync_interval_ms;
        std::thread::spawn(move || {
            // Startup convergence; peers that aren't up yet simply
            // contribute nothing to this round.
            ctx.sync();
            let Some(interval) = interval else { return };
            loop {
                if sleep_until(&stop, interval) {
                    return;
                }
                ctx.sync();
            }
        });
    }
    if let Some(interval) = options.scrub_interval_ms {
        let ctx = Arc::clone(ctx);
        let stop = Arc::clone(stop);
        std::thread::spawn(move || loop {
            if sleep_until(&stop, interval) {
                return;
            }
            ctx.scrub();
        });
    }
}

/// Sleeps `ms` in short beats; `true` means `stop` was raised.
fn sleep_until(stop: &AtomicBool, ms: u64) -> bool {
    let mut waited = 0u64;
    while waited < ms {
        if stop.load(Ordering::Relaxed) {
            return true;
        }
        let beat = (ms - waited).min(25);
        std::thread::sleep(Duration::from_millis(beat));
        waited += beat;
    }
    stop.load(Ordering::Relaxed)
}

/// Runs the query service until a `shutdown` request (or stdin EOF in
/// stdio mode) completes its drain.
pub fn serve(options: ServeOptions) -> std::io::Result<()> {
    let ctx = build_ctx(&options)?;
    let stop = Arc::new(AtomicBool::new(false));
    spawn_maintenance(&ctx, &stop, &options);
    let result = if options.stdio {
        serve_stdio(&ctx)
    } else {
        let listener = TcpListener::bind(options.addr.as_deref().unwrap_or("127.0.0.1:0"))?;
        {
            let mut out = std::io::stdout();
            writeln!(out, "fact-serve listening on {}", listener.local_addr()?)?;
            out.flush()?;
        }
        serve_tcp(&ctx, listener, &stop)
    };
    stop.store(true, Ordering::Relaxed);
    result
}

/// A server running on its own thread over a pre-bound listener — the
/// in-process form tests and benches use (bind N listeners on port 0
/// first, collect the addresses, then build every peer's
/// [`ClusterConfig`] from the full list).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    scheduler: Arc<Scheduler>,
}

impl ServerHandle {
    /// The address the server is accepting on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler (for store/stat assertions in tests).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// Stops the accept loop, joins it, and drains the scheduler.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        self.scheduler.drain();
    }
}

/// Starts a server for `options` on `listener` (already bound) and
/// returns without blocking. `options.addr`/`options.stdio` are ignored
/// — the listener *is* the address.
pub fn spawn_server(
    options: &ServeOptions,
    listener: TcpListener,
) -> std::io::Result<ServerHandle> {
    let ctx = build_ctx(options)?;
    let stop = Arc::new(AtomicBool::new(false));
    spawn_maintenance(&ctx, &stop, options);
    let addr = listener.local_addr()?;
    let scheduler = Arc::clone(&ctx.scheduler);
    let loop_stop = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name(format!("fact-serve-{addr}"))
        .spawn(move || {
            let _ = serve_tcp(&ctx, listener, &loop_stop);
        })?;
    Ok(ServerHandle {
        addr,
        stop,
        thread: Some(thread),
        scheduler,
    })
}

fn serve_stdio(ctx: &Arc<ServeCtx>) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown) = handle_line(ctx, &line);
        writeln!(out, "{}", response.encode())?;
        out.flush()?;
        if shutdown {
            return Ok(());
        }
    }
    ctx.scheduler.drain();
    Ok(())
}

fn serve_tcp(
    ctx: &Arc<ServeCtx>,
    listener: TcpListener,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nonblocking(false)?;
                let ctx = Arc::clone(ctx);
                let stop = Arc::clone(stop);
                std::thread::spawn(move || handle_connection(stream, &ctx, &stop));
            }
            // Nonblocking accept doubles as the stop-flag poll. The
            // beat must stay short: every fresh client or forwarded
            // peer connection waits for it, so it is a floor on wire
            // latency, not just shutdown promptness.
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection(stream: TcpStream, ctx: &Arc<ServeCtx>, stop: &AtomicBool) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    for line in BufReader::new(read_half).lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        // The chaos gate: what the installed plan wants done with this
        // request, before any real handling.
        let action = chaos::on_request();
        match action {
            WireAction::Kill => std::process::exit(chaos::KILL_EXIT_CODE),
            WireAction::Drop => return,
            WireAction::DelayMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
            WireAction::None | WireAction::CloseAfterReply => {}
        }
        let (response, shutdown) = handle_line(ctx, &line);
        let sent = writeln!(writer, "{}", response.encode()).and_then(|()| writer.flush());
        if sent.is_err() {
            return;
        }
        if shutdown {
            stop.store(true, Ordering::Relaxed);
            return;
        }
        if action == WireAction::CloseAfterReply {
            return;
        }
    }
}

/// Answers one request line. The boolean is the shutdown signal: when
/// set, the drain has already completed and the loop should exit after
/// writing the response.
fn handle_line(ctx: &Arc<ServeCtx>, line: &str) -> (Response, bool) {
    let scheduler = &ctx.scheduler;
    let request = match parse_request(line) {
        Ok(r) => r,
        Err((id, message)) => return (Response::error(id, CODE_USAGE, &message), false),
    };
    match request.body {
        RequestBody::Solve {
            model,
            task,
            iters,
            deadline_ms,
            proof,
        } => {
            let span = act_obs::span("serve.request");
            let key = StoreKey::new(&model, &task, iters);
            let hash = key.content_hash();
            // Cluster placement: a non-owner forwards a client's solve
            // to the owners (depth-one — a forwarded line is always
            // answered locally). If every remote owner is down, answer
            // locally anyway: an unplaced answer is still correct.
            if !request.forwarded {
                if let Some(cluster) = ctx.cluster.as_ref().filter(|c| !c.is_owner(hash)) {
                    if let Some(reply) = cluster.forward(hash, line) {
                        if let Ok(response) = serde_json::from_str::<Response>(&reply) {
                            span.finish().bool("ok", response.ok).emit();
                            return (response, false);
                        }
                    }
                }
            }
            let submitted = scheduler.submit(SolveQuery {
                model,
                task,
                iters,
                deadline_ms,
            });
            let mut response = match submitted {
                Submitted::Ready(s) => solve_response(request.id, s),
                Submitted::Pending(rx) => {
                    let served = rx.recv().unwrap_or(Served::Failed {
                        error: "scheduler shut down before answering".into(),
                        code: CODE_DRAINING,
                    });
                    solve_response(request.id, served)
                }
                Submitted::Busy { depth } => Response::backpressure(request.id, depth),
                Submitted::Draining => {
                    Response::error(request.id, CODE_DRAINING, "server is draining")
                }
            };
            if proof && response.authoritative == Some(true) {
                if let Some(p) = scheduler.store().inclusion_proof(&key) {
                    SERVE_MERKLE_PROOFS.add(1);
                    response = response.with_proof(&p);
                }
            }
            span.finish().bool("ok", response.ok).emit();
            (response, false)
        }
        RequestBody::Fpc { spec, runs, seed } => {
            // FPC summaries are answered locally everywhere: the batch
            // is a pure function of the key, so any peer's answer is
            // identical and placement buys nothing.
            let span = act_obs::span("serve.fpc");
            let (stats, source) = ctx.fpc.summary(&spec, runs, seed);
            span.finish().str("source", source).emit();
            (Response::fpc(request.id, stats, source), false)
        }
        RequestBody::Stats => (
            Response::stats(request.id, scheduler.stats_snapshot()),
            false,
        ),
        RequestBody::Shutdown => {
            scheduler.drain();
            chaos::uninstall();
            (Response::shutdown(request.id), true)
        }
        RequestBody::Root => {
            let store = scheduler.store();
            (
                Response::root(request.id, store.merkle_root(), store.merkle_len() as u64),
                false,
            )
        }
        RequestBody::Entries => (
            Response::entries(request.id, &scheduler.store().entry_list()),
            false,
        ),
        RequestBody::Fetch { hash } => (
            Response::fetch(request.id, scheduler.store().raw_entry(hash)),
            false,
        ),
        RequestBody::Replicate { entry } => {
            let accepted = scheduler.store().put_raw_entry(&entry);
            (Response::replicate(request.id, accepted), false)
        }
        RequestBody::Scrub => {
            let report = ctx.scrub();
            (
                Response::scrub(request.id, report, scheduler.store().merkle_root()),
                false,
            )
        }
        RequestBody::SyncNow => {
            let pulled = ctx.sync();
            (
                Response::sync(request.id, pulled, scheduler.store().merkle_root()),
                false,
            )
        }
    }
}

fn solve_response(id: u64, served: Served) -> Response {
    match served {
        Served::Authoritative { verdict, source } => Response::solve(
            id,
            &verdict.verdict,
            verdict.iterations,
            verdict.witness.len() as u64,
            source,
            true,
        ),
        Served::Unreliable {
            verdict,
            iterations,
        } => Response::solve(id, &verdict, iterations, 0, "engine", false),
        Served::Failed { error, code } => Response::error(id, code, &error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CODE_BACKPRESSURE;
    use fact::{ModelSpec, TaskSpec};
    use serde::Value;

    fn test_ctx() -> Arc<ServeCtx> {
        let sched = Scheduler::new(Arc::new(VerdictStore::in_memory()), ServeConfig::default());
        sched.start_workers();
        Arc::new(ServeCtx {
            scheduler: sched,
            cluster: None,
            fpc: FpcCache::in_memory(),
        })
    }

    #[test]
    fn solve_stats_and_errors_round_trip_through_handle_line() {
        let _serial = crate::test_serial_guard();
        let ctx = test_ctx();

        let (resp, shutdown) =
            handle_line(&ctx, r#"{"op":"solve","id":1,"model":"t-res:3:1","k":2}"#);
        assert!(!shutdown);
        assert!(resp.ok);
        // setcon(t-res:3:1) = 2, so 2-set consensus solves at ℓ = 1.
        assert_eq!(resp.verdict.as_deref(), Some("solvable"));
        assert_eq!(resp.authoritative, Some(true));
        assert_eq!(resp.source.as_deref(), Some("engine"));

        // Identical query again: served from the store this time.
        let (resp, _) = handle_line(&ctx, r#"{"op":"solve","id":2,"model":"t-res:3:1","k":2}"#);
        assert_eq!(resp.source.as_deref(), Some("store"));
        assert_eq!(resp.verdict.as_deref(), Some("solvable"));

        let (resp, _) = handle_line(&ctx, r#"{"op":"stats","id":3}"#);
        let stats = resp.stats.expect("stats body");
        assert!(stats.hits >= 1);
        assert!(stats.engine_runs >= 1);
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.merkle_entries, 1);
        assert_ne!(stats.merkle_root, format!("{:032x}", 0));

        let (resp, shutdown) = handle_line(&ctx, r#"{"op":"solve","id":4,"model":"bogus","k":1}"#);
        assert!(!shutdown);
        assert!(!resp.ok);
        assert_eq!(resp.code, Some(CODE_USAGE));

        let (resp, shutdown) = handle_line(&ctx, r#"{"op":"shutdown","id":5}"#);
        assert!(shutdown);
        assert!(resp.ok);
        assert_eq!(resp.op, "shutdown");

        // After the drain, new solves are refused as draining.
        let (resp, _) = handle_line(
            &ctx,
            r#"{"op":"solve","id":6,"model":"t-res:3:1","k":2,"iters":2}"#,
        );
        assert!(!resp.ok);
        assert_eq!(resp.code, Some(CODE_DRAINING));
    }

    #[test]
    fn timed_out_solves_are_reported_but_never_stored() {
        let _serial = crate::test_serial_guard();
        let ctx = test_ctx();
        // t-res:4:2 at k = 2 lies below α(Π) = 3, so no leader-map witness
        // answers it: the search has real work to do, and a zero deadline
        // must expire before it finds the map.
        let line = r#"{"op":"solve","id":1,"model":"t-res:4:2","k":2,"deadline_ms":0}"#;
        let (resp, _) = handle_line(&ctx, line);
        assert!(resp.ok, "a timed-out answer is still an answered request");
        assert_eq!(resp.verdict.as_deref(), Some("timed-out"));
        assert_eq!(resp.authoritative, Some(false));
        let key = SolveQuery {
            model: ModelSpec::parse("t-res:4:2", false).unwrap(),
            task: TaskSpec::set_consensus(4, 2).unwrap(),
            iters: 1,
            deadline_ms: None,
        }
        .key();
        assert!(
            ctx.scheduler.store().get(&key).is_none(),
            "resource outcomes must not be persisted"
        );
        ctx.scheduler.drain();
    }

    #[test]
    fn responses_are_single_json_lines() {
        let _serial = crate::test_serial_guard();
        let ctx = test_ctx();
        let (resp, _) = handle_line(&ctx, r#"{"op":"stats"}"#);
        let encoded = resp.encode();
        assert!(!encoded.contains('\n'));
        let v: Value = serde_json::from_str(&encoded).unwrap();
        assert!(matches!(v.field("op"), Ok(Value::Str(s)) if s == "stats"));
        ctx.scheduler.drain();
    }

    #[test]
    fn proof_requests_carry_verifiable_proofs() {
        let _serial = crate::test_serial_guard();
        let ctx = test_ctx();
        let (resp, _) = handle_line(
            &ctx,
            r#"{"op":"solve","id":1,"model":"t-res:3:1","k":2,"proof":true}"#,
        );
        assert!(resp.ok);
        let proof = resp
            .verified_proof()
            .expect("authoritative solve carries a proof");
        assert_eq!(
            format!("{:032x}", proof.root),
            format!("{:032x}", ctx.scheduler.store().merkle_root())
        );
        // Without the flag, no proof fields ride along.
        let (resp, _) = handle_line(&ctx, r#"{"op":"solve","id":2,"model":"t-res:3:1","k":2}"#);
        assert!(resp.proof_entry.is_none());
        ctx.scheduler.drain();
    }

    #[test]
    fn peer_ops_answer_locally() {
        let _serial = crate::test_serial_guard();
        let ctx = test_ctx();
        let (resp, _) = handle_line(&ctx, r#"{"op":"solve","id":1,"model":"t-res:3:1","k":2}"#);
        assert!(resp.ok);

        let (root_resp, _) = handle_line(&ctx, r#"{"op":"root","id":2}"#);
        assert!(root_resp.ok);
        assert_eq!(root_resp.entry_count, Some(1));
        let root = root_resp.merkle_root.clone().unwrap();

        let (entries_resp, _) = handle_line(&ctx, r#"{"op":"entries","id":3}"#);
        let pairs = entries_resp.decode_entries();
        assert_eq!(pairs.len(), 1);

        let (fetch_resp, _) = handle_line(
            &ctx,
            &format!(r#"{{"op":"fetch","id":4,"hash":"{:032x}"}}"#, pairs[0].0),
        );
        assert!(fetch_resp.ok);
        let entry = fetch_resp.entry.expect("entry bytes");

        // Replicating those bytes into a second server reproduces the
        // root exactly — the anti-entropy convergence argument in
        // miniature.
        let other = test_ctx();
        let line = Response::encode_replicate_request(&entry);
        let (rep_resp, _) = handle_line(&other, &line);
        assert!(rep_resp.ok, "validated bytes are accepted");
        let (other_root, _) = handle_line(&other, r#"{"op":"root","id":5}"#);
        assert_eq!(other_root.merkle_root, Some(root));

        // Tampered bytes are refused.
        let tampered = entry.replace("\"verdict\"", "\"verdicT\"");
        let (rep_resp, _) = handle_line(&other, &Response::encode_replicate_request(&tampered));
        assert!(!rep_resp.ok);

        let (scrub_resp, _) = handle_line(&ctx, r#"{"op":"scrub","id":6}"#);
        let report = scrub_resp.scrub.expect("scrub report");
        assert_eq!(report.corrupt, 0);

        let (sync_resp, _) = handle_line(&ctx, r#"{"op":"sync","id":7}"#);
        assert_eq!(sync_resp.pulled, Some(0), "standalone servers pull nothing");

        ctx.scheduler.drain();
        other.scheduler.drain();
    }

    #[test]
    fn fpc_queries_hit_the_summary_cache_on_the_second_ask() {
        let _serial = crate::test_serial_guard();
        let ctx = test_ctx();
        let hits_before = crate::SERVE_FPC_HITS.get();
        let misses_before = crate::SERVE_FPC_MISSES.get();
        let (first, _) = handle_line(
            &ctx,
            r#"{"op":"fpc","id":1,"spec":"fpc:16:4:berserk","runs":200,"seed":7}"#,
        );
        assert!(first.ok);
        assert_eq!(first.source.as_deref(), Some("engine"));
        let stats = first.fpc.clone().expect("fpc reply carries statistics");
        assert_eq!(stats.runs, 200);
        assert_eq!(stats.spec, "fpc:16:4:berserk:10:500");
        // A different spelling of the same workload shares the content
        // address: the second ask is a store hit with identical stats.
        let (second, _) = handle_line(
            &ctx,
            r#"{"op":"fpc","id":2,"spec":"fpc:16:4:berserk:10:500","runs":200,"seed":7}"#,
        );
        assert_eq!(second.source.as_deref(), Some("store"));
        assert_eq!(second.fpc, Some(stats));
        assert_eq!(crate::SERVE_FPC_MISSES.get() - misses_before, 1);
        assert_eq!(crate::SERVE_FPC_HITS.get() - hits_before, 1);
        // A malformed fpc spec is a code-2 usage error on the wire.
        let (bad, _) = handle_line(&ctx, r#"{"op":"fpc","id":3,"spec":"fpc:1:0:cautious"}"#);
        assert!(!bad.ok);
        assert_eq!(bad.code, Some(CODE_USAGE));
    }

    #[test]
    fn backpressure_replies_carry_retry_hints() {
        let _serial = crate::test_serial_guard();
        let sched = Scheduler::new(
            Arc::new(VerdictStore::in_memory()),
            ServeConfig {
                queue_capacity: 1,
                ..ServeConfig::default()
            },
        );
        // No workers: the queue can only fill.
        let ctx = Arc::new(ServeCtx {
            scheduler: sched,
            cluster: None,
            fpc: FpcCache::in_memory(),
        });
        let (first, _) = handle_line(&ctx, r#"{"op":"stats","id":0}"#);
        assert!(first.ok);
        // Submit one query to fill the queue, then overflow it. The
        // first submit parks a Pending receiver we never read — drop it
        // by handling on a thread would hang, so submit directly.
        let q1 = SolveQuery {
            model: ModelSpec::parse("t-res:3:1", false).unwrap(),
            task: TaskSpec::set_consensus(3, 1).unwrap(),
            iters: 1,
            deadline_ms: None,
        };
        assert!(matches!(ctx.scheduler.submit(q1), Submitted::Pending(_)));
        let (resp, _) = handle_line(
            &ctx,
            r#"{"op":"solve","id":9,"model":"t-res:3:1","k":1,"iters":2}"#,
        );
        assert!(!resp.ok);
        assert_eq!(resp.code, Some(CODE_BACKPRESSURE));
        assert_eq!(resp.retry_after_ms, Some(20), "depth 1 → 20ms hint");
        ctx.scheduler.drain();
    }
}
