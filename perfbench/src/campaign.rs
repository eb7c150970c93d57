//! `campaign`: in-process seeded sampled campaigns on the worker fleet,
//! with a checkpoint per batch and the default invariants armed by the
//! solver check, as `fact-cli campaign` runs them.
//!
//! Two phases run with their batches interleaved: `t-res:3:1`
//! adversarial runs at a 25% fault rate and `fpc:32:8:berserk:20:500` FPC
//! runs (quorum 20 from an even start: no agreement failure in 800 000
//! seeded runs, where quorum 10 from a 60% start fails about once in
//! 50 000). Each phase is a series of campaigns of one checkpointed batch
//! each, so a batch's wall time is observable. No service layer runs. The traced run times
//! single runs and invariant checks, measures the fleet against one
//! worker, and replays the context's solver check.

use std::sync::Arc;
use std::time::Instant;

use act_campaign::{
    check_all, load_latest_checkpoint, run_campaign_in, run_fpc_campaign, selected_invariants,
    CampaignConfig, CampaignContext, CampaignReport, Coverage, MonotonicityGuard, RunRecord, Scope,
};
use act_fpc::stats::derive_seed;
use act_fpc::{simulate_run, FpcSpec};
use act_runtime::{run_adversarial, run_adversarial_with_faults, FaultPlan};
use act_tasks::SearchConfig;
use act_topology::ProcessId;
use fact::{AlgorithmOneSystem, ModelSpec, TaskSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::solve_sweep::EngineReplay;
use crate::trace::Tracer;
use crate::util::{self, Scratch};
use crate::{Ctx, Outcome};

const MODEL: &str = "t-res:3:1";
const FPC_MODEL: &str = "fpc:32:8:berserk:20:500";
const FAULT_RATE_PERCENT: u8 = 25;
const MAX_STEPS: usize = 500_000;
/// Runs per adversarial batch (one campaign, one checkpoint line).
const ADV_BATCH: u64 = 20_000;
/// Runs per FPC batch.
const FPC_BATCH: u64 = 2_000;
/// Context builds per run (the median is `setup_s`).
const SETUP_REPEATS: usize = 61;
/// Runs timed one by one in the traced run.
const TRACED_RUNS: u64 = 50_000;
const TRACED_FPC_RUNS: u64 = 2_000;

fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Batches per phase: the two phases together take about `seconds` on a
/// 2-core host.
fn batches(seconds: f64) -> (usize, usize) {
    let scale = seconds / 10.0;
    (
        ((24.0 * scale) as usize).max(4),
        ((40.0 * scale) as usize).max(8),
    )
}

fn config(
    ctx: &Ctx,
    scratch: &Scratch,
    model: &str,
    samples: u64,
    index: usize,
    workers: usize,
) -> CampaignConfig {
    let mut c = CampaignConfig::new(model);
    c.scope = Scope::Sampled { samples };
    c.seed = ctx
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64);
    c.workers = workers;
    c.batch = samples;
    c.max_steps = MAX_STEPS;
    c.fault_rate_percent = FAULT_RATE_PERCENT;
    let dir = scratch.fresh(&format!(
        "{}-{index}-w{workers}",
        if c.is_fpc() { "fpc" } else { "adv" }
    ));
    c.checkpoint = Some(dir.join("checkpoint.jsonl"));
    c.artifacts = Some(dir.join("artifacts"));
    c
}

/// Checks one batch's report (and, for the first batch of a phase, its
/// checkpoint line) and folds its coverage into `digest`.
fn check_batch(
    out: &mut Outcome,
    config: &CampaignConfig,
    report: &CampaignReport,
    samples: u64,
    check_checkpoint: bool,
    digest: &mut String,
) {
    let c = &report.coverage;
    if !report.done || report.cursor != samples || c.runs != samples {
        out.fail(format!(
            "{}: batch ran {} of {samples} runs",
            config.model, c.runs
        ));
    }
    if c.violations != 0 || !report.artifact_sigs.is_empty() {
        out.fail(format!(
            "{}: {} invariant violation(s): {:?}",
            config.model, c.violations, c.invariant_violations
        ));
    }
    if check_checkpoint {
        let path = config.checkpoint.as_ref().expect("batches checkpoint");
        match load_latest_checkpoint(path, &config.fingerprint_hex()) {
            Ok(Some(cp)) if cp.coverage == *c && cp.done => {}
            other => out.fail(format!(
                "{}: checkpoint does not match the report: {other:?}",
                config.model
            )),
        }
    }
    digest.push_str(&coverage_line(c));
}

fn coverage_line(c: &Coverage) -> String {
    format!(
        "runs {} steps {} live {} faulted {} faults {} facets {} fp {}\n",
        c.runs,
        c.steps,
        c.live,
        c.faulted_runs,
        c.faults_applied,
        c.facets.len(),
        util::digest(&format!("{:?}", c.facets))
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let scratch = Scratch::new(&ctx.out, "campaign");
    let mut setups = Vec::new();
    let mut context = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let built = CampaignContext::new(MODEL, true);
        setups.push(t0.elapsed().as_secs_f64());
        context = Some(built);
    }
    let context = match context.expect("at least one set-up") {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("campaign context: {e}"));
            return out;
        }
    };
    if context.solver_solvable != Some(true) {
        out.fail(format!(
            "solver check for {MODEL}: {:?}, expected solvable",
            context.solver_solvable
        ));
    }
    let w = workers();
    let (adv_batches, fpc_batches) = batches(ctx.seconds);

    if ctx.trace {
        traced(ctx, &mut out, &scratch, &context, w);
        return out;
    }
    out.metric("setup_s", util::median(&setups));

    // The two phases' batches interleave in proportion, so each phase
    // sees the host's speed over the whole run, not over one half of it.
    let (mut adv_digest, mut fpc_digest) = (String::new(), String::new());
    let (mut adv_runs, mut adv_wall, mut adv_ms) = (0u64, 0.0f64, Vec::new());
    let (mut fpc_runs, mut fpc_wall, mut fpc_ms) = (0u64, 0.0f64, Vec::new());
    while adv_ms.len() < adv_batches || fpc_ms.len() < fpc_batches {
        let (a, f) = (adv_ms.len(), fpc_ms.len());
        if f == fpc_batches || (a < adv_batches && a * fpc_batches <= f * adv_batches) {
            let config = config(ctx, &scratch, MODEL, ADV_BATCH, a, w);
            let t0 = Instant::now();
            let report = run_campaign_in(&context, &config);
            let wall = t0.elapsed().as_secs_f64();
            out.attempted += ADV_BATCH;
            match report {
                Ok(report) => {
                    check_batch(
                        &mut out,
                        &config,
                        &report,
                        ADV_BATCH,
                        a == 0,
                        &mut adv_digest,
                    );
                    adv_runs += report.coverage.runs;
                }
                Err(e) => {
                    out.failed += ADV_BATCH;
                    out.fail(format!("adversarial batch {a}: {e}"));
                }
            }
            adv_wall += wall;
            adv_ms.push(wall * 1e3);
        } else {
            let config = config(ctx, &scratch, FPC_MODEL, FPC_BATCH, f, w);
            let t0 = Instant::now();
            let report = run_fpc_campaign(&config);
            let wall = t0.elapsed().as_secs_f64();
            out.attempted += FPC_BATCH;
            match report {
                Ok(report) => {
                    check_batch(
                        &mut out,
                        &config,
                        &report,
                        FPC_BATCH,
                        f == 0,
                        &mut fpc_digest,
                    );
                    fpc_runs += report.coverage.runs;
                }
                Err(e) => {
                    out.failed += FPC_BATCH;
                    out.fail(format!("fpc batch {f}: {e}"));
                }
            }
            fpc_wall += wall;
            fpc_ms.push(wall * 1e3);
        }
    }
    let coverage_digest = util::digest(&(adv_digest + &fpc_digest));
    if let Err(e) = util::check_stable_digest(
        &ctx.out,
        &format!(
            "campaign-seed{}-batches{adv_batches}x{fpc_batches}",
            ctx.seed
        ),
        &coverage_digest,
    ) {
        out.fail(e);
    }

    // Throughput over the batch at the 75th percentile of wall time: a
    // shared host has fast spells as well as slow ones, and the share of
    // fast batches in a run moved the median-batch rate by a quarter
    // between runs. A rate three batches in four reach leaves most fast
    // spells out. The median-batch and whole-phase rates are printed.
    let adv_sorted = util::sorted(adv_ms);
    let runs_per_s = ADV_BATCH as f64 / (util::percentile(&adv_sorted, 75.0) / 1e3);
    let median_runs_per_s = ADV_BATCH as f64 / (util::median(&adv_sorted) / 1e3);
    let phase_runs_per_s = adv_runs as f64 / adv_wall;
    let fpc_runs_per_s = fpc_runs as f64 / fpc_wall;
    let fpc_sorted = util::sorted(fpc_ms);
    let tail_p = util::tail_percentile(fpc_sorted.len());
    out.metric("throughput_per_s", runs_per_s);
    out.metric("latency_p50_ms", util::percentile(&fpc_sorted, 50.0));
    out.metric("latency_tail_ms", util::percentile(&fpc_sorted, tail_p));
    out.note(format!(
        "adversarial: {adv_batches} batches x {ADV_BATCH} runs on {w} worker(s): runs_per_s {runs_per_s:.1} over the p75 batch ({:.3} ms), {median_runs_per_s:.1} over the median batch, {phase_runs_per_s:.1} over the phase",
        util::percentile(&adv_sorted, 75.0)
    ));
    out.note(format!(
        "fpc: {fpc_batches} batches x {FPC_BATCH} runs: fpc_runs_per_s {fpc_runs_per_s:.1}, batch p50 {:.3} ms, p{tail_p} {:.3} ms",
        util::percentile(&fpc_sorted, 50.0),
        util::percentile(&fpc_sorted, tail_p)
    ));
    out.note(format!(
        "coverage digest {coverage_digest} (seed {})",
        ctx.seed
    ));
    out.note(
        "throughput = adversarial runs_per_s over the p75 batch; latency = wall time of one checkpointed FPC batch"
            .into(),
    );
    out
}

/// One seeded adversarial run as the fleet executes it, timed in two
/// spans: the run itself and the invariant check.
fn timed_run(
    tracer: &Tracer,
    context: &CampaignContext,
    invariants: &[Box<dyn act_campaign::Invariant>],
    rng: &mut ChaCha8Rng,
    index: u64,
) -> (usize, bool) {
    let n = context.participants.len();
    let correct = context.live_sets[rng.gen_range(0..context.live_sets.len())];
    let budgets: Vec<usize> = (0..n).map(|_| rng.gen_range(0..4usize)).collect();
    let mut run_rng = ChaCha8Rng::seed_from_u64(rng.gen_range(0..u64::MAX));
    let fault_plan = (rng.gen_range(0..100u8) < FAULT_RATE_PERCENT)
        .then(|| FaultPlan::seeded(rng.gen_range(0..u64::MAX), n, 64));
    let root = tracer.open("request.run", None, index);
    let mut guard = MonotonicityGuard::new(AlgorithmOneSystem::new(
        &context.alpha,
        context.participants,
    ));
    let outcome = tracer.scope("runtime.run", root, index, || match &fault_plan {
        Some(plan) => {
            run_adversarial_with_faults(
                &mut guard,
                context.participants,
                correct,
                &mut run_rng,
                |p: ProcessId| budgets[p.index()],
                MAX_STEPS,
                plan,
            )
            .0
        }
        None => run_adversarial(
            &mut guard,
            context.participants,
            correct,
            &mut run_rng,
            |p: ProcessId| budgets[p.index()],
            MAX_STEPS,
        ),
    });
    let violated = tracer.scope("campaign.invariants", root, index, || {
        let outputs = guard.inner().outputs();
        let record = RunRecord {
            outcome: &outcome,
            participants: context.participants,
            truncated_by_depth: false,
            monotonicity_ok: guard.ok(),
            outputs: &outputs,
            fault_plan: fault_plan.as_ref(),
            max_steps: MAX_STEPS,
        };
        check_all(invariants, context, &record)
    });
    tracer.close(root);
    (outcome.steps, violated.is_empty())
}

fn traced(ctx: &Ctx, out: &mut Outcome, scratch: &Scratch, context: &CampaignContext, w: usize) {
    let invariants = selected_invariants(None).expect("default invariants");

    // The fleet first, before the traced passes fill memory with spans:
    // the same batches at one worker and at `w`; coverage must not depend
    // on the worker count.
    let fleet_batches = 4;
    let mut wall = [0.0f64; 2];
    let mut runs = [0u64; 2];
    for b in 0..fleet_batches {
        let mut coverage = Vec::new();
        for (slot, workers) in [1, w].into_iter().enumerate() {
            let config = config(ctx, scratch, MODEL, ADV_BATCH, b, workers);
            let t0 = Instant::now();
            match run_campaign_in(context, &config) {
                Ok(report) => {
                    wall[slot] += t0.elapsed().as_secs_f64();
                    runs[slot] += report.coverage.runs;
                    coverage.push(report.coverage);
                }
                Err(e) => out.fail(format!("fleet batch {b} at {workers} worker(s): {e}")),
            }
            out.attempted += ADV_BATCH;
        }
        if coverage.len() == 2 && coverage[0] != coverage[1] {
            out.fail(format!(
                "fleet batch {b}: coverage differs between 1 and {w} worker(s)"
            ));
        }
    }

    // Single runs, without spans, with spans, and without again; the
    // overhead compares the traced pass with the mean untraced one.
    let untraced_pass = |salt: u64| {
        let silent = Tracer::new(false);
        let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed ^ 0xCA4 ^ salt);
        let t0 = Instant::now();
        for i in 0..TRACED_RUNS {
            timed_run(&silent, context, &invariants, &mut rng, i);
        }
        t0.elapsed().as_secs_f64()
    };
    let untraced_first = untraced_pass(0);
    let tracer = Arc::new(Tracer::new(true));
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed ^ 0xCA4);
    let t0 = Instant::now();
    let mut steps = 0u64;
    for i in 0..TRACED_RUNS {
        let (s, clean) = timed_run(&tracer, context, &invariants, &mut rng, i);
        steps += s as u64;
        if !clean {
            out.fail(format!("traced run {i} violated an invariant"));
        }
    }
    let traced_s = t0.elapsed().as_secs_f64();
    let untraced_s = (untraced_first + untraced_pass(0)) / 2.0;
    out.attempted += 3 * TRACED_RUNS;
    out.metric("trace_overhead_share", traced_s / untraced_s - 1.0);
    let run_us: Vec<f64> = tracer
        .durations_ns("runtime.run")
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    let inv_us: Vec<f64> = tracer
        .durations_ns("campaign.invariants")
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    out.metric("runtime.run_us", util::median(&run_us));
    out.metric("runtime.steps", steps as f64 / TRACED_RUNS as f64);
    out.metric("campaign.invariants_us", util::median(&inv_us));
    let busy_per_run_s =
        (run_us.iter().sum::<f64>() + inv_us.iter().sum::<f64>()) / 1e6 / TRACED_RUNS as f64;

    // FPC runs one by one.
    let spec = FpcSpec::parse(FPC_MODEL).expect("fpc spec parses");
    let mut rounds = Vec::new();
    for i in 0..TRACED_FPC_RUNS {
        let root = tracer.open("request.fpc", None, i);
        let outcome = tracer.scope("fpc.run", root, i, || {
            simulate_run(&spec, derive_seed(ctx.seed, i), false)
        });
        tracer.close(root);
        if !outcome.agreement_ok || outcome.post_finalization_flips != 0 {
            out.fail(format!("fpc run {i} broke agreement or finality"));
        }
        rounds.push(outcome.rounds as f64);
    }
    out.attempted += TRACED_FPC_RUNS;
    let fpc_us: Vec<f64> = tracer
        .durations_ns("fpc.run")
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    out.metric("fpc.run_us", util::median(&fpc_us));
    out.metric("fpc.rounds_p50", util::median(&rounds));

    let rps1 = runs[0] as f64 / wall[0];
    let rpsw = runs[1] as f64 / wall[1];
    out.metric("campaign.fleet_efficiency", rpsw / (w as f64 * rps1));
    out.metric(
        "campaign.fleet_idle_share",
        1.0 - runs[1] as f64 * busy_per_run_s / (w as f64 * wall[1]),
    );
    out.note(format!(
        "fleet: {rps1:.1} runs/s at 1 worker, {rpsw:.1} at {w}; per-run busy {:.2} us",
        busy_per_run_s * 1e6
    ));

    // The context build's solver check, replayed through the engine's
    // public calls (k = setcon, deepening to 2 levels).
    let model = ModelSpec::parse(MODEL, false).expect("model parses");
    let k = context
        .alpha
        .alpha(context.participants)
        .clamp(1, model.num_processes() - 1);
    let task = TaskSpec::set_consensus(model.num_processes(), k)
        .expect("setcon task")
        .task();
    let mut engine = EngineReplay::begin(SearchConfig::new(5_000_000), None);
    let root = tracer.open("request.context", None, 0);
    let mut slot = engine.slot(&tracer, root, 0, &model);
    let verdict = engine.decide(&tracer, root, 0, &mut slot, &task, 2);
    tracer.close(root);
    engine.finish(out, &tracer);
    if !verdict.is_solvable() {
        out.fail(format!(
            "replayed solver check for {MODEL}: {}",
            verdict.verdict_name()
        ));
    }

    out.metric("unaccounted_share", tracer.unaccounted_share());
    let _ = tracer.write_jsonl(&ctx.spans_path("runs"));
}
