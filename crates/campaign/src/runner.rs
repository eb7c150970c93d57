//! The campaign engine: the model context, the one chassis every run
//! family shares (`RunFamily`, `run_chassis`, `run_sampled`, `settle`),
//! and the adversarial family; the FPC family is in [`crate::fpc`].
//!
//! Determinism is the design invariant everything else hangs off:
//! every sampled run is a pure function of `(campaign seed, run index)`
//! — correct set, crash budgets, scheduler RNG seed, fault plan — so
//! coverage is independent of the worker count and a resumed campaign
//! re-derives exactly the runs an uninterrupted one would have
//! executed. Batches are the atom of progress: violations found in a
//! batch are deduplicated and persisted *before* the batch's
//! checkpoint line is appended, so a kill at any point loses at most
//! one batch of work and never an artifact a checkpoint claims.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use act_adversary::AgreementFunction;
use act_affine::{fair_affine_task, AffineTask};
use act_runtime::{
    explore_iter, run_adversarial, run_adversarial_with_faults, ExploreOrder, FaultPlan, Trace,
    TraceArtifact,
};
use act_topology::{ColorSet, ProcessId};
use fact::{
    set_consensus_verdict_cached, AlgorithmOneSystem, DomainCache, DomainExpansion, ModelSpec,
    Solvability, TaskSpec,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use crate::checkpoint::{
    append_checkpoint, load_latest_checkpoint, Checkpoint, Coverage, CHECKPOINT_SCHEMA_VERSION,
};
use crate::invariants::{check_all, selected_invariants, Invariant, MonotonicityGuard, RunRecord};
use crate::shrink::shrink_violation;
use crate::signature::{signature_hex, violation_signature};
use crate::{
    chaos, CampaignConfig, Scope, CAMPAIGN_ARTIFACTS, CAMPAIGN_CHECKPOINTS, CAMPAIGN_DEDUPED,
    CAMPAIGN_RUNS, CAMPAIGN_VIOLATIONS, INJECTED_MAX_STEPS,
};

/// Everything about the model a campaign precomputes once and shares
/// (immutably) across workers and batches: the adversary, its agreement
/// function α, the affine task `R_A`, the live sets runs draw their
/// correct sets from, and the solver's one-off solvability verdict that
/// arms the `verdict-agreement` invariant.
pub struct CampaignContext {
    /// The parsed model spec.
    pub spec: ModelSpec,
    /// The model's agreement function α.
    pub alpha: AgreementFunction,
    /// The affine task `R_A` capturing the model (FACT Theorem 15/16).
    pub affine: AffineTask,
    /// The adversary's live sets, sorted by bit pattern, the population
    /// correct sets are drawn from.
    pub live_sets: Vec<ColorSet>,
    /// The full participant set.
    pub participants: ColorSet,
    /// `Some(true)` when the solver found the model's canonical
    /// set-consensus task solvable via `R_A` (the `verdict-agreement`
    /// invariant is armed), `Some(false)` when it committed to
    /// unsolvable or gave an inconclusive verdict, `None` when the
    /// check was skipped ([`CampaignConfig::solver_check`] off).
    pub solver_solvable: Option<bool>,
}

impl CampaignContext {
    /// Builds the context for `model` (a [`ModelSpec`] string). With
    /// `solver_check`, runs the set-consensus solver once for the
    /// model's setcon level so runs can be judged against its verdict.
    pub fn new(model: &str, solver_check: bool) -> Result<CampaignContext, String> {
        CampaignContext::new_with_oracle(model, solver_check, false)
    }

    /// Like [`Self::new`], but with `quotient_oracle` set the solver
    /// check runs **twice** — once over directly expanded subdivision
    /// towers ([`DomainExpansion::Direct`]) and once over the
    /// symmetry-quotiented, orbit-shared towers
    /// ([`DomainExpansion::OrbitShared`]) — and demands verdict parity.
    /// Quotient-then-expand equals direct expansion by construction, so
    /// a disagreement is a genuine engine bug; the context (and thus
    /// the whole campaign) fails loudly rather than arming the
    /// `verdict-agreement` invariant with a verdict the engine itself
    /// cannot agree on. Requires `solver_check` to have any effect.
    pub fn new_with_oracle(
        model: &str,
        solver_check: bool,
        quotient_oracle: bool,
    ) -> Result<CampaignContext, String> {
        let spec = ModelSpec::parse(model, false)?;
        // Adversarial campaigns schedule real runs against the model's
        // live sets, so they need an adversary — α-only specs (which
        // have no unique adversary) are solve/serve-side models.
        let adversary = spec
            .adversary()
            .map_err(|e| format!("campaigns need an adversary-backed model: {e}"))?;
        let n = adversary.num_processes();
        let participants = ColorSet::full(n);
        let alpha = AgreementFunction::of_adversary(&adversary);
        if alpha.alpha(participants) == 0 {
            return Err("the model admits no runs (alpha(full) = 0)".to_string());
        }
        let mut live_sets: Vec<ColorSet> =
            adversary.live_sets().filter(|s| !s.is_empty()).collect();
        live_sets.sort_by_key(|s| s.bits());
        if live_sets.is_empty() {
            return Err("the adversary has no non-empty live sets".to_string());
        }
        let affine = fair_affine_task(&alpha);
        let solver_solvable = if solver_check && n >= 2 {
            // The model's canonical decision problem: setcon(A)-set
            // consensus (clamped to the task-spec range 1..n).
            let k = adversary.setcon().clamp(1, n - 1);
            let task = TaskSpec::set_consensus(n, k)?.task();
            let verdict = solver_verdict(&task, &affine, DomainExpansion::OrbitShared);
            let solvable = matches!(verdict, Solvability::Solvable { .. });
            if quotient_oracle {
                let direct = solver_verdict(&task, &affine, DomainExpansion::Direct);
                let direct_solvable = matches!(direct, Solvability::Solvable { .. });
                if solvable != direct_solvable {
                    return Err(format!(
                        "quotient oracle: verdict disagreement for {k}-set consensus \
                         under {model}: orbit-shared towers say solvable={solvable}, \
                         directly expanded towers say solvable={direct_solvable}"
                    ));
                }
            }
            Some(solvable)
        } else {
            None
        };
        Ok(CampaignContext {
            spec,
            alpha,
            affine,
            live_sets,
            participants,
            solver_solvable,
        })
    }
}

/// One solver pass under a fixed subdivision strategy: level 1 first,
/// escalating to level 2 when level 1 is inconclusive (mirrors the
/// single-expansion check campaigns have always run).
fn solver_verdict(
    task: &act_tasks::SetConsensus,
    affine: &AffineTask,
    expansion: DomainExpansion,
) -> Solvability {
    let mut cache = DomainCache::new().with_expansion(expansion);
    let mut verdict = set_consensus_verdict_cached(&mut cache, task, affine, 1, 5_000_000);
    if matches!(verdict, Solvability::NoMapUpTo { .. }) {
        verdict = set_consensus_verdict_cached(&mut cache, task, affine, 2, 5_000_000);
    }
    verdict
}

/// A violating run, as found (pre-shrink).
#[derive(Clone, Debug)]
pub struct Violation {
    /// The run's campaign index (sampled tier) or enumeration ordinal
    /// (exhaustive tier).
    pub index: u64,
    /// Sorted names of the violated invariants.
    pub violated: Vec<String>,
    /// The replayable trace of the run as executed.
    pub trace: Trace,
    /// The step bound the run was driven under.
    pub max_steps: usize,
    /// Whether the violation was force-injected.
    pub injected: bool,
}

/// What one campaign invocation did (a resumed invocation reports the
/// *cumulative* coverage, including the resumed-from prefix).
#[derive(Debug)]
pub struct CampaignReport {
    /// Cumulative coverage through `cursor`.
    pub coverage: Coverage,
    /// Runs completed.
    pub cursor: u64,
    /// Whether the population is exhausted.
    pub done: bool,
    /// The cursor this invocation resumed from (0 for a fresh start).
    pub resumed_from: u64,
    /// Artifacts written by *this* invocation, in emission order.
    pub new_artifacts: Vec<PathBuf>,
    /// All artifact signatures (the dedup set), sorted.
    pub artifact_sigs: Vec<String>,
    /// Wall-clock of this invocation, microseconds.
    pub elapsed_us: u64,
}

impl CampaignReport {
    /// Throughput of this invocation (runs newly executed over its
    /// wall-clock).
    pub fn runs_per_sec(&self) -> f64 {
        let executed = (self.cursor - self.resumed_from) as f64;
        if self.elapsed_us == 0 {
            return 0.0;
        }
        executed / (self.elapsed_us as f64 / 1e6)
    }
}

/// Builds the model context and runs the campaign. Convenience wrapper
/// over [`run_campaign_in`] for callers (like the CLI) that run one
/// campaign per context. `fpc:` models dispatch to the FPC run family
/// ([`run_fpc_campaign`](crate::fpc::run_fpc_campaign)); everything
/// else is an adversarial campaign.
pub fn run_campaign(config: &CampaignConfig) -> Result<CampaignReport, String> {
    if config.is_fpc() {
        return crate::fpc::run_fpc_campaign(config);
    }
    let ctx = CampaignContext::new_with_oracle(
        &config.model,
        config.solver_check,
        config.quotient_oracle,
    )?;
    run_campaign_in(&ctx, config)
}

/// Runs a campaign against a prebuilt context (tests and benchmarks
/// reuse one context across many campaigns; `ctx` must have been built
/// from `config.model`).
pub fn run_campaign_in(
    ctx: &CampaignContext,
    config: &CampaignConfig,
) -> Result<CampaignReport, String> {
    let timer = act_obs::timer("campaign.run");
    check_config(config)?;
    let invariants = selected_invariants(config.invariants.as_deref())?;
    let family = Adversarial {
        ctx,
        config,
        invariants: &invariants,
        injected: config.injected_indices(),
    };
    run_chassis(config, timer, |state| match config.scope {
        Scope::Sampled { samples } => run_sampled(&family, config, samples, state),
        Scope::Exhaustive { max_depth } => run_exhaustive(&family, config, max_depth, state),
    })
}

/// One family of campaign runs: how run `i` executes and is judged, and
/// how a violation persists. The chassis below owns the rest (config
/// checks, resume, batches, the fleet, dedup, artifacts, checkpoints);
/// dispatch is generic, so each family's per-run code is monomorphised.
pub(crate) trait RunFamily: Sync {
    /// A violating run, as found.
    type Violation: Send;
    /// The persisted form of a deduplicated violation.
    type Artifact: Serialize;
    /// Artifact files are named `<stem>-<signature>.json`.
    const ARTIFACT_STEM: &'static str;
    /// The obs event emitted per written artifact.
    const ARTIFACT_EVENT: &'static str;
    /// The obs event emitted per settled batch.
    const BATCH_EVENT: &'static str;

    /// Executes, judges and accounts run `index` into `coverage` (a pure
    /// function of the campaign seed and the index); returns its violation.
    fn run(&self, index: u64, coverage: &mut Coverage) -> Option<Self::Violation>;
    /// A violation's campaign index and the sorted invariants it broke.
    fn describe(violation: &Self::Violation) -> (u64, &[String]);
    /// A violation's dedup signature and its artifact.
    fn artifact(&self, violation: &Self::Violation) -> (String, Self::Artifact);
}

/// The config checks every family shares.
pub(crate) fn check_config(config: &CampaignConfig) -> Result<(), String> {
    if config.batch == 0 {
        return Err("batch size must be at least 1".to_string());
    }
    if config.resume && config.checkpoint.is_none() {
        return Err("--resume requires a checkpoint file".to_string());
    }
    Ok(())
}

/// The mutable campaign state a checkpoint line snapshots.
#[derive(Default)]
pub(crate) struct CampaignState {
    fingerprint: String,
    coverage: Coverage,
    cursor: u64,
    done: bool,
    sigs: BTreeSet<String>,
    artifacts_written: u64,
    new_artifacts: Vec<PathBuf>,
}

/// The chassis around a tier: resumes from the latest checkpoint when
/// asked, runs `tier` unless the population is already exhausted, and
/// reports, finishing `timer` with the final cursor.
pub(crate) fn run_chassis(
    config: &CampaignConfig,
    timer: act_obs::Span,
    tier: impl FnOnce(&mut CampaignState) -> Result<(), String>,
) -> Result<CampaignReport, String> {
    let mut state = CampaignState {
        fingerprint: config.fingerprint_hex(),
        ..CampaignState::default()
    };
    if config.resume {
        let path = config.checkpoint.as_ref().expect("checked by check_config");
        if let Some(cp) = load_latest_checkpoint(path, &state.fingerprint)? {
            state.coverage = cp.coverage;
            state.cursor = cp.cursor;
            state.done = cp.done;
            state.sigs = cp.artifact_sigs.into_iter().collect();
            state.artifacts_written = cp.artifacts_written;
        }
    }
    let resumed_from = state.cursor;
    if !state.done {
        tier(&mut state)?;
    }

    let elapsed_us = timer.elapsed_us().unwrap_or(0);
    timer
        .finish()
        .u64("cursor", state.cursor)
        .bool("done", state.done)
        .emit();
    Ok(CampaignReport {
        coverage: state.coverage,
        cursor: state.cursor,
        done: state.done,
        resumed_from,
        new_artifacts: state.new_artifacts,
        artifact_sigs: state.sigs.into_iter().collect(),
        elapsed_us,
    })
}

/// The sampled tier, shared by every family: batches of contiguous run
/// indices fanned out over the worker fleet, each settled (and
/// checkpointed) before the next starts.
pub(crate) fn run_sampled<F: RunFamily>(
    family: &F,
    config: &CampaignConfig,
    samples: u64,
    state: &mut CampaignState,
) -> Result<(), String> {
    while state.cursor < samples {
        chaos::maybe_kill(state.cursor);
        let end = (state.cursor + config.batch).min(samples);
        let (batch_coverage, violations) = run_fleet(family, config.workers, state.cursor, end);
        state.coverage.absorb(&batch_coverage);
        state.cursor = end;
        state.done = state.cursor == samples;
        settle(family, config, violations, state)?;
    }
    Ok(())
}

/// Fans a contiguous index range out over the worker fleet. Workers get
/// contiguous sub-ranges; because each run is derived purely from its
/// index, the merged coverage is identical for any worker count. A
/// worker panic is propagated (the campaign dies mid-batch, exactly
/// like a kill — the previous checkpoint stays authoritative).
fn run_fleet<F: RunFamily>(
    family: &F,
    workers: usize,
    start: u64,
    end: u64,
) -> (Coverage, Vec<F::Violation>) {
    let count = end - start;
    let workers = (workers.max(1) as u64).min(count).max(1);
    let chunk = count.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (start..end)
            .step_by(chunk as usize)
            .map(|lo| {
                scope.spawn(move || {
                    let mut coverage = Coverage::default();
                    let mut violations = Vec::new();
                    for index in lo..(lo + chunk).min(end) {
                        violations.extend(family.run(index, &mut coverage));
                    }
                    (coverage, violations)
                })
            })
            .collect();
        let mut coverage = Coverage::default();
        let mut violations = Vec::new();
        for handle in handles {
            match handle.join() {
                Ok((c, v)) => {
                    coverage.absorb(&c);
                    violations.extend(v);
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        violations.sort_by_key(|v| F::describe(v).0);
        (coverage, violations)
    })
}

/// The coverage accounting every run shares, whatever its family or
/// tier: the steps it executed, whether it finished live, the facet it
/// decided into (if any), and the sorted invariants it violated.
pub(crate) fn account_run(
    coverage: &mut Coverage,
    steps: u64,
    live: bool,
    facet: Option<u64>,
    violated: &[String],
    injected: bool,
) {
    coverage.runs += 1;
    coverage.steps += steps;
    CAMPAIGN_RUNS.add(1);
    if live {
        coverage.live += 1;
    }
    coverage.facets.extend(facet);
    if !violated.is_empty() {
        coverage.violations += 1;
        if injected {
            coverage.injected_violations += 1;
        }
        for name in violated {
            *coverage
                .invariant_violations
                .entry(name.clone())
                .or_insert(0) += 1;
        }
        CAMPAIGN_VIOLATIONS.add(1);
    }
}

/// Deduplicates and persists a batch's violations, then appends the
/// batch's checkpoint line. Order matters: artifacts land on disk
/// before the checkpoint that records their signatures, so a checkpoint
/// never claims an artifact that does not exist.
fn settle<F: RunFamily>(
    family: &F,
    config: &CampaignConfig,
    violations: Vec<F::Violation>,
    state: &mut CampaignState,
) -> Result<(), String> {
    let dir = config
        .artifacts
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/campaign-artifacts"));
    for violation in violations {
        let (sig, artifact) = family.artifact(&violation);
        if state.sigs.insert(sig.clone()) {
            let path = write_artifact(&dir, F::ARTIFACT_STEM, &sig, &artifact)?;
            state.artifacts_written += 1;
            CAMPAIGN_ARTIFACTS.add(1);
            let (index, violated) = F::describe(&violation);
            act_obs::event(F::ARTIFACT_EVENT)
                .str("signature", &sig)
                .str("path", &path.display().to_string())
                .str("violated", &violated.join("+"))
                .u64("run_index", index)
                .emit();
            state.new_artifacts.push(path);
        } else {
            state.coverage.deduped += 1;
            CAMPAIGN_DEDUPED.add(1);
        }
    }
    if let Some(path) = &config.checkpoint {
        let checkpoint = Checkpoint {
            schema: CHECKPOINT_SCHEMA_VERSION,
            fingerprint: state.fingerprint.clone(),
            cursor: state.cursor,
            done: state.done,
            coverage: state.coverage.clone(),
            artifact_sigs: state.sigs.iter().cloned().collect(),
            artifacts_written: state.artifacts_written,
        };
        append_checkpoint(path, &checkpoint)?;
        CAMPAIGN_CHECKPOINTS.add(1);
    }
    act_obs::event(F::BATCH_EVENT)
        .u64("cursor", state.cursor)
        .u64("violations", state.coverage.violations)
        .bool("done", state.done)
        .emit();
    Ok(())
}

/// Writes an artifact as `<stem>-<sig>.json` (atomically: temp file +
/// rename, keyed by signature so a resumed campaign rewrites
/// byte-identical content instead of duplicating).
fn write_artifact(
    dir: &Path,
    stem: &str,
    sig: &str,
    artifact: &impl Serialize,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating artifact dir {dir:?}: {e}"))?;
    let json =
        serde_json::to_string_pretty(artifact).map_err(|e| format!("serializing artifact: {e}"))?;
    let path = dir.join(format!("{stem}-{sig}.json"));
    let tmp = dir.join(format!(".{stem}-{sig}.json.tmp"));
    std::fs::write(&tmp, json).map_err(|e| format!("writing artifact {tmp:?}: {e}"))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("publishing artifact {path:?}: {e}"))?;
    Ok(path)
}

/// The adversarial run family: Algorithm 1 under the adversarial
/// scheduler, run `i` drawn by `derive_plan` from `(seed, i)`.
struct Adversarial<'a> {
    ctx: &'a CampaignContext,
    config: &'a CampaignConfig,
    invariants: &'a [Box<dyn Invariant>],
    injected: Vec<u64>,
}

impl Adversarial<'_> {
    /// Draws run `index`'s [`RunPlan`].
    fn derive_plan(&self, index: u64) -> RunPlan {
        let (ctx, config) = (self.ctx, self.config);
        let n = ctx.participants.len();
        let mut stream = config
            .seed
            .wrapping_add((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let correct_draw = splitmix64(&mut stream);
        let budgets: Vec<usize> = (0..n)
            .map(|_| (splitmix64(&mut stream) % 4) as usize)
            .collect();
        let rng_seed = splitmix64(&mut stream);
        let fault_draw = splitmix64(&mut stream);
        let fault_seed = splitmix64(&mut stream);
        if self.injected.binary_search(&index).is_ok() {
            // A synthetic liveness violation: the full set must decide but
            // the run is cut off after INJECTED_MAX_STEPS steps.
            return RunPlan {
                correct: ctx.participants,
                budgets: vec![0; n],
                rng_seed,
                fault_plan: None,
                max_steps: INJECTED_MAX_STEPS,
                injected: true,
            };
        }
        let correct = ctx.live_sets[(correct_draw % ctx.live_sets.len() as u64) as usize];
        let fault_plan = (fault_draw % 100 < config.fault_rate_percent.min(100) as u64)
            .then(|| FaultPlan::seeded(fault_seed, n, 64));
        RunPlan {
            correct,
            budgets,
            rng_seed,
            fault_plan,
            max_steps: config.max_steps,
            injected: false,
        }
    }

    /// Judges one executed run and accounts it (shared by the sampled
    /// and exhaustive tiers).
    fn judge(
        &self,
        index: u64,
        record: &RunRecord<'_>,
        injected: bool,
        coverage: &mut Coverage,
    ) -> Option<Violation> {
        let ctx = self.ctx;
        let outcome = record.outcome;
        let violated = check_all(self.invariants, ctx, record);
        let facet = (outcome.all_correct_terminated
            && record.outputs.len() == ctx.participants.len())
        .then(|| fact::outputs_to_simplex(ctx.affine.complex(), record.outputs))
        .flatten()
        .map(|simplex| act_obs::fnv1a64(0xcbf29ce484222325, format!("{simplex:?}").as_bytes()));
        account_run(
            coverage,
            outcome.steps as u64,
            outcome.all_correct_terminated,
            facet,
            &violated,
            injected,
        );
        if violated.is_empty() {
            return None;
        }
        let mut trace = Trace::from_outcome(ctx.participants, outcome);
        if let Some(fault_plan) = record.fault_plan {
            trace = trace.with_fault_plan(fault_plan.clone());
        }
        Some(Violation {
            index,
            violated,
            trace,
            max_steps: record.max_steps,
            injected,
        })
    }
}

impl RunFamily for Adversarial<'_> {
    type Violation = Violation;
    type Artifact = TraceArtifact;
    const ARTIFACT_STEM: &'static str = "campaign";
    const ARTIFACT_EVENT: &'static str = "campaign.artifact";
    const BATCH_EVENT: &'static str = "campaign.batch";

    fn run(&self, index: u64, coverage: &mut Coverage) -> Option<Violation> {
        let ctx = self.ctx;
        let plan = self.derive_plan(index);
        let mut guard =
            MonotonicityGuard::new(AlgorithmOneSystem::new(&ctx.alpha, ctx.participants));
        let mut rng = ChaCha8Rng::seed_from_u64(plan.rng_seed);
        let budgets = &plan.budgets;
        let (outcome, fault_report) = match &plan.fault_plan {
            Some(fault_plan) => {
                let (outcome, report) = run_adversarial_with_faults(
                    &mut guard,
                    ctx.participants,
                    plan.correct,
                    &mut rng,
                    |p: ProcessId| budgets[p.index()],
                    plan.max_steps,
                    fault_plan,
                );
                (outcome, Some(report))
            }
            None => (
                run_adversarial(
                    &mut guard,
                    ctx.participants,
                    plan.correct,
                    &mut rng,
                    |p: ProcessId| budgets[p.index()],
                    plan.max_steps,
                ),
                None,
            ),
        };
        if let Some(report) = &fault_report {
            coverage.faulted_runs += 1;
            coverage.faults_applied +=
                (report.crashes_applied + report.stalls_applied + report.perturbs_applied) as u64;
        }
        let outputs = guard.inner().outputs();
        let record = RunRecord {
            outcome: &outcome,
            participants: ctx.participants,
            truncated_by_depth: false,
            monotonicity_ok: guard.ok(),
            outputs: &outputs,
            fault_plan: plan.fault_plan.as_ref(),
            max_steps: plan.max_steps,
        };
        self.judge(index, &record, plan.injected, coverage)
    }

    fn describe(violation: &Violation) -> (u64, &[String]) {
        (violation.index, &violation.violated)
    }

    /// Shrinks the violation: the signature and the replayable
    /// [`TraceArtifact`] are the shrunk trace's.
    fn artifact(&self, violation: &Violation) -> (String, TraceArtifact) {
        let shrunk = shrink_violation(self.ctx, self.invariants, violation);
        let model = self.ctx.spec.canonical_string();
        let sig = signature_hex(violation_signature(&model, &shrunk, &violation.violated));
        let artifact = TraceArtifact {
            schema_version: 1,
            reason: format!("campaign:{}", violation.violated.join("+")),
            max_steps: violation.max_steps as u64,
            trace: shrunk,
        };
        (sig, artifact)
    }
}

/// The per-index derivation: a SplitMix64 stream keyed by the campaign
/// seed and the run index yields the correct set, crash budgets,
/// scheduler seed, and fault-plan decision for that run — nothing else
/// feeds the run, which is what makes campaigns resumable and
/// worker-count independent.
struct RunPlan {
    correct: ColorSet,
    budgets: Vec<usize>,
    rng_seed: u64,
    fault_plan: Option<FaultPlan>,
    max_steps: usize,
    injected: bool,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The exhaustive tier: streams a bounded breadth-first enumeration of
/// every schedule of the full participant set through
/// [`explore_iter`] — O(frontier) memory, never O(runs) — judging each
/// run like a sampled one. Runs cut off by the depth bound are flagged
/// truncated, so the liveness invariant (a statement about *fair*
/// schedules, not prefixes) does not fire on them. Resume re-enumerates
/// and skips the checkpointed prefix: the enumeration order is
/// deterministic, so the skipped runs are exactly the ones already
/// counted.
fn run_exhaustive(
    family: &Adversarial<'_>,
    config: &CampaignConfig,
    max_depth: usize,
    state: &mut CampaignState,
) -> Result<(), String> {
    let ctx = family.ctx;
    let initial = MonotonicityGuard::new(AlgorithmOneSystem::new(&ctx.alpha, ctx.participants));
    let mut iter = explore_iter(
        &initial,
        ctx.participants,
        ctx.participants,
        max_depth,
        usize::MAX,
        ExploreOrder::BreadthFirst,
    );
    iter.by_ref().take(state.cursor as usize).for_each(drop);
    while !state.done {
        chaos::maybe_kill(state.cursor);
        let mut batch_coverage = Coverage::default();
        let mut violations = Vec::new();
        for (guard, outcome) in iter.by_ref().take(config.batch as usize) {
            let outputs = guard.inner().outputs();
            let record = RunRecord {
                outcome: &outcome,
                participants: ctx.participants,
                truncated_by_depth: !outcome.all_correct_terminated,
                monotonicity_ok: guard.ok(),
                outputs: &outputs,
                fault_plan: None,
                max_steps: max_depth,
            };
            let index = state.cursor + batch_coverage.runs;
            violations.extend(family.judge(index, &record, false, &mut batch_coverage));
        }
        // A batch the enumeration could not fill has exhausted it.
        state.done = batch_coverage.runs < config.batch;
        state.cursor += batch_coverage.runs;
        state.coverage.absorb(&batch_coverage);
        settle(family, config, violations, state)?;
    }
    Ok(())
}

/// Replays `trace` through a fresh guarded system and returns the
/// sorted violated-invariant names — the acceptance oracle the shrinker
/// and the reproduction tests share. `Err` means the trace does not
/// replay at all (out-of-range process, which the shrinker treats as
/// "does not reproduce").
pub fn evaluate_trace(
    ctx: &CampaignContext,
    invariants: &[Box<dyn Invariant>],
    trace: &Trace,
    max_steps: usize,
) -> Result<Vec<String>, String> {
    let mut guard = MonotonicityGuard::new(AlgorithmOneSystem::new(&ctx.alpha, trace.participants));
    let outcome = trace
        .replay_outcome(&mut guard)
        .map_err(|e| format!("replay failed: {e:?}"))?;
    let outputs = guard.inner().outputs();
    let record = RunRecord {
        outcome: &outcome,
        participants: trace.participants,
        truncated_by_depth: false,
        monotonicity_ok: guard.ok(),
        outputs: &outputs,
        fault_plan: trace.fault_plan.as_ref(),
        max_steps,
    };
    Ok(check_all(invariants, ctx, &record))
}
