//! `act-campaign` — a million-run randomized campaign runner over the
//! FACT reproduction's adversarial schedulers, with invariant mining,
//! failure deduplication, and auto-shrinking.
//!
//! A *campaign* drives a large population of runs of Algorithm 1 under
//! one adversary model, each run drawn deterministically from a campaign
//! seed: a correct set (one of the adversary's live sets), per-process
//! crash budgets, an adversarial-scheduler RNG seed, and optionally a
//! seeded [`FaultPlan`](act_runtime::FaultPlan) from the chaos layer.
//! One chassis ([`runner`]) also drives a second run family, seeded FPC
//! consensus runs ([`fpc`]). Adversarial campaigns come in two tiers:
//!
//! * **exhaustive** — bounded breadth-first enumeration of *every*
//!   schedule up to a depth, streamed through
//!   [`explore_iter`](act_runtime::explore_iter) so the run set is never
//!   materialized (the golden-count suite pins the analytic counts);
//! * **sampled** — seeded, resumable sampling for populations far beyond
//!   enumeration (millions of schedule × fault-plan draws), fanned out
//!   over a batch-synchronous worker fleet whose per-index derivation
//!   makes coverage independent of the worker count.
//!
//! Every run is judged against a pluggable set of [`Invariant`]s
//! (liveness under fair schedules per FACT Lemmas 5–6, correct-set
//! monotonicity, output agreement with the solver's `R_A` verdict, and
//! trace well-formedness). Violations are auto-shrunk by greedy
//! round/process/fault deletion with replay-verified reproduction
//! ([`shrink_violation`]), deduplicated by a canonical trace signature
//! sharing the verdict store's content-hash machinery
//! ([`violation_signature`]), and persisted as replayable
//! [`TraceArtifact`](act_runtime::TraceArtifact)s.
//!
//! Progress is checkpointed as JSON lines ([`checkpoint`]): one atomic
//! append per batch, so a killed campaign resumes from its last batch
//! boundary with *exactly* the coverage counters an uninterrupted run
//! would have produced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod fpc;
pub mod invariants;
pub mod runner;
pub mod shrink;
pub mod signature;

use std::path::PathBuf;

use act_obs::Counter;

pub use checkpoint::{append_checkpoint, load_latest_checkpoint, Checkpoint, Coverage};
pub use fpc::run_fpc_campaign;
pub use invariants::{
    check_all, default_invariants, invariant_registry, resolve_invariant_names,
    selected_invariants, Invariant, InvariantInfo, MonotonicityGuard, RunRecord,
    FAMILY_ADVERSARIAL, FAMILY_FPC, INVARIANT_FPC_AGREEMENT, INVARIANT_FPC_MONOTONE,
    INVARIANT_FPC_REPLAY, INVARIANT_LIVENESS, INVARIANT_MONOTONICITY, INVARIANT_VERDICT,
    INVARIANT_WELLFORMED,
};
pub use runner::{
    evaluate_trace, run_campaign, run_campaign_in, CampaignContext, CampaignReport, Violation,
};
pub use shrink::shrink_violation;
pub use signature::{signature_hex, violation_signature};

/// Runs executed by campaigns in this process.
pub static CAMPAIGN_RUNS: Counter = Counter::new("campaign.runs");
/// Invariant violations observed (before dedup).
pub static CAMPAIGN_VIOLATIONS: Counter = Counter::new("campaign.violations");
/// Checkpoint lines appended.
pub static CAMPAIGN_CHECKPOINTS: Counter = Counter::new("campaign.checkpoints");
/// Shrunk artifacts written (after dedup).
pub static CAMPAIGN_ARTIFACTS: Counter = Counter::new("campaign.artifacts");
/// Violations merged into an already-written artifact.
pub static CAMPAIGN_DEDUPED: Counter = Counter::new("campaign.deduped");

/// The step bound used for injected-violation runs: far too few steps
/// for any correct process of Algorithm 1 to decide, so the run is a
/// guaranteed (synthetic) liveness failure.
pub const INJECTED_MAX_STEPS: usize = 2;

/// Which population of runs a campaign draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Enumerate every schedule of the full participant set up to
    /// `max_depth` steps, breadth-first, with no fault injection.
    Exhaustive {
        /// The schedule depth bound.
        max_depth: usize,
    },
    /// Draw `samples` seeded runs (correct set, crash budgets, scheduler
    /// seed, optional fault plan — all derived per index).
    Sampled {
        /// The number of runs to draw.
        samples: u64,
    },
}

/// A campaign's full configuration. Everything that shapes the *run
/// population* (model, scope, seed, step bound, fault rate, injected
/// indices, solver check) feeds the [fingerprint](Self::fingerprint_hex)
/// that checkpoints are keyed by; operational knobs (workers, batch
/// size, paths) deliberately do not, so a campaign can resume under a
/// different worker count and still produce identical coverage.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The adversary model spec (e.g. `"t-res:3:1"`).
    pub model: String,
    /// Exhaustive or sampled tier.
    pub scope: Scope,
    /// The campaign seed all per-index draws derive from.
    pub seed: u64,
    /// Worker threads for the sampled tier (the exhaustive tier streams
    /// on one worker).
    pub workers: usize,
    /// Runs per batch; a checkpoint is appended after every batch.
    pub batch: u64,
    /// The adversarial scheduler's step bound per run.
    pub max_steps: usize,
    /// Percentage (0–100) of sampled runs that carry a seeded
    /// [`FaultPlan`](act_runtime::FaultPlan).
    pub fault_rate_percent: u8,
    /// Checkpoint file (JSON lines); `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Resume from the checkpoint file instead of starting at run 0.
    pub resume: bool,
    /// Directory for shrunk violation artifacts (default
    /// `target/campaign-artifacts`).
    pub artifacts: Option<PathBuf>,
    /// Sampled-run indices forced into a synthetic liveness violation
    /// (the run keeps its derived schedule seed but is truncated at
    /// [`INJECTED_MAX_STEPS`]); used to exercise the shrink/dedup path.
    pub inject_liveness: Vec<u64>,
    /// Precompute the solver's set-consensus verdict for the model so
    /// the `verdict-agreement` invariant is armed. Disable for runs
    /// that only exercise the scheduler (e.g. benchmarks).
    pub solver_check: bool,
    /// With [`solver_check`](Self::solver_check), run the solver under
    /// *both* subdivision strategies (direct and symmetry-quotiented
    /// orbit-shared towers) and abort the campaign on any verdict
    /// disagreement. Parity is guaranteed by construction, so this is a
    /// free cross-check of the quotient machinery; it does not alter
    /// the run population or the armed verdict (and so stays out of the
    /// campaign fingerprint).
    pub quotient_oracle: bool,
    /// Restrict the checked invariants to these registry names (`None`
    /// checks the model's full run-family set). Selections feed the
    /// fingerprint — a campaign that judges runs differently is a
    /// different campaign — but the default `None` keeps the historical
    /// fingerprint text, so existing checkpoints stay resumable.
    pub invariants: Option<Vec<String>>,
}

impl CampaignConfig {
    /// A configuration with defaults for `model`: sampled scope of
    /// 100 000 runs, seed `0xFAC7`, one worker, batches of 10 000,
    /// 500 000-step bound, 25% fault rate, solver check on.
    pub fn new(model: &str) -> CampaignConfig {
        CampaignConfig {
            model: model.to_string(),
            scope: Scope::Sampled { samples: 100_000 },
            seed: 0xFAC7,
            workers: 1,
            batch: 10_000,
            max_steps: 500_000,
            fault_rate_percent: 25,
            checkpoint: None,
            resume: false,
            artifacts: None,
            inject_liveness: Vec::new(),
            solver_check: true,
            quotient_oracle: false,
            invariants: None,
        }
    }

    /// The canonical text the campaign fingerprint is derived from.
    fn fingerprint_text(&self) -> String {
        let scope = match self.scope {
            Scope::Exhaustive { max_depth } => format!("exhaustive:{max_depth}"),
            Scope::Sampled { samples } => format!("sampled:{samples}"),
        };
        let inject: Vec<String> = self
            .injected_indices()
            .iter()
            .map(|i| i.to_string())
            .collect();
        let mut text = format!(
            "fact-campaign|model={}|scope={}|seed={}|max_steps={}|fault_rate={}|inject={}|solver={}",
            self.model,
            scope,
            self.seed,
            self.max_steps,
            self.fault_rate_percent,
            inject.join(","),
            self.solver_check,
        );
        if let Some(selection) = &self.invariants {
            let mut selection = selection.clone();
            selection.sort();
            selection.dedup();
            text.push_str(&format!("|invariants={}", selection.join(",")));
        }
        text
    }

    /// The campaign's 32-hex-digit fingerprint (the verdict store's
    /// content-hash machinery over the canonical config text).
    /// Checkpoints carry it so a checkpoint file can never resume a
    /// *different* campaign.
    pub fn fingerprint_hex(&self) -> String {
        signature::signature_hex(act_obs::content_hash128(self.fingerprint_text().as_bytes()))
    }

    /// The sorted, deduplicated injected-violation indices.
    pub fn injected_indices(&self) -> Vec<u64> {
        let mut inject = self.inject_liveness.clone();
        inject.sort_unstable();
        inject.dedup();
        inject
    }

    /// Whether the model names an FPC workload (the `fpc:` run family)
    /// rather than an adversary-backed model.
    pub fn is_fpc(&self) -> bool {
        self.model.starts_with("fpc:")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_population_knobs_only() {
        let base = CampaignConfig::new("t-res:3:1");
        let mut same = base.clone();
        same.workers = 7;
        same.batch = 123;
        same.checkpoint = Some(PathBuf::from("/tmp/elsewhere.jsonl"));
        same.resume = true;
        same.quotient_oracle = true;
        assert_eq!(base.fingerprint_hex(), same.fingerprint_hex());

        let mut other_seed = base.clone();
        other_seed.seed += 1;
        assert_ne!(base.fingerprint_hex(), other_seed.fingerprint_hex());

        let mut other_scope = base.clone();
        other_scope.scope = Scope::Exhaustive { max_depth: 4 };
        assert_ne!(base.fingerprint_hex(), other_scope.fingerprint_hex());

        let mut other_inject = base.clone();
        other_inject.inject_liveness = vec![42];
        assert_ne!(base.fingerprint_hex(), other_inject.fingerprint_hex());

        // An invariant selection changes the campaign; its spelling
        // order does not.
        let mut selected = base.clone();
        selected.invariants = Some(vec!["liveness-fair".into(), "trace-wellformed".into()]);
        assert_ne!(base.fingerprint_hex(), selected.fingerprint_hex());
        let mut reordered = selected.clone();
        reordered.invariants = Some(vec!["trace-wellformed".into(), "liveness-fair".into()]);
        assert_eq!(selected.fingerprint_hex(), reordered.fingerprint_hex());
    }

    #[test]
    fn injected_indices_are_sorted_and_deduplicated() {
        let mut config = CampaignConfig::new("t-res:3:1");
        config.inject_liveness = vec![9, 3, 9, 1];
        assert_eq!(config.injected_indices(), vec![1, 3, 9]);
    }
}
