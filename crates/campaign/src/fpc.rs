//! The FPC run family: seeded probabilistic-consensus runs on the one
//! campaign chassis in [`crate::runner`], which supplies the worker
//! fleet, chaos kills, checkpointed resume and violation dedup. This
//! module holds only what an FPC run is. Run `i` is an [`act_fpc`]
//! simulation under `derive_seed(campaign seed, i)` (the same SplitMix64
//! derivation `fact-cli fpc` uses, so campaigns and ad-hoc batches sample
//! identical populations), judged against the FPC invariants:
//!
//! * `fpc-agreement-on-finalize` — finalized honest nodes agree;
//! * `fpc-monotone-finalization` — no opinion changes after finality;
//! * `fpc-seeded-replayability` — re-simulating `(spec, seed)`
//!   reproduces the trajectory fingerprint bit-for-bit.
//!
//! Coverage maps naturally: `steps` counts rounds, `live` counts fully
//! finalized runs, and `facets` collects distinct trajectory
//! fingerprints. Injected violations (the `--inject-liveness` indices)
//! flip one finalized node's opinion post-finalization — a synthetic
//! safety failure the first two invariants must both catch, which is the
//! forced-violation self-test CI runs.

use act_fpc::stats::derive_seed;
use act_fpc::{simulate_run, FpcOutcome, FpcSpec};
use serde::{Deserialize, Serialize};

use crate::checkpoint::Coverage;
use crate::invariants::{
    resolve_invariant_names, FAMILY_FPC, INVARIANT_FPC_AGREEMENT, INVARIANT_FPC_MONOTONE,
    INVARIANT_FPC_REPLAY,
};
use crate::runner::{
    account_run, check_config, run_chassis, run_sampled, CampaignReport, RunFamily,
};
use crate::signature::signature_hex;
use crate::{CampaignConfig, Scope};

#[cfg(test)]
use crate::chaos;

/// A violating FPC run, as found. FPC runs are pure functions of
/// `(spec, seed, injected)`, so the artifact *is* the replay recipe —
/// no trace shrinking applies.
#[derive(Clone, Debug)]
pub struct FpcViolation {
    /// The run's campaign index.
    pub index: u64,
    /// The derived per-run stream seed.
    pub seed: u64,
    /// Sorted names of the violated invariants.
    pub violated: Vec<String>,
    /// The run's outcome.
    pub outcome: FpcOutcome,
    /// Whether the violation was force-injected.
    pub injected: bool,
}

/// The persisted artifact for one deduplicated FPC violation: enough to
/// replay the run exactly (`simulate_run(spec, seed, injected)`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FpcViolationArtifact {
    /// Artifact schema version (1).
    pub schema_version: u64,
    /// `fpc-campaign:<violated invariants, joined with +>`.
    pub reason: String,
    /// Canonical spec text of the workload.
    pub spec: String,
    /// The violating run's campaign index.
    pub run_index: u64,
    /// The violating run's derived stream seed.
    pub seed: u64,
    /// Whether the violation was force-injected.
    pub injected: bool,
    /// Rounds the run executed.
    pub rounds: u64,
    /// Honest nodes that finalized.
    pub finalized: u64,
    /// The run's trajectory fingerprint, as fixed-width hex.
    pub fingerprint: String,
}

/// Runs an FPC campaign (sampled tier only — the population is a seeded
/// sample space, not an enumerable schedule tree) on the shared campaign
/// chassis, so it keeps [`run_campaign`](crate::run_campaign)'s
/// resume/checkpoint contract: coverage is worker-count invariant and a
/// killed campaign resumes from its last batch boundary.
pub fn run_fpc_campaign(config: &CampaignConfig) -> Result<CampaignReport, String> {
    let timer = act_obs::timer("campaign.fpc");
    let spec = FpcSpec::parse(&config.model)?;
    check_config(config)?;
    let Scope::Sampled { samples } = config.scope else {
        return Err(
            "fpc campaigns are sampled-only (seeded run populations have no \
             exhaustive schedule tree); use --samples"
                .to_string(),
        );
    };
    let family = Fpc {
        spec,
        seed: config.seed,
        active: resolve_invariant_names(config.invariants.as_deref(), FAMILY_FPC)?,
        injected: config.injected_indices(),
    };
    run_chassis(config, timer, |state| {
        run_sampled(&family, config, samples, state)
    })
}

/// The FPC run family: run `i` simulates the workload under
/// `derive_seed(campaign seed, i)`.
struct Fpc {
    spec: FpcSpec,
    seed: u64,
    active: Vec<&'static str>,
    injected: Vec<u64>,
}

impl RunFamily for Fpc {
    type Violation = FpcViolation;
    type Artifact = FpcViolationArtifact;
    const ARTIFACT_STEM: &'static str = "fpc-campaign";
    const ARTIFACT_EVENT: &'static str = "campaign.fpc.artifact";
    const BATCH_EVENT: &'static str = "campaign.fpc.batch";

    fn run(&self, index: u64, coverage: &mut Coverage) -> Option<FpcViolation> {
        let seed = derive_seed(self.seed, index);
        let inject = self.injected.binary_search(&index).is_ok();
        let outcome = simulate_run(&self.spec, seed, inject);

        let active = &self.active;
        let mut violated: Vec<String> = Vec::new();
        if active.contains(&INVARIANT_FPC_AGREEMENT) && !outcome.agreement_ok {
            violated.push(INVARIANT_FPC_AGREEMENT.to_string());
        }
        if active.contains(&INVARIANT_FPC_MONOTONE) && outcome.post_finalization_flips > 0 {
            violated.push(INVARIANT_FPC_MONOTONE.to_string());
        }
        if active.contains(&INVARIANT_FPC_REPLAY)
            && simulate_run(&self.spec, seed, inject).fingerprint != outcome.fingerprint
        {
            violated.push(INVARIANT_FPC_REPLAY.to_string());
        }
        violated.sort();

        account_run(
            coverage,
            outcome.rounds as u64,
            outcome.terminated,
            Some(outcome.fingerprint),
            &violated,
            inject,
        );
        if violated.is_empty() {
            return None;
        }
        Some(FpcViolation {
            index,
            seed,
            violated,
            outcome,
            injected: inject,
        })
    }

    fn describe(violation: &FpcViolation) -> (u64, &[String]) {
        (violation.index, &violation.violated)
    }

    /// Violations deduplicate by failure *shape* — `(spec, violated set,
    /// injected)` — so a campaign that trips one invariant a thousand
    /// times writes one artifact and counts 999 dedups.
    fn artifact(&self, violation: &FpcViolation) -> (String, FpcViolationArtifact) {
        let model = self.spec.canonical_string();
        let sig_text = format!(
            "fact-fpc-violation|{model}|{}|injected={}",
            violation.violated.join("+"),
            violation.injected
        );
        let sig = signature_hex(act_obs::content_hash128(sig_text.as_bytes()));
        let artifact = FpcViolationArtifact {
            schema_version: 1,
            reason: format!("fpc-campaign:{}", violation.violated.join("+")),
            spec: model,
            run_index: violation.index,
            seed: violation.seed,
            injected: violation.injected,
            rounds: violation.outcome.rounds as u64,
            finalized: violation.outcome.finalized,
            fingerprint: format!("{:016x}", violation.outcome.fingerprint),
        };
        (sig, artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(model: &str, samples: u64) -> CampaignConfig {
        let mut config = CampaignConfig::new(model);
        config.scope = Scope::Sampled { samples };
        config.batch = 50;
        config.solver_check = false;
        config.artifacts = Some(std::env::temp_dir().join(format!(
            "fact-fpc-artifacts-{}-{model_slug}",
            std::process::id(),
            model_slug = model.replace(':', "_")
        )));
        config
    }

    #[test]
    fn coverage_is_worker_count_invariant() {
        let mut one = config("fpc:16:4:berserk:5:500", 200);
        one.workers = 1;
        let mut four = one.clone();
        four.workers = 4;
        let a = run_fpc_campaign(&one).unwrap();
        let b = run_fpc_campaign(&four).unwrap();
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.cursor, 200);
        assert!(a.done);
        assert!(a.coverage.live > 0, "berserk at minority must finalize");
        assert!(
            a.coverage.facets.len() > 100,
            "trajectories must be diverse, got {}",
            a.coverage.facets.len()
        );
    }

    #[test]
    fn injected_flips_violate_and_dedup() {
        // The berserk minority at seed 0xFAC7 produces no organic
        // violations over this index range (pinned by a 20k-run sweep
        // over the same derived-seed population), so the two injections
        // account for every violation exactly.
        let mut cfg = config("fpc:32:8:berserk:10:700", 120);
        cfg.inject_liveness = vec![10, 70];
        let report = run_fpc_campaign(&cfg).unwrap();
        assert_eq!(report.coverage.violations, 2);
        assert_eq!(report.coverage.injected_violations, 2);
        // Both injections share one failure shape: one artifact, one dedup.
        assert_eq!(report.new_artifacts.len(), 1);
        assert_eq!(report.coverage.deduped, 1);
        assert_eq!(
            report.coverage.invariant_violations[INVARIANT_FPC_AGREEMENT],
            2
        );
        assert_eq!(
            report.coverage.invariant_violations[INVARIANT_FPC_MONOTONE],
            2
        );

        let json = std::fs::read_to_string(&report.new_artifacts[0]).unwrap();
        let artifact: FpcViolationArtifact = serde_json::from_str(&json).unwrap();
        assert_eq!(artifact.spec, "fpc:32:8:berserk:10:700");
        assert!(artifact.injected);
        assert_eq!(artifact.run_index, 10);
        // The artifact replays: same (spec, seed, injected) reproduces
        // the recorded fingerprint.
        let spec = FpcSpec::parse(&artifact.spec).unwrap();
        let replay = simulate_run(&spec, artifact.seed, artifact.injected);
        assert_eq!(format!("{:016x}", replay.fingerprint), artifact.fingerprint);
        assert!(!replay.agreement_ok);
    }

    #[test]
    fn killed_campaign_resumes_to_identical_final_coverage() {
        let dir = std::env::temp_dir().join(format!("fact-fpc-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let full = config("fpc:16:4:berserk:5:500", 150);
        let uninterrupted = run_fpc_campaign(&full).unwrap();

        // Same campaign, killed at the batch boundary at cursor 100,
        // then resumed (under a different worker count, which must not
        // matter).
        let mut victim = full.clone();
        victim.checkpoint = Some(dir.join("fpc.jsonl"));
        chaos::kill_once_at_cursor(100);
        let panic =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_fpc_campaign(&victim)));
        chaos::disarm();
        assert!(panic.is_err(), "the armed kill must abort the campaign");

        let mut resumed_config = victim.clone();
        resumed_config.resume = true;
        resumed_config.workers = 3;
        let resumed = run_fpc_campaign(&resumed_config).unwrap();
        assert_eq!(resumed.resumed_from, 100);
        assert_eq!(resumed.cursor, 150);
        assert!(resumed.done);
        assert_eq!(resumed.coverage, uninterrupted.coverage);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhaustive_scope_and_wrong_family_are_rejected() {
        let mut cfg = config("fpc:8:0:cautious", 10);
        cfg.scope = Scope::Exhaustive { max_depth: 3 };
        assert!(run_fpc_campaign(&cfg).unwrap_err().contains("sampled-only"));

        let mut cfg = config("fpc:8:0:cautious", 10);
        cfg.invariants = Some(vec!["liveness-fair".to_string()]);
        let err = run_fpc_campaign(&cfg).unwrap_err();
        assert!(err.contains("adversarial"), "{err}");

        let bad = config("fpc:8:8:cautious", 10);
        assert!(run_fpc_campaign(&bad).is_err(), "bad spec must fail");
    }

    #[test]
    fn invariant_selection_narrows_judging() {
        // With only the replay invariant active, injected flips are not
        // violations at all.
        let mut cfg = config("fpc:16:0:cautious:5:800", 60);
        cfg.inject_liveness = vec![5];
        cfg.invariants = Some(vec![INVARIANT_FPC_REPLAY.to_string()]);
        let report = run_fpc_campaign(&cfg).unwrap();
        assert_eq!(report.coverage.violations, 0);
        assert!(report.new_artifacts.is_empty());
    }
}
