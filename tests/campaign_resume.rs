//! Checkpoint/resume tests for the campaign runner (PR 6): a campaign
//! killed mid-flight (via the chaos kill hook, in the spirit of PR 4's
//! fault layer) and resumed from its checkpoint file finishes with
//! *exactly* the coverage counters of an uninterrupted run, regardless
//! of worker count; torn checkpoint tails are tolerated.

use std::path::PathBuf;
use std::sync::OnceLock;

use act_campaign::{chaos, run_campaign_in, CampaignConfig, CampaignContext, Scope};

mod common;

fn ctx() -> &'static CampaignContext {
    static CTX: OnceLock<CampaignContext> = OnceLock::new();
    CTX.get_or_init(|| CampaignContext::new("t-res:3:1", false).expect("context builds"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("act-campaign-resume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_config(dir: &std::path::Path) -> CampaignConfig {
    let mut config = CampaignConfig::new("t-res:3:1");
    config.scope = Scope::Sampled { samples: 2_000 };
    config.seed = 9;
    config.workers = 2;
    config.batch = 400;
    config.fault_rate_percent = 30;
    config.solver_check = false;
    config.inject_liveness = vec![123, 1777];
    config.checkpoint = Some(dir.join("ckpt.jsonl"));
    config.artifacts = Some(dir.join("artifacts"));
    config
}

/// The headline PR-6 acceptance property: kill mid-flight, restart from
/// the checkpoint, and the final coverage counters equal an
/// uninterrupted run's — exactly, not approximately.
#[test]
fn killed_campaign_resumes_to_identical_final_coverage() {
    // Reference: one uninterrupted run.
    let ref_dir = temp_dir("reference");
    let reference = run_campaign_in(ctx(), &base_config(&ref_dir)).expect("uninterrupted campaign");
    assert!(reference.done);
    assert_eq!(reference.cursor, 2_000);

    // Victim: same campaign, killed at the start of the batch at cursor
    // 1200 (i.e. after three completed checkpoints).
    let kill_dir = temp_dir("killed");
    let config = base_config(&kill_dir);
    chaos::kill_once_at_cursor(1_200);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_campaign_in(ctx(), &config)
    }));
    chaos::disarm();
    assert!(panic.is_err(), "the armed kill must abort the campaign");

    // The checkpoint file ends at the last completed batch.
    let interrupted = act_campaign::load_latest_checkpoint(
        config.checkpoint.as_ref().unwrap(),
        &config.fingerprint_hex(),
    )
    .expect("checkpoint readable")
    .expect("checkpoint written before the kill");
    assert_eq!(interrupted.cursor, 1_200);
    assert!(!interrupted.done);

    // Restart from the checkpoint — with a different worker count, which
    // must not matter because runs derive purely from (seed, index).
    let mut resumed_config = config.clone();
    resumed_config.resume = true;
    resumed_config.workers = 3;
    let resumed = run_campaign_in(ctx(), &resumed_config).expect("resumed campaign");
    assert!(resumed.done);
    assert_eq!(resumed.resumed_from, 1_200);
    assert_eq!(resumed.cursor, reference.cursor);
    assert_eq!(
        resumed.coverage, reference.coverage,
        "resumed coverage must equal the uninterrupted run's, counter for counter"
    );
    assert_eq!(resumed.artifact_sigs, reference.artifact_sigs);
}

/// Worker count is an operational knob, not a population knob: the same
/// campaign at 1 and 3 workers produces identical coverage.
#[test]
fn worker_count_does_not_change_coverage() {
    let dir_a = temp_dir("w1");
    let mut one = base_config(&dir_a);
    one.checkpoint = None;
    one.workers = 1;
    let dir_b = temp_dir("w3");
    let mut three = base_config(&dir_b);
    three.checkpoint = None;
    three.workers = 3;
    let report_one = run_campaign_in(ctx(), &one).expect("1-worker campaign");
    let report_three = run_campaign_in(ctx(), &three).expect("3-worker campaign");
    assert_eq!(report_one.coverage, report_three.coverage);
    assert_eq!(report_one.artifact_sigs, report_three.artifact_sigs);
}

/// A torn tail (a checkpoint append cut off mid-write by the kill) is
/// skipped; resume continues from the last complete record.
#[test]
fn resume_tolerates_a_torn_checkpoint_tail() {
    let dir = temp_dir("torn");
    let config = base_config(&dir);
    let reference = run_campaign_in(ctx(), &config).expect("campaign completes");
    let path = config.checkpoint.as_ref().unwrap();
    let mut text = std::fs::read_to_string(path).unwrap();
    // Simulate a torn append: half of a would-be next record.
    text.push_str("{\"schema\":1,\"fingerprint\":\"");
    std::fs::write(path, text).unwrap();

    let mut resumed_config = config.clone();
    resumed_config.resume = true;
    let resumed = run_campaign_in(ctx(), &resumed_config).expect("resume past the torn tail");
    assert!(resumed.done);
    assert_eq!(resumed.resumed_from, 2_000, "nothing left to execute");
    assert_eq!(resumed.coverage, reference.coverage);
}

/// The exhaustive tier resumes too: its enumeration order is
/// deterministic, so skipping the checkpointed prefix lands on exactly
/// the uncounted runs.
#[test]
fn exhaustive_campaign_resumes_after_a_kill() {
    let ref_dir = temp_dir("exh-ref");
    let mut reference_config = base_config(&ref_dir);
    reference_config.scope = Scope::Exhaustive { max_depth: 4 };
    reference_config.inject_liveness.clear();
    reference_config.batch = 20;
    let reference = run_campaign_in(ctx(), &reference_config).expect("uninterrupted exhaustive");
    assert_eq!(reference.coverage.runs, 81, "3^4 schedules at depth 4");

    let dir = temp_dir("exh-kill");
    let mut config = base_config(&dir);
    config.scope = Scope::Exhaustive { max_depth: 4 };
    config.inject_liveness.clear();
    config.batch = 20;
    chaos::kill_once_at_cursor(40);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_campaign_in(ctx(), &config)
    }));
    chaos::disarm();
    assert!(panic.is_err());
    let mut resumed_config = config.clone();
    resumed_config.resume = true;
    let resumed = run_campaign_in(ctx(), &resumed_config).expect("resumed exhaustive");
    assert!(resumed.done);
    assert_eq!(resumed.resumed_from, 40);
    assert_eq!(resumed.coverage, reference.coverage);
}

/// The chassis's observable output is pinned: a small seeded sampled
/// campaign with two injected violations, and an exhaustive one whose
/// run count is an exact multiple of the batch, reproduce the committed
/// checkpoint lines and artifact files byte for byte, at 1 and 3
/// workers.
#[test]
fn campaigns_reproduce_their_fixture_bytes() {
    for workers in [1, 3] {
        let dir = temp_dir(&format!("fixture-sampled-w{workers}"));
        let mut config = base_config(&dir);
        config.scope = Scope::Sampled { samples: 600 };
        config.workers = workers;
        config.batch = 200;
        config.inject_liveness = vec![123, 477];
        config.artifacts = Some(dir.clone());
        run_campaign_in(ctx(), &config).expect("sampled campaign");
        common::assert_matches_fixture(&dir, "campaign_adversarial");

        let dir = temp_dir(&format!("fixture-exhaustive-w{workers}"));
        let mut config = base_config(&dir);
        config.scope = Scope::Exhaustive { max_depth: 4 };
        config.workers = workers;
        config.batch = 27;
        config.inject_liveness.clear();
        config.artifacts = Some(dir.clone());
        run_campaign_in(ctx(), &config).expect("exhaustive campaign");
        common::assert_matches_fixture(&dir, "campaign_exhaustive");
    }
}

/// The kill hook is armed per thread: a campaign on another thread that
/// crosses the armed cursor runs to completion, and only a campaign on
/// the arming thread dies there.
#[test]
fn an_armed_kill_fires_only_on_the_arming_thread() {
    let dir = temp_dir("kill-thread");
    let mut config = base_config(&dir);
    config.checkpoint = None;
    chaos::kill_once_at_cursor(400);
    let other = std::thread::scope(|s| s.spawn(|| run_campaign_in(ctx(), &config)).join());
    let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_campaign_in(ctx(), &config)
    }));
    chaos::disarm();
    let other = other.expect("a campaign on another thread must not be killed");
    assert_eq!(other.expect("campaign completes").cursor, 2_000);
    let payload = own.expect_err("the arming thread's campaign must die at the armed cursor");
    let message = payload.downcast_ref::<String>().expect("panic message");
    assert!(message.contains("cursor 400"), "{message}");
}
