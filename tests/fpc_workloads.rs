//! The FPC workload family end to end: acceptance-level determinism
//! (identical seed + config ⇒ identical finalization statistics and
//! checkpoint fingerprints, for any worker count), summary-cache
//! parity with the raw engine, and campaign resume over the FPC run
//! family.

use act_campaign::{CampaignConfig, Scope, INVARIANT_FPC_REPLAY};
use act_fpc::{run_stats, simulate_run, FpcSpec};
use act_service::{summary_key, FpcCache};

mod common;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fact-fpcwl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fpc_config(spec: &str, samples: u64, workers: usize) -> CampaignConfig {
    let mut config = CampaignConfig::new(spec);
    config.scope = Scope::Sampled { samples };
    config.seed = 0xFAC7;
    config.workers = workers;
    config.batch = 64;
    config
}

#[test]
fn finalization_statistics_are_a_pure_function_of_spec_runs_seed() {
    let spec = FpcSpec::parse("fpc:24:6:cautious:8:600").unwrap();
    let a = run_stats(&spec, 400, 99);
    let b = run_stats(&spec, 400, 99);
    assert_eq!(a, b, "identical inputs, identical statistics");
    // Every field the acceptance gate cares about is populated.
    assert_eq!(a.runs, 400);
    assert!(a.rounds_p50 > 0 && a.rounds_p50 <= a.rounds_p99);
    assert!(a.rounds_p99 <= a.rounds_max);
    assert!(!a.fingerprint.is_empty());
    // Different seeds genuinely sample different trajectories.
    let c = run_stats(&spec, 400, 100);
    assert_ne!(a.fingerprint, c.fingerprint);
}

#[test]
fn summary_cache_answers_match_the_engine_bit_for_bit() {
    let spec = FpcSpec::parse("fpc:16:4:fixed-split:10:500").unwrap();
    let direct = run_stats(&spec, 300, 7);
    let cache = FpcCache::in_memory();
    let (cached, source) = cache.summary(&spec, 300, 7);
    assert_eq!(source, "engine");
    assert_eq!(cached, direct);
    // The content address is one key for every spelling of the spec.
    let long = FpcSpec::parse("fpc:16:4:fixed-split:10:500").unwrap();
    let short = FpcSpec::parse("fpc:16:4:fixed-split").unwrap();
    assert_eq!(short.canonical_string(), long.canonical_string());
    assert_eq!(summary_key(&short, 300, 7), summary_key(&long, 300, 7));
}

#[test]
fn campaigns_fingerprint_and_cover_identically_across_worker_counts() {
    // The acceptance gate: one config, three worker counts — the
    // checkpoint fingerprint and the final coverage (violations,
    // steps, facet set) must be bit-identical.
    let dir = temp_dir("workers");
    let fingerprint = fpc_config("fpc:20:5:berserk:8:550", 500, 1).fingerprint_hex();
    let mut reports = Vec::new();
    for (i, workers) in [1usize, 2, 5].into_iter().enumerate() {
        let mut config = fpc_config("fpc:20:5:berserk:8:550", 500, workers);
        assert_eq!(
            config.fingerprint_hex(),
            fingerprint,
            "worker count is an execution knob, not a population knob"
        );
        let path = dir.join(format!("ckpt-{i}.jsonl"));
        config.checkpoint = Some(path.clone());
        let report = act_campaign::run_campaign(&config).unwrap();
        let checkpoint = act_campaign::load_latest_checkpoint(&path, &fingerprint)
            .unwrap()
            .expect("a completed campaign leaves a checkpoint");
        assert_eq!(checkpoint.fingerprint, fingerprint);
        assert_eq!(checkpoint.coverage, report.coverage);
        reports.push(report);
    }
    let first = &reports[0];
    for report in &reports[1..] {
        assert_eq!(report.coverage, first.coverage);
        assert_eq!(report.cursor, first.cursor);
    }
    assert_eq!(first.cursor, 500);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_replay_reproduces_every_run_exactly() {
    // The replay invariant judged by the campaign, probed directly: a
    // run is its own replay recipe (spec, derived seed, injection bit).
    let spec = FpcSpec::parse("fpc:32:8:berserk:10:700").unwrap();
    for index in 0..50u64 {
        let seed = act_fpc::derive_seed(0xFAC7, index);
        let once = simulate_run(&spec, seed, false);
        let again = simulate_run(&spec, seed, false);
        assert_eq!(once.fingerprint, again.fingerprint, "run {index}");
        assert_eq!(once.rounds, again.rounds);
        assert_eq!(once.agreement_ok, again.agreement_ok);
    }
}

#[test]
fn fpc_configs_admit_fpc_invariants_only() {
    let mut config = fpc_config("fpc:16:4:berserk:5:500", 50, 2);
    config.invariants = Some(vec![INVARIANT_FPC_REPLAY.to_string()]);
    act_campaign::run_campaign(&config).unwrap();
    let mut wrong = fpc_config("fpc:16:4:berserk:5:500", 50, 2);
    wrong.invariants = Some(vec!["liveness-fair".to_string()]);
    let err = act_campaign::run_campaign(&wrong).unwrap_err();
    assert!(
        err.contains("adversarial"),
        "cross-family error names the family: {err}"
    );
}

/// The chassis's observable output is pinned: a small seeded FPC
/// campaign with two injected flips reproduces the committed checkpoint
/// lines and artifact file byte for byte, at 1 and 3 workers.
#[test]
fn fpc_campaign_reproduces_its_fixture_bytes() {
    for workers in [1, 3] {
        let dir = temp_dir(&format!("fixture-w{workers}"));
        let mut config = fpc_config("fpc:32:8:berserk:10:700", 120, workers);
        config.seed = 64199;
        config.batch = 40;
        config.inject_liveness = vec![10, 70];
        config.checkpoint = Some(dir.join("ckpt.jsonl"));
        config.artifacts = Some(dir.clone());
        act_campaign::run_campaign(&config).unwrap();
        common::assert_matches_fixture(&dir, "campaign_fpc");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
