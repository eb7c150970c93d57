//! Chaos suite: wall-clock deadlines and seeded scheduler fault
//! injection. The contract under test is *graceful degradation*: a fault
//! may cost coverage (an unreliable verdict, a captured artifact) but may
//! never silently flip a verdict, crash the engine, or produce an
//! unreplayable failure. (An engine panic inside the server is pinned by
//! the scheduler's own tests.)

use std::sync::Mutex;
use std::time::Duration;

use act_runtime::{run_adversarial_with_faults, FaultPlan, TraceArtifact};
use act_tasks::{find_carried_map_with_config, SearchConfig, SearchResult, SetConsensus, Task};
use act_topology::ColorSet;
use fact::adversary::{Adversary, AgreementFunction};
use fact::AlgorithmOneSystem;
use rand::SeedableRng;

/// Telemetry sinks and the artifact env var are process globals; every
/// test that touches one serializes here.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// An expired wall-clock deadline yields `TimedOut` — a verdict distinct
/// from `Exhausted` (budget) — and emits `engine.deadline`.
#[test]
fn an_expired_deadline_reports_timed_out_not_exhausted() {
    let _guard = lock();
    // A branching solvable instance: the search must visit a node, so the
    // watchdog gets to fire.
    let t = SetConsensus::new(2, 2, &[0, 1, 2]);
    let domain = t.inputs().iterated_subdivision(1);
    let sink = act_obs::MemorySink::shared();
    act_obs::install(sink.clone());
    let config = SearchConfig::new(1_000_000).with_deadline(Duration::ZERO);
    let (result, _) = find_carried_map_with_config(&t, &domain, &config);
    act_obs::uninstall();
    assert!(
        matches!(result, SearchResult::TimedOut),
        "got {}",
        result.verdict_name()
    );
    let lines = sink.drain();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"ev\":\"engine.deadline\"")),
        "the watchdog reports itself"
    );
}

/// Fault-injected adversarial runs stay fair-adversary-consistent: with
/// a generous step bound every correct process terminates despite the
/// plan, for a whole matrix of seeds.
#[test]
fn seeded_fault_plans_preserve_liveness_under_generous_bounds() {
    let _guard = lock();
    // No artifact env var: a liveness failure here would be a test bug,
    // not something to capture.
    std::env::remove_var("ACT_OBS_ARTIFACTS");
    let a = Adversary::t_resilient(3, 1);
    let alpha = AgreementFunction::of_adversary(&a);
    let full = ColorSet::full(3);
    let correct = ColorSet::from_indices([0, 1]);
    for seed in 0..24u64 {
        let plan = FaultPlan::seeded(seed, 3, 40);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut sys = AlgorithmOneSystem::new(&alpha, full);
        let (outcome, report) =
            run_adversarial_with_faults(&mut sys, full, correct, &mut rng, |_| 1, 500_000, &plan);
        assert!(
            outcome.all_correct_terminated,
            "seed {seed}: injected faults must not break liveness (report: {report:?})"
        );
        // The same seed is exactly reproducible.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut sys = AlgorithmOneSystem::new(&alpha, full);
        let (again, report_again) =
            run_adversarial_with_faults(&mut sys, full, correct, &mut rng, |_| 1, 500_000, &plan);
        assert_eq!(outcome, again, "seed {seed}: injection is deterministic");
        assert_eq!(report, report_again);
    }
}

/// The replay acceptance criterion: every failing fault injection is
/// captured as an artifact that replays to the *identical* `RunOutcome`
/// — 100% of captured artifacts, across a seed matrix.
#[test]
fn every_captured_fault_artifact_replays_to_the_identical_outcome() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("act-chaos-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("ACT_OBS_ARTIFACTS", &dir);

    let a = Adversary::t_resilient(3, 1);
    let alpha = AgreementFunction::of_adversary(&a);
    let full = ColorSet::full(3);
    let mut outcomes = Vec::new();
    for seed in 0..12u64 {
        let plan = FaultPlan::seeded(seed, 3, 10);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut sys = AlgorithmOneSystem::new(&alpha, full);
        // A starvation-tight step bound forces a liveness failure, so
        // every seed captures exactly one artifact.
        let (outcome, _) =
            run_adversarial_with_faults(&mut sys, full, full, &mut rng, |_| 0, 2, &plan);
        assert!(!outcome.all_correct_terminated, "2 steps must not suffice");
        outcomes.push((plan, outcome));
    }
    std::env::remove_var("ACT_OBS_ARTIFACTS");

    // Artifact ids are process-monotonic: sorting by the numeric suffix
    // pairs each artifact with its run.
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("artifact directory created")
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort_by_key(|p| {
        p.file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| s.rsplit('-').next())
            .and_then(|s| s.parse::<u64>().ok())
            .expect("fault artifact filenames end in a numeric id")
    });
    assert_eq!(entries.len(), outcomes.len(), "one artifact per failure");

    for (path, (plan, outcome)) in entries.iter().zip(&outcomes) {
        let artifact = TraceArtifact::load(path).expect("artifact loads");
        assert_eq!(artifact.reason, "fault-liveness-failure");
        assert_eq!(
            artifact.trace.fault_plan.as_ref(),
            Some(plan),
            "the plan is recorded for provenance"
        );
        let mut sys = AlgorithmOneSystem::new(&alpha, full);
        let replayed = artifact
            .trace
            .replay_outcome(&mut sys)
            .expect("captured schedules are in range");
        assert_eq!(
            &replayed, outcome,
            "{path:?}: replay reproduces the outcome field for field"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `fault.injected` telemetry makes every applied fault visible.
#[test]
fn applied_faults_are_reported_as_events() {
    let _guard = lock();
    let sink = act_obs::MemorySink::shared();
    act_obs::install(sink.clone());
    let a = Adversary::t_resilient(3, 1);
    let alpha = AgreementFunction::of_adversary(&a);
    let full = ColorSet::full(3);
    let correct = ColorSet::from_indices([0, 1]);
    // One event of each kind, all guaranteed to fire early in the run.
    let plan = FaultPlan {
        seed: 0,
        events: vec![
            act_runtime::FaultEvent::Crash {
                step: 0,
                process: 2,
            },
            act_runtime::FaultEvent::Stall {
                process: 1,
                from_step: 0,
                duration: 2,
            },
            act_runtime::FaultEvent::Perturb { step: 1, offset: 1 },
        ],
    };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    let mut sys = AlgorithmOneSystem::new(&alpha, full);
    let (outcome, report) =
        run_adversarial_with_faults(&mut sys, full, correct, &mut rng, |_| 1, 500_000, &plan);
    act_obs::uninstall();
    assert!(outcome.all_correct_terminated);
    assert!(report.any_applied());
    let lines = sink.drain();
    let injected: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"ev\":\"fault.injected\""))
        .collect();
    assert!(!injected.is_empty(), "applied faults emit events");
    assert!(injected.iter().any(|l| l.contains("\"kind\":\"crash\"")));
}
