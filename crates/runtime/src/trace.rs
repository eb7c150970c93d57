//! Run traces: serializable schedules for deterministic replay.
//!
//! Every run of the simulator is fully determined by its schedule (the
//! sequence of process steps), so a trace — participants plus schedule —
//! reproduces a run bit for bit. Traces serialize with serde, which is
//! how failing adversarial runs found by randomized experiments are kept
//! as regression artifacts: when a run fails liveness and telemetry is
//! enabled (see [`act_obs`]), the scheduler captures a [`TraceArtifact`]
//! under the artifact directory for later replay.

use std::path::PathBuf;

use act_topology::{ColorSet, ProcessId};
use serde::{Deserialize, Error, Reader, Serialize};

use crate::fault::FaultPlan;
use crate::scheduler::{RunOutcome, ScheduleError, System};

/// A recorded run: the participants and the exact schedule executed,
/// together with the adversarial configuration that produced it (the
/// correct set and per-process crash budgets), so a captured liveness
/// failure replays with full context.
///
/// # Format compatibility
///
/// The serialized form adds `correct` and `crash_budgets` (PR 2) and
/// `fault_plan` (the chaos layer) on top of the original
/// `{participants, steps}` schema. All three are optional:
/// deserialization accepts old JSON without them (they become `None`),
/// which keeps historical regression artifacts replayable.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Trace {
    /// The participating processes.
    pub participants: ColorSet,
    /// The schedule, as process indices.
    pub steps: Vec<u32>,
    /// The processes the run was required to terminate (the correct set
    /// of an adversarial run). `None` for traces predating this field.
    pub correct: Option<ColorSet>,
    /// Per-process initial crash budgets (`None` entries are unbounded /
    /// correct processes). `None` for traces predating this field or runs
    /// without budgets.
    pub crash_budgets: Option<Vec<Option<u32>>>,
    /// The fault plan that was injected into the run, when it was driven
    /// through the chaos layer (see [`crate::fault`]). Recorded for
    /// provenance: replay needs only the schedule (the plan already
    /// shaped it), so replays never re-inject.
    pub fault_plan: Option<FaultPlan>,
}

// Hand-written (rather than derived) so that JSON predating the
// `correct` / `crash_budgets` / `fault_plan` fields still deserializes:
// missing fields become `None` instead of an error. Otherwise it reads
// like the derive: the first of duplicate keys wins, unknown keys are
// skipped.
impl Deserialize for Trace {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut participants = None;
        let mut steps = None;
        let (mut correct, mut crash_budgets, mut fault_plan) = (None, None, None);
        let mut more = r.begin_map()?;
        while more {
            match &*r.key()? {
                "participants" if participants.is_none() => {
                    participants = Some(ColorSet::deserialize(r)?)
                }
                "steps" if steps.is_none() => steps = Some(Vec::<u32>::deserialize(r)?),
                "correct" if correct.is_none() => correct = Some(Option::deserialize(r)?),
                "crash_budgets" if crash_budgets.is_none() => {
                    crash_budgets = Some(Option::deserialize(r)?)
                }
                "fault_plan" if fault_plan.is_none() => fault_plan = Some(Option::deserialize(r)?),
                _ => r.skip()?,
            }
            more = r.next_entry()?;
        }
        Ok(Trace {
            participants: participants.ok_or_else(|| Error::missing_field("participants"))?,
            steps: steps.ok_or_else(|| Error::missing_field("steps"))?,
            correct: correct.flatten(),
            crash_budgets: crash_budgets.flatten(),
            fault_plan: fault_plan.flatten(),
        })
    }
}

impl Trace {
    /// Captures a trace from a completed run, including the run's correct
    /// set and crash budgets when the outcome carries them.
    pub fn from_outcome(participants: ColorSet, outcome: &RunOutcome) -> Trace {
        Trace {
            participants,
            steps: outcome.schedule.iter().map(|p| p.index() as u32).collect(),
            correct: (!outcome.correct.is_empty()).then_some(outcome.correct),
            crash_budgets: (!outcome.crash_budgets.is_empty())
                .then(|| outcome.crash_budgets.clone()),
            fault_plan: None,
        }
    }

    /// Attaches the fault plan that shaped this run (provenance only;
    /// replay never re-injects).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Trace {
        self.fault_plan = Some(plan);
        self
    }

    /// The schedule as process ids.
    pub fn schedule(&self) -> Vec<ProcessId> {
        self.steps
            .iter()
            .map(|&i| ProcessId::new(i as usize))
            .collect()
    }

    /// Replays the trace on a fresh system, returning the set of
    /// processes that terminated. The schedule is bounds-checked against
    /// the system first: a corrupted trace yields [`ScheduleError`]
    /// instead of an out-of-range index panic.
    pub fn replay<S: System>(&self, sys: &mut S) -> Result<ColorSet, ScheduleError> {
        self.replay_outcome(sys).map(|o| o.terminated)
    }

    /// Replays the trace and reconstructs the full [`RunOutcome`] of the
    /// original run: the schedule is re-executed, and when the trace
    /// carries adversarial context (`correct`, `crash_budgets`) the
    /// outcome is judged against the *recorded* correct set instead of
    /// the scheduled one — so a replayed artifact reproduces the
    /// captured outcome field for field.
    pub fn replay_outcome<S: System>(&self, sys: &mut S) -> Result<RunOutcome, ScheduleError> {
        let mut outcome = crate::scheduler::run_schedule(sys, &self.schedule())?;
        if let Some(correct) = self.correct {
            outcome.all_correct_terminated = correct.is_subset_of(outcome.terminated);
            outcome.correct = correct;
        }
        if let Some(budgets) = &self.crash_budgets {
            outcome.crash_budgets = budgets.clone();
        }
        Ok(outcome)
    }

    /// Whether the recorded correct set terminated, judged against the
    /// `terminated` set a replay returned. `None` when the trace predates
    /// the `correct` field.
    pub fn correct_terminated(&self, terminated: ColorSet) -> Option<bool> {
        self.correct.map(|c| c.is_subset_of(terminated))
    }

    /// The number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// A replayable capture of a failing run, written as pretty-printed JSON
/// under the telemetry artifact directory (see [`act_obs::artifacts_dir`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceArtifact {
    /// Artifact schema version (currently 1).
    pub schema_version: u32,
    /// Why the run was captured (e.g. `"liveness-failure"`).
    pub reason: String,
    /// The step bound the run was driven under.
    pub max_steps: u64,
    /// The captured trace.
    pub trace: Trace,
}

impl TraceArtifact {
    /// Reads an artifact back from a JSON file.
    pub fn load(path: &std::path::Path) -> Result<TraceArtifact, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {path:?}: {e}"))
    }
}

/// Captures a liveness-failing adversarial run as a JSON artifact when
/// telemetry artifact capture is enabled (see [`act_obs::artifacts_dir`]).
/// Returns the written path, or `None` when capture is disabled or the
/// write failed.
pub(crate) fn capture_liveness_artifact(
    participants: ColorSet,
    outcome: &RunOutcome,
    max_steps: usize,
) -> Option<PathBuf> {
    capture_artifact(participants, outcome, max_steps, "liveness-failure", None)
}

/// Captures a failing fault-injected run, recording the plan that shaped
/// it alongside the schedule (see [`crate::fault`]).
pub(crate) fn capture_fault_artifact(
    participants: ColorSet,
    outcome: &RunOutcome,
    max_steps: usize,
    plan: &FaultPlan,
) -> Option<PathBuf> {
    capture_artifact(
        participants,
        outcome,
        max_steps,
        "fault-liveness-failure",
        Some(plan.clone()),
    )
}

/// Writes a [`TraceArtifact`] for a failing run under the artifact
/// directory. The filename is prefixed by the first word of `reason`,
/// so liveness and fault captures sort apart.
fn capture_artifact(
    participants: ColorSet,
    outcome: &RunOutcome,
    max_steps: usize,
    reason: &str,
    fault_plan: Option<FaultPlan>,
) -> Option<PathBuf> {
    let dir = act_obs::artifacts_dir()?;
    std::fs::create_dir_all(&dir).ok()?;
    let mut trace = Trace::from_outcome(participants, outcome);
    if let Some(plan) = fault_plan {
        trace = trace.with_fault_plan(plan);
    }
    let artifact = TraceArtifact {
        schema_version: 1,
        reason: reason.to_string(),
        max_steps: max_steps as u64,
        trace,
    };
    let prefix = reason.split('-').next().unwrap_or("run");
    let path = dir.join(format!(
        "{prefix}-{}-{}.json",
        std::process::id(),
        act_obs::next_artifact_id()
    ));
    let json = serde_json::to_string_pretty(&artifact).ok()?;
    std::fs::write(&path, json).ok()?;
    act_obs::event("artifact.captured")
        .str("path", &path.display().to_string())
        .str("reason", reason)
        .u64("trace_steps", artifact.trace.len() as u64)
        .emit();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::immediate::IsSystem;
    use crate::scheduler::run_adversarial;
    use rand::SeedableRng;

    fn fresh() -> IsSystem<u8> {
        IsSystem::new(vec![Some(1), Some(2), Some(3)])
    }

    #[test]
    fn replay_reproduces_views_exactly() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        for _ in 0..50 {
            let mut sys = fresh();
            let participants = ColorSet::full(3);
            let outcome = run_adversarial(
                &mut sys,
                participants,
                participants,
                &mut rng,
                |_| 0,
                50_000,
            );
            let trace = Trace::from_outcome(participants, &outcome);

            let mut replayed = fresh();
            let terminated = trace.replay(&mut replayed).expect("recorded schedule");
            assert_eq!(terminated, outcome.terminated);
            assert_eq!(replayed.views(), sys.views(), "replay is bit-for-bit");
            assert_eq!(trace.correct_terminated(terminated), Some(true));

            // The full outcome is reconstructed field for field.
            let mut replayed = fresh();
            let replayed_outcome = trace
                .replay_outcome(&mut replayed)
                .expect("recorded schedule");
            assert_eq!(replayed_outcome, outcome);
        }
    }

    #[test]
    fn traces_serialize_round_trip() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let mut sys = fresh();
        let participants = ColorSet::full(3);
        let outcome = run_adversarial(
            &mut sys,
            participants,
            participants,
            &mut rng,
            |_| 0,
            50_000,
        );
        let trace = Trace::from_outcome(participants, &outcome);
        let json = serde_json::to_string(&trace).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.len(), outcome.steps);
        assert!(!back.is_empty());
        // The adversarial context rides along.
        assert_eq!(back.correct, Some(participants));
        assert_eq!(back.crash_budgets.as_ref().map(Vec::len), Some(3));
    }

    #[test]
    fn old_trace_json_without_context_still_deserializes() {
        // Backward compatibility: artifacts written before the `correct` /
        // `crash_budgets` fields existed carry only participants + steps.
        let old = r#"{"participants":7,"steps":[0,1,2,0,1,2]}"#;
        let trace: Trace = serde_json::from_str(old).expect("old schema parses");
        assert_eq!(trace.participants, ColorSet::full(3));
        assert_eq!(trace.len(), 6);
        assert_eq!(trace.correct, None);
        assert_eq!(trace.crash_budgets, None);
        assert_eq!(trace.correct_terminated(ColorSet::full(3)), None);
        assert_eq!(trace.fault_plan, None);
        // And it still replays.
        let mut sys = fresh();
        let terminated = trace.replay(&mut sys).expect("old schedule still replays");
        assert!(terminated.is_subset_of(ColorSet::full(3)));
    }

    #[test]
    fn adversarial_context_is_captured_from_outcomes() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(44);
        let mut sys = fresh();
        let participants = ColorSet::full(3);
        let correct = ColorSet::from_indices([0, 2]);
        let outcome = run_adversarial(&mut sys, participants, correct, &mut rng, |_| 2, 50_000);
        let trace = Trace::from_outcome(participants, &outcome);
        assert_eq!(trace.correct, Some(correct));
        let budgets = trace.crash_budgets.clone().expect("budgets captured");
        assert_eq!(budgets, vec![None, Some(2), None]);
        // Round-trips through JSON with the context intact.
        let back: Trace = serde_json::from_str(&serde_json::to_string(&trace).unwrap()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn truncated_trace_leaves_processes_running() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(43);
        let mut sys = fresh();
        let participants = ColorSet::full(3);
        let outcome = run_adversarial(
            &mut sys,
            participants,
            participants,
            &mut rng,
            |_| 0,
            50_000,
        );
        let mut trace = Trace::from_outcome(participants, &outcome);
        trace.steps.truncate(1);
        let mut replayed = fresh();
        let terminated = trace
            .replay(&mut replayed)
            .expect("truncation stays in range");
        assert!(terminated.len() < 3, "one step cannot finish everyone");
    }

    #[test]
    fn corrupted_trace_replays_to_a_typed_error() {
        let trace = Trace {
            participants: ColorSet::full(3),
            steps: vec![0, 9, 1],
            correct: None,
            crash_budgets: None,
            fault_plan: None,
        };
        let mut sys = fresh();
        let err = trace.replay(&mut sys).expect_err("process 9 of 3");
        assert_eq!(err.step, 1);
        assert_eq!(err.process.index(), 9);
        assert_eq!(err.num_processes, 3);
    }
}
