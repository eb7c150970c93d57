//! Deterministic fault injection for the adversarial scheduler — the
//! chaos layer of the FACT reproduction.
//!
//! The paper's subject is computability *under* crashes, so the harness
//! that validates its theorems should itself be exercised with injected
//! failure. A [`FaultPlan`] is a seeded, serializable list of
//! [`FaultEvent`]s; a [`FaultInjector`] threads it through the
//! adversarial scheduling loop ([`run_adversarial_with_faults`]) or the
//! bounded exhaustive exploration ([`explore_schedules_with_faults`]):
//!
//! * **Crash events** zero a faulty process's remaining step budget at a
//!   chosen global step — modelling a crash mid-snapshot, immediately
//!   after a write, or at a round boundary, since the step index pins the
//!   exact atomic operation after which the process goes silent. Correct
//!   processes are exempt: a fair adversary may not crash outside its
//!   faulty set, so an injected crash never breaks the liveness
//!   assumptions of Lemmas 5–6.
//! * **Stall events** withhold a process from the scheduler's pick for a
//!   bounded window of steps, then revive it — an eventually-fair delay,
//!   not a crash. A stall that would empty the eligible set is
//!   overridden (and counted), keeping the schedule infinite-fair.
//! * **Perturbation events** rotate the scheduler's random pick at a
//!   chosen step, steering the run into a different interleaving while
//!   staying inside the eligible set.
//!
//! Every injected run is *schedule-deterministic*: the executed schedule
//! fully determines the run, so a captured [`crate::trace::Trace`] (which
//! records the plan for provenance) replays byte-identically without
//! re-injecting anything.

use act_topology::{ColorSet, ProcessId};
use serde::{Deserialize, Error, Reader, Serialize, Value, Writer};

use crate::scheduler::{
    explored_outcome, run_adversarial_inner, RunOutcome, Schedule, System, LIVENESS_FAILURES,
};

/// One injected fault. Step indices are *global* schedule positions
/// (the same indices a [`crate::trace::Trace`] records).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash `process` at global step `step`: from that step on it takes
    /// no further steps (its remaining crash budget drops to zero).
    /// Ignored for correct processes — the fair adversary may only
    /// crash inside its faulty set.
    Crash {
        /// Global step index the crash fires at.
        step: u64,
        /// Index of the crashed process.
        process: u32,
    },
    /// Stall `process` for the window `[from_step, from_step + duration)`
    /// of global steps: it stays alive but is withheld from the
    /// scheduler's pick, then revives — a bounded, fairness-preserving
    /// delay.
    Stall {
        /// Index of the stalled process.
        process: u32,
        /// First global step of the stall window.
        from_step: u64,
        /// Length of the stall window in steps.
        duration: u64,
    },
    /// Rotate the scheduler's random pick at global step `step` by
    /// `offset` positions (mod the eligible count) — a schedule
    /// perturbation that stays inside the eligible set.
    Perturb {
        /// Global step index the perturbation applies at.
        step: u64,
        /// Rotation applied to the picked index.
        offset: u64,
    },
}

// Hand-written (the vendored serde derive supports structs only): the
// enum serializes as an object with a `kind` discriminator. Decoding
// buffers the object as a `Value` (a cold path), since the kind, which
// may come last, decides which fields are read.
impl Serialize for FaultEvent {
    fn serialize(&self, w: &mut Writer) {
        let value = match self {
            FaultEvent::Crash { step, process } => Value::Map(vec![
                ("kind".to_string(), Value::Str("crash".to_string())),
                ("step".to_string(), Value::UInt(*step)),
                ("process".to_string(), Value::UInt(u64::from(*process))),
            ]),
            FaultEvent::Stall {
                process,
                from_step,
                duration,
            } => Value::Map(vec![
                ("kind".to_string(), Value::Str("stall".to_string())),
                ("process".to_string(), Value::UInt(u64::from(*process))),
                ("from_step".to_string(), Value::UInt(*from_step)),
                ("duration".to_string(), Value::UInt(*duration)),
            ]),
            FaultEvent::Perturb { step, offset } => Value::Map(vec![
                ("kind".to_string(), Value::Str("perturb".to_string())),
                ("step".to_string(), Value::UInt(*step)),
                ("offset".to_string(), Value::UInt(*offset)),
            ]),
        };
        value.serialize(w);
    }
}

impl Deserialize for FaultEvent {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let v = Value::deserialize(r)?;
        let kind: String = v.field("kind")?.decode()?;
        match kind.as_str() {
            "crash" => Ok(FaultEvent::Crash {
                step: v.field("step")?.decode()?,
                process: v.field("process")?.decode()?,
            }),
            "stall" => Ok(FaultEvent::Stall {
                process: v.field("process")?.decode()?,
                from_step: v.field("from_step")?.decode()?,
                duration: v.field("duration")?.decode()?,
            }),
            "perturb" => Ok(FaultEvent::Perturb {
                step: v.field("step")?.decode()?,
                offset: v.field("offset")?.decode()?,
            }),
            other => Err(Error::msg(format!("unknown fault kind {other:?}"))),
        }
    }
}

/// A seeded, serializable list of faults to inject into one run. The
/// plan rides along inside captured [`crate::trace::Trace`]s, so a
/// failing injection is reproducible from its artifact alone.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// The injected faults, in no particular order.
    pub events: Vec<FaultEvent>,
}

/// SplitMix64: a tiny, high-quality seeded stream used to *generate*
/// plans deterministically (the scheduler's own randomness stays the
/// caller's `rand::Rng`).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn empty() -> FaultPlan {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Generates a deterministic plan from a seed: one to four events
    /// (crashes, stalls, perturbations) aimed at the first `horizon`
    /// steps of a run over `num_processes` processes. The same seed
    /// always yields the same plan.
    pub fn seeded(seed: u64, num_processes: usize, horizon: u64) -> FaultPlan {
        let n = num_processes.max(1) as u64;
        let horizon = horizon.max(1);
        let mut state = seed;
        let count = 1 + (splitmix64(&mut state) % 4) as usize;
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let kind = splitmix64(&mut state) % 3;
            let event = match kind {
                0 => FaultEvent::Crash {
                    step: splitmix64(&mut state) % horizon,
                    process: (splitmix64(&mut state) % n) as u32,
                },
                1 => FaultEvent::Stall {
                    process: (splitmix64(&mut state) % n) as u32,
                    from_step: splitmix64(&mut state) % horizon,
                    duration: 1 + splitmix64(&mut state) % horizon.div_ceil(4),
                },
                _ => FaultEvent::Perturb {
                    step: splitmix64(&mut state) % horizon,
                    offset: 1 + splitmix64(&mut state) % n,
                },
            };
            events.push(event);
        }
        FaultPlan { seed, events }
    }
}

/// What a [`FaultInjector`] actually did to a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Crash events that fired (zeroed a budget).
    pub crashes_applied: usize,
    /// Crash events skipped because they targeted a correct process.
    pub crashes_skipped: usize,
    /// Scheduler picks from which at least one stalled process was
    /// withheld.
    pub stalls_applied: usize,
    /// Stall windows overridden because honouring them would have
    /// emptied the eligible set (fairness preservation).
    pub stall_overrides: usize,
    /// Perturbation events that rotated a pick.
    pub perturbs_applied: usize,
}

impl FaultReport {
    /// Whether any fault actually altered the run.
    pub fn any_applied(&self) -> bool {
        self.crashes_applied > 0 || self.stalls_applied > 0 || self.perturbs_applied > 0
    }
}

/// Executes a [`FaultPlan`] against the decision points of the
/// adversarial scheduling loop (see the crate docs of [`crate::fault`]
/// for the model). Created per run; collect the [`FaultReport`]
/// afterwards.
pub struct FaultInjector {
    plan: FaultPlan,
    fired: Vec<bool>,
    report: FaultReport,
}

impl FaultInjector {
    /// A fresh injector for one run of `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let fired = vec![false; plan.events.len()];
        FaultInjector {
            plan,
            fired,
            report: FaultReport::default(),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What has been applied so far.
    pub fn report(&self) -> &FaultReport {
        &self.report
    }

    /// Consumes the injector into its report.
    pub fn into_report(self) -> FaultReport {
        self.report
    }

    fn emit(kind: &str, step: usize, detail: u64, applied: bool) {
        if act_obs::enabled() {
            act_obs::event("fault.injected")
                .str("kind", kind)
                .u64("step", step as u64)
                .u64("detail", detail)
                .bool("applied", applied)
                .emit();
        }
    }

    /// Fires every due crash event: a crash with `step <= now` zeroes
    /// its target's remaining budget, unless the target is correct
    /// (fair adversaries only crash inside the faulty set).
    pub(crate) fn apply_crashes(
        &mut self,
        now: usize,
        correct: ColorSet,
        budgets: &mut [Option<usize>],
    ) {
        for (i, event) in self.plan.events.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            if let FaultEvent::Crash { step, process } = *event {
                if step as usize > now {
                    continue;
                }
                self.fired[i] = true;
                let p = process as usize;
                let applied = p < budgets.len() && !correct.contains(ProcessId::new(p));
                if applied {
                    budgets[p] = Some(0);
                    self.report.crashes_applied += 1;
                } else {
                    self.report.crashes_skipped += 1;
                }
                Self::emit("crash", now, u64::from(process), applied);
            }
        }
    }

    /// Whether `p` is inside an active stall window at global step `now`.
    fn is_stalled(&self, p: ProcessId, now: usize) -> bool {
        self.plan.events.iter().any(|e| {
            matches!(e, FaultEvent::Stall { process, from_step, duration }
                if *process as usize == p.index()
                    && (*from_step as usize..(*from_step + *duration) as usize).contains(&now))
        })
    }

    /// Withholds stalled processes from the eligible set — unless that
    /// would empty it, in which case the stall is overridden (bounded
    /// revival keeps the schedule fair).
    pub(crate) fn filter_stalls(&mut self, eligible: Vec<ProcessId>, now: usize) -> Vec<ProcessId> {
        let filtered: Vec<ProcessId> = eligible
            .iter()
            .copied()
            .filter(|&p| !self.is_stalled(p, now))
            .collect();
        if filtered.is_empty() {
            if filtered.len() < eligible.len() {
                self.report.stall_overrides += 1;
                Self::emit("stall", now, eligible.len() as u64, false);
            }
            return eligible;
        }
        if filtered.len() < eligible.len() {
            self.report.stalls_applied += 1;
            Self::emit("stall", now, (eligible.len() - filtered.len()) as u64, true);
        }
        filtered
    }

    /// Rotates the scheduler's pick when a perturbation is due at `now`.
    pub(crate) fn perturb(&mut self, now: usize, idx: usize, len: usize) -> usize {
        let mut idx = idx;
        for (i, event) in self.plan.events.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            if let FaultEvent::Perturb { step, offset } = *event {
                if step as usize == now {
                    self.fired[i] = true;
                    idx = (idx + offset as usize) % len;
                    self.report.perturbs_applied += 1;
                    Self::emit("perturb", now, offset, true);
                }
            }
        }
        idx
    }
}

/// [`crate::scheduler::run_adversarial`] with a [`FaultPlan`] injected
/// at every decision point. Liveness failures are counted and captured
/// like the plain scheduler's, but the artifact records the plan (reason
/// `"fault-liveness-failure"`), so `fact-cli replay` reproduces the run
/// from the artifact alone.
///
/// # Panics
///
/// Panics if `correct` is not a subset of `participants`, or is empty
/// (the plain scheduler's contract).
pub fn run_adversarial_with_faults<S, R, F>(
    sys: &mut S,
    participants: ColorSet,
    correct: ColorSet,
    rng: &mut R,
    crash_budget: F,
    max_steps: usize,
    plan: &FaultPlan,
) -> (RunOutcome, FaultReport)
where
    S: System,
    R: rand::Rng,
    F: FnMut(ProcessId) -> usize,
{
    let mut injector = FaultInjector::new(plan.clone());
    let outcome = run_adversarial_inner(
        sys,
        participants,
        correct,
        rng,
        crash_budget,
        max_steps,
        Some(&mut injector),
    );
    if !outcome.all_correct_terminated {
        LIVENESS_FAILURES.add(1);
        crate::trace::capture_fault_artifact(participants, &outcome, max_steps, plan);
    }
    (outcome, injector.into_report())
}

/// Bounded exhaustive exploration under a [`FaultPlan`]: like
/// [`crate::scheduler::explore_schedules_cloned`], but crash events
/// silence their target from their step onward and stall windows
/// withhold candidates (overridden when a branch would otherwise have no
/// candidate). The visited runs are a subset of the unfaulted
/// exploration's — injection narrows the tree, it never invents steps.
///
/// Returns the number of runs visited.
pub fn explore_schedules_with_faults<S, V>(
    initial: &S,
    participants: ColorSet,
    correct: ColorSet,
    max_depth: usize,
    max_runs: usize,
    plan: &FaultPlan,
    mut visit: V,
) -> usize
where
    S: System + Clone,
    V: FnMut(&S, &RunOutcome),
{
    assert!(
        correct.is_subset_of(participants),
        "correct processes must participate"
    );
    let span = act_obs::span("scheduler.explore_faults");
    let mut prefix: Schedule = Vec::new();
    let mut runs = 0usize;
    let injector = FaultInjector::new(plan.clone());
    explore_faulty_rec(
        initial,
        participants,
        correct,
        max_depth,
        max_runs,
        &injector,
        &mut prefix,
        &mut runs,
        &mut visit,
    );
    if act_obs::enabled() {
        span.finish()
            .str("strategy", "faulty")
            .u64("runs", runs as u64)
            .u64("events", plan.events.len() as u64)
            .emit();
    }
    runs
}

/// Whether `p` has been crashed by the plan at or before global step
/// `now` (correct processes are exempt, as in the scheduler loop).
fn crashed_by_plan(plan: &FaultPlan, p: ProcessId, correct: ColorSet, now: usize) -> bool {
    !correct.contains(p)
        && plan.events.iter().any(|e| {
            matches!(e, FaultEvent::Crash { step, process }
                if *process as usize == p.index() && *step as usize <= now)
        })
}

#[allow(clippy::too_many_arguments)]
fn explore_faulty_rec<S, V>(
    sys: &S,
    participants: ColorSet,
    correct: ColorSet,
    max_depth: usize,
    max_runs: usize,
    injector: &FaultInjector,
    prefix: &mut Schedule,
    runs: &mut usize,
    visit: &mut V,
) where
    S: System + Clone,
    V: FnMut(&S, &RunOutcome),
{
    if *runs >= max_runs {
        return;
    }
    let correct_pending = correct.iter().any(|p| !sys.has_terminated(p));
    if !correct_pending || prefix.len() >= max_depth {
        let outcome = explored_outcome(sys, correct, correct_pending, prefix);
        *runs += 1;
        visit(sys, &outcome);
        return;
    }
    let now = prefix.len();
    let alive: Vec<ProcessId> = participants
        .iter()
        .filter(|&p| !sys.has_terminated(p) && !crashed_by_plan(injector.plan(), p, correct, now))
        .collect();
    if alive.is_empty() {
        // Everyone left is crashed: the run ends here, non-maximal.
        let outcome = explored_outcome(sys, correct, correct_pending, prefix);
        *runs += 1;
        visit(sys, &outcome);
        return;
    }
    let unstalled: Vec<ProcessId> = alive
        .iter()
        .copied()
        .filter(|&p| !injector.is_stalled(p, now))
        .collect();
    // A stall that would remove every candidate is overridden, exactly
    // as in the scheduler loop.
    let candidates = if unstalled.is_empty() {
        alive
    } else {
        unstalled
    };
    for p in candidates {
        let mut child = sys.clone();
        child.step(p);
        prefix.push(p);
        explore_faulty_rec(
            &child,
            participants,
            correct,
            max_depth,
            max_runs,
            injector,
            prefix,
            runs,
            visit,
        );
        prefix.pop();
        if *runs >= max_runs {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{explore_schedules_cloned, run_adversarial};
    use rand::SeedableRng;

    /// The scheduler tests' toy system: `k` steps per process.
    #[derive(Clone)]
    struct Countdown {
        remaining: Vec<usize>,
    }

    impl Countdown {
        fn new(n: usize, k: usize) -> Self {
            Countdown {
                remaining: vec![k; n],
            }
        }
    }

    impl System for Countdown {
        fn step(&mut self, p: ProcessId) -> bool {
            let r = &mut self.remaining[p.index()];
            if *r > 0 {
                *r -= 1;
            }
            *r == 0
        }
        fn has_terminated(&self, p: ProcessId) -> bool {
            self.remaining[p.index()] == 0
        }
        fn num_processes(&self) -> usize {
            self.remaining.len()
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_serializable() {
        for seed in 0..32u64 {
            let a = FaultPlan::seeded(seed, 3, 100);
            let b = FaultPlan::seeded(seed, 3, 100);
            assert_eq!(a, b, "seed {seed} must regenerate the same plan");
            assert!(!a.events.is_empty() && a.events.len() <= 4);
            let json = serde_json::to_string(&a).unwrap();
            let back: FaultPlan = serde_json::from_str(&json).unwrap();
            assert_eq!(back, a, "plan survives a JSON round trip");
        }
        assert_ne!(
            FaultPlan::seeded(1, 3, 100),
            FaultPlan::seeded(2, 3, 100),
            "different seeds give different plans"
        );
    }

    #[test]
    fn every_event_kind_round_trips() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent::Crash {
                    step: 3,
                    process: 1,
                },
                FaultEvent::Stall {
                    process: 2,
                    from_step: 0,
                    duration: 5,
                },
                FaultEvent::Perturb { step: 7, offset: 2 },
            ],
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert!(json.contains("\"kind\""), "events carry a discriminator");
    }

    #[test]
    fn injected_runs_are_deterministic() {
        let participants = ColorSet::full(3);
        let correct = ColorSet::from_indices([0, 2]);
        for seed in 0..16u64 {
            let plan = FaultPlan::seeded(seed, 3, 50);
            let run = |plan: &FaultPlan| {
                let mut sys = Countdown::new(3, 4);
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
                run_adversarial_with_faults(
                    &mut sys,
                    participants,
                    correct,
                    &mut rng,
                    |_| 2,
                    10_000,
                    plan,
                )
            };
            let (a, ra) = run(&plan);
            let (b, rb) = run(&plan);
            assert_eq!(a, b, "seed {seed}: same plan, same rng, same outcome");
            assert_eq!(ra, rb, "and the same fault report");
        }
    }

    #[test]
    fn crash_events_never_touch_correct_processes() {
        let participants = ColorSet::full(2);
        let correct = ColorSet::full(2); // everyone correct
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::Crash {
                step: 0,
                process: 0,
            }],
        };
        let mut sys = Countdown::new(2, 2);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let (outcome, report) = run_adversarial_with_faults(
            &mut sys,
            participants,
            correct,
            &mut rng,
            |_| 0,
            10_000,
            &plan,
        );
        assert!(outcome.all_correct_terminated, "liveness survives the plan");
        assert_eq!(report.crashes_applied, 0);
        assert_eq!(report.crashes_skipped, 1);
    }

    #[test]
    fn crash_events_silence_faulty_processes() {
        let participants = ColorSet::full(2);
        let correct = ColorSet::from_indices([0]);
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::Crash {
                step: 0,
                process: 1,
            }],
        };
        let mut sys = Countdown::new(2, 3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let (outcome, report) = run_adversarial_with_faults(
            &mut sys,
            participants,
            correct,
            &mut rng,
            |_| 100, // a generous budget the crash then zeroes
            10_000,
            &plan,
        );
        assert!(outcome.all_correct_terminated);
        assert_eq!(report.crashes_applied, 1);
        assert!(
            !outcome.schedule.contains(&ProcessId::new(1)),
            "the crashed process took no steps"
        );
    }

    #[test]
    fn stalls_are_overridden_rather_than_starving_the_run() {
        // Stall the only correct process forever-ish: the override keeps
        // it schedulable, so the run still terminates.
        let participants = ColorSet::from_indices([0]);
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::Stall {
                process: 0,
                from_step: 0,
                duration: 1_000,
            }],
        };
        let mut sys = Countdown::new(1, 3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let (outcome, report) = run_adversarial_with_faults(
            &mut sys,
            participants,
            participants,
            &mut rng,
            |_| 0,
            10_000,
            &plan,
        );
        assert!(
            outcome.all_correct_terminated,
            "override preserves liveness"
        );
        assert!(report.stall_overrides > 0);
        assert_eq!(report.stalls_applied, 0);
    }

    #[test]
    fn stalls_delay_but_do_not_kill() {
        // With two correct processes, stalling p1 for a window reorders
        // the schedule but both still terminate.
        let participants = ColorSet::full(2);
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::Stall {
                process: 1,
                from_step: 0,
                duration: 2,
            }],
        };
        let mut sys = Countdown::new(2, 2);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let (outcome, report) = run_adversarial_with_faults(
            &mut sys,
            participants,
            participants,
            &mut rng,
            |_| 0,
            10_000,
            &plan,
        );
        assert!(outcome.all_correct_terminated);
        assert!(report.stalls_applied > 0);
        assert_eq!(
            &outcome.schedule[..2],
            &[ProcessId::new(0), ProcessId::new(0)],
            "the stall window forces p0 first"
        );
    }

    #[test]
    fn empty_plan_matches_the_plain_scheduler() {
        let participants = ColorSet::full(3);
        let correct = ColorSet::from_indices([0, 2]);
        let mut plain_sys = Countdown::new(3, 4);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let plain = run_adversarial(
            &mut plain_sys,
            participants,
            correct,
            &mut rng,
            |_| 2,
            10_000,
        );
        let mut faulty_sys = Countdown::new(3, 4);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let (faulty, report) = run_adversarial_with_faults(
            &mut faulty_sys,
            participants,
            correct,
            &mut rng,
            |_| 2,
            10_000,
            &FaultPlan::empty(),
        );
        assert_eq!(plain, faulty, "no events, no difference");
        assert!(!report.any_applied());
    }

    #[test]
    fn faulty_exploration_visits_a_subset_of_the_plain_runs() {
        let participants = ColorSet::full(2);
        let correct = ColorSet::from_indices([0]);
        let mut plain: Vec<Schedule> = Vec::new();
        explore_schedules_cloned(
            &Countdown::new(2, 2),
            participants,
            correct,
            10,
            10_000,
            |_, o| plain.push(o.schedule.clone()),
        );
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::Crash {
                step: 1,
                process: 1,
            }],
        };
        let mut faulty: Vec<Schedule> = Vec::new();
        let count = explore_schedules_with_faults(
            &Countdown::new(2, 2),
            participants,
            correct,
            10,
            10_000,
            &plan,
            |_, o| faulty.push(o.schedule.clone()),
        );
        assert_eq!(count, faulty.len());
        assert!(!faulty.is_empty());
        assert!(
            faulty.len() < plain.len(),
            "the crash prunes interleavings ({} vs {})",
            faulty.len(),
            plain.len()
        );
        for schedule in &faulty {
            // Injection narrows the tree: every faulty schedule is a
            // prefix-closed run the plain exploration also visits (same
            // schedule, or a crash-truncated prefix of one).
            assert!(
                plain
                    .iter()
                    .any(|p| p == schedule || p.starts_with(schedule)),
                "faulty schedule {schedule:?} must embed into the plain tree"
            );
            // And the crashed process never moves after its crash step.
            assert!(
                !schedule[1..].contains(&ProcessId::new(1)),
                "p1 crashed at step 1: {schedule:?}"
            );
        }
    }
}
