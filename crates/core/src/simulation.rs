//! Simulating the α-model inside the affine model `R_A^*` (Section 6).
//!
//! Two ingredients, mirroring the paper's simulation:
//!
//! * [`AdaptiveSetConsensus`] — α-adaptive set consensus solved by
//!   iterating `R_A` and electing leaders with `µ_Q` (Section 6.2,
//!   Lemmas 13–14): every process adopts the decision estimate of its
//!   leader, and commits once every competitor it observes holds an
//!   estimate;
//! * [`SnapshotSimulation`] — the Gafni–Rajsbaum-style simulation of
//!   atomic-snapshot memory on top of iterated (immediate-)snapshot views:
//!   processes merge sequence-numbered vectors round by round; a write
//!   completes once every active process is known to have observed it.
//!
//! Together these justify Theorem 15: anything solvable with shared memory
//! plus α-adaptive set consensus — equivalently, in the fair adversarial
//! `A`-model — is solvable in `R_A^*`.

use std::collections::HashMap;

use act_adversary::AgreementFunction;
use act_affine::AffineTask;
use act_topology::{ColorSet, Complex, ProcessId, Simplex, VertexId};
use rand::Rng;

use crate::leader::LeaderMap;

/// One iteration of an `R_A^*` run: the facet of `R_A` realized by the
/// iteration and the vertex of each participant.
#[derive(Clone, Debug)]
pub struct AffineIteration {
    /// The realized facet (a facet of `Δ(participants)`).
    pub facet: Simplex,
    /// Participant → vertex of the facet.
    pub vertices: HashMap<ProcessId, VertexId>,
}

/// Samples iterations of the affine model `R_A^*`: each iteration is an
/// independent uniformly chosen allowed run of the affine task among the
/// fixed participants.
///
/// (In `R_A^*` every participant moves in every iteration — the affine
/// model has no failures; asynchrony lives inside the chosen facets.)
pub struct AffineRunGenerator<'a> {
    task: &'a AffineTask,
    participants: ColorSet,
    recipes: std::sync::Arc<Vec<act_topology::Recipe>>,
}

impl<'a> AffineRunGenerator<'a> {
    /// Creates a generator for the given participant set.
    ///
    /// # Panics
    ///
    /// Panics if the task admits no run for this participation
    /// (`Δ(participants)` has no full-participation facet — "participation
    /// must grow first").
    pub fn new(task: &'a AffineTask, participants: ColorSet) -> Self {
        let recipes = task.recipes(participants);
        assert!(
            !recipes.is_empty(),
            "the affine task admits no run for participation {participants}"
        );
        AffineRunGenerator {
            task,
            participants,
            recipes,
        }
    }

    /// The number of distinct allowed runs per iteration.
    pub fn run_count(&self) -> usize {
        self.recipes.len()
    }

    /// Samples the next iteration.
    pub fn next_iteration<R: Rng>(&self, rng: &mut R) -> AffineIteration {
        let recipe = &self.recipes[rng.gen_range(0..self.recipes.len())];
        self.iteration_for(recipe)
    }

    /// The iteration realizing a specific recipe.
    pub fn iteration_for(&self, recipe: &act_topology::Recipe) -> AffineIteration {
        let complex = self.task.complex();
        let base_facet = complex.base().facets()[0].clone();
        let facet = complex
            .simplex_for_recipe(&base_facet, recipe)
            .expect("allowed recipes resolve inside the task");
        let vertices = facet
            .vertices()
            .iter()
            .map(|&v| (complex.color(v), v))
            .collect();
        AffineIteration { facet, vertices }
    }

    /// The participant set.
    pub fn participants(&self) -> ColorSet {
        self.participants
    }
}

/// The per-process outcome of an α-adaptive set-consensus simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The deciding process.
    pub process: ProcessId,
    /// The decided value.
    pub value: u64,
    /// The iteration (1-based) at which the process committed.
    pub round: usize,
}

/// α-adaptive set consensus in `R_A^*` via `µ_Q` leader election
/// (Section 6.2).
pub struct AdaptiveSetConsensus<'a> {
    task: &'a AffineTask,
    alpha: &'a AgreementFunction,
}

impl<'a> AdaptiveSetConsensus<'a> {
    /// Creates the solver for an affine task and its agreement function.
    pub fn new(task: &'a AffineTask, alpha: &'a AgreementFunction) -> Self {
        AdaptiveSetConsensus { task, alpha }
    }

    /// Runs the simulation among `q` (a subset of the participants), with
    /// `proposals[p]` the proposal of each process in `q`.
    ///
    /// Returns the decisions; every process of `q` decides within
    /// `max_rounds` iterations (the paper's Lemma 14 — we assert it).
    ///
    /// # Panics
    ///
    /// Panics if `q` is empty or not included in `participants`, or if a
    /// process fails to decide within `max_rounds` (a liveness violation).
    pub fn solve<R: Rng>(
        &self,
        participants: ColorSet,
        q: ColorSet,
        proposals: &HashMap<ProcessId, u64>,
        rng: &mut R,
        max_rounds: usize,
    ) -> Vec<Decision> {
        assert!(!q.is_empty() && q.is_subset_of(participants));
        let generator = AffineRunGenerator::new(self.task, participants);
        let leader_map = LeaderMap::new(self.task.complex(), self.alpha);
        let complex = self.task.complex();

        let mut estimates: HashMap<ProcessId, u64> = HashMap::new();
        let mut decisions: Vec<Decision> = Vec::new();
        let mut undecided = q;

        for round in 1..=max_rounds {
            if undecided.is_empty() {
                break;
            }
            let iter = generator.next_iteration(rng);
            // Phase 1: every undecided process adopts the estimate (or
            // proposal) of its leader among the still-relevant processes.
            let active_q = undecided;
            let mut new_estimates = estimates.clone();
            for p in active_q.iter() {
                let v = iter.vertices[&p];
                let leader = leader_map.mu_q(v, active_q);
                let adopted = estimates
                    .get(&leader)
                    .copied()
                    .unwrap_or_else(|| proposals[&leader]);
                new_estimates.insert(p, adopted);
            }
            estimates = new_estimates;
            // Phase 2: a process commits once every `q`-competitor it
            // observes already holds an estimate.
            for p in active_q.iter() {
                let v = iter.vertices[&p];
                let seen = complex.base_colors_of_vertex(v);
                let competitors = seen.intersection(active_q);
                if competitors.iter().all(|c| estimates.contains_key(&c)) {
                    decisions.push(Decision {
                        process: p,
                        value: estimates[&p],
                        round,
                    });
                    undecided = undecided.without(p);
                }
            }
        }
        assert!(
            undecided.is_empty(),
            "liveness violation: {undecided} undecided after {max_rounds} rounds"
        );
        decisions
    }
}

/// The simulated atomic-snapshot memory over iterated snapshot views
/// (Section 6.1): each process repeatedly publishes a sequence-numbered
/// vector; received vectors are merged pointwise by sequence number.
///
/// Feeding it the per-iteration views of an `R_A^*` run (or of any IIS
/// run) yields emulated `update`/`snapshot` histories whose atomicity the
/// [`SnapshotSimulation::check_atomicity`] verifier certifies.
#[derive(Clone, Debug)]
pub struct SnapshotSimulation {
    n: usize,
    /// Per process: its current merged vector of (seqno, value).
    vectors: Vec<SeqVector>,
    /// Per process: the next sequence number to write.
    next_seq: Vec<u64>,
    /// Log of emulated snapshots.
    snapshots: Vec<LoggedSnapshot>,
    round: usize,
}

/// A vector of `(sequence number, value)` pairs, one slot per process.
pub type SeqVector = Vec<(u64, u64)>;

/// One logged emulated snapshot: `(process, round, vector)`.
pub type LoggedSnapshot = (ProcessId, usize, SeqVector);

impl SnapshotSimulation {
    /// Creates the simulation for `n` processes (all vectors empty, every
    /// slot at sequence number 0).
    pub fn new(n: usize) -> Self {
        SnapshotSimulation {
            n,
            vectors: vec![vec![(0, 0); n]; n],
            next_seq: vec![1; n],
            snapshots: Vec::new(),
            round: 0,
        }
    }

    /// Process `p` stages a write of `value` (its next pending operation).
    /// The write is published in the next iteration `p` participates in.
    pub fn stage_write(&mut self, p: ProcessId, value: u64) {
        let seq = self.next_seq[p.index()];
        self.next_seq[p.index()] += 1;
        self.vectors[p.index()][p.index()] = (seq, value);
    }

    /// Executes one iteration: `views[i]` is the set of processes whose
    /// published vectors process `i` receives (must include `i` itself for
    /// participants; `None` marks a process not participating in this
    /// iteration).
    ///
    /// Every participant then holds the pointwise-by-seqno merge of the
    /// received vectors and logs it as an emulated snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the views violate self-inclusion or containment (they
    /// must come from a snapshot-like round).
    pub fn step_round(&mut self, views: &[Option<ColorSet>]) {
        assert_eq!(views.len(), self.n);
        self.round += 1;
        // Validate snapshot-like views.
        let participating: Vec<ProcessId> = (0..self.n)
            .map(ProcessId::new)
            .filter(|p| views[p.index()].is_some())
            .collect();
        for &p in &participating {
            let view = views[p.index()].unwrap();
            assert!(view.contains(p), "self-inclusion");
            for &q in &participating {
                let other = views[q.index()].unwrap();
                assert!(
                    view.is_subset_of(other) || other.is_subset_of(view),
                    "containment"
                );
            }
        }
        // Publish: the merge reads the vectors as they were at the start
        // of the round.
        let published = self.vectors.clone();
        for &p in &participating {
            let view = views[p.index()].unwrap();
            let mut merged = self.vectors[p.index()].clone();
            for q in view.iter() {
                for slot in 0..self.n {
                    if published[q.index()][slot].0 > merged[slot].0 {
                        merged[slot] = published[q.index()][slot];
                    }
                }
            }
            self.vectors[p.index()] = merged.clone();
            self.snapshots.push((p, self.round, merged));
        }
    }

    /// The emulated snapshots logged so far.
    pub fn snapshots(&self) -> &[LoggedSnapshot] {
        &self.snapshots
    }

    /// Whether process `p`'s write with sequence number `seq` is known (to
    /// an omniscient observer) to have reached every process in `alive`.
    pub fn write_visible_to_all(&self, p: ProcessId, seq: u64, alive: ColorSet) -> bool {
        alive
            .iter()
            .all(|q| self.vectors[q.index()][p.index()].0 >= seq)
    }

    /// Verifies the atomic-snapshot axioms on the logged history:
    ///
    /// 1. *comparability* — logged snapshots are totally ordered by
    ///    pointwise sequence numbers;
    /// 2. *self-inclusion* — a process's snapshot contains its own latest
    ///    staged write;
    /// 3. *monotonicity* — each process's successive snapshots never go
    ///    backwards.
    ///
    /// Together with per-slot monotone sequence numbers these imply the
    /// history is linearizable as an atomic-snapshot memory.
    pub fn check_atomicity(&self) -> Result<(), String> {
        let dominates = |a: &SeqVector, b: &SeqVector| a.iter().zip(b).all(|(x, y)| x.0 >= y.0);
        for (i, (p1, r1, s1)) in self.snapshots.iter().enumerate() {
            for (p2, r2, s2) in self.snapshots.iter().skip(i + 1) {
                if !dominates(s1, s2) && !dominates(s2, s1) {
                    return Err(format!(
                        "incomparable snapshots: {p1} at round {r1} vs {p2} at round {r2}"
                    ));
                }
            }
        }
        let mut last: HashMap<ProcessId, SeqVector> = HashMap::new();
        for (p, r, s) in &self.snapshots {
            if let Some(prev) = last.get(p) {
                if !dominates(s, prev) {
                    return Err(format!("snapshot of {p} at round {r} went backwards"));
                }
            }
            last.insert(*p, s.clone());
        }
        Ok(())
    }
}

/// Extracts, for each participant, the set of processes it sees across a
/// full iteration of an affine task (its `carrier(v, s)`), in the form
/// [`SnapshotSimulation::step_round`] expects.
pub fn iteration_views(
    complex: &Complex,
    iteration: &AffineIteration,
    n: usize,
) -> Vec<Option<ColorSet>> {
    let mut out = vec![None; n];
    for (&p, &v) in &iteration.vertices {
        out[p.index()] = Some(complex.base_colors_of_vertex(v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_adversary::{zoo, Adversary};
    use act_affine::fair_affine_task;
    use rand::SeedableRng;

    fn proposals(q: ColorSet) -> HashMap<ProcessId, u64> {
        q.iter().map(|p| (p, 100 + p.index() as u64)).collect()
    }

    #[test]
    fn adaptive_set_consensus_respects_alpha() {
        // Lemma 13 (α-agreement + validity) and Lemma 14 (liveness),
        // sampled over models, participations and coalitions Q.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        let models = vec![
            AgreementFunction::k_concurrency(3, 1),
            AgreementFunction::k_concurrency(3, 2),
            AgreementFunction::of_adversary(&zoo::figure_5b_adversary()),
            AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1)),
        ];
        for alpha in &models {
            let task = fair_affine_task(alpha);
            let solver = AdaptiveSetConsensus::new(&task, alpha);
            let full = ColorSet::full(3);
            for q in full.non_empty_subsets() {
                let props = proposals(q);
                for _ in 0..10 {
                    let decisions = solver.solve(full, q, &props, &mut rng, 64);
                    assert_eq!(decisions.len(), q.len(), "everyone in Q decides");
                    let mut values: Vec<u64> = decisions.iter().map(|d| d.value).collect();
                    values.sort_unstable();
                    values.dedup();
                    assert!(
                        values.len() <= alpha.alpha(full),
                        "α-agreement violated: {} values for α = {}",
                        values.len(),
                        alpha.alpha(full)
                    );
                    for v in &values {
                        assert!(
                            props.values().any(|p| p == v),
                            "validity: decided value was proposed by Q"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn adaptivity_with_partial_participation() {
        // With participation P, the bound is α(P), which can be smaller
        // than α(Π).
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(32);
        let alpha = AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1));
        let task = fair_affine_task(&alpha);
        let solver = AdaptiveSetConsensus::new(&task, &alpha);
        let pair = ColorSet::from_indices([0, 1]);
        assert_eq!(alpha.alpha(pair), 1, "two participants: consensus");
        let props = proposals(pair);
        for _ in 0..20 {
            let decisions = solver.solve(pair, pair, &props, &mut rng, 64);
            let mut values: Vec<u64> = decisions.iter().map(|d| d.value).collect();
            values.sort_unstable();
            values.dedup();
            assert_eq!(values.len(), 1, "α(P) = 1 forces agreement");
        }
    }

    #[test]
    fn snapshot_simulation_is_atomic_over_affine_runs() {
        // Section 6.1: the emulated snapshot memory built from R_A^*
        // iteration views passes the atomicity verifier, and writes
        // propagate to every process.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(33);
        let alpha = AgreementFunction::k_concurrency(3, 2);
        let task = fair_affine_task(&alpha);
        let generator = AffineRunGenerator::new(&task, ColorSet::full(3));
        let mut sim = SnapshotSimulation::new(3);
        for round in 0..40 {
            // Every process stages a fresh write every other round.
            if round % 2 == 0 {
                for i in 0..3 {
                    sim.stage_write(ProcessId::new(i), (round * 10 + i) as u64);
                }
            }
            let iter = generator.next_iteration(&mut rng);
            let views = iteration_views(task.complex(), &iter, 3);
            sim.step_round(&views);
        }
        sim.check_atomicity().expect("atomic-snapshot axioms hold");
        // Eventual visibility: after a quiescent round every alive process
        // holds everyone's latest write.
        let all = ColorSet::full(3);
        // One more synchronous-ish iteration to flush.
        for _ in 0..4 {
            let iter = generator.next_iteration(&mut rng);
            sim.step_round(&iteration_views(task.complex(), &iter, 3));
        }
        for i in 0..3 {
            let p = ProcessId::new(i);
            let last_seq = 20; // 20 writes staged per process
            assert!(
                sim.write_visible_to_all(p, last_seq, all),
                "writes eventually reach everyone"
            );
        }
    }

    #[test]
    fn snapshot_simulation_detects_broken_views() {
        let mut sim = SnapshotSimulation::new(2);
        sim.stage_write(ProcessId::new(0), 7);
        // Views violating containment must be rejected.
        let bad = vec![
            Some(ColorSet::from_indices([0])),
            Some(ColorSet::from_indices([1])),
        ];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.step_round(&bad);
        }));
        assert!(result.is_err(), "containment violation is rejected");
    }

    #[test]
    fn run_generator_counts_match_recipes() {
        let alpha = AgreementFunction::k_concurrency(3, 1);
        let task = fair_affine_task(&alpha);
        let g = AffineRunGenerator::new(&task, ColorSet::full(3));
        assert_eq!(g.run_count(), task.recipes(ColorSet::full(3)).len());
        assert_eq!(g.participants(), ColorSet::full(3));
    }
}
