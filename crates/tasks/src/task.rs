//! Distributed tasks `(I, O, Δ)` as chromatic complexes plus a carrier map.

use std::collections::HashMap;

use act_topology::{ColorPerm, ColorSet, Complex, ProcessId, Simplex, SYMMETRY_MAX_DEGREE};

/// A declared symmetry of a task: a color permutation `π`, optionally
/// paired with label relabelings, under which the task is invariant:
/// `I` and `O` map onto themselves and
/// `output ∈ Δ(input)  ⟺  g(output) ∈ Δ(g(input))`.
///
/// The label maps must be bijections on the labels they touch; `None`
/// means labels are fixed. Implementations of [`Task::symmetries`] are
/// trusted to return only genuine symmetries — the map search uses them
/// to add symmetry-breaking (lex-leader) constraints, so a bogus entry
/// can prune real solutions. The search independently verifies that each
/// declared symmetry lifts to an automorphism of the concrete search
/// domain and of the output complex (via [`act_topology::chain_action`])
/// and silently skips the ones that do not.
#[derive(Clone, Debug)]
pub struct TaskSymmetry {
    /// The color permutation `π`.
    pub color: ColorPerm,
    /// Relabeling applied to input labels alongside `π` (`None` = fixed).
    pub input_labels: Option<HashMap<u64, u64>>,
    /// Relabeling applied to output labels alongside `π` (`None` = fixed).
    pub output_labels: Option<HashMap<u64, u64>>,
}

/// A distributed task `T = (I, O, Δ)` (Section 2 of the paper).
///
/// Inputs and outputs are level-0 chromatic complexes whose vertex labels
/// are the task values; `Δ` is represented by the [`Task::allows`]
/// predicate. Implementations must keep `allows` *monotone*: if an output
/// simplex is allowed, so is each of its faces (this is what makes `Δ` a
/// carrier map and enables incremental pruning in the map search).
///
/// `Send + Sync` is a supertrait so a `&dyn Task` can be shared between
/// threads.
pub trait Task: Send + Sync {
    /// Display name of the task.
    fn name(&self) -> String;

    /// The number of processes.
    fn num_processes(&self) -> usize;

    /// The input complex `I`.
    fn inputs(&self) -> &Complex;

    /// The output complex `O`.
    fn outputs(&self) -> &Complex;

    /// Whether the output simplex is allowed when the participating
    /// processes' inputs form `input`: `output ∈ Δ(input)`.
    ///
    /// Only called with `input ∈ I`, `output ∈ O` and
    /// `χ(output) ⊆ χ(input)`; must be monotone in `output`.
    fn allows(&self, input: &Simplex, output: &Simplex) -> bool;

    /// The task's declared symmetries (see [`TaskSymmetry`]); the map
    /// search breaks them with lex-leader constraints so only one witness
    /// per orbit is explored. The default — no symmetries — is always
    /// sound. Every returned entry must be a genuine symmetry of `Δ`.
    fn symmetries(&self) -> Vec<TaskSymmetry> {
        Vec::new()
    }
}

/// Builds the pseudosphere input complex: every process independently
/// receives any value from `values`; facets are all full assignments.
///
/// # Panics
///
/// Panics if `values` is empty or `n` is 0.
pub fn pseudosphere(n: usize, values: &[u64]) -> Complex {
    assert!(
        n >= 1 && !values.is_empty(),
        "pseudosphere needs processes and values"
    );
    let mut verts = Vec::with_capacity(n * values.len());
    for p in 0..n {
        for &v in values {
            verts.push((ProcessId::new(p), v));
        }
    }
    // Facets: one vertex per process, every combination.
    let mut facets = Vec::new();
    let mut choice = vec![0usize; n];
    loop {
        facets.push(
            (0..n)
                .map(|p| p * values.len() + choice[p])
                .collect::<Vec<_>>(),
        );
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == n {
                return Complex::from_labeled_vertices(n, verts, facets);
            }
            choice[i] += 1;
            if choice[i] < values.len() {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

/// The `k`-set consensus task: processes propose values from a fixed set
/// and must decide on at most `k` distinct proposed values (validity +
/// `k`-agreement). `k = 1` is consensus.
///
/// # Examples
///
/// ```
/// use act_tasks::{SetConsensus, Task};
///
/// let t = SetConsensus::new(3, 2, &[0, 1, 2]);
/// assert_eq!(t.name(), "2-set consensus (3 processes, 3 values)");
/// assert_eq!(t.inputs().facet_count(), 27);
/// ```
#[derive(Clone, Debug)]
pub struct SetConsensus {
    n: usize,
    k: usize,
    values: Vec<u64>,
    inputs: Complex,
    outputs: Complex,
}

impl SetConsensus {
    /// Creates the `k`-set consensus task over `n` processes with the
    /// given proposal values.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or `values` has fewer than `k + 1` distinct
    /// values (the task would be trivial).
    pub fn new(n: usize, k: usize, values: &[u64]) -> SetConsensus {
        assert!(k >= 1, "k-set consensus needs k ≥ 1");
        let mut distinct = values.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() > k,
            "k-set consensus needs more than k distinct values to be non-trivial"
        );
        let inputs = pseudosphere(n, &distinct);
        // Output complex: all colorful simplices using at most k distinct
        // values.
        let mut verts = Vec::new();
        for p in 0..n {
            for &v in &distinct {
                verts.push((ProcessId::new(p), v));
            }
        }
        let mut facets = Vec::new();
        // Facets: choose one value per process such that ≤ k distinct.
        let mut choice = vec![0usize; n];
        'outer: loop {
            let mut used: Vec<u64> = choice.iter().map(|&c| distinct[c]).collect();
            used.sort_unstable();
            used.dedup();
            if used.len() <= k {
                facets.push(
                    (0..n)
                        .map(|p| p * distinct.len() + choice[p])
                        .collect::<Vec<_>>(),
                );
            }
            let mut i = 0;
            loop {
                if i == n {
                    break 'outer;
                }
                choice[i] += 1;
                if choice[i] < distinct.len() {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
        }
        let outputs = Complex::from_labeled_vertices(n, verts, facets);
        SetConsensus {
            n,
            k,
            values: distinct,
            inputs,
            outputs,
        }
    }

    /// The agreement parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The proposal values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The *rainbow* restriction of the input complex: the single facet
    /// where process `i` proposes the `i`-th value (cyclically). Searching
    /// on it is much cheaper, and a non-existence result on a sub-complex
    /// of the inputs implies non-existence on the full inputs.
    pub fn rainbow_inputs(&self) -> Complex {
        let i = &self.inputs;
        let m = self.values.len();
        let facet = i
            .facets()
            .iter()
            .find(|f| {
                f.vertices()
                    .iter()
                    .all(|&v| i.vertex(v).label == self.values[i.color(v).index() % m])
            })
            .expect("the rainbow facet exists in the pseudosphere")
            .clone();
        i.sub_complex(vec![facet])
    }
}

impl Task for SetConsensus {
    fn name(&self) -> String {
        format!(
            "{}-set consensus ({} processes, {} values)",
            self.k,
            self.n,
            self.values.len()
        )
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn inputs(&self) -> &Complex {
        &self.inputs
    }

    fn outputs(&self) -> &Complex {
        &self.outputs
    }

    fn allows(&self, input: &Simplex, output: &Simplex) -> bool {
        // Validity: every decided value was proposed by a participant.
        // k-agreement: at most k distinct decided values.
        let proposed: Vec<u64> = input
            .vertices()
            .iter()
            .map(|&v| self.inputs.vertex(v).label)
            .collect();
        let mut decided: Vec<u64> = output
            .vertices()
            .iter()
            .map(|&v| self.outputs.vertex(v).label)
            .collect();
        decided.sort_unstable();
        decided.dedup();
        decided.len() <= self.k && decided.iter().all(|d| proposed.contains(d))
    }

    fn symmetries(&self) -> Vec<TaskSymmetry> {
        // Validity and k-agreement see only the *sets* of proposed and
        // decided values, so every color permutation π fixes Δ outright.
        // With exactly n distinct proposal values the diagonal action
        // that also relabels values[i] → values[π(i)] is a symmetry too
        // — the one that survives on rainbow-restricted inputs, where
        // process i proposes the i-th value.
        if self.n > SYMMETRY_MAX_DEGREE {
            return Vec::new();
        }
        let mut out = Vec::new();
        for perm in ColorPerm::all(self.n) {
            if perm.is_identity() {
                continue;
            }
            out.push(TaskSymmetry {
                color: perm.clone(),
                input_labels: None,
                output_labels: None,
            });
            if self.values.len() == self.n {
                let map: HashMap<u64, u64> = (0..self.n)
                    .map(|i| {
                        (
                            self.values[i],
                            self.values[perm.apply(ProcessId::new(i)).index()],
                        )
                    })
                    .collect();
                out.push(TaskSymmetry {
                    color: perm,
                    input_labels: Some(map.clone()),
                    output_labels: Some(map),
                });
            }
        }
        out
    }
}

/// Consensus: 1-set consensus.
pub fn consensus(n: usize, values: &[u64]) -> SetConsensus {
    SetConsensus::new(n, 1, values)
}

/// The trivial task: every process outputs its own input (solvable in any
/// model without communication) — a sanity baseline for the solver.
#[derive(Clone, Debug)]
pub struct TrivialTask {
    n: usize,
    inputs: Complex,
    outputs: Complex,
}

impl TrivialTask {
    /// Creates the trivial task over `n` processes and the given values.
    pub fn new(n: usize, values: &[u64]) -> TrivialTask {
        let inputs = pseudosphere(n, values);
        let outputs = pseudosphere(n, values);
        TrivialTask { n, inputs, outputs }
    }
}

impl Task for TrivialTask {
    fn name(&self) -> String {
        format!("trivial ({} processes)", self.n)
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn inputs(&self) -> &Complex {
        &self.inputs
    }

    fn outputs(&self) -> &Complex {
        &self.outputs
    }

    fn allows(&self, input: &Simplex, output: &Simplex) -> bool {
        // Each participant outputs exactly its input value.
        output.vertices().iter().all(|&ov| {
            let color = self.outputs.color(ov);
            let value = self.outputs.vertex(ov).label;
            input
                .vertices()
                .iter()
                .any(|&iv| self.inputs.color(iv) == color && self.inputs.vertex(iv).label == value)
        })
    }
}

/// The participating-set-style *election* task used in the compactness
/// experiment: every process outputs a process id that must be a
/// participating process, and all outputs must coincide (leader election —
/// equivalent to consensus on ids).
#[derive(Clone, Debug)]
pub struct LeaderElection {
    inner: SetConsensus,
}

impl LeaderElection {
    /// Creates leader election over `n` processes: consensus on ids.
    pub fn new(n: usize) -> LeaderElection {
        let ids: Vec<u64> = (0..n as u64).collect();
        LeaderElection {
            inner: SetConsensus::new(n, 1, &ids),
        }
    }
}

impl Task for LeaderElection {
    fn name(&self) -> String {
        format!("leader election ({} processes)", self.inner.n)
    }
    fn num_processes(&self) -> usize {
        self.inner.n
    }
    fn inputs(&self) -> &Complex {
        self.inner.inputs()
    }
    fn outputs(&self) -> &Complex {
        self.inner.outputs()
    }
    fn allows(&self, input: &Simplex, output: &Simplex) -> bool {
        self.inner.allows(input, output)
    }
    fn symmetries(&self) -> Vec<TaskSymmetry> {
        // Δ is literally the inner consensus-on-ids Δ.
        self.inner.symmetries()
    }
}

/// Returns the participating colors of an input simplex.
pub fn participants_of(inputs: &Complex, input: &Simplex) -> ColorSet {
    inputs.colors(input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pseudosphere_shape() {
        let c = pseudosphere(3, &[0, 1]);
        assert_eq!(c.num_vertices(), 6);
        assert_eq!(c.facet_count(), 8);
        assert!(c.is_chromatic());
        assert!(c.is_pure());
    }

    #[test]
    fn set_consensus_outputs_respect_k() {
        let t = SetConsensus::new(3, 2, &[0, 1, 2]);
        for f in t
            .outputs()
            .facet_count()
            .checked_sub(0)
            .map(|_| t.outputs().facets())
            .unwrap()
        {
            let mut vals: Vec<u64> = f
                .vertices()
                .iter()
                .map(|&v| t.outputs().vertex(v).label)
                .collect();
            vals.sort_unstable();
            vals.dedup();
            assert!(vals.len() <= 2);
        }
        // 27 total assignments − 6 rainbow (all distinct) = 21.
        assert_eq!(t.outputs().facet_count(), 21);
    }

    #[test]
    fn allows_checks_validity_and_agreement() {
        let t = consensus(2, &[0, 1]);
        let i = t.inputs();
        let o = t.outputs();
        // Input: p1 proposes 0, p2 proposes 1.
        let input = i
            .facets()
            .iter()
            .find(|f| {
                let labels: Vec<u64> = f.vertices().iter().map(|&v| i.vertex(v).label).collect();
                labels == vec![0, 1]
            })
            .unwrap();
        // Output both 0: allowed.
        let both0 = o
            .facets()
            .iter()
            .find(|f| f.vertices().iter().all(|&v| o.vertex(v).label == 0))
            .unwrap();
        assert!(t.allows(input, both0));
        // Input both 1: output both 0 violates validity.
        let input11 = i
            .facets()
            .iter()
            .find(|f| f.vertices().iter().all(|&v| i.vertex(v).label == 1))
            .unwrap();
        assert!(!t.allows(input11, both0));
    }

    #[test]
    fn allows_is_monotone() {
        let t = SetConsensus::new(3, 2, &[0, 1, 2]);
        let input = t.inputs().facets()[5].clone();
        for out_facet in t.outputs().facets().iter().take(10) {
            if t.allows(&input, out_facet) {
                for face in out_facet.non_empty_faces() {
                    assert!(t.allows(&input, &face), "monotonicity violated");
                }
            }
        }
    }

    #[test]
    fn trivial_task_allows_identity_only() {
        let t = TrivialTask::new(2, &[3, 4]);
        let i = t.inputs();
        let input = i.facets()[0].clone();
        let labels: Vec<(usize, u64)> = input
            .vertices()
            .iter()
            .map(|&v| (i.color(v).index(), i.vertex(v).label))
            .collect();
        // The matching output facet is allowed.
        let o = t.outputs();
        let matching = o
            .facets()
            .iter()
            .find(|f| {
                f.vertices()
                    .iter()
                    .map(|&v| (o.color(v).index(), o.vertex(v).label))
                    .collect::<Vec<_>>()
                    == labels
            })
            .unwrap();
        assert!(t.allows(&input, matching));
        // Any differing output facet is not.
        let differing = o
            .facets()
            .iter()
            .find(|f| {
                f.vertices()
                    .iter()
                    .map(|&v| (o.color(v).index(), o.vertex(v).label))
                    .collect::<Vec<_>>()
                    != labels
            })
            .unwrap();
        assert!(!t.allows(&input, differing));
    }

    #[test]
    #[should_panic(expected = "non-trivial")]
    fn degenerate_set_consensus_rejected() {
        let _ = SetConsensus::new(3, 3, &[0, 1, 2]);
    }

    #[test]
    fn leader_election_is_consensus_on_ids() {
        let t = LeaderElection::new(3);
        assert_eq!(t.inputs().facet_count(), 27);
        assert_eq!(t.num_processes(), 3);
        assert_eq!(
            t.symmetries().len(),
            SetConsensus::new(3, 1, &[0, 1, 2]).symmetries().len()
        );
    }

    #[test]
    fn declared_symmetries_are_genuine() {
        // The symmetry-breaking search trusts `symmetries()`: verify the
        // contract exhaustively for a small instance — each declared
        // action lifts to I and O and commutes with Δ on every
        // (input facet, output facet) pair.
        use act_topology::{chain_action, LabelMatching};
        let t = SetConsensus::new(3, 2, &[0, 1, 2]);
        let syms = t.symmetries();
        // 5 non-identity permutations of S₃, pure only (4 values ≠ n is
        // false here: 3 values == n=3, so diagonal entries double it).
        assert_eq!(syms.len(), 10);
        for sym in &syms {
            let in_matching = match &sym.input_labels {
                Some(m) => LabelMatching::Relabeled(m),
                None => LabelMatching::Strict,
            };
            let gi =
                chain_action(t.inputs(), &sym.color, in_matching).expect("inputs admit the action");
            assert!(gi.preserves_facets(t.inputs()));
            let out_matching = match &sym.output_labels {
                Some(m) => LabelMatching::Relabeled(m),
                None => LabelMatching::Strict,
            };
            let go = chain_action(t.outputs(), &sym.color, out_matching)
                .expect("outputs admit the action");
            assert!(go.preserves_facets(t.outputs()));
            for input in t.inputs().facets() {
                for output in t.outputs().facets() {
                    assert_eq!(
                        t.allows(input, output),
                        t.allows(&gi.apply_simplex(0, input), &go.apply_simplex(0, output)),
                        "Δ must be invariant under every declared symmetry"
                    );
                }
            }
        }
    }

    #[test]
    fn tasks_without_declared_symmetries_default_to_none() {
        assert!(TrivialTask::new(2, &[0, 1]).symmetries().is_empty());
        // With values.len() != n only the pure color actions are
        // declared: S₂ has one non-identity element.
        assert_eq!(SetConsensus::new(2, 1, &[0, 1, 2]).symmetries().len(), 1);
    }
}
