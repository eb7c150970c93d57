//! The CSP core of the carried-map search: bitset domains, a
//! backtracking trail, table constraints with GAC residual supports, and
//! memoized constraint-table construction.
//!
//! Variables are the used vertices of the (subdivided) domain complex,
//! re-indexed densely; the values of a variable are its same-colored
//! candidate output vertices, re-indexed densely per variable so that a
//! current domain is a handful of `u64` words. The search never clones
//! domains: every removal is recorded on a trail and undone on
//! backtrack. Immutable data (candidate lists, constraint tuples,
//! support lists) is built once, memoized by the facet's intern-key
//! signature, and shared behind `Arc`s by the facets with equal
//! signatures; the search mutates only the [`State`].

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use act_topology::{
    chain_action, ChainAction, Complex, LabelMatching, ProcessId, Simplex, VertexId,
};

use crate::mapsearch::SearchStats;
use crate::task::{Task, TaskSymmetry};

/// Sentinel for "no residual support cached yet".
const NO_RESIDUE: u32 = u32::MAX;

/// Immutable tuple data of one constraint *shape*: tuples and support
/// lists in dense value-index space. Facets with equal intern-key
/// signatures (same per-position `(color, base-carrier)` pairs) admit
/// exactly the same assignments, so they share one `TupleData`.
pub(crate) struct TupleData {
    /// Facet size (number of member variables).
    pub(crate) arity: usize,
    /// Prefix offsets into the per-position value space: position `p`
    /// owns value slots `pos_off[p]..pos_off[p + 1]`; `pos_off[arity]`
    /// is the constraint's total value-slot count (its residue block
    /// size).
    pub(crate) pos_off: Vec<u32>,
    /// Allowed tuples, flattened: tuple `t` occupies
    /// `tuples[t * arity..(t + 1) * arity]`, each entry a dense value
    /// index of the member at that position.
    pub(crate) tuples: Vec<u32>,
    /// Support lists: `supports[pos_off[p] + v]` are the indices of the
    /// tuples whose position-`p` entry is value `v`.
    pub(crate) supports: Vec<Vec<u32>>,
}

impl TupleData {
    /// Number of allowed tuples.
    #[cfg(test)]
    pub(crate) fn num_tuples(&self) -> usize {
        self.tuples.len().checked_div(self.arity).unwrap_or(0)
    }
}

/// One table constraint: its member variables plus the shared tuple
/// data and the offset of its residue block in [`State::residues`].
pub(crate) struct TableConstraint {
    /// Member variables, aligned with the tuple positions.
    pub(crate) members: Vec<u32>,
    /// Shared tuple data (memoized across same-signature facets).
    pub(crate) data: Arc<TupleData>,
    /// Start of this constraint's residue block.
    pub(crate) residue_base: u32,
}

/// The immutable half of the CSP, shared by all search workers.
pub(crate) struct Tables {
    /// Dense index → domain vertex.
    pub(crate) vars: Vec<VertexId>,
    /// Per variable: candidate output vertices (dense value index →
    /// output vertex), memoized by `(color, base-carrier)`.
    pub(crate) values: Vec<Arc<Vec<VertexId>>>,
    /// Per variable: start word of its domain bitset in
    /// [`State::words`]; `word_off[vars.len()]` is the total word count.
    pub(crate) word_off: Vec<u32>,
    /// The table constraints: one per facet of the domain, followed by
    /// the symmetry-breaking (lex-leader) constraints.
    pub(crate) constraints: Vec<TableConstraint>,
    /// How many leading entries of `constraints` are facet constraints;
    /// the rest are lex-leader symmetry breakers.
    pub(crate) facet_constraints: usize,
    /// Per variable: indices of constraints it appears in.
    pub(crate) constraints_of: Vec<Vec<u32>>,
    /// Total residue-slot count across all constraints.
    pub(crate) residue_len: usize,
}

/// The mutable half of the CSP: current domains (bitsets + counts), the
/// backtracking trail, and the GAC residues. Never cloned: the search
/// undoes its removals through the trail.
pub(crate) struct State {
    /// Domain bitsets, all variables concatenated (see
    /// [`Tables::word_off`]).
    pub(crate) words: Vec<u64>,
    /// Current domain size per variable.
    pub(crate) count: Vec<u32>,
    /// Removal trail: `(variable, value)` in removal order.
    pub(crate) trail: Vec<(u32, u32)>,
    /// Last witnessing tuple per constraint × position × value
    /// ([`NO_RESIDUE`] when none cached). Stale entries are sound: a
    /// residue is always re-validated against the current domains
    /// before it is trusted.
    pub(crate) residues: Vec<u32>,
    /// dom/wdeg weights: per variable, the summed weight of its
    /// constraints. Every constraint starts at weight 1; each wipe-out a
    /// constraint causes bumps all of its members. Conflict weights are
    /// *not* undone on backtrack — they are the search's memory of where
    /// the hard conflicts live, steering branching toward them.
    pub(crate) wdeg: Vec<u64>,
}

impl Tables {
    /// The word range of variable `var`'s domain bitset.
    #[inline]
    fn word_range(&self, var: usize) -> std::ops::Range<usize> {
        self.word_off[var] as usize..self.word_off[var + 1] as usize
    }

    /// Builds the initial (full) state: every candidate present, empty
    /// trail, no residues.
    fn initial_state(&self) -> State {
        let total_words = self.word_off.last().copied().unwrap_or(0) as usize;
        let mut words = vec![0u64; total_words];
        let mut count = Vec::with_capacity(self.vars.len());
        for (var, vals) in self.values.iter().enumerate() {
            let n = vals.len();
            count.push(n as u32);
            let range = self.word_range(var);
            for (i, w) in words[range].iter_mut().enumerate() {
                let lo = i * 64;
                let bits = n.saturating_sub(lo).min(64);
                *w = if bits == 64 {
                    !0u64
                } else {
                    (1u64 << bits) - 1
                };
            }
        }
        State {
            words,
            count,
            trail: Vec::new(),
            residues: vec![NO_RESIDUE; self.residue_len],
            wdeg: self
                .constraints_of
                .iter()
                .map(|cs| cs.len().max(1) as u64)
                .collect(),
        }
    }
}

impl State {
    /// Whether value `val` is in `var`'s current domain.
    #[inline]
    pub(crate) fn contains(&self, tables: &Tables, var: usize, val: u32) -> bool {
        let w = tables.word_off[var] as usize + (val / 64) as usize;
        self.words[w] & (1u64 << (val % 64)) != 0
    }

    /// Removes `val` from `var`'s domain, recording it on the trail.
    /// Must only be called for present values.
    #[inline]
    pub(crate) fn remove(&mut self, tables: &Tables, var: usize, val: u32) {
        let w = tables.word_off[var] as usize + (val / 64) as usize;
        debug_assert!(self.words[w] & (1u64 << (val % 64)) != 0);
        self.words[w] &= !(1u64 << (val % 64));
        self.count[var] -= 1;
        self.trail.push((var as u32, val));
    }

    /// Undoes every removal past `mark` (a previous `trail.len()`).
    pub(crate) fn undo_to(&mut self, tables: &Tables, mark: usize) {
        while self.trail.len() > mark {
            let Some((var, val)) = self.trail.pop() else {
                break; // unreachable: guarded by the loop condition
            };
            let w = tables.word_off[var as usize] as usize + (val / 64) as usize;
            self.words[w] |= 1u64 << (val % 64);
            self.count[var as usize] += 1;
        }
    }

    /// The current domain values of `var`, in increasing order.
    pub(crate) fn domain_values(&self, tables: &Tables, var: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count[var] as usize);
        for (i, &w) in self.words[tables.word_range(var)].iter().enumerate() {
            let mut w = w;
            while w != 0 {
                out.push((i * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
        out
    }

    /// The single remaining value of a singleton domain.
    pub(crate) fn single_value(&self, tables: &Tables, var: usize) -> u32 {
        debug_assert_eq!(self.count[var], 1);
        for (i, &w) in self.words[tables.word_range(var)].iter().enumerate() {
            if w != 0 {
                return (i * 64) as u32 + w.trailing_zeros();
            }
        }
        unreachable!("singleton domain has a bit set")
    }

    /// Whether tuple `t` of constraint `ci` is valid under the current
    /// domains (every entry still present).
    #[inline]
    fn tuple_valid(&self, tables: &Tables, c: &TableConstraint, t: u32) -> bool {
        let arity = c.data.arity;
        let base = t as usize * arity;
        for (pos, &m) in c.members.iter().enumerate() {
            if !self.contains(tables, m as usize, c.data.tuples[base + pos]) {
                return false;
            }
        }
        true
    }
}

/// GAC fixpoint over the constraint tables, pruning `state`'s domains in
/// place (every removal lands on the trail). Seeding with a variable
/// revises only its constraints first; `None` revises everything.
/// Returns `false` on a domain wipe-out.
///
/// Per (constraint, position, value), the last witnessing tuple is
/// cached in `state.residues` and re-validated before the support lists
/// are rescanned — on the deep, repetitive subtrees of the search the
/// residue check almost always succeeds, replacing the table scan with
/// an O(arity) bit test.
pub(crate) fn propagate(
    tables: &Tables,
    state: &mut State,
    seed: Option<usize>,
    stats: &mut SearchStats,
) -> bool {
    let mut queue: Vec<u32> = match seed {
        Some(v) => tables.constraints_of[v].clone(),
        None => (0..tables.constraints.len() as u32).collect(),
    };
    let mut queued = vec![false; tables.constraints.len()];
    for &q in &queue {
        queued[q as usize] = true;
    }
    while let Some(ci) = queue.pop() {
        queued[ci as usize] = false;
        let c = &tables.constraints[ci as usize];
        for (pos, &m) in c.members.iter().enumerate() {
            let m = m as usize;
            let mut removed = false;
            for val in state.domain_values(tables, m) {
                let ridx = c.residue_base as usize + c.data.pos_off[pos] as usize + val as usize;
                let r = state.residues[ridx];
                if r != NO_RESIDUE && state.tuple_valid(tables, c, r) {
                    stats.residue_hits += 1;
                    continue;
                }
                stats.residue_misses += 1;
                let supports = &c.data.supports[c.data.pos_off[pos] as usize + val as usize];
                match supports.iter().find(|&&t| state.tuple_valid(tables, c, t)) {
                    Some(&t) => {
                        // Seed the found tuple multi-directionally: it
                        // witnesses *every* (position, value) pair it
                        // covers, so future lookups from the sibling
                        // positions start from a fresh residue instead
                        // of a table scan.
                        let base = t as usize * c.data.arity;
                        for pos2 in 0..c.data.arity {
                            let val2 = c.data.tuples[base + pos2];
                            let off2 = c.data.pos_off[pos2];
                            state.residues
                                [c.residue_base as usize + off2 as usize + val2 as usize] = t;
                        }
                    }
                    None => {
                        state.remove(tables, m, val);
                        stats.prunes += 1;
                        removed = true;
                        if state.count[m] == 0 {
                            // dom/wdeg: this constraint caused a
                            // wipe-out — bump the weight of all of its
                            // members so branching gravitates here.
                            for &cm in c.members.iter() {
                                state.wdeg[cm as usize] += 1;
                            }
                            stats.wipeouts += 1;
                            return false;
                        }
                    }
                }
            }
            if removed {
                for &other in &tables.constraints_of[m] {
                    if !queued[other as usize] {
                        queued[other as usize] = true;
                        queue.push(other);
                    }
                }
            }
        }
    }
    true
}

/// Checks that the image of every face of `facet` under the aligned
/// assignment is an output simplex allowed by the face's carrier.
pub(crate) fn facet_image_valid(
    task: &dyn Task,
    domain: &Complex,
    facet: &Simplex,
    assignment: &[VertexId],
) -> bool {
    let outputs = task.outputs();
    let vs = facet.vertices();
    let m = vs.len();
    debug_assert!(m <= 63);
    for mask in 1u64..(1 << m) {
        let face = Simplex::from_vertices((0..m).filter(|i| mask & (1 << i) != 0).map(|i| vs[i]));
        let image = Simplex::from_vertices(
            (0..m)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| assignment[i]),
        );
        if !outputs.contains_simplex(&image) {
            return false;
        }
        let carrier = domain.carrier_in_base(&face);
        if !task.allows(&carrier, &image) {
            return false;
        }
    }
    true
}

/// Enumerates the allowed tuples of one facet over the given candidate
/// lists, producing the shared [`TupleData`] (tuples in dense
/// value-index space plus support lists). Returns `None` when the facet
/// admits no assignment at all (the whole CSP is then unsatisfiable).
fn build_tuple_data(
    task: &dyn Task,
    domain: &Complex,
    facet: &Simplex,
    candidates: &[&Arc<Vec<VertexId>>],
) -> Option<Arc<TupleData>> {
    let arity = candidates.len();
    let mut pos_off = Vec::with_capacity(arity + 1);
    let mut total = 0u32;
    for c in candidates {
        pos_off.push(total);
        total += c.len() as u32;
    }
    pos_off.push(total);

    let mut tuples: Vec<u32> = Vec::new();
    let mut choice = vec![0u32; arity];
    let mut assignment = vec![VertexId::from_index(0); arity];
    'outer: loop {
        for (i, &c) in choice.iter().enumerate() {
            assignment[i] = candidates[i][c as usize];
        }
        if facet_image_valid(task, domain, facet, &assignment) {
            tuples.extend_from_slice(&choice);
        }
        let mut i = 0;
        loop {
            if i == arity {
                break 'outer;
            }
            choice[i] += 1;
            if (choice[i] as usize) < candidates[i].len() {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
    if tuples.is_empty() {
        return None;
    }

    let mut supports: Vec<Vec<u32>> = vec![Vec::new(); total as usize];
    for t in 0..tuples.len() / arity {
        for pos in 0..arity {
            let val = tuples[t * arity + pos];
            supports[(pos_off[pos] + val) as usize].push(t as u32);
        }
    }
    Some(Arc::new(TupleData {
        arity,
        pos_off,
        tuples,
        supports,
    }))
}

/// The depth-1 lex-leader symmetry breakers derived from the task's
/// declared symmetries: removals from variable 0's domain (unary
/// constraints) plus binary table constraints.
struct LexBreak {
    /// The pivot variable the breakers anchor at (position 0 of the
    /// lex order).
    pivot: usize,
    /// Value indices to remove from the pivot's initial domain.
    removals: Vec<u32>,
    /// Binary constraints `(members, tuple data)` over `(pivot, u)`.
    constraints: Vec<(Vec<u32>, Arc<TupleData>)>,
}

/// Lifts each declared [`TaskSymmetry`] to the concrete search domain
/// and output complex (skipping any that does not act on both) and emits
/// the first position of the lex-leader constraint `A ≤_lex g(A)` for
/// a fixed variable order: `A(v₀) ≤ π_O(A(π_D⁻¹(v₀)))`, compared by
/// output-vertex index. The order anchors at a deterministic *pivot*
/// `v₀` — the variable with the largest candidate list (lowest index on
/// ties), where a single inequality excises the most assignments;
/// corner variables with singleton domains would make every breaker
/// vacuous. When `π_D` fixes `v₀` this is a unary filter; otherwise a
/// binary table constraint. Both are *implied* by the full
/// lex-leader constraint, which the lex-least solution of every orbit
/// satisfies — so satisfiability is preserved, every surviving witness
/// is a genuine solution of the original query (no un-canonicalization
/// step is needed), and unsolvable instances stay unsolvable.
///
/// For a genuine symmetry the candidate lists themselves are
/// equivariant (`π_O` maps `u`'s candidates bijectively onto `v₀`'s),
/// so a breaker can never be empty and the unary filter can never wipe
/// variable 0 out; either would only arise from a bogus declaration,
/// and is skipped rather than trusted as an unsolvability proof.
fn lex_leader_constraints(
    task: &dyn Task,
    domain: &Complex,
    vars: &[VertexId],
    var_of: &HashMap<VertexId, u32>,
    values: &[Arc<Vec<VertexId>>],
) -> LexBreak {
    let mut lex = LexBreak {
        pivot: 0,
        removals: Vec::new(),
        constraints: Vec::new(),
    };
    let symmetries = task.symmetries();
    if symmetries.is_empty() || vars.is_empty() {
        return lex;
    }
    let pivot = (0..vars.len())
        .max_by(|&a, &b| values[a].len().cmp(&values[b].len()).then(b.cmp(&a)))
        .unwrap_or(0);
    lex.pivot = pivot;
    let outputs = task.outputs();
    let top = domain.level();
    let v0 = vars[pivot];
    let d0 = &values[pivot];
    let mut keep = vec![true; d0.len()];
    let mut seen: HashSet<(u32, Vec<u32>)> = HashSet::new();
    for sym in &symmetries {
        let Some((dom_action, out_action)) = lift_symmetry(sym, domain, outputs) else {
            continue;
        };
        // u = π_D⁻¹(v₀): scan the top-level map for v₀'s preimage.
        let Some(u) = dom_action
            .level_map(top)
            .iter()
            .position(|&img| img == v0)
            .map(VertexId::from_index)
        else {
            continue; // v₀ outside the action's range (defensive)
        };
        if u == v0 {
            for (a, &w) in d0.iter().enumerate() {
                if out_action.apply_vertex(0, w).index() < w.index() {
                    keep[a] = false;
                }
            }
            continue;
        }
        let Some(&mu) = var_of.get(&u) else { continue };
        let du = &values[mu as usize];
        let images: Vec<usize> = du
            .iter()
            .map(|&w| out_action.apply_vertex(0, w).index())
            .collect();
        let mut tuples: Vec<u32> = Vec::new();
        for (a, &wa) in d0.iter().enumerate() {
            for (b, &img) in images.iter().enumerate() {
                if wa.index() <= img {
                    tuples.extend_from_slice(&[a as u32, b as u32]);
                }
            }
        }
        if tuples.is_empty() {
            continue; // only a bogus declaration gets here
        }
        if tuples.len() == 2 * d0.len() * du.len() {
            continue; // vacuous: every pair allowed
        }
        if !seen.insert((mu, tuples.clone())) {
            continue; // duplicate breaker from another group element
        }
        let pos_off = vec![0, d0.len() as u32, (d0.len() + du.len()) as u32];
        let mut supports: Vec<Vec<u32>> = vec![Vec::new(); d0.len() + du.len()];
        for t in 0..tuples.len() / 2 {
            supports[tuples[t * 2] as usize].push(t as u32);
            supports[d0.len() + tuples[t * 2 + 1] as usize].push(t as u32);
        }
        lex.constraints.push((
            vec![pivot as u32, mu],
            Arc::new(TupleData {
                arity: 2,
                pos_off,
                tuples,
                supports,
            }),
        ));
    }
    if keep.iter().any(|&k| k) {
        lex.removals = (0..d0.len() as u32)
            .filter(|&a| !keep[a as usize])
            .collect();
    }
    lex
}

/// Checks that a declared symmetry genuinely acts on the concrete search
/// domain and the output complex: both color-permutation lifts must
/// exist ([`chain_action`]) and map the respective facet sets onto
/// themselves.
fn lift_symmetry(
    sym: &TaskSymmetry,
    domain: &Complex,
    outputs: &Complex,
) -> Option<(ChainAction, ChainAction)> {
    let in_matching = match &sym.input_labels {
        Some(m) => LabelMatching::Relabeled(m),
        None => LabelMatching::Strict,
    };
    let dom_action = chain_action(domain, &sym.color, in_matching)?;
    if !dom_action.preserves_facets(domain) {
        return None;
    }
    let out_matching = match &sym.output_labels {
        Some(m) => LabelMatching::Relabeled(m),
        None => LabelMatching::Strict,
    };
    let out_action = chain_action(outputs, &sym.color, out_matching)?;
    if !out_action.preserves_facets(outputs) {
        return None;
    }
    Some((dom_action, out_action))
}

/// Builds the CSP for the carried-map search: candidate lists memoized
/// by `(color, base-carrier)`, one constraint table per facet memoized by
/// the facet's intern-key signature, plus depth-1 lex-leader symmetry
/// breakers for the task's declared symmetries. Returns `None` when some
/// vertex has no candidate or some facet no allowed tuple — the search is
/// then unsatisfiable without visiting a single node.
pub(crate) fn build(task: &dyn Task, domain: &Complex) -> Option<(Tables, State)> {
    let outputs = task.outputs();
    let vars: Vec<VertexId> = domain.used_vertices();
    let var_of: HashMap<VertexId, u32> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();

    // Candidate lists, memoized by the vertex's intern key: interned
    // subdivisions repeat (color, base-carrier) pairs across many
    // vertices, and the candidate set is a function of that key alone.
    let mut candidate_memo: HashMap<(ProcessId, Simplex), Arc<Vec<VertexId>>> = HashMap::new();
    let mut values: Vec<Arc<Vec<VertexId>>> = Vec::with_capacity(vars.len());
    for &v in &vars {
        let color = domain.color(v);
        let carrier = &domain.vertex(v).base_carrier;
        let cands = candidate_memo
            .entry((color, carrier.clone()))
            .or_insert_with(|| {
                Arc::new(
                    (0..outputs.num_vertices())
                        .map(VertexId::from_index)
                        .filter(|&w| {
                            outputs.color(w) == color
                                && outputs.contains_simplex(&Simplex::vertex(w))
                                && task.allows(carrier, &Simplex::vertex(w))
                        })
                        .collect(),
                )
            })
            .clone();
        if cands.is_empty() {
            return None;
        }
        values.push(cands);
    }

    // Constraint tables, one per facet, with tuple data memoized by the
    // facet's signature.
    let facets = domain.facets();
    let mut memo: HashMap<Vec<(ProcessId, Simplex)>, Arc<TupleData>> = HashMap::new();
    let mut constraints: Vec<TableConstraint> = Vec::with_capacity(facets.len());
    let mut residue_len = 0u32;
    for facet in facets {
        let members: Vec<u32> = facet.vertices().iter().map(|v| var_of[v]).collect();
        let signature = domain.simplex_signature(facet);
        let data = match memo.get(&signature) {
            Some(d) => d.clone(),
            None => {
                let candidates: Vec<&Arc<Vec<VertexId>>> =
                    members.iter().map(|&m| &values[m as usize]).collect();
                let built = build_tuple_data(task, domain, facet, &candidates)?;
                memo.insert(signature, built.clone());
                built
            }
        };
        let residue_base = residue_len;
        residue_len += data.pos_off.last().copied().unwrap_or(0);
        constraints.push(TableConstraint {
            members,
            data,
            residue_base,
        });
    }
    let facet_constraints = constraints.len();

    // Symmetry breaking: only the lex-least witness of each solution
    // orbit survives, so equivalent subtrees are pruned instead of
    // re-searched. Lex breakers propagate through the same GAC machinery
    // as the facet tables.
    let lex = lex_leader_constraints(task, domain, &vars, &var_of, &values);
    for (members, data) in lex.constraints {
        let residue_base = residue_len;
        residue_len += data.pos_off.last().copied().unwrap_or(0);
        constraints.push(TableConstraint {
            members,
            data,
            residue_base,
        });
    }

    let mut constraints_of = vec![Vec::new(); vars.len()];
    for (ci, c) in constraints.iter().enumerate() {
        for &m in &c.members {
            constraints_of[m as usize].push(ci as u32);
        }
    }

    let mut word_off = Vec::with_capacity(vars.len() + 1);
    let mut off = 0u32;
    for vals in &values {
        word_off.push(off);
        off += vals.len().div_ceil(64) as u32;
    }
    word_off.push(off);

    let tables = Tables {
        vars,
        values,
        word_off,
        constraints,
        facet_constraints,
        constraints_of,
        residue_len: residue_len as usize,
    };
    let mut state = tables.initial_state();
    // Unary lex filters land on the trail at the root, where nothing
    // ever backtracks past them.
    for val in lex.removals {
        state.remove(&tables, lex.pivot, val);
    }
    Some((tables, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{consensus, SetConsensus};

    #[test]
    fn build_produces_bitset_domains_matching_candidates() {
        let t = SetConsensus::new(2, 2, &[0, 1, 2]);
        let domain = t.inputs().iterated_subdivision(1);
        let (tables, state) = build(&t, &domain).expect("satisfiable");
        assert_eq!(tables.vars.len(), domain.used_vertices().len());
        assert_eq!(tables.facet_constraints, domain.facet_count());
        assert!(tables.constraints.len() >= tables.facet_constraints);
        for c in &tables.constraints {
            assert!(c.data.num_tuples() > 0, "empty tables are rejected early");
        }
        let mut narrowed = 0usize;
        for var in 0..tables.vars.len() {
            let vals = state.domain_values(&tables, var);
            // Only the lex pivot may have been narrowed by unary filters.
            assert!(!vals.is_empty());
            assert!(vals.len() <= tables.values[var].len());
            narrowed += usize::from(vals.len() < tables.values[var].len());
            assert_eq!(state.count[var] as usize, vals.len());
            for &val in &vals {
                assert!(state.contains(&tables, var, val));
            }
        }
        assert!(narrowed <= 1, "unary lex filters touch only the pivot");
    }

    #[test]
    fn trail_remove_and_undo_round_trips() {
        let t = SetConsensus::new(2, 2, &[0, 1, 2]);
        let domain = t.inputs().iterated_subdivision(1);
        let (tables, mut state) = build(&t, &domain).expect("satisfiable");
        let var = (0..tables.vars.len())
            .find(|&v| state.count[v] > 1)
            .expect("some branching variable");
        let before = state.domain_values(&tables, var);
        let mark = state.trail.len();
        for &val in &before[1..] {
            state.remove(&tables, var, val);
        }
        assert_eq!(state.count[var], 1);
        assert_eq!(state.single_value(&tables, var), before[0]);
        state.undo_to(&tables, mark);
        assert_eq!(state.domain_values(&tables, var), before);
        assert_eq!(state.trail.len(), mark);
    }

    #[test]
    fn memoized_tables_are_shared_across_same_signature_facets() {
        // At level 1 a facet's (color, base_carrier) signature still
        // determines the facet, but from level 2 on base carriers lose
        // information and signatures repeat (e.g. every facet subdividing
        // Chr¹'s central simplex has the all-full signature); the memo
        // must make same-signature facets share their TupleData.
        let t = SetConsensus::new(2, 2, &[0, 1, 2]);
        let domain = t.inputs().iterated_subdivision(2);
        let (tables, _) = build(&t, &domain).expect("satisfiable");
        let mut by_sig: HashMap<Vec<(ProcessId, Simplex)>, *const TupleData> = HashMap::new();
        let mut shared = 0usize;
        for (ci, c) in tables.constraints[..tables.facet_constraints]
            .iter()
            .enumerate()
        {
            let sig = domain.simplex_signature(&domain.facets()[ci]);
            match by_sig.get(&sig) {
                Some(&ptr) => {
                    assert!(
                        std::ptr::eq(ptr, Arc::as_ptr(&c.data)),
                        "same signature shares data"
                    );
                    shared += 1;
                }
                None => {
                    by_sig.insert(sig, Arc::as_ptr(&c.data));
                }
            }
        }
        assert!(shared > 0, "interned subdivisions repeat signatures");
    }

    #[test]
    fn lex_breakers_are_emitted_and_nonempty_for_symmetric_tasks() {
        // consensus(2, [0,1]) declares both the pure color swap and the
        // diagonal (color, value) swap; the concrete Chr¹ pseudosphere
        // domain admits both actions, so at least one breaker (unary or
        // binary) must survive, and every binary breaker must keep at
        // least one tuple (candidate lists are equivariant).
        let t = consensus(2, &[0, 1]);
        assert!(!t.symmetries().is_empty());
        let domain = t.inputs().iterated_subdivision(1);
        let (tables, state) = build(&t, &domain).expect("builds");
        let breakers = &tables.constraints[tables.facet_constraints..];
        let pivot = (0..tables.vars.len())
            .max_by(|&a, &b| {
                tables.values[a]
                    .len()
                    .cmp(&tables.values[b].len())
                    .then(b.cmp(&a))
            })
            .unwrap();
        let filtered = tables.values[pivot].len() - state.count[pivot] as usize;
        assert!(breakers.len() + filtered > 0, "some breaker must be active");
        for c in breakers {
            assert_eq!(c.data.arity, 2);
            assert_eq!(c.members[0] as usize, pivot, "breakers anchor at the pivot");
            assert!(c.data.num_tuples() > 0);
        }
        assert!(
            state.count[pivot] > 0,
            "unary filters never wipe the pivot out"
        );
    }

    #[test]
    fn propagation_prunes_like_the_paper_instances() {
        // 2-process consensus on Chr¹: GAC alone wipes out a domain.
        let t = consensus(2, &[0, 1]);
        let domain = t.inputs().iterated_subdivision(1);
        let (tables, mut state) = build(&t, &domain).expect("builds");
        let mut stats = SearchStats::default();
        assert!(!propagate(&tables, &mut state, None, &mut stats));
        assert!(stats.prunes > 0);
        assert_eq!(stats.wipeouts, 1);
    }
}
