//! The FACT solvability pipeline (Theorem 16): decide whether a task is
//! solvable in a fair adversarial model by searching for a chromatic
//! simplicial map from iterations of `R_A` applied to the task's inputs.
//!
//! [`set_consensus_verdict_with_config`] routes each `k`-set consensus
//! query one of four ways, tried in this order and reported as the
//! `route` of its `solver.set_consensus` event:
//!
//! * `sperner` — `k = n − 1` on a subdivided simplex: unsolvable by
//!   Sperner's lemma, no search;
//! * `leader-map` — `k ≥ α(Π)` at `ℓ = 1` on an `R_A` that carries its
//!   agreement function: the paper's own witness, "decide the input of
//!   `µ_Π(v)`" ([`leader_map_witness`](crate::leader_map_witness)), is
//!   built and checked with [`verify_carried_map`]. A witness that fails
//!   the check is a bug: it is counted by [`LEADER_MAP_REJECTED`],
//!   reported by a `solver.leader_map.rejected` event, and the query
//!   falls through to the next route;
//! * `components` — `k = 1` with a connected component of the domain
//!   whose carriers share no input value ([`act_tasks::certificate`]):
//!   unsolvable, no search. The certificate is re-verified by its own
//!   checker; one that fails it is a bug, counted by
//!   [`COMPONENTS_REJECTED`], reported by a `solver.components.rejected`
//!   event, and left to the search;
//! * `search` — the carried-map CSP of [`act_tasks`] for everything
//!   else.

use act_adversary::AgreementFunction;
use act_affine::AffineTask;
use act_tasks::{
    certificate, find_carried_map_with_config, verify_carried_map, SearchConfig, SearchResult, Task,
};
use act_topology::{
    canonical_pair_hashes, permute_complex, ColorPerm, Complex, VertexMap, SYMMETRY_MAX_DEGREE,
};

use crate::leader::leader_map_witness_for;

/// The verdict of the bounded FACT pipeline.
#[derive(Clone, Debug)]
pub enum Solvability {
    /// A map was found at the given number of `R_A` iterations.
    Solvable {
        /// The iteration count `ℓ`.
        iterations: usize,
        /// The witnessing map from `R_A^ℓ(I)` to `O`.
        map: VertexMap,
    },
    /// No map exists for any `ℓ` up to the bound (unsolvability at those
    /// depths is exact; FACT's "there exists ℓ" was checked up to the
    /// bound).
    NoMapUpTo {
        /// The deepest iteration count checked.
        max_iterations: usize,
    },
    /// The node budget ran out at some depth.
    Exhausted {
        /// The iteration count at which the search gave up.
        iterations: usize,
    },
    /// The wall-clock deadline ([`SearchConfig::deadline`]) expired at
    /// some depth — distinct from [`Exhausted`]: the node budget may
    /// have been plentiful, the clock was not.
    ///
    /// [`Exhausted`]: Solvability::Exhausted
    TimedOut {
        /// The iteration count at which the deadline fired.
        iterations: usize,
    },
}

impl Solvability {
    /// Whether a witnessing map was found.
    pub fn is_solvable(&self) -> bool {
        matches!(self, Solvability::Solvable { .. })
    }

    /// A short machine-readable name of the verdict.
    pub fn verdict_name(&self) -> &'static str {
        match self {
            Solvability::Solvable { .. } => "solvable",
            Solvability::NoMapUpTo { .. } => "no-map",
            Solvability::Exhausted { .. } => "exhausted",
            Solvability::TimedOut { .. } => "timed-out",
        }
    }
}

/// Builds the domain `R_A^ℓ(I)`: the affine task applied `ℓ` times to the
/// task's input complex.
///
/// Each application runs through the parallel subdivision engine
/// (`subdivide_patterned`), fanning out over `act_topology::
/// subdivision_threads()` workers with a deterministic merge — the domain
/// is identical for every thread count (`RAYON_NUM_THREADS=1` forces the
/// serial build).
pub fn affine_domain(task: &AffineTask, inputs: &Complex, iterations: usize) -> Complex {
    assert!(iterations >= 1, "at least one iteration");
    let mut c = inputs.clone();
    for _ in 0..iterations {
        c = task.apply_to(&c);
    }
    c
}

/// Pluggable persistence behind a [`DomainCache`]: load and store single
/// tower levels `R_A^ℓ(I)` addressed by the content hashes of the affine
/// complex and the input complex.
///
/// The service layer implements this on its content-addressed store so a
/// restarted server (or a cold `fact-cli solve --store` run) reloads
/// towers instead of resubdividing. Implementations own durability and
/// corruption handling; a `load_level` returning `None` simply means "not
/// available — build it", and the cache re-validates whatever is returned
/// before trusting it.
pub trait TowerPersistence: Send + Sync {
    /// The persisted level `level` (1-based) of the tower for
    /// `(affine_hash, inputs_hash)`, or `None` on any miss.
    fn load_level(&self, affine_hash: u128, inputs_hash: u128, level: usize) -> Option<Complex>;

    /// Persists level `level` (1-based) of the tower. Failures are the
    /// implementation's to swallow — persistence is an accelerator, never
    /// a correctness dependency.
    fn store_level(&self, affine_hash: u128, inputs_hash: u128, level: usize, domain: &Complex);
}

/// Process-global count of leader-map witnesses that failed
/// [`verify_carried_map`] (see [`set_consensus_verdict_with_config`]).
/// Properties 9 and 10 say this never happens, so any count is a bug
/// signal; the affected queries were answered by the search instead.
pub static LEADER_MAP_REJECTED: act_obs::Counter =
    act_obs::Counter::new("solver.leader_map.rejected");

/// Process-global count of components certificates that failed
/// [`act_tasks::certificate::check`] (see
/// [`set_consensus_verdict_with_config`]). The finder and the checker
/// read the same domain, so any count is a bug signal; the affected
/// queries were answered by the search instead.
pub static COMPONENTS_REJECTED: act_obs::Counter =
    act_obs::Counter::new("solver.components.rejected");

/// Process-global count of towers evicted from [`DomainCache`]s (the
/// bounded per-cache LRU overflowed). Pairs with the `domain.cache.evict`
/// event, which carries the evicted tower's depth.
pub static DOMAIN_CACHE_EVICTIONS: act_obs::Counter = act_obs::Counter::new("domain.cache.evict");

/// Process-global count of domain-cache orbit hits: queries whose tower
/// was obtained by color-permuting a resident tower of the same symmetry
/// class instead of subdividing from scratch. Pairs with the
/// `domain.cache.orbit_hit` event.
pub static DOMAIN_CACHE_ORBIT_HITS: act_obs::Counter =
    act_obs::Counter::new("domain.cache.orbit_hit");

/// Towers a [`DomainCache`] keeps before evicting the least recently used.
const DEFAULT_TOWER_CAPACITY: usize = 4;

/// How a [`DomainCache`] runs the subdivision rounds that build new tower
/// levels. Both strategies produce byte-identical complexes; the knob
/// exists so the campaign layer can run one solver per strategy and assert
/// verdict parity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DomainExpansion {
    /// [`AffineTask::apply_to`]: every facet of the previous level is
    /// expanded directly.
    Direct,
    /// [`AffineTask::apply_to_shared`] (the default): one representative
    /// facet per color-symmetry orbit of the previous level is expanded
    /// and the rest are transported — byte-identical output, fewer recipe
    /// expansions on symmetric levels.
    #[default]
    OrbitShared,
}

/// The canonical (symmetry-quotiented) identity of a tower: the content
/// hashes of the jointly canonicalized `(affine.complex(), inputs)` pair
/// and the permutation carrying this tower's frame onto the canonical
/// frame (see [`canonical_pair_hashes`]). Two queries differing only by a
/// color permutation share one canonical key.
#[derive(Clone, Debug)]
struct CanonKey {
    affine: u128,
    inputs: u128,
    to_canonical: ColorPerm,
}

impl CanonKey {
    /// Jointly canonicalizes `(affine, inputs)`, traced as a
    /// `solver.canonical` span: one encoding pass per element of `S_n`.
    fn of(affine: &Complex, inputs: &Complex) -> CanonKey {
        let span = act_obs::span("solver.canonical");
        let (affine_hash, inputs_hash, to_canonical) = canonical_pair_hashes(affine, inputs);
        if act_obs::enabled() {
            span.finish()
                .u64("n", inputs.num_processes() as u64)
                .u64("affine_facets", affine.facet_count() as u64)
                .u64("input_facets", inputs.facet_count() as u64)
                .emit();
        }
        CanonKey {
            affine: affine_hash,
            inputs: inputs_hash,
            to_canonical,
        }
    }
}

/// One cached tower `R_A^1(I) ⊆ … ⊆ R_A^ℓ(I)` and the key it serves.
#[derive(Clone, Debug)]
struct Tower {
    /// Content hash of the affine task's complex.
    affine_hash: u128,
    /// Content hash of the input complex.
    inputs_hash: u128,
    /// The last `(affine.complex(), inputs)` pair that resolved to this
    /// tower — kept for the `Arc`-identity fast path that skips
    /// re-hashing on repeated queries with the same representation.
    affine_src: Complex,
    /// The input complex the tower is built over.
    inputs: Complex,
    /// `levels[ℓ - 1] = R_A^ℓ(I)`.
    levels: Vec<Complex>,
    /// LRU stamp: the cache clock at the last query.
    stamp: u64,
    /// Lazily computed canonical identity — `None` until an orbit probe
    /// or a persistence round first needs it.
    canon: Option<CanonKey>,
}

impl Tower {
    /// The canonical key, computed on first use and memoized. The joint
    /// canonicalization enumerates `S_n` (guarded by
    /// [`SYMMETRY_MAX_DEGREE`]), so callers only reach for this when a
    /// cross-frame probe or a persistence round actually needs it.
    fn canon_key(&mut self) -> &CanonKey {
        if self.canon.is_none() {
            self.canon = Some(CanonKey::of(&self.affine_src, &self.inputs));
        }
        self.canon.as_ref().expect("just computed")
    }
}

/// An incrementally maintained set of domain towers
/// `R_A^1(I) ⊆ … ⊆ R_A^ℓ(I)`, keyed by content hash.
///
/// [`affine_domain`] rebuilds from scratch on every call, so a pipeline
/// that tries `ℓ = 1, …, L` pays `1 + 2 + ⋯ + L` subdivision rounds — and
/// each round is the dominant cost at depth. The cache keeps every level
/// built so far and extends a tower by exactly **one** `apply_to` per new
/// level (asserted against [`act_affine::APPLY_CALLS`] by the regression
/// suite), turning the pipeline's domain cost linear in `L`.
///
/// Towers are keyed by the 128-bit content hashes of
/// `(affine.complex(), inputs)` — an [`AffineTask`] is fully determined by
/// its complex — with an `Arc`-identity fast path so steady-state queries
/// never rehash or deep-compare. A query that matches no resident key but
/// is a **color permutation** of a resident tower still hits: the towers'
/// canonical pair hashes ([`canonical_pair_hashes`], lazily memoized per
/// tower) identify the symmetry class, and the resident levels are
/// transported into the query's frame with [`permute_complex`] — counted
/// by [`DOMAIN_CACHE_ORBIT_HITS`] and the `domain.cache.orbit_hit` event.
/// A bounded LRU (default 4 towers) keeps alternating workloads from
/// thrashing: switching keys retains the previous tower, and overflow
/// evicts the least recently used with a `domain.cache.evict` event
/// instead of dropping silently.
///
/// With [`DomainCache::set_persistence`], missing levels are first sought
/// in a [`TowerPersistence`] store (zero `apply_to` on a warm restart) and
/// freshly built levels are written back — keyed and stored in the
/// *canonical* frame, so all members of a symmetry class of queries share
/// one persisted tower. Levels built or reloaded in the query's own frame
/// are structurally equal (`==`) to the from-scratch [`affine_domain`]
/// builds thanks to the subdivision engine's deterministic interning;
/// orbit-transported levels are color-consistent isomorphs
/// ([`Complex::same_complex`]) anchored at a byte-identical base, which
/// preserves every verdict (and the validity, though not necessarily the
/// numbering, of witnessing maps).
///
/// # Examples
///
/// ```
/// use act_adversary::AgreementFunction;
/// use act_topology::Complex;
/// use fact::{affine_domain, DomainCache};
///
/// let alpha = AgreementFunction::k_concurrency(2, 2);
/// let affine = act_affine::fair_affine_task(&alpha);
/// let inputs = Complex::standard(2);
/// let mut cache = DomainCache::new();
/// let d2 = cache.domain(&affine, &inputs, 2).clone(); // builds levels 1, 2
/// let d3 = cache.domain(&affine, &inputs, 3).clone(); // ONE more apply_to
/// assert_eq!(d2, affine_domain(&affine, &inputs, 2));
/// assert_eq!(d3, affine_domain(&affine, &inputs, 3));
/// assert_eq!(cache.cached_levels(), 3);
/// ```
#[derive(Clone)]
pub struct DomainCache {
    towers: Vec<Tower>,
    capacity: usize,
    clock: u64,
    persistence: Option<std::sync::Arc<dyn TowerPersistence>>,
    expansion: DomainExpansion,
}

impl std::fmt::Debug for DomainCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DomainCache")
            .field("towers", &self.towers)
            .field("capacity", &self.capacity)
            .field("clock", &self.clock)
            .field("persistent", &self.persistence.is_some())
            .field("expansion", &self.expansion)
            .finish()
    }
}

impl Default for DomainCache {
    fn default() -> DomainCache {
        DomainCache::new()
    }
}

impl DomainCache {
    /// An empty cache with the default tower capacity.
    pub fn new() -> DomainCache {
        DomainCache::with_capacity(DEFAULT_TOWER_CAPACITY)
    }

    /// An empty cache holding at most `capacity` towers (clamped to ≥ 1).
    pub fn with_capacity(capacity: usize) -> DomainCache {
        DomainCache {
            towers: Vec::new(),
            capacity: capacity.max(1),
            clock: 0,
            persistence: None,
            expansion: DomainExpansion::default(),
        }
    }

    /// Overrides the subdivision strategy for freshly built levels (see
    /// [`DomainExpansion`]). Returns `self` for builder-style
    /// construction.
    pub fn with_expansion(mut self, expansion: DomainExpansion) -> DomainCache {
        self.expansion = expansion;
        self
    }

    /// Overrides the subdivision strategy (see [`Self::with_expansion`]).
    pub fn set_expansion(&mut self, expansion: DomainExpansion) {
        self.expansion = expansion;
    }

    /// The subdivision strategy used for freshly built levels.
    pub fn expansion(&self) -> DomainExpansion {
        self.expansion
    }

    /// Attaches a persistence backend: missing tower levels are loaded
    /// from it before being built, and freshly built levels are written
    /// back. Returns `self` for builder-style construction.
    pub fn with_persistence(mut self, p: std::sync::Arc<dyn TowerPersistence>) -> DomainCache {
        self.set_persistence(p);
        self
    }

    /// Attaches a persistence backend (see [`Self::with_persistence`]).
    pub fn set_persistence(&mut self, p: std::sync::Arc<dyn TowerPersistence>) {
        self.persistence = Some(p);
    }

    /// How many levels of the *most recently queried* tower are cached.
    pub fn cached_levels(&self) -> usize {
        self.mru().map_or(0, |t| t.levels.len())
    }

    /// How many towers are currently resident.
    pub fn resident_towers(&self) -> usize {
        self.towers.len()
    }

    fn mru(&self) -> Option<&Tower> {
        self.towers.iter().max_by_key(|t| t.stamp)
    }

    fn mru_mut(&mut self) -> Option<&mut Tower> {
        self.towers.iter_mut().max_by_key(|t| t.stamp)
    }

    /// The domain `R_A^ℓ(I)`, reusing every previously built level of the
    /// matching tower and running at most `ℓ − cached` new subdivision
    /// rounds — fewer when a persistence backend already holds them.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn domain(&mut self, affine: &AffineTask, inputs: &Complex, iterations: usize) -> &Complex {
        assert!(iterations >= 1, "at least one iteration");
        let idx = self.resolve_tower(affine, inputs);
        let persistence = self.persistence.clone();
        let expansion = self.expansion;
        let tower = &mut self.towers[idx];
        // Persistence is keyed by the *canonical* (symmetry-quotiented)
        // pair hashes, so color-permuted queries load and store the same
        // entries; levels are persisted in the canonical frame and
        // permuted into the tower's frame on load. For a same-frame
        // restart the round trip is byte-identical (`permute_complex`
        // round-trips exactly).
        let store_key = persistence.as_ref().map(|_| tower.canon_key().clone());
        // Self-healing: a poisoned tower level (empty, or a level count
        // that does not strictly grow — e.g. a worker died mid-build in a
        // previous use) is detected and the tower rebuilt from the last
        // sound level, instead of serving a corrupt domain.
        if let Some(bad) = first_invalid_level(&tower.levels, inputs) {
            if act_obs::enabled() {
                act_obs::event("solver.cache_rebuilt")
                    .u64("level", bad as u64)
                    .u64("cached", tower.levels.len() as u64)
                    .emit();
            }
            tower.levels.truncate(bad - 1);
        }
        while tower.levels.len() < iterations {
            let level = tower.levels.len() + 1;
            let next = {
                let prev = tower.levels.last().unwrap_or(inputs);
                let loaded = store_key
                    .as_ref()
                    .zip(persistence.as_ref())
                    .and_then(|(k, p)| {
                        let stored = p.load_level(k.affine, k.inputs, level)?;
                        Some(from_canonical_frame(stored, &k.to_canonical))
                    })
                    .filter(|c| loaded_level_is_sound(c, prev, inputs));
                match loaded {
                    Some(c) => c,
                    None => {
                        let built = match expansion {
                            DomainExpansion::Direct => affine.apply_to(prev),
                            DomainExpansion::OrbitShared => affine.apply_to_shared(prev),
                        };
                        if let Some((k, p)) = store_key.as_ref().zip(persistence.as_ref()) {
                            let canonical = to_canonical_frame(&built, &k.to_canonical);
                            p.store_level(k.affine, k.inputs, level, &canonical);
                        }
                        built
                    }
                }
            };
            tower.levels.push(next);
        }
        &tower.levels[iterations - 1]
    }

    /// Finds (or creates) the tower for `(affine, inputs)` and marks it
    /// most recently used. Pointer-identical representations hit without
    /// hashing; structurally equal complexes built independently share a
    /// tower via the content hashes; and a query that is a *color
    /// permutation* of a resident tower hits via the canonical pair
    /// hashes — its levels are transported into the query's frame with
    /// [`permute_complex`] instead of being rebuilt (an **orbit hit**,
    /// counted by [`DOMAIN_CACHE_ORBIT_HITS`]).
    ///
    /// A transported tower's base is byte-identical to the query inputs
    /// (joint canonicalization pins it), so carrier semantics — and with
    /// them every verdict — are exact; the interior levels are
    /// color-consistent isomorphs (`same_complex`) of what a from-scratch
    /// build would produce, which can renumber vertices and hence relabel
    /// (but never invalidate) a witnessing map.
    fn resolve_tower(&mut self, affine: &AffineTask, inputs: &Complex) -> usize {
        self.clock += 1;
        let clock = self.clock;
        if let Some(i) = self.towers.iter().position(|t| {
            t.affine_src.same_representation(affine.complex())
                && t.inputs.same_representation(inputs)
        }) {
            self.towers[i].stamp = clock;
            return i;
        }
        let affine_hash = affine.complex().content_hash();
        let inputs_hash = inputs.content_hash();
        if let Some(i) = self
            .towers
            .iter()
            .position(|t| t.affine_hash == affine_hash && t.inputs_hash == inputs_hash)
        {
            let t = &mut self.towers[i];
            // Re-point the identity memo at the representation we just
            // saw, so the next query with it takes the fast path.
            t.affine_src = affine.complex().clone();
            t.inputs = inputs.clone();
            t.stamp = clock;
            return i;
        }
        // Orbit probe: only pay for joint canonicalization when at least
        // one resident tower could possibly be a color-permuted match.
        let n = inputs.num_processes();
        let mut canon = None;
        if n <= SYMMETRY_MAX_DEGREE
            && self
                .towers
                .iter()
                .any(|t| t.inputs.num_processes() == n && !t.levels.is_empty())
        {
            let query_canon = CanonKey::of(affine.complex(), inputs);
            for i in 0..self.towers.len() {
                if self.towers[i].inputs.num_processes() != n || self.towers[i].levels.is_empty() {
                    continue;
                }
                let tc = self.towers[i].canon_key();
                if tc.affine != query_canon.affine || tc.inputs != query_canon.inputs {
                    continue;
                }
                // query = π · tower with π = σ_q⁻¹ ∘ σ_t (both sides land
                // on the same canonical frame).
                let to_query = query_canon.to_canonical.inverse().compose(&tc.to_canonical);
                let levels: Vec<Complex> = self.towers[i]
                    .levels
                    .iter()
                    .map(|l| permute_complex(l, &to_query))
                    .collect();
                debug_assert!(
                    levels.iter().all(|l| *l.base() == *inputs),
                    "a transported tower is anchored at the query inputs"
                );
                DOMAIN_CACHE_ORBIT_HITS.add(1);
                if act_obs::enabled() {
                    act_obs::event("domain.cache.orbit_hit")
                        .u64("levels", levels.len() as u64)
                        .u64("resident", self.towers.len() as u64)
                        .u64("affine_hash", affine_hash as u64)
                        .u64("inputs_hash", inputs_hash as u64)
                        .emit();
                }
                return self.push_tower(Tower {
                    affine_hash,
                    inputs_hash,
                    affine_src: affine.complex().clone(),
                    inputs: inputs.clone(),
                    levels,
                    stamp: clock,
                    canon: Some(query_canon),
                });
            }
            // No orbit match: keep the canonical key we just paid for so
            // a persistence round (or a later probe) does not recompute.
            canon = Some(query_canon);
        }
        self.push_tower(Tower {
            affine_hash,
            inputs_hash,
            affine_src: affine.complex().clone(),
            inputs: inputs.clone(),
            levels: Vec::new(),
            stamp: clock,
            canon,
        })
    }

    /// Pushes a tower, evicting the least recently used one first when
    /// the cache is at capacity. Returns the new tower's index.
    fn push_tower(&mut self, tower: Tower) -> usize {
        if self.towers.len() >= self.capacity {
            let lru = self
                .towers
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.stamp)
                .map(|(i, _)| i)
                .expect("capacity >= 1 and the cache is full");
            let evicted = self.towers.swap_remove(lru);
            DOMAIN_CACHE_EVICTIONS.add(1);
            if act_obs::enabled() {
                act_obs::event("domain.cache.evict")
                    .u64("levels", evicted.levels.len() as u64)
                    .u64("resident", self.towers.len() as u64)
                    .u64("affine_hash", evicted.affine_hash as u64)
                    .u64("inputs_hash", evicted.inputs_hash as u64)
                    .emit();
            }
        }
        self.towers.push(tower);
        self.towers.len() - 1
    }

    /// Chaos hook: corrupts tower level `level` (1-based) of the most
    /// recently queried tower in place, returning whether the level
    /// existed. The next [`Self::domain`] call must detect the poison and
    /// rebuild from the preceding sound level — exercised by the chaos
    /// suite.
    pub fn poison_level(&mut self, level: usize) -> bool {
        let Some(tower) = self.mru_mut() else {
            return false;
        };
        match level.checked_sub(1).and_then(|i| tower.levels.get_mut(i)) {
            Some(slot) => {
                *slot = Complex::standard(1);
                true
            }
            None => false,
        }
    }
}

/// A level as persisted: pushed through the tower's canonicalizing
/// permutation so color-permuted queries address one entry. The identity
/// (the common case for already-canonical frames) is free.
fn to_canonical_frame(c: &Complex, to_canonical: &ColorPerm) -> Complex {
    if to_canonical.is_identity() {
        c.clone()
    } else {
        permute_complex(c, to_canonical)
    }
}

/// A persisted (canonical-frame) level pulled back into the tower's own
/// frame — the inverse of [`to_canonical_frame`], so a same-frame round
/// trip is byte-identical.
fn from_canonical_frame(c: Complex, to_canonical: &ColorPerm) -> Complex {
    if to_canonical.is_identity() {
        c
    } else {
        permute_complex(&c, &to_canonical.inverse())
    }
}

/// The first (1-based) tower level that is structurally unsound: empty,
/// or whose subdivision level does not strictly exceed its predecessor's.
/// `None` when the whole tower is sound.
fn first_invalid_level(levels: &[Complex], inputs: &Complex) -> Option<usize> {
    let mut prev = inputs.level();
    for (i, c) in levels.iter().enumerate() {
        if c.facet_count() == 0 || c.level() <= prev {
            return Some(i + 1);
        }
        prev = c.level();
    }
    None
}

/// Sanity checks on a level loaded from persistence before it is trusted
/// as part of a tower: non-void, strictly deeper than its predecessor,
/// same process count, and anchored at the same base complex. The store's
/// checksums make corruption here unlikely; this is defense in depth so a
/// bad entry degrades to a rebuild, never to a wrong domain.
fn loaded_level_is_sound(c: &Complex, prev: &Complex, inputs: &Complex) -> bool {
    c.facet_count() > 0
        && c.level() > prev.level()
        && c.num_processes() == inputs.num_processes()
        && *c.base() == *inputs
}

/// [`affine_domain`] through a [`DomainCache`]: identical result, but
/// repeated calls at growing `ℓ` only pay for the new levels.
pub fn affine_domain_cached(
    cache: &mut DomainCache,
    task: &AffineTask,
    inputs: &Complex,
    iterations: usize,
) -> Complex {
    cache.domain(task, inputs, iterations).clone()
}

/// Decides solvability of `task` in the fair model captured by `affine`
/// (its `R_A`), trying `ℓ = 1, …, max_iterations` and bounding each map
/// search by `max_nodes`.
pub fn solve_in_model(
    task: &dyn Task,
    affine: &AffineTask,
    max_iterations: usize,
    max_nodes: usize,
) -> Solvability {
    solve_in_model_with_config(task, affine, max_iterations, &SearchConfig::new(max_nodes))
}

/// [`solve_in_model`] with explicit engine knobs ([`SearchConfig`]):
/// thread count and the optional wall-clock deadline, which surfaces as
/// [`Solvability::TimedOut`].
pub fn solve_in_model_with_config(
    task: &dyn Task,
    affine: &AffineTask,
    max_iterations: usize,
    config: &SearchConfig,
) -> Solvability {
    // One incremental tower for the whole deepening loop: depth ℓ costs
    // one apply_to, not ℓ.
    let mut cache = DomainCache::new();
    for iterations in 1..=max_iterations {
        let span = act_obs::span("solver.iteration");
        let domain = cache.domain(affine, task.inputs(), iterations).clone();
        let (result, stats) = find_carried_map_with_config(task, &domain, config);
        if act_obs::enabled() {
            span.finish()
                .u64("iterations", iterations as u64)
                .u64("domain_facets", domain.facet_count() as u64)
                .u64("domain_vertices", domain.used_vertices().len() as u64)
                .u64("nodes", stats.nodes as u64)
                .str("verdict", result.verdict_name())
                .emit();
        }
        match result {
            SearchResult::Found(map) => return Solvability::Solvable { iterations, map },
            SearchResult::Unsolvable => continue,
            SearchResult::Exhausted => return Solvability::Exhausted { iterations },
            SearchResult::TimedOut => return Solvability::TimedOut { iterations },
        }
    }
    Solvability::NoMapUpTo { max_iterations }
}

/// Convenience: the `R_A` of an agreement function together with
/// [`solve_in_model`].
pub fn solve_in_fair_model(
    task: &dyn Task,
    alpha: &AgreementFunction,
    max_iterations: usize,
    max_nodes: usize,
) -> Solvability {
    let affine = act_affine::fair_affine_task(alpha);
    solve_in_model(task, &affine, max_iterations, max_nodes)
}

/// Decides `k`-set consensus in the model captured by `affine`, on
/// rainbow-restricted inputs, routing the parity-type case through the
/// Sperner certificate: when `k = n − 1` and the domain is a genuine
/// subdivision of the input simplex (the wait-free case — `R_A = Chr² s`),
/// unsolvability follows from Sperner's lemma rather than search, which
/// would otherwise have to enumerate an astronomic space.
pub fn set_consensus_verdict(
    task: &act_tasks::SetConsensus,
    affine: &AffineTask,
    iterations: usize,
    max_nodes: usize,
) -> Solvability {
    set_consensus_verdict_cached(&mut DomainCache::new(), task, affine, iterations, max_nodes)
}

/// [`set_consensus_verdict`] through a caller-owned [`DomainCache`], so
/// sweeps over `ℓ` (or over `k` in one model) reuse the domain tower
/// instead of resubdividing from scratch each time.
pub fn set_consensus_verdict_cached(
    cache: &mut DomainCache,
    task: &act_tasks::SetConsensus,
    affine: &AffineTask,
    iterations: usize,
    max_nodes: usize,
) -> Solvability {
    set_consensus_verdict_with_config(
        cache,
        task,
        affine,
        iterations,
        &SearchConfig::new(max_nodes),
    )
}

/// [`set_consensus_verdict_cached`] with explicit engine knobs
/// ([`SearchConfig`]): thread count and the optional wall-clock
/// deadline, which surfaces as [`Solvability::TimedOut`].
///
/// Tries the Sperner certificate, then the leader-map witness, then the
/// components certificate, then the search (see the module
/// documentation).
pub fn set_consensus_verdict_with_config(
    cache: &mut DomainCache,
    task: &act_tasks::SetConsensus,
    affine: &AffineTask,
    iterations: usize,
    config: &SearchConfig,
) -> Solvability {
    set_consensus_verdict_routed(
        cache,
        task,
        affine,
        affine.agreement_function(),
        iterations,
        config,
    )
}

/// [`set_consensus_verdict_with_config`] with the agreement function the
/// leader-map route uses given explicitly (`None` skips the route).
fn set_consensus_verdict_routed(
    cache: &mut DomainCache,
    task: &act_tasks::SetConsensus,
    affine: &AffineTask,
    alpha: Option<&AgreementFunction>,
    iterations: usize,
    config: &SearchConfig,
) -> Solvability {
    let n = task.num_processes();
    let inputs = task.rainbow_inputs();
    let domain = cache.domain(affine, &inputs, iterations).clone();
    let span = act_obs::span("solver.set_consensus");
    // Any carried map would be a Sperner labeling with no rainbow facet;
    // the lemma forces an odd number of them.
    if task.k() == n - 1 && act_tasks::sperner_certificate(&domain) {
        if act_obs::enabled() {
            span.finish()
                .str("route", "sperner")
                .str("verdict", "no-map")
                .u64("k", task.k() as u64)
                .u64("domain_facets", domain.facet_count() as u64)
                .emit();
        }
        return Solvability::NoMapUpTo {
            max_iterations: iterations,
        };
    }
    if let Some(map) = alpha.and_then(|a| leader_map_witness_for(task, a, &domain)) {
        if verify_carried_map(task, &domain, &map) {
            if act_obs::enabled() {
                span.finish()
                    .str("route", "leader-map")
                    .str("verdict", "solvable")
                    .u64("k", task.k() as u64)
                    .u64("domain_facets", domain.facet_count() as u64)
                    .emit();
            }
            return Solvability::Solvable { iterations, map };
        }
        LEADER_MAP_REJECTED.add(1);
        if act_obs::enabled() {
            act_obs::event("solver.leader_map.rejected")
                .u64("k", task.k() as u64)
                .u64("domain_facets", domain.facet_count() as u64)
                .emit();
        }
    }
    // A consensus map is constant on each component and decides an input
    // of every carrier there.
    if task.k() == 1 {
        if let Some(cert) = certificate::find(&domain) {
            if certificate::check(&domain, &cert) {
                if act_obs::enabled() {
                    span.finish()
                        .str("route", "components")
                        .str("verdict", "no-map")
                        .u64("k", 1)
                        .u64("domain_facets", domain.facet_count() as u64)
                        .u64("components", cert.components as u64)
                        .u64("component_vertices", cert.vertices.len() as u64)
                        .emit();
                }
                return Solvability::NoMapUpTo {
                    max_iterations: iterations,
                };
            }
            COMPONENTS_REJECTED.add(1);
            if act_obs::enabled() {
                act_obs::event("solver.components.rejected")
                    .u64("domain_facets", domain.facet_count() as u64)
                    .u64("components", cert.components as u64)
                    .u64("component_vertices", cert.vertices.len() as u64)
                    .emit();
            }
        }
    }
    let (result, stats) = find_carried_map_with_config(task, &domain, config);
    let verdict = match result {
        SearchResult::Found(map) => Solvability::Solvable { iterations, map },
        SearchResult::Unsolvable => Solvability::NoMapUpTo {
            max_iterations: iterations,
        },
        SearchResult::Exhausted => Solvability::Exhausted { iterations },
        SearchResult::TimedOut => Solvability::TimedOut { iterations },
    };
    if act_obs::enabled() {
        span.finish()
            .str("route", "search")
            .str("verdict", verdict.verdict_name())
            .u64("k", task.k() as u64)
            .u64("domain_facets", domain.facet_count() as u64)
            .u64("nodes", stats.nodes as u64)
            .emit();
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_adversary::{zoo, Adversary};
    use act_tasks::{consensus, find_carried_map, verify_carried_map, SetConsensus};
    use act_topology::ColorSet;

    #[test]
    fn set_consensus_at_model_power_is_solvable_in_one_iteration() {
        // k = setcon(A): the µ_Q construction shows a 1-iteration map
        // exists; the solver must find one. (Rainbow-restricted inputs to
        // keep the search small; solvability on full inputs is exercised
        // by the integration tests.)
        let cases: Vec<(AgreementFunction, usize)> = vec![
            (AgreementFunction::k_concurrency(3, 1), 1),
            (AgreementFunction::k_concurrency(3, 2), 2),
            (
                AgreementFunction::of_adversary(&zoo::figure_5b_adversary()),
                2,
            ),
            (
                AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1)),
                2,
            ),
        ];
        for (alpha, power) in cases {
            let t = SetConsensus::new(3, power, &[0, 1, 2]);
            let inputs = rainbow_inputs(&t);
            let affine = act_affine::fair_affine_task(&alpha);
            let domain = affine_domain(&affine, &inputs, 1);
            let result = find_carried_map(&t, &domain, 2_000_000);
            let map = result
                .into_map()
                .unwrap_or_else(|| panic!("{}-set consensus solvable (α = {power})", power));
            assert!(verify_carried_map(&t, &domain, &map));
        }
    }

    #[test]
    fn consensus_below_model_power_is_unsolvable() {
        // k = 1 < setcon(A) = 2: no map at depths 1..2.
        let models = vec![
            AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1)),
            AgreementFunction::of_adversary(&zoo::figure_5b_adversary()),
        ];
        for alpha in models {
            let t = consensus(3, &[0, 1, 2]);
            let inputs = rainbow_inputs(&t);
            let affine = act_affine::fair_affine_task(&alpha);
            for depth in 1..=2 {
                let domain = affine_domain(&affine, &inputs, depth);
                let result = find_carried_map(&t, &domain, 2_000_000);
                assert!(
                    result.is_unsolvable(),
                    "consensus must be unsolvable at depth {depth}"
                );
            }
        }
    }

    #[test]
    fn pipeline_reports_depth() {
        let alpha = AgreementFunction::k_concurrency(2, 2); // wait-free, 2 procs
        let t = SetConsensus::new(2, 2, &[0, 1, 2]);
        let verdict = solve_in_fair_model(&t, &alpha, 2, 1_000_000);
        match verdict {
            Solvability::Solvable { iterations, .. } => assert_eq!(iterations, 1),
            other => panic!("expected solvable, got {other:?}"),
        }
    }

    /// The sub-complex of the inputs where process i proposes value i.
    fn rainbow_inputs(t: &SetConsensus) -> Complex {
        let i = t.inputs();
        let rainbow = i
            .facets()
            .iter()
            .find(|f| {
                f.vertices()
                    .iter()
                    .all(|&v| i.vertex(v).label == i.color(v).index() as u64)
            })
            .expect("rainbow facet exists")
            .clone();
        i.sub_complex(vec![rainbow])
    }

    /// Serializes the tests that install the process-global event sink
    /// or emit `solver.set_consensus` events, so one test's sink never
    /// counts another test's routes.
    fn sink_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn exhausted_and_sperner_routes_emit_matching_telemetry() {
        // Other tests in this binary may run concurrently and emit their
        // own events into the process-global sink, so assert on the
        // presence and shape of the events this test provokes rather
        // than on exact totals.
        let _guard = sink_guard();
        let sink = act_obs::MemorySink::shared();
        act_obs::install(sink.clone());
        let nodes_before = act_tasks::SEARCH_NODES.get();

        // A zero-node budget exhausts immediately: 2-set consensus under
        // 2-concurrency is solvable but only by branching, so the search
        // must charge at least one node.
        let t = SetConsensus::new(3, 2, &[0, 1, 2]);
        let affine = act_affine::fair_affine_task(&AgreementFunction::k_concurrency(3, 2));
        let verdict = solve_in_model(&t, &affine, 3, 0);
        assert!(
            matches!(verdict, Solvability::Exhausted { iterations: 1 }),
            "zero budget must exhaust at the first depth, got {verdict:?}"
        );
        assert!(
            act_tasks::SEARCH_NODES.get() > nodes_before,
            "an exhausted search still charges nodes to the counter"
        );

        // The wait-free (n−1)-set consensus case routes through the
        // Sperner certificate — search would have to enumerate an
        // astronomic space.
        let wf = AgreementFunction::of_adversary(&Adversary::wait_free(3));
        let r_a = act_affine::fair_affine_task(&wf);
        let verdict = set_consensus_verdict(&t, &r_a, 1, 3_000_000);
        assert!(matches!(verdict, Solvability::NoMapUpTo { .. }));

        act_obs::uninstall();
        let lines = sink.lines();
        let exhausted: Vec<&String> = lines
            .iter()
            .filter(|l| {
                l.contains("\"ev\":\"solver.iteration\"") && l.contains("\"verdict\":\"exhausted\"")
            })
            .collect();
        assert_eq!(exhausted.len(), 1, "one exhausted iteration event");
        assert!(exhausted[0].contains("\"iterations\":1"));
        let sperner: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"ev\":\"solver.set_consensus\""))
            .collect();
        assert_eq!(sperner.len(), 1, "one set-consensus event");
        assert!(
            sperner[0].contains("\"route\":\"sperner\"")
                && sperner[0].contains("\"verdict\":\"no-map\""),
            "the wait-free case must report the Sperner route: {}",
            sperner[0]
        );
    }

    #[test]
    fn a_rejected_leader_map_falls_through_to_the_search() {
        // The route builds µ_Π from the α it is given. Paired with the R_A
        // it came from, the witness verifies; paired with the wait-free
        // R_A (which keeps runs this α rules out), it must fail the
        // check, be counted and emitted, and leave the verdict to the
        // routes after it — where the components certificate proves
        // consensus unsolvable, as the search does.
        let _guard = sink_guard();
        let sink = act_obs::MemorySink::shared();
        act_obs::install(sink.clone());
        let t = consensus(3, &[0, 1]);
        let inputs = t.rainbow_inputs();
        let alpha = AgreementFunction::of_adversary(&Adversary::k_obstruction_free(3, 1));
        let config = SearchConfig::new(2_000_000);
        let rejected_before = LEADER_MAP_REJECTED.get();

        let own = act_affine::fair_affine_task(&alpha);
        let mut cache = DomainCache::new();
        let verdict = set_consensus_verdict_with_config(&mut cache, &t, &own, 1, &config);
        assert!(matches!(
            verdict,
            Solvability::Solvable { iterations: 1, .. }
        ));
        assert_eq!(LEADER_MAP_REJECTED.get(), rejected_before);

        let wait_free = act_affine::wait_free_task(3);
        let routed =
            set_consensus_verdict_routed(&mut cache, &t, &wait_free, Some(&alpha), 1, &config);
        act_obs::uninstall();
        assert_eq!(LEADER_MAP_REJECTED.get() - rejected_before, 1);
        let domain = affine_domain(&wait_free, &inputs, 1);
        assert!(find_carried_map(&t, &domain, 2_000_000).is_unsolvable());
        assert!(
            matches!(routed, Solvability::NoMapUpTo { max_iterations: 1 }),
            "the search's no-map stands, got {routed:?}"
        );

        let lines = sink.lines();
        let routes: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"ev\":\"solver.set_consensus\""))
            .collect();
        assert_eq!(routes.len(), 2, "one set-consensus event per verdict");
        assert!(
            routes[0].contains("\"route\":\"leader-map\""),
            "{}",
            routes[0]
        );
        assert!(
            routes[1].contains("\"route\":\"components\""),
            "{}",
            routes[1]
        );
        let rejections = lines
            .iter()
            .filter(|l| l.contains("\"ev\":\"solver.leader_map.rejected\""))
            .count();
        assert_eq!(rejections, 1);
    }

    #[test]
    fn domain_cache_matches_from_scratch_builds() {
        // The incremental tower must be structurally equal (`==`, not just
        // same_complex) to affine_domain's from-scratch rebuilds at every
        // level, in any query order, and invalidate on key change.
        let _guard = sink_guard();
        let alpha = AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1));
        let affine = act_affine::fair_affine_task(&alpha);
        let t = SetConsensus::new(3, 2, &[0, 1, 2]);
        let inputs = rainbow_inputs(&t);

        let mut cache = DomainCache::new();
        for level in 1..=3 {
            let cached = cache.domain(&affine, &inputs, level).clone();
            assert_eq!(cached, affine_domain(&affine, &inputs, level));
            assert_eq!(cache.cached_levels(), level);
        }
        // Re-querying a lower level reuses the tower without rebuilding.
        let lvl2 = cache.domain(&affine, &inputs, 2).clone();
        assert_eq!(cache.cached_levels(), 3);
        assert_eq!(lvl2, affine_domain(&affine, &inputs, 2));

        // A different input complex invalidates the tower.
        let full = t.inputs().clone();
        let fresh = cache.domain(&affine, &full, 1).clone();
        assert_eq!(cache.cached_levels(), 1);
        assert_eq!(fresh, affine_domain(&affine, &full, 1));

        // And the cached set-consensus verdict agrees with the uncached
        // route on a solvable case.
        let mut cache = DomainCache::new();
        let cached = set_consensus_verdict_cached(&mut cache, &t, &affine, 1, 2_000_000);
        let direct = set_consensus_verdict(&t, &affine, 1, 2_000_000);
        assert!(cached.is_solvable() && direct.is_solvable());
    }

    #[test]
    fn alternating_keys_keep_both_towers_resident() {
        // The old single-key cache thrashed to zero hits when two models
        // (or input complexes) alternated. The LRU must retain both.
        let alpha = AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1));
        let affine = act_affine::fair_affine_task(&alpha);
        let t = SetConsensus::new(3, 2, &[0, 1, 2]);
        let rainbow = rainbow_inputs(&t);
        let full = t.inputs().clone();

        let mut cache = DomainCache::new();
        cache.domain(&affine, &rainbow, 2);
        cache.domain(&affine, &full, 1);
        assert_eq!(cache.resident_towers(), 2);
        assert_eq!(cache.cached_levels(), 1, "MRU tower is the `full` one");
        // Switching back does not rebuild: the rainbow tower still holds
        // both of its levels.
        cache.domain(&affine, &rainbow, 1);
        assert_eq!(cache.cached_levels(), 2);
        assert_eq!(cache.resident_towers(), 2);

        // Structurally equal inputs built independently (different Arcs)
        // resolve to the same tower via the content hash.
        let rainbow2 = rainbow_inputs(&t);
        assert!(!rainbow.same_representation(&rainbow2));
        cache.domain(&affine, &rainbow2, 2);
        assert_eq!(cache.resident_towers(), 2);
        assert_eq!(cache.cached_levels(), 2);
    }

    #[test]
    fn overflowing_the_tower_capacity_evicts_lru_with_an_event() {
        let _guard = sink_guard();
        let sink = act_obs::MemorySink::shared();
        act_obs::install(sink.clone());
        let evictions_before = DOMAIN_CACHE_EVICTIONS.get();

        let alpha = AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1));
        let affine = act_affine::fair_affine_task(&alpha);
        let t = SetConsensus::new(3, 2, &[0, 1, 2]);
        let rainbow = rainbow_inputs(&t);
        let full = t.inputs().clone();

        let mut cache = DomainCache::with_capacity(1);
        cache.domain(&affine, &rainbow, 1);
        cache.domain(&affine, &full, 1); // evicts the rainbow tower
        assert_eq!(cache.resident_towers(), 1);
        assert_eq!(DOMAIN_CACHE_EVICTIONS.get() - evictions_before, 1);

        act_obs::uninstall();
        let evicts: Vec<String> = sink
            .lines()
            .iter()
            .filter(|l| l.contains("\"ev\":\"domain.cache.evict\""))
            .cloned()
            .collect();
        assert!(
            evicts.iter().any(|l| l.contains("\"levels\":1")),
            "eviction event carries the dropped tower depth: {evicts:?}"
        );
    }

    #[test]
    fn poisoned_cache_levels_are_rebuilt() {
        let alpha = AgreementFunction::k_concurrency(2, 2);
        let affine = act_affine::fair_affine_task(&alpha);
        let inputs = Complex::standard(2);
        let mut cache = DomainCache::new();
        let sound = cache.domain(&affine, &inputs, 3).clone();
        assert_eq!(cache.cached_levels(), 3);

        // Poison the middle level: the next query must detect it and
        // rebuild from level 1, serving a domain equal to the sound one.
        assert!(cache.poison_level(2));
        let healed = cache.domain(&affine, &inputs, 3).clone();
        assert_eq!(healed, sound, "rebuild restores the exact tower");
        assert_eq!(cache.cached_levels(), 3);

        // Poisoning the base level forces a full rebuild.
        assert!(cache.poison_level(1));
        let healed = cache.domain(&affine, &inputs, 2).clone();
        assert_eq!(healed, affine_domain(&affine, &inputs, 2));

        // Out-of-range levels are reported, not panicked on.
        assert!(!cache.poison_level(0));
        assert!(!cache.poison_level(99));
    }

    /// An in-memory [`TowerPersistence`] for exercising the canonical
    /// store keying without the service crate.
    #[derive(Default)]
    struct MapPersistence {
        entries: std::sync::Mutex<std::collections::HashMap<(u128, u128, usize), Complex>>,
        loads: std::sync::atomic::AtomicU64,
        stores: std::sync::atomic::AtomicU64,
    }

    impl MapPersistence {
        fn loads(&self) -> u64 {
            self.loads.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn stores(&self) -> u64 {
            self.stores.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl TowerPersistence for MapPersistence {
        fn load_level(
            &self,
            affine_hash: u128,
            inputs_hash: u128,
            level: usize,
        ) -> Option<Complex> {
            let hit = self
                .entries
                .lock()
                .unwrap()
                .get(&(affine_hash, inputs_hash, level))
                .cloned();
            if hit.is_some() {
                self.loads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            hit
        }

        fn store_level(
            &self,
            affine_hash: u128,
            inputs_hash: u128,
            level: usize,
            domain: &Complex,
        ) {
            self.stores
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.entries
                .lock()
                .unwrap()
                .insert((affine_hash, inputs_hash, level), domain.clone());
        }
    }

    /// The color-permuted image of a query: both the affine task and the
    /// inputs pushed through `π`, as a client with relabeled processes
    /// would pose it.
    fn permuted_query(
        affine: &AffineTask,
        inputs: &Complex,
        perm: &act_topology::ColorPerm,
    ) -> (AffineTask, Complex) {
        (
            AffineTask::new(
                format!("{}-permuted", affine.name()),
                act_topology::permute_complex(affine.complex(), perm),
            ),
            act_topology::permute_complex(inputs, perm),
        )
    }

    #[test]
    fn color_permuted_queries_share_a_tower_via_orbit_hit() {
        let alpha = AgreementFunction::k_concurrency(3, 2);
        let affine = act_affine::fair_affine_task(&alpha);
        let t = SetConsensus::new(3, 2, &[0, 1, 2]);
        let inputs = rainbow_inputs(&t);
        let perm = act_topology::ColorPerm::from_images(&[2, 0, 1]).unwrap();
        let (affine_p, inputs_p) = permuted_query(&affine, &inputs, &perm);

        // A test-local persistence backend doubles as a subdivision
        // detector: building a level stores it, an orbit hit stores
        // nothing. (Process-global counters race with concurrent tests.)
        let probe = std::sync::Arc::new(MapPersistence::default());
        let mut cache = DomainCache::new()
            .with_persistence(probe.clone() as std::sync::Arc<dyn TowerPersistence>);
        cache.domain(&affine, &inputs, 2);
        assert_eq!(probe.stores(), 2, "the first query builds both levels");
        let hits_before = DOMAIN_CACHE_ORBIT_HITS.get();
        let transported = cache.domain(&affine_p, &inputs_p, 2).clone();
        assert_eq!(
            probe.stores(),
            2,
            "an orbit hit costs zero subdivision rounds"
        );
        assert_eq!(probe.loads(), 0, "and zero persistence loads");
        assert!(DOMAIN_CACHE_ORBIT_HITS.get() > hits_before);
        assert_eq!(cache.resident_towers(), 2, "both frames stay resident");

        // The transported tower is anchored byte-identically at the
        // permuted inputs and is the same complex a direct build yields.
        let direct = affine_domain(&affine_p, &inputs_p, 2);
        assert_eq!(*transported.base(), inputs_p);
        assert_eq!(transported.facet_count(), direct.facet_count());
        assert!(transported.same_complex(&direct));

        // Once resident, the transported tower serves its frame via the
        // ordinary fast path — no second orbit hit.
        cache.domain(&affine_p, &inputs_p, 1);
        assert_eq!(DOMAIN_CACHE_ORBIT_HITS.get() - hits_before, 1);

        // Verdict parity across the frames: 2-set consensus under
        // 2-concurrency is solvable in either coloring.
        let direct_verdict = find_carried_map(&t, &affine_domain(&affine, &inputs, 1), 2_000_000);
        let t_p = SetConsensus::new(3, 2, &[0, 1, 2]);
        let transported_l1 = cache.domain(&affine_p, &inputs_p, 1).clone();
        let shared_verdict = find_carried_map(&t_p, &transported_l1, 2_000_000);
        assert_eq!(
            direct_verdict.into_map().is_some(),
            shared_verdict.into_map().is_some(),
            "orbit sharing never changes a verdict"
        );
    }

    #[test]
    fn persisted_towers_are_shared_across_color_permutations() {
        let alpha = AgreementFunction::k_concurrency(3, 2);
        let affine = act_affine::fair_affine_task(&alpha);
        let t = SetConsensus::new(3, 2, &[0, 1, 2]);
        let inputs = rainbow_inputs(&t);
        let persistence = std::sync::Arc::new(MapPersistence::default());

        // One lifetime builds and persists the tower in its own frame.
        {
            let mut warm = DomainCache::new()
                .with_persistence(persistence.clone() as std::sync::Arc<dyn TowerPersistence>);
            warm.domain(&affine, &inputs, 2);
        }
        assert_eq!(persistence.stores(), 2, "both levels persisted");

        // A cold process asking the *same* query reloads byte-identical
        // levels: the canonical frame round-trips exactly. A reload never
        // stores, so `stores()` staying put proves nothing was rebuilt.
        let mut same_frame = DomainCache::new()
            .with_persistence(persistence.clone() as std::sync::Arc<dyn TowerPersistence>);
        let reloaded = same_frame.domain(&affine, &inputs, 2).clone();
        assert_eq!(persistence.loads(), 2, "both levels reloaded");
        assert_eq!(persistence.stores(), 2, "nothing rebuilt or rewritten");
        assert_eq!(reloaded, affine_domain(&affine, &inputs, 2));

        // A cold process asking the color-PERMUTED query addresses the
        // same canonical entries: zero subdivision rounds there too.
        let perm = act_topology::ColorPerm::from_images(&[1, 2, 0]).unwrap();
        let (affine_p, inputs_p) = permuted_query(&affine, &inputs, &perm);
        let loads_before = persistence.loads();
        let mut permuted_frame = DomainCache::new()
            .with_persistence(persistence.clone() as std::sync::Arc<dyn TowerPersistence>);
        let transported = permuted_frame.domain(&affine_p, &inputs_p, 2).clone();
        assert_eq!(
            persistence.loads() - loads_before,
            2,
            "the permuted query is served from the shared persisted tower"
        );
        assert_eq!(*transported.base(), inputs_p);
        assert!(transported.same_complex(&affine_domain(&affine_p, &inputs_p, 2)));
        // No duplicate entries were written for the permuted frame.
        assert_eq!(persistence.stores(), 2);
    }

    #[test]
    fn direct_and_orbit_shared_expansion_agree_byte_for_byte() {
        let alpha = AgreementFunction::of_adversary(&Adversary::t_resilient(3, 1));
        let affine = act_affine::fair_affine_task(&alpha);
        let inputs = Complex::standard(3);
        let mut direct = DomainCache::new().with_expansion(DomainExpansion::Direct);
        let mut shared = DomainCache::new().with_expansion(DomainExpansion::OrbitShared);
        for level in 1..=2 {
            assert_eq!(
                direct.domain(&affine, &inputs, level),
                shared.domain(&affine, &inputs, level),
                "expansion strategies must be byte-identical at level {level}"
            );
        }
    }

    #[test]
    fn no_map_up_to_is_reported() {
        let alpha = AgreementFunction::of_adversary(&Adversary::t_resilient(2, 0));
        // 0-resilient 2 processes: setcon 1 — consensus IS solvable.
        let t = consensus(2, &[0, 1]);
        let verdict = solve_in_fair_model(&t, &alpha, 1, 1_000_000);
        assert!(verdict.is_solvable(), "consensus solvable 0-resiliently");
        let _ = ColorSet::full(2);
    }
}
