//! The standard chromatic subdivision `Chr` and recipe-driven subdivisions.
//!
//! A facet of `Chr σ` corresponds to an ordered set partition ([`Osp`]) of
//! the colors of `σ` (an immediate-snapshot run, Section 2 of the paper);
//! the vertex of color `c` is `(c, face of σ spanned by c's view)`.
//! Subdividing every facet of a complex and gluing along shared faces
//! (vertices are deduplicated by their canonical key `(color, carrier)`)
//! yields `Chr K`. Iterating gives `Chr^m K`, which captures the `m`-round
//! iterated-immediate-snapshot model.
//!
//! A *recipe* is a fixed-length sequence of OSPs describing a facet of
//! `Chr^ℓ σ` relative to `σ`; recipe-driven subdivision
//! ([`Complex::subdivide_patterned`]) generates only the facets whose recipe
//! is allowed, which is exactly the iteration operation on affine tasks
//! (`L^m` of the paper).

use std::collections::HashMap;
use std::sync::Arc;

use crate::color::{ColorSet, ProcessId};
use crate::complex::{Complex, Structure};
use crate::intern::{FacetAccumulator, InternArena};
use crate::osp::{osp_table, Osp};
use crate::parallel::{parallel_map_ranges, subdivision_threads};
use crate::simplex::{Simplex, VertexId};
use crate::symmetry::{
    symmetry_group, symmetry_group_inferred, ChainAction, FacetOrbit, LabelMatching, SymmetryGroup,
};

/// A facet of `Chr^ℓ σ` described relative to `σ`: one ordered set
/// partition of `χ(σ)` per subdivision round.
pub type Recipe = Vec<Osp>;

/// Enumerates all depth-`ℓ` recipes over the color set `ground`:
/// all sequences of `ℓ` ordered set partitions of `ground`.
pub fn all_recipes(ground: ColorSet, depth: usize) -> Vec<Recipe> {
    let osps = osp_table(ground);
    let mut out: Vec<Recipe> = vec![Vec::new()];
    for _ in 0..depth {
        let mut next = Vec::with_capacity(out.len() * osps.len());
        for prefix in &out {
            for osp in osps.iter() {
                let mut r = prefix.clone();
                r.push(osp.clone());
                next.push(r);
            }
        }
        out = next;
    }
    out
}

/// One subdivision round under construction: an interning arena for the
/// round's vertices plus its (order-preserving, deduplicated) facet list.
struct LevelBuilder {
    arena: InternArena,
    facets: FacetAccumulator,
}

impl LevelBuilder {
    fn new() -> Self {
        LevelBuilder {
            arena: InternArena::new(),
            facets: FacetAccumulator::new(),
        }
    }

    fn new_chain(depth: usize) -> Vec<LevelBuilder> {
        (0..depth).map(|_| LevelBuilder::new()).collect()
    }
}

/// Expands one input facet into the level builders: for every allowed
/// recipe, walks the rounds interning the generated vertices and facets.
///
/// Round-0 carriers reference the *input* level's (global) vertex ids;
/// round `r ≥ 1` carriers reference the ids issued by `builders[r - 1]`.
/// Base-carrier data always references the base (level-0) complex, so it is
/// chunk-independent.
fn expand_facet(
    input: &Complex,
    facet: &Simplex,
    recipe_cache: &HashMap<ColorSet, Arc<Vec<Recipe>>>,
    builders: &mut [LevelBuilder],
) {
    let colors = input.colors(facet);
    let recipe_set = &recipe_cache[&colors];
    for recipe in recipe_set.iter() {
        // `current_ids` is the simplex being subdivided at each round, as
        // (color, vertex id, base_carrier, base_colors) per vertex.
        let mut current_ids: Vec<(ProcessId, VertexId, Simplex, ColorSet)> = facet
            .vertices()
            .iter()
            .map(|&v| {
                let d = input.vertex(v);
                (d.color, v, d.base_carrier.clone(), d.base_colors)
            })
            .collect();
        for (round, osp) in recipe.iter().enumerate() {
            assert_eq!(
                osp.ground(),
                colors,
                "recipe OSP ground set must equal the facet's colors"
            );
            let builder = &mut builders[round];
            let mut next_ids = Vec::with_capacity(current_ids.len());
            for &(c, _, _, _) in &current_ids {
                let view = osp.view_of(c).expect("osp covers every color of the facet");
                // Carrier: the face of `current` spanned by `view`.
                let carrier = Simplex::from_vertices(
                    current_ids
                        .iter()
                        .filter(|&&(cc, _, _, _)| view.contains(cc))
                        .map(|&(_, v, _, _)| v),
                );
                let mut base_carrier = Simplex::empty();
                let mut base_colors = ColorSet::EMPTY;
                for &(cc, _, ref bc, bcol) in &current_ids {
                    if view.contains(cc) {
                        base_carrier = base_carrier.union(bc);
                        base_colors = base_colors.union(bcol);
                    }
                }
                let id = builder
                    .arena
                    .intern(c, carrier, base_carrier.clone(), base_colors);
                next_ids.push((c, id, base_carrier, base_colors));
            }
            builder.facets.push(Simplex::from_vertices(
                next_ids.iter().map(|&(_, v, _, _)| v),
            ));
            current_ids = next_ids;
        }
    }
}

/// Rewrites a simplex's vertex ids through a local→global id map.
fn remap(simplex: &Simplex, map: &[VertexId]) -> Simplex {
    Simplex::from_vertices(simplex.vertices().iter().map(|&v| map[v.index()]))
}

/// The push-order trace of one facet's expansion: per recipe, per round,
/// the `(color, issued id)` pairs in intern order. Recording a
/// representative's expansion lets orbit members be *transported* — their
/// vertices derived by id remapping instead of carrier recomputation —
/// while reproducing the exact intern sequence of a direct expansion.
struct RecordedExpansion {
    rounds: Vec<Vec<Vec<(ProcessId, VertexId)>>>,
}

/// [`expand_facet`] with push-order recording (same intern sequence).
fn expand_facet_recorded(
    input: &Complex,
    facet: &Simplex,
    recipe_set: &[Recipe],
    builders: &mut [LevelBuilder],
) -> RecordedExpansion {
    let colors = input.colors(facet);
    let mut recorded = Vec::with_capacity(recipe_set.len());
    for recipe in recipe_set {
        let mut current_ids: Vec<(ProcessId, VertexId, Simplex, ColorSet)> = facet
            .vertices()
            .iter()
            .map(|&v| {
                let d = input.vertex(v);
                (d.color, v, d.base_carrier.clone(), d.base_colors)
            })
            .collect();
        let mut recipe_rounds = Vec::with_capacity(recipe.len());
        for (round, osp) in recipe.iter().enumerate() {
            assert_eq!(osp.ground(), colors, "recipe OSP ground set mismatch");
            let builder = &mut builders[round];
            let mut next_ids = Vec::with_capacity(current_ids.len());
            for &(c, _, _, _) in &current_ids {
                let view = osp.view_of(c).expect("osp covers every color of the facet");
                let carrier = Simplex::from_vertices(
                    current_ids
                        .iter()
                        .filter(|&&(cc, _, _, _)| view.contains(cc))
                        .map(|&(_, v, _, _)| v),
                );
                let mut base_carrier = Simplex::empty();
                let mut base_colors = ColorSet::EMPTY;
                for &(cc, _, ref bc, bcol) in &current_ids {
                    if view.contains(cc) {
                        base_carrier = base_carrier.union(bc);
                        base_colors = base_colors.union(bcol);
                    }
                }
                let id = builder
                    .arena
                    .intern(c, carrier, base_carrier.clone(), base_colors);
                next_ids.push((c, id, base_carrier, base_colors));
            }
            builder.facets.push(Simplex::from_vertices(
                next_ids.iter().map(|&(_, v, _, _)| v),
            ));
            recipe_rounds.push(next_ids.iter().map(|&(c, v, _, _)| (c, v)).collect());
            current_ids = next_ids;
        }
        recorded.push(recipe_rounds);
    }
    RecordedExpansion { rounds: recorded }
}

/// Resolves each of a member's recipes to the representative's recipe
/// index under the inverse permutation, or `None` when some recipe has no
/// counterpart (a non-equivariant recipe function). The result depends
/// only on the (orbit, group element) pair, so callers cache it across
/// the orbit's members instead of re-permuting and re-hashing every
/// recipe per member.
fn resolve_rep_indices(
    facet_recipes: &[Recipe],
    rep_recipe_index: &HashMap<Recipe, usize>,
    action: &ChainAction,
) -> Option<Vec<usize>> {
    let inv = action.perm().inverse();
    facet_recipes
        .iter()
        .map(|recipe| rep_recipe_index.get(&inv.apply_recipe(recipe)).copied())
        .collect()
}

/// Expands an orbit member by transporting its representative's recorded
/// expansion through a chain action: every vertex is derived by remapping
/// the representative's recorded ids (input-level carriers through the
/// action, deeper carriers through the image tables) instead of
/// recomputing views and carrier unions.
///
/// Expansion is color-equivariant, so the interned keys — and therefore
/// ids, tables, and facet order — are exactly those of a direct expansion
/// of the member. `rep_indices` comes from [`resolve_rep_indices`]; a
/// member whose recipes fail to resolve is expanded directly by the
/// caller instead.
///
/// `images[round][rep_id]` caches the image of an issued id under this
/// action's element ([`VertexId::NONE`] = not yet computed). The intern
/// arena is content-addressed, so the image of a recorded id is a pure
/// function of `(recorded vertex data, element)` and can be reused across
/// recipes and members: repeat occurrences — the large majority, since
/// expansions share most vertices between recipes — skip the carrier
/// remapping, the allocations, and the intern probe entirely.
fn transport_facet(
    input: &Complex,
    facet: &Simplex,
    rep_indices: &[usize],
    rep_record: &RecordedExpansion,
    action: &ChainAction,
    images: &mut [Vec<VertexId>],
    builders: &mut [LevelBuilder],
) {
    if rep_indices.is_empty() {
        return;
    }
    let inv = action.perm().inverse();
    let input_map = action.level_map(input.level());
    let base_map = action.level_map(0);
    let perm = action.perm();
    // The member's per-round color order: colors of its sorted vertices
    // (constant across rounds, exactly as in a direct expansion). The
    // representative's round order is equally constant, so the position of
    // each member color's preimage is resolved once, not per vertex.
    let facet_colors: Vec<ProcessId> = facet.vertices().iter().map(|&v| input.color(v)).collect();
    let rep_order = &rep_record.rounds[rep_indices[0]][0];
    let rep_pos: Vec<usize> = facet_colors
        .iter()
        .map(|&c| {
            let rc = inv.apply(c);
            rep_order
                .iter()
                .position(|&(col, _)| col == rc)
                .expect("representative round covers every color")
        })
        .collect();
    let mut issued: Vec<VertexId> = Vec::with_capacity(facet_colors.len());
    for &rep_idx in rep_indices {
        let recipe_rounds = &rep_record.rounds[rep_idx];
        for (round, rep_round) in recipe_rounds.iter().enumerate() {
            let builder = &mut builders[round];
            let (prev_images, cur_images) = images.split_at_mut(round);
            let cur_images = &mut cur_images[0];
            issued.clear();
            for (i, &c) in facet_colors.iter().enumerate() {
                let rep_id = rep_round[rep_pos[i]].1;
                let slot = rep_id.index();
                if cur_images.len() <= slot {
                    cur_images.resize(slot + 1, VertexId::NONE);
                }
                let id = if cur_images[slot] != VertexId::NONE {
                    cur_images[slot]
                } else {
                    // Borrow the recorded vertex only long enough to remap
                    // its data — cloning it would cost two simplex
                    // allocations per vertex on the transport hot path.
                    let (carrier, base_carrier, base_colors) = {
                        let d = builder
                            .arena
                            .vertex(rep_id)
                            .expect("recorded id is interned");
                        let carrier = if round == 0 {
                            remap(&d.carrier, input_map)
                        } else {
                            // Carrier ids come from the previous round of
                            // this recipe, whose images are all recorded.
                            let prev = &prev_images[round - 1];
                            Simplex::from_vertices(d.carrier.vertices().iter().map(|&v| {
                                let img = prev[v.index()];
                                debug_assert!(img != VertexId::NONE);
                                img
                            }))
                        };
                        (
                            carrier,
                            remap(&d.base_carrier, base_map),
                            perm.apply_colors(d.base_colors),
                        )
                    };
                    let id = builder.arena.intern(c, carrier, base_carrier, base_colors);
                    cur_images[slot] = id;
                    id
                };
                issued.push(id);
            }
            builder
                .facets
                .push(Simplex::from_vertices(issued.iter().copied()));
        }
    }
}

/// Merges per-chunk builder chains into one global chain, replaying every
/// chunk's intern and facet sequences *in chunk order*.
///
/// Chunks are contiguous ranges of the input facet list, so replaying them
/// in order reproduces the serial first-occurrence order of every vertex
/// key and facet exactly: the merged tables are byte-identical to a serial
/// build. Cross-chunk duplicates are safe because the base data of a vertex
/// is a function of its canonical key `(color, carrier)`.
fn merge_builder_chains(chunks: Vec<Vec<LevelBuilder>>, depth: usize) -> Vec<LevelBuilder> {
    let mut global = LevelBuilder::new_chain(depth);
    for chain in chunks {
        // `prev_map`: local vertex index at the previous round -> global id.
        let mut prev_map: Vec<VertexId> = Vec::new();
        for (round, local) in chain.into_iter().enumerate() {
            let g = &mut global[round];
            let mut map = Vec::with_capacity(local.arena.len());
            for d in local.arena.vertex_table() {
                // Round-0 carriers already hold input-level (global) ids;
                // deeper carriers hold the previous round's local ids.
                let carrier = if round == 0 {
                    d.carrier.clone()
                } else {
                    remap(&d.carrier, &prev_map)
                };
                map.push(
                    g.arena
                        .intern(d.color, carrier, d.base_carrier.clone(), d.base_colors),
                );
            }
            for f in local.facets.into_facets() {
                g.facets.push(remap(&f, &map));
            }
            prev_map = map;
        }
    }
    global
}

/// Assembles a builder chain into the final complex, threading each level's
/// parent pointer from `input`.
fn assemble_chain(input: &Complex, builders: Vec<LevelBuilder>, depth: usize) -> Complex {
    let mut parent = input.clone();
    let mut result = None;
    for (i, b) in builders.into_iter().enumerate() {
        let (vertices, key_index) = b.arena.into_parts();
        let structure = Arc::new(Structure {
            n: input.num_processes(),
            level: parent.level() + 1,
            parent: Some(parent.clone()),
            vertices,
            key_index,
        });
        let complex = Complex::assemble(structure, b.facets.into_facets());
        parent = complex.clone();
        if i + 1 == depth {
            result = Some(complex);
        }
    }
    result.expect("depth >= 1")
}

impl Complex {
    /// The standard chromatic subdivision `Chr K` of this complex.
    ///
    /// Every facet is replaced by its chromatic subdivision; shared faces
    /// are glued (vertices deduplicated by `(color, carrier)`), so the
    /// result is a genuine subdivision of `K`.
    ///
    /// # Examples
    ///
    /// ```
    /// use act_topology::Complex;
    ///
    /// let chr2 = Complex::standard(3).chromatic_subdivision().chromatic_subdivision();
    /// assert_eq!(chr2.facet_count(), 13 * 13); // Chr² s for n = 3
    /// assert_eq!(chr2.level(), 2);
    /// ```
    pub fn chromatic_subdivision(&self) -> Complex {
        self.subdivide_patterned(1, |colors| all_recipes(colors, 1))
    }

    /// [`Complex::chromatic_subdivision`] with an explicit worker-thread
    /// count (the default uses [`crate::subdivision_threads`]). The result
    /// is identical for every thread count.
    pub fn chromatic_subdivision_threaded(&self, threads: usize) -> Complex {
        self.subdivide_patterned_threaded(1, |colors| all_recipes(colors, 1), threads)
    }

    /// The `m`-fold iterated standard chromatic subdivision `Chr^m K`.
    pub fn iterated_subdivision(&self, m: usize) -> Complex {
        self.iterated_subdivision_threaded(m, subdivision_threads())
    }

    /// [`Complex::iterated_subdivision`] with an explicit worker-thread
    /// count. The result is identical for every thread count.
    pub fn iterated_subdivision_threaded(&self, m: usize, threads: usize) -> Complex {
        let mut c = self.clone();
        for _ in 0..m {
            c = c.chromatic_subdivision_threaded(threads);
        }
        c
    }

    /// Recipe-driven subdivision: for every facet `σ` of this complex,
    /// generates the facets of `Chr^ℓ σ` whose recipe (relative to `σ`)
    /// appears in `recipes(χ(σ))`, then glues shared faces. `recipes` is
    /// called once per distinct facet color set and may return a `Vec` or
    /// an already shared `Arc<Vec<Recipe>>` (a memoized set is then used
    /// without copying).
    ///
    /// With `recipes = all_recipes(·, 1)` this is `Chr`; with the recipe set
    /// of an affine task `L` it computes one iteration step of `L` applied
    /// to this complex.
    ///
    /// Returns a complex `ℓ` levels deeper. The intermediate levels contain
    /// exactly the simplices generated as carriers along the way.
    ///
    /// # Panics
    ///
    /// Panics if a recipe's ground set does not match the facet's colors or
    /// its length differs from `depth`.
    pub fn subdivide_patterned<F, R>(&self, depth: usize, recipes: F) -> Complex
    where
        F: Fn(ColorSet) -> R,
        R: Into<Arc<Vec<Recipe>>>,
    {
        self.subdivide_patterned_threaded(depth, recipes, subdivision_threads())
    }

    /// [`Complex::subdivide_patterned`] with an explicit worker-thread
    /// count.
    ///
    /// Input facets are fanned out over contiguous chunks, each chunk
    /// builds private interning arenas, and the per-chunk arenas are merged
    /// in chunk order — reproducing the serial first-occurrence order of
    /// every vertex and facet, so the result is byte-identical for every
    /// thread count (`threads = 1` is the serial build).
    pub fn subdivide_patterned_threaded<F, R>(
        &self,
        depth: usize,
        recipes: F,
        threads: usize,
    ) -> Complex
    where
        F: Fn(ColorSet) -> R,
        R: Into<Arc<Vec<Recipe>>>,
    {
        assert!(depth >= 1, "subdivision depth must be at least 1");
        let span = act_obs::span("subdivide.patterned");

        // Recipe sets are computed once per distinct facet color set, up
        // front, so worker threads only read the shared cache (and the
        // closure needs no `Sync` bound).
        let mut recipe_cache: HashMap<ColorSet, Arc<Vec<Recipe>>> = HashMap::new();
        for facet in self.facets() {
            let colors = self.colors(facet);
            assert_eq!(
                colors.len(),
                facet.len(),
                "subdivide_patterned requires a chromatic complex"
            );
            recipe_cache.entry(colors).or_insert_with(|| {
                let set: Arc<Vec<Recipe>> = recipes(colors).into();
                for recipe in set.iter() {
                    assert_eq!(recipe.len(), depth, "recipe depth mismatch");
                }
                set
            });
        }

        let facets = self.facets();
        let threads = threads.clamp(1, facets.len().max(1));
        let builders = if threads <= 1 {
            let mut chain = LevelBuilder::new_chain(depth);
            for facet in facets {
                expand_facet(self, facet, &recipe_cache, &mut chain);
            }
            chain
        } else {
            // Per-chunk telemetry is emitted from the worker threads
            // (sinks are `Sync`); the global `seq` field totally orders
            // the interleaved events.
            let chunk_chains = parallel_map_ranges(facets.len(), threads, |range| {
                let chunk_span = act_obs::span("subdivide.chunk");
                let chunk_start = range.start;
                let chunk_len = range.len();
                let mut chain = LevelBuilder::new_chain(depth);
                for facet in &facets[range] {
                    expand_facet(self, facet, &recipe_cache, &mut chain);
                }
                if act_obs::enabled() {
                    let interned: usize = chain.iter().map(|b| b.arena.len()).sum();
                    chunk_span
                        .finish()
                        .u64("chunk_start", chunk_start as u64)
                        .u64("facets_in", chunk_len as u64)
                        .u64("interned_vertices", interned as u64)
                        .emit();
                }
                chain
            });
            merge_builder_chains(chunk_chains, depth)
        };

        let result = assemble_chain(self, builders, depth);
        if act_obs::enabled() {
            span.finish()
                .u64("depth", depth as u64)
                .u64("threads", threads as u64)
                .u64("facets_in", facets.len() as u64)
                .u64("facets_out", result.facet_count() as u64)
                .u64("interned_vertices", result.num_vertices() as u64)
                .emit();
        }
        result
    }

    /// [`Complex::subdivide_patterned`] with symmetry-orbit sharing: one
    /// representative facet per color-symmetry orbit is expanded directly;
    /// every other orbit member is *transported* — derived from the
    /// representative's recorded expansion by applying the group element,
    /// skipping all view/carrier recomputation.
    ///
    /// The result is byte-identical to [`Complex::subdivide_patterned`]
    /// (same vertex tables, ids, and facet order): transport reproduces the
    /// exact intern sequence of a direct expansion. Facets whose recipes
    /// are not equivariant under the acting group element fall back to
    /// direct expansion, so the method is total. With a trivial symmetry
    /// group this delegates to the threaded direct build.
    ///
    /// Emits a `subdivision.orbit` span with the orbit census and the
    /// transported/direct split.
    pub fn subdivide_patterned_orbit_shared<F, R>(&self, depth: usize, recipes: F) -> Complex
    where
        F: Fn(ColorSet) -> R,
        R: Into<Arc<Vec<Recipe>>>,
    {
        assert!(depth >= 1, "subdivision depth must be at least 1");
        let group = symmetry_group_inferred(self);
        if group.order() <= 1 {
            return self.subdivide_patterned_threaded(depth, recipes, subdivision_threads());
        }
        let span = act_obs::span("subdivision.orbit");

        let mut recipe_cache: HashMap<ColorSet, Arc<Vec<Recipe>>> = HashMap::new();
        for facet in self.facets() {
            let colors = self.colors(facet);
            assert_eq!(
                colors.len(),
                facet.len(),
                "subdivide_patterned requires a chromatic complex"
            );
            recipe_cache.entry(colors).or_insert_with(|| {
                let set: Arc<Vec<Recipe>> = recipes(colors).into();
                for recipe in set.iter() {
                    assert_eq!(recipe.len(), depth, "recipe depth mismatch");
                }
                set
            });
        }

        let orbits = group.orbits_of_facets();
        let facets = self.facets();
        let mut assignment: Vec<(usize, usize)> = vec![(0, 0); facets.len()];
        for (oi, orbit) in orbits.iter().enumerate() {
            for &(fi, gi) in &orbit.members {
                assignment[fi] = (oi, gi);
            }
        }
        let mut records: Vec<Option<(RecordedExpansion, HashMap<Recipe, usize>)>> =
            (0..orbits.len()).map(|_| None).collect();
        // Recipe resolution depends only on the (orbit, group element)
        // pair, so it is cached across an orbit's members instead of
        // re-permuting and re-hashing every recipe per member.
        let mut resolved: HashMap<(usize, usize), Option<Vec<usize>>> = HashMap::new();
        // Per-element image tables (`images[gi][round][rep_id]`), shared
        // across every orbit: the intern arena is content-addressed, so an
        // issued id's image under a fixed group element never changes.
        let mut images: Vec<Vec<Vec<VertexId>>> = vec![vec![Vec::new(); depth]; group.order()];
        let mut builders = LevelBuilder::new_chain(depth);
        let mut transported = 0u64;
        let mut expanded = 0u64;
        for (fi, facet) in facets.iter().enumerate() {
            let (oi, gi) = assignment[fi];
            let recipe_set = &recipe_cache[&self.colors(facet)];
            if fi == orbits[oi].representative {
                let record = expand_facet_recorded(self, facet, recipe_set, &mut builders);
                let index: HashMap<Recipe, usize> = recipe_set
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (r.clone(), i))
                    .collect();
                records[oi] = Some((record, index));
                expanded += 1;
            } else {
                let (record, index) = records[oi]
                    .as_ref()
                    .expect("orbit representatives have the smallest facet index");
                let rep_indices = resolved
                    .entry((oi, gi))
                    .or_insert_with(|| resolve_rep_indices(recipe_set, index, group.element(gi)));
                match rep_indices {
                    Some(rep_indices) => {
                        transport_facet(
                            self,
                            facet,
                            rep_indices,
                            record,
                            group.element(gi),
                            &mut images[gi],
                            &mut builders,
                        );
                        transported += 1;
                    }
                    None => {
                        expand_facet(self, facet, &recipe_cache, &mut builders);
                        expanded += 1;
                    }
                }
            }
        }
        let result = assemble_chain(self, builders, depth);
        if act_obs::enabled() {
            span.finish()
                .u64("depth", depth as u64)
                .u64("orbits", orbits.len() as u64)
                .u64("group_order", group.order() as u64)
                .u64("facets_in", facets.len() as u64)
                .u64("facets_out", result.facet_count() as u64)
                .u64("transported", transported)
                .u64("expanded_direct", expanded)
                .emit();
        }
        result
    }

    /// The quotiented standard chromatic subdivision: computes the orbit
    /// census of this complex's facets under its color-symmetry group and
    /// expands only one representative per orbit.
    ///
    /// The returned [`QuotientedSubdivision`] holds the partial subdivision
    /// of the representatives (a genuine sub-complex of `Chr K`, with this
    /// complex as parent so carrier/star lookups against the full level
    /// work) together with the orbits; full materialization is opt-in via
    /// [`QuotientedSubdivision::expand`]. The full facet count is available
    /// without expansion as Σ orbit_size × representative-expansion size.
    pub fn chromatic_subdivision_quotiented(&self) -> QuotientedSubdivision {
        let span = act_obs::span("subdivision.orbit");
        let group = symmetry_group(self, LabelMatching::Blind);
        let orbits = group.orbits_of_facets();
        let mut recipe_cache: HashMap<ColorSet, Arc<Vec<Recipe>>> = HashMap::new();
        let mut builders = LevelBuilder::new_chain(1);
        let mut rep_ranges = Vec::with_capacity(orbits.len());
        for orbit in &orbits {
            let facet = &self.facets()[orbit.representative];
            let colors = self.colors(facet);
            assert_eq!(colors.len(), facet.len(), "requires a chromatic complex");
            let recipe_set = recipe_cache
                .entry(colors)
                .or_insert_with(|| Arc::new(all_recipes(colors, 1)));
            let start = builders[0].facets.len();
            let _ = expand_facet_recorded(self, facet, recipe_set, &mut builders);
            rep_ranges.push(start..builders[0].facets.len());
        }
        let representatives = assemble_chain(self, builders, 1);
        if act_obs::enabled() {
            span.finish()
                .u64("depth", 1)
                .u64("orbits", orbits.len() as u64)
                .u64("group_order", group.order() as u64)
                .u64("facets_in", self.facet_count() as u64)
                .u64("facets_out", representatives.facet_count() as u64)
                .u64("transported", 0)
                .u64("expanded_direct", orbits.len() as u64)
                .emit();
        }
        QuotientedSubdivision {
            input: self.clone(),
            group,
            orbits,
            representatives,
            rep_ranges,
        }
    }

    /// Resolves the simplex of this complex described by a recipe relative
    /// to a base facet: round `i` of `recipe` is the ordered set partition
    /// of some color set `C ⊆ χ(base_facet)` describing the `i`-th
    /// immediate snapshot.
    ///
    /// Returns `None` if some described vertex does not exist at the
    /// corresponding level (possible when this complex was built by a
    /// patterned subdivision that never generated it).
    ///
    /// # Panics
    ///
    /// Panics if `recipe`'s length differs from this complex's level, if
    /// the rounds use different ground sets, or if the ground set is not a
    /// subset of the base facet's colors.
    pub fn simplex_for_recipe(&self, base_facet: &Simplex, recipe: &[Osp]) -> Option<Simplex> {
        assert_eq!(
            recipe.len(),
            self.level(),
            "recipe length must equal the level"
        );
        // Collect the level chain: base, level 1, ..., self.
        let mut chain: Vec<Complex> = Vec::with_capacity(self.level() + 1);
        let mut c = self.clone();
        loop {
            chain.push(c.clone());
            match c.parent() {
                Some(p) => c = p.clone(),
                None => break,
            }
        }
        chain.reverse();
        let base = &chain[0];
        let ground = recipe
            .first()
            .map(|o| o.ground())
            .unwrap_or(ColorSet::EMPTY);
        assert!(
            ground.is_subset_of(base.colors(base_facet)),
            "recipe ground set must be contained in the base facet's colors"
        );
        // current: color -> vertex id at the current level.
        let mut current: Vec<(ProcessId, crate::simplex::VertexId)> = base_facet
            .vertices()
            .iter()
            .filter(|&&v| ground.contains(base.color(v)))
            .map(|&v| (base.color(v), v))
            .collect();
        for (round, osp) in recipe.iter().enumerate() {
            assert_eq!(
                osp.ground(),
                ground,
                "recipe rounds use inconsistent ground sets"
            );
            let level = &chain[round + 1];
            let mut next = Vec::with_capacity(current.len());
            for &(color, _) in &current {
                let view = osp.view_of(color).expect("ground covers every color");
                let carrier = Simplex::from_vertices(
                    current
                        .iter()
                        .filter(|(c2, _)| view.contains(*c2))
                        .map(|&(_, v)| v),
                );
                let v = level.find_vertex(color, &carrier)?;
                next.push((color, v));
            }
            current = next;
        }
        Some(Simplex::from_vertices(current.into_iter().map(|(_, v)| v)))
    }

    /// Recovers the recipe round of a facet of this (subdivision) complex:
    /// the ordered set partition of the facet's colors describing it
    /// relative to its carrier in the parent level.
    ///
    /// # Panics
    ///
    /// Panics if called on a level-0 complex or a non-facet simplex whose
    /// carriers do not nest properly.
    pub fn osp_of_facet(&self, facet: &Simplex) -> Osp {
        assert!(
            self.level() > 0,
            "level-0 complexes have no subdivision recipe"
        );
        // Group colors by carrier, ordered by carrier size (carriers of a
        // Chr facet are totally ordered by containment).
        let mut by_carrier: Vec<(usize, ColorSet)> = Vec::new();
        let mut groups: HashMap<Simplex, ColorSet> = HashMap::new();
        for &v in facet.vertices() {
            let d = self.vertex(v);
            groups
                .entry(d.carrier.clone())
                .and_modify(|cs| *cs = cs.with(d.color))
                .or_insert_with(|| ColorSet::singleton(d.color));
        }
        for (carrier, cs) in groups {
            by_carrier.push((carrier.len(), cs));
        }
        by_carrier.sort_by_key(|&(len, _)| len);
        Osp::new(by_carrier.into_iter().map(|(_, cs)| cs).collect())
            .expect("facet carriers induce a valid ordered set partition")
    }

    /// Recovers the full depth-`ℓ` recipe of a facet of `Chr^ℓ` relative to
    /// its carrier facet `ℓ` levels up: element `i` is the OSP of round
    /// `i + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds this complex's level.
    pub fn recipe_of_facet(&self, facet: &Simplex, depth: usize) -> Recipe {
        assert!(
            depth <= self.level(),
            "recipe depth exceeds subdivision level"
        );
        let mut rounds = Vec::with_capacity(depth);
        let mut complex = self.clone();
        let mut current = facet.clone();
        for _ in 0..depth {
            rounds.push(complex.osp_of_facet(&current));
            let parent = complex.parent().expect("level checked above").clone();
            current = complex.carrier_in_parent(&current);
            complex = parent;
        }
        rounds.reverse();
        rounds
    }
}

/// The result of [`Complex::chromatic_subdivision_quotiented`]: one
/// expanded representative per facet orbit, with the orbit census needed to
/// account for (or lazily regenerate) the rest of `Chr K`.
pub struct QuotientedSubdivision {
    input: Complex,
    group: SymmetryGroup,
    orbits: Vec<FacetOrbit>,
    representatives: Complex,
    rep_ranges: Vec<std::ops::Range<usize>>,
}

/// One orbit's view of the quotiented subdivision: the census entry plus
/// the representative's expansion facets (simplices of
/// [`QuotientedSubdivision::representatives`]).
pub struct OrbitExpansion<'a> {
    /// The orbit census entry (representative index, members, sizes).
    pub orbit: &'a FacetOrbit,
    /// The facets of the representative's chromatic subdivision.
    pub rep_facets: &'a [Simplex],
}

impl QuotientedSubdivision {
    /// The subdivided input complex.
    pub fn input(&self) -> &Complex {
        &self.input
    }

    /// The color-symmetry group the quotient was taken under.
    pub fn group(&self) -> &SymmetryGroup {
        &self.group
    }

    /// The facet orbits of the input complex.
    pub fn orbits(&self) -> &[FacetOrbit] {
        &self.orbits
    }

    /// The partial subdivision containing the representatives' expansions.
    /// Its parent is the *full* input level, so carrier and star lookups
    /// against the ambient complex work unchanged.
    pub fn representatives(&self) -> &Complex {
        &self.representatives
    }

    /// The expansion facets of orbit `i`'s representative.
    pub fn rep_facets(&self, i: usize) -> &[Simplex] {
        &self.representatives.facets()[self.rep_ranges[i].clone()]
    }

    /// Lazy per-orbit iteration: each item pairs an orbit census entry with
    /// its representative's expansion facets. Full materialization stays
    /// opt-in ([`QuotientedSubdivision::expand`]).
    pub fn orbit_expansions(&self) -> impl Iterator<Item = OrbitExpansion<'_>> {
        self.orbits
            .iter()
            .enumerate()
            .map(|(i, orbit)| OrbitExpansion {
                orbit,
                rep_facets: self.rep_facets(i),
            })
    }

    /// The facet count of the full subdivision, from the census alone:
    /// Σ orbit_size × representative-expansion size.
    pub fn total_facet_count(&self) -> usize {
        self.orbits
            .iter()
            .zip(&self.rep_ranges)
            .map(|(o, r)| o.orbit_size() * r.len())
            .sum()
    }

    /// Materializes the full subdivision `Chr K`, byte-identical to
    /// [`Complex::chromatic_subdivision`].
    pub fn expand(&self) -> Complex {
        self.input
            .subdivide_patterned_orbit_shared(1, |colors| all_recipes(colors, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osp::fubini;

    #[test]
    fn chr_facet_counts_match_fubini() {
        for n in 1..=4 {
            let chr = Complex::standard(n).chromatic_subdivision();
            assert_eq!(chr.facet_count() as u64, fubini(n), "n = {n}");
            assert!(chr.is_pure());
            assert!(chr.is_chromatic());
            assert_eq!(chr.dim(), n as isize - 1);
        }
    }

    #[test]
    fn chr_of_triangle_is_figure_1a() {
        // Figure 1a: 13 triangles, 12 vertices, 24 edges.
        let chr = Complex::standard(3).chromatic_subdivision();
        assert_eq!(chr.f_vector(), vec![12, 24, 13]);
    }

    #[test]
    fn chr2_facet_count_is_fubini_squared() {
        let chr2 = Complex::standard(3).iterated_subdivision(2);
        assert_eq!(chr2.facet_count(), 169);
        assert_eq!(chr2.level(), 2);
        assert!(chr2.is_pure());
        assert!(chr2.is_chromatic());
    }

    #[test]
    fn chr_vertices_have_consistent_carriers() {
        let s = Complex::standard(3);
        let chr = s.chromatic_subdivision();
        for facet in chr.facets() {
            // Carriers of a facet are totally ordered by inclusion
            // (containment property) and satisfy immediacy.
            for &v in facet.vertices() {
                let d = chr.vertex(v);
                assert!(
                    d.base_colors.contains(d.color),
                    "self-inclusion: a process sees itself"
                );
                for &w in facet.vertices() {
                    let dw = chr.vertex(w);
                    assert!(
                        d.carrier.is_face_of(&dw.carrier) || dw.carrier.is_face_of(&d.carrier),
                        "containment"
                    );
                    if dw.base_colors.contains(d.color) {
                        assert!(d.carrier.is_face_of(&dw.carrier), "immediacy");
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_faces_are_shared() {
        // Chr glues subdivided facets along shared faces: Chr of the
        // boundary edge between two triangles appears once.
        let verts = vec![
            (ProcessId::new(0), 0),
            (ProcessId::new(1), 0),
            (ProcessId::new(2), 0),
            (ProcessId::new(2), 1),
        ];
        // Two triangles sharing the {p1, p2} edge.
        let c = Complex::from_labeled_vertices(3, verts, vec![vec![0, 1, 2], vec![0, 1, 3]]);
        let chr = c.chromatic_subdivision();
        assert_eq!(chr.facet_count(), 26);
        // Vertices: 12 per triangle, minus the 4 vertices of the
        // subdivided common edge counted twice.
        assert_eq!(chr.num_vertices(), 20);
    }

    #[test]
    fn osp_roundtrip() {
        let chr = Complex::standard(3).chromatic_subdivision();
        let mut seen = std::collections::BTreeSet::new();
        for facet in chr.facets() {
            let osp = chr.osp_of_facet(facet);
            assert_eq!(osp.ground(), ColorSet::full(3));
            seen.insert(osp);
        }
        assert_eq!(seen.len(), 13, "all 13 OSPs are realized exactly once");
    }

    #[test]
    fn recipe_of_facet_roundtrip() {
        let chr2 = Complex::standard(3).iterated_subdivision(2);
        let mut seen = std::collections::BTreeSet::new();
        for facet in chr2.facets() {
            let recipe = chr2.recipe_of_facet(facet, 2);
            assert_eq!(recipe.len(), 2);
            seen.insert(recipe);
        }
        assert_eq!(seen.len(), 169, "recipes identify facets uniquely");
    }

    #[test]
    fn subdivide_patterned_with_single_recipe() {
        // Only the synchronous run: one facet per facet of the input.
        let s = Complex::standard(3);
        let sub = s.subdivide_patterned(1, |colors| vec![vec![Osp::synchronous(colors)]]);
        assert_eq!(sub.facet_count(), 1);
        // The synchronous facet is the "central" simplex: every vertex has
        // full base colors.
        let f = &sub.facets()[0];
        for &v in f.vertices() {
            assert_eq!(sub.base_colors_of_vertex(v), ColorSet::full(3));
        }
    }

    #[test]
    fn patterned_depth_two_equals_two_single_steps() {
        let s = Complex::standard(2);
        let a = s.subdivide_patterned(2, |c| all_recipes(c, 2));
        let b = s.iterated_subdivision(2);
        assert_eq!(a.facet_count(), b.facet_count());
        assert!(a.same_complex(&b));
    }

    #[test]
    fn simplex_for_recipe_roundtrip() {
        let chr2 = Complex::standard(3).iterated_subdivision(2);
        let base_facet = Complex::standard(3).facets()[0].clone();
        for facet in chr2.facets() {
            let recipe = chr2.recipe_of_facet(facet, 2);
            let resolved = chr2.simplex_for_recipe(&base_facet, &recipe).unwrap();
            assert_eq!(&resolved, facet);
        }
    }

    #[test]
    fn simplex_for_recipe_partial_participation() {
        let chr = Complex::standard(3).chromatic_subdivision();
        let base_facet = Complex::standard(3).facets()[0].clone();
        let pair = ColorSet::from_indices([0, 2]);
        let run = vec![Osp::sequential(pair)];
        let sx = chr.simplex_for_recipe(&base_facet, &run).unwrap();
        assert_eq!(sx.len(), 2);
        assert_eq!(chr.colors(&sx), pair);
        assert!(chr.contains_simplex(&sx));
        // p1 ran first: its vertex saw only itself.
        for &v in sx.vertices() {
            let seen = chr.base_colors_of_vertex(v);
            if chr.color(v).index() == 0 {
                assert_eq!(seen, ColorSet::from_indices([0]));
            } else {
                assert_eq!(seen, pair);
            }
        }
    }

    #[test]
    fn all_recipes_counts() {
        let g = ColorSet::full(3);
        assert_eq!(all_recipes(g, 1).len(), 13);
        assert_eq!(all_recipes(g, 2).len(), 169);
    }

    #[test]
    fn parallel_subdivision_is_byte_identical_to_serial() {
        // The deterministic merge reproduces the serial build exactly —
        // same vertex tables, same ids, same facet order — for every
        // thread count. `==` compares the interned tables structurally.
        let inputs = [
            Complex::standard(3).chromatic_subdivision(),
            Complex::standard(4).chromatic_subdivision(),
        ];
        for input in &inputs {
            let serial = input.chromatic_subdivision_threaded(1);
            for threads in [2, 3, 5, 8] {
                let parallel = input.chromatic_subdivision_threaded(threads);
                assert_eq!(serial, parallel, "threads = {threads}");
                assert_eq!(serial.facets(), parallel.facets());
            }
        }
    }

    #[test]
    fn parallel_patterned_depth_two_is_byte_identical_to_serial() {
        let s = Complex::standard(3).chromatic_subdivision();
        let serial = s.subdivide_patterned_threaded(2, |c| all_recipes(c, 2), 1);
        let parallel = s.subdivide_patterned_threaded(2, |c| all_recipes(c, 2), 4);
        assert_eq!(serial, parallel);
        // Intermediate levels are merged identically too.
        assert_eq!(serial.parent().unwrap(), parallel.parent().unwrap());
    }

    #[test]
    fn orbit_shared_subdivision_is_byte_identical_to_direct() {
        // Transport reproduces the exact intern sequence, so `==` (which
        // compares vertex tables, ids, and facet lists) holds — the
        // load-bearing invariant for towers, hashes, and persistence.
        let inputs = [
            Complex::standard(3).chromatic_subdivision(),
            Complex::standard(4).chromatic_subdivision(),
            Complex::standard(3).iterated_subdivision(2),
        ];
        for input in &inputs {
            let direct = input.chromatic_subdivision_threaded(1);
            let shared = input.subdivide_patterned_orbit_shared(1, |c| all_recipes(c, 1));
            assert_eq!(direct, shared);
            assert_eq!(direct.facets(), shared.facets());
        }
    }

    #[test]
    fn orbit_shared_depth_two_matches_direct() {
        let s = Complex::standard(3).chromatic_subdivision();
        let direct = s.subdivide_patterned_threaded(2, |c| all_recipes(c, 2), 1);
        let shared = s.subdivide_patterned_orbit_shared(2, |c| all_recipes(c, 2));
        assert_eq!(direct, shared);
        assert_eq!(direct.parent().unwrap(), shared.parent().unwrap());
    }

    #[test]
    fn orbit_shared_on_labeled_rainbow_base() {
        // Rainbow input labels break strict symmetry; the label-blind
        // action still shares expansions, and the result is identical.
        let verts = vec![
            (ProcessId::new(0), 7),
            (ProcessId::new(1), 8),
            (ProcessId::new(2), 9),
        ];
        let base = Complex::from_labeled_vertices(3, verts, vec![vec![0, 1, 2]]);
        let chr = base.chromatic_subdivision();
        let direct = chr.subdivide_patterned_threaded(2, |c| all_recipes(c, 2), 1);
        let shared = chr.subdivide_patterned_orbit_shared(2, |c| all_recipes(c, 2));
        assert_eq!(direct, shared);
    }

    #[test]
    fn quotiented_census_accounts_for_every_facet() {
        for n in 2..=4 {
            let s = Complex::standard(n);
            let q = s.chromatic_subdivision_quotiented();
            assert_eq!(q.total_facet_count() as u64, fubini(n), "n = {n}");
            let chr1 = s.chromatic_subdivision();
            let q2 = chr1.chromatic_subdivision_quotiented();
            assert_eq!(
                q2.total_facet_count(),
                chr1.chromatic_subdivision().facet_count(),
                "Chr² census, n = {n}"
            );
            // The representatives complex is a genuine partial subdivision
            // sharing the full input level as parent.
            assert_eq!(q2.representatives().parent().unwrap(), &chr1);
            let lazy: usize = q2
                .orbit_expansions()
                .map(|e| e.orbit.orbit_size() * e.rep_facets.len())
                .sum();
            assert_eq!(lazy, q2.total_facet_count());
        }
    }

    #[test]
    fn quotient_then_expand_equals_direct() {
        let s = Complex::standard(3);
        let q = s.chromatic_subdivision_quotiented();
        assert_eq!(q.expand(), s.chromatic_subdivision());
    }

    #[test]
    fn carrier_in_base_tracks_participation() {
        let chr2 = Complex::standard(3).iterated_subdivision(2);
        for facet in chr2.facets() {
            // A full facet's carrier is the whole base simplex.
            assert_eq!(chr2.carrier_colors(facet), ColorSet::full(3));
        }
    }
}
