//! Color symmetry: the `S_n` action on chromatic complexes, orbit censuses,
//! and canonical forms.
//!
//! Every structure of the paper — `Chr^m s`, the fair restrictions `R_A`,
//! map-search constraint tables — is equivariant under permutations of the
//! process colors. This module makes that symmetry first-class:
//!
//! * [`ColorPerm`] — an element of `S_n` acting on [`ProcessId`]s,
//!   [`ColorSet`]s, [`Osp`]s and recipes;
//! * [`chain_action`] — lifts a color permutation to a vertex bijection on
//!   every level of a subdivision chain (checking equivariance of carriers
//!   and base data), the combinatorial form of the induced simplicial
//!   automorphism;
//! * [`SymmetryGroup`] / [`SymmetryGroup::orbits_of_facets`] — the subgroup
//!   of color permutations that preserve a complex, and the partition of
//!   its facets into orbits (one representative + orbit/stabilizer sizes
//!   per class);
//! * [`permute_complex`] / [`canonical_complex`] — the relabeled complex
//!   `π · K` and the minimal image of `K` under `S_n`, used to key caches
//!   by symmetry class so color-permuted queries share one entry.
//!
//! Orbit counts are drastically smaller than facet counts: the facets of
//! `Chr s` are the ordered set partitions of `n` colors (Fubini numbers:
//! 13, 75, 541 for n = 3, 4, 5) while their `S_n`-orbits are the
//! *compositions* of `n` (4, 8, 16) — the quotient is what makes n = 5
//! structures tractable.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Mutex;

use crate::color::{ColorSet, ProcessId};
use crate::complex::{Complex, Structure, VertexData};
use crate::maps::VertexMap;
use crate::osp::Osp;
use crate::simplex::{Simplex, VertexId};
use crate::subdivision::Recipe;
use std::sync::Arc;

/// Largest process count for which the full symmetric group is enumerated
/// (`8! = 40320`); beyond it, symmetry machinery degrades to the trivial
/// group rather than blowing up.
pub const SYMMETRY_MAX_DEGREE: usize = 8;

/// A permutation of the process colors `{0, …, n-1}`: an element of `S_n`
/// acting on [`ProcessId`]s and everything built from them.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ColorPerm {
    /// `images[i]` is the image of color `i`.
    images: Vec<u32>,
}

impl ColorPerm {
    /// The identity permutation on `n` colors.
    pub fn identity(n: usize) -> ColorPerm {
        ColorPerm {
            images: (0..n as u32).collect(),
        }
    }

    /// Builds a permutation from its image vector (`images[i]` = image of
    /// color `i`). Returns `None` if the vector is not a bijection.
    pub fn from_images(images: &[usize]) -> Option<ColorPerm> {
        let n = images.len();
        let mut seen = vec![false; n];
        for &img in images {
            if img >= n || seen[img] {
                return None;
            }
            seen[img] = true;
        }
        Some(ColorPerm {
            images: images.iter().map(|&i| i as u32).collect(),
        })
    }

    /// The number of colors acted on.
    pub fn degree(&self) -> usize {
        self.images.len()
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.images
            .iter()
            .enumerate()
            .all(|(i, &img)| i as u32 == img)
    }

    /// The image `π(p)` of a color.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the permutation's degree.
    pub fn apply(&self, p: ProcessId) -> ProcessId {
        ProcessId::new(self.images[p.index()] as usize)
    }

    /// The image of a color set, element-wise.
    pub fn apply_colors(&self, cs: ColorSet) -> ColorSet {
        cs.iter().map(|p| self.apply(p)).collect()
    }

    /// The image of an ordered set partition, block-wise (block order is
    /// preserved; a permutation maps OSPs to OSPs).
    pub fn apply_osp(&self, osp: &Osp) -> Osp {
        Osp::new(osp.blocks().iter().map(|&b| self.apply_colors(b)).collect())
            .expect("a color permutation maps valid OSPs to valid OSPs")
    }

    /// The image of a subdivision recipe, round-wise.
    pub fn apply_recipe(&self, recipe: &Recipe) -> Recipe {
        recipe.iter().map(|o| self.apply_osp(o)).collect()
    }

    /// The composition `self ∘ other` (apply `other` first).
    pub fn compose(&self, other: &ColorPerm) -> ColorPerm {
        assert_eq!(self.degree(), other.degree(), "degree mismatch");
        ColorPerm {
            images: other
                .images
                .iter()
                .map(|&mid| self.images[mid as usize])
                .collect(),
        }
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> ColorPerm {
        let mut inv = vec![0u32; self.images.len()];
        for (i, &img) in self.images.iter().enumerate() {
            inv[img as usize] = i as u32;
        }
        ColorPerm { images: inv }
    }

    /// All `n!` permutations of `n` colors, in lexicographic order of their
    /// image vectors (the identity first). Deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`SYMMETRY_MAX_DEGREE`].
    pub fn all(n: usize) -> Vec<ColorPerm> {
        assert!(
            n <= SYMMETRY_MAX_DEGREE,
            "refusing to enumerate S_{n} (> S_{SYMMETRY_MAX_DEGREE})"
        );
        let mut out = Vec::new();
        let mut images: Vec<u32> = Vec::with_capacity(n);
        let mut used = vec![false; n];
        fn rec(n: usize, images: &mut Vec<u32>, used: &mut [bool], out: &mut Vec<ColorPerm>) {
            if images.len() == n {
                out.push(ColorPerm {
                    images: images.clone(),
                });
                return;
            }
            for i in 0..n {
                if !used[i] {
                    used[i] = true;
                    images.push(i as u32);
                    rec(n, images, used, out);
                    images.pop();
                    used[i] = false;
                }
            }
        }
        rec(n, &mut images, &mut used, &mut out);
        out
    }
}

impl fmt::Debug for ColorPerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ColorPerm(")?;
        for (i, img) in self.images.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{i}→{img}")?;
        }
        write!(f, ")")
    }
}

/// How base-level labels are matched when lifting a color permutation to a
/// vertex bijection (see [`chain_action`]).
#[derive(Clone, Copy, Debug)]
pub enum LabelMatching<'a> {
    /// A base vertex `(c, l)` must map to `(π(c), l)`: genuine
    /// automorphisms of the labeled complex.
    Strict,
    /// Labels are ignored where unambiguous: `(c, l)` maps to the unique
    /// vertex of color `π(c)` when both color classes are singletons,
    /// falling back to exact label match otherwise. This is the right
    /// notion for *transport*: rainbow-labeled inputs (process `i` holds
    /// value `i`) are not strictly symmetric, but their subdivision
    /// structure is.
    Blind,
    /// A base vertex `(c, l)` maps to `(π(c), m[l])` for the given label
    /// map: diagonal (color, value) symmetries of tasks.
    Relabeled(&'a HashMap<u64, u64>),
}

/// A color permutation lifted to a vertex bijection on every level of a
/// subdivision chain: the combinatorial form of the induced simplicial
/// automorphism. Built by [`chain_action`]; level 0 is the base.
#[derive(Clone, Debug)]
pub struct ChainAction {
    perm: ColorPerm,
    /// `levels[l][v]` is the image of vertex `v` of level `l` (base-first).
    levels: Vec<Vec<VertexId>>,
}

impl ChainAction {
    /// The underlying color permutation.
    pub fn perm(&self) -> &ColorPerm {
        &self.perm
    }

    /// Number of levels covered (chain length, base included).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The vertex map of level `l` (base-first), as a dense table.
    pub fn level_map(&self, level: usize) -> &[VertexId] {
        &self.levels[level]
    }

    /// The image of a vertex at level `l`.
    pub fn apply_vertex(&self, level: usize, v: VertexId) -> VertexId {
        self.levels[level][v.index()]
    }

    /// The image of a simplex at level `l`.
    pub fn apply_simplex(&self, level: usize, s: &Simplex) -> Simplex {
        Simplex::from_vertices(s.vertices().iter().map(|&v| self.levels[level][v.index()]))
    }

    /// The inverse action (inverse permutation, inverted level maps).
    pub fn inverse(&self) -> ChainAction {
        let levels = self
            .levels
            .iter()
            .map(|map| {
                let mut inv = vec![VertexId::from_index(0); map.len()];
                for (i, &img) in map.iter().enumerate() {
                    inv[img.index()] = VertexId::from_index(i);
                }
                inv
            })
            .collect();
        ChainAction {
            perm: self.perm.inverse(),
            levels,
        }
    }

    /// Whether the action maps the facet set of `complex` (a sub-complex of
    /// the chain's top level) onto itself — i.e. whether it restricts to an
    /// automorphism of `complex` and not just of the ambient level.
    pub fn preserves_facets(&self, complex: &Complex) -> bool {
        let level = complex.level();
        let set: HashSet<&Simplex> = complex.facets().iter().collect();
        complex
            .facets()
            .iter()
            .all(|f| set.contains(&self.apply_simplex(level, f)))
    }
}

/// Lifts a color permutation to a vertex bijection on every level of a
/// subdivision chain, verifying equivariance as it goes.
///
/// Base vertices are matched per [`LabelMatching`]; a level-`l ≥ 1` vertex
/// `(c, carrier)` maps to the interned vertex `(π(c), action(carrier))`,
/// which must exist and carry equivariant base data. Returns `None` when
/// the permutation does not act on the chain (missing image vertex,
/// ambiguous label match, base data mismatch, or a non-bijective level
/// map) — callers then simply don't share work across that permutation.
pub fn chain_action(
    complex: &Complex,
    perm: &ColorPerm,
    matching: LabelMatching<'_>,
) -> Option<ChainAction> {
    if perm.degree() != complex.num_processes() {
        return None;
    }
    // Collect the chain base-first.
    let mut chain: Vec<&Complex> = Vec::with_capacity(complex.level() + 1);
    let mut c = complex;
    loop {
        chain.push(c);
        match c.parent() {
            Some(p) => c = p,
            None => break,
        }
    }
    chain.reverse();

    let mut levels: Vec<Vec<VertexId>> = Vec::with_capacity(chain.len());

    // Base level: match vertices by (color, label) per the matching mode.
    let base = chain[0];
    let mut by_color: HashMap<ProcessId, Vec<VertexId>> = HashMap::new();
    for i in 0..base.num_vertices() {
        let v = VertexId::from_index(i);
        by_color.entry(base.color(v)).or_default().push(v);
    }
    let mut base_map: Vec<VertexId> = Vec::with_capacity(base.num_vertices());
    for i in 0..base.num_vertices() {
        let d = base.vertex(VertexId::from_index(i));
        let target_color = perm.apply(d.color);
        let candidates = by_color.get(&target_color)?;
        let source_class_len = by_color.get(&d.color).map_or(0, Vec::len);
        let image = match matching {
            LabelMatching::Blind if candidates.len() == 1 && source_class_len == 1 => candidates[0],
            LabelMatching::Relabeled(map) => {
                let target_label = *map.get(&d.label)?;
                unique_with_label(base, candidates, target_label)?
            }
            // Strict, or Blind with an ambiguous color class.
            _ => unique_with_label(base, candidates, d.label)?,
        };
        base_map.push(image);
    }
    if !is_bijection(&base_map) {
        return None;
    }
    levels.push(base_map);

    // Subdivision levels: follow carriers, verify base data equivariance.
    for level_idx in 1..chain.len() {
        let level = chain[level_idx];
        let prev_map = &levels[level_idx - 1];
        let base_map = &levels[0];
        let mut map: Vec<VertexId> = Vec::with_capacity(level.num_vertices());
        for i in 0..level.num_vertices() {
            let d = level.vertex(VertexId::from_index(i));
            let mapped_carrier =
                Simplex::from_vertices(d.carrier.vertices().iter().map(|&v| prev_map[v.index()]));
            let image = level.find_vertex(perm.apply(d.color), &mapped_carrier)?;
            let id = level.vertex(image);
            let mapped_base = Simplex::from_vertices(
                d.base_carrier
                    .vertices()
                    .iter()
                    .map(|&v| base_map[v.index()]),
            );
            if id.base_carrier != mapped_base || id.base_colors != perm.apply_colors(d.base_colors)
            {
                return None;
            }
            map.push(image);
        }
        if !is_bijection(&map) {
            return None;
        }
        levels.push(map);
    }

    Some(ChainAction {
        perm: perm.clone(),
        levels,
    })
}

fn unique_with_label(base: &Complex, candidates: &[VertexId], label: u64) -> Option<VertexId> {
    let mut found = None;
    for &v in candidates {
        if base.vertex(v).label == label {
            if found.is_some() {
                return None; // ambiguous
            }
            found = Some(v);
        }
    }
    found
}

fn is_bijection(map: &[VertexId]) -> bool {
    let mut seen = vec![false; map.len()];
    for v in map {
        if v.index() >= map.len() || seen[v.index()] {
            return false;
        }
        seen[v.index()] = true;
    }
    true
}

/// One orbit of a complex's facets under a [`SymmetryGroup`].
#[derive(Clone, Debug)]
pub struct FacetOrbit {
    /// Index (into `facets()`) of the orbit representative — the smallest
    /// member, so representatives are stable across runs.
    pub representative: usize,
    /// All members as `(facet index, group element index)` pairs, where
    /// element `g` maps the representative onto the member. The
    /// representative itself appears with the identity element.
    pub members: Vec<(usize, usize)>,
    /// Order of the representative's stabilizer subgroup
    /// (`orbit_size × stabilizer_size = group order`).
    pub stabilizer_size: usize,
}

impl FacetOrbit {
    /// Number of facets in the orbit.
    pub fn orbit_size(&self) -> usize {
        self.members.len()
    }
}

/// The subgroup of `S_n` acting on a complex: every color permutation that
/// lifts to a vertex bijection of the chain ([`chain_action`]) *and* maps
/// the complex's facet set onto itself. The identity is always element 0.
pub struct SymmetryGroup {
    complex: Complex,
    elements: Vec<ChainAction>,
    canon_cache: Mutex<HashMap<Simplex, Simplex>>,
}

impl SymmetryGroup {
    /// The order of the group (≥ 1; the identity always acts).
    pub fn order(&self) -> usize {
        self.elements.len()
    }

    /// The group elements (identity first).
    pub fn elements(&self) -> &[ChainAction] {
        &self.elements
    }

    /// A specific element.
    pub fn element(&self, i: usize) -> &ChainAction {
        &self.elements[i]
    }

    /// The complex acted on.
    pub fn complex(&self) -> &Complex {
        &self.complex
    }

    /// Partitions the complex's facets into orbits. Each orbit records its
    /// representative (smallest facet index), all members with a group
    /// element mapping the representative onto them, and the stabilizer
    /// size. Orbit sizes sum to the facet count; for each orbit,
    /// `orbit_size × stabilizer_size` equals the group order.
    pub fn orbits_of_facets(&self) -> Vec<FacetOrbit> {
        let level = self.complex.level();
        let facets = self.complex.facets();
        let index_of: HashMap<&Simplex, usize> =
            facets.iter().enumerate().map(|(i, f)| (f, i)).collect();
        let mut assigned = vec![false; facets.len()];
        let mut orbits = Vec::new();
        for rep in 0..facets.len() {
            if assigned[rep] {
                continue;
            }
            let mut members: Vec<(usize, usize)> = Vec::new();
            let mut member_set: HashSet<usize> = HashSet::new();
            let mut stabilizer = 0usize;
            for (gi, g) in self.elements.iter().enumerate() {
                let image = g.apply_simplex(level, &facets[rep]);
                let idx = *index_of
                    .get(&image)
                    .expect("group elements preserve the facet set");
                if idx == rep {
                    stabilizer += 1;
                }
                if member_set.insert(idx) {
                    debug_assert!(!assigned[idx], "orbits partition the facet set");
                    assigned[idx] = true;
                    members.push((idx, gi));
                }
            }
            members.sort_unstable_by_key(|&(idx, _)| idx);
            debug_assert_eq!(members.len() * stabilizer, self.order());
            orbits.push(FacetOrbit {
                representative: rep,
                members,
                stabilizer_size: stabilizer,
            });
        }
        orbits
    }

    /// The canonical form of a simplex of the complex's top level: the
    /// minimal image under the group. Invariant on orbits (two simplices
    /// have equal canonical forms iff some group element maps one onto the
    /// other) and idempotent. Memoized.
    pub fn canonical_form(&self, s: &Simplex) -> Simplex {
        if let Some(hit) = self.canon_cache.lock().unwrap().get(s) {
            return hit.clone();
        }
        let level = self.complex.level();
        let min = self
            .elements
            .iter()
            .map(|g| g.apply_simplex(level, s))
            .min()
            .expect("the group contains the identity");
        self.canon_cache
            .lock()
            .unwrap()
            .insert(s.clone(), min.clone());
        min
    }
}

impl fmt::Debug for SymmetryGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymmetryGroup")
            .field("order", &self.order())
            .field("complex", &self.complex)
            .finish()
    }
}

/// Infers the label relabeling under which `perm` could act on a labeled
/// base complex, from the base's facet structure: a facet must map to the
/// unique facet with the permuted color set, which forces `m(label)` for
/// every vertex of it. Labels never forced are completed identically.
///
/// This recovers the "diagonal" symmetries of inputs whose labels are tied
/// to colors — e.g. rainbow set-consensus inputs, where process `i` starts
/// with value `i` and only joint color-and-value relabelings act. Returns
/// `None` when the forced constraints conflict, the completion is not a
/// bijection, or the result is the identity map (then plain label matching
/// already decides). The returned map is a *candidate*: [`chain_action`]
/// still verifies it vertex by vertex.
fn inferred_label_map(base: &Complex, perm: &ColorPerm) -> Option<HashMap<u64, u64>> {
    let mut map: HashMap<u64, u64> = HashMap::new();
    for facet in base.facets() {
        let target_colors = perm.apply_colors(base.colors(facet));
        let mut candidates = base
            .facets()
            .iter()
            .filter(|g| base.colors(g) == target_colors);
        let (image, unique) = (candidates.next(), candidates.next().is_none());
        let image = match image {
            Some(g) if unique => g,
            // No color-matched image (perm cannot act) or an ambiguous
            // one (no forcing from this facet).
            Some(_) => continue,
            None => return None,
        };
        for &v in facet.vertices() {
            let d = base.vertex(v);
            let w = *image
                .vertices()
                .iter()
                .find(|&&w| base.color(w) == perm.apply(d.color))?;
            let target = base.vertex(w).label;
            match map.insert(d.label, target) {
                Some(prev) if prev != target => return None,
                _ => {}
            }
        }
    }
    // Complete identically on labels the facets never forced.
    for i in 0..base.num_vertices() {
        let l = base.vertex(VertexId::from_index(i)).label;
        map.entry(l).or_insert(l);
    }
    let mut seen = HashSet::new();
    if !map.values().all(|&v| seen.insert(v)) {
        return None;
    }
    if map.iter().all(|(k, v)| k == v) {
        return None;
    }
    Some(map)
}

/// Whether a set of chain actions is closed under composition (elementwise
/// on every level map). Inferred label maps are chosen per permutation, so
/// closure — which [`SymmetryGroup::orbits_of_facets`] relies on for its
/// partition — must be verified rather than assumed.
fn actions_are_closed(elements: &[ChainAction]) -> bool {
    let index: HashMap<&Vec<Vec<VertexId>>, usize> =
        elements.iter().map(|a| (&a.levels, 0usize)).collect();
    for a in elements {
        for b in elements {
            let composed: Vec<Vec<VertexId>> = a
                .levels
                .iter()
                .zip(&b.levels)
                .map(|(am, bm)| bm.iter().map(|&v| am[v.index()]).collect())
                .collect();
            if !index.contains_key(&composed) {
                return false;
            }
        }
    }
    true
}

/// [`symmetry_group`] with label-map inference: permutations that fail
/// blind/strict matching are retried under a label relabeling inferred
/// from the chain's base facets ([`LabelMatching::Relabeled`]).
///
/// This finds the diagonal color-and-label symmetries of labeled inputs
/// (rainbow set-consensus pseudospheres and the `R_A^ℓ` towers over them)
/// that [`LabelMatching::Blind`] alone cannot see, which is what lets
/// orbit-shared subdivision quotient those towers. Falls back to the plain
/// blind group when the inferred elements do not compose closedly (orbit
/// censuses require a genuine group).
pub fn symmetry_group_inferred(complex: &Complex) -> SymmetryGroup {
    let n = complex.num_processes();
    if n > SYMMETRY_MAX_DEGREE {
        return symmetry_group(complex, LabelMatching::Blind);
    }
    let mut base = complex;
    while let Some(p) = base.parent() {
        base = p;
    }
    let mut elements = Vec::new();
    let mut inferred = false;
    for perm in ColorPerm::all(n) {
        let action = match chain_action(complex, &perm, LabelMatching::Blind) {
            Some(a) => Some(a),
            None => inferred_label_map(base, &perm).and_then(|m| {
                inferred = true;
                chain_action(complex, &perm, LabelMatching::Relabeled(&m))
            }),
        };
        if let Some(a) = action {
            if a.preserves_facets(complex) {
                elements.push(a);
            }
        }
    }
    assert!(
        !elements.is_empty() && elements[0].perm().is_identity(),
        "the identity always acts"
    );
    if inferred && elements.len() > 1 && !actions_are_closed(&elements) {
        return symmetry_group(complex, LabelMatching::Blind);
    }
    SymmetryGroup {
        complex: complex.clone(),
        elements,
        canon_cache: Mutex::new(HashMap::new()),
    }
}

/// Computes the symmetry group of a complex: all color permutations lifting
/// to chain actions that preserve the facet set. For `n >` the enumeration
/// bound ([`SYMMETRY_MAX_DEGREE`]) only the identity is returned.
pub fn symmetry_group(complex: &Complex, matching: LabelMatching<'_>) -> SymmetryGroup {
    let n = complex.num_processes();
    let perms = if n <= SYMMETRY_MAX_DEGREE {
        ColorPerm::all(n)
    } else {
        vec![ColorPerm::identity(n)]
    };
    let mut elements = Vec::new();
    for perm in &perms {
        if let Some(action) = chain_action(complex, perm, matching) {
            if action.preserves_facets(complex) {
                elements.push(action);
            }
        }
    }
    assert!(
        !elements.is_empty() && elements[0].perm().is_identity(),
        "the identity always acts"
    );
    SymmetryGroup {
        complex: complex.clone(),
        elements,
        canon_cache: Mutex::new(HashMap::new()),
    }
}

/// The relabeled complex `π · K`: every vertex keeps its id and carrier but
/// its color (and cached base colors) are pushed through `π`, recursively
/// down the chain. Cheap (no re-interning); facet lists are unchanged as id
/// sets. `permute_complex(permute_complex(K, π), π⁻¹) == K`.
pub fn permute_complex(complex: &Complex, perm: &ColorPerm) -> Complex {
    assert_eq!(
        perm.degree(),
        complex.num_processes(),
        "permutation degree must match the process count"
    );
    let parent = complex.parent().map(|p| permute_complex(p, perm));
    let vertices: Vec<VertexData> = complex
        .structure
        .vertices
        .iter()
        .map(|d| VertexData {
            color: perm.apply(d.color),
            carrier: d.carrier.clone(),
            base_carrier: d.base_carrier.clone(),
            base_colors: perm.apply_colors(d.base_colors),
            label: d.label,
        })
        .collect();
    let key_index = if complex.level() == 0 {
        HashMap::new()
    } else {
        vertices
            .iter()
            .enumerate()
            .map(|(i, d)| ((d.color, d.carrier.clone()), VertexId::from_index(i)))
            .collect()
    };
    let structure = Arc::new(Structure {
        n: complex.structure.n,
        level: complex.structure.level,
        parent,
        vertices,
        key_index,
    });
    Complex::assemble(structure, complex.facets().to_vec())
}

/// The canonical form of a complex under the color action: the minimal
/// [`Complex::encode_portable`] image over all of `S_n`, together with the
/// permutation achieving it. Two complexes differing only by a color
/// permutation have equal canonical forms, so canonical content hashes key
/// caches by symmetry class. For `n >` [`SYMMETRY_MAX_DEGREE`] the complex
/// is returned unchanged with the identity.
///
/// Cost: one encoding pass per permutation, written straight from this
/// complex's tables under the permuted colors — no permuted complex is
/// built until the winner is known, and then only that one.
pub fn canonical_complex(complex: &Complex) -> (Complex, ColorPerm) {
    let n = complex.num_processes();
    if n > SYMMETRY_MAX_DEGREE {
        return (complex.clone(), ColorPerm::identity(n));
    }
    let mut perms = ColorPerm::all(n).into_iter();
    let mut best_perm = perms.next().expect("S_n is non-empty");
    let mut best = Vec::new();
    complex.encode_portable_permuted(&best_perm, &mut best);
    let mut bytes = Vec::new();
    for perm in perms {
        complex.encode_portable_permuted(&perm, &mut bytes);
        if bytes < best {
            std::mem::swap(&mut best, &mut bytes);
            best_perm = perm;
        }
    }
    (permute_complex(complex, &best_perm), best_perm)
}

/// Canonicalizes a *pair* of complexes jointly: the permutation minimizing
/// `(encode(π·a), encode(π·b))` lexicographically. Returns the canonical
/// content hashes of both components and the minimizing permutation. Used
/// to key domain caches by the symmetry class of an (affine task, inputs)
/// query so color-permuted queries share one tower.
///
/// Cost: one encoding pass of `a` per permutation (and of `b` only when
/// `π·a` ties or beats the best so far), written straight from the
/// complexes' tables under the permuted colors; no complex is built.
pub fn canonical_pair_hashes(a: &Complex, b: &Complex) -> (u128, u128, ColorPerm) {
    let n = a.num_processes();
    assert_eq!(n, b.num_processes(), "pair must share a process count");
    if n > SYMMETRY_MAX_DEGREE {
        return (a.content_hash(), b.content_hash(), ColorPerm::identity(n));
    }
    let mut perms = ColorPerm::all(n).into_iter();
    let mut best_perm = perms.next().expect("S_n is non-empty");
    let (mut best_a, mut best_b) = (Vec::new(), Vec::new());
    a.encode_portable_permuted(&best_perm, &mut best_a);
    b.encode_portable_permuted(&best_perm, &mut best_b);
    let (mut bytes_a, mut bytes_b) = (Vec::new(), Vec::new());
    for perm in perms {
        a.encode_portable_permuted(&perm, &mut bytes_a);
        // Compare the first component before paying for the second.
        let better = match bytes_a.cmp(&best_a) {
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                b.encode_portable_permuted(&perm, &mut bytes_b);
                bytes_b < best_b
            }
            std::cmp::Ordering::Less => {
                b.encode_portable_permuted(&perm, &mut bytes_b);
                true
            }
        };
        if better {
            std::mem::swap(&mut best_a, &mut bytes_a);
            std::mem::swap(&mut best_b, &mut bytes_b);
            best_perm = perm;
        }
    }
    (
        act_obs::content_hash128(&best_a),
        act_obs::content_hash128(&best_b),
        best_perm,
    )
}

/// Transports a map-search witness across symmetry actions: given a
/// simplicial map `w` solving the *permuted* query (domain and outputs
/// pushed through a group element), returns `v ↦ cod⁻¹(w(dom(v)))`, which
/// solves the original query. `domain_map` is the top-level vertex table of
/// the domain action; `codomain_inverse` the inverted vertex table of the
/// output action.
pub fn transport_vertex_map(
    witness: &VertexMap,
    domain_map: &[VertexId],
    codomain_inverse: &[VertexId],
) -> VertexMap {
    let mut out = VertexMap::new();
    for (i, &image) in domain_map.iter().enumerate() {
        if let Some(w) = witness.get(image) {
            out.set(VertexId::from_index(i), codomain_inverse[w.index()]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osp::fubini;

    fn swap01(n: usize) -> ColorPerm {
        let mut images: Vec<usize> = (0..n).collect();
        images.swap(0, 1);
        ColorPerm::from_images(&images).unwrap()
    }

    #[test]
    fn perm_group_basics() {
        let n = 4;
        let perms = ColorPerm::all(n);
        assert_eq!(perms.len(), 24);
        assert!(perms[0].is_identity());
        for p in &perms {
            assert!(p.compose(&p.inverse()).is_identity());
            assert!(p.inverse().compose(p).is_identity());
        }
        let s = swap01(n);
        assert_eq!(s.apply(ProcessId::new(0)), ProcessId::new(1));
        assert_eq!(
            s.apply_colors(ColorSet::from_indices([0, 2])),
            ColorSet::from_indices([1, 2])
        );
        assert!(ColorPerm::from_images(&[0, 0, 1]).is_none());
    }

    #[test]
    fn chr_symmetry_group_is_full_sn() {
        for n in 2..=4 {
            let chr = Complex::standard(n).chromatic_subdivision();
            let group = symmetry_group(&chr, LabelMatching::Strict);
            assert_eq!(group.order(), (1..=n).product::<usize>(), "n = {n}");
        }
    }

    #[test]
    fn chr_orbits_are_compositions() {
        // Facets of Chr s are OSPs of n colors; their S_n-orbits are the
        // compositions of n: 2, 4, 8 for n = 2, 3, 4.
        for (n, compositions) in [(2usize, 2usize), (3, 4), (4, 8)] {
            let chr = Complex::standard(n).chromatic_subdivision();
            let group = symmetry_group(&chr, LabelMatching::Strict);
            let orbits = group.orbits_of_facets();
            assert_eq!(orbits.len(), compositions, "n = {n}");
            let total: usize = orbits.iter().map(FacetOrbit::orbit_size).sum();
            assert_eq!(total as u64, fubini(n));
            for orbit in &orbits {
                assert_eq!(orbit.orbit_size() * orbit.stabilizer_size, group.order());
                assert_eq!(orbit.members[0].0, orbit.representative);
                assert_eq!(
                    orbit.representative,
                    orbit.members.iter().map(|&(i, _)| i).min().unwrap()
                );
            }
        }
    }

    #[test]
    fn orbit_members_are_reachable_from_representative() {
        let chr = Complex::standard(3).chromatic_subdivision();
        let group = symmetry_group(&chr, LabelMatching::Strict);
        for orbit in group.orbits_of_facets() {
            let rep = &chr.facets()[orbit.representative];
            for &(member, gi) in &orbit.members {
                let image = group.element(gi).apply_simplex(chr.level(), rep);
                assert_eq!(image, chr.facets()[member]);
            }
        }
    }

    #[test]
    fn canonical_form_is_orbit_invariant_and_idempotent() {
        let chr = Complex::standard(3).iterated_subdivision(2);
        let group = symmetry_group(&chr, LabelMatching::Strict);
        for orbit in group.orbits_of_facets() {
            let rep_canon = group.canonical_form(&chr.facets()[orbit.representative]);
            assert_eq!(group.canonical_form(&rep_canon), rep_canon, "idempotent");
            for &(member, _) in &orbit.members {
                assert_eq!(
                    group.canonical_form(&chr.facets()[member]),
                    rep_canon,
                    "constant on the orbit"
                );
            }
        }
    }

    #[test]
    fn chain_action_rejects_asymmetric_labels() {
        // Rainbow labels (process i holds value i) break Strict symmetry
        // but not Blind transport.
        let verts = vec![(ProcessId::new(0), 10), (ProcessId::new(1), 20)];
        let base = Complex::from_labeled_vertices(2, verts, vec![vec![0, 1]]);
        let chr = base.chromatic_subdivision();
        let swap = swap01(2);
        assert!(chain_action(&chr, &swap, LabelMatching::Strict).is_none());
        let blind = chain_action(&chr, &swap, LabelMatching::Blind).unwrap();
        assert!(blind.preserves_facets(&chr));
        // The action is an involution on vertices.
        for i in 0..chr.num_vertices() {
            let v = VertexId::from_index(i);
            let w = blind.apply_vertex(1, v);
            assert_eq!(blind.apply_vertex(1, w), v);
            assert_eq!(chr.color(w), swap.apply(chr.color(v)));
        }
    }

    #[test]
    fn relabeled_matching_follows_the_label_map() {
        let verts = vec![(ProcessId::new(0), 10), (ProcessId::new(1), 20)];
        let base = Complex::from_labeled_vertices(2, verts, vec![vec![0, 1]]);
        let swap = swap01(2);
        let map: HashMap<u64, u64> = [(10, 20), (20, 10)].into_iter().collect();
        let act = chain_action(&base, &swap, LabelMatching::Relabeled(&map)).unwrap();
        assert_eq!(act.apply_vertex(0, VertexId::from_index(0)).index(), 1);
        // A label map missing an entry kills the action.
        let partial: HashMap<u64, u64> = [(10, 20)].into_iter().collect();
        assert!(chain_action(&base, &swap, LabelMatching::Relabeled(&partial)).is_none());
    }

    #[test]
    fn permute_complex_round_trips() {
        let chr2 = Complex::standard(3).iterated_subdivision(2);
        for perm in ColorPerm::all(3) {
            let image = permute_complex(&chr2, &perm);
            assert_eq!(image.facet_count(), chr2.facet_count());
            assert_eq!(permute_complex(&image, &perm.inverse()), chr2);
            // The permuted complex is the same abstract complex relabeled:
            // its encode differs unless the permutation is a symmetry that
            // fixes the representation, but its canonical form agrees.
            assert_eq!(
                canonical_complex(&image).0,
                canonical_complex(&chr2).0,
                "canonical form is a class invariant"
            );
        }
    }

    #[test]
    fn canonical_pair_shares_class_across_permutations() {
        let chr = Complex::standard(3).chromatic_subdivision();
        let base = Complex::standard(3);
        let (ha, hb, perm) = canonical_pair_hashes(&chr, &base);
        for p in ColorPerm::all(3) {
            let (ha2, hb2, perm2) =
                canonical_pair_hashes(&permute_complex(&chr, &p), &permute_complex(&base, &p));
            assert_eq!((ha, hb), (ha2, hb2), "class invariant");
            // The minimizing permutations compose coherently: applying
            // them lands both queries on the identical canonical pair.
            let canon1 = permute_complex(&chr, &perm);
            let canon2 = permute_complex(&permute_complex(&chr, &p), &perm2);
            assert_eq!(canon1, canon2);
        }
    }

    /// The canonical forms rest on this identity; `tests/canonical_key.rs`
    /// checks the forms themselves against the materializing definition.
    /// Cases: standard towers, a labeled (rainbow) base and its
    /// subdivision, and a sub-complex keeping only the facets around one
    /// vertex.
    #[test]
    fn permuted_encoding_is_the_encoding_of_the_permuted_complex() {
        let rainbow = Complex::from_labeled_vertices(
            3,
            vec![
                (ProcessId::new(0), 0),
                (ProcessId::new(1), 1),
                (ProcessId::new(2), 0),
            ],
            vec![vec![0, 1, 2]],
        );
        let chr2 = Complex::standard(3).iterated_subdivision(2);
        let pivot = chr2.facets()[7].vertices()[0];
        let lopsided =
            chr2.sub_complex(chr2.facets().iter().filter(|f| f.contains(pivot)).cloned());
        let cases = [
            Complex::standard(2).chromatic_subdivision(),
            Complex::standard(4).chromatic_subdivision(),
            chr2,
            rainbow.chromatic_subdivision(),
            rainbow,
            lopsided,
        ];
        let mut bytes = Vec::new();
        for c in &cases {
            for perm in ColorPerm::all(c.num_processes()) {
                c.encode_portable_permuted(&perm, &mut bytes);
                assert_eq!(
                    bytes,
                    permute_complex(c, &perm).encode_portable(),
                    "{perm:?}"
                );
            }
        }
    }

    #[test]
    fn transported_witness_solves_the_original_query() {
        // Identity-shaped check on a small chain: transport through a swap
        // and verify simpliciality is preserved.
        let chr = Complex::standard(2).chromatic_subdivision();
        let out = Complex::standard(2);
        let swap = swap01(2);
        let dom_act = chain_action(&chr, &swap, LabelMatching::Strict).unwrap();
        let out_act = chain_action(&out, &swap, LabelMatching::Strict).unwrap();
        // A chromatic witness for the permuted query: send every vertex of
        // color c to the output vertex of color c.
        let mut witness = VertexMap::new();
        for i in 0..chr.num_vertices() {
            let v = VertexId::from_index(i);
            witness.set(v, VertexId::from_index(chr.color(v).index()));
        }
        let transported = transport_vertex_map(
            &witness,
            dom_act.level_map(chr.level()),
            out_act.inverse().level_map(0),
        );
        assert!(transported.is_chromatic(&chr, &out));
        assert!(transported.is_simplicial(&chr, &out));
    }
}
