//! Hash-consing arena for subdivision vertices and facet lists.
//!
//! Every vertex of a subdivision level is identified by its canonical key
//! `(color, carrier)` — the process it belongs to and the simplex of the
//! previous level it subdivides. The [`InternArena`] maps each key to a
//! dense [`VertexId`], issuing ids in first-occurrence order so that
//! identical intern sequences produce identical vertex tables. Resolving an
//! id returns the key, making interning a bijection between keys and the
//! ids issued so far (`intern ∘ resolve = id`).

use std::collections::{HashMap, HashSet};

use crate::color::{ColorSet, ProcessId};
use crate::complex::VertexData;
use crate::simplex::{Simplex, VertexId};

/// Interning (hash-consing) arena mapping canonical vertex keys
/// `(color, carrier)` to dense [`VertexId`]s.
///
/// Ids are issued in first-occurrence order, so the arena contents are a
/// deterministic function of the intern-call sequence. The subdivision
/// engine builds one arena per subdivision round.
///
/// # Examples
///
/// ```
/// use act_topology::{ColorSet, InternArena, ProcessId, Simplex};
///
/// let mut arena = InternArena::new();
/// let p = ProcessId::new(0);
/// let id = arena.intern(p, Simplex::empty(), Simplex::empty(), ColorSet::singleton(p));
/// // Interning the same key again returns the same id…
/// assert_eq!(
///     arena.intern(p, Simplex::empty(), Simplex::empty(), ColorSet::singleton(p)),
///     id,
/// );
/// // …and resolving the id recovers the key.
/// let (color, carrier) = arena.resolve(id).unwrap();
/// assert_eq!((color, carrier.clone()), (p, Simplex::empty()));
/// assert_eq!(arena.len(), 1);
/// ```
#[derive(Default)]
pub struct InternArena {
    vertices: Vec<VertexData>,
    key_index: HashMap<(ProcessId, Simplex), VertexId>,
}

impl InternArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        InternArena::default()
    }

    /// The number of distinct keys interned so far.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether no key has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Interns the key `(color, carrier)`, recording the base-carrier data
    /// on first occurrence, and returns its dense id.
    ///
    /// The base data of a key is a function of the key (the base carrier of
    /// a subdivision vertex is determined by its carrier), so later calls
    /// with the same key simply return the existing id.
    pub fn intern(
        &mut self,
        color: ProcessId,
        carrier: Simplex,
        base_carrier: Simplex,
        base_colors: ColorSet,
    ) -> VertexId {
        if let Some(&v) = self.key_index.get(&(color, carrier.clone())) {
            return v;
        }
        let id = VertexId::from_index(self.vertices.len());
        self.vertices.push(VertexData {
            color,
            carrier: carrier.clone(),
            base_carrier,
            base_colors,
            label: 0,
        });
        self.key_index.insert((color, carrier), id);
        id
    }

    /// Looks up the id of a key without interning it.
    pub fn lookup(&self, color: ProcessId, carrier: &Simplex) -> Option<VertexId> {
        self.key_index.get(&(color, carrier.clone())).copied()
    }

    /// Resolves an id back to its canonical key.
    pub fn resolve(&self, id: VertexId) -> Option<(ProcessId, &Simplex)> {
        self.vertices.get(id.index()).map(|d| (d.color, &d.carrier))
    }

    /// The full data of an interned vertex.
    pub fn vertex(&self, id: VertexId) -> Option<&VertexData> {
        self.vertices.get(id.index())
    }

    /// Consumes the arena into the vertex table and key index of a
    /// [`crate::Complex`] level.
    pub(crate) fn into_parts(self) -> (Vec<VertexData>, HashMap<(ProcessId, Simplex), VertexId>) {
        (self.vertices, self.key_index)
    }
}

/// Order-preserving deduplicating facet list: the facet analogue of
/// [`InternArena`]. Keeps the first occurrence of every facet.
#[derive(Default)]
pub(crate) struct FacetAccumulator {
    facets: Vec<Simplex>,
    seen: HashSet<Simplex>,
}

impl FacetAccumulator {
    pub(crate) fn new() -> Self {
        FacetAccumulator::default()
    }

    pub(crate) fn push(&mut self, facet: Simplex) {
        if self.seen.insert(facet.clone()) {
            self.facets.push(facet);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.facets.len()
    }

    pub(crate) fn into_facets(self) -> Vec<Simplex> {
        self.facets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_first_occurrence_ordered() {
        let mut arena = InternArena::new();
        let c0 = ProcessId::new(0);
        let c1 = ProcessId::new(1);
        let s = Simplex::vertex(VertexId::from_index(7));
        let a = arena.intern(c0, s.clone(), Simplex::empty(), ColorSet::EMPTY);
        let b = arena.intern(c1, s.clone(), Simplex::empty(), ColorSet::EMPTY);
        let a2 = arena.intern(c0, s.clone(), Simplex::empty(), ColorSet::EMPTY);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn resolve_round_trips_through_lookup() {
        let mut arena = InternArena::new();
        for i in 0..4 {
            let color = ProcessId::new(i % 2);
            let carrier = Simplex::vertex(VertexId::from_index(i));
            arena.intern(color, carrier, Simplex::empty(), ColorSet::EMPTY);
        }
        for i in 0..arena.len() {
            let id = VertexId::from_index(i);
            let (color, carrier) = arena.resolve(id).unwrap();
            assert_eq!(arena.lookup(color, &carrier.clone()), Some(id));
        }
        assert!(arena.resolve(VertexId::from_index(99)).is_none());
    }

    #[test]
    fn facet_accumulator_dedups_keeping_order() {
        let mut acc = FacetAccumulator::new();
        let a = Simplex::vertex(VertexId::from_index(0));
        let b = Simplex::vertex(VertexId::from_index(1));
        acc.push(b.clone());
        acc.push(a.clone());
        acc.push(b.clone());
        assert_eq!(acc.into_facets(), vec![b, a]);
    }
}
