//! Combinatorial-topology substrate for the FACT reproduction:
//! chromatic simplicial complexes, the standard chromatic subdivision, and
//! the carrier machinery of Herlihy–Shavit / Kuznetsov–Rieutord–He.
//!
//! This crate implements Section 2 and Appendix A of *An Asynchronous
//! Computability Theorem for Fair Adversaries* (Kuznetsov, Rieutord, He,
//! PODC 2018):
//!
//! * [`ProcessId`] / [`ColorSet`] — processes as colors, process sets as
//!   bitmasks;
//! * [`Osp`] — ordered set partitions, the combinatorial form of
//!   immediate-snapshot runs (Figure 3);
//! * [`Simplex`] / [`Complex`] — chromatic complexes represented by their
//!   facets, with closure / star / pure-complement / skeleton operations;
//! * [`Complex::chromatic_subdivision`] — the standard chromatic
//!   subdivision `Chr` with full carrier tracking (Figure 1a), plus the
//!   recipe-driven subdivision used to iterate affine tasks;
//! * [`VertexMap`] — simplicial / chromatic / carried-map verification;
//! * [`realization_coordinates`] — Kozlov's geometric embedding, used to
//!   export the paper's figures.
//!
//! # Quickstart
//!
//! ```
//! use act_topology::{Complex, fubini};
//!
//! // Figure 1a: the standard chromatic subdivision of a triangle.
//! let s = Complex::standard(3);
//! let chr = s.chromatic_subdivision();
//! assert_eq!(chr.facet_count() as u64, fubini(3)); // 13 triangles
//!
//! // Chr² s, the home of every affine task in the paper.
//! let chr2 = chr.chromatic_subdivision();
//! assert_eq!(chr2.facet_count(), 169);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod color;
mod complex;
mod connectivity;
mod geometry;
mod homology;
mod intern;
mod maps;
mod osp;
mod portable;
mod simplex;
mod subdivision;
mod symmetry;

pub use color::{ColorSet, Iter, ProcessId, Subsets, MAX_PROCESSES};
pub use complex::{CanonicalVertex, Complex, SimplexSet, VertexData};
pub use connectivity::{
    connected_components, is_connected, is_link_connected, link_disconnection_witness, vertex_link,
};
pub use geometry::{
    barycentric_to_plane, facet_volume_fractions, realization_coordinates,
    verify_subdivision_geometry,
};
pub use homology::{betti_numbers, euler_characteristic, is_acyclic};
pub use intern::InternArena;
pub use maps::VertexMap;
pub use osp::{fubini, ordered_set_partitions, osp_table, Osp, OspError};
pub use portable::{PortableError, PORTABLE_FORMAT_VERSION};
pub use simplex::{Faces, Simplex, VertexId};
pub use subdivision::{all_recipes, OrbitExpansion, QuotientedSubdivision, Recipe};
pub use symmetry::{
    canonical_complex, canonical_pair_hashes, chain_action, permute_complex, symmetry_group,
    symmetry_group_inferred, transport_vertex_map, ChainAction, ColorPerm, FacetOrbit,
    LabelMatching, SymmetryGroup, SYMMETRY_MAX_DEGREE,
};
