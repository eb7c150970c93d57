//! Distributed tasks and the carried-map decision procedure for the FACT
//! reproduction.
//!
//! * [`Task`] — tasks `(I, O, Δ)` over chromatic complexes, with
//!   [`SetConsensus`] (including [`consensus`]), [`TrivialTask`],
//!   [`LeaderElection`] and the [`pseudosphere`] input builder;
//! * [`find_carried_map`] — decides the existence of a chromatic
//!   simplicial map `φ : domain → O` carried by `Δ` (the right-hand side
//!   of the ACT/FACT equivalences), via backtracking with generalized arc
//!   consistency; [`verify_carried_map`] re-checks any found map
//!   exhaustively.
//!
//! # Quickstart
//!
//! ```
//! use act_tasks::{consensus, find_carried_map, Task};
//!
//! // FLP through the topological lens: no chromatic carried map exists
//! // from Chr(I) for 2-process consensus.
//! let t = consensus(2, &[0, 1]);
//! let domain = t.inputs().iterated_subdivision(1);
//! assert!(find_carried_map(&t, &domain, 1_000_000).is_unsolvable());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
mod csp;
mod engine;
mod mapsearch;
mod more_tasks;
mod sperner;
mod task;

pub use engine::{chaos, SearchConfig, ENGINE_SCHEMA_VERSION};
pub use mapsearch::{
    find_carried_map, find_carried_map_with_config, find_carried_map_with_stats,
    verify_carried_map, SearchResult, SearchStats, SEARCH_NODES, SEARCH_PRUNES, SEARCH_RESIDUE,
};
pub use more_tasks::{decode_ac, encode_ac, AcFlag, AdoptCommit, SimplexAgreement};
pub use sperner::{
    first_color_labeling, is_subdivided_simplex, own_color_labeling, rainbow_facets,
    sperner_certificate, SpernerLabeling,
};
pub use task::{
    consensus, participants_of, pseudosphere, LeaderElection, SetConsensus, Task, TaskSymmetry,
    TrivialTask,
};
