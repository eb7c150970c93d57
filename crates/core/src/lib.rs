//! `fact` — a full reproduction of *An Asynchronous Computability Theorem
//! for Fair Adversaries* (Kuznetsov, Rieutord, He; PODC 2018).
//!
//! The paper proves that every *fair adversary* `A` is captured, for task
//! computability, by an *affine task* `R_A ⊆ Chr² s`: a task `T = (I,O,Δ)`
//! is solvable in the adversarial `A`-model iff for some `ℓ` there is a
//! chromatic simplicial map `φ : R_A^ℓ(I) → O` carried by `Δ` (the FACT,
//! Theorem 16). This crate assembles the whole pipeline:
//!
//! * adversaries, `setcon`, agreement functions, fairness —
//!   [`act_adversary`] (re-exported as [`adversary`]);
//! * chromatic complexes and subdivisions — [`act_topology`]
//!   (re-exported as [`topology`]);
//! * `Cont²`, critical simplices, concurrency maps and the construction
//!   of `R_A` — [`act_affine`] (re-exported as [`affine`]);
//! * the executable side: snapshot memory, Borowsky–Gafni immediate
//!   snapshot, schedulers, the IIS model — [`act_runtime`]
//!   (re-exported as [`runtime`]);
//! * **Algorithm 1** — solving `R_A` in the α-model
//!   ([`AlgorithmOneSystem`], Theorem 7);
//! * **`µ_Q` leader election** — [`LeaderMap`] (Properties 9, 10, 12),
//!   and [`leader_map_witness`], the set-consensus witness it induces;
//! * **the Section-6 simulation** — α-adaptive set consensus and atomic
//!   snapshots inside `R_A^*` ([`AdaptiveSetConsensus`],
//!   [`SnapshotSimulation`], Theorem 15);
//! * **the FACT pipeline** — [`solve_in_fair_model`] (Theorem 16),
//!   backed by the carried-map search of [`act_tasks`] (re-exported as
//!   [`tasks`]).
//!
//! # Quickstart
//!
//! ```
//! use fact::adversary::{Adversary, AgreementFunction};
//! use fact::affine::fair_affine_task;
//!
//! // A fair adversary and its affine task.
//! let a = Adversary::t_resilient(3, 1);
//! assert!(a.is_fair());
//! let alpha = AgreementFunction::of_adversary(&a);
//! let r_a = fair_affine_task(&alpha);
//! assert!(r_a.complex().facet_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm1;
mod error;
mod iterated;
mod leader;
mod protocol_complex;
mod report;
mod simulation;
mod solver;
mod spec;

pub use act_adversary as adversary;
pub use act_affine as affine;
pub use act_runtime as runtime;
pub use act_tasks as tasks;
pub use act_topology as topology;

pub use algorithm1::{outputs_to_simplex, AlgorithmOneOutput, AlgorithmOneSystem};
pub use error::FactError;
pub use iterated::{
    alpha_model_set_consensus, execute_affine_iterations, executed_set_consensus,
    object_model_set_consensus,
};
pub use leader::{leader_map_witness, LeaderMap};
pub use protocol_complex::{explored_protocol_complex, sampled_protocol_complex, OutputSystem};
pub use report::{validate_report_json, RunReport, REPORT_SCHEMA_VERSION};
pub use simulation::{
    iteration_views, AdaptiveSetConsensus, AffineIteration, AffineRunGenerator, Decision,
    SnapshotSimulation,
};
pub use solver::{
    affine_domain, affine_domain_cached, set_consensus_verdict, set_consensus_verdict_cached,
    set_consensus_verdict_with_config, solve_in_fair_model, solve_in_model,
    solve_in_model_with_config, DomainCache, DomainExpansion, Solvability, TowerPersistence,
    COMPONENTS_REJECTED, DOMAIN_CACHE_EVICTIONS, DOMAIN_CACHE_ORBIT_HITS, LEADER_MAP_REJECTED,
};
pub use spec::{ModelSpec, TaskSpec, MAX_PROCESSES};
