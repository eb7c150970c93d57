//! `act-service` — the serving layer of the FACT reproduction: a
//! batched, deduplicating solvability query service over a persistent,
//! content-addressed verdict store.
//!
//! The pipeline's decision problems — *"is `k`-set consensus solvable
//! under fair adversary `A` at level `ℓ`?"* (FACT, Theorems 15/16) —
//! are expensive deterministic computations that are perfectly cacheable
//! by content: the verdict is a pure function of
//! `(model, task, level, engine schema version)`. This crate turns that
//! cost structure into a serving stack:
//!
//! * [`store`] — one **content-addressed store** with three entry kinds:
//!   verdicts and witnesses keyed by a canonical hash of the query,
//!   `R_A^ℓ` towers, and FPC summaries. Each kind is two-tier (LRU in
//!   memory over atomically-written, validated JSON files on disk), with
//!   corruption-tolerant loading — a truncated or bad-checksum entry is
//!   a *miss* counted per kind (e.g. [`SERVE_STORE_CORRUPT`]), never a
//!   panic or a wrong answer;
//! * [`scheduler`] — a **batching + single-flight scheduler**: identical
//!   in-flight queries coalesce to one engine run, a worker pool shares
//!   warmed [`DomainCache`](fact::DomainCache) towers (and the affine
//!   task `R_A` itself) per agreement function, and workers pick jobs
//!   cache-aware (same-α adjacency). Each job runs under its node budget
//!   and deadline, and a `timed-out` / `exhausted` verdict is reported to
//!   the requester but **never persisted** as authoritative;
//! * [`server`] — the **operational surface**: newline-delimited JSON
//!   over TCP (or stdio for tests and pipelines), `stats` and
//!   `shutdown` request types, bounded queue with explicit backpressure
//!   replies, and graceful drain;
//! * `wire` — the **one outbound exchange** the failover client and
//!   every peer RPC share: a held-open connection from the caller's own
//!   pool, one single-write request line, one reply line.
//!
//! The `fact-cli serve` subcommand is the front end; `fact-cli solve
//! --store <dir>` shares the same on-disk store, so one-shot CLI runs
//! and the server warm each other.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod cluster;
pub mod fpccache;
pub mod merkle;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod store;
mod wire;

use act_obs::{Counter, Gauge};
use act_tasks::SearchConfig;
use fact::{set_consensus_verdict_with_config, DomainCache, Solvability};

pub use chaos::{ServeFaultEvent, ServeFaultPlan, KILL_EXIT_CODE};
pub use client::{ClientError, ClusterClient, RetryPolicy};
pub use cluster::{ClusterConfig, PeerRing, REPLICATION_FACTOR};
pub use fpccache::{
    summary_key, FpcCache, FPC_DEFAULT_RUNS, FPC_DEFAULT_SEED, FPC_MAX_RUNS, FPC_SUMMARY_SCHEMA,
};
pub use merkle::{InclusionProof, MerkleIndex, ScrubReport};
pub use protocol::{Request, RequestBody, Response, StatsBody, PROTOCOL_VERSION};
pub use scheduler::{Scheduler, ServeConfig, Served, SolveQuery, Submitted};
pub use server::{serve, spawn_server, ServeOptions, ServerHandle};
pub use store::{
    content_hash128, fnv1a64, StoreKey, StoredVerdict, TowerKey, TowerStore, VerdictStore,
    STORE_FORMAT_VERSION, TOWER_FORMAT_VERSION,
};

/// Queries answered from the store (memory or disk tier).
pub static SERVE_HIT: Counter = Counter::new("serve.hit");
/// Queries that had to run the engine (or join an in-flight run).
pub static SERVE_MISS: Counter = Counter::new("serve.miss");
/// Queries coalesced onto an identical in-flight computation.
pub static SERVE_COALESCED: Counter = Counter::new("serve.coalesced");
/// Store entries that failed to load (truncated, bad checksum, bad
/// JSON) and were degraded to misses.
pub static SERVE_STORE_CORRUPT: Counter = Counter::new("serve.store.corrupt");
/// Engine runs actually executed by scheduler workers (the single-flight
/// test asserts this moves by exactly one for N identical queries).
pub static SERVE_ENGINE_RUNS: Counter = Counter::new("serve.engine.runs");
/// Queries rejected with a backpressure reply (bounded queue full).
pub static SERVE_REJECTED: Counter = Counter::new("serve.rejected");
/// Domain-tower levels served from the tower store (each one is a
/// subdivision round — an `apply_to` — the engine did not have to run).
pub static SERVE_TOWER_HIT: Counter = Counter::new("serve.tower.hit");
/// Tower-store lookups that found no entry and fell back to building the
/// level in-process.
pub static SERVE_TOWER_MISS: Counter = Counter::new("serve.tower.miss");
/// Tower-store entries that failed to load (truncated, bad checksum, bad
/// payload) and were degraded to counted misses.
pub static SERVE_TOWER_CORRUPT: Counter = Counter::new("serve.tower.corrupt");
/// Instantaneous scheduler queue depth (jobs admitted, not yet picked
/// up by a worker).
pub static SERVE_QUEUE_DEPTH: Gauge = Gauge::new("serve.queue_depth");
/// Scrub passes completed over the verdict store.
pub static SERVE_SCRUB_RUNS: Counter = Counter::new("serve.scrub.runs");
/// Entries a scrub pass found corrupt (checksum, parse, leaf, or key
/// mismatch against the Merkle index).
pub static SERVE_SCRUB_CORRUPT: Counter = Counter::new("serve.scrub.corrupt");
/// Corrupt entries a scrub pass rewrote from a good copy (memory tier
/// or a replicating peer).
pub static SERVE_SCRUB_REPAIRED: Counter = Counter::new("serve.scrub.repaired");
/// Corrupt entries with no good copy anywhere: moved to `quarantine/`
/// for recompute (the entry becomes a clean miss).
pub static SERVE_SCRUB_QUARANTINED: Counter = Counter::new("serve.scrub.quarantined");
/// Inclusion proofs attached to query replies (`"proof": true` solves).
pub static SERVE_MERKLE_PROOFS: Counter = Counter::new("serve.merkle.proofs");
/// Anti-entropy rounds that found diverged Merkle roots (and therefore
/// exchanged entry lists).
pub static SERVE_MERKLE_MISMATCH: Counter = Counter::new("serve.merkle.mismatch");
/// Requests forwarded to the key's owner peer (this server was not an
/// owner under the consistent-hash ring).
pub static SERVE_PEER_FORWARDS: Counter = Counter::new("serve.peer.forwards");
/// Forwards that failed over to a replica because an owner was down.
pub static SERVE_PEER_FAILOVERS: Counter = Counter::new("serve.peer.failovers");
/// Fresh verdicts write-through-replicated to owner peers.
pub static SERVE_PEER_REPLICATIONS: Counter = Counter::new("serve.peer.replications");
/// Entries pulled from peers by anti-entropy sync (or a scrub repair
/// that fetched its good copy remotely).
pub static SERVE_PEER_SYNC_PULLS: Counter = Counter::new("serve.peer.sync_pulls");
/// Peer RPCs that failed outright (connect, io, or malformed reply).
pub static SERVE_PEER_UNREACHABLE: Counter = Counter::new("serve.peer.unreachable");
/// Client-side retries (connect failures, timeouts, backpressure waits,
/// replica fallbacks) performed by [`ClusterClient`].
pub static SERVE_CLIENT_RETRIES: Counter = Counter::new("serve.client.retries");
/// Serve-path faults actually injected by an installed
/// [`ServeFaultPlan`].
pub static SERVE_CHAOS_INJECTED: Counter = Counter::new("serve.chaos.injected");
/// `fpc:` queries answered from a cached summary.
pub static SERVE_FPC_HITS: Counter = Counter::new("serve.fpc.hits");
/// `fpc:` queries that had to simulate the batch.
pub static SERVE_FPC_MISSES: Counter = Counter::new("serve.fpc.misses");
/// Cached FPC summaries that failed validate-on-read and were degraded
/// to misses.
pub static SERVE_FPC_CORRUPT: Counter = Counter::new("serve.fpc.corrupt");

/// Serializes tests that assert deltas on the process-global serving
/// counters (the test harness runs modules in parallel by default).
#[cfg(test)]
pub(crate) fn test_serial_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The CLI/server deepening loop in one place, so the two front ends
/// produce byte-identical verdicts for the same query: try `ℓ = 1`,
/// deepen while the verdict is a clean `NoMapUpTo`, and stop at the
/// first `Solvable` / `Exhausted` / `TimedOut` (or at `max_iters`).
///
/// The caller owns the [`DomainCache`], so sweeps over `ℓ` (and repeated
/// jobs on the same model) extend the `R_A^ℓ` tower incrementally
/// instead of resubdividing from scratch.
pub fn deepening_verdict(
    cache: &mut DomainCache,
    task: &act_tasks::SetConsensus,
    affine: &act_affine::AffineTask,
    max_iters: usize,
    config: &SearchConfig,
) -> Solvability {
    let mut verdict = set_consensus_verdict_with_config(cache, task, affine, 1, config);
    for iters in 2..=max_iters {
        if !matches!(verdict, Solvability::NoMapUpTo { .. }) {
            break;
        }
        verdict = set_consensus_verdict_with_config(cache, task, affine, iters, config);
    }
    verdict
}
