//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response per line. Every request carries an
//! `op` and an optional client-chosen `id` (echoed back, default 0):
//!
//! ```json
//! {"op":"solve","id":1,"model":"t-res:3:1","k":1,"iters":2}
//! {"op":"solve","id":2,"model":"k-of:3:2","k":2,"deadline_ms":500}
//! {"op":"stats","id":3}
//! {"op":"shutdown","id":4}
//! ```
//!
//! Responses are flat JSON objects; absent fields are `null`:
//!
//! ```json
//! {"id":1,"op":"solve","ok":true,"verdict":"solvable","iterations":1,
//!  "witness_len":30,"source":"store","authoritative":true, ...}
//! {"id":9,"op":"error","ok":false,"error":"...","code":2, ...}
//! ```
//!
//! Error `code`s follow the CLI exit-code vocabulary where they overlap
//! — `1` runtime, `2` usage (malformed request or spec) — plus the
//! serving-only classes `5` (backpressure: bounded queue full, retry
//! after the reply's `retry_after_ms`) and `6` (draining: the server is
//! shutting down).
//!
//! Version 2 adds the cluster surface: `solve` accepts `"proof":true`
//! (the reply then carries a Merkle inclusion proof), any request may
//! carry `"fwd":true` (an intra-cluster forward — the receiver answers
//! locally instead of re-forwarding), and the peer ops `root`,
//! `entries`, `fetch`, `replicate`, `scrub`, and `sync` drive
//! anti-entropy and repair (see [`crate::cluster`]). All response
//! fields are additive, so v1 clients keep working.

use crate::fpccache::{FPC_DEFAULT_RUNS, FPC_DEFAULT_SEED, FPC_MAX_RUNS};
use crate::merkle::{parse_hash_hex, InclusionProof, ScrubReport};
use act_fpc::{FpcSpec, FpcStats};
use fact::{ModelSpec, TaskSpec};
use serde::{Deserialize, Serialize, Value};

/// Version of the request/response schema.
pub const PROTOCOL_VERSION: u32 = 2;

/// Error code: runtime failure while answering a well-formed query.
pub const CODE_RUNTIME: u64 = 1;
/// Error code: malformed request or spec (the CLI's usage exit code).
pub const CODE_USAGE: u64 = 2;
/// Error code: backpressure — the bounded queue is full, retry later.
pub const CODE_BACKPRESSURE: u64 = 5;
/// Error code: the server is draining and accepts no new queries.
pub const CODE_DRAINING: u64 = 6;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id (0 when omitted).
    pub id: u64,
    /// Whether this line is an intra-cluster forward (`"fwd":true`):
    /// the receiver must answer locally, never forward again.
    pub forwarded: bool,
    /// What the client asked for.
    pub body: RequestBody,
}

/// The operation a request names.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestBody {
    /// Decide `k`-set consensus under `model` deepening to `iters`.
    Solve {
        /// The model, parsed through the canonical parser.
        model: ModelSpec,
        /// The task (validated `k` against the model's process count).
        task: TaskSpec,
        /// Deepening bound `ℓ` (≥ 1).
        iters: usize,
        /// Optional per-request wall-clock budget for the search.
        deadline_ms: Option<u64>,
        /// Whether the reply should carry a Merkle inclusion proof for
        /// a store-committed verdict.
        proof: bool,
    },
    /// Answer an FPC finalization-statistics query from the summary
    /// cache (simulating and committing the batch on a miss).
    Fpc {
        /// The workload, parsed through the canonical `fpc:` parser.
        spec: FpcSpec,
        /// Batch size (1..=[`FPC_MAX_RUNS`]).
        runs: u64,
        /// Batch seed.
        seed: u64,
    },
    /// Snapshot the serving counters.
    Stats,
    /// Drain the queue and stop the server.
    Shutdown,
    /// Peer op: report the store's Merkle root and entry count.
    Root,
    /// Peer op: list every `(entry hash, file hash)` pair.
    Entries,
    /// Peer op: ship one entry's canonical serialized bytes.
    Fetch {
        /// Content address of the wanted entry.
        hash: u128,
    },
    /// Peer op: accept one replicated entry (validated before commit).
    Replicate {
        /// The entry's canonical serialized bytes.
        entry: String,
    },
    /// Operator op: run one scrub pass now and report it.
    Scrub,
    /// Operator op: run one anti-entropy round against every peer now.
    SyncNow,
}

/// Parses one request line. On failure returns `(id, message)` — the id
/// is recovered from the malformed request when possible so the error
/// reply still correlates.
pub fn parse_request(line: &str) -> Result<Request, (u64, String)> {
    let v: Value = serde_json::from_str(line).map_err(|e| (0, format!("bad JSON: {e}")))?;
    let id = opt_u64(&v, "id").unwrap_or(0);
    let fail = |msg: String| (id, msg);
    let op = match v.field("op") {
        Ok(Value::Str(s)) => s.clone(),
        _ => return Err(fail("missing string field `op`".into())),
    };
    let body = match op.as_str() {
        "solve" => {
            let model_text = match v.field("model") {
                Ok(Value::Str(s)) => s.clone(),
                _ => return Err(fail("solve needs a string `model`".into())),
            };
            let model = ModelSpec::parse(&model_text, false).map_err(&fail)?;
            let k =
                opt_u64(&v, "k").ok_or_else(|| fail("solve needs an integer `k`".into()))? as usize;
            let task = TaskSpec::set_consensus(model.num_processes(), k).map_err(&fail)?;
            let iters = opt_u64(&v, "iters").unwrap_or(1) as usize;
            if iters == 0 {
                return Err(fail("iters must be at least 1".into()));
            }
            RequestBody::Solve {
                model,
                task,
                iters,
                deadline_ms: opt_u64(&v, "deadline_ms"),
                proof: opt_bool(&v, "proof"),
            }
        }
        "fpc" => {
            let spec_text = match v.field("spec") {
                Ok(Value::Str(s)) => s.clone(),
                _ => return Err(fail("fpc needs a string `spec`".into())),
            };
            let spec = FpcSpec::parse(&spec_text).map_err(&fail)?;
            let runs = opt_u64(&v, "runs").unwrap_or(FPC_DEFAULT_RUNS);
            if !(1..=FPC_MAX_RUNS).contains(&runs) {
                return Err(fail(format!("fpc runs must be in 1..={FPC_MAX_RUNS}")));
            }
            RequestBody::Fpc {
                spec,
                runs,
                seed: opt_u64(&v, "seed").unwrap_or(FPC_DEFAULT_SEED),
            }
        }
        "stats" => RequestBody::Stats,
        "shutdown" => RequestBody::Shutdown,
        "root" => RequestBody::Root,
        "entries" => RequestBody::Entries,
        "fetch" => {
            let hash = match v.field("hash") {
                Ok(Value::Str(s)) => parse_hash_hex(s)
                    .ok_or_else(|| fail("fetch needs a 32-hex-digit `hash`".into()))?,
                _ => return Err(fail("fetch needs a string `hash`".into())),
            };
            RequestBody::Fetch { hash }
        }
        "replicate" => {
            let entry = match v.field("entry") {
                Ok(Value::Str(s)) => s.clone(),
                _ => return Err(fail("replicate needs a string `entry`".into())),
            };
            RequestBody::Replicate { entry }
        }
        "scrub" => RequestBody::Scrub,
        "sync" => RequestBody::SyncNow,
        other => return Err(fail(format!("unknown op {other:?}"))),
    };
    Ok(Request {
        id,
        forwarded: opt_bool(&v, "fwd"),
        body,
    })
}

/// An optional unsigned field of a request object.
fn opt_u64(v: &Value, name: &str) -> Option<u64> {
    match v.field(name) {
        Ok(Value::UInt(n)) => Some(*n),
        Ok(Value::Int(n)) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// An optional boolean field of a request object (absent → `false`).
fn opt_bool(v: &Value, name: &str) -> bool {
    matches!(v.field(name), Ok(Value::Bool(true)))
}

/// The backpressure retry hint for a given queue depth: ~10 ms per
/// queued job (a cheap query's service time), capped at one second.
pub fn retry_after_for_depth(queue_depth: u64) -> u64 {
    ((queue_depth + 1) * 10).min(1_000)
}

/// Counter snapshot carried by a `stats` response.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StatsBody {
    /// Queries answered from the store.
    pub hits: u64,
    /// Queries that needed (or joined) an engine run.
    pub misses: u64,
    /// Queries coalesced onto an in-flight identical computation.
    pub coalesced: u64,
    /// Engine runs executed by workers.
    pub engine_runs: u64,
    /// Store entries degraded to misses (truncated / bad checksum).
    pub store_corrupt: u64,
    /// Domain-tower levels served from the tower store (subdivision
    /// rounds the engine did not have to run).
    pub tower_hits: u64,
    /// Tower-store lookups that found nothing and built in-process.
    pub tower_misses: u64,
    /// Tower-store entries degraded to counted misses.
    pub tower_corrupt: u64,
    /// Queries rejected with a backpressure reply.
    pub rejected: u64,
    /// Jobs admitted and waiting for a worker right now.
    pub queue_depth: u64,
    /// Jobs admitted (queued or running) right now.
    pub inflight: u64,
    /// Worker threads serving the queue.
    pub workers: u64,
    /// The store's current Merkle root (32 hex digits; all zeros when
    /// empty).
    pub merkle_root: String,
    /// Entries committed under the Merkle root.
    pub merkle_entries: u64,
    /// Scrub passes completed.
    pub scrub_runs: u64,
    /// Entries scrub found corrupt.
    pub scrub_corrupt: u64,
    /// Corrupt entries scrub repaired from a good copy.
    pub scrub_repaired: u64,
    /// Corrupt entries scrub quarantined (no good copy anywhere).
    pub scrub_quarantined: u64,
    /// Requests forwarded to an owner peer.
    pub peer_forwards: u64,
    /// Forwards that failed over to a replica (an owner was down).
    pub failovers: u64,
    /// Fresh verdicts write-through-replicated to peers.
    pub peer_replications: u64,
    /// Entries pulled from peers by anti-entropy sync.
    pub peer_sync_pulls: u64,
    /// `fpc:` queries answered from a cached summary.
    pub fpc_hits: u64,
    /// `fpc:` queries that simulated the batch.
    pub fpc_misses: u64,
    /// Cached FPC summaries degraded to misses by validate-on-read.
    pub fpc_corrupt: u64,
}

/// One response line (flat; unused fields are `null` on the wire).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the request id (0 when the request carried none).
    pub id: u64,
    /// `solve` | `stats` | `shutdown` | `error`.
    pub op: String,
    /// Whether the request was answered (a non-authoritative verdict is
    /// still `ok: true` — the *request* succeeded).
    pub ok: bool,
    /// Verdict name for `solve` replies.
    pub verdict: Option<String>,
    /// Iteration count of the verdict.
    pub iterations: Option<u64>,
    /// Size of the witnessing map (vertices mapped), for `solvable`.
    pub witness_len: Option<u64>,
    /// Where the answer came from: `store`, `engine`, or `coalesced`.
    pub source: Option<String>,
    /// Whether the verdict is authoritative (`solvable` / `no-map`).
    /// `false` marks `exhausted` / `timed-out`, which are never served
    /// from or written to the persistent store.
    pub authoritative: Option<bool>,
    /// Error message for `error` replies.
    pub error: Option<String>,
    /// Error class for `error` replies (see the module docs).
    pub code: Option<u64>,
    /// Counter snapshot for `stats` replies.
    pub stats: Option<StatsBody>,
    /// Backpressure hint: milliseconds to wait before retrying
    /// (code-5 `error` replies; derived from the queue depth).
    pub retry_after_ms: Option<u64>,
    /// The store's Merkle root (32 hex digits) for `root`, `sync`, and
    /// proof-carrying `solve` replies.
    pub merkle_root: Option<String>,
    /// Entry count under the root, for `root` replies.
    pub entry_count: Option<u64>,
    /// Inclusion proof: the entry's content address.
    pub proof_entry: Option<String>,
    /// Inclusion proof: the hash of the entry's committed bytes.
    pub proof_file: Option<String>,
    /// Inclusion proof: the sibling path, leaf first (`"l:<hex>"` /
    /// `"r:<hex>"`).
    pub proof_path: Option<Vec<String>>,
    /// Entry listing for `entries` replies (`"<entry>:<file>"` hex
    /// pairs).
    pub entries: Option<Vec<String>>,
    /// One entry's canonical serialized bytes, for `fetch` replies.
    pub entry: Option<String>,
    /// Scrub outcome, for `scrub` replies.
    pub scrub: Option<ScrubReport>,
    /// Entries pulled during the round, for `sync` replies.
    pub pulled: Option<u64>,
    /// Finalization statistics, for `fpc` replies.
    pub fpc: Option<FpcStats>,
}

impl Response {
    fn blank(id: u64, op: &str, ok: bool) -> Response {
        Response {
            id,
            op: op.to_string(),
            ok,
            verdict: None,
            iterations: None,
            witness_len: None,
            source: None,
            authoritative: None,
            error: None,
            code: None,
            stats: None,
            retry_after_ms: None,
            merkle_root: None,
            entry_count: None,
            proof_entry: None,
            proof_file: None,
            proof_path: None,
            entries: None,
            entry: None,
            scrub: None,
            pulled: None,
            fpc: None,
        }
    }

    /// A `solve` reply.
    pub fn solve(
        id: u64,
        verdict: &str,
        iterations: u64,
        witness_len: u64,
        source: &str,
        authoritative: bool,
    ) -> Response {
        let mut r = Response::blank(id, "solve", true);
        r.verdict = Some(verdict.to_string());
        r.iterations = Some(iterations);
        r.witness_len = Some(witness_len);
        r.source = Some(source.to_string());
        r.authoritative = Some(authoritative);
        r
    }

    /// An `error` reply.
    pub fn error(id: u64, code: u64, message: &str) -> Response {
        let mut r = Response::blank(id, "error", false);
        r.error = Some(message.to_string());
        r.code = Some(code);
        r
    }

    /// A backpressure (`code` 5) reply with the structured retry hint:
    /// roughly one scheduling quantum per queued job, capped at a
    /// second, so a deep queue pushes clients further out.
    pub fn backpressure(id: u64, queue_depth: u64) -> Response {
        let mut r = Response::error(id, CODE_BACKPRESSURE, "queue full, retry later");
        r.retry_after_ms = Some(retry_after_for_depth(queue_depth));
        r
    }

    /// Attaches a Merkle inclusion proof to a reply (proof-carrying
    /// `solve`).
    pub fn with_proof(mut self, proof: &InclusionProof) -> Response {
        self.proof_entry = Some(format!("{:032x}", proof.entry_hash));
        self.proof_file = Some(format!("{:032x}", proof.file_hash));
        self.proof_path = Some(proof.encode_path());
        self.merkle_root = Some(format!("{:032x}", proof.root));
        self
    }

    /// Extracts and verifies the inclusion proof a reply carries.
    /// `None` when any field is absent, malformed, or fails
    /// verification — callers treat all three identically (an
    /// unverified answer).
    pub fn verified_proof(&self) -> Option<InclusionProof> {
        let proof = InclusionProof::decode(
            self.proof_entry.as_deref()?,
            self.proof_file.as_deref()?,
            self.proof_path.as_deref()?,
            self.merkle_root.as_deref()?,
        )?;
        proof.verify().then_some(proof)
    }

    /// A `root` reply.
    pub fn root(id: u64, root: u128, entry_count: u64) -> Response {
        let mut r = Response::blank(id, "root", true);
        r.merkle_root = Some(format!("{root:032x}"));
        r.entry_count = Some(entry_count);
        r
    }

    /// An `entries` reply listing `(entry hash, file hash)` pairs.
    pub fn entries(id: u64, pairs: &[(u128, u128)]) -> Response {
        let mut r = Response::blank(id, "entries", true);
        r.entries = Some(
            pairs
                .iter()
                .map(|(e, f)| format!("{e:032x}:{f:032x}"))
                .collect(),
        );
        r
    }

    /// Splits an `entries` reply back into hash pairs (malformed items
    /// are dropped — the sync round simply won't pull them).
    pub fn decode_entries(&self) -> Vec<(u128, u128)> {
        self.entries
            .as_deref()
            .unwrap_or(&[])
            .iter()
            .filter_map(|item| {
                let (e, f) = item.split_once(':')?;
                Some((parse_hash_hex(e)?, parse_hash_hex(f)?))
            })
            .collect()
    }

    /// A `fetch` reply (`ok: false` with no entry when the peer does
    /// not hold it).
    pub fn fetch(id: u64, entry: Option<String>) -> Response {
        let mut r = Response::blank(id, "fetch", entry.is_some());
        r.entry = entry;
        r
    }

    /// A `replicate` acknowledgement (`accepted` = the bytes validated
    /// and were committed).
    pub fn replicate(id: u64, accepted: bool) -> Response {
        Response::blank(id, "replicate", accepted)
    }

    /// A `scrub` reply carrying the pass's report and the post-scrub
    /// root.
    pub fn scrub(id: u64, report: ScrubReport, root: u128) -> Response {
        let mut r = Response::blank(id, "scrub", true);
        r.scrub = Some(report);
        r.merkle_root = Some(format!("{root:032x}"));
        r
    }

    /// A `sync` reply: entries pulled this round and the post-sync root.
    pub fn sync(id: u64, pulled: u64, root: u128) -> Response {
        let mut r = Response::blank(id, "sync", true);
        r.pulled = Some(pulled);
        r.merkle_root = Some(format!("{root:032x}"));
        r
    }

    /// An `fpc` reply carrying the batch's finalization statistics and
    /// where they came from (`store` / `engine`).
    pub fn fpc(id: u64, stats: FpcStats, source: &str) -> Response {
        let mut r = Response::blank(id, "fpc", true);
        r.fpc = Some(stats);
        r.source = Some(source.to_string());
        r
    }

    /// A `stats` reply.
    pub fn stats(id: u64, stats: StatsBody) -> Response {
        let mut r = Response::blank(id, "stats", true);
        r.stats = Some(stats);
        r
    }

    /// The `shutdown` acknowledgement, sent after the drain completes.
    pub fn shutdown(id: u64) -> Response {
        Response::blank(id, "shutdown", true)
    }

    /// The response as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|e| {
            format!(
                "{{\"id\":{},\"op\":\"error\",\"ok\":false,\"error\":\"encode: {e}\",\"code\":1}}",
                self.id
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_requests_parse_with_defaults() {
        let r = parse_request(r#"{"op":"solve","id":7,"model":"t-res:3:1","k":1}"#).unwrap();
        assert_eq!(r.id, 7);
        assert!(!r.forwarded);
        match r.body {
            RequestBody::Solve {
                model,
                task,
                iters,
                deadline_ms,
                proof,
            } => {
                assert_eq!(model.canonical_string(), "t-res:3:1");
                assert_eq!(task.canonical_string(), "set-consensus:3:1");
                assert_eq!(iters, 1);
                assert_eq!(deadline_ms, None);
                assert!(!proof);
            }
            other => panic!("expected solve, got {other:?}"),
        }
        let r =
            parse_request(r#"{"op":"solve","model":"k-of:3:2","k":2,"iters":3,"deadline_ms":250}"#)
                .unwrap();
        assert_eq!(r.id, 0);
        assert!(matches!(
            r.body,
            RequestBody::Solve {
                iters: 3,
                deadline_ms: Some(250),
                ..
            }
        ));
    }

    #[test]
    fn malformed_requests_fail_with_correlated_ids() {
        assert_eq!(parse_request("not json").unwrap_err().0, 0);
        let (id, msg) =
            parse_request(r#"{"op":"solve","id":9,"model":"nope:3","k":1}"#).unwrap_err();
        assert_eq!(id, 9);
        assert!(msg.contains("unrecognized model spec"));
        let (id, _) = parse_request(r#"{"op":"solve","id":3,"model":"t-res:3:1"}"#).unwrap_err();
        assert_eq!(id, 3);
        assert!(parse_request(r#"{"op":"frobnicate","id":1}"#).is_err());
        assert!(parse_request(r#"{"id":1}"#).is_err());
        // k out of range is a spec validation error, same as the CLI's.
        assert!(parse_request(r#"{"op":"solve","model":"t-res:3:1","k":3}"#).is_err());
        assert!(parse_request(r#"{"op":"solve","model":"t-res:3:1","k":1,"iters":0}"#).is_err());
    }

    #[test]
    fn proof_and_forward_markers_parse() {
        let r =
            parse_request(r#"{"op":"solve","model":"t-res:3:1","k":1,"proof":true,"fwd":true}"#)
                .unwrap();
        assert!(r.forwarded);
        assert!(matches!(r.body, RequestBody::Solve { proof: true, .. }));
    }

    #[test]
    fn cluster_ops_parse() {
        assert_eq!(
            parse_request(r#"{"op":"root","id":1}"#).unwrap().body,
            RequestBody::Root
        );
        assert_eq!(
            parse_request(r#"{"op":"entries"}"#).unwrap().body,
            RequestBody::Entries
        );
        assert_eq!(
            parse_request(r#"{"op":"scrub"}"#).unwrap().body,
            RequestBody::Scrub
        );
        assert_eq!(
            parse_request(r#"{"op":"sync"}"#).unwrap().body,
            RequestBody::SyncNow
        );
        let hash = format!("{:032x}", 0xabcdu128);
        let r = parse_request(&format!(r#"{{"op":"fetch","hash":"{hash}"}}"#)).unwrap();
        assert_eq!(r.body, RequestBody::Fetch { hash: 0xabcd });
        assert!(parse_request(r#"{"op":"fetch","hash":"zz"}"#).is_err());
        assert!(parse_request(r#"{"op":"fetch"}"#).is_err());
        let r = parse_request(r#"{"op":"replicate","entry":"{}"}"#).unwrap();
        assert_eq!(
            r.body,
            RequestBody::Replicate {
                entry: "{}".to_string()
            }
        );
        assert!(parse_request(r#"{"op":"replicate"}"#).is_err());
    }

    #[test]
    fn backpressure_replies_carry_the_retry_hint() {
        let r = Response::backpressure(3, 7);
        assert_eq!(r.code, Some(CODE_BACKPRESSURE));
        assert_eq!(r.retry_after_ms, Some(80));
        let line = r.encode();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.retry_after_ms, Some(80));
        // The hint grows with depth and saturates at a second.
        assert_eq!(retry_after_for_depth(0), 10);
        assert!(retry_after_for_depth(50) > retry_after_for_depth(5));
        assert_eq!(retry_after_for_depth(1_000_000), 1_000);
    }

    #[test]
    fn cluster_replies_round_trip() {
        let line = Response::root(1, 0xdeadbeef, 4).encode();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(
            back.merkle_root.as_deref(),
            Some(&format!("{:032x}", 0xdeadbeefu128)[..])
        );
        assert_eq!(back.entry_count, Some(4));

        let pairs = vec![(1u128, 2u128), (3, 4)];
        let line = Response::entries(2, &pairs).encode();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.decode_entries(), pairs);

        let line = Response::fetch(3, Some("{\"x\":1}".to_string())).encode();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert!(back.ok);
        assert_eq!(back.entry.as_deref(), Some("{\"x\":1}"));
        assert!(!Response::fetch(3, None).ok);

        let report = ScrubReport {
            checked: 5,
            corrupt: 1,
            repaired: 1,
            quarantined: 0,
            refreshed: 0,
        };
        let line = Response::scrub(4, report.clone(), 7).encode();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.scrub, Some(report));

        let line = Response::sync(5, 2, 7).encode();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.pulled, Some(2));
    }

    #[test]
    fn proof_fields_round_trip_and_verify() {
        use crate::merkle::MerkleIndex;
        let mut idx = MerkleIndex::new();
        for i in 0..5u64 {
            idx.insert(
                crate::content_hash128(format!("e{i}").as_bytes()),
                crate::content_hash128(format!("f{i}").as_bytes()),
            );
        }
        let entry = idx.entries()[2].0;
        let proof = idx.proof(entry).unwrap();
        let line = Response::solve(1, "solvable", 1, 0, "store", true)
            .with_proof(&proof)
            .encode();
        let back: Response = serde_json::from_str(&line).unwrap();
        let verified = back.verified_proof().expect("proof survives the wire");
        assert_eq!(verified, proof);
        // A tampered wire proof is indistinguishable from no proof.
        let mut tampered = back.clone();
        tampered.proof_file = Some(format!("{:032x}", proof.file_hash ^ 1));
        assert!(tampered.verified_proof().is_none());
        assert!(Response::solve(1, "solvable", 1, 0, "store", true)
            .verified_proof()
            .is_none());
    }

    #[test]
    fn fpc_requests_parse_and_replies_round_trip() {
        let r = parse_request(r#"{"op":"fpc","id":4,"spec":"fpc:32:8:berserk"}"#).unwrap();
        match r.body {
            RequestBody::Fpc { spec, runs, seed } => {
                assert_eq!(spec.canonical_string(), "fpc:32:8:berserk:10:500");
                assert_eq!(runs, FPC_DEFAULT_RUNS);
                assert_eq!(seed, FPC_DEFAULT_SEED);
            }
            other => panic!("expected fpc, got {other:?}"),
        }
        let r =
            parse_request(r#"{"op":"fpc","spec":"fpc:16:4:cautious:5:700","runs":500,"seed":9}"#)
                .unwrap();
        assert!(matches!(
            r.body,
            RequestBody::Fpc {
                runs: 500,
                seed: 9,
                ..
            }
        ));
        // Malformed specs and out-of-range batches are usage errors.
        assert!(parse_request(r#"{"op":"fpc","spec":"fpc:1:0:cautious"}"#).is_err());
        assert!(parse_request(r#"{"op":"fpc","spec":"t-res:3:1"}"#).is_err());
        assert!(parse_request(r#"{"op":"fpc"}"#).is_err());
        assert!(parse_request(r#"{"op":"fpc","spec":"fpc:8:0:cautious","runs":0}"#).is_err());

        let stats = act_fpc::run_stats(&FpcSpec::parse("fpc:8:2:berserk:3:500").unwrap(), 10, 3);
        let line = Response::fpc(4, stats.clone(), "engine").encode();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.fpc, Some(stats));
        assert_eq!(back.source.as_deref(), Some("engine"));
        assert!(back.ok);
    }

    #[test]
    fn stats_and_shutdown_parse() {
        assert_eq!(
            parse_request(r#"{"op":"stats","id":2}"#).unwrap().body,
            RequestBody::Stats
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap().body,
            RequestBody::Shutdown
        );
    }

    #[test]
    fn responses_encode_and_reparse() {
        let line = Response::solve(4, "solvable", 1, 30, "store", true).encode();
        let v: Value = serde_json::from_str(&line).unwrap();
        assert!(matches!(v.field("verdict"), Ok(Value::Str(s)) if s == "solvable"));
        assert!(matches!(v.field("ok"), Ok(Value::Bool(true))));
        assert!(matches!(v.field("authoritative"), Ok(Value::Bool(true))));
        assert!(matches!(v.field("error"), Ok(Value::Null)));

        let line = Response::error(0, CODE_USAGE, "bad spec").encode();
        let v: Value = serde_json::from_str(&line).unwrap();
        assert!(matches!(v.field("code"), Ok(Value::UInt(2))));

        let round: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(round.code, Some(CODE_USAGE));
        assert!(!round.ok);

        let line = Response::stats(1, StatsBody::default()).encode();
        let v: Value = serde_json::from_str(&line).unwrap();
        assert!(v.field("stats").unwrap().field("hits").is_ok());
    }

    /// Every request line the tests above feed to [`parse_request`] —
    /// the seed corpus of the wire-parser fuzzing below.
    const REQUEST_LINES: &[&str] = &[
        r#"{"op":"solve","id":7,"model":"t-res:3:1","k":1}"#,
        r#"{"op":"solve","model":"k-of:3:2","k":2,"iters":3,"deadline_ms":250}"#,
        "not json",
        r#"{"op":"solve","id":9,"model":"nope:3","k":1}"#,
        r#"{"op":"solve","id":3,"model":"t-res:3:1"}"#,
        r#"{"op":"frobnicate","id":1}"#,
        r#"{"id":1}"#,
        r#"{"op":"solve","model":"t-res:3:1","k":3}"#,
        r#"{"op":"solve","model":"t-res:3:1","k":1,"iters":0}"#,
        r#"{"op":"solve","model":"t-res:3:1","k":1,"proof":true,"fwd":true}"#,
        r#"{"op":"root","id":1}"#,
        r#"{"op":"entries"}"#,
        r#"{"op":"scrub"}"#,
        r#"{"op":"sync"}"#,
        r#"{"op":"fetch","hash":"0000000000000000000000000000abcd"}"#,
        r#"{"op":"fetch","hash":"zz"}"#,
        r#"{"op":"fetch"}"#,
        r#"{"op":"replicate","entry":"{}"}"#,
        r#"{"op":"replicate"}"#,
        r#"{"op":"fpc","id":4,"spec":"fpc:32:8:berserk"}"#,
        r#"{"op":"fpc","spec":"fpc:16:4:cautious:5:700","runs":500,"seed":9}"#,
        r#"{"op":"fpc","spec":"fpc:1:0:cautious"}"#,
        r#"{"op":"fpc","spec":"t-res:3:1"}"#,
        r#"{"op":"fpc"}"#,
        r#"{"op":"fpc","spec":"fpc:8:0:cautious","runs":0}"#,
        r#"{"op":"stats","id":2}"#,
        r#"{"op":"shutdown"}"#,
    ];

    #[test]
    fn every_strict_prefix_of_a_request_line_is_an_error() {
        for line in REQUEST_LINES {
            for cut in 0..line.len() {
                let prefix = &line[..cut];
                assert!(
                    parse_request(prefix).is_err(),
                    "truncated line {prefix:?} parsed as a request"
                );
            }
        }
    }

    #[test]
    fn deeply_nested_lines_are_errors_not_stack_overflows() {
        // A megabyte of openers used to recurse once per byte and abort
        // the whole server on a stack overflow.
        for opener in ["[", r#"{"op":"#] {
            let line = opener.repeat(1_000_000);
            assert!(parse_request(&line).is_err());
        }
        let nested_ok = format!(
            r#"{{"op":"stats","x":{}{}}}"#,
            "[".repeat(100),
            "]".repeat(100)
        );
        assert_eq!(parse_request(&nested_ok).unwrap().body, RequestBody::Stats);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn arbitrary_bytes_never_panic_the_parser(
            bytes in proptest::collection::vec(0u8..=255, 0..200)
        ) {
            let _ = parse_request(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn mutated_request_lines_never_panic_the_parser(
            mutation in (0..REQUEST_LINES.len(), 0usize..80, 0u8..=255, 0u8..=1)
        ) {
            let (which, at, byte, insert) = mutation;
            // One byte overwritten or inserted somewhere in a real line:
            // reaches the field decoders and spec parsers, which random
            // bytes almost never do.
            let mut bytes = REQUEST_LINES[which].as_bytes().to_vec();
            let at = at.min(bytes.len());
            if insert == 1 || at == bytes.len() {
                bytes.insert(at, byte);
            } else {
                bytes[at] = byte;
            }
            let _ = parse_request(&String::from_utf8_lossy(&bytes));
        }
    }
}
