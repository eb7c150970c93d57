//! The resilient client path: deadline propagation, jittered
//! exponential backoff, backpressure honoring, and replica fallback.
//!
//! A [`ClusterClient`] holds the full peer list and answers one request
//! at a time. Its retry loop classifies every failure:
//!
//! * **connect / io errors, dropped connections** — transient: rotate
//!   to the next peer and retry after a jittered exponential backoff
//!   (`serve.client.retries`);
//! * **backpressure (code 5)** — the server said *when* to come back:
//!   honor the reply's `retry_after_ms` (still jittered, so a thundering
//!   herd of clients decorrelates) instead of the generic backoff;
//! * **draining (code 6)** — this peer is going away: rotate
//!   immediately;
//! * **usage (code 2)** — deterministic: never retried, the request
//!   itself is wrong;
//! * **runtime (code 1)** — an answered failure, returned to the caller
//!   (the server already ran the engine; retrying re-runs a
//!   deterministic computation).
//!
//! A caller-supplied deadline bounds the *whole* loop and propagates:
//! every attempt re-encodes the request with the remaining budget as
//! its `deadline_ms`, so a retried query never asks a server for more
//! time than the client has left. The jitter stream is seeded
//! ([`ClusterClient::new`] takes the seed), keeping chaos runs
//! replayable end to end.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::protocol::{Response, CODE_BACKPRESSURE, CODE_DRAINING, CODE_USAGE};
use crate::wire;
use crate::SERVE_CLIENT_RETRIES;

/// Retry shape of one [`ClusterClient`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts across all peers before giving up.
    pub max_attempts: usize,
    /// First backoff (doubled each retry, jittered 0.5–1.5×).
    pub base_backoff_ms: u64,
    /// Backoff ceiling.
    pub max_backoff_ms: u64,
    /// Per-attempt connect timeout.
    pub connect_timeout_ms: u64,
    /// Per-attempt read/write timeout.
    pub io_timeout_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 15,
            max_backoff_ms: 500,
            connect_timeout_ms: 250,
            io_timeout_ms: 10_000,
        }
    }
}

/// Why a request ultimately failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The request is malformed (server code 2) — retrying cannot help.
    Usage(String),
    /// The caller's deadline expired before any peer answered.
    DeadlineExceeded(String),
    /// Every attempt failed transiently (all peers down or saturated).
    Unavailable(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Usage(m) => write!(f, "usage: {m}"),
            ClientError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
            ClientError::Unavailable(m) => write!(f, "unavailable: {m}"),
        }
    }
}

/// A retrying, failover-aware client over a peer list.
pub struct ClusterClient {
    peers: Vec<String>,
    policy: RetryPolicy,
    rng: Mutex<ChaCha8Rng>,
    // Rotates across requests so one client spreads load, and advances
    // on failure so the next request skips a peer just seen down.
    preferred: AtomicUsize,
}

impl ClusterClient {
    /// A client over `peers` with the default policy; `seed` fixes the
    /// jitter stream (chaos replays pass the plan's seed).
    pub fn new(peers: Vec<String>, seed: u64) -> ClusterClient {
        ClusterClient::with_policy(peers, seed, RetryPolicy::default())
    }

    /// A client with an explicit [`RetryPolicy`].
    pub fn with_policy(peers: Vec<String>, seed: u64, policy: RetryPolicy) -> ClusterClient {
        ClusterClient {
            peers,
            policy,
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(seed)),
            preferred: AtomicUsize::new(0),
        }
    }

    /// The peer list this client rotates over.
    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    /// Decides `k`-set consensus under `model`, deepening to `iters`.
    /// `deadline_ms` bounds the whole retry loop *and* propagates to
    /// the server (each attempt carries the remaining budget);
    /// `proof` asks for a Merkle inclusion proof on store-committed
    /// verdicts.
    pub fn solve(
        &self,
        model: &str,
        k: usize,
        iters: usize,
        proof: bool,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        let started = Instant::now();
        self.request_with(deadline_ms, |remaining_ms| {
            let mut line = format!(
                "{{\"op\":\"solve\",\"id\":1,\"model\":{},\"k\":{k},\"iters\":{iters}",
                encode_json_string(model)
            );
            if proof {
                line.push_str(",\"proof\":true");
            }
            if let Some(ms) = remaining_ms {
                line.push_str(&format!(",\"deadline_ms\":{ms}"));
            }
            line.push('}');
            line
        })
        .map_err(|e| at_deadline(e, started, deadline_ms))
    }

    /// Snapshots one peer's serving counters (rotating on failure like
    /// any other request).
    pub fn stats(&self) -> Result<Response, ClientError> {
        self.request_with(None, |_| "{\"op\":\"stats\",\"id\":1}".to_string())
    }

    /// Sends one fixed request line through the retry loop.
    pub fn request(&self, line: &str, deadline_ms: Option<u64>) -> Result<Response, ClientError> {
        self.request_with(deadline_ms, |_| line.to_string())
    }

    /// The retry loop. `encode` rebuilds the request line per attempt
    /// from the remaining deadline budget (deadline propagation).
    fn request_with(
        &self,
        deadline_ms: Option<u64>,
        encode: impl Fn(Option<u64>) -> String,
    ) -> Result<Response, ClientError> {
        if self.peers.is_empty() {
            return Err(ClientError::Unavailable("no peers configured".into()));
        }
        let started = Instant::now();
        let deadline = deadline_ms.map(Duration::from_millis);
        let mut last_error = String::new();
        let start_peer = self.preferred.load(Ordering::Relaxed);
        for attempt in 0..self.policy.max_attempts {
            let remaining_ms = match remaining(started, deadline) {
                Ok(ms) => ms,
                Err(()) => return Err(ClientError::DeadlineExceeded(last_error)),
            };
            let peer = (start_peer + attempt) % self.peers.len();
            let line = encode(remaining_ms);
            match self.send_once(&self.peers[peer], &line) {
                Ok(reply) => match reply.code {
                    Some(CODE_USAGE) => {
                        return Err(ClientError::Usage(
                            reply.error.unwrap_or_else(|| "usage error".into()),
                        ))
                    }
                    Some(CODE_BACKPRESSURE) => {
                        last_error = format!(
                            "peer {} backpressure (retry_after {:?} ms)",
                            self.peers[peer], reply.retry_after_ms
                        );
                        // Honor the server's hint over the generic
                        // schedule; jitter decorrelates the herd.
                        let wait = reply
                            .retry_after_ms
                            .unwrap_or_else(|| self.backoff_ms(attempt));
                        self.retry_sleep(wait, started, deadline, &last_error)?;
                    }
                    Some(CODE_DRAINING) => {
                        last_error = format!("peer {} draining", self.peers[peer]);
                        SERVE_CLIENT_RETRIES.add(1);
                        self.preferred.store(peer + 1, Ordering::Relaxed);
                        // No sleep: another peer can answer right now.
                    }
                    _ => {
                        self.preferred.store(peer, Ordering::Relaxed);
                        return Ok(reply);
                    }
                },
                Err(e) => {
                    last_error = format!("peer {}: {e}", self.peers[peer]);
                    self.preferred.store(peer + 1, Ordering::Relaxed);
                    self.retry_sleep(self.backoff_ms(attempt), started, deadline, &last_error)?;
                }
            }
        }
        Err(ClientError::Unavailable(format!(
            "{} attempts exhausted; last: {last_error}",
            self.policy.max_attempts
        )))
    }

    /// One wire exchange with one peer.
    fn send_once(&self, addr: &str, line: &str) -> Result<Response, String> {
        let reply = wire::exchange(
            addr,
            line,
            Duration::from_millis(self.policy.connect_timeout_ms),
            Duration::from_millis(self.policy.io_timeout_ms),
        )
        .map_err(|e| e.to_string())?;
        serde_json::from_str::<Response>(&reply).map_err(|e| format!("bad reply: {e}"))
    }

    /// The attempt's exponential backoff with multiplicative 0.5–1.5×
    /// jitter from the seeded stream.
    fn backoff_ms(&self, attempt: usize) -> u64 {
        let base = self
            .policy
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(10))
            .min(self.policy.max_backoff_ms);
        let jitter_permille = self
            .rng
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .gen_range(500..=1500u64);
        (base * jitter_permille / 1000).max(1)
    }

    /// Counts a retry and sleeps `wait_ms`, truncated to the remaining
    /// deadline (and failing if none remains).
    fn retry_sleep(
        &self,
        wait_ms: u64,
        started: Instant,
        deadline: Option<Duration>,
        context: &str,
    ) -> Result<(), ClientError> {
        SERVE_CLIENT_RETRIES.add(1);
        let wait = match remaining(started, deadline) {
            Ok(Some(ms)) if ms <= wait_ms => {
                return Err(ClientError::DeadlineExceeded(context.to_string()))
            }
            Ok(_) => wait_ms,
            Err(()) => return Err(ClientError::DeadlineExceeded(context.to_string())),
        };
        std::thread::sleep(Duration::from_millis(wait));
        Ok(())
    }
}

/// Remaining budget in ms (`Ok(None)` when unbounded, `Err` when
/// exhausted).
fn remaining(started: Instant, deadline: Option<Duration>) -> Result<Option<u64>, ()> {
    match deadline {
        None => Ok(None),
        Some(d) => {
            let elapsed = started.elapsed();
            if elapsed >= d {
                Err(())
            } else {
                Ok(Some((d - elapsed).as_millis() as u64))
            }
        }
    }
}

/// Refines a terminal transient failure into a deadline failure when
/// the budget is what actually ran out.
fn at_deadline(e: ClientError, started: Instant, deadline_ms: Option<u64>) -> ClientError {
    if let (ClientError::Unavailable(m), Some(ms)) = (&e, deadline_ms) {
        if started.elapsed() >= Duration::from_millis(ms) {
            return ClientError::DeadlineExceeded(m.clone());
        }
    }
    e
}

/// Encodes a string as a JSON literal (model specs contain no exotic
/// characters, but quoting stays correct regardless).
fn encode_json_string(s: &str) -> String {
    serde_json::to_string(&s.to_string()).unwrap_or_else(|_| format!("\"{s}\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_jitters_within_bounds() {
        let client = ClusterClient::new(vec!["127.0.0.1:1".into()], 7);
        for attempt in 0..6 {
            let base = RetryPolicy::default()
                .base_backoff_ms
                .saturating_mul(1 << attempt)
                .min(RetryPolicy::default().max_backoff_ms);
            for _ in 0..32 {
                let b = client.backoff_ms(attempt);
                assert!(b >= base / 2 && b <= base * 3 / 2, "attempt {attempt}: {b}");
            }
        }
        // Seeded stream: two clients with one seed produce one schedule.
        let a = ClusterClient::new(vec!["127.0.0.1:1".into()], 9);
        let b = ClusterClient::new(vec!["127.0.0.1:1".into()], 9);
        let seq_a: Vec<u64> = (0..8).map(|i| a.backoff_ms(i)).collect();
        let seq_b: Vec<u64> = (0..8).map(|i| b.backoff_ms(i)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn no_peers_and_dead_peers_fail_cleanly() {
        let none = ClusterClient::new(Vec::new(), 1);
        assert!(matches!(none.stats(), Err(ClientError::Unavailable(_))));
        // A port from the reserved block nothing listens on; a tight
        // policy keeps the test fast.
        let dead = ClusterClient::with_policy(
            vec!["127.0.0.1:1".into()],
            1,
            RetryPolicy {
                max_attempts: 2,
                base_backoff_ms: 1,
                max_backoff_ms: 2,
                connect_timeout_ms: 50,
                io_timeout_ms: 50,
            },
        );
        assert!(matches!(dead.stats(), Err(ClientError::Unavailable(_))));
    }

    #[test]
    fn deadlines_bound_the_retry_loop() {
        let dead = ClusterClient::with_policy(
            vec!["127.0.0.1:1".into()],
            1,
            RetryPolicy {
                max_attempts: 100,
                base_backoff_ms: 20,
                max_backoff_ms: 100,
                connect_timeout_ms: 50,
                io_timeout_ms: 50,
            },
        );
        let started = Instant::now();
        let result = dead.solve("t-res:3:1", 1, 1, false, Some(80));
        assert!(
            matches!(
                result,
                Err(ClientError::DeadlineExceeded(_)) | Err(ClientError::Unavailable(_))
            ),
            "got {result:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the deadline cut the loop short"
        );
    }

    #[test]
    fn remaining_budget_math() {
        let t = Instant::now();
        assert_eq!(remaining(t, None), Ok(None));
        let r = remaining(t, Some(Duration::from_millis(10_000))).unwrap();
        assert!(r.is_some_and(|ms| ms <= 10_000 && ms > 9_000));
        assert!(remaining(
            t - Duration::from_millis(10),
            Some(Duration::from_millis(5))
        )
        .is_err());
    }

    #[test]
    fn json_string_encoding_quotes() {
        assert_eq!(encode_json_string("t-res:3:1"), "\"t-res:3:1\"");
    }
}
