//! The peer layer: consistent-hash ownership, write-through
//! replication, forwarding/failover, and Merkle-root-diff anti-entropy.
//!
//! A cluster is N `fact-serve` processes started with the *same*
//! ordered peer list (`--peers a:1,b:2,c:3 --self-index i`). Identity
//! is positional: ring points are hashed from the peer *index*, so the
//! ring is identical on every peer by construction and needs no
//! membership protocol — the fleet is static, which is the right size
//! of solution for a reproduction's serving tier.
//!
//! **Ownership.** Each peer projects [`VNODES`] points onto the
//! 128-bit hash circle; an entry's owners are the first
//! [`ClusterConfig::replication`] *distinct* peers clockwise from the
//! entry's content address. With replication 2 (the default), every
//! verdict lives on two peers, so any single failure leaves a serving
//! copy.
//!
//! **Query path.** A `solve` landing on a non-owner is forwarded to an
//! owner (counted by `serve.peer.forwards`); if the first owner is
//! down, the forward fails over to the next (`serve.peer.failovers`).
//! A forwarded line carries `"fwd":true`, and a forwarded request is
//! always answered locally — forwarding is depth-one, so a stale or
//! disagreeing ring cannot loop. If every remote owner is down, the
//! receiving peer answers locally itself (the store is content-addressed,
//! so a non-owner computing an answer is merely unplaced, never wrong).
//!
//! **Write path.** A fresh authoritative verdict is write-through
//! replicated to the other owners (`serve.peer.replications`), each of
//! which validates the bytes before committing them.
//!
//! **Anti-entropy.** A background round ([`Cluster::sync`]) compares
//! Merkle roots with each peer (one RPC); on divergence it pulls the
//! peer's entry list, fetches entries this store lacks (or holds with
//! different bytes), validates, and commits them. Convergence is
//! therefore O(diff), and two idle peers provably agree when their
//! roots match.

use std::time::Duration;

use crate::protocol::Response;
use crate::store::VerdictStore;
use crate::wire;
use crate::{
    SERVE_MERKLE_MISMATCH, SERVE_PEER_FAILOVERS, SERVE_PEER_FORWARDS, SERVE_PEER_REPLICATIONS,
    SERVE_PEER_SYNC_PULLS, SERVE_PEER_UNREACHABLE,
};

/// Default replication factor: every entry on two peers.
pub const REPLICATION_FACTOR: usize = 2;

/// Virtual nodes per unit of peer weight on the hash circle — enough
/// to spread ownership evenly across a handful of peers without making
/// the ring scan noticeable. A peer of weight `w` projects
/// `w * VNODES` points.
const VNODES: usize = 16;

/// Cap on a single peer's ring weight: beyond this the point count
/// stops buying placement smoothness and only slows the ring scan.
pub const MAX_RING_WEIGHT: usize = 64;

/// Static cluster topology, identical on every peer.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Peer addresses (`host:port`) in ring order. Every peer must be
    /// started with the same list in the same order.
    pub peers: Vec<String>,
    /// This process's position in `peers`.
    pub self_index: usize,
    /// Number of distinct owners per entry (clamped to the peer count).
    pub replication: usize,
    /// Per-peer ring weights (parallel to `peers`; empty means every
    /// peer weighs 1). Must be identical on every peer, like `peers`.
    pub weights: Vec<usize>,
    /// Peer connect timeout.
    pub connect_timeout_ms: u64,
    /// Peer read/write timeout.
    pub io_timeout_ms: u64,
}

impl ClusterConfig {
    /// A cluster of `peers` with this process at `self_index`, using
    /// the default replication factor, uniform weights, and timeouts.
    pub fn new(peers: Vec<String>, self_index: usize) -> ClusterConfig {
        ClusterConfig {
            peers,
            self_index,
            replication: REPLICATION_FACTOR,
            weights: Vec::new(),
            connect_timeout_ms: 250,
            io_timeout_ms: 5_000,
        }
    }

    /// The effective per-peer weights: `weights` when set, else 1 for
    /// every peer.
    pub fn effective_weights(&self) -> Vec<usize> {
        if self.weights.is_empty() {
            vec![1; self.peers.len()]
        } else {
            self.weights.clone()
        }
    }

    /// Whether this "cluster" is a single process (no peer traffic).
    pub fn is_single(&self) -> bool {
        self.peers.len() <= 1
    }
}

/// The consistent-hash ring: every peer's virtual points, sorted around
/// the 128-bit circle. Built from peer *indices*, so identical peer
/// lists build identical rings.
#[derive(Clone, Debug)]
pub struct PeerRing {
    points: Vec<(u128, usize)>,
    num_peers: usize,
}

/// Finalizing avalanche over both halves of a hash. FNV-1a's high bits
/// correlate across short, similar inputs (ring labels, store keys),
/// which skews arc lengths badly; scrambling every value placed on or
/// looked up against the ring restores uniform placement while staying
/// a pure function of the input — every peer still computes the same
/// ring.
fn scramble(h: u128) -> u128 {
    let lo = splitmix64(h as u64);
    let hi = splitmix64((h >> 64) as u64 ^ 0x9e37_79b9_7f4a_7c15);
    ((hi as u128) << 64) | lo as u128
}

/// The splitmix64 finalizer (same constants as the runtime fault
/// plans').
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl PeerRing {
    /// The uniform ring over `num_peers` peers (every peer weighs 1).
    pub fn new(num_peers: usize) -> PeerRing {
        PeerRing::new_weighted(&vec![1; num_peers])
    }

    /// The ring where peer `i` projects `weights[i] * VNODES` points.
    /// A zero weight keeps the peer addressable (it can still forward
    /// and sync) but gives it no ownership arc. Point labels include
    /// the vnode index only — not the weight — so growing a peer's
    /// weight *extends* its point set instead of reshuffling it, and
    /// the ring stays identical on every peer that agrees on the
    /// weight vector.
    pub fn new_weighted(weights: &[usize]) -> PeerRing {
        let num_peers = weights.len();
        let mut points = Vec::new();
        for (peer, &weight) in weights.iter().enumerate() {
            for vnode in 0..weight.min(MAX_RING_WEIGHT) * VNODES {
                let point = scramble(crate::content_hash128(
                    format!("fact-ring|{peer}|{vnode}").as_bytes(),
                ));
                points.push((point, peer));
            }
        }
        points.sort_unstable();
        PeerRing { points, num_peers }
    }

    /// The first `replication` *distinct* peers clockwise from `hash` —
    /// the entry's owners, primary first. Clamped to the peer count.
    pub fn owners(&self, hash: u128, replication: usize) -> Vec<usize> {
        let want = replication.clamp(1, self.num_peers.max(1));
        let mut out = Vec::with_capacity(want);
        if self.points.is_empty() {
            return out;
        }
        let start = self.points.partition_point(|&(p, _)| p < scramble(hash));
        for i in 0..self.points.len() {
            let (_, peer) = self.points[(start + i) % self.points.len()];
            if !out.contains(&peer) {
                out.push(peer);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }
}

/// The live cluster handle a server threads through its request loop:
/// topology plus the RPC, replication, and sync verbs.
pub struct Cluster {
    config: ClusterConfig,
    ring: PeerRing,
    /// Held-open connections to the other peers, closed with the handle.
    pool: wire::Pool,
}

impl Cluster {
    /// Builds the handle (and its ring) for `config`.
    pub fn new(config: ClusterConfig) -> Cluster {
        let ring = PeerRing::new_weighted(&config.effective_weights());
        let pool = wire::Pool::new(
            Duration::from_millis(config.connect_timeout_ms),
            Duration::from_millis(config.io_timeout_ms),
        );
        Cluster { config, ring, pool }
    }

    /// The static topology.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The owner peers of `hash`, primary first.
    pub fn owners(&self, hash: u128) -> Vec<usize> {
        self.ring.owners(hash, self.config.replication)
    }

    /// Whether this peer is one of `hash`'s owners.
    pub fn is_owner(&self, hash: u128) -> bool {
        self.owners(hash).contains(&self.config.self_index)
    }

    /// One line-oriented RPC to `peer`: send `line`, read one reply
    /// line. Failures count `serve.peer.unreachable`.
    pub fn rpc(&self, peer: usize, line: &str) -> Result<String, String> {
        let addr = self
            .config
            .peers
            .get(peer)
            .ok_or_else(|| format!("no peer {peer}"))?;
        self.pool.exchange(addr, line).map_err(|e| {
            SERVE_PEER_UNREACHABLE.add(1);
            if act_obs::enabled() {
                act_obs::event("serve.peer.unreachable")
                    .str("peer", addr)
                    .str("error", &e.to_string())
                    .emit();
            }
            format!("peer {addr}: {e}")
        })
    }

    /// Forwards a raw request line to `hash`'s owners, primary first,
    /// failing over down the owner list. Returns the first reply line,
    /// or `None` when every remote owner is down (the caller then
    /// answers locally). The forwarded line carries `"fwd":true`, so
    /// the receiver answers locally — forwarding is depth-one.
    pub fn forward(&self, hash: u128, line: &str) -> Option<String> {
        let marked = mark_forwarded(line);
        let mut tried_one = false;
        for (rank, peer) in self
            .owners(hash)
            .into_iter()
            .filter(|&p| p != self.config.self_index)
            .enumerate()
        {
            match self.rpc(peer, &marked) {
                Ok(reply) => {
                    SERVE_PEER_FORWARDS.add(1);
                    if rank > 0 {
                        SERVE_PEER_FAILOVERS.add(1);
                    }
                    return Some(reply);
                }
                Err(_) => tried_one = true,
            }
        }
        if tried_one {
            // Every remote owner refused: local answering is itself the
            // last failover rung.
            SERVE_PEER_FAILOVERS.add(1);
        }
        None
    }

    /// Write-through replication: ships `hash`'s committed bytes to
    /// every *other* owner. Failures are left to anti-entropy.
    pub fn replicate(&self, store: &VerdictStore, hash: u128) {
        if self.config.is_single() {
            return;
        }
        let Some(entry) = store.raw_entry(hash) else {
            return;
        };
        let line = Response::encode_replicate_request(&entry);
        for peer in self.owners(hash) {
            if peer == self.config.self_index {
                continue;
            }
            if self.rpc(peer, &line).is_ok() {
                SERVE_PEER_REPLICATIONS.add(1);
            }
        }
    }

    /// Fetches one entry's bytes from any peer that holds it (owners
    /// first) — the scrub pass's remote repair source.
    pub fn fetch_entry(&self, hash: u128) -> Option<String> {
        let line = format!("{{\"op\":\"fetch\",\"fwd\":true,\"hash\":\"{hash:032x}\"}}");
        let mut order = self.owners(hash);
        for p in 0..self.config.peers.len() {
            if !order.contains(&p) {
                order.push(p);
            }
        }
        for peer in order {
            if peer == self.config.self_index {
                continue;
            }
            if let Ok(reply) = self.rpc(peer, &line) {
                if let Ok(r) = serde_json::from_str::<Response>(&reply) {
                    if r.ok {
                        if let Some(entry) = r.entry {
                            SERVE_PEER_SYNC_PULLS.add(1);
                            return Some(entry);
                        }
                    }
                }
            }
        }
        None
    }

    /// One anti-entropy round: for each peer, compare Merkle roots; on
    /// divergence, pull its entry list and fetch every entry this store
    /// lacks (or holds with different bytes). Pulled bytes are fully
    /// validated by [`VerdictStore::put_raw_entry`], so a corrupt peer
    /// cannot poison this store. Returns the number of entries pulled.
    pub fn sync(&self, store: &VerdictStore) -> u64 {
        if self.config.is_single() {
            return 0;
        }
        let mut pulled = 0u64;
        for peer in 0..self.config.peers.len() {
            if peer == self.config.self_index {
                continue;
            }
            let Ok(reply) = self.rpc(peer, "{\"op\":\"root\",\"fwd\":true}") else {
                continue;
            };
            let Ok(root_reply) = serde_json::from_str::<Response>(&reply) else {
                continue;
            };
            let local_root = format!("{:032x}", store.merkle_root());
            if root_reply.merkle_root.as_deref() == Some(local_root.as_str()) {
                continue;
            }
            SERVE_MERKLE_MISMATCH.add(1);
            let Ok(reply) = self.rpc(peer, "{\"op\":\"entries\",\"fwd\":true}") else {
                continue;
            };
            let Ok(entries_reply) = serde_json::from_str::<Response>(&reply) else {
                continue;
            };
            let local: std::collections::HashMap<u128, u128> =
                store.entry_list().into_iter().collect();
            for (entry_hash, file_hash) in entries_reply.decode_entries() {
                if local.get(&entry_hash) == Some(&file_hash) {
                    continue;
                }
                if local.contains_key(&entry_hash) {
                    // Same entry, different bytes: both copies validate
                    // or they wouldn't be indexed, and validated bytes
                    // for one content address decode to one verdict —
                    // so this is re-encoding drift, not disagreement.
                    // Keep the local copy; roots still converge because
                    // the peer pulls nothing for this entry either.
                    continue;
                }
                let line =
                    format!("{{\"op\":\"fetch\",\"fwd\":true,\"hash\":\"{entry_hash:032x}\"}}");
                let Ok(reply) = self.rpc(peer, &line) else {
                    continue;
                };
                let Ok(fetch_reply) = serde_json::from_str::<Response>(&reply) else {
                    continue;
                };
                if let Some(entry) = fetch_reply.entry {
                    if store.put_raw_entry(&entry) {
                        pulled += 1;
                        SERVE_PEER_SYNC_PULLS.add(1);
                    }
                }
            }
        }
        if pulled > 0 && act_obs::enabled() {
            act_obs::event("serve.peer.sync")
                .u64("pulled", pulled)
                .str("root", &format!("{:032x}", store.merkle_root()))
                .emit();
        }
        pulled
    }
}

/// Adds the `"fwd":true` marker to a raw request line (assumes the line
/// is a JSON object, which every parsed request is).
fn mark_forwarded(line: &str) -> String {
    let trimmed = line.trim_end();
    if let Some(stripped) = trimmed.strip_suffix('}') {
        if stripped.trim_end().ends_with('{') {
            return format!("{}\"fwd\":true}}", stripped);
        }
        return format!("{stripped},\"fwd\":true}}");
    }
    trimmed.to_string()
}

impl Response {
    /// The request line that ships one replicated entry to a peer.
    pub fn encode_replicate_request(entry: &str) -> String {
        serde_json::to_string(&serde::Value::Map(vec![
            ("op".to_string(), serde::Value::Str("replicate".to_string())),
            ("fwd".to_string(), serde::Value::Bool(true)),
            ("entry".to_string(), serde::Value::Str(entry.to_string())),
        ]))
        .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_are_deterministic_and_balanced() {
        let a = PeerRing::new(4);
        let b = PeerRing::new(4);
        let mut counts = [0usize; 4];
        for i in 0..1_000u64 {
            let hash = crate::content_hash128(format!("key-{i}").as_bytes());
            let oa = a.owners(hash, 2);
            assert_eq!(oa, b.owners(hash, 2), "identical rings, identical owners");
            assert_eq!(oa.len(), 2);
            assert_ne!(oa[0], oa[1], "owners are distinct");
            counts[oa[0]] += 1;
        }
        for (peer, &n) in counts.iter().enumerate() {
            assert!(
                n > 100,
                "peer {peer} owns {n}/1000 primaries — unbalanced ring"
            );
        }
    }

    #[test]
    fn weighted_rings_skew_primary_ownership_toward_heavy_peers() {
        // Peer 0 weighs 3, the rest weigh 1: it should own roughly
        // half the primaries (3 of 6 weight units), and certainly far
        // more than a uniform quarter.
        let ring = PeerRing::new_weighted(&[3, 1, 1, 1]);
        let mut counts = [0usize; 4];
        for i in 0..2_000u64 {
            let hash = crate::content_hash128(format!("wkey-{i}").as_bytes());
            let owners = ring.owners(hash, 2);
            assert_eq!(owners.len(), 2);
            counts[owners[0]] += 1;
        }
        assert!(
            counts[0] > 700,
            "weight-3 peer owns {}/2000 primaries — weights not honored",
            counts[0]
        );
        for (peer, &n) in counts.iter().enumerate().skip(1) {
            assert!(n > 100, "peer {peer} owns {n}/2000 primaries");
        }
    }

    #[test]
    fn growing_a_weight_extends_rather_than_reshuffles_the_point_set() {
        // Every point of the lighter ring appears in the heavier one:
        // raising a peer's weight only *adds* arcs, so most keys keep
        // their owners (bounded data movement, the consistent-hashing
        // point).
        let light = PeerRing::new_weighted(&[1, 1, 1]);
        let heavy = PeerRing::new_weighted(&[1, 2, 1]);
        for p in &light.points {
            assert!(heavy.points.contains(p));
        }
        let mut moved = 0usize;
        for i in 0..1_000u64 {
            let hash = crate::content_hash128(format!("gkey-{i}").as_bytes());
            if light.owners(hash, 1) != heavy.owners(hash, 1) {
                moved += 1;
            }
        }
        assert!(
            moved < 500,
            "{moved}/1000 primaries moved — reshuffled ring"
        );
    }

    #[test]
    fn zero_weight_peers_own_nothing_but_stay_addressable() {
        let ring = PeerRing::new_weighted(&[1, 0, 1]);
        for i in 0..500u64 {
            let hash = crate::content_hash128(format!("zkey-{i}").as_bytes());
            let owners = ring.owners(hash, 3);
            assert!(!owners.contains(&1), "zero-weight peer owns {hash:x}");
        }
        // The config layer still counts it as a peer (it can forward,
        // sync, and serve fetches — it just holds no primary arc).
        let mut config = ClusterConfig::new(vec!["a:1".into(), "b:2".into(), "c:3".into()], 1);
        config.weights = vec![1, 0, 1];
        let cluster = Cluster::new(config);
        assert_eq!(cluster.config().peers.len(), 3);
        assert!(!cluster.is_owner(42));
    }

    #[test]
    fn replication_factor_is_config_driven() {
        let peers = vec!["a:1".into(), "b:2".into(), "c:3".into(), "d:4".into()];
        let mut config = ClusterConfig::new(peers, 0);
        assert_eq!(config.replication, REPLICATION_FACTOR);
        config.replication = 3;
        let cluster = Cluster::new(config);
        for i in 0..100u64 {
            let hash = crate::content_hash128(format!("rkey-{i}").as_bytes());
            let owners = cluster.owners(hash);
            assert_eq!(owners.len(), 3);
            let mut dedup = owners.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "owners must be distinct peers");
        }
    }

    #[test]
    fn replication_is_clamped_to_the_peer_count() {
        let ring = PeerRing::new(2);
        let owners = ring.owners(42, 5);
        assert_eq!(owners.len(), 2);
        let solo = PeerRing::new(1);
        assert_eq!(solo.owners(42, 2), vec![0]);
    }

    #[test]
    fn every_peer_agrees_on_ownership() {
        let configs: Vec<Cluster> = (0..3)
            .map(|i| {
                Cluster::new(ClusterConfig::new(
                    vec!["a:1".into(), "b:2".into(), "c:3".into()],
                    i,
                ))
            })
            .collect();
        for i in 0..200u64 {
            let hash = crate::content_hash128(format!("q{i}").as_bytes());
            let owners = configs[0].owners(hash);
            for c in &configs[1..] {
                assert_eq!(c.owners(hash), owners);
            }
            // Exactly the owner peers say "mine".
            for (idx, c) in configs.iter().enumerate() {
                assert_eq!(c.is_owner(hash), owners.contains(&idx));
            }
        }
    }

    #[test]
    fn forward_marking_is_idempotent_json() {
        let marked = mark_forwarded(r#"{"op":"solve","id":1,"model":"t-res:3:1","k":2}"#);
        let parsed = crate::protocol::parse_request(&marked).unwrap();
        assert!(parsed.forwarded);
        let marked_empty = mark_forwarded("{}");
        assert!(serde_json::from_str::<serde::Value>(&marked_empty).is_ok());
    }

    #[test]
    fn replicate_request_lines_parse() {
        let line = Response::encode_replicate_request("{\"format\":1}");
        let parsed = crate::protocol::parse_request(&line).unwrap();
        assert!(parsed.forwarded);
        assert_eq!(
            parsed.body,
            crate::protocol::RequestBody::Replicate {
                entry: "{\"format\":1}".to_string()
            }
        );
    }
}
