//! End-to-end cluster tests over real sockets: in-process peers built
//! with `spawn_server`, exercised through the resilient `ClusterClient`
//! — placement + replication, non-owner forwarding, failover past a
//! dead peer, held-open connections ending at a peer's stop, and
//! Merkle-root convergence after a restart.
//!
//! The peers share this test process, so the `serve.peer.*` counters
//! are cluster-wide totals here; assertions use store contents (which
//! are per-peer) wherever per-peer attribution matters.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};

use act_service::{
    spawn_server, ClusterClient, ClusterConfig, ServeOptions, ServerHandle, StoreKey,
};
use fact::{ModelSpec, TaskSpec};

/// Serializes the tests: they bind sockets and diff process-global
/// counters.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fact-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(model: &str, k: usize) -> StoreKey {
    let model = ModelSpec::parse(model, false).unwrap();
    let task = TaskSpec::set_consensus(model.num_processes(), k).unwrap();
    StoreKey::new(&model, &task, 1)
}

/// Binds `n` ephemeral listeners up front so every peer can be
/// configured with the full address list before any server starts.
fn bind_peers(n: usize) -> (Vec<TcpListener>, Vec<String>) {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();
    (listeners, addrs)
}

fn spawn_cluster(listeners: Vec<TcpListener>, addrs: &[String]) -> Vec<ServerHandle> {
    listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let options = ServeOptions {
                cluster: Some(ClusterConfig::new(addrs.to_vec(), i)),
                ..ServeOptions::default()
            };
            spawn_server(&options, listener).unwrap()
        })
        .collect()
}

#[test]
fn solves_replicate_to_every_owner_and_only_owners() {
    let _serial = serial();
    let (listeners, addrs) = bind_peers(3);
    let handles = spawn_cluster(listeners, &addrs);
    let k = key("t-res:3:1", 2);
    let hash = k.content_hash();

    // Ask the whole cluster (the client may land on any peer, including
    // the non-owner — forwarding makes that invisible).
    let client = ClusterClient::new(addrs.clone(), 1);
    let resp = client
        .solve("t-res:3:1", 2, 1, false, Some(30_000))
        .unwrap();
    assert!(resp.ok);
    assert_eq!(resp.verdict.as_deref(), Some("solvable"));
    assert_eq!(resp.authoritative, Some(true));

    // Write-through replication is synchronous in the worker, but give
    // the sockets a beat on slow machines.
    let owners = act_service::PeerRing::new(3).owners(hash, act_service::REPLICATION_FACTOR);
    assert_eq!(owners.len(), 2, "replication factor 2 of 3 peers");
    for deadline in 0..100 {
        let all_placed = owners
            .iter()
            .all(|&i| handles[i].scheduler().store().raw_entry(hash).is_some());
        if all_placed {
            break;
        }
        assert!(deadline < 99, "owners never received the replica");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    for (i, h) in handles.iter().enumerate() {
        let placed = h.scheduler().store().raw_entry(hash).is_some();
        assert_eq!(
            placed,
            owners.contains(&i),
            "peer {i}: entry placement must follow ring ownership"
        );
    }

    // Every peer reports the same owners' Merkle root story: owners
    // agree with each other, and a second identical solve is a store
    // hit wherever it lands.
    let again = client
        .solve("t-res:3:1", 2, 1, false, Some(30_000))
        .unwrap();
    assert_eq!(again.verdict.as_deref(), Some("solvable"));
    for h in handles {
        h.stop();
    }
}

#[test]
fn clients_fail_over_when_a_peer_dies_mid_workload() {
    let _serial = serial();
    let (listeners, addrs) = bind_peers(2);
    let mut handles = spawn_cluster(listeners, &addrs);

    let client = ClusterClient::new(addrs.clone(), 7);
    let first = client
        .solve("t-res:3:1", 2, 1, false, Some(30_000))
        .unwrap();
    assert!(first.ok);

    // Kill peer 0. The client's peer list still names it; every request
    // must succeed anyway by rotating to the survivor.
    handles.remove(0).stop();
    for (model, k) in [("t-res:3:1", 2), ("k-of:3:2", 2), ("wait-free:3", 2)] {
        let resp = client.solve(model, k, 1, false, Some(30_000)).unwrap();
        assert!(resp.ok, "{model}: request must survive the dead peer");
        assert!(resp.verdict.is_some());
    }
    // Stats too (a different request shape through the same retry path).
    assert!(client.stats().unwrap().ok);
    for h in handles {
        h.stop();
    }
}

#[test]
fn a_stopped_peer_answers_nothing_on_held_open_connections() {
    let _serial = serial();
    let (listeners, addrs) = bind_peers(2);
    let mut handles = spawn_cluster(listeners, &addrs);

    // The client tries peer A first, so it now holds a stream to A.
    let client = ClusterClient::new(addrs.clone(), 13);
    assert!(
        client
            .solve("t-res:3:1", 2, 1, false, Some(30_000))
            .unwrap()
            .ok
    );
    let raw = TcpStream::connect(&addrs[0]).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(&raw);
    let solve = b"{\"op\":\"solve\",\"id\":1,\"model\":\"t-res:3:1\",\"k\":2}\n";
    let mut reply = String::new();
    (&raw).write_all(solve).unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"solvable\""), "{reply}");

    handles.remove(0).stop();

    // The same request on the same stream: A reads no further request.
    let _ = (&raw).write_all(solve);
    reply.clear();
    match reader.read_line(&mut reply) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("a stopped peer answered a held-open connection: {other:?} {reply:?}"),
    }

    // The client's next solve fails over to peer B, which answers it
    // itself (its only other owner is down).
    let resp = client.solve("k-of:3:2", 2, 1, false, Some(30_000)).unwrap();
    assert!(resp.ok);
    assert!(handles[0]
        .scheduler()
        .store()
        .raw_entry(key("k-of:3:2", 2).content_hash())
        .is_some());
    for h in handles {
        h.stop();
    }
}

#[test]
fn proofs_come_back_verified_through_the_client() {
    let _serial = serial();
    let (listeners, addrs) = bind_peers(2);
    let handles = spawn_cluster(listeners, &addrs);
    let client = ClusterClient::new(addrs.clone(), 3);
    let resp = client.solve("t-res:3:1", 2, 1, true, Some(30_000)).unwrap();
    assert!(resp.ok);
    let proof = resp
        .verified_proof()
        .expect("store-committed solve carries a verifying proof");
    assert_eq!(proof.entry_hash, key("t-res:3:1", 2).content_hash());
    for h in handles {
        h.stop();
    }
}

#[test]
fn a_restarted_peer_converges_to_the_cluster_root() {
    let _serial = serial();
    let dir_a = temp_dir("conv-a");
    let dir_b = temp_dir("conv-b");
    let (listeners, addrs) = bind_peers(2);
    let mut listeners = listeners.into_iter();
    let opts = |i: usize, dir: &std::path::Path| ServeOptions {
        cluster: Some(ClusterConfig::new(addrs.clone(), i)),
        store_dir: Some(dir.to_path_buf()),
        ..ServeOptions::default()
    };
    let handle_a = spawn_server(&opts(0, &dir_a), listeners.next().unwrap()).unwrap();
    let handle_b = spawn_server(&opts(1, &dir_b), listeners.next().unwrap()).unwrap();

    let client = ClusterClient::new(addrs.clone(), 11);
    for (model, k) in [("t-res:3:1", 2), ("k-of:3:2", 2), ("wait-free:3", 2)] {
        assert!(client.solve(model, k, 1, false, Some(30_000)).unwrap().ok);
    }
    let root_a = handle_a.scheduler().store().merkle_root();
    assert_ne!(root_a, 0);

    // Take peer B down, wipe its store — a total disk loss — and solve
    // one more model so the survivors move on without it.
    handle_b.stop();
    let _ = std::fs::remove_dir_all(&dir_b);
    assert!(
        client
            .solve("k-of:3:1", 1, 1, false, Some(30_000))
            .unwrap()
            .ok
    );

    // Restart B on its old address with an empty store. Startup
    // anti-entropy plus one explicit sync round must rebuild it to the
    // surviving peer's exact root.
    let listener = TcpListener::bind(&addrs[1]).expect("rebind the released port");
    let handle_b = spawn_server(&opts(1, &dir_b), listener).unwrap();
    let b_client = ClusterClient::new(vec![addrs[1].clone()], 0);
    let sync = b_client
        .request("{\"op\":\"sync\",\"id\":1}", Some(30_000))
        .unwrap();
    assert!(sync.ok);
    let root_a = handle_a.scheduler().store().merkle_root();
    let root_b = handle_b.scheduler().store().merkle_root();
    assert_eq!(
        format!("{root_b:032x}"),
        format!("{root_a:032x}"),
        "restarted peer must converge to the cluster root"
    );
    assert_eq!(
        handle_b.scheduler().store().merkle_len(),
        handle_a.scheduler().store().merkle_len()
    );

    handle_a.stop();
    handle_b.stop();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn wire_stats_expose_cluster_counters() {
    let _serial = serial();
    let (listeners, addrs) = bind_peers(2);
    let handles = spawn_cluster(listeners, &addrs);
    let client = ClusterClient::new(addrs.clone(), 5);
    assert!(
        client
            .solve("t-res:3:1", 2, 1, false, Some(30_000))
            .unwrap()
            .ok
    );
    let stats = client.stats().unwrap().stats.expect("stats body");
    assert_eq!(stats.merkle_root.len(), 32, "root rides as 32 hex digits");
    // The counters are process-global here, so only their presence and
    // monotonicity are meaningful: a 2-peer replicated solve must have
    // produced at least one replication somewhere in the process.
    assert!(stats.peer_replications >= 1);
    for h in handles {
        h.stop();
    }
}
