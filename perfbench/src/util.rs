//! Shared pieces: the in-process 3-peer cluster, scratch directories,
//! order statistics, and process/host facts.

use std::net::TcpListener;
use std::path::{Path, PathBuf};

use act_service::{spawn_server, ClusterConfig, ServeOptions, ServerHandle};

/// Peers in every serving workload's cluster.
pub const PEERS: usize = 3;

/// An in-process cluster: one `spawn_server` per peer over OS-assigned
/// ports, each with its own store directory and the full membership
/// list, so the default replication factor (2) applies.
pub struct Cluster {
    pub handles: Vec<ServerHandle>,
    pub addrs: Vec<String>,
}

impl Cluster {
    pub fn spawn(store_dirs: &[PathBuf]) -> Cluster {
        let listeners: Vec<TcpListener> = store_dirs
            .iter()
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind peer listener"))
            .collect();
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().expect("listener address").to_string())
            .collect();
        let handles = listeners
            .into_iter()
            .zip(store_dirs)
            .enumerate()
            .map(|(i, (listener, dir))| {
                let options = ServeOptions {
                    store_dir: Some(dir.clone()),
                    cluster: Some(ClusterConfig::new(addrs.clone(), i)),
                    ..ServeOptions::default()
                };
                spawn_server(&options, listener).expect("spawn peer")
            })
            .collect();
        Cluster { handles, addrs }
    }

    /// The peer list rotated so that client `i` contacts peer `i` first.
    pub fn peers_from(&self, first: usize) -> Vec<String> {
        let n = self.addrs.len();
        (0..n)
            .map(|j| self.addrs[(first + j) % n].clone())
            .collect()
    }

    pub fn stop(self) {
        for h in self.handles {
            h.stop();
        }
    }
}

/// A scratch directory under the benchmark's output directory, removed
/// when dropped (also on unwinding).
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new(out: &Path, workload: &str) -> Scratch {
        let root = out.join(format!("tmp-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scratch directory");
        Scratch { root }
    }

    /// A fresh, empty sub-directory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch sub-directory");
        dir
    }

    /// Fresh store directories for one cluster.
    pub fn store_dirs(&self, tag: &str) -> Vec<PathBuf> {
        (0..PEERS)
            .map(|i| self.fresh(&format!("{tag}-peer{i}")))
            .collect()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    if s.is_empty() {
        return 0.0;
    }
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The highest of p99/p95/p90/p75/p50 with at least ten samples beyond
/// it (p50 when there are fewer than twenty samples).
pub fn tail_percentile(samples: usize) -> f64 {
    for p in [99.0, 95.0, 90.0, 75.0] {
        if (samples as f64) * (1.0 - p / 100.0) >= 10.0 {
            return p;
        }
    }
    50.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host facts every result file records.
pub struct Host {
    pub parallelism: usize,
    pub cpu_model: String,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Host {
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            parallelism,
            cpu_model,
            commit,
        }
    }
}

/// FNV-1a 64 over `text` (the digests the correctness checks compare).
pub fn digest(text: &str) -> String {
    format!(
        "{:016x}",
        act_obs::fnv1a64(0xcbf29ce484222325, text.as_bytes())
    )
}

/// Compares `digest` with the one an earlier run of the same workload
/// and seed recorded under `out/digests`, recording it on first use.
/// Returns an error naming both on mismatch.
pub fn check_stable_digest(out: &Path, key: &str, digest: &str) -> Result<(), String> {
    let dir = out.join("digests");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{key}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous.trim() == digest => Ok(()),
        Ok(previous) => Err(format!(
            "{key}: digest {digest} differs from the earlier run's {}",
            previous.trim()
        )),
        Err(_) => {
            std::fs::write(&path, digest).map_err(|e| format!("write {}: {e}", path.display()))
        }
    }
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T, R: rand::Rng>(v: &mut [T], rng: &mut R) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// A uniform draw from `[0, 1)`.
pub fn unit<R: rand::RngCore>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}
