//! The content-addressed verdict store.
//!
//! Verdicts (and their witnessing maps) are keyed by a canonical hash of
//! `(model spec, task spec, level, engine schema version)` — all taken
//! from the canonical spellings of [`fact::ModelSpec`] /
//! [`fact::TaskSpec`], so two spellings of the same query share one
//! entry. The store is two-tier:
//!
//! * an **in-memory LRU** over decoded entries (bounded; hit promotion);
//! * an **on-disk tier**: one JSON file per entry, named by the content
//!   hash, written atomically (temp file + rename) so concurrent readers
//!   never observe a partial write, and carrying a format version and an
//!   FNV-1a checksum of the payload.
//!
//! Loading is corruption-tolerant by construction: an unreadable,
//! truncated, unparsable, or checksum-mismatched file is a **miss**
//! (counted by [`SERVE_STORE_CORRUPT`](crate::SERVE_STORE_CORRUPT)),
//! never a panic and never a wrong verdict; a format- or schema-version
//! bump is a *clean* miss (old entries are simply invisible under the
//! new key). Only authoritative verdicts — `solvable` with its witness,
//! or `no-map` — are ever persisted: `exhausted` and `timed-out` are
//! resource outcomes, not facts about the model, and
//! [`StoredVerdict::from_solvability`] refuses them.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use act_tasks::ENGINE_SCHEMA_VERSION;
use act_topology::{Complex, VertexId, VertexMap};
use fact::{ModelSpec, Solvability, TaskSpec};
use serde::{Deserialize, Serialize};

use crate::merkle::{parse_hash_hex, InclusionProof, MerkleIndex, ScrubReport};
use crate::{
    SERVE_SCRUB_CORRUPT, SERVE_SCRUB_QUARANTINED, SERVE_SCRUB_REPAIRED, SERVE_SCRUB_RUNS,
    SERVE_STORE_CORRUPT,
};

/// Sub-directory of the store root where scrub moves corrupt entries it
/// cannot repair. Quarantined files keep their name plus a `.corrupt`
/// suffix, so the root's `*.json` census (and the content-address space)
/// never sees them again.
const QUARANTINE_SUBDIR: &str = "quarantine";

/// Version of the on-disk entry format. Bumping it makes every existing
/// entry a clean miss (the envelope check rejects old files without
/// counting them as corrupt).
pub const STORE_FORMAT_VERSION: u32 = 1;

/// The canonical identity of one solvability query.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Canonical model spelling ([`ModelSpec::canonical_string`]).
    pub model: String,
    /// Canonical task spelling ([`TaskSpec::canonical_string`]).
    pub task: String,
    /// The deepening bound `ℓ` the query ran with.
    pub level: u32,
    /// [`ENGINE_SCHEMA_VERSION`] at write time: a bump invalidates every
    /// stored verdict by changing the content address.
    pub engine_schema: u32,
}

impl StoreKey {
    /// The key of a `solve` query at the current engine schema.
    pub fn new(model: &ModelSpec, task: &TaskSpec, level: usize) -> StoreKey {
        StoreKey {
            model: model.canonical_string(),
            task: task.canonical_string(),
            level: level as u32,
            engine_schema: ENGINE_SCHEMA_VERSION,
        }
    }

    /// The canonical text the content address is derived from.
    fn canonical_text(&self) -> String {
        format!(
            "fact-serve|{}|{}|{}|{}",
            self.model, self.task, self.level, self.engine_schema
        )
    }

    /// The 128-bit content address (two independently seeded FNV-1a
    /// hashes of the canonical text).
    pub fn content_hash(&self) -> u128 {
        content_hash128(self.canonical_text().as_bytes())
    }
}

/// The store's canonical 128-bit content address: two independently
/// seeded FNV-1a hashes over the same bytes. Shared with the campaign
/// layer, which signs normalized failure traces with the same machinery
/// so artifact names and store keys hash identically.
pub use act_obs::{content_hash128, fnv1a64};

/// An authoritative stored verdict: `solvable` (with the witnessing
/// vertex map) or `no-map`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredVerdict {
    /// `"solvable"` or `"no-map"` ([`Solvability::verdict_name`]).
    pub verdict: String,
    /// The iteration count of the verdict (`Solvable::iterations` or
    /// `NoMapUpTo::max_iterations`).
    pub iterations: u64,
    /// The witnessing map as canonical sorted `(vertex, image)` index
    /// pairs; empty for `no-map`.
    pub witness: Vec<(u64, u64)>,
}

impl StoredVerdict {
    /// Encodes an authoritative verdict, or `None` for `exhausted` /
    /// `timed-out` — those must never be persisted as facts.
    pub fn from_solvability(v: &Solvability) -> Option<StoredVerdict> {
        match v {
            Solvability::Solvable { iterations, map } => Some(StoredVerdict {
                verdict: v.verdict_name().to_string(),
                iterations: *iterations as u64,
                witness: map
                    .entries()
                    .into_iter()
                    .map(|(a, b)| (a.index() as u64, b.index() as u64))
                    .collect(),
            }),
            Solvability::NoMapUpTo { max_iterations } => Some(StoredVerdict {
                verdict: v.verdict_name().to_string(),
                iterations: *max_iterations as u64,
                witness: Vec::new(),
            }),
            Solvability::Exhausted { .. } | Solvability::TimedOut { .. } => None,
        }
    }

    /// Decodes back into the solver's verdict type.
    pub fn to_solvability(&self) -> Option<Solvability> {
        match self.verdict.as_str() {
            "solvable" => Some(Solvability::Solvable {
                iterations: self.iterations as usize,
                map: VertexMap::from_entries(self.witness.iter().map(|&(a, b)| {
                    (
                        VertexId::from_index(a as usize),
                        VertexId::from_index(b as usize),
                    )
                })),
            }),
            "no-map" => Some(Solvability::NoMapUpTo {
                max_iterations: self.iterations as usize,
            }),
            _ => None,
        }
    }
}

/// On-disk envelope of one entry. Flat named fields only (the vendored
/// serde derive's supported shape); the witness rides as two parallel
/// index columns.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct DiskEntry {
    format: u32,
    model: String,
    task: String,
    level: u32,
    engine_schema: u32,
    verdict: String,
    iterations: u64,
    witness_from: Vec<u64>,
    witness_to: Vec<u64>,
    checksum: u64,
}

impl DiskEntry {
    fn new(key: &StoreKey, v: &StoredVerdict) -> DiskEntry {
        let mut e = DiskEntry {
            format: STORE_FORMAT_VERSION,
            model: key.model.clone(),
            task: key.task.clone(),
            level: key.level,
            engine_schema: key.engine_schema,
            verdict: v.verdict.clone(),
            iterations: v.iterations,
            witness_from: v.witness.iter().map(|&(a, _)| a).collect(),
            witness_to: v.witness.iter().map(|&(_, b)| b).collect(),
            checksum: 0,
        };
        e.checksum = e.payload_checksum();
        e
    }

    /// FNV-1a over every field except `checksum`, in a fixed order.
    fn payload_checksum(&self) -> u64 {
        let mut text = format!(
            "{}|{}|{}|{}|{}|{}|{}",
            self.format,
            self.model,
            self.task,
            self.level,
            self.engine_schema,
            self.verdict,
            self.iterations
        );
        for (a, b) in self.witness_from.iter().zip(&self.witness_to) {
            text.push_str(&format!("|{a}:{b}"));
        }
        fnv1a64(0xcbf29ce484222325, text.as_bytes())
    }

    fn into_verdict(self) -> StoredVerdict {
        StoredVerdict {
            verdict: self.verdict,
            iterations: self.iterations,
            witness: self.witness_from.into_iter().zip(self.witness_to).collect(),
        }
    }
}

/// Parses serialized entry bytes without validating them.
fn parse_entry_text(text: &str) -> Option<DiskEntry> {
    serde_json::from_str(text).ok()
}

/// Full validation of serialized entry bytes against the content
/// address they claim: parse, format version, payload checksum, witness
/// shape, authoritative verdict string, and the self-consistency of the
/// key fields with `hash`. The error is the failure kind (`"format"`
/// is the *clean-miss* kind — an old format version, not corruption).
fn validate_entry_text(hash: u128, text: &str) -> Result<DiskEntry, &'static str> {
    let Some(entry) = parse_entry_text(text) else {
        return Err("parse");
    };
    if entry.format != STORE_FORMAT_VERSION {
        return Err("format");
    }
    if entry.checksum != entry.payload_checksum() {
        return Err("checksum");
    }
    if entry.witness_from.len() != entry.witness_to.len() {
        return Err("witness-shape");
    }
    if entry.verdict != "solvable" && entry.verdict != "no-map" {
        return Err("verdict");
    }
    let key = StoreKey {
        model: entry.model.clone(),
        task: entry.task.clone(),
        level: entry.level,
        engine_schema: entry.engine_schema,
    };
    if key.content_hash() != hash {
        return Err("key-mismatch");
    }
    Ok(entry)
}

/// The two-tier verdict store. All methods are `&self` and thread-safe;
/// multiple processes may share one directory (writes are atomic
/// renames, so readers never see partial entries).
pub struct VerdictStore {
    dir: Option<PathBuf>,
    memory: Mutex<MemoryTier>,
    merkle: Mutex<MerkleIndex>,
    tmp_seq: AtomicU64,
}

struct MemoryTier {
    map: HashMap<u128, (StoreKey, StoredVerdict, u64)>,
    clock: u64,
    capacity: usize,
}

impl MemoryTier {
    fn get(&mut self, hash: u128) -> Option<StoredVerdict> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(&hash).map(|(_, v, stamp)| {
            *stamp = clock;
            v.clone()
        })
    }

    /// The full `(key, verdict)` pair, *without* LRU promotion — the
    /// scrub pass peeks at residency, it is not an access.
    fn peek_entry(&self, hash: u128) -> Option<(StoreKey, StoredVerdict)> {
        self.map.get(&hash).map(|(k, v, _)| (k.clone(), v.clone()))
    }

    fn put(&mut self, hash: u128, key: StoreKey, v: StoredVerdict) {
        self.clock += 1;
        let clock = self.clock;
        self.map.insert(hash, (key, v, clock));
        while self.map.len() > self.capacity {
            // Evict the least-recently-used entry; the map is bounded
            // (default 1024), so the linear scan is cheap next to one
            // engine run.
            let Some((&oldest, _)) = self.map.iter().min_by_key(|(_, (_, _, stamp))| *stamp) else {
                break;
            };
            self.map.remove(&oldest);
        }
    }
}

/// Default in-memory tier capacity (entries).
const DEFAULT_MEMORY_CAPACITY: usize = 1024;

impl VerdictStore {
    /// A store with no disk tier (tests, ephemeral servers).
    pub fn in_memory() -> VerdictStore {
        VerdictStore {
            dir: None,
            memory: Mutex::new(MemoryTier {
                map: HashMap::new(),
                clock: 0,
                capacity: DEFAULT_MEMORY_CAPACITY,
            }),
            merkle: Mutex::new(MerkleIndex::new()),
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// Opens (creating if needed) the on-disk tier at `dir` and builds
    /// the Merkle index from the entries already present (invalid files
    /// are left unindexed for the scrub pass to repair or quarantine).
    pub fn open(dir: &Path) -> std::io::Result<VerdictStore> {
        std::fs::create_dir_all(dir)?;
        let mut store = VerdictStore::in_memory();
        store.dir = Some(dir.to_path_buf());
        store.rebuild_index();
        Ok(store)
    }

    /// Rescans the disk tier and rebuilds the Merkle index from every
    /// *valid* entry file. Only called while `&mut` (open): running
    /// servers converge through [`Self::scrub`] instead.
    fn rebuild_index(&mut self) {
        let mut index = MerkleIndex::new();
        for (hash, text) in self.disk_entries() {
            if validate_entry_text(hash, &text).is_ok() {
                index.insert(hash, content_hash128(text.as_bytes()));
            }
        }
        *self.merkle.lock().unwrap_or_else(|e| e.into_inner()) = index;
    }

    /// Every `(content hash, file text)` pair at the store root whose
    /// file name is a well-formed content address.
    fn disk_entries(&self) -> Vec<(u128, String)> {
        let Some(dir) = self.dir.as_ref() else {
            return Vec::new();
        };
        let Ok(read) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in read.flatten() {
            let name = entry.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
                continue;
            };
            let Some(hash) = parse_hash_hex(stem) else {
                continue;
            };
            if let Ok(text) = std::fs::read_to_string(entry.path()) {
                out.push((hash, text));
            }
        }
        out.sort_by_key(|&(h, _)| h);
        out
    }

    /// Overrides the in-memory tier's capacity (entries; minimum 1).
    pub fn with_memory_capacity(self, capacity: usize) -> VerdictStore {
        self.memory
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .capacity = capacity.max(1);
        self
    }

    /// The on-disk path of `key`'s entry, when a disk tier is configured.
    pub fn entry_path(&self, key: &StoreKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{:032x}.json", key.content_hash())))
    }

    /// Looks `key` up: memory tier first, then disk (promoting a disk
    /// hit into memory). Any malformed disk entry degrades to `None`.
    pub fn get(&self, key: &StoreKey) -> Option<StoredVerdict> {
        let hash = key.content_hash();
        if let Some(v) = self
            .memory
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(hash)
        {
            return Some(v);
        }
        let v = self.load_from_disk(key)?;
        self.memory
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .put(hash, key.clone(), v.clone());
        Some(v)
    }

    /// Persists an authoritative verdict under `key` (memory + disk) and
    /// records its leaf in the Merkle index. Returns `false` — and
    /// stores nothing — for a non-authoritative verdict string (anything
    /// but `solvable` / `no-map`).
    ///
    /// The index records the hash of the *intended* serialized bytes
    /// even when the disk write fails or is torn by an installed
    /// [`crate::chaos::ServeFaultPlan`]: the index is the store's
    /// commitment, and the scrub pass repairs the disk back to it.
    pub fn put(&self, key: &StoreKey, v: &StoredVerdict) -> bool {
        if v.verdict != "solvable" && v.verdict != "no-map" {
            return false;
        }
        let hash = key.content_hash();
        self.memory
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .put(hash, key.clone(), v.clone());
        let entry = DiskEntry::new(key, v);
        let Ok(json) = serde_json::to_string_pretty(&entry) else {
            return true;
        };
        self.merkle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(hash, content_hash128(json.as_bytes()));
        if let Some(path) = self.entry_path(key) {
            if let Err(e) = self.write_atomically(&path, &json) {
                // A failed persist is a warm-cache loss, not a failure
                // of the query itself.
                if act_obs::enabled() {
                    act_obs::event("serve.store.write_failed")
                        .str("error", &e.to_string())
                        .emit();
                }
            }
        }
        true
    }

    /// The disk-tier directory, when one is configured. The tower store
    /// ([`TowerStore`]) nests under it so verdict entries and tower
    /// entries share one `--store` root without mixing files.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Number of entries currently resident in the memory tier.
    pub fn memory_len(&self) -> usize {
        self.memory
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    /// The current Merkle root over every committed entry
    /// ([`crate::merkle::EMPTY_ROOT`] when the store is empty).
    pub fn merkle_root(&self) -> u128 {
        self.merkle.lock().unwrap_or_else(|e| e.into_inner()).root()
    }

    /// Number of entries in the Merkle index.
    pub fn merkle_len(&self) -> usize {
        self.merkle.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Every indexed `(entry hash, file hash)` pair in canonical order —
    /// the anti-entropy exchange unit.
    pub fn entry_list(&self) -> Vec<(u128, u128)> {
        self.merkle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries()
    }

    /// The inclusion proof of `key`'s entry under the current root, or
    /// `None` when the entry is not committed.
    pub fn inclusion_proof(&self, key: &StoreKey) -> Option<InclusionProof> {
        self.merkle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .proof(key.content_hash())
    }

    /// The canonical serialized bytes of the entry addressed by `hash` —
    /// what replication and anti-entropy fetch ship between peers. Disk
    /// tier first (the committed bytes), falling back to re-encoding the
    /// memory tier's copy; `None` when the entry is unknown or its disk
    /// copy no longer validates.
    pub fn raw_entry(&self, hash: u128) -> Option<String> {
        if let Some(dir) = self.dir.as_ref() {
            let path = dir.join(format!("{hash:032x}.json"));
            if let Ok(text) = std::fs::read_to_string(&path) {
                if validate_entry_text(hash, &text).is_ok() {
                    return Some(text);
                }
            }
        }
        let (key, v) = self
            .memory
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .peek_entry(hash)?;
        serde_json::to_string_pretty(&DiskEntry::new(&key, &v)).ok()
    }

    /// Accepts a replicated entry in its serialized form (a peer's
    /// [`Self::raw_entry`]). The bytes are fully validated — parse,
    /// format, checksum, witness shape, and self-consistent content
    /// address — before being committed verbatim, so a corrupt or
    /// tampered replica can never poison this store. Returns `false`
    /// (and stores nothing) for invalid bytes.
    pub fn put_raw_entry(&self, json: &str) -> bool {
        let Some(entry) = parse_entry_text(json) else {
            return false;
        };
        let key = StoreKey {
            model: entry.model.clone(),
            task: entry.task.clone(),
            level: entry.level,
            engine_schema: entry.engine_schema,
        };
        let hash = key.content_hash();
        if validate_entry_text(hash, json).is_err() {
            return false;
        }
        self.memory.lock().unwrap_or_else(|e| e.into_inner()).put(
            hash,
            key.clone(),
            entry.clone().into_verdict(),
        );
        self.merkle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(hash, content_hash128(json.as_bytes()));
        if let Some(path) = self.entry_path(&key) {
            let _ = self.write_atomically(&path, json);
        }
        true
    }

    /// One scrub pass: re-reads and re-validates every entry file at the
    /// store root, repairs corrupt ones from the memory tier or — via
    /// the optional `fetch` callback (a peer lookup by content hash) —
    /// from a replica, and quarantines what nothing can restore (moved
    /// to `quarantine/`, dropped from the index, so the entry becomes a
    /// clean recomputable miss). Valid entries unknown to the index
    /// (written by another process sharing the directory) are adopted.
    ///
    /// Counted by the `serve.scrub.*` counters; returns this pass's
    /// [`ScrubReport`]. A store without a disk tier only reconciles the
    /// index against the memory tier (nothing to corrupt).
    pub fn scrub(&self, fetch: Option<&dyn Fn(u128) -> Option<String>>) -> ScrubReport {
        let span = act_obs::span("serve.store.scrub");
        let mut report = ScrubReport::default();
        let disk = self.disk_entries();
        let mut seen: Vec<u128> = Vec::with_capacity(disk.len());
        for (hash, text) in disk {
            report.checked += 1;
            seen.push(hash);
            match validate_entry_text(hash, &text) {
                Ok(_) => {
                    let file_hash = content_hash128(text.as_bytes());
                    let mut index = self.merkle.lock().unwrap_or_else(|e| e.into_inner());
                    if index.file_hash(hash) != Some(file_hash) {
                        index.insert(hash, file_hash);
                        report.refreshed += 1;
                    }
                }
                Err("format") => {
                    // A format-version bump is a clean miss everywhere:
                    // the scrub neither repairs nor quarantines it.
                }
                Err(kind) => {
                    report.corrupt += 1;
                    SERVE_SCRUB_CORRUPT.add(1);
                    self.emit_corrupt_kind("serve.scrub.corrupt", hash, kind);
                    if self.repair_entry(hash, fetch) {
                        report.repaired += 1;
                        SERVE_SCRUB_REPAIRED.add(1);
                    } else {
                        self.quarantine(hash);
                        report.quarantined += 1;
                        SERVE_SCRUB_QUARANTINED.add(1);
                    }
                }
            }
        }
        if self.dir.is_some() {
            // Entries the index still carries but whose file vanished
            // (external deletion): treat like corruption — restore or
            // forget.
            seen.sort_unstable();
            let indexed = self.entry_list();
            for (hash, _) in indexed {
                if seen.binary_search(&hash).is_ok() {
                    continue;
                }
                report.checked += 1;
                report.corrupt += 1;
                SERVE_SCRUB_CORRUPT.add(1);
                self.emit_corrupt_kind("serve.scrub.corrupt", hash, "missing");
                if self.repair_entry(hash, fetch) {
                    report.repaired += 1;
                    SERVE_SCRUB_REPAIRED.add(1);
                } else {
                    self.merkle
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .remove(hash);
                    report.quarantined += 1;
                    SERVE_SCRUB_QUARANTINED.add(1);
                }
            }
        } else {
            report.checked = self.merkle_len() as u64;
        }
        SERVE_SCRUB_RUNS.add(1);
        if act_obs::enabled() {
            span.finish()
                .u64("checked", report.checked)
                .u64("corrupt", report.corrupt)
                .u64("repaired", report.repaired)
                .u64("quarantined", report.quarantined)
                .emit();
        }
        report
    }

    /// Restores `hash`'s entry file from the best available good copy:
    /// the memory tier (re-encoded canonically), else a `fetch`ed peer
    /// copy (validated before commit). `true` on success.
    fn repair_entry(&self, hash: u128, fetch: Option<&dyn Fn(u128) -> Option<String>>) -> bool {
        let resident = self
            .memory
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .peek_entry(hash);
        if let Some((key, v)) = resident {
            if let Ok(json) = serde_json::to_string_pretty(&DiskEntry::new(&key, &v)) {
                if let Some(path) = self.entry_path(&key) {
                    if self.write_atomically(&path, &json).is_ok() {
                        self.merkle
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .insert(hash, content_hash128(json.as_bytes()));
                        return true;
                    }
                }
            }
        }
        if let Some(fetch) = fetch {
            if let Some(json) = fetch(hash) {
                if validate_entry_text(hash, &json).is_ok() {
                    return self.put_raw_entry(&json);
                }
            }
        }
        false
    }

    /// Moves `hash`'s entry file into `quarantine/` (dropping it from
    /// the index), preserving the corrupt bytes for post-mortems while
    /// turning the entry into a clean miss. Deletion is the fallback if
    /// the move itself fails.
    fn quarantine(&self, hash: u128) {
        self.merkle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(hash);
        let Some(dir) = self.dir.as_ref() else {
            return;
        };
        let src = dir.join(format!("{hash:032x}.json"));
        let qdir = dir.join(QUARANTINE_SUBDIR);
        let moved = std::fs::create_dir_all(&qdir)
            .and_then(|_| std::fs::rename(&src, qdir.join(format!("{hash:032x}.json.corrupt"))));
        if moved.is_err() {
            let _ = std::fs::remove_file(&src);
        }
    }

    fn emit_corrupt_kind(&self, event: &str, hash: u128, kind: &str) {
        if act_obs::enabled() {
            act_obs::event(event)
                .str("entry", &format!("{hash:032x}"))
                .str("kind", kind)
                .emit();
        }
    }

    fn write_atomically(&self, path: &Path, json: &str) -> std::io::Result<()> {
        if let Some(keep) = crate::chaos::torn_write(json.len()) {
            // An injected torn write: commit a truncated prefix directly
            // to the final path, deliberately bypassing the atomic
            // rename — this is the crash-mid-write the rename discipline
            // normally makes unobservable.
            return std::fs::write(path, &json.as_bytes()[..keep]);
        }
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, json)?;
        // The rename is the commit point: concurrent readers see either
        // the old complete entry or the new complete entry, never bytes
        // in between.
        std::fs::rename(&tmp, path)
    }

    fn load_from_disk(&self, key: &StoreKey) -> Option<StoredVerdict> {
        let path = self.entry_path(key)?;
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(_) => {
                SERVE_STORE_CORRUPT.add(1);
                return None;
            }
        };
        let entry: DiskEntry = match serde_json::from_str(&text) {
            Ok(e) => e,
            Err(_) => {
                SERVE_STORE_CORRUPT.add(1);
                self.emit_corrupt(&path, "parse");
                return None;
            }
        };
        if entry.format != STORE_FORMAT_VERSION {
            // An older/newer format is a clean miss, not corruption.
            return None;
        }
        if entry.checksum != entry.payload_checksum() {
            SERVE_STORE_CORRUPT.add(1);
            self.emit_corrupt(&path, "checksum");
            return None;
        }
        if entry.model != key.model
            || entry.task != key.task
            || entry.level != key.level
            || entry.engine_schema != key.engine_schema
        {
            // A content-hash collision (or a hand-edited file): the
            // payload is not an answer to this query.
            SERVE_STORE_CORRUPT.add(1);
            self.emit_corrupt(&path, "key-mismatch");
            return None;
        }
        if entry.witness_from.len() != entry.witness_to.len() {
            SERVE_STORE_CORRUPT.add(1);
            self.emit_corrupt(&path, "witness-shape");
            return None;
        }
        Some(entry.into_verdict())
    }

    fn emit_corrupt(&self, path: &Path, kind: &str) {
        if act_obs::enabled() {
            act_obs::event("serve.store.corrupt")
                .str("path", &path.display().to_string())
                .str("kind", kind)
                .emit();
        }
    }
}

/// Version of the on-disk tower entry format. Bumping it makes every
/// existing tower entry a clean miss.
pub const TOWER_FORMAT_VERSION: u32 = 1;

/// Sub-directory of the verdict store root that holds tower entries —
/// kept apart so tooling that enumerates `*.json` verdict entries at the
/// root is unaffected by tower persistence.
const TOWER_SUBDIR: &str = "towers";

/// The canonical identity of one persisted domain-tower level
/// `R_A^ℓ(I)`: the content hashes of the affine task's complex and the
/// input complex (see [`act_topology::Complex::content_hash`]) plus the
/// 1-based level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TowerKey {
    /// Content hash of `affine.complex()`.
    pub affine_hash: u128,
    /// Content hash of the input complex the tower is built over.
    pub inputs_hash: u128,
    /// The 1-based tower level.
    pub level: u32,
}

impl TowerKey {
    /// The canonical text the content address is derived from. Includes
    /// both the entry format and the portable-complex layout version, so
    /// bumping either makes old entries invisible (a clean miss) instead
    /// of counted corruption.
    fn canonical_text(&self) -> String {
        format!(
            "fact-tower|{:032x}|{:032x}|{}|{}|{}",
            self.affine_hash,
            self.inputs_hash,
            self.level,
            TOWER_FORMAT_VERSION,
            act_topology::PORTABLE_FORMAT_VERSION,
        )
    }

    /// The 128-bit content address of this tower level.
    pub fn content_hash(&self) -> u128 {
        content_hash128(self.canonical_text().as_bytes())
    }
}

/// On-disk envelope of one tower level. Flat named fields only; the
/// complex rides as the hex encoding of its portable byte form
/// ([`act_topology::Complex::encode_portable`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct TowerDiskEntry {
    format: u32,
    affine_hash: String,
    inputs_hash: String,
    level: u32,
    portable_format: u32,
    complex_hex: String,
    checksum: u64,
}

impl TowerDiskEntry {
    fn new(key: &TowerKey, domain: &act_topology::Complex) -> TowerDiskEntry {
        let mut e = TowerDiskEntry {
            format: TOWER_FORMAT_VERSION,
            affine_hash: format!("{:032x}", key.affine_hash),
            inputs_hash: format!("{:032x}", key.inputs_hash),
            level: key.level,
            portable_format: act_topology::PORTABLE_FORMAT_VERSION,
            complex_hex: hex_encode(&domain.encode_portable()),
            checksum: 0,
        };
        e.checksum = e.payload_checksum();
        e
    }

    /// FNV-1a over every field except `checksum`, in a fixed order.
    fn payload_checksum(&self) -> u64 {
        let text = format!(
            "{}|{}|{}|{}|{}|{}",
            self.format,
            self.affine_hash,
            self.inputs_hash,
            self.level,
            self.portable_format,
            self.complex_hex,
        );
        fnv1a64(0xcbf29ce484222325, text.as_bytes())
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    out
}

fn hex_decode(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    let bytes = text.as_bytes();
    let nibble = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
    }
    Some(out)
}

/// The content-addressed store of domain towers `R_A^ℓ(I)`: one
/// checksummed JSON file per tower level, under the `towers/`
/// sub-directory of a verdict-store root.
///
/// The store implements [`fact::TowerPersistence`], so any
/// [`fact::DomainCache`] can be backed by it: on a warm restart the
/// cache loads each missing level from here (zero subdivision rounds)
/// instead of rebuilding the tower. Writes are atomic renames; loading
/// follows the verdict store's corruption discipline — a truncated,
/// unparsable, checksum-mismatched, or undecodable entry is a miss
/// counted by [`SERVE_TOWER_CORRUPT`](crate::SERVE_TOWER_CORRUPT),
/// never a panic, and a format-version bump is a *clean* miss. Hits and
/// clean misses are counted by
/// [`SERVE_TOWER_HIT`](crate::SERVE_TOWER_HIT) /
/// [`SERVE_TOWER_MISS`](crate::SERVE_TOWER_MISS).
pub struct TowerStore {
    dir: PathBuf,
    tmp_seq: AtomicU64,
}

impl TowerStore {
    /// Opens (creating if needed) the tower store under `root/towers`,
    /// where `root` is a verdict-store directory.
    pub fn open(root: &Path) -> std::io::Result<TowerStore> {
        let dir = root.join(TOWER_SUBDIR);
        std::fs::create_dir_all(&dir)?;
        Ok(TowerStore {
            dir,
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The on-disk path of `key`'s entry.
    pub fn entry_path(&self, key: &TowerKey) -> PathBuf {
        self.dir.join(format!("{:032x}.json", key.content_hash()))
    }

    /// Loads and validates one tower level. Every failure mode degrades
    /// to `None`; corruption (as opposed to absence or a format bump) is
    /// counted and reported via `serve.tower.corrupt` events.
    pub fn load(&self, key: &TowerKey) -> Option<act_topology::Complex> {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(_) => {
                crate::SERVE_TOWER_CORRUPT.add(1);
                return None;
            }
        };
        let entry: TowerDiskEntry = match serde_json::from_str(&text) {
            Ok(e) => e,
            Err(_) => {
                crate::SERVE_TOWER_CORRUPT.add(1);
                self.emit_corrupt(&path, "parse");
                return None;
            }
        };
        if entry.format != TOWER_FORMAT_VERSION {
            // An older/newer format is a clean miss, not corruption.
            return None;
        }
        if entry.checksum != entry.payload_checksum() {
            crate::SERVE_TOWER_CORRUPT.add(1);
            self.emit_corrupt(&path, "checksum");
            return None;
        }
        if entry.affine_hash != format!("{:032x}", key.affine_hash)
            || entry.inputs_hash != format!("{:032x}", key.inputs_hash)
            || entry.level != key.level
            || entry.portable_format != act_topology::PORTABLE_FORMAT_VERSION
        {
            // A content-hash collision (or a hand-edited file): the
            // payload is not the tower level this key names.
            crate::SERVE_TOWER_CORRUPT.add(1);
            self.emit_corrupt(&path, "key-mismatch");
            return None;
        }
        let Some(bytes) = hex_decode(&entry.complex_hex) else {
            crate::SERVE_TOWER_CORRUPT.add(1);
            self.emit_corrupt(&path, "payload-hex");
            return None;
        };
        match act_topology::Complex::decode_portable(&bytes) {
            Ok(c) => Some(c),
            Err(_) => {
                crate::SERVE_TOWER_CORRUPT.add(1);
                self.emit_corrupt(&path, "payload-decode");
                None
            }
        }
    }

    /// Persists one tower level under `key` (atomic rename). A failed
    /// write is a warm-cache loss, never an error for the caller.
    pub fn store(&self, key: &TowerKey, domain: &act_topology::Complex) {
        let path = self.entry_path(key);
        let entry = TowerDiskEntry::new(key, domain);
        let json = match serde_json::to_string(&entry) {
            Ok(j) => j,
            Err(_) => return,
        };
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let write = std::fs::write(&tmp, json).and_then(|_| std::fs::rename(&tmp, &path));
        if let Err(e) = write {
            if act_obs::enabled() {
                act_obs::event("serve.tower.write_failed")
                    .str("error", &e.to_string())
                    .emit();
            }
        }
    }

    fn emit_corrupt(&self, path: &Path, kind: &str) {
        if act_obs::enabled() {
            act_obs::event("serve.tower.corrupt")
                .str("path", &path.display().to_string())
                .str("kind", kind)
                .emit();
        }
    }
}

impl fact::TowerPersistence for TowerStore {
    fn load_level(&self, affine_hash: u128, inputs_hash: u128, level: usize) -> Option<Complex> {
        let key = TowerKey {
            affine_hash,
            inputs_hash,
            level: level as u32,
        };
        match self.load(&key) {
            Some(c) => {
                crate::SERVE_TOWER_HIT.add(1);
                Some(c)
            }
            None => {
                crate::SERVE_TOWER_MISS.add(1);
                None
            }
        }
    }

    fn store_level(&self, affine_hash: u128, inputs_hash: u128, level: usize, domain: &Complex) {
        let key = TowerKey {
            affine_hash,
            inputs_hash,
            level: level as u32,
        };
        self.store(&key, domain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(level: usize) -> StoreKey {
        StoreKey::new(
            &ModelSpec::parse("t-res:3:1", false).unwrap(),
            &TaskSpec::set_consensus(3, 1).unwrap(),
            level,
        )
    }

    fn verdict() -> StoredVerdict {
        StoredVerdict {
            verdict: "solvable".into(),
            iterations: 2,
            witness: vec![(0, 1), (3, 2)],
        }
    }

    include!("../../../tests/common/json_corpus.rs");

    const STORE_CORPUS: &str = include_str!("../../../tests/fixtures/json_corpus_store.txt");

    /// The entry envelopes' samples and edge inputs (see
    /// `tests/json_corpus.rs` for the public types). Built from literals,
    /// so a format or schema bump does not move the corpus.
    fn render_store_corpus() -> String {
        let mut out = String::new();
        let mut entry = DiskEntry {
            format: 1,
            model: "t-res:3:1".into(),
            task: "set-consensus:3:1".into(),
            level: 2,
            engine_schema: 4,
            verdict: "solvable".into(),
            iterations: 2,
            witness_from: vec![0, 3],
            witness_to: vec![1, 2],
            checksum: 0,
        };
        entry.checksum = entry.payload_checksum();
        corpus_object(&mut out, "DiskEntry/solvable", &entry);
        entry.verdict = "no-map".into();
        entry.witness_from.clear();
        entry.witness_to.clear();
        entry.checksum = entry.payload_checksum();
        corpus_object(&mut out, "DiskEntry/no-map", &entry);
        let mut tower = TowerDiskEntry {
            format: 1,
            affine_hash: format!("{:032x}", 0x1234),
            inputs_hash: format!("{:032x}", u128::MAX),
            level: 1,
            portable_format: 1,
            complex_hex: "0300000001000000ff7f".into(),
            checksum: 0,
        };
        tower.checksum = tower.payload_checksum();
        corpus_object(&mut out, "TowerDiskEntry", &tower);
        out
    }

    #[test]
    fn entry_envelopes_encode_and_decode_as_the_golden_corpus_records() {
        let file = "tests/fixtures/json_corpus_store.txt";
        assert_corpus_matches(&render_store_corpus(), STORE_CORPUS, file);
    }

    /// The compact text of every entry sample in the corpus.
    fn store_corpus_lines() -> &'static [String] {
        static LINES: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        LINES.get_or_init(|| {
            let mut lines = STORE_CORPUS.lines();
            let mut compact = Vec::new();
            while let Some(header) = lines.next() {
                if header.ends_with(" compact") {
                    compact.push(lines.next().expect("sample line").to_string());
                }
            }
            compact
        })
    }

    /// Decodes `bytes` as both entry envelopes; returns how many
    /// accepted it.
    fn decode_as_entries(bytes: &[u8]) -> usize {
        usize::from(serde_json::from_slice::<DiskEntry>(bytes).is_ok())
            + usize::from(serde_json::from_slice::<TowerDiskEntry>(bytes).is_ok())
    }

    #[test]
    fn damaged_entry_lines_are_errors_not_panics_or_stack_overflows() {
        for line in store_corpus_lines() {
            assert_corpus_line_rejects_damage(line, decode_as_entries);
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn arbitrary_bytes_never_panic_the_entry_decoders(
            bytes in proptest::collection::vec(0u8..=255, 0..200)
        ) {
            decode_as_entries(&bytes);
        }

        #[test]
        fn mutated_entry_lines_never_panic_the_entry_decoders(
            mutation in (0usize..3, 0usize..4_000, 0u8..=255, 0u8..=1)
        ) {
            let (which, at, byte, insert) = mutation;
            let line = &store_corpus_lines()[which];
            decode_as_entries(&corpus_line_mutation(line, at, byte, insert == 1));
        }
    }

    #[test]
    fn hex_encode_matches_format_and_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        let formatted: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex_encode(&bytes), formatted);
        assert_eq!(hex_decode(&hex_encode(&bytes)), Some(bytes));
        assert_eq!(hex_encode(&[]), "");
    }

    #[test]
    fn content_hashes_are_canonical_and_distinct() {
        assert_eq!(key(2).content_hash(), key(2).content_hash());
        assert_ne!(key(1).content_hash(), key(2).content_hash());
        let mut bumped = key(2);
        bumped.engine_schema += 1;
        assert_ne!(bumped.content_hash(), key(2).content_hash());
    }

    #[test]
    fn memory_tier_round_trips_and_evicts_lru() {
        let store = VerdictStore::in_memory().with_memory_capacity(2);
        let (k1, k2, k3) = (key(1), key(2), key(3));
        assert!(store.put(&k1, &verdict()));
        assert!(store.put(&k2, &verdict()));
        assert_eq!(store.get(&k1), Some(verdict())); // refresh k1
        assert!(store.put(&k3, &verdict())); // evicts k2 (LRU)
        assert_eq!(store.memory_len(), 2);
        assert!(store.get(&k1).is_some());
        assert!(store.get(&k2).is_none());
        assert!(store.get(&k3).is_some());
    }

    #[test]
    fn non_authoritative_verdicts_are_refused() {
        let store = VerdictStore::in_memory();
        let mut v = verdict();
        v.verdict = "timed-out".into();
        assert!(!store.put(&key(1), &v));
        assert!(store.get(&key(1)).is_none());
        v.verdict = "exhausted".into();
        assert!(!store.put(&key(1), &v));
        assert_eq!(store.memory_len(), 0);
    }

    #[test]
    fn solvability_round_trips_only_authoritative_verdicts() {
        let no_map = Solvability::NoMapUpTo { max_iterations: 3 };
        let stored = StoredVerdict::from_solvability(&no_map).unwrap();
        assert_eq!(stored.verdict, "no-map");
        assert!(matches!(
            stored.to_solvability(),
            Some(Solvability::NoMapUpTo { max_iterations: 3 })
        ));
        assert!(
            StoredVerdict::from_solvability(&Solvability::Exhausted { iterations: 1 }).is_none()
        );
        assert!(
            StoredVerdict::from_solvability(&Solvability::TimedOut { iterations: 1 }).is_none()
        );
    }
}
