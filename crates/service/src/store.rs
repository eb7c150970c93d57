//! The content-addressed store: one chassis, three entry kinds.
//!
//! Each entry is one file, named by the canonical 128-bit hash of what it
//! answers, under one `--store` root:
//!
//! * **verdicts** ([`VerdictStore`]): whether a task is solvable in
//!   `R_A^ℓ`, with the witnessing map, keyed by the canonical spellings of
//!   the model and task ([`fact::ModelSpec`], [`fact::TaskSpec`]), the
//!   level and the engine schema; `<root>/<hash>.json`, pretty-printed;
//! * **towers** ([`TowerStore`]): the `R_A^ℓ(I)` levels verdicts are
//!   decided on; `<root>/towers/<hash>.json`, compact;
//! * **FPC summaries** ([`crate::FpcCache`]): the statistics of one
//!   `(spec, runs, seed)` batch; `<root>/fpc/fpc-<hash>.json`,
//!   pretty-printed.
//!
//! One generic `ContentStore<E: Entry>` owns what does not depend on the
//! entry format: the path layout, the atomic write (a pid + sequence temp
//! file, then a rename, so readers never see a partial entry), the
//! read → parse → format → checksum → key → payload validation, the
//! in-memory LRU tier, and each kind's corrupt counter and event. An
//! `Entry` impl supplies only its kind's format.
//!
//! A damaged file (unreadable, truncated, unparsable, bad checksum,
//! mis-addressed) is a **miss** counted by its kind's counter
//! ([`SERVE_STORE_CORRUPT`],
//! [`SERVE_TOWER_CORRUPT`], [`SERVE_FPC_CORRUPT`](crate::SERVE_FPC_CORRUPT)),
//! never a panic or a wrong answer; a format or schema bump is a *clean*
//! miss. Only authoritative verdicts (`solvable` with its witness, or
//! `no-map`) are stored or served: `exhausted` and `timed-out` are
//! resource outcomes, not facts about the model.
//!
//! The verdict kind adds a Merkle index on top: inclusion proofs, the
//! scrub pass, and the raw-entry exchange of replication and
//! anti-entropy.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use act_obs::Counter;
use act_tasks::ENGINE_SCHEMA_VERSION;
use act_topology::{Complex, VertexId, VertexMap};
use fact::{ModelSpec, Solvability, TaskSpec};
use serde::{Deserialize, Serialize};

use crate::merkle::{parse_hash_hex, InclusionProof, MerkleIndex, ScrubReport};
use crate::{
    SERVE_SCRUB_CORRUPT, SERVE_SCRUB_QUARANTINED, SERVE_SCRUB_REPAIRED, SERVE_SCRUB_RUNS,
    SERVE_STORE_CORRUPT, SERVE_TOWER_CORRUPT,
};

/// One entry kind's on-disk format. Implemented by the kind's envelope
/// type, which is serialized as the entry file.
pub(crate) trait Entry: Serialize + Deserialize {
    /// What a lookup names.
    type Key: Clone;
    /// What a lookup returns.
    type Value: Clone;
    /// Sub-directory of the store root holding this kind (empty: the
    /// root itself).
    const SUBDIR: &'static str;
    /// File-name prefix before the hex content address.
    const PREFIX: &'static str;
    /// Whether entry files are pretty-printed.
    const PRETTY: bool;
    /// Capacity of the in-memory tier (0: no memory tier).
    const MEMORY_CAPACITY: usize;
    /// Counts entries that fail validation on read.
    const CORRUPT: &'static Counter;
    /// Emitted (`path`, `kind`) per entry that fails validation on read.
    const CORRUPT_EVENT: &'static str;
    /// Emitted (`error`) per failed write.
    const WRITE_FAILED_EVENT: &'static str;
    /// Whether an installed [`crate::chaos::ServeFaultPlan`] tears this
    /// kind's writes (its `TornWrite { at_put }` counts only these).
    const TEARABLE: bool;

    /// The content address of `key`.
    fn address(key: &Self::Key) -> u128;
    /// The envelope of `value` stored under `key`.
    fn encode(key: &Self::Key, value: &Self::Value) -> Self;
    /// Whether the envelope is in the current format. Any other format is
    /// a clean miss, not corruption.
    fn current_format(&self) -> bool {
        true
    }
    /// Whether the recorded checksum matches the payload.
    fn checksum_ok(&self) -> bool {
        true
    }
    /// The key the envelope records, when it is well-formed.
    fn key(&self) -> Option<Self::Key>;
    /// The payload, or the corrupt kind naming why it is unusable.
    fn into_value(self) -> Result<Self::Value, &'static str>;
}

/// The validation failure kind that is a clean miss (an old or newer
/// format version), not corruption.
const CLEAN_MISS: &str = "format";

/// Names every in-flight temp file uniquely together with the pid, across
/// store instances in one process and processes sharing one directory.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The two-tier store of one entry kind: an optional in-memory LRU over an
/// optional directory of entry files. All methods are `&self` and
/// thread-safe; several processes may share one directory.
pub(crate) struct ContentStore<E: Entry> {
    dir: Option<PathBuf>,
    memory: Mutex<Lru<E>>,
}

impl<E: Entry> ContentStore<E> {
    /// A store with no disk tier.
    pub(crate) fn in_memory() -> ContentStore<E> {
        ContentStore {
            dir: None,
            memory: Mutex::new(Lru {
                map: HashMap::new(),
                clock: 0,
            }),
        }
    }

    /// Opens (creating if needed) this kind's directory under `root`.
    pub(crate) fn open(root: &Path) -> std::io::Result<ContentStore<E>> {
        let dir = if E::SUBDIR.is_empty() {
            root.to_path_buf()
        } else {
            root.join(E::SUBDIR)
        };
        std::fs::create_dir_all(&dir)?;
        Ok(ContentStore {
            dir: Some(dir),
            ..ContentStore::in_memory()
        })
    }

    /// This kind's directory, when a disk tier is configured.
    pub(crate) fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The file of the entry addressed by `hash`, when a disk tier is
    /// configured.
    pub(crate) fn path(&self, hash: u128) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        Some(dir.join(format!("{}{hash:032x}.json", E::PREFIX)))
    }

    fn memory(&self) -> MutexGuard<'_, Lru<E>> {
        self.memory.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of entries resident in the memory tier.
    pub(crate) fn memory_len(&self) -> usize {
        self.memory().map.len()
    }

    /// The resident `(key, value)` of `hash`, *without* LRU promotion.
    pub(crate) fn peek(&self, hash: u128) -> Option<(E::Key, E::Value)> {
        self.memory()
            .map
            .get(&hash)
            .map(|(k, v, _)| (k.clone(), v.clone()))
    }

    fn remember(&self, hash: u128, key: &E::Key, value: &E::Value) {
        if E::MEMORY_CAPACITY > 0 {
            self.memory().put(hash, key.clone(), value.clone());
        }
    }

    /// Looks `key` up: memory tier first, then disk (promoting a valid
    /// disk entry into memory).
    pub(crate) fn get(&self, key: &E::Key) -> Option<E::Value> {
        let hash = E::address(key);
        if let Some(value) = self.memory().get(hash) {
            return Some(value);
        }
        let (_, key, value) = self.load(hash)?;
        self.remember(hash, &key, &value);
        Some(value)
    }

    /// Reads and validates the entry file of `hash`, returning its text,
    /// key and value. Every failure degrades to `None`; all but absence
    /// and a format bump are counted corrupt.
    pub(crate) fn load(&self, hash: u128) -> Option<(String, E::Key, E::Value)> {
        let path = self.path(hash)?;
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(_) => {
                self.corrupt(&path, "read");
                return None;
            }
        };
        match Self::validate(&text, Some(hash)) {
            Ok((key, value)) => Some((text, key, value)),
            Err(CLEAN_MISS) => None,
            Err(kind) => {
                self.corrupt(&path, kind);
                None
            }
        }
    }

    /// Validates serialized entry bytes: parse, format ([`CLEAN_MISS`]
    /// when not current), checksum, the recorded key (against the content
    /// address `want`, when given), then the payload. Returns the entry's
    /// key and value, or the failure kind.
    pub(crate) fn validate(
        text: &str,
        want: Option<u128>,
    ) -> Result<(E::Key, E::Value), &'static str> {
        let entry: E = serde_json::from_str(text).map_err(|_| "parse")?;
        if !entry.current_format() {
            return Err(CLEAN_MISS);
        }
        if !entry.checksum_ok() {
            return Err("checksum");
        }
        let key = entry.key().ok_or("key-mismatch")?;
        if want.is_some_and(|want| want != E::address(&key)) {
            // A content-hash collision, a hand-edited or a moved file:
            // the payload does not answer the key asked for.
            return Err("key-mismatch");
        }
        Ok((key, entry.into_value()?))
    }

    /// The serialized bytes of `value` under `key`.
    pub(crate) fn encode(key: &E::Key, value: &E::Value) -> String {
        let mut w = if E::PRETTY {
            serde::Writer::pretty()
        } else {
            serde::Writer::compact()
        };
        E::encode(key, value).serialize(&mut w);
        w.into_string()
    }

    /// Encodes and commits `value` under `key`.
    pub(crate) fn put(&self, key: &E::Key, value: &E::Value) {
        self.commit(key, value, &Self::encode(key, value));
    }

    /// Commits `text`, the serialized form of `value` under `key`, to the
    /// memory tier and the disk. A failed write is a warm-cache loss, not
    /// an error for the caller: it is reported by an event and by the
    /// `false` return.
    pub(crate) fn commit(&self, key: &E::Key, value: &E::Value, text: &str) -> bool {
        let hash = E::address(key);
        self.remember(hash, key, value);
        let Some(path) = self.path(hash) else {
            return true;
        };
        let Err(e) = Self::write(&path, text) else {
            return true;
        };
        if act_obs::enabled() {
            act_obs::event(E::WRITE_FAILED_EVENT)
                .str("error", &e.to_string())
                .emit();
        }
        false
    }

    fn write(path: &Path, text: &str) -> std::io::Result<()> {
        if E::TEARABLE {
            if let Some(keep) = crate::chaos::torn_write(text.len()) {
                // An injected torn write: commit a truncated prefix
                // directly to the final path, deliberately bypassing the
                // rename — the crash-mid-write the rename discipline
                // normally makes unobservable.
                return std::fs::write(path, &text.as_bytes()[..keep]);
            }
        }
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        // The rename is the commit point: concurrent readers see either
        // the old complete entry or the new complete entry, never bytes
        // in between.
        std::fs::write(&tmp, text)
            .and_then(|_| std::fs::rename(&tmp, path))
            .inspect_err(|_| {
                let _ = std::fs::remove_file(&tmp);
            })
    }

    /// Every `(content hash, file text)` pair in this kind's directory
    /// whose file name is a well-formed address, in hash order.
    pub(crate) fn files(&self) -> Vec<(u128, String)> {
        let Some(read) = self.dir().and_then(|dir| std::fs::read_dir(dir).ok()) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in read.flatten() {
            let name = entry.file_name();
            let hash = name
                .to_str()
                .and_then(|n| n.strip_prefix(E::PREFIX)?.strip_suffix(".json"))
                .and_then(parse_hash_hex);
            if let Some(hash) = hash {
                if let Ok(text) = std::fs::read_to_string(entry.path()) {
                    out.push((hash, text));
                }
            }
        }
        out.sort_by_key(|&(h, _)| h);
        out
    }

    fn corrupt(&self, path: &Path, kind: &str) {
        E::CORRUPT.add(1);
        if act_obs::enabled() {
            act_obs::event(E::CORRUPT_EVENT)
                .str("path", &path.display().to_string())
                .str("kind", kind)
                .emit();
        }
    }
}

/// The memory tier: least-recently-used eviction over a map bounded by
/// the kind's [`Entry::MEMORY_CAPACITY`].
struct Lru<E: Entry> {
    map: HashMap<u128, (E::Key, E::Value, u64)>,
    clock: u64,
}

impl<E: Entry> Lru<E> {
    fn get(&mut self, hash: u128) -> Option<E::Value> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(&hash).map(|(_, v, stamp)| {
            *stamp = clock;
            v.clone()
        })
    }

    fn put(&mut self, hash: u128, key: E::Key, value: E::Value) {
        self.clock += 1;
        self.map.insert(hash, (key, value, self.clock));
        while self.map.len() > E::MEMORY_CAPACITY {
            // The map is small (at most 1024 entries), so the linear scan
            // is cheap next to computing what an entry holds.
            let Some((&oldest, _)) = self.map.iter().min_by_key(|(_, (_, _, stamp))| *stamp) else {
                break;
            };
            self.map.remove(&oldest);
        }
    }
}

/// Sub-directory of the store root where scrub moves corrupt entries it
/// cannot repair. Quarantined files keep their name plus a `.corrupt`
/// suffix, so the root's `*.json` census (and the content-address space)
/// never sees them again.
const QUARANTINE_SUBDIR: &str = "quarantine";

/// Version of the on-disk verdict entry format. Bumping it makes every
/// existing entry a clean miss (the format check rejects old files
/// without counting them as corrupt).
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

    fn is_authoritative(&self) -> bool {
        self.verdict == "solvable" || self.verdict == "no-map"
    }
}

/// On-disk envelope of one verdict entry. Flat named fields only (the
/// vendored serde derive's supported shape); the witness rides as two
/// parallel index columns.
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
}

impl Entry for DiskEntry {
    type Key = StoreKey;
    type Value = StoredVerdict;
    const SUBDIR: &'static str = "";
    const PREFIX: &'static str = "";
    const PRETTY: bool = true;
    const MEMORY_CAPACITY: usize = 1024;
    const CORRUPT: &'static Counter = &SERVE_STORE_CORRUPT;
    const CORRUPT_EVENT: &'static str = "serve.store.corrupt";
    const WRITE_FAILED_EVENT: &'static str = "serve.store.write_failed";
    const TEARABLE: bool = true;

    fn address(key: &StoreKey) -> u128 {
        key.content_hash()
    }

    fn encode(key: &StoreKey, v: &StoredVerdict) -> DiskEntry {
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

    fn current_format(&self) -> bool {
        self.format == STORE_FORMAT_VERSION
    }

    fn checksum_ok(&self) -> bool {
        self.checksum == self.payload_checksum()
    }

    fn key(&self) -> Option<StoreKey> {
        Some(StoreKey {
            model: self.model.clone(),
            task: self.task.clone(),
            level: self.level,
            engine_schema: self.engine_schema,
        })
    }

    fn into_value(self) -> Result<StoredVerdict, &'static str> {
        if self.witness_from.len() != self.witness_to.len() {
            return Err("witness-shape");
        }
        let v = StoredVerdict {
            verdict: self.verdict,
            iterations: self.iterations,
            witness: self.witness_from.into_iter().zip(self.witness_to).collect(),
        };
        if !v.is_authoritative() {
            return Err("verdict");
        }
        Ok(v)
    }
}

/// The verdict kind's chassis.
type Verdicts = ContentStore<DiskEntry>;

/// The verdict kind of the content store, with its Merkle index. All
/// methods are `&self` and thread-safe; multiple processes may share one
/// directory (writes are atomic renames, so readers never see partial
/// entries).
pub struct VerdictStore {
    entries: Verdicts,
    merkle: Mutex<MerkleIndex>,
}

impl VerdictStore {
    /// A store with no disk tier (tests, ephemeral servers).
    pub fn in_memory() -> VerdictStore {
        VerdictStore {
            entries: ContentStore::in_memory(),
            merkle: Mutex::new(MerkleIndex::new()),
        }
    }

    /// Opens (creating if needed) the on-disk tier at `dir` and builds
    /// the Merkle index from the *valid* entries already present (invalid
    /// files are left unindexed for the scrub pass to repair or
    /// quarantine). Running servers converge through [`Self::scrub`].
    pub fn open(dir: &Path) -> std::io::Result<VerdictStore> {
        let entries = Verdicts::open(dir)?;
        let mut index = MerkleIndex::new();
        for (hash, text) in entries.files() {
            if Verdicts::validate(&text, Some(hash)).is_ok() {
                index.insert(hash, content_hash128(text.as_bytes()));
            }
        }
        Ok(VerdictStore {
            entries,
            merkle: Mutex::new(index),
        })
    }

    fn merkle(&self) -> MutexGuard<'_, MerkleIndex> {
        self.merkle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The on-disk path of `key`'s entry, when a disk tier is configured.
    pub fn entry_path(&self, key: &StoreKey) -> Option<PathBuf> {
        self.entries.path(key.content_hash())
    }

    /// Looks `key` up: memory tier first, then disk (promoting a disk
    /// hit into memory). Any malformed or non-authoritative disk entry
    /// degrades to a counted miss.
    pub fn get(&self, key: &StoreKey) -> Option<StoredVerdict> {
        self.entries.get(key)
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
        if !v.is_authoritative() {
            return false;
        }
        self.commit(key, v, &Verdicts::encode(key, v));
        true
    }

    /// The one commit step of [`Self::put`], [`Self::put_raw_entry`] and
    /// the scrub repair: the Merkle leaf of `json`, then the memory tier
    /// and the disk. `false` when the disk write failed.
    fn commit(&self, key: &StoreKey, v: &StoredVerdict, json: &str) -> bool {
        self.merkle()
            .insert(key.content_hash(), content_hash128(json.as_bytes()));
        self.entries.commit(key, v, json)
    }

    /// The disk-tier directory, when one is configured. The tower store
    /// ([`TowerStore`]) and the FPC summaries nest under it, so every
    /// kind shares one `--store` root without mixing files.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.entries.dir()
    }

    /// Number of entries currently resident in the memory tier.
    pub fn memory_len(&self) -> usize {
        self.entries.memory_len()
    }

    /// The current Merkle root over every committed entry
    /// ([`crate::merkle::EMPTY_ROOT`] when the store is empty).
    pub fn merkle_root(&self) -> u128 {
        self.merkle().root()
    }

    /// Number of entries in the Merkle index.
    pub fn merkle_len(&self) -> usize {
        self.merkle().len()
    }

    /// Every indexed `(entry hash, file hash)` pair in canonical order —
    /// the anti-entropy exchange unit.
    pub fn entry_list(&self) -> Vec<(u128, u128)> {
        self.merkle().entries()
    }

    /// The inclusion proof of `key`'s entry under the current root, or
    /// `None` when the entry is not committed.
    pub fn inclusion_proof(&self, key: &StoreKey) -> Option<InclusionProof> {
        self.merkle().proof(key.content_hash())
    }

    /// The canonical serialized bytes of the entry addressed by `hash` —
    /// what replication and anti-entropy fetch ship between peers. Disk
    /// tier first (the committed bytes; a damaged file is counted
    /// corrupt), falling back to re-encoding the memory tier's copy;
    /// `None` when neither tier holds a valid copy.
    pub fn raw_entry(&self, hash: u128) -> Option<String> {
        if let Some((text, ..)) = self.entries.load(hash) {
            return Some(text);
        }
        let (key, v) = self.entries.peek(hash)?;
        Some(Verdicts::encode(&key, &v))
    }

    /// Accepts a replicated entry in its serialized form (a peer's
    /// [`Self::raw_entry`]). The bytes are fully validated — parse,
    /// format, checksum, self-consistent content address, witness shape
    /// and authoritative verdict — before being committed verbatim, so a
    /// corrupt or tampered replica can never poison this store. Returns
    /// `false` (and stores nothing) for invalid bytes.
    pub fn put_raw_entry(&self, json: &str) -> bool {
        match Verdicts::validate(json, None) {
            Ok((key, v)) => {
                self.commit(&key, &v, json);
                true
            }
            Err(_) => false,
        }
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
        let disk = self.entries.files();
        let mut seen: Vec<u128> = Vec::with_capacity(disk.len());
        for (hash, text) in disk {
            report.checked += 1;
            seen.push(hash);
            match Verdicts::validate(&text, Some(hash)) {
                Ok(_) => {
                    let file_hash = content_hash128(text.as_bytes());
                    let mut index = self.merkle();
                    if index.file_hash(hash) != Some(file_hash) {
                        index.insert(hash, file_hash);
                        report.refreshed += 1;
                    }
                }
                Err(CLEAN_MISS) => {
                    // A format-version bump is a clean miss everywhere:
                    // the scrub neither repairs nor quarantines it.
                }
                Err(kind) => {
                    report.corrupt += 1;
                    SERVE_SCRUB_CORRUPT.add(1);
                    emit_scrub_corrupt(hash, kind);
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
        if self.entries.dir().is_some() {
            // Entries the index still carries but whose file vanished
            // (external deletion): treat like corruption — restore or
            // forget.
            seen.sort_unstable();
            for (hash, _) in self.entry_list() {
                if seen.binary_search(&hash).is_ok() {
                    continue;
                }
                report.checked += 1;
                report.corrupt += 1;
                SERVE_SCRUB_CORRUPT.add(1);
                emit_scrub_corrupt(hash, "missing");
                if self.repair_entry(hash, fetch) {
                    report.repaired += 1;
                    SERVE_SCRUB_REPAIRED.add(1);
                } else {
                    self.merkle().remove(hash);
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
        if let Some((key, v)) = self.entries.peek(hash) {
            if self.commit(&key, &v, &Verdicts::encode(&key, &v)) {
                return true;
            }
        }
        let Some(json) = fetch.and_then(|fetch| fetch(hash)) else {
            return false;
        };
        match Verdicts::validate(&json, Some(hash)) {
            Ok((key, v)) => self.commit(&key, &v, &json),
            Err(_) => false,
        }
    }

    /// Moves `hash`'s entry file into `quarantine/` (dropping it from
    /// the index), preserving the corrupt bytes for post-mortems while
    /// turning the entry into a clean miss. Deletion is the fallback if
    /// the move itself fails.
    fn quarantine(&self, hash: u128) {
        self.merkle().remove(hash);
        let (Some(dir), Some(src)) = (self.entries.dir(), self.entries.path(hash)) else {
            return;
        };
        let qdir = dir.join(QUARANTINE_SUBDIR);
        let moved = std::fs::create_dir_all(&qdir)
            .and_then(|_| std::fs::rename(&src, qdir.join(format!("{hash:032x}.json.corrupt"))));
        if moved.is_err() {
            let _ = std::fs::remove_file(&src);
        }
    }
}

fn emit_scrub_corrupt(hash: u128, kind: &str) {
    if act_obs::enabled() {
        act_obs::event("serve.scrub.corrupt")
            .str("entry", &format!("{hash:032x}"))
            .str("kind", kind)
            .emit();
    }
}

/// Version of the on-disk tower entry format. Bumping it makes every
/// existing tower entry a clean miss.
pub const TOWER_FORMAT_VERSION: u32 = 1;

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

impl Entry for TowerDiskEntry {
    type Key = TowerKey;
    type Value = Complex;
    const SUBDIR: &'static str = "towers";
    const PREFIX: &'static str = "";
    const PRETTY: bool = false;
    // `DomainCache` already holds resident towers.
    const MEMORY_CAPACITY: usize = 0;
    const CORRUPT: &'static Counter = &SERVE_TOWER_CORRUPT;
    const CORRUPT_EVENT: &'static str = "serve.tower.corrupt";
    const WRITE_FAILED_EVENT: &'static str = "serve.tower.write_failed";
    const TEARABLE: bool = false;

    fn address(key: &TowerKey) -> u128 {
        key.content_hash()
    }

    fn encode(key: &TowerKey, domain: &Complex) -> TowerDiskEntry {
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

    fn current_format(&self) -> bool {
        self.format == TOWER_FORMAT_VERSION
    }

    fn checksum_ok(&self) -> bool {
        self.checksum == self.payload_checksum()
    }

    fn key(&self) -> Option<TowerKey> {
        if self.portable_format != act_topology::PORTABLE_FORMAT_VERSION {
            return None;
        }
        Some(TowerKey {
            affine_hash: parse_hash_hex(&self.affine_hash)?,
            inputs_hash: parse_hash_hex(&self.inputs_hash)?,
            level: self.level,
        })
    }

    fn into_value(self) -> Result<Complex, &'static str> {
        let bytes = hex_decode(&self.complex_hex).ok_or("payload-hex")?;
        Complex::decode_portable(&bytes).map_err(|_| "payload-decode")
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

/// The tower kind of the content store: the domain towers `R_A^ℓ(I)`,
/// one checksummed compact JSON file per level under the `towers/`
/// sub-directory of a store root, with no memory tier.
///
/// The store implements [`fact::TowerPersistence`], so any
/// [`fact::DomainCache`] can be backed by it: on a warm restart the
/// cache loads each missing level from here (zero subdivision rounds)
/// instead of rebuilding the tower. Hits and clean misses are counted by
/// [`SERVE_TOWER_HIT`](crate::SERVE_TOWER_HIT) /
/// [`SERVE_TOWER_MISS`](crate::SERVE_TOWER_MISS), corrupt entries by
/// [`SERVE_TOWER_CORRUPT`].
pub struct TowerStore(ContentStore<TowerDiskEntry>);

impl TowerStore {
    /// Opens (creating if needed) the tower store under `root/towers`,
    /// where `root` is a store root.
    pub fn open(root: &Path) -> std::io::Result<TowerStore> {
        ContentStore::open(root).map(TowerStore)
    }

    /// The on-disk path of `key`'s entry.
    pub fn entry_path(&self, key: &TowerKey) -> PathBuf {
        let path = self.0.path(key.content_hash());
        path.expect("an opened tower store has a disk tier")
    }

    /// Loads and validates one tower level; every failure degrades to
    /// `None`.
    pub fn get(&self, key: &TowerKey) -> Option<Complex> {
        self.0.get(key)
    }

    /// Persists one tower level under `key` (atomic rename). A failed
    /// write is a warm-cache loss, never an error for the caller.
    pub fn put(&self, key: &TowerKey, domain: &Complex) {
        self.0.put(key, domain);
    }
}

impl fact::TowerPersistence for TowerStore {
    fn load_level(&self, affine_hash: u128, inputs_hash: u128, level: usize) -> Option<Complex> {
        let key = TowerKey {
            affine_hash,
            inputs_hash,
            level: level as u32,
        };
        let found = self.get(&key);
        match found {
            Some(_) => crate::SERVE_TOWER_HIT.add(1),
            None => crate::SERVE_TOWER_MISS.add(1),
        }
        found
    }

    fn store_level(&self, affine_hash: u128, inputs_hash: u128, level: usize, domain: &Complex) {
        let key = TowerKey {
            affine_hash,
            inputs_hash,
            level: level as u32,
        };
        self.put(&key, domain);
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
        let store = VerdictStore::in_memory();
        let capacity = <DiskEntry as Entry>::MEMORY_CAPACITY;
        for level in 1..=capacity {
            assert!(store.put(&key(level), &verdict()));
        }
        assert_eq!(store.get(&key(1)), Some(verdict())); // refresh level 1
        assert!(store.put(&key(capacity + 1), &verdict())); // evicts level 2 (LRU)
        assert_eq!(store.memory_len(), capacity);
        assert!(store.get(&key(1)).is_some());
        assert!(store.get(&key(2)).is_none());
        assert!(store.get(&key(capacity + 1)).is_some());
    }

    #[test]
    fn a_stored_non_authoritative_verdict_is_a_counted_corrupt_miss() {
        let _serial = crate::test_serial_guard();
        let dir = std::env::temp_dir().join(format!("fact-store-timed-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = VerdictStore::open(&dir).unwrap();
        // A well-formed entry with a valid checksum, but a verdict that
        // is a resource outcome rather than a fact about the model.
        let mut forged = DiskEntry::encode(&key(1), &verdict());
        forged.verdict = "timed-out".into();
        forged.witness_from.clear();
        forged.witness_to.clear();
        forged.checksum = forged.payload_checksum();
        let path = store.entry_path(&key(1)).unwrap();
        std::fs::write(&path, serde_json::to_string_pretty(&forged).unwrap()).unwrap();
        let corrupt_before = SERVE_STORE_CORRUPT.get();
        assert_eq!(store.get(&key(1)), None);
        assert_eq!(SERVE_STORE_CORRUPT.get() - corrupt_before, 1);
        assert_eq!(store.memory_len(), 0, "nothing is promoted to memory");
        let _ = std::fs::remove_dir_all(&dir);
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
