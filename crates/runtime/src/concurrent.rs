//! A thread-backed atomic-snapshot memory.
//!
//! The deterministic simulator ([`crate::SnapshotMemory`]) is the tool of
//! choice for the paper's experiments (replayable adversarial schedules);
//! this module provides the same interface behind real threads for
//! examples and stress tests that want genuine concurrency. A global lock
//! makes every operation trivially linearizable — the point here is the
//! memory *semantics*, not lock-free performance.

use std::sync::{Arc, Mutex, MutexGuard};

use act_topology::{ColorSet, ProcessId};

/// A shareable, linearizable atomic-snapshot memory.
///
/// Cloning yields another handle to the same memory.
///
/// # Examples
///
/// ```
/// use act_runtime::SharedSnapshotMemory;
/// use act_topology::ProcessId;
///
/// let mem: SharedSnapshotMemory<u32> = SharedSnapshotMemory::new(2);
/// let m2 = mem.clone();
/// std::thread::spawn(move || m2.update(ProcessId::new(1), 9)).join().unwrap();
/// assert_eq!(mem.snapshot()[1], Some(9));
/// ```
#[derive(Clone, Debug)]
pub struct SharedSnapshotMemory<T> {
    inner: Arc<Mutex<Vec<Option<T>>>>,
}

impl<T: Clone> SharedSnapshotMemory<T> {
    /// Creates a memory with `n` empty slots.
    pub fn new(n: usize) -> Self {
        SharedSnapshotMemory {
            inner: Arc::new(Mutex::new(vec![None; n])),
        }
    }

    /// Takes the global lock. No operation leaves the slots half-written,
    /// so a lock poisoned by a panicking holder is safe to reuse.
    fn slots(&self) -> MutexGuard<'_, Vec<Option<T>>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Atomically replaces `p`'s slot.
    pub fn update(&self, p: ProcessId, value: T) {
        self.slots()[p.index()] = Some(value);
    }

    /// Atomically reads all slots.
    pub fn snapshot(&self) -> Vec<Option<T>> {
        self.slots().clone()
    }

    /// The set of processes that have written.
    pub fn participants(&self) -> ColorSet {
        self.slots()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| ProcessId::new(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_updates_are_all_visible() {
        let n = 8;
        let mem: SharedSnapshotMemory<usize> = SharedSnapshotMemory::new(n);
        std::thread::scope(|s| {
            for i in 0..n {
                let mem = mem.clone();
                s.spawn(move || {
                    for round in 0..100 {
                        mem.update(ProcessId::new(i), round * n + i);
                        let snap = mem.snapshot();
                        // Own slot is always visible (single writer).
                        assert_eq!(snap[i], Some(round * n + i));
                    }
                });
            }
        });
        assert_eq!(mem.participants(), ColorSet::full(n));
        let snap = mem.snapshot();
        for (i, slot) in snap.iter().enumerate() {
            assert_eq!(*slot, Some(99 * n + i));
        }
    }

    #[test]
    fn snapshots_are_consistent_cuts() {
        // Two processes alternate writes of matched pairs; any snapshot
        // must never observe slot1 ahead of slot0 (process 1 writes only
        // after reading process 0's latest).
        let mem: SharedSnapshotMemory<usize> = SharedSnapshotMemory::new(2);
        mem.update(ProcessId::new(0), 0);
        std::thread::scope(|s| {
            let writer = mem.clone();
            s.spawn(move || {
                for v in 1..500 {
                    writer.update(ProcessId::new(0), v);
                }
            });
            let chaser = mem.clone();
            s.spawn(move || {
                for _ in 0..500 {
                    let seen = chaser.snapshot()[0].unwrap();
                    chaser.update(ProcessId::new(1), seen);
                    let after = chaser.snapshot();
                    assert!(after[0].unwrap() >= after[1].unwrap());
                }
            });
        });
    }
}
