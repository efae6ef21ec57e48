//! Phase-boundary snapshots and the shared [`SnapshotStore`] — the
//! checkpoint substrate the recovery supervisor rolls back through.
//!
//! Ranks save their state at committed phase boundaries, the supervisor
//! reads the highest boundary *every* rank has saved (the consistent
//! cut), prunes stale work beyond it, and restores from it on replay. The
//! store holds no bill: the save/restore traffic is logged, and the fold
//! of each epoch's log charges it and keeps the bill at every snapshot
//! ([`crate::cost`]), the same on both machines.

#![expect(
    clippy::disallowed_types,
    reason = "std mutexes whose critical sections hold no scheduling point (see sync.rs)"
)]

use crate::comm::Rank;
use crate::faults::{FaultStats, FaultSummary};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One rank's state at a phase boundary — everything
/// [`crate::Comm::commit_phase`] needs to roll the rank back.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// The solver's opaque per-rank state words.
    pub state: Vec<f64>,
    /// Fault-protocol send sequence counters, per destination.
    pub seq_next: Vec<u64>,
    /// Fault-protocol receive sequence counters, per source.
    pub seq_seen: Vec<u64>,
    /// Fault counters at the boundary.
    pub stats: FaultStats,
}

/// Shared store of per-rank snapshots, keyed by (logical rank, boundary).
/// Ranks write their own slot only, so the mutexes are uncontended; the
/// supervisor reads between epochs, when no rank is running.
pub struct SnapshotStore {
    ranks: Vec<Mutex<BTreeMap<u64, Snapshot>>>,
    saves: AtomicU64,
    save_words: AtomicU64,
    restores: AtomicU64,
    restore_words: AtomicU64,
}

impl SnapshotStore {
    /// An empty store for `p` logical ranks.
    pub fn new(p: usize) -> Self {
        SnapshotStore {
            ranks: (0..p).map(|_| Mutex::new(BTreeMap::new())).collect(),
            saves: AtomicU64::new(0),
            save_words: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            restore_words: AtomicU64::new(0),
        }
    }

    /// Saves `rank`'s snapshot at `boundary` (1-based).
    pub fn save(&self, rank: Rank, boundary: u64, snapshot: Snapshot) {
        self.saves.fetch_add(1, Ordering::Relaxed);
        self.save_words.fetch_add(snapshot.state.len() as u64, Ordering::Relaxed);
        self.ranks[rank].lock().expect("snapshot store poisoned").insert(boundary, snapshot);
    }

    /// Takes `rank`'s snapshot at `boundary`; panics if absent (the
    /// supervisor only resumes at boundaries every rank has saved).
    pub fn restore(&self, rank: Rank, boundary: u64) -> Snapshot {
        let snapshot = self.ranks[rank]
            .lock()
            .expect("snapshot store poisoned")
            .get(&boundary)
            .cloned()
            .unwrap_or_else(|| panic!("rank {rank} has no snapshot at boundary {boundary}"));
        self.restores.fetch_add(1, Ordering::Relaxed);
        self.restore_words.fetch_add(snapshot.state.len() as u64, Ordering::Relaxed);
        snapshot
    }

    /// The highest boundary **every** rank has snapshotted — the last
    /// consistent cut (0 when any rank has none: restart from scratch).
    pub fn consistent_boundary(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| {
                r.lock().expect("snapshot store poisoned").keys().next_back().copied().unwrap_or(0)
            })
            .min()
            .unwrap_or(0)
    }

    /// Discards snapshots beyond `boundary` (stale work from a failed
    /// epoch) and returns the state words discarded — the rollback cost.
    /// How many there are depends on how far the ranks ahead of the cut
    /// ran before the failure reached them, so the discarded snapshots
    /// also leave the [`SnapshotStore::saves`] ledger: what that reports
    /// stays a function of the program, not of thread scheduling.
    pub fn prune_beyond(&self, boundary: u64) -> u64 {
        let mut discarded = 0;
        for r in &self.ranks {
            let mut map = r.lock().expect("snapshot store poisoned");
            let stale = map.split_off(&(boundary + 1));
            self.saves.fetch_sub(stale.len() as u64, Ordering::Relaxed);
            discarded += stale.values().map(|s| s.state.len() as u64).sum::<u64>();
        }
        self.save_words.fetch_sub(discarded, Ordering::Relaxed);
        discarded
    }

    /// Per-rank fault counters at boundary `cut` — the partial
    /// [`FaultSummary`] a [`crate::recovery::Unrecoverable`] report
    /// carries.
    pub fn partial_summary(&self, cut: u64) -> FaultSummary {
        let per_rank = self
            .ranks
            .iter()
            .map(|r| {
                r.lock()
                    .expect("snapshot store poisoned")
                    .get(&cut)
                    .map(|s| s.stats)
                    .unwrap_or_default()
            })
            .collect();
        FaultSummary { per_rank, unrecoverable: 1 }
    }

    /// Snapshots held: captured in any epoch and not pruned since.
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }

    /// State words in the snapshots held.
    pub fn save_words(&self) -> u64 {
        self.save_words.load(Ordering::Relaxed)
    }

    /// Snapshots restored so far.
    pub fn restores(&self) -> u64 {
        self.restores.load(Ordering::Relaxed)
    }

    /// State words restored so far.
    pub fn restore_words(&self) -> u64 {
        self.restore_words.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_tracks_the_consistent_cut() {
        let store = SnapshotStore::new(2);
        assert_eq!(store.consistent_boundary(), 0);
        store.save(0, 1, Snapshot { state: vec![1.0; 4], ..Default::default() });
        assert_eq!(store.consistent_boundary(), 0, "rank 1 has nothing yet");
        store.save(1, 1, Snapshot { state: vec![2.0; 3], ..Default::default() });
        store.save(0, 2, Snapshot { state: vec![3.0; 5], ..Default::default() });
        assert_eq!(store.consistent_boundary(), 1, "rank 1 stops at boundary 1");
        assert_eq!(store.saves(), 3);
        assert_eq!(store.save_words(), 12);
        // pruning discards rank 0's stale boundary-2 snapshot
        assert_eq!(store.prune_beyond(1), 5);
        assert_eq!((store.saves(), store.save_words()), (2, 7), "net of the pruned snapshot");
        assert_eq!(store.consistent_boundary(), 1);
        assert_eq!(store.restore(0, 1).state, vec![1.0; 4]);
        assert_eq!(store.restore_words(), 4);
    }

    #[test]
    fn partial_summary_reads_the_cut() {
        let store = SnapshotStore::new(2);
        let stats = FaultStats { drops_injected: 7, ..Default::default() };
        store.save(0, 1, Snapshot { stats, ..Default::default() });
        let partial = store.partial_summary(1);
        assert_eq!(partial.per_rank[0].drops_injected, 7);
        assert_eq!(partial.per_rank[1], FaultStats::default(), "missing rank defaults");
        assert_eq!(partial.unrecoverable, 1);
    }
}
