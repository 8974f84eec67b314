//! Simulated stable storage with injectable storage faults.
//!
//! Each process owns a [`StableStore`]: an append-only log of key/value
//! [`StorageRecord`]s with a *synced watermark*. Handlers persist records
//! through [`Context::persist`](crate::Context::persist) and make them
//! durable with [`Context::sync_storage`](crate::Context::sync_storage),
//! exactly the way they send messages — the writes are buffered as
//! effects and applied by the engine after the handler returns, so the
//! store a handler reads through
//! [`Context::storage`](crate::Context::storage) reflects the state
//! *before* the current invocation's own writes.
//!
//! What survives a crash is decided by the process's [`StoragePolicy`]:
//!
//! * [`SyncAlways`](StoragePolicy::SyncAlways) — every write is
//!   implicitly synced; a crash loses nothing. This is the default and
//!   reproduces the pre-storage behavior where durability was free.
//! * [`LoseUnsynced`](StoragePolicy::LoseUnsynced) — the unsynced suffix
//!   of the log is discarded.
//! * [`TornLastWrite`](StoragePolicy::TornLastWrite) — the unsynced
//!   suffix survives *except* the last in-flight record, whose value is
//!   truncated to half its length (a torn write). Recovery code must
//!   treat a trailing record as potentially corrupt.
//! * [`Amnesia`](StoragePolicy::Amnesia) — the whole store is lost,
//!   synced or not. This models the crash-stop reading of the paper's
//!   §4.3 restart assumption: a restarted process is a fresh process.
//!
//! Crash losses are applied when the engine processes the `Crash` event;
//! `on_restart` then observes exactly the surviving records. Everything
//! is plain data ordered by append time, so runs remain a pure function
//! of (processes, config, seed) and storage-fault sweeps inherit the
//! byte-identity contract.

use crate::ProcessId;
use std::borrow::Cow;

/// What a crash does to the unsynced (and, for `Amnesia`, synced)
/// contents of a process's [`StableStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StoragePolicy {
    /// Every write is durable the moment it is applied; crashes lose
    /// nothing. The default.
    #[default]
    SyncAlways,
    /// A crash discards every record appended since the last sync.
    LoseUnsynced,
    /// A crash keeps the unsynced suffix except the last record, whose
    /// value is truncated to half its length — a torn write.
    TornLastWrite,
    /// A crash discards the entire store, synced records included.
    Amnesia,
}

impl StoragePolicy {
    /// All policies, in severity order (useful for sweep grids).
    pub const ALL: [StoragePolicy; 4] = [
        StoragePolicy::SyncAlways,
        StoragePolicy::LoseUnsynced,
        StoragePolicy::TornLastWrite,
        StoragePolicy::Amnesia,
    ];

    /// Stable machine name, used in artifact JSON and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            StoragePolicy::SyncAlways => "sync-always",
            StoragePolicy::LoseUnsynced => "lose-unsynced",
            StoragePolicy::TornLastWrite => "torn-last-write",
            StoragePolicy::Amnesia => "amnesia",
        }
    }

    /// Parses a [`name`](StoragePolicy::name) back into a policy.
    pub fn from_name(name: &str) -> Option<StoragePolicy> {
        StoragePolicy::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Whether a crash under this policy can lose records.
    pub fn is_lossy(self) -> bool {
        self != StoragePolicy::SyncAlways
    }
}

/// One persisted key/value record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageRecord {
    /// The record's key. Later records for the same key shadow earlier
    /// ones on lookup; recovery code scanning in reverse sees the newest
    /// surviving record first. Processes persist under a handful of
    /// fixed keys, so a `&'static str` key is borrowed, not copied.
    pub key: Cow<'static, str>,
    /// The record's value bytes.
    pub value: Vec<u8>,
}

/// A process's simulated stable storage: an append-only record log with
/// a synced watermark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StableStore {
    policy: StoragePolicy,
    records: Vec<StorageRecord>,
    /// Records `[0, synced)` survive any crash short of `Amnesia`.
    synced: usize,
}

impl StableStore {
    /// Creates an empty store under `policy`.
    ///
    /// The engine builds one per process; constructing one directly is
    /// useful for unit-testing recovery code against hand-built contents.
    pub fn new(policy: StoragePolicy) -> StableStore {
        StableStore {
            policy,
            records: Vec::new(),
            synced: 0,
        }
    }

    /// The store's crash policy.
    pub fn policy(&self) -> StoragePolicy {
        self.policy
    }

    /// All surviving records, in append order.
    pub fn records(&self) -> &[StorageRecord] {
        &self.records
    }

    /// The newest record for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        self.records
            .iter()
            .rev()
            .find(|r| r.key == key)
            .map(|r| r.value.as_slice())
    }

    /// Number of records currently in the store.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records past the synced watermark (at risk under a
    /// lossy policy).
    pub fn unsynced(&self) -> usize {
        self.records.len() - self.synced
    }

    /// Appends one record. Under [`StoragePolicy::SyncAlways`] the write
    /// is synced immediately. Processes persist through
    /// [`Context::persist`](crate::Context::persist); direct appends are
    /// for building fixture stores in recovery tests.
    pub fn append(&mut self, key: impl Into<Cow<'static, str>>, value: Vec<u8>) {
        self.records.push(StorageRecord {
            key: key.into(),
            value,
        });
        if self.policy == StoragePolicy::SyncAlways {
            self.synced = self.records.len();
        }
    }

    /// Moves the synced watermark to the end of the log; returns how many
    /// records became durable.
    pub fn sync(&mut self) -> usize {
        let newly = self.records.len() - self.synced;
        self.synced = self.records.len();
        newly
    }

    /// Applies the policy's crash semantics; returns how many records
    /// were lost (a torn record counts as one).
    pub(crate) fn apply_crash(&mut self) -> u64 {
        match self.policy {
            StoragePolicy::SyncAlways => 0,
            StoragePolicy::LoseUnsynced => {
                let lost = (self.records.len() - self.synced) as u64;
                self.records.truncate(self.synced);
                lost
            }
            StoragePolicy::TornLastWrite => {
                if self.records.len() > self.synced {
                    let last = self.records.last_mut().expect("unsynced suffix non-empty");
                    last.value.truncate(last.value.len() / 2);
                    self.synced = self.records.len();
                    1
                } else {
                    0
                }
            }
            StoragePolicy::Amnesia => {
                let lost = self.records.len() as u64;
                self.records.clear();
                self.synced = 0;
                lost
            }
        }
    }
}

/// Per-process storage policies for a run: a default plus overrides.
///
/// Like [`FaultPlan`](crate::FaultPlan), the storage plan is part of the
/// run's identity — re-running with the same plan and seed reproduces
/// the execution (and every storage loss) exactly.
///
/// ```
/// use ooc_simnet::{ProcessId, StorageFaultPlan, StoragePolicy};
/// let plan = StorageFaultPlan::uniform(StoragePolicy::SyncAlways)
///     .with_policy(ProcessId(2), StoragePolicy::Amnesia);
/// assert_eq!(plan.policy_for(ProcessId(2)), StoragePolicy::Amnesia);
/// assert_eq!(plan.policy_for(ProcessId(0)), StoragePolicy::SyncAlways);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageFaultPlan {
    default_policy: StoragePolicy,
    overrides: Vec<(ProcessId, StoragePolicy)>,
    /// Slow-disk injection: ticks a `sync()` stalls the issuing process.
    default_sync_latency: u64,
    latency_overrides: Vec<(ProcessId, u64)>,
}

impl StorageFaultPlan {
    /// The default plan: every process under
    /// [`StoragePolicy::SyncAlways`].
    pub fn new() -> StorageFaultPlan {
        StorageFaultPlan::default()
    }

    /// A plan applying `policy` to every process.
    pub fn uniform(policy: StoragePolicy) -> StorageFaultPlan {
        StorageFaultPlan {
            default_policy: policy,
            overrides: Vec::new(),
            default_sync_latency: 0,
            latency_overrides: Vec::new(),
        }
    }

    /// Overrides the policy for one process (the last override for a
    /// process wins).
    pub fn with_policy(mut self, p: ProcessId, policy: StoragePolicy) -> StorageFaultPlan {
        self.overrides.push((p, policy));
        self
    }

    /// The policy governing process `p`.
    pub fn policy_for(&self, p: ProcessId) -> StoragePolicy {
        self.overrides
            .iter()
            .rev()
            .find(|(q, _)| *q == p)
            .map(|(_, pol)| *pol)
            .unwrap_or(self.default_policy)
    }

    /// The plan-wide default policy.
    pub fn default_policy(&self) -> StoragePolicy {
        self.default_policy
    }

    /// The per-process overrides, in insertion order.
    pub fn overrides(&self) -> &[(ProcessId, StoragePolicy)] {
        &self.overrides
    }

    /// Whether any process runs under a lossy policy.
    pub fn is_lossy(&self) -> bool {
        self.default_policy.is_lossy() || self.overrides.iter().any(|(_, p)| p.is_lossy())
    }

    /// Slow-disk injection: every `sync()` stalls the issuing process for
    /// `ticks` simulated ticks (its subsequent sends and timers from that
    /// invocation land late). Applies to all processes without a
    /// per-process latency override.
    pub fn with_sync_latency(mut self, ticks: u64) -> StorageFaultPlan {
        self.default_sync_latency = ticks;
        self
    }

    /// Overrides the sync latency for one process (the last override for
    /// a process wins).
    pub fn with_sync_latency_for(mut self, p: ProcessId, ticks: u64) -> StorageFaultPlan {
        self.latency_overrides.push((p, ticks));
        self
    }

    /// The `sync()` stall in effect for process `p`, in ticks.
    pub fn sync_latency_for(&self, p: ProcessId) -> u64 {
        self.latency_overrides
            .iter()
            .rev()
            .find(|(q, _)| *q == p)
            .map(|&(_, t)| t)
            .unwrap_or(self.default_sync_latency)
    }

    /// The plan-wide default sync latency, in ticks.
    pub fn default_sync_latency(&self) -> u64 {
        self.default_sync_latency
    }

    /// Whether any process has a non-zero sync latency.
    pub fn has_sync_latency(&self) -> bool {
        self.default_sync_latency > 0 || self.latency_overrides.iter().any(|&(_, t)| t > 0)
    }

    /// Drops overrides referring to processes outside `0..n` (shrinking
    /// hook, mirroring [`FaultPlan::restricted_to`](crate::FaultPlan)).
    pub fn restricted_to(mut self, n: usize) -> StorageFaultPlan {
        self.overrides.retain(|(p, _)| p.0 < n);
        self.latency_overrides.retain(|(p, _)| p.0 < n);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(store: &StableStore) -> Vec<(&str, &[u8])> {
        store
            .records()
            .iter()
            .map(|r| (&*r.key, r.value.as_slice()))
            .collect()
    }

    #[test]
    fn sync_always_survives_crash() {
        let mut s = StableStore::new(StoragePolicy::SyncAlways);
        s.append("a", vec![1]);
        s.append("b", vec![2]);
        assert_eq!(s.unsynced(), 0, "SyncAlways syncs every write");
        assert_eq!(s.apply_crash(), 0);
        assert_eq!(rec(&s), vec![("a", &[1u8][..]), ("b", &[2u8][..])]);
    }

    #[test]
    fn lose_unsynced_drops_suffix_keeps_synced_prefix() {
        let mut s = StableStore::new(StoragePolicy::LoseUnsynced);
        s.append("a", vec![1]);
        assert_eq!(s.sync(), 1);
        s.append("b", vec![2]);
        s.append("c", vec![3]);
        assert_eq!(s.unsynced(), 2);
        assert_eq!(s.apply_crash(), 2);
        assert_eq!(rec(&s), vec![("a", &[1u8][..])]);
        assert_eq!(s.unsynced(), 0);
    }

    #[test]
    fn torn_last_write_truncates_only_final_record() {
        let mut s = StableStore::new(StoragePolicy::TornLastWrite);
        s.append("a", vec![1, 2, 3, 4]);
        s.append("b", vec![5, 6, 7, 8, 9]);
        assert_eq!(s.apply_crash(), 1);
        // "a" intact, "b" torn to ⌊5/2⌋ = 2 bytes.
        assert_eq!(rec(&s), vec![("a", &[1u8, 2, 3, 4][..]), ("b", &[5u8, 6][..])]);
        // A second crash with nothing unsynced loses nothing more.
        assert_eq!(s.apply_crash(), 0);
    }

    #[test]
    fn torn_last_write_spares_synced_records() {
        let mut s = StableStore::new(StoragePolicy::TornLastWrite);
        s.append("a", vec![1, 2]);
        s.sync();
        assert_eq!(s.apply_crash(), 0);
        assert_eq!(rec(&s), vec![("a", &[1u8, 2][..])]);
    }

    #[test]
    fn amnesia_loses_everything_even_synced() {
        let mut s = StableStore::new(StoragePolicy::Amnesia);
        s.append("a", vec![1]);
        s.sync();
        s.append("b", vec![2]);
        assert_eq!(s.apply_crash(), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn get_returns_newest_record_for_key() {
        let mut s = StableStore::new(StoragePolicy::SyncAlways);
        assert_eq!(s.get("x"), None);
        s.append("x", vec![1]);
        s.append("y", vec![2]);
        s.append("x", vec![3]);
        assert_eq!(s.get("x"), Some(&[3u8][..]));
        assert_eq!(s.get("y"), Some(&[2u8][..]));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn policy_names_round_trip() {
        for p in StoragePolicy::ALL {
            assert_eq!(StoragePolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(StoragePolicy::from_name("fsync-maybe"), None);
        assert_eq!(StoragePolicy::default(), StoragePolicy::SyncAlways);
    }

    #[test]
    fn plan_overrides_and_restriction() {
        let plan = StorageFaultPlan::uniform(StoragePolicy::LoseUnsynced)
            .with_policy(ProcessId(1), StoragePolicy::Amnesia)
            .with_policy(ProcessId(1), StoragePolicy::TornLastWrite)
            .with_policy(ProcessId(7), StoragePolicy::Amnesia);
        assert_eq!(plan.policy_for(ProcessId(0)), StoragePolicy::LoseUnsynced);
        assert_eq!(plan.policy_for(ProcessId(1)), StoragePolicy::TornLastWrite);
        assert!(plan.is_lossy());
        let small = plan.restricted_to(3);
        assert_eq!(small.overrides().len(), 2, "both p1 overrides survive");
        assert_eq!(small.policy_for(ProcessId(7)), StoragePolicy::LoseUnsynced);
        assert!(!StorageFaultPlan::new().is_lossy());
    }

    #[test]
    fn plan_sync_latency_overrides_and_restriction() {
        let plan = StorageFaultPlan::new()
            .with_sync_latency(5)
            .with_sync_latency_for(ProcessId(1), 20)
            .with_sync_latency_for(ProcessId(1), 30)
            .with_sync_latency_for(ProcessId(7), 50);
        assert_eq!(plan.sync_latency_for(ProcessId(0)), 5);
        assert_eq!(plan.sync_latency_for(ProcessId(1)), 30, "last override wins");
        assert_eq!(plan.default_sync_latency(), 5);
        assert!(plan.has_sync_latency());
        let small = plan.restricted_to(3);
        assert_eq!(small.sync_latency_for(ProcessId(7)), 5, "override dropped");
        assert!(!StorageFaultPlan::new().has_sync_latency());
        assert!(StorageFaultPlan::new()
            .with_sync_latency_for(ProcessId(0), 1)
            .has_sync_latency());
    }
}
