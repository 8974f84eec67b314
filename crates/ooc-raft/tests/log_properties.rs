//! Property-based tests of the replicated log — the operations behind
//! the paper's Log Matching property. Each property runs 256 seeded
//! cases through `ooc_core::testkit::cases`.

use ooc_core::testkit::cases;
use ooc_raft::{DecideAndStop, LogEntry, LogIndex, RaftLog, Term};
use ooc_simnet::SplitMix64;
use std::ops::Range;

const CASES: usize = 256;

/// An entry with term in `1..6` and command value in `0..8`.
fn entry(rng: &mut SplitMix64) -> LogEntry {
    LogEntry {
        term: Term(rng.range_inclusive(1, 5)),
        command: DecideAndStop(rng.below(8)),
    }
}

/// A batch whose length is drawn from `len`.
fn entries(rng: &mut SplitMix64, len: Range<u64>) -> Vec<LogEntry> {
    let len = rng.range_inclusive(len.start, len.end - 1);
    (0..len).map(|_| entry(rng)).collect()
}

/// A log of up to 11 entries. Terms in a real log are non-decreasing, so
/// the entries are sorted by term.
fn log(rng: &mut SplitMix64) -> RaftLog {
    let mut entries = entries(rng, 0..12);
    entries.sort_by_key(|e| e.term);
    let mut log = RaftLog::new();
    for e in entries {
        log.push(e);
    }
    log
}

/// `install` is idempotent: re-installing the same batch changes
/// nothing.
#[test]
fn install_is_idempotent() {
    cases(1, CASES, |rng| {
        let (log, batch) = (log(rng), entries(rng, 0..6));
        let mut a = log.clone();
        let prev = a.last_index();
        a.install(prev, &batch);
        let once = a.clone();
        a.install(prev, &batch);
        assert_eq!(a, once);
        true
    });
}

/// After `install(prev, batch)`, the log contains exactly `batch`
/// at positions `prev+1 ..= prev+len`.
#[test]
fn install_places_batch() {
    cases(2, CASES, |rng| {
        let (log, batch) = (log(rng), entries(rng, 1..6));
        let mut a = log.clone();
        let prev = a.last_index();
        let last = a.install(prev, &batch);
        assert_eq!(last, LogIndex(prev.0 + batch.len() as u64));
        for (k, e) in batch.iter().enumerate() {
            assert_eq!(a.get(LogIndex(prev.0 + 1 + k as u64)), Some(e));
        }
        true
    });
}

/// Install never touches the prefix before `prev`.
#[test]
fn install_preserves_prefix() {
    cases(3, CASES, |rng| {
        let (log, batch) = (log(rng), entries(rng, 0..6));
        let cut = rng.below(12);
        let mut a = log.clone();
        let prev = LogIndex(cut.min(a.last_index().0));
        let before: Vec<_> = (1..=prev.0).map(|i| *a.get(LogIndex(i)).unwrap()).collect();
        a.install(prev, &batch);
        for (k, e) in before.iter().enumerate() {
            assert_eq!(a.get(LogIndex(k as u64 + 1)), Some(e));
        }
        true
    });
}

/// A conflicting entry truncates everything after it (the paper's
/// "delete conflicting ones, if deleted delete all entries that
/// follow as well").
#[test]
fn conflict_truncates_suffix() {
    cases(4, CASES, |rng| {
        let (base, v) = (log(rng), rng.below(8));
        if base.len() < 2 {
            return false;
        }
        let mut a = base.clone();
        // Overwrite index 1 with a higher term than anything present.
        let hi = Term(base.entries().iter().map(|e| e.term.0).max().unwrap_or(0) + 1);
        let conflict = LogEntry {
            term: hi,
            command: DecideAndStop(v),
        };
        let last = a.install(LogIndex::ZERO, &[conflict]);
        assert_eq!(last, LogIndex(1));
        assert_eq!(a.len(), 1, "suffix after the conflict must be gone");
        assert_eq!(a.get(LogIndex(1)), Some(&conflict));
        true
    });
}

/// `matches` agrees with `term_at`, including the index-0 sentinel.
#[test]
fn matches_consistent_with_term_at() {
    cases(5, CASES, |rng| {
        let (log, idx, term) = (log(rng), rng.below(14), rng.below(7));
        let m = log.matches(LogIndex(idx), Term(term));
        let t = log.term_at(LogIndex(idx));
        assert_eq!(m, t == Some(Term(term)));
        true
    });
}

/// `suffix` returns exactly the tail, capped.
#[test]
fn suffix_is_the_tail() {
    cases(6, CASES, |rng| {
        let log = log(rng);
        let (from, cap) = (rng.range_inclusive(1, 13), rng.below(6) as usize);
        let s = log.suffix(LogIndex(from), cap);
        assert!(s.len() <= cap);
        for (k, e) in s.iter().enumerate() {
            assert_eq!(log.get(LogIndex(from + k as u64)), Some(e));
        }
        // Cap-respecting completeness: if fewer than `cap` returned, the
        // log must really end there.
        if s.len() < cap {
            assert!(log.get(LogIndex(from + s.len() as u64)).is_none());
        }
        true
    });
}

/// The log-matching property itself: if two logs agree on (index,
/// term) at some position after arbitrary installs from a common
/// "leader" sequence, they agree on the whole prefix. We model the
/// leader as a fixed entry sequence and two followers that install
/// different (prefix-consistent) cuts of it.
#[test]
fn log_matching_after_leader_installs() {
    cases(7, CASES, |rng| {
        let leader = entries(rng, 1..10);
        let (cut_a, cut_b) = (rng.below(10) as usize, rng.below(10) as usize);
        let mut leader_sorted = leader.clone();
        leader_sorted.sort_by_key(|e| e.term);
        let cut_a = cut_a.min(leader_sorted.len());
        let cut_b = cut_b.min(leader_sorted.len());
        let mut a = RaftLog::new();
        a.install(LogIndex::ZERO, &leader_sorted[..cut_a]);
        let mut b = RaftLog::new();
        b.install(LogIndex::ZERO, &leader_sorted[..cut_b]);
        let common = a.len().min(b.len()) as u64;
        for i in 1..=common {
            let (ea, eb) = (a.get(LogIndex(i)).unwrap(), b.get(LogIndex(i)).unwrap());
            if ea.term == eb.term {
                // Same origin sequence ⇒ entire prefix identical.
                for k in 1..=i {
                    assert_eq!(a.get(LogIndex(k)), b.get(LogIndex(k)));
                }
            }
        }
        true
    });
}
