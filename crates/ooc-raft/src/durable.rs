//! Durable encoding of Raft's persistent state, and the checker that
//! watches what happens when durability is taken away.
//!
//! Raft's safety argument leans on two facts surviving a crash: the
//! `(CurrentTerm, VotedFor)` pair (Election Safety — at most one vote per
//! term) and the log (Leader Completeness). This module maps
//! [`PersistentState`] onto the simulator's [`StableStore`] as two keys:
//!
//! * `"hardstate"` — a fixed 17-byte record: `CurrentTerm` (u64 LE),
//!   a has-vote flag (u8), and the voted-for process id (u64 LE).
//! * `"log"` — a full snapshot of the log, 16 bytes per entry
//!   (entry term u64 LE, command value u64 LE).
//!
//! Records are append-only; [`recover`] replays the store like a WAL,
//! taking the **latest decodable** record per key. A torn record (cut
//! short by [`StoragePolicy::TornLastWrite`](ooc_simnet::StoragePolicy))
//! fails its length check and recovery falls back to the previous intact
//! snapshot — exactly what a checksummed on-disk format would do.
//!
//! [`DurabilityChecker`] is the observability half: it folds per-node
//! [`RaftEvent::VoteGranted`] streams and flags any node that granted its
//! vote to two different candidates in one term — the double-vote that
//! lost `VotedFor` records make possible and that breaks Election Safety.

use crate::events::RaftEvent;
use crate::log::RaftLog;
use crate::state::PersistentState;
use crate::types::{DecideAndStop, LogEntry, Term};
use ooc_core::checker::{Violation, ViolationKind};
use ooc_simnet::{Context, ProcessId, StableStore};
use std::collections::BTreeSet;

/// Storage key holding the `(CurrentTerm, VotedFor)` pair.
pub const HARDSTATE_KEY: &str = "hardstate";

/// Storage key holding the log snapshot.
pub const LOG_KEY: &str = "log";

/// Byte length of an encoded hardstate record.
const HARDSTATE_LEN: usize = 17;

/// Byte length of one encoded log entry.
const ENTRY_LEN: usize = 16;

/// Encodes `(CurrentTerm, VotedFor)` into a fixed 17-byte record.
pub fn encode_hardstate(term: Term, voted_for: Option<ProcessId>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HARDSTATE_LEN);
    out.extend_from_slice(&term.0.to_le_bytes());
    match voted_for {
        Some(p) => {
            out.push(1);
            out.extend_from_slice(&(p.index() as u64).to_le_bytes());
        }
        None => {
            out.push(0);
            out.extend_from_slice(&0u64.to_le_bytes());
        }
    }
    out
}

/// Decodes a hardstate record; `None` when the record is torn or malformed
/// (any length other than exactly 17 bytes).
pub fn decode_hardstate(bytes: &[u8]) -> Option<(Term, Option<ProcessId>)> {
    if bytes.len() != HARDSTATE_LEN {
        return None;
    }
    let term = Term(u64::from_le_bytes(bytes[0..8].try_into().ok()?));
    let voted_for = match bytes[8] {
        0 => None,
        _ => Some(ProcessId(u64::from_le_bytes(bytes[9..17].try_into().ok()?) as usize)),
    };
    Some((term, voted_for))
}

/// Encodes a full log snapshot, 16 bytes per entry.
pub fn encode_log(log: &RaftLog) -> Vec<u8> {
    let mut out = Vec::with_capacity(log.len() * ENTRY_LEN);
    for entry in log.entries() {
        out.extend_from_slice(&entry.term.0.to_le_bytes());
        out.extend_from_slice(&entry.command.0.to_le_bytes());
    }
    out
}

/// Decodes a log snapshot. A torn tail (trailing bytes short of a full
/// 16-byte entry) is dropped, mirroring how a real implementation discards
/// a half-written record that fails its checksum.
pub fn decode_log(bytes: &[u8]) -> RaftLog {
    let mut log = RaftLog::new();
    for chunk in bytes.chunks_exact(ENTRY_LEN) {
        let term = Term(u64::from_le_bytes(chunk[0..8].try_into().unwrap()));
        let command = DecideAndStop(u64::from_le_bytes(chunk[8..16].try_into().unwrap()));
        log.push(LogEntry { term, command });
    }
    log
}

/// Writes the `(CurrentTerm, VotedFor)` pair through the context's
/// stable storage.
pub fn persist_hardstate<M: Clone, O>(ctx: &mut Context<'_, M, O>, state: &PersistentState) {
    ctx.persist(
        HARDSTATE_KEY,
        encode_hardstate(state.current_term, state.voted_for),
    );
}

/// Writes a full log snapshot through the context's stable storage.
pub fn persist_log<M: Clone, O>(ctx: &mut Context<'_, M, O>, state: &PersistentState) {
    ctx.persist(LOG_KEY, encode_log(&state.log));
}

/// Rebuilds [`PersistentState`] from whatever survived in `store`.
///
/// Walks the record stream newest-first and takes the first *decodable*
/// record for each key, so a torn final write falls back to the previous
/// snapshot and a fully emptied store ([`StoragePolicy::Amnesia`](ooc_simnet::StoragePolicy::Amnesia))
/// yields the pristine default — a node that remembers nothing.
pub fn recover(store: &StableStore) -> PersistentState {
    let mut state = PersistentState::default();
    let mut have_hardstate = false;
    let mut have_log = false;
    for record in store.records().iter().rev() {
        match &*record.key {
            HARDSTATE_KEY if !have_hardstate => {
                if let Some((term, voted_for)) = decode_hardstate(&record.value) {
                    state.current_term = term;
                    state.voted_for = voted_for;
                    have_hardstate = true;
                }
            }
            LOG_KEY if !have_log => {
                // A snapshot record always decodes (a torn tail just
                // shortens it), but only a *non-torn* record is trusted
                // wholesale; a torn one still yields its intact prefix.
                state.log = decode_log(&record.value);
                have_log = true;
            }
            _ => {}
        }
        if have_hardstate && have_log {
            break;
        }
    }
    state
}

/// Checks the **durability contract**: no node grants its vote to two
/// different candidates in the same term.
///
/// A node that persists `VotedFor` before answering a `RequestVote` can
/// never do this, however it crashes; a node whose vote record was lost
/// ([`StoragePolicy::Amnesia`](ooc_simnet::StoragePolicy::Amnesia) /
/// [`StoragePolicy::LoseUnsynced`](ooc_simnet::StoragePolicy::LoseUnsynced)
/// without a sync) will happily re-grant after a restart — the classic
/// double-vote that lets two leaders win one term. This checker flags the
/// double-vote itself, one causal step before Election Safety notices the
/// two leaders.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityChecker;

impl DurabilityChecker {
    /// Scans per-node event streams (`events[i]` belongs to process `i`)
    /// and returns one violation per `(node, term)` that granted votes to
    /// more than one candidate, in node then term order.
    pub fn check<E: AsRef<[RaftEvent]>>(events: &[E]) -> Vec<Violation> {
        let grant = |ev: &RaftEvent| match *ev {
            RaftEvent::VoteGranted { term, candidate } => Some((term, candidate)),
            _ => None,
        };
        let most = events
            .iter()
            .map(|evs| evs.as_ref().iter().filter_map(grant).count())
            .max()
            .unwrap_or(0);
        let mut violations = Vec::new();
        // One node's grants as sorted, distinct `(term, candidate)` pairs,
        // so a term with two pairs went to two candidates. The buffer is
        // sized for the busiest voter and reused from node to node.
        let mut grants: Vec<(Term, ProcessId)> = Vec::with_capacity(most);
        for (i, node_events) in events.iter().enumerate() {
            grants.clear();
            grants.extend(node_events.as_ref().iter().filter_map(grant));
            grants.sort_unstable();
            grants.dedup();
            for term_grants in grants.chunk_by(|a, b| a.0 == b.0) {
                if term_grants.len() > 1 {
                    let term = term_grants[0].0;
                    let candidates: BTreeSet<ProcessId> =
                        term_grants.iter().map(|&(_, c)| c).collect();
                    violations.push(Violation {
                        kind: ViolationKind::Agreement,
                        round: Some(term.0),
                        detail: format!(
                            "durability: p{i} granted {term} votes to {candidates:?} \
                             (VotedFor record did not survive a crash)"
                        ),
                    });
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_simnet::StoragePolicy;

    fn e(term: u64, v: u64) -> LogEntry {
        LogEntry {
            term: Term(term),
            command: DecideAndStop(v),
        }
    }

    #[test]
    fn hardstate_round_trips() {
        for (term, vote) in [
            (Term(0), None),
            (Term(3), Some(ProcessId(0))),
            (Term(u64::MAX), Some(ProcessId(7))),
        ] {
            let bytes = encode_hardstate(term, vote);
            assert_eq!(bytes.len(), 17);
            assert_eq!(decode_hardstate(&bytes), Some((term, vote)));
        }
    }

    #[test]
    fn torn_hardstate_is_rejected() {
        let bytes = encode_hardstate(Term(5), Some(ProcessId(2)));
        for cut in 0..bytes.len() {
            assert_eq!(decode_hardstate(&bytes[..cut]), None, "cut at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode_hardstate(&long), None);
    }

    #[test]
    fn log_round_trips() {
        let mut log = RaftLog::new();
        log.push(e(1, 10));
        log.push(e(2, 20));
        let decoded = decode_log(&encode_log(&log));
        assert_eq!(decoded, log);
        assert!(decode_log(&encode_log(&RaftLog::new())).is_empty());
    }

    #[test]
    fn torn_log_tail_is_dropped() {
        let mut log = RaftLog::new();
        log.push(e(1, 10));
        log.push(e(1, 20));
        let bytes = encode_log(&log);
        // Tear the second entry in half: only the first survives.
        let decoded = decode_log(&bytes[..24]);
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded.get(crate::types::LogIndex(1)).unwrap().command.0, 10);
    }

    fn store_with(policy: StoragePolicy, records: &[(&'static str, Vec<u8>)]) -> StableStore {
        let mut store = StableStore::new(policy);
        for &(key, ref value) in records {
            store.append(key, value.clone());
        }
        store
    }

    #[test]
    fn recover_takes_latest_record_per_key() {
        let store = store_with(
            StoragePolicy::SyncAlways,
            &[
                ("hardstate", encode_hardstate(Term(1), Some(ProcessId(0)))),
                ("log", encode_log(&RaftLog::new())),
                ("hardstate", encode_hardstate(Term(2), Some(ProcessId(1)))),
            ],
        );
        let state = recover(&store);
        assert_eq!(state.current_term, Term(2));
        assert_eq!(state.voted_for, Some(ProcessId(1)));
        assert!(state.log.is_empty());
    }

    #[test]
    fn recover_falls_back_past_a_torn_record() {
        let good = encode_hardstate(Term(3), Some(ProcessId(2)));
        let torn = encode_hardstate(Term(4), Some(ProcessId(0)));
        let store = store_with(
            StoragePolicy::SyncAlways,
            &[("hardstate", good), ("hardstate", torn[..8].to_vec())],
        );
        let state = recover(&store);
        assert_eq!(state.current_term, Term(3), "torn record skipped");
        assert_eq!(state.voted_for, Some(ProcessId(2)));
    }

    #[test]
    fn recover_from_empty_store_is_pristine() {
        let store = StableStore::new(StoragePolicy::Amnesia);
        assert_eq!(recover(&store), PersistentState::default());
    }

    #[test]
    fn durability_checker_flags_double_votes() {
        let clean = vec![
            vec![RaftEvent::VoteGranted { term: Term(1), candidate: ProcessId(1) }],
            vec![
                RaftEvent::VoteGranted { term: Term(1), candidate: ProcessId(1) },
                RaftEvent::VoteGranted { term: Term(2), candidate: ProcessId(0) },
            ],
        ];
        assert!(DurabilityChecker::check(&clean).is_empty());

        let dirty = vec![vec![
            RaftEvent::VoteGranted { term: Term(1), candidate: ProcessId(1) },
            RaftEvent::VoteGranted { term: Term(1), candidate: ProcessId(2) },
        ]];
        let violations = DurabilityChecker::check(&dirty);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::Agreement);
        assert_eq!(violations[0].round, Some(1));
        assert!(violations[0].detail.contains("p0 granted T1"));
    }

    #[test]
    fn durability_violation_texts_are_pinned() {
        // Written into failure artifacts, so pinned as first reported:
        // one violation per (node, term) in node then term order, with
        // the candidates as a sorted set. p0's stream is out of term
        // order, as an amnesiac restart leaves it.
        let vote = |term: u64, candidate: usize| RaftEvent::VoteGranted {
            term: Term(term),
            candidate: ProcessId(candidate),
        };
        let events = vec![
            vec![vote(3, 2), vote(3, 1), vote(1, 2), vote(1, 1), vote(2, 0), vote(1, 1), vote(3, 2)],
            vec![vote(1, 1), vote(2, 1)],
            vec![vote(2, 2), vote(2, 0), vote(2, 1)],
        ];
        let detail: Vec<_> = DurabilityChecker::check(&events)
            .into_iter()
            .map(|v| {
                assert_eq!(v.kind, ViolationKind::Agreement);
                (v.round, v.detail)
            })
            .collect();
        assert_eq!(
            detail,
            [
                (
                    Some(1),
                    "durability: p0 granted T1 votes to {ProcessId(1), ProcessId(2)} \
                     (VotedFor record did not survive a crash)"
                        .to_string()
                ),
                (
                    Some(3),
                    "durability: p0 granted T3 votes to {ProcessId(1), ProcessId(2)} \
                     (VotedFor record did not survive a crash)"
                        .to_string()
                ),
                (
                    Some(2),
                    "durability: p2 granted T2 votes to {ProcessId(0), ProcessId(1), ProcessId(2)} \
                     (VotedFor record did not survive a crash)"
                        .to_string()
                ),
            ]
        );
    }

    #[test]
    fn duplicate_grants_to_same_candidate_are_fine() {
        // Re-delivered RequestVote from the same candidate re-grants; that
        // is correct Raft behavior, not a durability failure.
        let events = vec![vec![
            RaftEvent::VoteGranted { term: Term(1), candidate: ProcessId(1) },
            RaftEvent::VoteGranted { term: Term(1), candidate: ProcessId(1) },
        ]];
        assert!(DurabilityChecker::check(&events).is_empty());
    }
}
