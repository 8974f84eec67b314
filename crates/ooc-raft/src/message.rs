//! The Raft wire messages — paper **Figure 1**, field for field.
//!
//! One pragmatic addition over the figure: `AckAppendEntries` carries the
//! `match_index` the follower's log reached. The paper's leader responses
//! (Algorithm 8) say "update NextIndex\[i\] and MatchIndex\[i\]", which
//! requires knowing *which* prefix the ack confirms; real implementations
//! either correlate request/response pairs or put the index in the ack.
//! We do the latter.

use crate::types::{LogEntry, LogIndex, Term};
use ooc_simnet::ProcessId;

/// `RequestVote[term, candidateId, lastLogIndex, lastLogTerm]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestVote {
    /// The candidate's term.
    pub term: Term,
    /// The candidate asking for the vote.
    pub candidate_id: ProcessId,
    /// Index of the candidate's last log entry.
    pub last_log_index: LogIndex,
    /// Term of the candidate's last log entry.
    pub last_log_term: Term,
}

/// `ack_RequestVote[term, voteGranted]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRequestVote {
    /// The responder's current term.
    pub term: Term,
    /// Whether the vote was granted.
    pub vote_granted: bool,
}

/// `AppendEntries[term, leaderId, prevLogIndex, prevLogTerm, D&S(v),
/// leaderCommit]`.
///
/// The paper's "first kind" carries entries; the "second kind" carries
/// none and only moves the commit index (§4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendEntries {
    /// The leader's term.
    pub term: Term,
    /// The leader's id.
    pub leader_id: ProcessId,
    /// Index of the entry preceding the new ones.
    pub prev_log_index: LogIndex,
    /// Term of that entry.
    pub prev_log_term: Term,
    /// The entries to append (empty for heartbeats / commit bumps).
    pub entries: Vec<LogEntry>,
    /// The leader's commit index.
    pub leader_commit: LogIndex,
}

impl AppendEntries {
    /// Whether this is the paper's "second kind": no entries, pure
    /// commit-index/heartbeat traffic.
    pub fn is_commit_kind(&self) -> bool {
        self.entries.is_empty()
    }
}

/// `ack_AppendEntries[term, success]` (+ the confirmed `match_index`, see
/// the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckAppendEntries {
    /// The responder's current term.
    pub term: Term,
    /// Whether the append was accepted.
    pub success: bool,
    /// Highest log index the follower's log matches the leader's up to
    /// (meaningful when `success`).
    pub match_index: LogIndex,
}

/// The Raft message union used on the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaftMsg {
    /// A vote solicitation.
    RequestVote(RequestVote),
    /// A vote reply.
    AckRequestVote(AckRequestVote),
    /// Log replication / heartbeat / commit-bump.
    AppendEntries(AppendEntries),
    /// A replication reply.
    AckAppendEntries(AckAppendEntries),
}

impl RaftMsg {
    /// The term the message was sent in.
    pub fn term(&self) -> Term {
        match self {
            RaftMsg::RequestVote(m) => m.term,
            RaftMsg::AckRequestVote(m) => m.term,
            RaftMsg::AppendEntries(m) => m.term,
            RaftMsg::AckAppendEntries(m) => m.term,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DecideAndStop;

    #[test]
    fn commit_kind_detection() {
        let base = AppendEntries {
            term: Term(1),
            leader_id: ProcessId(0),
            prev_log_index: LogIndex(0),
            prev_log_term: Term(0),
            entries: vec![],
            leader_commit: LogIndex(0),
        };
        assert!(base.is_commit_kind());
        let with_entries = AppendEntries {
            entries: vec![LogEntry {
                term: Term(1),
                command: DecideAndStop(4),
            }],
            ..base
        };
        assert!(!with_entries.is_commit_kind());
    }

    #[test]
    fn term_extraction_covers_all_variants() {
        let rv = RaftMsg::RequestVote(RequestVote {
            term: Term(3),
            candidate_id: ProcessId(1),
            last_log_index: LogIndex(0),
            last_log_term: Term(0),
        });
        assert_eq!(rv.term(), Term(3));
        let ack = RaftMsg::AckRequestVote(AckRequestVote {
            term: Term(4),
            vote_granted: true,
        });
        assert_eq!(ack.term(), Term(4));
        let aa = RaftMsg::AckAppendEntries(AckAppendEntries {
            term: Term(5),
            success: false,
            match_index: LogIndex(0),
        });
        assert_eq!(aa.term(), Term(5));
    }
}
