//! Per-node Raft state — paper **Figure 2**, field for field.

use crate::log::RaftLog;
use crate::types::{LogIndex, Term};
use ooc_simnet::ProcessId;

/// `State` — one of follower, candidate or leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// Passive replica; fields `NextIndex`/`MatchIndex` do not apply.
    #[default]
    Follower,
    /// Campaigning for leadership of `CurrentTerm`.
    Candidate,
    /// Leader of `CurrentTerm`.
    Leader,
}

/// State that survives crashes. [`RaftNode`](crate::RaftNode) writes it
/// to the simulator's stable storage through the
/// [`durable`](crate::durable) codecs on every mutation and rebuilds it
/// from whatever survived on restart; how much survives is the
/// [`StoragePolicy`](ooc_simnet::StoragePolicy)'s call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PersistentState {
    /// `CurrentTerm`.
    pub current_term: Term,
    /// `VotedFor` — candidate voted for in the current term.
    pub voted_for: Option<ProcessId>,
    /// `Log[]` — indexed list of commands and their terms.
    pub log: RaftLog,
}

/// State lost on a crash.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VolatileState {
    /// `CommitIndex` — all commands up to and including it may be applied.
    pub commit_index: LogIndex,
    /// `LastApplied` — last command applied to the state machine.
    pub last_applied: LogIndex,
    /// `State`.
    pub role: Role,
}

/// Leader-only bookkeeping (paper: "applies only while leader", rebuilt at
/// every election).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeaderState {
    /// `NextIndex[]` — next log index to send to each processor.
    /// Initialized after election to the leader's last log entry + 1.
    pub next_index: Vec<LogIndex>,
    /// `MatchIndex[]` — highest log index known replicated on each
    /// processor. Initialized to 0.
    pub match_index: Vec<LogIndex>,
}

impl LeaderState {
    /// Fresh leader state for an `n`-processor cluster whose leader's log
    /// ends at `last`.
    pub fn new(n: usize, last: LogIndex) -> Self {
        let mut state = LeaderState::default();
        state.reset(n, last);
        state
    }

    /// Reinitialises the state in place for a new leadership, as
    /// [`new`](LeaderState::new) would build it, reusing its buffers.
    pub fn reset(&mut self, n: usize, last: LogIndex) {
        self.next_index.clear();
        self.next_index.resize(n, last.next());
        self.match_index.clear();
        self.match_index.resize(n, LogIndex::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_state_initialization_matches_figure_two() {
        let ls = LeaderState::new(3, LogIndex(4));
        assert_eq!(ls.next_index, vec![LogIndex(5); 3]);
        assert_eq!(ls.match_index, vec![LogIndex::ZERO; 3]);
    }

    #[test]
    fn reset_rebuilds_what_new_builds() {
        let mut ls = LeaderState::new(5, LogIndex(9));
        ls.match_index[2] = LogIndex(9);
        ls.reset(3, LogIndex(4));
        assert_eq!(ls, LeaderState::new(3, LogIndex(4)));
    }

    #[test]
    fn defaults_are_follower_at_term_zero() {
        let p = PersistentState::default();
        let v = VolatileState::default();
        assert_eq!(p.current_term, Term::ZERO);
        assert_eq!(p.voted_for, None);
        assert_eq!(v.role, Role::Follower);
        assert_eq!(v.commit_index, LogIndex::ZERO);
    }
}
